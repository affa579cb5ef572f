//! Model-based test of `MemRegion`'s word-backed store.
//!
//! The region keeps its bytes as f32 bit patterns, four to a word, and
//! serves aligned accesses as slice copies or borrows.  The model below
//! is the plain byte array that representation replaced, every primitive
//! written byte by byte.  Random operation sequences — aligned and
//! unaligned, in and out of bounds, with bit flips armed — must leave the
//! two indistinguishable: equal results (bit for bit, so NaN payloads and
//! `-0.0` count), equal errors, equal `materialised()`, equal bytes.

use dspsim::{Dma2d, MemRegion, SimError};
use proptest::prelude::*;

/// The reference region: a byte array and the documented semantics.
struct Model {
    name: &'static str,
    data: Vec<u8>,
    capacity: u64,
    growable: bool,
    reads: u64,
    pending: Vec<(u64, u64)>,
    flips: u64,
}

impl Model {
    fn new(name: &'static str, capacity: u64, growable: bool) -> Self {
        Model {
            name,
            data: Vec::new(),
            capacity,
            growable,
            reads: 0,
            pending: Vec::new(),
            flips: 0,
        }
    }

    fn check(&self, offset: u64, len: u64) -> Result<u64, SimError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.capacity => Ok(end),
            _ => Err(SimError::OutOfBounds {
                region: self.name,
                offset,
                len,
                capacity: self.capacity,
            }),
        }
    }

    fn ensure(&mut self, offset: u64, len: u64) -> Result<(), SimError> {
        let end = self.check(offset, len)?;
        let want = if self.growable { end } else { self.capacity } as usize;
        if self.data.len() < want {
            self.data.resize(want, 0);
        }
        Ok(())
    }

    fn hook(&mut self, offset: u64, len: u64) {
        if self.pending.is_empty() || len == 0 {
            return;
        }
        self.reads += 1;
        while let Some(&(nth, rng)) = self.pending.first() {
            if nth > self.reads {
                break;
            }
            self.pending.remove(0);
            let at = if len >= 4 {
                offset + rng % (len / 4) * 4 + 3
            } else {
                offset
            };
            self.data[at as usize] ^= 0x40;
            self.flips += 1;
        }
    }

    fn schedule_flip(&mut self, nth: u64, rng: u64) {
        self.pending.push((self.reads + nth, rng));
        self.pending.sort_unstable();
    }

    fn flip_f32_msb(&mut self, offset: u64) -> Result<(), SimError> {
        self.ensure(offset, 4)?;
        self.data[offset as usize + 3] ^= 0x40;
        Ok(())
    }

    fn read(&mut self, offset: u64, len: u64) -> Result<Vec<u8>, SimError> {
        self.ensure(offset, len)?;
        self.hook(offset, len);
        Ok(self.data[offset as usize..(offset + len) as usize].to_vec())
    }

    fn write(&mut self, offset: u64, bytes: &[u8]) -> Result<(), SimError> {
        self.ensure(offset, bytes.len() as u64)?;
        self.data[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn copy_within(&mut self, src: u64, dst: u64, len: u64) -> Result<(), SimError> {
        self.ensure(src, len)?;
        self.ensure(dst, len)?;
        self.data
            .copy_within(src as usize..(src + len) as usize, dst as usize);
        Ok(())
    }

    /// The DMA primitive, naively: refuse the descriptor unless every row
    /// of both sides is in bounds (source first), then move it a byte at
    /// a time, each source row one read.
    fn copy_2d_from(&mut self, src: &mut Model, d: &Dma2d) -> Result<(), SimError> {
        let row_at = |off: u64, stride: u64, row: u64| {
            u64::try_from(off as u128 + row as u128 * stride as u128).unwrap_or(u64::MAX)
        };
        for row in 0..d.rows {
            src.check(row_at(d.src_off, d.src_stride, row), d.row_bytes)?;
        }
        for row in 0..d.rows {
            self.check(row_at(d.dst_off, d.dst_stride, row), d.row_bytes)?;
        }
        for row in 0..d.rows {
            let from = d.src_off + row * d.src_stride;
            let to = d.dst_off + row * d.dst_stride;
            src.ensure(from, d.row_bytes)?;
            self.ensure(to, d.row_bytes)?;
            src.hook(from, d.row_bytes);
            for i in 0..d.row_bytes as usize {
                self.data[to as usize + i] = src.data[from as usize + i];
            }
        }
        Ok(())
    }
}

fn le_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bit patterns that a value-level (rather than bit-level) store would
/// damage: 1.25, the signalling NaN its bit-30 flip produces, `-0.0`, a
/// second sNaN, a NaN with a payload, a subnormal — and anything at all.
fn pattern(pick: u64) -> u32 {
    const POOL: [u32; 6] = [
        0x3FA0_0000,
        0x7FA0_0000,
        0x8000_0000,
        0x7F80_0001,
        0xFFC0_1234,
        0x0000_0001,
    ];
    match pick % 8 {
        i @ 0..=5 => POOL[i as usize],
        _ => (pick >> 8) as u32,
    }
}

/// One generated step: `(operation, target region, two offsets, a length
/// in bytes, alignment mask, random bits)`.
type Step = (u8, usize, u64, u64, u64, (u8, u64));

const CAPACITY: [u64; 2] = [301, 400];

fn regions() -> ([MemRegion; 2], [Model; 2]) {
    (
        [
            MemRegion::fixed("AM", CAPACITY[0] as usize),
            MemRegion::growable("DDR", CAPACITY[1]),
        ],
        [
            Model::new("AM", CAPACITY[0], false),
            Model::new("DDR", CAPACITY[1], true),
        ],
    )
}

/// Same variant, and for everything but a binding error the same fields.
fn same_outcome<T: PartialEq + std::fmt::Debug>(
    real: &Result<T, SimError>,
    model: &Result<T, SimError>,
) -> bool {
    match (real, model) {
        (Err(SimError::BadBinding { .. }), Err(SimError::BadBinding { .. })) => true,
        _ => real == model,
    }
}

/// Both sides moved the block, or both refused it for the same region
/// (the region names its *last* row, the model the first that fails).
fn same_refusal(real: &Result<(), SimError>, model: &Result<(), SimError>) -> bool {
    use SimError::OutOfBounds;
    match (real, model) {
        (Err(OutOfBounds { region: r, .. }), Err(OutOfBounds { region: m, .. })) => r == m,
        _ => real == model,
    }
}

fn bad_binding<T>() -> Result<T, SimError> {
    Err(SimError::BadBinding {
        detail: String::new(),
    })
}

/// Apply one step to both sides and compare what it returns.
fn step(real: &mut [MemRegion; 2], model: &mut [Model; 2], s: Step) {
    let (op, t, a, b, len, (mask, rnd)) = s;
    // Each of the two offsets and the length is snapped to a word half
    // the time, so the slice-copy paths and the byte paths both get
    // traffic.
    let snap = |v: u64, bit: u8| if mask & bit == 0 { v & !3 } else { v };
    let (a, b, len) = (snap(a, 1), snap(b, 2), snap(len, 4));
    let n = (len / 4) as usize;
    let values: Vec<f32> = (0..n as u64)
        .map(|i| f32::from_bits(pattern(rnd.rotate_left(7 * i as u32))))
        .collect();
    let value_bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let ctx = format!("{s:?}");
    macro_rules! same {
        ($real:expr, $model:expr) => {{
            let (r, m) = ($real, $model);
            assert!(same_outcome(&r, &m), "{ctx}: real {r:?} vs model {m:?}");
        }};
    }
    match op {
        0 => same!(
            real[t].write_f32(a, f32::from_bits(pattern(rnd))),
            model[t].write(a, &pattern(rnd).to_le_bytes())
        ),
        1 => same!(
            real[t].write_f32_slice(a, &values),
            model[t].write(a, &value_bytes)
        ),
        2 => same!(
            real[t].read_f32(a).map(f32::to_bits),
            model[t].read(a, 4).map(|w| le_words(&w)[0])
        ),
        3 => {
            let mut out = vec![0.0f32; n];
            same!(
                real[t].read_f32_slice(a, &mut out).map(|()| bits(&out)),
                model[t].read(a, 4 * n as u64).map(|w| le_words(&w))
            );
        }
        4 => same!(
            real[t].read_u32(a),
            model[t].read(a, 4).map(|w| u64::from(le_words(&w)[0]))
        ),
        5 => same!(
            real[t].read_u64(a),
            model[t]
                .read(a, 8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        ),
        6 => {
            let [r0, r1] = real;
            let [m0, m1] = model;
            let ((rd, rs), (md, ms)) = if t == 0 {
                ((r0, r1), (m0, m1))
            } else {
                ((r1, r0), (m1, m0))
            };
            let d = Dma2d::flat(a, b, len);
            same!(rd.copy_2d_from(rs, &d), md.copy_2d_from(ms, &d));
        }
        7 => same!(
            real[t].copy_within(a, b, len),
            model[t].copy_within(a, b, len)
        ),
        8 => same!(
            real[t].zero(a, len),
            model[t].write(a, &vec![0; len as usize])
        ),
        9 => same!(real[t].flip_f32_msb(a), model[t].flip_f32_msb(a)),
        10 => {
            real[t].schedule_flip(1 + rnd % 3, rnd >> 8);
            model[t].schedule_flip(1 + rnd % 3, rnd >> 8);
        }
        11 => {
            let want = if a % 4 == 0 {
                model[t].read(a, 4 * n as u64).map(|w| le_words(&w))
            } else {
                bad_binding()
            };
            same!(real[t].view_f32(a, n).map(bits), want);
        }
        _ => {
            // A pair of views: read `n` shared words at `a`, store their
            // bit-inverted patterns over the head of `xn` words at `b`.
            let xn = (rnd % 6) as usize;
            let got = real[t].view_f32_pair((a, n), (b, xn)).map(|(s, x)| {
                for (x, s) in x.iter_mut().zip(s) {
                    *x = f32::from_bits(!s.to_bits());
                }
                (bits(s), bits(x))
            });
            let (a_len, b_len) = (4 * n as u64, 4 * xn as u64);
            let md = &mut model[t];
            let span = |off: u64, len: u64| match off % 4 {
                0 => md.check(off, len),
                _ => bad_binding(),
            };
            let want = match span(a, a_len).and_then(|_| span(b, b_len)) {
                Err(e) => Err(e),
                Ok(_) if a < b + b_len && b < a + a_len => bad_binding(),
                Ok(_) => {
                    let s = le_words(&md.read(a, a_len).unwrap());
                    let mut x = le_words(&md.read(b, b_len).unwrap());
                    for (x, s) in x.iter_mut().zip(&s) {
                        *x = !s;
                    }
                    let bytes: Vec<u8> = x.iter().flat_map(|w| w.to_le_bytes()).collect();
                    md.write(b, &bytes).unwrap();
                    Ok((s, x))
                }
            };
            same!(got, want);
        }
    }
    for (r, m) in real.iter().zip(model.iter()) {
        assert_eq!(r.materialised(), m.data.len() as u64, "{ctx}: materialised");
        assert_eq!(r.flips_applied(), m.flips, "{ctx}: flips applied");
    }
}

/// Every byte, through every alignment (pending flips fire on the same
/// reads of both sides).
fn assert_same_bytes(real: &mut [MemRegion; 2], model: &mut [Model; 2]) {
    for (r, m) in real.iter_mut().zip(model.iter_mut()) {
        for at in 0..=m.capacity {
            let want = m.read(at, 4).map(|w| u64::from(le_words(&w)[0]));
            assert_eq!(r.read_u32(at), want, "{} byte {at}", m.name);
        }
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..13,
            0usize..2,
            0u64..420,
            0u64..420,
            0u64..72,
            (0u8..32, 0u64..u64::MAX),
        ),
        1..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn word_store_is_indistinguishable_from_a_byte_array(ops in steps()) {
        let (mut real, mut model) = regions();
        for s in ops {
            step(&mut real, &mut model, s);
        }
        assert_same_bytes(&mut real, &mut model);
    }
}

/// One generated DMA block: `(rows, row bytes, (source offset, stride
/// pick), (destination offset, stride pick), (alignment mask, direction,
/// fill seed), armed flip)`.
type Block = (u64, u64, (u64, u64), (u64, u64), (u8, u8, u64), (u64, u64));

fn blocks() -> impl Strategy<Value = Block> {
    (
        0u64..6,
        0u64..44,
        (0u64..300, 0u64..u64::MAX),
        (0u64..300, 0u64..u64::MAX),
        (0u8..32, 0u8..2, 0u64..u64::MAX),
        (0u64..8, 0u64..u64::MAX),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// 2-D descriptors against the naive per-byte loop: zero strides,
    /// overlapping rows, misaligned offsets and lengths, blocks that leave
    /// either region (refused whole), and a flip armed on one of the
    /// block's source rows.
    #[test]
    fn dma_blocks_match_a_per_byte_loop(block in blocks()) {
        let (rows, len, (src_off, src_pick), (dst_off, dst_pick), (mask, to_am, seed), flip) = block;
        let snap = |v: u64, bit: u8| if mask & bit == 0 { v & !3 } else { v };
        let len = snap(len, 1);
        // Stride 0, rows overlapping by half, dense, or a gap.
        let stride = |pick: u64, bit: u8| match pick % 4 {
            0 => 0,
            1 => snap(len / 2, bit),
            2 => len,
            _ => len + snap(pick >> 8 & 31, bit),
        };
        let d = Dma2d {
            rows,
            row_bytes: len,
            src_off: snap(src_off, 2),
            src_stride: stride(src_pick, 4),
            dst_off: snap(dst_off, 8),
            dst_stride: stride(dst_pick, 16),
        };
        let (mut real, mut model) = regions();
        for t in 0..2 {
            let fill: Vec<f32> = (0..CAPACITY[t] / 8)
                .map(|i| f32::from_bits(pattern(seed.rotate_left(5 * i as u32 + t as u32))))
                .collect();
            let bytes: Vec<u8> = fill.iter().flat_map(|v| v.to_le_bytes()).collect();
            real[t].write_f32_slice(0, &fill).unwrap();
            model[t].write(0, &bytes).unwrap();
        }
        let [r_am, r_ddr] = &mut real;
        let [m_am, m_ddr] = &mut model;
        let ((rd, rs), (md, ms)) = if to_am == 1 {
            ((r_am, r_ddr), (m_am, m_ddr))
        } else {
            ((r_ddr, r_am), (m_ddr, m_am))
        };
        // Flips 1..=5 strike a row of this block, later ones stay armed.
        if flip.0 > 0 {
            rs.schedule_flip(flip.0, flip.1);
            ms.schedule_flip(flip.0, flip.1);
        }
        let (got, want) = (rd.copy_2d_from(rs, &d), md.copy_2d_from(ms, &d));
        prop_assert!(same_refusal(&got, &want), "{:?}: real {:?} vs model {:?}", d, got, want);
        for (r, m) in real.iter().zip(model.iter()) {
            prop_assert_eq!(r.materialised(), m.data.len() as u64, "{:?}: materialised", d);
            prop_assert_eq!(r.flips_applied(), m.flips, "{:?}: flips applied", d);
        }
        assert_same_bytes(&mut real, &mut model);
    }
}

/// 1.25 with its exponent MSB flipped is a signalling NaN; it must reach
/// a kernel's view with the payload it had at rest — through the flip,
/// a DMA copy, and the view itself.
#[test]
fn signalling_nan_and_negative_zero_survive_dma_and_views() {
    let mut ddr = MemRegion::growable("DDR", 1 << 12);
    let mut am = MemRegion::fixed("AM", 1 << 10);
    ddr.write_f32_slice(64, &[1.25, -0.0, f32::from_bits(0x7F80_0001)])
        .unwrap();
    ddr.flip_f32_msb(64).unwrap();
    am.copy_2d_from(&mut ddr, &Dma2d::flat(64, 128, 12))
        .unwrap();
    let want = [0x7FA0_0000, 0x8000_0000, 0x7F80_0001];
    assert_eq!(bits(am.view_f32(128, 3).unwrap()), want);
    let (b, c) = am.view_f32_pair((128, 3), (256, 3)).unwrap();
    c.copy_from_slice(b);
    let mut out = [0.0f32; 3];
    am.read_f32_slice(256, &mut out).unwrap();
    assert_eq!(bits(&out), want);
    // Unaligned: the same twelve bytes, one byte up.
    am.copy_within(256, 513, 12).unwrap();
    am.read_f32_slice(513, &mut out).unwrap();
    assert_eq!(bits(&out), want);
    assert_eq!(am.read_u64(513).unwrap(), 0x8000_0000_7FA0_0000);
}
