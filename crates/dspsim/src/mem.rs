//! Byte-addressed memory regions with f32 views and bump allocation.
//!
//! All four memory levels (DDR, GSM, SM, AM) use the same region type.
//! Addresses, lengths, capacities and bounds are in bytes; the backing
//! store is 4-byte words, each held as the f32 with that bit pattern
//! (little-endian byte order inside a word).  Everything the simulator
//! does in bulk is word-aligned — f32 slices, DMA rows, the scratchpad
//! views kernels compute on — and is a slice copy or a borrow of the
//! store.  Unaligned offsets and the byte-granular primitives (bit
//! flips, `read_u32`/`read_u64`) go through `to_bits`/`from_bits` and
//! see exactly the bytes a byte array would hold; no f32 arithmetic
//! ever touches a stored word, so NaN payloads and `-0.0` survive.
//!
//! Backing store materialises on first touch, never on construction or
//! allocation: a scratchpad materialises whole, DDR grows to the touched
//! end.  Capacity, allocation and bounds checks never look at what is
//! materialised, so a run that touches no data (timing mode) costs no
//! memory however much it allocates.

use crate::{Dma2d, SimError};
use std::ops::Range;

/// One memory region.
#[derive(Debug, Clone)]
pub struct MemRegion {
    name: &'static str,
    /// Materialised store, one f32 bit pattern per 4-byte word
    /// (`words.len() == bytes.div_ceil(4)`).
    words: Vec<f32>,
    /// Bytes materialised.
    bytes: u64,
    capacity: u64,
    /// Bump-allocation watermark.
    watermark: u64,
    /// What a touch materialises: the range's end (`true`, DDR) or the
    /// whole region (`false`, scratchpads).
    growable: bool,
    /// Reads observed since a flip was scheduled (untouched — and never
    /// counted — while no flips are pending, so fault-free runs pay
    /// nothing).
    reads: u64,
    /// Scheduled bit flips: `(nth_read, rng_word)`, ascending by read
    /// count.  The flip damages the stored bytes *in place* (a fault at
    /// rest), so it persists until the location is overwritten.
    pending_flips: Vec<(u64, u64)>,
    /// Flips that have fired.
    flips_applied: u64,
}

/// Word range of `n` words at the (word-aligned, bounds-checked) byte
/// offset `offset`.
#[inline]
fn word_range(offset: u64, n: usize) -> Range<usize> {
    let w = (offset / 4) as usize;
    w..w + n
}

impl MemRegion {
    fn new(name: &'static str, capacity: u64, growable: bool) -> Self {
        MemRegion {
            name,
            words: Vec::new(),
            bytes: 0,
            capacity,
            watermark: 0,
            growable,
            reads: 0,
            pending_flips: Vec::new(),
            flips_applied: 0,
        }
    }

    /// A fixed-size scratchpad: zero-filled, materialised whole on its
    /// first read, write or flip.
    pub fn fixed(name: &'static str, capacity: usize) -> Self {
        Self::new(name, capacity as u64, false)
    }

    /// A lazily grown region (DDR): zero-filled, backing storage grows to
    /// the end of each touched range.
    pub fn growable(name: &'static str, capacity: u64) -> Self {
        Self::new(name, capacity, true)
    }

    /// Region name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently bump-allocated.
    pub fn allocated(&self) -> u64 {
        self.watermark
    }

    /// Bytes of backing store currently materialised (0 until the first
    /// read, write or flip).
    pub fn materialised(&self) -> u64 {
        self.bytes
    }

    /// Bounds-check an access against the capacity; returns its end.
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

    /// Materialise the store an access ending at `end` touches.
    fn touch(&mut self, end: u64) {
        let want = if self.growable { end } else { self.capacity };
        if self.bytes >= want {
            return;
        }
        let n = want.div_ceil(4) as usize;
        if self.words.is_empty() {
            // `vec!` of zeros is one zeroed allocation: no page is written.
            self.words = vec![0.0; n];
        } else {
            self.words.resize(n, 0.0);
        }
        self.bytes = want;
    }

    /// Materialise everything allocated so far in one step, where DDR
    /// grown upload by upload would reallocate once per upload.
    pub fn materialise_allocated(&mut self) {
        self.touch(self.watermark);
    }

    /// Bounds-check an access, then materialise the store it touches.
    fn ensure(&mut self, offset: u64, len: u64) -> Result<(), SimError> {
        let end = self.check(offset, len)?;
        self.touch(end);
        Ok(())
    }

    /// Bump-allocate `bytes`, aligned to `align` (power of two), returning
    /// the byte offset.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Result<u64, SimError> {
        debug_assert!(align.is_power_of_two());
        let (region, capacity) = (self.name, self.capacity);
        let fail = |start: u64| SimError::AllocFailure {
            region,
            requested: bytes,
            available: capacity.saturating_sub(start),
        };
        let start = self
            .watermark
            .checked_add(align - 1)
            .ok_or_else(|| fail(u64::MAX))?
            & !(align - 1);
        let end = start
            .checked_add(bytes)
            .filter(|&end| end <= capacity)
            .ok_or_else(|| fail(start))?;
        self.watermark = end;
        Ok(start)
    }

    /// Release all bump allocations (contents are preserved).
    pub fn reset_alloc(&mut self) {
        self.watermark = 0;
    }

    /// Arm a bit flip on the `nth_read`-th read (1-based, counted from
    /// now); `rng` deterministically picks the flipped word within the
    /// accessed range.
    pub fn schedule_flip(&mut self, nth_read: u64, rng: u64) {
        let base = self.reads;
        self.pending_flips.push((base + nth_read, rng));
        self.pending_flips.sort_unstable();
    }

    /// Bit flips that have fired in this region.
    pub fn flips_applied(&self) -> u64 {
        self.flips_applied
    }

    /// The materialised byte at `at`.
    fn byte(&self, at: u64) -> u8 {
        self.words[(at / 4) as usize].to_bits().to_le_bytes()[(at % 4) as usize]
    }

    /// The four materialised bytes from `at` (any alignment), as a
    /// little-endian u32.
    #[inline]
    fn load_u32(&self, at: u64) -> u32 {
        if at.is_multiple_of(4) {
            self.words[(at / 4) as usize].to_bits()
        } else {
            u32::from_le_bytes(std::array::from_fn(|i| self.byte(at + i as u64)))
        }
    }

    /// XOR `mask` into the materialised byte at `at`; every byte-granular
    /// store is this on the containing word's bit pattern.
    fn xor_byte(&mut self, at: u64, mask: u8) {
        let w = &mut self.words[(at / 4) as usize];
        *w = f32::from_bits(w.to_bits() ^ (u32::from(mask) << (8 * (at % 4))));
    }

    fn set_byte(&mut self, at: u64, value: u8) {
        self.xor_byte(at, self.byte(at) ^ value);
    }

    /// Flip the exponent MSB (bit 30) of the f32 at `offset` in place —
    /// the DMA corruption primitive.
    pub fn flip_f32_msb(&mut self, offset: u64) -> Result<(), SimError> {
        self.ensure(offset, 4)?;
        self.xor_byte(offset + 3, 0x40);
        Ok(())
    }

    /// Fault hook, called on each read access *after* bounds are ensured.
    /// Free when nothing is armed: the read counter only ticks while a
    /// flip is pending, so fault-free runs take one branch and return.
    #[inline]
    fn fault_hook(&mut self, offset: u64, len: u64) {
        if self.pending_flips.is_empty() || len == 0 {
            return;
        }
        self.reads += 1;
        while let Some(&(nth, rng)) = self.pending_flips.first() {
            if nth > self.reads {
                break;
            }
            self.pending_flips.remove(0);
            // Flip bit 30 (exponent MSB) of one f32-aligned word in the
            // accessed range: non-zero values change by orders of
            // magnitude, zeros become 2.0 — both detectable by checksums.
            if len >= 4 {
                let word = rng % (len / 4);
                self.xor_byte(offset + word * 4 + 3, 0x40);
            } else {
                self.xor_byte(offset, 0x40);
            }
            self.flips_applied += 1;
        }
    }

    /// Read one f32 (little-endian).
    pub fn read_f32(&mut self, offset: u64) -> Result<f32, SimError> {
        self.read_u32(offset)
            .map(|bits| f32::from_bits(bits as u32))
    }

    /// Write one f32 (little-endian).
    pub fn write_f32(&mut self, offset: u64, value: f32) -> Result<(), SimError> {
        self.write_f32_slice(offset, &[value])
    }

    /// Read `count` consecutive f32 into `out`.
    pub fn read_f32_slice(&mut self, offset: u64, out: &mut [f32]) -> Result<(), SimError> {
        self.ensure(offset, 4 * out.len() as u64)?;
        self.fault_hook(offset, 4 * out.len() as u64);
        if offset.is_multiple_of(4) {
            out.copy_from_slice(&self.words[word_range(offset, out.len())]);
        } else {
            for (v, at) in out.iter_mut().zip((offset..).step_by(4)) {
                *v = f32::from_bits(self.load_u32(at));
            }
        }
        Ok(())
    }

    /// Write a slice of consecutive f32.
    pub fn write_f32_slice(&mut self, offset: u64, values: &[f32]) -> Result<(), SimError> {
        self.ensure(offset, 4 * values.len() as u64)?;
        if offset.is_multiple_of(4) {
            self.words[word_range(offset, values.len())].copy_from_slice(values);
        } else {
            let bytes = values.iter().flat_map(|v| v.to_le_bytes());
            for (b, at) in bytes.zip(offset..) {
                self.set_byte(at, b);
            }
        }
        Ok(())
    }

    /// Read one u64 (for the scalar register file's packed loads).
    pub fn read_u64(&mut self, offset: u64) -> Result<u64, SimError> {
        self.ensure(offset, 8)?;
        self.fault_hook(offset, 8);
        Ok(u64::from(self.load_u32(offset)) | u64::from(self.load_u32(offset + 4)) << 32)
    }

    /// Read one u32 zero-extended to u64.
    pub fn read_u32(&mut self, offset: u64) -> Result<u64, SimError> {
        self.ensure(offset, 4)?;
        self.fault_hook(offset, 4);
        Ok(u64::from(self.load_u32(offset)))
    }

    /// Word range and byte length of a `count`-element f32 view at
    /// `offset`.  A view borrows whole words, so a misaligned one is a
    /// binding error; bounds are checked, nothing is materialised.
    #[inline]
    fn view_span(&self, offset: u64, count: usize) -> Result<(Range<usize>, u64), SimError> {
        if !offset.is_multiple_of(4) {
            return Err(SimError::BadBinding {
                detail: format!(
                    "{}: f32 view at byte offset {offset} is not word-aligned",
                    self.name
                ),
            });
        }
        let len = (count as u64).saturating_mul(4);
        self.check(offset, len)?;
        Ok((word_range(offset, count), len))
    }

    /// The spans of a [`MemRegion::view_f32_pair`]: each one checked like
    /// a single view, then refused if they overlap.
    #[inline]
    fn pair_spans(
        &self,
        shared: (u64, usize),
        exclusive: (u64, usize),
    ) -> Result<[(Range<usize>, u64); 2], SimError> {
        let (s_words, s_len) = self.view_span(shared.0, shared.1)?;
        let (x_words, x_len) = self.view_span(exclusive.0, exclusive.1)?;
        if s_words.start < x_words.end && x_words.start < s_words.end {
            return Err(SimError::BadBinding {
                detail: format!(
                    "{}: f32 views [{}, +{s_len}) and [{}, +{x_len}) overlap",
                    self.name, shared.0, exclusive.0
                ),
            });
        }
        Ok([(s_words, s_len), (x_words, x_len)])
    }

    /// Refuse exactly what [`MemRegion::view_f32`] refuses, without
    /// taking the view: nothing is materialised and no read is counted.
    #[inline]
    pub fn check_f32(&self, offset: u64, count: usize) -> Result<(), SimError> {
        self.view_span(offset, count).map(drop)
    }

    /// Refuse exactly what [`MemRegion::view_f32_pair`] refuses, without
    /// taking the views.
    #[inline]
    pub fn check_f32_pair(
        &self,
        shared: (u64, usize),
        exclusive: (u64, usize),
    ) -> Result<(), SimError> {
        self.pair_spans(shared, exclusive).map(drop)
    }

    /// Borrow `count` consecutive f32 at `offset` in place.  A read
    /// access like [`MemRegion::read_f32_slice`] (bounds, materialisation,
    /// fault hook) that copies nothing.
    pub fn view_f32(&mut self, offset: u64, count: usize) -> Result<&[f32], SimError> {
        self.view_f32_mut(offset, count).map(|v| &*v)
    }

    /// [`MemRegion::view_f32`] for a read-modify-write of the range: the
    /// access counts as one read.
    pub fn view_f32_mut(&mut self, offset: u64, count: usize) -> Result<&mut [f32], SimError> {
        let (span, len) = self.view_span(offset, count)?;
        self.touch(offset + len);
        self.fault_hook(offset, len);
        Ok(&mut self.words[span])
    }

    /// Borrow two disjoint f32 ranges in place: `shared` read-only,
    /// `exclusive` for read-modify-write, each given as `(byte offset,
    /// element count)`.  Two read accesses, `shared` first.  Misaligned
    /// or overlapping ranges are [`SimError::BadBinding`]; a refused pair
    /// materialises nothing and fires no fault.
    pub fn view_f32_pair(
        &mut self,
        shared: (u64, usize),
        exclusive: (u64, usize),
    ) -> Result<(&[f32], &mut [f32]), SimError> {
        let [(s_words, s_len), (x_words, x_len)] = self.pair_spans(shared, exclusive)?;
        self.touch((shared.0 + s_len).max(exclusive.0 + x_len));
        self.fault_hook(shared.0, s_len);
        self.fault_hook(exclusive.0, x_len);
        Ok(if s_words.end <= x_words.start {
            let (lo, hi) = self.words.split_at_mut(x_words.start);
            (&lo[s_words], &mut hi[..x_words.len()])
        } else {
            let (lo, hi) = self.words.split_at_mut(s_words.start);
            (&hi[..s_words.len()], &mut lo[x_words])
        })
    }

    /// Raw byte copy *within* this region.
    pub fn copy_within(&mut self, src: u64, dst: u64, len: u64) -> Result<(), SimError> {
        self.ensure(src, len)?;
        self.ensure(dst, len)?;
        if (src | dst | len).is_multiple_of(4) {
            self.words
                .copy_within(word_range(src, (len / 4) as usize), (dst / 4) as usize);
        } else {
            let bytes: Vec<u8> = (src..src + len).map(|at| self.byte(at)).collect();
            for (b, at) in bytes.into_iter().zip(dst..) {
                self.set_byte(at, b);
            }
        }
        Ok(())
    }

    /// Bounds-check `rows ≥ 1` rows of `len` bytes, `stride` bytes apart
    /// from `offset`; returns the block's end.  Strides are unsigned, so
    /// the last row reaches furthest and its extent is the block's.
    fn check_rows(&self, offset: u64, stride: u64, rows: u64, len: u64) -> Result<u64, SimError> {
        let last = (rows - 1).checked_mul(stride);
        match last.and_then(|span| offset.checked_add(span)) {
            Some(last) => self.check(last, len),
            // A row offset past `u64` lies in no region.
            None => Err(SimError::OutOfBounds {
                region: self.name,
                offset: u64::MAX,
                len,
                capacity: self.capacity,
            }),
        }
    }

    /// Bounds-check both extents of copying `d` from `src` into this
    /// region; returns their ends (`None` for an empty block).  Touches
    /// nothing: it is what [`MemRegion::copy_2d_from`] checks first and
    /// all a timing-mode DMA does.
    pub(crate) fn check_2d_from(
        &self,
        src: &MemRegion,
        d: &Dma2d,
    ) -> Result<Option<(u64, u64)>, SimError> {
        if d.rows == 0 {
            return Ok(None);
        }
        Ok(Some((
            src.check_rows(d.src_off, d.src_stride, d.rows, d.row_bytes)?,
            self.check_rows(d.dst_off, d.dst_stride, d.rows, d.row_bytes)?,
        )))
    }

    /// Copy a 2-D block from another region into this one (the DMA
    /// primitive).  Both extents are checked before either region is
    /// touched, so a refused descriptor copies nothing, materialises
    /// nothing and is not a read.  Each row is then one read access of
    /// `src` and a word-slice copy (byte by byte when an offset, stride
    /// or the row length is no whole number of words), in row order.
    pub fn copy_2d_from(&mut self, src: &mut MemRegion, d: &Dma2d) -> Result<(), SimError> {
        let Some((src_end, dst_end)) = self.check_2d_from(src, d)? else {
            return Ok(());
        };
        src.touch(src_end);
        self.touch(dst_end);
        let whole_words =
            (d.src_off | d.src_stride | d.dst_off | d.dst_stride | d.row_bytes).is_multiple_of(4);
        let n = (d.row_bytes / 4) as usize;
        for row in 0..d.rows {
            let from = d.src_off + row * d.src_stride;
            let to = d.dst_off + row * d.dst_stride;
            src.fault_hook(from, d.row_bytes);
            if whole_words {
                self.words[word_range(to, n)].copy_from_slice(&src.words[word_range(from, n)]);
            } else {
                for i in 0..d.row_bytes {
                    self.set_byte(to + i, src.byte(from + i));
                }
            }
        }
        Ok(())
    }

    /// Copy `rows` rows of `cols` consecutive f32, `stride` bytes apart
    /// from `offset`, into `out` (`rows · cols` long, else a panic): checked
    /// and materialised once like [`MemRegion::copy_2d_from`], each row one
    /// read access.
    pub fn read_2d_f32(
        &mut self,
        offset: u64,
        stride: u64,
        rows: usize,
        cols: usize,
        out: &mut [f32],
    ) -> Result<(), SimError> {
        assert_eq!(out.len(), rows * cols, "read_2d_f32 output size");
        if rows == 0 {
            return Ok(());
        }
        let len = (cols as u64).saturating_mul(4);
        let end = self.check_rows(offset, stride, rows as u64, len)?;
        self.touch(end);
        for row in 0..rows {
            let (at, dst) = (offset + row as u64 * stride, &mut out[row * cols..][..cols]);
            self.fault_hook(at, len);
            if at.is_multiple_of(4) {
                dst.copy_from_slice(&self.words[word_range(at, cols)]);
            } else {
                for (d, w) in dst.iter_mut().zip((at..).step_by(4)) {
                    *d = f32::from_bits(self.load_u32(w));
                }
            }
        }
        Ok(())
    }

    /// Zero a byte range.
    pub fn zero(&mut self, offset: u64, len: u64) -> Result<(), SimError> {
        self.ensure(offset, len)?;
        if (offset | len).is_multiple_of(4) {
            self.words[word_range(offset, (len / 4) as usize)].fill(0.0);
        } else {
            (offset..offset + len).for_each(|at| self.set_byte(at, 0));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trips() {
        let mut m = MemRegion::fixed("SM", 64);
        m.write_f32(12, 3.5).unwrap();
        assert_eq!(m.read_f32(12).unwrap(), 3.5);
        m.write_f32_slice(16, &[1.0, -2.0, 0.25]).unwrap();
        let mut out = [0.0; 3];
        m.read_f32_slice(16, &mut out).unwrap();
        assert_eq!(out, [1.0, -2.0, 0.25]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = MemRegion::fixed("AM", 16);
        assert!(m.write_f32(14, 1.0).is_err());
        assert!(m.read_f32(u64::MAX - 1).is_err(), "offset overflow guarded");
        assert!(m.read_u64(9).is_err());
        assert!(m.read_u64(8).is_ok());
    }

    #[test]
    fn growable_region_grows_lazily_up_to_capacity() {
        let mut m = MemRegion::growable("DDR", 1 << 20);
        assert_eq!(m.materialised(), 0);
        m.write_f32(1000, 7.0).unwrap();
        assert_eq!(m.materialised(), 1004);
        assert!(m.write_f32(1 << 20, 7.0).is_err());
    }

    #[test]
    fn alloc_materialises_nothing_and_checks_are_independent_of_it() {
        let mut m = MemRegion::growable("DDR", 2 << 30);
        assert_eq!(m.alloc(1 << 30, 64).unwrap(), 0);
        assert_eq!((m.allocated(), m.materialised()), (1 << 30, 0));
        // Capacity is enforced against the watermark, not the store.
        let err = m.alloc((1 << 30) + 1, 1).unwrap_err();
        assert!(matches!(
            err,
            SimError::AllocFailure {
                requested,
                available,
                ..
            } if requested == (1 << 30) + 1 && available == 1 << 30
        ));
        // Bounds are enforced against the capacity, inside or outside
        // what was allocated, and a refused access materialises nothing.
        assert!(matches!(
            m.write_f32((2 << 30) - 2, 1.0),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(m.read_f32(u64::MAX - 1).is_err());
        assert_eq!(m.materialised(), 0);
        // A touch grows the store to the touched end, no further.
        assert_eq!(m.read_f32(4096).unwrap(), 0.0);
        assert_eq!(m.materialised(), 4100);
        m.write_f32(8, 1.0).unwrap();
        assert_eq!(m.materialised(), 4100);

        let mut sm = MemRegion::fixed("SM", 1024);
        sm.alloc(512, 64).unwrap();
        assert_eq!(sm.materialised(), 0);
        assert!(sm.write_f32(1022, 1.0).is_err());
        assert_eq!(sm.materialised(), 0);
        sm.write_f32(0, 1.0).unwrap();
        assert_eq!(sm.materialised(), 1024, "a scratchpad materialises whole");
    }

    #[test]
    fn flips_materialise_an_untouched_scratchpad_and_hit_the_same_word() {
        // Scheduled flip: the first read of 8 words picks word rng % 8.
        let mut am = MemRegion::fixed("AM", 4096);
        am.schedule_flip(1, 13);
        assert_eq!(am.materialised(), 0, "arming a flip touches nothing");
        let mut out = [0.0f32; 8];
        am.read_f32_slice(256, &mut out).unwrap();
        assert_eq!(am.materialised(), 4096);
        assert_eq!(am.flips_applied(), 1);
        let mut want = [0.0f32; 8];
        want[13 % 8] = 2.0; // bit 30 of +0.0
        assert_eq!(out, want);
        assert_eq!(
            am.read_f32(256 + 4 * 5).unwrap(),
            2.0,
            "the fault is at rest"
        );

        // DMA-corruption primitive on a never-touched region.
        let mut sm = MemRegion::fixed("SM", 4096);
        sm.flip_f32_msb(1000).unwrap();
        assert_eq!(sm.materialised(), 4096);
        assert_eq!(sm.read_f32(1000).unwrap(), 2.0);
        assert_eq!(sm.read_f32(996).unwrap(), 0.0);
        assert_eq!(sm.read_f32(1004).unwrap(), 0.0);
        assert!(sm.flip_f32_msb(4094).is_err());
    }

    #[test]
    fn packed_u64_matches_two_f32() {
        let mut m = MemRegion::fixed("SM", 32);
        m.write_f32(8, 1.5).unwrap();
        m.write_f32(12, -3.0).unwrap();
        let packed = m.read_u64(8).unwrap();
        assert_eq!(f32::from_bits(packed as u32), 1.5);
        assert_eq!(f32::from_bits((packed >> 32) as u32), -3.0);
        assert_eq!(m.read_u32(12).unwrap(), (-3.0f32).to_bits() as u64);
    }

    #[test]
    fn bump_alloc_aligns_and_fails_cleanly() {
        let mut m = MemRegion::fixed("GSM", 256);
        let a = m.alloc(10, 1).unwrap();
        let b = m.alloc(16, 64).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 64);
        assert_eq!(m.allocated(), 80);
        let err = m.alloc(1000, 1).unwrap_err();
        assert!(matches!(err, SimError::AllocFailure { .. }));
        m.reset_alloc();
        assert_eq!(m.alloc(10, 1).unwrap(), 0);
    }

    #[test]
    fn alloc_refuses_a_request_that_overflows_instead_of_wrapping() {
        let mut m = MemRegion::fixed("GSM", 256);
        m.alloc(10, 1).unwrap();
        for (bytes, align) in [(u64::MAX - 8, 64), (u64::MAX, 1), (u64::MAX - 63, 64)] {
            let err = m.alloc(bytes, align).unwrap_err();
            assert!(
                matches!(err, SimError::AllocFailure { requested, .. } if requested == bytes),
                "{err:?}"
            );
            assert_eq!(m.allocated(), 10, "a refused request moves nothing");
        }
        assert_eq!(m.alloc(16, 64).unwrap(), 64);
    }

    #[test]
    fn views_borrow_the_store_and_count_as_reads() {
        let mut am = MemRegion::fixed("AM", 4096);
        am.write_f32_slice(64, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(am.view_f32(68, 2).unwrap(), [2.0, 3.0]);
        am.view_f32_mut(64, 2).unwrap()[1] = 9.0;
        // Either order of the pair, adjacent ranges included.
        let (b, c) = am.view_f32_pair((64, 2), (72, 2)).unwrap();
        assert_eq!((b, &*c), (&[1.0, 9.0][..], &[3.0, 4.0][..]));
        c[0] += b[1];
        let (b, c) = am.view_f32_pair((72, 2), (64, 2)).unwrap();
        assert_eq!((b, &*c), (&[12.0, 4.0][..], &[1.0, 9.0][..]));

        // A flip armed on a read strikes the same word of a view as of a
        // copying read, and stays at rest; the pair is two reads, shared
        // range first.
        let mut copy = am.clone();
        for region in [&mut am, &mut copy] {
            region.schedule_flip(1, 7);
            region.schedule_flip(2, 2);
            region.schedule_flip(3, 5);
        }
        let mut out = [[0.0f32; 4]; 3];
        copy.read_f32_slice(64, &mut out[0]).unwrap();
        copy.read_f32_slice(64, &mut out[1]).unwrap();
        copy.read_f32_slice(128, &mut out[2]).unwrap();
        assert_eq!(am.view_f32(64, 4).unwrap(), out[0]);
        let (b, c) = am.view_f32_pair((64, 4), (128, 4)).unwrap();
        assert_eq!((b, &*c), (&out[1][..], &out[2][..]));
        assert_eq!((am.flips_applied(), copy.flips_applied()), (3, 3));
        assert_eq!(out[2], [0.0, 2.0, 0.0, 0.0], "word 5 % 4 of the C range");
    }

    #[test]
    fn refused_views_are_typed_errors_and_materialise_nothing() {
        let mut am = MemRegion::fixed("AM", 256);
        am.schedule_flip(1, 0);
        let bad_binding = |r: Result<(), SimError>| matches!(r, Err(SimError::BadBinding { .. }));
        let oob = |r: Result<(), SimError>| matches!(r, Err(SimError::OutOfBounds { .. }));
        // Misaligned.
        assert!(bad_binding(am.view_f32(2, 4).map(drop)));
        assert!(bad_binding(am.view_f32_mut(65, 1).map(drop)));
        assert!(bad_binding(am.view_f32_pair((0, 4), (66, 4)).map(drop)));
        assert!(bad_binding(am.view_f32_pair((3, 4), (64, 4)).map(drop)));
        // Out of bounds, element-count overflow included.
        assert!(oob(am.view_f32(252, 2).map(drop)));
        assert!(oob(am.view_f32(0, usize::MAX).map(drop)));
        assert!(oob(am.view_f32(u64::MAX - 3, 1).map(drop)));
        assert!(oob(am.view_f32_pair((0, 4), (248, 4)).map(drop)));
        assert!(oob(am.view_f32_pair((256, 1), (0, 4)).map(drop)));
        // Overlapping: partial, nested, identical.
        assert!(bad_binding(am.view_f32_pair((0, 8), (28, 8)).map(drop)));
        assert!(bad_binding(am.view_f32_pair((0, 16), (16, 2)).map(drop)));
        assert!(bad_binding(am.view_f32_pair((64, 4), (64, 4)).map(drop)));
        assert_eq!(am.materialised(), 0);
        assert_eq!(am.flips_applied(), 0, "a refused view is not a read");
        // Empty ranges are fine wherever they sit.
        let (b, c) = am.view_f32_pair((64, 0), (64, 4)).unwrap();
        assert_eq!((b.len(), c.len()), (0, 4));
    }

    #[test]
    fn dma_copy_between_regions() {
        let mut ddr = MemRegion::growable("DDR", 1 << 16);
        let mut am = MemRegion::fixed("AM", 1 << 10);
        ddr.write_f32_slice(128, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        am.copy_2d_from(&mut ddr, &Dma2d::flat(128, 0, 16)).unwrap();
        let mut out = [0.0; 4];
        am.read_f32_slice(0, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
        // Two rows of two words from overlapping source rows one word apart.
        am.copy_2d_from(&mut ddr, &Dma2d::block_f32(2, 2, 32, 1, 8, 2))
            .unwrap();
        let mut rows = [0.0; 4];
        am.read_2d_f32(32, 8, 2, 2, &mut rows).unwrap();
        assert_eq!(rows, [1.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn refused_descriptors_move_nothing() {
        let mut ddr = MemRegion::growable("DDR", 1 << 12);
        let mut am = MemRegion::fixed("AM", 256);
        ddr.write_f32_slice(0, &[1.0; 16]).unwrap();
        am.write_f32_slice(0, &[7.0; 64]).unwrap();
        ddr.schedule_flip(1, 0);
        let block = |rows, src_off, src_stride, dst_off, dst_stride| Dma2d {
            rows,
            row_bytes: 16,
            src_off,
            src_stride,
            dst_off,
            dst_stride,
        };
        for d in [
            // The third destination row ends past AM; the fourth source
            // row lies past DDR's capacity.
            block(3, 0, 16, 200, 24),
            block(4, 0, 1 << 11, 0, 16),
            // `(rows - 1) · stride` and `offset + span` overflowing u64.
            block(3, 0, u64::MAX / 2 + 1, 0, 16),
            block(2, 64, u64::MAX - 32, 0, 16),
            block(2, 0, 16, 64, u64::MAX - 32),
        ] {
            let err = am.copy_2d_from(&mut ddr, &d).unwrap_err();
            assert!(matches!(err, SimError::OutOfBounds { .. }), "{d:?}: {err}");
        }
        let refused = ddr.read_2d_f32(0, 1 << 11, 3, 4, &mut [0.0; 12]);
        assert!(matches!(refused, Err(SimError::OutOfBounds { .. })));
        assert_eq!(ddr.materialised(), 64, "a refused block grows nothing");
        assert_eq!(ddr.flips_applied(), 0, "a refused block is not a read");
        assert_eq!(am.view_f32(0, 64).unwrap(), [7.0; 64], "no row was copied");
        // An empty block is fine wherever it sits.
        am.copy_2d_from(&mut ddr, &block(0, u64::MAX, 1, u64::MAX, 1))
            .unwrap();
    }

    #[test]
    fn zero_clears_range_only() {
        let mut m = MemRegion::fixed("AM", 64);
        m.write_f32_slice(0, &[1.0; 4]).unwrap();
        m.zero(4, 8).unwrap();
        let mut out = [0.0; 4];
        m.read_f32_slice(0, &mut out).unwrap();
        assert_eq!(out, [1.0, 0.0, 0.0, 1.0]);
    }
}
