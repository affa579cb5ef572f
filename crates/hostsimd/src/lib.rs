//! Host SIMD inner loops for the `Compiled` kernel execution tier.
//!
//! This crate holds the only `unsafe` code of the execution stack: AVX2+FMA
//! register-tiled block loops, monomorphised over the depth unroll `k_u`
//! and a fixed table of tile shapes, that reproduce the scalar mirror's
//! f32 accumulation order *bit-for-bit*.
//!
//! # The bitwise contract
//!
//! The reference order (dspsim's interpreter, mirrored by
//! `kernelgen::fast`) computes each C element independently:
//!
//! 1. `k_u` accumulators; `acc[0]` seeded from C, the rest from 0;
//! 2. `k_iters` steady-state iterations of one fused multiply-add per
//!    accumulator, in `ku` order;
//! 3. `k_tail` remainder fmas folded into `acc[0]` in ascending `k`;
//! 4. an ordered regroup `acc[0] += acc[1] … += acc[k_u-1]`.
//!
//! Elements never interact: the value of `C[r][c]` depends on row `r` of
//! A, column `c` of B and its own `k_u` accumulators, nothing else.  So
//! *which* elements are computed together is free.  Packing 8 adjacent
//! columns into the lanes of one AVX register, and holding a block of
//! `R` rows × `CV` such registers × `k_u` accumulators live at once, runs
//! the identical per-element operation sequence — `vfmadd` for every
//! `mul_add`, `vaddps` for every regroup `+` — and yields the same bits
//! as the scalar loop: both `f32::mul_add` and `_mm256_fmadd_ps` are
//! exactly-rounded fused multiply-adds, and IEEE 754 addition has one
//! correctly-rounded answer per lane.  The rows of a block group share
//! one depth split, so the group's `trips × m_u` rows are tiled as one
//! range, whatever `m_u` is.  Remainder columns (`ld mod 8`) run the
//! scalar sequence verbatim.
//!
//! # The tile table
//!
//! What the tile buys is reuse: per depth step one `B` vector load
//! serves `R` rows and one `A` broadcast serves `CV` vectors (the paper's
//! `m_u × k_u` register block, Tables I–III), and `R·CV·k_u` independent
//! accumulators keep enough fmas in flight to cover the FMA latency.
//! AVX2 has 16 vector registers; 12 go to accumulators, the rest to the
//! `B` vectors and the broadcast.  Each column strip is `CV = 2` vectors
//! (16 columns) wide, then one single-vector strip, then scalar columns;
//! within a strip the rows are covered tallest tile first:
//!
//! | `k_u` | tile heights `R` (accumulators at `CV = 2`) |
//! |---|---|
//! | 1 | 6 (12), 4 (8), 2 (4), 1 (2) |
//! | 2 | 3 (12), 2 (8), 1 (4) |
//! | 4 | 1 (8) |
//!
//! The table is fixed at compile time; nothing selects a shape at run
//! time except the row count that is left.
//!
//! On non-x86_64 hosts, or when the CPU lacks AVX2/FMA, [`execute_block`]
//! falls back to the scalar sequence, which is *also* bit-identical — the
//! tier is then correct but not faster; [`simd_level`] reports which path
//! is live so benchmark gates can tell the difference.

#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Geometry of one `mm` block group, as lowered from a verified
/// `kernelgen` block plan. All fields are in elements, not bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGeom {
    /// First A/C row of the group.
    pub mm_base: usize,
    /// Rows per block.
    pub m_u: usize,
    /// Number of blocks in the group.
    pub trips: usize,
    /// Depth unroll (number of live accumulators); must be 1, 2 or 4.
    pub k_u: usize,
    /// Full steady-state iterations.
    pub k_iters: usize,
    /// Depth remainder folded into `acc[0]`.
    pub k_tail: usize,
}

/// The depth unrolls the generator's tiling space ever produces
/// (`kernelgen::tiling` candidates and `generate_forced` both restrict
/// `k_u` to this set). [`execute_block`] rejects anything else.
pub const SUPPORTED_KU: [usize; 3] = [1, 2, 4];

/// Execute one block group: `c[rows] += a[rows] × b`, panels laid out as
/// the kernel scratchpads (`a`: row-major with leading dimension `k_a`;
/// `b`/`c`: leading dimension `ld`).
///
/// # Panics
///
/// Panics (release mode included — these bounds make the internal
/// `unsafe` sound) if the geometry is inconsistent: `k_u` outside
/// [`SUPPORTED_KU`], `k_iters·k_u + k_tail ≠ k_a`, or any referenced
/// row/column lying outside `a`, `b` or `c`.
pub fn execute_block(g: &BlockGeom, k_a: usize, ld: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let end_row = g.mm_base + g.trips * g.m_u;
    assert!(
        SUPPORTED_KU.contains(&g.k_u),
        "unsupported k_u = {} (expected one of {SUPPORTED_KU:?})",
        g.k_u
    );
    assert_eq!(
        g.k_iters * g.k_u + g.k_tail,
        k_a,
        "block depth split does not cover k_a"
    );
    assert!(end_row * k_a <= a.len(), "A panel too small for block rows");
    assert!(end_row * ld <= c.len(), "C panel too small for block rows");
    assert!(k_a * ld <= b.len(), "B panel too small for depth x ld");
    match g.k_u {
        1 => dispatch::<1>(g, k_a, ld, a, b, c),
        2 => dispatch::<2>(g, k_a, ld, a, b, c),
        _ => dispatch::<4>(g, k_a, ld, a, b, c),
    }
}

/// Whether the vectorised path is live on this host.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED
            .get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Human-readable name of the live code path (`"avx2+fma"` or
/// `"scalar"`), for benchmark reports and CI gates.
pub fn simd_level() -> &'static str {
    if simd_active() {
        "avx2+fma"
    } else {
        "scalar"
    }
}

fn dispatch<const KU: usize>(
    g: &BlockGeom,
    k_a: usize,
    ld: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `execute_block` asserted every row/column access is in
        // bounds and the CPU supports AVX2+FMA (checked just above).
        unsafe { block_avx::<KU>(g, k_a, ld, a, b, c) };
        return;
    }
    block_scalar::<KU>(g, k_a, ld, a, b, c);
}

/// One C element in the reference accumulation order (shared by the
/// scalar fallback and the vector path's column remainder).
#[inline(always)]
fn scalar_col<const KU: usize>(
    g: &BlockGeom,
    ld: usize,
    a_row: &[f32],
    b: &[f32],
    col: usize,
    c0: f32,
) -> f32 {
    let mut acc = [0.0f32; KU];
    acc[0] = c0;
    for j in 0..g.k_iters {
        for (ku, av) in acc.iter_mut().enumerate() {
            let k = j * KU + ku;
            *av = a_row[k].mul_add(b[k * ld + col], *av);
        }
    }
    for rr in 0..g.k_tail {
        let k = g.k_iters * KU + rr;
        acc[0] = a_row[k].mul_add(b[k * ld + col], acc[0]);
    }
    for ku in 1..KU {
        acc[0] += acc[ku];
    }
    acc[0]
}

fn block_scalar<const KU: usize>(
    g: &BlockGeom,
    k_a: usize,
    ld: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    for trip in 0..g.trips {
        for mu in 0..g.m_u {
            let row = g.mm_base + trip * g.m_u + mu;
            let a_row = &a[row * k_a..row * k_a + k_a];
            let c_row = &mut c[row * ld..row * ld + ld];
            for (col, cv) in c_row.iter_mut().enumerate() {
                *cv = scalar_col::<KU>(g, ld, a_row, b, col, *cv);
            }
        }
    }
}

/// Vectorised block group: register tiles of `R` rows × `CV` 8-lane
/// column vectors, every element's operation sequence identical to
/// [`scalar_col`].
///
/// # Safety
///
/// Caller must guarantee AVX2+FMA are available and that all rows
/// `mm_base .. mm_base + trips·m_u` of `a`/`c` and all `k_a × ld`
/// elements of `b` are in bounds ([`execute_block`] asserts both).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn block_avx<const KU: usize>(
    g: &BlockGeom,
    k_a: usize,
    ld: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    // Rows of a group share one depth split and never interact, so the
    // group's `trips × m_u` rows are tiled as one contiguous range.
    let rows = g.trips * g.m_u;
    let ap = a.as_ptr().add(g.mm_base * k_a);
    let bp = b.as_ptr();
    let cp = c.as_mut_ptr().add(g.mm_base * ld);
    let mut col = 0;
    while col + 16 <= ld {
        column_strip::<KU, 2>(g, rows, k_a, ld, ap, bp.add(col), cp.add(col));
        col += 16;
    }
    if col + 8 <= ld {
        column_strip::<KU, 1>(g, rows, k_a, ld, ap, bp.add(col), cp.add(col));
        col += 8;
    }
    // ld is a whole number of 32-lane vectors in practice, but the
    // remainder keeps the contract shape-independent.
    for row in 0..rows {
        let a_row = std::slice::from_raw_parts(ap.add(row * k_a), k_a);
        for col in col..ld {
            let cv = cp.add(row * ld + col);
            *cv = scalar_col::<KU>(g, ld, a_row, b, col, *cv);
        }
    }
}

/// All `rows` of one strip of `CV` column vectors, tallest tile first.
/// The heights are the [tile table](crate#the-tile-table): `R·CV·KU ≤ 12`
/// accumulator registers at `CV = 2`.
///
/// # Safety
///
/// As [`tile`], for every row in `0..rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn column_strip<const KU: usize, const CV: usize>(
    g: &BlockGeom,
    rows: usize,
    k_a: usize,
    ld: usize,
    ap: *const f32,
    bp: *const f32,
    cp: *mut f32,
) {
    let mut row = 0;
    macro_rules! tiles_of {
        ($r:literal) => {
            while rows - row >= $r {
                tile::<KU, $r, CV>(g, k_a, ld, ap.add(row * k_a), bp, cp.add(row * ld));
                row += $r;
            }
        };
    }
    if KU == 1 {
        tiles_of!(6);
        tiles_of!(4);
    }
    if KU == 2 {
        tiles_of!(3);
    }
    if KU <= 2 {
        tiles_of!(2);
    }
    tiles_of!(1);
}

/// One register tile: `R` rows × `CV` vectors × `KU` accumulators.  Per
/// depth step each `B` vector is loaded once for all `R` rows and each
/// `A` element broadcast once for all `CV` vectors.
///
/// # Safety
///
/// AVX2+FMA must be available; `ap` must point at `R` rows of `k_a`
/// readable elements, `bp` at `k_a` rows of leading dimension `ld` with
/// `8·CV` readable elements each, `cp` at `R` such rows, writable.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
// The tile is indexed `[ku][r][v]` alongside the pointers; iterators
// over one of the three would hide the register-block structure.
#[allow(clippy::needless_range_loop)]
unsafe fn tile<const KU: usize, const R: usize, const CV: usize>(
    g: &BlockGeom,
    k_a: usize,
    ld: usize,
    ap: *const f32,
    bp: *const f32,
    cp: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut acc = [[[_mm256_setzero_ps(); CV]; R]; KU];
    for r in 0..R {
        for v in 0..CV {
            acc[0][r][v] = _mm256_loadu_ps(cp.add(r * ld + 8 * v));
        }
    }
    // acc[ku][r][v] += a[r][k] * b[k][v], for every row and vector.
    macro_rules! fma_step {
        ($k:expr, $ku:expr) => {{
            let k = $k;
            let mut bvec = [_mm256_setzero_ps(); CV];
            for v in 0..CV {
                bvec[v] = _mm256_loadu_ps(bp.add(k * ld + 8 * v));
            }
            for r in 0..R {
                let avec = _mm256_set1_ps(*ap.add(r * k_a + k));
                for v in 0..CV {
                    acc[$ku][r][v] = _mm256_fmadd_ps(avec, bvec[v], acc[$ku][r][v]);
                }
            }
        }};
    }
    for j in 0..g.k_iters {
        for ku in 0..KU {
            fma_step!(j * KU + ku, ku);
        }
    }
    for rr in 0..g.k_tail {
        fma_step!(g.k_iters * KU + rr, 0);
    }
    for r in 0..R {
        for v in 0..CV {
            let mut sum = acc[0][r][v];
            for group in acc.iter().skip(1) {
                sum = _mm256_add_ps(sum, group[r][v]);
            }
            _mm256_storeu_ps(cp.add(r * ld + 8 * v), sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                let m = (x % 1000) as f32 - 500.0;
                let e = [1e-3f32, 1.0, 1e3][(x >> 10) as usize % 3];
                m * e
            })
            .collect()
    }

    fn geom(m_s: usize, m_u: usize, k_a: usize, k_u: usize) -> Vec<BlockGeom> {
        let trips = m_s / m_u;
        let rem = m_s % m_u;
        let mut v = vec![BlockGeom {
            mm_base: 0,
            m_u,
            trips,
            k_u,
            k_iters: k_a / k_u,
            k_tail: k_a % k_u,
        }];
        if rem > 0 {
            v.push(BlockGeom {
                mm_base: trips * m_u,
                m_u: rem,
                trips: 1,
                k_u,
                k_iters: k_a / k_u,
                k_tail: k_a % k_u,
            });
        }
        v
    }

    fn reference_block(g: &BlockGeom, k_a: usize, ld: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        match g.k_u {
            1 => block_scalar::<1>(g, k_a, ld, a, b, c),
            2 => block_scalar::<2>(g, k_a, ld, a, b, c),
            _ => block_scalar::<4>(g, k_a, ld, a, b, c),
        }
    }

    /// The vector path and the scalar path must agree bit-for-bit on
    /// every element, for every supported k_u, including ragged shapes.
    #[test]
    fn avx_and_scalar_paths_are_bitwise_identical() {
        for &(m_s, k_a, ld) in &[(6, 37, 96), (1, 129, 32), (7, 4, 64), (3, 1, 32)] {
            for &k_u in &SUPPORTED_KU {
                let a = fill(m_s * k_a, 1);
                let b = fill(k_a * ld, 2);
                let c0 = fill(m_s * ld, 3);
                let mut c_auto = c0.clone();
                let mut c_scalar = c0.clone();
                for g in geom(m_s, m_s.min(6), k_a, k_u) {
                    execute_block(&g, k_a, ld, &a, &b, &mut c_auto);
                    reference_block(&g, k_a, ld, &a, &b, &mut c_scalar);
                }
                for (i, (x, y)) in c_auto.iter().zip(&c_scalar).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "m_s={m_s} k_a={k_a} ld={ld} k_u={k_u} elem {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// Every tile height, both strip widths, the scalar column remainder
    /// and every depth-tail length, on panels that start at odd element
    /// offsets (so no pointer is 8- or 32-byte aligned) and on groups that
    /// start below row 0 of the panel.
    #[test]
    fn tile_sweep_matches_scalar_bitwise() {
        for &k_u in &SUPPORTED_KU {
            for (k_iters, k_tail) in [0, 3]
                .into_iter()
                .flat_map(|i| (0..k_u).map(move |t| (i, t)))
            {
                let k_a = k_iters * k_u + k_tail;
                if k_a == 0 {
                    continue;
                }
                for &ld in &[8, 13, 24, 32, 40, 96] {
                    for m_u in 1..=13 {
                        for trips in 1..=3 {
                            let mm_base = [0, 3][(m_u + trips) % 2];
                            let g = BlockGeom {
                                mm_base,
                                m_u,
                                trips,
                                k_u,
                                k_iters,
                                k_tail,
                            };
                            let rows = mm_base + trips * m_u;
                            let a = fill(1 + rows * k_a, 4);
                            let b = fill(3 + k_a * ld, 5);
                            let c0 = fill(5 + rows * ld, 6);
                            let mut c_auto = c0.clone();
                            let mut c_scalar = c0;
                            execute_block(&g, k_a, ld, &a[1..], &b[3..], &mut c_auto[5..]);
                            reference_block(&g, k_a, ld, &a[1..], &b[3..], &mut c_scalar[5..]);
                            let same = c_auto.iter().zip(&c_scalar);
                            if let Some(i) = same
                                .map(|(x, y)| x.to_bits() == y.to_bits())
                                .position(|eq| !eq)
                            {
                                panic!(
                                    "{g:?} k_a={k_a} ld={ld}: c[{i}] = {} vs {}",
                                    c_auto[i], c_scalar[i]
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported k_u")]
    fn rejects_unsupported_ku() {
        let g = BlockGeom {
            mm_base: 0,
            m_u: 1,
            trips: 1,
            k_u: 3,
            k_iters: 1,
            k_tail: 0,
        };
        execute_block(&g, 3, 8, &[0.0; 3], &[0.0; 24], &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "A panel too small")]
    fn rejects_short_a_panel() {
        let g = BlockGeom {
            mm_base: 0,
            m_u: 2,
            trips: 1,
            k_u: 1,
            k_iters: 4,
            k_tail: 0,
        };
        execute_block(&g, 4, 8, &[0.0; 4], &[0.0; 32], &mut [0.0; 16]);
    }

    #[test]
    fn simd_level_names_the_live_path() {
        let level = simd_level();
        assert!(level == "avx2+fma" || level == "scalar");
        assert_eq!(level == "avx2+fma", simd_active());
    }
}
