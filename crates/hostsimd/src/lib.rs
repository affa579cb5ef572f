//! The host inner loop of every functional kernel invocation:
//! [`execute_block`] runs a lowered block group at the widest level the
//! CPU has (AVX-512F, AVX2+FMA, or the scalar level on hosts with
//! neither).  The scalar level is also the reference the tests force
//! every SIMD level against.
//!
//! This crate holds the only `unsafe` code of the execution stack: one
//! register-tiled block loop, generic over the vector width (`Lanes`:
//! 8-lane AVX2+FMA or 16-lane AVX-512F, picked once per process by
//! `is_x86_feature_detected!`) and monomorphised over the depth unroll
//! `k_u` and a table of tile shapes derived from that width's register
//! file, that reproduces the scalar level's f32 accumulation order
//! *bit-for-bit*.
//!
//! # The bitwise contract
//!
//! The reference order (dspsim's interpreter, mirrored one element at a
//! time by the scalar level) computes each C element independently:
//!
//! 1. `k_u` accumulators; `acc[0]` seeded from C, the rest from 0;
//! 2. `k_iters` steady-state iterations of one fused multiply-add per
//!    accumulator, in `ku` order;
//! 3. `k_tail` remainder fmas folded into `acc[0]` in ascending `k`;
//! 4. an ordered regroup `acc[0] += acc[1] … += acc[k_u-1]`.
//!
//! Elements never interact: the value of `C[r][c]` depends on row `r` of
//! A, column `c` of B and its own `k_u` accumulators, nothing else.  So
//! *which* elements are computed together is free.  Packing adjacent
//! columns into the lanes of one vector register, and holding a block of
//! `R` rows × `CV` such registers × `k_u` accumulators live at once, runs
//! the identical per-element operation sequence — `vfmadd` for every
//! `mul_add`, `vaddps` for every regroup `+` — and yields the same bits
//! as the scalar loop at either width: `f32::mul_add`, `_mm256_fmadd_ps`
//! and `_mm512_fmadd_ps` are all exactly-rounded fused multiply-adds, and
//! IEEE 754 addition has one correctly-rounded answer per lane.  The rows
//! of a block group share one depth split, so the group's `trips × m_u`
//! rows are tiled as one range, whatever `m_u` is.
//!
//! # Which columns are computed
//!
//! The panels have leading dimension `ld` (the kernel's `na_pad`, whole
//! 32-lane DSP vectors) but only the first `n_a` columns are real.  The
//! interpreter is the hardware and fills whole DSP vectors; the host
//! levels compute columns `0..n_a` rounded up to the live lane count (8,
//! 16, or 1 on the scalar path), never past `ld`.  So [`execute_block`]
//! is bit-identical to the interpreter on columns `0..n_a` of every row
//! of the group; columns `n_a..ld` of those rows are *unspecified*
//! (computed or left as they were, depending on the width).  Remainder
//! columns that fill no whole vector inside `ld` run the scalar sequence
//! verbatim.
//!
//! # The tile tables
//!
//! What the tile buys is reuse: per depth step one `B` vector load
//! serves `R` rows and one `A` broadcast serves `CV` vectors (the paper's
//! `m_u × k_u` register block, Tables I–III), and `R·CV·k_u` independent
//! accumulators keep enough fmas in flight: two FMA pipes of latency 4
//! want ≥ 8 independent chains at either width, which every tallest tile
//! below supplies (shorter ones only mop up the last rows of a group).
//! AVX2 has 16 vector registers and gives 12 to accumulators; AVX-512 has
//! 32 and gives 24; the rest hold the `B` vectors and the broadcast.
//! Each column strip is `CV = 2` vectors wide, then one single-vector
//! strip; within a strip the rows are covered tallest tile first, the
//! heights being those of `12, 8, 6, 4, 3, 2, 1` with
//! `R · 2 · k_u ≤` the accumulator budget:
//!
//! | `k_u` | AVX2+FMA heights `R` | AVX-512F heights `R` |
//! |---|---|---|
//! | 1 | 6, 4, 3, 2, 1 | 12, 8, 6, 4, 3, 2, 1 |
//! | 2 | 3, 2, 1 | 6, 4, 3, 2, 1 |
//! | 4 | 1 | 3, 2, 1 |
//!
//! The tables are fixed at compile time; nothing selects a shape at run
//! time except the row count that is left, and nothing selects a width
//! except the CPU.
//!
//! On non-x86_64 hosts, or when the CPU lacks AVX2/FMA, [`execute_block`]
//! falls back to the scalar sequence, which is *also* bit-identical — the
//! host path is then correct but not faster; [`simd_level`] names the live
//! width for benchmark reports.
//!
//! [`checksum_sweep`] (the resilience layer's ABFT pass) runs at the same
//! level, in safe code whose 8 f64 lanes no width reorders.

#![warn(missing_docs)]

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

/// The depth unrolls there are: `kernelgen`'s tiling candidates and
/// forced tilings draw `k_u` from this set, its lowering re-checks it,
/// and [`execute_block`] rejects anything else.
pub const SUPPORTED_KU: [usize; 3] = [1, 2, 4];

/// Execute one block group: `c[rows] += a[rows] × b` on the real columns
/// `0..n_a`, panels laid out as the kernel scratchpads (`a`: row-major
/// with leading dimension `k_a`; `b`/`c`: leading dimension `ld`).
/// Columns `n_a..ld` of the group's rows are unspecified afterwards (see
/// the [crate docs](crate#which-columns-are-computed)); nothing else is
/// written.
///
/// # Panics
///
/// Panics (release mode included — these bounds make the internal
/// `unsafe` sound) if the geometry is inconsistent: `k_u` outside
/// [`SUPPORTED_KU`], `k_iters·k_u + k_tail ≠ k_a`, `n_a > ld`, or any
/// referenced row/column lying outside `a`, `b` or `c`.
pub fn execute_block(
    g: &BlockGeom,
    k_a: usize,
    n_a: usize,
    ld: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    execute_block_at(Level::live(), g, k_a, n_a, ld, a, b, c);
}

/// One pass over the row-major f32 matrix `x` (leading dimension `ld`,
/// `by_row[0].len()` rows × `by_col[0].len()` columns, the words between
/// rows never read) that adds, in f64, weighted `[signed, absolute]` sums:
/// `by_row[0][i] += Σ_j x[i][j]·col_w[0][j]`, `by_row[1][i] += Σ_j
/// |x[i][j]|·col_w[1][j]`, and per column `j` likewise with `row_w[·][i]`.
/// Products are rounded before they are added (no fused multiply-add); a
/// column adds its rows in ascending order; lane `l` of a row adds columns
/// `j ≡ l (mod 8)` in ascending order from `+0.0`, and the 8 lanes are
/// added in order from `+0.0` onto `by_row`.  So every level returns the
/// same bits (NaN payloads aside).  Panics if a side's slices differ in
/// length, if `cols > ld` with more than one row, or if `x` is shorter
/// than `(rows − 1)·ld + cols`.
pub fn checksum_sweep<'c>(
    x: &[f32],
    ld: usize,
    col_w: [&[f64]; 2],
    row_w: [&[f64]; 2],
    mut by_row: [&'c mut [f64]; 2],
    mut by_col: [&'c mut [f64]; 2],
) {
    sweep_at(
        Level::live(),
        (x, ld, col_w, row_w, &mut by_row, &mut by_col),
    );
}

/// [`checksum_sweep`] on a given level.
fn sweep_at(level: Level, args: Sweep) {
    let (_, ld, col_w, row_w, ref by_row, ref by_col) = args;
    let (rows, cols) = (by_row[0].len(), by_col[0].len());
    let row_side = [row_w[0], row_w[1], by_row[1]].map(<[f64]>::len) == [rows; 3];
    let col_side = [col_w[0], col_w[1], by_col[1]].map(<[f64]>::len) == [cols; 3];
    assert!(row_side && col_side, "checksum sides differ in length");
    assert!(rows <= 1 || cols <= ld, "{cols} columns exceed ld = {ld}");
    assert!(level.supported(), "{level:?} is not available on this CPU");
    match level {
        Level::Scalar => sweep::<1>(args),
        // SAFETY (both): the CPU was asserted to support the level.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { sweep_avx2(args) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { sweep_avx512(args) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("only the scalar level is supported off x86_64"),
    }
}

/// The arguments of a checksum sweep.
type Sweep<'a, 'b, 'c> = (
    &'a [f32],
    usize,
    [&'a [f64]; 2],
    [&'a [f64]; 2],
    &'b mut [&'c mut [f64]; 2],
    &'b mut [&'c mut [f64]; 2],
);

/// [`sweep`] compiled for AVX2 (two rows per block suit its registers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn sweep_avx2(args: Sweep) {
    sweep::<2>(args)
}

/// [`sweep`] compiled for AVX-512F (four rows per block).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sweep_avx512(args: Sweep) {
    sweep::<4>(args)
}

/// The sweep in blocks of `R` rows, then single rows.
#[inline(always)]
fn sweep<const R: usize>((x, ld, col_w, row_w, by_row, by_col): Sweep) {
    let rows = by_row[0].len();
    let blocked = rows - rows % R;
    for i in (0..blocked).step_by(R) {
        sweep_rows::<R>(i, (x, ld, col_w, row_w, by_row, by_col));
    }
    for i in blocked..rows {
        sweep_rows::<1>(i, (x, ld, col_w, row_w, by_row, by_col));
    }
}

/// Rows `i0 .. i0 + R`, 8 columns at a time: each block of columns loads
/// its sums once for all `R` rows, and each row keeps its 8 lanes in
/// registers.  The lane arithmetic is element-wise on `[f64; 8]`, which
/// the compiler vectorises at the caller's width without reordering it.
#[inline(always)]
fn sweep_rows<const R: usize>(i0: usize, (x, ld, col_w, row_w, by_row, by_col): Sweep) {
    let cols = by_col[0].len();
    let vector_cols = cols / 8 * 8;
    let mut lanes = [[[0.0f64; 8]; 2]; R];
    for j in (0..vector_cols).step_by(8) {
        let w: [[f64; 8]; 2] = col_w.map(|w| w[j..j + 8].try_into().unwrap());
        let mut sums: [[f64; 8]; 2] = [0, 1].map(|s| by_col[s][j..j + 8].try_into().unwrap());
        for (r, lanes) in lanes.iter_mut().enumerate() {
            let i = i0 + r;
            let v: &[f32; 8] = x[i * ld + j..][..8].try_into().unwrap();
            let (v, rw) = (v.map(f64::from), [row_w[0][i], row_w[1][i]]);
            let a = v.map(f64::abs);
            for l in 0..8 {
                lanes[0][l] += v[l] * w[0][l];
                lanes[1][l] += a[l] * w[1][l];
                sums[0][l] += v[l] * rw[0];
                sums[1][l] += a[l] * rw[1];
            }
        }
        for (c, s) in by_col.iter_mut().zip(sums) {
            c[j..j + 8].copy_from_slice(&s);
        }
    }
    for (r, &lanes) in lanes.iter().enumerate() {
        // A copy: indexing it by `j % 8` keeps the lanes above in registers.
        let (i, mut lanes) = (i0 + r, lanes);
        for j in vector_cols..cols {
            let (v, a) = (f64::from(x[i * ld + j]), f64::from(x[i * ld + j]).abs());
            lanes[0][j % 8] += v * col_w[0][j];
            lanes[1][j % 8] += a * col_w[1][j];
            by_col[0][j] += v * row_w[0][i];
            by_col[1][j] += a * row_w[1][i];
        }
        for (side, lanes) in lanes.iter().enumerate() {
            by_row[side][i] += lanes.iter().fold(0.0, |s, l| s + l);
        }
    }
}

/// Human-readable name of the live code path (`"avx512f"`, `"avx2+fma"`
/// or `"scalar"`), for benchmark reports.
pub fn simd_level() -> &'static str {
    match Level::live() {
        Level::Avx512 => "avx512f",
        Level::Avx2 => "avx2+fma",
        Level::Scalar => "scalar",
    }
}

/// The code paths of [`execute_block`], widest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Avx512,
    Avx2,
    Scalar,
}

impl Level {
    const ALL: [Level; 3] = [Level::Avx512, Level::Avx2, Level::Scalar];

    /// Whether this CPU can run the level.
    fn supported(self) -> bool {
        match self {
            Level::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest supported level, detected once per process.
    fn live() -> Level {
        static LIVE: OnceLock<Level> = OnceLock::new();
        *LIVE.get_or_init(|| {
            // The scalar level is always supported, so the fallback is
            // never taken.
            let widest = Level::ALL.into_iter().find(|l| l.supported());
            widest.unwrap_or(Level::Scalar)
        })
    }
}

/// [`execute_block`] on a given level (the tests force each one the CPU
/// supports, so the narrower instantiation cannot rot on a wider host).
#[allow(clippy::too_many_arguments)] // execute_block's seven and the level
fn execute_block_at(
    level: Level,
    g: &BlockGeom,
    k_a: usize,
    n_a: usize,
    ld: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
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
    assert!(n_a <= ld, "n_a = {n_a} exceeds the leading dimension {ld}");
    assert!(end_row * k_a <= a.len(), "A panel too small for block rows");
    assert!(end_row * ld <= c.len(), "C panel too small for block rows");
    assert!(k_a * ld <= b.len(), "B panel too small for depth x ld");
    assert!(level.supported(), "{level:?} is not available on this CPU");
    match level {
        Level::Scalar => match g.k_u {
            1 => block_scalar::<1>(g, k_a, n_a, ld, a, b, c),
            2 => block_scalar::<2>(g, k_a, n_a, ld, a, b, c),
            _ => block_scalar::<4>(g, k_a, n_a, ld, a, b, c),
        },
        // SAFETY (both): just above, every row/column access was asserted
        // in bounds and the CPU asserted to support the level's features.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { vector::block_avx2(g, k_a, n_a, ld, a, b, c) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { vector::block_avx512(g, k_a, n_a, ld, a, b, c) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("only the scalar level is supported off x86_64"),
    }
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
    n_a: usize,
    ld: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    for row in g.mm_base..g.mm_base + g.trips * g.m_u {
        let a_row = &a[row * k_a..row * k_a + k_a];
        let c_row = &mut c[row * ld..row * ld + n_a];
        for (col, cv) in c_row.iter_mut().enumerate() {
            *cv = scalar_col::<KU>(g, ld, a_row, b, col, *cv);
        }
    }
}

/// The register-tiled loops: one definition, instantiated per width.
#[cfg(target_arch = "x86_64")]
mod vector {
    use super::{scalar_col, BlockGeom};
    use std::arch::x86_64::*;

    /// A vector width the tile loops are instantiated at.  The methods
    /// wrap the width's intrinsics and are `#[inline(always)]`, as is
    /// everything between them and the width's `#[target_feature]` entry
    /// point, so the whole loop nest compiles inside that entry point
    /// with its features.
    ///
    /// # Safety
    ///
    /// Every method needs the CPU features of the implementing width;
    /// `load`/`store` also need `N` readable/writable f32 at `p`
    /// (unaligned).
    trait Lanes: Copy {
        /// f32 lanes per vector.
        const N: usize;
        /// Vector registers given to accumulators; the rest of the
        /// register file holds the `B` vectors and the `A` broadcast.
        const ACCS: usize;
        unsafe fn splat(x: f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        unsafe fn store(self, p: *mut f32);
        /// `a * b + self`, fused.
        unsafe fn fma(self, a: Self, b: Self) -> Self;
        unsafe fn add(self, o: Self) -> Self;
    }

    /// A width: its [`Lanes`] and its entry point, [`block`] under the
    /// width's `#[target_feature]`.
    macro_rules! width {
        ($entry:ident, $features:literal, $v:ident: $n:literal lanes, $accs:literal accumulators,
         $splat:ident, $load:ident, $store:ident, $fma:ident, $add:ident) => {
            impl Lanes for $v {
                const N: usize = $n;
                const ACCS: usize = $accs;
                #[inline(always)]
                unsafe fn splat(x: f32) -> Self {
                    $splat(x)
                }
                #[inline(always)]
                unsafe fn load(p: *const f32) -> Self {
                    $load(p)
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut f32) {
                    $store(p, self)
                }
                #[inline(always)]
                unsafe fn fma(self, a: Self, b: Self) -> Self {
                    $fma(a, b, self)
                }
                #[inline(always)]
                unsafe fn add(self, o: Self) -> Self {
                    $add(self, o)
                }
            }

            /// # Safety
            ///
            /// As [`block`]; the CPU must support this width's features.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $entry(
                g: &BlockGeom,
                k_a: usize,
                n_a: usize,
                ld: usize,
                a: &[f32],
                b: &[f32],
                c: &mut [f32],
            ) {
                match g.k_u {
                    1 => block::<$v, 1>(g, k_a, n_a, ld, a, b, c),
                    2 => block::<$v, 2>(g, k_a, n_a, ld, a, b, c),
                    _ => block::<$v, 4>(g, k_a, n_a, ld, a, b, c),
                }
            }
        };
    }
    width!(
        block_avx2, "avx2,fma", __m256: 8 lanes, 12 accumulators,
        _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_fmadd_ps, _mm256_add_ps
    );
    width!(
        block_avx512, "avx512f", __m512: 16 lanes, 24 accumulators,
        _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_fmadd_ps, _mm512_add_ps
    );

    /// Vectorised block group: register tiles of `R` rows × `CV` column
    /// vectors over the whole vectors that cover columns `0..n_a` inside
    /// `ld`, every element's operation sequence identical to
    /// [`scalar_col`].
    ///
    /// # Safety
    ///
    /// Caller must guarantee `V`'s CPU features, `n_a ≤ ld`, and that all
    /// rows `mm_base .. mm_base + trips·m_u` of `a`/`c` and all `k_a × ld`
    /// elements of `b` are in bounds (`execute_block_at` asserts all
    /// three).
    #[inline(always)]
    unsafe fn block<V: Lanes, const KU: usize>(
        g: &BlockGeom,
        k_a: usize,
        n_a: usize,
        ld: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        // Rows of a group share one depth split and never interact, so
        // the group's `trips × m_u` rows are tiled as one contiguous range.
        let rows = g.trips * g.m_u;
        let ap = a.as_ptr().add(g.mm_base * k_a);
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr().add(g.mm_base * ld);
        let vector_cols = n_a.div_ceil(V::N).min(ld / V::N) * V::N;
        let mut col = 0;
        while col + 2 * V::N <= vector_cols {
            column_strip::<V, KU, 2>(g, rows, k_a, ld, ap, bp.add(col), cp.add(col));
            col += 2 * V::N;
        }
        if col < vector_cols {
            column_strip::<V, KU, 1>(g, rows, k_a, ld, ap, bp.add(col), cp.add(col));
            col += V::N;
        }
        // ld is a whole number of 32-lane vectors in practice, but the
        // remainder keeps the contract shape-independent.
        for row in 0..rows {
            let a_row = std::slice::from_raw_parts(ap.add(row * k_a), k_a);
            for col in col..n_a {
                let cv = cp.add(row * ld + col);
                *cv = scalar_col::<KU>(g, ld, a_row, b, col, *cv);
            }
        }
    }

    /// All `rows` of one strip of `CV` column vectors, tallest tile first.
    /// The heights are the [tile table](crate#the-tile-tables) of `V`:
    /// those with `R·2·KU ≤ V::ACCS` accumulator registers.
    ///
    /// # Safety
    ///
    /// As [`tile`], for every row in `0..rows`.
    #[inline(always)]
    unsafe fn column_strip<V: Lanes, const KU: usize, const CV: usize>(
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
            ($($r:literal),+) => {$(
                if const { $r * 2 * KU <= V::ACCS } {
                    while rows - row >= $r {
                        tile::<V, KU, $r, CV>(g, k_a, ld, ap.add(row * k_a), bp, cp.add(row * ld));
                        row += $r;
                    }
                }
            )+};
        }
        tiles_of!(12, 8, 6, 4, 3, 2, 1);
    }

    /// One register tile: `R` rows × `CV` vectors × `KU` accumulators.
    /// Per depth step each `B` vector is loaded once for all `R` rows and
    /// each `A` element broadcast once for all `CV` vectors.
    ///
    /// # Safety
    ///
    /// `V`'s CPU features must be available; `ap` must point at `R` rows
    /// of `k_a` readable elements, `bp` at `k_a` rows of leading dimension
    /// `ld` with `V::N·CV` readable elements each, `cp` at `R` such rows,
    /// writable.
    #[inline(always)]
    // The tile is indexed `[ku][r][v]` alongside the pointers; iterators
    // over one of the three would hide the register-block structure.
    #[allow(clippy::needless_range_loop)]
    unsafe fn tile<V: Lanes, const KU: usize, const R: usize, const CV: usize>(
        g: &BlockGeom,
        k_a: usize,
        ld: usize,
        ap: *const f32,
        bp: *const f32,
        cp: *mut f32,
    ) {
        let mut acc = [[[V::splat(0.0); CV]; R]; KU];
        for r in 0..R {
            for v in 0..CV {
                acc[0][r][v] = V::load(cp.add(r * ld + V::N * v));
            }
        }
        // acc[ku][r][v] += a[r][k] * b[k][v], for every row and vector.
        macro_rules! fma_step {
            ($k:expr, $ku:expr) => {{
                let k = $k;
                let mut bvec = [V::splat(0.0); CV];
                for v in 0..CV {
                    bvec[v] = V::load(bp.add(k * ld + V::N * v));
                }
                for r in 0..R {
                    let avec = V::splat(*ap.add(r * k_a + k));
                    for v in 0..CV {
                        acc[$ku][r][v] = acc[$ku][r][v].fma(avec, bvec[v]);
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
                    sum = sum.add(group[r][v]);
                }
                sum.store(cp.add(r * ld + V::N * v));
            }
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

    /// [`scalar_col`] for the block's `k_u`.
    fn reference_col(
        g: &BlockGeom,
        ld: usize,
        a_row: &[f32],
        b: &[f32],
        col: usize,
        c0: f32,
    ) -> f32 {
        match g.k_u {
            1 => scalar_col::<1>(g, ld, a_row, b, col, c0),
            2 => scalar_col::<2>(g, ld, a_row, b, col, c0),
            _ => scalar_col::<4>(g, ld, a_row, b, col, c0),
        }
    }

    fn supported_levels() -> impl Iterator<Item = Level> {
        Level::ALL.into_iter().filter(|l| l.supported())
    }

    /// The live path and the scalar path must agree bit-for-bit on every
    /// real element, for every supported k_u, including ragged shapes.
    #[test]
    fn live_and_scalar_paths_are_bitwise_identical() {
        for &(m_s, k_a, n_a, ld) in &[
            (6, 37, 96, 96),
            (1, 129, 20, 32),
            (7, 4, 64, 64),
            (3, 1, 1, 32),
        ] {
            for &k_u in &SUPPORTED_KU {
                let a = fill(m_s * k_a, 1);
                let b = fill(k_a * ld, 2);
                let c0 = fill(m_s * ld, 3);
                let mut c_auto = c0.clone();
                let mut c_scalar = c0.clone();
                for g in geom(m_s, m_s.min(6), k_a, k_u) {
                    execute_block(&g, k_a, n_a, ld, &a, &b, &mut c_auto);
                    execute_block_at(Level::Scalar, &g, k_a, n_a, ld, &a, &b, &mut c_scalar);
                }
                for (i, (x, y)) in c_auto.iter().zip(&c_scalar).enumerate() {
                    assert!(
                        i % ld >= n_a || x.to_bits() == y.to_bits(),
                        "m_s={m_s} k_a={k_a} n_a={n_a} k_u={k_u} elem {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// At every level this CPU supports: every tile height of both tables,
    /// both strip widths, the scalar column remainder and every depth-tail
    /// length, on panels that start at odd element offsets (so no pointer
    /// is vector-aligned) and on groups that start below row 0 of the
    /// panel.  Columns `0..n_a` of the group's rows carry `scalar_col`'s
    /// bits; nothing outside those rows — the rows above the group, the
    /// guard words around the panel — is written.
    #[test]
    fn tile_sweep_matches_scalar_bitwise() {
        const GUARD: usize = 40;
        let pad = |n_a: usize| (n_a.div_ceil(32) * 32, n_a);
        let widths = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 80, 96].map(pad);
        // … and leading dimensions that are no whole number of vectors.
        let ragged = [(8, 8), (13, 13), (24, 20), (40, 40)];
        for level in supported_levels() {
            for &k_u in &SUPPORTED_KU {
                for (k_iters, k_tail) in [0, 3]
                    .into_iter()
                    .flat_map(|i| (0..k_u).map(move |t| (i, t)))
                {
                    let k_a = k_iters * k_u + k_tail;
                    if k_a == 0 {
                        continue;
                    }
                    for &(ld, n_a) in widths.iter().chain(&ragged) {
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
                                let c0 = fill(5 + rows * ld + GUARD, 6);
                                let mut c = c0.clone();
                                let panel = 5..5 + rows * ld;
                                execute_block_at(
                                    level,
                                    &g,
                                    k_a,
                                    n_a,
                                    ld,
                                    &a[1..],
                                    &b[3..],
                                    &mut c[panel.clone()],
                                );
                                for (i, (&got, &was)) in c.iter().zip(&c0).enumerate() {
                                    let at = i.wrapping_sub(panel.start);
                                    let (row, col) = (at / ld, at % ld);
                                    let want = if !panel.contains(&i) || row < mm_base {
                                        was
                                    } else if col < n_a {
                                        let a_row = &a[1 + row * k_a..][..k_a];
                                        reference_col(&g, ld, a_row, &b[3..], col, was)
                                    } else {
                                        continue; // padding lane: unspecified
                                    };
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "{level:?} {g:?} k_a={k_a} n_a={n_a} ld={ld}: c[{i}]"
                                    );
                                }
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
        execute_block(&g, 3, 8, 8, &[0.0; 3], &[0.0; 24], &mut [0.0; 8]);
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
        execute_block(&g, 4, 8, 8, &[0.0; 4], &[0.0; 32], &mut [0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "exceeds the leading dimension")]
    fn rejects_more_real_columns_than_the_leading_dimension() {
        let g = BlockGeom {
            mm_base: 0,
            m_u: 1,
            trips: 1,
            k_u: 1,
            k_iters: 1,
            k_tail: 0,
        };
        execute_block(&g, 1, 9, 8, &[0.0; 1], &[0.0; 8], &mut [0.0; 8]);
    }

    /// The documented order of [`checksum_sweep`], written out on its
    /// own: `[row sums, row masses, column sums, column masses]`, each
    /// added onto `init`.
    fn sweep_by_definition(
        x: &[f32],
        (rows, cols, ld): (usize, usize, usize),
        col_w: [&[f64]; 2],
        row_w: [&[f64]; 2],
        init: f64,
    ) -> [Vec<f64>; 4] {
        let at = |i: usize, j: usize| f64::from(x[i * ld + j]);
        let row = |i: usize, side: usize| {
            let mut lanes = [0.0f64; 8];
            for j in 0..cols {
                let v = if side == 0 { at(i, j) } else { at(i, j).abs() };
                lanes[j % 8] += v * col_w[side][j];
            }
            init + lanes.iter().fold(0.0, |s, l| s + l)
        };
        let col = |j: usize, side: usize| {
            (0..rows).fold(init, |s, i| {
                let v = if side == 0 { at(i, j) } else { at(i, j).abs() };
                s + v * row_w[side][i]
            })
        };
        [
            (0..rows).map(|i| row(i, 0)).collect(),
            (0..rows).map(|i| row(i, 1)).collect(),
            (0..cols).map(|j| col(j, 0)).collect(),
            (0..cols).map(|j| col(j, 1)).collect(),
        ]
    }

    /// At every level this CPU supports, on row and column counts around
    /// the row blocks and the 8 lanes (1×1, one column, one row, ragged
    /// tails) and strided matrices whose gaps hold NaN: the sweep returns
    /// the documented order's bits and reads no gap.
    #[test]
    fn checksum_sweep_has_the_same_bits_at_every_level() {
        let shapes = [
            (1, 1, 1),
            (1, 9, 9),
            (3, 8, 8),
            (5, 17, 24),
            (7, 33, 40),
            (9, 96, 96),
            (13, 7, 7),
            (4, 1, 3),
            (6, 16, 21),
            (0, 5, 5),
        ];
        let weights = |n: usize, seed: u32| -> Vec<f64> {
            fill(n, seed).iter().map(|&v| f64::from(v) / 3.0).collect()
        };
        for level in supported_levels() {
            for &(rows, cols, ld) in &shapes {
                let mut x = fill(rows * ld, 7);
                for (i, v) in x.iter_mut().enumerate() {
                    if i % ld >= cols {
                        *v = f32::NAN;
                    }
                }
                let (cw, cw_abs) = (weights(cols, 8), weights(cols, 9));
                let (rw, rw_abs) = (weights(rows, 10), weights(rows, 11));
                let init = 0.375;
                let mut got = [
                    vec![init; rows],
                    vec![init; rows],
                    vec![init; cols],
                    vec![init; cols],
                ];
                let [rs, rm, cs, cm] = &mut got;
                let (by_row, by_col) = (&mut [&mut rs[..], rm], &mut [&mut cs[..], cm]);
                sweep_at(
                    level,
                    (&x, ld, [&cw, &cw_abs], [&rw, &rw_abs], by_row, by_col),
                );
                let want =
                    sweep_by_definition(&x, (rows, cols, ld), [&cw, &cw_abs], [&rw, &rw_abs], init);
                for (side, (g, w)) in got.iter().zip(&want).enumerate() {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(g),
                        bits(w),
                        "{level:?} {rows}x{cols} ld={ld} side {side}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn checksum_sweep_rejects_a_short_matrix() {
        let one = [1.0; 3];
        let (mut a, mut b, mut c, mut d) = ([0.0; 3], [0.0; 3], [0.0; 3], [0.0; 3]);
        let (by_row, by_col) = ([&mut a[..], &mut b], [&mut c[..], &mut d]);
        checksum_sweep(&[0.0; 8], 3, [&one, &one], [&one, &one], by_row, by_col);
    }

    #[test]
    fn simd_level_names_the_widest_supported_level() {
        let widest = supported_levels().next().unwrap();
        assert_eq!(Level::live(), widest);
        let name = ["avx512f", "avx2+fma", "scalar"]
            [Level::ALL.iter().position(|&l| l == widest).unwrap()];
        assert_eq!(simd_level(), name);
    }
}
