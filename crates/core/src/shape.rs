//! Classification of GEMM shapes into the paper's three irregular types
//! (§III-A): with `C += A×B` and `N ≤ 96`,
//!
//! * **Type 1** — tall-and-skinny × small: `M ≫ K ≈ N`;
//! * **Type 2** — skinny-and-tall × tall-and-skinny: `K ≫ M ≈ N`;
//! * **Type 3** — large regular × tall-and-skinny: `M ≈ K ≫ N`.

use std::fmt;

/// "Sufficiently large" dimension threshold from the paper's evaluation:
/// an `M` or `K` at or above this counts as the "≫" side of the §III-A
/// taxonomy.  Shared by [`GemmShape::classify`], the planner's candidate
/// pruning, and the conformance regime sampler.
pub const SUFFICIENTLY_LARGE: usize = 2048;

/// Alignment every adjusted block dimension is kept a multiple of (the
/// DMA burst / vector-width granule all scratchpad panels are padded to).
pub const BLOCK_ALIGN: usize = 32;

/// The paper's `m_s ≥ 6` rule: below this micro-kernel height the FMAC
/// pipeline cannot be kept full, so adjusting only goes lower when the
/// matrix itself has fewer rows.
pub const MIN_MICROKERNEL_ROWS: usize = 6;

/// Upper bound of the micro-kernel-height search: beyond 14 rows the
/// generator runs out of vector accumulator registers.
pub const MAX_MICROKERNEL_ROWS: usize = 14;

/// `K` at or below this is degenerate ("tiny-k"): prologue/epilogue and
/// remainder handling dominate.  Used by the conformance regime sampler.
pub const TINY_K_MAX: usize = 8;

/// Problem dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of A/C.
    pub m: usize,
    /// Columns of B/C.
    pub n: usize,
    /// Depth.
    pub k: usize,
}

impl GemmShape {
    /// Construct a shape.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        GemmShape { m, n, k }
    }

    /// Useful flops.
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Classify per §III-A.
    pub fn classify(&self) -> IrregularType {
        if self.n > kernelgen::MAX_NA {
            return IrregularType::Regular;
        }
        let m_big = self.m >= SUFFICIENTLY_LARGE;
        let k_big = self.k >= SUFFICIENTLY_LARGE;
        match (m_big, k_big) {
            (true, false) => IrregularType::TallSkinnyTimesSmall,
            (false, true) => IrregularType::SkinnyTallTimesTallSkinny,
            (true, true) => IrregularType::RegularTimesTallSkinny,
            (false, false) => IrregularType::Small,
        }
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// The paper's shape taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrregularType {
    /// Type 1: `M ≫ K ≈ N` — a tall-and-skinny A times a small B.
    TallSkinnyTimesSmall,
    /// Type 2: `K ≫ M ≈ N` — a skinny-and-tall A times a tall-and-skinny B.
    SkinnyTallTimesTallSkinny,
    /// Type 3: `M ≈ K ≫ N` — a large regular A times a tall-and-skinny B.
    RegularTimesTallSkinny,
    /// All dimensions small (falls back to single-pass execution).
    Small,
    /// `N > 96`: outside the irregular-GEMM scope (handled by TGEMM).
    Regular,
}

impl fmt::Display for IrregularType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IrregularType::TallSkinnyTimesSmall => "type-1 (tall-skinny × small)",
            IrregularType::SkinnyTallTimesTallSkinny => "type-2 (skinny-tall × tall-skinny)",
            IrregularType::RegularTimesTallSkinny => "type-3 (regular × tall-skinny)",
            IrregularType::Small => "small",
            IrregularType::Regular => "regular (N > 96)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_eval_shapes_classify_correctly() {
        // Fig 5(a): M = 2^16, small N and K.
        assert_eq!(
            GemmShape::new(1 << 16, 32, 32).classify(),
            IrregularType::TallSkinnyTimesSmall
        );
        // Fig 5(b): K = 2^16, M = N small.
        assert_eq!(
            GemmShape::new(32, 32, 1 << 16).classify(),
            IrregularType::SkinnyTallTimesTallSkinny
        );
        // Fig 5(c): M = K = 20480, N ≤ 96.
        assert_eq!(
            GemmShape::new(20480, 32, 20480).classify(),
            IrregularType::RegularTimesTallSkinny
        );
        assert_eq!(GemmShape::new(64, 32, 64).classify(), IrregularType::Small);
        assert_eq!(
            GemmShape::new(4096, 512, 4096).classify(),
            IrregularType::Regular
        );
    }

    #[test]
    fn flops_and_display() {
        let s = GemmShape::new(10, 20, 30);
        assert_eq!(s.flops(), 12000);
        assert_eq!(s.to_string(), "10x20x30");
    }
}
