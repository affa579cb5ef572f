//! The fuzzer's shape-space partition.
//!
//! The paper's irregular-GEMM claims span four qualitatively different
//! shape regimes; the fuzzer samples each one explicitly so a coverage
//! table can prove none was starved.  [`Regime::classify`] is total over
//! positive shapes and is the inverse of [`Regime::sample`]: every
//! sampled shape classifies back to the regime that produced it (asserted
//! by the crate's tests and the workload round-trip suite).

use dspsim::Rng64;
use ftimm::GemmShape;
use std::fmt;

/// One of the four sampled shape regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// `M ≫ N, K` — the paper's type-1 tall-skinny problems.
    TallSkinny,
    /// `K ≫ M, N` — the paper's type-2 (a short-wide output panel fed by
    /// a deep reduction).
    ShortWide,
    /// `K ≤ 8` — degenerate depth, where prologue/epilogue overheads and
    /// remainder handling dominate.
    TinyK,
    /// Everything comparable: `M ≈ K`, neither huge.
    Square,
}

/// `M` (or `K`) at or above this is "large" for classification.
const LARGE: usize = 256;
/// A dimension must exceed the other by this factor to dominate.
const DOMINANT: usize = 4;
/// `K` at or below this is "tiny" — shared with the core's shape
/// taxonomy so the sampler and the planner agree on the boundary.
const TINY_K: usize = ftimm::TINY_K_MAX;

// `ALL` lists the variants in declaration order, so `regime as usize`
// indexes it (and `FuzzSummary::regime_counts`).
const _: () = {
    let mut i = 0;
    while i < Regime::ALL.len() {
        assert!(Regime::ALL[i] as usize == i);
        i += 1;
    }
};

impl Regime {
    /// All regimes, in the coverage-table row order.
    pub const ALL: [Regime; 4] = [
        Regime::TallSkinny,
        Regime::ShortWide,
        Regime::TinyK,
        Regime::Square,
    ];

    /// Classify a shape.  Total: every positive shape lands in exactly
    /// one regime (`TinyK` wins over the size-ratio rules, tall-skinny
    /// before short-wide).
    pub fn classify(shape: &GemmShape) -> Regime {
        if shape.k <= TINY_K {
            Regime::TinyK
        } else if shape.m >= LARGE && shape.m >= DOMINANT * shape.k {
            Regime::TallSkinny
        } else if shape.k >= LARGE && shape.k >= DOMINANT * shape.m {
            Regime::ShortWide
        } else {
            Regime::Square
        }
    }

    /// Sample a shape from this regime.  Shapes are deliberately modest
    /// (functional simulation runs per case) while still crossing every
    /// remainder boundary: `n` spans the full `1..=96` kernel range and
    /// `m`/`k` are drawn from ranges with awkward primes included.
    pub fn sample(self, rng: &mut Rng64) -> GemmShape {
        let n = rng.range(1, 96);
        match self {
            Regime::TallSkinny => {
                let m = rng.range(LARGE as u64, 768);
                let k = rng.range(9, (m / DOMINANT as u64).min(48));
                GemmShape::new(m as usize, n as usize, k as usize)
            }
            Regime::ShortWide => {
                let k = rng.range(LARGE as u64, 768);
                let m = rng.range(1, (k / DOMINANT as u64).min(48));
                GemmShape::new(m as usize, n as usize, k as usize)
            }
            Regime::TinyK => {
                let k = rng.range(1, TINY_K as u64);
                let m = rng.range(1, 192);
                GemmShape::new(m as usize, n as usize, k as usize)
            }
            Regime::Square => {
                let m = rng.range(9, 160);
                let k = rng.range(9, 160);
                GemmShape::new(m as usize, n as usize, k as usize)
            }
        }
    }

    /// Stable lower-case tag used in fixtures and the coverage table.
    pub fn tag(self) -> &'static str {
        match self {
            Regime::TallSkinny => "tall-skinny",
            Regime::ShortWide => "short-wide",
            Regime::TinyK => "tiny-k",
            Regime::Square => "square",
        }
    }

    /// Parse a [`Regime::tag`] back.
    pub fn from_tag(s: &str) -> Option<Regime> {
        Regime::ALL.iter().copied().find(|r| r.tag() == s)
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_the_inverse_of_sampling() {
        let mut rng = Rng64::new(0xC0FFEE);
        for regime in Regime::ALL {
            for _ in 0..200 {
                let shape = regime.sample(&mut rng);
                assert_eq!(
                    Regime::classify(&shape),
                    regime,
                    "{shape} sampled from {regime}"
                );
            }
        }
    }

    #[test]
    fn paper_eval_shapes_land_where_expected() {
        assert_eq!(
            Regime::classify(&GemmShape::new(1 << 16, 32, 32)),
            Regime::TallSkinny
        );
        assert_eq!(
            Regime::classify(&GemmShape::new(32, 32, 1 << 16)),
            Regime::ShortWide
        );
        assert_eq!(Regime::classify(&GemmShape::new(512, 96, 4)), Regime::TinyK);
        assert_eq!(
            Regime::classify(&GemmShape::new(64, 32, 64)),
            Regime::Square
        );
    }

    #[test]
    fn tags_round_trip() {
        for r in Regime::ALL {
            assert_eq!(Regime::from_tag(r.tag()), Some(r));
        }
        assert_eq!(Regime::from_tag("noodle"), None);
    }
}
