//! Property tests for dynamic adjusting: for arbitrary shapes, the block
//! sizes it emits must fit every scratchpad (the walk's footprint: C_a
//! and both B_a in AM, both A_s in SM, the panels in GSM), stay within
//! matrix bounds where required, and respect the paper's m_s rule.

use dspsim::HwConfig;
use ftimm::{adjust_kpar, adjust_mpar, choose_strategy, ChosenStrategy, GemmShape, Walk};
use kernelgen::KernelCache;
use proptest::prelude::*;

/// The feasibility predicate: what a run of `plan` on `shape` touches
/// fits every scratchpad of `cfg`.
fn fits(cfg: &HwConfig, plan: ChosenStrategy, shape: &GemmShape, cores: usize) -> bool {
    Walk::new(&plan, shape.m, shape.n, shape.k, cores)
        .footprint()
        .fits(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mpar_blocks_fit_all_memories(
        m in 1usize..(1 << 22),
        n in 1usize..97,
        k in 1usize..(1 << 22),
        cores in 1usize..9,
    ) {
        let cfg = HwConfig::default();
        let cache = KernelCache::new(cfg.clone());
        let shape = GemmShape::new(m, n, k);
        let b = adjust_mpar(&cache, &cfg, &shape, cores);
        prop_assert!(fits(&cfg, ChosenStrategy::MPar(b), &shape, cores), "{b:?} on {shape}");
        // Block sanity.
        prop_assert!(b.n_a <= 96 && b.n_a >= n.min(96));
        prop_assert!(b.m_s >= 1 && b.m_s <= b.m_a);
        prop_assert!(b.k_g.is_multiple_of(b.k_a) || b.k_g >= k, "{b:?} k={k}");
        // The paper's rule: m_s ≥ 6 whenever M allows it.
        if m >= 6 {
            prop_assert!(b.m_s >= 6, "{b:?} for M={m}");
        }
    }

    #[test]
    fn kpar_blocks_fit_all_memories(
        m in 1usize..(1 << 20),
        n in 1usize..97,
        k in 1usize..(1 << 22),
        cores in 1usize..9,
    ) {
        let cfg = HwConfig::default();
        let cache = KernelCache::new(cfg.clone());
        let shape = GemmShape::new(m, n, k);
        let b = adjust_kpar(&cache, &cfg, &shape, cores);
        prop_assert!(fits(&cfg, ChosenStrategy::KPar(b), &shape, cores), "{b:?} on {shape}");
        prop_assert!(b.m_a <= b.m_g, "{b:?}");
        prop_assert!(b.m_s <= b.m_a, "{b:?}");
        if m >= 6 {
            prop_assert!(b.m_s >= 6, "{b:?} for M={m}");
        }
    }

    #[test]
    fn strategy_selection_is_total_and_consistent(
        m in 1usize..(1 << 22),
        n in 1usize..512,
        k in 1usize..(1 << 22),
        cores in 1usize..9,
    ) {
        let cfg = HwConfig::default();
        let cache = KernelCache::new(cfg.clone());
        let shape = GemmShape::new(m, n, k);
        let s = choose_strategy(&cache, &cfg, &shape, cores);
        match s {
            ChosenStrategy::TGemm => prop_assert!(n > 96),
            ChosenStrategy::KPar(_) => {
                prop_assert!(n <= 96);
                prop_assert!(k > m, "K-par picked for {shape} (m ≥ k)");
            }
            ChosenStrategy::MPar(_) => prop_assert!(n <= 96),
        }
    }
}
