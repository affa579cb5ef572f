//! The planner: turns a requested [`Strategy`] into a concrete [`Plan`].
//!
//! Forced and rule-based requests resolve directly through dynamic
//! adjusting ([`crate::adjust`]).  `Strategy::Auto` runs the full
//! pipeline: build a candidate space (the two rule-adjusted strategies,
//! TGEMM, and a block-size grid around the adjusted blocks), rank every
//! candidate with the analytic cost model, then evaluate only the §IV-C
//! rule pick, its alternative, and the top-K analytic extras on the
//! timing model.  Always simulating the two rule-adjusted candidates
//! keeps Auto a strict superset of the pre-planner behaviour: it can
//! never pick a slower plan than the old two-candidate evaluation.

use crate::adjust::{adjust_kpar, adjust_mpar};
use crate::plan::cost::analytic_seconds;
use crate::plan::{Plan, PlanOrigin};
use crate::shape::BLOCK_ALIGN;
use crate::walk::{self, Layout};
use crate::{ChosenStrategy, GemmShape, IrregularType, Strategy};
use dspsim::HwConfig;
use kernelgen::KernelCache;

/// Rule-based strategy selection (§IV-C): M-par when `N ≤ n_a` and M is
/// large; K-par when M is small and K is large; TGEMM otherwise.
pub fn choose_strategy(
    cache: &KernelCache,
    cfg: &HwConfig,
    shape: &GemmShape,
    cores: usize,
) -> ChosenStrategy {
    match shape.classify() {
        IrregularType::Regular => ChosenStrategy::TGemm,
        IrregularType::SkinnyTallTimesTallSkinny => {
            ChosenStrategy::KPar(adjust_kpar(cache, cfg, shape, cores))
        }
        IrregularType::TallSkinnyTimesSmall
        | IrregularType::RegularTimesTallSkinny
        | IrregularType::Small => ChosenStrategy::MPar(adjust_mpar(cache, cfg, shape, cores)),
    }
}

/// Grid variants around an adjusted candidate: scale the chunk dimension
/// of the parallel split (`m_a` for M-par, `k_a` for K-par) by ½ and 2,
/// within alignment, the shape and the block's §IV-C envelope
/// ([`Layout::max_m_a`]).  Varying the chunk size trades per-chunk CMR
/// against load balance — exactly the axis the CMR search cannot see
/// because it ignores the concrete M (or K) extent.  Whether a variant
/// can run is the caller's filter.
fn grid_variants(cfg: &HwConfig, base: &ChosenStrategy, shape: &GemmShape) -> Vec<ChosenStrategy> {
    let align_down = |v: usize| (v / BLOCK_ALIGN).max(1) * BLOCK_ALIGN;
    let align_up = |v: usize| v.div_ceil(BLOCK_ALIGN) * BLOCK_ALIGN;
    match base {
        ChosenStrategy::MPar(b) => [align_down(b.m_a / 2), align_down(b.m_a * 2)]
            .into_iter()
            .filter(|&m_a| m_a != b.m_a && m_a >= b.m_s && m_a <= align_up(shape.m))
            .filter(|&m_a| m_a <= Layout::max_m_a(cfg, b.n_a, b.k_a))
            .map(|m_a| ChosenStrategy::MPar(crate::MparBlocks { m_a, ..*b }))
            .collect(),
        ChosenStrategy::KPar(b) => [align_down(b.k_a / 2), align_down(b.k_a * 2)]
            .into_iter()
            .filter(|&k_a| k_a != b.k_a && k_a <= align_up(shape.k))
            .filter(|&k_a| b.m_a <= Layout::max_m_a(cfg, b.n_a, k_a))
            .map(|k_a| ChosenStrategy::KPar(crate::KparBlocks { k_a, ..*b }))
            .collect(),
        ChosenStrategy::TGemm => Vec::new(),
    }
}

/// Produces [`Plan`]s from planning requests.  Holds no state of its
/// own — the memo lives in [`crate::plan::PlanCache`], owned by
/// [`crate::FtImm`] — so it is cheap to build per call.
pub struct Planner<'a> {
    cache: &'a KernelCache,
    cfg: &'a HwConfig,
}

/// Analytic-grid candidates promoted to timing-model evaluation on top of
/// the two always-simulated rule candidates.
const TOP_K: usize = 2;

impl<'a> Planner<'a> {
    /// A planner over the shared kernel cache and hardware model.
    pub fn new(cache: &'a KernelCache, cfg: &'a HwConfig) -> Self {
        Planner { cache, cfg }
    }

    /// Resolve a plan.  `simulate` evaluates one candidate on the timing
    /// model and returns predicted seconds (`INFINITY` for a candidate
    /// that cannot run); it is only invoked for `Strategy::Auto`.
    ///
    /// Deterministic: same shape/cores/strategy (and kernel cache
    /// contents, which are themselves deterministic) → identical plan.
    pub fn plan<F: FnMut(&ChosenStrategy) -> f64>(
        &self,
        shape: &GemmShape,
        strategy: Strategy,
        cores: usize,
        mut simulate: F,
    ) -> Plan {
        let direct = |chosen: ChosenStrategy, origin: PlanOrigin| Plan {
            shape: *shape,
            cores,
            strategy: chosen,
            origin,
            predicted_s: analytic_seconds(self.cache, self.cfg, shape, &chosen, cores),
            simulated_s: f64::INFINITY,
            candidates: 1,
            simulations: 0,
        };
        match strategy {
            Strategy::MPar => direct(
                ChosenStrategy::MPar(adjust_mpar(self.cache, self.cfg, shape, cores)),
                PlanOrigin::Forced,
            ),
            Strategy::KPar => direct(
                ChosenStrategy::KPar(adjust_kpar(self.cache, self.cfg, shape, cores)),
                PlanOrigin::Forced,
            ),
            Strategy::TGemm => direct(ChosenStrategy::TGemm, PlanOrigin::Forced),
            Strategy::Rules => direct(
                choose_strategy(self.cache, self.cfg, shape, cores),
                PlanOrigin::Rules,
            ),
            Strategy::Auto => self.plan_auto(shape, cores, &mut simulate),
        }
    }

    /// The cost-model pipeline behind `Strategy::Auto`.
    fn plan_auto<F: FnMut(&ChosenStrategy) -> f64>(
        &self,
        shape: &GemmShape,
        cores: usize,
        simulate: &mut F,
    ) -> Plan {
        // Candidate space.  The rule pick and its alternative lead (they
        // are always simulated); TGEMM and the block-size grid broaden
        // it, as far as the scratchpads hold them.  Beyond the paper: for
        // N > 96 the M-parallel strategy (iterating 96-wide column
        // panels) competes with TGEMM, whose N-parallelism leaves cores
        // idle when N spans few chunks.
        let rule = choose_strategy(self.cache, self.cfg, shape, cores);
        let alt = match rule {
            ChosenStrategy::MPar(_) => {
                ChosenStrategy::KPar(adjust_kpar(self.cache, self.cfg, shape, cores))
            }
            ChosenStrategy::KPar(_) | ChosenStrategy::TGemm => {
                ChosenStrategy::MPar(adjust_mpar(self.cache, self.cfg, shape, cores))
            }
        };
        let mut candidates = vec![rule, alt];
        for extra in [ChosenStrategy::TGemm]
            .into_iter()
            .chain(grid_variants(self.cfg, &rule, shape))
            .chain(grid_variants(self.cfg, &alt, shape))
        {
            if !candidates.contains(&extra) && walk::fits(self.cfg, &extra, shape, cores) {
                candidates.push(extra);
            }
        }

        // Rank the whole space analytically; promote the top-K grid
        // extras (indices ≥ 2) to timing-model evaluation.
        let analytic: Vec<f64> = candidates
            .iter()
            .map(|c| analytic_seconds(self.cache, self.cfg, shape, c, cores))
            .collect();
        let mut extras: Vec<usize> = (2..candidates.len())
            .filter(|&i| analytic[i].is_finite())
            .collect();
        extras.sort_by(|&a, &b| analytic[a].total_cmp(&analytic[b]));
        extras.truncate(TOP_K);

        let mut best = (0usize, f64::INFINITY);
        let mut simulations = 0u32;
        for i in [0, 1].into_iter().chain(extras) {
            let t = simulate(&candidates[i]);
            simulations += 1;
            if t < best.1 {
                best = (i, t);
            }
        }
        Plan {
            shape: *shape,
            cores,
            strategy: candidates[best.0],
            origin: PlanOrigin::CostModel,
            predicted_s: analytic[best.0],
            simulated_s: best.1,
            candidates: candidates.len() as u32,
            simulations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KernelCache, HwConfig) {
        let cfg = HwConfig::default();
        (KernelCache::new(cfg.clone()), cfg)
    }

    #[test]
    fn strategy_rules_follow_the_paper() {
        let (cache, cfg) = setup();
        let pick = |m, n, k| choose_strategy(&cache, &cfg, &GemmShape::new(m, n, k), 8);
        assert!(matches!(pick(1 << 16, 32, 32), ChosenStrategy::MPar(_)));
        assert!(matches!(pick(32, 32, 1 << 16), ChosenStrategy::KPar(_)));
        assert!(matches!(pick(20480, 32, 20480), ChosenStrategy::MPar(_)));
        assert!(matches!(pick(4096, 512, 4096), ChosenStrategy::TGemm));
    }

    #[test]
    fn forced_and_rule_plans_never_simulate() {
        let (cache, cfg) = setup();
        let planner = Planner::new(&cache, &cfg);
        let shape = GemmShape::new(4096, 32, 256);
        for s in [
            Strategy::MPar,
            Strategy::KPar,
            Strategy::TGemm,
            Strategy::Rules,
        ] {
            let plan = planner.plan(&shape, s, 8, |_| panic!("no simulation for {s:?}"));
            assert_eq!(plan.simulations, 0);
            assert_eq!(plan.simulated_s, f64::INFINITY);
            assert!(plan.predicted_s.is_finite());
        }
    }

    #[test]
    fn auto_simulates_rule_alt_and_topk_and_picks_the_fastest() {
        let (cache, cfg) = setup();
        let planner = Planner::new(&cache, &cfg);
        let shape = GemmShape::new(4096, 32, 4096);
        let mut seen = Vec::new();
        // A fake simulator that makes the *second* candidate (the rule
        // alternative) the fastest: the planner must pick it.
        let plan = planner.plan(&shape, Strategy::Auto, 8, |c| {
            seen.push(*c);
            if seen.len() == 2 {
                1.0
            } else {
                2.0
            }
        });
        assert!(seen.len() >= 2, "rule + alt always simulated");
        assert!(seen.len() <= 2 + TOP_K);
        assert_eq!(plan.strategy, seen[1]);
        assert_eq!(plan.simulated_s, 1.0);
        assert_eq!(plan.simulations as usize, seen.len());
        assert!(plan.candidates >= plan.simulations);
        assert_eq!(plan.origin, PlanOrigin::CostModel);
    }

    #[test]
    fn auto_simulates_only_candidates_that_fit() {
        let (cache, cfg) = setup();
        let planner = Planner::new(&cache, &cfg);
        // Doubling this shape's K-par chunk gives k_a = 1024 at m_s = 12:
        // a 96 KiB A_s pair in a 64 KiB SM.
        let shape = GemmShape::new(64, 64, 4096);
        let rule = choose_strategy(&cache, &cfg, &shape, 8);
        assert!(grid_variants(&cfg, &rule, &shape)
            .iter()
            .any(|v| !walk::fits(&cfg, v, &shape, 8)));
        let plan = planner.plan(&shape, Strategy::Auto, 8, |c| {
            assert!(walk::fits(&cfg, c, &shape, 8), "{c:?} does not fit");
            1.0
        });
        assert!(walk::fits(&cfg, &plan.strategy, &shape, 8));
    }

    #[test]
    fn grid_variants_stay_aligned_and_bounded() {
        let (cache, cfg) = setup();
        let shape = GemmShape::new(1 << 14, 32, 512);
        let base = ChosenStrategy::MPar(adjust_mpar(&cache, &cfg, &shape, 8));
        for v in grid_variants(&cfg, &base, &shape) {
            let ChosenStrategy::MPar(b) = v else {
                panic!("mpar variants stay mpar")
            };
            assert_eq!(b.m_a % BLOCK_ALIGN, 0);
            assert!(b.m_a >= b.m_s);
        }
    }
}
