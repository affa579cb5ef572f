//! The autotuner: a real parameter search over the planner's candidate
//! space.
//!
//! The paper picks block sizes from a fixed analytic grid (§IV-C); the
//! TVM line of work shows that measuring a wider candidate set beats any
//! fixed grid, and that the winning configuration shifts per shape
//! regime.  The [`Tuner`] implements that on top of the planner:
//!
//! * **Search** — the planner's `Strategy::Auto` pipeline runs first
//!   (rule pick, alternative, TGEMM, grid variants), then the tuner
//!   widens it: chunk-size ladders around the analytic pick and seeded
//!   random probes, ranked by the analytic model and simulated
//!   best-first, then a neighborhood refinement around the best
//!   simulated candidate, all within a fixed budget of
//!   timing simulations.
//! * **Bit safety** — ftIMM's conformance regime demands that executing
//!   a tuned plan is *bitwise identical* to executing the default plan.
//!   Per-element f32 accumulation order here is a pure function of the
//!   strategy's partitions of M, N and K (each row group's micro-kernel
//!   height fixes the `k_u` accumulator split; each K slice is one
//!   partial sum; K-parallel adds the slice→core round-robin).  The
//!   tuner captures that as a [`BitSignature`] and only ever *adopts* a
//!   variant whose signature equals the default pick's — such variants
//!   change DMA shapes, reuse and load balance (time), never results.
//!
//! Past the planner's own candidates the tuner simulates only variants
//! it could adopt: same signature, same core count.  No phase simulates
//! a candidate that cannot run: every one is admitted through the
//! walk's [`crate::walk::Footprint::fits`].
//!
//! Tuned plans persist across processes through the
//! [`crate::plan::store`] catalog.

use crate::plan::cost::analytic_seconds;
use crate::plan::planner::Planner;
use crate::plan::{Plan, PlanOrigin};
use crate::walk::{self, Layout, Walk};
use crate::{ChosenStrategy, GemmShape, KparBlocks, MparBlocks, Strategy};
use dspsim::{HwConfig, Rng64};
use kernelgen::KernelCache;

/// The three strategy kinds (a [`ChosenStrategy`] carries blocks; the
/// plan codec's tag and the [`BitSignature`] only care about the kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// M-dimension parallelisation.
    MPar,
    /// K-dimension parallelisation.
    KPar,
    /// The traditional baseline.
    TGemm,
}

impl StrategyKind {
    /// Every kind, in tag order.
    pub const ALL: [StrategyKind; 3] =
        [StrategyKind::MPar, StrategyKind::KPar, StrategyKind::TGemm];

    /// The kind of a resolved strategy.
    pub fn of(strategy: &ChosenStrategy) -> StrategyKind {
        match strategy {
            ChosenStrategy::MPar(_) => StrategyKind::MPar,
            ChosenStrategy::KPar(_) => StrategyKind::KPar,
            ChosenStrategy::TGemm => StrategyKind::TGemm,
        }
    }

    /// Stable lower-case tag used by the catalog codec.
    pub fn tag(self) -> &'static str {
        match self {
            StrategyKind::MPar => "mpar",
            StrategyKind::KPar => "kpar",
            StrategyKind::TGemm => "tgemm",
        }
    }

    /// The paper's name for the strategy (tables, plan displays).
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::MPar => "M-par",
            StrategyKind::KPar => "K-par",
            StrategyKind::TGemm => "TGEMM",
        }
    }

    /// Parse a [`StrategyKind::tag`] back.
    pub fn from_tag(s: &str) -> Result<StrategyKind, String> {
        StrategyKind::ALL
            .into_iter()
            .find(|k| k.tag() == s)
            .ok_or_else(|| format!("unknown strategy kind {s:?}"))
    }
}

/// The per-element f32 accumulation-order fingerprint of a resolved
/// strategy on a shape: the partitions of M, N and K its blocking
/// induces (leaf group sizes, in traversal order) plus, for K-parallel,
/// the number of accumulation streams the slice round-robin spreads K
/// over.  Two strategies with equal signatures execute every element's
/// FMA chain in the same order and are therefore bitwise interchangeable
/// — the adoption gate of the [`Tuner`].  The partitions are held in
/// run-length form ([`Walk::run_partitions`]), which is equal exactly
/// when the leaf lists are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSignature {
    kind: StrategyKind,
    streams: usize,
    m_runs: Vec<(usize, usize)>,
    n_runs: Vec<(usize, usize)>,
    k_runs: Vec<(usize, usize)>,
}

/// Compute the [`BitSignature`] of a strategy on a shape at a core count:
/// the run-length leaf partitions and stream count of its [`Walk`].
pub fn bit_signature(strategy: &ChosenStrategy, shape: &GemmShape, cores: usize) -> BitSignature {
    let walk = Walk::new(strategy, shape.m, shape.n, shape.k, cores);
    let [m_runs, n_runs, k_runs] = walk.run_partitions();
    BitSignature {
        kind: walk.kind(),
        streams: walk.levels().streams,
        m_runs,
        n_runs,
        k_runs,
    }
}

/// Uniform draw in `[1, n]` (`1` when `n == 0`).  Every `n > 0` consumes
/// one draw, `n == 1` included (where [`Rng64::range`]`(1, 1)` consumes
/// none): the seeded probes, and so the tuned plans, depend on it.
fn one_to(rng: &mut Rng64, n: u64) -> u64 {
    if n == 0 {
        1
    } else {
        1 + rng.next() % n
    }
}

/// Total timing-simulation budget of one tune, *including* the
/// simulations the default `Strategy::Auto` planning pipeline itself
/// runs.
const MAX_SIMULATIONS: u32 = 18;
/// Seeded random probes over the bit-safe chunk dimensions.
const RANDOM_PROBES: u32 = 6;
/// Refinement simulations around the best candidate found.
const NEIGHBORHOOD: u32 = 4;

/// Knobs of one tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneConfig {
    /// Seed of the random-probe stream (tuning is deterministic per
    /// seed).
    pub seed: u64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig { seed: 0x5EED_CAFE }
    }
}

/// What one [`Tuner::tune`] produced.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The tuned plan (origin [`PlanOrigin::Tuned`]); what the catalog
    /// persists and the plan cache serves.
    pub plan: Plan,
    /// The untuned `Strategy::Auto` pick the search started from.
    pub default_plan: Plan,
    /// Distinct bit-safe variants the search considered (beyond the
    /// planner's own candidates).
    pub variants: u32,
    /// Total timing simulations the tune ran (planner's included).
    pub simulations: u32,
    /// Whether a variant beat the default pick (else the tuned plan
    /// carries the default strategy).
    pub adopted_variant: bool,
}

/// The autotuner.  Stateless like the [`Planner`]: a tune's outcome is a
/// function of its request, its [`TuneConfig`] and the timing model,
/// never of what was tuned before.
pub struct Tuner<'a> {
    cache: &'a KernelCache,
    cfg: &'a HwConfig,
    config: TuneConfig,
}

impl<'a> Tuner<'a> {
    /// A tuner over the shared kernel cache and hardware model.
    pub fn new(cache: &'a KernelCache, cfg: &'a HwConfig, config: TuneConfig) -> Self {
        Tuner { cache, cfg, config }
    }

    /// Bit-safe chunk-dimension variants of `base`: the deterministic
    /// ladder plus `probes` seeded random draws.  Every returned variant
    /// has the same [`BitSignature`] as `base` and fits the scratchpads,
    /// so adopting it cannot change results.
    fn bit_safe_variants(
        &self,
        base: &ChosenStrategy,
        shape: &GemmShape,
        cores: usize,
        rng: &mut Rng64,
        probes: u32,
    ) -> Vec<ChosenStrategy> {
        let base_sig = bit_signature(base, shape, cores);
        let mut out: Vec<ChosenStrategy> = Vec::new();
        let mut admit = |cand: ChosenStrategy| {
            if cand != *base
                && !out.contains(&cand)
                && walk::fits(self.cfg, &cand, shape, cores)
                && bit_signature(&cand, shape, cores) == base_sig
            {
                out.push(cand);
            }
        };
        match base {
            ChosenStrategy::MPar(b) => {
                // The §IV-C envelope bounds the search: m_a up to what
                // both B_a buffers leave, k_g in multiples of k_a up to
                // the double-buffered GSM panel (larger trades B_g reuse
                // against panel latency; the partition over the real K is
                // unchanged as long as slice boundaries stay on k_a
                // multiples).
                let m_a_max = Layout::max_m_a(self.cfg, b.n_a, b.k_a);
                let max_mult = m_a_max / b.m_s.max(1);
                let kg_max_mult = (Layout::b_g_rows(self.cfg, b.n_g) / b.k_a.max(1))
                    .min(shape.k.div_ceil(b.k_a.max(1)))
                    .max(1);
                let mut ladder: Vec<usize> = vec![
                    b.m_a / 2 / b.m_s.max(1) * b.m_s,
                    b.m_a * 2 / b.m_s.max(1) * b.m_s,
                ];
                for j in 1..=3usize {
                    ladder.push(b.m_a.saturating_sub(j * b.m_s));
                    ladder.push(b.m_a + j * b.m_s);
                }
                for m_a in ladder {
                    if (1..=m_a_max).contains(&m_a) {
                        admit(ChosenStrategy::MPar(MparBlocks { m_a, ..*b }));
                    }
                }
                if b.k_g % b.k_a.max(1) == 0 {
                    let p = (b.k_g / b.k_a.max(1)).max(1);
                    for q in [p / 2, p * 2, 1, kg_max_mult] {
                        let q = q.clamp(1, kg_max_mult);
                        admit(ChosenStrategy::MPar(MparBlocks {
                            k_g: q * b.k_a,
                            ..*b
                        }));
                    }
                }
                for _ in 0..probes {
                    let m_a = b.m_s.max(1) * one_to(rng, max_mult as u64) as usize;
                    let k_g = b.k_a * one_to(rng, kg_max_mult as u64) as usize;
                    if m_a <= m_a_max {
                        admit(ChosenStrategy::MPar(MparBlocks { m_a, k_g, ..*b }));
                    }
                }
            }
            ChosenStrategy::KPar(b) => {
                let mut ladder: Vec<(usize, usize)> =
                    vec![(b.m_g / 2, b.m_a.min(b.m_g / 2)), (b.m_g * 2, b.m_a)];
                for j in 1..=3usize {
                    ladder.push((b.m_g, b.m_a.saturating_sub(j * b.m_s)));
                    ladder.push((b.m_g, b.m_a + j * b.m_s));
                }
                let m_a_max = Layout::max_m_a(self.cfg, b.n_a, b.k_a);
                let max_mult = m_a_max / b.m_s.max(1);
                for _ in 0..probes {
                    let m_a = b.m_s.max(1) * one_to(rng, max_mult as u64) as usize;
                    ladder.push((b.m_g << (rng.next() % 3), m_a));
                }
                for (m_g, m_a) in ladder {
                    if (1..=m_a_max.min(m_g)).contains(&m_a) {
                        admit(ChosenStrategy::KPar(KparBlocks { m_g, m_a, ..*b }));
                    }
                }
            }
            ChosenStrategy::TGemm => {}
        }
        out
    }

    /// Tune one (shape, cores) request.
    ///
    /// `simulate` evaluates a candidate at the requested core count on
    /// the timing model and returns predicted seconds (`INFINITY` for a
    /// candidate that cannot run).  Deterministic: the same inputs
    /// (including the seed) produce the identical outcome.
    ///
    /// The default `Strategy::Auto` pick is always simulated first and
    /// the tuned plan takes the minimum over everything simulated, so
    /// `plan.simulated_s <= default_plan.simulated_s` holds by
    /// construction — a tuned plan is never predicted slower than the
    /// analytic pick.  Every simulation after the planner's own is of a
    /// variant that could be adopted.
    pub fn tune<F: FnMut(&ChosenStrategy) -> f64>(
        &self,
        shape: &GemmShape,
        cores: usize,
        mut simulate: F,
    ) -> TuneOutcome {
        let mut sims: u32 = 0;

        // Phase 1: the planner's own pipeline (rule pick, alternative,
        // TGEMM, grid variants).
        let default_plan =
            Planner::new(self.cache, self.cfg).plan(shape, Strategy::Auto, cores, |c| {
                sims += 1;
                simulate(c)
            });
        let mut best = (default_plan.strategy, default_plan.simulated_s);
        let max = MAX_SIMULATIONS.max(sims);

        // Phase 2: bit-safe ladder + seeded random probes, ranked by the
        // analytic model, simulated best-first while budget (minus the
        // refinement reserve) lasts.  Every variant shares the default's
        // shape and kind, so no per-(regime × kind) correction of the
        // model could reorder them.
        let mut rng = Rng64::new(
            self.config
                .seed
                .wrapping_add((shape.m as u64).wrapping_mul(0x9E37_79B9))
                .wrapping_add((shape.n as u64).wrapping_mul(0x85EB_CA6B))
                .wrapping_add((shape.k as u64).wrapping_mul(0xC2B2_AE35))
                .wrapping_add(cores as u64),
        );
        let variants = self.bit_safe_variants(
            &default_plan.strategy,
            shape,
            cores,
            &mut rng,
            RANDOM_PROBES,
        );
        let mut scored: Vec<(f64, ChosenStrategy)> = variants
            .iter()
            .map(|c| (analytic_seconds(self.cache, self.cfg, shape, c, cores), *c))
            .filter(|(a, _)| a.is_finite())
            .collect();
        scored.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut simulated: Vec<ChosenStrategy> = Vec::new();
        for (_, cand) in scored {
            if sims + NEIGHBORHOOD >= max {
                break;
            }
            sims += 1;
            let t = simulate(&cand);
            simulated.push(cand);
            if t < best.1 {
                best = (cand, t);
            }
        }

        // Phase 3: neighborhood refinement — one chunk step either side
        // of the best candidate so far, still signature-gated.
        let mut refined = 0u32;
        while refined < NEIGHBORHOOD {
            let neighbors = self.bit_safe_variants(&best.0, shape, cores, &mut rng, 0);
            let next = neighbors
                .into_iter()
                .find(|c| *c != default_plan.strategy && !simulated.contains(c));
            let Some(cand) = next else { break };
            if sims >= max {
                break;
            }
            sims += 1;
            let t = simulate(&cand);
            simulated.push(cand);
            refined += 1;
            if t < best.1 {
                best = (cand, t);
            }
        }

        let adopted_variant = best.0 != default_plan.strategy;
        let plan = Plan {
            shape: *shape,
            cores,
            strategy: best.0,
            origin: PlanOrigin::Tuned,
            predicted_s: analytic_seconds(self.cache, self.cfg, shape, &best.0, cores),
            simulated_s: best.1,
            candidates: default_plan.candidates + variants.len() as u32,
            simulations: sims,
        };
        TuneOutcome {
            plan,
            default_plan,
            variants: variants.len() as u32,
            simulations: sims,
            adopted_variant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjust::{adjust_kpar, adjust_mpar};
    use crate::IrregularType;

    fn setup() -> (KernelCache, HwConfig) {
        let cfg = HwConfig::default();
        (KernelCache::new(cfg.clone()), cfg)
    }

    #[test]
    fn mpar_chunk_variants_share_the_signature_when_aligned() {
        let shape = GemmShape::new(4096, 32, 512);
        let base = MparBlocks {
            n_g: 32,
            k_g: 512,
            m_a: 320,
            n_a: 32,
            k_a: 256,
            m_s: 8,
        };
        let sig = bit_signature(&ChosenStrategy::MPar(base), &shape, 8);
        // m_a moved by a multiple of m_s: same row-group partition.
        let moved = MparBlocks { m_a: 328, ..base };
        assert_eq!(bit_signature(&ChosenStrategy::MPar(moved), &shape, 8), sig);
        // k_g moved by a multiple of k_a: same K-slice partition.
        let deeper = MparBlocks { k_g: 256, ..base };
        assert_eq!(bit_signature(&ChosenStrategy::MPar(deeper), &shape, 8), sig);
        // k_a change: different slice partition, different signature.
        let resliced = MparBlocks { k_a: 128, ..base };
        assert_ne!(
            bit_signature(&ChosenStrategy::MPar(resliced), &shape, 8),
            sig
        );
        // m_a misaligned to m_s: a short row group appears mid-matrix.
        let misaligned = MparBlocks { m_a: 323, ..base };
        assert_ne!(
            bit_signature(&ChosenStrategy::MPar(misaligned), &shape, 8),
            sig
        );
    }

    #[test]
    fn kpar_signature_tracks_core_streams() {
        let shape = GemmShape::new(32, 32, 1 << 14);
        let b = KparBlocks {
            m_g: 1024,
            n_g: 32,
            m_a: 32,
            n_a: 32,
            k_a: 512,
            m_s: 8,
        };
        let s8 = bit_signature(&ChosenStrategy::KPar(b), &shape, 8);
        let s4 = bit_signature(&ChosenStrategy::KPar(b), &shape, 4);
        assert_ne!(s8, s4, "core count reorders the slice round-robin");
    }

    #[test]
    fn tuner_variants_are_signature_gated() {
        let (cache, cfg) = setup();
        let tuner = Tuner::new(&cache, &cfg, TuneConfig::default());
        for shape in [
            GemmShape::new(1 << 14, 32, 512),
            GemmShape::new(32, 32, 1 << 14),
        ] {
            let base = match shape.classify() {
                IrregularType::SkinnyTallTimesTallSkinny => {
                    ChosenStrategy::KPar(adjust_kpar(&cache, &cfg, &shape, 8))
                }
                _ => ChosenStrategy::MPar(adjust_mpar(&cache, &cfg, &shape, 8)),
            };
            let sig = bit_signature(&base, &shape, 8);
            let mut rng = Rng64::new(1);
            let variants = tuner.bit_safe_variants(&base, &shape, 8, &mut rng, 8);
            assert!(!variants.is_empty(), "{shape}: no variants generated");
            for v in &variants {
                assert_eq!(bit_signature(v, &shape, 8), sig, "{shape}: {v:?}");
                assert_ne!(*v, base);
            }
        }
    }

    #[test]
    fn tuning_is_deterministic_and_never_worse_than_default() {
        let (cache, cfg) = setup();
        let shape = GemmShape::new(4096, 32, 512);
        // A deterministic fake timing model: a fixed skew of the
        // analytic estimate so candidate ranking is non-trivial.
        let fake = |c: &ChosenStrategy| analytic_seconds(&cache, &cfg, &shape, c, 8) * 1.25 + 1e-6;
        let tuner = Tuner::new(&cache, &cfg, TuneConfig::default());
        let o1 = tuner.tune(&shape, 8, fake);
        let o2 = tuner.tune(&shape, 8, fake);
        assert_eq!(o1.plan, o2.plan, "tuning must be deterministic");
        assert!(o1.plan.simulated_s <= o1.default_plan.simulated_s);
        assert_eq!(o1.plan.origin, PlanOrigin::Tuned);
        assert!(o1.simulations <= MAX_SIMULATIONS);
        // Adopted strategies are bitwise interchangeable with the default.
        assert_eq!(
            bit_signature(&o1.plan.strategy, &shape, 8),
            bit_signature(&o1.default_plan.strategy, &shape, 8)
        );
    }

    #[test]
    fn a_tune_simulates_only_what_it_could_adopt() {
        // Past the planner's own candidates, every simulation is of a
        // variant with the default pick's signature at the requested
        // core count, and the default budget holds them all.
        let (cache, cfg) = setup();
        let tuner = Tuner::new(&cache, &cfg, TuneConfig::default());
        for (shape, cores) in [
            (GemmShape::new(1 << 14, 32, 512), 8),
            (GemmShape::new(32, 32, 1 << 14), 8),
            (GemmShape::new(2048, 48, 2048), 8),
            (GemmShape::new(1 << 14, 32, 512), 4),
        ] {
            let mut seen: Vec<ChosenStrategy> = Vec::new();
            let o = tuner.tune(&shape, cores, |c| {
                seen.push(*c);
                analytic_seconds(&cache, &cfg, &shape, c, cores)
            });
            let sig = bit_signature(&o.default_plan.strategy, &shape, cores);
            let planner_sims = o.default_plan.simulations as usize;
            assert!(seen.len() > planner_sims, "{shape}: nothing tuned");
            for c in &seen[planner_sims..] {
                assert_eq!(bit_signature(c, &shape, cores), sig, "{shape}: {c:?}");
            }
            assert_eq!(o.simulations as usize, seen.len(), "{shape}");
            assert!(
                o.simulations <= MAX_SIMULATIONS,
                "{shape}: {} simulations",
                o.simulations
            );
        }
    }

    #[test]
    fn strategy_kind_tags_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(StrategyKind::from_tag("nope").is_err());
    }
}
