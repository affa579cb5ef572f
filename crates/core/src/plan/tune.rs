//! The autotuner: a real parameter search over the planner's candidate
//! space, plus a measured correction model for the analytic cost model.
//!
//! The paper picks block sizes from a fixed analytic grid (§IV-C); the
//! TVM line of work shows a search plus a fitted correction model beats
//! any fixed grid, and that the winning configuration shifts per shape
//! regime.  The [`Tuner`] implements that on top of the PR-5 planner:
//!
//! * **Search** — the planner's `Strategy::Auto` pipeline runs first
//!   (rule pick, alternative, TGEMM, grid variants), then the tuner
//!   widens it: chunk-size ladders around the analytic pick, seeded
//!   random probes, and a neighborhood refinement around the best
//!   simulated candidate, all budgeted by
//!   [`TuneConfig::max_simulations`].
//! * **Bit safety** — ftIMM's conformance regime demands that executing
//!   a tuned plan is *bitwise identical* to executing the default plan.
//!   Per-element f32 accumulation order here is a pure function of the
//!   strategy's partitions of M, N and K (each row group's micro-kernel
//!   height fixes the `k_u` accumulator split; each K slice is one
//!   partial sum; K-parallel adds the slice→core round-robin).  The
//!   tuner captures that as a [`BitSignature`] and only ever *adopts* a
//!   variant whose signature equals the default pick's — such variants
//!   change DMA shapes, reuse and load balance (time), never results.
//! * **Calibration** — every simulation is logged as a
//!   [`CalibrationRecord`]; [`Calibration`] fits one multiplicative
//!   correction factor per (shape regime × strategy kind) as the
//!   geometric mean of simulated/analytic ratios, and
//!   [`ranking_agreement`] reports how much the corrected model's
//!   candidate ranking agrees with the timing model, per regime.
//!   Variants that are *not* bit-safe (different `k_a`, `m_s`, strategy
//!   kind, or core count) are still simulated with spare budget — they
//!   feed the calibration even though they can never be adopted.
//!
//! No phase simulates a candidate that cannot run: every one is admitted
//! through the walk's [`crate::walk::Footprint::fits`].
//!
//! Tuned plans and calibration records persist across processes through
//! the [`crate::plan::store`] catalog.

use crate::plan::cost::analytic_seconds;
use crate::plan::planner::Planner;
use crate::plan::{Plan, PlanOrigin};
use crate::shape::{MAX_MICROKERNEL_ROWS, MIN_MICROKERNEL_ROWS};
use crate::walk::{self, Layout, Walk};
use crate::{ChosenStrategy, GemmShape, IrregularType, KparBlocks, MparBlocks, Strategy};
use dspsim::HwConfig;
use kernelgen::KernelCache;

/// The three strategy kinds, as a calibration key (a [`ChosenStrategy`]
/// carries blocks; the correction model only cares about the kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// M-dimension parallelisation.
    MPar,
    /// K-dimension parallelisation.
    KPar,
    /// The traditional baseline.
    TGemm,
}

/// Number of [`StrategyKind`] variants (calibration table dimension).
pub const STRATEGY_KINDS: usize = 3;

impl StrategyKind {
    /// Every kind, in calibration-table order.
    pub const ALL: [StrategyKind; STRATEGY_KINDS] =
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

    fn index(self) -> usize {
        StrategyKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("in ALL")
    }
}

/// Every shape regime, in calibration-table order.
pub const REGIMES: [IrregularType; 5] = [
    IrregularType::TallSkinnyTimesSmall,
    IrregularType::SkinnyTallTimesTallSkinny,
    IrregularType::RegularTimesTallSkinny,
    IrregularType::Small,
    IrregularType::Regular,
];

fn regime_index(r: IrregularType) -> usize {
    REGIMES.iter().position(|&x| x == r).expect("in REGIMES")
}

/// One observed (analytic, simulated) pair from a tuner simulation — the
/// unit the correction model is fitted from, persisted in the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationRecord {
    /// The problem shape the candidate was evaluated for.
    pub shape: GemmShape,
    /// Core count the candidate was evaluated at.
    pub cores: usize,
    /// The candidate's strategy kind.
    pub kind: StrategyKind,
    /// What the analytic cost model predicted, seconds.
    pub analytic_s: f64,
    /// What the timing model measured, seconds.
    pub simulated_s: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CalCell {
    log_sum: f64,
    n: u32,
}

/// Per-(regime × strategy kind) multiplicative corrections for the
/// analytic cost model, fitted as the geometric mean of observed
/// simulated/analytic ratios.  A per-regime-only scalar would cancel out
/// of every within-regime comparison; keying on the kind as well is what
/// lets the corrected model re-rank candidates of different kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calibration {
    cells: [[CalCell; STRATEGY_KINDS]; 5],
}

impl Calibration {
    /// Fit a calibration from a record set.
    pub fn fit(records: &[CalibrationRecord]) -> Calibration {
        let mut cal = Calibration::default();
        for r in records {
            cal.observe(r);
        }
        cal
    }

    /// Fold one record into the fit.  Records with non-finite or
    /// non-positive seconds are ignored.
    pub fn observe(&mut self, r: &CalibrationRecord) {
        if !(r.analytic_s.is_finite() && r.simulated_s.is_finite())
            || r.analytic_s <= 0.0
            || r.simulated_s <= 0.0
        {
            return;
        }
        let cell = &mut self.cells[regime_index(r.shape.classify())][r.kind.index()];
        cell.log_sum += (r.simulated_s / r.analytic_s).ln();
        cell.n += 1;
    }

    /// The fitted correction factor for a (regime, kind) cell (`1.0`
    /// until at least one record lands in it).
    pub fn factor(&self, regime: IrregularType, kind: StrategyKind) -> f64 {
        let cell = &self.cells[regime_index(regime)][kind.index()];
        if cell.n == 0 {
            1.0
        } else {
            (cell.log_sum / f64::from(cell.n)).exp()
        }
    }

    /// Apply the correction: the calibrated estimate of simulated
    /// seconds from an analytic prediction.
    pub fn correct(&self, regime: IrregularType, kind: StrategyKind, analytic_s: f64) -> f64 {
        analytic_s * self.factor(regime, kind)
    }

    /// Total records folded in.
    pub fn observations(&self) -> u64 {
        self.cells.iter().flatten().map(|c| u64::from(c.n)).sum()
    }
}

/// Per-regime analytic-vs-simulated ranking agreement, raw and after
/// correction (see [`ranking_agreement`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeAgreement {
    /// The regime.
    pub regime: IrregularType,
    /// Records that fell in this regime.
    pub records: usize,
    /// Comparable record pairs (same shape and cores, distinct finite
    /// simulated seconds).
    pub pairs: usize,
    /// Pairs the *raw* analytic model ordered the same way the timing
    /// model did.
    pub raw_agree: usize,
    /// Pairs the *corrected* model ordered the same way.
    pub corrected_agree: usize,
}

impl RegimeAgreement {
    /// Raw agreement fraction (`1.0` when there are no pairs).
    pub fn raw_fraction(&self) -> f64 {
        if self.pairs == 0 {
            1.0
        } else {
            self.raw_agree as f64 / self.pairs as f64
        }
    }

    /// Corrected agreement fraction (`1.0` when there are no pairs).
    pub fn corrected_fraction(&self) -> f64 {
        if self.pairs == 0 {
            1.0
        } else {
            self.corrected_agree as f64 / self.pairs as f64
        }
    }
}

/// Pairwise ranking agreement of the analytic model against the timing
/// model, per regime: over every pair of records for the *same planning
/// decision* (same shape, same cores), does the model order the two
/// candidates the way the timing model did?  Reported raw and with
/// `cal`'s corrections applied, so calibration improvements are
/// measurable.
pub fn ranking_agreement(records: &[CalibrationRecord], cal: &Calibration) -> Vec<RegimeAgreement> {
    let mut out: Vec<RegimeAgreement> = REGIMES
        .into_iter()
        .map(|regime| RegimeAgreement {
            regime,
            records: 0,
            pairs: 0,
            raw_agree: 0,
            corrected_agree: 0,
        })
        .collect();
    for r in records {
        out[regime_index(r.shape.classify())].records += 1;
    }
    for (i, a) in records.iter().enumerate() {
        for b in records.iter().skip(i + 1) {
            if a.shape != b.shape || a.cores != b.cores {
                continue;
            }
            if !(a.analytic_s.is_finite()
                && b.analytic_s.is_finite()
                && a.simulated_s.is_finite()
                && b.simulated_s.is_finite())
                || a.simulated_s == b.simulated_s
            {
                continue;
            }
            let regime = a.shape.classify();
            let agg = &mut out[regime_index(regime)];
            agg.pairs += 1;
            let sim_lt = a.simulated_s < b.simulated_s;
            if (a.analytic_s < b.analytic_s) == sim_lt {
                agg.raw_agree += 1;
            }
            let ca = cal.correct(regime, a.kind, a.analytic_s);
            let cb = cal.correct(regime, b.kind, b.analytic_s);
            if (ca < cb) == sim_lt {
                agg.corrected_agree += 1;
            }
        }
    }
    out
}

/// The per-element f32 accumulation-order fingerprint of a resolved
/// strategy on a shape: the partitions of M, N and K its blocking
/// induces (leaf group sizes, in traversal order) plus, for K-parallel,
/// the number of accumulation streams the slice round-robin spreads K
/// over.  Two strategies with equal signatures execute every element's
/// FMA chain in the same order and are therefore bitwise interchangeable
/// — the adoption gate of the [`Tuner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSignature {
    kind: StrategyKind,
    streams: usize,
    m_groups: Vec<usize>,
    n_groups: Vec<usize>,
    k_groups: Vec<usize>,
}

/// Compute the [`BitSignature`] of a strategy on a shape at a core count:
/// the leaf partitions and stream count of its [`Walk`].
pub fn bit_signature(strategy: &ChosenStrategy, shape: &GemmShape, cores: usize) -> BitSignature {
    let walk = Walk::new(strategy, shape.m, shape.n, shape.k, cores);
    let [m_groups, n_groups, k_groups] = walk.leaf_partitions();
    BitSignature {
        kind: walk.kind(),
        streams: walk.levels().streams,
        m_groups,
        n_groups,
        k_groups,
    }
}

/// Deterministic splitmix64 stream for the seeded random probes.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[1, n]` (`1` when `n == 0`).
    fn one_to(&mut self, n: u64) -> u64 {
        if n == 0 {
            1
        } else {
            1 + self.next() % n
        }
    }
}

/// Co-execution context for a tuning run: the CPU lane and placement
/// the tuned plan will be dispatched against.  When present,
/// [`crate::FtImm::tune`] searches the CPU/DSP split fraction with
/// [`super::choose_coexec_split`] and stamps the winning M tail into
/// [`super::Plan::coexec_cpu_rows`] — the first *non-blocking* tuning
/// dimension: the split moves work between devices on the checkpoint
/// grid without touching the strategy's blocks, so adoption is never
/// gated on a [`BitSignature`] comparison (there is nothing to gate —
/// the accumulation order per row is unchanged by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoexecTune {
    /// CPU model of the co-execution lane.
    pub cpu: cpublas::CpuConfig,
    /// Lane-health slowdown the split is searched under (1.0 = nominal).
    pub slowdown: f64,
    /// Checkpoint grain (`ckpt_rows`) the dispatching engine will use —
    /// split boundaries are quantised to it.
    pub grain_rows: usize,
    /// Usable DSP clusters the DSP side of the split spans.
    pub clusters: usize,
}

impl Default for CoexecTune {
    fn default() -> Self {
        CoexecTune {
            cpu: cpublas::CpuConfig::default(),
            slowdown: 1.0,
            grain_rows: 64,
            clusters: 4,
        }
    }
}

/// Knobs of one tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneConfig {
    /// Total timing-simulation budget, *including* the simulations the
    /// default `Strategy::Auto` planning pipeline itself runs.
    pub max_simulations: u32,
    /// Seeded random probes over the bit-safe chunk dimensions.
    pub random_probes: u32,
    /// Refinement simulations around the best candidate found.
    pub neighborhood: u32,
    /// Spend leftover budget on calibration-only variants (`k_a`/`m_s`
    /// blocks, alternate core counts) that can never be adopted.
    pub explore: bool,
    /// Seed of the random-probe stream (tuning is deterministic per
    /// seed).
    pub seed: u64,
    /// Also search the CPU/DSP co-execution split for this lane/pool
    /// (`None` = DSP-only tuning, the pre-co-exec behaviour).
    pub coexec: Option<CoexecTune>,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            max_simulations: 24,
            random_probes: 6,
            neighborhood: 4,
            explore: true,
            seed: 0x5EED_CAFE,
            coexec: None,
        }
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
    /// Every simulation's observed (analytic, simulated) pair.
    pub records: Vec<CalibrationRecord>,
}

/// Calibration-only exploration budget (simulations) when
/// [`TuneConfig::explore`] is set.
const EXPLORE_SIMS: u32 = 6;

/// Core counts the wide exploration samples the rule pick at (records
/// only — adopted plans never change core count, which would reorder the
/// K-parallel slice round-robin).
const EXPLORE_CORE_GRID: [usize; 2] = [2, 4];

/// The autotuner.  Stateless like the [`Planner`]; calibration state
/// lives with the caller (see [`crate::FtImm::tune`]).
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
        rng: &mut SplitMix64,
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
                    let m_a = b.m_s.max(1) * rng.one_to(max_mult as u64) as usize;
                    let k_g = b.k_a * rng.one_to(kg_max_mult as u64) as usize;
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
                    let m_a = b.m_s.max(1) * rng.one_to(max_mult as u64) as usize;
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

    /// Calibration-only variants: block/kind/core-count changes that are
    /// *not* bit-safe and are simulated purely to feed the correction
    /// model.  Returned as (strategy, cores) pairs, each one that fits
    /// the scratchpads at its core count.
    fn exploration_variants(
        &self,
        base: &ChosenStrategy,
        shape: &GemmShape,
        cores: usize,
    ) -> Vec<(ChosenStrategy, usize)> {
        let mut out: Vec<(ChosenStrategy, usize)> = Vec::new();
        let mut push = |c: ChosenStrategy, n: usize| {
            if (c != *base || n != cores)
                && !out.contains(&(c, n))
                && walk::fits(self.cfg, &c, shape, n)
            {
                out.push((c, n));
            }
        };
        // The rule pick across the core grid: how parallel efficiency
        // really scales, per regime.
        for n in EXPLORE_CORE_GRID {
            if n != cores {
                push(*base, n);
            }
        }
        // k_a / m_s perturbations within the §IV-C envelope: different
        // kernel specs, different slice partitions — never adoptable,
        // always informative.
        let with = |k_a, m_s| match *base {
            ChosenStrategy::MPar(b) => ChosenStrategy::MPar(MparBlocks { k_a, m_s, ..b }),
            ChosenStrategy::KPar(b) => ChosenStrategy::KPar(KparBlocks { k_a, m_s, ..b }),
            ChosenStrategy::TGemm => ChosenStrategy::TGemm,
        };
        if let ChosenStrategy::MPar(MparBlocks {
            m_a, n_a, k_a, m_s, ..
        })
        | ChosenStrategy::KPar(KparBlocks {
            m_a, n_a, k_a, m_s, ..
        }) = *base
        {
            for k in [k_a.saturating_sub(32), k_a + 32] {
                if k >= 32 && m_a <= Layout::max_m_a(self.cfg, n_a, k) {
                    push(with(k, m_s), cores);
                }
            }
            for m in [m_s.saturating_sub(1), m_s + 1] {
                if (MIN_MICROKERNEL_ROWS..=MAX_MICROKERNEL_ROWS).contains(&m) {
                    push(with(k_a, m), cores);
                }
            }
        }
        out
    }

    /// Tune one (shape, cores) request.
    ///
    /// `simulate` evaluates a candidate at a core count on the timing
    /// model and returns predicted seconds (`INFINITY` for a candidate
    /// that cannot run).  `calibration` steers which candidates are
    /// simulated first; passing [`Calibration::default`] is always
    /// valid.  Deterministic: the same inputs (including the seed and
    /// calibration) produce the identical outcome.
    ///
    /// The default `Strategy::Auto` pick is always simulated first and
    /// the tuned plan takes the minimum over everything simulated, so
    /// `plan.simulated_s <= default_plan.simulated_s` holds by
    /// construction — a tuned plan is never predicted slower than the
    /// analytic pick.
    // Long until ROADMAP item 12, which may delete its calibration half.
    #[allow(clippy::too_many_lines)]
    pub fn tune<F: FnMut(&ChosenStrategy, usize) -> f64>(
        &self,
        shape: &GemmShape,
        cores: usize,
        calibration: &Calibration,
        mut simulate: F,
    ) -> TuneOutcome {
        let regime = shape.classify();
        let mut records: Vec<CalibrationRecord> = Vec::new();
        let mut sims: u32 = 0;

        // Phase 1: the planner's own pipeline (rule pick, alternative,
        // TGEMM, grid variants), with every simulation recorded.
        let default_plan = Planner::new(self.cache, self.cfg).plan(
            shape,
            Strategy::Auto,
            cores,
            |c: &ChosenStrategy| {
                sims += 1;
                let analytic_s = analytic_seconds(self.cache, self.cfg, shape, c, cores);
                let simulated_s = simulate(c, cores);
                records.push(CalibrationRecord {
                    shape: *shape,
                    cores,
                    kind: StrategyKind::of(c),
                    analytic_s,
                    simulated_s,
                });
                simulated_s
            },
        );
        let mut best = (default_plan.strategy, default_plan.simulated_s);
        let max = self.config.max_simulations.max(sims);
        let mut run = |c: &ChosenStrategy,
                       n: usize,
                       sims: &mut u32,
                       records: &mut Vec<CalibrationRecord>|
         -> f64 {
            *sims += 1;
            let analytic_s = analytic_seconds(self.cache, self.cfg, shape, c, n);
            let simulated_s = simulate(c, n);
            records.push(CalibrationRecord {
                shape: *shape,
                cores: n,
                kind: StrategyKind::of(c),
                analytic_s,
                simulated_s,
            });
            simulated_s
        };

        // Phase 2: bit-safe ladder + seeded random probes, ranked by the
        // calibration-corrected analytic model, simulated best-first
        // while budget (minus the refinement/exploration reserve) lasts.
        let mut rng = SplitMix64::new(
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
            self.config.random_probes,
        );
        let mut scored: Vec<(f64, ChosenStrategy)> = variants
            .iter()
            .map(|c| {
                let a = analytic_seconds(self.cache, self.cfg, shape, c, cores);
                (calibration.correct(regime, StrategyKind::of(c), a), *c)
            })
            .filter(|(a, _)| a.is_finite())
            .collect();
        scored.sort_by(|x, y| x.0.total_cmp(&y.0));
        let reserve = self.config.neighborhood + if self.config.explore { EXPLORE_SIMS } else { 0 };
        let mut simulated: Vec<ChosenStrategy> = Vec::new();
        for (_, cand) in &scored {
            if sims + reserve >= max {
                break;
            }
            let t = run(cand, cores, &mut sims, &mut records);
            simulated.push(*cand);
            if t < best.1 {
                best = (*cand, t);
            }
        }

        // Phase 3: neighborhood refinement — one chunk step either side
        // of the best candidate so far, still signature-gated.
        let mut refined = 0u32;
        while refined < self.config.neighborhood {
            let neighbors = self.bit_safe_variants(&best.0, shape, cores, &mut rng, 0);
            let next = neighbors
                .into_iter()
                .find(|c| *c != default_plan.strategy && !simulated.contains(c));
            let Some(cand) = next else { break };
            if sims + if self.config.explore { EXPLORE_SIMS } else { 0 } >= max {
                break;
            }
            let t = run(&cand, cores, &mut sims, &mut records);
            simulated.push(cand);
            refined += 1;
            if t < best.1 {
                best = (cand, t);
            }
        }

        // Phase 4: calibration-only exploration with whatever budget is
        // left — candidates that can never be adopted but teach the
        // correction model how the analytic model errs per regime.
        if self.config.explore {
            for (cand, n) in self.exploration_variants(&default_plan.strategy, shape, cores) {
                if sims >= max {
                    break;
                }
                run(&cand, n, &mut sims, &mut records);
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
            coexec_cpu_rows: 0,
        };
        TuneOutcome {
            plan,
            default_plan,
            variants: variants.len() as u32,
            simulations: sims,
            adopted_variant,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjust::{adjust_kpar, adjust_mpar};

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
            let mut rng = SplitMix64::new(1);
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
        let fake = |c: &ChosenStrategy, n: usize| {
            analytic_seconds(&cache, &cfg, &shape, c, n) * 1.25 + 1e-6
        };
        let tuner = Tuner::new(&cache, &cfg, TuneConfig::default());
        let cal = Calibration::default();
        let o1 = tuner.tune(&shape, 8, &cal, fake);
        let o2 = tuner.tune(&shape, 8, &cal, fake);
        assert_eq!(o1.plan, o2.plan, "tuning must be deterministic");
        assert_eq!(o1.records, o2.records);
        assert!(o1.plan.simulated_s <= o1.default_plan.simulated_s);
        assert_eq!(o1.plan.origin, PlanOrigin::Tuned);
        assert!(o1.simulations <= TuneConfig::default().max_simulations);
        assert_eq!(o1.simulations as usize, o1.records.len());
        // Adopted strategies are bitwise interchangeable with the default.
        assert_eq!(
            bit_signature(&o1.plan.strategy, &shape, 8),
            bit_signature(&o1.default_plan.strategy, &shape, 8)
        );
    }

    #[test]
    fn calibration_improves_cross_kind_ranking() {
        // Synthetic regime where the analytic model under-costs KPar 4×:
        // raw ranking gets every MPar-vs-KPar pair wrong, the fitted
        // per-kind factors set it right.
        let shape = GemmShape::new(32, 32, 1 << 14);
        let mk = |kind: StrategyKind, analytic: f64, simulated: f64| CalibrationRecord {
            shape,
            cores: 8,
            kind,
            analytic_s: analytic,
            simulated_s: simulated,
        };
        let records = vec![
            mk(StrategyKind::KPar, 1.0e-3, 4.1e-3),
            mk(StrategyKind::KPar, 1.1e-3, 4.4e-3),
            mk(StrategyKind::MPar, 2.0e-3, 2.1e-3),
            mk(StrategyKind::MPar, 2.2e-3, 2.3e-3),
        ];
        let cal = Calibration::fit(&records);
        assert!(cal.factor(shape.classify(), StrategyKind::KPar) > 3.0);
        let agreement = ranking_agreement(&records, &cal);
        let regime = agreement
            .iter()
            .find(|a| a.regime == shape.classify())
            .unwrap();
        assert_eq!(regime.records, 4);
        assert!(regime.pairs >= 4);
        assert!(
            regime.corrected_agree > regime.raw_agree,
            "correction must improve ranking agreement: {regime:?}"
        );
        assert!(regime.corrected_fraction() >= 1.0 - 1e-12);
    }

    #[test]
    fn empty_calibration_is_identity() {
        let cal = Calibration::default();
        for regime in REGIMES {
            for kind in StrategyKind::ALL {
                assert_eq!(cal.factor(regime, kind), 1.0);
                assert_eq!(cal.correct(regime, kind, 2.5), 2.5);
            }
        }
        assert_eq!(cal.observations(), 0);
        // Non-finite and non-positive records are ignored.
        let mut cal = cal;
        cal.observe(&CalibrationRecord {
            shape: GemmShape::new(8, 8, 8),
            cores: 1,
            kind: StrategyKind::TGemm,
            analytic_s: f64::INFINITY,
            simulated_s: 1.0,
        });
        assert_eq!(cal.observations(), 0);
    }

    #[test]
    fn strategy_kind_tags_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(StrategyKind::from_tag("nope").is_err());
    }
}
