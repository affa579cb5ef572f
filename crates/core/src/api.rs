//! The ftIMM library context, [`FtImm`], and its one-call shorthands for
//! the [`crate::Executor`].

use crate::plan::sharded::PlacementCache;
use crate::plan::store::{self, CatalogLoad, PlanTable};
use crate::plan::tune::{TuneConfig, TuneOutcome, Tuner};
use crate::plan::{Plan, PlanCache, PlanKey, Planner, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::{resilience, walk, ChosenStrategy, Executor, FtimmError, GemmProblem, GemmShape};
use dspsim::{ExecMode, HwConfig, Machine, Phase, RunReport, SimError};
use kernelgen::{
    BoundedLru, CacheStats, KernelCache, KernelExecutor, DEFAULT_KERNEL_CACHE_CAPACITY,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Strategy requested by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Dynamic adjusting picks blocks and parallelisation (the ftIMM
    /// default): candidate strategies are evaluated on the timing model
    /// and the fastest wins.
    Auto,
    /// Rule-based selection only (§IV-C rules, no model evaluation).
    Rules,
    /// Force M-dimension parallelisation.
    MPar,
    /// Force K-dimension parallelisation.
    KPar,
    /// Force the traditional baseline (TGEMM).
    TGemm,
}

impl Strategy {
    /// Every requestable strategy, in tag order.
    pub const ALL: [Strategy; 5] = [
        Strategy::Auto,
        Strategy::Rules,
        Strategy::MPar,
        Strategy::KPar,
        Strategy::TGemm,
    ];

    /// Stable lower-case tag used by the plan-catalog codec.
    pub fn tag(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Rules => "rules",
            Strategy::MPar => "mpar",
            Strategy::KPar => "kpar",
            Strategy::TGemm => "tgemm",
        }
    }

    /// Parse a [`Strategy::tag`] back.
    pub fn from_tag(s: &str) -> Result<Strategy, String> {
        Strategy::ALL
            .into_iter()
            .find(|x| x.tag() == s)
            .ok_or_else(|| format!("unknown strategy {s:?}"))
    }
}

/// Snapshot of a context's tuning and catalog counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TuningStats {
    /// [`FtImm::tune`] invocations over this context's lifetime.
    pub plans_tuned: u64,
    /// Tunes that adopted a bit-safe variant over the default pick.
    pub variants_adopted: u64,
    /// Whether a plan catalog has been loaded into this context.
    pub catalog_attached: bool,
    /// Plans served from an entry a loaded catalog supplied.
    pub catalog_hits: u64,
    /// Plans served neither from a tuned or loaded entry nor from the
    /// plan cache while a catalog was attached (shapes the catalog did
    /// not cover).
    pub catalog_misses: u64,
    /// Catalog entries quarantined during loads: corrupt ones, and
    /// entries whose plan does not fit this context's hardware.
    pub quarantined: u64,
}

/// Tuning state carried by a context: tuned plans pending catalog
/// persistence, and catalog bookkeeping.  Every per-job operation on it
/// is a keyed lookup, so its cost does not grow with how many shapes the
/// context has tuned.  Nothing in it feeds back into a tune.
#[derive(Debug, Default)]
struct TuningState {
    /// Tuned and catalog-loaded plans, one per key, in the order their
    /// keys were first tuned or loaded, each flagged if an attached
    /// catalog supplied its key (catalog-hit attribution).  The one copy
    /// of each such plan: [`FtImm::plan_full`] serves from here before
    /// the plan cache, which never holds them.
    tuned: Mutex<PlanTable>,
    catalog_attached: AtomicBool,
    catalog_hits: AtomicU64,
    catalog_misses: AtomicU64,
    plans_tuned: AtomicU64,
    variants_adopted: AtomicU64,
    quarantined: AtomicU64,
}

/// Lock the tuned plans, recovering from poisoning: every entry is an
/// immutable [`Plan`] that is pushed or replaced whole (and a plan's
/// index entry is a step that cannot panic beside it), so what a
/// panicking thread left behind is still a valid state, and planning and
/// tuning carry on with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one timing walk depends on besides the context's [`HwConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WalkKey {
    shape: GemmShape,
    strategy: ChosenStrategy,
    cores: usize,
}

/// Bounded LRU memo of timing-walk seconds, `INFINITY` included.
type WalkCache = BoundedLru<WalkKey, f64>;

/// The ftIMM library context: a kernel cache and its host kernel executor
/// bound to a hardware configuration.
pub struct FtImm {
    cfg: HwConfig,
    /// Host-side kernel execution service: owns the shared kernel cache
    /// (each kernel carrying its host lowering); every host kernel
    /// invocation dispatches through it.
    exec: Arc<KernelExecutor>,
    /// Memo of resolved plans: repeated shapes plan by lookup, without
    /// re-running the cost model or the timing simulations.
    plan_cache: PlanCache,
    /// Memo of ranked multi-cluster placements
    /// ([`crate::plan::sharded`]): a repeated job is placed without a
    /// timing walk.
    placements: PlacementCache,
    /// Memo of timing walks ([`FtImm::predict_seconds`]): a candidate the
    /// planner, the tuner or the sharded planner has already priced is
    /// not walked again.
    walks: WalkCache,
    /// Timing walks run over this context's lifetime (memo hits run
    /// none).
    timing_simulations: AtomicU64,
    /// Timing walks that could not price their plan (capacity or
    /// generation limits) and returned `f64::INFINITY`.
    planning_failures: AtomicU64,
    /// Autotuner state: tuned plans and catalog counters (see
    /// [`FtImm::tune`] / [`FtImm::with_plan_catalog`]).
    tuning: TuningState,
}

impl FtImm {
    /// Create a context for the given hardware, with the default plan
    /// cache capacity.
    pub fn new(cfg: HwConfig) -> Self {
        FtImm::with_plan_cache_capacity(cfg, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Create a context with an explicit plan cache capacity (`0`
    /// disables plan, placement and timing-walk memoisation — every call
    /// plans from scratch).  The capacity bounds planned entries only:
    /// every tuned or catalog-loaded plan is served whatever it is, `0`
    /// included.
    pub fn with_plan_cache_capacity(cfg: HwConfig, capacity: usize) -> Self {
        FtImm::with_cache_capacities(cfg, capacity, DEFAULT_KERNEL_CACHE_CAPACITY)
    }

    /// Create a context with explicit plan-cache and kernel-cache
    /// capacities (`0` disables the respective memo; a disabled kernel
    /// cache regenerates — and re-lowers — every kernel on every lookup,
    /// but stays bit-identical).
    pub fn with_cache_capacities(
        cfg: HwConfig,
        plan_capacity: usize,
        kernel_capacity: usize,
    ) -> Self {
        let exec = Arc::new(KernelExecutor::new(Arc::new(KernelCache::with_capacity(
            cfg.clone(),
            kernel_capacity,
        ))));
        FtImm::over_executor(cfg, exec, plan_capacity)
    }

    /// A context over this one's kernel executor — its kernel cache,
    /// schedule memo and host lowerings — with everything else fresh, as
    /// [`FtImm::new`] makes it: plan cache, placements and walk memo at
    /// the default capacity, zeroed counters, no tuned plans and no
    /// catalog.  A kernel is a pure function of its spec and the
    /// [`HwConfig`], so what one context generates the other reuses, and
    /// no plan, walk, tune or counter crosses between them.
    pub fn sharing_kernels(&self) -> FtImm {
        FtImm::over_executor(
            self.cfg.clone(),
            Arc::clone(&self.exec),
            DEFAULT_PLAN_CACHE_CAPACITY,
        )
    }

    /// A context over `exec` with empty plan-level memos of
    /// `plan_capacity` entries.
    fn over_executor(cfg: HwConfig, exec: Arc<KernelExecutor>, plan_capacity: usize) -> Self {
        FtImm {
            exec,
            cfg,
            plan_cache: PlanCache::new(plan_capacity),
            placements: PlacementCache::new(plan_capacity),
            walks: WalkCache::new(plan_capacity),
            timing_simulations: AtomicU64::new(0),
            planning_failures: AtomicU64::new(0),
            tuning: TuningState::default(),
        }
    }

    /// Create a context warm-started from an on-disk plan catalog: every
    /// catalog plan that fits is attached, so [`FtImm::plan_full`]
    /// serves covered shapes with **zero** timing simulations.
    pub fn with_plan_catalog(cfg: HwConfig, path: &Path) -> Result<Self, String> {
        let ft = FtImm::new(cfg);
        ft.load_plan_catalog(path)?;
        Ok(ft)
    }

    /// The shared kernel cache.
    pub fn cache(&self) -> &KernelCache {
        self.exec.kernels()
    }

    /// The host kernel executor (hands out the lowering every `Compiled`
    /// kernel invocation runs).
    pub fn executor(&self) -> &KernelExecutor {
        &self.exec
    }

    /// Host-lowering counters ([`KernelExecutor::stats`]): hits are host
    /// invocations whose kernel was already lowered, misses are
    /// lowerings; the rest are the kernel cache's.
    pub fn executor_stats(&self) -> CacheStats {
        self.exec.stats()
    }

    /// The hardware configuration.
    pub fn cfg(&self) -> &HwConfig {
        &self.cfg
    }

    /// Hit/miss/eviction counters of the shared plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Timing walks run so far by [`FtImm::predict_seconds`] — for the
    /// planner, the tuner, the sharded planner or a caller.  A walk the
    /// context's memo answers runs nothing and counts nothing, and a warm
    /// plan cache keeps this flat: planning a cached shape walks nothing.
    pub fn timing_simulations(&self) -> u64 {
        self.timing_simulations.load(Ordering::Relaxed)
    }

    /// The placement memo of [`crate::plan::sharded`].
    pub(crate) fn placements(&self) -> &PlacementCache {
        &self.placements
    }

    /// Resolve a full [`Plan`] for a shape without running anything,
    /// memoised in the plan cache.
    ///
    /// A tuned or catalog-loaded plan for the key is served first (a
    /// catalog's counts as a catalog hit), then a plan-cache hit, both
    /// as-is — zero simulations.  Otherwise the [`Planner`] ranks the
    /// candidate space with the analytic cost model and evaluates only
    /// the short list on the timing model ([`FtImm::predict_seconds`]),
    /// and the plan cache keeps the result.
    pub fn plan_full(&self, shape: &GemmShape, strategy: Strategy, cores: usize) -> Plan {
        let key = PlanKey {
            shape: *shape,
            cores,
            strategy,
        };
        if let Some((plan, from_catalog)) = lock(&self.tuning.tuned).get(&key) {
            if from_catalog {
                self.tuning.catalog_hits.fetch_add(1, Ordering::Relaxed);
            }
            return plan;
        }
        if let Some(plan) = self.plan_cache.get(&key) {
            return plan;
        }
        if self.tuning.catalog_attached.load(Ordering::Relaxed) {
            self.tuning.catalog_misses.fetch_add(1, Ordering::Relaxed);
        }
        let plan = Planner::new(self.cache(), &self.cfg).plan(shape, strategy, cores, |cand| {
            self.predict_seconds(shape, cand, cores)
        });
        self.plan_cache.insert(key, plan);
        plan
    }

    /// Autotune a shape: search beyond the planner's candidates (bit-safe
    /// chunk variants, seeded random probes, neighborhood refinement) and
    /// install the tuned plan under the `Strategy::Auto` key so
    /// subsequent [`FtImm::plan_full`] / [`FtImm::gemm`] calls use it
    /// without re-planning, whatever the plan cache's capacity.
    ///
    /// Deterministic for a fixed [`TuneConfig::seed`], and independent of
    /// what the context tuned or loaded before.  The tuned plan is never
    /// predicted slower than the analytic pick (the default is always
    /// simulated first and the minimum wins).
    pub fn tune(&self, shape: &GemmShape, cores: usize, config: &TuneConfig) -> TuneOutcome {
        let tuner = Tuner::new(self.cache(), &self.cfg, *config);
        let outcome = tuner.tune(shape, cores, |cand| {
            self.predict_seconds(shape, cand, cores)
        });
        self.tuning.plans_tuned.fetch_add(1, Ordering::Relaxed);
        if outcome.adopted_variant {
            self.tuning.variants_adopted.fetch_add(1, Ordering::Relaxed);
        }
        let key = PlanKey {
            shape: *shape,
            cores,
            strategy: Strategy::Auto,
        };
        lock(&self.tuning.tuned).upsert(key, outcome.plan, false);
        outcome
    }

    /// [`FtImm::tune`] with the tuning time charged to the machine's
    /// profiler as a [`Phase::Tune`] span (host-side, like `Phase::Plan`:
    /// it shows up on the profile's `tuner` track and never counts
    /// toward core busy time).
    pub fn tune_on(
        &self,
        m: &mut Machine,
        shape: &GemmShape,
        cores: usize,
        config: &TuneConfig,
    ) -> TuneOutcome {
        let t0 = std::time::Instant::now();
        let outcome = self.tune(shape, cores, config);
        let dt = t0.elapsed().as_secs_f64();
        let now = m.elapsed();
        m.record_span(0, Phase::Tune, now, now + dt);
        outcome
    }

    /// Load an on-disk plan catalog into this context and start
    /// attributing planning to catalog hit/miss counters.  Corrupt
    /// entries are quarantined (see [`TuningStats::quarantined`]), not
    /// fatal; a refused document attaches nothing.  Returns the number of
    /// plans attached: every entry that fits this context's hardware,
    /// each served by [`FtImm::plan_full`] from then on, however large
    /// the catalog and whatever the plan cache's capacity.
    ///
    /// The document's plans are staged once, in a keyed table that is
    /// also the decode's duplicate-key check, and held once: a context
    /// holding no tuned plans yet takes the table itself as its tuned
    /// plans, and the plan cache holds none of them.
    pub fn load_plan_catalog(&self, path: &Path) -> Result<usize, String> {
        let (table, quarantined) = store::load_table(path)?;
        Ok(self.attach_table(table, quarantined))
    }

    /// Attach an already-parsed catalog (the body of
    /// [`FtImm::load_plan_catalog`]; exposed for fixture replay).  An
    /// entry whose plan does not fit this context's [`HwConfig`] — a
    /// catalog tuned on a larger machine, or edited by hand — is
    /// quarantined like a corrupt one and never served, and so is one
    /// whose plan's shape or cores disagree with its key (which a decoded
    /// catalog never holds).
    pub fn attach_catalog(&self, load: CatalogLoad) -> usize {
        let (table, refused) = PlanTable::of_catalog(load.catalog.entries);
        self.attach_table(table, load.quarantined + refused)
    }

    /// Attach a staged catalog table with `quarantined` entries already
    /// skipped.
    fn attach_table(&self, mut table: PlanTable, quarantined: usize) -> usize {
        let unfit = table.retain(|p| walk::fits(&self.cfg, &p.strategy, &p.shape, p.cores));
        let kept = table.iter().len();
        self.tuning
            .quarantined
            .fetch_add((quarantined + unfit) as u64, Ordering::Relaxed);
        lock(&self.tuning.tuned).merge(table);
        self.tuning.catalog_attached.store(true, Ordering::Relaxed);
        kept
    }

    /// Persist every tuned plan this context holds (including
    /// catalog-loaded ones, so load → tune → save accumulates) as an
    /// `ftimm-plan-catalog-v2` document at `path`, streamed to the file
    /// one entry at a time.
    pub fn save_plan_catalog(&self, path: &Path) -> Result<(), String> {
        // Written from the locked state: the tuned plans are already one
        // per key.
        store::write_catalog(path, lock(&self.tuning.tuned).iter())
    }

    /// Tuning and catalog counters.
    pub fn tuning_stats(&self) -> TuningStats {
        TuningStats {
            plans_tuned: self.tuning.plans_tuned.load(Ordering::Relaxed),
            variants_adopted: self.tuning.variants_adopted.load(Ordering::Relaxed),
            catalog_attached: self.tuning.catalog_attached.load(Ordering::Relaxed),
            catalog_hits: self.tuning.catalog_hits.load(Ordering::Relaxed),
            catalog_misses: self.tuning.catalog_misses.load(Ordering::Relaxed),
            quarantined: self.tuning.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Resolve a strategy for a shape (without running anything): the
    /// [`ChosenStrategy`] of [`FtImm::plan_full`].
    pub fn plan(&self, shape: &GemmShape, strategy: Strategy, cores: usize) -> ChosenStrategy {
        self.plan_full(shape, strategy, cores).strategy
    }

    /// Predicted execution time of a plan on the timing model.
    ///
    /// The timing model refuses exactly what a functional run refuses,
    /// so a plan that cannot run at all — the problem does not fit the
    /// modelled DDR, the blocks overrun a scratchpad (the plan's
    /// [`crate::walk::Footprint`] does not fit), a kernel cannot be
    /// generated for its blocks, or the shape is invalid — predicts
    /// `f64::INFINITY` instead of a price, so candidate ranking discards
    /// it.  Any *other* failure is a planner bug: it trips a debug
    /// assertion (and still predicts `INFINITY` in release builds).  Both
    /// cases tick [`FtImm::planning_failures`].
    ///
    /// A walk depends only on the context's [`HwConfig`] and on (shape,
    /// plan, cores), so its result — `INFINITY` included — is memoised in
    /// a bounded LRU as large as the plan cache: a repeated candidate is
    /// answered without a walk and counted in neither
    /// [`FtImm::timing_simulations`] nor [`FtImm::planning_failures`].
    /// The memo's lock is not held across a walk.
    pub fn predict_seconds(&self, shape: &GemmShape, plan: &ChosenStrategy, cores: usize) -> f64 {
        let key = WalkKey {
            shape: *shape,
            strategy: *plan,
            cores,
        };
        if let Some(t) = self.walks.get(&key) {
            return t;
        }
        self.timing_simulations.fetch_add(1, Ordering::Relaxed);
        let t = self.walk_seconds(shape, plan, cores);
        self.walks.insert(key, t);
        t
    }

    /// Run one timing walk of `plan` on a fresh timing machine.
    fn walk_seconds(&self, shape: &GemmShape, plan: &ChosenStrategy, cores: usize) -> f64 {
        let mut m = Machine::new(self.cfg.clone(), ExecMode::Timing);
        if m.alive_cores() == 0 {
            let e = FtimmError::Invalid("the timing machine has no core".into());
            return self.note_planning_failure(&e);
        }
        let p = match GemmProblem::alloc(&mut m, shape.m, shape.n, shape.k) {
            Ok(p) => p,
            Err(e) => return self.note_planning_failure(&FtimmError::Sim(e)),
        };
        match crate::exec::run_resolved(self, &mut m, &p, plan, cores) {
            Ok(r) => r.seconds,
            Err(e) => self.note_planning_failure(&e),
        }
    }

    /// Count a failed plan evaluation; unexpected error kinds indicate a
    /// planner bug and assert in debug builds.
    fn note_planning_failure(&self, e: &FtimmError) -> f64 {
        let capacity = matches!(
            e,
            FtimmError::Invalid(_)
                | FtimmError::Gen(_)
                | FtimmError::Sim(SimError::AllocFailure { .. })
                | FtimmError::Sim(SimError::OutOfBounds { .. })
        );
        debug_assert!(capacity, "unexpected planning failure: {e}");
        self.planning_failures.fetch_add(1, Ordering::Relaxed);
        f64::INFINITY
    }

    /// How many timing walks have failed (and predicted `INFINITY`) over
    /// this context's lifetime; a memo hit on a failed walk runs none and
    /// counts none.
    pub fn planning_failures(&self) -> u64 {
        self.planning_failures.load(Ordering::Relaxed)
    }

    /// Execute a resolved plan: shorthand for
    /// `Executor::new(self).with_plan(*plan).cores(cores).run(m, p)`.
    pub fn run_plan(
        &self,
        m: &mut Machine,
        p: &GemmProblem,
        plan: &ChosenStrategy,
        cores: usize,
    ) -> Result<RunReport, FtimmError> {
        Executor::new(self).with_plan(*plan).cores(cores).run(m, p)
    }

    /// Execute a resolved plan under the resilience layer (ABFT-checked,
    /// retried on injected faults, degraded onto surviving cores):
    /// shorthand for [`FtImm::run_plan`]'s executor with
    /// [`Executor::resilient`]`(*rcfg)`.
    pub fn run_plan_resilient(
        &self,
        m: &mut Machine,
        p: &GemmProblem,
        plan: &ChosenStrategy,
        cores: usize,
        rcfg: &resilience::ResilienceConfig,
    ) -> Result<RunReport, FtimmError> {
        Executor::new(self)
            .with_plan(*plan)
            .cores(cores)
            .resilient(*rcfg)
            .run(m, p)
    }

    /// `C += A × B`: plan and execute in one call, returning the run
    /// report and the plan that was used — shorthand for
    /// `Executor::new(self).strategy(strategy).cores(cores).dispatch(m, p)`.
    pub fn gemm(
        &self,
        m: &mut Machine,
        p: &GemmProblem,
        strategy: Strategy,
        cores: usize,
    ) -> Result<(RunReport, Plan), FtimmError> {
        let run = Executor::new(self)
            .strategy(strategy)
            .cores(cores)
            .dispatch(m, p)?;
        Ok((run.result?, run.plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_mpar_for_type1_and_kpar_for_type2() {
        let ft = FtImm::new(HwConfig::default());
        let p1 = ft.plan(&GemmShape::new(1 << 16, 32, 32), Strategy::Rules, 8);
        assert!(matches!(p1, ChosenStrategy::MPar(_)));
        let p2 = ft.plan(&GemmShape::new(32, 32, 1 << 16), Strategy::Rules, 8);
        assert!(matches!(p2, ChosenStrategy::KPar(_)));
    }

    #[test]
    fn invalid_problems_are_rejected_up_front() {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = GemmProblem::alloc(&mut m, 8, 8, 8).unwrap();
        // C with the wrong shape: caught before any core runs.
        let bad = GemmProblem {
            a: p.a,
            b: p.b,
            c: p.c.view(0, 0, 4, 4),
        };
        let r = ft.run_plan(&mut m, &bad, &ChosenStrategy::TGemm, 4);
        assert!(matches!(r, Err(FtimmError::Invalid(_))), "got {r:?}");
        assert!(matches!(
            ft.gemm(&mut m, &bad, Strategy::Auto, 4),
            Err(FtimmError::Invalid(_))
        ));
    }

    #[test]
    fn impossible_plans_predict_infinity_and_are_counted() {
        let ft = FtImm::new(HwConfig::default());
        // A shape far beyond the modelled DDR partition cannot allocate.
        let huge = GemmShape::new(1 << 22, 1 << 22, 4);
        let plan = ChosenStrategy::TGemm;
        assert_eq!(ft.planning_failures(), 0);
        assert_eq!(ft.predict_seconds(&huge, &plan, 8), f64::INFINITY);
        assert_eq!(ft.planning_failures(), 1);
    }

    #[test]
    fn plans_that_overrun_a_scratchpad_predict_infinity() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(64, 64, 4096);
        // A double-buffered 12 × 1024 A_s needs 96 KiB of a 64 KiB SM.
        let sm_overrun = ChosenStrategy::KPar(crate::KparBlocks {
            m_g: 64,
            n_g: 64,
            m_a: 64,
            n_a: 64,
            k_a: 1024,
            m_s: 12,
        });
        assert!(!walk::fits(ft.cfg(), &sm_overrun, &shape, 8));
        assert_eq!(ft.predict_seconds(&shape, &sm_overrun, 8), f64::INFINITY);
        assert_eq!(ft.planning_failures(), 1);
        let auto = ft.plan_full(&shape, Strategy::Auto, 8);
        assert!(walk::fits(ft.cfg(), &auto.strategy, &shape, 8), "{auto:?}");
        assert!(ft.predict_seconds(&shape, &auto.strategy, 8).is_finite());
    }

    #[test]
    fn cached_auto_plans_skip_simulation() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(4096, 32, 256);
        let cold = ft.plan_full(&shape, Strategy::Auto, 8);
        assert!(cold.simulations > 0);
        let sims = ft.timing_simulations();
        assert!(sims >= u64::from(cold.simulations));
        let warm = ft.plan_full(&shape, Strategy::Auto, 8);
        assert_eq!(warm, cold, "cache returns the identical plan");
        assert_eq!(ft.timing_simulations(), sims, "warm plan simulates nothing");
        assert_eq!(ft.plan_cache_stats().hits, 1);
    }

    #[test]
    fn zero_capacity_context_replans_every_call() {
        let ft = FtImm::with_plan_cache_capacity(HwConfig::default(), 0);
        let shape = GemmShape::new(4096, 32, 256);
        let first = ft.plan_full(&shape, Strategy::Auto, 8);
        let sims = ft.timing_simulations();
        let second = ft.plan_full(&shape, Strategy::Auto, 8);
        assert_eq!(first, second, "planning is deterministic");
        assert!(ft.timing_simulations() > sims);
        assert_eq!(ft.plan_cache_stats().hits, 0);
    }

    #[test]
    fn tuned_plans_install_under_the_auto_key() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(4096, 32, 256);
        let outcome = ft.tune(&shape, 8, &crate::plan::TuneConfig::default());
        assert!(outcome.plan.simulated_s <= outcome.default_plan.simulated_s);
        assert_eq!(outcome.plan.origin, crate::plan::PlanOrigin::Tuned);
        let stats = ft.tuning_stats();
        assert_eq!(stats.plans_tuned, 1);
        assert!(!stats.catalog_attached);
        // The tuned plan now serves Auto requests with zero simulations.
        let sims = ft.timing_simulations();
        assert_eq!(ft.plan_full(&shape, Strategy::Auto, 8), outcome.plan);
        assert_eq!(ft.timing_simulations(), sims);
    }

    #[test]
    fn catalog_round_trip_warm_starts_a_fresh_context() {
        let path = std::env::temp_dir().join(format!("ftimm-api-cat-{}.json", std::process::id()));
        let shape = GemmShape::new(4096, 32, 256);
        let tuned = {
            let ft = FtImm::new(HwConfig::default());
            let outcome = ft.tune(&shape, 8, &crate::plan::TuneConfig::default());
            ft.save_plan_catalog(&path).unwrap();
            outcome.plan
        };
        let ft = FtImm::with_plan_catalog(HwConfig::default(), &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ft.plan_full(&shape, Strategy::Auto, 8), tuned);
        assert_eq!(ft.timing_simulations(), 0, "warm start simulates nothing");
        let stats = ft.tuning_stats();
        assert!(stats.catalog_attached);
        assert_eq!(stats.catalog_hits, 1);
        assert_eq!(stats.quarantined, 0);
        // A shape the catalog does not cover is a catalog miss.
        ft.plan_full(&GemmShape::new(64, 64, 64), Strategy::Auto, 4);
        assert_eq!(ft.tuning_stats().catalog_misses, 1);
    }

    #[test]
    fn a_kernel_sharing_context_shares_kernels_and_nothing_else() {
        let parent = FtImm::new(HwConfig::default());
        let child = parent.sharing_kernels();
        let catalog = |ft: &FtImm| {
            let path =
                std::env::temp_dir().join(format!("ftimm-api-sharing-{}.json", std::process::id()));
            ft.save_plan_catalog(&path).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            text
        };
        let config = crate::plan::TuneConfig::default();
        // The child tunes one shape, then the parent another: neither
        // tune shows in the other context.
        let legs = [
            (&child, &parent, GemmShape::new(4096, 32, 256)),
            (&parent, &child, GemmShape::new(64, 64, 4096)),
        ];
        for (tuner, other, shape) in legs {
            let before = (
                other.plan_cache_stats(),
                other.timing_simulations(),
                other.tuning_stats(),
                catalog(other),
            );
            let outcome = tuner.tune(&shape, 8, &config);
            assert_eq!(outcome.plan.origin, crate::plan::PlanOrigin::Tuned);
            let after = (
                other.plan_cache_stats(),
                other.timing_simulations(),
                other.tuning_stats(),
                catalog(other),
            );
            assert_eq!(after, before, "{shape}");
            let planned = other.plan_full(&shape, Strategy::Auto, 8);
            assert_eq!(planned.origin, crate::plan::PlanOrigin::CostModel);
        }
        // One kernel cache: generated through either, a hit through the
        // other.
        let spec = kernelgen::KernelSpec::new(5, 100, 24).unwrap();
        let s0 = child.cache().stats();
        parent.cache().get(spec).unwrap();
        let s1 = child.cache().stats();
        assert_eq!((s1.hits, s1.misses), (s0.hits, s0.misses + 1));
        child.cache().get(spec).unwrap();
        let s2 = parent.cache().stats();
        assert_eq!((s2.hits, s2.misses), (s1.hits + 1, s1.misses));
    }

    #[test]
    fn a_poisoned_tuning_lock_does_not_stop_planning_or_tuning() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(4096, 32, 256);
        ft.plan_full(&shape, Strategy::Auto, 8);
        // The catalog check on a plan-cache hit takes the lock too.
        ft.tuning.catalog_attached.store(true, Ordering::Relaxed);
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _held = lock(&ft.tuning.tuned);
                    panic!("a tuning client dies holding the lock");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(ft.tuning.tuned.is_poisoned());
        let cached = ft.plan_full(&shape, Strategy::Auto, 8);
        assert!(cached.simulated_s.is_finite());
        let outcome = ft.tune(&shape, 8, &crate::plan::TuneConfig::default());
        assert!(outcome.plan.simulated_s <= outcome.default_plan.simulated_s);
        let fresh = ft.plan_full(&GemmShape::new(64, 64, 64), Strategy::Auto, 4);
        assert!(fresh.simulated_s.is_finite());
        assert_eq!(ft.tuning_stats().plans_tuned, 1);
    }

    #[test]
    fn strategy_tags_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::from_tag(s.tag()).unwrap(), s);
        }
        assert!(Strategy::from_tag("vibes").is_err());
    }

    #[test]
    fn auto_plan_never_picks_a_slower_candidate() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(4096, 32, 4096);
        let auto = ft.plan(&shape, Strategy::Auto, 8);
        let t_auto = ft.predict_seconds(&shape, &auto, 8);
        for s in [Strategy::MPar, Strategy::KPar] {
            let forced = ft.plan(&shape, s, 8);
            let t = ft.predict_seconds(&shape, &forced, 8);
            assert!(t_auto <= t + 1e-12, "auto {t_auto}s slower than {s:?} {t}s");
        }
    }
}
