//! The public ftIMM entry point.

use crate::plan::store::{self, CatalogLoad, PlanCatalog};
use crate::plan::tune::{Calibration, CalibrationRecord, TuneConfig, TuneOutcome, Tuner};
use crate::plan::{cache, Plan, PlanCache, PlanKey, Planner, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::{resilience, walk, ChosenStrategy, Executor, FtimmError, GemmProblem, GemmShape};
use dspsim::{ExecMode, HwConfig, Machine, Phase, RunReport, SimError};
use kernelgen::{CacheStats, KernelCache, KernelExecutor, DEFAULT_KERNEL_CACHE_CAPACITY};
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
    /// Calibration records held (tuner-observed plus catalog-loaded).
    pub calibration_records: u64,
    /// Whether a plan catalog has been loaded into this context.
    pub catalog_attached: bool,
    /// Plan-cache hits served by a catalog-preloaded entry.
    pub catalog_hits: u64,
    /// Plan-cache misses while a catalog was attached (shapes the
    /// catalog did not cover).
    pub catalog_misses: u64,
    /// Catalog entries/records quarantined during loads: corrupt ones,
    /// and entries whose plan does not fit this context's hardware.
    pub quarantined: u64,
}

/// Tuning state carried by a context: calibration records, tuned plans
/// pending catalog persistence, and catalog bookkeeping.
#[derive(Debug, Default)]
struct TuningState {
    records: Mutex<Vec<CalibrationRecord>>,
    tuned: Mutex<Vec<(PlanKey, Plan)>>,
    catalog_keys: Mutex<Vec<PlanKey>>,
    catalog_attached: AtomicBool,
    catalog_hits: AtomicU64,
    catalog_misses: AtomicU64,
    plans_tuned: AtomicU64,
    variants_adopted: AtomicU64,
    quarantined: AtomicU64,
}

/// Lock one part of the tuning state, recovering from poisoning: every
/// entry is an immutable [`Plan`], [`PlanKey`] or calibration record that
/// is pushed or replaced whole, so what a panicking thread left behind is
/// still a valid state, and planning and tuning carry on with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn upsert_plan(entries: &mut Vec<(PlanKey, Plan)>, key: PlanKey, plan: Plan) {
    match entries.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = plan,
        None => entries.push((key, plan)),
    }
}

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
    /// Timing-model candidate evaluations performed over this context's
    /// lifetime (cache hits perform none).
    timing_simulations: AtomicU64,
    /// Shapes the planner failed to evaluate (capacity or generation
    /// limits): each counted evaluation returned `f64::INFINITY`.
    planning_failures: AtomicU64,
    /// Autotuner state: calibration records, tuned plans and catalog
    /// counters (see [`FtImm::tune`] / [`FtImm::with_plan_catalog`]).
    tuning: TuningState,
}

impl FtImm {
    /// Create a context for the given hardware, with the default plan
    /// cache capacity.
    pub fn new(cfg: HwConfig) -> Self {
        FtImm::with_plan_cache_capacity(cfg, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Create a context with an explicit plan cache capacity (`0`
    /// disables plan memoisation — every call plans from scratch).
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
        FtImm {
            exec: Arc::new(KernelExecutor::new(Arc::new(KernelCache::with_capacity(
                cfg.clone(),
                kernel_capacity,
            )))),
            cfg,
            plan_cache: PlanCache::new(plan_capacity),
            timing_simulations: AtomicU64::new(0),
            planning_failures: AtomicU64::new(0),
            tuning: TuningState::default(),
        }
    }

    /// Create a context warm-started from an on-disk plan catalog: every
    /// catalog plan is preloaded into the plan cache, so
    /// [`FtImm::plan_full`] serves covered shapes with **zero** timing
    /// simulations, and the catalog's calibration records seed
    /// [`FtImm::calibration`].
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

    /// Hit/miss/eviction counters of the generated-kernel cache.
    pub fn kernel_cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }

    /// The hardware configuration.
    pub fn cfg(&self) -> &HwConfig {
        &self.cfg
    }

    /// Hit/miss/eviction counters of the shared plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Timing-model candidate evaluations performed so far.  A warm plan
    /// cache keeps this flat: planning a cached shape simulates nothing.
    pub fn timing_simulations(&self) -> u64 {
        self.timing_simulations.load(Ordering::Relaxed)
    }

    /// Resolve a full [`Plan`] for a shape without running anything,
    /// memoised in the plan cache.
    ///
    /// On a miss the [`Planner`] ranks the candidate space with the
    /// analytic cost model and evaluates only the short list on the
    /// timing model ([`FtImm::predict_seconds`]); on a hit the stored
    /// plan is returned as-is — zero simulations.
    pub fn plan_full(&self, shape: &GemmShape, strategy: Strategy, cores: usize) -> Plan {
        let key = PlanKey {
            shape: *shape,
            cores,
            strategy,
        };
        if let Some(plan) = self.plan_cache.get(&key) {
            if self.tuning.catalog_attached.load(Ordering::Relaxed)
                && lock(&self.tuning.catalog_keys).contains(&key)
            {
                self.tuning.catalog_hits.fetch_add(1, Ordering::Relaxed);
            }
            return plan;
        }
        if self.tuning.catalog_attached.load(Ordering::Relaxed) {
            self.tuning.catalog_misses.fetch_add(1, Ordering::Relaxed);
        }
        let plan = Planner::new(self.cache(), &self.cfg).plan(shape, strategy, cores, |cand| {
            self.timing_simulations.fetch_add(1, Ordering::Relaxed);
            self.predict_seconds(shape, cand, cores)
        });
        self.plan_cache.insert(key, plan);
        plan
    }

    /// Autotune a shape: search beyond the planner's candidates (bit-safe
    /// chunk variants, seeded random probes, neighborhood refinement),
    /// record every simulation as a calibration observation, and install
    /// the tuned plan under the `Strategy::Auto` cache key so subsequent
    /// [`FtImm::plan_full`] / [`FtImm::gemm`] calls use it without
    /// re-planning.
    ///
    /// Deterministic for a fixed [`TuneConfig::seed`] and context state.
    /// The tuned plan is never predicted slower than the analytic pick
    /// (the default is always simulated first and the minimum wins).
    ///
    /// With [`TuneConfig::coexec`] set, the CPU/DSP co-execution split
    /// is searched as well ([`crate::plan::choose_coexec_split`] against
    /// the tuned strategy) and the winning M tail is stamped into the
    /// installed plan's [`Plan::coexec_cpu_rows`] — a non-blocking
    /// dimension: the strategy's blocks are untouched, so no
    /// bit-signature gate applies, and the hint round-trips through the
    /// plan catalog like every other plan field.
    pub fn tune(&self, shape: &GemmShape, cores: usize, config: &TuneConfig) -> TuneOutcome {
        let calibration = self.calibration();
        let tuner = Tuner::new(self.cache(), &self.cfg, *config);
        let mut outcome = tuner.tune(shape, cores, &calibration, |cand, n| {
            self.timing_simulations.fetch_add(1, Ordering::Relaxed);
            self.predict_seconds(shape, cand, n)
        });
        lock(&self.tuning.records).extend(outcome.records.iter().copied());
        self.tuning.plans_tuned.fetch_add(1, Ordering::Relaxed);
        if outcome.adopted_variant {
            self.tuning.variants_adopted.fetch_add(1, Ordering::Relaxed);
        }
        let key = PlanKey {
            shape: *shape,
            cores,
            strategy: Strategy::Auto,
        };
        // Install first so the split search below pins the *tuned*
        // strategy when it consults the plan cache.
        self.plan_cache.insert(key, outcome.plan);
        if let Some(cx) = config.coexec {
            let choice = crate::plan::choose_coexec_split(
                self,
                shape,
                Strategy::Auto,
                cores,
                cx.clusters,
                cx.grain_rows,
                &cx.cpu,
                cx.slowdown,
            );
            outcome.plan.coexec_cpu_rows = choice.cpu_rows;
            self.plan_cache.insert(key, outcome.plan);
        }
        upsert_plan(&mut lock(&self.tuning.tuned), key, outcome.plan);
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

    /// The calibration fitted from every record this context holds
    /// (tuner-observed plus catalog-loaded).
    pub fn calibration(&self) -> Calibration {
        Calibration::fit(&lock(&self.tuning.records))
    }

    /// A copy of every calibration record this context holds.
    pub fn calibration_records(&self) -> Vec<CalibrationRecord> {
        lock(&self.tuning.records).clone()
    }

    /// Load an on-disk plan catalog into this context: preload the plan
    /// cache (evicting as plain inserts do), adopt the catalog's
    /// calibration records, and start attributing cache traffic to
    /// catalog hit/miss counters.  Corrupt entries are quarantined (see
    /// [`TuningStats::quarantined`]), not fatal.  Returns the number of
    /// plans preloaded.
    pub fn load_plan_catalog(&self, path: &Path) -> Result<usize, String> {
        let load = store::load_catalog(path)?;
        Ok(self.attach_catalog(load))
    }

    /// Attach an already-parsed catalog (the body of
    /// [`FtImm::load_plan_catalog`]; exposed for fixture replay).  An
    /// entry whose plan does not fit this context's [`HwConfig`] — a
    /// catalog tuned on a larger machine, or edited by hand — is
    /// quarantined like a corrupt one and never served.
    pub fn attach_catalog(&self, mut load: CatalogLoad) -> usize {
        let before = load.catalog.entries.len();
        load.catalog
            .entries
            .retain(|(_, p)| walk::fits(&self.cfg, &p.strategy, &p.shape, p.cores));
        let quarantined = load.quarantined + before - load.catalog.entries.len();
        let kept = cache::preload(&self.plan_cache, &load.catalog.entries);
        self.tuning
            .quarantined
            .fetch_add(quarantined as u64, Ordering::Relaxed);
        {
            let mut keys = lock(&self.tuning.catalog_keys);
            for (key, _) in &load.catalog.entries {
                if !keys.contains(key) {
                    keys.push(*key);
                }
            }
        }
        {
            let mut tuned = lock(&self.tuning.tuned);
            for (key, plan) in &load.catalog.entries {
                upsert_plan(&mut tuned, *key, *plan);
            }
        }
        lock(&self.tuning.records).extend(load.catalog.records.iter().copied());
        self.tuning.catalog_attached.store(true, Ordering::Relaxed);
        kept
    }

    /// Persist every tuned plan and calibration record this context
    /// holds (including catalog-loaded ones, so load → tune → save
    /// accumulates) as an `ftimm-plan-catalog-v1` document at `path`.
    pub fn save_plan_catalog(&self, path: &Path) -> Result<(), String> {
        let mut catalog = PlanCatalog::default();
        for (key, plan) in lock(&self.tuning.tuned).iter() {
            catalog.upsert(*key, *plan);
        }
        catalog.records = self.calibration_records();
        store::save_catalog(path, &catalog)
    }

    /// Tuning and catalog counters.
    pub fn tuning_stats(&self) -> TuningStats {
        TuningStats {
            plans_tuned: self.tuning.plans_tuned.load(Ordering::Relaxed),
            variants_adopted: self.tuning.variants_adopted.load(Ordering::Relaxed),
            calibration_records: lock(&self.tuning.records).len() as u64,
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
    pub fn predict_seconds(&self, shape: &GemmShape, plan: &ChosenStrategy, cores: usize) -> f64 {
        let mut m = Machine::new(self.cfg.clone(), ExecMode::Timing);
        let p = match GemmProblem::alloc(&mut m, shape.m, shape.n, shape.k) {
            Ok(p) => p,
            Err(e) => return self.note_planning_failure(&FtimmError::Sim(e)),
        };
        match self.run_plan(&mut m, &p, plan, cores) {
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

    /// How many plan evaluations have failed (and predicted `INFINITY`)
    /// over this context's lifetime.
    pub fn planning_failures(&self) -> u64 {
        self.planning_failures.load(Ordering::Relaxed)
    }

    /// Execute a resolved plan.
    pub fn run_plan(
        &self,
        m: &mut Machine,
        p: &GemmProblem,
        plan: &ChosenStrategy,
        cores: usize,
    ) -> Result<RunReport, FtimmError> {
        Executor::new(self).with_plan(*plan).cores(cores).run(m, p)
    }

    /// Execute a resolved plan under the resilience layer: ABFT-checked,
    /// retried on injected faults, degraded onto surviving cores.
    ///
    /// For job-level control on top of this — per-job deadlines, per-core
    /// circuit breakers, poison quarantine — submit work to a
    /// [`crate::engine::JobQueue`] instead.
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

    /// Plan and execute resiliently in one call (the fault-tolerant
    /// analogue of [`FtImm::gemm`]).
    pub fn gemm_resilient(
        &self,
        m: &mut Machine,
        p: &GemmProblem,
        strategy: Strategy,
        cores: usize,
        rcfg: &resilience::ResilienceConfig,
    ) -> Result<(RunReport, Plan), FtimmError> {
        let run = Executor::new(self)
            .strategy(strategy)
            .cores(cores)
            .resilient(*rcfg)
            .dispatch(m, p)?;
        Ok((run.result?, run.plan))
    }

    /// `C += A × B`: plan and execute in one call.  Returns the run
    /// report and the plan that was used.
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

    /// Run TGEMM (the baseline) regardless of shape.
    pub fn tgemm(
        &self,
        m: &mut Machine,
        p: &GemmProblem,
        cores: usize,
    ) -> Result<RunReport, FtimmError> {
        Executor::new(self)
            .with_plan(ChosenStrategy::TGemm)
            .cores(cores)
            .run(m, p)
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
        for r in [
            ft.run_plan(&mut m, &bad, &ChosenStrategy::TGemm, 4),
            ft.tgemm(&mut m, &bad, 4),
        ] {
            assert!(matches!(r, Err(FtimmError::Invalid(_))), "got {r:?}");
        }
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
        assert_eq!(stats.calibration_records, outcome.records.len() as u64);
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
        assert!(stats.calibration_records > 0);
        // A shape the catalog does not cover is a catalog miss.
        ft.plan_full(&GemmShape::new(64, 64, 64), Strategy::Auto, 4);
        assert_eq!(ft.tuning_stats().catalog_misses, 1);
    }

    #[test]
    fn tuning_stamps_a_coexec_hint_that_round_trips_the_catalog() {
        let path =
            std::env::temp_dir().join(format!("ftimm-api-coexec-{}.json", std::process::id()));
        // Table I type-1 with a partial last round: the regime where the
        // default CPU model takes a real M tail, so the tuned hint is a
        // genuine mixed split.
        let shape = GemmShape::new(50_000, 32, 32);
        let cx = crate::plan::CoexecTune::default();
        let cfg = crate::plan::TuneConfig {
            coexec: Some(cx),
            ..crate::plan::TuneConfig::default()
        };
        let tuned = {
            let ft = FtImm::new(HwConfig::default());
            let outcome = ft.tune(&shape, 8, &cfg);
            // The stamp equals a chooser run against the installed tuned
            // plan (tune installs before searching, so this is the same
            // pinned strategy).
            let choice = crate::plan::choose_coexec_split(
                &ft,
                &shape,
                Strategy::Auto,
                8,
                cx.clusters,
                cx.grain_rows,
                &cx.cpu,
                cx.slowdown,
            );
            assert_eq!(outcome.plan.coexec_cpu_rows, choice.cpu_rows);
            assert!(
                choice.cpu_rows > 0 && choice.cpu_rows < shape.m,
                "premise: this regime mixes, got {choice:?}"
            );
            // The split sits on the shard grain: the checkpoint grain
            // rounded up to whole units of the tuned plan's walk.
            let unit = crate::Walk::new(&outcome.plan.strategy, shape.m, 32, 32, 8)
                .grid()
                .unit;
            let grain = cx.grain_rows.div_ceil(unit) * unit;
            assert_eq!((shape.m - choice.cpu_rows) % grain, 0);
            ft.save_plan_catalog(&path).unwrap();
            outcome.plan
        };
        // A fresh context warm-started from the catalog serves the hint.
        let ft = FtImm::with_plan_catalog(HwConfig::default(), &path).unwrap();
        std::fs::remove_file(&path).ok();
        let warm = ft.plan_full(&shape, Strategy::Auto, 8);
        assert_eq!(warm, tuned);
        assert_eq!(warm.coexec_cpu_rows, tuned.coexec_cpu_rows);
        // plan_coexec honors the pinned split instead of re-searching.
        let sp = crate::plan::plan_coexec(
            &ft,
            &shape,
            Strategy::Auto,
            8,
            &[0, 1, 2, 3],
            cx.grain_rows,
            &cx.cpu,
            cx.slowdown,
        );
        let tail = sp.shards.last().unwrap();
        assert_eq!(tail.backend, dspsim::BackendKind::Cpu);
        assert_eq!(tail.rows(), tuned.coexec_cpu_rows);
    }

    #[test]
    fn a_poisoned_tuning_lock_does_not_stop_planning_or_tuning() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(4096, 32, 256);
        ft.plan_full(&shape, Strategy::Auto, 8);
        // The catalog check on a plan-cache hit takes the keys lock too.
        ft.tuning.catalog_attached.store(true, Ordering::Relaxed);
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _held = (
                        lock(&ft.tuning.records),
                        lock(&ft.tuning.tuned),
                        lock(&ft.tuning.catalog_keys),
                    );
                    panic!("a tuning client dies holding the locks");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(ft.tuning.records.is_poisoned());
        assert!(ft.tuning.tuned.is_poisoned());
        assert!(ft.tuning.catalog_keys.is_poisoned());
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
