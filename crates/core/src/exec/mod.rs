//! The executor: the one door that runs a GEMM problem staged on a
//! [`Machine`] (host buffers go through [`crate::ShardedEngine`]).  An
//! [`Executor`] carries the request — a [`Strategy`] or a pinned plan,
//! cores, resilience and profiling — and
//! [`Executor::dispatch`] runs it as:
//!
//! 1. **validate** — shared problem validation ([`validate_problem`]),
//!    and a machine with at least one live core;
//! 2. **plan** — resolve a [`Plan`] from the requested [`Strategy`]
//!    through the context's memoising plan cache and cost-model planner
//!    (or pin a pre-resolved strategy), which pulls generated
//!    micro-kernels through the shared [`kernelgen::KernelCache`];
//!    planning time is recorded as a [`dspsim::Phase::Plan`] span when
//!    profiling.  Tuned plans flow through the same path: an
//!    [`crate::FtImm::tune`] call (or a loaded plan catalog) installs
//!    its plan under the `Strategy::Auto` key of the context's tuned
//!    plans, which planning consults first, so the executor picks it up
//!    on the next dispatch with zero extra simulations
//!    (tuning time itself is a [`dspsim::Phase::Tune`] span, see
//!    [`crate::FtImm::tune_on`]);
//! 3. **run** — drive the strategy runner directly, or through the
//!    resilience layer (ABFT verify, bounded retries, checkpointing,
//!    degradation) when a [`ResilienceConfig`] is attached;
//! 4. **report** — aggregate the recorded phase spans into a
//!    [`dspsim::PhaseProfile`] (when profiling is on) and attach it to the
//!    [`RunReport`], together with the roofline prediction for the shape.
//!
//! Profiling reads the machine's clocks but never advances them, so a
//! profiled run is bit-exact with an unprofiled one (asserted by the
//! workspace `profiler` integration tests).

mod export;
mod profile;

use crate::plan::Plan;
use crate::resilience::{self, ResilienceConfig};
use crate::{
    kpar, mpar, tgemm, ChosenStrategy, FtImm, FtimmError, GemmProblem, GemmShape, Strategy,
};
use dspsim::{Machine, Phase, Profiler, RunReport, DEFAULT_PROFILE_CAPACITY};
pub use export::{
    chrome_trace_json, chrome_trace_json_clusters, chrome_trace_json_hetero, profile_json,
};

/// Validate a staged GEMM problem (dimension agreement between `A`, `B`
/// and `C`), lifting the matrix-level diagnostic into [`FtimmError`].
pub fn validate_problem(p: &GemmProblem) -> Result<(), FtimmError> {
    p.validate().map_err(FtimmError::Invalid)
}

/// Outcome of one [`Executor::dispatch`]: the run result plus the
/// recovery progress and raw profiler the higher layers need even when
/// the run fails mid-flight.
#[derive(Debug)]
pub struct ExecRun {
    /// The run report, or the terminal error of a run that started.
    pub result: Result<RunReport, FtimmError>,
    /// The plan the executor resolved (or, for a pre-resolved strategy,
    /// pinned).
    pub plan: Plan,
    /// `C` rows verified before the run ended (resilient runs; a plain
    /// successful run counts every row).
    pub rows_verified: usize,
    /// Physical cores implicated in transient faults, in occurrence
    /// order (resilient runs; circuit breakers feed on this).
    pub fault_cores: Vec<usize>,
    /// The raw span/event recording when profiling was on — kept even
    /// for failed runs so traces of faulty runs can be exported.
    pub profiler: Option<Profiler>,
}

/// One request to run a staged problem on an [`FtImm`] context, set
/// through the builder methods; [`Executor::new`]'s defaults are a plain
/// `Strategy::Auto` run on 8 cores.  Cheap to build per call; see the
/// module docs for the layering.
#[derive(Clone, Copy)]
pub struct Executor<'a> {
    ft: &'a FtImm,
    /// Planning strategy (ignored when `plan` is set).
    strategy: Strategy,
    /// Pre-resolved plan, skipping the planning layer.
    plan: Option<ChosenStrategy>,
    /// Cores requested (clamped to the machine's live cores).
    cores: usize,
    resilience: Option<ResilienceConfig>,
    profile: bool,
}

impl<'a> Executor<'a> {
    /// An executor with default options (plain `Strategy::Auto` run).
    pub fn new(ft: &'a FtImm) -> Self {
        Executor {
            ft,
            strategy: Strategy::Auto,
            plan: None,
            cores: 8,
            resilience: None,
            profile: false,
        }
    }

    /// Set the planning strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Use a pre-resolved plan, skipping the planning layer.
    pub fn with_plan(mut self, plan: ChosenStrategy) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Set the requested core count.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Run through the resilience layer.
    pub fn resilient(mut self, rcfg: ResilienceConfig) -> Self {
        self.resilience = Some(rcfg);
        self
    }

    /// Record phase spans (in a ring of [`DEFAULT_PROFILE_CAPACITY`]) and
    /// attach a [`dspsim::PhaseProfile`] to the report.
    pub fn profiled(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Validate and dispatch.  `Err` means the request was refused before
    /// anything ran — an invalid problem, or a machine with no live core;
    /// an error of a run that *started* is carried inside
    /// [`ExecRun::result`] together with its progress.
    pub fn dispatch(&self, m: &mut Machine, p: &GemmProblem) -> Result<ExecRun, FtimmError> {
        validate_problem(p)?;
        if m.alive_cores() == 0 {
            return Err(FtimmError::Invalid("the machine has no live core".into()));
        }
        Ok(self.dispatch_unchecked(m, p))
    }

    /// [`Executor::dispatch`] flattened to the run report.
    pub fn run(&self, m: &mut Machine, p: &GemmProblem) -> Result<RunReport, FtimmError> {
        self.dispatch(m, p).and_then(|run| run.result)
    }

    /// The pipeline after validation: plan → run → report.
    fn dispatch_unchecked(&self, m: &mut Machine, p: &GemmProblem) -> ExecRun {
        if self.profile {
            m.profile_begin(DEFAULT_PROFILE_CAPACITY);
        }
        let shape = GemmShape::new(p.m(), p.n(), p.k());
        let plan_t0 = std::time::Instant::now();
        let plan = match self.plan {
            Some(strategy) => Plan::pinned(shape, self.cores, strategy),
            None => self.ft.plan_full(&shape, self.strategy, self.cores),
        };
        if self.profile {
            // Host wall-clock planning time, anchored at the current
            // simulated instant.  `Phase::Plan` spans are excluded from
            // the profile's busy/window accounting, so recording one
            // keeps a profiled run bit-exact with an unprofiled one.
            let dt = plan_t0.elapsed().as_secs_f64();
            let now = m.elapsed();
            m.record_span(0, Phase::Plan, now, now + dt);
        }

        let (result, rows_verified, fault_cores) = match &self.resilience {
            None => {
                let r = run_resolved(self.ft, m, p, &plan.strategy, self.cores);
                let verified = if r.is_ok() { p.m() } else { 0 };
                (r, verified, Vec::new())
            }
            Some(rcfg) => resilience::run(self.ft, m, p, &plan.strategy, self.cores, rcfg),
        };

        let profiler = self.profile.then(|| m.profile_end());
        let result = result.map(|mut rep| {
            if let Some(pr) = &profiler {
                rep.profile = Some(profile::finish(self.ft, &shape, pr, &rep));
            }
            rep
        });
        ExecRun {
            result,
            plan,
            rows_verified,
            fault_cores,
            profiler,
        }
    }
}

/// Drive the strategy runner a resolved plan names on `cores` cores,
/// clamped to the machine's live cores and the cluster.  The single
/// place the plan → runner fan-out lives; `p` must be valid (every
/// caller holds a validated problem, a row span of one, or a fresh
/// allocation).
pub(crate) fn run_resolved(
    ft: &FtImm,
    m: &mut Machine,
    p: &GemmProblem,
    plan: &ChosenStrategy,
    cores: usize,
) -> Result<RunReport, FtimmError> {
    let cores = live_cores(m, cores);
    match plan {
        ChosenStrategy::MPar(bl) => mpar::run_mpar(m, ft.executor(), p, bl, cores),
        ChosenStrategy::KPar(bl) => kpar::run_kpar(m, ft.executor(), p, bl, cores),
        ChosenStrategy::TGemm => tgemm::run_tgemm(m, ft.executor(), p, cores),
    }
}

/// The cores a run of `cores` requested cores uses: at least one, at
/// most the machine's live cores and the cluster's.
pub(crate) fn live_cores(m: &Machine, cores: usize) -> usize {
    cores.clamp(1, m.alive_cores().min(m.cfg.cores_per_cluster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::{ExecMode, HwConfig};

    #[test]
    fn problem_validation_reports_shape_mismatches() {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = GemmProblem::alloc(&mut m, 8, 8, 8).unwrap();
        assert!(validate_problem(&p).is_ok());
        let bad = GemmProblem {
            a: p.a,
            b: p.b,
            c: p.c.view(0, 0, 4, 4),
        };
        assert!(matches!(
            validate_problem(&bad),
            Err(FtimmError::Invalid(_))
        ));
    }

    /// A machine whose every core is retired, and one built with no core
    /// at all, are refused with a typed error before anything plans or
    /// runs — through the plain and the resilient door alike.
    #[test]
    fn a_machine_with_no_live_core_is_refused() {
        fn refused(r: Result<RunReport, FtimmError>) {
            assert!(
                matches!(&r, Err(FtimmError::Invalid(s)) if s.contains("no live core")),
                "got {r:?}"
            );
        }
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = GemmProblem::alloc(&mut m, 64, 24, 48).unwrap();
        for core in 0..m.cfg.cores_per_cluster {
            m.retire_core(core);
        }
        refused(ft.gemm(&mut m, &p, Strategy::Auto, 8).map(|(r, _)| r));
        let rcfg = ResilienceConfig::default();
        refused(ft.run_plan_resilient(&mut m, &p, &ChosenStrategy::TGemm, 8, &rcfg));

        let cfg = HwConfig {
            cores_per_cluster: 0,
            ..HwConfig::default()
        };
        let ft = FtImm::new(cfg.clone());
        let mut m = Machine::new(cfg, ExecMode::Compiled);
        let p = GemmProblem::alloc(&mut m, 64, 24, 48).unwrap();
        refused(ft.gemm(&mut m, &p, Strategy::Auto, 8).map(|(r, _)| r));
        assert_eq!(ft.timing_simulations(), 0, "refused before planning");
    }

    /// Planning for a cluster with no core returns a plan (single- and
    /// multi-cluster alike) instead of panicking; running that plan on
    /// such a machine is still refused with a typed error.
    #[test]
    fn planning_for_a_zero_core_cluster_returns_and_its_run_is_refused() {
        let cfg = HwConfig {
            cores_per_cluster: 0,
            ..HwConfig::default()
        };
        let ft = FtImm::new(cfg.clone());
        let shape = GemmShape::new(64, 24, 48);
        for strategy in [
            Strategy::Auto,
            Strategy::Rules,
            Strategy::MPar,
            Strategy::KPar,
            Strategy::TGemm,
        ] {
            let plan = ft.plan_full(&shape, strategy, 8);
            crate::plan::sharded::plan_sharded(&ft, &shape, strategy, 8, &[0, 1], 16);
            let mut m = Machine::new(cfg.clone(), ExecMode::Compiled);
            let p = GemmProblem::alloc(&mut m, 64, 24, 48).unwrap();
            let run = Executor::new(&ft)
                .with_plan(plan.strategy)
                .cores(8)
                .dispatch(&mut m, &p);
            assert!(
                matches!(run, Err(FtimmError::Invalid(_))),
                "{strategy:?}: {run:?}"
            );
        }
    }
}
