//! The unified execution layer every GEMM entry point routes through.
//!
//! Before this layer existed, [`crate::FtImm`]'s plain and resilient
//! entry points, the job engine and the batch API each carried their own
//! copy of the validate → plan → watchdog → run sequence.  The
//! [`Executor`] owns that sequence once, layered as:
//!
//! 1. **validate** — shared problem validation ([`validate_problem`]);
//! 2. **plan** — resolve a [`Plan`] from the requested [`Strategy`]
//!    through the context's memoising plan cache and cost-model planner
//!    (or pin a pre-resolved strategy), which pulls generated
//!    micro-kernels through the shared [`kernelgen::KernelCache`];
//!    planning time is recorded as a [`dspsim::Phase::Plan`] span when
//!    profiling.  Tuned plans flow through the same path: an
//!    [`crate::FtImm::tune`] call (or a loaded plan catalog) installs
//!    its plan under the `Strategy::Auto` cache key, so the executor
//!    picks it up on the next dispatch with zero extra simulations
//!    (tuning time itself is a [`dspsim::Phase::Tune`] span, see
//!    [`crate::FtImm::tune_on`]);
//! 3. **guard** — arm the simulator watchdog for the caller's deadline,
//!    on the simulated clock;
//! 4. **run** — drive the strategy runner directly, or through the
//!    resilience layer (ABFT verify, bounded retries, checkpointing,
//!    degradation) when a [`ResilienceConfig`] is attached;
//! 5. **report** — aggregate the recorded phase spans into a
//!    [`dspsim::PhaseProfile`] (when profiling is on) and attach it to the
//!    [`RunReport`], together with the roofline prediction for the shape.
//!
//! Profiling reads the machine's clocks but never advances them, so a
//! profiled run is bit-exact with an unprofiled one (asserted by the
//! workspace `profiler` integration tests).

mod export;
mod profile;
mod validate;

pub use export::{
    chrome_trace_json, chrome_trace_json_clusters, chrome_trace_json_hetero, profile_from_json,
    profile_json,
};
pub use validate::{validate_batch_dims, validate_problem};

use crate::plan::Plan;
use crate::resilience::{run_resilient_full, ResilienceConfig};
use crate::{
    run_kpar, run_mpar, run_tgemm, ChosenStrategy, FtImm, FtimmError, GemmProblem, GemmShape,
    Strategy,
};
use dspsim::{Machine, Phase, Profiler, RunReport, WatchdogConfig, DEFAULT_PROFILE_CAPACITY};

/// Knobs for one executor dispatch.  Built through the [`Executor`]'s
/// setter methods; the defaults reproduce a plain `Strategy::Auto` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Planning strategy (ignored when [`ExecOptions::plan`] is set).
    pub strategy: Strategy,
    /// Pre-resolved plan, skipping the planning layer.
    pub plan: Option<ChosenStrategy>,
    /// Cores requested (each runner clamps to the machine's map).
    pub cores: usize,
    /// Run through the resilience layer with this configuration.
    pub resilience: Option<ResilienceConfig>,
    /// Watchdog deadline in simulated seconds from dispatch.
    pub deadline_s: Option<f64>,
    /// Record phase spans (in a ring of [`DEFAULT_PROFILE_CAPACITY`])
    /// and attach a [`dspsim::PhaseProfile`] to the report.
    pub profile: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            strategy: Strategy::Auto,
            plan: None,
            cores: 8,
            resilience: None,
            deadline_s: None,
            profile: false,
        }
    }
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
    /// The problem's M dimension.
    pub rows_total: usize,
    /// Physical cores implicated in transient faults, in occurrence
    /// order (resilient runs; circuit breakers feed on this).
    pub fault_cores: Vec<usize>,
    /// The raw span/event recording when profiling was on — kept even
    /// for failed runs so traces of faulty runs can be exported.
    pub profiler: Option<Profiler>,
}

impl ExecRun {
    /// The run report, discarding the progress bookkeeping.
    pub fn into_result(self) -> Result<RunReport, FtimmError> {
        self.result
    }
}

/// One configured dispatch pipeline over an [`FtImm`] context.  Cheap to
/// build per call; see the module docs for the layering.
#[derive(Clone, Copy)]
pub struct Executor<'a> {
    ft: &'a FtImm,
    opts: ExecOptions,
}

impl<'a> Executor<'a> {
    /// An executor with default options (plain `Strategy::Auto` run).
    pub fn new(ft: &'a FtImm) -> Self {
        Executor {
            ft,
            opts: ExecOptions::default(),
        }
    }

    /// The options this executor will dispatch with.
    pub fn opts(&self) -> &ExecOptions {
        &self.opts
    }

    /// Set the planning strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.opts.strategy = strategy;
        self
    }

    /// Use a pre-resolved plan, skipping the planning layer.
    pub fn with_plan(mut self, plan: ChosenStrategy) -> Self {
        self.opts.plan = Some(plan);
        self
    }

    /// Set the requested core count.
    pub fn cores(mut self, cores: usize) -> Self {
        self.opts.cores = cores;
        self
    }

    /// Run through the resilience layer.
    pub fn resilient(mut self, rcfg: ResilienceConfig) -> Self {
        self.opts.resilience = Some(rcfg);
        self
    }

    /// Arm a watchdog deadline (simulated seconds from dispatch); `None`
    /// leaves the deadline off.
    pub fn with_deadline(mut self, deadline_s: Option<f64>) -> Self {
        self.opts.deadline_s = deadline_s;
        self
    }

    /// Record phase spans and attach a [`dspsim::PhaseProfile`] to the
    /// report.
    pub fn profiled(mut self) -> Self {
        self.opts.profile = true;
        self
    }

    /// Validate and dispatch.  `Err` means the problem was rejected
    /// before anything ran; an error of a run that *started* is carried
    /// inside [`ExecRun::result`] together with its progress.
    pub fn dispatch(&self, m: &mut Machine, p: &GemmProblem) -> Result<ExecRun, FtimmError> {
        validate_problem(p)?;
        Ok(self.dispatch_unchecked(m, p))
    }

    /// Dispatch then flatten to the run report (the shape of the classic
    /// [`FtImm::run_plan`]-style entry points).
    pub fn run(&self, m: &mut Machine, p: &GemmProblem) -> Result<RunReport, FtimmError> {
        self.dispatch(m, p).and_then(ExecRun::into_result)
    }

    /// The pipeline after validation: guard → plan → run → report.
    fn dispatch_unchecked(&self, m: &mut Machine, p: &GemmProblem) -> ExecRun {
        if self.opts.profile {
            m.profile_begin(DEFAULT_PROFILE_CAPACITY);
        }
        // Arm the watchdog for the caller's deadline on the simulated
        // clock.  Planning below evaluates candidates on separate
        // machines, so the guard covers exactly the run.
        let armed = self.opts.deadline_s.is_some();
        if let Some(d) = self.opts.deadline_s {
            m.arm_watchdog(WatchdogConfig::with_deadline(m.elapsed() + d));
        }

        let shape = GemmShape::new(p.m(), p.n(), p.k());
        let plan_t0 = std::time::Instant::now();
        let plan = match self.opts.plan {
            Some(strategy) => Plan::pinned(shape, self.opts.cores, strategy),
            None => self
                .ft
                .plan_full(&shape, self.opts.strategy, self.opts.cores),
        };
        if self.opts.profile {
            // Host wall-clock planning time, anchored at the current
            // simulated instant.  `Phase::Plan` spans are excluded from
            // the profile's busy/window accounting, so recording one
            // keeps a profiled run bit-exact with an unprofiled one.
            let dt = plan_t0.elapsed().as_secs_f64();
            let now = m.elapsed();
            m.record_span(0, Phase::Plan, now, now + dt);
        }

        let (result, rows_verified, rows_total, fault_cores) = match &self.opts.resilience {
            None => {
                let r = run_resolved(self.ft, m, p, &plan.strategy, self.opts.cores);
                let verified = if r.is_ok() { p.m() } else { 0 };
                (r, verified, p.m(), Vec::new())
            }
            Some(rcfg) => {
                let run = run_resilient_full(self.ft, m, p, &plan.strategy, self.opts.cores, rcfg);
                (
                    run.result,
                    run.rows_verified,
                    run.rows_total,
                    run.fault_cores,
                )
            }
        };

        if armed {
            m.disarm_watchdog();
        }
        let profiler = self.opts.profile.then(|| m.profile_end());
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
            rows_total,
            fault_cores,
            profiler,
        }
    }
}

/// Drive the strategy runner a resolved plan names.  The single place
/// the plan → runner fan-out lives.
pub(crate) fn run_resolved(
    ft: &FtImm,
    m: &mut Machine,
    p: &GemmProblem,
    plan: &ChosenStrategy,
    cores: usize,
) -> Result<RunReport, FtimmError> {
    match plan {
        ChosenStrategy::MPar(bl) => run_mpar(m, ft.executor(), p, bl, cores),
        ChosenStrategy::KPar(bl) => run_kpar(m, ft.executor(), p, bl, cores),
        ChosenStrategy::TGemm => run_tgemm(m, ft.executor(), p, cores),
    }
}
