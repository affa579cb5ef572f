//! Deadline-aware resilient job engine.
//!
//! [`JobQueue`] admits GEMM and batched-GEMM jobs with optional per-job
//! deadlines and drains them through the resilience layer
//! ([`crate::resilience::run_resilient_full`]) on one simulated machine:
//!
//! * **Deadlines** arm the simulator watchdog for the job's budget on the
//!   *simulated* clock.  A job that passes its deadline is preempted at
//!   the next work-issue point and reported as
//!   [`JobOutcome::DeadlineExceeded`] together with its checkpoint
//!   progress — never retried (a deadline is a budget decision, not a
//!   fault).
//! * **Circuit breakers** guard each physical core.  A breaker counts the
//!   consecutive transient faults its core was implicated in (including
//!   faults a retry absorbed); after [`EngineConfig::breaker_threshold`]
//!   it *opens* and the core is routed around via the machine's
//!   logical→physical map.  After [`EngineConfig::breaker_cooldown_s`]
//!   simulated seconds the breaker *half-opens*: the next job first
//!   probes the suspect core alone with a small canary GEMM, and the
//!   breaker closes on success or re-opens on another fault.
//! * **Quarantine**: a job whose resilient run fails on two different
//!   core maps is poisoned ([`JobOutcome::Poisoned`]) — on a
//!   deterministic machine the same job and map always fail identically,
//!   so a failure that survives a map change is blamed on the job, not
//!   the cores.
//!
//! Everything is driven by the simulated clock, so engine behaviour —
//! which jobs trip deadlines, when breakers open and close — is exactly
//! reproducible for a given job sequence and fault plan.

use crate::plan::Plan;
use crate::resilience::ResilienceConfig;
use crate::{
    BatchReport, Executor, FtImm, FtimmError, GemmBatch, GemmProblem, GemmShape, Strategy,
};
use dspsim::{Machine, RunReport};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Consecutive transient faults implicating one physical core before
    /// its circuit breaker opens.
    pub breaker_threshold: u32,
    /// Simulated seconds an open breaker waits before half-opening for a
    /// canary probe.
    pub breaker_cooldown_s: f64,
    /// Core maps a failing job may try before it is poisoned.
    pub max_attempts: u32,
    /// Shape of the canary GEMM a half-open breaker probes its core with.
    pub canary: GemmShape,
    /// Hung-DMA budget armed alongside every job deadline (simulated
    /// seconds a single transfer may take before the watchdog calls it
    /// hung).  Infinite by default: only the fault plan's own timeout
    /// charge applies.
    pub dma_budget_s: f64,
    /// Recovery configuration for each job's resilient run.
    pub resilience: ResilienceConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            breaker_threshold: 3,
            breaker_cooldown_s: 1e-3,
            max_attempts: 2,
            canary: GemmShape::new(8, 8, 8),
            dma_budget_s: f64::INFINITY,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Engine-assigned job identifier (submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// What a job runs.
enum JobSpec {
    /// A GEMM over matrices the caller has already allocated and
    /// uploaded on the machine.
    Gemm { problem: GemmProblem },
    /// A batched small GEMM staged from host buffers (see
    /// [`GemmBatch::run`] for the layout).
    Batch {
        batch: GemmBatch,
        elements: Vec<f32>,
        operator: Vec<f32>,
        out: Vec<f32>,
    },
}

/// A unit of work admitted to the [`JobQueue`].
pub struct Job {
    /// Simulated-seconds budget measured from the moment the job starts;
    /// `None` runs without a watchdog deadline.
    pub deadline_s: Option<f64>,
    /// Planning strategy for the run.
    pub strategy: Strategy,
    /// Cores requested (clamped to the healthy map at run time).
    pub cores: usize,
    spec: JobSpec,
}

impl Job {
    /// A GEMM job over an already-staged problem.
    pub fn gemm(problem: GemmProblem, strategy: Strategy, cores: usize) -> Self {
        Job {
            deadline_s: None,
            strategy,
            cores,
            spec: JobSpec::Gemm { problem },
        }
    }

    /// A batched-GEMM job staged from host buffers; `out` is the stacked
    /// accumulator and is returned (updated) in the job's outcome.
    pub fn batch(
        batch: GemmBatch,
        elements: Vec<f32>,
        operator: Vec<f32>,
        out: Vec<f32>,
        strategy: Strategy,
        cores: usize,
    ) -> Self {
        Job {
            deadline_s: None,
            strategy,
            cores,
            spec: JobSpec::Batch {
                batch,
                elements,
                operator,
                out,
            },
        }
    }

    /// Set the job's deadline (simulated seconds from job start).
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline_s = Some(seconds);
        self
    }
}

/// Terminal state of one job.
#[derive(Debug)]
pub enum JobOutcome {
    /// The run finished (possibly after absorbed faults — see
    /// `report.faults`).  `out` carries the updated accumulator for batch
    /// jobs, `batch` their per-element statistics.
    Completed {
        /// The resilient run's report.
        report: Box<RunReport>,
        /// The plan the engine resolved for the final attempt.
        plan: Plan,
        /// Updated stacked accumulator (batch jobs only).
        out: Option<Vec<f32>>,
        /// Batch statistics (batch jobs only).
        batch: Option<Box<BatchReport>>,
    },
    /// The watchdog preempted the job past its deadline.
    DeadlineExceeded {
        /// Simulated time the watchdog tripped.
        at: f64,
        /// `C` rows whose checkpoint had completed by then.
        rows_verified: usize,
        /// The job's total row count.
        rows_total: usize,
    },
    /// The job failed on ≥ 2 distinct core maps and is quarantined.
    Poisoned {
        /// Attempts consumed.
        attempts: u32,
        /// The core maps the attempts ran on.
        core_maps: Vec<Vec<usize>>,
        /// The final attempt's error.
        last_error: FtimmError,
    },
    /// The job cannot run at all (invalid problem, capacity, dead
    /// cluster) — retrying is pointless.
    Failed {
        /// The error.
        error: FtimmError,
    },
}

/// A drained job: its id, outcome and the core map of its final attempt.
#[derive(Debug)]
pub struct JobRecord {
    /// Engine-assigned id (submission order).
    pub id: JobId,
    /// Terminal state.
    pub outcome: JobOutcome,
    /// Physical cores the final attempt ran on.
    pub core_map: Vec<usize>,
}

/// Circuit-breaker state for one physical core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the core takes work; consecutive faults are counted.
    Closed,
    /// Tripped: the core is routed around until the cooldown expires.
    Open,
    /// Cooldown expired: the next job probes the core with a canary GEMM
    /// before it rejoins the map.
    HalfOpen,
}

/// Per-core breaker bookkeeping (simulated-clock driven).
///
/// Public so supervisors above [`JobQueue`] (the multi-cluster
/// [`crate::cluster::ShardedEngine`], property tests) can run the same
/// state machine per fault domain: Closed counts consecutive faults and
/// opens at a threshold, Open waits out a cooldown on the simulated
/// clock, HalfOpen admits one canary probe whose outcome either closes
/// or re-opens the breaker.
#[derive(Debug, Clone, Copy)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_faults: u32,
    opened_at: f64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new()
    }
}

impl CircuitBreaker {
    /// A fresh breaker: Closed with no faults on record.
    pub fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_faults: 0,
            opened_at: 0.0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive faults recorded since the last success (resets on
    /// [`CircuitBreaker::record_success`]).
    pub fn consecutive_faults(&self) -> u32 {
        self.consecutive_faults
    }

    /// The core was implicated in a transient fault at simulated `now`.
    pub fn record_fault(&mut self, threshold: u32, now: f64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_faults += 1;
                if self.consecutive_faults >= threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                }
            }
            // A fault during the half-open probe re-opens immediately.
            BreakerState::HalfOpen | BreakerState::Open => {
                self.state = BreakerState::Open;
                self.opened_at = now;
            }
        }
    }

    /// The core completed work without a fault.
    pub fn record_success(&mut self) {
        self.consecutive_faults = 0;
        self.state = BreakerState::Closed;
    }

    /// Move Open → HalfOpen once the cooldown has elapsed.
    pub fn tick(&mut self, now: f64, cooldown_s: f64) {
        if self.state == BreakerState::Open && now - self.opened_at >= cooldown_s {
            self.state = BreakerState::HalfOpen;
        }
    }

    /// Whether the core may take regular work right now.
    pub fn admits_work(&self) -> bool {
        self.state == BreakerState::Closed
    }
}

/// A FIFO queue of jobs drained through the resilience layer with
/// deadlines, circuit breakers and poison quarantine.  See the module
/// docs for the model.
pub struct JobQueue {
    cfg: EngineConfig,
    jobs: Vec<(JobId, Job)>,
    next_id: u64,
    breakers: Vec<CircuitBreaker>,
}

impl JobQueue {
    /// An empty queue with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        JobQueue {
            cfg,
            jobs: Vec::new(),
            next_id: 0,
            breakers: Vec::new(),
        }
    }

    /// Admit a job; ids are assigned in submission order.
    pub fn submit(&mut self, job: Job) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.push((id, job));
        id
    }

    /// Jobs waiting to run.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Breaker state per physical core (empty before the first
    /// [`JobQueue::run_all`]).
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.breakers.iter().map(|b| b.state).collect()
    }

    /// Drain the queue in submission order on `m`, returning one record
    /// per job.  The machine's core map is left covering every alive,
    /// breaker-admitted core.
    pub fn run_all(&mut self, ft: &FtImm, m: &mut Machine) -> Vec<JobRecord> {
        if self.breakers.is_empty() {
            self.breakers = vec![CircuitBreaker::new(); m.cfg.cores_per_cluster];
        }
        let mut records = Vec::with_capacity(self.jobs.len());
        for (id, job) in std::mem::take(&mut self.jobs) {
            self.probe_half_open_breakers(ft, m);
            let (outcome, core_map) = self.run_job(ft, m, job);
            records.push(JobRecord {
                id,
                outcome,
                core_map,
            });
            self.restore_map(m, &[]);
        }
        records
    }

    /// Every alive physical core (failed cores drop out permanently).
    fn alive_phys(&self, m: &Machine) -> Vec<usize> {
        (0..m.cfg.cores_per_cluster)
            .filter(|&p| !m.is_core_failed(p))
            .collect()
    }

    /// Point the machine at every alive core whose breaker admits work,
    /// additionally excluding `exclude`.  Falls back to all alive cores
    /// when that would leave the map empty (degraded beats dead).
    /// Returns the map installed.
    fn restore_map(&self, m: &mut Machine, exclude: &[usize]) -> Vec<usize> {
        let alive = self.alive_phys(m);
        let healthy: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&p| self.breakers[p].admits_work() && !exclude.contains(&p))
            .collect();
        let map = if healthy.is_empty() { alive } else { healthy };
        if !map.is_empty() {
            m.set_core_map(&map);
        }
        map
    }

    /// Probe each half-open breaker with a canary GEMM on the suspect
    /// core alone: success closes the breaker, a fault re-opens it.
    fn probe_half_open_breakers(&mut self, ft: &FtImm, m: &mut Machine) {
        let now = m.elapsed();
        for b in &mut self.breakers {
            b.tick(now, self.cfg.breaker_cooldown_s);
        }
        for phys in 0..self.breakers.len() {
            if self.breakers[phys].state != BreakerState::HalfOpen || m.is_core_failed(phys) {
                continue;
            }
            m.set_core_map(&[phys]);
            match self.run_canary(ft, m) {
                Ok(()) => self.breakers[phys].record_success(),
                Err(e) => {
                    if let FtimmError::Sim(dspsim::SimError::CoreFailed { core, .. }) = &e {
                        m.retire_core(*core);
                    }
                    self.breakers[phys].record_fault(self.cfg.breaker_threshold, m.elapsed());
                }
            }
        }
        self.restore_map(m, &[]);
    }

    /// One canary GEMM on whatever map is installed.
    fn run_canary(&self, ft: &FtImm, m: &mut Machine) -> Result<(), FtimmError> {
        let s = self.cfg.canary;
        let p = GemmProblem::alloc(m, s.m, s.n, s.k)?;
        if m.mode.is_functional() {
            p.a.upload(m, &crate::reference::fill_matrix(s.m * s.k, 11))?;
            p.b.upload(m, &crate::reference::fill_matrix(s.k * s.n, 12))?;
            p.c.upload(m, &vec![0.0; s.m * s.n])?;
        }
        ft.gemm(m, &p, Strategy::Rules, 1).map(|_| ())
    }

    /// Run one job to a terminal outcome.
    fn run_job(&mut self, ft: &FtImm, m: &mut Machine, job: Job) -> (JobOutcome, Vec<usize>) {
        // Snapshot the accumulator so a later attempt restarts from clean
        // state even if a failed attempt left C partially updated.
        let (problem, c0) = match &job.spec {
            JobSpec::Gemm { problem } => {
                let c0 = if m.mode.is_functional() {
                    match problem.c.download(m) {
                        Ok(v) => Some(v),
                        Err(e) => return (JobOutcome::Failed { error: e.into() }, Vec::new()),
                    }
                } else {
                    None
                };
                (Some(*problem), c0)
            }
            JobSpec::Batch { .. } => (None, None),
        };

        let mut exclude: Vec<usize> = Vec::new();
        let mut core_maps: Vec<Vec<usize>> = Vec::new();
        let mut attempt = 0u32;
        loop {
            let map = self.restore_map(m, &exclude);
            if map.is_empty() {
                let error = FtimmError::Invalid("no alive cores left in the cluster".into());
                return (JobOutcome::Failed { error }, map);
            }
            attempt += 1;

            // Stage this attempt's problem.
            let p = match &job.spec {
                JobSpec::Gemm { .. } => {
                    let p = problem.expect("gemm spec staged above");
                    if attempt > 1 {
                        if let Some(c0) = &c0 {
                            if let Err(e) = p.c.upload(m, c0) {
                                return (JobOutcome::Failed { error: e.into() }, map);
                            }
                        }
                    }
                    p
                }
                JobSpec::Batch {
                    batch,
                    elements,
                    operator,
                    out,
                    ..
                } => {
                    let shape = batch.flat_shape();
                    match Self::stage_batch(m, shape, elements, operator, out) {
                        Ok(p) => p,
                        Err(e) => return (JobOutcome::Failed { error: e }, map),
                    }
                }
            };

            // Plan and run this attempt through the shared executor: it
            // arms the watchdog for the job's budget, resolves the plan
            // and drives the resilient run.
            let run = match Executor::new(ft)
                .strategy(job.strategy)
                .cores(job.cores.clamp(1, map.len()))
                .resilient(self.cfg.resilience)
                .with_deadline(job.deadline_s)
                .dma_budget(self.cfg.dma_budget_s)
                .dispatch(m, &p)
            {
                Ok(run) => run,
                Err(error) => return (JobOutcome::Failed { error }, map),
            };
            let plan = run.plan;

            // Feed the breakers: implicated cores fault, the rest of the
            // map succeeded.  Breaker timestamps use the *healthy* cores'
            // clocks — a faulted core's clock is inflated by its hang
            // charges and would stall the cooldown once the core is
            // routed out of [`Machine::elapsed`]'s view.
            let now = map
                .iter()
                .filter(|p| !run.fault_cores.contains(p))
                .map(|&p| m.physical_time(p))
                .fold(0.0, f64::max);
            let now = if now > 0.0 { now } else { m.elapsed() };
            for &c in &run.fault_cores {
                self.breakers[c].record_fault(self.cfg.breaker_threshold, now);
            }
            if run.result.is_ok() {
                for &c in &map {
                    if !run.fault_cores.contains(&c) {
                        self.breakers[c].record_success();
                    }
                }
            }

            match run.result {
                Ok(report) => {
                    let (out, batch) = match job.spec {
                        JobSpec::Gemm { .. } => (None, None),
                        JobSpec::Batch { batch, mut out, .. } => {
                            if m.mode.is_functional() {
                                match p.c.download(m) {
                                    Ok(v) => out.copy_from_slice(&v),
                                    Err(e) => return (JobOutcome::Failed { error: e.into() }, map),
                                }
                            }
                            let br = BatchReport {
                                run: report,
                                plan,
                                faults: report.faults,
                                seconds_per_element: report.seconds / batch.count as f64,
                            };
                            (Some(out), Some(Box::new(br)))
                        }
                    };
                    return (
                        JobOutcome::Completed {
                            report: Box::new(report),
                            plan,
                            out,
                            batch,
                        },
                        map,
                    );
                }
                Err(e) if e.is_deadline() => {
                    let at = match &e {
                        FtimmError::Sim(dspsim::SimError::WatchdogTripped { at, .. }) => *at,
                        _ => now,
                    };
                    return (
                        JobOutcome::DeadlineExceeded {
                            at,
                            rows_verified: run.rows_verified,
                            rows_total: run.rows_total,
                        },
                        map,
                    );
                }
                Err(e) if e.is_transient_fault() => {
                    core_maps.push(map.clone());
                    // Route the next attempt around the implicated core
                    // even if its breaker has not opened yet.
                    if let Some(c) = e.implicated_core() {
                        if !exclude.contains(&c) {
                            exclude.push(c);
                        }
                    }
                    if attempt >= self.cfg.max_attempts {
                        return (
                            JobOutcome::Poisoned {
                                attempts: attempt,
                                core_maps,
                                last_error: e,
                            },
                            map,
                        );
                    }
                }
                Err(error) => return (JobOutcome::Failed { error }, map),
            }
        }
    }

    /// Allocate and upload a batch attempt's flat problem.
    fn stage_batch(
        m: &mut Machine,
        shape: GemmShape,
        elements: &[f32],
        operator: &[f32],
        out: &[f32],
    ) -> Result<GemmProblem, FtimmError> {
        let p = GemmProblem::alloc(m, shape.m, shape.n, shape.k)?;
        if m.mode.is_functional() {
            p.a.upload(m, elements)?;
            p.b.upload(m, operator)?;
            p.c.upload(m, out)?;
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fill_matrix;
    use dspsim::{DmaPath, ExecMode, FaultPlan, HwConfig};

    fn problem(m: &mut Machine, mm: usize, nn: usize, kk: usize) -> GemmProblem {
        let p = GemmProblem::alloc(m, mm, nn, kk).unwrap();
        p.a.upload(m, &fill_matrix(mm * kk, 1)).unwrap();
        p.b.upload(m, &fill_matrix(kk * nn, 2)).unwrap();
        p.c.upload(m, &fill_matrix(mm * nn, 3)).unwrap();
        p
    }

    #[test]
    fn a_clean_job_completes_and_leaves_breakers_closed() {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = problem(&mut m, 64, 24, 48);
        let mut q = JobQueue::new(EngineConfig::default());
        let id = q.submit(Job::gemm(p, Strategy::MPar, 4));
        let recs = q.run_all(&ft, &mut m);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, id);
        assert!(
            matches!(recs[0].outcome, JobOutcome::Completed { .. }),
            "got {:?}",
            recs[0].outcome
        );
        assert!(q
            .breaker_states()
            .iter()
            .all(|s| *s == BreakerState::Closed));
    }

    #[test]
    fn deadline_zero_preempts_immediately_and_reproducibly() {
        let run = |_: u64| {
            let ft = FtImm::new(HwConfig::default());
            let mut m = Machine::with_mode(ExecMode::Compiled);
            // Consume some simulated time first so the deadline is not
            // trivially at t = 0.
            let warm = problem(&mut m, 16, 8, 8);
            ft.gemm(&mut m, &warm, Strategy::Rules, 2).unwrap();
            let p = problem(&mut m, 64, 24, 48);
            let mut q = JobQueue::new(EngineConfig::default());
            q.submit(Job::gemm(p, Strategy::MPar, 4).with_deadline(0.0));
            let recs = q.run_all(&ft, &mut m);
            match &recs[0].outcome {
                JobOutcome::DeadlineExceeded { at, rows_total, .. } => {
                    assert_eq!(*rows_total, 64);
                    *at
                }
                o => panic!("expected deadline outcome, got {o:?}"),
            }
        };
        let a = run(0);
        let b = run(1);
        assert!(a > 0.0);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "deadline trip must be reproducible"
        );
    }

    #[test]
    fn a_batch_job_returns_its_accumulator() {
        let batch = GemmBatch::new(10, 8, 12, 4).unwrap();
        let shape = batch.flat_shape();
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let elements = fill_matrix(shape.m * shape.k, 1);
        let operator = fill_matrix(shape.k * shape.n, 2);
        let out = vec![0.0f32; shape.m * shape.n];

        // Oracle: the plain batch API on a fresh machine.
        let mut m2 = Machine::with_mode(ExecMode::Compiled);
        let mut want = vec![0.0f32; shape.m * shape.n];
        batch
            .run(
                &ft,
                &mut m2,
                &elements,
                &operator,
                &mut want,
                Strategy::Auto,
                4,
            )
            .unwrap();

        let mut q = JobQueue::new(EngineConfig::default());
        q.submit(Job::batch(
            batch,
            elements,
            operator,
            out,
            Strategy::Auto,
            4,
        ));
        let recs = q.run_all(&ft, &mut m);
        match &recs[0].outcome {
            JobOutcome::Completed {
                out: Some(got),
                batch: Some(br),
                ..
            } => {
                assert!(br.seconds_per_element > 0.0);
                assert_eq!(br.faults.injected(), 0);
                for (a, b) in want.iter().zip(got) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            o => panic!("expected completed batch, got {o:?}"),
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_recloses_via_canary_probe() {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        // Two DMA timeouts on the A-panel path: both absorbed by retries,
        // both implicating the same core (deterministic schedule).
        m.install_faults(
            &FaultPlan::new(7)
                .timeout_dma(DmaPath::DdrToAm, 1)
                .timeout_dma(DmaPath::DdrToAm, 2),
        );
        let cfg = EngineConfig {
            breaker_threshold: 2,
            // One DMA setup time is ~4e-7 s: the cooldown expires between
            // jobs but not within one.
            breaker_cooldown_s: 1e-7,
            ..EngineConfig::default()
        };
        let mut q = JobQueue::new(cfg);
        let p1 = problem(&mut m, 64, 24, 48);
        q.submit(Job::gemm(p1, Strategy::MPar, 4));
        let recs = q.run_all(&ft, &mut m);
        assert!(
            matches!(recs[0].outcome, JobOutcome::Completed { .. }),
            "faults should be absorbed, got {:?}",
            recs[0].outcome
        );
        let states = q.breaker_states();
        let opened: Vec<usize> = (0..states.len())
            .filter(|&i| states[i] == BreakerState::Open)
            .collect();
        assert_eq!(opened.len(), 1, "exactly one breaker open: {states:?}");
        let suspect = opened[0];

        // Second job: the cooldown (measured on the healthy cores'
        // clocks) has not elapsed yet, so the suspect stays routed out.
        let p2 = problem(&mut m, 64, 24, 48);
        q.submit(Job::gemm(p2, Strategy::MPar, 4));
        let recs = q.run_all(&ft, &mut m);
        assert!(matches!(recs[0].outcome, JobOutcome::Completed { .. }));
        assert!(
            !recs[0].core_map.contains(&suspect),
            "open core must be routed around: {:?}",
            recs[0].core_map
        );
        assert_eq!(q.breaker_states()[suspect], BreakerState::Open);

        // Third job: the second job advanced the healthy clocks past the
        // cooldown, the canary probe runs clean on the suspect core, and
        // the breaker closes again.
        let p3 = problem(&mut m, 64, 24, 48);
        q.submit(Job::gemm(p3, Strategy::MPar, 4));
        let recs = q.run_all(&ft, &mut m);
        assert!(matches!(recs[0].outcome, JobOutcome::Completed { .. }));
        assert_eq!(q.breaker_states()[suspect], BreakerState::Closed);
        assert!(
            recs[0].core_map.contains(&suspect),
            "re-closed core rejoins the map: {:?}",
            recs[0].core_map
        );
    }

    #[test]
    fn a_job_failing_on_two_maps_is_poisoned() {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        // More timeouts than the retry budget on every attempt: the job
        // fails on its first map, is re-tried on a map excluding the
        // implicated core, fails again and is quarantined.
        let mut plan = FaultPlan::new(21);
        for n in 1..=64 {
            plan = plan.timeout_dma(DmaPath::DdrToAm, n);
        }
        m.install_faults(&plan);
        let cfg = EngineConfig {
            resilience: ResilienceConfig {
                max_retries: 1,
                ..ResilienceConfig::default()
            },
            ..EngineConfig::default()
        };
        let mut q = JobQueue::new(cfg);
        let p = problem(&mut m, 64, 24, 48);
        q.submit(Job::gemm(p, Strategy::MPar, 4));
        let recs = q.run_all(&ft, &mut m);
        match &recs[0].outcome {
            JobOutcome::Poisoned {
                attempts,
                core_maps,
                ..
            } => {
                assert_eq!(*attempts, 2);
                assert_eq!(core_maps.len(), 2);
                assert_ne!(core_maps[0], core_maps[1], "distinct maps were tried");
            }
            o => panic!("expected poisoned job, got {o:?}"),
        }
    }
}
