//! The sharded GEMM engine: multi-tenant jobs planned across a
//! [`ClusterPool`] with checkpointed shard failover.
//!
//! [`ShardedEngine`] is the crate's job engine: it runs jobs across N
//! cluster fault domains, N = 1 included.  Jobs are host-resident (`A`,
//! `B`, `C` live in host memory): each shard stages its stripe onto its
//! cluster's private DDR partition, runs through the resilience layer
//! with the *pinned* full-shape plan, and merges its verified rows back.
//! The pinned plan is the sharded planner's pick: `plan_full`'s strategy
//! or a variant of it with the same [`crate::BitSignature`], re-blocked
//! so that the pool's cores stay busy.  Pinning matters twice over:
//! replanning a shard's smaller sub-shape could pick blocks with another
//! signature, and resuming with a different core count would regroup the
//! K-parallel reduction — either would break the engine's core invariant
//! that the merged result is **bitwise identical** to a fault-free plain
//! single-cluster run of `plan_full`'s plan (shard boundaries are
//! quantised to the pinned walk's unit grid — see
//! [`crate::plan::sharded`] for why the grid, not the row split, is what
//! accumulation order depends on).
//!
//! **Failover.** A shard whose cluster dies mid-run
//! ([`dspsim::SimError::ClusterFailed`], injected via
//! [`dspsim::FaultPlan::kill_cluster`]) is not lost: the resilience
//! layer's row-span checkpoints mean the first `rows_verified` rows of
//! the stripe are complete and ABFT-verified in the dead cluster's DDR,
//! which outlives the cluster for host reads.  The engine salvages those
//! rows, marks the fault domain dead, and resumes the *remainder* of the
//! stripe on the best surviving cluster — same plan, same core count —
//! so recovery costs one partial stripe re-run, not the job.
//!
//! **Admission control.** Tenants carry priorities
//! ([`super::TenantSpec`]).  A job naming an unregistered tenant is
//! terminally rejected at submit; when capacity degrades (clusters die)
//! the queue is shed lowest-priority-first.  Every submitted [`JobId`]
//! reaches exactly one terminal [`ShardedOutcome`] — nothing is ever
//! silently dropped.

use super::health::{BreakerState, BREAKER_COOLDOWN_S};
use super::pool::ClusterPool;
use super::tenant::{TenantId, TenantSpec, TenantTable};
use crate::backend::{CpuBackend, CpuLaneOutcome, CpuStripeRun};
use crate::plan::sharded::{
    plan_coexec, plan_sharded, Shard, ShardOrigin, ShardedPlan, LAUNCH_OVERHEAD_S,
};
use crate::plan::Plan;
use crate::resilience::ResilienceConfig;
use crate::{ExecRun, Executor, FtImm, FtimmError, GemmProblem, GemmShape, Strategy};
use cpublas::CpuConfig;
use dspsim::{BackendKind, Profiler, DEFAULT_PROFILE_CAPACITY};
use std::collections::VecDeque;

/// Pseudo cluster index identifying the host CPU lane in shard
/// assignments, shard runs and failover events (the CPU is a device,
/// not a pool member; check [`BackendKind`] before treating an index as
/// a pool position).
pub const CPU_LANE: usize = usize::MAX;

/// When the sharded engine may route work to the host CPU backend —
/// either as a planned co-execution peer, or as the last fault domain
/// after every cluster is dead or unusable.
///
/// The CPU lane runs the *pinned* plan through the host mirror of the
/// DSP blocking walk ([`crate::backend::CpuBackend`]), so CPU-lane
/// output stays bitwise identical to an all-DSP run; the policy only
/// decides *whether* the lane may be used, never *how* results differ.
/// A CPU circuit breaker additionally gates the lane regardless of
/// policy: repeated transient CPU faults open it and CPU routing fails
/// fast until the cooldown half-opens it again (under [`CoExecute`](
/// SpillPolicy::CoExecute) an open breaker demotes plans back to
/// DSP-only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Never touch the CPU lane: jobs with no usable cluster fail or
    /// shed exactly as before the lane existed (the default).
    #[default]
    Never,
    /// Spill only when placement finds no usable cluster (every fault
    /// domain dead or degraded-out): whole jobs and mid-kill salvage
    /// remainders resume on the CPU instead of being shed.
    LastResort,
    /// Everything `LastResort` does, plus planned co-execution: jobs
    /// are placed by [`crate::plan::plan_coexec`], which may emit a
    /// CPU M-tail shard dispatched as a *peer* of the cluster shards
    /// from job start (the Fig. 7 crossover as a live decision).  A
    /// transient CPU fault demotes the co-executed remainder back to
    /// the DSP pool in-job, and an open CPU breaker demotes subsequent
    /// plans to DSP-only until the cooldown re-admits the lane.
    CoExecute,
}

/// Consecutive transient faults at which a core's (or the CPU lane's)
/// circuit breaker opens.
const BREAKER_THRESHOLD: u32 = 3;

/// Recovery knobs of the [`ShardedEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineConfig {
    /// Recovery configuration for each shard's resilient run.
    pub resilience: ResilienceConfig,
}

/// Engine-assigned job identifier (submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Tuning knobs for the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Recovery knobs.
    /// `engine.resilience.ckpt_rows` is the minimum of two grains: a
    /// shard's checkpoint spans (whole rounds of the walk; a dead shard
    /// resumes from its last completed span) and the shard boundaries
    /// (whole units of the walk, see [`crate::plan::sharded`]).  0
    /// disables checkpointing and forces single-shard plans, so
    /// [`ShardedConfig::default`] overrides the all-purpose
    /// [`EngineConfig::default`] with a non-zero grain.
    pub engine: EngineConfig,
    /// Queued jobs one usable cluster is expected to absorb; when the
    /// queue exceeds `usable_clusters × this`, lowest-priority jobs are
    /// shed (graceful degradation after cluster deaths).
    pub max_queue_per_cluster: usize,
    /// Record per-cluster profiles for Chrome-trace export (a ring of
    /// [`DEFAULT_PROFILE_CAPACITY`] spans per shard dispatch).
    pub profile: bool,
    /// When the CPU lane may absorb work (default: [`SpillPolicy::Never`],
    /// preserving the pure-DSP failure semantics).
    pub spill: SpillPolicy,
    /// The CPU model config: both the analytic cost model charged as
    /// simulated time and the spill-decision input.
    pub cpu: CpuConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            engine: EngineConfig {
                resilience: ResilienceConfig {
                    ckpt_rows: 64,
                    ..ResilienceConfig::default()
                },
            },
            max_queue_per_cluster: 64,
            profile: false,
            spill: SpillPolicy::Never,
            cpu: CpuConfig::default(),
        }
    }
}

/// A host-resident GEMM job: `C += A × B` with row-major dense buffers.
/// In timing mode the buffers may be empty (no data is touched).
pub struct ShardedJob {
    /// Rows of A/C.
    pub m: usize,
    /// Columns of B/C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Host A (`m × k`).
    pub a: Vec<f32>,
    /// Host B (`k × n`).
    pub b: Vec<f32>,
    /// Host C accumulator (`m × n`), updated in the outcome.
    pub c: Vec<f32>,
    /// Planning strategy.
    pub strategy: Strategy,
    /// Cores per cluster (kept constant across failover for bitwise
    /// identity).
    pub cores: usize,
}

impl ShardedJob {
    /// A functional job over host buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        m: usize,
        n: usize,
        k: usize,
        a: Vec<f32>,
        b: Vec<f32>,
        c: Vec<f32>,
        strategy: Strategy,
        cores: usize,
    ) -> Self {
        ShardedJob {
            m,
            n,
            k,
            a,
            b,
            c,
            strategy,
            cores,
        }
    }

    /// A data-free job for timing-mode pools (paper-scale sweeps).
    pub fn timing(m: usize, n: usize, k: usize, strategy: Strategy, cores: usize) -> Self {
        ShardedJob::gemm(m, n, k, Vec::new(), Vec::new(), Vec::new(), strategy, cores)
    }

    fn shape(&self) -> GemmShape {
        GemmShape::new(self.m, self.n, self.k)
    }
}

/// One shard dispatch that ran (possibly partially, if its cluster died).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardRun {
    /// Cluster the dispatch ran on ([`CPU_LANE`] for the CPU backend).
    pub cluster: usize,
    /// Device the dispatch ran on.
    pub backend: BackendKind,
    /// First C row covered.
    pub r0: usize,
    /// One past the last C row *completed* (on cluster death this is the
    /// salvage point, not the stripe end).
    pub r1: usize,
    /// Simulated seconds the dispatch occupied the cluster.
    pub seconds: f64,
}

/// A shard failover: where the stripe died and where it resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEvent {
    /// The cluster that died.
    pub from: usize,
    /// The surviving cluster the remainder resumed on ([`CPU_LANE`] when
    /// it spilled to the CPU backend).
    pub to: usize,
    /// Device the remainder resumed on.
    pub to_backend: BackendKind,
    /// First row of the resumed remainder (== salvage checkpoint).
    pub at_row: usize,
    /// Rows salvaged from the dead cluster's checkpointed DDR.
    pub rows_salvaged: usize,
    /// Rows re-staged and re-run on the surviving cluster.
    pub rows_resumed: usize,
}

/// Report of one completed sharded job.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The multi-device plan the job ran under.
    pub plan: ShardedPlan,
    /// Every shard dispatch, in execution order (failover remainders
    /// appear as extra entries).
    pub shard_runs: Vec<ShardRun>,
    /// Shard failovers absorbed by the job.
    pub failovers: Vec<FailoverEvent>,
    /// End-to-end simulated seconds: slowest cluster's busy time plus
    /// the serialised launch overhead per dispatch.
    pub seconds: f64,
    /// Useful flops of the whole problem.
    pub useful_flops: u64,
}

impl ShardedReport {
    /// Aggregate GFLOPS.
    pub fn gflops(&self) -> f64 {
        self.useful_flops as f64 / self.seconds / 1e9
    }
}

/// Terminal state of one sharded job.  Every submitted [`JobId`] gets
/// exactly one of these.
#[derive(Debug)]
pub enum ShardedOutcome {
    /// The job finished (possibly after absorbed faults and failovers);
    /// `c` is the merged accumulator, bitwise identical to a fault-free
    /// plain single-cluster run of the same plan.
    Completed {
        /// Updated host C.
        c: Vec<f32>,
        /// The run's report.
        report: Box<ShardedReport>,
    },
    /// Admission control refused the job at submit (unknown tenant).
    Rejected {
        /// Why.
        reason: String,
    },
    /// The job was shed from the queue under degraded capacity.
    Shed {
        /// The owning tenant's priority (lowest shed first).
        priority: u8,
        /// Why.
        reason: String,
    },
    /// The job cannot complete (invalid problem, or every cluster died).
    Failed {
        /// The error.
        error: FtimmError,
    },
}

impl ShardedOutcome {
    /// Stable lower-case label (reports, logs).
    pub fn label(&self) -> &'static str {
        match self {
            ShardedOutcome::Completed { .. } => "completed",
            ShardedOutcome::Rejected { .. } => "rejected",
            ShardedOutcome::Shed { .. } => "shed",
            ShardedOutcome::Failed { .. } => "failed",
        }
    }
}

impl From<FtimmError> for ShardedOutcome {
    fn from(error: FtimmError) -> Self {
        ShardedOutcome::Failed { error }
    }
}

/// A drained job: id, owning tenant and terminal outcome.
#[derive(Debug)]
pub struct ShardedRecord {
    /// Engine-assigned id (submission order).
    pub id: JobId,
    /// The tenant the job was submitted for.
    pub tenant: TenantId,
    /// Terminal state.
    pub outcome: ShardedOutcome,
}

/// The multi-cluster front end: admission control, cost-model shard
/// placement, health-aware scheduling and checkpointed failover over a
/// [`ClusterPool`].  See the module docs for the model.
pub struct ShardedEngine {
    pool: ClusterPool,
    cfg: ShardedConfig,
    tenants: TenantTable,
    queue: VecDeque<(JobId, TenantId, ShardedJob)>,
    records: Vec<ShardedRecord>,
    next_id: u64,
    profilers: Vec<Vec<Profiler>>,
    cpu: CpuBackend,
}

impl ShardedEngine {
    /// Build an engine over a pool.
    pub fn new(pool: ClusterPool, cfg: ShardedConfig) -> Self {
        let clusters = pool.len();
        // The CPU lane replays plans pinned for the pool's clusters, so
        // its host walk must clamp core counts the way those clusters do.
        let mut cpu =
            CpuBackend::new(cfg.cpu).with_dsp_cores(pool.node(0).machine.cfg.cores_per_cluster);
        if cfg.profile {
            cpu.enable_profiling(DEFAULT_PROFILE_CAPACITY);
        }
        ShardedEngine {
            pool,
            cfg,
            tenants: TenantTable::new(),
            queue: VecDeque::new(),
            records: Vec::new(),
            next_id: 0,
            profilers: vec![Vec::new(); clusters],
            cpu,
        }
    }

    /// The underlying pool (health, machines).
    pub fn pool(&self) -> &ClusterPool {
        &self.pool
    }

    /// The CPU lane (clock, dispatch count, breaker state).
    pub fn cpu(&self) -> &CpuBackend {
        &self.cpu
    }

    /// Number of stripe dispatches the CPU lane has absorbed.
    pub fn cpu_dispatches(&self) -> u64 {
        self.cpu.dispatches()
    }

    /// Install a fault plan into one cluster's fault domain.
    pub fn install_faults(&mut self, cluster: usize, plan: &dspsim::FaultPlan) {
        self.pool.install_faults(cluster, plan);
    }

    /// Arm the CPU lane's faults from a plan (slowdowns and transient
    /// span failures; see [`dspsim::FaultPlan::fail_cpu`]).
    pub fn install_cpu_faults(&mut self, plan: &dspsim::FaultPlan) {
        self.cpu.install_faults(plan);
    }

    /// Register a tenant.
    pub fn register_tenant(&mut self, spec: TenantSpec) -> TenantId {
        self.tenants.register(spec)
    }

    /// Submit a job on behalf of a tenant.  Always returns a fresh
    /// [`JobId`]; a job refused by admission control is recorded with a
    /// terminal [`ShardedOutcome::Rejected`] rather than dropped.
    pub fn submit(&mut self, tenant: TenantId, job: ShardedJob) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        match self.tenants.admit(tenant) {
            Ok(()) => self.queue.push_back((id, tenant, job)),
            Err(reason) => self.records.push(ShardedRecord {
                id,
                tenant,
                outcome: ShardedOutcome::Rejected { reason },
            }),
        }
        id
    }

    /// Per-cluster profiler recordings (one entry per shard dispatch)
    /// accumulated while [`ShardedConfig::profile`] is on; drained by
    /// the caller for Chrome-trace export.
    pub fn take_profilers(&mut self) -> Vec<Vec<Profiler>> {
        std::mem::replace(&mut self.profilers, vec![Vec::new(); self.pool.len()])
    }

    /// The CPU lane's profiler track (one [`dspsim::Phase::Compute`]
    /// span per checkpoint span run on the host), drained for dual-
    /// backend Chrome-trace export.  Re-arms recording if
    /// [`ShardedConfig::profile`] is on.
    pub fn take_cpu_profiler(&mut self) -> Profiler {
        let p = self.cpu.take_profiler();
        if self.cfg.profile {
            self.cpu.enable_profiling(DEFAULT_PROFILE_CAPACITY);
        }
        p
    }

    /// Drain everything recorded while [`ShardedConfig::profile`] was on
    /// into one heterogeneous Chrome trace: one process per cluster plus
    /// the CPU lane's process.  Under co-execution the CPU process shows
    /// compute spans from `t = 0` — the lane is a peer, not an
    /// afterthought appended to the cluster timeline.
    pub fn chrome_trace(&mut self) -> String {
        let clusters = self.take_profilers();
        let cpu = self.take_cpu_profiler();
        crate::exec::chrome_trace_json_hetero(&clusters, &cpu)
    }

    /// Drain the queue: run every queued job to a terminal outcome and
    /// return all records (including submit-time rejections) in id
    /// order.
    pub fn run_all(&mut self, ft: &FtImm) -> Vec<ShardedRecord> {
        loop {
            self.tick_breakers();
            self.shed_over_capacity();
            let Some((id, tenant, job)) = self.queue.pop_front() else {
                break;
            };
            let outcome = self.run_job(ft, tenant, job);
            self.records.push(ShardedRecord {
                id,
                tenant,
                outcome,
            });
        }
        let mut records = std::mem::take(&mut self.records);
        records.sort_by_key(|r| r.id);
        records
    }

    // ------------------------------------------------------------ internals

    /// Move open breakers towards half-open on each cluster's clock (and
    /// the CPU lane's breaker on the CPU clock).
    fn tick_breakers(&mut self) {
        for ci in 0..self.pool.len() {
            let node = self.pool.node_mut(ci);
            let now = node.machine.elapsed();
            for b in &mut node.breakers {
                b.tick(now, BREAKER_COOLDOWN_S);
            }
        }
        let now = self.cpu.elapsed();
        self.cpu.breaker_mut().tick(now, BREAKER_COOLDOWN_S);
    }

    /// Whether spill policy and the CPU breaker currently admit work on
    /// the CPU lane.  A half-open breaker admits one probe — the spilled
    /// dispatch itself is the canary: success closes the breaker,
    /// another fault re-opens it.
    fn spill_admits(&self) -> bool {
        self.cfg.spill != SpillPolicy::Never && self.cpu.breaker().state() != BreakerState::Open
    }

    /// Shed lowest-priority queued jobs while the queue exceeds the
    /// usable clusters' capacity.  Within one priority the most recently
    /// submitted job is shed first.
    fn shed_over_capacity(&mut self) {
        if self.pool.usable() == 0 {
            // No capacity to degrade towards: the drain loop fails the
            // remaining jobs terminally instead of shedding them.
            return;
        }
        let capacity = self.pool.usable() * self.cfg.max_queue_per_cluster;
        while self.queue.len() > capacity {
            // `min_by_key` keeps the first minimum it meets, so walking
            // the queue newest-first finds the most recent of the lowest.
            let lowest = self
                .queue
                .iter()
                .enumerate()
                .rev()
                .map(|(i, (_, t, _))| (i, self.tenants.priority(*t)))
                .min_by_key(|&(_, priority)| priority);
            let Some((idx, priority)) = lowest else {
                return;
            };
            let Some((id, tenant, _job)) = self.queue.remove(idx) else {
                return;
            };
            self.records.push(ShardedRecord {
                id,
                tenant,
                outcome: ShardedOutcome::Shed {
                    priority,
                    reason: format!(
                        "queue {} over capacity {} ({} usable clusters)",
                        self.queue.len() + 1,
                        capacity,
                        self.pool.usable()
                    ),
                },
            });
        }
    }

    /// Feed one shard dispatch's fault record into the cluster's
    /// breakers and health monitor.  The engine never shrinks a
    /// cluster's core map (that would regroup reductions and break
    /// bitwise identity); breakers here drive the *health* state,
    /// pushing placement away from distressed clusters.
    fn absorb(&mut self, ci: usize, exec: &ExecRun) {
        let node = self.pool.node_mut(ci);
        let now = node.machine.elapsed();
        for &core in &exec.fault_cores {
            if let Some(b) = node.breakers.get_mut(core) {
                b.record_fault(BREAKER_THRESHOLD, now);
            }
        }
        if exec.result.is_ok() {
            let map = node.machine.core_map().to_vec();
            for p in map {
                if !exec.fault_cores.contains(&p) {
                    node.breakers[p].record_success();
                }
            }
        }
        self.pool.observe(ci);
    }

    /// A transient fault on the CPU lane counts against its breaker.
    fn record_cpu_fault(&mut self) {
        let now = self.cpu.elapsed();
        self.cpu.breaker_mut().record_fault(BREAKER_THRESHOLD, now);
    }

    /// Reject a functional-mode job whose host buffers don't match its
    /// dimensions (timing-mode jobs are data-free by convention).
    fn validate(&self, job: &ShardedJob) -> Result<(), FtimmError> {
        let functional = self.pool.node(0).machine.mode.is_functional();
        if functional
            && (job.a.len() != job.m * job.k
                || job.b.len() != job.k * job.n
                || job.c.len() != job.m * job.n)
        {
            return Err(FtimmError::Invalid(format!(
                "host buffer sizes do not match {}x{}x{}",
                job.m, job.n, job.k
            )));
        }
        Ok(())
    }

    /// Where work goes when its device is lost: the best surviving
    /// cluster, else the CPU lane if [`Self::spill_admits`], else
    /// nowhere.
    fn failover_target(&self) -> Option<(usize, BackendKind)> {
        match self.pool.placement().first() {
            Some(&to) => Some((to, BackendKind::Dsp)),
            None => self.spill_admits().then_some((CPU_LANE, BackendKind::Cpu)),
        }
    }

    /// Choose the job's plan: which devices take which rows, and whether
    /// the CPU lane takes part.
    fn place(&self, ft: &FtImm, job: &ShardedJob) -> Result<ShardedPlan, FtimmError> {
        let placement = self.pool.placement();
        let spill = self.spill_admits();
        if placement.is_empty() && !spill {
            return Err(no_usable_clusters());
        }
        self.validate(job)?;
        let shape = job.shape();
        if placement.is_empty() {
            // Last fault domain: the whole job runs on the CPU lane
            // instead of failing terminally.  The plan is still pinned
            // through the shared LRU cache so a later all-DSP run of the
            // same shape stays bit-comparable.
            return Ok(self.cpu_only_plan(ft.plan_full(&shape, job.strategy, job.cores)));
        }
        let ckpt_rows = self.cfg.engine.resilience.ckpt_rows;
        Ok(if spill && self.cfg.spill == SpillPolicy::CoExecute {
            // The co-execution planner decides the CPU/DSP split from
            // both cost models; a tripped CPU breaker (or any other
            // policy) keeps planning DSP-only — the cross-job demotion
            // path.
            plan_coexec(
                ft,
                &shape,
                job.strategy,
                job.cores,
                &placement,
                ckpt_rows,
                &self.cfg.cpu,
                self.cpu.slowdown(),
            )
        } else {
            plan_sharded(ft, &shape, job.strategy, job.cores, &placement, ckpt_rows)
        })
    }

    /// Run one job to a terminal outcome: place it, dispatch its shards
    /// (a lost shard's remainder runs next, ahead of the queued ones),
    /// merge.
    fn run_job(&mut self, ft: &FtImm, tenant: TenantId, job: ShardedJob) -> ShardedOutcome {
        let splan = match self.place(ft, &job) {
            Ok(splan) => splan,
            Err(error) => return error.into(),
        };
        let mut work: VecDeque<Shard> = splan.shards.iter().copied().collect();
        let mut run = InFlight::new(job, tenant, splan, self.pool.len());
        while let Some(shard) = work.pop_front() {
            let step = match self.reroute(&mut run, shard) {
                Err(error) => Err(error.into()),
                Ok(shard) if shard.backend == BackendKind::Cpu => {
                    self.dispatch_cpu(ft, &mut run, shard)
                }
                Ok(shard) => self.dispatch_dsp(ft, &mut run, shard),
            };
            match step {
                Ok(None) => {}
                Ok(Some(rest)) => work.push_front(rest),
                Err(outcome) => return outcome,
            }
        }
        run.complete()
    }

    /// A queued DSP shard whose cluster died before dispatch is rerouted
    /// whole: to the best survivor, else the CPU lane.
    fn reroute(&self, run: &mut InFlight, shard: Shard) -> Result<Shard, FtimmError> {
        if shard.backend != BackendKind::Dsp || self.pool.health(shard.cluster).is_usable() {
            return Ok(shard);
        }
        match self.failover_target().ok_or_else(no_usable_clusters)? {
            (to, BackendKind::Dsp) => Ok(Shard {
                cluster: to,
                ..shard
            }),
            to => Ok(run.fail_over(shard.cluster, shard, shard.r0, to)),
        }
    }

    /// Dispatch one shard on the CPU lane.  `Ok(Some(_))` is a remainder
    /// to run next; `Err` ends the job.
    fn dispatch_cpu(
        &mut self,
        ft: &FtImm,
        run: &mut InFlight,
        shard: Shard,
    ) -> Result<Option<Shard>, ShardedOutcome> {
        let lane = self.run_cpu_stripe(ft, run, shard)?;
        if shard.origin == ShardOrigin::Planned {
            // A planned peer pays its own dispatch on its own timeline —
            // the same convention the co-execution cost model uses — so
            // the launch overlaps the cluster timeline instead of
            // serialising into it.
            run.cpu_peer_busy += lane.seconds + LAUNCH_OVERHEAD_S;
        } else {
            run.launches += 1;
            run.cpu_serial_busy += lane.seconds;
        }
        run.shard_runs.push(ShardRun {
            cluster: CPU_LANE,
            backend: BackendKind::Cpu,
            r0: shard.r0,
            r1: shard.r0 + lane.rows_verified,
            seconds: lane.seconds,
        });
        match lane.outcome {
            CpuLaneOutcome::Done => Ok(None),
            CpuLaneOutcome::Fault { nth } => {
                // A co-executed shard has somewhere to go: its unverified
                // remainder demotes back to the DSP pool, and the recorded
                // fault lets repeats trip the breaker and stop
                // co-execution cross-job.  A failover-origin CPU shard
                // was already the last fault domain: the job is shed.
                self.record_cpu_fault();
                let at_row = shard.r0 + lane.rows_verified;
                match self.failover_target() {
                    Some(to @ (_, BackendKind::Dsp)) if shard.origin == ShardOrigin::Planned => {
                        Ok(Some(run.fail_over(CPU_LANE, shard, at_row, to)))
                    }
                    _ => Err(self.shed_on_cpu_fault(run.tenant, nth, at_row)),
                }
            }
            // The engine gives the lane no deadline budget, so this stop
            // is a lane fault, never a completed shard.
            CpuLaneOutcome::Deadline { at } => Err(FtimmError::CpuFault(format!(
                "lane stopped on a deadline at {at:.6e}s with no budget set"
            ))
            .into()),
        }
    }

    /// Dispatch one shard on its cluster and merge the rows it verified.
    /// `Ok(Some(_))` is the remainder of a shard whose cluster died;
    /// `Err` ends the job.
    fn dispatch_dsp(
        &mut self,
        ft: &FtImm,
        run: &mut InFlight,
        shard: Shard,
    ) -> Result<Option<Shard>, ShardedOutcome> {
        run.launches += 1;
        let (mut exec, problem, dt) = self.run_shard(ft, run, shard)?;
        run.busy[shard.cluster] += dt;
        if let Some(prof) = exec.profiler.take() {
            self.profilers[shard.cluster].push(prof);
        }
        self.absorb(shard.cluster, &exec);
        let (rows, death) = match exec.result {
            Ok(_) => (shard.rows(), None),
            Err(e) if e.is_cluster_death() => {
                self.pool.mark_dead(shard.cluster);
                (exec.rows_verified.min(shard.rows()), Some(e))
            }
            Err(error) => return Err(error.into()),
        };
        let (m, n) = (&mut self.pool.node_mut(shard.cluster).machine, run.job.n);
        if m.mode.is_functional() && rows > 0 {
            // Merge the verified rows.  A dead cluster's DDR partition
            // outlives it, so its checkpointed rows are salvaged too.
            let out = &mut run.job.c[shard.r0 * n..(shard.r0 + rows) * n];
            let span = problem.c.view(0, 0, rows, n);
            span.download_into(m, out).map_err(FtimmError::from)?;
        }
        run.shard_runs.push(ShardRun {
            cluster: shard.cluster,
            backend: BackendKind::Dsp,
            r0: shard.r0,
            r1: shard.r0 + rows,
            seconds: dt,
        });
        // A cluster that died after its last span leaves nothing to
        // resume.
        let Some(error) = death.filter(|_| rows < shard.rows()) else {
            return Ok(None);
        };
        match self.failover_target() {
            Some(to) => Ok(Some(run.fail_over(
                shard.cluster,
                shard,
                shard.r0 + rows,
                to,
            ))),
            None => Err(error.into()),
        }
    }

    /// Stage and dispatch one shard on its cluster; returns the exec
    /// record, the staged problem (for salvage downloads) and the
    /// simulated seconds the dispatch occupied the cluster.
    fn run_shard(
        &mut self,
        ft: &FtImm,
        run: &InFlight,
        shard: Shard,
    ) -> Result<(ExecRun, GemmProblem, f64), FtimmError> {
        let cfg = self.cfg;
        let job = &run.job;
        let m = &mut self.pool.node_mut(shard.cluster).machine;
        let t0 = m.elapsed();
        m.ddr.reset_alloc();
        let problem = GemmProblem::alloc(m, shard.rows(), job.n, job.k)?;
        if m.mode.is_functional() {
            m.ddr.materialise_allocated();
            problem
                .a
                .upload(m, &job.a[shard.r0 * job.k..shard.r1 * job.k])?;
            problem.b.upload(m, &job.b)?;
            problem
                .c
                .upload(m, &job.c[shard.r0 * job.n..shard.r1 * job.n])?;
        }
        let mut ex = Executor::new(ft)
            .with_plan(run.splan.plan.strategy)
            .cores(job.cores)
            .resilient(cfg.engine.resilience);
        if cfg.profile {
            ex = ex.profiled();
        }
        let exec = ex.dispatch(m, &problem)?;
        let dt = m.elapsed() - t0;
        Ok((exec, problem, dt))
    }

    /// Dispatch a shard's rows on the CPU lane with the pinned strategy.
    /// Functional jobs compute in place into the job's C; timing jobs
    /// only charge model time (the backend's data-free convention).  A
    /// clean dispatch records success on the CPU breaker (inside the
    /// backend).
    fn run_cpu_stripe(
        &mut self,
        ft: &FtImm,
        run: &mut InFlight,
        shard: Shard,
    ) -> Result<CpuStripeRun, FtimmError> {
        let job = &mut run.job;
        let (n, k, r0, r1) = (job.n, job.k, shard.r0, shard.r1);
        let functional = self.pool.node(0).machine.mode.is_functional();
        let (a, b, c): (&[f32], &[f32], &mut [f32]) = if functional {
            (&job.a[r0 * k..r1 * k], &job.b, &mut job.c[r0 * n..r1 * n])
        } else {
            (&[], &[], &mut [])
        };
        self.cpu.run_stripe(
            ft.executor(),
            &run.splan.plan.strategy,
            job.cores,
            a,
            b,
            c,
            n,
            k,
            r1 - r0,
            self.cfg.engine.resilience.ckpt_rows,
            None,
        )
    }

    /// Terminal outcome for a transient CPU fault with nowhere further
    /// to fail over to: shed the job with a reason instead of retrying
    /// (retry policy belongs to the submitter).
    fn shed_on_cpu_fault(&self, tenant: TenantId, nth: u64, at_row: usize) -> ShardedOutcome {
        ShardedOutcome::Shed {
            priority: self.tenants.priority(tenant),
            reason: format!(
                "cpu backend fault (span {nth}) at row {at_row}: \
                 last fault domain, nothing left to fail over to"
            ),
        }
    }

    /// The plan of a job the CPU lane runs whole: one failover-origin
    /// shard over every row of the pinned `plan`, which the shard loop in
    /// [`ShardedEngine::run_job`] dispatches like any other spilled
    /// remainder.
    fn cpu_only_plan(&self, plan: Plan) -> ShardedPlan {
        let predicted_s = self.cpu.predict(&plan.shape).seconds + LAUNCH_OVERHEAD_S;
        ShardedPlan {
            shards: vec![Shard {
                cluster: CPU_LANE,
                r0: 0,
                r1: plan.shape.m,
                backend: BackendKind::Cpu,
                origin: ShardOrigin::Failover,
            }],
            plan,
            predicted_s,
        }
    }
}

/// Why a job has nowhere to run.
fn no_usable_clusters() -> FtimmError {
    FtimmError::Invalid("no usable clusters: every fault domain is dead".into())
}

/// One job in the engine's shard loop: what it runs, under which plan,
/// and what its dispatches have done so far.
struct InFlight {
    job: ShardedJob,
    tenant: TenantId,
    splan: ShardedPlan,
    shard_runs: Vec<ShardRun>,
    failovers: Vec<FailoverEvent>,
    /// Busy seconds per cluster.
    busy: Vec<f64>,
    /// Planned CPU shards run concurrently with the clusters (their
    /// lane has the work from t=0); failover CPU shards only exist
    /// because a cluster died, so their time serialises after the
    /// cluster timeline.
    cpu_peer_busy: f64,
    cpu_serial_busy: f64,
    /// Dispatches whose launch serialises on the host.
    launches: usize,
}

impl InFlight {
    fn new(job: ShardedJob, tenant: TenantId, splan: ShardedPlan, clusters: usize) -> Self {
        InFlight {
            job,
            tenant,
            splan,
            shard_runs: Vec::new(),
            failovers: Vec::new(),
            busy: vec![0.0; clusters],
            cpu_peer_busy: 0.0,
            cpu_serial_busy: 0.0,
            launches: 0,
        }
    }

    /// Record that `shard`'s device `from` was lost at `at_row` and
    /// return the remainder, resuming on `to` with the same plan.
    fn fail_over(
        &mut self,
        from: usize,
        shard: Shard,
        at_row: usize,
        (to, to_backend): (usize, BackendKind),
    ) -> Shard {
        self.failovers.push(FailoverEvent {
            from,
            to,
            to_backend,
            at_row,
            rows_salvaged: at_row - shard.r0,
            rows_resumed: shard.r1 - at_row,
        });
        Shard {
            cluster: to,
            r0: at_row,
            r1: shard.r1,
            backend: to_backend,
            origin: ShardOrigin::Failover,
        }
    }

    /// Every shard ran: the merged C and the job's report.
    fn complete(self) -> ShardedOutcome {
        // Clusters overlap each other, and a *planned* CPU shard (co-
        // execution) overlaps them too — its lane owned the work from
        // t=0, so the makespan is the slowest lane.  Failover CPU
        // dispatches only ever happen *after* a cluster death (salvage
        // remainders, rerouted shards), so their busy time serialises
        // after the cluster timeline instead of overlapping it —
        // losing a cluster is never free.
        let worst = self.busy.iter().copied().fold(0.0, f64::max);
        let worst = worst.max(self.cpu_peer_busy) + self.cpu_serial_busy;
        let useful_flops = self.job.shape().flops();
        ShardedOutcome::Completed {
            c: self.job.c,
            report: Box::new(ShardedReport {
                plan: self.splan,
                shard_runs: self.shard_runs,
                failovers: self.failovers,
                seconds: worst + LAUNCH_OVERHEAD_S * self.launches as f64,
                useful_flops,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterHealth;
    use crate::reference::fill_matrix;
    use crate::resilience::ResilienceConfig;
    use crate::Walk;
    use dspsim::{ExecMode, FaultPlan, HwConfig, Machine};

    const M: usize = 96;
    const N: usize = 16;
    const K: usize = 24;
    const CORES: usize = 4;

    fn test_cfg() -> ShardedConfig {
        ShardedConfig {
            engine: EngineConfig {
                resilience: ResilienceConfig {
                    ckpt_rows: 8,
                    ..ResilienceConfig::default()
                },
            },
            ..ShardedConfig::default()
        }
    }

    fn job() -> ShardedJob {
        ShardedJob::gemm(
            M,
            N,
            K,
            fill_matrix(M * K, 1),
            fill_matrix(K * N, 2),
            fill_matrix(M * N, 3),
            Strategy::Auto,
            CORES,
        )
    }

    /// Fault-free plain run of the same pinned plan on one cluster — the
    /// bitwise oracle for everything sharded (shards and checkpoint spans
    /// cut M on the walk's unit grid, see [`crate::RowGrid`]).
    fn single_cluster_oracle(ft: &FtImm) -> Vec<f32> {
        oracle_for(ft, M, N, K)
    }

    fn oracle_for(ft: &FtImm, m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut mach = Machine::new(HwConfig::default(), ExecMode::Compiled);
        let p = GemmProblem::alloc(&mut mach, m, n, k).unwrap();
        p.a.upload(&mut mach, &fill_matrix(m * k, 1)).unwrap();
        p.b.upload(&mut mach, &fill_matrix(k * n, 2)).unwrap();
        p.c.upload(&mut mach, &fill_matrix(m * n, 3)).unwrap();
        let plan = ft.plan_full(&GemmShape::new(m, n, k), Strategy::Auto, CORES);
        ft.run_plan(&mut mach, &p, &plan.strategy, CORES).unwrap();
        p.c.download(&mut mach).unwrap()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits(),
                "bit mismatch at {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn fault_free_sharded_run_is_bitwise_identical_to_single_cluster() {
        let ft = FtImm::new(HwConfig::default());
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 3);
        let mut eng = ShardedEngine::new(pool, test_cfg());
        let t = eng.register_tenant(TenantSpec::new("ci", 5));
        let id = eng.submit(t, job());
        let records = eng.run_all(&ft);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, id);
        let ShardedOutcome::Completed { c, report } = &records[0].outcome else {
            panic!("expected completion, got {}", records[0].outcome.label());
        };
        assert!(report.failovers.is_empty());
        assert_bits_eq(c, &single_cluster_oracle(&ft));
    }

    #[test]
    fn cluster_death_mid_run_fails_over_and_stays_bitwise_identical() {
        let ft = FtImm::new(HwConfig::default());

        // Measure how long the first shard keeps its cluster busy when
        // nothing fails, so the kill lands mid-shard.
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
        let mut eng = ShardedEngine::new(pool, test_cfg());
        let t = eng.register_tenant(TenantSpec::new("probe", 5));
        eng.submit(t, job());
        let records = eng.run_all(&ft);
        let ShardedOutcome::Completed { report, .. } = &records[0].outcome else {
            panic!("probe run failed");
        };
        let shard0 = report.shard_runs[0];
        assert!(shard0.seconds > 0.0);

        // Now kill shard 0's cluster halfway through that window.
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
        let mut eng = ShardedEngine::new(pool, test_cfg());
        eng.install_faults(0, &FaultPlan::new(1).kill_cluster(shard0.seconds * 0.5));
        let t = eng.register_tenant(TenantSpec::new("chaos", 5));
        let id = eng.submit(t, job());
        let records = eng.run_all(&ft);
        assert_eq!(records[0].id, id);
        let ShardedOutcome::Completed { c, report } = &records[0].outcome else {
            panic!("expected completion, got {}", records[0].outcome.label());
        };
        assert_eq!(report.failovers.len(), 1);
        let fo = report.failovers[0];
        assert_eq!(fo.from, 0);
        assert_eq!(fo.to, 1);
        assert!(fo.rows_salvaged % 8 == 0, "salvage lands on a checkpoint");
        assert_eq!(eng.pool().health(0), ClusterHealth::Dead);
        assert_bits_eq(c, &single_cluster_oracle(&ft));
    }

    /// A batch of small GEMMs against one shared operand (the FEM
    /// pattern: `C_e += A_e × B` over stacked element matrices `A_e`) is
    /// one flat GEMM of `count · rows` rows, so it runs as a one-cluster
    /// job, bitwise equal to a single-cluster run of that GEMM.
    #[test]
    fn a_batch_as_a_one_cluster_job_matches_a_single_cluster_run_bitwise() {
        let ft = FtImm::new(HwConfig::default());
        let (count, rows, inner, cols) = (10, 8, 12, 4);
        let (m, n, k) = (count * rows, cols, inner);
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
        let mut eng = ShardedEngine::new(pool, test_cfg());
        let t = eng.register_tenant(TenantSpec::new("batch", 5));
        let job = ShardedJob::gemm(
            m,
            n,
            k,
            fill_matrix(m * k, 1),
            fill_matrix(k * n, 2),
            fill_matrix(m * n, 3),
            Strategy::Auto,
            CORES,
        );
        eng.submit(t, job);
        let records = eng.run_all(&ft);
        let ShardedOutcome::Completed { c, .. } = &records[0].outcome else {
            panic!("expected completion, got {}", records[0].outcome.label());
        };
        assert_bits_eq(c, &oracle_for(&ft, m, n, k));
    }

    #[test]
    fn quota_rejection_and_shedding_are_terminal_outcomes() {
        let ft = FtImm::new(HwConfig::default());
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
        let mut eng = ShardedEngine::new(
            pool,
            ShardedConfig {
                max_queue_per_cluster: 2,
                ..test_cfg()
            },
        );
        let gold = eng.register_tenant(TenantSpec::new("gold", 9));
        let best = eng.register_tenant(TenantSpec::new("best-effort", 1));
        let ids = [
            eng.submit(gold, job()),
            eng.submit(best, job()),
            eng.submit(gold, job()),
            eng.submit(best, job()),
            eng.submit(TenantId(99), job()), // never registered
        ];
        // Kill cluster 0 before anything runs: capacity halves to 1, so
        // the 3-deep queue sheds its lowest-priority jobs.
        eng.install_faults(0, &FaultPlan::new(2).kill_cluster(0.0));
        eng.pool.mark_dead(0);
        let records = eng.run_all(&ft);
        assert_eq!(records.len(), ids.len());
        let labels: Vec<&str> = records.iter().map(|r| r.outcome.label()).collect();
        // Every submitted job reached a terminal outcome; gold survived,
        // best-effort was shed/rejected.
        assert_eq!(
            labels,
            vec!["completed", "shed", "completed", "shed", "rejected"]
        );
        for (r, id) in records.iter().zip(ids) {
            assert_eq!(r.id, id);
        }
    }

    #[test]
    fn all_clusters_dead_fails_jobs_terminally() {
        let ft = FtImm::new(HwConfig::default());
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
        let mut eng = ShardedEngine::new(pool, test_cfg());
        eng.pool.mark_dead(0);
        let t = eng.register_tenant(TenantSpec::new("t", 1));
        eng.submit(t, job());
        let records = eng.run_all(&ft);
        assert_eq!(records[0].outcome.label(), "failed");
    }

    #[test]
    fn last_resort_spill_runs_the_whole_job_on_cpu_bitwise() {
        let ft = FtImm::new(HwConfig::default());
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
        let mut eng = ShardedEngine::new(
            pool,
            ShardedConfig {
                spill: SpillPolicy::LastResort,
                ..test_cfg()
            },
        );
        eng.pool.mark_dead(0);
        let t = eng.register_tenant(TenantSpec::new("t", 3));
        eng.submit(t, job());
        let records = eng.run_all(&ft);
        let ShardedOutcome::Completed { c, report } = &records[0].outcome else {
            panic!(
                "expected CPU completion, got {}",
                records[0].outcome.label()
            );
        };
        assert_eq!(eng.cpu_dispatches(), 1);
        assert_eq!(report.shard_runs.len(), 1);
        assert_eq!(report.shard_runs[0].backend, dspsim::BackendKind::Cpu);
        assert_eq!(report.shard_runs[0].cluster, CPU_LANE);
        assert_eq!(report.shard_runs[0].r1, M);
        assert!(report.seconds > 0.0);
        // The CPU lane replays the pinned plan's checkpointed walk, so
        // the spilled result is bitwise identical to an all-DSP run.
        assert_bits_eq(c, &single_cluster_oracle(&ft));
    }

    /// A shape the co-execution planner actually splits under the test
    /// grid (ckpt 8, two clusters, a host five times the default CPU
    /// model): tall-skinny type-1, where Fig. 7's crossover gives the
    /// host a real tail — half of M.
    const CM: usize = 26_000;
    const CK: usize = 8;

    fn coexec_job() -> ShardedJob {
        ShardedJob::gemm(
            CM,
            32,
            CK,
            fill_matrix(CM * CK, 1),
            fill_matrix(CK * 32, 2),
            fill_matrix(CM * 32, 3),
            Strategy::Auto,
            CORES,
        )
    }

    fn coexec_oracle(ft: &FtImm) -> Vec<f32> {
        oracle_for(ft, CM, 32, CK)
    }

    fn coexec_cfg() -> ShardedConfig {
        ShardedConfig {
            spill: SpillPolicy::CoExecute,
            cpu: CpuConfig {
                clock_hz: 11e9,
                ddr_bw: 213e9,
                ..CpuConfig::default()
            },
            ..test_cfg()
        }
    }

    #[test]
    fn coexec_dispatches_both_backends_from_job_start_bitwise() {
        let ft = FtImm::new(HwConfig::default());
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
        let mut eng = ShardedEngine::new(pool, coexec_cfg());
        let t = eng.register_tenant(TenantSpec::new("co", 5));
        eng.submit(t, coexec_job());
        let records = eng.run_all(&ft);
        let ShardedOutcome::Completed { c, report } = &records[0].outcome else {
            panic!("expected completion, got {}", records[0].outcome.label());
        };
        assert!(report.failovers.is_empty());
        // The plan itself placed a CPU tail: both backends ran as peers.
        assert_eq!(eng.cpu_dispatches(), 1);
        let cpu_runs: Vec<_> = report
            .shard_runs
            .iter()
            .filter(|r| r.backend == dspsim::BackendKind::Cpu)
            .collect();
        assert_eq!(cpu_runs.len(), 1);
        assert_eq!(cpu_runs[0].cluster, CPU_LANE);
        assert_eq!(cpu_runs[0].r1, CM, "CPU takes the M tail");
        assert_eq!((CM - cpu_runs[0].r0) % 8, 0, "tail starts on the grid");
        assert!(report
            .shard_runs
            .iter()
            .any(|r| r.backend == dspsim::BackendKind::Dsp));
        // Merged C is bitwise identical to a single-cluster DSP run.
        assert_bits_eq(c, &coexec_oracle(&ft));
    }

    #[test]
    fn coexec_cpu_fault_demotes_the_tail_to_dsp_in_job() {
        let ft = FtImm::new(HwConfig::default());
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
        let mut eng = ShardedEngine::new(pool, coexec_cfg());
        // Kill the first CPU checkpoint span: the co-executed tail
        // faults immediately and must demote back to the DSP pool.
        eng.install_cpu_faults(&FaultPlan::new(7).fail_cpu(1));
        let t = eng.register_tenant(TenantSpec::new("co", 5));
        eng.submit(t, coexec_job());
        let records = eng.run_all(&ft);
        let ShardedOutcome::Completed { c, report } = &records[0].outcome else {
            panic!("expected completion, got {}", records[0].outcome.label());
        };
        assert_eq!(report.failovers.len(), 1);
        let fo = report.failovers[0];
        assert_eq!(fo.from, CPU_LANE);
        assert_eq!(fo.to_backend, dspsim::BackendKind::Dsp);
        assert_eq!(fo.rows_salvaged % 8, 0);
        // The demoted remainder completed on a cluster, bitwise intact.
        assert_bits_eq(c, &coexec_oracle(&ft));
        // The lane's breaker saw the fault (one strike, still closed at
        // the default threshold).
        assert_eq!(eng.cpu().breaker().consecutive_faults(), 1);
    }

    #[test]
    fn open_cpu_breaker_demotes_later_plans_to_dsp_only() {
        let ft = FtImm::new(HwConfig::default());
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
        let mut eng = ShardedEngine::new(pool, coexec_cfg());
        // The lane's span counter runs across dispatches: each of the
        // first three jobs' CPU tails faults on its first span.
        let faults = (1..=3).fold(FaultPlan::new(7), |p, nth| p.fail_cpu(nth));
        eng.install_cpu_faults(&faults);
        let t = eng.register_tenant(TenantSpec::new("co", 5));
        for _ in 0..4 {
            eng.submit(t, coexec_job());
        }
        let records = eng.run_all(&ft);
        // Jobs 1-3 co-executed, faulted on the CPU and demoted in-job;
        // the third consecutive fault tripped the breaker.
        for r in &records[..3] {
            let ShardedOutcome::Completed { c, report } = &r.outcome else {
                panic!("job {:?}: expected completion", r.id);
            };
            assert_eq!(report.failovers.len(), 1);
            assert_bits_eq(c, &coexec_oracle(&ft));
        }
        assert_eq!(eng.cpu().breaker().state(), BreakerState::Open);
        // Job 4 planned DSP-only: no new CPU dispatch, no failovers.
        let ShardedOutcome::Completed { c, report } = &records[3].outcome else {
            panic!("job 4: expected completion");
        };
        assert!(report.failovers.is_empty());
        assert!(report
            .shard_runs
            .iter()
            .all(|r| r.backend == dspsim::BackendKind::Dsp));
        assert_eq!(eng.cpu_dispatches(), 3, "only jobs 1-3 touched the lane");
        assert_bits_eq(c, &coexec_oracle(&ft));
    }

    #[test]
    fn timing_mode_jobs_run_without_data_and_scale_type1() {
        let ft = FtImm::new(HwConfig::default());
        let run = |clusters: usize| {
            let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, clusters);
            let mut eng = ShardedEngine::new(pool, test_cfg());
            let t = eng.register_tenant(TenantSpec::new("sweep", 5));
            eng.submit(t, ShardedJob::timing(1 << 16, 32, 32, Strategy::Auto, 8));
            match eng.run_all(&ft).remove(0).outcome {
                ShardedOutcome::Completed { report, .. } => report,
                other => panic!("timing job failed: {}", other.label()),
            }
        };
        let (one, four) = (run(1), run(4));
        assert!(four.plan.shards.len() > 1);
        assert!(four.seconds > 0.0);
        assert!(four.gflops() > 0.0);
        // Type 1 is bandwidth-bound per cluster, and the walk deals M in
        // rounds of one task per core: one cluster runs every round, each
        // of four only the rounds of its shard, but with a launch of its
        // own.  So four clusters take at most their share of the single
        // cluster's rounds plus three more launches.
        let round = Walk::new(&four.plan.plan.strategy, 1 << 16, 32, 32, 8)
            .grid()
            .round;
        let rounds = |rows: usize| rows.div_ceil(round) as f64;
        let most = four.plan.shards.iter().map(|s| rounds(s.rows()));
        let share = most.fold(0.0, f64::max) / rounds(1 << 16);
        let bound = (one.seconds - LAUNCH_OVERHEAD_S) * share + 4.0 * LAUNCH_OVERHEAD_S;
        assert!(four.seconds <= bound, "{} > {bound}", four.seconds);
        let speedup = one.seconds / four.seconds;
        assert!(speedup <= 4.05, "{speedup}");
        // Whole rounds keep every core busy: both runs beat the 8-row
        // spans that dealt one task at a time (5510 and 1565 µs).
        assert!(one.seconds < 5.51e-3, "{}", one.seconds);
        assert!(four.seconds < 1.565e-3, "{}", four.seconds);
    }
}
