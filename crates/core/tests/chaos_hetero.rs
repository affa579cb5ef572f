//! Chaos tests for the heterogeneous failover ladder: healthy DSP →
//! mid-kill salvage → CPU lane → shed.  The CPU is the *last* fault
//! domain — a CPU fault mid-failover must terminate the job with a
//! shed-and-reason, never hang a watchdog or drop the [`ftimm::JobId`];
//! and spilled output must stay bitwise identical to a fault-free
//! plain run of the same pinned plan.

use dspsim::{BackendKind, ExecMode, FaultPlan, HwConfig, Machine};
use ftimm::reference::fill_matrix;
use ftimm::{
    BreakerState, ClusterHealth, ClusterPool, EngineConfig, FtImm, GemmProblem, GemmShape,
    ResilienceConfig, ShardedConfig, ShardedEngine, ShardedJob, ShardedOutcome, SpillPolicy,
    Strategy, TenantSpec, CPU_LANE,
};

/// Type 1 with two and a half rounds of the walk (four 3040-row tasks
/// each), so a kill halfway through the only shard lands after its
/// first checkpoint span.
const M: usize = 30_000;
const N: usize = 16;
const K: usize = 8;
const CORES: usize = 4;

fn cfg(spill: SpillPolicy) -> ShardedConfig {
    ShardedConfig {
        engine: EngineConfig {
            resilience: ResilienceConfig {
                ckpt_rows: 8,
                ..ResilienceConfig::default()
            },
            ..EngineConfig::default()
        },
        spill,
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
/// bitwise oracle for every spilled or failed-over run below (salvage
/// points and the CPU lane's spans lie on the walk's unit grid, so every
/// part is a plain run's rows bit for bit).
fn single_cluster_oracle(ft: &FtImm) -> Vec<f32> {
    let mut m = Machine::new(HwConfig::default(), ExecMode::Compiled);
    let p = GemmProblem::alloc(&mut m, M, N, K).unwrap();
    p.a.upload(&mut m, &fill_matrix(M * K, 1)).unwrap();
    p.b.upload(&mut m, &fill_matrix(K * N, 2)).unwrap();
    p.c.upload(&mut m, &fill_matrix(M * N, 3)).unwrap();
    let plan = ft.plan_full(&GemmShape::new(M, N, K), Strategy::Auto, CORES);
    ft.run_plan(&mut m, &p, &plan.strategy, CORES).unwrap();
    p.c.download(&mut m).unwrap()
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

/// Simulated seconds the only shard keeps a lone healthy cluster busy —
/// used to land kills mid-shard (the clocks are deterministic, so a
/// half-way kill is exactly reproducible).
fn probe_shard_seconds(ft: &FtImm) -> f64 {
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let mut eng = ShardedEngine::new(pool, cfg(SpillPolicy::Never));
    let t = eng.register_tenant(TenantSpec::new("probe", 5));
    eng.submit(t, job());
    let records = eng.run_all(ft);
    let ShardedOutcome::Completed { report, .. } = &records[0].outcome else {
        panic!("probe run failed: {}", records[0].outcome.label());
    };
    let s = report.shard_runs[0].seconds;
    assert!(s > 0.0);
    s
}

/// The full degradation ladder in one run: the only cluster dies
/// mid-shard, the checkpointed prefix is salvaged from its DDR, and the
/// remainder resumes on the CPU lane — output bitwise identical to the
/// all-DSP oracle.
#[test]
fn cluster_death_with_no_survivors_spills_remainder_to_cpu_bitwise() {
    let ft = FtImm::new(HwConfig::default());
    let shard_s = probe_shard_seconds(&ft);

    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let mut eng = ShardedEngine::new(pool, cfg(SpillPolicy::LastResort));
    eng.install_faults(0, &FaultPlan::new(1).kill_cluster(shard_s * 0.5));
    let t = eng.register_tenant(TenantSpec::new("chaos", 5));
    let id = eng.submit(t, job());
    let records = eng.run_all(&ft);
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].id, id);
    let ShardedOutcome::Completed { c, report } = &records[0].outcome else {
        panic!("expected completion, got {}", records[0].outcome.label());
    };

    // The ladder is visible in the report: a partial DSP run, then the
    // CPU remainder, joined by a failover event onto the CPU lane.
    assert_eq!(report.failovers.len(), 1);
    let fo = report.failovers[0];
    assert_eq!(fo.from, 0);
    assert_eq!(fo.to, CPU_LANE);
    assert_eq!(fo.to_backend, BackendKind::Cpu);
    assert!(fo.rows_salvaged > 0, "kill landed before the first ckpt");
    assert!(fo.rows_salvaged % 8 == 0, "salvage lands on a checkpoint");
    assert_eq!(fo.rows_salvaged + fo.rows_resumed, M);
    let cpu_runs: Vec<_> = report
        .shard_runs
        .iter()
        .filter(|r| r.backend == BackendKind::Cpu)
        .collect();
    assert_eq!(cpu_runs.len(), 1);
    assert_eq!(cpu_runs[0].cluster, CPU_LANE);
    assert_eq!(cpu_runs[0].r0, fo.at_row);
    assert_eq!(cpu_runs[0].r1, M);
    assert!(cpu_runs[0].seconds > 0.0);
    assert_eq!(eng.pool().health(0), ClusterHealth::Dead);
    assert_eq!(eng.cpu_dispatches(), 1);

    assert_bits_eq(c, &single_cluster_oracle(&ft));
}

/// A CPU fault *during* the failover remainder: the CPU is the last
/// fault domain, so the job must terminate as shed-with-reason — and
/// `run_all` must return (no hung watchdog, no dropped id).
#[test]
fn cpu_fault_mid_failover_sheds_with_reason_instead_of_hanging() {
    let ft = FtImm::new(HwConfig::default());
    let shard_s = probe_shard_seconds(&ft);

    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let mut eng = ShardedEngine::new(pool, cfg(SpillPolicy::LastResort));
    eng.install_faults(0, &FaultPlan::new(1).kill_cluster(shard_s * 0.5));
    // The very first CPU checkpoint span faults.
    eng.install_cpu_faults(&FaultPlan::new(2).fail_cpu(1));
    let t = eng.register_tenant(TenantSpec::new("chaos", 5));
    let id = eng.submit(t, job());
    let records = eng.run_all(&ft);
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].id, id);
    let ShardedOutcome::Shed { priority, reason } = &records[0].outcome else {
        panic!("expected shed, got {}", records[0].outcome.label());
    };
    assert_eq!(*priority, 5);
    assert!(reason.contains("cpu backend fault"), "{reason}");
    assert!(reason.contains("last fault domain"), "{reason}");
    // The fault is on the CPU breaker's ledger (one strike, not open).
    assert_eq!(eng.cpu_breaker().consecutive_faults(), 1);
    assert_eq!(eng.cpu_breaker().state(), BreakerState::Closed);
}

/// `SpillPolicy::Never` preserves the pre-lane semantics exactly: the
/// same chaos ends in the terminal "every fault domain is dead" failure
/// and the CPU lane stays cold even with CPU faults armed.
#[test]
fn never_policy_keeps_cpu_cold_and_fails_terminally() {
    let ft = FtImm::new(HwConfig::default());
    let shard_s = probe_shard_seconds(&ft);

    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let mut eng = ShardedEngine::new(pool, cfg(SpillPolicy::Never));
    eng.install_faults(0, &FaultPlan::new(1).kill_cluster(shard_s * 0.5));
    eng.install_cpu_faults(&FaultPlan::new(2).fail_cpu(1).cpu_slowdown(4.0));
    let t = eng.register_tenant(TenantSpec::new("chaos", 5));
    eng.submit(t, job());
    let records = eng.run_all(&ft);
    let ShardedOutcome::Failed { error } = &records[0].outcome else {
        panic!("expected failure, got {}", records[0].outcome.label());
    };
    // Mid-kill with nowhere to resume surfaces the cluster-death error.
    assert!(format!("{error}").contains("cluster failed"), "{error}");
    assert_eq!(eng.cpu_dispatches(), 0, "Never must not touch the lane");
}

/// Repeated CPU faults walk the lane's breaker open, after which even
/// `LastResort` fails fast — and every one of the queued jobs still
/// reaches exactly one terminal outcome.
#[test]
fn repeated_cpu_faults_open_the_breaker_and_fail_fast() {
    let ft = FtImm::new(HwConfig::default());
    let shard_s = probe_shard_seconds(&ft);

    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let mut eng = ShardedEngine::new(pool, cfg(SpillPolicy::LastResort));
    eng.install_faults(0, &FaultPlan::new(1).kill_cluster(shard_s * 0.5));
    // Spans 1..=3 fault: one strike per job, three strikes open the
    // breaker (default threshold 3).
    eng.install_cpu_faults(&FaultPlan::new(2).fail_cpu(1).fail_cpu(2).fail_cpu(3));
    let t = eng.register_tenant(TenantSpec::new("chaos", 5).with_quota(8));
    let ids: Vec<_> = (0..4).map(|_| eng.submit(t, job())).collect();
    let records = eng.run_all(&ft);

    // Exactly one terminal outcome per submitted id, in order.
    let got: Vec<_> = records.iter().map(|r| r.id).collect();
    assert_eq!(got, ids);
    // Jobs 1–3 each burn one armed CPU fault (job 1 mid-failover, jobs
    // 2–3 as whole-job spills) and shed; job 4 arrives at an open
    // breaker and fails fast without touching the lane.
    for r in &records[..3] {
        assert!(
            matches!(&r.outcome, ShardedOutcome::Shed { reason, .. }
                if reason.contains("cpu backend fault")),
            "{:?}: {}",
            r.id,
            r.outcome.label()
        );
    }
    assert_eq!(eng.cpu_breaker().state(), BreakerState::Open);
    let ShardedOutcome::Failed { error } = &records[3].outcome else {
        panic!("expected fail-fast, got {}", records[3].outcome.label());
    };
    assert!(format!("{error}").contains("no usable clusters"), "{error}");
    assert_eq!(eng.cpu_dispatches(), 3);
}

/// Whole-job spill after total cluster loss completes on the CPU and the
/// next job in the queue does too — the lane is a real fault domain, not
/// a one-shot escape hatch.
#[test]
fn queued_jobs_keep_completing_on_cpu_after_total_cluster_loss() {
    let ft = FtImm::new(HwConfig::default());
    let shard_s = probe_shard_seconds(&ft);

    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let mut eng = ShardedEngine::new(pool, cfg(SpillPolicy::LastResort));
    eng.install_faults(0, &FaultPlan::new(1).kill_cluster(shard_s * 0.5));
    let t = eng.register_tenant(TenantSpec::new("chaos", 5).with_quota(8));
    let ids: Vec<_> = (0..3).map(|_| eng.submit(t, job())).collect();
    let records = eng.run_all(&ft);
    let got: Vec<_> = records.iter().map(|r| r.id).collect();
    assert_eq!(got, ids);

    let oracle = single_cluster_oracle(&ft);
    for (i, r) in records.iter().enumerate() {
        let ShardedOutcome::Completed { c, report } = &r.outcome else {
            panic!("job {i}: expected completion, got {}", r.outcome.label());
        };
        assert_bits_eq(c, &oracle);
        if i > 0 {
            // Jobs after the kill run whole on the CPU lane.
            assert_eq!(report.shard_runs.len(), 1);
            assert_eq!(report.shard_runs[0].backend, BackendKind::Cpu);
            assert_eq!(report.shard_runs[0].cluster, CPU_LANE);
            assert!(report.seconds > 0.0);
        }
    }
    // Job 1 dispatched once to the CPU (its remainder); jobs 2 and 3
    // once each as whole-job spills.
    assert_eq!(eng.cpu_dispatches(), 3);
}
