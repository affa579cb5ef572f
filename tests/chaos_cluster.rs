//! Cluster-level chaos: seeded cluster deaths against the sharded
//! multi-cluster engine.
//!
//! Invariants (see DESIGN.md §4.3):
//! * a sharded run with a mid-shard cluster kill fails over and stays
//!   **bitwise identical** to a fault-free plain run of the same pinned
//!   plan, across shapes and seeds (shard boundaries, checkpoint spans
//!   and salvage points all lie on the walk's unit grid);
//! * every submitted job reaches exactly one terminal outcome —
//!   completed, rejected, shed, deadline-exceeded or failed;
//! * a dead fault domain stays dead (monotone health) and later jobs
//!   keep completing on the survivors;
//! * everything is deterministic in `(data seed, fault plan)`.

use dspsim::{ExecMode, FaultPlan, HwConfig, Machine};
use ftimm::reference::fill_matrix;
use ftimm::{
    ClusterHealth, ClusterPool, EngineConfig, FtImm, GemmProblem, GemmShape, ResilienceConfig,
    ShardedConfig, ShardedEngine, ShardedJob, ShardedOutcome, ShardedReport, Strategy, TenantSpec,
};

const CORES: usize = 4;
const CKPT_ROWS: usize = 8;

fn cfg() -> ShardedConfig {
    ShardedConfig {
        engine: EngineConfig {
            resilience: ResilienceConfig {
                ckpt_rows: CKPT_ROWS,
                ..ResilienceConfig::default()
            },
            ..EngineConfig::default()
        },
        ..ShardedConfig::default()
    }
}

fn job(shape: &GemmShape, seed: u32) -> ShardedJob {
    let (m, n, k) = (shape.m, shape.n, shape.k);
    ShardedJob::gemm(
        m,
        n,
        k,
        fill_matrix(m * k, seed.wrapping_add(1)),
        fill_matrix(k * n, seed.wrapping_add(2)),
        fill_matrix(m * n, seed.wrapping_add(3)),
        Strategy::Auto,
        CORES,
    )
}

/// Fault-free plain run of the same pinned plan on one cluster — the
/// bitwise oracle for every sharded run.
fn single_cluster_oracle(ft: &FtImm, shape: &GemmShape, seed: u32) -> Vec<f32> {
    let (m, n, k) = (shape.m, shape.n, shape.k);
    let mut machine = Machine::new(HwConfig::default(), ExecMode::Compiled);
    let p = GemmProblem::alloc(&mut machine, m, n, k).unwrap();
    p.a.upload(&mut machine, &fill_matrix(m * k, seed.wrapping_add(1)))
        .unwrap();
    p.b.upload(&mut machine, &fill_matrix(k * n, seed.wrapping_add(2)))
        .unwrap();
    p.c.upload(&mut machine, &fill_matrix(m * n, seed.wrapping_add(3)))
        .unwrap();
    let plan = ft.plan_full(shape, Strategy::Auto, CORES);
    ft.run_plan(&mut machine, &p, &plan.strategy, CORES)
        .unwrap();
    p.c.download(&mut machine).unwrap()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Run one job on a fresh pool, returning its terminal outcome.
fn run_one(
    ft: &FtImm,
    clusters: usize,
    faults: Option<(usize, FaultPlan)>,
    j: ShardedJob,
) -> ShardedOutcome {
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, clusters);
    let mut eng = ShardedEngine::new(pool, cfg());
    if let Some((cluster, plan)) = &faults {
        eng.install_faults(*cluster, plan);
    }
    let t = eng.register_tenant(TenantSpec::new("chaos", 5));
    let id = eng.submit(t, j);
    let mut records = eng.run_all(ft);
    assert_eq!(records.len(), 1, "one submission, one terminal record");
    assert_eq!(records[0].id, id);
    records.remove(0).outcome
}

fn completed(outcome: ShardedOutcome, what: &str) -> (Vec<f32>, Box<ShardedReport>) {
    match outcome {
        ShardedOutcome::Completed { c, report } => (c, report),
        other => panic!("{what}: expected completion, got {}", other.label()),
    }
}

/// Fault-free probe: proves sharded ≡ single-cluster and yields shard
/// 0's busy window for placing the kill.
fn probe(ft: &FtImm, shape: &GemmShape, seed: u32, clusters: usize) -> f64 {
    let want = single_cluster_oracle(ft, shape, seed);
    let (c, report) = completed(run_one(ft, clusters, None, job(shape, seed)), "probe");
    assert_bits_eq(&c, &want, "fault-free sharded vs single-cluster");
    assert!(report.failovers.is_empty(), "fault-free run failed over");
    report.shard_runs[0].seconds
}

/// One seeded kill: cluster 0 dies `frac` of the way through its first
/// shard; the merged result must still be bitwise identical.
fn killed_run_matches_oracle(ft: &FtImm, shape: &GemmShape, seed: u32, frac: f64, clusters: usize) {
    let shard0_s = probe(ft, shape, seed, clusters);
    assert!(shard0_s > 0.0);
    let faults = FaultPlan::new(seed as u64).kill_cluster(shard0_s * frac);
    let (c, report) = completed(
        run_one(ft, clusters, Some((0, faults)), job(shape, seed)),
        "kill run",
    );
    let want = single_cluster_oracle(ft, shape, seed);
    assert_bits_eq(&c, &want, "sharded-with-failover vs single-cluster");
    for fo in &report.failovers {
        assert_ne!(fo.from, fo.to, "failover must change clusters");
        assert!(
            fo.rows_salvaged % CKPT_ROWS == 0,
            "salvage point off the checkpoint grid: {}",
            fo.rows_salvaged
        );
    }
}

#[test]
fn cluster_death_mid_shard_is_bitwise_recovered() {
    let ft = FtImm::new(HwConfig::default());
    killed_run_matches_oracle(&ft, &GemmShape::new(96, 16, 24), 1, 0.5, 2);
}

#[test]
fn survivors_keep_serving_after_a_cluster_death() {
    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(96, 16, 24);
    let shard0_s = probe(&ft, &shape, 7, 2);

    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
    let mut eng = ShardedEngine::new(pool, cfg());
    eng.install_faults(0, &FaultPlan::new(7).kill_cluster(shard0_s * 0.4));
    let t = eng.register_tenant(TenantSpec::new("ops", 5));

    // First job rides through the death; the next two land entirely on
    // the survivor.  All three must be bitwise clean.
    let ids: Vec<_> = (0..3).map(|_| eng.submit(t, job(&shape, 7))).collect();
    let records = eng.run_all(&ft);
    assert_eq!(records.len(), 3);
    assert_eq!(eng.pool().health(0), ClusterHealth::Dead);
    assert_eq!(eng.pool().usable(), 1);
    let want = single_cluster_oracle(&ft, &shape, 7);
    for (rec, id) in records.into_iter().zip(ids) {
        assert_eq!(rec.id, id);
        let (c, _) = completed(rec.outcome, "post-death job");
        assert_bits_eq(&c, &want, "job after cluster death");
    }
}

#[test]
fn deadline_preemption_is_terminal_and_reproducible() {
    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(96, 16, 24);
    // Measure the fault-free single-shard window, then demand half of it.
    let shard0_s = probe(&ft, &shape, 3, 1);
    let trip = || {
        let outcome = run_one(&ft, 1, None, job(&shape, 3).with_deadline(shard0_s * 0.5));
        match outcome {
            ShardedOutcome::DeadlineExceeded {
                at,
                rows_verified,
                rows_total,
            } => (at, rows_verified, rows_total),
            other => panic!("expected deadline preemption, got {}", other.label()),
        }
    };
    let (at1, rows1, total1) = trip();
    let (at2, rows2, total2) = trip();
    assert!(at1 >= shard0_s * 0.5, "tripped before the deadline: {at1}");
    assert_eq!(total1, shape.m);
    assert!(rows1 < shape.m, "half-deadline job verified every row");
    assert_eq!(at1.to_bits(), at2.to_bits());
    assert_eq!((rows1, total1), (rows2, total2));
}

#[test]
fn every_submission_gets_exactly_one_terminal_outcome() {
    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(96, 16, 24);
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
    let mut eng = ShardedEngine::new(
        pool,
        ShardedConfig {
            max_queue_per_cluster: 2,
            ..cfg()
        },
    );
    // Kill cluster 0 before it does any work: capacity halves, the
    // over-deep queue sheds best-effort jobs, gold's quota rejects its
    // third submission.
    eng.install_faults(0, &FaultPlan::new(11).kill_cluster(0.0));
    let gold = eng.register_tenant(TenantSpec::new("gold", 9).with_quota(2));
    let best = eng.register_tenant(TenantSpec::new("best-effort", 1));
    let mut ids = Vec::new();
    for _ in 0..2 {
        ids.push(eng.submit(gold, job(&shape, 5)));
        ids.push(eng.submit(best, job(&shape, 5)));
    }
    ids.push(eng.submit(gold, job(&shape, 5))); // over gold's quota
    let records = eng.run_all(&ft);
    assert_eq!(records.len(), ids.len());
    let mut seen: Vec<_> = records.iter().map(|r| r.id).collect();
    seen.dedup();
    assert_eq!(seen, ids, "records in id order, one per submission");
    for r in &records {
        assert!(
            matches!(
                r.outcome,
                ShardedOutcome::Completed { .. }
                    | ShardedOutcome::Rejected { .. }
                    | ShardedOutcome::Shed { .. }
                    | ShardedOutcome::DeadlineExceeded { .. }
                    | ShardedOutcome::Failed { .. }
            ),
            "non-terminal record"
        );
    }
    assert_eq!(records.last().unwrap().outcome.label(), "rejected");
}

#[test]
fn cluster_kill_fixture_loads_and_recovers() {
    let plan = FaultPlan::from_json(include_str!("fixtures/cluster_kill.json")).unwrap();
    assert_eq!(plan.seed, 41);
    assert_eq!(plan.clusters.len(), 1);
    assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);

    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(96, 16, 24);
    let want = single_cluster_oracle(&ft, &shape, 9);
    let (c, _) = completed(
        run_one(&ft, 2, Some((0, plan)), job(&shape, 9)),
        "fixture kill run",
    );
    assert_bits_eq(&c, &want, "fixture-killed sharded vs single-cluster");
}

/// The CI sweep (acceptance: ≥ 3 shapes × ≥ 2 seeds): every regime of
/// Table I–III at a functional size, killed at two different points in
/// shard 0's window, on 2- and 3-cluster pools.  Ignored by default —
/// the release-mode `chaos-cluster` CI job runs it via
/// `--include-ignored`.
#[test]
#[ignore = "cluster-death sweep: run in the release-mode CI chaos-cluster job"]
fn cluster_death_sweep_is_bitwise_identical_across_shapes_and_seeds() {
    let ft = FtImm::new(HwConfig::default());
    let shapes = [
        GemmShape::new(96, 16, 24), // near-square
        GemmShape::new(256, 8, 12), // tall-skinny (Table II regime)
        GemmShape::new(128, 32, 8), // tiny-K (Table III regime)
        GemmShape::new(24, 48, 96), // short-wide (Table I regime)
    ];
    for shape in &shapes {
        for seed in [1u32, 42] {
            for frac in [0.3, 0.7] {
                for clusters in [2usize, 3] {
                    killed_run_matches_oracle(&ft, shape, seed, frac, clusters);
                }
            }
        }
    }
}
