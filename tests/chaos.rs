//! Chaos suite: seeded fault plans against the resilient execution layer.
//!
//! Functional invariants:
//! * recovered runs produce a `C` that is bit-exact with a fault-free run
//!   (M-parallel / TGEMM) or matches the f64 oracle (degraded K-parallel,
//!   whose GSM reduction regroups when the core count changes);
//! * an *empty* fault plan is free: simulated time, traffic and `C` bits
//!   are identical to a run without the resilience wrapper;
//! * everything is deterministic in `(seed, plan)`.

use dspsim::{DmaPath, ExecMode, FaultPlan, HwConfig, Machine, MemTarget, RunReport, SimError};
use ftimm::reference::{assert_close, fill_matrix, sgemm_f64};
use ftimm::{
    run_resilient, ChosenStrategy, EngineConfig, FtImm, FtimmError, GemmProblem, GemmShape, Job,
    JobOutcome, JobQueue, ResilienceConfig, Strategy,
};

const M: usize = 64;
const N: usize = 24;
const K: usize = 48;
const CORES: usize = 4;

fn upload_problem(m: &mut Machine) -> GemmProblem {
    let p = GemmProblem::alloc(m, M, N, K).unwrap();
    p.a.upload(m, &fill_matrix(M * K, 1)).unwrap();
    p.b.upload(m, &fill_matrix(K * N, 2)).unwrap();
    p.c.upload(m, &fill_matrix(M * N, 3)).unwrap();
    p
}

fn oracle() -> Vec<f64> {
    sgemm_f64(
        M,
        N,
        K,
        &fill_matrix(M * K, 1),
        &fill_matrix(K * N, 2),
        &fill_matrix(M * N, 3),
    )
}

/// Fault-free baseline through the *plain* (unwrapped) runner.
fn baseline(strategy: Strategy) -> (RunReport, Vec<f32>, ChosenStrategy) {
    let ft = FtImm::new(HwConfig::default());
    let mut m = Machine::with_mode(ExecMode::Compiled);
    let p = upload_problem(&mut m);
    let plan = ft.plan(&GemmShape::new(M, N, K), strategy, CORES);
    let rep = ft.run_plan(&mut m, &p, &plan, CORES).unwrap();
    let c = p.c.download(&mut m).unwrap();
    (rep, c, plan)
}

/// One resilient run under the given fault plan.
fn chaotic(
    strategy: Strategy,
    faults: &FaultPlan,
    rcfg: &ResilienceConfig,
) -> Result<(RunReport, Vec<f32>), FtimmError> {
    let ft = FtImm::new(HwConfig::default());
    let mut m = Machine::with_mode(ExecMode::Compiled);
    let p = upload_problem(&mut m);
    m.install_faults(faults);
    let plan = ft.plan(&GemmShape::new(M, N, K), strategy, CORES);
    let rep = run_resilient(&ft, &mut m, &p, &plan, CORES, rcfg)?;
    let c = p.c.download(&mut m).unwrap();
    Ok((rep, c))
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
    }
}

#[test]
fn empty_fault_plan_has_zero_overhead() {
    let (plain, c_plain, _) = baseline(Strategy::MPar);
    let (rep, c) = chaotic(
        Strategy::MPar,
        &FaultPlan::new(7), // installed but schedules nothing
        &ResilienceConfig::default(),
    )
    .unwrap();
    assert_eq!(plain.seconds.to_bits(), rep.seconds.to_bits());
    assert_eq!(plain.totals.ddr_bytes, rep.totals.ddr_bytes);
    assert_eq!(plain.totals, rep.totals);
    assert_eq!(rep.faults.injected(), 0);
    assert_eq!(rep.faults.retries, 0);
    assert_bits_eq(&c_plain, &c);
}

#[test]
fn dma_corruption_is_repaired_bit_exactly() {
    let (_, c_plain, _) = baseline(Strategy::MPar);
    let (rep, c) = chaotic(
        Strategy::MPar,
        &FaultPlan::new(11).corrupt_dma(DmaPath::DdrToAm, 2),
        &ResilienceConfig::default(),
    )
    .unwrap();
    assert_eq!(rep.faults.dma_corruptions, 1);
    assert!(rep.faults.retries >= 1);
    assert!(rep.faults.recomputed_tiles >= 1);
    assert_bits_eq(&c_plain, &c);
}

#[test]
fn dma_timeout_is_retried_and_charged_on_the_clock() {
    let (plain, c_plain, _) = baseline(Strategy::MPar);
    let (rep, c) = chaotic(
        Strategy::MPar,
        &FaultPlan::new(13).timeout_dma(DmaPath::DdrToSm, 2),
        &ResilienceConfig::default(),
    )
    .unwrap();
    assert_eq!(rep.faults.dma_timeouts, 1);
    assert!(rep.faults.retries >= 1);
    // The watchdog (1 ms default) plus the re-run must show up in time.
    assert!(
        rep.seconds > plain.seconds + 1e-4,
        "timeout not charged: {} vs {}",
        rep.seconds,
        plain.seconds
    );
    assert_bits_eq(&c_plain, &c);
}

#[test]
fn scratchpad_bit_flip_is_detected_and_recovered() {
    let (_, c_plain, _) = baseline(Strategy::MPar);
    let (rep, c) = chaotic(
        Strategy::MPar,
        &FaultPlan::new(17).flip_bit(MemTarget::Sm(0), 1),
        &ResilienceConfig::default(),
    )
    .unwrap();
    assert_eq!(rep.faults.bit_flips, 1);
    assert!(rep.faults.retries >= 1);
    assert_bits_eq(&c_plain, &c);
}

#[test]
fn core_failure_degrades_onto_survivors_bit_exactly() {
    let (plain, c_plain, _) = baseline(Strategy::MPar);
    let (rep, c) = chaotic(
        Strategy::MPar,
        &FaultPlan::new(19).kill_core(1, plain.seconds * 0.5),
        &ResilienceConfig::default(),
    )
    .unwrap();
    assert_eq!(rep.faults.cores_lost, 1);
    assert!(rep.faults.retries >= 1);
    // Row partitioning does not change per-element accumulation order, so
    // even the degraded re-run reproduces the exact bits.
    assert_bits_eq(&c_plain, &c);
}

#[test]
fn degraded_kpar_matches_the_f64_oracle() {
    let (plain, _, _) = baseline(Strategy::KPar);
    let (rep, c) = chaotic(
        Strategy::KPar,
        &FaultPlan::new(23).kill_core(1, plain.seconds * 0.5),
        &ResilienceConfig::default(),
    )
    .unwrap();
    assert_eq!(rep.faults.cores_lost, 1);
    // Fewer cores regroup the GSM reduction: not bit-exact, but correct.
    assert_close(M, N, &c, &oracle(), 1e-4);
}

#[test]
fn chaos_is_deterministic_in_seed_and_plan() {
    let plan = FaultPlan::new(29)
        .corrupt_dma(DmaPath::DdrToAm, 2)
        .flip_bit(MemTarget::Sm(1), 4);
    let rcfg = ResilienceConfig::default();
    let (r1, c1) = chaotic(Strategy::MPar, &plan, &rcfg).unwrap();
    let (r2, c2) = chaotic(Strategy::MPar, &plan, &rcfg).unwrap();
    assert_eq!(r1.seconds.to_bits(), r2.seconds.to_bits());
    assert_eq!(r1.totals, r2.totals);
    assert_eq!(r1.faults, r2.faults);
    assert_bits_eq(&c1, &c2);
}

#[test]
fn exhausted_retry_budget_reports_corruption() {
    let err = chaotic(
        Strategy::MPar,
        &FaultPlan::new(31).corrupt_dma(DmaPath::DdrToAm, 1),
        &ResilienceConfig {
            max_retries: 0,
            ..ResilienceConfig::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, FtimmError::Sim(SimError::DataCorrupt { .. })),
        "got {err}"
    );
}

#[test]
fn deadline_preemption_is_reported_at_a_reproducible_instant() {
    let (plain, _, _) = baseline(Strategy::MPar);
    // Half the fault-free runtime: the watchdog must preempt mid-run.
    let deadline = plain.seconds * 0.5;
    let trip = || {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = upload_problem(&mut m);
        let cfg = EngineConfig {
            resilience: ResilienceConfig {
                ckpt_rows: 16,
                ..ResilienceConfig::default()
            },
            ..EngineConfig::default()
        };
        let mut q = JobQueue::new(cfg);
        q.submit(Job::gemm(p, Strategy::MPar, CORES).with_deadline(deadline));
        let recs = q.run_all(&ft, &mut m);
        match &recs[0].outcome {
            JobOutcome::DeadlineExceeded {
                at,
                rows_verified,
                rows_total,
            } => (*at, *rows_verified, *rows_total),
            o => panic!("expected deadline preemption, got {o:?}"),
        }
    };
    let (at1, rows1, total1) = trip();
    let (at2, rows2, total2) = trip();
    assert!(at1 >= deadline, "tripped before the deadline: {at1}");
    assert_eq!(total1, M);
    assert!(
        rows1 < M,
        "a job preempted at half time cannot have verified every row"
    );
    // Deterministic simulator: the trip instant and checkpoint progress
    // reproduce bit-for-bit.
    assert_eq!(at1.to_bits(), at2.to_bits());
    assert_eq!(rows1, rows2);
    assert_eq!(total1, total2);
}

#[test]
fn checkpointed_recovery_reexecutes_strictly_fewer_rows_bit_exactly() {
    let (_, c_plain, plan) = baseline(Strategy::MPar);
    // The same mid-run DMA hang, recovered once without checkpoints
    // (whole-problem restart) and once with 16-row spans.  The plan's
    // 32-row tasks run on one core, where each task is a round, so the
    // spans round up to two 32-row spans.
    let faults = FaultPlan::new(37).timeout_dma(DmaPath::DdrToSm, 2);
    let on_one_core = |rcfg: &ResilienceConfig| {
        let ft = FtImm::new(HwConfig::default());
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = upload_problem(&mut m);
        m.install_faults(&faults);
        let rep = run_resilient(&ft, &mut m, &p, &plan, 1, rcfg).unwrap();
        (rep, p.c.download(&mut m).unwrap())
    };
    let (full, c_full) = on_one_core(&ResilienceConfig::default());
    let (ckpt, c_ckpt) = on_one_core(&ResilienceConfig {
        ckpt_rows: 16,
        ..ResilienceConfig::default()
    });
    assert_eq!(full.faults.dma_timeouts, 1);
    assert_eq!(ckpt.faults.dma_timeouts, 1);
    // Whole-problem restart re-executes every row; the checkpointed run
    // only the faulted 32-row span.
    assert_eq!(full.faults.rows_reexecuted, M as u64);
    assert_eq!(ckpt.faults.rows_reexecuted, 32);
    assert!(ckpt.faults.rows_reexecuted < full.faults.rows_reexecuted);
    // Both recoveries are bit-exact against the fault-free run.
    assert_bits_eq(&c_plain, &c_full);
    assert_bits_eq(&c_plain, &c_ckpt);
}

#[test]
fn fault_plans_load_from_json_fixtures() {
    let plan = FaultPlan::from_json(include_str!("fixtures/dma_timeout.json")).unwrap();
    assert_eq!(plan.seed, 13);
    // The fixture reproduces the inline dma-timeout scenario exactly.
    let (_, c_plain, _) = baseline(Strategy::MPar);
    let (rep, c) = chaotic(Strategy::MPar, &plan, &ResilienceConfig::default()).unwrap();
    assert_eq!(rep.faults.dma_timeouts, 1);
    assert!(rep.faults.retries >= 1);
    assert_bits_eq(&c_plain, &c);
    // And survives a serialisation round trip unchanged.
    assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);

    let mixed = FaultPlan::from_json(include_str!("fixtures/mixed_chaos.json")).unwrap();
    let (rep, c) = chaotic(Strategy::MPar, &mixed, &ResilienceConfig::default()).unwrap();
    assert!(rep.faults.injected() >= 1, "fixture plan never fired");
    assert_close(M, N, &c, &oracle(), 1e-4);
}

/// Deterministic per-seed fault plan mixing all three fault classes.
fn plan_for_seed(seed: u64) -> FaultPlan {
    // Coordinates chosen to exist for every strategy at this shape: all
    // three runners issue >= 2 DdrToAm transfers, one DdrToGsm transfer,
    // and >= 4 reads of core 0's SM (one per micro-kernel call).
    let mut plan = FaultPlan::new(seed);
    match seed % 3 {
        0 => plan = plan.corrupt_dma(DmaPath::DdrToAm, 1 + seed % 2),
        1 => plan = plan.timeout_dma(DmaPath::DdrToAm, 1 + seed % 2),
        _ => plan = plan.flip_bit(MemTarget::Sm(0), 1 + seed % 4),
    }
    if seed.is_multiple_of(4) {
        plan = plan.corrupt_dma(DmaPath::DdrToGsm, 1);
    }
    plan
}

/// The CI sweep: 8 seeds × 3 strategies, every run recovered to an
/// oracle-correct `C`.  Ignored by default (run with `--ignored` in the
/// release-mode chaos job).
#[test]
#[ignore = "chaos sweep: run in the release-mode CI chaos job"]
fn chaos_sweep_recovers_across_seeds_and_strategies() {
    let want = oracle();
    for seed in 0..8u64 {
        let faults = plan_for_seed(seed);
        for strategy in [Strategy::MPar, Strategy::KPar, Strategy::TGemm] {
            let (rep, c) = chaotic(strategy, &faults, &ResilienceConfig::default())
                .unwrap_or_else(|e| panic!("seed {seed} {strategy:?}: {e}"));
            assert!(
                rep.faults.injected() >= 1,
                "seed {seed} {strategy:?}: plan never fired"
            );
            assert!(
                rep.faults.retries >= 1,
                "seed {seed} {strategy:?}: no recovery despite faults"
            );
            assert_close(M, N, &c, &want, 1e-4);
        }
    }
}
