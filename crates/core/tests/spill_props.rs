//! Property tests over the [`ftimm::SpillPolicy`] state machine that
//! governs when the sharded engine may use the host CPU lane — the last
//! fault domain behind the cluster pool.
//!
//! The invariants, under arbitrary cluster-kill schedules, CPU fault
//! plans and queue pressure:
//!
//! 1. Every submitted [`ftimm::JobId`] reaches exactly one terminal
//!    outcome — the drained records cover the submitted ids exactly
//!    once, in id order.  Failover, spill and shedding may change
//!    *which* outcome, never *whether* one arrives.
//! 2. [`SpillPolicy::Never`] never touches the CPU lane: zero CPU
//!    dispatches, even when every cluster is dead and CPU faults are
//!    armed (they must stay un-sprung).
//! 3. With spilling enabled and a clean CPU (no armed faults), no job
//!    ends `failed`: the CPU lane absorbs every no-usable-cluster
//!    condition, so jobs complete or shed under queue pressure — the
//!    "every fault domain is dead" terminal error is unreachable.

use dspsim::{ExecMode, FaultPlan, HwConfig};
use ftimm::{
    ClusterPool, EngineConfig, FtImm, ResilienceConfig, ShardedConfig, ShardedEngine, ShardedJob,
    ShardedOutcome, SpillPolicy, Strategy, TenantSpec,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Shared planner so the plan cache stays hot across generated cases.
fn ft() -> &'static FtImm {
    static FT: OnceLock<FtImm> = OnceLock::new();
    FT.get_or_init(|| FtImm::new(HwConfig::default()))
}

/// Timing-mode job shapes: small enough to drain fast, multi-span under
/// the ckpt grid so kills and CPU faults land mid-job.
const SHAPES: [(usize, usize, usize); 3] = [(192, 32, 48), (256, 16, 64), (320, 48, 32)];

/// Kill times that land before, around and after typical shard spans.
const KILL_TIMES: [f64; 4] = [1e-5, 5e-5, 2e-4, 1e-3];

fn policy(sel: usize) -> SpillPolicy {
    match sel {
        0 => SpillPolicy::Never,
        1 => SpillPolicy::LastResort,
        _ => SpillPolicy::CoExecute,
    }
}

/// One submitted job of shape `SHAPES[shape_sel]`.
fn job(shape_sel: usize) -> ShardedJob {
    let (m, n, k) = SHAPES[shape_sel % SHAPES.len()];
    ShardedJob::timing(m, n, k, Strategy::Auto, 4)
}

fn cfg(spill: SpillPolicy) -> ShardedConfig {
    ShardedConfig {
        engine: EngineConfig {
            resilience: ResilienceConfig {
                ckpt_rows: 64,
                ..ResilienceConfig::default()
            },
        },
        // Tight queue capacity so multi-job cases exercise shedding.
        max_queue_per_cluster: 2,
        spill,
        ..ShardedConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_job_reaches_exactly_one_terminal_outcome(
        clusters in 1usize..4,
        policy_sel in 0usize..3,
        jobs in prop::collection::vec(0usize..3, 1..6),
        kills in prop::collection::vec((0usize..4, 0usize..4), 0..4),
        cpu_fault_nth in 0u64..4,
        cpu_slow_sel in 0u8..3,
    ) {
        let spill = policy(policy_sel);
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, clusters);
        let mut eng = ShardedEngine::new(pool, cfg(spill));

        // Arbitrary kill schedule: fault plans compose per cluster.
        for (i, &(csel, tsel)) in kills.iter().enumerate() {
            eng.install_faults(
                csel % clusters,
                &FaultPlan::new(11 + i as u64).kill_cluster(KILL_TIMES[tsel]),
            );
        }
        // Optional CPU faults: an armed nth-dispatch failure and a
        // slowdown; under `Never` these must never spring.
        let cpu_faulty = cpu_fault_nth > 0;
        if cpu_faulty {
            eng.install_cpu_faults(&FaultPlan::new(23).fail_cpu(cpu_fault_nth));
        }
        if cpu_slow_sel > 0 {
            eng.install_cpu_faults(
                &FaultPlan::new(29).cpu_slowdown(1.0 + f64::from(cpu_slow_sel)),
            );
        }

        let t = eng.register_tenant(TenantSpec::new("props", 5));
        let submitted: Vec<_> = jobs.iter().map(|&s| eng.submit(t, job(s))).collect();

        let records = eng.run_all(ft());

        // 1. Exactly one terminal outcome per submitted id, id-sorted.
        let ids: Vec<_> = records.iter().map(|r| r.id).collect();
        prop_assert_eq!(&ids, &submitted, "records must cover submissions exactly once");

        // 2. `Never` keeps the CPU lane cold no matter what dies.
        if spill == SpillPolicy::Never {
            prop_assert_eq!(eng.cpu_dispatches(), 0);
        }

        for r in &records {
            // The tenant is registered and jobs are valid, so
            // `rejected` is out of reach in this space.
            prop_assert!(
                !matches!(r.outcome, ShardedOutcome::Rejected { .. }),
                "unexpected rejection for {:?}",
                r.id
            );
            // 3. Spilling + clean CPU ⇒ the terminal "every fault
            // domain is dead" failure is unreachable.
            if spill != SpillPolicy::Never && !cpu_faulty {
                prop_assert!(
                    !matches!(r.outcome, ShardedOutcome::Failed { .. }),
                    "{:?} failed despite an available CPU lane",
                    r.id
                );
            }
        }
    }
}
