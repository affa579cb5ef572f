//! Property tests over the [`ftimm::CircuitBreaker`] state machine that
//! guards each physical core (and, per cluster, feeds the health
//! monitor), plus the poison-quarantine path of the [`ftimm::JobQueue`]
//! that consumes it.
//!
//! The invariants: the breaker admits work iff it is `Closed`; it opens
//! after exactly `threshold` consecutive faults; it only leaves `Open`
//! through the cooldown (`tick`) into `HalfOpen`; the canary verdict from
//! `HalfOpen` is decisive (success recloses, fault re-opens); and a
//! success from any state fully resets it.

use dspsim::{DmaPath, ExecMode, FaultPlan, HwConfig, Machine};
use ftimm::reference::fill_matrix;
use ftimm::{
    BreakerState, CircuitBreaker, EngineConfig, FtImm, GemmProblem, Job, JobOutcome, JobQueue,
    ResilienceConfig, Strategy,
};
use proptest::prelude::*;

/// The operations a supervisor can drive a breaker through.
#[derive(Debug, Clone, Copy)]
enum Op {
    Fault,
    Success,
    Tick,
}

fn op(which: u8) -> Op {
    match which % 3 {
        0 => Op::Fault,
        1 => Op::Success,
        _ => Op::Tick,
    }
}

proptest! {
    /// Opening is exact: `threshold - 1` consecutive faults leave the
    /// breaker closed and counting, the `threshold`-th opens it.
    #[test]
    fn opens_after_exactly_threshold_faults(threshold in 1u32..16) {
        let mut b = CircuitBreaker::new();
        for i in 0..threshold - 1 {
            b.record_fault(threshold, 0.0);
            prop_assert_eq!(b.state(), BreakerState::Closed);
            prop_assert_eq!(b.consecutive_faults(), i + 1);
            prop_assert!(b.admits_work());
        }
        b.record_fault(threshold, 1e-3);
        prop_assert_eq!(b.state(), BreakerState::Open);
        prop_assert!(!b.admits_work());
    }

    /// The cooldown gates the transition: ticks before `opened_at +
    /// cooldown` keep the breaker open, a tick past it half-opens (but
    /// still does not admit regular work — only the canary probe).  The
    /// fractions leave one part in a hundred of slack so the property is
    /// about the state machine, not f64 rounding at the exact boundary.
    #[test]
    fn cooldown_gates_the_half_open_transition(
        opened_at in 0.0f64..1.0,
        cooldown in 1e-6f64..1e-2,
        frac in 0.0f64..0.99,
    ) {
        let mut b = CircuitBreaker::new();
        b.record_fault(1, opened_at);
        prop_assert_eq!(b.state(), BreakerState::Open);
        b.tick(opened_at + cooldown * frac, cooldown);
        prop_assert_eq!(b.state(), BreakerState::Open);
        b.tick(opened_at + cooldown * 1.01, cooldown);
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        prop_assert!(!b.admits_work());
    }

    /// The full supervision cycle closed → open → half-open → closed,
    /// with a failed canary re-opening (and the re-open honouring a fresh
    /// cooldown from the canary's time).
    #[test]
    fn canary_verdict_is_decisive(
        threshold in 1u32..8,
        cooldown in 1e-6f64..1e-3,
        canary_ok in 0u8..2,
    ) {
        let canary_ok = canary_ok == 1;
        let mut b = CircuitBreaker::new();
        for _ in 0..threshold {
            b.record_fault(threshold, 0.0);
        }
        prop_assert_eq!(b.state(), BreakerState::Open);
        b.tick(cooldown, cooldown);
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        if canary_ok {
            b.record_success();
            prop_assert_eq!(b.state(), BreakerState::Closed);
            prop_assert_eq!(b.consecutive_faults(), 0);
            prop_assert!(b.admits_work());
        } else {
            b.record_fault(threshold, cooldown);
            prop_assert_eq!(b.state(), BreakerState::Open);
            // Re-opened at the canary's time: the old deadline no longer
            // half-opens it.
            b.tick(cooldown + cooldown * 0.5, cooldown);
            prop_assert_eq!(b.state(), BreakerState::Open);
            b.tick(cooldown * 2.0, cooldown);
            prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        }
    }

    /// Under *any* op sequence: `admits_work()` ⇔ `Closed`, the
    /// consecutive-fault count never reaches the threshold while closed,
    /// and a success always resets to closed/zero.  Time advances
    /// monotonically like a simulated clock.
    #[test]
    fn admits_work_iff_closed_under_arbitrary_schedules(
        threshold in 1u32..6,
        cooldown in 1e-6f64..1e-3,
        ops in prop::collection::vec(0u8..255, 0..64),
    ) {
        let mut b = CircuitBreaker::new();
        let mut now = 0.0f64;
        for &w in &ops {
            now += 1e-7 + (w as f64) * 1e-8;
            match op(w) {
                Op::Fault => b.record_fault(threshold, now),
                Op::Success => {
                    b.record_success();
                    prop_assert_eq!(b.state(), BreakerState::Closed);
                    prop_assert_eq!(b.consecutive_faults(), 0);
                }
                Op::Tick => b.tick(now, cooldown),
            }
            prop_assert_eq!(b.admits_work(), b.state() == BreakerState::Closed);
            if b.state() == BreakerState::Closed {
                prop_assert!(b.consecutive_faults() < threshold);
            }
        }
    }
}

fn problem(m: &mut Machine, rows: usize, cols: usize, depth: usize) -> GemmProblem {
    let p = GemmProblem::alloc(m, rows, cols, depth).unwrap();
    p.a.upload(m, &fill_matrix(rows * depth, 1)).unwrap();
    p.b.upload(m, &fill_matrix(depth * cols, 2)).unwrap();
    p.c.upload(m, &fill_matrix(rows * cols, 3)).unwrap();
    p
}

/// The queue-level consequence of breaker verdicts: a job that keeps
/// failing is retried on a second core map excluding the implicated
/// core, and after failing on **two distinct maps** it is quarantined
/// (`Poisoned`) rather than retried forever.
#[test]
fn job_failing_on_two_core_maps_is_quarantined() {
    let ft = FtImm::new(HwConfig::default());
    let mut m = Machine::with_mode(ExecMode::Compiled);
    // More A-panel timeouts than any retry budget can absorb.
    let mut plan = FaultPlan::new(33);
    for n in 1..=64 {
        plan = plan.timeout_dma(DmaPath::DdrToAm, n);
    }
    m.install_faults(&plan);
    let mut q = JobQueue::new(EngineConfig {
        resilience: ResilienceConfig {
            max_retries: 1,
            ..ResilienceConfig::default()
        },
        ..EngineConfig::default()
    });
    q.submit(Job::gemm(problem(&mut m, 64, 24, 48), Strategy::MPar, 4));
    let recs = q.run_all(&ft, &mut m);
    match &recs[0].outcome {
        JobOutcome::Poisoned {
            attempts,
            core_maps,
            ..
        } => {
            assert_eq!(*attempts, 2);
            assert_eq!(core_maps.len(), 2, "quarantine after exactly 2 maps");
            assert_ne!(core_maps[0], core_maps[1], "distinct maps were tried");
        }
        o => panic!("expected quarantined job, got {o:?}"),
    }
}
