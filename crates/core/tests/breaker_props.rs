//! Property tests over the [`ftimm::CircuitBreaker`] state machine that
//! guards each physical core (and, per cluster, feeds the health
//! monitor) and the CPU lane, plus the terminal outcome of a
//! [`ftimm::ShardedEngine`] job whose faults outlast its retries.
//!
//! The invariants: the breaker admits work iff it is `Closed`; it opens
//! after exactly `threshold` consecutive faults; it only leaves `Open`
//! through the cooldown (`tick`) into `HalfOpen`; the canary verdict from
//! `HalfOpen` is decisive (success recloses, fault re-opens); and a
//! success from any state fully resets it.

use dspsim::{DmaPath, ExecMode, FaultPlan, HwConfig};
use ftimm::reference::fill_matrix;
use ftimm::{
    BreakerState, CircuitBreaker, ClusterPool, EngineConfig, FtImm, ResilienceConfig,
    ShardedConfig, ShardedEngine, ShardedJob, ShardedOutcome, Strategy, TenantSpec,
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

/// A job whose faults outlast the retry budget on a one-cluster engine
/// ends in exactly one terminal `Failed`, carrying the transient fault
/// that exhausted it: the engine neither retries it on another core map
/// nor drops it.
#[test]
fn job_exhausting_its_retries_fails_once_with_the_transient_fault() {
    let ft = FtImm::new(HwConfig::default());
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let mut eng = ShardedEngine::new(
        pool,
        ShardedConfig {
            engine: EngineConfig {
                resilience: ResilienceConfig {
                    max_retries: 1,
                    ..ShardedConfig::default().engine.resilience
                },
            },
            ..ShardedConfig::default()
        },
    );
    // More A-panel timeouts than any retry budget can absorb.
    let mut plan = FaultPlan::new(33);
    for n in 1..=64 {
        plan = plan.timeout_dma(DmaPath::DdrToAm, n);
    }
    eng.install_faults(0, &plan);
    let (m, n, k) = (64, 24, 48);
    let t = eng.register_tenant(TenantSpec::new("t", 1));
    eng.submit(
        t,
        ShardedJob::gemm(
            m,
            n,
            k,
            fill_matrix(m * k, 1),
            fill_matrix(k * n, 2),
            fill_matrix(m * n, 3),
            Strategy::MPar,
            4,
        ),
    );
    let records = eng.run_all(&ft);
    assert_eq!(records.len(), 1);
    match &records[0].outcome {
        ShardedOutcome::Failed { error } => {
            assert!(error.is_transient_fault(), "got {error}");
        }
        o => panic!("expected a failed job, got {o:?}"),
    }
}
