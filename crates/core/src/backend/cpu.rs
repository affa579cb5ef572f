//! The host CPU as a fallback execution backend.
//!
//! [`CpuBackend`] executes a resolved [`ChosenStrategy`] on the host with
//! the DSP path's exact blocking and accumulation order (the host mirror
//! in `backend/host.rs` consumes the same [`crate::walk::Walk`] the DSP
//! emitters do), making it a drop-in *last fault domain* for the
//! sharded engine: output bits are indistinguishable from an all-DSP run.
//!
//! ## Timing
//!
//! The host walk computes real values but the simulation's notion of time
//! stays analytic: each dispatch charges
//! [`cpublas::predict`]`(rows, n, k).seconds × slowdown` to the backend's
//! own clock, distributed pro-rata (by rows) across the dispatch's
//! checkpoint spans so mid-dispatch faults and deadlines land on span
//! boundaries exactly like the DSP's checkpointed salvage.  The CPU clock
//! is independent of any cluster's clock — the engine merges them when it
//! accounts a job.
//!
//! ## Faults and deadlines
//!
//! Seeded fault plans extend to the CPU lane
//! ([`dspsim::FaultPlan::cpu_slowdown`] multiplies charged time;
//! [`dspsim::FaultPlan::fail_cpu`] kills the n-th span ever run, counting
//! from 1, losing that span's work).  A dispatch given a deadline budget
//! stops at the first span that would overrun it, clamping the clock to
//! the budget; the sharded engine passes none.  Either way [`CpuStripeRun::rows_verified`] tells the
//! caller exactly which prefix of the stripe completed, and the backend's
//! [`CircuitBreaker`] records the fault so spill policies can stop
//! routing work at a trip threshold.

use crate::cluster::CircuitBreaker;
use crate::error::FtimmError;
use crate::walk::{cluster_cores, Walk};
use crate::ChosenStrategy;
use cpublas::CpuConfig;
use dspsim::{FaultPlan, Phase, Profiler, Span};
use kernelgen::KernelExecutor;

/// How a CPU-lane dispatch ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuLaneOutcome {
    /// Every span of the stripe completed.
    Done,
    /// An armed transient CPU fault killed the `nth` span ever run on
    /// this backend (1-based, across all dispatches).
    Fault {
        /// Which armed failure fired (its `nth` counter value).
        nth: u64,
    },
    /// The dispatch's deadline budget expired before the failing span;
    /// the clock was clamped to `at` seconds on the CPU clock.
    Deadline {
        /// CPU-clock time at which the budget ran out.
        at: f64,
    },
}

/// Result of one stripe dispatch on the CPU backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuStripeRun {
    /// Terminal state of the dispatch.
    pub outcome: CpuLaneOutcome,
    /// Rows of the stripe whose output is complete and correct (always a
    /// prefix: spans run in row order and a failed span's work is lost).
    pub rows_verified: usize,
    /// Simulated seconds this dispatch charged to the CPU clock.
    pub seconds: f64,
}

/// A stateful host CPU executor: the last fault domain of the sharded
/// engine.  Carries its own simulated clock, circuit breaker, armed
/// faults and profiler track.
pub struct CpuBackend {
    cfg: CpuConfig,
    /// `cores_per_cluster` of the DSP plans being replayed — the host
    /// walk must clamp the plan's core count exactly as a fully-healthy
    /// cluster would.
    dsp_cores_per_cluster: usize,
    clock: f64,
    /// Spans ever run on this backend, 1-based at comparison time:
    /// incremented before each span, matched against armed `fail_cpu`
    /// nths.
    spans_run: u64,
    slowdown: f64,
    armed_failures: Vec<u64>,
    dispatches: u64,
    breaker: CircuitBreaker,
    profiler: Profiler,
}

impl CpuBackend {
    /// A fresh CPU backend with clock at zero, no armed faults, a closed
    /// breaker and profiling off.  Plans are replayed as if for a
    /// default-config cluster; see [`CpuBackend::with_dsp_cores`].
    pub fn new(cfg: CpuConfig) -> Self {
        CpuBackend {
            cfg,
            dsp_cores_per_cluster: dspsim::HwConfig::default().cores_per_cluster,
            clock: 0.0,
            spans_run: 0,
            slowdown: 1.0,
            armed_failures: Vec::new(),
            dispatches: 0,
            breaker: CircuitBreaker::new(),
            profiler: Profiler::disabled(),
        }
    }

    /// Set the `cores_per_cluster` of the DSP machines whose plans this
    /// backend replays (the host walk's core clamp must match the
    /// cluster the plan was pinned for).
    pub fn with_dsp_cores(mut self, cores_per_cluster: usize) -> Self {
        self.dsp_cores_per_cluster = cores_per_cluster;
        self
    }

    /// The CPU model config (also the analytic cost model's input).
    pub fn cpu_cfg(&self) -> &CpuConfig {
        &self.cfg
    }

    /// The compounded lane-health slowdown factor charged per dispatch
    /// (1.0 until a [`FaultPlan::cpu_slowdown`] is installed).  The
    /// co-execution planner reads this so a degraded lane is split
    /// against honestly.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Arm the CPU-lane faults of `plan`: slowdowns compound
    /// multiplicatively into the charged time; each `fail_cpu(nth)`
    /// kills the nth span ever run on this backend.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.slowdown *= plan.cpu_slowdown_factor();
        self.armed_failures
            .extend(plan.cpu_failures.iter().map(|f| f.nth));
    }

    /// Simulated seconds elapsed on the CPU's own clock.
    pub fn elapsed(&self) -> f64 {
        self.clock
    }

    /// Number of stripe dispatches ever issued to this backend.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// The CPU lane's circuit breaker (read side).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The CPU lane's circuit breaker (policy side: engines record
    /// faults/successes and tick cooldowns here).
    pub fn breaker_mut(&mut self) -> &mut CircuitBreaker {
        &mut self.breaker
    }

    /// Enable the profiler track (one span per checkpoint span run).
    pub fn enable_profiling(&mut self, capacity: usize) {
        self.profiler = Profiler::enabled(capacity);
    }

    /// Take the profiler track, leaving profiling disabled.
    pub fn take_profiler(&mut self) -> Profiler {
        std::mem::replace(&mut self.profiler, Profiler::disabled())
    }

    /// Execute a `rows × n × k` GEMM stripe (`C += A×B`) on the host
    /// with the blocking walk of `strategy`, checkpointed every
    /// `ckpt_rows` rows (0 = one span).  `a`/`c` are the *stripe* slices
    /// (`rows × k` and `rows × n`, dense); `b` is the full `k × n`
    /// matrix.  In timing mode the buffers are empty and only time is
    /// charged (the sharded engine's data-free job convention).
    /// `deadline_budget` is this dispatch's allowance on the CPU clock,
    /// if any.
    ///
    /// Values are computed span by span so a fault or deadline loses
    /// only the failing span; completed spans stay in `c` (the engine's
    /// salvage contract).  Errors never surface as `Err` — the terminal
    /// state is in [`CpuStripeRun::outcome`] — but the signature keeps
    /// kernel-generation errors honest.
    #[allow(clippy::too_many_arguments)]
    pub fn run_stripe(
        &mut self,
        ex: &KernelExecutor,
        strategy: &ChosenStrategy,
        cores: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        n: usize,
        k: usize,
        rows: usize,
        ckpt_rows: usize,
        deadline_budget: Option<f64>,
    ) -> Result<CpuStripeRun, FtimmError> {
        self.dispatches += 1;
        let t_start = self.clock;
        if rows == 0 {
            return Ok(CpuStripeRun {
                outcome: CpuLaneOutcome::Done,
                rows_verified: 0,
                seconds: 0.0,
            });
        }
        // One model evaluation per dispatch, distributed pro-rata by
        // rows across the checkpoint spans.
        let total_s = super::predict_cpu_stripe(&self.cfg, rows, n, k, self.slowdown).seconds;
        let per_row_s = total_s / rows as f64;
        let cores = cluster_cores(cores, self.dsp_cores_per_cluster);
        let grid = Walk::new(strategy, rows, n, k, cores).grid();
        let spans = grid.spans(rows, ckpt_rows);
        let mut rows_verified = 0usize;
        for &(s0, s1) in &spans {
            let span_s = per_row_s * (s1 - s0) as f64;
            // Deadline check first: a span that cannot finish inside the
            // budget is not started rather than completing late.
            if let Some(budget) = deadline_budget {
                if self.clock - t_start + span_s > budget {
                    // Deadline preemption is not a backend fault — the
                    // breaker is untouched (the engine decides policy).
                    self.clock = t_start + budget;
                    return Ok(CpuStripeRun {
                        outcome: CpuLaneOutcome::Deadline { at: self.clock },
                        rows_verified,
                        seconds: self.clock - t_start,
                    });
                }
            }
            self.spans_run += 1;
            if let Some(pos) = self
                .armed_failures
                .iter()
                .position(|&nth| nth == self.spans_run)
            {
                // The span's time was spent but its work is lost.
                self.armed_failures.swap_remove(pos);
                let nth = self.spans_run;
                self.clock += span_s;
                return Ok(CpuStripeRun {
                    outcome: CpuLaneOutcome::Fault { nth },
                    rows_verified,
                    seconds: self.clock - t_start,
                });
            }
            if !c.is_empty() {
                super::host::run_strategy_host(
                    ex,
                    strategy,
                    cores,
                    self.dsp_cores_per_cluster,
                    &a[s0 * k..s1 * k],
                    b,
                    &mut c[s0 * n..s1 * n],
                    s1 - s0,
                    n,
                    k,
                )?;
            }
            let t0 = self.clock;
            self.clock += span_s;
            self.profiler.record(Span {
                phase: Phase::Compute,
                core: 0,
                t0,
                t1: self.clock,
            });
            rows_verified = s1;
        }
        self.breaker.record_success();
        Ok(CpuStripeRun {
            outcome: CpuLaneOutcome::Done,
            rows_verified,
            seconds: self.clock - t_start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, FtImm, GemmShape, Strategy};
    use dspsim::HwConfig;

    /// The span tests run the 8-core plans (32-row tasks) on one core,
    /// where every task is a round: 32-row checkpoints stay 32-row spans.
    const ONE_CORE: usize = 1;

    fn setup(m: usize, n: usize, k: usize) -> (FtImm, Vec<f32>, Vec<f32>, Vec<f32>) {
        let ft = FtImm::new(HwConfig::default());
        (
            ft,
            reference::fill_matrix(m * k, 11),
            reference::fill_matrix(k * n, 12),
            reference::fill_matrix(m * n, 13),
        )
    }

    #[test]
    fn stripe_run_matches_reference_and_charges_model_time() {
        let (m, n, k) = (96, 32, 64);
        let (ft, a, b, c0) = setup(m, n, k);
        let strategy = ft.plan(&GemmShape::new(m, n, k), Strategy::Auto, 8);
        let want = reference::sgemm_f64(m, n, k, &a, &b, &c0);

        let mut be = CpuBackend::new(CpuConfig::default());
        let mut c = c0;
        let run = be
            .run_stripe(
                ft.executor(),
                &strategy,
                8,
                &a,
                &b,
                &mut c,
                n,
                k,
                m,
                32,
                None,
            )
            .unwrap();
        assert_eq!(run.outcome, CpuLaneOutcome::Done);
        assert_eq!(run.rows_verified, m);
        let model = cpublas::predict(&CpuConfig::default(), m, n, k).seconds;
        assert!((run.seconds - model).abs() < 1e-12 * model.max(1.0));
        assert!((be.elapsed() - run.seconds).abs() < 1e-15);
        assert_eq!(be.dispatches(), 1);
        reference::assert_close(m, n, &c, &want, 1e-4);
    }

    #[test]
    fn armed_cpu_fault_kills_the_nth_span_and_keeps_the_prefix() {
        let (m, n, k) = (128, 32, 48);
        let (ft, a, b, c0) = setup(m, n, k);
        let strategy = ft.plan(&GemmShape::new(m, n, k), Strategy::Auto, 8);
        let mut be = CpuBackend::new(CpuConfig::default());
        be.install_faults(&FaultPlan::new(7).fail_cpu(2).cpu_slowdown(3.0));

        let mut c = c0.clone();
        let run = be
            .run_stripe(
                ft.executor(),
                &strategy,
                ONE_CORE,
                &a,
                &b,
                &mut c,
                n,
                k,
                m,
                32,
                None,
            )
            .unwrap();
        assert_eq!(run.outcome, CpuLaneOutcome::Fault { nth: 2 });
        // Span 1 (rows 0..32) survived; span 2 died before computing.
        assert_eq!(run.rows_verified, 32);
        // Slowdown compounds into the charged time: 2 spans' worth at 3×.
        let base = cpublas::predict(&CpuConfig::default(), m, n, k).seconds / 4.0;
        assert!((run.seconds - 2.0 * base * 3.0).abs() < 1e-12);
        // The fault tripped nothing yet (threshold is the engine's call),
        // but a later clean dispatch records success.
        let run2 = be
            .run_stripe(
                ft.executor(),
                &strategy,
                ONE_CORE,
                &a,
                &b,
                &mut c,
                n,
                k,
                m,
                0,
                None,
            )
            .unwrap();
        assert_eq!(run2.outcome, CpuLaneOutcome::Done);
        assert_eq!(be.dispatches(), 2);
    }

    #[test]
    fn deadline_budget_clamps_the_clock_on_a_span_boundary() {
        let (m, n, k) = (128, 32, 48);
        let (ft, a, b, c0) = setup(m, n, k);
        let strategy = ft.plan(&GemmShape::new(m, n, k), Strategy::Auto, 8);
        let mut be = CpuBackend::new(CpuConfig::default());
        let total = cpublas::predict(&CpuConfig::default(), m, n, k).seconds;
        // Budget covers two of the four 32-row spans plus change.
        let budget = total * 0.6;
        let mut c = c0;
        let run = be
            .run_stripe(
                ft.executor(),
                &strategy,
                ONE_CORE,
                &a,
                &b,
                &mut c,
                n,
                k,
                m,
                32,
                Some(budget),
            )
            .unwrap();
        assert_eq!(run.outcome, CpuLaneOutcome::Deadline { at: budget });
        assert_eq!(run.rows_verified, 64);
        assert!((be.elapsed() - budget).abs() < 1e-15);
    }

    #[test]
    fn profiler_track_records_one_compute_span_per_ckpt_span() {
        let (m, n, k) = (96, 32, 40);
        let (ft, a, b, c0) = setup(m, n, k);
        let strategy = ft.plan(&GemmShape::new(m, n, k), Strategy::Auto, 8);
        let mut be = CpuBackend::new(CpuConfig::default());
        be.enable_profiling(64);
        let mut c = c0;
        be.run_stripe(
            ft.executor(),
            &strategy,
            ONE_CORE,
            &a,
            &b,
            &mut c,
            n,
            k,
            m,
            32,
            None,
        )
        .unwrap();
        let prof = be.take_profiler();
        let spans: Vec<_> = prof.spans().copied().collect();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.phase == Phase::Compute));
        assert!(spans.windows(2).all(|w| w[0].t1 <= w[1].t0));
        assert!((spans.last().unwrap().t1 - be.elapsed()).abs() < 1e-15);
    }
}
