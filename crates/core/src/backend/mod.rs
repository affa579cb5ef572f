//! Execution backends: the heterogeneous dispatch layer.
//!
//! FT-m7032 is a heterogeneous part — four GPDSP clusters *plus* a
//! 16-core ARMv8 CPU (§II of the paper).  Everything else in this crate
//! targets the simulated DSP cluster; this module promotes the CPU from
//! a Fig. 7 chart baseline to a real execution resource:
//!
//! * [`CpuBackend`] — a stateful host executor that runs a resolved
//!   [`crate::ChosenStrategy`] on the host CPU with the **same blocking
//!   and accumulation order as the DSP path** (the kernelgen tiling
//!   walk), so a job that fails over from the DSP pool to the CPU
//!   produces bitwise identical output.  Simulated time is charged from
//!   [`cpublas::predict`]; see [`cpu`] for the fault and deadline model.
//! * [`CpuBackend::predict`] — the nominal analytic prediction
//!   ([`BackendPrediction`]) of a GEMM on the CPU, so the Fig. 7
//!   comparison and live dispatch share one model and one config; the
//!   DSP side is priced by [`crate::FtImm`]'s planner and timing model.
//!
//! The sharded engine ([`crate::cluster::ShardedEngine`]) uses the CPU
//! backend in two roles: as a planned *peer* under
//! [`crate::cluster::SpillPolicy::CoExecute`] (the co-execution planner
//! in [`crate::plan::plan_coexec`] places an M-stripe tail on the CPU
//! when both cost models say the split wins), and as the *last fault
//! domain* — when every cluster is dead or unusable, shards spill to
//! the CPU instead of being shed (gated by
//! [`crate::cluster::SpillPolicy`]).  See DESIGN.md §4.4.
//!
//! Every consumer of the CPU cost model — [`CpuBackend::predict`], the
//! stripe executor's time charge, the co-execution split chooser and the
//! bench fig7/hetero gates — routes through [`predict_cpu_stripe`], so
//! the ±30% `--assert-cpu-model` gate and the planner can never drift
//! apart.

pub mod cpu;
pub(crate) mod host;

pub use cpu::{CpuBackend, CpuLaneOutcome, CpuStripeRun};

use crate::GemmShape;

/// An analytic performance prediction from a backend's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendPrediction {
    /// Predicted wall time, seconds.
    pub seconds: f64,
    /// Achieved flop/s implied by the prediction.
    pub flops_per_s: f64,
    /// Efficiency against the backend's own peak.
    pub efficiency: f64,
}

/// The one shared evaluation of the CPU cost model: predict a
/// `m × n × k` GEMM stripe on the host described by `cfg`, scaled by a
/// lane-health `slowdown` factor (1.0 = nominal).  Everything that
/// consults the CPU model — [`CpuBackend::predict`] and its
/// per-dispatch time charge, the co-execution split chooser
/// ([`crate::plan::choose_coexec_split`]) and the bench CPU-model gates —
/// calls this, so a change to the slowdown or derivation arithmetic can
/// never leave one call site behind.
///
/// `flops_per_s` and `efficiency` are derived from the *scaled* seconds,
/// so a degraded lane honestly reports degraded throughput.  Panics if
/// any dimension is zero (as [`cpublas::predict`] does): callers decide
/// what an empty stripe means.
pub fn predict_cpu_stripe(
    cfg: &cpublas::CpuConfig,
    m: usize,
    n: usize,
    k: usize,
    slowdown: f64,
) -> BackendPrediction {
    let p = cpublas::predict(cfg, m, n, k);
    let seconds = p.seconds * slowdown;
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let flops_per_s = if seconds > 0.0 { flops / seconds } else { 0.0 };
    BackendPrediction {
        seconds,
        flops_per_s,
        efficiency: flops_per_s / cfg.peak_flops(),
    }
}

impl CpuBackend {
    /// Predicted performance for `C += A×B` of `shape` on the *nominal*
    /// lane (slowdown 1.0): placement comparisons and the bench gates
    /// reason about the healthy device; lane-health scaling is the
    /// dispatcher's business (see [`CpuBackend::run_stripe`]).
    pub fn predict(&self, shape: &GemmShape) -> BackendPrediction {
        predict_cpu_stripe(self.cpu_cfg(), shape.m, shape.n, shape.k, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_backend_prediction_matches_the_cpublas_model() {
        let be = CpuBackend::new(cpublas::CpuConfig::default());
        let shape = GemmShape::new(2560, 32, 2560);
        let want = cpublas::predict(&cpublas::CpuConfig::default(), 2560, 32, 2560);
        let got = be.predict(&shape);
        assert_eq!(got.seconds.to_bits(), want.seconds.to_bits());
        assert_eq!(got.efficiency.to_bits(), want.efficiency.to_bits());
    }
}
