//! Analytic performance model of OpenBLAS-style SGEMM on the modelled
//! ARMv8 CPU.
//!
//! OpenBLAS implements the Goto algorithm: pack a block of A and a panel
//! of B into contiguous buffers, then drive an `MR × NR` register kernel;
//! threads split the M dimension.  The model captures its first-order
//! costs:
//!
//! * **compute**: `flops / (threads · core_peak · eff_kernel)`, where the
//!   kernel efficiency shrinks for small K (pipeline fill), small N
//!   (B-panel reuse — the dominant irregular-shape penalty) and a small
//!   per-thread M share;
//! * **memory**: operand traffic plus the pack write+re-read of A and B
//!   over the shared DDR interface;
//! * **threading**: at most `M / MR` useful threads, plus a fork/join
//!   barrier per K panel.

use crate::CpuConfig;

/// Model output for one GEMM shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPrediction {
    /// Predicted wall time, seconds.
    pub seconds: f64,
    /// Achieved flop/s.
    pub flops_per_s: f64,
    /// Efficiency against the CPU's own peak.
    pub efficiency: f64,
    /// Number of threads the model engages.
    pub threads: usize,
    /// Whether the shape was memory-bound.
    pub memory_bound: bool,
}

/// Predict OpenBLAS SGEMM performance for `C += A×B` of shape `M×N×K`.
pub fn predict(cfg: &CpuConfig, m: usize, n: usize, k: usize) -> CpuPrediction {
    assert!(m > 0 && n > 0 && k > 0, "empty GEMM");
    let flops = 2.0 * m as f64 * n as f64 * k as f64;

    // Threads split M in MR-row chunks.
    let threads = (m / cfg.mr).clamp(1, cfg.cores);
    let m_t = m as f64 / threads as f64;

    // Kernel efficiency: base × K fill × N reuse × per-thread M extent.
    let eff = cfg.kernel_base
        * (k as f64 / (k as f64 + cfg.ko))
        * (n as f64 / (n as f64 + cfg.no))
        * (m_t / (m_t + cfg.mo));
    let compute = flops / (threads as f64 * cfg.core_peak_flops() * eff);

    // Traffic: read A, B, C; write C; pack A and B (write + re-read).
    let (mf, nf, kf) = (m as f64, n as f64, k as f64);
    let mut traffic = 4.0 * (3.0 * mf * kf + 3.0 * kf * nf + 2.0 * mf * nf);
    // A packed B panel that exceeds the last-level cache is re-streamed
    // from DDR for every MC-row block of A.
    let b_panel = 4.0 * kf * nf;
    if b_panel > cfg.l2_bytes as f64 {
        let blocks = (mf / cfg.mc as f64).ceil().max(1.0);
        traffic += b_panel * (blocks - 1.0);
    }
    let memory = traffic / (cfg.ddr_bw * cfg.bw_efficiency);

    // One fork/join per K panel of 512 (OpenBLAS's KC-ish granularity).
    let barriers = cfg.barrier_s * (1.0 + (kf / 512.0).floor());

    let seconds = compute.max(memory) + barriers;
    let flops_per_s = flops / seconds;
    CpuPrediction {
        seconds,
        flops_per_s,
        efficiency: flops_per_s / cfg.peak_flops(),
        threads,
        memory_bound: memory > compute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CpuConfig {
        CpuConfig::default()
    }

    #[test]
    fn large_regular_gemm_is_near_peak() {
        let p = predict(&cfg(), 4096, 4096, 4096);
        assert!(p.efficiency > 0.70, "{p:?}");
        assert!(p.efficiency < 0.95, "{p:?}");
        assert_eq!(p.threads, 16);
        assert!(!p.memory_bound);
    }

    #[test]
    fn small_n_collapses_kernel_reuse() {
        // The irregular-shape regime the paper targets: N ≤ 96.
        let p96 = predict(&cfg(), 20480, 96, 20480);
        let p32 = predict(&cfg(), 20480, 32, 20480);
        assert!(p96.efficiency < 0.5, "{p96:?}");
        assert!(p32.efficiency < p96.efficiency);
        assert!(p32.efficiency > 0.02);
    }

    #[test]
    fn tiny_m_limits_threads() {
        let p = predict(&cfg(), 32, 32, 1 << 16);
        assert_eq!(p.threads, 4);
        assert!(p.efficiency < 0.05, "{p:?}");
    }

    #[test]
    fn tall_skinny_is_memory_or_overhead_bound() {
        let p = predict(&cfg(), 1 << 22, 32, 32);
        assert!(p.efficiency < 0.25, "{p:?}");
        assert!(p.seconds > 0.0);
    }

    #[test]
    fn monotone_in_problem_size() {
        let a = predict(&cfg(), 1024, 64, 1024).seconds;
        let b = predict(&cfg(), 2048, 64, 1024).seconds;
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "empty GEMM")]
    fn zero_dims_panic() {
        predict(&cfg(), 0, 1, 1);
    }

    #[test]
    fn oversized_b_panels_pay_l2_re_streaming() {
        // K×N = 8192×4096 f32 = 128 MiB ≫ 32 MiB L2: re-streamed per MC
        // block.  Same flops with a cache-resident panel runs faster.
        let big_panel = predict(&cfg(), 8192, 4096, 8192);
        let resident = predict(&cfg(), 8192 * 16, 256, 8192); // same flops, 8 MiB panel
        assert!(
            big_panel.seconds > 0.0 && resident.seconds > 0.0,
            "sane predictions"
        );
        // The re-streaming term adds real traffic for the big panel.
        let mut no_l2 = cfg();
        no_l2.l2_bytes = usize::MAX;
        let ideal = predict(&no_l2, 8192, 4096, 8192);
        assert!(big_panel.seconds >= ideal.seconds);
    }
}
