//! Model of the 16-core ARMv8 CPU of FT-m7032 (a cut-down Phytium
//! FT-2000plus, §II of the paper: 281.6 GFLOPS single-precision peak,
//! sharing the 42.6 GB/s DDR bandwidth "based on the same bandwidth").

/// CPU hardware and OpenBLAS-model parameters.
///
/// The performance-model constants (`ko`, `no`, `mo`, `kernel_base`) are
/// calibrated so the model matches the behaviour reported for OpenBLAS on
/// ARMv8 multi-cores by the irregular-GEMM literature (LibShalom,
/// AutoTSMM): near-peak on large regular shapes, single-digit-to-low-tens
/// efficiency on small/irregular shapes.  See DESIGN.md §8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Number of cores (paper: 16).
    pub cores: usize,
    /// Clock in Hz (2.2 GHz: gives the paper's 281.6 GFLOPS peak).
    pub clock_hz: f64,
    /// FMA flops per cycle per core (one 128-bit NEON FMA pipe = 8).
    pub flops_per_cycle: usize,
    /// DDR bandwidth shared by all cores, bytes/s (same as the cluster).
    pub ddr_bw: f64,
    /// Achievable fraction of the DDR bandwidth.
    pub bw_efficiency: f64,
    /// OpenBLAS micro-kernel rows (MR).
    pub mr: usize,
    /// OpenBLAS micro-kernel columns (NR).
    pub nr: usize,
    /// Loop/reuse overhead constant for the K dimension.
    pub ko: f64,
    /// Loop/reuse overhead constant for the N dimension (B-panel reuse:
    /// the dominant penalty at N ≤ 96).
    pub no: f64,
    /// Loop/reuse overhead constant for the per-thread M extent.
    pub mo: f64,
    /// Peak fraction of the inner kernel on ideal shapes.
    pub kernel_base: f64,
    /// Fork/join barrier cost per parallel GEMM region, seconds.
    pub barrier_s: f64,
    /// Last-level cache capacity (bytes); a packed B panel larger than
    /// this is re-streamed from DDR for every MC-row block.
    pub l2_bytes: usize,
    /// Goto MC blocking (rows per packed A block).
    pub mc: usize,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 16,
            clock_hz: 2.2e9,
            flops_per_cycle: 8,
            ddr_bw: 42.6e9,
            bw_efficiency: 0.75,
            mr: 8,
            nr: 8,
            ko: 32.0,
            no: 160.0,
            mo: 4.0,
            kernel_base: 0.88,
            barrier_s: 8e-6,
            l2_bytes: 32 << 20,
            mc: 256,
        }
    }
}

impl CpuConfig {
    /// Peak flop/s of one core.
    pub fn core_peak_flops(&self) -> f64 {
        self.flops_per_cycle as f64 * self.clock_hz
    }

    /// Peak flop/s of the whole CPU.
    pub fn peak_flops(&self) -> f64 {
        self.core_peak_flops() * self.cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_paper() {
        let c = CpuConfig::default();
        assert!((c.peak_flops() - 281.6e9).abs() < 1e6);
        assert!((c.core_peak_flops() - 17.6e9).abs() < 1e3);
    }
}
