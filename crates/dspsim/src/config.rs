//! Hardware configuration of the modelled FT-m7032 GPDSP cluster.
//!
//! Values stated in §II of the paper are used verbatim; values the paper
//! does not state are invented-but-documented (see DESIGN.md §8) and kept
//! here so every experiment reads them from one place.

use ftimm_isa::LatencyTable;

/// Full hardware description of one GPDSP cluster plus the host CPU side.
#[derive(Debug, Clone, PartialEq)]
pub struct HwConfig {
    /// DSP core clock in Hz (paper: 1.8 GHz).
    pub clock_hz: f64,
    /// Number of DSP cores per GPDSP cluster (paper: 8).
    pub cores_per_cluster: usize,
    /// Vector processing elements per core (paper: 16).
    pub vpes_per_core: usize,
    /// FMAC units per VPE (paper: 3).
    pub fmacs_per_vpe: usize,
    /// FP32 multiply-add results per FMAC per cycle (paper: 2).
    pub madds_per_fmac: usize,
    /// Scalar memory (SM) bytes per core (paper: 64 KB).
    pub sm_bytes: usize,
    /// Array memory (AM) bytes per core (paper: 768 KB).
    pub am_bytes: usize,
    /// Global shared memory (GSM) bytes per cluster (paper: 6 MB).
    pub gsm_bytes: usize,
    /// DDR bandwidth per cluster, bytes/s (paper: 42.6 GB/s).
    pub ddr_bw: f64,
    /// Fraction of theoretical DDR bandwidth achievable by DMA
    /// (invented: the paper observes real bandwidth below theoretical).
    pub ddr_efficiency: f64,
    /// Aggregate GSM crossbar bandwidth, bytes/s (invented: 128 GB/s).
    pub gsm_bw: f64,
    /// Fixed DMA descriptor setup/latency cost in seconds (invented: 400 ns).
    pub dma_setup_s: f64,
    /// Instruction latencies (shared with the kernel generator).
    pub latencies: LatencyTable,
    /// Maximum f32 broadcasts from SPU to VPU per cycle (paper: 2).
    pub broadcasts_per_cycle: usize,
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig {
            clock_hz: 1.8e9,
            cores_per_cluster: 8,
            vpes_per_core: 16,
            fmacs_per_vpe: 3,
            madds_per_fmac: 2,
            sm_bytes: 64 * 1024,
            am_bytes: 768 * 1024,
            gsm_bytes: 6 * 1024 * 1024,
            ddr_bw: 42.6e9,
            ddr_efficiency: 0.80,
            gsm_bw: 128.0e9,
            dma_setup_s: 400e-9,
            latencies: LatencyTable::default(),
            broadcasts_per_cycle: 2,
        }
    }
}

impl HwConfig {
    /// Flops per cycle per core (one FMA = 2 flops).
    pub fn flops_per_cycle_per_core(&self) -> usize {
        self.vpes_per_core * self.fmacs_per_vpe * self.madds_per_fmac * 2
    }

    /// Peak single-precision performance of one core, flop/s.
    pub fn core_peak_flops(&self) -> f64 {
        self.flops_per_cycle_per_core() as f64 * self.clock_hz
    }

    /// Peak single-precision performance of the whole cluster, flop/s.
    pub fn cluster_peak_flops(&self) -> f64 {
        self.core_peak_flops() * self.cores_per_cluster as f64
    }

    /// Seconds per core cycle.
    pub fn cycle_s(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Achievable DDR bandwidth (bytes/s) for one of `streams` concurrent
    /// DMA streams (deterministic contention model).
    pub fn ddr_bw_per_stream(&self, streams: usize) -> f64 {
        self.ddr_bw * self.ddr_efficiency / streams.max(1) as f64
    }

    /// Achievable GSM bandwidth (bytes/s) for one of `streams` streams.
    pub fn gsm_bw_per_stream(&self, streams: usize) -> f64 {
        self.gsm_bw / streams.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_peak_numbers_reproduce() {
        let c = HwConfig::default();
        // §II: each DSP core provides 345.6 GFlops at 1.8 GHz.
        assert!((c.core_peak_flops() - 345.6e9).abs() < 1e6);
        // 8 cores per cluster.
        assert!((c.cluster_peak_flops() - 2764.8e9).abs() < 1e7);
        // SIMD width for FP32 is 32: each VPE holds two f32 per 64-bit
        // register slice.
        assert_eq!(c.vpes_per_core * 2, 32);
        assert_eq!(c.flops_per_cycle_per_core(), 192);
    }

    #[test]
    fn bandwidth_splits_between_streams() {
        let c = HwConfig::default();
        let one = c.ddr_bw_per_stream(1);
        let eight = c.ddr_bw_per_stream(8);
        assert!((one / eight - 8.0).abs() < 1e-12);
        assert!(one <= c.ddr_bw);
        // Zero streams is clamped, not a division by zero.
        assert_eq!(c.ddr_bw_per_stream(0), one);
    }

    #[test]
    fn scratchpad_sizes_match_paper() {
        let c = HwConfig::default();
        assert_eq!(c.sm_bytes, 65536);
        assert_eq!(c.am_bytes, 786432);
        assert_eq!(c.gsm_bytes, 6291456);
    }
}
