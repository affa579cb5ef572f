//! Execution statistics and efficiency accounting.

use crate::profiler::PhaseProfile;

/// Per-core counters accumulated during a simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Compute cycles spent executing kernel bundles.
    pub compute_cycles: u64,
    /// Dynamic instruction count (interpret mode only).
    pub instructions: u64,
    /// Flops performed (FMA = 2).
    pub flops: u64,
    /// Bytes moved over the DDR interface by this core's DMA engine.
    pub ddr_bytes: u64,
    /// Bytes moved over on-chip (GSM) paths by this core's DMA engine.
    pub gsm_bytes: u64,
    /// Number of DMA descriptors issued.
    pub dma_transfers: u64,
    /// Number of micro-kernel invocations.
    pub kernel_calls: u64,
}

impl CoreStats {
    /// Merge another core's counters into this one.
    pub fn merge(&mut self, other: &CoreStats) {
        self.compute_cycles += other.compute_cycles;
        self.instructions += other.instructions;
        self.flops += other.flops;
        self.ddr_bytes += other.ddr_bytes;
        self.gsm_bytes += other.gsm_bytes;
        self.dma_transfers += other.dma_transfers;
        self.kernel_calls += other.kernel_calls;
    }

    /// The counters accumulated since `earlier`, a snapshot of the same
    /// core (counters only grow).
    pub fn since(&self, earlier: &CoreStats) -> CoreStats {
        CoreStats {
            compute_cycles: self.compute_cycles - earlier.compute_cycles,
            instructions: self.instructions - earlier.instructions,
            flops: self.flops - earlier.flops,
            ddr_bytes: self.ddr_bytes - earlier.ddr_bytes,
            gsm_bytes: self.gsm_bytes - earlier.gsm_bytes,
            dma_transfers: self.dma_transfers - earlier.dma_transfers,
            kernel_calls: self.kernel_calls - earlier.kernel_calls,
        }
    }
}

/// Fault-injection and recovery counters for one run.
///
/// The injection counters (`dma_corruptions`, `dma_timeouts`, `bit_flips`,
/// `cores_lost`) are filled by the machine from its fault state; the
/// recovery counters (`retries`, `recomputed_tiles`) are filled by the
/// resilient execution layer wrapping the run.  All zero when no
/// [`crate::FaultPlan`] is installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// DMA payload corruptions injected.
    pub dma_corruptions: u64,
    /// DMA watchdog timeouts injected.
    pub dma_timeouts: u64,
    /// Scratchpad bit flips injected.
    pub bit_flips: u64,
    /// Cores permanently lost during the run.
    pub cores_lost: u64,
    /// Recovery attempts performed (retries and degraded re-runs).
    pub retries: u64,
    /// Tiles recomputed during recovery.
    pub recomputed_tiles: u64,
    /// `C` rows re-executed during recovery (checkpointed recovery
    /// re-runs only unverified row spans, so this stays below the full
    /// M dimension per retry).
    pub rows_reexecuted: u64,
}

impl FaultStats {
    /// Total faults injected (not counting recovery work).
    pub fn injected(&self) -> u64 {
        self.dma_corruptions + self.dma_timeouts + self.bit_flips + self.cores_lost
    }

    /// Merge another run's counters into this one (field-wise sum, like
    /// [`CoreStats::merge`]).
    pub fn merge(&mut self, other: &FaultStats) {
        self.dma_corruptions += other.dma_corruptions;
        self.dma_timeouts += other.dma_timeouts;
        self.bit_flips += other.bit_flips;
        self.cores_lost += other.cores_lost;
        self.retries += other.retries;
        self.recomputed_tiles += other.recomputed_tiles;
        self.rows_reexecuted += other.rows_reexecuted;
    }
}

/// Which execution backend produced a result: the simulated GPDSP
/// cluster, or the host CPU fallback lane.  Carried as provenance in
/// [`RunReport`] and every report derived from it, so heterogeneous
/// failover is visible end to end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// A simulated GPDSP cluster (the default — everything this crate
    /// models runs here).
    #[default]
    Dsp,
    /// The host CPU fallback backend (`ftimm`'s `CpuBackend`).
    Cpu,
}

impl BackendKind {
    /// Stable lower-case name (used by JSON exporters and log lines).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Dsp => "dsp",
            BackendKind::Cpu => "cpu",
        }
    }
}

/// Result of one simulated GEMM (or kernel) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Simulated wall time in seconds (max over participating cores).
    pub seconds: f64,
    /// Useful flops of the *problem* (2·M·N·K), not of padded work.
    pub useful_flops: u64,
    /// Aggregated counters over all cores.
    pub totals: CoreStats,
    /// Number of cores that participated.
    pub cores_used: usize,
    /// Backend that executed the run (`Dsp` for everything the machine
    /// itself reports; the CPU fallback lane overrides it).
    pub backend: BackendKind,
    /// Fault-injection and recovery counters (all zero in fault-free runs).
    pub faults: FaultStats,
    /// Per-phase profile of the run; `None` unless the run was profiled
    /// (see [`crate::Machine::profile_begin`]).
    pub profile: Option<PhaseProfile>,
}

impl RunReport {
    /// Achieved flop/s on the problem's useful work.
    pub fn gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.useful_flops as f64 / self.seconds / 1e9
    }

    /// Efficiency against a peak given in flop/s.
    pub fn efficiency(&self, peak_flops: f64) -> f64 {
        self.gflops() * 1e9 / peak_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = CoreStats {
            compute_cycles: 10,
            flops: 100,
            ddr_bytes: 5,
            ..CoreStats::default()
        };
        let b = CoreStats {
            compute_cycles: 3,
            flops: 7,
            kernel_calls: 2,
            ..CoreStats::default()
        };
        a.merge(&b);
        assert_eq!(a.compute_cycles, 13);
        assert_eq!(a.flops, 107);
        assert_eq!(a.kernel_calls, 2);
        assert_eq!(a.ddr_bytes, 5);
    }

    #[test]
    fn gflops_and_efficiency() {
        let r = RunReport {
            seconds: 1e-3,
            useful_flops: 345_600_000,
            totals: CoreStats::default(),
            cores_used: 1,
            backend: BackendKind::default(),
            faults: FaultStats::default(),
            profile: None,
        };
        assert!((r.gflops() - 345.6).abs() < 1e-9);
        assert!((r.efficiency(345.6e9) - 1.0).abs() < 1e-12);
        assert_eq!(r.backend, BackendKind::Dsp);
    }

    #[test]
    fn backend_labels_are_stable() {
        assert_eq!(BackendKind::Dsp.label(), "dsp");
        assert_eq!(BackendKind::Cpu.label(), "cpu");
        assert_eq!(BackendKind::default(), BackendKind::Dsp);
    }

    #[test]
    fn zero_time_is_guarded() {
        let r = RunReport {
            seconds: 0.0,
            useful_flops: 1,
            totals: CoreStats::default(),
            cores_used: 1,
            backend: BackendKind::default(),
            faults: FaultStats::default(),
            profile: None,
        };
        assert_eq!(r.gflops(), 0.0);
    }
}
