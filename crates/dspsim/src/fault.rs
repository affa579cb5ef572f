//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *when* and *where* the simulated hardware
//! misbehaves: DMA transfers that silently corrupt their payload or time
//! out, scratchpad words whose bits flip when read, and cores that fail
//! permanently at a given simulated time.  Faults are scheduled by count
//! (the Nth transfer over a path, the Nth read of a region) or by
//! simulated time, never by wall clock or host state, so a run with a
//! given `(seed, plan)` is bit-for-bit reproducible.
//!
//! The plan is installed into a [`crate::Machine`] with
//! [`crate::Machine::install_faults`]; an empty plan leaves every hot path
//! untouched (the fault hooks early-return before touching any counter
//! that could perturb timing).
//!
//! Injected *corruption* flips bit 30 (the exponent MSB) of one f32 in
//! the affected range: a non-zero value changes by many orders of
//! magnitude and a zero becomes 2.0, so algorithm-based fault tolerance
//! (ABFT) checksums detect every flip with a huge margin.

use crate::DmaPath;

/// What a scheduled DMA fault does to its transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaFaultKind {
    /// The transfer completes on time but one f32 of the destination is
    /// corrupted (silent data corruption).
    Corrupt,
    /// The transfer never completes; the issuing core's DMA engine is
    /// charged the watchdog timeout and the transfer errors out.
    Timeout,
}

/// A fault armed on the Nth transfer (1-based) over a DMA path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaFault {
    /// The path the fault watches.
    pub path: DmaPath,
    /// Which transfer over `path` triggers it (1 = the first).
    pub nth: u64,
    /// What happens to that transfer.
    pub kind: DmaFaultKind,
}

/// Which memory a scheduled bit flip targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTarget {
    /// The cluster-shared GSM.
    Gsm,
    /// A core's scalar memory.
    Sm(usize),
    /// A core's array memory.
    Am(usize),
}

/// A bit flip applied to the data returned by the Nth read (1-based) of a
/// region after the plan is installed.  The flip is persistent (the word
/// is damaged *at rest*) until the location is overwritten.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemFault {
    /// The region the fault targets.
    pub target: MemTarget,
    /// Which read (1 = the first after installation) triggers it.
    pub nth_read: u64,
}

/// A permanent core failure at a simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreFailure {
    /// The physical core that dies.
    pub core: usize,
    /// Simulated time (seconds) at which it stops responding.  The first
    /// operation issued on the core at or after this time errors with
    /// [`crate::SimError::CoreFailed`].
    pub at_seconds: f64,
}

/// A whole-cluster failure at a simulated time: the machine's fault
/// domain dies as one unit (power rail, interconnect, firmware wedge),
/// taking every core with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterFailure {
    /// Simulated time (seconds) at which the cluster stops responding.
    /// The first operation issued at or after this time errors with
    /// [`crate::SimError::ClusterFailed`]; memory contents written before
    /// the failure stay readable from the host (the DDR partition
    /// survives the cluster, as on the real part).
    pub at_seconds: f64,
}

/// A uniform slowdown of the host CPU fallback backend: every CPU
/// dispatch is charged `factor ×` its model-predicted time (thermal
/// throttling, co-tenant interference).  Interpreted by the CPU backend
/// (`ftimm`'s `CpuBackend`), not by the DSP machine; it lives here so one
/// seeded [`FaultPlan`] drives the whole heterogeneous degradation
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSlowdown {
    /// Multiplier on the CPU cost model's predicted seconds (`>= 1.0` for
    /// a slowdown; several slowdowns compound multiplicatively).
    pub factor: f64,
}

/// A transient failure of the Nth span executed on the host CPU fallback
/// backend (1-based).  The span's work is lost and the dispatch errors
/// transiently; like [`CpuSlowdown`] it is interpreted by the CPU
/// backend, not by the DSP machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuFailure {
    /// Which CPU span execution (1 = the first after installation) fails.
    pub nth: u64,
}

/// A complete, serialisable fault-injection schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic choice of corrupted offsets/bits.
    pub seed: u64,
    /// DMA transfer faults.
    pub dma: Vec<DmaFault>,
    /// Scratchpad bit flips.
    pub mem: Vec<MemFault>,
    /// Permanent core failures.
    pub cores: Vec<CoreFailure>,
    /// Whole-cluster failures.
    pub clusters: Vec<ClusterFailure>,
    /// CPU fallback-backend slowdowns.
    pub cpu_slowdowns: Vec<CpuSlowdown>,
    /// CPU fallback-backend transient span failures.
    pub cpu_failures: Vec<CpuFailure>,
    /// Simulated watchdog timeout charged to a core whose transfer hangs.
    pub timeout_s: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            dma: Vec::new(),
            mem: Vec::new(),
            cores: Vec::new(),
            clusters: Vec::new(),
            cpu_slowdowns: Vec::new(),
            cpu_failures: Vec::new(),
            timeout_s: 1e-3,
        }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.dma.is_empty()
            && self.mem.is_empty()
            && self.cores.is_empty()
            && self.clusters.is_empty()
            && self.cpu_slowdowns.is_empty()
            && self.cpu_failures.is_empty()
    }

    /// Total number of scheduled faults.
    pub fn len(&self) -> usize {
        self.dma.len()
            + self.mem.len()
            + self.cores.len()
            + self.clusters.len()
            + self.cpu_slowdowns.len()
            + self.cpu_failures.len()
    }

    /// Schedule silent corruption of the Nth transfer over `path`.
    pub fn corrupt_dma(mut self, path: DmaPath, nth: u64) -> Self {
        self.dma.push(DmaFault {
            path,
            nth,
            kind: DmaFaultKind::Corrupt,
        });
        self
    }

    /// Schedule a timeout of the Nth transfer over `path`.
    pub fn timeout_dma(mut self, path: DmaPath, nth: u64) -> Self {
        self.dma.push(DmaFault {
            path,
            nth,
            kind: DmaFaultKind::Timeout,
        });
        self
    }

    /// Schedule a bit flip on the Nth read of a scratchpad.
    pub fn flip_bit(mut self, target: MemTarget, nth_read: u64) -> Self {
        self.mem.push(MemFault { target, nth_read });
        self
    }

    /// Schedule a permanent failure of `core` at simulated time `at_s`.
    pub fn kill_core(mut self, core: usize, at_s: f64) -> Self {
        self.cores.push(CoreFailure {
            core,
            at_seconds: at_s,
        });
        self
    }

    /// Schedule a permanent failure of the whole cluster at simulated
    /// time `at_s` (the machine becomes a dead fault domain: every
    /// subsequent operation errors, but host-side DDR reads survive).
    pub fn kill_cluster(mut self, at_s: f64) -> Self {
        self.clusters.push(ClusterFailure { at_seconds: at_s });
        self
    }

    /// Schedule a uniform slowdown of the CPU fallback backend: every CPU
    /// dispatch is charged `factor ×` its predicted time (slowdowns
    /// compound multiplicatively).
    pub fn cpu_slowdown(mut self, factor: f64) -> Self {
        self.cpu_slowdowns.push(CpuSlowdown { factor });
        self
    }

    /// Schedule a transient failure of the Nth span executed on the CPU
    /// fallback backend (1 = the first after installation).
    pub fn fail_cpu(mut self, nth: u64) -> Self {
        self.cpu_failures.push(CpuFailure { nth });
        self
    }

    /// Compound slowdown factor over all scheduled [`CpuSlowdown`]s
    /// (`1.0` when none are scheduled).
    pub fn cpu_slowdown_factor(&self) -> f64 {
        self.cpu_slowdowns.iter().map(|s| s.factor).product()
    }
}

/// A DMA fault armed inside the machine, with its pre-drawn random word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArmedDmaFault {
    pub path: DmaPath,
    pub nth: u64,
    pub kind: DmaFaultKind,
    /// Deterministic random word deciding where the corruption lands.
    pub rng: u64,
}

/// Per-machine fault-injection state: armed faults plus injection
/// counters.  Lives in [`crate::Machine`]; empty by default.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultState {
    /// Armed DMA faults (removed once fired).
    pub dma: Vec<ArmedDmaFault>,
    /// Transfers observed per path (indexed by [`path_index`]).
    pub dma_counts: [u64; 9],
    /// Scheduled death time per physical core.
    pub core_death: Vec<Option<f64>>,
    /// Whether a physical core has failed.
    pub failed: Vec<bool>,
    /// Scheduled whole-cluster death time (earliest wins if several).
    pub cluster_death: Option<f64>,
    /// Whether the whole cluster has failed.
    pub cluster_failed: bool,
    /// Watchdog timeout charged on a hung transfer.
    pub timeout_s: f64,
    /// Corruptions injected so far.
    pub injected_corruptions: u64,
    /// Timeouts injected so far.
    pub injected_timeouts: u64,
}

impl FaultState {
    /// Whether any DMA fault is still armed (cheap hot-path guard).
    pub fn dma_armed(&self) -> bool {
        !self.dma.is_empty()
    }

    /// Count a transfer over `path`; if a fault is armed for exactly this
    /// transfer, disarm and return it.
    pub fn take_dma_fault(&mut self, path: DmaPath) -> Option<ArmedDmaFault> {
        let idx = path_index(path);
        self.dma_counts[idx] += 1;
        let n = self.dma_counts[idx];
        let pos = self.dma.iter().position(|f| f.path == path && f.nth == n)?;
        Some(self.dma.remove(pos))
    }
}

/// Stable index of a path (for the per-path transfer counters).
pub(crate) fn path_index(path: DmaPath) -> usize {
    match path {
        DmaPath::DdrToGsm => 0,
        DmaPath::GsmToDdr => 1,
        DmaPath::DdrToSm => 2,
        DmaPath::DdrToAm => 3,
        DmaPath::SmToDdr => 4,
        DmaPath::AmToDdr => 5,
        DmaPath::GsmToSm => 6,
        DmaPath::GsmToAm => 7,
        DmaPath::AmToGsm => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_faults() {
        let plan = FaultPlan::new(7)
            .corrupt_dma(DmaPath::DdrToAm, 3)
            .timeout_dma(DmaPath::GsmToAm, 1)
            .flip_bit(MemTarget::Am(2), 10)
            .kill_core(5, 1e-3)
            .kill_cluster(2e-3)
            .cpu_slowdown(4.0)
            .fail_cpu(2);
        assert_eq!(plan.len(), 7);
        assert!(!plan.is_empty());
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.dma[0].kind, DmaFaultKind::Corrupt);
        assert_eq!(plan.dma[1].kind, DmaFaultKind::Timeout);
        assert_eq!(plan.clusters[0].at_seconds, 2e-3);
        assert_eq!(plan.cpu_slowdowns[0].factor, 4.0);
        assert_eq!(plan.cpu_failures[0].nth, 2);
    }

    #[test]
    fn cpu_faults_alone_make_plan_non_empty_and_compound() {
        let plan = FaultPlan::new(9).cpu_slowdown(2.0).cpu_slowdown(3.0);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.cpu_slowdown_factor(), 6.0);
        let plan = FaultPlan::new(9).fail_cpu(1);
        assert!(!plan.is_empty());
        assert_eq!(FaultPlan::new(9).cpu_slowdown_factor(), 1.0);
    }

    #[test]
    fn cluster_kill_alone_makes_plan_non_empty() {
        let plan = FaultPlan::new(3).kill_cluster(5e-4);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 1);
        assert!(plan.dma.is_empty() && plan.mem.is_empty() && plan.cores.is_empty());
        assert!(plan.cpu_slowdowns.is_empty() && plan.cpu_failures.is_empty());
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new(1).is_empty());
        assert_eq!(FaultPlan::default().len(), 0);
    }

    #[test]
    fn path_indices_are_distinct() {
        use DmaPath::*;
        let all = [
            DdrToGsm, GsmToDdr, DdrToSm, DdrToAm, SmToDdr, AmToDdr, GsmToSm, GsmToAm, AmToGsm,
        ];
        let mut seen = [false; 9];
        for p in all {
            let i = path_index(p);
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
    }

    #[test]
    fn take_dma_fault_fires_exactly_once_on_the_nth() {
        let mut st = FaultState {
            dma: vec![ArmedDmaFault {
                path: DmaPath::DdrToAm,
                nth: 2,
                kind: DmaFaultKind::Corrupt,
                rng: 42,
            }],
            ..FaultState::default()
        };
        assert!(st.take_dma_fault(DmaPath::DdrToAm).is_none()); // 1st
        assert!(st.take_dma_fault(DmaPath::GsmToAm).is_none()); // other path
        let f = st.take_dma_fault(DmaPath::DdrToAm).unwrap(); // 2nd fires
        assert_eq!(f.rng, 42);
        assert!(st.take_dma_fault(DmaPath::DdrToAm).is_none()); // disarmed
    }
}
