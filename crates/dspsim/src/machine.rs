//! The machine: DDR, one GPDSP cluster, DMA execution and timing.
//!
//! Each core carries two clocks, compute and DMA engine, and between two
//! synchronisations (a barrier, a shared wait) a core's clocks and
//! counters move by its own work alone.  A timing walk may therefore
//! *replay* a core instead of stepping it: where [`Machine::replays`]
//! holds, two cores that enter such a window with equal compute clocks,
//! idle DMA engines and equal work leave it with equal clocks, so an
//! emitter steps one and copies it onto the other
//! ([`Machine::replay_core`]).  Which cores do equal work is the
//! emitter's business (`ftimm`'s walk).

use crate::fault::{DmaFaultKind, FaultState, MemTarget};
use crate::profiler::{phase_of_path, EventKind, Phase, Profiler, Span};
use crate::{
    transfer_time, Core, CoreStats, Dma2d, DmaPath, DmaTicket, FaultPlan, FaultStats, HwConfig,
    MemRegion, Rng64, RunReport, SimError,
};

/// How much of the simulation actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Execute generated VLIW programs instruction-by-instruction
    /// (bit-exact, hazard-checked, slow — for validation).
    Interpret,
    /// Move data and compute each kernel invocation on the host: the
    /// kernel's block plan, lowered once, runs at the widest SIMD level
    /// the CPU has, in the interpreter's accumulation order (bit-equal to
    /// `Interpret`, fast).
    Compiled,
    /// Only account cycles and bytes; no data is touched (for paper-scale
    /// sweeps).
    Timing,
}

impl ExecMode {
    /// Whether data is functionally moved/computed in this mode.
    pub fn is_functional(self) -> bool {
        !matches!(self, ExecMode::Timing)
    }

    /// Stable lowercase tag (CLI flags, reports).
    pub fn tag(self) -> &'static str {
        match self {
            ExecMode::Interpret => "interpret",
            ExecMode::Compiled => "compiled",
            ExecMode::Timing => "timing",
        }
    }

    /// Parse a [`tag`](ExecMode::tag) back into a mode.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "interpret" => Some(ExecMode::Interpret),
            "compiled" => Some(ExecMode::Compiled),
            "timing" => Some(ExecMode::Timing),
            _ => None,
        }
    }
}

/// One GPDSP cluster: 8 cores plus the shared GSM.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// 6 MB global shared memory.
    pub gsm: MemRegion,
    /// The DSP cores.
    pub cores: Vec<Core>,
}

/// The simulated machine (one cluster's view: its DDR partition + cores).
#[derive(Debug, Clone)]
pub struct Machine {
    /// Hardware description.
    pub cfg: HwConfig,
    /// Execution mode.
    pub mode: ExecMode,
    /// Main-memory partition of this cluster.
    pub ddr: MemRegion,
    /// The GPDSP cluster.
    pub cluster: Cluster,
    /// DMA streams assumed concurrently active (bandwidth contention).
    active_streams: usize,
    /// Logical→physical core map.  Identity at construction; retiring a
    /// failed core removes it here, so callers keep using dense logical
    /// ids `0..alive_cores()` while the dead core's state is left behind.
    core_map: Vec<usize>,
    /// Armed fault-injection state (empty unless a plan is installed).
    fault: FaultState,
    /// Span/event recorder (disabled by default; never advances clocks).
    profiler: Profiler,
}

/// Default modelled DDR partition capacity (64 GiB — large enough for the
/// paper's biggest sweep; backing store materialises when read or
/// written, never on allocation, so timing mode materialises none).
pub const DDR_CAPACITY: u64 = 64 << 30;

impl Machine {
    /// Build a machine in the given mode.
    pub fn new(cfg: HwConfig, mode: ExecMode) -> Self {
        let cores = (0..cfg.cores_per_cluster)
            .map(|id| Core::new(id, &cfg))
            .collect();
        let core_map = (0..cfg.cores_per_cluster).collect();
        Machine {
            cluster: Cluster {
                gsm: MemRegion::new("GSM", cfg.gsm_bytes as u64),
                cores,
            },
            cfg,
            mode,
            ddr: MemRegion::new("DDR", DDR_CAPACITY),
            active_streams: 1,
            core_map,
            fault: FaultState::default(),
            profiler: Profiler::disabled(),
        }
    }

    /// Start recording phase spans and fault events into a fresh bounded
    /// profiler (at most `capacity` spans; the oldest are dropped and
    /// counted beyond that).  Recording reads the simulated clocks but
    /// never advances them, so a profiled run stays bit-exact with an
    /// unprofiled one.
    pub fn profile_begin(&mut self, capacity: usize) {
        self.profiler = Profiler::enabled(capacity);
    }

    /// Stop recording and take the recorded profiler; the machine reverts
    /// to the zero-overhead disabled recorder.
    pub fn profile_end(&mut self) -> Profiler {
        std::mem::take(&mut self.profiler)
    }

    /// The current profiler (disabled and empty unless
    /// [`Machine::profile_begin`] is active).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Record a caller-timed span for a *logical* core — for work whose
    /// timing a strategy charges itself (e.g. the K-parallel GSM
    /// reduction) rather than through a machine primitive.
    pub fn record_span(&mut self, id: usize, phase: Phase, t0: f64, t1: f64) {
        let core = self.core_map[id];
        self.profiler.record(Span {
            phase,
            core,
            t0,
            t1,
        });
    }

    /// Record a supervisor event (e.g. a resilience-layer retry) against
    /// an optional *physical* core.
    pub fn record_event(&mut self, kind: EventKind, core: Option<usize>, t: f64) {
        self.profiler.event(kind, core, t);
    }

    /// Convenience: default hardware in the given mode.
    pub fn with_mode(mode: ExecMode) -> Self {
        Machine::new(HwConfig::default(), mode)
    }

    /// Whether a walk on this machine may replay cores instead of
    /// stepping them (see the module docs): timing mode, no DMA, core or
    /// cluster fault armed, and no recording profiler.  Then nothing a
    /// core does depends on another core or on a global count between
    /// two synchronisations: no data moves, no fault counter ticks, no
    /// span is recorded.
    pub fn replays(&self) -> bool {
        self.mode == ExecMode::Timing
            && !self.fault.dma_armed()
            && self.fault.core_death.is_empty()
            && self.fault.cluster_death.is_none()
            && !self.profiler.is_enabled()
    }

    /// Replay logical core `to` from logical core `stepped` at the end of
    /// a window both entered with equal compute clocks and idle DMA
    /// engines and in which both did equal work: `to` takes `stepped`'s
    /// clocks, and `stepped`'s counter growth since `entry` (its counters
    /// when the window opened).
    pub fn replay_core(&mut self, stepped: usize, entry: &CoreStats, to: usize) {
        let src = &self.cluster.cores[self.core_map[stepped]];
        let (t_compute, t_dma_free) = (src.t_compute, src.t_dma_free);
        let grown = src.stats.since(entry);
        let dst = &mut self.cluster.cores[self.core_map[to]];
        dst.t_compute = t_compute;
        dst.t_dma_free = t_dma_free;
        dst.stats.merge(&grown);
    }

    /// Declare how many DMA streams compete for bandwidth (usually the
    /// number of cores in the current parallel region).
    pub fn set_active_streams(&mut self, n: usize) {
        self.active_streams = n.max(1);
    }

    /// Currently declared stream count.
    pub fn active_streams(&self) -> usize {
        self.active_streams
    }

    /// Zero all clocks and counters (memory contents kept).
    pub fn reset_timing(&mut self) {
        for c in &mut self.cluster.cores {
            c.reset_timing();
        }
    }

    /// Access a core by logical id.
    pub fn core(&self, id: usize) -> &Core {
        &self.cluster.cores[self.core_map[id]]
    }

    /// Mutable access to a core by logical id.
    pub fn core_mut(&mut self, id: usize) -> &mut Core {
        &mut self.cluster.cores[self.core_map[id]]
    }

    /// Physical index behind a logical core id.
    pub fn physical_core(&self, id: usize) -> usize {
        self.core_map[id]
    }

    /// Number of cores still alive (not retired after failure).
    pub fn alive_cores(&self) -> usize {
        self.core_map.len()
    }

    /// Simulated time of a core's compute clock.
    pub fn core_time(&self, id: usize) -> f64 {
        self.cluster.cores[self.core_map[id]].t_compute
    }

    /// Simulated time (max of compute and DMA clocks) of a *physical*
    /// core, whether or not it is currently mapped.  Lets supervisors
    /// (e.g. circuit breakers) reason about cores they have routed
    /// around, whose clocks [`Machine::elapsed`] no longer covers.
    pub fn physical_time(&self, physical: usize) -> f64 {
        let c = &self.cluster.cores[physical];
        c.t_compute.max(c.t_dma_free)
    }

    /// Latest compute time over all *alive* cores (simulated makespan).
    pub fn elapsed(&self) -> f64 {
        self.core_map
            .iter()
            .map(|&p| {
                let c = &self.cluster.cores[p];
                c.t_compute.max(c.t_dma_free)
            })
            .fold(0.0, f64::max)
    }

    /// Install a fault-injection plan: arms the DMA/core faults in the
    /// machine and schedules the scratchpad bit flips in their target
    /// regions.  Plans compose — installing a second plan adds its faults.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.fault.timeout_s = plan.timeout_s;
        for (i, f) in plan.dma.iter().enumerate() {
            self.fault.dma.push(crate::fault::ArmedDmaFault {
                path: f.path,
                nth: f.nth,
                kind: f.kind,
                rng: Rng64::new(plan.seed ^ (0xD0A0 + i as u64)).next(),
            });
        }
        for (i, f) in plan.mem.iter().enumerate() {
            let rng = Rng64::new(plan.seed ^ (0xF1B0 + i as u64)).next();
            let region = match f.target {
                MemTarget::Gsm => &mut self.cluster.gsm,
                MemTarget::Sm(c) => &mut self.cluster.cores[c].sm,
                MemTarget::Am(c) => &mut self.cluster.cores[c].am,
            };
            region.schedule_flip(f.nth_read, rng);
        }
        if !plan.cores.is_empty() && self.fault.core_death.is_empty() {
            self.fault.core_death = vec![None; self.cfg.cores_per_cluster];
            self.fault.failed = vec![false; self.cfg.cores_per_cluster];
        }
        for f in &plan.cores {
            self.fault.core_death[f.core] = Some(f.at_seconds);
        }
        for f in &plan.clusters {
            self.fault.cluster_death = Some(match self.fault.cluster_death {
                Some(t) => t.min(f.at_seconds),
                None => f.at_seconds,
            });
        }
    }

    /// Retire a failed physical core: remaining logical ids stay dense
    /// (`0..alive_cores()`), so a caller can simply re-run with fewer
    /// cores.  The dead core's clocks and counters are frozen as-is.
    pub fn retire_core(&mut self, physical: usize) {
        if self.core_map.contains(&physical) {
            let t = self.physical_time(physical);
            self.profiler
                .event(EventKind::CoreRetired, Some(physical), t);
        }
        self.core_map.retain(|&p| p != physical);
    }

    /// The current logical→physical core map.
    pub fn core_map(&self) -> &[usize] {
        &self.core_map
    }

    /// Check whether the cluster as a whole is (still) allowed to issue
    /// work: once any mapped core's clock reaches the scheduled cluster
    /// death time, the entire fault domain is dead and every subsequent
    /// operation errors with [`SimError::ClusterFailed`].  Host-side DDR
    /// reads are unaffected (the partition outlives the cluster).
    pub fn check_cluster_alive(&mut self, id: usize) -> Result<(), SimError> {
        let Some(t) = self.fault.cluster_death else {
            return Ok(());
        };
        if self.fault.cluster_failed {
            return Err(SimError::ClusterFailed { at: t });
        }
        let phys = self.core_map[id];
        let core = &self.cluster.cores[phys];
        let now = core.t_compute.max(core.t_dma_free);
        if now >= t {
            self.fault.cluster_failed = true;
            self.profiler.event(EventKind::ClusterFailed, None, t);
            return Err(SimError::ClusterFailed { at: t });
        }
        Ok(())
    }

    /// Check whether a logical core is (still) allowed to issue work: a
    /// core whose clock has reached its scheduled death time fails
    /// permanently.
    pub fn check_core_alive(&mut self, id: usize) -> Result<(), SimError> {
        self.check_cluster_alive(id)?;
        if self.fault.core_death.is_empty() {
            return Ok(());
        }
        let phys = self.core_map[id];
        let core = &self.cluster.cores[phys];
        let now = core.t_compute.max(core.t_dma_free);
        if self.fault.failed[phys] {
            let at = self.fault.core_death[phys].unwrap_or(now);
            return Err(SimError::CoreFailed { core: phys, at });
        }
        if let Some(t) = self.fault.core_death[phys] {
            if now >= t {
                self.fault.failed[phys] = true;
                self.profiler.event(EventKind::CoreFailed, Some(phys), t);
                return Err(SimError::CoreFailed { core: phys, at: t });
            }
        }
        Ok(())
    }

    /// Advance a core's compute clock by raw seconds without touching any
    /// cycle counter (recovery backoff; not architectural work).
    pub fn stall(&mut self, id: usize, seconds: f64) {
        let phys = self.core_map[id];
        let t0 = self.cluster.cores[phys].t_compute;
        self.cluster.cores[phys].t_compute = t0 + seconds;
        self.profiler.record(Span {
            phase: Phase::Recovery,
            core: phys,
            t0,
            t1: t0 + seconds,
        });
    }

    /// Advance a core's compute clock by whole cycles and account them.
    pub fn compute(&mut self, id: usize, cycles: u64) {
        let phys = self.core_map[id];
        let core = &mut self.cluster.cores[phys];
        let t0 = core.t_compute;
        core.t_compute += cycles as f64 * self.cfg.cycle_s();
        core.stats.compute_cycles += cycles;
        let t1 = core.t_compute;
        self.profiler.record(Span {
            phase: Phase::Compute,
            core: phys,
            t0,
            t1,
        });
    }

    /// Block a core until a DMA ticket completes.
    pub fn wait(&mut self, id: usize, ticket: DmaTicket) {
        let core = &mut self.cluster.cores[self.core_map[id]];
        if ticket.done_at > core.t_compute {
            core.t_compute = ticket.done_at;
        }
    }

    /// Synchronise a set of cores (barrier): all compute clocks advance to
    /// the maximum. Returns the barrier time.
    pub fn barrier(&mut self, ids: &[usize]) -> f64 {
        let t = ids
            .iter()
            .map(|&i| self.cluster.cores[self.core_map[i]].t_compute)
            .fold(0.0, f64::max);
        for &i in ids {
            let phys = self.core_map[i];
            let t0 = self.cluster.cores[phys].t_compute;
            if t > t0 {
                self.profiler.record(Span {
                    phase: Phase::Barrier,
                    core: phys,
                    t0,
                    t1: t,
                });
            }
            self.cluster.cores[phys].t_compute = t;
        }
        t
    }

    /// Issue a DMA on a core's engine: functional strided copy (in timing
    /// mode, the copy's extent check alone) plus completion-time
    /// accounting.  Armed faults strike here: a `Timeout` charges the
    /// fault plan's hang time and errors out, a `Corrupt` completes the
    /// transfer but flips one f32 of the destination.
    pub fn dma(&mut self, id: usize, path: DmaPath, desc: &Dma2d) -> Result<DmaTicket, SimError> {
        self.check_core_alive(id)?;
        let armed = if self.fault.dma_armed() {
            self.fault.take_dma_fault(path)
        } else {
            None
        };
        if let Some(f) = armed {
            if f.kind == DmaFaultKind::Timeout {
                self.fault.injected_timeouts += 1;
                let phys = self.core_map[id];
                let core = &mut self.cluster.cores[phys];
                let start = core.t_dma_free.max(core.t_compute);
                let at = start + self.fault.timeout_s;
                // The engine hangs until the fault plan's timeout fires
                // and the core blocks on it; no data moves.
                core.t_dma_free = at;
                core.t_compute = at;
                self.profiler.record(Span {
                    phase: phase_of_path(path),
                    core: phys,
                    t0: start,
                    t1: at,
                });
                self.profiler.event(EventKind::DmaTimeout, Some(phys), at);
                return Err(SimError::DmaTimeout {
                    core: phys,
                    path,
                    at,
                });
            }
        }
        let corrupted = armed.is_some() && self.mode.is_functional();
        self.dma_copy(id, path, desc)?;
        if let Some(f) = armed.filter(|_| corrupted) {
            self.corrupt_dma_dst(id, path, desc, f.rng)?;
            self.fault.injected_corruptions += 1;
        }
        let dur = transfer_time(&self.cfg, path, desc.bytes(), self.active_streams);
        let phys = self.core_map[id];
        let core = &mut self.cluster.cores[phys];
        let start = core.t_dma_free.max(core.t_compute);
        let done = start + dur;
        core.t_dma_free = done;
        core.stats.dma_transfers += 1;
        if path.uses_ddr() {
            core.stats.ddr_bytes += desc.bytes();
        } else {
            core.stats.gsm_bytes += desc.bytes();
        }
        self.profiler.record(Span {
            phase: phase_of_path(path),
            core: phys,
            t0: start,
            t1: done,
        });
        if corrupted {
            self.profiler.event(EventKind::DmaCorrupt, Some(phys), done);
        }
        Ok(DmaTicket {
            done_at: done,
            bytes: desc.bytes(),
        })
    }

    /// The (source, destination) regions of a transfer on `path` issued
    /// by logical core `id`.
    #[inline]
    fn regions(&mut self, id: usize, path: DmaPath) -> (&mut MemRegion, &mut MemRegion) {
        let phys = self.core_map[id];
        let Machine { ddr, cluster, .. } = self;
        let Cluster { gsm, cores } = cluster;
        let core = &mut cores[phys];
        match path {
            DmaPath::DdrToGsm => (ddr, gsm),
            DmaPath::GsmToDdr => (gsm, ddr),
            DmaPath::DdrToSm => (ddr, &mut core.sm),
            DmaPath::DdrToAm => (ddr, &mut core.am),
            DmaPath::SmToDdr => (&mut core.sm, ddr),
            DmaPath::AmToDdr => (&mut core.am, ddr),
            DmaPath::GsmToSm => (gsm, &mut core.sm),
            DmaPath::GsmToAm => (gsm, &mut core.am),
            DmaPath::AmToGsm => (&mut core.am, gsm),
        }
    }

    /// Move a transfer's data — or, in timing mode, only check both of
    /// its extents, so timing refuses exactly what a functional run
    /// refuses and still materialises nothing.
    fn dma_copy(&mut self, id: usize, path: DmaPath, desc: &Dma2d) -> Result<(), SimError> {
        let functional = self.mode.is_functional();
        let (src, dst) = self.regions(id, path);
        if functional {
            dst.copy_2d_from(src, desc)
        } else {
            dst.check_2d_from(src, desc).map(drop)
        }
    }

    /// Flip the exponent MSB of one f32 inside the destination footprint
    /// of a just-completed transfer (the `Corrupt` DMA fault).
    fn corrupt_dma_dst(
        &mut self,
        id: usize,
        path: DmaPath,
        desc: &Dma2d,
        rng: u64,
    ) -> Result<(), SimError> {
        let row = rng % desc.rows.max(1);
        let word = (rng >> 24) % (desc.row_bytes / 4).max(1);
        let (_, dst) = self.regions(id, path);
        dst.flip_f32_msb(desc.dst_off + row * desc.dst_stride + word * 4)
    }

    /// Functional `GSM[gsm_off + i] += AM_core[am_off + i]` over `count`
    /// f32 elements — the K-dimension parallelisation's reduction step.
    /// (No timing: the caller accounts reduction time explicitly.)
    pub fn gsm_accumulate_from_am(
        &mut self,
        id: usize,
        am_off: u64,
        gsm_off: u64,
        count: u64,
    ) -> Result<(), SimError> {
        if !self.mode.is_functional() {
            return Ok(());
        }
        let phys = self.core_map[id];
        let Cluster { gsm, cores } = &mut self.cluster;
        let core = &mut cores[phys];
        let part = core.am.view_f32(am_off, count as usize)?;
        let acc = gsm.view_f32_mut(gsm_off, count as usize)?;
        for (a, b) in acc.iter_mut().zip(part) {
            *a += *b;
        }
        Ok(())
    }

    /// Fault counters accumulated so far (injection side only; recovery
    /// counters are filled by the layer driving the retries).
    pub fn fault_stats(&self) -> FaultStats {
        let mut bit_flips = self.cluster.gsm.flips_applied();
        for c in &self.cluster.cores {
            bit_flips += c.sm.flips_applied() + c.am.flips_applied();
        }
        FaultStats {
            dma_corruptions: self.fault.injected_corruptions,
            dma_timeouts: self.fault.injected_timeouts,
            bit_flips,
            cores_lost: self.fault.failed.iter().filter(|&&f| f).count() as u64,
            retries: 0,
            recomputed_tiles: 0,
            rows_reexecuted: 0,
        }
    }

    /// Summarise a finished run over the given (logical) cores.
    pub fn report(&self, useful_flops: u64, cores: &[usize]) -> RunReport {
        let mut totals = CoreStats::default();
        let mut t = 0.0f64;
        for &i in cores {
            let c = &self.cluster.cores[self.core_map[i]];
            totals.merge(&c.stats);
            t = t.max(c.t_compute).max(c.t_dma_free);
        }
        RunReport {
            seconds: t,
            useful_flops,
            totals,
            cores_used: cores.len(),
            backend: crate::BackendKind::Dsp,
            faults: self.fault_stats(),
            profile: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_moves_data_and_time() {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        m.ddr.write_f32_slice(0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let t = m.dma(0, DmaPath::DdrToAm, &Dma2d::flat(0, 64, 16)).unwrap();
        assert!(t.done_at > 0.0);
        m.wait(0, t);
        assert_eq!(m.core_time(0), t.done_at);
        let mut out = [0.0; 4];
        m.core_mut(0).am.read_f32_slice(64, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn timing_mode_moves_no_data_but_advances_clocks() {
        let mut m = Machine::with_mode(ExecMode::Timing);
        // Address far beyond anything materialised: fine in timing mode.
        let t = m
            .dma(0, DmaPath::DdrToAm, &Dma2d::flat(40 << 30, 0, 4096))
            .unwrap();
        assert!(t.done_at > 0.0);
        assert_eq!(m.core(0).stats.dma_transfers, 1);
        assert_eq!(m.core(0).stats.ddr_bytes, 4096);
    }

    #[test]
    fn timing_mode_refuses_what_a_functional_copy_refuses() {
        // One row past AM, then a source row past DDR.
        let am = HwConfig::default().am_bytes as u64;
        for d in [
            Dma2d::flat(0, am - 64, 128),
            Dma2d::flat(DDR_CAPACITY, 0, 4),
        ] {
            let mut errs = Vec::new();
            for mode in [ExecMode::Compiled, ExecMode::Timing] {
                let mut m = Machine::with_mode(mode);
                errs.push(m.dma(0, DmaPath::DdrToAm, &d).unwrap_err());
                assert_eq!(
                    m.core(0).stats.dma_transfers,
                    0,
                    "{mode:?}: nothing charged"
                );
                assert_eq!(m.core(0).am.materialised() + m.ddr.materialised(), 0);
            }
            assert!(matches!(errs[0], SimError::OutOfBounds { .. }), "{d:?}");
            assert_eq!(errs[0], errs[1], "{d:?}");
        }
    }

    #[test]
    fn dma_engine_serialises_transfers() {
        let mut m = Machine::with_mode(ExecMode::Timing);
        let t1 = m
            .dma(0, DmaPath::DdrToAm, &Dma2d::flat(0, 0, 1 << 19))
            .unwrap();
        let t2 = m
            .dma(0, DmaPath::DdrToAm, &Dma2d::flat(0, 0, 1 << 19))
            .unwrap();
        assert!(t2.done_at > t1.done_at);
        // Second transfer waits for the engine, not for the core.
        assert!((t2.done_at - 2.0 * t1.done_at).abs() < 1e-12);
    }

    #[test]
    fn pingpong_overlap_emerges_from_clocks() {
        // Issue DMA for the next block, compute on the current one: total
        // time should be max(dma, compute) per step, not the sum.
        let mut m = Machine::with_mode(ExecMode::Timing);
        let d = Dma2d::flat(0, 0, 1 << 19);
        let dma_dur = transfer_time(&m.cfg, DmaPath::DdrToAm, d.bytes(), 1);
        let comp_cycles = (dma_dur / m.cfg.cycle_s() * 2.0) as u64; // compute-bound
        let mut pending = m.dma(0, DmaPath::DdrToAm, &d).unwrap();
        for _ in 0..4 {
            m.wait(0, pending);
            pending = m.dma(0, DmaPath::DdrToAm, &d).unwrap();
            m.compute(0, comp_cycles);
        }
        let total = m.core_time(0);
        let compute_total = 4.0 * comp_cycles as f64 * m.cfg.cycle_s();
        // First DMA is exposed; the rest hide under compute.
        assert!(total < compute_total + 2.0 * dma_dur);
        assert!(total >= compute_total);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut m = Machine::with_mode(ExecMode::Timing);
        m.compute(0, 1000);
        m.compute(1, 5000);
        let t = m.barrier(&[0, 1, 2]);
        assert_eq!(t, m.core_time(1));
        assert_eq!(m.core_time(0), t);
        assert_eq!(m.core_time(2), t);
    }

    #[test]
    fn gsm_reduction_accumulates() {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        m.cluster.gsm.write_f32_slice(0, &[1.0, 1.0]).unwrap();
        m.core_mut(0).am.write_f32_slice(0, &[2.0, 3.0]).unwrap();
        m.gsm_accumulate_from_am(0, 0, 0, 2).unwrap();
        let mut out = [0.0; 2];
        m.cluster.gsm.read_f32_slice(0, &mut out).unwrap();
        assert_eq!(out, [3.0, 4.0]);
    }

    #[test]
    fn strided_block_copy_transposes_leading_dimension() {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        // 2×3 block at ld=5 in DDR → dense 2×3 in AM.
        for r in 0..2u64 {
            for c in 0..3u64 {
                m.ddr
                    .write_f32((r * 5 + c) * 4, (r * 10 + c) as f32)
                    .unwrap();
            }
        }
        let t = m
            .dma(0, DmaPath::DdrToAm, &Dma2d::block_f32(2, 3, 0, 5, 0, 3))
            .unwrap();
        m.wait(0, t);
        let mut out = [0.0; 6];
        m.core_mut(0).am.read_f32_slice(0, &mut out).unwrap();
        assert_eq!(out, [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn report_aggregates_cores() {
        let mut m = Machine::with_mode(ExecMode::Timing);
        m.compute(0, 100);
        m.compute(1, 300);
        let r = m.report(1000, &[0, 1]);
        assert_eq!(r.totals.compute_cycles, 400);
        assert_eq!(r.cores_used, 2);
        assert!((r.seconds - 300.0 * m.cfg.cycle_s()).abs() < 1e-15);
    }
}
