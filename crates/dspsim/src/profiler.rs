//! Phase-tagged span/event recording on the simulated clock.
//!
//! When enabled (see [`crate::Machine::profile_begin`]), the machine
//! records a [`Span`] for every timed activity it models — DMA transfers
//! per engine, kernel execution per core, GSM reductions, barrier waits,
//! recovery stalls — plus instantaneous [`SimEvent`]s for faults and
//! recovery.  Spans carry *simulated* timestamps read off the
//! clocks the machine already maintains; recording never advances a
//! clock, so an instrumented run stays bit-exact with an uninstrumented
//! one.
//!
//! The recorder is a bounded ring: once `capacity` spans are held, the
//! oldest are dropped (and counted), so paper-scale sweeps cannot
//! accumulate unbounded memory.  [`Profiler::aggregate`] folds whatever
//! was kept into a fixed-size [`PhaseProfile`] suitable for embedding in
//! a [`crate::RunReport`].

use crate::DmaPath;

/// The execution phases the simulator can attribute time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// DDR → on-chip transfers (A/B/C panel loads).
    DmaLoad,
    /// GSM → SM/AM broadcasts of shared panels.
    Broadcast,
    /// Micro-kernel execution on a core.
    Compute,
    /// Partial-result reduction through the GSM crossbar.
    Reduction,
    /// On-chip → DDR write-back.
    DmaStore,
    /// Waiting at a barrier for slower cores.
    Barrier,
    /// Recovery stalls (retry backoff) charged by a resilience layer.
    Recovery,
    /// Host-side planning (candidate ranking, cache lookups, timing-model
    /// simulation) charged by the executor.  Plan spans carry *host* wall
    /// durations on the simulated timeline: [`Profiler::aggregate`]
    /// accumulates them directly, without extending the profiled window
    /// or counting them as device busy time.
    Plan,
    /// Host-side autotuning (candidate search, catalog I/O) charged by
    /// the tuner.  Handled exactly like
    /// [`Phase::Plan`]: host wall durations accumulated directly, outside
    /// the device window and busy accounting.
    Tune,
}

/// Number of [`Phase`] variants (array dimension of per-phase tallies).
pub const PHASE_COUNT: usize = 9;

/// Physical cores a [`PhaseProfile`] tracks individually (one cluster).
pub const PROFILE_CORES: usize = 8;

// `ALL` lists the variants in declaration order, so `phase as usize`
// indexes it (and every per-phase tally).
const _: () = {
    let mut i = 0;
    while i < Phase::ALL.len() {
        assert!(Phase::ALL[i] as usize == i);
        i += 1;
    }
};

impl Phase {
    /// Every phase, in declaration order (= tally array order).
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::DmaLoad,
        Phase::Broadcast,
        Phase::Compute,
        Phase::Reduction,
        Phase::DmaStore,
        Phase::Barrier,
        Phase::Recovery,
        Phase::Plan,
        Phase::Tune,
    ];

    /// Stable lower-case name (used by the JSON exporters).
    pub fn name(self) -> &'static str {
        match self {
            Phase::DmaLoad => "dma_load",
            Phase::Broadcast => "broadcast",
            Phase::Compute => "compute",
            Phase::Reduction => "reduction",
            Phase::DmaStore => "dma_store",
            Phase::Barrier => "barrier",
            Phase::Recovery => "recovery",
            Phase::Plan => "plan",
            Phase::Tune => "tune",
        }
    }

    /// Index into per-phase tally arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Attribution priority when phases overlap in time: at any instant
    /// the *exclusive* timeline charges the highest-priority phase active
    /// anywhere on the cluster, so Σ exclusive phase seconds equals the
    /// busy (non-idle) portion of the wall clock.
    fn priority(self) -> usize {
        match self {
            // Host-side spans never enter the exclusive sweep (they are
            // accumulated directly), so these values are moot.
            Phase::Tune => 8,
            Phase::Plan => 7,
            Phase::Compute => 6,
            Phase::Reduction => 5,
            Phase::Broadcast => 4,
            Phase::DmaLoad => 3,
            Phase::DmaStore => 2,
            Phase::Recovery => 1,
            Phase::Barrier => 0,
        }
    }

    /// Whether this phase is host-side bookkeeping ([`Phase::Plan`] /
    /// [`Phase::Tune`]): accumulated directly by the aggregator, excluded
    /// from the device window, busy time and per-core occupancy.
    pub fn is_host_side(self) -> bool {
        matches!(self, Phase::Plan | Phase::Tune)
    }

    /// Whether this phase moves data (the "DMA" side of the DMA/compute
    /// overlap fraction and of the trace exporter's per-core tracks).
    pub fn is_data_movement(self) -> bool {
        matches!(
            self,
            Phase::DmaLoad | Phase::Broadcast | Phase::DmaStore | Phase::Reduction
        )
    }
}

/// The phase a DMA transfer on `path` belongs to.
pub fn phase_of_path(path: DmaPath) -> Phase {
    match path {
        DmaPath::DdrToGsm | DmaPath::DdrToSm | DmaPath::DdrToAm => Phase::DmaLoad,
        DmaPath::GsmToSm | DmaPath::GsmToAm => Phase::Broadcast,
        DmaPath::AmToGsm => Phase::Reduction,
        DmaPath::GsmToDdr | DmaPath::SmToDdr | DmaPath::AmToDdr => Phase::DmaStore,
    }
}

/// One phase-tagged interval of simulated time on a physical core (or
/// its DMA engine, for data-movement phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The phase.
    pub phase: Phase,
    /// Physical core id.
    pub core: usize,
    /// Start, simulated seconds.
    pub t0: f64,
    /// End, simulated seconds (`>= t0`).
    pub t1: f64,
}

/// Kinds of instantaneous events the machine records alongside spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An armed DMA corruption fired.
    DmaCorrupt,
    /// An armed DMA timeout fired (full hang charge taken).
    DmaTimeout,
    /// A core reached its scheduled death and failed permanently.
    CoreFailed,
    /// A supervisor retired a core from the logical map.
    CoreRetired,
    /// A resilience layer charged a recovery retry.
    Retry,
    /// The whole cluster failed permanently.
    ClusterFailed,
}

impl EventKind {
    /// Stable lower-case name (used by the trace exporter).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::DmaCorrupt => "dma_corrupt",
            EventKind::DmaTimeout => "dma_timeout",
            EventKind::CoreFailed => "core_failed",
            EventKind::CoreRetired => "core_retired",
            EventKind::Retry => "retry",
            EventKind::ClusterFailed => "cluster_failed",
        }
    }
}

/// An instantaneous event on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEvent {
    /// What happened.
    pub kind: EventKind,
    /// Physical core implicated, if any.
    pub core: Option<usize>,
    /// Simulated time of the event.
    pub t: f64,
}

/// Bounded recorder of spans and events on the simulated clock.
///
/// Disabled by default: every record call is a single branch, and no
/// machine clock is ever touched either way.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    capacity: usize,
    spans: std::collections::VecDeque<Span>,
    events: Vec<SimEvent>,
    dropped: u64,
}

/// Default span capacity (≈ 8 MiB of spans; plenty for one profiled run,
/// bounded for sweeps).
pub const DEFAULT_PROFILE_CAPACITY: usize = 1 << 18;

impl Profiler {
    /// A disabled profiler (records nothing).
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// An enabled profiler holding at most `capacity` spans (the oldest
    /// are dropped — and counted — beyond that).
    pub fn enabled(capacity: usize) -> Self {
        Profiler {
            enabled: true,
            capacity: capacity.max(1),
            spans: std::collections::VecDeque::new(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans and events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span (no-op while disabled; zero-length spans are kept —
    /// they mark issue points even when no time passed).
    pub fn record(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        debug_assert!(span.t1 >= span.t0, "span ends before it starts");
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    /// Record an instantaneous event (no-op while disabled; events share
    /// the span capacity bound).
    pub fn event(&mut self, kind: EventKind, core: Option<usize>, t: f64) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(SimEvent { kind, core, t });
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Spans/events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Aggregate the recorded spans into a [`PhaseProfile`].
    ///
    /// Per-phase seconds are *exclusive*: the cluster-wide timeline is
    /// swept once, and each instant where anything is active is charged
    /// to the highest-priority active phase (compute > reduction >
    /// broadcast > loads > stores > recovery > barrier).  Their sum is
    /// therefore the busy portion of the profiled window and can never
    /// exceed `total_s`.  The overlap fraction is the share of the window
    /// where a data-movement span and a compute span run concurrently.
    /// Roofline fields are left at zero for the caller to fill.
    pub fn aggregate(&self) -> PhaseProfile {
        let mut prof = PhaseProfile {
            spans: self.spans.len() as u64,
            events: self.events.len() as u64,
            dropped: self.dropped,
            ..PhaseProfile::default()
        };
        if self.spans.is_empty() {
            return prof;
        }

        // Boundary sweep: (time, phase index, +1/-1), plus per-core
        // busy-interval union computed from the same sorted boundaries.
        // Plan/Tune spans are host-side time: they accumulate into their
        // tally directly and never enter the sweep, so they neither
        // extend the simulated window nor count as device busy time.
        let mut bounds: Vec<(f64, usize, i32)> = Vec::with_capacity(self.spans.len() * 2);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.spans {
            if s.phase.is_host_side() {
                prof.phase_s[s.phase.index()] += s.t1 - s.t0;
                continue;
            }
            lo = lo.min(s.t0);
            hi = hi.max(s.t1);
            bounds.push((s.t0, s.phase.index(), 1));
            bounds.push((s.t1, s.phase.index(), -1));
        }
        if bounds.is_empty() {
            return prof;
        }
        prof.total_s = hi - lo;
        // Span times are finite and non-negative, so `total_cmp` orders
        // them as `<` does.
        bounds.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut active = [0i32; PHASE_COUNT];
        let mut prev_t = bounds[0].0;
        for &(t, phase, delta) in &bounds {
            let seg = t - prev_t;
            if seg > 0.0 {
                let top = Phase::ALL
                    .into_iter()
                    .filter(|p| active[p.index()] > 0)
                    .max_by_key(|p| p.priority());
                if let Some(p) = top {
                    prof.phase_s[p.index()] += seg;
                }
                let moving = Phase::ALL
                    .into_iter()
                    .any(|p| p.is_data_movement() && active[p.index()] > 0);
                if moving && active[Phase::Compute.index()] > 0 {
                    prof.overlap_s += seg;
                }
            }
            active[phase] += delta;
            prev_t = t;
        }

        // Per-core busy time: union of that core's span intervals.
        for core in 0..PROFILE_CORES {
            let mut iv: Vec<(f64, f64)> = self
                .spans
                .iter()
                .filter(|s| s.core == core && s.t1 > s.t0 && !s.phase.is_host_side())
                .map(|s| (s.t0, s.t1))
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
            let mut busy = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match &mut cur {
                    Some((_, e)) if a <= *e => *e = e.max(b),
                    _ => {
                        if let Some((s, e)) = cur {
                            busy += e - s;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((s, e)) = cur {
                busy += e - s;
            }
            prof.core_busy_s[core] = busy;
        }
        prof
    }
}

/// Fixed-size per-phase summary of one profiled run, embeddable in a
/// [`crate::RunReport`] (which stays `Copy`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseProfile {
    /// Profiled window length: last device span end minus first device
    /// span start, simulated seconds (host-side [`Phase::Plan`] spans do
    /// not extend it).
    pub total_s: f64,
    /// Exclusive simulated seconds per phase, indexed by [`Phase::index`].
    /// Summed over the device phases this is the cluster's busy time and
    /// is `<= total_s`; the [`Phase::Plan`] slot holds *host* planning
    /// seconds accumulated outside the sweep.
    pub phase_s: [f64; PHASE_COUNT],
    /// Busy simulated seconds per physical core (union of its spans;
    /// cores beyond [`PROFILE_CORES`] are not tracked).
    pub core_busy_s: [f64; PROFILE_CORES],
    /// Simulated seconds where data movement and compute ran concurrently
    /// anywhere on the cluster.
    pub overlap_s: f64,
    /// Roofline-predicted GFLOPS for the profiled problem (filled by the
    /// executor; zero when unknown).
    pub roofline_gflops: f64,
    /// Achieved GFLOPS of the profiled run (filled by the executor).
    pub achieved_gflops: f64,
    /// Plan-cache hits over the owning context's lifetime (filled by the
    /// executor; zero when unknown).
    pub plan_hits: u64,
    /// Plan-cache misses over the owning context's lifetime.
    pub plan_misses: u64,
    /// Plan-cache evictions over the owning context's lifetime.
    pub plan_evictions: u64,
    /// Plan-cache hits served from a loaded plan catalog (filled by the
    /// executor; zero when no catalog is attached).
    pub catalog_hits: u64,
    /// Plan lookups that missed the loaded plan catalog.
    pub catalog_misses: u64,
    /// Spans aggregated.
    pub spans: u64,
    /// Events recorded.
    pub events: u64,
    /// Spans/events dropped to the ring bound (phase seconds undercount
    /// the run when nonzero).
    pub dropped: u64,
}

impl PhaseProfile {
    /// Exclusive seconds attributed to `phase`.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.phase_s[phase.index()]
    }

    /// Sum of exclusive per-phase *device* seconds (= cluster busy time;
    /// host-side [`Phase::Plan`]/[`Phase::Tune`] time is excluded).
    pub fn busy_s(&self) -> f64 {
        Phase::ALL
            .into_iter()
            .filter(|p| !p.is_host_side())
            .map(|p| self.phase_seconds(p))
            .sum()
    }

    /// Host seconds spent autotuning (the [`Phase::Tune`] tally).
    pub fn tuning_s(&self) -> f64 {
        self.phase_seconds(Phase::Tune)
    }

    /// DMA/compute overlap as a fraction of the profiled window, in
    /// `[0, 1]` (zero for an empty window).
    pub fn overlap_frac(&self) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        (self.overlap_s / self.total_s).clamp(0.0, 1.0)
    }

    /// A core's busy fraction of the profiled window, in `[0, 1]`.
    pub fn occupancy(&self, core: usize) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        (self.core_busy_s[core] / self.total_s).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, core: usize, t0: f64, t1: f64) -> Span {
        Span {
            phase,
            core,
            t0,
            t1,
        }
    }

    #[test]
    fn exclusive_attribution_prefers_compute() {
        let mut p = Profiler::enabled(16);
        // DMA [0,2) on core 0, compute [1,3) on core 1: the overlapped
        // second goes to compute, the exposed DMA second to dma_load.
        p.record(span(Phase::DmaLoad, 0, 0.0, 2.0));
        p.record(span(Phase::Compute, 1, 1.0, 3.0));
        let prof = p.aggregate();
        assert!((prof.total_s - 3.0).abs() < 1e-12);
        assert!((prof.phase_seconds(Phase::Compute) - 2.0).abs() < 1e-12);
        assert!((prof.phase_seconds(Phase::DmaLoad) - 1.0).abs() < 1e-12);
        assert!((prof.overlap_s - 1.0).abs() < 1e-12);
        assert!((prof.busy_s() - prof.total_s).abs() < 1e-12);
        assert!((prof.occupancy(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((prof.occupancy(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_gaps_keep_busy_below_total() {
        let mut p = Profiler::enabled(16);
        p.record(span(Phase::Compute, 0, 0.0, 1.0));
        p.record(span(Phase::Compute, 0, 3.0, 4.0));
        let prof = p.aggregate();
        assert!((prof.total_s - 4.0).abs() < 1e-12);
        assert!((prof.busy_s() - 2.0).abs() < 1e-12);
        assert_eq!(prof.overlap_frac(), 0.0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut p = Profiler::enabled(2);
        for i in 0..5 {
            p.record(span(Phase::Compute, 0, i as f64, i as f64 + 0.5));
        }
        assert_eq!(p.dropped(), 3);
        let kept: Vec<f64> = p.spans().map(|s| s.t0).collect();
        assert_eq!(kept, vec![3.0, 4.0]);
        assert_eq!(p.aggregate().dropped, 3);
    }

    #[test]
    fn plan_spans_accumulate_without_extending_the_window() {
        let mut p = Profiler::enabled(16);
        p.record(span(Phase::Compute, 0, 0.0, 2.0));
        // Host planning time, recorded far outside the device window: it
        // must tally under `plan` without stretching total_s, counting as
        // device busy time, or touching core occupancy.
        p.record(span(Phase::Plan, 0, 100.0, 100.5));
        let prof = p.aggregate();
        assert!((prof.total_s - 2.0).abs() < 1e-12);
        assert!((prof.phase_seconds(Phase::Plan) - 0.5).abs() < 1e-12);
        assert!((prof.busy_s() - 2.0).abs() < 1e-12);
        assert!((prof.core_busy_s[0] - 2.0).abs() < 1e-12);

        // Plan-only recordings aggregate to a zero-window profile that
        // still reports the planning tally.
        let mut only = Profiler::enabled(16);
        only.record(span(Phase::Plan, 0, 1.0, 1.25));
        let prof = only.aggregate();
        assert_eq!(prof.total_s, 0.0);
        assert!((prof.phase_seconds(Phase::Plan) - 0.25).abs() < 1e-12);
        assert_eq!(prof.busy_s(), 0.0);
    }

    #[test]
    fn tune_spans_are_host_side_like_plan_spans() {
        let mut p = Profiler::enabled(16);
        p.record(span(Phase::Compute, 0, 0.0, 2.0));
        // Host autotuning time far outside the device window: tallied
        // under `tune` without stretching total_s, counting as device
        // busy time, or touching core occupancy.
        p.record(span(Phase::Tune, 0, 50.0, 53.0));
        let prof = p.aggregate();
        assert!((prof.total_s - 2.0).abs() < 1e-12);
        assert!((prof.tuning_s() - 3.0).abs() < 1e-12);
        assert!((prof.busy_s() - 2.0).abs() < 1e-12);
        assert!((prof.core_busy_s[0] - 2.0).abs() < 1e-12);
        assert!(Phase::Tune.is_host_side() && Phase::Plan.is_host_side());
        assert!(!Phase::Compute.is_host_side());
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        p.record(span(Phase::Compute, 0, 0.0, 1.0));
        p.event(EventKind::Retry, Some(0), 0.5);
        assert_eq!(p.spans().count(), 0);
        assert!(p.events().is_empty());
        assert_eq!(p.aggregate(), PhaseProfile::default());
    }

    #[test]
    fn phase_names_are_distinct_keys() {
        // The profile document keys its per-phase seconds by name.
        for p in Phase::ALL {
            let same = Phase::ALL.iter().filter(|q| q.name() == p.name());
            assert_eq!(same.count(), 1, "{}", p.name());
        }
    }
}
