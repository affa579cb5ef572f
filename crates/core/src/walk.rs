//! The blocking walk: the one enumeration of which panels a strategy
//! touches, in which order, on which core.
//!
//! Algorithms 1, 4 and 5 of the paper are the same four-level nest with
//! different block sizes and a different dimension spread over the cores:
//!
//! 1. [`Walk::groups`] — the extent one GSM-resident panel serves:
//!    `B[k, n]` for M-parallel, `A[m, k]` for TGEMM, `C[m, n]` for
//!    K-parallel.  The dimension the panel does not block spans whole.
//! 2. [`Walk::tasks`] — one `C` panel's life in a core's AM.  M-parallel
//!    and TGEMM deal their chunks (of M, of N) round-robin over the
//!    cores; K-parallel tasks come in runs of [`Walk::active`], one per
//!    core, every task of a run covering the same `C` panel with a
//!    private accumulator, and each run reduces in that order.
//! 3. [`Walk::k_steps`] — the K ranges the panel accumulates, in order
//!    (for K-parallel, the core's strided share of the `k_a` slices).
//! 4. [`Walk::row_blocks`] — `(offset, height)` in steps of `m_s`, one
//!    kernel invocation each ([`Walk::kernel`]).
//!
//! Every operand is the same projection of those ranges for every
//! strategy: the accumulator is `C[rows, cols]` of the task, a step's B
//! panel is `B[k0.., cols]`, a row block's A block is `A[r0 + u.., k0..]`.
//! That is why one consumer serves all three strategies, and why the DSP
//! emitters ([`crate::mpar`], [`crate::kpar`], [`crate::tgemm`]) and the
//! host mirror (`backend/host.rs`) agree bit for bit: per-element f32
//! accumulation order is a function of this enumeration alone, and both
//! consume it.  [`Walk::levels`] states the same blocking as nested
//! partition levels — what the tuner's [`crate::BitSignature`] compares.
//!
//! Where those panels live is the walk's business too: [`Walk::layout`]
//! is the one scratchpad [`Layout`] every emitter addresses, and
//! [`Walk::footprint`] reads off the walk how far into each scratchpad a
//! run reaches.  [`Footprint::fits`] is therefore the one feasibility
//! predicate: it holds exactly when a run of the walk raises no
//! scratchpad `OutOfBounds`, functional or timing.
//!
//! So is where a run may be cut in M: [`Walk::grid`] is the [`RowGrid`]
//! that checkpoint spans, shards, the CPU lane and recovery all cut on.
//!
//! The crate-private items at the end are the part of *emitting* the walk
//! on the DSP that does not depend on the strategy: the double-buffered
//! prefetch order, the `A_s` + kernel-invoke loop, and `Replay`, which
//! lets a timing walk step one core per class of a synchronisation window
//! and copy its clocks onto the others.

use crate::plan::StrategyKind;
use crate::{invoke_kernel, ChosenStrategy, FtimmError, GemmProblem, GemmShape, TgemmParams};
use dspsim::{CoreStats, Dma2d, DmaPath, DmaTicket, HwConfig, KernelBindings, Machine, SimError};
use kernelgen::{GenError, KernelCache, KernelExecutor, KernelSpec, MicroKernel};
use std::ops::Range;
use std::sync::Arc;

/// Round a panel width up to whole 32-lane vectors (the leading dimension
/// of an AM panel).
pub(crate) fn pad_lanes(n: usize) -> usize {
    n.div_ceil(32) * 32
}

/// The scratchpad layout of a walk (§IV-C), in byte offsets: per core,
/// `C_a` then the two `B_a` buffers in AM and the two `A_s` buffers in
/// SM; per cluster, the double-buffered `B_g` (M-par) or `A_g` (TGEMM)
/// panel in GSM, or K-par's single `C_g`.  Each buffer is sized for the
/// full block, so it holds any block the walk cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// AM: the task's `C_a` panel.
    pub c_a: u64,
    /// AM: the two `B_a` buffers.
    pub b_a: [u64; 2],
    /// SM: the two `A_s` buffers.
    pub a_s: [u64; 2],
    /// GSM: the two group-panel buffers (both `0` for K-par's one `C_g`).
    pub g: [u64; 2],
}

/// The block ranges the planner and tuner search, read off the layout at
/// full block size: the paper's §IV-C envelope.  It bounds what is
/// *proposed*; whether a proposal can run is [`Footprint::fits`], which
/// admits more wherever a second buffer holds a short tail or none.
impl Layout {
    /// Rows of `C_a` plus both `B_a` buffers an AM holds at panel width
    /// `n_a`: the envelope `m_a + 2·k_a` (2048 at `n_a = 96`).
    pub fn am_rows(cfg: &HwConfig, n_a: usize) -> usize {
        cfg.am_bytes / (4 * pad_lanes(n_a))
    }

    /// The tallest `C_a` the envelope leaves beside two `k_a`-deep `B_a`.
    pub fn max_m_a(cfg: &HwConfig, n_a: usize, k_a: usize) -> usize {
        Layout::am_rows(cfg, n_a).saturating_sub(2 * k_a)
    }

    /// Depth of a double-buffered `B_g` panel `n_g` wide that GSM holds.
    pub fn b_g_rows(cfg: &HwConfig, n_g: usize) -> usize {
        cfg.gsm_bytes / (2 * 4 * n_g.max(1))
    }
}

/// How far a walk reaches into each scratchpad at its [`Layout`]: the
/// byte end of its furthest access into one core's SM and AM and into
/// the cluster's GSM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Per-core SM bytes.
    pub sm: u64,
    /// Per-core AM bytes.
    pub am: u64,
    /// Cluster GSM bytes.
    pub gsm: u64,
}

impl Footprint {
    /// Whether every level fits `cfg`'s capacities — the feasibility
    /// predicate the planner, the tuner and catalog loads share.
    pub fn fits(&self, cfg: &HwConfig) -> bool {
        self.sm <= cfg.sm_bytes as u64
            && self.am <= cfg.am_bytes as u64
            && self.gsm <= cfg.gsm_bytes as u64
    }
}

/// `cores` clamped to a cluster of `cores_per_cluster` cores, at least
/// one: `clamp(1, 0)` would panic, and planning for a machine with no
/// core must return so that running on it is refused with an error.
pub(crate) fn cluster_cores(cores: usize, cores_per_cluster: usize) -> usize {
    cores.min(cores_per_cluster).max(1)
}

/// Whether `strategy` can run `shape` on `cores` cores of a fresh `cfg`
/// machine (cores clamped to the cluster as the emitters clamp them).
pub(crate) fn fits(
    cfg: &HwConfig,
    strategy: &ChosenStrategy,
    shape: &GemmShape,
    cores: usize,
) -> bool {
    let cores = cluster_cores(cores, cfg.cores_per_cluster);
    Walk::new(strategy, shape.m, shape.n, shape.k, cores)
        .footprint()
        .fits(cfg)
}

/// Where a run of a walk may be cut in M.  A sub-run of rows `[r0, r1)`
/// (a checkpoint span, a shard, a CPU-lane stripe, a recovered range)
/// runs the pinned plan as a problem of its own, dealing tasks and row
/// blocks from `r0`: with `r0` on the unit grid they are the full walk's,
/// so its rows are the full run's bit for bit.  Neither quantum depends
/// on M.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowGrid {
    /// `m_a` (M-parallel) or the group height `m_g` (K-parallel, TGEMM).
    pub unit: usize,
    /// Where every core's task ends: `unit × cores` for M-parallel, which
    /// deals units round-robin, `unit` where each task uses every core.
    pub round: usize,
}

impl RowGrid {
    /// The checkpoint spans of `[0, m)`: at least `min_rows` each, rounded
    /// up to whole rounds, the last possibly short.  `min_rows == 0`
    /// (checkpointing off), or a round that covers `m`, yields one span.
    pub fn spans(&self, m: usize, min_rows: usize) -> Vec<(usize, usize)> {
        let step = min_rows.div_ceil(self.round) * self.round;
        if step == 0 || step >= m {
            return vec![(0, m)];
        }
        blocks(0..m, step).map(|b| (b.start, b.end)).collect()
    }

    /// Rows `[r0, r1)` of an `m`-row run widened to their enclosing units.
    pub fn widen(&self, (r0, r1): (usize, usize), m: usize) -> (usize, usize) {
        let u = self.unit;
        (r0 / u * u, (r1.div_ceil(u) * u).min(m))
    }
}

/// `range` cut into consecutive blocks of `step` (the last one short).
fn blocks(range: Range<usize>, step: usize) -> impl Iterator<Item = Range<usize>> + Clone {
    let end = range.end;
    range.step_by(step).map(move |s| s..end.min(s + step))
}

/// Leaf block sizes of nested blocking `levels` over `[0, total)`, in
/// traversal order — each level cuts its parent block from the block's
/// own origin, exactly like [`Walk`]'s nested ranges — as `(size, count)`
/// runs, equal adjacent sizes merged, so two run lists are equal exactly
/// when their leaf lists are.  The runs of one full block of a level are
/// worked out once and repeated, so the cost is per block of the level
/// above the leaves (per chunk), not per leaf.
fn push_runs(out: &mut Vec<(usize, usize)>, total: usize, levels: &[usize]) {
    let Some((&step, rest)) = levels.split_first() else {
        push_run(out, total, 1);
        return;
    };
    let step = step.max(1);
    let full = total / step;
    if full > 0 {
        let mut one = Vec::new();
        push_runs(&mut one, step, rest);
        match one[..] {
            [(size, count)] => push_run(out, size, count * full),
            _ => {
                for _ in 0..full {
                    for &(size, count) in &one {
                        push_run(out, size, count);
                    }
                }
            }
        }
    }
    if !total.is_multiple_of(step) {
        push_runs(out, total % step, rest);
    }
}

/// Append `count` leaves of `size`, merged into the last run if it has
/// that size (an empty leaf is none).
fn push_run(out: &mut Vec<(usize, usize)>, size: usize, count: usize) {
    if size == 0 || count == 0 {
        return;
    }
    match out.last_mut() {
        Some((last, n)) if *last == size => *n += count,
        _ => out.push((size, count)),
    }
}

/// The extent one GSM-resident panel serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Rows of `C` (and `A`).
    pub m: Range<usize>,
    /// Columns of `C` (and `B`).
    pub n: Range<usize>,
    /// The K range accumulated while the panel is resident.
    pub k: Range<usize>,
}

/// One `C` panel's life in a core's AM: loaded (or zeroed), accumulated
/// over its K steps, stored (or reduced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// The (logical) core that owns the panel.
    pub core: usize,
    /// First row of the panel in `C`.
    pub r0: usize,
    /// First column of the panel in `C`.
    pub c0: usize,
    /// Panel height.
    pub rows: usize,
    /// Real panel width (columns transferred).
    pub cols: usize,
    /// Leading dimension of the AM panels (`B_a` and `C_a`): `n_kernel`
    /// in whole vectors.
    pub ld: usize,
    /// Width the micro-kernel is generated for: `cols`, or TGEMM's fixed
    /// padded width.
    pub n_kernel: usize,
}

/// A strategy's blocking as nested partition levels per dimension
/// (outermost first; a level spanning its whole parent cuts nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Levels {
    /// GSM group, AM panel and micro-kernel heights.
    pub m: [usize; 3],
    /// GSM group and AM panel widths.
    pub n: [usize; 2],
    /// GSM group depth and K step.
    pub k: [usize; 2],
    /// Accumulation streams the K steps are dealt over: [`Walk::active`]
    /// for K-parallel, `0` where every element has one accumulator.
    pub streams: usize,
}

/// The blocking walk of a resolved strategy on an `m × n × k` problem at
/// a core count.  See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    kind: StrategyKind,
    m: usize,
    n: usize,
    k: usize,
    cores: usize,
    active: usize,
    /// Extent of one group in M, N and K.
    group: [usize; 3],
    m_a: usize,
    n_a: usize,
    k_a: usize,
    m_s: usize,
}

impl Walk {
    /// The walk of `strategy` on an `m × n × k` problem.  `cores` is the
    /// count the caller has already clamped to the cluster it runs on (or
    /// mirrors); block sizes and `cores` of zero are read as one.
    pub fn new(strategy: &ChosenStrategy, m: usize, n: usize, k: usize, cores: usize) -> Walk {
        let (kind, group, [m_a, n_a, k_a, m_s]) = match *strategy {
            ChosenStrategy::MPar(b) => (
                StrategyKind::MPar,
                [m, b.n_g, b.k_g],
                [b.m_a, b.n_a, b.k_a, b.m_s],
            ),
            ChosenStrategy::KPar(b) => (
                StrategyKind::KPar,
                [b.m_g, b.n_g, k],
                [b.m_a, b.n_a, b.k_a, b.m_s],
            ),
            ChosenStrategy::TGemm => {
                let t = TgemmParams::default();
                (
                    StrategyKind::TGemm,
                    [t.m_g, n, t.k_g],
                    [t.m_g, t.n_a, t.k_g, t.m_s],
                )
            }
        };
        let [m_a, n_a, k_a, m_s] = [m_a, n_a, k_a, m_s].map(|b| b.max(1));
        // The chunks dealt over the cores: of M, of K, of N.
        let chunks = match kind {
            StrategyKind::MPar => m.div_ceil(m_a),
            StrategyKind::KPar => k.div_ceil(k_a),
            StrategyKind::TGemm => n.div_ceil(n_a),
        };
        let cores = cores.max(1);
        Walk {
            kind,
            m,
            n,
            k,
            cores,
            active: cores.min(chunks).max(1),
            group: group.map(|g| g.max(1)),
            m_a,
            n_a,
            k_a,
            m_s,
        }
    }

    /// Where a run of this walk may be cut in M.
    pub fn grid(&self) -> RowGrid {
        let (unit, round) = match self.kind {
            StrategyKind::MPar => (self.m_a, self.m_a * self.cores),
            StrategyKind::KPar | StrategyKind::TGemm => (self.group[0], self.group[0]),
        };
        RowGrid { unit, round }
    }

    /// Which of the three loop nests this is.
    pub(crate) fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// Cores that receive work: the core count, capped by the number of
    /// chunks the strategy deals out.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Whether tasks accumulate into private zeroed panels that are then
    /// summed into `C` (K-parallel), rather than loading and storing
    /// disjoint panels of `C`.
    pub fn reduces(&self) -> bool {
        self.kind == StrategyKind::KPar
    }

    /// The groups, in the order their panels become GSM-resident.
    pub fn groups(&self) -> impl Iterator<Item = Group> + '_ {
        let [g_m, g_n, g_k] = self.group;
        blocks(0..self.m, g_m).flat_map(move |m| {
            blocks(0..self.n, g_n).flat_map(move |n| {
                let m = m.clone();
                blocks(0..self.k, g_k).map(move |k| Group {
                    m: m.clone(),
                    n: n.clone(),
                    k,
                })
            })
        })
    }

    /// The tasks of one group, in issue order.
    pub fn tasks(&self, g: &Group) -> impl Iterator<Item = Task> + Clone + '_ {
        let replicas = if self.reduces() { self.active } else { 1 };
        let fixed_width = self.kind == StrategyKind::TGemm;
        let cols_of = g.n.clone();
        blocks(g.m.clone(), self.m_a).flat_map(move |rows| {
            blocks(cols_of.clone(), self.n_a).flat_map(move |cols| {
                let rows = rows.clone();
                let n_kernel = if fixed_width { self.n_a } else { cols.len() };
                (0..replicas).map(move |replica| Task {
                    core: match self.kind {
                        StrategyKind::MPar => rows.start / self.m_a % self.cores,
                        StrategyKind::TGemm => cols.start / self.n_a % self.cores,
                        StrategyKind::KPar => replica,
                    },
                    r0: rows.start,
                    c0: cols.start,
                    rows: rows.len(),
                    cols: cols.len(),
                    ld: pad_lanes(n_kernel),
                    n_kernel,
                })
            })
        })
    }

    /// The K ranges `task` accumulates while `g` is resident, in order.
    pub fn k_steps(&self, g: &Group, task: &Task) -> impl Iterator<Item = Range<usize>> + Clone {
        let (first, stride) = if self.reduces() {
            (task.core, self.active)
        } else {
            (0, 1)
        };
        blocks(g.k.clone(), self.k_a).skip(first).step_by(stride)
    }

    /// The `(row offset, height)` micro-kernel blocks of `task`'s panel.
    pub fn row_blocks(&self, task: &Task) -> impl Iterator<Item = (usize, usize)> + Clone {
        blocks(0..task.rows, self.m_s).map(|b| (b.start, b.len()))
    }

    /// The kernel one row block of `task` runs on a K step of length
    /// `k_len`: generated for the exact `ms × k_len × n_kernel` shape —
    /// auto-tuned, or with TGEMM's fixed `k_u = 1` tiling.
    pub fn kernel(
        &self,
        cache: &KernelCache,
        task: &Task,
        ms: usize,
        k_len: usize,
    ) -> Result<Arc<MicroKernel>, GenError> {
        let spec = KernelSpec::new(ms, k_len, task.n_kernel)?;
        match self.kind {
            StrategyKind::TGemm => cache.get_forced(spec, ms, 1),
            _ => cache.get(spec),
        }
    }

    /// The kernels of one K step of `task`, by row-block height: maps a
    /// height to [`Walk::kernel`], fetching from `cache` once per height
    /// instead of once per row block.  A task's row blocks are full `m_s`
    /// blocks and then at most one short one, so one held kernel suffices,
    /// and each height is fetched at its first row block — where a
    /// per-block fetch would be, so a failed fetch surfaces at the same
    /// point of the walk.
    pub(crate) fn step_kernels<'a>(
        &'a self,
        cache: &'a KernelCache,
        task: &Task,
        k_len: usize,
    ) -> impl FnMut(usize) -> Result<Arc<MicroKernel>, GenError> + 'a {
        let task = *task;
        let mut held: Option<Arc<MicroKernel>> = None;
        move |ms| match &held {
            Some(kernel) if kernel.spec.m_s == ms => Ok(Arc::clone(kernel)),
            _ => {
                let kernel = self.kernel(cache, &task, ms, k_len)?;
                held = Some(Arc::clone(&kernel));
                Ok(kernel)
            }
        }
    }

    /// The blocking as nested partition levels.
    pub fn levels(&self) -> Levels {
        let [g_m, g_n, g_k] = self.group;
        Levels {
            m: [g_m, self.m_a, self.m_s],
            n: [g_n, self.n_a],
            k: [g_k, self.k_a],
            streams: if self.reduces() { self.active } else { 0 },
        }
    }

    /// Leaf block sizes of [`Walk::levels`] over M, N and K, in traversal
    /// order — the heights of the micro-kernels down a column of `C`, the
    /// panel widths along a row, and the K steps of one element — as
    /// `(size, count)` runs with equal adjacent sizes merged, so two
    /// walks' runs are equal exactly when their leaf lists are: what
    /// [`crate::BitSignature`] compares, at a cost per chunk rather than
    /// per leaf.
    pub fn run_partitions(&self) -> [Vec<(usize, usize)>; 3] {
        let lv = self.levels();
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        push_runs(&mut out[0], self.m, &lv.m);
        push_runs(&mut out[1], self.n, &lv.n);
        push_runs(&mut out[2], self.k, &lv.k);
        out
    }

    /// Where the emitters put this walk's panels.
    pub fn layout(&self) -> Layout {
        let row = pad_lanes(self.n_a) as u64 * 4;
        let c_a = self.m_a as u64 * row;
        let [g_m, g_n, g_k] = self.group.map(|g| g as u64);
        let g = match self.kind {
            StrategyKind::MPar => [0, g_k * g_n * 4],
            StrategyKind::TGemm => [0, g_m * g_k * 4],
            StrategyKind::KPar => [0, 0],
        };
        Layout {
            c_a: 0,
            b_a: [c_a, c_a + self.k_a as u64 * row],
            a_s: [0, (self.m_s * self.k_a * 4) as u64],
            g,
        }
    }

    /// How far a run of this walk reaches into each scratchpad.
    ///
    /// Closed form from the first two items of each level: every level
    /// is cut from its origin, so the first group, task, K step and row
    /// block are the largest, and the largest item a double buffer's
    /// second slot ever holds is the second one.  Every access is inside
    /// one of: `C_a` (`rows × ld`), a `B_a` slot (the kernel's
    /// `K step × ld` view), an `A_s` slot (`height × K step`) or a group
    /// panel (dense).  TGEMM picks its `B_a` slot by group, not by K step.
    pub fn footprint(&self) -> Footprint {
        let lay = self.layout();
        let mut groups = self.groups();
        let (Some(g0), g1) = (groups.next(), groups.next()) else {
            return Footprint::default();
        };
        let Some(t0) = self.tasks(&g0).next() else {
            return Footprint::default();
        };
        let ld = t0.ld as u64 * 4;
        let depth = |g: &Group| g.k.len() as u64;
        let kb = match self.kind {
            StrategyKind::TGemm => [Some(depth(&g0)), g1.as_ref().map(depth)],
            _ => {
                let mut steps = self.k_steps(&g0, &t0).map(|r| r.len() as u64);
                [steps.next(), steps.next()]
            }
        };
        let k0 = kb[0].unwrap_or(0);
        let mut heights = self.row_blocks(&t0).map(|(_, h)| h as u64);
        let ms = [heights.next(), heights.next()];
        let panel = |g: &Group| {
            let (a, b) = match self.kind {
                StrategyKind::MPar => (g.k.len(), g.n.len()),
                StrategyKind::TGemm => (g.m.len(), g.k.len()),
                StrategyKind::KPar => (g.m.len(), g.n.len()),
            };
            (a * b * 4) as u64
        };
        let slot = |base: [u64; 2], len: [Option<u64>; 2], row: u64| {
            (0..2)
                .filter_map(|i| len[i].map(|l| base[i] + l * row))
                .max()
                .unwrap_or(0)
        };
        Footprint {
            sm: slot(lay.a_s, ms, k0 * 4),
            // C_a (`rows × ld`) ends before its full-block slot does, and
            // every task fills the first B_a after it.
            am: slot(lay.b_a, kb, ld),
            gsm: slot(lay.g, [Some(panel(&g0)), g1.as_ref().map(panel)], 1),
        }
    }
}

/// The double-buffered prefetch every level of the DSP emitters uses:
/// each item's transfer is issued into buffer `index % 2` one step ahead
/// (the first one up front).  Per item: `arrive` waits for its transfer,
/// the next item's is issued, then `body` consumes it.  The simulated
/// clock and the seeded fault stream both depend on that issue order, so
/// it is written once.
pub(crate) fn ping_pong<T>(
    m: &mut Machine,
    items: impl Iterator<Item = T>,
    issue: impl Fn(&mut Machine, &T, usize) -> Result<DmaTicket, SimError>,
    arrive: impl Fn(&mut Machine, DmaTicket),
    mut body: impl FnMut(&mut Machine, T, usize) -> Result<(), FtimmError>,
) -> Result<(), FtimmError> {
    let mut items = items.enumerate().peekable();
    let Some((_, first)) = items.peek() else {
        return Ok(());
    };
    let mut ticket = issue(m, first, 0)?;
    while let Some((i, item)) = items.next() {
        arrive(m, ticket);
        if let Some((_, next)) = items.peek() {
            ticket = issue(m, next, (i + 1) % 2)?;
        }
        body(m, item, i % 2)?;
    }
    Ok(())
}

/// The DSP emitters' shared inner loop: for one K step of `task`, ping-pong
/// the `A_s` row blocks into SM over `path` and invoke the matching kernel
/// on each (fetched once per row-block height, [`Walk::step_kernels`]).
/// `a_src(u)` is the source `(element index, leading dimension)`
/// of the block at row offset `u` — DDR for M-/K-parallel, the GSM `A_g`
/// ping for TGEMM; `b_off` is the byte offset of the step's `B_a` buffer
/// in AM ([`Layout::b_a`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn panel_rows(
    m: &mut Machine,
    ex: &KernelExecutor,
    walk: &Walk,
    task: &Task,
    k_step: &Range<usize>,
    path: DmaPath,
    a_src: impl Fn(usize) -> (u64, u64),
    b_off: u64,
) -> Result<(), FtimmError> {
    let k_len = k_step.len();
    let Layout { c_a, a_s, .. } = walk.layout();
    let mut kernel_for = walk.step_kernels(ex.kernels(), task, k_len);
    ping_pong(
        m,
        walk.row_blocks(task),
        |m, &(u, ms), sping| {
            let (src, src_ld) = a_src(u);
            let dst = a_s[sping] / 4;
            m.dma(
                task.core,
                path,
                &Dma2d::block_f32(ms as u64, k_len as u64, src, src_ld, dst, k_len as u64),
            )
        },
        |m, ticket| m.wait(task.core, ticket),
        |m, (u, ms), sping| {
            let kernel = kernel_for(ms)?;
            let bind = KernelBindings {
                a_off: a_s[sping],
                b_off,
                c_off: c_a + (u * task.ld * 4) as u64,
            };
            invoke_kernel(m, task.core, ex, &kernel, bind)
        },
    )
}

/// Core replay over the synchronisation windows of one run: an M-par or
/// TGEMM group, or a K-par run before its reduction.  Between two
/// synchronisations a core's clocks move by its own work alone, so where
/// [`Machine::replays`] holds, two cores share a class when they enter
/// the window with equal compute-clock bits, each with its DMA engine
/// free by then (`t_dma_free ≤ t_compute`), and issue equal task shapes
/// in it: `(rows, cols, ld, n_kernel)` and the K-step lengths.  A task's
/// first transfer then starts at its core's compute clock, and every
/// later instant is a function of that clock and the shapes, so the
/// class's cores leave the window bit-equal.  The emitters step the
/// lowest core of each class ([`Replay::steps`]); the others take its
/// clocks and counter growth at the window's end ([`Replay::close`]).
///
/// Where a task's panels sit does not enter the class, so replay also
/// needs every refusal a step can raise to follow from the shapes: the
/// scratchpad extents and the kernels do, and a DDR extent is never
/// refused when the operands lie inside DDR, which [`Replay::new`]
/// checks.  A refusal then hits the class's lowest core first, in issue
/// order, so a replayed walk fails with the error stepping fails with.
pub(crate) struct Replay {
    /// Whether this run replays at all.
    on: bool,
    /// Per core, the core whose stepping stands in for it (itself when
    /// stepped).
    source: Vec<usize>,
    /// Per core, its counters when the window opened.
    entry: Vec<CoreStats>,
    /// Per core, the shapes of its tasks in the window, flattened:
    /// `rows, cols, ld, n_kernel`, the K-step count, then the lengths.
    shapes: Vec<Vec<usize>>,
}

impl Replay {
    /// Replay state for a run of `p` on `cores` cores of `m`: off (every
    /// core steps) unless `m` [replays](Machine::replays) and every
    /// operand lies inside DDR.
    pub(crate) fn new(m: &Machine, p: &GemmProblem, cores: usize) -> Replay {
        let capacity = m.ddr.capacity();
        let on = m.replays()
            && [p.a, p.b, p.c]
                .iter()
                .all(|x| x.end().is_some_and(|end| end <= capacity));
        let per_core = if on { cores } else { 0 };
        Replay {
            on,
            source: (0..cores).collect(),
            entry: vec![CoreStats::default(); per_core],
            shapes: vec![Vec::new(); per_core],
        }
    }

    /// Open a window of group `g` whose tasks are `tasks`: split its
    /// cores into classes.
    pub(crate) fn open(
        &mut self,
        m: &Machine,
        walk: &Walk,
        g: &Group,
        tasks: impl Iterator<Item = Task>,
    ) {
        if !self.on {
            return;
        }
        for s in &mut self.shapes {
            s.clear();
        }
        for t in tasks {
            let s = &mut self.shapes[t.core];
            s.extend([t.rows, t.cols, t.ld, t.n_kernel, 0]);
            let count = s.len() - 1;
            s.extend(walk.k_steps(g, &t).map(|ks| ks.len()));
            s[count] = s.len() - count - 1;
        }
        let free = |c: usize| m.core(c).t_dma_free <= m.core(c).t_compute;
        for c in 0..self.source.len() {
            self.entry[c] = m.core(c).stats;
            self.source[c] = c;
            if !free(c) || self.shapes[c].is_empty() {
                continue;
            }
            let t = m.core(c).t_compute.to_bits();
            if let Some(r) = (0..c).find(|&r| {
                self.source[r] == r
                    && free(r)
                    && m.core(r).t_compute.to_bits() == t
                    && self.shapes[r] == self.shapes[c]
            }) {
                self.source[c] = r;
            }
        }
    }

    /// Whether the emitter steps `core`'s tasks in the open window.
    pub(crate) fn steps(&self, core: usize) -> bool {
        self.source[core] == core
    }

    /// Close the window: every core that was not stepped takes its
    /// class's stepped core's clocks and counter growth.
    pub(crate) fn close(&self, m: &mut Machine) {
        for (to, &from) in self.source.iter().enumerate() {
            if from != to {
                m.replay_core(from, &self.entry[from], to);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KparBlocks, MparBlocks};

    #[test]
    fn partitions_cut_each_level_from_its_own_origin_in_merged_runs() {
        let runs = |total, levels: &[usize]| {
            let mut out = Vec::new();
            push_runs(&mut out, total, levels);
            out
        };
        // 4, 4, 2 | 4, 4, 2 | 3.
        assert_eq!(
            runs(23, &[10, 4]),
            vec![(4, 2), (2, 1), (4, 2), (2, 1), (3, 1)]
        );
        // Blocks of 8 cut by 4: one run however many chunks.
        assert_eq!(runs(40, &[8, 4]), vec![(4, 10)]);
        // A short last chunk of the same size merges into the run.
        assert_eq!(runs(22, &[6, 3]), vec![(3, 7), (1, 1)]);
        assert_eq!(runs(8, &[16]), vec![(8, 1)]);
        assert_eq!(runs(0, &[4, 2]), vec![]);
    }

    #[test]
    fn mpar_deals_row_chunks_round_robin_and_steps_k_inside_the_group() {
        let bl = MparBlocks {
            n_g: 64,
            k_g: 40,
            m_a: 10,
            n_a: 24,
            k_a: 16,
            m_s: 4,
        };
        let w = Walk::new(&ChosenStrategy::MPar(bl), 23, 70, 50, 2);
        assert_eq!(w.active(), 2);
        let groups: Vec<Group> = w.groups().collect();
        // N outer, K inner; M whole.
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[1].n, 0..64);
        assert_eq!(groups[1].k, 40..50);
        assert_eq!(groups[3].n, 64..70);
        let tasks: Vec<Task> = w.tasks(&groups[0]).collect();
        // 3 row chunks × 3 column panels (24, 24, 16).
        assert_eq!(tasks.len(), 9);
        assert_eq!(tasks[2].cols, 16);
        assert_eq!(tasks[2].ld, 32);
        assert_eq!(tasks[2].n_kernel, 16);
        assert_eq!(
            tasks.iter().map(|t| t.core).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 1, 0, 0, 0]
        );
        assert_eq!(tasks[8].rows, 3);
        let steps: Vec<_> = w.k_steps(&groups[0], &tasks[0]).collect();
        assert_eq!(steps, vec![0..16, 16..32, 32..40]);
        let rows: Vec<_> = w.row_blocks(&tasks[0]).collect();
        assert_eq!(rows, vec![(0, 4), (4, 4), (8, 2)]);
    }

    #[test]
    fn kpar_tasks_come_in_runs_with_strided_slices() {
        let bl = KparBlocks {
            m_g: 32,
            n_g: 32,
            m_a: 16,
            n_a: 32,
            k_a: 64,
            m_s: 8,
        };
        let w = Walk::new(&ChosenStrategy::KPar(bl), 16, 16, 300, 3);
        assert!(w.reduces());
        assert_eq!(w.active(), 3);
        let g = w.groups().next().unwrap();
        assert_eq!(g.k, 0..300);
        let tasks: Vec<Task> = w.tasks(&g).collect();
        assert_eq!(tasks.len(), 3);
        assert!(tasks
            .iter()
            .all(|t| (t.r0, t.c0, t.rows, t.cols) == (0, 0, 16, 16)));
        let steps: Vec<_> = w.k_steps(&g, &tasks[1]).collect();
        assert_eq!(steps, vec![64..128, 256..300]);
        // More cores than slices: the surplus cores get no task.
        assert_eq!(
            Walk::new(&ChosenStrategy::KPar(bl), 16, 16, 100, 8).active(),
            2
        );
    }

    #[test]
    fn the_layout_is_the_paper_blocks_at_full_size() {
        let mpar = MparBlocks {
            n_g: 96,
            k_g: 5888,
            m_a: 320,
            n_a: 96,
            k_a: 864,
            m_s: 8,
        };
        let lay = Walk::new(&ChosenStrategy::MPar(mpar), 4096, 96, 8192, 8).layout();
        let row = 96 * 4;
        assert_eq!(lay.b_a, [320 * row, (320 + 864) * row]);
        assert_eq!(lay.a_s, [0, 8 * 864 * 4]);
        assert_eq!(lay.g, [0, 5888 * 96 * 4]);
        // TGEMM: 192 KiB C_a and B_a panels, 12 KiB A_s, 1 MiB A_g.
        let lay = Walk::new(&ChosenStrategy::TGemm, 70, 100, 600, 4).layout();
        assert_eq!((lay.c_a, lay.b_a), (0, [196_608, 393_216]));
        assert_eq!((lay.a_s, lay.g), ([0, 12_288], [0, 1 << 20]));
        // The envelope at the paper's width is m_a + 2·k_a = 2048.
        let cfg = dspsim::HwConfig::default();
        assert_eq!(Layout::max_m_a(&cfg, 96, 864), 320);
    }

    #[test]
    fn footprint_counts_what_the_second_buffers_hold() {
        let bl = MparBlocks {
            n_g: 32,
            k_g: 1024,
            m_a: 64,
            n_a: 32,
            k_a: 32,
            m_s: 6,
        };
        let at = |k: usize| Walk::new(&ChosenStrategy::MPar(bl), 10, 20, k, 2).footprint();
        let row = 32 * 4;
        // One K step of 20: the second B_a buffer stays empty.
        assert_eq!(at(20).am, 64 * row + 20 * row);
        // Steps of 32 and 8: the second buffer holds the 8-deep tail.
        assert_eq!(at(40).am, (64 + 32 + 8) * row);
        // Row blocks of 6 and 4 over a 32-deep step; one B_g of 32 × 20.
        assert_eq!(at(40).sm, (6 * 32 + 4 * 32) * 4);
        assert_eq!(at(40).gsm, 40 * 20 * 4);
        // Two B_g groups: the second one sits 1024 × 32 words in.
        assert_eq!(at(1030).gsm, (1024 * 32 + 6 * 20) * 4);
    }

    #[test]
    fn tgemm_keeps_its_fixed_width_and_single_k_step() {
        let w = Walk::new(&ChosenStrategy::TGemm, 70, 100, 600, 4);
        let tp = TgemmParams::default();
        assert_eq!(w.active(), 2);
        let groups: Vec<Group> = w.groups().collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[1].k, 512..600);
        let tasks: Vec<Task> = w.tasks(&groups[1]).collect();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[1].cols, 4);
        assert_eq!(tasks[1].ld, tp.n_a);
        assert_eq!(tasks[1].n_kernel, tp.n_a);
        assert_eq!(tasks[1].core, 1);
        let steps: Vec<_> = w.k_steps(&groups[1], &tasks[1]).collect();
        assert_eq!(steps, vec![512..600]);
    }
}
