//! Multi-device plans: one GEMM split into M-stripe shards across a set
//! of independent clusters.
//!
//! FT-m7032 carries four GPDSP clusters, each with a private DDR
//! partition (§II of the paper), so the natural cross-device split is
//! data-parallel over M: every cluster runs the *same* resolved
//! [`ChosenStrategy`](crate::ChosenStrategy) on a contiguous stripe of C
//! rows.
//!
//! **Bitwise identity and the unit grid.**  A row's f32 accumulation
//! order is *not* independent of the rows around it: the micro-kernel's
//! `k_u`-way accumulator split is chosen per `KernelSpec`, and a row's
//! spec height depends on where the row falls in the strategy's
//! M-blocking.  A shard runs the pinned plan as a problem of its own, so
//! its walk deals tasks and row blocks from the shard's first row.  The
//! invariant this module maintains is therefore: *shard boundaries land
//! on the unit grid of the pinned plan's walk* ([`crate::RowGrid`]:
//! `m_a` for M-parallel, the group height for K-parallel and TGEMM).
//! Every shard then deals the plain walk's own tasks, and so does every
//! checkpoint span inside it, every salvage point of a failover and the
//! CPU lane's stripe: the merged result, with or without failover, is
//! bitwise identical to a plain single-cluster run of the plan.  The
//! grain is `grain_rows` (the engine's `ckpt_rows`) rounded up to whole
//! units — not to whole rounds, so a job still spreads over clusters.
//! `grain_rows == 0` means no checkpoint grid, so the plan degenerates
//! to a single shard.
//!
//! Planning is two-staged and fully cached:
//!
//! 1. The full shape is planned once through [`crate::FtImm::plan_full`],
//!    which memoises in the shared LRU [`super::PlanCache`]; the
//!    resolved strategy is then *pinned* for every shard (replanning a
//!    shard's smaller sub-shape could choose different blocks and break
//!    bitwise identity between sharded and single-cluster runs).
//! 2. The shard count is chosen by the same analytic cost model the
//!    planner uses ([`super::analytic_seconds`]): a divisor search over
//!    `1..=clusters` minimising per-shard time plus the serialised host
//!    dispatch cost ([`LAUNCH_OVERHEAD_S`] per launch), the
//!    work-group tradeoff from the DPU partitioner exemplar.  The search
//!    is a pure O(clusters) function of the cached plan, so it needs no
//!    memo of its own.
//!
//! Because stage 1 goes through `plan_full`, sharded planning inherits
//! tuned plans transparently: a catalog-preloaded or
//! [`crate::FtImm::tune`]-installed plan under the `Strategy::Auto` key
//! is what gets pinned across every shard — and since the tuner only
//! adopts [`super::tune::BitSignature`]-equal variants, the sharded
//! bitwise-identity argument above is unaffected by tuning.

use crate::backend::predict_cpu_stripe;
use crate::plan::Plan;
use crate::walk::Walk;
use crate::{FtImm, GemmShape, Strategy};
use cpublas::CpuConfig;
use dspsim::BackendKind;

/// Host-side dispatch + cache-coherency cost per cluster launch: cache
/// write-back before launch and invalidate after (§II of the paper;
/// the figure is invented, see DESIGN.md §8).
pub const LAUNCH_OVERHEAD_S: f64 = 50e-6;

/// How a shard came to exist: placed by the cost-model planner up
/// front, or built by the sharded engine while recovering from a fault.
/// Accounting differs — planned CPU shards overlap the cluster
/// timeline (co-execution), failover CPU shards serialise after it (the
/// host only learned of the work when a cluster died).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOrigin {
    /// Emitted by [`plan_sharded`]/[`plan_coexec`] before the job ran.
    Planned,
    /// Built by the engine's failover paths (reroute, salvage, spill).
    Failover,
}

/// One contiguous M-stripe of a sharded GEMM, assigned to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Index of the cluster (in the caller's pool) that runs the stripe.
    /// Meaningless when `backend` is [`BackendKind::Cpu`] (the sharded
    /// engine uses [`crate::cluster::CPU_LANE`]).
    pub cluster: usize,
    /// First C row of the stripe (inclusive).
    pub r0: usize,
    /// One past the last C row of the stripe.
    pub r1: usize,
    /// Device the stripe is placed on.  [`plan_sharded`] only emits
    /// [`BackendKind::Dsp`] shards; [`plan_coexec`] may add a planned
    /// CPU tail, and the sharded engine builds further CPU shards when
    /// spill policy routes work to the host lane.
    pub backend: BackendKind,
    /// Whether the shard was planned up front or built during failover.
    pub origin: ShardOrigin,
}

impl Shard {
    /// Rows in the stripe.
    pub fn rows(&self) -> usize {
        self.r1 - self.r0
    }
}

/// A multi-device plan: the pinned full-shape [`Plan`] plus the M-stripe
/// shard assignment the cost model chose.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedPlan {
    /// The full-shape plan every shard pins (LRU-cached via
    /// [`crate::FtImm::plan_full`]).
    pub plan: Plan,
    /// Contiguous M-stripes, one per participating cluster, covering
    /// `[0, m)` exactly.
    pub shards: Vec<Shard>,
    /// Cost-model estimate of the sharded run: slowest shard plus the
    /// serialised launch overhead.
    pub predicted_s: f64,
}

impl ShardedPlan {
    /// Number of clusters the plan actually uses.
    pub fn clusters_used(&self) -> usize {
        self.shards.len()
    }
}

/// Plan one GEMM across `placement` (an ordered list of usable cluster
/// indices, best first).  The full shape is planned through the LRU plan
/// cache; the shard count is the divisor minimising the analytic
/// per-shard time plus `LAUNCH_OVERHEAD_S` per launch.  Every shard
/// boundary is a multiple of the grain — the caller's checkpoint span
/// (`ckpt_rows`) rounded up to whole units of the plan's walk — so the
/// merged run matches a plain single-cluster run bit-for-bit (see the
/// module docs); `grain_rows == 0` means no checkpoint grid and forces
/// a single shard.  Panics if `placement` is empty (the caller decides what an
/// empty pool means).
pub fn plan_sharded(
    ft: &FtImm,
    shape: &GemmShape,
    strategy: Strategy,
    cores: usize,
    placement: &[usize],
    grain_rows: usize,
) -> ShardedPlan {
    assert!(!placement.is_empty(), "plan_sharded needs ≥ 1 cluster");
    let plan = ft.plan_full(shape, strategy, cores);
    let g = grain(&plan, grain_rows);
    // Whole grains of rows; the last grain may be short.
    let units = shape.m.div_ceil(g).max(1);
    let (best_d, best_t) =
        best_dsp_divisor(ft, shape, &plan, cores, placement.len(), units, g, shape.m);
    let shards = build_dsp_shards(placement, best_d, units, g, shape.m);
    ShardedPlan {
        plan,
        shards,
        predicted_s: best_t,
    }
}

/// The outcome of the co-execution split search: how many M-tail rows
/// the CPU lane should take, and the three predicted makespans the
/// decision was made from.  `cpu_rows == 0` is the degenerate all-DSP
/// pick, `cpu_rows == m` the all-CPU one — the Fig. 7 crossover as a
/// planner decision rather than a chart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoexecChoice {
    /// Rows of the M tail placed on the CPU lane (a multiple of the
    /// shard grain away from `m`, or `0`/`m` exactly).
    pub cpu_rows: usize,
    /// Predicted makespan of the chosen split, seconds.
    pub predicted_s: f64,
    /// Predicted makespan of the best all-DSP plan (identical to
    /// [`plan_sharded`]'s `predicted_s` for the same inputs).
    pub dsp_only_s: f64,
    /// Predicted makespan of running the whole GEMM on the CPU lane.
    pub cpu_only_s: f64,
}

/// Choose how many M-tail rows to co-execute on the CPU lane.
///
/// Both backend models are consulted — the planner's analytic DSP model
/// through the pinned full-shape plan, and the CPU model through
/// [`predict_cpu_stripe`] (scaled by the lane's health `cpu_slowdown`).
/// The split is searched on a bounded fraction grid (≤ 33 candidates)
/// over the shard grains, each candidate costed as
/// `max(DSP side with its own divisor search, CPU side)` — launches are
/// charged per device since the lanes run concurrently.  The degenerate
/// all-DSP and all-CPU candidates are always in the grid and ties keep
/// the DSP-heavier split, so the choice is deterministic and never
/// predicted slower than the best single-backend plan.
///
/// `grain_rows == 0` disables the checkpoint grid, so only the
/// degenerate picks are available.
#[allow(clippy::too_many_arguments)]
pub fn choose_coexec_split(
    ft: &FtImm,
    shape: &GemmShape,
    strategy: Strategy,
    cores: usize,
    clusters: usize,
    grain_rows: usize,
    cpu: &CpuConfig,
    cpu_slowdown: f64,
) -> CoexecChoice {
    assert!(clusters >= 1, "choose_coexec_split needs ≥ 1 cluster");
    let plan = ft.plan_full(shape, strategy, cores);
    let g = grain(&plan, grain_rows);
    let units = shape.m.div_ceil(g).max(1);
    // Bounded fraction grid: O(1) in M, endpoints always included.
    let steps = units.min(COEXEC_SPLIT_STEPS);
    let mut dsp_only_s = f64::INFINITY;
    let mut cpu_only_s = f64::INFINITY;
    let (mut best_rows, mut best_t) = (0usize, f64::INFINITY);
    let mut last = None;
    for i in 0..=steps {
        let cpu_units = units * i / steps;
        if last == Some(cpu_units) {
            continue;
        }
        last = Some(cpu_units);
        let (_, t) = eval_split(
            ft,
            shape,
            &plan,
            cores,
            clusters,
            units,
            g,
            cpu_units,
            cpu,
            cpu_slowdown,
        );
        if cpu_units == 0 {
            dsp_only_s = t;
        }
        if cpu_units == units {
            cpu_only_s = t;
        }
        if t < best_t {
            (best_rows, best_t) = (cpu_rows_for(shape, units, g, cpu_units), t);
        }
    }
    CoexecChoice {
        cpu_rows: best_rows,
        predicted_s: best_t,
        dsp_only_s,
        cpu_only_s,
    }
}

/// Plan one GEMM across `placement` *and* the CPU lane: like
/// [`plan_sharded`], but the M tail chosen by [`choose_coexec_split`]
/// (or pinned by a tuned plan's [`Plan::coexec_cpu_rows`] hint, when it
/// sits on the shard grain) is emitted as one
/// [`BackendKind::Cpu`] shard with [`ShardOrigin::Planned`].  The CPU
/// stripe executes through the host mirror on the same grid, so the
/// merged C keeps the module's bitwise-identity contract.  Degenerate
/// choices collapse to an ordinary DSP-only plan or a single CPU shard.
#[allow(clippy::too_many_arguments)]
pub fn plan_coexec(
    ft: &FtImm,
    shape: &GemmShape,
    strategy: Strategy,
    cores: usize,
    placement: &[usize],
    grain_rows: usize,
    cpu: &CpuConfig,
    cpu_slowdown: f64,
) -> ShardedPlan {
    assert!(!placement.is_empty(), "plan_coexec needs ≥ 1 cluster");
    let plan = ft.plan_full(shape, strategy, cores);
    let g = grain(&plan, grain_rows);
    let units = shape.m.div_ceil(g).max(1);
    // A tuned plan pins its split; anything off the grid (e.g. a hint
    // tuned under a different ckpt_rows) falls back to the live search.
    let hint = plan.coexec_cpu_rows;
    let hint_valid =
        hint == 0 || hint == shape.m || (hint < shape.m && (shape.m - hint).is_multiple_of(g));
    let cpu_rows = if hint_valid && hint != 0 {
        hint
    } else if hint_valid && hint == 0 && plan.origin == super::PlanOrigin::Tuned {
        // A tuned plan that says "no CPU tail" is also a pinned answer.
        0
    } else {
        choose_coexec_split(
            ft,
            shape,
            strategy,
            cores,
            placement.len(),
            grain_rows,
            cpu,
            cpu_slowdown,
        )
        .cpu_rows
    };
    if cpu_rows == 0 {
        return plan_sharded(ft, shape, strategy, cores, placement, grain_rows);
    }
    let dsp_units = (shape.m - cpu_rows) / g;
    debug_assert_eq!(dsp_units * g, shape.m - cpu_rows);
    let cpu_units = units - dsp_units;
    let (best_d, predicted_s) = eval_split(
        ft,
        shape,
        &plan,
        cores,
        placement.len(),
        units,
        g,
        cpu_units,
        cpu,
        cpu_slowdown,
    );
    let b = shape.m - cpu_rows;
    let mut shards = if dsp_units == 0 {
        Vec::new()
    } else {
        build_dsp_shards(placement, best_d, dsp_units, g, b)
    };
    shards.push(Shard {
        cluster: crate::cluster::CPU_LANE,
        r0: b,
        r1: shape.m,
        backend: BackendKind::Cpu,
        origin: ShardOrigin::Planned,
    });
    ShardedPlan {
        plan,
        shards,
        predicted_s,
    }
}

/// Fraction-grid resolution of the split search (keeps the chooser
/// O(clusters × steps) even for M in the millions of rows).
const COEXEC_SPLIT_STEPS: usize = 32;

/// The shard grain: `grain_rows` rounded up to whole units of the pinned
/// plan's [`crate::RowGrid`], so every shard boundary lies on the unit
/// grid.  No checkpoint grid (`grain_rows == 0`) means one grain spanning
/// all of M.
fn grain(plan: &Plan, grain_rows: usize) -> usize {
    let GemmShape { m, n, k } = plan.shape;
    let unit = Walk::new(&plan.strategy, m, n, k, plan.cores).grid().unit;
    if grain_rows == 0 {
        m.max(1)
    } else {
        grain_rows.div_ceil(unit) * unit
    }
}

/// Rows of the M tail covered by the last `cpu_units` grains.
fn cpu_rows_for(shape: &GemmShape, units: usize, g: usize, cpu_units: usize) -> usize {
    if cpu_units == 0 {
        0
    } else {
        shape.m - (units - cpu_units) * g
    }
}

/// Cost one split candidate: the DSP side runs `units - cpu_units`
/// grains through its own divisor search, the CPU side runs the tail
/// through the shared CPU model; the lanes overlap, so the makespan is
/// the max.  Returns `(best DSP shard count, predicted seconds)`.
#[allow(clippy::too_many_arguments)]
fn eval_split(
    ft: &FtImm,
    shape: &GemmShape,
    plan: &Plan,
    cores: usize,
    clusters: usize,
    units: usize,
    g: usize,
    cpu_units: usize,
    cpu: &CpuConfig,
    cpu_slowdown: f64,
) -> (usize, f64) {
    let dsp_units = units - cpu_units;
    let cpu_rows = cpu_rows_for(shape, units, g, cpu_units);
    let cpu_t = if cpu_rows == 0 {
        0.0
    } else {
        predict_cpu_stripe(cpu, cpu_rows, shape.n, shape.k, cpu_slowdown).seconds
            + LAUNCH_OVERHEAD_S
    };
    if dsp_units == 0 {
        return (0, cpu_t);
    }
    let rows_total = shape.m - cpu_rows;
    let (best_d, dsp_t) =
        best_dsp_divisor(ft, shape, plan, cores, clusters, dsp_units, g, rows_total);
    (best_d, dsp_t.max(cpu_t))
}

/// The shard-count search shared by [`plan_sharded`] and the
/// co-execution planner: pick `d ≤ clusters` DSP shards for `units`
/// grains of `g` rows (covering `rows_total` rows in all), minimising
/// the analytic biggest-stripe time plus the serialised
/// `LAUNCH_OVERHEAD_S` per launch.
#[allow(clippy::too_many_arguments)]
fn best_dsp_divisor(
    ft: &FtImm,
    shape: &GemmShape,
    plan: &Plan,
    cores: usize,
    clusters: usize,
    units: usize,
    g: usize,
    rows_total: usize,
) -> (usize, f64) {
    let max_d = clusters.min(units);
    let (mut best_d, mut best_t) = (1usize, f64::INFINITY);
    for d in 1..=max_d {
        let rows = (units.div_ceil(d) * g).min(rows_total);
        let sub = GemmShape::new(rows, shape.n, shape.k);
        let t = analytic_shard_seconds(ft, &sub, plan, cores) + LAUNCH_OVERHEAD_S * d as f64;
        if t < best_t {
            (best_d, best_t) = (d, t);
        }
    }
    (best_d, best_t)
}

/// Distribute `units` grains over the first `d` placement entries as
/// contiguous DSP stripes covering `[0, rows_total)`, remainder grains
/// to the earliest shards.
fn build_dsp_shards(
    placement: &[usize],
    d: usize,
    units: usize,
    g: usize,
    rows_total: usize,
) -> Vec<Shard> {
    let (base, rem) = (units / d, units % d);
    let mut shards = Vec::with_capacity(d);
    let mut r0 = 0;
    for (i, &cluster) in placement.iter().take(d).enumerate() {
        let u = base + usize::from(i < rem);
        let r1 = (r0 + u * g).min(rows_total);
        shards.push(Shard {
            cluster,
            r0,
            r1,
            backend: BackendKind::Dsp,
            origin: ShardOrigin::Planned,
        });
        r0 = r1;
    }
    debug_assert_eq!(r0, rows_total);
    shards
}

fn analytic_shard_seconds(ft: &FtImm, sub: &GemmShape, plan: &Plan, cores: usize) -> f64 {
    super::analytic_seconds(ft.cache(), ft.cfg(), sub, &plan.strategy, cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::HwConfig;

    #[test]
    fn shards_tile_m_exactly_and_contiguously() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(4099, 32, 64);
        let sp = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[2, 0, 3, 1], 8);
        assert_eq!(sp.shards[0].r0, 0);
        assert_eq!(sp.shards.last().unwrap().r1, shape.m);
        for w in sp.shards.windows(2) {
            assert_eq!(w[0].r1, w[1].r0);
        }
        // Shards land on the placement order, best cluster first.
        assert_eq!(sp.shards[0].cluster, 2);
        assert!(sp.predicted_s.is_finite());
    }

    #[test]
    fn big_type1_shapes_split_but_tiny_ones_do_not() {
        let ft = FtImm::new(HwConfig::default());
        let big = GemmShape::new(1 << 18, 32, 32);
        let sp = plan_sharded(&ft, &big, Strategy::Auto, 8, &[0, 1, 2, 3], 8);
        assert!(sp.clusters_used() > 1, "{:?}", sp.shards);
        // A tiny problem is not worth a second 50 µs launch.
        let tiny = GemmShape::new(16, 16, 16);
        let sp = plan_sharded(&ft, &tiny, Strategy::Auto, 8, &[0, 1, 2, 3], 8);
        assert_eq!(sp.clusters_used(), 1);
    }

    #[test]
    fn boundaries_sit_on_the_checkpoint_grid() {
        let ft = FtImm::new(HwConfig::default());
        // 4099 = 8 * 512 + 3: interior boundaries must be multiples of
        // the grain, only the final r1 may be off-grid.
        for grain in [1usize, 4, 8, 16, 33] {
            let shape = GemmShape::new(4099, 32, 64);
            let sp = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], grain);
            for s in &sp.shards[..sp.shards.len() - 1] {
                assert_eq!(s.r1 % grain, 0, "grain {grain}: boundary {}", s.r1);
                assert!(s.rows() > 0);
            }
            assert_eq!(sp.shards.last().unwrap().r1, shape.m);
        }
        // Grain 0 (checkpointing off) has no grid to align to, so the
        // plan must not split at all.
        let sp = plan_sharded(
            &ft,
            &GemmShape::new(1 << 18, 32, 32),
            Strategy::Auto,
            8,
            &[0, 1, 2, 3],
            0,
        );
        assert_eq!(sp.clusters_used(), 1);
    }

    #[test]
    fn shard_count_never_exceeds_rows() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(2, 8, 8);
        let sp = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 8);
        assert!(sp.clusters_used() <= 2);
        assert_eq!(sp.shards.iter().map(Shard::rows).sum::<usize>(), 2);
    }

    #[test]
    fn coexec_dsp_only_leg_is_bit_equal_to_plan_sharded() {
        let ft = FtImm::new(HwConfig::default());
        // Table II type-2 regime: tiny M, the DSP wins outright and the
        // degenerate pick must price the all-DSP leg with exactly the
        // same arithmetic plan_sharded uses.
        let shape = GemmShape::new(32, 32, 8192);
        let cpu = CpuConfig::default();
        let choice = choose_coexec_split(&ft, &shape, Strategy::Auto, 8, 4, 64, &cpu, 1.0);
        let sp = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64);
        assert_eq!(choice.cpu_rows, 0);
        assert_eq!(choice.dsp_only_s.to_bits(), sp.predicted_s.to_bits());
        assert_eq!(choice.predicted_s.to_bits(), sp.predicted_s.to_bits());
        // And the co-exec planner collapses to the ordinary DSP plan.
        let cp = plan_coexec(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64, &cpu, 1.0);
        assert_eq!(cp, sp);
    }

    #[test]
    fn mixed_split_tiles_m_with_a_grid_aligned_cpu_tail() {
        let ft = FtImm::new(HwConfig::default());
        // Table I type-1 regime: tall-skinny M is where co-execution
        // pays.  Eight 6080-row tasks make a round; the default CPU model
        // takes the 1360 rows the last, partial round would leave to
        // one core.
        let shape = GemmShape::new(50_000, 32, 32);
        let cpu = CpuConfig::default();
        let choice = choose_coexec_split(&ft, &shape, Strategy::Auto, 8, 4, 64, &cpu, 1.0);
        assert!(
            choice.cpu_rows > 0 && choice.cpu_rows < shape.m,
            "expected a mixed split, got {choice:?}"
        );
        let plan = ft.plan_full(&shape, Strategy::Auto, 8);
        let unit = Walk::new(&plan.strategy, shape.m, 32, 32, 8).grid().unit;
        assert_eq!((shape.m - choice.cpu_rows) % unit, 0);
        assert_eq!((shape.m - choice.cpu_rows) % 64, 0);
        assert!(choice.predicted_s <= choice.dsp_only_s);
        assert!(choice.predicted_s <= choice.cpu_only_s);
        let cp = plan_coexec(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64, &cpu, 1.0);
        // Shards tile [0, m) contiguously with a single CPU tail.
        assert_eq!(cp.shards[0].r0, 0);
        for w in cp.shards.windows(2) {
            assert_eq!(w[0].r1, w[1].r0);
        }
        let tail = cp.shards.last().unwrap();
        assert_eq!(tail.r1, shape.m);
        assert_eq!(tail.backend, BackendKind::Cpu);
        assert_eq!(tail.cluster, crate::cluster::CPU_LANE);
        assert_eq!(tail.origin, ShardOrigin::Planned);
        assert_eq!(tail.rows(), choice.cpu_rows);
        for s in &cp.shards[..cp.shards.len() - 1] {
            assert_eq!(s.backend, BackendKind::Dsp);
            assert_eq!(s.origin, ShardOrigin::Planned);
        }
        assert_eq!(cp.predicted_s.to_bits(), choice.predicted_s.to_bits());
    }

    #[test]
    fn dominance_degenerates_to_a_single_backend() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(8192, 32, 32);
        // A crippled CPU lane never gets rows...
        let slow = choose_coexec_split(
            &ft,
            &shape,
            Strategy::Auto,
            8,
            4,
            64,
            &CpuConfig::default(),
            1e9,
        );
        assert_eq!(slow.cpu_rows, 0);
        // ...and a host that dwarfs the DSP takes the whole GEMM.
        let fast_cpu = CpuConfig {
            clock_hz: 2.2e12,
            ddr_bw: 42.6e12,
            barrier_s: 8e-9,
            ..CpuConfig::default()
        };
        let fast = choose_coexec_split(&ft, &shape, Strategy::Auto, 8, 4, 64, &fast_cpu, 1.0);
        assert_eq!(fast.cpu_rows, shape.m);
        assert_eq!(fast.predicted_s.to_bits(), fast.cpu_only_s.to_bits());
        let cp = plan_coexec(
            &ft,
            &shape,
            Strategy::Auto,
            8,
            &[0, 1, 2, 3],
            64,
            &fast_cpu,
            1.0,
        );
        assert_eq!(cp.shards.len(), 1);
        assert_eq!(cp.shards[0].backend, BackendKind::Cpu);
        assert_eq!(cp.shards[0].rows(), shape.m);
    }

    #[test]
    fn grain_zero_permits_only_degenerate_splits() {
        let ft = FtImm::new(HwConfig::default());
        // No checkpoint grid: one grain spans M, so the chooser may only
        // pick 0 or m.
        for cpu in [
            CpuConfig::default(),
            CpuConfig {
                clock_hz: 2.2e12,
                ddr_bw: 42.6e12,
                barrier_s: 8e-9,
                ..CpuConfig::default()
            },
        ] {
            let shape = GemmShape::new(8192, 32, 32);
            let c = choose_coexec_split(&ft, &shape, Strategy::Auto, 8, 4, 0, &cpu, 1.0);
            assert!(c.cpu_rows == 0 || c.cpu_rows == shape.m, "{c:?}");
        }
    }

    #[test]
    fn full_shape_plan_is_lru_cached() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(4096, 32, 64);
        let _ = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1], 8);
        let misses = ft.plan_cache_stats().misses;
        let _ = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[1, 0], 8);
        assert_eq!(ft.plan_cache_stats().misses, misses);
        assert!(ft.plan_cache_stats().hits >= 1);
    }
}
