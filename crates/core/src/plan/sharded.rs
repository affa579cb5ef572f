//! Multi-device plans: one GEMM split into M-stripe shards across a set
//! of independent clusters.
//!
//! FT-m7032 carries four GPDSP clusters, each with a private DDR
//! partition (§II of the paper), so the natural cross-device split is
//! data-parallel over M: every cluster runs the *same* resolved
//! [`ChosenStrategy`] on a contiguous stripe of C rows.
//!
//! **Bitwise identity and the unit grid.**  A row's f32 accumulation
//! order is *not* independent of the rows around it: the micro-kernel's
//! `k_u`-way accumulator split is chosen per `KernelSpec`, and a row's
//! spec height depends on where the row falls in the strategy's
//! M-blocking.  A shard runs the pinned strategy as a problem of its
//! own, so its walk deals tasks and row blocks from the shard's first
//! row.  The invariant this module maintains is therefore: *shard
//! boundaries land on the unit grid of the pinned strategy's walk*
//! ([`crate::RowGrid`]: `m_a` for M-parallel, the group height for
//! K-parallel and TGEMM).  Every shard then deals the plain walk's own
//! tasks, and so does every checkpoint span inside it, every salvage
//! point of a failover and the CPU lane's stripe.  The grain is
//! `grain_rows` (the engine's `ckpt_rows`) rounded up to whole units —
//! not to whole rounds, so a job still spreads over clusters.
//! `grain_rows == 0` means no checkpoint grid, so the plan degenerates
//! to a single shard.
//!
//! **Planning ranks (variant, shard count) pairs on the timing walk.**
//!
//! 1. The full shape is planned once through [`FtImm::plan_full`]
//!    (memoised in [`super::PlanCache`]).  Its strategy fixes the
//!    result: the merged C of a sharded run is bitwise identical to a
//!    plain single-cluster run of it.  Tuned and catalog plans arrive
//!    the same way.
//! 2. That strategy was blocked for *one* cluster, so its units can be
//!    too coarse to keep a pool busy: 8192×32×32's eight 1024-row tasks
//!    leave each of four 2048-row shards two tasks for eight cores, and
//!    K-parallel 1536×48×2048's 2048-row group is one unit that cannot
//!    split at all.  So the candidates are the strategy itself plus, for
//!    each shard count `d ≤ clusters`, the *variant* whose unit fills
//!    every shard's rounds: M-parallel `m_a = ⌈⌈M/d⌉/cores⌉`, K-parallel
//!    `m_g = ⌈M/d⌉` (with `m_a ≤ m_g`), each rounded up to `m_s` and
//!    capped at the original block.  A variant is admitted only if its
//!    [`BitSignature`] equals the strategy's and its walk fits — the
//!    autotuner's argument: equal signatures accumulate every element in
//!    the same order, so the variant changes time, never bits.
//! 3. A pair is priced by [`crate::FtImm::predict_seconds`]'s timing
//!    walk of its largest shard plus [`LAUNCH_OVERHEAD_S`] per launch (a
//!    divisor search over device counts, the work-group tradeoff of the
//!    DPU partitioner exemplar).  The cheapest pair wins; ties keep the
//!    earlier candidate, so the planned strategy and fewer shards.  The
//!    winning variant is pinned for every shard, failover remainder and
//!    CPU stripe.  The analytic model is not enough here: it ranks
//!    8192×32×32's and 6144×64×48's pairs wrongly.
//!
//! The co-execution planner prices every DSP leg with the same walk, on
//! the variant the DSP-only ranking chose, so its all-DSP candidate is
//! [`plan_sharded`]'s plan bit for bit.
//!
//! **Cost.**  Every shard height is priced through
//! [`crate::FtImm::predict_seconds`], whose context-wide walk memo
//! answers a (shard shape, variant, cores) it has walked before — for
//! this placement, another placement or the planner — so ranking walks
//! each distinct height of a variant at most once while the memo holds
//! it.  The ranked placement is memoised on the context in a
//! [`kernelgen::BoundedLru`] keyed by (shape, requested strategy, cores,
//! usable clusters, grain).  It is served only while `plan_full` still
//! returns the plan it was ranked from, so a newly tuned plan re-ranks;
//! a repeated job is placed without a walk.

use crate::backend::predict_cpu_stripe;
use crate::plan::tune::{bit_signature, BitSignature};
use crate::plan::Plan;
use crate::walk::{self, Walk};
use crate::{ChosenStrategy, FtImm, GemmShape, KparBlocks, MparBlocks, Strategy};
use cpublas::CpuConfig;
use dspsim::{BackendKind, HwConfig};
use kernelgen::BoundedLru;
use std::sync::Arc;

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
/// shard assignment the ranking chose.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedPlan {
    /// The full-shape plan every shard pins: [`FtImm::plan_full`]'s plan
    /// with its strategy replaced by the winning bit-equal variant (the
    /// planned strategy itself when no variant is cheaper).  Running it
    /// gives the planned strategy's C bit for bit.
    pub plan: Plan,
    /// Contiguous M-stripes, one per participating cluster, covering
    /// `[0, m)` exactly.
    pub shards: Vec<Shard>,
    /// Predicted makespan: the timing walk of the largest DSP shard plus
    /// [`LAUNCH_OVERHEAD_S`] per launch (and, with a planned CPU tail,
    /// the larger of that and the CPU lane's model time).
    pub predicted_s: f64,
}

/// Everything a ranked [`Placement`] depends on besides
/// [`FtImm::plan_full`]'s plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlacementKey {
    shape: GemmShape,
    strategy: Strategy,
    cores: usize,
    clusters: usize,
    grain_rows: usize,
}

/// The context's memo of ranked placements.
pub(crate) type PlacementCache = BoundedLru<PlacementKey, Arc<Placement>>;

/// One ranked candidate: a variant of the planned strategy, its shard
/// grain, and the cheapest shard count found for it.
pub(crate) struct Placement {
    /// [`FtImm::plan_full`]'s plan the ranking started from.
    base: Plan,
    /// `base` with the variant's strategy.
    plan: Plan,
    /// The shard grain: `grain_rows` in whole units of the variant.
    grain: usize,
    /// Grains covering M (the last one may be short).
    units: usize,
    /// Grains per co-execution split step: the fewest whole grains that
    /// are also whole multiples of `grain_rows`.
    split_step: usize,
    /// DSP shards of the cheapest all-DSP run.
    shards: usize,
    /// Its price.
    predicted_s: f64,
}

impl Placement {
    /// Price `strategy` (a variant of `base.strategy`) on up to
    /// `clusters` clusters.
    fn priced(
        ft: &FtImm,
        base: Plan,
        strategy: ChosenStrategy,
        clusters: usize,
        grain_rows: usize,
    ) -> Placement {
        let GemmShape { m, n, k } = base.shape;
        let unit = Walk::new(&strategy, m, n, k, base.cores).grid().unit;
        let grain = if grain_rows == 0 {
            m.max(1)
        } else {
            grain_rows.div_ceil(unit) * unit
        };
        let mut p = Placement {
            base,
            plan: Plan { strategy, ..base },
            grain,
            units: m.div_ceil(grain).max(1),
            split_step: grain_rows.max(1) / gcd(grain, grain_rows.max(1)),
            shards: 1,
            predicted_s: f64::INFINITY,
        };
        (p.shards, p.predicted_s) = p.dsp_leg(ft, clusters, p.units, m, 0.0);
        p
    }

    /// The cheapest DSP leg of `units` grains (`rows_total` rows) over
    /// `1..=clusters` shards: `(shards, makespan)`, the makespan being
    /// the timing walk of the largest shard — or `peer_s`, a concurrent
    /// CPU lane's busy time, if that is longer — plus
    /// [`LAUNCH_OVERHEAD_S`] per DSP launch: the sharded engine's own
    /// accounting of a fault-free run.  The one price of every DSP leg
    /// that is compared against another.
    fn dsp_leg(
        &self,
        ft: &FtImm,
        clusters: usize,
        units: usize,
        rows_total: usize,
        peer_s: f64,
    ) -> (usize, f64) {
        let (mut best_d, mut best_t) = (1usize, f64::INFINITY);
        for d in 1..=clusters.min(units) {
            let rows = (units.div_ceil(d) * self.grain).min(rows_total);
            let t = self.walk(ft, rows).max(peer_s) + LAUNCH_OVERHEAD_S * d as f64;
            if t < best_t {
                (best_d, best_t) = (d, t);
            }
        }
        (best_d, best_t)
    }

    /// Cost one split candidate: the CPU side runs the last `cpu_units`
    /// grains through the shared CPU model and pays its own launch; the
    /// DSP side runs the rest through [`Placement::dsp_leg`],
    /// concurrently with it.  Returns `(best DSP shard count, predicted
    /// seconds)`.
    fn price_split(
        &self,
        ft: &FtImm,
        clusters: usize,
        cpu_units: usize,
        cpu: &CpuConfig,
        cpu_slowdown: f64,
    ) -> (usize, f64) {
        let GemmShape { m, n, k } = self.plan.shape;
        let cpu_rows = self.cpu_rows(cpu_units);
        let cpu_t = if cpu_rows == 0 {
            0.0
        } else {
            predict_cpu_stripe(cpu, cpu_rows, n, k, cpu_slowdown).seconds + LAUNCH_OVERHEAD_S
        };
        if cpu_units == self.units {
            return (0, cpu_t);
        }
        self.dsp_leg(ft, clusters, self.units - cpu_units, m - cpu_rows, cpu_t)
    }

    /// Rows of the M tail covered by the last `cpu_units` grains.
    fn cpu_rows(&self, cpu_units: usize) -> usize {
        if cpu_units == 0 {
            0
        } else {
            self.plan.shape.m - (self.units - cpu_units) * self.grain
        }
    }

    /// Timing-walk seconds of one `rows`-row shard of the variant (the
    /// context's walk memo answers a height it has priced before).
    fn walk(&self, ft: &FtImm, rows: usize) -> f64 {
        let GemmShape { n, k, .. } = self.plan.shape;
        ft.predict_seconds(
            &GemmShape::new(rows, n, k),
            &self.plan.strategy,
            self.plan.cores,
        )
    }
}

/// The ranked placement of one GEMM on `clusters` clusters: memoised on
/// the context, and re-ranked when `plan_full`'s plan has changed.
fn placed(
    ft: &FtImm,
    shape: &GemmShape,
    strategy: Strategy,
    cores: usize,
    clusters: usize,
    grain_rows: usize,
) -> Arc<Placement> {
    let base = ft.plan_full(shape, strategy, cores);
    let key = PlacementKey {
        shape: *shape,
        strategy,
        cores,
        clusters,
        grain_rows,
    };
    if let Some(p) = ft.placements().get(&key).filter(|p| p.base == base) {
        return p;
    }
    let mut best = Placement::priced(ft, base, base.strategy, clusters, grain_rows);
    for v in variants(ft.cfg(), &base, clusters) {
        let cand = Placement::priced(ft, base, v, clusters, grain_rows);
        if cand.predicted_s < best.predicted_s {
            best = cand;
        }
    }
    let best = Arc::new(best);
    ft.placements().insert(key, Arc::clone(&best));
    best
}

/// The bit-equal variants of `base.strategy` that fill every shard's
/// rounds at some shard count `d ≤ clusters` (see the module docs),
/// each distinct and not the strategy itself.
fn variants(cfg: &HwConfig, base: &Plan, clusters: usize) -> Vec<ChosenStrategy> {
    let (shape, m) = (&base.shape, base.shape.m);
    let cores = walk::cluster_cores(base.cores, cfg.cores_per_cluster);
    let round_up = |rows: usize, m_s: usize| rows.div_ceil(m_s.max(1)) * m_s.max(1);
    let mut sig: Option<BitSignature> = None;
    let mut out: Vec<ChosenStrategy> = Vec::new();
    for d in 1..=clusters {
        let rows = m.div_ceil(d);
        let v = match base.strategy {
            ChosenStrategy::MPar(b) => ChosenStrategy::MPar(MparBlocks {
                m_a: round_up(rows.div_ceil(cores), b.m_s).min(b.m_a),
                ..b
            }),
            ChosenStrategy::KPar(b) => {
                let m_g = round_up(rows, b.m_s).min(b.m_g);
                ChosenStrategy::KPar(KparBlocks {
                    m_g,
                    m_a: b.m_a.min(m_g),
                    ..b
                })
            }
            ChosenStrategy::TGemm => return out,
        };
        if v == base.strategy || out.contains(&v) || !walk::fits(cfg, &v, shape, base.cores) {
            continue;
        }
        let sig = sig.get_or_insert_with(|| bit_signature(&base.strategy, shape, base.cores));
        if bit_signature(&v, shape, base.cores) == *sig {
            out.push(v);
        }
    }
    out
}

/// Plan one GEMM across `placement` (an ordered list of usable cluster
/// indices, best first): the cheapest (bit-equal variant, shard count)
/// pair on the timing walk (see the module docs), memoised on the
/// context.  Every shard boundary is a multiple of the grain — the
/// caller's checkpoint span (`ckpt_rows`) rounded up to whole units of
/// the pinned variant's walk — so the merged run matches a plain
/// single-cluster run of [`FtImm::plan_full`]'s plan bit for bit;
/// `grain_rows == 0` means no checkpoint grid and forces a single shard.
/// Panics if `placement` is empty (the caller decides what an empty pool
/// means).
pub fn plan_sharded(
    ft: &FtImm,
    shape: &GemmShape,
    strategy: Strategy,
    cores: usize,
    placement: &[usize],
    grain_rows: usize,
) -> ShardedPlan {
    assert!(!placement.is_empty(), "plan_sharded needs ≥ 1 cluster");
    let p = placed(ft, shape, strategy, cores, placement.len(), grain_rows);
    ShardedPlan {
        plan: p.plan,
        shards: build_dsp_shards(placement, p.shards, p.units, p.grain, shape.m),
        predicted_s: p.predicted_s,
    }
}

/// The outcome of the co-execution split search: how many M-tail rows
/// the CPU lane should take, and the three predicted makespans the
/// decision was made from.  `cpu_rows == 0` is the degenerate all-DSP
/// pick, `cpu_rows == m` the all-CPU one — the Fig. 7 crossover as a
/// planner decision rather than a chart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoexecChoice {
    /// Rows of the M tail placed on the CPU lane (`0`, `m`, or leaving a
    /// DSP prefix of whole shard grains and whole `grain_rows`).
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
/// Both backend models are consulted — the DSP side through the timing
/// walk of the variant [`plan_sharded`]'s ranking pins, and the CPU
/// model through [`predict_cpu_stripe`] (scaled by the lane's health
/// `cpu_slowdown`).  The split is searched on a bounded fraction grid
/// (≤ 33 candidates) whose interior points leave the DSP side a prefix
/// of whole shard grains that is also a whole number of `grain_rows`.
/// Each candidate is costed as the engine accounts a fault-free run:
/// the slower of the DSP side's largest shard (with its own divisor
/// search) and the CPU side, plus one launch per DSP shard — a planned
/// CPU tail pays its own launch on its own timeline.  The degenerate
/// all-DSP and all-CPU candidates are always in the grid
/// and ties keep the DSP-heavier split, so the choice is deterministic
/// and never predicted slower than the best single-backend plan.
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
    let p = placed(ft, shape, strategy, cores, clusters, grain_rows);
    let units = p.units;
    // Bounded fraction grid: O(1) in M, endpoints always included.
    let steps = units.min(COEXEC_SPLIT_STEPS);
    let mut dsp_only_s = f64::INFINITY;
    let mut cpu_only_s = f64::INFINITY;
    let (mut best_rows, mut best_t) = (0usize, f64::INFINITY);
    let mut last = None;
    for i in 0..=steps {
        // The DSP prefix of an interior split is whole split steps.
        let cpu_units = match units * i / steps {
            0 => 0,
            c => units - (units - c) / p.split_step * p.split_step,
        };
        if last == Some(cpu_units) {
            continue;
        }
        last = Some(cpu_units);
        let (_, t) = p.price_split(ft, clusters, cpu_units, cpu, cpu_slowdown);
        if cpu_units == 0 {
            dsp_only_s = t;
        }
        if cpu_units == units {
            cpu_only_s = t;
        }
        if t < best_t {
            (best_rows, best_t) = (p.cpu_rows(cpu_units), t);
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
/// — searched on every call, whatever the context's plan for the shape
/// came from — is emitted as one [`BackendKind::Cpu`] shard with
/// [`ShardOrigin::Planned`].  The CPU stripe executes the pinned variant
/// through the host mirror on the same grid, so the merged C keeps the
/// module's bitwise-identity contract.  Degenerate choices collapse to an ordinary DSP-only plan
/// or a single CPU shard.
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
    let p = placed(ft, shape, strategy, cores, placement.len(), grain_rows);
    let g = p.grain;
    let cpu_rows = choose_coexec_split(
        ft,
        shape,
        strategy,
        cores,
        placement.len(),
        grain_rows,
        cpu,
        cpu_slowdown,
    )
    .cpu_rows;
    if cpu_rows == 0 {
        return plan_sharded(ft, shape, strategy, cores, placement, grain_rows);
    }
    let dsp_units = (shape.m - cpu_rows) / g;
    debug_assert_eq!(dsp_units * g, shape.m - cpu_rows);
    let (best_d, predicted_s) =
        p.price_split(ft, placement.len(), p.units - dsp_units, cpu, cpu_slowdown);
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
        plan: p.plan,
        shards,
        predicted_s,
    }
}

/// Greatest common divisor.
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Fraction-grid resolution of the split search (keeps the chooser
/// O(clusters × steps) even for M in the millions of rows).
const COEXEC_SPLIT_STEPS: usize = 32;

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
        assert!(sp.shards.len() > 1, "{:?}", sp.shards);
        // A tiny problem is not worth a second 50 µs launch.
        let tiny = GemmShape::new(16, 16, 16);
        let sp = plan_sharded(&ft, &tiny, Strategy::Auto, 8, &[0, 1, 2, 3], 8);
        assert_eq!(sp.shards.len(), 1);
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
        assert_eq!(sp.shards.len(), 1);
    }

    #[test]
    fn shard_count_never_exceeds_rows() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(2, 8, 8);
        let sp = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 8);
        assert!(sp.shards.len() <= 2);
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
        // pays, on a host ten times the default model (near the Fig. 7
        // crossover: the pool keeps its rounds full, so a slower host
        // never earns rows).
        let shape = GemmShape::new(32768, 32, 32);
        let cpu = CpuConfig {
            clock_hz: 22e9,
            ddr_bw: 426e9,
            ..CpuConfig::default()
        };
        let choice = choose_coexec_split(&ft, &shape, Strategy::Auto, 8, 4, 64, &cpu, 1.0);
        assert!(
            choice.cpu_rows > 0 && choice.cpu_rows < shape.m,
            "expected a mixed split, got {choice:?}"
        );
        let pinned = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64).plan;
        let unit = Walk::new(&pinned.strategy, shape.m, 32, 32, 8).grid().unit;
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
    fn a_kpar_group_taller_than_m_spreads_over_the_pool() {
        // K-par 1536×48×2048 is planned with m_g = 2048 > M: one unit,
        // so the planned strategy cannot split at all (448 µs of walk
        // plus one launch on one cluster).  A smaller bit-equal group
        // spreads it.
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(1536, 48, 2048);
        let sp = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64);
        assert!(sp.shards.len() > 1, "{:?}", sp.shards);
        assert!(sp.predicted_s <= 464e-6, "{} s", sp.predicted_s);
        let planned = ft.plan_full(&shape, Strategy::Auto, 8);
        assert_ne!(sp.plan.strategy, planned.strategy);
        assert_eq!(
            bit_signature(&sp.plan.strategy, &shape, 8),
            bit_signature(&planned.strategy, &shape, 8)
        );
    }

    #[test]
    fn every_shard_but_the_last_fills_a_round() {
        // 6144×64×48 is planned with eight 768-row tasks: two shards of
        // that plan would each keep four of eight cores busy.
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(6144, 64, 48);
        let sp = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64);
        assert!(sp.shards.len() > 1, "{:?}", sp.shards);
        let round = Walk::new(&sp.plan.strategy, shape.m, 64, 48, 8)
            .grid()
            .round;
        for s in &sp.shards[..sp.shards.len() - 1] {
            assert!(s.rows() >= round, "{} rows < round {round}", s.rows());
        }
    }

    #[test]
    fn a_repeated_placement_runs_no_timing_walk() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(8192, 32, 32);
        let cpu = CpuConfig::default();
        let first = plan_coexec(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64, &cpu, 1.0);
        let sims = ft.timing_simulations();
        let again = plan_coexec(&ft, &shape, Strategy::Auto, 8, &[3, 2, 1, 0], 64, &cpu, 1.0);
        let _ = choose_coexec_split(&ft, &shape, Strategy::Auto, 8, 4, 64, &cpu, 2.0);
        assert_eq!(ft.timing_simulations(), sims);
        assert_eq!(again.plan, first.plan);
        assert_eq!(again.predicted_s.to_bits(), first.predicted_s.to_bits());
    }

    #[test]
    fn a_newly_tuned_plan_is_ranked_afresh() {
        let ft = FtImm::new(HwConfig::default());
        let shape = GemmShape::new(8192, 32, 32);
        let before = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64);
        let tuned = ft.tune(&shape, 8, &crate::plan::TuneConfig::default()).plan;
        let after = plan_sharded(&ft, &shape, Strategy::Auto, 8, &[0, 1, 2, 3], 64);
        assert_eq!(before.plan.origin, crate::plan::PlanOrigin::CostModel);
        assert_eq!(after.plan.origin, crate::plan::PlanOrigin::Tuned);
        assert_eq!(
            bit_signature(&after.plan.strategy, &shape, 8),
            bit_signature(&tuned.strategy, &shape, 8)
        );
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
