//! The sharded planner ([`ftimm::plan_sharded`]) pins a bit-equal
//! variant of the planned strategy: over seeded shapes, pool sizes of
//! one to four clusters and checkpoint grains,
//!
//! 1. the pinned strategy has [`ftimm::BitSignature`] equal to
//!    [`ftimm::FtImm::plan_full`]'s and its walk fits the machine;
//! 2. its predicted makespan is never above the same pricing — the
//!    timing walk of the largest shard plus one launch per shard — of
//!    `plan_full`'s own strategy at its best shard count;
//! 3. a functional fault-free sharded run is bitwise identical to a
//!    plain `run_plan` of `plan_full`'s strategy.

use dspsim::{ExecMode, HwConfig, Machine, Rng64};
use ftimm::plan::sharded::LAUNCH_OVERHEAD_S;
use ftimm::reference::fill_matrix;
use ftimm::{
    bit_signature, plan_sharded, ClusterPool, EngineConfig, FtImm, GemmProblem, GemmShape,
    ResilienceConfig, ShardedConfig, ShardedEngine, ShardedJob, ShardedOutcome, Strategy,
    TenantSpec, Walk,
};

/// A uniform case parameter in `lo..=hi` (`lo < hi` at every call, so
/// each consumes one draw).
fn range(rng: &mut Rng64, lo: usize, hi: usize) -> usize {
    rng.range(lo as u64, hi as u64) as usize
}

const GRAINS: [usize; 5] = [0, 1, 4, 8, 16];

/// `plan_full`'s own strategy priced like the planner prices a pair, at
/// its best shard count.
fn planned_strategy_price(
    ft: &FtImm,
    shape: &GemmShape,
    cores: usize,
    clusters: usize,
    grain: usize,
) -> f64 {
    let plan = ft.plan_full(shape, Strategy::Auto, cores);
    let GemmShape { m, n, k } = *shape;
    let unit = Walk::new(&plan.strategy, m, n, k, cores).grid().unit;
    let g = if grain == 0 {
        m
    } else {
        grain.div_ceil(unit) * unit
    };
    let units = m.div_ceil(g);
    (1..=clusters.min(units))
        .map(|d| {
            let rows = (units.div_ceil(d) * g).min(m);
            let walk = ft.predict_seconds(&GemmShape::new(rows, n, k), &plan.strategy, cores);
            walk + LAUNCH_OVERHEAD_S * d as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// C of a fault-free functional sharded run on `clusters` clusters.
fn sharded_c(
    ft: &FtImm,
    shape: &GemmShape,
    cores: usize,
    clusters: usize,
    grain: usize,
) -> Vec<f32> {
    let GemmShape { m, n, k } = *shape;
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, clusters);
    let cfg = ShardedConfig {
        engine: EngineConfig {
            resilience: ResilienceConfig {
                ckpt_rows: grain,
                ..ResilienceConfig::default()
            },
        },
        ..ShardedConfig::default()
    };
    let mut eng = ShardedEngine::new(pool, cfg);
    let t = eng.register_tenant(TenantSpec::new("props", 1));
    let (a, b, c) = (
        fill_matrix(m * k, 1),
        fill_matrix(k * n, 2),
        fill_matrix(m * n, 3),
    );
    eng.submit(t, ShardedJob::gemm(m, n, k, a, b, c, Strategy::Auto, cores));
    match eng.run_all(ft).remove(0).outcome {
        ShardedOutcome::Completed { c, .. } => c,
        other => panic!("{shape}: sharded run did not complete: {}", other.label()),
    }
}

/// C of a plain single-cluster `run_plan` of `plan_full`'s strategy.
fn plain_c(ft: &FtImm, shape: &GemmShape, cores: usize) -> Vec<f32> {
    let GemmShape { m, n, k } = *shape;
    let plan = ft.plan_full(shape, Strategy::Auto, cores);
    let mut mach = Machine::with_mode(ExecMode::Compiled);
    let p = GemmProblem::alloc(&mut mach, m, n, k).unwrap();
    p.a.upload(&mut mach, &fill_matrix(m * k, 1)).unwrap();
    p.b.upload(&mut mach, &fill_matrix(k * n, 2)).unwrap();
    p.c.upload(&mut mach, &fill_matrix(m * n, 3)).unwrap();
    ft.run_plan(&mut mach, &p, &plan.strategy, cores).unwrap();
    p.c.download(&mut mach).unwrap()
}

#[test]
fn pinned_variants_are_bit_equal_never_dearer_and_run_as_the_plain_plan() {
    let ft = FtImm::new(HwConfig::default());
    let cfg = HwConfig::default();
    let mut rng = Rng64::new(0x5AA2D);
    let mut variants = 0;
    for i in 0..40 {
        // Tall-skinny type 1 and short-wide type 2 alternate, so M-par
        // and K-par plans both come up.
        let shape = if i % 2 == 0 {
            GemmShape::new(
                range(&mut rng, 64, 2400),
                range(&mut rng, 1, 48),
                range(&mut rng, 1, 48),
            )
        } else {
            GemmShape::new(
                range(&mut rng, 8, 160),
                range(&mut rng, 1, 40),
                range(&mut rng, 256, 1536),
            )
        };
        let cores = range(&mut rng, 1, 8);
        let clusters = range(&mut rng, 1, 4);
        let grain = GRAINS[range(&mut rng, 0, GRAINS.len() - 1)];
        let placement: Vec<usize> = (0..clusters).collect();
        let planned = ft.plan_full(&shape, Strategy::Auto, cores);
        let sp = plan_sharded(&ft, &shape, Strategy::Auto, cores, &placement, grain);
        let what = format!("{shape} cores {cores} clusters {clusters} grain {grain}");
        variants += usize::from(sp.plan.strategy != planned.strategy);

        // 1. Bit-equal and feasible.
        assert_eq!(
            bit_signature(&sp.plan.strategy, &shape, cores),
            bit_signature(&planned.strategy, &shape, cores),
            "{what}: {:?} vs {:?}",
            sp.plan.strategy,
            planned.strategy
        );
        let GemmShape { m, n, k } = shape;
        let walk = Walk::new(&sp.plan.strategy, m, n, k, cores.min(cfg.cores_per_cluster));
        assert!(walk.footprint().fits(&cfg), "{what}");

        // 2. Never dearer than the planned strategy's own best pair.
        let own = planned_strategy_price(&ft, &shape, cores, clusters, grain);
        assert!(sp.predicted_s <= own, "{what}: {} > {own}", sp.predicted_s);

        // 3. The merged C is the plain run's.
        let got = sharded_c(&ft, &shape, cores, clusters, grain);
        let want = plain_c(&ft, &shape, cores);
        let same = got
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{what}: sharded C differs from the plain run");
    }
    assert!(variants >= 4, "only {variants} cases pinned a variant");
}
