//! Extension demo: scaling one irregular GEMM across all four GPDSP
//! clusters of FT-m7032 (the paper evaluates a single cluster; §II
//! describes four, each with a private 42.6 GB/s DDR partition), through
//! the sharded engine on data-free timing-mode pools.
//!
//! Run: `cargo run --release --example multicluster`

use dspsim::{ExecMode, HwConfig};
use ftimm::{
    ClusterPool, FtImm, GemmShape, ShardedConfig, ShardedEngine, ShardedJob, ShardedOutcome,
    Strategy, TenantSpec,
};

fn main() {
    let ft = FtImm::new(HwConfig::default());
    let shapes = [
        GemmShape::new(1 << 20, 32, 32),
        GemmShape::new(1 << 20, 96, 96),
        GemmShape::new(20480, 32, 20480),
    ];
    println!(
        "{:>18} {:>12} {:>12} {:>12} {:>9}",
        "shape", "1 cluster", "2 clusters", "4 clusters", "speedup"
    );
    for shape in shapes {
        let gf = [1usize, 2, 4].map(|clusters| {
            let pool = ClusterPool::new(ft.cfg(), ExecMode::Timing, clusters);
            // Shards run checkpointed and their boundaries sit on the
            // checkpoint grid: a quarter of M per span keeps the grid
            // coarse enough for paper-scale shapes and still lets four
            // clusters take one span each.
            let mut cfg = ShardedConfig::default();
            cfg.engine.resilience.ckpt_rows = shape.m / 4;
            let mut eng = ShardedEngine::new(pool, cfg);
            let tenant = eng.register_tenant(TenantSpec::new("demo", 1));
            let job = ShardedJob::timing(shape.m, shape.n, shape.k, Strategy::Auto, 8);
            eng.submit(tenant, job);
            match eng.run_all(&ft).remove(0).outcome {
                ShardedOutcome::Completed { report, .. } => report.gflops(),
                other => panic!("{shape} on {clusters} clusters: {}", other.label()),
            }
        });
        println!(
            "{:>18} {:>10.1}GF {:>10.1}GF {:>10.1}GF {:>8.2}x",
            shape.to_string(),
            gf[0],
            gf[1],
            gf[2],
            gf[2] / gf[0]
        );
    }
}
