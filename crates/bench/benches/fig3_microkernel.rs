//! Criterion bench for Fig. 3: micro-kernel auto-generation across the
//! full (M, K, N) sweep, plus execution throughput of a representative
//! kernel (lane-FMAs per second of host time) on every tier: the
//! hazard-checked interpreter and both host tiers behind the
//! [`KernelExecutor`] dispatch point.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dspsim::{ExecMode, HwConfig, KernelBindings, Machine};
use kernelgen::{HostTier, KernelCache, KernelExecutor, KernelSpec};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let cfg = HwConfig::default();
    let mut g = c.benchmark_group("fig3");
    g.bench_function("full_sweep_generation", |b| {
        b.iter(|| {
            // Fresh cache each iteration: measures raw generation.
            let cache = KernelCache::new(cfg.clone());
            for k in [512usize, 32] {
                for n in [96usize, 64, 32] {
                    for m in 1..=14usize {
                        let _ = cache.get(KernelSpec::new(m, k, n).unwrap()).unwrap();
                    }
                }
            }
        })
    });

    let ex = KernelExecutor::new(Arc::new(KernelCache::new(cfg.clone())));
    let kernel = ex
        .kernels()
        .get(KernelSpec::new(6, 512, 96).unwrap())
        .unwrap();
    g.throughput(Throughput::Elements(kernel.spec.useful_flops() / 2));
    g.bench_function("interpret_uk_ms6_ka512_na96", |b| {
        let mut m = Machine::with_mode(ExecMode::Interpret);
        let bind = KernelBindings {
            a_off: 0,
            b_off: 0,
            c_off: 512 * 1024,
        };
        b.iter(|| m.run_kernel(0, kernel.program(), bind, false).unwrap())
    });
    for tier in [HostTier::Fast, HostTier::Compiled] {
        let name = match tier {
            HostTier::Fast => "fast_uk_ms6_ka512_na96",
            HostTier::Compiled => "compiled_uk_ms6_ka512_na96",
        };
        g.bench_function(name, |b| {
            let a = vec![1.0f32; 6 * 512];
            let bm = vec![1.0f32; 512 * 96];
            let mut cm = vec![0.0f32; 6 * 96];
            b.iter(|| ex.execute(tier, &kernel, &a, &bm, &mut cm).unwrap())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
