//! Ablation-style component benches for the design choices DESIGN.md
//! calls out: modulo scheduling vs the naive II bound, line-scheduler
//! cost, assembler round-trip, and DMA timing arithmetic.

use criterion::{criterion_group, criterion_main, Criterion};
use dspsim::{transfer_time, Dma2d, DmaPath, ExecMode, HwConfig, Machine};
use ftimm_isa::asm;
use kernelgen::modsched::schedule;
use kernelgen::{candidates, KernelSpec, MicroKernel};

fn bench(c: &mut Criterion) {
    let cfg = HwConfig::default();
    let mut g = c.benchmark_group("components");

    g.bench_function("tiling_candidates", |b| {
        let spec = KernelSpec::new(6, 512, 64).unwrap();
        b.iter(|| candidates(&spec, &cfg).unwrap())
    });
    g.bench_function("modulo_schedule", |b| {
        let spec = KernelSpec::new(6, 512, 64).unwrap();
        let t = candidates(&spec, &cfg).unwrap()[0];
        b.iter(|| schedule(t, &cfg).unwrap())
    });
    g.bench_function("assembler_round_trip", |b| {
        let k = MicroKernel::generate(KernelSpec::new(6, 64, 96).unwrap(), &cfg).unwrap();
        let text = asm::render(k.program());
        b.iter(|| asm::parse(&text).unwrap())
    });
    g.bench_function("dma_timing_model", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for streams in 1..=8 {
                acc += transfer_time(&cfg, DmaPath::DdrToAm, 1 << 20, streams);
            }
            acc
        })
    });
    g.bench_function("machine_dma_functional_1mib", |b| {
        let mut m = Machine::with_mode(ExecMode::Fast);
        m.ddr.write_f32(1 << 20, 1.0).unwrap(); // materialise
        b.iter(|| {
            m.dma_sync(0, DmaPath::DdrToAm, &Dma2d::flat(0, 0, 512 * 1024))
                .unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
