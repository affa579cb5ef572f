//! Property sweep of the host execution path against the interpreter.
//!
//! The contract is *bitwise* identity: the kernel lowering at the CPU's
//! widest SIMD level (`ExecMode::Compiled`) and the hazard-checking
//! interpreter (`ExecMode::Interpret`) must produce bit-identical `C`
//! and the same simulated seconds for every shape, strategy and core
//! count.  (That every SIMD level equals the scalar one is `hostsimd`'s
//! own level-forcing tests.)  The sweep draws shapes from each of the
//! fuzzer's four regimes (under the interpreter flop budget so the
//! debug-build run stays fast) and fills the operands adversarially —
//! mixed magnitudes across ~40 binades, signed zeros and subnormals —
//! so a lowering that reorders an accumulation, flushes denormals or
//! contracts differently is caught by exact bit comparison, not hidden
//! inside a tolerance.

use conformance::{sample_for_interpret, Regime, Rng64};
use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::{FtImm, GemmProblem, GemmShape, Strategy};
use proptest::prelude::*;

/// Mixed-magnitude adversarial fill: signed zeros, subnormals and values
/// spanning 2^-20 … 2^19, the regime where a wrong accumulation order or
/// a fused-vs-unfused multiply-add shows up in the low mantissa bits.
fn adversarial_fill(n: usize, rng: &mut Rng64) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.range(0, 9) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN_POSITIVE / 4.0, // subnormal
            3 => -f32::MIN_POSITIVE / 4.0,
            _ => {
                let e = rng.range(0, 39) as i32 - 20;
                let mant = 1.0 + (rng.range(0, 999) as f32) / 1000.0;
                let sign = if rng.range(0, 1) == 0 { 1.0 } else { -1.0 };
                sign * mant * (2.0f32).powi(e)
            }
        })
        .collect()
}

/// Run one GEMM of `shape` under `mode` with seeded adversarial
/// operands; returns `(C, simulated seconds)`.
fn run_tier(
    ft: &FtImm,
    shape: &GemmShape,
    strategy: Strategy,
    cores: usize,
    fill_seed: u64,
    mode: ExecMode,
) -> (Vec<f32>, f64) {
    let mut m = Machine::with_mode(mode);
    let p = GemmProblem::alloc(&mut m, shape.m, shape.n, shape.k).unwrap();
    let mut rng = Rng64::new(fill_seed);
    let a = adversarial_fill(shape.m * shape.k, &mut rng);
    let b = adversarial_fill(shape.k * shape.n, &mut rng);
    let c0 = adversarial_fill(shape.m * shape.n, &mut rng);
    p.a.upload(&mut m, &a).unwrap();
    p.b.upload(&mut m, &b).unwrap();
    p.c.upload(&mut m, &c0).unwrap();
    let (report, _) = ft.gemm(&mut m, &p, strategy, cores).unwrap();
    (p.c.download(&mut m).unwrap(), report.seconds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compiled_and_interpret_agree_bitwise(
        regime_ix in 0usize..4,
        strat_ix in 0usize..3,
        cores in 1usize..5,
        seed in 1u64..100_000,
    ) {
        let regime = Regime::ALL[regime_ix];
        let mut rng = Rng64::new(seed);
        let shape = sample_for_interpret(regime, &mut rng);
        let strategy = [Strategy::MPar, Strategy::KPar, Strategy::TGemm][strat_ix];
        let ft = FtImm::new(HwConfig::default());

        let (cc, tc) = run_tier(&ft, &shape, strategy, cores, seed, ExecMode::Compiled);
        let (ci, ti) = run_tier(&ft, &shape, strategy, cores, seed, ExecMode::Interpret);

        for i in 0..cc.len() {
            prop_assert_eq!(
                cc[i].to_bits(), ci[i].to_bits(),
                "{} {:?} cores={}: compiled vs interpret at {} ({} vs {})",
                shape, strategy, cores, i, cc[i], ci[i]
            );
        }
        prop_assert!((tc - ti).abs() < 1e-15, "seconds: compiled {} vs interpret {}", tc, ti);
    }
}

/// A kernel carries its lowering: re-running the same problem must not
/// lower any kernel again, and the hit counter must move.
#[test]
fn kernels_are_lowered_once_across_runs() {
    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(24, 33, 17);
    let first = run_tier(&ft, &shape, Strategy::MPar, 2, 7, ExecMode::Compiled);
    let after_first = ft.executor_stats();
    assert!(after_first.misses > 0, "first run must lower kernels");
    let second = run_tier(&ft, &shape, Strategy::MPar, 2, 7, ExecMode::Compiled);
    let after = ft.executor_stats();
    assert_eq!(
        after.misses, after_first.misses,
        "an identical re-run must reuse the kernels' lowerings"
    );
    assert!(after.hits > after_first.hits);
    for (x, y) in first.0.iter().zip(&second.0) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// A kernel-cache capacity of 0 regenerates and re-lowers every kernel
/// but stays bit-identical to the cached context.
#[test]
fn kernel_cache_capacity_zero_is_uncached_but_identical() {
    let cached = FtImm::new(HwConfig::default());
    let uncached = FtImm::with_cache_capacities(HwConfig::default(), 0, 0);
    let shape = GemmShape::new(19, 40, 23);
    let (cw, _) = run_tier(&cached, &shape, Strategy::KPar, 2, 11, ExecMode::Compiled);
    let (co, _) = run_tier(&uncached, &shape, Strategy::KPar, 2, 11, ExecMode::Compiled);
    let kernels = uncached.cache().stats();
    assert_eq!(
        (kernels.len, kernels.hits),
        (0, 0),
        "capacity 0 caches no kernel"
    );
    assert_eq!(kernels.capacity, 0);
    for (x, y) in cw.iter().zip(&co) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
