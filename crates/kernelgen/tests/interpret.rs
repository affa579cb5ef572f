//! End-to-end validation of generated kernels: every kernel is executed by
//! the `dspsim` interpreter with hazard checking enabled, and its results
//! are compared against a float64 reference (accuracy) and against the
//! order-mirroring `Fast` host tier (bit-exactness).

use dspsim::{ExecMode, HwConfig, KernelBindings, Machine};
use kernelgen::{HostTier, KernelCache, KernelExecutor, KernelSpec, MicroKernel};
use std::sync::Arc;

const A_OFF: u64 = 0;
const B_OFF: u64 = 0;
const C_OFF: u64 = 512 * 1024; // C panel placed in the upper half of AM

fn fill(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed * 97);
            ((x % 2001) as f32 - 1000.0) / 64.0
        })
        .collect()
}

/// Run one kernel through the interpreter; returns (C result, cycles).
fn run_interpreted(kernel: &MicroKernel, a: &[f32], b: &[f32], c0: &[f32]) -> (Vec<f32>, u64) {
    let spec = kernel.spec;
    let ld = spec.na_pad();
    let mut m = Machine::new(HwConfig::default(), ExecMode::Interpret);
    m.core_mut(0).sm.write_f32_slice(A_OFF, a).unwrap();
    m.core_mut(0).am.write_f32_slice(B_OFF, b).unwrap();
    m.core_mut(0).am.write_f32_slice(C_OFF, c0).unwrap();
    let bind = KernelBindings {
        a_off: A_OFF,
        b_off: B_OFF,
        c_off: C_OFF,
    };
    let rep = m
        .run_kernel(0, kernel.program(), bind)
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    let mut c = vec![0.0f32; spec.m_s * ld];
    m.core_mut(0).am.read_f32_slice(C_OFF, &mut c).unwrap();
    (c, rep.cycles)
}

fn check_spec(spec: KernelSpec, forced: Option<(usize, usize)>) {
    let cfg = HwConfig::default();
    let ex = KernelExecutor::new(Arc::new(KernelCache::new(cfg.clone())));
    let kernel = match forced {
        None => ex.kernels().get(spec).unwrap(),
        Some((mu, ku)) => ex.kernels().get_forced(spec, mu, ku).unwrap(),
    };
    let ld = spec.na_pad();
    let a = fill(spec.m_s * spec.k_a, 1);
    let b = fill(spec.k_a * ld, 2);
    let c0 = fill(spec.m_s * ld, 3);

    let (c_interp, cycles) = run_interpreted(&kernel, &a, &b, &c0);

    // 1. The analytic cycle count equals the interpreted cycle count.
    assert_eq!(
        cycles, kernel.cycles,
        "{spec}: analytic timing diverges from execution"
    );

    // 2. The `Fast` tier is bit-identical to the interpreter on the real
    //    columns (the padding lanes are the interpreter's alone).
    let mut c_fast = c0.clone();
    ex.execute(HostTier::Fast, &kernel, &a, &b, &mut c_fast)
        .unwrap();
    for (i, (x, y)) in c_interp.iter().zip(&c_fast).enumerate() {
        assert!(
            i % ld >= spec.n_a || x.to_bits() == y.to_bits(),
            "{spec}: fast/interp mismatch at element {i}: {x} vs {y}"
        );
    }

    // 3. Numerical accuracy against an f64 reference on the useful columns.
    for row in 0..spec.m_s {
        for col in 0..spec.n_a {
            let mut acc = c0[row * ld + col] as f64;
            for k in 0..spec.k_a {
                acc += a[row * spec.k_a + k] as f64 * b[k * ld + col] as f64;
            }
            let got = c_interp[row * ld + col] as f64;
            let tol = 1e-3 * acc.abs().max(1.0);
            assert!(
                (got - acc).abs() <= tol,
                "{spec} ({row},{col}): {got} vs {acc}"
            );
        }
    }
}

#[test]
fn paper_regime_kernels_are_correct() {
    // The three pipeline-table regimes with a large K.
    check_spec(KernelSpec::new(6, 512, 96).unwrap(), None);
    check_spec(KernelSpec::new(6, 512, 64).unwrap(), None);
    check_spec(KernelSpec::new(6, 512, 32).unwrap(), None);
}

#[test]
fn small_k_kernels_are_correct() {
    // Fig 3(d)-(f): K = 32.
    check_spec(KernelSpec::new(6, 32, 96).unwrap(), None);
    check_spec(KernelSpec::new(6, 32, 64).unwrap(), None);
    check_spec(KernelSpec::new(6, 32, 32).unwrap(), None);
}

#[test]
fn odd_shapes_are_correct() {
    // Non-multiple n_a (padded lanes), odd k_a (depth tail), m remainder.
    check_spec(KernelSpec::new(5, 77, 80).unwrap(), None);
    check_spec(KernelSpec::new(7, 33, 48).unwrap(), None);
    check_spec(KernelSpec::new(13, 65, 17).unwrap(), None);
    check_spec(KernelSpec::new(1, 19, 96).unwrap(), None);
    check_spec(KernelSpec::new(9, 2, 24).unwrap(), None);
}

#[test]
fn degenerate_shapes_are_correct() {
    check_spec(KernelSpec::new(1, 1, 1).unwrap(), None);
    check_spec(KernelSpec::new(2, 3, 33).unwrap(), None);
    check_spec(KernelSpec::new(14, 64, 96).unwrap(), None);
}

#[test]
fn forced_tgemm_kernel_is_correct() {
    // TGEMM's fixed micro-kernel: m_u = m_s = 6, k_u = 1, n_a = 96.
    check_spec(KernelSpec::new(6, 128, 96).unwrap(), Some((6, 1)));
    check_spec(KernelSpec::new(6, 31, 96).unwrap(), Some((6, 1)));
}

#[test]
fn large_m_sweep_kernels_are_correct() {
    // The Fig 3 M sweep (M = 1..14) at K = 64, N = 64.
    for m in 1..=14 {
        check_spec(KernelSpec::new(m, 64, 64).unwrap(), None);
    }
}

#[test]
fn efficiency_bands_match_paper_fig3() {
    // Fig 3(a)-(c): K = 512 — efficiency approaches the upper bound.
    let cfg = HwConfig::default();
    let cache = KernelCache::new(cfg.clone());
    let eff = |m, k, n| {
        cache
            .get(KernelSpec::new(m, k, n).unwrap())
            .unwrap()
            .efficiency(&cfg)
    };
    let e96 = eff(6, 512, 96);
    let e64 = eff(6, 512, 64);
    let e32 = eff(6, 512, 32);
    assert!(e96 > 0.90, "N=96 K=512: {e96}");
    assert!(e64 > 0.88, "N=64 K=512: {e64}");
    assert!(e32 > 0.55 && e32 <= 2.0 / 3.0, "N=32 K=512: {e32}");
    // Fig 3(d)-(f): K = 32 — overheads bite, ordering is preserved.
    let s96 = eff(6, 32, 96);
    let s64 = eff(6, 32, 64);
    let s32 = eff(6, 32, 32);
    assert!(s96 < e96 && s64 < e64 && s32 < e32);
    assert!(s96 > s64 && s64 > s32, "{s96} {s64} {s32}");
    assert!(s96 > 0.55, "N=96 K=32: {s96}");
}
