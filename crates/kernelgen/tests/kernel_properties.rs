//! Property tests on the kernel generator: every generated kernel for a
//! random shape is hazard-free under interpretation, cycle-exact against
//! its analytic count, bit-identical between interpreter and the host
//! lowering, and within its architectural upper bound — and the priced
//! search returns exactly what building every candidate returns.

use dspsim::{ExecMode, HwConfig, KernelBindings, Machine};
use kernelgen::build::{steady_cycles_lower_bound, SEARCH_WIDTH};
use kernelgen::{
    build, candidates, GenError, KernelCache, KernelExecutor, KernelSpec, MicroKernel,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The search as it was before pricing: build every one of the first
/// `SEARCH_WIDTH` candidates and keep the first with the fewest *built*
/// cycles (`program().cycles()`).  Also checks the pruning bound against
/// every built candidate.
fn generate_by_building(spec: KernelSpec, cfg: &HwConfig) -> Result<MicroKernel, GenError> {
    let mut best: Option<MicroKernel> = None;
    for t in candidates(&spec, cfg)?.into_iter().take(SEARCH_WIDTH) {
        let k = build(spec, t, cfg)?;
        let built = k.program().cycles();
        assert!(
            steady_cycles_lower_bound(&spec, &t, cfg) <= built,
            "{spec} {t:?}: bound above the {built} cycles built"
        );
        if best.as_ref().is_none_or(|b| built < b.program().cycles()) {
            best = Some(k);
        }
    }
    best.ok_or(GenError::NoFeasibleTiling(spec))
}

/// One cache for every case, so block-group prices memoised for one spec
/// are reused by the next, as in a planning stream; capacity 0 so every
/// lookup prices afresh.
fn shared() -> &'static KernelCache {
    static CACHE: OnceLock<KernelCache> = OnceLock::new();
    CACHE.get_or_init(|| KernelCache::with_capacity(HwConfig::default(), 0))
}

/// Priced ≡ built for `spec`: the shared-memo search and the standalone
/// one both return the building search's winner (same Ok/Err), with its
/// blocks, its flops and its program, and cycles equal to the program's.
fn check_priced_is_built(spec: KernelSpec, cfg: &HwConfig) -> Result<(), String> {
    let want = generate_by_building(spec, cfg);
    for got in [
        shared().get(spec).map(|k| (*k).clone()),
        MicroKernel::generate(spec, cfg),
    ] {
        match (&got, &want) {
            (Ok(got), Ok(want)) => {
                let built = want.program();
                if (got.cycles, &got.blocks, got.flops)
                    != (built.cycles(), &want.blocks, built.flops())
                {
                    return Err(format!(
                        "{spec}: priced ({}, {:?}, {}) ≠ built ({}, {:?}, {})",
                        got.cycles,
                        got.blocks,
                        got.flops,
                        built.cycles(),
                        want.blocks,
                        built.flops()
                    ));
                }
                if got.program() != built {
                    return Err(format!("{spec}: lazily built program differs"));
                }
            }
            (Err(a), Err(b)) if a == b => {}
            _ => {
                return Err(format!(
                    "{spec}: {:?} vs {:?}",
                    got.as_ref().err(),
                    want.as_ref().err()
                ))
            }
        }
    }
    Ok(())
}

/// Priced ≡ built for one forced tiling: the priced `(cycles, blocks,
/// flops)` are the built program's, and an infeasible tiling is refused,
/// not miscounted.
fn check_forced(spec: KernelSpec, m_u: usize, k_u: usize, cfg: &HwConfig) -> Result<(), String> {
    match MicroKernel::generate_forced(spec, m_u, k_u, cfg) {
        Ok(forced) => {
            let t = kernelgen::Tiling {
                m_u,
                k_u,
                v_n: spec.v_n(),
                ii: kernelgen::Tiling::ii_lower_bound(m_u, k_u, spec.v_n(), cfg),
            };
            let built = build(spec, t, cfg).map_err(|e| format!("{spec} {t:?}: {e}"))?;
            let p = forced.program();
            let (priced, want) = (
                (forced.cycles, &forced.blocks, forced.flops),
                (p.cycles(), &built.blocks, p.flops()),
            );
            if priced != want || p != built.program() {
                return Err(format!(
                    "{spec} forced {t:?}: priced {priced:?} ≠ built {want:?}"
                ));
            }
            Ok(())
        }
        Err(GenError::BadForcedTiling { .. }) => Ok(()),
        Err(e) => Err(format!("{spec} forced ({m_u}, {k_u}): {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_shape_generates_a_correct_kernel(
        m_s in 1usize..15,
        k_a in 1usize..130,
        n_a in 1usize..97,
        seed in 0u32..1000,
    ) {
        let cfg = HwConfig::default();
        let ex = KernelExecutor::new(Arc::new(KernelCache::new(cfg.clone())));
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        let kernel = ex.kernels().get(spec).unwrap();

        // Efficiency bounded by the §IV-A3 upper bound.
        prop_assert!(kernel.efficiency(&cfg) <= kernel.upper_bound + 1e-9);

        // Fill scratchpads with pseudo-random data.
        let ld = spec.na_pad();
        let fill = |n: usize, s: u32| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    let x = (i as u32).wrapping_mul(2654435761).wrapping_add(s);
                    ((x % 513) as f32 - 256.0) / 16.0
                })
                .collect()
        };
        let a = fill(m_s * k_a, seed);
        let b = fill(k_a * ld, seed + 1);
        let c0 = fill(m_s * ld, seed + 2);

        let mut machine = Machine::new(cfg.clone(), ExecMode::Interpret);
        machine.core_mut(0).sm.write_f32_slice(0, &a).unwrap();
        machine.core_mut(0).am.write_f32_slice(0, &b).unwrap();
        machine.core_mut(0).am.write_f32_slice(512 * 1024, &c0).unwrap();
        let bind = KernelBindings { a_off: 0, b_off: 0, c_off: 512 * 1024 };

        // Hazard-checked interpretation must succeed, with the exact
        // analytic cycle count.
        let rep = machine.run_kernel(0, kernel.program(), bind).unwrap();
        prop_assert_eq!(rep.cycles, kernel.cycles);

        // Bit-identical to the host lowering on the real columns.
        let mut c_interp = vec![0.0f32; m_s * ld];
        machine.core_mut(0).am.read_f32_slice(512 * 1024, &mut c_interp).unwrap();
        let mut c_host = c0.clone();
        ex.compiled(&kernel).unwrap().execute(&a, &b, &mut c_host);
        for i in (0..c_host.len()).filter(|i| i % ld < n_a) {
            prop_assert_eq!(c_interp[i].to_bits(), c_host[i].to_bits(), "element {}", i);
        }

        // Numerically sane on the useful columns.
        for row in 0..m_s {
            for col in 0..n_a {
                let mut acc = c0[row * ld + col] as f64;
                for k in 0..k_a {
                    acc += a[row * k_a + k] as f64 * b[k * ld + col] as f64;
                }
                let got = c_interp[row * ld + col] as f64;
                prop_assert!(
                    (got - acc).abs() <= 1e-2 * acc.abs().max(1.0),
                    "({}, {}): {} vs {}", row, col, got, acc
                );
            }
        }
    }

    #[test]
    fn kernel_flop_accounting_covers_padded_lanes(
        m_s in 1usize..15,
        k_a in 1usize..100,
        n_a in 1usize..97,
    ) {
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        let kernel = MicroKernel::generate(spec, &cfg).unwrap();
        // The program performs at least the padded work and at least the
        // useful work.
        let padded = 2 * (m_s * k_a * spec.na_pad()) as u64;
        prop_assert!(kernel.program().flops() >= spec.useful_flops());
        prop_assert!(kernel.program().flops() >= padded);
        // …and not more than the padded work (no duplicate FMACs).
        prop_assert_eq!(kernel.program().flops(), padded);
    }
}

proptest! {
    // Every case builds up to `SEARCH_WIDTH` programs for the reference;
    // the exhaustive sweep below is the `--include-ignored` twin.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pricing_returns_the_building_searchs_kernel(
        m_s in 1usize..15,
        k_a in prop_oneof![1usize..130, 130usize..1100],
        n_a in 1usize..97,
        m_u in 1usize..15,
        k_u in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        if let Err(e) = check_priced_is_built(spec, &cfg) {
            prop_assert!(false, "{}", e);
        }
        if let Err(e) = check_forced(spec, m_u, k_u, &cfg) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The sweep behind the proptest above, over every `n_a`, every `m_s` and
/// depths on both sides of every `k_u` boundary and `k_iters` class (1,
/// even, odd), up to the deepest `k_a` the planner emits.  Release only:
/// `cargo test -p kernelgen --release --test kernel_properties --
/// --include-ignored`.
#[test]
#[ignore = "exhaustive sweep; run in release with --include-ignored"]
fn pricing_equals_building_over_the_whole_kernel_space() {
    const DEPTHS: [usize; 28] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1023,
        1024, 1025, 4094, 4095,
    ];
    let cfg = HwConfig::default();
    let (mut specs, mut forced) = (0usize, 0usize);
    for n_a in 1..=96usize {
        for m_s in 1..=14usize {
            for (i, &k_a) in DEPTHS.iter().enumerate() {
                // A rotating quarter of the depths per (n_a, m_s); every
                // depth meets every width and height over the rotation.
                if (n_a + m_s + i) % 4 != 0 {
                    continue;
                }
                let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
                check_priced_is_built(spec, &cfg).unwrap();
                specs += 1;
                let k_u = [1, 2, 4][i % 3];
                for m_u in [1, 1 + (n_a + i) % m_s, m_s] {
                    check_forced(spec, m_u, k_u, &cfg).unwrap();
                    forced += 1;
                }
            }
        }
    }
    assert!(
        specs > 9000 && forced > 27000,
        "{specs} specs, {forced} forced"
    );
}
