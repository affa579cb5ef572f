//! Property tests on the kernel generator: every generated kernel for a
//! random shape is hazard-free under interpretation, cycle-exact against
//! its analytic count, bit-identical between interpreter and fast
//! executor, and within its architectural upper bound.

use dspsim::{ExecMode, HwConfig, KernelBindings, Machine};
use kernelgen::build::{steady_cycles_lower_bound, SEARCH_WIDTH};
use kernelgen::{build, candidates, GenError, KernelCache, KernelSpec, MicroKernel};
use proptest::prelude::*;

/// The search `MicroKernel::generate` prunes: build every one of the
/// first `SEARCH_WIDTH` candidates and keep the first with the fewest
/// cycles.  Also checks the pruning bound against every built candidate.
fn generate_exhaustive(spec: KernelSpec, cfg: &HwConfig) -> Result<MicroKernel, GenError> {
    let mut best: Option<MicroKernel> = None;
    for t in candidates(&spec, cfg)?.into_iter().take(SEARCH_WIDTH) {
        let k = build(spec, t, cfg)?;
        assert!(
            steady_cycles_lower_bound(&spec, &t, cfg) <= k.cycles,
            "{spec} {t:?}: bound above the {} cycles built",
            k.cycles
        );
        if best.as_ref().is_none_or(|b| k.cycles < b.cycles) {
            best = Some(k);
        }
    }
    best.ok_or(GenError::NoFeasibleTiling(spec))
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
        let cache = KernelCache::new(cfg.clone());
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        let kernel = cache.get(spec).unwrap();

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
        let rep = machine.run_kernel(0, &kernel.program, bind, true).unwrap();
        prop_assert_eq!(rep.cycles, kernel.cycles);

        // Bit-identical to the fast executor on the real columns.
        let mut c_interp = vec![0.0f32; m_s * ld];
        machine.core_mut(0).am.read_f32_slice(512 * 1024, &mut c_interp).unwrap();
        let mut c_fast = c0.clone();
        kernel.execute_fast(&a, &b, &mut c_fast);
        for i in (0..c_fast.len()).filter(|i| i % ld < n_a) {
            prop_assert_eq!(c_interp[i].to_bits(), c_fast[i].to_bits(), "element {}", i);
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
        prop_assert!(kernel.program.flops() >= spec.useful_flops());
        prop_assert!(kernel.program.flops() >= padded);
        // …and not more than the padded work (no duplicate FMACs).
        prop_assert_eq!(kernel.program.flops(), padded);
    }
}

proptest! {
    // Generation only (nothing is interpreted), so many more cases.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pruned_search_returns_the_exhaustive_winner(
        m_s in 1usize..15,
        k_a in prop_oneof![1usize..130, 130usize..1100],
        n_a in 1usize..97,
    ) {
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        let pruned = MicroKernel::generate(spec, &cfg).unwrap();
        let full = generate_exhaustive(spec, &cfg).unwrap();
        prop_assert_eq!(&pruned.blocks, &full.blocks, "different tiling won");
        prop_assert_eq!(pruned.cycles, full.cycles);
        prop_assert_eq!(pruned.flops, full.flops);
        prop_assert_eq!(&pruned.program, &full.program);
        // The shared-schedule path of the cache builds the same kernel.
        let cached = KernelCache::new(cfg).get(spec).unwrap();
        prop_assert_eq!(&cached.blocks, &full.blocks);
        prop_assert_eq!(&cached.program, &full.program);
    }

    #[test]
    fn stored_flop_count_is_the_program_flop_count(
        m_s in 1usize..15,
        k_a in 1usize..130,
        n_a in 1usize..97,
        m_u in 1usize..15,
        k_u in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        let kernel = MicroKernel::generate(spec, &cfg).unwrap();
        prop_assert_eq!(kernel.flops, kernel.program.flops());
        // Forced tilings go through the same builder; infeasible ones
        // are refused, not miscounted.
        match MicroKernel::generate_forced(spec, m_u, k_u, &cfg) {
            Ok(forced) => prop_assert_eq!(forced.flops, forced.program.flops()),
            Err(e) => prop_assert!(matches!(e, GenError::BadForcedTiling { .. }), "{}", e),
        }
    }
}
