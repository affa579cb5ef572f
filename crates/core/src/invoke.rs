//! Mode-dispatched micro-kernel invocation.
//!
//! * `Interpret`: run the generated VLIW program through the simulator's
//!   hazard-checking interpreter (bit-exact, slow).
//! * `Fast` / `Compiled`: execute the matching host tier through the
//!   [`KernelExecutor`] dispatch point (both run the kernel's lowering,
//!   bit-equal to `Interpret`; `Compiled` on SIMD) *in place* on the
//!   simulated scratchpads — `A_s` is a view of the core's SM, `B_a` and
//!   `C_a` a disjoint pair of views of its AM, as on the DSP — and
//!   advance the clock by the kernel's cycle count.  Nothing is
//!   allocated or copied.  The views are three read accesses (SM: A;
//!   AM: B, then C), which is where armed scratchpad flips strike;
//!   bindings that are misaligned or whose B and C panels overlap are
//!   `SimError::BadBinding`.
//! * `Timing`: refuse what the views would refuse (bounds, alignment,
//!   overlap — nothing materialised, no read counted), then advance the
//!   clock.

use crate::FtimmError;
use dspsim::{ExecMode, KernelBindings, Machine};
use kernelgen::{HostTier, KernelExecutor, MicroKernel};

/// Execute one kernel invocation on `core` with the given buffer bindings.
pub fn invoke_kernel(
    m: &mut Machine,
    core: usize,
    ex: &KernelExecutor,
    kernel: &MicroKernel,
    bind: KernelBindings,
) -> Result<(), FtimmError> {
    m.check_core_alive(core)?;
    // The three panels as `(byte offset, f32 count)`: A_s in SM, B_a and
    // C_a in AM, rows `na_pad` wide.
    let spec = kernel.spec;
    let ld = spec.na_pad();
    let a = (bind.a_off, spec.m_s * spec.k_a);
    let (b, c) = ((bind.b_off, spec.k_a * ld), (bind.c_off, spec.m_s * ld));
    match m.mode {
        ExecMode::Interpret => {
            m.run_kernel(core, kernel.program(), bind)?;
        }
        ExecMode::Fast | ExecMode::Compiled => {
            let tier = HostTier::from_mode(m.mode).expect("functional host mode");
            let cr = m.core_mut(core);
            let a = cr.sm.view_f32(a.0, a.1)?;
            let (b, c) = cr.am.view_f32_pair(b, c)?;
            ex.execute(tier, kernel, a, b, c)?;
            cr.stats.flops += kernel.flops;
            cr.stats.kernel_calls += 1;
            m.compute(core, kernel.cycles);
        }
        ExecMode::Timing => {
            let cr = m.core_mut(core);
            cr.sm.check_f32(a.0, a.1)?;
            cr.am.check_f32_pair(b, c)?;
            cr.stats.flops += kernel.flops;
            cr.stats.kernel_calls += 1;
            m.compute(core, kernel.cycles);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::HwConfig;
    use kernelgen::{KernelCache, KernelSpec};
    use std::sync::Arc;

    fn setup(mode: ExecMode) -> (Machine, KernelExecutor, Arc<MicroKernel>, KernelBindings) {
        let cfg = HwConfig::default();
        let ex = KernelExecutor::new(Arc::new(KernelCache::new(cfg.clone())));
        let kernel = ex
            .kernels()
            .get(KernelSpec::new(4, 16, 32).unwrap())
            .unwrap();
        let mut m = Machine::new(cfg, mode);
        if mode.is_functional() {
            let a = crate::reference::fill_matrix(4 * 16, 1);
            let b = crate::reference::fill_matrix(16 * 32, 2);
            m.core_mut(0).sm.write_f32_slice(0, &a).unwrap();
            m.core_mut(0).am.write_f32_slice(0, &b).unwrap();
            m.core_mut(0).am.zero(8192, 4 * 32 * 4).unwrap();
        }
        (
            m,
            ex,
            kernel,
            KernelBindings {
                a_off: 0,
                b_off: 0,
                c_off: 8192,
            },
        )
    }

    fn read_c(m: &mut Machine) -> Vec<f32> {
        let mut c = vec![0.0f32; 4 * 32];
        m.core_mut(0).am.read_f32_slice(8192, &mut c).unwrap();
        c
    }

    #[test]
    fn fast_and_interpret_agree_bitwise() {
        let (mut mi, exi, kernel, bind) = setup(ExecMode::Interpret);
        invoke_kernel(&mut mi, 0, &exi, &kernel, bind).unwrap();
        let (mut mf, exf, _, _) = setup(ExecMode::Fast);
        invoke_kernel(&mut mf, 0, &exf, &kernel, bind).unwrap();
        let ci = read_c(&mut mi);
        let cf = read_c(&mut mf);
        for (x, y) in ci.iter().zip(&cf) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Both advance the clock by the same cycles.
        assert!((mi.core_time(0) - mf.core_time(0)).abs() < 1e-18);
    }

    #[test]
    fn compiled_and_interpret_agree_bitwise_and_on_the_clock() {
        let (mut mi, exi, kernel, bind) = setup(ExecMode::Interpret);
        invoke_kernel(&mut mi, 0, &exi, &kernel, bind).unwrap();
        let (mut mc, exc, _, _) = setup(ExecMode::Compiled);
        invoke_kernel(&mut mc, 0, &exc, &kernel, bind).unwrap();
        let ci = read_c(&mut mi);
        let cc = read_c(&mut mc);
        for (x, y) in ci.iter().zip(&cc) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!((mi.core_time(0) - mc.core_time(0)).abs() < 1e-18);
        // The invocation lowered the kernel.
        assert_eq!(exc.stats().misses, 1);
    }

    /// The three views are three read accesses — SM: A; AM: B, then C —
    /// and a flip armed on one damages the panel at rest before the
    /// kernel computes on it: the C produced is the C of operands with
    /// the same word flipped by hand.
    #[test]
    fn armed_flips_strike_the_same_word_of_the_same_read_in_place() {
        const RNG: [u64; 3] = [0x9E37_79B9_7F4A_7C15, 0xD1B5_4A32_D192_ED03, 77];
        let flip = |panel: &mut [f32], rng: u64| {
            let word = (rng % panel.len() as u64) as usize;
            panel[word] = f32::from_bits(panel[word].to_bits() ^ 0x4000_0000);
        };
        let panels = || {
            (
                crate::reference::fill_matrix(4 * 16, 1),
                crate::reference::fill_matrix(16 * 32, 2),
                crate::reference::fill_matrix(4 * 32, 3),
            )
        };
        for mode in [ExecMode::Fast, ExecMode::Compiled] {
            // Each flip alone, then all three together.
            for armed in [
                [true, false, false],
                [false, true, false],
                [false, false, true],
                [true; 3],
            ] {
                let (mut m, ex, kernel, bind) = setup(mode);
                let (mut a, mut b, mut c) = panels();
                m.core_mut(0).am.write_f32_slice(bind.c_off, &c).unwrap();
                let core = m.core_mut(0);
                if armed[0] {
                    core.sm.schedule_flip(1, RNG[0]);
                }
                if armed[1] {
                    core.am.schedule_flip(1, RNG[1]);
                }
                if armed[2] {
                    core.am.schedule_flip(2, RNG[2]);
                }
                invoke_kernel(&mut m, 0, &ex, &kernel, bind).unwrap();

                for (i, panel) in [&mut a[..], &mut b[..], &mut c[..]].into_iter().enumerate() {
                    if armed[i] {
                        flip(panel, RNG[i]);
                    }
                }
                let tier = HostTier::from_mode(mode).unwrap();
                ex.execute(tier, &kernel, &a, &b, &mut c).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&read_c(&mut m)), bits(&c), "{mode:?} {armed:?}: C");
                // The damage is at rest in the scratchpads, not in a copy.
                let core = m.core_mut(0);
                assert_eq!(bits(core.sm.view_f32(0, 64).unwrap()), bits(&a));
                assert_eq!(bits(core.am.view_f32(0, 512).unwrap()), bits(&b));
                let fired = armed.iter().filter(|&&x| x).count() as u64;
                assert_eq!(m.fault_stats().bit_flips, fired);
            }
        }
    }

    #[test]
    fn overlapping_or_misaligned_bindings_are_typed_errors() {
        for mode in [ExecMode::Fast, ExecMode::Compiled] {
            let (mut m, ex, kernel, bind) = setup(mode);
            let before = read_c(&mut m);
            for bad in [
                // C inside B, B's tail inside C, C misaligned, A misaligned.
                KernelBindings { c_off: 64, ..bind },
                KernelBindings {
                    b_off: 8192 - 2048 + 128,
                    ..bind
                },
                KernelBindings {
                    c_off: 8194,
                    ..bind
                },
                KernelBindings { a_off: 2, ..bind },
            ] {
                let err = invoke_kernel(&mut m, 0, &ex, &kernel, bad).unwrap_err();
                assert!(
                    matches!(err, FtimmError::Sim(dspsim::SimError::BadBinding { .. })),
                    "{mode:?} {bad:?}: {err}"
                );
            }
            assert_eq!(
                read_c(&mut m),
                before,
                "a refused invocation computes nothing"
            );
            assert_eq!(m.core(0).stats.kernel_calls, 0);
        }
    }

    #[test]
    fn timing_mode_refuses_the_bindings_the_views_refuse() {
        let am = HwConfig::default().am_bytes as u64;
        for mode in [ExecMode::Compiled, ExecMode::Timing] {
            let (mut m, ex, kernel, bind) = setup(mode);
            // C's last row ends one word past AM; C overlapping B.
            for bad in [
                KernelBindings {
                    c_off: am - 4 * 32 * 4 + 4,
                    ..bind
                },
                KernelBindings { c_off: 64, ..bind },
            ] {
                let err = invoke_kernel(&mut m, 0, &ex, &kernel, bad).unwrap_err();
                assert!(matches!(err, FtimmError::Sim(_)), "{mode:?}: {err}");
            }
            assert_eq!(m.core(0).stats.kernel_calls, 0);
        }
    }

    #[test]
    fn timing_mode_only_advances_clock() {
        let (mut mt, ext, kernel, bind) = setup(ExecMode::Timing);
        invoke_kernel(&mut mt, 0, &ext, &kernel, bind).unwrap();
        assert_eq!(mt.core(0).stats.kernel_calls, 1);
        assert_eq!(mt.core(0).stats.compute_cycles, kernel.cycles);
        assert!(mt.core_time(0) > 0.0);
    }
}
