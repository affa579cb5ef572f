//! Mode-dispatched micro-kernel invocation.
//!
//! * `Interpret`: run the generated VLIW program through the simulator's
//!   hazard-checking interpreter (bit-exact, slow).
//! * `Fast` / `Compiled`: read the panels out of the simulated
//!   scratchpads, execute the matching host tier through the
//!   [`KernelExecutor`] dispatch point (both bit-equal to `Interpret`;
//!   `Compiled` runs the kernel's SIMD lowering), write C back, and
//!   advance the clock by the kernel's cycle count.
//! * `Timing`: advance the clock only.

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
    match m.mode {
        ExecMode::Interpret => {
            m.run_kernel(core, &kernel.program, bind, true)?;
        }
        ExecMode::Fast | ExecMode::Compiled => {
            let tier = HostTier::from_mode(m.mode).expect("functional host mode");
            let spec = kernel.spec;
            let ld = spec.na_pad();
            let mut a = vec![0.0f32; spec.m_s * spec.k_a];
            let mut b = vec![0.0f32; spec.k_a * ld];
            let mut c = vec![0.0f32; spec.m_s * ld];
            {
                let cr = m.core_mut(core);
                cr.sm.read_f32_slice(bind.a_off, &mut a)?;
                cr.am.read_f32_slice(bind.b_off, &mut b)?;
                cr.am.read_f32_slice(bind.c_off, &mut c)?;
            }
            ex.execute(tier, kernel, &a, &b, &mut c)?;
            let cr = m.core_mut(core);
            cr.am.write_f32_slice(bind.c_off, &c)?;
            cr.stats.flops += kernel.flops;
            cr.stats.kernel_calls += 1;
            m.compute(core, kernel.cycles);
        }
        ExecMode::Timing => {
            let cr = m.core_mut(core);
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
        // The invocation went through the compiled memo.
        let stats = exc.stats();
        assert_eq!(stats.compiles, 1);
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
