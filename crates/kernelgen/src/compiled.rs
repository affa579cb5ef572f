//! Lowering a verified [`MicroKernel`] block plan into host block loops:
//! the one host path of every functional kernel invocation.
//!
//! Lowering is a *verification pass*, not a translation of trust: every
//! structural invariant the block loops rely on (supported `k_u`, exact
//! depth split, contiguous row coverage) is re-checked here and reported
//! as [`GenError::LoweringInvariant`] instead of being assumed. The
//! resulting [`CompiledKernel`] executes through `hostsimd`'s
//! register-tiled loops, instantiated at the widest of AVX-512F and
//! AVX2+FMA the CPU has, or its scalar level on hosts with neither; every
//! level preserves the interpreter's per-element fma accumulation order
//! bit-for-bit (see the `hostsimd` crate docs for the argument).

use crate::{GenError, KernelSpec, MicroKernel};
use hostsimd::BlockGeom;

/// A micro-kernel lowered to host block loops.
///
/// Obtained from [`CompiledKernel::lower`] (once per kernel:
/// [`MicroKernel::lowered`]); executed with [`CompiledKernel::execute`].
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    spec: KernelSpec,
    blocks: Vec<BlockGeom>,
}

impl CompiledKernel {
    /// Lower a generated kernel's block plan, re-verifying the structural
    /// invariants the block loops depend on.
    pub fn lower(kernel: &MicroKernel) -> Result<Self, GenError> {
        let spec = kernel.spec;
        spec.validate()?;
        let fail = |detail: String| GenError::LoweringInvariant { detail };
        if kernel.blocks.is_empty() {
            return Err(fail(format!("{spec}: kernel has no block plan")));
        }
        let mut next_row = 0usize;
        let mut blocks = Vec::with_capacity(kernel.blocks.len());
        for plan in &kernel.blocks {
            if !hostsimd::SUPPORTED_KU.contains(&plan.k_u) {
                return Err(fail(format!(
                    "{spec}: block at row {} has k_u = {} outside {:?}",
                    plan.mm_base,
                    plan.k_u,
                    hostsimd::SUPPORTED_KU
                )));
            }
            if plan.k_iters * plan.k_u + plan.k_tail != spec.k_a || plan.k_tail >= plan.k_u {
                return Err(fail(format!(
                    "{spec}: block at row {} splits depth as {}x{}+{}, want k_a = {}",
                    plan.mm_base, plan.k_iters, plan.k_u, plan.k_tail, spec.k_a
                )));
            }
            if plan.mm_base != next_row {
                return Err(fail(format!(
                    "{spec}: block starts at row {} but previous coverage ends at {next_row}",
                    plan.mm_base
                )));
            }
            if plan.m_u == 0 || plan.trips == 0 {
                return Err(fail(format!(
                    "{spec}: block at row {} is empty ({} trips x {} rows)",
                    plan.mm_base, plan.trips, plan.m_u
                )));
            }
            next_row = plan.mm_base + plan.trips as usize * plan.m_u;
            blocks.push(BlockGeom {
                mm_base: plan.mm_base,
                m_u: plan.m_u,
                trips: plan.trips as usize,
                k_u: plan.k_u,
                k_iters: plan.k_iters,
                k_tail: plan.k_tail,
            });
        }
        if next_row != spec.m_s {
            return Err(fail(format!(
                "{spec}: blocks cover rows 0..{next_row}, want 0..{}",
                spec.m_s
            )));
        }
        Ok(CompiledKernel { spec, blocks })
    }

    /// Compute `c += a × b` at `hostsimd`'s widest level
    /// ([`hostsimd::execute_block`]), on dense panels laid out exactly
    /// as the kernel's scratchpad buffers:
    /// * `a`: `m_s × k_a`, row-major, leading dimension `k_a`;
    /// * `b`: `k_a × na_pad`, leading dimension [`KernelSpec::na_pad`];
    /// * `c`: `m_s × na_pad`, leading dimension `na_pad`.
    ///
    /// Bit-identical at every level and to the interpreter on the real
    /// columns `0..n_a` of every row.  The padding lanes `n_a..na_pad` of
    /// `c` are unspecified: the interpreter is the hardware and fills
    /// whole 32-lane vectors, a host level rounds `n_a` up to its own
    /// width.  Those lanes never leave AM: every `AmToDdr` store and the
    /// K-parallel `gsm_accumulate_from_am` reduction move the task's real
    /// `cols`.  TGEMM's kernels are generated for its fixed padded width,
    /// so its `n_a` — and the work it pays for — stay what the paper
    /// charges it.
    pub fn execute(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        let KernelSpec { k_a, n_a, .. } = self.spec;
        let ld = self.spec.na_pad();
        for g in &self.blocks {
            hostsimd::execute_block(g, k_a, n_a, ld, a, b, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockPlan;
    use dspsim::HwConfig;

    #[test]
    fn lowering_rejects_bad_depth_split() {
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(4, 16, 32).unwrap();
        let mut kernel = MicroKernel::generate(spec, &cfg).unwrap();
        kernel.blocks[0].k_iters += 1;
        assert!(matches!(
            CompiledKernel::lower(&kernel),
            Err(GenError::LoweringInvariant { .. })
        ));
    }

    #[test]
    fn lowering_rejects_row_coverage_gaps() {
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(8, 16, 32).unwrap();
        let mut kernel = MicroKernel::generate_forced(spec, 4, 2, &cfg).unwrap();
        assert_eq!(kernel.blocks.len(), 1);
        let plan = kernel.blocks[0];
        kernel.blocks = vec![BlockPlan {
            trips: plan.trips - 1,
            ..plan
        }];
        assert!(matches!(
            CompiledKernel::lower(&kernel),
            Err(GenError::LoweringInvariant { .. })
        ));
    }

    #[test]
    fn lowering_rejects_unsupported_ku() {
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(4, 16, 32).unwrap();
        let mut kernel = MicroKernel::generate(spec, &cfg).unwrap();
        for b in &mut kernel.blocks {
            b.k_u = 3;
            b.k_iters = 5;
            b.k_tail = 1;
        }
        assert!(matches!(
            CompiledKernel::lower(&kernel),
            Err(GenError::LoweringInvariant { .. })
        ));
    }
}
