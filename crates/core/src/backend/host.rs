//! The host-side mirror of the DSP strategy emitters, bit-exact with the
//! simulated cluster.
//!
//! The CPU fallback backend must produce *bitwise identical* output to
//! the DSP path it replaces, or cross-backend failover would silently
//! change results.  Per-element f32 accumulation order on the DSP is
//! fixed by three things: the strategy's blocking walk (which panels in
//! which order), the micro-kernel's `k_u`-way accumulator split (chosen
//! per kernel spec, so it depends on each row block's exact height), and
//! — for K-parallel — the serial core-order GSM reduction.  All three
//! are read off [`crate::walk::Walk`], the same enumeration
//! [`crate::mpar::run_mpar`], [`crate::kpar::run_kpar`] and
//! [`crate::tgemm::run_tgemm`] emit DMAs from: this module consumes it
//! with slice copies where they issue transfers, invoking the *same*
//! generated kernels from the shared kernel cache through the
//! [`KernelExecutor`]: their lowering is bit-identical to the
//! interpreter on every SIMD level, so the spill lane's output does not
//! depend on the host CPU and failover bits are never perturbed.
//!
//! Two deliberate differences, both bit-neutral:
//!
//! * DMA round trips (DDR↔GSM↔AM) move f32s verbatim, so panel staging
//!   collapses to slice copies and the K-parallel `C_g` panel is the
//!   output matrix itself (load/accumulate/store ≡ accumulate in
//!   place).
//! * On the DSP the pad columns of AM panels hold stale garbage; the
//!   kernel computes them but stores never transfer them, and each
//!   output column depends only on its own column of `B`.  Here pads
//!   are zero-filled instead — same real columns, defined behaviour.
//!
//! Cores matter *functionally* only for K-parallel (the round-robin
//! slice-to-core grouping feeds the reduction order); M-parallel and
//! TGEMM chunk assignment only changes timing, never values.  Each
//! core's private `C_a` is independent of the shared `C`, so computing
//! and reducing a run's tasks one after another is bitwise identical to
//! the DSP's compute-in-parallel-then-reduce-serially schedule.

use crate::walk::Walk;
use crate::{ChosenStrategy, FtimmError};
use kernelgen::KernelExecutor;

/// Stage a `rows × cols` block of `src` (leading dimension `src_ld`) at
/// `(r0, c0)` into `dst` with leading dimension `ld >= cols`, zeroing
/// the pad columns (the DSP leaves them as stale garbage; both choices
/// leave the real columns bit-identical).
#[allow(clippy::too_many_arguments)]
fn load_block(
    dst: &mut Vec<f32>,
    src: &[f32],
    src_ld: usize,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    ld: usize,
) {
    dst.clear();
    dst.resize(rows * ld, 0.0);
    for r in 0..rows {
        let s = (r0 + r) * src_ld + c0;
        dst[r * ld..r * ld + cols].copy_from_slice(&src[s..s + cols]);
    }
}

/// Store the `rows × cols` real columns of `src` (leading dimension
/// `ld`) back to `(r0, c0)` of `dst` (leading dimension `dst_ld`).
#[allow(clippy::too_many_arguments)]
fn store_block(
    dst: &mut [f32],
    dst_ld: usize,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    src: &[f32],
    ld: usize,
) {
    for r in 0..rows {
        let d = (r0 + r) * dst_ld + c0;
        dst[d..d + cols].copy_from_slice(&src[r * ld..r * ld + cols]);
    }
}

/// Execute `C += A × B` on the host with the same blocking and
/// accumulation order as the DSP path for `strategy`.  `a` is `mm × kk`
/// (leading dimension `kk`), `b` is `kk × nn` (leading dimension `nn`),
/// `c` is `mm × nn` (leading dimension `nn`).  `cores` is the DSP core
/// count the plan was pinned for, clamped exactly as a fully-healthy
/// cluster would (the DSP emitters clamp to alive cores ∧
/// `cores_per_cluster`; the CPU mirrors a cluster with all cores alive).
///
/// One loop serves all three strategies, because every operand is the
/// same projection of the [`Walk`]'s ranges: stage the task's `C` panel
/// (or zero a private one), per K step stage `B[k, cols]`, per row block
/// stage `A[rows, k]` and execute the walk's kernel, then store the panel
/// (or, for K-parallel, add it into `C` — task by task, which is the
/// DSP's serial core-order reduction).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_strategy_host(
    ex: &KernelExecutor,
    strategy: &ChosenStrategy,
    cores: usize,
    cores_per_cluster: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    mm: usize,
    nn: usize,
    kk: usize,
) -> Result<(), FtimmError> {
    debug_assert!(a.len() >= mm * kk && b.len() >= kk * nn && c.len() >= mm * nn);
    let walk = Walk::new(strategy, mm, nn, kk, cores.clamp(1, cores_per_cluster));
    let (mut c_a, mut b_a, mut a_s) = (Vec::new(), Vec::new(), Vec::new());
    for g in walk.groups() {
        for t in walk.tasks(&g) {
            if walk.reduces() {
                c_a.clear();
                c_a.resize(t.rows * t.ld, 0.0);
            } else {
                load_block(&mut c_a, c, nn, t.r0, t.c0, t.rows, t.cols, t.ld);
            }
            for ks in walk.k_steps(&g, &t) {
                load_block(&mut b_a, b, nn, ks.start, t.c0, ks.len(), t.cols, t.ld);
                let mut kernel_for = walk.step_kernels(ex.kernels(), &t, ks.len());
                for (u, ms) in walk.row_blocks(&t) {
                    let kernel = kernel_for(ms)?;
                    load_block(&mut a_s, a, kk, t.r0 + u, ks.start, ms, ks.len(), ks.len());
                    let c_rows = &mut c_a[u * t.ld..(u + ms) * t.ld];
                    ex.compiled(&kernel)?.execute(&a_s, &b_a, c_rows);
                }
            }
            if walk.reduces() {
                // The GSM C_g panel is an exact f32 round trip of C, so
                // the reduction accumulates into C in place.
                for r in 0..t.rows {
                    let dst = &mut c[(t.r0 + r) * nn + t.c0..][..t.cols];
                    for (acc, v) in dst.iter_mut().zip(&c_a[r * t.ld..]) {
                        *acc += *v;
                    }
                }
            } else {
                store_block(c, nn, t.r0, t.c0, t.rows, t.cols, &c_a, t.ld);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, FtImm, GemmProblem, GemmShape, Strategy};
    use dspsim::{ExecMode, HwConfig, Machine};

    /// Run `shape` on the DSP with the resolved plan for `strategy`,
    /// then replay it on the host mirror and demand bitwise identity.
    fn check_bitwise(shape: GemmShape, strategy: Strategy, cores: usize) {
        let ft = FtImm::new(HwConfig::default());
        let (mm, nn, kk) = (shape.m, shape.n, shape.k);
        let a = reference::fill_matrix(mm * kk, 1);
        let b = reference::fill_matrix(kk * nn, 2);
        let c0 = reference::fill_matrix(mm * nn, 3);

        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = GemmProblem::alloc(&mut m, mm, nn, kk).unwrap();
        p.a.upload(&mut m, &a).unwrap();
        p.b.upload(&mut m, &b).unwrap();
        p.c.upload(&mut m, &c0).unwrap();
        let plan = ft.plan(&shape, strategy, cores);
        ft.run_plan(&mut m, &p, &plan, cores).unwrap();
        let want = p.c.download(&mut m).unwrap();

        let mut c = c0;
        run_strategy_host(
            ft.executor(),
            &plan,
            cores,
            HwConfig::default().cores_per_cluster,
            &a,
            &b,
            &mut c,
            mm,
            nn,
            kk,
        )
        .unwrap();
        let mismatches = want
            .iter()
            .zip(&c)
            .filter(|(w, g)| w.to_bits() != g.to_bits())
            .count();
        assert_eq!(
            mismatches,
            0,
            "{strategy:?} {mm}x{nn}x{kk} on {cores} cores: \
             {mismatches} of {} elements differ",
            want.len()
        );
    }

    #[test]
    fn mpar_host_is_bitwise_identical_to_the_dsp_walk() {
        // Irregular edges: off-grid M, N below n_a, K with a tail.
        check_bitwise(GemmShape::new(97, 24, 50), Strategy::MPar, 4);
        check_bitwise(GemmShape::new(64, 96, 33), Strategy::MPar, 8);
    }

    #[test]
    fn kpar_host_is_bitwise_identical_to_the_dsp_walk() {
        // K-parallel is the hard case: the reduction order depends on
        // the core count.  Cover several core counts including more
        // cores than slices.
        for cores in [1, 3, 8] {
            check_bitwise(GemmShape::new(16, 16, 300), Strategy::KPar, cores);
        }
        check_bitwise(GemmShape::new(30, 20, 128), Strategy::KPar, 4);
    }

    #[test]
    fn tgemm_host_is_bitwise_identical_to_the_dsp_walk() {
        check_bitwise(GemmShape::new(70, 100, 40), Strategy::TGemm, 4);
        check_bitwise(GemmShape::new(33, 96, 96), Strategy::TGemm, 8);
    }

    #[test]
    fn auto_planned_shapes_stay_bitwise_across_backends() {
        // Whatever Auto resolves to (per-regime), the host mirror must
        // agree with the DSP bit for bit.
        for shape in [
            GemmShape::new(256, 32, 32),
            GemmShape::new(32, 32, 512),
            GemmShape::new(96, 32, 96),
        ] {
            check_bitwise(shape, Strategy::Auto, 8);
        }
    }
}
