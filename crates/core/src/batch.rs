//! Batched small GEMMs sharing one right-hand operand — the FEM pattern
//! from the paper's introduction (`C_e += A_e × B` for many small
//! element matrices `A_e`).
//!
//! Because the element matrices are stacked contiguously, the batch is
//! algebraically one tall-and-skinny GEMM; this module provides the
//! batch-shaped API, plans it once, and reports per-element statistics.

use crate::exec::validate_batch_dims;
use crate::plan::Plan;
use crate::{
    resilience::ResilienceConfig, Executor, FtImm, FtimmError, GemmProblem, GemmShape, Strategy,
};
use dspsim::{FaultStats, Machine, RunReport};

/// A planned batch of `count` GEMMs of `rows × cols × inner` against a
/// shared `inner × cols` operand.
#[derive(Debug, Clone, Copy)]
pub struct GemmBatch {
    /// Number of element matrices.
    pub count: usize,
    /// Rows per element.
    pub rows: usize,
    /// Shared contraction dimension.
    pub inner: usize,
    /// Output columns.
    pub cols: usize,
}

/// Outcome of a batched run.
#[derive(Debug, Clone, Copy)]
pub struct BatchReport {
    /// The underlying flat-run report.
    pub run: RunReport,
    /// The plan the executor resolved for the flat GEMM.
    pub plan: Plan,
    /// Fault and recovery counters for the run (a copy of `run.faults`,
    /// surfaced at batch level so callers checking batch health need not
    /// reach into the flat report).
    pub faults: FaultStats,
    /// Simulated seconds per element matrix.
    pub seconds_per_element: f64,
}

impl GemmBatch {
    /// Construct and validate a batch descriptor.
    pub fn new(count: usize, rows: usize, inner: usize, cols: usize) -> Result<Self, FtimmError> {
        validate_batch_dims(count, rows, inner, cols)?;
        Ok(GemmBatch {
            count,
            rows,
            inner,
            cols,
        })
    }

    /// The equivalent flat GEMM shape.
    pub fn flat_shape(&self) -> GemmShape {
        GemmShape::new(self.count * self.rows, self.cols, self.inner)
    }

    /// Allocate the batch's flat problem and stage the host buffers.
    fn stage(
        &self,
        machine: &mut Machine,
        elements: &[f32],
        operator: &[f32],
        out: &[f32],
    ) -> Result<GemmProblem, FtimmError> {
        let shape = self.flat_shape();
        let p = GemmProblem::alloc(machine, shape.m, shape.n, shape.k)?;
        if machine.mode.is_functional() {
            p.a.upload(machine, elements)?;
            p.b.upload(machine, operator)?;
            p.c.upload(machine, out)?;
        }
        Ok(p)
    }

    /// Wrap a finished flat run in batch statistics, downloading the
    /// accumulator back into `out`.
    fn finish(
        &self,
        machine: &mut Machine,
        p: &GemmProblem,
        run: RunReport,
        plan: Plan,
        out: &mut [f32],
    ) -> Result<BatchReport, FtimmError> {
        if machine.mode.is_functional() {
            let result = p.c.download(machine)?;
            out.copy_from_slice(&result);
        }
        Ok(BatchReport {
            run,
            plan,
            faults: run.faults,
            seconds_per_element: run.seconds / self.count as f64,
        })
    }

    /// Execute the batch: `elements` is the stacked `(count·rows) × inner`
    /// matrix, `operator` the shared `inner × cols` operand, `out` the
    /// stacked `(count·rows) × cols` accumulator (read-modify-write).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        ft: &FtImm,
        machine: &mut Machine,
        elements: &[f32],
        operator: &[f32],
        out: &mut [f32],
        strategy: Strategy,
        cores: usize,
    ) -> Result<BatchReport, FtimmError> {
        let p = self.stage(machine, elements, operator, out)?;
        let run = Executor::new(ft)
            .strategy(strategy)
            .cores(cores)
            .dispatch(machine, &p)?;
        let plan = run.plan;
        self.finish(machine, &p, run.result?, plan, out)
    }

    /// Execute the batch under the resilience layer (ABFT-checked,
    /// retried, degraded onto surviving cores) — the fault-tolerant
    /// analogue of [`GemmBatch::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_resilient(
        &self,
        ft: &FtImm,
        machine: &mut Machine,
        elements: &[f32],
        operator: &[f32],
        out: &mut [f32],
        strategy: Strategy,
        cores: usize,
        rcfg: &ResilienceConfig,
    ) -> Result<BatchReport, FtimmError> {
        let p = self.stage(machine, elements, operator, out)?;
        let run = Executor::new(ft)
            .strategy(strategy)
            .cores(cores)
            .resilient(*rcfg)
            .dispatch(machine, &p)?;
        let plan = run.plan;
        self.finish(machine, &p, run.result?, plan, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_close, fill_matrix, sgemm_f64};
    use dspsim::{ExecMode, HwConfig};

    #[test]
    fn batch_equals_per_element_gemms() {
        let batch = GemmBatch::new(50, 10, 12, 4).unwrap();
        let shape = batch.flat_shape();
        let ft = FtImm::new(HwConfig::default());
        let mut machine = Machine::with_mode(ExecMode::Compiled);
        let elements = fill_matrix(shape.m * shape.k, 1);
        let operator = fill_matrix(shape.k * shape.n, 2);
        let mut out = vec![0.0f32; shape.m * shape.n];
        let report = batch
            .run(
                &ft,
                &mut machine,
                &elements,
                &operator,
                &mut out,
                Strategy::Auto,
                8,
            )
            .unwrap();
        let want = sgemm_f64(
            shape.m,
            shape.n,
            shape.k,
            &elements,
            &operator,
            &vec![0.0; shape.m * shape.n],
        );
        assert_close(shape.m, shape.n, &out, &want, 1e-3);
        assert!(report.seconds_per_element > 0.0);
        assert!((report.seconds_per_element * 50.0 - report.run.seconds).abs() < 1e-12);
    }

    #[test]
    fn invalid_batches_are_rejected() {
        assert!(GemmBatch::new(0, 4, 4, 4).is_err());
        assert!(GemmBatch::new(4, 4, 4, 97).is_err());
        assert!(GemmBatch::new(4, 4, 4, 96).is_ok());
    }

    #[test]
    fn every_zero_dimension_is_rejected_with_a_diagnostic() {
        for (count, rows, inner, cols) in [(0, 4, 4, 4), (4, 0, 4, 4), (4, 4, 0, 4), (4, 4, 4, 0)] {
            let e = GemmBatch::new(count, rows, inner, cols).unwrap_err();
            assert!(
                matches!(&e, FtimmError::Invalid(s) if s.contains("empty batch")),
                "({count},{rows},{inner},{cols}) gave {e}"
            );
        }
    }

    #[test]
    fn oversized_cols_error_names_the_limit() {
        let e = GemmBatch::new(4, 4, 4, kernelgen::MAX_NA + 1).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains(&kernelgen::MAX_NA.to_string()),
            "error should cite the limit: {msg}"
        );
    }

    #[test]
    fn resilient_batch_recovers_and_matches_the_clean_run() {
        let batch = GemmBatch::new(20, 8, 12, 4).unwrap();
        let shape = batch.flat_shape();
        let ft = FtImm::new(HwConfig::default());
        let elements = fill_matrix(shape.m * shape.k, 1);
        let operator = fill_matrix(shape.k * shape.n, 2);

        let mut m_clean = Machine::with_mode(ExecMode::Compiled);
        let mut want = vec![0.0f32; shape.m * shape.n];
        batch
            .run(
                &ft,
                &mut m_clean,
                &elements,
                &operator,
                &mut want,
                Strategy::Auto,
                4,
            )
            .unwrap();

        let mut m = Machine::with_mode(ExecMode::Compiled);
        m.install_faults(&dspsim::FaultPlan::new(17).corrupt_dma(dspsim::DmaPath::DdrToAm, 1));
        let mut out = vec![0.0f32; shape.m * shape.n];
        let rep = batch
            .run_resilient(
                &ft,
                &mut m,
                &elements,
                &operator,
                &mut out,
                Strategy::Auto,
                4,
                &crate::ResilienceConfig::default(),
            )
            .unwrap();
        assert_eq!(rep.faults.dma_corruptions, 1);
        assert!(rep.faults.retries >= 1);
        assert_eq!(rep.faults, rep.run.faults);
        for (a, b) in want.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_classifies_as_type1_when_many_elements() {
        let b = GemmBatch::new(10_000, 10, 10, 4).unwrap();
        assert_eq!(
            b.flat_shape().classify(),
            crate::IrregularType::TallSkinnyTimesSmall
        );
    }
}
