//! Shared problem-level validation: the one place every entry point's
//! admission checks live.

use crate::{FtimmError, GemmProblem};

/// Validate a staged GEMM problem (dimension agreement between `A`, `B`
/// and `C`), lifting the matrix-level diagnostic into [`FtimmError`].
pub fn validate_problem(p: &GemmProblem) -> Result<(), FtimmError> {
    p.validate().map_err(FtimmError::Invalid)
}

/// Validate the dimensions of a batched small-GEMM descriptor: every
/// dimension positive and the output width within the irregular-GEMM
/// micro-kernel limit.
pub fn validate_batch_dims(
    count: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) -> Result<(), FtimmError> {
    if count == 0 || rows == 0 || inner == 0 || cols == 0 {
        return Err(FtimmError::Invalid("empty batch dimension".into()));
    }
    if cols > kernelgen::MAX_NA {
        return Err(FtimmError::Invalid(format!(
            "batch cols {cols} exceed the irregular-GEMM limit {}",
            kernelgen::MAX_NA
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::{ExecMode, Machine};

    #[test]
    fn problem_validation_reports_shape_mismatches() {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = GemmProblem::alloc(&mut m, 8, 8, 8).unwrap();
        assert!(validate_problem(&p).is_ok());
        let bad = GemmProblem {
            a: p.a,
            b: p.b,
            c: p.c.view(0, 0, 4, 4),
        };
        assert!(matches!(
            validate_problem(&bad),
            Err(FtimmError::Invalid(_))
        ));
    }

    #[test]
    fn batch_dims_are_gated() {
        assert!(validate_batch_dims(1, 1, 1, 1).is_ok());
        assert!(validate_batch_dims(0, 1, 1, 1).is_err());
        assert!(validate_batch_dims(1, 1, 1, kernelgen::MAX_NA).is_ok());
        assert!(validate_batch_dims(1, 1, 1, kernelgen::MAX_NA + 1).is_err());
    }
}
