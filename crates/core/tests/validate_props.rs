//! Property tests over the executor's admission check, `validate_problem`:
//! every malformed dimension combination must be *rejected* (never
//! panic, never pass), and every well-formed one accepted.  Matrices
//! are constructed directly (all `DdrMatrix` fields are public) so the
//! generators can express inconsistencies `GemmProblem::alloc` would
//! never produce.

use ftimm::{validate_problem, DdrMatrix, FtimmError, GemmProblem};
use proptest::prelude::*;

fn mat(rows: usize, cols: usize, extra_ld: usize, off: u64) -> DdrMatrix {
    DdrMatrix {
        rows,
        cols,
        ld: cols + extra_ld,
        off,
    }
}

fn well_formed(m: usize, n: usize, k: usize, lds: (usize, usize, usize)) -> GemmProblem {
    GemmProblem {
        a: mat(m, k, lds.0, 0),
        b: mat(k, n, lds.1, 1 << 16),
        c: mat(m, n, lds.2, 1 << 20),
    }
}

proptest! {
    /// Consistent problems always pass, whatever the leading
    /// dimensions and offsets (views are admissible everywhere).
    #[test]
    fn consistent_problems_are_accepted(
        m in 1usize..512,
        n in 1usize..512,
        k in 1usize..512,
        lds in (0usize..8, 0usize..8, 0usize..8),
    ) {
        prop_assert!(validate_problem(&well_formed(m, n, k, lds)).is_ok());
    }

    /// Any disagreement between the three operands' shared dimensions is
    /// rejected with `FtimmError::Invalid` — and never panics.
    #[test]
    fn inconsistent_problems_are_rejected(
        m in 1usize..256,
        n in 1usize..256,
        k in 1usize..256,
        // Which of the four shared dims to corrupt and by how much.
        which in 0usize..4,
        delta in 1usize..64,
    ) {
        let mut p = well_formed(m, n, k, (0, 0, 0));
        match which {
            0 => p.b.rows = k + delta,          // B's K disagrees with A's
            1 => p.c.rows = m + delta,          // C's M disagrees with A's
            2 => p.c.cols = n + delta,          // C's N disagrees with B's
            _ => {                              // subtractive corruption
                p.b.rows = if k > delta { k - delta } else { k + delta };
            }
        }
        prop_assert!(matches!(
            validate_problem(&p),
            Err(FtimmError::Invalid(_))
        ));
    }

    /// Degenerate (zero) dimensions never panic the validator either
    /// way; zero-dimension problems that stay *consistent* are the
    /// caller's concern, but inconsistent ones still report.
    #[test]
    fn zero_dims_never_panic(
        m in 0usize..4,
        n in 0usize..4,
        k in 0usize..4,
        kb in 0usize..4,
    ) {
        let p = GemmProblem {
            a: mat(m, k, 0, 0),
            b: mat(kb, n, 0, 0),
            c: mat(m, n, 0, 0),
        };
        let verdict = validate_problem(&p);
        prop_assert_eq!(verdict.is_ok(), kb == k);
    }
}
