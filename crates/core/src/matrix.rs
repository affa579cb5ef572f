//! Matrices resident in the simulated DDR.

use dspsim::{Machine, SimError};

/// A row-major f32 matrix in the machine's DDR partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrMatrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Leading dimension in elements (≥ `cols`).
    pub ld: usize,
    /// Byte offset of element (0, 0) in DDR.
    pub off: u64,
}

impl DdrMatrix {
    /// Bump-allocate a dense matrix in DDR (no data is written; in timing
    /// mode the backing store is never materialised).
    pub fn alloc(m: &mut Machine, rows: usize, cols: usize) -> Result<Self, SimError> {
        // A size past `u64` can fit no region: let the allocator refuse it.
        let bytes = (rows as u64)
            .checked_mul(cols as u64)
            .and_then(|elems| elems.checked_mul(4))
            .unwrap_or(u64::MAX);
        let off = m.ddr.alloc(bytes, 64)?;
        Ok(DdrMatrix {
            rows,
            cols,
            ld: cols,
            off,
        })
    }

    /// Byte offset of element `(r, c)`.
    pub fn elem_off(&self, r: usize, c: usize) -> u64 {
        self.off + (r as u64 * self.ld as u64 + c as u64) * 4
    }

    /// Element offset (in elements, relative to DDR byte 0 / 4).
    pub fn elem_index(&self, r: usize, c: usize) -> u64 {
        self.elem_off(r, c) / 4
    }

    /// A sub-matrix view: rows `[r0, r0+rows)` × columns `[c0, c0+cols)`
    /// of this matrix, sharing the same storage (leading dimension is
    /// inherited).  All GEMM entry points accept views.
    pub fn view(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "view out of bounds"
        );
        DdrMatrix {
            rows,
            cols,
            ld: self.ld,
            off: self.elem_off(r0, c0),
        }
    }

    /// Write host data into the simulated DDR (no-op in timing mode).
    pub fn upload(&self, m: &mut Machine, data: &[f32]) -> Result<(), SimError> {
        if !m.mode.is_functional() {
            return Ok(());
        }
        assert_eq!(data.len(), self.rows * self.cols, "shape mismatch");
        if self.ld == self.cols {
            m.ddr.write_f32_slice(self.off, data)
        } else {
            for r in 0..self.rows {
                m.ddr.write_f32_slice(
                    self.elem_off(r, 0),
                    &data[r * self.cols..(r + 1) * self.cols],
                )?;
            }
            Ok(())
        }
    }

    /// Read the matrix back from simulated DDR.
    pub fn download(&self, m: &mut Machine) -> Result<Vec<f32>, SimError> {
        let mut out = vec![0.0; self.rows * self.cols];
        self.download_into(m, &mut out).map(|()| out)
    }

    /// Read the matrix back into `out` (dense, `rows · cols` long, else a
    /// panic): one copy, straight into the caller's buffer.
    pub(crate) fn download_into(&self, m: &mut Machine, out: &mut [f32]) -> Result<(), SimError> {
        // A dense matrix is read as one long row: one access, one copy.
        let (rows, cols) = if self.ld == self.cols {
            (1, self.rows * self.cols)
        } else {
            (self.rows, self.cols)
        };
        m.ddr
            .read_2d_f32(self.off, 4 * self.ld as u64, rows, cols, out)
    }

    /// Borrow the matrix in place, one read access: its `(rows − 1)·ld +
    /// cols` words of DDR, row `i` at `i·ld` (`off` must be word-aligned,
    /// as [`DdrMatrix::alloc`] and [`DdrMatrix::view`] leave it).
    pub(crate) fn view_f32<'m>(&self, m: &'m mut Machine) -> Result<&'m [f32], SimError> {
        let extent = (self.rows * self.ld).saturating_sub(self.ld - self.cols);
        m.ddr.view_f32(self.off, extent)
    }
}

/// One GEMM problem: `C += A × B` with `A: M×K`, `B: K×N`, `C: M×N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmProblem {
    /// The A operand.
    pub a: DdrMatrix,
    /// The B operand.
    pub b: DdrMatrix,
    /// The C accumulator.
    pub c: DdrMatrix,
}

impl GemmProblem {
    /// Allocate all three matrices for an `M×N×K` problem.
    pub fn alloc(m: &mut Machine, mm: usize, nn: usize, kk: usize) -> Result<Self, SimError> {
        Ok(GemmProblem {
            a: DdrMatrix::alloc(m, mm, kk)?,
            b: DdrMatrix::alloc(m, kk, nn)?,
            c: DdrMatrix::alloc(m, mm, nn)?,
        })
    }

    /// M dimension.
    pub fn m(&self) -> usize {
        self.a.rows
    }

    /// N dimension.
    pub fn n(&self) -> usize {
        self.b.cols
    }

    /// K dimension.
    pub fn k(&self) -> usize {
        self.a.cols
    }

    /// Useful flops (2·M·N·K).
    pub fn flops(&self) -> u64 {
        2 * self.m() as u64 * self.n() as u64 * self.k() as u64
    }

    /// Validate operand shape agreement.
    pub fn validate(&self) -> Result<(), String> {
        if self.b.rows != self.a.cols {
            return Err(format!(
                "K mismatch: A is {}×{}, B is {}×{}",
                self.a.rows, self.a.cols, self.b.rows, self.b.cols
            ));
        }
        if self.c.rows != self.a.rows || self.c.cols != self.b.cols {
            return Err(format!(
                "C is {}×{}, expected {}×{}",
                self.c.rows, self.c.cols, self.a.rows, self.b.cols
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::ExecMode;

    #[test]
    fn upload_download_round_trip() {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let mat = DdrMatrix::alloc(&mut m, 3, 5).unwrap();
        let data: Vec<f32> = (0..15).map(|i| i as f32).collect();
        mat.upload(&mut m, &data).unwrap();
        assert_eq!(mat.download(&mut m).unwrap(), data);
        assert_eq!(mat.elem_off(1, 2), mat.off + 7 * 4);
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let a = DdrMatrix::alloc(&mut m, 4, 4).unwrap();
        let b = DdrMatrix::alloc(&mut m, 4, 4).unwrap();
        assert_eq!(a.off % 64, 0);
        assert_eq!(b.off % 64, 0);
        assert!(b.off >= a.off + 64);
    }

    #[test]
    fn alloc_refuses_a_size_that_overflows_u64() {
        let mut m = Machine::with_mode(ExecMode::Timing);
        let small = DdrMatrix::alloc(&mut m, 4, 4).unwrap();
        let before = m.ddr.allocated();
        for (rows, cols) in [
            (usize::MAX / 2, 16),
            (usize::MAX, usize::MAX),
            (1 << 31, 1 << 31),
        ] {
            assert!(matches!(
                DdrMatrix::alloc(&mut m, rows, cols),
                Err(SimError::AllocFailure { .. })
            ));
            assert_eq!(m.ddr.allocated(), before);
        }
        assert!(DdrMatrix::alloc(&mut m, 4, 4).unwrap().off > small.off);
    }

    #[test]
    fn timing_mode_upload_is_a_noop() {
        let mut m = Machine::with_mode(ExecMode::Timing);
        let mat = DdrMatrix::alloc(&mut m, 1 << 12, 1 << 10).unwrap();
        mat.upload(&mut m, &[]).unwrap(); // would panic on shape in functional mode
    }

    #[test]
    fn problem_accessors_and_validation() {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = GemmProblem::alloc(&mut m, 8, 3, 17).unwrap();
        assert_eq!((p.m(), p.n(), p.k()), (8, 3, 17));
        assert_eq!(p.flops(), 2 * 8 * 3 * 17);
        p.validate().unwrap();
        let bad = GemmProblem {
            a: p.a,
            b: p.b,
            c: p.a,
        };
        assert!(bad.validate().is_err());
    }
}
