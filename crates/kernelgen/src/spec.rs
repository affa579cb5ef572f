//! Kernel specifications, layouts and generator errors.

use std::fmt;

/// Maximum `n_a` supported by the irregular-GEMM kernels (paper: N ≤ 96,
/// three vectors of 32 f32 across three FMAC units).
pub const MAX_NA: usize = 96;

/// The shape of one micro-kernel invocation:
/// `C_a[m_s][n_a] += A_s[m_s][k_a] × B_a[k_a][n_a]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    /// Rows of the `A_s` panel held in SM.
    pub m_s: usize,
    /// Depth (columns of `A_s` / rows of `B_a`).
    pub k_a: usize,
    /// Columns of `B_a`/`C_a` (≤ [`MAX_NA`]).
    pub n_a: usize,
}

impl KernelSpec {
    /// Construct and validate a spec.
    pub fn new(m_s: usize, k_a: usize, n_a: usize) -> Result<Self, GenError> {
        let spec = KernelSpec { m_s, k_a, n_a };
        spec.validate()?;
        Ok(spec)
    }

    /// Validate dimension constraints.
    pub fn validate(&self) -> Result<(), GenError> {
        if self.m_s == 0 || self.k_a == 0 || self.n_a == 0 {
            return Err(GenError::EmptyDimension(*self));
        }
        if self.n_a > MAX_NA {
            return Err(GenError::NaTooLarge {
                n_a: self.n_a,
                max: MAX_NA,
            });
        }
        Ok(())
    }

    /// Number of 32-lane vectors per row of `B_a`/`C_a`.
    pub fn v_n(&self) -> usize {
        self.n_a.div_ceil(32)
    }

    /// Padded row width in elements (rows of `B_a`/`C_a` in AM are padded
    /// to whole vectors; only `n_a` columns are DMA'd).
    pub fn na_pad(&self) -> usize {
        self.v_n() * 32
    }

    /// Useful flops of one invocation (2·m·n·k on the *unpadded* shape).
    pub fn useful_flops(&self) -> u64 {
        2 * self.m_s as u64 * self.k_a as u64 * self.n_a as u64
    }
}

impl fmt::Display for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uk_ms{}_ka{}_na{}", self.m_s, self.k_a, self.n_a)
    }
}

/// Scratchpad footprint of a generated kernel (what the blocking layer
/// must allocate for one buffer instance; double-buffering doubles B/A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelLayout {
    /// Bytes of `A_s` in SM (dense `m_s × k_a` f32).
    pub a_bytes: u64,
    /// Bytes of `B_a` in AM (`k_a` rows padded to [`KernelSpec::na_pad`]).
    pub b_bytes: u64,
    /// Bytes of `C_a` in AM (`m_s` rows padded to [`KernelSpec::na_pad`]).
    pub c_bytes: u64,
    /// Row stride of `B_a`/`C_a` in elements (= `na_pad`).
    pub row_elems: usize,
}

impl KernelLayout {
    /// Layout implied by a spec.
    pub fn for_spec(spec: &KernelSpec) -> Self {
        let row = spec.na_pad() as u64;
        KernelLayout {
            a_bytes: (spec.m_s * spec.k_a * 4) as u64,
            b_bytes: spec.k_a as u64 * row * 4,
            c_bytes: spec.m_s as u64 * row * 4,
            row_elems: spec.na_pad(),
        }
    }
}

/// Errors from the kernel generator.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// A dimension was zero.
    EmptyDimension(KernelSpec),
    /// `n_a` exceeds the architectural maximum.
    NaTooLarge {
        /// Requested `n_a`.
        n_a: usize,
        /// The maximum.
        max: usize,
    },
    /// No tiling fits the register budget.
    NoFeasibleTiling(KernelSpec),
    /// A forced tiling violates a constraint.
    BadForcedTiling {
        /// Explanation.
        detail: String,
    },
    /// The scheduler could not place an instruction (internal invariant).
    ScheduleOverflow {
        /// Explanation.
        detail: String,
    },
    /// A verified kernel's block plan violated a structural invariant
    /// while being lowered to the `Compiled` host tier.
    LoweringInvariant {
        /// Explanation.
        detail: String,
    },
    /// ISA-level failure while emitting code.
    Isa(ftimm_isa::IsaError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::EmptyDimension(s) => write!(f, "kernel {s} has an empty dimension"),
            GenError::NaTooLarge { n_a, max } => write!(f, "n_a = {n_a} exceeds maximum {max}"),
            GenError::NoFeasibleTiling(s) => {
                write!(f, "no (m_u, k_u) tiling fits the register budget for {s}")
            }
            GenError::BadForcedTiling { detail } => write!(f, "forced tiling invalid: {detail}"),
            GenError::ScheduleOverflow { detail } => write!(f, "scheduler overflow: {detail}"),
            GenError::LoweringInvariant { detail } => {
                write!(f, "compiled-tier lowering invariant violated: {detail}")
            }
            GenError::Isa(e) => write!(f, "isa error: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<ftimm_isa::IsaError> for GenError {
    fn from(e: ftimm_isa::IsaError) -> Self {
        GenError::Isa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(KernelSpec::new(6, 512, 96).is_ok());
        assert!(KernelSpec::new(0, 512, 96).is_err());
        assert!(KernelSpec::new(6, 0, 96).is_err());
        assert!(KernelSpec::new(6, 512, 97).is_err());
        assert!(KernelSpec::new(6, 512, 0).is_err());
    }

    #[test]
    fn vector_counts_and_padding() {
        let s = KernelSpec::new(6, 512, 96).unwrap();
        assert_eq!(s.v_n(), 3);
        assert_eq!(s.na_pad(), 96);
        let s = KernelSpec::new(6, 512, 80).unwrap();
        assert_eq!(s.v_n(), 3);
        assert_eq!(s.na_pad(), 96);
        let s = KernelSpec::new(6, 512, 32).unwrap();
        assert_eq!(s.v_n(), 1);
        let s = KernelSpec::new(6, 512, 1).unwrap();
        assert_eq!(s.v_n(), 1);
        assert_eq!(s.na_pad(), 32);
    }

    #[test]
    fn layout_footprints() {
        let s = KernelSpec::new(6, 512, 64).unwrap();
        let l = KernelLayout::for_spec(&s);
        assert_eq!(l.a_bytes, 6 * 512 * 4);
        assert_eq!(l.b_bytes, 512 * 64 * 4);
        assert_eq!(l.c_bytes, 6 * 64 * 4);
        assert_eq!(l.row_elems, 64);
    }

    #[test]
    fn useful_flops_ignore_padding() {
        let s = KernelSpec::new(6, 100, 80).unwrap();
        assert_eq!(s.useful_flops(), 2 * 6 * 100 * 80);
    }

    #[test]
    fn display_names_kernels() {
        let s = KernelSpec::new(6, 512, 96).unwrap();
        assert_eq!(s.to_string(), "uk_ms6_ka512_na96");
    }
}
