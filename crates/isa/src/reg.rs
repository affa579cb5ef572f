//! Scalar and vector register names.

use crate::{IsaError, NUM_SREGS, NUM_VREGS};
use std::fmt;

/// A scalar register (`R0`–`R63`), 64 bits wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SReg(u16);

impl SReg {
    /// Construct a scalar register, checking the index range.
    pub fn new(index: u16) -> Result<Self, IsaError> {
        if (index as usize) < NUM_SREGS {
            Ok(SReg(index))
        } else {
            Err(IsaError::BadRegister {
                index,
                vector: false,
            })
        }
    }

    /// The register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A vector register (`V0`–`V63`), 32 × f32 across the 16-VPE array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(u16);

impl VReg {
    /// Construct a vector register, checking the index range.
    pub fn new(index: u16) -> Result<Self, IsaError> {
        if (index as usize) < NUM_VREGS {
            Ok(VReg(index))
        } else {
            Err(IsaError::BadRegister {
                index,
                vector: true,
            })
        }
    }

    /// The register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The register whose index is one greater (used by paired loads such
    /// as `VLDDW`, which fill `Vd` and `Vd+1`).
    pub fn next(self) -> Result<Self, IsaError> {
        VReg::new(self.0 + 1)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// A register of either file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// A scalar register.
    S(SReg),
    /// A vector register.
    V(VReg),
}

impl Reg {
    /// Dense index over both files: scalar registers `0..NUM_SREGS`, then
    /// vector registers.
    #[inline]
    pub fn id(self) -> usize {
        match self {
            Reg::S(r) => r.index(),
            Reg::V(r) => NUM_SREGS + r.index(),
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::S(r) => r.fmt(f),
            Reg::V(r) => r.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_enforced() {
        assert!(SReg::new(0).is_ok());
        assert!(SReg::new(63).is_ok());
        assert!(SReg::new(64).is_err());
        assert!(VReg::new(63).is_ok());
        assert!(VReg::new(64).is_err());
    }

    #[test]
    fn display_matches_assembly_syntax() {
        assert_eq!(SReg::new(7).unwrap().to_string(), "R7");
        assert_eq!(VReg::new(42).unwrap().to_string(), "V42");
    }

    #[test]
    fn paired_register_wraps_to_error_at_top() {
        assert_eq!(
            VReg::new(10).unwrap().next().unwrap(),
            VReg::new(11).unwrap()
        );
        assert!(VReg::new(63).unwrap().next().is_err());
    }
}
