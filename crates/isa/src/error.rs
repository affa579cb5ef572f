//! Error type shared by ISA construction and validation.

use std::fmt;

/// Errors produced while building or validating ISA objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// Two instructions in one bundle target the same functional unit.
    UnitConflict {
        /// The contested unit.
        unit: crate::Unit,
    },
    /// An instruction placed on a unit outside its opcode's unit class.
    WrongUnit {
        /// The opcode in question.
        opcode: crate::Opcode,
        /// The unit it was placed on.
        unit: crate::Unit,
    },
    /// A bundle exceeds the scalar- or vector-side issue width.
    SlotOverflow {
        /// `true` if the scalar side overflowed, `false` for the vector side.
        scalar: bool,
        /// Number of instructions that were attempted on that side.
        got: usize,
        /// The architectural limit for that side.
        limit: usize,
    },
    /// An instruction was built with the wrong operand shape for its opcode.
    OperandMismatch {
        /// The opcode in question.
        opcode: crate::Opcode,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A register index is out of range.
    BadRegister {
        /// The offending index.
        index: u16,
        /// `true` for vector registers, `false` for scalar registers.
        vector: bool,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::UnitConflict { unit } => {
                write!(f, "two instructions in one bundle target unit {unit}")
            }
            IsaError::WrongUnit { opcode, unit } => {
                write!(f, "{opcode} cannot issue on unit {unit}")
            }
            IsaError::SlotOverflow { scalar, got, limit } => write!(
                f,
                "{} side of bundle has {got} instructions (limit {limit})",
                if *scalar { "scalar" } else { "vector" }
            ),
            IsaError::OperandMismatch { opcode, detail } => {
                write!(f, "operand mismatch for {opcode}: {detail}")
            }
            IsaError::BadRegister { index, vector } => write!(
                f,
                "{} register index {index} out of range",
                if *vector { "vector" } else { "scalar" }
            ),
        }
    }
}

impl std::error::Error for IsaError {}
