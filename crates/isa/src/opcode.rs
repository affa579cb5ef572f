//! Opcode definitions.
//!
//! The mnemonics are those used in the paper's pipeline tables; semantics
//! are our documented reconstruction (the real ISA manual is not public).

use crate::unit::UnitClass;
use std::fmt;

/// An instruction opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    // ---- scalar load/store ----
    /// Load one 32-bit word (one f32) from SM into the low half of `Rd`.
    Sldh,
    /// Load one 64-bit double word (two packed f32) from SM into `Rd`.
    Sldw,
    // ---- scalar FMAC-unit ALU ops ----
    /// Sign-extend/extract the low 32 bits of `Rs` into `Rd` (broadcast-ready).
    Sfexts32l,
    /// Move the high 32 bits of `Rs` into the low half of `Rd` (SIEU).
    Sbale2h,
    /// Broadcast the low f32 of `Rs` to all 32 lanes of `Vd`.
    Svbcast,
    /// Broadcast the low f32 of `Rs1`/`Rs2` to all lanes of `Vd1`/`Vd2`
    /// (two broadcasts in one issue slot — the 2-f32/cycle ceiling).
    Svbcast2,
    // ---- control ----
    /// Loop-back branch.  Counted loops are structural in [`crate::Program`];
    /// `SBR` is materialised so issue-slot pressure matches the hardware.
    Sbr,
    // ---- vector load/store ----
    /// Load one vector (32 × f32, 128 B) from AM into `Vd`.
    Vldw,
    /// Load two consecutive vectors (256 B) from AM into `Vd` and `Vd+1`.
    Vlddw,
    /// Store one vector from `Vs` to AM.
    Vstw,
    /// Store two consecutive vectors from `Vs`, `Vs+1` to AM.
    Vstdw,
    // ---- vector arithmetic ----
    /// Fused multiply-add: `Vc[lane] += Va[lane] * Vb[lane]` (f32).
    Vfmulas32,
    /// Vector add: `Vd[lane] = Va[lane] + Vb[lane]` (f32), used for the
    /// `k_u`-way accumulator reduction.
    Vfadds32,
    /// Clear a vector register to +0.0 in every lane.
    Vclr,
    /// Copy a vector register.
    Vmov,
}

impl Opcode {
    /// All opcodes, for table-driven tests.
    pub const ALL: [Opcode; 15] = [
        Opcode::Sldh,
        Opcode::Sldw,
        Opcode::Sfexts32l,
        Opcode::Sbale2h,
        Opcode::Svbcast,
        Opcode::Svbcast2,
        Opcode::Sbr,
        Opcode::Vldw,
        Opcode::Vlddw,
        Opcode::Vstw,
        Opcode::Vstdw,
        Opcode::Vfmulas32,
        Opcode::Vfadds32,
        Opcode::Vclr,
        Opcode::Vmov,
    ];

    /// The unit class this opcode issues on.
    pub fn unit_class(self) -> UnitClass {
        match self {
            Opcode::Sldh | Opcode::Sldw => UnitClass::ScalarLs,
            Opcode::Sfexts32l => UnitClass::ScalarFmac1,
            Opcode::Svbcast | Opcode::Svbcast2 => UnitClass::ScalarFmac2,
            Opcode::Sbale2h => UnitClass::Sieu,
            Opcode::Sbr => UnitClass::Control,
            Opcode::Vldw | Opcode::Vlddw | Opcode::Vstw | Opcode::Vstdw => UnitClass::VectorLs,
            Opcode::Vfmulas32 | Opcode::Vfadds32 => UnitClass::VectorFmac,
            Opcode::Vclr | Opcode::Vmov => UnitClass::VectorMisc,
        }
    }

    /// Mnemonic in the paper's upper-case assembly style.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Sldh => "SLDH",
            Opcode::Sldw => "SLDW",
            Opcode::Sfexts32l => "SFEXTS32L",
            Opcode::Sbale2h => "SBALE2H",
            Opcode::Svbcast => "SVBCAST",
            Opcode::Svbcast2 => "SVBCAST2",
            Opcode::Sbr => "SBR",
            Opcode::Vldw => "VLDW",
            Opcode::Vlddw => "VLDDW",
            Opcode::Vstw => "VSTW",
            Opcode::Vstdw => "VSTDW",
            Opcode::Vfmulas32 => "VFMULAS32",
            Opcode::Vfadds32 => "VFADDS32",
            Opcode::Vclr => "VCLR",
            Opcode::Vmov => "VMOV",
        }
    }

    /// Number of f32 multiply-add lane operations this opcode performs
    /// (used for flop accounting; one FMA counts as two flops).
    pub fn fma_lanes(self) -> usize {
        match self {
            Opcode::Vfmulas32 => crate::VECTOR_LANES,
            _ => 0,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_ops_share_the_single_broadcast_unit() {
        assert_eq!(Opcode::Svbcast.unit_class(), UnitClass::ScalarFmac2);
        assert_eq!(Opcode::Svbcast2.unit_class(), UnitClass::ScalarFmac2);
        // Only one such unit exists: at most 2 f32 broadcast per cycle
        // (via SVBCAST2), matching §IV-A1 of the paper.
        assert_eq!(UnitClass::ScalarFmac2.members().len(), 1);
    }

    #[test]
    fn only_fmac_counts_flops() {
        for op in Opcode::ALL {
            if op == Opcode::Vfmulas32 {
                assert_eq!(op.fma_lanes(), 32);
            } else {
                assert_eq!(op.fma_lanes(), 0);
            }
        }
    }
}
