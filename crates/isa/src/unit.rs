//! Functional units of the DSP core and their issue rules.

use std::fmt;

/// One functional unit of the VLIW core.
///
/// The paper's pipeline tables (Tables I–III) use exactly these rows.
/// A bundle may contain at most one instruction per unit, at most
/// [`crate::MAX_SCALAR_SLOTS`] scalar-side instructions and at most
/// [`crate::MAX_VECTOR_SLOTS`] vector-side instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Unit {
    /// Scalar load/store unit 1 (`SLDH`, `SLDW`, `SSTW`).
    ScalarLs1,
    /// Scalar load/store unit 2.
    ScalarLs2,
    /// Scalar FMAC unit 1 (also executes `SFEXTS32L` and scalar moves).
    ScalarFmac1,
    /// Scalar FMAC unit 2 (also executes the broadcast instructions).
    ScalarFmac2,
    /// Scalar integer execution unit (fixed-point only, e.g. `SBALE2H`).
    Sieu,
    /// Control unit (branches: `SBR`).
    Control,
    /// Vector load/store unit 1 (`VLDW`, `VLDDW`, `VSTW`, `VSTDW`).
    VectorLs1,
    /// Vector load/store unit 2.
    VectorLs2,
    /// Vector FMAC unit 1 (`VFMULAS32`, `VFADDS32`).
    VectorFmac1,
    /// Vector FMAC unit 2.
    VectorFmac2,
    /// Vector FMAC unit 3.
    VectorFmac3,
    /// Vector miscellaneous unit (register clears/moves: `VCLR`, `VMOV`).
    VectorMisc,
}

impl Unit {
    /// All units in the canonical row order used by the paper's tables.
    pub const ALL: [Unit; 12] = [
        Unit::ScalarLs1,
        Unit::ScalarLs2,
        Unit::ScalarFmac1,
        Unit::ScalarFmac2,
        Unit::Sieu,
        Unit::Control,
        Unit::VectorLs1,
        Unit::VectorLs2,
        Unit::VectorFmac1,
        Unit::VectorFmac2,
        Unit::VectorFmac3,
        Unit::VectorMisc,
    ];

    /// Position in [`Unit::ALL`] (the tables' row order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this unit counts against the scalar-side issue width.
    ///
    /// The control unit issues from the scalar instruction stream on the
    /// real machine; we follow the paper's "5 scalar + 6 vector" split and
    /// count `SBR` against the scalar side.
    pub fn is_scalar_side(self) -> bool {
        matches!(
            self,
            Unit::ScalarLs1
                | Unit::ScalarLs2
                | Unit::ScalarFmac1
                | Unit::ScalarFmac2
                | Unit::Sieu
                | Unit::Control
        )
    }

    /// Display name matching the row labels of the paper's tables.
    pub fn row_label(self) -> &'static str {
        match self {
            Unit::ScalarLs1 => "Scalar Load&Store1",
            Unit::ScalarLs2 => "Scalar Load&Store2",
            Unit::ScalarFmac1 => "Scalar FMAC1",
            Unit::ScalarFmac2 => "Scalar FMAC2",
            Unit::Sieu => "SIEU",
            Unit::Control => "Control unit",
            Unit::VectorLs1 => "Vector Load&Store1",
            Unit::VectorLs2 => "Vector Load&Store2",
            Unit::VectorFmac1 => "Vector FMAC1",
            Unit::VectorFmac2 => "Vector FMAC2",
            Unit::VectorFmac3 => "Vector FMAC3",
            Unit::VectorMisc => "Vector Misc",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row_label())
    }
}

/// Classes of interchangeable units an opcode may issue on.
///
/// The scheduler picks a concrete unit from the class; e.g. a vector load
/// may go to either vector load/store unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitClass {
    /// Either scalar load/store unit.
    ScalarLs,
    /// Scalar FMAC unit 1 only.
    ScalarFmac1,
    /// Scalar FMAC unit 2 only (broadcast path).
    ScalarFmac2,
    /// The SIEU.
    Sieu,
    /// The control unit.
    Control,
    /// Either vector load/store unit.
    VectorLs,
    /// Any of the three vector FMAC units.
    VectorFmac,
    /// The vector misc unit.
    VectorMisc,
}

impl UnitClass {
    /// Concrete units belonging to this class, in preference order.
    pub fn members(self) -> &'static [Unit] {
        match self {
            UnitClass::ScalarLs => &[Unit::ScalarLs1, Unit::ScalarLs2],
            UnitClass::ScalarFmac1 => &[Unit::ScalarFmac1],
            UnitClass::ScalarFmac2 => &[Unit::ScalarFmac2],
            UnitClass::Sieu => &[Unit::Sieu],
            UnitClass::Control => &[Unit::Control],
            UnitClass::VectorLs => &[Unit::VectorLs1, Unit::VectorLs2],
            UnitClass::VectorFmac => &[Unit::VectorFmac1, Unit::VectorFmac2, Unit::VectorFmac3],
            UnitClass::VectorMisc => &[Unit::VectorMisc],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_units_unique_and_complete() {
        for (i, a) in Unit::ALL.iter().enumerate() {
            assert_eq!(a.index(), i, "{a:?}");
            for b in &Unit::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Unit::ALL.len(), 12);
    }

    #[test]
    fn scalar_vector_split_matches_paper() {
        let scalar = Unit::ALL.iter().filter(|u| u.is_scalar_side()).count();
        let vector = Unit::ALL.iter().filter(|u| !u.is_scalar_side()).count();
        assert_eq!(scalar, 6); // 5 scalar execution units + control
        assert_eq!(vector, 6);
    }

    #[test]
    fn class_members_are_consistent() {
        for class in [
            UnitClass::ScalarLs,
            UnitClass::ScalarFmac1,
            UnitClass::ScalarFmac2,
            UnitClass::Sieu,
            UnitClass::Control,
            UnitClass::VectorLs,
            UnitClass::VectorFmac,
            UnitClass::VectorMisc,
        ] {
            assert!(!class.members().is_empty());
        }
        assert_eq!(UnitClass::VectorFmac.members().len(), 3);
    }
}
