//! VLIW bundles: the set of instructions issued in one cycle.

use crate::{Instruction, IsaError, Unit, MAX_SCALAR_SLOTS, MAX_VECTOR_SLOTS};
use std::fmt;

/// All instructions issued in a single cycle, each bound to a concrete
/// functional unit.
///
/// Invariants (enforced by [`Bundle::push`]):
/// * at most one instruction per unit,
/// * the unit belongs to the opcode's unit class,
/// * at most [`MAX_SCALAR_SLOTS`] scalar-side and [`MAX_VECTOR_SLOTS`]
///   vector-side instructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bundle {
    slots: Vec<(Unit, Instruction)>,
}

impl Bundle {
    /// An empty bundle (a true NOP cycle).
    pub fn new() -> Self {
        Bundle::default()
    }

    /// Add an instruction on a concrete unit.
    pub fn push(&mut self, unit: Unit, inst: Instruction) -> Result<(), IsaError> {
        inst.validate()?;
        if !inst.opcode.unit_class().members().contains(&unit) {
            return Err(IsaError::OperandMismatch {
                opcode: inst.opcode,
                detail: format!("cannot issue on unit {unit}"),
            });
        }
        if self.slots.iter().any(|(u, _)| *u == unit) {
            return Err(IsaError::UnitConflict { unit });
        }
        let scalar_count = self.count_side(true) + usize::from(unit.is_scalar_side());
        let vector_count = self.count_side(false) + usize::from(!unit.is_scalar_side());
        // The control unit shares the scalar dispatch; the paper's split is
        // "5 scalar + 6 vector" with SBR shown on its own row, so we allow
        // 5 scalar execution slots plus SBR.
        let scalar_exec = scalar_count
            - usize::from(self.has(Unit::Control))
            - usize::from(unit == Unit::Control);
        if scalar_exec > MAX_SCALAR_SLOTS {
            return Err(IsaError::SlotOverflow {
                scalar: true,
                got: scalar_exec,
                limit: MAX_SCALAR_SLOTS,
            });
        }
        if vector_count > MAX_VECTOR_SLOTS {
            return Err(IsaError::SlotOverflow {
                scalar: false,
                got: vector_count,
                limit: MAX_VECTOR_SLOTS,
            });
        }
        // Keep slots in canonical unit order so bundle equality does not
        // depend on insertion order (the assembler round-trip relies on it).
        let pos = self.slots.partition_point(|(u, _)| *u < unit);
        self.slots.insert(pos, (unit, inst));
        Ok(())
    }

    /// Add an instruction on a concrete unit **without** checking any
    /// issue rule (operand shape, unit class, conflicts, side widths).
    ///
    /// This exists so correctness tooling can materialise *invalid*
    /// bundles — e.g. the conformance crate's static verifier is tested
    /// against deliberately corrupted programs that the checked
    /// [`Bundle::push`] could never produce.  Production code paths must
    /// use [`Bundle::push`].
    pub fn push_unchecked(&mut self, unit: Unit, inst: Instruction) {
        let pos = self.slots.partition_point(|(u, _)| *u < unit);
        self.slots.insert(pos, (unit, inst));
    }

    /// The raw `(unit, instruction)` slots in canonical unit order,
    /// including any duplicate units smuggled in via
    /// [`Bundle::push_unchecked`].  [`Bundle::iter`] silently drops
    /// duplicates (it looks units up one by one), so verification passes
    /// must walk this instead.
    pub fn slots(&self) -> &[(Unit, Instruction)] {
        &self.slots
    }

    /// Add an instruction on the first free unit of its class.
    pub fn push_auto(&mut self, inst: Instruction) -> Result<Unit, IsaError> {
        let class = inst.opcode.unit_class();
        for &unit in class.members() {
            if !self.has(unit) {
                self.push(unit, inst)?;
                return Ok(unit);
            }
        }
        Err(IsaError::UnitConflict {
            unit: class.members()[0],
        })
    }

    fn count_side(&self, scalar: bool) -> usize {
        self.slots
            .iter()
            .filter(|(u, _)| u.is_scalar_side() == scalar)
            .count()
    }

    /// Whether the unit already has an instruction this cycle.
    pub fn has(&self, unit: Unit) -> bool {
        self.slots.iter().any(|(u, _)| *u == unit)
    }

    /// The instruction on a unit, if any.
    pub fn on_unit(&self, unit: Unit) -> Option<&Instruction> {
        self.slots.iter().find(|(u, _)| *u == unit).map(|(_, i)| i)
    }

    /// Iterate `(unit, instruction)` pairs in canonical unit order.
    pub fn iter(&self) -> impl Iterator<Item = (Unit, &Instruction)> {
        Unit::ALL
            .into_iter()
            .filter_map(move |u| self.on_unit(u).map(|i| (u, i)))
    }

    /// Number of instructions in the bundle.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the bundle is a NOP cycle.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// f32 multiply-add lane operations performed by this bundle.
    pub fn fma_lanes(&self) -> usize {
        self.slots.iter().map(|(_, i)| i.opcode.fma_lanes()).sum()
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("  { NOP }");
        }
        f.write_str("  {")?;
        for (n, (unit, inst)) in self.iter().enumerate() {
            if n > 0 {
                f.write_str(" ||")?;
            }
            write!(f, " [{unit}] {inst}")?;
        }
        f.write_str(" }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddrExpr, BufId, MemSpace, SReg, VReg};

    fn am(off: u64) -> AddrExpr {
        AddrExpr::flat(MemSpace::Am, BufId::B, off)
    }

    fn v(n: u16) -> VReg {
        VReg::new(n).unwrap()
    }

    #[test]
    fn unit_conflicts_are_rejected() {
        let mut b = Bundle::new();
        b.push(Unit::VectorFmac1, Instruction::vfmulas32(v(0), v(1), v(2)))
            .unwrap();
        let err = b
            .push(Unit::VectorFmac1, Instruction::vfmulas32(v(3), v(4), v(5)))
            .unwrap_err();
        assert_eq!(
            err,
            IsaError::UnitConflict {
                unit: Unit::VectorFmac1
            }
        );
    }

    #[test]
    fn wrong_unit_class_is_rejected() {
        let mut b = Bundle::new();
        let err = b
            .push(Unit::ScalarLs1, Instruction::vfmulas32(v(0), v(1), v(2)))
            .unwrap_err();
        assert!(matches!(err, IsaError::OperandMismatch { .. }));
    }

    #[test]
    fn push_auto_fills_all_three_fmac_units_then_fails() {
        let mut b = Bundle::new();
        for n in 0..3u16 {
            let got = b
                .push_auto(Instruction::vfmulas32(v(n * 3), v(n * 3 + 1), v(n * 3 + 2)))
                .unwrap();
            assert_eq!(got, Unit::ALL[8 + n as usize]);
        }
        assert!(b
            .push_auto(Instruction::vfmulas32(v(20), v(21), v(22)))
            .is_err());
    }

    #[test]
    fn full_paper_bundle_fits_eleven_instructions() {
        // A maximal cycle like Table II's cycle 8: scalar load + extend +
        // broadcast + SIEU + two vector loads + three FMACs + SBR.
        let r = |n| SReg::new(n).unwrap();
        let mut b = Bundle::new();
        b.push_auto(Instruction::sldw(
            r(0),
            AddrExpr::flat(MemSpace::Sm, BufId::A, 0),
        ))
        .unwrap();
        b.push_auto(Instruction::sfexts32l(r(1), r(0))).unwrap();
        b.push_auto(Instruction::svbcast2(v(30), r(1), v(31), r(2)))
            .unwrap();
        b.push_auto(Instruction::sbale2h(r(2), r(0))).unwrap();
        b.push_auto(Instruction::sbr()).unwrap();
        b.push_auto(Instruction::vlddw(v(40), am(0)).unwrap())
            .unwrap();
        b.push_auto(Instruction::vlddw(v(42), am(256)).unwrap())
            .unwrap();
        b.push_auto(Instruction::vfmulas32(v(0), v(30), v(40)))
            .unwrap();
        b.push_auto(Instruction::vfmulas32(v(1), v(30), v(41)))
            .unwrap();
        b.push_auto(Instruction::vfmulas32(v(2), v(31), v(40)))
            .unwrap();
        b.push_auto(Instruction::vclr(v(50))).unwrap();
        assert_eq!(b.len(), 11);
        assert_eq!(b.fma_lanes(), 96);
    }

    #[test]
    fn scalar_side_width_is_enforced() {
        let r = |n| SReg::new(n).unwrap();
        let mut b = Bundle::new();
        b.push_auto(Instruction::sldh(
            r(0),
            AddrExpr::flat(MemSpace::Sm, BufId::A, 0),
        ))
        .unwrap();
        b.push_auto(Instruction::sldh(
            r(1),
            AddrExpr::flat(MemSpace::Sm, BufId::A, 4),
        ))
        .unwrap();
        b.push_auto(Instruction::sfexts32l(r(2), r(0))).unwrap();
        b.push_auto(Instruction::svbcast(v(0), r(2))).unwrap();
        b.push_auto(Instruction::sbale2h(r(3), r(1))).unwrap();
        // Five scalar execution slots used; SBR still fits (control unit).
        b.push_auto(Instruction::sbr()).unwrap();
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn display_lists_units_in_canonical_order() {
        let mut b = Bundle::new();
        b.push_auto(Instruction::vfmulas32(v(0), v(1), v(2)))
            .unwrap();
        b.push_auto(Instruction::sbr()).unwrap();
        let s = b.to_string();
        let ctrl = s.find("Control unit").unwrap();
        let fmac = s.find("Vector FMAC1").unwrap();
        assert!(ctrl < fmac);
    }
}
