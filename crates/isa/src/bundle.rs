//! VLIW bundles: the set of instructions issued in one cycle.

use crate::{Instruction, IsaError, Unit, MAX_SCALAR_SLOTS, MAX_VECTOR_SLOTS};
use std::convert::Infallible;
use std::fmt;

/// What a bundle's slots so far occupy: a mask of taken units and the
/// two side widths.
#[derive(Debug, Clone, Copy, Default)]
struct Usage {
    taken: u16,
    scalar: usize,
    vector: usize,
}

impl Usage {
    fn add(mut self, unit: Unit) -> Self {
        self.taken |= 1 << unit.index();
        if !unit.is_scalar_side() {
            self.vector += 1;
        } else if unit != Unit::Control {
            self.scalar += 1;
        }
        self
    }

    /// The per-slot rules, in order: operand shape, unit class, unit
    /// free.  `broken` hears each one `inst` on `unit` breaks after these
    /// slots; an `Err` from it ends the check.
    fn check_slot<E>(
        self,
        unit: Unit,
        inst: &Instruction,
        broken: &mut impl FnMut(IsaError) -> Result<(), E>,
    ) -> Result<(), E> {
        if let Err(e) = inst.validate() {
            broken(e)?;
        }
        let opcode = inst.opcode;
        if !opcode.unit_class().members().contains(&unit) {
            broken(IsaError::WrongUnit { opcode, unit })?;
        }
        if self.taken & (1 << unit.index()) != 0 {
            broken(IsaError::UnitConflict { unit })?;
        }
        Ok(())
    }

    /// The side widths, scalar then vector: `broken` hears each one these
    /// slots exceed.
    fn check_widths<E>(self, broken: &mut impl FnMut(IsaError) -> Result<(), E>) -> Result<(), E> {
        for (scalar, got, limit) in [
            (true, self.scalar, MAX_SCALAR_SLOTS),
            (false, self.vector, MAX_VECTOR_SLOTS),
        ] {
            if got > limit {
                broken(IsaError::SlotOverflow { scalar, got, limit })?;
            }
        }
        Ok(())
    }
}

/// All instructions issued in a single cycle, each bound to a concrete
/// functional unit.
///
/// [`Bundle::push`] keeps every issue rule of [`Bundle::check_issue`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bundle {
    slots: Vec<(Unit, Instruction)>,
}

impl Bundle {
    /// An empty bundle (a true NOP cycle).
    pub fn new() -> Self {
        Bundle::default()
    }

    /// Add an instruction on a concrete unit, unless that breaks an issue
    /// rule of [`Bundle::check_issue`] (the first one is the error).
    pub fn push(&mut self, unit: Unit, inst: Instruction) -> Result<(), IsaError> {
        let usage = self.slots.iter().fold(Usage::default(), |u, s| u.add(s.0));
        usage.check_slot(unit, &inst, &mut Err)?;
        usage.add(unit).check_widths(&mut Err)?;
        // Keep slots in canonical unit order so bundle equality does not
        // depend on insertion order (the assembler round-trip relies on it).
        let pos = self.slots.partition_point(|(u, _)| *u < unit);
        self.slots.insert(pos, (unit, inst));
        Ok(())
    }

    /// The issue rules, stated once.  Per slot in [`Bundle::slots`] order:
    /// the operand shape ([`Instruction::validate`]), the unit belonging to
    /// the opcode's class, and no earlier slot on the same unit.  Then the
    /// side widths: at most [`MAX_SCALAR_SLOTS`] scalar-side execution
    /// slots (`SBR` rides the control unit outside that budget, as in the
    /// paper's "5 scalar + 6 vector" split) and at most
    /// [`MAX_VECTOR_SLOTS`] vector-side slots.  `broken` hears every broken
    /// rule with its slot's unit (`None` for a width).
    pub fn check_issue(&self, mut broken: impl FnMut(Option<Unit>, IsaError)) {
        let mut usage = Usage::default();
        for &(unit, ref inst) in &self.slots {
            let Ok(()) = usage.check_slot::<Infallible>(unit, inst, &mut |e| {
                broken(Some(unit), e);
                Ok(())
            });
            usage = usage.add(unit);
        }
        let Ok(()) = usage.check_widths::<Infallible>(&mut |e| {
            broken(None, e);
            Ok(())
        });
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

    /// The `(unit, instruction)` slots in canonical unit order (the order
    /// they take effect in), including any duplicate units smuggled in via
    /// [`Bundle::push_unchecked`].
    pub fn slots(&self) -> &[(Unit, Instruction)] {
        &self.slots
    }

    /// Add an instruction on the first free unit of its class.
    pub fn push_auto(&mut self, inst: Instruction) -> Result<Unit, IsaError> {
        let class = inst.opcode.unit_class();
        for &unit in class.members() {
            if self.on_unit(unit).is_none() {
                self.push(unit, inst)?;
                return Ok(unit);
            }
        }
        Err(IsaError::UnitConflict {
            unit: class.members()[0],
        })
    }

    /// The instruction on a unit, if any.
    pub fn on_unit(&self, unit: Unit) -> Option<&Instruction> {
        self.slots.iter().find(|(u, _)| *u == unit).map(|(_, i)| i)
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
        for (n, (unit, inst)) in self.slots.iter().enumerate() {
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
        assert!(matches!(err, IsaError::WrongUnit { .. }), "{err}");
        assert!(b.is_empty(), "a refused push leaves the bundle as it was");
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
