//! Instructions: an opcode plus typed operands.

use crate::{AddrExpr, IsaError, Opcode, Reg, SReg, VReg};
use std::fmt;

/// A displayable operand (used by the assembler round-trip).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Scalar register.
    S(SReg),
    /// Vector register.
    V(VReg),
    /// Memory address expression.
    Mem(AddrExpr),
}

/// Most registers one operand list can hold (`VFMULAS32` reads three
/// vector registers; no opcode defines or reads more of one kind).
pub const MAX_REG_OPERANDS: usize = 3;

/// A short register operand list stored inline, read as a slice.
///
/// A generated kernel holds a few hundred instructions with four lists
/// each, so keeping them off the heap is most of a kernel's size and of
/// the time it takes to build one.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct RegList<R> {
    len: u8,
    /// Slots at and beyond `len` stay `R::default()`, which keeps the
    /// derived equality exact.
    regs: [R; MAX_REG_OPERANDS],
}

impl<R: Copy> RegList<R> {
    /// Append a register.  Panics beyond [`MAX_REG_OPERANDS`] — no opcode
    /// takes that many, so [`Instruction::validate`] would reject the
    /// list anyway.
    pub fn push(&mut self, reg: R) {
        self.regs[self.len as usize] = reg;
        self.len += 1;
    }
}

impl<R> std::ops::Deref for RegList<R> {
    type Target = [R];
    fn deref(&self) -> &[R] {
        &self.regs[..self.len as usize]
    }
}

impl<'a, R> IntoIterator for &'a RegList<R> {
    type Item = &'a R;
    type IntoIter = std::slice::Iter<'a, R>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<R: fmt::Debug> fmt::Debug for RegList<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One machine instruction.
///
/// Register operands are stored as explicit def/use lists so that the
/// hazard checker and the scheduler need no per-opcode knowledge; the
/// typed constructors below guarantee the lists match the opcode's
/// signature (checked again by [`Instruction::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The opcode.
    pub opcode: Opcode,
    /// Scalar registers written.
    pub sdefs: RegList<SReg>,
    /// Vector registers written.
    pub vdefs: RegList<VReg>,
    /// Scalar registers read.
    pub suses: RegList<SReg>,
    /// Vector registers read.
    pub vuses: RegList<VReg>,
    /// Memory operand for loads/stores.
    pub mem: Option<AddrExpr>,
}

impl Instruction {
    fn new(opcode: Opcode) -> Self {
        Instruction {
            opcode,
            sdefs: RegList::default(),
            vdefs: RegList::default(),
            suses: RegList::default(),
            vuses: RegList::default(),
            mem: None,
        }
    }

    /// `SLDH Rd, mem` — load one f32 from SM.
    pub fn sldh(rd: SReg, mem: AddrExpr) -> Self {
        let mut i = Self::new(Opcode::Sldh);
        i.sdefs.push(rd);
        i.mem = Some(mem);
        i
    }

    /// `SLDW Rd, mem` — load two packed f32 from SM.
    pub fn sldw(rd: SReg, mem: AddrExpr) -> Self {
        let mut i = Self::new(Opcode::Sldw);
        i.sdefs.push(rd);
        i.mem = Some(mem);
        i
    }

    /// `SFEXTS32L Rd, Rs` — extract the low f32 of `Rs`.
    pub fn sfexts32l(rd: SReg, rs: SReg) -> Self {
        let mut i = Self::new(Opcode::Sfexts32l);
        i.sdefs.push(rd);
        i.suses.push(rs);
        i
    }

    /// `SBALE2H Rd, Rs` — extract the high f32 of `Rs` (SIEU).
    pub fn sbale2h(rd: SReg, rs: SReg) -> Self {
        let mut i = Self::new(Opcode::Sbale2h);
        i.sdefs.push(rd);
        i.suses.push(rs);
        i
    }

    /// `SVBCAST Vd, Rs` — broadcast one f32 to a vector register.
    pub fn svbcast(vd: VReg, rs: SReg) -> Self {
        let mut i = Self::new(Opcode::Svbcast);
        i.vdefs.push(vd);
        i.suses.push(rs);
        i
    }

    /// `SVBCAST2 Vd1, Rs1, Vd2, Rs2` — broadcast two f32 in one slot.
    pub fn svbcast2(vd1: VReg, rs1: SReg, vd2: VReg, rs2: SReg) -> Self {
        let mut i = Self::new(Opcode::Svbcast2);
        i.vdefs.push(vd1);
        i.vdefs.push(vd2);
        i.suses.push(rs1);
        i.suses.push(rs2);
        i
    }

    /// `SBR` — loop-back branch (structural; no operands).
    pub fn sbr() -> Self {
        Self::new(Opcode::Sbr)
    }

    /// `VLDW Vd, mem` — load one vector from AM.
    pub fn vldw(vd: VReg, mem: AddrExpr) -> Self {
        let mut i = Self::new(Opcode::Vldw);
        i.vdefs.push(vd);
        i.mem = Some(mem);
        i
    }

    /// `VLDDW Vd, mem` — load two consecutive vectors into `Vd`, `Vd+1`.
    pub fn vlddw(vd: VReg, mem: AddrExpr) -> Result<Self, IsaError> {
        let mut i = Self::new(Opcode::Vlddw);
        let vd2 = vd.next()?;
        i.vdefs.push(vd);
        i.vdefs.push(vd2);
        i.mem = Some(mem);
        Ok(i)
    }

    /// `VSTW Vs, mem` — store one vector to AM.
    pub fn vstw(vs: VReg, mem: AddrExpr) -> Self {
        let mut i = Self::new(Opcode::Vstw);
        i.vuses.push(vs);
        i.mem = Some(mem);
        i
    }

    /// `VSTDW Vs, mem` — store two consecutive vectors from `Vs`, `Vs+1`.
    pub fn vstdw(vs: VReg, mem: AddrExpr) -> Result<Self, IsaError> {
        let mut i = Self::new(Opcode::Vstdw);
        let vs2 = vs.next()?;
        i.vuses.push(vs);
        i.vuses.push(vs2);
        i.mem = Some(mem);
        Ok(i)
    }

    /// `VFMULAS32 Vc, Va, Vb` — `Vc += Va * Vb` per lane.
    pub fn vfmulas32(vc: VReg, va: VReg, vb: VReg) -> Self {
        let mut i = Self::new(Opcode::Vfmulas32);
        i.vdefs.push(vc);
        i.vuses.push(vc);
        i.vuses.push(va);
        i.vuses.push(vb);
        i
    }

    /// `VFADDS32 Vd, Va, Vb` — `Vd = Va + Vb` per lane.
    pub fn vfadds32(vd: VReg, va: VReg, vb: VReg) -> Self {
        let mut i = Self::new(Opcode::Vfadds32);
        i.vdefs.push(vd);
        i.vuses.push(va);
        i.vuses.push(vb);
        i
    }

    /// `VCLR Vd` — clear a vector register.
    pub fn vclr(vd: VReg) -> Self {
        let mut i = Self::new(Opcode::Vclr);
        i.vdefs.push(vd);
        i
    }

    /// `VMOV Vd, Vs` — copy a vector register.
    pub fn vmov(vd: VReg, vs: VReg) -> Self {
        let mut i = Self::new(Opcode::Vmov);
        i.vdefs.push(vd);
        i.vuses.push(vs);
        i
    }

    /// Registers read, scalar then vector.
    #[inline]
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        let s = self.suses.iter().map(|&r| Reg::S(r));
        s.chain(self.vuses.iter().map(|&r| Reg::V(r)))
    }

    /// Registers written, scalar then vector.
    #[inline]
    pub fn writes(&self) -> impl Iterator<Item = Reg> + '_ {
        let s = self.sdefs.iter().map(|&r| Reg::S(r));
        s.chain(self.vdefs.iter().map(|&r| Reg::V(r)))
    }

    /// Check that the operand lists have the shape the opcode requires.
    pub fn validate(&self) -> Result<(), IsaError> {
        let sig = |sd: usize, vd: usize, su: usize, vu: usize, mem: bool| -> Result<(), IsaError> {
            let ok = self.sdefs.len() == sd
                && self.vdefs.len() == vd
                && self.suses.len() == su
                && self.vuses.len() == vu
                && self.mem.is_some() == mem;
            if ok {
                Ok(())
            } else {
                Err(IsaError::OperandMismatch {
                    opcode: self.opcode,
                    detail: format!(
                        "expected {sd} sdefs/{vd} vdefs/{su} suses/{vu} vuses/mem={mem}, got \
                         {}/{}/{}/{}/mem={}",
                        self.sdefs.len(),
                        self.vdefs.len(),
                        self.suses.len(),
                        self.vuses.len(),
                        self.mem.is_some()
                    ),
                })
            }
        };
        match self.opcode {
            Opcode::Sldh | Opcode::Sldw => sig(1, 0, 0, 0, true),
            Opcode::Sfexts32l | Opcode::Sbale2h => sig(1, 0, 1, 0, false),
            Opcode::Svbcast => sig(0, 1, 1, 0, false),
            Opcode::Svbcast2 => sig(0, 2, 2, 0, false),
            Opcode::Sbr => sig(0, 0, 0, 0, false),
            Opcode::Vldw => sig(0, 1, 0, 0, true),
            Opcode::Vlddw => sig(0, 2, 0, 0, true),
            Opcode::Vstw => sig(0, 0, 0, 1, true),
            Opcode::Vstdw => sig(0, 0, 0, 2, true),
            Opcode::Vfmulas32 => sig(0, 1, 0, 3, false),
            Opcode::Vfadds32 => sig(0, 1, 0, 2, false),
            Opcode::Vclr => sig(0, 1, 0, 0, false),
            Opcode::Vmov => sig(0, 1, 0, 1, false),
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                f.write_str(" ")
            } else {
                f.write_str(", ")
            }
        };
        // Render order: defs, then uses (skipping the implicit accumulator
        // re-read of VFMULAS32), then memory operand.
        for d in &self.sdefs {
            sep(f)?;
            write!(f, "{d}")?;
        }
        for d in &self.vdefs {
            sep(f)?;
            write!(f, "{d}")?;
        }
        let skip_first_vuse = self.opcode == Opcode::Vfmulas32;
        for (n, u) in self.suses.iter().enumerate() {
            // SVBCAST2 interleaves Vd1,Rs1,Vd2,Rs2 in hardware syntax but we
            // render defs-then-uses uniformly; the parser understands both.
            let _ = n;
            sep(f)?;
            write!(f, "{u}")?;
        }
        for (n, u) in self.vuses.iter().enumerate() {
            if skip_first_vuse && n == 0 {
                continue;
            }
            sep(f)?;
            write!(f, "{u}")?;
        }
        if let Some(mem) = &self.mem {
            sep(f)?;
            write!(f, "{mem}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufId, MemSpace};

    fn sm(off: u64) -> AddrExpr {
        AddrExpr::flat(MemSpace::Sm, BufId::A, off)
    }
    fn am(off: u64) -> AddrExpr {
        AddrExpr::flat(MemSpace::Am, BufId::B, off)
    }

    #[test]
    fn constructors_produce_valid_instructions() {
        let r0 = SReg::new(0).unwrap();
        let r1 = SReg::new(1).unwrap();
        let v0 = VReg::new(0).unwrap();
        let v2 = VReg::new(2).unwrap();
        let v4 = VReg::new(4).unwrap();
        let all = vec![
            Instruction::sldh(r0, sm(0)),
            Instruction::sldw(r0, sm(8)),
            Instruction::sfexts32l(r1, r0),
            Instruction::sbale2h(r1, r0),
            Instruction::svbcast(v0, r0),
            Instruction::svbcast2(v0, r0, v2, r1),
            Instruction::sbr(),
            Instruction::vldw(v0, am(0)),
            Instruction::vlddw(v0, am(0)).unwrap(),
            Instruction::vstw(v0, am(0)),
            Instruction::vstdw(v0, am(0)).unwrap(),
            Instruction::vfmulas32(v4, v0, v2),
            Instruction::vfadds32(v4, v0, v2),
            Instruction::vclr(v0),
            Instruction::vmov(v0, v2),
        ];
        for i in &all {
            i.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn vlddw_defines_a_register_pair() {
        let i = Instruction::vlddw(VReg::new(6).unwrap(), am(0)).unwrap();
        assert_eq!(i.vdefs[..], [VReg::new(6).unwrap(), VReg::new(7).unwrap()]);
    }

    #[test]
    fn fmac_reads_its_accumulator() {
        let v = |n| VReg::new(n).unwrap();
        let i = Instruction::vfmulas32(v(1), v(2), v(3));
        assert!(i.vuses.contains(&v(1)), "accumulator must be a use");
        assert_eq!(i.vdefs[..], [v(1)]);
    }

    #[test]
    fn validate_rejects_malformed_instructions() {
        let mut i = Instruction::sbr();
        i.sdefs.push(SReg::new(0).unwrap());
        assert!(i.validate().is_err());
    }

    #[test]
    fn display_is_stable() {
        let v = |n| VReg::new(n).unwrap();
        assert_eq!(
            Instruction::vfmulas32(v(1), v(2), v(3)).to_string(),
            "VFMULAS32 V1, V2, V3"
        );
        assert_eq!(
            Instruction::sldh(SReg::new(5).unwrap(), sm(16)).to_string(),
            "SLDH R5, SM[A+16]"
        );
    }
}
