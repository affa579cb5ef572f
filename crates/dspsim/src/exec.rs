//! The VLIW interpreter: executes generated kernel programs bit-exactly
//! against a core's register files and scratchpads, checking every
//! instruction against the [`Scoreboard`] so a schedule that breaks a
//! latency is an error, not a wrong answer.

use crate::{Core, Machine, SimError};
use ftimm_isa::{
    BufId, Hazard, Instruction, LatencyTable, MemSpace, Opcode, Program, Scoreboard, VECTOR_LANES,
};

/// Runtime placement of the three kernel buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelBindings {
    /// Byte offset of `A_s` within SM.
    pub a_off: u64,
    /// Byte offset of `B_a` within AM.
    pub b_off: u64,
    /// Byte offset of `C_a` within AM.
    pub c_off: u64,
}

impl KernelBindings {
    fn base(&self, buf: BufId) -> u64 {
        match buf {
            BufId::A => self.a_off,
            BufId::B => self.b_off,
            BufId::C => self.c_off,
        }
    }
}

/// Outcome of interpreting one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Cycles executed (= dynamic bundle count).
    pub cycles: u64,
    /// Dynamic instruction count.
    pub instructions: u64,
    /// f32 FMA lane operations performed.
    pub fma_lanes: u64,
}

struct ExecState<'a> {
    core: &'a mut Core,
    bind: KernelBindings,
    instructions: u64,
    fma_lanes: u64,
}

impl ExecState<'_> {
    fn addr(&self, inst: &Instruction, indices: &[u64]) -> Result<(MemSpace, u64), SimError> {
        let mem = inst.mem.ok_or_else(|| SimError::BadBinding {
            detail: format!("{} has no memory operand", inst.opcode),
        })?;
        Ok((mem.space, self.bind.base(mem.buf) + mem.resolve(indices)))
    }

    fn execute(&mut self, inst: &Instruction, indices: &[u64]) -> Result<(), SimError> {
        self.instructions += 1;
        match inst.opcode {
            Opcode::Sldh => {
                let (space, addr) = self.addr(inst, indices)?;
                let v = self.region(space).read_u32(addr)?;
                self.core.sregs[inst.sdefs[0].index()] = v;
            }
            Opcode::Sldw => {
                let (space, addr) = self.addr(inst, indices)?;
                let v = self.region(space).read_u64(addr)?;
                self.core.sregs[inst.sdefs[0].index()] = v;
            }
            Opcode::Sfexts32l => {
                let v = self.core.sregs[inst.suses[0].index()] & 0xFFFF_FFFF;
                self.core.sregs[inst.sdefs[0].index()] = v;
            }
            Opcode::Sbale2h => {
                let v = self.core.sregs[inst.suses[0].index()] >> 32;
                self.core.sregs[inst.sdefs[0].index()] = v;
            }
            Opcode::Svbcast => {
                let s = f32::from_bits(self.core.sregs[inst.suses[0].index()] as u32);
                self.core.vregs[inst.vdefs[0].index()] = [s; VECTOR_LANES];
            }
            Opcode::Svbcast2 => {
                let s1 = f32::from_bits(self.core.sregs[inst.suses[0].index()] as u32);
                let s2 = f32::from_bits(self.core.sregs[inst.suses[1].index()] as u32);
                self.core.vregs[inst.vdefs[0].index()] = [s1; VECTOR_LANES];
                self.core.vregs[inst.vdefs[1].index()] = [s2; VECTOR_LANES];
            }
            Opcode::Sbr => {}
            Opcode::Vldw => {
                let (space, addr) = self.addr(inst, indices)?;
                let mut lanes = [0.0f32; VECTOR_LANES];
                self.region(space).read_f32_slice(addr, &mut lanes)?;
                self.core.vregs[inst.vdefs[0].index()] = lanes;
            }
            Opcode::Vlddw => {
                let (space, addr) = self.addr(inst, indices)?;
                let mut lanes = [0.0f32; 2 * VECTOR_LANES];
                self.region(space).read_f32_slice(addr, &mut lanes)?;
                let (lo, hi) = lanes.split_at(VECTOR_LANES);
                self.core.vregs[inst.vdefs[0].index()].copy_from_slice(lo);
                self.core.vregs[inst.vdefs[1].index()].copy_from_slice(hi);
            }
            Opcode::Vstw => {
                let (space, addr) = self.addr(inst, indices)?;
                let lanes = self.core.vregs[inst.vuses[0].index()];
                self.region(space).write_f32_slice(addr, &lanes)?;
            }
            Opcode::Vstdw => {
                let (space, addr) = self.addr(inst, indices)?;
                let lo = self.core.vregs[inst.vuses[0].index()];
                let hi = self.core.vregs[inst.vuses[1].index()];
                self.region(space).write_f32_slice(addr, &lo)?;
                self.region(space)
                    .write_f32_slice(addr + (VECTOR_LANES * 4) as u64, &hi)?;
            }
            Opcode::Vfmulas32 => {
                let acc = inst.vdefs[0].index();
                let a = self.core.vregs[inst.vuses[1].index()];
                let b = self.core.vregs[inst.vuses[2].index()];
                let c = &mut self.core.vregs[acc];
                for lane in 0..VECTOR_LANES {
                    c[lane] = a[lane].mul_add(b[lane], c[lane]);
                }
                self.fma_lanes += VECTOR_LANES as u64;
            }
            Opcode::Vfadds32 => {
                let a = self.core.vregs[inst.vuses[0].index()];
                let b = self.core.vregs[inst.vuses[1].index()];
                let d = &mut self.core.vregs[inst.vdefs[0].index()];
                for lane in 0..VECTOR_LANES {
                    d[lane] = a[lane] + b[lane];
                }
            }
            Opcode::Vclr => {
                self.core.vregs[inst.vdefs[0].index()] = [0.0; VECTOR_LANES];
            }
            Opcode::Vmov => {
                self.core.vregs[inst.vdefs[0].index()] = self.core.vregs[inst.vuses[0].index()];
            }
        }
        Ok(())
    }

    fn region(&mut self, space: MemSpace) -> &mut crate::MemRegion {
        match space {
            MemSpace::Sm => &mut self.core.sm,
            MemSpace::Am => &mut self.core.am,
        }
    }
}

/// Interpret `program` on `core` with the given buffer bindings.
///
/// Each instruction is checked against the scoreboard before it executes:
/// a RAW or WAW hazard means the kernel generator emitted an invalid
/// schedule and is a [`SimError::Hazard`].  Reads of never-written
/// registers see the zeroed register file and are not errors here.
pub fn run_program(
    core: &mut Core,
    program: &Program,
    bind: KernelBindings,
    lat: &LatencyTable,
) -> Result<ExecReport, SimError> {
    // The register file exists from a core's first program on.
    core.vregs_mut();
    let mut st = ExecState {
        core,
        bind,
        instructions: 0,
        fma_lanes: 0,
    };
    let mut board = Scoreboard::new(*lat);
    let mut cycle = 0;
    program.visit::<SimError>(&mut |indices, bundle| {
        board.step(cycle, bundle, |_, inst, board| {
            if let Some(hazard) = board.hazards(cycle, inst).find(Hazard::is_timing) {
                return Err(SimError::Hazard {
                    hazard,
                    cycle,
                    mnemonic: inst.opcode.mnemonic(),
                });
            }
            st.execute(inst, indices)
        })?;
        cycle += 1;
        Ok(())
    })?;
    Ok(ExecReport {
        cycles: cycle,
        instructions: st.instructions,
        fma_lanes: st.fma_lanes,
    })
}

impl Machine {
    /// Interpret a kernel on a core: executes the program functionally,
    /// advances the core's compute clock by the executed cycle count and
    /// accounts statistics.
    pub fn run_kernel(
        &mut self,
        id: usize,
        program: &Program,
        bind: KernelBindings,
    ) -> Result<ExecReport, SimError> {
        self.check_core_alive(id)?;
        let lat = self.cfg.latencies;
        let cycle_s = self.cfg.cycle_s();
        let phys = self.physical_core(id);
        let core = &mut self.cluster.cores[phys];
        let report = run_program(core, program, bind, &lat)?;
        core.stats.instructions += report.instructions;
        core.stats.flops += 2 * report.fma_lanes;
        core.stats.kernel_calls += 1;
        core.stats.compute_cycles += report.cycles;
        core.t_compute += report.cycles as f64 * cycle_s;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, HwConfig};
    use ftimm_isa::{AddrExpr, Bundle, Hazard, LoopLevel, Reg, SReg, Section, VReg};

    fn v(n: u16) -> VReg {
        VReg::new(n).unwrap()
    }
    fn r(n: u16) -> SReg {
        SReg::new(n).unwrap()
    }
    const BIND: KernelBindings = KernelBindings {
        a_off: 0,
        b_off: 0,
        c_off: 4096,
    };

    /// A tiny hand-written kernel: C[0..32] += A[0] * B[0..32], done as
    /// load → extend → broadcast → vload → fmac → store, one instruction
    /// per bundle (latency-safe but slow).
    fn scalar_times_vector_program() -> Program {
        let a = AddrExpr::flat(MemSpace::Sm, BufId::A, 0);
        let b = AddrExpr::flat(MemSpace::Am, BufId::B, 0);
        let c = AddrExpr::flat(MemSpace::Am, BufId::C, 0);
        let lat = LatencyTable::default();
        let mut bundles = Vec::new();
        let mut push1 = |inst: Instruction, gap: u32| {
            let mut bu = Bundle::new();
            bu.push_auto(inst).unwrap();
            bundles.push(bu);
            for _ in 1..gap {
                bundles.push(Bundle::new());
            }
        };
        push1(Instruction::sldh(r(0), a), lat.t_sld);
        push1(Instruction::sfexts32l(r(1), r(0)), lat.t_sext);
        push1(Instruction::svbcast(v(0), r(1)), lat.t_bcast);
        push1(Instruction::vldw(v(1), b), lat.t_vldw);
        push1(Instruction::vldw(v(2), c), lat.t_vldw);
        push1(Instruction::vfmulas32(v(2), v(0), v(1)), lat.t_fma);
        push1(Instruction::vstw(v(2), c), 1);
        let mut p = Program::new("axpy32");
        p.sections.push(Section::Straight(bundles));
        p
    }

    fn machine_with_data() -> Machine {
        let mut m = Machine::new(HwConfig::default(), ExecMode::Interpret);
        m.core_mut(0).sm.write_f32(0, 2.0).unwrap();
        for i in 0..32 {
            m.core_mut(0).am.write_f32(i * 4, i as f32).unwrap();
            m.core_mut(0).am.write_f32(4096 + i * 4, 100.0).unwrap();
        }
        m
    }

    #[test]
    fn interpreter_computes_axpy() {
        let mut m = machine_with_data();
        let p = scalar_times_vector_program();
        let rep = m.run_kernel(0, &p, BIND).unwrap();
        assert_eq!(rep.fma_lanes, 32);
        assert!(rep.cycles >= 7);
        for i in 0..32u64 {
            let got = m.core_mut(0).am.read_f32(4096 + i * 4).unwrap();
            assert_eq!(got, 100.0 + 2.0 * i as f32, "lane {i}");
        }
        // Clock advanced by exactly the executed cycles.
        let expect = rep.cycles as f64 * m.cfg.cycle_s();
        assert!((m.core_time(0) - expect).abs() < 1e-18);
    }

    #[test]
    fn hazard_checker_catches_latency_violation() {
        // Broadcast immediately consumed by an FMAC in the next cycle:
        // t_bcast = 2 means the read is one cycle early.
        let mut bundles = Vec::new();
        let mut b0 = Bundle::new();
        b0.push_auto(Instruction::svbcast(v(0), r(0))).unwrap();
        bundles.push(b0);
        let mut b1 = Bundle::new();
        b1.push_auto(Instruction::vfmulas32(v(1), v(0), v(2)))
            .unwrap();
        bundles.push(b1);
        let mut p = Program::new("hazard");
        p.sections.push(Section::Straight(bundles));
        let err = machine_with_data().run_kernel(0, &p, BIND).unwrap_err();
        let raw = Hazard::Raw {
            reg: Reg::V(v(0)),
            ready: 2,
        };
        assert_eq!(
            err,
            SimError::Hazard {
                hazard: raw,
                cycle: 1,
                mnemonic: "VFMULAS32"
            }
        );
    }

    #[test]
    fn hazard_checker_catches_out_of_order_retirement() {
        // VLDW V0 (latency 5) then VCLR V0 (latency 1) a cycle later: the
        // clear would land before the load.
        let mut b0 = Bundle::new();
        b0.push_auto(Instruction::vldw(
            v(0),
            AddrExpr::flat(MemSpace::Am, BufId::B, 0),
        ))
        .unwrap();
        let mut b1 = Bundle::new();
        b1.push_auto(Instruction::vclr(v(0))).unwrap();
        let mut p = Program::new("waw");
        p.sections.push(Section::Straight(vec![b0, b1]));
        let err = machine_with_data().run_kernel(0, &p, BIND).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Hazard {
                    hazard: Hazard::Waw { .. },
                    cycle: 1,
                    ..
                }
            ),
            "got {err}"
        );
        // Reading a never-written register is not an interpreter error.
        let mut b = Bundle::new();
        b.push_auto(Instruction::vmov(v(1), v(9))).unwrap();
        let mut p = Program::new("undefined");
        p.sections.push(Section::Straight(vec![b]));
        machine_with_data().run_kernel(0, &p, BIND).unwrap();
    }

    #[test]
    fn loops_advance_addresses_via_indices() {
        // for i in 0..4 { C[i*128..] += broadcast(A[i*4]) * B[i*128..] }
        let a = AddrExpr::flat(MemSpace::Sm, BufId::A, 0).with_stride(0, 4);
        let b = AddrExpr::flat(MemSpace::Am, BufId::B, 0).with_stride(0, 128);
        let c = AddrExpr::flat(MemSpace::Am, BufId::C, 0).with_stride(0, 128);
        let lat = LatencyTable::default();
        let mut bundles = Vec::new();
        let mut push1 = |inst: Instruction, gap: u32| {
            let mut bu = Bundle::new();
            bu.push_auto(inst).unwrap();
            bundles.push(bu);
            for _ in 1..gap {
                bundles.push(Bundle::new());
            }
        };
        push1(Instruction::sldh(r(0), a), lat.t_sld);
        push1(Instruction::sfexts32l(r(1), r(0)), lat.t_sext);
        push1(Instruction::svbcast(v(0), r(1)), lat.t_bcast);
        push1(Instruction::vldw(v(1), b), lat.t_vldw);
        push1(Instruction::vldw(v(2), c), lat.t_vldw);
        push1(Instruction::vfmulas32(v(2), v(0), v(1)), lat.t_fma);
        push1(Instruction::vstw(v(2), c), 1);
        let mut p = Program::new("looped");
        p.sections.push(Section::Loop {
            level: LoopLevel(0),
            trips: 4,
            body: vec![Section::Straight(bundles)],
        });

        let mut m = Machine::new(HwConfig::default(), ExecMode::Interpret);
        for i in 0..4u64 {
            m.core_mut(0).sm.write_f32(i * 4, (i + 1) as f32).unwrap();
            for lane in 0..32u64 {
                m.core_mut(0).am.write_f32(i * 128 + lane * 4, 1.0).unwrap();
            }
        }
        let rep = m.run_kernel(0, &p, BIND).unwrap();
        assert_eq!(rep.fma_lanes, 4 * 32);
        for i in 0..4u64 {
            let got = m.core_mut(0).am.read_f32(4096 + i * 128).unwrap();
            assert_eq!(got, (i + 1) as f32, "block {i}");
        }
    }

    #[test]
    fn oob_kernel_access_is_reported() {
        let mut p = Program::new("oob");
        let mut bu = Bundle::new();
        bu.push_auto(Instruction::vldw(
            v(0),
            AddrExpr::flat(MemSpace::Am, BufId::B, 800 * 1024),
        ))
        .unwrap();
        p.sections.push(Section::Straight(vec![bu]));
        let mut m = machine_with_data();
        let err = m.run_kernel(0, &p, BIND).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn packed_load_and_high_extract() {
        let mut m = machine_with_data();
        m.core_mut(0).sm.write_f32(0, 1.25).unwrap();
        m.core_mut(0).sm.write_f32(4, -8.0).unwrap();
        let a = AddrExpr::flat(MemSpace::Sm, BufId::A, 0);
        let lat = LatencyTable::default();
        let mut bundles = Vec::new();
        let mut push1 = |inst: Instruction, gap: u32| {
            let mut bu = Bundle::new();
            bu.push_auto(inst).unwrap();
            bundles.push(bu);
            for _ in 1..gap {
                bundles.push(Bundle::new());
            }
        };
        push1(Instruction::sldw(r(0), a), lat.t_sld);
        push1(Instruction::sfexts32l(r(1), r(0)), lat.t_sext);
        push1(Instruction::sbale2h(r(2), r(0)), lat.t_sext);
        push1(Instruction::svbcast2(v(0), r(1), v(1), r(2)), lat.t_bcast);
        let mut p = Program::new("packed");
        p.sections.push(Section::Straight(bundles));
        m.run_kernel(0, &p, BIND).unwrap();
        assert_eq!(m.core(0).vregs[0][0], 1.25);
        assert_eq!(m.core(0).vregs[0][31], 1.25);
        assert_eq!(m.core(0).vregs[1][0], -8.0);
    }

    #[test]
    fn vstdw_writes_both_vectors() {
        let mut m = machine_with_data();
        m.core_mut(0).vregs_mut()[4] = [1.0; 32];
        m.core_mut(0).vregs_mut()[5] = [2.0; 32];
        let c = AddrExpr::flat(MemSpace::Am, BufId::C, 0);
        let mut p = Program::new("st2");
        let mut bu = Bundle::new();
        bu.push_auto(Instruction::vstdw(v(4), c).unwrap()).unwrap();
        p.sections.push(Section::Straight(vec![bu]));
        m.run_kernel(0, &p, BIND).unwrap();
        assert_eq!(m.core_mut(0).am.read_f32(4096).unwrap(), 1.0);
        assert_eq!(m.core_mut(0).am.read_f32(4096 + 128).unwrap(), 2.0);
    }
}
