//! The ISA static verifier: a lint pass over [`ftimm_isa::Program`].
//!
//! `Bundle::push` enforces the issue rules *at construction*, and the
//! `dspsim` interpreter checks the scoreboard *at execution* — but a
//! program that was deserialized, hand-built, or mangled by a generator
//! bug can bypass the first, and `ExecMode::Compiled`/`Timing` runs never
//! hit the second.  This pass applies the same rules without executing, so it
//! can vet any kernel `kernelgen` emits (or refuses to):
//!
//! * **structure** — loop levels within [`ftimm_isa::addr::MAX_LOOP_DEPTH`],
//!   each nested loop deeper than its parent, no zero-trip loops;
//! * **issue rules** — every rule [`Bundle::check_issue`] states, each
//!   broken one reported;
//! * **hazards** — the [`Scoreboard`]'s RAW and WAW rules over the exact
//!   dynamic bundle order the interpreter executes (loop-carried
//!   included), slots in the order it applies them;
//! * **register lifetime** — no read of a register the program never
//!   defined before that point (the interpreter's zeroed register file
//!   makes this a lint only the verifier reports).
//!
//! The pass collects every violation (it does not stop at the first) so
//! fuzzer reports and CI logs show the whole damage picture.

use ftimm_isa::{
    Bundle, Hazard, IsaError, LatencyTable, Program, Scoreboard, Section, Unit, MAX_SCALAR_SLOTS,
    MAX_VECTOR_SLOTS,
};
use std::convert::Infallible;
use std::fmt;

/// What a [`Violation`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// A loop section nests deeper than address expressions can index.
    LoopTooDeep {
        /// The offending level.
        level: u8,
    },
    /// A loop nested inside another loop at a level no deeper than the
    /// enclosing one's (the two would share one index slot).
    LoopNotNested {
        /// The inner loop's level.
        level: u8,
        /// The enclosing loop's level.
        outer: u8,
    },
    /// A counted loop with zero trips (legal nowhere in the generator's
    /// output; `Program::cycles` would silently drop the body).
    ZeroTripLoop,
    /// An instruction whose operand lists don't match its opcode.
    MalformedInstruction {
        /// The ISA-level diagnostic.
        detail: String,
    },
    /// An instruction issued on a unit outside its opcode's class.
    WrongUnit {
        /// The mnemonic.
        mnemonic: &'static str,
    },
    /// Two instructions on the same unit in one cycle.
    DuplicateUnit,
    /// More scalar-side execution slots than the machine has.
    ScalarOverflow {
        /// Scalar-side instructions found (excluding `SBR`).
        got: usize,
    },
    /// More vector-side slots than the machine has.
    VectorOverflow {
        /// Vector-side instructions found.
        got: usize,
    },
    /// A register read before its producing write's latency elapsed.
    ReadAfterWrite {
        /// The register, as displayed (`R3` / `V17`).
        register: String,
        /// Cycle the write's result becomes readable.
        ready_cycle: u64,
    },
    /// A register whose two in-flight writes would retire out of order.
    WriteAfterWrite {
        /// The register, as displayed.
        register: String,
        /// Retire cycle of the earlier (still unretired) write.
        prior_retire_cycle: u64,
    },
    /// A register read that no prior instruction ever defined.
    UndefinedRead {
        /// The register, as displayed.
        register: String,
    },
}

impl ViolationKind {
    /// The violation a broken issue rule is.
    fn issue(e: IsaError) -> Self {
        match e {
            IsaError::WrongUnit { opcode, .. } => ViolationKind::WrongUnit {
                mnemonic: opcode.mnemonic(),
            },
            IsaError::UnitConflict { .. } => ViolationKind::DuplicateUnit,
            IsaError::SlotOverflow {
                scalar: true, got, ..
            } => ViolationKind::ScalarOverflow { got },
            IsaError::SlotOverflow { got, .. } => ViolationKind::VectorOverflow { got },
            e => ViolationKind::MalformedInstruction {
                detail: e.to_string(),
            },
        }
    }

    /// The violation a scoreboard hazard is.
    fn hazard(h: Hazard) -> Self {
        match h {
            Hazard::Undefined(reg) => ViolationKind::UndefinedRead {
                register: reg.to_string(),
            },
            Hazard::Raw { reg, ready } => ViolationKind::ReadAfterWrite {
                register: reg.to_string(),
                ready_cycle: ready,
            },
            Hazard::Waw { reg, prior_retire } => ViolationKind::WriteAfterWrite {
                register: reg.to_string(),
                prior_retire_cycle: prior_retire,
            },
        }
    }
}

/// One rule violation, located by dynamic cycle and (where meaningful)
/// unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Dynamic cycle (bundle index with loops expanded); `None` for
    /// the structure checks.
    pub cycle: Option<u64>,
    /// The unit involved, when the rule is per-slot.
    pub unit: Option<Unit>,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cycle {
            Some(c) => write!(f, "cycle {c}")?,
            None => write!(f, "program")?,
        }
        if let Some(u) = self.unit {
            write!(f, " [{u}]")?;
        }
        write!(f, ": ")?;
        match &self.kind {
            ViolationKind::LoopTooDeep { level } => write!(f, "loop level {level} too deep"),
            ViolationKind::LoopNotNested { level, outer } => {
                write!(f, "loop level {level} nested in level {outer}")
            }
            ViolationKind::ZeroTripLoop => write!(f, "zero-trip loop"),
            ViolationKind::MalformedInstruction { detail } => {
                write!(f, "malformed instruction: {detail}")
            }
            ViolationKind::WrongUnit { mnemonic } => {
                write!(f, "{mnemonic} cannot issue on this unit")
            }
            ViolationKind::DuplicateUnit => write!(f, "two instructions on one unit"),
            ViolationKind::ScalarOverflow { got } => {
                write!(f, "{got} scalar slots (max {MAX_SCALAR_SLOTS})")
            }
            ViolationKind::VectorOverflow { got } => {
                write!(f, "{got} vector slots (max {MAX_VECTOR_SLOTS})")
            }
            ViolationKind::ReadAfterWrite {
                register,
                ready_cycle,
            } => write!(f, "RAW hazard on {register} (ready at cycle {ready_cycle})"),
            ViolationKind::WriteAfterWrite {
                register,
                prior_retire_cycle,
            } => write!(
                f,
                "WAW hazard on {register} (prior write retires at cycle {prior_retire_cycle})"
            ),
            ViolationKind::UndefinedRead { register } => {
                write!(f, "read of never-written {register}")
            }
        }
    }
}

/// Outcome of one verification pass.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Program name (for logs).
    pub name: String,
    /// Dynamic cycles walked.
    pub cycles: u64,
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether the program passed every check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "{}: clean ({} cycles)", self.name, self.cycles);
        }
        writeln!(
            f,
            "{}: {} violation(s) in {} cycles",
            self.name,
            self.violations.len(),
            self.cycles
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Caps how many violations a single pass accumulates: a corrupt loop
/// body repeats its damage every trip and would otherwise flood memory.
const MAX_VIOLATIONS: usize = 64;

/// Record a violation unless the report is full.
fn report(
    violations: &mut Vec<Violation>,
    cycle: Option<u64>,
    unit: Option<Unit>,
    kind: ViolationKind,
) {
    if violations.len() < MAX_VIOLATIONS {
        violations.push(Violation { cycle, unit, kind });
    }
}

fn check_structure(sections: &[Section], outer: Option<u8>, violations: &mut Vec<Violation>) {
    for s in sections {
        if let Section::Loop { level, trips, body } = s {
            if (level.0 as usize) >= ftimm_isa::addr::MAX_LOOP_DEPTH {
                let kind = ViolationKind::LoopTooDeep { level: level.0 };
                report(violations, None, None, kind);
            }
            if let Some(outer) = outer.filter(|&o| o >= level.0) {
                let kind = ViolationKind::LoopNotNested {
                    level: level.0,
                    outer,
                };
                report(violations, None, None, kind);
            }
            if *trips == 0 {
                report(violations, None, None, ViolationKind::ZeroTripLoop);
            }
            check_structure(body, Some(level.0), violations);
        }
    }
}

/// Run the full lint pass over a program.
pub fn verify_program(program: &Program, lat: &LatencyTable) -> VerifyReport {
    let mut violations = Vec::new();
    check_structure(&program.sections, None, &mut violations);

    // Pass 1 — per-bundle issue rules, each *static* bundle once (a loop
    // body's rule violations don't depend on the trip).
    let mut cycle = 0;
    for_each_static_bundle(&program.sections, &mut |b| {
        b.check_issue(|unit, e| {
            report(&mut violations, Some(cycle), unit, ViolationKind::issue(e));
        });
        cycle += 1;
    });

    // Pass 2 — hazards over the dynamic order (loop-carried effects need
    // the real trip sequence).  Skipped when the bundle structure itself
    // is broken: hazard states of malformed slots are meaningless.
    let static_ok = violations.is_empty();
    let mut board = Scoreboard::new(*lat);
    let mut cycle = 0;
    program
        .visit::<Infallible>(&mut |_idx, bundle| {
            board.step(cycle, bundle, |unit, inst, board| {
                for h in board.hazards(cycle, inst).filter(|_| static_ok) {
                    let kind = ViolationKind::hazard(h);
                    report(&mut violations, Some(cycle), Some(unit), kind);
                }
                Ok::<(), Infallible>(())
            })?;
            cycle += 1;
            Ok(())
        })
        .unwrap_or_else(|e| match e {});

    VerifyReport {
        name: program.name.clone(),
        cycles: cycle,
        violations,
    }
}

fn for_each_static_bundle(sections: &[Section], f: &mut impl FnMut(&Bundle)) {
    for s in sections {
        match s {
            Section::Straight(bundles) => bundles.iter().for_each(&mut *f),
            Section::Loop { body, .. } => for_each_static_bundle(body, f),
        }
    }
}

/// Verify a generated kernel against the default latency table, as the
/// fuzzer does for every kernel a plan pulls.
pub fn verify_kernel(kernel: &kernelgen::MicroKernel) -> VerifyReport {
    verify_program(kernel.program(), &LatencyTable::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::HwConfig;
    use ftimm_isa::{AddrExpr, BufId, Instruction, LoopLevel, MemSpace, SReg, VReg};
    use kernelgen::{KernelSpec, MicroKernel};

    fn v(n: u16) -> VReg {
        VReg::new(n).unwrap()
    }
    fn r(n: u16) -> SReg {
        SReg::new(n).unwrap()
    }

    fn generated(m: usize, k: usize, n: usize) -> MicroKernel {
        MicroKernel::generate(KernelSpec::new(m, k, n).unwrap(), &HwConfig::default()).unwrap()
    }

    #[test]
    fn generated_kernels_are_clean() {
        for (m, k, n) in [
            (6, 512, 96),
            (6, 512, 32),
            (14, 64, 96),
            (3, 40, 48),
            (1, 5, 1),
        ] {
            let rep = verify_kernel(&generated(m, k, n));
            assert!(rep.is_clean(), "{rep}");
        }
    }

    #[test]
    fn corrupted_bundle_is_rejected() {
        // Take a copy of a real kernel's program and smuggle a
        // duplicate-unit FMAC plus a wrong-unit instruction into its first
        // straight section.
        let mut program = generated(6, 64, 96).program().clone();
        let extra = Instruction::vfmulas32(v(0), v(1), v(2));
        let wrong = Instruction::sldh(r(0), AddrExpr::flat(MemSpace::Sm, BufId::A, 0));
        // The generator wraps everything in loops; find the first straight
        // run of bundles wherever it nests.
        fn first_straight(sections: &mut [ftimm_isa::Section]) -> Option<&mut Bundle> {
            for s in sections {
                match s {
                    ftimm_isa::Section::Straight(bundles) if !bundles.is_empty() => {
                        return Some(&mut bundles[0]);
                    }
                    ftimm_isa::Section::Loop { body, .. } => {
                        if let Some(b) = first_straight(body) {
                            return Some(b);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        let bundle = first_straight(&mut program.sections).unwrap();
        bundle.push_unchecked(Unit::VectorFmac1, extra.clone());
        bundle.push_unchecked(Unit::VectorFmac1, extra);
        bundle.push_unchecked(Unit::VectorFmac2, wrong);
        let rep = verify_program(&program, &LatencyTable::default());
        assert!(!rep.is_clean());
        assert!(rep
            .violations
            .iter()
            .any(|x| matches!(x.kind, ViolationKind::DuplicateUnit)));
        assert!(rep
            .violations
            .iter()
            .any(|x| matches!(x.kind, ViolationKind::WrongUnit { .. })));
    }

    #[test]
    fn raw_hazard_is_detected_with_cycle_and_unit() {
        let lat = LatencyTable::default();
        let mut p = Program::new("raw");
        let mut b0 = Bundle::new();
        b0.push_auto(Instruction::vldw(
            v(0),
            AddrExpr::flat(MemSpace::Am, BufId::B, 0),
        ))
        .unwrap();
        let mut b1 = Bundle::new();
        b1.push_auto(Instruction::vmov(v(1), v(0))).unwrap();
        p.sections.push(Section::Straight(vec![b0, b1]));
        let rep = verify_program(&p, &lat);
        let raw = rep
            .violations
            .iter()
            .find(|x| matches!(x.kind, ViolationKind::ReadAfterWrite { .. }))
            .expect("RAW expected");
        assert_eq!(raw.cycle, Some(1));
        assert_eq!(raw.unit, Some(Unit::VectorMisc));
        match &raw.kind {
            ViolationKind::ReadAfterWrite { ready_cycle, .. } => {
                assert_eq!(*ready_cycle, lat.t_vldw as u64);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn loop_carried_raw_is_detected() {
        // A 1-cycle loop body that reads what it wrote the previous trip,
        // faster than the FMA latency allows.
        let mut body = Bundle::new();
        body.push_auto(Instruction::vfadds32(v(0), v(1), v(2)))
            .unwrap();
        let mut init = Bundle::new();
        init.push_auto(Instruction::vclr(v(1))).unwrap();
        let mut init2 = Bundle::new();
        init2.push_auto(Instruction::vclr(v(2))).unwrap();
        let mut p = Program::new("carried");
        p.sections.push(Section::Straight(vec![init, init2]));
        // Pad so the VCLRs have retired before the loop starts.
        p.sections.push(Section::Straight(vec![Bundle::new(); 4]));
        let mut swap = Bundle::new();
        swap.push_auto(Instruction::vfadds32(v(1), v(0), v(2)))
            .unwrap();
        p.sections.push(Section::Loop {
            level: LoopLevel(0),
            trips: 3,
            body: vec![Section::Straight(vec![body, swap])],
        });
        let rep = verify_program(&p, &LatencyTable::default());
        assert!(
            rep.violations
                .iter()
                .any(|x| matches!(x.kind, ViolationKind::ReadAfterWrite { .. })),
            "{rep}"
        );
    }

    #[test]
    fn undefined_read_and_structure_checks_fire() {
        let mut p = Program::new("undef");
        let mut b = Bundle::new();
        b.push_auto(Instruction::vmov(v(3), v(9))).unwrap();
        p.sections.push(Section::Loop {
            level: LoopLevel(7),
            trips: 0,
            body: vec![Section::Straight(vec![b])],
        });
        let rep = verify_program(&p, &LatencyTable::default());
        assert!(rep
            .violations
            .iter()
            .any(|x| matches!(x.kind, ViolationKind::LoopTooDeep { level: 7 })));
        assert!(rep
            .violations
            .iter()
            .any(|x| matches!(x.kind, ViolationKind::ZeroTripLoop)));
        // trips = 0 means the body never executes dynamically, so the
        // undefined read is only caught via the static walk… which is
        // hazard-free by design.  Re-check with one trip.
        let mut p2 = Program::new("undef2");
        let mut b2 = Bundle::new();
        b2.push_auto(Instruction::vmov(v(3), v(9))).unwrap();
        p2.sections.push(Section::Straight(vec![b2]));
        let rep2 = verify_program(&p2, &LatencyTable::default());
        assert!(rep2
            .violations
            .iter()
            .any(|x| matches!(x.kind, ViolationKind::UndefinedRead { .. })));
    }

    /// An inner loop at a level no deeper than its parent's is a
    /// structure violation in the report, not a panic in the dynamic walk.
    #[test]
    fn a_loop_not_nested_deeper_is_reported() {
        let inner = Section::Loop {
            level: LoopLevel(0),
            trips: 1,
            body: vec![Section::Straight(vec![Bundle::new()])],
        };
        let mut p = Program::new("flat");
        p.sections.push(Section::Loop {
            level: LoopLevel(1),
            trips: 2,
            body: vec![inner],
        });
        let rep = verify_program(&p, &LatencyTable::default());
        assert_eq!(rep.cycles, 2);
        assert!(
            rep.violations
                .iter()
                .any(|x| matches!(x.kind, ViolationKind::LoopNotNested { level: 0, outer: 1 })),
            "{rep}"
        );
    }

    #[test]
    fn waw_out_of_order_retire_is_detected() {
        // VLDW V0 (latency 5) followed next cycle by VCLR V0 (latency 1):
        // the clear would retire before the load lands.
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
        let rep = verify_program(&p, &LatencyTable::default());
        assert!(
            rep.violations
                .iter()
                .any(|x| matches!(x.kind, ViolationKind::WriteAfterWrite { .. })),
            "{rep}"
        );
    }

    #[test]
    fn display_formats_are_readable() {
        let clean = verify_kernel(&generated(6, 64, 64));
        assert!(clean.to_string().contains("clean"));
        let mut p = Program::new("bad");
        let mut b = Bundle::new();
        b.push_auto(Instruction::vmov(v(0), v(1))).unwrap();
        p.sections.push(Section::Straight(vec![b]));
        let rep = verify_program(&p, &LatencyTable::default());
        assert!(rep.to_string().contains("never-written"));
    }
}
