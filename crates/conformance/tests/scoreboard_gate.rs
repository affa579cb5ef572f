//! The one scoreboard, checked from three sides: the static verifier, the
//! hazard-checked interpreter and the straight-line scheduler must agree
//! on every program.
//!
//! Inputs are seeded random programs (every opcode, small register pools
//! so hazards are dense, loops nested up to two deep, in-bounds
//! addresses) plus every kernel the committed conformance corpus's plans
//! invoke.
//!
//! * The verifier's violations hash to [`RECORDED_VERDICTS`], recorded
//!   while the verifier, the interpreter and the scheduler each kept a
//!   scoreboard of their own: same kinds, cycles, units, registers and
//!   named cycles.
//! * The interpreter raises `Hazard` in cycle `c` exactly when the
//!   verifier's first RAW/WAW violation is in `c` (undefined reads are a
//!   verifier-only lint).
//! * `LineScheduler` output verifies clean and runs without a hazard.
//! * The verifier, which jumps over a loop's trips once they repeat,
//!   reports what walking every dynamic bundle reports, also on programs
//!   whose loops carry hazards from one trip into the next.

use conformance::{case_from_json, verify_program, Rng64, VerifyReport, Violation, ViolationKind};
use dspsim::{ExecMode, HwConfig, KernelBindings, Machine, SimError};
use ftimm::{FtImm, Walk};
use ftimm_isa::{
    AddrExpr, BufId, Bundle, Hazard, Instruction, LatencyTable, LoopLevel, MemSpace, Program, SReg,
    Scoreboard, Section, VReg,
};
use kernelgen::{KernelCache, KernelSpec, LineScheduler};
use proptest::prelude::*;
use std::collections::HashSet;
use std::convert::Infallible;

/// FNV-1a of every report's name and `{cycle:?} {unit:?} {kind:?}` line
/// over [`corpus_programs`] then [`random_program`]`(0..RANDOM_PROGRAMS)`.
const RECORDED_VERDICTS: u64 = 0x87e2_bbb7_3ce0_caf5;
const RANDOM_PROGRAMS: u64 = 4000;

fn sreg(rng: &mut Rng64) -> SReg {
    SReg::new(rng.range(0, 7) as u16).unwrap()
}

/// `V0`–`V7`; paired loads and stores reach `V8`.
fn vreg(rng: &mut Rng64) -> VReg {
    VReg::new(rng.range(0, 7) as u16).unwrap()
}

/// In bounds for every binding at offset 0: below 8 KiB of SM or AM.
fn addr(rng: &mut Rng64) -> AddrExpr {
    let space = *rng.pick(&[MemSpace::Sm, MemSpace::Am]);
    let buf = *rng.pick(&[BufId::A, BufId::B, BufId::C]);
    let mut a = AddrExpr::flat(space, buf, 8 * rng.range(0, 511));
    for _ in 0..rng.range(0, 2) {
        a = a.with_stride(rng.range(0, 3) as usize, 8 * rng.range(1, 32));
    }
    a
}

fn instruction(rng: &mut Rng64) -> Instruction {
    match rng.range(0, 14) {
        0 => Instruction::sldh(sreg(rng), addr(rng)),
        1 => Instruction::sldw(sreg(rng), addr(rng)),
        2 => Instruction::sfexts32l(sreg(rng), sreg(rng)),
        3 => Instruction::sbale2h(sreg(rng), sreg(rng)),
        4 => Instruction::svbcast(vreg(rng), sreg(rng)),
        5 => Instruction::svbcast2(vreg(rng), sreg(rng), vreg(rng), sreg(rng)),
        6 => Instruction::sbr(),
        7 => Instruction::vldw(vreg(rng), addr(rng)),
        8 => Instruction::vlddw(vreg(rng), addr(rng)).unwrap(),
        9 => Instruction::vstw(vreg(rng), addr(rng)),
        10 => Instruction::vstdw(vreg(rng), addr(rng)).unwrap(),
        11 => Instruction::vfmulas32(vreg(rng), vreg(rng), vreg(rng)),
        12 => Instruction::vfadds32(vreg(rng), vreg(rng), vreg(rng)),
        13 => Instruction::vclr(vreg(rng)),
        _ => Instruction::vmov(vreg(rng), vreg(rng)),
    }
}

/// A bundle that is empty unless a draw from `1..=8` is at most `busy`.
fn bundle(rng: &mut Rng64, busy: u64) -> Bundle {
    let mut b = Bundle::new();
    if rng.range(1, 8) > busy {
        return b;
    }
    for _ in 0..rng.range(1, 5) {
        // Unit conflicts and full sides are expected; skip those draws.
        let _ = b.push_auto(instruction(rng));
    }
    b
}

fn section(rng: &mut Rng64, level: u8, busy: u64) -> Section {
    if level == 2 || rng.range(0, 2) > 0 {
        return Section::Straight((0..rng.range(1, 6)).map(|_| bundle(rng, busy)).collect());
    }
    Section::Loop {
        level: LoopLevel(level),
        trips: rng.range(1, 4),
        body: (0..rng.range(1, 2))
            .map(|_| section(rng, level + 1, busy))
            .collect(),
    }
}

/// Defines every register the generators draw from, and lets it land.
fn prologue() -> Section {
    let mut init = vec![Bundle::new(); 15];
    for n in 0..9u16 {
        let b = &mut init[n as usize];
        b.push_auto(Instruction::vclr(VReg::new(n).unwrap()))
            .unwrap();
        if n < 8 {
            let at = AddrExpr::flat(MemSpace::Sm, BufId::A, 8 * u64::from(n));
            b.push_auto(Instruction::sldw(SReg::new(n).unwrap(), at))
                .unwrap();
        }
    }
    Section::Straight(init)
}

fn random_program(case: u64) -> Program {
    let mut rng = Rng64::for_case(0x5C0_4EB0A4D, case);
    let mut p = Program::new(format!("random{case}"));
    if rng.range(0, 1) == 1 {
        p.sections.push(prologue());
    }
    let busy = rng.range(1, 7);
    p.sections
        .extend((0..rng.range(1, 4)).map(|_| section(&mut rng, 0, busy)));
    p
}

/// Every distinct kernel the plans of `tests/fixtures/conformance/*.json`
/// invoke, in fixture order.
fn corpus_programs() -> Vec<Program> {
    let dir = conformance::corpus::default_corpus_dir();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let ft = FtImm::new(HwConfig::default());
    let mut seen = HashSet::new();
    let mut programs = Vec::new();
    for path in paths {
        let case = case_from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let (m, n, k) = (case.shape.m, case.shape.n, case.shape.k);
        let cores = case.cores.clamp(1, ft.cfg().cores_per_cluster);
        let plan = ft.plan(&case.shape, case.strategy, case.cores);
        let walk = Walk::new(&plan, m, n, k, cores);
        for g in walk.groups() {
            for t in walk.tasks(&g) {
                for ks in walk.k_steps(&g, &t) {
                    for (_, ms) in walk.row_blocks(&t) {
                        if let Ok(kernel) = walk.kernel(ft.cache(), &t, ms, ks.len()) {
                            if seen.insert(kernel.spec) {
                                programs.push(kernel.program().clone());
                            }
                        }
                    }
                }
            }
        }
    }
    programs
}

fn fnv(hash: &mut u64, text: &str) {
    for b in text.bytes().chain([b'\n']) {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// The verifier's verdict: `Some` cycle of its first RAW or WAW violation
/// (`Some(None)` if it has none), or `None` when the report filled up
/// before one could be recorded.
fn first_timing_violation(report: &VerifyReport) -> Option<Option<u64>> {
    let timing = report.violations.iter().find(|v| {
        matches!(
            v.kind,
            ViolationKind::ReadAfterWrite { .. } | ViolationKind::WriteAfterWrite { .. }
        )
    });
    match timing {
        Some(v) => Some(v.cycle),
        None if report.violations.len() >= 64 => None,
        None => Some(None),
    }
}

/// The interpreter's verdict: the cycle of the hazard it raised, if any.
fn interpreted_hazard(program: &Program) -> Option<u64> {
    let mut m = Machine::new(HwConfig::default(), ExecMode::Interpret);
    let bind = KernelBindings {
        a_off: 0,
        b_off: 0,
        c_off: 0,
    };
    match m.run_kernel(0, program, bind) {
        Ok(_) => None,
        Err(SimError::Hazard { cycle, .. }) => Some(cycle),
        Err(e) => panic!("{}: {e}", program.name),
    }
}

/// The corpus kernels (all clean), then the random programs.
fn all_programs() -> (usize, Vec<Program>) {
    let mut programs = corpus_programs();
    let corpus = programs.len();
    assert!(corpus >= 10, "{corpus} corpus kernels");
    programs.extend((0..RANDOM_PROGRAMS).map(random_program));
    (corpus, programs)
}

#[test]
fn verifier_verdicts_equal_the_recorded_ones() {
    let lat = LatencyTable::default();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let (mut raw, mut waw, mut clean) = (0, 0, 0);
    let (corpus, programs) = all_programs();
    for (i, p) in programs.iter().enumerate() {
        let report = verify_program(p, &lat);
        assert!(i >= corpus || report.is_clean(), "{report}");
        fnv(&mut hash, &report.name);
        for v in &report.violations {
            fnv(
                &mut hash,
                &format!("{:?} {:?} {:?}", v.cycle, v.unit, v.kind),
            );
            raw += usize::from(matches!(v.kind, ViolationKind::ReadAfterWrite { .. }));
            waw += usize::from(matches!(v.kind, ViolationKind::WriteAfterWrite { .. }));
        }
        clean += usize::from(report.is_clean());
    }
    // Both hazard kinds and clean programs are well represented.
    assert!(
        raw > 1000 && waw > 1000 && clean > 500,
        "{raw} {waw} {clean}"
    );
    assert_eq!(hash, RECORDED_VERDICTS, "verifier verdicts moved");
}

#[test]
fn interpreter_hazards_where_the_verifier_first_finds_one() {
    let lat = LatencyTable::default();
    let mut compared = 0;
    for p in all_programs().1 {
        let Some(first) = first_timing_violation(&verify_program(&p, &lat)) else {
            continue;
        };
        assert_eq!(interpreted_hazard(&p), first, "{p}");
        compared += 1;
    }
    assert!(compared as u64 > RANDOM_PROGRAMS * 9 / 10, "{compared}");
}

/// A program whose loops carry hazards from one trip into the next: the
/// [`prologue`], then a loop of 2–64 trips whose body is sparse random
/// bundles around, half the time, an inner loop of 2–64 trips.  Each loop
/// body starts by reading or clearing a register and ends by loading it
/// (latency 5), so in trip 1 the register has long landed and from trip 2
/// on it is still in flight.
fn carried_program(case: u64) -> Program {
    fn body(rng: &mut Rng64, level: u8, busy: u64) -> Vec<Section> {
        let x = vreg(rng);
        let mut head = Bundle::new();
        let first = match rng.range(0, 2) {
            0 => Instruction::vmov(vreg(rng), x),
            1 => Instruction::vfmulas32(x, vreg(rng), vreg(rng)),
            _ => Instruction::vclr(x),
        };
        head.push_auto(first).unwrap();
        let mut tail = Bundle::new();
        tail.push_auto(Instruction::vldw(x, addr(rng))).unwrap();
        let mut before = vec![head];
        before.extend((0..rng.range(0, 2)).map(|_| bundle(rng, busy)));
        let mut after: Vec<_> = (0..rng.range(0, 2)).map(|_| bundle(rng, busy)).collect();
        after.push(tail);
        let mut sections = vec![Section::Straight(before)];
        if level == 0 && rng.range(0, 1) == 1 {
            sections.push(Section::Loop {
                level: LoopLevel(1),
                trips: rng.range(2, 64),
                body: body(rng, 1, busy),
            });
        }
        sections.push(Section::Straight(after));
        sections
    }
    let mut rng = Rng64::for_case(0xCA44_12ED, case);
    let mut p = Program::new(format!("carried{case}"));
    p.sections.push(prologue());
    let busy = rng.range(0, 2);
    let trips = rng.range(2, 64);
    let body = body(&mut rng, 0, busy);
    p.sections.push(Section::Loop {
        level: LoopLevel(0),
        trips,
        body,
    });
    p
}

/// The hazard pass as the verifier ran it before it jumped over repeating
/// trips: every dynamic bundle in [`Program::visit`] order through
/// [`Scoreboard::step`], at most 64 violations kept.  Only for programs
/// whose bundles keep every issue rule and whose loops nest, as the
/// generators here build them: pass 1 and the structure checks add
/// nothing then.
fn stepped_report(program: &Program, lat: &LatencyTable) -> VerifyReport {
    let kind = |h| match h {
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
    };
    let mut board = Scoreboard::new(*lat);
    let (mut cycle, mut violations) = (0, Vec::new());
    program
        .visit::<Infallible>(&mut |_, bundle| {
            bundle.check_issue(|_, e| panic!("{}: {e}", program.name));
            board.step(cycle, bundle, |unit, inst, board| {
                for h in board.hazards(cycle, inst) {
                    if violations.len() < 64 {
                        let (cycle, unit, kind) = (Some(cycle), Some(unit), kind(h));
                        violations.push(Violation { cycle, unit, kind });
                    }
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

const CARRIED_PROGRAMS: u64 = 1000;

#[test]
fn the_periodic_walk_reports_what_the_stepped_walk_reports() {
    let lat = LatencyTable::default();
    for p in all_programs().1 {
        assert_eq!(verify_program(&p, &lat), stepped_report(&p, &lat), "{p}");
    }
    // A program's first trip ends after its 15-bundle prologue and one
    // trip's share of its loop.
    let (mut after_trip_1, mut full) = (0, 0);
    for case in 0..CARRIED_PROGRAMS {
        let p = carried_program(case);
        let report = verify_program(&p, &lat);
        assert_eq!(report, stepped_report(&p, &lat), "{p}");
        let first_trip = match &p.sections[1] {
            Section::Loop { trips, .. } => 15 + p.sections[1].cycles() / trips,
            Section::Straight(_) => unreachable!(),
        };
        let first = report.violations.first().and_then(|v| v.cycle);
        after_trip_1 += usize::from(first.is_some_and(|c| c >= first_trip));
        full += usize::from(report.violations.len() == 64);
    }
    // Hundreds first break a rule in trip 2 or later, and hundreds fill
    // the report, after which the walk may jump without a clean trip.
    assert!(after_trip_1 > 300 && full > 300, "{after_trip_1} {full}");
}

#[test]
fn a_clean_loop_of_two_to_the_forty_trips_verifies_promptly() {
    let mut bundle = Bundle::new();
    bundle
        .push_auto(Instruction::vclr(VReg::new(0).unwrap()))
        .unwrap();
    let at = AddrExpr::flat(MemSpace::Am, BufId::B, 0).with_stride(0, 64);
    bundle
        .push_auto(Instruction::vldw(VReg::new(1).unwrap(), at))
        .unwrap();
    let flat = Section::Loop {
        level: LoopLevel(0),
        trips: 1 << 40,
        body: vec![Section::Straight(vec![bundle.clone()])],
    };
    let nested = Section::Loop {
        level: LoopLevel(0),
        trips: 1 << 20,
        body: vec![Section::Loop {
            level: LoopLevel(1),
            trips: 1 << 20,
            body: vec![Section::Straight(vec![bundle])],
        }],
    };
    for section in [flat, nested] {
        let mut p = Program::new("long");
        p.sections.push(section);
        let report = verify_program(&p, &LatencyTable::default());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.cycles, 1 << 40);
    }
}

/// Schedule `insts` after a prologue that defines every register they
/// draw from; the result as one straight section.
fn scheduled(name: &str, insts: impl IntoIterator<Item = Instruction>) -> Program {
    let mut ls = LineScheduler::fresh(&HwConfig::default());
    for n in 0..9u16 {
        ls.push(Instruction::vclr(VReg::new(n).unwrap())).unwrap();
        if n < 8 {
            let at = AddrExpr::flat(MemSpace::Sm, BufId::A, 8 * u64::from(n));
            ls.push(Instruction::sldw(SReg::new(n).unwrap(), at))
                .unwrap();
        }
    }
    for inst in insts {
        ls.push(inst).unwrap();
    }
    let mut p = Program::new(name);
    p.sections.push(Section::Straight(ls.finish()));
    p
}

#[test]
fn line_scheduler_waits_out_an_in_flight_write() {
    // A one-cycle VCLR after a five-cycle VLDW of the same register must
    // retire after it, so it cannot issue before the load lands.
    let v0 = VReg::new(0).unwrap();
    let at = AddrExpr::flat(MemSpace::Am, BufId::B, 0);
    let mut ls = LineScheduler::fresh(&HwConfig::default());
    ls.push(Instruction::vldw(v0, at)).unwrap();
    ls.push(Instruction::vclr(v0)).unwrap();
    ls.push(Instruction::vstw(v0, at)).unwrap();
    let mut p = Program::new("vldw-vclr-vstw");
    p.sections.push(Section::Straight(ls.finish()));
    let report = verify_program(&p, &LatencyTable::default());
    assert!(report.is_clean(), "{report}");
    assert_eq!(interpreted_hazard(&p), None);
    let issued: Vec<_> = match &p.sections[0] {
        Section::Straight(b) => b.iter().map(Bundle::len).collect(),
        Section::Loop { .. } => unreachable!(),
    };
    assert_eq!(issued, [1, 0, 0, 0, 0, 1, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scheduled_sequences_verify_and_run_clean(seed in 0u64..u64::MAX, len in 1u64..60) {
        let mut rng = Rng64::new(seed);
        let p = scheduled("scheduled", (0..len).map(|_| instruction(&mut rng)));
        let report = verify_program(&p, &LatencyTable::default());
        prop_assert!(report.is_clean(), "{}\n{}", report, p);
        prop_assert_eq!(interpreted_hazard(&p), None);
    }
}

/// Depths on both sides of every `k_u` boundary and `k_iters` class, as
/// `kernel_properties`' pricing sweep visits them.
const DEPTHS: [usize; 28] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1023,
    1024, 1025, 4094, 4095,
];

/// Every kernel of `kernel_properties`' pricing sweep — the generated one
/// per spec and the feasible forced tilings — verifies clean.  Release
/// only: `cargo test -p conformance --release --test scoreboard_gate --
/// --include-ignored`.
#[test]
#[ignore = "whole kernel sweep; run in release with --include-ignored"]
fn every_kernel_of_the_pricing_sweep_verifies_clean() {
    let cache = KernelCache::with_capacity(HwConfig::default(), 0);
    let lat = LatencyTable::default();
    let (mut specs, mut forced) = (0, 0);
    let check = |kernel: &kernelgen::MicroKernel| {
        let report = verify_program(kernel.program(), &lat);
        assert!(report.is_clean(), "{report}");
    };
    for n_a in 1..=96usize {
        for m_s in 1..=14usize {
            for (i, &k_a) in DEPTHS.iter().enumerate() {
                if (n_a + m_s + i) % 4 != 0 {
                    continue;
                }
                let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
                check(&cache.get(spec).unwrap());
                specs += 1;
                let k_u = [1, 2, 4][i % 3];
                for m_u in [1, 1 + (n_a + i) % m_s, m_s] {
                    if let Ok(kernel) = cache.get_forced(spec, m_u, k_u) {
                        check(&kernel);
                        forced += 1;
                    }
                }
            }
        }
    }
    assert_eq!(specs, 9408);
    assert!(forced > 20_000, "{forced} forced kernels");
}
