//! Property test: any well-formed program survives the assembly
//! render → parse round trip unchanged.

use ftimm_isa::{
    asm, AddrExpr, BufId, Bundle, Instruction, LoopLevel, MemSpace, Program, SReg, Section, VReg,
};
use proptest::prelude::*;

fn arb_sreg() -> impl Strategy<Value = SReg> {
    (0u16..64).prop_map(|n| SReg::new(n).unwrap())
}

fn arb_vreg() -> impl Strategy<Value = VReg> {
    (0u16..63).prop_map(|n| VReg::new(n).unwrap()) // 63 leaves room for pairs
}

fn arb_addr() -> impl Strategy<Value = AddrExpr> {
    (
        prop_oneof![Just(MemSpace::Sm), Just(MemSpace::Am)],
        prop_oneof![Just(BufId::A), Just(BufId::B), Just(BufId::C)],
        0u64..10_000,
        prop::collection::vec((0usize..4, 1u64..5_000), 0..3),
    )
        .prop_map(|(space, buf, off, strides)| {
            let mut a = AddrExpr::flat(space, buf, off);
            for (lvl, s) in strides {
                a = a.with_stride(lvl, s);
            }
            a
        })
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (arb_sreg(), arb_addr()).prop_map(|(r, a)| Instruction::sldh(r, a)),
        (arb_sreg(), arb_addr()).prop_map(|(r, a)| Instruction::sldw(r, a)),
        (arb_sreg(), arb_sreg()).prop_map(|(d, s)| Instruction::sfexts32l(d, s)),
        (arb_sreg(), arb_sreg()).prop_map(|(d, s)| Instruction::sbale2h(d, s)),
        (arb_vreg(), arb_sreg()).prop_map(|(v, r)| Instruction::svbcast(v, r)),
        (arb_vreg(), arb_sreg(), arb_vreg(), arb_sreg())
            .prop_map(|(v1, r1, v2, r2)| Instruction::svbcast2(v1, r1, v2, r2)),
        Just(Instruction::sbr()),
        (arb_vreg(), arb_addr()).prop_map(|(v, a)| Instruction::vldw(v, a)),
        (arb_vreg(), arb_addr()).prop_map(|(v, a)| Instruction::vlddw(v, a).unwrap()),
        (arb_vreg(), arb_addr()).prop_map(|(v, a)| Instruction::vstw(v, a)),
        (arb_vreg(), arb_addr()).prop_map(|(v, a)| Instruction::vstdw(v, a).unwrap()),
        (arb_vreg(), arb_vreg(), arb_vreg()).prop_map(|(c, a, b)| Instruction::vfmulas32(c, a, b)),
        (arb_vreg(), arb_vreg(), arb_vreg()).prop_map(|(d, a, b)| Instruction::vfadds32(d, a, b)),
        arb_vreg().prop_map(Instruction::vclr),
        (arb_vreg(), arb_vreg()).prop_map(|(d, s)| Instruction::vmov(d, s)),
    ]
}

fn arb_bundle() -> impl Strategy<Value = Bundle> {
    prop::collection::vec(arb_instruction(), 0..6).prop_map(|insts| {
        let mut b = Bundle::new();
        for i in insts {
            // Unit conflicts are expected for random draws; skip clashes.
            let _ = b.push_auto(i);
        }
        b
    })
}

/// A section whose loops sit at levels `min_level..` and nest strictly
/// deeper than their parent (what `asm::parse` accepts).
fn arb_section(depth: u8, min_level: u8) -> BoxedStrategy<Section> {
    let straight = prop::collection::vec(arb_bundle(), 1..4).prop_map(Section::Straight);
    if depth == 0 {
        straight.boxed()
    } else {
        prop_oneof![
            straight,
            (
                min_level..min_level + 2,
                1u64..5,
                prop::collection::vec(arb_section(depth - 1, min_level + 2), 1..3)
            )
                .prop_map(|(level, trips, body)| Section::Loop {
                    level: LoopLevel::checked(level).unwrap(),
                    trips,
                    body,
                }),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn render_parse_round_trip(sections in prop::collection::vec(arb_section(2, 0), 1..4)) {
        let mut p = Program::new("prop");
        p.sections = sections;
        let text = asm::render(&p);
        let q = asm::parse(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n---\n{text}"));
        prop_assert_eq!(p, q);
    }

    #[test]
    fn cycle_and_flop_counts_survive_round_trip(sections in prop::collection::vec(arb_section(1, 0), 1..3)) {
        let mut p = Program::new("prop2");
        p.sections = sections;
        let q = asm::parse(&asm::render(&p)).unwrap();
        prop_assert_eq!(p.cycles(), q.cycles());
        prop_assert_eq!(p.flops(), q.flops());
        prop_assert_eq!(p.instructions(), q.instructions());
    }
}
