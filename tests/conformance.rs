//! The conformance regression suite: replay every persisted mismatch
//! fixture, run a short seeded fuzz sweep, and statically verify the
//! kernels the planner actually uses.  See DESIGN.md §7.

use conformance::{
    check_case, generate_case, replay_dir, run_fuzz, sharded_placement, verify_kernel, CaseSpec,
    OracleKind,
};
use dspsim::HwConfig;
use ftimm::{FtImm, GemmShape, Strategy};
use kernelgen::KernelSpec;
use std::path::Path;

fn ft() -> FtImm {
    FtImm::new(HwConfig::default())
}

/// Every fixture in the corpus must parse and pass.  A failing replay is
/// a regression of a previously fixed (or triaged) bug.
#[test]
fn corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/conformance");
    let outcomes = replay_dir(&ft(), &dir);
    assert!(
        !outcomes.is_empty(),
        "corpus at {} is empty — seed fixtures missing",
        dir.display()
    );
    let failures: Vec<String> = outcomes
        .iter()
        .filter_map(|o| {
            o.result
                .as_ref()
                .err()
                .map(|why| format!("{}: {why}", o.path.display()))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A short seeded sweep (distinct seed from CI's long run) with full
/// regime coverage and zero mismatches.
#[test]
fn seeded_fuzz_sweep_is_mismatch_free() {
    let summary = run_fuzz(&ft(), 42, 16, |_, _, _| {});
    assert!(
        summary.mismatches.is_empty(),
        "{}",
        summary
            .mismatches
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(summary.regime_counts.iter().all(|&c| c == 4));
}

/// One small case through every row of the oracle table (the 16-case
/// sweep above reaches only part of the rotation).
#[test]
fn small_cases_pass_each_oracle() {
    let ft = ft();
    for oracle in OracleKind::ALL {
        let case = CaseSpec {
            seed: 3,
            shape: GemmShape::new(13, 17, 9),
            cores: 3,
            strategy: Strategy::MPar,
            oracle,
            fault_seed: oracle.fault_seeded().then_some(5),
        };
        check_case(&ft, &case).unwrap_or_else(|m| panic!("{m}"));
    }
}

/// Two threads checking one tuned-plan case each save a plan catalog to
/// the temporary directory, load it back and delete it: each needs a file
/// of its own, or one thread deletes the other's between its save and its
/// load.
#[test]
fn one_tuned_plan_case_checks_clean_on_two_threads() {
    let case = CaseSpec {
        seed: 11,
        shape: GemmShape::new(13, 17, 9),
        cores: 3,
        strategy: Strategy::Auto,
        oracle: OracleKind::TunedPlanEquivalence,
        fault_seed: None,
    };
    for _ in 0..20 {
        // Both threads start the same work together, so their catalog
        // saves and loads fall close in time.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let ft = ft();
                        start.wait();
                        check_case(&ft, &case)
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap().unwrap_or_else(|m| panic!("{m}"));
            }
        });
    }
}

/// The oracle table's committed surface: fixtures and
/// `perf/baseline.json` key on these tags, and the fuzz schedule on
/// their order and count.
#[test]
fn oracle_table_matches_the_committed_tags() {
    let tags = OracleKind::ALL.map(OracleKind::tag);
    assert_eq!(
        tags,
        [
            "reference",
            "mode-equivalence",
            "compiled-equivalence",
            "entry-equivalence",
            "scalar-scale",
            "transpose-duality",
            "tiling-invariance",
            "fault-recovery",
            "plan-consistency",
            "shard-failover",
            "cpu-failover",
            "tuned-plan-equivalence",
            "coexec-equivalence",
        ]
    );
    // Unique tags, one row per oracle, rows in `ALL` order.
    for oracle in OracleKind::ALL {
        assert_eq!(OracleKind::from_tag(oracle.tag()), Some(oracle));
    }
    // The schedule's step per regime rotation is 7 (see `generate_case`).
    assert_ne!(OracleKind::ALL.len() % 7, 0);
}

/// The benchmark's `conformance_sweep` runs the first 104 draws of
/// `generate_case` under reference seed `0x51A1`, and keys its metrics
/// on the oracles they name: an edit to the oracle table or to the
/// generator that shifts those cases changes the benchmark's case mix.
/// Pinned as an FNV-1a hash over each draw's `Display` text and data
/// seed.
#[test]
fn benchmark_fuzz_schedule_is_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..104 {
        let case = generate_case(0x51A1, i);
        let text = format!("{case} seed={}\n", case.seed);
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(hash, 0x3dd8_4e47_04d3_bbe6, "schedule hash {hash:#018x}");
}

/// The sharded oracles of that schedule reach the sharded planner's
/// variant path: at least one of their cases is placed under a pinned
/// strategy other than `plan_full`'s, so the bitwise checks of
/// `shard-failover`, `cpu-failover` and `coexec-equivalence` cover it.
#[test]
fn benchmark_fuzz_schedule_places_a_pinned_variant() {
    let ft = ft();
    let mut placed = 0;
    let mut variants = Vec::new();
    for i in 0..104 {
        let case = generate_case(0x51A1, i);
        let Some(splan) = sharded_placement(&ft, &case) else {
            continue;
        };
        placed += 1;
        if splan.plan.strategy != ft.plan(&case.shape, case.strategy, case.cores) {
            variants.push(case.to_string());
        }
    }
    assert!(placed > 0, "the schedule runs no sharded oracle");
    assert!(
        !variants.is_empty(),
        "none of {placed} sharded cases pins a variant"
    );
}

/// The committed plan-catalog fixture (emitted by the `tune` bench
/// binary) must load clean and serve all four Table I–III regimes —
/// type-1 tall-skinny, type-2 short-wide, type-3 large-square and the
/// regular control shape — with *zero* timing simulations: every plan
/// comes from a catalog hit, none from the planner.
#[test]
fn plan_catalog_fixture_replays_simulation_free() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/plan-catalog.json");
    let load = ftimm::load_catalog(&path).unwrap();
    assert_eq!(load.quarantined, 0, "fixture has corrupt entries");
    assert_eq!(load.catalog.entries.len(), 4, "fixture must cover 4 shapes");

    let warm = FtImm::with_plan_catalog(HwConfig::default(), &path).unwrap();
    // The Table I–III shapes the tune binary catalogs (same list as
    // `bench::planner::SHAPES`; this package cannot depend on bench).
    for (m, n, k) in [
        (1 << 16, 32, 32),
        (32, 32, 1 << 16),
        (20480, 32, 20480),
        (4096, 512, 4096),
    ] {
        let shape = GemmShape::new(m, n, k);
        let plan = warm.plan_full(&shape, Strategy::Auto, 8);
        assert_eq!(plan.shape, shape);
        assert_eq!(plan.origin, ftimm::PlanOrigin::Tuned, "{shape}");
    }
    assert_eq!(
        warm.timing_simulations(),
        0,
        "catalog replay must not consult the timing model"
    );
    let stats = warm.tuning_stats();
    assert_eq!(stats.catalog_hits, 4);
    assert_eq!(stats.catalog_misses, 0);
    assert_eq!(stats.quarantined, 0, "every fixture plan fits the machine");
}

/// A program whose loop is nested no deeper than its parent, built by
/// hand, is a verifier finding, not a panic.
#[test]
fn mis_nested_loops_are_refused_not_panicked_on() {
    use ftimm_isa::{Bundle, LatencyTable, LoopLevel, Program, Section};
    let mut p = Program::new("flat");
    p.sections.push(Section::Loop {
        level: LoopLevel(1),
        trips: 2,
        body: vec![Section::Loop {
            level: LoopLevel(0),
            trips: 1,
            body: vec![Section::Straight(vec![Bundle::new()])],
        }],
    });
    let report = conformance::verify_program(&p, &LatencyTable::default());
    assert!(!report.is_clean());
    assert!(report.to_string().contains("nested in level 1"), "{report}");
}

/// The static verifier passes every micro-kernel spec the generator
/// admits at the paper's block sizes and the awkward remainders.
#[test]
fn planner_kernels_verify_clean() {
    let ft = ft();
    for (m_s, k_a, n_a) in [
        (6, 512, 96),
        (12, 256, 96),
        (6, 512, 32),
        (5, 7, 13),
        (1, 1, 1),
    ] {
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        let kernel = ft.cache().get(spec).unwrap();
        let report = verify_kernel(&kernel);
        assert!(report.is_clean(), "{report}");
    }
}
