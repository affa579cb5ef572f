//! Property tests over the blocking walk ([`ftimm::Walk`]).
//!
//! The DSP emitters and the host mirror both consume this enumeration,
//! so their bitwise agreement is by construction; what is left to check
//! is that the enumeration itself is a GEMM.  Over random block sizes,
//! shapes and core counts, for all three strategies:
//!
//! * (a) the distinct `C` panels of the tasks tile `C` exactly once, and
//!   every panel of a reducing walk is covered by exactly `active` tasks,
//!   one per core, in core order;
//! * (b) the K steps of the tasks covering a panel partition `0..k`
//!   exactly once, each inside its group's K range;
//! * (c) row blocks partition `0..rows` with heights in `1..=m_s`;
//! * (d) the enumeration is what runs: a timing-mode `run_plan` invokes
//!   exactly one kernel per `(task, K step, row block)` triple;
//! * (e) the leaf partitions read off the enumeration are those the
//!   run-length partitions of the nested [`ftimm::walk::Levels`] expand
//!   to, which the tuner's `BitSignature` compares;
//! * (f) a timing walk prices kernels without building their programs,
//!   and fetches each from the kernel cache once per `(task, K step,
//!   height)`, not once per row block;
//! * (g) run-length partitions are canonical, so two walks' runs are
//!   equal exactly when their leaves are.

use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::plan::TuneConfig;
use ftimm::walk::Task;
use ftimm::{
    bit_signature, ChosenStrategy, FtImm, GemmProblem, GemmShape, KparBlocks, MparBlocks, Strategy,
    Walk,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

fn ft() -> &'static FtImm {
    static FT: OnceLock<FtImm> = OnceLock::new();
    FT.get_or_init(|| FtImm::new(HwConfig::default()))
}

/// One of the three strategies with arbitrary (not necessarily
/// hardware-feasible) blocks: the enumeration must be a GEMM for any of
/// them.
fn strategy(sel: usize, b: [usize; 6]) -> ChosenStrategy {
    let [g0, g1, m_a, n_a, k_a, m_s] = b;
    match sel {
        0 => ChosenStrategy::MPar(MparBlocks {
            n_g: g0,
            k_g: g1,
            m_a,
            n_a,
            k_a,
            m_s,
        }),
        1 => ChosenStrategy::KPar(KparBlocks {
            m_g: g0,
            n_g: g1,
            m_a,
            n_a,
            k_a,
            m_s,
        }),
        _ => ChosenStrategy::TGemm,
    }
}

/// Assert `parts` (sorted by start) chain from 0 to `total` with no gap
/// or overlap.
fn assert_partition(mut parts: Vec<Range<usize>>, total: usize, what: &str) {
    parts.sort_by_key(|r| r.start);
    let mut at = 0;
    for r in &parts {
        assert!(r.start == at && r.end > r.start, "{what}: {parts:?}");
        at = r.end;
    }
    assert_eq!(at, total, "{what}: {parts:?}");
}

/// Sizes of the distinct `(start, len)` blocks, in start order.
fn sizes(mut blocks: Vec<(usize, usize)>) -> Vec<usize> {
    blocks.sort_unstable();
    blocks.dedup();
    blocks.into_iter().map(|(_, len)| len).collect()
}

/// The leaf sizes `(size, count)` runs stand for, in order.
fn expand(runs: &[(usize, usize)]) -> Vec<usize> {
    runs.iter()
        .flat_map(|&(size, count)| std::iter::repeat_n(size, count))
        .collect()
}

/// Properties (a)–(c) and (e); returns the number of kernel invocations
/// the walk enumerates.
fn check_walk(walk: &Walk, m: usize, n: usize, k: usize, cores: usize) -> u64 {
    // Per distinct C panel `(r0, c0, rows, cols)`: the core and K steps
    // of every task covering it.
    type Covering = Vec<(usize, Vec<Range<usize>>)>;
    let mut panels: BTreeMap<(usize, usize, usize, usize), Covering> = BTreeMap::new();
    let (mut row_leaves, mut col_leaves) = (Vec::new(), Vec::new());
    let mut invocations = 0u64;
    let m_s = walk.levels().m[2];
    for g in walk.groups() {
        for t in walk.tasks(&g) {
            let Task {
                core,
                r0,
                c0,
                rows,
                cols,
                ..
            } = t;
            assert!(core < walk.active() && walk.active() <= cores);
            assert!(
                g.m.start <= r0 && r0 + rows <= g.m.end,
                "{t:?} outside {g:?}"
            );
            assert!(
                g.n.start <= c0 && c0 + cols <= g.n.end,
                "{t:?} outside {g:?}"
            );
            assert!(cols <= t.ld && cols <= t.n_kernel && t.n_kernel <= t.ld);
            let steps: Vec<Range<usize>> = walk.k_steps(&g, &t).collect();
            assert!(!steps.is_empty(), "{t:?} has no K step");
            for ks in &steps {
                assert!(g.k.start <= ks.start && ks.end <= g.k.end);
            }
            // (c)
            let blocks: Vec<(usize, usize)> = walk.row_blocks(&t).collect();
            assert!(blocks.iter().all(|&(_, ms)| (1..=m_s).contains(&ms)));
            assert_partition(
                blocks.iter().map(|&(u, ms)| u..u + ms).collect(),
                rows,
                "row blocks",
            );
            invocations += (steps.len() * blocks.len()) as u64;
            row_leaves.extend(blocks.iter().map(|&(u, ms)| (r0 + u, ms)));
            col_leaves.push((c0, cols));
            panels
                .entry((r0, c0, rows, cols))
                .or_default()
                .push((core, steps));
        }
    }

    // (a) the distinct panels tile C exactly once.
    let mut covered = vec![0u8; m * n];
    for &(r0, c0, rows, cols) in panels.keys() {
        for r in r0..r0 + rows {
            for c in &mut covered[r * n + c0..r * n + c0 + cols] {
                *c += 1;
            }
        }
    }
    assert!(covered.iter().all(|&c| c == 1), "panels do not tile C");

    let mut k_leaves = Vec::new();
    for (panel, tasks) in &panels {
        if walk.reduces() {
            // (a) one private accumulator per active core, in core order.
            let cores_seen: Vec<usize> = tasks.iter().map(|(c, _)| *c).collect();
            assert_eq!(cores_seen, (0..walk.active()).collect::<Vec<_>>());
        }
        // (b)
        let steps: Vec<Range<usize>> = tasks.iter().flat_map(|(_, s)| s.clone()).collect();
        if panel.0 == 0 && panel.1 == 0 {
            k_leaves = steps.iter().map(|s| (s.start, s.len())).collect();
        }
        assert_partition(steps, k, "K steps");
    }

    // (e)
    let [lm, ln, lk] = walk.run_partitions().map(|runs| expand(&runs));
    assert_eq!(sizes(row_leaves), lm, "M leaves");
    assert_eq!(sizes(col_leaves), ln, "N leaves");
    assert_eq!(sizes(k_leaves), lk, "K leaves");
    invocations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_enumeration_is_a_gemm(
        sel in 0usize..3,
        m in 1usize..300,
        n in 1usize..300,
        k in 1usize..300,
        cores in 1usize..9,
        (g0, g1) in (1usize..80, 1usize..80),
        (m_a, n_a, k_a, m_s) in (1usize..80, 1usize..80, 1usize..80, 1usize..80),
    ) {
        let walk = Walk::new(&strategy(sel, [g0, g1, m_a, n_a, k_a, m_s]), m, n, k, cores);
        check_walk(&walk, m, n, k, cores);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_timing_run_invokes_one_kernel_per_enumerated_triple(
        sel in 0usize..3,
        m in 1usize..300,
        n in 1usize..97,
        k in 1usize..300,
        cores in 1usize..9,
    ) {
        let shape = GemmShape::new(m, n, k);
        let plan = ft().plan(&shape, [Strategy::MPar, Strategy::KPar, Strategy::TGemm][sel], cores);
        let mut machine = Machine::with_mode(ExecMode::Timing);
        let p = GemmProblem::alloc(&mut machine, m, n, k).unwrap();
        let report = ft().run_plan(&mut machine, &p, &plan, cores).unwrap();
        let walk = Walk::new(&plan, m, n, k, cores);
        prop_assert_eq!(report.totals.kernel_calls, check_walk(&walk, m, n, k, cores));
    }
}

/// Blocks on coarse multiples, so two draws often cut a shape alike.
fn coarse((g0, g1, m_a, n_a, k_a, m_s): (usize, usize, usize, usize, usize, usize)) -> [usize; 6] {
    [g0 * 48, g1 * 48, m_a * 12, n_a * 16, k_a * 24, m_s * 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (g) Runs are canonical — no two adjacent runs share a size — so
    /// two walks have equal runs exactly when the leaves they expand to
    /// ((e): the enumeration's) are equal; signatures (same kind) are
    /// equal exactly when the leaves and the stream counts are.
    #[test]
    fn run_length_partitions_compare_as_the_leaves_do(
        sel in 0usize..3,
        (m, n, k) in (1usize..200, 1usize..120, 1usize..200),
        cores in 1usize..9,
        a in (1usize..5, 1usize..5, 1usize..5, 1usize..4, 1usize..4, 1usize..3),
        b in (1usize..5, 1usize..5, 1usize..5, 1usize..4, 1usize..4, 1usize..3),
    ) {
        let (sa, sb) = (strategy(sel, coarse(a)), strategy(sel, coarse(b)));
        let (wa, wb) = (Walk::new(&sa, m, n, k, cores), Walk::new(&sb, m, n, k, cores));
        for w in [&wa, &wb] {
            check_walk(w, m, n, k, cores);
            for runs in w.run_partitions() {
                prop_assert!(runs.windows(2).all(|r| r[0].0 != r[1].0), "{:?}", runs);
            }
        }
        let (ra, rb) = (wa.run_partitions(), wb.run_partitions());
        let same_leaves = ra.iter().map(|r| expand(r)).eq(rb.iter().map(|r| expand(r)));
        prop_assert_eq!(ra == rb, same_leaves);
        let shape = GemmShape::new(m, n, k);
        let same_streams = wa.levels().streams == wb.levels().streams;
        prop_assert_eq!(
            bit_signature(&sa, &shape, cores) == bit_signature(&sb, &shape, cores),
            same_leaves && same_streams
        );
    }
}

/// (f) On a cold context, planning, tuning and predicting one shape per
/// regime builds no program, and a pinned timing run fetches kernels at
/// most twice per `(task, K step)` — a task's row blocks have at most two
/// heights — however many row blocks it invokes.
#[test]
fn a_timing_walk_builds_no_program_and_fetches_per_height() {
    let cfg = HwConfig::default();
    for (shape, cores) in [
        (GemmShape::new(20_000, 32, 64), 8), // tall-skinny (type 1)
        (GemmShape::new(40, 48, 12_000), 8), // short-wide (type 2)
        (GemmShape::new(300, 80, 5), 4),     // tiny K
        (GemmShape::new(150, 96, 140), 8),   // square
    ] {
        let ft = FtImm::new(cfg.clone());
        let planned = ft.plan_full(&shape, Strategy::Auto, cores).strategy;
        let tuned = ft.tune(&shape, cores, &TuneConfig::default()).plan.strategy;
        for plan in [planned, tuned, ft.plan(&shape, Strategy::TGemm, cores)] {
            assert!(
                ft.predict_seconds(&shape, &plan, cores).is_finite(),
                "{shape:?} {plan:?}"
            );
        }
        assert_eq!(ft.cache().programs_built(), 0, "{shape:?}");

        let fetched = |ft: &FtImm| {
            let s = ft.cache().stats();
            s.hits + s.misses
        };
        let before = fetched(&ft);
        let mut machine = Machine::with_mode(ExecMode::Timing);
        let p = GemmProblem::alloc(&mut machine, shape.m, shape.n, shape.k).unwrap();
        let report = ft.run_plan(&mut machine, &p, &tuned, cores).unwrap();
        let fetches = fetched(&ft) - before;
        let walk = Walk::new(
            &tuned,
            shape.m,
            shape.n,
            shape.k,
            cores.min(cfg.cores_per_cluster),
        );
        let steps: u64 = walk
            .groups()
            .map(|g| {
                walk.tasks(&g)
                    .map(|t| walk.k_steps(&g, &t).count() as u64)
                    .sum::<u64>()
            })
            .sum();
        assert!(
            fetches <= 2 * steps && fetches <= report.totals.kernel_calls,
            "{shape:?}: {fetches} fetches for {steps} (task, K step) pairs, {} calls",
            report.totals.kernel_calls
        );
        assert_eq!(ft.cache().programs_built(), 0, "{shape:?}");
    }
}
