//! Core replay is exact.
//!
//! Where a timing walk may replay cores ([`Machine::replays`]), the
//! emitters step one core per class of each synchronisation window and
//! copy its clocks and counter growth onto the others.  The stepped
//! reference is the same walk profiled: a recording profiler never
//! advances a clock and turns replay off, so it steps every core.  The
//! two must agree on the outcome (the same error, or a `RunReport` with
//! the same seconds bits and totals) and, on success, on every core's
//! clocks and counters:
//!
//! * over seeded shapes, the three strategies at forced blockings with
//!   short last chunks, K slices and row blocks as well as the planner's
//!   picks, on 1–8 cores, on a machine with a retired core, and on one
//!   whose core has a transfer in flight (its DMA engine busy past its
//!   compute clock, which is what the prefetching core 0 looks like
//!   inside a window: a core in that state must not share a class);
//! * (ignored by default; CI runs it) over every shape `bench paper`
//!   evaluates, on every candidate the planner times for it, TGEMM and
//!   both forced strategies, on 1–8 cores, from a fresh machine and from
//!   one whose last core has a transfer in flight.

use dspsim::{CoreStats, ExecMode, HwConfig, Machine, Rng64, RunReport, DDR_CAPACITY};
use ftimm::{
    ChosenStrategy, Executor, FtImm, GemmProblem, GemmShape, KparBlocks, MparBlocks, Planner,
    Strategy,
};

/// A walk's outcome: the report (its profile dropped) or the error, and
/// every physical core's clock bits and counters.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<(u64, RunReport), String>,
    cores: Vec<(u64, u64, CoreStats)>,
}

/// What a walk's machine looks like before it starts.
#[derive(Debug, Clone, Copy, Default)]
struct Start {
    /// A physical core retired.
    retired: Option<usize>,
    /// A physical core whose DMA engine is busy for the first 200 µs.
    busy: Option<usize>,
}

/// One timing walk of `plan` on `cores` cores of a fresh machine set up
/// as `start` says; `stepped` profiles it.
fn walk(
    ft: &FtImm,
    shape: GemmShape,
    plan: &ChosenStrategy,
    cores: usize,
    start: Start,
    stepped: bool,
) -> Outcome {
    let mut m = Machine::new(ft.cfg().clone(), ExecMode::Timing);
    if let Some(c) = start.retired {
        m.retire_core(c);
    }
    if let Some(c) = start.busy {
        m.cluster.cores[c].t_dma_free = 2e-4;
    }
    assert!(m.replays(), "a fresh timing machine replays");
    let p = GemmProblem::alloc(&mut m, shape.m, shape.n, shape.k).expect("fits DDR");
    let ex = Executor::new(ft).with_plan(*plan).cores(cores);
    let ex = if stepped { ex.profiled() } else { ex };
    let result = ex
        .dispatch(&mut m, &p)
        .expect("a valid problem")
        .result
        .map(|mut r| {
            r.profile = None;
            (r.seconds.to_bits(), r)
        })
        .map_err(|e| format!("{e:?}"));
    let cores = if result.is_ok() {
        m.cluster
            .cores
            .iter()
            .map(|c| (c.t_compute.to_bits(), c.t_dma_free.to_bits(), c.stats))
            .collect()
    } else {
        Vec::new()
    };
    Outcome { result, cores }
}

/// Assert that replaying `plan` equals stepping it; returns whether it
/// ran.
fn check(ft: &FtImm, shape: GemmShape, plan: &ChosenStrategy, cores: usize, start: Start) -> bool {
    let stepped = walk(ft, shape, plan, cores, start, true);
    let replayed = walk(ft, shape, plan, cores, start, false);
    assert_eq!(
        replayed, stepped,
        "{shape} on {cores} cores ({start:?}): {plan:?}"
    );
    stepped.result.is_ok()
}

/// Forced blocks for strategy `sel` (M-par, K-par, TGEMM), drawn so that
/// the shape's last chunks, K slices and row blocks come out short.
fn forced(rng: &mut Rng64, sel: u64) -> ChosenStrategy {
    let mut r = |lo, hi| rng.range(lo, hi) as usize;
    let (n_a, m_s, k_a, m_a) = (r(8, 96), r(2, 12), r(16, 256), r(16, 256));
    match sel {
        0 => ChosenStrategy::MPar(MparBlocks {
            n_g: n_a * r(1, 4),
            k_g: k_a * r(1, 4) + r(0, 7),
            m_a,
            n_a,
            k_a,
            m_s,
        }),
        1 => ChosenStrategy::KPar(KparBlocks {
            m_g: m_a * r(1, 4) + r(0, 7),
            n_g: n_a * r(1, 4),
            m_a,
            n_a,
            k_a,
            m_s,
        }),
        _ => ChosenStrategy::TGemm,
    }
}

#[test]
fn replaying_cores_equals_stepping_them() {
    let ft = FtImm::new(HwConfig::default());
    let mut ran = 0;
    for seed in 0..24u64 {
        let mut rng = Rng64::for_case(0x5E_97A7, seed);
        let shape = GemmShape::new(
            rng.range(1, 900) as usize,
            rng.range(1, 200) as usize,
            rng.range(1, 1100) as usize,
        );
        let start = Start {
            retired: (seed % 4 == 3).then(|| rng.range(0, 7) as usize),
            busy: (seed % 4 == 1).then(|| rng.range(1, 7) as usize),
        };
        for sel in 0..3 {
            let plan = forced(&mut rng, sel);
            for cores in 1..=8 {
                ran += usize::from(check(&ft, shape, &plan, cores, start));
            }
        }
        for strategy in [Strategy::Auto, Strategy::MPar, Strategy::KPar] {
            let cores = rng.range(1, 8) as usize;
            let plan = ft.plan(&shape, strategy, cores);
            ran += usize::from(check(&ft, shape, &plan, cores, start));
        }
    }
    assert!(ran > 400, "premise: most cases run ({ran})");
}

/// Replay compares task shapes, not addresses, and a caller may place an
/// operand anywhere: one that reaches past the end of DDR turns replay
/// off, so the run is refused at the transfer stepping refuses.  Here all
/// eight cores share a class, and the first row past DDR is in core 2's
/// first chunk.
#[test]
fn operands_past_ddr_are_refused_where_stepping_refuses_them() {
    let ft = FtImm::new(HwConfig::default());
    let plan = ChosenStrategy::MPar(MparBlocks {
        n_g: 32,
        k_g: 32,
        m_a: 64,
        n_a: 32,
        k_a: 32,
        m_s: 8,
    });
    let run = |stepped| {
        let mut m = Machine::new(ft.cfg().clone(), ExecMode::Timing);
        let mut p = GemmProblem::alloc(&mut m, 4096, 32, 32).expect("fits DDR");
        p.c.off = DDR_CAPACITY - 150 * 32 * 4;
        let ex = Executor::new(&ft).with_plan(plan).cores(8);
        let ex = if stepped { ex.profiled() } else { ex };
        ex.run(&mut m, &p)
            .map(|r| r.seconds)
            .map_err(|e| format!("{e:?}"))
    };
    let stepped = run(true);
    assert!(stepped.is_err(), "premise: C reaches past DDR");
    assert_eq!(run(false), stepped);
}

/// On a long M-par run, whose cores mostly share a class, a replayed walk
/// fetches fewer kernels than a stepped one: replay is actually on.
#[test]
fn a_replayed_walk_fetches_fewer_kernels() {
    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(8192, 32, 32);
    let plan = ft.plan(&shape, Strategy::MPar, 8);
    let lookups = |stepped| {
        let before = ft.cache().stats();
        walk(&ft, shape, &plan, 8, Start::default(), stepped);
        let after = ft.cache().stats();
        (after.hits + after.misses) - (before.hits + before.misses)
    };
    let (stepped, replayed) = (lookups(true), lookups(false));
    assert!(replayed < stepped, "{replayed} vs {stepped} kernel lookups");
}

/// Every shape `bench paper` evaluates (Figs. 4–7, the ablation and the
/// planner report), in release-build sizes.
fn paper_shapes() -> Vec<GemmShape> {
    const N_SWEEP: [usize; 6] = [16, 32, 48, 64, 80, 96];
    let mut shapes = Vec::new();
    for n in N_SWEEP {
        shapes.extend([(1 << 16, n, n), (n, n, 1 << 16), (20480, n, 20480)]);
    }
    for e in 16..=22 {
        shapes.extend([(1 << e, 32, 32), (32, 32, 1 << e)]);
    }
    for mk in [4096, 8192, 12288, 16384, 20480] {
        shapes.push((mk, 32, mk));
    }
    shapes.extend([
        (20480, 32, 32),
        (32, 32, 20480),
        (2880, 32, 8192),
        (20480, 96, 20480),
        (4096, 512, 4096),
    ]);
    shapes.sort_unstable();
    shapes.dedup();
    shapes
        .into_iter()
        .map(|(m, n, k)| GemmShape::new(m, n, k))
        .collect()
}

#[test]
#[ignore = "exhaustive over the paper's shapes; CI runs it with --include-ignored"]
fn every_paper_shape_replays_exactly_on_every_timed_candidate() {
    let ft = FtImm::new(HwConfig::default());
    for shape in paper_shapes() {
        for cores in 1..=8 {
            let mut timed = Vec::new();
            Planner::new(ft.cache(), ft.cfg()).plan(&shape, Strategy::Auto, cores, |c| {
                timed.push(*c);
                1.0
            });
            let forced = [Strategy::MPar, Strategy::KPar].map(|s| ft.plan(&shape, s, cores));
            let mut candidates = vec![ChosenStrategy::TGemm];
            for c in timed.into_iter().chain(forced) {
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
            let busy = Start {
                busy: Some(cores - 1),
                ..Start::default()
            };
            for plan in &candidates {
                for start in [Start::default(), busy] {
                    check(&ft, shape, plan, cores, start);
                }
            }
        }
    }
}
