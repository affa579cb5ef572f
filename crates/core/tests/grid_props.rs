//! The row grid ([`ftimm::RowGrid`]) is where a run of the walk may be
//! cut: over seeded M-parallel, K-parallel and TGEMM shapes, blocks and
//! core counts, any partition of M at random cut points on the unit grid,
//! each part run as a row sub-problem of the pinned plan, reproduces a
//! plain `run_plan` bit for bit.  Checkpoint spans, shards, the CPU lane
//! and recovery all cut there, so each of them is a plain run by
//! construction.  And since a checkpoint span is whole rounds of the
//! walk, no core idles in one: a fault-free checkpointed run costs what
//! a plain run does on the simulated clock.

use dspsim::{ExecMode, HwConfig, Machine, Rng64};
use ftimm::reference::fill_matrix;
use ftimm::{
    ChosenStrategy, FtImm, GemmProblem, GemmShape, KparBlocks, MparBlocks, ResilienceConfig,
    Strategy, Walk,
};

/// A uniform case parameter in `lo..=hi` (`lo < hi` at every call, so
/// each consumes one draw).
fn range(rng: &mut Rng64, lo: usize, hi: usize) -> usize {
    rng.range(lo as u64, hi as u64) as usize
}

/// One seeded case: a strategy with small blocks, a shape of two to six
/// units, and a core count.
fn case(rng: &mut Rng64, sel: usize) -> (ChosenStrategy, [usize; 3], usize) {
    let cores = range(rng, 1, 8);
    let (n, k) = (range(rng, 1, 70), range(rng, 1, 150));
    let n_a = range(rng, 1, 64);
    let k_a = range(rng, 8, 64);
    let (m_a, m_s) = {
        let m_a = range(rng, 4, 40);
        (m_a, range(rng, 1, m_a.min(12)))
    };
    let (strategy, unit) = match sel {
        0 => {
            let bl = MparBlocks {
                n_g: n_a * range(rng, 1, 3),
                k_g: k_a * range(rng, 1, 3),
                m_a,
                n_a,
                k_a,
                m_s,
            };
            (ChosenStrategy::MPar(bl), m_a)
        }
        1 => {
            let m_g = m_a * range(rng, 1, 2) + range(rng, 0, 7);
            let bl = KparBlocks {
                m_g,
                n_g: n_a * range(rng, 1, 3),
                m_a,
                n_a,
                k_a,
                m_s,
            };
            (ChosenStrategy::KPar(bl), m_g)
        }
        _ => (ChosenStrategy::TGemm, 512),
    };
    let m = unit * range(rng, 1, 5) + range(rng, 1, unit);
    let k = if sel == 2 { range(rng, 1, 600) } else { k };
    (strategy, [m, n, k], cores)
}

/// `C` after running `parts` of `[0, m)` as row sub-problems of
/// `strategy` on a fresh machine (one part: a plain run).
fn run_parts(
    ft: &FtImm,
    strategy: &ChosenStrategy,
    [m, n, k]: [usize; 3],
    cores: usize,
    parts: &[(usize, usize)],
) -> Vec<f32> {
    let mut mach = Machine::with_mode(ExecMode::Compiled);
    let p = GemmProblem::alloc(&mut mach, m, n, k).unwrap();
    p.a.upload(&mut mach, &fill_matrix(m * k, 1)).unwrap();
    p.b.upload(&mut mach, &fill_matrix(k * n, 2)).unwrap();
    p.c.upload(&mut mach, &fill_matrix(m * n, 3)).unwrap();
    for &(r0, r1) in parts {
        let sub = GemmProblem {
            a: p.a.view(r0, 0, r1 - r0, k),
            b: p.b,
            c: p.c.view(r0, 0, r1 - r0, n),
        };
        ft.run_plan(&mut mach, &sub, strategy, cores).unwrap();
    }
    p.c.download(&mut mach).unwrap()
}

#[test]
fn any_unit_aligned_partition_of_m_runs_bitwise_as_the_plain_run() {
    let ft = FtImm::new(HwConfig::default());
    let cfg = HwConfig::default();
    let mut rng = Rng64::new(0x6121D);
    let mut cut_cases = 0;
    for i in 0..36 {
        let sel = i % 3;
        let (strategy, [m, n, k], cores) = case(&mut rng, sel);
        let walk = Walk::new(&strategy, m, n, k, cores.min(cfg.cores_per_cluster));
        assert!(walk.footprint().fits(&cfg), "{strategy:?} {m}x{n}x{k}");
        let grid = walk.grid();
        // Each unit boundary inside M is a cut with probability 1/2.
        let mut cuts: Vec<usize> = (grid.unit..m)
            .step_by(grid.unit)
            .filter(|_| rng.next() & 1 == 1)
            .collect();
        cut_cases += usize::from(!cuts.is_empty());
        cuts.insert(0, 0);
        cuts.push(m);
        let parts: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
        let shape = [m, n, k];
        let want = run_parts(&ft, &strategy, shape, cores, &[(0, m)]);
        let got = run_parts(&ft, &strategy, shape, cores, &parts);
        let case = format!("{strategy:?} {m}x{n}x{k} on {cores} cores, parts {parts:?}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{case}: C[{i}] {g} vs {w}");
        }
    }
    assert!(cut_cases >= 24, "only {cut_cases} cases were cut at all");
}

#[test]
fn fault_free_checkpointed_runs_cost_what_a_plain_run_does() {
    let ft = FtImm::new(HwConfig::default());
    // Tall M-parallel shapes: a span shorter than a round would deal
    // fewer tasks than there are cores and leave the rest idle.
    for (m, n, k) in [
        (65536, 32, 32),
        (20480, 32, 20480),
        (4096, 32, 4096),
        (16384, 16, 512),
        (2048, 96, 8192),
    ] {
        let plan = ft.plan(&GemmShape::new(m, n, k), Strategy::Auto, 8);
        assert!(matches!(plan, ChosenStrategy::MPar(_)), "{plan:?}");
        let seconds = |ckpt_rows: Option<usize>| {
            let mut mach = Machine::with_mode(ExecMode::Timing);
            let p = GemmProblem::alloc(&mut mach, m, n, k).unwrap();
            let report = match ckpt_rows {
                None => ft.run_plan(&mut mach, &p, &plan, 8),
                Some(ckpt_rows) => {
                    let rcfg = ResilienceConfig {
                        ckpt_rows,
                        ..ResilienceConfig::default()
                    };
                    ft.run_plan_resilient(&mut mach, &p, &plan, 8, &rcfg)
                }
            };
            report.unwrap().seconds
        };
        let plain = seconds(None);
        for ckpt_rows in [64, 512, 4096, 16384] {
            let ratio = seconds(Some(ckpt_rows)) / plain;
            assert!(ratio <= 1.10, "{m}x{n}x{k} ckpt {ckpt_rows}: {ratio:.3}x");
        }
    }
}
