//! The feasibility predicate, [`Footprint::fits`], against what actually
//! runs.
//!
//! * The five shapes `Strategy::Auto` used to resolve to a K-par plan
//!   whose double-buffered `A_s` overran the 64 KiB SM: `gemm` now
//!   succeeds in `Fast` and `Compiled` and matches the f64 reference, and
//!   the tuned plan runs.
//! * Exactness: over random M-par and K-par blocks on small shapes, on
//!   the default machine and on a small one (so every scratchpad is
//!   overrun by some cases), `fits` holds exactly when a functional run
//!   raises no scratchpad `OutOfBounds`, and exactly when the timing run
//!   succeeds.  Each case is also run on a machine whose scratchpads end
//!   exactly at its footprint (it must run) and on that machine with one
//!   scratchpad a word shorter (it must overrun that one), so the
//!   footprint is tight at every level.

use dspsim::{ExecMode, HwConfig, Machine, SimError};
use ftimm::reference::fill_matrix;
use ftimm::walk::Footprint;
use ftimm::{
    ChosenStrategy, FtImm, FtimmError, GemmProblem, GemmShape, KparBlocks, MparBlocks, Strategy,
    TuneConfig, Walk,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use proptest::test_runner::TestRng;
use std::sync::OnceLock;

/// `(m, n, k)` at 8 cores.
const FIXTURES: [(usize, usize, usize); 5] = [
    (64, 64, 4096),
    (48, 48, 4096),
    (32, 64, 4096),
    (50, 64, 4687),
    (82, 31, 7009),
];

fn fits(cfg: &HwConfig, plan: &ChosenStrategy, shape: &GemmShape, cores: usize) -> bool {
    let cores = cores.clamp(1, cfg.cores_per_cluster);
    Walk::new(plan, shape.m, shape.n, shape.k, cores)
        .footprint()
        .fits(cfg)
}

/// Stage the seeded operands of `shape` on a fresh `cfg` machine.
fn staged(cfg: &HwConfig, shape: &GemmShape, mode: ExecMode) -> (Machine, GemmProblem) {
    let (m, n, k) = (shape.m, shape.n, shape.k);
    let mut machine = Machine::new(cfg.clone(), mode);
    let p = GemmProblem::alloc(&mut machine, m, n, k).unwrap();
    if mode.is_functional() {
        p.a.upload(&mut machine, &fill_matrix(m * k, 1)).unwrap();
        p.b.upload(&mut machine, &fill_matrix(k * n, 2)).unwrap();
        p.c.upload(&mut machine, &fill_matrix(m * n, 3)).unwrap();
    }
    (machine, p)
}

/// Every element within `2k·ε` of its product mass `|c₀| + Σ|a||b|` of
/// the f64 result.
fn assert_matches_reference(shape: &GemmShape, got: &[f32], what: &str) {
    let (m, n, k) = (shape.m, shape.n, shape.k);
    let (a, b, c) = (
        fill_matrix(m * k, 1),
        fill_matrix(k * n, 2),
        fill_matrix(m * n, 3),
    );
    let tol = 2.0 * k as f64 * f64::from(f32::EPSILON);
    for i in 0..m {
        for j in 0..n {
            let (mut want, mut mass) = (f64::from(c[i * n + j]), f64::from(c[i * n + j]).abs());
            for l in 0..k {
                let p = f64::from(a[i * k + l]) * f64::from(b[l * n + j]);
                want += p;
                mass += p.abs();
            }
            let err = (f64::from(got[i * n + j]) - want).abs();
            assert!(
                err <= tol * mass,
                "{what} {shape} C[{i}][{j}]: {err} > {tol} · {mass}"
            );
        }
    }
}

#[test]
fn auto_runs_and_is_correct_where_it_used_to_overrun_sm() {
    let ft = FtImm::new(HwConfig::default());
    for (m, n, k) in FIXTURES {
        let shape = GemmShape::new(m, n, k);
        for mode in [ExecMode::Fast, ExecMode::Compiled] {
            let (mut machine, p) = staged(ft.cfg(), &shape, mode);
            let (_, plan) = ft
                .gemm(&mut machine, &p, Strategy::Auto, 8)
                .unwrap_or_else(|e| panic!("{shape} {mode:?}: {e}"));
            assert!(fits(ft.cfg(), &plan.strategy, &shape, 8), "{plan:?}");
            let c = p.c.download(&mut machine).unwrap();
            assert_matches_reference(&shape, &c, mode.tag());
        }
    }
}

#[test]
fn tuned_plans_run_where_they_used_to_overrun_sm() {
    let ft = FtImm::new(HwConfig::default());
    for (m, n, k) in FIXTURES {
        let shape = GemmShape::new(m, n, k);
        let tuned = ft.tune(&shape, 8, &TuneConfig::default()).plan;
        assert!(tuned.simulated_s.is_finite(), "{tuned:?}");
        let (mut machine, p) = staged(ft.cfg(), &shape, ExecMode::Compiled);
        ft.run_plan(&mut machine, &p, &tuned.strategy, 8)
            .unwrap_or_else(|e| panic!("{shape} tuned {:?}: {e}", tuned.strategy));
    }
}

/// A small machine — 2 KiB SM, 24 KiB AM, 16 KiB GSM, 4 cores — on which
/// small shapes and blocks overrun every scratchpad.
fn small_machine() -> &'static FtImm {
    static FT: OnceLock<FtImm> = OnceLock::new();
    FT.get_or_init(|| {
        FtImm::new(HwConfig {
            cores_per_cluster: 4,
            sm_bytes: 2 << 10,
            am_bytes: 24 << 10,
            gsm_bytes: 16 << 10,
            ..HwConfig::default()
        })
    })
}

fn default_machine() -> &'static FtImm {
    static FT: OnceLock<FtImm> = OnceLock::new();
    FT.get_or_init(|| FtImm::new(HwConfig::default()))
}

/// A block size around `scale`: small, near it, or a few times past it.
fn block(draw: (usize, usize), scale: usize) -> usize {
    let (kind, x) = draw;
    match kind {
        0 => 1 + x % 8,
        1 => 1 + x % scale.max(1),
        _ => scale.max(1) * (1 + x % 4) + x % 7,
    }
}

/// One exactness case: random M-par or K-par blocks (or TGEMM's fixed
/// ones, one case in five) for a small shape, two cases in three on the
/// small machine.
struct Case {
    ft: &'static FtImm,
    strategy: ChosenStrategy,
    shape: GemmShape,
    cores: usize,
}

impl Case {
    fn footprint(&self) -> Footprint {
        let cores = self.cores.clamp(1, self.ft.cfg().cores_per_cluster);
        let s = &self.shape;
        Walk::new(&self.strategy, s.m, s.n, s.k, cores).footprint()
    }

    /// The scratchpad a functional and a timing run on a `cfg` machine
    /// overran (they must agree), `None` if both succeeded; any other
    /// error fails the test.
    fn overrun(&self, cfg: &HwConfig) -> Option<&'static str> {
        let what = format!(
            "{:?} on {} × {} cores, {cfg:?}",
            self.strategy, self.shape, self.cores
        );
        let [functional, timing] = [ExecMode::Fast, ExecMode::Timing].map(|mode| {
            let (mut machine, p) = staged(cfg, &self.shape, mode);
            match self
                .ft
                .run_plan(&mut machine, &p, &self.strategy, self.cores)
            {
                Ok(_) => None,
                Err(FtimmError::Sim(SimError::OutOfBounds { region, .. })) if region != "DDR" => {
                    Some(region)
                }
                Err(e) => panic!("{what}: not a scratchpad overrun: {e}"),
            }
        });
        assert_eq!(functional, timing, "functional vs timing: {what}");
        functional
    }
}

fn arb_case() -> impl proptest::strategy::Strategy<Value = Case> {
    let draw = || (0usize..3, 0usize..4096);
    (
        (0usize..3, 0usize..5, 1usize..9),
        (1usize..96, 1usize..97, 1usize..160),
        (draw(), draw(), draw()),
        (1usize..97, draw(), 1usize..15),
    )
        .prop_map(
            |((small, kind, cores), (m, n, k), (g0, g1, m_a), (n_a, k_a, m_s))| {
                let ft = if small > 0 {
                    small_machine()
                } else {
                    default_machine()
                };
                let cfg = ft.cfg();
                // Scales: half and a quarter of the AM rows at this width,
                // and the B_g depth that fills GSM.
                let rows = cfg.am_bytes / (4 * n_a.div_ceil(32) * 32);
                let (m_a, k_a) = (block(m_a, rows / 2), block(k_a, rows / 4));
                let strategy = match kind {
                    0 | 1 => ChosenStrategy::MPar(MparBlocks {
                        n_g: block(g0, n),
                        k_g: block(g1, cfg.gsm_bytes / (8 * n)),
                        m_a,
                        n_a,
                        k_a,
                        m_s,
                    }),
                    2 | 3 => ChosenStrategy::KPar(KparBlocks {
                        m_g: block(g0, m),
                        n_g: block(g1, n),
                        m_a,
                        n_a,
                        k_a,
                        m_s,
                    }),
                    _ => ChosenStrategy::TGemm,
                };
                // TGEMM's A_g groups are 512 deep: give it two.
                let k = if kind == 4 { k + 512 } else { k };
                Case {
                    ft,
                    strategy,
                    shape: GemmShape::new(m, n, k),
                    cores,
                }
            },
        )
}

const EXACTNESS_CASES: u32 = 160;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(EXACTNESS_CASES))]

    #[test]
    fn fits_is_exactly_what_runs(case in arb_case()) {
        let (cfg, f) = (case.ft.cfg(), case.footprint());
        prop_assert_eq!(case.overrun(cfg).is_none(), f.fits(cfg), "{:?}", f);
        // Tight: scratchpads that end at the footprint hold the run, and
        // a word less of any one of them is overrun there.
        let tight = HwConfig {
            sm_bytes: f.sm as usize,
            am_bytes: f.am as usize,
            gsm_bytes: f.gsm as usize,
            ..cfg.clone()
        };
        prop_assert_eq!(case.overrun(&tight), None, "{:?}", f);
        for (region, short) in [
            ("SM", HwConfig { sm_bytes: tight.sm_bytes - 4, ..tight.clone() }),
            ("AM", HwConfig { am_bytes: tight.am_bytes - 4, ..tight.clone() }),
            ("GSM", HwConfig { gsm_bytes: tight.gsm_bytes - 4, ..tight.clone() }),
        ] {
            prop_assert_eq!(case.overrun(&short), Some(region), "{:?}", f);
        }
    }
}

/// The exactness cases are not all on one side of the predicate: the
/// generator, drawn as the property test draws it, fits and overruns each
/// of SM, AM and GSM in a fair share of its cases.
#[test]
fn exactness_cases_overrun_every_scratchpad() {
    let mut rng = TestRng::deterministic("fits_is_exactly_what_runs");
    let mut seen = [0u32; 4];
    for _ in 0..EXACTNESS_CASES {
        let case = arb_case().generate(&mut rng);
        let (f, cfg) = (case.footprint(), case.ft.cfg());
        let over = [
            f.fits(cfg),
            f.sm > cfg.sm_bytes as u64,
            f.am > cfg.am_bytes as u64,
            f.gsm > cfg.gsm_bytes as u64,
        ];
        for (n, hit) in seen.iter_mut().zip(over) {
            *n += u32::from(hit);
        }
    }
    assert!(
        seen.iter().all(|&n| n >= EXACTNESS_CASES / 16),
        "fits/SM/AM/GSM: {seen:?}"
    );
}
