//! End-to-end functional validation: TGEMM, M-par and K-par runs through
//! the full simulated memory hierarchy must match the host reference, and
//! the three execution modes must agree with each other.

use dspsim::{ExecMode, HwConfig, Machine, RunReport};
use ftimm::reference::{assert_close, fill_matrix, sgemm_f64};
use ftimm::{FtImm, GemmProblem, GemmShape, Strategy};

struct Run {
    c: Vec<f32>,
    report: RunReport,
}

fn run(shape: (usize, usize, usize), strategy: Strategy, cores: usize, mode: ExecMode) -> Run {
    let (m, n, k) = shape;
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(mode);
    let p = GemmProblem::alloc(&mut machine, m, n, k).unwrap();
    p.a.upload(&mut machine, &fill_matrix(m * k, 1)).unwrap();
    p.b.upload(&mut machine, &fill_matrix(k * n, 2)).unwrap();
    p.c.upload(&mut machine, &fill_matrix(m * n, 3)).unwrap();
    let (report, _plan) = ft.gemm(&mut machine, &p, strategy, cores).unwrap();
    let c = if mode.is_functional() {
        p.c.download(&mut machine).unwrap()
    } else {
        Vec::new()
    };
    Run { c, report }
}

fn check_against_reference(shape: (usize, usize, usize), strategy: Strategy, cores: usize) {
    let (m, n, k) = shape;
    let got = run(shape, strategy, cores, ExecMode::Compiled);
    let want = sgemm_f64(
        m,
        n,
        k,
        &fill_matrix(m * k, 1),
        &fill_matrix(k * n, 2),
        &fill_matrix(m * n, 3),
    );
    // f32 accumulation error grows like √K for these cancellation-heavy
    // random fills; scale the tolerance accordingly.
    let rel = (1e-4 * (k as f64).sqrt()).max(1e-3);
    assert_close(m, n, &got.c, &want, rel);
}

#[test]
fn tgemm_matches_reference() {
    // Covers m_g/k_g interior and tails, padded N, multi-core N split.
    check_against_reference((600, 96, 520), Strategy::TGemm, 8);
    check_against_reference((64, 32, 64), Strategy::TGemm, 8);
    check_against_reference((513, 17, 700), Strategy::TGemm, 4);
    check_against_reference((512, 200, 512), Strategy::TGemm, 8); // N > 96
}

#[test]
fn mpar_matches_reference() {
    check_against_reference((1024, 32, 256), Strategy::MPar, 8);
    check_against_reference((512, 200, 512), Strategy::MPar, 8); // N > 96: column panels
    check_against_reference((333, 80, 100), Strategy::MPar, 8);
    check_against_reference((2048, 96, 64), Strategy::MPar, 8);
    check_against_reference((65, 1, 9), Strategy::MPar, 3);
}

#[test]
fn kpar_matches_reference() {
    check_against_reference((32, 32, 4096), Strategy::KPar, 8);
    check_against_reference((100, 17, 1000), Strategy::KPar, 8);
    check_against_reference((48, 96, 2048), Strategy::KPar, 4);
    check_against_reference((7, 5, 333), Strategy::KPar, 8);
}

#[test]
fn auto_strategy_matches_reference() {
    check_against_reference((4096, 32, 64), Strategy::Auto, 8);
    check_against_reference((32, 32, 8192), Strategy::Auto, 8);
    check_against_reference((2048, 48, 2048), Strategy::Auto, 8);
}

#[test]
fn single_core_runs_match_reference() {
    check_against_reference((512, 32, 512), Strategy::MPar, 1);
    check_against_reference((32, 16, 2048), Strategy::KPar, 1);
    check_against_reference((300, 96, 300), Strategy::TGemm, 1);
}

#[test]
fn interpret_and_compiled_agree_bitwise() {
    let shape = (96, 40, 160);
    for strategy in [Strategy::MPar, Strategy::KPar, Strategy::TGemm] {
        let host = run(shape, strategy, 3, ExecMode::Compiled);
        let interp = run(shape, strategy, 3, ExecMode::Interpret);
        assert_eq!(host.c.len(), interp.c.len());
        for (i, (x, y)) in host.c.iter().zip(&interp.c).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{strategy:?} element {i}: compiled {x} vs interp {y}"
            );
        }
        // Same simulated time in both functional modes.
        assert!(
            (host.report.seconds - interp.report.seconds).abs() < 1e-15,
            "{strategy:?}: {} vs {}",
            host.report.seconds,
            interp.report.seconds
        );
    }
}

/// The host path computes only the real columns (rounded up to the live
/// vector width); the interpreter fills whole 32-lane vectors.  Around
/// every width where that differs — one lane either side of 8, 16 and 32,
/// a second column panel past 96 — both must still produce the same C
/// bits and the same report (clock, traffic, kernel calls, flops), with
/// TGEMM's fixed padded kernels alongside the exact-width ones.
#[test]
fn compiled_matches_interpret_at_every_width_boundary() {
    for n in [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 80, 96, 100] {
        for strategy in [Strategy::MPar, Strategy::KPar, Strategy::TGemm] {
            let mut interp = run((37, n, 70), strategy, 3, ExecMode::Interpret);
            // Only the interpreter retires instructions.
            assert!(interp.report.totals.instructions > 0);
            interp.report.totals.instructions = 0;
            let host = run((37, n, 70), strategy, 3, ExecMode::Compiled);
            let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&host.c), bits(&interp.c), "N={n} {strategy:?}");
            assert_eq!(host.report, interp.report, "N={n} {strategy:?}");
        }
    }
}

#[test]
fn timing_mode_reproduces_functional_timing() {
    let shape = (512, 32, 512);
    for strategy in [Strategy::MPar, Strategy::KPar, Strategy::TGemm] {
        let functional = run(shape, strategy, 8, ExecMode::Compiled);
        let timing = run(shape, strategy, 8, ExecMode::Timing);
        assert!(
            (functional.report.seconds - timing.report.seconds).abs()
                <= 1e-12 * functional.report.seconds.max(1e-12),
            "{strategy:?}: functional {} vs timing {}",
            functional.report.seconds,
            timing.report.seconds
        );
    }
}

#[test]
fn auto_considers_mpar_beyond_n96() {
    // N = 128 spans only two 96-wide TGEMM chunks: 6 of 8 cores idle.
    // The extended Auto planner must not do worse than TGEMM there.
    let shape = GemmShape::new(4096, 128, 4096);
    let ft = FtImm::new(HwConfig::default());
    let plan = ft.plan(&shape, Strategy::Auto, 8);
    let t_auto = ft.predict_seconds(&shape, &plan, 8);
    let t_tg = ft.predict_seconds(&shape, &ftimm::ChosenStrategy::TGemm, 8);
    assert!(t_auto <= t_tg * 1.001, "auto {t_auto} vs tgemm {t_tg}");
}

#[test]
fn ftimm_beats_tgemm_on_small_n() {
    // The headline claim, at reduced scale: for N ≪ 96 ftIMM should
    // clearly outperform the padded fixed-kernel baseline.
    let shape = GemmShape::new(4096, 32, 512);
    let ft = FtImm::new(HwConfig::default());
    let t_ft = {
        let plan = ft.plan(&shape, Strategy::Auto, 8);
        ft.predict_seconds(&shape, &plan, 8)
    };
    let t_tg = ft.predict_seconds(&shape, &ftimm::ChosenStrategy::TGemm, 8);
    assert!(
        t_ft < t_tg,
        "ftIMM {t_ft}s should beat TGEMM {t_tg}s at N=32"
    );
}
