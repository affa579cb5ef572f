//! Property-based tests over the whole stack: for arbitrary (small)
//! shapes and strategies, the simulated GEMM must match the host
//! reference; generated kernels must be hazard-free and bit-stable
//! across execution modes; the timing model must be deterministic.

use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::reference::{fill_matrix, sgemm_f64};
use ftimm::{FtImm, GemmProblem, GemmShape, Strategy};
use proptest::prelude::*;

fn run(
    m: usize,
    n: usize,
    k: usize,
    strategy: Strategy,
    cores: usize,
    mode: ExecMode,
) -> (Vec<f32>, f64) {
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(mode);
    let p = GemmProblem::alloc(&mut machine, m, n, k).unwrap();
    if mode.is_functional() {
        p.a.upload(&mut machine, &fill_matrix(m * k, 11)).unwrap();
        p.b.upload(&mut machine, &fill_matrix(k * n, 12)).unwrap();
        p.c.upload(&mut machine, &fill_matrix(m * n, 13)).unwrap();
    }
    let (report, _) = ft.gemm(&mut machine, &p, strategy, cores).unwrap();
    let c = if mode.is_functional() {
        p.c.download(&mut machine).unwrap()
    } else {
        Vec::new()
    };
    (c, report.seconds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compiled_mode_matches_f64_reference(
        m in 1usize..200,
        n in 1usize..97,
        k in 1usize..200,
        cores in 1usize..9,
        pick in 0usize..3,
    ) {
        let strategy = [Strategy::MPar, Strategy::KPar, Strategy::TGemm][pick];
        let (c, _) = run(m, n, k, strategy, cores, ExecMode::Compiled);
        let want = sgemm_f64(
            m, n, k,
            &fill_matrix(m * k, 11),
            &fill_matrix(k * n, 12),
            &fill_matrix(m * n, 13),
        );
        for i in 0..m * n {
            let tol = 2e-3 * want[i].abs().max(1.0);
            prop_assert!(
                (c[i] as f64 - want[i]).abs() <= tol,
                "{m}x{n}x{k} {strategy:?} cores={cores} elem {i}: {} vs {}",
                c[i], want[i]
            );
        }
    }

    #[test]
    fn interpret_equals_compiled_bitwise(
        m in 1usize..48,
        n in 1usize..97,
        k in 1usize..64,
        pick in 0usize..2,
    ) {
        let strategy = [Strategy::MPar, Strategy::KPar][pick];
        let (cc, tc) = run(m, n, k, strategy, 2, ExecMode::Compiled);
        let (ci, ti) = run(m, n, k, strategy, 2, ExecMode::Interpret);
        prop_assert_eq!(cc.len(), ci.len());
        for i in 0..cc.len() {
            prop_assert_eq!(cc[i].to_bits(), ci[i].to_bits(), "elem {}", i);
        }
        prop_assert!((tc - ti).abs() < 1e-15);
    }

    #[test]
    fn timing_model_is_deterministic_and_positive(
        m in 1usize..3000,
        n in 1usize..97,
        k in 1usize..3000,
    ) {
        let shape = GemmShape::new(m, n, k);
        let ft = FtImm::new(HwConfig::default());
        let plan = ft.plan(&shape, Strategy::Auto, 8);
        let t1 = ft.predict_seconds(&shape, &plan, 8);
        let t2 = ft.predict_seconds(&shape, &plan, 8);
        prop_assert!(t1 > 0.0);
        prop_assert_eq!(t1.to_bits(), t2.to_bits());
        // Never faster than the compute peak allows.
        let min = shape.flops() as f64 / ft.cfg().cluster_peak_flops();
        prop_assert!(t1 >= min * 0.999, "{} < peak-bound {}", t1, min);
    }
}
