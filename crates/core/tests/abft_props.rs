//! ABFT coverage through the public resilient entry point.
//!
//! * A row or column whose pre-run checksum mass is beyond half the f32
//!   range (an infinite, NaN or near-overflow operand) cannot be checked by a
//!   sum: its legitimate result is reported as it is, not as corruption,
//!   and corruption in the rows that *can* be checked is still caught.
//! * Operands that are strided views of larger matrices (`ld > cols`, a
//!   non-zero offset) run resilient ≡ plain, bit for bit, and recover
//!   from a DMA corruption bit for bit too.

use dspsim::{DmaPath, ExecMode, FaultPlan, HwConfig, Machine};
use ftimm::reference::fill_matrix;
use ftimm::{run_resilient, DdrMatrix, FtImm, GemmProblem, GemmShape, ResilienceConfig, Strategy};

const CORES: usize = 4;

/// `64×24×48` with stock operands, `a[5][3]` replaced by `poison`.
fn poisoned(m: &mut Machine, poison: Option<f32>) -> GemmProblem {
    let (mm, nn, kk) = (64, 24, 48);
    let p = GemmProblem::alloc(m, mm, nn, kk).unwrap();
    let mut a = fill_matrix(mm * kk, 1);
    if let Some(v) = poison {
        a[5 * kk + 3] = v;
    }
    p.a.upload(m, &a).unwrap();
    p.b.upload(m, &fill_matrix(kk * nn, 2)).unwrap();
    p.c.upload(m, &fill_matrix(mm * nn, 3)).unwrap();
    p
}

/// Assert two `C`s carry the same bits, naming the first that differs.
/// Recovered runs are held to it too: recovery re-runs whole units of
/// the walk, so a recovered `C` is a fault-free one bit for bit.
fn same_bits(got: &[f32], want: &[f32], case: &str) {
    assert_eq!(got.len(), want.len(), "{case}");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{case}: C[{i}] = {} vs {}", got[i], want[i]);
    }
}

fn plan(ft: &FtImm, p: &GemmProblem, strategy: Strategy) -> ftimm::ChosenStrategy {
    ft.plan(&GemmShape::new(p.m(), p.n(), p.k()), strategy, CORES)
}

/// `C` of a plain (unwrapped) run, and its simulated seconds.
fn plain_run(ft: &FtImm, poison: Option<f32>) -> (Vec<f32>, f64) {
    let mut m = Machine::with_mode(ExecMode::Compiled);
    let p = poisoned(&mut m, poison);
    let rep = ft
        .run_plan(&mut m, &p, &plan(ft, &p, Strategy::MPar), CORES)
        .unwrap();
    (p.c.download(&mut m).unwrap(), rep.seconds)
}

const POISONS: [f32; 3] = [f32::INFINITY, f32::NAN, 3e38];

#[test]
fn non_finite_results_are_not_reported_as_corruption() {
    let ft = FtImm::new(HwConfig::default());
    for poison in POISONS {
        let (want, plain_s) = plain_run(&ft, Some(poison));
        assert!(
            want[5 * 24..6 * 24].iter().any(|c| !c.is_finite()),
            "{poison}: row 5 should leave the f32 range"
        );
        for ckpt_rows in [0, 16] {
            let mut m = Machine::with_mode(ExecMode::Compiled);
            let p = poisoned(&mut m, Some(poison));
            let rcfg = ResilienceConfig {
                max_retries: 0,
                ckpt_rows,
                ..ResilienceConfig::default()
            };
            let rep = run_resilient(
                &ft,
                &mut m,
                &p,
                &plan(&ft, &p, Strategy::MPar),
                CORES,
                &rcfg,
            )
            .unwrap_or_else(|e| panic!("{poison} ckpt {ckpt_rows}: {e}"));
            assert_eq!(rep.faults.retries, 0);
            let case = format!("{poison} ckpt {ckpt_rows}");
            same_bits(&p.c.download(&mut m).unwrap(), &want, &case);
            if ckpt_rows == 0 {
                assert_eq!(rep.seconds.to_bits(), plain_s.to_bits());
            }
        }
    }
}

#[test]
fn corruption_in_a_checked_row_is_recovered_beside_an_unchecked_one() {
    let ft = FtImm::new(HwConfig::default());
    let (want, _) = plain_run(&ft, Some(f32::INFINITY));
    for (path, nth) in [(DmaPath::DdrToAm, 2), (DmaPath::DdrToSm, 3)] {
        for ckpt_rows in [0, 16] {
            let mut m = Machine::with_mode(ExecMode::Compiled);
            let p = poisoned(&mut m, Some(f32::INFINITY));
            m.install_faults(&FaultPlan::new(9).corrupt_dma(path, nth));
            let rcfg = ResilienceConfig {
                ckpt_rows,
                ..ResilienceConfig::default()
            };
            let rep = run_resilient(
                &ft,
                &mut m,
                &p,
                &plan(&ft, &p, Strategy::MPar),
                CORES,
                &rcfg,
            )
            .unwrap();
            let case = format!("{path:?} #{nth} ckpt {ckpt_rows}");
            assert_eq!(rep.faults.dma_corruptions, 1, "{case}");
            assert!(
                rep.faults.retries >= 1,
                "{case}: the corruption went unseen"
            );
            same_bits(&p.c.download(&mut m).unwrap(), &want, &case);
        }
    }
}

/// Each operand a view at `(2, 3)` of a matrix 3 rows and 5 columns
/// larger, whose other words hold NaN.
fn strided(m: &mut Machine, (mm, nn, kk): (usize, usize, usize)) -> GemmProblem {
    let mut operand = |rows: usize, cols: usize, seed: u32| {
        let full = DdrMatrix::alloc(m, rows + 3, cols + 5).unwrap();
        full.upload(m, &vec![f32::NAN; full.rows * full.cols])
            .unwrap();
        let v = full.view(2, 3, rows, cols);
        v.upload(m, &fill_matrix(rows * cols, seed)).unwrap();
        v
    };
    GemmProblem {
        a: operand(mm, kk, 1),
        b: operand(kk, nn, 2),
        c: operand(mm, nn, 3),
    }
}

#[test]
fn strided_views_run_resilient_as_plain_and_recover_bitwise() {
    let ft = FtImm::new(HwConfig::default());
    let mut recoveries = 0;
    for shape in [(1, 1, 1), (37, 24, 48), (70, 17, 33), (9, 1, 130)] {
        let mut m = Machine::with_mode(ExecMode::Compiled);
        let p = strided(&mut m, shape);
        let chosen = plan(&ft, &p, Strategy::Auto);
        ft.run_plan(&mut m, &p, &chosen, CORES).unwrap();
        let want = p.c.download(&mut m).unwrap();
        for ckpt_rows in [0, 8] {
            for fault in [
                None,
                Some(FaultPlan::new(4).corrupt_dma(DmaPath::DdrToAm, 1)),
            ] {
                let mut m = Machine::with_mode(ExecMode::Compiled);
                let p = strided(&mut m, shape);
                if let Some(f) = &fault {
                    m.install_faults(f);
                }
                let rcfg = ResilienceConfig {
                    ckpt_rows,
                    ..ResilienceConfig::default()
                };
                let rep = run_resilient(&ft, &mut m, &p, &chosen, CORES, &rcfg).unwrap();
                let case = format!("{shape:?} ckpt {ckpt_rows} fault {}", fault.is_some());
                let got = p.c.download(&mut m).unwrap();
                same_bits(&got, &want, &case);
                recoveries += usize::from(rep.faults.retries > 0);
            }
        }
    }
    assert!(
        recoveries >= 4,
        "only {recoveries} runs detected their corruption"
    );
}
