//! Quickstart: multiply a tall-and-skinny matrix by a small one on the
//! simulated GPDSP cluster and verify the result.
//!
//! Run: `cargo run --release --example quickstart`

use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::reference::{fill_matrix, sgemm_f64};
use ftimm::{FtImm, GemmProblem, Strategy};

fn main() {
    // A type-1 irregular GEMM: 8192×32×48 (M ≫ K ≈ N).
    let (m, n, k) = (8192, 32, 48);

    // 1. Build the library context and a functional machine.
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(ExecMode::Compiled);

    // 2. Place the operands in simulated DDR.
    let p = GemmProblem::alloc(&mut machine, m, n, k).expect("DDR allocation");
    let a = fill_matrix(m * k, 1);
    let b = fill_matrix(k * n, 2);
    let c0 = vec![0.0f32; m * n];
    p.a.upload(&mut machine, &a).unwrap();
    p.b.upload(&mut machine, &b).unwrap();
    p.c.upload(&mut machine, &c0).unwrap();

    // 3. C += A×B with dynamic adjusting on all 8 DSP cores.
    let (report, plan) = ft.gemm(&mut machine, &p, Strategy::Auto, 8).expect("gemm");

    // 4. Verify against an f64 reference.
    let c = p.c.download(&mut machine).unwrap();
    let want = sgemm_f64(m, n, k, &a, &b, &c0);
    let worst = c
        .iter()
        .zip(&want)
        .map(|(&g, &w)| (g as f64 - w).abs() / w.abs().max(1.0))
        .fold(0.0f64, f64::max);

    println!("shape         : {m}x{n}x{k}");
    println!("plan          : {plan:?}");
    println!("simulated time: {:.3} ms", report.seconds * 1e3);
    println!("performance   : {:.1} GFLOPS (simulated)", report.gflops());
    println!(
        "efficiency    : {:.1}% of the 2764.8 GFLOPS cluster peak",
        100.0 * report.efficiency(ft.cfg().cluster_peak_flops())
    );
    println!(
        "DDR traffic   : {:.2} MiB",
        report.totals.ddr_bytes as f64 / (1 << 20) as f64
    );
    println!("kernel calls  : {}", report.totals.kernel_calls);
    println!("max rel error : {worst:.2e}");
    assert!(worst < 1e-4, "verification failed");
    println!("verified      : OK");
}
