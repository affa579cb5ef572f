//! K-means on the DSP cluster: the distance step of Lloyd's algorithm is
//! a type-1 irregular GEMM (samples ≫ centroids ≈ dims).  Runs the
//! cross-product GEMM functionally on the simulated cluster, assigns
//! points, and compares ftIMM with the TGEMM baseline on the same shape.
//!
//! Run: `cargo run --release --example kmeans`

use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::{ChosenStrategy, FtImm, GemmProblem, Strategy};
use workloads::KmeansInstance;

fn main() {
    let inst = KmeansInstance::generate(16384, 16, 32, 2026);
    let shape = inst.gemm_shape();
    println!(
        "k-means: {} samples, {} centroids, {} dims -> GEMM {} ({})",
        inst.samples,
        inst.k,
        inst.dims,
        shape,
        shape.classify()
    );

    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(ExecMode::Compiled);
    let p = GemmProblem::alloc(&mut machine, shape.m, shape.n, shape.k).unwrap();
    p.a.upload(&mut machine, &inst.points).unwrap();
    p.b.upload(&mut machine, &inst.centroids_t()).unwrap();
    p.c.upload(&mut machine, &vec![0.0; shape.m * shape.n])
        .unwrap();

    let (report, plan) = ft.gemm(&mut machine, &p, Strategy::Auto, 8).unwrap();
    let xc = p.c.download(&mut machine).unwrap();
    let assignment = inst.assign(&xc);
    let recovered = assignment
        .iter()
        .enumerate()
        .filter(|(s, &c)| c == s % inst.k)
        .count();

    println!("plan              : {plan:?}");
    println!("simulated time    : {:.3} ms", report.seconds * 1e3);
    println!("performance       : {:.1} GFLOPS", report.gflops());
    println!(
        "cluster recovery  : {recovered}/{} points ({:.1}%)",
        inst.samples,
        100.0 * recovered as f64 / inst.samples as f64
    );

    // Compare against the traditional baseline on the same shape.
    let t_tgemm = ft.predict_seconds(&shape, &ChosenStrategy::TGemm, 8);
    println!(
        "TGEMM baseline    : {:.3} ms  ->  ftIMM speedup {:.2}x",
        t_tgemm * 1e3,
        t_tgemm / report.seconds
    );
    assert!(recovered as f64 > 0.9 * inst.samples as f64);
}
