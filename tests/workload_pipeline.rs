//! Cross-crate integration: real workloads (k-means, im2col convolution,
//! FEM batches) driven through the full simulated stack — DDR upload,
//! DMA through GSM/SM/AM, generated-kernel execution, download — and
//! validated numerically.

use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::reference::sgemm_naive;
use ftimm::{FtImm, GemmProblem, Strategy};
use workloads::{ConvLayer, FemBatch, KmeansInstance, MatrixGen};

/// Run a workload GEMM functionally; return the result matrix.
fn run_gemm(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, cores: usize) -> Vec<f32> {
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(ExecMode::Compiled);
    let p = GemmProblem::alloc(&mut machine, m, n, k).unwrap();
    p.a.upload(&mut machine, a).unwrap();
    p.b.upload(&mut machine, b).unwrap();
    p.c.upload(&mut machine, &vec![0.0; m * n]).unwrap();
    ft.gemm(&mut machine, &p, Strategy::Auto, cores).unwrap();
    p.c.download(&mut machine).unwrap()
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[test]
fn kmeans_distance_step_on_the_cluster() {
    let inst = KmeansInstance::generate(2000, 8, 16, 99);
    let shape = inst.gemm_shape();
    let xc = run_gemm(
        &inst.points,
        &inst.centroids_t(),
        shape.m,
        shape.n,
        shape.k,
        8,
    );
    // Reference cross products.
    let mut want = vec![0.0f32; shape.m * shape.n];
    sgemm_naive(
        shape.m,
        shape.n,
        shape.k,
        &inst.points,
        &inst.centroids_t(),
        &mut want,
    );
    assert!(max_abs_diff(&xc, &want) < 1e-2);
    // And the assignment recovered from the simulated result is sane.
    let assignment = inst.assign(&xc);
    let recovered = assignment
        .iter()
        .enumerate()
        .filter(|(s, &c)| c == s % inst.k)
        .count();
    assert!(recovered * 10 > inst.samples * 9, "{recovered}");
}

#[test]
fn vgg_style_layer_through_im2col() {
    let layer = ConvLayer {
        name: "itest",
        c_in: 4,
        c_out: 24,
        hw: 12,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let shape = layer.gemm_shape(2);
    let mut gen = MatrixGen::new(5);
    let input = gen.matrix(2 * layer.c_in, layer.hw * layer.hw);
    let cols = layer.im2col(2, &input);
    let weights = gen.matrix(shape.k, shape.n);
    let got = run_gemm(&cols, &weights, shape.m, shape.n, shape.k, 8);
    let mut want = vec![0.0f32; shape.m * shape.n];
    sgemm_naive(shape.m, shape.n, shape.k, &cols, &weights, &mut want);
    assert!(max_abs_diff(&got, &want) < 1e-3);
}

#[test]
fn fem_batch_is_computed_correctly() {
    let batch = FemBatch::generate(300, 10, 10, 4, 3);
    let shape = batch.gemm_shape();
    let got = run_gemm(
        &batch.elements,
        &batch.operator,
        shape.m,
        shape.n,
        shape.k,
        8,
    );
    let mut want = vec![0.0f32; shape.m * shape.n];
    sgemm_naive(
        shape.m,
        shape.n,
        shape.k,
        &batch.elements,
        &batch.operator,
        &mut want,
    );
    assert!(max_abs_diff(&got, &want) < 1e-3);
}

#[test]
fn host_openblas_baseline_agrees_with_cluster_result() {
    // The Fig-7 comparator computes the same math.
    let inst = KmeansInstance::generate(512, 8, 16, 1);
    let shape = inst.gemm_shape();
    let dsp = run_gemm(
        &inst.points,
        &inst.centroids_t(),
        shape.m,
        shape.n,
        shape.k,
        8,
    );
    let mut cpu = vec![0.0f32; shape.m * shape.n];
    cpublas::sgemm(
        shape.m,
        shape.n,
        shape.k,
        &inst.points,
        &inst.centroids_t(),
        &mut cpu,
        8,
    );
    assert!(max_abs_diff(&dsp, &cpu) < 1e-2);
}
