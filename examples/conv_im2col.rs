//! CNN inference layers as irregular GEMMs: every VGG-16 convolution is
//! lowered with im2col and evaluated on the simulated cluster's timing
//! model (ftIMM vs TGEMM); one small layer is additionally executed
//! functionally and validated against direct convolution-by-GEMM on the
//! host.
//!
//! Run: `cargo run --release --example conv_im2col`

use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::reference::sgemm_naive;
use ftimm::{ChosenStrategy, FtImm, GemmProblem, Strategy};
use workloads::{vgg16_layers, ConvLayer, MatrixGen};

fn main() {
    let ft = FtImm::new(HwConfig::default());
    let batch = 1;

    println!(
        "{:<10} {:>16} {:>12} {:>10} {:>10} {:>8}",
        "layer", "GEMM MxNxK", "type", "ftIMM GF", "TGEMM GF", "speedup"
    );
    for layer in vgg16_layers() {
        let shape = layer.gemm_shape(batch);
        let plan = ft.plan(&shape, Strategy::Auto, 8);
        let t = ft.predict_seconds(&shape, &plan, 8);
        let t_tg = ft.predict_seconds(&shape, &ChosenStrategy::TGemm, 8);
        let gf = |t: f64| shape.flops() as f64 / t / 1e9;
        let tag = match shape.classify() {
            ftimm::IrregularType::TallSkinnyTimesSmall => "type-1",
            ftimm::IrregularType::SkinnyTallTimesTallSkinny => "type-2",
            ftimm::IrregularType::RegularTimesTallSkinny => "type-3",
            ftimm::IrregularType::Small => "small",
            ftimm::IrregularType::Regular => "regular",
        };
        println!(
            "{:<10} {:>16} {:>12} {:>10.1} {:>10.1} {:>7.2}x",
            layer.name,
            shape.to_string(),
            tag,
            gf(t),
            gf(t_tg),
            t_tg / t
        );
    }

    // Functional validation on a small custom layer.
    let layer = ConvLayer {
        name: "demo",
        c_in: 8,
        c_out: 16,
        hw: 16,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let shape = layer.gemm_shape(1);
    let mut gen = MatrixGen::new(7);
    let input = gen.matrix(layer.c_in, layer.hw * layer.hw);
    let cols = layer.im2col(1, &input);
    // Weights as K×N (already transposed for C = cols × W).
    let weights = gen.matrix(shape.k, shape.n);

    let mut machine = Machine::with_mode(ExecMode::Compiled);
    let p = GemmProblem::alloc(&mut machine, shape.m, shape.n, shape.k).unwrap();
    p.a.upload(&mut machine, &cols).unwrap();
    p.b.upload(&mut machine, &weights).unwrap();
    p.c.upload(&mut machine, &vec![0.0; shape.m * shape.n])
        .unwrap();
    ft.gemm(&mut machine, &p, Strategy::Auto, 8).unwrap();
    let got = p.c.download(&mut machine).unwrap();

    let mut want = vec![0.0f32; shape.m * shape.n];
    sgemm_naive(shape.m, shape.n, shape.k, &cols, &weights, &mut want);
    let worst = got
        .iter()
        .zip(&want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f32, f32::max);
    println!(
        "\nfunctional check on {}: max abs error {worst:.2e}",
        layer.name
    );
    assert!(worst < 1e-3);
}
