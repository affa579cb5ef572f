//! Sub-matrix views: running a GEMM on views of larger matrices must be
//! identical to running on extracted dense copies (exercises every
//! leading-dimension path through DMA descriptors).

use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::reference::fill_matrix;
use ftimm::{DdrMatrix, FtImm, GemmProblem, Strategy};

#[test]
fn gemm_on_views_equals_gemm_on_copies() {
    let ft = FtImm::new(HwConfig::default());
    // Big backing matrices; operate on interior windows.
    let (big_m, big_n, big_k) = (300, 120, 260);
    let (m, n, k) = (192, 40, 170);
    let (r0, c0) = (37, 11);

    let a_host = fill_matrix(big_m * big_k, 1);
    let b_host = fill_matrix(big_k * big_n, 2);

    // Run 1: views into the big matrices.
    let mut mv = Machine::with_mode(ExecMode::Compiled);
    let big_a = DdrMatrix::alloc(&mut mv, big_m, big_k).unwrap();
    let big_b = DdrMatrix::alloc(&mut mv, big_k, big_n).unwrap();
    let big_c = DdrMatrix::alloc(&mut mv, big_m, big_n).unwrap();
    big_a.upload(&mut mv, &a_host).unwrap();
    big_b.upload(&mut mv, &b_host).unwrap();
    big_c.upload(&mut mv, &vec![0.0; big_m * big_n]).unwrap();
    let pv = GemmProblem {
        a: big_a.view(r0, c0, m, k),
        b: big_b.view(c0, r0, k, n),
        c: big_c.view(r0, r0, m, n),
    };
    pv.validate().unwrap();
    ft.gemm(&mut mv, &pv, Strategy::Auto, 8).unwrap();
    let got_view = pv.c.download(&mut mv).unwrap();

    // Run 2: dense extracted copies.
    let extract = |src: &[f32], ld: usize, r0: usize, c0: usize, rows: usize, cols: usize| {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            out[r * cols..(r + 1) * cols]
                .copy_from_slice(&src[(r0 + r) * ld + c0..(r0 + r) * ld + c0 + cols]);
        }
        out
    };
    let mut md = Machine::with_mode(ExecMode::Compiled);
    let pd = GemmProblem::alloc(&mut md, m, n, k).unwrap();
    pd.a.upload(&mut md, &extract(&a_host, big_k, r0, c0, m, k))
        .unwrap();
    pd.b.upload(&mut md, &extract(&b_host, big_n, c0, r0, k, n))
        .unwrap();
    pd.c.upload(&mut md, &vec![0.0; m * n]).unwrap();
    ft.gemm(&mut md, &pd, Strategy::Auto, 8).unwrap();
    let got_dense = pd.c.download(&mut md).unwrap();

    assert_eq!(got_view.len(), got_dense.len());
    for (i, (x, y)) in got_view.iter().zip(&got_dense).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
    }
}

#[test]
fn view_does_not_clobber_surroundings() {
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(ExecMode::Compiled);
    let big_c = DdrMatrix::alloc(&mut machine, 64, 64).unwrap();
    let sentinel = fill_matrix(64 * 64, 9);
    big_c.upload(&mut machine, &sentinel).unwrap();

    let a = DdrMatrix::alloc(&mut machine, 16, 8).unwrap();
    let b = DdrMatrix::alloc(&mut machine, 8, 16).unwrap();
    a.upload(&mut machine, &fill_matrix(16 * 8, 1)).unwrap();
    b.upload(&mut machine, &fill_matrix(8 * 16, 2)).unwrap();
    let p = GemmProblem {
        a,
        b,
        c: big_c.view(24, 24, 16, 16),
    };
    ft.gemm(&mut machine, &p, Strategy::MPar, 4).unwrap();

    let after = big_c.download(&mut machine).unwrap();
    for r in 0..64 {
        for c in 0..64 {
            let inside = (24..40).contains(&r) && (24..40).contains(&c);
            if !inside {
                assert_eq!(
                    after[r * 64 + c].to_bits(),
                    sentinel[r * 64 + c].to_bits(),
                    "clobbered ({r},{c})"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "view out of bounds")]
fn oob_views_panic() {
    let mut machine = Machine::with_mode(ExecMode::Compiled);
    let m = DdrMatrix::alloc(&mut machine, 4, 4).unwrap();
    let _ = m.view(2, 2, 3, 1);
}
