//! Determinism and reporting invariants across the stack.

use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::reference::fill_matrix;
use ftimm::{FtImm, GemmProblem, GemmShape, Strategy};

fn full_run(mode: ExecMode) -> (Vec<f32>, f64, u64) {
    let (m, n, k) = (700, 40, 300);
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(mode);
    let p = GemmProblem::alloc(&mut machine, m, n, k).unwrap();
    if mode.is_functional() {
        p.a.upload(&mut machine, &fill_matrix(m * k, 1)).unwrap();
        p.b.upload(&mut machine, &fill_matrix(k * n, 2)).unwrap();
        p.c.upload(&mut machine, &vec![0.0; m * n]).unwrap();
    }
    let (report, _) = ft.gemm(&mut machine, &p, Strategy::Auto, 8).unwrap();
    let c = if mode.is_functional() {
        p.c.download(&mut machine).unwrap()
    } else {
        Vec::new()
    };
    (c, report.seconds, report.totals.ddr_bytes)
}

#[test]
fn repeated_runs_are_bit_identical() {
    let (c1, t1, b1) = full_run(ExecMode::Compiled);
    let (c2, t2, b2) = full_run(ExecMode::Compiled);
    assert_eq!(t1.to_bits(), t2.to_bits());
    assert_eq!(b1, b2);
    for (x, y) in c1.iter().zip(&c2) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn ddr_traffic_has_a_sane_lower_bound() {
    // Every run must move at least A + B + C(read+write) over DDR.
    let (m, n, k) = (700usize, 40usize, 300usize);
    let (_, _, bytes) = full_run(ExecMode::Timing);
    let min = 4 * (m * k + k * n + 2 * m * n) as u64;
    assert!(bytes >= min, "{bytes} < {min}");
    // …and not absurdly more (reuse is working): under 8× the minimum.
    assert!(bytes < 8 * min, "{bytes} vs min {min}");
}

#[test]
fn report_efficiency_is_consistent() {
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(ExecMode::Timing);
    let p = GemmProblem::alloc(&mut machine, 4096, 32, 4096).unwrap();
    let (report, _) = ft.gemm(&mut machine, &p, Strategy::Auto, 8).unwrap();
    let peak = ft.cfg().cluster_peak_flops();
    let eff = report.efficiency(peak);
    assert!(eff > 0.0 && eff < 1.0, "{eff}");
    assert!((report.gflops() * 1e9 / peak - eff).abs() < 1e-12);
}

#[test]
fn stats_track_kernel_calls_and_flops() {
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(ExecMode::Timing);
    let p = GemmProblem::alloc(&mut machine, 512, 32, 512).unwrap();
    let (report, _) = ft.gemm(&mut machine, &p, Strategy::Auto, 8).unwrap();
    assert!(report.totals.kernel_calls > 0);
    // Executed (padded) flops are at least the useful flops.
    assert!(report.totals.flops >= p.flops());
    assert_eq!(report.cores_used, 8);
}

#[test]
fn modes_report_identical_traffic() {
    let (_, _, functional_bytes) = full_run(ExecMode::Compiled);
    let (_, _, timing_bytes) = full_run(ExecMode::Timing);
    assert_eq!(functional_bytes, timing_bytes);
}

#[test]
fn shape_display_round_trips_through_plan() {
    let ft = FtImm::new(HwConfig::default());
    let shape = GemmShape::new(1 << 14, 32, 64);
    let plan = ft.plan(&shape, Strategy::Auto, 8);
    let t = ft.predict_seconds(&shape, &plan, 8);
    assert!(t.is_finite() && t > 0.0);
}

/// FNV-1a of the assembly text of every program over a fixed kernel grid:
/// the three Tables I–III kernels, then `m_s` 1–14 × `n_a` around every
/// vector-width boundary × a short and a long `K`, each generated and
/// under forced `k_u` ∈ {1, 2, 4} (refusals hashed as their error).  Any
/// change to what the generator emits moves it.
#[test]
fn generated_programs_are_pinned() {
    use kernelgen::{KernelCache, KernelSpec};
    let cache = KernelCache::new(HwConfig::default());
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |text: &str| {
        for b in text.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    let mut programs = 0;
    for (n_a, m_u, k_u) in [(96, 6, 1), (64, 6, 2), (32, 6, 2)] {
        let spec = KernelSpec::new(6, 512, n_a).unwrap();
        eat(&cache
            .get_forced(spec, m_u, k_u)
            .unwrap()
            .program()
            .to_string());
        programs += 1;
    }
    for m_s in 1..=14 {
        for n_a in [1, 16, 32, 33, 64, 65, 96] {
            for k_a in [5, 512] {
                let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
                let auto = cache.get(spec).unwrap();
                eat(&auto.program().to_string());
                programs += 1;
                for k_u in [1, 2, 4] {
                    match cache.get_forced(spec, auto.blocks[0].m_u, k_u) {
                        Ok(k) => {
                            eat(&k.program().to_string());
                            programs += 1;
                        }
                        Err(e) => eat(&format!("{spec} k_u={k_u}: {e}")),
                    }
                }
            }
        }
    }
    assert_eq!(programs, 596);
    assert_eq!(hash, 0x1211_bfe1_0c5b_2705, "generated programs moved");
}
