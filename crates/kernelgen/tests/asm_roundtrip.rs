//! Generated kernels survive the assembly text round trip: rendering a
//! kernel program to assembly and re-parsing it yields a structurally
//! identical program whose interpretation is bit-identical.

use dspsim::{ExecMode, HwConfig, KernelBindings, Machine};
use ftimm_isa::asm;
use kernelgen::{KernelSpec, MicroKernel};

fn run(program: &ftimm_isa::Program, seed: u32, spec: KernelSpec) -> (Vec<f32>, u64) {
    let cfg = HwConfig::default();
    let ld = spec.na_pad();
    let fill = |n: usize, s: u32| -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(s);
                ((x % 999) as f32 - 499.0) / 64.0
            })
            .collect()
    };
    let mut m = Machine::new(cfg, ExecMode::Interpret);
    m.core_mut(0)
        .sm
        .write_f32_slice(0, &fill(spec.m_s * spec.k_a, seed))
        .unwrap();
    m.core_mut(0)
        .am
        .write_f32_slice(0, &fill(spec.k_a * ld, seed + 1))
        .unwrap();
    m.core_mut(0)
        .am
        .write_f32_slice(512 * 1024, &fill(spec.m_s * ld, seed + 2))
        .unwrap();
    let rep = m
        .run_kernel(
            0,
            program,
            KernelBindings {
                a_off: 0,
                b_off: 0,
                c_off: 512 * 1024,
            },
        )
        .unwrap();
    let mut c = vec![0.0f32; spec.m_s * ld];
    m.core_mut(0).am.read_f32_slice(512 * 1024, &mut c).unwrap();
    (c, rep.cycles)
}

#[test]
fn kernels_round_trip_through_assembly_text() {
    let cfg = HwConfig::default();
    for (m_s, k_a, n_a) in [
        (6, 64, 96),
        (6, 40, 64),
        (6, 33, 32),
        (5, 17, 80),
        (13, 20, 48),
    ] {
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        let kernel = MicroKernel::generate(spec, &cfg).unwrap();
        let text = asm::render(kernel.program());
        let reparsed = asm::parse(&text).unwrap_or_else(|e| panic!("{spec}: parse failed: {e}"));
        assert_eq!(kernel.program(), &reparsed, "{spec}: structural mismatch");

        // Execute both; results and cycle counts are identical.
        let (c1, cy1) = run(kernel.program(), 5, spec);
        let (c2, cy2) = run(&reparsed, 5, spec);
        assert_eq!(cy1, cy2);
        for (i, (x, y)) in c1.iter().zip(&c2).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{spec} element {i}");
        }
    }
}

#[test]
fn assembly_listings_are_human_scale() {
    // Program size is O(instructions of one block), independent of k_a:
    // the listing for k_a = 864 must not be ~100× the k_a = 8 listing.
    let cfg = HwConfig::default();
    let small = MicroKernel::generate(KernelSpec::new(6, 8, 96).unwrap(), &cfg).unwrap();
    let large = MicroKernel::generate(KernelSpec::new(6, 864, 96).unwrap(), &cfg).unwrap();
    let ls = asm::render(small.program()).lines().count();
    let ll = asm::render(large.program()).lines().count();
    assert!(ll < 4 * ls, "listing grows with k_a: {ls} vs {ll}");
    assert!(
        large.cycles > 50 * small.cycles / 2,
        "cycles do scale with k_a"
    );
}
