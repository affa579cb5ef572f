//! Kernel explorer: generate micro-kernels for a set of shapes, print
//! their tiling decisions, pipeline tables, efficiency and (for one
//! kernel) the full generated assembly.
//!
//! Run: `cargo run --release --example kernel_explorer`

use dspsim::HwConfig;
use ftimm_isa::PipelineTable;
use kernelgen::{KernelSpec, MicroKernel};

fn main() {
    let cfg = HwConfig::default();

    println!(
        "{:>4} {:>5} {:>4}  {:>4} {:>4} {:>3}  {:>8} {:>10} {:>10}",
        "m_s", "k_a", "n_a", "m_u", "k_u", "II", "cycles", "efficiency", "upper-bound"
    );
    for (m_s, k_a, n_a) in [
        (6, 512, 96),
        (6, 512, 64),
        (6, 512, 32),
        (8, 864, 96),
        (14, 512, 96),
        (6, 32, 96),
        (5, 77, 80),
        (3, 100, 16),
    ] {
        let spec = KernelSpec::new(m_s, k_a, n_a).unwrap();
        let k = MicroKernel::generate(spec, &cfg).unwrap();
        let b = &k.blocks[0];
        println!(
            "{:>4} {:>5} {:>4}  {:>4} {:>4} {:>3}  {:>8} {:>9.1}% {:>9.1}%",
            m_s,
            k_a,
            n_a,
            b.m_u,
            b.k_u,
            b.ii,
            k.cycles,
            100.0 * k.efficiency(&cfg),
            100.0 * k.upper_bound
        );
    }

    // Show the steady-state pipeline of the Table-I kernel.
    let spec = KernelSpec::new(6, 512, 96).unwrap();
    let kernel = MicroKernel::generate_forced(spec, 6, 1, &cfg).unwrap();
    println!();
    if let Some(table) = PipelineTable::from_innermost_loop(
        "Steady-state body of uk_ms6_ka512_na96:",
        kernel.program(),
    ) {
        print!("{table}");
        println!("FMAC occupancy: {:.1}%", 100.0 * table.fmac_occupancy());
    }

    // Static analysis report of the Table-I kernel.
    println!("\n{}", kernelgen::KernelReport::analyse(&kernel));

    // And a compact kernel's complete assembly listing.
    let tiny = MicroKernel::generate(KernelSpec::new(2, 4, 32).unwrap(), &cfg).unwrap();
    println!(
        "\nFull assembly of uk_ms2_ka4_na32 ({} cycles):\n",
        tiny.cycles
    );
    print!("{}", tiny.program());
}
