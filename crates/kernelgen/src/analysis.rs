//! Static analysis of generated kernels: cycle breakdown, per-unit
//! utilisation and register pressure.  Used by `kernel_explorer` and the
//! tuning reports; also serves as an executable sanity check on the
//! generator's output (tests below assert analytic invariants).

use crate::MicroKernel;
use ftimm_isa::{Occupancy, Section, Unit, NUM_SREGS};
use std::fmt;

/// Cycle and instruction breakdown of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Total cycles (loops expanded).
    pub total_cycles: u64,
    /// Cycles spent inside the software-pipelined loop bodies.
    pub steady_cycles: u64,
    /// Cycles outside loops (prologue, drain, reduction, store).
    pub overhead_cycles: u64,
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Dynamic per-unit issue counts over the whole program.
    pub units: Occupancy,
    /// Distinct vector registers referenced.
    pub vregs_used: usize,
    /// Distinct scalar registers referenced.
    pub sregs_used: usize,
}

impl KernelReport {
    /// Analyse a kernel.
    pub fn analyse(kernel: &MicroKernel) -> Self {
        let program = kernel.program();
        let total_cycles = program.cycles();
        let steady_cycles = pipelined_cycles(&program.sections, false);
        // Bit `Reg::id` for every register the program names.
        let mut named = 0u128;
        program
            .visit::<std::convert::Infallible>(&mut |_idx, bundle| {
                for (_, inst) in bundle.slots() {
                    for r in inst.reads().chain(inst.writes()) {
                        named |= 1 << r.id();
                    }
                }
                Ok(())
            })
            .unwrap_or_else(|e| match e {});
        KernelReport {
            name: program.name.clone(),
            total_cycles,
            steady_cycles,
            overhead_cycles: total_cycles - steady_cycles,
            instructions: program.instructions(),
            units: Occupancy::of_program(program),
            vregs_used: (named >> NUM_SREGS).count_ones() as usize,
            sregs_used: (named & ((1 << NUM_SREGS) - 1)).count_ones() as usize,
        }
    }

    /// Fraction of cycles spent in steady state (amortisation quality).
    pub fn steady_fraction(&self) -> f64 {
        self.steady_cycles as f64 / self.total_cycles.max(1) as f64
    }
}

/// Cycles inside level-1 (kk) loops — the pipelined steady state.
fn pipelined_cycles(sections: &[Section], inside_kk: bool) -> u64 {
    sections
        .iter()
        .map(|s| match s {
            Section::Straight(b) => {
                if inside_kk {
                    b.len() as u64
                } else {
                    0
                }
            }
            Section::Loop { level, trips, body } => {
                let now_inside = inside_kk || level.0 >= 1;
                trips * pipelined_cycles(body, now_inside)
            }
        })
        .sum()
}

impl fmt::Display for KernelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel {}", self.name)?;
        writeln!(
            f,
            "  cycles: {} total = {} steady + {} overhead ({:.1}% steady)",
            self.total_cycles,
            self.steady_cycles,
            self.overhead_cycles,
            100.0 * self.steady_fraction()
        )?;
        writeln!(
            f,
            "  instructions: {}  registers: {} vector, {} scalar",
            self.instructions, self.vregs_used, self.sregs_used
        )?;
        for u in Unit::ALL
            .into_iter()
            .filter(|u| self.units.issued[u.index()] > 0)
        {
            writeln!(
                f,
                "  {:<20} {:>5.1}%",
                u.row_label(),
                100.0 * self.units.of(u)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelSpec, MicroKernel};
    use dspsim::HwConfig;

    fn kernel(m: usize, k: usize, n: usize) -> MicroKernel {
        MicroKernel::generate(KernelSpec::new(m, k, n).unwrap(), &HwConfig::default()).unwrap()
    }

    #[test]
    fn breakdown_sums_to_total() {
        let k = kernel(6, 512, 96);
        let r = KernelReport::analyse(&k);
        assert_eq!(r.total_cycles, k.cycles);
        assert_eq!(r.steady_cycles + r.overhead_cycles, r.total_cycles);
        assert!(r.steady_fraction() > 0.9, "{r}");
    }

    #[test]
    fn register_pressure_within_files() {
        for (m, k, n) in [(6, 512, 96), (6, 512, 32), (14, 64, 96), (3, 40, 48)] {
            let r = KernelReport::analyse(&kernel(m, k, n));
            assert!(r.vregs_used <= 64, "{r}");
            assert!(r.sregs_used <= 64, "{r}");
            assert!(r.vregs_used > 0);
        }
    }

    #[test]
    fn fmac_occupancy_tracks_efficiency_regime() {
        let full = KernelReport::analyse(&kernel(6, 512, 96));
        let walled = KernelReport::analyse(&kernel(6, 512, 32));
        assert!(full.units.fmac() > 0.9, "{}", full.units.fmac());
        assert!(walled.units.fmac() < 0.7, "{}", walled.units.fmac());
    }

    #[test]
    fn small_k_kernels_have_more_overhead() {
        let big = KernelReport::analyse(&kernel(6, 512, 96));
        let small = KernelReport::analyse(&kernel(6, 32, 96));
        assert!(small.steady_fraction() < big.steady_fraction());
    }

    #[test]
    fn occupancy_never_exceeds_one() {
        for (m, k, n) in [(6, 512, 96), (7, 33, 48), (1, 5, 1)] {
            let r = KernelReport::analyse(&kernel(m, k, n));
            assert_eq!(r.units.cycles, r.total_cycles);
            assert_eq!(r.units.issued.iter().sum::<u64>(), r.instructions);
            for u in Unit::ALL {
                assert!(r.units.of(u) <= 1.0, "{u}: {}", r.units.of(u));
            }
        }
    }

    #[test]
    fn display_renders_units() {
        let r = KernelReport::analyse(&kernel(6, 64, 64));
        let s = r.to_string();
        assert!(s.contains("Vector FMAC1"));
        assert!(s.contains("steady"));
    }
}
