//! Static analysis of generated kernels: cycle breakdown, per-unit
//! utilisation and register pressure.  Used by `kernel_explorer` and the
//! tuning reports; also serves as an executable sanity check on the
//! generator's output (tests below assert analytic invariants).

use crate::MicroKernel;
use ftimm_isa::{Program, Section, Unit};
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
    /// Per-unit dynamic occupancy: issued instructions / total cycles.
    pub unit_occupancy: Vec<(Unit, f64)>,
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
        let mut unit_counts = [0u64; 12];
        let mut vregs = [false; ftimm_isa::NUM_VREGS];
        let mut sregs = [false; ftimm_isa::NUM_SREGS];
        let mut instructions = 0u64;
        program
            .visit::<std::convert::Infallible>(&mut |_idx, bundle| {
                for (unit, inst) in bundle.iter() {
                    let ui = Unit::ALL.iter().position(|&u| u == unit).expect("unit");
                    unit_counts[ui] += 1;
                    instructions += 1;
                    for r in inst.vdefs.iter().chain(&inst.vuses) {
                        vregs[r.index()] = true;
                    }
                    for r in inst.sdefs.iter().chain(&inst.suses) {
                        sregs[r.index()] = true;
                    }
                }
                Ok(())
            })
            .unwrap_or_else(|e| match e {});
        let unit_occupancy = Unit::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| unit_counts[*i] > 0)
            .map(|(i, &u)| (u, unit_counts[i] as f64 / total_cycles.max(1) as f64))
            .collect();
        KernelReport {
            name: program.name.clone(),
            total_cycles,
            steady_cycles,
            overhead_cycles: total_cycles - steady_cycles,
            instructions,
            unit_occupancy,
            vregs_used: vregs.iter().filter(|&&b| b).count(),
            sregs_used: sregs.iter().filter(|&&b| b).count(),
        }
    }

    /// Fraction of cycles spent in steady state (amortisation quality).
    pub fn steady_fraction(&self) -> f64 {
        self.steady_cycles as f64 / self.total_cycles.max(1) as f64
    }

    /// Occupancy of one unit (0 if it never issues).
    pub fn occupancy(&self, unit: Unit) -> f64 {
        self.unit_occupancy
            .iter()
            .find(|(u, _)| *u == unit)
            .map_or(0.0, |(_, o)| *o)
    }

    /// Mean occupancy of the three vector FMAC units.
    pub fn fmac_occupancy(&self) -> f64 {
        (self.occupancy(Unit::VectorFmac1)
            + self.occupancy(Unit::VectorFmac2)
            + self.occupancy(Unit::VectorFmac3))
            / 3.0
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
        for (u, o) in &self.unit_occupancy {
            writeln!(f, "  {:<20} {:>5.1}%", u.row_label(), 100.0 * o)?;
        }
        Ok(())
    }
}

/// An occupancy violation: a unit that would have to issue more
/// instructions than the program has cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyViolation {
    /// The over-subscribed unit.
    pub unit: Unit,
    /// Dynamic instructions issued on that unit.
    pub issued: u64,
    /// Total program cycles (the issue capacity of any single unit).
    pub cycles: u64,
}

impl fmt::Display for OccupancyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} issues {} instructions in {} cycles (> 100% occupancy)",
            self.unit, self.issued, self.cycles
        )
    }
}

/// Occupancy check used by tests, debugging and the conformance crate's
/// static verifier: no unit of a valid program can exceed 100 %.
///
/// Returns the first over-subscribed unit (in [`Unit::ALL`] order) with
/// its issue count, or `Ok(())` when every unit fits.
pub fn verify_occupancy(program: &Program) -> Result<(), OccupancyViolation> {
    let report_cycles = program.cycles().max(1);
    let mut counts = [0u64; 12];
    program
        .visit::<std::convert::Infallible>(&mut |_i, b| {
            for (u, _) in b.iter() {
                counts[Unit::ALL.iter().position(|&x| x == u).expect("unit")] += 1;
            }
            Ok(())
        })
        .unwrap_or_else(|e| match e {});
    for (i, &unit) in Unit::ALL.iter().enumerate() {
        if counts[i] > report_cycles {
            return Err(OccupancyViolation {
                unit,
                issued: counts[i],
                cycles: report_cycles,
            });
        }
    }
    Ok(())
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
        assert!(full.fmac_occupancy() > 0.9, "{}", full.fmac_occupancy());
        assert!(walled.fmac_occupancy() < 0.7, "{}", walled.fmac_occupancy());
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
            let kn = kernel(m, k, n);
            verify_occupancy(kn.program()).unwrap_or_else(|v| panic!("{v}"));
            let r = KernelReport::analyse(&kn);
            for (u, o) in &r.unit_occupancy {
                assert!(*o <= 1.0 + 1e-12, "{u}: {o}");
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
