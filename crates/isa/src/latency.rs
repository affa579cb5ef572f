//! Instruction result latencies.
//!
//! The paper references `t_fma`, `t_VLDW` and `t_SBR` without giving
//! values; the values here are chosen to be consistent with the paper's
//! schedules (see DESIGN.md §8) and are used both by the kernel generator
//! (to build hazard-free schedules) and by the interpreter's hazard
//! checker (to verify them).

use crate::Opcode;

/// Result latency, in cycles, of every opcode.
///
/// An instruction issued in cycle `c` produces registers that may first be
/// read in cycle `c + latency`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    /// Latency of `VFMULAS32`/`VFADDS32` (the paper's `t_fma`).
    pub t_fma: u32,
    /// Latency of `VLDW`/`VLDDW` (the paper's `t_VLDW`).
    pub t_vldw: u32,
    /// Latency of `SBR` (the paper's `t_SBR`): cycles between issuing the
    /// branch and the redirect taking effect.
    pub t_sbr: u32,
    /// Latency of scalar loads (`SLDH`/`SLDW`).
    pub t_sld: u32,
    /// Latency of scalar extract/extend ops (`SFEXTS32L`, `SBALE2H`).
    pub t_sext: u32,
    /// Latency of the broadcast path (`SVBCAST`/`SVBCAST2`).
    pub t_bcast: u32,
    /// Latency of vector misc ops (`VCLR`, `VMOV`).
    pub t_vmisc: u32,
}

impl Default for LatencyTable {
    fn default() -> Self {
        LatencyTable {
            t_fma: 6,
            t_vldw: 5,
            t_sbr: 3,
            t_sld: 3,
            t_sext: 1,
            t_bcast: 2,
            t_vmisc: 1,
        }
    }
}

impl LatencyTable {
    /// Latency of the given opcode.
    pub fn of(&self, op: Opcode) -> u32 {
        match op {
            Opcode::Sldh | Opcode::Sldw => self.t_sld,
            Opcode::Sfexts32l | Opcode::Sbale2h => self.t_sext,
            Opcode::Svbcast | Opcode::Svbcast2 => self.t_bcast,
            Opcode::Sbr => self.t_sbr,
            Opcode::Vldw | Opcode::Vlddw => self.t_vldw,
            // Stores produce no register result; latency models memory
            // visibility, which the in-order scratchpads make immediate.
            Opcode::Vstw | Opcode::Vstdw => 1,
            Opcode::Vfmulas32 | Opcode::Vfadds32 => self.t_fma,
            Opcode::Vclr | Opcode::Vmov => self.t_vmisc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_design_doc() {
        let t = LatencyTable::default();
        assert_eq!(t.t_fma, 6);
        assert_eq!(t.t_vldw, 5);
        assert_eq!(t.t_sbr, 3);
    }

    #[test]
    fn every_opcode_has_nonzero_latency() {
        let t = LatencyTable::default();
        for op in Opcode::ALL {
            assert!(t.of(op) >= 1, "{op} has zero latency");
        }
    }
}
