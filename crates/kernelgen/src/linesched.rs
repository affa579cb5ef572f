//! Greedy in-order list scheduler for straight-line sections (the C-panel
//! load prologue, the depth-remainder tail and the reduction/store
//! epilogue of each `mm` block).
//!
//! Instructions are placed at the earliest cycle at which (a) the
//! [`Scoreboard`] sees no RAW or WAW hazard, (b) every earlier read and
//! write of a register it overwrites has issued, and (c) a unit of its
//! class is free.  Later instructions never issue before earlier ones
//! (in-order), which keeps the semantics identical to program order while
//! packing bundles.

use crate::GenError;
use dspsim::HwConfig;
use ftimm_isa::{Bundle, Instruction, Scoreboard, NUM_SREGS, NUM_VREGS};

/// Straight-line scheduler.
pub struct LineScheduler {
    bundles: Vec<Bundle>,
    /// Retire cycles of everything placed so far (and of the preceding
    /// section's writes still in flight).
    board: Scoreboard,
    /// One past the issue cycle of the latest read or write of each
    /// register, by `Reg::id` (0 = untouched).  A rewrite issues strictly
    /// after it: the core applies a bundle's writes slot by slot, so a
    /// same-cycle rewrite could be seen by a same-cycle reader or be
    /// overtaken by a same-cycle writer.
    touched: [u64; NUM_SREGS + NUM_VREGS],
    /// Earliest issue cycle for the next instruction (in-order constraint).
    horizon: u64,
}

impl LineScheduler {
    /// New scheduler after a preceding section whose writes still in
    /// flight `pending` holds (cycle 0 here is the first cycle after that
    /// section).
    pub fn new(pending: Scoreboard) -> Self {
        LineScheduler {
            bundles: Vec::new(),
            board: pending,
            touched: [0; NUM_SREGS + NUM_VREGS],
            horizon: 0,
        }
    }

    /// Convenience: nothing in flight.
    pub fn fresh(cfg: &HwConfig) -> Self {
        LineScheduler::new(Scoreboard::new(cfg.latencies))
    }

    /// Schedule one instruction.
    pub fn push(&mut self, inst: Instruction) -> Result<(), GenError> {
        let mut cycle = inst
            .writes()
            .map(|r| self.touched[r.id()])
            .fold(self.board.earliest(&inst).max(self.horizon), u64::max);
        loop {
            while self.bundles.len() as u64 <= cycle {
                self.bundles.push(Bundle::new());
            }
            match self.bundles[cycle as usize].push_auto(inst.clone()) {
                Ok(_unit) => break,
                Err(_) => cycle += 1,
            }
        }
        self.board.issue(cycle, &inst);
        for r in inst.reads().chain(inst.writes()) {
            self.touched[r.id()] = self.touched[r.id()].max(cycle + 1);
        }
        self.horizon = self.horizon.max(cycle);
        Ok(())
    }

    /// Finish: pad with empty bundles until every pending latency has
    /// expired, so following sections start hazard-free at cycle 0.
    pub fn finish(mut self) -> Vec<Bundle> {
        let drain = self.board.settled() as usize;
        if self.bundles.len() < drain {
            self.bundles.resize(drain, Bundle::new());
        }
        self.bundles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::{run_program, Core, HwConfig, KernelBindings};
    use ftimm_isa::{AddrExpr, BufId, MemSpace, Program, Reg, SReg, Section, VReg};

    fn cfg() -> HwConfig {
        HwConfig::default()
    }
    fn v(n: u16) -> VReg {
        VReg::new(n).unwrap()
    }
    fn r(n: u16) -> SReg {
        SReg::new(n).unwrap()
    }
    /// `(cycle, instructions)` of every non-empty bundle.
    fn busy(bundles: &[Bundle]) -> Vec<(usize, usize)> {
        let busy = bundles.iter().enumerate().filter(|(_, b)| !b.is_empty());
        busy.map(|(c, b)| (c, b.len())).collect()
    }

    #[test]
    fn dependent_chain_is_spaced_by_latency() {
        let cfg = cfg();
        let mut ls = LineScheduler::fresh(&cfg);
        ls.push(Instruction::sldh(
            r(0),
            AddrExpr::flat(MemSpace::Sm, BufId::A, 0),
        ))
        .unwrap();
        ls.push(Instruction::sfexts32l(r(1), r(0))).unwrap();
        ls.push(Instruction::svbcast(v(0), r(1))).unwrap();
        let bundles = ls.finish();
        // SLDH at 0, SFEXTS32L at t_sld, SVBCAST at t_sld + t_sext, then
        // padding until the broadcast lands.
        let lat = cfg.latencies;
        let (sext, bcast) = (lat.t_sld as usize, (lat.t_sld + lat.t_sext) as usize);
        assert_eq!(busy(&bundles), [(0, 1), (sext, 1), (bcast, 1)]);
        assert_eq!(bundles.len(), bcast + lat.t_bcast as usize);
    }

    #[test]
    fn independent_ops_pack_into_one_bundle() {
        let cfg = cfg();
        let mut ls = LineScheduler::fresh(&cfg);
        for n in 0..3 {
            ls.push(Instruction::vfmulas32(v(n * 3), v(n * 3 + 1), v(n * 3 + 2)))
                .unwrap();
        }
        assert_eq!(busy(&ls.finish()), [(0, 3)]);
    }

    #[test]
    fn unit_saturation_spills_to_next_cycle() {
        let cfg = cfg();
        let mut ls = LineScheduler::fresh(&cfg);
        for n in 0..4 {
            ls.push(Instruction::vfmulas32(v(n * 3), v(n * 3 + 1), v(n * 3 + 2)))
                .unwrap();
        }
        assert_eq!(busy(&ls.finish()), [(0, 3), (1, 1)]);
    }

    #[test]
    fn residuals_delay_first_use() {
        let cfg = cfg();
        let mut pending = Scoreboard::new(cfg.latencies);
        pending.hold(Reg::V(v(5)), 4); // V5 becomes ready at cycle 4
        let mut ls = LineScheduler::new(pending);
        ls.push(Instruction::vfadds32(v(6), v(5), v(5))).unwrap();
        assert_eq!(busy(&ls.finish()), [(4, 1)]);
    }

    #[test]
    fn finish_pads_out_pending_latencies() {
        let cfg = cfg();
        let mut ls = LineScheduler::fresh(&cfg);
        ls.push(Instruction::vldw(
            v(0),
            AddrExpr::flat(MemSpace::Am, BufId::B, 0),
        ))
        .unwrap();
        let bundles = ls.finish();
        assert_eq!(bundles.len() as u32, cfg.latencies.t_vldw);
    }

    #[test]
    fn scheduled_sections_pass_the_hazard_checker() {
        // A small but adversarial mix: dependent chains, unit saturation,
        // reductions — then run it through the interpreter with hazard
        // checking on.
        let cfg = cfg();
        let mut ls = LineScheduler::fresh(&cfg);
        ls.push(Instruction::vldw(
            v(0),
            AddrExpr::flat(MemSpace::Am, BufId::B, 0),
        ))
        .unwrap();
        ls.push(Instruction::vldw(
            v(1),
            AddrExpr::flat(MemSpace::Am, BufId::B, 128),
        ))
        .unwrap();
        ls.push(Instruction::vfadds32(v(2), v(0), v(1))).unwrap();
        ls.push(Instruction::vfadds32(v(2), v(2), v(1))).unwrap();
        ls.push(Instruction::vstw(
            v(2),
            AddrExpr::flat(MemSpace::Am, BufId::C, 0),
        ))
        .unwrap();
        let mut p = Program::new("linesched_smoke");
        p.sections.push(Section::Straight(ls.finish()));

        let mut core = Core::new(0, &cfg);
        core.am.write_f32_slice(0, &[2.0; 64]).unwrap();
        let bind = KernelBindings {
            a_off: 0,
            b_off: 0,
            c_off: 4096,
        };
        run_program(&mut core, &p, bind, &cfg.latencies).unwrap();
        assert_eq!(core.am.read_f32(4096).unwrap(), 6.0);
    }
}
