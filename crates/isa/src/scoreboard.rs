//! The register scoreboard: the one statement of the core's hazard rules.
//! The interpreter checks a running program against it, the static
//! verifier lints a program with it, and the straight-line scheduler asks
//! it where an instruction may issue.
//!
//! A write issued in cycle `c` lands `latency` cycles later; from then on
//! the register is readable (the write has *retired*).  Two rules follow:
//!
//! * **RAW** — a read waits until the register's latest write retired;
//! * **WAW** — a write retires after every write of its register still in
//!   flight.  A write that also reads its register (`VFMULAS32`'s
//!   accumulator) already waited for the prior write under RAW.
//!
//! The instructions of one bundle take effect one by one in
//! [`Bundle::slots`] order, so a register written by one slot is still in
//! flight for every later slot of the same bundle.

use crate::{Bundle, Instruction, LatencyTable, Reg, Unit, NUM_SREGS, NUM_VREGS};
use std::fmt;

/// A broken scoreboard rule, with the register and cycle it concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hazard {
    /// A read of a register nothing wrote before.  The interpreter's
    /// register file starts zeroed, so only the static verifier reports
    /// this.
    Undefined(Reg),
    /// A read before the register's latest write retires.
    Raw {
        /// The register read.
        reg: Reg,
        /// Cycle the latest write retires.
        ready: u64,
    },
    /// A write that would retire no later than one still in flight.
    Waw {
        /// The register written.
        reg: Reg,
        /// Cycle the write in flight retires.
        prior_retire: u64,
    },
}

impl Hazard {
    /// Whether the hazard breaks the timing rules (RAW or WAW), as opposed
    /// to reading a never-written register.
    pub fn is_timing(&self) -> bool {
        !matches!(self, Hazard::Undefined(_))
    }
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hazard::Undefined(reg) => write!(f, "read of never-written {reg}"),
            Hazard::Raw { reg, ready } => write!(f, "RAW on {reg} (ready at cycle {ready})"),
            Hazard::Waw { reg, prior_retire } => write!(
                f,
                "WAW on {reg} (prior write retires at cycle {prior_retire})"
            ),
        }
    }
}

/// Per-register retire cycles and defined bits under one latency table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scoreboard {
    lat: LatencyTable,
    /// Retire cycle of each register's latest write, by [`Reg::id`]
    /// (0 = never written).
    ready: [u64; NUM_SREGS + NUM_VREGS],
    /// Bit [`Reg::id`] is set once the register has been written.
    defined: u128,
}

impl Scoreboard {
    /// A scoreboard with every register unwritten.
    pub fn new(lat: LatencyTable) -> Self {
        Scoreboard {
            lat,
            ready: [0; NUM_SREGS + NUM_VREGS],
            defined: 0,
        }
    }

    /// Record that an earlier section wrote `reg`, retiring no earlier
    /// than `until` (in this scoreboard's cycles).
    pub fn hold(&mut self, reg: Reg, until: u64) {
        let ready = &mut self.ready[reg.id()];
        *ready = (*ready).max(until);
        self.defined |= 1 << reg.id();
    }

    /// The rules `inst` would break issuing in `cycle`: its reads in
    /// operand order (undefined or RAW), then its writes (WAW).
    #[inline]
    pub fn hazards<'a>(
        &'a self,
        cycle: u64,
        inst: &'a Instruction,
    ) -> impl Iterator<Item = Hazard> + 'a {
        let retire = cycle + u64::from(self.lat.of(inst.opcode));
        let reads = inst.reads().filter_map(move |reg| {
            let ready = self.ready[reg.id()];
            if self.defined & (1 << reg.id()) == 0 {
                Some(Hazard::Undefined(reg))
            } else {
                (cycle < ready).then_some(Hazard::Raw { reg, ready })
            }
        });
        let writes = inst.writes().filter_map(move |reg| {
            let prior_retire = self.ready[reg.id()];
            let overtakes = cycle < prior_retire && retire <= prior_retire;
            (overtakes && !inst.reads().any(|r| r == reg))
                .then_some(Hazard::Waw { reg, prior_retire })
        });
        reads.chain(writes)
    }

    /// The earliest cycle `inst` can issue in: from it on, [`hazards`]
    /// yields no RAW or WAW hazard, and before it, at least one.
    ///
    /// [`hazards`]: Scoreboard::hazards
    #[inline]
    pub fn earliest(&self, inst: &Instruction) -> u64 {
        let lat = u64::from(self.lat.of(inst.opcode));
        let reads = inst.reads().map(|r| self.ready[r.id()]);
        let writes = inst.writes().map(|r| {
            let prior = self.ready[r.id()];
            (prior + 1).saturating_sub(lat).min(prior)
        });
        reads.chain(writes).max().unwrap_or(0)
    }

    /// Record `inst` issuing in `cycle`: each register it writes is
    /// defined and retires `latency` cycles later.
    #[inline]
    pub fn issue(&mut self, cycle: u64, inst: &Instruction) {
        let retire = cycle + u64::from(self.lat.of(inst.opcode));
        for reg in inst.writes() {
            self.ready[reg.id()] = retire;
            self.defined |= 1 << reg.id();
        }
    }

    /// Walk a bundle issued in `cycle` slot by slot in [`Bundle::slots`]
    /// order: `each` sees a slot and the board holding everything issued
    /// before it (ask it for the slot's [`Scoreboard::hazards`]), then the
    /// slot's writes are recorded.  The first error `each` returns ends
    /// the walk.
    pub fn step<E>(
        &mut self,
        cycle: u64,
        bundle: &Bundle,
        mut each: impl FnMut(Unit, &Instruction, &Self) -> Result<(), E>,
    ) -> Result<(), E> {
        for (unit, inst) in bundle.slots() {
            each(*unit, inst, self)?;
            self.issue(cycle, inst);
        }
        Ok(())
    }

    /// The first cycle by which every write recorded so far has retired.
    pub fn settled(&self) -> u64 {
        self.ready.iter().copied().max().unwrap_or(0)
    }

    /// The board as seen from `cycle`: each retire cycle minus `cycle`
    /// (0 once retired), the same defined bits.  [`hazards`] compares a
    /// retire cycle only with the cycle asked about, so two boards whose
    /// views from `c` and `c'` are equal break the same rules at
    /// `c + d` and `c' + d`, naming cycles `c' − c` apart.
    ///
    /// [`hazards`]: Scoreboard::hazards
    pub fn seen_from(&self, cycle: u64) -> Scoreboard {
        let mut view = self.clone();
        for ready in &mut view.ready {
            *ready = ready.saturating_sub(cycle);
        }
        view
    }

    /// Move every retire cycle `by` cycles later, as if the board's
    /// history had happened `by` cycles later.
    pub fn shift(&mut self, by: u64) {
        for ready in &mut self.ready {
            *ready = ready.saturating_add(by);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddrExpr, BufId, MemSpace, SReg, VReg};

    fn v(n: u16) -> VReg {
        VReg::new(n).unwrap()
    }
    fn r(n: u16) -> SReg {
        SReg::new(n).unwrap()
    }
    fn am() -> AddrExpr {
        AddrExpr::flat(MemSpace::Am, BufId::B, 0)
    }

    fn board() -> Scoreboard {
        Scoreboard::new(LatencyTable::default())
    }

    fn hazards(sb: &Scoreboard, cycle: u64, inst: &Instruction) -> Vec<Hazard> {
        sb.hazards(cycle, inst).collect()
    }

    #[test]
    fn raw_holds_reads_until_the_write_retires() {
        let mut sb = board();
        sb.issue(0, &Instruction::vldw(v(0), am()));
        let read = Instruction::vmov(v(1), v(0));
        let raw = Hazard::Raw {
            reg: Reg::V(v(0)),
            ready: 5,
        };
        assert_eq!(hazards(&sb, 4, &read), [raw]);
        assert!(hazards(&sb, 5, &read).is_empty());
        assert_eq!(sb.earliest(&read), 5);
    }

    #[test]
    fn waw_orders_retirement_and_exempts_accumulators() {
        let mut sb = board();
        sb.issue(0, &Instruction::vldw(v(0), am())); // retires at 5
        let clear = Instruction::vclr(v(0)); // latency 1
        let waw = Hazard::Waw {
            reg: Reg::V(v(0)),
            prior_retire: 5,
        };
        assert_eq!(hazards(&sb, 1, &clear), [waw]);
        assert_eq!(hazards(&sb, 4, &clear), [waw]);
        assert!(hazards(&sb, 5, &clear).is_empty());
        assert_eq!(sb.earliest(&clear), 5);
        // A longer write may issue while the load is in flight…
        let add = Instruction::vfadds32(v(0), v(2), v(2));
        sb.issue(0, &Instruction::vclr(v(2)));
        assert!(hazards(&sb, 1, &add).is_empty());
        // …but an accumulator update is a read first.
        let fmac = Instruction::vfmulas32(v(0), v(2), v(2));
        assert_eq!(
            hazards(&sb, 1, &fmac),
            [Hazard::Raw {
                reg: Reg::V(v(0)),
                ready: 5
            }]
        );
    }

    #[test]
    fn undefined_reads_are_not_timing_hazards() {
        let sb = board();
        let read = Instruction::sfexts32l(r(1), r(0));
        let got = hazards(&sb, 0, &read);
        assert_eq!(got, [Hazard::Undefined(Reg::S(r(0)))]);
        assert!(!got[0].is_timing());
        assert_eq!(sb.earliest(&read), 0);
    }

    #[test]
    fn earliest_is_the_first_hazard_free_cycle() {
        // Every (producer, consumer) pair over a mix of latencies and
        // operand roles, at every issue distance.
        let producers = [
            Instruction::vldw(v(0), am()),
            Instruction::vfadds32(v(0), v(1), v(1)),
            Instruction::vclr(v(0)),
            Instruction::sldh(r(0), AddrExpr::flat(MemSpace::Sm, BufId::A, 0)),
        ];
        let consumers = [
            Instruction::vclr(v(0)),
            Instruction::vmov(v(0), v(1)),
            Instruction::vmov(v(1), v(0)),
            Instruction::vfmulas32(v(0), v(1), v(1)),
            Instruction::vlddw(v(0), am()).unwrap(),
            Instruction::sfexts32l(r(0), r(0)),
            Instruction::sldw(r(0), AddrExpr::flat(MemSpace::Sm, BufId::A, 0)),
        ];
        for p in &producers {
            for c in &consumers {
                let mut sb = board();
                sb.issue(0, &Instruction::vclr(v(1)));
                sb.issue(0, &Instruction::vclr(v(0)));
                sb.issue(
                    1,
                    &Instruction::sldh(r(0), AddrExpr::flat(MemSpace::Sm, BufId::A, 0)),
                );
                sb.issue(4, p);
                let earliest = sb.earliest(c);
                for cycle in 4..16 {
                    let blocked = sb.hazards(cycle, c).any(|h| h.is_timing());
                    assert_eq!(blocked, cycle < earliest, "{p} then {c} at {cycle}");
                }
            }
        }
    }

    #[test]
    fn a_bundle_walks_its_slots_in_order() {
        // VLDW V0 (load/store unit) precedes VCLR V0 (misc unit) in slot
        // order, so the clear sees the load in flight.
        let mut b = Bundle::new();
        b.push_auto(Instruction::vclr(v(0))).unwrap();
        b.push_auto(Instruction::vldw(v(0), am())).unwrap();
        let mut sb = board();
        let mut seen = Vec::new();
        sb.step(0, &b, |unit, inst, board| {
            seen.push((unit, hazards(board, 0, inst)));
            Ok::<(), ()>(())
        })
        .unwrap();
        let waw = Hazard::Waw {
            reg: Reg::V(v(0)),
            prior_retire: 5,
        };
        assert_eq!(
            seen,
            [(Unit::VectorLs1, vec![]), (Unit::VectorMisc, vec![waw])]
        );
        assert_eq!(sb.settled(), 1);
    }

    #[test]
    fn a_shifted_board_is_seen_alike_from_the_shifted_cycle() {
        let mut sb = board();
        sb.issue(0, &Instruction::vclr(v(1)));
        sb.issue(3, &Instruction::vldw(v(0), am())); // retires at 8
        let view = sb.seen_from(4);
        assert_eq!(view.seen_from(0), view);
        let read = Instruction::vmov(v(2), v(0));
        assert_eq!(
            hazards(&view, 3, &read),
            [Hazard::Raw {
                reg: Reg::V(v(0)),
                ready: 4
            }]
        );
        assert!(hazards(&view, 4, &read).is_empty());
        sb.shift(10);
        assert_eq!(sb.seen_from(14), view);
        assert_ne!(sb.seen_from(13), view);
        assert_eq!(sb.settled(), 18);
    }

    #[test]
    fn held_writes_count_as_defined_and_in_flight() {
        let mut sb = board();
        sb.hold(Reg::V(v(5)), 4);
        sb.hold(Reg::V(v(5)), 2);
        let read = Instruction::vmov(v(6), v(5));
        assert_eq!(sb.earliest(&read), 4);
        assert_eq!(
            hazards(&sb, 3, &read),
            [Hazard::Raw {
                reg: Reg::V(v(5)),
                ready: 4
            }]
        );
        assert_eq!(sb.settled(), 4);
    }
}
