//! Modulo scheduling of the steady-state `kk` loop.
//!
//! One loop iteration processes `m_u × k_u` elements of `A` against
//! `k_u × v_n` vectors of `B`.  Every operation of the iteration is placed
//! at a slot `s ∈ [0, 2·II)`; the modulo reservation table constrains the
//! functional unit at `s mod II`.  Operations with `s < II` are *stage 0*
//! (they execute in the same "half" as their iteration starts); operations
//! with `s ≥ II` are *stage 1* (they execute one half later).  Registers
//! are double-buffered by iteration parity, so a two-stage schedule is
//! always legal.
//!
//! Absolute issue time of an operation for iteration `j` is `j·II + s`;
//! all data dependencies are therefore satisfied exactly when
//! `s_use ≥ s_def + latency`, and the accumulator recurrence when
//! `II ≥ t_fma` (enforced by [`crate::tiling::Tiling::ii_lower_bound`]).

#![allow(clippy::needless_range_loop)] // index loops mirror the (mu, ku, nn) math

use crate::cache::lock;
use crate::{GenError, Tiling};
use dspsim::HwConfig;
use ftimm_isa::{Unit, UnitClass};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// Semantic description of one steady-state operation (bound to concrete
/// instructions later, per half parity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterOp {
    /// `SLDW`: packed load of A elements `(mu, 2·pair)` and `(mu, 2·pair+1)`.
    LoadAPair {
        /// Row within the `m_u` tile.
        mu: usize,
        /// Packed pair index within `k_u/2`.
        pair: usize,
    },
    /// `SLDH`: single load of A element `(mu, 0)` (the `k_u = 1` path).
    LoadAOne {
        /// Row within the `m_u` tile.
        mu: usize,
    },
    /// `SFEXTS32L`: extract low f32 of a packed pair.
    ExtLo {
        /// Row.
        mu: usize,
        /// Pair index.
        pair: usize,
    },
    /// `SBALE2H`: extract high f32 of a packed pair (SIEU).
    ExtHi {
        /// Row.
        mu: usize,
        /// Pair index.
        pair: usize,
    },
    /// `SFEXTS32L` for the `k_u = 1` path.
    ExtOne {
        /// Row.
        mu: usize,
    },
    /// `SVBCAST2`: broadcast both halves of a pair to two vector registers.
    Bcast2 {
        /// Row.
        mu: usize,
        /// Pair index.
        pair: usize,
    },
    /// `SVBCAST`: broadcast the single value (`k_u = 1`).
    Bcast1 {
        /// Row.
        mu: usize,
    },
    /// `VLDDW`/`VLDW`: load B vectors `nn` (and `nn+1` when `pair`).
    LoadB {
        /// Depth element within `k_u`.
        ku: usize,
        /// First vector index.
        nn: usize,
        /// Whether this is a paired (`VLDDW`) load.
        pair: bool,
    },
    /// `VFMULAS32 acc[ku][mu][nn] += Va[mu][ku] · Vb[ku][nn]`.
    Fmac {
        /// Row.
        mu: usize,
        /// Depth element.
        ku: usize,
        /// Vector index.
        nn: usize,
    },
    /// `SBR`: the loop-back branch.
    Branch,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOp {
    /// Slot in `[0, 2·II)`.
    pub s: u32,
    /// Concrete functional unit.
    pub unit: Unit,
    /// What to emit.
    pub op: IterOp,
}

impl SlotOp {
    /// Pipeline stage: 0 executes in the iteration's own half, 1 in the
    /// next half.
    pub fn stage(&self, ii: u32) -> u32 {
        self.s / ii
    }
}

/// A complete steady-state schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadySchedule {
    /// The tiling this schedule realises (with the achieved II).
    pub tiling: Tiling,
    /// All operations of one iteration.
    pub ops: Vec<SlotOp>,
}

/// Modulo reservation table over `ii` cycles.
struct Mrt {
    ii: u32,
    /// `busy[cycle][Unit::index]`.
    busy: Vec<[bool; Unit::ALL.len()]>,
}

impl Mrt {
    fn new(ii: u32) -> Self {
        Mrt {
            ii,
            busy: vec![[false; Unit::ALL.len()]; ii as usize],
        }
    }

    /// Place on the first free unit of `class` at slot `s ≥ earliest`,
    /// bounded by `limit` (exclusive). Returns `(s, unit)`.
    fn place(
        &mut self,
        class: UnitClass,
        earliest: u32,
        limit: u32,
    ) -> Result<(u32, Unit), GenError> {
        for s in earliest..limit {
            let row = (s % self.ii) as usize;
            for &unit in class.members() {
                if !self.busy[row][unit.index()] {
                    self.busy[row][unit.index()] = true;
                    return Ok((s, unit));
                }
            }
        }
        Err(GenError::ScheduleOverflow {
            detail: format!("no slot for {class:?} in [{earliest}, {limit})"),
        })
    }
}

/// Build the steady-state schedule for a tiling, retrying with a larger II
/// if greedy placement cannot fit the two-stage window.
pub fn schedule(tiling: Tiling, cfg: &HwConfig) -> Result<SteadySchedule, GenError> {
    let mut ii = tiling.ii;
    for _attempt in 0..16 {
        match try_schedule(tiling, ii, cfg) {
            Ok(ops) => {
                return Ok(SteadySchedule {
                    tiling: Tiling { ii, ..tiling },
                    ops,
                })
            }
            Err(_) => ii += 1,
        }
    }
    Err(GenError::ScheduleOverflow {
        detail: format!("no feasible II ≤ {} for {tiling:?}", tiling.ii + 16),
    })
}

/// Key of a block-group price: the group's tiling (as requested), its
/// depth tail `k_tail` and the representative of its `k_iters` class
/// (see `build::k_class`).
pub(crate) type PriceKey = (Tiling, usize, usize);

/// What generation derives from a tiling alone, for **one** hardware
/// configuration (which the memo owns): the scheduled and verified steady
/// state per requested tiling, and the price `(overhead, achieved II)` of
/// a block group per [`PriceKey`].  Both are pure functions of their key
/// and the configuration, and the kernels of different shapes keep asking
/// for the same few tilings.  Only tilings that fit the register files
/// are ever scheduled, so the memo holds a few hundred small entries at
/// most.  Failures are not stored.  Kernels keep an `Arc` to the memo
/// they were priced against, to build their program from on first use;
/// it also counts those builds.
pub(crate) struct ScheduleMemo {
    cfg: HwConfig,
    schedules: Mutex<HashMap<Tiling, Arc<SteadySchedule>>>,
    prices: Mutex<HashMap<PriceKey, (u64, u32)>>,
    /// Complete programs built against this memo so far.
    pub(crate) programs_built: AtomicU64,
}

impl std::fmt::Debug for ScheduleMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleMemo").finish_non_exhaustive()
    }
}

impl ScheduleMemo {
    /// An empty memo for `cfg`.
    pub(crate) fn new(cfg: HwConfig) -> Self {
        ScheduleMemo {
            cfg,
            schedules: Mutex::default(),
            prices: Mutex::default(),
            programs_built: AtomicU64::new(0),
        }
    }

    /// The hardware configuration everything here is derived for.
    pub(crate) fn cfg(&self) -> &HwConfig {
        &self.cfg
    }

    /// The verified schedule for `tiling`, computed on first request.
    pub(crate) fn get(&self, tiling: Tiling) -> Result<Arc<SteadySchedule>, GenError> {
        if let Some(sched) = lock(&self.schedules).get(&tiling) {
            return Ok(Arc::clone(sched));
        }
        let sched = schedule(tiling, &self.cfg)?;
        sched.verify(&self.cfg)?;
        Ok(Arc::clone(
            lock(&self.schedules)
                .entry(tiling)
                .or_insert(Arc::new(sched)),
        ))
    }

    /// The price stored under `key`, computed by `compute` on first
    /// request (outside the lock: `compute` schedules through this memo).
    pub(crate) fn price(
        &self,
        key: PriceKey,
        compute: impl FnOnce() -> Result<(u64, u32), GenError>,
    ) -> Result<(u64, u32), GenError> {
        if let Some(&price) = lock(&self.prices).get(&key) {
            return Ok(price);
        }
        let price = compute()?;
        Ok(*lock(&self.prices).entry(key).or_insert(price))
    }
}

fn try_schedule(t: Tiling, ii: u32, cfg: &HwConfig) -> Result<Vec<SlotOp>, GenError> {
    let lat = &cfg.latencies;
    let window = 2 * ii;
    let mut mrt = Mrt::new(ii);
    let mut ops: Vec<SlotOp> = Vec::new();
    let mut push =
        |mrt: &mut Mrt, class: UnitClass, earliest: u32, op: IterOp| -> Result<u32, GenError> {
            let (s, unit) = mrt.place(class, earliest, window)?;
            ops.push(SlotOp { s, unit, op });
            Ok(s)
        };

    // B vector loads, earliest first: they have the longest load-use
    // latency and FMACs depend on them.
    let mut s_loadb = vec![vec![0u32; t.v_n]; t.k_u];
    for ku in 0..t.k_u {
        let mut nn = 0;
        while nn < t.v_n {
            let pair = nn + 1 < t.v_n;
            let s = push(
                &mut mrt,
                UnitClass::VectorLs,
                0,
                IterOp::LoadB { ku, nn, pair },
            )?;
            s_loadb[ku][nn] = s;
            if pair {
                s_loadb[ku][nn + 1] = s;
                nn += 2;
            } else {
                nn += 1;
            }
        }
    }

    // A load → extract → broadcast chains; record broadcast-ready slots.
    let mut s_bcast = vec![vec![0u32; t.k_u]; t.m_u];
    if t.k_u == 1 {
        for mu in 0..t.m_u {
            let s_ld = push(&mut mrt, UnitClass::ScalarLs, 0, IterOp::LoadAOne { mu })?;
            let s_ext = push(
                &mut mrt,
                UnitClass::ScalarFmac1,
                s_ld + lat.t_sld,
                IterOp::ExtOne { mu },
            )?;
            let s_bc = push(
                &mut mrt,
                UnitClass::ScalarFmac2,
                s_ext + lat.t_sext,
                IterOp::Bcast1 { mu },
            )?;
            s_bcast[mu][0] = s_bc;
        }
    } else {
        for mu in 0..t.m_u {
            for pair in 0..t.k_u / 2 {
                let s_ld = push(
                    &mut mrt,
                    UnitClass::ScalarLs,
                    0,
                    IterOp::LoadAPair { mu, pair },
                )?;
                let s_lo = push(
                    &mut mrt,
                    UnitClass::ScalarFmac1,
                    s_ld + lat.t_sld,
                    IterOp::ExtLo { mu, pair },
                )?;
                let s_hi = push(
                    &mut mrt,
                    UnitClass::Sieu,
                    s_ld + lat.t_sld,
                    IterOp::ExtHi { mu, pair },
                )?;
                let s_bc = push(
                    &mut mrt,
                    UnitClass::ScalarFmac2,
                    s_lo.max(s_hi) + lat.t_sext,
                    IterOp::Bcast2 { mu, pair },
                )?;
                s_bcast[mu][2 * pair] = s_bc;
                s_bcast[mu][2 * pair + 1] = s_bc;
            }
        }
    }

    // FMACs: ready when both the broadcast and the B vector have landed.
    // Schedule in ascending readiness order to minimise fragmentation.
    let mut fmacs: Vec<(u32, usize, usize, usize)> = Vec::new();
    for mu in 0..t.m_u {
        for ku in 0..t.k_u {
            for nn in 0..t.v_n {
                let ready = (s_bcast[mu][ku] + lat.t_bcast).max(s_loadb[ku][nn] + lat.t_vldw);
                fmacs.push((ready, mu, ku, nn));
            }
        }
    }
    fmacs.sort();
    for (ready, mu, ku, nn) in fmacs {
        push(
            &mut mrt,
            UnitClass::VectorFmac,
            ready,
            IterOp::Fmac { mu, ku, nn },
        )?;
    }

    // The loop-back branch: issue so the redirect lands at the body end.
    let s_br = window.saturating_sub(lat.t_sbr).max(ii);
    push(&mut mrt, UnitClass::Control, s_br, IterOp::Branch)?;

    Ok(ops)
}

impl SteadySchedule {
    /// Verify every dependence is satisfied (defense in depth; the
    /// interpreter's hazard checker re-verifies dynamically).
    pub fn verify(&self, cfg: &HwConfig) -> Result<(), GenError> {
        let lat = &cfg.latencies;
        let ii = self.tiling.ii;
        let find = |pred: &dyn Fn(&IterOp) -> bool| -> Vec<u32> {
            self.ops
                .iter()
                .filter(|o| pred(&o.op))
                .map(|o| o.s)
                .collect()
        };
        for o in &self.ops {
            if o.s >= 2 * ii {
                return Err(GenError::ScheduleOverflow {
                    detail: format!("{o:?} beyond two stages"),
                });
            }
            if let IterOp::Fmac { mu, ku, nn } = o.op {
                let bc = find(&|p| match *p {
                    IterOp::Bcast1 { mu: m } => m == mu,
                    IterOp::Bcast2 { mu: m, pair } => m == mu && ku / 2 == pair,
                    _ => false,
                });
                let ld = find(&|p| match *p {
                    IterOp::LoadB { ku: k, nn: n, pair } => {
                        k == ku && (n == nn || (pair && n + 1 == nn))
                    }
                    _ => false,
                });
                let bc = bc
                    .first()
                    .copied()
                    .ok_or_else(|| GenError::ScheduleOverflow {
                        detail: format!("no broadcast feeds {o:?}"),
                    })?;
                let ld = ld
                    .first()
                    .copied()
                    .ok_or_else(|| GenError::ScheduleOverflow {
                        detail: format!("no B load feeds {o:?}"),
                    })?;
                if o.s < bc + lat.t_bcast || o.s < ld + lat.t_vldw {
                    return Err(GenError::ScheduleOverflow {
                        detail: format!("{o:?} issued before operands ready"),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling;
    use crate::KernelSpec;

    fn cfg() -> HwConfig {
        HwConfig::default()
    }

    fn best(m_s: usize, k_a: usize, n_a: usize) -> Tiling {
        tiling::candidates(&KernelSpec::new(m_s, k_a, n_a).unwrap(), &cfg()).unwrap()[0]
    }

    fn explicit(m_u: usize, k_u: usize, v_n: usize) -> Tiling {
        let ii = Tiling::ii_lower_bound(m_u, k_u, v_n, &cfg());
        Tiling { m_u, k_u, v_n, ii }
    }

    #[test]
    fn table_i_kernel_schedules_at_ii6() {
        // Table I regime: m_s = 6, 64 < n_a ≤ 96, k_u = 1.
        let s = schedule(explicit(6, 1, 3), &cfg()).unwrap();
        assert_eq!(s.tiling.ii, 6, "Table I regime keeps the bound II");
        s.verify(&cfg()).unwrap();
        // All 18 FMAC slots are used: 3 per cycle for 6 cycles.
        let fmacs = s
            .ops
            .iter()
            .filter(|o| matches!(o.op, IterOp::Fmac { .. }))
            .count();
        assert_eq!(fmacs, 18);
    }

    #[test]
    fn table_ii_kernel_schedules_at_ii8() {
        // Table II regime: m_s = 6, 32 < n_a ≤ 64, k_u = 2 → 8-cycle body.
        let s = schedule(explicit(6, 2, 2), &cfg()).unwrap();
        assert_eq!(s.tiling.ii, 8);
        s.verify(&cfg()).unwrap();
    }

    #[test]
    fn table_iii_kernel_hits_broadcast_bound() {
        // Table III regime: m_s = 6, n_a ≤ 32, k_u = 2.
        let s = schedule(explicit(6, 2, 1), &cfg()).unwrap();
        assert_eq!(s.tiling.ii, 6);
        s.verify(&cfg()).unwrap();
        let fmacs = s
            .ops
            .iter()
            .filter(|o| matches!(o.op, IterOp::Fmac { .. }))
            .count();
        // 12 FMACs in 6 cycles: two of three units busy (66.7 %).
        assert_eq!(fmacs, 12);
    }

    #[test]
    fn auto_selected_tilings_schedule_and_verify() {
        for (m, n) in [(6, 96), (6, 64), (6, 32), (8, 64), (14, 96)] {
            let t = best(m, 512, n);
            let s = schedule(t, &cfg()).unwrap();
            s.verify(&cfg()).unwrap();
            if n > 32 {
                // Full-pipeline regimes keep 100 % steady state.
                assert!(
                    s.tiling.steady_efficiency() > 0.82,
                    "ms={m} na={n}: {:?}",
                    s.tiling
                );
            } else {
                assert!(s.tiling.steady_efficiency() <= 2.0 / 3.0 + 1e-12);
            }
        }
    }

    #[test]
    fn every_op_within_two_stages() {
        for (m, n) in [
            (6, 96),
            (6, 64),
            (6, 32),
            (3, 96),
            (7, 96),
            (5, 64),
            (2, 16),
        ] {
            let s = schedule(best(m, 512, n), &cfg()).unwrap();
            for o in &s.ops {
                assert!(o.stage(s.tiling.ii) <= 1, "{o:?} in ms={m} na={n}");
            }
            s.verify(&cfg()).unwrap();
        }
    }

    #[test]
    fn branch_is_in_second_half() {
        let s = schedule(best(6, 512, 96), &cfg()).unwrap();
        let br = s
            .ops
            .iter()
            .find(|o| matches!(o.op, IterOp::Branch))
            .unwrap();
        assert!(br.s >= s.tiling.ii);
        assert_eq!(br.unit, Unit::Control);
    }

    #[test]
    fn no_unit_oversubscription() {
        let s = schedule(best(6, 512, 64), &cfg()).unwrap();
        let ii = s.tiling.ii;
        for c in 0..ii {
            let mut seen = Vec::new();
            for o in s.ops.iter().filter(|o| o.s % ii == c) {
                assert!(!seen.contains(&o.unit), "unit {:?} reused at {c}", o.unit);
                seen.push(o.unit);
            }
        }
    }

    #[test]
    fn verify_rejects_tampered_schedule() {
        let mut s = schedule(best(6, 512, 96), &cfg()).unwrap();
        // Move one FMAC to cycle 0 — before anything is loaded.
        let idx = s
            .ops
            .iter()
            .position(|o| matches!(o.op, IterOp::Fmac { .. }))
            .unwrap();
        s.ops[idx].s = 0;
        assert!(s.verify(&cfg()).is_err());
    }
}
