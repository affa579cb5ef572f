//! Tiling-size selection (`m_u`, `k_u`) and resource lower bounds.
//!
//! §IV-A2 of the paper: the tiling sizes are chosen to keep all three FMAC
//! units busy while hiding their latency `t_fma`, under the 64-register
//! budget.  We implement this as an explicit candidate enumeration; the
//! generator prices the first [`crate::build::SEARCH_WIDTH`] candidates
//! in closed form (skipping any whose steady-state lower bound cannot
//! win) and keeps the one with the fewest cycles, which reproduces the
//! paper's rules (`k_u = 1` with maximal `m_u` for `n_a > 64`; `k_u > 1`
//! for `n_a ≤ 64` or small `m_s`) without hard-coding them.

use crate::{GenError, KernelSpec};
use dspsim::HwConfig;
use ftimm_isa::{NUM_SREGS, NUM_VREGS};

/// One (m_u, k_u) unroll configuration with its derived quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    /// Rows of A handled per steady-state iteration.
    pub m_u: usize,
    /// Depth elements handled per steady-state iteration (1, 2 or 4).
    pub k_u: usize,
    /// Vectors per row (`ceil(n_a / 32)`).
    pub v_n: usize,
    /// Initiation interval: cycles per steady-state iteration.
    pub ii: u32,
}

impl Tiling {
    /// FMA instructions per steady-state iteration.
    pub fn fmacs_per_iter(&self) -> usize {
        self.m_u * self.k_u * self.v_n
    }

    /// Vector registers required (accumulators + double-buffered B panels
    /// + double-buffered A broadcasts).
    pub fn vregs_needed(&self) -> usize {
        self.fmacs_per_iter() + 2 * self.k_u * self.v_n + 2 * self.m_u * self.k_u
    }

    /// Scalar registers required (double-buffered load + extract chains).
    pub fn sregs_needed(&self) -> usize {
        if self.k_u == 1 {
            // SLDH + SFEXTS32L per row, two parities.
            2 * 2 * self.m_u
        } else {
            // SLDW + low/high extract per packed pair, two parities.
            2 * 3 * self.m_u * (self.k_u / 2)
        }
    }

    /// Whether the configuration fits the register files.
    pub fn fits_registers(&self) -> bool {
        self.vregs_needed() <= NUM_VREGS && self.sregs_needed() <= NUM_SREGS
    }

    /// Lower bound on the initiation interval from unit throughput and the
    /// FMAC latency (the accumulator recurrence requires `II ≥ t_fma`).
    pub fn ii_lower_bound(m_u: usize, k_u: usize, v_n: usize, cfg: &HwConfig) -> u32 {
        let fmacs = m_u * k_u * v_n;
        let fmac_bound = fmacs.div_ceil(3);
        let (ld_count, bcast_bound, sfext_bound, sieu_bound) = if k_u == 1 {
            // One SLDH / SFEXTS32L / SVBCAST per row per iteration.
            (m_u, m_u, m_u, 0)
        } else {
            // One SLDW / SFEXTS32L / SBALE2H / SVBCAST2 per packed pair.
            let pairs = m_u * (k_u / 2);
            (pairs, pairs, pairs, pairs)
        };
        let sld_bound = ld_count.div_ceil(2); // two scalar LS units
        let b_loads = k_u * v_n.div_ceil(2); // VLDDW pairs per iteration
        let vls_bound = b_loads.div_ceil(2); // two vector LS units
        let t_fma = cfg.latencies.t_fma as usize;
        [
            fmac_bound,
            bcast_bound,
            sfext_bound,
            sieu_bound,
            sld_bound,
            vls_bound,
            t_fma,
        ]
        .into_iter()
        .fold(0, usize::max) as u32
    }

    /// Steady-state FMAC-slot efficiency: useful FMAC issue slots per
    /// available slot (`fmacs / (3·II)`), before padding-lane waste.
    pub fn steady_efficiency(&self) -> f64 {
        self.fmacs_per_iter() as f64 / (3.0 * self.ii as f64)
    }
}

/// Theoretical upper-bound efficiency of a kernel with the given `n_a`
/// (§IV-A3): for `n_a ≤ 32` only one vector can be loaded from `B_a` per
/// broadcast, so at most two of the three FMAC units are usable (66.7 %).
pub fn upper_bound_efficiency(n_a: usize) -> f64 {
    if n_a > 32 {
        1.0
    } else {
        2.0 / 3.0
    }
}

/// Enumerate feasible tilings for a spec, most promising first.
pub fn candidates(spec: &KernelSpec, cfg: &HwConfig) -> Result<Vec<Tiling>, GenError> {
    spec.validate()?;
    let v_n = spec.v_n();
    let mut out = Vec::new();
    for k_u in hostsimd::SUPPORTED_KU {
        if k_u > spec.k_a {
            continue;
        }
        for m_u in 1..=spec.m_s {
            let ii = Tiling::ii_lower_bound(m_u, k_u, v_n, cfg);
            let t = Tiling { m_u, k_u, v_n, ii };
            if t.fits_registers() {
                out.push(t);
            }
        }
    }
    if out.is_empty() {
        return Err(GenError::NoFeasibleTiling(*spec));
    }
    // Higher steady-state efficiency first, larger tiles first on ties
    // (fewer blocks, less prologue/epilogue overhead).  Efficiencies are
    // positive and finite, where `total_cmp` is the numeric order.
    out.sort_by(|a, b| {
        b.steady_efficiency()
            .total_cmp(&a.steady_efficiency())
            .then(b.fmacs_per_iter().cmp(&a.fmacs_per_iter()))
            .then(a.k_u.cmp(&b.k_u))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HwConfig {
        HwConfig::default()
    }

    fn spec(m: usize, k: usize, n: usize) -> KernelSpec {
        KernelSpec::new(m, k, n).unwrap()
    }

    #[test]
    fn paper_default_kernel_is_fully_pipelined() {
        // (m_s = 6, n_a = 96): k_u = 1, m_u = 6 gives II = 6 with all three
        // FMAC units busy every cycle (Table I).
        let ii = Tiling::ii_lower_bound(6, 1, 3, &cfg());
        assert_eq!(ii, 6);
        let t = Tiling {
            m_u: 6,
            k_u: 1,
            v_n: 3,
            ii,
        };
        assert!((t.steady_efficiency() - 1.0).abs() < 1e-12);
        assert!(t.fits_registers());
    }

    #[test]
    fn table_ii_shape_na64() {
        // (m_s = 6, n_a = 64) with k_u = 2: II = 8 (Table II's 8-cycle body).
        let ii = Tiling::ii_lower_bound(6, 2, 2, &cfg());
        assert_eq!(ii, 8);
        let t = Tiling {
            m_u: 6,
            k_u: 2,
            v_n: 2,
            ii,
        };
        assert!((t.steady_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn na32_hits_broadcast_wall() {
        // (m_s = 6, n_a = 32) with k_u = 2: the SVBCAST2 unit allows at
        // most 2 broadcasts-worth per cycle → 2/3 FMAC utilisation.
        let ii = Tiling::ii_lower_bound(6, 2, 1, &cfg());
        assert_eq!(ii, 6);
        let t = Tiling {
            m_u: 6,
            k_u: 2,
            v_n: 1,
            ii,
        };
        let eff = t.steady_efficiency();
        assert!((eff - 2.0 / 3.0).abs() < 1e-12, "{eff}");
        assert!(eff <= upper_bound_efficiency(32) + 1e-12);
    }

    #[test]
    fn mod3_dip_for_na64() {
        // m_u ≡ 0 (mod 3) fills the FMAC pipes exactly (Fig 3b's dips at
        // M = 8, 10 vs the multiples of 3).
        for m_u in [5usize, 7, 8] {
            let ii = Tiling::ii_lower_bound(m_u, 2, 2, &cfg());
            let t = Tiling {
                m_u,
                k_u: 2,
                v_n: 2,
                ii,
            };
            assert!(t.steady_efficiency() < 1.0 - 1e-9, "m_u={m_u}");
        }
        let ii = Tiling::ii_lower_bound(9, 2, 2, &cfg());
        let t = Tiling {
            m_u: 9,
            k_u: 2,
            v_n: 2,
            ii,
        };
        // 9·2·2 = 36 FMACs in 12 cycles = 3/cycle.
        assert!((t.steady_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_budget_excludes_oversized_tiles() {
        let t = Tiling {
            m_u: 14,
            k_u: 1,
            v_n: 3,
            ii: 14,
        };
        assert!(!t.fits_registers(), "42 + 6 + 28 = 76 vregs > 64");
        let t = Tiling {
            m_u: 7,
            k_u: 1,
            v_n: 3,
            ii: 7,
        };
        assert!(t.fits_registers());
    }

    #[test]
    fn candidates_prefer_full_pipelines() {
        let c = candidates(&spec(6, 512, 96), &cfg()).unwrap();
        let best = c[0];
        assert!((best.steady_efficiency() - 1.0).abs() < 1e-12);
        let c = candidates(&spec(6, 512, 64), &cfg()).unwrap();
        assert!((c[0].steady_efficiency() - 1.0).abs() < 1e-12);
        // FMAC slots divide evenly by the three units at full efficiency.
        assert_eq!(c[0].fmacs_per_iter() % 3, 0);
    }

    #[test]
    fn candidates_respect_ka() {
        // k_a = 1 forbids k_u > 1.
        let c = candidates(&spec(6, 1, 32), &cfg()).unwrap();
        assert!(c.iter().all(|t| t.k_u == 1));
    }

    #[test]
    fn tiny_kernels_are_latency_bound() {
        // m_s = 1, n_a = 32: nowhere near enough independent FMACs; II is
        // pinned at t_fma and efficiency is poor — the paper's motivation
        // for m_s ≥ 6 in dynamic adjusting.
        let c = candidates(&spec(1, 64, 32), &cfg()).unwrap();
        let best = c[0];
        assert_eq!(best.ii, cfg().latencies.t_fma);
        assert!(best.steady_efficiency() < 0.5);
    }

    #[test]
    fn upper_bound_matches_paper() {
        assert_eq!(upper_bound_efficiency(96), 1.0);
        assert_eq!(upper_bound_efficiency(64), 1.0);
        assert_eq!(upper_bound_efficiency(33), 1.0);
        assert!((upper_bound_efficiency(32) - 0.667).abs() < 1e-3);
        assert!((upper_bound_efficiency(16) - 0.667).abs() < 1e-3);
    }

    #[test]
    fn infeasible_spec_is_reported() {
        // Force infeasibility: m_s = 0 is caught by validation instead.
        assert!(candidates(&spec(6, 512, 96), &cfg()).is_ok());
        let bad = KernelSpec {
            m_s: 0,
            k_a: 4,
            n_a: 4,
        };
        assert!(candidates(&bad, &cfg()).is_err());
    }
}
