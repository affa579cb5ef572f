//! The planner's analytic cost model: a roofline-style estimate cheap
//! enough to rank every candidate, so the expensive timing model only
//! sees the top few.
//!
//! The estimate is `max(compute, ddr)` per the roofline argument
//! (cf. [`crate::roofline`]):
//!
//! * **compute** — useful flops over the cores' aggregate FMAC rate,
//!   derated by the generated micro-kernel's measured efficiency (pulled
//!   through the shared [`KernelCache`], so ranking candidates also
//!   pre-warms the kernels execution needs) and by the *parallel
//!   efficiency* of the strategy's chunk count: a strategy whose
//!   parallel dimension splits into fewer chunks than cores leaves
//!   cores idle, which is exactly what sinks the wrong strategy on the
//!   paper's type-1/type-2 shapes.
//! * **ddr** — per-strategy DDR traffic (which panels are re-streamed
//!   per pass differs between M-par, K-par and TGEMM) over the
//!   achievable bandwidth.
//!
//! A candidate whose kernel cannot be generated estimates
//! `f64::INFINITY` and is naturally discarded by ranking.

use crate::{ChosenStrategy, GemmShape, TgemmParams};
use dspsim::HwConfig;
use kernelgen::{KernelCache, KernelSpec};

/// Fraction of chunk-parallel peak a strategy retains: `chunks` work
/// items round-robined over `cores` finish in `ceil(chunks/cores)`
/// waves, of which the last is partially idle.
fn parallel_efficiency(chunks: usize, cores: usize) -> f64 {
    let chunks = chunks.max(1);
    let waves = chunks.div_ceil(cores);
    chunks as f64 / (waves * cores) as f64
}

/// Measured efficiency of the micro-kernel a candidate will invoke, or
/// `None` when generation fails (the candidate cannot run).
fn kernel_efficiency(
    cache: &KernelCache,
    cfg: &HwConfig,
    m_s: usize,
    k_a: usize,
    n_a: usize,
) -> Option<f64> {
    let spec = KernelSpec::new(m_s, k_a, n_a).ok()?;
    let kernel = cache.get(spec).ok()?;
    Some(kernel.efficiency(cfg).max(1e-3))
}

/// Analytic estimate of a candidate's execution time in seconds.
///
/// Deterministic in its inputs and far cheaper than a timing-model
/// simulation; `INFINITY` means the candidate cannot run (no kernel).
pub fn analytic_seconds(
    cache: &KernelCache,
    cfg: &HwConfig,
    shape: &GemmShape,
    strategy: &ChosenStrategy,
    cores: usize,
) -> f64 {
    let cores = cores.max(1);
    let flops = shape.flops() as f64;
    let (mf, nf, kf) = (shape.m as f64, shape.n as f64, shape.k as f64);

    let (eff, chunks, ddr_elems) = match strategy {
        ChosenStrategy::MPar(b) => {
            let Some(eff) = kernel_efficiency(cache, cfg, b.m_s, b.k_a.min(shape.k), b.n_a) else {
                return f64::INFINITY;
            };
            // A and B stream once; C is read+written once per K panel
            // pass (the AM-resident C_a accumulates only within a pass).
            let passes_k = shape.k.div_ceil(b.k_g.max(1)) as f64;
            let elems = mf * kf + kf * nf + 2.0 * passes_k * mf * nf;
            (eff, shape.m.div_ceil(b.m_a.max(1)), elems)
        }
        ChosenStrategy::KPar(b) => {
            let Some(eff) = kernel_efficiency(cache, cfg, b.m_s, b.k_a.min(shape.k), b.n_a) else {
                return f64::INFINITY;
            };
            // A and C move once; B is re-streamed once per C_g row panel
            // (the GSM-resident C_g covers m_g rows at a time).
            let passes_m = shape.m.div_ceil(b.m_g.max(1)) as f64;
            let elems = mf * kf + passes_m * kf * nf + 2.0 * mf * nf;
            (eff, shape.k.div_ceil(b.k_a.max(1)), elems)
        }
        ChosenStrategy::TGemm => {
            let tp = TgemmParams::default();
            let Some(eff) = kernel_efficiency(cache, cfg, tp.m_s, tp.k_g.min(shape.k), tp.n_a)
            else {
                return f64::INFINITY;
            };
            // B is re-streamed once per A_g row panel; the parallel loop
            // is over fixed n_a-wide column chunks.
            let passes_m = shape.m.div_ceil(tp.m_g.max(1)) as f64;
            let elems = mf * kf + passes_m * kf * nf + 2.0 * mf * nf;
            (eff, shape.n.div_ceil(tp.n_a.max(1)), elems)
        }
    };

    let par = parallel_efficiency(chunks, cores);
    let compute_s = flops / (cores as f64 * cfg.core_peak_flops() * eff * par);
    let ddr_s = 4.0 * ddr_elems / (cfg.ddr_bw * cfg.ddr_efficiency);
    compute_s.max(ddr_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::planner;
    use crate::Strategy;

    fn setup() -> (KernelCache, HwConfig) {
        let cfg = HwConfig::default();
        (KernelCache::new(cfg.clone()), cfg)
    }

    #[test]
    fn parallel_efficiency_penalises_idle_cores() {
        assert!((parallel_efficiency(8, 8) - 1.0).abs() < 1e-12);
        assert!((parallel_efficiency(1, 8) - 0.125).abs() < 1e-12);
        assert!((parallel_efficiency(12, 8) - 0.75).abs() < 1e-12);
        assert!((parallel_efficiency(0, 8) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn cost_model_ranks_the_paper_type1_and_type2_shapes() {
        // Acceptance: the analytic model must agree with the §IV-C rules
        // (and the timing model — asserted by the workspace planner
        // tests) on the Fig. 5 shapes: M-par wins type-1, K-par type-2.
        let (cache, cfg) = setup();
        let ft = crate::FtImm::new(cfg.clone());
        for (shape, mpar_wins) in [
            (GemmShape::new(1 << 16, 32, 32), true),
            (GemmShape::new(32, 32, 1 << 16), false),
        ] {
            let mpar = ft.plan(&shape, Strategy::MPar, 8);
            let kpar = ft.plan(&shape, Strategy::KPar, 8);
            let t_m = analytic_seconds(&cache, &cfg, &shape, &mpar, 8);
            let t_k = analytic_seconds(&cache, &cfg, &shape, &kpar, 8);
            assert!(t_m.is_finite() && t_k.is_finite());
            assert_eq!(t_m < t_k, mpar_wins, "{shape}: mpar {t_m}s kpar {t_k}s");
        }
    }

    #[test]
    fn cost_model_agrees_with_rules_on_clear_shapes() {
        let (cache, cfg) = setup();
        for (m, n, k) in [(1 << 16, 32, 32), (32, 32, 1 << 16), (20480, 32, 20480)] {
            let shape = GemmShape::new(m, n, k);
            let rule = planner::choose_strategy(&cache, &cfg, &shape, 8);
            let t = analytic_seconds(&cache, &cfg, &shape, &rule, 8);
            assert!(t.is_finite() && t > 0.0, "{shape}: {t}");
        }
    }
}
