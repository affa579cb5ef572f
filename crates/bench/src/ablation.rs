//! Ablation study: how much each of ftIMM's three mechanisms contributes
//! (§IV: auto-generated micro-kernels, shape-matched parallelisation,
//! dynamic block adjusting).  Not a paper figure — this backs the paper's
//! §III analysis with measurements on the model.
//!
//! Configurations, from baseline to full system:
//! 1. `TGEMM`            — fixed 96-wide kernel, fixed blocks, N-parallel;
//! 2. `FixedBlocks`      — ftIMM parallelisation with the *initial* CMR
//!    blocks (dynamic adjusting disabled);
//! 3. `RulesOnly`        — adjusted blocks, rule-based strategy choice;
//! 4. `Full`             — adjusted blocks + model-based strategy choice.

use crate::common::{format_table, Harness};
use dspsim::HwConfig;
use ftimm::{ChosenStrategy, FtImm, GemmShape, IrregularType, Strategy};

/// One ablation row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Shape evaluated.
    pub shape: GemmShape,
    /// GFLOPS per configuration, in the order documented above.
    pub gflops: [f64; 4],
}

/// Configuration labels.
pub const CONFIGS: [&str; 4] = ["TGEMM", "FixedBlocks", "RulesOnly", "Full"];

/// Evaluate the ablation on representative shapes of the three types.
pub fn compute() -> Vec<Row> {
    let h = Harness::new();
    let cores = 8;
    let shapes = [
        GemmShape::new(1 << 18, 32, 32),
        GemmShape::new(2880, 32, 8192), // 9 fixed-size chunks over 8 cores
        GemmShape::new(32, 32, 1 << 18),
        GemmShape::new(20480, 32, 20480),
        GemmShape::new(20480, 96, 20480),
    ];
    shapes
        .into_iter()
        .map(|shape| {
            let gf = |t: f64| shape.flops() as f64 / t / 1e9;
            // 1. TGEMM baseline.
            let t_tg = h.ft.predict_seconds(&shape, &ChosenStrategy::TGemm, cores);
            // 2. ftIMM parallelisation with unadjusted initial blocks.
            let fixed = match shape.classify() {
                IrregularType::SkinnyTallTimesTallSkinny => {
                    ChosenStrategy::KPar(ftimm::initial_kpar(h.ft.cache(), h.ft.cfg(), cores))
                }
                _ => ChosenStrategy::MPar(ftimm::initial_mpar(h.ft.cache(), h.ft.cfg(), cores)),
            };
            let t_fixed = h.ft.predict_seconds(&shape, &fixed, cores);
            // 3. Rule-based dynamic adjusting.
            let rules = h.ft.plan(&shape, Strategy::Rules, cores);
            let t_rules = h.ft.predict_seconds(&shape, &rules, cores);
            // 4. Full ftIMM (model-based auto selection).
            let auto = h.ft.plan(&shape, Strategy::Auto, cores);
            let t_auto = h.ft.predict_seconds(&shape, &auto, cores);
            Row {
                shape,
                gflops: [gf(t_tg), gf(t_fixed), gf(t_rules), gf(t_auto)],
            }
        })
        .collect()
}

/// Plan-cache ablation: the same `Strategy::Auto` planning request
/// repeated on contexts with the memo enabled vs disabled.
#[derive(Debug, Clone, Copy)]
pub struct CacheRow {
    /// Shape planned.
    pub shape: GemmShape,
    /// Times the request was issued.
    pub repeats: u32,
    /// Total planning wall-clock with the default cache, seconds.
    pub cached_s: f64,
    /// Total planning wall-clock with a zero-capacity cache, seconds.
    pub uncached_s: f64,
    /// Timing simulations the cached context ran (the first request's
    /// only — hits simulate nothing).
    pub cached_sims: u64,
    /// Timing simulations the uncached context ran (grows per repeat).
    pub uncached_sims: u64,
}

/// Measure the plan-cache ablation: `repeats` identical Auto requests
/// against a cached and an uncached context.
pub fn compute_plan_cache(repeats: u32) -> CacheRow {
    let shape = GemmShape::new(4096, 32, 4096);
    let time_plans = |ft: &FtImm| {
        let t0 = std::time::Instant::now();
        for _ in 0..repeats {
            ft.plan_full(&shape, Strategy::Auto, 8);
        }
        t0.elapsed().as_secs_f64()
    };
    let cached = FtImm::new(HwConfig::default());
    let cached_s = time_plans(&cached);
    let uncached = FtImm::with_plan_cache_capacity(HwConfig::default(), 0);
    let uncached_s = time_plans(&uncached);
    CacheRow {
        shape,
        repeats,
        cached_s,
        uncached_s,
        cached_sims: cached.timing_simulations(),
        uncached_sims: uncached.timing_simulations(),
    }
}

/// Render the plan-cache ablation lines.
pub fn render_plan_cache(r: &CacheRow) -> String {
    format!(
        "Plan-cache ablation — {} Auto plans of {}:\n\
         cache on : {:.3e}s total, {} timing simulations\n\
         cache off: {:.3e}s total, {} timing simulations ({:.0}x slower)\n",
        r.repeats,
        r.shape,
        r.cached_s,
        r.cached_sims,
        r.uncached_s,
        r.uncached_sims,
        r.uncached_s / r.cached_s.max(1e-12)
    )
}

/// Render the ablation table.
pub fn render(rows: &[Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.shape.to_string()];
            cells.extend(r.gflops.iter().map(|g| format!("{g:.1}")));
            cells.push(format!("{:.2}x", r.gflops[3] / r.gflops[0]));
            cells
        })
        .collect();
    format_table(
        "Ablation — contribution of each ftIMM mechanism (GFLOPS, 8 cores)",
        &[
            "MxNxK",
            CONFIGS[0],
            CONFIGS[1],
            CONFIGS[2],
            CONFIGS[3],
            "full/tgemm",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn cached() -> &'static [Row] {
        static P: OnceLock<Vec<Row>> = OnceLock::new();
        P.get_or_init(compute)
    }

    #[test]
    fn each_mechanism_is_non_degrading_overall() {
        for r in cached() {
            let [tgemm, fixed, rules, full] = r.gflops;
            // Fixed-block ftIMM already beats TGEMM (kernels + strategy).
            assert!(fixed > tgemm, "{}: {fixed} vs {tgemm}", r.shape);
            // Dynamic adjusting is at worst neutral against fixed blocks.
            assert!(rules >= fixed * 0.9, "{}: {rules} vs {fixed}", r.shape);
            // Auto never loses to rules (it evaluates them).
            assert!(full >= rules * 0.999, "{}: {full} vs {rules}", r.shape);
        }
    }

    #[test]
    fn adjusting_rebalances_chunked_m() {
        // 2880 rows: the fixed m_a = 320 gives 9 chunks over 8 cores (one
        // core does double work); adjusting resizes m_a so the chunks
        // divide evenly.
        let rows = cached();
        let r = rows
            .iter()
            .find(|r| r.shape == GemmShape::new(2880, 32, 8192))
            .unwrap();
        let gain = r.gflops[2] / r.gflops[1];
        assert!(gain > 1.1, "adjusting gain only {gain}");
    }

    #[test]
    fn plan_cache_eliminates_repeat_simulations() {
        let r = compute_plan_cache(3);
        // The cached context simulates only on the first request; the
        // uncached one re-simulates every time.  The counts are the
        // deterministic property; the timings are host wall-clock and
        // only rendered.
        assert!(r.cached_sims > 0);
        assert_eq!(r.uncached_sims % r.cached_sims, 0);
        assert_eq!(r.uncached_sims / r.cached_sims, 3);
        assert!(render_plan_cache(&r).contains("cache off"));
    }

    #[test]
    fn render_has_all_configs() {
        let s = render(cached());
        for c in CONFIGS {
            assert!(s.contains(c));
        }
    }
}
