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
use ftimm::{ChosenStrategy, GemmShape, IrregularType, Strategy};

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
    fn render_has_all_configs() {
        let s = render(cached());
        for c in CONFIGS {
            assert!(s.contains(c));
        }
    }
}
