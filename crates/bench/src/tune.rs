//! Tuner report: what the autotuner buys over the planner's analytic
//! pick on the paper's representative shapes, how much the fitted
//! calibration improves analytic-vs-simulated ranking agreement per
//! regime, and proof that a catalog warm start plans every shape with
//! zero timing simulations.
//!
//! Not a paper figure — `BENCH_tune.json` is emitted by the `tune`
//! binary and archived by CI with two gates: tuned plans are never
//! predicted slower than the analytic pick (`--assert-no-regression`),
//! and a fresh context loading the emitted `ftimm-plan-catalog-v1`
//! serves all shapes simulation-free (`--assert-warm-zero-sims`).

use crate::common::format_table;
use crate::planner::SHAPES;
use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::{
    ranking_agreement, FtImm, GemmShape, Plan, RegimeAgreement, Strategy, StrategyKind, TuneConfig,
};
use std::fmt::Write as _;
use std::path::Path;

/// One tuned shape.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Shape tuned.
    pub shape: GemmShape,
    /// The untuned `Strategy::Auto` pick the search started from.
    pub default_plan: Plan,
    /// The tuned plan (what the catalog persists).
    pub tuned_plan: Plan,
    /// Whether the search adopted a bit-safe variant over the default.
    pub adopted: bool,
    /// Bit-safe variants considered beyond the planner's candidates.
    pub variants: u32,
    /// Total timing simulations the tune ran.
    pub simulations: u32,
}

impl Row {
    /// Predicted tuned-over-default speedup on the timing model
    /// (`>= 1.0` by construction).
    pub fn speedup(&self) -> f64 {
        self.default_plan.simulated_s / self.tuned_plan.simulated_s.max(1e-30)
    }
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per paper shape.
    pub rows: Vec<Row>,
    /// Per-regime analytic-vs-simulated ranking agreement, raw and with
    /// the fitted calibration applied.
    pub agreement: Vec<RegimeAgreement>,
    /// Host seconds spent tuning, from the profiler's `tune` track.
    pub tuning_s: f64,
    /// Calibration records the tuning session produced.
    pub records: usize,
    /// Timing simulations the catalog warm-start context ran while
    /// re-planning every shape (the zero-sims gate).
    pub warm_simulations: u64,
    /// Catalog hits the warm-start context served.
    pub warm_catalog_hits: u64,
}

impl Report {
    /// Worst tuned-vs-default simulated-seconds regression across rows:
    /// positive means some tuned plan is predicted *slower* than its
    /// default (must never happen; the CI gate asserts on it).
    pub fn max_regression_s(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.tuned_plan.simulated_s - r.default_plan.simulated_s)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Tune every report shape on one context, persist the catalog at
/// `catalog_path`, then warm-start a fresh context from it and replan
/// everything to measure the zero-simulation claim.
pub fn compute(catalog_path: &Path) -> Report {
    let ft = FtImm::new(HwConfig::default());
    let mut machine = Machine::with_mode(ExecMode::Fast);
    machine.profile_begin(64);
    let rows: Vec<Row> = SHAPES
        .iter()
        .map(|&(m, n, k)| {
            let shape = GemmShape::new(m, n, k);
            let o = ft.tune_on(&mut machine, &shape, 8, &TuneConfig::default());
            Row {
                shape,
                default_plan: o.default_plan,
                tuned_plan: o.plan,
                adopted: o.adopted_variant,
                variants: o.variants,
                simulations: o.simulations,
            }
        })
        .collect();
    let tuning_s = machine.profile_end().aggregate().tuning_s();

    let records = ft.calibration_records();
    let agreement = ranking_agreement(&records, &ft.calibration());
    ft.save_plan_catalog(catalog_path)
        .unwrap_or_else(|e| panic!("saving catalog: {e}"));

    let warm = FtImm::with_plan_catalog(HwConfig::default(), catalog_path)
        .unwrap_or_else(|e| panic!("loading catalog: {e}"));
    for row in &rows {
        let plan = warm.plan_full(&row.shape, Strategy::Auto, 8);
        assert_eq!(
            plan, row.tuned_plan,
            "{}: catalog round-trip changed the plan",
            row.shape
        );
    }
    Report {
        rows,
        agreement,
        tuning_s,
        records: records.len(),
        warm_simulations: warm.timing_simulations(),
        warm_catalog_hits: warm.tuning_stats().catalog_hits,
    }
}

/// Render the printable report tables.
pub fn render(report: &Report) -> String {
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.shape.to_string(),
                StrategyKind::of(&r.tuned_plan.strategy).label().to_string(),
                format!("{:.3e}", r.default_plan.simulated_s),
                format!("{:.3e}", r.tuned_plan.simulated_s),
                format!("{:.3}x", r.speedup()),
                if r.adopted { "yes" } else { "no" }.to_string(),
                format!("{}", r.variants),
                format!("{}", r.simulations),
            ]
        })
        .collect();
    let mut s = format_table(
        "Tuner — default vs tuned simulated seconds per paper shape (8 cores)",
        &[
            "MxNxK",
            "plan",
            "default_s",
            "tuned_s",
            "speedup",
            "adopted",
            "variants",
            "sims",
        ],
        &rows,
    );
    let agreement: Vec<Vec<String>> = report
        .agreement
        .iter()
        .filter(|a| a.records > 0)
        .map(|a| {
            vec![
                format!("{:?}", a.regime),
                format!("{}", a.records),
                format!("{}", a.pairs),
                format!("{:.2}", a.raw_fraction()),
                format!("{:.2}", a.corrected_fraction()),
            ]
        })
        .collect();
    s.push('\n');
    s.push_str(&format_table(
        "Calibration — analytic-vs-simulated ranking agreement per regime",
        &["regime", "records", "pairs", "raw", "corrected"],
        &agreement,
    ));
    let _ = writeln!(
        s,
        "\ntuning took {:.1}ms host time ({} records); warm start: {} simulations, {} catalog hits",
        report.tuning_s * 1e3,
        report.records,
        report.warm_simulations,
        report.warm_catalog_hits
    );
    s
}

/// Serialise the report as the `BENCH_tune.json` document.
pub fn render_json(report: &Report) -> String {
    let mut s = String::from("{\n  \"schema\": \"ftimm-bench-tune-v1\",\n  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"m\": {}, \"n\": {}, \"k\": {}, \"plan\": \"{}\", \"origin\": \"{}\", \
             \"default_simulated_s\": {:?}, \"tuned_simulated_s\": {:?}, \"speedup\": {:?}, \
             \"adopted\": {}, \"variants\": {}, \"simulations\": {}}}",
            r.shape.m,
            r.shape.n,
            r.shape.k,
            StrategyKind::of(&r.tuned_plan.strategy).label(),
            r.tuned_plan.origin.tag(),
            r.default_plan.simulated_s,
            r.tuned_plan.simulated_s,
            r.speedup(),
            r.adopted,
            r.variants,
            r.simulations
        );
        s.push_str(if i + 1 < report.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"agreement\": [\n");
    let reported: Vec<&RegimeAgreement> =
        report.agreement.iter().filter(|a| a.records > 0).collect();
    for (i, a) in reported.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"regime\": \"{:?}\", \"records\": {}, \"pairs\": {}, \"raw\": {:?}, \
             \"corrected\": {:?}}}",
            a.regime,
            a.records,
            a.pairs,
            a.raw_fraction(),
            a.corrected_fraction()
        );
        s.push_str(if i + 1 < reported.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"tuning_s\": {:?},", report.tuning_s);
    let _ = writeln!(s, "  \"records\": {},", report.records);
    let _ = writeln!(
        s,
        "  \"max_regression_s\": {:?},",
        report.max_regression_s()
    );
    let _ = writeln!(s, "  \"warm_simulations\": {},", report.warm_simulations);
    let _ = writeln!(s, "  \"warm_catalog_hits\": {}", report.warm_catalog_hits);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn cached() -> &'static (Report, std::path::PathBuf) {
        static P: OnceLock<(Report, std::path::PathBuf)> = OnceLock::new();
        P.get_or_init(|| {
            let path = std::env::temp_dir()
                .join(format!("ftimm-bench-tune-test-{}.json", std::process::id()));
            (compute(&path), path)
        })
    }

    #[test]
    fn tuned_plans_are_never_predicted_slower() {
        let (report, _) = cached();
        assert!(
            report.max_regression_s() <= 0.0,
            "max regression {}s",
            report.max_regression_s()
        );
        for r in &report.rows {
            assert!(r.tuned_plan.simulated_s.is_finite(), "{}", r.shape);
            assert_eq!(r.tuned_plan.origin, ftimm::PlanOrigin::Tuned);
        }
    }

    #[test]
    fn warm_start_does_zero_simulations() {
        let (report, _) = cached();
        assert_eq!(report.warm_simulations, 0);
        assert_eq!(report.warm_catalog_hits, report.rows.len() as u64);
    }

    #[test]
    fn tune_phase_was_profiled_and_records_flowed() {
        let (report, _) = cached();
        assert!(report.tuning_s > 0.0);
        assert!(report.records > 0);
        assert!(report.agreement.iter().any(|a| a.records > 0));
    }

    #[test]
    fn emitted_catalog_parses_cleanly() {
        let (_, path) = cached();
        let load = ftimm::load_catalog(path).unwrap();
        assert_eq!(load.quarantined, 0);
        assert_eq!(load.catalog.entries.len(), SHAPES.len());
        assert!(!load.catalog.records.is_empty());
    }

    #[test]
    fn json_document_carries_rows_gates_and_agreement() {
        let (report, _) = cached();
        let s = render_json(report);
        assert!(s.contains("ftimm-bench-tune-v1"));
        for r in &report.rows {
            assert!(s.contains(&format!("\"m\": {}", r.shape.m)));
        }
        for key in [
            "max_regression_s",
            "warm_simulations",
            "agreement",
            "corrected",
        ] {
            assert!(s.contains(key), "missing {key}");
        }
    }
}
