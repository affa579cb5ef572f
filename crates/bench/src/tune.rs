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

use crate::planner::SHAPES;
use crate::report::{Cell::*, Document, Fmt::*, Table};
use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::{
    ranking_agreement, FtImm, GemmShape, Plan, RegimeAgreement, Strategy, StrategyKind, TuneConfig,
};
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
    let mut machine = Machine::with_mode(ExecMode::Compiled);
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

/// Describe the report once: [`Document::render`] prints it,
/// [`Document::json`] is the `BENCH_tune.json` document.
pub fn document(report: &Report) -> Document {
    let fraction = Fixed(1.0, 2, "");
    let rows = Table::new(
        "rows",
        "Tuner — default vs tuned simulated seconds per paper shape (8 cores)",
        &report.rows,
    )
    .shape(|r| r.shape)
    .col("plan", "plan", |r| {
        Text(StrategyKind::of(&r.tuned_plan.strategy).label().into())
    })
    .col("origin", "origin", |r| {
        Text(r.tuned_plan.origin.tag().into())
    })
    .col("default_simulated_s", "default_s", |r| {
        Num(r.default_plan.simulated_s, Sci)
    })
    .col("tuned_simulated_s", "tuned_s", |r| {
        Num(r.tuned_plan.simulated_s, Sci)
    })
    .col("speedup", "speedup", |r| {
        Num(r.speedup(), Fixed(1.0, 3, "x"))
    })
    .col("adopted", "adopted", |r| Count(r.adopted.into()))
    .col("variants", "variants", |r| Count(r.variants.into()))
    .col("simulations", "sims", |r| Count(r.simulations.into()));
    let reported: Vec<&RegimeAgreement> =
        report.agreement.iter().filter(|a| a.records > 0).collect();
    let agreement = Table::new(
        "agreement",
        "Calibration — analytic-vs-simulated ranking agreement per regime",
        &reported,
    )
    .col("regime", "regime", |a| Text(format!("{:?}", a.regime)))
    .col("records", "records", |a| Count(a.records as u64))
    .col("pairs", "pairs", |a| Count(a.pairs as u64))
    .col("raw", "raw", |a| Num(a.raw_fraction(), fraction))
    .col("corrected", "corrected", |a| {
        Num(a.corrected_fraction(), fraction)
    });
    Document::new("tune")
        .table(rows)
        .table(agreement)
        .value("tuning_s", Num(report.tuning_s, Fixed(1e3, 1, "ms")))
        .value("records", Count(report.records as u64))
        .value("max_regression_s", Num(report.max_regression_s(), Sci))
        .value("warm_simulations", Count(report.warm_simulations))
        .value("warm_catalog_hits", Count(report.warm_catalog_hits))
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
        // Flags are counts: the repo's own reader has no booleans.
        let v = crate::report::parsed(&document(report), "tune");
        let rows = v.get("rows").unwrap().as_arr("rows").unwrap();
        assert_eq!(rows.len(), report.rows.len());
        for (row, r) in rows.iter().zip(&report.rows) {
            assert_eq!(row.get("m").unwrap().as_u64("m"), Ok(r.shape.m as u64));
            assert_eq!(
                row.get("adopted").unwrap().as_u64("adopted"),
                Ok(r.adopted.into())
            );
            assert_eq!(
                row.get("speedup").unwrap().as_f64("speedup"),
                Ok(r.speedup())
            );
        }
        let agreement = v.get("agreement").unwrap().as_arr("agreement").unwrap();
        assert!(!agreement.is_empty());
        for a in agreement {
            let corrected = a.get("corrected").unwrap().as_f64("corrected").unwrap();
            assert!((0.0..=1.0).contains(&corrected));
        }
        assert_eq!(
            v.get("max_regression_s")
                .unwrap()
                .as_f64("max_regression_s"),
            Ok(report.max_regression_s())
        );
        assert_eq!(v.get("warm_simulations").unwrap().as_u64("sims"), Ok(0));
        assert_eq!(
            v.get("records").unwrap().as_u64("records"),
            Ok(report.records as u64)
        );
    }
}
