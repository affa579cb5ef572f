//! Planner report: what the cost-model planner chose for the paper's
//! representative shapes, how its analytic prediction compares with the
//! timing-model simulation, and what the plan cache buys on a repeated
//! shape (cold vs. warm planning wall-clock).
//!
//! Not a paper figure — this starts the perf trajectory for the planning
//! layer itself: `BENCH_planner.json` is emitted by `bench planner` and
//! archived by CI, so regressions in planning cost or in the
//! analytic/simulated agreement are visible over time.

use crate::report::{Cell::*, Document, Fmt::*, Table};
use dspsim::HwConfig;
use ftimm::{FtImm, GemmShape, Plan, Strategy, StrategyKind};
use std::time::Instant;

/// One planned shape.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Shape planned.
    pub shape: GemmShape,
    /// The resolved plan (origin, predicted and simulated seconds).
    pub plan: Plan,
    /// Wall-clock seconds of the cold `plan_full` call (cache miss:
    /// analytic ranking plus top-K timing simulations).
    pub cold_plan_s: f64,
    /// Wall-clock seconds of the immediate repeat (cache hit).
    pub warm_plan_s: f64,
}

impl Row {
    /// Cold-over-warm planning speedup the cache delivered.
    pub fn speedup(&self) -> f64 {
        self.cold_plan_s / self.warm_plan_s.max(1e-9)
    }
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per paper shape.
    pub rows: Vec<Row>,
}

impl Report {
    /// The smallest cold/warm speedup across the rows (the CI gate
    /// asserts on this conservative figure).
    pub fn min_speedup(&self) -> f64 {
        self.rows
            .iter()
            .map(Row::speedup)
            .fold(f64::INFINITY, f64::min)
    }
}

/// The shapes reported on: the paper's type-1 and type-2 extremes, the
/// type-3 double-irregular case and a regular shape (Fig. 5 / Table IV
/// territory).
pub const SHAPES: [(usize, usize, usize); 4] = [
    (1 << 16, 32, 32),
    (32, 32, 1 << 16),
    (20480, 32, 20480),
    (4096, 512, 4096),
];

/// Plan every report shape cold and warm on one shared context.
pub fn compute() -> Report {
    let ft = FtImm::new(HwConfig::default());
    let rows = SHAPES
        .iter()
        .map(|&(m, n, k)| {
            let shape = GemmShape::new(m, n, k);
            let t0 = Instant::now();
            let plan = ft.plan_full(&shape, Strategy::Auto, 8);
            let cold_plan_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let again = ft.plan_full(&shape, Strategy::Auto, 8);
            let warm_plan_s = t1.elapsed().as_secs_f64();
            assert_eq!(plan, again, "planning must be deterministic");
            Row {
                shape,
                plan,
                cold_plan_s,
                warm_plan_s,
            }
        })
        .collect();
    Report { rows }
}

/// Describe the report once: [`Document::render`] prints it,
/// [`Document::json`] is the `BENCH_planner.json` document.
pub fn document(report: &Report) -> Document {
    let times = Fixed(1.0, 0, "x");
    let rows = Table::new(
        "rows",
        "Planner — chosen plan, predicted vs simulated seconds, cache speedup (8 cores)",
        &report.rows,
    )
    .shape(|r| r.shape)
    .col("plan", "plan", |r| {
        Text(StrategyKind::of(&r.plan.strategy).label().into())
    })
    .col("origin", "origin", |r| Text(r.plan.origin.tag().into()))
    .col("predicted_s", "predicted_s", |r| {
        Num(r.plan.predicted_s, Sci)
    })
    .col("simulated_s", "simulated_s", |r| {
        Num(r.plan.simulated_s, Sci)
    })
    .col("candidates", "cands", |r| Count(r.plan.candidates.into()))
    .col("simulations", "sims", |r| Count(r.plan.simulations.into()))
    .col("cold_plan_s", "cold", |r| {
        Num(r.cold_plan_s, Fixed(1e3, 1, "ms"))
    })
    .col("warm_plan_s", "warm", |r| {
        Num(r.warm_plan_s, Fixed(1e6, 1, "us"))
    })
    .col("speedup", "speedup", |r| Num(r.speedup(), times));
    Document::new("planner")
        .table(rows)
        .value("min_speedup", Num(report.min_speedup(), times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftimm::ChosenStrategy;
    use std::sync::OnceLock;

    fn cached() -> &'static Report {
        static P: OnceLock<Report> = OnceLock::new();
        P.get_or_init(compute)
    }

    #[test]
    fn planner_picks_the_paper_strategies_for_the_extreme_types() {
        let report = cached();
        let plan_for = |m: usize, n: usize, k: usize| {
            report
                .rows
                .iter()
                .find(|r| r.shape == GemmShape::new(m, n, k))
                .unwrap()
                .plan
        };
        assert!(matches!(
            plan_for(1 << 16, 32, 32).strategy,
            ChosenStrategy::MPar(_)
        ));
        assert!(matches!(
            plan_for(32, 32, 1 << 16).strategy,
            ChosenStrategy::KPar(_)
        ));
    }

    #[test]
    fn every_row_was_simulated_and_predicted() {
        for r in &cached().rows {
            assert!(r.plan.simulated_s.is_finite(), "{}", r.shape);
            assert!(r.plan.predicted_s.is_finite(), "{}", r.shape);
            assert!(r.plan.simulations >= 2, "{}", r.shape);
        }
    }

    #[test]
    fn warm_planning_is_much_faster_than_cold() {
        // The CI smoke gate asserts 10x; leave headroom here so a loaded
        // test machine does not flake.
        assert!(
            cached().min_speedup() > 5.0,
            "min speedup {}",
            cached().min_speedup()
        );
    }

    #[test]
    fn json_document_carries_every_row() {
        let report = cached();
        let v = crate::report::parsed(&document(report), "planner");
        let rows = v.get("rows").unwrap().as_arr("rows").unwrap();
        assert_eq!(rows.len(), report.rows.len());
        for (row, r) in rows.iter().zip(&report.rows) {
            assert_eq!(row.get("m").unwrap().as_u64("m"), Ok(r.shape.m as u64));
            assert_eq!(row.get("k").unwrap().as_u64("k"), Ok(r.shape.k as u64));
            assert_eq!(
                row.get("origin").unwrap().as_str("origin"),
                Ok(r.plan.origin.tag())
            );
            assert_eq!(
                row.get("simulated_s").unwrap().as_f64("simulated_s"),
                Ok(r.plan.simulated_s)
            );
        }
        assert_eq!(
            v.get("min_speedup").unwrap().as_f64("min_speedup"),
            Ok(report.min_speedup())
        );
    }
}
