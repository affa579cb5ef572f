//! Planner report: what the cost-model planner chose for the paper's
//! representative shapes, how its analytic prediction compares with the
//! timing-model simulation, and what the plan cache buys on a repeated
//! shape (cold vs. warm planning wall-clock).
//!
//! Not a paper figure — this starts the perf trajectory for the planning
//! layer itself: `BENCH_planner.json` is emitted by `bench planner` and
//! archived by CI, so regressions in planning cost or in the
//! analytic/simulated agreement are visible over time.
//!
//! Its `walks` table is what one timing walk costs on the host, stepped
//! and with core replay, on shapes from 8192×32×32 to 32×32×65536.  It
//! reports host time and gates nothing.

use crate::report::{Cell::*, Document, Fmt::*, Table};
use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::{
    ChosenStrategy, Executor, FtImm, FtimmError, GemmProblem, GemmShape, Plan, Strategy,
    StrategyKind,
};
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

/// What one timing walk of a shape's plan costs on the host.
#[derive(Debug, Clone, Copy)]
pub struct WalkRow {
    /// Shape walked.
    pub shape: GemmShape,
    /// The `Strategy::Auto` plan walked, on 8 cores.
    pub plan: ChosenStrategy,
    /// Simulated seconds of the walk.
    pub simulated_s: f64,
    /// Host seconds per walk with every core stepped.
    pub stepped_s: f64,
    /// Host seconds per walk with core replay.
    pub replayed_s: f64,
}

impl WalkRow {
    /// How many times cheaper replay makes the walk.
    pub fn gain(&self) -> f64 {
        self.stepped_s / self.replayed_s.max(1e-12)
    }
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per paper shape.
    pub rows: Vec<Row>,
    /// One row per [`WALK_SHAPES`] entry.
    pub walks: Vec<WalkRow>,
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

/// The walk-cost shapes: type 1 from 8192 to 524288 rows, a deep type 1,
/// a type 3 and a type 2.
pub const WALK_SHAPES: [(usize, usize, usize); 6] = [
    (8192, 32, 32),
    (65536, 32, 32),
    (524288, 32, 32),
    (16384, 32, 2048),
    (20480, 64, 20480),
    (32, 32, 65536),
];

/// Walks timed per cell (one in debug builds, where only the shape of
/// the report is under test).
const WALK_REPS: usize = if cfg!(debug_assertions) { 1 } else { 20 };

/// Run `walk` once untimed, then [`WALK_REPS`] times: its simulated
/// seconds and the mean host seconds per walk.
fn per_walk(mut walk: impl FnMut() -> f64) -> (f64, f64) {
    let simulated_s = walk();
    let t0 = Instant::now();
    for _ in 0..WALK_REPS {
        std::hint::black_box(walk());
    }
    (simulated_s, t0.elapsed().as_secs_f64() / WALK_REPS as f64)
}

/// Time [`WALK_SHAPES`]' walks on a capacity-0 context, so that no walk
/// is memoised.  Replayed is [`FtImm::predict_seconds`]; stepped is the
/// same walk through an [`Executor`] on a machine recording spans into a
/// one-span profiler, which turns replay off (and adds a ring push per
/// span).  Each walk runs on a fresh timing machine.
pub fn walk_costs() -> Vec<WalkRow> {
    let ft = FtImm::with_plan_cache_capacity(HwConfig::default(), 0);
    WALK_SHAPES
        .iter()
        .map(|&(m, n, k)| {
            let shape = GemmShape::new(m, n, k);
            let plan = ft.plan(&shape, Strategy::Auto, 8);
            let (simulated_s, replayed_s) = per_walk(|| ft.predict_seconds(&shape, &plan, 8));
            let (stepped_sim_s, stepped_s) = per_walk(|| {
                let mut mach = Machine::new(ft.cfg().clone(), ExecMode::Timing);
                mach.profile_begin(1);
                GemmProblem::alloc(&mut mach, m, n, k)
                    .map_err(FtimmError::from)
                    .and_then(|p| {
                        Executor::new(&ft)
                            .with_plan(plan)
                            .cores(8)
                            .run(&mut mach, &p)
                    })
                    .map_or(f64::INFINITY, |r| r.seconds)
            });
            assert_eq!(
                stepped_sim_s.to_bits(),
                simulated_s.to_bits(),
                "{shape}: replay moved the simulated clock"
            );
            WalkRow {
                shape,
                plan,
                simulated_s,
                stepped_s,
                replayed_s,
            }
        })
        .collect()
}

/// Plan every report shape cold and warm on one shared context, and time
/// the walk-cost shapes.
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
    Report {
        rows,
        walks: walk_costs(),
    }
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
    let us = Fixed(1e6, 1, "us");
    let walks = Table::new(
        "walks",
        "Timing walk host cost — stepped vs core replay (Auto plan, 8 cores, memo off)",
        &report.walks,
    )
    .shape(|r| r.shape)
    .col("plan", "plan", |r| {
        Text(StrategyKind::of(&r.plan).label().into())
    })
    .col("simulated_s", "simulated", |r| Num(r.simulated_s, us))
    .col("stepped_s", "stepped", |r| Num(r.stepped_s, us))
    .col("replayed_s", "replayed", |r| Num(r.replayed_s, us))
    .col("gain", "gain", |r| Num(r.gain(), Fixed(1.0, 2, "x")));
    Document::new("planner")
        .table(rows)
        .table(walks)
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
        let walks = v.get("walks").unwrap().as_arr("walks").unwrap();
        assert_eq!(walks.len(), WALK_SHAPES.len());
        for (row, w) in walks.iter().zip(&report.walks) {
            assert_eq!(row.get("m").unwrap().as_u64("m"), Ok(w.shape.m as u64));
            assert_eq!(
                row.get("stepped_s").unwrap().as_f64("stepped_s"),
                Ok(w.stepped_s)
            );
            assert_eq!(
                row.get("replayed_s").unwrap().as_f64("replayed_s"),
                Ok(w.replayed_s)
            );
        }
    }
}
