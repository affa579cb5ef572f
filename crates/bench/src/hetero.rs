//! Heterogeneous failover report: the cost of spilling to the host CPU
//! lane when every DSP cluster is lost, on the Table I–III regimes.
//!
//! Not a paper figure — the paper's machine never loses its cluster;
//! this measures the engine's last fault domain (DESIGN.md §4.4).  Each
//! regime runs a single-cluster timing-mode job twice: fault-free, and
//! with the cluster killed mid-shard under
//! [`ftimm::SpillPolicy::LastResort`] so the checkpointed remainder
//! resumes on the CPU lane.  The lane charges simulated time from the
//! `cpublas` analytic model, so the CI gate cross-checks the measured
//! lane occupancy against an *independent* prediction of the spilled
//! stripe, computed through the same [`ftimm::predict_cpu_stripe`]
//! helper the co-execution planner consults (one call site for the CPU
//! model, so the gate and the planner cannot drift apart):
//! `BENCH_hetero.json`'s `--assert-cpu-model` bound fails the build
//! when they diverge (default tolerance ±30%).

use crate::cluster::{CORES, REGIMES};
use crate::common::run_completed;
use crate::report::{Cell::*, Document, Fmt::*, Table};
use dspsim::{BackendKind, ExecMode, FaultPlan, HwConfig};
use ftimm::{
    ClusterPool, EngineConfig, FtImm, GemmShape, ResilienceConfig, ShardedConfig, ShardedEngine,
    ShardedJob, SpillPolicy, Strategy,
};

/// One regime's spill measurement.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Regime label (`table1-type1`, …).
    pub regime: &'static str,
    /// The shape run.
    pub shape: GemmShape,
    /// Fault-free single-cluster makespan.
    pub fault_free_s: f64,
    /// Makespan with the mid-shard cluster kill and CPU spill.
    pub with_kill_s: f64,
    /// Rows the CPU lane absorbed (salvage remainder).
    pub rows_spilled: usize,
    /// Measured CPU-lane busy seconds across its dispatches.
    pub cpu_lane_s: f64,
    /// Independent `cpublas` model prediction for the spilled stripe.
    pub model_cpu_s: f64,
}

impl Row {
    /// Measured lane time over the model's prediction (1.0 = the lane
    /// charges exactly what the analytic model says it should).
    pub fn model_ratio(&self) -> f64 {
        self.cpu_lane_s / self.model_cpu_s.max(1e-12)
    }

    /// End-to-end cost of losing the cluster, as a multiple of the
    /// fault-free makespan.
    pub fn slowdown(&self) -> f64 {
        self.with_kill_s / self.fault_free_s.max(1e-12)
    }
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per Table I–III regime.
    pub rows: Vec<Row>,
}

impl Report {
    /// Largest relative error between the measured CPU-lane time and
    /// the model prediction — the quantity the CI gate bounds.
    pub fn max_model_error(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| (r.model_ratio() - 1.0).abs())
            .fold(0.0, f64::max)
    }
}

fn cfg() -> ShardedConfig {
    ShardedConfig {
        engine: EngineConfig {
            resilience: ResilienceConfig {
                ckpt_rows: 64,
                ..ResilienceConfig::default()
            },
        },
        spill: SpillPolicy::LastResort,
        ..ShardedConfig::default()
    }
}

fn measure(ft: &FtImm, regime: &'static str, shape: GemmShape) -> Row {
    // Fault-free single-cluster baseline (also the kill-window probe).
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, 1);
    let mut eng = ShardedEngine::new(pool, cfg());
    let job = || ShardedJob::timing(shape.m, shape.n, shape.k, Strategy::Auto, CORES);
    let clean = run_completed(ft, &mut eng, job(), shape);
    let shard0_s = clean.shard_runs[0].seconds;

    // Kill the only cluster halfway through its shard: the checkpointed
    // remainder must resume on the CPU lane.
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, 1);
    let mut eng = ShardedEngine::new(pool, cfg());
    eng.install_faults(0, &FaultPlan::new(5).kill_cluster(shard0_s * 0.5));
    let killed = run_completed(ft, &mut eng, job(), shape);
    assert!(
        !killed.failovers.is_empty(),
        "{shape}: the kill must actually trigger a failover"
    );

    let (mut rows_spilled, mut cpu_lane_s) = (0usize, 0.0f64);
    for r in killed
        .shard_runs
        .iter()
        .filter(|r| r.backend == BackendKind::Cpu)
    {
        rows_spilled += r.r1 - r.r0;
        cpu_lane_s += r.seconds;
    }
    assert!(rows_spilled > 0, "{shape}: nothing reached the CPU lane");
    // The independent prediction: what the analytic model says the
    // spilled stripe costs on the comparator CPU.
    let model_cpu_s =
        ftimm::predict_cpu_stripe(&cfg().cpu, rows_spilled, shape.n, shape.k, 1.0).seconds;
    Row {
        regime,
        shape,
        fault_free_s: clean.seconds,
        with_kill_s: killed.seconds,
        rows_spilled,
        cpu_lane_s,
        model_cpu_s,
    }
}

/// Run the three-regime spill sweep.
pub fn compute() -> Report {
    let ft = FtImm::new(HwConfig::default());
    Report {
        rows: REGIMES
            .iter()
            .map(|&(regime, (m, n, k))| measure(&ft, regime, GemmShape::new(m, n, k)))
            .collect(),
    }
}

/// Describe the report once: [`Document::render`] prints it,
/// [`Document::json`] is the `BENCH_hetero.json` document.
pub fn document(report: &Report) -> Document {
    let rows = Table::new(
        "rows",
        "Heterogeneous failover — cluster killed mid-shard, remainder on the CPU lane",
        &report.rows,
    )
    .col("regime", "regime", |r| Text(r.regime.into()))
    .shape(|r| r.shape)
    .col("fault_free_s", "fault-free", |r| Num(r.fault_free_s, Sci))
    .col("with_kill_s", "with kill", |r| Num(r.with_kill_s, Sci))
    .col("rows_spilled", "rows→cpu", |r| {
        Count(r.rows_spilled as u64)
    })
    .col("cpu_lane_s", "cpu lane s", |r| Num(r.cpu_lane_s, Sci))
    .col("model_cpu_s", "model s", |r| Num(r.model_cpu_s, Sci))
    .col("model_ratio", "ratio", |r| {
        Num(r.model_ratio(), Fixed(1.0, 3, ""))
    })
    .col("slowdown", "slowdown", |r| {
        Num(r.slowdown(), Fixed(1.0, 2, "x"))
    });
    let error = Num(report.max_model_error(), Fixed(100.0, 1, "%"));
    Document::new("hetero")
        .table(rows)
        .value("max_model_error", error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn cached() -> &'static Report {
        static P: OnceLock<Report> = OnceLock::new();
        P.get_or_init(compute)
    }

    #[test]
    fn every_regime_spills_and_completes() {
        let report = cached();
        assert_eq!(report.rows.len(), REGIMES.len());
        for r in &report.rows {
            assert!(r.rows_spilled > 0, "{}", r.regime);
            assert!(r.cpu_lane_s > 0.0, "{}", r.regime);
            assert!(
                r.with_kill_s > r.fault_free_s,
                "{}: losing the cluster cannot be free",
                r.regime
            );
        }
    }

    #[test]
    fn cpu_lane_time_matches_the_model_within_the_ci_gate() {
        // The CI bound is ±30%; the lane literally charges the model
        // pro-rata, so drift here means the charging path regressed
        // (double-counted spans, slowdown leakage, clamping bugs).
        let report = cached();
        assert!(
            report.max_model_error() <= 0.30,
            "max model error {:.1}%",
            100.0 * report.max_model_error()
        );
    }

    #[test]
    fn spilling_is_slower_than_the_dsp_but_bounded() {
        // The CPU peak is ~10x below the cluster's; a spill should cost
        // real time but never orders of magnitude beyond the device gap.
        for r in &cached().rows {
            let s = r.slowdown();
            assert!(s > 1.0 && s < 100.0, "{}: slowdown {s}", r.regime);
        }
    }

    #[test]
    fn json_document_carries_rows_and_the_gate_quantity() {
        let report = cached();
        let v = crate::report::parsed(&document(report), "hetero");
        let rows = v.get("rows").unwrap().as_arr("rows").unwrap();
        assert_eq!(rows.len(), report.rows.len());
        for (row, r) in rows.iter().zip(&report.rows) {
            assert_eq!(row.get("regime").unwrap().as_str("regime"), Ok(r.regime));
            assert_eq!(
                row.get("rows_spilled").unwrap().as_u64("rows_spilled"),
                Ok(r.rows_spilled as u64)
            );
            assert_eq!(
                row.get("model_ratio").unwrap().as_f64("model_ratio"),
                Ok(r.model_ratio())
            );
        }
        assert_eq!(
            v.get("max_model_error").unwrap().as_f64("max_model_error"),
            Ok(report.max_model_error())
        );
    }
}
