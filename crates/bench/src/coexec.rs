//! Co-execution report: the Fig. 7 CPU/DSP crossover as a live planner
//! decision, on the Table I–III regimes.
//!
//! Each regime is costed and run against three host comparators — the
//! default `cpublas` model (a host an order of magnitude below the
//! pool), a host twenty times faster that sits near the crossover, and a
//! fast host well past it — so the sweep exhibits all three planner
//! picks: DSP-only, a genuine mixed co-execution split, and CPU-only.
//! The DSP legs are priced on the same timing walk and launch
//! accounting the engine charges, so a fault-free run's simulated
//! makespan is the predicted one.  Per row the report carries the
//! three predicted makespans from [`ftimm::choose_coexec_split`] (both
//! backend cost models), the chosen M-tail fraction, and two *simulated*
//! makespans from real [`ftimm::ShardedEngine`] runs: one under
//! [`ftimm::SpillPolicy::Never`] (DSP-only baseline) and one under
//! [`ftimm::SpillPolicy::CoExecute`] (the planned split actually
//! dispatched, CPU lane as a peer from t = 0).
//!
//! The CI gate (`--assert-coexec-no-regression`) bounds the planner's
//! core promise: the chosen split is never predicted slower than the
//! best single backend — both degenerate candidates are always in the
//! search grid, so any regression means the chooser itself broke.

use crate::cluster::{CORES, MAX_CLUSTERS};
use crate::common::run_completed;
use crate::report::{Cell::*, Document, Fmt::*, Table};
use cpublas::CpuConfig;
use dspsim::{ExecMode, HwConfig};
use ftimm::{
    ClusterPool, EngineConfig, FtImm, GemmShape, ResilienceConfig, ShardedConfig, ShardedEngine,
    ShardedJob, SpillPolicy, Strategy,
};

/// Checkpoint grain shared by the chooser and both engine runs (the
/// split grid and the shard-boundary grid must be the same thing).
const GRAIN: usize = 64;

/// The cluster report's regimes, type 1 at an M that is not a whole
/// number of the planned strategy's rounds.
pub const REGIMES: [(&str, (usize, usize, usize)); 3] = [
    ("table1-type1", (50_000, 32, 32)),
    crate::cluster::REGIMES[1],
    crate::cluster::REGIMES[2],
];

/// Which side of the crossover the planner landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// `cpu_rows == 0`: the clusters keep everything.
    DspOnly,
    /// `0 < cpu_rows < m`: a genuine mixed split.
    CoExec,
    /// `cpu_rows == m`: the host takes the whole GEMM.
    CpuOnly,
}

impl Pick {
    /// Stable label used in the table and JSON document.
    pub fn label(self) -> &'static str {
        match self {
            Pick::DspOnly => "dsp-only",
            Pick::CoExec => "co-exec",
            Pick::CpuOnly => "cpu-only",
        }
    }
}

/// One (regime, host comparator) measurement.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Regime label (`table1-type1`, …).
    pub regime: &'static str,
    /// Host comparator label (`default-host` / `fast-host`).
    pub host: &'static str,
    /// The shape run.
    pub shape: GemmShape,
    /// Rows of the M tail the planner gave the CPU lane.
    pub cpu_rows: usize,
    /// Predicted makespan of the chosen split.
    pub predicted_s: f64,
    /// Predicted makespan of the best all-DSP plan.
    pub dsp_only_s: f64,
    /// Predicted makespan of the whole GEMM on the host.
    pub cpu_only_s: f64,
    /// Simulated makespan of a real engine run under `Never`.
    pub sim_dsp_only_s: f64,
    /// Simulated makespan of a real engine run under `CoExecute`.
    pub sim_coexec_s: f64,
}

impl Row {
    /// The planner's pick for this row.
    pub fn pick(&self) -> Pick {
        if self.cpu_rows == 0 {
            Pick::DspOnly
        } else if self.cpu_rows == self.shape.m {
            Pick::CpuOnly
        } else {
            Pick::CoExec
        }
    }

    /// Fraction of M placed on the CPU lane.
    pub fn split_frac(&self) -> f64 {
        self.cpu_rows as f64 / self.shape.m as f64
    }

    /// How much slower than the best single backend the chosen split is
    /// *predicted* to be (≤ 0 means it never regresses — the gate).
    pub fn regression(&self) -> f64 {
        self.predicted_s / self.dsp_only_s.min(self.cpu_only_s).max(1e-12) - 1.0
    }
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per (regime, host comparator).
    pub rows: Vec<Row>,
}

impl Report {
    /// Worst predicted regression vs the best single backend across the
    /// sweep — the quantity the CI gate bounds at ~0.
    pub fn max_regression(&self) -> f64 {
        self.rows.iter().map(Row::regression).fold(0.0, f64::max)
    }

    /// How many of the three planner picks show up somewhere in the
    /// sweep: at 3 the crossover demonstrably has both sides plus the
    /// interior — the second quantity the CI gate bounds.
    pub fn picks_exhibited(&self) -> usize {
        [Pick::DspOnly, Pick::CoExec, Pick::CpuOnly]
            .iter()
            .filter(|&&p| self.rows.iter().any(|r| r.pick() == p))
            .count()
    }
}

/// The three host comparators: the default model sits below the Fig. 7
/// crossover on the Table regimes, the crossover host (twenty times the
/// default clock and bandwidth) near it, the fast host well past it.
pub fn hosts() -> [(&'static str, CpuConfig); 3] {
    [
        ("default-host", CpuConfig::default()),
        (
            "crossover-host",
            CpuConfig {
                clock_hz: 44e9,
                ddr_bw: 852e9,
                ..CpuConfig::default()
            },
        ),
        (
            "fast-host",
            CpuConfig {
                clock_hz: 2.2e12,
                ddr_bw: 42.6e12,
                barrier_s: 8e-9,
                ..CpuConfig::default()
            },
        ),
    ]
}

fn cfg(spill: SpillPolicy, cpu: CpuConfig) -> ShardedConfig {
    ShardedConfig {
        engine: EngineConfig {
            resilience: ResilienceConfig {
                ckpt_rows: GRAIN,
                ..ResilienceConfig::default()
            },
        },
        spill,
        cpu,
        ..ShardedConfig::default()
    }
}

fn measure(
    ft: &FtImm,
    regime: &'static str,
    host: &'static str,
    cpu: CpuConfig,
    shape: GemmShape,
) -> Row {
    let choice = ftimm::choose_coexec_split(
        ft,
        &shape,
        Strategy::Auto,
        CORES,
        MAX_CLUSTERS,
        GRAIN,
        &cpu,
        1.0,
    );

    let job = || ShardedJob::timing(shape.m, shape.n, shape.k, Strategy::Auto, CORES);

    // Simulated DSP-only baseline: the same pool with the lane off.
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, MAX_CLUSTERS);
    let mut eng = ShardedEngine::new(pool, cfg(SpillPolicy::Never, cpu));
    let dsp_run = run_completed(ft, &mut eng, job(), shape);

    // Simulated co-execution: the planner's split actually dispatched.
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, MAX_CLUSTERS);
    let mut eng = ShardedEngine::new(pool, cfg(SpillPolicy::CoExecute, cpu));
    let co_run = run_completed(ft, &mut eng, job(), shape);
    if choice.cpu_rows > 0 {
        assert!(
            eng.cpu_dispatches() > 0,
            "{shape}: planner placed a CPU tail but the lane never ran"
        );
    }

    Row {
        regime,
        host,
        shape,
        cpu_rows: choice.cpu_rows,
        predicted_s: choice.predicted_s,
        dsp_only_s: choice.dsp_only_s,
        cpu_only_s: choice.cpu_only_s,
        sim_dsp_only_s: dsp_run.seconds,
        sim_coexec_s: co_run.seconds,
    }
}

/// Run the sweep: Table I–III regimes × host comparators.
pub fn compute() -> Report {
    let ft = FtImm::new(HwConfig::default());
    let mut rows = Vec::new();
    for (host, cpu) in hosts() {
        for &(regime, (m, n, k)) in REGIMES.iter() {
            rows.push(measure(&ft, regime, host, cpu, GemmShape::new(m, n, k)));
        }
    }
    Report { rows }
}

/// Describe the report once: [`Document::render`] prints it,
/// [`Document::json`] is the `BENCH_coexec.json` document.
pub fn document(report: &Report) -> Document {
    let rows = Table::new(
        "rows",
        "Co-execution — the Fig. 7 crossover as a planner decision (CPU lane as a peer)",
        &report.rows,
    )
    .col("regime", "regime", |r| Text(r.regime.into()))
    .col("host", "host", |r| Text(r.host.into()))
    .shape(|r| r.shape)
    .col("pick", "pick", |r| Text(r.pick().label().into()))
    .col("cpu_rows", "cpu rows", |r| Count(r.cpu_rows as u64))
    .col("split_frac", "cpu frac", |r| {
        Num(r.split_frac(), Fixed(1.0, 3, ""))
    })
    .col("predicted_s", "predicted", |r| Num(r.predicted_s, Sci))
    .col("dsp_only_s", "dsp-only", |r| Num(r.dsp_only_s, Sci))
    .col("cpu_only_s", "cpu-only", |r| Num(r.cpu_only_s, Sci))
    .col("sim_dsp_only_s", "sim dsp", |r| Num(r.sim_dsp_only_s, Sci))
    .col("sim_coexec_s", "sim coexec", |r| Num(r.sim_coexec_s, Sci));
    Document::new("coexec")
        .table(rows)
        .value("max_regression", Num(report.max_regression(), Sci))
        .value("picks_exhibited", Count(report.picks_exhibited() as u64))
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
    fn sweep_covers_every_planner_pick() {
        let report = cached();
        assert_eq!(report.rows.len(), REGIMES.len() * hosts().len());
        assert_eq!(
            report.picks_exhibited(),
            3,
            "picks: {:?}",
            report
                .rows
                .iter()
                .map(|r| (r.regime, r.host, r.pick().label()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn chosen_split_never_predicted_slower_than_best_single_backend() {
        // Both degenerate candidates are always searched, so the gate
        // quantity is exactly zero unless the chooser regresses.
        let report = cached();
        assert!(
            report.max_regression() <= 0.0,
            "max regression {:+.2e}",
            report.max_regression()
        );
    }

    #[test]
    fn mixed_splits_sit_on_the_grid_and_beat_the_dsp_baseline() {
        for r in &cached().rows {
            if r.pick() == Pick::CoExec {
                assert_eq!((r.shape.m - r.cpu_rows) % GRAIN, 0, "{}", r.regime);
                assert!(
                    r.sim_coexec_s < r.sim_dsp_only_s,
                    "{} {}: co-exec simulated {} vs dsp-only {}",
                    r.regime,
                    r.host,
                    r.sim_coexec_s,
                    r.sim_dsp_only_s
                );
            }
        }
    }

    #[test]
    fn json_document_carries_rows_and_the_gate_quantity() {
        let report = cached();
        let v = crate::report::parsed(&document(report), "coexec");
        let rows = v.get("rows").unwrap().as_arr("rows").unwrap();
        assert_eq!(rows.len(), report.rows.len());
        for (row, r) in rows.iter().zip(&report.rows) {
            assert_eq!(row.get("regime").unwrap().as_str("regime"), Ok(r.regime));
            assert_eq!(row.get("host").unwrap().as_str("host"), Ok(r.host));
            assert_eq!(
                row.get("pick").unwrap().as_str("pick"),
                Ok(r.pick().label())
            );
            assert_eq!(
                row.get("cpu_rows").unwrap().as_u64("cpu_rows"),
                Ok(r.cpu_rows as u64)
            );
            assert_eq!(
                row.get("sim_coexec_s").unwrap().as_f64("sim_coexec_s"),
                Ok(r.sim_coexec_s)
            );
        }
        assert_eq!(
            v.get("max_regression").unwrap().as_f64("max_regression"),
            Ok(report.max_regression())
        );
        assert_eq!(v.get("picks_exhibited").unwrap().as_u64("picks"), Ok(3));
    }
}
