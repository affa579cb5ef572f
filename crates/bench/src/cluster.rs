//! Multi-cluster report: weak-scaling efficiency of the sharded engine
//! from 1 to 4 cluster fault domains on the Table I–III regimes, plus
//! the measured cost of a checkpointed shard failover.
//!
//! Not a paper figure — the paper's FT-m7032 has four GPDSP clusters but
//! evaluates one; this extends the perf trajectory to the multi-cluster
//! front end (DESIGN.md §4.3).  `BENCH_cluster.json` is emitted by
//! `bench cluster` and archived by CI; its `--assert-failover-overhead`
//! gate keeps recovery cost bounded by twice the lost shard's work.

use crate::common::run_completed;
use crate::report::{Cell::*, Document, Fmt::*, Table};
use dspsim::{ExecMode, FaultPlan, HwConfig, Profiler};
use ftimm::reference::fill_matrix;
use ftimm::{
    chrome_trace_json_clusters, ClusterPool, EngineConfig, FtImm, GemmShape, ResilienceConfig,
    ShardedConfig, ShardedEngine, ShardedJob, SpillPolicy, Strategy,
};

/// Cores driven per cluster (the paper's full GPDSP cluster).
pub const CORES: usize = 8;

/// Largest pool in the sweep.
pub const MAX_CLUSTERS: usize = 4;

/// The Table I–III regimes, as per-cluster base shapes: weak scaling
/// multiplies `m` by the cluster count (the engine shards over M), so
/// each cluster always owns one base problem's worth of rows.
pub const REGIMES: [(&str, (usize, usize, usize)); 3] = [
    ("table1-type1", (8192, 32, 32)),   // tall-skinny, M-parallel
    ("table2-type2", (32, 32, 8192)),   // short-wide, K-parallel
    ("table3-type3", (2560, 32, 2560)), // doubly irregular
];

/// One weak-scaling measurement.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Regime label (`table1-type1`, …).
    pub regime: &'static str,
    /// Clusters in the pool.
    pub clusters: usize,
    /// The scaled shape actually run (`m = base_m × clusters`).
    pub shape: GemmShape,
    /// Simulated makespan of the sharded run.
    pub seconds: f64,
    /// Weak-scaling efficiency: single-cluster base-problem time over
    /// this run's time (1.0 = perfect scaling).
    pub efficiency: f64,
}

/// The measured cost of one checkpointed shard failover (functional
/// 2-cluster run, cluster 0 killed halfway through its shard).
#[derive(Debug, Clone, Copy)]
pub struct FailoverCost {
    /// The killed shard's fault-free seconds (the work put at risk).
    pub shard_fault_free_s: f64,
    /// Fault-free sharded makespan.
    pub fault_free_s: f64,
    /// Makespan with the mid-shard cluster kill.
    pub with_kill_s: f64,
}

impl FailoverCost {
    /// Extra simulated seconds the recovery cost end to end.
    pub fn overhead_s(&self) -> f64 {
        self.with_kill_s - self.fault_free_s
    }

    /// Recovery overhead as a multiple of the lost shard's fault-free
    /// work — the quantity the CI gate bounds.
    pub fn overhead_ratio(&self) -> f64 {
        self.overhead_s() / self.shard_fault_free_s.max(1e-12)
    }
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Weak-scaling rows, regime-major then cluster count.
    pub rows: Vec<Row>,
    /// The failover-cost probe.
    pub failover: FailoverCost,
}

impl Report {
    /// Smallest weak-scaling efficiency at the full pool size.
    pub fn min_efficiency(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.clusters == MAX_CLUSTERS)
            .map(|r| r.efficiency)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Parse a `--spill` flag value (`never`, `last-resort`, `coexec`).
pub fn parse_spill(s: &str) -> Option<SpillPolicy> {
    match s {
        "never" => Some(SpillPolicy::Never),
        "last-resort" => Some(SpillPolicy::LastResort),
        "coexec" => Some(SpillPolicy::CoExecute),
        _ => None,
    }
}

fn sharded_cfg(profile: bool) -> ShardedConfig {
    ShardedConfig {
        engine: EngineConfig {
            resilience: ResilienceConfig {
                ckpt_rows: 8,
                ..ResilienceConfig::default()
            },
        },
        profile,
        ..ShardedConfig::default()
    }
}

/// Simulated makespan of one timing-mode sharded run.
fn timing_seconds(ft: &FtImm, shape: &GemmShape, clusters: usize) -> f64 {
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, clusters);
    let mut eng = ShardedEngine::new(pool, sharded_cfg(false));
    let job = ShardedJob::timing(shape.m, shape.n, shape.k, Strategy::Auto, CORES);
    run_completed(ft, &mut eng, job, "timing run").seconds
}

/// Shape of the functional failover probe: type 1, split into two
/// shards of more than two rounds of the walk each (eight 3040-row
/// tasks a round), so a kill halfway through shard 0 salvages whole
/// rounds; small enough for a functional run in CI.
const PROBE: (usize, usize, usize) = (110_000, 32, 8);

fn probe_job() -> ShardedJob {
    let (m, n, k) = PROBE;
    ShardedJob::gemm(
        m,
        n,
        k,
        fill_matrix(m * k, 1),
        fill_matrix(k * n, 2),
        fill_matrix(m * n, 3),
        Strategy::Auto,
        CORES,
    )
}

/// Measure the failover cost; with `profile` on, also return the
/// per-cluster recordings of the killed run for Chrome-trace export.
fn failover_probe(ft: &FtImm, profile: bool) -> (FailoverCost, Vec<Vec<Profiler>>) {
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
    let mut eng = ShardedEngine::new(pool, sharded_cfg(false));
    let clean = run_completed(ft, &mut eng, probe_job(), "fault-free probe");
    let shard_fault_free_s = clean.shard_runs[0].seconds;

    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 2);
    let mut eng = ShardedEngine::new(pool, sharded_cfg(profile));
    eng.install_faults(0, &FaultPlan::new(5).kill_cluster(shard_fault_free_s * 0.5));
    let killed = run_completed(ft, &mut eng, probe_job(), "killed probe");
    assert!(
        !killed.failovers.is_empty(),
        "the probe kill must actually trigger a failover"
    );
    (
        FailoverCost {
            shard_fault_free_s,
            fault_free_s: clean.seconds,
            with_kill_s: killed.seconds,
        },
        eng.take_profilers(),
    )
}

/// Run the whole sweep: 3 regimes × 1..=4 clusters, plus the failover
/// probe.
pub fn compute() -> Report {
    let ft = FtImm::new(HwConfig::default());
    let mut rows = Vec::new();
    for (regime, (m0, n, k)) in REGIMES {
        let base = timing_seconds(&ft, &GemmShape::new(m0, n, k), 1);
        for clusters in 1..=MAX_CLUSTERS {
            let shape = GemmShape::new(m0 * clusters, n, k);
            let seconds = timing_seconds(&ft, &shape, clusters);
            rows.push(Row {
                regime,
                clusters,
                shape,
                seconds,
                efficiency: base / seconds.max(1e-12),
            });
        }
    }
    let (failover, _) = failover_probe(&ft, false);
    Report { rows, failover }
}

/// The per-cluster Chrome trace of the killed failover probe (the CI
/// artifact): one trace process per cluster, the death and the resumed
/// shard visible side by side.
pub fn failover_trace() -> String {
    let ft = FtImm::new(HwConfig::default());
    let (_, profilers) = failover_probe(&ft, true);
    let labelled: Vec<(String, Vec<&Profiler>)> = profilers
        .iter()
        .enumerate()
        .map(|(i, v)| (format!("cluster {i}"), v.iter().collect()))
        .collect();
    chrome_trace_json_clusters(&labelled)
}

/// The dual-backend Chrome trace (the `--spill` CI artifact): the lone
/// cluster is killed mid-shard under the given spill policy, the
/// checkpointed remainder resumes on the CPU lane, and the trace shows
/// both devices as separate processes — the DSP timeline ending at the
/// death, the CPU timeline carrying the spilled spans.
pub fn spill_trace(spill: SpillPolicy) -> String {
    let ft = FtImm::new(HwConfig::default());
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let mut eng = ShardedEngine::new(pool, sharded_cfg(false));
    let clean = run_completed(&ft, &mut eng, probe_job(), "fault-free spill probe");
    let shard_fault_free_s = clean.shard_runs[0].seconds;

    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, 1);
    let cfg = ShardedConfig {
        spill,
        ..sharded_cfg(true)
    };
    let mut eng = ShardedEngine::new(pool, cfg);
    eng.install_faults(0, &FaultPlan::new(5).kill_cluster(shard_fault_free_s * 0.5));
    let killed = run_completed(&ft, &mut eng, probe_job(), "killed spill probe");
    assert!(
        !killed.failovers.is_empty(),
        "the spill probe kill must actually trigger a failover"
    );
    let profilers = eng.take_profilers();
    let cpu = eng.take_cpu_profiler();
    let mut labelled: Vec<(String, Vec<&Profiler>)> = profilers
        .iter()
        .enumerate()
        .map(|(i, v)| (format!("cluster {i}"), v.iter().collect()))
        .collect();
    labelled.push(("cpu".to_string(), vec![&cpu]));
    chrome_trace_json_clusters(&labelled)
}

/// Describe the report once: [`Document::render`] prints it,
/// [`Document::json`] is the `BENCH_cluster.json` document.
pub fn document(report: &Report) -> Document {
    let ratio = Fixed(1.0, 2, "");
    let rows = Table::new(
        "rows",
        format!("Weak scaling — sharded engine, 1..{MAX_CLUSTERS} clusters ({CORES} cores each)"),
        &report.rows,
    )
    .col("regime", "regime", |r| Text(r.regime.into()))
    .col("clusters", "clusters", |r| Count(r.clusters as u64))
    .shape(|r| r.shape)
    .col("seconds", "seconds", |r| Num(r.seconds, Sci))
    .col("efficiency", "efficiency", |r| Num(r.efficiency, ratio));
    let failover = Table::new(
        "failover",
        "Failover probe — cluster 0 of 2 killed halfway through its shard",
        std::slice::from_ref(&report.failover),
    )
    .col("shard_fault_free_s", "lost shard", |f| {
        Num(f.shard_fault_free_s, Sci)
    })
    .col("fault_free_s", "fault-free", |f| Num(f.fault_free_s, Sci))
    .col("with_kill_s", "with kill", |f| Num(f.with_kill_s, Sci))
    .col("overhead_s", "overhead", |f| Num(f.overhead_s(), Sci))
    .col("overhead_ratio", "x lost shard", |f| {
        Num(f.overhead_ratio(), ratio)
    });
    Document::new("cluster")
        .table(rows)
        .table(failover)
        .value("min_efficiency", Num(report.min_efficiency(), ratio))
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
    fn sweep_covers_every_regime_and_pool_size() {
        let report = cached();
        assert_eq!(report.rows.len(), REGIMES.len() * MAX_CLUSTERS);
        for r in &report.rows {
            assert!(r.seconds > 0.0, "{} x{}", r.regime, r.clusters);
            assert!(r.efficiency.is_finite());
            if r.clusters == 1 {
                assert!(
                    (r.efficiency - 1.0).abs() < 1e-9,
                    "single-cluster efficiency is 1 by construction"
                );
            }
        }
    }

    #[test]
    fn scaling_is_imperfect_but_real() {
        // Weak scaling can't beat perfect by more than launch-overhead
        // noise, and a working sharder must not collapse either.
        for r in cached().rows.iter().filter(|r| r.clusters > 1) {
            assert!(
                r.efficiency <= 1.05,
                "{} x{}: {}",
                r.regime,
                r.clusters,
                r.efficiency
            );
            assert!(
                r.efficiency > 0.2,
                "{} x{}: {}",
                r.regime,
                r.clusters,
                r.efficiency
            );
        }
    }

    #[test]
    fn failover_overhead_is_bounded_by_twice_the_lost_shard() {
        let f = cached().failover;
        assert!(f.with_kill_s >= f.fault_free_s, "recovery cannot be free");
        assert!(
            f.overhead_ratio() <= 2.0,
            "overhead {:.2}x exceeds the 2x bound",
            f.overhead_ratio()
        );
    }

    #[test]
    fn json_document_carries_rows_and_the_failover_probe() {
        let report = cached();
        let v = crate::report::parsed(&document(report), "cluster");
        let rows = v.get("rows").unwrap().as_arr("rows").unwrap();
        assert_eq!(rows.len(), report.rows.len());
        for (row, r) in rows.iter().zip(&report.rows) {
            assert_eq!(row.get("regime").unwrap().as_str("regime"), Ok(r.regime));
            assert_eq!(row.get("m").unwrap().as_u64("m"), Ok(r.shape.m as u64));
            assert_eq!(
                row.get("efficiency").unwrap().as_f64("efficiency"),
                Ok(r.efficiency)
            );
        }
        let probe = &v.get("failover").unwrap().as_arr("failover").unwrap()[0];
        assert_eq!(
            probe.get("overhead_ratio").unwrap().as_f64("ratio"),
            Ok(report.failover.overhead_ratio())
        );
        assert_eq!(
            v.get("min_efficiency").unwrap().as_f64("min_efficiency"),
            Ok(report.min_efficiency())
        );
        // The printed report is the same description.
        let text = document(report).render();
        assert!(text.contains("Weak scaling") && text.contains("Failover probe"));
        assert!(text.contains(&report.rows[0].shape.to_string()), "{text}");
    }

    /// The `args.name` labels of a Chrome trace's `ph: "M"` events.
    fn track_labels(trace: &str) -> Vec<String> {
        let v = dspsim::minijson::Parser::new(trace).parse().unwrap();
        let events = v.get("traceEvents").unwrap().as_arr("traceEvents").unwrap();
        events
            .iter()
            .filter_map(|e| e.get("args")?.get("name")?.as_str("name").ok())
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn failover_trace_has_one_process_per_cluster() {
        let trace = failover_trace();
        let labels = track_labels(&trace);
        assert!(labels.iter().any(|l| l == "cluster 0"), "{labels:?}");
        assert!(labels.iter().any(|l| l == "cluster 1"), "{labels:?}");
        assert!(trace.contains("cluster_failed"));
    }

    #[test]
    fn spill_trace_shows_both_backends() {
        let labels = track_labels(&spill_trace(ftimm::SpillPolicy::LastResort));
        assert!(labels.iter().any(|l| l == "cluster 0"), "{labels:?}");
        assert!(labels.iter().any(|l| l == "cpu"), "{labels:?}");
    }

    #[test]
    fn spill_flag_values_parse() {
        use ftimm::SpillPolicy::*;
        assert_eq!(parse_spill("never"), Some(Never));
        assert_eq!(parse_spill("last-resort"), Some(LastResort));
        assert_eq!(parse_spill("deadline-aware"), None);
        assert_eq!(parse_spill("coexec"), Some(CoExecute));
        assert_eq!(parse_spill("sometimes"), None);
    }
}
