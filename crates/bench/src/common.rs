//! Shared measurement harness.

use cpublas::CpuConfig;
use dspsim::HwConfig;
use ftimm::backend::{BackendPrediction, CpuBackend};
use ftimm::{
    ChosenStrategy, FtImm, GemmShape, ShardedEngine, ShardedJob, ShardedOutcome, ShardedReport,
    Strategy, StrategyKind, TenantSpec,
};
use std::fmt::Display;

/// A configured measurement context (kernel cache shared across points).
pub struct Harness {
    /// The ftIMM library instance.
    pub ft: FtImm,
    /// The CPU comparator configuration.
    pub cpu: CpuConfig,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// Default hardware.
    pub fn new() -> Self {
        Harness {
            ft: FtImm::new(HwConfig::default()),
            cpu: CpuConfig::default(),
        }
    }

    /// Simulated seconds of a strategy on a shape (timing model).
    pub fn seconds(&self, shape: &GemmShape, strategy: Strategy, cores: usize) -> f64 {
        let plan = self.ft.plan(shape, strategy, cores);
        self.ft.predict_seconds(shape, &plan, cores)
    }

    /// Simulated GFLOPS of a strategy on a shape.
    pub fn gflops(&self, shape: &GemmShape, strategy: Strategy, cores: usize) -> f64 {
        shape.flops() as f64 / self.seconds(shape, strategy, cores) / 1e9
    }

    /// Simulated GFLOPS of the TGEMM baseline.
    pub fn tgemm_gflops(&self, shape: &GemmShape, cores: usize) -> f64 {
        let t = self
            .ft
            .predict_seconds(shape, &ChosenStrategy::TGemm, cores);
        shape.flops() as f64 / t / 1e9
    }

    /// The plan dynamic adjusting picks (for labelling).
    pub fn plan_tag(&self, shape: &GemmShape, cores: usize) -> &'static str {
        StrategyKind::of(&self.ft.plan(shape, Strategy::Auto, cores)).label()
    }

    /// Cluster peak in GFLOPS.
    pub fn dsp_peak_gflops(&self) -> f64 {
        self.ft.cfg().cluster_peak_flops() / 1e9
    }

    /// The CPU comparator as a [`CpuBackend`] — the same model and config
    /// the sharded engine's spill lane charges, so every chart and gate
    /// compares against the device that would actually absorb failover.
    pub fn cpu_backend(&self) -> CpuBackend {
        CpuBackend::new(self.cpu)
    }

    /// CPU-model prediction for a shape ([`CpuBackend::predict`]).
    pub fn cpu_predict(&self, shape: &GemmShape) -> BackendPrediction {
        self.cpu_backend().predict(shape)
    }
}

/// Run `job` alone on `eng` under a fresh tenant and return its report.
/// Panics, naming `what`, unless the job completed.
pub fn run_completed(
    ft: &FtImm,
    eng: &mut ShardedEngine,
    job: ShardedJob,
    what: impl Display,
) -> Box<ShardedReport> {
    let t = eng.register_tenant(TenantSpec::new("bench", 5));
    eng.submit(t, job);
    let mut records = eng.run_all(ft);
    assert_eq!(records.len(), 1);
    match records.remove(0).outcome {
        ShardedOutcome::Completed { report, .. } => report,
        other => panic!("{what}: expected completion, got {}", other.label()),
    }
}

/// Format a data table: header plus rows of fixed-width columns.
pub fn format_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!("{title}\n");
    let line = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&line(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// The N sweep used across the paper's Fig 4/5/7 panels.
pub const N_SWEEP: [usize; 6] = [16, 32, 48, 64, 80, 96];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_sane_gflops() {
        let h = Harness::new();
        let s = GemmShape::new(4096, 32, 512);
        let g = h.gflops(&s, Strategy::Auto, 8);
        assert!(g > 1.0 && g < h.dsp_peak_gflops(), "{g}");
        let t = h.tgemm_gflops(&s, 8);
        assert!(t > 0.0 && t < g);
    }

    #[test]
    fn table_formatting_aligns_columns() {
        let s = format_table(
            "T",
            &["a", "bbb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(s.starts_with("T\n"));
        assert!(s.contains("---"));
        assert!(s.lines().count() >= 4);
    }
}
