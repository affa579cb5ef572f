//! The four workloads behind one interface.
//!
//! Load model (all workloads): closed loop, one client, one thread — job
//! `i + 1` is issued when job `i` returns.  A workload is a deterministic
//! indexed stream of jobs made from the seed; the program under test only
//! ever sees the generated shapes, fills and fault plans.  Streams run in
//! whole *units* (a balanced block of the job mix), so every measured
//! window holds the same mix whatever its length.

pub mod cold;
pub mod conform;
pub mod sharded;
pub mod steady;

use crate::metrics::Metrics;
use crate::probes::{ProbeShape, Sections};
use crate::spans::Recorder;
use conformance::Rng64;
use ftimm::reference::{fill_matrix, sgemm_f64};
use ftimm::GemmShape;

/// Cores every DSP job asks for (the paper's full GPDSP cluster).
pub const CORES: usize = 8;

/// What one job produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Host-clock seconds from issue to return.
    pub latency_s: f64,
    /// Completed and passed its output check.
    pub ok: bool,
    /// Digest of the job's output (C bits, or the resolved plans).
    pub digest: u64,
    /// Useful flops of the job's problem.
    pub flops: u64,
    /// Simulated seconds the job took on the modelled hardware.
    pub sim_s: f64,
    /// Simulated seconds of the TGEMM baseline on the same problem, when
    /// the job computes it itself (0 otherwise).
    pub tgemm_sim_s: f64,
}

/// Simulated-clock summary over a workload's fixed job set.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Σ useful flops ÷ Σ simulated seconds, GFLOP/s.
    pub gflops: f64,
    /// Geometric mean of TGEMM simulated s ÷ ftIMM simulated s.
    pub speedup_vs_tgemm: f64,
}

/// Plan-cache and kernel-cache traffic of the measured stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContextStats {
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Timing-model simulations run.
    pub timing_sims: u64,
    /// Kernels held by the kernel cache.
    pub kernels: u64,
    /// Compiled-kernel memo hits.
    pub memo_hits: u64,
    /// Compiled-kernel memo misses.
    pub memo_misses: u64,
}

impl ContextStats {
    /// Read the counters of a context.
    pub fn of(ft: &ftimm::FtImm) -> Self {
        let plan = ft.plan_cache_stats();
        let memo = ft.executor_stats();
        ContextStats {
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            timing_sims: ft.timing_simulations(),
            kernels: ft.cache().len() as u64,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
        }
    }

    /// Counter growth since `earlier` (`kernels` stays absolute).
    pub fn since(self, earlier: ContextStats) -> Self {
        ContextStats {
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            timing_sims: self.timing_sims - earlier.timing_sims,
            kernels: self.kernels,
            memo_hits: self.memo_hits - earlier.memo_hits,
            memo_misses: self.memo_misses - earlier.memo_misses,
        }
    }
}

/// Result of the sampled check against the f64 reference.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReferenceCheck {
    /// Jobs checked.
    pub checked: u64,
    /// Jobs outside tolerance.
    pub failed: u64,
    /// Worst `|C − C_ref| ÷ product mass` seen.
    pub max_rel_err: f64,
}

/// One workload: a seeded job stream plus the hooks the runner needs.
pub trait Workload {
    /// Jobs in one balanced unit of the stream.
    fn unit_len(&self) -> usize;

    /// Jobs (a whole number of units from index 0) that the simulated
    /// metrics and the workload digest cover; every run executes at
    /// least these, so both are deterministic in the seed.
    fn fixed_len(&self) -> usize;

    /// The job kind of stream index `i`, in `0..unit_len()`: every unit
    /// holds each kind exactly once, in a seeded order.  Jobs of one kind
    /// cost the same but for interference, which is what lets the host
    /// figures tell the two apart (see `host_stats`).
    fn kind(&self, i: usize) -> usize;

    /// Start a stream from index 0 (workloads defined as cold rebuild
    /// their context here).
    fn begin_stream(&mut self);

    /// Run job `i`.  With an enabled recorder the job is decomposed into
    /// the staged public calls, each inside a span.
    fn run_job(&mut self, i: usize, rec: &mut Recorder) -> JobOutcome;

    /// Jobs that close a stream after its seeded part (the Fig. 5 paper
    /// anchor, the catalog round trip).  `anchors` is off for traced runs.
    fn tail_jobs(&mut self, _first: usize, _anchors: bool, _rec: &mut Recorder) -> Vec<JobOutcome> {
        Vec::new()
    }

    /// Simulated-clock metrics over the first [`Workload::fixed_len`]
    /// outcomes of a stream.
    fn sim_summary(&mut self, fixed: &[JobOutcome]) -> SimSummary;

    /// `|ours − paper| ÷ paper` for the paper anchors the stream itself
    /// evaluated (the runner adds the Fig. 3 panels, after measuring).
    fn anchor_errors(&self) -> Vec<f64> {
        Vec::new()
    }

    /// Check a seeded tenth of the fixed jobs against `ftimm::reference`.
    fn reference_check(&mut self) -> ReferenceCheck;

    /// Cache and counter traffic of the current stream so far.
    fn context_stats(&self) -> ContextStats;

    /// Shapes the layer probes run on (the workload's own).
    fn probe_shapes(&self) -> Vec<ProbeShape>;

    /// Layers the workload's own stream exercises: their probe sections
    /// are skipped and [`Workload::stream_layers`] reports them instead —
    /// what actually happened in the stream, not a sample beside it.
    fn stream_sections(&self) -> Sections {
        Sections::default()
    }

    /// Record every metric of the [`Workload::stream_sections`] from the
    /// stream that just ran.
    fn stream_layers(&mut self, _layers: &mut Metrics) {}
}

/// Time a closure on the host clock ([`crate::clock`]).
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let t0 = crate::clock::now();
    let out = work();
    (out, crate::clock::now() - t0)
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.range(0, i as u64) as usize);
    }
    p
}

/// A seeded tenth (at least one) of `0..n`, for the reference checks.
pub fn sample_tenth(n: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut ids = permutation(n, rng);
    ids.truncate(((n + 5) / 10).max(1));
    ids
}

/// Host operands of one functional GEMM.
pub struct Operands {
    /// The problem.
    pub shape: GemmShape,
    /// `m × k`.
    pub a: Vec<f32>,
    /// `k × n`.
    pub b: Vec<f32>,
    /// `m × n` accumulator input.
    pub c0: Vec<f32>,
}

impl Operands {
    /// Seeded fills for a shape (`stream` separates jobs of one seed).
    pub fn new(shape: GemmShape, seed: u64, stream: u64) -> Self {
        let s = (seed as u32)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add((stream as u32).wrapping_mul(3));
        Operands {
            shape,
            a: fill_matrix(shape.m * shape.k, s.wrapping_add(1)),
            b: fill_matrix(shape.k * shape.n, s.wrapping_add(2)),
            c0: fill_matrix(shape.m * shape.n, s.wrapping_add(3)),
        }
    }

    /// Worst relative error of `got` against the f64 reference on a
    /// seeded block of at most `max_rows` rows (the reference is O(mnk)
    /// scalar work, so big jobs are checked on a row block).
    pub fn rel_err_vs_reference(&self, got: &[f32], max_rows: usize, rng: &mut Rng64) -> f64 {
        let GemmShape { m, n, k } = self.shape;
        let rows = m.min(max_rows);
        let r0 = rng.range(0, (m - rows) as u64) as usize;
        let a = &self.a[r0 * k..(r0 + rows) * k];
        let c0 = &self.c0[r0 * n..(r0 + rows) * n];
        let got = &got[r0 * n..(r0 + rows) * n];
        let want = sgemm_f64(rows, n, k, a, &self.b, c0);
        crate::stats::max_rel_err(n, k, a, &self.b, c0, got, &want)
    }
}

/// Relative-error ceiling of a correct f32 GEMM against the f64
/// reference, in units of product mass: f32 accumulation over depth `k`
/// stays below `k · 2⁻²⁴`; the factor 4 leaves room for blocked
/// regrouping.
pub fn rel_err_tolerance(k: usize) -> f64 {
    4.0 * k as f64 * f64::from(f32::EPSILON) / 2.0
}

/// Build the named workload (one full set-up).
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "steady_functional" => Some(Box::new(steady::Steady::setup(seed))),
        "cold_plan_timing" => Some(Box::new(cold::Cold::setup(seed))),
        "sharded_faults" => Some(Box::new(sharded::Sharded::setup(seed))),
        "conformance_sweep" => Some(Box::new(conform::Conform::setup(seed))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let p = permutation(24, &mut Rng64::new(5));
        let q = permutation(24, &mut Rng64::new(5));
        assert_eq!(p, q);
        assert_ne!(p, permutation(24, &mut Rng64::new(6)));
        let mut sorted = p;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn operands_depend_on_seed_and_stream_only() {
        let s = GemmShape::new(8, 4, 6);
        let a = Operands::new(s, 1, 0);
        assert_eq!(a.a, Operands::new(s, 1, 0).a);
        assert_ne!(a.a, Operands::new(s, 2, 0).a);
        assert_ne!(a.a, Operands::new(s, 1, 1).a);
        assert_eq!((a.a.len(), a.b.len(), a.c0.len()), (48, 24, 32));
    }

    #[test]
    fn reference_block_check_accepts_an_exact_product() {
        let ops = Operands::new(GemmShape::new(40, 8, 16), 3, 0);
        let mut c = ops.c0.clone();
        ftimm::reference::sgemm_naive(40, 8, 16, &ops.a, &ops.b, &mut c);
        let e = ops.rel_err_vs_reference(&c, 16, &mut Rng64::new(1));
        assert!(e < rel_err_tolerance(16), "{e}");
        // A single wrong element is far outside the tolerance.
        let mut bad = c;
        bad.iter_mut().for_each(|x| *x += 1.0);
        let e = ops.rel_err_vs_reference(&bad, 16, &mut Rng64::new(1));
        assert!(e > rel_err_tolerance(16), "{e}");
    }
}
