//! `steady_functional` — the warm serving state.
//!
//! One long-lived `FtImm` and `Machine` (compiled tier); the stream is
//! rounds of the same 24 shapes of the paper's three irregular types in a
//! seeded order with seeded fills.  Plans and kernels are warmed in
//! set-up (24 shapes ≪ the 256-entry plan cache), so the measured phase
//! must show a plan-cache hit ratio of 1.0 and zero timing simulations:
//! host time here is kernel execution plus functional DMA copies.

use super::{
    permutation, timed, ContextStats, JobOutcome, Operands, ReferenceCheck, SimSummary, Workload,
    CORES,
};
use crate::probes::ProbeShape;
use crate::spans::Recorder;
use crate::stats::{digest_f32, geomean};
use conformance::Rng64;
use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::{validate_problem, ChosenStrategy, FtImm, GemmProblem, GemmShape, Strategy};

/// 8 shapes of each irregular type, N over the paper's {16…96} sweep.
/// Type 1: M ≫ K, N.  Type 2: K ≫ M, N.  Type 3: M, K ≫ N.
pub const SHAPES: [(usize, usize, usize); 24] = [
    (8192, 32, 32),
    (16384, 16, 16),
    (20480, 16, 16),
    (12288, 48, 32),
    (8192, 96, 32),
    (10240, 64, 48),
    (16384, 80, 16),
    (8192, 64, 64),
    (32, 32, 8192),
    (64, 64, 16384),
    (32, 16, 16384),
    (48, 48, 8192),
    (64, 96, 4096),
    (16, 80, 8192),
    (32, 32, 32768),
    (96, 96, 4096),
    (2560, 32, 2560),
    (3072, 32, 3072),
    (2048, 16, 2048),
    (2048, 64, 2048),
    (2560, 48, 2048),
    (2048, 96, 2048),
    (2304, 80, 2048),
    (2560, 16, 3072),
];

struct SteadyJob {
    ops: Operands,
    /// Digest of C from the warm-up run: every later run of this job
    /// must reproduce it bit for bit.
    digest: u64,
    sim_s: f64,
}

/// The workload state.
pub struct Steady {
    seed: u64,
    ft: FtImm,
    machine: Machine,
    jobs: Vec<SteadyJob>,
    stream_start: ContextStats,
}

impl Steady {
    /// Build the context, generate the inputs, and warm every plan and
    /// kernel by running each job once.
    pub fn setup(seed: u64) -> Self {
        let ft = FtImm::new(HwConfig::default());
        let mut machine = Machine::with_mode(ExecMode::Compiled);
        let jobs = SHAPES
            .iter()
            .enumerate()
            .map(|(id, &(m, n, k))| {
                let ops = Operands::new(GemmShape::new(m, n, k), seed, id as u64);
                let (c, sim_s) = one_shot(&ft, &mut machine, &ops).expect("warm-up job runs");
                SteadyJob {
                    digest: digest_f32(&c),
                    ops,
                    sim_s,
                }
            })
            .collect();
        let stream_start = ContextStats::of(&ft);
        Steady {
            seed,
            ft,
            machine,
            jobs,
            stream_start,
        }
    }

    /// Which job runs at stream index `i`: round `i / 24` is a seeded
    /// permutation of all 24.
    fn job_id(&self, i: usize) -> usize {
        let round = (i / SHAPES.len()) as u64;
        permutation(SHAPES.len(), &mut Rng64::for_case(self.seed, round))[i % SHAPES.len()]
    }
}

/// Reset the bump allocator and clocks, stage, `gemm`, download — the
/// way a user calls the library.
fn one_shot(
    ft: &FtImm,
    m: &mut Machine,
    ops: &Operands,
) -> Result<(Vec<f32>, f64), ftimm::FtimmError> {
    m.ddr.reset_alloc();
    m.reset_timing();
    let p = GemmProblem::alloc(m, ops.shape.m, ops.shape.n, ops.shape.k)?;
    p.a.upload(m, &ops.a)?;
    p.b.upload(m, &ops.b)?;
    p.c.upload(m, &ops.c0)?;
    let (report, _plan) = ft.gemm(m, &p, Strategy::Auto, CORES)?;
    Ok((p.c.download(m)?, report.seconds))
}

/// The same job as staged public calls, one span each.
fn staged(
    ft: &FtImm,
    m: &mut Machine,
    ops: &Operands,
    i: usize,
    rec: &mut Recorder,
) -> Result<(Vec<f32>, f64), ftimm::FtimmError> {
    let p = rec.span("dspsim", "alloc+upload", i, |_| {
        m.ddr.reset_alloc();
        m.reset_timing();
        let p = GemmProblem::alloc(m, ops.shape.m, ops.shape.n, ops.shape.k)?;
        p.a.upload(m, &ops.a)?;
        p.b.upload(m, &ops.b)?;
        p.c.upload(m, &ops.c0)?;
        Ok::<_, ftimm::FtimmError>(p)
    })?;
    rec.span("ftimm.exec", "validate_problem", i, |_| {
        validate_problem(&p)
    })?;
    let plan = rec.span("ftimm.plan", "plan_full", i, |_| {
        ft.plan_full(&ops.shape, Strategy::Auto, CORES)
    });
    let report = rec.span("ftimm.exec", "run_plan", i, |_| {
        ft.run_plan(m, &p, &plan.strategy, CORES)
    })?;
    let c = rec.span("dspsim", "download", i, |_| p.c.download(m))?;
    Ok((c, report.seconds))
}

impl Workload for Steady {
    fn unit_len(&self) -> usize {
        SHAPES.len()
    }

    fn fixed_len(&self) -> usize {
        SHAPES.len()
    }

    fn kind(&self, i: usize) -> usize {
        self.job_id(i)
    }

    fn begin_stream(&mut self) {
        self.stream_start = ContextStats::of(&self.ft);
    }

    fn run_job(&mut self, i: usize, rec: &mut Recorder) -> JobOutcome {
        let id = self.job_id(i);
        let job = &self.jobs[id];
        let (ft, m) = (&self.ft, &mut self.machine);
        let (out, latency_s) = timed(|| {
            rec.span("harness", "job", i, |rec| {
                if rec.enabled() {
                    staged(ft, m, &job.ops, i, rec)
                } else {
                    one_shot(ft, m, &job.ops)
                }
            })
        });
        let (ok, digest, sim_s) = match out {
            Ok((c, sim_s)) => {
                let d = rec.span("harness", "digest", i, |_| digest_f32(&c));
                (d == job.digest && sim_s == job.sim_s, d, sim_s)
            }
            Err(_) => (false, 0, 0.0),
        };
        JobOutcome {
            latency_s,
            ok,
            digest,
            flops: job.ops.shape.flops(),
            sim_s,
            tgemm_sim_s: 0.0,
        }
    }

    fn sim_summary(&mut self, fixed: &[JobOutcome]) -> SimSummary {
        let flops: u64 = fixed.iter().map(|j| j.flops).sum();
        let sim_s: f64 = fixed.iter().map(|j| j.sim_s).sum();
        let ratios: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| {
                self.ft
                    .predict_seconds(&j.ops.shape, &ChosenStrategy::TGemm, CORES)
                    / j.sim_s
            })
            .collect();
        SimSummary {
            gflops: flops as f64 / sim_s / 1e9,
            speedup_vs_tgemm: geomean(&ratios),
        }
    }

    fn reference_check(&mut self) -> ReferenceCheck {
        let mut rng = Rng64::for_case(self.seed, 0xC4EC);
        let mut check = ReferenceCheck::default();
        for id in super::sample_tenth(SHAPES.len(), &mut rng) {
            let job = &self.jobs[id];
            let Ok((c, _)) = one_shot(&self.ft, &mut self.machine, &job.ops) else {
                check.checked += 1;
                check.failed += 1;
                continue;
            };
            let e = job.ops.rel_err_vs_reference(&c, 64, &mut rng);
            check.checked += 1;
            check.max_rel_err = check.max_rel_err.max(e);
            let within = e <= super::rel_err_tolerance(job.ops.shape.k);
            if !within || digest_f32(&c) != job.digest {
                check.failed += 1;
            }
        }
        check
    }

    fn context_stats(&self) -> ContextStats {
        ContextStats::of(&self.ft).since(self.stream_start)
    }

    fn probe_shapes(&self) -> Vec<ProbeShape> {
        // Two of each type, mid-sized: the probes run every tier on them.
        [0, 5, 8, 11, 16, 19]
            .into_iter()
            .map(|id| {
                let (m, n, k) = SHAPES[id];
                ProbeShape::auto(GemmShape::new(m, n, k), CORES)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftimm::IrregularType;

    #[test]
    fn shapes_are_distinct_and_eight_per_irregular_type() {
        let mut count = std::collections::BTreeMap::new();
        for (i, &(m, n, k)) in SHAPES.iter().enumerate() {
            assert!(!SHAPES[..i].contains(&(m, n, k)));
            assert!([16, 32, 48, 64, 80, 96].contains(&n));
            *count
                .entry(format!("{}", GemmShape::new(m, n, k).classify()))
                .or_insert(0) += 1;
        }
        for t in [
            IrregularType::TallSkinnyTimesSmall,
            IrregularType::SkinnyTallTimesTallSkinny,
            IrregularType::RegularTimesTallSkinny,
        ] {
            assert_eq!(count[&t.to_string()], 8, "{t}");
        }
    }
}
