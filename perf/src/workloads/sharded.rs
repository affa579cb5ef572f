//! `sharded_faults` — the same kernels, used differently.
//!
//! A `ShardedEngine` over a fresh 4-cluster pool per round (compiled
//! tier, `SpillPolicy::CoExecute`, default checkpoint grain), two tenants
//! (priority 9 / 1, no deadlines, unlimited quotas — nothing is shed by
//! design).  A round is 8 functional jobs in a seeded order under one
//! seeded scenario; four rounds, one per scenario, make a unit.  A job is
//! one `submit` + `run_all`.  Every job must complete and its merged C
//! must be bitwise identical to a fault-free single-cluster checkpointed
//! run of the same pinned plan — the engine's own contract, under every
//! scenario.

use super::{
    permutation, sample_tenth, timed, ContextStats, JobOutcome, Operands, ReferenceCheck,
    SimSummary, Workload, CORES,
};
use crate::metrics::Metrics;
use crate::probes::{ProbeShape, Sections};
use crate::spans::Recorder;
use crate::stats::{digest_f32, geomean, median};
use conformance::Rng64;
use dspsim::{ExecMode, FaultPlan, HwConfig, Machine};
use ftimm::{
    ChosenStrategy, ClusterPool, FtImm, GemmProblem, GemmShape, ShardedConfig, ShardedEngine,
    ShardedJob, ShardedOutcome, SpillPolicy, Strategy, TenantId, TenantSpec,
};

/// Clusters per pool.
pub const CLUSTERS: usize = 4;

/// The eight jobs of a round: three type-1 shapes (the regime where the
/// default CPU model takes a real M tail), two type-2 (single-shard:
/// fewer rows than one checkpoint grain) and three with both M and K
/// large.  `N·(K+1)` stays small enough that the ABFT allowance is far
/// below what one corrupted word does (see [`operands`]).
pub const SHAPES: [(usize, usize, usize); 8] = [
    (8192, 32, 32),
    (16384, 16, 16),
    (6144, 64, 48),
    (32, 32, 4096),
    (64, 32, 4096),
    (2048, 32, 2048),
    (2048, 96, 1024),
    (1536, 48, 2048),
];

/// What a round injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Nothing.
    FaultFree,
    /// One cluster dies in the middle of a shard.
    KillCluster,
    /// Transient DMA corruptions: ABFT detects each one (the operands
    /// guarantee it, see [`operands`]) and the span is retried.
    CorruptDma,
    /// The planned CPU tail faults and is demoted back to the DSP pool.
    FailCpu,
}

const SCENARIOS: [Scenario; 4] = [
    Scenario::FaultFree,
    Scenario::KillCluster,
    Scenario::CorruptDma,
    Scenario::FailCpu,
];

const UNIT: usize = SHAPES.len() * SCENARIOS.len();

struct ShardedJobSpec {
    ops: Operands,
    /// The fault-free single-cluster checkpointed C, and its digest.
    want: Vec<f32>,
    digest: u64,
    /// Fault-free simulated seconds of the job's first shard (where a
    /// kill is aimed).
    shard0_s: f64,
}

/// Counts of what the stream's jobs actually did.
#[derive(Debug, Default, Clone)]
struct Counters {
    shards: u64,
    failovers: u64,
    rows_resumed: u64,
    cpu_dispatches: u64,
    submit_s: Vec<f64>,
    run_all_s: Vec<f64>,
    /// `(job id, run_all host seconds)` of the fault-free rounds.
    fault_free_run_all_s: Vec<(usize, f64)>,
}

/// The workload state.
pub struct Sharded {
    seed: u64,
    ft: FtImm,
    jobs: Vec<ShardedJobSpec>,
    engine: Option<(ShardedEngine, [TenantId; 2])>,
    counters: Counters,
    stream_start: ContextStats,
}

fn config() -> ShardedConfig {
    ShardedConfig {
        spill: SpillPolicy::CoExecute,
        ..ShardedConfig::default()
    }
}

fn fresh_engine() -> (ShardedEngine, [TenantId; 2]) {
    let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, CLUSTERS);
    let mut eng = ShardedEngine::new(pool, config());
    let hi = eng.register_tenant(TenantSpec::new("interactive", 9));
    let lo = eng.register_tenant(TenantSpec::new("batch", 1));
    (eng, [hi, lo])
}

fn job_for(ops: &Operands) -> ShardedJob {
    let GemmShape { m, n, k } = ops.shape;
    ShardedJob::gemm(
        m,
        n,
        k,
        ops.a.clone(),
        ops.b.clone(),
        ops.c0.clone(),
        Strategy::Auto,
        CORES,
    )
}

/// Seeded operands on which the resilience layer must catch *every*
/// DMA corruption: A and C0 are `±j/256`, B is `+j/256`, `j ∈ 1..=255`.
///
/// The simulator's `corrupt_dma` flips the exponent MSB of one
/// transferred f32.  A word below 2 in magnitude becomes at least 2
/// (`0 → 2`, anything else is multiplied by 2^128); a word of magnitude
/// 2 or more — only a partial sum of C can be — drops to ~0.  So:
///
/// * a C or partial-C word moves its row sum by more than 1.99;
/// * an A word `a[i][k]` (never 0, so it becomes ≥ 2^120) moves row `i`'s
///   sum by `|Δa| · Σ_j b[k][j]`, and B is positive, so that sum cannot
///   cancel: astronomically large or non-finite;
/// * a B word moves every row that uses the panel by `|a[i][k]| · |Δb|`,
///   and A has no zeros: likewise.
///
/// The ABFT allowance of a row is `abft_tol · (1 + |expected| + mass)`
/// with `mass ≤ N + K·N` here, at most 0.4 on [`SHAPES`] (self-tested).
/// With the stock `fill_matrix` operands (|x| up to 7.8, signed B) an A
/// word of magnitude ≥ 2 drops to ~0 and moves the row by `a · Σ_j b`,
/// which cancellation leaves below the allowance now and then: the job
/// then completes with low-order-wrong elements (an ABFT false negative;
/// ROADMAP item 4).  A benchmark needs workloads on which nothing
/// fails, so it stays clear of that input region and holds every round
/// to the bitwise oracle.
fn operands(shape: GemmShape, seed: u64, id: u64) -> Operands {
    let mut rng = Rng64::for_case(seed ^ 0x0BE7, id);
    let mut fill = |len: usize, signed: bool| -> Vec<f32> {
        (0..len)
            .map(|_| {
                let r = rng.next();
                let v = (1 + (r % 255) as u16) as f32 / 256.0;
                if signed && r & (1 << 32) != 0 {
                    -v
                } else {
                    v
                }
            })
            .collect()
    };
    Operands {
        shape,
        a: fill(shape.m * shape.k, true),
        b: fill(shape.k * shape.n, false),
        c0: fill(shape.m * shape.n, true),
    }
}

/// The bitwise oracle: a fault-free single-cluster run of the pinned plan
/// under the engine's own checkpoint grain.  Returns C and the host
/// seconds of the `run_plan_resilient` call.
fn single_cluster_reference(
    ft: &FtImm,
    ops: &Operands,
) -> Result<(Vec<f32>, f64), ftimm::FtimmError> {
    let mut m = Machine::with_mode(ExecMode::Compiled);
    let p = GemmProblem::alloc(&mut m, ops.shape.m, ops.shape.n, ops.shape.k)?;
    p.a.upload(&mut m, &ops.a)?;
    p.b.upload(&mut m, &ops.b)?;
    p.c.upload(&mut m, &ops.c0)?;
    let plan = ft.plan_full(&ops.shape, Strategy::Auto, CORES);
    let (run, host_s) = timed(|| {
        ft.run_plan_resilient(
            &mut m,
            &p,
            &plan.strategy,
            CORES,
            &config().engine.resilience,
        )
    });
    run?;
    Ok((p.c.download(&mut m)?, host_s))
}

impl Sharded {
    /// Build the context, generate the eight jobs, compute each one's
    /// bitwise oracle, and warm plans and kernels with a fault-free round.
    pub fn setup(seed: u64) -> Self {
        let ft = FtImm::new(HwConfig::default());
        let (mut eng, tenants) = fresh_engine();
        let jobs = SHAPES
            .iter()
            .enumerate()
            .map(|(id, &(m, n, k))| {
                let ops = operands(GemmShape::new(m, n, k), seed, id as u64);
                let (want, _) = single_cluster_reference(&ft, &ops).expect("oracle run");
                eng.submit(tenants[0], job_for(&ops));
                let shard0_s = match eng.run_all(&ft).pop().map(|r| r.outcome) {
                    Some(ShardedOutcome::Completed { report, .. }) => report
                        .shard_runs
                        .first()
                        .map_or(report.seconds, |s| s.seconds),
                    other => panic!("warm-up job {id} did not complete: {other:?}"),
                };
                ShardedJobSpec {
                    digest: digest_f32(&want),
                    want,
                    ops,
                    shard0_s,
                }
            })
            .collect();
        let stream_start = ContextStats::of(&ft);
        Sharded {
            seed,
            ft,
            jobs,
            engine: None,
            counters: Counters::default(),
            stream_start,
        }
    }

    fn scenario(&self, round: usize) -> Scenario {
        let rot = Rng64::for_case(self.seed, 0x5CE).range(0, 3) as usize;
        SCENARIOS[(round + rot) % SCENARIOS.len()]
    }

    /// A fresh pool and engine with the round's scenario armed.  Faults
    /// that fire at a seeded job are installed right before that job, so
    /// a kill lands inside a shard whatever the placement so far.
    fn begin_round(&mut self, round: usize) {
        if let Some((eng, _)) = self.engine.take() {
            self.counters.cpu_dispatches += eng.cpu_dispatches();
        }
        let (mut eng, tenants) = fresh_engine();
        let mut rng = Rng64::for_case(self.seed ^ 0xFA17, round as u64);
        match self.scenario(round) {
            Scenario::CorruptDma => {
                let target = eng.pool().placement()[0];
                let plan = conformance::fault_plan_for(rng.range(1, u64::from(u32::MAX)));
                eng.install_faults(target, &plan);
            }
            Scenario::FailCpu => {
                eng.install_cpu_faults(&FaultPlan::new(rng.next()).fail_cpu(rng.range(1, 3)));
            }
            Scenario::FaultFree | Scenario::KillCluster => {}
        }
        self.engine = Some((eng, tenants));
    }

    /// `(job id, kill to arm before it)` for stream index `i`.
    fn job_at(&self, i: usize) -> (usize, Option<f64>) {
        let (round, pos) = (i / SHAPES.len(), i % SHAPES.len());
        let id = permutation(SHAPES.len(), &mut Rng64::for_case(self.seed, round as u64))[pos];
        let mut rng = Rng64::for_case(self.seed ^ 0x4B11, round as u64);
        let (kill_pos, frac) = (
            rng.range(0, SHAPES.len() as u64 - 1) as usize,
            0.1 + 0.8 * rng.range(0, 1000) as f64 / 1000.0,
        );
        let kill = (self.scenario(round) == Scenario::KillCluster && pos == kill_pos)
            .then_some(frac * self.jobs[id].shard0_s);
        (id, kill)
    }
}

impl Workload for Sharded {
    fn unit_len(&self) -> usize {
        UNIT
    }

    fn fixed_len(&self) -> usize {
        UNIT
    }

    fn kind(&self, i: usize) -> usize {
        let scenario = self.scenario(i / SHAPES.len());
        let s = SCENARIOS
            .iter()
            .position(|x| *x == scenario)
            .expect("listed");
        s * SHAPES.len() + self.job_at(i).0
    }

    fn begin_stream(&mut self) {
        self.engine = None;
        self.counters = Counters::default();
        self.stream_start = ContextStats::of(&self.ft);
    }

    fn run_job(&mut self, i: usize, rec: &mut Recorder) -> JobOutcome {
        if i.is_multiple_of(SHAPES.len()) {
            self.begin_round(i / SHAPES.len());
        }
        let (id, kill) = self.job_at(i);
        let scenario = self.scenario(i / SHAPES.len());
        let spec = &self.jobs[id];
        let (eng, tenants) = self.engine.as_mut().expect("round begun");
        if let Some(after_s) = kill {
            let target = eng.pool().placement()[0];
            let now = eng.pool().node(target).machine.elapsed();
            eng.install_faults(
                target,
                &FaultPlan::new(self.seed ^ i as u64).kill_cluster(now + after_s),
            );
        }
        let job = job_for(&spec.ops);
        let tenant = tenants[i % 2];
        let ft = &self.ft;
        let counters = &mut self.counters;
        let (mut records, latency_s) = timed(|| {
            rec.span("harness", "job", i, |rec| {
                let (_, submit_s) =
                    timed(|| rec.span("ftimm.cluster", "submit", i, |_| eng.submit(tenant, job)));
                let (records, run_all_s) =
                    timed(|| rec.span("ftimm.cluster", "run_all", i, |_| eng.run_all(ft)));
                counters.submit_s.push(submit_s);
                counters.run_all_s.push(run_all_s);
                if scenario == Scenario::FaultFree {
                    counters.fault_free_run_all_s.push((id, run_all_s));
                }
                records
            })
        });
        let (ok, digest, sim_s) = match (records.len(), records.pop().map(|r| r.outcome)) {
            (1, Some(ShardedOutcome::Completed { c, report })) => {
                counters.shards += report.shard_runs.len() as u64;
                counters.failovers += report.failovers.len() as u64;
                counters.rows_resumed += report
                    .failovers
                    .iter()
                    .map(|f| f.rows_resumed as u64)
                    .sum::<u64>();
                let d = rec.span("harness", "digest", i, |_| digest_f32(&c));
                let ok = d == spec.digest;
                if !ok {
                    let differing = c
                        .iter()
                        .zip(&spec.want)
                        .filter(|(a, b)| a.to_bits() != b.to_bits())
                        .count();
                    eprintln!(
                        "perf: sharded job {i} ({}, {scenario:?}): {differing} of {} elements differ from the single-cluster oracle",
                        spec.ops.shape,
                        c.len(),
                    );
                }
                (ok, d, report.seconds)
            }
            (n, outcome) => {
                eprintln!(
                    "perf: sharded job {i} ({}, {scenario:?}) ended with {n} records, last {}",
                    spec.ops.shape,
                    outcome.map_or("none", |o| o.label())
                );
                (false, 0, 0.0)
            }
        };
        JobOutcome {
            latency_s,
            ok,
            digest,
            flops: spec.ops.shape.flops(),
            sim_s,
            tgemm_sim_s: 0.0,
        }
    }

    fn sim_summary(&mut self, fixed: &[JobOutcome]) -> SimSummary {
        let flops: u64 = fixed.iter().map(|j| j.flops).sum();
        let sim_s: f64 = fixed.iter().map(|j| j.sim_s).sum();
        // TGEMM on one cluster against the job's sharded makespan.
        let tgemm_s: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| {
                self.ft
                    .predict_seconds(&j.ops.shape, &ChosenStrategy::TGemm, CORES)
            })
            .collect();
        let ratios: Vec<f64> = fixed
            .iter()
            .enumerate()
            .map(|(i, j)| tgemm_s[self.job_at(i).0] / j.sim_s)
            .collect();
        SimSummary {
            gflops: flops as f64 / sim_s / 1e9,
            speedup_vs_tgemm: geomean(&ratios),
        }
    }

    fn reference_check(&mut self) -> ReferenceCheck {
        let mut rng = Rng64::for_case(self.seed, 0xC4EC);
        let mut check = ReferenceCheck::default();
        for id in sample_tenth(SHAPES.len(), &mut rng) {
            let job = &self.jobs[id];
            check.checked += 1;
            match single_cluster_reference(&self.ft, &job.ops) {
                Ok((c, _)) => {
                    let e = job.ops.rel_err_vs_reference(&c, 128, &mut rng);
                    check.max_rel_err = check.max_rel_err.max(e);
                    let within = e <= super::rel_err_tolerance(job.ops.shape.k);
                    if !within || digest_f32(&c) != job.digest {
                        check.failed += 1;
                    }
                }
                Err(_) => check.failed += 1,
            }
        }
        check
    }

    fn context_stats(&self) -> ContextStats {
        ContextStats::of(&self.ft).since(self.stream_start)
    }

    fn probe_shapes(&self) -> Vec<ProbeShape> {
        [0, 2, 4, 5, 6]
            .into_iter()
            .map(|id| {
                let (m, n, k) = SHAPES[id];
                ProbeShape::auto(GemmShape::new(m, n, k), CORES)
            })
            .collect()
    }

    fn stream_sections(&self) -> Sections {
        Sections {
            cluster: true,
            ..Sections::default()
        }
    }

    fn stream_layers(&mut self, layers: &mut Metrics) {
        let c = &self.counters;
        let live = self.engine.as_ref().map_or(0, |(e, _)| e.cpu_dispatches());
        layers.set("ftimm.cluster.shards", c.shards as f64);
        layers.set("ftimm.cluster.failovers", c.failovers as f64);
        layers.set("ftimm.cluster.rows_resumed", c.rows_resumed as f64);
        layers.set(
            "ftimm.backend.cpu_dispatches",
            (c.cpu_dispatches + live) as f64,
        );
        layers.set("ftimm.cluster.submit_us_p50", median(&c.submit_s) * 1e6);
        layers.set("ftimm.cluster.run_all_ms_p50", median(&c.run_all_s) * 1e3);
        // The fault-free rounds' `run_all` against a warm single-cluster
        // `run_plan_resilient` of the same jobs.
        let single_s: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| single_cluster_reference(&self.ft, &j.ops).map_or(f64::NAN, |(_, s)| s))
            .collect();
        let (engine_s, baseline_s) = c
            .fault_free_run_all_s
            .iter()
            .fold((0.0, 0.0), |acc, &(id, s)| {
                (acc.0 + s, acc.1 + single_s[id])
            });
        layers.set("ftimm.cluster.engine_overhead", engine_s / baseline_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_keep_every_dma_corruption_above_the_abft_allowance() {
        let ops = operands(GemmShape::new(40, 24, 56), 9, 3);
        assert_eq!(ops.a, operands(ops.shape, 9, 3).a, "seeded");
        assert_ne!(ops.a, operands(ops.shape, 9, 4).a);
        assert_eq!((ops.a.len(), ops.b.len(), ops.c0.len()), (2240, 1344, 960));
        let in_range = |x: &f32| (1.0 / 256.0..1.0).contains(&x.abs());
        assert!(ops.a.iter().chain(&ops.b).chain(&ops.c0).all(in_range));
        assert!(
            ops.b.iter().all(|b| *b > 0.0),
            "row sums of B cannot cancel"
        );
        assert!(ops.a.iter().any(|a| *a < 0.0) && ops.c0.iter().any(|c| *c < 0.0));
        // A flipped exponent MSB moves any word by more than 1.99; the
        // allowance of a row stays far below that on every shape.
        let tol = config().engine.resilience.abft_tol;
        for (_, n, k) in SHAPES {
            let mass = (n + k * n) as f64;
            assert!(tol * (1.0 + 2.0 * mass) < 0.4, "{n}x{k}");
        }
        for x in [0.0f32, 1.0 / 256.0, 0.999, 2.0, 37.5, -1e4] {
            let flipped = f32::from_bits(x.to_bits() ^ 0x4000_0000);
            let moved = (f64::from(flipped) - f64::from(x)).abs();
            assert!(moved.is_nan() || moved > 1.99, "{x} -> {flipped}");
        }
    }

    #[test]
    fn a_unit_visits_every_scenario_with_every_job() {
        assert_eq!(UNIT, 32);
        assert_eq!(SCENARIOS.len(), 4);
    }
}
