//! Per-layer probes: every layer timed from outside, around its public
//! functions, on the workload's own shapes.
//!
//! The probes run after the job streams of a traced run.  Each isolates
//! one layer (a cold kernel cache for `generate`, a pinned plan for
//! `run_plan`, a timing-mode machine for the event walk …) so that a
//! change to that layer moves its row and leaves the others alone.  A
//! layer the workload's own stream drives (the tuner on
//! `cold_plan_timing`, the sharded engine on `sharded_faults`, the
//! oracles on `conformance_sweep`) is reported by that stream and its
//! probe section does not run ([`Sections`]).
//! Values labelled *computed* (`exec_est_s`, `data_move_est_s`) are
//! derived from other rows, not timed.

use crate::metrics::{per_layer_member, Metrics};
use crate::stats::{digest_f32, geomean, median, percentile};
use crate::workloads::{rel_err_tolerance, timed, ContextStats, Operands};
use conformance::fuzzer::kernel_specs_for_plan;
use conformance::{check_case, generate_case, verify_kernel, OracleKind, Rng64};
use cpublas::CpuConfig;
use dspsim::{ExecMode, FaultPlan, HwConfig, KernelBindings, Machine, Phase, RunReport};
use ftimm::reference::fill_matrix;
use ftimm::{
    choose_coexec_split, chrome_trace_json, invoke_kernel, plan_sharded, profile_json,
    validate_problem, ClusterPool, CpuBackend, CpuLaneOutcome, Executor, FtImm, FtimmError,
    GemmProblem, GemmShape, Plan, ResilienceConfig, ShardedConfig, ShardedEngine, ShardedJob,
    ShardedOutcome, SpillPolicy, Strategy, TenantSpec, TuneConfig,
};
use kernelgen::{HostTier, KernelCache, KernelExecutor, KernelSpec, MicroKernel};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One shape the probes run on, with the request the workload makes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeShape {
    /// The problem.
    pub shape: GemmShape,
    /// Cores requested.
    pub cores: usize,
    /// Planning strategy requested.
    pub strategy: Strategy,
}

impl ProbeShape {
    /// A `Strategy::Auto` request.
    pub fn auto(shape: GemmShape, cores: usize) -> Self {
        ProbeShape {
            shape,
            cores,
            strategy: Strategy::Auto,
        }
    }
}

/// Probe sections a workload's own stream measures instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sections {
    /// `ftimm.tune.*`: tuning and the plan-catalog round trip.
    pub tune: bool,
    /// `ftimm.cluster.*` and `ftimm.backend.cpu_dispatches`: jobs through
    /// the sharded engine.
    pub cluster: bool,
    /// `conformance.generate_us_p50` and `conformance.case_ms_p50.*`.
    pub conformance: bool,
}

/// What the probes found.
pub struct ProbeReport {
    /// Every per-layer metric a probe measures.
    pub layers: Metrics,
    /// Worst relative error against the f64 reference on the probes'
    /// functional runs.
    pub max_rel_err: f64,
    /// Bitwise / reference checks made along the way.
    pub checks: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Cache counters of the probes' own context (functional runs of
    /// the workload's shapes).
    pub context: ContextStats,
}

/// Checkpoint grain of the sharded engine's default configuration: the
/// resilience, CPU-lane and cluster probes all run under it, so their C
/// must agree bit for bit.
const CKPT_ROWS: usize = 64;

/// Clusters the cluster-level probes plan across.
const CLUSTERS: usize = 4;

fn ms(seconds: &[f64]) -> f64 {
    median(seconds) * 1e3
}

fn us(seconds: &[f64]) -> f64 {
    median(seconds) * 1e6
}

/// Seconds per call of `work`, repeated until 2 ms have passed.
fn per_call_s(mut work: impl FnMut()) -> f64 {
    let t0 = crate::clock::now();
    let mut calls = 0u32;
    while calls < 3 || crate::clock::now() - t0 < 2e-3 {
        work();
        calls += 1;
    }
    (crate::clock::now() - t0) / f64::from(calls)
}

/// Calls of `spec` a plan with main block `main` makes on `shape`,
/// estimated from the block counts along each dimension (*computed*).
fn est_calls(shape: &GemmShape, main: &KernelSpec, spec: &KernelSpec) -> f64 {
    let along = |dim: usize, blk: usize, cur: usize| {
        if cur == blk {
            (dim / blk.max(1)).max(1)
        } else {
            1
        }
    };
    (along(shape.m, main.m_s, spec.m_s)
        * along(shape.k, main.k_a, spec.k_a)
        * along(shape.n, main.n_a, spec.n_a)) as f64
}

/// Host seconds per call of one kernel on each tier
/// `(compiled, fast, interpret)`.
fn kernel_call_s(
    ex: &KernelExecutor,
    kernel: &MicroKernel,
    cfg: &HwConfig,
) -> Result<(f64, f64, f64), FtimmError> {
    let spec = kernel.spec;
    let ld = spec.na_pad();
    let a = fill_matrix(spec.m_s * spec.k_a, 11);
    let b = fill_matrix(spec.k_a * ld, 12);
    let mut c = fill_matrix(spec.m_s * ld, 13);
    ex.compiled(kernel)?; // lowering is timed on its own
    let compiled = per_call_s(|| {
        ex.execute(HostTier::Compiled, kernel, &a, &b, &mut c)
            .expect("compiled tier runs");
    });
    let fast = per_call_s(|| {
        ex.execute(HostTier::Fast, kernel, &a, &b, &mut c)
            .expect("fast tier runs");
    });
    let mut m = Machine::new(cfg.clone(), ExecMode::Interpret);
    let bind = KernelBindings {
        a_off: 0,
        b_off: 0,
        c_off: kernel.layout.b_bytes,
    };
    m.core_mut(0).sm.write_f32_slice(bind.a_off, &a)?;
    m.core_mut(0).am.write_f32_slice(bind.b_off, &b)?;
    m.core_mut(0).am.write_f32_slice(bind.c_off, &c)?;
    let (ran, interpret) = timed(|| invoke_kernel(&mut m, 0, ex, kernel, bind));
    ran?;
    Ok((compiled, fast, interpret))
}

struct Staged {
    machine: Machine,
    problem: GemmProblem,
}

/// Fresh compiled-tier machine with the operands uploaded.
fn stage(ops: &Operands) -> Result<(Staged, f64, u64), FtimmError> {
    let mut machine = Machine::with_mode(ExecMode::Compiled);
    let problem = GemmProblem::alloc(&mut machine, ops.shape.m, ops.shape.n, ops.shape.k)?;
    let (r, upload_s) = timed(|| {
        problem.a.upload(&mut machine, &ops.a)?;
        problem.b.upload(&mut machine, &ops.b)?;
        problem.c.upload(&mut machine, &ops.c0)
    });
    r?;
    let bytes = 4 * (ops.a.len() + ops.b.len() + ops.c0.len()) as u64;
    Ok((Staged { machine, problem }, upload_s, bytes))
}

/// The probe shape as a job of the sharded engine.
fn sharded_job(ps: &ProbeShape, ops: &Operands) -> ShardedJob {
    ShardedJob::gemm(
        ps.shape.m,
        ps.shape.n,
        ps.shape.k,
        ops.a.clone(),
        ops.b.clone(),
        ops.c0.clone(),
        ps.strategy,
        ps.cores,
    )
}

fn restage_c(s: &mut Staged, ops: &Operands) -> Result<(), FtimmError> {
    s.machine.reset_timing();
    Ok(s.problem.c.upload(&mut s.machine, &ops.c0)?)
}

/// Run the probes on `shapes` and return their part of the per-layer
/// table: everything except the sections in `skip` (the workload's own
/// stream reports those) and what only the runner knows (the stream's
/// cache counters, `trace_overhead`, the merged `max_rel_err`).
pub fn run(shapes: &[ProbeShape], seed: u64, skip: Sections) -> Result<ProbeReport, FtimmError> {
    assert!(!shapes.is_empty(), "a workload names its probe shapes");
    let cfg = HwConfig::default();
    let cpu = CpuConfig::default();
    let mut layers = Metrics::default();
    let (mut checks, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool| {
        checks += 1;
        failed += u64::from(!ok);
    };

    // ---- ftimm.plan: cold, warm, sharded and split planning ----------
    let ft = FtImm::new(cfg.clone());
    let mut plans: Vec<Plan> = Vec::new();
    let (mut cold_s, mut warm_s, mut sharded_s, mut split_s, mut model_err) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for ps in shapes {
        let (plan, s) = timed(|| ft.plan_full(&ps.shape, ps.strategy, ps.cores));
        cold_s.push(s);
        plans.push(plan);
        for _ in 0..32 {
            warm_s.push(timed(|| ft.plan_full(&ps.shape, ps.strategy, ps.cores)).1);
        }
        let placement: Vec<usize> = (0..CLUSTERS).collect();
        for _ in 0..8 {
            sharded_s.push(
                timed(|| {
                    plan_sharded(&ft, &ps.shape, ps.strategy, ps.cores, &placement, CKPT_ROWS)
                })
                .1,
            );
            split_s.push(
                timed(|| {
                    choose_coexec_split(
                        &ft,
                        &ps.shape,
                        ps.strategy,
                        ps.cores,
                        CLUSTERS,
                        CKPT_ROWS,
                        &cpu,
                        1.0,
                    )
                })
                .1,
            );
        }
        // Forced strategies are pinned without a simulation; walk them
        // so every plan yields a (predicted, simulated) pair.
        let simulated = if plan.simulated_s.is_finite() {
            plan.simulated_s
        } else {
            ft.predict_seconds(&ps.shape, &plan.strategy, ps.cores)
        };
        if plan.predicted_s.is_finite() && simulated.is_finite() {
            model_err.push((plan.predicted_s - simulated).abs() / simulated);
        }
    }
    layers.set("ftimm.plan.cold_ms_p50", ms(&cold_s));
    layers.set("ftimm.plan.cold_ms_p90", percentile(&cold_s, 0.9) * 1e3);
    layers.set("ftimm.plan.warm_us_p50", us(&warm_s));
    layers.set("ftimm.plan.sharded_us_p50", us(&sharded_s));
    layers.set("ftimm.plan.coexec_split_us_p50", us(&split_s));
    let model_err = if model_err.is_empty() {
        vec![0.0]
    } else {
        model_err
    };
    layers.set("ftimm.plan.model_err_p50", median(&model_err));
    layers.set("ftimm.plan.model_err_p90", percentile(&model_err, 0.9));

    // ---- kernelgen (+ the static verifier) on the plans' own specs ----
    let mut by_spec: BTreeMap<String, (Arc<MicroKernel>, f64)> = BTreeMap::new();
    let mut shape_specs: Vec<Vec<(String, f64)>> = Vec::new();
    let (mut generate_s, mut lower_s, mut verify_s) = (Vec::new(), Vec::new(), Vec::new());
    for (ps, plan) in shapes.iter().zip(&plans) {
        let specs = kernel_specs_for_plan(&plan.strategy, &ps.shape);
        let mut mine = Vec::new();
        for spec in &specs {
            let weight = est_calls(&ps.shape, &specs[0], spec);
            let key = spec.to_string();
            mine.push((key.clone(), weight));
            if let Some(entry) = by_spec.get_mut(&key) {
                entry.1 += weight;
                continue;
            }
            let cold = KernelCache::new(cfg.clone());
            let (kernel, s) = timed(|| cold.get(*spec));
            let Ok(kernel) = kernel else { continue };
            generate_s.push(s);
            let (report, s) = timed(|| verify_kernel(&kernel));
            verify_s.push(s);
            check(report.is_clean());
            let lowering = KernelExecutor::new(Arc::new(KernelCache::new(cfg.clone())));
            let (lowered, s) = timed(|| lowering.compiled(&kernel));
            lowered?;
            lower_s.push(s);
            by_spec.insert(key, (kernel, weight));
        }
        shape_specs.push(mine);
    }
    let exec = KernelExecutor::new(Arc::new(KernelCache::new(cfg.clone())));
    let mut call_s: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new();
    let (mut flops_w, mut tier_w) = (0.0f64, [0.0f64; 3]);
    for (key, (kernel, weight)) in &by_spec {
        let t = kernel_call_s(&exec, kernel, &cfg)?;
        call_s.insert(key, t);
        flops_w += weight * kernel.spec.useful_flops() as f64;
        for (acc, t) in tier_w.iter_mut().zip([t.0, t.1, t.2]) {
            *acc += weight * t;
        }
    }
    layers.set("kernelgen.generate_ms_p50", ms(&generate_s));
    layers.set("kernelgen.lower_ms_p50", ms(&lower_s));
    layers.set("conformance.verify_ms_p50", ms(&verify_s));
    layers.set("kernelgen.exec_compiled_gflops", flops_w / tier_w[0] / 1e9);
    layers.set("kernelgen.exec_fast_gflops", flops_w / tier_w[1] / 1e9);
    layers.set("kernelgen.exec_interpret_gflops", flops_w / tier_w[2] / 1e9);

    // ---- dspsim, ftimm.exec, resilience, backend, cluster: per shape --
    let machine_new_s: Vec<f64> = (0..64)
        .map(|_| timed(|| Machine::new(cfg.clone(), ExecMode::Compiled)).1)
        .collect();
    layers.set("dspsim.machine_new_us_p50", us(&machine_new_s));

    let rcfg = ResilienceConfig {
        ckpt_rows: CKPT_ROWS,
        ..ResilienceConfig::default()
    };
    let sharded_cfg = ShardedConfig {
        spill: SpillPolicy::CoExecute,
        ..ShardedConfig::default()
    };
    let mut engine = (!skip.cluster).then(|| {
        let mut eng = ShardedEngine::new(
            ClusterPool::new(&cfg, ExecMode::Compiled, CLUSTERS),
            sharded_cfg,
        );
        let tenant = eng.register_tenant(TenantSpec::new("probe", 5));
        (eng, tenant)
    });
    let mut rng = Rng64::for_case(seed, 0x9B0B);

    let (mut up_bytes, mut up_s, mut down_bytes, mut down_s) = (0u64, 0.0, 0u64, 0.0);
    let (mut validate_s, mut run_s, mut overhead_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut export_profile_s, mut export_trace_s) = (Vec::new(), Vec::new());
    let (mut submit_s, mut run_all_s) = (Vec::new(), Vec::new());
    let mut totals = dspsim::CoreStats::default();
    let (mut sim_s, mut walk_s, mut walk_dma, mut exec_est_s) = (0.0f64, 0.0f64, 0u64, 0.0f64);
    let mut bare_walk_s = 0.0f64;
    let (mut profiled_s, mut res_s, mut res_sim_s, mut cluster_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut cpu_flops, mut cpu_s) = (0u64, 0.0f64);
    let mut phase_s = [0.0f64; dspsim::PHASE_COUNT];
    let (mut overlap_s, mut window_s, mut occupancy_min, mut dropped) = (0.0, 0.0, 1.0f64, 0u64);
    let (mut shards, mut failovers, mut rows_resumed) = (0u64, 0u64, 0u64);
    let mut max_rel_err = 0.0f64;
    let mut kill_target: Option<(usize, f64, u64)> = None;

    for (i, (ps, plan)) in shapes.iter().zip(&plans).enumerate() {
        let ops = Operands::new(ps.shape, seed, 0x100 + i as u64);
        let (mut st, s, bytes) = stage(&ops)?;
        up_s += s;
        up_bytes += bytes;
        for _ in 0..64 {
            validate_s.push(timed(|| validate_problem(&st.problem)).1);
        }

        // Pinned plan, plain run: the reference C of this shape.
        let (report, pinned_s) =
            timed(|| ft.run_plan(&mut st.machine, &st.problem, &plan.strategy, ps.cores));
        let report: RunReport = report?;
        run_s.push(pinned_s);
        totals.merge(&report.totals);
        sim_s += report.seconds;
        let (c, s) = timed(|| st.problem.c.download(&mut st.machine));
        let c = c?;
        down_s += s;
        down_bytes += 4 * c.len() as u64;
        let e = ops.rel_err_vs_reference(&c, 128, &mut rng);
        max_rel_err = max_rel_err.max(e);
        check(e <= rel_err_tolerance(ps.shape.k));
        let plain_digest = digest_f32(&c);

        // *Computed*: this shape's kernel calls at its specs' measured
        // compiled-tier cost.
        let (w, t): (f64, f64) = shape_specs[i]
            .iter()
            .filter_map(|(key, w)| call_s.get(key.as_str()).map(|t| (*w, w * t.0)))
            .fold((0.0, 0.0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
        if w > 0.0 {
            exec_est_s += report.totals.kernel_calls as f64 * t / w;
        }

        // One-shot `gemm` on the same machine: plan-then-execute must be
        // bitwise identical, and the difference is executor overhead.
        restage_c(&mut st, &ops)?;
        let (one_shot, one_shot_s) =
            timed(|| ft.gemm(&mut st.machine, &st.problem, ps.strategy, ps.cores));
        one_shot?;
        let warm_plan_s = timed(|| ft.plan_full(&ps.shape, ps.strategy, ps.cores)).1;
        overhead_s.push(one_shot_s - warm_plan_s - pinned_s);
        check(digest_f32(&st.problem.c.download(&mut st.machine)?) == plain_digest);

        // The same plan on the timing model.  `predict_seconds` is what
        // every planner and tuner candidate pays (fresh machine, modelled
        // DDR allocation, event walk); the walk alone, on a machine that
        // is already allocated, is what the functional run above also
        // contains, so only it is subtracted in `data_move_est_s`.
        let (predicted, s) = timed(|| ft.predict_seconds(&ps.shape, &plan.strategy, ps.cores));
        walk_s += s;
        walk_dma += report.totals.dma_transfers;
        check(predicted == report.seconds);
        let mut timing = Machine::new(cfg.clone(), ExecMode::Timing);
        let tp = GemmProblem::alloc(&mut timing, ps.shape.m, ps.shape.n, ps.shape.k)?;
        let (walk, s) = timed(|| ft.run_plan(&mut timing, &tp, &plan.strategy, ps.cores));
        walk?;
        bare_walk_s += s;

        // Profiled dispatch: simulated phase attribution and what the
        // recording costs the host.
        restage_c(&mut st, &ops)?;
        let (run, s) = timed(|| {
            Executor::new(&ft)
                .with_plan(plan.strategy)
                .cores(ps.cores)
                .profiled()
                .dispatch(&mut st.machine, &st.problem)
        });
        profiled_s += s;
        let run = run?;
        let profiled = run.result?;
        if let (Some(profile), Some(profiler)) = (&profiled.profile, &run.profiler) {
            for p in Phase::ALL {
                phase_s[p.index()] += profile.phase_seconds(p);
            }
            overlap_s += profile.overlap_s;
            window_s += profile.total_s;
            dropped += profile.dropped;
            for core in 0..profiled.cores_used.min(dspsim::PROFILE_CORES) {
                occupancy_min = occupancy_min.min(profile.occupancy(core));
            }
            export_profile_s.push(timed(|| profile_json(profile)).1);
            export_trace_s.push(timed(|| chrome_trace_json(profiler)).1);
        }

        // Fault-free resilient run under the engine's checkpoint grain:
        // the bitwise oracle of the CPU lane and the sharded engine.
        restage_c(&mut st, &ops)?;
        let (res, s) = timed(|| {
            ft.run_plan_resilient(
                &mut st.machine,
                &st.problem,
                &plan.strategy,
                ps.cores,
                &rcfg,
            )
        });
        res_s += s;
        res_sim_s += res?.seconds;
        let ckpt_digest = digest_f32(&st.problem.c.download(&mut st.machine)?);

        // The CPU lane's host mirror of the same walk.
        let mut lane = CpuBackend::new(cpu).with_dsp_cores(cfg.cores_per_cluster);
        let mut c_cpu = ops.c0.clone();
        let (stripe, s) = timed(|| {
            lane.run_stripe(
                ft.executor(),
                &plan.strategy,
                ps.cores,
                &ops.a,
                &ops.b,
                &mut c_cpu,
                ps.shape.n,
                ps.shape.k,
                ps.shape.m,
                CKPT_ROWS,
                None,
            )
        });
        cpu_s += s;
        cpu_flops += ps.shape.flops();
        check(stripe?.outcome == CpuLaneOutcome::Done && digest_f32(&c_cpu) == ckpt_digest);

        // One job through the 4-cluster co-executing engine.
        let Some((engine, tenant)) = engine.as_mut() else {
            continue;
        };
        let job = sharded_job(ps, &ops);
        submit_s.push(timed(|| engine.submit(*tenant, job)).1);
        let (mut records, s) = timed(|| engine.run_all(&ft));
        run_all_s.push(s);
        cluster_s += s;
        match records.pop().map(|r| r.outcome) {
            Some(ShardedOutcome::Completed { c, report }) => {
                shards += report.shard_runs.len() as u64;
                failovers += report.failovers.len() as u64;
                check(digest_f32(&c) == ckpt_digest);
                if kill_target.is_none() && report.shard_runs.len() > 1 {
                    kill_target = Some((i, report.shard_runs[0].seconds, ckpt_digest));
                }
            }
            _ => check(false),
        }
    }
    let mut cpu_dispatches = engine.map_or(0, |(eng, _)| eng.cpu_dispatches());

    // A mid-shard cluster kill on the first multi-shard job: failover
    // must still reproduce the oracle bit for bit.
    if let Some((i, shard0_s, want)) = kill_target {
        let ps = &shapes[i];
        let ops = Operands::new(ps.shape, seed, 0x100 + i as u64);
        let mut eng = ShardedEngine::new(
            ClusterPool::new(&cfg, ExecMode::Compiled, CLUSTERS),
            sharded_cfg,
        );
        let t = eng.register_tenant(TenantSpec::new("probe", 5));
        let target = eng.pool().placement()[0];
        eng.install_faults(target, &FaultPlan::new(seed).kill_cluster(0.5 * shard0_s));
        eng.submit(t, sharded_job(ps, &ops));
        match eng.run_all(&ft).pop().map(|r| r.outcome) {
            Some(ShardedOutcome::Completed { c, report }) => {
                shards += report.shard_runs.len() as u64;
                failovers += report.failovers.len() as u64;
                rows_resumed += report
                    .failovers
                    .iter()
                    .map(|f| f.rows_resumed as u64)
                    .sum::<u64>();
                check(digest_f32(&c) == want);
            }
            _ => check(false),
        }
        cpu_dispatches += eng.cpu_dispatches();
    }

    // Seeded transient DMA corruption on the first shape: ABFT detects,
    // the resilient run retries and still matches the fault-free C.
    {
        let ps = &shapes[0];
        let ops = Operands::new(ps.shape, seed, 0x100);
        let (mut st, _, _) = stage(&ops)?;
        st.machine
            .install_faults(&conformance::fault_plan_for(seed | 1));
        let rep = ft.run_plan_resilient(
            &mut st.machine,
            &st.problem,
            &plans[0].strategy,
            ps.cores,
            &rcfg,
        )?;
        layers.set("ftimm.resilience.retries", rep.faults.retries as f64);
        layers.set(
            "ftimm.resilience.rows_reexecuted",
            rep.faults.rows_reexecuted as f64,
        );
        layers.set(
            "ftimm.resilience.faults_injected",
            rep.faults.injected() as f64,
        );
        let c = st.problem.c.download(&mut st.machine)?;
        let e = ops.rel_err_vs_reference(&c, 128, &mut rng);
        check(e <= rel_err_tolerance(ps.shape.k));
    }

    let gib = |bytes: u64, s: f64| bytes as f64 / s / (1u64 << 30) as f64;
    let run_total: f64 = run_s.iter().sum();
    layers.set("dspsim.upload_gib_s", gib(up_bytes, up_s));
    layers.set("dspsim.download_gib_s", gib(down_bytes, down_s));
    layers.set("dspsim.timing_walk_s", walk_s);
    layers.set(
        "dspsim.timing_host_us_per_dma",
        walk_s / walk_dma.max(1) as f64 * 1e6,
    );
    layers.set("kernelgen.exec_est_s", exec_est_s);
    layers.set(
        "dspsim.data_move_est_s",
        run_total - bare_walk_s - exec_est_s,
    );
    layers.set("dspsim.host_s_per_sim_s", run_total / sim_s);
    layers.set("dspsim.sim_ddr_bytes", totals.ddr_bytes as f64);
    layers.set("dspsim.sim_gsm_bytes", totals.gsm_bytes as f64);
    layers.set("dspsim.sim_dma_transfers", totals.dma_transfers as f64);
    layers.set("dspsim.sim_kernel_calls", totals.kernel_calls as f64);
    layers.set("dspsim.sim_compute_cycles", totals.compute_cycles as f64);
    for p in Phase::ALL.into_iter().filter(|p| !p.is_host_side()) {
        let name = per_layer_member("dspsim.sim_phase_s", p.name());
        layers.set(name, phase_s[p.index()]);
    }
    layers.set(
        "dspsim.sim_overlap_frac",
        if window_s > 0.0 {
            overlap_s / window_s
        } else {
            0.0
        },
    );
    layers.set("dspsim.sim_occupancy_min", occupancy_min);
    layers.set("dspsim.profiler_dropped", dropped as f64);
    layers.set("dspsim.profile_host_overhead", profiled_s / run_total);
    layers.set("ftimm.exec.validate_us_p50", us(&validate_s));
    layers.set("ftimm.exec.run_plan_ms_p50", ms(&run_s));
    layers.set("ftimm.exec.overhead_ms_p50", ms(&overhead_s));
    layers.set("ftimm.exec.export_profile_ms", ms(&export_profile_s));
    layers.set("ftimm.exec.export_trace_ms", ms(&export_trace_s));
    layers.set("ftimm.resilience.host_overhead", res_s / run_total);
    layers.set("ftimm.resilience.sim_overhead", res_sim_s / sim_s);
    layers.set(
        "ftimm.backend.cpu_stripe_gflops",
        cpu_flops as f64 / cpu_s / 1e9,
    );
    if !skip.cluster {
        layers.set("ftimm.backend.cpu_dispatches", cpu_dispatches as f64);
        layers.set("ftimm.cluster.submit_us_p50", us(&submit_s));
        layers.set("ftimm.cluster.run_all_ms_p50", ms(&run_all_s));
        layers.set("ftimm.cluster.shards", shards as f64);
        layers.set("ftimm.cluster.failovers", failovers as f64);
        layers.set("ftimm.cluster.rows_resumed", rows_resumed as f64);
        layers.set("ftimm.cluster.engine_overhead", cluster_s / res_s);
    }
    if !skip.tune {
        tune_probes(shapes, &cfg, &mut layers)?;
    }
    if !skip.conformance {
        conformance_probes(seed, &cfg, &mut layers, &mut check);
    }

    Ok(ProbeReport {
        layers,
        max_rel_err,
        checks,
        failed,
        context: ContextStats::of(&ft),
    })
}

/// `ftimm.tune`: tune every shape on a fresh context, then save the plan
/// catalog and warm-start another context from it.
fn tune_probes(
    shapes: &[ProbeShape],
    cfg: &HwConfig,
    layers: &mut Metrics,
) -> Result<(), FtimmError> {
    let tuner = FtImm::new(cfg.clone());
    let (mut tune_s, mut gains, mut adopted) = (Vec::new(), Vec::new(), 0u64);
    for ps in shapes {
        let (outcome, s) = timed(|| tuner.tune(&ps.shape, ps.cores, &TuneConfig::default()));
        tune_s.push(s);
        adopted += u64::from(outcome.adopted_variant);
        if outcome.plan.simulated_s.is_finite() && outcome.default_plan.simulated_s.is_finite() {
            gains.push(outcome.default_plan.simulated_s / outcome.plan.simulated_s);
        }
    }
    let path = crate::scratch_path("probe-catalog.json");
    let (saved, save_s) = timed(|| tuner.save_plan_catalog(&path));
    let (warm, load_s) = timed(|| FtImm::with_plan_catalog(cfg.clone(), &path));
    let _ = std::fs::remove_file(&path);
    saved.map_err(FtimmError::Invalid)?;
    let warm = warm.map_err(FtimmError::Invalid)?;
    for ps in shapes {
        warm.plan_full(&ps.shape, Strategy::Auto, ps.cores);
    }
    layers.set("ftimm.tune.ms_p50", ms(&tune_s));
    layers.set(
        "ftimm.tune.sim_gain",
        if gains.is_empty() {
            1.0
        } else {
            geomean(&gains)
        },
    );
    layers.set("ftimm.tune.variants_adopted", adopted as f64);
    layers.set("ftimm.tune.catalog_save_ms", save_s * 1e3);
    layers.set("ftimm.tune.catalog_load_ms", load_s * 1e3);
    layers.set(
        "ftimm.tune.warm_start_sims",
        warm.timing_simulations() as f64,
    );
    Ok(())
}

/// `conformance`: one pass over every oracle × regime pair.
fn conformance_probes(
    seed: u64,
    cfg: &HwConfig,
    layers: &mut Metrics,
    check: &mut impl FnMut(bool),
) {
    let sweep = FtImm::new(cfg.clone());
    let mut generate_s = Vec::new();
    let mut case_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for i in 0..(OracleKind::ALL.len() * conformance::Regime::ALL.len()) as u64 {
        let (case, s) = timed(|| generate_case(seed, i));
        generate_s.push(s);
        let (result, s) = timed(|| check_case(&sweep, &case));
        check(result.is_ok());
        case_s.entry(case.oracle.tag()).or_default().push(s);
    }
    layers.set("conformance.generate_us_p50", us(&generate_s));
    for (tag, samples) in &case_s {
        layers.set(
            per_layer_member("conformance.case_ms_p50", tag),
            ms(samples),
        );
    }
}
