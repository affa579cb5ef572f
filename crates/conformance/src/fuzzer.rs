//! The differential fuzzer: seeded case generation, oracle execution and
//! shrinking.
//!
//! One [`CaseSpec`] is a complete, self-contained repro: shape, data
//! seed, strategy, core count, oracle and (optionally) a fault-plan seed.
//! Executing a case never consults global state, so a case that fails
//! today fails identically when replayed from its JSON fixture years
//! later — that is what makes the persisted corpus a regression suite.
//!
//! Every oracle is one row of the private `ORACLES` table — its fixture
//! tag, whether it needs an `Interpret`-capped shape, whether it draws a
//! fault seed, and its check function — and one [`OracleKind`] variant.
//! The contract each oracle checks is documented on its check function;
//! all of them compare the full `C` matrix.  [`check_case`] first runs the
//! [`crate::verifier`] lint pass over every micro-kernel the case's plan
//! invokes, then dispatches through the table.
//!
//! The check functions share three fixtures on `Ctx`: `staged_run`
//! (stage operands on a fresh machine, run a closure, download `C`),
//! `same_clock` (two legs agree on the simulated clock) and
//! `checkpointed_oracle` + `run_sharded` (the bitwise oracle of the
//! sharded engine and one job through it).  Adding an oracle is three
//! edits: the variant, the table row, the check function.

use crate::regime::Regime;
use crate::verifier::verify_kernel;
use cpublas::CpuConfig;
use dspsim::{BackendKind, DmaPath, ExecMode, FaultPlan, HwConfig, Machine, Rng64, RunReport};
use ftimm::reference::{fill_matrix, sgemm_f64};
use ftimm::{
    ChosenStrategy, ClusterPool, EngineConfig, Executor, FtImm, FtimmError, GemmProblem, GemmShape,
    ResilienceConfig, ShardedConfig, ShardedEngine, ShardedJob, ShardedOutcome, ShardedPlan,
    ShardedReport, SpillPolicy, Strategy, TenantSpec, Walk,
};
use kernelgen::{KernelSpec, MicroKernel};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which oracle a case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// f64 host reference within tolerance.
    Reference,
    /// `Compiled` ≡ `Interpret`, bitwise and on the simulated clock.
    ModeEquivalence,
    /// The same check as [`OracleKind::ModeEquivalence`].  It keeps its
    /// own row and tag because the case schedule draws from the table's
    /// length and flags, and the benchmark's `conformance_sweep` runs a
    /// fixed prefix of that schedule.
    CompiledEquivalence,
    /// All executor entry points bitwise identical.
    EntryEquivalence,
    /// `C(2A, B) = 2 · C(A, B)`, bitwise.
    ScalarScale,
    /// `(Bᵀ Aᵀ)ᵀ ≈ A B`.
    TransposeDuality,
    /// Every parallelisation strategy matches the oracle.
    TilingInvariance,
    /// Injected faults are recovered; result still oracle-clean.
    FaultRecovery,
    /// Planning is deterministic and plan-then-execute ≡ one-shot.
    PlanConsistency,
    /// Sharded run with seeded cluster death ≡ single-cluster, bitwise.
    ShardFailover,
    /// Cross-backend spill (DSP dies, CPU lane resumes) ≡ single-cluster,
    /// bitwise.
    CpuFailover,
    /// Tuning is deterministic, catalog round-trip preserves plan bits,
    /// tuned-plan execution ≡ default-plan execution (bitwise), and a
    /// catalog warm start plans with zero simulations.  The two tunes
    /// share the case context's kernels and nothing else.
    TunedPlanEquivalence,
    /// Co-executed run (planned CPU peer) ≡ single-cluster, bitwise;
    /// co-execution planning deterministic and never predicted slower
    /// than the best single backend.
    CoexecEquivalence,
}

/// One row of the oracle table: everything the rest of the crate knows
/// about an oracle.
struct Oracle {
    kind: OracleKind,
    /// Stable tag: fixtures and the benchmark baseline key on it.
    tag: &'static str,
    /// Runs `Interpret` (directly or as one leg of an equivalence), so
    /// its cases get budget-capped shapes.
    interpret_capped: bool,
    /// Its cases carry a [`CaseSpec::fault_seed`].
    fault_seeded: bool,
    check: fn(&Ctx) -> Result<(), Mismatch>,
}

/// The oracles, in round-robin scheduling order (the order of the
/// [`OracleKind`] variants, checked below).
const ORACLES: &[Oracle] = &[
    Oracle {
        kind: OracleKind::Reference,
        tag: "reference",
        interpret_capped: false,
        fault_seeded: false,
        check: reference,
    },
    Oracle {
        kind: OracleKind::ModeEquivalence,
        tag: "mode-equivalence",
        interpret_capped: true,
        fault_seeded: false,
        check: mode_equivalence,
    },
    Oracle {
        kind: OracleKind::CompiledEquivalence,
        tag: "compiled-equivalence",
        interpret_capped: true,
        fault_seeded: false,
        check: mode_equivalence,
    },
    Oracle {
        kind: OracleKind::EntryEquivalence,
        tag: "entry-equivalence",
        interpret_capped: false,
        fault_seeded: false,
        check: entry_equivalence,
    },
    Oracle {
        kind: OracleKind::ScalarScale,
        tag: "scalar-scale",
        interpret_capped: false,
        fault_seeded: false,
        check: scalar_scale,
    },
    Oracle {
        kind: OracleKind::TransposeDuality,
        tag: "transpose-duality",
        interpret_capped: false,
        fault_seeded: false,
        check: transpose_duality,
    },
    Oracle {
        kind: OracleKind::TilingInvariance,
        tag: "tiling-invariance",
        interpret_capped: false,
        fault_seeded: false,
        check: tiling_invariance,
    },
    Oracle {
        kind: OracleKind::FaultRecovery,
        tag: "fault-recovery",
        interpret_capped: false,
        fault_seeded: true,
        check: fault_recovery,
    },
    Oracle {
        kind: OracleKind::PlanConsistency,
        tag: "plan-consistency",
        interpret_capped: false,
        fault_seeded: false,
        check: plan_consistency,
    },
    Oracle {
        kind: OracleKind::ShardFailover,
        tag: "shard-failover",
        interpret_capped: false,
        fault_seeded: true,
        check: shard_failover,
    },
    Oracle {
        kind: OracleKind::CpuFailover,
        tag: "cpu-failover",
        interpret_capped: false,
        fault_seeded: true,
        check: cpu_failover,
    },
    Oracle {
        kind: OracleKind::TunedPlanEquivalence,
        tag: "tuned-plan-equivalence",
        interpret_capped: false,
        fault_seeded: false,
        check: tuned_plan_equivalence,
    },
    Oracle {
        kind: OracleKind::CoexecEquivalence,
        tag: "coexec-equivalence",
        interpret_capped: false,
        fault_seeded: false,
        check: coexec_equivalence,
    },
];

// Row `i` describes the `i`-th variant, so `kind as usize` indexes the
// table and the per-oracle counters.
const _: () = {
    let mut i = 0;
    while i < ORACLES.len() {
        assert!(ORACLES[i].kind as usize == i);
        i += 1;
    }
};

impl OracleKind {
    /// All oracles, in round-robin scheduling order.
    pub const ALL: [OracleKind; ORACLES.len()] = {
        let mut all = [OracleKind::Reference; ORACLES.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = ORACLES[i].kind;
            i += 1;
        }
        all
    };

    fn row(self) -> &'static Oracle {
        &ORACLES[self as usize]
    }

    /// Stable tag used in fixtures.
    pub fn tag(self) -> &'static str {
        self.row().tag
    }

    /// Parse a [`OracleKind::tag`].
    pub fn from_tag(s: &str) -> Option<OracleKind> {
        ORACLES.iter().find(|o| o.tag == s).map(|o| o.kind)
    }

    /// Whether the oracle's cases carry a [`CaseSpec::fault_seed`].
    pub fn fault_seeded(self) -> bool {
        self.row().fault_seeded
    }
}

/// A complete, deterministic conformance case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Seed for the matrix data fills.
    pub seed: u64,
    /// Problem shape.
    pub shape: GemmShape,
    /// Cores requested.
    pub cores: usize,
    /// Planning strategy under test.
    pub strategy: Strategy,
    /// The oracle.
    pub oracle: OracleKind,
    /// When set, the seed of the injected [`FaultPlan`] (see
    /// [`fault_plan_for`]); [`OracleKind::FaultRecovery`] draws DMA
    /// corruptions from it, [`OracleKind::ShardFailover`] and
    /// [`OracleKind::CpuFailover`] the cluster kill time.
    pub fault_seed: Option<u64>,
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} cores={} strategy={} oracle={}",
            self.shape,
            Regime::classify(&self.shape),
            self.cores,
            self.strategy.tag(),
            self.oracle.tag()
        )?;
        if let Some(fs) = self.fault_seed {
            write!(f, " fault_seed={fs}")?;
        }
        Ok(())
    }
}

/// A confirmed disagreement: the (possibly shrunk) case plus what
/// diverged.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The failing case.
    pub case: CaseSpec,
    /// Human-readable description of the first divergence.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.case, self.detail)
    }
}

/// Mixed absolute/relative tolerance used by the non-bitwise oracles
/// (same form as `ftimm::reference::assert_close`, sized for f32
/// accumulation over the fuzzer's depth range).
const REL_TOL: f64 = 2e-3;

/// `Interpret` mode walks every lane of every bundle on the host; cap the
/// flop volume of mode-equivalence cases so debug-build fuzz runs stay
/// fast.
const INTERPRET_MAX_MNK: u64 = 48 * 96 * 48;

/// Sample a shape whose `m·n·k` stays under `INTERPRET_MAX_MNK`
/// *without* leaving its regime — halving a tall-skinny `m` would
/// reclassify it as square and skew the coverage table.
pub fn sample_for_interpret(regime: Regime, rng: &mut Rng64) -> GemmShape {
    match regime {
        Regime::TallSkinny => {
            // m ≥ 256 and m ≥ 4k with the smallest admissible k keeps
            // headroom for a real n range.
            let m = rng.range(256, 300);
            let k = 9;
            let n = rng.range(1, (INTERPRET_MAX_MNK / (m * k)).min(96));
            GemmShape::new(m as usize, n as usize, k as usize)
        }
        Regime::ShortWide => {
            let k = rng.range(256, 300);
            let m = rng.range(1, 12);
            let n = rng.range(1, (INTERPRET_MAX_MNK / (k * m)).min(96));
            GemmShape::new(m as usize, n as usize, k as usize)
        }
        // Tiny-K shapes are already under budget (≤ 192·96·8).
        Regime::TinyK => regime.sample(rng),
        Regime::Square => {
            let m = rng.range(9, 48);
            let k = rng.range(9, 48);
            let n = rng.range(1, 96);
            GemmShape::new(m as usize, n as usize, k as usize)
        }
    }
}

/// The deterministic fault plan a `fault_seed` denotes: one to three DMA
/// corruptions on the operand ingress paths, early in the run.
pub fn fault_plan_for(fault_seed: u64) -> FaultPlan {
    let mut rng = Rng64::new(fault_seed);
    let mut plan = FaultPlan::new(fault_seed);
    let n_faults = rng.range(1, 3);
    for _ in 0..n_faults {
        let path = *rng.pick(&[DmaPath::DdrToAm, DmaPath::DdrToSm, DmaPath::GsmToAm]);
        plan = plan.corrupt_dma(path, rng.range(1, 4));
    }
    plan
}

/// Generate the case for iteration `case_index` of a fuzz run.  Regimes
/// rotate round-robin so a run of `N ≥ 4·k` iterations covers every
/// regime at least `k` times; oracles and strategies are drawn from the
/// per-case stream.
pub fn generate_case(run_seed: u64, case_index: u64) -> CaseSpec {
    let mut rng = Rng64::for_case(run_seed, case_index);
    let regime = Regime::ALL[(case_index % 4) as usize];
    // The oracle index drifts by three every full regime rotation so no
    // oracle gets pinned to a small set of regimes.  The effective step
    // per rotation is 4 + 3 = 7: while the oracle count stays coprime
    // with 7, every (regime, oracle) pair is visited within
    // `OracleKind::ALL.len()` regime rotations; a count sharing a factor
    // with the step would pin each regime to a strict subset of oracles
    // forever.  Guarded by
    // `oracle_schedule_covers_every_oracle_regime_pairing`.
    let oracle = OracleKind::ALL
        [((case_index + 3 * (case_index / 4)) % OracleKind::ALL.len() as u64) as usize];
    let shape = if oracle.row().interpret_capped {
        sample_for_interpret(regime, &mut rng)
    } else {
        regime.sample(&mut rng)
    };
    let strategy = *rng.pick(&Strategy::ALL);
    let fault_seed = oracle.fault_seeded().then(|| rng.range(1, u32::MAX as u64));
    CaseSpec {
        seed: rng.next(),
        shape,
        cores: rng.range(1, 8) as usize,
        strategy,
        oracle,
        fault_seed,
    }
}

/// A sampling list of kernel specs for a resolved plan: the main block
/// spec first, then one whole-shape remainder variant per dimension.
/// This is *not* the set a run invokes (the static verifier enumerates
/// that from the plan's [`Walk`]); the perf harness's kernel probes
/// weight their layer table by it and rely on `specs[0]` being the main
/// spec.
pub fn kernel_specs_for_plan(plan: &ChosenStrategy, shape: &GemmShape) -> Vec<KernelSpec> {
    let (m_s, k_a, n_a) = match plan {
        ChosenStrategy::MPar(b) => (b.m_s, b.k_a, b.n_a),
        ChosenStrategy::KPar(b) => (b.m_s, b.k_a, b.n_a),
        ChosenStrategy::TGemm => {
            let t = ftimm::TgemmParams::default();
            (t.m_s, shape.k.min(t.k_g), t.n_a)
        }
    };
    let mut specs = Vec::new();
    let mut push = |m_s: usize, k_a: usize, n_a: usize| {
        if let Ok(spec) = KernelSpec::new(m_s, k_a, n_a) {
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
    };
    let (m_s, k_a, n_a) = (m_s.min(shape.m), k_a.min(shape.k), n_a.min(shape.n));
    push(m_s, k_a, n_a);
    // Remainder tiles in each dimension.
    push(shape.m % m_s.max(1), k_a, n_a);
    push(m_s, shape.k % k_a.max(1), n_a);
    push(m_s, k_a, shape.n % n_a.max(1));
    specs
}

/// Every distinct kernel a run of `plan` invokes on `shape` at `cores`
/// (already clamped to the cluster): the distinct `(height, K length,
/// width)` of the plan's [`Walk`], fetched the way the runners fetch them
/// — so chunk and panel remainders, their combinations and TGEMM's forced
/// tiling are all covered.  Shapes outside the generator's limits are
/// legitimately refused and skipped; admission is the runners' concern.
fn invoked_kernels(
    ft: &FtImm,
    plan: &ChosenStrategy,
    shape: &GemmShape,
    cores: usize,
) -> Vec<Arc<MicroKernel>> {
    let walk = Walk::new(plan, shape.m, shape.n, shape.k, cores);
    let mut seen = HashSet::new();
    let mut kernels = Vec::new();
    for g in walk.groups() {
        for t in walk.tasks(&g) {
            for ks in walk.k_steps(&g, &t) {
                for (_, ms) in walk.row_blocks(&t) {
                    if seen.insert((ms, ks.len(), t.n_kernel)) {
                        kernels.extend(walk.kernel(ft.cache(), &t, ms, ks.len()).ok());
                    }
                }
            }
        }
    }
    kernels
}

/// Statically verify every kernel a case's plan invokes.
fn verify_plan_kernels(cx: &Ctx) -> Result<(), Mismatch> {
    let (ft, case) = (cx.ft, cx.case);
    let plan = ft.plan(&case.shape, case.strategy, case.cores);
    let cores = case.cores.clamp(1, ft.cfg().cores_per_cluster);
    for kernel in invoked_kernels(ft, &plan, &case.shape, cores) {
        let rep = verify_kernel(&kernel);
        if !rep.is_clean() {
            return Err(cx.fail(format!("static verifier: {rep}")));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Case execution: the fixtures the oracles share
// ---------------------------------------------------------------------

/// Host-side operands of one GEMM: a recipe's data, ready to stage.
struct Operands {
    shape: GemmShape,
    a: Vec<f32>,
    b: Vec<f32>,
    c0: Vec<f32>,
}

impl Operands {
    /// The f64 host reference for `C = c0 + A × B`.
    fn f64_oracle(&self) -> Vec<f64> {
        let s = &self.shape;
        sgemm_f64(s.m, s.n, s.k, &self.a, &self.b, &self.c0)
    }
}

/// What one [`Ctx::staged_run`] leaves behind.
struct Run {
    /// The downloaded result.
    c: Vec<f32>,
    /// Simulated seconds of the run.
    seconds: f64,
    /// The operands it ran on.
    ops: Operands,
}

/// One completed job of [`Ctx::run_sharded`].
struct ShardedRun {
    c: Vec<f32>,
    report: Box<ShardedReport>,
    cpu_dispatches: u64,
}

/// The checkpoint grain of the sharded oracles: small enough that the
/// fuzzer's shapes span several checkpoint rows.
fn ckpt_resilience() -> ResilienceConfig {
    ResilienceConfig {
        ckpt_rows: 4,
        ..ResilienceConfig::default()
    }
}

/// The pool a sharded oracle runs its job on — clusters and spill
/// policy — or `None` for the oracles that run no sharded job.
fn sharded_pool(oracle: OracleKind) -> Option<(usize, SpillPolicy)> {
    match oracle {
        OracleKind::ShardFailover => Some((2, SpillPolicy::Never)),
        OracleKind::CpuFailover => Some((1, SpillPolicy::LastResort)),
        OracleKind::CoexecEquivalence => Some((2, SpillPolicy::CoExecute)),
        _ => None,
    }
}

/// The multi-device plan the fault-free sharded run of `case` is placed
/// under — what the engine of its oracle places, on a pool whose
/// clusters are all usable — or `None` for the oracles that run no
/// sharded job.
pub fn sharded_placement(ft: &FtImm, case: &CaseSpec) -> Option<ShardedPlan> {
    let (clusters, spill) = sharded_pool(case.oracle)?;
    let placement: Vec<usize> = (0..clusters).collect();
    let (shape, strategy, cores) = (&case.shape, case.strategy, case.cores);
    let grain = ckpt_resilience().ckpt_rows;
    Some(if spill == SpillPolicy::CoExecute {
        let cpu = coexec_cpu(case.seed);
        ftimm::plan_coexec(ft, shape, strategy, cores, &placement, grain, &cpu, 1.0)
    } else {
        ftimm::plan_sharded(ft, shape, strategy, cores, &placement, grain)
    })
}

/// What every oracle is a function of: the planning context (whose plan
/// and kernel caches persist across a run's cases) and the case.
struct Ctx<'a> {
    ft: &'a FtImm,
    case: &'a CaseSpec,
}

impl Ctx<'_> {
    fn fail(&self, detail: impl Into<String>) -> Mismatch {
        Mismatch {
            case: *self.case,
            detail: detail.into(),
        }
    }

    /// The case's operands, regenerated from its data seed.
    fn operands(&self, zero_c: bool) -> Operands {
        let shape = self.case.shape;
        let (m, n, k) = (shape.m, shape.n, shape.k);
        let s = self.case.seed as u32;
        Operands {
            shape,
            a: fill_matrix(m * k, s.wrapping_add(1)),
            b: fill_matrix(k * n, s.wrapping_add(2)),
            c0: if zero_c {
                vec![0.0f32; m * n]
            } else {
                fill_matrix(m * n, s.wrapping_add(3))
            },
        }
    }

    /// Stage `ops` on a fresh machine in `mode`, run `run` on the staged
    /// problem, download `C`.  `what` names the leg in a failure.
    fn staged_run(
        &self,
        mode: ExecMode,
        ops: Operands,
        what: &str,
        run: impl FnOnce(&mut Machine, &GemmProblem) -> Result<RunReport, FtimmError>,
    ) -> Result<Run, Mismatch> {
        let mut machine = Machine::with_mode(mode);
        let s = &ops.shape;
        let problem = GemmProblem::alloc(&mut machine, s.m, s.n, s.k)
            .and_then(|p| {
                p.a.upload(&mut machine, &ops.a)?;
                p.b.upload(&mut machine, &ops.b)?;
                p.c.upload(&mut machine, &ops.c0)?;
                Ok(p)
            })
            .map_err(|e| self.fail(format!("{what}: staging failed: {e}")))?;
        let report =
            run(&mut machine, &problem).map_err(|e| self.fail(format!("{what} failed: {e}")))?;
        let c = problem
            .c
            .download(&mut machine)
            .map_err(|e| self.fail(format!("{what}: download failed: {e}")))?;
        Ok(Run {
            c,
            seconds: report.seconds,
            ops,
        })
    }

    /// The common leg: `ops` through the one-shot entry point under
    /// `strategy`.
    fn run(&self, mode: ExecMode, strategy: Strategy, ops: Operands) -> Result<Run, Mismatch> {
        self.staged_run(mode, ops, "run", |m, p| {
            self.ft
                .gemm(m, p, strategy, self.case.cores)
                .map(|(r, _)| r)
        })
    }

    /// Two legs that must agree bitwise also agree on the simulated clock.
    fn same_clock(&self, a: (&str, f64), b: (&str, f64)) -> Result<(), Mismatch> {
        if (a.1 - b.1).abs() > 1e-15 {
            return Err(self.fail(format!(
                "simulated time diverges: {} {} vs {} {}",
                a.0, a.1, b.0, b.1
            )));
        }
        Ok(())
    }

    fn near_f64(&self, label: &str, got: &[f32], want: &[f64]) -> Result<(), Mismatch> {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let tol = REL_TOL * w.abs().max(1.0);
            if (g as f64 - w).abs() > tol {
                return Err(self.fail(format!(
                    "{label}: element {i} = {g} vs oracle {w} (tol {tol})"
                )));
            }
        }
        Ok(())
    }

    fn bitwise(&self, label: &str, got: &[f32], want: &[f32]) -> Result<(), Mismatch> {
        if got.len() != want.len() {
            return Err(self.fail(format!("{label}: length {} vs {}", got.len(), want.len())));
        }
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Err(self.fail(format!("{label}: element {i} bits {g} vs {w}")));
            }
        }
        Ok(())
    }

    /// The bitwise oracle of every sharded run: a fault-free
    /// single-cluster *checkpointed* run of the exact pinned plan and ckpt
    /// grain the sharded engine uses.  Its spans, the engine's shards and
    /// the CPU lane's spans all cut M on the walk's unit grid (see
    /// `ftimm::RowGrid`), so all of them are a plain run's bits too.
    fn checkpointed_oracle(&self) -> Result<Run, Mismatch> {
        let (ft, case) = (self.ft, self.case);
        self.staged_run(
            ExecMode::Compiled,
            self.operands(false),
            "oracle run",
            |m, p| {
                let pinned = ft.plan_full(&case.shape, case.strategy, case.cores);
                ft.run_plan_resilient(m, p, &pinned.strategy, case.cores, &ckpt_resilience())
            },
        )
    }

    /// One job over `ops` through a fresh [`ShardedEngine`] of `clusters`
    /// clusters on the oracle's ckpt grid; `kill` is the simulated time
    /// cluster 0 dies at.  The job must be the engine's single terminal
    /// record and must complete.
    fn run_sharded(
        &self,
        ops: &Operands,
        clusters: usize,
        spill: SpillPolicy,
        cpu: CpuConfig,
        kill: Option<f64>,
    ) -> Result<ShardedRun, Mismatch> {
        let case = self.case;
        let cfg = ShardedConfig {
            engine: EngineConfig {
                resilience: ckpt_resilience(),
            },
            spill,
            cpu,
            ..ShardedConfig::default()
        };
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Compiled, clusters);
        let mut eng = ShardedEngine::new(pool, cfg);
        if let Some(at) = kill {
            let plan = FaultPlan::new(case.fault_seed.unwrap_or(1)).kill_cluster(at);
            eng.install_faults(0, &plan);
        }
        let tenant = eng.register_tenant(TenantSpec::new("fuzz", 1));
        let s = &ops.shape;
        let (a, b, c0) = (ops.a.clone(), ops.b.clone(), ops.c0.clone());
        let job = ShardedJob::gemm(s.m, s.n, s.k, a, b, c0, case.strategy, case.cores);
        eng.submit(tenant, job);
        let mut records = eng.run_all(self.ft);
        if records.len() != 1 {
            return Err(self.fail(format!("expected 1 terminal record, got {}", records.len())));
        }
        match records.remove(0).outcome {
            ShardedOutcome::Completed { c, report } => Ok(ShardedRun {
                c,
                report,
                cpu_dispatches: eng.cpu_dispatches(),
            }),
            other => Err(self.fail(format!(
                "sharded run ({clusters} clusters, {spill:?}, kill {kill:?}) not completed: {}",
                other.label()
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// The oracles
// ---------------------------------------------------------------------

/// `ExecMode::Compiled` against the f64 host oracle within mixed tolerance.
fn reference(cx: &Ctx) -> Result<(), Mismatch> {
    let run = cx.run(ExecMode::Compiled, cx.case.strategy, cx.operands(false))?;
    cx.near_f64("compiled vs f64", &run.c, &run.ops.f64_oracle())
}

/// The host lowering (`Compiled`, at the CPU's widest SIMD level) and the
/// hazard-checking interpreter bit-exact, and equal on the simulated
/// clock: pins the lowering to the interpreter's accumulation order.
fn mode_equivalence(cx: &Ctx) -> Result<(), Mismatch> {
    let compiled = cx.run(ExecMode::Compiled, cx.case.strategy, cx.operands(false))?;
    let interp = cx.run(ExecMode::Interpret, cx.case.strategy, cx.operands(false))?;
    cx.bitwise("compiled vs interpret", &compiled.c, &interp.c)?;
    cx.same_clock(
        ("compiled", compiled.seconds),
        ("interpret", interp.seconds),
    )
}

/// Every way into the executor (`run_plan`, `gemm`, `run_plan_resilient`
/// and a profiled, resilient `Executor::dispatch` under the case's
/// strategy) bit-exact, and equal on the simulated clock, for the same
/// resolved plan.
fn entry_equivalence(cx: &Ctx) -> Result<(), Mismatch> {
    type Entry<'a> = &'a dyn Fn(&mut Machine, &GemmProblem) -> Result<RunReport, FtimmError>;
    let (ft, strategy, cores) = (cx.ft, cx.case.strategy, cx.case.cores);
    let plan = ft.plan(&cx.case.shape, strategy, cores);
    let rcfg = ResilienceConfig::default();
    let entries: [(&str, Entry); 4] = [
        ("RunPlan", &|m, p| ft.run_plan(m, p, &plan, cores)),
        ("Gemm", &|m, p| {
            ft.gemm(m, p, strategy, cores).map(|(r, _)| r)
        }),
        ("RunPlanResilient", &|m, p| {
            ft.run_plan_resilient(m, p, &plan, cores, &rcfg)
        }),
        ("Dispatch", &|m, p| {
            Executor::new(ft)
                .strategy(strategy)
                .cores(cores)
                .resilient(rcfg)
                .profiled()
                .dispatch(m, p)?
                .result
        }),
    ];
    let mut baseline: Option<Run> = None;
    for (name, entry) in &entries {
        let run = cx.staged_run(ExecMode::Compiled, cx.operands(false), name, entry)?;
        match &baseline {
            None => baseline = Some(run),
            Some(first) => {
                cx.bitwise(&format!("{name} vs RunPlan"), &run.c, &first.c)?;
                cx.same_clock((name, run.seconds), ("RunPlan", first.seconds))?;
            }
        }
    }
    Ok(())
}

/// Metamorphic: scaling `A` by 2 (exact in binary f32) scales `C`
/// bit-exactly, starting from `C = 0`.
fn scalar_scale(cx: &Ctx) -> Result<(), Mismatch> {
    let plain = cx.run(ExecMode::Compiled, cx.case.strategy, cx.operands(true))?;
    let mut ops = cx.operands(true);
    ops.a.iter_mut().for_each(|x| *x *= 2.0);
    let scaled = cx.run(ExecMode::Compiled, cx.case.strategy, ops)?;
    let doubled: Vec<f32> = plain.c.iter().map(|x| 2.0 * x).collect();
    cx.bitwise("C(2A,B) vs 2C(A,B)", &scaled.c, &doubled)
}

/// Metamorphic: `(Bᵀ×Aᵀ)ᵀ` agrees with `A×B` within tolerance
/// (accumulation orders differ), both starting from `C = 0`.
fn transpose_duality(cx: &Ctx) -> Result<(), Mismatch> {
    let primal = cx.run(ExecMode::Compiled, cx.case.strategy, cx.operands(true))?;
    let (m, n, k) = (cx.case.shape.m, cx.case.shape.n, cx.case.shape.k);
    let (a, b) = (&primal.ops.a, &primal.ops.b);
    // The dual problem: Bᵀ is n×k, Aᵀ is k×m.
    let dual = Operands {
        shape: GemmShape::new(n, m, k),
        a: (0..n * k).map(|i| b[(i % k) * n + i / k]).collect(),
        b: (0..k * m).map(|i| a[(i % m) * k + i / m]).collect(),
        c0: vec![0.0; n * m],
    };
    let dual = cx.run(ExecMode::Compiled, cx.case.strategy, dual)?;
    let c2t: Vec<f32> = (0..m * n).map(|i| dual.c[(i % n) * m + i / n]).collect();
    let want = primal.ops.f64_oracle();
    cx.near_f64("A×B vs f64", &primal.c, &want)?;
    cx.near_f64("(BᵀAᵀ)ᵀ vs f64", &c2t, &want)
}

/// Metamorphic: MPar, KPar and TGEMM plans for the same problem each
/// match the f64 oracle.
fn tiling_invariance(cx: &Ctx) -> Result<(), Mismatch> {
    let mut want: Option<Vec<f64>> = None;
    for strategy in [Strategy::MPar, Strategy::KPar, Strategy::TGemm] {
        let run = cx.run(ExecMode::Compiled, strategy, cx.operands(false))?;
        let want = want.get_or_insert_with(|| run.ops.f64_oracle());
        cx.near_f64(&format!("{} vs f64", strategy.tag()), &run.c, want)?;
    }
    Ok(())
}

/// A seeded fault plan ([`fault_plan_for`]) is injected and the resilient
/// path must still produce an oracle-clean result.
fn fault_recovery(cx: &Ctx) -> Result<(), Mismatch> {
    let faults = fault_plan_for(cx.case.fault_seed.unwrap_or(1));
    let run = cx.staged_run(ExecMode::Compiled, cx.operands(false), "run", |m, p| {
        m.install_faults(&faults);
        Executor::new(cx.ft)
            .strategy(cx.case.strategy)
            .cores(cx.case.cores)
            .resilient(ResilienceConfig::default())
            .run(m, p)
    })?;
    cx.near_f64(
        "resilient-under-faults vs f64",
        &run.c,
        &run.ops.f64_oracle(),
    )
}

/// Planning is deterministic (the same request yields the identical
/// [`ftimm::Plan`] twice, with and without the memo) and
/// plan-then-execute (`run_plan`) is bitwise identical — result and
/// simulated time — to the one-shot entry point (`gemm`).
fn plan_consistency(cx: &Ctx) -> Result<(), Mismatch> {
    let (ft, case) = (cx.ft, cx.case);
    let planner = ftimm::Planner::new(ft.cache(), ft.cfg());
    let fresh = || {
        planner.plan(&case.shape, case.strategy, case.cores, |c| {
            ft.predict_seconds(&case.shape, c, case.cores)
        })
    };
    let (d1, d2) = (fresh(), fresh());
    if d1 != d2 {
        return Err(cx.fail(format!("planning not deterministic: {d1:?} vs {d2:?}")));
    }
    let memo = ft.plan_full(&case.shape, case.strategy, case.cores);
    if memo != d1 {
        return Err(cx.fail(format!(
            "memoised plan diverges from fresh plan: {memo:?} vs {d1:?}"
        )));
    }

    let planned = cx.staged_run(
        ExecMode::Compiled,
        cx.operands(false),
        "run_plan",
        |m, p| ft.run_plan(m, p, &memo.strategy, case.cores),
    )?;
    let mut used = None;
    let one_shot = cx.staged_run(ExecMode::Compiled, cx.operands(false), "gemm", |m, p| {
        let (report, plan) = ft.gemm(m, p, case.strategy, case.cores)?;
        used = Some(plan.strategy);
        Ok(report)
    })?;
    if used != Some(memo.strategy) {
        return Err(cx.fail(format!(
            "one-shot resolved {used:?}, plan-then-execute used {:?}",
            memo.strategy
        )));
    }
    cx.bitwise("plan-then-execute vs one-shot", &planned.c, &one_shot.c)?;
    cx.same_clock(
        ("plan-then-execute", planned.seconds),
        ("one-shot", one_shot.seconds),
    )
}

/// The body of both failover oracles: a fault-free sharded probe on the
/// oracle's pool ([`sharded_pool`]) is bitwise identical to the
/// checkpointed oracle, and so is the same job with cluster 0 killed at
/// a seeded instant inside shard 0's window — via failover to a
/// surviving cluster, or, when none survives and the pool's spill policy
/// admits it, to the CPU lane.
fn failover(cx: &Ctx) -> Result<(), Mismatch> {
    let Some((clusters, spill)) = sharded_pool(cx.case.oracle) else {
        return Err(cx.fail("the oracle runs no sharded job"));
    };
    let oracle = cx.checkpointed_oracle()?;
    let cpu = CpuConfig::default();
    let probe = cx.run_sharded(&oracle.ops, clusters, spill, cpu, None)?;
    cx.bitwise("sharded fault-free vs single-cluster", &probe.c, &oracle.c)?;
    let shard0_s = probe.report.shard_runs[0].seconds;

    let mut rng = Rng64::new(cx.case.fault_seed.unwrap_or(1));
    let frac = 0.1 + 0.8 * (rng.range(0, 1000) as f64 / 1000.0);
    let killed = cx.run_sharded(&oracle.ops, clusters, spill, cpu, Some(shard0_s * frac))?;
    // Death is detected at work-issue points, so a kill time past the
    // shard's last issue can legitimately pass unnoticed; the contract is
    // bitwise identity and a terminal outcome, with or without an actual
    // failover — and when one did reach the CPU lane, a real dispatch.
    let spilled = |f: &ftimm::FailoverEvent| f.to_backend == BackendKind::Cpu;
    if killed.report.failovers.iter().any(spilled) && killed.cpu_dispatches == 0 {
        return Err(cx.fail("failover recorded but the CPU lane never dispatched"));
    }
    cx.bitwise(
        &format!("{} vs single-cluster", cx.case.oracle.tag()),
        &killed.c,
        &oracle.c,
    )
}

/// A sharded two-cluster run with a seeded mid-shard cluster death
/// ([`dspsim::FaultPlan::kill_cluster`]) fails over to the survivor and
/// stays bitwise identical to the fault-free single-cluster checkpointed
/// run of the same pinned plan and ckpt grid, and the submitted job
/// reaches a terminal outcome.
fn shard_failover(cx: &Ctx) -> Result<(), Mismatch> {
    failover(cx)
}

/// The heterogeneous ladder: a single-cluster sharded run under
/// [`SpillPolicy::LastResort`] whose *only* cluster is killed mid-shard
/// must salvage the checkpointed prefix, resume the remainder on the
/// host CPU lane ([`ftimm::CpuBackend`] mirrors the exact DSP blocking
/// walk) and stay bitwise identical to the same checkpointed oracle —
/// across devices, not just clusters.
fn cpu_failover(cx: &Ctx) -> Result<(), Mismatch> {
    failover(cx)
}

/// The autotuner contract: tuning is deterministic under a fixed seed, a
/// tuned plan is never predicted slower than the default and survives
/// the `ftimm-plan-catalog-v2` round-trip bit-for-bit, a fresh context
/// warm-started from the catalog serves it with zero timing simulations,
/// and executing it is bitwise identical to executing the default `Auto`
/// plan (the tuner only adopts [`ftimm::BitSignature`]-equal variants).
///
/// The two tunes run on [`FtImm::sharing_kernels`] contexts over the
/// case's context: each walks its candidates on its own memos, and only
/// kernel generation and pricing are shared, a pure function of the spec
/// and the hardware (kernelgen's
/// `pricing_equals_building_over_the_whole_kernel_space` and
/// `an_evicted_spec_regenerates_an_equal_kernel`).  The warm start is a
/// plain [`FtImm::with_plan_catalog`] context, as a fresh process would
/// build.
fn tuned_plan_equivalence(cx: &Ctx) -> Result<(), Mismatch> {
    let (ft, case) = (cx.ft, cx.case);
    let tcfg = ftimm::TuneConfig { seed: case.seed };
    // Own plan and walk memos per leg: no plan, walk or tuned plan leaks
    // between the legs or into `ft`, and the determinism check compares
    // two full searches.
    let ft1 = ft.sharing_kernels();
    let o1 = ft1.tune(&case.shape, case.cores, &tcfg);
    let ft2 = ft.sharing_kernels();
    let o2 = ft2.tune(&case.shape, case.cores, &tcfg);
    if o1.plan != o2.plan {
        return Err(cx.fail(format!(
            "tuning not deterministic: {:?} vs {:?}",
            o1.plan, o2.plan
        )));
    }
    if o1.plan.simulated_s > o1.default_plan.simulated_s {
        return Err(cx.fail(format!(
            "tuned plan predicted slower than the default: {} vs {}",
            o1.plan.simulated_s, o1.default_plan.simulated_s
        )));
    }

    // One file per call: two threads checking cases of one seed must not
    // delete each other's catalog between its save and its load.
    static CATALOGS: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ftimm-fuzz-catalog-{}-{}-{}.json",
        std::process::id(),
        case.seed,
        CATALOGS.fetch_add(1, Ordering::Relaxed)
    ));
    ft1.save_plan_catalog(&path)
        .map_err(|e| cx.fail(format!("catalog save failed: {e}")))?;
    let warm = FtImm::with_plan_catalog(ft.cfg().clone(), &path)
        .map_err(|e| cx.fail(format!("catalog load failed: {e}")));
    std::fs::remove_file(&path).ok();
    let warm = warm?;
    let replayed = warm.plan_full(&case.shape, Strategy::Auto, case.cores);
    if replayed != o1.plan {
        return Err(cx.fail(format!(
            "catalog round-trip changed the plan: {replayed:?} vs {:?}",
            o1.plan
        )));
    }
    if warm.timing_simulations() != 0 {
        return Err(cx.fail(format!(
            "catalog warm start ran {} timing simulations",
            warm.timing_simulations()
        )));
    }

    let run_plan = |what: &str, plan: &ftimm::Plan| {
        cx.staged_run(ExecMode::Compiled, cx.operands(false), what, |m, p| {
            ft.run_plan(m, p, &plan.strategy, case.cores)
        })
    };
    let tuned = run_plan("tuned run", &o1.plan)?;
    let default = run_plan("default run", &o1.default_plan)?;
    cx.bitwise("tuned plan vs default plan", &tuned.c, &default.c)
}

/// A deterministic per-case CPU model for [`coexec_equivalence`]: host
/// speeds spanning the Fig. 7 crossover, so over a sweep the planner's
/// pick covers DSP-only, mixed and all-CPU splits.
fn coexec_cpu(seed: u64) -> CpuConfig {
    match Rng64::new(seed).range(0, 2) {
        0 => CpuConfig::default(),
        1 => CpuConfig {
            clock_hz: 8.8e9,
            ..CpuConfig::default()
        },
        _ => CpuConfig {
            clock_hz: 2.2e12,
            ddr_bw: 42.6e12,
            barrier_s: 8e-9,
            ..CpuConfig::default()
        },
    }
}

/// The co-execution contract: a two-cluster sharded run under
/// [`SpillPolicy::CoExecute`] (CPU lane dispatched as a planned peer,
/// split chosen by [`ftimm::choose_coexec_split`] from both backend cost
/// models) is bitwise identical to the checkpointed oracle, the
/// co-execution planner is deterministic, the chosen split is never
/// predicted slower than the best single backend (both degenerate
/// candidates are always searched), and a plan that placed a CPU shard
/// actually dispatches the lane.
fn coexec_equivalence(cx: &Ctx) -> Result<(), Mismatch> {
    let (ft, case) = (cx.ft, cx.case);
    let oracle = cx.checkpointed_oracle()?;
    let cpu = coexec_cpu(case.seed);
    let grain = ckpt_resilience().ckpt_rows;

    let placed = || sharded_placement(ft, case);
    let (Some((clusters, spill)), Some(splan), Some(replay)) =
        (sharded_pool(case.oracle), placed(), placed())
    else {
        return Err(cx.fail("the oracle runs no sharded job"));
    };
    if splan != replay {
        return Err(cx.fail(format!(
            "co-execution planning not deterministic: {splan:?} vs {replay:?}"
        )));
    }
    let choice = ftimm::choose_coexec_split(
        ft,
        &case.shape,
        case.strategy,
        case.cores,
        clusters,
        grain,
        &cpu,
        1.0,
    );
    if choice.predicted_s > choice.dsp_only_s || choice.predicted_s > choice.cpu_only_s {
        return Err(cx.fail(format!(
            "chosen split predicted slower than a single backend: {choice:?}"
        )));
    }

    let run = cx.run_sharded(&oracle.ops, clusters, spill, cpu, None)?;
    if !run.report.failovers.is_empty() {
        return Err(cx.fail("fault-free co-executed run recorded a failover"));
    }
    let planned_cpu = splan.shards.iter().any(|s| s.backend == BackendKind::Cpu);
    if planned_cpu && run.cpu_dispatches == 0 {
        return Err(cx.fail("plan placed a CPU shard but the lane never dispatched"));
    }
    cx.bitwise("coexec vs single-cluster", &run.c, &oracle.c)
}

/// Execute one case against its oracle.  `Ok(())` means conformant.
pub fn check_case(ft: &FtImm, case: &CaseSpec) -> Result<(), Mismatch> {
    let cx = Ctx { ft, case };
    verify_plan_kernels(&cx)?;
    (case.oracle.row().check)(&cx)
}

// ---------------------------------------------------------------------
// Fuzz driver
// ---------------------------------------------------------------------

/// Aggregate outcome of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Cases executed per regime, indexed parallel to [`Regime::ALL`].
    pub regime_counts: [usize; 4],
    /// Cases executed per oracle, indexed parallel to [`OracleKind::ALL`].
    pub oracle_counts: [usize; OracleKind::ALL.len()],
    /// Shrunk mismatches, in discovery order.
    pub mismatches: Vec<Mismatch>,
}

impl FuzzSummary {
    /// Render the per-regime coverage table `bench conform` prints.
    pub fn coverage_table(&self) -> String {
        let mut s = String::from("regime       cases\n");
        for (i, r) in Regime::ALL.iter().enumerate() {
            s.push_str(&format!("{:<12} {}\n", r.tag(), self.regime_counts[i]));
        }
        s.push_str("\noracle             cases\n");
        for (i, o) in OracleKind::ALL.iter().enumerate() {
            s.push_str(&format!("{:<18} {}\n", o.tag(), self.oracle_counts[i]));
        }
        s
    }
}

/// Run `iters` seeded cases.  `progress` is invoked after each case with
/// `(index, &case, passed)`.  Mismatches are shrunk before being recorded.
pub fn run_fuzz(
    ft: &FtImm,
    run_seed: u64,
    iters: u64,
    mut progress: impl FnMut(u64, &CaseSpec, bool),
) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for i in 0..iters {
        let case = generate_case(run_seed, i);
        summary.regime_counts[Regime::classify(&case.shape) as usize] += 1;
        summary.oracle_counts[case.oracle as usize] += 1;
        match check_case(ft, &case) {
            Ok(()) => progress(i, &case, true),
            Err(m) => {
                progress(i, &case, false);
                summary.mismatches.push(shrink(ft, &m));
            }
        }
    }
    summary
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Budget of re-executions one shrink is allowed.
const SHRINK_BUDGET: usize = 48;

/// Greedily shrink a failing case: halve dimensions, drop cores to 1 and
/// simplify the strategy while the failure (any failure of the same
/// oracle) persists.  Returns the minimal case and its detail.
pub fn shrink(ft: &FtImm, failing: &Mismatch) -> Mismatch {
    let mut best = failing.clone();
    let mut budget = SHRINK_BUDGET;
    loop {
        let c = best.case;
        let mut candidates: Vec<CaseSpec> = Vec::new();
        let mut with_shape = |m: usize, n: usize, k: usize| {
            if (m, n, k) != (c.shape.m, c.shape.n, c.shape.k) && m > 0 && n > 0 && k > 0 {
                let mut x = c;
                x.shape = GemmShape::new(m, n, k);
                candidates.push(x);
            }
        };
        with_shape(c.shape.m / 2, c.shape.n, c.shape.k);
        with_shape(c.shape.m, c.shape.n / 2, c.shape.k);
        with_shape(c.shape.m, c.shape.n, c.shape.k / 2);
        with_shape(c.shape.m.saturating_sub(1), c.shape.n, c.shape.k);
        with_shape(c.shape.m, c.shape.n, c.shape.k.saturating_sub(1));
        if c.cores > 1 {
            let mut x = c;
            x.cores = 1;
            candidates.push(x);
        }
        if !matches!(
            c.strategy,
            Strategy::MPar | Strategy::KPar | Strategy::TGemm
        ) {
            for s in [Strategy::MPar, Strategy::KPar, Strategy::TGemm] {
                let mut x = c;
                x.strategy = s;
                candidates.push(x);
            }
        }
        let mut advanced = false;
        for cand in candidates {
            if budget == 0 {
                return best;
            }
            budget -= 1;
            if let Err(m) = check_case(ft, &cand) {
                best = m;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::HwConfig;

    fn ft() -> FtImm {
        FtImm::new(HwConfig::default())
    }

    #[test]
    fn generated_cases_are_deterministic_and_cover_regimes() {
        let mut counts = [0usize; 4];
        for i in 0..16 {
            let a = generate_case(7, i);
            let b = generate_case(7, i);
            assert_eq!(a, b);
            let r = Regime::classify(&a.shape);
            counts[Regime::ALL.iter().position(|&x| x == r).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn oracle_schedule_covers_every_oracle_regime_pairing() {
        let mut pairs = std::collections::HashSet::new();
        // Full coverage needs one regime rotation per oracle; run four
        // cycles for slack.
        for i in 0..(16 * ORACLES.len() as u64) {
            let c = generate_case(7, i);
            assert_eq!(c.fault_seed.is_some(), c.oracle.fault_seeded(), "{c}");
            pairs.insert((c.oracle, i % 4));
        }
        assert_eq!(
            pairs.len(),
            ORACLES.len() * 4,
            "schedule must visit every (oracle, regime) pair"
        );
        // The drift formula only mixes when the effective step (7) stays
        // coprime to the oracle count — guard the invariant explicitly.
        assert_ne!(
            ORACLES.len() % 7,
            0,
            "the oracle count must stay coprime with the rotation step"
        );
    }

    #[test]
    fn interpret_sampler_preserves_regime_under_budget() {
        let mut rng = Rng64::new(11);
        for regime in Regime::ALL {
            for _ in 0..100 {
                let s = sample_for_interpret(regime, &mut rng);
                assert_eq!(Regime::classify(&s), regime, "{s}");
                assert!((s.m * s.n * s.k) as u64 <= INTERPRET_MAX_MNK, "{s}");
            }
        }
    }

    #[test]
    fn scalar_scale_catches_a_seeded_corruption() {
        // Sanity that the harness *can* fail: corrupt the comparison by
        // scaling with a non-power-of-two and expect at least the bitwise
        // oracle to object for some element (3·x ≠ 2·(1.5·x) exactly is
        // false — so instead check a plain wrong-answer path: compare a
        // doubled C against an undoubled run).
        let ft = ft();
        let case = CaseSpec {
            seed: 3,
            shape: GemmShape::new(8, 8, 8),
            cores: 1,
            strategy: Strategy::MPar,
            oracle: OracleKind::ScalarScale,
            fault_seed: None,
        };
        let cx = Ctx {
            ft: &ft,
            case: &case,
        };
        let plain = cx.run(ExecMode::Compiled, case.strategy, cx.operands(true));
        let mut ops = cx.operands(true);
        ops.a.iter_mut().for_each(|x| *x *= 2.0);
        let scaled = cx.run(ExecMode::Compiled, case.strategy, ops);
        let (plain, scaled) = (plain.unwrap(), scaled.unwrap());
        assert!(cx
            .bitwise("c2 vs c1-unscaled", &scaled.c, &plain.c)
            .is_err());
    }

    #[test]
    fn shrink_reduces_a_synthetic_failure() {
        // An always-failing predicate shrinks to the smallest shape the
        // predicate still covers; emulate with an impossible tolerance by
        // injecting a fault without the resilient path… simplest: a case
        // whose oracle is FaultRecovery but whose fault plan corrupts more
        // transfers than retries allow is hard to arrange determinis-
        // tically, so instead assert shrink() keeps a passing-case
        // mismatch unchanged (no candidate reproduces it).
        let ft = ft();
        let case = CaseSpec {
            seed: 3,
            shape: GemmShape::new(8, 8, 8),
            cores: 1,
            strategy: Strategy::MPar,
            oracle: OracleKind::Reference,
            fault_seed: None,
        };
        let fake = Mismatch {
            case,
            detail: "synthetic".into(),
        };
        let shrunk = shrink(&ft, &fake);
        assert_eq!(shrunk.case, case);
        assert_eq!(shrunk.detail, "synthetic");
    }

    /// The verifier's kernel set against the run itself: on a fresh
    /// context a timing run of the plan generates exactly as many kernels
    /// as the verifier fetched, and after the verifier has fetched its
    /// set the run generates none.
    fn assert_verified_set_is_the_invoked_set(
        plan: ChosenStrategy,
        shape: GemmShape,
        cores: usize,
    ) {
        let run = |ft: &FtImm| {
            let mut m = Machine::with_mode(ExecMode::Timing);
            let p = GemmProblem::alloc(&mut m, shape.m, shape.n, shape.k).unwrap();
            ft.run_plan(&mut m, &p, &plan, cores).unwrap();
        };
        let alone = ft();
        run(&alone);
        let invoked = alone.cache().stats().misses;

        let ft = ft();
        let verified = invoked_kernels(&ft, &plan, &shape, cores);
        assert_eq!(verified.len() as u64, invoked, "{plan:?} on {shape}");
        assert_eq!(ft.cache().stats().misses, invoked);
        run(&ft);
        assert_eq!(
            ft.cache().stats().misses,
            invoked,
            "{plan:?} on {shape}: the run invoked a kernel the verifier never saw"
        );
    }

    #[test]
    fn verifier_sees_every_kernel_the_walk_invokes() {
        // A chunk remainder (m_a % m_s) combined with a GSM-panel
        // remainder (k_g % k_a) and an edge panel in N: shapes no
        // whole-shape remainder reaches.
        let blocks = ftimm::MparBlocks {
            n_g: 48,
            k_g: 40,
            m_a: 20,
            n_a: 32,
            k_a: 16,
            m_s: 6,
        };
        let shape = GemmShape::new(45, 70, 90);
        assert_verified_set_is_the_invoked_set(ChosenStrategy::MPar(blocks), shape, 4);
        let ft = ft();
        let specs: Vec<KernelSpec> = invoked_kernels(&ft, &ChosenStrategy::MPar(blocks), &shape, 4)
            .iter()
            .map(|k| k.spec)
            .collect();
        // (20 % 6) × (40 % 16) × (48 % 32): two remainders at once.
        assert!(
            specs.contains(&KernelSpec::new(2, 8, 16).unwrap()),
            "{specs:?}"
        );

        // TGEMM runs its forced `k_u = 1` kernels, not the auto-tuned
        // ones for the same specs.
        let shape = GemmShape::new(20, 100, 40);
        assert_verified_set_is_the_invoked_set(ChosenStrategy::TGemm, shape, 4);
        let kernels = invoked_kernels(&ft, &ChosenStrategy::TGemm, &shape, 4);
        assert!(!kernels.is_empty());
        for k in &kernels {
            assert_eq!(k.spec.n_a, ftimm::TgemmParams::default().n_a);
            assert!(k.blocks.iter().all(|b| b.k_u == 1), "{:?}", k.blocks);
        }
    }

    #[test]
    fn kernel_specs_for_plan_cover_remainders() {
        let ft = ft();
        let shape = GemmShape::new(100, 33, 70);
        let plan = ft.plan(&shape, Strategy::MPar, 4);
        let specs = kernel_specs_for_plan(&plan, &shape);
        assert!(!specs.is_empty());
        for s in &specs {
            assert!(s.n_a <= kernelgen::MAX_NA);
        }
    }
}
