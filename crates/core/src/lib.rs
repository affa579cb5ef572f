//! # ftimm
//!
//! A reproduction of **ftIMM** — efficient irregular-shaped matrix-matrix
//! multiplication on the multi-core DSPs of the FT-m7032 heterogeneous
//! processor (CLUSTER 2022) — on top of the `dspsim` hardware model and
//! the `kernelgen` micro-kernel generator.
//!
//! The library provides:
//! * [`tgemm`]: the traditional fixed-block baseline (Algorithm 1);
//! * [`mpar`]: ftIMM's M-dimension parallelisation (Algorithm 4);
//! * [`kpar`]: ftIMM's K-dimension parallelisation with GSM reduction
//!   (Algorithm 5);
//! * [`walk`]: the blocking walk those three and the host mirror all
//!   enumerate;
//! * [`adjust`]: dynamic adjusting — CMR-driven block sizes (Eq. 1–4);
//! * [`plan`]: the Plan IR — cost-model planner, strategy selection and
//!   the memoizing plan cache every entry point routes through;
//! * [`roofline`]: the roofline bound used in the paper's Fig 5;
//! * [`api::FtImm`]: the library context (caches, planner, tuner) and
//!   its one-call shorthands;
//! * [`exec::Executor`]: the one door that runs a problem staged on a
//!   [`dspsim::Machine`] — strategy or pinned plan, cores, resilience
//!   and phase-level profiling — returning an [`ExecRun`];
//! * [`cluster::ShardedEngine`]: the one door that runs host buffers, on a
//!   pool of one or more clusters and the CPU lane;
//! * [`resilience`]: the ABFT recovery loop an executor runs under.
//!
//! ```
//! use dspsim::{ExecMode, Machine};
//! use ftimm::{FtImm, GemmProblem, Strategy};
//!
//! let ft = FtImm::new(dspsim::HwConfig::default());
//! let mut machine = Machine::with_mode(ExecMode::Compiled);
//! let p = GemmProblem::alloc(&mut machine, 512, 32, 256).unwrap();
//! let a = ftimm::reference::fill_matrix(512 * 256, 1);
//! let b = ftimm::reference::fill_matrix(256 * 32, 2);
//! p.a.upload(&mut machine, &a).unwrap();
//! p.b.upload(&mut machine, &b).unwrap();
//! p.c.upload(&mut machine, &vec![0.0; 512 * 32]).unwrap();
//! let (report, _plan) = ft.gemm(&mut machine, &p, Strategy::Auto, 8).unwrap();
//! assert!(report.gflops() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod adjust;
pub mod api;
pub mod backend;
pub mod cluster;
pub mod error;
pub mod exec;
pub mod invoke;
pub mod kpar;
pub mod matrix;
pub mod mpar;
pub mod plan;
pub mod reference;
pub mod resilience;
pub mod roofline;
pub mod shape;
pub mod tgemm;
pub mod walk;

pub use adjust::{
    adjust_kpar, adjust_mpar, cmr_f1, cmr_f2, cmr_f3, cmr_f4, initial_kpar, initial_mpar,
    ChosenStrategy,
};
pub use api::{FtImm, Strategy, TuningStats};
pub use backend::{
    predict_cpu_stripe, BackendPrediction, CpuBackend, CpuLaneOutcome, CpuStripeRun,
};
pub use cluster::{
    BreakerState, CircuitBreaker, ClusterHealth, ClusterPool, EngineConfig, FailoverEvent, JobId,
    ShardRun, ShardedConfig, ShardedEngine, ShardedJob, ShardedOutcome, ShardedRecord,
    ShardedReport, SpillPolicy, TenantId, TenantSpec, CPU_LANE,
};
pub use error::FtimmError;
pub use exec::{
    chrome_trace_json, chrome_trace_json_clusters, chrome_trace_json_hetero, profile_json,
    validate_problem, ExecRun, Executor,
};
pub use invoke::invoke_kernel;
pub use kpar::KparBlocks;
pub use matrix::{DdrMatrix, GemmProblem};
pub use mpar::MparBlocks;
pub use plan::{
    analytic_seconds, bit_signature, catalog_from_json, catalog_json, choose_coexec_split,
    choose_strategy, load_catalog, plan_coexec, plan_json, plan_sharded, save_catalog,
    BitSignature, CatalogLoad, CoexecChoice, Plan, PlanCache, PlanCatalog, PlanKey, PlanOrigin,
    Planner, Shard, ShardOrigin, ShardedPlan, StrategyKind, TuneConfig, TuneOutcome, Tuner,
    DEFAULT_PLAN_CACHE_CAPACITY, PLAN_CATALOG_SCHEMA,
};
pub use resilience::ResilienceConfig;
pub use shape::{GemmShape, IrregularType, BLOCK_ALIGN, SUFFICIENTLY_LARGE, TINY_K_MAX};
pub use tgemm::TgemmParams;
pub use walk::{RowGrid, Walk};
