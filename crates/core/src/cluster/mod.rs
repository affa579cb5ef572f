//! Multi-cluster sharded GEMM service: cluster-level fault domains with
//! checkpointed shard failover.
//!
//! The FT-m7032 the paper targets carries **four GPDSP clusters** plus a
//! 16-core CPU front end (§II); the rest of this crate simulates exactly
//! one cluster.  This module is the front end: a [`ClusterPool`] of N
//! independent [`dspsim::Machine`]s — each a *fault domain* with its own
//! [`dspsim::FaultPlan`] and per-core [`CircuitBreaker`]s —
//! driven by the [`ShardedEngine`], the crate's one job engine (a pool
//! of one cluster is the single-machine case):
//!
//! * **Planning** — one GEMM is split across clusters by the
//!   multi-device plan IR ([`crate::plan::sharded`]): the full shape is
//!   planned once through the LRU plan cache, and the timing walk ranks
//!   (bit-equal variant, M-stripe shard count) pairs (largest shard +
//!   serialised launch overhead, the work-group tradeoff of the DPU
//!   partitioner).
//! * **Health** — each cluster runs a monotone healthy → degraded → dead
//!   state machine ([`ClusterHealth`]) fed by breaker saturation and
//!   injected cluster death; placement is load-aware and
//!   prefers healthy clusters.
//! * **Failover** — a shard whose cluster dies mid-run resumes from its
//!   last row-span checkpoint on a surviving cluster, and the merged
//!   result is bitwise identical to a fault-free plain single-cluster
//!   run of the same plan (shard boundaries and salvage points sit on
//!   the pinned walk's unit grid, the plan and core count are pinned — see
//!   [`crate::plan::sharded`]).
//! * **Admission control** — jobs of unregistered tenants are rejected
//!   at submit; lowest-priority jobs are shed first under degraded
//!   capacity, and every submitted [`JobId`] gets exactly one
//!   terminal [`ShardedOutcome`].
//!
//! See DESIGN.md §4.3 for the full model and invariants.

pub mod health;
pub mod pool;
pub mod sharded;
pub mod tenant;

pub use health::{BreakerState, CircuitBreaker, ClusterHealth, HealthMonitor};
pub use pool::{ClusterNode, ClusterPool};
pub use sharded::{
    EngineConfig, FailoverEvent, JobId, ShardRun, ShardedConfig, ShardedEngine, ShardedJob,
    ShardedOutcome, ShardedRecord, ShardedReport, SpillPolicy, CPU_LANE,
};
pub use tenant::{TenantId, TenantSpec, TenantTable};
