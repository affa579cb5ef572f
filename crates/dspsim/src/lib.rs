//! # dspsim
//!
//! A deterministic simulator of one GPDSP cluster of the FT-m7032
//! heterogeneous processor (§II of the CLUSTER 2022 ftIMM paper):
//! eight VLIW DSP cores with software-managed SM/AM scratchpads, a shared
//! 6 MB GSM, per-core DMA engines and a 42.6 GB/s DDR partition.
//!
//! The simulator is *functional* — generated kernels are interpreted
//! bit-exactly against simulated register files and scratchpads — and
//! *cycle-approximate*: every core carries a compute clock and a DMA-engine
//! clock, transfers cost `setup + bytes/bandwidth` with deterministic
//! bandwidth sharing, and double-buffering overlap emerges from the clock
//! calculus (`done[i] = max(dma_done[i], done[i-1]) + compute[i]`).
//!
//! Nothing here depends on wall-clock time or iteration order of hash
//! containers; identical inputs give identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod dma;
pub mod error;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod mem;
pub mod minijson;
pub mod profiler;
pub mod rng;
pub mod stats;

pub use crate::core::Core;
pub use config::HwConfig;
pub use dma::{transfer_time, Dma2d, DmaPath, DmaTicket};
pub use error::SimError;
pub use exec::{run_program, ExecReport, KernelBindings};
pub use fault::{
    ClusterFailure, CoreFailure, CpuFailure, CpuSlowdown, DmaFault, DmaFaultKind, FaultPlan,
    MemFault, MemTarget,
};
pub use machine::{Cluster, ExecMode, Machine, DDR_CAPACITY};
pub use mem::MemRegion;
pub use profiler::{
    phase_of_path, EventKind, Phase, PhaseProfile, Profiler, SimEvent, Span,
    DEFAULT_PROFILE_CAPACITY, PHASE_COUNT, PROFILE_CORES,
};
pub use rng::Rng64;
pub use stats::{BackendKind, CoreStats, FaultStats, RunReport};
