//! # kernelgen
//!
//! Automatic generation of software-pipelined VLIW assembly micro-kernels
//! for the simulated FT-m7032 DSP core — the core mechanism of ftIMM
//! (§IV-A of the CLUSTER 2022 paper).
//!
//! Given a kernel shape `(m_s, k_a, n_a)` the generator:
//! 1. enumerates `(m_u, k_u)` tilings that fit the register files
//!    ([`tiling`]),
//! 2. modulo-schedules the steady-state loop against the unit/latency
//!    model ([`modsched`]) — the 2-broadcasts-per-cycle ceiling of the
//!    scalar unit reproduces the paper's 66.7 % upper bound for
//!    `n_a ≤ 32`,
//! 3. prices each candidate in closed form — a block group costs
//!    `prologue + (k_iters + 1)·II + epilogue`, the overheads memoised
//!    per tiling, depth tail and `k_iters` class — and keeps the one with
//!    the fewest total cycles, and
//! 4. builds the winner's complete [`ftimm_isa::Program`] (C-panel
//!    prologue, pipelined body, depth remainder, accumulator reduction
//!    and store) on first use of [`MicroKernel::program`] only.
//!
//! Generated kernels are *executed* by `dspsim`'s interpreter (bit-exact,
//! hazard-checked) or on the host by their one lowering ([`compiled`],
//! handed out by the [`KernelExecutor`]), which mirrors the interpreter's
//! accumulation order at `hostsimd`'s widest SIMD level; their cycle
//! count doubles as the analytic timing model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod build;
pub mod cache;
pub mod compiled;
pub mod exec;
pub mod linesched;
pub mod modsched;
pub mod regmap;
pub mod spec;
pub mod tiling;

pub use analysis::KernelReport;
pub use build::{build, BlockPlan, MicroKernel};
pub use cache::{BoundedLru, CacheStats, KernelCache, DEFAULT_KERNEL_CACHE_CAPACITY};
pub use compiled::CompiledKernel;
pub use exec::{HostTier, KernelExecutor};
pub use hostsimd::simd_level;
pub use linesched::LineScheduler;
pub use regmap::RegMap;
pub use spec::{GenError, KernelLayout, KernelSpec, MAX_NA};
pub use tiling::{candidates, upper_bound_efficiency, Tiling};
