//! # bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§V).  Each module exposes `compute()` returning structured
//! rows and `render()` producing the printable table; the `bench` binary's
//! subcommands print them, the repo benchmark (`perf/`) times them, and the
//! integration tests assert the paper's qualitative shapes on them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cli;
pub mod cluster;
pub mod coexec;
pub mod common;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod hetero;
pub mod kernel_exec;
pub mod planner;
pub mod report;
pub mod tables;
pub mod tune;
pub mod workload_eval;

pub use common::Harness;
