//! # cpublas
//!
//! The Fig-7 comparator: OpenBLAS-style SGEMM on the 16-core ARMv8 CPU of
//! FT-m7032, as an analytic performance model ([`model`]) of OpenBLAS
//! (Goto algorithm: packing, MR×NR kernel, M-split threading) on the
//! modelled CPU ([`config`]: 281.6 GFLOPS peak, shared 42.6 GB/s DDR),
//! used for the efficiency comparison against ftIMM and to price the
//! CPU lane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod model;

pub use config::CpuConfig;
pub use model::{predict, CpuPrediction};
