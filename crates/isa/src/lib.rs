//! # ftimm-isa
//!
//! A typed model of the VLIW instruction set of one DSP core of the
//! FT-m7032 prototype processor, as described in *Optimizing
//! Irregular-Shaped Matrix-Matrix Multiplication on Multi-Core DSPs*
//! (CLUSTER 2022).
//!
//! The real FT-m7032 toolchain is proprietary; this crate defines the subset
//! of the architecture that the paper's micro-kernels exercise, with
//! documented, self-consistent semantics:
//!
//! * eleven issue slots per cycle — five scalar-side units (two scalar
//!   load/store, two scalar FMAC, one SIEU) plus the control unit, and six
//!   vector-side units (two vector load/store, three vector FMAC, one
//!   vector misc unit);
//! * 64 scalar registers of 64 bits and 64 vector registers of 32 × f32
//!   (each of the 16 VPEs contributes one 64-bit lane pair);
//! * the broadcast path from the scalar unit to the vector unit can move at
//!   most two f32 values per cycle ([`Opcode::Svbcast2`]), which is the
//!   bottleneck the paper identifies for kernels with `n_a ≤ 32`.
//!
//! Programs are structured ([`Program`] = straight-line sections and
//! counted loops) rather than using literal branch targets; the `SBR`
//! instruction is still materialised in loop bodies so that pipeline tables
//! and issue-slot pressure match the paper's Tables I–III.
//!
//! The crate is `#![forbid(unsafe_code)]` and has no dependency on the
//! simulator: `dspsim` interprets these programs, `kernelgen` emits them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bundle;
pub mod error;
pub mod inst;
pub mod latency;
pub mod opcode;
pub mod pipeline;
pub mod program;
pub mod reg;
pub mod scoreboard;
pub mod unit;

pub use addr::{AddrExpr, BufId, MemSpace};
pub use bundle::Bundle;
pub use error::IsaError;
pub use inst::{Instruction, Operand, RegList, MAX_REG_OPERANDS};
pub use latency::LatencyTable;
pub use opcode::Opcode;
pub use pipeline::{Occupancy, PipelineTable};
pub use program::{LoopLevel, Program, Section};
pub use reg::{Reg, SReg, VReg};
pub use scoreboard::{Hazard, Scoreboard};
pub use unit::{Unit, UnitClass};

/// Number of f32 lanes in one architectural vector register
/// (16 VPEs × 2 × f32 per 64-bit lane).
pub const VECTOR_LANES: usize = 32;

/// Number of scalar registers per core.
pub const NUM_SREGS: usize = 64;

/// Number of vector registers per core (64 × 64-bit registers per VPE,
/// one 64-bit slice per VPE forming each architectural vector register).
pub const NUM_VREGS: usize = 64;

/// Maximum scalar-side instructions per VLIW bundle.
pub const MAX_SCALAR_SLOTS: usize = 5;

/// Maximum vector-side instructions per VLIW bundle.
pub const MAX_VECTOR_SLOTS: usize = 6;
