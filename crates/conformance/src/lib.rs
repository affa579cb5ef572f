//! Differential conformance tooling for the FT-m7032 GEMM stack.
//!
//! Three pieces, one goal — catching any divergence between what the
//! kernel generator emits, what the simulator executes, and what the
//! mathematical reference says the answer is:
//!
//! * [`verifier`] — a static lint pass over [`ftimm_isa::Program`] that
//!   re-checks issue-width rules, unit-class membership, and RAW/WAW
//!   hazards against the latency table, independently of the simulator's
//!   runtime checks.
//! * [`fuzzer`] — a seeded differential fuzzer that executes randomized
//!   shapes through every execution mode, every executor entry point and
//!   a set of metamorphic oracles, and shrinks failures to minimal
//!   repros.
//! * [`corpus`] — JSON persistence for shrunk failures, replayed as a
//!   deterministic regression suite (`tests/fixtures/conformance/`).
//!
//! See DESIGN.md §7 for the architecture and the fixture schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No oracle, codec or lint grows back into one long function.
#![warn(clippy::too_many_lines)]

pub mod corpus;
pub mod fuzzer;
pub mod regime;
pub mod verifier;

pub use corpus::{case_from_json, case_to_json, replay_dir, write_fixture, SCHEMA};
pub use dspsim::Rng64;
pub use fuzzer::{
    check_case, fault_plan_for, generate_case, run_fuzz, sample_for_interpret, sharded_placement,
    shrink, CaseSpec, FuzzSummary, Mismatch, OracleKind,
};
pub use regime::Regime;
pub use verifier::{verify_kernel, verify_program, VerifyReport, Violation, ViolationKind};
