//! Library error type.

use dspsim::SimError;
use std::fmt;

/// Errors from the ftIMM library.
#[derive(Debug)]
pub enum FtimmError {
    /// Simulator failure (bounds, hazards, allocation).
    Sim(dspsim::SimError),
    /// Kernel generation failure.
    Gen(kernelgen::GenError),
    /// Transient failure of the host CPU fallback backend (injected via
    /// [`dspsim::FaultPlan::fail_cpu`]): the dispatched span's work is
    /// lost, but the backend itself survives and may be retried — or the
    /// job shed — by the caller's policy.
    CpuFault(String),
    /// Problem-level validation failure.
    Invalid(String),
}

impl FtimmError {
    /// Whether this error is a *transient hardware fault* the resilience
    /// layers retry or route around: an injected DMA timeout, a core
    /// failure, or detected data corruption.  Caller errors (invalid
    /// problems, capacity) are not transient.
    pub fn is_transient_fault(&self) -> bool {
        matches!(
            self,
            FtimmError::Sim(
                SimError::DmaTimeout { .. }
                    | SimError::CoreFailed { .. }
                    | SimError::DataCorrupt { .. }
            )
        )
    }

    /// Whether this error is a whole-cluster death (injected via
    /// [`dspsim::FaultPlan::kill_cluster`]).  Not transient: the fault
    /// domain is gone and no retry on the same machine can succeed — the
    /// sharded engine recovers by failing the shard over to a surviving
    /// cluster instead.
    pub fn is_cluster_death(&self) -> bool {
        matches!(self, FtimmError::Sim(SimError::ClusterFailed { .. }))
    }

    /// The physical core this error implicates, if it carries one.
    pub fn implicated_core(&self) -> Option<usize> {
        match self {
            FtimmError::Sim(
                SimError::DmaTimeout { core, .. } | SimError::CoreFailed { core, .. },
            ) => Some(*core),
            _ => None,
        }
    }
}

impl fmt::Display for FtimmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtimmError::Sim(e) => write!(f, "simulator error: {e}"),
            FtimmError::Gen(e) => write!(f, "kernel generation error: {e}"),
            FtimmError::CpuFault(s) => write!(f, "cpu backend fault: {s}"),
            FtimmError::Invalid(s) => write!(f, "invalid problem: {s}"),
        }
    }
}

impl std::error::Error for FtimmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtimmError::Sim(e) => Some(e),
            FtimmError::Gen(e) => Some(e),
            FtimmError::CpuFault(_) | FtimmError::Invalid(_) => None,
        }
    }
}

impl From<dspsim::SimError> for FtimmError {
    fn from(e: dspsim::SimError) -> Self {
        FtimmError::Sim(e)
    }
}

impl From<kernelgen::GenError> for FtimmError {
    fn from(e: kernelgen::GenError) -> Self {
        FtimmError::Gen(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: FtimmError = kernelgen::GenError::NaTooLarge { n_a: 100, max: 96 }.into();
        assert!(e.to_string().contains("100"));
        assert!(std::error::Error::source(&e).is_some());
        let e = FtimmError::Invalid("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = FtimmError::CpuFault("span 3 lost".into());
        assert!(e.to_string().contains("cpu backend fault"));
        assert!(matches!(e, FtimmError::CpuFault(_)));
        assert!(!e.is_transient_fault() && !e.is_cluster_death());
        assert!(std::error::Error::source(&e).is_none());
    }
}
