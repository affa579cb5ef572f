//! Simulator error type.

use std::fmt;

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An access fell outside a memory region.
    OutOfBounds {
        /// Region name ("SM", "AM", "GSM", "DDR").
        region: &'static str,
        /// Byte offset of the access.
        offset: u64,
        /// Access length in bytes.
        len: u64,
        /// Region capacity in bytes.
        capacity: u64,
    },
    /// An instruction broke a scoreboard timing rule (the generated
    /// schedule has a hazard).
    Hazard {
        /// Which rule: a read before its producer retired (RAW) or a write
        /// retiring no later than one in flight (WAW).
        hazard: ftimm_isa::Hazard,
        /// Cycle the offending instruction issued in.
        cycle: u64,
        /// Its mnemonic.
        mnemonic: &'static str,
    },
    /// A kernel's buffer bindings cannot be honoured: an instruction the
    /// interpreter cannot execute in this context (e.g. a kernel touching
    /// a space with no bound buffer), or a scratchpad view that is not
    /// word-aligned or overlaps the view it is paired with.
    BadBinding {
        /// Description of what was missing.
        detail: String,
    },
    /// A bump allocation exceeded the region capacity.
    AllocFailure {
        /// Region name.
        region: &'static str,
        /// Requested bytes.
        requested: u64,
        /// Remaining bytes.
        available: u64,
    },
    /// ISA-level validation error surfaced during execution.
    Isa(ftimm_isa::IsaError),
    /// An injected fault made a DMA transfer hang past the watchdog.
    DmaTimeout {
        /// Physical core whose engine issued the transfer.
        core: usize,
        /// The path the transfer used.
        path: crate::DmaPath,
        /// Simulated time at which the watchdog fired.
        at: f64,
    },
    /// A core failed permanently (injected at a scheduled simulated time).
    CoreFailed {
        /// The physical core that died.
        core: usize,
        /// Simulated time of the failure.
        at: f64,
    },
    /// The whole cluster failed permanently (injected via
    /// [`crate::FaultPlan::kill_cluster`]): every core is gone, only
    /// host-side DDR reads survive.
    ClusterFailed {
        /// Simulated time of the failure.
        at: f64,
    },
    /// Data failed an integrity check (raised by recovery layers when
    /// corruption survives their retry budget).
    DataCorrupt {
        /// Region name the corruption was detected in.
        region: &'static str,
        /// Byte offset of (or near) the corrupted data.
        offset: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds {
                region,
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access [{offset}, {}) out of bounds for {region} (capacity {capacity})",
                offset + len
            ),
            SimError::Hazard {
                hazard,
                cycle,
                mnemonic,
            } => write!(f, "hazard: {mnemonic} in cycle {cycle}: {hazard}"),
            SimError::BadBinding { detail } => write!(f, "bad binding: {detail}"),
            SimError::AllocFailure {
                region,
                requested,
                available,
            } => write!(
                f,
                "allocation of {requested} B failed in {region} ({available} B free)"
            ),
            SimError::Isa(e) => write!(f, "isa error: {e}"),
            SimError::DmaTimeout { core, path, at } => write!(
                f,
                "dma timeout: core {core} transfer over {path:?} hung (watchdog at {at:.6e}s)"
            ),
            SimError::CoreFailed { core, at } => {
                write!(f, "core {core} failed permanently at {at:.6e}s")
            }
            SimError::ClusterFailed { at } => {
                write!(f, "cluster failed permanently at {at:.6e}s")
            }
            SimError::DataCorrupt { region, offset } => {
                write!(f, "data corruption detected in {region} near byte {offset}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ftimm_isa::IsaError> for SimError {
    fn from(e: ftimm_isa::IsaError) -> Self {
        SimError::Isa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Hazard {
            hazard: ftimm_isa::Hazard::Raw {
                reg: ftimm_isa::Reg::V(ftimm_isa::VReg::new(3).unwrap()),
                ready: 12,
            },
            cycle: 10,
            mnemonic: "VFMULAS32",
        };
        let s = e.to_string();
        assert!(s.contains("RAW on V3"), "{s}");
        assert!(s.contains("cycle 10"));
        assert!(s.contains("cycle 12"));
    }

    #[test]
    fn isa_errors_convert() {
        let e: SimError = ftimm_isa::IsaError::BadRegister {
            index: 99,
            vector: true,
        }
        .into();
        assert!(matches!(e, SimError::Isa(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
