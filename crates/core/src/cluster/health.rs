//! Cluster-level health state machine.
//!
//! Each cluster in a [`super::ClusterPool`] is a *fault domain*: its own
//! machine, fault plan and per-core circuit breakers.  This
//! module holds the [`CircuitBreaker`] each core's faults feed and
//! reduces those per-core signals to one coarse health state the
//! placement and shedding policies can act on:
//!
//! * **Healthy** — the cluster takes shards normally.
//! * **Degraded** — the cluster still works but is showing distress
//!   (enough of its cores' circuit breakers open).  Placement prefers
//!   healthy clusters and uses degraded ones only when needed.
//! * **Dead** — the whole fault domain failed (an injected
//!   [`dspsim::FaultPlan::kill_cluster`] fired, surfacing as
//!   [`dspsim::SimError::ClusterFailed`]).  Dead is terminal: nothing is
//!   ever scheduled there again; only host-side DDR reads survive for
//!   checkpoint salvage.
//!
//! Transitions are monotone (healthy → degraded → dead): on a
//! deterministic simulator a cluster that degraded under one workload
//! would degrade again under the same workload, so "recovering" the
//! coarse state would only make placement flap.  Fine-grained recovery
//! still happens *below* this layer — individual breakers half-open and
//! close again — it just no longer upgrades the cluster's coarse state.

/// Coarse health of one cluster fault domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClusterHealth {
    /// Fully serviceable.
    #[default]
    Healthy,
    /// Serviceable but showing distress; placed only after healthy
    /// clusters.
    Degraded,
    /// Permanently failed; never placed again.
    Dead,
}

impl ClusterHealth {
    /// Whether shards may still be placed on the cluster.
    pub fn is_usable(self) -> bool {
        self != ClusterHealth::Dead
    }

    /// Stable lower-case name (for reports and traces).
    pub fn name(self) -> &'static str {
        match self {
            ClusterHealth::Healthy => "healthy",
            ClusterHealth::Degraded => "degraded",
            ClusterHealth::Dead => "dead",
        }
    }
}

/// Open (non-admitting) circuit breakers at which a cluster degrades
/// (breaker saturation).
pub const DEGRADE_OPEN_BREAKERS: usize = 2;

/// Simulated seconds an open [`CircuitBreaker`] waits before it
/// half-opens.
pub const BREAKER_COOLDOWN_S: f64 = 1e-3;

/// The per-cluster state machine: folds observations into the monotone
/// health lattice.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthMonitor {
    health: ClusterHealth,
}

impl HealthMonitor {
    /// A fresh monitor (healthy).
    pub fn new() -> Self {
        HealthMonitor::default()
    }

    /// Current health.
    pub fn health(&self) -> ClusterHealth {
        self.health
    }

    /// Fold in the cluster's count of open core breakers; returns the
    /// (possibly advanced) health.  Never moves backwards.
    pub fn observe(&mut self, open_breakers: usize) -> ClusterHealth {
        if open_breakers >= DEGRADE_OPEN_BREAKERS {
            self.advance_to(ClusterHealth::Degraded);
        }
        self.health
    }

    /// The fault domain died ([`dspsim::SimError::ClusterFailed`]).
    pub fn mark_dead(&mut self) {
        self.advance_to(ClusterHealth::Dead);
    }

    fn advance_to(&mut self, to: ClusterHealth) {
        self.health = self.health.max(to);
    }
}

/// Circuit-breaker state for one fault source (a DSP core or the CPU
/// lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: consecutive faults are counted.
    Closed,
    /// Tripped: counts against its cluster's health (a core) or keeps
    /// work off the lane (the CPU) until the cooldown expires.
    Open,
    /// Cooldown expired: the next dispatch is the probe that closes the
    /// breaker on success or re-opens it on another fault.
    HalfOpen,
}

/// Breaker bookkeeping on the simulated clock: Closed counts
/// consecutive faults and opens at a threshold, Open waits out a
/// cooldown, HalfOpen admits one probe whose outcome either closes or
/// re-opens the breaker.
///
/// [`super::ShardedEngine`] keeps one per physical core (they feed
/// [`HealthMonitor`] through [`super::ClusterPool::observe`]) and one
/// for the CPU lane ([`crate::CpuBackend::breaker`]).
#[derive(Debug, Clone, Copy)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_faults: u32,
    opened_at: f64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new()
    }
}

impl CircuitBreaker {
    /// A fresh breaker: Closed with no faults on record.
    pub fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_faults: 0,
            opened_at: 0.0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive faults recorded since the last success (resets on
    /// [`CircuitBreaker::record_success`]).
    pub fn consecutive_faults(&self) -> u32 {
        self.consecutive_faults
    }

    /// The source was implicated in a transient fault at simulated `now`.
    pub fn record_fault(&mut self, threshold: u32, now: f64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_faults += 1;
                if self.consecutive_faults >= threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                }
            }
            // A fault during the half-open probe re-opens immediately.
            BreakerState::HalfOpen | BreakerState::Open => {
                self.state = BreakerState::Open;
                self.opened_at = now;
            }
        }
    }

    /// The source completed work without a fault.
    pub fn record_success(&mut self) {
        self.consecutive_faults = 0;
        self.state = BreakerState::Closed;
    }

    /// Move Open → HalfOpen once the cooldown has elapsed.
    pub fn tick(&mut self, now: f64, cooldown_s: f64) {
        if self.state == BreakerState::Open && now - self.opened_at >= cooldown_s {
            self.state = BreakerState::HalfOpen;
        }
    }

    /// Whether the source may take regular work right now (only when
    /// Closed).
    pub fn admits_work(&self) -> bool {
        self.state == BreakerState::Closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_are_monotone() {
        let mut m = HealthMonitor::new();
        assert_eq!(m.health(), ClusterHealth::Healthy);
        // Below the threshold: stays healthy.
        assert_eq!(m.observe(1), ClusterHealth::Healthy);
        // Breaker saturation degrades.
        assert_eq!(m.observe(2), ClusterHealth::Degraded);
        assert!(m.health().is_usable());
        // A calm observation does not upgrade back.
        assert_eq!(m.observe(0), ClusterHealth::Degraded);
        m.mark_dead();
        assert_eq!(m.health(), ClusterHealth::Dead);
        // Dead is terminal.
        assert_eq!(m.observe(0), ClusterHealth::Dead);
        assert!(!m.health().is_usable());
    }
}
