//! A pool of independent cluster fault domains.

use super::health::{CircuitBreaker, ClusterHealth, HealthMonitor};
use dspsim::{ExecMode, FaultPlan, HwConfig, Machine};

/// One cluster fault domain: a private machine (own DDR partition, own
/// simulated clocks, own installed [`FaultPlan`]) plus the supervisor
/// state that watches it — per-core circuit breakers and the health
/// monitor.
#[derive(Debug)]
pub struct ClusterNode {
    /// The simulated cluster.
    pub machine: Machine,
    /// Per-physical-core circuit breakers; open ones count towards the
    /// cluster's health.
    pub breakers: Vec<CircuitBreaker>,
    /// Health state machine.
    pub monitor: HealthMonitor,
}

impl ClusterNode {
    fn new(cfg: &HwConfig, mode: ExecMode) -> Self {
        ClusterNode {
            machine: Machine::new(cfg.clone(), mode),
            breakers: vec![CircuitBreaker::new(); cfg.cores_per_cluster],
            monitor: HealthMonitor::new(),
        }
    }

    /// Open (non-admitting) breakers right now.
    pub fn open_breakers(&self) -> usize {
        self.breakers.iter().filter(|b| !b.admits_work()).count()
    }

    /// Latest simulated time over the node's alive cores — the load
    /// signal placement sorts on.
    pub fn load_s(&self) -> f64 {
        self.machine.elapsed()
    }
}

/// N independent cluster fault domains, each with its own machine,
/// fault plan and breakers.  The pool only owns state; the
/// scheduling logic lives in [`super::ShardedEngine`].
#[derive(Debug)]
pub struct ClusterPool {
    nodes: Vec<ClusterNode>,
}

impl ClusterPool {
    /// Build a pool of `clusters` machines in the given mode.
    pub fn new(cfg: &HwConfig, mode: ExecMode, clusters: usize) -> Self {
        ClusterPool {
            nodes: (0..clusters.max(1))
                .map(|_| ClusterNode::new(cfg, mode))
                .collect(),
        }
    }

    /// Number of clusters (dead ones included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool has no clusters (never true — `new` clamps to 1).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Install a fault plan into one cluster's machine (each fault
    /// domain gets its own plan; plans compose per machine).
    pub fn install_faults(&mut self, cluster: usize, plan: &FaultPlan) {
        self.nodes[cluster].machine.install_faults(plan);
    }

    /// A node by index.
    pub fn node(&self, cluster: usize) -> &ClusterNode {
        &self.nodes[cluster]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, cluster: usize) -> &mut ClusterNode {
        &mut self.nodes[cluster]
    }

    /// Current health of one cluster.
    pub fn health(&self, cluster: usize) -> ClusterHealth {
        self.nodes[cluster].monitor.health()
    }

    /// Clusters still usable (not dead).
    pub fn usable(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.monitor.health().is_usable())
            .count()
    }

    /// Mark a cluster's fault domain dead (its machine raised
    /// [`dspsim::SimError::ClusterFailed`]).
    pub fn mark_dead(&mut self, cluster: usize) {
        self.nodes[cluster].monitor.mark_dead();
    }

    /// Fold the cluster's open breakers into its health state; returns
    /// the result.
    pub fn observe(&mut self, cluster: usize) -> ClusterHealth {
        let node = &mut self.nodes[cluster];
        let open = node.open_breakers();
        node.monitor.observe(open)
    }

    /// Usable clusters ordered for placement: healthy before degraded,
    /// then by load (earliest simulated clock first), then by index.
    ///
    /// The ordering is **fully deterministic** so failover traces replay
    /// identically run to run: equal loads always fall through to the
    /// index tie-break.  Loads are compared after normalising `-0.0` to
    /// `+0.0` — [`f64::total_cmp`] orders `-0.0 < +0.0`, so without the
    /// normalisation two idle clusters could be ordered by the sign of
    /// a zero their clock arithmetic happened to produce instead of by
    /// index.
    pub fn placement(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].monitor.health().is_usable())
            .collect();
        let load = |i: usize| {
            let l = self.nodes[i].load_s();
            if l == 0.0 {
                0.0
            } else {
                l
            }
        };
        order.sort_by(|&a, &b| {
            let (na, nb) = (&self.nodes[a], &self.nodes[b]);
            na.monitor
                .health()
                .cmp(&nb.monitor.health())
                .then(load(a).total_cmp(&load(b)))
                .then(a.cmp(&b))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_builds_independent_machines() {
        let pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, 3);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.usable(), 3);
        assert_eq!(pool.placement(), vec![0, 1, 2]);
    }

    #[test]
    fn dead_clusters_leave_placement() {
        let mut pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, 3);
        pool.mark_dead(1);
        assert_eq!(pool.usable(), 2);
        assert_eq!(pool.placement(), vec![0, 2]);
        assert_eq!(pool.health(1), ClusterHealth::Dead);
    }

    #[test]
    fn placement_prefers_lightly_loaded_clusters() {
        let mut pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, 2);
        // Advance cluster 0's clock so cluster 1 looks idle.
        pool.node_mut(0).machine.stall(0, 1e-3);
        assert_eq!(pool.placement(), vec![1, 0]);
    }

    #[test]
    fn equal_loads_tie_break_by_index_deterministically() {
        let mut pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, 4);
        // Identical nonzero loads on every cluster: placement must fall
        // through to the index tie-break, and repeat calls must agree
        // (failover traces replay identically).
        for ci in 0..4 {
            pool.node_mut(ci).machine.stall(0, 2.5e-4);
        }
        assert_eq!(pool.placement(), vec![0, 1, 2, 3]);
        assert_eq!(pool.placement(), pool.placement());
        // A strictly lighter cluster still wins over a lower index.
        let mut pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, 3);
        pool.node_mut(0).machine.stall(0, 2e-4);
        pool.node_mut(1).machine.stall(0, 2e-4);
        assert_eq!(pool.placement(), vec![2, 0, 1]);
    }

    #[test]
    fn degraded_clusters_sort_after_healthy_ones() {
        let mut pool = ClusterPool::new(&HwConfig::default(), ExecMode::Timing, 2);
        // Saturate cluster 0's breakers so it degrades, then give cluster
        // 1 a heavy load: health still dominates the ordering.
        for b in &mut pool.node_mut(0).breakers[..2] {
            for _ in 0..3 {
                b.record_fault(3, 0.0);
            }
        }
        pool.node_mut(1).machine.stall(0, 5e-2);
        assert_eq!(pool.observe(0), ClusterHealth::Degraded);
        assert_eq!(pool.observe(1), ClusterHealth::Healthy);
        assert_eq!(pool.placement(), vec![1, 0]);
    }
}
