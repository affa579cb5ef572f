//! A bounded, shared memo of resolved plans.
//!
//! The ROADMAP's serving scenario repeats shapes constantly; planning a
//! repeated shape should be a lookup, not two timing-model simulations.
//! The cache keys on everything planning depends on — shape, core
//! count, and the *requested* [`Strategy`] (an `Auto` plan and a forced
//! `MPar` plan for the same shape are different entries) — and evicts
//! least-recently-used entries beyond its capacity, so a shape-diverse
//! workload cannot grow it without bound.  It is the kernel cache's
//! [`BoundedLru`]; its lock is never held across a simulation.

use crate::plan::Plan;
use crate::{GemmShape, Strategy};
use kernelgen::BoundedLru;

/// Default entry bound: a few hundred distinct (shape, cores, strategy)
/// workloads — far beyond any benchmark here — in well under a MiB.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Everything a cached plan depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Problem shape.
    pub shape: GemmShape,
    /// Cores requested.
    pub cores: usize,
    /// The *requested* strategy (not the resolved one).
    pub strategy: Strategy,
}

/// Bounded LRU memo of `(shape, cores, strategy) → Plan` (capacity 0
/// disables it: every lookup misses, nothing is stored).
pub type PlanCache = BoundedLru<PlanKey, Plan>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChosenStrategy;

    fn key(m: usize) -> PlanKey {
        PlanKey {
            shape: GemmShape::new(m, 32, 32),
            cores: 8,
            strategy: Strategy::Auto,
        }
    }

    fn plan(m: usize) -> Plan {
        Plan::pinned(GemmShape::new(m, 32, 32), 8, ChosenStrategy::TGemm)
    }

    #[test]
    fn hits_misses_and_evictions_are_counted() {
        let cache = PlanCache::new(2);
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), plan(1));
        cache.insert(key(2), plan(2));
        assert_eq!(cache.get(&key(1)), Some(plan(1)));
        // Key 2 is now the LRU entry; inserting a third evicts it.
        cache.insert(key(3), plan(3));
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(cache.get(&key(1)), Some(plan(1)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 2, 1));
        assert_eq!((stats.len, stats.capacity), (2, 2));
    }

    #[test]
    fn reinserting_a_key_replaces_without_eviction() {
        let cache = PlanCache::new(2);
        cache.insert(key(1), plan(1));
        cache.insert(key(1), plan(7));
        assert_eq!(cache.get(&key(1)), Some(plan(7)));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache.insert(key(1), plan(1));
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn distinct_strategies_are_distinct_entries() {
        let cache = PlanCache::new(8);
        let auto = key(1);
        let forced = PlanKey {
            strategy: Strategy::MPar,
            ..auto
        };
        cache.insert(auto, plan(1));
        assert_eq!(cache.get(&forced), None);
        cache.insert(forced, plan(2));
        assert_eq!(cache.get(&auto), Some(plan(1)));
        assert_eq!(cache.get(&forced), Some(plan(2)));
    }
}
