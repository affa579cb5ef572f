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

/// Warm-start `cache` from catalog `entries`: inserts in order
/// ([`BoundedLru::extend`]), so an over-capacity load evicts exactly as
/// that many [`BoundedLru::insert`]s do.  Returns how many of `entries`
/// are held afterwards.
pub fn preload(
    cache: &PlanCache,
    entries: impl ExactSizeIterator<Item = (PlanKey, Plan)> + Clone,
) -> usize {
    cache.extend(entries.clone());
    entries.filter(|(k, _)| cache.contains(k)).count()
}

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
    fn over_capacity_preload_evicts_like_inserts() {
        let cache = PlanCache::new(3);
        cache.insert(key(0), plan(0));
        // Preload 5 entries into capacity 3: the resident entry and
        // preloads #1 and #2 fall out, one eviction each — the one rule
        // every insert follows.
        let batch: Vec<_> = (1..=5).map(|m| (key(m), plan(m))).collect();
        let kept = preload(&cache, batch.iter().copied());
        assert_eq!(kept, 3);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 3, "one eviction per displaced entry");
        assert_eq!(stats.len, 3);
        assert_eq!(cache.get(&key(0)), None);
        assert_eq!(cache.get(&key(1)), None);
        for m in 3..=5 {
            assert_eq!(cache.get(&key(m)), Some(plan(m)), "entry {m}");
        }
    }

    #[test]
    fn preload_replaces_duplicates_and_respects_zero_capacity() {
        let cache = PlanCache::new(4);
        cache.insert(key(1), plan(9));
        let kept = preload(&cache, [(key(1), plan(1)), (key(2), plan(2))].into_iter());
        assert_eq!(kept, 2);
        assert_eq!(cache.get(&key(1)), Some(plan(1)));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().len, 2);

        let disabled = PlanCache::new(0);
        assert_eq!(preload(&disabled, [(key(1), plan(1))].into_iter()), 0);
        assert_eq!(disabled.stats().len, 0);
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
