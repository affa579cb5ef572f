//! Bounded caches: [`BoundedLru`], the one least-recently-used map with
//! lifetime counters ([`CacheStats`]) behind both the generated-kernel
//! cache ([`KernelCache`]) and `ftimm`'s plan cache.
//!
//! The kernel cache is bounded — least recently used entry out, capacity
//! 0 disables — because a cold planning stream generates a dozen new
//! kernels per shape without end.  A generated kernel is priced, not
//! built: its block plan and closed-form cycle count are a few hundred
//! bytes.  Only a kernel whose program was asked for (Interpret mode, the
//! static verifier, the printers) carries the tens of KB of its VLIW
//! program, and only one the host ran carries its lowering (a few
//! dozen bytes); both live, and are evicted, with the kernel.  An evicted
//! kernel regenerates identically: generation is a pure function of
//! `(spec, tiling, cfg)`.

use crate::modsched::ScheduleMemo;
use crate::{GenError, KernelSpec, MicroKernel};
use dspsim::HwConfig;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default entry bound, sized on the benchmark's workloads.  The
/// serving, sharded and conformance workloads generate at most ~700
/// kernels per context and never evict.  A stream of never-repeated
/// shapes (`cold_plan_timing`) generates ~12 new kernels per shape and
/// revisits older ones at geometrically distributed distances (mean
/// ~3000 kernels): over its first ~2000 shapes it regenerates 19 / 13 /
/// 6 / 0.5 kernels per shape at 1024 / 2048 / 4096 / 8192 entries, so
/// this bound trades ~6 regenerations per shape for a bounded footprint:
/// ~45 KB per entry (a ~200 MiB ceiling) applies only to kernels whose
/// program was built; a timing-only stream builds none.
pub const DEFAULT_KERNEL_CACHE_CAPACITY: usize = 4096;

/// Lock a mutex, recovering from poisoning.  Only for state that every
/// update leaves valid at every step — here, maps of immutable,
/// deterministically computed entries and their counters — so what a
/// panicking thread left behind is still a valid state.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Snapshot of a bounded cache's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the caller then computes and inserts).
    pub misses: u64,
    /// Entries evicted to the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Entry bound (`0` disables caching).
    pub capacity: usize,
}

/// A thread-safe map of at most `capacity` entries: inserting a new key
/// into a full map evicts the least recently used entry, and capacity 0
/// stores nothing (every lookup misses).  Values are cloned out, so they
/// are cheap handles (`Arc`s) or small `Copy` records.
pub struct BoundedLru<K, V> {
    capacity: usize,
    state: Mutex<Lru<K, V>>,
}

/// The mutable half: entries stamped with the logical time of their last
/// use, and the same stamps in ascending order so the least recently
/// used key is the first one.
struct Lru<K, V> {
    map: HashMap<K, (u64, V)>,
    order: BTreeMap<u64, K>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedLru<K, V> {
    /// An empty map bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        BoundedLru {
            capacity,
            state: Mutex::new(Lru {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Look a value up, making it the most recently used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut guard = lock(&self.state);
        let s = &mut *guard;
        let Some((stamp, value)) = s.map.get_mut(key) else {
            s.misses += 1;
            return None;
        };
        s.hits += 1;
        // A blocking walk asks for the same kernel many times in a row;
        // the most recent entry needs no reordering.
        if *stamp != s.clock {
            s.clock += 1;
            s.order.remove(stamp);
            s.order.insert(s.clock, key.clone());
            *stamp = s.clock;
        }
        Some(value.clone())
    }

    /// Store `value` under `key` as the most recently used entry,
    /// replacing any value the key held; a new key in a full map first
    /// evicts the least recently used entry.
    pub fn insert(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut guard = lock(&self.state);
        let s = &mut *guard;
        if let Some((stamp, _)) = s.map.get(&key) {
            s.order.remove(stamp);
        } else if s.map.len() >= self.capacity {
            if let Some((_, coldest)) = s.order.pop_first() {
                s.map.remove(&coldest);
                s.evictions += 1;
            }
        }
        s.clock += 1;
        s.order.insert(s.clock, key.clone());
        s.map.insert(key, (s.clock, value));
    }

    /// Whether `key` is held; counts as neither a hit nor a miss.
    pub fn contains(&self, key: &K) -> bool {
        lock(&self.state).map.contains_key(key)
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        lock(&self.state).map.len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let s = lock(&self.state);
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            len: s.map.len(),
            capacity: self.capacity,
        }
    }
}

type Key = (KernelSpec, Option<(usize, usize)>);

/// A thread-safe, bounded LRU cache of generated micro-kernels.
pub struct KernelCache {
    kernels: BoundedLru<Key, Arc<MicroKernel>>,
    /// The hardware, plus the schedules and block-group prices shared by
    /// every kernel generated here; they depend on the tiling alone, so
    /// they outlive evictions.
    memo: Arc<ScheduleMemo>,
}

impl KernelCache {
    /// New cache for a hardware configuration, with the default bound.
    pub fn new(cfg: HwConfig) -> Self {
        Self::with_capacity(cfg, DEFAULT_KERNEL_CACHE_CAPACITY)
    }

    /// A cache holding at most `capacity` kernels (`0` disables caching:
    /// every lookup generates afresh, which stays correct because
    /// generation is pure).
    pub fn with_capacity(cfg: HwConfig, capacity: usize) -> Self {
        KernelCache {
            kernels: BoundedLru::new(capacity),
            memo: Arc::new(ScheduleMemo::new(cfg)),
        }
    }

    /// The hardware configuration kernels are generated for.
    pub fn cfg(&self) -> &HwConfig {
        self.memo.cfg()
    }

    /// Get or generate the auto-tuned kernel for a spec.
    pub fn get(&self, spec: KernelSpec) -> Result<Arc<MicroKernel>, GenError> {
        self.get_inner(spec, None)
    }

    /// Get or generate a kernel with a forced tiling (TGEMM's fixed
    /// micro-kernel).
    pub fn get_forced(
        &self,
        spec: KernelSpec,
        m_u: usize,
        k_u: usize,
    ) -> Result<Arc<MicroKernel>, GenError> {
        self.get_inner(spec, Some((m_u, k_u)))
    }

    fn get_inner(
        &self,
        spec: KernelSpec,
        forced: Option<(usize, usize)>,
    ) -> Result<Arc<MicroKernel>, GenError> {
        let key = (spec, forced);
        if let Some(k) = self.kernels.get(&key) {
            return Ok(k);
        }
        // Generate outside the lock: generation is pure and deterministic,
        // so a racing duplicate is harmless and identical.  Errors return
        // here and are never cached.
        let kernel = Arc::new(match forced {
            None => MicroKernel::generate_with(spec, &self.memo)?,
            Some((m_u, k_u)) => MicroKernel::generate_forced_with(spec, m_u, k_u, &self.memo)?,
        });
        self.kernels.insert(key, Arc::clone(&kernel));
        Ok(kernel)
    }

    /// Number of cached kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Lifetime counters and current occupancy (lookups that failed to
    /// generate count as misses).
    pub fn stats(&self) -> CacheStats {
        self.kernels.stats()
    }

    /// Complete VLIW programs built for this cache's kernels (on first
    /// use of [`MicroKernel::program`]; `0` after timing-only work).
    pub fn programs_built(&self) -> u64 {
        self.memo.programs_built.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_shared_instances() {
        let cache = KernelCache::new(HwConfig::default());
        let spec = KernelSpec::new(6, 64, 96).unwrap();
        let a = cache.get(spec).unwrap();
        let b = cache.get(spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn programs_are_built_once_on_first_use() {
        let cache = KernelCache::new(HwConfig::default());
        let kernel = cache.get(KernelSpec::new(6, 64, 96).unwrap()).unwrap();
        cache.get_forced(kernel.spec, 6, 1).unwrap();
        assert_eq!(cache.programs_built(), 0, "generation only prices");
        let program = kernel.program();
        assert!(std::ptr::eq(program, kernel.program()));
        assert_eq!(program.cycles(), kernel.cycles);
        assert_eq!(cache.programs_built(), 1);
    }

    #[test]
    fn forced_and_tuned_are_distinct_entries() {
        let cache = KernelCache::new(HwConfig::default());
        let spec = KernelSpec::new(6, 64, 96).unwrap();
        let tuned = cache.get(spec).unwrap();
        let forced = cache.get_forced(spec, 6, 1).unwrap();
        assert_eq!(cache.len(), 2);
        // Both compute the same shape.
        assert_eq!(tuned.spec, forced.spec);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = KernelCache::new(HwConfig::default());
        let bad = KernelSpec {
            m_s: 6,
            k_a: 64,
            n_a: 200,
        };
        assert!(cache.get(bad).is_err());
        assert!(cache.get(bad).is_err());
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 0));
    }

    fn spec(m_s: usize) -> KernelSpec {
        KernelSpec::new(m_s, 32, 32).unwrap()
    }

    #[test]
    fn bound_holds_and_the_least_recently_used_kernel_goes_first() {
        let cache = KernelCache::with_capacity(HwConfig::default(), 3);
        for m_s in 1..=3 {
            cache.get(spec(m_s)).unwrap();
        }
        // Touch 1: the coldest entry is now 2.
        cache.get(spec(1)).unwrap();
        for m_s in 4..=8 {
            cache.get(spec(m_s)).unwrap();
            assert!(cache.len() <= 3, "bound broken at m_s = {m_s}");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 8, 5));
        assert_eq!((stats.len, stats.capacity), (3, 3));
        // 6, 7, 8 are resident; 1 outlived 2 and 3 but not 4..=8.
        for m_s in 6..=8 {
            cache.get(spec(m_s)).unwrap();
        }
        assert_eq!(cache.stats().hits, 4);
        cache.get(spec(1)).unwrap();
        assert_eq!(cache.stats().misses, 9);

        // Recency, not insertion order, picks the victim.
        let cache = KernelCache::with_capacity(HwConfig::default(), 2);
        cache.get(spec(1)).unwrap();
        cache.get_forced(spec(1), 1, 1).unwrap();
        cache.get(spec(1)).unwrap();
        cache.get(spec(2)).unwrap(); // evicts the forced entry
        cache.get(spec(1)).unwrap();
        assert_eq!(cache.stats().hits, 2);
        cache.get_forced(spec(1), 1, 1).unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn an_evicted_spec_regenerates_an_equal_kernel() {
        let cache = KernelCache::with_capacity(HwConfig::default(), 1);
        let first = cache.get(spec(5)).unwrap();
        let forced = cache.get_forced(spec(5), 2, 2).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        for (old, new) in [
            (first, cache.get(spec(5)).unwrap()),
            (forced, cache.get_forced(spec(5), 2, 2).unwrap()),
        ] {
            assert!(!Arc::ptr_eq(&old, &new), "must have been regenerated");
            assert_eq!(old.spec, new.spec);
            assert_eq!(old.blocks, new.blocks);
            assert_eq!(old.cycles, new.cycles);
            assert_eq!(old.program(), new.program());
        }
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn zero_capacity_disables_caching_but_stays_correct() {
        let cache = KernelCache::with_capacity(HwConfig::default(), 0);
        let a = cache.get(spec(4)).unwrap();
        let b = cache.get(spec(4)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "capacity 0 must not cache");
        assert_eq!(a.program(), b.program());
        assert_eq!(a.cycles, b.cycles);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 0));
        assert_eq!((stats.len, stats.capacity), (0, 0));
        assert!(cache.is_empty());
    }
}
