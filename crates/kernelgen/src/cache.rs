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
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
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

/// An index of a `Vec`'s items by key, for collections whose items hold
/// their own keys: open addressing over item positions, linearly probed
/// and at most half full, so a key costs a few bytes of index where a
/// `HashMap` from keys would hold every key a second time.  The owner
/// hashes and compares: lookups take the key's hash and an `is(position)`
/// test, and calls that move positions take `hash_at(position)`, the
/// hash of the key of the item there.  At most `u32::MAX - 1` items.
#[derive(Debug, Default)]
pub struct SlotIndex {
    /// Item positions, [`FREE`] in an empty bucket; empty, or a power of
    /// two at least twice `len`.
    buckets: Vec<u32>,
    len: usize,
}

/// An empty [`SlotIndex`] bucket.
const FREE: u32 = u32::MAX;

impl SlotIndex {
    /// The position of the item `is` accepts among those whose keys hash
    /// to `hash`.
    pub fn find(&self, hash: u64, is: impl Fn(usize) -> bool) -> Option<usize> {
        self.bucket(hash, is).map(|b| self.buckets[b] as usize)
    }

    /// The bucket holding the position `is` accepts.
    fn bucket(&self, hash: u64, is: impl Fn(usize) -> bool) -> Option<usize> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut b = hash as usize & mask;
        loop {
            match self.buckets[b] {
                FREE => return None,
                at if is(at as usize) => return Some(b),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// Index the item at position `at`, whose key hashes to `hash` and is
    /// not indexed yet, doubling the buckets first if they would be over
    /// half full.
    pub fn insert(&mut self, hash: u64, at: usize, hash_at: impl Fn(usize) -> u64) {
        if 2 * (self.len + 1) > self.buckets.len() {
            let size = (2 * (self.len + 1)).next_power_of_two().max(16);
            let old = std::mem::replace(&mut self.buckets, vec![FREE; size]);
            for p in old.into_iter().filter(|&p| p != FREE) {
                self.place(hash_at(p as usize), p);
            }
        }
        self.place(hash, at as u32);
        self.len += 1;
    }

    /// Put position `at` in the first free bucket from its key's home.
    fn place(&mut self, hash: u64, at: u32) {
        let mask = self.buckets.len() - 1;
        let mut b = hash as usize & mask;
        while self.buckets[b] != FREE {
            b = (b + 1) & mask;
        }
        self.buckets[b] = at;
    }

    /// Drop the position `is` accepts among those whose keys hash to
    /// `hash`, and close the gap behind it so that every other position
    /// stays reachable from its key's home; returns the position.
    pub fn remove(
        &mut self,
        hash: u64,
        is: impl Fn(usize) -> bool,
        hash_at: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        let mut hole = self.bucket(hash, is)?;
        let at = std::mem::replace(&mut self.buckets[hole], FREE);
        self.len -= 1;
        let mask = self.buckets.len() - 1;
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let p = self.buckets[b];
            if p == FREE {
                return Some(at as usize);
            }
            // `p` stays unless the hole lies on its probe path, i.e. its
            // home is not cyclically within `(hole, b]`.
            let home = hash_at(p as usize) as usize & mask;
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.buckets[hole] = p;
                self.buckets[b] = FREE;
                hole = b;
            }
        }
    }

    /// Forget every position.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.len = 0;
    }
}

/// A thread-safe map of at most `capacity` entries: inserting a new key
/// into a full map evicts the least recently used entry, and capacity 0
/// stores nothing (every lookup misses).  Values are cloned out, so they
/// are cheap handles (`Arc`s) or small `Copy` records.
pub struct BoundedLru<K, V> {
    capacity: usize,
    state: Mutex<Lru<K, V>>,
}

/// The mutable half: the entries as a list threaded through `nodes`
/// from the most to the least recently used, indexed by key.  An entry
/// is held once, in its node, and a node freed by an eviction is reused
/// by the insert that caused it, so `nodes` never outgrows the bound.
struct Lru<K, V> {
    nodes: Vec<Node<K, V>>,
    index: SlotIndex,
    hasher: RandomState,
    /// The most and the least recently used node ([`NIL`] while empty).
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// One entry and its neighbours in recency order.
struct Node<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// No node (node positions are `u32`, like [`SlotIndex`]'s).
const NIL: u32 = u32::MAX;

impl<K: Eq + Hash, V> Lru<K, V> {
    /// The node holding `key`, whose hash is `hash`.
    fn find(&self, hash: u64, key: &K) -> Option<usize> {
        let nodes = &self.nodes;
        self.index.find(hash, |i| nodes[i].key == *key)
    }

    /// Index node `i` under its key's `hash`.
    fn index(&mut self, i: usize, hash: u64) {
        let Lru {
            nodes,
            index,
            hasher,
            ..
        } = self;
        index.insert(hash, i, |at| hasher.hash_one(&nodes[at].key));
    }

    /// Drop node `i`'s key from the index.
    fn unindex(&mut self, i: usize) {
        let Lru {
            nodes,
            index,
            hasher,
            ..
        } = self;
        let hash_at = |at: usize| hasher.hash_one(&nodes[at].key);
        index.remove(hash_at(i), |at| at == i, hash_at);
    }

    /// Take node `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Put node `i` (not in the list) at its front.
    fn push_front(&mut self, i: usize) {
        let at = i as u32;
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = at,
            h => self.nodes[h as usize].prev = at,
        }
        self.head = at;
    }

    /// Make node `i` the most recently used.  A blocking walk asks for
    /// the same kernel many times in a row; the front node stays put.
    fn touch(&mut self, i: usize) {
        if self.head != i as u32 {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// [`BoundedLru::insert`] into a map bounded to `capacity` (≥ 1).
    fn insert(&mut self, capacity: usize, key: K, value: V) {
        let hash = self.hasher.hash_one(&key);
        if let Some(i) = self.find(hash, &key) {
            self.nodes[i].value = value;
            self.touch(i);
            return;
        }
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let i = if self.nodes.len() >= capacity {
            // Full: the least recently used entry gives up its node.
            let i = self.tail as usize;
            self.unlink(i);
            self.unindex(i);
            self.nodes[i] = node;
            self.evictions += 1;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.index(i, hash);
        self.push_front(i);
    }
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedLru<K, V> {
    /// An empty map bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        BoundedLru {
            capacity,
            state: Mutex::new(Lru {
                nodes: Vec::new(),
                index: SlotIndex::default(),
                hasher: RandomState::new(),
                head: NIL,
                tail: NIL,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Look a value up, making it the most recently used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut s = lock(&self.state);
        let hash = s.hasher.hash_one(key);
        let Some(i) = s.find(hash, key) else {
            s.misses += 1;
            return None;
        };
        s.hits += 1;
        s.touch(i);
        Some(s.nodes[i].value.clone())
    }

    /// Store `value` under `key` as the most recently used entry,
    /// replacing any value the key held; a new key in a full map first
    /// evicts the least recently used entry.
    pub fn insert(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        lock(&self.state).insert(self.capacity, key, value);
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        lock(&self.state).nodes.len()
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
            len: s.nodes.len(),
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
    fn a_slot_index_finds_every_position_through_clusters_and_removals() {
        // Keys hash to four neighbouring homes at the top of a 16-bucket
        // table, so probes cluster and wrap around, and removals must
        // close gaps inside clusters.
        let hash = |key: u64| 13 + key % 4;
        let mut keys: Vec<u64> = Vec::new();
        let mut held: Vec<bool> = Vec::new();
        let mut index = SlotIndex::default();
        let mut x = 0x853C_49E6_748F_EA9Bu64;
        for step in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let live: Vec<usize> = (0..keys.len()).filter(|&i| held[i]).collect();
            if live.len() < 7 && !x.is_multiple_of(3) || live.is_empty() {
                let key = 1000 + step;
                index.insert(hash(key), keys.len(), |i| hash(keys[i]));
                keys.push(key);
                held.push(true);
            } else {
                let gone = live[(x >> 5) as usize % live.len()];
                let found = index.remove(hash(keys[gone]), |i| i == gone, |i| hash(keys[i]));
                assert_eq!(found, Some(gone), "step {step}");
                held[gone] = false;
            }
            for (i, &key) in keys.iter().enumerate() {
                let found = index.find(hash(key), |at| keys[at] == key);
                assert_eq!(found, held[i].then_some(i), "step {step}: key {key}");
            }
        }
    }

    #[test]
    fn the_lru_matches_a_recency_list_model() {
        // A seeded mix of lookups and inserts over 12 keys into 5 slots,
        // against a plain list ordered from the most recently used.
        let lru = BoundedLru::new(5);
        let mut model: Vec<(u64, u64)> = Vec::new();
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 12;
            let at = model.iter().position(|&(k, _)| k == key);
            match x % 2 {
                0 => {
                    let want = at.map(|i| model.remove(i));
                    if let Some(entry) = want {
                        model.insert(0, entry);
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    assert_eq!(lru.get(&key), want.map(|(_, v)| v), "step {step}");
                }
                _ => {
                    if let Some(i) = at {
                        model.remove(i);
                    } else if model.len() == 5 {
                        model.pop();
                        evictions += 1;
                    }
                    model.insert(0, (key, step));
                    lru.insert(key, step);
                }
            }
            let stats = lru.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.evictions, stats.len),
                (hits, misses, evictions, model.len()),
                "step {step}"
            );
        }
        for (k, v) in model {
            assert_eq!(lru.get(&k), Some(v));
        }
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
