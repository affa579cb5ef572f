//! The single dispatch point for host-side kernel execution.
//!
//! Every consumer that used to call `MicroKernel::execute_fast` directly
//! now routes through [`KernelExecutor::execute`], which picks a
//! [`HostTier`]:
//!
//! * [`HostTier::Fast`] — the generic scalar mirror
//!   (`MicroKernel::execute_fast`), one `f32::mul_add` per element-step;
//! * [`HostTier::Compiled`] — the kernel lowered once to specialised
//!   SIMD block loops ([`CompiledKernel`]) and memoised in a bounded LRU
//!   cache keyed like the plan cache: the kernel spec × its block tiling
//!   (two kernels for the same spec with different forced tilings are
//!   different executors).
//!
//! Both tiers are bit-identical to the interpreter on the real columns
//! (the padding lanes are unspecified — the contract is stated once, in
//! [`crate::fast`]); `Compiled` is the fast path, `Fast` the
//! reference-shaped fallback. The cache mirrors
//! `PlanCache`'s shape — bounded Vec-scan LRU, atomic lifetime counters,
//! capacity 0 disables memoisation (each call lowers afresh, which stays
//! correct because lowering is pure).

use crate::{BlockPlan, CompiledKernel, GenError, KernelCache, KernelSpec, MicroKernel};
use dspsim::ExecMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default executor-cache bound: kernels are keyed by spec × tiling and a
/// run touches a handful of specs; 64 distinct compiled kernels is far
/// beyond any sweep here.
pub const DEFAULT_EXECUTOR_CACHE_CAPACITY: usize = 64;

/// Which host execution tier computes a kernel invocation.
///
/// `Interpret` is not a host tier — it runs inside dspsim's VLIW
/// interpreter; [`HostTier::from_mode`] maps it (and `Timing`) to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostTier {
    /// Generic scalar mirror of the accumulation order.
    Fast,
    /// Specialised SIMD block loops, memoised per kernel.
    Compiled,
}

impl HostTier {
    /// The host tier implied by a simulator execution mode, if any.
    pub fn from_mode(mode: ExecMode) -> Option<Self> {
        match mode {
            ExecMode::Fast => Some(HostTier::Fast),
            ExecMode::Compiled => Some(HostTier::Compiled),
            ExecMode::Interpret | ExecMode::Timing => None,
        }
    }
}

/// Everything a compiled executor depends on: the shape *and* the block
/// tiling (a forced-tiling kernel and the auto-tuned kernel for the same
/// spec lower to different loops).
type Key = (KernelSpec, Vec<BlockPlan>);

/// Snapshot of an executor cache's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorCacheStats {
    /// Lookups answered by a memoised compiled kernel.
    pub hits: u64,
    /// Lookups that had to lower the kernel.
    pub misses: u64,
    /// Entries evicted to the capacity bound.
    pub evictions: u64,
    /// Lowering passes run (misses that succeeded).
    pub compiles: u64,
    /// Entries currently held.
    pub len: usize,
    /// Entry bound (`0` disables memoisation).
    pub capacity: usize,
}

/// Lock an executor-cache map, recovering from poisoning: entries are
/// immutable, deterministically lowered kernels, so state observed after
/// a panicking thread is still valid.
fn lock(
    m: &Mutex<Vec<(Key, Arc<CompiledKernel>)>>,
) -> MutexGuard<'_, Vec<(Key, Arc<CompiledKernel>)>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The host-side kernel execution service: owns the generated-kernel
/// cache and the bounded memo of compiled executors, and dispatches
/// every host kernel invocation to the requested tier.
pub struct KernelExecutor {
    kernels: Arc<KernelCache>,
    capacity: usize,
    /// LRU order: index 0 coldest, back hottest (same idiom as the plan
    /// cache; linear scan is fine at this capacity).
    entries: Mutex<Vec<(Key, Arc<CompiledKernel>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    compiles: AtomicU64,
}

impl KernelExecutor {
    /// An executor over an existing kernel cache, with the default
    /// compiled-kernel memo bound.
    pub fn new(kernels: Arc<KernelCache>) -> Self {
        Self::with_capacity(kernels, DEFAULT_EXECUTOR_CACHE_CAPACITY)
    }

    /// An executor whose compiled-kernel memo holds at most `capacity`
    /// entries (`0` disables memoisation; every invocation re-lowers).
    pub fn with_capacity(kernels: Arc<KernelCache>, capacity: usize) -> Self {
        KernelExecutor {
            kernels,
            capacity,
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
        }
    }

    /// The generated-kernel cache this executor draws from.
    pub fn kernels(&self) -> &KernelCache {
        &self.kernels
    }

    /// Shared handle to the generated-kernel cache.
    pub fn kernels_arc(&self) -> Arc<KernelCache> {
        Arc::clone(&self.kernels)
    }

    /// The compiled executor for a kernel: memoised lowering keyed by
    /// spec × block tiling, LRU-bounded.
    pub fn compiled(&self, kernel: &MicroKernel) -> Result<Arc<CompiledKernel>, GenError> {
        {
            let mut entries = lock(&self.entries);
            if let Some(pos) = entries
                .iter()
                .position(|((spec, blocks), _)| *spec == kernel.spec && *blocks == kernel.blocks)
            {
                let entry = entries.remove(pos);
                let compiled = Arc::clone(&entry.1);
                entries.push(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(compiled);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        // Lower outside the lock: lowering is pure and deterministic, so
        // a racing duplicate insert is harmless and identical.
        let compiled = Arc::new(CompiledKernel::lower(kernel)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        if self.capacity > 0 {
            let key = (kernel.spec, kernel.blocks.clone());
            let mut entries = lock(&self.entries);
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                entries.remove(pos);
            } else if entries.len() >= self.capacity {
                entries.remove(0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            entries.push((key, Arc::clone(&compiled)));
        }
        Ok(compiled)
    }

    /// Execute one kernel invocation on the requested host tier. Panel
    /// layout contract is `MicroKernel::execute_fast`'s; both tiers are
    /// bit-identical to the interpreter on the real columns `0..n_a`.
    pub fn execute(
        &self,
        tier: HostTier,
        kernel: &MicroKernel,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> Result<(), GenError> {
        match tier {
            HostTier::Fast => {
                kernel.execute_fast(a, b, c);
                Ok(())
            }
            HostTier::Compiled => {
                self.compiled(kernel)?.execute(a, b, c);
                Ok(())
            }
        }
    }

    /// Lifetime counters and current occupancy of the compiled memo.
    pub fn stats(&self) -> ExecutorCacheStats {
        ExecutorCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            len: lock(&self.entries).len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspsim::HwConfig;

    fn executor(capacity: usize) -> KernelExecutor {
        KernelExecutor::with_capacity(Arc::new(KernelCache::new(HwConfig::default())), capacity)
    }

    fn spec(m_s: usize) -> KernelSpec {
        KernelSpec::new(m_s, 32, 32).unwrap()
    }

    #[test]
    fn hits_reuse_the_same_closure() {
        let ex = executor(8);
        let kernel = ex.kernels().get(spec(4)).unwrap();
        let a = ex.compiled(&kernel).unwrap();
        let b = ex.compiled(&kernel).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit must reuse the lowered kernel");
        let stats = ex.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiles), (1, 1, 1));
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn forced_tilings_are_distinct_entries() {
        let ex = executor(8);
        let tuned = ex.kernels().get(spec(8)).unwrap();
        let forced = ex.kernels().get_forced(spec(8), 8, 1).unwrap();
        let a = ex.compiled(&tuned).unwrap();
        let b = ex.compiled(&forced).unwrap();
        if tuned.blocks != forced.blocks {
            assert!(!Arc::ptr_eq(&a, &b));
            assert_eq!(ex.stats().len, 2);
        }
    }

    #[test]
    fn zero_capacity_disables_memoisation_but_stays_correct() {
        let ex = executor(0);
        let kernel = ex.kernels().get(spec(4)).unwrap();
        let a = ex.compiled(&kernel).unwrap();
        let b = ex.compiled(&kernel).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "capacity 0 must not memoise");
        let stats = ex.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiles), (0, 2, 2));
        assert_eq!(stats.len, 0);
        // Still executes correctly.
        let ld = kernel.spec.na_pad();
        let av = vec![1.0f32; 4 * 32];
        let bv = vec![1.0f32; 32 * ld];
        let mut cv = vec![0.0f32; 4 * ld];
        ex.execute(HostTier::Compiled, &kernel, &av, &bv, &mut cv)
            .unwrap();
        assert_eq!(cv[0], 32.0);
    }

    #[test]
    fn evictions_are_counted_at_the_bound() {
        let ex = executor(2);
        for m_s in 1..=3usize {
            let kernel = ex.kernels().get(spec(m_s)).unwrap();
            ex.compiled(&kernel).unwrap();
        }
        let stats = ex.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        // The first spec was evicted: looking it up again is a miss.
        let kernel = ex.kernels().get(spec(1)).unwrap();
        ex.compiled(&kernel).unwrap();
        assert_eq!(ex.stats().misses, 4);
    }

    #[test]
    fn both_tiers_agree_bitwise_through_the_dispatch_point() {
        let ex = executor(8);
        let kernel = ex
            .kernels()
            .get(KernelSpec::new(5, 37, 96).unwrap())
            .unwrap();
        let ld = kernel.spec.na_pad();
        let a: Vec<f32> = (0..5 * 37).map(|i| (i as f32).sin() * 1e3).collect();
        let b: Vec<f32> = (0..37 * ld).map(|i| (i as f32).cos() * 1e-3).collect();
        let c0: Vec<f32> = (0..5 * ld).map(|i| i as f32).collect();
        let mut c_fast = c0.clone();
        let mut c_comp = c0;
        ex.execute(HostTier::Fast, &kernel, &a, &b, &mut c_fast)
            .unwrap();
        ex.execute(HostTier::Compiled, &kernel, &a, &b, &mut c_comp)
            .unwrap();
        for (x, y) in c_fast.iter().zip(&c_comp) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn tier_follows_exec_mode() {
        assert_eq!(HostTier::from_mode(ExecMode::Fast), Some(HostTier::Fast));
        assert_eq!(
            HostTier::from_mode(ExecMode::Compiled),
            Some(HostTier::Compiled)
        );
        assert_eq!(HostTier::from_mode(ExecMode::Interpret), None);
        assert_eq!(HostTier::from_mode(ExecMode::Timing), None);
    }
}
