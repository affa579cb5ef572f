//! The single dispatch point for host-side kernel execution.
//!
//! [`KernelExecutor::execute`] runs a kernel's lowering
//! ([`MicroKernel::lowered`]: built once per kernel, evicted with it from
//! the [`KernelCache`]) on the requested [`HostTier`]:
//!
//! * [`HostTier::Fast`] — `hostsimd`'s scalar level: host math, no SIMD;
//! * [`HostTier::Compiled`] — `hostsimd`'s widest SIMD level.
//!
//! Both are bit-identical to the interpreter on the real columns; the
//! padding lanes are unspecified (the contract is stated once, at
//! [`CompiledKernel::execute`]).

use crate::{CacheStats, CompiledKernel, GenError, KernelCache, MicroKernel};
use dspsim::ExecMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which host execution tier computes a kernel invocation.
///
/// `Interpret` is not a host tier — it runs inside dspsim's VLIW
/// interpreter; [`HostTier::from_mode`] maps it (and `Timing`) to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostTier {
    /// The lowered kernel on `hostsimd`'s scalar level.
    Fast,
    /// The lowered kernel on `hostsimd`'s widest SIMD level.
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

/// The host-side kernel execution service: owns the generated-kernel
/// cache and dispatches every host kernel invocation to the requested
/// tier, counting lowerings.
pub struct KernelExecutor {
    kernels: Arc<KernelCache>,
    /// Lookups of a kernel that was already lowered.
    hits: AtomicU64,
    /// Lowerings run.
    lowerings: AtomicU64,
}

impl KernelExecutor {
    /// An executor over an existing kernel cache.
    pub fn new(kernels: Arc<KernelCache>) -> Self {
        KernelExecutor {
            kernels,
            hits: AtomicU64::new(0),
            lowerings: AtomicU64::new(0),
        }
    }

    /// The generated-kernel cache this executor draws from.
    pub fn kernels(&self) -> &KernelCache {
        &self.kernels
    }

    /// A kernel's lowering ([`MicroKernel::lowered`]), counted as a hit if
    /// it already existed and as a miss if this call lowered it.
    pub fn compiled<'k>(&self, kernel: &'k MicroKernel) -> Result<&'k CompiledKernel, GenError> {
        let (lowered, fresh) = kernel.lower_once()?;
        let counter = if fresh { &self.lowerings } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(lowered)
    }

    /// Execute one kernel invocation on the requested host tier (panel
    /// layout and bitwise contract: [`CompiledKernel::execute`]).
    pub fn execute(
        &self,
        tier: HostTier,
        kernel: &MicroKernel,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> Result<(), GenError> {
        self.compiled(kernel)?.execute(tier, a, b, c);
        Ok(())
    }

    /// `hits`: lookups of an already lowered kernel; `misses`: lowerings.
    /// A lowering lives and is evicted with its kernel, so `evictions`,
    /// `len` and `capacity` are the kernel cache's.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.lowerings.load(Ordering::Relaxed),
            ..self.kernels.stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelSpec;
    use dspsim::HwConfig;

    fn executor(capacity: usize) -> KernelExecutor {
        KernelExecutor::new(Arc::new(KernelCache::with_capacity(
            HwConfig::default(),
            capacity,
        )))
    }

    fn spec(m_s: usize) -> KernelSpec {
        KernelSpec::new(m_s, 32, 32).unwrap()
    }

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        // Deterministic, poorly-conditioned values to expose ordering
        // differences: mixes magnitudes across 6 decades.
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                let m = (x % 1000) as f32 - 500.0;
                let e = [(1e-3f32), 1.0, 1e3][(x >> 10) as usize % 3];
                m * e
            })
            .collect()
    }

    #[test]
    fn a_kernel_is_lowered_once_and_shared_by_both_tiers() {
        let ex = executor(8);
        let kernel = ex.kernels().get(spec(4)).unwrap();
        let a = ex.compiled(&kernel).unwrap();
        let b = ex.compiled(&kernel).unwrap();
        assert!(std::ptr::eq(a, b), "a hit must reuse the lowered kernel");
        assert!(std::ptr::eq(a, kernel.lowered().unwrap()));
        let (av, bv, mut cv) = (fill(4 * 32, 1), fill(32 * 32, 2), fill(4 * 32, 3));
        for tier in [HostTier::Fast, HostTier::Compiled] {
            ex.execute(tier, &kernel, &av, &bv, &mut cv).unwrap();
        }
        let stats = ex.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
        assert_eq!((stats.len, stats.capacity), (1, 8));
    }

    /// A lowering lives and dies with its kernel: evicted from a
    /// capacity-1 cache and regenerated, the kernel lowers again and
    /// computes the same bits.
    #[test]
    fn an_evicted_kernel_lowers_again_to_the_same_bits() {
        let ex = executor(1);
        let first = ex.kernels().get(spec(5)).unwrap();
        let ld = first.spec.na_pad();
        let (a, b, c0) = (fill(5 * 32, 1), fill(32 * ld, 2), fill(5 * ld, 3));
        let mut c_first = c0.clone();
        ex.execute(HostTier::Compiled, &first, &a, &b, &mut c_first)
            .unwrap();
        ex.kernels().get(spec(6)).unwrap(); // evicts spec(5)
        let again = ex.kernels().get(spec(5)).unwrap(); // and back
        assert!(!Arc::ptr_eq(&first, &again), "must have been regenerated");
        let mut c_again = c0;
        ex.execute(HostTier::Compiled, &again, &a, &b, &mut c_again)
            .unwrap();
        let stats = ex.stats();
        assert_eq!((stats.misses, stats.evictions), (2, 2));
        for (x, y) in c_first.iter().zip(&c_again) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
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
    fn fast_matches_a_naive_single_accumulator_only_when_ku_is_1() {
        let ex = executor(8);
        let k = ex
            .kernels()
            .get_forced(KernelSpec::new(4, 37, 96).unwrap(), 4, 1)
            .unwrap();
        let a = fill(4 * 37, 1);
        let b = fill(37 * 96, 2);
        let mut c = fill(4 * 96, 3);
        let c0 = c.clone();
        ex.execute(HostTier::Fast, &k, &a, &b, &mut c).unwrap();
        // k_u = 1 with a k-tail handled by acc[0] in ascending k order is
        // exactly the naive loop.
        for row in 0..4 {
            for col in 0..96 {
                let mut acc = c0[row * 96 + col];
                for kk in 0..37 {
                    acc = a[row * 37 + kk].mul_add(b[kk * 96 + col], acc);
                }
                assert_eq!(c[row * 96 + col].to_bits(), acc.to_bits());
            }
        }
    }

    #[test]
    fn fast_is_close_to_f64_reference() {
        let ex = executor(8);
        let k = ex
            .kernels()
            .get(KernelSpec::new(6, 128, 64).unwrap())
            .unwrap();
        let a = fill(6 * 128, 7);
        let b = fill(128 * 64, 8);
        let mut c = vec![0.0f32; 6 * 64];
        ex.execute(HostTier::Fast, &k, &a, &b, &mut c).unwrap();
        for row in 0..6 {
            for col in 0..64 {
                let mut acc = 0.0f64;
                for kk in 0..128 {
                    acc += a[row * 128 + kk] as f64 * b[kk * 64 + col] as f64;
                }
                let got = c[row * 64 + col] as f64;
                let tol = 1e-3 * acc.abs().max(1.0);
                assert!((got - acc).abs() <= tol, "({row},{col}): {got} vs {acc}");
            }
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
