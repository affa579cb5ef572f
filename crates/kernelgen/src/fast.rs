//! Host-native kernel execution mirroring the generated code's f32
//! accumulation order bit-exactly (same `k_u`-way accumulator split, same
//! fused multiply-adds, same reduction order), so `ExecMode::Fast` results
//! equal `ExecMode::Interpret` results bit-for-bit at full host speed.
//!
//! The contract every host tier shares: `Interpret` is the hardware and
//! fills whole 32-lane vectors; a host tier is bit-identical to it on
//! columns `0..n_a` of every row and leaves lanes `n_a..na_pad` of `C_a`
//! *unspecified* (this tier does not touch them, `Compiled` rounds `n_a`
//! up to its vector width).  Those lanes never leave AM: every `AmToDdr`
//! store and the K-parallel `gsm_accumulate_from_am` reduction move the
//! task's real `cols`.  TGEMM's kernels are generated for its fixed
//! padded width, so its `n_a` — and the work it pays for — stay what the
//! paper charges it.

#![allow(clippy::needless_range_loop)] // index loops mirror the generated code

use crate::MicroKernel;

/// Upper bound on the depth unroll `k_u`, i.e. on live accumulators per
/// C element. Invariant: the tiling space ([`crate::tiling::candidates`])
/// and `MicroKernel::generate_forced` only ever produce `k_u ∈ {1, 2, 4}`
/// — a future tiling change that widens this must grow the accumulator
/// array below (and the monomorphised `Compiled` tier) with it, or lanes
/// would silently alias.
pub const MAX_KU: usize = 4;

impl MicroKernel {
    /// Compute `c += a × b` on dense panels laid out exactly as the
    /// kernel's scratchpad buffers:
    /// * `a`: `m_s × k_a`, row-major, leading dimension `k_a`;
    /// * `b`: `k_a × na_pad`, leading dimension `na_pad`;
    /// * `c`: `m_s × na_pad`, leading dimension `na_pad`.
    ///
    /// Only the real columns `0..n_a` are computed; the padding lanes
    /// `n_a..na_pad` of `c` are left as they were.
    pub fn execute_fast(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        let k_a = self.spec.k_a;
        let n_a = self.spec.n_a;
        let ld = self.spec.na_pad();
        debug_assert!(a.len() >= self.spec.m_s * k_a);
        debug_assert!(b.len() >= k_a * ld);
        debug_assert!(c.len() >= self.spec.m_s * ld);
        for plan in &self.blocks {
            debug_assert!(
                plan.k_u <= MAX_KU,
                "k_u = {} exceeds MAX_KU = {MAX_KU}; widen the accumulator array",
                plan.k_u
            );
            for trip in 0..plan.trips as usize {
                for mu in 0..plan.m_u {
                    let row = plan.mm_base + trip * plan.m_u + mu;
                    let a_row = &a[row * k_a..row * k_a + k_a];
                    let c_row = &mut c[row * ld..row * ld + n_a];
                    for col in 0..n_a {
                        // acc[0] starts from C; acc[ku>0] start at zero.
                        let mut acc = [0.0f32; MAX_KU];
                        acc[0] = c_row[col];
                        for j in 0..plan.k_iters {
                            for ku in 0..plan.k_u {
                                let k = j * plan.k_u + ku;
                                acc[ku] = a_row[k].mul_add(b[k * ld + col], acc[ku]);
                            }
                        }
                        for rr in 0..plan.k_tail {
                            let k = plan.k_iters * plan.k_u + rr;
                            acc[0] = a_row[k].mul_add(b[k * ld + col], acc[0]);
                        }
                        for ku in 1..plan.k_u {
                            acc[0] += acc[ku];
                        }
                        c_row[col] = acc[0];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{KernelSpec, MicroKernel};
    use dspsim::HwConfig;

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
    fn fast_matches_a_naive_single_accumulator_only_when_ku_is_1() {
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(4, 37, 96).unwrap();
        let k = MicroKernel::generate_forced(spec, 4, 1, &cfg).unwrap();
        let a = fill(4 * 37, 1);
        let b = fill(37 * 96, 2);
        let mut c = fill(4 * 96, 3);
        let c0 = c.clone();
        k.execute_fast(&a, &b, &mut c);
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
        let cfg = HwConfig::default();
        let spec = KernelSpec::new(6, 128, 64).unwrap();
        let k = MicroKernel::generate(spec, &cfg).unwrap();
        let a = fill(6 * 128, 7);
        let b = fill(128 * 64, 8);
        let mut c = vec![0.0f32; 6 * 64];
        k.execute_fast(&a, &b, &mut c);
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
}
