//! Order statistics, digests and small numeric helpers.

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples.
/// Panics on an empty slice: every caller reports a measured quantity.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` when there are not even ten samples above the median.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| 1.0 - 10.0 / n as f64)
}

/// A value for a table column: six decimals, or three significant digits
/// in scientific notation where those would read as zero (a 300 ns
/// set-up, a 1e-8 relative error).
pub fn show(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

/// Geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geomean of no samples");
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// FNV-1a over bytes, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of an f32 buffer's exact bit patterns.
pub fn digest_f32(data: &[f32]) -> u64 {
    data.iter()
        .fold(FNV_INIT, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// Fold one job digest into a workload digest.
pub fn fold_digest(state: u64, job: u64) -> u64 {
    fnv1a(state, &job.to_le_bytes())
}

/// Worst `|got − want| ÷ mass` over a block, where `mass` is the absolute
/// product mass `|c0| + Σ|a||b|` of each element (the quantity f32
/// rounding error scales with).
pub fn max_rel_err(
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c0: &[f32],
    got: &[f32],
    want: &[f64],
) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..got.len() / n {
        for j in 0..n {
            let mut mass = f64::from(c0[i * n + j]).abs();
            for kk in 0..k {
                mass += (f64::from(a[i * k + kk]) * f64::from(b[kk * n + j])).abs();
            }
            let err = (f64::from(got[i * n + j]) - want[i * n + j]).abs() / mass.max(1e-30);
            worst = worst.max(err);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_hits_the_ends() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        // 99 samples cannot support p90: only 9.9 lie beyond it.
        assert!(highest_supported_percentile(99).unwrap() < 0.9);
    }

    #[test]
    fn digests_are_order_and_bit_sensitive() {
        assert_ne!(digest_f32(&[0.0]), digest_f32(&[-0.0]));
        assert_ne!(digest_f32(&[1.0, 2.0]), digest_f32(&[2.0, 1.0]));
        assert_eq!(digest_f32(&[1.5, 2.5]), digest_f32(&[1.5, 2.5]));
        assert_ne!(fold_digest(FNV_INIT, 1), fold_digest(FNV_INIT, 2));
    }

    #[test]
    fn small_values_do_not_print_as_zero() {
        assert_eq!(show(12.5), "12.500000");
        assert_eq!(show(0.0), "0.000000");
        assert_eq!(show(2.95e-7), "2.950e-7");
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rel_err_is_normalised_by_product_mass() {
        // 1×1×2: a = [1, -1], b = [3, 3]: exact result 0, mass 6.
        let e = max_rel_err(1, 2, &[1.0, -1.0], &[3.0, 3.0], &[0.0], &[6e-6], &[0.0]);
        assert!((e - 1e-6).abs() < 1e-12);
    }
}
