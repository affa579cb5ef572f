//! Host-side reference GEMMs used to validate the simulated library.

/// Naive `c += a × b` in f32 (row-major, dense).
pub fn sgemm_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            let brow = &b[kk * n..kk * n + n];
            let crow = &mut c[i * n..i * n + n];
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
}

/// `c += a × b` accumulated in f64 (accuracy oracle).
///
/// Runs i-k-j, so B is read along its rows: a row of the result starts as
/// `c`'s row, then for each `kk` in ascending order `a[i][kk] · b[kk][·]`
/// is added across it.  Each element still starts from its `c` and adds
/// the same f64 products in ascending `kk`, the operations of an i-j-k
/// dot product in its order, so it has the same bits (up to the sign and
/// payload of a NaN, which Rust leaves unspecified).
pub fn sgemm_f64(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &[f32]) -> Vec<f64> {
    let mut out: Vec<f64> = c[..m * n].iter().map(|&x| x as f64).collect();
    for i in 0..m {
        let row = &mut out[i * n..i * n + n];
        for kk in 0..k {
            let aik = a[i * k + kk] as f64;
            for (o, &bkj) in row.iter_mut().zip(&b[kk * n..kk * n + n]) {
                *o += aik * bkj as f64;
            }
        }
    }
    out
}

/// Assert an f32 result is within a mixed absolute/relative tolerance of
/// the f64 oracle; panics with the first offending element.
pub fn assert_close(m: usize, n: usize, got: &[f32], want: &[f64], rel: f64) {
    for i in 0..m {
        for j in 0..n {
            let g = got[i * n + j] as f64;
            let w = want[i * n + j];
            let tol = rel * w.abs().max(1.0);
            assert!(
                (g - w).abs() <= tol,
                "({i},{j}): got {g}, want {w} (tol {tol})"
            );
        }
    }
}

/// Deterministic pseudo-random matrix filler (no `rand` dependency in the
/// core crate; workloads use proper RNGs).
pub fn fill_matrix(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(seed.wrapping_mul(0x9E3779B9));
            let x = x ^ (x >> 15);
            ((x % 4001) as f32 - 2000.0) / 256.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_matches_f64_on_small_input() {
        let (m, n, k) = (3, 4, 5);
        let a = fill_matrix(m * k, 1);
        let b = fill_matrix(k * n, 2);
        let c0 = fill_matrix(m * n, 3);
        let mut c = c0.clone();
        sgemm_naive(m, n, k, &a, &b, &mut c);
        let want = sgemm_f64(m, n, k, &a, &b, &c0);
        assert_close(m, n, &c, &want, 1e-5);
    }

    /// The dot-product order `sgemm_f64` replaced.
    fn sgemm_f64_ijk(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &[f32]) -> Vec<f64> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j] as f64;
                for kk in 0..k {
                    acc += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn f64_reference_has_the_bits_of_the_dot_product_order() {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::from_bits(1),
            f32::MAX,
        ];
        // Rust leaves the sign and payload of a NaN result unspecified
        // (the compiler may commute an addition of two NaNs), so a NaN
        // compares as any NaN and every other value by its bits.
        let bits = |v: Vec<f64>| {
            v.into_iter()
                .map(|x| if x.is_nan() { None } else { Some(x.to_bits()) })
                .collect::<Vec<_>>()
        };
        let sprinkle = |x: &mut [f32], stride: usize, from: usize, sign: f32| {
            let len = x.len();
            for (i, s) in specials.iter().enumerate() {
                x[(i * stride + from) % len] = sign * s;
            }
        };
        let mut shapes = 0;
        for m in 1..=12 {
            for n in 1..=12 {
                for k in [1, 2, 3, 5, 8, 13, 25] {
                    if m * n * k > 300 {
                        continue;
                    }
                    let seed = (m * 97 + n * 13 + k) as u32;
                    let mut a = fill_matrix(m * k, seed);
                    let mut b = fill_matrix(k * n, seed + 1);
                    let mut c = fill_matrix(m * n, seed + 2);
                    for special in [false, true] {
                        if special {
                            let from = seed as usize;
                            sprinkle(&mut a, 7, from, 1.0);
                            sprinkle(&mut b, 5, from, 1.0);
                            sprinkle(&mut c, 3, from, -1.0);
                        }
                        let want = sgemm_f64_ijk(m, n, k, &a, &b, &c);
                        assert_eq!(bits(sgemm_f64(m, n, k, &a, &b, &c)), bits(want));
                    }
                    shapes += 1;
                }
            }
        }
        assert_eq!(shapes, 698);
        // Empty extents.
        assert!(sgemm_f64(0, 4, 3, &[], &fill_matrix(12, 1), &[]).is_empty());
        assert_eq!(
            sgemm_f64(2, 2, 0, &[], &[], &[1.0, -0.0, 2.0, 3.0]),
            [1.0, -0.0, 2.0, 3.0]
        );
    }

    #[test]
    fn identity_times_b_is_b() {
        let n = 4;
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let b = fill_matrix(n * n, 9);
        let mut c = vec![0.0f32; n * n];
        sgemm_naive(n, n, n, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    #[should_panic(expected = "(0,0)")]
    fn assert_close_catches_errors() {
        assert_close(1, 1, &[2.0], &[1.0], 1e-6);
    }

    #[test]
    fn fill_matrix_is_deterministic_and_bounded() {
        let a = fill_matrix(100, 7);
        let b = fill_matrix(100, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|x| x.abs() <= 8.0));
        assert_ne!(fill_matrix(100, 8), a);
    }
}
