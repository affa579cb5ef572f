//! The workspace's one deterministic RNG: a splitmix64 stream.
//!
//! Fault placement ([`crate::FaultPlan`]'s corruption offsets and flip
//! bits), the tuner's seeded probes and the conformance fuzzer's case
//! generation all draw from it.  Each must be reproducible from its seed
//! alone — across hosts, across releases, and independently of the
//! vendored `rand` stub's stream details — because persisted fixtures
//! and catalogs name what they came from by seed.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// A stream for iteration `i` of a fuzz run: decorrelates per-case
    /// streams so shrinking one case never replays another's choices.
    pub fn for_case(seed: u64, case: u64) -> Self {
        let mut r = Rng64::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next(); // discard the correlated first output
        r
    }

    /// Next raw 64-bit output.
    #[allow(clippy::should_implement_trait)] // deliberate: not an Iterator
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi` (inclusive; `hi < lo` collapses to `lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next() % (hi - lo + 1)
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer() {
        // splitmix64's first output from state 0.
        assert_eq!(Rng64::new(0).next(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng64::new(7);
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::new(7);
            (0..8).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng64::new(8);
        assert_ne!(a[0], r.next());
    }

    #[test]
    fn range_is_inclusive_and_clamped() {
        let mut r = Rng64::new(1);
        for _ in 0..1000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
        }
        assert_eq!(r.range(9, 2), 9);
    }

    #[test]
    fn case_streams_decorrelate() {
        let mut a = Rng64::for_case(42, 0);
        let mut b = Rng64::for_case(42, 1);
        assert_ne!(
            (0..4).map(|_| a.next()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next()).collect::<Vec<_>>()
        );
    }
}
