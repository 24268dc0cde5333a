//! splitmix64, the workspace's one seeded generator.
//!
//! The benchmark inputs, the conformance program generator and the
//! load generator's request schedule must be bit-reproducible across
//! runs, platforms and `--jobs` settings, so they share this tiny
//! generator: the stream is a pure function of the seed. Generated
//! programs record the (seed, index) pair that recreates them.

/// Splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    #[inline]
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Derive an independent stream for item `index` of a run: used to
    /// make program `i` a function of `(seed, i)` alone, so shrinking
    /// or re-checking one case never perturbs the others.
    #[inline]
    pub fn for_index(seed: u64, index: u64) -> Rng {
        let mut r = Rng::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64(); // decorrelate nearby seeds
        r
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; modulo bias is irrelevant here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    #[inline]
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// True with probability `num/den`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Pick one element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    /// The reference splitmix64 stream for seed 0: every generated
    /// program and loadgen schedule depends on these exact bits.
    #[test]
    fn matches_the_reference_stream() {
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
        let u = Rng::new(0).unit();
        assert_eq!(
            u,
            (0xe220_a839_7b1d_cdaf_u64 >> 11) as f64 / (1u64 << 53) as f64
        );
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn index_streams_are_independent() {
        let mut a = Rng::for_index(42, 0);
        let mut b = Rng::for_index(42, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_is_inclusive_and_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..200 {
            let v = r.range(-3, 5);
            assert!((-3..=5).contains(&v));
        }
    }
}
