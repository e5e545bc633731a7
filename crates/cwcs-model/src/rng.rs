//! Small deterministic pseudo-random number generator.
//!
//! Workload generation and benchmark scenarios need reproducible randomness:
//! the same seed must generate the same cluster on every platform and every
//! run, so that figures and tests are comparable across machines.  This
//! module implements `xoshiro256**` seeded through `splitmix64`, the same
//! construction used by the reference implementations of the algorithm, with
//! no external dependencies.

/// Deterministic PRNG (`xoshiro256**`) with convenience samplers.
#[derive(Debug, Clone)]
pub struct SmallRng {
    state: [u64; 4],
}

impl SmallRng {
    /// Build a generator from a 64-bit seed.  Equal seeds yield equal
    /// sequences on every platform.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed with splitmix64 so that similar seeds diverge.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SmallRng {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Next raw 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform integer in `[0, bound)`.  `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a non-zero bound");
        // Multiply-shift rejection-free mapping is biased for huge bounds;
        // use simple rejection sampling to stay exactly uniform.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform index in `[0, len)`, for picking an element of a slice.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "u64_in requires lo < hi");
        lo + self.next_below(hi - lo)
    }

    /// Uniform integer in `[lo, hi]` (inclusive upper bound).
    pub fn u32_in_inclusive(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "u32_in_inclusive requires lo <= hi");
        (lo as u64 + self.next_below(hi as u64 - lo as u64 + 1)) as u32
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub(crate) fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "f64_in requires lo < hi");
        lo + self.f64_unit() * (hi - lo)
    }

    /// Bernoulli trial returning true with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.f64_unit() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 10);
    }

    #[test]
    fn bounds_are_respected() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(rng.next_below(10) < 10);
            let v = rng.u32_in_inclusive(1, 9);
            assert!((1..=9).contains(&v));
            let f = rng.f64_in(5.0, 30.0);
            assert!((5.0..30.0).contains(&f));
            let u = rng.f64_unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_covers_small_ranges() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[rng.index(3)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_with_extremes() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(!rng.bool_with(0.0));
        assert!(rng.bool_with(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
