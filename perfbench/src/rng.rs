//! Seeded input generation (SplitMix64): the same seed gives the same
//! sequence of keys on every platform.

/// A SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    /// Generator for client `stream` of a run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Two distinct values, uniform in `0..n` (`n` > 1).
    pub fn distinct_pair(&mut self, n: u64) -> (u64, u64) {
        let a = self.below(n);
        let b = (a + 1 + self.below(n - 1)) % n;
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let xs: Vec<u64> = (0..16).map(|_| a.below(1000)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.below(1000)).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.below(1000)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..1000 {
            let (p, q) = a.distinct_pair(5);
            assert!(p != q && p < 5 && q < 5);
        }
    }
}
