//! Seeded input generation: every workload's inputs are a pure function
//! of the `--seed` argument.
//!
//! The generator is a private SplitMix64 stream rather than the
//! workspace's `rand` shim, so a change to the shim cannot silently
//! change the benchmark's inputs. Numeric axes are *stratified*: the
//! `k`-th of `n` values is drawn inside the `k`-th of `n` equal
//! sub-intervals, so every seed covers the same ranges evenly and the
//! total work per seed stays close to constant while the exact values
//! (and therefore the outputs) differ.

/// SplitMix64: a tiny, well-mixed, seedable stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` stratified, antithetic draws over `[lo, hi)`, ascending,
    /// each rounded to a multiple of `step` (keeps rendered rows
    /// short). Bins `k` and `n − 1 − k` take mirrored offsets, so the
    /// values always sum to the same total: the seed moves every value
    /// but not the axis mean.
    pub fn strata(&mut self, n: usize, lo: f64, hi: f64, step: f64) -> Vec<f64> {
        let width = (hi - lo) / n as f64;
        let mut offsets = vec![0.5; n];
        for k in 0..n / 2 {
            let u = self.unit();
            offsets[k] = u;
            offsets[n - 1 - k] = 1.0 - u;
        }
        offsets
            .iter()
            .enumerate()
            .map(|(k, u)| ((lo + width * (k as f64 + u)) / step).round() * step)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn strata_cover_their_bins_with_a_fixed_sum() {
        for seed in 0..20 {
            let values = Rng::new(seed, 0).strata(4, 0.0, 8.0, 1e-9);
            for (k, v) in values.iter().enumerate() {
                assert!(*v >= 2.0 * k as f64 - 1e-6 && *v <= 2.0 * (k + 1) as f64 + 1e-6);
            }
            assert!((values.iter().sum::<f64>() - 16.0).abs() < 1e-6);
        }
    }
}
