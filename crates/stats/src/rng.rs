//! Deterministic, forkable random number generation.
//!
//! All randomness in the workspace flows through [`Prng`], a from-scratch
//! xoshiro256++ generator seeded through SplitMix64. Owning the generator
//! (rather than wrapping an external crate) guarantees bit-for-bit
//! reproducibility across toolchain upgrades — every experiment in the
//! paper reproduction is identified by a single `u64` seed — and gives us
//! `Clone` + forkable streams for parallel experiment iterations.

/// SplitMix64 step: used for seeding and for deriving fork seeds.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ pseudo-random number generator.
///
/// `Prng` is deliberately minimal: it exposes only the primitives the
/// paper's algorithms need (uniform floats, bounded integers, Bernoulli
/// draws, Gaussians, Fisher–Yates sampling) plus [`Prng::fork`], which
/// derives an independent child generator so that parallel experiment
/// iterations do not share a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    state: [u64; 4],
    seed: u64,
}

impl Prng {
    /// Creates a generator from a seed. Equal seeds produce equal streams.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state, seed }
    }

    /// The seed this generator was created from (forks get derived seeds).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a labelled sub-task.
    ///
    /// The child seed mixes the parent seed with `label` through SplitMix64,
    /// so distinct labels yield decorrelated streams and the derivation does
    /// not consume parent state.
    pub fn fork(&self, label: u64) -> Self {
        let mut sm = self
            .seed
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(label.wrapping_add(1)));
        Self::seeded(splitmix64(&mut sm))
    }

    /// The raw xoshiro256++ 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`. Panics if `lo >= hi`.
    #[cfg(test)]
    pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased bounded sampling.
    /// Panics if `n == 0`. Inlined across crates, so a shuffle keeps the
    /// generator's state in registers instead of calling out per draw.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is an empty range");
        let n = n as u64;
        // Lemire's multiply-shift rejection method (unbiased).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    /// Inlined across crates, like [`Prng::below`]: plan execution draws
    /// one or two per undecided row.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// A standard normal draw (Box–Muller; one value per call).
    pub fn gaussian(&mut self) -> f64 {
        // Avoid ln(0) by shifting the first uniform away from zero.
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` without replacement.
    ///
    /// Uses a partial Fisher–Yates over an index vector; `O(n)` space but
    /// exact and unbiased, which matters for the sampling experiments.
    /// If `k >= n`, returns all indices (shuffled).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = Prng::seeded(7);
        let mut b = Prng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::seeded(1);
        let mut b = Prng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn fork_is_decorrelated_and_deterministic() {
        let parent = Prng::seeded(42);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let mut c1_again = parent.fork(0);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let mut c1 = parent.fork(0);
        let matches = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(matches < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Prng::seeded(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut rng = Prng::seeded(33);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_respects_bound_and_is_roughly_uniform() {
        let mut rng = Prng::seeded(4);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            let v = rng.below(7);
            assert!(v < 7);
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts={counts:?}");
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Prng::seeded(5);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-1.0));
        assert!(rng.bernoulli(2.0));
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut rng = Prng::seeded(6);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Prng::seeded(8);
        let n = 50_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.gaussian();
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Prng::seeded(9);
        let sample = rng.sample_indices(100, 30);
        assert_eq!(sample.len(), 30);
        let mut seen = std::collections::HashSet::new();
        for &i in &sample {
            assert!(i < 100);
            assert!(seen.insert(i), "duplicate index {i}");
        }
    }

    #[test]
    fn sample_indices_k_exceeds_n() {
        let mut rng = Prng::seeded(10);
        let mut sample = rng.sample_indices(5, 50);
        sample.sort_unstable();
        assert_eq!(sample, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Prng::seeded(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = Prng::seeded(12);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
