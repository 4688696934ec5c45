//! Property-based tests for the statistical substrate.

use expred_stats::{
    bounds::{chebyshev_scale, hoeffding_threshold},
    descriptive::{pearson, quantile, Accumulator},
    estimator::SelectivityEstimate,
    histogram::{assign_buckets, bucketize, equi_depth_boundaries},
    rng::Prng,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn prng_f64_always_in_unit_interval(seed in any::<u64>()) {
        let mut rng = Prng::seeded(seed);
        for _ in 0..64 {
            let x = rng.f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn prng_below_always_bounded(seed in any::<u64>(), n in 1usize..10_000) {
        let mut rng = Prng::seeded(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn prng_sample_indices_distinct(seed in any::<u64>(), n in 1usize..300, k in 0usize..300) {
        let mut rng = Prng::seeded(seed);
        let sample = rng.sample_indices(n, k);
        prop_assert_eq!(sample.len(), k.min(n));
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sample.len());
    }

    #[test]
    fn beta_posterior_moments_valid(pos in 0u64..500, extra in 0u64..500) {
        let n = pos + extra;
        let e = SelectivityEstimate::from_sample(pos, n);
        prop_assert!((0.0..=1.0).contains(&e.mean()));
        prop_assert!(e.variance() > 0.0);
        prop_assert!(e.variance() <= 0.25);
    }

    #[test]
    fn hoeffding_threshold_monotone_in_rho(w in 0.0f64..1e6, r1 in 0.0f64..0.99, r2 in 0.0f64..0.99) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(hoeffding_threshold(w, lo) <= hoeffding_threshold(w, hi) + 1e-12);
    }

    #[test]
    fn chebyshev_scale_at_least_one(rho in 0.0f64..0.999) {
        prop_assert!(chebyshev_scale(rho) >= 1.0);
    }

    #[test]
    fn accumulator_merge_equals_single_pass(xs in prop::collection::vec(-1e3f64..1e3, 0..200), split in 0usize..200) {
        let split = split.min(xs.len());
        let full = Accumulator::from_slice(&xs);
        let mut left = Accumulator::from_slice(&xs[..split]);
        let right = Accumulator::from_slice(&xs[split..]);
        left.merge(&right);
        prop_assert_eq!(left.count(), full.count());
        prop_assert!((left.mean() - full.mean()).abs() < 1e-7);
        prop_assert!((left.variance() - full.variance()).abs() < 1e-5 * (1.0 + full.variance()));
    }

    #[test]
    fn pearson_bounded(xs in prop::collection::vec(-1e3f64..1e3, 2..50), ys in prop::collection::vec(-1e3f64..1e3, 2..50)) {
        let n = xs.len().min(ys.len());
        let r = pearson(&xs[..n], &ys[..n]);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
    }

    #[test]
    fn quantile_within_min_max(xs in prop::collection::vec(-1e3f64..1e3, 1..100), q in 0.0f64..=1.0) {
        let v = quantile(&xs, q);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn bucketize_ids_bounded(xs in prop::collection::vec(0.0f64..1.0, 1..300), k in 1usize..12) {
        let ids = bucketize(&xs, k);
        prop_assert_eq!(ids.len(), xs.len());
        for id in ids {
            prop_assert!(id < k);
        }
    }

    #[test]
    fn boundaries_sorted_and_within_range(xs in prop::collection::vec(0.0f64..1.0, 2..300), k in 1usize..12) {
        let bounds = equi_depth_boundaries(&xs, k);
        for w in bounds.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Every bucket produced must be nonempty.
        let ids = assign_buckets(&xs, &bounds);
        let max_id = ids.iter().copied().max().unwrap_or(0);
        for want in 0..=max_id {
            prop_assert!(ids.contains(&want), "bucket {} empty", want);
        }
    }

    #[test]
    fn bucketize_tolerates_nan_scores(
        xs in prop::collection::vec(0.0f64..1.0, 1..200),
        nan_every in 1usize..6,
        k in 1usize..12,
    ) {
        // Poison a deterministic subset of scores with NaN: bucketing
        // must neither panic nor send NaN anywhere but the last bucket,
        // and the finite scores must bucket exactly as they do alone.
        let poisoned: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| if i % nan_every == 0 { f64::NAN } else { x })
            .collect();
        let bounds = equi_depth_boundaries(&poisoned, k);
        let finite: Vec<f64> = poisoned.iter().copied().filter(|s| !s.is_nan()).collect();
        if !finite.is_empty() {
            prop_assert_eq!(&bounds, &equi_depth_boundaries(&finite, k));
        } else {
            prop_assert!(bounds.is_empty());
        }
        let ids = assign_buckets(&poisoned, &bounds);
        prop_assert_eq!(ids.len(), poisoned.len());
        for (score, id) in poisoned.iter().zip(&ids) {
            prop_assert!(*id < k);
            if score.is_nan() {
                prop_assert_eq!(*id, bounds.len(), "NaN belongs to the last bucket");
            }
        }
    }
}
