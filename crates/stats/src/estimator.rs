//! Selectivity estimates.
//!
//! Every optimizer in `expred-core` consumes selectivity information in the
//! same shape: a mean and a variance per group. This module defines that
//! shape, [`SelectivityEstimate`], built from a sample the way the paper
//! does (§4.1): the moments of the posterior `Beta(F⁺+1, F⁻+1)`, mean
//! `(F⁺+1)/(F+2)` and variance `s(1-s)/(F+3)`. [`beta_variance`] is that
//! variance at any mean and any number of draws, which is how §4.3's
//! search predicts an estimate after draws it has not made yet.

/// An uncertain estimate of one group's selectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityEstimate {
    mean: f64,
    variance: f64,
}

impl SelectivityEstimate {
    /// The Beta-posterior estimate after observing `positives` of `samples`
    /// evaluated tuples satisfy the predicate (paper §4.1): the mean and
    /// variance of `Beta(a, b)` with `a = F⁺+1`, `b = F⁻+1`.
    pub fn from_sample(positives: u64, samples: u64) -> Self {
        assert!(positives <= samples, "positives cannot exceed trials");
        let a = positives as f64 + 1.0;
        let b = (samples - positives) as f64 + 1.0;
        let s = a + b;
        Self {
            mean: a / s,
            variance: a * b / (s * s * (s + 1.0)),
        }
    }

    /// Estimated selectivity mean `s_a`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Estimate variance `v_a`.
    pub fn variance(&self) -> f64 {
        self.variance
    }
}

/// The variance `mean (1 − mean) / (draws + 3)` of a Beta posterior
/// with mean `mean` after `draws` evaluated tuples: at integer draws and
/// the mean they give, [`SelectivityEstimate::from_sample`]'s variance.
/// Keeping a group's mean and adding the draws still to come predicts
/// its variance after them.
pub fn beta_variance(mean: f64, draws: f64) -> f64 {
    mean * (1.0 - mean) / (draws + 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_estimate_matches_paper_formulas() {
        let e = SelectivityEstimate::from_sample(90, 100);
        assert!((e.mean() - 91.0 / 102.0).abs() < 1e-12);
        let s = e.mean();
        assert!((e.variance() - s * (1.0 - s) / 103.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_moments_match_paper_formulas() {
        // Paper §4.1: s_a = (F⁺+1)/(F+2), v_a = s_a(1-s_a)/(F+3).
        let cases = [(0u64, 0u64), (5, 10), (90, 100), (0, 7), (7, 7)];
        for (pos, n) in cases {
            let e = SelectivityEstimate::from_sample(pos, n);
            let s = (pos as f64 + 1.0) / (n as f64 + 2.0);
            let v = s * (1.0 - s) / (n as f64 + 3.0);
            assert!((e.mean() - s).abs() < 1e-12, "mean for ({pos},{n})");
            assert!((e.variance() - v).abs() < 1e-12, "var for ({pos},{n})");
        }
        // Bit for bit, the closed forms of the posterior's moments:
        // (p+1)/(n+2) and (p+1)(n−p+1)/((n+2)²(n+3)).
        for n in 0..=64u64 {
            for p in 0..=n {
                let e = SelectivityEstimate::from_sample(p, n);
                let (a, b, s) = (p as f64 + 1.0, (n - p) as f64 + 1.0, n as f64 + 2.0);
                assert_eq!(e.mean().to_bits(), (a / s).to_bits(), "mean ({p},{n})");
                assert_eq!(
                    e.variance().to_bits(),
                    (a * b / (s * s * (n as f64 + 3.0))).to_bits(),
                    "variance ({p},{n})"
                );
            }
        }
    }

    #[test]
    fn beta_variance_is_the_posterior_variance_at_its_mean() {
        for n in 0..=64u64 {
            for p in 0..=n {
                let e = SelectivityEstimate::from_sample(p, n);
                let v = beta_variance(e.mean(), n as f64);
                assert!(
                    (v - e.variance()).abs() <= 1e-14 * e.variance(),
                    "({p},{n})"
                );
            }
        }
        // More draws at the same mean, less variance.
        assert!(beta_variance(0.3, 40.5) < beta_variance(0.3, 40.0));
    }

    #[test]
    fn no_samples_gives_uniform_prior() {
        let e = SelectivityEstimate::from_sample(0, 0);
        assert!((e.mean() - 0.5).abs() < 1e-12);
        assert!((e.variance() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positives cannot exceed trials")]
    fn posterior_rejects_excess_positives() {
        SelectivityEstimate::from_sample(4, 3);
    }

    #[test]
    fn more_samples_shrink_variance() {
        let small = SelectivityEstimate::from_sample(5, 10);
        let large = SelectivityEstimate::from_sample(500, 1000);
        assert!(large.variance() < small.variance());
    }
}
