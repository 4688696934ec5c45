//! Streaming descriptive statistics.
//!
//! Used throughout the workspace: the dataset generators are calibrated
//! against the paper's Table 3 (group-size deviation, group-selectivity
//! deviation, and the Pearson correlation between size and selectivity),
//! and the experiment harness aggregates costs across iterations.

/// Welford's online mean/variance accumulator.
///
/// Numerically stable single-pass computation; `variance()` returns the
/// *population* variance (divide by `n`) and `sample_variance()` the
/// unbiased estimator (divide by `n-1`), matching how the paper reports
/// deviations of a fixed finite set of groups.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a slice in one pass.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut acc = Self::new();
        for &v in values {
            acc.push(v);
        }
        acc
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 1 observation).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (0 if fewer than 2 observations).
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel-friendly).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns 0 when either slice has zero variance (the paper's Table 3
/// correlation is undefined there; 0 is the conventional neutral report).
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal-length inputs");
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let mean_x = xs.iter().sum::<f64>() / n as f64;
    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let (mut cov, mut var_x, mut var_y) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let dx = xs[i] - mean_x;
        let dy = ys[i] - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x <= 0.0 || var_y <= 0.0 {
        return 0.0;
    }
    cov / (var_x.sqrt() * var_y.sqrt())
}

/// Linear-interpolated quantile of an *unsorted* slice (`q ∈ [0, 1]`).
///
/// Panics on empty input or out-of-range `q`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let acc = Accumulator::from_slice(&xs);
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert!((acc.variance() - 4.0).abs() < 1e-12);
        assert!((acc.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let acc = Accumulator::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.sample_variance(), 0.0);
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let acc = Accumulator::from_slice(&[1.0, 3.0]);
        assert!((acc.sample_variance() - 2.0).abs() < 1e-12);
        assert!((acc.variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let full = Accumulator::from_slice(&xs);
        let mut left = Accumulator::from_slice(&xs[..37]);
        let right = Accumulator::from_slice(&xs[37..]);
        left.merge(&right);
        assert_eq!(left.count(), full.count());
        assert!((left.mean() - full.mean()).abs() < 1e-10);
        assert!((left.variance() - full.variance()).abs() < 1e-10);
        assert_eq!(left.min(), full.min());
        assert_eq!(left.max(), full.max());
    }

    #[test]
    fn pearson_perfect_correlations() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed small example.
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 2.0];
        let r = pearson(&xs, &ys);
        assert!((r - 0.866_025_403_784_438_6).abs() < 1e-12, "r={r}");
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_empty() {
        quantile(&[], 0.5);
    }
}
