//! Order statistics the reports are built from.

/// Latency charged to a request that failed: the client's read timeout,
/// so a failure misses any latency limit without making a percentile
/// infinite.
pub const FAILED_LATENCY_NS: u64 = 60_000_000_000;

/// Nearest-rank index of the `q`-quantile in a sorted sample of `n`.
pub fn percentile_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    ((n as f64 * q).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile of an ascending sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[percentile_index(sorted.len(), q)]
}

/// Mean of the order statistics from the `lo`- to the `hi`-quantile of an
/// ascending sample. A single order statistic sits wherever the
/// distribution puts it — in a trough between two modes it moves a long
/// way for a small shift — while a band averages over the neighbourhood.
pub fn band_mean(sorted: &[u64], lo: f64, hi: f64) -> f64 {
    let (first, last) = (
        percentile_index(sorted.len(), lo),
        percentile_index(sorted.len(), hi),
    );
    let band = &sorted[first..=last.max(first)];
    band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn share(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_index_is_nearest_rank() {
        assert_eq!(percentile_index(1, 0.5), 0);
        assert_eq!(percentile_index(10, 0.5), 4);
        assert_eq!(percentile_index(10, 0.95), 9);
        assert_eq!(percentile_index(200, 0.95), 189);
        assert_eq!(percentile_index(200, 1.0), 199);
        assert_eq!(percentile_index(200, 0.0), 0);
        // p95 of 200 leaves exactly ten samples beyond it.
        assert_eq!(200 - 1 - percentile_index(200, 0.95), 10);
    }

    #[test]
    fn a_failure_is_a_miss_in_the_tail() {
        let mut sample: Vec<u64> = (1..=99).collect();
        sample.push(FAILED_LATENCY_NS);
        sample.sort_unstable();
        assert_eq!(percentile(&sample, 0.5), 50);
        assert_eq!(percentile(&sample, 0.995), FAILED_LATENCY_NS);
    }

    #[test]
    fn band_mean_averages_the_order_statistics_in_the_band() {
        let sample: Vec<u64> = (1..=100).collect();
        // Ranks 25..=75 of 1..=100.
        assert_eq!(band_mean(&sample, 0.25, 0.75), 50.0);
        assert_eq!(band_mean(&sample, 0.90, 0.99), 94.5);
        assert_eq!(band_mean(&sample, 0.5, 0.5), 50.0);
        assert_eq!(band_mean(&[7], 0.25, 0.75), 7.0);
        // A failure above the band's top does not enter it; one inside does.
        let mut tail = sample.clone();
        tail[99] = FAILED_LATENCY_NS;
        assert_eq!(band_mean(&tail, 0.90, 0.99), 94.5);
        tail[98] = FAILED_LATENCY_NS;
        assert!(band_mean(&tail, 0.90, 0.99) > 1e9);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
