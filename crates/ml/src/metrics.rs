//! Set-retrieval quality metrics.
//!
//! The paper measures answers in information-retrieval terms: with `C` the
//! true result set and `R` the returned set, precision is `|R∩C|/|R|` and
//! recall `|R∩C|/|C|` (§1). These helpers are used both by the pipelines
//! (to score an answer) and by the experiment harness (to verify
//! constraint satisfaction and, for the ML baselines, to find their
//! smallest sufficient training size).

/// Precision/recall of a returned row set against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrSummary {
    /// `|R ∩ C| / |R|`; defined as 1 when nothing is returned (an empty
    /// answer asserts nothing false).
    pub precision: f64,
    /// `|R ∩ C| / |C|`; defined as 1 when there are no correct tuples.
    pub recall: f64,
    /// Number of returned rows `|R|`.
    pub returned: usize,
    /// Number of returned correct rows `|R ∩ C|`.
    pub true_positives: usize,
    /// Number of correct rows overall `|C|`.
    pub total_correct: usize,
}

impl PrSummary {
    /// The summary of an answer of `returned` rows, `true_positives` of
    /// them among the `total_correct` correct ones — for callers that
    /// hold the sets as bit planes and count with popcounts.
    pub fn from_counts(returned: usize, true_positives: usize, total_correct: usize) -> Self {
        let precision = if returned == 0 {
            1.0
        } else {
            true_positives as f64 / returned as f64
        };
        let recall = if total_correct == 0 {
            1.0
        } else {
            true_positives as f64 / total_correct as f64
        };
        Self {
            precision,
            recall,
            returned,
            true_positives,
            total_correct,
        }
    }

    /// Whether this outcome meets the paper's `(α, β)` constraints.
    pub fn meets(&self, alpha: f64, beta: f64) -> bool {
        self.precision >= alpha && self.recall >= beta
    }
}

/// Computes precision/recall for a returned set of row ids against a
/// per-row truth vector.
///
/// # Panics
///
/// If a returned row id is out of range for `truth`.
pub fn precision_recall(returned: impl IntoIterator<Item = usize>, truth: &[bool]) -> PrSummary {
    let total_correct = truth.iter().filter(|&&t| t).count();
    let mut num_returned = 0;
    let mut true_positives = 0;
    for r in returned {
        assert!(r < truth.len(), "returned row {r} out of range");
        num_returned += 1;
        if truth[r] {
            true_positives += 1;
        }
    }
    PrSummary::from_counts(num_returned, true_positives, total_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        let truth = [true, false, true, true, false];
        let s = precision_recall([0, 1, 2], &truth);
        assert_eq!(s.true_positives, 2);
        assert_eq!(s.returned, 3);
        assert_eq!(s.total_correct, 3);
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_returned_set() {
        let truth = [true, false];
        let s = precision_recall([], &truth);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 0.0);
    }

    #[test]
    fn no_correct_tuples() {
        let truth = [false, false];
        let s = precision_recall([0], &truth);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.precision, 0.0);
    }

    #[test]
    fn perfect_answer() {
        let truth = [true, false, true];
        let s = precision_recall([0, 2], &truth);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert!(s.meets(0.99, 0.99));
    }

    #[test]
    fn meets_respects_both_bounds() {
        let truth = [true, true, false, false];
        let s = precision_recall([0, 2], &truth); // p = 0.5, r = 0.5
        assert!(s.meets(0.5, 0.5));
        assert!(!s.meets(0.6, 0.5));
        assert!(!s.meets(0.5, 0.6));
    }

    #[test]
    #[should_panic]
    fn out_of_range_returned_row_panics() {
        precision_recall([5], &[true]);
    }
}
