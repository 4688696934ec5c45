//! The paper's two machine-learning baselines (§6.2).
//!
//! * **Learning** (semi-supervised self-training): evaluate a labelled
//!   seed, train a classifier, optionally absorb confident pseudo-labels
//!   and retrain, then "return the tuples that originally evaluated to
//!   true as well as those estimated to be true".
//! * **Multiple** (multiple imputations): instead of thresholding the
//!   class probabilities, draw several imputed completions of the
//!   unlabelled tuples from those probabilities; constraints are then
//!   checked *on average across the imputed datasets*.

use expred_ml::features::FeatureMatrix;
use expred_ml::logistic::{train, LogisticModel, TrainConfig};
use expred_stats::rng::Prng;

/// Configuration for self-training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTrainConfig {
    /// Total training rounds (1 = plain supervised training).
    pub rounds: usize,
    /// Pseudo-label confidence threshold: unlabelled rows with predicted
    /// probability ≥ this (or ≤ 1−this) join the training set.
    pub confidence: f64,
    /// Underlying logistic-regression hyperparameters.
    pub train: TrainConfig,
}

impl Default for SelfTrainConfig {
    fn default() -> Self {
        Self {
            rounds: 2,
            confidence: 0.9,
            train: TrainConfig::default(),
        }
    }
}

/// Output of a self-training run.
#[derive(Debug, Clone)]
pub struct SelfTrainOutcome {
    /// The final trained model.
    pub model: LogisticModel,
    /// Predicted probability for every row of the feature matrix.
    pub probabilities: Vec<f64>,
}

/// Runs self-training from a labelled seed.
///
/// `labelled` are row indices with known `labels`; all remaining feature
/// rows are treated as unlabelled.
pub fn self_train(
    features: &FeatureMatrix,
    labelled: &[usize],
    labels: &[bool],
    config: SelfTrainConfig,
) -> SelfTrainOutcome {
    assert_eq!(labelled.len(), labels.len());
    assert!(config.rounds >= 1, "need at least one training round");
    let labelled_set: std::collections::HashSet<usize> = labelled.iter().copied().collect();

    let mut train_rows: Vec<usize> = labelled.to_vec();
    let mut train_labels: Vec<bool> = labels.to_vec();
    let mut model = train(features, &train_rows, &train_labels, config.train);

    for _ in 1..config.rounds {
        // Absorb confident pseudo-labels from the unlabelled pool.
        train_rows = labelled.to_vec();
        train_labels = labels.to_vec();
        for r in 0..features.rows() {
            if labelled_set.contains(&r) {
                continue;
            }
            let p = model.predict(features.row(r));
            if p >= config.confidence {
                train_rows.push(r);
                train_labels.push(true);
            } else if p <= 1.0 - config.confidence {
                train_rows.push(r);
                train_labels.push(false);
            }
        }
        model = train(features, &train_rows, &train_labels, config.train);
    }

    let probabilities = model.predict_all(features);
    SelfTrainOutcome {
        model,
        probabilities,
    }
}

/// The returned set of the **Learning** baseline: rows whose evaluated
/// label was true, plus unlabelled rows predicted true.
pub fn learning_returned_set(
    outcome: &SelfTrainOutcome,
    labelled: &[usize],
    labels: &[bool],
) -> Vec<usize> {
    let labelled_set: std::collections::HashSet<usize> = labelled.iter().copied().collect();
    let mut out: Vec<usize> = labelled
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l)
        .map(|(&r, _)| r)
        .collect();
    for (r, &p) in outcome.probabilities.iter().enumerate() {
        if !labelled_set.contains(&r) && p > 0.5 {
            out.push(r);
        }
    }
    out.sort_unstable();
    out
}

/// Draws `count` independent imputed completions (the **Multiple**
/// baseline): in each, evaluated labels stay fixed and unlabelled rows
/// get labels drawn from their predicted probabilities.
pub fn multiple_imputations(
    outcome: &SelfTrainOutcome,
    labelled: &[usize],
    labels: &[bool],
    count: usize,
    rng: &mut Prng,
) -> Vec<Vec<bool>> {
    (0..count)
        .map(|i| {
            let mut child = rng.fork(i as u64);
            let mut imputed: Vec<bool> = outcome
                .probabilities
                .iter()
                .map(|&p| child.bernoulli(p))
                .collect();
            for (&r, &l) in labelled.iter().zip(labels) {
                imputed[r] = l;
            }
            imputed
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_ml::features::{extract_features, FeatureSpec};
    use expred_table::{DataType, Field, Schema, Table, Value};

    /// 200 rows, signal x separates the classes with a little noise.
    fn noisy_problem() -> (FeatureMatrix, Vec<bool>) {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..200 {
            let x = (i as f64 - 99.5) / 20.0;
            rows.push(vec![Value::Float(x)]);
            // Deterministic "noise": a band near the boundary flips.
            let label = if i % 37 == 0 { x <= 0.0 } else { x > 0.0 };
            truth.push(label);
        }
        let table = Table::from_rows(schema, rows).unwrap();
        (
            extract_features(&table, &[], FeatureSpec::default(), None),
            truth,
        )
    }

    #[test]
    fn self_training_improves_or_matches_seed_coverage() {
        let (features, truth) = noisy_problem();
        // Seed: every 10th row labelled.
        let labelled: Vec<usize> = (0..200).step_by(10).collect();
        let labels: Vec<bool> = labelled.iter().map(|&r| truth[r]).collect();
        let outcome = self_train(&features, &labelled, &labels, SelfTrainConfig::default());
        let correct = (0..200)
            .filter(|&r| (outcome.probabilities[r] > 0.5) == truth[r])
            .count();
        assert!(correct >= 175, "self-training accuracy {correct}/200");
    }

    #[test]
    fn returned_set_includes_evaluated_trues() {
        let (features, truth) = noisy_problem();
        let labelled: Vec<usize> = vec![0, 5, 150, 199];
        let labels: Vec<bool> = labelled.iter().map(|&r| truth[r]).collect();
        let outcome = self_train(&features, &labelled, &labels, SelfTrainConfig::default());
        let returned = learning_returned_set(&outcome, &labelled, &labels);
        for (&r, &l) in labelled.iter().zip(&labels) {
            assert_eq!(returned.contains(&r), l, "row {r}");
        }
    }

    #[test]
    fn imputations_respect_evaluated_labels() {
        let (features, truth) = noisy_problem();
        let labelled: Vec<usize> = (0..200).step_by(7).collect();
        let labels: Vec<bool> = labelled.iter().map(|&r| truth[r]).collect();
        let outcome = self_train(&features, &labelled, &labels, SelfTrainConfig::default());
        let mut rng = Prng::seeded(3);
        let imputations = multiple_imputations(&outcome, &labelled, &labels, 5, &mut rng);
        assert_eq!(imputations.len(), 5);
        for imp in &imputations {
            for (&r, &l) in labelled.iter().zip(&labels) {
                assert_eq!(imp[r], l, "labelled rows must keep their labels");
            }
        }
    }

    #[test]
    fn imputations_vary_on_uncertain_rows() {
        let (features, truth) = noisy_problem();
        let labelled: Vec<usize> = (0..200).step_by(50).collect();
        let labels: Vec<bool> = labelled.iter().map(|&r| truth[r]).collect();
        let outcome = self_train(&features, &labelled, &labels, SelfTrainConfig::default());
        let mut rng = Prng::seeded(4);
        let imputations = multiple_imputations(&outcome, &labelled, &labels, 8, &mut rng);
        let differing = (0..200).any(|r| {
            let first = imputations[0][r];
            imputations.iter().any(|imp| imp[r] != first)
        });
        assert!(differing, "independent imputations should not be identical");
    }

    #[test]
    fn single_round_is_plain_supervised() {
        let (features, truth) = noisy_problem();
        let labelled: Vec<usize> = (0..200).step_by(4).collect();
        let labels: Vec<bool> = labelled.iter().map(|&r| truth[r]).collect();
        let one = self_train(
            &features,
            &labelled,
            &labels,
            SelfTrainConfig {
                rounds: 1,
                ..SelfTrainConfig::default()
            },
        );
        let direct = train(&features, &labelled, &labels, TrainConfig::default());
        assert_eq!(one.model, direct);
    }
}
