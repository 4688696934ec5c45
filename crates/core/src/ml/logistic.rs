//! Logistic regression, trained with full-batch gradient descent.
//!
//! This is the regressor behind the paper's *virtual column* (§4.4 second
//! method, §6.3.2) and its semi-supervised baselines (§6.2). Zero
//! initialization plus full-batch gradients keep training fully
//! deterministic; features are expected standardized (see
//! [`crate::ml::features`]), which makes a fixed step size reliable.

use crate::ml::features::FeatureMatrix;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximum full-batch epochs.
    pub epochs: usize,
    /// Step size (safe for standardized features).
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Stop early when the loss improves less than this per epoch.
    pub tolerance: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 300,
            learning_rate: 0.5,
            l2: 1e-4,
            tolerance: 1e-7,
        }
    }
}

/// A trained logistic model `P(y=1 | x) = σ(w·x + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticModel {
    /// Trained weights (one per feature).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Predicted probability for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.weights.len());
        let z: f64 = self.bias + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
        sigmoid(z)
    }

    /// Predicted probabilities for every matrix row.
    pub fn predict_all(&self, features: &FeatureMatrix) -> Vec<f64> {
        (0..features.rows())
            .map(|r| self.predict(features.row(r)))
            .collect()
    }
}

/// Trains on the given rows of `features` with boolean targets.
///
/// `rows` and `targets` must be parallel and nonempty. Degenerate
/// single-class training sets are handled (the model converges to a
/// constant probability near the class rate).
pub fn train(
    features: &FeatureMatrix,
    rows: &[usize],
    targets: &[bool],
    config: TrainConfig,
) -> LogisticModel {
    assert_eq!(rows.len(), targets.len(), "rows/targets must be parallel");
    assert!(!rows.is_empty(), "cannot train on an empty sample");
    let dim = features.dim();
    let n = rows.len() as f64;
    let mut weights = vec![0.0; dim];
    let mut bias = 0.0;
    let mut prev_loss = f64::INFINITY;
    let mut lr = config.learning_rate;

    for _ in 0..config.epochs {
        let mut grad_w = vec![0.0; dim];
        let mut grad_b = 0.0;
        let mut loss = 0.0;
        for (&r, &y) in rows.iter().zip(targets) {
            let x = features.row(r);
            let p = {
                let z: f64 = bias + weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
                sigmoid(z)
            };
            let err = p - if y { 1.0 } else { 0.0 };
            for (g, &v) in grad_w.iter_mut().zip(x) {
                *g += err * v;
            }
            grad_b += err;
            // Cross-entropy with clamping for numerical safety.
            let p_safe = p.clamp(1e-12, 1.0 - 1e-12);
            loss -= if y { p_safe.ln() } else { (1.0 - p_safe).ln() };
        }
        loss /= n;
        for (g, w) in grad_w.iter_mut().zip(&weights) {
            *g = *g / n + config.l2 * w;
        }
        grad_b /= n;
        // Simple backtracking: if the loss increased, halve the step.
        if loss > prev_loss + 1e-12 {
            lr *= 0.5;
            if lr < 1e-6 {
                break;
            }
        } else if prev_loss - loss < config.tolerance {
            break;
        }
        prev_loss = loss;
        for (w, g) in weights.iter_mut().zip(&grad_w) {
            *w -= lr * g;
        }
        bias -= lr * grad_b;
    }
    LogisticModel { weights, bias }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::features::extract_features;
    use expred_table::{DataType, Field, Schema, Table, Value};

    /// A linearly separable 1-D problem: x < 0 -> false, x > 0 -> true.
    fn separable_matrix() -> (FeatureMatrix, Vec<usize>, Vec<bool>) {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for i in 0..100 {
            let x = (i as f64 - 49.5) / 10.0;
            rows.push(vec![Value::Float(x)]);
            targets.push(x > 0.0);
        }
        let table = Table::from_rows(schema, rows).unwrap();
        let features = extract_features(&table, &[], None);
        ((features), (0..100).collect(), targets)
    }

    #[test]
    fn learns_separable_boundary() {
        let (features, rows, targets) = separable_matrix();
        let model = train(&features, &rows, &targets, TrainConfig::default());
        let mut correct = 0;
        for (&r, &y) in rows.iter().zip(&targets) {
            let p = model.predict(features.row(r));
            if (p > 0.5) == y {
                correct += 1;
            }
        }
        assert!(correct >= 98, "classified {correct}/100");
        assert!(model.weights()[0] > 0.0, "positive slope expected");
    }

    #[test]
    fn probabilities_are_monotone_in_signal() {
        let (features, rows, targets) = separable_matrix();
        let model = train(&features, &rows, &targets, TrainConfig::default());
        let probs = model.predict_all(&features);
        for w in probs.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "monotone in x");
        }
    }

    #[test]
    fn single_class_training_is_stable() {
        let (features, rows, _) = separable_matrix();
        let targets = vec![true; rows.len()];
        let model = train(&features, &rows, &targets, TrainConfig::default());
        let p = model.predict(features.row(50));
        assert!(p > 0.8, "all-true sample must predict high probability");
        assert!(p.is_finite());
    }

    #[test]
    fn training_is_deterministic() {
        let (features, rows, targets) = separable_matrix();
        let a = train(&features, &rows, &targets, TrainConfig::default());
        let b = train(&features, &rows, &targets, TrainConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn l2_shrinks_weights() {
        let (features, rows, targets) = separable_matrix();
        let loose = train(
            &features,
            &rows,
            &targets,
            TrainConfig {
                l2: 0.0,
                ..TrainConfig::default()
            },
        );
        let tight = train(
            &features,
            &rows,
            &targets,
            TrainConfig {
                l2: 1.0,
                ..TrainConfig::default()
            },
        );
        assert!(tight.weights()[0].abs() < loose.weights()[0].abs());
    }

    #[test]
    fn sigmoid_extremes_are_safe() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_training_panics() {
        let (features, _, _) = separable_matrix();
        train(&features, &[], &[], TrainConfig::default());
    }
}
