//! Property tests for the ML substrate.

use expred_ml::features::{extract_features, FeatureSpec};
use expred_ml::logistic::{train, TrainConfig};
use expred_ml::metrics::precision_recall;
use expred_table::{DataType, Field, Schema, Table, Value};
use proptest::prelude::*;

fn table_from(xs: &[f64]) -> Table {
    let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
    let rows = xs.iter().map(|&x| vec![Value::Float(x)]).collect();
    Table::from_rows(schema, rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn predictions_are_probabilities(
        xs in prop::collection::vec(-100.0f64..100.0, 4..100),
        flips in prop::collection::vec(any::<bool>(), 4..100),
    ) {
        let n = xs.len().min(flips.len());
        let table = table_from(&xs[..n]);
        let features = extract_features(&table, &[], FeatureSpec::default(), None);
        let rows: Vec<usize> = (0..n).collect();
        let model = train(&features, &rows, &flips[..n], TrainConfig::default());
        for r in 0..n {
            let p = model.predict(features.row(r));
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn separable_data_learned_reliably(boundary in -5.0f64..5.0, seed_shift in 0.5f64..3.0) {
        let xs: Vec<f64> = (0..80).map(|i| boundary + (i as f64 - 39.5) * seed_shift / 10.0).collect();
        let labels: Vec<bool> = xs.iter().map(|&x| x > boundary).collect();
        let table = table_from(&xs);
        let features = extract_features(&table, &[], FeatureSpec::default(), None);
        let rows: Vec<usize> = (0..xs.len()).collect();
        let model = train(&features, &rows, &labels, TrainConfig::default());
        let correct = rows
            .iter()
            .filter(|&&r| (model.predict(features.row(r)) > 0.5) == labels[r])
            .count();
        prop_assert!(correct >= 76, "accuracy {correct}/80");
    }

    #[test]
    fn precision_recall_bounds(truth in prop::collection::vec(any::<bool>(), 1..120), mask in prop::collection::vec(any::<bool>(), 1..120)) {
        let n = truth.len().min(mask.len());
        // The returned rows are the mask's true indices.
        let returned = mask[..n].iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i);
        let s = precision_recall(returned, &truth[..n]);
        prop_assert!((0.0..=1.0).contains(&s.precision));
        prop_assert!((0.0..=1.0).contains(&s.recall));
        prop_assert!(s.true_positives <= s.returned);
        prop_assert!(s.true_positives <= s.total_correct || s.total_correct == 0);
    }

    #[test]
    fn perfect_prediction_gives_perfect_metrics(truth in prop::collection::vec(any::<bool>(), 1..120)) {
        let returned: Vec<usize> = truth
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| i)
            .collect();
        let s = precision_recall(returned.iter().copied(), &truth);
        prop_assert_eq!(s.precision, 1.0);
        prop_assert_eq!(s.recall, 1.0);
    }
}
