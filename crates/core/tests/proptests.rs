//! Property tests for the core optimizers and executor.

use expred_core::execute::execute_plan;
use expred_core::metrics::precision_recall;
use expred_core::ml::features::extract_features;
use expred_core::ml::logistic::{train, TrainConfig};
use expred_core::optimize::{
    estimated_feasible, solve_estimated, solve_perfect_selectivities, CorrelationModel,
    EstimatedGroup,
};
use expred_core::plan::Plan;
use expred_core::query::QuerySpec;
use expred_core::sampling::Ledger;
use expred_exec::ExecContext;
use expred_stats::bounds::{precision_slack, recall_slack};
use expred_stats::rng::Prng;
use expred_table::{DataType, Field, GroupBy, RowSet, Schema, Table, Value};
use expred_udf::{CostModel, OracleUdf, UdfInvoker};
use lp::LpOutcome;
use proptest::prelude::*;

/// The solver crate's simplex oracle.
#[path = "../../solver/tests/lp/mod.rs"]
mod lp;

/// Random group statistics in the paper's ranges.
fn group_stats() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((50usize..3000, 0.02f64..0.98), 2..9).prop_map(|raw| {
        let sizes = raw.iter().map(|&(t, _)| t as f64).collect();
        let sels = raw.iter().map(|&(_, s)| s).collect();
        (sizes, sels)
    })
}

fn specs() -> impl Strategy<Value = QuerySpec> {
    (0.3f64..0.95, 0.3f64..0.95, 0.5f64..0.95)
        .prop_map(|(a, b, r)| QuerySpec::new(a, b, r, CostModel::PAPER_DEFAULT))
}

/// The over-retrieval regime at more than 512 groups: BiGreedy's two
/// phases evaluate here, where retrieving more of the `s > α` class is
/// cheaper. 600 groups in two classes of 300: the LP is convex and
/// symmetric within a class, so one of its optima is constant on each
/// class, and the oracle solves the LP with each class merged into one
/// group.
#[test]
fn over_retrieval_plans_above_512_groups_cost_what_the_oracle_does() {
    let spec = QuerySpec::new(0.5, 0.1, 0.8, CostModel::PAPER_DEFAULT);
    let classes = [(1.0, 0.6), (2.0, 0.3)];
    let (sizes, sels): (Vec<f64>, Vec<f64>) = classes
        .iter()
        .flat_map(|&class| std::iter::repeat_n(class, 300))
        .unzip();
    let plan = solve_perfect_selectivities(&sizes, &sels, &spec).expect("feasible");
    let cost = plan.expected_cost(&sizes, &spec.cost);
    // LinearProg 3.4's targets, as `solve_perfect_selectivities` sets them.
    let n: f64 = sizes.iter().sum();
    let mass: f64 = sizes.iter().zip(&sels).map(|(t, s)| t * s).sum();
    let recall = spec.beta * mass + recall_slack(n, spec.beta, spec.rho);
    let precision = precision_slack(n, spec.rho);
    let merged = classes.map(|(t, _)| 300.0 * t);
    let merged_sels = classes.map(|(_, s)| s);
    let (alpha, costs) = (spec.alpha, spec.cost);
    let oracle = lp::paper_lp(
        &merged,
        &merged_sels,
        alpha,
        costs.retrieve,
        costs.evaluate,
        recall,
        precision,
    );
    match oracle.solve() {
        LpOutcome::Optimal(s) => assert!(
            (cost - s.objective).abs() <= 1e-9 * (1.0 + s.objective),
            "plan {cost} vs simplex {}",
            s.objective
        ),
        other => panic!("simplex failed: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn perfect_selectivity_plans_respect_bounds((sizes, sels) in group_stats(), spec in specs()) {
        if let Ok(plan) = solve_perfect_selectivities(&sizes, &sels, &spec) {
            prop_assert_eq!(plan.num_groups(), sizes.len());
            for (r, e) in plan.r().iter().zip(plan.e()) {
                prop_assert!((0.0..=1.0).contains(r));
                prop_assert!(*e >= 0.0 && *e <= *r + 1e-12);
            }
            // The recall LHS must cover beta * mass + the Hoeffding slack.
            let mass: f64 = sizes.iter().zip(&sels).map(|(t, s)| t * s).sum();
            let lhs: f64 = sizes
                .iter()
                .zip(sels.iter().zip(plan.r()))
                .map(|(t, (s, r))| t * s * r)
                .sum();
            prop_assert!(lhs >= spec.beta * mass - 1e-6);
        }
    }

    #[test]
    fn estimated_plans_always_verify((sizes, sels) in group_stats(), spec in specs(), samples in 10u64..400) {
        let groups: Vec<EstimatedGroup> = sizes
            .iter()
            .zip(&sels)
            .map(|(&t, &s)| {
                let f = (samples as f64).min(t);
                EstimatedGroup {
                    size: t,
                    sampled: f,
                    sampled_positive: (f * s).round(),
                    sel: s,
                    var: s * (1.0 - s) / (f + 3.0),
                }
            })
            .collect();
        for corr in [CorrelationModel::Independent, CorrelationModel::Unknown] {
            if let Ok(plan) = solve_estimated(&groups, &spec, corr) {
                let scale: f64 = 1.0 + groups.iter().map(|g| g.size).sum::<f64>();
                prop_assert!(
                    estimated_feasible(&groups, &plan, &spec, corr, 1e-4 * scale),
                    "{corr:?} plan failed its own feasibility check"
                );
            }
        }
    }

    #[test]
    fn tighter_beta_never_cheapens_the_plan((sizes, sels) in group_stats(), a in 0.3f64..0.9) {
        let loose = QuerySpec::new(a, 0.5, 0.8, CostModel::PAPER_DEFAULT);
        let tight = QuerySpec::new(a, 0.9, 0.8, CostModel::PAPER_DEFAULT);
        match (
            solve_perfect_selectivities(&sizes, &sels, &loose),
            solve_perfect_selectivities(&sizes, &sels, &tight),
        ) {
            (Ok(pl), Ok(pt)) => {
                let cl = pl.expected_cost(&sizes, &loose.cost);
                let ct = pt.expected_cost(&sizes, &tight.cost);
                prop_assert!(ct >= cl - 1e-6, "tight {ct} < loose {cl}");
            }
            (Err(_), Ok(_)) => prop_assert!(false, "loose infeasible but tight feasible"),
            _ => {}
        }
    }

    #[test]
    fn executor_accounting_identity(labels in prop::collection::vec(any::<bool>(), 20..300), r in 0.0f64..1.0, e_frac in 0.0f64..1.0, seed in any::<u64>()) {
        // retrieved = |returned ∩ unevaluated| + evaluated; every returned
        // evaluated row must be truly correct.
        let schema = Schema::new(vec![Field::new("label", DataType::Bool)]);
        let rows: Vec<Vec<Value>> = labels.iter().map(|&l| vec![Value::Bool(l)]).collect();
        let table = Table::from_rows(schema, rows).unwrap();
        let groups = GroupBy::new(
            "all".into(),
            vec![Value::Int(0)],
            vec![(0..labels.len() as u32).collect()],
            labels.len(),
        );
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let e = r * e_frac;
        let plan = Plan::new(vec![r], vec![e]);
        let mut rng = Prng::seeded(seed);
        let mut returned = RowSet::new(labels.len());
        let mut ledger = Ledger::open(&groups, &invoker);
        execute_plan(&plan, &mut ledger, groups.row_plane(), &mut rng, &ExecContext::sequential(), &mut returned)
            .unwrap();
        let counts = invoker.counts();
        // The ledger opened cold: what it holds is what was evaluated.
        prop_assert_eq!(ledger.estimated_groups()[0].sampled, counts.evaluated as f64);
        // Everything evaluated was retrieved first.
        prop_assert!(counts.evaluated <= counts.retrieved);
        // Returned rows that were evaluated must satisfy the predicate.
        for row in returned.iter() {
            if let Some(answer) = invoker.known_many([row as usize])[0] {
                prop_assert!(answer, "returned an evaluated-false row");
            }
        }
        // Unevaluated returns + evaluated-true = returned.
        let evaluated_true = returned
            .iter()
            .filter(|&row| invoker.known_many([row as usize])[0] == Some(true))
            .count();
        let unevaluated_returns = returned.len() - evaluated_true;
        prop_assert_eq!(
            counts.retrieved as usize,
            unevaluated_returns + counts.evaluated as usize
        );
    }

    #[test]
    fn deterministic_plans_are_exact(labels in prop::collection::vec(any::<bool>(), 10..200)) {
        // Plan::evaluate_all returns exactly the true set.
        let schema = Schema::new(vec![Field::new("label", DataType::Bool)]);
        let rows: Vec<Vec<Value>> = labels.iter().map(|&l| vec![Value::Bool(l)]).collect();
        let table = Table::from_rows(schema, rows).unwrap();
        let groups = GroupBy::new(
            "all".into(),
            vec![Value::Int(0)],
            vec![(0..labels.len() as u32).collect()],
            labels.len(),
        );
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let mut rng = Prng::seeded(1);
        let mut returned = RowSet::new(labels.len());
        let mut ledger = Ledger::open(&groups, &invoker);
        execute_plan(&Plan::evaluate_all(1), &mut ledger, groups.row_plane(), &mut rng, &ExecContext::sequential(), &mut returned)
            .unwrap();
        let want: Vec<u32> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(returned.to_vec(), want);
    }
}

// The learned predictor (`expred_core::ml`) and the precision/recall
// metrics (`expred_core::metrics`).

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
        let features = extract_features(&table, &[], None);
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
        let features = extract_features(&table, &[], None);
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
