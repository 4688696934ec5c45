//! Property tests for the core optimizers and executor.

use expred_core::execute::execute_plan;
use expred_core::optimize::{
    estimated_feasible, solve_estimated, solve_perfect_selectivities, CorrelationModel,
    EstimatedGroup,
};
use expred_core::plan::Plan;
use expred_core::query::QuerySpec;
use expred_exec::ExecContext;
use expred_stats::bounds::{precision_slack, recall_slack};
use expred_stats::rng::Prng;
use expred_table::{DataType, Field, GroupBy, Schema, Table, Value};
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
        let result =
            execute_plan(&plan, &groups, &invoker, &mut rng, &ExecContext::sequential()).unwrap();
        let counts = invoker.counts();
        // Everything evaluated was retrieved first.
        prop_assert!(counts.evaluated <= counts.retrieved);
        // Returned rows that were evaluated must satisfy the predicate.
        for &row in &result.returned {
            if let Some(answer) = invoker.memoized(row as usize) {
                prop_assert!(answer, "returned an evaluated-false row");
            }
        }
        // Unevaluated returns + evaluated-true = returned.
        let evaluated_true = result
            .returned
            .iter()
            .filter(|&&row| invoker.memoized(row as usize) == Some(true))
            .count();
        let unevaluated_returns = result.returned.len() - evaluated_true;
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
        let result = execute_plan(&Plan::evaluate_all(1), &groups, &invoker, &mut rng, &ExecContext::sequential())
            .unwrap();
        let want: Vec<u32> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(result.returned, want);
    }
}
