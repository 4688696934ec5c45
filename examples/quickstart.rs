//! Quickstart: approximate an expensive-predicate selection on a small
//! hand-built table.
//!
//! ```text
//! cargo run --release --example quickstart [-- --pool]
//! ```
//!
//! The query is the paper's running example: `SELECT * FROM R WHERE
//! f(ID) = 1` with three groups of customers whose attribute `A`
//! correlates with the (expensive) credit check `f`. We ask for 90%
//! precision and recall with 90% confidence, and compare the cost against
//! evaluating the UDF on every tuple. With `--pool`, UDF probes run
//! through the `expred-exec` worker pool — same answer and same bill,
//! batched across worker threads.

use expred::cli::ExampleCli;
use expred::core::metrics::precision_recall;
use expred::core::{
    execute_plan, solve_estimated, truth_vector, CorrelationModel, Ledger, QuerySpec,
    SampleSizeRule,
};
use expred::exec::ExecContext;
use expred::stats::Prng;
use expred::table::{DataType, Field, RowSet, Schema, Table, Value};
use expred::udf::{CostModel, OracleUdf, UdfInvoker};

fn main() {
    let backend = ExampleCli::new(
        "quickstart",
        "the paper's running example: approximate an expensive-predicate selection",
    )
    .parse_backend();
    println!("{}", backend.banner());
    let executor = backend.executor();
    let ctx = ExecContext::new(executor.as_ref());
    // Build the example relation: 3000 tuples, attribute A in {1,2,3} with
    // selectivities 0.9 / 0.5 / 0.1 for the hidden predicate.
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::new("good_credit", DataType::Bool),
    ]);
    let mut table = Table::empty(schema);
    let mut rng = Prng::seeded(1);
    for (a, sel) in [(1i64, 0.9f64), (2, 0.5), (3, 0.1)] {
        for _ in 0..1000 {
            let label = rng.bernoulli(sel);
            table
                .push_row(vec![Value::Int(a), Value::Bool(label)])
                .unwrap();
        }
    }

    // The expensive UDF: a credit check, modelled by the hidden column and
    // audited by the invoker (every retrieval and evaluation is charged).
    let udf = OracleUdf::new("good_credit");
    let invoker = UdfInvoker::new(&udf, &table);
    let spec =
        QuerySpec::try_new(0.9, 0.9, 0.9, CostModel::PAPER_DEFAULT).expect("contract in range");

    // Step 1 — estimate correlations: group by A and sample 5%. The
    // ledger holds what the query knows of each group.
    let groups = table.group_by("a").expect("column a exists");
    let mut ledger = Ledger::open(&groups, &invoker);
    ledger.sample(SampleSizeRule::Fraction(0.05), &mut rng, &ctx);
    let est = ledger.estimated_groups();
    for (key, group) in groups.keys().iter().zip(&est) {
        println!(
            "group A={key}: sampled {} tuples, estimated selectivity {:.2}",
            group.sampled, group.sel
        );
    }

    // Step 2 — optimize and execute.
    let plan = solve_estimated(&est, &spec, CorrelationModel::Independent)
        .expect("constraints are satisfiable");
    for (g, key) in groups.keys().iter().enumerate() {
        println!(
            "plan for A={key}: retrieve {:.2}, evaluate {:.2}",
            plan.r()[g],
            plan.e()[g]
        );
    }
    let mut returned = RowSet::new(table.num_rows());
    execute_plan(
        &plan,
        &mut ledger,
        groups.row_plane(),
        &mut rng,
        &ctx,
        &mut returned,
    )
    .expect("one plan group per group");

    // Report: achieved accuracy and cost vs the evaluate-everything bound.
    let truth = truth_vector(&table, "good_credit");
    let summary = precision_recall(returned.iter().map(|r| r as usize), &truth);
    let counts = invoker.counts();
    println!(
        "\nreturned {} tuples: precision {:.3}, recall {:.3}",
        summary.returned, summary.precision, summary.recall
    );
    println!(
        "UDF evaluations: {} (evaluating everything would need {})",
        counts.evaluated,
        table.num_rows()
    );
    println!("bill breakdown: {counts}");
    println!(
        "total cost: {} (vs {} for evaluate-everything)",
        counts.cost(&spec.cost),
        CostModel::PAPER_DEFAULT.total(table.num_rows() as u64, table.num_rows() as u64)
    );
}
