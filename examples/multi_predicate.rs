//! Two chained expensive predicates (§5): trading accuracy between UDFs.
//!
//! ```text
//! cargo run --release --example multi_predicate [-- --pool]
//! ```
//!
//! `SELECT * FROM listings WHERE is_fraud_free(id) = 1 AND
//! passes_image_check(id) = 1` — both predicates are expensive, and the
//! image check costs twice the fraud check. The joint optimizer decides,
//! per correlation group, whether to return blindly, evaluate one
//! predicate and assume the other, or evaluate both (short-circuited).
//!
//! The demo then runs the predicates themselves as first-class
//! [`PredicateExpr`] requests through a `QueryEngine` session: the
//! conjunction is submitted as one `QueryRequest::expr_scan`, evaluated
//! in staged batches with the cheap predicate first; a follow-up
//! *disjunction* over the same predicates reuses every leaf answer the
//! conjunction already paid for, straight from the session cache.

use expred::cli::ExampleCli;
use expred::core::extensions::{solve_multi_predicate, MultiAction, MultiCost, PredicatePairGroup};
use expred::core::QueryRequest;
use expred::stats::Prng;
use expred::table::datasets::DatasetSpec;
use expred::table::datasets::PROSPER;
use expred::table::{DataType, Field, Schema, Table, Value};
use expred::udf::{CostModel, OracleUdf, Pred};

fn main() {
    let backend = ExampleCli::new(
        "multi_predicate",
        "two chained expensive predicates: joint planning + expression requests",
    )
    .parse_backend();
    println!("{}", backend.banner());
    // Groups from a hypothetical correlated attribute: (size, s1, s2).
    let groups = vec![
        PredicatePairGroup {
            size: 4000.0,
            s1: 0.95,
            s2: 0.90,
        },
        PredicatePairGroup {
            size: 3000.0,
            s1: 0.85,
            s2: 0.60,
        },
        PredicatePairGroup {
            size: 2000.0,
            s1: 0.50,
            s2: 0.80,
        },
        PredicatePairGroup {
            size: 1000.0,
            s1: 0.20,
            s2: 0.30,
        },
    ];
    let cost = MultiCost {
        retrieve: 1.0,
        eval1: 2.0, // fraud check
        eval2: 4.0, // image check
    };
    let (alpha, beta) = (0.85, 0.85);
    let plan = solve_multi_predicate(&groups, alpha, beta, &cost).expect("constraints satisfiable");

    println!("joint plan (alpha = {alpha}, beta = {beta}):");
    println!(
        "{:>5} {:>6} {:>5} {:>5} | {:>8} {:>8} {:>8} {:>8} {:>8}",
        "group", "size", "s1", "s2", "return", "eval-f1", "eval-f2", "both", "discard"
    );
    for (a, g) in groups.iter().enumerate() {
        println!(
            "{:>5} {:>6} {:>5.2} {:>5.2} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            a,
            g.size,
            g.s1,
            g.s2,
            plan.prob(a, MultiAction::Return),
            plan.prob(a, MultiAction::EvalFirst),
            plan.prob(a, MultiAction::EvalSecond),
            plan.prob(a, MultiAction::EvalBoth),
            plan.discard_prob(a),
        );
    }
    println!("\nexpected cost: {:.0}", plan.expected_cost);

    // Contrast: the naive conjunction evaluates both predicates on every
    // tuple (short-circuiting f2 behind f1).
    let naive: f64 = groups
        .iter()
        .map(|g| g.size * (cost.retrieve + cost.eval1 + g.s1 * cost.eval2))
        .sum();
    println!("evaluate-both-everywhere cost: {naive:.0}");
    println!(
        "joint optimization saves {:.0}%",
        100.0 * (1.0 - plan.expected_cost / naive)
    );

    // Runtime demo: the conjunction as a first-class expression request.
    let schema = Schema::new(vec![
        Field::new("fraud_free", DataType::Bool),
        Field::new("image_ok", DataType::Bool),
    ]);
    let mut table = Table::empty(schema);
    let mut rng = Prng::seeded(7);
    for g in &groups {
        let rows = (g.size / 10.0) as usize; // 1:10 scale model
        for _ in 0..rows {
            table
                .push_row(vec![
                    Value::Bool(rng.bernoulli(g.s1)),
                    Value::Bool(rng.bernoulli(g.s2)),
                ])
                .unwrap();
        }
    }
    let num_rows = table.num_rows();
    let ds = expred::table::datasets::Dataset {
        spec: DatasetSpec {
            rows: num_rows,
            ..PROSPER
        },
        table,
        seed: 7,
    };
    let engine = backend.engine();
    // Declared costs order the stages: the 2x-cheaper fraud check runs
    // first, the image check only on its survivors.
    let fraud_free = || Pred::udf_with_cost(OracleUdf::new("fraud_free"), 2.0);
    let image_ok = || Pred::udf_with_cost(OracleUdf::new("image_ok"), 4.0);

    let conjunction = engine
        .submit(
            &ds,
            &QueryRequest::expr_scan(fraud_free().and(image_ok()), CostModel::PAPER_DEFAULT),
        )
        .expect("a fingerprinted expression over existing columns");
    println!(
        "\nexpression request 1: fraud_free AND image_ok over {num_rows} tuples \
         -> {} passed",
        conjunction.returned.len()
    );
    println!("  bill: {}", conjunction.counts);
    println!(
        "  conjunct invocations: {} (vs {} without stage-wise short-circuiting)",
        conjunction.counts.evaluated,
        2 * num_rows
    );

    // A different expression over the same predicates: every leaf answer
    // the conjunction paid for arrives as free cross-query reuse.
    let disjunction = engine
        .submit(
            &ds,
            &QueryRequest::expr_scan(fraud_free().or(image_ok()), CostModel::PAPER_DEFAULT),
        )
        .expect("valid request");
    println!(
        "expression request 2: fraud_free OR image_ok -> {} passed",
        disjunction.returned.len()
    );
    println!(
        "  bill: {}  <- the session cache pre-paid the shared leaves",
        disjunction.counts
    );

    println!("\nsession totals: {}", engine.session_counts());
    println!("engine:         {:?}", engine.stats());
}
