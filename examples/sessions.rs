//! Sessions: many queries, one cache — the second query is (nearly) free.
//!
//! ```text
//! cargo run --release --example sessions [-- --pool]
//! ```
//!
//! A `QueryEngine` owns an executor backend and a cross-query
//! `CacheStore`. This demo serves four *requests* — the composable,
//! fallible [`QueryRequest`] surface — against one Prosper-like dataset
//! and prints each bill, broken out into fresh evaluations (paid `o_e`),
//! within-query memo hits, and cross-query reuse (paid by an *earlier*
//! query):
//!
//! 1. an Intel-Sample request — pays full freight;
//! 2. the identical request again — answered from the result memo,
//!    charging zero additional `o_e`;
//! 3. the same contract under a different seed — overlapping rows arrive
//!    as reuse;
//! 4. a Naive request over the same table — its β-fraction is largely
//!    pre-paid.
//!
//! Bad input never panics the engine: the demo closes by submitting a
//! request for a predictor column the table does not have and printing
//! the typed `EngineError` it gets back.

use expred::cli::ExampleCli;
use expred::core::{IntelSampleConfig, PredictorChoice, QueryRequest, QuerySpec, RunOutcome};
use expred::table::datasets::{Dataset, DatasetSpec, PROSPER};

fn report(label: &str, out: &RunOutcome) {
    println!(
        "{label}\n  answer: {} tuples (precision {:.3}, recall {:.3}), cost {}\n  bill:   {}",
        out.returned.len(),
        out.summary.precision,
        out.summary.recall,
        out.cost,
        out.counts,
    );
}

fn main() {
    let backend = ExampleCli::new(
        "sessions",
        "one QueryEngine session serving several requests against one cache",
    )
    .parse_backend();
    println!("{}", backend.banner());
    let engine = backend.engine();
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 10_000,
            ..PROSPER
        },
        3,
    );
    let intel = QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
        "grade".into(),
    )))
    .with_seed(42);

    let first = engine.submit(&ds, &intel).expect("valid request");
    report("query 1: intel-sample, cold session", &first);

    let repeat = engine.submit(&ds, &intel).expect("valid request");
    report("query 2: the identical request", &repeat);
    println!(
        "  -> served from the result memo; session evaluations still {}",
        engine.session_counts().evaluated
    );

    let reseeded = engine
        .submit(&ds, &intel.clone().with_seed(43))
        .expect("valid request");
    report("query 3: same contract, new seed", &reseeded);

    let naive = engine
        .submit(
            &ds,
            &QueryRequest::naive(QuerySpec::paper_default()).with_seed(7),
        )
        .expect("valid request");
    report("query 4: naive over the warmed table", &naive);

    // Invalid input is a typed error, not a worker-killing panic.
    let bad = QueryRequest::optimal(QuerySpec::paper_default(), "no_such_column");
    match engine.submit(&ds, &bad) {
        Ok(_) => unreachable!("the column does not exist"),
        Err(err) => println!("\nquery 5: rejected as expected -> {err}"),
    }

    println!("\nsession totals: {}", engine.session_counts());
    println!("row cache:      {:?}", engine.cache_stats());
    println!("engine:         {:?}", engine.stats());
}
