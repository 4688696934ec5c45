//! The fallible request surface: every [`EngineError`] variant has a
//! reachable trigger, the infeasibility policy behaves as documented,
//! and predicate expressions run end to end through the session cache.

use expred::core::{
    EngineError, InfeasiblePolicy, QueryEngine, QueryRequest, QuerySpec, RunOutcome,
};
use expred::exec::ExecContext;
use expred::table::datasets::{Dataset, DatasetSpec, LABEL_COLUMN, PROSPER};
use expred::table::RowSet;
use expred::udf::{BooleanUdf, CostModel, OracleUdf, Pred};
use std::sync::Arc;

fn dataset(rows: usize, seed: u64) -> Dataset {
    Dataset::generate(DatasetSpec { rows, ..PROSPER }, seed)
}

#[test]
fn invalid_spec_is_rejected_before_any_work() {
    let ds = dataset(500, 1);
    let engine = QueryEngine::new();
    let bad = QuerySpec {
        alpha: 1.5,
        ..QuerySpec::paper_default()
    };
    match engine.submit(&ds, &QueryRequest::naive(bad)) {
        Err(EngineError::InvalidSpec { field, value, .. }) => {
            assert_eq!(field, "alpha");
            assert_eq!(value, 1.5);
        }
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
    // Rejected before counting or billing: the engine is untouched.
    assert_eq!(engine.stats().queries, 0);
    assert_eq!(engine.session_counts().evaluated, 0);
}

#[test]
fn unknown_predictor_column_is_an_error_not_a_panic() {
    let ds = dataset(500, 2);
    let engine = QueryEngine::new();
    let spec = QuerySpec::paper_default();
    for request in [
        QueryRequest::optimal(spec, "no_such_column"),
        QueryRequest::intel_sample(expred::core::IntelSampleConfig {
            sampling: expred::core::Sampling::Search,
            ..expred::core::IntelSampleConfig::experiment1(expred::core::PredictorChoice::Fixed(
                "no_such_column".into(),
            ))
        }),
        QueryRequest::intel_sample(expred::core::IntelSampleConfig::experiment1(
            expred::core::PredictorChoice::Fixed("no_such_column".into()),
        )),
    ] {
        match engine.submit(&ds, &request) {
            Err(EngineError::UnknownColumn { column, available }) => {
                assert_eq!(column, "no_such_column");
                assert!(available.iter().any(|c| c == "grade"), "{available:?}");
            }
            other => panic!("expected UnknownColumn, got {other:?}"),
        }
    }
}

#[test]
fn invalid_request_parameters_are_typed_errors() {
    let ds = dataset(500, 3);
    let engine = QueryEngine::new();
    let spec = QuerySpec::paper_default();
    let zero_fraction = expred::core::IntelSampleConfig {
        spec,
        sampling: expred::core::Sampling::Rule(expred::core::SampleSizeRule::Fraction(0.0)),
        rounds: std::num::NonZeroUsize::new(2).unwrap(),
        ..expred::core::IntelSampleConfig::experiment1(expred::core::PredictorChoice::Fixed(
            "grade".into(),
        ))
    };
    assert!(matches!(
        engine.submit(&ds, &QueryRequest::intel_sample(zero_fraction)),
        Err(EngineError::InvalidRequest { .. })
    ));
    // Auto-ranking over a table with no string-typed column (what CSV
    // ingestion of numeric features yields) has no candidate to rank:
    // rejected before any `o_e` is spent, not a panic mid-ranking.
    use expred::table::{DataType, Field, Schema, Table, Value};
    let numeric = Dataset {
        table: Table::from_rows(
            Schema::new(vec![
                Field::new("amount", DataType::Int),
                Field::new(LABEL_COLUMN, DataType::Bool),
            ]),
            (0..200)
                .map(|i| vec![Value::Int(i % 17), Value::Bool(i % 3 == 0)])
                .collect(),
        )
        .unwrap(),
        spec: PROSPER,
        seed: 0,
    };
    let auto = expred::core::IntelSampleConfig::experiment1(expred::core::PredictorChoice::Auto {
        label_fraction: 0.01,
    });
    assert!(matches!(
        engine.submit(&numeric, &QueryRequest::intel_sample(auto)),
        Err(EngineError::InvalidRequest { .. })
    ));
    assert_eq!(engine.session_counts().evaluated, 0);
}

#[test]
fn every_builtin_strategy_answers_a_zero_row_table_without_panicking() {
    // A table with the label and a string predictor but no rows: each
    // strategy answers with an empty set or refuses with a typed error.
    // The auto-ranked and virtual predictors label a sample of at least
    // one row, so validation refuses them before they size it.
    use expred::core::{IntelSampleConfig, PredictorChoice, Sampling};
    use expred::table::{DataType, Field, Schema, Table};
    let empty = Dataset {
        table: Table::from_rows(
            Schema::new(vec![
                Field::new(LABEL_COLUMN, DataType::Bool),
                Field::new("grade", DataType::Str),
            ]),
            Vec::new(),
        )
        .unwrap(),
        spec: PROSPER,
        seed: 0,
    };
    let spec = QuerySpec::paper_default();
    let intel = |predictor| QueryRequest::intel_sample(IntelSampleConfig::experiment1(predictor));
    let grade = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    let answered = [
        QueryRequest::naive(spec),
        QueryRequest::optimal(spec, "grade"),
        QueryRequest::intel_sample(IntelSampleConfig {
            sampling: Sampling::Search,
            ..grade.clone()
        }),
        QueryRequest::intel_sample(IntelSampleConfig {
            rounds: std::num::NonZeroUsize::new(2).unwrap(),
            ..grade
        }),
        intel(PredictorChoice::Fixed("grade".into())),
        QueryRequest::expr_scan(Pred::udf(OracleUdf::new(LABEL_COLUMN)), spec.cost),
    ];
    let refused = [
        intel(PredictorChoice::Auto {
            label_fraction: 0.01,
        }),
        intel(PredictorChoice::Virtual {
            buckets: 10,
            label_fraction: 0.01,
        }),
    ];
    let engine = QueryEngine::new();
    for request in &answered {
        let name = request.strategy().name();
        let outcome = engine
            .submit(&empty, request)
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert!(outcome.returned.is_empty(), "{name}");
    }
    for request in &refused {
        assert!(matches!(
            engine.submit(&empty, request),
            Err(EngineError::InvalidRequest { .. })
        ));
    }
    assert_eq!(engine.session_counts().evaluated, 0);
}

#[test]
fn direct_pipeline_calls_return_typed_errors_instead_of_unwinding() {
    // What `Strategy::validate` rejects for `submit`, the pipeline
    // functions reject for callers that skip the engine. (Zero rounds
    // cannot be asked for: `IntelSampleConfig::rounds` is nonzero.)
    use expred::core::{run_intel_sample, run_optimal, IntelSampleConfig, PredictorChoice};
    let ds = dataset(500, 3);
    let spec = QuerySpec::paper_default();
    let ctx = ExecContext::sequential();
    let missing = PredictorChoice::Fixed("no_such_column".into());
    let rounds = IntelSampleConfig {
        rounds: std::num::NonZeroUsize::new(2).unwrap(),
        ..IntelSampleConfig::experiment1(missing)
    };
    for outcome in [
        run_optimal(&ds, &spec, "no_such_column", 1, &ctx),
        run_intel_sample(&ds, &rounds, 1, &ctx),
    ] {
        match outcome {
            Err(EngineError::UnknownColumn { column, available }) => {
                assert_eq!(column, "no_such_column");
                assert!(available.iter().any(|c| c == "grade"), "{available:?}");
            }
            other => panic!("expected UnknownColumn, got {other:?}"),
        }
    }
}

#[test]
fn bad_expressions_are_rejected() {
    let ds = dataset(500, 4);
    let engine = QueryEngine::new();
    // An anonymous UDF has no fingerprint: the request has no identity.
    struct Anon;
    impl BooleanUdf for Anon {
        fn evaluate(&self, _: &expred::table::Table, _: usize) -> bool {
            true
        }
    }
    let poisoned = Pred::udf(OracleUdf::new(LABEL_COLUMN)).and(Pred::udf(Anon));
    match engine.submit(
        &ds,
        &QueryRequest::expr_scan(poisoned, CostModel::PAPER_DEFAULT),
    ) {
        Err(EngineError::BadExpression { reason }) => {
            assert!(reason.contains("fingerprint"), "{reason}");
        }
        other => panic!("expected BadExpression, got {other:?}"),
    }
    // A NaN leaf cost is malformed too.
    let nan_cost = Pred::udf_with_cost(OracleUdf::new(LABEL_COLUMN), f64::NAN);
    assert!(matches!(
        engine.submit(
            &ds,
            &QueryRequest::expr_scan(nan_cost, CostModel::PAPER_DEFAULT)
        ),
        Err(EngineError::BadExpression { .. })
    ));
    // A mistyped column inside a leaf is a typed error, not a mid-scan
    // panic: leaves declare their columns via BooleanUdf::required_columns.
    let typo = Pred::udf(OracleUdf::new(LABEL_COLUMN)).and(Pred::udf(OracleUdf::new("no_such")));
    match engine.submit(
        &ds,
        &QueryRequest::expr_scan(typo, CostModel::PAPER_DEFAULT),
    ) {
        Err(EngineError::UnknownColumn { column, .. }) => assert_eq!(column, "no_such"),
        other => panic!("expected UnknownColumn, got {other:?}"),
    }
}

/// A request whose plan is infeasible: a near-certain contract under the
/// adversarial correlation model (the 422 probe of the serving tests).
fn always_infeasible() -> QueryRequest {
    use expred::core::{CorrelationModel, IntelSampleConfig, PredictorChoice};
    let spec = QuerySpec::new(0.999, 0.999, 0.999, CostModel::PAPER_DEFAULT);
    QueryRequest::intel_sample(IntelSampleConfig {
        spec,
        corr: CorrelationModel::Unknown,
        ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()))
    })
}

#[test]
fn infeasible_policy_errors_only_when_asked() {
    let ds = dataset(200, 5);
    let engine = QueryEngine::new();
    // Default policy: the fallback outcome is returned, flagged.
    let relaxed = engine
        .submit(&ds, &always_infeasible())
        .expect("fallback policy returns the outcome");
    assert!(!relaxed.plan_feasible);
    // Strict policy: the same request surfaces a typed error...
    match engine.submit(
        &ds,
        &always_infeasible().with_on_infeasible(InfeasiblePolicy::Error),
    ) {
        Err(EngineError::Infeasible { strategy }) => {
            assert_eq!(strategy, "intel_sample")
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
    // ...but the outcome was memoized by the first run, so the strict
    // probe cost nothing new and a relaxed resubmission is a memo hit.
    assert_eq!(engine.stats().queries, 2);
    assert_eq!(engine.stats().result_hits, 1);
}

#[test]
fn expr_scan_runs_through_the_session_cache() {
    let ds = dataset(2_000, 7);
    let engine = QueryEngine::new();
    let cost = CostModel::PAPER_DEFAULT;
    // A conjunction over the label oracle and a derived noisy view.
    let clean = || Pred::udf(OracleUdf::new(LABEL_COLUMN));
    let noisy = || {
        Pred::udf_with_cost(
            expred::udf::NoisyUdf::new(OracleUdf::new(LABEL_COLUMN), 0.2, 9),
            3.0,
        )
    };
    let conjunction = clean().and(noisy());
    let first = engine
        .submit(&ds, &QueryRequest::expr_scan(conjunction.clone(), cost))
        .expect("conjunction must run");
    assert!(first.plan_feasible);
    assert_eq!(first.summary.precision, 1.0, "exact evaluation");
    assert!(first.counts.evaluated > 0);
    assert!(
        first.counts.evaluated < 2 * ds.table.num_rows() as u64,
        "short-circuiting must save conjunct probes"
    );
    // The returned set matches a per-row reference evaluation.
    let reference: Vec<u32> = (0..ds.table.num_rows())
        .filter(|&r| conjunction.evaluate(&ds.table, r))
        .map(|r| r as u32)
        .collect();
    assert_eq!(first.returned.to_vec(), reference);

    // A *disjunction* over the same leaves: its leaf probes were largely
    // paid for by the conjunction and arrive as cross-query reuse.
    let disjunction = clean().or(noisy());
    let second = engine
        .submit(&ds, &QueryRequest::expr_scan(disjunction, cost))
        .expect("disjunction must run");
    assert!(
        second.counts.reuse_hits > 0,
        "session cache must share leaf answers across expressions: {:?}",
        second.counts
    );

    // The identical conjunction again: a whole-query memo hit.
    let replay = engine
        .submit(&ds, &QueryRequest::expr_scan(conjunction, cost))
        .unwrap();
    assert_eq!(replay.returned, first.returned);
    assert_eq!(engine.stats().result_hits, 1);
}

#[test]
fn optimized_expr_scan_matches_static_and_learns_from_its_answers() {
    let ds = dataset(2_000, 7);
    let engine = QueryEngine::new();
    let cost = CostModel::PAPER_DEFAULT;
    // Equal declared costs, wildly different pass rates: `common` accepts
    // a small-flip majority (~80%+), `rare` is a triple conjunction
    // (~10%). Written common-first, the static stage order is pessimal.
    let common = || {
        Pred::udf(expred::udf::NoisyUdf::new(
            OracleUdf::new(LABEL_COLUMN),
            0.9,
            13,
        ))
    };
    let rare = || {
        let noisy = |seed| {
            Pred::udf(expred::udf::NoisyUdf::new(
                OracleUdf::new(LABEL_COLUMN),
                0.5,
                seed,
            ))
        };
        let all = Pred::udf(OracleUdf::new(LABEL_COLUMN))
            .and(noisy(11))
            .and(noisy(12));
        Pred::udf(all)
    };
    let expr = || common().and(rare());

    // The static baseline: the unrewritten tree, evaluated directly.
    let rows = RowSet::full(ds.table.num_rows());
    let tracker = expred::udf::CostTracker::new();
    let ctx = ExecContext::sequential();
    let fixed =
        expred::udf::evaluate_expr(&expr(), &ds.table, &rows, &tracker, &ctx).expect("valid costs");
    let static_bill = tracker.snapshot().evaluated;

    // First submit: nothing is observed yet, so the optimizer keeps the
    // static order — same answers, same bill. The answers it bought stay
    // in the session's row tier, and with them both leaves' pass rates.
    let first = engine
        .submit(&ds, &QueryRequest::expr_scan(expr(), cost))
        .unwrap();
    assert_eq!(*first.returned, fixed);
    assert_eq!(first.counts.evaluated, static_bill);

    // No clear needed to see what was learned: read off those answers,
    // the optimizer now runs `rare` first, and that order, evaluated on
    // its own, bills fewer fresh evaluations for the same answers.
    let plan = |store| expred::udf::optimize_expr(&expr(), &ds.table, store).fingerprint();
    assert_eq!(plan(None), expr().fingerprint(), "cold: the static order");
    assert_eq!(
        plan(Some(engine.store())),
        rare().and(common()).fingerprint()
    );
    let learned = expred::udf::optimize_expr(&expr(), &ds.table, Some(engine.store()));
    let tracker = expred::udf::CostTracker::new();
    let got = expred::udf::evaluate_expr(&learned, &ds.table, &rows, &tracker, &ctx).unwrap();
    assert_eq!(got, fixed, "answers must not move");
    assert!(
        tracker.snapshot().evaluated < static_bill,
        "rare-first ordering must bill fewer fresh evaluations \
         (learned {} vs static {static_bill})",
        tracker.snapshot().evaluated,
    );
}

#[test]
fn submit_memoizes_and_dedups_like_run() {
    // The cold-race waiter table works for submit-built requests.
    use std::time::Duration;
    let ds = dataset(1_000, 8);
    let engine = QueryEngine::new().with_udf_latency(Duration::from_micros(100));
    let request = QueryRequest::naive(QuerySpec::paper_default()).with_seed(3);
    let barrier = std::sync::Barrier::new(4);
    let outcomes: Vec<Arc<RunOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.submit(&ds, &request).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for outcome in &outcomes[1..] {
        assert_eq!(outcome.returned, outcomes[0].returned);
    }
    let stats = engine.stats();
    assert_eq!(stats.queries, 4);
    assert_eq!(
        stats.result_hits + stats.dedup_joins,
        3,
        "every non-leader rides the memo or the waiter table"
    );
    assert_eq!(
        engine.session_counts().evaluated,
        outcomes[0].counts.evaluated,
        "the storm bills exactly one run"
    );
}
