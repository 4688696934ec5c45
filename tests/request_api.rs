//! The fallible request surface: every [`EngineError`] variant has a
//! reachable trigger, the infeasibility policy behaves as documented,
//! custom strategies plug into the engine's full session machinery, and
//! predicate expressions run end to end through the session cache.

use expred::core::strategy::{Fingerprint, Strategy, StrategyIdentity};
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
        QueryRequest::adaptive(
            spec,
            expred::core::CorrelationModel::Independent,
            "no_such_column",
        ),
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
    assert!(matches!(
        engine.submit(&ds, &QueryRequest::multiple(spec, 0)),
        Err(EngineError::InvalidRequest { .. })
    ));
    assert!(matches!(
        engine.submit(
            &ds,
            &QueryRequest::iterative(
                spec,
                expred::core::CorrelationModel::Independent,
                "grade",
                expred::core::SampleSizeRule::Fraction(0.0),
                2,
            ),
        ),
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
fn direct_pipeline_calls_return_typed_errors_instead_of_unwinding() {
    // What `Strategy::validate` rejects for `submit`, the pipeline
    // functions reject for callers that skip the engine.
    use expred::core::{run_intel_sample_iterative, run_optimal, CorrelationModel, SampleSizeRule};
    let ds = dataset(500, 3);
    let spec = QuerySpec::paper_default();
    let ctx = ExecContext::sequential();
    match run_optimal(&ds, &spec, "no_such_column", 1, &ctx) {
        Err(EngineError::UnknownColumn { column, available }) => {
            assert_eq!(column, "no_such_column");
            assert!(available.iter().any(|c| c == "grade"), "{available:?}");
        }
        other => panic!("expected UnknownColumn, got {other:?}"),
    }
    let zero_rounds = run_intel_sample_iterative(
        &ds,
        &spec,
        CorrelationModel::Independent,
        "grade",
        SampleSizeRule::Fraction(0.05),
        0,
        1,
        &ctx,
    );
    assert!(matches!(
        zero_rounds,
        Err(EngineError::InvalidRequest { .. })
    ));
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

/// A strategy whose plan is always "infeasible": exercises the policy
/// split and proves the open trait plugs into the engine's memo.
struct AlwaysInfeasible;

impl Strategy for AlwaysInfeasible {
    fn name(&self) -> &str {
        "always_infeasible"
    }

    fn fingerprint(&self, _fp: &mut Fingerprint) {}

    fn execute(
        &self,
        ds: &Dataset,
        _seed: u64,
        _ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        let rows = ds.table.num_rows();
        let mut outcome = RunOutcome::trivial(RowSet::from_ids(rows, 0..rows as u32));
        outcome.plan_feasible = false;
        Ok(outcome)
    }
}

#[test]
fn infeasible_policy_errors_only_when_asked() {
    let ds = dataset(200, 5);
    let engine = QueryEngine::new();
    // Default policy: the fallback outcome is returned, flagged.
    let relaxed = engine
        .submit(&ds, &QueryRequest::new(AlwaysInfeasible))
        .expect("fallback policy returns the outcome");
    assert!(!relaxed.plan_feasible);
    // Strict policy: the same request surfaces a typed error...
    match engine.submit(
        &ds,
        &QueryRequest::new(AlwaysInfeasible).with_on_infeasible(InfeasiblePolicy::Error),
    ) {
        Err(EngineError::Infeasible { strategy }) => {
            assert_eq!(strategy, "always_infeasible")
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
    // ...but the outcome was memoized by the first run, so the strict
    // probe cost nothing new and a relaxed resubmission is a memo hit.
    assert_eq!(engine.stats().queries, 2);
    assert_eq!(engine.stats().result_hits, 1);
}

/// A custom strategy: proves out-of-crate implementations get memoized
/// and deduplicated exactly like built-ins.
struct FirstK(usize);

impl Strategy for FirstK {
    fn name(&self) -> &str {
        "first_k"
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.0 as u64);
    }

    fn execute(
        &self,
        ds: &Dataset,
        _seed: u64,
        _ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        let rows = ds.table.num_rows();
        Ok(RunOutcome::trivial(RowSet::from_ids(
            rows,
            0..self.0.min(rows) as u32,
        )))
    }
}

#[test]
fn custom_strategies_share_the_result_memo() {
    let ds = dataset(300, 6);
    let engine = QueryEngine::new();
    let first = engine.submit(&ds, &QueryRequest::new(FirstK(10))).unwrap();
    assert_eq!(first.returned.len(), 10);
    let again = engine.submit(&ds, &QueryRequest::new(FirstK(10))).unwrap();
    assert_eq!(first.returned, again.returned);
    assert_eq!(engine.stats().result_hits, 1, "identical request memoizes");
    // A different parameter is a different identity.
    let other = engine.submit(&ds, &QueryRequest::new(FirstK(20))).unwrap();
    assert_eq!(other.returned.len(), 20);
    assert_eq!(engine.stats().result_hits, 1);
    assert_ne!(
        StrategyIdentity::of(&FirstK(10)),
        StrategyIdentity::of(&FirstK(20))
    );
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
fn optimized_expr_scan_matches_static_and_learns_across_cache_clears() {
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
        Pred::udf(expred::udf::ConjunctionUdf::new(vec![
            Box::new(OracleUdf::new(LABEL_COLUMN)),
            Box::new(expred::udf::NoisyUdf::new(
                OracleUdf::new(LABEL_COLUMN),
                0.5,
                11,
            )),
            Box::new(expred::udf::NoisyUdf::new(
                OracleUdf::new(LABEL_COLUMN),
                0.5,
                12,
            )),
        ]))
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
    assert_eq!(first.returned, fixed);
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

    // Clearing the caches drops the answers and the pass rates with
    // them: the re-run plans like a cold session, in the static order
    // and at the static bill.
    engine.clear_caches();
    assert_eq!(plan(Some(engine.store())), expr().fingerprint());
    let cleared = engine
        .submit(&ds, &QueryRequest::expr_scan(expr(), cost))
        .unwrap();
    assert_eq!(cleared.returned, first.returned, "answers must not move");
    assert_eq!(cleared.counts.evaluated, static_bill);
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
