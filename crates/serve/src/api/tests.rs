use super::*;
use expred_core::{QueryEngine, Strategy};
use expred_stats::json::JsonValue;
use expred_stats::Prng;
use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
use proptest::prelude::*;

/// `render_outcome`'s bytes, which must be UTF-8.
fn render(tenant: &str, outcome: &RunOutcome) -> String {
    String::from_utf8(render_outcome(tenant, outcome)).expect("a body is UTF-8")
}

/// The tree-building renderer `render_outcome` replaced, as the
/// reference: `JsonValue::render` is itself proven equal to the old
/// tree renderer in `expred_stats::json`'s tests.
fn oracle_render_outcome(tenant: &str, outcome: &RunOutcome) -> String {
    let n = JsonValue::Number;
    JsonValue::Object(vec![
        ("tenant".into(), JsonValue::String(tenant.to_owned())),
        (
            "returned".into(),
            JsonValue::Array(outcome.returned.iter().map(|id| n(id as f64)).collect()),
        ),
        (
            "counts".into(),
            JsonValue::Object(vec![
                ("retrieved".into(), n(outcome.counts.retrieved as f64)),
                ("evaluated".into(), n(outcome.counts.evaluated as f64)),
                ("cache_hits".into(), n(outcome.counts.cache_hits as f64)),
                ("reuse_hits".into(), n(outcome.counts.reuse_hits as f64)),
            ]),
        ),
        ("cost".into(), n(outcome.cost)),
        ("precision".into(), n(outcome.summary.precision)),
        ("recall".into(), n(outcome.summary.recall)),
        ("num_groups".into(), n(outcome.num_groups as f64)),
        (
            "plan_feasible".into(),
            JsonValue::Bool(outcome.plan_feasible),
        ),
    ])
    .render()
}

/// The tree-walking request parser the reader replaced, kept verbatim as
/// the reference every request must parse to: the same query or the same
/// error, byte for byte.
mod oracle {
    use super::*;

    pub fn parse_query_body(body: &[u8], max_rows: usize) -> Result<ApiQuery, ApiError> {
        let text =
            std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
        let doc = JsonValue::parse(text)
            .map_err(|e| ApiError::bad_request(format!("body is not valid JSON: {e}")))?;
        if !matches!(doc, JsonValue::Object(_)) {
            return Err(ApiError::bad_request("body must be a JSON object"));
        }
        let mut tenant = None;
        let mut table = None;
        let mut query = None;
        let mut seed = 0u64;
        let mut policy = InfeasiblePolicy::FallbackEvaluateAll;
        for key in doc.keys() {
            let value = doc.get(key).expect("listed key is present");
            match key {
                "tenant" => {
                    tenant = Some(
                        value
                            .as_str()
                            .ok_or_else(|| ApiError::bad_request("\"tenant\" must be a string"))?
                            .to_owned(),
                    )
                }
                "table" => table = Some(parse_table(value, max_rows)?),
                "query" => query = Some(value),
                "seed" => {
                    seed = value.as_u64().ok_or_else(|| {
                        ApiError::bad_request("\"seed\" must be a non-negative integer")
                    })?
                }
                "on_infeasible" => {
                    policy = match value.as_str() {
                        Some("fallback") => InfeasiblePolicy::FallbackEvaluateAll,
                        Some("error") => InfeasiblePolicy::Error,
                        _ => {
                            return Err(ApiError::bad_request(
                                "\"on_infeasible\" must be \"fallback\" or \"error\"",
                            ))
                        }
                    }
                }
                other => return Err(ApiError::bad_request(format!("unknown field {other:?}"))),
            }
        }
        let table = table.ok_or_else(|| ApiError::bad_request("missing \"table\""))?;
        let query = query.ok_or_else(|| ApiError::bad_request("missing \"query\""))?;
        let request = parse_query(query)?
            .with_seed(seed)
            .with_on_infeasible(policy);
        Ok(ApiQuery {
            tenant,
            table,
            request,
        })
    }

    fn parse_table(value: &JsonValue, max_rows: usize) -> Result<TableKey, ApiError> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err(ApiError::bad_request("\"table\" must be an object"));
        }
        let (mut spec, mut rows, mut seed) = (None, None, 0u64);
        for key in value.keys() {
            let field = value.get(key).expect("listed key is present");
            match key {
                "spec" => {
                    spec = Some(
                        field
                            .as_str()
                            .ok_or_else(|| {
                                ApiError::bad_request("\"table.spec\" must be a string")
                            })?
                            .to_owned(),
                    )
                }
                "rows" => {
                    rows = Some(field.as_u64().ok_or_else(|| {
                        ApiError::bad_request("\"table.rows\" must be a non-negative integer")
                    })? as usize)
                }
                "seed" => {
                    seed = field.as_u64().ok_or_else(|| {
                        ApiError::bad_request("\"table.seed\" must be a non-negative integer")
                    })?
                }
                other => {
                    return Err(ApiError::bad_request(format!(
                        "unknown table field {other:?}"
                    )))
                }
            }
        }
        let spec = spec.ok_or_else(|| ApiError::bad_request("missing \"table.spec\""))?;
        let rows = rows.ok_or_else(|| ApiError::bad_request("missing \"table.rows\""))?;
        let Some(generator) = crate::tenant::generator(&spec) else {
            return Err(ApiError::bad_request(format!(
                "unknown table spec {spec:?} (available: prosper, lc)"
            )));
        };
        // Below one row per group the generator cannot place its groups
        // (it asserts as much), and the tenant materializes tables under a
        // lock: check the bound here, where it can still be a 400.
        let min_rows = generator.spec().groups;
        if rows < min_rows || rows > max_rows {
            return Err(ApiError::bad_request(format!(
                "\"table.rows\" must be in {min_rows}..={max_rows} for spec {spec:?} \
                 (at least one row per group), got {rows}"
            )));
        }
        Ok(TableKey {
            spec: generator,
            rows,
            seed,
        })
    }

    /// The `query` object's shared contract fields, collected before the
    /// kind-specific interpretation.
    struct QueryFields<'a> {
        kind: &'a str,
        alpha: f64,
        beta: f64,
        rho: f64,
        cost: CostModel,
        predictor: Option<String>,
        label_fraction: f64,
        sample_fraction: f64,
        corr: CorrelationModel,
        rounds: usize,
        predicate: Option<String>,
    }

    fn parse_query(value: &JsonValue) -> Result<QueryRequest, ApiError> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err(ApiError::bad_request("\"query\" must be an object"));
        }
        let mut f = QueryFields {
            kind: "",
            alpha: 0.8,
            beta: 0.8,
            rho: 0.8,
            cost: CostModel::PAPER_DEFAULT,
            predictor: None,
            label_fraction: 0.01,
            sample_fraction: 0.05,
            corr: CorrelationModel::Independent,
            rounds: 2,
            predicate: None,
        };
        let number = |field: &JsonValue, name: &str| {
            field
                .as_f64()
                .ok_or_else(|| ApiError::bad_request(format!("{name:?} must be a number")))
        };
        // A fraction knob sizes a sample or labeling budget relative to the
        // table, so anything outside (0, 1] is either meaningless or a
        // request for more-than-the-table work.
        let fraction = |field: &JsonValue, name: &str| {
            let n = number(field, name)?;
            if n > 0.0 && n <= 1.0 {
                Ok(n)
            } else {
                Err(ApiError::bad_request(format!(
                    "{name:?} must be in (0, 1], got {n}"
                )))
            }
        };
        let bounded = |field: &JsonValue, name: &str, max: u64| {
            let n = field
                .as_u64()
                .ok_or_else(|| ApiError::bad_request(format!("{name:?} must be an integer")))?;
            if (1..=max).contains(&n) {
                Ok(n as usize)
            } else {
                Err(ApiError::bad_request(format!(
                    "{name:?} must be in 1..={max}, got {n}"
                )))
            }
        };
        for key in value.keys() {
            let field = value.get(key).expect("listed key is present");
            match key {
                "kind" => {
                    f.kind = field
                        .as_str()
                        .ok_or_else(|| ApiError::bad_request("\"query.kind\" must be a string"))?
                }
                "alpha" => f.alpha = number(field, "alpha")?,
                "beta" => f.beta = number(field, "beta")?,
                "rho" => f.rho = number(field, "rho")?,
                "cost" => f.cost = parse_cost(field)?,
                "predictor" => {
                    f.predictor = Some(
                        field
                            .as_str()
                            .ok_or_else(|| ApiError::bad_request("\"predictor\" must be a string"))?
                            .to_owned(),
                    )
                }
                "label_fraction" => f.label_fraction = fraction(field, "label_fraction")?,
                "sample_fraction" => f.sample_fraction = fraction(field, "sample_fraction")?,
                "corr" => {
                    f.corr = match field.as_str() {
                        Some("independent") => CorrelationModel::Independent,
                        Some("unknown") => CorrelationModel::Unknown,
                        _ => {
                            return Err(ApiError::bad_request(
                                "\"corr\" must be \"independent\" or \"unknown\"",
                            ))
                        }
                    }
                }
                "rounds" => f.rounds = bounded(field, "rounds", MAX_ROUNDS)?,
                "predicate" => {
                    f.predicate = Some(
                        field
                            .as_str()
                            .ok_or_else(|| ApiError::bad_request("\"predicate\" must be a string"))?
                            .to_owned(),
                    )
                }
                other => {
                    return Err(ApiError::bad_request(format!(
                        "unknown query field {other:?}"
                    )))
                }
            }
        }
        // The contract is validated here (fallibly) so a bad request is a 400
        // at the door; the engine re-validates on submit regardless.
        let spec = QuerySpec::try_new(f.alpha, f.beta, f.rho, f.cost).map_err(ApiError::from)?;
        let needs_predictor = || {
            f.predictor.clone().ok_or_else(|| {
                ApiError::bad_request(format!("query kind {:?} requires \"predictor\"", f.kind))
            })
        };
        match f.kind {
            "naive" => Ok(QueryRequest::naive(spec)),
            "optimal" => Ok(QueryRequest::optimal(spec, needs_predictor()?)),
            "adaptive" => Ok(QueryRequest::intel_sample(IntelSampleConfig {
                spec,
                sampling: Sampling::Search,
                corr: f.corr,
                predictor: PredictorChoice::Fixed(needs_predictor()?),
                rounds: NonZeroUsize::MIN,
            })),
            "iterative" => Ok(QueryRequest::intel_sample(IntelSampleConfig {
                spec,
                sampling: Sampling::Rule(SampleSizeRule::Fraction(f.sample_fraction)),
                corr: f.corr,
                predictor: PredictorChoice::Fixed(needs_predictor()?),
                rounds: NonZeroUsize::new(f.rounds).expect("rounds are bounded below by 1"),
            })),
            "intel_sample" => {
                let predictor = match f.predictor {
                    Some(column) => PredictorChoice::Fixed(column),
                    None => PredictorChoice::Auto {
                        label_fraction: f.label_fraction,
                    },
                };
                Ok(QueryRequest::intel_sample(IntelSampleConfig {
                    spec,
                    sampling: Sampling::Rule(SampleSizeRule::Fraction(f.sample_fraction)),
                    corr: f.corr,
                    predictor,
                    rounds: NonZeroUsize::MIN,
                }))
            }
            "expr" => {
                let predicate = f.predicate.ok_or_else(|| {
                    ApiError::bad_request("query kind \"expr\" requires \"predicate\"")
                })?;
                // Every identifier resolves to an oracle leaf over the column
                // of that name; a column the table lacks is caught by strategy
                // validation (404 unknown_column), a malformed string here
                // (400 bad_expression).
                let expr =
                    expred_udf::parse_predicate(&predicate, &expred_udf::OracleRegistry::new())
                        .map_err(|e| ApiError::from(EngineError::from(e)))?;
                Ok(QueryRequest::expr_scan(expr, f.cost))
            }
            "" => Err(ApiError::bad_request("missing \"query.kind\"")),
            other => Err(ApiError::bad_request(format!(
                "unknown query kind {other:?} (available: naive, intel_sample, optimal, \
                 adaptive, iterative, expr)"
            ))),
        }
    }

    fn parse_cost(value: &JsonValue) -> Result<CostModel, ApiError> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err(ApiError::bad_request("\"cost\" must be an object"));
        }
        let mut cost = CostModel::PAPER_DEFAULT;
        for key in value.keys() {
            let field = value.get(key).expect("listed key is present");
            let n = field.as_f64().ok_or_else(|| {
                ApiError::bad_request(format!("cost field {key:?} must be a number"))
            })?;
            match key {
                "retrieve" => cost.retrieve = n,
                "evaluate" => cost.evaluate = n,
                other => {
                    return Err(ApiError::bad_request(format!(
                        "unknown cost field {other:?}"
                    )))
                }
            }
        }
        Ok(cost)
    }
}

/// A real outcome to mutate field by field (`PrSummary` lives in a
/// crate this one does not name).
fn base_outcome() -> RunOutcome {
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 60,
            ..PROSPER
        },
        1,
    );
    let request = QueryRequest::naive(QuerySpec::paper_default());
    let outcome = QueryEngine::new()
        .submit(&ds, &request)
        .expect("naive runs");
    std::sync::Arc::unwrap_or_clone(outcome)
}

proptest! {
    #[test]
    fn render_outcome_matches_the_tree_renderer(
        len_class in 0usize..8,
        ids in prop::collection::vec(0u32..300_000, 0..40),
        counts in prop::collection::vec(0u64..(1 << 53), 4),
        floats in prop::collection::vec(-1e6f64..1e6, 3),
        integral in any::<bool>(),
        feasible in any::<bool>(),
    ) {
        let mut outcome = base_outcome();
        // Planes over tables that end below, at and past the id-text
        // table's 65 536-id bound.
        outcome.returned = match len_class {
            0 => RowSet::new(300_000),
            1 => RowSet::from_ids(300_000, ids.first().copied()),
            2 => RowSet::from_ids(200_000, 0..200_000),
            3 => RowSet::from_ids(65_536, ids.iter().map(|id| id % 65_536)),
            _ => RowSet::from_ids(300_000, ids),
        }
        .into();
        outcome.counts.retrieved = counts[0];
        outcome.counts.evaluated = counts[1];
        outcome.counts.cache_hits = counts[2];
        outcome.counts.reuse_hits = counts[3];
        let float = |v: f64| if integral { v.trunc() } else { v };
        outcome.cost = float(floats[0]);
        outcome.summary.precision = float(floats[1]);
        outcome.summary.recall = if feasible { floats[2] } else { f64::NAN };
        outcome.num_groups = counts[0] as usize % 1000;
        outcome.plan_feasible = feasible;
        let body = render("t0", &outcome);
        prop_assert_eq!(&body, &oracle_render_outcome("t0", &outcome));
        let doc = JsonValue::parse(&body).expect("body parses");
        prop_assert_eq!(JsonValue::parse(&doc.render()).expect("re-parses"), doc);
    }
}

#[test]
fn a_real_body_is_one_allocation() {
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 20_000,
            ..PROSPER
        },
        0,
    );
    let request = QueryRequest::naive(QuerySpec::paper_default());
    let outcome = QueryEngine::new()
        .submit(&ds, &request)
        .expect("naive runs");
    assert!(outcome.returned.len() > 5_000, "a body worth sizing");
    let body = render("t0", &outcome);
    assert_eq!(body, oracle_render_outcome("t0", &outcome));
    // The buffer was reserved once and never outgrown.
    let reserved = outcome_capacity("t0", &outcome.returned);
    assert!(body.len() <= reserved, "{} > {reserved}", body.len());
    assert!(
        reserved < body.len() + body.len() / 4,
        "reservation is tight"
    );
}

#[test]
fn hostile_tenant_names_stay_inside_their_string() {
    // The tenant reaches the body from the `x-tenant` header.
    let tenant = "a\"b\\c\nd\u{1}é\u{1f600}\",\"returned\":[9]";
    let outcome = base_outcome();
    let body = render(tenant, &outcome);
    assert_eq!(body, oracle_render_outcome(tenant, &outcome));
    let doc = JsonValue::parse(&body).expect("body parses");
    assert_eq!(doc.get("tenant").unwrap().as_str(), Some(tenant));
    let ids: Vec<u64> = doc
        .get("returned")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|id| id.as_u64().unwrap())
        .collect();
    let expected: Vec<u64> = outcome.returned.iter().map(u64::from).collect();
    assert_eq!(ids, expected, "the injected \"returned\" did not take");
    let error = ApiError::bad_request(tenant).body();
    let doc = JsonValue::parse(&error).expect("error body parses");
    assert_eq!(doc.get("detail").unwrap().as_str(), Some(tenant));
}

fn parse(body: &str) -> Result<ApiQuery, ApiError> {
    parse_query_body(body.as_bytes(), 100_000)
}

#[test]
fn parses_a_full_request() {
    let q = parse(
        r#"{"tenant": "alice",
            "table": {"spec": "prosper", "rows": 2000, "seed": 7},
            "query": {"kind": "optimal", "alpha": 0.9, "predictor": "grade"},
            "seed": 42, "on_infeasible": "error"}"#,
    )
    .expect("parses");
    assert_eq!(q.tenant.as_deref(), Some("alice"));
    assert_eq!(
        q.table,
        TableKey {
            spec: Generator::Prosper,
            rows: 2000,
            seed: 7
        }
    );
    assert_eq!(q.request.seed(), 42);
    assert_eq!(q.request.infeasible_policy(), InfeasiblePolicy::Error);
    assert_eq!(q.request.strategy().name(), "optimal");
}

#[test]
fn defaults_are_the_paper_defaults() {
    let q = parse(
        r#"{"table": {"spec": "lc", "rows": 100},
            "query": {"kind": "naive"}}"#,
    )
    .unwrap();
    assert!(q.tenant.is_none());
    assert_eq!(q.request.seed(), 0);
    assert_eq!(
        q.request.infeasible_policy(),
        InfeasiblePolicy::FallbackEvaluateAll
    );
    assert_eq!(q.request.strategy().name(), "naive");
}

#[test]
fn every_kind_parses() {
    for (kind, extra) in [
        ("naive", ""),
        ("optimal", r#", "predictor": "grade""#),
        ("adaptive", r#", "predictor": "grade", "corr": "unknown""#),
        (
            "iterative",
            r#", "predictor": "grade", "rounds": 3, "sample_fraction": 0.1"#,
        ),
        ("intel_sample", ""),
        ("intel_sample", r#", "predictor": "grade""#),
    ] {
        let body = format!(
            r#"{{"table": {{"spec": "prosper", "rows": 50}},
                 "query": {{"kind": "{kind}"{extra}}}}}"#
        );
        let q = parse(&body).unwrap_or_else(|e| panic!("kind {kind}: {e:?}"));
        assert_eq!(q.request.strategy().name(), kind);
    }
}

#[test]
fn expr_kind_parses_predicates() {
    let q = parse(
        r#"{"table": {"spec": "prosper", "rows": 100},
            "query": {"kind": "expr", "predicate": "udf_label and (vip or not flagged)"}}"#,
    )
    .expect("parses");
    assert_eq!(q.request.strategy().name(), "expr_scan");
}

#[test]
fn bad_predicates_are_400_bad_expression() {
    for (predicate, needle) in [
        ("udf_label and (oops", "unexpected end"),
        ("a and and b", "unexpected token"),
        ("a & b", "unexpected character"),
        (")", "unmatched"),
        ("", "empty predicate"),
    ] {
        let body = format!(
            r#"{{"table": {{"spec": "prosper", "rows": 10}},
                 "query": {{"kind": "expr", "predicate": "{predicate}"}}}}"#
        );
        let err = parse(&body).expect_err(predicate);
        assert_eq!(err.status, 400, "{predicate}");
        assert_eq!(err.kind, "bad_expression", "{predicate}");
        assert!(err.detail.contains(needle), "{predicate}: {}", err.detail);
    }
    let missing = parse(r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "expr"}}"#)
        .expect_err("predicate required");
    assert!(missing.detail.contains("requires \"predicate\""));
    // There is one expression scan: the old opt-out flag is not a field.
    let flag = parse(
        r#"{"table": {"spec": "prosper", "rows": 10},
            "query": {"kind": "expr", "predicate": "udf_label", "optimize": true}}"#,
    )
    .expect_err("\"optimize\" is gone");
    assert_eq!(flag.status, 400);
    assert!(flag.detail.contains("unknown query field \"optimize\""));
}

#[test]
fn rejections_are_400s_with_reasons() {
    for (body, needle) in [
        ("not json", "not valid JSON"),
        ("[1]", "must be a JSON object"),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}}"#,
            "missing \"query\"",
        ),
        (r#"{"query": {"kind": "naive"}}"#, "missing \"table\""),
        (
            r#"{"table": {"spec": "nope", "rows": 10}, "query": {"kind": "naive"}}"#,
            "unknown table spec",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 0}, "query": {"kind": "naive"}}"#,
            "table.rows",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "zigzag"}}"#,
            "unknown query kind",
        ),
        // The ML baselines tune against ground truth: the harness runs
        // them, `/query` does not.
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "learning"}}"#,
            "unknown query kind \"learning\" (available: naive, intel_sample, optimal, adaptive, iterative, expr)",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "multiple"}}"#,
            "unknown query kind \"multiple\" (available: naive, intel_sample, optimal, adaptive, iterative, expr)",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "naive", "imputations": 5}}"#,
            "unknown query field \"imputations\"",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "optimal"}}"#,
            "requires \"predictor\"",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "naive"}, "oops": 1}"#,
            "unknown field",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "naive", "turbo": 1}}"#,
            "unknown query field",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "naive"}, "seed": -1}"#,
            "seed",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "iterative", "predictor": "grade", "rounds": 9999}}"#,
            "\"rounds\" must be in 1..=",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "intel_sample", "sample_fraction": 1.5}}"#,
            "\"sample_fraction\" must be in (0, 1]",
        ),
        (
            r#"{"table": {"spec": "prosper", "rows": 10}, "query": {"kind": "intel_sample", "label_fraction": 0}}"#,
            "\"label_fraction\" must be in (0, 1]",
        ),
    ] {
        let err = parse(body).expect_err(body);
        assert_eq!((err.status, err.kind), (400, "bad_request"), "{body}");
        assert!(
            err.detail.contains(needle),
            "{body}: {} !~ {needle}",
            err.detail
        );
    }
}

#[test]
fn invalid_contract_surfaces_the_engine_error() {
    let err = parse(
        r#"{"table": {"spec": "prosper", "rows": 10},
            "query": {"kind": "naive", "alpha": 1.5}}"#,
    )
    .expect_err("alpha out of range");
    assert_eq!(err.status, 400);
    assert_eq!(err.kind, "invalid_spec");
}

#[test]
fn row_cap_is_enforced() {
    let err = parse_query_body(
        br#"{"table": {"spec": "prosper", "rows": 999}, "query": {"kind": "naive"}}"#,
        500,
    )
    .expect_err("row cap");
    assert!(err.detail.contains("8..=500"));
}

#[test]
fn rows_below_the_group_count_are_400() {
    // `Dataset::generate` needs a row per group: 8 for prosper, 7 for lc.
    for (spec, groups) in [("prosper", 8), ("lc", 7)] {
        let body = |rows: usize| {
            format!(
                r#"{{"table": {{"spec": "{spec}", "rows": {rows}}}, "query": {{"kind": "naive"}}}}"#
            )
        };
        let err = parse(&body(groups - 1)).expect_err("fewer rows than groups");
        assert_eq!(err.status, 400);
        assert!(
            err.detail.contains(&format!("{groups}..=100000")),
            "{}",
            err.detail
        );
        assert_eq!(parse(&body(groups)).unwrap().table.rows, groups);
    }
}

#[test]
fn status_mapping_covers_every_engine_error_variant() {
    let cases = [
        (
            EngineError::InvalidSpec {
                field: "alpha",
                value: 2.0,
                expected: "in [0, 1]",
            },
            400,
            "invalid_spec",
        ),
        (
            EngineError::UnknownColumn {
                column: "x".into(),
                available: vec![],
            },
            404,
            "unknown_column",
        ),
        (
            EngineError::Infeasible {
                strategy: "naive".into(),
            },
            422,
            "infeasible",
        ),
        (
            EngineError::BadExpression { reason: "r".into() },
            400,
            "bad_expression",
        ),
        (
            EngineError::InvalidRequest { reason: "r".into() },
            400,
            "invalid_request",
        ),
    ];
    for (error, status, kind) in cases {
        assert_eq!(engine_error_status(&error), status, "{error}");
        assert_eq!(engine_error_kind(&error), kind, "{error}");
        let api: ApiError = error.into();
        assert_eq!(api.status, status);
        assert!(api.body().contains(kind));
    }
}

#[test]
fn error_bodies_are_json() {
    let body = ApiError::bad_request("quote \" here").body();
    let doc = JsonValue::parse(&body).expect("error body parses");
    assert_eq!(doc.get("error").unwrap().as_str(), Some("bad_request"));
    assert_eq!(doc.get("detail").unwrap().as_str(), Some("quote \" here"));
}

/// What a parse decides: the query's every observable part, or the error.
type Parsed = Result<(Option<String>, TableKey, Strategy, u64, InfeasiblePolicy), ApiError>;

fn decided(parsed: Result<ApiQuery, ApiError>) -> Parsed {
    parsed.map(|q| {
        (
            q.tenant,
            q.table,
            q.request.strategy().clone(),
            q.request.seed(),
            q.request.infeasible_policy(),
        )
    })
}

/// One of `items`: the first (a right shape in every pool) half the
/// time, so that most bodies get past their first field.
fn pick(rng: &mut Prng, items: &[JsonValue]) -> JsonValue {
    if rng.bernoulli(0.5) {
        items[0].clone()
    } else {
        items[rng.below(items.len())].clone()
    }
}

fn s(text: &str) -> JsonValue {
    JsonValue::String(text.into())
}

fn n(value: f64) -> JsonValue {
    JsonValue::Number(value)
}

/// An object over `pool`'s fields, each with one of its candidate values
/// (right and wrong shapes alike): most fields once, some missing, some
/// twice, in random order, and now and then a stray key.
fn object_of(rng: &mut Prng, pool: &[(&str, Vec<JsonValue>)], stray: &str) -> JsonValue {
    let mut fields = Vec::new();
    for (name, values) in pool {
        for _ in 0..[0, 1, 1, 1, 2][rng.below(5)] {
            fields.push((name.to_string(), pick(rng, values)));
        }
    }
    if rng.below(8) == 0 {
        fields.push((stray.to_owned(), n(1.0)));
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.below(i + 1));
    }
    JsonValue::Object(fields)
}

/// A random request body over every field the schema knows.
fn arbitrary_request(rng: &mut Prng) -> String {
    let cost = object_of(
        rng,
        &[
            ("retrieve", vec![n(1.0), n(2.5), s("x"), n(-1.0)]),
            ("evaluate", vec![n(3.0), JsonValue::Null, n(0.0)]),
        ],
        "speed",
    );
    let fraction = vec![n(0.01), n(0.5), n(0.0), n(1.5), s("x")];
    let contract = vec![n(0.8), n(0.9), n(1.5), s("x"), n(-0.1)];
    let query = object_of(
        rng,
        &[
            (
                "kind",
                [
                    "naive",
                    "learning",
                    "multiple",
                    "optimal",
                    "adaptive",
                    "iterative",
                    "intel_sample",
                    "expr",
                    "",
                    "zigzag",
                ]
                .map(s)
                .into_iter()
                .chain([n(1.0)])
                .collect(),
            ),
            ("alpha", contract.clone()),
            ("beta", contract.clone()),
            ("rho", contract),
            ("cost", vec![cost, n(1.0), JsonValue::Array(vec![])]),
            ("predictor", vec![s("grade"), s("purpose"), n(1.0)]),
            ("label_fraction", fraction.clone()),
            ("sample_fraction", fraction),
            ("corr", vec![s("independent"), s("unknown"), s("other")]),
            ("rounds", vec![n(2.0), n(9999.0), n(-1.0)]),
            (
                "predicate",
                vec![s("udf_label and vip"), s("a and and b"), s(""), n(1.0)],
            ),
        ],
        "turbo",
    );
    let table = object_of(
        rng,
        &[
            ("spec", vec![s("prosper"), s("lc"), s("nope"), n(5.0)]),
            (
                "rows",
                vec![
                    n(50.0),
                    n(2000.0),
                    n(7.0),
                    n(8.0),
                    n(0.0),
                    n(1e6),
                    n(-1.0),
                    n(2.5),
                    s("10"),
                ],
            ),
            ("seed", vec![n(7.0), n(-3.0), s("x"), n(1e30)]),
        ],
        "shards",
    );
    let body = object_of(
        rng,
        &[
            ("tenant", vec![s("alice"), s("b\"ob\u{e9}"), n(1.0)]),
            ("table", vec![table, n(1.0), s("t")]),
            ("query", vec![query, JsonValue::Array(vec![n(1.0)]), n(1.0)]),
            ("seed", vec![n(42.0), n(-1.0), n(0.5), s("1")]),
            (
                "on_infeasible",
                vec![s("fallback"), s("error"), s("boom"), JsonValue::Null],
            ),
        ],
        "oops",
    );
    let body = if rng.below(32) == 0 {
        JsonValue::Array(vec![body])
    } else {
        body
    };
    body.render()
}

/// `text` after a truncation, a bit flipped in an ASCII byte, or Unicode
/// whitespace after a separator: the first two mostly break the
/// document somewhere past a field the reader has already judged.
fn mutate(text: &str, rng: &mut Prng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let at = rng.below(chars.len() + 1);
    match rng.below(3) {
        0 => chars.truncate(at),
        1 if at < chars.len() && chars[at].is_ascii() => {
            chars[at] = (chars[at] as u8 ^ 1 << rng.below(7)) as char;
        }
        _ => {
            for i in (0..chars.len()).rev() {
                if matches!(chars[i], ',' | ':') && rng.bernoulli(0.5) {
                    chars.insert(i + 1, ['\u{a0}', '\u{2028}', '\n'][rng.below(3)]);
                }
            }
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #[test]
    fn requests_parse_as_the_tree_walk_did(seed in any::<u64>()) {
        let mut rng = Prng::seeded(seed);
        let body = arbitrary_request(&mut rng);
        for text in [body.clone(), mutate(&body, &mut rng), mutate(&body, &mut rng)] {
            let got = decided(parse_query_body(text.as_bytes(), 100_000));
            let want = decided(oracle::parse_query_body(text.as_bytes(), 100_000));
            prop_assert_eq!(&got, &want, "{}: {:?} != {:?}", text, got, want);
        }
    }
}

#[test]
fn a_syntax_error_outranks_every_field_error_before_it() {
    for body in [
        r#"{"oops": 1, "table": {"spec": "prosper", "rows": 10}"#,
        r#"{"tenant": 5, "query": {"kind": "naive"}} ]"#,
        r#"{"query": {"kind": "zigzag", "turbo": [1, }, "table": {}}"#,
        r#"[1, 2, {"a": tru}]"#,
        r#"{"table": {"spec": "nope", "rows": 10}, "seed": 1e}"#,
    ] {
        let err = parse(body).expect_err(body);
        assert!(
            err.detail.starts_with("body is not valid JSON: "),
            "{body}: {}",
            err.detail
        );
        assert_eq!(
            err,
            oracle::parse_query_body(body.as_bytes(), 100_000).unwrap_err()
        );
    }
}

#[test]
fn a_repeated_key_keeps_its_first_value() {
    let engine = QueryEngine::new();
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 2_000,
            ..PROSPER
        },
        7,
    );
    let answer = |body: &str| {
        let api = parse(body).unwrap_or_else(|e| panic!("{body}: {e:?}"));
        render_outcome("t0", &engine.submit(&ds, &api.request).unwrap())
    };
    let table = r#""table": {"spec": "prosper", "rows": 2000, "seed": 7}"#;
    let query = r#""query": {"kind": "intel_sample", "predictor": "grade"}"#;
    let first = answer(&format!(r#"{{"seed": 1, {table}, {query}}}"#));
    let repeated = answer(&format!(r#"{{"seed": 1, {table}, {query}, "seed": 2}}"#));
    assert_eq!(repeated, first, "the repeat is skipped");
    let second = answer(&format!(r#"{{"seed": 2, {table}, {query}}}"#));
    assert_ne!(second, first, "the seed moves this answer");
    // A repeat is skipped unread, in every object of the schema: a value
    // that would be a 400 (`[]` is the wrong shape for every field) is
    // never looked at.
    let cost = JsonValue::Object(vec![
        ("retrieve".into(), n(1.0)),
        ("evaluate".into(), n(2.0)),
    ]);
    let query = [
        ("kind", s("iterative")),
        ("alpha", n(0.9)),
        ("beta", n(0.8)),
        ("rho", n(0.7)),
        ("cost", cost),
        ("predictor", s("grade")),
        ("label_fraction", n(0.02)),
        ("sample_fraction", n(0.1)),
        ("corr", s("unknown")),
        ("rounds", n(3.0)),
        ("predicate", s("udf_label")),
    ];
    let table = [("spec", s("lc")), ("rows", n(50.0)), ("seed", n(7.0))];
    let object = |fields: &[(&str, JsonValue)]| {
        JsonValue::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    };
    let body = |query: JsonValue, table: JsonValue| {
        JsonValue::Object(vec![
            ("tenant".into(), s("a")),
            ("table".into(), table),
            ("query".into(), query),
            ("seed".into(), n(1.0)),
            ("on_infeasible".into(), s("error")),
        ])
    };
    let base = body(object(&query), object(&table));
    let expected = decided(parse(&base.render()));
    assert!(expected.is_ok(), "{expected:?}");
    let wrong = JsonValue::Array(vec![]);
    let mut repeated = vec![];
    let JsonValue::Object(top) = &base else {
        unreachable!()
    };
    for (key, _) in top {
        let mut doc = top.clone();
        doc.push((key.clone(), wrong.clone()));
        repeated.push(JsonValue::Object(doc));
    }
    for (key, _) in &table {
        let mut fields = table.to_vec();
        fields.push((key, wrong.clone()));
        repeated.push(body(object(&query), object(&fields)));
    }
    for (key, _) in &query {
        let mut fields = query.to_vec();
        fields.push((key, wrong.clone()));
        repeated.push(body(object(&fields), object(&table)));
    }
    for key in ["retrieve", "evaluate"] {
        let mut fields = query.to_vec();
        let JsonValue::Object(cost) = &mut fields[4].1 else {
            unreachable!()
        };
        cost.push((key.into(), wrong.clone()));
        repeated.push(body(object(&fields), object(&table)));
    }
    for doc in repeated {
        let text = doc.render();
        assert_eq!(decided(parse(&text)), expected, "{text}");
    }
}
