//! [`Strategy`]: the closed set of ways the engine answers a request.
//!
//! A strategy is *how* a query request is answered: which pipeline runs,
//! under which configuration. The paper answers one query shape, a
//! selection under an (α, β, ρ) contract (§2), with a fixed set of
//! algorithms, so the set is closed: one variant per algorithm, each
//! with a name, a cheap validation pass and an execution method taking
//! the session's [`ExecContext`]. The variants are Intel-Sample
//! ([`Strategy::IntelSample`]), the paper's §4 algorithm, whose
//! configuration also covers §4.3's sample-size search and §4.2's
//! estimate/exploit rounds; the Naive and Optimal baselines of §6; and
//! [`Strategy::ExprScan`], which evaluates a [`PredicateExpr`] over the
//! whole table through the session cache with cost-ordered
//! short-circuiting. What a user extends is the predicate: an
//! expression's leaves are any [`BooleanUdf`]. The paper's
//! ML baselines are not strategies: their training size is tuned against
//! ground truth, so they live with the experiments in `expred-bench`.
//!
//! # Identity and the result memo
//!
//! The engine memoizes whole outcomes and deduplicates in-flight runs by
//! *request identity*. A strategy's identity is an order-significant byte
//! stream: its [`Strategy::name`], length-prefixed, then every
//! outcome-affecting parameter in a fixed order, floats by bit pattern
//! (so `-0.0` and `0.0` differ). The engine writes it once per request,
//! stores the full stream (not just its 64-bit digest) and compares it on
//! every memo hit, so two requests whose streams differ can never be
//! served each other's answers, even under hash collisions. Two
//! strategies are equal (`==`) exactly when their streams are.

use crate::error::EngineError;
use crate::metrics::PrSummary;
use crate::optimize::CorrelationModel;
use crate::pipeline::{
    run_intel_sample, run_naive, run_optimal, IntelSampleConfig, PredictorChoice, RunOutcome,
};
use crate::query::QuerySpec;
use crate::sampling::{SampleSizeRule, Sampling};
use expred_exec::ExecContext;
use expred_table::datasets::{Dataset, LABEL_COLUMN};
use expred_table::{DataType, RowSet, Table};
use expred_udf::{evaluate_expr, BooleanUdf, CostModel, CostTracker, PredicateExpr};
use std::sync::Arc;
use std::time::Instant;

/// One way of answering a query request: what
/// [`crate::engine::QueryEngine::submit`] runs.
///
/// Every variant is deterministic given `(dataset state, seed, identity)`:
/// the engine memoizes outcomes and deduplicates racing identical
/// requests on exactly that identity.
///
/// ```
/// use expred_core::{QuerySpec, Strategy};
/// use expred_exec::ExecContext;
/// use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
///
/// let ds = Dataset::generate(DatasetSpec { rows: 2_000, ..PROSPER }, 7);
/// let spec = QuerySpec::paper_default();
/// let naive = Strategy::Naive(spec);
/// naive.validate(&ds)?;
/// let outcome = naive.execute(&ds, 42, &ExecContext::sequential())?;
/// assert_eq!(naive.name(), "naive");
/// assert!(!outcome.returned.is_empty());
/// // Equality is identity: another contract is another strategy.
/// let other = QuerySpec::new(0.7, 0.8, 0.8, spec.cost);
/// assert_ne!(naive, Strategy::Naive(other));
/// # Ok::<(), expred_core::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub enum Strategy {
    /// The paper's main algorithm
    /// ([`crate::pipeline::run_intel_sample`]). Its name follows the
    /// configuration, so an error names the variant asked for:
    /// `"iterative"` with two rounds or more, else `"adaptive"` for
    /// §4.3's search, else `"intel_sample"`.
    IntelSample(IntelSampleConfig),
    /// The naive β-fraction baseline ([`crate::pipeline::run_naive`]).
    Naive(QuerySpec),
    /// The perfect-information lower bound
    /// ([`crate::pipeline::run_optimal`]).
    Optimal {
        /// Accuracy contract.
        spec: QuerySpec,
        /// Predictor column with free exact selectivities.
        predictor: String,
    },
    /// Exact multi-predicate selection: evaluates `expr` on every row
    /// through the session cache, with short-circuiting inside each
    /// conjunction/disjunction. The expression is first rewritten by the
    /// session's selectivity-aware optimizer
    /// ([`expred_udf::optimize_expr`]): shared conjuncts factor out and
    /// `AND`/`OR` siblings reorder by the pass rates the session store's
    /// answers show — the static cost order until the store holds answers
    /// for the leaves.
    ///
    /// `SELECT * FROM R WHERE expr = 1`, answered exactly — the returned
    /// set is precisely the rows where the expression holds, so the
    /// reported precision/recall are 1. The bill charges one retrieval
    /// per row plus one evaluation per *leaf UDF actually invoked*; leaves
    /// an earlier session query already paid for arrive as
    /// [`expred_udf::CostCounts::reuse_hits`].
    ///
    /// The expression's identity enters through its derived
    /// [`expred_udf::UdfId`] — a 64-bit digest, so expression identity
    /// inherits `UdfId`'s (documented) collision contract rather than the
    /// full-stream guarantee the other variants get.
    ExprScan {
        /// The predicate, over any [`BooleanUdf`] leaves.
        expr: PredicateExpr,
        /// The bill's cost model.
        cost: CostModel,
    },
}

impl Strategy {
    /// Stable, unique name — the first component of the memo identity
    /// and the label error messages use.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::IntelSample(cfg) => match (cfg.rounds.get(), cfg.sampling) {
                (2.., _) => "iterative",
                (_, Sampling::Search) => "adaptive",
                (_, Sampling::Rule(_)) => "intel_sample",
            },
            Strategy::Naive(_) => "naive",
            Strategy::Optimal { .. } => "optimal",
            Strategy::ExprScan { .. } => "expr_scan",
        }
    }

    /// The identity stream (see the module docs): the name, then every
    /// outcome-affecting parameter, written into one buffer sized up
    /// front.
    pub(crate) fn identity(&self) -> Vec<u8> {
        let name = self.name();
        let column = match self {
            Strategy::IntelSample(IntelSampleConfig {
                predictor: PredictorChoice::Fixed(column),
                ..
            })
            | Strategy::Optimal {
                predictor: column, ..
            } => column.len(),
            _ => 0,
        };
        // The name, at most 12 parameter words and a predictor column.
        let mut id = Vec::with_capacity(8 + name.len() + 12 * 8 + column);
        put_str(&mut id, name);
        match self {
            Strategy::IntelSample(cfg) => {
                put_spec(&mut id, &cfg.spec);
                put_sampling(&mut id, cfg.sampling);
                put_u64(
                    &mut id,
                    match cfg.corr {
                        CorrelationModel::Independent => 1,
                        CorrelationModel::Unknown => 2,
                    },
                );
                put_predictor(&mut id, &cfg.predictor);
                put_u64(&mut id, cfg.rounds.get() as u64);
            }
            Strategy::Naive(spec) => put_spec(&mut id, spec),
            Strategy::Optimal { spec, predictor } => {
                put_spec(&mut id, spec);
                put_str(&mut id, predictor);
            }
            Strategy::ExprScan { expr, cost } => {
                put_u64(&mut id, expr.fingerprint().map_or(0, |id| id.as_u64()));
                put_f64(&mut id, cost.retrieve);
                put_f64(&mut id, cost.evaluate);
            }
        }
        id
    }

    /// Cheap request validation against the dataset, run before any UDF
    /// money is spent.
    pub fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        match self {
            Strategy::IntelSample(cfg) => {
                cfg.spec.validate()?;
                if let Sampling::Rule(rule) = cfg.sampling {
                    validate_rule(rule)?;
                }
                validate_predictor(ds, &cfg.predictor)?;
                require_label_column(ds)
            }
            Strategy::Naive(spec) => {
                spec.validate()?;
                require_label_column(ds)
            }
            Strategy::Optimal { spec, predictor } => {
                spec.validate()?;
                require_column(&ds.table, predictor)?;
                require_label_column(ds)
            }
            Strategy::ExprScan { expr, cost } => {
                if expr.fingerprint().is_none() {
                    return Err(EngineError::BadExpression {
                        reason: "expression contains a UDF without a stable fingerprint, so \
                                 the request has no cacheable identity (implement \
                                 BooleanUdf::fingerprint)"
                            .into(),
                    });
                }
                if !expr.costs_valid() {
                    return Err(EngineError::BadExpression {
                        reason: "every leaf evaluation cost must be finite and >= 0".into(),
                    });
                }
                // A mistyped column in a leaf (e.g. an OracleUdf) must be
                // a typed error here, not a panic mid-scan.
                for column in expr.required_columns() {
                    require_column(&ds.table, &column)?;
                }
                crate::query::validate_cost_model(cost)
            }
        }
    }

    /// Runs the strategy under the session's execution context.
    pub fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        match self {
            Strategy::IntelSample(cfg) => run_intel_sample(ds, cfg, seed, ctx),
            Strategy::Naive(spec) => run_naive(ds, spec, seed, ctx),
            Strategy::Optimal { spec, predictor } => run_optimal(ds, spec, predictor, seed, ctx),
            Strategy::ExprScan { expr, cost } => expr_scan(ds, expr, cost, ctx),
        }
    }
}

impl PartialEq for Strategy {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl RunOutcome {
    /// An outcome carrying only a returned row set — zero counts, perfect
    /// summary, one group: an exact answer before its bill.
    fn trivial(returned: RowSet) -> Self {
        let returned_len = returned.len();
        Self {
            returned: Arc::new(returned),
            counts: Default::default(),
            cost: 0.0,
            summary: PrSummary {
                precision: 1.0,
                recall: 1.0,
                returned: returned_len,
                true_positives: returned_len,
                total_correct: returned_len,
            },
            num_groups: 1,
            compute_seconds: 0.0,
            plan_feasible: true,
        }
    }
}

/// [`Strategy::ExprScan`]'s run.
fn expr_scan(
    ds: &Dataset,
    expr: &PredicateExpr,
    cost: &CostModel,
    ctx: &ExecContext<'_>,
) -> Result<RunOutcome, EngineError> {
    let start = Instant::now();
    let table = &ds.table;
    let tracker = CostTracker::new();
    tracker.add_retrievals(table.num_rows() as u64);
    let expr = expred_udf::optimize_expr(expr, table, ctx.cache);
    let rows = RowSet::full(table.num_rows());
    let returned = evaluate_expr(&expr, table, &rows, &tracker, ctx).map_err(|e| {
        // Unreachable through the engine: validate() already rejected
        // invalid costs. Kept as a typed error for direct callers.
        EngineError::BadExpression {
            reason: e.to_string(),
        }
    })?;
    let compute_seconds = start.elapsed().as_secs_f64();
    let counts = tracker.snapshot();
    Ok(RunOutcome {
        counts,
        cost: counts.cost(cost),
        compute_seconds,
        // Exact evaluation: the answer set *is* the truth set.
        ..RunOutcome::trivial(returned)
    })
}

/// Errors unless `column` exists in `table`. Asks the schema, so a
/// generated table's unbuilt column stays unbuilt.
fn require_column(table: &Table, column: &str) -> Result<(), EngineError> {
    if table.schema().index_of(column).is_some() {
        Ok(())
    } else {
        Err(EngineError::unknown_column(table, column))
    }
}

/// Shared validation for every built-in pipeline: the label oracle
/// column must exist and be a boolean column without NULLs (all three
/// evaluate it as the expensive UDF and score their answer against it).
/// Reads the memoized column statistics, so repeat requests pay a lookup.
fn require_label_column(ds: &Dataset) -> Result<(), EngineError> {
    require_column(&ds.table, LABEL_COLUMN)?;
    let boolean =
        ds.table.schema().field(LABEL_COLUMN).map(|f| f.data_type()) == Some(DataType::Bool);
    let labelled = ds
        .table
        .column_stats(LABEL_COLUMN)
        .is_some_and(|s| s.null_count == 0);
    if boolean && labelled {
        Ok(())
    } else {
        Err(EngineError::InvalidRequest {
            reason: format!("label column {LABEL_COLUMN:?} must be a boolean column without NULLs"),
        })
    }
}

fn validate_rule(rule: SampleSizeRule) -> Result<(), EngineError> {
    let ok = match rule {
        SampleSizeRule::Fraction(f) => f.is_finite() && f > 0.0 && f <= 1.0,
        SampleSizeRule::Constant(c) => c >= 1,
        SampleSizeRule::TwoThirdPower(p) => p.is_finite() && p > 0.0,
    };
    if ok {
        Ok(())
    } else {
        Err(EngineError::InvalidRequest {
            reason: format!("sampling rule {rule:?} is out of range"),
        })
    }
}

fn validate_predictor(ds: &Dataset, predictor: &PredictorChoice) -> Result<(), EngineError> {
    match predictor {
        PredictorChoice::Fixed(col) => require_column(&ds.table, col),
        // Both label a sample of at least one row before they can group.
        PredictorChoice::Auto { .. } | PredictorChoice::Virtual { .. }
            if ds.table.num_rows() == 0 =>
        {
            Err(EngineError::InvalidRequest {
                reason: "auto and virtual predictors label a sample and the table is empty; \
                         name a predictor column instead"
                    .into(),
            })
        }
        // Ranking has nothing to rank on a table without string-typed
        // columns (CSV ingestion of numeric features produces one).
        PredictorChoice::Auto { .. } if ds.candidate_columns().is_empty() => {
            Err(EngineError::InvalidRequest {
                reason: "auto predictor ranking needs a string-typed candidate column and \
                         the table has none; name a predictor column instead"
                    .into(),
            })
        }
        PredictorChoice::Auto { label_fraction }
        | PredictorChoice::Virtual { label_fraction, .. } => {
            if label_fraction.is_finite() && *label_fraction > 0.0 && *label_fraction <= 1.0 {
                if let PredictorChoice::Virtual { buckets, .. } = predictor {
                    if *buckets < 1 {
                        return Err(EngineError::InvalidRequest {
                            reason: "virtual predictor needs at least one bucket".into(),
                        });
                    }
                }
                Ok(())
            } else {
                Err(EngineError::InvalidRequest {
                    reason: format!("label fraction {label_fraction} must be in (0, 1]"),
                })
            }
        }
    }
}

fn put_u64(id: &mut Vec<u8>, v: u64) {
    id.extend_from_slice(&v.to_le_bytes());
}

/// By bit pattern: identity wants "the same request", not numeric
/// equivalence.
fn put_f64(id: &mut Vec<u8>, v: f64) {
    put_u64(id, v.to_bits());
}

/// Length-prefixed, so `("ab","c")` and `("a","bc")` stay distinct.
fn put_str(id: &mut Vec<u8>, s: &str) {
    put_u64(id, s.len() as u64);
    id.extend_from_slice(s.as_bytes());
}

fn put_spec(id: &mut Vec<u8>, spec: &QuerySpec) {
    put_f64(id, spec.alpha);
    put_f64(id, spec.beta);
    put_f64(id, spec.rho);
    put_f64(id, spec.cost.retrieve);
    put_f64(id, spec.cost.evaluate);
}

fn put_sampling(id: &mut Vec<u8>, sampling: Sampling) {
    match sampling {
        Sampling::Rule(SampleSizeRule::Fraction(f)) => {
            put_u64(id, 1);
            put_f64(id, f);
        }
        Sampling::Rule(SampleSizeRule::Constant(c)) => {
            put_u64(id, 2);
            put_u64(id, c as u64);
        }
        Sampling::Rule(SampleSizeRule::TwoThirdPower(p)) => {
            put_u64(id, 3);
            put_f64(id, p);
        }
        Sampling::Search => put_u64(id, 4),
    }
}

fn put_predictor(id: &mut Vec<u8>, predictor: &PredictorChoice) {
    match predictor {
        PredictorChoice::Fixed(col) => {
            put_u64(id, 1);
            put_str(id, col);
        }
        PredictorChoice::Auto { label_fraction } => {
            put_u64(id, 2);
            put_f64(id, *label_fraction);
        }
        PredictorChoice::Virtual {
            buckets,
            label_fraction,
        } => {
            put_u64(id, 3);
            put_u64(id, *buckets as u64);
            put_f64(id, *label_fraction);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Strategy::{IntelSample, Naive, Optimal};
    use super::*;
    use expred_stats::hash::fnv1a;
    use expred_table::datasets::{DatasetSpec, PROSPER};

    fn tiny() -> Dataset {
        Dataset::generate(
            DatasetSpec {
                rows: 500,
                ..PROSPER
            },
            1,
        )
    }

    #[test]
    fn fingerprint_streams_are_order_significant() {
        let mut a = Vec::new();
        put_str(&mut a, "ab");
        put_str(&mut a, "c");
        let mut b = Vec::new();
        put_str(&mut b, "a");
        put_str(&mut b, "bc");
        assert_ne!(a, b);
        assert_ne!(fnv1a(&a), fnv1a(&b));
    }

    #[test]
    fn identities_separate_strategies_and_parameters() {
        let spec = QuerySpec::paper_default();
        let naive = Naive(spec).identity();
        // Same parameter stream, different names: distinct identities.
        let mut renamed = Vec::new();
        put_str(&mut renamed, "renamed");
        renamed.extend_from_slice(&naive[8 + "naive".len()..]);
        assert_ne!(naive, renamed);
        assert_ne!(fnv1a(&naive), fnv1a(&renamed));
        assert_ne!(Naive(spec), Naive(QuerySpec::new(0.7, 0.8, 0.8, spec.cost)));
        // Floats enter by bit pattern: -0.0 is not 0.0.
        let free = |retrieve| {
            Naive(QuerySpec {
                cost: CostModel {
                    retrieve,
                    ..spec.cost
                },
                ..spec
            })
        };
        assert_eq!(free(0.0), free(0.0));
        assert_ne!(free(0.0), free(-0.0));
        // Intel-Sample's knobs: the name follows them, and every setting
        // is its own identity.
        let grade = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let rounds = |n| IntelSampleConfig {
            rounds: std::num::NonZeroUsize::new(n).unwrap(),
            ..grade.clone()
        };
        let search = IntelSampleConfig {
            sampling: Sampling::Search,
            ..grade.clone()
        };
        let settings = [
            (grade.clone(), "intel_sample"),
            (search.clone(), "adaptive"),
            (rounds(2), "iterative"),
            (rounds(3), "iterative"),
            (
                IntelSampleConfig {
                    rounds: rounds(2).rounds,
                    ..search
                },
                "iterative",
            ),
        ];
        let strategies: Vec<_> = settings
            .into_iter()
            .map(|(cfg, name)| {
                let strategy = IntelSample(cfg);
                assert_eq!(strategy.name(), name);
                strategy
            })
            .collect();
        for (i, a) in strategies.iter().enumerate() {
            assert!(strategies[i + 1..].iter().all(|b| a != b), "setting {i}");
        }
    }

    #[test]
    fn validation_rejects_a_label_column_that_cannot_be_scored() {
        // A NULL or non-boolean label would panic the oracle (and
        // `truth_vector`) mid-query; validation must reject it first.
        use expred_table::{Field, Schema, Value};
        let with_labels = |data_type, labels: Vec<Value>| Dataset {
            table: Table::from_rows(
                Schema::new(vec![Field::nullable(LABEL_COLUMN, data_type)]),
                labels.into_iter().map(|label| vec![label]).collect(),
            )
            .unwrap(),
            spec: PROSPER,
            seed: 0,
        };
        let naive = Naive(QuerySpec::paper_default());
        let good = with_labels(DataType::Bool, vec![Value::Bool(true), Value::Bool(false)]);
        assert!(naive.validate(&good).is_ok());
        for bad in [
            with_labels(DataType::Bool, vec![Value::Bool(true), Value::Null]),
            with_labels(DataType::Int, vec![Value::Int(1), Value::Int(0)]),
        ] {
            assert!(matches!(
                naive.validate(&bad),
                Err(EngineError::InvalidRequest { .. })
            ));
        }
    }

    #[test]
    fn validation_catches_bad_predictors_and_specs() {
        let ds = tiny();
        let good = Optimal {
            spec: QuerySpec::paper_default(),
            predictor: "grade".into(),
        };
        assert!(good.validate(&ds).is_ok());
        let missing = Optimal {
            spec: QuerySpec::paper_default(),
            predictor: "no_such_column".into(),
        };
        match missing.validate(&ds) {
            Err(EngineError::UnknownColumn { column, available }) => {
                assert_eq!(column, "no_such_column");
                assert!(available.iter().any(|c| c == "grade"));
            }
            other => panic!("expected UnknownColumn, got {other:?}"),
        }
        let bad_spec = Naive(QuerySpec {
            alpha: 2.0,
            ..QuerySpec::paper_default()
        });
        assert!(matches!(
            bad_spec.validate(&ds),
            Err(EngineError::InvalidSpec { field: "alpha", .. })
        ));
        let bad_rule = IntelSample(IntelSampleConfig {
            sampling: Sampling::Rule(SampleSizeRule::Fraction(0.0)),
            ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()))
        });
        assert!(matches!(
            bad_rule.validate(&ds),
            Err(EngineError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn trivial_outcome_is_well_formed() {
        let out = RunOutcome::trivial(RowSet::from_ids(10, [1, 2, 3]));
        assert_eq!(out.returned.to_vec(), vec![1, 2, 3]);
        assert_eq!(out.summary.returned, 3);
        assert_eq!(out.summary.precision, 1.0);
        assert_eq!(out.counts.evaluated, 0);
        assert!(out.plan_feasible);
    }
}
