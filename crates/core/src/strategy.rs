//! The open [`Strategy`] trait and its built-in implementations.
//!
//! A strategy is *how* a query request is answered: which pipeline runs,
//! under which configuration. The trait is object-safe and deliberately
//! small — a name, a fingerprint, a cheap validation pass, and an
//! execution method taking the session's [`ExecContext`] — so new
//! evaluation strategies can be added outside this crate and still enjoy
//! the engine's full session machinery (result memo, cold-race
//! suppression, row-tier cache, the shared executor).
//!
//! # Identity and the result memo
//!
//! The engine memoizes whole outcomes and deduplicates in-flight runs by
//! *request identity*. A strategy declares its identity by writing every
//! outcome-affecting parameter into a [`Fingerprint`] — an
//! order-significant byte stream. The engine stores the full stream (not
//! just its 64-bit digest) and compares it on every memo hit, so two
//! strategies whose streams differ can never be served each other's
//! answers, even under hash collisions. The contract mirrors
//! [`expred_udf::UdfId`]: write *all* of it, or do not be surprised by
//! sharing. Two `Strategy` implementations that write identical streams
//! (including the [`Strategy::name`] prefix the engine adds) are declared
//! interchangeable.
//!
//! # Built-ins
//!
//! The seven pipelines the workspace grew as free functions are all here
//! as first-class strategies: [`IntelSample`], [`Naive`], [`Optimal`],
//! [`Adaptive`], [`Iterative`], [`Learning`], and [`Multiple`] — plus
//! [`ExprScan`], which evaluates a [`PredicateExpr`] over the whole table
//! through the session cache with cost-ordered short-circuiting.

use crate::adaptive::{run_intel_sample_adaptive, run_intel_sample_iterative};
use crate::baselines::{run_learning, run_multiple};
use crate::error::EngineError;
use crate::optimize::CorrelationModel;
use crate::pipeline::{
    run_intel_sample, run_naive, run_optimal, IntelSampleConfig, PredictorChoice, RunOutcome,
};
use crate::query::QuerySpec;
use crate::sampling::SampleSizeRule;
use expred_exec::ExecContext;
use expred_ml::metrics::PrSummary;
use expred_stats::hash::Fnv64;
use expred_table::datasets::{Dataset, LABEL_COLUMN};
use expred_table::{DataType, RowSet, Table};
use expred_udf::{evaluate_expr, BooleanUdf, CostModel, CostTracker, PredicateExpr};
use std::time::Instant;

/// An order-significant identity stream for one strategy configuration.
///
/// Strategies write every outcome-affecting parameter into it; the
/// engine prefixes the strategy name, keys the result memo by the FNV
/// digest, and stores the full byte stream for collision-proof
/// verification. Writing is append-only and deterministic — no hashing
/// happens until [`Fingerprint::digest64`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    bytes: Vec<u8>,
}

impl Fingerprint {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (`-0.0` and `0.0` are distinct;
    /// any NaN is itself — fine for identity, which wants "the same
    /// request", not numeric equivalence).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// stay distinct.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// The FNV-1a digest of the stream so far.
    pub fn digest64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_bytes(&self.bytes);
        h.finish()
    }

    /// The raw stream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the recorder into its stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// The stored, comparable identity of one strategy configuration:
/// its name plus its full fingerprint stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyIdentity {
    /// [`Strategy::name`] at fingerprint time.
    pub name: String,
    /// The full [`Fingerprint`] stream.
    pub fingerprint: Vec<u8>,
}

impl StrategyIdentity {
    /// Records `strategy`'s identity.
    pub fn of(strategy: &dyn Strategy) -> Self {
        let mut fp = Fingerprint::new();
        strategy.fingerprint(&mut fp);
        Self {
            name: strategy.name().to_owned(),
            fingerprint: fp.into_bytes(),
        }
    }

    /// Digest folding in the name and the stream — the engine's memo-key
    /// component for this strategy.
    pub fn digest64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.name);
        h.write_bytes(&self.fingerprint);
        h.finish()
    }
}

/// One way of answering a query request — the open extension point
/// behind [`crate::engine::QueryEngine::submit`].
///
/// Implementations must be deterministic given `(dataset state, seed,
/// fingerprint)`: the engine memoizes outcomes and deduplicates racing
/// identical requests on exactly that identity.
///
/// ```
/// use expred_core::{EngineError, Fingerprint, RunOutcome, Strategy};
/// use expred_exec::ExecContext;
/// use expred_table::datasets::Dataset;
/// use expred_table::RowSet;
///
/// /// A strategy that returns the first `k` rows without evaluating.
/// struct FirstK(usize);
///
/// impl Strategy for FirstK {
///     fn name(&self) -> &str {
///         "first_k"
///     }
///     fn fingerprint(&self, fp: &mut Fingerprint) {
///         fp.write_u64(self.0 as u64);
///     }
///     fn execute(
///         &self,
///         ds: &Dataset,
///         _seed: u64,
///         _ctx: &ExecContext<'_>,
///     ) -> Result<RunOutcome, EngineError> {
///         let rows = ds.table.num_rows();
///         let first_k = 0..self.0.min(rows) as u32;
///         Ok(RunOutcome::trivial(RowSet::from_ids(rows, first_k)))
///     }
/// }
/// ```
pub trait Strategy: Send + Sync {
    /// Stable, unique name — the first component of the memo identity
    /// and the label error messages use.
    fn name(&self) -> &str;

    /// Writes every outcome-affecting parameter into `fp` (see the
    /// module docs for the identity contract). The engine adds the
    /// [`Strategy::name`] prefix itself.
    fn fingerprint(&self, fp: &mut Fingerprint);

    /// Cheap request validation against the dataset, run before any UDF
    /// money is spent. The default accepts everything.
    fn validate(&self, _ds: &Dataset) -> Result<(), EngineError> {
        Ok(())
    }

    /// Runs the strategy under the session's execution context.
    fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError>;
}

impl RunOutcome {
    /// An outcome carrying only a returned row set — zero counts, perfect
    /// summary, one group. For strategies (tests, trivial baselines) that
    /// do not run a planned pipeline.
    pub fn trivial(returned: RowSet) -> Self {
        let returned_len = returned.len();
        Self {
            returned,
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
/// column must exist and be a boolean column without NULLs (all seven
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

fn spec_fp(fp: &mut Fingerprint, spec: &QuerySpec) {
    fp.write_f64(spec.alpha);
    fp.write_f64(spec.beta);
    fp.write_f64(spec.rho);
    fp.write_f64(spec.cost.retrieve);
    fp.write_f64(spec.cost.evaluate);
}

fn rule_fp(fp: &mut Fingerprint, rule: SampleSizeRule) {
    match rule {
        SampleSizeRule::Fraction(f) => {
            fp.write_u64(1);
            fp.write_f64(f);
        }
        SampleSizeRule::Constant(c) => {
            fp.write_u64(2);
            fp.write_u64(c as u64);
        }
        SampleSizeRule::TwoThirdPower(p) => {
            fp.write_u64(3);
            fp.write_f64(p);
        }
    }
}

fn corr_fp(fp: &mut Fingerprint, corr: CorrelationModel) {
    fp.write_u64(match corr {
        CorrelationModel::Independent => 1,
        CorrelationModel::Unknown => 2,
    });
}

fn predictor_fp(fp: &mut Fingerprint, predictor: &PredictorChoice) {
    match predictor {
        PredictorChoice::Fixed(col) => {
            fp.write_u64(1);
            fp.write_str(col);
        }
        PredictorChoice::Auto { label_fraction } => {
            fp.write_u64(2);
            fp.write_f64(*label_fraction);
        }
        PredictorChoice::Virtual {
            buckets,
            label_fraction,
        } => {
            fp.write_u64(3);
            fp.write_u64(*buckets as u64);
            fp.write_f64(*label_fraction);
        }
    }
}

/// The paper's main algorithm as a strategy
/// ([`crate::pipeline::run_intel_sample`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IntelSample(pub IntelSampleConfig);

impl Strategy for IntelSample {
    fn name(&self) -> &str {
        "intel_sample"
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        spec_fp(fp, &self.0.spec);
        rule_fp(fp, self.0.rule);
        corr_fp(fp, self.0.corr);
        predictor_fp(fp, &self.0.predictor);
    }

    fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        self.0.spec.validate()?;
        validate_rule(self.0.rule)?;
        validate_predictor(ds, &self.0.predictor)?;
        require_label_column(ds)
    }

    fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        run_intel_sample(ds, &self.0, seed, ctx)
    }
}

/// The naive β-fraction baseline as a strategy
/// ([`crate::pipeline::run_naive`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Naive(pub QuerySpec);

impl Strategy for Naive {
    fn name(&self) -> &str {
        "naive"
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        spec_fp(fp, &self.0);
    }

    fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        self.0.validate()?;
        require_label_column(ds)
    }

    fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        run_naive(ds, &self.0, seed, ctx)
    }
}

/// The perfect-information lower bound as a strategy
/// ([`crate::pipeline::run_optimal`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Optimal {
    /// Accuracy contract.
    pub spec: QuerySpec,
    /// Predictor column with free exact selectivities.
    pub predictor: String,
}

impl Strategy for Optimal {
    fn name(&self) -> &str {
        "optimal"
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        spec_fp(fp, &self.spec);
        fp.write_str(&self.predictor);
    }

    fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        self.spec.validate()?;
        require_column(&ds.table, &self.predictor)?;
        require_label_column(ds)
    }

    fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        run_optimal(ds, &self.spec, &self.predictor, seed, ctx)
    }
}

/// The §4.3 parameter-free adaptive pipeline as a strategy
/// ([`crate::adaptive::run_intel_sample_adaptive`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Adaptive {
    /// Accuracy contract.
    pub spec: QuerySpec,
    /// Estimate-correlation model.
    pub corr: CorrelationModel,
    /// Predictor column.
    pub predictor: String,
}

impl Strategy for Adaptive {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        spec_fp(fp, &self.spec);
        corr_fp(fp, self.corr);
        fp.write_str(&self.predictor);
    }

    fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        self.spec.validate()?;
        require_column(&ds.table, &self.predictor)?;
        require_label_column(ds)
    }

    fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        run_intel_sample_adaptive(ds, &self.spec, self.corr, &self.predictor, seed, ctx)
    }
}

/// The §4.2 iterative estimate/exploit pipeline as a strategy
/// ([`crate::adaptive::run_intel_sample_iterative`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Iterative {
    /// Accuracy contract.
    pub spec: QuerySpec,
    /// Estimate-correlation model.
    pub corr: CorrelationModel,
    /// Predictor column.
    pub predictor: String,
    /// Initial sampling rule.
    pub rule: SampleSizeRule,
    /// Number of estimate/exploit rounds.
    pub rounds: usize,
}

impl Strategy for Iterative {
    fn name(&self) -> &str {
        "iterative"
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        spec_fp(fp, &self.spec);
        corr_fp(fp, self.corr);
        fp.write_str(&self.predictor);
        rule_fp(fp, self.rule);
        fp.write_u64(self.rounds as u64);
    }

    fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        self.spec.validate()?;
        validate_rule(self.rule)?;
        if self.rounds < 1 {
            return Err(EngineError::InvalidRequest {
                reason: "iterative pipeline needs at least one round".into(),
            });
        }
        require_column(&ds.table, &self.predictor)?;
        require_label_column(ds)
    }

    fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        run_intel_sample_iterative(
            ds,
            &self.spec,
            self.corr,
            &self.predictor,
            self.rule,
            self.rounds,
            seed,
            ctx,
        )
    }
}

/// The `Learning` ML baseline as a strategy
/// ([`crate::baselines::run_learning`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Learning(pub QuerySpec);

impl Strategy for Learning {
    fn name(&self) -> &str {
        "learning"
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        spec_fp(fp, &self.0);
    }

    fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        self.0.validate()?;
        require_label_column(ds)
    }

    fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        run_learning(ds, &self.0, seed, ctx)
    }
}

/// The `Multiple` ML baseline as a strategy
/// ([`crate::baselines::run_multiple`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Multiple {
    /// Accuracy contract.
    pub spec: QuerySpec,
    /// Number of imputed completions.
    pub imputations: usize,
}

impl Strategy for Multiple {
    fn name(&self) -> &str {
        "multiple"
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        spec_fp(fp, &self.spec);
        fp.write_u64(self.imputations as u64);
    }

    fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        self.spec.validate()?;
        if self.imputations < 1 {
            return Err(EngineError::InvalidRequest {
                reason: "the Multiple baseline needs at least one imputation".into(),
            });
        }
        require_label_column(ds)
    }

    fn execute(
        &self,
        ds: &Dataset,
        seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        run_multiple(ds, &self.spec, self.imputations, seed, ctx)
    }
}

/// Exact multi-predicate selection as a strategy: evaluates a
/// [`PredicateExpr`] on every row through the session cache, with
/// short-circuiting inside each conjunction/disjunction. The expression
/// is first rewritten by the session's selectivity-aware optimizer
/// ([`expred_udf::optimize_expr`]): shared conjuncts factor out and
/// `AND`/`OR` siblings reorder by the pass rates the session store's
/// answers show — the static cost order until the store holds answers
/// for the leaves.
///
/// `SELECT * FROM R WHERE expr = 1`, answered exactly — the returned set
/// is precisely the rows where the expression holds, so the reported
/// precision/recall are 1. The bill charges one retrieval per row plus
/// one evaluation per *leaf UDF actually invoked*; leaves an earlier
/// session query already paid for arrive as
/// [`expred_udf::CostCounts::reuse_hits`].
#[derive(Clone)]
pub struct ExprScan {
    expr: PredicateExpr,
    cost: CostModel,
}

impl ExprScan {
    /// A full-table scan of `expr` billed under `cost`.
    pub fn new(expr: PredicateExpr, cost: CostModel) -> Self {
        Self { expr, cost }
    }

    /// The expression this scan evaluates.
    pub fn expr(&self) -> &PredicateExpr {
        &self.expr
    }
}

impl Strategy for ExprScan {
    fn name(&self) -> &str {
        "expr_scan"
    }

    /// The expression's identity enters through its derived
    /// [`expred_udf::UdfId`] — a 64-bit digest, so expression identity
    /// inherits `UdfId`'s (documented) collision contract rather than the
    /// full-stream guarantee the built-in pipelines get.
    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.expr.fingerprint().map_or(0, |id| id.as_u64()));
        fp.write_f64(self.cost.retrieve);
        fp.write_f64(self.cost.evaluate);
    }

    fn validate(&self, ds: &Dataset) -> Result<(), EngineError> {
        if self.expr.fingerprint().is_none() {
            return Err(EngineError::BadExpression {
                reason: "expression contains a UDF without a stable fingerprint, so the \
                         request has no cacheable identity (implement BooleanUdf::fingerprint)"
                    .into(),
            });
        }
        if !self.expr.costs_valid() {
            return Err(EngineError::BadExpression {
                reason: "every leaf evaluation cost must be finite and >= 0".into(),
            });
        }
        // A mistyped column in a leaf (e.g. an OracleUdf) must be a typed
        // error here, not a panic mid-scan.
        for column in self.expr.required_columns() {
            require_column(&ds.table, &column)?;
        }
        crate::query::validate_cost_model(&self.cost)
    }

    fn execute(
        &self,
        ds: &Dataset,
        _seed: u64,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, EngineError> {
        let start = Instant::now();
        let table = &ds.table;
        let tracker = CostTracker::new();
        tracker.add_retrievals(table.num_rows() as u64);
        let expr = expred_udf::optimize_expr(&self.expr, table, ctx.cache);
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
            cost: counts.cost(&self.cost),
            compute_seconds,
            // Exact evaluation: the answer set *is* the truth set.
            ..RunOutcome::trivial(returned)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a, b);
        assert_ne!(a.digest64(), b.digest64());
    }

    #[test]
    fn identities_separate_strategies_and_parameters() {
        let spec = QuerySpec::paper_default();
        let naive = StrategyIdentity::of(&Naive(spec));
        let learning = StrategyIdentity::of(&Learning(spec));
        // Same parameter stream, different names: distinct identities.
        assert_eq!(naive.fingerprint, learning.fingerprint);
        assert_ne!(naive, learning);
        assert_ne!(naive.digest64(), learning.digest64());
        let other = StrategyIdentity::of(&Naive(QuerySpec::new(0.7, 0.8, 0.8, spec.cost)));
        assert_ne!(naive, other);
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
        let zero_imputations = Multiple {
            spec: QuerySpec::paper_default(),
            imputations: 0,
        };
        assert!(matches!(
            zero_imputations.validate(&ds),
            Err(EngineError::InvalidRequest { .. })
        ));
        let bad_rule = IntelSample(IntelSampleConfig {
            rule: SampleSizeRule::Fraction(0.0),
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
