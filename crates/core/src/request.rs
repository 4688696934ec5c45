//! [`QueryRequest`]: the composable, fallible query surface.
//!
//! A request bundles *what* to run (a [`Strategy`]), the seed, and the
//! serving options ([`InfeasiblePolicy`]). It is the single argument of
//! [`QueryEngine::submit`], the engine's one entry point.
//!
//! ```
//! use expred_core::{QueryEngine, QueryRequest, QuerySpec};
//! use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
//! use expred_udf::CostModel;
//!
//! let ds = Dataset::generate(DatasetSpec { rows: 2_000, ..PROSPER }, 7);
//! let engine = QueryEngine::new();
//!
//! // Fallible end to end: spec validation, then submission.
//! let spec = QuerySpec::try_new(0.9, 0.9, 0.9, CostModel::PAPER_DEFAULT)?;
//! let outcome = engine.submit(&ds, &QueryRequest::naive(spec).with_seed(42))?;
//! assert!(!outcome.returned.is_empty());
//!
//! // Bad input is an error, not a panic.
//! let bad = QueryRequest::optimal(spec, "no_such_column");
//! assert!(engine.submit(&ds, &bad).is_err());
//! # Ok::<(), expred_core::EngineError>(())
//! ```
//!
//! [`QueryEngine::submit`]: crate::engine::QueryEngine::submit

use crate::optimize::CorrelationModel;
use crate::pipeline::IntelSampleConfig;
use crate::query::QuerySpec;
use crate::sampling::SampleSizeRule;
use crate::strategy::{
    Adaptive, ExprScan, IntelSample, Iterative, Learning, Multiple, Naive, Optimal, Strategy,
};
use expred_udf::{CostModel, PredicateExpr};
use std::sync::Arc;

/// What the engine should do when the optimizer proves a request's
/// constraints unsatisfiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InfeasiblePolicy {
    /// Fall back to evaluating everything — always correct, never cheap.
    /// The default; the outcome reports
    /// `plan_feasible == false`.
    #[default]
    FallbackEvaluateAll,
    /// Surface [`crate::error::EngineError::Infeasible`] instead of
    /// paying for the fallback silently. Note the *detection* happens
    /// when the pipeline
    /// reports back, so the (already-executed, already-billed) fallback
    /// outcome is still memoized — a later resubmission under
    /// [`InfeasiblePolicy::FallbackEvaluateAll`] gets it for free.
    Error,
}

/// One composable query request: strategy + seed + options.
///
/// Construct with a convenience constructor (one per built-in strategy)
/// or [`QueryRequest::new`] for a custom [`Strategy`], then chain
/// builders. Requests are cheap to clone (the strategy is shared behind
/// an `Arc`) and a single request value can be resubmitted — to the same
/// engine (memoized) or to others.
#[derive(Clone)]
pub struct QueryRequest {
    strategy: Arc<dyn Strategy>,
    seed: u64,
    on_infeasible: InfeasiblePolicy,
}

impl QueryRequest {
    /// A request running `strategy` with seed 0 and default options.
    pub fn new(strategy: impl Strategy + 'static) -> Self {
        Self::from_arc(Arc::new(strategy))
    }

    /// A request over an already-shared strategy.
    pub fn from_arc(strategy: Arc<dyn Strategy>) -> Self {
        Self {
            strategy,
            seed: 0,
            on_infeasible: InfeasiblePolicy::default(),
        }
    }

    /// The paper's main algorithm ([`crate::pipeline::run_intel_sample`]).
    pub fn intel_sample(cfg: IntelSampleConfig) -> Self {
        Self::new(IntelSample(cfg))
    }

    /// The naive β-fraction baseline ([`crate::pipeline::run_naive`]).
    pub fn naive(spec: QuerySpec) -> Self {
        Self::new(Naive(spec))
    }

    /// The perfect-information lower bound
    /// ([`crate::pipeline::run_optimal`]).
    pub fn optimal(spec: QuerySpec, predictor: impl Into<String>) -> Self {
        Self::new(Optimal {
            spec,
            predictor: predictor.into(),
        })
    }

    /// The parameter-free adaptive pipeline
    /// ([`crate::adaptive::run_intel_sample_adaptive`]).
    pub fn adaptive(spec: QuerySpec, corr: CorrelationModel, predictor: impl Into<String>) -> Self {
        Self::new(Adaptive {
            spec,
            corr,
            predictor: predictor.into(),
        })
    }

    /// The §4.2 iterative estimate/exploit pipeline
    /// ([`crate::adaptive::run_intel_sample_iterative`]).
    pub fn iterative(
        spec: QuerySpec,
        corr: CorrelationModel,
        predictor: impl Into<String>,
        rule: SampleSizeRule,
        rounds: usize,
    ) -> Self {
        Self::new(Iterative {
            spec,
            corr,
            predictor: predictor.into(),
            rule,
            rounds,
        })
    }

    /// The `Learning` ML baseline ([`crate::baselines::run_learning`]).
    pub fn learning(spec: QuerySpec) -> Self {
        Self::new(Learning(spec))
    }

    /// The `Multiple` ML baseline ([`crate::baselines::run_multiple`]).
    pub fn multiple(spec: QuerySpec, imputations: usize) -> Self {
        Self::new(Multiple { spec, imputations })
    }

    /// Exact multi-predicate selection: evaluates `expr` on every row
    /// through the session cache, short-circuiting in the order the
    /// session's selectivity-aware optimizer picks
    /// ([`crate::strategy::ExprScan`]).
    pub fn expr_scan(expr: PredicateExpr, cost: CostModel) -> Self {
        Self::new(ExprScan::new(expr, cost))
    }

    /// Sets the random seed (identical requests differing only in seed
    /// are distinct memo identities).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the infeasibility policy.
    pub fn with_on_infeasible(mut self, policy: InfeasiblePolicy) -> Self {
        self.on_infeasible = policy;
        self
    }

    /// The strategy this request runs.
    pub fn strategy(&self) -> &dyn Strategy {
        self.strategy.as_ref()
    }

    /// The request's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The request's infeasibility policy.
    pub fn infeasible_policy(&self) -> InfeasiblePolicy {
        self.on_infeasible
    }
}

impl std::fmt::Debug for QueryRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRequest")
            .field("strategy", &self.strategy.name())
            .field("seed", &self.seed)
            .field("on_infeasible", &self.on_infeasible)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyIdentity;

    #[test]
    fn builder_defaults_and_chaining() {
        let spec = QuerySpec::paper_default();
        let req = QueryRequest::naive(spec);
        assert_eq!(req.seed(), 0);
        assert_eq!(
            req.infeasible_policy(),
            InfeasiblePolicy::FallbackEvaluateAll
        );
        let req = req.with_seed(9).with_on_infeasible(InfeasiblePolicy::Error);
        assert_eq!(req.seed(), 9);
        assert_eq!(req.infeasible_policy(), InfeasiblePolicy::Error);
        assert_eq!(req.strategy().name(), "naive");
        assert!(format!("{req:?}").contains("naive"));
    }

    #[test]
    fn clones_share_the_strategy() {
        let req = QueryRequest::naive(QuerySpec::paper_default());
        let other = req.clone().with_seed(1);
        assert_eq!(
            StrategyIdentity::of(req.strategy()),
            StrategyIdentity::of(other.strategy())
        );
    }
}
