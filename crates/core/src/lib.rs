//! `expred-core` — the paper's primary contribution.
//!
//! Correlation-aware evaluation of selection queries with expensive UDF
//! predicates, under user-specified precision (`α`), recall (`β`) and
//! satisfaction-probability (`ρ`) constraints:
//!
//! * [`query`] / [`plan`] — the accuracy contract and the per-group
//!   probabilistic plan `(R_a, E_a)`.
//! * [`optimize`] — Problem 2 (perfect selectivities, Hoeffding slack)
//!   and Problem 3 (estimated selectivities, Chebyshev slack,
//!   ConvexProgs 3.10/3.11/4.1 via a damped fixed-point), each LP solved
//!   exactly by `expred_solver`'s plan-LP solve.
//! * [`sampling`] — §4: per-group sampling rules (Constant,
//!   Two-Third-Power, fixed fraction), the per-grouping evidence
//!   [`Ledger`] with its Beta-posterior estimates, and the adaptive `num`
//!   search ([`Sampling::Search`]).
//! * [`column_select`] — §4.4: ranking real columns, and the logistic
//!   virtual column, learned by [`ml`]'s features and model.
//! * [`metrics`] — the precision and recall of an answer, which every
//!   outcome reports against the contract's `α` and `β`.
//! * [`execute`] — the probabilistic executor with sample reuse.
//! * [`pipeline`] — end-to-end contestants: Intel-Sample (with §4.3's
//!   search and §4.2's rounds as two knobs of its configuration), Optimal,
//!   Naive;
//!   and the frame every pipeline runs in, also the seam for a pipeline
//!   written outside this crate (the ML baselines in `expred-bench`).
//! * [`extensions`] — §5: budgeted objectives and two-predicate
//!   conjunctions.
//! * [`engine`] — the session layer: [`QueryEngine`] runs many queries
//!   against one executor, one cross-query [`expred_exec::CacheStore`],
//!   and a memo of whole query outcomes. The engine is `Send + Sync`
//!   with `submit(&self)`, so one session serves many worker threads
//!   directly ([`result_memo`] holds the lock-striped memo behind it).
//! * [`request`] / [`strategy`] / [`error`] — the primary query surface:
//!   a [`QueryRequest`] builder over the closed [`Strategy`] enum (one
//!   variant per pipeline, plus [`Strategy::ExprScan`] for
//!   [`expred_udf::PredicateExpr`] multi-predicate requests), submitted
//!   via the fallible [`QueryEngine::submit`] — invalid input surfaces
//!   as a typed [`EngineError`] instead of a panic.
//!
//! Every pipeline and stage function takes one
//! [`expred_exec::ExecContext`]: one-shot callers pass
//! [`expred_exec::ExecContext::sequential`], a session passes
//! [`QueryEngine::context`]; [`QueryEngine::submit`] is the
//! session-level entry point over all of them.

pub mod column_select;
pub mod engine;
pub mod error;
pub mod execute;
pub mod extensions;
pub mod metrics;
pub mod ml;
pub mod optimize;
pub mod persistence;
pub mod pipeline;
pub mod plan;
pub mod query;
pub mod request;
pub mod result_memo;
pub mod sampling;
pub mod strategy;

pub use engine::{EngineStats, QueryEngine};
pub use error::EngineError;
pub use execute::{execute_plan, truth_vector};
pub use optimize::{
    estimated_feasible, solve_estimated, solve_perfect_selectivities, CorrelationModel,
    EstimatedGroup, PlanError,
};
pub use persistence::PersistSessionStats;
// Re-exported so engine users can configure persistence without a direct
// `expred-persist` dependency.
pub use expred_persist::{FsyncPolicy, PersistConfig, PersistError};
pub use pipeline::{
    run_intel_sample, run_naive, run_optimal, IntelSampleConfig, PredictorChoice, RunOutcome,
};
pub use plan::Plan;
pub use query::QuerySpec;
pub use request::{InfeasiblePolicy, QueryRequest};
pub use result_memo::ResultMemoStats;
pub use sampling::{Ledger, SampleSizeRule, Sampling};
pub use strategy::Strategy;
