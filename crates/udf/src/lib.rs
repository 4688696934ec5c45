//! Expensive-UDF abstraction for the `expred` workspace.
//!
//! The paper's object of study is a selection query whose predicate is an
//! expensive black-box boolean function. This crate models that function
//! and — critically for a faithful reproduction — *audits* every access to
//! it:
//!
//! * [`udf`] — the [`BooleanUdf`] trait plus implementations: the
//!   evaluation-protocol [`OracleUdf`] (answers from a hidden label
//!   column), latency simulation, and answer noise.
//! * [`cost`] — the `(o_r, o_e)` cost model and a shared, thread-safe
//!   [`CostTracker`].
//! * [`invoker`] — [`UdfInvoker`], the only gateway algorithm code may use:
//!   it charges every retrieval/evaluation and memoizes answers so sampled
//!   tuples are never paid for twice — within a query through its own
//!   memo, and across queries through a borrowed
//!   [`expred_exec::CacheHandle`] when running inside a session
//!   ([`UdfInvoker::with_context`]).
//! * [`expr`] — [`PredicateExpr`] (alias [`Pred`]): and/or/not
//!   expressions over UDFs with derived cache identities, evaluated over
//!   bit planes of rows in staged batches with cost-ordered
//!   short-circuiting through the session cache ([`evaluate_expr`]).
//! * [`parse`] — the predicate DSL ([`parse_predicate`]): pypred-style
//!   strings (`"a and (b or not c)"`) resolved to expressions through a
//!   caller-supplied [`UdfRegistry`], with typed positioned errors.
//! * [`optimize`] — [`optimize_expr`], the selectivity-aware rewrite
//!   pass: normalize/dedup, Kim-style factoring of shared conjuncts, and
//!   sibling reordering by the pass rates the session store's answers
//!   show ([`expred_exec::CacheStore::pass_rate`]). Answers are
//!   byte-identical; only the bill drops.

pub mod cost;
pub mod expr;
pub mod invoker;
pub mod optimize;
pub mod parse;
pub mod udf;

pub use cost::{CostCounts, CostModel, CostTracker};
pub use expr::{evaluate_expr, InvalidCostsError, Pred, PredicateExpr, DEFAULT_LEAF_COST};
pub use invoker::UdfInvoker;
pub use optimize::optimize_expr;
pub use parse::{parse_predicate, OracleRegistry, ParseError, ParseErrorKind, UdfRegistry};
pub use udf::{BooleanUdf, NoisyUdf, OracleUdf, SlowUdf, UdfId};
