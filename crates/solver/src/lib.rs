//! Optimization substrate for the `expred` workspace.
//!
//! Everything the paper's query optimizer needs, built from scratch:
//!
//! * [`bigreedy`] — the one plan LP every optimizer builds ([`ChoiceLp`]:
//!   per-group action choices under a recall row and a precision row) and
//!   its exact, tableau-free solve. The paper's BiGreedy (§3.2.2) is its
//!   two-action special case, and [`GreedyProblem`] is LinearProg 3.4's
//!   `(R, E)` form of it.
//! * [`perfect_info`] — Problem 1 (perfect information): exact
//!   branch-and-bound plus an LP-relaxation heuristic.
//! * [`knapsack`] — minimum knapsack (exact DP + greedy) and the
//!   Theorem 3.2 reduction from min-knapsack to Problem 1, executable as a
//!   test rather than just a citation.
//!
//! A dense two-phase simplex lives under this crate's `tests/` as the
//! oracle the property tests hold the plan-LP solve to; no production path
//! runs it.

pub mod bigreedy;
pub mod knapsack;
pub mod perfect_info;

pub use bigreedy::{
    Action, ChoiceLp, ChoicePlan, GreedyError, GreedyGroup, GreedyPlan, GreedyProblem,
};
pub use perfect_info::{Decision, PerfectGroup, PerfectInfoInstance, PerfectInfoSolution};
