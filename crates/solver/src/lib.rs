//! Optimization substrate for the `expred` workspace.
//!
//! Everything the paper's query optimizer needs, built from scratch:
//!
//! * [`bigreedy`] — the one plan LP every optimizer builds ([`ChoiceLp`]:
//!   per-group action choices under a recall row and a precision row) and
//!   its exact, tableau-free solve. The paper's BiGreedy (§3.2.2) is its
//!   two-action special case, and [`GreedyProblem`] is LinearProg 3.4's
//!   `(R, E)` form of it.
//!
//! Three test oracles live under this crate's `tests/`, and no production
//! path runs them: a dense two-phase simplex (`tests/lp`) that the
//! property tests hold the plan-LP solve to, Problem 1 (perfect
//! information) as an exact branch-and-bound plus an LP-relaxation
//! heuristic (`tests/perfect_info`), and minimum knapsack with the
//! Theorem 3.2 reduction from it to Problem 1 (`tests/knapsack`).

pub mod bigreedy;

pub use bigreedy::{Action, ChoiceLp, ChoicePlan, GreedyError, GreedyPlan, GreedyProblem};
