//! Selection followed by a join (§5, §10.7.3).
//!
//! When the filtered table `T` is subsequently joined with `T2`, a tuple
//! that matches many `T2` tuples matters more: "it may be worthwhile for
//! us to evaluate a tuple with low correctness-probability that matches
//! with a large number of tuples from `T2`, over a tuple with higher
//! correctness probability that joins with fewer". Following the paper's
//! construction, decision variables are split per (correlated value,
//! join value) and every precision/recall contribution is weighted by the
//! join fan-out `n_j`; costs are *not* weighted (retrieving/evaluating a
//! `T` tuple costs the same regardless of its fan-out).
//!
//! Constraints are expectation-level, as in the paper's sketch.

use crate::optimize::PlanError;
use crate::plan::Plan;
use expred_solver::bigreedy::{GreedyGroup, GreedyProblem};
use expred_udf::CostModel;

/// One `(correlated value, join value)` subgroup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSubgroup {
    /// Number of `T` tuples in the subgroup (`t_{a,j}`).
    pub size: f64,
    /// Selectivity of the UDF within the subgroup (inherited from the
    /// correlated value `a`).
    pub sel: f64,
    /// Join fan-out `n_j`: how many `T2` tuples each tuple matches.
    pub fanout: f64,
}

/// Solves the join-weighted selection: minimize expected cost subject to
/// join-weighted precision ≥ `alpha` and join-weighted recall ≥ `beta`.
///
/// Returns a per-subgroup plan in the order of `subgroups`.
pub fn solve_select_join(
    subgroups: &[JoinSubgroup],
    alpha: f64,
    beta: f64,
    cost: &CostModel,
) -> Result<Plan, PlanError> {
    assert!((0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&beta));
    let recall_mass: f64 = subgroups.iter().map(|g| g.size * g.sel * g.fanout).sum();
    let groups = subgroups.iter().map(|g| {
        let (t, s, w) = (g.size, g.sel, g.fanout);
        GreedyGroup {
            cost_r: t * cost.retrieve,
            cost_e: t * cost.evaluate,
            recall_r: w * t * s,
            prec_r: w * (t * s * (1.0 - alpha) - alpha * t * (1.0 - s)),
            prec_e: w * alpha * t * (1.0 - s),
        }
    });
    let plan = GreedyProblem::new(groups, beta * recall_mass, 0.0)
        .solve()
        .map_err(|e| PlanError::Infeasible(e.to_string()))?;
    Ok(Plan::new(plan.r, plan.e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_fanout_subgroups_dominate_recall() {
        // Two subgroups, same size and selectivity, very different fan-out:
        // at beta = 0.5 the solver must prefer the high-fanout subgroup.
        let subs = vec![
            JoinSubgroup {
                size: 100.0,
                sel: 0.5,
                fanout: 10.0,
            },
            JoinSubgroup {
                size: 100.0,
                sel: 0.5,
                fanout: 1.0,
            },
        ];
        let plan = solve_select_join(&subs, 0.0, 0.5, &CostModel::PAPER_DEFAULT).unwrap();
        assert!(
            plan.r()[0] > plan.r()[1],
            "high-fanout subgroup should be retrieved first: {:?}",
            plan.r()
        );
    }

    #[test]
    fn paper_motivation_low_sel_high_fanout_beats_high_sel_low_fanout() {
        // A lower-selectivity subgroup with huge fan-out should be planned
        // in before a higher-selectivity subgroup with tiny fan-out, even
        // though a selectivity-ordered greedy would pick the latter first.
        let subs = vec![
            JoinSubgroup {
                size: 100.0,
                sel: 0.4,
                fanout: 50.0,
            },
            JoinSubgroup {
                size: 100.0,
                sel: 0.8,
                fanout: 1.0,
            },
        ];
        let plan = solve_select_join(&subs, 0.0, 0.4, &CostModel::PAPER_DEFAULT).unwrap();
        // Recall mass: 0.4*100*50 = 2000 vs 0.8*100*1 = 80; target = 832.
        // Covering via subgroup 0 costs 100·1·(832/2000); via subgroup 1 it
        // cannot even reach the target.
        assert!(plan.r()[0] > 0.3);
        assert!(
            plan.r()[1] < 0.2,
            "low-fanout subgroup wasteful: {:?}",
            plan.r()
        );
    }

    #[test]
    fn precision_weighting_counts_joined_rows() {
        // A junk subgroup with large fan-out poisons join-precision fast;
        // the solver must evaluate (not blind-return) it.
        let subs = vec![
            JoinSubgroup {
                size: 100.0,
                sel: 0.95,
                fanout: 1.0,
            },
            JoinSubgroup {
                size: 100.0,
                sel: 0.30,
                fanout: 20.0,
            },
        ];
        let plan = solve_select_join(&subs, 0.9, 0.9, &CostModel::PAPER_DEFAULT).unwrap();
        // Subgroup 1 is needed for recall (its weighted mass dominates) but
        // blind returns would crush precision, so it must be evaluated.
        assert!(plan.r()[1] > 0.8);
        assert!(
            plan.e()[1] > 0.5,
            "junk subgroup must be evaluated: {:?}",
            plan.e()
        );
    }

    #[test]
    fn zero_selectivity_subgroups_are_never_retrieved() {
        // A subgroup with no correct tuples contributes nothing to recall
        // and only poisons precision; the plan must skip it entirely.
        let subs = vec![
            JoinSubgroup {
                size: 100.0,
                sel: 0.0,
                fanout: 5.0,
            },
            JoinSubgroup {
                size: 100.0,
                sel: 0.6,
                fanout: 1.0,
            },
        ];
        let plan = solve_select_join(&subs, 0.5, 0.8, &CostModel::PAPER_DEFAULT).unwrap();
        assert!(
            plan.r()[0] < 1e-9,
            "junk subgroup retrieved: {:?}",
            plan.r()
        );
        assert!(plan.r()[1] > 0.7);
    }

    #[test]
    fn uniform_fanout_reduces_to_plain_selection() {
        // With fan-out 1 everywhere the solution must match the plain
        // perfect-selectivity LP at zero slack.
        let subs = vec![
            JoinSubgroup {
                size: 1000.0,
                sel: 0.9,
                fanout: 1.0,
            },
            JoinSubgroup {
                size: 1000.0,
                sel: 0.5,
                fanout: 1.0,
            },
            JoinSubgroup {
                size: 1000.0,
                sel: 0.1,
                fanout: 1.0,
            },
        ];
        let plan = solve_select_join(&subs, 0.9, 0.9, &CostModel::PAPER_DEFAULT).unwrap();
        let sizes = [1000.0, 1000.0, 1000.0];
        let sels = [0.9, 0.5, 0.1];
        let plain =
            GreedyProblem::from_group_stats(&sizes, &sels, 0.9, 1.0, 3.0, 0.9 * 1500.0, 0.0)
                .solve()
                .unwrap();
        let join_cost = plan.expected_cost(&sizes, &CostModel::PAPER_DEFAULT);
        assert!((join_cost - plain.cost).abs() < 1e-6 * (1.0 + plain.cost));
    }
}
