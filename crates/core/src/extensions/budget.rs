//! Alternate objective: fixed cost budget, maximize recall (§10.7.1).
//!
//! "The cost now becomes one of the constraints, while recall … becomes
//! the objective function to be maximized." Expected plan cost is monotone
//! nondecreasing in the recall bound `β`, so the largest attainable `β`
//! under a budget is found by bisection over the §3.2 solver.

use crate::optimize::solve_perfect_selectivities;
use crate::plan::Plan;
use crate::query::QuerySpec;
use expred_udf::CostModel;

/// Result of budget-constrained recall maximization.
#[derive(Debug, Clone)]
pub struct BudgetOutcome {
    /// The plan achieving the best recall bound within budget.
    pub plan: Plan,
    /// The largest recall bound `β` the budget supports (with the query's
    /// `ρ`-slack applied, as in the underlying solver).
    pub achieved_beta: f64,
    /// The plan's expected cost.
    pub expected_cost: f64,
}

/// Maximizes the recall bound subject to `expected cost ≤ budget` and the
/// precision bound `alpha`, for known selectivities.
///
/// Returns `None` when even `β = 0` is unaffordable (i.e. the precision
/// constraint alone forces spending beyond the budget) or infeasible —
/// including an out-of-range `alpha`, `rho` or `cost` (see
/// [`QuerySpec::try_new`]) and a negative or NaN `budget`, which no plan's
/// nonnegative cost fits under. It never panics on its inputs.
pub fn maximize_recall_under_budget(
    sizes: &[f64],
    sels: &[f64],
    alpha: f64,
    rho: f64,
    cost: CostModel,
    budget: f64,
) -> Option<BudgetOutcome> {
    let try_beta = |beta: f64| -> Option<(Plan, f64)> {
        let spec = QuerySpec::try_new(alpha, beta, rho, cost).ok()?;
        let plan = solve_perfect_selectivities(sizes, sels, &spec).ok()?;
        let c = plan.expected_cost(sizes, &cost);
        (c <= budget + 1e-9).then_some((plan, c))
    };

    let (mut plan, mut expected_cost) = try_beta(0.0)?;
    let mut achieved = 0.0;
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    // Fast path: the whole range may be affordable.
    if let Some((p, c)) = try_beta(1.0) {
        return Some(BudgetOutcome {
            plan: p,
            achieved_beta: 1.0,
            expected_cost: c,
        });
    }
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        match try_beta(mid) {
            Some((p, c)) => {
                plan = p;
                expected_cost = c;
                achieved = mid;
                lo = mid;
            }
            None => hi = mid,
        }
    }
    Some(BudgetOutcome {
        plan,
        achieved_beta: achieved,
        expected_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups() -> (Vec<f64>, Vec<f64>) {
        (vec![1000.0, 1000.0, 1000.0], vec![0.9, 0.5, 0.1])
    }

    #[test]
    fn bigger_budget_buys_more_recall() {
        let (sizes, sels) = groups();
        let small =
            maximize_recall_under_budget(&sizes, &sels, 0.8, 0.8, CostModel::PAPER_DEFAULT, 1500.0)
                .expect("affordable");
        let large =
            maximize_recall_under_budget(&sizes, &sels, 0.8, 0.8, CostModel::PAPER_DEFAULT, 6000.0)
                .expect("affordable");
        assert!(large.achieved_beta > small.achieved_beta);
        assert!(small.expected_cost <= 1500.0 + 1e-6);
        assert!(large.expected_cost <= 6000.0 + 1e-6);
    }

    #[test]
    fn unlimited_budget_reaches_full_recall() {
        let (sizes, sels) = groups();
        let out =
            maximize_recall_under_budget(&sizes, &sels, 0.8, 0.8, CostModel::PAPER_DEFAULT, 1e9)
                .expect("affordable");
        assert_eq!(out.achieved_beta, 1.0);
    }

    #[test]
    fn zero_budget_zero_recall() {
        let (sizes, sels) = groups();
        let out =
            maximize_recall_under_budget(&sizes, &sels, 0.8, 0.8, CostModel::PAPER_DEFAULT, 0.0)
                .expect("beta = 0 costs nothing");
        assert!(out.achieved_beta < 1e-6);
        assert_eq!(out.expected_cost, 0.0);
    }

    #[test]
    fn out_of_range_input_is_none_not_a_panic() {
        let (sizes, sels) = groups();
        let solve = |alpha, rho, budget| {
            maximize_recall_under_budget(
                &sizes,
                &sels,
                alpha,
                rho,
                CostModel::PAPER_DEFAULT,
                budget,
            )
        };
        assert!(solve(0.8, 0.8, 1e9).is_some(), "the baseline is feasible");
        assert!(solve(0.8, 1.0, 1e9).is_none(), "rho out of [0, 1)");
        assert!(solve(1.5, 0.8, 1e9).is_none(), "alpha out of [0, 1]");
        assert!(solve(0.8, 0.8, -1.0).is_none(), "negative budget");
        assert!(solve(0.8, 0.8, f64::NAN).is_none(), "NaN budget");
    }

    #[test]
    fn achieved_plan_is_within_budget() {
        let (sizes, sels) = groups();
        for budget in [500.0, 1000.0, 2000.0, 4000.0] {
            let out = maximize_recall_under_budget(
                &sizes,
                &sels,
                0.8,
                0.8,
                CostModel::PAPER_DEFAULT,
                budget,
            )
            .expect("affordable");
            assert!(
                out.plan.expected_cost(&sizes, &CostModel::PAPER_DEFAULT) <= budget + 1e-6,
                "budget {budget} exceeded"
            );
        }
    }
}
