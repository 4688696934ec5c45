//! Multiple chained UDF predicates (§5, §10.7.2).
//!
//! The query `SELECT * FROM T WHERE f1(…) = 1 AND f2(…) = 1` admits
//! per-group decisions *per predicate*: a tuple can be returned assuming
//! both predicates hold, evaluated on one predicate and assumed on the
//! other, or evaluated on both (with short-circuiting). Accuracy lost on
//! one predicate can be traded for accuracy on the other — exactly the
//! paper's motivation for joint decision variables.
//!
//! Formulation: for each group `a` with within-group-independent
//! selectivities `s1_a, s2_a`, fractional action probabilities
//! `x_{a,act} ≥ 0`, `Σ_act x ≤ 1` (the remainder is discarded), with
//! expectation-level precision/recall constraints (the paper derives no
//! concentration slack for this extension; neither do we — callers can
//! tighten `alpha`/`beta` to taste). Every action returns the group's
//! correct tuples, so recall is per group, and the LP is the plan LP that
//! `expred_solver::ChoiceLp` solves exactly, one group per `a`.

use crate::optimize::PlanError;
use expred_solver::{Action, ChoiceLp};

/// Per-group statistics for a two-predicate conjunction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredicatePairGroup {
    /// Group size `t_a`.
    pub size: f64,
    /// Selectivity of the first predicate within the group.
    pub s1: f64,
    /// Selectivity of the second predicate within the group.
    pub s2: f64,
}

impl PredicatePairGroup {
    /// Probability both predicates hold (within-group independence).
    pub fn s_both(&self) -> f64 {
        self.s1 * self.s2
    }
}

/// Cost model with distinct per-predicate evaluation costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiCost {
    /// Retrieval cost `o_r`.
    pub retrieve: f64,
    /// Evaluation cost of the first predicate.
    pub eval1: f64,
    /// Evaluation cost of the second predicate.
    pub eval2: f64,
}

/// The non-discard actions; discard probability is the residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiAction {
    /// Retrieve; assume both predicates true.
    Return,
    /// Retrieve; evaluate `f1`, assume `f2`.
    EvalFirst,
    /// Retrieve; evaluate `f2`, assume `f1`.
    EvalSecond,
    /// Retrieve; evaluate `f1` then, if it passed, `f2` (short-circuit).
    EvalBoth,
}

/// All actions in LP-variable order.
pub const ACTIONS: [MultiAction; 4] = [
    MultiAction::Return,
    MultiAction::EvalFirst,
    MultiAction::EvalSecond,
    MultiAction::EvalBoth,
];

/// A fractional multi-predicate plan: per group, the probability of each
/// action (discard = 1 − sum).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPlan {
    /// `probs[a][i]` = probability of `ACTIONS[i]` for group `a`.
    pub probs: Vec<[f64; 4]>,
    /// Expected total cost.
    pub expected_cost: f64,
}

impl MultiPlan {
    /// Probability group `a` takes `action`.
    pub fn prob(&self, a: usize, action: MultiAction) -> f64 {
        let i = ACTIONS.iter().position(|&x| x == action).unwrap();
        self.probs[a][i]
    }

    /// Discard probability of group `a`.
    pub fn discard_prob(&self, a: usize) -> f64 {
        (1.0 - self.probs[a].iter().sum::<f64>()).max(0.0)
    }
}

/// Per-unit expected quantities of one action on one group:
/// `(cost, output_size, correct_output)`.
fn action_rates(g: &PredicatePairGroup, cost: &MultiCost, action: MultiAction) -> (f64, f64, f64) {
    let s12 = g.s_both();
    match action {
        // Everything returned; correct with probability s12.
        MultiAction::Return => (cost.retrieve, 1.0, s12),
        // Output iff f1 passes (prob s1); correct iff f2 also holds.
        MultiAction::EvalFirst => (cost.retrieve + cost.eval1, g.s1, s12),
        MultiAction::EvalSecond => (cost.retrieve + cost.eval2, g.s2, s12),
        // Evaluate f1 always, f2 only on f1-pass; output iff both.
        MultiAction::EvalBoth => (cost.retrieve + cost.eval1 + g.s1 * cost.eval2, s12, s12),
    }
}

/// Solves the two-predicate problem: minimize expected cost subject to
/// expected precision ≥ `alpha` and expected recall ≥ `beta`.
pub fn solve_multi_predicate(
    groups: &[PredicatePairGroup],
    alpha: f64,
    beta: f64,
    cost: &MultiCost,
) -> Result<MultiPlan, PlanError> {
    assert!((0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&beta));
    let mut lp = ChoiceLp::default();
    for g in groups {
        let actions = ACTIONS.map(|action| {
            let (c, out, correct) = action_rates(g, cost, action);
            // precision: correct − α·output ≥ 0 summed.
            Action {
                cost: g.size * c,
                precision: g.size * (correct - alpha * out),
            }
        });
        lp.push_group(g.size * g.s_both(), actions);
    }
    let total_correct: f64 = groups.iter().map(|g| g.size * g.s_both()).sum();
    let plan = lp.solve(beta * total_correct, 0.0).map_err(|e| {
        PlanError::Infeasible(format!("two-predicate constraints unsatisfiable: {e}"))
    })?;
    Ok(MultiPlan {
        probs: plan
            .x
            .chunks_exact(4)
            .map(|x| std::array::from_fn(|i| x[i]))
            .collect(),
        expected_cost: plan.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> MultiCost {
        MultiCost {
            retrieve: 1.0,
            eval1: 3.0,
            eval2: 3.0,
        }
    }

    fn groups() -> Vec<PredicatePairGroup> {
        vec![
            PredicatePairGroup {
                size: 1000.0,
                s1: 0.9,
                s2: 0.95,
            },
            PredicatePairGroup {
                size: 1000.0,
                s1: 0.5,
                s2: 0.6,
            },
            PredicatePairGroup {
                size: 1000.0,
                s1: 0.1,
                s2: 0.2,
            },
        ]
    }

    fn check_constraints(plan: &MultiPlan, groups: &[PredicatePairGroup], alpha: f64, beta: f64) {
        let c = cost();
        let mut correct = 0.0;
        let mut output = 0.0;
        let total: f64 = groups.iter().map(|g| g.size * g.s_both()).sum();
        for (a, g) in groups.iter().enumerate() {
            for (i, &action) in ACTIONS.iter().enumerate() {
                let (_, out, corr) = action_rates(g, &c, action);
                output += g.size * plan.probs[a][i] * out;
                correct += g.size * plan.probs[a][i] * corr;
            }
        }
        assert!(correct >= alpha * output - 1e-6, "precision violated");
        assert!(correct >= beta * total - 1e-6, "recall violated");
    }

    #[test]
    fn feasible_plan_meets_expected_constraints() {
        let gs = groups();
        let plan = solve_multi_predicate(&gs, 0.8, 0.8, &cost()).expect("feasible");
        check_constraints(&plan, &gs, 0.8, 0.8);
        for a in 0..gs.len() {
            let sum: f64 = plan.probs[a].iter().sum();
            assert!(sum <= 1.0 + 1e-9);
            assert!(plan.discard_prob(a) >= -1e-9);
        }
    }

    #[test]
    fn high_joint_selectivity_groups_are_returned() {
        let gs = groups();
        let plan = solve_multi_predicate(&gs, 0.8, 0.8, &cost()).expect("feasible");
        // Group 0 (s_both ≈ 0.855 > alpha) is cheap to return outright.
        assert!(
            plan.prob(0, MultiAction::Return) > 0.5,
            "probs: {:?}",
            plan.probs[0]
        );
    }

    #[test]
    fn zero_constraints_cost_nothing() {
        let gs = groups();
        let plan = solve_multi_predicate(&gs, 0.0, 0.0, &cost()).expect("feasible");
        assert!(plan.expected_cost < 1e-9);
    }

    #[test]
    fn asymmetric_costs_prefer_cheap_predicate() {
        // Make f2 very cheap: evaluating f2 alone should dominate f1-alone.
        let gs = vec![PredicatePairGroup {
            size: 1000.0,
            s1: 0.5,
            s2: 0.5,
        }];
        let cheap2 = MultiCost {
            retrieve: 1.0,
            eval1: 10.0,
            eval2: 0.5,
        };
        let plan = solve_multi_predicate(&gs, 0.9, 0.9, &cheap2).expect("feasible");
        assert!(
            plan.prob(0, MultiAction::EvalFirst) < 1e-6,
            "expensive f1-only action should be unused: {:?}",
            plan.probs[0]
        );
    }

    #[test]
    #[should_panic]
    fn beta_out_of_range_rejected() {
        let gs = groups();
        solve_multi_predicate(&gs, 0.0, 1.2, &cost()).ok();
    }

    #[test]
    fn full_recall_is_always_feasible_in_expectation() {
        // Evaluating both predicates everywhere returns every correct
        // tuple, so beta = 1 is feasible at the expectation level.
        let gs = groups();
        let plan = solve_multi_predicate(&gs, 1.0, 1.0, &cost()).expect("feasible");
        check_constraints(&plan, &gs, 1.0, 1.0);
    }

    #[test]
    fn full_precision_forces_eval_both_on_mixed_groups() {
        let gs = vec![PredicatePairGroup {
            size: 100.0,
            s1: 0.6,
            s2: 0.6,
        }];
        let plan = solve_multi_predicate(&gs, 1.0, 0.9, &cost()).expect("feasible");
        // Only EvalBoth has precision 1 on a mixed group.
        let non_both: f64 = plan.prob(0, MultiAction::Return)
            + plan.prob(0, MultiAction::EvalFirst)
            + plan.prob(0, MultiAction::EvalSecond);
        assert!(non_both < 1e-6, "probs: {:?}", plan.probs[0]);
        assert!(plan.prob(0, MultiAction::EvalBoth) > 0.89);
    }
}
