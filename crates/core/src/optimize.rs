//! The paper's plan optimizers.
//!
//! * [`solve_perfect_selectivities`] — Problem 2 / LinearProg 3.4 (§3.2):
//!   Hoeffding slack terms turn the probabilistic constraints into linear
//!   thresholds, solved exactly by `expred_solver`'s plan-LP solve.
//! * [`solve_estimated`] — Problem 3 / ConvexProgs 3.10 & 3.11 (§3.3) and
//!   their sampling-aware refinement ConvexProg 4.1 (§4.2): Chebyshev
//!   deviation terms make the thresholds depend on the plan itself; we
//!   solve by a damped fixed-point over that same LP (its coefficients
//!   built once, each iterate moving only the two targets), keeping the
//!   cheapest iterate that passes the *exact* convex feasibility check
//!   ([`estimated_feasible`]) — correctness rests on that verification,
//!   not on the iteration converging.

use crate::plan::Plan;
use crate::query::QuerySpec;
use expred_solver::bigreedy::GreedyProblem;
use expred_stats::bounds::{chebyshev_scale, precision_slack, recall_slack};

/// Plan construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No plan can satisfy the constraints; the payload says which side.
    Infeasible(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Infeasible(why) => write!(f, "infeasible plan: {why}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Solves Problem 2: perfect selectivities with Hoeffding slacks.
///
/// `sizes[a] = t_a`, `sels[a] = s_a` (exact). The recall constraint LHS
/// must exceed `β Σ t_a s_a + h^r_ρ` and the precision LHS must exceed
/// `h^p_ρ`, per LinearProg 3.4.
pub fn solve_perfect_selectivities(
    sizes: &[f64],
    sels: &[f64],
    spec: &QuerySpec,
) -> Result<Plan, PlanError> {
    assert_eq!(sizes.len(), sels.len());
    // beta = 0 makes the recall constraint vacuous; the empty answer is
    // optimal and vacuously precise (the slack machinery below would
    // otherwise demand a margin an empty plan cannot produce).
    if spec.beta == 0.0 {
        return Ok(Plan::discard_all(sizes.len()));
    }
    let n: f64 = sizes.iter().sum();
    let hp = if spec.alpha == 0.0 {
        0.0
    } else {
        precision_slack(n, spec.rho)
    };
    let hr = recall_slack(n, spec.beta, spec.rho);
    let recall_mass: f64 = sizes.iter().zip(sels).map(|(t, s)| t * s).sum();
    let problem = GreedyProblem::from_group_stats(
        sizes,
        sels,
        spec.alpha,
        spec.cost.retrieve,
        spec.cost.evaluate,
        spec.beta * recall_mass + hr,
        hp,
    );
    let plan = problem
        .solve()
        .map_err(|e| PlanError::Infeasible(e.to_string()))?;
    Ok(Plan::new(plan.r, plan.e))
}

/// How selectivity-estimate errors co-vary across groups (§3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationModel {
    /// Estimates are independent across groups (the sampling case);
    /// deviations combine in L2 — ConvexProg 3.11.
    Independent,
    /// Nothing is known; worst-case full correlation, deviations add up in
    /// L1 — ConvexProg 3.10.
    Unknown,
}

/// One group's estimated statistics for Problem 3 / ConvexProg 4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatedGroup {
    /// Total group size `t_a`.
    pub size: f64,
    /// Tuples already sampled (retrieved + evaluated) from this group
    /// (`F_a`; 0 when estimates came from elsewhere).
    pub sampled: f64,
    /// Sampled tuples that satisfied the predicate (`F⁺_a`).
    pub sampled_positive: f64,
    /// Estimated selectivity mean `s_a`.
    pub sel: f64,
    /// Estimated selectivity variance `v_a`.
    pub var: f64,
}

impl EstimatedGroup {
    /// Tuples still subject to planning: `m_a = t_a − F_a`.
    pub fn remaining(&self) -> f64 {
        (self.size - self.sampled).max(0.0)
    }
}

/// The Chebyshev deviation bound on the precision constraint for a plan.
fn precision_dev(
    groups: &[EstimatedGroup],
    plan_r: &[f64],
    plan_e: &[f64],
    alpha: f64,
    corr: CorrelationModel,
) -> f64 {
    match corr {
        CorrelationModel::Independent => {
            let sum: f64 = groups
                .iter()
                .zip(plan_r.iter().zip(plan_e))
                .map(|(g, (&r, &e))| {
                    let m = g.remaining();
                    let d = r - alpha * e;
                    m * m * g.var * d * d + 0.25 * m
                })
                .sum();
            sum.sqrt()
        }
        CorrelationModel::Unknown => groups
            .iter()
            .zip(plan_r.iter().zip(plan_e))
            .map(|(g, (&r, &e))| {
                let m = g.remaining();
                g.var.sqrt() * m * (r - alpha * e) + 0.5 * m.sqrt()
            })
            .sum(),
    }
}

/// The Chebyshev deviation bound on the recall constraint for a plan.
fn recall_dev(groups: &[EstimatedGroup], plan_r: &[f64], beta: f64, corr: CorrelationModel) -> f64 {
    match corr {
        CorrelationModel::Independent => {
            let sum: f64 = groups
                .iter()
                .zip(plan_r)
                .map(|(g, &r)| {
                    let m = g.remaining();
                    let d = r - beta;
                    m * m * g.var * d * d + 0.25 * m
                })
                .sum();
            sum.sqrt()
        }
        CorrelationModel::Unknown => groups
            .iter()
            .zip(plan_r)
            .map(|(g, &r)| {
                let m = g.remaining();
                g.var.sqrt() * m * (r - beta).abs() + 0.5 * m.sqrt()
            })
            .sum(),
    }
}

/// Expected precision-constraint margin (the `≥ X` LHS of ConvexProg 4.1).
pub fn precision_margin(groups: &[EstimatedGroup], plan: &Plan, alpha: f64) -> f64 {
    groups
        .iter()
        .zip(plan.r().iter().zip(plan.e()))
        .map(|(g, (&r, &e))| {
            let m = g.remaining();
            g.sampled_positive * (1.0 - alpha) + (1.0 - alpha) * m * r * g.sel
                - m * alpha * (r - e) * (1.0 - g.sel)
        })
        .sum()
}

/// Expected recall-constraint margin (the `≥ Y` LHS of ConvexProg 4.1).
pub(crate) fn recall_margin(groups: &[EstimatedGroup], plan: &Plan, beta: f64) -> f64 {
    groups
        .iter()
        .zip(plan.r())
        .map(|(g, &r)| {
            let m = g.remaining();
            g.sampled_positive + m * r * g.sel - beta * (g.sampled_positive + m * g.sel)
        })
        .sum()
}

/// Verifies the convex-program feasibility of a plan: both expected
/// margins must dominate `e_ρ` times their deviation bounds.
pub fn estimated_feasible(
    groups: &[EstimatedGroup],
    plan: &Plan,
    spec: &QuerySpec,
    corr: CorrelationModel,
    tol: f64,
) -> bool {
    let e_rho = chebyshev_scale(spec.rho);
    let x = e_rho * precision_dev(groups, plan.r(), plan.e(), spec.alpha, corr);
    let y = e_rho * recall_dev(groups, plan.r(), spec.beta, corr);
    precision_margin(groups, plan, spec.alpha) >= x - tol
        && recall_margin(groups, plan, spec.beta) >= y - tol
}

/// Solves Problem 3 (ConvexProg 3.10 / 3.11) — and, when `sampled > 0`,
/// the sampling-aware ConvexProg 4.1 — by a damped fixed-point over the
/// structured LP, returning the cheapest iterate that passes
/// [`estimated_feasible`].
pub fn solve_estimated(
    groups: &[EstimatedGroup],
    spec: &QuerySpec,
    corr: CorrelationModel,
) -> Result<Plan, PlanError> {
    let k = groups.len();
    // beta = 0: the recall constraint is vacuous and the empty answer is
    // optimal and vacuously precise.
    if spec.beta == 0.0 {
        return Ok(Plan::discard_all(k));
    }
    let e_rho = chebyshev_scale(spec.rho);
    let sizes: Vec<f64> = groups.iter().map(|g| g.remaining()).collect();
    let sels: Vec<f64> = groups.iter().map(|g| g.sel).collect();
    let sampled_pos: f64 = groups.iter().map(|g| g.sampled_positive).sum();
    let expected_correct: f64 = groups
        .iter()
        .map(|g| g.sampled_positive + g.remaining() * g.sel)
        .sum();
    let scale = 1.0 + expected_correct;
    // Looser than the iteration's convergence tolerance, so a converged
    // iterate always passes its own verification (the slack is well under
    // one tuple's worth of margin at any realistic table size).
    let verify_tol = 1e-5 * scale;

    // Correctness comes from the *verification*, not the iteration: every
    // iterate whose exact Chebyshev margins check out is a candidate, and
    // the cheapest verified candidate wins. The damped threshold update
    // merely steers the LP toward the convex program's fixed point — a
    // monotone ratchet would lock onto an early overshoot (a cheap low-E
    // plan maximizes the deviation terms) and misreport infeasibility.
    let mut best: Option<(f64, Plan)> = None;
    let consider = |plan: Plan, best: &mut Option<(f64, Plan)>| {
        if estimated_feasible(groups, &plan, spec, corr, verify_tol) {
            let cost = plan.expected_cost(&sizes, &spec.cost);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                *best = Some((cost, plan));
            }
        }
    };

    // The always-feasible anchor, if one exists at all.
    consider(Plan::evaluate_all(k), &mut best);

    let problem = GreedyProblem::from_group_stats(
        &sizes,
        &sels,
        spec.alpha,
        spec.cost.retrieve,
        spec.cost.evaluate,
        0.0,
        0.0,
    );
    let solve_at = |x: f64, y: f64| -> Option<Plan> {
        problem
            .solve_with(
                y + spec.beta * expected_correct - sampled_pos,
                x - (1.0 - spec.alpha) * sampled_pos,
            )
            .ok()
            .map(|p| Plan::new(p.r, p.e))
    };

    let mut x = 0.0f64;
    let mut y = 0.0f64;
    for iter in 0..60 {
        let Some(plan) = solve_at(x, y) else {
            // Thresholds overshot what the instance can support; relax and
            // keep iterating (a verified candidate may already exist).
            x *= 0.7;
            y *= 0.7;
            continue;
        };
        let x_next = e_rho * precision_dev(groups, plan.r(), plan.e(), spec.alpha, corr);
        let y_next = e_rho * recall_dev(groups, plan.r(), spec.beta, corr);
        consider(plan, &mut best);
        let converged = (x_next - x).abs() <= 1e-6 * scale && (y_next - y).abs() <= 1e-6 * scale;
        if converged {
            // One last slightly over-tightened solve: its LP margins then
            // strictly dominate its own deviations, guaranteeing a
            // verified candidate whenever the program is feasible here.
            let pad = 1e-6 * scale;
            if let Some(plan) = solve_at(x_next + pad, y_next + pad) {
                consider(plan, &mut best);
            }
            if best.is_some() {
                break;
            }
        }
        // Damped update; undamped on the first step so thresholds engage
        // immediately.
        if iter == 0 {
            x = x_next;
            y = y_next;
        } else {
            x = 0.5 * (x + x_next);
            y = 0.5 * (y + y_next);
        }
    }
    match best {
        Some((_, plan)) => Ok(plan),
        None => Err(PlanError::Infeasible(
            "no plan satisfies the Chebyshev-verified precision/recall margins".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_groups() -> (Vec<f64>, Vec<f64>) {
        (vec![1000.0, 1000.0, 1000.0], vec![0.9, 0.5, 0.1])
    }

    fn estimated_from(sizes: &[f64], sels: &[f64], samples: f64) -> Vec<EstimatedGroup> {
        sizes
            .iter()
            .zip(sels)
            .map(|(&t, &s)| {
                // Beta-posterior-style variance for `samples` observations.
                let var = s * (1.0 - s) / (samples + 3.0);
                EstimatedGroup {
                    size: t,
                    sampled: 0.0,
                    sampled_positive: 0.0,
                    sel: s,
                    var,
                }
            })
            .collect()
    }

    #[test]
    fn perfect_selectivities_plan_is_valid() {
        let (sizes, sels) = paper_groups();
        let spec = QuerySpec::paper_default();
        let plan = solve_perfect_selectivities(&sizes, &sels, &spec).expect("feasible");
        assert_eq!(plan.num_groups(), 3);
        // High-selectivity group should be fully retrieved.
        assert!(plan.r()[0] > 0.99);
        // Recall LHS must exceed beta * mass + slack.
        let lhs: f64 = sizes
            .iter()
            .zip(sels.iter().zip(plan.r()))
            .map(|(t, (s, r))| t * s * r)
            .sum();
        let hr = recall_slack(3000.0, spec.beta, spec.rho);
        assert!(lhs >= 0.8 * 1500.0 + hr - 1e-6);
    }

    #[test]
    fn tighter_rho_costs_more() {
        let (sizes, sels) = paper_groups();
        let loose = QuerySpec::new(0.8, 0.8, 0.6, expred_udf::CostModel::PAPER_DEFAULT);
        let tight = QuerySpec::new(0.8, 0.8, 0.95, expred_udf::CostModel::PAPER_DEFAULT);
        let c_loose = solve_perfect_selectivities(&sizes, &sels, &loose)
            .unwrap()
            .expected_cost(&sizes, &loose.cost);
        let c_tight = solve_perfect_selectivities(&sizes, &sels, &tight)
            .unwrap()
            .expected_cost(&sizes, &tight.cost);
        assert!(c_tight >= c_loose, "{c_tight} < {c_loose}");
    }

    #[test]
    fn estimated_plan_verifies_feasibility() {
        let (sizes, sels) = paper_groups();
        let groups = estimated_from(&sizes, &sels, 50.0);
        let spec = QuerySpec::paper_default();
        for corr in [CorrelationModel::Independent, CorrelationModel::Unknown] {
            let plan = solve_estimated(&groups, &spec, corr).expect("feasible");
            assert!(
                estimated_feasible(&groups, &plan, &spec, corr, 1e-6),
                "{corr:?} plan must verify"
            );
        }
    }

    #[test]
    fn unknown_correlations_cost_at_least_independent() {
        let (sizes, sels) = paper_groups();
        let groups = estimated_from(&sizes, &sels, 50.0);
        let spec = QuerySpec::paper_default();
        let szs: Vec<f64> = groups.iter().map(|g| g.remaining()).collect();
        let ind = solve_estimated(&groups, &spec, CorrelationModel::Independent)
            .unwrap()
            .expected_cost(&szs, &spec.cost);
        let unk = solve_estimated(&groups, &spec, CorrelationModel::Unknown)
            .unwrap()
            .expected_cost(&szs, &spec.cost);
        assert!(
            unk >= ind - 1e-6,
            "worst-case correlations cannot be cheaper: {unk} vs {ind}"
        );
    }

    #[test]
    fn more_samples_reduce_cost() {
        let (sizes, sels) = paper_groups();
        let spec = QuerySpec::paper_default();
        let szs = sizes.clone();
        let vague = estimated_from(&sizes, &sels, 10.0);
        let sharp = estimated_from(&sizes, &sels, 1000.0);
        let c_vague = solve_estimated(&vague, &spec, CorrelationModel::Independent)
            .unwrap()
            .expected_cost(&szs, &spec.cost);
        let c_sharp = solve_estimated(&sharp, &spec, CorrelationModel::Independent)
            .unwrap()
            .expected_cost(&szs, &spec.cost);
        assert!(
            c_sharp <= c_vague + 1e-6,
            "sharper estimates must not cost more: {c_sharp} vs {c_vague}"
        );
    }

    #[test]
    fn fully_sampled_instance_needs_no_plan() {
        let groups = vec![EstimatedGroup {
            size: 100.0,
            sampled: 100.0,
            sampled_positive: 60.0,
            sel: 0.6,
            var: 0.0,
        }];
        let spec = QuerySpec::paper_default();
        let plan = solve_estimated(&groups, &spec, CorrelationModel::Independent).unwrap();
        assert_eq!(plan.expected_cost(&[0.0], &spec.cost), 0.0);
        assert!(estimated_feasible(
            &groups,
            &plan,
            &spec,
            CorrelationModel::Independent,
            1e-9
        ));
    }

    #[test]
    fn sampled_positives_lighten_the_plan() {
        // Same statistics, but one instance has already banked sampled
        // positives; its remaining plan must be no more expensive.
        let fresh = vec![EstimatedGroup {
            size: 1000.0,
            sampled: 0.0,
            sampled_positive: 0.0,
            sel: 0.7,
            var: 0.002,
        }];
        let banked = vec![EstimatedGroup {
            size: 1000.0,
            sampled: 300.0,
            sampled_positive: 210.0,
            sel: 0.7,
            var: 0.002,
        }];
        let spec = QuerySpec::paper_default();
        let p_fresh = solve_estimated(&fresh, &spec, CorrelationModel::Independent).unwrap();
        let p_banked = solve_estimated(&banked, &spec, CorrelationModel::Independent).unwrap();
        let c_fresh = p_fresh.expected_cost(&[1000.0], &spec.cost);
        let c_banked = p_banked.expected_cost(&[700.0], &spec.cost);
        assert!(c_banked <= c_fresh + 1e-6, "{c_banked} vs {c_fresh}");
    }

    #[test]
    fn infeasible_recall_is_reported() {
        let groups = vec![EstimatedGroup {
            size: 10.0,
            sampled: 0.0,
            sampled_positive: 0.0,
            sel: 0.5,
            var: 0.05,
        }];
        let spec = QuerySpec::new(0.5, 0.99, 0.99, expred_udf::CostModel::PAPER_DEFAULT);
        let got = solve_estimated(&groups, &spec, CorrelationModel::Independent);
        assert!(got.is_err(), "tiny noisy group cannot hit 99%/99%");
    }

    #[test]
    fn zero_variance_estimated_close_to_perfect() {
        // With zero estimate variance, the only gap vs Problem 2 is the
        // 0.25·m execution-randomness term (Chebyshev vs Hoeffding).
        let (sizes, sels) = paper_groups();
        let groups: Vec<EstimatedGroup> = sizes
            .iter()
            .zip(&sels)
            .map(|(&t, &s)| EstimatedGroup {
                size: t,
                sampled: 0.0,
                sampled_positive: 0.0,
                sel: s,
                var: 0.0,
            })
            .collect();
        let spec = QuerySpec::paper_default();
        let est = solve_estimated(&groups, &spec, CorrelationModel::Independent)
            .unwrap()
            .expected_cost(&sizes, &spec.cost);
        let perf = solve_perfect_selectivities(&sizes, &sels, &spec)
            .unwrap()
            .expected_cost(&sizes, &spec.cost);
        // Chebyshev slack is inherently looser than Hoeffding slack at the
        // same rho, so a moderate premium remains even at zero variance.
        let rel_gap = (est - perf).abs() / perf;
        assert!(rel_gap < 0.3, "gap {rel_gap} too large: {est} vs {perf}");
    }
}
