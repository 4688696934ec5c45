//! The plan LP and its one exact solve; the paper's BiGreedy (§3.2.2) is
//! its two-action special case.
//!
//! Every plan the optimizer makes solves one LP shape: LinearProg 3.4
//! (§3.2), each fixed-point iterate of ConvexProgs 3.10/3.11/4.1 (§3.3,
//! §4.2), and the §5 join, two-predicate and chain extensions. Group `a`
//! takes each of its actions with probability `x_{a,i} ≥ 0`,
//! `Σ_i x_{a,i} ≤ 1` (the rest is discarded), to
//!
//! ```text
//! minimise Σ c·x   s.t.   Σ u_a·x ≥ U (recall),   Σ v·x ≥ V (precision).
//! ```
//!
//! Evaluating only ever filters out wrong tuples, so every action of a
//! group returns the same correct tuples: the recall coefficient
//! `u_a ≥ 0` is per group. [`ChoiceLp::solve`] is exact and builds no
//! tableau:
//!
//! 1. Dualise the precision row with one multiplier `μ ≥ 0`.
//! 2. For fixed `μ`, each group's best action minimises `c − μ·v`, and
//!    what is left is a fractional knapsack over the recall row: one sort
//!    of the groups by reduced cost per unit of recall solves it exactly.
//! 3. The dual `g(μ)` is concave and piecewise linear. A Newton search
//!    over its pieces (intersect the two best lines, then cut at the
//!    intersection) finds its maximum `μ*`.
//! 4. The sub-solutions on either side of `μ*` are both optimal there, so
//!    the mix of the two that makes the precision row tight is optimal.
//!
//! With two actions per group ("return unevaluated" and "evaluate"), step
//! 2 at `μ = 0` retrieves groups in decreasing selectivity order, which is
//! BiGreedy's Phase R, and raising `μ` switches groups to "evaluate" in
//! increasing selectivity order, which is its Phase E. Under Theorem 3.8's
//! preconditions those two phases are the answer. Outside them the search
//! also finds the plans that over-retrieve high-selectivity groups.

/// Relative tolerance of the feasibility verdicts.
const TOL: f64 = 1e-9;
/// Relative gap at which the dual search accepts its bracket as optimal.
const STOP: f64 = 1e-12;
/// Dual steps before the search settles for its current bracket. Each step
/// finds a new piece of `g`; random instances take about `log₂ k` steps
/// (5 at 8 groups, 17 at 65 536), so this bounds only float stalls.
const MAX_STEPS: usize = 100;

/// One action of a group, per unit of the group's probability mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Action {
    /// Objective weight.
    pub cost: f64,
    /// Precision-row coefficient (may be negative).
    pub precision: f64,
}

/// The plan LP's coefficients, group by group; the two targets come with
/// each [`ChoiceLp::solve`], so one set of coefficients serves many.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChoiceLp {
    /// Per group: its recall coefficient `u_a` and one past its last action.
    groups: Vec<(f64, usize)>,
    actions: Vec<Action>,
}

/// An optimal plan of a [`ChoiceLp`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChoicePlan {
    /// One probability per action, in the order the actions were pushed.
    pub x: Vec<f64>,
    /// Objective value `Σ c·x`.
    pub cost: f64,
}

/// Why no plan meets both rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GreedyError {
    /// Even retrieving every group cannot meet the recall target.
    RecallUnreachable,
    /// No plan that meets the recall target meets the precision target.
    PrecisionUnreachable,
}

impl std::fmt::Display for GreedyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GreedyError::RecallUnreachable => {
                write!(f, "recall target exceeds the total available recall mass")
            }
            GreedyError::PrecisionUnreachable => write!(
                f,
                "precision target exceeds what any plan meeting the recall target can reach"
            ),
        }
    }
}

impl std::error::Error for GreedyError {}

/// The minimiser of `Σ (cost_w·c − prec_w·v)·x` under the recall row alone:
/// per group, the mass it retrieves and the action (an index into
/// [`ChoiceLp::actions`]) that mass takes.
struct Response {
    picks: Vec<(f64, usize)>,
    cost: f64,
    precision: f64,
}

impl Response {
    /// This plan's Lagrangian value at multiplier `mu`: a line in `mu`
    /// that lies on or above the dual `g`.
    fn line(&self, mu: f64, precision_target: f64) -> f64 {
        self.cost - mu * (self.precision - precision_target)
    }
}

impl ChoiceLp {
    /// Appends a group whose every action returns `recall` correct tuples
    /// per unit of mass.
    pub fn push_group(&mut self, recall: f64, actions: impl IntoIterator<Item = Action>) {
        self.actions.extend(actions);
        self.groups.push((recall, self.actions.len()));
    }

    /// Each group's recall coefficient and actions, in push order.
    pub fn groups(&self) -> impl Iterator<Item = (f64, &[Action])> + '_ {
        let mut start = 0;
        self.groups.iter().map(move |&(recall, end)| {
            let actions = &self.actions[start..end];
            start = end;
            (recall, actions)
        })
    }

    /// The minimum-cost plan with recall LHS `≥ recall_target` and
    /// precision LHS `≥ precision_target`, or which row no plan can meet.
    pub fn solve(
        &self,
        recall_target: f64,
        precision_target: f64,
    ) -> Result<ChoicePlan, GreedyError> {
        let mass: f64 = self.groups.iter().map(|g| g.0).sum();
        if recall_target > mass + TOL * (1.0 + mass.abs()) {
            return Err(GreedyError::RecallUnreachable);
        }
        let mut lo = self.respond(1.0, 0.0, recall_target);
        if lo.precision >= precision_target {
            return Ok(self.mix(&lo, &lo, 1.0));
        }
        let mut hi = self.respond(0.0, 1.0, recall_target);
        if hi.precision < precision_target - TOL * (1.0 + precision_target.abs()) {
            return Err(GreedyError::PrecisionUnreachable);
        }
        // `lo` misses the precision target and `hi` meets it; each is a
        // best response at some multiplier, and the optimum lies between.
        for _ in 0..MAX_STEPS {
            if hi.precision <= lo.precision {
                break;
            }
            let mu = (hi.cost - lo.cost) / (hi.precision - lo.precision);
            let model = lo
                .line(mu, precision_target)
                .min(hi.line(mu, precision_target));
            let next = self.respond(1.0, mu, recall_target);
            if next.line(mu, precision_target) >= model - STOP * (1.0 + model.abs()) {
                break;
            }
            if next.precision >= precision_target {
                hi = next;
            } else {
                lo = next;
            }
        }
        let span = hi.precision - lo.precision;
        let theta = if span > 0.0 {
            ((hi.precision - precision_target) / span).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Ok(self.mix(&lo, &hi, theta))
    }

    /// Step 2: each group takes its cheapest action under the weights, and
    /// groups fill the recall row in order of weighted cost per unit of
    /// recall, the last one fractionally.
    fn respond(&self, cost_w: f64, prec_w: f64, recall_target: f64) -> Response {
        let mut picks = Vec::with_capacity(self.groups.len());
        let mut queue = Vec::with_capacity(self.groups.len());
        let mut recall = 0.0;
        let mut start = 0;
        for (a, &(u, end)) in self.groups.iter().enumerate() {
            let (w, i) = self.actions[start..end]
                .iter()
                .zip(start..)
                .map(|(action, i)| (cost_w * action.cost - prec_w * action.precision, i))
                .min_by(|x, y| x.0.total_cmp(&y.0))
                .unwrap_or((0.0, start));
            start = end;
            let mass = if w < 0.0 {
                1.0
            } else {
                if u > 0.0 {
                    queue.push((w / u, a));
                }
                0.0
            };
            recall += u * mass;
            picks.push((mass, i));
        }
        queue.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        for (_, a) in queue {
            let deficit = recall_target - recall;
            if deficit <= 0.0 {
                break;
            }
            let u = self.groups[a].0;
            let mass = (deficit / u).min(1.0);
            picks[a].0 = mass;
            recall += u * mass;
        }
        let (mut cost, mut precision) = (0.0, 0.0);
        for &(mass, i) in picks.iter().filter(|p| p.0 > 0.0) {
            cost += mass * self.actions[i].cost;
            precision += mass * self.actions[i].precision;
        }
        Response {
            picks,
            cost,
            precision,
        }
    }

    /// Step 4: the plan `theta·lo + (1 − theta)·hi`.
    fn mix(&self, lo: &Response, hi: &Response, theta: f64) -> ChoicePlan {
        let mut x = vec![0.0; self.actions.len()];
        for (response, weight) in [(lo, theta), (hi, 1.0 - theta)] {
            for &(mass, i) in response.picks.iter().filter(|p| p.0 > 0.0) {
                x[i] += weight * mass;
            }
        }
        ChoicePlan {
            x,
            cost: theta * lo.cost + (1.0 - theta) * hi.cost,
        }
    }
}

/// LinearProg 3.4's form: minimize `Σ cost_r·R + cost_e·E` subject to
/// `Σ recall_r·R ≥ recall_target`, `Σ prec_r·R + prec_e·E ≥
/// precision_target`, `0 ≤ E_a ≤ R_a ≤ 1`. As a [`ChoiceLp`], group `a`
/// has two actions: "return unevaluated" (`R_a − E_a`) and "evaluate"
/// (`E_a`).
///
/// With the paper's Problem-2 instantiation
/// ([`GreedyProblem::from_group_stats`]): `cost_r = t_a·o_r`,
/// `cost_e = t_a·o_e`, `recall_r = t_a·s_a`,
/// `prec_r = t_a·s_a·(1-α) − α·t_a·(1-s_a)`, `prec_e = α·t_a·(1-s_a)`.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyProblem {
    lp: ChoiceLp,
    /// Required recall-constraint LHS.
    pub recall_target: f64,
    /// Required precision-constraint LHS.
    pub precision_target: f64,
}

/// A fractional retrieval/evaluation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyPlan {
    /// Per-group retrieval probabilities `R_a ∈ [0,1]`.
    pub r: Vec<f64>,
    /// Per-group evaluation probabilities `E_a ∈ [0,R_a]`.
    pub e: Vec<f64>,
    /// Objective value `Σ cost_r·R + cost_e·E`.
    pub cost: f64,
}

impl GreedyProblem {
    /// Builds the Problem-2 instantiation from raw group statistics.
    ///
    /// `sizes[a] = t_a` (effective group size), `sels[a] = s_a`,
    /// precision bound `alpha`, costs `(o_r, o_e)`. Thresholds
    /// (`recall_target` / `precision_target`) are supplied by the caller
    /// because they differ across the paper's settings (Hoeffding vs
    /// Chebyshev vs sampling-adjusted).
    pub fn from_group_stats(
        sizes: &[f64],
        sels: &[f64],
        alpha: f64,
        cost_retrieve: f64,
        cost_evaluate: f64,
        recall_target: f64,
        precision_target: f64,
    ) -> Self {
        let mut lp = ChoiceLp::default();
        for (&t, &s) in sizes.iter().zip(sels) {
            let cost_r = t * cost_retrieve;
            let prec_r = t * s * (1.0 - alpha) - alpha * t * (1.0 - s);
            let unevaluated = Action {
                cost: cost_r,
                precision: prec_r,
            };
            let evaluate = Action {
                cost: cost_r + t * cost_evaluate,
                precision: prec_r + alpha * t * (1.0 - s),
            };
            lp.push_group(t * s, [unevaluated, evaluate]);
        }
        Self {
            lp,
            recall_target,
            precision_target,
        }
    }

    /// The minimum-cost plan at this problem's targets.
    pub fn solve(&self) -> Result<GreedyPlan, GreedyError> {
        self.solve_with(self.recall_target, self.precision_target)
    }

    /// The minimum-cost plan at other targets, over the same coefficients.
    pub fn solve_with(
        &self,
        recall_target: f64,
        precision_target: f64,
    ) -> Result<GreedyPlan, GreedyError> {
        let plan = self.lp.solve(recall_target, precision_target)?;
        let (r, e) = plan
            .x
            .chunks_exact(2)
            .map(|x| {
                let r = (x[0] + x[1]).min(1.0);
                (r, x[1].min(r))
            })
            .unzip();
        Ok(GreedyPlan {
            r,
            e,
            cost: plan.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper's §1/§3: three groups of 1000
    /// tuples with selectivities 0.9 / 0.5 / 0.1, α = β = 0.9.
    fn paper_example(recall_target: f64, precision_target: f64) -> GreedyProblem {
        GreedyProblem::from_group_stats(
            &[1000.0, 1000.0, 1000.0],
            &[0.9, 0.5, 0.1],
            0.9,
            1.0,
            3.0,
            recall_target,
            precision_target,
        )
    }

    /// The paper example's precision-constraint LHS for a plan.
    fn paper_precision(plan: &GreedyPlan) -> f64 {
        [0.9, 0.5, 0.1]
            .iter()
            .zip(plan.r.iter().zip(&plan.e))
            .map(|(s, (r, e))| 1000.0 * (s * 0.1 * r - 0.9 * (1.0 - s) * (r - e)))
            .sum()
    }

    #[test]
    fn paper_example_zero_slack() {
        // With zero slack thresholds: recall target = beta * sum(t s) =
        // 0.9 * 1500 = 1350.
        let p = paper_example(1350.0, 0.0);
        let plan = p.solve().expect("feasible");
        // Group 0 is retrieved fully (900 recall mass), and the remaining
        // 450 come from 450/500 of group 1 -> R_1 = 0.9.
        assert!((plan.r[0] - 1.0).abs() < 1e-9);
        assert!((plan.r[1] - 0.9).abs() < 1e-9);
        assert_eq!(plan.r[2], 0.0);
        // At alpha = 0.9, the retrieved mix (900 good : 100 bad in group 0
        // plus a 50/50 slice of group 1) misses precision, so the plan
        // must evaluate the low-selectivity retrieved group. Solving
        // 45 + 450·E - 405 >= 0 gives E_1 = 0.8.
        assert!(paper_precision(&plan) >= -1e-9);
        assert_eq!(plan.e[0], 0.0);
        assert!((plan.e[1] - 0.8).abs() < 1e-9, "e1={}", plan.e[1]);
        assert_eq!(plan.e[2], 0.0);
    }

    #[test]
    fn evaluations_rise_for_precision() {
        // Force a positive precision target so evaluations must engage.
        let p = paper_example(1350.0, 30.0);
        let plan = p.solve().expect("feasible");
        assert!(paper_precision(&plan) >= 30.0 - 1e-9);
        // Evaluations must start at the lowest-selectivity retrieved group
        // (group 1 here, since group 2 is not retrieved).
        assert!(plan.e[1] > 0.0);
        assert_eq!(plan.e[0], 0.0);
        assert!(plan.e[1] <= plan.r[1] + 1e-12);
    }

    #[test]
    fn recall_unreachable_reported() {
        let p = paper_example(1501.0, 0.0); // total recall mass is 1500
        assert_eq!(p.solve(), Err(GreedyError::RecallUnreachable));
    }

    #[test]
    fn precision_unreachable_reported() {
        // Precision target above what evaluating every retrieved tuple of
        // every group can deliver.
        let p = paper_example(1350.0, 1e9);
        assert_eq!(p.solve(), Err(GreedyError::PrecisionUnreachable));
    }

    #[test]
    fn zero_targets_mean_zero_cost() {
        let p = paper_example(0.0, 0.0);
        let plan = p.solve().expect("feasible");
        assert_eq!(plan.cost, 0.0);
        assert_eq!(plan.r, vec![0.0; 3]);
    }

    #[test]
    fn plan_respects_bounds() {
        let p = paper_example(1400.0, 120.0);
        let plan = p.solve().expect("feasible");
        for a in 0..3 {
            assert!(plan.r[a] >= 0.0 && plan.r[a] <= 1.0);
            assert!(plan.e[a] >= 0.0 && plan.e[a] <= plan.r[a] + 1e-12);
        }
    }

    #[test]
    fn cost_accounting_is_consistent() {
        let p = paper_example(1350.0, 40.0);
        let plan = p.solve().expect("feasible");
        let cost: f64 = plan
            .r
            .iter()
            .zip(&plan.e)
            .map(|(r, e)| 1000.0 * (r + 3.0 * e))
            .sum();
        assert!((cost - plan.cost).abs() < 1e-9 * cost);
    }

    /// The regime Theorem 3.8's preconditions exclude: precision is
    /// cheapest to reach by *over-retrieving* a high-selectivity group,
    /// which BiGreedy's two phases cannot express.
    #[test]
    fn over_retrieval_regime_is_solved_exactly() {
        // One high-selectivity group; tiny recall target; precision target
        // reachable only by retrieving more than recall requires.
        let p = GreedyProblem::from_group_stats(
            &[100.0, 100.0],
            &[0.9, 0.6],
            0.5,
            1.0,
            3.0,
            1.0,  // recall: satisfied by a sliver of group 0
            30.0, // precision: needs R_0 well beyond that sliver
        );
        // prec_r = 40 for group 0 and 10 for group 1, per 100 of cost;
        // evaluating buys at most 20 per 300. So the optimum retrieves
        // 30/40 of group 0 and evaluates nothing.
        let plan = p.solve().expect("feasible by retrieval alone");
        assert!((plan.r[0] - 0.75).abs() < 1e-12, "{plan:?}");
        assert_eq!((plan.r[1], plan.e[0], plan.e[1]), (0.0, 0.0, 0.0));
        assert!((plan.cost - 75.0).abs() < 1e-9);
    }

    #[test]
    fn targets_move_without_rebuilding_the_coefficients() {
        let p = paper_example(0.0, 0.0);
        for (recall, precision) in [(1350.0, 0.0), (1350.0, 30.0), (1400.0, 120.0)] {
            assert_eq!(
                p.solve_with(recall, precision),
                paper_example(recall, precision).solve()
            );
        }
    }

    #[test]
    fn nan_coefficients_do_not_panic() {
        let p = GreedyProblem::from_group_stats(
            &[10.0, 10.0],
            &[f64::NAN, 0.5],
            0.5,
            1.0,
            3.0,
            1.0,
            0.0,
        );
        let _ = p.solve();
    }
}
