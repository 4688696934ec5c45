//! Problem 1: the perfect-information setting (paper §3.1).
//!
//! With exact per-group counts `C_a` (correct) and `W_a` (incorrect), pick
//! a deterministic 3-way decision per group — discard, return-unevaluated,
//! or evaluate — minimizing `Σ (C_a+W_a)(o_r R_a + o_e E_a)` subject to
//!
//! * recall: `Σ C_a R_a ≥ β Σ C_a`
//! * precision (multiplied-out, so `α = 0` needs no special case):
//!   `(1-α) Σ C_a R_a − α Σ W_a (R_a − E_a) ≥ 0`
//!
//! This is NP-hard (Theorem 3.2, by min-knapsack reduction — see
//! `tests/knapsack`). We provide an exact branch-and-bound for the
//! moderate group counts the paper's datasets exhibit (≤ ~25 groups) and
//! an LP-relaxation + safe-rounding heuristic for larger instances.
//!
//! A test oracle: no query runs Problem 1, so no production path runs
//! this. `tests/proptests.rs` includes this file as a module.
#![allow(dead_code)]

use expred_solver::bigreedy::GreedyProblem;

/// Per-group exact counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfectGroup {
    /// Number of tuples satisfying the predicate (`C_a`).
    pub correct: u64,
    /// Number of tuples not satisfying it (`W_a`).
    pub wrong: u64,
}

impl PerfectGroup {
    /// Total tuples `t_a`.
    pub fn size(&self) -> u64 {
        self.correct + self.wrong
    }

    /// Exact selectivity `C_a / t_a` (0 for empty groups).
    pub fn selectivity(&self) -> f64 {
        let t = self.size();
        if t == 0 {
            0.0
        } else {
            self.correct as f64 / t as f64
        }
    }
}

/// The 3-way per-group decision of Problem 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// `R_a = 0, E_a = 0`: drop the whole group.
    Discard,
    /// `R_a = 1, E_a = 0`: return every tuple unevaluated.
    Return,
    /// `R_a = 1, E_a = 1`: evaluate every tuple, keep the ones that pass.
    Evaluate,
}

impl Decision {
    fn r(self) -> f64 {
        match self {
            Decision::Discard => 0.0,
            _ => 1.0,
        }
    }

    fn e(self) -> f64 {
        match self {
            Decision::Evaluate => 1.0,
            _ => 0.0,
        }
    }
}

/// A Problem-1 instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfectInfoInstance {
    /// Exact counts per group.
    pub groups: Vec<PerfectGroup>,
    /// Precision lower bound `α ∈ [0,1]`.
    pub alpha: f64,
    /// Recall lower bound `β ∈ [0,1]`.
    pub beta: f64,
    /// Retrieval cost `o_r`.
    pub cost_retrieve: f64,
    /// Evaluation cost `o_e`.
    pub cost_evaluate: f64,
}

/// An exact or heuristic solution to Problem 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfectInfoSolution {
    /// Per-group decision.
    pub decisions: Vec<Decision>,
    /// Objective value.
    pub cost: f64,
}

impl PerfectInfoInstance {
    fn total_correct(&self) -> u64 {
        self.groups.iter().map(|g| g.correct).sum()
    }

    /// Recall-constraint RHS `γ = β Σ C_a`.
    pub fn recall_required(&self) -> f64 {
        self.beta * self.total_correct() as f64
    }

    /// Cost of a decision vector.
    pub fn cost_of(&self, decisions: &[Decision]) -> f64 {
        assert_eq!(decisions.len(), self.groups.len());
        self.groups
            .iter()
            .zip(decisions)
            .map(|(g, d)| {
                g.size() as f64 * (self.cost_retrieve * d.r() + self.cost_evaluate * d.e())
            })
            .sum()
    }

    /// Whether a decision vector meets both constraints.
    pub fn is_feasible(&self, decisions: &[Decision]) -> bool {
        let recall: f64 = self
            .groups
            .iter()
            .zip(decisions)
            .map(|(g, d)| g.correct as f64 * d.r())
            .sum();
        if recall < self.recall_required() - 1e-9 {
            return false;
        }
        self.precision_margin(decisions) >= -1e-9
    }

    /// Precision margin `(1-α) Σ C_a R_a − α Σ W_a (R_a − E_a)`.
    pub fn precision_margin(&self, decisions: &[Decision]) -> f64 {
        self.groups
            .iter()
            .zip(decisions)
            .map(|(g, d)| {
                (1.0 - self.alpha) * g.correct as f64 * d.r()
                    - self.alpha * g.wrong as f64 * (d.r() - d.e())
            })
            .sum()
    }

    /// Exact optimum by branch-and-bound. Returns `None` when infeasible.
    ///
    /// Intended for instances up to ~25 groups (the paper's datasets have
    /// 7–10); beyond that use [`Self::solve_heuristic`].
    pub fn solve_exact(&self) -> Option<PerfectInfoSolution> {
        let k = self.groups.len();
        assert!(
            k <= 26,
            "exact perfect-information solve is exponential; use solve_heuristic for {k} groups"
        );
        // Order groups by selectivity descending: good solutions retrieve
        // high-selectivity groups, so promising branches come first.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            self.groups[b]
                .selectivity()
                .partial_cmp(&self.groups[a].selectivity())
                .unwrap()
                .then(a.cmp(&b))
        });

        // Suffix aggregates for pruning.
        // suffix_correct[i] = total correct tuples in groups order[i..].
        let mut suffix_correct = vec![0.0; k + 1];
        // suffix_prec_gain[i] = max achievable precision-margin gain.
        let mut suffix_prec_gain = vec![0.0; k + 1];
        // suffix_best_ratio[i] = max recall per unit cost.
        let mut suffix_best_ratio = vec![0.0f64; k + 1];
        for i in (0..k).rev() {
            let g = &self.groups[order[i]];
            suffix_correct[i] = suffix_correct[i + 1] + g.correct as f64;
            // Best per-group margin gain: Evaluate gives (1-α)C ≥ 0;
            // Return gives (1-α)C − αW; Discard gives 0.
            let eval_gain = (1.0 - self.alpha) * g.correct as f64;
            suffix_prec_gain[i] = suffix_prec_gain[i + 1] + eval_gain.max(0.0);
            let ratio = if g.size() == 0 {
                0.0
            } else {
                g.correct as f64 / (g.size() as f64 * self.cost_retrieve.max(1e-12))
            };
            suffix_best_ratio[i] = suffix_best_ratio[i + 1].max(ratio);
        }

        let gamma = self.recall_required();
        let mut best_cost = f64::INFINITY;
        let mut best: Option<Vec<Decision>> = None;
        let mut current = vec![Decision::Discard; k];

        // Depth-first over ordered groups.
        struct Ctx<'a> {
            inst: &'a PerfectInfoInstance,
            order: &'a [usize],
            suffix_correct: &'a [f64],
            suffix_prec_gain: &'a [f64],
            suffix_best_ratio: &'a [f64],
            gamma: f64,
        }
        #[allow(clippy::too_many_arguments)]
        fn dfs(
            ctx: &Ctx<'_>,
            depth: usize,
            cost: f64,
            recall: f64,
            margin: f64,
            current: &mut Vec<Decision>,
            best_cost: &mut f64,
            best: &mut Option<Vec<Decision>>,
        ) {
            // Bound: optimistic remaining cost for missing recall.
            let recall_deficit = (ctx.gamma - recall).max(0.0);
            if recall_deficit > 0.0 {
                if recall + ctx.suffix_correct[depth] < ctx.gamma - 1e-9 {
                    return; // recall can no longer be met
                }
                let best_ratio = ctx.suffix_best_ratio[depth];
                if best_ratio > 0.0 {
                    let bound = cost + recall_deficit / best_ratio;
                    if bound >= *best_cost - 1e-9 {
                        return;
                    }
                } // ratio 0 with deficit>0 is caught by the suffix check
            } else if cost >= *best_cost - 1e-9 {
                return;
            }
            // Bound: precision margin can never recover.
            if margin + ctx.suffix_prec_gain[depth] < -1e-9 {
                return;
            }
            if depth == ctx.order.len() {
                if recall_deficit <= 0.0 && margin >= -1e-9 && cost < *best_cost {
                    *best_cost = cost;
                    *best = Some(current.clone());
                }
                return;
            }
            let a = ctx.order[depth];
            let g = &ctx.inst.groups[a];
            let (c, w, t) = (g.correct as f64, g.wrong as f64, g.size() as f64);
            let alpha = ctx.inst.alpha;
            // Try the three decisions; cheaper-but-riskier first so good
            // upper bounds arrive early on high-selectivity prefixes.
            let options = [
                (
                    Decision::Return,
                    t * ctx.inst.cost_retrieve,
                    c,
                    (1.0 - alpha) * c - alpha * w,
                ),
                (
                    Decision::Evaluate,
                    t * (ctx.inst.cost_retrieve + ctx.inst.cost_evaluate),
                    c,
                    (1.0 - alpha) * c,
                ),
                (Decision::Discard, 0.0, 0.0, 0.0),
            ];
            for (d, dc, dr, dm) in options {
                current[a] = d;
                dfs(
                    ctx,
                    depth + 1,
                    cost + dc,
                    recall + dr,
                    margin + dm,
                    current,
                    best_cost,
                    best,
                );
            }
            current[a] = Decision::Discard;
        }

        let ctx = Ctx {
            inst: self,
            order: &order,
            suffix_correct: &suffix_correct,
            suffix_prec_gain: &suffix_prec_gain,
            suffix_best_ratio: &suffix_best_ratio,
            gamma,
        };
        dfs(
            &ctx,
            0,
            0.0,
            0.0,
            0.0,
            &mut current,
            &mut best_cost,
            &mut best,
        );
        best.map(|decisions| PerfectInfoSolution {
            cost: self.cost_of(&decisions),
            decisions,
        })
    }

    /// LP-relaxation + safe rounding: solve the fractional problem exactly
    /// (zero concentration slack — information is perfect), then round
    /// every positive probability up to 1.
    ///
    /// Rounding up is *safe*: raising `R_a` (with `E_a = R_a`) can only
    /// increase both constraint LHS values, so the rounded plan stays
    /// feasible; the cost overshoot is bounded by the costs of the groups
    /// the relaxation left fractional.
    pub fn solve_heuristic(&self) -> Option<PerfectInfoSolution> {
        let sizes: Vec<f64> = self.groups.iter().map(|g| g.size() as f64).collect();
        let sels: Vec<f64> = self.groups.iter().map(|g| g.selectivity()).collect();
        let problem = GreedyProblem::from_group_stats(
            &sizes,
            &sels,
            self.alpha,
            self.cost_retrieve,
            self.cost_evaluate,
            self.recall_required(),
            0.0,
        );
        let plan = problem.solve().ok()?;
        let decisions: Vec<Decision> = plan
            .r
            .iter()
            .zip(&plan.e)
            .map(|(&r, &e)| {
                if r <= 1e-12 {
                    Decision::Discard
                } else if e <= 1e-12 {
                    Decision::Return
                } else {
                    Decision::Evaluate
                }
            })
            .collect();
        if self.is_feasible(&decisions) {
            Some(PerfectInfoSolution {
                cost: self.cost_of(&decisions),
                decisions,
            })
        } else {
            // Safe fallback: evaluate everything (always feasible when a
            // feasible plan exists at all, since it maximizes both LHS).
            let all_eval = vec![Decision::Evaluate; self.groups.len()];
            self.is_feasible(&all_eval).then(|| PerfectInfoSolution {
                cost: self.cost_of(&all_eval),
                decisions: all_eval,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 3.1: groups of 1000 with 900/500/100 correct,
    /// α = β = 0.9.
    fn example_31() -> PerfectInfoInstance {
        PerfectInfoInstance {
            groups: vec![
                PerfectGroup {
                    correct: 900,
                    wrong: 100,
                },
                PerfectGroup {
                    correct: 500,
                    wrong: 500,
                },
                PerfectGroup {
                    correct: 100,
                    wrong: 900,
                },
            ],
            alpha: 0.9,
            beta: 0.9,
            cost_retrieve: 1.0,
            cost_evaluate: 3.0,
        }
    }

    #[test]
    fn example_31_solution_matches_paper() {
        // The paper: return group 1, evaluate group 2 -> 1400 correct of
        // 1500 returned (after eval filtering), satisfying both bounds.
        let inst = example_31();
        let sol = inst.solve_exact().expect("feasible");
        assert_eq!(sol.decisions[0], Decision::Return);
        assert_eq!(sol.decisions[1], Decision::Evaluate);
        assert_eq!(sol.decisions[2], Decision::Discard);
        // Cost: group 0 retrieve (1000) + group 1 retrieve+evaluate (4000).
        assert_eq!(sol.cost, 5000.0);
        assert!(inst.is_feasible(&sol.decisions));
    }

    #[test]
    fn paper_strategy_is_feasible() {
        let inst = example_31();
        let decisions = vec![Decision::Return, Decision::Evaluate, Decision::Discard];
        assert!(inst.is_feasible(&decisions));
        // Returning everything violates precision (1500/3000 = 0.5 < 0.9).
        let all_return = vec![Decision::Return; 3];
        assert!(!inst.is_feasible(&all_return));
    }

    #[test]
    fn infeasible_when_beta_exceeds_possible() {
        let mut inst = example_31();
        inst.beta = 1.01; // more than all correct tuples
        assert!(inst.solve_exact().is_none());
    }

    #[test]
    fn zero_constraints_mean_zero_cost() {
        let mut inst = example_31();
        inst.alpha = 0.0;
        inst.beta = 0.0;
        let sol = inst.solve_exact().unwrap();
        assert_eq!(sol.cost, 0.0);
        assert!(sol.decisions.iter().all(|d| *d == Decision::Discard));
    }

    #[test]
    fn heuristic_is_feasible_and_near_exact() {
        let inst = example_31();
        let exact = inst.solve_exact().unwrap();
        let heur = inst.solve_heuristic().unwrap();
        assert!(inst.is_feasible(&heur.decisions));
        // Rounding can overshoot by at most ~2 group costs.
        assert!(heur.cost <= exact.cost + 2.0 * 4000.0 + 1e-9);
        assert!(heur.cost + 1e-9 >= exact.cost, "heuristic beats exact?");
    }

    #[test]
    fn browsing_scenario_full_precision() {
        // alpha = 1 forces evaluation of everything retrieved.
        let mut inst = example_31();
        inst.alpha = 1.0;
        inst.beta = 0.5;
        let sol = inst.solve_exact().unwrap();
        for (g, d) in inst.groups.iter().zip(&sol.decisions) {
            if g.correct > 0 {
                assert_ne!(
                    *d,
                    Decision::Return,
                    "perfect precision forbids unevaluated returns of mixed groups"
                );
            }
        }
        assert!(inst.is_feasible(&sol.decisions));
    }

    #[test]
    fn pure_groups_can_be_returned_even_at_full_precision() {
        let inst = PerfectInfoInstance {
            groups: vec![
                PerfectGroup {
                    correct: 100,
                    wrong: 0,
                },
                PerfectGroup {
                    correct: 0,
                    wrong: 100,
                },
            ],
            alpha: 1.0,
            beta: 1.0,
            cost_retrieve: 1.0,
            cost_evaluate: 3.0,
        };
        let sol = inst.solve_exact().unwrap();
        assert_eq!(sol.decisions[0], Decision::Return);
        assert_eq!(sol.decisions[1], Decision::Discard);
        assert_eq!(sol.cost, 100.0);
    }

    #[test]
    fn exact_beats_or_matches_all_enumeration() {
        // Cross-check branch-and-bound against brute force on a random-ish
        // instance.
        let inst = PerfectInfoInstance {
            groups: vec![
                PerfectGroup {
                    correct: 30,
                    wrong: 20,
                },
                PerfectGroup {
                    correct: 10,
                    wrong: 60,
                },
                PerfectGroup {
                    correct: 50,
                    wrong: 10,
                },
                PerfectGroup {
                    correct: 5,
                    wrong: 5,
                },
                PerfectGroup {
                    correct: 25,
                    wrong: 40,
                },
            ],
            alpha: 0.7,
            beta: 0.75,
            cost_retrieve: 1.0,
            cost_evaluate: 2.5,
        };
        let sol = inst.solve_exact().unwrap();
        // Brute force over 3^5 decision vectors.
        let mut best = f64::INFINITY;
        let opts = [Decision::Discard, Decision::Return, Decision::Evaluate];
        for mask in 0..3usize.pow(5) {
            let mut m = mask;
            let decisions: Vec<Decision> = (0..5)
                .map(|_| {
                    let d = opts[m % 3];
                    m /= 3;
                    d
                })
                .collect();
            if inst.is_feasible(&decisions) {
                best = best.min(inst.cost_of(&decisions));
            }
        }
        assert!(
            (sol.cost - best).abs() < 1e-9,
            "bb {} vs brute {}",
            sol.cost,
            best
        );
    }
}
