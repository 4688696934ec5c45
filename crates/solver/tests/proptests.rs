//! Property tests for the optimization substrate.
//!
//! The centerpiece: the plan-LP solve must agree with the simplex oracle
//! (`tests/lp`) on randomized instances of every shape the optimizer
//! builds — the same feasibility verdict, the same optimal cost within
//! `1e-9 × (1 + |cost|)`, and a plan that meets both rows and every box
//! constraint within that tolerance.

mod knapsack;
mod lp;
mod perfect_info;

use expred_solver::bigreedy::{Action, ChoiceLp, GreedyProblem};
use knapsack::{greedy_min_knapsack, solve_min_knapsack, Item};
use lp::{Constraint, LinearProgram, LpOutcome, Relation};
use perfect_info::{Decision, PerfectGroup, PerfectInfoInstance};
use proptest::prelude::*;

/// Raw statistics of one paper-shaped instance: sizes, selectivities,
/// `alpha`, and the recall and precision targets.
type PaperInstance = (Vec<f64>, Vec<f64>, f64, f64, f64);

/// Strategy: a random structured instance in the paper's parameter ranges.
fn greedy_instance() -> impl Strategy<Value = PaperInstance> {
    let group = (10usize..2000, 0.01f64..0.99);
    (
        prop::collection::vec(group, 2..8),
        0.05f64..0.95, // alpha
        0.05f64..0.95, // beta (used to derive a recall target)
        0.0f64..0.3,   // relative slack for the precision target
    )
        .prop_map(|(raw, alpha, beta, prec_frac)| {
            let sizes: Vec<f64> = raw.iter().map(|&(t, _)| t as f64).collect();
            let sels: Vec<f64> = raw.iter().map(|&(_, s)| s).collect();
            let recall_mass: f64 = sizes.iter().zip(&sels).map(|(t, s)| t * s).sum();
            // Max achievable precision LHS is sum of t*s*(1-alpha).
            let prec_max: f64 = sizes
                .iter()
                .zip(&sels)
                .map(|(t, s)| t * s * (1.0 - alpha))
                .sum();
            (sizes, sels, alpha, beta * recall_mass, prec_frac * prec_max)
        })
}

/// LinearProg 3.4's recall and precision LHS for an `(R, E)` plan.
fn paper_lhs(sizes: &[f64], sels: &[f64], alpha: f64, r: &[f64], e: &[f64]) -> (f64, f64) {
    let mut lhs = (0.0, 0.0);
    for ((&t, &s), (&r, &e)) in sizes.iter().zip(sels).zip(r.iter().zip(e)) {
        lhs.0 += t * s * r;
        lhs.1 += t * s * (1.0 - alpha) * r - alpha * t * (1.0 - s) * (r - e);
    }
    lhs
}

/// One group's raw draws: size, selectivity, how the selectivity ties
/// (0: `s = α`; 1: a three-value grid shared across groups; else free),
/// and two draws per action (output fraction, evaluation cost).
type RawGroup = (usize, f64, u8, Vec<f64>);

/// Strategy: the raw draws of one plan LP of any shape — shapes 0 and 1
/// are the paper's `(R, E)` form, 2 the two-predicate form (4 actions per
/// group), 3 the `n`-predicate chain (2ⁿ actions, n ≤ 3) — with `alpha`,
/// the targets as fractions of their rows' ranges (above 1 is
/// unreachable), the two unit costs and `n`.
#[allow(clippy::type_complexity)]
fn plan_lp_instance() -> impl Strategy<Value = (u8, Vec<RawGroup>, f64, (f64, f64), (f64, f64), u32)>
{
    let group = (
        0usize..2000,
        0.0f64..1.0,
        0u8..4,
        prop::collection::vec(0.0f64..1.0, 16),
    );
    (
        0u8..4,
        prop::collection::vec(group, 0..9),
        0.05f64..0.95,
        (0.0f64..1.15, -0.1f64..1.1),
        (0.0f64..2.0, 0.0f64..5.0),
        1u32..4,
    )
}

/// A raw group's size (zero for about one group in thirteen) and
/// selectivity.
fn size_and_sel(&(size, sel, tie, _): &RawGroup, alpha: f64) -> (f64, f64) {
    let t = if size < 150 { 0.0 } else { size as f64 };
    let s = match tie {
        0 => alpha,
        1 => [0.25, 0.5, 0.75][(sel * 3.0) as usize % 3],
        _ => sel,
    };
    (t, s)
}

/// What the checks need of a returned plan: its cost, its smallest
/// action probability, its largest per-group total, and both rows' LHS.
#[derive(Debug)]
struct Summary {
    cost: f64,
    min_prob: f64,
    max_mass: f64,
    recall: f64,
    precision: f64,
}

/// Holds a solve's answer to the oracle's.
fn agrees_with_oracle(
    got: Result<Summary, String>,
    oracle: &LinearProgram,
    recall_target: f64,
    precision_target: f64,
) -> TestCaseResult {
    match (got, oracle.solve()) {
        (Ok(plan), LpOutcome::Optimal(s)) => {
            let tol = 1e-9 * (1.0 + s.objective.abs());
            prop_assert!(
                (plan.cost - s.objective).abs() <= tol,
                "solve {} vs simplex {}",
                plan.cost,
                s.objective
            );
            prop_assert!(
                plan.min_prob >= -tol && plan.max_mass <= 1.0 + tol,
                "{plan:?}"
            );
            prop_assert!(
                plan.recall >= recall_target - tol,
                "{plan:?} vs {recall_target}"
            );
            prop_assert!(
                plan.precision >= precision_target - tol,
                "{plan:?} vs {precision_target}"
            );
        }
        (Err(_), LpOutcome::Infeasible) => {}
        (got, want) => prop_assert!(false, "solve {got:?} vs simplex {want:?}"),
    }
    Ok(())
}

#[test]
fn matches_simplex_on_paper_example() {
    let (sizes, sels) = ([1000.0; 3], [0.9, 0.5, 0.1]);
    let plan = GreedyProblem::from_group_stats(&sizes, &sels, 0.9, 1.0, 3.0, 1350.0, 50.0)
        .solve()
        .expect("feasible");
    match lp::paper_lp(&sizes, &sels, 0.9, 1.0, 3.0, 1350.0, 50.0).solve() {
        LpOutcome::Optimal(s) => assert!(
            (plan.cost - s.objective).abs() < 1e-9 * (1.0 + s.objective.abs()),
            "solve {} vs simplex {}",
            plan.cost,
            s.objective
        ),
        other => panic!("simplex failed: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn plan_lp_solve_matches_simplex(
        (shape, raw, alpha, (recall_frac, prec_frac), (o_r, o_e), n) in plan_lp_instance()
    ) {
        let (sizes, sels): (Vec<f64>, Vec<f64>) =
            raw.iter().map(|g| size_and_sel(g, alpha)).unzip();
        let recall_mass: f64 = sizes.iter().zip(&sels).map(|(t, s)| t * s).sum();
        let recall_target = recall_frac * recall_mass;
        if shape < 2 {
            // The paper's form, through `GreedyProblem`, against the
            // oracle's own (R, E) formulation of the raw statistics.
            let lo: f64 = sizes.iter().zip(&sels).map(|(t, s)| (t * (s - alpha)).min(0.0)).sum();
            let hi: f64 = sizes.iter().zip(&sels).map(|(t, s)| t * s * (1.0 - alpha)).sum();
            let precision_target = lo + prec_frac * (hi - lo);
            let got = GreedyProblem::from_group_stats(
                &sizes, &sels, alpha, o_r, o_e, recall_target, precision_target,
            )
            .solve()
            .map(|p| {
                let (recall, precision) = paper_lhs(&sizes, &sels, alpha, &p.r, &p.e);
                let min_prob = p.r.iter().zip(&p.e).map(|(r, e)| e.min(r - e)).fold(0.0, f64::min);
                let max_mass = p.r.iter().copied().fold(0.0, f64::max);
                Summary { cost: p.cost, min_prob, max_mass, recall, precision }
            })
            .map_err(|e| e.to_string());
            let oracle = lp::paper_lp(
                &sizes, &sels, alpha, o_r, o_e, recall_target, precision_target,
            );
            agrees_with_oracle(got, &oracle, recall_target, precision_target)?;
        } else {
            // Multi-action groups: action 0 returns blind, the last
            // evaluates every predicate (output = s), the rest in between.
            let width = if shape == 2 { 4 } else { 1usize << n };
            let mut choice = ChoiceLp::default();
            let (mut lo, mut hi) = (0.0, 0.0);
            for (g, (&t, &s)) in raw.iter().zip(sizes.iter().zip(&sels)) {
                let actions: Vec<Action> = (0..width)
                    .map(|i| {
                        let (out, eval) = match i {
                            0 => (1.0, 0.0),
                            _ if i == width - 1 => (s, g.3[1]),
                            _ => (s + (1.0 - s) * g.3[2 * i], g.3[2 * i + 1]),
                        };
                        Action { cost: t * (o_r + o_e * eval), precision: t * (s - alpha * out) }
                    })
                    .collect();
                lo += actions.iter().map(|a| a.precision).fold(0.0, f64::min);
                hi += actions.iter().map(|a| a.precision).fold(0.0, f64::max);
                choice.push_group(t * s, actions);
            }
            let precision_target = lo + prec_frac * (hi - lo);
            let got = choice
                .solve(recall_target, precision_target)
                .map(|p| {
                    let mut summary = Summary {
                        cost: p.cost,
                        min_prob: p.x.iter().copied().fold(0.0, f64::min),
                        max_mass: 0.0,
                        recall: 0.0,
                        precision: 0.0,
                    };
                    for ((u, actions), x) in choice.groups().zip(p.x.chunks(width)) {
                        let mass: f64 = x.iter().sum();
                        summary.max_mass = summary.max_mass.max(mass);
                        summary.recall += u * mass;
                        summary.precision +=
                            actions.iter().zip(x).map(|(a, x)| a.precision * x).sum::<f64>();
                    }
                    summary
                })
                .map_err(|e| e.to_string());
            let oracle = lp::choice_lp(&choice, recall_target, precision_target);
            agrees_with_oracle(got, &oracle, recall_target, precision_target)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bigreedy_plans_are_feasible_and_bounded_below_by_lp(
        (sizes, sels, alpha, recall, precision) in greedy_instance()
    ) {
        let simplex = lp::paper_lp(&sizes, &sels, alpha, 1.0, 3.0, recall, precision).solve();
        let problem =
            GreedyProblem::from_group_stats(&sizes, &sels, alpha, 1.0, 3.0, recall, precision);
        if let Ok(plan) = problem.solve() {
            // Plan must satisfy its own constraints and bounds.
            let (recall_lhs, precision_lhs) = paper_lhs(&sizes, &sels, alpha, &plan.r, &plan.e);
            prop_assert!(recall_lhs >= recall - 1e-6);
            prop_assert!(precision_lhs >= precision - 1e-6);
            for (r, e) in plan.r.iter().zip(&plan.e) {
                prop_assert!((0.0..=1.0 + 1e-9).contains(r));
                prop_assert!(*e >= -1e-9 && *e <= *r + 1e-9);
            }
            match simplex {
                LpOutcome::Optimal(s) => {
                    // A feasible plan can never beat the LP optimum.
                    prop_assert!(
                        plan.cost >= s.objective - 1e-5 * (1.0 + s.objective.abs()),
                        "plan {} below LP optimum {}",
                        plan.cost,
                        s.objective
                    );
                }
                other => prop_assert!(false, "simplex disagreed: {other:?}"),
            }
        }
    }

    #[test]
    fn simplex_solutions_are_feasible((sizes, sels, alpha, recall, precision) in greedy_instance()) {
        let lp = lp::paper_lp(&sizes, &sels, alpha, 1.0, 3.0, recall, precision);
        if let LpOutcome::Optimal(s) = lp.solve() {
            prop_assert!(lp.is_feasible(&s.x, 1e-6));
        }
    }

    #[test]
    fn random_small_lps_verify(
        n in 1usize..4,
        rows in prop::collection::vec(
            (prop::collection::vec(-5.0f64..5.0, 3), -10.0f64..10.0),
            0..4,
        ),
        obj in prop::collection::vec(0.0f64..5.0, 3),
    ) {
        // Nonnegative objective => never unbounded; check returned points.
        let constraints: Vec<Constraint> = rows
            .into_iter()
            .map(|(coeffs, rhs)| Constraint {
                coeffs: coeffs[..n].to_vec(),
                relation: Relation::Ge,
                rhs,
            })
            .collect();
        let lp = LinearProgram::new(obj[..n].to_vec(), constraints);
        match lp.solve() {
            LpOutcome::Optimal(s) => {
                prop_assert!(lp.is_feasible(&s.x, 1e-6));
                prop_assert!(s.objective >= -1e-9);
            }
            LpOutcome::Infeasible => {}
            LpOutcome::Unbounded => prop_assert!(false, "nonneg objective can't be unbounded"),
        }
    }

    #[test]
    fn knapsack_exact_beats_greedy(
        raw in prop::collection::vec((1.0f64..20.0, 1u64..15), 1..8),
        frac in 0.1f64..0.9,
    ) {
        let items: Vec<Item> = raw.iter().map(|&(w, v)| Item { weight: w, value: v }).collect();
        let total: u64 = items.iter().map(|i| i.value).sum();
        let threshold = ((total as f64) * frac).ceil() as u64;
        let exact = solve_min_knapsack(&items, threshold).expect("threshold <= total");
        let greedy = greedy_min_knapsack(&items, threshold).expect("threshold <= total");
        prop_assert!(exact.total_value >= threshold);
        prop_assert!(greedy.total_value >= threshold);
        prop_assert!(exact.total_weight <= greedy.total_weight + 1e-9);
        // Exact solution must be optimal vs brute force for small n.
        if items.len() <= 6 {
            let mut best = f64::INFINITY;
            for mask in 0..(1usize << items.len()) {
                let v: u64 = (0..items.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| items[i].value)
                    .sum();
                if v >= threshold {
                    let w: f64 = (0..items.len())
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| items[i].weight)
                        .sum();
                    best = best.min(w);
                }
            }
            prop_assert!((exact.total_weight - best).abs() < 1e-9);
        }
    }

    #[test]
    fn perfect_info_exact_is_optimal_vs_bruteforce(
        raw in prop::collection::vec((0u64..80, 0u64..80), 2..6),
        alpha in 0.0f64..1.0,
        beta in 0.0f64..1.0,
    ) {
        let groups: Vec<PerfectGroup> = raw
            .iter()
            .map(|&(c, w)| PerfectGroup { correct: c, wrong: w.max(1) })
            .collect();
        let inst = PerfectInfoInstance {
            groups: groups.clone(),
            alpha,
            beta,
            cost_retrieve: 1.0,
            cost_evaluate: 3.0,
        };
        let opts = [Decision::Discard, Decision::Return, Decision::Evaluate];
        let mut best: Option<f64> = None;
        for mask in 0..3usize.pow(groups.len() as u32) {
            let mut m = mask;
            let decisions: Vec<Decision> = (0..groups.len())
                .map(|_| {
                    let d = opts[m % 3];
                    m /= 3;
                    d
                })
                .collect();
            if inst.is_feasible(&decisions) {
                let cost = inst.cost_of(&decisions);
                best = Some(best.map_or(cost, |b: f64| b.min(cost)));
            }
        }
        match (inst.solve_exact(), best) {
            (Some(sol), Some(b)) => prop_assert!(
                (sol.cost - b).abs() < 1e-9,
                "bb {} vs brute {}",
                sol.cost,
                b
            ),
            (None, None) => {}
            (got, want) => prop_assert!(false, "solver {got:?} vs brute {want:?}"),
        }
    }

    #[test]
    fn perfect_info_heuristic_feasible_when_exact_is(
        raw in prop::collection::vec((1u64..60, 1u64..60), 2..6),
        alpha in 0.0f64..0.9,
        beta in 0.0f64..1.0,
    ) {
        let inst = PerfectInfoInstance {
            groups: raw.iter().map(|&(c, w)| PerfectGroup { correct: c, wrong: w }).collect(),
            alpha,
            beta,
            cost_retrieve: 1.0,
            cost_evaluate: 3.0,
        };
        if let Some(exact) = inst.solve_exact() {
            let heur = inst.solve_heuristic();
            prop_assert!(heur.is_some(), "heuristic must find something when feasible");
            let heur = heur.unwrap();
            prop_assert!(inst.is_feasible(&heur.decisions));
            prop_assert!(heur.cost + 1e-9 >= exact.cost);
        }
    }
}
