//! Minimum knapsack, and the paper's NP-hardness reduction.
//!
//! Theorem 3.2 proves Problem 1 (perfect information) NP-hard by reducing
//! *minimum knapsack* to it: pick a subset `S'` with total value ≥ V
//! minimizing total weight. This module provides
//!
//! * an exact dynamic program for min-knapsack (integer values),
//! * a classic greedy 2-approximation, and
//! * [`reduce_to_perfect_info`], the constructive reduction from the
//!   paper's proof — tested end-to-end against the exact perfect-info
//!   solver to *demonstrate* the reduction rather than merely cite it.
//!
//! A test oracle: no production path runs it. `tests/proptests.rs`
//! includes this file as a module, beside `tests/perfect_info`.
#![allow(dead_code)]

use crate::perfect_info::{Decision, PerfectGroup, PerfectInfoInstance};

/// One knapsack item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Weight (the quantity being minimized).
    pub weight: f64,
    /// Value (must reach the threshold).
    pub value: u64,
}

/// An exact min-knapsack solution.
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackSolution {
    /// Chosen item indices (ascending).
    pub chosen: Vec<usize>,
    /// Total weight of the chosen set.
    pub total_weight: f64,
    /// Total value of the chosen set.
    pub total_value: u64,
}

/// Exact min-knapsack via DP over achievable value totals.
///
/// Returns `None` when even taking every item misses the threshold.
/// Runs in `O(n · V_max)` where `V_max = max(threshold, Σ value)` — fine
/// for the reduction-scale instances used in tests and demos.
pub fn solve_min_knapsack(items: &[Item], threshold: u64) -> Option<KnapsackSolution> {
    let total: u64 = items.iter().map(|i| i.value).sum();
    if total < threshold {
        return None;
    }
    if threshold == 0 {
        return Some(KnapsackSolution {
            chosen: vec![],
            total_weight: 0.0,
            total_value: 0,
        });
    }
    // Value overshoot is allowed, so cap the accumulated value at the
    // threshold: every overshoot state collapses into `cap`. A 2-D table
    // (items × capped value) keeps backtracking exact.
    let cap = threshold as usize;
    const INF: f64 = f64::INFINITY;
    let n = items.len();
    let mut dp = vec![vec![INF; cap + 1]; n + 1];
    dp[0][0] = 0.0;
    for (i, item) in items.iter().enumerate() {
        for v in 0..=cap {
            let base = dp[i][v];
            if base == INF {
                continue;
            }
            // Skip item i.
            if base < dp[i + 1][v] {
                dp[i + 1][v] = base;
            }
            // Take item i.
            let nv = (v + item.value as usize).min(cap);
            let nw = base + item.weight;
            if nw < dp[i + 1][nv] {
                dp[i + 1][nv] = nw;
            }
        }
    }
    if dp[n][cap] == INF {
        return None;
    }
    // Backtrack: prefer "skip" on ties so the chosen set stays minimal.
    let mut chosen = Vec::new();
    let mut v = cap;
    for i in (0..n).rev() {
        if dp[i][v] <= dp[i + 1][v] {
            continue; // item i skipped
        }
        // Item i was taken: find the exact predecessor state.
        let val = items[i].value as usize;
        let lo = if v == cap {
            v.saturating_sub(val)
        } else {
            v - val.min(v)
        };
        let mut found = None;
        for pv in lo..=v {
            let reaches = (pv + val).min(cap) == v;
            if reaches && (dp[i][pv] + items[i].weight - dp[i + 1][v]).abs() < 1e-9 {
                found = Some(pv);
                break;
            }
        }
        let pv = found.expect("DP backtrack must find a predecessor");
        chosen.push(i);
        v = pv;
    }
    chosen.reverse();
    let total_weight = chosen.iter().map(|&i| items[i].weight).sum();
    let total_value = chosen.iter().map(|&i| items[i].value).sum();
    debug_assert!(total_value >= threshold);
    Some(KnapsackSolution {
        chosen,
        total_weight,
        total_value,
    })
}

/// Greedy 2-approximation: take items by descending value density until
/// the threshold is met, then try to drop redundant items.
pub fn greedy_min_knapsack(items: &[Item], threshold: u64) -> Option<KnapsackSolution> {
    let total: u64 = items.iter().map(|i| i.value).sum();
    if total < threshold {
        return None;
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        let da = items[a].value as f64 / items[a].weight.max(1e-12);
        let db = items[b].value as f64 / items[b].weight.max(1e-12);
        db.partial_cmp(&da).unwrap().then(a.cmp(&b))
    });
    let mut chosen = Vec::new();
    let mut value = 0u64;
    for &i in &order {
        if value >= threshold {
            break;
        }
        chosen.push(i);
        value += items[i].value;
    }
    // Drop pass: remove items whose value is pure surplus.
    let mut kept: Vec<usize> = Vec::with_capacity(chosen.len());
    let mut current = value;
    for &i in chosen.iter().rev() {
        if current - items[i].value >= threshold {
            current -= items[i].value;
        } else {
            kept.push(i);
        }
    }
    kept.sort_unstable();
    let total_weight = kept.iter().map(|&i| items[i].weight).sum();
    let total_value = kept.iter().map(|&i| items[i].value).sum();
    Some(KnapsackSolution {
        chosen: kept,
        total_weight,
        total_value,
    })
}

/// The constructive reduction of Theorem 3.2: min-knapsack → Problem 1.
///
/// Weights are scaled so `w_s > v_s` for every item (which leaves the
/// knapsack problem unchanged up to the same scale factor), then each item
/// becomes a group with `C_a = v_a`, `W_a = w'_a − v_a`, with `α = 0`,
/// `β = V / Σ C_a`, `o_e` arbitrary, `o_r = 1`. Returns the instance plus
/// the weight scale factor applied (so costs can be mapped back).
pub fn reduce_to_perfect_info(items: &[Item], threshold: u64) -> (PerfectInfoInstance, f64) {
    // Scale weights so that w > v strictly.
    let mut scale: f64 = 1.0;
    for item in items {
        if item.weight > 0.0 {
            let needed = (item.value as f64 + 1.0) / item.weight;
            scale = scale.max(needed);
        } else {
            // Zero-weight items: any positive scale keeps w=0 <= v; bump the
            // weight epsilon instead via max with tiny base below.
            scale = scale.max(1.0);
        }
    }
    let groups: Vec<PerfectGroup> = items
        .iter()
        .map(|item| {
            let w_scaled = (item.weight * scale).max(item.value as f64 + 1.0);
            PerfectGroup {
                correct: item.value,
                wrong: (w_scaled - item.value as f64).ceil().max(1.0) as u64,
            }
        })
        .collect();
    let total_correct: u64 = groups.iter().map(|g| g.correct).sum();
    let beta = if total_correct == 0 {
        0.0
    } else {
        threshold as f64 / total_correct as f64
    };
    (
        PerfectInfoInstance {
            groups,
            alpha: 0.0,
            beta: beta.min(1.0),
            cost_retrieve: 1.0,
            cost_evaluate: 3.0,
        },
        scale,
    )
}

/// Maps a Problem-1 decision vector back to a knapsack subset (the proof's
/// `S' = {a : R_a = 1}`).
pub fn decisions_to_subset(decisions: &[Decision]) -> Vec<usize> {
    decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| !matches!(d, Decision::Discard))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(spec: &[(f64, u64)]) -> Vec<Item> {
        spec.iter()
            .map(|&(weight, value)| Item { weight, value })
            .collect()
    }

    #[test]
    fn exact_small_instance() {
        // Items: (w=3,v=4), (w=2,v=3), (w=4,v=6); need value >= 7.
        // Options: {0,1} w=5 v=7; {0,2} w=7; {1,2} w=6 v=9; {2} v=6 no.
        let sol = solve_min_knapsack(&items(&[(3.0, 4), (2.0, 3), (4.0, 6)]), 7).unwrap();
        assert_eq!(sol.total_weight, 5.0);
        assert_eq!(sol.chosen, vec![0, 1]);
        assert!(sol.total_value >= 7);
    }

    #[test]
    fn infeasible_returns_none() {
        assert!(solve_min_knapsack(&items(&[(1.0, 2)]), 3).is_none());
        assert!(greedy_min_knapsack(&items(&[(1.0, 2)]), 3).is_none());
    }

    #[test]
    fn zero_threshold_is_free() {
        let sol = solve_min_knapsack(&items(&[(5.0, 5)]), 0).unwrap();
        assert_eq!(sol.total_weight, 0.0);
        assert!(sol.chosen.is_empty());
    }

    #[test]
    fn greedy_meets_threshold_and_is_bounded() {
        let its = items(&[(4.0, 5), (3.0, 4), (2.0, 1), (7.0, 9), (1.0, 1)]);
        let exact = solve_min_knapsack(&its, 10).unwrap();
        let greedy = greedy_min_knapsack(&its, 10).unwrap();
        assert!(greedy.total_value >= 10);
        assert!(greedy.total_weight + 1e-9 >= exact.total_weight);
        // Density-greedy with drop pass is a 2-approximation on such
        // instances.
        assert!(greedy.total_weight <= 2.0 * exact.total_weight + 1e-9);
    }

    #[test]
    fn reduction_preserves_optimum() {
        let its = items(&[(3.0, 4), (2.0, 3), (4.0, 6), (6.0, 5)]);
        let threshold = 9;
        let exact = solve_min_knapsack(&its, threshold).unwrap();

        let (instance, scale) = reduce_to_perfect_info(&its, threshold);
        let solution = instance.solve_exact().expect("reduction must be feasible");
        let subset = decisions_to_subset(&solution.decisions);
        let subset_value: u64 = subset.iter().map(|&i| its[i].value).sum();
        assert!(
            subset_value >= threshold,
            "reduction subset misses threshold"
        );

        // The reduced instance's retrieval cost of a group is (C_a + W_a) =
        // ceil(scale * w_a); minimizing it minimizes the (scaled) weight.
        let subset_weight: f64 = subset.iter().map(|&i| its[i].weight).sum();
        assert!(
            subset_weight <= exact.total_weight + subset.len() as f64 / scale + 1e-6,
            "reduction weight {} vs exact {}",
            subset_weight,
            exact.total_weight
        );
    }

    #[test]
    fn decisions_to_subset_filters_discards() {
        use Decision::*;
        let subset = decisions_to_subset(&[Discard, Return, Evaluate, Discard]);
        assert_eq!(subset, vec![1, 2]);
    }
}
