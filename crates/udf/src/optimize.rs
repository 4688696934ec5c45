//! Selectivity-aware expression optimizer.
//!
//! Static cost-ordered short-circuiting (what the staged evaluator does
//! by default) is the best one can do knowing only declared costs — but
//! Kim et al. (*Optimizing Query Predicates with Disjunctions for
//! Column-Oriented Engines*) show exactly where it breaks: with equal
//! declared costs, a conjunct that almost never rejects still runs first,
//! and a disjunction of conjunctions repeats work the disjuncts share.
//! [`optimize_expr`] fixes both with what the session already has — the
//! answers its [`CacheStore`] holds, whose pass rates
//! ([`CacheStore::pass_rate`]) are each leaf's observed selectivity — in
//! three answer-preserving passes:
//!
//! 1. **Normalize** — flatten nested same-operator nodes, collapse
//!    double negation, drop duplicate siblings (same
//!    [`PredicateExpr::fingerprint`]): `a AND a` pays once.
//! 2. **Factor** (Kim-style) — pull conjuncts common to *every* disjunct
//!    out of an `OR` of `AND`s (`(c∧a) ∨ (c∧b)` → `c ∧ (a∨b)`, with
//!    absorption `(c∧a) ∨ c` → `c`), and dually for an `AND` of `OR`s.
//!    The shared predicate is then evaluated in one staged batch instead
//!    of per-disjunct (the session memo already deduped the *rows*;
//!    factoring also fixes the *ordering*, since the cheap shared
//!    conjunct now short-circuits the whole disjunction).
//! 3. **Reorder** — rank `AND` children by `cost / (1 − selectivity)`
//!    (cheapest expected cost per rejected row first) and `OR` children
//!    by `cost / selectivity` (per accepted row), using observed leaf
//!    pass rates where the store has them and a 0.5 prior where it
//!    doesn't. With no observations every rank is `2·cost`, so the
//!    result degrades to exactly the static cost order: a cold or
//!    cleared session plans statically.
//!
//! The output is *pinned* ([`PredicateExpr::is_pinned`]): the staged
//! evaluator honors the chosen sibling order instead of re-sorting by
//! declared cost. Answers are byte-identical by construction — the
//! rewrites are boolean identities and order never changes answers —
//! only the bill drops. Estimated selectivities compose structurally
//! (`Not`: `1−s`; `And`: `∏s`; `Or`: `1−∏(1−s)`), i.e. assuming
//! independence — the same simplification the paper's §5 extension makes
//! before correlation learning takes over.

use crate::expr::{Node, PredicateExpr};
use crate::invoker::cache_namespace;
use expred_exec::CacheStore;
use expred_table::Table;

/// Prior pass rate for a leaf with no observations. Chosen so that an
/// unobserved workload reproduces the static cost order exactly (every
/// rank becomes `2·cost`).
const PRIOR_PASS_RATE: f64 = 0.5;

/// Rewrites `expr` into an answer-equivalent, pinned expression ordered
/// by observed selectivities (see the module docs). `store` is the
/// session's row tier — pass `None` (or an empty store) to get
/// normalization + factoring with static cost ordering.
///
/// Pass rates are looked up per `(udf, table version)` namespace, so the
/// optimizer never carries observations across a table mutation.
pub fn optimize_expr(
    expr: &PredicateExpr,
    table: &Table,
    store: Option<&CacheStore>,
) -> PredicateExpr {
    let node = normalize(expr.node.clone());
    let node = factor(node);
    // Factoring can expose new same-op nesting (`c ∧ (a∨b)` under an
    // outer AND) and new duplicate siblings — normalize again.
    let node = normalize(node);
    let node = reorder(node, table, store);
    let mut optimized = PredicateExpr::from_node(node);
    optimized.pinned = true;
    optimized
}

/// Flattens same-op nesting, collapses double negation, drops duplicate
/// siblings by fingerprint (fingerprint-less leaves are never dropped:
/// without identity, equality cannot be proven), unwraps single-child
/// `AND`/`OR`.
fn normalize(node: Node) -> Node {
    match node {
        leaf @ Node::Leaf { .. } => leaf,
        Node::Not(inner) => match normalize(*inner) {
            Node::Not(cancelled) => *cancelled,
            inner => Node::Not(Box::new(inner)),
        },
        Node::And(parts) => rebuild(parts, true),
        Node::Or(parts) => rebuild(parts, false),
    }
}

fn rebuild(parts: Vec<Node>, is_and: bool) -> Node {
    let mut flat = Vec::with_capacity(parts.len());
    for part in parts {
        match normalize(part) {
            Node::And(nested) if is_and => flat.extend(nested),
            Node::Or(nested) if !is_and => flat.extend(nested),
            node => flat.push(node),
        }
    }
    let mut seen = Vec::new();
    let mut unique = Vec::with_capacity(flat.len());
    for node in flat {
        match node_fingerprint(&node) {
            Some(id) if seen.contains(&id) => continue,
            Some(id) => seen.push(id),
            None => {}
        }
        unique.push(node);
    }
    if unique.len() == 1 {
        unique.pop().expect("one child")
    } else if is_and {
        Node::And(unique)
    } else {
        Node::Or(unique)
    }
}

fn node_fingerprint(node: &Node) -> Option<u64> {
    PredicateExpr::from_node(node.clone())
        .fingerprint()
        .map(|id| id.as_u64())
}

/// Kim-style factoring, applied bottom-up: conjuncts common to every
/// disjunct of an `OR` hoist out front (`(c∧a) ∨ (c∧b)` → `c ∧ (a∨b)`);
/// a disjunct left empty absorbs the whole disjunction
/// (`(c∧a) ∨ c` → `c`). Dually for an `AND` of `OR`s. Children without
/// fingerprints never participate (commonality cannot be proven).
fn factor(node: Node) -> Node {
    match node {
        leaf @ Node::Leaf { .. } => leaf,
        Node::Not(inner) => Node::Not(Box::new(factor(*inner))),
        Node::Or(parts) => {
            let parts: Vec<Node> = parts.into_iter().map(factor).collect();
            factor_siblings(parts, false)
        }
        Node::And(parts) => {
            let parts: Vec<Node> = parts.into_iter().map(factor).collect();
            factor_siblings(parts, true)
        }
    }
}

/// Factors `parts` of an `AND` (`is_and`) or `OR` node. For an `OR`:
/// each disjunct is viewed as a set of conjuncts (a non-`AND` disjunct is
/// a singleton set); fingerprinted conjuncts present in *every* disjunct
/// hoist into a common prefix.
fn factor_siblings(parts: Vec<Node>, is_and: bool) -> Node {
    // Inner lists: an OR's disjuncts split into conjuncts; an AND's
    // conjuncts split into disjuncts.
    let split = |node: &Node| -> Vec<Node> {
        match node {
            Node::And(inner) if !is_and => inner.clone(),
            Node::Or(inner) if is_and => inner.clone(),
            other => vec![other.clone()],
        }
    };
    let wrap_outer = |parts: Vec<Node>| {
        if is_and {
            Node::And(parts)
        } else {
            Node::Or(parts)
        }
    };
    if parts.len() < 2 {
        let mut parts = parts;
        return match parts.pop() {
            Some(only) => only,
            None => wrap_outer(parts),
        };
    }
    let groups: Vec<Vec<Node>> = parts.iter().map(split).collect();
    // Candidate commons: fingerprinted members of the first group that
    // appear (by fingerprint) in every other group.
    let first_ids: Vec<(u64, &Node)> = groups[0]
        .iter()
        .filter_map(|n| node_fingerprint(n).map(|id| (id, n)))
        .collect();
    let common: Vec<(u64, Node)> = first_ids
        .into_iter()
        .filter(|(id, _)| {
            groups[1..]
                .iter()
                .all(|group| group.iter().any(|n| node_fingerprint(n) == Some(*id)))
        })
        .map(|(id, n)| (id, n.clone()))
        .collect();
    if common.is_empty() {
        return wrap_outer(parts);
    }
    let common_ids: Vec<u64> = common.iter().map(|(id, _)| *id).collect();
    // Remainders: each group minus one occurrence of every common member.
    let mut absorbed = false;
    let remainders: Vec<Node> = groups
        .iter()
        .map(|group| {
            let mut pending = common_ids.clone();
            let rest: Vec<Node> = group
                .iter()
                .filter(|n| {
                    if let Some(id) = node_fingerprint(n) {
                        if let Some(at) = pending.iter().position(|&p| p == id) {
                            pending.swap_remove(at);
                            return false;
                        }
                    }
                    true
                })
                .cloned()
                .collect();
            if rest.is_empty() {
                absorbed = true;
            }
            wrap_dual(rest, is_and)
        })
        .collect();
    let common_nodes: Vec<Node> = common.into_iter().map(|(_, n)| n).collect();
    if absorbed {
        // OR case: some disjunct was *exactly* the common conjuncts, so
        // the whole OR collapses to them (`(c∧a) ∨ c` ≡ `c`). AND case
        // dually (`(c∨a) ∧ c` ≡ `c`).
        return wrap_dual(common_nodes, is_and);
    }
    // OR case: And[common..., Or[remainders]]. AND case: Or[common...,
    // And[remainders]].
    let mut out = common_nodes;
    out.push(wrap_outer(remainders));
    wrap_dual(out, is_and)
}

/// Wraps `nodes` in the *dual* of the outer operator (an OR's
/// conjunct-sets rebuild as `AND`s and vice versa), unwrapping the
/// single-node case.
fn wrap_dual(mut nodes: Vec<Node>, outer_is_and: bool) -> Node {
    if nodes.len() == 1 {
        nodes.pop().expect("one node")
    } else if outer_is_and {
        Node::Or(nodes)
    } else {
        Node::And(nodes)
    }
}

/// Reorders every `AND`/`OR`'s children by expected value per unit cost,
/// recursively. Stable sort with a total key ([`f64::total_cmp`],
/// non-finite ranks clamped to `+inf`): ties and unobserved workloads
/// keep the static order, and ordering is always deterministic.
fn reorder(node: Node, table: &Table, store: Option<&CacheStore>) -> Node {
    match node {
        leaf @ Node::Leaf { .. } => leaf,
        Node::Not(inner) => Node::Not(Box::new(reorder(*inner, table, store))),
        Node::And(parts) => {
            let parts: Vec<Node> = parts
                .into_iter()
                .map(|p| reorder(p, table, store))
                .collect();
            // AND: a child is useful when it *rejects*; expected cost per
            // rejected row is cost / (1 − sel). A never-rejecting child
            // (sel ≥ 1) ranks +inf — run it last.
            Node::And(rank_sorted(
                parts,
                |cost, sel| {
                    let reject = 1.0 - sel;
                    if reject > 0.0 {
                        cost / reject
                    } else {
                        f64::INFINITY
                    }
                },
                table,
                store,
            ))
        }
        Node::Or(parts) => {
            let parts: Vec<Node> = parts
                .into_iter()
                .map(|p| reorder(p, table, store))
                .collect();
            // OR: a child is useful when it *accepts*; expected cost per
            // accepted row is cost / sel. A never-accepting child
            // (sel ≤ 0) ranks +inf — run it last.
            Node::Or(rank_sorted(
                parts,
                |cost, sel| {
                    if sel > 0.0 {
                        cost / sel
                    } else {
                        f64::INFINITY
                    }
                },
                table,
                store,
            ))
        }
    }
}

fn rank_sorted(
    parts: Vec<Node>,
    rank: impl Fn(f64, f64) -> f64,
    table: &Table,
    store: Option<&CacheStore>,
) -> Vec<Node> {
    let keys: Vec<f64> = parts
        .iter()
        .map(|p| {
            let r = rank(
                PredicateExpr::from_node(p.clone()).cost(),
                estimate_pass_rate(p, table, store),
            );
            if r.is_finite() {
                r
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
    // Reassemble in rank order without cloning the subtrees.
    let mut slots: Vec<Option<Node>> = parts.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each index once"))
        .collect()
}

/// Estimated pass rate of a subtree: observed per-leaf rates where the
/// store has them ([`PRIOR_PASS_RATE`] otherwise), composed assuming
/// independence (`Not`: `1−s`; `And`: `∏s`; `Or`: `1−∏(1−s)`).
fn estimate_pass_rate(node: &Node, table: &Table, store: Option<&CacheStore>) -> f64 {
    match node {
        Node::Leaf { udf, .. } => store
            .zip(cache_namespace(udf.as_ref(), table))
            .and_then(|(store, ns)| store.pass_rate(ns))
            .unwrap_or(PRIOR_PASS_RATE),
        Node::Not(inner) => 1.0 - estimate_pass_rate(inner, table, store),
        Node::And(parts) => parts
            .iter()
            .map(|p| estimate_pass_rate(p, table, store))
            .product(),
        Node::Or(parts) => {
            1.0 - parts
                .iter()
                .map(|p| 1.0 - estimate_pass_rate(p, table, store))
                .product::<f64>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTracker;
    use crate::expr::{evaluate_expr, Pred};
    use crate::udf::OracleUdf;
    use expred_exec::ExecContext;
    use expred_table::{DataType, Field, RowSet, Schema, Value};

    fn table(cols: &[(&str, &[bool])]) -> Table {
        let schema = Schema::new(
            cols.iter()
                .map(|(name, _)| Field::new(*name, DataType::Bool))
                .collect(),
        );
        let n = cols[0].1.len();
        let rows = (0..n)
            .map(|r| cols.iter().map(|(_, vals)| Value::Bool(vals[r])).collect())
            .collect();
        Table::from_rows(schema, rows).unwrap()
    }

    fn leaf(col: &str) -> PredicateExpr {
        Pred::udf(OracleUdf::new(col))
    }

    /// Teaches `store` each column's true pass rate by running every
    /// leaf once through an audited evaluation that keeps its answers.
    fn observe(store: &CacheStore, t: &Table, cols: &[&str]) {
        let ctx = ExecContext::sequential().with_cache(store);
        let rows = RowSet::full(t.num_rows());
        for col in cols {
            evaluate_expr(&leaf(col), t, &rows, &CostTracker::new(), &ctx).unwrap();
        }
    }

    #[test]
    fn normalization_dedups_and_flattens() {
        let expr = leaf("a").and(leaf("a")).and(leaf("b").or(leaf("b")));
        let t = table(&[("a", &[true]), ("b", &[true])]);
        let optimized = optimize_expr(&expr, &t, None);
        assert_eq!(optimized.leaf_count(), 2, "{optimized:?}");
        assert!(optimized.is_pinned());
        // `a AND a` alone collapses to the bare leaf.
        let single = optimize_expr(&leaf("a").and(leaf("a")), &t, None);
        assert_eq!(single.leaf_count(), 1);
        assert_eq!(single.fingerprint(), leaf("a").fingerprint());
        // Double negation collapses.
        let double = optimize_expr(&leaf("a").not().not(), &t, None);
        assert_eq!(double.fingerprint(), leaf("a").fingerprint());
    }

    #[test]
    fn factoring_hoists_common_conjuncts() {
        let t = table(&[("c", &[true]), ("a", &[true]), ("b", &[true])]);
        // (c ∧ a) ∨ (c ∧ b)  →  c ∧ (a ∨ b)
        let expr = leaf("c").and(leaf("a")).or(leaf("c").and(leaf("b")));
        let optimized = optimize_expr(&expr, &t, None);
        let want = leaf("c").and(leaf("a").or(leaf("b")));
        assert_eq!(optimized.fingerprint(), want.fingerprint(), "{optimized:?}");
        // Absorption: (c ∧ a) ∨ c → c.
        let absorbed = optimize_expr(&leaf("c").and(leaf("a")).or(leaf("c")), &t, None);
        assert_eq!(absorbed.fingerprint(), leaf("c").fingerprint());
        // Dual: (c ∨ a) ∧ (c ∨ b) → c ∨ (a ∧ b).
        let dual = optimize_expr(
            &leaf("c").or(leaf("a")).and(leaf("c").or(leaf("b"))),
            &t,
            None,
        );
        let dual_want = leaf("c").or(leaf("a").and(leaf("b")));
        assert_eq!(dual.fingerprint(), dual_want.fingerprint(), "{dual:?}");
        // No common conjunct → no factoring; the reorder pass still runs
        // (the lone leaf `c` out-ranks the conjunction under the prior).
        let untouched = optimize_expr(&leaf("a").and(leaf("b")).or(leaf("c")), &t, None);
        assert_eq!(
            untouched.fingerprint(),
            leaf("c").or(leaf("a").and(leaf("b"))).fingerprint(),
            "{untouched:?}"
        );
    }

    #[test]
    fn unobserved_reordering_matches_static_cost_order() {
        let t = table(&[("a", &[true]), ("b", &[true])]);
        let pricey_first = Pred::udf_with_cost(OracleUdf::new("a"), 10.0)
            .and(Pred::udf_with_cost(OracleUdf::new("b"), 1.0));
        let optimized = optimize_expr(&pricey_first, &t, None);
        // With the 0.5 prior, rank = 2·cost: the cheap leaf moves first.
        assert_eq!(
            optimized.fingerprint(),
            Pred::udf_with_cost(OracleUdf::new("b"), 1.0)
                .and(Pred::udf_with_cost(OracleUdf::new("a"), 10.0))
                .fingerprint(),
            "{optimized:?}"
        );
    }

    #[test]
    fn observed_selectivities_beat_static_order_on_the_bill() {
        let ctx = ExecContext::sequential();
        // `common` passes 90%, `rare` passes 10%; equal declared costs,
        // so the static order is the written order: common first.
        let n = 200;
        let common_vals: Vec<bool> = (0..n).map(|i| i % 10 != 0).collect();
        let rare_vals: Vec<bool> = (0..n).map(|i| i % 10 == 0).collect();
        let t = table(&[("common", &common_vals), ("rare", &rare_vals)]);
        let rows = RowSet::full(n);
        let store = CacheStore::new();
        observe(&store, &t, &["common", "rare"]);

        let expr = leaf("common").and(leaf("rare"));
        let optimized = optimize_expr(&expr, &t, Some(&store));
        assert!(optimized.is_pinned());

        let static_bill = {
            let costs = CostTracker::new();
            let got = evaluate_expr(&expr, &t, &rows, &costs, &ctx).unwrap();
            (got, costs.snapshot().evaluated)
        };
        let learned_bill = {
            let costs = CostTracker::new();
            let got = evaluate_expr(&optimized, &t, &rows, &costs, &ctx).unwrap();
            (got, costs.snapshot().evaluated)
        };
        assert_eq!(static_bill.0, learned_bill.0, "answers are identical");
        // Static: 200 common + 180 survivors = 380. Learned: 200 rare +
        // 20 survivors = 220.
        assert_eq!(static_bill.1, 380);
        assert_eq!(learned_bill.1, 220);

        // OR rank is the mirror image: the common (likely-accepting)
        // child should run first.
        let or_expr = leaf("rare").or(leaf("common"));
        let or_optimized = optimize_expr(&or_expr, &t, Some(&store));
        let or_static = {
            let costs = CostTracker::new();
            evaluate_expr(&or_expr, &t, &rows, &costs, &ctx).unwrap();
            costs.snapshot().evaluated
        };
        let or_learned = {
            let costs = CostTracker::new();
            evaluate_expr(&or_optimized, &t, &rows, &costs, &ctx).unwrap();
            costs.snapshot().evaluated
        };
        assert!(
            or_learned < or_static,
            "learned {or_learned} must beat static {or_static}"
        );
    }

    #[test]
    fn optimized_answers_are_identical_on_compound_expressions() {
        let ctx = ExecContext::sequential();
        let n = 60;
        let a: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let b: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let c: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();
        let t = table(&[("a", &a), ("b", &b), ("c", &c)]);
        let rows = RowSet::full(n);
        let store = CacheStore::new();
        observe(&store, &t, &["a", "b", "c"]);
        let cases = vec![
            leaf("a").and(leaf("b")).or(leaf("a").and(leaf("c"))),
            leaf("a").and(leaf("a")).or(leaf("b").not().not()),
            leaf("c").not().or(leaf("a").and(leaf("b").or(leaf("c")))),
            leaf("a").and(leaf("b")).and(leaf("c")).not(),
        ];
        for expr in cases {
            let optimized = optimize_expr(&expr, &t, Some(&store));
            let want = evaluate_expr(&expr, &t, &rows, &CostTracker::new(), &ctx).unwrap();
            let got = evaluate_expr(&optimized, &t, &rows, &CostTracker::new(), &ctx).unwrap();
            assert_eq!(want, got, "{expr:?} vs {optimized:?}");
        }
    }

    #[test]
    fn factoring_cuts_the_bill_on_shared_disjuncts() {
        // (gate ∧ a) ∨ (gate ∧ b): outside a session cache, the two
        // `gate` leaves are distinct invokers, so the unfactored form
        // pays for `gate` once per disjunct. Factoring to
        // `gate ∧ (a ∨ b)` pays exactly once.
        let n = 100;
        let gate: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect(); // 20%
        let a: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let b: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let t = table(&[("gate", &gate), ("a", &a), ("b", &b)]);
        let rows = RowSet::full(n);
        let store = CacheStore::new();
        observe(&store, &t, &["gate", "a", "b"]);
        let expr = leaf("gate").and(leaf("a")).or(leaf("gate").and(leaf("b")));
        let optimized = optimize_expr(&expr, &t, Some(&store));

        let run = |e: &PredicateExpr| {
            let costs = CostTracker::new();
            let got = evaluate_expr(e, &t, &rows, &costs, &ExecContext::sequential()).unwrap();
            (got, costs.snapshot().evaluated)
        };
        let (want, static_bill) = run(&expr);
        let (got, learned_bill) = run(&optimized);
        assert_eq!(want, got);
        assert!(
            learned_bill < static_bill,
            "factored {learned_bill} must beat unfactored {static_bill}"
        );
    }
}
