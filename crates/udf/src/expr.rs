//! [`PredicateExpr`]: boolean expressions over expensive UDFs.
//!
//! The paper's §5 "multiple predicates" extension — and the natural
//! serving workload behind it (Kim et al., *Optimizing Query Predicates
//! with Disjunctions for Column-Oriented Engines*) — is a query whose
//! `WHERE` clause combines several expensive predicates:
//! `f1(...) = 1 AND (f2(...) = 1 OR NOT f3(...) = 1)`. This module makes
//! that a first-class value:
//!
//! ```
//! use expred_udf::{OracleUdf, Pred};
//!
//! let expr = Pred::udf(OracleUdf::new("fraud_free"))
//!     .and(Pred::udf(OracleUdf::new("image_ok")).or(Pred::udf(OracleUdf::new("vip"))));
//! assert_eq!(expr.leaf_count(), 3);
//! assert!(expr.fingerprint().is_some(), "oracle leaves are identifiable");
//! ```
//!
//! Three properties make expressions serving-grade:
//!
//! * **Derived identity** — [`PredicateExpr::fingerprint`] folds the
//!   operator tree and every leaf's [`UdfId`] into one id, so a whole
//!   expression is cacheable/memoizable exactly like a single UDF (it
//!   even implements [`BooleanUdf`] itself).
//! * **Session-cached evaluation** — [`evaluate_expr`] gives every
//!   *leaf* its own audited [`UdfInvoker`] over the shared
//!   [`expred_exec::CacheStore`] namespace, so a leaf some earlier query
//!   already paid for arrives as a free
//!   [`crate::CostCounts::reuse_hits`], whatever expression it appeared
//!   in back then.
//! * **Cost-ordered short-circuiting over planes** — inside each
//!   `AND`/`OR`, child subtrees are evaluated cheapest-first
//!   ([`PredicateExpr::cost`]) in staged batches, each stage over a bit
//!   plane of the rows still in play: an `AND` narrows the plane of
//!   surviving rows, an `OR` the plane of rows no child accepted yet, and
//!   a `NOT` is `rows & !inner` — the column-store disjunction strategy,
//!   with bitmaps of surviving rows. Answers are independent of the
//!   order (the predicates are deterministic); only the bill changes.
//!
//! Expressions also round-trip through the predicate DSL
//! ([`crate::parse_predicate`]): a parsed expression remembers its leaf
//! names and [`PredicateExpr::render`]s back to an equivalent string.
//! The session optimizer ([`crate::optimize_expr`]) rewrites a tree into
//! an answer-equivalent one whose sibling order is *pinned* — the staged
//! evaluator then honors that order instead of re-sorting by declared
//! cost.

use crate::cost::CostTracker;
use crate::invoker::UdfInvoker;
use crate::udf::{BooleanUdf, UdfId};
use expred_exec::ExecContext;
use expred_table::{RowSet, Table};
use std::collections::HashSet;
use std::sync::Arc;

/// Short alias so expressions read as predicates:
/// `Pred::udf(...).and(...).not()`.
pub type Pred = PredicateExpr;

/// Default per-evaluation cost of a leaf, when none is declared.
pub const DEFAULT_LEAF_COST: f64 = 1.0;

/// The batch entry points reject an expression whose declared leaf costs
/// are malformed (NaN, infinite, or negative) — such a cost cannot order
/// short-circuit stages, and before this check a NaN cost silently fed a
/// non-total comparator into the stage sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCostsError;

impl std::fmt::Display for InvalidCostsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "every leaf evaluation cost must be finite and >= 0")
    }
}

impl std::error::Error for InvalidCostsError {}

/// A boolean expression over expensive UDF predicates — see the module
/// docs. Opaque on purpose: the only way to build one is through the
/// combinators (or the DSL parser), which maintain the tree invariants
/// (`AND`/`OR` nodes always have at least one child).
#[derive(Clone)]
pub struct PredicateExpr {
    pub(crate) node: Node,
    /// Whether the stored sibling order is authoritative (set by the
    /// optimizer): the staged evaluator then runs children in stored
    /// order instead of re-sorting by declared cost. Never part of the
    /// fingerprint — order cannot change answers. Combinators reset it:
    /// composing onto an optimized tree yields a new, unoptimized one.
    pub(crate) pinned: bool,
}

#[derive(Clone)]
pub(crate) enum Node {
    Leaf {
        udf: Arc<dyn BooleanUdf>,
        cost: f64,
        /// The DSL name this leaf was parsed from, if any — what
        /// [`PredicateExpr::render`] prints. Excluded from the
        /// fingerprint: identity is the UDF's, not its spelling.
        name: Option<Arc<str>>,
    },
    Not(Box<Node>),
    And(Vec<Node>),
    Or(Vec<Node>),
}

impl PredicateExpr {
    /// A leaf predicate with the default evaluation cost.
    pub fn udf(udf: impl BooleanUdf + 'static) -> Self {
        Self::udf_with_cost(udf, DEFAULT_LEAF_COST)
    }

    /// A leaf predicate with a declared per-evaluation cost, used only to
    /// order short-circuit stages (cheap predicates run first). The cost
    /// does not enter the expression's identity: evaluation order cannot
    /// change answers.
    pub fn udf_with_cost(udf: impl BooleanUdf + 'static, cost: f64) -> Self {
        Self::shared_with_cost(Arc::new(udf), cost)
    }

    /// A leaf over an already-shared UDF.
    pub(crate) fn shared_with_cost(udf: Arc<dyn BooleanUdf>, cost: f64) -> Self {
        Self {
            node: Node::Leaf {
                udf,
                cost,
                name: None,
            },
            pinned: false,
        }
    }

    /// Wraps `node` in an unpinned expression (crate-internal: the
    /// parser and optimizer build trees directly).
    pub(crate) fn from_node(node: Node) -> Self {
        Self {
            node,
            pinned: false,
        }
    }

    /// Names this expression's root leaf (crate-internal: the parser
    /// tags resolved leaves with their DSL spelling). Non-leaf roots are
    /// left unchanged — a registry that expands a name into a compound
    /// expression has no single leaf to name.
    pub(crate) fn with_leaf_name(mut self, leaf_name: &str) -> Self {
        if let Node::Leaf { name, .. } = &mut self.node {
            *name = Some(Arc::from(leaf_name));
        }
        self
    }

    /// `self AND other` (flattens nested conjunctions).
    pub fn and(self, other: PredicateExpr) -> Self {
        let mut parts = match self.node {
            Node::And(parts) => parts,
            node => vec![node],
        };
        match other.node {
            Node::And(mut more) => parts.append(&mut more),
            node => parts.push(node),
        }
        Self::from_node(Node::And(parts))
    }

    /// `self OR other` (flattens nested disjunctions).
    pub fn or(self, other: PredicateExpr) -> Self {
        let mut parts = match self.node {
            Node::Or(parts) => parts,
            node => vec![node],
        };
        match other.node {
            Node::Or(mut more) => parts.append(&mut more),
            node => parts.push(node),
        }
        Self::from_node(Node::Or(parts))
    }

    /// `NOT self` (double negation cancels). Also available as the `!`
    /// operator via the `std::ops::Not` impl.
    #[allow(clippy::should_implement_trait)] // it does — this is the no-import combinator spelling
    pub fn not(self) -> Self {
        !self
    }

    /// Number of leaf predicates in the tree.
    pub fn leaf_count(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Not(inner) => walk(inner),
                Node::And(parts) | Node::Or(parts) => parts.iter().map(walk).sum(),
            }
        }
        walk(&self.node)
    }

    /// Static per-row cost estimate: a leaf's declared cost; a
    /// negation's inner cost; a conjunction/disjunction's *sum* of child
    /// costs (the worst case, before short-circuiting). Used to order
    /// siblings cheapest-first.
    pub fn cost(&self) -> f64 {
        node_cost(&self.node)
    }

    /// Whether every leaf cost is finite and nonnegative.
    pub fn costs_valid(&self) -> bool {
        fn walk(node: &Node) -> bool {
            match node {
                Node::Leaf { cost, .. } => cost.is_finite() && *cost >= 0.0,
                Node::Not(inner) => walk(inner),
                Node::And(parts) | Node::Or(parts) => parts.iter().all(walk),
            }
        }
        walk(&self.node)
    }

    /// Whether the sibling order was pinned by the optimizer
    /// ([`crate::optimize_expr`]): pinned trees evaluate children in
    /// stored order; unpinned trees re-sort by declared cost.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// The derived identity of the whole expression, or `None` if any
    /// leaf UDF opted out of identity ([`BooleanUdf::fingerprint`]).
    ///
    /// Sibling order is significant: `a.and(b)` and `b.and(a)` answer
    /// identically but carry distinct ids — the id never claims an
    /// equivalence it cannot prove. Leaf costs, DSL names, and the pinned
    /// flag are excluded: ordering and spelling cannot change answers.
    pub fn fingerprint(&self) -> Option<UdfId> {
        fn walk(node: &Node) -> Option<UdfId> {
            match node {
                Node::Leaf { udf, .. } => udf.fingerprint(),
                Node::Not(inner) => Some(UdfId::from_parts("expr.not", &[walk(inner)?.as_u64()])),
                Node::And(parts) => {
                    let ids = part_ids(parts)?;
                    Some(UdfId::from_parts("expr.and", &ids))
                }
                Node::Or(parts) => {
                    let ids = part_ids(parts)?;
                    Some(UdfId::from_parts("expr.or", &ids))
                }
            }
        }
        fn part_ids(parts: &[Node]) -> Option<Vec<u64>> {
            parts
                .iter()
                .map(|p| walk(p).map(|id| id.as_u64()))
                .collect()
        }
        walk(&self.node)
    }

    /// Renders the expression back to predicate-DSL text
    /// ([`crate::parse_predicate`] accepts the result), or `None` if any
    /// leaf has no DSL name (only parsed leaves carry one).
    ///
    /// Parentheses are minimal under the grammar's precedence
    /// (`not` > `and` > `or`), so
    /// `parse(expr.render()?)` rebuilds a tree with the same
    /// [`PredicateExpr::fingerprint`] and the same answers.
    pub fn render(&self) -> Option<String> {
        // Precedence levels: Or = 0, And = 1, Not = 2, Leaf = 3. A child
        // needs parentheses when it binds no tighter than its parent.
        fn level(node: &Node) -> u8 {
            match node {
                Node::Or(_) => 0,
                Node::And(_) => 1,
                Node::Not(_) => 2,
                Node::Leaf { .. } => 3,
            }
        }
        fn child(node: &Node, min_level: u8, out: &mut String) -> Option<()> {
            if level(node) < min_level {
                out.push('(');
                walk(node, out)?;
                out.push(')');
                Some(())
            } else {
                walk(node, out)
            }
        }
        fn walk(node: &Node, out: &mut String) -> Option<()> {
            match node {
                Node::Leaf { name, .. } => {
                    out.push_str(name.as_deref()?);
                    Some(())
                }
                Node::Not(inner) => {
                    out.push_str("not ");
                    child(inner, 2, out)
                }
                // A nested same-op child still gets parentheses (min
                // level one above its own), keeping re-parsing faithful
                // even for trees the optimizer built unflattened.
                Node::And(parts) => {
                    for (i, part) in parts.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" and ");
                        }
                        child(part, 2, out)?;
                    }
                    Some(())
                }
                Node::Or(parts) => {
                    for (i, part) in parts.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" or ");
                        }
                        child(part, 1, out)?;
                    }
                    Some(())
                }
            }
        }
        let mut out = String::new();
        walk(&self.node, &mut out)?;
        Some(out)
    }
}

/// `NOT expr` (double negation cancels). `std::ops::Not` is in the
/// prelude, so this is both `!expr` and the combinator `expr.not()`.
impl std::ops::Not for PredicateExpr {
    type Output = PredicateExpr;

    fn not(self) -> PredicateExpr {
        Self::from_node(match self.node {
            Node::Not(inner) => *inner,
            node => Node::Not(Box::new(node)),
        })
    }
}

fn node_cost(node: &Node) -> f64 {
    match node {
        Node::Leaf { cost, .. } => *cost,
        Node::Not(inner) => node_cost(inner),
        Node::And(parts) | Node::Or(parts) => parts.iter().map(node_cost).sum(),
    }
}

/// Child evaluation order: cheapest subtree first, original order on
/// ties (stable sort), so evaluation is deterministic. The sort key is
/// total (`f64::total_cmp`, non-finite costs clamped to `+inf`): a NaN
/// leaf cost must never feed a non-total comparator into the sort —
/// validated entry points reject it, and any other path degrades to
/// "last", not to unspecified (or panicking) behavior.
pub(crate) fn cost_order(parts: &[Node]) -> Vec<usize> {
    let key = |node: &Node| {
        let cost = node_cost(node);
        if cost.is_finite() {
            cost
        } else {
            f64::INFINITY
        }
    };
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by(|&a, &b| key(&parts[a]).total_cmp(&key(&parts[b])));
    order
}

impl BooleanUdf for PredicateExpr {
    /// Per-row evaluation with short-circuiting in *stored* sibling
    /// order (no caching, no auditing — the expression acts as one
    /// opaque UDF, and this path is a hot loop, so it skips the
    /// cost-ordering bookkeeping, which cannot change answers anyway).
    /// Batched, audited, session-cached, cost-ordered evaluation is
    /// [`evaluate_expr`].
    fn evaluate(&self, table: &Table, row: usize) -> bool {
        fn walk(node: &Node, table: &Table, row: usize) -> bool {
            match node {
                Node::Leaf { udf, .. } => udf.evaluate(table, row),
                Node::Not(inner) => !walk(inner, table, row),
                Node::And(parts) => parts.iter().all(|p| walk(p, table, row)),
                Node::Or(parts) => parts.iter().any(|p| walk(p, table, row)),
            }
        }
        walk(&self.node, table, row)
    }

    fn name(&self) -> &str {
        "expr"
    }

    fn fingerprint(&self) -> Option<UdfId> {
        PredicateExpr::fingerprint(self)
    }

    /// Columns any leaf declares, deduplicated in first-seen order — an
    /// expression whose leaves share a column must not report (or make a
    /// validator re-check) that column once per leaf.
    fn required_columns(&self) -> Vec<String> {
        fn walk(node: &Node, out: &mut Vec<String>, seen: &mut HashSet<String>) {
            match node {
                Node::Leaf { udf, .. } => {
                    for column in udf.required_columns() {
                        if seen.insert(column.clone()) {
                            out.push(column);
                        }
                    }
                }
                Node::Not(inner) => walk(inner, out, seen),
                Node::And(parts) | Node::Or(parts) => parts.iter().for_each(|p| walk(p, out, seen)),
            }
        }
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        walk(&self.node, &mut out, &mut seen);
        out
    }
}

impl std::fmt::Debug for PredicateExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn walk(node: &Node, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match node {
                Node::Leaf { udf, cost, name } => match name {
                    Some(name) => write!(f, "{name}@{cost}"),
                    None => write!(f, "{}@{cost}", udf.name()),
                },
                Node::Not(inner) => {
                    write!(f, "not(")?;
                    walk(inner, f)?;
                    write!(f, ")")
                }
                Node::And(parts) | Node::Or(parts) => {
                    let op = if matches!(node, Node::And(_)) {
                        "and"
                    } else {
                        "or"
                    };
                    write!(f, "{op}(")?;
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        walk(p, f)?;
                    }
                    write!(f, ")")
                }
            }
        }
        walk(&self.node, f)?;
        if self.pinned {
            write!(f, " [pinned]")?;
        }
        Ok(())
    }
}

/// Evaluates `expr` over the plane `rows` — a set over `table`'s rows —
/// in staged, audited batches, returning the plane of the rows where it
/// holds. Every leaf gets its own [`UdfInvoker`] charging to `tracker`
/// (and borrowing the context's session cache, when present) and reads
/// its rows a 64-row word at a time ([`UdfInvoker::evaluate_plane`]):
/// what the memo or the session already decided is answered by the word,
/// and only the undecided rows go to the executor, as one batch in
/// ascending order. The operators are plane algebra: `NOT` is `rows &
/// !inner`; inside an `AND` each child evaluates only the rows every
/// earlier child passed (the alive plane narrows), inside an `OR` only
/// the rows no earlier child accepted (the undecided plane narrows).
/// Children run cheapest-first — or in stored order when the optimizer
/// pinned it ([`PredicateExpr::is_pinned`]). Answers are identical across
/// executor backends and orderings.
///
/// Errors with [`InvalidCostsError`] if any declared leaf cost is NaN,
/// infinite, or negative (such a cost cannot order stages) — the same
/// rejection the engine's `ExprScan` validation performs.
///
/// Retrieval is *not* charged here — the caller decided to touch the
/// rows; each leaf invocation is charged one evaluation (or arrives as a
/// memo/reuse hit).
pub fn evaluate_expr(
    expr: &PredicateExpr,
    table: &Table,
    rows: &RowSet,
    tracker: &CostTracker,
    ctx: &ExecContext<'_>,
) -> Result<RowSet, InvalidCostsError> {
    if !expr.costs_valid() {
        return Err(InvalidCostsError);
    }
    Ok(eval_plane(
        &expr.node,
        expr.pinned,
        table,
        rows,
        tracker,
        ctx,
    ))
}

/// The order the children of an `AND`/`OR` run in: stored order for a
/// tree the optimizer pinned, cheapest-first otherwise. Either way it is
/// deterministic and cannot change answers.
fn stage_order(parts: &[Node], pinned: bool) -> Vec<usize> {
    if pinned {
        (0..parts.len()).collect()
    } else {
        cost_order(parts)
    }
}

fn eval_plane(
    node: &Node,
    pinned: bool,
    table: &Table,
    rows: &RowSet,
    tracker: &CostTracker,
    ctx: &ExecContext<'_>,
) -> RowSet {
    match node {
        Node::Leaf { udf, .. } => {
            let invoker =
                UdfInvoker::with_tracker_and_context(udf.as_ref(), table, tracker.clone(), ctx);
            invoker.evaluate_plane(ctx.executor, rows)
        }
        Node::Not(inner) => {
            let mut out = rows.clone();
            out.difference_with(&eval_plane(inner, pinned, table, rows, tracker, ctx));
            out
        }
        Node::And(parts) => {
            let mut alive = rows.clone();
            for part in stage_order(parts, pinned) {
                if alive.is_empty() {
                    break;
                }
                alive = eval_plane(&parts[part], pinned, table, &alive, tracker, ctx);
            }
            alive
        }
        Node::Or(parts) => {
            let mut undecided = rows.clone();
            let mut accepted = RowSet::new(table.num_rows());
            for part in stage_order(parts, pinned) {
                if undecided.is_empty() {
                    break;
                }
                let passed = eval_plane(&parts[part], pinned, table, &undecided, tracker, ctx);
                undecided.difference_with(&passed);
                accepted.union_with(&passed);
            }
            accepted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::OracleUdf;
    use expred_exec::{CacheNamespace, CacheStore, Sequential, SpillSink};
    use expred_stats::bits::{rows_of, PagePlanes};
    use expred_table::{DataType, Field, Schema, Value};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// The row-list walk [`evaluate_expr`] replaced — each stage a batch
    /// of row ids, answers in input order — kept as the oracle the plane
    /// evaluator must match action for action over ascending, distinct
    /// rows.
    fn evaluate_rows(
        node: &Node,
        pinned: bool,
        table: &Table,
        rows: &[usize],
        tracker: &CostTracker,
        ctx: &ExecContext<'_>,
    ) -> Vec<bool> {
        let eval =
            |node: &Node, batch: &[usize]| evaluate_rows(node, pinned, table, batch, tracker, ctx);
        match node {
            Node::Leaf { udf, .. } => {
                let invoker =
                    UdfInvoker::with_tracker_and_context(udf.as_ref(), table, tracker.clone(), ctx);
                invoker.evaluate_batch(ctx.executor, rows)
            }
            Node::Not(inner) => eval(inner, rows).into_iter().map(|v| !v).collect(),
            Node::And(parts) => {
                // Positions (into `rows`) still alive after the stages so far.
                let mut alive: Vec<usize> = (0..rows.len()).collect();
                for part in stage_order(parts, pinned) {
                    if alive.is_empty() {
                        break;
                    }
                    let batch: Vec<usize> = alive.iter().map(|&pos| rows[pos]).collect();
                    let verdicts = eval(&parts[part], &batch);
                    alive = alive
                        .into_iter()
                        .zip(verdicts)
                        .filter(|&(_, passed)| passed)
                        .map(|(pos, _)| pos)
                        .collect();
                }
                let mut answers = vec![false; rows.len()];
                for pos in alive {
                    answers[pos] = true;
                }
                answers
            }
            Node::Or(parts) => {
                // Positions not yet accepted by any earlier child.
                let mut undecided: Vec<usize> = (0..rows.len()).collect();
                let mut answers = vec![false; rows.len()];
                for part in stage_order(parts, pinned) {
                    if undecided.is_empty() {
                        break;
                    }
                    let batch: Vec<usize> = undecided.iter().map(|&pos| rows[pos]).collect();
                    let verdicts = eval(&parts[part], &batch);
                    let mut rest = Vec::with_capacity(undecided.len());
                    for (pos, passed) in undecided.into_iter().zip(verdicts) {
                        if passed {
                            answers[pos] = true;
                        } else {
                            rest.push(pos);
                        }
                    }
                    undecided = rest;
                }
                answers
            }
        }
    }

    /// [`evaluate_expr`] over every row of `t`, as one flag per row.
    fn evaluate_all(
        expr: &PredicateExpr,
        t: &Table,
        tracker: &CostTracker,
        ctx: &ExecContext<'_>,
    ) -> Result<Vec<bool>, InvalidCostsError> {
        let passed = evaluate_expr(expr, t, &RowSet::full(t.num_rows()), tracker, ctx)?;
        Ok((0..t.num_rows()).map(|row| passed.contains(row)).collect())
    }

    /// A sink that records every offered row, in order.
    #[derive(Debug, Default)]
    struct RecordingSink(Mutex<Vec<(usize, bool)>>);

    impl SpillSink for RecordingSink {
        fn spill(&self, _: CacheNamespace, pages: &[(usize, PagePlanes)]) {
            self.0.lock().unwrap().extend(rows_of(pages));
        }
    }

    /// Deterministic xorshift64*: the proptest shim has no recursive
    /// strategies, so tree shapes derive from one seed.
    struct Shapes(u64);

    impl Shapes {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }

        /// A random tree over the columns `c0..c3`, each leaf with one of
        /// four costs (so unpinned stages really reorder).
        fn tree(&mut self, depth: u32) -> PredicateExpr {
            match if depth == 0 { 0 } else { self.below(4) } {
                0 => {
                    let column = format!("c{}", self.below(4));
                    let cost = [0.5, 1.0, 2.0, 4.0][self.below(4) as usize];
                    Pred::udf_with_cost(OracleUdf::new(column), cost)
                }
                1 => self.tree(depth - 1).not(),
                op => {
                    let mut tree = self.tree(depth - 1);
                    for _ in 0..1 + self.below(3) {
                        let child = self.tree(depth - 1);
                        tree = if op == 2 {
                            tree.and(child)
                        } else {
                            tree.or(child)
                        };
                    }
                    tree
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn planes_match_the_row_list_walk_action_for_action(
            seed in any::<u64>(),
            n in 1usize..300,
            cells in prop::collection::vec(any::<u64>(), 4),
            keep in any::<u64>(),
            warm in prop::collection::vec((0usize..4, any::<u64>()), 0..4),
            pinned in any::<bool>(),
        ) {
            // Four label columns off random bits, a random subset of the
            // rows to evaluate, and a session an earlier query left some
            // leaves' answers in.
            let schema = Schema::new(
                (0..4).map(|c| Field::new(format!("c{c}"), DataType::Bool)).collect(),
            );
            let data = (0..n)
                .map(|row| {
                    cells.iter()
                        .map(|bits| Value::Bool((bits.rotate_left(row as u32 * 7) ^ row as u64) & 1 == 1))
                        .collect()
                })
                .collect();
            let t = Table::from_rows(schema, data).unwrap();
            let rows: Vec<usize> = (0..n).filter(|row| keep.rotate_left(*row as u32) & 3 != 0).collect();
            let mut expr = Shapes(seed | 1).tree(3);
            expr.pinned = pinned;

            let run = |planes: bool| {
                let store = CacheStore::new();
                let sink = std::sync::Arc::new(RecordingSink::default());
                store.set_spill(Some(sink.clone() as std::sync::Arc<dyn SpillSink>));
                let ctx = ExecContext::sequential().with_cache(&store);
                for &(column, bits) in &warm {
                    let udf = OracleUdf::new(format!("c{column}"));
                    let earlier: Vec<usize> =
                        (0..n).filter(|row| bits.rotate_left(*row as u32) & 1 == 1).collect();
                    UdfInvoker::with_context(&udf, &t, &ctx).evaluate_batch(&Sequential, &earlier);
                }
                let tracker = CostTracker::new();
                let answers: Vec<bool> = if planes {
                    let plane = RowSet::from_ids(n, rows.iter().map(|&row| row as u32));
                    let passed = evaluate_expr(&expr, &t, &plane, &tracker, &ctx).unwrap();
                    rows.iter().map(|&row| passed.contains(row)).collect()
                } else {
                    evaluate_rows(&expr.node, expr.pinned, &t, &rows, &tracker, &ctx)
                };
                let offers = sink.0.lock().unwrap().clone();
                (answers, tracker.snapshot(), store.stats(), offers)
            };
            let (got, want) = (run(true), run(false));
            prop_assert_eq!(&got.0, &want.0, "answers of {:?}", expr);
            for (&row, &answer) in rows.iter().zip(&got.0) {
                prop_assert_eq!(answer, expr.evaluate(&t, row), "row {}", row);
            }
            prop_assert_eq!(got.1, want.1, "the bills differ");
            prop_assert_eq!(got.2, want.2, "the store saw different probes");
            prop_assert_eq!(&got.3, &want.3, "the sink saw different offers");
        }
    }

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

    #[test]
    fn combinators_compute_boolean_semantics() {
        let a = [true, true, false, false];
        let b = [true, false, true, false];
        let t = table(&[("a", &a), ("b", &b)]);
        let tracker = CostTracker::new();
        type Semantics = Box<dyn Fn(bool, bool) -> bool>;
        let cases: Vec<(PredicateExpr, Semantics)> = vec![
            (leaf("a").and(leaf("b")), Box::new(|x, y| x && y)),
            (leaf("a").or(leaf("b")), Box::new(|x, y| x || y)),
            (leaf("a").not(), Box::new(|x, _| !x)),
            (leaf("a").and(leaf("b").not()), Box::new(|x, y| x && !y)),
            (leaf("a").or(leaf("b")).not(), Box::new(|x, y| !(x || y))),
        ];
        for (expr, want) in cases {
            let got =
                evaluate_all(&expr, &t, &tracker, &ExecContext::sequential()).expect("valid costs");
            let expect: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| want(x, y)).collect();
            assert_eq!(got, expect, "{expr:?}");
            // Per-row evaluation (the BooleanUdf view) agrees.
            for (row, &e) in expect.iter().enumerate() {
                assert_eq!(expr.evaluate(&t, row), e, "{expr:?} row {row}");
            }
        }
    }

    #[test]
    fn and_short_circuits_cheapest_first() {
        // `cheap` rejects half the rows; `pricey` must only be invoked on
        // the survivors, whichever side of the AND it was written on.
        let cheap_vals = [true, false, true, false, true, false];
        let pricey_vals = [true, true, false, false, true, true];
        let t = table(&[("cheap", &cheap_vals), ("pricey", &pricey_vals)]);
        for expr in [
            Pred::udf_with_cost(OracleUdf::new("pricey"), 10.0)
                .and(Pred::udf_with_cost(OracleUdf::new("cheap"), 1.0)),
            Pred::udf_with_cost(OracleUdf::new("cheap"), 1.0)
                .and(Pred::udf_with_cost(OracleUdf::new("pricey"), 10.0)),
        ] {
            let tracker = CostTracker::new();
            let answers =
                evaluate_all(&expr, &t, &tracker, &ExecContext::sequential()).expect("valid costs");
            let want: Vec<bool> = cheap_vals
                .iter()
                .zip(&pricey_vals)
                .map(|(&c, &p)| c && p)
                .collect();
            assert_eq!(answers, want);
            // 6 cheap probes + 3 survivors' pricey probes.
            assert_eq!(tracker.snapshot().evaluated, 6 + 3, "{expr:?}");
        }
    }

    #[test]
    fn or_skips_rows_an_earlier_child_accepted() {
        let cheap_vals = [true, false, true, false];
        let pricey_vals = [false, true, true, false];
        let t = table(&[("cheap", &cheap_vals), ("pricey", &pricey_vals)]);
        let expr = Pred::udf_with_cost(OracleUdf::new("pricey"), 10.0)
            .or(Pred::udf_with_cost(OracleUdf::new("cheap"), 1.0));
        let tracker = CostTracker::new();
        let answers =
            evaluate_all(&expr, &t, &tracker, &ExecContext::sequential()).expect("valid costs");
        assert_eq!(answers, vec![true, true, true, false]);
        // 4 cheap probes; only the 2 cheap-rejected rows reach pricey.
        assert_eq!(tracker.snapshot().evaluated, 4 + 2);
    }

    #[test]
    fn nan_cost_is_rejected_not_missorted() {
        // Regression: a NaN leaf cost used to feed a non-total comparator
        // into the stage sort (unspecified order; newer std sorts may
        // panic). The batch entry points now reject it up front…
        let vals = [true, false];
        let t = table(&[("a", &vals), ("b", &vals)]);
        let nan = Pred::udf_with_cost(OracleUdf::new("a"), f64::NAN).and(leaf("b"));
        let tracker = CostTracker::new();
        let err = evaluate_all(&nan, &t, &tracker, &ExecContext::sequential())
            .expect_err("NaN cost must be rejected");
        assert_eq!(err, InvalidCostsError);
        assert_eq!(tracker.snapshot().evaluated, 0, "no money was spent");
        assert!(err.to_string().contains("finite"));
        // …and the sort itself is total: non-finite costs order last,
        // deterministically, instead of panicking or shuffling.
        let parts = vec![
            Node::Leaf {
                udf: Arc::new(OracleUdf::new("a")),
                cost: f64::NAN,
                name: None,
            },
            Node::Leaf {
                udf: Arc::new(OracleUdf::new("b")),
                cost: 2.0,
                name: None,
            },
            Node::Leaf {
                udf: Arc::new(OracleUdf::new("a")),
                cost: f64::INFINITY,
                name: None,
            },
            Node::Leaf {
                udf: Arc::new(OracleUdf::new("b")),
                cost: 1.0,
                name: None,
            },
        ];
        assert_eq!(
            cost_order(&parts),
            vec![3, 1, 0, 2],
            "finite ascending, then non-finite in original order"
        );
    }

    #[test]
    fn required_columns_deduplicate_in_first_seen_order() {
        // Regression: leaves sharing a column used to report it once per
        // leaf, so validators re-checked (and re-reported) duplicates.
        let expr = leaf("b").and(leaf("a")).and(leaf("b").not().or(leaf("c")));
        assert_eq!(BooleanUdf::required_columns(&expr), vec!["b", "a", "c"]);
        let single = leaf("x").and(leaf("x"));
        assert_eq!(BooleanUdf::required_columns(&single), vec!["x"]);
    }

    #[test]
    fn fingerprints_derive_and_poison() {
        let a = leaf("a");
        let b = leaf("b");
        let ab = a.clone().and(b.clone());
        let ba = b.clone().and(a.clone());
        assert!(ab.fingerprint().is_some());
        assert_ne!(ab.fingerprint(), ba.fingerprint(), "order is identity");
        assert_ne!(
            a.clone().and(b.clone()).fingerprint(),
            a.clone().or(b.clone()).fingerprint(),
            "operator is identity"
        );
        assert_ne!(a.clone().not().fingerprint(), a.fingerprint());
        assert_eq!(
            a.clone().not().not().fingerprint(),
            a.fingerprint(),
            "double negation cancels"
        );
        // Costs are not identity: reordering cannot change answers.
        assert_eq!(
            Pred::udf_with_cost(OracleUdf::new("a"), 5.0)
                .and(leaf("b"))
                .fingerprint(),
            ab.fingerprint()
        );
        struct Anon;
        impl BooleanUdf for Anon {
            fn evaluate(&self, _: &Table, _: usize) -> bool {
                true
            }
        }
        assert_eq!(leaf("a").and(Pred::udf(Anon)).fingerprint(), None);
    }

    #[test]
    fn an_expression_is_one_leaf_of_another() {
        // A conjunction wrapped as one leaf answers as its parts' AND,
        // and carries their order-sensitive identity and their columns.
        let a = [true, true, false, false];
        let b = [true, false, true, false];
        let t = table(&[("a", &a), ("b", &b)]);
        let nested = Pred::udf(leaf("a").and(leaf("b")));
        assert_eq!(nested.leaf_count(), 1);
        assert_eq!(nested.fingerprint(), leaf("a").and(leaf("b")).fingerprint());
        assert_ne!(
            nested.fingerprint(),
            Pred::udf(leaf("b").and(leaf("a"))).fingerprint()
        );
        let tracker = CostTracker::new();
        let answers =
            evaluate_all(&nested, &t, &tracker, &ExecContext::sequential()).expect("valid costs");
        assert_eq!(answers, [true, false, false, false]);
        for (row, &want) in answers.iter().enumerate() {
            assert_eq!(nested.evaluate(&t, row), want, "row {row}");
        }
        assert_eq!(BooleanUdf::required_columns(&nested), vec!["a", "b"]);
    }

    #[test]
    fn flattening_and_counts() {
        let e = leaf("a").and(leaf("b")).and(leaf("c").or(leaf("d")));
        assert_eq!(e.leaf_count(), 4);
        assert_eq!(e.cost(), 4.0);
        assert!(e.costs_valid());
        assert!(!e.is_pinned());
        assert!(!Pred::udf_with_cost(OracleUdf::new("a"), f64::NAN).costs_valid());
        assert!(!Pred::udf_with_cost(OracleUdf::new("a"), -1.0).costs_valid());
        let debug = format!("{e:?}");
        assert!(debug.starts_with("and("), "{debug}");
        assert!(debug.contains("or("), "{debug}");
    }

    #[test]
    fn render_requires_names_and_round_trips_structure() {
        // Combinator-built leaves carry no DSL name: nothing to render.
        assert_eq!(leaf("a").and(leaf("b")).render(), None);
        // Named leaves render with minimal parentheses.
        let named = |n: &str| leaf(n).with_leaf_name(n);
        let e = named("a")
            .and(named("b").or(named("c")).not())
            .or(named("d"));
        assert_eq!(e.render().as_deref(), Some("a and not (b or c) or d"));
        let flat = named("a").and(named("b")).and(named("c"));
        assert_eq!(flat.render().as_deref(), Some("a and b and c"));
    }

    #[test]
    fn session_cache_reuses_leaves_across_expressions() {
        let a = [true, false, true, false];
        let b = [true, true, false, false];
        let t = table(&[("a", &a), ("b", &b)]);
        let store = CacheStore::new();
        let ctx = ExecContext::sequential().with_cache(&store);

        let first = CostTracker::new();
        evaluate_all(&leaf("a").and(leaf("b")), &t, &first, &ctx).expect("valid costs");
        assert_eq!(first.snapshot().reuse_hits, 0, "cold session");

        // A *different* expression over the same leaves: every leaf probe
        // the conjunction already paid for arrives as reuse.
        let second = CostTracker::new();
        let answers =
            evaluate_all(&leaf("b").or(leaf("a").not()), &t, &second, &ctx).expect("valid costs");
        let want: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| y || !x).collect();
        assert_eq!(answers, want);
        let counts = second.snapshot();
        assert!(counts.reuse_hits > 0, "leaves must be shared: {counts:?}");
        // The AND evaluated `a` on all 4 rows and `b` on the 2 survivors;
        // the second expression demands b on 4 and a on the b-rejected 2.
        assert_eq!(counts.evaluated + counts.reuse_hits, 4 + 2);
    }

    #[test]
    fn backends_agree() {
        let n = 200;
        let a: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let b: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let c: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
        let t = table(&[("a", &a), ("b", &b), ("c", &c)]);
        let expr = leaf("a").and(leaf("b").or(leaf("c").not())).or(leaf("c"));
        let seq_tracker = CostTracker::new();
        let want =
            evaluate_all(&expr, &t, &seq_tracker, &ExecContext::sequential()).expect("valid costs");
        let par_tracker = CostTracker::new();
        let pool = expred_exec::WorkerPool::with_threads(4);
        let got =
            evaluate_all(&expr, &t, &par_tracker, &ExecContext::new(&pool)).expect("valid costs");
        assert_eq!(want, got);
        assert_eq!(seq_tracker.snapshot(), par_tracker.snapshot());
    }
}
