//! Property tests for the predicate DSL and the expression optimizer.
//!
//! Three contracts, each over randomly generated expressions:
//!
//! * **Round trip**: `parse(render(e))` under the same registry preserves
//!   the expression's fingerprint, its static cost, and its answers —
//!   the DSL is a faithful wire format for every expression it can name.
//! * **Equivalence**: `optimize_expr` never changes answers, cold (no
//!   observations, 0.5 prior) or warm (exact observed pass rates).
//! * **Bill**: on columns that are *exactly independent by construction*
//!   (mixed-radix digits), the learned ordering of a flat `AND`/`OR`
//!   with equal leaf costs never bills more fresh evaluations than the
//!   static written order — ascending rank is provably optimal there.

use expred_exec::{CacheStore, ExecContext};
use expred_table::{DataType, Field, RowSet, Schema, Table, Value};
use expred_udf::{
    evaluate_expr, optimize_expr, parse_predicate, CostTracker, OracleRegistry, PredicateExpr,
};
use proptest::prelude::*;

/// Deterministic xorshift64* generator: the shim has no recursive
/// strategy combinators, so expression shapes derive from one seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const COLS: [&str; 4] = ["d0", "d1", "d2", "d3"];

/// 256 rows over four bool columns where column `j` is a function of
/// base-4 digit `j` of the row index: alive-set counts factor *exactly*
/// (true independence in realized counts, not just expectation), with
/// skew set by per-column thresholds in `1..=3` (pass rates 25/50/75%).
fn mixed_radix_table(thresh: &[u64; 4]) -> Table {
    let schema = Schema::new(
        COLS.iter()
            .map(|c| Field::new(*c, DataType::Bool))
            .collect(),
    );
    let rows = (0..256u64)
        .map(|i| {
            (0..4)
                .map(|j| Value::Bool((i >> (2 * j)) & 3 < thresh[j]))
                .collect()
        })
        .collect();
    Table::from_rows(schema, rows).unwrap()
}

fn random_thresholds(rng: &mut Rng) -> [u64; 4] {
    [0; 4].map(|_| 1 + rng.below(3))
}

fn leaf(name: &str, reg: &OracleRegistry) -> PredicateExpr {
    parse_predicate(name, reg).expect("a bare name parses to a named leaf")
}

/// A registry giving each column a distinct finite cost, so round trips
/// must preserve costs too, not just structure.
fn costed_registry(rng: &mut Rng) -> OracleRegistry {
    let mut reg = OracleRegistry::new();
    for col in COLS {
        reg = reg.with_cost(col, [0.5, 1.0, 2.0, 4.0][rng.below(4) as usize]);
    }
    reg
}

/// Random expression over the registry's leaves. `Pred::not` cancels
/// double negation itself, so any generated shape renders to a string
/// that parses back to the identical structure.
fn gen_expr(rng: &mut Rng, reg: &OracleRegistry, depth: u32) -> PredicateExpr {
    let choice = if depth == 0 { 0 } else { rng.below(4) };
    match choice {
        0 => leaf(COLS[rng.below(4) as usize], reg),
        1 => gen_expr(rng, reg, depth - 1).not(),
        op => {
            let mut e = gen_expr(rng, reg, depth - 1);
            for _ in 0..1 + rng.below(2) {
                let child = gen_expr(rng, reg, depth - 1);
                e = if op == 2 { e.and(child) } else { e.or(child) };
            }
            e
        }
    }
}

/// Teaches `store` every column's exact pass rate.
fn observe(store: &CacheStore, t: &Table, reg: &OracleRegistry) {
    let ctx = ExecContext::sequential().with_cache(store);
    let rows = RowSet::full(t.num_rows());
    for col in COLS {
        evaluate_expr(&leaf(col, reg), t, &rows, &CostTracker::new(), &ctx).unwrap();
    }
}

fn answers(expr: &PredicateExpr, t: &Table) -> (RowSet, u64) {
    let rows = RowSet::full(t.num_rows());
    let costs = CostTracker::new();
    let got = evaluate_expr(expr, t, &rows, &costs, &ExecContext::sequential()).unwrap();
    (got, costs.snapshot().evaluated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_render_round_trip_preserves_identity_and_answers(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let reg = costed_registry(&mut rng);
        let expr = gen_expr(&mut rng, &reg, 3);

        let rendered = expr.render().expect("registry leaves are all named");
        let reparsed = match parse_predicate(&rendered, &reg) {
            Ok(e) => e,
            Err(e) => panic!("render produced an unparseable string {rendered:?}: {e}"),
        };
        prop_assert_eq!(
            expr.fingerprint(), reparsed.fingerprint(),
            "fingerprint drifted through {:?}", rendered
        );
        prop_assert_eq!(expr.cost(), reparsed.cost(), "costs drifted through {:?}", rendered);
        // Rendering is a fixed point: the reparsed tree prints the same.
        let rerendered = reparsed.render();
        prop_assert_eq!(rerendered.as_deref(), Some(rendered.as_str()));

        let t = mixed_radix_table(&random_thresholds(&mut rng));
        prop_assert_eq!(answers(&expr, &t).0, answers(&reparsed, &t).0);
    }

    #[test]
    fn optimizer_preserves_answers_on_arbitrary_expressions(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let reg = costed_registry(&mut rng);
        let expr = gen_expr(&mut rng, &reg, 3);
        let t = mixed_radix_table(&random_thresholds(&mut rng));
        let baseline = answers(&expr, &t).0;

        // Cold: dedup + factoring + prior-ranked reordering.
        let cold = optimize_expr(&expr, &t, None);
        prop_assert!(cold.is_pinned());
        prop_assert_eq!(&answers(&cold, &t).0, &baseline, "cold rewrite changed answers");

        // Warm: exact observed pass rates drive the ordering.
        let store = CacheStore::new();
        observe(&store, &t, &reg);
        let warm = optimize_expr(&expr, &t, Some(&store));
        prop_assert_eq!(&answers(&warm, &t).0, &baseline, "warm rewrite changed answers");
    }

    #[test]
    fn learned_ordering_never_loses_on_independent_columns(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        // Equal declared costs: the static stage order is the written
        // order, so the learned ordering competes on selectivity alone.
        let reg = OracleRegistry::new();
        let thresh = random_thresholds(&mut rng);
        let t = mixed_radix_table(&thresh);

        // A flat AND (or OR) over a random permutation of 2..=4
        // distinct columns.
        let mut order: Vec<&str> = COLS.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order.truncate(2 + rng.below(3) as usize);
        let is_and = rng.below(2) == 0;
        let mut expr = leaf(order[0], &reg);
        for col in &order[1..] {
            let child = leaf(col, &reg);
            expr = if is_and { expr.and(child) } else { expr.or(child) };
        }

        let store = CacheStore::new();
        observe(&store, &t, &reg);
        let optimized = optimize_expr(&expr, &t, Some(&store));

        let (static_answers, static_bill) = answers(&expr, &t);
        let (learned_answers, learned_bill) = answers(&optimized, &t);
        prop_assert_eq!(static_answers, learned_answers);
        prop_assert!(
            learned_bill <= static_bill,
            "learned order billed {} > static {} on {:?} (thresholds {:?}, and={})",
            learned_bill, static_bill, order, thresh, is_and
        );
    }
}
