//! `expr_bench` — the selectivity-aware expression optimizer vs static
//! cost ordering, on skewed pypred-style workloads.
//!
//! ```text
//! cargo bench --bench expr_bench            # full run
//! cargo bench --bench expr_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Each scenario is a DSL string parsed with [`parse_predicate`] over
//! three bool columns with very different pass rates (`rare` ≈1%, `mid`
//! 50%, `common` 90%), written in the *pessimal* order so the static
//! stage order (equal declared costs ⇒ written order) pays full freight:
//!
//! * `and_skew` — `"common and rare"`: AND should probe the rare
//!   conjunct first.
//! * `or_skew` — `"rare or common"`: OR should probe the likely-accepting
//!   disjunct first.
//! * `dnf` — `"(common and rare) or (common and mid)"`: Kim-style
//!   factoring hoists the shared `common` conjunct, then the reorder
//!   pass runs the cheap disjunction first.
//!
//! `static_direct` is the baseline the one expression scan replaced:
//! [`evaluate_expr_batch`] called directly on the unrewritten tree
//! (cost-ordered stages) inside an engine's context. `learned` submits
//! [`QueryRequest::expr_scan`] against an engine whose selectivity
//! tracker the priming run has warmed. Between reps the engine's caches
//! are cleared — the tracker survives by design — so every rep pays
//! fresh evaluations in its order.
//!
//! `ns_per_probe` is measured wall time per row; `speedup_vs_baseline`
//! on the `learned` rows is the *bill* ratio (static fresh evaluations /
//! learned fresh evaluations) — the paper's cost metric, deterministic
//! and noise-free, which is what the optimizer actually promises.
//! Results land in `BENCH_expr.json`.

use expred_bench::{report::measure_ns_per_unit, BenchReport};
use expred_core::{QueryEngine, QueryRequest};
use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
use expred_table::{DataType, Field, Schema, Table, Value};
use expred_udf::{
    evaluate_expr_batch, parse_predicate, CostModel, CostTracker, OracleUdf, Pred, PredicateExpr,
};
use std::collections::HashMap;

/// Three bool columns with pass rates ≈1% (`rare`), 50% (`mid`), and
/// 90% (`common`); `rare` uses a period coprime to the others so every
/// pairwise overlap is non-degenerate.
fn workload_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("rare", DataType::Bool),
        Field::new("mid", DataType::Bool),
        Field::new("common", DataType::Bool),
    ]);
    let cells = (0..rows)
        .map(|i| {
            vec![
                Value::Bool(i % 97 == 0),
                Value::Bool(i % 2 == 0),
                Value::Bool(i % 10 != 0),
            ]
        })
        .collect();
    Table::from_rows(schema, cells).expect("schema matches rows")
}

fn registry() -> HashMap<String, PredicateExpr> {
    ["rare", "mid", "common"]
        .into_iter()
        .map(|col| (col.to_string(), Pred::udf(OracleUdf::new(col))))
        .collect()
}

fn main() {
    // `cargo test` probes bench binaries with --test; do nothing.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = if smoke { 2_048 } else { 30_000 };
    let reps = if smoke { 2 } else { 20 };

    let ds = Dataset {
        table: workload_table(rows),
        spec: DatasetSpec {
            name: "expr_workload",
            rows,
            ..PROSPER
        },
        seed: 0,
    };
    let registry = registry();
    let cost = CostModel::PAPER_DEFAULT;

    let mut report = BenchReport::new("expr");
    println!(
        "expr_bench ({} mode): learned selectivity ordering vs static cost order, {rows} rows",
        if smoke { "smoke" } else { "full" }
    );
    let mut warnings = 0usize;

    for (scenario, predicate) in [
        ("and_skew", "common and rare"),
        ("or_skew", "rare or common"),
        ("dnf", "(common and rare) or (common and mid)"),
    ] {
        let expr = parse_predicate(predicate, &registry).expect("workload predicate parses");

        // Static: every rep pays the written/cost order from scratch.
        let engine = QueryEngine::new();
        let all_rows: Vec<usize> = (0..rows).collect();
        let mut static_bill = 0u64;
        let static_ns = measure_ns_per_unit(rows as u64, reps, || {
            engine.clear_caches();
            let tracker = CostTracker::new();
            evaluate_expr_batch(&expr, &ds.table, &all_rows, &tracker, &engine.context())
                .expect("workload costs are valid");
            static_bill = tracker.snapshot().evaluated;
        });

        // Learned: the priming call inside the measurer warms the
        // tracker; every timed rep then re-optimizes against the
        // accumulated observations.
        let engine = QueryEngine::new();
        let request = QueryRequest::expr_scan(expr, cost);
        let mut learned_bill = 0u64;
        let learned_ns = measure_ns_per_unit(rows as u64, reps, || {
            engine.clear_caches();
            learned_bill = engine.submit(&ds, &request).unwrap().counts.evaluated;
        });

        let bill_speedup = static_bill as f64 / learned_bill as f64;
        report.record(scenario, "static_direct", static_ns, 1.0);
        report.record(scenario, "learned", learned_ns, bill_speedup);
        println!(
            "{scenario:<10} {predicate:<42} static {static_bill:>6} evals \
             ({static_ns:>7.1} ns/row) | learned {learned_bill:>6} evals \
             ({learned_ns:>7.1} ns/row) — {bill_speedup:.2}x cheaper",
        );
        if learned_bill > static_bill {
            println!(
                "WARNING: {scenario}: learned order billed more than static \
                 ({learned_bill} > {static_bill})"
            );
            warnings += 1;
        }
    }

    let path = report.write().expect("write BENCH_expr.json");
    println!("wrote {}", path.display());
    if warnings > 0 && !smoke {
        println!("{warnings} scenario(s) regressed; see WARNINGs above");
    }
}
