//! Probabilistic-executor throughput: tuples processed per second for
//! deterministic and fractional plans, with and without memoized samples.
//!
//! ```text
//! cargo bench --bench executor_bench            # full run
//! cargo bench --bench executor_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Results land in `BENCH_executor.json`: one `execute_plan_<plan>` row
//! per plan shape (ns per table row, sequential backend, free oracle
//! probes — this measures the executor's own bookkeeping, not UDF cost),
//! plus the read path over a warm session, where every row is a store
//! hit promoted into the query's memo: `memoized_scan_warm` (a fresh
//! query asking, in one word-major pass over the grouping, which rows
//! are already decided and which passed), `execute_plan_warm` (a fresh query
//! executing a plan over it: the answer is the reused positives, read
//! out of one plane), `evaluate_batch_warm` (the same rows demanded as
//! one batch) and `expr_scan_warm` (an `ExprScan` of `not udf_label`:
//! one plane read of the leaf, then plane algebra). `group_scan_partial`
//! is the sampling tally over a session holding 80 % of the rows — the
//! shape a warm `novel_queries` request reads — so the pass pays a store
//! miss per fifth row as well as the promotions. `fresh_commit` is the
//! write path: `evaluate_batch` over a cold namespace — every row probed,
//! memoized and committed to the session store — with no spill sink and
//! with one that takes the offers.

use expred_bench::{report::measure_ns_per_unit, BenchReport};
use expred_core::execute::execute_plan;
use expred_core::plan::Plan;
use expred_core::sampling::{sample_groups, SampleSizeRule};
use expred_core::strategy::{ExprScan, Strategy};
use expred_exec::{CacheNamespace, CacheStore, ExecContext, Sequential, SpillSink};
use expred_stats::rng::Prng;
use expred_stats::PagePlanes;
use expred_table::datasets::{Dataset, DatasetSpec, LABEL_COLUMN, LENDING_CLUB};
use expred_udf::{parse_predicate, CostModel, OracleRegistry, OracleUdf, UdfInvoker};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A sink that takes every offer and keeps a count: the offer path's own
/// cost, without a disk behind it.
#[derive(Debug, Default)]
struct CountingSink(AtomicU64);

impl SpillSink for CountingSink {
    fn spill(&self, _: CacheNamespace, pages: &[(usize, PagePlanes)]) {
        let rows: usize = pages.iter().map(|(_, planes)| planes.len()).sum();
        self.0.fetch_add(rows as u64, Ordering::Relaxed);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = BenchReport::new("executor");
    println!(
        "executor_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let rows = if smoke { 10_000 } else { 50_000 };
    let ds = Dataset::generate(
        DatasetSpec {
            rows,
            ..LENDING_CLUB
        },
        3,
    );
    let groups = ds.table.group_by("grade").unwrap();
    let k = groups.num_groups();
    let udf = OracleUdf::new(LABEL_COLUMN);
    let reps = if smoke { 3 } else { 20 };

    let plans = [
        ("evaluate_all", Plan::evaluate_all(k)),
        ("discard_all", Plan::discard_all(k)),
        ("fractional", Plan::new(vec![0.7; k], vec![0.35; k])),
    ];
    for (name, plan) in &plans {
        let mut seed = 0u64;
        let ns = measure_ns_per_unit(rows as u64, reps, || {
            seed += 1;
            // Fresh invoker per iteration so memoization does not warp
            // the measurement.
            let invoker = UdfInvoker::new(&udf, &ds.table);
            let mut rng = Prng::seeded(seed);
            black_box(execute_plan(
                plan,
                &groups,
                &invoker,
                &mut rng,
                &ExecContext::sequential(),
            ))
            .unwrap();
        });
        let scenario = format!("execute_plan_{name}");
        report.record(&scenario, "sequential", ns, 1.0);
        println!("{scenario:<30} {ns:>8.1} ns/row");
    }

    // With a warm memo covering 10% of rows (the sampling-reuse path).
    let plan = Plan::new(vec![0.7; k], vec![0.35; k]);
    let mut seed = 0u64;
    let ns = measure_ns_per_unit(rows as u64, reps, || {
        seed += 1;
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let mut rng = Prng::seeded(seed);
        for r in 0..rows / 10 {
            invoker.retrieve_and_evaluate(r * 10);
        }
        black_box(execute_plan(
            &plan,
            &groups,
            &invoker,
            &mut rng,
            &ExecContext::sequential(),
        ))
        .unwrap();
    });
    let scenario = "execute_plan_fractional_with_memo";
    report.record(scenario, "sequential", ns, 1.0);
    println!("{scenario:<30} {ns:>8.1} ns/row");

    // The read path over a session that already paid for every row.
    let store = CacheStore::new();
    let ctx = ExecContext::sequential().with_cache(&store);
    let all_rows: Vec<usize> = (0..rows).collect();
    UdfInvoker::with_context(&udf, &ds.table, &ctx).evaluate_batch(&Sequential, &all_rows);
    let ns = measure_ns_per_unit(rows as u64, reps, || {
        let invoker = UdfInvoker::with_context(&udf, &ds.table, &ctx);
        let (_, passed) = invoker.scan_groups(&groups);
        black_box(passed.len());
        assert_eq!(invoker.counts().reuse_hits, rows as u64);
    });
    report.record("memoized_scan_warm", "sequential", ns, 1.0);
    println!("{:<30} {ns:>8.1} ns/row", "memoized_scan_warm");
    let mut seed = 0u64;
    let ns = measure_ns_per_unit(rows as u64, reps, || {
        seed += 1;
        let invoker = UdfInvoker::with_context(&udf, &ds.table, &ctx);
        let mut rng = Prng::seeded(seed);
        black_box(execute_plan(&plan, &groups, &invoker, &mut rng, &ctx)).unwrap();
        assert_eq!(invoker.counts().reuse_hits, rows as u64);
    });
    report.record("execute_plan_warm", "sequential", ns, 1.0);
    println!("{:<30} {ns:>8.1} ns/row", "execute_plan_warm");
    let ns = measure_ns_per_unit(rows as u64, reps, || {
        let invoker = UdfInvoker::with_context(&udf, &ds.table, &ctx);
        black_box(invoker.evaluate_batch(&Sequential, &all_rows));
        assert_eq!(invoker.counts().reuse_hits, rows as u64);
    });
    report.record("evaluate_batch_warm", "sequential", ns, 1.0);
    println!("{:<30} {ns:>8.1} ns/row", "evaluate_batch_warm");
    let not_label = parse_predicate(&format!("not {LABEL_COLUMN}"), &OracleRegistry::new())
        .expect("the label parses");
    let scan = ExprScan::new(not_label, CostModel::PAPER_DEFAULT);
    let ns = measure_ns_per_unit(rows as u64, reps, || {
        let outcome = scan.execute(&ds, 0, &ctx).expect("a valid scan");
        assert_eq!(outcome.counts.reuse_hits, rows as u64);
        black_box(outcome);
    });
    report.record_metric("expr_scan_warm", "sequential", "ns_per_row", "ns", ns);
    println!("{:<30} {ns:>8.1} ns/row", "expr_scan_warm");

    // The sampling tally over a session that holds four rows in five.
    let store = CacheStore::new();
    let ctx = ExecContext::sequential().with_cache(&store);
    let warm: Vec<usize> = (0..rows).filter(|row| row % 5 != 0).collect();
    UdfInvoker::with_context(&udf, &ds.table, &ctx).evaluate_batch(&Sequential, &warm);
    let ns = measure_ns_per_unit(rows as u64, reps, || {
        let invoker = UdfInvoker::with_context(&udf, &ds.table, &ctx);
        let mut rng = Prng::seeded(1);
        let tally = SampleSizeRule::Constant(0);
        black_box(sample_groups(&groups, &invoker, tally, &mut rng, &ctx));
        assert_eq!(invoker.counts().reuse_hits, warm.len() as u64);
    });
    report.record_metric("group_scan_partial", "sequential", "ns_per_row", "ns", ns);
    println!("{:<30} {ns:>8.1} ns/row", "group_scan_partial");

    // The write path: a cold namespace every repetition.
    for (backend, sink) in [
        ("no_sink", None),
        ("counting_sink", Some(Arc::new(CountingSink::default()))),
    ] {
        let ns = measure_ns_per_unit(rows as u64, reps, || {
            let store = CacheStore::new();
            store.set_spill(sink.clone().map(|sink| sink as Arc<dyn SpillSink>));
            let ctx = ExecContext::sequential().with_cache(&store);
            let invoker = UdfInvoker::with_context(&udf, &ds.table, &ctx);
            black_box(invoker.evaluate_batch(&Sequential, &all_rows));
            assert_eq!(store.stats().insertions, rows as u64);
        });
        if let Some(sink) = sink {
            let offered = sink.0.load(Ordering::Relaxed);
            assert_eq!(offered, (reps as u64 + 1) * rows as u64);
        }
        report.record_metric("fresh_commit", backend, "ns_per_row", "ns", ns);
        println!("{:<30} {ns:>8.1} ns/row ({backend})", "fresh_commit");
    }

    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
