//! Concurrent-engine benchmarks: one shared `QueryEngine`, many threads.
//!
//! ```text
//! cargo bench --bench concurrent_engine_bench            # full run
//! cargo bench --bench concurrent_engine_bench -- --smoke # CI proof
//! ```
//!
//! Three serving shapes (→ `BENCH_concurrent_engine.json`):
//!
//! * `tenant_scaling_100us` — a 100µs-UDF workload (eight tenants, each
//!   querying its own table) through one shared engine, single-threaded
//!   vs 8 worker threads; the multi-thread run must win by ≥2x
//!   wall-clock (asserted in full mode). Disjoint tables isolate
//!   *engine* scalability: any shared-state contention (store borrow
//!   path, result memo, stats) shows up directly as lost speedup.
//! * `memoized_repeats` — warmed identities (one per thread) hammered
//!   from 1 vs 8 threads. The hit path holds no exclusive lock, so
//!   aggregate hit throughput under 8-way contention stays in the same
//!   band as single-threaded instead of collapsing.
//! * `dropped_tables` — a server's table churn: one engine asks about
//!   many tables once each and drops them. `namespaces_left` counts what
//!   the row tier still holds afterwards (the live tables' namespaces
//!   only: none), and `ns_per_borrow` times a row-tier borrow of a table
//!   that dies right after, sweeps included; the run prints its first
//!   and last quarter apart, which read alike when the sweep is O(1)
//!   per borrow.

use expred_bench::{report::measure_ns_per_unit, BenchReport};
use expred_core::engine::QueryEngine;
use expred_core::{IntelSampleConfig, PredictorChoice, QueryRequest, QuerySpec};
use expred_exec::{CacheNamespace, CacheStore};
use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const UDF_LATENCY: Duration = Duration::from_micros(100);
const THREADS: usize = 8;

fn tenant_datasets(rows: usize) -> Vec<Dataset> {
    (0..THREADS as u64)
        .map(|seed| Dataset::generate(DatasetSpec { rows, ..PROSPER }, seed))
        .collect()
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = BenchReport::new("concurrent_engine");
    println!(
        "concurrent_engine_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    // Eight tenants' naive queries through one engine: serial loop vs
    // one worker thread per tenant.
    let datasets = tenant_datasets(if smoke { 300 } else { 1_000 });
    let spec = QuerySpec::paper_default();
    let probes: u64 = datasets
        .iter()
        .map(|ds| (spec.beta * ds.table.num_rows() as f64).ceil() as u64)
        .sum();

    // One request, built outside every timed region.
    let naive = QueryRequest::naive(spec).with_seed(7);
    let serial_engine = QueryEngine::new().with_udf_latency(UDF_LATENCY);
    let start = Instant::now();
    for ds in &datasets {
        black_box(serial_engine.submit(ds, &naive).expect("serial submit"));
    }
    let serial = start.elapsed().as_secs_f64();

    let engine = QueryEngine::new().with_udf_latency(UDF_LATENCY);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for ds in &datasets {
            let (engine, naive) = (&engine, &naive);
            scope.spawn(move || black_box(engine.submit(ds, naive).expect("concurrent submit")));
        }
    });
    let concurrent = start.elapsed().as_secs_f64();

    let speedup = serial / concurrent;
    let per_probe = |secs: f64| secs * 1e9 / probes as f64;
    report.record(
        "tenant_scaling_100us",
        "one_thread",
        "ns_per_probe",
        "ns",
        per_probe(serial),
        1.0,
    );
    report.record(
        "tenant_scaling_100us",
        "eight_threads",
        "ns_per_probe",
        "ns",
        per_probe(concurrent),
        speedup,
    );
    println!(
        "tenant_scaling_100us: serial {serial:.3}s, {THREADS} threads {concurrent:.3}s \
         -> {speedup:.1}x"
    );
    assert_eq!(serial_engine.session_counts(), engine.session_counts());
    assert!(
        smoke || speedup >= 2.0,
        "shared engine must scale on a {}µs UDF workload: got {speedup:.2}x",
        UDF_LATENCY.as_micros()
    );

    // Result-memo hit throughput, 1 thread vs 8 threads, per total hits.
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 2_000,
            ..PROSPER
        },
        3,
    );
    let engine = QueryEngine::new();
    // Eight warmed identities — each "user" repeats their own request,
    // so concurrent hits spread across memo stripes instead of fighting
    // over one entry's lock and cache line.
    let requests: Vec<QueryRequest> = (0..THREADS as u64)
        .map(|t| QueryRequest::naive(spec).with_seed(7 + t))
        .collect();
    for req in &requests {
        engine.submit(&ds, req).expect("warm identity");
    }

    // Enough hits per iteration that thread spawn cost amortizes away.
    let hits: usize = if smoke { 512 } else { 4_096 };
    let reps = if smoke { 3 } else { 10 };
    let one_ns = measure_ns_per_unit(hits as u64, reps, || {
        for i in 0..hits {
            let req = &requests[i % requests.len()];
            black_box(engine.submit(&ds, req).expect("memo hit"));
        }
    });
    let eight_ns = measure_ns_per_unit(hits as u64, reps, || {
        std::thread::scope(|scope| {
            for req in &requests {
                let (engine, ds) = (&engine, &ds);
                scope.spawn(move || {
                    for _ in 0..hits / THREADS {
                        black_box(engine.submit(ds, req).expect("memo hit"));
                    }
                });
            }
        })
    });
    report.record(
        "memoized_repeats",
        "one_thread",
        "ns_per_hit",
        "ns",
        one_ns,
        1.0,
    );
    report.record(
        "memoized_repeats",
        "eight_threads",
        "ns_per_hit",
        "ns",
        eight_ns,
        one_ns / eight_ns,
    );
    println!(
        "memoized_repeats: one_thread {one_ns:>8.0} ns/hit | eight_threads {eight_ns:>8.0} \
         ns/hit ({:.2}x)",
        one_ns / eight_ns
    );

    dropped_tables(&mut report, smoke);

    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}

/// Table churn through one engine, then through the row tier alone.
fn dropped_tables(report: &mut BenchReport, smoke: bool) {
    let tables: u64 = if smoke { 200 } else { 2_000 };
    let intel = QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
        "grade".into(),
    )));
    let engine = QueryEngine::new();
    for seed in 0..tables {
        let ds = Dataset::generate(
            DatasetSpec {
                rows: 2_000,
                ..PROSPER
            },
            seed,
        );
        black_box(
            engine
                .submit(&ds, &intel.clone().with_seed(seed))
                .expect("submit"),
        );
    }
    let left = engine.store().num_namespaces();
    report.record(
        "dropped_tables",
        "one_thread",
        "namespaces_left",
        "count",
        left as f64,
        1.0,
    );

    // Every borrow names a table nothing else holds, so each one adds a
    // pair that is dead by the next borrow.
    let borrows: u64 = if smoke { 100_000 } else { 1_000_000 };
    let store = CacheStore::new();
    let mut quarters = Vec::new();
    let start = Instant::now();
    for quarter in 0..4 {
        let begin = Instant::now();
        for i in quarter * borrows / 4..(quarter + 1) * borrows / 4 {
            let owner = Arc::new(());
            let namespace = CacheNamespace { udf: 1, table: i };
            black_box(store.handle(namespace, &owner));
        }
        quarters.push(begin.elapsed().as_nanos() as f64 / (borrows / 4) as f64);
    }
    let per_borrow = start.elapsed().as_nanos() as f64 / borrows as f64;
    report.record(
        "dropped_tables",
        "one_thread",
        "ns_per_borrow",
        "ns",
        per_borrow,
        1.0,
    );
    println!(
        "dropped_tables: {tables} tables -> {left} namespaces left | {per_borrow:.0} ns/borrow \
         (first quarter {:.0}, last {:.0})",
        quarters[0], quarters[3]
    );
}
