//! Concurrent sessions: one engine, eight worker threads, one bill.
//!
//! ```text
//! cargo run --release --example run_concurrent [-- --pool]
//! ```
//!
//! `QueryEngine::submit` takes `&self` and the engine is `Sync`, so a
//! serving tier shares one engine — one executor, one row cache, one
//! result memo — across all of its worker threads directly. Three
//! serving shapes, one engine each:
//!
//! 1. **Scaling** — eight tenants querying their own tables (100µs
//!    simulated UDF): wall clock drops by roughly the thread count.
//! 2. **Conservation** — eight workers over one *shared* table with
//!    heavily overlapping queries: the session's total demand is
//!    identical to the serial run's, charge for charge; interleavings
//!    only shift rows between "fresh" and "reused" (threads racing on a
//!    cold row may both pay it before either can share).
//! 3. **Repeat storm** — identical requests from every worker are
//!    absorbed by the result memo for free.
//! 4. **Cold storm** — the identical *fresh* request from every worker
//!    at once: cold-race suppression elects one leader, everyone else
//!    joins its in-flight run, and the session is billed exactly once.

use expred::cli::{Backend, ExampleCli};
use expred::core::{QueryEngine, QueryRequest, QuerySpec};
use expred::table::datasets::{Dataset, DatasetSpec, PROSPER};
use std::time::{Duration, Instant};

const THREADS: usize = 8;

fn dataset(rows: usize, seed: u64) -> Dataset {
    Dataset::generate(DatasetSpec { rows, ..PROSPER }, seed)
}

fn main() {
    let backend = ExampleCli::new(
        "run_concurrent",
        "one Sync QueryEngine serving eight worker threads",
    )
    .parse_backend();
    println!("{}", backend.banner());
    let spec = QuerySpec::paper_default();
    let naive = |seed: u64| QueryRequest::naive(spec).with_seed(seed);

    // 1. Scaling: one tenant table per worker, 100µs per fresh o_e.
    let tenants: Vec<Dataset> = (0..THREADS as u64).map(|s| dataset(1_000, s)).collect();
    let serial_engine = backend
        .engine()
        .with_udf_latency(Duration::from_micros(100));
    let start = Instant::now();
    for ds in &tenants {
        serial_engine.submit(ds, &naive(7)).unwrap();
    }
    let serial = start.elapsed();
    let engine = backend
        .engine()
        .with_udf_latency(Duration::from_micros(100));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for ds in &tenants {
            let (engine, naive) = (&engine, &naive);
            scope.spawn(move || engine.submit(ds, &naive(7)).unwrap());
        }
    });
    let concurrent = start.elapsed();
    println!(
        "{THREADS} tenants x 1 naive query, 100µs UDF:\n  serial:    {serial:?}\n  \
         {THREADS} threads: {concurrent:?}  ({:.1}x)",
        serial.as_secs_f64() / concurrent.as_secs_f64()
    );
    assert_eq!(serial_engine.session_counts(), engine.session_counts());

    // 2. Conservation: overlapping queries over one shared table.
    let ds = dataset(2_000, 9);
    let mix: Vec<(QuerySpec, u64)> = (0..24u64)
        .map(|i| {
            let s = if i % 2 == 0 {
                spec
            } else {
                QuerySpec::new(0.7, 0.6, 0.8, spec.cost)
            };
            (s, i)
        })
        .collect();
    let serial_engine = backend.engine();
    for (s, seed) in &mix {
        serial_engine
            .submit(&ds, &QueryRequest::naive(*s).with_seed(*seed))
            .unwrap();
    }
    let engine = backend.engine();
    std::thread::scope(|scope| {
        for chunk in mix.chunks(mix.len().div_ceil(THREADS)) {
            let (engine, ds) = (&engine, &ds);
            scope.spawn(move || {
                for (s, seed) in chunk {
                    engine
                        .submit(ds, &QueryRequest::naive(*s).with_seed(*seed))
                        .unwrap();
                }
            });
        }
    });
    let serial_bill = serial_engine.session_counts();
    let concurrent_bill = engine.session_counts();
    println!("\n24 overlapping queries, one shared table:");
    println!("  serial bill:     {serial_bill}");
    println!("  concurrent bill: {concurrent_bill}");
    assert_eq!(
        serial_bill.demanded(),
        concurrent_bill.demanded(),
        "every demanded row is charged exactly once, whatever the interleaving"
    );
    println!(
        "  demanded either way: {} (interleaving only moves rows between \
         fresh and reused)",
        serial_bill.demanded()
    );

    // 3. A storm of identical repeats: the result memo absorbs all of it.
    let before = engine.session_counts();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (engine, ds, naive) = (&engine, &ds, &naive);
            scope.spawn(move || {
                for _ in 0..100 {
                    engine.submit(ds, &naive(0)).unwrap();
                }
            });
        }
    });
    assert_eq!(engine.session_counts(), before, "repeats must be free");
    let stats = engine.stats();
    println!(
        "\nrepeat storm: {} queries served, {} result-memo hits, zero new o_e",
        stats.queries, stats.result_hits
    );

    // 4. A *cold* identical storm: nothing is memoized yet, every thread
    // submits the same fresh request at once. Cold-race suppression makes
    // one thread the leader; the rest park on the in-flight waiter table
    // and share its outcome — the session bills exactly one run.
    let ds = dataset(2_000, 77);
    let storm_engine = match backend {
        // Default run: show the serving configuration (worker pool).
        Backend::Sequential => QueryEngine::pooled(),
        other => other.engine(),
    }
    .with_udf_latency(Duration::from_micros(100));
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (engine, ds, barrier, naive) = (&storm_engine, &ds, &barrier, &naive);
            scope.spawn(move || {
                barrier.wait();
                engine.submit(ds, &naive(123)).unwrap();
            });
        }
    });
    let stats = storm_engine.stats();
    println!(
        "\ncold identical storm ({THREADS} threads): {} queries, {} joined the \
         in-flight leader, {} memo hits; session billed {} fresh o_e (one run's worth)",
        stats.queries,
        stats.dedup_joins,
        stats.result_hits,
        storm_engine.session_counts().evaluated
    );
}
