//! Concurrency suite: one `QueryEngine`, many worker threads.
//!
//! The engine's `&self + Sync` contract is only worth having if real
//! thread interleavings cannot corrupt answers or bills. Three invariants
//! are proven here, each against a serial reference run:
//!
//! * **Determinism** — every query served concurrently returns answers
//!   byte-identical to the serial, cache-less reference pipeline (for
//!   workloads whose demand stream is cache-independent, i.e. Naive).
//! * **Bill conservation** — across every interleaving, each query's
//!   `evaluated + cache_hits + reuse_hits` equals its cache-less demand,
//!   and the session total plus `result_hits`-implied savings exactly
//!   reconstructs the cache-less bill of the whole workload.
//! * **Zero stale answers** — result-memo hits only ever serve the exact
//!   identity they were stored under, and `clear_caches` racing in-flight
//!   runs never panics nor causes a wrong answer afterward.

use expred::core::{
    run_naive, IntelSampleConfig, PredictorChoice, QueryEngine, QueryRequest, QuerySpec, RunOutcome,
};
use expred::exec::ExecContext;
use expred::table::datasets::{Dataset, DatasetSpec, PROSPER};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Acceptance floor: the suite must hold at 8+ worker threads.
const THREADS: usize = 8;

fn prosper(seed: u64) -> Dataset {
    Dataset::generate(
        DatasetSpec {
            rows: 3_000,
            ..PROSPER
        },
        seed,
    )
}

fn intel() -> QueryRequest {
    QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
        "grade".into(),
    )))
}

fn naive(spec: QuerySpec, seed: u64) -> QueryRequest {
    QueryRequest::naive(spec).with_seed(seed)
}

/// This thread's slice of the overlapping workload: two accuracy
/// contracts, globally distinct seeds, all over one shared table — the
/// row sets overlap heavily (each Naive query touches a random ~80% of
/// rows) while every `(spec, seed)` identity stays unique.
fn thread_mix(thread: usize) -> Vec<(QuerySpec, u64)> {
    let a = QuerySpec::paper_default();
    let b = QuerySpec::new(0.7, 0.7, 0.8, a.cost);
    (0..8)
        .map(|i| {
            let spec = if i % 2 == 0 { a } else { b };
            (spec, (thread as u64) * 1_000 + i)
        })
        .collect()
}

#[test]
fn concurrent_mix_is_byte_identical_to_serial_reference_and_conserves_the_bill() {
    let ds = prosper(1);
    // Serial, cache-less reference: the pipeline function called
    // directly, one query at a time on this thread. Also yields each
    // query's cache-less bill.
    let references: Vec<Vec<(QuerySpec, u64, RunOutcome)>> = (0..THREADS)
        .map(|t| {
            thread_mix(t)
                .into_iter()
                .map(|(spec, seed)| {
                    (
                        spec,
                        seed,
                        run_naive(&ds, &spec, seed, &ExecContext::sequential()).unwrap(),
                    )
                })
                .collect()
        })
        .collect();
    let cacheless_bill: u64 = references
        .iter()
        .flatten()
        .map(|(_, _, out)| out.counts.demanded())
        .sum();

    let engine = QueryEngine::new();
    let outcomes: Vec<Vec<Arc<RunOutcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let ds = &ds;
                scope.spawn(move || {
                    thread_mix(t)
                        .into_iter()
                        .map(|(spec, seed)| engine.submit(ds, &naive(spec, seed)).unwrap())
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (thread_outs, thread_refs) in outcomes.iter().zip(&references) {
        for (out, (_, seed, reference)) in thread_outs.iter().zip(thread_refs) {
            assert_eq!(
                out.returned, reference.returned,
                "answers diverged from the serial reference (seed {seed})"
            );
            assert_eq!(out.summary, reference.summary);
            assert_eq!(
                out.counts.demanded(),
                reference.counts.demanded(),
                "a query's demand stream must not depend on interleaving"
            );
        }
    }

    // Exact conservation: no identity repeats, so the memo never fires,
    // and every demanded row across the session was charged exactly once
    // (fresh, memo hit, or cross-query reuse) — nothing more, nothing
    // lost, no matter the interleaving.
    let stats = engine.stats();
    assert_eq!(stats.queries, (THREADS * 8) as u64);
    assert_eq!(stats.result_hits, 0, "all identities are distinct");
    let session = engine.session_counts();
    assert_eq!(
        session.demanded(),
        cacheless_bill,
        "fresh o_e + memo hits + reuse must exactly conserve the cache-less bill"
    );
    assert!(
        session.reuse_hits > 0,
        "an overlapping concurrent workload must actually share rows"
    );
    assert!(session.evaluated < cacheless_bill, "sharing must save o_e");
}

#[test]
fn concurrent_identical_repeats_are_memoized_free_and_exactly_accounted() {
    let ds = prosper(2);
    let engine = QueryEngine::new();
    let query = intel().with_seed(42);
    // Warm the memo serially so every concurrent repeat is a guaranteed
    // hit (no cold race — that case is exercised by the clear test).
    let first = engine.submit(&ds, &query).unwrap();
    let warm_bill = first.counts.demanded();
    let after_warm = engine.session_counts();

    const REPEATS: usize = 8;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (engine, ds, query, first) = (&engine, &ds, &query, &first);
            scope.spawn(move || {
                for _ in 0..REPEATS {
                    let again = engine.submit(ds, query).unwrap();
                    assert_eq!(again.returned, first.returned);
                    assert_eq!(again.counts, first.counts);
                    assert_eq!(again.cost, first.cost);
                }
            });
        }
    });

    assert_eq!(
        engine.session_counts(),
        after_warm,
        "memoized repeats must charge nothing to the session"
    );
    let stats = engine.stats();
    let repeats = (THREADS * REPEATS) as u64;
    assert_eq!(stats.queries, 1 + repeats);
    assert_eq!(stats.result_hits, repeats);
    // Cost conservation with the memo in the ledger: the cache-less bill
    // of (1 + repeats) identical requests is (1 + repeats) * warm_bill;
    // the session paid warm_bill once and the memo absorbed the rest.
    assert_eq!(
        engine.session_counts().demanded() + stats.result_hits * warm_bill,
        (1 + repeats) * warm_bill,
    );
}

#[test]
fn stats_snapshots_stay_consistent_while_runs_are_in_flight() {
    let ds = prosper(3);
    let engine = QueryEngine::new();
    // Warm one identity so workers mix hits and misses.
    engine.submit(&ds, &intel().with_seed(7)).unwrap();
    // Count workers still running, so the reader keeps asserting until
    // the *last* one finishes (a single done flag would stop it at the
    // first, leaving most of the concurrent window unchecked).
    let remaining = AtomicUsize::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (engine, ds, remaining) = (&engine, &ds, &remaining);
            scope.spawn(move || {
                for i in 0..12u64 {
                    // Alternate memoized repeats with fresh identities.
                    let seed = if i % 2 == 0 {
                        7
                    } else {
                        100 + t as u64 * 50 + i
                    };
                    engine.submit(ds, &intel().with_seed(seed)).unwrap();
                }
                remaining.fetch_sub(1, Ordering::Release);
            });
        }
        // Reader thread: every snapshot, at any instant, must be
        // internally consistent — hits never outnumber queries.
        scope.spawn(|| {
            while remaining.load(Ordering::Acquire) > 0 {
                let s = engine.stats();
                assert!(
                    s.result_hits <= s.queries,
                    "inconsistent snapshot: {} hits > {} queries",
                    s.result_hits,
                    s.queries
                );
                std::hint::spin_loop();
            }
        });
    });
    let s = engine.stats();
    assert_eq!(s.queries, (THREADS * 12) as u64 + 1);
    assert!(s.result_hits >= (THREADS * 6) as u64);
}

#[test]
fn clear_caches_races_in_flight_runs_without_panics_or_stale_serves() {
    let ds = prosper(4);
    let engine = QueryEngine::new();
    let spec = QuerySpec::paper_default();
    // Serial references for every identity the workers will submit.
    let references: Vec<RunOutcome> = (0..4)
        .map(|s| run_naive(&ds, &spec, s, &ExecContext::sequential()).unwrap())
        .collect();

    // Count workers still running, so the clear hammer races the *whole*
    // concurrent window, not just until the fastest worker finishes.
    let remaining = AtomicUsize::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (engine, ds, references, remaining) = (&engine, &ds, &references, &remaining);
            scope.spawn(move || {
                for i in 0..16u64 {
                    let seed = (t as u64 + i) % 4;
                    let out = engine.submit(ds, &naive(spec, seed)).unwrap();
                    assert_eq!(
                        out.returned, references[seed as usize].returned,
                        "a clear racing this run changed its answer"
                    );
                }
                remaining.fetch_sub(1, Ordering::Release);
            });
        }
        scope.spawn(|| {
            // Hammer clears the whole time the workers run.
            while remaining.load(Ordering::Acquire) > 0 {
                engine.clear_caches();
                std::thread::yield_now();
            }
        });
    });

    // Quiescent semantics: after a clear with nothing in flight, a
    // previously memoized identity pays full price again — the clear
    // dropped it and nothing resurrects it.
    let before = engine.submit(&ds, &naive(spec, 99)).unwrap();
    engine.clear_caches();
    assert!(engine.store().is_empty(), "row tier must be empty at rest");
    let hits_before = engine.stats().result_hits;
    let again = engine.submit(&ds, &naive(spec, 99)).unwrap();
    assert_eq!(engine.stats().result_hits, hits_before, "no memo serve");
    assert_eq!(again.counts.evaluated, before.counts.demanded());
    assert_eq!(again.counts.reuse_hits, 0);
    assert_eq!(again.returned, before.returned);
}

#[test]
fn one_engine_is_shareable_from_owned_threads_via_arc() {
    // 'static sharing (the deployment shape: Arc<QueryEngine> in a server)
    // — scoped borrows above prove Sync; this proves Send + 'static.
    let ds = Arc::new(prosper(5));
    let engine = Arc::new(QueryEngine::new());
    let spec = QuerySpec::paper_default();
    let reference = run_naive(&ds, &spec, 1, &ExecContext::sequential()).unwrap();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (engine, ds) = (Arc::clone(&engine), Arc::clone(&ds));
            std::thread::spawn(move || engine.submit(&ds, &naive(spec, 1)).unwrap())
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap().returned, reference.returned);
    }
    assert_eq!(engine.stats().queries, THREADS as u64);
}
