//! Stress tests for `CacheStore` retention under concurrency.
//!
//! A namespace is one UDF over one table state, and it lives exactly as
//! long as some clone of that state does: a mutated table is a new table
//! with an owner of its own. These tests drive that rule with real thread
//! interleavings:
//!
//! * two diverged clones — two owners — racing never observe each
//!   other's answers and never trigger a single invalidation;
//! * a churn of many states stays bounded by the states still alive,
//!   and once the churn quiesces, alternating the survivors is free;
//! * a state's key borrowed again after its owner died starts empty;
//! * the liveness sweep, run by borrows of tables that die as fast as
//!   they are built, never drops a namespace of a live table that other
//!   threads are creating or borrowing meanwhile.

use expred_exec::{CacheNamespace, CacheStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

fn ns(table: u64) -> CacheNamespace {
    CacheNamespace { udf: 1, table }
}

/// An owner that lives for the whole process.
fn table() -> &'static Arc<()> {
    static OWNER: OnceLock<Arc<()>> = OnceLock::new();
    OWNER.get_or_init(|| Arc::new(()))
}

const THREADS: usize = 8;
const KEYS: usize = 2_000;

#[test]
fn diverged_clones_never_observe_each_other_and_never_thrash() {
    let store = CacheStore::new();
    // Two live states that were one table before they diverged: two ids,
    // two owners. Each state's answers encode which it is, so any
    // cross-serve is loud.
    let owners = [Arc::new(()), Arc::new(())];
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let (store, owner) = (&store, &owners[worker % 2]);
            let table = 10 + (worker % 2) as u64;
            scope.spawn(move || {
                let expected = table == 10;
                for key in 0..KEYS {
                    // Re-borrow regularly: the borrow path is exactly
                    // what is under test.
                    let handle = store.handle(ns(table), owner);
                    handle.insert(key, expected);
                    assert_eq!(
                        handle.get(key),
                        Some(expected),
                        "table {table} read another clone's answer for {key}"
                    );
                }
            });
        }
    });
    assert_eq!(
        store.stats().invalidated,
        0,
        "two alternating clones must never drop each other"
    );
    assert_eq!(store.num_namespaces(), 2);
    // Quiescent cross-check over the full key space.
    let left = store.handle(ns(10), &owners[0]);
    let right = store.handle(ns(11), &owners[1]);
    for key in 0..KEYS {
        assert_eq!(left.get(key), Some(true));
        assert_eq!(right.get(key), Some(false));
    }
}

#[test]
fn version_churn_stays_inside_the_retention_window() {
    // A table mutating rapidly while it is queried: every fifth round a
    // push makes a new state, and the thread lets go of the old one. The
    // window the store retains is the states still alive.
    const ROUNDS: usize = 500;
    const PUSH_EVERY: usize = 5;
    let store = CacheStore::new();
    let next_table = AtomicU64::new(100);
    let kept: Vec<(CacheNamespace, Arc<()>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (store, next_table) = (&store, &next_table);
                scope.spawn(move || {
                    let mut state = (ns(0), Arc::new(()));
                    for round in 0..ROUNDS {
                        if round % PUSH_EVERY == 0 {
                            let table = next_table.fetch_add(1, Ordering::Relaxed);
                            state = (ns(table), Arc::new(()));
                        }
                        let handle = store.handle(state.0, &state.1);
                        handle.insert(round, true);
                        assert_eq!(handle.get(round), Some(true));
                    }
                    state
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(
        store.num_namespaces(),
        THREADS,
        "churn left more than the live states"
    );
    assert_eq!(
        store.stats().invalidated,
        (THREADS * (ROUNDS - PUSH_EVERY)) as u64,
        "every superseded state's rows went"
    );

    // Once the churn quiesces, alternating two live states heavily — from
    // many threads — must not cost an invalidation.
    let invalidated_before = store.stats().invalidated;
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let kept = &kept;
            let store = &store;
            scope.spawn(move || {
                for _ in 0..500 {
                    let (a, a_owner) = &kept[worker % 2];
                    let (b, b_owner) = &kept[(worker + 1) % 2];
                    let a = store.handle(*a, a_owner);
                    let b = store.handle(*b, b_owner);
                    assert_ne!(a.namespace().table, b.namespace().table);
                }
            });
        }
    });
    assert_eq!(
        store.stats().invalidated,
        invalidated_before,
        "alternating two live states must be free"
    );
    for (namespace, owner) in &kept[..2] {
        assert_eq!(store.handle(*namespace, owner).get(ROUNDS - 1), Some(true));
    }
}

#[test]
fn stale_version_starts_empty_for_new_borrowers_after_gc() {
    let store = CacheStore::new();
    let state = Arc::new(());
    let stale = store.handle(ns(0), &state);
    stale.insert(7, true);
    // The state's last clone goes (dropped, or pushed to) and a sweep
    // drops its namespace…
    drop(state);
    assert_eq!(store.num_namespaces(), 0);
    // …so borrowing its key again yields a fresh namespace, never the old
    // answers, while the handle borrowed before keeps its own view.
    assert_eq!(store.handle(ns(0), table()).get(7), None);
    assert_eq!(stale.get(7), Some(true));
}

#[test]
fn sweeps_racing_live_borrows_never_drop_a_live_namespace() {
    const LIVE: u64 = 8;
    const ROUNDS: usize = 400;
    let store = CacheStore::new();
    let owners: Vec<Arc<()>> = (0..LIVE).map(|_| Arc::new(())).collect();
    let live = |table: u64| CacheNamespace {
        udf: 2,
        table: 100 + table,
    };
    let built = |worker: usize, round: usize| CacheNamespace {
        udf: 2,
        table: 10_000 + (worker * ROUNDS + round) as u64,
    };
    let kept: Vec<Vec<Arc<()>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|worker| {
                let (store, owners) = (&store, &owners);
                scope.spawn(move || {
                    let mut states = Vec::new();
                    for round in 0..ROUNDS {
                        let row = worker * ROUNDS + round;
                        if worker % 2 == 0 {
                            // A table built, asked about once, and dropped:
                            // every borrow adds a namespace, so sweeps come
                            // often.
                            let dead = Arc::new(());
                            let namespace = CacheNamespace {
                                udf: 2,
                                table: 1_000 + row as u64,
                            };
                            store.handle(namespace, &dead).insert(round, true);
                            drop(dead);
                            if round % 50 == 0 {
                                store.num_namespaces();
                            }
                            continue;
                        }
                        // A table built and kept alive, so its first borrow
                        // takes the write path beside the sweeps; and a
                        // long-lived table, borrowed on the read path.
                        let state = Arc::new(());
                        let table = (worker + round) as u64 % LIVE;
                        let owner = &owners[table as usize];
                        for (namespace, owner) in
                            [(built(worker, round), &state), (live(table), owner)]
                        {
                            store
                                .handle(namespace, owner)
                                .insert(row, row.is_multiple_of(3));
                            let again = store.handle(namespace, owner);
                            assert_eq!(
                                again.get(row),
                                Some(row.is_multiple_of(3)),
                                "{namespace:?} lost row {row} to a sweep"
                            );
                        }
                        states.push(state);
                    }
                    states
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let dead_rows = (THREADS / 2 * ROUNDS) as u64;
    assert_eq!(store.num_namespaces() as u64, LIVE + dead_rows);
    assert_eq!(
        store.stats().invalidated,
        dead_rows,
        "only dead tables' rows went"
    );
    for worker in (1..THREADS).step_by(2) {
        for (round, state) in kept[worker].iter().enumerate() {
            let table = (worker + round) as u64 % LIVE;
            let row = worker * ROUNDS + round;
            let built = store.handle(built(worker, round), state);
            let live = store.handle(live(table), &owners[table as usize]);
            assert_eq!(built.get(row), Some(row.is_multiple_of(3)));
            assert_eq!(live.get(row), Some(row.is_multiple_of(3)));
        }
    }
}
