//! Stress tests for `CacheStore` version retention under concurrency.
//!
//! The store keeps the [`MAX_LIVE_VERSIONS`] most recently borrowed
//! versions of each `(udf, table)` pair so diverged table clones can be
//! queried alternately without thrashing each other's namespaces. These
//! tests drive that window with real thread interleavings:
//!
//! * two clones diverging concurrently never observe each other's
//!   answers and never trigger a single invalidation;
//! * a churn of many versions stays bounded by the window, and once the
//!   churn quiesces, alternating the surviving versions is free again;
//! * the liveness sweep, run by borrows of tables that die as fast as
//!   they are built, never drops a namespace of a live table that other
//!   threads are borrowing meanwhile.

use expred_exec::{CacheNamespace, CacheStore, MAX_LIVE_VERSIONS};
use std::sync::{Arc, OnceLock};

fn ns(version: u64) -> CacheNamespace {
    CacheNamespace {
        udf: 1,
        table: 5,
        version,
    }
}

/// The owner of table 5, which lives for the whole process.
fn table() -> &'static Arc<()> {
    static OWNER: OnceLock<Arc<()>> = OnceLock::new();
    OWNER.get_or_init(|| Arc::new(()))
}

const THREADS: usize = 8;
const KEYS: usize = 2_000;

#[test]
fn diverged_clones_never_observe_each_other_and_never_thrash() {
    let store = CacheStore::new();
    // Two live versions of one (udf, table) pair — diverged clones. Each
    // version's answers encode the version, so any cross-serve is loud.
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let store = &store;
            let version = 10 + (worker % 2) as u64;
            scope.spawn(move || {
                let expected = version == 10;
                for key in 0..KEYS {
                    // Re-borrow regularly: the borrow path (and its
                    // recency upkeep) is exactly what is under test.
                    let handle = store.handle(ns(version), table());
                    handle.insert(key, expected);
                    assert_eq!(
                        handle.get(key),
                        Some(expected),
                        "version {version} read another clone's answer for {key}"
                    );
                }
            });
        }
    });
    assert_eq!(
        store.stats().invalidated,
        0,
        "two alternating clones must never GC each other"
    );
    assert_eq!(store.num_namespaces(), 2);
    // Quiescent cross-check over the full key space.
    let v10 = store.handle(ns(10), table());
    let v11 = store.handle(ns(11), table());
    for key in 0..KEYS {
        assert_eq!(v10.get(key), Some(true));
        assert_eq!(v11.get(key), Some(false));
    }
}

#[test]
fn version_churn_stays_inside_the_retention_window() {
    let store = CacheStore::new();
    // Many threads race borrows across many distinct versions — a table
    // mutating rapidly while clones are still being queried.
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                for round in 0..500u64 {
                    let version = (worker as u64 + round) % 20;
                    let handle = store.handle(ns(version), table());
                    handle.insert(round as usize, true);
                    // A handle's own view survives even if its namespace
                    // is concurrently GCed out of the window.
                    assert_eq!(handle.get(round as usize), Some(true));
                }
            });
        }
    });
    assert!(
        store.num_namespaces() <= MAX_LIVE_VERSIONS,
        "churn left {} namespaces live (window is {})",
        store.num_namespaces(),
        MAX_LIVE_VERSIONS
    );
    assert!(store.stats().invalidated > 0, "churn must have GCed");

    // Once the churn quiesces, settle on two versions; alternating them
    // heavily — from many threads — must not cost another invalidation.
    store.handle(ns(100), table()).insert(1, true);
    store.handle(ns(101), table()).insert(2, false);
    let invalidated_before = store.stats().invalidated;
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                for _ in 0..500 {
                    let a = store.handle(ns(100 + (worker % 2) as u64), table());
                    let b = store.handle(ns(100 + ((worker + 1) % 2) as u64), table());
                    assert_eq!(a.namespace().table, b.namespace().table);
                }
            });
        }
    });
    assert_eq!(
        store.stats().invalidated,
        invalidated_before,
        "alternating the two live versions must be free"
    );
    assert_eq!(store.handle(ns(100), table()).get(1), Some(true));
    assert_eq!(store.handle(ns(101), table()).get(2), Some(false));
}

#[test]
fn stale_version_starts_empty_for_new_borrowers_after_gc() {
    let store = CacheStore::new();
    store.handle(ns(0), table()).insert(7, true);
    // Push version 0 out of the window…
    store.handle(ns(1), table());
    store.handle(ns(2), table());
    // …then re-borrowing it must yield a fresh namespace, never the old
    // answers (zero-stale guarantee even across the GC boundary).
    assert_eq!(store.handle(ns(0), table()).get(7), None);
}

#[test]
fn sweeps_racing_live_borrows_never_drop_a_live_namespace() {
    const LIVE: u64 = 8;
    const ROUNDS: usize = 400;
    let store = CacheStore::new();
    let owners: Vec<Arc<()>> = (0..LIVE).map(|_| Arc::new(())).collect();
    let live = |table: u64, version: u64| CacheNamespace {
        udf: 2,
        table: 100 + table,
        version,
    };
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let (store, owners) = (&store, &owners);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    if worker % 2 == 0 {
                        // A table built, asked about once, and dropped:
                        // every borrow adds a pair, so sweeps come often.
                        let dead = Arc::new(());
                        let table = 1_000 + (worker * ROUNDS + round) as u64;
                        let namespace = CacheNamespace {
                            udf: 2,
                            table,
                            version: 0,
                        };
                        store.handle(namespace, &dead).insert(round, true);
                        drop(dead);
                        if round % 50 == 0 {
                            store.num_namespaces();
                        }
                        continue;
                    }
                    // A live table, in two versions that take turns, so
                    // borrows take the write path beside the sweeps.
                    let table = (worker + round) as u64 % LIVE;
                    let namespace = live(table, (round as u64 / LIVE) % 2);
                    let row = worker * ROUNDS + round;
                    store
                        .handle(namespace, &owners[table as usize])
                        .insert(row, row.is_multiple_of(3));
                    let again = store.handle(namespace, &owners[table as usize]);
                    assert_eq!(
                        again.get(row),
                        Some(row.is_multiple_of(3)),
                        "{namespace:?} lost row {row} to a sweep"
                    );
                }
            });
        }
    });
    let dead_rows = (THREADS / 2 * ROUNDS) as u64;
    assert_eq!(store.num_namespaces() as u64, 2 * LIVE);
    assert_eq!(
        store.stats().invalidated,
        dead_rows,
        "only dead tables' rows went"
    );
    for worker in (1..THREADS).step_by(2) {
        for round in 0..ROUNDS {
            let table = (worker + round) as u64 % LIVE;
            let namespace = live(table, (round as u64 / LIVE) % 2);
            let row = worker * ROUNDS + round;
            let handle = store.handle(namespace, &owners[table as usize]);
            assert_eq!(handle.get(row), Some(row.is_multiple_of(3)));
        }
    }
}
