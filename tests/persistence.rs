//! Durability proof suite: the persistence tier must be *invisible*
//! except in the bill.
//!
//! * Kill-and-rehydrate (property): an engine that persisted, died, and
//!   rebooted answers byte-identically to a control engine that never
//!   died — and rehydrated rows charge **zero** fresh `o_e`. The bill is
//!   conserved exactly: every row is paid for once, in whichever process
//!   first evaluated it, and never again.
//! * A rehydrated row tier feeds the result memo the same identities as
//!   fresh evaluation, so repeats after a restart still memo-hit.
//! * The pass rates the expression optimizer orders siblings by come
//!   back with the rehydrated answers, so a reopened engine keeps the
//!   order its first life learned.
//! * A table that dies takes its row-tier answers with it, not its
//!   durable ones: under a shedding WAL queue, every answer of every
//!   dropped table still rehydrates after a restart.
//! * The durable index keeps a page in RAM only while no snapshot frame
//!   holds all of its rows, live table or dead: after a compaction every
//!   page waits on disk, a live table that buys rows brings the pages
//!   they land on back until the next one, and a later registration
//!   reads a page back: its answers are byte-identical and buy nothing.
//!   A graceful drain's re-offer of a live table's pages adds no row, so
//!   it reads none of them back.

use expred::core::{PersistConfig, QueryEngine, QueryRequest, QuerySpec};
use expred::table::datasets::{Dataset, DatasetSpec, LABEL_COLUMN, PROSPER};
use expred::udf::{optimize_expr, ConjunctionUdf, CostModel, NoisyUdf, OracleUdf, Pred};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory per call — process id plus a counter, so
/// parallel tests and repeated proptest cases never collide.
fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "expred-persist-proof-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn prosper(rows: usize, seed: u64) -> Dataset {
    Dataset::generate(DatasetSpec { rows, ..PROSPER }, seed)
}

/// Memo-less persistent engine: reuse must come from the row tier, so
/// every assertion below exercises rehydration rather than the memo.
fn persistent(dir: &Path) -> QueryEngine {
    QueryEngine::new()
        .with_result_capacity(0)
        .with_persistence(PersistConfig::new(dir))
        .expect("open persistence")
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(5))]

    // Property: for random tables, contracts, and query seeds, the
    // kill-and-rehydrate engine B is indistinguishable from the control
    // engine C that never died — byte-identical outcomes, zero fresh
    // `o_e` for rehydrated rows, and an exactly conserved bill.
    #[test]
    fn kill_and_rehydrate_is_byte_identical_and_bills_each_row_once(
        table_seed in 0u64..40,
        warm_seed in 0u64..1_000,
        q_seed in 0u64..1_000,
        beta in 0.6f64..0.95,
    ) {
        let dir = unique_dir("prop");
        let ds = prosper(600, table_seed);
        let spec = QuerySpec::try_new(0.8, beta, 0.8, CostModel::PAPER_DEFAULT)
            .expect("generated specs are in range");
        let warm = QueryRequest::naive(spec);
        let q = QueryRequest::naive(spec);

        // Engine A pays for the session, flushes, and "dies".
        let a = persistent(&dir);
        a.submit(&ds, &warm.clone().with_seed(warm_seed)).unwrap();
        let a_q = a.submit(&ds, &q.clone().with_seed(q_seed)).unwrap();
        let a_bill = a.session_counts();
        a.flush_persistence().expect("flush before the kill");
        drop(a);

        // Control C: the same session, never killed. Its third run
        // replays Q over the fully warm cache — exactly the state B's
        // rehydration must reconstruct (W's rows ∪ Q's fresh rows).
        let c = QueryEngine::new().with_result_capacity(0);
        c.submit(&ds, &warm.clone().with_seed(warm_seed)).unwrap();
        let c_q = c.submit(&ds, &q.clone().with_seed(q_seed)).unwrap();
        let c_bill = c.session_counts();
        let c_warm_q = c.submit(&ds, &q.clone().with_seed(q_seed)).unwrap();

        // While alive, A matched C exactly.
        assert_eq!(&a_q.returned, &c_q.returned);
        assert_eq!(a_q.counts, c_q.counts);
        assert_eq!(a_bill, c_bill);

        // Engine B reboots over A's directory.
        let b = persistent(&dir);
        let b_q = b.submit(&ds, &q.clone().with_seed(q_seed)).unwrap();
        assert_eq!(&b_q.returned, &c_warm_q.returned,
            "restart changed the answer");
        assert_eq!(b_q.counts, c_warm_q.counts);
        assert_eq!(b_q.cost, c_warm_q.cost);
        assert_eq!(b_q.summary, c_warm_q.summary);

        // The billing contract: rehydrated rows charge zero fresh o_e,
        // so across both processes every row billed exactly once.
        assert_eq!(b.session_counts().evaluated, 0,
            "a warm restart must not re-pay o_e");
        assert_eq!(
            a_bill.evaluated + b.session_counts().evaluated,
            c_bill.evaluated,
            "bill not conserved across the restart"
        );
        let stats = b.persist_stats().expect("persistent engine has stats");
        assert!(stats.rehydrated_rows > 0, "nothing was rehydrated");
        assert!(stats.rehydrated_namespaces >= 1);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn graceful_drain_compacts_shed_wal_records_so_the_restart_stays_free() {
    let dir = unique_dir("shed");
    let q = QueryRequest::naive(QuerySpec::paper_default());
    // The queue sheds when a batch arrives to find a backlog at the
    // bound, so a one-row bound sheds whenever two batches arrive
    // within one flusher cycle (a WAL write and its fsync): two threads
    // submitting back to back over tables generated up front. And
    // auto-compaction is off so only the drain itself can get the shed
    // rows (which live solely in the in-memory index) to disk.
    let cfg = || {
        PersistConfig::new(&dir)
            .with_queue_capacity(1)
            .with_compact_after(0)
    };

    let a = QueryEngine::new()
        .with_result_capacity(0)
        .with_persistence(cfg())
        .expect("open persistence");
    let datasets: Vec<Dataset> = (0..50).map(|seed| prosper(400, seed)).collect();
    std::thread::scope(|scope| {
        for (half, tables) in datasets.chunks(25).enumerate() {
            let (a, q) = (&a, &q);
            scope.spawn(move || {
                for (i, ds) in tables.iter().enumerate() {
                    let seed = (25 * half + i) as u64;
                    a.submit(ds, &q.clone().with_seed(seed)).unwrap();
                }
            });
        }
    });
    assert!(
        a.persist_stats().expect("stats").shed > 0,
        "workload never tripped the queue bound; widen the flood"
    );
    a.flush_persistence().expect("graceful drain");
    drop(a);

    let b = QueryEngine::new()
        .with_result_capacity(0)
        .with_persistence(cfg())
        .expect("reopen");
    for (seed, ds) in datasets.iter().enumerate() {
        b.submit(ds, &q.clone().with_seed(seed as u64)).unwrap();
    }
    assert_eq!(
        b.session_counts().evaluated,
        0,
        "shed WAL records lost across a graceful drain (flush must compact)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_tables_under_a_shedding_queue_rehydrate_every_answer() {
    let dir = unique_dir("dropped");
    let q = QueryRequest::naive(QuerySpec::paper_default());
    // As above: a one-row queue sheds, and only the drain compacts.
    let cfg = || {
        PersistConfig::new(&dir)
            .with_queue_capacity(1)
            .with_compact_after(0)
    };
    let a = QueryEngine::new()
        .with_result_capacity(0)
        .with_persistence(cfg())
        .expect("open persistence");
    // Two threads each build a table, ask about it once and drop it, so
    // the row tier sweeps dead tables while the queue sheds.
    std::thread::scope(|scope| {
        for half in 0..2u64 {
            let (a, q) = (&a, &q);
            scope.spawn(move || {
                for seed in (0..60).filter(|seed| seed % 2 == half) {
                    a.submit(&prosper(400, seed), &q.clone().with_seed(seed))
                        .unwrap();
                }
            });
        }
    });
    assert!(a.persist_stats().expect("stats").shed > 0, "nothing shed");
    assert_eq!(a.store().num_namespaces(), 0, "every table is dead");
    assert!(a.store().is_empty());
    let paid = a.session_counts().evaluated;
    a.flush_persistence().expect("graceful drain");
    drop(a);

    let b = QueryEngine::new()
        .with_result_capacity(0)
        .with_persistence(cfg())
        .expect("reopen");
    for seed in 0..60 {
        b.submit(&prosper(400, seed), &q.clone().with_seed(seed))
            .unwrap();
    }
    let stats = b.persist_stats().expect("stats");
    assert_eq!(stats.rehydrated_rows, paid, "every answer rehydrated");
    assert_eq!(b.session_counts().evaluated, 0, "the replay bought nothing");
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rehydrated_rows_feed_the_result_memo_the_same_identity_as_fresh() {
    let dir = unique_dir("memo");
    let ds = prosper(500, 11);
    let q = QueryRequest::naive(QuerySpec::paper_default());

    // Memo ON here: the point is the interaction between tiers.
    let a = QueryEngine::new()
        .with_persistence(PersistConfig::new(&dir))
        .expect("open persistence");
    a.submit(&ds, &q.clone().with_seed(1)).unwrap();
    let a_q = a.submit(&ds, &q.clone().with_seed(2)).unwrap();
    a.flush_persistence().expect("flush");
    drop(a);

    let b = QueryEngine::new()
        .with_persistence(PersistConfig::new(&dir))
        .expect("open persistence");
    // First submission computes (the memo is not persisted) — but over
    // rehydrated rows, so it charges nothing fresh.
    let first = b.submit(&ds, &q.clone().with_seed(2)).unwrap();
    assert_eq!(b.stats().result_hits, 0, "the memo starts cold");
    assert_eq!(first.returned, a_q.returned);
    assert_eq!(first.counts.evaluated, 0, "rehydrated rows are free");
    assert!(first.counts.reuse_hits > 0);
    // The repeat must hit the memo entry that computation wrote: a
    // rehydrated row tier produces the same result-memo identity as
    // fresh evaluation did before the restart.
    let second = b.submit(&ds, &q.clone().with_seed(2)).unwrap();
    assert_eq!(
        b.stats().result_hits,
        1,
        "rehydrated and fresh submissions must share one memo identity"
    );
    assert_eq!(second.returned, first.returned);
    assert_eq!(second.counts, first.counts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reopened_engine_keeps_the_expression_order_its_answers_taught() {
    let dir = unique_dir("learned-order");
    let ds = prosper(2_000, 7);
    let cost = CostModel::PAPER_DEFAULT;
    // Equal declared costs: `common` passes most rows, `rare` (a triple
    // conjunction) few, so the written order is the pessimal one.
    let common = || Pred::udf(NoisyUdf::new(OracleUdf::new(LABEL_COLUMN), 0.9, 13));
    let rare = || {
        Pred::udf(ConjunctionUdf::new(vec![
            Box::new(OracleUdf::new(LABEL_COLUMN)),
            Box::new(NoisyUdf::new(OracleUdf::new(LABEL_COLUMN), 0.5, 11)),
            Box::new(NoisyUdf::new(OracleUdf::new(LABEL_COLUMN), 0.5, 12)),
        ]))
    };
    let expr = || common().and(rare());
    let plan = |engine: &QueryEngine| {
        optimize_expr(&expr(), &ds.table, Some(engine.store())).fingerprint()
    };
    let learned = rare().and(common()).fingerprint();

    // First life: the scan runs in the static order and buys both
    // leaves' answers, which teach the learned order. No explicit flush:
    // the answers reach the WAL as they are bought.
    let a = persistent(&dir);
    assert_eq!(
        plan(&a),
        expr().fingerprint(),
        "a cold engine plans statically"
    );
    let first = a
        .submit(&ds, &QueryRequest::expr_scan(expr(), cost))
        .unwrap();
    assert_eq!(plan(&a), learned);
    drop(a);

    // Second life: nothing is known until the first submit over the
    // table rehydrates its answers. A scan of `common` alone is free,
    // and afterwards both leaves' pass rates are back.
    let b = persistent(&dir);
    assert_eq!(plan(&b), expr().fingerprint());
    let warm = b
        .submit(&ds, &QueryRequest::expr_scan(common(), cost))
        .unwrap();
    assert_eq!(warm.counts.evaluated, 0, "common's answers were rehydrated");
    assert_eq!(b.persist_stats().expect("stats").rehydrated_namespaces, 2);
    assert_eq!(plan(&b), learned, "the learned order survived the restart");
    let again = b
        .submit(&ds, &QueryRequest::expr_scan(expr(), cost))
        .unwrap();
    assert_eq!(again.returned, first.returned, "answers are still answers");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_tables_pages_leave_ram_and_come_back_byte_identical() {
    let dir = unique_dir("resident");
    let q = QueryRequest::naive(QuerySpec::paper_default());
    let a = persistent(&dir);
    // Three tables stay live throughout; 2 000 more are built, asked
    // about once and dropped.
    let live: Vec<Dataset> = (0..3).map(|seed| prosper(200, 10_000 + seed)).collect();
    for ds in &live {
        a.submit(ds, &q.clone().with_seed(1)).unwrap();
    }
    // The row tier's pages are the live tables' pages, once the sweep
    // has handed the dead tables off; a compaction then writes every
    // dead page whole, and they leave RAM.
    let resident_after_compaction = || {
        assert_eq!(a.store().num_namespaces(), live.len(), "the dead are swept");
        let mut live_pages = 0;
        a.store()
            .for_each_namespace(|_, pages| live_pages += pages.len() as u64);
        a.compact_persistence().expect("compact");
        let stats = a.persist_stats().expect("a persistent engine has stats");
        (stats.resident_pages, live_pages)
    };
    let mut first = Vec::new();
    for seed in 0..2_000u64 {
        let outcome = a
            .submit(&prosper(200, seed), &q.clone().with_seed(seed))
            .unwrap();
        if seed < 20 {
            first.push(outcome);
        }
        if seed == 999 {
            let (resident, live_pages) = resident_after_compaction();
            assert!(
                resident <= live_pages,
                "{resident} resident pages at 1 000 tables"
            );
        }
    }
    let (resident, live_pages) = resident_after_compaction();
    assert!(
        resident <= live_pages,
        "{resident} resident pages, {live_pages} live"
    );
    let paid = a.session_counts().evaluated;
    drop(a);

    // The first 20 dead tables register again: every answer is read back
    // from its snapshot frame, none is bought.
    let b = persistent(&dir);
    for (seed, first) in (0..20u64).zip(&first) {
        let again = b
            .submit(&prosper(200, seed), &q.clone().with_seed(seed))
            .unwrap();
        assert_eq!(again.returned, first.returned, "table {seed}");
        assert_eq!(again.summary, first.summary, "table {seed}");
    }
    assert_eq!(
        b.session_counts().evaluated,
        0,
        "the re-registered tables bought nothing"
    );
    let stats = b.persist_stats().expect("stats");
    assert!(stats.rehydrated_rows > 0, "the answers came from disk");
    assert!(paid > 0);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_live_tables_pages_leave_ram_once_a_snapshot_holds_them() {
    let dir = unique_dir("live-resident");
    let q = QueryRequest::naive(QuerySpec::paper_default());
    let a = persistent(&dir);
    let resident = || a.persist_stats().expect("stats").resident_pages;
    // Three tables stay live throughout; each is asked once.
    let live: Vec<Dataset> = (0..3).map(|seed| prosper(9_000, 20_000 + seed)).collect();
    let mut asked = Vec::new();
    for (table, ds) in live.iter().enumerate() {
        asked.push((table, 1, a.submit(ds, &q.clone().with_seed(1)).unwrap()));
    }
    assert!(resident() > 0, "no snapshot holds the bought pages yet");
    a.compact_persistence().expect("compact");
    assert_eq!(resident(), 0, "a snapshot holds every live table's page");

    // One live table buys new rows: the pages they land on are read back
    // and stay in RAM until the next compaction writes them whole.
    let bought = a.submit(&live[0], &q.clone().with_seed(2)).unwrap();
    assert!(bought.counts.evaluated > 0, "the new seed bought rows");
    asked.push((0, 2, bought));
    assert!(resident() > 0, "the pages the new rows landed on");
    a.compact_persistence().expect("compact");
    assert_eq!(resident(), 0, "the next snapshot holds them");
    drop(a);

    // A restarted engine replays every request and buys nothing.
    let b = persistent(&dir);
    for (table, seed, first) in &asked {
        let again = b
            .submit(&live[*table], &q.clone().with_seed(*seed))
            .unwrap();
        assert_eq!(again.returned, first.returned, "table {table}, seed {seed}");
        assert_eq!(again.summary, first.summary, "table {table}, seed {seed}");
    }
    assert_eq!(b.session_counts().evaluated, 0, "the replay bought nothing");
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_drain_after_a_compaction_reads_no_page_back() {
    let dir = unique_dir("drain-resident");
    let q = QueryRequest::naive(QuerySpec::paper_default());
    let a = persistent(&dir);
    let stats = || a.persist_stats().expect("stats");
    let live: Vec<Dataset> = (0..3).map(|seed| prosper(20_000, 30_000 + seed)).collect();
    let first: Vec<_> = live
        .iter()
        .map(|ds| a.submit(ds, &q.clone().with_seed(1)).unwrap())
        .collect();
    a.compact_persistence().expect("compact");
    assert_eq!(stats().resident_pages, 0, "a snapshot holds every page");
    let appended = stats().appended;
    // The drain re-offers every live namespace: each page it offers
    // knows exactly the rows its frame holds.
    a.flush_persistence().expect("flush");
    assert_eq!(stats().resident_pages, 0, "the drain read a page back");
    assert_eq!(stats().appended, appended, "the re-offer added a row");
    drop(a);

    let b = persistent(&dir);
    for (ds, first) in live.iter().zip(&first) {
        let again = b.submit(ds, &q.clone().with_seed(1)).unwrap();
        assert_eq!(again.returned, first.returned);
    }
    assert_eq!(b.session_counts().evaluated, 0, "the replay bought nothing");
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}
