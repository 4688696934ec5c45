//! Property tests for the session-cache accounting contract.
//!
//! The ledger invariant: for *any* sequence of queries (each an arbitrary
//! mix of single and batched evaluation requests over arbitrary rows),
//! per query,
//!
//! * `fresh_evals + reuse_hits` equals the fresh evaluations a cache-less
//!   run of the same request stream would perform (cross-query reuse
//!   substitutes for fresh calls one-for-one, never changes demand);
//! * `cache_hits` (within-query memo hits) match the cache-less run
//!   exactly;
//! * every answer matches the cache-less run bit for bit;
//!
//! and a table-version bump fully invalidates the table's namespace: the
//! next query pays full freight again with zero reuse.
//!
//! The bulk read path is held to the per-row one: `known_many` over any
//! run of rows — repeats included, on a half-warm session and a half-warm
//! memo — equals a `memoized` loop action for action. And the group scan
//! is held to `known_many`: `scan_plane` over the plane of a group's
//! `(word, mask)` runs equals `known_many` over the group's rows —
//! answers, bill, store statistics and the referenced marks that steer
//! later evictions. The word-major scan is held to the group scan in
//! turn: `scan_groups` over a whole grouping — sparse, or sliced so it
//! does not cover the table — equals one group scan after another, mask
//! for mask, leaving the same memo, bill, store statistics and
//! referenced marks.

use expred_exec::{CacheStore, ExecContext, Sequential};
use expred_stats::bits::rows_of;
use expred_table::rowset::bits;
use expred_table::{DataType, Field, GroupBy, RowSet, Schema, Table, Value};
use expred_udf::{cache_namespace, OracleUdf, UdfInvoker};
use proptest::prelude::*;

const ROWS: usize = 48;
/// Wide enough to span several 64-row words of the bitmap layers.
const WIDE_ROWS: usize = 300;
/// Tall enough to span two 4096-row pages of the session store.
const TALL_ROWS: usize = 4_200;

/// Group `g`'s rows as a plane over a table of `rows` rows.
fn group_plane(groups: &GroupBy, g: usize, rows: usize) -> RowSet {
    let mut plane = RowSet::new(rows);
    for (word, mask) in groups.runs(g) {
        plane.insert_word(word as usize, mask);
    }
    plane
}

fn labelled_table(rows: usize) -> Table {
    let schema = Schema::new(vec![Field::new("good", DataType::Bool)]);
    let data = (0..rows).map(|i| vec![Value::Bool(i % 3 == 0)]).collect();
    Table::from_rows(schema, data).unwrap()
}

/// One query: a request stream of (row, batched?) pairs. Consecutive
/// batched requests are dispatched together through `evaluate_batch`;
/// unbatched ones go through `evaluate`.
fn drive(invoker: &UdfInvoker<'_>, requests: &[(usize, bool)]) -> Vec<bool> {
    let mut answers = Vec::with_capacity(requests.len());
    let mut batch: Vec<usize> = Vec::new();
    let flush = |batch: &mut Vec<usize>, answers: &mut Vec<bool>| {
        if !batch.is_empty() {
            answers.extend(invoker.evaluate_batch(&Sequential, batch));
            batch.clear();
        }
    };
    for &(row, batched) in requests {
        if batched {
            batch.push(row);
        } else {
            flush(&mut batch, &mut answers);
            answers.push(invoker.evaluate(row));
        }
    }
    flush(&mut batch, &mut answers);
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn session_ledger_matches_cacheless_runs(
        queries in prop::collection::vec(
            prop::collection::vec((0usize..ROWS, any::<bool>()), 1..60),
            1..8,
        )
    ) {
        let table = labelled_table(ROWS);
        let udf = OracleUdf::new("good");
        let store = CacheStore::new();
        let ctx = ExecContext::sequential().with_cache(&store);

        for requests in &queries {
            let warm = UdfInvoker::with_context(&udf, &table, &ctx);
            let warm_answers = drive(&warm, requests);

            let cold = UdfInvoker::new(&udf, &table);
            let cold_answers = drive(&cold, requests);

            prop_assert_eq!(&warm_answers, &cold_answers);
            let w = warm.counts();
            let c = cold.counts();
            prop_assert_eq!(
                w.evaluated + w.reuse_hits,
                c.evaluated,
                "fresh + reused must equal the cache-less fresh count \
                 (warm {:?} vs cold {:?})",
                w,
                c
            );
            prop_assert_eq!(w.cache_hits, c.cache_hits);
            prop_assert_eq!(w.demanded(), c.demanded());
            prop_assert_eq!(c.reuse_hits, 0, "cache-less runs never reuse");
        }
    }

    #[test]
    fn version_bump_fully_invalidates_the_namespace(
        first in prop::collection::vec((0usize..ROWS, any::<bool>()), 1..60),
        second in prop::collection::vec((0usize..ROWS, any::<bool>()), 1..60),
    ) {
        let mut table = labelled_table(ROWS);
        let udf = OracleUdf::new("good");
        let store = CacheStore::new();

        {
            let ctx = ExecContext::sequential().with_cache(&store);
            let q1 = UdfInvoker::with_context(&udf, &table, &ctx);
            drive(&q1, &first);
            prop_assert_eq!(q1.counts().reuse_hits, 0);
        }

        // Mutate: the namespace the next query borrows is brand new.
        table.push_row(vec![Value::Bool(true)]).unwrap();
        let ctx = ExecContext::sequential().with_cache(&store);
        let q2 = UdfInvoker::with_context(&udf, &table, &ctx);
        let warm_answers = drive(&q2, &second);
        let cold = UdfInvoker::new(&udf, &table);
        let cold_answers = drive(&cold, &second);

        prop_assert_eq!(warm_answers, cold_answers);
        let w = q2.counts();
        prop_assert_eq!(w.reuse_hits, 0, "stale answers must not be served");
        prop_assert_eq!(w.evaluated, cold.counts().evaluated, "full freight again");
        // Old + new versions are live (bounded by the recency window).
        prop_assert!(store.num_namespaces() <= expred_exec::MAX_LIVE_VERSIONS);
    }

    #[test]
    fn bulk_known_scan_matches_the_per_row_loop_action_for_action(
        warm in prop::collection::vec(0usize..WIDE_ROWS, 0..120),
        steps in prop::collection::vec(
            (
                prop::collection::vec(0usize..WIDE_ROWS, 0..150),
                prop::collection::vec(0usize..WIDE_ROWS, 0..40),
            ),
            1..6,
        ),
    ) {
        // Twin sessions, warmed identically by a first query; the second
        // query alternates "which of these rows are decided?" scans with
        // batches that warm its memo. One twin scans in bulk, the other
        // row by row; nothing observable may differ after any step.
        let table = labelled_table(WIDE_ROWS);
        let udf = OracleUdf::new("good");
        let (bulk_store, loop_store) = (CacheStore::new(), CacheStore::new());
        let bulk_ctx = ExecContext::sequential().with_cache(&bulk_store);
        let loop_ctx = ExecContext::sequential().with_cache(&loop_store);
        UdfInvoker::with_context(&udf, &table, &bulk_ctx).evaluate_batch(&Sequential, &warm);
        UdfInvoker::with_context(&udf, &table, &loop_ctx).evaluate_batch(&Sequential, &warm);

        let bulk = UdfInvoker::with_context(&udf, &table, &bulk_ctx);
        let per_row = UdfInvoker::with_context(&udf, &table, &loop_ctx);
        for (scan, batch) in &steps {
            let bulk_known = bulk.known_many(scan.iter().copied());
            let loop_known: Vec<Option<bool>> =
                scan.iter().map(|&row| per_row.memoized(row)).collect();
            prop_assert_eq!(&bulk_known, &loop_known);
            for (&row, known) in scan.iter().zip(&bulk_known) {
                prop_assert!(known.is_none_or(|answer| answer == (row % 3 == 0)));
            }
            prop_assert_eq!(bulk.counts(), per_row.counts());
            prop_assert_eq!(bulk_store.stats(), loop_store.stats());
            prop_assert_eq!(
                bulk.evaluate_batch(&Sequential, batch),
                per_row.evaluate_batch(&Sequential, batch)
            );
        }
        prop_assert_eq!(bulk.counts(), per_row.counts());
        prop_assert_eq!(bulk_store.stats(), loop_store.stats());
    }

    #[test]
    fn group_scan_matches_known_many_action_for_action(
        k in 1usize..6,
        stride in 1usize..200,
        session in 0usize..4,
        warm in prop::collection::vec(0usize..TALL_ROWS, 0..500),
        own in prop::collection::vec(0usize..TALL_ROWS, 0..80),
        newcomers in 0usize..40,
    ) {
        // Groups interleave (so each touches most words) in stretches of
        // `stride` rows (so some words and whole pages are skipped).
        let assignments: Vec<usize> = (0..TALL_ROWS).map(|row| (row / stride + row) % k).collect();
        let groups = GroupBy::from_assignments("g", &assignments);
        let table = labelled_table(TALL_ROWS);
        let udf = OracleUdf::new("good");
        let namespace = cache_namespace(&udf, &table).expect("the oracle has an identity");
        // The session an earlier query left behind: none at all (a
        // store-less invoker), cold, half-warm or fully warm.
        let warm: Vec<usize> = match session {
            0 | 1 => Vec::new(),
            2 => warm,
            _ => (0..TALL_ROWS).collect(),
        };
        let mut resident: Vec<usize> = warm.iter().chain(&own).copied().collect();
        resident.sort_unstable();
        resident.dedup();

        let run = |by_runs: bool| {
            // Exactly full once both queries have evaluated, so every
            // newcomer evicts — the unreferenced entries first.
            let store = CacheStore::with_capacity(resident.len());
            let ctx = match session {
                0 => ExecContext::sequential(),
                _ => ExecContext::sequential().with_cache(&store),
            };
            UdfInvoker::with_context(&udf, &table, &ctx).evaluate_batch(&Sequential, &warm);
            let invoker = UdfInvoker::with_context(&udf, &table, &ctx);
            invoker.evaluate_batch(&Sequential, &own);
            // Two passes: the second finds every hit of the first promoted.
            let mut seen = Vec::new();
            for _ in 0..2 {
                for g in 0..groups.num_groups() {
                    let known = if by_runs {
                        let plane = group_plane(&groups, g, TALL_ROWS);
                        let (decided, passed) = invoker.scan_plane(&plane);
                        for (word, mask) in groups.runs(g) {
                            let (decided, passed) =
                                (decided.word(word as usize), passed.word(word as usize));
                            assert_eq!((decided & !mask, passed & !decided), (0, 0));
                        }
                        groups
                            .rows(g)
                            .map(|row| {
                                let row = row as usize;
                                decided.contains(row).then_some(passed.contains(row))
                            })
                            .collect()
                    } else {
                        invoker.known_many(groups.rows(g).map(|row| row as usize))
                    };
                    seen.push((known, invoker.counts(), store.stats()));
                }
            }
            let handle = store.handle(namespace);
            for newcomer in 0..newcomers {
                handle.insert(TALL_ROWS + newcomer, true);
            }
            let mut survivors = Vec::new();
            store.for_each_namespace(|_, pages| survivors.extend(rows_of(pages)));
            survivors.sort_unstable();
            (seen, store.stats(), survivors)
        };
        let (by_runs, by_rows) = (run(true), run(false));
        for (step, (got, want)) in by_runs.0.iter().zip(&by_rows.0).enumerate() {
            prop_assert_eq!(got, want, "scan {}", step);
        }
        prop_assert_eq!(by_runs.1, by_rows.1);
        prop_assert_eq!(by_runs.2, by_rows.2, "the scans left different referenced marks");
        // The scan is honest: every answer it reports is the oracle's,
        // and a fully warm session is reused row for row.
        let scanned_groups = (0..groups.num_groups()).cycle();
        for ((known, _, _), g) in by_runs.0.iter().zip(scanned_groups) {
            for (row, known) in groups.rows(g).zip(known) {
                prop_assert!(known.is_none_or(|answer| answer == (row % 3 == 0)));
            }
        }
        if session == 3 {
            let (_, counts, _) = by_runs.0.last().expect("at least one group");
            let own_rows: std::collections::HashSet<_> = own.iter().collect();
            prop_assert_eq!(counts.reuse_hits as usize, TALL_ROWS);
            prop_assert_eq!(counts.cache_hits as usize, own.len() - own_rows.len());
        }
    }

    #[test]
    fn word_major_scan_matches_the_per_group_loop_action_for_action(
        k in 1usize..7,
        stride in 1usize..200,
        keep_one_in in 1usize..4,
        session in 0usize..4,
        warm in prop::collection::vec(0usize..TALL_ROWS, 0..500),
        own in prop::collection::vec(0usize..TALL_ROWS, 0..80),
        newcomers in 0usize..40,
    ) {
        // Interleaved groups in stretches of `stride` rows (sparse: some
        // words and whole pages skipped), sliced to every `keep_one_in`th
        // share of each group's rows, as the iterative pipeline's rounds
        // slice them — a grouping that need not cover the table.
        let assignments: Vec<usize> = (0..TALL_ROWS).map(|row| (row / stride + row) % k).collect();
        let whole = GroupBy::from_assignments("g", &assignments);
        let slices: Vec<Vec<u32>> = (0..whole.num_groups())
            .map(|g| whole.rows(g).take(whole.size(g).div_ceil(keep_one_in)).collect())
            .collect();
        let sliced = slices.iter().map(Vec::len).sum();
        let keys = (0..whole.num_groups()).map(|g| whole.key(g).clone()).collect();
        let groups = GroupBy::new("g#slice".into(), keys, slices, sliced);
        let table = labelled_table(TALL_ROWS);
        let udf = OracleUdf::new("good");
        let namespace = cache_namespace(&udf, &table).expect("the oracle has an identity");
        // No store at all, a cold one, a partly warm one, a full one.
        let warm: Vec<usize> = match session {
            0 | 1 => Vec::new(),
            2 => warm,
            _ => (0..TALL_ROWS).collect(),
        };
        let mut resident: Vec<usize> = warm.iter().chain(&own).copied().collect();
        resident.sort_unstable();
        resident.dedup();

        let run = |word_major: bool| {
            let store = CacheStore::with_capacity(resident.len());
            let ctx = match session {
                0 => ExecContext::sequential(),
                _ => ExecContext::sequential().with_cache(&store),
            };
            UdfInvoker::with_context(&udf, &table, &ctx).evaluate_batch(&Sequential, &warm);
            let invoker = UdfInvoker::with_context(&udf, &table, &ctx);
            invoker.evaluate_batch(&Sequential, &own);
            // Two passes: the second finds every hit of the first promoted.
            let mut seen = Vec::new();
            for _ in 0..2 {
                // Per run of every group, group after group: its masks.
                let decided: Vec<(u64, u64)> = if word_major {
                    let (known, passed) = invoker.scan_groups(&groups);
                    (0..groups.num_groups())
                        .flat_map(|g| groups.runs(g))
                        .map(|(word, mask)| {
                            let word = word as usize;
                            (known.word(word) & mask, passed.word(word) & mask)
                        })
                        .collect()
                } else {
                    let mut decided = Vec::new();
                    for g in 0..groups.num_groups() {
                        let (known, passed) =
                            invoker.scan_plane(&group_plane(&groups, g, TALL_ROWS));
                        decided.extend(groups.runs(g).map(|(word, mask)| {
                            let word = word as usize;
                            (known.word(word) & mask, passed.word(word) & mask)
                        }));
                    }
                    decided
                };
                seen.push((decided, invoker.counts(), store.stats()));
            }
            // What the memo holds now: a batch over every row charges a
            // memo hit for each row it holds and re-probes the store for
            // the rest.
            let all: Vec<usize> = (0..TALL_ROWS).collect();
            let answers = invoker.evaluate_batch(&Sequential, &all);
            let memo = (answers, invoker.counts(), store.stats());
            let handle = store.handle(namespace);
            for newcomer in 0..newcomers {
                handle.insert(TALL_ROWS + newcomer, true);
            }
            let mut survivors = Vec::new();
            store.for_each_namespace(|_, pages| survivors.extend(rows_of(pages)));
            survivors.sort_unstable();
            (seen, memo, store.stats(), survivors)
        };
        let (word_major, per_group) = (run(true), run(false));
        for (pass, (got, want)) in word_major.0.iter().zip(&per_group.0).enumerate() {
            prop_assert_eq!(got, want, "pass {}", pass);
        }
        prop_assert_eq!(&word_major.1, &per_group.1, "the scans left different memos");
        prop_assert_eq!(word_major.2, per_group.2);
        prop_assert_eq!(&word_major.3, &per_group.3, "the scans left different referenced marks");
        // The masks are honest: within their runs, and the oracle's.
        let (decided, _, _) = &word_major.0[0];
        let runs = (0..groups.num_groups()).flat_map(|g| groups.runs(g));
        for ((word, mask), &(known, passed)) in runs.zip(decided) {
            prop_assert_eq!((known & !mask, passed & !known), (0, 0));
            for bit in bits(known) {
                let row = word as usize * 64 + bit as usize;
                prop_assert_eq!(passed >> bit & 1 == 1, row.is_multiple_of(3));
            }
        }
    }

    #[test]
    fn eviction_preserves_answers_and_the_ledger(
        queries in prop::collection::vec(
            prop::collection::vec((0usize..ROWS, any::<bool>()), 1..60),
            2..6,
        )
    ) {
        // A pathologically small store: constant eviction pressure. Reuse
        // may shrink, but correctness and the ledger must survive.
        let table = labelled_table(ROWS);
        let udf = OracleUdf::new("good");
        let store = CacheStore::with_capacity(1);
        let ctx = ExecContext::sequential().with_cache(&store);

        for requests in &queries {
            let warm = UdfInvoker::with_context(&udf, &table, &ctx);
            let warm_answers = drive(&warm, requests);
            let cold = UdfInvoker::new(&udf, &table);
            let cold_answers = drive(&cold, requests);
            prop_assert_eq!(warm_answers, cold_answers);
            let (w, c) = (warm.counts(), cold.counts());
            prop_assert_eq!(w.evaluated + w.reuse_hits, c.evaluated);
            prop_assert_eq!(w.cache_hits, c.cache_hits);
        }
    }
}
