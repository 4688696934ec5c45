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
//! memo — equals a `memoized` loop action for action.

use expred_exec::{CacheStore, ExecContext, Sequential};
use expred_table::{DataType, Field, Schema, Table, Value};
use expred_udf::{OracleUdf, UdfInvoker};
use proptest::prelude::*;

const ROWS: usize = 48;
/// Wide enough to span several 64-row words of the bitmap layers.
const WIDE_ROWS: usize = 300;

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
