//! Cross-query reuse suite: the acceptance contract of the session layer.
//!
//! * An *identical* repeated query through one [`QueryEngine`] charges
//!   zero additional `o_e` (the result memo answers it outright).
//! * Even with the result memo disabled, the row-tier [`CacheStore`]
//!   answers a repeated naive query entirely from reuse.
//! * Overlapping-but-different queries re-pay `o_e` only for rows no
//!   earlier query evaluated, without changing any answer.
//! * Single-query outcomes are byte-identical to the pre-session
//!   pipelines (cold engine == the pipeline function called directly
//!   on the sequential context).

use expred::core::{
    run_intel_sample, run_naive, IntelSampleConfig, PredictorChoice, QueryEngine, QueryRequest,
    QuerySpec,
};
use expred::exec::{ExecContext, WorkerPool};
use expred::table::datasets::{Dataset, DatasetSpec, PROSPER};

fn small_prosper(seed: u64) -> Dataset {
    Dataset::generate(
        DatasetSpec {
            rows: 4_000,
            ..PROSPER
        },
        seed,
    )
}

fn intel(predictor: &str) -> QueryRequest {
    QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
        predictor.into(),
    )))
}

fn naive(spec: QuerySpec, seed: u64) -> QueryRequest {
    QueryRequest::naive(spec).with_seed(seed)
}

#[test]
fn identical_query_twice_charges_zero_additional_oe() {
    let ds = small_prosper(1);
    let engine = QueryEngine::new();
    let first = engine.submit(&ds, &intel("grade").with_seed(42)).unwrap();
    let evals_after_first = engine.session_counts().evaluated;
    assert!(
        evals_after_first > 0,
        "the first run must pay for something"
    );

    let second = engine.submit(&ds, &intel("grade").with_seed(42)).unwrap();
    assert_eq!(
        engine.session_counts().evaluated,
        evals_after_first,
        "the identical second run must charge zero additional o_e"
    );
    assert_eq!(first.returned, second.returned);
    assert_eq!(first.summary, second.summary);
    assert_eq!(engine.stats().result_hits, 1);
}

#[test]
fn row_tier_alone_also_makes_identical_naive_queries_free() {
    // Disable the result memo: reuse must come from the CacheStore.
    let ds = small_prosper(2);
    let engine = QueryEngine::new().with_result_capacity(0);
    let spec = QuerySpec::paper_default();
    let first = engine.submit(&ds, &naive(spec, 7)).unwrap();
    let second = engine.submit(&ds, &naive(spec, 7)).unwrap();
    assert_eq!(second.counts.evaluated, 0, "same β-fraction, all cached");
    assert_eq!(second.counts.reuse_hits, first.counts.evaluated);
    assert_eq!(first.returned, second.returned);
    assert_eq!(engine.stats().result_hits, 0, "the memo was off");
}

#[test]
fn overlapping_workload_pays_only_for_fresh_rows() {
    let ds = small_prosper(3);
    let engine = QueryEngine::new();
    let spec = QuerySpec::paper_default();
    engine.submit(&ds, &naive(spec, 1)).unwrap();

    // A different seed draws a different (heavily overlapping) fraction.
    let warm = engine.submit(&ds, &naive(spec, 2)).unwrap();
    let cold = run_naive(&ds, &spec, 2, &ExecContext::sequential()).unwrap();
    assert_eq!(
        warm.returned, cold.returned,
        "reuse must not change answers"
    );
    assert_eq!(
        warm.counts.evaluated + warm.counts.reuse_hits,
        cold.counts.evaluated,
        "warm fresh + reused must equal the cache-less bill"
    );
    assert!(
        warm.counts.reuse_hits > cold.counts.evaluated / 2,
        "β = 0.8 fractions overlap heavily; got only {} reuses of {}",
        warm.counts.reuse_hits,
        cold.counts.evaluated
    );
}

#[test]
fn cold_engine_is_byte_identical_to_legacy_pipelines() {
    let ds = small_prosper(4);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    for seed in [3u64, 19] {
        let engine = QueryEngine::new();
        let engine_out = engine.submit(&ds, &intel("grade").with_seed(seed)).unwrap();
        let legacy = run_intel_sample(&ds, &cfg, seed, &ExecContext::sequential()).unwrap();
        assert_eq!(engine_out.returned, legacy.returned);
        assert_eq!(engine_out.cost, legacy.cost);
        assert_eq!(engine_out.summary, legacy.summary);
        assert_eq!(engine_out.counts.evaluated, legacy.counts.evaluated);
        assert_eq!(engine_out.counts.retrieved, legacy.counts.retrieved);
        assert_eq!(engine_out.counts.cache_hits, legacy.counts.cache_hits);
    }
}

#[test]
fn session_reuse_is_backend_invariant() {
    // The same two-query session on Sequential and WorkerPool engines must
    // produce identical outcomes and identical bills.
    let ds = small_prosper(5);
    let spec = QuerySpec::paper_default();
    let run_session = |engine: &QueryEngine| {
        let a = engine.submit(&ds, &naive(spec, 1)).unwrap();
        let b = engine.submit(&ds, &intel("grade").with_seed(2)).unwrap();
        (a, b)
    };
    let seq = QueryEngine::new();
    let par = QueryEngine::with_executor(Box::new(WorkerPool::with_threads(4)));
    let (a_seq, b_seq) = run_session(&seq);
    let (a_par, b_par) = run_session(&par);
    assert_eq!(a_seq.returned, a_par.returned);
    assert_eq!(a_seq.counts, a_par.counts);
    assert_eq!(b_seq.returned, b_par.returned);
    assert_eq!(b_seq.counts, b_par.counts);
    assert_eq!(seq.session_counts(), par.session_counts());
}

#[test]
fn mutating_the_table_invalidates_the_session() {
    let mut ds = small_prosper(7);
    let spec = QuerySpec::paper_default();
    let engine = QueryEngine::new();
    let first = engine.submit(&ds, &naive(spec, 3)).unwrap();

    // Append one row: same DatasetSpec, new table version.
    let row = ds.table.row(0);
    ds.table.push_row(row).unwrap();
    let after = engine.submit(&ds, &naive(spec, 3)).unwrap();
    assert_eq!(
        after.counts.reuse_hits, 0,
        "a new table version must not serve stale answers"
    );
    assert!(after.counts.evaluated >= first.counts.evaluated);
    assert_eq!(engine.stats().result_hits, 0, "result memo keys moved too");
    // A mutated table is a new table: the state it left can never be
    // asked about again, so its answers went as a dropped table's do.
    assert_eq!(engine.store().num_namespaces(), 1);
}

#[test]
fn the_row_tier_is_bounded_by_the_tables_that_are_live() {
    // One engine queries many small tables once each and drops them, as
    // a server's table LRU does; one table stays live throughout.
    const TABLES: u64 = 300;
    const ROWS: usize = 500;
    let table = |seed| {
        Dataset::generate(
            DatasetSpec {
                rows: ROWS,
                ..PROSPER
            },
            seed,
        )
    };
    let engine = QueryEngine::new();
    let kept = table(0);
    engine.submit(&kept, &intel("grade").with_seed(0)).unwrap();
    let udfs = engine.store().num_namespaces();
    assert!(udfs >= 1);
    for seed in 1..=TABLES {
        let ds = table(seed);
        engine.submit(&ds, &intel("grade").with_seed(seed)).unwrap();
        drop(ds);
        // Before any forced sweep, the borrows alone keep the entries
        // held to a few tables' worth: the pairs never more than double.
        assert!(
            engine.store().len() <= 4 * udfs * ROWS,
            "{} entries held after {seed} dropped tables",
            engine.store().len()
        );
    }
    let live_tables = 1;
    assert!(engine.store().num_namespaces() <= live_tables * udfs);
    assert!(engine.store().stats().invalidated > 0);
    // The live table kept its answers: asking again buys nothing.
    let paid = engine.session_counts().evaluated;
    engine.submit(&kept, &intel("grade").with_seed(1)).unwrap();
    assert_eq!(engine.session_counts().evaluated, paid);
    drop(kept);
    assert_eq!(engine.store().num_namespaces(), 0);
}

#[test]
fn a_clone_that_outlives_its_original_keeps_its_answers() {
    let spec = QuerySpec::paper_default();
    let engine = QueryEngine::new().with_result_capacity(0);
    let original = small_prosper(11);
    engine.submit(&original, &naive(spec, 1)).unwrap();
    let clone = original.clone();
    drop(original);
    // Other tables come and go, and a sweep runs.
    for seed in 100..110 {
        engine
            .submit(&small_prosper(seed), &naive(spec, 1))
            .unwrap();
    }
    assert_eq!(engine.store().num_namespaces(), 1);
    let paid = engine.session_counts().evaluated;
    let again = engine.submit(&clone, &naive(spec, 1)).unwrap();
    assert_eq!(again.counts.evaluated, 0, "the clone's answers survived");
    assert_eq!(engine.session_counts().evaluated, paid);

    // Two clones diverge: two live states, two tables. Each keeps its
    // own namespace, and the state they diverged from, which no clone
    // holds any more, is gone.
    let (mut left, mut right) = (clone.clone(), clone);
    let row = left.table.row(0);
    left.table.push_row(row).unwrap();
    let row = right.table.row(1);
    right.table.push_row(row).unwrap();
    engine.submit(&left, &naive(spec, 1)).unwrap();
    engine.submit(&right, &naive(spec, 1)).unwrap();
    assert_eq!(engine.store().num_namespaces(), 2);
    let paid = engine.session_counts().evaluated;
    for _ in 0..3 {
        engine.submit(&left, &naive(spec, 1)).unwrap();
        engine.submit(&right, &naive(spec, 1)).unwrap();
    }
    assert_eq!(engine.session_counts().evaluated, paid, "no clone thrashed");
    drop((left, right));
    assert_eq!(engine.store().num_namespaces(), 0);
}

#[test]
fn a_dropped_table_frees_what_the_engine_derived_from_it() {
    // One engine queries many small tables once each and drops them; the
    // partition each query derived goes with its table. One table stays
    // live throughout and keeps what was derived from it.
    const TABLES: u64 = 300;
    let table = |seed| {
        Dataset::generate(
            DatasetSpec {
                rows: 200,
                ..PROSPER
            },
            seed,
        )
    };
    let engine = QueryEngine::new();
    let kept = table(0);
    engine.submit(&kept, &intel("grade").with_seed(0)).unwrap();
    let mut partitions = Vec::new();
    for seed in 1..=TABLES {
        let ds = table(seed);
        engine.submit(&ds, &intel("grade").with_seed(seed)).unwrap();
        partitions.push(std::sync::Arc::downgrade(
            &ds.table.partition("grade", None).unwrap(),
        ));
        drop(ds);
    }
    let held = partitions.iter().filter(|p| p.strong_count() > 0).count();
    assert_eq!(held, 0, "{held} dropped tables' partitions are still held");
    // The live table's re-query derives nothing.
    let derived = engine.derived_stats().misses;
    engine.submit(&kept, &intel("grade").with_seed(1)).unwrap();
    assert_eq!(engine.derived_stats().misses, derived);
    assert_eq!(engine.stats().result_hits, 0, "the re-query ran in full");
}
