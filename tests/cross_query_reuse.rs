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
}
