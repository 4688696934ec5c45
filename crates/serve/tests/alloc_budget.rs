//! Allocations per `/query` kind: a deterministic cost gate beside the
//! timings, which drift with the box.
//!
//! Each kind's body runs the server's request path in process —
//! [`parse_query_body`], a [`TenantRegistry`] tenant's table and engine,
//! [`render_outcome`] — on the sequential backend, once to warm the
//! tenant (its table, its derived partitions, the render tables) and
//! then under a new request seed, so the measured request is not a memo
//! hit; the `memo hit` row repeats the warming request's own seed
//! instead, so the measured request is served from the result memo. A
//! counting global allocator tallies the allocations the calling
//! thread makes for the measured request and the bytes they ask for (a
//! `realloc` counts as one allocation of its new size). The sequential
//! engine allocates on the calling thread only, and counting per thread
//! keeps the other tests of this binary out of the tally.
//!
//! Both figures must stay within [`TOLERANCE`] of the pinned table. A
//! change that moves a figure past it re-pins the table and says why in
//! `CHANGES.md`.

use expred_serve::api::{parse_query_body, render_outcome};
use expred_serve::{EngineConfig, TenantRegistry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting what the current thread allocates.
struct Counting;

thread_local! {
    /// (allocations, bytes) made on this thread so far.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // A thread being torn down has no counter left; its allocations go
    // uncounted.
    let _ = COUNTS.try_with(|counts| {
        let (allocations, total) = counts.get();
        counts.set((allocations + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded to `System` unchanged, so `System`'s
// guarantees are this allocator's; counting touches only a thread-local
// `Cell`, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc`, passed on as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`; the caller's other guarantees are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How far a measured figure may stray from its pin, as a share of the
/// pin. The counts are deterministic on one toolchain; the slack covers
/// a standard library whose collections grow differently.
const TOLERANCE: f64 = 0.05;

/// The request seed of the request that warms the tenant.
const WARM_SEED: u64 = 1;

/// A seed the warming request did not use: the measured request runs.
const NEW_SEED: u64 = 2;

/// Per row: a name, its `query` object and the seed of the measured
/// request, then the pinned (allocations, bytes) of that one warm
/// request over a 5 000-row prosper table.
const BUDGETS: [(&str, &str, u64, u64, u64); 8] = [
    ("naive", r#"{"kind": "naive"}"#, NEW_SEED, 31, 74_087),
    (
        "optimal",
        r#"{"kind": "optimal", "predictor": "grade"}"#,
        NEW_SEED,
        58,
        28_405,
    ),
    // Re-pinned from (258, 43 320) when §4.3's search began to stop on
    // a predicted saving: it takes fewer draw-and-solve steps.
    (
        "adaptive",
        r#"{"kind": "adaptive", "predictor": "grade"}"#,
        NEW_SEED,
        178,
        35_574,
    ),
    (
        "iterative",
        r#"{"kind": "iterative", "predictor": "grade"}"#,
        NEW_SEED,
        459,
        86_667,
    ),
    (
        "intel_sample",
        r#"{"kind": "intel_sample", "predictor": "grade"}"#,
        NEW_SEED,
        105,
        28_099,
    ),
    // Ranking partitions no candidate; the measured request derives the
    // partition of its own winner, which the warming request's was not.
    (
        "intel_sample auto",
        r#"{"kind": "intel_sample"}"#,
        NEW_SEED,
        363,
        114_230,
    ),
    (
        "expr",
        r#"{"kind": "expr", "predicate": "udf_label"}"#,
        NEW_SEED,
        27,
        16_057,
    ),
    (
        "memo hit",
        r#"{"kind": "intel_sample", "predictor": "grade"}"#,
        WARM_SEED,
        3,
        11_361,
    ),
];

/// Serves one `/query` body the way the server's handler does and
/// returns the response body.
fn serve(registry: &TenantRegistry, body: &str) -> Vec<u8> {
    let query = parse_query_body(body.as_bytes(), 100_000).expect("body parses");
    let tenant = registry.route("alloc").expect("a tenant is admitted");
    let dataset = tenant.dataset(&query.table);
    let outcome = tenant
        .engine()
        .submit(&dataset, &query.request)
        .expect("query runs");
    render_outcome(tenant.name(), &outcome)
}

/// (allocations, bytes) of one request of `query` under `seed`, after
/// one under [`WARM_SEED`].
fn measure(query: &str, seed: u64) -> (u64, u64) {
    let body = |seed: u64| {
        format!(
            r#"{{"table": {{"spec": "prosper", "rows": 5000, "seed": 3}},
                "query": {query}, "seed": {seed}}}"#
        )
    };
    let registry = TenantRegistry::new(4, 4, EngineConfig::default());
    serve(&registry, &body(WARM_SEED));
    let body = body(seed);
    let before = COUNTS.with(Cell::get);
    let response = serve(&registry, &body);
    let after = COUNTS.with(Cell::get);
    assert!(!response.is_empty());
    (after.0 - before.0, after.1 - before.1)
}

fn within(got: u64, pinned: u64) -> bool {
    (got as f64 - pinned as f64).abs() <= TOLERANCE * pinned as f64
}

#[test]
fn every_kind_allocates_what_its_budget_pins() {
    let got: Vec<(&str, u64, u64)> = BUDGETS
        .iter()
        .map(|&(kind, query, seed, _, _)| {
            let (allocations, bytes) = measure(query, seed);
            (kind, allocations, bytes)
        })
        .collect();
    let strayed: Vec<_> = BUDGETS
        .iter()
        .zip(&got)
        .filter(
            |((_, _, _, allocations, bytes), (_, got_allocations, got_bytes))| {
                !within(*got_allocations, *allocations) || !within(*got_bytes, *bytes)
            },
        )
        .map(
            |((kind, _, _, allocations, bytes), (_, got_allocations, got_bytes))| {
                format!(
                    "{kind}: pinned ({allocations}, {bytes}), got ({got_allocations}, {got_bytes})"
                )
            },
        )
        .collect();
    assert!(
        strayed.is_empty(),
        "allocations past the budget:\n{}\nmeasured: {got:?}",
        strayed.join("\n")
    );
}

#[test]
fn a_repeated_request_counts_the_same() {
    let query = r#"{"kind": "intel_sample", "predictor": "grade"}"#;
    assert_eq!(measure(query, NEW_SEED), measure(query, NEW_SEED));
}
