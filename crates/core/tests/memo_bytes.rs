//! A machine-independent gate on what the result memo holds: counts live
//! heap bytes instead of timing anything.
//!
//! Once a table's rows are decided, every `intel_sample` request over it
//! returns the decided positives whatever its seed (§4.2: an evaluated
//! tuple is returned, or dropped, without being evaluated again). So
//! 1 024 distinct-seed outcomes over one decided 20 000-row table carry
//! one answer, and the memo keeps that answer's 2.5 KB plane once
//! rather than once per entry. This file is its own test binary, so its
//! counting allocator instruments nothing else, and it holds a single
//! `#[test]` so no sibling test allocates while it counts.

use expred_core::{IntelSampleConfig, PredictorChoice, QueryEngine, QueryRequest};
use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
use expred_udf::{parse_predicate, CostModel, OracleRegistry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
// `realloc` keeps its default (alloc + copy + dealloc through the two
// methods below), so a growing vector is counted at its new size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Distinct request seeds measured: the memo's default capacity.
const OUTCOMES: u64 = 1024;

/// The most the memo may hold once it has taken [`OUTCOMES`] outcomes.
const BOUND: usize = 512 * 1024;

#[test]
fn outcomes_over_a_decided_table_share_one_plane() {
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 20_000,
            ..PROSPER
        },
        7,
    );
    let engine = QueryEngine::new();
    // An expression scan evaluates every row: the table is decided.
    let label = parse_predicate("udf_label", &OracleRegistry::new()).expect("a known oracle");
    let scan = QueryRequest::expr_scan(label, CostModel::PAPER_DEFAULT);
    engine.submit(&ds, &scan).expect("the scan runs");
    let intel = QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
        "grade".into(),
    )));
    // One run outside the count derives what the table memoizes for
    // every later run (the partition, the ground-truth plane).
    let warm = engine.submit(&ds, &intel.clone().with_seed(0)).unwrap();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for seed in 1..=OUTCOMES {
        let outcome = engine.submit(&ds, &intel.clone().with_seed(seed)).unwrap();
        assert_eq!(
            outcome.returned, warm.returned,
            "seed {seed}: the decided positives"
        );
    }
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(
        engine.session_counts().evaluated,
        ds.table.num_rows() as u64
    );
    assert_eq!(engine.result_memo_stats().insertions, OUTCOMES + 2);
    // With a private plane per entry the memo held 2 600 870 B here;
    // sharing the one answer's plane, it holds 337 910 B (≈ 330 B an
    // entry: identity, bill and map slots).
    assert!(
        held <= BOUND,
        "{OUTCOMES} memoized outcomes over one decided table hold {held} B"
    );
}
