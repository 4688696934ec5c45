//! A machine-independent gate on what ranking predictor columns leaves
//! behind: counts live heap bytes instead of timing anything.
//!
//! An `intel_sample` request with an automatic predictor ranks every
//! candidate column on a ≈ 1 % labelled sample (§4.4). Ranking reads each
//! candidate's memoized stats — its group sizes and code → group map —
//! and walks only the labelled rows through the column's byte-wide codes,
//! so the table memo ends up holding one partition: the winner's, which
//! the plan executes. This file is its own test binary, so its counting
//! allocator instruments nothing else, and it holds a single `#[test]` so
//! no sibling test allocates while it counts.

use expred_core::{IntelSampleConfig, PredictorChoice, QueryEngine, QueryRequest};
use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
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

/// The most the first automatic-predictor request may add to the live
/// heap of a cold 20 000-row table.
const BOUND: usize = 256 * 1024;

#[test]
fn ranking_a_cold_table_keeps_one_partition() {
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 20_000,
            ..PROSPER
        },
        7,
    );
    let engine = QueryEngine::new();
    let auto = QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Auto {
        label_fraction: 0.01,
    }));
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let outcome = engine.submit(&ds, &auto.with_seed(1)).unwrap();
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    drop(outcome);
    assert_eq!(engine.derived_stats().misses, 1, "the winner's partition");
    // The request builds the table's string columns (≈ 200 KB of byte
    // codes), and keeps the winner's partition, each candidate's stats,
    // the sample's answers and the outcome: 250 741 B. Scoring through
    // partitions kept one per eligible column (nine here): 466 447 B.
    // Pinned near its size: it may fall, never rise past the bound.
    assert!(
        held <= BOUND,
        "the first automatic-predictor request holds {held} B"
    );
}
