//! A machine-independent gate on what a second tenant of one table costs:
//! counts live heap bytes instead of timing anything.
//!
//! Generation is deterministic, so one `TableKey` names one content, and
//! the tenant registry holds it once: a second tenant's first request for
//! the key takes a handle of its own over the content the first tenant
//! built — its columns, their stats and the partition the plan executes
//! — and pays only for what is its own: its engine, the answers it buys
//! and the outcome it keeps. This file is its own test binary, so its
//! counting allocator instruments nothing else, and it holds a single
//! `#[test]` so no sibling test allocates while it counts.

use expred_core::{IntelSampleConfig, PredictorChoice, QueryRequest};
use expred_serve::{EngineConfig, Generator, TableKey, TenantRegistry};
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

/// The most the second tenant of a 20 000-row table may add to the live
/// heap with its first automatic-predictor request.
const BOUND: usize = 128 * 1024;

#[test]
fn a_second_tenant_of_a_table_holds_its_content_once() {
    let registry = TenantRegistry::new(2, 4, EngineConfig::default());
    let key = TableKey {
        spec: Generator::Prosper,
        rows: 20_000,
        seed: 7,
    };
    // Ranking every candidate column builds every string column.
    let auto = QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Auto {
        label_fraction: 0.01,
    }))
    .with_seed(1);
    let first = registry.route("a").unwrap();
    let first_outcome = first.engine().submit(&first.dataset(&key), &auto).unwrap();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let second = registry.route("b").unwrap();
    let second_outcome = second
        .engine()
        .submit(&second.dataset(&key), &auto)
        .unwrap();
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    // The same answer, and the same bill: each tenant paid for its own.
    assert_eq!(second_outcome.returned, first_outcome.returned);
    assert_eq!(second_outcome.counts, first_outcome.counts);
    // The second tenant adds its engine, the sample's answers, the
    // outcome and its handle: 16 674 B. A copy of its own — the string
    // columns' codes, the stats and the winner's partition — added
    // 284 757 B. The bound leaves room for the engine to grow: it may
    // fall, never rise.
    assert!(
        held <= BOUND,
        "the second tenant's first automatic-predictor request holds {held} B"
    );
}
