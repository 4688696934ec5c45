//! A machine-independent gate on what a generated table's string columns
//! hold: counts live heap bytes instead of timing anything.
//!
//! Every categorical a generator draws takes at most 40 values, so its
//! codes are stored a byte per row, and the row plan a table keeps for its
//! lazy columns is a byte per row too. At four bytes a row (one `u32` code
//! per row and a `u32` plan cell) the ten string columns and the plan of a
//! 20 000-row table held ≈ 880 KB; at one byte they hold ≈ 220 KB. This
//! file is its own test binary, so its counting allocator instruments
//! nothing else, and it holds a single `#[test]` so no sibling test
//! allocates while it counts.

use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
use expred_table::DataType;
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

/// The most a 20 000-row table may hold once its string columns are
/// built.
const BOUND: usize = 236_000;

#[test]
fn built_string_columns_hold_a_byte_per_row() {
    let rows = 20_000;
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let dataset = Dataset::generate(DatasetSpec { rows, ..PROSPER }, 7);
    let table = &dataset.table;
    let strings: Vec<usize> = (0..table.num_columns())
        .filter(|&idx| table.schema().fields()[idx].data_type() == DataType::Str)
        .collect();
    assert_eq!(strings.len(), 10, "the predictor and nine auxiliaries");
    for &idx in &strings {
        table.column_at(idx);
    }
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    // The table now holds its ten string columns' codes (200 KB), the row
    // plan (20 KB), the label column (its true-row plane, 2.5 KB, where a
    // byte per cell held 20 KB), and the dictionaries: 235 711 B, where
    // four-byte codes and plan cells held 913 319 B. Pinned at its size:
    // it may fall, never rise.
    assert!(
        held <= BOUND,
        "a {rows}-row table with every string column built holds {held} B"
    );
}
