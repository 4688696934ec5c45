//! A machine-independent gate on *how* tables are materialized: counts
//! heap allocations instead of timing them.
//!
//! A row-at-a-time generator allocates per cell (a `Vec<Value>` per row
//! and a `String` per categorical cell — more than 220 000 allocations
//! for 20 000 rows, and as many frees when the table is dropped). The
//! columnar one allocates per *column* and per *distinct* string, whether
//! it builds a column at generation or on the column's first read. This
//! file is its own test binary, so its counting allocator instruments
//! nothing else, and it holds a single `#[test]` so no sibling test
//! allocates while it counts.

use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
// `realloc` keeps its default (alloc + copy + dealloc through the two
// methods below), so a growing vector counts once per growth step.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, frees)` made while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        FREES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        FREES.load(Ordering::Relaxed) - before.1,
        out,
    )
}

#[test]
fn materializing_a_table_allocates_per_column_not_per_cell() {
    let rows = 20_000;
    let spec = DatasetSpec { rows, ..PROSPER };

    // Generation builds the predictor and the label, both straight off a
    // packed row plan (no label list per group); the rest waits for its
    // first read. Pinned at its count: it may fall, never rise.
    let (allocations, _, dataset) = counted(|| Dataset::generate(spec, 7));
    assert!(
        allocations <= 79,
        "generating {rows} rows made {allocations} allocations"
    );

    // Building every other column: the row plan once, then per column.
    let table = &dataset.table;
    let (allocations, _, ()) = counted(|| {
        for idx in 0..table.num_columns() {
            table.column_at(idx);
        }
    });
    assert!(
        allocations <= 1_000,
        "building every column of {rows} rows made {allocations} allocations"
    );

    // Group-by: a few vectors of codes and runs, and each group's key
    // twice (the codes' dictionary and the grouping's) — no row list and
    // no string per row. Pinned at their counts for the 8-group predictor
    // and a built 40-value string column: they may fall, never rise.
    for (column, k, pinned) in [("grade", 8, 31), ("zip3", 40, 95)] {
        let (allocations, _, groups) = counted(|| table.group_by(column).unwrap());
        assert_eq!(groups.num_groups(), k);
        assert!(
            allocations <= pinned,
            "group_by({column:?}) over {rows} rows made {allocations} allocations for {k} groups"
        );
    }

    let (_, frees, ()) = counted(|| drop(dataset));
    assert!(frees <= 2_000, "dropping {rows} rows made {frees} frees");
}
