//! A re-offer is the hot deduplication path of every append: a row the
//! index already holds changes nothing, so offering it again must not
//! allocate — no copy of the page's planes, no frame for the WAL. A page
//! a snapshot holds whole is on disk: a re-offer of exactly the rows its
//! frame holds reads nothing, and the first re-offer of fewer reads it
//! back, once. A counting allocator, local to this binary, counts the
//! calling thread's allocations.

use expred_persist::{PersistConfig, PersistKey, PersistStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_re_offer_to_a_resident_page_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("expred-reoffer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        PersistStore::open(PersistConfig::new(&dir).with_compact_after(0)).expect("open the store");
    let key = PersistKey {
        udf: 1,
        table: 2,
        version: 3,
    };
    let pages = expred_stats::bits::pages_of((0..20_000).map(|row| (row, row % 3 == 0)));
    let re_offer = || {
        let before = allocations();
        store.append_pages(key, &pages);
        store.append_row(key, 7, false, 0);
        allocations() - before
    };
    store.append_pages(key, &pages);
    // No snapshot holds the pages yet, so they are resident.
    assert_eq!(store.resident_pages(), 5);
    for _ in 0..10 {
        assert_eq!(re_offer(), 0, "a re-offer to resident pages allocated");
    }

    // A compaction writes every page whole, and they leave RAM. A
    // re-offer of the whole pages knows exactly the rows their frames
    // hold, so it reads none back; the one-row re-offer knows fewer than
    // page 0's frame, so the first reads that page back once — a frame
    // buffer and the planes' `Arc` — and later ones find it resident.
    store.compact().expect("compact");
    assert_eq!(store.resident_pages(), 0, "a snapshot holds every page");
    assert_eq!(re_offer(), 2, "page 0 read back once");
    assert_eq!(store.resident_pages(), 1);
    for _ in 0..10 {
        assert_eq!(re_offer(), 0, "a re-offer to read-back pages allocated");
    }
    assert_eq!(store.stats().appended, 20_000);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
