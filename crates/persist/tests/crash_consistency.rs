//! Crash-consistency property suite: whatever a crash (or bit rot)
//! leaves on disk, `PersistStore::open` must come back up without a
//! panic, and every record it recovers must be one the store actually
//! wrote — a damaged tail is *dropped*, never invented or trusted.
//!
//! Every property runs over the three frame kinds a directory can hold:
//! single-row records and stage-batch frames in a WAL, and page-image
//! frames in a snapshot. Whichever frame the damage hits, it costs that
//! frame and what follows it, never what precedes it: the rows that come
//! back are always a prefix of the write order.

use expred_persist::{PagePlanes, PersistConfig, PersistKey, PersistStore, PAGE_ROWS};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const KEY: PersistKey = PersistKey {
    udf: 0x5eed,
    table: 0x7ab1e,
    version: 0xfeed,
};

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "expred-crash-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// How the rows reach the disk, and so which kind of frame gets damaged.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// One `append_row` each: single-row records in the WAL.
    Rows,
    /// `append_pages` in batches of this many: batch frames in the WAL.
    Batches(usize),
    /// Appended, then compacted: page-image frames in the snapshot.
    Snapshot,
}

const LAYOUTS: [Layout; 4] = [
    Layout::Rows,
    Layout::Batches(7),
    Layout::Batches(64),
    Layout::Snapshot,
];

/// `rows` as the pages `append_pages` takes.
fn pages(rows: impl IntoIterator<Item = (u32, bool)>) -> Vec<(usize, PagePlanes)> {
    expred_stats::bits::pages_of(rows.into_iter().map(|(row, answer)| (row as usize, answer)))
}

/// The `i`-th row written: ids ascend with `i` and step across pages
/// every few rows, so a snapshot of them has several page frames.
fn row_id(i: u32) -> u32 {
    i * 1_500
}

/// The deterministic answer/timestamp written for the `i`-th row, so
/// recovery can be audited without keeping a side copy of the data.
fn expected(i: u32) -> (bool, u64) {
    (i.is_multiple_of(3), 1_000 + i as u64)
}

/// Writes `rows` row-answers under `layout` (auto-compaction off) and
/// returns the path of the file that holds them.
fn write_store(dir: &Path, rows: u32, layout: Layout) -> PathBuf {
    let store =
        PersistStore::open(PersistConfig::new(dir).with_compact_after(0)).expect("open store");
    let written: Vec<(u32, bool, u64)> = (0..rows)
        .map(|i| (row_id(i), expected(i).0, expected(i).1))
        .collect();
    match layout {
        Layout::Rows | Layout::Snapshot => {
            for &(row, answer, ts) in &written {
                store.append_row(KEY, row, answer, ts);
            }
        }
        Layout::Batches(size) => {
            for batch in written.chunks(size) {
                let pairs = pages(batch.iter().map(|&(r, a, _)| (r, a)));
                store.append_pages(KEY, &pairs, batch[0].2);
            }
        }
    }
    let prefix = match layout {
        Layout::Snapshot => {
            store.compact().expect("compact into a snapshot");
            "snapshot-"
        }
        _ => {
            store.sync().expect("sync the WAL");
            "wal-"
        }
    };
    drop(store);
    let file = std::fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix))
        })
        .max()
        .expect("the file exists");
    assert!(
        std::fs::metadata(&file).expect("stat").len() > 8,
        "the file must hold the appended rows"
    );
    file
}

/// The timestamp the `i`-th row was written with under `layout` (a batch
/// shares its first row's).
fn written_ts(i: u32, layout: Layout) -> u64 {
    match layout {
        Layout::Batches(size) => expected(i - i % size as u32).1,
        _ => expected(i).1,
    }
}

/// Reopens the store and checks the recovery contract: no panic; the
/// rows that came back are the first `n` written, for some `n` — damage
/// costs a frame and what follows, never what precedes; each carries its
/// answer; and each reads as old as the oldest write of its page, never
/// younger than its own. Returns `n`.
fn check_recovery(dir: &Path, rows: u32, layout: Layout) -> u32 {
    let store = PersistStore::open(PersistConfig::new(dir)).expect("recovery must not fail");
    let recovered = store.rows(KEY).unwrap_or_default();
    let n = recovered.len() as u32;
    assert!(n <= rows, "recovery invented records");
    for (i, &(row, answer, ts)) in (0..).zip(&recovered) {
        assert_eq!(row, row_id(i), "not a prefix of the write order");
        assert_eq!(answer, expected(i).0, "row {row}: recovered a wrong answer");
        let page = row as usize / PAGE_ROWS;
        let page_oldest = (0..n)
            .filter(|&j| row_id(j) as usize / PAGE_ROWS == page)
            .map(|j| written_ts(j, layout))
            .min();
        assert_eq!(Some(ts), page_oldest, "row {row}: not its page's stamp");
        assert!(ts <= written_ts(i, layout), "row {row} reads younger");
    }
    // A reopened store must also be writable: damage to the old tail
    // cannot poison new appends.
    let beyond = row_id(rows) + 7;
    store.append_pages(KEY, &pages([(beyond, true), (beyond + 1, false)]), 9_999);
    store.sync().expect("post-recovery writes flush");
    let after = store.rows(KEY).expect("namespace lives");
    assert_eq!(after.len() as u32, n + 2);
    assert!(after
        .iter()
        .any(|&(row, answer, _)| (row, answer) == (beyond, true)));
    n
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    // Property: truncating the file at *any* byte offset — a crash
    // mid-write — recovers a valid prefix of it: every surviving record
    // is genuine, and a cut inside the header loses (only) the whole
    // file.
    #[test]
    fn truncation_at_any_offset_recovers_a_valid_prefix(
        rows in 1u32..120,
        cut_fraction in 0.0f64..1.0,
        layout in 0usize..LAYOUTS.len(),
    ) {
        let layout = LAYOUTS[layout];
        let dir = unique_dir("truncate");
        let file = write_store(&dir, rows, layout);
        let len = std::fs::metadata(&file).expect("stat").len();
        let cut = (len as f64 * cut_fraction) as u64;
        let bytes = std::fs::read(&file).expect("read file");
        std::fs::write(&file, &bytes[..cut as usize]).expect("truncate file");

        let recovered = check_recovery(&dir, rows, layout);
        if cut == len {
            assert_eq!(recovered, rows, "an untouched file recovers fully");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Property: flipping any single byte — disk corruption — never
    // panics recovery and never yields a record that was not written.
    // (The CRC catches the flip; everything from the damaged frame on
    // is discarded.)
    #[test]
    fn a_flipped_byte_is_caught_not_served(
        rows in 1u32..120,
        flip_fraction in 0.0f64..1.0,
        xor in 1u8..=255,
        layout in 0usize..LAYOUTS.len(),
    ) {
        let layout = LAYOUTS[layout];
        let dir = unique_dir("flip");
        let file = write_store(&dir, rows, layout);
        let mut bytes = std::fs::read(&file).expect("read file");
        let at = ((bytes.len() - 1) as f64 * flip_fraction) as usize;
        bytes[at] ^= xor;
        std::fs::write(&file, &bytes).expect("write damaged file");

        check_recovery(&dir, rows, layout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Property: garbage appended past a clean shutdown — a torn final
    // write — is skipped; every genuine record still recovers.
    #[test]
    fn appended_garbage_does_not_mask_the_valid_prefix(
        rows in 1u32..120,
        garbage in proptest::collection::vec(0u8..=255, 1..64),
        layout in 0usize..LAYOUTS.len(),
    ) {
        let layout = LAYOUTS[layout];
        let dir = unique_dir("garbage");
        let file = write_store(&dir, rows, layout);
        let mut bytes = std::fs::read(&file).expect("read file");
        bytes.extend_from_slice(&garbage);
        std::fs::write(&file, &bytes).expect("write extended file");

        let recovered = check_recovery(&dir, rows, layout);
        assert_eq!(
            recovered, rows,
            "a torn tail must not cost any completed record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_zero_length_and_a_missing_wal_both_open_empty() {
    let dir = unique_dir("empty");
    let wal = write_store(&dir, 10, Layout::Rows);
    std::fs::write(&wal, b"").expect("truncate to zero");
    let store = PersistStore::open(PersistConfig::new(&dir)).expect("open over empty WAL");
    assert!(store.rows(KEY).unwrap_or_default().is_empty());
    drop(store);

    let fresh = unique_dir("missing");
    let store = PersistStore::open(PersistConfig::new(&fresh)).expect("open fresh dir");
    assert!(store.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

#[test]
fn appends_racing_compactions_all_survive_the_reopen() {
    // Four appenders, each with a namespace of its own, write batches
    // while the main thread compacts over and over: whichever side of a
    // freeze a batch lands on — in the snapshot, in the retired WAL, in
    // the new one, or in two of them — the reopen must hold all of it.
    const WRITERS: u64 = 4;
    const BATCHES: u32 = 60;
    const BATCH: u32 = 150;
    let key = |writer: u64| PersistKey { udf: writer, ..KEY };
    let dir = unique_dir("race");
    {
        // The queue is roomy on purpose: this is about the freeze, not
        // about shedding behind a busy flusher.
        let config = PersistConfig::new(&dir)
            .with_compact_after(1_000)
            .with_queue_capacity(1 << 20);
        let store = PersistStore::open(config).expect("open store");
        let start = Barrier::new(WRITERS as usize + 1);
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    for batch in 0..BATCHES {
                        let rows = pages(
                            (batch * BATCH..(batch + 1) * BATCH)
                                .map(|row| (row, row.is_multiple_of(3))),
                        );
                        store.append_pages(key(writer), &rows, 1 + u64::from(batch));
                    }
                });
            }
            start.wait();
            for _ in 0..8 {
                store.compact().expect("compaction under load");
            }
        });
        store.sync().expect("flush what the last compaction missed");
        assert!(store.stats().compactions >= 8);
    }
    let store = PersistStore::open(PersistConfig::new(&dir)).expect("reopen");
    for writer in 0..WRITERS {
        let rows = store.rows(key(writer)).expect("the namespace survived");
        assert_eq!(rows.len() as u32, BATCHES * BATCH, "writer {writer}");
        for (&(row, answer, _), want) in rows.iter().zip(0u32..) {
            assert_eq!((row, answer), (want, want.is_multiple_of(3)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
