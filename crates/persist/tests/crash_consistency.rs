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

use expred_persist::{PagePlanes, PersistConfig, PersistKey, PersistStore};
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

/// The deterministic answer written for the `i`-th row, so recovery can
/// be audited without keeping a side copy of the data.
fn expected(i: u32) -> bool {
    i.is_multiple_of(3)
}

/// Writes `rows` row-answers under `layout` (auto-compaction off) and
/// returns the path of the file that holds them.
fn write_store(dir: &Path, rows: u32, layout: Layout) -> PathBuf {
    let store =
        PersistStore::open(PersistConfig::new(dir).with_compact_after(0)).expect("open store");
    let written: Vec<(u32, bool)> = (0..rows).map(|i| (row_id(i), expected(i))).collect();
    match layout {
        Layout::Rows | Layout::Snapshot => {
            for &(row, answer) in &written {
                store.append_row(KEY, row, answer, 0);
            }
        }
        Layout::Batches(size) => {
            for batch in written.chunks(size) {
                store.append_pages(KEY, &pages(batch.iter().copied()));
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

/// Reopens the store and checks the recovery contract: no panic; the
/// rows that came back are the first `n` written, for some `n` — damage
/// costs a frame and what follows, never what precedes; and each carries
/// its answer. Returns `n`.
fn check_recovery(dir: &Path, rows: u32) -> u32 {
    let store = PersistStore::open(PersistConfig::new(dir)).expect("recovery must not fail");
    let recovered = store.rows(KEY).unwrap_or_default();
    let n = recovered.len() as u32;
    assert!(n <= rows, "recovery invented records");
    for (i, &(row, answer)) in (0..).zip(&recovered) {
        assert_eq!(row, row_id(i), "not a prefix of the write order");
        assert_eq!(answer, expected(i), "row {row}: recovered a wrong answer");
    }
    // A reopened store must also be writable: damage to the old tail
    // cannot poison new appends.
    let beyond = row_id(rows) + 7;
    store.append_pages(KEY, &pages([(beyond, true), (beyond + 1, false)]));
    store.sync().expect("post-recovery writes flush");
    let after = store.rows(KEY).expect("namespace lives");
    assert_eq!(after.len() as u32, n + 2);
    assert!(after.contains(&(beyond, true)));
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

        let recovered = check_recovery(&dir, rows);
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

        check_recovery(&dir, rows);
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

        let recovered = check_recovery(&dir, rows);
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
                        store.append_pages(key(writer), &rows);
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
        for (&(row, answer), want) in rows.iter().zip(0u32..) {
            assert_eq!((row, answer), (want, want.is_multiple_of(3)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reads_and_appends_racing_compactions_see_only_growth() {
    // One appender and one `pages` reader per state, over two states (a
    // compaction writes their pages out of RAM, and the next append
    // brings one back, or a read reads it from its frame), while the
    // main thread compacts over and over: each read holds every row that
    // reader saw before, with the same answer, and the reopen must hold
    // all of it.
    const BATCHES: u32 = 60;
    const BATCH: u32 = 150;
    let first = PersistKey { udf: 1, ..KEY };
    let second = PersistKey {
        udf: 2,
        table: KEY.table + 1,
        ..KEY
    };
    let dir = unique_dir("readers");
    {
        let config = PersistConfig::new(&dir)
            .with_compact_after(1_000)
            .with_queue_capacity(1 << 20);
        let store = PersistStore::open(config).expect("open store");
        let (start, done) = (Barrier::new(5), std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let appenders: Vec<_> = [first, second]
                .into_iter()
                .map(|key| {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        start.wait();
                        for batch in 0..BATCHES {
                            // Spread the batches over the compactions.
                            while store.stats().compactions < u64::from(batch / 10) {
                                std::thread::yield_now();
                            }
                            let rows = (batch * BATCH..(batch + 1) * BATCH)
                                .map(|row| (row, row.is_multiple_of(3)));
                            store.append_pages(key, &pages(rows));
                        }
                    })
                })
                .collect();
            let readers: Vec<_> = [first, second]
                .into_iter()
                .map(|key| {
                    let (store, start, done) = (&store, &start, &done);
                    scope.spawn(move || {
                        start.wait();
                        let (mut seen, mut reads) = (Vec::new(), 0u32);
                        while !done.load(Ordering::Acquire) {
                            let pages = store.pages(key).unwrap_or_default();
                            let rows: Vec<(usize, bool)> = pages
                                .iter()
                                .flat_map(|(page, planes)| {
                                    planes.rows(page * expred_persist::PAGE_ROWS)
                                })
                                .collect();
                            for &(row, answer) in &rows {
                                assert_eq!(answer, row % 3 == 0, "{key:?} row {row}");
                            }
                            let kept = seen.iter().all(|row| rows.binary_search(row).is_ok());
                            assert!(kept, "{key:?}: a read lost a row an earlier one held");
                            (seen, reads) = (rows, reads + 1);
                        }
                        reads
                    })
                })
                .collect();
            start.wait();
            for _ in 0..8 {
                store.compact().expect("compaction under load");
            }
            for appender in appenders {
                appender.join().expect("appender");
            }
            store.compact().expect("the compaction after the appends");
            done.store(true, Ordering::Release);
            for reader in readers {
                assert!(reader.join().expect("reader") > 0);
            }
        });
        store.sync().expect("flush what the last compaction missed");
        assert!(store.stats().compactions >= 9);
    }
    let store = PersistStore::open(PersistConfig::new(&dir)).expect("reopen");
    for key in [first, second] {
        let rows = store.rows(key).expect("the namespace survived");
        assert_eq!(rows.len() as u32, BATCHES * BATCH, "{key:?}");
        for (&(row, answer), want) in rows.iter().zip(0u32..) {
            assert_eq!((row, answer), (want, want.is_multiple_of(3)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
