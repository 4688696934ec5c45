//! Model-based test of the page write path: arbitrary sequences of
//! `append_pages` and `append_row` over rows on every word and page edge
//! (and the last page of the `u32` row space), repeats within and across
//! batches, with `compact` and reopen at arbitrary points, must leave
//! exactly a first-write-wins map of row → (answer, oldest write that
//! landed a row on its page) — live, after every reopen, and at the end —
//! while `appended` and `flushed` count its distinct rows.
//!
//! The WAL's page-image frames are held to the row-batch frames the
//! previous writer produced for the same stage batches: replaying either
//! rebuilds the same index — rows, answers, each page's oldest stamp —
//! and recovers as many rows as the store appended and flushed.

use expred_persist::format::{encode_frame, file_header};
use expred_persist::{PersistConfig, PersistKey, PersistStore, Record, PAGE_ROWS};
use expred_stats::bits::{pages_of, rows_of};
use proptest::prelude::*;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

const KEY: PersistKey = PersistKey {
    udf: 0x9a9e,
    table: 0x7ab1e,
    version: 3,
};

/// Word edges, page edges, a far page, and the top of the row space.
const ROWS: [u32; 13] = [
    0,
    1,
    63,
    64,
    65,
    4_095,
    4_096,
    4_097,
    8_191,
    8_192,
    70_000,
    u32::MAX - 64,
    u32::MAX,
];

/// One step: an operation code, the rows it offers (selectors into
/// [`ROWS`] with answers), and its write time.
type Op = (u8, Vec<(usize, bool)>, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let rows = prop::collection::vec((0usize..ROWS.len(), any::<bool>()), 0..12);
    prop::collection::vec((0u8..10, rows, 0u64..1_000), 1..40)
}

/// The reference: answers and per-page oldest stamps.
#[derive(Debug, Default)]
struct Model {
    answers: BTreeMap<u32, bool>,
    stamps: BTreeMap<u32, u64>,
}

impl Model {
    fn write(&mut self, row: u32, answer: bool, ts: u64) {
        if let Entry::Vacant(slot) = self.answers.entry(row) {
            slot.insert(answer);
            let stamp = self.stamps.entry(row / PAGE_ROWS as u32).or_insert(ts);
            *stamp = (*stamp).min(ts);
        }
    }

    fn rows(&self) -> Option<Vec<(u32, bool, u64)>> {
        let rows = self.answers.iter();
        let rows =
            rows.map(|(&row, &answer)| (row, answer, self.stamps[&(row / PAGE_ROWS as u32)]));
        Some(rows.collect::<Vec<_>>()).filter(|rows| !rows.is_empty())
    }
}

fn open(dir: &std::path::Path) -> PersistStore {
    PersistStore::open(PersistConfig::new(dir).with_compact_after(0)).expect("open store")
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "expred-page-props-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The WAL frames the row-batch writer appended for one stage batch:
/// the rows new to `seen`, one `Row` record if there is just one, else
/// one `RowBatch` frame per page, every row stamped `ts`.
fn row_batch_frames(seen: &mut BTreeSet<u32>, batch: &[(u32, bool)], ts: u64) -> Vec<Record> {
    let pages = pages_of(batch.iter().map(|&(row, answer)| (row as usize, answer)));
    let fresh: Vec<(u32, bool, u64)> = rows_of(&pages)
        .filter(|&(row, _)| seen.insert(row as u32))
        .map(|(row, answer)| (row as u32, answer, ts))
        .collect();
    match fresh[..] {
        [] => Vec::new(),
        [(row, answer, ts_nanos)] => vec![Record::Row {
            key: KEY,
            row,
            answer,
            ts_nanos,
        }],
        _ => fresh
            .chunk_by(|a, b| a.0 as usize / PAGE_ROWS == b.0 as usize / PAGE_ROWS)
            .map(|rows| Record::RowBatch {
                key: KEY,
                rows: rows.to_vec(),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pages_and_rows_land_as_a_first_write_wins_map(ops in ops()) {
        let dir = scratch_dir("map");
        let mut model = Model::default();
        let (mut appended, mut flushed) = (0, 0);
        let mut store = open(&dir);
        for (op, rows, ts) in ops {
            let rows: Vec<(u32, bool)> = rows.iter().map(|&(at, answer)| (ROWS[at], answer)).collect();
            match op {
                0..=4 => {
                    let pages = pages_of(rows.iter().map(|&(row, answer)| (row as usize, answer)));
                    store.append_pages(KEY, &pages, ts);
                    for &(row, answer) in &rows {
                        model.write(row, answer, ts);
                    }
                }
                5..=6 => {
                    for &(row, answer) in &rows {
                        store.append_row(KEY, row, answer, ts);
                        model.write(row, answer, ts);
                    }
                }
                7 => store.compact().expect("compact"),
                _ => {
                    store.sync().expect("sync");
                    (appended, flushed) = (appended + store.stats().appended, flushed + store.stats().flushed);
                    drop(store);
                    store = open(&dir);
                    prop_assert_eq!(store.rows(KEY), model.rows(), "reopened");
                }
            }
            prop_assert_eq!(store.rows(KEY), model.rows());
        }
        store.sync().expect("sync");
        appended += store.stats().appended;
        flushed += store.stats().flushed;
        prop_assert_eq!((appended, flushed), (model.answers.len() as u64, model.answers.len() as u64));
        prop_assert_eq!(store.len(), model.answers.len());
        drop(store);
        prop_assert_eq!(open(&dir).rows(KEY), model.rows(), "final reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn page_images_rebuild_the_index_row_batches_built(
        // Stage batches over every edge: repeats within and across
        // batches, lone rows, several pages at once.
        batches in prop::collection::vec(
            (prop::collection::vec((0usize..ROWS.len() + 60, any::<bool>()), 0..40), 0u64..1_000),
            1..12,
        ),
    ) {
        // Selectors past `ROWS` are dense runs over the first page edge.
        let row = |at: usize| {
            ROWS.get(at)
                .copied()
                .unwrap_or_else(|| 4_096 - 30 + (at - ROWS.len()) as u32)
        };
        let batches: Vec<(Vec<(u32, bool)>, u64)> = batches
            .iter()
            .map(|(rows, ts)| (rows.iter().map(|&(at, answer)| (row(at), answer)).collect(), *ts))
            .collect();
        // Through the page-image writer.
        let images = scratch_dir("images");
        let store = open(&images);
        for (rows, ts) in &batches {
            let pages = pages_of(rows.iter().map(|&(row, answer)| (row as usize, answer)));
            store.append_pages(KEY, &pages, *ts);
        }
        store.sync().expect("sync");
        let (live, stats) = (store.rows(KEY), store.stats());
        drop(store);
        // The row-batch frames of the same batches, as the WAL file the
        // previous writer left.
        let batched = scratch_dir("batches");
        std::fs::create_dir_all(&batched).expect("create dir");
        let mut wal = file_header().to_vec();
        let mut seen = BTreeSet::new();
        let mut weight = 0;
        for (rows, ts) in &batches {
            for frame in row_batch_frames(&mut seen, rows, *ts) {
                weight += match &frame {
                    Record::RowBatch { rows, .. } => rows.len(),
                    _ => 1,
                };
                encode_frame(&frame, &mut wal);
            }
        }
        std::fs::write(batched.join("wal-000000"), wal).expect("write WAL");

        let from_images = open(&images);
        let from_batches = open(&batched);
        prop_assert_eq!(&from_images.rows(KEY), &from_batches.rows(KEY));
        prop_assert_eq!(&live, &from_batches.rows(KEY), "the live index");
        let distinct = seen.len() as u64;
        prop_assert_eq!((stats.appended, stats.flushed), (distinct, weight as u64));
        prop_assert_eq!(from_images.stats().recovered_rows, distinct);
        prop_assert_eq!(from_batches.stats().recovered_rows, distinct);
        drop((from_images, from_batches));
        let _ = std::fs::remove_dir_all(&images);
        let _ = std::fs::remove_dir_all(&batched);
    }
}
