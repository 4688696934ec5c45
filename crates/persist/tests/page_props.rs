//! Model-based test of the page write path: arbitrary sequences of
//! `append_pages` and `append_row` over rows on every word and page edge
//! (and the last page of the `u32` row space), repeats within and across
//! batches, with `compact` and reopen at arbitrary points, must leave
//! exactly a first-write-wins map of row → (answer, oldest write that
//! landed a row on its page) — live, after every reopen, and at the end —
//! while `appended` and `flushed` count its distinct rows.

use expred_persist::{PersistConfig, PersistKey, PersistStore, PAGE_ROWS};
use expred_stats::bits::pages_of;
use proptest::prelude::*;
use std::collections::btree_map::{BTreeMap, Entry};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pages_and_rows_land_as_a_first_write_wins_map(ops in ops()) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "expred-page-props-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
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
}
