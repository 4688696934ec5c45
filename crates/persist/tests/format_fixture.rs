//! Files written by an earlier build still open, row for row.
//!
//! `fixtures/v1` was written by the `PersistStore` of the release before
//! the durable seam moved to pages, and is committed as bytes: a
//! snapshot of two namespaces' page images plus a selectivity record,
//! and a WAL holding one single-row append and one batch append that
//! spans a page edge. Its frames carry the write times that build
//! stamped, which today's decoder reads past. Unlike tests that encode
//! their own files, an encoder and a decoder that drift together cannot
//! pass this one.

use expred_persist::format::{check_header, replay_frames, HEADER_LEN};
use expred_persist::{PersistConfig, PersistKey, PersistStore, Record};
use std::path::{Path, PathBuf};

const K1: PersistKey = PersistKey {
    udf: 0xA1,
    table: 0xB1,
    version: 0xC1,
};
const K2: PersistKey = PersistKey { udf: 0xA2, ..K1 };

fn fixture(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/v1")
        .join(file)
}

/// A copy of the fixture directory: opening a store may rewrite files.
fn copy_of_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("expred-fixture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the copy");
    for file in ["snapshot-000001", "wal-000001"] {
        std::fs::copy(fixture(file), dir.join(file)).expect("copy a fixture file");
    }
    dir
}

/// Every record of a fixture file, which must be intact.
fn records(file: &str) -> Vec<Record> {
    records_at(&fixture(file))
}

/// Every record of the format-1 file at `path`, which must be intact.
fn records_at(path: &Path) -> Vec<Record> {
    let file = path.display();
    let bytes = std::fs::read(path).expect("read a store file");
    assert!(check_header(&bytes), "{file}: not a format-1 file");
    let mut records = Vec::new();
    let valid = replay_frames(&bytes[HEADER_LEN..], |record| records.push(record));
    assert_eq!(HEADER_LEN + valid, bytes.len(), "{file} has a damaged tail");
    records
}

/// `K1`'s rows.
const K1_ROWS: [(u32, bool); 13] = [
    (0, true),
    (1, false),
    (2, false),
    (63, true),
    (64, false),
    (100, false),
    (101, false),
    (102, true),
    (4_095, true),
    (4_096, false),
    (5_000, false),
    (8_191, true),
    (9_000, true),
];

/// `K2`'s rows: the single-row append and the batch.
const K2_ROWS: [(u32, bool); 6] = [
    (7, false),
    (4_094, true),
    (4_095, false),
    (4_096, true),
    (4_097, false),
    (4_098, true),
];

#[test]
fn the_fixture_holds_the_frames_it_claims() {
    let snapshot = records("snapshot-000001");
    let images: Vec<(PersistKey, u32)> = snapshot
        .iter()
        .filter_map(|record| match record {
            Record::PageImage { key, page, .. } => Some((*key, *page)),
            _ => None,
        })
        .collect();
    assert_eq!(images, [(K1, 0), (K1, 1), (K1, 2)]);
    assert_eq!(
        snapshot.last(),
        Some(&Record::Selectivity {
            key: K1,
            passes: 7,
            total: 20
        })
    );
    assert_eq!(snapshot.len(), images.len() + 1);
    match &records("wal-000001")[..] {
        [Record::Row {
            key: K2, row: 7, ..
        }, Record::RowBatch { key: K2, rows }] => {
            assert_eq!(rows.len(), 5, "one batch across the page edge")
        }
        other => panic!("unexpected WAL frames: {other:?}"),
    }
}

#[test]
fn a_directory_the_parent_release_wrote_opens_with_the_pinned_rows() {
    let dir = copy_of_fixture("open");
    let check = |store: &PersistStore, stage: &str| {
        assert_eq!(store.rows(K1).as_deref(), Some(&K1_ROWS[..]), "{stage}");
        assert_eq!(store.rows(K2).as_deref(), Some(&K2_ROWS[..]), "{stage}");
        let pages = store.pages(K2).expect("K2 persisted");
        let pages: Vec<(usize, usize)> = pages.iter().map(|p| (p.0, p.1.len())).collect();
        assert_eq!(pages, vec![(0, 3), (1, 3)], "{stage}");
        assert_eq!(store.len(), 19, "{stage}");
    };
    let store = PersistStore::open(PersistConfig::new(&dir)).expect("open the fixture");
    let stats = store.stats();
    assert_eq!(
        (
            stats.recovered_rows,
            stats.recovered_namespaces,
            stats.tail_bytes_discarded
        ),
        (19, 2, 0)
    );
    check(&store, "opened");
    // Today's writer re-encodes the same rows, and leaves the
    // selectivity record out: the answers carry pass rates now.
    store.compact().expect("compact the fixture");
    drop(store);
    let compacted = records_at(&dir.join("snapshot-000002"));
    assert!(
        compacted
            .iter()
            .all(|record| matches!(record, Record::PageImage { .. })),
        "{compacted:?}"
    );
    let store = PersistStore::open(PersistConfig::new(&dir)).expect("reopen");
    check(&store, "compacted and reopened");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
