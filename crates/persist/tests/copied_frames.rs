//! Crash consistency of a compaction that copies frames. A page that
//! left RAM goes into the next snapshot as the bytes of its old frame
//! (the frame carries its own CRC), beside the pages still in RAM, which
//! are encoded. Whatever a crash leaves of that compaction, the store
//! reopens to one whole generation: the old one while the new snapshot
//! is still a temp file, cut at any frame boundary or inside a frame, and
//! the new one once it is renamed into place. Either way every page reads
//! back, the copied ones at their new offsets. A frame that rots on disk
//! after the open is checked before it is copied, and left out: it costs
//! its own page, never the frames after it.

use expred_persist::format::{decode_frame, HEADER_LEN};
use expred_persist::{PagePlanes, PersistConfig, PersistKey, PersistStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const NAMESPACES: u64 = 6;

fn key(n: u64) -> PersistKey {
    PersistKey {
        udf: n,
        table: 0x7ab1e,
        version: 0xc0f7,
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("expred-copied-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the directory");
    dir
}

fn pages(rows: &[(u32, bool)]) -> Vec<(usize, PagePlanes)> {
    expred_stats::bits::pages_of(rows.iter().map(|&(row, answer)| (row as usize, answer)))
}

/// The first life's rows of namespace `n`: three pages' worth, sparse.
fn first_rows(n: u64) -> Vec<(u32, bool)> {
    let step = 7 + n as usize;
    (0..10_000)
        .step_by(step)
        .map(|row| (row, row % 3 == 0))
        .collect()
}

/// The second life adds rows to namespaces 0 and 1 only: one on a page
/// that is on disk, and a page of its own.
fn second_rows(n: u64) -> Vec<(u32, bool)> {
    match n {
        0 | 1 => vec![(1, true), (20_000, false), (20_001, true)],
        _ => Vec::new(),
    }
}

/// Every namespace's rows, as the store should hold them.
fn expected() -> BTreeMap<PersistKey, Vec<(u32, bool)>> {
    (0..NAMESPACES)
        .map(|n| {
            let mut rows = first_rows(n);
            rows.extend(second_rows(n));
            rows.sort_unstable();
            (key(n), rows)
        })
        .collect()
}

fn open(dir: &Path) -> PersistStore {
    PersistStore::open(PersistConfig::new(dir).with_compact_after(0)).expect("open the store")
}

fn contents(store: &PersistStore) -> BTreeMap<PersistKey, Vec<(u32, bool)>> {
    let keys = store.namespaces().into_iter();
    keys.map(|key| (key, store.rows(key).unwrap_or_default()))
        .collect()
}

/// The frames of a store file: each one's bytes, in order.
fn frames(bytes: &[u8]) -> Vec<&[u8]> {
    let (mut at, mut frames) = (HEADER_LEN, Vec::new());
    while at < bytes.len() {
        let (_, len) = decode_frame(&bytes[at..]).expect("an intact frame");
        frames.push(&bytes[at..at + len]);
        at += len;
    }
    frames
}

#[test]
fn a_compaction_that_copies_frames_recovers_one_whole_generation() {
    let dir = unique_dir("life");
    // First life: every namespace is written and compacted into
    // snapshot 1.
    let store = open(&dir);
    for n in 0..NAMESPACES {
        store.append_pages(key(n), &pages(&first_rows(n)));
    }
    store.compact().expect("first compaction");
    drop(store);

    // Second life: the open leaves every page on disk, and the appends
    // read back only the pages they touch.
    let store = open(&dir);
    assert_eq!(store.resident_pages(), 0, "an open loads no page");
    for n in 0..NAMESPACES {
        store.append_pages(key(n), &pages(&second_rows(n)));
    }
    store.sync().expect("sync the WAL");
    assert_eq!(store.resident_pages(), 4, "two touched pages per namespace");
    let old: Vec<(&str, Vec<u8>)> = ["snapshot-000001", "wal-000001"]
        .into_iter()
        .map(|file| {
            (
                file,
                std::fs::read(dir.join(file)).expect("the old generation"),
            )
        })
        .collect();
    store.compact().expect("the compaction that copies");
    assert_eq!(
        contents(&store),
        expected(),
        "copied pages read back in place"
    );
    assert_eq!(store.resident_pages(), 0, "a snapshot holds every page");
    drop(store);

    // The new snapshot holds every untouched page's old frame, byte for
    // byte, and encodes the touched ones afresh.
    let new = std::fs::read(dir.join("snapshot-000002")).expect("the new snapshot");
    let copied = frames(&old[0].1);
    let written = frames(&new);
    let kept = written
        .iter()
        .filter(|frame| copied.contains(frame))
        .count();
    assert_eq!((written.len(), kept), (copied.len() + 2, copied.len() - 2));

    // A crash while the new snapshot is still a temp file, cut at every
    // frame boundary and inside every frame: the old generation, whole.
    let mut cuts = vec![0, HEADER_LEN / 2];
    let mut end = HEADER_LEN;
    for frame in &written {
        cuts.extend([end, end + frame.len() / 2]);
        end += frame.len();
    }
    cuts.push(end);
    let crash = unique_dir("crash");
    for cut in cuts {
        let _ = std::fs::remove_dir_all(&crash);
        std::fs::create_dir_all(&crash).expect("create the crash directory");
        for (file, bytes) in &old {
            std::fs::write(crash.join(file), bytes).expect("the old generation");
        }
        std::fs::write(crash.join("snapshot-000002.tmp"), &new[..cut]).expect("the temp file");
        let store = open(&crash);
        assert_eq!(contents(&store), expected(), "temp snapshot cut at {cut}");
        assert_eq!(store.stats().tail_bytes_discarded, 0, "cut at {cut}");
    }

    // A crash after the rename, before the new WAL or the deletes: the
    // new generation, whole — and a compaction that copies the copied
    // frames again keeps it so.
    let _ = std::fs::remove_dir_all(&crash);
    std::fs::create_dir_all(&crash).expect("create the crash directory");
    for (file, bytes) in &old {
        std::fs::write(crash.join(file), bytes).expect("the old generation");
    }
    std::fs::write(crash.join("snapshot-000002"), &new).expect("the renamed snapshot");
    let store = open(&crash);
    assert_eq!(contents(&store), expected(), "after the rename");
    assert_eq!(
        store.stats().recovered_rows,
        new_rows(),
        "from snapshot 2 alone"
    );
    store.compact().expect("compact the copies");
    drop(store);
    assert!(
        crash.join("snapshot-000003").exists(),
        "generation 3 written"
    );
    assert_eq!(contents(&open(&crash)), expected(), "after a second copy");
    let _ = std::fs::remove_dir_all(&crash);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every row the new snapshot holds.
fn new_rows() -> u64 {
    expected().values().map(|rows| rows.len() as u64).sum()
}

#[test]
fn a_frame_that_rots_after_the_open_is_dropped_not_copied() {
    let dir = unique_dir("rot");
    let store = open(&dir);
    for n in 0..NAMESPACES {
        store.append_pages(key(n), &pages(&first_rows(n)));
    }
    store.compact().expect("first compaction");
    drop(store);

    // Every page is on disk after the open; then one byte of the third
    // frame rots under the open store.
    let store = open(&dir);
    let snapshot = dir.join("snapshot-000001");
    let mut bytes = std::fs::read(&snapshot).expect("the snapshot");
    let rotten: Vec<u8> = frames(&bytes)[2].to_vec();
    let at = HEADER_LEN + frames(&bytes)[..2].iter().map(|f| f.len()).sum::<usize>() + 40;
    bytes[at] ^= 0x5a;
    std::fs::write(&snapshot, &bytes).expect("rot one byte");
    store.compact().expect("the compaction that copies");
    drop(store);

    // The new snapshot holds every other frame, intact, and not the
    // rotten one: its page's rows are gone, nothing else is.
    let new = std::fs::read(dir.join("snapshot-000002")).expect("the new snapshot");
    let written = frames(&new);
    assert_eq!(written.len(), 3 * NAMESPACES as usize - 1);
    assert!(!written.contains(&&rotten[..]));
    let store = open(&dir);
    assert_eq!(store.stats().tail_bytes_discarded, 0);
    let (lost, _) = decode_frame(&rotten).expect("the frame as written");
    let expected = expected_first();
    let got = contents(&store);
    let missing: usize =
        expected.values().map(Vec::len).sum::<usize>() - got.values().map(Vec::len).sum::<usize>();
    match lost {
        expred_persist::Record::PageImage { key, page, planes } => {
            assert_eq!(missing, planes.len(), "only the rotten page's rows");
            for (k, rows) in &got {
                let want = expected[k].iter().filter(|&&(row, _)| {
                    *k != key || row as usize / expred_persist::PAGE_ROWS != page as usize
                });
                assert!(want.eq(rows.iter()), "{k:?}");
            }
        }
        other => panic!("not a page image: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_frame_that_rots_under_an_open_store_is_skipped_by_reads_and_dropped_by_the_next_compaction() {
    let dir = unique_dir("rot-read");
    let store = open(&dir);
    for n in 0..NAMESPACES {
        store.append_pages(key(n), &pages(&first_rows(n)));
    }
    store.compact().expect("first compaction");
    assert_eq!(store.resident_pages(), 0, "every page is on disk");

    // One byte of the third frame rots under the open store.
    let snapshot = dir.join("snapshot-000001");
    let mut bytes = std::fs::read(&snapshot).expect("the snapshot");
    let rotten: Vec<u8> = frames(&bytes)[2].to_vec();
    let at = HEADER_LEN + frames(&bytes)[..2].iter().map(|f| f.len()).sum::<usize>() + 40;
    bytes[at] ^= 0x5a;
    std::fs::write(&snapshot, &bytes).expect("rot one byte");
    let (lost, page) = match decode_frame(&rotten).expect("the frame as written").0 {
        expred_persist::Record::PageImage { key, page, .. } => (key, page as usize),
        other => panic!("not a page image: {other:?}"),
    };

    // A read skips the rotten page and serves every other one intact,
    // and leaves them all on disk.
    for n in 0..NAMESPACES {
        let mut want = pages(&first_rows(n));
        want.retain(|&(number, _)| key(n) != lost || number != page);
        let got = store.pages(key(n)).expect("the namespace");
        let got: Vec<(usize, PagePlanes)> = got
            .into_iter()
            .map(|(number, planes)| (number, (*planes).clone()))
            .collect();
        assert_eq!(got, want, "namespace {n}");
    }
    assert_eq!(store.resident_pages(), 0, "a read keeps nothing in RAM");

    // The next compaction checks the frame again and drops its page.
    let all: usize = expected_first().values().map(Vec::len).sum();
    let lost_rows = pages(&first_rows(lost.udf))
        .iter()
        .find(|&&(number, _)| number == page)
        .map(|(_, planes)| planes.len())
        .expect("the rotten page");
    store.compact().expect("the compaction after the rot");
    assert_eq!(store.len(), all - lost_rows, "the rotten page is gone");
    assert_eq!(store.resident_pages(), 0);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every namespace's first-life rows.
fn expected_first() -> BTreeMap<PersistKey, Vec<(u32, bool)>> {
    (0..NAMESPACES).map(|n| (key(n), first_rows(n))).collect()
}

/// The FNV-64 digest of `snapshot-<generation>` in `dir`.
fn snapshot_digest(dir: &Path, generation: u64) -> u64 {
    let bytes = std::fs::read(dir.join(format!("snapshot-{generation:06}"))).expect("the snapshot");
    let mut digest = expred_stats::hash::Fnv64::new();
    digest.write_bytes(&bytes);
    digest.finish()
}

#[test]
fn compactions_write_the_pinned_snapshot_bytes() {
    // One single-threaded life over two states: the first compaction
    // encodes every page, and every page leaves RAM; appends to both
    // states follow, reading the pages they touch back; the second
    // compaction encodes those and copies the frames of the rest.
    // Whatever way a compaction walks the index, it writes these bytes.
    let a = PersistKey {
        udf: 1,
        table: 0xa,
        version: 1,
    };
    let b = PersistKey {
        udf: 2,
        table: 0xb,
        version: 1,
    };
    let dir = unique_dir("pin");
    let store = open(&dir);
    store.append_pages(a, &pages(&first_rows(0)));
    store.append_pages(b, &pages(&first_rows(1)));
    store.compact().expect("the compaction that encodes");
    assert_eq!(store.resident_pages(), 0, "a snapshot holds every page");
    let first = std::fs::read(dir.join("snapshot-000001")).expect("snapshot 1");
    let mut digests = vec![snapshot_digest(&dir, 1)];

    store.append_pages(a, &pages(&second_rows(0)));
    store.append_pages(b, &pages(&[(5, true), (9_001, false)]));
    store
        .compact()
        .expect("the compaction that encodes and copies");
    assert_eq!(store.resident_pages(), 0, "a snapshot holds every page");
    digests.push(snapshot_digest(&dir, 2));
    let second = std::fs::read(dir.join("snapshot-000002")).expect("snapshot 2");
    let (old, new) = (frames(&first), frames(&second));
    let copied = new.iter().filter(|frame| old.contains(frame)).count();
    // Each state's untouched pages keep their old bytes.
    assert_eq!((new.len(), copied), (7, 3));
    drop(store);

    let reopened = open(&dir);
    let mut want = first_rows(1);
    want.extend([(5, true), (9_001, false)]);
    want.sort_unstable();
    assert_eq!(reopened.rows(b), Some(want));
    assert_eq!(digests, [0xd77b_ae60_474d_ac67, 0x4a48_e71c_56c6_2214]);
    let _ = std::fs::remove_dir_all(&dir);
}
