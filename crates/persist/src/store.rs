//! [`PersistStore`]: the durable store — WAL, snapshots, recovery.
//!
//! # Write path
//!
//! The unit of a write is the stage batch, and it arrives as pages:
//! [`PersistStore::append_pages`] takes the index lock once and merges
//! each [`PagePlanes`] into the namespace's page a word at a time,
//! through the same first-write-wins merge that loading a snapshot image
//! uses (answers are deterministic per table version, so a re-offer of
//! the same row is a mask-and-OR that changes nothing). The rows that
//! were new are enqueued on a bounded queue as the pages they came in:
//! a page that gained two or more rows as one page-image frame holding
//! the planes of just those rows, and a page that gained one as a
//! single-row record. Replay merges an image exactly as it merges the
//! rows it holds, so the WAL a batch writes is the index it built.
//! [`PersistStore::append_row`] is the one-row call. A background
//! flusher thread drains the queue in batches, appends the frames to the
//! current WAL file, and fsyncs per [`FsyncPolicy`].
//!
//! # The index: pages no snapshot holds in RAM, the rest on disk
//!
//! A namespace is pages of 4 096 rows, each a [`PagePlanes`] — a `known`
//! and an `answer` bit plane — or the place of its latest full image on
//! disk: a page-image frame of the current snapshot, named by its
//! offset, length and row count (the namespace names the snapshot's
//! generation). An answer never expires: it is a fixed property of its
//! row under one table version, so the index keeps no clock.
//!
//! One rule decides which pages are in RAM: a page's planes stay only
//! while no snapshot frame holds all of its rows. A compaction writes
//! every page whole, so each page whose rows did not change meanwhile
//! leaves RAM as it ends. So the RAM the index holds is the rows bought
//! since the last compaction, not every table the store has seen.
//! Rehydration ([`PersistStore::pages`]) reads a page on disk back from
//! its frame, CRC-checked, for the caller only. An append to a page on
//! disk reads it back under the lock first, and the page stays resident
//! until the next compaction writes it whole again. An offer of exactly
//! the rows a page's frame holds (told by count and a digest of the
//! frame's `known` plane, kept beside its place) adds no row, and reads
//! nothing back. A frame that no longer reads back costs its page's
//! rows — a re-buy, never a wrong answer. Opening a store indexes its
//! snapshot without loading it: a page whose only image is a snapshot
//! frame stays on disk.
//!
//! A resident page's planes sit behind an `Arc`, so a compaction or a
//! reader takes a clone under the lock and reads the planes after it. An
//! append that adds a row to planes someone else holds copies them first
//! (copy on write); a re-offer adds no row and copies nothing.
//!
//! # Overload: what sheds, and when
//!
//! The queue, the compaction threshold and [`PersistStats::flushed`] all
//! count **rows**. The bound is on the backlog an arriving batch *finds*: while
//! `queue_capacity` rows or more are already pending, the oldest pending
//! frame is shed — its rows counted in [`PersistStats::shed`] — and then
//! every frame of the batch is admitted. So a batch never sheds its own
//! rows however large it is, the queue never holds more than
//! `queue_capacity − 1` rows plus the batch being admitted, and a shed
//! means the flusher has fallen a whole queue behind: the hot path never
//! blocks on disk. Shedding trades durability-until-compaction only —
//! the index still holds the answer (a page with a shed row has no
//! snapshot frame holding all of its rows, so it stays resident), and
//! the next *snapshot compaction* re-captures it. Nothing else does:
//! [`PersistStore::sync`] and a graceful drop flush the pending *queue*,
//! which no longer contains the shed frame, and a re-offer of the same
//! row deduplicates against the index without re-enqueuing. Callers that
//! must not lose shed rows across a restart therefore compact before
//! exiting (the engine's `flush_persistence` does so whenever
//! `shed > 0`). Losing one anyway is a re-buy, never a wrong answer. A
//! WAL write the disk refuses is not retried either: its rows are not
//! counted as [`PersistStats::flushed`], [`PersistStats::write_failures`]
//! says the disk stopped taking writes, and the next compaction offers
//! the disk the whole index again.
//!
//! # Files and crash consistency
//!
//! The directory holds generation-numbered pairs: `snapshot-<g>` (the
//! whole index at the moment generation `g` began: one page-image frame
//! per page, its own CRC each, so a damaged frame costs that page and
//! the ones after it) and `wal-<g>` (appends since: page images of the
//! rows each batch added to a page, single-row records for a lone row).
//! Compaction writes `snapshot-<g+1>` into a temp file with the index
//! lock released (see `compact_now`), fsyncs, renames (atomic on POSIX),
//! creates `wal-<g+1>`, and only then deletes generation `g`'s files — a
//! crash at any byte boundary leaves either a complete old generation or
//! a complete new one. Recovery picks the highest generation with a
//! readable snapshot header, streams the snapshot, then replays `wal-<g>`
//! on top, stopping at the first corrupt or truncated frame and
//! truncating the file back to the valid prefix so later appends never
//! land after garbage. A reader of a page on disk holds the open handle
//! of the snapshot its frame is in, taken under the lock, and a frame is
//! only ever named once its snapshot is complete and renamed into place,
//! so no reader sees a half-written file or loses one to the unlink.

use crate::format::{
    check_header, decode_page_image, encode_frame, encode_page_image, file_header, scan_frames,
    PagePlanes, PersistKey, Record, HEADER_LEN, MAX_PAGE_IMAGE_FRAME, PAGE_LIMIT, PAGE_ROWS,
    PAGE_WORDS,
};
use std::collections::{BTreeMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::num::NonZeroU32;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default bound on queued-but-unflushed WAL rows.
pub(crate) const DEFAULT_QUEUE_CAPACITY: usize = 8_192;

/// Default number of rows written to a WAL that triggers background
/// compaction.
pub(crate) const DEFAULT_COMPACT_AFTER: u64 = 65_536;

/// Bytes a compaction gathers before it writes them to the snapshot: its
/// buffer holds this and one more page-image frame, whatever the size of
/// the index.
const SNAPSHOT_CHUNK: usize = 64 * 1024;

/// When the flusher fsyncs the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Once per drained batch (the default): one fsync amortizes over
    /// every record the queue accumulated while the previous batch was
    /// writing.
    EveryBatch,
    /// Never (benchmarks and tests; the OS still writes back
    /// eventually). [`PersistStore::sync`] fsyncs regardless.
    Never,
}

/// Configuration for [`PersistStore::open`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding this store's snapshot and WAL files. Created
    /// (with parents) if absent.
    pub dir: PathBuf,
    /// Bound, in rows, on the backlog of queued-but-unflushed WAL frames
    /// an arriving batch may find; at or beyond it the oldest pending
    /// frames are shed (see the module docs).
    pub queue_capacity: usize,
    /// Batched-fsync policy for the flusher thread.
    pub fsync: FsyncPolicy,
    /// Rows written to the WAL between automatic compactions; 0 disables
    /// automatic compaction (explicit [`PersistStore::compact`] still
    /// works).
    pub compact_after: u64,
}

impl PersistConfig {
    /// Defaults rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            fsync: FsyncPolicy::EveryBatch,
            compact_after: DEFAULT_COMPACT_AFTER,
        }
    }

    /// Replaces the queue bound (clamped to at least 1). `pub` as a test
    /// seam: only tests and benches call it.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Replaces the fsync policy.
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Replaces the auto-compaction threshold (0 disables). `pub` as a
    /// test seam: only tests and benches call it.
    pub fn with_compact_after(mut self, records: u64) -> Self {
        self.compact_after = records;
        self
    }
}

/// Why the store could not be opened or flushed.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O operation failed; `context` names the file and operation.
    Io {
        /// What the store was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { context, source } => write!(f, "persist: {context}: {source}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
        }
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> PersistError {
    let context = context.into();
    move |source| PersistError::Io { context, source }
}

expred_stats::counter_set! {
    /// Counters describing the store's life so far (monotone; survive
    /// compaction, reset by reopen).
    pub struct PersistStats, atomic struct AtomicPersistStats {
        /// Row answers accepted into the index (first write per row).
        appended,
        /// Queued rows dropped by backpressure shedding.
        shed,
        /// Rows the flusher wrote to the WAL.
        flushed,
        /// WAL fsync calls.
        fsyncs,
        /// Snapshot compactions completed.
        compactions,
        /// Row answers recovered from disk at open.
        recovered_rows,
        /// Namespaces recovered from disk at open.
        recovered_namespaces,
        /// Bytes of corrupt or truncated tail discarded at open.
        tail_bytes_discarded,
        /// Flusher batches the WAL refused (a disk that stopped taking
        /// writes); their rows stay in the index for the next compaction.
        write_failures,
    }
}

/// Where a page's latest full image is: the page-image frame of `len`
/// bytes at `offset` in the snapshot its namespace names, holding `rows`
/// answers, whose `known` plane digests to `known`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Image {
    offset: u64,
    len: NonZeroU32,
    rows: u32,
    known: u64,
}

/// The image of a frame of `len` bytes at `offset` holding `planes`
/// (`None` only for an empty frame, which no frame is).
fn image(offset: u64, len: usize, planes: &PagePlanes) -> Option<Image> {
    let len = NonZeroU32::new(u32::try_from(len).ok()?)?;
    let rows = planes.len() as u32;
    let known = known_digest(planes);
    Some(Image {
        offset,
        len,
        rows,
        known,
    })
}

/// A word-wise digest of `planes`' `known` plane. Each step is a
/// bijection of the running value for a fixed word and of the word for
/// a fixed running value, so planes differing in one word never collide.
fn known_digest(planes: &PagePlanes) -> u64 {
    let step = |digest: u64, &word: &u64| (digest.rotate_left(5) ^ word).wrapping_mul(DIGEST_MUL);
    planes.known.iter().fold(0, step)
}

/// An odd multiplier with well-mixed bits (the one `FxHash` uses).
const DIGEST_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// One page of a namespace: its planes while resident, and its latest
/// full image on disk, if a snapshot holds one.
#[derive(Debug)]
struct Page {
    /// The page number: the page holds rows `[4096 * number, 4096 *
    /// number + 4096)`.
    number: u32,
    /// `None` once the page has left RAM; `image` then says where it is.
    planes: Option<Arc<PagePlanes>>,
    /// A frame of the current snapshot that holds this page, kept only
    /// while it holds every row the page does.
    image: Option<Image>,
}

impl Page {
    fn rows(&self) -> u32 {
        match (&self.planes, self.image) {
            (Some(planes), _) => planes.len() as u32,
            (None, image) => image.map_or(0, |image| image.rows),
        }
    }
}

/// One namespace: its pages, ascending by number.
#[derive(Debug, Default)]
struct Namespace {
    pages: Vec<Page>,
}

impl Namespace {
    fn find(&self, number: u32) -> Result<usize, usize> {
        self.pages.binary_search_by_key(&number, |page| page.number)
    }

    /// Page `number`, created empty if absent.
    fn page(&mut self, number: u32) -> &mut Page {
        let at = self.find(number).unwrap_or_else(|at| {
            let page = Page {
                number,
                planes: None,
                image: None,
            };
            self.pages.insert(at, page);
            at
        });
        &mut self.pages[at]
    }
}

/// A namespace's place in the index: its table state (schema
/// fingerprint, version) first, so the namespaces of one state are one
/// range, then its UDF.
type Slot = (u64, u64, u64);

fn slot(key: PersistKey) -> Slot {
    (key.table, key.version, key.udf)
}

fn key_of((table, version, udf): Slot) -> PersistKey {
    PersistKey {
        udf,
        table,
        version,
    }
}

/// The namespaces of the table state `(table, version)`.
fn state_range(table: u64, version: u64) -> std::ops::RangeInclusive<Slot> {
    (table, version, 0)..=(table, version, u64::MAX)
}

/// Checks that `frame` is the page-image frame `image` names: its CRC,
/// and that it holds page `page` of `key` with `image.rows` answers
/// whose `known` plane digests to `image.known`. Decodes the planes
/// into `planes`, which start empty.
fn check_image(
    frame: &[u8],
    image: Image,
    key: PersistKey,
    page: u32,
    planes: &mut PagePlanes,
) -> bool {
    decode_page_image(frame, planes).is_ok_and(|at| at == (key, page, frame.len()))
        && planes.len() == image.rows as usize
        && known_digest(planes) == image.known
}

/// Reads back the page-image frame `image` names from `file`, checked
/// as [`check_image`] checks it, and decoded into the `Arc` the index
/// keeps.
fn read_image(file: &File, image: Image, key: PersistKey, page: u32) -> Option<Arc<PagePlanes>> {
    let mut frame = vec![0; image.len.get() as usize];
    file.read_exact_at(&mut frame, image.offset).ok()?;
    let mut planes = Arc::new(PagePlanes::empty());
    let unshared = Arc::get_mut(&mut planes)?;
    check_image(&frame, image, key, page, unshared).then_some(planes)
}

/// Merges the rows of `known` in word `word`, answers in `answer`, into
/// `planes` as [`PagePlanes::merge`] does, copying planes that a
/// compaction or a reader shares first, but only when the merge adds a
/// row: a re-offer copies nothing. Returns the rows that were new.
fn merge_shared(planes: &mut Arc<PagePlanes>, word: usize, known: u64, answer: u64) -> u64 {
    if known & !planes.known[word] == 0 {
        return 0;
    }
    Arc::make_mut(planes).merge(word, known, answer)
}

/// The authoritative image of the store — the pages no snapshot holds
/// in RAM, where the rest are on disk. The WAL and snapshots only exist
/// to rebuild this after a restart.
#[derive(Debug, Default)]
struct Index {
    namespaces: BTreeMap<Slot, Namespace>,
    /// The read handle of the current snapshot, the one every image is
    /// in.
    snapshot: Option<Arc<File>>,
}

impl Index {
    /// Whether page `page` of `slot` is on disk in a frame that holds
    /// exactly the rows `planes` knows — the same count, the same digest —
    /// so that an offer of them adds no row and reads nothing back. (A
    /// digest that matched rows it does not hold would cost the offer's
    /// new rows their durability: a re-buy after a restart, never a
    /// wrong answer.)
    fn holds(&self, slot: Slot, page: u32, planes: &PagePlanes) -> bool {
        let Some(ns) = self.namespaces.get(&slot) else {
            return false;
        };
        let Ok(at) = ns.find(page) else {
            return false;
        };
        let page = &ns.pages[at];
        page.planes.is_none()
            && page.image.is_some_and(|image| {
                image.rows as usize == planes.len() && image.known == known_digest(planes)
            })
    }

    /// The planes of page `page` of `slot`, created empty if absent and
    /// read back from disk if the page left RAM (a frame that no longer
    /// reads back leaves the page empty: its rows are re-bought).
    fn planes_mut(&mut self, slot: Slot, page: u32) -> &mut Arc<PagePlanes> {
        let Self {
            namespaces,
            snapshot,
        } = self;
        let Page { planes, image, .. } = namespaces.entry(slot).or_default().page(page);
        planes.get_or_insert_with(|| {
            let file = snapshot.as_deref();
            let read = image.and_then(|at| read_image(file?, at, key_of(slot), page));
            if read.is_none() {
                *image = None;
            }
            read.unwrap_or_else(|| Arc::new(PagePlanes::empty()))
        })
    }

    /// Merges the rows of `known` in word `word` of page `page`, answers
    /// in `answer` — the one merge that appends, snapshot images and
    /// replayed rows all go through ([`merge_shared`]). The first write
    /// per row wins. Returns the rows that were new.
    fn merge(&mut self, slot: Slot, page: u32, word: usize, known: u64, answer: u64) -> u64 {
        merge_shared(self.planes_mut(slot, page), word, known, answer)
    }

    /// Merges one replayed row; returns 1 if it was new.
    fn merge_row(&mut self, slot: Slot, row: u32, answer: bool) -> u64 {
        let (page, word) = (row / PAGE_ROWS as u32, row as usize % PAGE_ROWS / 64);
        let (known, answer) = (1 << (row % 64), u64::from(answer) << (row % 64));
        let new = self.merge(slot, page, word, known, answer);
        u64::from(new.count_ones())
    }

    /// Applies one replayed record; returns the row answers it added.
    fn apply(&mut self, record: Record) -> u64 {
        match record {
            Record::Row { key, row, answer } => self.merge_row(slot(key), row, answer),
            Record::RowBatch { key, rows } => {
                let rows = rows.into_iter();
                rows.map(|(r, a)| self.merge_row(slot(key), r, a)).sum()
            }
            Record::PageImage { key, page, planes } => (0..PAGE_WORDS)
                .map(|w| self.merge(slot(key), page, w, planes.known[w], planes.answer[w]))
                .map(|new| u64::from(new.count_ones()))
                .sum(),
            Record::TombstoneAll => {
                self.namespaces.clear();
                0
            }
            // Pass-rate counters an earlier build logged: the answers
            // carry the rates now, so replay skips the frame and the
            // next snapshot leaves it out.
            Record::Selectivity { .. } => 0,
        }
    }

    /// Loads one frame of the snapshot being opened, the `len` bytes at
    /// `offset`: a page it holds for the first time stays on disk, named
    /// by its frame; anything else replays as it would from a WAL.
    /// Returns the row answers it added.
    fn load(&mut self, record: Record, offset: u64, len: usize) -> u64 {
        if let Record::PageImage { key, page, planes } = &record {
            let ns = self.namespaces.entry(slot(*key)).or_default();
            if let (Err(at), Some(image)) = (ns.find(*page), image(offset, len, planes)) {
                let page = Page {
                    number: *page,
                    planes: None,
                    image: Some(image),
                };
                ns.pages.insert(at, page);
                return u64::from(image.rows);
            }
        }
        self.apply(record)
    }
}

/// What a record counts for in the queue bound, the compaction threshold
/// and `flushed`: the rows it carries, one for a record that carries none.
fn weight(record: &Record) -> u64 {
    match record {
        Record::PageImage { planes, .. } => planes.len() as u64,
        _ => 1,
    }
}

/// What the hot path hands the flusher thread.
#[derive(Debug, Default)]
struct FlushQueue {
    pending: VecDeque<Record>,
    /// The [`weight`] of `pending`: what the queue bound measures.
    pending_rows: u64,
    /// Monotone ticket the flusher has fully flushed up to (every record
    /// enqueued before `flushed_ticket` was issued is on disk).
    enqueued_ticket: u64,
    flushed_ticket: u64,
    /// Compaction request/completion tickets ([`PersistStore::compact`]).
    /// Compaction runs *only* on the flusher thread, between batches:
    /// with a single WAL writer, no record can land in a retired WAL
    /// after the snapshot that supersedes it was frozen — which is what
    /// makes a `sync()` acknowledgment durable across compaction.
    compact_requested: u64,
    compact_done: u64,
    /// Tickets `<= compact_failed_through` were answered by a compaction
    /// attempt that returned an error (no snapshot was written);
    /// `compact_error` describes the most recent failure. Waiters use
    /// this to turn a completed-but-failed compaction into an `Err`
    /// instead of silently reporting durability that never happened.
    compact_failed_through: u64,
    compact_error: Option<String>,
    shutdown: bool,
}

impl FlushQueue {
    /// Admits the frames of one append under the overload policy of the
    /// module docs: the backlog the append finds gives way first —
    /// oldest frame out while `capacity` rows or more are pending — then
    /// every frame goes in. Returns the rows shed.
    fn admit(&mut self, frames: impl IntoIterator<Item = Record>, capacity: u64) -> u64 {
        let mut shed = 0;
        while self.pending_rows >= capacity {
            let Some(oldest) = self.pending.pop_front() else {
                break;
            };
            self.pending_rows -= weight(&oldest);
            shed += weight(&oldest);
        }
        for frame in frames {
            self.pending_rows += weight(&frame);
            self.pending.push_back(frame);
        }
        self.enqueued_ticket += 1;
        shed
    }
}

/// Shared state between the store handle and the flusher thread.
#[derive(Debug)]
struct Shared {
    index: Mutex<Index>,
    queue: Mutex<FlushQueue>,
    /// Wakes the flusher (new records, sync request, shutdown).
    work: Condvar,
    /// Wakes `sync` callers (flushed ticket advanced).
    flushed: Condvar,
    stats: AtomicPersistStats,
    config: PersistConfig,
}

impl Shared {
    fn index(&self) -> std::sync::MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The durable store. One per engine session (or per tenant); the handle
/// is cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct PersistStore {
    shared: Arc<Shared>,
    flusher: Option<JoinHandle<()>>,
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:06}"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:06}"))
}

/// Parses `name` as `<prefix>-<generation>`.
fn parse_generation(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)
        .and_then(|rest| rest.strip_prefix('-'))
        .and_then(|digits| digits.parse().ok())
}

/// Streams a persist file's frames (tolerating a corrupt tail) through
/// [`scan_frames`], calling `visit(offset, len, record)` per frame, and
/// returns `(valid_prefix_len, file_len)`. A missing file reads as empty;
/// a file with a foreign or damaged header contributes nothing (its whole
/// body is "tail").
fn stream_frames(path: &Path, mut visit: impl FnMut(u64, usize, Record)) -> (u64, u64) {
    let Ok(file) = File::open(path) else {
        return (0, 0);
    };
    let file_len = file.metadata().map_or(0, |meta| meta.len());
    let mut reader = BufReader::with_capacity(SNAPSHOT_CHUNK, file);
    let mut header = [0; HEADER_LEN];
    if reader.read_exact(&mut header).is_err() || !check_header(&header) {
        return (0, file_len);
    }
    let at = HEADER_LEN as u64;
    let valid = scan_frames(reader, |offset, len, record| {
        visit(at + offset, len, record)
    });
    (at + valid, file_len)
}

/// Creates `path` containing just the file header, fsyncing file and
/// directory so the file exists durably.
fn create_with_header(path: &Path) -> Result<File, PersistError> {
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)
        .map_err(io_err(format!("create {}", path.display())))?;
    f.write_all(&file_header())
        .map_err(io_err(format!("write header {}", path.display())))?;
    f.sync_all()
        .map_err(io_err(format!("sync {}", path.display())))?;
    sync_dir(path.parent().unwrap_or(Path::new(".")));
    Ok(f)
}

/// Best-effort directory fsync (makes renames/creates durable; some
/// filesystems reject directory fsync — recovery tolerates that).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

impl PersistStore {
    /// Opens (or creates) the store rooted at `config.dir`, recovering
    /// the index from the newest intact snapshot generation plus its
    /// WAL's valid prefix. Never fails on *file contents* — corruption
    /// costs records, not the open; only real I/O errors (permissions,
    /// disk full) surface as [`PersistError`].
    pub fn open(config: PersistConfig) -> Result<Self, PersistError> {
        fs::create_dir_all(&config.dir)
            .map_err(io_err(format!("create dir {}", config.dir.display())))?;

        // Newest generation with a readable snapshot header wins; a
        // brand-new directory starts at generation 0 with no snapshot.
        let mut generations: Vec<u64> = Vec::new();
        let entries = fs::read_dir(&config.dir)
            .map_err(io_err(format!("read dir {}", config.dir.display())))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(g) = parse_generation(&name, "snapshot") {
                generations.push(g);
            } else if let Some(g) = parse_generation(&name, "wal") {
                generations.push(g);
            }
        }
        generations.sort_unstable();
        generations.dedup();

        let stats = AtomicPersistStats::default();
        let recovered = |rows| stats.recovered_rows.fetch_add(rows, Ordering::Relaxed);
        let mut index = Index::default();
        let mut generation = 0;
        // Walk newest-first: the first generation whose snapshot replays
        // (or that never had one — WAL-only generation 0) is the state.
        for &g in generations.iter().rev() {
            let snap = snapshot_path(&config.dir, g);
            // The handle pages left on disk are read back through.
            index.snapshot = File::open(&snap).ok().map(Arc::new);
            let (snap_valid, snap_len) = stream_frames(&snap, |offset, len, record| {
                recovered(index.load(record, offset, len));
            });
            if snap_len > 0 && snap_valid == 0 && g > 0 {
                // A snapshot file exists but its header is unreadable —
                // not one of ours (snapshots are written whole via temp +
                // rename, so even an *empty* valid snapshot replays its
                // header). Fall back to the previous generation.
                index.snapshot = None;
                continue;
            }
            if snap_len > 0 {
                let kept = snap_valid.max(HEADER_LEN as u64).min(snap_len);
                stats
                    .tail_bytes_discarded
                    .fetch_add(snap_len - kept, Ordering::Relaxed);
            }
            let wal = wal_path(&config.dir, g);
            let (wal_valid, wal_len) = stream_frames(&wal, |_, _, record| {
                recovered(index.apply(record));
            });
            if snap_len == 0 && wal_len > 0 && wal_valid == 0 && g > 0 {
                // A snapshot-less generation whose WAL header is foreign:
                // not ours either (we create WALs header-first, fsynced).
                // Keep looking for a real generation.
                index.snapshot = None;
                continue;
            }
            if wal_len > wal_valid {
                // Truncate the corrupt tail so future appends follow the
                // valid prefix instead of hiding behind garbage.
                stats
                    .tail_bytes_discarded
                    .fetch_add(wal_len - wal_valid, Ordering::Relaxed);
                if wal_valid >= HEADER_LEN as u64 {
                    if let Ok(f) = OpenOptions::new().write(true).open(&wal) {
                        let _ = f.set_len(wal_valid);
                        let _ = f.sync_all();
                    }
                } else {
                    // Header itself unreadable: start the WAL over.
                    let _ = create_with_header(&wal)?;
                }
            }
            generation = g;
            break;
        }
        stats
            .recovered_namespaces
            .store(index.namespaces.len() as u64, Ordering::Relaxed);

        // Ensure the current generation's WAL exists and is appendable.
        let wal = wal_path(&config.dir, generation);
        let wal_file = match OpenOptions::new().append(true).open(&wal) {
            Ok(f) => f,
            Err(_) => create_with_header(&wal)?,
        };

        // Older generations are dead weight (crash leftovers from a
        // partially completed compaction) — clean them up.
        for &g in &generations {
            if g < generation {
                let _ = fs::remove_file(snapshot_path(&config.dir, g));
                let _ = fs::remove_file(wal_path(&config.dir, g));
            }
        }

        let shared = Arc::new(Shared {
            index: Mutex::new(index),
            queue: Mutex::new(FlushQueue::default()),
            work: Condvar::new(),
            flushed: Condvar::new(),
            stats,
            config,
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("persist-flusher".into())
                .spawn(move || flusher_loop(shared, wal_file, generation))
                .map_err(io_err("spawn flusher thread"))?
        };
        Ok(Self {
            shared,
            flusher: Some(flusher),
        })
    }

    /// Accepts one fresh row answer: a one-row
    /// [`PersistStore::append_pages`]. The last argument is ignored: it
    /// was a write time, and stays only because the benchmark
    /// harness (`benchmark/src/probes.rs`) passes one (ROADMAP direction
    /// 4 removes it).
    pub fn append_row(&self, key: PersistKey, row: u32, answer: bool, _: u64) {
        let (mut planes, row, bit) = (PagePlanes::empty(), row as usize, row % 64);
        planes.merge(row % PAGE_ROWS / 64, 1 << bit, u64::from(answer) << bit);
        self.append_pages(key, &[(row / PAGE_ROWS, planes)]);
    }

    /// Accepts a batch of fresh answers of one namespace as pages; pages
    /// at or past [`PAGE_LIMIT`] hold rows the format cannot name and are
    /// skipped. First write per `(key, row)`
    /// wins (deterministic answers make a re-offer a no-op): under one
    /// index lock each page is merged into the index a word at a time,
    /// and the rows that were new are enqueued for the WAL — a page's one
    /// new row as a `Row` record, two or more as one `PageImage` frame
    /// holding just those rows — shedding the oldest pending frames if
    /// the flusher is a queue behind (see the module docs). Never blocks
    /// on disk, but for a page a snapshot holds whole, which it reads back
    /// first and which then stays resident until the next compaction
    /// writes it whole again — unless the offer knows exactly the rows
    /// the page's frame holds (a re-offer of a live page), which adds no
    /// row and reads nothing.
    pub fn append_pages(&self, key: PersistKey, pages: &[(usize, PagePlanes)]) {
        let mut frames = Vec::new();
        let mut appended = 0;
        {
            let mut index = self.shared.index();
            for (page, planes) in pages {
                if *page >= PAGE_LIMIT || planes.is_empty() {
                    continue;
                }
                if index.holds(slot(key), *page as u32, planes) {
                    continue;
                }
                let held = index.planes_mut(slot(key), *page as u32);
                // The rows this page gained, as a page of their own: how
                // many, and the last one's word and bit.
                let mut image = PagePlanes::empty();
                let (mut rows, mut last) = (0, (0, 0));
                for w in (0..PAGE_WORDS).filter(|&w| planes.known[w] != 0) {
                    let (known, answer) = (planes.known[w], planes.answer[w]);
                    let new = merge_shared(held, w, known, answer);
                    if new != 0 {
                        image.merge(w, new, answer);
                        rows += new.count_ones();
                        last = (w, 63 - new.leading_zeros());
                    }
                }
                appended += u64::from(rows);
                frames.extend(match rows {
                    0 => None,
                    1 => Some(Record::Row {
                        key,
                        row: (page * PAGE_ROWS + last.0 * 64) as u32 + last.1,
                        answer: image.answer[last.0] >> last.1 & 1 != 0,
                    }),
                    _ => Some(Record::PageImage {
                        key,
                        page: *page as u32,
                        planes: Box::new(image),
                    }),
                });
            }
        }
        self.shared
            .stats
            .appended
            .fetch_add(appended, Ordering::Relaxed);
        if !frames.is_empty() {
            self.enqueue(frames);
        }
    }

    /// Blocks until every record enqueued before this call is on disk
    /// (flushed and fsynced). The durability barrier for graceful
    /// shutdown and tests.
    pub fn sync(&self) -> Result<(), PersistError> {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        // A sync ticket advances even with nothing pending: the flusher
        // answers it with an fsync of what is already written.
        queue.enqueued_ticket += 1;
        let ticket = queue.enqueued_ticket;
        self.shared.work.notify_one();
        while queue.flushed_ticket < ticket && !queue.shutdown {
            queue = self
                .shared
                .flushed
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
        Ok(())
    }

    /// Compacts now: snapshots the whole index into the next generation
    /// and retires the current WAL. Blocks until the flusher (the single
    /// WAL/snapshot writer) has completed it, and returns `Err` when the
    /// attempt failed (disk full, permissions) — an `Ok` from this call
    /// means the snapshot really is on disk.
    pub fn compact(&self) -> Result<(), PersistError> {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.compact_requested += 1;
        let ticket = queue.compact_requested;
        self.shared.work.notify_one();
        while queue.compact_done < ticket && !queue.shutdown {
            queue = self
                .shared
                .flushed
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
        if ticket <= queue.compact_failed_through {
            let message = queue
                .compact_error
                .clone()
                .unwrap_or_else(|| "unknown compaction failure".into());
            return Err(PersistError::Io {
                context: "compaction".into(),
                source: std::io::Error::other(message),
            });
        }
        Ok(())
    }

    /// Every persisted namespace key.
    pub fn namespaces(&self) -> Vec<PersistKey> {
        let index = self.shared.index();
        index.namespaces.keys().map(|&slot| key_of(slot)).collect()
    }

    /// The persisted namespaces of the table state `(table, version)`:
    /// a lookup that costs in proportion to the state's own namespaces.
    pub fn state_namespaces(&self, table: u64, version: u64) -> Vec<PersistKey> {
        let index = self.shared.index();
        let slots = index.namespaces.range(state_range(table, version));
        slots.map(|(&slot, _)| key_of(slot)).collect()
    }

    /// The rows persisted under `key`: `(row, answer)`, ascending.
    pub fn rows(&self, key: PersistKey) -> Option<Vec<(u32, bool)>> {
        let pages = self.pages(key)?.into_iter();
        let rows = pages.flat_map(|(page, planes)| {
            let rows: Vec<_> = planes.rows(page * PAGE_ROWS).collect();
            rows.into_iter().map(|(row, answer)| (row as u32, answer))
        });
        Some(rows.collect())
    }

    /// The pages persisted under `key`, ascending — what rehydration
    /// copies into the live cache. A resident page's planes are shared
    /// with the index, not copied (an append copies a shared page before
    /// it writes); a page on disk is read back from its snapshot frame
    /// outside the lock, CRC-checked, for the caller only. A frame that
    /// does not read back is skipped (its rows are re-bought), and the
    /// next compaction, which checks it again, drops its page.
    pub fn pages(&self, key: PersistKey) -> Option<Vec<(usize, Arc<PagePlanes>)>> {
        let (mut pages, mut away) = (Vec::new(), Vec::new());
        let file = {
            let index = self.shared.index();
            let ns = index.namespaces.get(&slot(key))?;
            for page in &ns.pages {
                match (&page.planes, page.image) {
                    (Some(planes), _) => pages.push((page.number as usize, Arc::clone(planes))),
                    (None, Some(image)) => away.push((page.number, image)),
                    (None, None) => {}
                }
            }
            index.snapshot.clone()
        };
        let read = away.into_iter().filter_map(|(page, image)| {
            let planes = read_image(file.as_deref()?, image, key, page)?;
            Some((page as usize, planes))
        });
        pages.extend(read);
        pages.sort_unstable_by_key(|&(page, _)| page);
        Some(pages)
    }

    /// Total persisted row answers across namespaces.
    pub fn len(&self) -> usize {
        let index = self.shared.index();
        let pages = index.namespaces.values().flat_map(|ns| &ns.pages);
        pages.map(|page| page.rows() as usize).sum()
    }

    /// Whether nothing is persisted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pages whose planes are in RAM (the rest are on disk).
    pub fn resident_pages(&self) -> usize {
        let index = self.shared.index();
        let pages = index.namespaces.values().flat_map(|ns| &ns.pages);
        pages.filter(|page| page.planes.is_some()).count()
    }

    /// Life-so-far counters.
    pub fn stats(&self) -> PersistStats {
        self.shared.stats.snapshot()
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.shared.config.dir
    }

    /// Queues the frames of one append and wakes the flusher.
    fn enqueue(&self, frames: impl IntoIterator<Item = Record>) {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        let shed = queue.admit(frames, self.shared.config.queue_capacity as u64);
        self.shared.stats.shed.fetch_add(shed, Ordering::Relaxed);
        self.shared.work.notify_one();
    }
}

impl Drop for PersistStore {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.shutdown = true;
            self.shared.work.notify_one();
        }
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }
}

/// Writes `snapshot-<g+1>` from the current index (temp + fsync +
/// rename), opens `wal-<g+1>`, points the index at the new snapshot, and
/// deletes generation `g`'s files. **Flusher-thread only** (between
/// batches).
///
/// A compaction holds the index lock twice, and neither hold copies
/// planes, touches a file, or drops planes or a file handle. The first
/// ([`take`]) lists every page in index order: a resident page as a clone
/// of its planes' `Arc`, a page on disk as its frame, beside one handle
/// of the current snapshot. With the lock released, [`write_snapshot`]
/// encodes the planes, copies each frame byte for byte (it carries its
/// own CRC, checked first) and writes a fixed-size buffer. The second
/// ([`adopt_snapshot`]) hands the index over to the renamed snapshot. So
/// the extra memory is the buffer, one list entry per page, and a copy of
/// each page an append adds a row to while the list shares its planes.
///
/// The list is the whole index at one instant, so the snapshot covers
/// everything in the generation it retires: every record flushed to
/// `wal-<g>` is in it (the hot path indexes synchronously before
/// enqueuing), and one flushed after the take lands in `wal-<g+1>` — a
/// record in both replays idempotently (first write wins, identical
/// values). A crash at any point leaves either the complete old
/// generation or the complete new one.
fn compact_now(shared: &Shared, generation: u64) -> Result<(File, u64), PersistError> {
    let dir = &shared.config.dir;
    let next = generation + 1;
    let tmp = dir.join(format!("snapshot-{next:06}.tmp"));
    let file = OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(true)
        .open(&tmp)
        .map_err(io_err(format!("create {}", tmp.display())))?;
    let (mut taken, source) = take(&shared.index());
    if let Err(e) = write_snapshot(&mut taken, source.as_deref(), &file) {
        let _ = fs::remove_file(&tmp);
        return Err(io_err(format!("write {}", tmp.display()))(e));
    }
    let snap = snapshot_path(dir, next);
    fs::rename(&tmp, &snap).map_err(io_err(format!("rename {}", snap.display())))?;
    sync_dir(dir);
    let new_wal = create_with_header(&wal_path(dir, next))?;
    adopt_snapshot(shared, &taken, file);
    let _ = fs::remove_file(wal_path(dir, generation));
    let _ = fs::remove_file(snapshot_path(dir, generation));
    Ok((new_wal, next))
}

/// A page a compaction took under the lock, and where it went.
#[derive(Debug)]
struct Taken {
    at: (Slot, u32),
    /// A resident page's planes, let go once encoded.
    planes: Option<Arc<PagePlanes>>,
    /// For a page on disk, the frame it is copied from.
    from: Option<Image>,
    /// The page's frame in the new snapshot; `None` until written, and
    /// for a frame that no longer reads back.
    to: Option<Image>,
}

/// Lists every page of `index` in index order, and the handle of the
/// snapshot the pages on disk are in (see [`compact_now`]).
fn take(index: &Index) -> (Vec<Taken>, Option<Arc<File>>) {
    let pages = index.namespaces.values().map(|ns| ns.pages.len()).sum();
    let mut taken = Vec::with_capacity(pages);
    for (&slot, ns) in &index.namespaces {
        for page in &ns.pages {
            let (planes, from) = match (&page.planes, page.image) {
                (Some(planes), _) => (Some(Arc::clone(planes)), None),
                (None, Some(image)) => (None, Some(image)),
                (None, None) => continue,
            };
            taken.push(Taken {
                at: (slot, page.number),
                planes,
                from,
                to: None,
            });
        }
    }
    (taken, index.snapshot.clone())
}

/// Writes the pages `taken` lists into `file` as the next snapshot, notes
/// where each went, and fsyncs it. A resident page's planes are encoded
/// and let go; a page on disk's frame is read from `source` straight
/// into the buffer, and kept only if it checks as `pages` checks a frame
/// it reads back.
fn write_snapshot(
    taken: &mut [Taken],
    source: Option<&File>,
    mut file: &File,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(SNAPSHOT_CHUNK + MAX_PAGE_IMAGE_FRAME);
    out.extend_from_slice(&file_header());
    let mut written = 0u64;
    for page in taken {
        let ((slot, number), start) = (page.at, out.len());
        let offset = written + start as u64;
        if let Some(planes) = page.planes.take() {
            encode_page_image(key_of(slot), number, &planes, &mut out);
            page.to = image(offset, out.len() - start, &planes);
        } else if let (Some(from), Some(source)) = (page.from, source) {
            out.resize(start + from.len.get() as usize, 0);
            let frame = &mut out[start..];
            if source.read_exact_at(frame, from.offset).is_ok()
                && check_image(frame, from, key_of(slot), number, &mut PagePlanes::empty())
            {
                page.to = Some(Image { offset, ..from });
            } else {
                out.truncate(start);
            }
        }
        if out.len() >= SNAPSHOT_CHUNK {
            file.write_all(&out)?;
            written += out.len() as u64;
            out.clear();
        }
    }
    file.write_all(&out)?;
    file.sync_all()
}

/// Hands the index over to the renamed snapshot `file` in one hold of
/// the lock. A page whose rows are still the ones written lives at its
/// new frame: the index only grows by first-write-wins merges, so equal
/// counts are equal rows, and a page that gained rows has no full image
/// until the next compaction. A page on disk counts only if it is still
/// where it was copied from; if its frame did not read back and it is
/// still not resident, it goes (its rows are re-bought). Every page whose
/// new frame holds all of its rows leaves RAM. The planes that leave RAM
/// and the retired snapshot handle are dropped with the lock released.
fn adopt_snapshot(shared: &Shared, taken: &[Taken], file: File) {
    let (file, mut evicted) = (Arc::new(file), Vec::new());
    let mut taken = taken.iter().peekable();
    let mut index = shared.index();
    let Index {
        namespaces,
        snapshot,
    } = &mut *index;
    let retired = snapshot.replace(file);
    for (&slot, ns) in namespaces.iter_mut() {
        ns.pages.retain_mut(|page| {
            let at = (slot, page.number);
            while taken.next_if(|t| t.at < at).is_some() {}
            let went = taken.next_if(|t| t.at == at);
            let went = went.filter(|t| t.from.is_none() || t.from == page.image);
            let rows = page.rows();
            page.image = went.and_then(|t| t.to).filter(|to| to.rows == rows);
            if page.image.is_some() {
                evicted.extend(page.planes.take());
            }
            page.planes.is_some() || page.image.is_some()
        });
        ns.pages.shrink_to_fit();
    }
    drop(index);
    drop((evicted, retired));
}

/// Encodes `batch` and appends it to the WAL in one write, counting its
/// rows as `flushed` only if the disk took them. A write error is not
/// recoverable from here (the hot path must never block or fail on
/// disk): it is counted as a `write_failure`, and the rows stay in the
/// index, so the next compaction retries the disk with them — which is
/// why the returned weight, what the batch brings the next compaction
/// nearer by, counts them either way.
fn write_frames(wal: &mut impl Write, batch: &[Record], stats: &AtomicPersistStats) -> u64 {
    if batch.is_empty() {
        return 0;
    }
    let mut buf = Vec::with_capacity(batch.len() * 48);
    for record in batch {
        encode_frame(record, &mut buf);
    }
    let rows = batch.iter().map(weight).sum();
    match wal.write_all(&buf) {
        Ok(()) => stats.flushed.fetch_add(rows, Ordering::Relaxed),
        Err(_) => stats.write_failures.fetch_add(1, Ordering::Relaxed),
    };
    rows
}

/// The flusher thread: drain → encode → append → fsync → maybe compact.
fn flusher_loop(shared: Arc<Shared>, mut wal: File, mut generation: u64) {
    let mut since_compact = 0u64;
    loop {
        let (batch, ticket, compact_ticket, shutdown) = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            while queue.pending.is_empty()
                && queue.flushed_ticket >= queue.enqueued_ticket
                && queue.compact_done >= queue.compact_requested
                && !queue.shutdown
            {
                queue = shared.work.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
            let batch: Vec<Record> = queue.pending.drain(..).collect();
            queue.pending_rows = 0;
            (
                batch,
                queue.enqueued_ticket,
                queue.compact_requested,
                queue.shutdown,
            )
        };
        since_compact += write_frames(&mut wal, &batch, &shared.stats);
        let want_fsync = shared.config.fsync == FsyncPolicy::EveryBatch && !batch.is_empty();
        // A sync caller is parked on this ticket: sync() is the
        // durability barrier, so it always fsyncs regardless of policy.
        let answering_sync = {
            let queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.flushed_ticket < ticket
        };
        if want_fsync || answering_sync || shutdown {
            let _ = wal.sync_all();
            shared.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        // Compaction between batches: explicit requests, or the
        // automatic threshold.
        let threshold = shared.config.compact_after;
        let auto = threshold > 0 && since_compact >= threshold;
        let requested = {
            let queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.compact_done < compact_ticket
        };
        let mut compact_failure: Option<PersistError> = None;
        if auto || requested {
            match compact_now(&shared, generation) {
                Ok((new_wal, next)) => {
                    wal = new_wal;
                    generation = next;
                    shared.stats.compactions.fetch_add(1, Ordering::Relaxed);
                }
                // The error must reach any waiter parked on a compact
                // ticket (below); the records themselves stay in the
                // index, so a later attempt can still capture them.
                Err(e) => compact_failure = Some(e),
            }
            since_compact = 0;
        }
        {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let mut wake = false;
            if queue.flushed_ticket < ticket {
                queue.flushed_ticket = ticket;
                wake = true;
            }
            if queue.compact_done < compact_ticket {
                queue.compact_done = compact_ticket;
                if let Some(e) = compact_failure {
                    queue.compact_failed_through = compact_ticket;
                    queue.compact_error = Some(e.to_string());
                }
                wake = true;
            }
            if wake {
                shared.flushed.notify_all();
            }
        }
        if shutdown {
            let remaining: Vec<Record> = {
                let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                queue.pending_rows = 0;
                queue.pending.drain(..).collect()
            };
            write_frames(&mut wal, &remaining, &shared.stats);
            let _ = wal.sync_all();
            shared.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            // Release anyone still parked on a sync or compact ticket.
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.flushed_ticket = queue.enqueued_ticket;
            queue.compact_done = queue.compact_requested;
            shared.flushed.notify_all();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::replay_frames;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "expred-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> PersistKey {
        PersistKey {
            udf: n,
            table: 100 + n,
            version: 200 + n,
        }
    }

    #[test]
    fn an_offer_of_exactly_a_frames_rows_reads_nothing_back() {
        let dir = tmpdir("frame-rows");
        let rows = |range: std::ops::Range<usize>| {
            expred_stats::bits::pages_of(range.map(|row| (row, row % 3 == 0)))
        };
        let pages = rows(0..5_000);
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            store.append_pages(key(1), &pages);
            store.compact().unwrap();
            assert_eq!(store.resident_pages(), 0);
            // Images the compaction wrote.
            store.append_pages(key(1), &pages);
            assert_eq!(store.resident_pages(), 0, "a re-offer read a page back");
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        let appended = store.stats().appended;
        // Images the open indexed.
        store.append_pages(key(1), &pages);
        assert_eq!(store.resident_pages(), 0, "a re-offer read a page back");
        // As many rows as page 1 holds, one of them new: read back.
        store.append_pages(key(1), &rows(4_097..5_001));
        assert_eq!(store.resident_pages(), 1);
        assert_eq!(store.stats().appended, appended + 1);
        let held = store.rows(key(1)).unwrap();
        assert_eq!(held.len(), 5_001);
        assert_eq!(held[5_000], (5_000, false));
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn known_digests_tell_planes_a_word_apart() {
        let mut planes = PagePlanes::empty();
        planes.known[10] = 0xFF;
        let before = known_digest(&planes);
        for word in 0..PAGE_WORDS {
            let mut other = planes.clone();
            other.known[word] ^= 1 << (word % 64);
            assert_ne!(known_digest(&other), before, "word {word}");
        }
    }

    #[test]
    fn round_trip_across_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            store.append_row(key(1), 0, true, 10);
            store.append_row(key(1), 1, false, 11);
            store.append_row(key(2), 7, true, 12);
            store.sync().unwrap();
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)).unwrap(), vec![(0, true), (1, false)]);
        assert_eq!(store.rows(key(2)).unwrap(), vec![(7, true)]);
        assert_eq!(store.stats().recovered_rows, 3);
        assert_eq!(store.stats().recovered_namespaces, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `rows` as the pages [`PersistStore::append_pages`] takes.
    fn pages(rows: &[(u32, bool)]) -> Vec<(usize, PagePlanes)> {
        expred_stats::bits::pages_of(rows.iter().map(|&(row, answer)| (row as usize, answer)))
    }

    /// Every frame of the persist file at `path`, which must be intact.
    fn frames_of(path: &Path) -> Vec<Record> {
        let mut records = Vec::new();
        let (valid, len) = stream_frames(path, |_, _, record| records.push(record));
        assert_eq!(valid, len, "{} has a damaged tail", path.display());
        records
    }

    #[test]
    fn append_pages_is_a_loop_of_append_row() {
        // Rows across word and page edges, a repeat inside the batch, a
        // second batch re-offering part of the first.
        let first: Vec<(u32, bool)> = [0, 63, 64, 4_095, 4_096, 9_000, 64, 1 << 31]
            .iter()
            .map(|&row| (row, row % 3 == 0))
            .collect();
        let second: Vec<(u32, bool)> = (4_090..4_100).map(|row| (row, row % 3 == 0)).collect();
        let run = |tag: &str, batched: bool| {
            let dir = tmpdir(tag);
            let store = PersistStore::open(PersistConfig::new(&dir).with_compact_after(0)).unwrap();
            for batch in [&first, &second, &first] {
                if batched {
                    store.append_pages(key(1), &pages(batch));
                } else {
                    for &(row, answer) in batch {
                        store.append_row(key(1), row, answer, 0);
                    }
                }
            }
            store.append_pages(key(2), &[]);
            store.append_pages(key(2), &[(0, PagePlanes::empty())]);
            store.sync().unwrap();
            let live = (store.rows(key(1)), store.namespaces(), store.len());
            let (appended, flushed) = (store.stats().appended, store.stats().flushed);
            drop(store);
            let reopened = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            let recovered = (reopened.rows(key(1)), reopened.namespaces(), reopened.len());
            drop(reopened);
            let _ = fs::remove_dir_all(&dir);
            (live, appended, flushed, recovered)
        };
        let batched = run("batchloop-a", true);
        assert_eq!(batched, run("batchloop-b", false));
        let (live, appended, flushed, recovered) = batched;
        assert_eq!(live, recovered, "a reopen recovers the index");
        assert_eq!(live.2, 7 + 8, "distinct rows of both batches");
        assert_eq!((appended, flushed), (15, 15), "re-offers are free");
        assert_eq!(live.1, vec![key(1)], "an empty batch names no namespace");
    }

    #[test]
    fn a_batch_larger_than_the_queue_reaches_the_wal_in_page_frames_unshed() {
        let dir = tmpdir("bigbatch");
        let rows: Vec<(u32, bool)> = (0..10_000).map(|row| (row, row % 2 == 0)).collect();
        {
            let config = PersistConfig::new(&dir)
                .with_queue_capacity(1_000)
                .with_compact_after(0);
            let store = PersistStore::open(config).unwrap();
            store.append_pages(key(1), &pages(&rows));
            store.sync().unwrap();
            let stats = store.stats();
            assert_eq!(
                (stats.appended, stats.shed, stats.flushed),
                (10_000, 0, 10_000)
            );
        }
        let frames: Vec<usize> = frames_of(&wal_path(&dir, 0))
            .iter()
            .map(|record| match record {
                Record::PageImage { planes, .. } => planes.len(),
                other => panic!("not a page image: {other:?}"),
            })
            .collect();
        assert_eq!(frames, [PAGE_ROWS, PAGE_ROWS, 10_000 - 2 * PAGE_ROWS]);
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.len(), 10_000);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_page_image_wal_truncated_at_every_byte_recovers_its_frame_prefix() {
        // Three stage batches: images across a page edge, a page that
        // gained one row (a `Row` record), and an image over rows the
        // first batch had already landed (only its new rows are framed).
        let batches: [&[u32]; 3] = [
            &[0, 1, 63, 64, 4_095, 4_096, 4_200],
            &[9_000],
            &[0, 1, 2, 3, 4_096, 4_097],
        ];
        let dir = tmpdir("walcut");
        {
            let store = PersistStore::open(PersistConfig::new(&dir).with_compact_after(0)).unwrap();
            for rows in batches {
                let rows: Vec<(u32, bool)> = rows.iter().map(|&row| (row, row % 3 == 0)).collect();
                store.append_pages(key(1), &pages(&rows));
            }
            store.sync().unwrap();
        }
        let wal = fs::read(wal_path(&dir, 0)).unwrap();
        let frames = frames_of(&wal_path(&dir, 0));
        let kinds: Vec<(&str, usize)> = frames
            .iter()
            .map(|record| match record {
                Record::PageImage { planes, .. } => ("image", planes.len()),
                Record::Row { .. } => ("row", 1),
                other => panic!("unexpected frame {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                ("image", 5),
                ("image", 2),
                ("row", 1),
                ("image", 2),
                ("row", 1)
            ]
        );
        // Where each frame ends, and the index its prefix rebuilds.
        let mut ends = vec![HEADER_LEN];
        for record in &frames {
            let mut buf = Vec::new();
            encode_frame(record, &mut buf);
            ends.push(ends.last().unwrap() + buf.len());
        }
        assert_eq!(*ends.last().unwrap(), wal.len());
        // The rows the first `n` frames rebuild.
        let prefix = |n: usize| {
            let mut index = Index::default();
            for record in &frames[..n] {
                index.apply(record.clone());
            }
            let ns = index.namespaces.remove(&slot(key(1)))?;
            let rows = ns.pages.into_iter().flat_map(|page| {
                let planes = page.planes.expect("a replayed WAL page is resident");
                let rows: Vec<_> = planes.rows(page.number as usize * PAGE_ROWS).collect();
                rows.into_iter().map(|(row, answer)| (row as u32, answer))
            });
            Some(rows.collect::<Vec<_>>())
        };
        let cut_dir = tmpdir("walcut-copy");
        for cut in HEADER_LEN..=wal.len() {
            let _ = fs::remove_dir_all(&cut_dir);
            fs::create_dir_all(&cut_dir).unwrap();
            fs::write(wal_path(&cut_dir, 0), &wal[..cut]).unwrap();
            let store = PersistStore::open(PersistConfig::new(&cut_dir)).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
            assert_eq!(store.rows(key(1)), prefix(whole), "cut at {cut}");
            let stats = store.stats();
            assert_eq!(stats.tail_bytes_discarded, (cut - ends[whole]) as u64);
        }
        let _ = fs::remove_dir_all(&cut_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_backlog_an_append_finds_sheds_oldest_first_never_the_append() {
        let batch = |rows: std::ops::Range<u32>| Record::PageImage {
            key: key(1),
            page: 0,
            planes: Box::new(
                pages(&rows.map(|row| (row, true)).collect::<Vec<_>>())
                    .remove(0)
                    .1,
            ),
        };
        let row = |row| Record::Row {
            key: key(1),
            row,
            answer: true,
        };
        let mut queue = FlushQueue::default();
        // Below the bound nothing sheds, however large the arrival.
        assert_eq!(queue.admit([batch(0..40), batch(40..80)], 100), 0);
        assert_eq!(queue.admit([batch(80..99)], 100), 0);
        assert_eq!((queue.pending.len(), queue.pending_rows), (3, 99));
        assert_eq!(queue.admit([row(99)], 100), 0);
        // At the bound the oldest frames go, one whole frame at a time,
        // until the backlog is under it; then the arrival is admitted
        // whole, larger than the queue or not.
        assert_eq!(queue.admit([batch(100..400), batch(400..700)], 100), 40);
        assert_eq!((queue.pending.len(), queue.pending_rows), (5, 660));
        assert_eq!(
            queue.admit([row(700)], 100),
            660,
            "the disk is a queue behind"
        );
        assert_eq!(queue.pending.into_iter().collect::<Vec<_>>(), [row(700)]);
        // A record without rows weighs one.
        assert_eq!(weight(&Record::TombstoneAll), 1);
    }

    #[test]
    fn a_wal_write_the_disk_refuses_is_counted_as_failed_not_flushed() {
        struct FullDisk;
        impl Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("no space left on device"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let batch = [
            Record::PageImage {
                key: key(1),
                page: 0,
                planes: Box::new(pages(&[(0, true), (1, false), (2, true)]).remove(0).1),
            },
            Record::TombstoneAll,
        ];
        let stats = AtomicPersistStats::default();
        // Either way the rows bring the next compaction nearer.
        assert_eq!(write_frames(&mut FullDisk, &batch, &stats), 4);
        let s = stats.snapshot();
        assert_eq!((s.flushed, s.write_failures), (0, 1));
        let mut wal = Vec::new();
        assert_eq!(write_frames(&mut wal, &batch, &stats), 4);
        let s = stats.snapshot();
        assert_eq!((s.flushed, s.write_failures), (4, 1));
        let mut replayed = Vec::new();
        assert_eq!(replay_frames(&wal, |r| replayed.push(r)), wal.len());
        assert_eq!(replayed, batch);
        assert_eq!(write_frames(&mut FullDisk, &[], &stats), 0);
        assert_eq!(stats.snapshot().write_failures, 1, "nothing to write");
    }

    #[test]
    fn page_merge_keeps_the_first_write_and_the_oldest_stamp() {
        let (mut index, ns) = (Index::default(), slot(key(1)));
        assert_eq!(index.merge(ns, 0, 1, 0b110, 0b100), 0b110);
        // A later offer of a known row changes nothing; a new row lands.
        assert_eq!(index.merge(ns, 0, 1, 0b100, 0b000), 0);
        assert_eq!(index.merge(ns, 0, 1, 0b1001, 0b0001), 0b1001);
        // A replayed row merges the same way.
        assert_eq!(index.merge_row(ns, 66, false), 0);
        assert_eq!(index.merge_row(ns, 68, true), 1);
        let rows: Vec<(usize, bool)> = index.planes_mut(ns, 0).rows(0).collect();
        assert_eq!(
            rows,
            vec![(64, true), (65, false), (66, true), (67, false), (68, true)]
        );
    }

    #[test]
    fn a_page_image_past_the_u32_row_space_is_a_discarded_tail() {
        // A CRC-valid frame whose page number would put its rows past
        // `u32::MAX`: recovery keeps the frame before it, counts it as
        // tail, and reading the rows back cannot overflow.
        let dir = tmpdir("pagelimit");
        fs::create_dir_all(&dir).unwrap();
        let image = |page: usize| Record::PageImage {
            key: key(1),
            page: page as u32,
            planes: Box::new(pages(&[(5, true)]).remove(0).1),
        };
        let mut wal = file_header().to_vec();
        encode_frame(&image(PAGE_LIMIT - 1), &mut wal);
        let good = wal.len();
        encode_frame(&image(PAGE_LIMIT), &mut wal);
        fs::write(wal_path(&dir, 0), &wal).unwrap();
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        let row = u32::MAX - (PAGE_ROWS as u32 - 1) + 5;
        assert_eq!(store.rows(key(1)).unwrap(), [(row, true)]);
        let stats = store.stats();
        assert_eq!(
            (stats.recovered_rows, stats.tail_bytes_discarded),
            (1, (wal.len() - good) as u64)
        );
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_namespace_snapshots_under_a_byte_per_answer() {
        let dir = tmpdir("pageimage");
        let rows: Vec<(u32, bool)> = (0..20_000).map(|row| (row, row % 3 == 0)).collect();
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            store.append_pages(key(1), &pages(&rows));
            store.compact().unwrap();
        }
        let snapshot = snapshot_path(&dir, 1);
        let bytes = fs::metadata(&snapshot).unwrap().len();
        assert!(bytes <= 20_000, "{bytes} bytes for 20 000 answers");
        let frames = frames_of(&snapshot);
        let pages = frames
            .iter()
            .filter(|r| matches!(r, Record::PageImage { .. }))
            .count();
        assert_eq!((pages, frames.len()), (5, 5), "one image per page");
        assert_eq!(frames_of(&wal_path(&dir, 1)), [], "the WAL was retired");
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        let recovered = store.rows(key(1)).unwrap();
        assert_eq!(recovered.len(), 20_000);
        assert_eq!(recovered, rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_written_before_page_images_still_opens() {
        // What an earlier release left behind: a snapshot holding one
        // row batch per namespace and a selectivity record, and a WAL of
        // single-row records.
        let dir = tmpdir("legacy");
        fs::create_dir_all(&dir).unwrap();
        let mut snapshot = file_header().to_vec();
        let old: Vec<(u32, bool)> = (0..6_000).map(|r| (r, r % 2 == 0)).collect();
        encode_frame(
            &Record::RowBatch {
                key: key(1),
                rows: old.clone(),
            },
            &mut snapshot,
        );
        let selectivity = Record::Selectivity {
            key: key(1),
            passes: 3_000,
            total: 6_000,
        };
        encode_frame(&selectivity, &mut snapshot);
        fs::write(snapshot_path(&dir, 3), snapshot).unwrap();
        let mut wal = file_header().to_vec();
        for row in 6_000..6_010u32 {
            let record = Record::Row {
                key: key(1),
                row,
                answer: true,
            };
            encode_frame(&record, &mut wal);
        }
        fs::write(wal_path(&dir, 3), wal).unwrap();

        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.stats().recovered_rows, 6_010);
        let rows = store.rows(key(1)).unwrap();
        assert_eq!(rows.len(), 6_010);
        for (&(row, answer), want) in rows.iter().zip(0u32..) {
            assert_eq!(row, want);
            assert_eq!(answer, row >= 6_000 || row % 2 == 0);
        }
        // And the next compaction rewrites it as page images, and only
        // those: the selectivity record is dropped.
        store.compact().unwrap();
        drop(store);
        let frames = frames_of(&snapshot_path(&dir, 4));
        assert!(matches!(
            frames[..],
            [Record::PageImage { .. }, Record::PageImage { .. }]
        ));
        assert_eq!(
            PersistStore::open(PersistConfig::new(&dir)).unwrap().len(),
            6_010
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn graceful_drop_flushes_without_explicit_sync() {
        let dir = tmpdir("dropflush");
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            for row in 0..100 {
                store.append_row(key(1), row, row % 2 == 0, row as u64);
            }
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)).unwrap().len(), 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_write_wins_and_reoffers_are_free() {
        let dir = tmpdir("firstwrite");
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        store.append_row(key(1), 5, true, 100);
        store.append_row(key(1), 5, true, 999);
        assert_eq!(store.stats().appended, 1, "re-offer is a no-op");
        assert_eq!(store.rows(key(1)).unwrap(), vec![(5, true)]);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstone_survives_restart() {
        // A WAL an older build wrote, which could clear everything: a
        // row, the clear's `TombstoneAll` frame, and a row after it.
        // Replay drops what came before the frame, as it always did.
        let dir = tmpdir("tombstone");
        fs::create_dir_all(&dir).unwrap();
        let mut wal = file_header().to_vec();
        let row = |key, row, answer| Record::Row { key, row, answer };
        encode_frame(&row(key(1), 0, true), &mut wal);
        encode_frame(&Record::TombstoneAll, &mut wal);
        encode_frame(&row(key(2), 3, false), &mut wal);
        fs::write(wal_path(&dir, 0), &wal).unwrap();
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)), None, "cleared namespace resurrected");
        assert_eq!(store.rows(key(2)).unwrap(), vec![(3, false)]);
        // Both rows were read back; the frame then dropped the first.
        let stats = store.stats();
        assert_eq!((stats.recovered_rows, stats.tail_bytes_discarded), (2, 0));
        // The next snapshot holds only what survived the clear.
        store.compact().unwrap();
        drop(store);
        let reopened = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(reopened.namespaces(), [key(2)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_contents_and_retires_the_wal() {
        let dir = tmpdir("compact");
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            for row in 0..500 {
                store.append_row(key(1), row, row % 3 == 0, row as u64);
            }
            store.compact().unwrap();
            // Post-compaction appends land in the new generation's WAL.
            store.append_row(key(2), 1, true, 7);
            store.sync().unwrap();
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)).unwrap().len(), 500);
        assert_eq!(store.rows(key(2)).unwrap(), vec![(1, true)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn automatic_compaction_fires_past_the_threshold() {
        let dir = tmpdir("autocompact");
        {
            let store = PersistStore::open(
                PersistConfig::new(&dir)
                    .with_compact_after(64)
                    .with_fsync(FsyncPolicy::Never),
            )
            .unwrap();
            for row in 0..1_000 {
                store.append_row(key(1), row, true, row as u64);
            }
            store.sync().unwrap();
            // Give the flusher a beat to run its post-batch compaction.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while store.stats().compactions == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(store.stats().compactions >= 1, "threshold never fired");
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)).unwrap().len(), 1_000);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shedding_bounds_the_queue_but_keeps_the_index() {
        let dir = tmpdir("shed");
        {
            let store = PersistStore::open(
                PersistConfig::new(&dir)
                    .with_queue_capacity(4)
                    .with_compact_after(0),
            )
            .unwrap();
            // Flood while the flusher may lag: shedding is allowed,
            // index completeness is not.
            for row in 0..2_000 {
                store.append_row(key(1), row, true, 0);
            }
            assert_eq!(store.len(), 2_000);
            // A sync + compact captures the index regardless of sheds.
            store.compact().unwrap();
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)).unwrap().len(), 2_000);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_io_failure_surfaces_to_waiters_instead_of_ok() {
        let dir = tmpdir("compactfail");
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        store.append_row(key(1), 0, true, 1);
        store.sync().unwrap();
        // Yank the directory out from under the store: the snapshot temp
        // file cannot be created, so the attempt must fail *loudly* —
        // an Ok here would report durability that never happened.
        fs::remove_dir_all(&dir).unwrap();
        assert!(store.compact().is_err(), "compaction failure swallowed");
        assert_eq!(store.stats().compactions, 0);
        // Once the directory is back, the next request succeeds — the
        // recorded failure covers only the tickets it answered.
        fs::create_dir_all(&dir).unwrap();
        store
            .compact()
            .expect("compaction works once the dir is back");
        assert_eq!(store.stats().compactions, 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_wal_tail_recovers_the_prefix_and_appends_cleanly() {
        let dir = tmpdir("tail");
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            for row in 0..10 {
                store.append_row(key(1), row, true, row as u64);
            }
            store.sync().unwrap();
        }
        // Chop the WAL mid-frame.
        let wal = wal_path(&dir, 0);
        let len = fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            let recovered = store.rows(key(1)).unwrap().len();
            assert_eq!(recovered, 9, "one torn record lost, prefix kept");
            assert!(store.stats().tail_bytes_discarded > 0);
            // Appends after recovery extend the truncated (clean) file.
            store.append_row(key(1), 99, false, 99);
            store.sync().unwrap();
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)).unwrap().len(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_or_garbage_files_are_ignored_not_fatal() {
        let dir = tmpdir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("snapshot-000003"), b"not a persist file").unwrap();
        fs::write(dir.join("wal-000003"), b"NOPE").unwrap();
        fs::write(dir.join("README"), b"hello").unwrap();
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert!(store.is_empty());
        store.append_row(key(1), 1, true, 1);
        store.sync().unwrap();
        drop(store);
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)).unwrap(), vec![(1, true)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_with_nothing_pending_returns_immediately() {
        let dir = tmpdir("emptysync");
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        store.sync().unwrap();
        store.sync().unwrap();
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_all_land() {
        let dir = tmpdir("concurrent");
        {
            let store = Arc::new(PersistStore::open(PersistConfig::new(&dir)).unwrap());
            std::thread::scope(|scope| {
                for worker in 0..8u32 {
                    let store = Arc::clone(&store);
                    scope.spawn(move || {
                        for i in 0..250u32 {
                            store.append_row(key(worker as u64), i, true, 0);
                        }
                    });
                }
            });
            store.sync().unwrap();
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.len(), 2_000);
        for worker in 0..8u64 {
            assert_eq!(store.rows(key(worker)).unwrap().len(), 250);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
