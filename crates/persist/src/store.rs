//! [`PersistStore`]: the durable store — WAL, snapshots, recovery.
//!
//! # Write path
//!
//! [`PersistStore::append_row`] updates the in-memory index
//! *synchronously* (first write per `(namespace, row)` wins — answers
//! are deterministic per table version, so a re-offer of the same row is
//! a no-op that also keeps the original TTL timestamp) and enqueues a
//! WAL record on a bounded queue. A background flusher thread drains the
//! queue in batches, appends frames to the current WAL file, and fsyncs
//! per [`FsyncPolicy`]. When the queue is full the *oldest* pending
//! record is shed: the hot path never blocks on disk. Shedding trades
//! durability-until-compaction only — the index still holds the answer,
//! and the next *snapshot compaction* re-captures it. Nothing else
//! does: [`PersistStore::sync`] and a graceful drop flush the pending
//! *queue*, which no longer contains the shed record, and a re-offer of
//! the same row deduplicates against the index without re-enqueuing.
//! Callers that must not lose shed records across a restart therefore
//! compact before exiting (the engine's `flush_persistence` does so
//! whenever `shed > 0`). Losing one anyway is a re-buy, never a wrong
//! answer.
//!
//! # Files and crash consistency
//!
//! The directory holds generation-numbered pairs: `snapshot-<g>` (the
//! whole index at the moment generation `g` began) and `wal-<g>`
//! (appends since). Compaction writes `snapshot-<g+1>` as a temp file,
//! fsyncs, renames (atomic on POSIX), creates `wal-<g+1>`, and only then
//! deletes generation `g`'s files — a crash at any byte boundary leaves
//! either a complete old generation or a complete new one. Recovery
//! picks the highest generation with a readable snapshot header, replays
//! the snapshot, then replays `wal-<g>` on top, stopping at the first
//! corrupt or truncated frame and truncating the file back to the valid
//! prefix so later appends never land after garbage.

use crate::format::{
    check_header, encode_frame, file_header, replay_frames, PersistKey, Record, HEADER_LEN,
};
use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default bound on queued-but-unflushed WAL records.
pub const DEFAULT_QUEUE_CAPACITY: usize = 8_192;

/// Default WAL record count that triggers background compaction.
pub const DEFAULT_COMPACT_AFTER: u64 = 65_536;

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
    /// Bound on queued-but-unflushed WAL records; beyond it the oldest
    /// pending record is shed (see the module docs).
    pub queue_capacity: usize,
    /// Batched-fsync policy for the flusher thread.
    pub fsync: FsyncPolicy,
    /// WAL records between automatic compactions; 0 disables automatic
    /// compaction (explicit [`PersistStore::compact`] still works).
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

    /// Replaces the queue bound (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Replaces the fsync policy.
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Replaces the auto-compaction threshold (0 disables).
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
        /// Queue records dropped by backpressure shedding.
        shed,
        /// Records written to the WAL by the flusher.
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
    }
}

/// One namespace's recovered/accepted rows: `row -> (answer, ts_nanos)`.
type NamespaceRows = HashMap<u32, (bool, u64)>;

/// The authoritative in-memory image of the store. The WAL and snapshots
/// only exist to rebuild this after a restart.
#[derive(Debug, Default)]
struct Index {
    rows: HashMap<PersistKey, NamespaceRows>,
    selectivity: HashMap<PersistKey, (u64, u64)>,
}

impl Index {
    fn apply(&mut self, record: Record) -> u64 {
        match record {
            Record::Row {
                key,
                row,
                answer,
                ts_nanos,
            } => {
                self.rows
                    .entry(key)
                    .or_default()
                    .entry(row)
                    .or_insert((answer, ts_nanos));
                1
            }
            Record::RowBatch { key, rows } => {
                let ns = self.rows.entry(key).or_default();
                let count = rows.len() as u64;
                for (row, answer, ts_nanos) in rows {
                    ns.entry(row).or_insert((answer, ts_nanos));
                }
                count
            }
            Record::TombstoneAll => {
                self.rows.clear();
                self.selectivity.clear();
                0
            }
            Record::Selectivity { key, passes, total } => {
                self.selectivity.insert(key, (passes, total));
                0
            }
        }
    }

    fn to_records(&self) -> Vec<Record> {
        let mut records: Vec<Record> = Vec::with_capacity(self.rows.len() + self.selectivity.len());
        let mut keys: Vec<&PersistKey> = self.rows.keys().collect();
        keys.sort();
        for key in keys {
            let ns = &self.rows[key];
            let mut rows: Vec<(u32, bool, u64)> =
                ns.iter().map(|(&r, &(a, t))| (r, a, t)).collect();
            rows.sort_unstable_by_key(|&(r, _, _)| r);
            records.push(Record::RowBatch { key: *key, rows });
        }
        let mut sel: Vec<(&PersistKey, &(u64, u64))> = self.selectivity.iter().collect();
        sel.sort();
        for (key, &(passes, total)) in sel {
            records.push(Record::Selectivity {
                key: *key,
                passes,
                total,
            });
        }
        records
    }
}

/// What the hot path hands the flusher thread.
#[derive(Debug)]
struct FlushQueue {
    pending: VecDeque<Record>,
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

/// Reads a persist file's frames (tolerating a corrupt tail), returning
/// `(records, valid_prefix_len, file_len)`. A missing file reads as
/// empty; a file with a foreign or damaged header contributes nothing
/// (its whole body is "tail").
fn read_frames(path: &Path) -> (Vec<Record>, u64, u64) {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            if f.read_to_end(&mut bytes).is_err() {
                return (Vec::new(), 0, 0);
            }
        }
        Err(_) => return (Vec::new(), 0, 0),
    }
    let file_len = bytes.len() as u64;
    if !check_header(&bytes) {
        return (Vec::new(), 0, file_len);
    }
    let mut records = Vec::new();
    let valid = replay_frames(&bytes[HEADER_LEN..], |r| records.push(r));
    (records, (HEADER_LEN + valid) as u64, file_len)
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
        let mut index = Index::default();
        let mut generation = 0;
        // Walk newest-first: the first generation whose snapshot replays
        // (or that never had one — WAL-only generation 0) is the state.
        for &g in generations.iter().rev() {
            let snap = snapshot_path(&config.dir, g);
            let (snap_records, snap_valid, snap_len) = read_frames(&snap);
            if snap_len > 0 && snap_valid == 0 && g > 0 {
                // A snapshot file exists but its header is unreadable —
                // not one of ours (snapshots are written whole via temp +
                // rename, so even an *empty* valid snapshot replays its
                // header). Fall back to the previous generation.
                continue;
            }
            for record in snap_records {
                let rows = index.apply(record);
                stats.recovered_rows.fetch_add(rows, Ordering::Relaxed);
            }
            if snap_len > 0 {
                let kept = snap_valid.max(HEADER_LEN as u64).min(snap_len);
                stats
                    .tail_bytes_discarded
                    .fetch_add(snap_len - kept, Ordering::Relaxed);
            }
            let wal = wal_path(&config.dir, g);
            let (wal_records, wal_valid, wal_len) = read_frames(&wal);
            if snap_len == 0 && wal_len > 0 && wal_valid == 0 && g > 0 {
                // A snapshot-less generation whose WAL header is foreign:
                // not ours either (we create WALs header-first, fsynced).
                // Keep looking for a real generation.
                continue;
            }
            for record in wal_records {
                let rows = index.apply(record);
                stats.recovered_rows.fetch_add(rows, Ordering::Relaxed);
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
            .store(index.rows.len() as u64, Ordering::Relaxed);

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
            queue: Mutex::new(FlushQueue {
                pending: VecDeque::new(),
                enqueued_ticket: 0,
                flushed_ticket: 0,
                compact_requested: 0,
                compact_done: 0,
                compact_failed_through: 0,
                compact_error: None,
                shutdown: false,
            }),
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

    /// Accepts one fresh row answer. First write per `(key, row)` wins
    /// (deterministic answers make a re-offer a no-op); a new row updates
    /// the index synchronously and enqueues a WAL record, shedding the
    /// oldest pending record if the queue is full. Never blocks on disk.
    pub fn append_row(&self, key: PersistKey, row: u32, answer: bool, ts_nanos: u64) {
        {
            let mut index = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
            let ns = index.rows.entry(key).or_default();
            match ns.entry(row) {
                std::collections::hash_map::Entry::Occupied(existing) => {
                    debug_assert_eq!(
                        existing.get().0,
                        answer,
                        "answer flip for persisted row {row} — nondeterministic UDF?"
                    );
                    return;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert((answer, ts_nanos));
                }
            }
        }
        self.shared.stats.appended.fetch_add(1, Ordering::Relaxed);
        self.enqueue(Record::Row {
            key,
            row,
            answer,
            ts_nanos,
        });
    }

    /// Records absolute selectivity counters for `key` (overwrite
    /// semantics — replay keeps the last record, so flushing live
    /// counters repeatedly never double-counts).
    pub fn record_selectivity(&self, key: PersistKey, passes: u64, total: u64) {
        if total == 0 {
            return;
        }
        {
            let mut index = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
            index.selectivity.insert(key, (passes, total));
        }
        self.enqueue(Record::Selectivity { key, passes, total });
    }

    /// Durably forgets everything: clears the index, logs a tombstone,
    /// and synchronously compacts to an (empty or post-clear-only)
    /// snapshot, so a restart cannot resurrect cleared answers even if
    /// the process dies right after this call returns `Ok`. An `Err`
    /// means the durable clear did *not* happen (the in-memory index is
    /// cleared, but a restart may still see the old answers) — the
    /// compaction failure is propagated, never swallowed.
    pub fn tombstone_all(&self) -> Result<(), PersistError> {
        {
            let mut index = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
            index.rows.clear();
            index.selectivity.clear();
        }
        // Pending queue records describe rows the index no longer holds;
        // drop them so the flusher cannot write them after the clear.
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.pending.clear();
        }
        // The tombstone record makes the clear durable in the WAL; the
        // compaction makes it durable even if that record is later
        // superseded (and reclaims the dead bytes immediately).
        self.enqueue(Record::TombstoneAll);
        self.compact()
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
        let index = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
        index.rows.keys().copied().collect()
    }

    /// The rows persisted under `key`: `(row, answer, ts_nanos)`.
    pub fn rows(&self, key: PersistKey) -> Option<Vec<(u32, bool, u64)>> {
        let index = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
        index.rows.get(&key).map(|ns| {
            let mut rows: Vec<(u32, bool, u64)> =
                ns.iter().map(|(&r, &(a, t))| (r, a, t)).collect();
            rows.sort_unstable_by_key(|&(r, _, _)| r);
            rows
        })
    }

    /// The absolute selectivity counters persisted under `key`.
    pub fn selectivity(&self, key: PersistKey) -> Option<(u64, u64)> {
        let index = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
        index.selectivity.get(&key).copied()
    }

    /// Every persisted selectivity counter: `(key, passes, total)`, in
    /// key order (selectivity keys need not have persisted rows).
    pub fn selectivities(&self) -> Vec<(PersistKey, u64, u64)> {
        let index = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(PersistKey, u64, u64)> = index
            .selectivity
            .iter()
            .map(|(&k, &(p, t))| (k, p, t))
            .collect();
        out.sort_unstable_by_key(|&(k, _, _)| k);
        out
    }

    /// Total persisted row answers across namespaces.
    pub fn len(&self) -> usize {
        let index = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
        index.rows.values().map(|ns| ns.len()).sum()
    }

    /// Whether nothing is persisted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Life-so-far counters.
    pub fn stats(&self) -> PersistStats {
        self.shared.stats.snapshot()
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.shared.config.dir
    }

    fn enqueue(&self, record: Record) {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.pending.len() >= self.shared.config.queue_capacity {
            queue.pending.pop_front();
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        }
        queue.pending.push_back(record);
        queue.enqueued_ticket += 1;
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
/// rename), opens `wal-<g+1>`, and deletes generation `g`'s files.
/// **Flusher-thread only** (between batches): with a single WAL writer,
/// every record flushed before the index freeze is *in* the frozen index
/// (the hot path indexes synchronously before enqueuing), so the new
/// snapshot strictly covers the retired generation — a crash at any
/// point leaves either the complete old generation or the complete new
/// one.
fn compact_now(shared: &Shared, generation: u64) -> Result<(File, u64), PersistError> {
    let dir = &shared.config.dir;
    // Freeze a consistent image. Appends racing this freeze also sit in
    // the queue and will flush into the *new* WAL after rotation — a
    // record landing in both the snapshot and the new WAL replays
    // idempotently (first write wins, identical values).
    let records = {
        let index = shared.index.lock().unwrap_or_else(|e| e.into_inner());
        index.to_records()
    };
    let next = generation + 1;
    let tmp = dir.join(format!("snapshot-{next:06}.tmp"));
    {
        let mut f = File::create(&tmp).map_err(io_err(format!("create {}", tmp.display())))?;
        let mut buf = Vec::with_capacity(64 * 1024);
        buf.extend_from_slice(&file_header());
        for record in &records {
            encode_frame(record, &mut buf);
        }
        f.write_all(&buf)
            .map_err(io_err(format!("write {}", tmp.display())))?;
        f.sync_all()
            .map_err(io_err(format!("sync {}", tmp.display())))?;
    }
    let snap = snapshot_path(dir, next);
    fs::rename(&tmp, &snap).map_err(io_err(format!("rename {}", snap.display())))?;
    sync_dir(dir);
    let new_wal = create_with_header(&wal_path(dir, next))?;
    let _ = fs::remove_file(wal_path(dir, generation));
    let _ = fs::remove_file(snapshot_path(dir, generation));
    Ok((new_wal, next))
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
            (
                batch,
                queue.enqueued_ticket,
                queue.compact_requested,
                queue.shutdown,
            )
        };
        let flushed = batch.len() as u64;
        if !batch.is_empty() {
            let mut buf = Vec::with_capacity(batch.len() * 48);
            for record in &batch {
                encode_frame(record, &mut buf);
            }
            // A write error is not recoverable from here (the hot path
            // must never block or fail on disk); the records stay in the
            // index, so the next compaction retries the disk with them.
            let _ = wal.write_all(&buf);
            shared.stats.flushed.fetch_add(flushed, Ordering::Relaxed);
            since_compact += flushed;
        }
        let want_fsync = shared.config.fsync == FsyncPolicy::EveryBatch && flushed > 0;
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
                queue.pending.drain(..).collect()
            };
            if !remaining.is_empty() {
                let mut buf = Vec::new();
                for record in &remaining {
                    encode_frame(record, &mut buf);
                }
                let _ = wal.write_all(&buf);
                shared
                    .stats
                    .flushed
                    .fetch_add(remaining.len() as u64, Ordering::Relaxed);
            }
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
    fn round_trip_across_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            store.append_row(key(1), 0, true, 10);
            store.append_row(key(1), 1, false, 11);
            store.append_row(key(2), 7, true, 12);
            store.record_selectivity(key(1), 3, 9);
            store.sync().unwrap();
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(
            store.rows(key(1)).unwrap(),
            vec![(0, true, 10), (1, false, 11)]
        );
        assert_eq!(store.rows(key(2)).unwrap(), vec![(7, true, 12)]);
        assert_eq!(store.selectivity(key(1)), Some((3, 9)));
        assert_eq!(store.stats().recovered_rows, 3);
        assert_eq!(store.stats().recovered_namespaces, 2);
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
        assert_eq!(store.rows(key(1)).unwrap(), vec![(5, true, 100)]);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstone_survives_restart() {
        let dir = tmpdir("tombstone");
        {
            let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
            store.append_row(key(1), 0, true, 1);
            store.sync().unwrap();
            store.tombstone_all().unwrap();
            // Answers written *after* a clear are fresh state, kept.
            store.append_row(key(2), 3, false, 2);
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)), None, "cleared namespace resurrected");
        assert_eq!(store.rows(key(2)).unwrap(), vec![(3, false, 2)]);
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
            store.record_selectivity(key(1), 167, 500);
            store.compact().unwrap();
            // Post-compaction appends land in the new generation's WAL.
            store.append_row(key(2), 1, true, 7);
            store.sync().unwrap();
        }
        let store = PersistStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(store.rows(key(1)).unwrap().len(), 500);
        assert_eq!(store.selectivity(key(1)), Some((167, 500)));
        assert_eq!(store.rows(key(2)).unwrap(), vec![(1, true, 7)]);
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
        assert!(
            store.tombstone_all().is_err(),
            "tombstone claimed durability without a snapshot"
        );
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
        assert_eq!(store.rows(key(1)).unwrap(), vec![(1, true, 1)]);
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
