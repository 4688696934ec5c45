//! The engine ↔ durable-store bridge: identity translation, spill, and
//! rehydration.
//!
//! [`expred_persist::PersistStore`] speaks *process-independent* keys —
//! `(udf fingerprint, schema fingerprint, table version)` — because a
//! [`expred_table::TableId`] is a process-local counter that means
//! nothing after a restart. The live cache tiers speak *process-local*
//! [`CacheNamespace`]s keyed by that id. `PersistLayer` owns the
//! translation in both directions:
//!
//! * **Spill** (live → disk): the layer implements
//!   [`expred_exec::SpillSink`], so every batch of fresh answers entering
//!   the [`expred_exec::CacheStore`] reaches the WAL as one
//!   [`PersistStore::append_pages`] call over the same pages: only the
//!   namespace is translated, through the table-id registry, and the
//!   clock is read once per offer. The rows are never unpacked; the
//!   counters are popcounts of the pages. Offers for unregistered tables
//!   are dropped and counted — never guessed — and so are pages past the
//!   `u32` row space the format can name.
//! * **Rehydrate** (disk → live): the first time a session submits a
//!   query over a dataset, the layer registers the table and prefill-loads
//!   every persisted namespace whose `(schema fingerprint, table
//!   version)` *both* match the live table — a version-checked hydration
//!   that can serve stale answers to no one. The answers move as page
//!   copies ([`PersistStore::pages`] → [`CacheStore::prefill`]), landing
//!   a 64-row word at a time — and with them the pass rates the
//!   expression optimizer reads ([`CacheStore::pass_rate`]), so a
//!   restarted session plans as the one that paid for the answers did.
//! * **Hand-off** (a table dies): the row tier drops a dead table's
//!   namespaces and offers each one's pages once more, outside its lock
//!   and never from inside a prefill. The offer deduplicates against the
//!   durable index, so rows already durable add no WAL record, and rows
//!   that missed an earlier offer still reach the store, as
//!   [`crate::QueryEngine::flush_persistence`] would have sent them. Then
//!   the layer forgets the table's registration
//!   ([`SpillSink::table_dropped`]), so the registry, too, is bounded by
//!   the tables that are live.
//!
//! Write timestamps are wall-clock (`UNIX_EPOCH` nanos), one per offered
//! batch, kept per 4 096-row page by the store (a page is as old as its
//! oldest write), so a cache TTL ([`expred_exec::CacheStore::set_ttl`])
//! measures answer age across restarts: a rehydrated namespace is
//! backdated by its oldest page's age and expires on schedule, not one
//! full TTL after every reboot.

use expred_exec::{CacheNamespace, CacheStore, SpillSink};
use expred_persist::{PagePlanes, PersistKey, PersistStore, PAGE_LIMIT};
use expred_table::datasets::Dataset;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::RwLock;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Current wall-clock time as nanos since `UNIX_EPOCH` (0 if the clock
/// is before the epoch — timestamps only feed TTL aging, so degrading to
/// "brand new" is safe).
pub(crate) fn now_unix_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// One registered table: its process-independent schema identity plus
/// which table versions have already been rehydrated this session.
#[derive(Debug, Default)]
struct TableReg {
    schema_fp: u64,
    hydrated: HashSet<u64>,
}

expred_stats::counter_set! {
    /// A session-level snapshot of the whole persistence pipeline: the
    /// store's own counters ([`expred_persist::PersistStats`], copied in by
    /// `PersistLayer::session_stats` — their slots in the atomic twin stay
    /// zero) followed by the engine layer's translation/rehydration
    /// counters, which the twin counts.
    pub struct PersistSessionStats, atomic struct LayerCounters {
        /// Row answers accepted into the durable index.
        appended,
        /// Queued WAL rows dropped under backpressure (recaptured by
        /// compaction).
        shed,
        /// Rows (and tombstone records, one each) written to the WAL by
        /// the flusher.
        flushed,
        /// `fsync` calls issued.
        fsyncs,
        /// Snapshot compactions completed.
        compactions,
        /// Row answers recovered from disk at open.
        recovered_rows,
        /// Namespaces recovered from disk at open.
        recovered_namespaces,
        /// Corrupt/truncated tail bytes discarded at open.
        tail_bytes_discarded,
        /// Rows of fresh cache writes offered to the store.
        spilled_offers,
        /// Offers dropped because their table was never registered.
        skipped_unregistered,
        /// Offers dropped because the row index exceeds the on-disk `u32`
        /// key width.
        skipped_row_overflow,
        /// Rows prefill-loaded into the live cache from disk.
        rehydrated_rows,
        /// Namespaces prefill-loaded into the live cache from disk.
        rehydrated_namespaces,
    }
}

/// The engine's durable-persistence bridge. See the module docs.
#[derive(Debug)]
pub(crate) struct PersistLayer {
    store: PersistStore,
    /// Table instance id → registration (schema fingerprint + hydrated
    /// versions). Read on every spill; written once per new table state,
    /// and once more when the table dies.
    tables: RwLock<HashMap<u64, TableReg>>,
    counters: LayerCounters,
}

impl PersistLayer {
    pub(crate) fn new(store: PersistStore) -> Self {
        Self {
            store,
            tables: RwLock::new(HashMap::new()),
            counters: LayerCounters::default(),
        }
    }

    pub(crate) fn store(&self) -> &PersistStore {
        &self.store
    }

    /// Translates a live namespace to its durable key, if the table is
    /// registered.
    fn durable_key(&self, namespace: CacheNamespace) -> Option<PersistKey> {
        let tables = self.tables.read().unwrap_or_else(|e| e.into_inner());
        tables.get(&namespace.table).map(|reg| PersistKey {
            udf: namespace.udf,
            table: reg.schema_fp,
            version: namespace.version,
        })
    }

    /// Registers `ds`'s current state and — exactly once per `(table,
    /// version)` per session — rehydrates every matching persisted
    /// namespace into `cache`.
    pub(crate) fn register(&self, ds: &Dataset, cache: &CacheStore) {
        let tid = ds.table.id().as_u64();
        let schema_fp = ds.table.schema().fingerprint();
        let version = ds.table.version();
        {
            let tables = self.tables.read().unwrap_or_else(|e| e.into_inner());
            if let Some(reg) = tables.get(&tid) {
                if reg.schema_fp == schema_fp && reg.hydrated.contains(&version) {
                    return;
                }
            }
        }
        let mut tables = self.tables.write().unwrap_or_else(|e| e.into_inner());
        let reg = tables.entry(tid).or_default();
        // A table id whose schema changed is a different durable identity:
        // re-point the registration (hydration below is version-checked,
        // so nothing stale can have leaked under the old mapping).
        if reg.schema_fp != schema_fp {
            reg.schema_fp = schema_fp;
            reg.hydrated.clear();
        }
        if !reg.hydrated.insert(version) {
            return;
        }
        // Hydrate while holding the write lock: it happens once per table
        // state, and racing submits must not observe "registered" before
        // the prefill has landed (they would pay o_e for persisted rows).
        // Safe only because `CacheStore::prefill` never touches the spill
        // sink — a sink offer would re-enter `durable_key`'s read lock on
        // this same thread and deadlock the std RwLock.
        let now = now_unix_nanos();
        for key in self.store.namespaces() {
            if key.table != schema_fp || key.version != version {
                continue;
            }
            let Some((pages, oldest_ts)) = self.store.pages(key) else {
                continue;
            };
            let age = Duration::from_nanos(now.saturating_sub(oldest_ts));
            let namespace = CacheNamespace {
                udf: key.udf,
                table: tid,
                version,
            };
            let loaded = cache.prefill(namespace, ds.table.identity(), &pages, age);
            if loaded > 0 {
                self.counters
                    .rehydrated_rows
                    .fetch_add(loaded as u64, Ordering::Relaxed);
                self.counters
                    .rehydrated_namespaces
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Session-level statistics: store counters + layer counters.
    pub(crate) fn session_stats(&self) -> PersistSessionStats {
        let store = self.store.stats();
        PersistSessionStats {
            appended: store.appended,
            shed: store.shed,
            flushed: store.flushed,
            fsyncs: store.fsyncs,
            compactions: store.compactions,
            recovered_rows: store.recovered_rows,
            recovered_namespaces: store.recovered_namespaces,
            tail_bytes_discarded: store.tail_bytes_discarded,
            ..self.counters.snapshot()
        }
    }
}

impl SpillSink for PersistLayer {
    fn spill(&self, namespace: CacheNamespace, pages: &[(usize, PagePlanes)]) {
        // The on-disk format stores row keys as u32; pages past that space
        // (no bundled dataset comes close) come last, are dropped by the
        // store rather than aliased onto truncated keys, and are counted.
        let rows = |pages: &[(usize, PagePlanes)]| -> u64 {
            pages.iter().map(|(_, planes)| planes.len() as u64).sum()
        };
        let (fits, past) = pages.split_at(pages.partition_point(|(page, _)| *page < PAGE_LIMIT));
        let Some(key) = self.durable_key(namespace) else {
            self.counters
                .skipped_unregistered
                .fetch_add(rows(pages), Ordering::Relaxed);
            return;
        };
        if !past.is_empty() {
            self.counters
                .skipped_row_overflow
                .fetch_add(rows(past), Ordering::Relaxed);
        }
        self.counters
            .spilled_offers
            .fetch_add(rows(fits), Ordering::Relaxed);
        self.store.append_pages(key, fits, now_unix_nanos());
    }

    fn table_dropped(&self, table: u64) {
        let mut tables = self.tables.write().unwrap_or_else(|e| e.into_inner());
        tables.remove(&table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_persist::{PersistConfig, PAGE_ROWS};
    use expred_stats::bits::pages_of;
    use expred_table::datasets::{DatasetSpec, PROSPER};

    #[test]
    fn offers_count_page_rows_and_drop_pages_past_the_u32_row_space() {
        let dir = std::env::temp_dir().join(format!("expred-layer-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let layer = PersistLayer::new(PersistStore::open(PersistConfig::new(&dir)).unwrap());
        let ds = Dataset::generate(
            DatasetSpec {
                rows: 64,
                ..PROSPER
            },
            1,
        );
        layer.register(&ds, &CacheStore::new());
        let namespace = CacheNamespace {
            udf: 9,
            table: ds.table.id().as_u64(),
            version: ds.table.version(),
        };
        let beyond = PAGE_LIMIT * PAGE_ROWS;
        let pages = pages_of([(3, true), (5, false), (beyond, true), (beyond + 1, true)]);
        layer.spill(namespace, &pages);
        let stats = layer.session_stats();
        assert_eq!(
            (
                stats.spilled_offers,
                stats.skipped_row_overflow,
                stats.appended
            ),
            (2, 2, 2)
        );
        layer.spill(
            CacheNamespace {
                table: u64::MAX,
                ..namespace
            },
            &pages,
        );
        assert_eq!(layer.session_stats().skipped_unregistered, 4);
        let key = PersistKey {
            udf: 9,
            table: ds.table.schema().fingerprint(),
            version: ds.table.version(),
        };
        let rows = layer.store().rows(key).unwrap();
        let rows: Vec<(u32, bool)> = rows.iter().map(|&(row, answer, _)| (row, answer)).collect();
        assert_eq!(rows, [(3, true), (5, false)]);
        // A dead table's registration goes: later offers are unregistered.
        layer.table_dropped(namespace.table);
        layer.spill(namespace, &pages);
        assert_eq!(layer.session_stats().skipped_unregistered, 8);
        drop(layer);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
