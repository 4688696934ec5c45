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
//!   namespace is translated, through the table-id registry. The rows
//!   are never unpacked; the counters are popcounts of the pages. Offers
//!   for unregistered tables are dropped and counted — never guessed —
//!   and so are pages past the `u32` row space the format can name.
//! * **Rehydrate** (disk → live): the first time a session submits a
//!   query over a table state (one [`expred_table::TableId`]: a mutated
//!   table is a new table), the layer registers the state's one
//!   `(schema fingerprint, table version)` and prefill-loads every
//!   persisted namespace whose key matches *both* — a version-checked
//!   hydration that can serve stale answers to no one, and a lookup of
//!   the state's own namespaces ([`PersistStore::state_namespaces`]), not
//!   a scan of every key the store holds. The answers move as pages
//!   the index shares ([`PersistStore::pages`] → [`CacheStore::prefill`]),
//!   landing a 64-row word at a time — and with them the pass rates the
//!   expression optimizer reads ([`CacheStore::pass_rate`]), so a
//!   restarted session plans as the one that paid for the answers did.
//! * **Hand-off** (a table dies): the row tier drops a dead table's
//!   namespaces and offers each one's pages once more, outside its lock
//!   and never from inside a prefill. The offer deduplicates against the
//!   durable index, so rows already durable add no WAL record, and rows
//!   that missed an earlier offer still reach the store, as
//!   [`crate::QueryEngine::flush_persistence`] would have sent them. Then
//!   the layer forgets the table's registration
//!   ([`SpillSink::table_dropped`]) and releases its state in the store
//!   ([`PersistStore::release`]): once no live table holds the state, its
//!   pages leave the store's RAM as soon as a snapshot frame holds each
//!   one whole, and a later registration reads them back. So the
//!   registry and the durable index's RAM, too, are bounded by the tables
//!   that are live. A superseded state leaves the same way.
//!
//! No clock is read on either path: an answer is a fixed property of its
//! row under one table version, so a rehydrated answer is as good as the
//! day it was bought, and it leaves the row tier only with its table.

use expred_exec::{CacheNamespace, CacheStore, SpillSink};
use expred_persist::{PagePlanes, PersistKey, PersistStore, PAGE_LIMIT};
use expred_table::datasets::Dataset;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::RwLock;

/// One registered table state: its process-independent identity, the
/// table half of every [`PersistKey`] its namespaces spill under.
#[derive(Debug)]
struct TableReg {
    schema_fp: u64,
    version: u64,
}

expred_stats::counter_set! {
    /// A session-level snapshot of the whole persistence pipeline: the
    /// store's own counters ([`expred_persist::PersistStats`]) and resident
    /// pages, copied in by `PersistLayer::session_stats` (their slots in
    /// the atomic twin stay zero), followed by the engine layer's
    /// translation/rehydration counters, which the twin counts.
    pub struct PersistSessionStats, atomic struct LayerCounters {
        /// Row answers accepted into the durable index.
        appended,
        /// Queued WAL rows dropped under backpressure (recaptured by
        /// compaction).
        shed,
        /// Rows written to the WAL by the flusher.
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
        /// Pages of the durable index held in RAM when the snapshot was
        /// taken (a level, not a count: the rest wait on disk).
        resident_pages,
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
    /// Table id → registration. Read on every spill; written once per
    /// table state, and once more when the state dies.
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
            version: reg.version,
        })
    }

    /// Registers `ds`'s table state and — exactly once per state per
    /// session — rehydrates every matching persisted namespace into
    /// `cache`.
    pub(crate) fn register(&self, ds: &Dataset, cache: &CacheStore) {
        let tid = ds.table.id().as_u64();
        {
            let tables = self.tables.read().unwrap_or_else(|e| e.into_inner());
            if tables.contains_key(&tid) {
                return;
            }
        }
        let mut tables = self.tables.write().unwrap_or_else(|e| e.into_inner());
        let Entry::Vacant(slot) = tables.entry(tid) else {
            return;
        };
        let schema_fp = ds.table.schema().fingerprint();
        let version = ds.table.version();
        slot.insert(TableReg { schema_fp, version });
        // The state's pages stay in the store's RAM while this table is
        // live (`table_dropped` releases them).
        self.store.retain(schema_fp, version);
        // Hydrate while holding the write lock: it happens once per table
        // state, and racing submits must not observe "registered" before
        // the prefill has landed (they would pay o_e for persisted rows).
        // Safe only because `CacheStore::prefill` never touches the spill
        // sink — a sink offer would re-enter `durable_key`'s read lock on
        // this same thread and deadlock the std RwLock.
        for key in self.store.state_namespaces(schema_fp, version) {
            let Some(pages) = self.store.pages(key) else {
                continue;
            };
            let namespace = CacheNamespace {
                udf: key.udf,
                table: tid,
            };
            let loaded = cache.prefill(namespace, ds.table.identity(), &pages);
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
            resident_pages: self.store.resident_pages() as u64,
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
        self.store.append_pages(key, fits);
    }

    fn table_dropped(&self, table: u64) {
        let mut tables = self.tables.write().unwrap_or_else(|e| e.into_inner());
        let reg = tables.remove(&table);
        drop(tables);
        if let Some(reg) = reg {
            self.store.release(reg.schema_fp, reg.version);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_persist::{PersistConfig, PAGE_ROWS};
    use expred_stats::bits::pages_of;
    use expred_table::datasets::{DatasetSpec, PROSPER};
    use std::collections::HashSet;
    use std::sync::Arc;

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
        assert_eq!(layer.store().rows(key).unwrap(), [(3, true), (5, false)]);
        // A dead table's registration goes: later offers are unregistered.
        layer.table_dropped(namespace.table);
        layer.spill(namespace, &pages);
        assert_eq!(layer.session_stats().skipped_unregistered, 8);
        drop(layer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pushes_on_a_live_table_leave_one_registration() {
        let dir = std::env::temp_dir().join(format!("expred-layer-push-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let layer = Arc::new(PersistLayer::new(
            PersistStore::open(PersistConfig::new(&dir)).unwrap(),
        ));
        let cache = CacheStore::new();
        cache.set_spill(Some(Arc::clone(&layer) as Arc<dyn SpillSink>));
        let mut ds = Dataset::generate(
            DatasetSpec {
                rows: 64,
                ..PROSPER
            },
            1,
        );
        // A submit per state: register, then a query's borrow and answer.
        let submit = |ds: &Dataset| {
            layer.register(ds, &cache);
            let namespace = CacheNamespace {
                udf: 9,
                table: ds.table.id().as_u64(),
            };
            cache.handle(namespace, ds.table.identity()).insert(0, true);
        };
        submit(&ds);
        for _ in 0..5 {
            let row = ds.table.row(0);
            ds.table.push_row(row).unwrap();
            submit(&ds);
        }
        cache.num_namespaces();
        let tables = layer.tables.read().unwrap();
        let live: Vec<(u64, u64)> = tables.iter().map(|(&t, reg)| (t, reg.version)).collect();
        assert_eq!(live, [(ds.table.id().as_u64(), ds.table.version())]);
        drop(tables);
        // Each state's answer went to disk under that state's version.
        let versions: HashSet<u64> = layer
            .store()
            .namespaces()
            .iter()
            .map(|k| k.version)
            .collect();
        assert_eq!(versions.len(), 6);
        drop(layer);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
