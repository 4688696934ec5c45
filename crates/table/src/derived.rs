//! Session-level cache of derived data: group partitions, encoding
//! dictionaries and boolean-column planes.
//!
//! Every query that predicts through a real column re-derives the same
//! [`GroupBy`] over the same table, every learning baseline re-builds
//! the same one-hot dictionaries, and every scored run re-reads the same
//! label column into a plane. [`DerivedCache`] is the session-scoped
//! memo that stops paying that tax: entries are keyed by
//! `(TableId, version, column, kind)`, mirroring the `CacheStore`
//! namespacing in `expred-exec` and inheriting its invalidation
//! semantics — `push_row` bumps the version, so every stale
//! entry simply stops being addressable, and diverged clones (same id,
//! different versions) can never cross-serve.
//!
//! The cache is `&self`-safe for the concurrent engine, and it is an
//! [`expred_stats::clock::ClockCache`] — the same striped second-chance
//! cache as the engine's result memo: a lookup takes one stripe's read
//! lock, a hit marks the entry, the evictor skips marked entries once.
//! The derivation itself runs outside any lock (racing identical
//! derivations are benign — both compute the same deterministic value
//! and the later insert replaces the earlier in place).

use crate::kernels::GroupCodes;
use crate::rowset::RowSet;
use crate::table::{GroupBy, Table};
use expred_stats::clock::{ClockCache, ClockCacheStats, StripeKey};
use expred_stats::hash::Fnv64;
use std::sync::Arc;

/// Default number of derived entries a session retains. A session rarely
/// touches more than a handful of `(table, column)` pairs at a time;
/// this leaves generous headroom for multi-table workloads.
pub const DEFAULT_DERIVED_CAPACITY: usize = 128;

/// What kind of derived artifact an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DerivedKind {
    Groups,
    Codes,
    TrueRows,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DerivedKey {
    table: u64,
    version: u64,
    column: String,
    kind: DerivedKind,
}

impl DerivedKey {
    fn new(table: &Table, column: &str, kind: DerivedKind) -> Self {
        Self {
            table: table.id().as_u64(),
            version: table.version(),
            column: column.to_owned(),
            kind,
        }
    }
}

impl StripeKey for DerivedKey {
    /// Column included: one table's columns must not share a stripe.
    fn stripe_bits(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.table);
        h.write_u64(self.version);
        h.write_bytes(self.column.as_bytes());
        h.finish()
    }
}

#[derive(Debug, Clone)]
enum DerivedValue {
    Groups(Arc<GroupBy>),
    Codes(Arc<GroupCodes>),
    TrueRows(Arc<RowSet>),
}

/// Counter snapshot for observability (see [`DerivedCache::stats`]): the
/// cache's own counter set.
pub type DerivedCacheStats = ClockCacheStats;

/// Capacity-bounded, thread-safe cache of derived per-column artifacts.
#[derive(Debug)]
pub struct DerivedCache(ClockCache<DerivedKey, DerivedValue>);

impl Default for DerivedCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DerivedCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_DERIVED_CAPACITY)
    }

    /// A cache retaining at most `capacity` entries. Capacity 0 disables
    /// retention entirely: every lookup derives fresh (and counts as a
    /// miss).
    pub fn with_capacity(capacity: usize) -> Self {
        Self(ClockCache::with_capacity(capacity))
    }

    /// The enforced entry bound.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Hit/miss/eviction counters since construction (a
    /// [`clear`](Self::clear) preserves them).
    pub fn stats(&self) -> DerivedCacheStats {
        self.0.stats()
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.0.clear();
    }

    /// The partition of `table` by `column`, served from the cache when
    /// the same `(table id, version, column)` was grouped before.
    /// Byte-identical to [`Table::group_by`].
    pub fn group_by(&self, table: &Table, column: &str) -> Result<Arc<GroupBy>, String> {
        let key = DerivedKey::new(table, column, DerivedKind::Groups);
        if let Some(DerivedValue::Groups(hit)) = self.0.get(&key, |v| Some(v.clone())) {
            return Ok(hit);
        }
        let fresh = Arc::new(table.group_by(column)?);
        self.0.insert(key, DerivedValue::Groups(Arc::clone(&fresh)));
        Ok(fresh)
    }

    /// The dictionary codes of `column`, cached per `(table id, version,
    /// column)`. The substrate for one-hot feature encoding.
    pub fn group_codes(&self, table: &Table, column: &str) -> Result<Arc<GroupCodes>, String> {
        let key = DerivedKey::new(table, column, DerivedKind::Codes);
        if let Some(DerivedValue::Codes(hit)) = self.0.get(&key, |v| Some(v.clone())) {
            return Ok(hit);
        }
        let col = table
            .column(column)
            .ok_or_else(|| format!("no column named {column:?}"))?;
        let fresh = Arc::new(col.group_codes());
        self.0.insert(key, DerivedValue::Codes(Arc::clone(&fresh)));
        Ok(fresh)
    }

    /// The rows where boolean `column` is true ([`Column::true_rows`]),
    /// cached per `(table id, version, column)`. `None` — and nothing
    /// cached — unless `column` is a boolean column without NULLs.
    ///
    /// [`Column::true_rows`]: crate::Column::true_rows
    pub fn true_rows(&self, table: &Table, column: &str) -> Option<Arc<RowSet>> {
        let key = DerivedKey::new(table, column, DerivedKind::TrueRows);
        if let Some(DerivedValue::TrueRows(hit)) = self.0.get(&key, |v| Some(v.clone())) {
            return Some(hit);
        }
        let fresh = Arc::new(table.column(column)?.true_rows()?);
        self.0
            .insert(key, DerivedValue::TrueRows(Arc::clone(&fresh)));
        Some(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn table_of(values: &[i64]) -> Table {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        Table::from_rows(
            schema,
            values.iter().map(|&v| vec![Value::Int(v)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn repeat_lookups_hit() {
        let cache = DerivedCache::new();
        let t = table_of(&[1, 2, 1]);
        let a = cache.group_by(&t, "a").unwrap();
        let b = cache.group_by(&t, "a").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the partition");
        assert_eq!(*a, t.group_by("a").unwrap());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn push_row_forces_a_miss() {
        let cache = DerivedCache::new();
        let mut t = table_of(&[1, 2]);
        let before = cache.group_by(&t, "a").unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        let after = cache.group_by(&t, "a").unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(*after, t.group_by("a").unwrap());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn diverged_clones_never_cross_serve() {
        let cache = DerivedCache::new();
        let base = table_of(&[1, 2]);
        let mut a = base.clone();
        let mut b = base.clone();
        a.push_row(vec![Value::Int(10)]).unwrap();
        b.push_row(vec![Value::Int(20)]).unwrap();
        assert_eq!(a.id(), b.id(), "clones share an id");
        let ga = cache.group_by(&a, "a").unwrap();
        let gb = cache.group_by(&b, "a").unwrap();
        assert_eq!(*ga, a.group_by("a").unwrap());
        assert_eq!(*gb, b.group_by("a").unwrap());
        assert_ne!(*ga, *gb);
    }

    #[test]
    fn group_codes_are_cached_too() {
        let cache = DerivedCache::new();
        let t = table_of(&[3, 3, 4]);
        let a = cache.group_codes(&t, "a").unwrap();
        let b = cache.group_codes(&t, "a").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.codes(), &[0, 0, 1]);
        assert!(cache.group_codes(&t, "nope").is_err());
    }

    #[test]
    fn true_rows_are_cached_per_table_version() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::nullable("ok", DataType::Bool),
        ]);
        let row = |a, ok| vec![Value::Int(a), ok];
        let rows = vec![
            row(1, Value::Bool(true)),
            row(2, Value::Bool(false)),
            row(3, Value::Bool(true)),
        ];
        let mut t = Table::from_rows(schema, rows).unwrap();
        let cache = DerivedCache::new();
        let a = cache.true_rows(&t, "ok").unwrap();
        let b = cache.true_rows(&t, "ok").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the plane");
        assert_eq!(a.to_vec(), [0, 2]);
        // Not a complete boolean column: nothing derived, nothing cached.
        assert!(cache.true_rows(&t, "a").is_none());
        assert!(cache.true_rows(&t, "nope").is_none());
        assert_eq!(cache.len(), 1);
        // A new version derives again — and a NULL label is no plane.
        t.push_row(row(4, Value::Bool(true))).unwrap();
        assert_eq!(cache.true_rows(&t, "ok").unwrap().to_vec(), [0, 2, 3]);
        t.push_row(row(5, Value::Null)).unwrap();
        assert!(cache.true_rows(&t, "ok").is_none());
    }

    #[test]
    fn capacity_bounds_and_second_chance() {
        let cache = DerivedCache::with_capacity(2);
        let tables: Vec<Table> = (0..4).map(|v| table_of(&[v])).collect();
        cache.group_by(&tables[0], "a").unwrap();
        cache.group_by(&tables[1], "a").unwrap();
        // Touch table 0 so the clock spares it over table 1.
        cache.group_by(&tables[0], "a").unwrap();
        cache.group_by(&tables[2], "a").unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.stats().evictions >= 1);
        // Table 0 survived the eviction; looking it up again is a hit.
        let hits_before = cache.stats().hits;
        cache.group_by(&tables[0], "a").unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = DerivedCache::with_capacity(0);
        let t = table_of(&[1]);
        cache.group_by(&t, "a").unwrap();
        cache.group_by(&t, "a").unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clear_drops_entries_keeps_counters() {
        let cache = DerivedCache::new();
        let t = table_of(&[1]);
        cache.group_by(&t, "a").unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }
}
