//! Per-column statistics, memoized per `(column, version)`.
//!
//! [`ColumnStats`] is computed lazily, once per `(column, version)`, and
//! memoized on the [`Table`](crate::table::Table) (clones share the memo
//! because it is keyed by the version). It carries what the session
//! layer would otherwise re-derive by scanning: `distinct_count` —
//! `column_select` eligibility checks it per candidate per ranking pass —
//! and `null_count`, which the label-column check reads for every new
//! table.

use crate::column::Column;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Lazily computed, memoized per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// NULL entries in the whole column.
    pub null_count: usize,
    /// Distinct non-NULL values (floats distinct by bit pattern, matching
    /// [`Column::distinct_count`]).
    pub distinct_count: usize,
}

impl ColumnStats {
    /// Computes stats for a column.
    pub fn of(column: &Column) -> Self {
        Self {
            null_count: column.null_count(),
            distinct_count: column.distinct_count(),
        }
    }
}

/// Bounded per-table memo of `(column index, version) ->`
/// [`ColumnStats`]. Shared by clones via `Arc` — safe because entries are
/// keyed by the version, so diverged clones never see each
/// other's stats. When the memo grows past its bound (old versions of a
/// mutating table), it is cleared wholesale: it is a cache of cheap
/// recomputations, not a store.
#[derive(Debug, Default)]
pub(crate) struct StatsCache {
    entries: Mutex<HashMap<(usize, u64), Arc<ColumnStats>>>,
}

/// Stats memo bound: generous for wide tables (one live entry per
/// column), tight enough that a long push_row history cannot leak.
const STATS_CACHE_CAP: usize = 64;

impl StatsCache {
    pub(crate) fn get_or_compute(
        &self,
        col_idx: usize,
        version: u64,
        column: &Column,
    ) -> Arc<ColumnStats> {
        let key = (col_idx, version);
        let memo = || self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = memo().get(&key) {
            return Arc::clone(hit);
        }
        // Compute outside the lock; racing computes produce equal stats.
        let stats = Arc::new(ColumnStats::of(column));
        let mut entries = memo();
        if entries.len() >= STATS_CACHE_CAP && !entries.contains_key(&key) {
            entries.clear();
        }
        Arc::clone(entries.entry(key).or_insert(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_column(values: impl IntoIterator<Item = Option<i64>>) -> Column {
        Column::Int(values.into_iter().collect())
    }

    #[test]
    fn whole_column_bounds_and_nulls() {
        let c = int_column([Some(3), None, Some(-1), Some(7)]);
        let s = ColumnStats::of(&c);
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct_count, 3);
    }

    #[test]
    fn stats_cache_memoizes_and_bounds() {
        let cache = StatsCache::default();
        let c = int_column([Some(1), Some(2)]);
        let a = cache.get_or_compute(0, 7, &c);
        let b = cache.get_or_compute(0, 7, &c);
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a memo hit");
        for v in 0..(STATS_CACHE_CAP as u64 + 8) {
            cache.get_or_compute(0, 1000 + v, &c);
        }
        assert!(
            cache.entries.lock().unwrap().len() <= STATS_CACHE_CAP,
            "memo stays bounded under version churn"
        );
    }
}
