//! The table memo: what is derived from a column lives in its slot.
//!
//! Every query that predicts through a real column needs the same
//! [`GroupBy`] over the same table, every learning baseline the same
//! one-hot dictionaries, and every ranking pass the same [`ColumnStats`]
//! — the eligibility counts, and a string column's group sizes and
//! code → group map, which score a candidate without partitioning it.
//! So a partition is derived only for a column some plan executes.
//! Each is a pure function of one column, so each is kept beside that
//! column in the table's slot (`Derived`), built on the first lookup and
//! shared by every later one — from any thread: racing lookups derive
//! once. A scored run's label plane is not derived at all: a boolean
//! column *is* its true-row plane ([`crate::Column::true_rows`]).
//!
//! Keeping the memo in the slot is what makes it need no key, no
//! capacity and no eviction:
//!
//! * **It dies with the content.** When the last table over a content
//!   drops — clones and upgrades
//!   ([`WeakTable::upgrade`](crate::WeakTable::upgrade))
//!   alike — so does everything derived from it; nothing outside the
//!   content holds an entry that can no longer be asked for.
//! * **Mutation resets it.** [`Table::push_row`](crate::Table::push_row)
//!   takes `&mut self` and changes every column, so it empties every
//!   slot's memo; a stale derivation cannot be reached.
//! * **Handles share, then diverge.** Every clone and every share of a
//!   table reads one memo, so a derivation made through any of them —
//!   before or after the handle was taken — serves them all. A handle
//!   that pushes a row copies the content first and resets only its own
//!   slots; the others keep theirs.
//!
//! A caller that wants to know what the memo saved passes its own
//! [`DerivedCounters`]: a lookup that found the value counts a hit, one
//! that had to derive it counts a miss. The session engine keeps one set
//! per engine.

use crate::kernels::GroupCodes;
use crate::stats::ColumnStats;
use crate::table::GroupBy;
use expred_stats::counter_set;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

counter_set! {
    /// A snapshot of one caller's table-memo lookups.
    pub struct DerivedCacheStats, atomic pub struct DerivedCounters {
        /// Lookups that found the value already derived.
        hits,
        /// Lookups that had to derive it.
        misses,
    }
}

/// What has been derived from one column, each built on first lookup.
#[derive(Debug, Clone, Default)]
pub(crate) struct Derived {
    pub(crate) groups: OnceLock<Arc<GroupBy>>,
    pub(crate) codes: OnceLock<Arc<GroupCodes>>,
    pub(crate) stats: OnceLock<Arc<ColumnStats>>,
}

/// The value in `cell`, derived now if it is not yet, counted as a hit or
/// a miss on `counters`. Racing callers block on the one derivation, and
/// only its caller counts the miss.
pub(crate) fn memo<T: Clone>(
    cell: &OnceLock<T>,
    counters: Option<&DerivedCounters>,
    derive: impl FnOnce() -> T,
) -> T {
    let mut derived = false;
    let value = cell
        .get_or_init(|| {
            derived = true;
            derive()
        })
        .clone();
    if let Some(counters) = counters {
        let counter = if derived {
            &counters.misses
        } else {
            &counters.hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::Table;
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
        let counters = DerivedCounters::default();
        let t = table_of(&[1, 2, 1]);
        let a = t.partition("a", Some(&counters)).unwrap();
        let b = t.partition("a", Some(&counters)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the partition");
        assert_eq!(*a, t.group_by("a").unwrap());
        let s = counters.snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
        // An uncounted lookup is served from the same memo.
        assert!(Arc::ptr_eq(&a, &t.partition("a", None).unwrap()));
        assert!(t.partition("nope", Some(&counters)).is_err());
        assert_eq!(counters.snapshot(), s, "a missing column counts nothing");
    }

    #[test]
    fn push_row_forces_a_miss() {
        let counters = DerivedCounters::default();
        let mut t = table_of(&[1, 2]);
        let before = t.partition("a", Some(&counters)).unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        let after = t.partition("a", Some(&counters)).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(*after, t.group_by("a").unwrap());
        assert_eq!(counters.snapshot().misses, 2);
    }

    #[test]
    fn diverged_clones_never_cross_serve() {
        let base = table_of(&[1, 2]);
        let shared = base.partition("a", None).unwrap();
        let mut a = base.clone();
        let mut b = base.clone();
        assert!(
            Arc::ptr_eq(&shared, &a.partition("a", None).unwrap()),
            "a clone taken after a derivation shares it"
        );
        a.push_row(vec![Value::Int(10)]).unwrap();
        b.push_row(vec![Value::Int(20)]).unwrap();
        assert_ne!(a.id(), b.id(), "diverged clones are two tables");
        let ga = a.partition("a", None).unwrap();
        let gb = b.partition("a", None).unwrap();
        assert_eq!(*ga, a.group_by("a").unwrap());
        assert_eq!(*gb, b.group_by("a").unwrap());
        assert_ne!(*ga, *gb);
        assert!(Arc::ptr_eq(&shared, &base.partition("a", None).unwrap()));
    }

    #[test]
    fn group_codes_are_cached_too() {
        let t = table_of(&[3, 3, 4]);
        let a = t.codes("a", None).unwrap();
        let b = t.codes("a", None).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.codes(), &[0, 0, 1]);
        assert!(t.codes("nope", None).is_err());
    }

    #[test]
    fn column_stats_are_memoized_per_table_state() {
        let mut t = table_of(&[1, 2, 2]);
        let a = t.column_stats("a").unwrap();
        assert!(Arc::ptr_eq(&a, &t.column_stats("a").unwrap()));
        assert_eq!((a.null_count, a.distinct_count), (0, 2));
        assert!(t.column_stats("nope").is_none());
        t.push_row(vec![Value::Int(3)]).unwrap();
        assert_eq!(t.column_stats("a").unwrap().distinct_count, 3);
        assert_eq!(a.distinct_count, 2, "a held snapshot is not rewritten");
    }

    #[test]
    fn a_dropped_table_frees_what_was_derived_from_it() {
        let t = table_of(&[1, 2, 1]);
        let groups = Arc::downgrade(&t.partition("a", None).unwrap());
        let codes = Arc::downgrade(&t.codes("a", None).unwrap());
        let stats = Arc::downgrade(&t.column_stats("a").unwrap());
        let clone = t.clone();
        drop(t);
        assert!(groups.upgrade().is_some(), "the clone still holds it");
        drop(clone);
        assert!(groups.upgrade().is_none());
        assert!(codes.upgrade().is_none());
        assert!(stats.upgrade().is_none());
    }
}
