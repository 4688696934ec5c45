//! Per-column statistics and zone maps for scan skipping.
//!
//! [`ColumnStats`] is computed lazily, once per `(column, version)`, and
//! memoized on the [`Table`](crate::table::Table) (clones share the memo
//! because it is keyed by the version). It carries what the
//! session layer keeps re-deriving by scanning:
//!
//! * `distinct_count` — `column_select` eligibility checks it per
//!   candidate per ranking pass; the memo turns O(n) rescans into a map
//!   lookup.
//! * `min` / `max` / `null_count` — whole-column bounds.
//! * zone maps — per-[`ZONE_ROWS`]-row chunk bounds that let a cheap
//!   predicate skip chunks *without touching a single row*. Pruning is
//!   conservative: a zone is skipped only when its bounds prove no row
//!   can match.
//!
//! Float bounds (whole-column and per-zone) are numeric min/max over
//! non-NaN values — *not* total-order bounds. Total order would place
//! `-0.0` strictly below `0.0` and rank NaNs above infinity, either of
//! which could prune a zone that numerically matches a range. A zone
//! whose float bounds are `None` holds only NULLs and NaNs, and NaN never
//! satisfies a range predicate, so skipping it stays exact.

use crate::column::{Column, StrColumn};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Rows per zone-map chunk. Small enough that one excluded zone saves
/// real work at the paper's table sizes, large enough that the per-zone
/// bookkeeping is negligible.
pub const ZONE_ROWS: usize = 1024;

/// Bounds and NULL census for one chunk of [`ZONE_ROWS`] rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    /// First row id covered by this zone.
    pub start: u32,
    /// Number of rows covered (the final zone may be short).
    pub len: u32,
    /// NULL entries within the zone.
    pub null_count: u32,
    /// Smallest non-NULL value (for floats: smallest non-NaN; `None` if
    /// every entry is NULL, or NULL/NaN for a float zone).
    pub min: Option<Value>,
    /// Largest non-NULL (non-NaN for floats) value, same convention.
    pub max: Option<Value>,
}

/// Lazily computed, memoized per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// NULL entries in the whole column.
    pub null_count: usize,
    /// Distinct non-NULL values (floats distinct by bit pattern, matching
    /// [`Column::distinct_count`]).
    pub distinct_count: usize,
    /// Whole-column lower bound, same convention as [`Zone::min`].
    pub min: Option<Value>,
    /// Whole-column upper bound, same convention as [`Zone::max`].
    pub max: Option<Value>,
    zones: Vec<Zone>,
}

impl ColumnStats {
    /// Computes stats for a column in one pass per concern.
    pub fn of(column: &Column) -> Self {
        let (zones, min, max, null_count) = match column {
            Column::Bool(v) => zones_for(
                v.iter().map(|x| x.as_ref()),
                v.len(),
                |b| Some(*b),
                |b| Value::Bool(*b),
            ),
            Column::Int(v) => zones_for(
                v.iter().map(|x| x.as_ref()),
                v.len(),
                |i| Some(*i),
                |i| Value::Int(*i),
            ),
            Column::Float(v) => zones_for(
                v.iter().map(|x| x.as_ref()),
                v.len(),
                // NaN is excluded from bounds; see the module docs.
                |f| if f.is_nan() { None } else { Some(FloatOrd(*f)) },
                |f| Value::Float(*f),
            ),
            Column::Str(v) => {
                // Bounds compare dictionary ranks, not strings: the
                // dictionary is sorted once and each row costs an integer
                // comparison.
                let (_, rank) = v.dictionary_order();
                zones_for(
                    v.codes()
                        .iter()
                        .map(|code| (*code != StrColumn::NULL_CODE).then_some(code)),
                    v.len(),
                    |code| Some(rank[*code as usize]),
                    |code| Value::Str(v.dictionary()[*code as usize].to_string()),
                )
            }
        };
        Self {
            null_count,
            distinct_count: column.distinct_count(),
            min,
            max,
            zones,
        }
    }

    /// The zone maps, in row order.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }
}

/// Numeric (non-NaN) float ordering for bound tracking. Only ever built
/// for non-NaN floats, so the total order it induces is the numeric one.
#[derive(Clone, Copy, PartialEq)]
struct FloatOrd(f64);

impl Eq for FloatOrd {}
impl PartialOrd for FloatOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("no NaN in bounds")
    }
}

/// One pass over the cells building per-zone and whole-column bounds.
/// `bound_key` returns `None` for values excluded from bounds (NaN).
#[allow(clippy::type_complexity)]
fn zones_for<'a, T: 'a, K: Ord + Copy>(
    cells: impl Iterator<Item = Option<&'a T>>,
    len: usize,
    bound_key: impl Fn(&'a T) -> Option<K>,
    into_value: impl Fn(&'a T) -> Value,
) -> (Vec<Zone>, Option<Value>, Option<Value>, usize) {
    let mut zones = Vec::with_capacity(len.div_ceil(ZONE_ROWS));
    let mut total_nulls = 0usize;
    let (mut col_min, mut col_max): (Option<(K, &T)>, Option<(K, &T)>) = (None, None);
    let mut cells = cells.enumerate().peekable();
    while let Some(&(start, _)) = cells.peek() {
        let mut zone_nulls = 0u32;
        let (mut zmin, mut zmax): (Option<(K, &T)>, Option<(K, &T)>) = (None, None);
        let mut taken = 0u32;
        while taken < ZONE_ROWS as u32 {
            let Some((_, cell)) = cells.next() else { break };
            taken += 1;
            match cell {
                None => zone_nulls += 1,
                Some(x) => {
                    if let Some(k) = bound_key(x) {
                        if zmin.as_ref().is_none_or(|(m, _)| k < *m) {
                            zmin = Some((k, x));
                        }
                        if zmax.as_ref().is_none_or(|(m, _)| k > *m) {
                            zmax = Some((k, x));
                        }
                    }
                }
            }
        }
        if let Some((k, x)) = zmin {
            if col_min.as_ref().is_none_or(|(m, _)| k < *m) {
                col_min = Some((k, x));
            }
        }
        if let Some((k, x)) = zmax {
            if col_max.as_ref().is_none_or(|(m, _)| k > *m) {
                col_max = Some((k, x));
            }
        }
        total_nulls += zone_nulls as usize;
        zones.push(Zone {
            start: start as u32,
            len: taken,
            null_count: zone_nulls,
            min: zmin.map(|(_, x)| into_value(x)),
            max: zmax.map(|(_, x)| into_value(x)),
        });
    }
    (
        zones,
        col_min.map(|(_, x)| into_value(x)),
        col_max.map(|(_, x)| into_value(x)),
        total_nulls,
    )
}

/// A cheap predicate a zone-mapped scan can evaluate.
///
/// These are the predicate shapes the session's cheap-column scans use;
/// the expensive UDF predicate never goes through here.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanPredicate {
    /// `lo <= x <= hi` over an integer column.
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `lo <= x <= hi` over a float (or integer, widening) column. NaN
    /// never matches.
    FloatRange {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// Exact string equality over a string column.
    StrEquals(String),
    /// Boolean equality over a bool column.
    BoolIs(bool),
    /// Matches NULL entries of any column type.
    IsNull,
}

/// Work accounting for one zone-mapped scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Zones the column was divided into.
    pub zones_total: usize,
    /// Zones whose bounds proved no row could match: zero per-row work.
    pub zones_skipped: usize,
    /// Rows actually tested (sum of non-skipped zone lengths).
    pub rows_tested: usize,
}

/// Whether any row in `zone` *could* satisfy `pred` (conservative).
fn zone_may_match(zone: &Zone, pred: &ScanPredicate) -> bool {
    match pred {
        ScanPredicate::IsNull => zone.null_count > 0,
        ScanPredicate::IntRange { lo, hi } => match (&zone.min, &zone.max) {
            (Some(zmin), Some(zmax)) => {
                let (zmin, zmax) = (zmin.as_int().unwrap(), zmax.as_int().unwrap());
                zmin <= *hi && zmax >= *lo
            }
            _ => false,
        },
        ScanPredicate::FloatRange { lo, hi } => match (&zone.min, &zone.max) {
            (Some(zmin), Some(zmax)) => {
                let (zmin, zmax) = (zmin.as_float().unwrap(), zmax.as_float().unwrap());
                zmin <= *hi && zmax >= *lo
            }
            _ => false,
        },
        ScanPredicate::StrEquals(s) => match (&zone.min, &zone.max) {
            (Some(zmin), Some(zmax)) => {
                zmin.as_str().unwrap() <= s.as_str() && zmax.as_str().unwrap() >= s.as_str()
            }
            _ => false,
        },
        ScanPredicate::BoolIs(b) => match (&zone.min, &zone.max) {
            (Some(zmin), Some(zmax)) => {
                zmin.as_bool().unwrap() <= *b && zmax.as_bool().unwrap() >= *b
            }
            _ => false,
        },
    }
}

/// Runs a zone-mapped scan: zones whose bounds exclude the predicate are
/// skipped without touching any row; surviving zones are tested with a
/// typed per-row loop. Returns matching row ids (ascending) plus the work
/// accounting. Errors if the predicate shape does not apply to the
/// column's type.
pub fn scan_column(
    column: &Column,
    stats: &ColumnStats,
    pred: &ScanPredicate,
) -> Result<(Vec<u32>, ScanStats), String> {
    let compatible = matches!(
        (column, pred),
        (Column::Int(_), ScanPredicate::IntRange { .. })
            | (Column::Int(_), ScanPredicate::FloatRange { .. })
            | (Column::Float(_), ScanPredicate::FloatRange { .. })
            | (Column::Str(_), ScanPredicate::StrEquals(_))
            | (Column::Bool(_), ScanPredicate::BoolIs(_))
            | (_, ScanPredicate::IsNull)
    );
    if !compatible {
        return Err(format!(
            "predicate {pred:?} does not apply to a {} column",
            column.data_type()
        ));
    }
    let mut out = Vec::new();
    let mut accounting = ScanStats {
        zones_total: stats.zones().len(),
        ..ScanStats::default()
    };
    // A string needle is resolved to its dictionary code once; the
    // per-row loop compares codes.
    let needle = match (column, pred) {
        (Column::Str(v), ScanPredicate::StrEquals(s)) => v.code_of(s),
        _ => None,
    };
    for zone in stats.zones() {
        if !zone_may_match(zone, pred) {
            accounting.zones_skipped += 1;
            continue;
        }
        accounting.rows_tested += zone.len as usize;
        let (start, end) = (zone.start as usize, (zone.start + zone.len) as usize);
        scan_zone(column, pred, needle, start, end, &mut out);
    }
    Ok((out, accounting))
}

/// Typed per-row predicate loop over one zone's row range. `needle` is the
/// dictionary code of a [`ScanPredicate::StrEquals`] string, `None` when
/// no row of the column holds it.
fn scan_zone(
    column: &Column,
    pred: &ScanPredicate,
    needle: Option<u32>,
    start: usize,
    end: usize,
    out: &mut Vec<u32>,
) {
    match (column, pred) {
        (Column::Int(v), ScanPredicate::IntRange { lo, hi }) => {
            for (r, cell) in v[start..end].iter().enumerate() {
                if let Some(x) = cell {
                    if *x >= *lo && *x <= *hi {
                        out.push((start + r) as u32);
                    }
                }
            }
        }
        (Column::Int(v), ScanPredicate::FloatRange { lo, hi }) => {
            for (r, cell) in v[start..end].iter().enumerate() {
                if let Some(x) = cell {
                    let x = *x as f64;
                    if x >= *lo && x <= *hi {
                        out.push((start + r) as u32);
                    }
                }
            }
        }
        (Column::Float(v), ScanPredicate::FloatRange { lo, hi }) => {
            for (r, cell) in v[start..end].iter().enumerate() {
                if let Some(x) = cell {
                    if *x >= *lo && *x <= *hi {
                        out.push((start + r) as u32);
                    }
                }
            }
        }
        (Column::Str(v), ScanPredicate::StrEquals(_)) => {
            if let Some(needle) = needle {
                for (r, code) in v.codes()[start..end].iter().enumerate() {
                    if *code == needle {
                        out.push((start + r) as u32);
                    }
                }
            }
        }
        (Column::Bool(v), ScanPredicate::BoolIs(b)) => {
            for (r, cell) in v[start..end].iter().enumerate() {
                if *cell == Some(*b) {
                    out.push((start + r) as u32);
                }
            }
        }
        (col, ScanPredicate::IsNull) => {
            for r in start..end {
                let is_null = match col {
                    Column::Bool(v) => v[r].is_none(),
                    Column::Int(v) => v[r].is_none(),
                    Column::Float(v) => v[r].is_none(),
                    Column::Str(v) => v.get(r).is_none(),
                };
                if is_null {
                    out.push(r as u32);
                }
            }
        }
        _ => unreachable!("scan_column validated predicate/column compatibility"),
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
        if let Some(hit) = self.entries.lock().expect("stats memo poisoned").get(&key) {
            return Arc::clone(hit);
        }
        // Compute outside the lock; racing computes produce equal stats.
        let stats = Arc::new(ColumnStats::of(column));
        let mut entries = self.entries.lock().expect("stats memo poisoned");
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
        assert_eq!(s.min, Some(Value::Int(-1)));
        assert_eq!(s.max, Some(Value::Int(7)));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct_count, 3);
        assert_eq!(s.zones().len(), 1);
        assert_eq!(s.zones()[0].len, 4);
    }

    #[test]
    fn zones_chunk_the_column() {
        let n = ZONE_ROWS * 2 + 10;
        let c = int_column((0..n as i64).map(Some));
        let s = ColumnStats::of(&c);
        assert_eq!(s.zones().len(), 3);
        assert_eq!(s.zones()[1].start as usize, ZONE_ROWS);
        assert_eq!(s.zones()[2].len, 10);
        assert_eq!(s.zones()[0].max, Some(Value::Int(ZONE_ROWS as i64 - 1)));
        assert_eq!(s.zones()[2].min, Some(Value::Int(2 * ZONE_ROWS as i64)));
    }

    #[test]
    fn float_bounds_ignore_nan_and_honor_negative_zero() {
        let c = Column::Float(vec![Some(f64::NAN), Some(-0.0), None]);
        let s = ColumnStats::of(&c);
        // Bounds are numeric: -0.0 == 0.0, so a [0.0, 1.0] range must not
        // be pruned away by a total-order "max < lo" argument.
        assert_eq!(s.min, Some(Value::Float(-0.0)));
        assert_eq!(s.max, Some(Value::Float(-0.0)));
        let (rows, stats) =
            scan_column(&c, &s, &ScanPredicate::FloatRange { lo: 0.0, hi: 1.0 }).unwrap();
        assert_eq!(rows, vec![1], "-0.0 satisfies x >= 0.0");
        assert_eq!(stats.zones_skipped, 0);
    }

    #[test]
    fn all_nan_zone_skips_ranges_exactly() {
        let c = Column::Float(vec![Some(f64::NAN), None]);
        let s = ColumnStats::of(&c);
        assert_eq!(s.min, None);
        let (rows, stats) = scan_column(
            &c,
            &s,
            &ScanPredicate::FloatRange {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            },
        )
        .unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.zones_skipped, 1);
        assert_eq!(stats.rows_tested, 0);
    }

    #[test]
    fn excluded_zones_do_zero_row_work() {
        // Clustered values: zone z holds values in [z*1000, z*1000+999].
        let n = ZONE_ROWS * 4;
        let c = int_column((0..n).map(|r| Some((r / ZONE_ROWS * 1000 + r % 1000) as i64)));
        let s = ColumnStats::of(&c);
        let (rows, stats) =
            scan_column(&c, &s, &ScanPredicate::IntRange { lo: 2000, hi: 2003 }).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(stats.zones_total, 4);
        assert_eq!(stats.zones_skipped, 3, "only zone 2 can match");
        assert_eq!(
            stats.rows_tested, ZONE_ROWS,
            "excluded zones contribute zero per-row tests"
        );

        // A predicate no zone can satisfy touches no rows at all.
        let (rows, stats) =
            scan_column(&c, &s, &ScanPredicate::IntRange { lo: -10, hi: -1 }).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.zones_skipped, stats.zones_total);
        assert_eq!(stats.rows_tested, 0);
    }

    #[test]
    fn is_null_scan_uses_null_census() {
        let mut cells: Vec<Option<i64>> = (0..ZONE_ROWS as i64).map(Some).collect();
        cells.extend((0..ZONE_ROWS).map(|r| if r == 7 { None } else { Some(r as i64) }));
        let c = int_column(cells);
        let s = ColumnStats::of(&c);
        let (rows, stats) = scan_column(&c, &s, &ScanPredicate::IsNull).unwrap();
        assert_eq!(rows, vec![(ZONE_ROWS + 7) as u32]);
        assert_eq!(stats.zones_skipped, 1, "the NULL-free zone is skipped");
    }

    #[test]
    fn str_and_bool_scans() {
        let mut c = StrColumn::default();
        for cell in [Some("b"), Some("a"), None] {
            c.push(cell);
        }
        let c = Column::Str(c);
        let s = ColumnStats::of(&c);
        let (rows, _) = scan_column(&c, &s, &ScanPredicate::StrEquals("a".into())).unwrap();
        assert_eq!(rows, vec![1]);
        let (rows, stats) = scan_column(&c, &s, &ScanPredicate::StrEquals("z".into())).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.zones_skipped, 1, "out-of-bounds key prunes the zone");

        let b = Column::Bool(vec![Some(true), Some(true), None]);
        let bs = ColumnStats::of(&b);
        let (rows, stats) = scan_column(&b, &bs, &ScanPredicate::BoolIs(false)).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.zones_skipped, 1);
        let (rows, _) = scan_column(&b, &bs, &ScanPredicate::BoolIs(true)).unwrap();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let c = int_column([Some(1)]);
        let s = ColumnStats::of(&c);
        assert!(scan_column(&c, &s, &ScanPredicate::StrEquals("x".into())).is_err());
        assert!(scan_column(&c, &s, &ScanPredicate::BoolIs(true)).is_err());
        // Widening float range over an int column is allowed.
        assert!(scan_column(&c, &s, &ScanPredicate::FloatRange { lo: 0.0, hi: 2.0 }).is_ok());
    }

    #[test]
    fn int_column_float_range_widens() {
        let c = int_column([Some(1), Some(2), Some(3)]);
        let s = ColumnStats::of(&c);
        let (rows, _) =
            scan_column(&c, &s, &ScanPredicate::FloatRange { lo: 1.5, hi: 2.5 }).unwrap();
        assert_eq!(rows, vec![1]);
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
