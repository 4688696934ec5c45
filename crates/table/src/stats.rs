//! Per-column statistics.
//!
//! [`ColumnStats`] is computed lazily, once per column of a table state,
//! and kept in the column's slot ([`crate::derived`]). It carries what
//! the session layer would otherwise re-derive by scanning:
//! `distinct_count` — `column_select` eligibility checks it per candidate
//! per ranking pass — and `null_count`, which the label-column check
//! reads for every new table.

use crate::column::Column;

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
}
