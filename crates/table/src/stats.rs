//! Per-column statistics.
//!
//! [`ColumnStats`] is computed lazily, once per column of a table state,
//! and kept in the column's slot ([`crate::derived`]). It carries what
//! the session layer would otherwise re-derive by scanning:
//! `distinct_count` — `column_select` eligibility checks it per candidate
//! per ranking pass — `null_count`, and, for a string column, its
//! groups as the §4.4 ranking reads them: rows per group and each
//! dictionary code's group. A candidate is scored from those and a
//! labelled sample ([`crate::Table::tally_groups`]): the sample's rows
//! are walked through the column's stored codes, so ranking a column
//! builds no [`GroupBy`](crate::GroupBy) and keeps none.

use crate::column::{with_codes, Code, Column, StrColumn};
use crate::rowset::{bits, RowSet};

/// Lazily computed, memoized per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// NULL entries in the whole column.
    pub null_count: usize,
    /// Distinct non-NULL values (floats distinct by bit pattern, matching
    /// [`Column::distinct_count`]).
    pub distinct_count: usize,
    /// A string column's groups; `None` for any other type.
    groups: Option<CodeGroups>,
}

/// A string column's grouping, without its rows: what ranking tallies a
/// labelled sample through.
#[derive(Debug, Clone)]
struct CodeGroups {
    /// Rows per group, in [`crate::Table::group_by`]'s group order.
    sizes: Vec<usize>,
    /// Each dictionary code's group ([`StrColumn::dictionary_order`]);
    /// NULL's code lies past the end and falls to group 0.
    group: Vec<u32>,
}

/// One group of a column as ranking reads it: its size, and its share
/// of a sample and of the sample's marked rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupTally {
    /// Rows in the group.
    pub size: usize,
    /// The group's rows the sample holds.
    pub rows: usize,
    /// Of those, the rows the marked plane holds too.
    pub marked: usize,
}

impl ColumnStats {
    /// Computes stats for a column.
    pub fn of(column: &Column) -> Self {
        Self {
            null_count: column.null_count(),
            distinct_count: column.distinct_count(),
            groups: match column {
                Column::Str(column) => Some(CodeGroups::of(column)),
                _ => None,
            },
        }
    }

    /// Per group of `column` — the column these stats were computed
    /// from — in group order: its size, how many of its rows `sample`
    /// holds, and how many of those `marked` holds too. Walks the rows
    /// of `sample` only: a string column reads each one's stored code
    /// through the memoized code → group map; any other type encodes the
    /// column once per call ([`Column::group_codes`]).
    pub(crate) fn tally(
        &self,
        column: &Column,
        sample: &RowSet,
        marked: &RowSet,
    ) -> Vec<GroupTally> {
        match (&self.groups, column) {
            (Some(groups), Column::Str(column)) => {
                let mut tally: Vec<GroupTally> = groups
                    .sizes
                    .iter()
                    .map(|&size| GroupTally {
                        size,
                        ..GroupTally::default()
                    })
                    .collect();
                with_codes!(column.codes(), codes => walk(sample, marked, &mut tally, |row| {
                    groups.group.get(codes[row].index()).map_or(0, |&g| g as usize)
                }));
                tally
            }
            _ => {
                let codes = column.group_codes();
                let mut tally = vec![GroupTally::default(); codes.num_groups()];
                for &code in codes.codes() {
                    tally[code as usize].size += 1;
                }
                walk(sample, marked, &mut tally, |row| {
                    codes.codes()[row] as usize
                });
                tally
            }
        }
    }
}

impl PartialEq for CodeGroups {
    /// Content equality, as [`StrColumn`]'s: columns with the same cells
    /// have the same groups, however their dictionaries are ordered.
    fn eq(&self, other: &Self) -> bool {
        self.sizes == other.sizes
    }
}

impl CodeGroups {
    /// The groups of `column`, counted in one pass over its stored codes.
    fn of(column: &StrColumn) -> Self {
        fn count<C: Code>(codes: &[C], per_code: &mut [usize]) {
            for &code in codes {
                if let Some(rows) = per_code.get_mut(code.index()) {
                    *rows += 1;
                }
            }
        }
        let (_, group) = column.dictionary_order();
        let mut per_code = vec![0; group.len()];
        with_codes!(column.codes(), codes => count(codes, &mut per_code));
        let nulls = column.null_count();
        let mut sizes = vec![nulls; group.len() + usize::from(nulls > 0)];
        for (&g, rows) in group.iter().zip(per_code) {
            sizes[g as usize] = rows;
        }
        Self { sizes, group }
    }
}

/// Adds each row of `sample` to its group's tally (`group_of(row)`), and
/// to the group's marked rows when `marked` holds it too.
fn walk(
    sample: &RowSet,
    marked: &RowSet,
    tally: &mut [GroupTally],
    group_of: impl Fn(usize) -> usize,
) {
    for (word, &rows) in sample.words().iter().enumerate() {
        let marks = marked.word(word);
        for bit in bits(rows) {
            let group = &mut tally[group_of(word * 64 + bit as usize)];
            group.rows += 1;
            group.marked += (marks >> bit & 1) as usize;
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
        assert_eq!(s.groups, None, "only a string column keeps its groups");
    }

    #[test]
    fn a_string_columns_groups_follow_the_group_by() {
        let mut column = StrColumn::with_capacity(6);
        for cell in [Some("b"), None, Some("a"), Some("b"), Some("c"), None] {
            column.push(cell);
        }
        let column = Column::Str(column);
        let groups = ColumnStats::of(&column).groups.unwrap();
        // NULL first, then "a" < "b" < "c"; codes are first-seen: b, a, c.
        assert_eq!(groups.sizes, [2, 1, 2, 1]);
        assert_eq!(groups.group, [2, 1, 3]);
    }

    #[test]
    fn a_tally_counts_the_sample_and_its_marked_rows_per_group() {
        let mut strings = StrColumn::with_capacity(6);
        let cells = [Some("b"), None, Some("a"), Some("b"), Some("c"), None];
        for cell in cells {
            strings.push(cell);
        }
        let ints = int_column([Some(2), None, Some(1), Some(2), Some(3), None]);
        let sample = RowSet::from_ids(6, [0, 1, 3, 4]);
        let marked = RowSet::from_ids(6, [0, 4]);
        let expected = [(2, 1, 0), (1, 0, 0), (2, 2, 1), (1, 1, 1)]
            .map(|(size, rows, marked)| GroupTally { size, rows, marked });
        for column in [Column::Str(strings), ints] {
            let stats = ColumnStats::of(&column);
            assert_eq!(stats.tally(&column, &sample, &marked), expected);
        }
    }
}
