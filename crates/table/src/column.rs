//! Columnar storage.
//!
//! Numeric and boolean columns are typed vectors with an optional per-slot
//! NULL (`Vec<Option<T>>`). String columns are **dictionary-encoded**
//! ([`StrColumn`]): each distinct string is stored once and every row
//! carries a `u32` code into that dictionary, because to everything
//! downstream — the group-by, the samplers, the feature extractor — a
//! categorical column *is* a small dictionary plus one code per row. The
//! accessors below are what those consumers iterate over.

use crate::rowset::RowSet;
use crate::value::{DataType, Value, ValueKey};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A single typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean column.
    Bool(Vec<Option<bool>>),
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column.
    Float(Vec<Option<f64>>),
    /// String column.
    Str(StrColumn),
}

/// A dictionary-encoded string column.
///
/// * **Storage:** the distinct strings once each, in first-seen order,
///   plus one `u32` code per row. A 20 000-row categorical column with 40
///   values is 80 KB of codes and 40 strings, where a heap string per
///   cell was 20 000 allocations and ≈ 1 MB.
/// * **NULL** is the reserved code [`StrColumn::NULL_CODE`]; it has no
///   dictionary entry.
/// * **Invariant:** every dictionary entry is carried by at least one row
///   (columns are append-only), so the dictionary length *is* the
///   distinct count and the kernels never meet an empty group.
/// * **Equality is by content:** two columns holding the same cells are
///   equal whatever order their dictionaries were built in.
/// * **Cost, stated plainly:** an interning index (string → code) rides
///   along so [`StrColumn::push`] is one hash lookup; an all-distinct
///   column therefore pays 4 B/row of codes plus a dictionary slot and an
///   index entry per row *on top of* its strings.
#[derive(Clone, Default)]
pub struct StrColumn {
    codes: Vec<u32>,
    dictionary: Vec<Arc<str>>,
    /// Interning index; shares each string's allocation with `dictionary`.
    index: HashMap<Arc<str>, u32>,
    nulls: usize,
}

impl StrColumn {
    /// The code of a NULL row. Larger than any dictionary code.
    pub const NULL_CODE: u32 = u32::MAX;

    /// An empty column with room for `cap` rows.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            codes: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Builds a column from an already-encoded form: `codes[row]` indexes
    /// `dictionary`, or is [`Self::NULL_CODE`]. The dictionary need not be
    /// tidy — an entry no row carries is dropped and a repeated string is
    /// merged into its first occurrence — so a producer can render every
    /// label it *might* use once and push plain label numbers. Errors only
    /// on a code outside the dictionary.
    pub fn from_dictionary<S: AsRef<str>>(
        dictionary: &[S],
        mut codes: Vec<u32>,
    ) -> Result<Self, String> {
        let mut used = vec![false; dictionary.len()];
        let mut nulls = 0usize;
        for &code in &codes {
            match used.get_mut(code as usize) {
                Some(slot) => *slot = true,
                None if code == Self::NULL_CODE => nulls += 1,
                None => {
                    return Err(format!(
                        "code {code} outside a dictionary of {} entries",
                        dictionary.len()
                    ))
                }
            }
        }
        let mut column = Self {
            nulls,
            ..Self::default()
        };
        // Given code -> kept code (NULL_CODE for an entry no row carries).
        let kept: Vec<u32> = dictionary
            .iter()
            .zip(used)
            .map(|(entry, used)| {
                if used {
                    column.intern(entry.as_ref())
                } else {
                    Self::NULL_CODE
                }
            })
            .collect();
        if kept.iter().zip(0u32..).any(|(&kept, given)| kept != given) {
            for code in &mut codes {
                if let Some(&kept) = kept.get(*code as usize) {
                    *code = kept;
                }
            }
        }
        column.codes = codes;
        Ok(column)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Appends one cell (`None` is NULL): one hash lookup, and an
    /// allocation only for a string not seen before.
    pub fn push(&mut self, cell: Option<&str>) {
        let code = match cell {
            None => {
                self.nulls += 1;
                Self::NULL_CODE
            }
            Some(s) => self.intern(s),
        };
        self.codes.push(code);
    }

    /// The code of `s`, adding it to the dictionary if it is new. The
    /// caller appends a row carrying the code (the invariant).
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.dictionary.len())
            .ok()
            .filter(|&code| code != Self::NULL_CODE)
            .expect("a string dictionary holds fewer than u32::MAX entries");
        let entry: Arc<str> = Arc::from(s);
        self.dictionary.push(Arc::clone(&entry));
        self.index.insert(entry, code);
        code
    }

    /// The string at `row`, `None` for NULL. Panics if out of range.
    pub fn get(&self, row: usize) -> Option<&str> {
        self.dictionary.get(self.codes[row] as usize).map(|s| &**s)
    }

    /// One code per row, in row order ([`Self::NULL_CODE`] for NULL).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The distinct strings; `dictionary()[code]` is the string of the
    /// rows carrying `code`. First-seen order, *not* sorted.
    pub fn dictionary(&self) -> &[Arc<str>] {
        &self.dictionary
    }

    /// The code rows holding `s` carry, if any row does.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// The dictionary's sort order: `order` lists the codes ascending by
    /// string, and `rank[code]` is that code's position in `order`. The
    /// kernels sort these few entries instead of hashing every cell.
    pub(crate) fn dictionary_order(&self) -> (Vec<u32>, Vec<u32>) {
        let mut order: Vec<u32> = (0..self.dictionary.len() as u32).collect();
        order.sort_unstable_by_key(|&code| &*self.dictionary[code as usize]);
        let mut rank = vec![0u32; order.len()];
        for (position, &code) in order.iter().enumerate() {
            rank[code as usize] = position as u32;
        }
        (order, rank)
    }
}

impl PartialEq for StrColumn {
    /// Content equality: the same cell in every row. Each code of `self`
    /// is matched to a code of `other` by comparing the two strings once;
    /// after that the rows compare as integers.
    fn eq(&self, other: &Self) -> bool {
        const UNMATCHED: u32 = StrColumn::NULL_CODE;
        if self.len() != other.len() {
            return false;
        }
        let mut matched = vec![UNMATCHED; self.dictionary.len()];
        self.codes.iter().zip(&other.codes).all(|(&ours, &theirs)| {
            let Some(slot) = matched.get_mut(ours as usize) else {
                return theirs == Self::NULL_CODE;
            };
            let Some(entry) = other.dictionary.get(theirs as usize) else {
                return false;
            };
            if *slot == UNMATCHED && *entry == self.dictionary[ours as usize] {
                *slot = theirs;
            }
            *slot == theirs
        })
    }
}

impl fmt::Debug for StrColumn {
    /// The cells, as the `Vec<Option<&str>>` they decode to.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|row| self.get(row)))
            .finish()
    }
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(data_type: DataType) -> Self {
        match data_type {
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(StrColumn::default()),
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(data_type: DataType, cap: usize) -> Self {
        match data_type {
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(StrColumn::with_capacity(cap)),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(_) => DataType::Bool,
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value. Returns an error message if the type mismatches.
    pub fn push(&mut self, value: Value) -> Result<(), String> {
        match (self, value) {
            (Column::Bool(v), Value::Bool(b)) => v.push(Some(b)),
            (Column::Int(v), Value::Int(i)) => v.push(Some(i)),
            (Column::Float(v), Value::Float(f)) => v.push(Some(f)),
            (Column::Float(v), Value::Int(i)) => v.push(Some(i as f64)),
            (Column::Str(v), Value::Str(s)) => v.push(Some(&s)),
            (col, Value::Null) => match col {
                Column::Bool(v) => v.push(None),
                Column::Int(v) => v.push(None),
                Column::Float(v) => v.push(None),
                Column::Str(v) => v.push(None),
            },
            (col, value) => {
                return Err(format!(
                    "type mismatch: cannot push {:?} into {} column",
                    value,
                    col.data_type()
                ))
            }
        }
        Ok(())
    }

    /// The value at `row` (NULL as [`Value::Null`]). Panics if out of range.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Bool(v) => v[row].map_or(Value::Null, Value::Bool),
            Column::Int(v) => v[row].map_or(Value::Null, Value::Int),
            Column::Float(v) => v[row].map_or(Value::Null, Value::Float),
            Column::Str(v) => v.get(row).map_or(Value::Null, |s| Value::Str(s.to_owned())),
        }
    }

    /// Borrow the string at `row` without cloning, if this is a string
    /// column with a non-NULL entry.
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match self {
            Column::Str(v) => v.get(row),
            _ => None,
        }
    }

    /// The boolean at `row` if this is a non-NULL bool entry.
    pub fn bool_at(&self, row: usize) -> Option<bool> {
        match self {
            Column::Bool(v) => v[row],
            _ => None,
        }
    }

    /// The rows where this column is `true`, as a plane over the column's
    /// rows; `None` unless it is a boolean column without NULLs. One pass,
    /// 64 cells to a word: eight cells at a time become one byte lane
    /// each (0 false, 1 true, 2 NULL), and one multiply gathers the eight
    /// low bits into the word's byte.
    pub fn true_rows(&self) -> Option<RowSet> {
        let Column::Bool(values) = self else {
            return None;
        };
        let mut words = Vec::with_capacity(values.len().div_ceil(64));
        for cells in values.chunks(64) {
            let (mut word, mut nulls) = (0u64, 0u64);
            for (byte, cells) in cells.chunks(8).enumerate() {
                let mut lanes = [0u8; 8];
                for (lane, &cell) in lanes.iter_mut().zip(cells) {
                    *lane = match cell {
                        Some(false) => 0,
                        Some(true) => 1,
                        None => 2,
                    };
                }
                let lanes = u64::from_le_bytes(lanes);
                nulls |= lanes & 0x0202_0202_0202_0202;
                // Lane `i`'s low bit lands on bit `56 + i`, and nothing
                // carries into the top byte.
                let gathered = (lanes & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080);
                word |= (gathered >> 56) << (8 * byte);
            }
            if nulls != 0 {
                return None;
            }
            words.push(word);
        }
        Some(RowSet::from_words(words))
    }

    /// The float at `row`, widening integers, if non-NULL numeric.
    pub fn float_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Float(v) => v[row],
            Column::Int(v) => v[row].map(|i| i as f64),
            _ => None,
        }
    }

    /// Folds every cell's [`Value::fingerprint`] into its row's slot of
    /// `row_hashes` (`slot = fold(slot, fingerprint)`). A string's
    /// fingerprint is taken once per dictionary entry, not once per cell.
    pub(crate) fn fold_fingerprints(&self, row_hashes: &mut [u64], fold: impl Fn(u64, u64) -> u64) {
        fn cells<T: Copy>(
            cells: &[Option<T>],
            row_hashes: &mut [u64],
            fold: impl Fn(u64, u64) -> u64,
            value: impl Fn(T) -> Value,
        ) {
            for (hash, cell) in row_hashes.iter_mut().zip(cells) {
                *hash = fold(*hash, cell.map_or(Value::Null, &value).fingerprint());
            }
        }
        match self {
            Column::Bool(v) => cells(v, row_hashes, fold, Value::Bool),
            Column::Int(v) => cells(v, row_hashes, fold, Value::Int),
            Column::Float(v) => cells(v, row_hashes, fold, Value::Float),
            Column::Str(v) => {
                let null = Value::Null.fingerprint();
                let entries: Vec<u64> = v
                    .dictionary()
                    .iter()
                    .map(|entry| ValueKey::Str(entry).fingerprint())
                    .collect();
                for (hash, &code) in row_hashes.iter_mut().zip(v.codes()) {
                    *hash = fold(*hash, entries.get(code as usize).copied().unwrap_or(null));
                }
            }
        }
    }

    /// Number of NULL entries.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Str(v) => v.null_count(),
        }
    }

    /// Number of distinct non-NULL values (floats distinct by bit
    /// pattern). Hashes nothing: a boolean column ORs one bit per value it
    /// holds, a numeric one sorts its values and counts the runs, and a
    /// string column's dictionary is its distinct values.
    pub fn distinct_count(&self) -> usize {
        fn sorted_runs<T: Ord>(mut values: Vec<T>) -> usize {
            values.sort_unstable();
            values.dedup();
            values.len()
        }
        match self {
            Column::Bool(v) => {
                let seen = v.iter().fold(0u8, |seen, cell| {
                    seen | cell.map_or(0, |b| 1 << u8::from(b))
                });
                seen.count_ones() as usize
            }
            Column::Int(v) => sorted_runs(v.iter().flatten().copied().collect()),
            Column::Float(v) => sorted_runs(v.iter().flatten().map(|f| f.to_bits()).collect()),
            Column::Str(v) => v.dictionary().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut c = Column::empty(DataType::Bool);
        assert!(c.push(Value::Int(1)).is_err());
        assert!(c.push(Value::Bool(true)).is_ok());
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.value(0), Value::Float(2.0));
        assert_eq!(c.float_at(0), Some(2.0));
    }

    #[test]
    fn typed_accessors() {
        let mut c = Column::empty(DataType::Str);
        c.push(Value::Str("a".into())).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.str_at(0), Some("a"));
        assert_eq!(c.str_at(1), None);
        assert_eq!(c.bool_at(0), None);

        let mut b = Column::empty(DataType::Bool);
        b.push(Value::Bool(true)).unwrap();
        assert_eq!(b.bool_at(0), Some(true));
    }

    #[test]
    fn distinct_counts_floats_by_bits() {
        let mut c = Column::empty(DataType::Float);
        for v in [1.0, 1.0, 2.0, f64::NAN, f64::NAN] {
            c.push(Value::Float(v)).unwrap();
        }
        // NaN == NaN at the bit level here, so distinct = {1.0, 2.0, NaN}.
        assert_eq!(c.distinct_count(), 3);
    }

    #[test]
    fn true_rows_is_the_flag_plane_or_none_on_any_null() {
        let flags = |n: usize| (0..n).map(move |row| (row * 7 + row / 5) % 3 == 0);
        for rows in [0, 1, 63, 64, 65, 127, 128, 129, 300] {
            let column = Column::Bool(flags(rows).map(Some).collect());
            let oracle = RowSet::from_flags(flags(rows));
            assert_eq!(column.true_rows(), Some(oracle), "{rows} rows");
            // A NULL anywhere — first cell, last, a word edge — is `None`.
            for null in [0, rows / 2, 63, 64, rows.saturating_sub(1)] {
                if null < rows {
                    let mut cells: Vec<Option<bool>> = flags(rows).map(Some).collect();
                    cells[null] = None;
                    assert_eq!(Column::Bool(cells).true_rows(), None, "NULL at {null}");
                }
            }
        }
        assert_eq!(Column::Int(vec![Some(1)]).true_rows(), None);
    }

    #[test]
    fn capacity_constructor() {
        let c = Column::with_capacity(DataType::Int, 100);
        assert!(c.is_empty());
        assert_eq!(c.data_type(), DataType::Int);
    }
}
