//! Columnar storage.
//!
//! Numeric columns are typed vectors with an optional per-slot NULL
//! (`Vec<Option<T>>`). A boolean column is **its bit planes**
//! ([`BoolColumn`]): the rows where it is true, one [`RowSet`] behind an
//! `Arc`, and the rows where it is NULL, kept only once a NULL exists —
//! because everything downstream (the oracle UDF, the frame that scores
//! an answer) reads a boolean column as "the rows where it holds", and
//! [`Column::true_rows`] hands out that plane itself. String columns are
//! **dictionary-encoded** ([`StrColumn`]): each distinct string is stored
//! once and every row carries a code into that dictionary, because to
//! everything downstream — the group-by, the samplers, the feature
//! extractor — a categorical column *is* a small dictionary plus one code
//! per row. The
//! codes are stored at the narrowest width the dictionary allows — one
//! byte per row up to 255 entries, two up to 65 535, four beyond — with
//! NULL as the width's maximum value, and every reader of them is generic
//! over the width ([`Code`]), compiled once per width. The accessors below
//! are what those consumers iterate over.

use crate::rowset::RowSet;
use crate::value::{DataType, Value, ValueKey};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A single typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean column.
    Bool(BoolColumn),
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column.
    Float(Vec<Option<f64>>),
    /// String column.
    Str(StrColumn),
}

mod sealed {
    /// Keeps [`super::Code`] to the three widths, and its conversions and
    /// the code storage inside the crate.
    pub trait Sealed: Sized {
        /// The code of dictionary entry `index`, which the caller has
        /// checked is below the width's NULL.
        fn from_index(index: usize) -> Self;
        /// Codes of this width as the column's storage.
        fn store(codes: Vec<Self>) -> Codes;
    }

    /// A string column's per-row codes, at the narrowest width its
    /// dictionary allows (`Codes::width_for`). Named only inside the
    /// crate.
    #[derive(Clone)]
    pub enum Codes {
        U8(Vec<u8>),
        U16(Vec<u16>),
        U32(Vec<u32>),
    }
}
pub(crate) use sealed::Codes;

/// One row's dictionary code at one storage width: `u8`, `u16` or `u32`.
/// NULL is the width's maximum value, so a width holds the codes of a
/// dictionary of up to `NULL` entries.
pub trait Code: Copy + Eq + fmt::Debug + sealed::Sealed {
    /// The code of a NULL row: the width's maximum value, past every
    /// dictionary entry.
    const NULL: Self;
    /// The dictionary entry this code names; NULL's lies past the last.
    fn index(self) -> usize;
}

macro_rules! code_width {
    ($($width:ident => $variant:ident),*) => {$(
        impl sealed::Sealed for $width {
            #[inline]
            fn from_index(index: usize) -> Self {
                index as $width
            }

            fn store(codes: Vec<Self>) -> Codes {
                Codes::$variant(codes)
            }
        }

        impl Code for $width {
            const NULL: Self = $width::MAX;

            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
code_width!(u8 => U8, u16 => U16, u32 => U32);

/// Runs `$body` with `$codes` bound to the code slice of a [`Codes`] at
/// its stored width: the body is compiled once per width, so a loop in it
/// reads the codes as they are stored and never branches on the width.
macro_rules! with_codes {
    ($storage:expr, $codes:ident => $body:expr) => {
        match $storage {
            $crate::column::Codes::U8($codes) => $body,
            $crate::column::Codes::U16($codes) => $body,
            $crate::column::Codes::U32($codes) => $body,
        }
    };
}
pub(crate) use with_codes;

impl Codes {
    /// Empty storage at the narrowest width that holds `entries`
    /// dictionary entries.
    fn width_for(entries: usize) -> Self {
        if entries <= u8::NULL.index() {
            Codes::U8(Vec::new())
        } else if entries <= u16::NULL.index() {
            Codes::U16(Vec::new())
        } else {
            Codes::U32(Vec::new())
        }
    }

    /// Bytes per stored code.
    fn width(&self) -> usize {
        match self {
            Codes::U8(_) => 1,
            Codes::U16(_) => 2,
            Codes::U32(_) => 4,
        }
    }
}

impl Default for Codes {
    fn default() -> Self {
        Codes::U8(Vec::new())
    }
}

/// `codes` at a width `W` that holds every entry they name, each code
/// naming entry `entry(code)` and NULL staying NULL, into `out`: a
/// widening, or a narrowing to a tidied dictionary's width.
fn recode<N: Code, W: Code>(codes: &[N], entry: impl Fn(usize) -> usize, out: &mut Vec<W>) {
    out.extend(codes.iter().map(|&code| {
        if code == N::NULL {
            W::NULL
        } else {
            W::from_index(entry(code.index()))
        }
    }));
}

/// A boolean column as bit planes in [`RowSet`]'s 64-row word layout.
///
/// * **Values:** the rows whose cell is `true`, behind an `Arc`, so
///   [`Column::true_rows`] hands out the plane itself and a clone of the
///   column shares it; a push copies it only while it is shared.
/// * **NULL:** the rows whose cell is NULL, a plane that exists only once
///   a NULL is pushed. A NULL row's value bit is clear.
/// * **Cost:** a bit a row, and a second bit a row only with a NULL; a
///   20 000-row label column is 2.5 KB.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoolColumn {
    values: Arc<RowSet>,
    nulls: Option<RowSet>,
    len: usize,
}

impl BoolColumn {
    /// The column of `len` rows without NULLs that is true on the rows of
    /// `values`, a plane over `[0, len)`.
    pub(crate) fn from_plane(values: RowSet, len: usize) -> Self {
        Self {
            values: Arc::new(values),
            nulls: None,
            len,
        }
    }

    /// Appends one cell (`None` is NULL).
    pub(crate) fn push(&mut self, cell: Option<bool>) {
        let row = self.len;
        self.len += 1;
        let values = Arc::make_mut(&mut self.values);
        values.grow(self.len);
        if cell == Some(true) {
            values.insert(row);
        }
        if cell.is_none() || self.nulls.is_some() {
            let nulls = self.nulls.get_or_insert_with(RowSet::default);
            nulls.grow(self.len);
            if cell.is_none() {
                nulls.insert(row);
            }
        }
    }

    /// The cell at `row`, `None` for NULL. Panics if out of range.
    pub(crate) fn get(&self, row: usize) -> Option<bool> {
        assert!(row < self.len, "row {row} of a {}-row column", self.len);
        let null = self.nulls.as_ref().is_some_and(|nulls| nulls.contains(row));
        (!null).then(|| self.values.contains(row))
    }

    /// Every cell, in row order.
    pub fn cells(&self) -> impl Iterator<Item = Option<bool>> + '_ {
        (0..self.len).map(|row| self.get(row))
    }
}

impl FromIterator<Option<bool>> for BoolColumn {
    fn from_iter<I: IntoIterator<Item = Option<bool>>>(cells: I) -> Self {
        let mut column = Self::default();
        cells.into_iter().for_each(|cell| column.push(cell));
        column
    }
}

/// A dictionary-encoded string column.
///
/// * **Storage:** the distinct strings once each, in first-seen order,
///   plus one code per row at the narrowest width the dictionary allows:
///   a byte while it has at most 255 entries, two bytes up to 65 535,
///   four beyond. A 20 000-row categorical column with 40 values is 20 KB
///   of codes and 40 strings, where a heap string per cell was 20 000
///   allocations and ≈ 1 MB.
/// * **NULL** is the width's maximum value ([`Code::NULL`]); it has no
///   dictionary entry.
/// * **Widening:** [`StrColumn::push`] re-stores the codes one width up
///   when a new string would take the current width's NULL, so the width
///   always follows the dictionary's length.
/// * **Invariant:** every dictionary entry is carried by at least one row
///   (columns are append-only), so the dictionary length *is* the
///   distinct count and the kernels never meet an empty group.
/// * **Equality is by content:** two columns holding the same cells are
///   equal whatever order their dictionaries were built in.
/// * **Cost, stated plainly:** an interning index (string → code) rides
///   along so [`StrColumn::push`] is one hash lookup (a column built
///   whole, [`StrColumn::from_dictionary`], builds it on its first push);
///   an all-distinct
///   column therefore pays 2–4 B/row of codes (two bytes from its 256th
///   row, four from its 65 536th) plus a dictionary slot and an index
///   entry per row *on top of* its strings.
#[derive(Clone, Default)]
pub struct StrColumn {
    codes: Codes,
    dictionary: Vec<Arc<str>>,
    /// Interning index; shares each string's allocation with `dictionary`.
    index: HashMap<Arc<str>, u32>,
    nulls: usize,
}

impl StrColumn {
    /// An empty column with room for `cap` rows (of one-byte codes).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            codes: Codes::U8(Vec::with_capacity(cap)),
            ..Self::default()
        }
    }

    /// Builds a column from an already-encoded form: `codes[row]` indexes
    /// `dictionary`, or is the width's [`Code::NULL`]. The dictionary need
    /// not be tidy — an entry no row carries is dropped and a repeated
    /// string is merged into its first occurrence — so a producer can
    /// render every label it *might* use once and push plain label
    /// numbers. Codes given at the width the tidied dictionary needs are
    /// kept, relabelled in place if need be; wider ones are re-stored
    /// narrow in one pass. Errors only on a code outside the dictionary.
    pub fn from_dictionary<S: AsRef<str>, C: Code>(
        dictionary: &[S],
        mut codes: Vec<C>,
    ) -> Result<Self, String> {
        let mut used = vec![false; dictionary.len()];
        let mut nulls = 0usize;
        for &code in &codes {
            // NULL first: a byte's NULL, 255, may be a place in a
            // dictionary of more entries than its rows use.
            if code == C::NULL {
                nulls += 1;
                continue;
            }
            let Some(slot) = used.get_mut(code.index()) else {
                return Err(format!(
                    "code {code:?} outside a dictionary of {} entries",
                    dictionary.len()
                ));
            };
            *slot = true;
        }
        // Room for every entry a row carries, so a small dictionary holds
        // no growth slack; the interning index waits for a first push.
        let mut column = Self {
            dictionary: Vec::with_capacity(used.iter().filter(|&&used| used).count()),
            nulls,
            ..Self::default()
        };
        // Given code -> kept code (an entry no row carries keeps none; a
        // repeated string keeps its first occurrence's).
        let mut first = HashMap::with_capacity(column.dictionary.capacity());
        let kept: Vec<usize> = dictionary
            .iter()
            .zip(used)
            .map(|(entry, used)| {
                if !used {
                    return usize::MAX;
                }
                let next = column.dictionary.len();
                *first.entry(entry.as_ref()).or_insert_with(|| {
                    column.dictionary.push(Arc::from(entry.as_ref()));
                    next
                })
            })
            .collect();
        let relabel = kept.iter().enumerate().any(|(given, &kept)| kept != given);
        let mut stored = Codes::width_for(column.dictionary.len());
        column.codes = if stored.width() == size_of::<C>() {
            if relabel {
                for code in codes.iter_mut().filter(|code| **code != C::NULL) {
                    *code = C::from_index(kept[code.index()]);
                }
            }
            C::store(codes)
        } else {
            with_codes!(&mut stored, out => recode(&codes, |given| kept[given], out));
            stored
        };
        Ok(column)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        with_codes!(&self.codes, codes => codes.len())
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one cell (`None` is NULL): one hash lookup, and an
    /// allocation only for a string not seen before — or, once per width,
    /// for the codes re-stored one width up.
    pub fn push(&mut self, cell: Option<&str>) {
        fn append<C: Code>(codes: &mut Vec<C>, entry: Option<u32>) {
            codes.push(entry.map_or(C::NULL, |entry| C::from_index(entry as usize)));
        }
        let entry = match cell {
            None => {
                self.nulls += 1;
                None
            }
            Some(s) => Some(self.intern(s)),
        };
        with_codes!(&mut self.codes, codes => append(codes, entry));
    }

    /// The code of `s`, adding it to the dictionary if it is new — and
    /// widening the codes if the new entry's code would be the width's
    /// NULL. The caller appends a row carrying the code (the invariant).
    fn intern(&mut self, s: &str) -> u32 {
        if self.index.len() < self.dictionary.len() {
            // Built from its dictionary: the index waits for a first push.
            let entries = (0..).zip(&self.dictionary);
            self.index = entries
                .map(|(code, entry)| (Arc::clone(entry), code))
                .collect();
        }
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.dictionary.len())
            .ok()
            .filter(|&code| code != u32::NULL)
            .expect("a string dictionary holds fewer than u32::MAX entries");
        let entry: Arc<str> = Arc::from(s);
        self.dictionary.push(Arc::clone(&entry));
        self.index.insert(entry, code);
        if self.codes.width() < Codes::width_for(self.dictionary.len()).width() {
            self.widen();
        }
        code
    }

    /// Re-stores the codes one width up, NULL rows at the new width's
    /// NULL, keeping the reserved room.
    fn widen(&mut self) {
        fn up<N: Code, W: Code>(narrow: &[N], cap: usize) -> Vec<W> {
            let mut wide = Vec::with_capacity(cap);
            recode(narrow, |entry| entry, &mut wide);
            wide
        }
        self.codes = match &self.codes {
            Codes::U8(codes) => Codes::U16(up(codes, codes.capacity())),
            Codes::U16(codes) => Codes::U32(up(codes, codes.capacity())),
            Codes::U32(_) => unreachable!("four-byte codes are the widest"),
        };
    }

    /// The string at `row`, `None` for NULL. Panics if out of range.
    pub fn get(&self, row: usize) -> Option<&str> {
        let entry = with_codes!(&self.codes, codes => codes[row].index());
        self.dictionary.get(entry).map(|s| &**s)
    }

    /// One code per row, in row order, at the stored width ([`Code::NULL`]
    /// for NULL): read it with [`with_codes`].
    pub(crate) fn codes(&self) -> &Codes {
        &self.codes
    }

    /// The distinct strings; `dictionary()[code]` is the string of the
    /// rows carrying `code`. First-seen order, *not* sorted.
    pub fn dictionary(&self) -> &[Arc<str>] {
        &self.dictionary
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// The dictionary's sort order and the code → group map of the
    /// column's grouping: `order` lists the codes ascending by string,
    /// and `group[code]` is that code's group — its position in `order`,
    /// one past it when the column holds a NULL, whose group is 0. NULL's
    /// own code lies past the end of `group`. The kernels and the
    /// per-column stats sort these few entries instead of hashing every
    /// cell.
    pub(crate) fn dictionary_order(&self) -> (Vec<u32>, Vec<u32>) {
        let mut order: Vec<u32> = (0..self.dictionary.len() as u32).collect();
        order.sort_unstable_by_key(|&code| &*self.dictionary[code as usize]);
        let first = u32::from(self.nulls > 0);
        let mut group = vec![0u32; order.len()];
        for (position, &code) in (first..).zip(&order) {
            group[code as usize] = position;
        }
        (order, group)
    }

    /// Whether `ours` (this column's codes) and `theirs` (`other`'s, at
    /// the same width) hold the same cells. Each code of `self` is
    /// matched to a code of `other` by comparing the two strings once;
    /// after that the rows compare as integers.
    fn same_cells<C: Code>(&self, ours: &[C], other: &Self, theirs: &[C]) -> bool {
        // Codes of `self` not yet matched; NULL is never matched.
        let mut matched = vec![C::NULL; self.dictionary.len()];
        ours.iter().zip(theirs).all(|(&ours, &theirs)| {
            let Some(slot) = matched.get_mut(ours.index()) else {
                return theirs == C::NULL;
            };
            let Some(entry) = other.dictionary.get(theirs.index()) else {
                return false;
            };
            if *slot == C::NULL && *entry == self.dictionary[ours.index()] {
                *slot = theirs;
            }
            *slot == theirs
        })
    }
}

impl PartialEq for StrColumn {
    /// Content equality: the same cell in every row. Columns with the same
    /// cells have dictionaries of one length, so their codes share a
    /// width.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() || self.dictionary.len() != other.dictionary.len() {
            return false;
        }
        match (&self.codes, &other.codes) {
            (Codes::U8(ours), Codes::U8(theirs)) => self.same_cells(ours, other, theirs),
            (Codes::U16(ours), Codes::U16(theirs)) => self.same_cells(ours, other, theirs),
            (Codes::U32(ours), Codes::U32(theirs)) => self.same_cells(ours, other, theirs),
            _ => unreachable!("the code width follows the dictionary length"),
        }
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
            DataType::Bool => Column::Bool(BoolColumn::default()),
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(StrColumn::default()),
        }
    }

    /// An empty column with reserved capacity (but for a boolean one,
    /// whose planes grow a word per 64 rows).
    pub fn with_capacity(data_type: DataType, cap: usize) -> Self {
        match data_type {
            DataType::Bool => Column::Bool(BoolColumn::default()),
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
            Column::Bool(v) => v.len,
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
            Column::Bool(v) => v.get(row).map_or(Value::Null, Value::Bool),
            Column::Int(v) => v[row].map_or(Value::Null, Value::Int),
            Column::Float(v) => v[row].map_or(Value::Null, Value::Float),
            Column::Str(v) => v.get(row).map_or(Value::Null, |s| Value::Str(s.to_owned())),
        }
    }

    /// Borrow the string at `row` without cloning, if this is a string
    /// column with a non-NULL entry. `pub` as a test seam for
    /// `tests/columnar.rs`.
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match self {
            Column::Str(v) => v.get(row),
            _ => None,
        }
    }

    /// The boolean at `row` if this is a non-NULL bool entry.
    pub fn bool_at(&self, row: usize) -> Option<bool> {
        match self {
            Column::Bool(v) => v.get(row),
            _ => None,
        }
    }

    /// The rows where this column is `true`: the column's own plane,
    /// shared by every read of this column. `None` unless it is a boolean
    /// column without NULLs.
    pub fn true_rows(&self) -> Option<&Arc<RowSet>> {
        match self {
            Column::Bool(v) if v.nulls.is_none() => Some(&v.values),
            _ => None,
        }
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
        fn cells<T>(
            cells: impl Iterator<Item = Option<T>>,
            row_hashes: &mut [u64],
            fold: impl Fn(u64, u64) -> u64,
            value: impl Fn(T) -> Value,
        ) {
            for (hash, cell) in row_hashes.iter_mut().zip(cells) {
                *hash = fold(*hash, cell.map_or(Value::Null, &value).fingerprint());
            }
        }
        match self {
            Column::Bool(v) => cells(v.cells(), row_hashes, fold, Value::Bool),
            Column::Int(v) => cells(v.iter().copied(), row_hashes, fold, Value::Int),
            Column::Float(v) => cells(v.iter().copied(), row_hashes, fold, Value::Float),
            Column::Str(v) => {
                let null = Value::Null.fingerprint();
                let entries: Vec<u64> = v
                    .dictionary()
                    .iter()
                    .map(|entry| ValueKey::Str(entry).fingerprint())
                    .collect();
                with_codes!(v.codes(), codes => {
                    for (hash, &code) in row_hashes.iter_mut().zip(codes) {
                        *hash = fold(*hash, entries.get(code.index()).copied().unwrap_or(null));
                    }
                });
            }
        }
    }

    /// Number of NULL entries.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Bool(v) => v.nulls.as_ref().map_or(0, RowSet::len),
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Str(v) => v.null_count(),
        }
    }

    /// Number of distinct non-NULL values (floats distinct by bit
    /// pattern). Hashes nothing: a boolean column counts its true and
    /// its false rows off its planes, a numeric one sorts its values and
    /// counts the runs, and a string column's dictionary is its distinct
    /// values.
    pub fn distinct_count(&self) -> usize {
        fn sorted_runs<T: Ord>(mut values: Vec<T>) -> usize {
            values.sort_unstable();
            values.dedup();
            values.len()
        }
        match self {
            Column::Bool(v) => {
                let trues = v.values.len();
                usize::from(trues > 0) + usize::from(v.len - self.null_count() > trues)
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
    fn a_column_built_from_its_dictionary_interns_on_its_first_push() {
        // "a" repeats and "u" is carried by no row: both leave the tidy
        // dictionary, and no index is kept until a push needs one.
        let mut c = StrColumn::from_dictionary(&["a", "u", "b", "a"], vec![3u8, 2, 0]).unwrap();
        assert_eq!(c.dictionary().len(), 2);
        assert!(c.index.is_empty());
        c.push(Some("b"));
        c.push(Some("z"));
        assert_eq!(c.dictionary().len(), 3, "\"b\" kept its code");
        assert_eq!(c.index.len(), 3);
        let cells: Vec<_> = (0..c.len()).map(|row| c.get(row)).collect();
        assert_eq!(cells, ["a", "b", "a", "b", "z"].map(Some));
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
            assert_eq!(column.true_rows().map(|plane| &**plane), Some(&oracle));
            // A NULL anywhere — first cell, last, a word edge — is `None`.
            for null in [0, rows / 2, 63, 64, rows.saturating_sub(1)] {
                if null < rows {
                    let mut cells: Vec<Option<bool>> = flags(rows).map(Some).collect();
                    cells[null] = None;
                    let column = Column::Bool(cells.into_iter().collect());
                    assert_eq!(column.true_rows(), None, "NULL at {null}");
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
