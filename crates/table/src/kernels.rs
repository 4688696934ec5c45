//! Vectorized grouping kernels over typed column vectors.
//!
//! [`Table::group_by`](crate::table::Table::group_by) historically
//! materialized an owned [`Value`] per cell and bucketed them through a
//! `HashMap<ValueKey, _>` — enum dispatch, a clone, and a hash of a
//! wrapper per row. The kernels here work on the typed `Vec<Option<T>>`
//! storage directly: one pass builds a first-seen dictionary over
//! primitive keys, the (small) dictionary is sorted, and a dense `u32`
//! code per row is remapped into final group ids. A string column
//! already *is* a dictionary plus codes ([`StrColumn`]), so it skips the
//! hashing pass: sort its dictionary, remap its codes — or copy them,
//! when the dictionary is already in key order and no row is NULL.
//!
//! [`GroupCodes::to_group_by`] turns the codes into the pipelines'
//! grouping in one more word-major pass: each 64-row word ORs its rows
//! into a mask per group it touches, and those masks are the groups'
//! `(word, mask)` runs.
//!
//! The output contract is *byte-identical* to the legacy path:
//!
//! * group ids are dense `0..num_groups`, ascending by the group key's
//!   total order with NULL first (floats order by IEEE total-order bits,
//!   so distinct NaN payloads are distinct groups, exactly like
//!   [`Value::sort_key`]);
//! * row ids within a group are in ascending row order;
//! * group keys are the owned [`Value`]s a per-cell scan would have
//!   produced.
//!
//! [`GroupCodes`] is also the substrate for one-hot feature encoding in
//! `expred-ml`: the per-row code replaces a per-cell heap `String`, and
//! the dictionary is rendered to strings once per *distinct* value.

use crate::column::{Column, StrColumn};
use crate::table::GroupBy;
use crate::value::{total_order_bits, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Dense per-row group codes plus the sorted key dictionary.
///
/// Codes are dense `0..num_groups()` and ordered ascending by key with
/// NULL first: if the column has any NULL, code 0 is the NULL group and
/// `keys()[0]` is [`Value::Null`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCodes {
    codes: Vec<u32>,
    keys: Vec<Value>,
}

impl GroupCodes {
    /// One dense group id per row, in row order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The group keys, ascending by total order (NULL first if present).
    /// `keys()[code]` is the key of the rows carrying `code`.
    pub fn keys(&self) -> &[Value] {
        &self.keys
    }

    /// Number of distinct groups (NULL counts as one group if present).
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Number of rows encoded.
    pub fn num_rows(&self) -> usize {
        self.codes.len()
    }

    /// Whether group 0 is the NULL group.
    pub fn has_null(&self) -> bool {
        matches!(self.keys.first(), Some(Value::Null))
    }

    /// The grouping the pipelines read, labelled with `column`: every
    /// group's `(word, mask)` runs, built in one word-major pass over the
    /// codes — no row list is made. Equals the legacy
    /// [`Table::group_by`](crate::table::Table::group_by) output exactly.
    pub fn to_group_by(&self, column: &str) -> GroupBy {
        GroupBy::from_codes(column, self.keys.clone(), &self.codes)
    }
}

/// Shared dictionary-encoding loop: `cells` yields one `Option<T>` per
/// row; `key_of` maps a value to a hashable, `Ord` primitive key (the
/// sort order of the final codes); `into_value` recovers the owned
/// [`Value`] for the dictionary. NULL takes provisional code 0 and sorts
/// first; non-NULL values are coded in first-seen order, then remapped to
/// key-sorted dense ids.
fn dictionary_codes<T, K>(
    cells: impl Iterator<Item = Option<T>>,
    len: usize,
    key_of: impl Fn(&T) -> K,
    into_value: impl Fn(T) -> Value,
) -> GroupCodes
where
    K: Ord + std::hash::Hash + Eq,
{
    let mut provisional: Vec<u32> = Vec::with_capacity(len);
    let mut dict: HashMap<K, u32> = HashMap::new();
    // Provisional code -> representative value (code 0 = NULL, so
    // representatives are offset by one).
    let mut reps: Vec<T> = Vec::new();
    let mut saw_null = false;
    for cell in cells {
        let code = match cell {
            None => {
                saw_null = true;
                0
            }
            Some(x) => match dict.entry(key_of(&x)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(slot) => {
                    let c = reps.len() as u32 + 1;
                    slot.insert(c);
                    reps.push(x);
                    c
                }
            },
        };
        provisional.push(code);
    }
    // Sort the distinct non-NULL values by key; the dictionary is tiny
    // relative to the row count, so this is the cheap part.
    let mut order: Vec<u32> = (0..reps.len() as u32).collect();
    order.sort_by(|&a, &b| key_of(&reps[a as usize]).cmp(&key_of(&reps[b as usize])));
    // Remap provisional codes to final dense, key-sorted ids (NULL first).
    let base = saw_null as u32;
    let mut remap = vec![0u32; reps.len() + 1];
    for (rank, &prov) in order.iter().enumerate() {
        remap[prov as usize + 1] = rank as u32 + base;
    }
    let codes: Vec<u32> = provisional.into_iter().map(|c| remap[c as usize]).collect();
    let mut keys = Vec::with_capacity(reps.len() + base as usize);
    if saw_null {
        keys.push(Value::Null);
    }
    let mut slots: Vec<Option<T>> = reps.into_iter().map(Some).collect();
    for &prov in &order {
        let rep = slots[prov as usize].take().expect("each rep moved once");
        keys.push(into_value(rep));
    }
    GroupCodes { codes, keys }
}

impl Column {
    /// Dictionary-encodes the column into dense group codes plus a
    /// key-sorted dictionary, straight from the typed vectors — no
    /// per-cell [`Value`] materialization. See [`GroupCodes`] for the
    /// ordering contract.
    pub fn group_codes(&self) -> GroupCodes {
        match self {
            Column::Bool(v) => dictionary_codes(v.iter().copied(), v.len(), |b| *b, Value::Bool),
            Column::Int(v) => dictionary_codes(v.iter().copied(), v.len(), |i| *i, Value::Int),
            Column::Float(v) => dictionary_codes(
                v.iter().copied(),
                v.len(),
                |f| total_order_bits(*f),
                Value::Float,
            ),
            Column::Str(v) => str_codes(v),
        }
    }
}

/// [`dictionary_codes`] for a column that is stored dictionary-encoded:
/// rank the (few) distinct strings, then remap every row's code in one
/// pass — no cell is hashed or compared.
fn str_codes(column: &StrColumn) -> GroupCodes {
    let (order, rank) = column.dictionary_order();
    let has_null = column.null_count() > 0;
    let remap: Vec<u32> = rank.iter().map(|r| r + has_null as u32).collect();
    // A dictionary stored in key order without NULLs (a generated
    // predictor's) keeps its codes: a copy, not a pass.
    let in_order = (0..).zip(&remap).all(|(code, &to)| to == code);
    let codes = if in_order && !has_null {
        column.codes().to_vec()
    } else {
        // NULL's code lies past every dictionary entry, so the one bounds
        // check also sends NULL rows to group 0.
        column
            .codes()
            .iter()
            .map(|&code| remap.get(code as usize).copied().unwrap_or(0))
            .collect()
    };
    let entries = column.dictionary();
    let keys = has_null
        .then_some(Value::Null)
        .into_iter()
        .chain(
            order
                .iter()
                .map(|&code| Value::Str(entries[code as usize].to_string())),
        )
        .collect();
    GroupCodes { codes, keys }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn column_of(data_type: DataType, values: Vec<Value>) -> Column {
        let mut c = Column::empty(data_type);
        for v in values {
            c.push(v).unwrap();
        }
        c
    }

    #[test]
    fn int_codes_sort_with_null_first() {
        let c = column_of(
            DataType::Int,
            vec![
                Value::Int(5),
                Value::Null,
                Value::Int(-2),
                Value::Int(5),
                Value::Int(0),
            ],
        );
        let gc = c.group_codes();
        assert_eq!(
            gc.keys(),
            &[Value::Null, Value::Int(-2), Value::Int(0), Value::Int(5)]
        );
        assert_eq!(gc.codes(), &[3, 0, 1, 3, 2]);
        assert!(gc.has_null());
        assert_eq!(gc.num_groups(), 4);
        assert_eq!(gc.num_rows(), 5);
    }

    #[test]
    fn str_codes_sort_lexicographically() {
        let c = column_of(
            DataType::Str,
            vec![Value::from("b"), Value::from("a"), Value::from("b")],
        );
        let gc = c.group_codes();
        assert_eq!(gc.keys(), &[Value::from("a"), Value::from("b")]);
        assert_eq!(gc.codes(), &[1, 0, 1]);
        assert!(!gc.has_null());
    }

    #[test]
    fn float_codes_follow_total_order() {
        // -0.0 < 0.0 in total order, and NaN sorts above +inf.
        let c = column_of(
            DataType::Float,
            vec![
                Value::Float(f64::NAN),
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(f64::NEG_INFINITY),
            ],
        );
        let gc = c.group_codes();
        assert_eq!(gc.codes(), &[3, 2, 1, 0]);
        assert_eq!(gc.keys()[0], Value::Float(f64::NEG_INFINITY));
        assert!(gc.keys()[3].as_float().unwrap().is_nan());
    }

    #[test]
    fn to_group_by_round_trips() {
        let c = column_of(
            DataType::Int,
            vec![Value::Int(1), Value::Int(2), Value::Int(1)],
        );
        let g = c.group_codes().to_group_by("a");
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.rows(0).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(g.rows(1).collect::<Vec<_>>(), [1]);
        assert_eq!(g.key(0), &Value::Int(1));
    }

    #[test]
    fn empty_column_yields_no_groups() {
        let gc = Column::empty(DataType::Bool).group_codes();
        assert_eq!(gc.num_groups(), 0);
        assert_eq!(gc.num_rows(), 0);
        let g = gc.to_group_by("b");
        assert_eq!(g.num_groups(), 0);
        assert_eq!(g.num_rows(), 0);
    }
}
