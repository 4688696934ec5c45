//! Property tests for the dictionary-encoded string column and the
//! columnar table constructor, each against the plainest possible model:
//! a `Vec<Option<String>>` for the column, `Table::from_rows` for the
//! table.

use expred_table::{Column, ColumnStats, DataType, Field, Schema, StrColumn, Table, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// `(selector, text)` pairs decoded into cells: selector 0 is NULL, and
/// the text alphabet yields duplicates, the empty string (which is *not*
/// NULL) and multi-byte characters.
fn cells_of(raw: &[(u8, String)]) -> Vec<Option<String>> {
    raw.iter()
        .map(|(selector, text)| (*selector != 0).then(|| text.clone()))
        .collect()
}

fn value_of(cell: &Option<String>) -> Value {
    cell.clone().map_or(Value::Null, Value::Str)
}

/// The column `push` builds from the cells, in row order.
fn pushed(cells: &[Option<String>]) -> Column {
    let mut column = Column::empty(DataType::Str);
    for cell in cells {
        column.push(value_of(cell)).unwrap();
    }
    column
}

/// The same cells behind a deliberately untidy dictionary: entries in
/// descending order, each twice, plus one no row carries.
fn from_untidy_dictionary(cells: &[Option<String>]) -> Column {
    let mut distinct: Vec<&String> = cells.iter().flatten().collect();
    distinct.sort_unstable_by(|a, b| b.cmp(a));
    distinct.dedup();
    let mut dictionary: Vec<String> = vec!["carried by no row".to_owned()];
    for entry in &distinct {
        dictionary.push((*entry).clone());
        dictionary.push((*entry).clone());
    }
    let codes = cells
        .iter()
        .enumerate()
        .map(|(row, cell)| match cell {
            None => StrColumn::NULL_CODE,
            Some(s) => {
                let first = 1 + 2 * distinct.iter().position(|entry| *entry == s).unwrap();
                (first + row % 2) as u32
            }
        })
        .collect();
    Column::Str(StrColumn::from_dictionary(&dictionary, codes).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn str_column_agrees_with_a_vec_model(
        raw in prop::collection::vec((0u8..6, "[abé日]{0,2}"), 0..120),
    ) {
        let cells = cells_of(&raw);
        let column = pushed(&cells);
        prop_assert_eq!(column.len(), cells.len());
        for (row, cell) in cells.iter().enumerate() {
            prop_assert_eq!(column.value(row), value_of(cell));
            prop_assert_eq!(column.str_at(row), cell.as_deref());
        }
        prop_assert_eq!(column.null_count(), cells.iter().filter(|c| c.is_none()).count());
        let distinct: HashSet<&String> = cells.iter().flatten().collect();
        prop_assert_eq!(column.distinct_count(), distinct.len());
    }

    #[test]
    fn equal_cells_are_equal_columns_whatever_the_dictionary(
        raw in prop::collection::vec((0u8..6, "[abé日]{0,2}"), 1..120),
        edit in 0usize..120,
    ) {
        let cells = cells_of(&raw);
        let (a, b) = (pushed(&cells), from_untidy_dictionary(&cells));
        if let (Column::Str(a), Column::Str(b)) = (&a, &b) {
            prop_assert_eq!(a.dictionary().len(), b.dictionary().len(), "tidied");
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &a);
        prop_assert_eq!(a.group_codes(), b.group_codes());
        prop_assert_eq!(ColumnStats::of(&a), ColumnStats::of(&b));
        prop_assert_eq!(a.distinct_count(), b.distinct_count());

        // One differing cell is a different column, from either side.
        let mut edited = cells.clone();
        let row = edit % cells.len();
        edited[row] = match &cells[row] {
            None => Some(String::new()),
            Some(_) => Some("not in the alphabet".to_owned()),
        };
        let c = from_untidy_dictionary(&edited);
        prop_assert!(a != c, "edited row {row} went unnoticed");
        prop_assert!(c != a, "edited row {row} went unnoticed from the other side");
    }

    #[test]
    fn from_columns_equals_from_rows(
        raw in prop::collection::vec(
            ((0u8..4, 0u8..2), (0u8..4, -3i64..3), (0u8..4, 0u8..6), (0u8..4, "[abé]{0,2}")),
            0..80,
        ),
    ) {
        let floats = [0.0, -0.0, 1.5, -3.25, f64::INFINITY, f64::NEG_INFINITY];
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::nullable("b", DataType::Bool),
            Field::nullable("i", DataType::Int),
            Field::nullable("f", DataType::Float),
            Field::nullable("s", DataType::Str),
        ]);
        let nullable = |selector: u8, value: Value| if selector == 0 { Value::Null } else { value };
        let rows: Vec<Vec<Value>> = raw
            .iter()
            .enumerate()
            .map(|(id, ((nb, b), (ni, i), (nf, f), (ns, s)))| {
                vec![
                    Value::Int(id as i64),
                    nullable(*nb, Value::Bool(*b == 1)),
                    nullable(*ni, Value::Int(*i)),
                    nullable(*nf, Value::Float(floats[*f as usize])),
                    nullable(*ns, Value::Str(s.clone())),
                ]
            })
            .collect();
        let column = |idx: usize| -> Vec<&Value> { rows.iter().map(|row| &row[idx]).collect() };
        let strings: Vec<Option<String>> =
            column(4).iter().map(|v| v.as_str().map(str::to_owned)).collect();
        let columns = vec![
            Column::Int(column(0).iter().map(|v| v.as_int()).collect()),
            Column::Bool(column(1).iter().map(|v| v.as_bool()).collect()),
            Column::Int(column(2).iter().map(|v| v.as_int()).collect()),
            Column::Float(column(3).iter().map(|v| v.as_float()).collect()),
            from_untidy_dictionary(&strings),
        ];
        let by_columns = Table::from_columns(schema.clone(), columns).unwrap();
        let by_rows = Table::from_rows(schema, rows).unwrap();
        prop_assert_eq!(&by_columns, &by_rows);
        prop_assert_eq!(by_columns.version(), by_rows.version());
    }
}

#[test]
fn a_pushed_clone_diverges_alone() {
    let schema = Schema::new(vec![Field::nullable("s", DataType::Str)]);
    let rows = ["x", "y", "x"].map(|s| vec![Value::from(s)]).to_vec();
    let original = Table::from_rows(schema, rows).unwrap();
    let before = (original.version(), original.clone());

    let mut clone = original.clone();
    // One string the dictionary has, one it has not, one NULL.
    for cell in [Value::from("y"), Value::from("z"), Value::Null] {
        clone.push_row(vec![cell]).unwrap();
    }
    assert_eq!(clone.num_rows(), 6);
    assert_eq!(clone.column_at(0).distinct_count(), 3);
    assert_eq!(clone.column_at(0).str_at(4), Some("z"));
    assert_eq!(clone.column_at(0).null_count(), 1);

    assert_eq!(original.num_rows(), 3, "the original kept its rows");
    assert_eq!(original.column_at(0).distinct_count(), 2);
    assert_eq!(original.column_at(0).null_count(), 0);
    assert_eq!(original.version(), before.0);
    assert_eq!(original, before.1);
    assert_ne!(original, clone);
    assert_ne!(original.version(), clone.version());
}

#[test]
fn fifty_thousand_distinct_strings_round_trip() {
    // Interning is a hash lookup: a dictionary scan per push would make
    // this 1.25 billion string comparisons.
    let n = 50_000;
    let mut column = Column::empty(DataType::Str);
    for i in 0..n {
        column.push(Value::Str(format!("customer-{i}"))).unwrap();
    }
    assert_eq!(column.len(), n);
    assert_eq!(column.distinct_count(), n);
    for i in (0..n).step_by(97) {
        assert_eq!(column.str_at(i), Some(format!("customer-{i}").as_str()));
    }
    let groups = column.group_codes();
    assert_eq!(groups.num_groups(), n);
    assert_eq!(groups.keys()[0], Value::from("customer-0"));
}
