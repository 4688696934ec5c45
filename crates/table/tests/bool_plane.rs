//! A boolean column is its bit planes: the rows where it is true, behind
//! an `Arc`, and the rows where it is NULL, only when one is. These
//! tests hold the planes to what a cell-per-row column gave: a table's
//! version is pinned at the values the `Vec<Option<bool>>` storage
//! folded, and [`Column::true_rows`] serves the one shared plane.

use expred_table::csv::read_csv;
use expred_table::datasets::{all_specs, Dataset, DatasetSpec};
use expred_table::{Column, DataType, Field, RowSet, Schema, Table, Value};
use std::sync::Arc;

/// A CSV table whose `ok` column is boolean with a NULL cell.
const CSV_WITH_A_NULL_BOOL: &str = "id,ok,name\n1,true,a\n2,,b\n3,false,\n4,true,a\n";

#[test]
fn versions_are_those_of_a_cell_per_row_column() {
    // Harvested from the `Vec<Option<bool>>` storage, per spec: the
    // recipe's version, and the content version of the same cells built
    // column by column (which folds every label cell).
    let pinned: [(&str, u64, u64); 4] = [
        ("lc", 0x77cf_7294_cb5c_6339, 0xa387_c375_6144_9751),
        ("prosper", 0x9961_db1f_c227_9943, 0x660b_f7c0_e257_b1df),
        ("census", 0x7a39_8b06_9e88_c48f, 0x28fe_d558_facb_b105),
        ("marketing", 0x1add_400b_d88a_1ff5, 0xf792_fb56_74b0_ee2b),
    ];
    for (spec, (name, recipe, content)) in all_specs().into_iter().zip(pinned) {
        assert_eq!(spec.name, name);
        let table = Dataset::generate(
            DatasetSpec {
                rows: 2_000,
                ..spec
            },
            7,
        )
        .table;
        assert_eq!(table.version(), recipe, "{name}'s recipe");
        assert_eq!(rebuilt(&table).version(), content, "{name}'s cells");
    }
    let csv = read_csv(CSV_WITH_A_NULL_BOOL.as_bytes()).unwrap();
    let ok = csv.column("ok").unwrap();
    assert_eq!((ok.data_type(), ok.null_count()), (DataType::Bool, 1));
    assert_eq!(csv.version(), 0xe8a3_6428_413b_b12f);
    assert_eq!(rebuilt(&csv).version(), csv.version(), "by columns");
}

/// `table`'s cells, built again column by column.
fn rebuilt(table: &Table) -> Table {
    let columns = (0..table.num_columns())
        .map(|idx| table.column_at(idx).clone())
        .collect();
    Table::from_columns(table.schema().clone(), columns).unwrap()
}

#[test]
fn true_rows_is_the_one_shared_plane_of_each_table_state() {
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
    let truth = |t: &Table| t.column("ok").and_then(Column::true_rows).cloned();
    let a = truth(&t).unwrap();
    assert!(Arc::ptr_eq(&a, &truth(&t).unwrap()), "repeat reads share");
    assert!(Arc::ptr_eq(&a, &truth(&t.clone()).unwrap()), "so do clones");
    assert_eq!(a.to_vec(), [0, 2]);
    // Not a boolean column, or no column: no plane.
    assert!(t.column("a").and_then(Column::true_rows).is_none());
    assert!(t.column("nope").and_then(Column::true_rows).is_none());
    // A pushed row extends the plane; a held plane is not rewritten.
    t.push_row(row(4, Value::Bool(true))).unwrap();
    assert_eq!(truth(&t).unwrap().to_vec(), [0, 2, 3]);
    assert_eq!(a.to_vec(), [0, 2]);
    // A NULL label is no plane.
    t.push_row(row(5, Value::Null)).unwrap();
    assert!(truth(&t).is_none());
    assert_eq!(t.column("ok").unwrap().null_count(), 1);
}

#[test]
fn pushed_cells_read_back_across_word_edges() {
    let cell = |row: usize| match row % 7 {
        0 => None,
        r => Some(r % 2 == 1),
    };
    for rows in [0, 1, 63, 64, 65, 128, 130] {
        let mut column = Column::empty(DataType::Bool);
        for row in 0..rows {
            column
                .push(cell(row).map_or(Value::Null, Value::Bool))
                .unwrap();
        }
        let collected = Column::Bool((0..rows).map(cell).collect());
        assert_eq!(column, collected, "{rows} rows");
        assert_eq!(column.len(), rows);
        for row in 0..rows {
            assert_eq!(column.bool_at(row), cell(row), "row {row} of {rows}");
            assert_eq!(
                column.value(row),
                cell(row).map_or(Value::Null, Value::Bool)
            );
        }
        let nulls = (0..rows).filter(|&row| cell(row).is_none()).count();
        assert_eq!(column.null_count(), nulls);
        let complete = Column::Bool((0..rows).map(|row| Some(cell(row) == Some(true))).collect());
        let want = RowSet::from_flags((0..rows).map(|row| cell(row) == Some(true)));
        assert_eq!(complete.true_rows().map(|plane| &**plane), Some(&want));
        assert_eq!(column.true_rows().is_none(), nulls > 0);
    }
}
