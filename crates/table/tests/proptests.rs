//! Property tests for the relation substrate.

use expred_table::csv::{read_csv, write_csv};
use expred_table::datasets::{all_specs, Dataset, DatasetSpec};
use expred_table::value::ValueKey;
use expred_table::{Column, ColumnStats, DataType, Field, GroupBy, Schema, Table, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A single nullable column of `values` as a table.
fn one_column_table(name: &str, data_type: DataType, values: Vec<Value>) -> Table {
    let schema = Schema::new(vec![Field::nullable(name, data_type)]);
    Table::from_rows(schema, values.into_iter().map(|v| vec![v]).collect()).unwrap()
}

/// The per-[`Value`] group-by `Table::group_by` replaced, as the scalar
/// reference the kernel path must match: an owned value per cell,
/// bucketed through a `HashMap<ValueKey, _>`, groups in key order.
fn group_by_reference(table: &Table, column: &str) -> GroupBy {
    let col = table.column(column).expect("the column exists");
    let keys_owned: Vec<Value> = (0..table.num_rows()).map(|r| col.value(r)).collect();
    let mut buckets: HashMap<ValueKey<'_>, Vec<u32>> = HashMap::new();
    for (row, key) in keys_owned.iter().enumerate() {
        buckets.entry(key.sort_key()).or_default().push(row as u32);
    }
    let mut entries: Vec<(ValueKey<'_>, Vec<u32>)> = buckets.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let (keys, rows) = entries
        .into_iter()
        .map(|(_, group_rows)| (keys_owned[group_rows[0] as usize].clone(), group_rows))
        .unzip();
    GroupBy::new(column.to_owned(), keys, rows, table.num_rows())
}

/// One row of [`memo_table`]: `g`, and a label that is NULL for flag 0
/// and true for odd flags.
fn memo_row((g, flag): (i64, u8)) -> Vec<Value> {
    let ok = match flag {
        0 => Value::Null,
        _ => Value::Bool(flag % 2 == 1),
    };
    vec![Value::Int(g), ok]
}

/// An Int column `g` and a nullable Bool column `ok`.
fn memo_table(rows: &[(i64, u8)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::nullable("ok", DataType::Bool),
    ]);
    Table::from_rows(schema, rows.iter().map(|&row| memo_row(row)).collect()).unwrap()
}

/// Holds every memoized artifact of `table` to its reference, twice: the
/// second lookup must serve the first's `Arc`.
fn assert_memo_matches(table: &Table) -> Result<(), TestCaseError> {
    let (g, ok) = (table.column("g").unwrap(), table.column("ok").unwrap());
    for _ in 0..2 {
        prop_assert_eq!(
            table.partition("g", None).unwrap(),
            Arc::new(group_by_reference(table, "g"))
        );
        prop_assert_eq!(table.codes("g", None).unwrap(), Arc::new(g.group_codes()));
        prop_assert_eq!(table.true_rows("ok", None), ok.true_rows().map(Arc::new));
        prop_assert_eq!(table.column_stats("g"), Some(Arc::new(ColumnStats::of(g))));
        prop_assert_eq!(
            table.column_stats("ok"),
            Some(Arc::new(ColumnStats::of(ok)))
        );
    }
    prop_assert!(Arc::ptr_eq(
        &table.partition("g", None).unwrap(),
        &table.partition("g", None).unwrap()
    ));
    Ok(())
}

/// Structural grouping equality that treats NaN keys by their bit-level
/// sort key (derived `PartialEq` on `Value::Float(NaN)` is always false,
/// which would make NaN-keyed groupings incomparable).
fn same_grouping(a: &GroupBy, b: &GroupBy) -> bool {
    a.column() == b.column()
        && a.num_rows() == b.num_rows()
        && a.num_groups() == b.num_groups()
        && (0..a.num_groups())
            .all(|g| a.key(g).sort_key() == b.key(g).sort_key() && a.rows(g).eq(b.rows(g)))
}

/// Holds `got` to `want` view by view — keys, sizes, runs, the row
/// iterator, the row plane — so a failure names the view that broke.
fn assert_same_views(got: &GroupBy, want: &GroupBy) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.column(), want.column());
    prop_assert_eq!(got.num_rows(), want.num_rows());
    prop_assert_eq!(got.num_groups(), want.num_groups());
    prop_assert_eq!(got.sizes(), want.sizes());
    for g in 0..want.num_groups() {
        prop_assert_eq!(got.key(g).sort_key(), want.key(g).sort_key(), "key {}", g);
        prop_assert_eq!(got.size(g), want.size(g), "size {}", g);
        let runs = |grouping: &GroupBy| grouping.runs(g).collect::<Vec<_>>();
        prop_assert_eq!(runs(got), runs(want), "runs of group {}", g);
        let rows = |grouping: &GroupBy| grouping.rows(g).collect::<Vec<_>>();
        prop_assert_eq!(rows(got), rows(want), "rows of group {}", g);
    }
    prop_assert_eq!(got.row_plane(), want.row_plane());
    Ok(())
}

/// The `HashSet` count [`Column::distinct_count`] replaced, kept as its
/// oracle: every non-NULL cell hashed (floats by bit pattern, strings
/// cell by cell rather than through the dictionary).
fn hash_set_distinct(column: &Column) -> usize {
    use std::collections::HashSet;
    match column {
        Column::Bool(v) => v.iter().flatten().collect::<HashSet<_>>().len(),
        Column::Int(v) => v.iter().flatten().collect::<HashSet<_>>().len(),
        Column::Float(v) => v
            .iter()
            .flatten()
            .map(|f| f.to_bits())
            .collect::<HashSet<_>>()
            .len(),
        Column::Str(v) => (0..v.len())
            .filter_map(|row| v.get(row))
            .collect::<HashSet<_>>()
            .len(),
    }
}

/// Decodes a small index into a float drawn from a set that stresses the
/// grouping kernel's total-order contract: signed zeros, infinities, and
/// two distinct NaN payloads.
fn float_from_index(i: u8) -> f64 {
    match i % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => 1.5,
        3 => -3.25,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => f64::NAN,
        _ => f64::from_bits(f64::NAN.to_bits() | 1), // distinct NaN payload
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn group_by_partitions_every_row(values in prop::collection::vec(0i64..6, 1..300)) {
        let schema = Schema::new(vec![Field::new("g", DataType::Int)]);
        let rows: Vec<Vec<Value>> = values.iter().map(|&v| vec![Value::Int(v)]).collect();
        let table = Table::from_rows(schema, rows).unwrap();
        let groups = table.group_by("g").unwrap();
        // Partition: every row exactly once.
        let mut seen = vec![false; values.len()];
        for g in 0..groups.num_groups() {
            for r in groups.rows(g) {
                prop_assert!(!seen[r as usize], "row {r} in two groups");
                seen[r as usize] = true;
                prop_assert_eq!(&Value::Int(values[r as usize]), groups.key(g));
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Keys sorted ascending.
        for w in (0..groups.num_groups()).collect::<Vec<_>>().windows(2) {
            prop_assert!(groups.key(w[0]).sort_key() < groups.key(w[1]).sort_key());
        }
    }

    #[test]
    fn csv_round_trip_arbitrary_strings(cells in prop::collection::vec("[ -~]{0,12}", 1..40)) {
        // Printable-ASCII strings (commas, quotes and all) must survive a
        // write/read cycle. Empty strings become NULL by the format's
        // convention, so map them away.
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]);
        let rows: Vec<Vec<Value>> = cells
            .iter()
            .map(|c| {
                let c = if c.is_empty() { "_" } else { c.as_str() };
                vec![Value::Str(c.to_owned())]
            })
            .collect();
        let table = Table::from_rows(schema, rows).unwrap();
        let mut buf = Vec::new();
        write_csv(&table, &mut buf).unwrap();
        let back = read_csv(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.num_rows(), table.num_rows());
        for r in 0..table.num_rows() {
            // Numeric-looking strings may re-infer as numbers; compare via
            // display form, which is inference-invariant.
            prop_assert_eq!(
                back.column_at(0).value(r).to_string(),
                table.column_at(0).value(r).to_string()
            );
        }
    }

    #[test]
    fn dataset_clones_calibrate_across_seeds(seed in 0u64..30, which in 0usize..4) {
        let spec = all_specs()[which];
        // Shrink for speed while keeping calibration checkable.
        let spec = DatasetSpec { rows: spec.rows / 4, ..spec };
        let ds = Dataset::generate(spec, seed);
        let stats = ds.group_stats(spec.predictor);
        prop_assert_eq!(ds.table.num_rows(), spec.rows);
        prop_assert_eq!(stats.num_groups, spec.groups);
        prop_assert!(
            (stats.overall_selectivity - spec.selectivity).abs() < 0.03,
            "{}: selectivity {} vs {}",
            spec.name,
            stats.overall_selectivity,
            spec.selectivity
        );
        // Correlation sign must match the paper's.
        if spec.size_sel_corr.abs() > 0.3 {
            prop_assert_eq!(
                stats.size_sel_corr.signum(),
                spec.size_sel_corr.signum(),
                "{}: corr {} vs {}",
                spec.name,
                stats.size_sel_corr,
                spec.size_sel_corr
            );
        }
    }

    #[test]
    fn kernel_group_by_matches_reference_int(cells in prop::collection::vec((0u8..10, -5i64..5), 0..300)) {
        // ~10% NULLs mixed into a small integer domain.
        let values: Vec<Value> = cells
            .iter()
            .map(|&(null, v)| if null == 0 { Value::Null } else { Value::Int(v) })
            .collect();
        let t = one_column_table("g", DataType::Int, values);
        prop_assert_eq!(t.group_by("g").unwrap(), group_by_reference(&t, "g"));
    }

    #[test]
    fn kernel_group_by_matches_reference_float(cells in prop::collection::vec(0u8..9, 0..300)) {
        // Index 8 is NULL; 0..8 covers zeros, infinities, and two NaN
        // payloads (which the reference groups as *distinct* keys).
        let values: Vec<Value> = cells
            .iter()
            .map(|&i| if i == 8 { Value::Null } else { Value::Float(float_from_index(i)) })
            .collect();
        let t = one_column_table("g", DataType::Float, values);
        prop_assert!(same_grouping(
            &t.group_by("g").unwrap(),
            &group_by_reference(&t, "g")
        ));
    }

    #[test]
    fn kernel_group_by_matches_reference_str(cells in prop::collection::vec("[a-c]{0,3}", 0..200)) {
        let values: Vec<Value> = cells
            .iter()
            .map(|c| if c.is_empty() { Value::Null } else { Value::Str(c.clone()) })
            .collect();
        let t = one_column_table("g", DataType::Str, values);
        prop_assert_eq!(t.group_by("g").unwrap(), group_by_reference(&t, "g"));
        // All NULL: an empty dictionary, every row in the NULL group.
        let t = one_column_table("g", DataType::Str, vec![Value::Null; cells.len()]);
        prop_assert_eq!(t.group_by("g").unwrap(), group_by_reference(&t, "g"));
    }

    #[test]
    fn kernel_group_by_matches_reference_bool(cells in prop::collection::vec(0u8..3, 0..200)) {
        let values: Vec<Value> = cells
            .iter()
            .map(|&i| match i { 0 => Value::Null, 1 => Value::Bool(false), _ => Value::Bool(true) })
            .collect();
        let t = one_column_table("g", DataType::Bool, values);
        prop_assert_eq!(t.group_by("g").unwrap(), group_by_reference(&t, "g"));
    }

    #[test]
    fn to_group_by_matches_the_reference_on_every_view(
        cells in prop::collection::vec(0u8..41, 0..300),
        groups in 1u8..41,
        nulls in any::<bool>(),
    ) {
        // Up to 40 groups over lengths that are rarely a multiple of 64;
        // with `nulls`, one value in `groups + 1` is a NULL group.
        let values: Vec<Value> = cells
            .iter()
            .map(|&cell| match cell % (groups + u8::from(nulls)) {
                v if v == groups => Value::Null,
                v => Value::Int(i64::from(v)),
            })
            .collect();
        let t = one_column_table("g", DataType::Int, values);
        let got = t.group_by("g").unwrap();
        let want = group_by_reference(&t, "g");
        assert_same_views(&got, &want)?;
        prop_assert_eq!(got, want);
    }

    #[test]
    fn to_group_by_matches_the_reference_past_the_alphabet(
        groups in 27usize..41,
        extra in 0usize..260,
        seed in any::<u64>(),
    ) {
        // Grade labels wrap after `Z`, so groups 26.. share letters with
        // 0..: the string column has fewer groups than the plan.
        let spec = DatasetSpec { rows: groups + extra, groups, ..all_specs()[1] };
        let table = Dataset::generate(spec, seed).table;
        let got = table.group_by("grade").unwrap();
        prop_assert!(got.num_groups() <= 26);
        assert_same_views(&got, &group_by_reference(&table, "grade"))?;
    }

    #[test]
    fn true_rows_matches_the_flag_oracle(
        cells in prop::collection::vec(0u8..40, 0..300),
        // Past the column's end: no NULL.
        null_at in 0usize..450,
    ) {
        let mut labels: Vec<Option<bool>> = cells.iter().map(|&c| Some(c % 3 == 0)).collect();
        if let Some(label) = labels.get_mut(null_at) {
            *label = None;
        }
        let complete = labels.iter().all(Option::is_some);
        let oracle = complete.then(|| {
            expred_table::RowSet::from_flags(labels.iter().map(|&l| l == Some(true)))
        });
        prop_assert_eq!(Column::Bool(labels).true_rows(), oracle);
    }

    #[test]
    fn memo_tracks_diverging_clone_histories(
        base in prop::collection::vec((-3i64..3, 0u8..12), 1..40),
        extra_a in prop::collection::vec((-3i64..3, 0u8..12), 1..10),
        extra_b in prop::collection::vec((-3i64..3, 0u8..12), 1..10),
    ) {
        // Two clones of one table diverge by different push_row
        // histories, a row at a time in turn. At every step each serves
        // its own partition, codes, label plane and stats, and the base
        // keeps what it derived before the clones were taken.
        let t = memo_table(&base);
        let first = t.partition("g", None).unwrap();
        let (mut a, mut b) = (t.clone(), t.clone());
        prop_assert!(Arc::ptr_eq(&first, &a.partition("g", None).unwrap()));
        assert_memo_matches(&a)?;
        for step in 0..extra_a.len().max(extra_b.len()) {
            for (clone, extra) in [(&mut a, &extra_a), (&mut b, &extra_b)] {
                if let Some(&row) = extra.get(step) {
                    clone.push_row(memo_row(row)).unwrap();
                }
                assert_memo_matches(clone)?;
            }
        }
        prop_assert!(Arc::ptr_eq(&first, &t.partition("g", None).unwrap()));
        assert_memo_matches(&t)?;
    }

    #[test]
    fn from_rows_and_from_columns_agree_on_the_version(
        cells in prop::collection::vec((0u8..4, -3i64..4), 0..60),
    ) {
        // A float column fed a mix of floats, ints (widened on push) and
        // NULLs: one set of stored cells, one version, either constructor.
        let schema = || Schema::new(vec![Field::nullable("x", DataType::Float)]);
        let pushed: Vec<Value> = cells
            .iter()
            .map(|&(kind, i)| match kind {
                0 => Value::Null,
                1 => Value::Int(i),
                _ => Value::Float(i as f64 / 2.0),
            })
            .collect();
        let stored: Vec<Option<f64>> = pushed
            .iter()
            .map(|value| match value {
                Value::Int(i) => Some(*i as f64),
                Value::Float(f) => Some(*f),
                _ => None,
            })
            .collect();
        let by_rows = Table::from_rows(schema(), pushed.into_iter().map(|v| vec![v]).collect());
        let by_rows = by_rows.unwrap();
        let by_columns = Table::from_columns(schema(), vec![Column::Float(stored)]).unwrap();
        prop_assert_eq!(&by_rows, &by_columns);
        prop_assert_eq!(by_rows.version(), by_columns.version());
    }

    #[test]
    fn distinct_count_matches_naive(
        cells in prop::collection::vec((0u8..4, 0u8..2, -4i64..4, 0u8..8, "[ab]{0,2}"), 0..200),
    ) {
        // Selector 0 is a NULL in every column; floats include both zeros
        // and two NaN payloads, which count by bit pattern.
        let cell = |selector: u8, value: Value| if selector == 0 { Value::Null } else { value };
        let columns = [
            (DataType::Bool, cells.iter().map(|c| cell(c.0, Value::Bool(c.1 == 1))).collect::<Vec<_>>()),
            (DataType::Int, cells.iter().map(|c| cell(c.0, Value::Int(c.2))).collect()),
            (DataType::Float, cells.iter().map(|c| cell(c.0, Value::Float(float_from_index(c.3)))).collect()),
            (DataType::Str, cells.iter().map(|c| cell(c.0, Value::Str(c.4.clone()))).collect()),
        ];
        for (data_type, values) in columns {
            let table = one_column_table("v", data_type, values);
            let column = table.column_at(0);
            prop_assert_eq!(column.distinct_count(), hash_set_distinct(column), "{}", data_type);
        }
    }
}
