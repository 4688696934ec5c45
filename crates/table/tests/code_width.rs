//! Property tests for the width rule of a string column's codes: a
//! dictionary of up to 255 entries is stored a byte per row, up to 65 535
//! two bytes a row, beyond that four, and `push` widens the codes in
//! place as the dictionary grows. Every column here is held to a `u32`
//! reference column — the one-width storage the rule replaced — cell for
//! cell and in everything read off the codes, over push sequences whose
//! dictionaries cross the 255th and the 65 535th entry with NULLs mixed
//! in. Nothing hashes a code, so a table's version is pinned at the value
//! the one-width storage gave.

use expred_stats::Prng;
use expred_table::column::Code;
use expred_table::csv::read_csv;
use expred_table::{Column, DataType, Field, Schema, StrColumn, Table, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// The `i`-th distinct string of a push sequence: first-seen order is not
/// sorted order, so the group codes are a real remap.
fn text(i: usize) -> String {
    format!("s{:08x}", (i as u32).wrapping_mul(0x9e37_79b9))
}

/// A push sequence bringing in `distinct` strings, each first pushed in
/// turn, with a NULL or a repeat of an earlier string in place of the
/// next new one at `nulls` and `repeats` in 256 pushes.
fn push_sequence(distinct: usize, nulls: u64, repeats: u64, seed: u64) -> Vec<Option<String>> {
    let mut rng = Prng::seeded(seed);
    let mut cells = Vec::new();
    let mut seen = 0;
    while seen < distinct {
        let roll = rng.below(256) as u64;
        if roll < nulls {
            cells.push(None);
        } else if roll < nulls + repeats && seen > 0 {
            cells.push(Some(text(rng.below(seen))));
        } else {
            cells.push(Some(text(seen)));
            seen += 1;
        }
    }
    cells
}

/// The reference: one `u32` code per row into a first-seen dictionary,
/// NULL as `u32::MAX`.
#[derive(Default)]
struct Reference {
    codes: Vec<u32>,
    dictionary: Vec<String>,
    index: HashMap<String, u32>,
}

impl Reference {
    fn push(&mut self, cell: Option<&str>) {
        let code = match cell {
            None => u32::MAX,
            Some(s) => *self.index.entry(s.to_owned()).or_insert_with(|| {
                self.dictionary.push(s.to_owned());
                self.dictionary.len() as u32 - 1
            }),
        };
        self.codes.push(code);
    }

    fn cell(&self, row: usize) -> Option<&str> {
        self.dictionary
            .get(self.codes[row] as usize)
            .map(String::as_str)
    }

    fn cells(&self) -> Vec<Option<&str>> {
        (0..self.codes.len()).map(|row| self.cell(row)).collect()
    }

    fn null_count(&self) -> usize {
        self.codes.iter().filter(|&&code| code == u32::MAX).count()
    }

    /// Dense group ids, NULL first and then the strings ascending, and the
    /// group keys.
    fn group_codes(&self) -> (Vec<u32>, Vec<Value>) {
        let mut order: Vec<usize> = (0..self.dictionary.len()).collect();
        order.sort_by(|&a, &b| self.dictionary[a].cmp(&self.dictionary[b]));
        let has_null = self.null_count() > 0;
        let mut rank = vec![0u32; order.len()];
        for (position, &code) in order.iter().enumerate() {
            rank[code] = position as u32 + u32::from(has_null);
        }
        let codes = self
            .codes
            .iter()
            .map(|&code| rank.get(code as usize).copied().unwrap_or(0))
            .collect();
        let keys = has_null
            .then_some(Value::Null)
            .into_iter()
            .chain(
                order
                    .iter()
                    .map(|&code| Value::Str(self.dictionary[code].clone())),
            )
            .collect();
        (codes, keys)
    }

    /// The column these codes and this dictionary build, given at `u32`.
    fn column(&self, codes: Vec<u32>) -> StrColumn {
        StrColumn::from_dictionary(&self.dictionary, codes).unwrap()
    }
}

/// Holds the column `push` builds from `cells` to the reference.
fn check_push_sequence(cells: &[Option<String>], edit: usize) -> Result<(), TestCaseError> {
    let mut column = StrColumn::default();
    let mut reference = Reference::default();
    for cell in cells {
        column.push(cell.as_deref());
        reference.push(cell.as_deref());
    }
    prop_assert_eq!(column.len(), cells.len());
    for (row, cell) in cells.iter().enumerate() {
        prop_assert_eq!(column.get(row), cell.as_deref(), "row {}", row);
    }
    prop_assert_eq!(column.null_count(), reference.null_count());
    prop_assert_eq!(format!("{column:?}"), format!("{:?}", reference.cells()));
    let column = Column::Str(column);
    prop_assert_eq!(column.distinct_count(), reference.dictionary.len());
    prop_assert_eq!(column.null_count(), reference.null_count());
    let groups = column.group_codes();
    let (codes, keys) = reference.group_codes();
    prop_assert_eq!(groups.codes(), &codes[..]);
    prop_assert_eq!(groups.keys(), &keys[..]);

    // The same cells from `u32` codes, narrowed to the dictionary's width,
    // and behind a reversed dictionary: equal, from either side.
    let given = Column::Str(reference.column(reference.codes.clone()));
    prop_assert_eq!(&given, &column);
    let last = reference.dictionary.len().saturating_sub(1) as u32;
    let reversed: Vec<String> = reference.dictionary.iter().rev().cloned().collect();
    let codes = reference
        .codes
        .iter()
        .map(|&code| if code == u32::MAX { code } else { last - code })
        .collect();
    let reversed = Column::Str(StrColumn::from_dictionary(&reversed, codes).unwrap());
    prop_assert_eq!(&reversed, &column);
    prop_assert_eq!(&column, &reversed);

    // One cell made NULL, or made another entry's: a different column.
    if !cells.is_empty() {
        let row = edit % cells.len();
        let (code, entries) = (reference.codes[row], reference.dictionary.len() as u32);
        let mut edits = vec![u32::MAX];
        if entries > 0 {
            edits.push(code.wrapping_add(1) % entries);
        }
        for to in edits.into_iter().filter(|&to| to != code) {
            let mut codes = reference.codes.clone();
            codes[row] = to;
            let edited = Column::Str(reference.column(codes));
            prop_assert!(edited != column, "row {} made {} went unnoticed", row, to);
            prop_assert!(column != edited, "row {} made {} went unnoticed", row, to);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pushed_columns_agree_with_a_u32_reference_across_widths(
        scale in 0u8..64,
        offset in 0usize..12,
        small in 0usize..300,
        nulls in 0u64..48,
        repeats in 0u64..160,
        seed in any::<u64>(),
        edit in any::<usize>(),
    ) {
        // One sequence in 64 crosses the 65 535th entry (the costly
        // ones: 65 000 strings interned five times over), twenty cross
        // the 255th, the rest stay anywhere up to 300 entries.
        let distinct = match scale {
            0 => 65_530 + offset,
            1..=20 => 250 + offset,
            _ => small,
        };
        check_push_sequence(&push_sequence(distinct, nulls, repeats, seed), edit)?;
    }
}

#[test]
fn both_widenings_keep_every_cell() {
    // NULLs before, at and after each widening, and every entry repeated
    // after the last.
    let cells = push_sequence(65_600, 32, 64, 59);
    check_push_sequence(&cells, 65_536).unwrap();
    check_push_sequence(&cells[..300], 255).unwrap();
}

#[test]
fn table_versions_are_those_of_u32_codes() {
    // Harvested from the one-width (`u32`) storage: a table's version
    // folds each cell's string, never its code. A CSV of the same cells
    // infers the same schema, so it folds to the same version.
    let pinned = [
        (200, 0x977c_d976_5444_203d),
        (300, 0x9055_d15e_605c_9091),
        (70_000, 0xad83_0e56_9feb_5347),
    ];
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::nullable("s", DataType::Str),
    ]);
    for (distinct, version) in pinned {
        let cells = push_sequence(distinct, 24, 96, distinct as u64);
        let rows = cells
            .iter()
            .enumerate()
            .map(|(id, cell)| {
                let cell = cell.clone().map_or(Value::Null, Value::Str);
                vec![Value::Int(id as i64), cell]
            })
            .collect();
        let table = Table::from_rows(schema.clone(), rows).unwrap();
        let mut csv = String::from("id,s\n");
        for (id, cell) in cells.iter().enumerate() {
            csv += &format!("{id},{}\n", cell.as_deref().unwrap_or(""));
        }
        let read = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(read.column("s").unwrap().data_type(), DataType::Str);
        assert_eq!(table.version(), version, "{distinct} distinct strings");
        assert_eq!(
            read.version(),
            version,
            "{distinct} distinct strings, by CSV"
        );
    }
}

#[test]
fn the_null_code_is_the_width_maximum() {
    assert_eq!(<u8 as Code>::NULL, u8::MAX);
    assert_eq!(<u16 as Code>::NULL, u16::MAX);
    assert_eq!(<u32 as Code>::NULL, u32::MAX);
    // A NULL given at any width is a NULL cell.
    let column = StrColumn::from_dictionary(&["a"], vec![0u16, u16::MAX]).unwrap();
    assert_eq!((column.get(0), column.get(1)), (Some("a"), None));
    assert!(StrColumn::from_dictionary(&["a"], vec![1u8]).is_err());
    // A byte's NULL is NULL even where the given dictionary has an entry
    // 255 (no row uses it, so the tidied dictionary fits a byte).
    let dictionary: Vec<String> = (0..300).map(text).collect();
    let column = StrColumn::from_dictionary(&dictionary, vec![7u8, u8::MAX, 7]).unwrap();
    assert_eq!(column.null_count(), 1);
    assert_eq!(column.dictionary().len(), 1);
    let cells: Vec<Option<&str>> = (0..3).map(|row| column.get(row)).collect();
    assert_eq!(
        cells,
        [Some(text(7).as_str()), None, Some(text(7).as_str())]
    );
}
