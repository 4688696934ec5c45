//! Feature extraction from tables.
//!
//! The virtual-column method and the ML baselines (paper §4.4, §6.2,
//! §6.3.2) need numeric feature vectors. Following the paper's own
//! overfitting guard — "we only use columns that are either numeric or
//! nominal with < 50 different values" — this module standardizes numeric
//! columns and one-hot encodes low-cardinality categorical columns.
//!
//! One-hot encoding consumes dictionary codes from the grouping kernel
//! ([`expred_table::GroupCodes`]): per row it costs an integer lookup,
//! and the category strings are rendered once per *distinct* value
//! rather than once per cell. The historical per-cell-`String` encoder
//! survives as this module's test oracle, which the kernel path must
//! match byte for byte (the dictionary's value-sorted codes are remapped
//! to the reference's string-sorted category slots). The codes come from
//! the table's memo ([`Table::codes`]), so repeat extractions over an
//! unchanged table skip the dictionary build.

use expred_table::kernels::GroupCodes;
use expred_table::{Column, DataType, DerivedCounters, Table, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Feature-extraction policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureSpec {
    /// Categorical columns with more distinct values than this are dropped
    /// (the paper uses 50).
    pub max_categorical_cardinality: usize,
    /// Integer columns with at most this many distinct values are treated
    /// as categorical rather than numeric.
    pub int_categorical_threshold: usize,
}

impl Default for FeatureSpec {
    fn default() -> Self {
        Self {
            max_categorical_cardinality: 50,
            int_categorical_threshold: 20,
        }
    }
}

/// A dense row-major feature matrix with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    rows: usize,
    dim: usize,
    data: Vec<f64>,
    feature_names: Vec<String>,
}

impl FeatureMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The feature vector of one row.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Human-readable feature names (column or column=value).
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }
}

/// Extracts standardized/one-hot features from every eligible column of
/// `table` except those in `exclude`.
///
/// * Float columns (and high-cardinality Int columns) are standardized to
///   zero mean / unit variance; NULLs map to the mean (0 after
///   standardization).
/// * Str/Bool columns (and low-cardinality Int columns) are one-hot
///   encoded; NULL becomes its own category. Columns whose cardinality
///   exceeds the spec's limit are dropped.
///
/// The dictionary codes behind the one-hot encodings are read through
/// the table's memo; `counters`, if given, counts those lookups.
pub fn extract_features(
    table: &Table,
    exclude: &[&str],
    spec: FeatureSpec,
    counters: Option<&DerivedCounters>,
) -> FeatureMatrix {
    let n = table.num_rows();
    let mut columns: Vec<(String, Encoding)> = Vec::new();
    for field in table.schema().fields() {
        if exclude.contains(&field.name()) {
            continue;
        }
        let col = table.column(field.name()).expect("schema-listed column");
        let categorical = |name: &str| {
            let codes = table.codes(name, counters).expect("schema-listed column");
            coded_encoding(codes, spec.max_categorical_cardinality)
        };
        let enc = match field.data_type() {
            DataType::Float => numeric_encoding(col, n),
            DataType::Int => {
                // Memoized on the table: eligibility stops re-scanning.
                let distinct = table
                    .column_stats(field.name())
                    .expect("schema-listed column")
                    .distinct_count;
                if distinct <= spec.int_categorical_threshold {
                    categorical(field.name())
                } else {
                    numeric_encoding(col, n)
                }
            }
            DataType::Bool | DataType::Str => categorical(field.name()),
        };
        if let Some(enc) = enc {
            columns.push((field.name().to_owned(), enc));
        }
    }

    let dim: usize = columns.iter().map(|(_, e)| e.width()).sum();
    let mut data = vec![0.0; n * dim];
    let mut feature_names = Vec::with_capacity(dim);
    let mut offset = 0;
    for (name, enc) in &columns {
        match enc {
            Encoding::Numeric { mean, std } => {
                feature_names.push(name.clone());
                let col = table.column(name).unwrap();
                for r in 0..n {
                    let v = col.float_at(r).unwrap_or(*mean);
                    data[r * dim + offset] = if *std > 0.0 { (v - mean) / std } else { 0.0 };
                }
                offset += 1;
            }
            Encoding::OneHot {
                names,
                codes,
                code_slot,
            } => {
                for cat in names {
                    feature_names.push(format!("{name}={cat}"));
                }
                for (r, &code) in codes.codes().iter().enumerate() {
                    data[r * dim + offset + code_slot[code as usize]] = 1.0;
                }
                offset += names.len();
            }
        }
    }
    debug_assert_eq!(offset, dim);
    FeatureMatrix {
        rows: n,
        dim,
        data,
        feature_names,
    }
}

enum Encoding {
    Numeric {
        mean: f64,
        std: f64,
    },
    /// One-hot over kernel dictionary codes: `code_slot[code]` is the
    /// column slot (categories in string-sorted order, matching the
    /// reference encoder), `names` the sorted category strings.
    OneHot {
        names: Vec<String>,
        codes: Arc<GroupCodes>,
        code_slot: Vec<usize>,
    },
}

impl Encoding {
    fn width(&self) -> usize {
        match self {
            Encoding::Numeric { .. } => 1,
            Encoding::OneHot { names, .. } => names.len(),
        }
    }
}

fn numeric_encoding(col: &Column, n: usize) -> Option<Encoding> {
    let mut acc = expred_stats::descriptive::Accumulator::new();
    for r in 0..n {
        if let Some(v) = col.float_at(r) {
            acc.push(v);
        }
    }
    Some(Encoding::Numeric {
        mean: acc.mean(),
        std: acc.std_dev(),
    })
}

/// Builds the one-hot layout from dictionary codes. The dictionary is
/// value-sorted; the reference encoder sorts categories by their
/// *rendered string*, so each distinct key is rendered once (not once
/// per cell) and the codes are remapped to string-sorted slots. Distinct
/// keys with equal renderings collapse into one category, exactly as the
/// string-keyed reference would.
fn coded_encoding(codes: Arc<GroupCodes>, max_card: usize) -> Option<Encoding> {
    let rendered: Vec<String> = codes.keys().iter().map(key_string).collect();
    let mut sorted: BTreeMap<&str, usize> = BTreeMap::new();
    for key in &rendered {
        let next = sorted.len();
        sorted.entry(key).or_insert(next);
        if sorted.len() > max_card {
            return None; // too many distinct values: drop the column
        }
    }
    // Re-index in sorted order; map each code to its category's slot.
    for (slot, (_, index)) in sorted.iter_mut().enumerate() {
        *index = slot;
    }
    let code_slot: Vec<usize> = rendered.iter().map(|k| sorted[k.as_str()]).collect();
    let names: Vec<String> = sorted.keys().map(|k| (*k).to_owned()).collect();
    Some(Encoding::OneHot {
        names,
        codes,
        code_slot,
    })
}

/// The rendering the string-keyed reference encoder uses for a cell.
fn key_string(v: &Value) -> String {
    if v.is_null() {
        "\u{0}NULL".to_owned()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::{Field, Schema, Value};

    /// The historical per-cell scalar encoder: renders an owned key `String`
    /// per cell and buckets through a `BTreeMap`. Kept as the reference the
    /// kernel-coded path must match byte for byte.
    fn extract_features_reference(
        table: &Table,
        exclude: &[&str],
        spec: FeatureSpec,
    ) -> FeatureMatrix {
        let n = table.num_rows();
        let mut columns: Vec<(String, ReferenceEncoding)> = Vec::new();
        for field in table.schema().fields() {
            if exclude.contains(&field.name()) {
                continue;
            }
            let col = table.column(field.name()).expect("schema-listed column");
            let enc = match field.data_type() {
                DataType::Float => reference_numeric(col, n),
                DataType::Int => {
                    if col.distinct_count() <= spec.int_categorical_threshold {
                        reference_categorical(col, n, spec.max_categorical_cardinality)
                    } else {
                        reference_numeric(col, n)
                    }
                }
                DataType::Bool | DataType::Str => {
                    reference_categorical(col, n, spec.max_categorical_cardinality)
                }
            };
            if let Some(enc) = enc {
                columns.push((field.name().to_owned(), enc));
            }
        }

        let dim: usize = columns.iter().map(|(_, e)| e.width()).sum();
        let mut data = vec![0.0; n * dim];
        let mut feature_names = Vec::with_capacity(dim);
        let mut offset = 0;
        for (name, enc) in &columns {
            match enc {
                ReferenceEncoding::Numeric { mean, std } => {
                    feature_names.push(name.clone());
                    let col = table.column(name).unwrap();
                    for r in 0..n {
                        let v = col.float_at(r).unwrap_or(*mean);
                        data[r * dim + offset] = if *std > 0.0 { (v - mean) / std } else { 0.0 };
                    }
                    offset += 1;
                }
                ReferenceEncoding::OneHot { categories } => {
                    for cat in categories.keys() {
                        feature_names.push(format!("{name}={cat}"));
                    }
                    let col = table.column(name).unwrap();
                    for r in 0..n {
                        let key = cell_key(col, r);
                        if let Some(&slot) = categories.get(&key) {
                            data[r * dim + offset + slot] = 1.0;
                        }
                    }
                    offset += categories.len();
                }
            }
        }
        debug_assert_eq!(offset, dim);
        FeatureMatrix {
            rows: n,
            dim,
            data,
            feature_names,
        }
    }

    enum ReferenceEncoding {
        Numeric { mean: f64, std: f64 },
        OneHot { categories: BTreeMap<String, usize> },
    }

    impl ReferenceEncoding {
        fn width(&self) -> usize {
            match self {
                ReferenceEncoding::Numeric { .. } => 1,
                ReferenceEncoding::OneHot { categories } => categories.len(),
            }
        }
    }

    fn reference_numeric(col: &Column, n: usize) -> Option<ReferenceEncoding> {
        match numeric_encoding(col, n) {
            Some(Encoding::Numeric { mean, std }) => Some(ReferenceEncoding::Numeric { mean, std }),
            _ => None,
        }
    }

    fn reference_categorical(col: &Column, n: usize, max_card: usize) -> Option<ReferenceEncoding> {
        let mut categories: BTreeMap<String, usize> = BTreeMap::new();
        for r in 0..n {
            let key = cell_key(col, r);
            let next = categories.len();
            categories.entry(key).or_insert(next);
            if categories.len() > max_card {
                return None; // too many distinct values: drop the column
            }
        }
        // Re-index in sorted order for determinism.
        let keys: Vec<String> = categories.keys().cloned().collect();
        let categories = keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
        Some(ReferenceEncoding::OneHot { categories })
    }

    fn cell_key(col: &Column, r: usize) -> String {
        let v = col.value(r);
        if v.is_null() {
            "\u{0}NULL".to_owned()
        } else {
            v.to_string()
        }
    }

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("income", DataType::Float),
            Field::new("grade", DataType::Str),
            Field::new("flag", DataType::Bool),
            Field::new("id", DataType::Int),
            Field::new("label", DataType::Bool),
        ]);
        let rows = vec![
            vec![
                Value::Float(10.0),
                Value::from("A"),
                Value::Bool(true),
                Value::Int(0),
                Value::Bool(true),
            ],
            vec![
                Value::Float(20.0),
                Value::from("B"),
                Value::Bool(false),
                Value::Int(1),
                Value::Bool(false),
            ],
            vec![
                Value::Float(30.0),
                Value::from("A"),
                Value::Bool(true),
                Value::Int(2),
                Value::Bool(true),
            ],
            vec![
                Value::Float(40.0),
                Value::from("C"),
                Value::Bool(false),
                Value::Int(3),
                Value::Bool(false),
            ],
        ];
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn excludes_and_encodes() {
        let t = sample_table();
        let m = extract_features(&t, &["label", "id"], FeatureSpec::default(), None);
        assert_eq!(m.rows(), 4);
        // income (1) + grade one-hot (3) + flag one-hot (2) = 6.
        assert_eq!(m.dim(), 6);
        assert!(m.feature_names().contains(&"income".to_owned()));
        assert!(m.feature_names().contains(&"grade=A".to_owned()));
        assert!(m.feature_names().iter().all(|n| !n.starts_with("label")));
    }

    #[test]
    fn numeric_standardization() {
        let t = sample_table();
        let m = extract_features(
            &t,
            &["label", "id", "grade", "flag"],
            FeatureSpec::default(),
            None,
        );
        assert_eq!(m.dim(), 1);
        let mean: f64 = (0..4).map(|r| m.row(r)[0]).sum::<f64>() / 4.0;
        let var: f64 = (0..4).map(|r| m.row(r)[0].powi(2)).sum::<f64>() / 4.0 - mean * mean;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_hot_rows_sum_to_one_per_column() {
        let t = sample_table();
        let m = extract_features(
            &t,
            &["label", "id", "income", "flag"],
            FeatureSpec::default(),
            None,
        );
        // grade one-hot only: each row has exactly one hot slot.
        assert_eq!(m.dim(), 3);
        for r in 0..4 {
            let s: f64 = m.row(r).iter().sum();
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn high_cardinality_categoricals_dropped() {
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]);
        let rows = (0..100)
            .map(|i| vec![Value::Str(format!("v{i}"))])
            .collect();
        let t = Table::from_rows(schema, rows).unwrap();
        let m = extract_features(&t, &[], FeatureSpec::default(), None);
        assert_eq!(m.dim(), 0, "100-distinct categorical must be dropped");
    }

    #[test]
    fn small_int_columns_become_categorical() {
        let schema = Schema::new(vec![Field::new("bucket", DataType::Int)]);
        let rows = (0..30).map(|i| vec![Value::Int(i % 3)]).collect();
        let t = Table::from_rows(schema, rows).unwrap();
        let m = extract_features(&t, &[], FeatureSpec::default(), None);
        assert_eq!(m.dim(), 3);
    }

    /// The kernel-coded encoder must reproduce the string-keyed reference
    /// byte for byte — including the tricky orderings: string-sorted
    /// categories (`Int(10)` sorts before `Int(2)` as "10" < "2") and the
    /// `"\u{0}NULL"` NULL category sorting first.
    #[test]
    fn coded_encoding_matches_reference_byte_for_byte() {
        let schema = Schema::new(vec![
            Field::nullable("bucket", DataType::Int),
            Field::nullable("grade", DataType::Str),
            Field::nullable("flag", DataType::Bool),
            Field::nullable("x", DataType::Float),
        ]);
        let rows = (0..60)
            .map(|i| {
                vec![
                    // Includes 2 vs 10: value order differs from string order.
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int([2, 10, 1, -3][i % 4])
                    },
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::from(["B", "A", "C"][i % 3])
                    },
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Bool(i % 2 == 0)
                    },
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect();
        let t = Table::from_rows(schema, rows).unwrap();
        let spec = FeatureSpec::default();
        let counters = DerivedCounters::default();
        let kernel = extract_features(&t, &[], spec, Some(&counters));
        let reference = extract_features_reference(&t, &[], spec);
        assert_eq!(kernel, reference);
        assert!(kernel
            .feature_names()
            .iter()
            .any(|n| n == "bucket=\u{0}NULL"));
        assert!(counters.snapshot().misses >= 1);

        // Again through the table's memo: identical, the codes reused.
        let again = extract_features(&t, &[], spec, Some(&counters));
        assert_eq!(again, reference);
        assert!(
            counters.snapshot().hits >= 1,
            "repeat extraction reuses codes"
        );
    }

    #[test]
    fn nulls_get_own_category_and_mean_fill() {
        let schema = Schema::new(vec![
            Field::nullable("x", DataType::Float),
            Field::nullable("c", DataType::Str),
        ]);
        let rows = vec![
            vec![Value::Float(1.0), Value::from("a")],
            vec![Value::Null, Value::Null],
            vec![Value::Float(3.0), Value::from("a")],
        ];
        let t = Table::from_rows(schema, rows).unwrap();
        let m = extract_features(&t, &[], FeatureSpec::default(), None);
        // x numeric (1) + c one-hot {a, NULL} (2).
        assert_eq!(m.dim(), 3);
        // NULL numeric row should sit at the (standardized) mean: 0.
        assert_eq!(m.row(1)[0], 0.0);
    }
}
