//! Synthetic dataset generators calibrated to the paper's evaluation data.
//!
//! The paper evaluates on four real datasets (Lending Club, Prosper,
//! Census/Adult, Bank Marketing) that are not redistributable. Its
//! algorithms, however, observe the data only through (a) group sizes
//! `t_a`, (b) group selectivities (via sampling or exactly), and (c)
//! feature vectors for the ML baselines. The paper publishes all of the
//! group-level statistics it depends on — Table 2 (overall selectivity)
//! and Table 3 (group count, group-size deviation, group-selectivity
//! deviation, and the Pearson correlation between size and selectivity) —
//! so we generate synthetic clones matching those statistics and add
//! auxiliary columns of varying predictive strength to exercise the
//! column-selection and ML-virtual-column machinery (§4.4, §6.3.2).
//!
//! Where positivity forces a compromise (Census's published size deviation
//! exceeds its mean group size, which caps how much spread positive sizes
//! can carry for a smooth generator), the generator gets as close as it can
//! and [`Dataset::group_stats`] reports the *achieved* statistics; the
//! Table 3 experiment prints achieved-vs-paper side by side.
//!
//! Generation is **columnar**: the per-row loop draws from the PRNG and
//! pushes numbers into typed vectors (a label number per categorical
//! cell), each label is rendered to a string once per value, and the
//! table is assembled by [`Table::from_columns`] — a few hundred
//! allocations for a 20 000-row table, where a row at a time was one per
//! cell. The PRNG draw order, and with it every cell and the table's
//! [`Table::version`] (the durable half of every persisted cache key), is
//! frozen: the tests pin `version` for six `(spec, rows, seed)` triples
//! and compare every generated table with a row-at-a-time oracle.

use crate::column::{Column, StrColumn};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use expred_stats::descriptive::{pearson, Accumulator};
use expred_stats::rng::Prng;

/// Name of the hidden ground-truth column carried by every synthetic
/// dataset. Algorithms must never read it directly; the `expred-udf` crate
/// wraps it in an audited oracle.
pub const LABEL_COLUMN: &str = "udf_label";

/// Target statistics for a synthetic dataset (from the paper's Tables 2/3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: &'static str,
    /// Total number of tuples.
    pub rows: usize,
    /// Number of groups under the designated predictor column.
    pub groups: usize,
    /// Overall (tuple-weighted) selectivity of the UDF predicate.
    pub selectivity: f64,
    /// Sample standard deviation of group sizes.
    pub size_dev: f64,
    /// Sample standard deviation of group selectivities.
    pub sel_dev: f64,
    /// Pearson correlation between group size and group selectivity.
    pub size_sel_corr: f64,
    /// Name of the designated predictor column.
    pub predictor: &'static str,
}

/// Lending Club clone: 53k tuples, selectivity 0.72, 7 grade groups.
pub const LENDING_CLUB: DatasetSpec = DatasetSpec {
    name: "lc",
    rows: 53_000,
    groups: 7,
    selectivity: 0.72,
    size_dev: 5_233.0,
    sel_dev: 0.13,
    size_sel_corr: 0.84,
    predictor: "grade",
};

/// Prosper clone: 30k tuples, selectivity 0.45, 8 grade groups.
pub const PROSPER: DatasetSpec = DatasetSpec {
    name: "prosper",
    rows: 30_000,
    groups: 8,
    selectivity: 0.45,
    size_dev: 1_521.0,
    sel_dev: 0.20,
    size_sel_corr: 0.20,
    predictor: "grade",
};

/// Census (Adult) clone: 45k tuples, selectivity 0.24, 7 marital-status
/// groups.
pub const CENSUS: DatasetSpec = DatasetSpec {
    name: "census",
    rows: 45_000,
    groups: 7,
    selectivity: 0.24,
    size_dev: 8_183.0,
    sel_dev: 0.15,
    size_sel_corr: 0.36,
    predictor: "marital_status",
};

/// Bank Marketing clone: 41k tuples, selectivity 0.11, 10
/// employment-variation-rate groups.
pub const MARKETING: DatasetSpec = DatasetSpec {
    name: "marketing",
    rows: 41_000,
    groups: 10,
    selectivity: 0.11,
    size_dev: 5_070.0,
    sel_dev: 0.20,
    size_sel_corr: -0.65,
    predictor: "emp_var_rate",
};

/// The paper's four datasets, in the order they appear in Table 2.
pub fn all_specs() -> [DatasetSpec; 4] {
    [LENDING_CLUB, PROSPER, CENSUS, MARKETING]
}

/// Looks up a spec by name (`lc`, `prosper`, `census`, `marketing`).
pub fn spec_by_name(name: &str) -> Option<DatasetSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

/// A generated dataset: the table plus the metadata experiments need.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The generated relation, including the hidden [`LABEL_COLUMN`].
    pub table: Table,
    /// The spec this dataset was calibrated to.
    pub spec: DatasetSpec,
    /// The seed it was generated from.
    pub seed: u64,
}

/// Achieved group-level statistics (the quantities of the paper's Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStatsSummary {
    /// Number of groups.
    pub num_groups: usize,
    /// Sample standard deviation of group sizes.
    pub size_dev: f64,
    /// Sample standard deviation of group selectivities.
    pub sel_dev: f64,
    /// Pearson correlation between size and selectivity.
    pub size_sel_corr: f64,
    /// Tuple-weighted overall selectivity.
    pub overall_selectivity: f64,
    /// Per-group `(size, selectivity)` pairs in group order.
    pub per_group: Vec<(usize, f64)>,
}

impl Dataset {
    /// Generates the dataset for a spec with a given seed.
    ///
    /// # Panics
    ///
    /// If the spec has fewer than two groups, or fewer rows than groups.
    pub fn generate(spec: DatasetSpec, seed: u64) -> Self {
        let (plan, mut rng) = row_plan(&spec, seed);
        let table = build_table(&spec, &plan, &mut rng);
        Self { table, spec, seed }
    }

    /// The designated predictor column name.
    pub fn predictor(&self) -> &'static str {
        self.spec.predictor
    }

    /// Computes the achieved Table 3 statistics for `column` against the
    /// hidden label. This reads ground truth and is for *evaluation only*.
    pub fn group_stats(&self, column: &str) -> GroupStatsSummary {
        let groups = self
            .table
            .group_by(column)
            .expect("group column must exist");
        let labels = self
            .table
            .column(LABEL_COLUMN)
            .expect("label column must exist");
        let mut sizes = Vec::new();
        let mut sels = Vec::new();
        let mut per_group = Vec::new();
        let mut correct_total = 0usize;
        for (_, _, rows) in groups.iter() {
            let correct = rows
                .iter()
                .filter(|&&r| labels.bool_at(r as usize) == Some(true))
                .count();
            correct_total += correct;
            let sel = correct as f64 / rows.len() as f64;
            sizes.push(rows.len() as f64);
            sels.push(sel);
            per_group.push((rows.len(), sel));
        }
        GroupStatsSummary {
            num_groups: sizes.len(),
            size_dev: Accumulator::from_slice(&sizes).sample_std_dev(),
            sel_dev: Accumulator::from_slice(&sels).sample_std_dev(),
            size_sel_corr: pearson(&sizes, &sels),
            overall_selectivity: correct_total as f64 / self.table.num_rows() as f64,
            per_group,
        }
    }

    /// Names of all categorical columns that are plausible predictor
    /// candidates (everything except the label and the row id).
    pub fn candidate_columns(&self) -> Vec<String> {
        self.table
            .schema()
            .fields()
            .iter()
            .filter(|f| f.name() != LABEL_COLUMN && f.name() != "row_id")
            .filter(|f| f.data_type() == DataType::Str)
            .map(|f| f.name().to_owned())
            .collect()
    }

    /// Names of the numeric feature columns (for the ML baselines).
    pub fn numeric_columns(&self) -> Vec<String> {
        self.table
            .schema()
            .fields()
            .iter()
            .filter(|f| f.name() != "row_id")
            .filter(|f| matches!(f.data_type(), DataType::Float | DataType::Int))
            .map(|f| f.name().to_owned())
            .collect()
    }
}

/// The per-row plan — `(group index, ground-truth label)`, shuffled so
/// that physical row order carries no signal — and the PRNG, positioned
/// where the cell draws start.
fn row_plan(spec: &DatasetSpec, seed: u64) -> (Vec<(usize, bool)>, Prng) {
    let mut rng = Prng::seeded(seed ^ hash_name(spec.name));
    let (sizes, sels) = calibrate_groups(spec, &mut rng);
    let mut plan: Vec<(usize, bool)> = Vec::with_capacity(spec.rows);
    for (g, (&t, &s)) in sizes.iter().zip(&sels).enumerate() {
        let correct = ((t as f64) * s).round().clamp(0.0, t as f64) as usize;
        let mut labels = vec![true; correct];
        labels.extend(std::iter::repeat_n(false, t - correct));
        rng.shuffle(&mut labels);
        plan.extend(labels.into_iter().map(|l| (g, l)));
    }
    rng.shuffle(&mut plan);
    (plan, rng)
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, so each dataset name perturbs the seed deterministically.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Constructs group sizes and selectivities matching the spec's deviations
/// and correlation as closely as positivity allows.
fn calibrate_groups(spec: &DatasetSpec, rng: &mut Prng) -> (Vec<usize>, Vec<f64>) {
    let k = spec.groups;
    assert!(k >= 2, "need at least two groups");
    assert!(
        spec.rows >= k,
        "need at least one row per group: {} rows for {k} groups",
        spec.rows
    );

    // u: standardized increasing pattern — the selectivity direction.
    let u = standardize((0..k).map(|i| i as f64).collect());

    // w: a positively skewed direction orthogonal to u (sample inner
    // product), so group sizes can spread widely while staying positive.
    let w = {
        let mut base: Vec<f64>;
        loop {
            base = (0..k).map(|_| (1.2 * rng.gaussian()).exp()).collect();
            let centered = center(&base);
            let proj: f64 = dot(&centered, &u) / dot(&u, &u).max(1e-12);
            let resid: Vec<f64> = centered
                .iter()
                .zip(&u)
                .map(|(b, ui)| b - proj * ui)
                .collect();
            if dot(&resid, &resid) > 1e-6 {
                break standardize(resid);
            }
        }
    };

    // z: unit-deviation direction with exact sample correlation r to u.
    let r = spec.size_sel_corr.clamp(-0.999, 0.999);
    let z: Vec<f64> = u
        .iter()
        .zip(&w)
        .map(|(ui, wi)| r * ui + (1.0 - r * r).sqrt() * wi)
        .collect();

    // Sizes: mean + dev * z, with dev capped so the smallest group stays
    // above a floor (positivity compromise; see module docs).
    let mean_size = spec.rows as f64 / k as f64;
    let floor = (spec.rows as f64 * 0.004).max(64.0);
    let min_z = z.iter().cloned().fold(f64::INFINITY, f64::min);
    let dev = if min_z < 0.0 {
        spec.size_dev.min(0.98 * (mean_size - floor) / (-min_z))
    } else {
        spec.size_dev
    };
    let mut sizes_f: Vec<f64> = z
        .iter()
        .map(|zi| (mean_size + dev * zi).max(floor))
        .collect();
    // Renormalize to the exact row count with largest-remainder rounding.
    let total: f64 = sizes_f.iter().sum();
    for s in &mut sizes_f {
        *s *= spec.rows as f64 / total;
    }
    let mut sizes: Vec<usize> = sizes_f
        .iter()
        .map(|&s| s.floor().max(1.0) as usize)
        .collect();
    let mut deficit = spec.rows as isize - sizes.iter().sum::<usize>() as isize;
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let fa = sizes_f[a] - sizes_f[a].floor();
        let fb = sizes_f[b] - sizes_f[b].floor();
        fb.partial_cmp(&fa).unwrap()
    });
    let mut i = 0;
    while deficit != 0 {
        let g = order[i % k];
        if deficit > 0 {
            sizes[g] += 1;
            deficit -= 1;
        } else if sizes[g] > 1 {
            sizes[g] -= 1;
            deficit += 1;
        }
        i += 1;
    }

    // Selectivities s_i = clamp(c + sel_dev * u_i). The tuple-weighted mean
    // is monotone nondecreasing in the intercept c, so bisection pins it to
    // the spec exactly (up to clamp saturation, which cannot occur unless
    // the target itself lies outside the clamp range).
    let weighted_mean = |c: f64| -> f64 {
        sizes
            .iter()
            .zip(&u)
            .map(|(&t, &ui)| t as f64 * (c + spec.sel_dev * ui).clamp(0.02, 0.98))
            .sum::<f64>()
            / spec.rows as f64
    };
    let (mut lo, mut hi) = (-2.0, 3.0);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if weighted_mean(mid) < spec.selectivity {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let c = 0.5 * (lo + hi);
    let sels: Vec<f64> = u
        .iter()
        .map(|&ui| (c + spec.sel_dev * ui).clamp(0.02, 0.98))
        .collect();
    (sizes, sels)
}

fn center(xs: &[f64]) -> Vec<f64> {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.iter().map(|x| x - mean).collect()
}

fn standardize(xs: Vec<f64>) -> Vec<f64> {
    let centered = center(&xs);
    let acc = Accumulator::from_slice(&xs);
    let sd = acc.sample_std_dev().max(1e-12);
    centered.into_iter().map(|x| x / sd).collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

// The auxiliary-column suite: noisy copies of the predictor, several
// label-driven categoricals of decreasing strength, pure-noise
// categoricals, and numeric features carrying a logistic signal.
//
// Per-tuple feature signal is deliberately weak: the paper's real datasets
// are far from linearly separable (their ML baselines need large labelled
// samples, §6.2), and class overlap is not among the published statistics
// we calibrate to. Group-level structure (the predictor column) carries
// the exploitable correlation; the auxiliary features only nudge per-tuple
// posteriors.

/// Corrupted copies of the predictor column: `(name, fidelity)`.
const NOISY_PREDICTORS: [(&str, f64); 3] = [
    ("sub_grade", 0.85),
    ("channel", 0.55),
    ("region_bucket", 0.30),
];
/// Label-driven categoricals: `(name, label-signal strength, cardinality)`.
const AUX_CATEGORICALS: [(&str, f64, usize); 4] = [
    ("housing_status", 0.28, 4),
    ("purpose", 0.18, 8),
    ("employment_title", 0.10, 12),
    ("term", 0.12, 2),
];
/// Pure-noise categoricals: `(name, cardinality)`.
const NOISE_CATEGORICALS: [(&str, usize); 2] = [("zip3", 40), ("weekday", 7)];
/// Numeric features: `(name, base, label delta in sigmas, sigma)`.
const NUMERIC_FEATURES: [(&str, f64, f64, f64); 3] = [
    ("annual_income", 52_000.0, 0.35, 18_000.0),
    ("debt_to_income", 0.42, -0.25, 0.16),
    ("account_age", 7.5, 0.10, 3.0),
];

/// Every generated table's schema: row id, predictor, the auxiliary
/// suite in the order above, then the hidden label.
fn dataset_schema(spec: &DatasetSpec) -> Schema {
    let mut fields = vec![
        Field::new("row_id", DataType::Int),
        Field::new(spec.predictor, DataType::Str),
    ];
    for (name, _) in NOISY_PREDICTORS {
        fields.push(Field::new(name, DataType::Str));
    }
    for (name, _, _) in AUX_CATEGORICALS {
        fields.push(Field::new(name, DataType::Str));
    }
    for (name, _) in NOISE_CATEGORICALS {
        fields.push(Field::new(name, DataType::Str));
    }
    for (name, _, _, _) in NUMERIC_FEATURES {
        fields.push(Field::new(name, DataType::Float));
    }
    fields.push(Field::new(LABEL_COLUMN, DataType::Bool));
    Schema::new(fields)
}

/// One draw from a label-driven categorical distribution: geometric
/// weights, reversed between the two label classes; `strength`
/// interpolates with uniform.
fn categorical_value(rng: &mut Prng, label: bool, strength: f64, card: usize) -> usize {
    if !rng.bernoulli(strength) {
        return rng.below(card);
    }
    // Geometric-ish skew toward one end, direction depends on label.
    let mut idx = 0usize;
    while idx + 1 < card && rng.bernoulli(0.45) {
        idx += 1;
    }
    if label {
        idx
    } else {
        card - 1 - idx
    }
}

/// Fills the table column by column: the per-row loop only draws from the
/// PRNG and pushes numbers — a label number per categorical cell, a float
/// per numeric cell — and each label is rendered to a string once per
/// value afterwards, into the column's dictionary.
///
/// The draw order per row (noisy predictors, label-driven categoricals,
/// noise categoricals, numerics) is **frozen**: it decides every cell, so
/// it decides [`Table::version`], which is half of every durable cache
/// key. `generated_versions_are_pinned` holds it in place.
fn build_table(spec: &DatasetSpec, plan: &[(usize, bool)], rng: &mut Prng) -> Table {
    let k = spec.groups;
    let n = plan.len();
    let codes = || Vec::<u32>::with_capacity(n);
    let mut predictor = codes();
    let mut noisy = NOISY_PREDICTORS.map(|_| codes());
    let mut aux = AUX_CATEGORICALS.map(|_| codes());
    let mut noise = NOISE_CATEGORICALS.map(|_| codes());
    let mut numeric = NUMERIC_FEATURES.map(|_| Vec::<Option<f64>>::with_capacity(n));
    let mut labels = Vec::with_capacity(n);

    for &(group, label) in plan {
        predictor.push(group as u32);
        for ((_, fidelity), column) in NOISY_PREDICTORS.into_iter().zip(&mut noisy) {
            let g = if rng.bernoulli(fidelity) {
                group
            } else {
                rng.below(k)
            };
            column.push(g as u32);
        }
        for ((_, strength, card), column) in AUX_CATEGORICALS.into_iter().zip(&mut aux) {
            column.push(categorical_value(rng, label, strength, card) as u32);
        }
        for ((_, card), column) in NOISE_CATEGORICALS.into_iter().zip(&mut noise) {
            column.push(rng.below(card) as u32);
        }
        for ((_, base, delta_sigmas, sigma), column) in
            NUMERIC_FEATURES.into_iter().zip(&mut numeric)
        {
            let shift = if label { delta_sigmas * sigma } else { 0.0 };
            column.push(Some(base + shift + sigma * rng.gaussian()));
        }
        labels.push(Some(label));
    }

    // One rendered label per value a column can take; values no row drew
    // (small tables) and labels two groups share (letters wrap after `Z`)
    // are `StrColumn::from_dictionary`'s to tidy.
    let categorical = |card: usize, codes: Vec<u32>, render: &dyn Fn(usize) -> String| {
        let dictionary: Vec<String> = (0..card).map(render).collect();
        Column::Str(
            StrColumn::from_dictionary(&dictionary, codes).expect("labels are below `card`"),
        )
    };
    let mut columns = vec![
        Column::Int((0..n as i64).map(Some).collect()),
        categorical(k, predictor, &|g| group_label(spec.predictor, g)),
    ];
    for codes in noisy {
        columns.push(categorical(k, codes, &|g| group_label("noisy", g)));
    }
    for ((name, _, card), codes) in AUX_CATEGORICALS.into_iter().zip(aux) {
        columns.push(categorical(card, codes, &|v| format!("{name}_{v}")));
    }
    for ((name, card), codes) in NOISE_CATEGORICALS.into_iter().zip(noise) {
        columns.push(categorical(card, codes, &|v| format!("{name}_{v}")));
    }
    columns.extend(numeric.into_iter().map(Column::Float));
    columns.push(Column::Bool(labels));
    Table::from_columns(dataset_schema(spec), columns).expect("generated columns match the schema")
}

/// Human-readable group labels: letters for grade-like columns, numbered
/// levels otherwise.
fn group_label(prefix: &str, group: usize) -> String {
    if prefix == "grade" || prefix == "noisy" {
        let letter = (b'A' + (group % 26) as u8) as char;
        format!("{letter}")
    } else {
        format!("{prefix}_{group}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// The row-at-a-time generator `build_table` replaced, kept as its
    /// oracle: one `Vec<Value>` and one heap `String` per categorical
    /// cell, through `push_row`.
    fn generate_by_rows(spec: DatasetSpec, seed: u64) -> Table {
        let (plan, mut rng) = row_plan(&spec, seed);
        let rng = &mut rng;
        let mut table = Table::empty(dataset_schema(&spec));
        for (row_id, &(group, label)) in plan.iter().enumerate() {
            let mut row: Vec<Value> = Vec::with_capacity(table.num_columns());
            row.push(Value::Int(row_id as i64));
            row.push(Value::Str(group_label(spec.predictor, group)));
            for (_, fidelity) in NOISY_PREDICTORS {
                let g = if rng.bernoulli(fidelity) {
                    group
                } else {
                    rng.below(spec.groups)
                };
                row.push(Value::Str(group_label("noisy", g)));
            }
            for (name, strength, card) in AUX_CATEGORICALS {
                let v = categorical_value(rng, label, strength, card);
                row.push(Value::Str(format!("{name}_{v}")));
            }
            for (name, card) in NOISE_CATEGORICALS {
                row.push(Value::Str(format!("{name}_{}", rng.below(card))));
            }
            for (_, base, delta_sigmas, sigma) in NUMERIC_FEATURES {
                let shift = if label { delta_sigmas * sigma } else { 0.0 };
                row.push(Value::Float(base + shift + sigma * rng.gaussian()));
            }
            row.push(Value::Bool(label));
            table
                .push_row(row)
                .expect("generated row must match schema");
        }
        table
    }

    #[test]
    fn columnar_generation_equals_the_row_oracle() {
        for spec in all_specs() {
            let k = spec.groups;
            for rows in [k, k + 1, 63, 64, 65, 200, 2_000] {
                for seed in [0, 7, 0xdead_beef] {
                    let spec = DatasetSpec { rows, ..spec };
                    let columnar = Dataset::generate(spec, seed).table;
                    let by_rows = generate_by_rows(spec, seed);
                    let what = format!("{} @ {rows} rows, seed {seed}", spec.name);
                    assert_eq!(columnar, by_rows, "{what}");
                    assert_eq!(columnar.version(), by_rows.version(), "{what}");
                }
            }
        }
    }

    #[test]
    fn groups_sharing_a_letter_label_merge_like_the_row_oracle() {
        // 30 grade groups: 26..30 reuse the letters A..D.
        let spec = DatasetSpec {
            rows: 600,
            groups: 30,
            ..PROSPER
        };
        let columnar = Dataset::generate(spec, 5).table;
        assert_eq!(columnar.column("grade").unwrap().distinct_count(), 26);
        let by_rows = generate_by_rows(spec, 5);
        assert_eq!(columnar, by_rows);
        assert_eq!(columnar.version(), by_rows.version());
    }

    /// `Table::version` is the `version` half of every `PersistKey` and
    /// the schema fingerprint keys cross-table reuse: a generator change
    /// that moves either orphans every `--data-dir` ever written. These
    /// constants were recorded before the generator went columnar.
    #[test]
    fn generated_versions_are_pinned() {
        for (spec, rows, seed, version, schema) in [
            (
                PROSPER,
                2_000,
                7,
                0xaf92_1da1_9a84_9e5f_u64,
                0x8b3e_bf6d_d7b4_775c_u64,
            ),
            (
                LENDING_CLUB,
                2_000,
                7,
                0x66dd_c59f_5c23_7b25,
                0x8b3e_bf6d_d7b4_775c,
            ),
            (
                PROSPER,
                20_000,
                1,
                0x376a_252a_0f03_5593,
                0x8b3e_bf6d_d7b4_775c,
            ),
            (
                LENDING_CLUB,
                20_000,
                3,
                0x5442_d20e_a4f7_842f,
                0x8b3e_bf6d_d7b4_775c,
            ),
            (
                CENSUS,
                45_000,
                1,
                0xedf4_b3d1_6650_2ffb,
                0x5f97_ebf5_fa97_b5b9,
            ),
            (
                MARKETING,
                41_000,
                1,
                0x99dc_fb73_363d_36f5,
                0x2f28_84a2_0e8d_f1a7,
            ),
        ] {
            let table = Dataset::generate(DatasetSpec { rows, ..spec }, seed).table;
            let what = format!("{} @ {rows} rows, seed {seed}", spec.name);
            assert_eq!(table.version(), version, "{what}: version");
            assert_eq!(table.schema().fingerprint(), schema, "{what}: schema");
        }
    }

    #[test]
    fn specs_lookup() {
        assert_eq!(spec_by_name("lc"), Some(LENDING_CLUB));
        assert_eq!(spec_by_name("nope"), None);
        assert_eq!(all_specs().len(), 4);
    }

    #[test]
    fn generate_returns_from_one_row_per_group_up() {
        // Below that the largest-remainder loop has no row to take back;
        // `calibrate_groups` refuses such a spec instead of spinning.
        for spec in [PROSPER, LENDING_CLUB] {
            for rows in spec.groups..=200 {
                let ds = Dataset::generate(DatasetSpec { rows, ..spec }, 3);
                assert_eq!(ds.table.num_rows(), rows);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one row per group")]
    fn generate_refuses_fewer_rows_than_groups() {
        Dataset::generate(DatasetSpec { rows: 7, ..PROSPER }, 3);
    }

    #[test]
    fn lending_club_matches_calibration() {
        let ds = Dataset::generate(LENDING_CLUB, 1);
        assert_eq!(ds.table.num_rows(), 53_000);
        let stats = ds.group_stats("grade");
        assert_eq!(stats.num_groups, 7);
        assert!(
            (stats.overall_selectivity - 0.72).abs() < 0.01,
            "selectivity {}",
            stats.overall_selectivity
        );
        assert!(
            (stats.sel_dev - 0.13).abs() < 0.04,
            "sel_dev {}",
            stats.sel_dev
        );
        assert!(
            stats.size_sel_corr > 0.5,
            "corr {} should be strongly positive",
            stats.size_sel_corr
        );
        assert!(stats.size_dev > 2_000.0, "size_dev {}", stats.size_dev);
    }

    #[test]
    fn marketing_has_negative_correlation() {
        let ds = Dataset::generate(MARKETING, 1);
        let stats = ds.group_stats("emp_var_rate");
        assert_eq!(stats.num_groups, 10);
        assert!(
            stats.size_sel_corr < -0.3,
            "corr {} should be strongly negative",
            stats.size_sel_corr
        );
        assert!(
            (stats.overall_selectivity - 0.11).abs() < 0.01,
            "selectivity {}",
            stats.overall_selectivity
        );
    }

    #[test]
    fn all_datasets_hit_overall_selectivity() {
        for spec in all_specs() {
            let ds = Dataset::generate(spec, 7);
            let stats = ds.group_stats(spec.predictor);
            assert!(
                (stats.overall_selectivity - spec.selectivity).abs() < 0.015,
                "{}: got {}",
                spec.name,
                stats.overall_selectivity
            );
            assert_eq!(stats.num_groups, spec.groups, "{}", spec.name);
            assert_eq!(ds.table.num_rows(), spec.rows, "{}", spec.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(PROSPER, 5);
        let b = Dataset::generate(PROSPER, 5);
        assert_eq!(a.table, b.table);
        let c = Dataset::generate(PROSPER, 6);
        assert_ne!(a.table, c.table);
    }

    #[test]
    fn candidate_columns_exclude_label_and_id() {
        let ds = Dataset::generate(PROSPER, 2);
        let cols = ds.candidate_columns();
        assert!(cols.contains(&"grade".to_owned()));
        assert!(!cols.contains(&LABEL_COLUMN.to_owned()));
        assert!(!cols.contains(&"row_id".to_owned()));
        assert!(cols.len() >= 8, "want a rich candidate set, got {cols:?}");
    }

    #[test]
    fn numeric_columns_present() {
        let ds = Dataset::generate(CENSUS, 3);
        let nums = ds.numeric_columns();
        assert!(nums.contains(&"annual_income".to_owned()));
        assert!(nums.contains(&"debt_to_income".to_owned()));
    }

    #[test]
    fn numeric_signal_separates_classes() {
        let ds = Dataset::generate(LENDING_CLUB, 4);
        let income = ds.table.column("annual_income").unwrap();
        let labels = ds.table.column(LABEL_COLUMN).unwrap();
        let (mut pos, mut neg) = (Accumulator::new(), Accumulator::new());
        for r in 0..ds.table.num_rows() {
            let x = income.float_at(r).unwrap();
            if labels.bool_at(r).unwrap() {
                pos.push(x);
            } else {
                neg.push(x);
            }
        }
        // The signal is deliberately weak (0.35 sigma = ~6.3k) so the ML
        // baselines face realistic class overlap; it must still exist.
        assert!(
            pos.mean() - neg.mean() > 3_000.0,
            "income should separate classes: {} vs {}",
            pos.mean(),
            neg.mean()
        );
    }

    #[test]
    fn predictor_groups_carry_signal() {
        // The designated predictor must be far more informative than noise:
        // its per-group selectivities must spread widely.
        let ds = Dataset::generate(LENDING_CLUB, 5);
        let stats = ds.group_stats("grade");
        let noise = ds.group_stats("weekday");
        assert!(stats.sel_dev > 4.0 * noise.sel_dev.max(1e-3));
    }
}
