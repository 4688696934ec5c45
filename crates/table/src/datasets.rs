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
//! Generation is **columnar, one tight loop per column**. The row plan —
//! group sizes and selectivities, then every row's shuffled `(group,
//! label)`, packed into one byte, `group << 1 | label`, and
//! shuffled in place — decides the predictor column and the hidden
//! label, and with them every answer a `grade`, `expr` or `naive` query
//! returns; both columns are read straight off the packed cells. Each
//! auxiliary column is its own loop over the plan that pushes numbers
//! into a typed vector (a one-byte label number per categorical cell,
//! which becomes the column's code as it is; each label is rendered to a
//! string once per value).
//!
//! **Lazy columns.** [`Dataset::generate`] builds only the predictor and
//! the label. The other thirteen columns — the row ids and the auxiliary
//! suite, read by column selection and the ML baselines but by no query
//! on a named predictor — are left to the table's *recipe*, its spec and
//! seed, and each is built the first time it is read. The first such
//! build re-derives the row plan and keeps it for the rest. A column
//! built late is cell for cell the column an eager build would make, and
//! it passes [`Table::from_columns`]' checks when it is built.
//!
//! **Streams.** Every auxiliary column draws each [`PAGE_ROWS`]-row page
//! from its own stream: stream `(column, page)` is
//! `Prng::fork(column << 32 | page)` off the plan's generator, `column`
//! being the column's schema position. A page's cells therefore follow
//! from the plan's rows on that page alone, and a column from the plan
//! alone, whenever it is built. Each cell is one draw: a noisy predictor
//! cell splits one `u64` between keeping the group and picking a
//! replacement, a label-driven categorical counts one uniform's place in
//! a precomputed inverse CDF, and a numeric cell is a ziggurat normal
//! (no `ln` or `cos` for about 99 % of draws).
//!
//! **The version and `GENERATOR_REVISION`.** A generated table's
//! [`Table::version`] — half of every durable cache key — is a
//! fingerprint of its recipe: a generator revision constant, every
//! [`DatasetSpec`] field, and the seed. Folding the cells would build
//! them all. The recipe version only stands for the cells while the
//! generator draws the same cells, so **any change that moves a generated
//! cell must bump `GENERATOR_REVISION`**. The tests hold to it: they pin
//! the content fold of every cell (what [`Table::from_columns`] gives the
//! built columns) beside the recipe version for six `(spec, rows, seed)`
//! triples. A moved cell fails the content pins, and they are re-pinned
//! only with a revision bump, which moves every recipe pin too. A new
//! revision orphans every `--data-dir` written before it, as moving to
//! recipe versions did.
//!
//! **The re-seed.** Moving the auxiliary columns onto per-page streams
//! re-drew them once, deliberately (ROADMAP 5(c)), with the laws the
//! row-major generator drew them from. Every predictor and label cell is
//! what it was. The tests pin the predictor and label columns at their
//! pre-re-seed fingerprint, hold each sampler to the row-major law, and
//! compare every generated table with a row-at-a-time oracle.

use crate::column::{BoolColumn, Column, StrColumn};
use crate::rowset::RowSet;
use crate::schema::{Field, Schema};
use crate::table::{ColumnSource, Table};
use crate::value::DataType;
use expred_stats::descriptive::{pearson, Accumulator};
use expred_stats::hash::Fnv64;
use expred_stats::rng::Prng;
use expred_stats::PAGE_ROWS;
use std::sync::{Arc, OnceLock};

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
    /// Number of groups under the designated predictor column, at most
    /// [`MAX_GROUPS`].
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
pub(crate) const CENSUS: DatasetSpec = DatasetSpec {
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
    /// If the spec has fewer than two groups or more than [`MAX_GROUPS`],
    /// or fewer rows than groups.
    pub fn generate(spec: DatasetSpec, seed: u64) -> Self {
        let (plan, streams) = row_plan(&spec, seed);
        let eager =
            [PREDICTOR_AT, LABEL_AT].map(|idx| (idx, build_column(&spec, &plan, &streams, 0, idx)));
        let recipe = Recipe {
            spec,
            seed,
            plan: OnceLock::new(),
        };
        let table = Table::lazy(
            dataset_schema(&spec),
            spec.rows,
            recipe.version(),
            eager,
            Arc::new(recipe),
        )
        .expect("generated columns match the schema");
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
        let truth = self
            .table
            .column(LABEL_COLUMN)
            .and_then(Column::true_rows)
            .expect("a generated label column is boolean without NULLs");
        let mut sizes = Vec::new();
        let mut sels = Vec::new();
        let mut per_group = Vec::new();
        let mut correct_total = 0usize;
        for (g, [correct]) in groups.counts([truth]).into_iter().enumerate() {
            correct_total += correct;
            let size = groups.size(g);
            let sel = correct as f64 / size as f64;
            sizes.push(size as f64);
            sels.push(sel);
            per_group.push((size, sel));
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
}

/// Bumped by every change that moves a generated cell. A generated
/// table's [`Table::version`] fingerprints this revision with the spec and
/// seed instead of folding the cells, so under an unchanged revision a
/// `--data-dir` written before the move would answer for cells it never
/// saw. Such a change fails the content pins in the tests; re-pin them
/// only with a bump, which moves every pinned recipe version too.
const GENERATOR_REVISION: u64 = 1;

/// What a generated table's unbuilt columns are drawn from: its spec and
/// seed, and, from the first build on, the row plan they re-derive. The
/// plan stays for the table's life, at one byte per row (a 20 000-row
/// table keeps 20 KB).
#[derive(Debug)]
struct Recipe {
    spec: DatasetSpec,
    seed: u64,
    plan: OnceLock<(Vec<u8>, Prng)>,
}

impl Recipe {
    /// The generated table's version: a fingerprint of the generator
    /// revision, every spec field, and the seed.
    fn version(&self) -> u64 {
        let DatasetSpec {
            name,
            rows,
            groups,
            selectivity,
            size_dev,
            sel_dev,
            size_sel_corr,
            predictor,
        } = self.spec;
        let mut h = Fnv64::new();
        h.write_u64(GENERATOR_REVISION);
        h.write_str(name);
        h.write_u64(rows as u64);
        h.write_u64(groups as u64);
        for float in [selectivity, size_dev, sel_dev, size_sel_corr] {
            h.write_u64(float.to_bits());
        }
        h.write_str(predictor);
        h.write_u64(self.seed);
        // Never 0, the empty table's version.
        h.finish() | 1
    }
}

impl ColumnSource for Recipe {
    fn build(&self, idx: usize) -> Column {
        let (plan, streams) = self.plan.get_or_init(|| row_plan(&self.spec, self.seed));
        build_column(&self.spec, plan, streams, 0, idx)
    }
}

/// The most groups a spec may have: a row-plan cell, `group << 1 |
/// label`, is one byte.
pub const MAX_GROUPS: usize = 127;

/// The per-row plan — one packed cell per row, `group << 1 | label`
/// ([`group_of`], [`label_of`]), shuffled so that physical row order
/// carries no signal — and the PRNG the auxiliary columns' page streams
/// are forked off. Each group's cells are laid down, its labels shuffled
/// in place, and then the whole plan is shuffled: the draws and swaps of
/// shuffling a label list per group and then a list of `(group, label)`
/// pairs, on 1-byte cells.
fn row_plan(spec: &DatasetSpec, seed: u64) -> (Vec<u8>, Prng) {
    let mut rng = Prng::seeded(seed ^ hash_name(spec.name));
    let (sizes, sels) = calibrate_groups(spec, &mut rng);
    let mut plan: Vec<u8> = Vec::with_capacity(spec.rows);
    for (g, (&t, &s)) in sizes.iter().zip(&sels).enumerate() {
        let correct = ((t as f64) * s).round().clamp(0.0, t as f64) as usize;
        let (start, cell) = (plan.len(), (g as u8) << 1);
        plan.extend(std::iter::repeat_n(cell | 1, correct));
        plan.extend(std::iter::repeat_n(cell, t - correct));
        rng.shuffle(&mut plan[start..]);
    }
    rng.shuffle(&mut plan);
    (plan, rng)
}

/// The group of a row-plan cell.
fn group_of(cell: u8) -> usize {
    (cell >> 1) as usize
}

/// The ground-truth label of a row-plan cell.
fn label_of(cell: u8) -> bool {
    cell & 1 != 0
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
    assert!(
        (2..=MAX_GROUPS).contains(&k),
        "need two to {MAX_GROUPS} groups, not {k}"
    );
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

/// Schema positions: row id, predictor, the auxiliary suite in the order
/// above, then the hidden label.
const PREDICTOR_AT: usize = 1;
const NOISY_AT: usize = PREDICTOR_AT + 1;
const AUX_AT: usize = NOISY_AT + NOISY_PREDICTORS.len();
const NOISE_AT: usize = AUX_AT + AUX_CATEGORICALS.len();
const NUMERIC_AT: usize = NOISE_AT + NOISE_CATEGORICALS.len();
const LABEL_AT: usize = NUMERIC_AT + NUMERIC_FEATURES.len();

/// Every generated table's schema: row id, predictor, the auxiliary
/// suite in the order above, then the hidden label.
fn dataset_schema(spec: &DatasetSpec) -> Schema {
    let strings = (NOISY_PREDICTORS.iter().map(|&(name, _)| name))
        .chain(AUX_CATEGORICALS.iter().map(|&(name, ..)| name))
        .chain(NOISE_CATEGORICALS.iter().map(|&(name, _)| name))
        .map(|name| Field::new(name, DataType::Str));
    let floats = NUMERIC_FEATURES
        .iter()
        .map(|&(name, ..)| Field::new(name, DataType::Float));
    // Every part's length is known, so the fields are one allocation.
    let fields = [
        Field::new("row_id", DataType::Int),
        Field::new(spec.predictor, DataType::Str),
    ]
    .into_iter()
    .chain(strings)
    .chain(floats)
    .chain([Field::new(LABEL_COLUMN, DataType::Bool)])
    .collect();
    Schema::new(fields)
}

/// 2^31 and 2^32 as floats: the scales of the uniforms and abscissas cut
/// from one `u64` draw.
const TWO_31: f64 = (1u64 << 31) as f64;
const TWO_32: f64 = (1u64 << 32) as f64;

/// A noisy copy of the predictor, one `u64` per cell: the high half keeps
/// the row's group with probability `fidelity`, the low half picks the
/// replacement among all `k` groups by multiply-shift — the law of
/// `bernoulli(fidelity)` then `below(k)`, to within 2^-32.
#[derive(Debug, Clone, Copy)]
struct NoisyGroup {
    keep_below: u64,
    groups: u64,
}

impl NoisyGroup {
    fn new(fidelity: f64, groups: usize) -> Self {
        Self {
            keep_below: (fidelity * TWO_32) as u64,
            groups: groups as u64,
        }
    }

    /// Selects by mask: left as a branch, this is a coin flip the CPU
    /// mispredicts about half the time.
    #[inline]
    fn draw(self, rng: &mut Prng, group: usize) -> u32 {
        let bits = rng.next_u64();
        let replacement = (((bits & u64::from(u32::MAX)) * self.groups) >> 32) as u32;
        let keep = u32::from(bits >> 32 < self.keep_below).wrapping_neg();
        replacement ^ ((replacement ^ group as u32) & keep)
    }
}

/// The most values a label-driven categorical takes.
const MAX_CARD: usize = 12;

/// A label-driven categorical as one inverse CDF per label class: a cell
/// is how many cut points one 31-bit uniform reaches, counted without a
/// branch (in 32-bit lanes, which the compiler counts several at a time).
/// The law, to within 2^-31: with probability `strength`, a geometric
/// skew (`0.55 · 0.45^i` for the `i`-th value, the last value taking the
/// tail) from value 0 up for a true label and from `card - 1` down for a
/// false one; uniform otherwise.
#[derive(Debug, Clone)]
struct LabelDriven {
    /// `cuts[label][v]`: `P(value <= v) · 2^31`; slots past the last
    /// value hold `u32::MAX`, which no 31-bit uniform reaches.
    cuts: [[u32; MAX_CARD - 1]; 2],
}

impl LabelDriven {
    fn new(strength: f64, card: usize) -> Self {
        assert!((1..=MAX_CARD).contains(&card), "cardinality {card}");
        let cuts = [false, true].map(|label| {
            let mut cuts = [u32::MAX; MAX_CARD - 1];
            let mut cdf = 0.0;
            for (value, cut) in cuts.iter_mut().enumerate().take(card - 1) {
                let step = if label { value } else { card - 1 - value };
                let stop = if step + 1 < card { 0.55 } else { 1.0 };
                cdf += (1.0 - strength) / card as f64 + strength * stop * 0.45f64.powi(step as i32);
                *cut = (cdf * TWO_31) as u32;
            }
            cuts
        });
        Self { cuts }
    }

    #[inline]
    fn draw(&self, rng: &mut Prng, label: bool) -> u32 {
        let uniform = (rng.next_u64() >> 33) as u32;
        self.cuts[usize::from(label)]
            .iter()
            .map(|&cut| u32::from(cut <= uniform))
            .sum()
    }
}

/// Marsaglia and Tsang's ziggurat for the standard normal: 128 layers
/// of equal area under the density. One `u64` picks a layer (7 bits) and
/// a signed 32-bit abscissa in it; about 99 % of draws fall inside the
/// layer's rectangle and cost a multiply and a compare. The rest take
/// the wedge test (one `exp`) or, in the base layer, the tail (two
/// `ln`s), and draw again when rejected. (`Prng::gaussian`, Box–Muller,
/// pays `ln`, `sqrt` and `cos` on every draw.)
#[derive(Debug)]
struct Ziggurat {
    /// Below `inner[i]`, a layer-`i` abscissa is inside the rectangle.
    inner: [u32; 128],
    /// Layer `i`'s width over 2^31: abscissa to `x`.
    scale: [f64; 128],
    /// The density at layer `i`'s right edge.
    density: [f64; 128],
}

impl Ziggurat {
    /// The tables, computed once per process.
    fn get() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            // The base layer's edge and each layer's area.
            const EDGE: f64 = 3.442_619_855_899;
            const AREA: f64 = 9.912_563_035_262_17e-3;
            let density = |x: f64| (-0.5 * x * x).exp();
            let mut tables = Self {
                inner: [0; 128],
                scale: [0.0; 128],
                density: [0.0; 128],
            };
            let base = AREA / density(EDGE);
            tables.inner[0] = (EDGE / base * TWO_31) as u32;
            tables.scale[0] = base / TWO_31;
            tables.scale[127] = EDGE / TWO_31;
            tables.density[0] = 1.0;
            tables.density[127] = density(EDGE);
            let (mut edge, mut outer) = (EDGE, EDGE);
            for i in (1..127).rev() {
                edge = (-2.0 * (AREA / edge + density(edge)).ln()).sqrt();
                tables.inner[i + 1] = (edge / outer * TWO_31) as u32;
                outer = edge;
                tables.density[i] = density(edge);
                tables.scale[i] = edge / TWO_31;
            }
            tables
        })
    }

    #[inline]
    fn draw(&self, rng: &mut Prng) -> f64 {
        loop {
            let bits = rng.next_u64();
            let abscissa = bits as u32 as i32;
            let layer = (bits >> 32) as usize % 128;
            let x = f64::from(abscissa) * self.scale[layer];
            if abscissa.unsigned_abs() < self.inner[layer] {
                return x;
            }
            if layer == 0 {
                return self.tail(rng, abscissa > 0);
            }
            let below =
                self.density[layer] + rng.f64() * (self.density[layer - 1] - self.density[layer]);
            if below < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A draw beyond the base layer's edge, by Marsaglia's exponential
    /// rejection.
    #[cold]
    fn tail(&self, rng: &mut Prng, positive: bool) -> f64 {
        let edge = self.scale[127] * TWO_31;
        loop {
            let x = -(1.0 - rng.f64()).ln() / edge;
            let y = -(1.0 - rng.f64()).ln();
            if 2.0 * y >= x * x {
                return if positive { edge + x } else { -edge - x };
            }
        }
    }
}

/// Column `column`'s stream on page `page`, forked off the plan's
/// generator.
fn page_stream(streams: &Prng, column: usize, page: usize) -> Prng {
    streams.fork((column as u64) << 32 | page as u64)
}

/// One column's cells over `plan` — whole pages' rows, the first of them
/// page `first_page` — each page drawn from its own stream.
fn draw_column<T>(
    plan: &[u8],
    streams: &Prng,
    column: usize,
    first_page: usize,
    mut cell: impl FnMut(&mut Prng, usize, bool) -> T,
) -> Vec<T> {
    let mut cells = Vec::with_capacity(plan.len());
    for (page, rows) in plan.chunks(PAGE_ROWS).enumerate() {
        let mut rng = page_stream(streams, column, first_page + page);
        cells.extend(
            rows.iter()
                .map(|&row| cell(&mut rng, group_of(row), label_of(row))),
        );
    }
    cells
}

/// The column at schema position `idx` of the rows in `plan`, which
/// start at page `first_page`: the row ids, predictor and label straight
/// from the plan, an auxiliary column one loop over it, drawing from the
/// streams of its schema position. Each label is rendered to a string
/// once per value, into the column's dictionary.
fn build_column(
    spec: &DatasetSpec,
    plan: &[u8],
    streams: &Prng,
    first_page: usize,
    idx: usize,
) -> Column {
    let k = spec.groups;
    // One rendered label per value a column can take, and one byte per
    // cell (every column takes fewer than 255 values), which the column
    // keeps as its codes; values no row drew (small tables) and labels two
    // groups share (letters wrap after `Z`) are
    // `StrColumn::from_dictionary`'s to tidy.
    let categorical = |card: usize, codes: Vec<u8>, render: &dyn Fn(usize) -> String| {
        let dictionary: Vec<String> = (0..card).map(render).collect();
        Column::Str(
            StrColumn::from_dictionary(&dictionary, codes).expect("labels are below `card`"),
        )
    };
    match idx {
        0 => {
            let first_row = first_page * PAGE_ROWS;
            let ids = first_row..first_row + plan.len();
            Column::Int(ids.map(|r| Some(r as i64)).collect())
        }
        PREDICTOR_AT => {
            let codes = plan.iter().map(|&row| group_of(row) as u8).collect();
            categorical(k, codes, &|g| group_label(spec.predictor, g))
        }
        _ if idx < AUX_AT => {
            let noisy = NoisyGroup::new(NOISY_PREDICTORS[idx - NOISY_AT].1, k);
            let codes = draw_column(plan, streams, idx, first_page, |rng, group, _| {
                noisy.draw(rng, group) as u8
            });
            categorical(k, codes, &|g| group_label("noisy", g))
        }
        _ if idx < NOISE_AT => {
            let (name, strength, card) = AUX_CATEGORICALS[idx - AUX_AT];
            let law = LabelDriven::new(strength, card);
            let codes = draw_column(plan, streams, idx, first_page, |rng, _, label| {
                law.draw(rng, label) as u8
            });
            categorical(card, codes, &|v| format!("{name}_{v}"))
        }
        _ if idx < NUMERIC_AT => {
            let (name, card) = NOISE_CATEGORICALS[idx - NOISE_AT];
            let codes = draw_column(plan, streams, idx, first_page, |rng, _, _| {
                rng.below(card) as u8
            });
            categorical(card, codes, &|v| format!("{name}_{v}"))
        }
        _ if idx < LABEL_AT => {
            let (_, base, delta_sigmas, sigma) = NUMERIC_FEATURES[idx - NUMERIC_AT];
            let mean = [base, base + delta_sigmas * sigma];
            let normal = Ziggurat::get();
            Column::Float(draw_column(
                plan,
                streams,
                idx,
                first_page,
                |rng, _, label| Some(mean[usize::from(label)] + sigma * normal.draw(rng)),
            ))
        }
        LABEL_AT => Column::Bool(BoolColumn::from_plane(label_plane(plan), plan.len())),
        _ => panic!("a generated table has no column at position {idx}"),
    }
}

/// The rows whose plan cell carries a true label ([`label_of`]), packed
/// eight cells per multiply: the low bit of each of eight bytes, masked
/// out of one little-endian load, lands in the top byte of the product
/// in row order (byte `i`'s bit at bit `56 + i`, no two partial products
/// overlapping).
fn label_plane(plan: &[u8]) -> RowSet {
    const LOW_BITS: u64 = 0x0101_0101_0101_0101;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let words = plan
        .chunks(64)
        .map(|cells| {
            cells.chunks(8).enumerate().fold(0, |word, (byte, cells)| {
                let mut lanes = [0; 8];
                lanes[..cells.len()].copy_from_slice(cells);
                let labels = (u64::from_le_bytes(lanes) & LOW_BITS).wrapping_mul(GATHER) >> 56;
                word | labels << (8 * byte)
            })
        })
        .collect();
    RowSet::from_words(words)
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

    /// Every column of the rows in `plan`, which start at page
    /// `first_page`, in schema order.
    fn build_columns(
        spec: &DatasetSpec,
        plan: &[u8],
        streams: &Prng,
        first_page: usize,
    ) -> Vec<Column> {
        (0..=LABEL_AT)
            .map(|idx| build_column(spec, plan, streams, first_page, idx))
            .collect()
    }

    /// The content fold of a table's cells — what [`Table::from_columns`]
    /// gives the same columns — whatever kind of version the table has.
    fn content_version(table: &Table) -> u64 {
        let columns = (0..table.num_columns())
            .map(|idx| table.column_at(idx).clone())
            .collect();
        Table::from_columns(table.schema().clone(), columns)
            .unwrap()
            .version()
    }

    /// A row-at-a-time rendering of the same streams, kept as the
    /// columnar generator's oracle: each row takes its next cell from the
    /// stream of each auxiliary column's current page, and goes in as one
    /// `Vec<Value>` (one heap `String` per categorical cell) through
    /// `push_row`.
    fn generate_by_rows(spec: DatasetSpec, seed: u64) -> Table {
        let (plan, streams) = row_plan(&spec, seed);
        let mut table = Table::empty(dataset_schema(&spec));
        // Everything between the predictor and the label.
        let auxiliary = 2..table.num_columns() - 1;
        let mut rngs = Vec::new();
        for (row_id, &cell) in plan.iter().enumerate() {
            let (group, label) = (group_of(cell), label_of(cell));
            if row_id % PAGE_ROWS == 0 {
                let page = row_id / PAGE_ROWS;
                rngs = auxiliary
                    .clone()
                    .map(|column| page_stream(&streams, column, page))
                    .collect();
            }
            let mut rngs = rngs.iter_mut();
            let mut rng = || rngs.next().expect("one stream per auxiliary column");
            let mut row: Vec<Value> = Vec::with_capacity(table.num_columns());
            row.push(Value::Int(row_id as i64));
            row.push(Value::Str(group_label(spec.predictor, group)));
            for (_, fidelity) in NOISY_PREDICTORS {
                let g = NoisyGroup::new(fidelity, spec.groups).draw(rng(), group);
                row.push(Value::Str(group_label("noisy", g as usize)));
            }
            for (name, strength, card) in AUX_CATEGORICALS {
                let v = LabelDriven::new(strength, card).draw(rng(), label);
                row.push(Value::Str(format!("{name}_{v}")));
            }
            for (name, card) in NOISE_CATEGORICALS {
                row.push(Value::Str(format!("{name}_{}", rng().below(card))));
            }
            for (_, base, delta_sigmas, sigma) in NUMERIC_FEATURES {
                let shift = if label { delta_sigmas * sigma } else { 0.0 };
                let z = Ziggurat::get().draw(rng());
                row.push(Value::Float(base + shift + sigma * z));
            }
            row.push(Value::Bool(label));
            table
                .push_row(row)
                .expect("generated row must match schema");
        }
        table
    }

    /// The row plan as `(group, label)` pairs, built the way the packed
    /// plan replaced: a label list per group, shuffled, then the pairs.
    fn pair_plan(spec: &DatasetSpec, seed: u64) -> (Vec<(usize, bool)>, Prng) {
        let mut rng = Prng::seeded(seed ^ hash_name(spec.name));
        let (sizes, sels) = calibrate_groups(spec, &mut rng);
        let mut plan = Vec::with_capacity(spec.rows);
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

    #[test]
    fn the_packed_row_plan_is_the_pair_plan() {
        for spec in all_specs() {
            for rows in [spec.groups, 65, 2_000, PAGE_ROWS + 3] {
                for seed in [0, 7, 0xdead_beef] {
                    let spec = DatasetSpec { rows, ..spec };
                    let (packed, streams) = row_plan(&spec, seed);
                    let (pairs, want) = pair_plan(&spec, seed);
                    let unpacked: Vec<(usize, bool)> =
                        packed.iter().map(|&c| (group_of(c), label_of(c))).collect();
                    let what = format!("{} @ {rows} rows, seed {seed}", spec.name);
                    assert_eq!(unpacked, pairs, "{what}");
                    assert_eq!(streams, want, "{what}: the generator moved differently");
                }
            }
        }
    }

    /// The row-major generator's label-driven categorical, kept as the
    /// law [`LabelDriven`] must follow: a Bernoulli for the skew, then a
    /// rejection loop for its geometric steps.
    fn categorical_value(rng: &mut Prng, label: bool, strength: f64, card: usize) -> usize {
        if !rng.bernoulli(strength) {
            return rng.below(card);
        }
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

    /// Two-sample χ² over `bins` outcomes, `n` draws a side: how far
    /// `new` lies from `old`'s law. With `bins - 1` degrees of freedom,
    /// under `df + 10·sqrt(2·df)` is far inside the null.
    fn chi_square(
        bins: usize,
        n: usize,
        mut new: impl FnMut() -> usize,
        mut old: impl FnMut() -> usize,
    ) -> (f64, f64) {
        let (mut a, mut b) = (vec![0f64; bins], vec![0f64; bins]);
        for _ in 0..n {
            a[new()] += 1.0;
            b[old()] += 1.0;
        }
        let chi2 = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| *x + *y > 0.0)
            .map(|(x, y)| (x - y) * (x - y) / (x + y))
            .sum();
        let df = (bins - 1) as f64;
        (chi2, df + 10.0 * (2.0 * df).sqrt())
    }

    #[test]
    fn label_driven_categoricals_keep_the_row_generators_law() {
        let (mut new, mut old) = (Prng::seeded(1), Prng::seeded(2));
        for (name, strength, card) in AUX_CATEGORICALS {
            let law = LabelDriven::new(strength, card);
            for label in [false, true] {
                let (chi2, bound) = chi_square(
                    card,
                    200_000,
                    || law.draw(&mut new, label) as usize,
                    || categorical_value(&mut old, label, strength, card),
                );
                assert!(
                    chi2 < bound,
                    "{name}, label {label}: χ² {chi2:.1} ≥ {bound:.1}"
                );
                // And the test can tell the two label classes apart.
                let (flipped, bound) = chi_square(
                    card,
                    200_000,
                    || law.draw(&mut new, label) as usize,
                    || categorical_value(&mut old, !label, strength, card),
                );
                assert!(flipped > bound, "{name}: label flip reads χ² {flipped:.1}");
            }
        }
    }

    #[test]
    fn one_draw_noisy_predictors_keep_bernoulli_then_below() {
        let (mut new, mut old) = (Prng::seeded(3), Prng::seeded(4));
        for (name, fidelity) in NOISY_PREDICTORS {
            for (groups, group) in [(7, 0), (8, 5), (30, 29)] {
                let noisy = NoisyGroup::new(fidelity, groups);
                let (chi2, bound) = chi_square(
                    groups,
                    200_000,
                    || noisy.draw(&mut new, group) as usize,
                    || {
                        if old.bernoulli(fidelity) {
                            group
                        } else {
                            old.below(groups)
                        }
                    },
                );
                assert!(
                    chi2 < bound,
                    "{name} over {groups} groups: χ² {chi2:.1} ≥ {bound:.1}"
                );
            }
        }
    }

    #[test]
    fn the_normal_sampler_has_the_normal_moments_and_quantiles() {
        let normal = Ziggurat::get();
        let mut rng = Prng::seeded(5);
        let mut draws: Vec<f64> = (0..400_000).map(|_| normal.draw(&mut rng)).collect();
        let acc = Accumulator::from_slice(&draws);
        assert!(acc.mean().abs() < 0.01, "mean {}", acc.mean());
        assert!(
            (acc.variance() - 1.0).abs() < 0.01,
            "variance {}",
            acc.variance()
        );
        let moment = |k: i32| draws.iter().map(|x| x.powi(k)).sum::<f64>() / draws.len() as f64;
        assert!(moment(3).abs() < 0.03, "skew {}", moment(3));
        assert!((moment(4) - 3.0).abs() < 0.06, "kurtosis {}", moment(4));
        // Exact quantiles: the 1/5/50/95/99 % ones read off the sorted
        // draws, and all of them — out to the tail path, past the base
        // layer's edge at 3.44 — as bins for a χ² against the normal.
        let quantiles = [
            (1e-4, -3.719_016_485_455_68),
            (1e-3, -3.090_232_306_167_813),
            (0.01, -2.326_347_874_040_840_8),
            (0.05, -1.644_853_626_951_472_6),
            (0.25, -0.674_489_750_196_081_7),
            (0.5, 0.0),
            (0.75, 0.674_489_750_196_081_7),
            (0.95, 1.644_853_626_951_471_5),
            (0.99, 2.326_347_874_040_840_8),
            (0.999, 3.090_232_306_167_813),
            (0.9999, 3.719_016_485_455_708_4),
        ];
        draws.sort_by(f64::total_cmp);
        for (q, z) in quantiles {
            if [0.01, 0.05, 0.5, 0.95, 0.99].contains(&q) {
                let got = draws[(q * draws.len() as f64) as usize];
                assert!((got - z).abs() < 0.02, "{q} quantile {got} vs {z}");
            }
        }
        let mut chi2 = 0.0;
        let mut below = (0.0, 0);
        for (q, z) in quantiles.into_iter().chain([(1.0, f64::INFINITY)]) {
            let count = draws.partition_point(|&x| x < z);
            let expected = (q - below.0) * draws.len() as f64;
            let observed = (count - below.1) as f64;
            chi2 += (observed - expected).powi(2) / expected;
            below = (q, count);
        }
        let df = quantiles.len() as f64;
        assert!(
            chi2 < df + 10.0 * (2.0 * df).sqrt(),
            "χ² {chi2:.1} over {df} df"
        );
    }

    #[test]
    fn a_page_regenerated_alone_has_the_whole_tables_cells() {
        let spec = DatasetSpec {
            rows: 2 * PAGE_ROWS + 100,
            ..LENDING_CLUB
        };
        let whole = Dataset::generate(spec, 9).table;
        let (plan, streams) = row_plan(&spec, 9);
        for (page, rows) in plan.chunks(PAGE_ROWS).enumerate() {
            let columns = build_columns(&spec, rows, &streams, page);
            let alone = Table::from_columns(dataset_schema(&spec), columns).unwrap();
            for r in 0..rows.len() {
                let row = page * PAGE_ROWS + r;
                assert_eq!(alone.row(r), whole.row(row), "page {page}, row {row}");
            }
        }
    }

    #[test]
    fn columnar_generation_equals_the_row_oracle() {
        for spec in all_specs() {
            let k = spec.groups;
            for rows in [k, k + 1, 63, 64, 65, 200, 2_000, 2 * PAGE_ROWS + 1] {
                for seed in [0, 7, 0xdead_beef] {
                    let spec = DatasetSpec { rows, ..spec };
                    let columnar = Dataset::generate(spec, seed).table;
                    let by_rows = generate_by_rows(spec, seed);
                    let what = format!("{} @ {rows} rows, seed {seed}", spec.name);
                    assert_eq!(columnar, by_rows, "{what}");
                    assert_eq!(content_version(&columnar), by_rows.version(), "{what}");
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
        assert_eq!(content_version(&columnar), by_rows.version());
    }

    /// `Table::version` is the `version` half of every `PersistKey` and
    /// the schema fingerprint keys cross-table reuse: a generator change
    /// that moves either orphans every `--data-dir` ever written. Two
    /// numbers are pinned per table:
    ///
    /// * `content`, the fold of every cell (`Table::from_columns` over the
    ///   fully built columns). These are the ROADMAP 5(c) re-seed's
    ///   versions, recorded at revision 1; a change that moves any
    ///   generated cell moves one of them, and re-pinning them comes with
    ///   a bump of [`GENERATOR_REVISION`].
    /// * `recipe`, the version a generated table carries: revision, spec
    ///   and seed, so a bump re-pins all six. Moving to recipe versions
    ///   orphaned every `--data-dir` written before; the schema
    ///   fingerprints did not move.
    #[test]
    fn generated_versions_are_pinned() {
        assert_eq!(GENERATOR_REVISION, 1, "the content pins are revision 1's");
        for (spec, rows, seed, content, recipe, schema) in [
            (
                PROSPER,
                2_000,
                7,
                0x660b_f7c0_e257_b1df_u64,
                0x9961_db1f_c227_9943_u64,
                0x8b3e_bf6d_d7b4_775c_u64,
            ),
            (
                LENDING_CLUB,
                2_000,
                7,
                0xa387_c375_6144_9751,
                0x77cf_7294_cb5c_6339,
                0x8b3e_bf6d_d7b4_775c,
            ),
            (
                PROSPER,
                20_000,
                1,
                0xd7ad_3e05_d4c5_a78b,
                0x1796_f626_bc42_1305,
                0x8b3e_bf6d_d7b4_775c,
            ),
            (
                LENDING_CLUB,
                20_000,
                3,
                0x80bf_ae27_e507_d571,
                0x9f95_2fcd_c0c5_011d,
                0x8b3e_bf6d_d7b4_775c,
            ),
            (
                CENSUS,
                45_000,
                1,
                0x11e3_53b8_93a0_d3fb,
                0xb9c6_26af_c109_5c29,
                0x5f97_ebf5_fa97_b5b9,
            ),
            (
                MARKETING,
                41_000,
                1,
                0xe3f3_ed01_0ad5_9327,
                0x5570_eece_9576_c4e7,
                0x2f28_84a2_0e8d_f1a7,
            ),
        ] {
            let table = Dataset::generate(DatasetSpec { rows, ..spec }, seed).table;
            let what = format!("{} @ {rows} rows, seed {seed}", spec.name);
            assert_eq!(content_version(&table), content, "{what}: content");
            assert_eq!(table.version(), recipe, "{what}: recipe");
            assert_eq!(table.schema().fingerprint(), schema, "{what}: schema");
        }
    }

    /// Every spec field, the seed and the generator revision each move
    /// the recipe version; nothing else goes into it.
    #[test]
    fn recipe_versions_cover_every_spec_field_and_the_seed() {
        let version = |spec: DatasetSpec, seed: u64| {
            Recipe {
                spec,
                seed,
                plan: OnceLock::new(),
            }
            .version()
        };
        let base = version(PROSPER, 7);
        assert_eq!(base, version(PROSPER, 7), "deterministic");
        let variants = [
            DatasetSpec {
                name: "prosper2",
                ..PROSPER
            },
            DatasetSpec {
                rows: PROSPER.rows + 1,
                ..PROSPER
            },
            DatasetSpec {
                groups: PROSPER.groups + 1,
                ..PROSPER
            },
            DatasetSpec {
                selectivity: 0.46,
                ..PROSPER
            },
            DatasetSpec {
                size_dev: 1_522.0,
                ..PROSPER
            },
            DatasetSpec {
                sel_dev: 0.21,
                ..PROSPER
            },
            DatasetSpec {
                size_sel_corr: 0.21,
                ..PROSPER
            },
            DatasetSpec {
                predictor: "grade2",
                ..PROSPER
            },
        ];
        let mut seen = vec![base, version(PROSPER, 8)];
        seen.extend(variants.map(|spec| version(spec, 7)));
        let distinct: std::collections::BTreeSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "{seen:#x?}");
    }

    /// A fresh table serves what every `durable_cold` request reads — the
    /// predictor's groups and the label column and its stats — from its two
    /// eager columns: no auxiliary column is built, and the first one read
    /// is built alone.
    #[test]
    fn the_label_and_predictor_reads_build_no_auxiliary_column() {
        let spec = DatasetSpec {
            rows: 20_000,
            ..PROSPER
        };
        let table = Dataset::generate(spec, 1).table;
        let built = |table: &Table| -> Vec<usize> {
            (0..table.num_columns())
                .filter(|&idx| table.is_built(idx))
                .collect()
        };
        assert_eq!(built(&table), [PREDICTOR_AT, LABEL_AT]);
        table.group_by(spec.predictor).unwrap();
        table.column(LABEL_COLUMN).unwrap();
        let stats = table.column_stats(LABEL_COLUMN).unwrap();
        assert_eq!((stats.null_count, stats.distinct_count), (0, 2));
        assert_eq!(built(&table), [PREDICTOR_AT, LABEL_AT]);
        table.group_by("zip3").unwrap();
        let zip3 = table.schema().index_of("zip3").unwrap();
        assert_eq!(built(&table), [PREDICTOR_AT, zip3, LABEL_AT]);
    }

    /// The columns the row plan decides — the predictor and the hidden
    /// label, and so every answer a `grade`, `expr` or `naive` query
    /// returns — are cell for cell what they were before the re-seed:
    /// these fingerprints were recorded at its parent commit.
    #[test]
    fn predictor_and_label_cells_survive_the_re_seed() {
        for (spec, rows, seed, pinned) in [
            (PROSPER, 2_000, 7, 0xb0d5_7abc_ad71_57d6_u64),
            (LENDING_CLUB, 2_000, 7, 0xfe5a_e0b6_c045_58dd),
            (PROSPER, 20_000, 1, 0x3837_b574_31e5_be0e),
            (LENDING_CLUB, 20_000, 3, 0x19e7_b3ef_5484_8985),
            (CENSUS, 45_000, 1, 0x037f_03a1_392a_325c),
            (MARKETING, 41_000, 1, 0xb3dd_0e8a_4935_4e4b),
        ] {
            let table = Dataset::generate(DatasetSpec { rows, ..spec }, seed).table;
            let mut h = expred_stats::hash::Fnv64::new();
            for r in 0..rows {
                for column in [spec.predictor, LABEL_COLUMN] {
                    h.write_u64(table.value(r, column).unwrap().fingerprint());
                }
            }
            assert_eq!(
                h.finish(),
                pinned,
                "{} @ {rows} rows, seed {seed}",
                spec.name
            );
        }
    }

    #[test]
    fn specs_lookup() {
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
    #[should_panic(expected = "need two to 127 groups, not 128")]
    fn generate_refuses_more_groups_than_a_plan_byte_holds() {
        let groups = MAX_GROUPS + 1;
        Dataset::generate(DatasetSpec { groups, ..PROSPER }, 3);
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
    fn the_label_plane_packs_each_cells_low_bit_in_row_order() {
        let mut rng = Prng::seeded(5);
        for rows in [0, 1, 7, 8, 9, 63, 64, 65, 200, 4_097] {
            let plan: Vec<u8> = (0..rows).map(|_| rng.below(256) as u8).collect();
            let flags = RowSet::from_flags(plan.iter().map(|&cell| label_of(cell)));
            assert_eq!(label_plane(&plan), flags, "{rows} rows");
        }
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
        for name in ["annual_income", "debt_to_income"] {
            let field = ds.table.schema().field(name).unwrap();
            assert!(matches!(field.data_type(), DataType::Float | DataType::Int));
        }
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
