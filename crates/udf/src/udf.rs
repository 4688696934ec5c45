//! The boolean UDF abstraction and its concrete implementations.
//!
//! The paper's `f(ID)` is an arbitrary expensive black box — a credit
//! bureau call, an image classifier, a crowd task. For reproduction, the
//! evaluation protocol (§6.1) designates a hidden label attribute as the
//! UDF's answer: "we assume that the UDF f on each tuple returns the
//! value … of this attribute for that tuple". [`OracleUdf`] implements
//! exactly that; wrappers add timing or noise for robustness experiments.

use expred_table::{Column, Table};
use std::time::Duration;

/// A UDF bound to one table: `row -> answer`, every per-table lookup
/// (a column by name, say) already done. See [`BooleanUdf::bind`].
pub type BoundUdf<'a> = Box<dyn Fn(usize) -> bool + Send + Sync + 'a>;

/// A stable identity for one UDF *semantics*: two UDFs with the same id
/// must answer identically on every `(table, row)`.
///
/// Cross-query caching keys entries by `(UdfId, table id, table version)`
/// — a wrong id silently serves one predicate's answers to another, so
/// implementors must fold every answer-affecting parameter into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdfId(u64);

impl UdfId {
    /// Builds an id by hashing a kind tag and the answer-affecting
    /// parameters (FNV-1a, via the workspace's shared deterministic
    /// hasher).
    pub fn from_parts(kind: &str, parts: &[u64]) -> Self {
        let mut h = expred_stats::hash::Fnv64::new();
        h.write_str(kind);
        for &p in parts {
            h.write_u64(p);
        }
        Self(h.finish())
    }

    /// Hashes a string parameter into a part suitable for
    /// [`UdfId::from_parts`].
    pub fn str_part(s: &str) -> u64 {
        expred_stats::hash::fnv1a(s.as_bytes())
    }

    /// The raw id, for embedding into cache namespace keys.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// A boolean predicate over rows of a table — the expensive `f(ID) = 1`.
///
/// Implementations must be deterministic per `(table, row)` within one
/// query execution (the paper's model: re-evaluating a tuple returns the
/// same answer, which is why sampled tuples need not be re-evaluated).
pub trait BooleanUdf: Send + Sync {
    /// Evaluates the UDF on one row. This is the *expensive* call.
    fn evaluate(&self, table: &Table, row: usize) -> bool;

    /// The probe for `table`: what [`BooleanUdf::evaluate`] answers, with
    /// whatever depends on the table alone resolved once instead of on
    /// every row. The invoker binds once per query and probes through
    /// the result. Binding never evaluates and never fails — a UDF that
    /// cannot answer over `table` still says so from the probe.
    fn bind<'a>(&'a self, table: &'a Table) -> BoundUdf<'a> {
        Box::new(move |row| self.evaluate(table, row))
    }

    /// Short human-readable name for diagnostics.
    fn name(&self) -> &str {
        "udf"
    }

    /// Stable identity for cross-query caching, or `None` to opt out.
    ///
    /// The default opts out: an anonymous UDF never shares cached answers
    /// across queries (its per-query memo still works). Implementations
    /// whose answers are a pure function of declared parameters should
    /// return a [`UdfId`] folding in *all* of those parameters.
    fn fingerprint(&self) -> Option<UdfId> {
        None
    }

    /// Table columns this UDF reads, if it can declare them — lets a
    /// fallible surface reject a mistyped column as a typed error before
    /// any money is spent, instead of panicking mid-evaluation. The
    /// default declares nothing (no pre-validation possible).
    fn required_columns(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The evaluation-protocol UDF: answers from a hidden boolean column.
#[derive(Debug, Clone)]
pub struct OracleUdf {
    column: String,
}

impl OracleUdf {
    /// Answers from `column`, which must be a boolean column.
    pub fn new(column: impl Into<String>) -> Self {
        Self {
            column: column.into(),
        }
    }

    /// The backing column name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The label of `row` in the resolved `column`.
    fn label(&self, column: Option<&Column>, row: usize) -> bool {
        column
            .unwrap_or_else(|| panic!("oracle column {:?} missing", self.column))
            .bool_at(row)
            .unwrap_or_else(|| panic!("oracle column {:?} NULL/non-bool at row {row}", self.column))
    }
}

impl BooleanUdf for OracleUdf {
    fn evaluate(&self, table: &Table, row: usize) -> bool {
        self.label(table.column(&self.column), row)
    }

    /// Resolves the column by name once; the probe is an index into it.
    fn bind<'a>(&'a self, table: &'a Table) -> BoundUdf<'a> {
        let column = table.column(&self.column);
        Box::new(move |row| self.label(column, row))
    }

    fn name(&self) -> &str {
        "oracle"
    }

    fn fingerprint(&self) -> Option<UdfId> {
        Some(UdfId::from_parts(
            "oracle",
            &[UdfId::str_part(&self.column)],
        ))
    }

    fn required_columns(&self) -> Vec<String> {
        vec![self.column.clone()]
    }
}

/// Wraps a UDF with simulated per-call latency, for wall-clock experiments
/// where `o_e` models time rather than money.
pub struct SlowUdf<U> {
    inner: U,
    delay: Duration,
}

impl<U: BooleanUdf> SlowUdf<U> {
    /// Sleeps `delay` on every evaluation of `inner`.
    pub fn new(inner: U, delay: Duration) -> Self {
        Self { inner, delay }
    }
}

impl<U: BooleanUdf> BooleanUdf for SlowUdf<U> {
    fn evaluate(&self, table: &Table, row: usize) -> bool {
        std::thread::sleep(self.delay);
        self.inner.evaluate(table, row)
    }

    fn bind<'a>(&'a self, table: &'a Table) -> BoundUdf<'a> {
        let inner = self.inner.bind(table);
        Box::new(move |row| {
            std::thread::sleep(self.delay);
            inner(row)
        })
    }

    fn name(&self) -> &str {
        "slow"
    }

    /// Latency does not change answers, so a slow UDF shares its inner
    /// UDF's cache namespace — a warmed cache even absorbs the delay.
    fn fingerprint(&self) -> Option<UdfId> {
        self.inner.fingerprint()
    }

    fn required_columns(&self) -> Vec<String> {
        self.inner.required_columns()
    }
}

/// Wraps a UDF so a deterministic pseudo-random subset of rows gets a
/// flipped answer. Models subjective/approximate UDFs ("the output of the
/// UDF itself is subjective or approximate", §1); flips are a function of
/// `(seed, row)` so repeated evaluation stays consistent.
pub struct NoisyUdf<U> {
    inner: U,
    flip_probability: f64,
    seed: u64,
}

impl<U: BooleanUdf> NoisyUdf<U> {
    /// Flips `inner`'s answer on roughly `flip_probability` of rows.
    pub fn new(inner: U, flip_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_probability),
            "flip probability must be in [0,1]"
        );
        Self {
            inner,
            flip_probability,
            seed,
        }
    }

    fn flips(&self, row: usize) -> bool {
        // SplitMix64 of (seed, row) -> uniform in [0,1).
        let mut z = self.seed ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        u < self.flip_probability
    }
}

impl<U: BooleanUdf> BooleanUdf for NoisyUdf<U> {
    fn evaluate(&self, table: &Table, row: usize) -> bool {
        let truth = self.inner.evaluate(table, row);
        if self.flips(row) {
            !truth
        } else {
            truth
        }
    }

    fn name(&self) -> &str {
        "noisy"
    }

    /// Flips are a deterministic function of `(seed, row)`, so the noisy
    /// view is cacheable — under an id folding in both noise parameters,
    /// keeping it distinct from the clean UDF and from other noise seeds.
    fn fingerprint(&self) -> Option<UdfId> {
        let inner = self.inner.fingerprint()?;
        Some(UdfId::from_parts(
            "noisy",
            &[inner.as_u64(), self.flip_probability.to_bits(), self.seed],
        ))
    }

    fn required_columns(&self) -> Vec<String> {
        self.inner.required_columns()
    }
}

/// Conjunction of several UDFs — the "multiple predicates" extension
/// (paper §5) evaluates tuples against `f1 AND f2 AND …`.
pub struct ConjunctionUdf {
    parts: Vec<Box<dyn BooleanUdf>>,
}

impl ConjunctionUdf {
    /// Builds the conjunction of the given predicates (at least one).
    pub fn new(parts: Vec<Box<dyn BooleanUdf>>) -> Self {
        assert!(!parts.is_empty(), "conjunction needs at least one UDF");
        Self { parts }
    }
}

impl BooleanUdf for ConjunctionUdf {
    fn evaluate(&self, table: &Table, row: usize) -> bool {
        self.parts.iter().all(|p| p.evaluate(table, row))
    }

    fn name(&self) -> &str {
        "conjunction"
    }

    /// Identified iff every conjunct is; order matters for identity (it
    /// does not change answers, but keeping it avoids claiming an
    /// equivalence the ids cannot prove).
    fn fingerprint(&self) -> Option<UdfId> {
        let mut parts = Vec::with_capacity(self.parts.len());
        for p in &self.parts {
            parts.push(p.fingerprint()?.as_u64());
        }
        Some(UdfId::from_parts("conjunction", &parts))
    }

    fn required_columns(&self) -> Vec<String> {
        self.parts
            .iter()
            .flat_map(|p| p.required_columns())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::{DataType, Field, Schema, Value};

    fn table_with_labels(labels: &[bool]) -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("good", DataType::Bool),
        ]);
        let rows = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| vec![Value::Int(i as i64), Value::Bool(l)])
            .collect();
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn oracle_reads_hidden_column() {
        let t = table_with_labels(&[true, false, true]);
        let udf = OracleUdf::new("good");
        assert!(udf.evaluate(&t, 0));
        assert!(!udf.evaluate(&t, 1));
        assert!(udf.evaluate(&t, 2));
        assert_eq!(udf.name(), "oracle");
        assert_eq!(udf.column(), "good");
    }

    #[test]
    fn a_bound_udf_answers_like_evaluate() {
        let labels = [true, false, true, true];
        let t = table_with_labels(&labels);
        let udfs: [Box<dyn BooleanUdf>; 3] = [
            Box::new(OracleUdf::new("good")),
            Box::new(SlowUdf::new(
                OracleUdf::new("good"),
                Duration::from_micros(1),
            )),
            // No override: the default binds to `evaluate`.
            Box::new(NoisyUdf::new(OracleUdf::new("good"), 0.5, 3)),
        ];
        for udf in &udfs {
            let probe = udf.bind(&t);
            for row in 0..labels.len() {
                assert_eq!(
                    probe(row),
                    udf.evaluate(&t, row),
                    "{} row {row}",
                    udf.name()
                );
            }
        }
        // Binding a UDF that cannot answer is not an error yet; probing is.
        let missing = OracleUdf::new("nope");
        let probe = missing.bind(&t);
        let probed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe(0)));
        assert!(probed.is_err());
    }

    #[test]
    #[should_panic]
    fn oracle_panics_on_missing_column() {
        let t = table_with_labels(&[true]);
        OracleUdf::new("nope").evaluate(&t, 0);
    }

    #[test]
    fn noisy_udf_is_deterministic_per_row() {
        let t = table_with_labels(&[true; 64]);
        let udf = NoisyUdf::new(OracleUdf::new("good"), 0.5, 99);
        for row in 0..64 {
            assert_eq!(udf.evaluate(&t, row), udf.evaluate(&t, row));
        }
    }

    #[test]
    fn noisy_udf_flip_rate_tracks_probability() {
        let labels = vec![true; 4000];
        let t = table_with_labels(&labels);
        let udf = NoisyUdf::new(OracleUdf::new("good"), 0.25, 7);
        let flipped = (0..4000).filter(|&r| !udf.evaluate(&t, r)).count();
        let rate = flipped as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn noisy_udf_zero_probability_is_transparent() {
        let t = table_with_labels(&[true, false, true, false]);
        let udf = NoisyUdf::new(OracleUdf::new("good"), 0.0, 1);
        for r in 0..4 {
            assert_eq!(udf.evaluate(&t, r), OracleUdf::new("good").evaluate(&t, r));
        }
    }

    #[test]
    fn conjunction_ands_parts() {
        let t = table_with_labels(&[true, false]);
        let udf = ConjunctionUdf::new(vec![
            Box::new(OracleUdf::new("good")),
            Box::new(OracleUdf::new("good")),
        ]);
        assert!(udf.evaluate(&t, 0));
        assert!(!udf.evaluate(&t, 1));
    }

    #[test]
    fn fingerprints_separate_semantics_not_latency() {
        let clean = OracleUdf::new("good");
        let other = OracleUdf::new("bad");
        assert_ne!(clean.fingerprint(), other.fingerprint());
        assert_eq!(
            OracleUdf::new("good").fingerprint(),
            clean.fingerprint(),
            "same column, same identity"
        );
        // Latency wrapping keeps the identity; noise changes it.
        let slow = SlowUdf::new(OracleUdf::new("good"), Duration::from_millis(1));
        assert_eq!(slow.fingerprint(), clean.fingerprint());
        let noisy_a = NoisyUdf::new(OracleUdf::new("good"), 0.1, 1);
        let noisy_b = NoisyUdf::new(OracleUdf::new("good"), 0.1, 2);
        assert_ne!(noisy_a.fingerprint(), clean.fingerprint());
        assert_ne!(noisy_a.fingerprint(), noisy_b.fingerprint());
        // Conjunctions identify iff all parts do; order is significant.
        let ab = ConjunctionUdf::new(vec![
            Box::new(OracleUdf::new("good")),
            Box::new(OracleUdf::new("bad")),
        ]);
        let ba = ConjunctionUdf::new(vec![
            Box::new(OracleUdf::new("bad")),
            Box::new(OracleUdf::new("good")),
        ]);
        assert!(ab.fingerprint().is_some());
        assert_ne!(ab.fingerprint(), ba.fingerprint());
        // An anonymous UDF opts out, and poisons any conjunction.
        struct Anon;
        impl BooleanUdf for Anon {
            fn evaluate(&self, _: &Table, _: usize) -> bool {
                true
            }
        }
        assert_eq!(Anon.fingerprint(), None);
        let poisoned = ConjunctionUdf::new(vec![Box::new(Anon), Box::new(OracleUdf::new("good"))]);
        assert_eq!(poisoned.fingerprint(), None);
    }

    #[test]
    fn slow_udf_delegates() {
        let t = table_with_labels(&[true]);
        let udf = SlowUdf::new(OracleUdf::new("good"), Duration::from_millis(1));
        let start = std::time::Instant::now();
        assert!(udf.evaluate(&t, 0));
        assert!(start.elapsed() >= Duration::from_millis(1));
    }
}
