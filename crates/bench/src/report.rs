//! Machine-readable benchmark reports: `BENCH_<name>.json`.
//!
//! The text a bench prints is for humans watching one run; the JSON file
//! is for the *perf trajectory* — every PR's bench run leaves a
//! comparable artifact, so a regression is a diff, not an anecdote. The
//! schema is deliberately flat (one record per `(scenario, backend)`
//! measurement) and rendered by the workspace's own
//! [`JsonWriter`], because the workspace builds offline with no serde:
//!
//! ```json
//! {
//!   "bench": "pool",
//!   "results": [
//!     {
//!       "scenario": "batch_512_udf_100us",
//!       "backend": "worker_pool",
//!       "ns_per_probe": 13441.7,
//!       "speedup_vs_baseline": 7.6
//!     }
//!   ]
//! }
//! ```
//!
//! `speedup_vs_baseline` is relative to whichever backend the bench
//! declares as its baseline for the scenario (by convention
//! `sequential`; the baseline row itself reports `1.0`).
//!
//! Every row says what its number is — `"metric": "ns_per_row",
//! "unit": "ns"` after `backend` — since not every measurement is a time
//! per probe. The value still travels in `ns_per_probe`, the field
//! `bench-diff` joins and compares on.

use expred_stats::json::{JsonValue, JsonWriter};
use std::io::Write as _;
use std::path::PathBuf;

/// One measurement row of a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which workload shape was measured (e.g. `batch_512_udf_100us`).
    pub scenario: String,
    /// Which executor/backend ran it.
    pub backend: String,
    /// What `ns_per_probe` holds (e.g. `ns_per_row`).
    pub metric: String,
    /// The unit of `ns_per_probe` (e.g. `ns`).
    pub unit: String,
    /// The row's `metric`, in its `unit`.
    pub ns_per_probe: f64,
    /// Wall-clock ratio baseline/this for the same scenario (1.0 for the
    /// baseline itself; >1 is faster than baseline).
    pub speedup_vs_baseline: f64,
}

/// A bench's accumulated records, flushed to `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    records: Vec<BenchRecord>,
}

impl BenchReport {
    /// An empty report for the bench called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// Appends one measurement row: `value` is `metric`, in `unit`, and
    /// `speedup_vs_baseline` compares it with the scenario's baseline row
    /// (1.0 for the baseline itself, or for a row that has none).
    pub fn record(
        &mut self,
        scenario: &str,
        backend: &str,
        metric: &str,
        unit: &str,
        value: f64,
        speedup_vs_baseline: f64,
    ) {
        self.records.push(BenchRecord {
            scenario: scenario.to_owned(),
            backend: backend.to_owned(),
            metric: metric.to_owned(),
            unit: unit.to_owned(),
            ns_per_probe: value,
            speedup_vs_baseline,
        });
    }

    /// The bench this report belongs to (the `<name>` of its file).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rows recorded so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Renders the report as JSON (stable field order, two-space indent).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object().key("bench").str(&self.name);
        w.key("results").begin_array();
        for r in &self.records {
            w.begin_object();
            w.key("scenario").str(&r.scenario);
            w.key("backend").str(&r.backend);
            w.key("metric").str(&r.metric);
            w.key("unit").str(&r.unit);
            w.key("ns_per_probe").f64_sig3(r.ns_per_probe);
            w.key("speedup_vs_baseline").f64_sig3(r.speedup_vs_baseline);
            w.end_object();
        }
        w.end_array().end_object();
        w.finish() + "\n"
    }

    /// The file the report writes to: `BENCH_<name>.json`, placed in the
    /// workspace root when the bench runs under cargo (so artifacts from
    /// different benches land side by side), else the working directory.
    /// The root is found by walking up from the crate's manifest to the
    /// first ancestor holding a `Cargo.lock` — the depth of the calling
    /// crate inside the workspace doesn't matter.
    pub fn path(&self) -> PathBuf {
        let dir = std::env::var("CARGO_MANIFEST_DIR")
            .ok()
            .and_then(|manifest| {
                let mut dir = PathBuf::from(manifest);
                loop {
                    if dir.join("Cargo.lock").is_file() {
                        return Some(dir);
                    }
                    if !dir.pop() {
                        return None;
                    }
                }
            })
            .unwrap_or_else(|| PathBuf::from("."));
        dir.join(format!("BENCH_{}.json", self.name))
    }

    /// Writes `BENCH_<name>.json`, returning the path written.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Parses a report previously rendered by [`BenchReport::to_json`]
    /// (the schema in the module docs; field order within a record does
    /// not matter). The workspace builds offline with no serde, so this
    /// rides the shared [`expred_stats::json`] parser — `bench-diff` uses
    /// it to compare artifacts across PRs. The schema stays strict:
    /// unknown fields are rejected, so a typo in a hand-edited artifact
    /// fails loudly instead of vanishing.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(json).map_err(|e| e.to_string())?;
        let mut name: Option<String> = None;
        let mut records: Option<Vec<BenchRecord>> = None;
        for key in doc.keys() {
            let value = doc.get(key).expect("listed key is present");
            match key {
                "bench" => {
                    name = Some(
                        value
                            .as_str()
                            .ok_or("\"bench\" must be a string")?
                            .to_owned(),
                    )
                }
                "results" => {
                    let rows = value.as_array().ok_or("\"results\" must be an array")?;
                    records = Some(
                        rows.iter()
                            .map(record_from_json)
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                }
                other => return Err(format!("unexpected top-level field {other:?}")),
            }
        }
        if !matches!(doc, JsonValue::Object(_)) {
            return Err("a report must be a JSON object".to_owned());
        }
        Ok(Self {
            name: name.ok_or("missing \"bench\" field")?,
            records: records.ok_or("missing \"results\" field")?,
        })
    }
}

/// Extracts one measurement row, strictly: all six fields required,
/// unknown fields rejected, `null` measurements surfaced as NaN.
fn record_from_json(row: &JsonValue) -> Result<BenchRecord, String> {
    if !matches!(row, JsonValue::Object(_)) {
        return Err("each result row must be a JSON object".to_owned());
    }
    let (mut scenario, mut backend) = (None, None);
    let (mut metric, mut unit) = (None, None);
    let (mut ns_per_probe, mut speedup) = (None, None);
    let string = |value: &JsonValue, field: &str| {
        let text = value
            .as_str()
            .ok_or(format!("{field:?} must be a string"))?;
        Ok::<_, String>(Some(text.to_owned()))
    };
    let number_or_null = |value: &JsonValue, field: &str| match value {
        JsonValue::Null => Ok(f64::NAN),
        other => other
            .as_f64()
            .ok_or(format!("{field:?} must be a number or null")),
    };
    for key in row.keys() {
        let value = row.get(key).expect("listed key is present");
        match key {
            "scenario" => scenario = string(value, key)?,
            "backend" => backend = string(value, key)?,
            "metric" => metric = string(value, key)?,
            "unit" => unit = string(value, key)?,
            "ns_per_probe" => ns_per_probe = Some(number_or_null(value, "ns_per_probe")?),
            "speedup_vs_baseline" => speedup = Some(number_or_null(value, "speedup_vs_baseline")?),
            other => return Err(format!("unexpected record field {other:?}")),
        }
    }
    Ok(BenchRecord {
        scenario: scenario.ok_or("record missing \"scenario\"")?,
        backend: backend.ok_or("record missing \"backend\"")?,
        metric: metric.ok_or("record missing \"metric\"")?,
        unit: unit.ok_or("record missing \"unit\"")?,
        ns_per_probe: ns_per_probe.ok_or("record missing \"ns_per_probe\"")?,
        speedup_vs_baseline: speedup.ok_or("record missing \"speedup_vs_baseline\"")?,
    })
}

/// Mean wall-clock nanoseconds per unit of work: runs `f` once as a
/// warm-up, then `reps` timed repetitions over `units` logical units
/// each. The shared measurement loop behind the `BENCH_<name>.json`
/// emitters.
pub fn measure_ns_per_unit(units: u64, reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(units > 0 && reps > 0, "measure over at least one unit/rep");
    f();
    let begin = std::time::Instant::now();
    for _ in 0..reps {
        f();
    }
    begin.elapsed().as_nanos() as f64 / (reps as u64 * units) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let mut report = BenchReport::new("demo");
        report.record(
            "batch_8_udf_1us",
            "sequential",
            "ns_per_probe",
            "ns",
            1000.0,
            1.0,
        );
        report.record(
            "batch_8_udf_1us",
            "worker_pool",
            "ns_per_probe",
            "ns",
            250.0,
            4.0,
        );
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"scenario\": \"batch_8_udf_1us\""));
        assert!(json.contains("\"ns_per_probe\": 250.0"));
        assert!(json.contains("\"speedup_vs_baseline\": 4.0"));
        assert_eq!(json.matches("\"backend\"").count(), 2);
        // Exactly one trailing-comma-free closing per record list.
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(report.records().len(), 2);
    }

    #[test]
    fn committed_artifacts_re_render_byte_for_byte() {
        // The layout is the writer's pretty mode; every artifact in the
        // tree was rendered by this function, so each must reproduce.
        let root = BenchReport::new("x").path();
        let mut seen = 0;
        for entry in std::fs::read_dir(root.parent().unwrap()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).unwrap();
                let report = BenchReport::from_json(&text).expect(&name);
                assert_eq!(report.to_json(), text, "{name}");
                seen += 1;
            }
        }
        assert!(seen > 0, "no artifact beside Cargo.lock");
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let mut report = BenchReport::new("demo");
        report.record("s", "b", "ns_per_probe", "ns", f64::NAN, f64::INFINITY);
        let json = report.to_json();
        assert!(json.contains("\"ns_per_probe\": null"));
        assert!(json.contains("\"speedup_vs_baseline\": null"));
    }

    #[test]
    fn names_are_escaped() {
        let mut report = BenchReport::new("we\"ird");
        report.record("a\\b", "c\nd", "ns_per_probe", "ns", 1.0, 1.0);
        let json = report.to_json();
        assert!(json.contains("we\\\"ird"));
        assert!(json.contains("a\\\\b"));
        assert!(json.contains("c\\u000ad"));
    }

    #[test]
    fn path_lands_in_the_workspace_root() {
        let report = BenchReport::new("demo");
        let path = report.path();
        assert!(path.ends_with("BENCH_demo.json"));
    }

    #[test]
    fn json_round_trips() {
        let mut report = BenchReport::new("we\"ird");
        report.record(
            "batch_8_udf_1us",
            "sequential",
            "ns_per_probe",
            "ns",
            1000.5,
            1.0,
        );
        report.record("a\\b", "c\nd", "ns_per_probe", "ns", 250.0, 4.0);
        report.record("failed", "b", "ns_per_probe", "ns", f64::NAN, f64::INFINITY);
        report.record("compact", "page_images", "ns_per_row", "ns", 1.5, 1.0);
        let parsed = BenchReport::from_json(&report.to_json()).expect("own output parses");
        assert_eq!(parsed.name, report.name);
        assert_eq!(parsed.records().len(), 4);
        assert_eq!(parsed.records()[3], report.records()[3]);
        assert!(report
            .to_json()
            .contains("\"metric\": \"ns_per_row\",\n      \"unit\": \"ns\""));
        assert_eq!(parsed.records()[0], report.records()[0]);
        assert_eq!(parsed.records()[1].scenario, "a\\b");
        assert_eq!(parsed.records()[1].backend, "c\nd");
        // null (failed measurement) round-trips as NaN.
        assert!(parsed.records()[2].ns_per_probe.is_nan());
        assert!(parsed.records()[2].speedup_vs_baseline.is_nan());
    }

    #[test]
    fn parser_rejects_malformed_reports() {
        for bad in [
            "",
            "{",
            "{\"bench\": \"x\"}",
            "{\"results\": []}",
            "{\"bench\": \"x\", \"results\": [{\"scenario\": \"s\"}]}",
            "{\"bench\": \"x\", \"results\": [{\"scenario\": \"s\", \"backend\": \"b\", \
             \"ns_per_probe\": oops, \"speedup_vs_baseline\": 1.0}]}",
            "{\"bench\": \"x\", \"results\": [{\"scenario\": \"s\", \"backend\": \"b\", \
             \"metric\": \"m\", \"ns_per_probe\": 1.0, \"speedup_vs_baseline\": 1.0}]}",
            // A row that does not say what it measured.
            "{\"bench\": \"x\", \"results\": [{\"scenario\": \"s\", \"backend\": \"b\", \
             \"ns_per_probe\": 1.0, \"speedup_vs_baseline\": 1.0}]}",
        ] {
            assert!(BenchReport::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn empty_results_parse() {
        let report = BenchReport::new("empty");
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert!(parsed.records().is_empty());
    }

    #[test]
    fn measure_counts_units() {
        let mut calls = 0u64;
        let ns = measure_ns_per_unit(10, 3, || calls += 1);
        assert_eq!(calls, 4, "one warm-up + three timed reps");
        assert!(ns >= 0.0);
    }
}
