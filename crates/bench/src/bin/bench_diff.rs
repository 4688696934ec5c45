//! `bench-diff` — compare two `BENCH_<name>.json` artifacts and fail on
//! regressions.
//!
//! ```text
//! cargo run -p expred-bench --bin bench-diff -- OLD.json NEW.json [--threshold 0.2]
//! ```
//!
//! Joins the two reports on `(scenario, backend)` and compares
//! `ns_per_probe`, printing both sides to three significant digits (the
//! precision the artifacts store) in the row's own unit. A row whose new time exceeds the old by more than the
//! threshold (default 20%) is a **regression**; if any exist the process
//! exits nonzero, which is how CI turns a perf trajectory into a gate.
//! Rows present on only one side are reported but not fatal (benches
//! legitimately gain and lose scenarios across PRs), as are failed
//! (`null`) measurements.

use expred_bench::{BenchRecord, BenchReport};
use expred_stats::json::JsonWriter;
use std::process::ExitCode;

struct Comparison {
    scenario: String,
    backend: String,
    /// What the values are in: the old row's `unit`.
    unit: String,
    old_ns: f64,
    new_ns: f64,
    /// new/old − 1: positive is slower.
    change: f64,
}

impl Comparison {
    fn new(old: &BenchRecord, new: &BenchRecord) -> Self {
        Self {
            scenario: old.scenario.clone(),
            backend: old.backend.clone(),
            unit: old.unit.clone(),
            old_ns: old.ns_per_probe,
            new_ns: new.ns_per_probe,
            change: new.ns_per_probe / old.ns_per_probe - 1.0,
        }
    }

    /// The row's line of the comparison table.
    fn line(&self, regressed: bool) -> String {
        format!(
            "{} {:<40} {:<22} {:>10} -> {:>10} {:<8} {:>+7.1}%",
            if regressed {
                "REGRESSION"
            } else {
                "        ok"
            },
            self.scenario,
            self.backend,
            sig3(self.old_ns),
            sig3(self.new_ns),
            self.unit,
            self.change * 100.0,
        )
    }
}

/// `value` to three significant digits, by the rule the artifacts are
/// written with ([`JsonWriter::f64_sig3`]).
fn sig3(value: f64) -> String {
    let mut w = JsonWriter::new();
    w.f64_sig3(value);
    w.finish()
}

fn load(path: &str) -> Result<BenchReport, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::from_json(&json).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run(old_path: &str, new_path: &str, threshold: f64) -> Result<bool, String> {
    let old = load(old_path)?;
    let new = load(new_path)?;
    if old.records().is_empty() {
        return Err(format!("{old_path} holds no measurements"));
    }

    let mut compared: Vec<Comparison> = Vec::new();
    let mut only_old: Vec<String> = Vec::new();
    let mut only_new: Vec<String> = Vec::new();
    let mut unmeasured = 0usize;
    for record in old.records() {
        match new
            .records()
            .iter()
            .find(|r| r.scenario == record.scenario && r.backend == record.backend)
        {
            Some(fresh) => {
                if record.ns_per_probe.is_finite()
                    && fresh.ns_per_probe.is_finite()
                    && record.ns_per_probe > 0.0
                {
                    compared.push(Comparison::new(record, fresh));
                } else {
                    unmeasured += 1;
                }
            }
            None => only_old.push(format!("{}/{}", record.scenario, record.backend)),
        }
    }
    for record in new.records() {
        if !old
            .records()
            .iter()
            .any(|r| r.scenario == record.scenario && r.backend == record.backend)
        {
            only_new.push(format!("{}/{}", record.scenario, record.backend));
        }
    }
    if compared.is_empty() {
        return Err(format!(
            "{old_path} and {new_path} share no measurable (scenario, backend) rows"
        ));
    }

    println!(
        "bench-diff: {} rows compared (threshold {:.0}%)",
        compared.len(),
        threshold * 100.0
    );
    // Worst first, so the regression (if any) leads the output.
    compared.sort_by(|a, b| b.change.total_cmp(&a.change));
    let mut regressions = 0usize;
    for row in &compared {
        let regressed = row.change > threshold;
        regressions += regressed as usize;
        println!("{}", row.line(regressed));
    }
    if unmeasured > 0 {
        println!("note: {unmeasured} rows skipped (null/zero measurement on either side)");
    }
    if !only_old.is_empty() {
        println!("note: dropped since old report: {}", only_old.join(", "));
    }
    if !only_new.is_empty() {
        println!("note: new since old report: {}", only_new.join(", "));
    }
    if regressions > 0 {
        println!(
            "bench-diff: {regressions} regression(s) beyond {:.0}%",
            threshold * 100.0
        );
    } else {
        println!("bench-diff: no regressions");
    }
    Ok(regressions == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 0.20f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "compare two BENCH_<name>.json artifacts; exit nonzero on regressions\n\n\
                     usage: bench-diff OLD.json NEW.json [--threshold 0.2]"
                );
                return ExitCode::SUCCESS;
            }
            "--threshold" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t.is_finite() && t >= 0.0 => threshold = t,
                _ => {
                    eprintln!("--threshold needs a nonnegative number");
                    return ExitCode::from(2);
                }
            },
            path => paths.push(path),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: bench-diff OLD.json NEW.json [--threshold 0.2]");
        return ExitCode::from(2);
    };
    match run(old_path, new_path, threshold) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("bench-diff: {err}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_report(dir: &std::path::Path, file: &str, rows: &[(&str, &str, f64)]) -> String {
        let mut report = BenchReport::new("t");
        for (scenario, backend, ns) in rows {
            report.record(scenario, backend, "ns_per_probe", "ns", *ns, 1.0);
        }
        let path = dir.join(file);
        std::fs::write(&path, report.to_json()).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn flags_only_regressions_beyond_threshold() {
        let dir = std::env::temp_dir().join("expred_bench_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let old = write_report(
            &dir,
            "old.json",
            &[("a", "seq", 100.0), ("b", "seq", 100.0)],
        );
        let ok = write_report(&dir, "ok.json", &[("a", "seq", 110.0), ("b", "seq", 90.0)]);
        let bad = write_report(
            &dir,
            "bad.json",
            &[("a", "seq", 150.0), ("b", "seq", 100.0)],
        );
        assert_eq!(run(&old, &ok, 0.2), Ok(true), "within threshold");
        assert_eq!(run(&old, &bad, 0.2), Ok(false), "50% slower must flag");
        assert_eq!(run(&old, &bad, 0.6), Ok(true), "threshold is respected");
        // Self-comparison is always clean.
        assert_eq!(run(&old, &old, 0.2), Ok(true));
    }

    #[test]
    fn lines_print_three_significant_digits_in_the_row_unit() {
        let mut report = BenchReport::new("t");
        report.record("append", "wal", "bytes_per_row", "B", 0.81, 1.0);
        report.record("probe", "seq", "ns_per_probe", "ns", 1234.56, 1.0);
        let mut fresh = BenchReport::new("t");
        fresh.record("append", "wal", "bytes_per_row", "B", 0.84, 1.0);
        fresh.record("probe", "seq", "ns_per_probe", "ns", 1234.56, 1.0);
        let sub_unit = Comparison::new(&report.records()[0], &fresh.records()[0]);
        let line = sub_unit.line(false);
        assert!(line.contains("0.81 ->"), "{line}");
        assert!(line.contains("0.84 B "), "{line}");
        assert!(line.ends_with("+3.7%"), "{line}");
        let probe = Comparison::new(&report.records()[1], &fresh.records()[1]).line(true);
        assert!(probe.starts_with("REGRESSION"), "{probe}");
        assert!(probe.contains("1234.6 ns "), "{probe}");
    }

    #[test]
    fn disjoint_reports_error() {
        let dir = std::env::temp_dir().join("expred_bench_diff_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let old = write_report(&dir, "old.json", &[("a", "seq", 100.0)]);
        let new = write_report(&dir, "new.json", &[("z", "seq", 100.0)]);
        assert!(run(&old, &new, 0.2).is_err());
        assert!(run("/does/not/exist.json", &old, 0.2).is_err());
    }
}
