//! Every bench has exactly one committed artifact and every artifact has
//! its bench: the `[[bench]]` names in this crate's manifest, minus
//! `_bench`, are the `BENCH_<name>.json` files at the workspace root.
//! Every row of every artifact names its metric and unit.

use expred_bench::BenchReport;
use std::collections::BTreeSet;

#[test]
fn every_bench_has_one_well_formed_artifact() {
    let manifest = include_str!("../Cargo.toml");
    let mut lines = manifest.lines().map(str::trim);
    let mut benches = BTreeSet::new();
    while lines.any(|line| line == "[[bench]]") {
        let name = lines
            .find_map(|line| line.strip_prefix("name = "))
            .expect("a [[bench]] entry names its bench");
        let name = name.trim_matches('"').strip_suffix("_bench");
        benches.insert(name.expect("bench names end in _bench").to_owned());
    }

    let root = BenchReport::new("x").path();
    let root = root.parent().expect("the artifact path has a directory");
    let mut artifacts = BTreeSet::new();
    for entry in std::fs::read_dir(root).expect("list the workspace root") {
        let file = entry.expect("dir entry").file_name();
        let file = file.to_string_lossy();
        let Some(name) = file
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(root.join(&*file)).expect("read artifact");
        let report = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(report.name(), name, "{file} names another bench");
        assert!(!report.records().is_empty(), "{file} has no rows");
        for row in report.records() {
            let what = format!("{file}: {}/{}", row.scenario, row.backend);
            assert!(
                row.ns_per_probe.is_finite() && row.speedup_vs_baseline.is_finite(),
                "{what} holds a non-finite value"
            );
            assert!(
                !row.metric.is_empty() && !row.unit.is_empty(),
                "{what} does not say what it measured"
            );
        }
        artifacts.insert(name.to_owned());
    }

    assert!(!benches.is_empty(), "no [[bench]] entry in the manifest");
    assert_eq!(benches, artifacts, "benches vs BENCH_*.json artifacts");
}
