//! Goldens of `GET /metrics` and `GET /metrics.json` over two fixed
//! scenarios, captured on the commit *before* the renderers became two
//! sinks over one section walk (`golden/metrics_*.{txt,json}`): every
//! line and key that commit exported must still be there, byte for byte
//! and in order. The only additions since are the per-tenant `derived`
//! and `bill` sections and a durable tenant's `persist_wal`, which the
//! comparison strips (and checks on their own). The one removal is the
//! pooled golden's `remote_udf` section (text) and `"remote"` key (JSON):
//! the server no longer fronts a remote UDF client, so there is no such
//! section to export, and those lines were cut from the golden. The
//! durable golden changed twice: when the engine stopped persisting
//! pass-rate counters, its `selectivity_seeded` line and key were cut,
//! and `flushed` fell by the one counter record its scenario used to
//! write (321 → 320); when the durable index began to keep only live
//! tables' pages in RAM, the persistence section gained
//! `resident_pages` (1: the scenario's one live page). A third test
//! holds the two exports to one set of sections and counters, so they
//! cannot drift apart again.
//!
//! Values that depend on the box or the clock — the pool's section, table
//! materialization time, the WAL's fsync count — are masked to `#` on
//! both sides.

use expred_core::{IntelSampleConfig, PredictorChoice, QueryRequest, QuerySpec};
use expred_serve::{
    AdmissionGate, EngineConfig, MetricsContext, ServeMetrics, TableKey, TenantRegistry,
};
use expred_stats::json::JsonValue;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Renders both exports of one scenario: fixed server traffic, then the
/// same four requests (a repeat among them) on every tenant.
fn render(registry: &TenantRegistry, tenants: &[&str]) -> (String, String) {
    let metrics = ServeMetrics::new();
    let gate = AdmissionGate::new(4);
    let connections = AdmissionGate::new(64);
    metrics.connections_accepted.fetch_add(2, Ordering::Relaxed);
    for status in [200, 200, 200, 429, 500] {
        metrics.record_status(status);
    }
    metrics.query.observe(Duration::from_micros(120));
    metrics.query.observe(Duration::from_micros(900));
    metrics.health.observe(Duration::from_micros(3));
    drop(gate.try_acquire());
    let key = TableKey {
        spec: "prosper".into(),
        rows: 400,
        seed: 1,
    };
    let naive = QueryRequest::naive(QuerySpec::paper_default()).with_seed(42);
    let sampled = |seed| {
        let grade = PredictorChoice::Fixed("grade".into());
        QueryRequest::intel_sample(IntelSampleConfig::experiment1(grade)).with_seed(seed)
    };
    for name in tenants {
        let tenant = registry.route(name).unwrap();
        let ds = tenant.dataset(&key);
        for request in [&naive, &sampled(7), &naive, &sampled(8)] {
            tenant.engine().submit(&ds, request).unwrap();
        }
        tenant.engine().flush_persistence().unwrap();
    }
    let ctx = MetricsContext {
        gate: &gate,
        connections: &connections,
        tenants: registry,
    };
    (metrics.render_text(&ctx), metrics.render_json(&ctx))
}

/// In-memory engines on the shared pool, two tenants.
fn pooled_scenario() -> (String, String) {
    let config = EngineConfig {
        pooled: true,
        ..EngineConfig::default()
    };
    render(&TenantRegistry::new(4, 2, config), &["acme", "zed"])
}

/// One persistent tenant on the sequential backend (`tag` keeps
/// concurrently running tests in separate directories).
fn durable_scenario(tag: &str) -> (String, String) {
    let name = format!("expred-metrics-{tag}-{}", std::process::id());
    let root = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&root);
    let config = EngineConfig {
        data_dir: Some(root.clone()),
        ..EngineConfig::default()
    };
    let rendered = render(&TenantRegistry::new(4, 2, config), &["disk"]);
    let _ = std::fs::remove_dir_all(&root);
    rendered
}

/// Counters whose values depend on the clock or the box, and the pool's
/// (all of them do); `"rows"` as a whole key is the pool's alone.
const MASKED: [&str; 2] = ["table_materialize_micros", "fsyncs"];
const POOL: [&str; 7] = [
    "width",
    "workers",
    "probe_latency_ns",
    "jobs",
    "inline_batches",
    "rows",
    "shared_jobs",
];

/// Masks the clock- and box-dependent values of a text export.
fn mask_text(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let (name, value) = line.rsplit_once(' ').expect("name value");
        let bare = name.split('{').next().unwrap();
        let masked = bare.starts_with("pool_") || MASKED.iter().any(|m| bare.ends_with(m));
        out.push_str(name);
        out.push(' ');
        out.push_str(if masked { "#" } else { value });
        out.push('\n');
    }
    out
}

/// Masks the clock- and box-dependent values of a JSON export: the number
/// after each masked `"key":` becomes `#`.
fn mask_json(json: &str) -> String {
    let mut out = json.to_owned();
    for key in MASKED.iter().chain(&POOL) {
        let needle = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&needle) {
            let start = from + at + needle.len();
            let digits = out[start..].bytes().take_while(u8::is_ascii_digit).count();
            out.replace_range(start..start + digits, "#");
            from = start;
        }
    }
    out
}

/// The span of `,"key":{...}` (a flat object, leading comma included).
fn flat_object(json: &str, key: &str) -> Option<std::ops::Range<usize>> {
    let start = json.find(&format!(",\"{key}\":{{"))?;
    Some(start..start + json[start..].find('}')? + 1)
}

/// The sections added since the goldens were captured: JSON key, text
/// line prefix.
const ADDED: [(&str, &str); 3] = [
    ("derived", "engine_derived_"),
    ("bill", "engine_bill_"),
    ("persist_wal", "engine_persist_wal_"),
];

/// The export as the parent commit wrote it: without the sections added
/// since.
fn without_additions(text: &str, json: &str) -> (String, String) {
    let text: String = text
        .lines()
        .filter(|l| !ADDED.iter().any(|(_, prefix)| l.starts_with(prefix)))
        .flat_map(|l| [l, "\n"])
        .collect();
    let mut json = json.to_owned();
    for (key, _) in ADDED {
        while let Some(span) = flat_object(&json, key) {
            json.replace_range(span, "");
        }
    }
    (text, json)
}

fn assert_matches_parent(rendered: (String, String), golden_text: &str, golden_json: &str) {
    let (text, json) = without_additions(&rendered.0, &rendered.1);
    assert_eq!(mask_text(&text), golden_text);
    assert_eq!(mask_json(&json), golden_json.trim_end());
}

#[test]
fn pooled_registry_exports_every_parent_line_and_key() {
    let rendered = pooled_scenario();
    // The additions: the audited bill and the table-memo counters, per tenant.
    let doc = JsonValue::parse(&rendered.1).unwrap();
    for tenant in ["acme", "zed"] {
        let sections = doc.get("tenants").unwrap().get(tenant).unwrap();
        let bill = sections.get("bill").unwrap();
        assert_eq!(
            bill.keys(),
            ["retrieved", "evaluated", "cache_hits", "reuse_hits"]
        );
        assert!(bill.get("evaluated").unwrap().as_u64().unwrap() > 0);
        let derived = sections.get("derived").unwrap();
        assert!(derived.get("hits").unwrap().as_u64().unwrap() > 0);
        assert!(rendered
            .0
            .contains(&format!("engine_bill_retrieved{{tenant=\"{tenant}\"}} ")));
    }
    assert_matches_parent(
        rendered,
        include_str!("golden/metrics_pooled.txt"),
        include_str!("golden/metrics_pooled.json"),
    );
}

#[test]
fn durable_registry_exports_every_parent_line_and_key() {
    let rendered = durable_scenario("golden");
    // The addition: the WAL's health, beside the persistence counters.
    let doc = JsonValue::parse(&rendered.1).unwrap();
    let tenant = doc.get("tenants").unwrap().get("disk").unwrap();
    let wal = tenant.get("persist_wal").unwrap();
    assert_eq!(wal.keys(), ["write_failures"]);
    assert_eq!(wal.get("write_failures").unwrap().as_u64(), Some(0));
    assert!(rendered
        .0
        .contains("engine_persist_wal_write_failures{tenant=\"disk\"} 0\n"));
    assert_matches_parent(
        rendered,
        include_str!("golden/metrics_durable.txt"),
        include_str!("golden/metrics_durable.json"),
    );
}

/// `(section, counter)` pairs of a text export: the line's name up to its
/// counter, with the tenant/route label folded into the section.
fn text_counters(text: &str, sections: &[(&str, &str)]) -> Vec<(String, String)> {
    text.lines()
        .map(|line| {
            let name = line.split([' ', '{']).next().unwrap();
            // Longest prefix wins: `engine_cache_hits` is `cache`, not `engine`.
            let (prefix, key) = sections
                .iter()
                .filter(|(prefix, _)| name.starts_with(&format!("{prefix}_")))
                .max_by_key(|(prefix, _)| prefix.len())
                .unwrap_or_else(|| panic!("no section owns {name}"));
            let label = line
                .split_once("=\"")
                .map(|(_, rest)| rest.split('"').next().unwrap());
            (
                [label.unwrap_or(""), key].join("/"),
                name[prefix.len() + 1..].to_owned(),
            )
        })
        .collect()
}

/// `(section, counter)` pairs of a JSON export, keyed like
/// [`text_counters`].
fn json_counters(doc: &JsonValue) -> Vec<(String, String)> {
    fn section(out: &mut Vec<(String, String)>, label: &str, key: &str, counters: &JsonValue) {
        for name in counters.keys() {
            // The one stated exception: a float, JSON-only.
            if name != "latency_mean_micros" {
                out.push(([label, key].join("/"), name.to_owned()));
            }
        }
    }
    let mut out = Vec::new();
    section(&mut out, "", "server", doc.get("server").unwrap());
    let routes = doc.get("routes").unwrap();
    for route in routes.keys() {
        section(&mut out, route, "route", routes.get(route).unwrap());
    }
    let tenants = doc.get("tenants").unwrap();
    for tenant in tenants.keys() {
        let sections = tenants.get(tenant).unwrap();
        for key in sections.keys() {
            match sections.get(key).unwrap() {
                counters @ JsonValue::Object(_) => section(&mut out, tenant, key, counters),
                // The table tier's counters sit inline in the tenant
                // object, and under the `engine` prefix in text.
                _ => out.push(([tenant, "engine"].join("/"), key.to_owned())),
            }
        }
    }
    if let Some(pool) = doc.get("pool") {
        section(&mut out, "", "pool", pool);
    }
    out
}

#[test]
fn text_and_json_exports_carry_the_same_sections_and_counters() {
    // Text prefix ↔ JSON key of every section (README's table).
    let sections = [
        ("serve", "server"),
        ("serve_route", "route"),
        ("engine", "engine"),
        ("engine_cache", "cache"),
        ("engine_memo", "result_memo"),
        ("engine_derived", "derived"),
        ("engine_persist", "persist"),
        ("engine_persist_wal", "persist_wal"),
        ("engine_bill", "bill"),
        ("pool", "pool"),
    ];
    for (text, json) in [pooled_scenario(), durable_scenario("parity")] {
        let mut from_json = json_counters(&JsonValue::parse(&json).unwrap());
        let mut from_text = text_counters(&text, &sections);
        from_text.sort();
        from_json.sort();
        assert_eq!(from_text, from_json);
    }
}
