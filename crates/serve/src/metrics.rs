//! Live serving metrics: lock-free counters and latency histograms,
//! rendered as exposition text (`GET /metrics`) or JSON
//! (`GET /metrics.json`).
//!
//! Everything here is updated on the request path, so it is all atomics:
//! counters are relaxed `fetch_add`s and the histograms are fixed arrays
//! of atomic buckets — no locks, no allocation per observation.
//!
//! Both exports are renderers over **one walk** of counter sections
//! (`ServeMetrics::walk`): the server's own, each route's, then per
//! tenant whatever [`crate::Tenant::counter_sections`]
//! yields — the engine's sections ([`expred_core::QueryEngine::counter_sections`]:
//! engine, cache, result memo, derived, persist, bill) and the table
//! tier's — and the registry's pool. A section carries its JSON key and
//! its text prefix, and a counter set is declared once
//! ([`expred_stats::counter_set!`]), so the two exports cannot disagree
//! on which sections or counters exist: a new counter is one line in its
//! set, a new section one line in its owner's walk, and no edit here.

use crate::gate::AdmissionGate;
use crate::tenant::TenantRegistry;
use expred_stats::counters::{CounterSet, Section};
use expred_stats::json::{counters_to_text, JsonWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Everything the renderers snapshot besides [`ServeMetrics`] itself:
/// the two admission gates and the tenant registry.
pub struct MetricsContext<'a> {
    /// The `/query` in-flight gate.
    pub gate: &'a AdmissionGate,
    /// The connection gate (open-connection gauge + shed counter).
    pub connections: &'a AdmissionGate,
    /// Per-tenant engines.
    pub tenants: &'a TenantRegistry,
}

/// Log-scale latency histogram over microseconds.
///
/// Bucket `i` covers `[2^(i-1), 2^i)` µs (bucket 0 is `< 1` µs); the
/// last bucket absorbs everything ≥ ~17 minutes. Quantiles are resolved
/// to a bucket's upper bound, so they are conservative (never
/// under-report) with ≤ 2× resolution — plenty for p50/p99 dashboards.
pub struct LatencyHistogram {
    buckets: [AtomicU64; Self::BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    const BUCKETS: usize = 31;

    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; Self::BUCKETS],
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    fn bucket_index(micros: u64) -> usize {
        let bits = 64 - micros.leading_zeros() as usize;
        bits.min(Self::BUCKETS - 1)
    }

    /// Upper bound of bucket `i`, in microseconds.
    fn bucket_upper_micros(index: usize) -> u64 {
        if index >= Self::BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << index
        }
    }

    /// Records one observation.
    pub fn observe(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket upper bound in
    /// microseconds; 0 when empty.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in snapshot.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Self::bucket_upper_micros(i);
            }
        }
        Self::bucket_upper_micros(Self::BUCKETS - 1)
    }

    /// Median, in microseconds.
    pub fn p50_micros(&self) -> u64 {
        self.quantile_micros(0.50)
    }

    /// 99th percentile, in microseconds.
    pub fn p99_micros(&self) -> u64 {
        self.quantile_micros(0.99)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One route's request counter and latency histogram.
pub struct RouteMetrics {
    /// Route name as exported (`query`, `metrics`, `health`).
    pub name: &'static str,
    /// Requests that reached this route's handler.
    pub requests: AtomicU64,
    /// End-to-end handler latency (parse → response built).
    pub latency: LatencyHistogram,
}

impl RouteMetrics {
    const fn new(name: &'static str) -> Self {
        Self {
            name,
            requests: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    /// Records one handled request.
    pub fn observe(&self, latency: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latency.observe(latency);
    }
}

/// The server-wide counters backing `GET /metrics`.
pub struct ServeMetrics {
    /// Connections accepted by the listener.
    pub connections_accepted: AtomicU64,
    /// Requests answered, by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (client errors, including 429 sheds).
    pub responses_4xx: AtomicU64,
    /// 5xx responses (panics and tenant-capacity refusals).
    pub responses_5xx: AtomicU64,
    /// Handler panics converted to 500s.
    pub panics: AtomicU64,
    /// `/query` route metrics.
    pub query: RouteMetrics,
    /// `/metrics` + `/metrics.json` route metrics.
    pub metrics: RouteMetrics,
    /// `/health` route metrics.
    pub health: RouteMetrics,
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    pub const fn new() -> Self {
        Self {
            connections_accepted: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            query: RouteMetrics::new("query"),
            metrics: RouteMetrics::new("metrics"),
            health: RouteMetrics::new("health"),
        }
    }

    /// Buckets a response status into its class counter.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            500..=599 => &self.responses_5xx,
            _ => &self.responses_4xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn server_counters(&self, ctx: &MetricsContext<'_>) -> [(&'static str, u64); 12] {
        [
            (
                "connections_accepted",
                self.connections_accepted.load(Ordering::Relaxed),
            ),
            ("connections_open", ctx.connections.in_flight() as u64),
            ("connections_capacity", ctx.connections.capacity() as u64),
            ("connections_shed", ctx.connections.shed()),
            ("responses_2xx", self.responses_2xx.load(Ordering::Relaxed)),
            ("responses_4xx", self.responses_4xx.load(Ordering::Relaxed)),
            ("responses_5xx", self.responses_5xx.load(Ordering::Relaxed)),
            ("panics", self.panics.load(Ordering::Relaxed)),
            ("admitted", ctx.gate.admitted()),
            ("shed", ctx.gate.shed()),
            ("in_flight", ctx.gate.in_flight() as u64),
            ("in_flight_capacity", ctx.gate.capacity() as u64),
        ]
    }

    /// The one walk both exports render: serving counters, per-route
    /// latency summaries, every tenant's sections, then the shared worker
    /// pool's (when engines are pooled). Each section is named here, or by
    /// the layer that owns it, exactly once.
    fn walk(&self, ctx: &MetricsContext<'_>, emit: &mut dyn FnMut(Event<'_>)) {
        let server = self.server_counters(ctx);
        emit(Event::Section(Section::new("server", "serve"), &server));
        emit(Event::Open("routes", None));
        for route in [&self.query, &self.metrics, &self.health] {
            emit(Event::Open(route.name, Some(("route", route.name))));
            emit(Event::Section(
                Section::new("", "serve_route"),
                &[
                    ("requests", route.requests.load(Ordering::Relaxed)),
                    ("latency_p50_micros", route.latency.p50_micros()),
                    ("latency_p99_micros", route.latency.p99_micros()),
                ],
            ));
            // The one value the text export does not carry: a float.
            emit(Event::JsonOnly(&|w| {
                w.key("latency_mean_micros")
                    .f64_tenths(route.latency.mean_micros());
            }));
            emit(Event::Close);
        }
        emit(Event::Close);
        emit(Event::Open("tenants", None));
        for tenant in ctx.tenants.snapshot() {
            emit(Event::Open(tenant.name(), Some(("tenant", tenant.name()))));
            tenant.counter_sections(&mut |section, set| emit(Event::Section(section, set)));
            emit(Event::Close);
        }
        emit(Event::Close);
        ctx.tenants
            .counter_sections(&mut |section, set| emit(Event::Section(section, set)));
    }

    /// Exposition-format text for `GET /metrics`: one
    /// `prefix_counter{label="…"} value` line per counter of the walk,
    /// labelled by the enclosing labelled object (they never nest).
    pub fn render_text(&self, ctx: &MetricsContext<'_>) -> String {
        let mut out = String::new();
        let mut label: Option<(&'static str, String)> = None;
        self.walk(ctx, &mut |event| match event {
            Event::Open(_, labelled) => {
                label = labelled.map(|(name, value)| (name, value.to_owned()));
            }
            Event::Close => label = None,
            Event::Section(section, counters) => {
                let labels: Vec<_> = label.iter().map(|(n, v)| (*n, v.as_str())).collect();
                out.push_str(&counters_to_text(section.prefix, &labels, counters));
            }
            Event::JsonOnly(_) => {}
        });
        out
    }

    /// JSON snapshot for `GET /metrics.json` — same walk, one object.
    /// The `"pool"` key is present only when engines run on the shared
    /// worker pool.
    pub fn render_json(&self, ctx: &MetricsContext<'_>) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.walk(ctx, &mut |event| match event {
            Event::Open(key, _) => {
                w.key(key).begin_object();
            }
            Event::Close => {
                w.end_object();
            }
            Event::Section(section, counters) if section.key.is_empty() => {
                counters.visit(&mut |name, value| {
                    w.key(name).u64(value);
                });
            }
            Event::Section(section, counters) => {
                w.key(section.key).counters(counters);
            }
            Event::JsonOnly(write) => write(&mut w),
        });
        w.end_object();
        w.finish()
    }
}

/// One step of [`ServeMetrics::walk`], as both renderers see it.
enum Event<'a> {
    /// Enters the JSON object of this key; text lines inside it carry the
    /// label (`name="value"`), when one is given.
    Open(&'a str, Option<(&'static str, &'a str)>),
    /// Leaves the innermost open object.
    Close,
    /// One counter set, under its JSON key (empty: inline in the open
    /// object) and its text prefix.
    Section(Section, &'a dyn CounterSet),
    /// A value only the JSON export carries.
    JsonOnly(&'a dyn Fn(&mut JsonWriter)),
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::EngineConfig;
    use expred_stats::json::JsonValue;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50_micros(), 0, "empty histogram reads zero");
        for micros in [3u64, 3, 3, 3, 3, 3, 3, 3, 3, 1000] {
            h.observe(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 10);
        // 3 µs lands in (2,4]; its conservative upper bound is 4.
        assert_eq!(h.p50_micros(), 4);
        // The single 1 ms outlier owns the p99 rank (ceil(0.99*10)=10).
        assert_eq!(h.p99_micros(), 1024);
        assert!((h.mean_micros() - 102.7).abs() < 1e-9);
    }

    #[test]
    fn histogram_extremes_stay_in_range() {
        let h = LatencyHistogram::new();
        h.observe(Duration::ZERO);
        assert_eq!(h.p50_micros(), 1, "sub-microsecond bucket upper bound");
        h.observe(Duration::from_secs(10_000_000));
        assert_eq!(h.p99_micros(), u64::MAX, "overflow bucket is absorbing");
    }

    fn context<'a>(
        gate: &'a AdmissionGate,
        connections: &'a AdmissionGate,
        tenants: &'a TenantRegistry,
    ) -> MetricsContext<'a> {
        MetricsContext {
            gate,
            connections,
            tenants,
        }
    }

    #[test]
    fn render_text_has_serving_route_and_tenant_lines() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(4);
        let connections = AdmissionGate::new(64);
        let tenants = TenantRegistry::new(4, 2, EngineConfig::default());
        tenants.route("acme").unwrap();
        metrics.record_status(200);
        metrics.query.observe(Duration::from_micros(120));
        let text = metrics.render_text(&context(&gate, &connections, &tenants));
        assert!(text.contains("serve_responses_2xx 1\n"));
        assert!(text.contains("serve_in_flight_capacity 4\n"));
        assert!(text.contains("serve_connections_capacity 64\n"));
        assert!(text.contains("serve_connections_open 0\n"));
        assert!(text.contains("serve_route_requests{route=\"query\"} 1\n"));
        assert!(text.contains("serve_route_latency_p50_micros{route=\"query\"} 128\n"));
        assert!(text.contains("engine_queries{tenant=\"acme\"} 0\n"));
        assert!(text.contains("engine_cache_hits{tenant=\"acme\"} 0\n"));
        assert!(text.contains("engine_memo_hits{tenant=\"acme\"} 0\n"));
        assert!(text.contains("engine_tables{tenant=\"acme\"} 0\n"));
        assert!(text.contains("engine_table_misses{tenant=\"acme\"} 0\n"));
        assert!(text.contains("engine_table_materialize_micros{tenant=\"acme\"} 0\n"));
        // A slow query whose table had been evicted shows up as a miss.
        let acme = tenants.route("acme").unwrap();
        let key = |seed| crate::api::TableKey {
            spec: "prosper".into(),
            rows: 100,
            seed,
        };
        for seed in [1, 2, 3, 1] {
            acme.dataset(&key(seed));
        }
        let text = metrics.render_text(&context(&gate, &connections, &tenants));
        assert!(text.contains("engine_tables{tenant=\"acme\"} 2\n"));
        assert!(
            text.contains("engine_table_misses{tenant=\"acme\"} 4\n"),
            "seed 1 was evicted by seed 3 and materialized again"
        );
    }

    #[test]
    fn render_exports_persist_counters_only_with_persistence() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(4);
        let connections = AdmissionGate::new(64);
        // In-memory tenants: no persist section anywhere.
        let tenants = TenantRegistry::new(4, 2, EngineConfig::default());
        let mem_tenant = tenants.route("mem").unwrap();
        let text = metrics.render_text(&context(&gate, &connections, &tenants));
        assert!(!text.contains("engine_persist_"));
        let doc = JsonValue::parse(&metrics.render_json(&context(&gate, &connections, &tenants)))
            .unwrap();
        let mem = doc.get("tenants").unwrap().get("mem").unwrap();
        assert!(mem.get("persist").is_none());
        mem_tenant.dataset(&crate::api::TableKey {
            spec: "lc".into(),
            rows: 100,
            seed: 1,
        });
        let doc = JsonValue::parse(&metrics.render_json(&context(&gate, &connections, &tenants)))
            .unwrap();
        let mem = doc.get("tenants").unwrap().get("mem").unwrap();
        assert_eq!(mem.get("tables").unwrap().as_u64(), Some(1));
        assert_eq!(mem.get("table_misses").unwrap().as_u64(), Some(1));
        assert_eq!(
            mem.get("table_materialize_micros").unwrap().as_u64(),
            Some(mem_tenant.table_materialize_micros()),
            "object closes correctly"
        );

        // Persistent tenants: both renderers grow a persist section.
        let root = std::env::temp_dir().join(format!(
            "expred-metrics-persist-{}-{:p}",
            std::process::id(),
            &metrics as *const _
        ));
        let persistent = TenantRegistry::new(
            4,
            2,
            EngineConfig {
                data_dir: Some(root.clone()),
                ..EngineConfig::default()
            },
        );
        persistent.route("disk").unwrap();
        let text = metrics.render_text(&context(&gate, &connections, &persistent));
        assert!(text.contains("engine_persist_appended{tenant=\"disk\"} 0\n"));
        assert!(text.contains("engine_persist_rehydrated_rows{tenant=\"disk\"} 0\n"));
        let doc =
            JsonValue::parse(&metrics.render_json(&context(&gate, &connections, &persistent)))
                .expect("valid JSON with persist section");
        let disk = doc.get("tenants").unwrap().get("disk").unwrap();
        let persist = disk.get("persist").unwrap();
        assert_eq!(persist.get("appended").unwrap().as_u64(), Some(0));
        assert_eq!(
            persist.get("rehydrated_namespaces").unwrap().as_u64(),
            Some(0)
        );
        drop(persistent);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn render_exports_the_pool_section_only_when_pooled() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(4);
        let connections = AdmissionGate::new(64);
        let sequential = TenantRegistry::new(4, 2, EngineConfig::default());
        let text = metrics.render_text(&context(&gate, &connections, &sequential));
        assert!(!text.contains("pool_"));
        let json = metrics.render_json(&context(&gate, &connections, &sequential));
        assert!(JsonValue::parse(&json).unwrap().get("pool").is_none());

        let pooled = TenantRegistry::new(
            4,
            2,
            EngineConfig {
                pooled: true,
                ..EngineConfig::default()
            },
        );
        pooled.route("a").unwrap();
        let text = metrics.render_text(&context(&gate, &connections, &pooled));
        assert!(
            text.contains("pool_workers 0\n"),
            "no thread before a batch"
        );
        assert!(text.contains("pool_jobs 0\n"));
        let json = metrics.render_json(&context(&gate, &connections, &pooled));
        let doc = JsonValue::parse(&json).expect("valid JSON with pool section");
        let keys: Vec<&str> = match &doc {
            JsonValue::Object(entries) => entries.iter().map(|(key, _)| key.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        };
        assert_eq!(keys, ["server", "routes", "tenants", "pool"]);
        let pool = doc.get("pool").unwrap();
        assert!(pool.get("width").unwrap().as_u64().unwrap() >= 2);
        for name in [
            "workers",
            "probe_latency_ns",
            "jobs",
            "inline_batches",
            "rows",
        ] {
            assert_eq!(pool.get(name).unwrap().as_u64(), Some(0), "{name}");
        }
    }

    #[test]
    fn render_json_is_parseable_and_complete() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(2);
        let connections = AdmissionGate::new(8);
        let tenants = TenantRegistry::new(4, 2, EngineConfig::default());
        tenants.route("a").unwrap();
        tenants.route("b").unwrap();
        metrics.record_status(429);
        metrics.record_status(500);
        let plain = metrics.render_json(&context(&gate, &connections, &tenants));
        let doc = JsonValue::parse(&plain).expect("valid JSON");
        let server = doc.get("server").unwrap();
        assert_eq!(server.get("responses_4xx").unwrap().as_u64(), Some(1));
        assert_eq!(server.get("responses_5xx").unwrap().as_u64(), Some(1));
        assert_eq!(server.get("in_flight_capacity").unwrap().as_u64(), Some(2));
        assert_eq!(
            server.get("connections_capacity").unwrap().as_u64(),
            Some(8)
        );
        let routes = doc.get("routes").unwrap();
        for name in ["query", "metrics", "health"] {
            assert!(routes.get(name).is_some(), "route {name} exported");
        }
        let tenants_obj = doc.get("tenants").unwrap();
        for name in ["a", "b"] {
            let t = tenants_obj.get(name).unwrap();
            assert_eq!(
                t.get("engine").unwrap().get("queries").unwrap().as_u64(),
                Some(0)
            );
            assert!(t.get("cache").is_some());
            assert!(t.get("result_memo").is_some());
        }
    }
}
