//! End-to-end tests over real TCP: a served engine must be
//! indistinguishable from a direct [`QueryEngine::submit`] — byte-for-byte
//! on success bodies — while the HTTP edge alone absorbs malformed
//! input, saturation, and tenant exhaustion.

use expred_core::{QueryEngine, QueryRequest, QuerySpec};
use expred_serve::{
    serve, AdmissionGate, EngineConfig, Generator, HttpClient, ServeConfig, TableKey,
};
use expred_stats::json::JsonValue;
use expred_table::datasets::{Dataset, DatasetSpec, LENDING_CLUB, PROSPER};
use expred_udf::CostModel;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn small_config() -> ServeConfig {
    ServeConfig {
        max_rows: 5_000,
        ..ServeConfig::default()
    }
}

/// The direct-submit mirror of what the server does for one tenant:
/// one engine plus one table instance per [`TableKey`], exactly like the
/// tenant session, so memo hits and cross-query cache reuse line up.
struct Mirror {
    engine: QueryEngine,
    tables: std::collections::HashMap<TableKey, Dataset>,
}

impl Mirror {
    fn new() -> Self {
        Self {
            engine: QueryEngine::new(),
            tables: std::collections::HashMap::new(),
        }
    }

    /// Submits directly and renders with the same writer the HTTP layer
    /// uses.
    fn submit(&mut self, tenant: &str, key: &TableKey, request: &QueryRequest) -> String {
        let ds = self.tables.entry(key.clone()).or_insert_with(|| {
            let base = match key.spec.as_str() {
                "prosper" => PROSPER,
                "lc" => LENDING_CLUB,
                other => panic!("unknown spec {other}"),
            };
            Dataset::generate(
                DatasetSpec {
                    rows: key.rows,
                    ..base
                },
                key.seed,
            )
        });
        let outcome = self
            .engine
            .submit(ds, request)
            .expect("mirror submit succeeds");
        String::from_utf8(expred_serve::api::render_outcome(tenant, &outcome))
            .expect("a body is UTF-8")
    }
}

#[test]
fn health_metrics_and_routing() {
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();

    let health = client.get("/health").unwrap();
    assert_eq!((health.status, health.body_text().as_str()), (200, "ok\n"));

    let missing = client.get("/no/such/route").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.body_text().contains("\"error\":\"not_found\""));

    let wrong_method = client.post("/metrics", "{}").unwrap();
    assert_eq!(wrong_method.status, 405);

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.body_text();
    assert!(text.contains("serve_connections_accepted 1\n"));
    assert!(text.contains("serve_route_requests{route=\"health\"} 1\n"));

    let json = client.get("/metrics.json").unwrap();
    let doc = JsonValue::parse(&json.body_text()).expect("metrics.json parses");
    assert!(doc.get("server").is_some());
    assert!(doc.get("routes").unwrap().get("query").is_some());
}

#[test]
fn concurrent_clients_match_direct_submit_byte_identically() {
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let addr = handle.local_addr();

    // Each thread is one tenant running a sequence of distinct queries
    // over its own keep-alive connection. The mirror replays the same
    // sequence, in the same order, on a private engine — so memo hits,
    // cache reuse, and bills line up exactly, and every HTTP body must
    // equal the direct render byte-for-byte.
    let workers: Vec<_> = (0..4)
        .map(|worker| {
            std::thread::spawn(move || {
                let tenant = format!("tenant-{worker}");
                let mut mirror = Mirror::new();
                let mut client = HttpClient::connect(addr).unwrap();
                for step in 0..6u64 {
                    // Repeat step 0's query verbatim at step 5: the
                    // second serve answers from the result memo and must
                    // still render identically to the mirror's memoized
                    // outcome.
                    let (spec_name, rows, table_seed, query_seed) = if step == 5 {
                        ("prosper", 300, 7, 0)
                    } else if step % 2 == 0 {
                        ("prosper", 300, 7, step)
                    } else {
                        ("lc", 250, 8, step)
                    };
                    let body = format!(
                        "{{\"tenant\":\"{tenant}\",\
                         \"table\":{{\"spec\":\"{spec_name}\",\"rows\":{rows},\"seed\":{table_seed}}},\
                         \"seed\":{query_seed},\
                         \"query\":{{\"kind\":\"intel_sample\",\"predictor\":\"grade\"}}}}"
                    );
                    let response = client.post("/query", &body).unwrap();
                    assert_eq!(response.status, 200, "worker {worker} step {step}");

                    let key = TableKey {
                        spec: match spec_name {
                            "lc" => Generator::LendingClub,
                            _ => Generator::Prosper,
                        },
                        rows,
                        seed: table_seed,
                    };
                    let request = QueryRequest::intel_sample(expred_core::IntelSampleConfig::experiment1(
                        expred_core::PredictorChoice::Fixed("grade".into()),
                    ))
                    .with_seed(query_seed);
                    let expected = mirror.submit(&tenant, &key, &request);
                    assert_eq!(
                        response.body_text(),
                        expected,
                        "worker {worker} step {step}: HTTP body must be byte-identical"
                    );
                }
                mirror.engine.session_counts()
            })
        })
        .collect();
    let mirror_counts: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Bill conservation per tenant: the served engine was charged exactly
    // what the mirror was.
    for (worker, expected) in mirror_counts.iter().enumerate() {
        let tenant = handle.tenants().route(&format!("tenant-{worker}")).unwrap();
        assert_eq!(
            tenant.engine().session_counts(),
            *expected,
            "tenant-{worker} bill diverged from direct submit"
        );
        assert_eq!(tenant.engine().stats().queries, 6);
        assert_eq!(
            tenant.engine().stats().result_hits,
            1,
            "the repeated step answered from the memo"
        );
    }
}

#[test]
fn engine_error_variants_map_to_documented_statuses() {
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();
    let table = "\"table\":{\"spec\":\"prosper\",\"rows\":200}";

    // InvalidSpec → 400: contract parameters out of range.
    let r = client
        .post(
            "/query",
            &format!("{{{table},\"query\":{{\"kind\":\"naive\",\"alpha\":1.5}}}}"),
        )
        .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("\"error\":\"invalid_spec\""));

    // UnknownColumn → 404: well-formed request, nonexistent predictor.
    let r = client
        .post(
            "/query",
            &format!(
                "{{{table},\"query\":{{\"kind\":\"optimal\",\"predictor\":\"no_such_column\"}}}}"
            ),
        )
        .unwrap();
    assert_eq!(r.status, 404);
    assert!(r.body_text().contains("\"error\":\"unknown_column\""));

    // Work-multiplier fields are admission-controlled at the API door,
    // so requests the engine would reject as InvalidRequest (and
    // unbounded ones it would happily run) are a 400 before any engine
    // touch. The InvalidRequest → 400 mapping itself is unit-tested in
    // `api::tests::status_mapping_covers_every_engine_error_variant`.
    for query in [
        "{\"kind\":\"iterative\",\"predictor\":\"grade\",\"rounds\":0}",
        "{\"kind\":\"iterative\",\"predictor\":\"grade\",\"rounds\":9999}",
        "{\"kind\":\"intel_sample\",\"sample_fraction\":2.0}",
    ] {
        let r = client
            .post("/query", &format!("{{{table},\"query\":{query}}}"))
            .unwrap();
        assert_eq!(r.status, 400, "{query}");
        assert!(
            r.body_text().contains("\"error\":\"bad_request\""),
            "{query}"
        );
    }

    // Infeasible → 422: near-certain contract under the adversarial
    // correlation model, with the strict policy requested.
    let r = client
        .post(
            "/query",
            &format!(
                "{{{table},\"on_infeasible\":\"error\",\
                 \"query\":{{\"kind\":\"intel_sample\",\"predictor\":\"grade\",\
                 \"alpha\":0.999,\"beta\":0.999,\"rho\":0.999,\"corr\":\"unknown\"}}}}"
            ),
        )
        .unwrap();
    assert_eq!(r.status, 422);
    assert!(r.body_text().contains("\"error\":\"infeasible\""));

    // BadExpression has no HTTP surface (the wire schema only names
    // single predicates); its mapping is pinned by the unit test
    // `status_mapping_covers_every_engine_error_variant`.

    // Only the Infeasible probe counts as an engine query: InvalidSpec
    // never left the parser, and UnknownColumn failed `validate` before
    // the engine's query counter.
    let tenant = handle.tenants().route("default").unwrap();
    assert_eq!(tenant.engine().stats().queries, 1);
}

#[test]
fn malformed_http_and_json_answer_4xx() {
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let addr = handle.local_addr();

    // Garbage on the wire → 400, connection closed.
    let mut client = HttpClient::connect(addr).unwrap();
    let r = client.raw(b"NOT A REQUEST\r\n\r\n").unwrap();
    assert_eq!(r.status, 400);
    assert_eq!(r.header("connection"), Some("close"));

    // Invalid JSON body → 400 with offset detail.
    let mut client = HttpClient::connect(addr).unwrap();
    let r = client.post("/query", "{\"table\": nope}").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("not valid JSON"));

    // Unknown fields are rejected, not ignored.
    let r = client
        .post(
            "/query",
            "{\"table\":{\"spec\":\"prosper\",\"rows\":10},\"query\":{\"kind\":\"naive\"},\"frobnicate\":1}",
        )
        .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("unknown field"));

    // Missing required pieces.
    let r = client.post("/query", "{}").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("missing \\\"table\\\"") || r.body_text().contains("missing"));

    // Declared body beyond the limit → 413 before the body is read.
    let mut client = HttpClient::connect(addr).unwrap();
    let r = client
        .raw(b"POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: 99999999\r\n\r\n")
        .unwrap();
    assert_eq!(r.status, 413);

    // Rows beyond the configured bound → 400 (admission over memory).
    let mut client = HttpClient::connect(addr).unwrap();
    let r = client
        .post(
            "/query",
            "{\"table\":{\"spec\":\"prosper\",\"rows\":999999},\"query\":{\"kind\":\"naive\"}}",
        )
        .unwrap();
    assert_eq!(r.status, 400);

    // None of this ever created a tenant or touched an engine.
    assert!(handle.tenants().is_empty());
}

#[test]
fn saturation_sheds_immediately_and_conserves_the_bill() {
    // One slot, and every fresh evaluation takes 2ms — a naive query
    // over 400 rows holds the slot for ~1s.
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_in_flight: 1,
            engine: EngineConfig {
                udf_latency: Duration::from_millis(2),
                ..EngineConfig::default()
            },
            max_rows: 5_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();
    let body = "{\"table\":{\"spec\":\"prosper\",\"rows\":400},\"query\":{\"kind\":\"naive\"}}";

    let slow = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.post("/query", body).unwrap()
    });
    // Wait until the slow query actually holds the slot.
    while handle.gate().in_flight() == 0 {
        std::thread::yield_now();
    }

    // Everything else is shed in constant time with a load-derived
    // retry hint: the gate is at capacity, so the base hint is its
    // maximum (4) plus the deterministic 0/1 shed-count jitter.
    for _ in 0..5 {
        let mut client = HttpClient::connect(addr).unwrap();
        let shed = client.post("/query", body).unwrap();
        assert_eq!(shed.status, 429);
        let hint: u64 = shed
            .header("retry-after")
            .expect("shed response carries a retry hint")
            .parse()
            .expect("retry-after is integral seconds");
        assert!((4..=5).contains(&hint), "full gate hints 4-5s, got {hint}");
        assert!(shed.body_text().contains("\"error\":\"saturated\""));
    }

    let admitted = slow.join().unwrap();
    assert_eq!(admitted.status, 200, "in-flight request completed normally");
    assert_eq!(handle.gate().shed(), 5);
    assert_eq!(handle.gate().admitted(), 1);

    // Exact bill conservation: the tenant engine was charged for the one
    // admitted query and nothing else — shed requests never reached it.
    let mut mirror = Mirror::new();
    let expected = mirror.submit(
        "default",
        &TableKey {
            spec: Generator::Prosper,
            rows: 400,
            seed: 0,
        },
        &QueryRequest::naive(QuerySpec::try_new(0.8, 0.8, 0.8, CostModel::PAPER_DEFAULT).unwrap()),
    );
    assert_eq!(admitted.body_text(), expected);
    let tenant = handle.tenants().route("default").unwrap();
    assert_eq!(tenant.engine().stats().queries, 1);
    assert_eq!(
        tenant.engine().session_counts(),
        mirror.engine.session_counts()
    );

    // The gate recovers once the slot frees.
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.post("/query", body).unwrap().status, 200);

    // And /metrics saw it all.
    let metrics = client.get("/metrics").unwrap().body_text();
    assert!(metrics.contains("serve_shed 5\n"));
    assert!(metrics.contains("serve_in_flight_capacity 1\n"));
}

#[test]
fn tenant_registry_exhaustion_is_503_and_retryable() {
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_tenants: 1,
            max_rows: 5_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();
    let query = "\"table\":{\"spec\":\"prosper\",\"rows\":100},\"query\":{\"kind\":\"naive\"}";

    let first = client
        .post("/query", &format!("{{\"tenant\":\"a\",{query}}}"))
        .unwrap();
    assert_eq!(first.status, 200);

    let refused = client
        .post("/query", &format!("{{\"tenant\":\"b\",{query}}}"))
        .unwrap();
    assert_eq!(refused.status, 503);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert!(refused
        .body_text()
        .contains("\"error\":\"tenants_exhausted\""));

    // The existing tenant keeps working.
    let again = client
        .post("/query", &format!("{{\"tenant\":\"a\",{query}}}"))
        .unwrap();
    assert_eq!(again.status, 200);
}

#[test]
fn keep_alive_and_connection_close_are_honored() {
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();

    // Many requests down one connection; the server must answer each
    // with keep-alive framing.
    for _ in 0..8 {
        let r = client.get("/health").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }
    assert_eq!(
        handle
            .metrics()
            .connections_accepted
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "one connection served all eight requests"
    );

    // An explicit `Connection: close` is echoed and the socket closes.
    let r = client
        .raw(b"GET /health HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
        .unwrap();
    assert_eq!(r.header("connection"), Some("close"));
    assert!(
        client.get("/health").is_err(),
        "server closed the connection after Connection: close"
    );
}

#[test]
fn tenant_header_overrides_body_tenant() {
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();
    let r = client
        .raw(
            b"POST /query HTTP/1.1\r\nhost: x\r\nx-tenant: from-header\r\ncontent-length: 79\r\n\r\n\
              {\"tenant\":\"from-body\",\"table\":{\"spec\":\"lc\",\"rows\":50},\"query\":{\"kind\":\"naive\"}}",
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body_text().starts_with("{\"tenant\":\"from-header\""));
    let names: Vec<String> = handle
        .tenants()
        .snapshot()
        .iter()
        .map(|t| t.name().to_owned())
        .collect();
    assert_eq!(names, ["from-header"]);
}

#[test]
fn a_fixed_query_answers_the_golden_bytes() {
    // The same file CI diffs a `curl`ed body against: the wire format is
    // a contract, so a drifting byte fails a test, not a client.
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();
    let r = client
        .post(
            "/query",
            r#"{"table":{"spec":"prosper","rows":200,"seed":7},"query":{"kind":"naive"},"seed":42}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.body_text(),
        include_str!("golden/prosper_naive_seed42.json")
    );
    // CI sends the expression scan next, over the rows the naive query
    // just paid for: its body pins the plane reads' reuse charge too.
    let r = client
        .post(
            "/query",
            r#"{"table":{"spec":"prosper","rows":200,"seed":7},"query":{"kind":"expr","predicate":"not udf_label"},"seed":42}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.body_text(),
        include_str!("golden/prosper_expr_not_seed42.json")
    );
}

/// Response-body digests harvested on a checkout of the commit before
/// the pipelines moved under one frame (see the test below). Row = request
/// shape, columns = (`prosper`, `lc`). The auto-predictor
/// `intel_sample` row reads the auxiliary columns, and was re-pinned once
/// by the generator's per-page-stream re-seed (ROADMAP 5(c)); every other
/// row reads only the predictor and the label, which the re-seed left
/// cell for cell unchanged. The ML baselines' rows left with the
/// baselines: `expred-bench`'s `tests/baselines.rs` pins those. Four digests (`adaptive` on
/// `prosper`; `iterative`, `intel_sample` by `grade` and auto
/// `intel_sample` on `lc`) were re-pinned once when one exact plan-LP
/// solve replaced the simplex: on every LP those requests solve, the two
/// solvers' optimal costs agree within 2e-15 relative, and the bodies
/// moved only because ties between equal-cost optima break differently.
/// The four `adaptive` digests were re-pinned once more when §4.3's
/// search began to stop on a predicted saving and to plan on every row
/// it drew: its draws and plans move by design, and no other row did.
const CROSS_COMMIT_GOLDEN: [(&str, [u64; 2]); 9] = [
    (
        r#"{"kind":"naive"}"#,
        [0xc378ae164932a6cf, 0xad7afba4e9768956],
    ),
    (
        r#"{"kind":"optimal","predictor":"grade"}"#,
        [0x51a51ab979bd2eb5, 0xbe1d336588c254de],
    ),
    (
        r#"{"kind":"adaptive","predictor":"grade"}"#,
        [0x264631d5b8f143a2, 0x3867fcc386c05108],
    ),
    (
        r#"{"kind":"adaptive","predictor":"grade","corr":"unknown"}"#,
        [0x44042bcf84979be4, 0x5527d3f52d9666f3],
    ),
    (
        r#"{"kind":"iterative","predictor":"grade"}"#,
        [0xb612741929b9032e, 0x6e824ea1258f0117],
    ),
    (
        r#"{"kind":"intel_sample","predictor":"grade"}"#,
        [0x286a3a021cfdf5c6, 0xb1e9b83eb2bbd846],
    ),
    (
        r#"{"kind":"intel_sample"}"#,
        [0xc9ac9f26211d09b6, 0xcd468be4c27bbab9],
    ),
    (
        r#"{"kind":"expr","predicate":"udf_label"}"#,
        [0x5b96297d73373472, 0x05c3a16d942f7b07],
    ),
    (
        r#"{"kind":"expr","predicate":"not udf_label"}"#,
        [0xebc04605c4925e6e, 0x13e2fe566aa5634f],
    ),
];

#[test]
fn every_request_shape_answers_the_bytes_the_parent_commit_answered() {
    // The benchmark's digest check replays the *same* build in process, so
    // a refactor that changes HTTP and replay alike is invisible to it.
    // These constants pin the bodies across commits instead: any drift in
    // RNG draw order, batch boundaries or scoring moves a digest.
    let mut got = Vec::new();
    for (query, _) in CROSS_COMMIT_GOLDEN {
        let mut row = [0u64; 2];
        for (digest, (name, base)) in row
            .iter_mut()
            .zip([("prosper", PROSPER), ("lc", LENDING_CLUB)])
        {
            let body = format!(
                r#"{{"table":{{"spec":"{name}","rows":2000,"seed":7}},"seed":42,"query":{query}}}"#
            );
            let api = expred_serve::api::parse_query_body(body.as_bytes(), 5_000).unwrap();
            let ds = Dataset::generate(
                DatasetSpec {
                    rows: api.table.rows,
                    ..base
                },
                api.table.seed,
            );
            let outcome = QueryEngine::new().submit(&ds, &api.request).unwrap();
            let mut h = expred_stats::hash::Fnv64::new();
            h.write_bytes(&expred_serve::api::render_outcome("golden", &outcome));
            *digest = h.finish();
        }
        got.push((query, row));
    }
    assert_eq!(got, CROSS_COMMIT_GOLDEN.to_vec(), "got {got:#x?}");
}

/// The two expression shapes the warm-session golden adds to
/// [`CROSS_COMMIT_GOLDEN`]'s: a tautology and a contradiction over the
/// label, so an `or` stage and an `and` stage each see every row.
const WARM_EXTRA_SHAPES: [&str; 2] = [
    r#"{"kind":"expr","predicate":"udf_label or not udf_label"}"#,
    r#"{"kind":"expr","predicate":"udf_label and not udf_label"}"#,
];

/// Response-body digests of one warm session: per table (`prosper`,
/// then `lc`), a `naive` warm-up and then every request shape of
/// [`CROSS_COMMIT_GOLDEN`] followed by [`WARM_EXTRA_SHAPES`], all on one
/// engine. A body carries the bill's `cache_hits` and `reuse_hits`, so
/// this pins what the reads of earlier queries' answers charge, not only
/// what they return. The warm-up and the first shapes buy every row of
/// both tables (the store's 4 000 insertions), so the later shapes read
/// only answers earlier requests paid for. First harvested on the parent
/// of the word-major read path; re-harvested on the parent of the commit
/// that took the ML baselines out of `/query`, with their two shapes left
/// out of the sequence (the labels they bought had made later shapes'
/// bills reuse hits).
const WARM_SESSION_GOLDEN: [[u64; 2]; 11] = [
    [0x8e4b929129f18422, 0xb5e9cc0350aad4c3],
    [0xd5a6c5c85d25f0c4, 0x0db9d7eb7e8dba3d],
    [0xe7ffb922cb635a57, 0x1ad1757b53b7c896],
    [0xe7ffb922cb635a57, 0x1ad1757b53b7c896],
    [0xe7ffb922cb635a57, 0x1ad1757b53b7c896],
    [0xe7ffb922cb635a57, 0x1ad1757b53b7c896],
    [0xce7ee1cabb787b58, 0x86eb867af3a9c6fb],
    [0xd7e857a22fc6c30e, 0xe39dc435c5b7a586],
    [0x8f382be412b16824, 0xe94768f11c894925],
    [0x324fec1d2712b4f7, 0x5e2a5c8ea3d7eb60],
    [0x11a7546e5258a05b, 0x51438de6290238b4],
];

/// The session store's `(hits, misses, insertions)` after the sequence
/// above. Re-pinned when `iterative`'s last round stopped re-tallying a
/// sample nothing read: 108 fewer misses (5 900 before), the count the
/// parent commit reads with only that re-tally removed. Re-pinned again
/// when §4.3's search steps and §4.2's rounds began to plan on one
/// evidence ledger per grouping instead of re-reading the grouping at
/// each step: 540 fewer misses (5 792 before), hits and insertions
/// unchanged.
const WARM_SESSION_STORE_GOLDEN: (u64, u64, u64) = (44_714, 5_252, 4_000);

#[test]
fn a_warm_session_answers_the_bytes_and_store_probes_the_parent_commit_did() {
    let engine = QueryEngine::new();
    let shapes: Vec<&str> = CROSS_COMMIT_GOLDEN
        .iter()
        .map(|(query, _)| *query)
        .chain(WARM_EXTRA_SHAPES)
        .collect();
    let mut got = vec![[0u64; 2]; shapes.len()];
    for (column, (name, base)) in [("prosper", PROSPER), ("lc", LENDING_CLUB)]
        .into_iter()
        .enumerate()
    {
        let ds = Dataset::generate(
            DatasetSpec {
                rows: 2_000,
                ..base
            },
            7,
        );
        let body = |query: &str, seed: u64| {
            format!(
                r#"{{"table":{{"spec":"{name}","rows":2000,"seed":7}},"seed":{seed},"query":{query}}}"#
            )
        };
        let submit = |body: String| {
            let api = expred_serve::api::parse_query_body(body.as_bytes(), 5_000).unwrap();
            let outcome = engine.submit(&ds, &api.request).unwrap();
            expred_serve::api::render_outcome("golden", &outcome)
        };
        submit(body(r#"{"kind":"naive"}"#, 0));
        for (row, query) in got.iter_mut().zip(&shapes) {
            let mut h = expred_stats::hash::Fnv64::new();
            h.write_bytes(&submit(body(query, 42)));
            row[column] = h.finish();
        }
    }
    let stats = engine.cache_stats();
    let store = (stats.hits, stats.misses, stats.insertions);
    assert_eq!(
        (got.as_slice(), store),
        (WARM_SESSION_GOLDEN.as_slice(), WARM_SESSION_STORE_GOLDEN),
        "got {got:#x?}, store {store:?}"
    );
}

#[test]
fn hostile_tenant_names_round_trip_as_json() {
    // The tenant is attacker-controlled (header or body) and is echoed
    // into every 200 body and both metrics exports.
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();
    let query = r#""table":{"spec":"lc","rows":50},"query":{"kind":"naive"}"#;

    // Via the header: everything but a line break can ride a header.
    let via_header = "a\"b\\c\u{1}é\u{1f600}\",\"returned\":[]";
    let body = format!("{{{query}}}");
    let raw = format!(
        "POST /query HTTP/1.1\r\nhost: x\r\nx-tenant: {via_header}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let r = client.raw(raw.as_bytes()).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_text());
    let doc = JsonValue::parse(&r.body_text()).expect("200 body parses");
    assert_eq!(doc.get("tenant").unwrap().as_str(), Some(via_header));
    assert_eq!(JsonValue::parse(&doc.render()).unwrap(), doc);

    // Via the body: JSON escapes can smuggle a newline too.
    let via_body = "a\"b\\c\nd\u{1}é\u{1f600}";
    let body = format!(r#"{{"tenant":"a\"b\\c\nd\u0001é\ud83d\ude00",{query}}}"#);
    let r = client.post("/query", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_text());
    let doc = JsonValue::parse(&r.body_text()).expect("200 body parses");
    assert_eq!(doc.get("tenant").unwrap().as_str(), Some(via_body));
    assert!(
        doc.get("returned").unwrap().as_array().is_some(),
        "the answer set is still the engine's"
    );

    let metrics = client.get("/metrics.json").unwrap();
    let doc = JsonValue::parse(&metrics.body_text()).expect("metrics.json parses");
    let tenants = doc.get("tenants").unwrap();
    for name in [via_header, via_body] {
        let tenant = tenants.get(name).expect("tenant keyed by its exact name");
        assert_eq!(
            tenant
                .get("engine")
                .unwrap()
                .get("queries")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}

#[test]
fn predicate_strings_match_direct_submit_byte_identically() {
    let handle = serve("127.0.0.1:0", small_config()).unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();
    let mut mirror = Mirror::new();

    let tenant = "dsl-tenant";
    let key = TableKey {
        spec: Generator::Prosper,
        rows: 400,
        seed: 11,
    };
    let table = "\"table\":{\"spec\":\"prosper\",\"rows\":400,\"seed\":11}";
    let predicate = "udf_label and (udf_label or not udf_label)";
    let registry = expred_udf::OracleRegistry::new();
    let parsed = || expred_udf::parse_predicate(predicate, &registry).expect("valid predicate");

    // Twice: the repeat must answer from the result memo on both sides
    // and still render identically.
    let body = format!(
        "{{\"tenant\":\"{tenant}\",{table},\"seed\":3,\
         \"query\":{{\"kind\":\"expr\",\"predicate\":\"{predicate}\"}}}}"
    );
    let request = QueryRequest::expr_scan(parsed(), CostModel::PAPER_DEFAULT).with_seed(3);
    for round in 0..2 {
        let response = client.post("/query", &body).unwrap();
        assert_eq!(response.status, 200, "round {round}");
        let expected = mirror.submit(tenant, &key, &request);
        assert_eq!(
            response.body_text(),
            expected,
            "round {round}: HTTP predicate body must be byte-identical to direct submit"
        );
    }

    // There is one expression scan: the retired opt-out flag is an
    // unknown field, refused at the door.
    let body = format!(
        "{{\"tenant\":\"{tenant}\",{table},\"seed\":3,\
         \"query\":{{\"kind\":\"expr\",\"predicate\":\"{predicate}\",\"optimize\":true}}}}"
    );
    let response = client.post("/query", &body).unwrap();
    assert_eq!(response.status, 400);
    assert!(response.body_text().contains("unknown query field"));

    // A malformed predicate is absorbed at the door: 400 bad_expression
    // with the parser's byte position, no engine touch, no panic.
    let r = client
        .post(
            "/query",
            &format!("{{{table},\"query\":{{\"kind\":\"expr\",\"predicate\":\"udf_label and\"}}}}"),
        )
        .unwrap();
    assert_eq!(r.status, 400);
    let text = r.body_text();
    assert!(text.contains("\"error\":\"bad_expression\""), "{text}");
    assert!(text.contains("byte 13"), "{text}");
}

#[test]
fn connection_cap_refuses_inline_with_503_and_recovers() {
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 2,
            ..small_config()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Two live keep-alive connections fill the gate.
    let mut a = HttpClient::connect(addr).unwrap();
    let mut b = HttpClient::connect(addr).unwrap();
    assert_eq!(a.get("/health").unwrap().status, 200);
    assert_eq!(b.get("/health").unwrap().status, 200);
    assert_eq!(handle.connections().in_flight(), 2);

    // A third socket is refused inline on the accept thread — the 503
    // arrives without the client sending a single byte, which is only
    // possible if no connection thread was spawned for it.
    let mut refused = HttpClient::connect(addr).unwrap();
    let r = refused.raw(b"").unwrap();
    assert_eq!(r.status, 503);
    assert!(r.header("retry-after").is_some());
    assert!(r
        .body_text()
        .contains("\"error\":\"connections_exhausted\""));
    assert_eq!(handle.connections().shed(), 1);

    // The refusal counts toward the metrics the surviving connections
    // can still read.
    let metrics = a.get("/metrics").unwrap().body_text();
    assert!(metrics.contains("serve_connections_capacity 2\n"));
    assert!(metrics.contains("serve_connections_open 2\n"));
    assert!(metrics.contains("serve_connections_shed 1\n"));

    // Closing one connection frees its slot (the server's blocked read
    // returns EOF on the peer's FIN) and a new client is admitted.
    drop(b);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while handle.connections().in_flight() > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        handle.connections().in_flight(),
        1,
        "slot released on close"
    );
    let mut c = HttpClient::connect(addr).unwrap();
    assert_eq!(c.get("/health").unwrap().status, 200);
}

#[test]
fn shutdown_drains_idle_connections_within_the_deadline() {
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            drain_deadline: Duration::from_secs(3),
            ..small_config()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Two idle keep-alive connections that already served a request.
    let mut a = HttpClient::connect(addr).unwrap();
    let mut b = HttpClient::connect(addr).unwrap();
    assert_eq!(a.get("/health").unwrap().status, 200);
    assert_eq!(b.get("/health").unwrap().status, 200);
    assert_eq!(handle.connections().in_flight(), 2);

    // Graceful shutdown must not wait out the full drain deadline (let
    // alone the idle read timeout): shutting the read half of each
    // socket ends the idle connections' blocked reads at once, and they
    // release their slots.
    let started = std::time::Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "idle drain took {:?}",
        started.elapsed()
    );
    assert_eq!(handle.connections().in_flight(), 0, "all slots released");
    assert!(
        a.get("/health").is_err() && b.get("/health").is_err(),
        "drained connections are closed"
    );
}

/// A raw keep-alive socket that has served one `GET /health`.
fn served_health(addr: std::net::SocketAddr) -> TcpStream {
    let mut socket = TcpStream::connect(addr).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    socket
        .write_all(b"GET /health HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let mut received = Vec::new();
    while !received.ends_with(b"ok\n") {
        let mut buf = [0u8; 256];
        let n = socket.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before answering /health");
        received.extend_from_slice(&buf[..n]);
    }
    socket
}

/// Waits (bounded) until `holders` hold a slot in `gate`.
fn await_in_flight(gate: &AdmissionGate, holders: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while gate.in_flight() != holders && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(gate.in_flight(), holders);
}

#[test]
fn shutdown_drains_idle_and_silent_connections_within_a_short_deadline() {
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            drain_deadline: Duration::from_millis(50),
            ..small_config()
        },
    )
    .unwrap();
    let addr = handle.local_addr();
    // Two idle keep-alive connections that each served a request, and
    // one that never sent a byte.
    let mut sockets = vec![served_health(addr), served_health(addr)];
    let silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    sockets.push(silent);
    await_in_flight(handle.connections(), 3);

    // No wait on a clock: every blocked read ends when the drain shuts
    // its socket's read half, well inside the 50 ms deadline.
    handle.shutdown();
    assert_eq!(handle.connections().in_flight(), 0, "all slots released");
    for (i, socket) in sockets.iter_mut().enumerate() {
        let read = socket.read(&mut [0u8; 64]);
        assert!(matches!(read, Ok(0)), "client {i} read {read:?}, not EOF");
    }
}

#[test]
fn shutdown_lets_a_running_query_write_its_whole_response() {
    let config = ServeConfig {
        engine: EngineConfig {
            udf_latency: Duration::from_millis(1),
            ..EngineConfig::default()
        },
        ..small_config()
    };
    // 200 rows at 1 ms per evaluation keep the query running well past
    // the moment shutdown starts.
    let body =
        r#"{"table":{"spec":"prosper","rows":200,"seed":7},"query":{"kind":"naive"},"seed":42}"#;
    let expected = {
        let fresh = serve("127.0.0.1:0", config.clone()).unwrap();
        let mut client = HttpClient::connect(fresh.local_addr()).unwrap();
        let r = client.post("/query", body).unwrap();
        assert_eq!(r.status, 200);
        r.body
    };

    let mut handle = serve("127.0.0.1:0", config).unwrap();
    let mut client = HttpClient::connect(handle.local_addr()).unwrap();
    let running = std::thread::spawn(move || client.post("/query", body));
    await_in_flight(handle.gate(), 1); // the query is running
    handle.shutdown();
    let r = running
        .join()
        .unwrap()
        .expect("the in-flight response arrives");
    assert_eq!(r.status, 200);
    assert!(
        r.body == expected,
        "the drained response is byte-equal to a fresh server's"
    );
    assert_eq!(handle.connections().in_flight(), 0, "all slots released");
}

#[test]
fn shutdown_closes_a_half_sent_request_without_a_400() {
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            drain_deadline: Duration::from_secs(2),
            ..small_config()
        },
    )
    .unwrap();
    let mut socket = TcpStream::connect(handle.local_addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The request line and one header, but not the blank line that ends
    // the head: the server is left waiting inside the request.
    socket
        .write_all(b"POST /query HTTP/1.1\r\nhost: x\r\n")
        .unwrap();
    await_in_flight(handle.connections(), 1);
    // Either order must end without a response; the pause lets the
    // server take in the partial head, so the drain cuts short a read
    // that is under way rather than one that has not started.
    std::thread::sleep(Duration::from_millis(50));
    let client_errors_before = handle
        .metrics()
        .responses_4xx
        .load(std::sync::atomic::Ordering::Relaxed);

    handle.shutdown();
    assert_eq!(handle.connections().in_flight(), 0, "all slots released");
    let mut received = Vec::new();
    let read = socket.read_to_end(&mut received);
    assert!(
        received.is_empty(),
        "the cut-short request was answered: {:?} ({read:?})",
        String::from_utf8_lossy(&received)
    );
    assert_eq!(
        handle
            .metrics()
            .responses_4xx
            .load(std::sync::atomic::Ordering::Relaxed),
        client_errors_before,
        "no 4xx was recorded"
    );
}

/// Pool threads alive in this process (`None` where `/proc` is not).
fn pool_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("expred-pool-"))
            .count(),
    )
}

#[test]
fn pooled_tenants_share_one_worker_pool_and_answer_byte_identically() {
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            engine: EngineConfig {
                pooled: true,
                udf_latency: Duration::from_micros(100),
                ..EngineConfig::default()
            },
            ..small_config()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Eight tenants at once, each on its own connection. The mirror is a
    // private *sequential* engine without the latency: the pool — its
    // width, who shares it — must not reach an answer or a bill.
    let workers: Vec<_> = (0..8u64)
        .map(|worker| {
            std::thread::spawn(move || {
                let tenant = format!("pooled-{worker}");
                let mut mirror = Mirror::new();
                let mut client = HttpClient::connect(addr).unwrap();
                for step in 0..3u64 {
                    let (rows, table_seed) = (1_500, 40 + worker);
                    let body = format!(
                        "{{\"tenant\":\"{tenant}\",\
                         \"table\":{{\"spec\":\"prosper\",\"rows\":{rows},\"seed\":{table_seed}}},\
                         \"seed\":{step},\
                         \"query\":{{\"kind\":\"intel_sample\",\"predictor\":\"grade\"}}}}"
                    );
                    let response = client.post("/query", &body).unwrap();
                    assert_eq!(response.status, 200, "worker {worker} step {step}");
                    let key = TableKey {
                        spec: Generator::Prosper,
                        rows,
                        seed: table_seed,
                    };
                    let request =
                        QueryRequest::intel_sample(expred_core::IntelSampleConfig::experiment1(
                            expred_core::PredictorChoice::Fixed("grade".into()),
                        ))
                        .with_seed(step);
                    assert_eq!(
                        response.body_text(),
                        mirror.submit(&tenant, &key, &request),
                        "worker {worker} step {step}: HTTP body must be byte-identical"
                    );
                }
                mirror.engine.session_counts()
            })
        })
        .collect();
    for (worker, mirror) in workers.into_iter().enumerate() {
        let expected = mirror.join().unwrap();
        let tenant = handle.tenants().route(&format!("pooled-{worker}")).unwrap();
        assert_eq!(
            tenant.engine().session_counts(),
            expected,
            "pooled-{worker} bill diverged from direct sequential submit"
        );
    }

    // One pool for the process: its own count of workers is every pool
    // thread there is, and eight tenants took it no further than its
    // ceiling of 64 workers per core, less one.
    let mut client = HttpClient::connect(addr).unwrap();
    let doc = JsonValue::parse(&client.get("/metrics.json").unwrap().body_text()).unwrap();
    let pool = doc
        .get("pool")
        .expect("pool section when engines are pooled");
    let workers = pool.get("workers").unwrap().as_u64().unwrap() as usize;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        (1..64 * cores).contains(&workers),
        "{workers} workers on {cores} cores"
    );
    if let Some(threads) = pool_threads() {
        assert_eq!(threads, workers, "pool threads outside the one pool");
    }
    assert!(pool.get("jobs").unwrap().as_u64().unwrap() > 0);
    assert!(pool.get("rows").unwrap().as_u64().unwrap() > 0);
    assert!(pool.get("width").unwrap().as_u64().unwrap() >= 2);
    assert!(pool.get("probe_latency_ns").unwrap().as_u64().unwrap() >= 100_000);
    let text = client.get("/metrics").unwrap().body_text();
    assert!(
        text.contains(&format!("pool_workers {workers}\n")),
        "{text}"
    );
    assert!(text.contains("pool_inline_batches "));
}
