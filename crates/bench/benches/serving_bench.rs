//! Serving-tier load generator: real TCP clients against an in-process
//! `expred-serve` instance.
//!
//! ```text
//! cargo bench --bench serving_bench            # full run
//! cargo bench --bench serving_bench -- --smoke # CI proof (same
//!                                              # workload, perf
//!                                              # assertions relaxed)
//! ```
//!
//! Three load scenarios and three hit-path rows (→ `BENCH_serving.json`):
//!
//! * `zipf_mixed` — N tenant threads, each replaying a zipf-skewed mix
//!   of tables and query kinds (popular queries repeat, so the memo and
//!   cross-query cache carry real weight) over one keep-alive
//!   connection. The same per-tenant plans are also replayed via direct
//!   [`QueryEngine::submit`] on the same thread layout — the `http` row's
//!   `speedup_vs_baseline` is the full TCP+parse+render tax (a value
//!   below 1.0 is the expected overhead, not a regression).
//! * `cache_churn` — adversary mode: every tenant cycles through more
//!   table seeds than its LRU bound holds, so tables regenerate
//!   constantly and the engine caches stay cold. This prices the worst
//!   case the serving tier admits.
//! * `saturation_cap1` — one in-flight slot and a 1ms UDF: most requests
//!   must be shed with 429 in constant time while the admitted ones
//!   complete. The artifact row is the shed rate; exact conservation
//!   (`attempts == 200s + 429s`, `engine queries == 200s`) is asserted,
//!   not measured.
//!
//! * `memo_hit_submit` / `render_outcome_9k_ids` / `write_response_57kb`
//!   — everything a result-memo hit does, in-process, no sockets, on a
//!   real ≈ 9 k-id answer (`optimal` on `grade` over 20 000 `prosper`
//!   rows): the repeat [`QueryEngine::submit`] itself (validate, identity,
//!   memo probe, a refcount bump on the shared outcome), [`render_outcome`]
//!   walking the answer plane into the body, and
//!   [`HttpResponse::write_to`] of a 57 KB body into a `Vec` sink. Best
//!   of five batches each.
//!
//! Value semantics per row: `ns_per_probe` holds per-query nanoseconds
//! for backends, latency nanoseconds for `*_p50_ns`/`*_p99_ns` rows,
//! queries/sec for `queries_per_sec`, a percentage for `shed_rate_pct`,
//! nanoseconds per memoized repeat for `ns_per_hit`, nanoseconds per row
//! id for `ns_per_id`, and nanoseconds per response for `ns_per_response`.
//!
//! [`QueryEngine::submit`]: expred_core::QueryEngine::submit
//! [`render_outcome`]: expred_serve::api::render_outcome

use expred_bench::report::measure_ns_per_unit;
use expred_bench::BenchReport;
use expred_core::{
    CorrelationModel, IntelSampleConfig, PredictorChoice, QueryEngine, QueryRequest, QuerySpec,
    SampleSizeRule,
};
use expred_serve::api::render_outcome;
use expred_serve::{serve, HttpClient, HttpResponse, ServeConfig, TableKey};
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, DatasetSpec, LENDING_CLUB, PROSPER};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const CLIENTS: usize = 6;

/// Zipf(s) sampler over ranks `0..n` — rank 0 is the most popular.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    fn sample(&self, rng: &mut Prng) -> usize {
        let target = rng.f64() * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative
            .iter()
            .position(|&c| target <= c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// One planned request: everything needed to issue it over HTTP *and*
/// replay it via direct submit.
#[derive(Clone)]
struct PlannedQuery {
    table: TableKey,
    kind: usize,
    seed: u64,
}

const KINDS: [&str; 4] = ["naive", "intel_sample", "optimal", "learning"];

impl PlannedQuery {
    fn body(&self, tenant: &str) -> String {
        let kind = KINDS[self.kind];
        let predictor = match kind {
            "intel_sample" | "optimal" => ",\"predictor\":\"grade\"",
            _ => "",
        };
        format!(
            "{{\"tenant\":\"{tenant}\",\
             \"table\":{{\"spec\":\"{}\",\"rows\":{},\"seed\":{}}},\
             \"seed\":{},\"query\":{{\"kind\":\"{kind}\"{predictor}}}}}",
            self.table.spec, self.table.rows, self.table.seed, self.seed
        )
    }

    fn request(&self) -> QueryRequest {
        let spec = QuerySpec::paper_default();
        match KINDS[self.kind] {
            "naive" => QueryRequest::naive(spec),
            "learning" => QueryRequest::learning(spec),
            "optimal" => QueryRequest::optimal(spec, "grade"),
            _ => QueryRequest::intel_sample(IntelSampleConfig {
                spec,
                rule: SampleSizeRule::Fraction(0.05),
                corr: CorrelationModel::Independent,
                predictor: PredictorChoice::Fixed("grade".into()),
            }),
        }
        .with_seed(self.seed)
    }
}

/// A zipf-skewed plan per client: `table_seeds` ranks the table pool,
/// query kinds and repeat-seeds get their own skews.
fn make_plans(
    requests_per_client: usize,
    table_seeds: usize,
    rows: usize,
) -> Vec<Vec<PlannedQuery>> {
    let table_pick = Zipf::new(table_seeds, 1.2);
    let kind_pick = Zipf::new(KINDS.len(), 1.0);
    let seed_pick = Zipf::new(4, 1.5);
    (0..CLIENTS)
        .map(|client| {
            let mut rng = Prng::seeded(1_000 + client as u64);
            (0..requests_per_client)
                .map(|_| {
                    let table_rank = table_pick.sample(&mut rng);
                    let spec = if table_rank.is_multiple_of(2) {
                        "prosper"
                    } else {
                        "lc"
                    };
                    PlannedQuery {
                        table: TableKey {
                            spec: spec.into(),
                            rows,
                            seed: table_rank as u64,
                        },
                        kind: kind_pick.sample(&mut rng),
                        seed: seed_pick.sample(&mut rng) as u64,
                    }
                })
                .collect()
        })
        .collect()
}

struct HttpRun {
    wall: Duration,
    latencies: Vec<Duration>,
    ok: usize,
    shed: usize,
}

/// Replays every client plan over its own keep-alive connection,
/// one thread per client.
fn run_http(addr: std::net::SocketAddr, plans: &[Vec<PlannedQuery>]) -> HttpRun {
    let start = Instant::now();
    let per_client: Vec<(Vec<Duration>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(client, plan)| {
                scope.spawn(move || {
                    let tenant = format!("tenant-{client}");
                    let mut http = HttpClient::connect(addr).expect("connect");
                    let mut latencies = Vec::with_capacity(plan.len());
                    let (mut ok, mut shed) = (0, 0);
                    for query in plan {
                        let sent = Instant::now();
                        let response = http.post("/query", &query.body(&tenant)).expect("post");
                        latencies.push(sent.elapsed());
                        match response.status {
                            200 => ok += 1,
                            429 => shed += 1,
                            other => panic!("unexpected status {other}: {}", response.body_text()),
                        }
                    }
                    (latencies, ok, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();
    let mut latencies = Vec::new();
    let (mut ok, mut shed) = (0, 0);
    for (l, o, s) in per_client {
        latencies.extend(l);
        ok += o;
        shed += s;
    }
    HttpRun {
        wall,
        latencies,
        ok,
        shed,
    }
}

/// Replays the same plans via direct submit on the same thread layout:
/// one engine and one table instance per (tenant, key), like the server.
fn run_direct(plans: &[Vec<PlannedQuery>]) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for plan in plans {
            scope.spawn(move || {
                let engine = QueryEngine::new();
                let mut tables: HashMap<TableKey, Dataset> = HashMap::new();
                for query in plan {
                    let ds = tables.entry(query.table.clone()).or_insert_with(|| {
                        let base = if query.table.spec == "prosper" {
                            PROSPER
                        } else {
                            LENDING_CLUB
                        };
                        Dataset::generate(
                            DatasetSpec {
                                rows: query.table.rows,
                                ..base
                            },
                            query.table.seed,
                        )
                    });
                    engine.submit(ds, &query.request()).expect("direct submit");
                }
            });
        }
    });
    start.elapsed()
}

fn quantile_ns(latencies: &mut [Duration], q: f64) -> f64 {
    latencies.sort_unstable();
    let idx = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len()) - 1;
    latencies[idx].as_nanos() as f64
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = BenchReport::new("serving");
    println!(
        "serving_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    // -- zipf_mixed ------------------------------------------------------
    let plans = make_plans(40, 4, 300);
    let total: usize = plans.iter().map(Vec::len).sum();
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_rows: 5_000,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut mixed = run_http(handle.local_addr(), &plans);
    assert_eq!(mixed.ok, total, "no request may fail in the mixed scenario");
    // Conservation: every 200 is exactly one engine query, across tenants.
    let engine_queries: u64 = handle
        .tenants()
        .snapshot()
        .iter()
        .map(|t| t.engine().stats().queries)
        .sum();
    assert_eq!(engine_queries, total as u64);
    let direct = run_direct(&plans);

    let http_ns = mixed.wall.as_nanos() as f64 / total as f64;
    let direct_ns = direct.as_nanos() as f64 / total as f64;
    let qps = total as f64 / mixed.wall.as_secs_f64();
    let p50 = quantile_ns(&mut mixed.latencies, 0.50);
    let p99 = quantile_ns(&mut mixed.latencies, 0.99);
    report.record("zipf_mixed", "direct_submit", direct_ns, 1.0);
    report.record("zipf_mixed", "http", http_ns, direct_ns / http_ns);
    report.record("zipf_mixed", "http_p50_ns", p50, 1.0);
    report.record("zipf_mixed", "http_p99_ns", p99, 1.0);
    report.record("zipf_mixed", "queries_per_sec", qps, 1.0);
    println!(
        "zipf_mixed: {total} queries, {CLIENTS} tenants | direct {direct_ns:>9.0} ns/q | \
         http {http_ns:>9.0} ns/q | p50 {:.2}ms p99 {:.2}ms | {qps:.0} q/s",
        p50 / 1e6,
        p99 / 1e6
    );
    assert!(
        smoke || http_ns < direct_ns * 50.0,
        "HTTP tax blew past 50x the direct path: {http_ns:.0} vs {direct_ns:.0} ns/q"
    );
    drop(handle);

    // -- cache_churn -----------------------------------------------------
    // 12 table seeds against an LRU of 2: nearly every query regenerates
    // its table and starts cold.
    let churn_plans = make_plans(25, 12, 300);
    let churn_total: usize = churn_plans.iter().map(Vec::len).sum();
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_rows: 5_000,
            max_tables_per_tenant: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut churn = run_http(handle.local_addr(), &churn_plans);
    assert_eq!(churn.ok, churn_total);
    let churn_ns = churn.wall.as_nanos() as f64 / churn_total as f64;
    let churn_p99 = quantile_ns(&mut churn.latencies, 0.99);
    report.record("cache_churn", "http", churn_ns, http_ns / churn_ns);
    report.record("cache_churn", "http_p99_ns", churn_p99, 1.0);
    println!(
        "cache_churn: {churn_total} queries | http {churn_ns:>9.0} ns/q | p99 {:.2}ms",
        churn_p99 / 1e6
    );
    drop(handle);

    // -- saturation_cap1 -------------------------------------------------
    // One slot, 1ms per fresh evaluation: concurrent clients must mostly
    // shed, and every shed answer must cost the engine nothing.
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_rows: 5_000,
            max_in_flight: 1,
            udf_latency: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    // All clients hammer one tenant's identical slow query; distinct
    // request seeds defeat the result memo so each admitted query holds
    // the slot for real.
    let sat_plans: Vec<Vec<PlannedQuery>> = (0..CLIENTS)
        .map(|client| {
            (0..10u64)
                .map(|step| PlannedQuery {
                    table: TableKey {
                        spec: "prosper".into(),
                        rows: 200,
                        seed: 0,
                    },
                    kind: 0,
                    seed: client as u64 * 100 + step,
                })
                .collect()
        })
        .collect();
    let sat_total: usize = sat_plans.iter().map(Vec::len).sum();
    let sat = run_http(handle.local_addr(), &sat_plans);
    assert_eq!(sat.ok + sat.shed, sat_total, "every attempt was answered");
    assert_eq!(handle.gate().shed(), sat.shed as u64);
    // Shed requests never reached an engine: exact conservation.
    let engine_queries: u64 = handle
        .tenants()
        .snapshot()
        .iter()
        .map(|t| t.engine().stats().queries)
        .sum();
    assert_eq!(engine_queries, sat.ok as u64);
    let shed_rate = 100.0 * sat.shed as f64 / sat_total as f64;
    report.record("saturation_cap1", "shed_rate_pct", shed_rate, 1.0);
    report.record("saturation_cap1", "completed", sat.ok as f64, 1.0);
    println!(
        "saturation_cap1: {sat_total} attempts -> {} completed, {} shed ({shed_rate:.0}%)",
        sat.ok, sat.shed
    );
    assert!(
        smoke || sat.shed > 0,
        "a single-slot server under {CLIENTS} concurrent clients must shed"
    );

    drop(handle);

    // -- the hit path: submit, render, write --------------------------------
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 20_000,
            ..PROSPER
        },
        0,
    );
    let engine = QueryEngine::new();
    let request = QueryRequest::optimal(QuerySpec::paper_default(), "grade");
    let outcome = engine.submit(&ds, &request).expect("direct submit");
    let ids = outcome.returned.len();
    // The scenarios above mostly sleep, and this box takes a few hundred
    // ms of busy time to reach its steady clock: report the best of five
    // batches, not the mean of a window that starts cold.
    let reps = if smoke { 200 } else { 5_000 };
    let best_of_five = |units: u64, f: &mut dyn FnMut()| {
        (0..5)
            .map(|_| measure_ns_per_unit(units, reps, &mut *f))
            .fold(f64::INFINITY, f64::min)
    };
    let hit_ns = best_of_five(1, &mut || {
        black_box(engine.submit(black_box(&ds), black_box(&request))).expect("memo hit");
    });
    assert_eq!(engine.stats().queries, engine.stats().result_hits + 1);
    report.record("memo_hit_submit", "ns_per_hit", hit_ns, 1.0);
    let render_ns = best_of_five(ids as u64, &mut || {
        black_box(render_outcome(black_box("t0"), black_box(&outcome)));
    });
    report.record("render_outcome_9k_ids", "ns_per_id", render_ns, 1.0);
    let response = HttpResponse::json(200, "7".repeat(57 * 1024));
    let mut sink = Vec::with_capacity(64 * 1024);
    let write_ns = best_of_five(1, &mut || {
        sink.clear();
        black_box(&response)
            .write_to(&mut sink, true)
            .expect("vec sink");
        black_box(&sink);
    });
    report.record("write_response_57kb", "ns_per_response", write_ns, 1.0);
    println!(
        "hit path: submit {hit_ns:.0} ns/hit | render {ids} ids ({} B body) {render_ns:.1} ns/id | \
         write 57 KB response {write_ns:.0} ns",
        render_outcome("t0", &outcome).len()
    );

    let path = report.write().expect("write artifact");
    println!("wrote {}", path.display());
}
