//! `expred-benchmark` — the repo's ruler: one workload per invocation,
//! end-to-end metrics from the real `expred-serve` child process
//! (`--trace 0`) or per-layer metrics from the traced in-process replay
//! and the layer probes (`--trace 1`). See `benchmark/README.md`.

mod http_run;
mod probes;
mod replay;
mod speed;
mod stats;
mod trace;
mod workload;

use expred_stats::json::JsonValue;
use http_run::{HttpRun, HttpRunConfig, HARNESS_GETS};
use replay::Replay;
use stats::{band_mean, median, percentile, share, FAILED_LATENCY_NS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workload::{Workload, LADDER_RATES, PREFIX_DIVISOR};

/// Where traces and scratch data go, relative to the repo root (the
/// working directory `run.sh` guarantees).
const RESULTS_DIR: &str = "benchmark/results";

/// The accuracy contract's ρ: the run fails below it.
const RHO: f64 = 0.8;

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Child spans must cover this share of the in-process request time.
const MIN_SPAN_COVERAGE: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    flip_byte: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: expred-benchmark --workload <name> [--seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--flip-byte]\n       expred-benchmark --list"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut flip_byte) = (1u64, 20u64, false, false);
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> u64 {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("expred-benchmark: {flag} needs a non-negative integer");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for w in Workload::ALL {
                    println!("{}", w.name());
                }
                std::process::exit(0);
            }
            "--workload" => {
                workload = args.next().as_deref().and_then(Workload::parse);
                if workload.is_none() {
                    eprintln!("expred-benchmark: unknown workload (try --list)");
                    usage();
                }
            }
            "--seed" => seed = value("--seed", &mut args),
            "--seconds" => seconds = value("--seconds", &mut args).clamp(1, 60),
            "--trace" => trace = value("--trace", &mut args) != 0,
            "--traced" => trace = true,
            "--flip-byte" => flip_byte = true,
            _ => usage(),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
        flip_byte,
    }
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples the value summarises (1 for a plain count or ratio).
    samples: u64,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit,
            samples,
        }
    }
}

#[derive(Default)]
struct Report {
    /// The metrics `BENCHMARK.json` lists: printed and put in the result.
    metrics: Vec<Metric>,
    /// Printed in the same form for the reader, but not part of the
    /// result object.
    info: Vec<Metric>,
    /// Failed correctness checks, in the order they were found.
    violations: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.info.push(Metric::new(name, value, unit, samples));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.push(name, value as f64, "count", 1);
    }

    fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }
}

/// Checks that hold on every run: the HTTP bodies hash equal to the
/// in-process replay's, the server's own counters agree with what the
/// clients counted, and the accuracy contract held.
fn check_http_run(report: &mut Report, run: &HttpRun, reference: &Replay, durable: bool) {
    for (tenant, tally) in run.tallies.iter().enumerate() {
        let expected = reference.digests[tenant];
        report.check(tally.prefix_digest == Some(expected), || {
            format!(
                "tenant t{tenant}: HTTP body digest {:016x?} != in-process replay {expected:016x}",
                tally.prefix_digest
            )
        });
        report.check(!durable || tally.replay_violations == 0, || {
            format!(
                "tenant t{tenant}: {} replayed requests paid fresh evaluations after the reboot",
                tally.replay_violations
            )
        });
    }
    let boot_ok = run.total(|t| t.boot_ok);
    let m = &run.metrics;
    report.check(m.responses_2xx == boot_ok + HARNESS_GETS, || {
        format!(
            "responses_2xx {} != {boot_ok} client 200s + {HARNESS_GETS} harness GETs",
            m.responses_2xx
        )
    });
    report.check(m.engine_queries == boot_ok, || {
        format!(
            "Σ engine.queries {} != {boot_ok} client 200s",
            m.engine_queries
        )
    });
}

/// The timed window's raw client-side and server-CPU timings.
struct Timing {
    /// Ascending; a failure is [`FAILED_LATENCY_NS`].
    latencies_ns: Vec<u64>,
    /// 200-responses in the window.
    ok: u64,
    queries_per_s: f64,
    cpu_ms_per_query: f64,
    /// Server CPU per query ÷ mean latency: the share of a request's
    /// wall-clock time that scales with the box's speed.
    cpu_share: f64,
}

impl Timing {
    fn of(run: &HttpRun) -> Self {
        let mut latencies_ns: Vec<u64> = run
            .tallies
            .iter()
            .flat_map(|t| t.latencies_ns.iter().copied())
            .collect();
        latencies_ns.sort_unstable();
        let ok_ns: Vec<u64> = latencies_ns
            .iter()
            .copied()
            .filter(|&l| l != FAILED_LATENCY_NS)
            .collect();
        let ok = ok_ns.len() as u64;
        let mean_ms = ok_ns.iter().sum::<u64>() as f64 / ok.max(1) as f64 / 1e6;
        let cpu_ms_per_query = run.window_cpu_s * 1e3 / ok.max(1) as f64;
        Self {
            latencies_ns,
            ok,
            queries_per_s: ok as f64 / run.window_wall.as_secs_f64(),
            cpu_ms_per_query,
            cpu_share: (cpu_ms_per_query / mean_ms).min(1.0),
        }
    }

    fn percentile_ms(&self, q: f64) -> f64 {
        percentile(&self.latencies_ns, q) as f64 / 1e6
    }

    /// Interquartile mean: the typical request.
    fn mid_ms(&self) -> f64 {
        band_mean(&self.latencies_ns, 0.25, 0.75) / 1e6
    }

    /// Mean of the slowest tenth below p99: the tail, with at least ten
    /// samples beyond it from 1 000 samples up.
    fn tail_ms(&self) -> f64 {
        band_mean(&self.latencies_ns, 0.90, 0.99) / 1e6
    }

    fn samples(&self) -> u64 {
        self.latencies_ns.len() as u64
    }
}

fn end_to_end(report: &mut Report, run: &HttpRun) {
    let timing = Timing::of(run);
    let n = timing.samples();
    let attempted = run.total(|t| t.attempted);
    let failed = run.total(|t| t.failed);
    let ok = run.total(|t| t.ok);
    let guarantee_ok = run.total(|t| t.guarantee_ok);
    let boot_rows = run.total(|t| t.boot_rows);
    let (mid_ms, tail_ms) = (timing.mid_ms(), timing.tail_ms());

    // Timings at reference speed (see `speed.rs`): CPU time scales with
    // the box's slowdown, wall-clock time only in its CPU-bound share.
    let slowdown = run.speed.slowdown();
    let wall = run.speed.wall_factor(timing.cpu_share);
    let setups = run.setups.len() as u64;
    let setup_median = |pick: fn(&http_run::Setup) -> f64| {
        median(&mut run.setups.iter().map(pick).collect::<Vec<_>>())
    };
    report.push("setup_s", setup_median(|s| s.ref_s), "s", setups);
    report.push(
        "ref_queries_per_s",
        timing.queries_per_s / wall,
        "1/s",
        timing.ok,
    );
    report.push("ref_latency_mid_ms", mid_ms * wall, "ms", n);
    report.push("peak_rss_mb", run.peak_rss_kb as f64 / 1024.0, "MB", 1);
    report.push(
        "fresh_eval_share",
        share(run.metrics.fresh_evaluations(), boot_rows),
        "ratio",
        attempted,
    );
    let guarantee_rate = share(guarantee_ok, ok);
    report.push("guarantee_rate", guarantee_rate, "ratio", ok);
    report.push(
        "success_share",
        1.0 - share(failed, attempted),
        "ratio",
        attempted,
    );
    report.check(guarantee_rate >= RHO, || {
        format!("guarantee_rate {guarantee_rate:.4} is below rho = {RHO}")
    });

    // As measured on this box, this minute: information, not bounded.
    report.info("setup_wall_s", setup_median(|s| s.wall_s), "s", setups);
    report.info("queries_per_s", timing.queries_per_s, "1/s", timing.ok);
    report.info("latency_mid_ms", mid_ms, "ms", n);
    // The tail is the part of the distribution the box's noise stretches
    // most (see the README): printed at reference speed, not bounded.
    report.info("ref_latency_tail_ms", tail_ms * wall, "ms", n);
    report.info("latency_tail_ms", tail_ms, "ms", n);
    for (name, q) in [
        ("latency_p50_ms", 0.50),
        ("latency_p95_ms", 0.95),
        ("latency_p99_ms", 0.99),
    ] {
        report.info(name, timing.percentile_ms(q), "ms", n);
    }
    report.info(
        "server_cpu_ms_per_query",
        timing.cpu_ms_per_query,
        "ms",
        timing.ok,
    );
    report.info(
        "ref_server_cpu_ms_per_query",
        timing.cpu_ms_per_query / slowdown,
        "ms",
        timing.ok,
    );
    report.info(
        "box.speed_probe_ns",
        run.speed.kernel_ns,
        "ns",
        run.speed.samples as u64,
    );
    report.info("box.cpu_bound_share", timing.cpu_share, "ratio", timing.ok);
    report.info("window_s", run.window_wall.as_secs_f64(), "s", 1);
    if n < 1_000 {
        eprintln!("note: {n} latency samples leave fewer than ten beyond the tail band");
    }
    // The deciles show whether a percentile sits between two modes.
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", timing.percentile_ms(d as f64 / 10.0)))
        .collect();
    eprintln!(
        "info: latency deciles_ms [{}]; flush policy = server default",
        deciles.join(" ")
    );
}

/// Median self time of every span called `name`.
fn span_median(report: &mut Report, metric: &str, spans: &[trace::Span], own: &[u64], name: &str) {
    let mut values = trace::self_times_of(spans, own, name);
    let samples = values.len() as u64;
    let value = if values.is_empty() {
        0.0
    } else {
        median(&mut values)
    };
    report.push(metric, value, "ns", samples);
}

fn per_layer(
    report: &mut Report,
    run: &HttpRun,
    traced: &Replay,
    untraced: &Replay,
    probes: &[probes::Probe],
) {
    let spans = &traced.spans;
    let own = trace::self_times(spans);
    let facts = &traced.facts;
    let counts = &traced.counts;
    let m = &run.metrics;
    let total_of = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum()
    };
    let request_ns = total_of("request");
    let submit_ns = total_of("core.engine.submit");

    for (metric, name) in [
        ("serve.http.read_request_ns", "serve.http.read_request"),
        ("serve.http.write_response_ns", "serve.http.write_response"),
        ("serve.api.parse_ns", "serve.api.parse"),
        ("serve.api.render_ns", "serve.api.render"),
        ("serve.gate.acquire_ns", "serve.gate.acquire"),
        ("serve.tenant.route_ns", "serve.tenant.route"),
        ("serve.tenant.dataset_ns", "serve.tenant.dataset"),
        ("core.engine.submit_ns", "core.engine.submit"),
    ] {
        span_median(report, metric, spans, &own, name);
    }
    let per_request = |total: u64| total as f64 / facts.requests.max(1) as f64;
    report.push(
        "serve.http.req_bytes",
        per_request(facts.request_bytes),
        "bytes",
        facts.requests,
    );
    report.push(
        "serve.http.resp_bytes",
        per_request(facts.response_bytes),
        "bytes",
        facts.requests,
    );
    report.count("serve.gate.admitted", m.admitted);
    report.count("serve.gate.shed", m.shed);
    report.push(
        "serve.tenant.dataset_miss_share",
        share(facts.dataset_misses, facts.requests),
        "ratio",
        facts.requests,
    );

    // The server's own view of the same HTTP requests.
    report.push(
        "serve.metrics.query_p50_us",
        m.query_p50_us as f64,
        "us",
        m.query_requests,
    );
    report.push(
        "serve.metrics.query_p99_us",
        m.query_p99_us as f64,
        "us",
        m.query_requests,
    );
    report.push(
        "serve.metrics.query_mean_us",
        m.query_mean_us,
        "us",
        m.query_requests,
    );
    // The raw timings of the HTTP pass over the replayed requests.
    let timing = Timing::of(run);
    let n = timing.samples();
    report.push(
        "client.queries_per_s",
        timing.queries_per_s,
        "1/s",
        timing.ok,
    );
    report.push("client.latency_p50_ms", timing.percentile_ms(0.50), "ms", n);
    report.push("client.latency_p95_ms", timing.percentile_ms(0.95), "ms", n);
    report.push(
        "server.cpu_ms_per_query",
        timing.cpu_ms_per_query,
        "ms",
        timing.ok,
    );
    report.push(
        "server.ref_cpu_ms_per_query",
        timing.cpu_ms_per_query / run.speed.slowdown(),
        "ms",
        timing.ok,
    );
    report.push(
        "box.speed_probe_ns",
        run.speed.kernel_ns,
        "ns",
        run.speed.samples as u64,
    );
    // Socket + client share of the window's latency: both means cover
    // exactly the window's requests.
    let client_mean_us = timing.latencies_ns.iter().sum::<u64>() as f64 / n.max(1) as f64 / 1e3;
    report.push(
        "serve.wire_overhead_us",
        client_mean_us - run.window_query_mean_us,
        "us",
        n,
    );

    report.push(
        "core.engine.compute_share",
        facts.compute_seconds * 1e9 / submit_ns.max(1) as f64,
        "ratio",
        facts.requests,
    );
    report.push(
        "core.engine.result_hit_share",
        share(facts.result_hits, facts.requests),
        "ratio",
        facts.requests,
    );
    report.count("core.engine.dedup_joins", counts.engine.dedup_joins);
    report.count("core.result_memo.hits", counts.memo.hits);
    report.count("core.result_memo.misses", counts.memo.misses);
    report.count("core.result_memo.evictions", counts.memo.evictions);
    report.push(
        "table.derived.hit_share",
        share(
            counts.derived.hits,
            counts.derived.hits + counts.derived.misses,
        ),
        "ratio",
        counts.derived.hits + counts.derived.misses,
    );
    report.count("udf.fresh_evals", counts.evaluated);
    report.count("udf.reuse_hits", counts.reuse_hits);
    report.count("udf.local_hits", counts.local_hits);
    report.count("udf.retrieved", counts.retrieved);
    report.push(
        "udf.fresh_per_returned_row",
        share(counts.evaluated, facts.returned_rows),
        "ratio",
        facts.requests - facts.result_hits,
    );
    report.push(
        "exec.store.hit_share",
        share(counts.cache.hits, counts.cache.hits + counts.cache.misses),
        "ratio",
        counts.cache.hits + counts.cache.misses,
    );
    report.count("exec.store.insertions", counts.cache.insertions);
    report.count("exec.store.evictions", counts.cache.evictions);
    report.count("exec.store.ttl_expirations", counts.cache.ttl_expirations);
    report.count("persist.appended", counts.persist.appended);
    // Timing-dependent (queue overflow), so read from the real server.
    report.count("persist.shed", m.persist_shed);
    report.count("persist.rehydrated_rows", counts.persist.rehydrated_rows);
    for p in probes {
        report.push(p.name, p.value, p.unit, p.samples as u64);
    }

    let children_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.duration_ns())
        .sum();
    let coverage = children_ns as f64 / request_ns.max(1) as f64;
    let http_api_ns = total_of("serve.http.read_request")
        + total_of("serve.http.write_response")
        + total_of("serve.api.parse")
        + total_of("serve.api.render");
    let qps = |r: &Replay| r.window_requests as f64 / r.window_wall.as_secs_f64();
    report.push("trace.span_coverage", coverage, "ratio", facts.requests);
    report.push(
        "trace.http_api_time_share",
        http_api_ns as f64 / request_ns.max(1) as f64,
        "ratio",
        facts.requests,
    );
    report.push(
        "trace.engine_time_share",
        submit_ns as f64 / request_ns.max(1) as f64,
        "ratio",
        facts.requests,
    );
    report.push(
        "trace.overhead_share",
        1.0 - qps(traced) / qps(untraced),
        "ratio",
        traced.window_requests,
    );

    for i in 0..LADDER_RATES.len() {
        let step = run.ladder.get(i).copied().unwrap_or_default();
        let sent = step.sent as u64;
        report.push(
            &format!("serve.open.p95_ms_at_r{}", i + 1),
            step.p95_ms,
            "ms",
            sent,
        );
        report.push(
            &format!("serve.open.shed_share_at_r{}", i + 1),
            step.shed_share,
            "ratio",
            sent,
        );
    }
    // The highest rate that met the limit with every lower rate meeting it too.
    let max_rate_ok = run
        .ladder
        .iter()
        .take_while(|s| s.meets_limit())
        .last()
        .map_or(0.0, |s| s.rate);
    let late_ms = run.ladder.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    report.push(
        "serve.open.max_rate_ok_qps",
        max_rate_ok,
        "1/s",
        run.ladder.len() as u64,
    );
    report.push(
        "serve.open.generator_late_ms",
        late_ms,
        "ms",
        run.ladder.len() as u64,
    );

    let attempted = run.total(|t| t.attempted);
    let failed = run.total(|t| t.failed);
    report.push(
        "client.failed_share",
        share(failed, attempted),
        "ratio",
        attempted,
    );

    report.check(traced.digests == untraced.digests, || {
        "traced and untraced replays produced different bodies".to_owned()
    });
    report.check(traced.bill_proxy_holds && untraced.bill_proxy_holds, || {
        format!(
            "bill proxy broken: cache.insertions {} != evaluated {} + rehydrated {}",
            counts.cache.insertions, counts.evaluated, counts.persist.rehydrated_rows
        )
    });
    report.check(coverage >= MIN_SPAN_COVERAGE, || {
        format!("child spans cover only {coverage:.3} of the request time")
    });
    // The HTTP run served exactly the replayed requests, so the real
    // server's counters must equal the in-process ones.
    for (name, http, replayed) in [
        ("engine.queries", m.engine_queries, counts.engine.queries),
        (
            "engine.result_hits",
            m.result_hits,
            counts.engine.result_hits,
        ),
        (
            "cache.insertions",
            m.cache_insertions,
            counts.cache.insertions,
        ),
        ("result_memo.hits", m.memo_hits, counts.memo.hits),
        (
            "persist.rehydrated_rows",
            m.rehydrated_rows,
            counts.persist.rehydrated_rows,
        ),
    ] {
        report.check(http == replayed, || {
            format!("{name}: server counted {http}, in-process replay {replayed}")
        });
    }
}

/// The driver reads `BENCHMARK.json`; a metric it does not list (or lists
/// with another unit) must not be reported, and none it lists may be
/// missing. Skipped when the file is absent (a bare binary).
fn check_contract(report: &mut Report, traced: bool) {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return;
    };
    let section = if traced { "per_layer" } else { "end_to_end" };
    let listed: Option<Vec<(String, String)>> = JsonValue::parse(&text).ok().and_then(|doc| {
        doc.get(section)?
            .as_array()?
            .iter()
            .map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_owned(),
                    m.get("unit")?.as_str()?.to_owned(),
                ))
            })
            .collect()
    });
    let Some(mut listed) = listed else {
        report.check(false, || format!("BENCHMARK.json has no usable {section}"));
        return;
    };
    let mut reported: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect();
    listed.sort();
    reported.sort();
    report.check(listed == reported, || {
        let only = |a: &[(String, String)], b: &[(String, String)]| -> Vec<String> {
            a.iter()
                .filter(|m| !b.contains(m))
                .map(|(name, unit)| format!("{name} [{unit}]"))
                .collect()
        };
        format!(
            "BENCHMARK.json {section} differs: only listed {:?}, only reported {:?}",
            only(&listed, &reported),
            only(&reported, &listed)
        )
    });
}

fn trace_counts(report: &Report) -> Vec<(String, f64)> {
    report
        .metrics
        .iter()
        .filter(|m| m.unit == "count")
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

fn run(args: &Args, server_bin: &Path, scratch: &Path) -> Result<(Report, u64, u64), String> {
    let workload = args.workload;
    let streams = workload::generate(workload, args.seed, args.seconds);
    let window_len = workload.window_len(args.seconds);
    let prefix_len = (window_len / PREFIX_DIVISOR).max(1);
    let replay_dir = |name: &str| workload.durable().then(|| scratch.join(name));

    let run = http_run::run(&HttpRunConfig {
        server_bin,
        workload,
        streams: &streams,
        // The traced comparison needs the server to have seen exactly the
        // replayed requests, so its HTTP window is the prefix.
        window_len: if args.trace { prefix_len } else { window_len },
        prefix_len,
        scratch,
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        with_ladder: args.trace && workload == Workload::ZipfMixed,
        flip_byte: args.flip_byte,
    })?;
    let untraced = replay::replay(
        workload,
        &streams,
        prefix_len,
        replay_dir("replay-untraced").as_deref(),
        false,
    )?;

    let mut report = Report::default();
    check_http_run(&mut report, &run, &untraced, workload.durable());
    if args.trace {
        let traced = replay::replay(
            workload,
            &streams,
            prefix_len,
            replay_dir("replay-traced").as_deref(),
            true,
        )?;
        let probes = probes::run(workload, args.seed, scratch)?;
        per_layer(&mut report, &run, &traced, &untraced, &probes);
        let path = Path::new(RESULTS_DIR).join(format!("{}.trace.json", workload.name()));
        trace::write_json(
            &path,
            workload.name(),
            args.seed,
            &traced.spans,
            &trace_counts(&report),
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    } else {
        end_to_end(&mut report, &run);
    }
    check_contract(&mut report, args.trace);
    Ok((report, run.total(|t| t.attempted), run.total(|t| t.failed)))
}

fn main() {
    let args = parse_args();
    let server_bin = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("expred-serve")))
        .filter(|bin| bin.is_file())
        .unwrap_or_else(|| {
            eprintln!("expred-benchmark: no expred-serve beside this binary; use benchmark/run.sh");
            std::process::exit(2);
        });
    let scratch: PathBuf = Path::new(RESULTS_DIR).join(format!(
        "tmp-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("expred-benchmark: create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let outcome = run(&args, &server_bin, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let (report, attempted, failed) = outcome.unwrap_or_else(|e| {
        eprintln!("expred-benchmark: {e}");
        std::process::exit(1);
    });

    let name = args.workload.name();
    for m in report.metrics.iter().chain(&report.info) {
        println!("{name} {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    for violation in &report.violations {
        eprintln!("expred-benchmark: INCORRECT: {violation}");
    }
    let correct = report.violations.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}
