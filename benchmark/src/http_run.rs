//! The end-to-end run: the real `expred-serve` child process, driven over
//! loopback HTTP by one closed-loop client thread per tenant.

use crate::speed::{Speed, SpeedProbe};
use crate::stats::{percentile, FAILED_LATENCY_NS};
use crate::workload::{
    ladder_step_len, Request, TenantStream, Workload, LADDER_LIMIT_MS, LADDER_RATES, TENANTS,
};
use expred_serve::HttpClient;
use expred_stats::hash::Fnv64;
use expred_stats::json::JsonValue;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second (`USER_HZ`), fixed at 100 on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Connections the open-loop ladder spreads its arrivals over.
const LADDER_CONNECTIONS: usize = 8;

/// A running `expred-serve` child. Dropping it kills and reaps the child,
/// so no error path leaves a process behind.
pub struct Server {
    child: Child,
    /// Held open so the child's start-up `println!`s never hit a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("expred-serve listening on http://")
                .and_then(|rest| rest.parse().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address: {line:?}"));
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM (the graceful drain, which flushes persistence), then
    /// waits for the clean exit.
    pub fn terminate(mut self) -> Result<(), String> {
        let sent = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status()
            .map_err(|e| format!("kill -TERM: {e}"))?;
        if !sent.success() {
            return Err("kill -TERM failed".into());
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited uncleanly: {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not drain within 60 s of SIGTERM".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    let path = format!("/proc/{pid}/{file}");
    std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))
}

/// `utime + stime` of the process, in clock ticks.
fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = read_proc(pid, "stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, so 12 and 13 after the `)`.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => Ok(utime + stime),
        _ => Err(format!("unparseable /proc/{pid}/stat")),
    }
}

/// `VmHWM`, the process's peak resident set, in kB.
fn peak_rss_kb(pid: u32) -> Result<u64, String> {
    read_proc(pid, "status")?
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// The `/metrics.json` fields the benchmark reads, tenants summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerMetrics {
    pub responses_2xx: u64,
    pub admitted: u64,
    pub shed: u64,
    pub query_requests: u64,
    pub query_p50_us: u64,
    pub query_p99_us: u64,
    pub query_mean_us: f64,
    pub engine_queries: u64,
    pub result_hits: u64,
    pub dedup_joins: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub cache_evictions: u64,
    pub cache_ttl_expirations: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_evictions: u64,
    pub persist_appended: u64,
    pub persist_shed: u64,
    pub rehydrated_rows: u64,
}

impl ServerMetrics {
    fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("/metrics.json: {e}"))?;
        let field = |object: &JsonValue, path: &[&str]| -> Result<f64, String> {
            path.iter()
                .try_fold(object, |value, key| value.get(key))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("/metrics.json lacks {}", path.join(".")))
        };
        let count = |object: &JsonValue, path: &[&str]| field(object, path).map(|v| v as u64);
        let mut m = Self {
            responses_2xx: count(&doc, &["server", "responses_2xx"])?,
            admitted: count(&doc, &["server", "admitted"])?,
            shed: count(&doc, &["server", "shed"])?,
            query_requests: count(&doc, &["routes", "query", "requests"])?,
            query_p50_us: count(&doc, &["routes", "query", "latency_p50_micros"])?,
            query_p99_us: count(&doc, &["routes", "query", "latency_p99_micros"])?,
            query_mean_us: field(&doc, &["routes", "query", "latency_mean_micros"])?,
            ..Self::default()
        };
        let tenants = doc.get("tenants").ok_or("/metrics.json lacks tenants")?;
        for name in tenants.keys() {
            let t = tenants.get(name).expect("listed key is present");
            m.engine_queries += count(t, &["engine", "queries"])?;
            m.result_hits += count(t, &["engine", "result_hits"])?;
            m.dedup_joins += count(t, &["engine", "dedup_joins"])?;
            m.cache_hits += count(t, &["cache", "hits"])?;
            m.cache_misses += count(t, &["cache", "misses"])?;
            m.cache_insertions += count(t, &["cache", "insertions"])?;
            m.cache_evictions += count(t, &["cache", "evictions"])?;
            m.cache_ttl_expirations += count(t, &["cache", "ttl_expirations"])?;
            m.memo_hits += count(t, &["result_memo", "hits"])?;
            m.memo_misses += count(t, &["result_memo", "misses"])?;
            m.memo_evictions += count(t, &["result_memo", "evictions"])?;
            if t.get("persist").is_some() {
                m.persist_appended += count(t, &["persist", "appended"])?;
                m.persist_shed += count(t, &["persist", "shed"])?;
                m.rehydrated_rows += count(t, &["persist", "rehydrated_rows"])?;
            }
        }
        Ok(m)
    }

    /// Mean `/query` handler latency of the requests served since
    /// `earlier` was scraped.
    fn query_mean_since(&self, earlier: &ServerMetrics) -> f64 {
        let requests = self.query_requests - earlier.query_requests;
        let total = self.query_mean_us * self.query_requests as f64
            - earlier.query_mean_us * earlier.query_requests as f64;
        if requests == 0 {
            0.0
        } else {
            total / requests as f64
        }
    }

    /// Fresh UDF evaluations this boot: row-tier insertions that were not
    /// rehydration prefill (the identity the traced run asserts).
    pub fn fresh_evaluations(&self) -> u64 {
        self.cache_insertions - self.rehydrated_rows
    }
}

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {path}: status {}", response.status));
    }
    Ok(response.body_text())
}

/// A number from the fixed-order tail of a 200 body (`"counts"` onward
/// follows the long `"returned"` array), without parsing the array.
fn tail_number(body: &[u8], needle: &str) -> Option<f64> {
    let tail = &body[body.len().saturating_sub(320)..];
    let tail = std::str::from_utf8(tail).ok()?;
    let start = tail.rfind(needle)? + needle.len();
    let rest = &tail[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// What one client saw, over every phase it ran.
#[derive(Debug)]
pub struct Tally {
    /// FNV-1a over every 200 body, in send order.
    digest: Fnv64,
    /// The digest after this many window responses — what the replay
    /// reproduces.
    prefix_len: usize,
    pub prefix_digest: Option<u64>,
    window_seen: usize,
    pub attempted: u64,
    pub failed: u64,
    pub ok: u64,
    /// 200s answered by, and rows addressed to, the serving boot only
    /// (`durable_cold`'s populate goes to an earlier process).
    pub boot_ok: u64,
    pub boot_rows: u64,
    /// 200 bodies with precision ≥ α and recall ≥ β.
    pub guarantee_ok: u64,
    /// Replayed requests that came back with `counts.evaluated != 0`.
    pub replay_violations: u64,
    /// Window latencies: send → last body byte.
    pub latencies_ns: Vec<u64>,
}

impl Tally {
    fn new(prefix_len: usize) -> Self {
        Self {
            digest: Fnv64::new(),
            prefix_len,
            prefix_digest: None,
            window_seen: 0,
            attempted: 0,
            failed: 0,
            ok: 0,
            boot_ok: 0,
            boot_rows: 0,
            guarantee_ok: 0,
            replay_violations: 0,
            latencies_ns: Vec::new(),
        }
    }

    fn record(&mut self, request: &Request, status: Option<u16>, body: &[u8]) {
        self.attempted += 1;
        self.boot_rows += request.table_rows;
        if status != Some(200) {
            self.failed += 1;
            return;
        }
        self.ok += 1;
        self.boot_ok += 1;
        // Only the prefix is compared with the replay; past it, hashing
        // would be harness CPU competing with the server.
        if self.prefix_digest.is_none() {
            self.digest.write_bytes(body);
        }
        let at_least = |needle: &str| tail_number(body, needle).is_some_and(|v| v >= 0.8);
        if at_least("\"precision\":") && at_least("\"recall\":") {
            self.guarantee_ok += 1;
        }
        if request.replay && tail_number(body, "\"evaluated\":") != Some(0.0) {
            self.replay_violations += 1;
        }
    }

    fn window_response_seen(&mut self) {
        self.window_seen += 1;
        if self.window_seen == self.prefix_len {
            self.prefix_digest = Some(self.digest.finish());
        }
    }
}

/// One tenant's closed-loop client: one keep-alive connection.
struct Client {
    addr: SocketAddr,
    http: Option<HttpClient>,
    tally: Tally,
    /// Self-test: corrupt one byte of the next 200 body before it is
    /// digested; the correctness check must then fail.
    flip_next_byte: bool,
}

impl Client {
    fn send_all(&mut self, requests: &[Request], timed: bool) {
        for request in requests {
            if self.http.is_none() {
                self.http = HttpClient::connect(self.addr).ok();
            }
            let sent = Instant::now();
            let response = self
                .http
                .as_mut()
                .and_then(|http| http.raw(&request.bytes).ok());
            let elapsed = sent.elapsed().as_nanos() as u64;
            match response {
                Some(mut response) => {
                    if self.flip_next_byte && response.status == 200 {
                        response.body[0] ^= 1;
                        self.flip_next_byte = false;
                    }
                    self.tally
                        .record(request, Some(response.status), &response.body);
                    if timed {
                        let ok = response.status == 200;
                        self.tally
                            .latencies_ns
                            .push(if ok { elapsed } else { FAILED_LATENCY_NS });
                    }
                }
                None => {
                    // Transport error: drop the connection, count a miss.
                    self.http = None;
                    self.tally.record(request, None, &[]);
                    if timed {
                        self.tally.latencies_ns.push(FAILED_LATENCY_NS);
                    }
                }
            }
            if timed {
                self.tally.window_response_seen();
            }
        }
    }
}

/// Runs one phase — `requests[i]` on client `i`'s thread — and returns
/// its wall time.
fn run_phase(clients: &mut [Client], requests: Vec<&[Request]>, timed: bool) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (client, requests) in clients.iter_mut().zip(requests) {
            scope.spawn(move || client.send_all(requests, timed));
        }
    });
    started.elapsed()
}

/// One step of the open-loop ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LadderStep {
    pub rate: f64,
    pub sent: usize,
    /// p95 of (last body byte − due time); a refusal or failure is a miss.
    pub p95_ms: f64,
    pub shed_share: f64,
    /// Mean of (actual send − due time): how late the generator ran.
    pub late_ms: f64,
}

impl LadderStep {
    pub fn meets_limit(&self) -> bool {
        self.p95_ms <= LADDER_LIMIT_MS
    }
}

/// One open-loop arrival, timed from when it was due.
struct Arrival {
    /// Last body byte − due time; [`FAILED_LATENCY_NS`] for a refusal or a
    /// transport failure.
    latency_ns: u64,
    /// Actual send − due time.
    late_ns: u64,
}

/// Offers `requests` at a fixed arrival rate. Arrival `i` is due at
/// `i / rate`; whichever connection is free takes it, and its latency is
/// timed from the due time, so a stall is charged to every arrival it
/// delays.
fn ladder_step(addr: SocketAddr, requests: &[&Request], rate: f64) -> Result<LadderStep, String> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_worker: Vec<Result<Vec<Arrival>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LADDER_CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut http =
                        HttpClient::connect(addr).map_err(|e| format!("ladder connect: {e}"))?;
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            return Ok(samples);
                        };
                        let due = started + Duration::from_secs_f64(i as f64 / rate);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let late = Instant::now().saturating_duration_since(due);
                        let ok = match http.raw(&request.bytes) {
                            Ok(response) => response.status == 200,
                            Err(_) => {
                                http = HttpClient::connect(addr)
                                    .map_err(|e| format!("ladder reconnect: {e}"))?;
                                false
                            }
                        };
                        let latency = Instant::now().saturating_duration_since(due);
                        samples.push(Arrival {
                            latency_ns: if ok {
                                latency.as_nanos() as u64
                            } else {
                                FAILED_LATENCY_NS
                            },
                            late_ns: late.as_nanos() as u64,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("ladder thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::with_capacity(requests.len());
    for worker in per_worker {
        samples.extend(worker?);
    }
    let late_total: u64 = samples.iter().map(|a| a.late_ns).sum();
    let mut latencies: Vec<u64> = samples.iter().map(|a| a.latency_ns).collect();
    latencies.sort_unstable();
    let refused = latencies
        .iter()
        .filter(|&&l| l == FAILED_LATENCY_NS)
        .count();
    Ok(LadderStep {
        rate,
        sent: samples.len(),
        p95_ms: percentile(&latencies, 0.95) as f64 / 1e6,
        shed_share: refused as f64 / samples.len() as f64,
        late_ms: late_total as f64 / samples.len() as f64 / 1e6,
    })
}

/// Everything the end-to-end run measured.
#[derive(Debug)]
pub struct HttpRun {
    pub setups: Vec<Setup>,
    pub window_wall: Duration,
    /// The box's speed over the window.
    pub speed: Speed,
    pub tallies: Vec<Tally>,
    /// Server CPU over the window, in seconds.
    pub window_cpu_s: f64,
    pub peak_rss_kb: u64,
    /// `/metrics.json` at the end of the window (whole last boot).
    pub metrics: ServerMetrics,
    /// The server's own mean `/query` handler latency over the window.
    pub window_query_mean_us: f64,
    pub ladder: Vec<LadderStep>,
}

/// GETs the harness itself sends to the serving boot before the final
/// scrape: `/health` and the pre-window `/metrics.json`.
pub const HARNESS_GETS: u64 = 2;

impl HttpRun {
    /// One tally field summed over the clients.
    pub fn total(&self, pick: fn(&Tally) -> u64) -> u64 {
        self.tallies.iter().map(pick).sum()
    }
}

pub struct HttpRunConfig<'a> {
    pub server_bin: &'a Path,
    pub workload: Workload,
    pub streams: &'a [TenantStream],
    /// Window requests each client sends.
    pub window_len: usize,
    /// Window requests the in-process replay will reproduce.
    pub prefix_len: usize,
    pub scratch: &'a Path,
    /// Set-ups to time (at least one).
    pub setup_reps: usize,
    pub with_ladder: bool,
    pub flip_byte: bool,
}

/// One timed set-up: server spawn → end of warm-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// As measured.
    pub wall_s: f64,
    /// At reference speed (see `speed.rs`).
    pub ref_s: f64,
}

/// A warmed-up server with its clients connected.
struct Booted {
    server: Server,
    clients: Vec<Client>,
    data_dir: Option<PathBuf>,
    setup: Setup,
}

impl Booted {
    /// Spawn → (`durable_cold`: populate, drain, reboot) → `/health` →
    /// warm-up, timed.
    fn set_up(cfg: &HttpRunConfig<'_>, rep: usize) -> Result<Self, String> {
        let data_dir: Option<PathBuf> = cfg
            .workload
            .durable()
            .then(|| cfg.scratch.join(format!("server-data-{rep}")));
        let flags = cfg.workload.server_flags(data_dir.as_deref());

        let started = Instant::now();
        let probe = SpeedProbe::start();
        let mut server = Server::spawn(cfg.server_bin, &flags)?;
        let mut clients: Vec<Client> = (0..TENANTS)
            .map(|_| Client {
                addr: server.addr,
                http: None,
                tally: Tally::new(cfg.prefix_len),
                flip_next_byte: false,
            })
            .collect();
        let mut cpu = 0;
        if cfg.workload.durable() {
            run_phase(
                &mut clients,
                cfg.streams.iter().map(|s| &s.populate[..]).collect(),
                false,
            );
            cpu += cpu_ticks(server.pid())?;
            server.terminate()?;
            server = Server::spawn(cfg.server_bin, &flags)?;
            // The old connections died with the first boot; the tallies
            // (and their digests) carry over.
            for client in &mut clients {
                client.addr = server.addr;
                client.http = None;
                client.tally.boot_ok = 0;
                client.tally.boot_rows = 0;
            }
        }
        get(server.addr, "/health")?;
        run_phase(
            &mut clients,
            cfg.streams.iter().map(|s| &s.warmup[..]).collect(),
            false,
        );
        let wall_s = started.elapsed().as_secs_f64();
        let speed = probe.finish()?;
        cpu += cpu_ticks(server.pid())?;
        // Each client waits on the server, so the CPU-bound share of the
        // set-up is the server's CPU time per client-second.
        let cpu_share = cpu as f64 / CLOCK_TICKS_PER_S / (TENANTS as f64 * wall_s);
        Ok(Self {
            server,
            clients,
            data_dir,
            setup: Setup {
                wall_s,
                ref_s: wall_s * speed.wall_factor(cpu_share),
            },
        })
    }

    fn tear_down(self) -> Result<Vec<Tally>, String> {
        self.server.terminate()?;
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(self.clients.into_iter().map(|c| c.tally).collect())
    }
}

/// Tenants interleaved; each step continues where the last one stopped.
fn ladder(addr: SocketAddr, streams: &[TenantStream]) -> Result<Vec<LadderStep>, String> {
    let pool: Vec<&Request> = (0..streams[0].ladder.len())
        .flat_map(|i| streams.iter().map(move |s| &s.ladder[i]))
        .collect();
    let mut offset = 0;
    LADDER_RATES
        .iter()
        .map(|&rate| {
            let count = ladder_step_len(rate);
            let step = pool
                .get(offset..offset + count)
                .ok_or("ladder stream too short")?;
            offset += count;
            ladder_step(addr, step, rate)
        })
        .collect()
}

pub fn run(cfg: &HttpRunConfig<'_>) -> Result<HttpRun, String> {
    assert_eq!(cfg.streams.len(), TENANTS);
    // All set-ups but the last are torn down straight away.
    let mut booted = Booted::set_up(cfg, 0)?;
    let mut setups = vec![booted.setup];
    for rep in 1..cfg.setup_reps {
        booted.tear_down()?;
        booted = Booted::set_up(cfg, rep)?;
        setups.push(booted.setup);
    }
    let (addr, pid) = (booted.server.addr, booted.server.pid());

    booted.clients[0].flip_next_byte = cfg.flip_byte;
    let before = ServerMetrics::parse(&get(addr, "/metrics.json")?)?;
    let probe = SpeedProbe::start();
    let cpu_before = cpu_ticks(pid)?;
    let window_wall = run_phase(
        &mut booted.clients,
        cfg.streams
            .iter()
            .map(|s| &s.window[..cfg.window_len.min(s.window.len())])
            .collect(),
        true,
    );
    let cpu_after = cpu_ticks(pid)?;
    let speed = probe.finish()?;
    let peak_rss_kb = peak_rss_kb(pid)?;
    let metrics = ServerMetrics::parse(&get(addr, "/metrics.json")?)?;
    for client in &mut booted.clients {
        client.http = None;
    }
    let ladder = if cfg.with_ladder {
        ladder(addr, cfg.streams)?
    } else {
        Vec::new()
    };
    Ok(HttpRun {
        setups,
        window_wall,
        tallies: booted.tear_down()?,
        window_cpu_s: (cpu_after - cpu_before) as f64 / CLOCK_TICKS_PER_S,
        peak_rss_kb,
        speed,
        window_query_mean_us: metrics.query_mean_since(&before),
        metrics,
        ladder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &[u8] = br#"{"tenant":"t0","returned":[1,2,3],"counts":{"retrieved":16000,"evaluated":0,"cache_hits":0,"reuse_hits":9014},"cost":36958,"precision":1,"recall":0.8125,"num_groups":1,"plan_feasible":true}"#;

    fn request(replay: bool) -> Request {
        Request {
            bytes: Vec::new(),
            table_rows: 100,
            replay,
        }
    }

    #[test]
    fn tail_numbers_come_from_the_fixed_order_tail() {
        assert_eq!(tail_number(BODY, "\"precision\":"), Some(1.0));
        assert_eq!(tail_number(BODY, "\"recall\":"), Some(0.8125));
        assert_eq!(tail_number(BODY, "\"evaluated\":"), Some(0.0));
        assert_eq!(tail_number(BODY, "\"reuse_hits\":"), Some(9014.0));
        assert_eq!(tail_number(BODY, "\"absent\":"), None);
    }

    #[test]
    fn tally_counts_guarantee_failures_and_replay_violations() {
        let mut tally = Tally::new(2);
        tally.record(&request(true), Some(200), BODY);
        tally.window_response_seen();
        assert_eq!(
            (tally.ok, tally.guarantee_ok, tally.replay_violations),
            (1, 1, 0)
        );
        let paid = String::from_utf8_lossy(BODY).replace("\"evaluated\":0", "\"evaluated\":7");
        let weak = paid.replace("0.8125", "0.7");
        tally.record(&request(true), Some(200), weak.as_bytes());
        tally.window_response_seen();
        assert_eq!(
            (tally.ok, tally.guarantee_ok, tally.replay_violations),
            (2, 1, 1)
        );
        tally.record(&request(false), Some(429), b"{}");
        tally.record(&request(false), None, &[]);
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!((tally.boot_ok, tally.boot_rows), (2, 400));
        assert!(tally.prefix_digest.is_some());
    }

    #[test]
    fn one_flipped_byte_changes_the_digest() {
        let digest = |body: &[u8]| {
            let mut tally = Tally::new(1);
            tally.record(&request(false), Some(200), body);
            tally.window_response_seen();
            tally.prefix_digest.unwrap()
        };
        let mut flipped = BODY.to_vec();
        flipped[0] ^= 1;
        assert_ne!(digest(BODY), digest(&flipped));
        assert_eq!(digest(BODY), digest(BODY));
    }

    #[test]
    fn metrics_json_is_summed_over_tenants() {
        let tenant = r#"{"engine":{"queries":3,"result_hits":1,"dedup_joins":0},"cache":{"hits":5,"misses":6,"insertions":10,"evictions":0,"invalidated":0,"ttl_expirations":0},"result_memo":{"hits":1,"misses":2,"collision_rejects":0,"insertions":2,"evictions":0},"persist":{"appended":4,"shed":0,"rehydrated_rows":3},"tables":1}"#;
        let text = format!(
            r#"{{"server":{{"responses_2xx":7,"admitted":6,"shed":0}},"routes":{{"query":{{"requests":6,"latency_p50_micros":512,"latency_p99_micros":4096,"latency_mean_micros":700.5}}}},"tenants":{{"t0":{tenant},"t1":{tenant}}}}}"#
        );
        let m = ServerMetrics::parse(&text).unwrap();
        assert_eq!(m.engine_queries, 6);
        assert_eq!(m.cache_insertions, 20);
        assert_eq!(m.rehydrated_rows, 6);
        assert_eq!(m.fresh_evaluations(), 14);
        assert_eq!(m.query_mean_us, 700.5);
        assert!(ServerMetrics::parse("{}").is_err());
    }
}
