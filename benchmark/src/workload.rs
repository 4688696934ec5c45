//! The four workloads: server flags, frozen sizes, and the request
//! streams, which are a pure function of `(workload, seed, seconds)`.
//!
//! Every request is serialized once, up front, to the exact bytes that go
//! down the socket; the in-process replay feeds the same bytes to
//! `http::read_request`, so both runs see identical input.

use expred_serve::EngineConfig;
use std::path::Path;
use std::time::Duration;

/// Closed-loop clients; client `i` owns tenant `t<i>` and one connection.
/// Equals `nproc` on the reference box.
pub const TENANTS: usize = 2;

/// `--max-rows` passed to every server (and to `parse_query_body` in the
/// replay).
pub const MAX_ROWS: usize = 200_000;

/// Share of the window the in-process replay covers.
pub const PREFIX_DIVISOR: usize = 10;

/// Every table in every workload uses this contract (the paper's
/// defaults, spelled out so a change of server defaults cannot move the
/// benchmark).
const CONTRACT: &str = r#""alpha":0.8,"beta":0.8,"rho":0.8,"cost":{"retrieve":1,"evaluate":3}"#;

const INTEL_GRADE: &str = r#""kind":"intel_sample","predictor":"grade""#;
const INTEL_AUTO: &str = r#""kind":"intel_sample""#;
const OPTIMAL: &str = r#""kind":"optimal","predictor":"grade""#;
const ADAPTIVE: &str = r#""kind":"adaptive","predictor":"grade""#;
const ADAPTIVE_UNKNOWN: &str = r#""kind":"adaptive","predictor":"grade","corr":"unknown""#;
const ITERATIVE: &str = r#""kind":"iterative","predictor":"grade""#;
const NAIVE: &str = r#""kind":"naive""#;
const EXPR_LABEL: &str = r#""kind":"expr","predicate":"udf_label""#;
const EXPR_NOT_LABEL: &str = r#""kind":"expr","predicate":"not udf_label""#;

/// SplitMix64. The harness owns its generator so that a change to the
/// program's `Prng` cannot silently change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over ranks `0..n`; rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(s);
                total
            })
            .collect();
        Self { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let target = rng.next_f64() * total;
        self.cumulative
            .partition_point(|&c| c < target)
            .min(self.cumulative.len() - 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZipfMixed,
    NovelQueries,
    SlowUdfPool,
    DurableCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZipfMixed,
        Workload::NovelQueries,
        Workload::SlowUdfPool,
        Workload::DurableCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfMixed => "zipf_mixed",
            Workload::NovelQueries => "novel_queries",
            Workload::SlowUdfPool => "slow_udf_pool",
            Workload::DurableCold => "durable_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// UDF latency the server is started with.
    fn udf_latency(self) -> Duration {
        match self {
            Workload::SlowUdfPool => Duration::from_micros(100),
            _ => Duration::ZERO,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::DurableCold
    }

    /// Command-line flags for `expred-serve` (besides `--addr`).
    pub fn server_flags(self, data_dir: Option<&Path>) -> Vec<String> {
        let mut flags = vec!["--max-rows".to_owned(), MAX_ROWS.to_string()];
        if self == Workload::SlowUdfPool {
            flags.push("--pool".to_owned());
            flags.push("--udf-latency-us".to_owned());
            flags.push(self.udf_latency().as_micros().to_string());
        }
        if let Some(dir) = data_dir {
            flags.push("--data-dir".to_owned());
            flags.push(dir.display().to_string());
        }
        flags
    }

    /// The `EngineConfig` those flags produce inside the server — the
    /// replay builds its registry with it, so bodies must hash equal.
    pub fn engine_config(self, data_dir: Option<&Path>) -> EngineConfig {
        EngineConfig {
            pooled: self == Workload::SlowUdfPool,
            udf_latency: self.udf_latency(),
            data_dir: data_dir.map(Path::to_path_buf),
            cache_ttl: None,
        }
    }

    /// Rows of the tables the probes run on (the workload's own shape).
    pub fn table_rows(self) -> usize {
        match self {
            Workload::SlowUdfPool => SLOW_ROWS,
            _ => POOL_ROWS,
        }
    }

    /// Frozen sizing: timed-window requests per tenant per `--seconds`
    /// second, calibrated so the window lasts about `--seconds` on the
    /// 2-core reference box. The count, not the clock, ends the window,
    /// so every count metric repeats exactly.
    fn window_per_second(self) -> usize {
        match self {
            Workload::ZipfMixed => 1_400,
            Workload::NovelQueries => 150,
            Workload::SlowUdfPool => 15,
            Workload::DurableCold => 20,
        }
    }

    pub fn window_len(self, seconds: u64) -> usize {
        self.window_per_second() * seconds as usize
    }
}

/// Rows of the shared 4-table pool and of every `durable_cold` table.
const POOL_ROWS: usize = 20_000;
/// Rows of each `slow_udf_pool` table: small enough that a 100 µs UDF
/// still yields a few hundred latency samples per window.
const SLOW_ROWS: usize = 2_000;
/// `zipf_mixed` untimed warm-up requests per tenant.
const ZIPF_WARMUP: usize = 400;
/// `zipf_mixed` request-seed pool.
const ZIPF_SEEDS: usize = 16;
/// Tables in the shared pool (< the tenant table LRU of 8).
const POOL_TABLES: usize = 4;
/// `durable_cold` tables populated per tenant before the reboot.
const DURABLE_TABLES: usize = 20;

/// One serialized request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The bytes written to the socket: request line, headers, JSON body.
    pub bytes: Vec<u8>,
    /// Rows of the table the request addresses (the bill's denominator).
    pub table_rows: u64,
    /// `durable_cold` only: a replay of a populate request, which must
    /// come back with `counts.evaluated == 0` after the reboot.
    pub replay: bool,
}

/// One tenant's requests, in send order within each phase.
#[derive(Debug, Clone, Default)]
pub struct TenantStream {
    /// `durable_cold` only: sent to the first boot, before the reboot.
    pub populate: Vec<Request>,
    /// Untimed; inside `setup_s`.
    pub warmup: Vec<Request>,
    /// The timed window.
    pub window: Vec<Request>,
    /// `zipf_mixed` only: the open-loop ladder's requests.
    pub ladder: Vec<Request>,
}

fn spec_name(index: usize) -> &'static str {
    if index.is_multiple_of(2) {
        "prosper"
    } else {
        "lc"
    }
}

fn request(
    tenant: usize,
    spec: &str,
    rows: usize,
    table_seed: u64,
    kind: &str,
    seed: u64,
) -> Request {
    let body = format!(
        "{{\"tenant\":\"t{tenant}\",\
         \"table\":{{\"spec\":\"{spec}\",\"rows\":{rows},\"seed\":{table_seed}}},\
         \"query\":{{{kind},{CONTRACT}}},\"seed\":{seed}}}"
    );
    let mut bytes = format!(
        "POST /query HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    Request {
        bytes,
        table_rows: rows as u64,
        replay: false,
    }
}

/// Distinct generator state per `(seed, tenant, workload)`.
fn stream_rng(workload: Workload, seed: u64, tenant: usize) -> SplitMix64 {
    let mut mixer = SplitMix64::new(seed);
    let a = mixer.next_u64();
    SplitMix64::new(a ^ ((tenant as u64 + 1) << 32) ^ (workload as u64 + 1))
}

fn zipf_mixed(tenant: usize, seed: u64, window: usize) -> TenantStream {
    const KINDS: [&str; 7] = [
        INTEL_GRADE,
        OPTIMAL,
        ADAPTIVE,
        NAIVE,
        EXPR_LABEL,
        ITERATIVE,
        INTEL_AUTO,
    ];
    let mut rng = stream_rng(Workload::ZipfMixed, seed, tenant);
    let table_pick = Zipf::new(POOL_TABLES, 1.2);
    let kind_pick = Zipf::new(KINDS.len(), 1.0);
    let seed_pick = Zipf::new(ZIPF_SEEDS, 1.5);
    let mut next = || {
        let table = table_pick.sample(&mut rng);
        let kind = KINDS[kind_pick.sample(&mut rng)];
        let request_seed = seed_pick.sample(&mut rng) as u64;
        request(
            tenant,
            spec_name(table),
            POOL_ROWS,
            table as u64,
            kind,
            request_seed,
        )
    };
    TenantStream {
        populate: Vec::new(),
        warmup: (0..ZIPF_WARMUP).map(|_| next()).collect(),
        window: (0..window).map(|_| next()).collect(),
        ladder: (0..ladder_per_tenant()).map(|_| next()).collect(),
    }
}

fn novel_queries(tenant: usize, seed: u64, window: usize) -> TenantStream {
    const KINDS: [&str; 6] = [
        INTEL_GRADE,
        INTEL_AUTO,
        OPTIMAL,
        ADAPTIVE_UNKNOWN,
        ITERATIVE,
        EXPR_NOT_LABEL,
    ];
    let mut rng = stream_rng(Workload::NovelQueries, seed, tenant);
    let table_pick = Zipf::new(POOL_TABLES, 1.2);
    let warmup = (0..POOL_TABLES)
        .map(|table| request(tenant, spec_name(table), POOL_ROWS, table as u64, NAIVE, 0))
        .collect();
    let window = (0..window)
        .map(|j| {
            let table = table_pick.sample(&mut rng);
            // Unique per tenant, so the result memo can never hit.
            let request_seed = seed * 1_000_000 + j as u64 + 1;
            request(
                tenant,
                spec_name(table),
                POOL_ROWS,
                table as u64,
                KINDS[j % KINDS.len()],
                request_seed,
            )
        })
        .collect();
    TenantStream {
        warmup,
        window,
        ..TenantStream::default()
    }
}

fn slow_udf_pool(tenant: usize, seed: u64, window: usize) -> TenantStream {
    // No `expr`: that path ignores the latency knob today.
    const KINDS: [&str; 5] = [INTEL_GRADE, INTEL_AUTO, OPTIMAL, ADAPTIVE, ITERATIVE];
    let mut rng = stream_rng(Workload::SlowUdfPool, seed, tenant);
    let mut counter = 0u64;
    let mut next = || {
        counter += 1;
        // A new table every request: the working set overflows the
        // tenant table LRU on purpose.
        let table_seed = seed * 1_000_000 + counter;
        let spec = spec_name((rng.next_u64() & 1) as usize);
        let kind = KINDS[(counter as usize - 1) % KINDS.len()];
        request(tenant, spec, SLOW_ROWS, table_seed, kind, counter)
    };
    TenantStream {
        warmup: (0..KINDS.len()).map(|_| next()).collect(),
        window: (0..window).map(|_| next()).collect(),
        ..TenantStream::default()
    }
}

fn durable_cold(tenant: usize, seed: u64, window: usize) -> TenantStream {
    const NEW_KINDS: [&str; 4] = [INTEL_GRADE, OPTIMAL, ADAPTIVE, ITERATIVE];
    // Per table: one request that buys every row (so a replay after the
    // reboot can demand any row and still pay nothing), then the paper's
    // algorithm over the now-warm rows.
    let populate: Vec<Request> = (0..DURABLE_TABLES)
        .flat_map(|table| {
            let table_seed = seed * 1_000_000 + table as u64;
            [(EXPR_LABEL, 1), (INTEL_GRADE, 2)].map(|(kind, request_seed)| {
                request(
                    tenant,
                    spec_name(table),
                    POOL_ROWS,
                    table_seed,
                    kind,
                    request_seed,
                )
            })
        })
        .collect();
    let window = (0..window)
        .map(|j| {
            if j.is_multiple_of(2) {
                let mut replay = populate[(j / 2) % populate.len()].clone();
                replay.replay = true;
                replay
            } else {
                let table_seed = seed * 1_000_000 + 1_000 + j as u64;
                request(
                    tenant,
                    spec_name(j / 2),
                    POOL_ROWS,
                    table_seed,
                    NEW_KINDS[(j / 2) % NEW_KINDS.len()],
                    j as u64,
                )
            }
        })
        .collect();
    TenantStream {
        populate,
        window,
        ..TenantStream::default()
    }
}

/// The whole run's input: one stream per tenant.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Vec<TenantStream> {
    let window = workload.window_len(seconds);
    (0..TENANTS)
        .map(|tenant| match workload {
            Workload::ZipfMixed => zipf_mixed(tenant, seed, window),
            Workload::NovelQueries => novel_queries(tenant, seed, window),
            Workload::SlowUdfPool => slow_udf_pool(tenant, seed, window),
            Workload::DurableCold => durable_cold(tenant, seed, window),
        })
        .collect()
}

/// Arrival rates of the open-loop ladder, in requests per second.
pub const LADDER_RATES: [f64; 3] = [800.0, 1_400.0, 2_000.0];
/// How long each ladder step offers load.
pub const LADDER_STEP: Duration = Duration::from_secs(3);
/// Latency limit on the ladder's p95.
pub const LADDER_LIMIT_MS: f64 = 20.0;

/// Requests one ladder step offers at `rate`.
pub fn ladder_step_len(rate: f64) -> usize {
    (rate * LADDER_STEP.as_secs_f64()) as usize
}

/// Ladder requests generated per tenant: enough for every step.
fn ladder_per_tenant() -> usize {
    let total: usize = LADDER_RATES.iter().map(|&r| ladder_step_len(r)).sum();
    total.div_ceil(TENANTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let zipf = Zipf::new(16, 1.5);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..2_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 16));
        let top = ranks.iter().filter(|&&r| r == 0).count();
        let tail = ranks.iter().filter(|&&r| r == 15).count();
        assert!(top > 10 * tail.max(1), "rank 0 dominates: {top} vs {tail}");
    }

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let bytes = |seed| {
                generate(workload, seed, 1)
                    .into_iter()
                    .flat_map(|s| {
                        s.populate
                            .into_iter()
                            .chain(s.warmup)
                            .chain(s.window)
                            .map(|r| r.bytes)
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(bytes(3), bytes(3), "{}", workload.name());
            assert_ne!(bytes(3), bytes(4), "{}", workload.name());
        }
    }

    #[test]
    fn window_length_scales_with_seconds_and_is_frozen() {
        for workload in Workload::ALL {
            assert_eq!(workload.window_len(10), 10 * workload.window_len(1));
            let streams = generate(workload, 1, 2);
            assert_eq!(streams.len(), TENANTS);
            assert!(streams
                .iter()
                .all(|s| s.window.len() == workload.window_len(2)));
        }
    }

    #[test]
    fn novel_queries_never_repeats_a_request() {
        for stream in generate(Workload::NovelQueries, 1, 3) {
            let mut bodies: Vec<&[u8]> = stream.window.iter().map(|r| &r.bytes[..]).collect();
            bodies.sort_unstable();
            let before = bodies.len();
            bodies.dedup();
            assert_eq!(bodies.len(), before);
        }
    }

    #[test]
    fn durable_cold_alternates_replays_with_new_tables() {
        let stream = &generate(Workload::DurableCold, 1, 2)[0];
        assert_eq!(stream.populate.len(), 2 * DURABLE_TABLES);
        for (j, request) in stream.window.iter().enumerate() {
            assert_eq!(request.replay, j % 2 == 0);
            let is_populate = stream.populate.iter().any(|p| p.bytes == request.bytes);
            assert_eq!(is_populate, request.replay);
        }
    }

    #[test]
    fn requests_parse_as_the_server_would_parse_them() {
        for workload in Workload::ALL {
            for stream in generate(workload, 1, 1) {
                for request in stream
                    .populate
                    .iter()
                    .chain(&stream.warmup)
                    .chain(&stream.window)
                    .take(40)
                {
                    let parsed = expred_serve::http::read_request(
                        &mut &request.bytes[..],
                        &expred_serve::Limits::default(),
                    )
                    .expect("well-formed HTTP");
                    let query = expred_serve::api::parse_query_body(&parsed.body, MAX_ROWS)
                        .expect("well-formed query");
                    assert_eq!(query.table.rows as u64, request.table_rows);
                }
            }
        }
    }
}
