//! The fault-tolerant remote UDF client.
//!
//! [`RemoteClient`] turns "evaluate oracle O on row R" into a blocking
//! call that survives everything the fault harness throws at the wire:
//!
//! * **connection pool** — a fixed set of lazily-dialed connections;
//!   probes are spread round-robin, and a connection that dies (EOF,
//!   corrupt frame, write error) is marked poisoned and redialed on
//!   next use;
//! * **pipelined demux** — each connection has one reader thread that
//!   routes responses to waiters by echoed request id, so many probes
//!   share a connection with out-of-order completion;
//! * **deadline + retry** — every attempt has a timeout; failed
//!   attempts are retried with bounded exponential backoff and
//!   deterministic jitter, each retry under a fresh request id (a late
//!   answer to a dead id is simply discarded);
//! * **hedging** — after a delay derived from the observed p99 latency,
//!   a duplicate request goes out on a *different* connection and the
//!   first answer wins; the loser's id is deregistered, so its eventual
//!   answer (if any) is dropped on the floor;
//! * **circuit breaker** — consecutive probe failures open a
//!   per-endpoint breaker; while open, probes fail fast with
//!   [`RemoteError::CircuitOpen`] instead of each paying the full
//!   deadline × retry budget.
//!
//! Billing is *not* done here: the client counts wire work (requests,
//! retries, hedges, timeouts — [`RemoteStatsSnapshot`]) and mirrors the
//! retry/hedge ledger into an optional shared
//! [`CostTracker`], but the paper-model `o_e`
//! bill is charged exactly once per row by the `UdfInvoker` above this
//! layer, no matter how many wire attempts a probe took.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use expred_udf::CostTracker;

use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use crate::proto::{
    read_frame, write_frame, ProtoError, Request, Response, STATUS_OK, STATUS_UNKNOWN_ORACLE,
};

/// How often a reader thread wakes from a blocking read to check for
/// client shutdown.
const READER_POLL: Duration = Duration::from_millis(50);

/// How many recent attempt latencies feed the hedge-delay percentile.
const LATENCY_WINDOW: usize = 256;

/// Hedged-request tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Hedge delay used until `min_samples` latencies are observed.
    pub initial_delay: Duration,
    /// Observed-latency samples required before the delay switches to
    /// the p99-derived value.
    pub min_samples: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            initial_delay: Duration::from_millis(50),
            min_samples: 32,
        }
    }
}

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// `host:port` of the UDF server.
    pub endpoint: String,
    /// Pool size; also the natural in-flight window for batch callers.
    pub connections: usize,
    /// Dial timeout for one connection attempt.
    pub connect_timeout: Duration,
    /// Deadline for one attempt of one probe.
    pub attempt_timeout: Duration,
    /// Extra attempts after the first (0 = never retry).
    pub max_retries: u32,
    /// First backoff sleep; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Hedging policy; `None` disables hedged requests.
    pub hedge: Option<HedgeConfig>,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl ClientConfig {
    /// Sensible defaults for a loopback test server.
    pub fn new(endpoint: impl Into<String>) -> Self {
        Self {
            endpoint: endpoint.into(),
            connections: 4,
            connect_timeout: Duration::from_millis(500),
            attempt_timeout: Duration::from_millis(500),
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            hedge: Some(HedgeConfig::default()),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Why a probe (after all retries) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The circuit breaker is open: the endpoint is considered down and
    /// the probe failed fast without touching the wire.
    CircuitOpen {
        /// The guarded endpoint.
        endpoint: String,
    },
    /// Every attempt timed out or died in transport.
    DeadlineExhausted {
        /// The endpoint that never answered.
        endpoint: String,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// The server does not know the named oracle. Not retried: the
    /// server answered, the request is simply wrong.
    UnknownOracle {
        /// The name the server rejected.
        oracle: String,
    },
    /// The server rejected the request (row out of range, undecodable).
    BadRequest {
        /// The endpoint that rejected it.
        endpoint: String,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::CircuitOpen { endpoint } => {
                write!(f, "circuit breaker open for {endpoint}")
            }
            RemoteError::DeadlineExhausted { endpoint, attempts } => {
                write!(f, "{endpoint} did not answer within {attempts} attempts")
            }
            RemoteError::UnknownOracle { oracle } => {
                write!(f, "remote server has no oracle named {oracle:?}")
            }
            RemoteError::BadRequest { endpoint } => {
                write!(f, "{endpoint} rejected the probe as malformed")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

/// Remote failures enter the engine's error space as `Unavailable`
/// (infrastructure, retryable → 503) or `InvalidRequest` (caller bug).
impl From<RemoteError> for expred_core::EngineError {
    fn from(e: RemoteError) -> Self {
        match e {
            RemoteError::CircuitOpen { endpoint } => expred_core::EngineError::Unavailable {
                endpoint,
                reason: "circuit breaker open".into(),
            },
            RemoteError::DeadlineExhausted { endpoint, attempts } => {
                expred_core::EngineError::Unavailable {
                    endpoint,
                    reason: format!("no answer within {attempts} attempts"),
                }
            }
            RemoteError::UnknownOracle { oracle } => expred_core::EngineError::InvalidRequest {
                reason: format!("remote server has no oracle named {oracle:?}"),
            },
            RemoteError::BadRequest { endpoint } => expred_core::EngineError::InvalidRequest {
                reason: format!("remote server {endpoint} rejected the probe as malformed"),
            },
        }
    }
}

expred_stats::counter_set! {
    /// Wire-level counters, exported through `GET /metrics` by the serving
    /// tier. The two `breaker_*` counters are the circuit breaker's own:
    /// [`RemoteClient::stats`] copies them in, and their slots in the
    /// atomic twin stay zero.
    pub struct RemoteStatsSnapshot, atomic struct RemoteStats {
        /// Probes issued (not counting retries/hedges).
        requests,
        /// Extra attempts after a timeout or transport failure.
        retries,
        /// Speculative duplicate requests sent.
        hedges,
        /// Hedges whose answer arrived before the primary's.
        hedge_wins,
        /// Attempts that hit their per-attempt deadline.
        timeouts,
        /// Attempts that died in transport (connect/write/reader poison).
        transport_errors,
        /// Successful (re)dials of pool connections.
        reconnects,
        /// Times the circuit breaker tripped open.
        breaker_opens,
        /// Probes failed fast by an open breaker.
        breaker_rejections,
        /// Probes answered by the caller-supplied local fallback evaluator.
        fallback_local,
    }
}

/// A waiter for one logical probe; hedges register a second id pointing
/// at the same cell, and whichever response lands first wins.
struct WaitCell {
    slot: Mutex<Option<(u64, Response)>>,
    ready: Condvar,
}

impl WaitCell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, id: u64, response: Response) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some((id, response));
            self.ready.notify_all();
        }
    }

    /// Waits until fulfilled or `deadline`; returns `(winning_id, response)`.
    fn wait_until(&self, deadline: Instant) -> Option<(u64, Response)> {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(found) = *slot {
                return Some(found);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timeout) = self.ready.wait_timeout(slot, deadline - now).unwrap();
            slot = next;
            if timeout.timed_out() && slot.is_none() {
                return None;
            }
        }
    }
}

type WaiterMap = Mutex<HashMap<u64, Arc<WaitCell>>>;

/// One pooled connection: a locked writer plus a detached reader thread
/// that demultiplexes responses into the shared waiter map.
struct Conn {
    writer: Mutex<BufWriter<TcpStream>>,
    alive: AtomicBool,
}

impl Conn {
    fn dial(
        endpoint: &str,
        timeout: Duration,
        waiters: Arc<WaiterMap>,
        closed: Arc<AtomicBool>,
    ) -> io::Result<Arc<Conn>> {
        let addr = endpoint
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{endpoint}: {e}")))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true).ok();
        let reader_stream = stream.try_clone()?;
        reader_stream.set_read_timeout(Some(READER_POLL))?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(BufWriter::new(stream)),
            alive: AtomicBool::new(true),
        });
        let reader_conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("remote-udf-reader".into())
            .spawn(move || reader_loop(reader_stream, reader_conn, waiters, closed))?;
        Ok(conn)
    }

    fn poison(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    fn send(&self, frame: &[u8]) -> io::Result<()> {
        let mut writer = self.writer.lock().unwrap();
        write_frame(&mut *writer, frame)
    }
}

fn reader_loop(
    stream: TcpStream,
    conn: Arc<Conn>,
    waiters: Arc<WaiterMap>,
    closed: Arc<AtomicBool>,
) {
    let mut reader = BufReader::new(stream);
    loop {
        if closed.load(Ordering::SeqCst) || !conn.is_alive() {
            return;
        }
        match read_frame(&mut reader) {
            Ok(body) => {
                if let Ok(response) = Response::decode(&body) {
                    // An id nobody is waiting for — a cancelled hedge, a
                    // retried attempt's late answer — is dropped here.
                    let cell = waiters.lock().unwrap().get(&response.id).cloned();
                    if let Some(cell) = cell {
                        cell.fulfill(response.id, response);
                    }
                } else {
                    // Undecodable response: the stream is garbage.
                    conn.poison();
                    return;
                }
            }
            Err(ProtoError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // idle poll quantum; re-check shutdown
            }
            // EOF, truncation, corrupt length prefix, hard I/O error:
            // the connection is dead. In-flight probes on it recover via
            // their attempt deadline, not via any notification from here.
            Err(_) => {
                conn.poison();
                return;
            }
        }
    }
}

/// A pooled, retrying, hedging, breaker-guarded client for one endpoint.
pub struct RemoteClient {
    config: ClientConfig,
    pool: Vec<Mutex<Option<Arc<Conn>>>>,
    waiters: Arc<WaiterMap>,
    breaker: CircuitBreaker,
    stats: Arc<RemoteStats>,
    next_id: AtomicU64,
    next_slot: AtomicU64,
    /// Recent attempt latencies (µs) feeding the hedge-delay percentile.
    latencies: Mutex<Vec<u64>>,
    closed: Arc<AtomicBool>,
    tracker: Option<CostTracker>,
}

impl RemoteClient {
    /// A client for `config.endpoint`. Connections are dialed lazily on
    /// first use, so constructing a client never blocks.
    pub fn new(config: ClientConfig) -> Self {
        let pool = (0..config.connections.max(1))
            .map(|_| Mutex::new(None))
            .collect();
        let breaker = CircuitBreaker::new(config.breaker);
        Self {
            config,
            pool,
            waiters: Arc::new(Mutex::new(HashMap::new())),
            breaker,
            stats: Arc::new(RemoteStats::default()),
            next_id: AtomicU64::new(1),
            next_slot: AtomicU64::new(0),
            latencies: Mutex::new(Vec::with_capacity(LATENCY_WINDOW)),
            closed: Arc::new(AtomicBool::new(false)),
            tracker: None,
        }
    }

    /// Mirrors the wire retry/hedge ledger into a shared cost tracker
    /// (the same one the `UdfInvoker` bills `o_e` through), so the cost
    /// report shows wire amplification next to — but never inside — the
    /// paper-model bill.
    pub fn with_tracker(mut self, tracker: CostTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// The endpoint this client talks to.
    pub fn endpoint(&self) -> &str {
        &self.config.endpoint
    }

    /// Current wire counters.
    pub fn stats(&self) -> RemoteStatsSnapshot {
        RemoteStatsSnapshot {
            breaker_opens: self.breaker.opens(),
            breaker_rejections: self.breaker.rejections(),
            ..self.stats.snapshot()
        }
    }

    /// Current breaker state, for tests and metrics.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    pub(crate) fn note_fallback(&self) {
        self.stats.fallback_local.fetch_add(1, Ordering::Relaxed);
    }

    /// The hedge delay for the next probe: the observed p99 attempt
    /// latency once enough samples exist, else the configured initial
    /// delay. Always at least 1 ms so a fast server doesn't hedge
    /// every single probe.
    fn hedge_delay(&self, hedge: &HedgeConfig) -> Duration {
        let latencies = self.latencies.lock().unwrap();
        if latencies.len() < hedge.min_samples.max(1) {
            return hedge.initial_delay;
        }
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        let p99_us = sorted[rank.saturating_sub(1).min(sorted.len() - 1)];
        Duration::from_micros(p99_us).max(Duration::from_millis(1))
    }

    fn record_latency(&self, elapsed: Duration) {
        let mut latencies = self.latencies.lock().unwrap();
        if latencies.len() >= LATENCY_WINDOW {
            // Overwrite pseudo-randomly so the window stays recent-ish
            // without a ring index; cheap and allocation-free.
            let at = (elapsed.as_nanos() as usize) % LATENCY_WINDOW;
            latencies[at] = elapsed.as_micros() as u64;
        } else {
            latencies.push(elapsed.as_micros() as u64);
        }
    }

    /// Gets slot `slot`'s connection, redialing if absent or poisoned.
    fn conn_for_slot(&self, slot: usize) -> io::Result<Arc<Conn>> {
        let mut guard = self.pool[slot % self.pool.len()].lock().unwrap();
        if let Some(conn) = guard.as_ref() {
            if conn.is_alive() {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = Conn::dial(
            &self.config.endpoint,
            self.config.connect_timeout,
            Arc::clone(&self.waiters),
            Arc::clone(&self.closed),
        )?;
        self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn register(&self, id: u64, cell: &Arc<WaitCell>) {
        self.waiters.lock().unwrap().insert(id, Arc::clone(cell));
    }

    fn deregister(&self, id: u64) {
        self.waiters.lock().unwrap().remove(&id);
    }

    /// Sends one request on the slot's connection. Returns the id it
    /// was registered under, or `None` on a transport failure (the
    /// connection is poisoned and the waiter deregistered).
    fn send_attempt(
        &self,
        slot: usize,
        oracle: &str,
        row: u64,
        cell: &Arc<WaitCell>,
    ) -> Option<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.register(id, cell);
        let request = Request {
            id,
            oracle: oracle.to_string(),
            row,
        };
        let conn = match self.conn_for_slot(slot) {
            Ok(conn) => conn,
            Err(_) => {
                self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                self.deregister(id);
                return None;
            }
        };
        if conn.send(&request.encode()).is_err() {
            conn.poison();
            self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
            self.deregister(id);
            return None;
        }
        Some(id)
    }

    /// Deterministic backoff for retry `attempt` of probe `row`:
    /// exponential from `backoff_base`, capped, with ±25% jitter keyed
    /// on `(row, attempt)` so replays sleep identically.
    fn backoff(&self, row: u64, attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_micros() as u64;
        let cap = self.config.backoff_cap.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap).max(1);
        let mut z = row
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let jitter = (z % (exp / 2 + 1)).saturating_sub(exp / 4);
        Duration::from_micros(exp.saturating_add(jitter).min(cap))
    }

    /// Evaluates `oracle` on `row`: the full deadline → retry → hedge →
    /// breaker pipeline. Blocks the calling thread until an answer or a
    /// typed failure.
    pub fn probe(&self, oracle: &str, row: u64) -> Result<bool, RemoteError> {
        if self.breaker.admit() == Admission::Rejected {
            return Err(RemoteError::CircuitOpen {
                endpoint: self.config.endpoint.clone(),
            });
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);

        let attempts = 1 + self.config.max_retries;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                if let Some(tracker) = &self.tracker {
                    tracker.add_retries(1);
                }
                std::thread::sleep(self.backoff(row, attempt - 1));
            }
            match self.one_attempt(oracle, row) {
                AttemptOutcome::Answered(response) => {
                    return self.settle(response, oracle);
                }
                AttemptOutcome::TimedOut => {
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                AttemptOutcome::Transport => {
                    // Already counted in send_attempt; just retry.
                }
            }
        }
        self.breaker.record_failure();
        Err(RemoteError::DeadlineExhausted {
            endpoint: self.config.endpoint.clone(),
            attempts,
        })
    }

    /// One attempt: send, optionally hedge at the p99-derived delay,
    /// wait out the attempt deadline.
    fn one_attempt(&self, oracle: &str, row: u64) -> AttemptOutcome {
        let cell = WaitCell::new();
        let started = Instant::now();
        let deadline = started + self.config.attempt_timeout;
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed) as usize;

        let Some(primary_id) = self.send_attempt(slot, oracle, row, &cell) else {
            return AttemptOutcome::Transport;
        };

        let mut hedge_id: Option<u64> = None;
        let first_wait_until = match self.config.hedge.as_ref() {
            Some(hedge) => deadline.min(started + self.hedge_delay(hedge)),
            None => deadline,
        };

        let mut winner = cell.wait_until(first_wait_until);
        if winner.is_none() && self.config.hedge.is_some() && Instant::now() < deadline {
            // Primary is slow: hedge on the *next* pool slot so the
            // duplicate rides a different connection.
            self.stats.hedges.fetch_add(1, Ordering::Relaxed);
            if let Some(tracker) = &self.tracker {
                tracker.add_hedges(1);
            }
            hedge_id = self.send_attempt(slot + 1, oracle, row, &cell);
            winner = cell.wait_until(deadline);
        } else if winner.is_none() {
            winner = cell.wait_until(deadline);
        }

        // First answer won (or nobody did): cancel both ids so late
        // answers are discarded by the demux.
        self.deregister(primary_id);
        if let Some(id) = hedge_id {
            self.deregister(id);
        }

        match winner {
            Some((winning_id, response)) => {
                self.record_latency(started.elapsed());
                if Some(winning_id) == hedge_id {
                    self.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                AttemptOutcome::Answered(response)
            }
            None => AttemptOutcome::TimedOut,
        }
    }

    /// Maps a server answer to the probe result and feeds the breaker.
    fn settle(&self, response: Response, oracle: &str) -> Result<bool, RemoteError> {
        // The server answered: the *endpoint* is healthy even when the
        // request itself was wrong, so all of these close the breaker.
        self.breaker.record_success();
        match response.status {
            STATUS_OK => Ok(response.answer),
            STATUS_UNKNOWN_ORACLE => Err(RemoteError::UnknownOracle {
                oracle: oracle.to_string(),
            }),
            _ => Err(RemoteError::BadRequest {
                endpoint: self.config.endpoint.clone(),
            }),
        }
    }
}

enum AttemptOutcome {
    Answered(Response),
    TimedOut,
    Transport,
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::SeqCst);
        // Reader threads notice `closed` within one poll quantum and
        // exit; poisoning makes any concurrent sender bail too.
        for slot in &self.pool {
            if let Some(conn) = slot.lock().unwrap().as_ref() {
                conn.poison();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::server::{OracleMap, UdfServer};

    fn server_with(bits: &[bool], plan: FaultPlan) -> UdfServer {
        let mut oracles = OracleMap::new();
        oracles.insert("default".to_string(), Arc::new(bits.to_vec()));
        UdfServer::bind("127.0.0.1:0", oracles, plan).unwrap()
    }

    fn config_for(server: &UdfServer) -> ClientConfig {
        ClientConfig::new(server.addr().to_string())
    }

    #[test]
    fn healthy_probes_answer_correctly() {
        let bits = [true, false, true, true, false];
        let server = server_with(&bits, FaultPlan::healthy());
        let client = RemoteClient::new(config_for(&server));
        for (row, &expected) in bits.iter().enumerate() {
            assert_eq!(client.probe("default", row as u64).unwrap(), expected);
        }
        let stats = client.stats();
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.breaker_opens, 0);
    }

    #[test]
    fn unknown_oracle_is_typed_and_not_retried() {
        let server = server_with(&[true], FaultPlan::healthy());
        let client = RemoteClient::new(config_for(&server));
        match client.probe("nonesuch", 0) {
            Err(RemoteError::UnknownOracle { oracle }) => assert_eq!(oracle, "nonesuch"),
            other => panic!("wrong result: {other:?}"),
        }
        assert_eq!(client.stats().retries, 0);
        assert_eq!(client.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn drops_are_survived_by_retries_and_recorded_in_the_ledger() {
        let plan = FaultPlan {
            seed: 11,
            drop_probability: 0.4,
            ..FaultPlan::healthy()
        };
        let server = server_with(&[true, false, true, false], plan);
        let mut config = config_for(&server);
        config.attempt_timeout = Duration::from_millis(120);
        config.max_retries = 6;
        config.hedge = None;
        let tracker = CostTracker::new();
        let client = RemoteClient::new(config).with_tracker(tracker.clone());
        for row in 0..4u64 {
            for _ in 0..4 {
                let expected = row % 2 == 0;
                assert_eq!(client.probe("default", row).unwrap(), expected);
            }
        }
        let stats = client.stats();
        assert!(stats.retries > 0, "40% drops must force retries: {stats:?}");
        assert_eq!(
            tracker.snapshot().retries,
            stats.retries,
            "ledger mirrors wire retries"
        );
        // Retries are a ledger, not a bill: no o_e was charged here.
        assert_eq!(tracker.snapshot().evaluated, 0);
    }

    #[test]
    fn blackout_trips_the_breaker_and_fails_fast() {
        let server = server_with(&[true], FaultPlan::blackout());
        let mut config = config_for(&server);
        config.attempt_timeout = Duration::from_millis(60);
        config.max_retries = 0;
        config.hedge = None;
        config.breaker = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
        };
        let client = RemoteClient::new(config);
        for _ in 0..2 {
            assert!(matches!(
                client.probe("default", 0),
                Err(RemoteError::DeadlineExhausted { .. })
            ));
        }
        assert_eq!(client.breaker_state(), BreakerState::Open);
        let started = Instant::now();
        assert!(matches!(
            client.probe("default", 0),
            Err(RemoteError::CircuitOpen { .. })
        ));
        assert!(
            started.elapsed() < Duration::from_millis(20),
            "open breaker must fail fast, took {:?}",
            started.elapsed()
        );
        assert_eq!(client.stats().breaker_rejections, 1);
    }

    #[test]
    fn tail_stalls_are_cut_by_hedges() {
        // Every probe on an odd-numbered... rather: 35% of responses
        // stall 300ms, well past the hedge delay; the hedge rides a
        // different connection whose fault stream usually misses the
        // stall, so hedged probes finish fast.
        let plan = FaultPlan {
            seed: 5,
            tail_probability: 0.35,
            tail_delay: Duration::from_millis(300),
            ..FaultPlan::healthy()
        };
        let server = server_with(&[true; 64], plan);
        let mut config = config_for(&server);
        config.attempt_timeout = Duration::from_secs(2);
        config.max_retries = 0;
        config.hedge = Some(HedgeConfig {
            initial_delay: Duration::from_millis(30),
            min_samples: usize::MAX, // pin the delay; no p99 adaptation
        });
        let client = RemoteClient::new(config);
        for row in 0..48u64 {
            assert!(client.probe("default", row % 64).unwrap());
        }
        let stats = client.stats();
        assert!(
            stats.hedges > 0,
            "tail stalls must trigger hedges: {stats:?}"
        );
        assert!(
            stats.hedge_wins > 0,
            "some hedges must beat a 300ms stall: {stats:?}"
        );
    }

    #[test]
    fn corrupt_frames_poison_the_connection_and_reconnect() {
        let plan = FaultPlan {
            seed: 3,
            corrupt_probability: 0.5,
            ..FaultPlan::healthy()
        };
        let server = server_with(&[true, false], plan);
        let mut config = config_for(&server);
        config.connections = 1;
        config.attempt_timeout = Duration::from_millis(120);
        config.max_retries = 8;
        config.hedge = None;
        let client = RemoteClient::new(config);
        for row in 0..8u64 {
            assert_eq!(client.probe("default", row % 2).unwrap(), row % 2 == 0);
        }
        let stats = client.stats();
        assert!(
            stats.reconnects > 1,
            "poisoned connections must be redialed: {stats:?}"
        );
    }

    #[test]
    fn p99_hedge_delay_derives_from_observed_latency() {
        let server = server_with(&[true], FaultPlan::healthy());
        let client = RemoteClient::new(config_for(&server));
        let hedge = HedgeConfig {
            initial_delay: Duration::from_millis(77),
            min_samples: 4,
        };
        // Below min_samples: the configured initial delay.
        assert_eq!(client.hedge_delay(&hedge), Duration::from_millis(77));
        for micros in [1000u64, 2000, 3000, 50_000] {
            client.record_latency(Duration::from_micros(micros));
        }
        // p99 of those four samples is the 50ms outlier.
        assert_eq!(client.hedge_delay(&hedge), Duration::from_millis(50));
    }

    #[test]
    fn pipelined_probes_share_connections_out_of_order() {
        let plan = FaultPlan {
            seed: 21,
            tail_probability: 0.3,
            tail_delay: Duration::from_millis(40),
            ..FaultPlan::healthy()
        };
        let server = server_with(&[true, false, true, false, true, false, true, false], plan);
        let mut config = config_for(&server);
        config.connections = 2;
        config.hedge = None;
        config.attempt_timeout = Duration::from_secs(2);
        let client = Arc::new(RemoteClient::new(config));
        std::thread::scope(|s| {
            for row in 0..8u64 {
                let client = Arc::clone(&client);
                s.spawn(move || {
                    assert_eq!(client.probe("default", row).unwrap(), row % 2 == 0);
                });
            }
        });
        // 8 concurrent probes over 2 connections: demux by id worked.
        assert!(server.connections_accepted() <= 2);
    }
}
