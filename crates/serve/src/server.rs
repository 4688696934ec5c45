//! The TCP front-end: accept loop, thread-per-connection keep-alive
//! handling, routing, and failure isolation.
//!
//! Request flow for `POST /query`, in admission order:
//!
//! 1. **Gate** — take an in-flight slot, or answer `429` immediately
//!    (with `Retry-After`) without touching any engine state.
//! 2. **Parse** — decode the JSON body into an [`ApiQuery`]; malformed
//!    bodies answer `400` (or `413` past the body limit).
//! 3. **Route** — resolve the tenant session; a full registry answers
//!    `503` with `Retry-After`.
//! 4. **Submit** — run on the tenant's engine; [`EngineError`]s map to
//!    their documented 4xx statuses, and a handler panic is caught and
//!    answered as `500` without killing the connection thread or the
//!    accept loop.
//!
//! Each connection gets its own thread, holds one slot in a bounded
//! **connection gate** (excess connections are answered `503` +
//! `Retry-After` inline on the accept thread, before any thread is
//! spawned), and serves any number of pipelined keep-alive requests.
//! Idle connections wait in short poll quanta so a shutdown drains
//! them promptly; the idle read timeout
//! ([`crate::http::IDLE_TIMEOUT`]) still reclaims abandoned sockets.
//! Shutdown is graceful: stop accepting, then wait for in-flight
//! connections to finish up to [`ServeConfig::drain_deadline`].
//!
//! [`EngineError`]: expred_core::EngineError

use crate::api::{self, ApiError, ApiQuery};
use crate::gate::{AdmissionGate, OwnedGatePass};
use crate::http::{read_request, HttpError, HttpRequest, HttpResponse, Limits, IDLE_TIMEOUT};
use crate::metrics::{MetricsContext, ServeMetrics};
use crate::tenant::{EngineConfig, TenantError, TenantRegistry};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often an idle connection re-checks the shutdown flag while
/// waiting for its next request.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Concurrent `/query` requests allowed past the admission gate.
    pub max_in_flight: usize,
    /// Concurrent TCP connections allowed; excess are refused with a
    /// `503` before a connection thread is even spawned.
    pub max_connections: usize,
    /// How long a graceful shutdown waits for live connections to
    /// finish before giving up on them.
    pub drain_deadline: Duration,
    /// Distinct tenant sessions the registry will create.
    pub max_tenants: usize,
    /// Materialized tables kept per tenant (LRU past this).
    pub max_tables_per_tenant: usize,
    /// Largest `table.rows` a query may ask to generate.
    pub max_rows: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Run tenant engines on one shared worker pool instead of
    /// sequentially (its width is learned; there is nothing to size).
    pub pooled: bool,
    /// Artificial per-evaluation UDF latency (load testing).
    pub udf_latency: Duration,
    /// Root directory for durable per-tenant persistence: tenant engines
    /// spill fresh answers to WAL-backed stores under
    /// `<data_dir>/<tenant>/` and rehydrate them on the next boot, so a
    /// warm restart re-serves previously-paid answers at zero `o_e`.
    /// `None` (the default) serves fully in-memory.
    pub data_dir: Option<std::path::PathBuf>,
    /// Row-tier answer TTL for tenant engines; with `data_dir` set, the
    /// age survives restarts. `None` disables expiry.
    pub cache_ttl: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 64,
            max_connections: 256,
            drain_deadline: Duration::from_secs(5),
            max_tenants: 32,
            max_tables_per_tenant: 8,
            max_rows: 1_000_000,
            max_body_bytes: 1 << 20,
            pooled: false,
            udf_latency: Duration::ZERO,
            data_dir: None,
            cache_ttl: None,
        }
    }
}

struct Shared {
    config: ServeConfig,
    gate: AdmissionGate,
    connections: Arc<AdmissionGate>,
    metrics: ServeMetrics,
    tenants: TenantRegistry,
    shutting_down: AtomicBool,
}

impl Shared {
    fn metrics_context(&self) -> MetricsContext<'_> {
        MetricsContext {
            gate: &self.gate,
            connections: &self.connections,
            tenants: &self.tenants,
        }
    }
}

/// A running server. Dropping the handle shuts the listener down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// Binds `addr` and starts accepting connections on a background
/// thread. Bind to port 0 to let the OS pick (tests do this).
pub fn serve(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        gate: AdmissionGate::new(config.max_in_flight),
        connections: Arc::new(AdmissionGate::new(config.max_connections)),
        tenants: TenantRegistry::new(
            config.max_tenants,
            config.max_tables_per_tenant,
            EngineConfig {
                pooled: config.pooled,
                udf_latency: config.udf_latency,
                data_dir: config.data_dir.clone(),
                cache_ttl: config.cache_ttl,
            },
        ),
        metrics: ServeMetrics::new(),
        shutting_down: AtomicBool::new(false),
        config,
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("expred-serve-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        shared,
        local_addr,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The live serving metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// The admission gate (counters: admitted/shed/in-flight).
    pub fn gate(&self) -> &AdmissionGate {
        &self.shared.gate
    }

    /// The connection gate (counters: open/shed connections).
    pub fn connections(&self) -> &AdmissionGate {
        &self.shared.connections
    }

    /// The tenant registry (inspect engines in tests).
    pub fn tenants(&self) -> &TenantRegistry {
        &self.shared.tenants
    }

    /// Graceful shutdown: stops the accept loop, then waits (up to
    /// [`ServeConfig::drain_deadline`]) for live connections to finish
    /// their current request and release their connection-gate slot.
    /// Idle keep-alive connections notice within one poll quantum.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept() call with a throwaway connection. A
        // wildcard bind address (0.0.0.0 / [::]) is not reliably
        // connectable on every platform, so aim the wake-up at the
        // matching loopback address instead.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                std::net::SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Drain: connection threads are detached, so wait on the gate
        // they hold slots in rather than joining them. A request that
        // outlives the deadline is abandoned (its thread exits on its
        // own once the response write fails or completes).
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        while self.shared.connections.in_flight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        // With persistence configured, push every tenant's durable state
        // to disk now, deterministically — not via Drop ordering, which a
        // straggler connection thread holding the `Arc<Shared>` could
        // postpone past process exit.
        if self.shared.config.data_dir.is_some() {
            for tenant in self.shared.tenants.snapshot() {
                if let Err(e) = tenant.engine().flush_persistence() {
                    eprintln!(
                        "expred-serve: tenant {:?} flush on shutdown failed: {e}",
                        tenant.name()
                    );
                }
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failures (EMFILE under fd
                // exhaustion, ECONNABORTED) would otherwise busy-spin
                // this loop at 100% CPU exactly when the server is
                // already overloaded.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        // Take a connection slot BEFORE spawning: a flood of sockets
        // past the bound costs one inline refusal write each, never an
        // unbounded pile of threads.
        let Some(pass) = shared.connections.try_acquire_owned() else {
            refuse_connection(stream, &shared);
            continue;
        };
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("expred-serve-conn".into())
            .spawn(move || connection_loop(stream, conn_shared, pass));
    }
}

/// Answers `503` + `Retry-After` inline on the accept thread. The write
/// is bounded by a short timeout so a slow-reading flooder cannot stall
/// the accept loop.
fn refuse_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let error = ApiError {
        status: 503,
        kind: "connections_exhausted",
        detail: format!(
            "all {} connection slots are in use; retry shortly",
            shared.connections.capacity()
        ),
    };
    let retry_after = shared.connections.retry_after_hint().to_string();
    let response = HttpResponse::json(error.status, error.body())
        .with_header("retry-after", retry_after.as_str());
    shared.metrics.record_status(response.status);
    let _ = response.write_to(&mut stream, false);
    let _ = stream.shutdown(Shutdown::Both);
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>, _pass: OwnedGatePass) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let limits = Limits {
        max_body_bytes: shared.config.max_body_bytes,
        ..Limits::default()
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut idle_since = Instant::now();
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // Idle wait in short quanta: when no request bytes are pending,
        // peek with a small timeout so a shutdown drains this
        // connection within one quantum instead of one IDLE_TIMEOUT.
        // (The read timeout lives on the shared socket, so it must be
        // restored before the real request read below.)
        if reader.buffer().is_empty() {
            let _ = writer.set_read_timeout(Some(IDLE_POLL));
            let mut peeked = [0u8; 1];
            match writer.peek(&mut peeked) {
                Ok(0) => break, // peer closed
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if idle_since.elapsed() >= IDLE_TIMEOUT {
                        break; // abandoned socket: reclaim as before
                    }
                    continue;
                }
                Err(_) => break,
            }
            let _ = writer.set_read_timeout(Some(IDLE_TIMEOUT));
        }
        let request = match read_request(&mut reader, &limits) {
            Ok(request) => request,
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => break,
            Err(HttpError::Malformed(reason)) => {
                let error = ApiError::bad_request(format!("malformed request: {reason}"));
                let response = HttpResponse::json(error.status, error.body());
                shared.metrics.record_status(response.status);
                let _ = response.write_to(&mut writer, false);
                break;
            }
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                let error = ApiError {
                    status: 413,
                    kind: "body_too_large",
                    detail: format!("declared body of {declared} bytes exceeds limit {limit}"),
                };
                let response = HttpResponse::json(error.status, error.body());
                shared.metrics.record_status(response.status);
                let _ = response.write_to(&mut writer, false);
                break;
            }
        };
        let keep_alive = request.keep_alive();
        let response = dispatch(&request, &shared);
        shared.metrics.record_status(response.status);
        if response.write_to(&mut writer, keep_alive).is_err() {
            break;
        }
        if writer.flush().is_err() || !keep_alive {
            break;
        }
        idle_since = Instant::now();
    }
    let _ = writer.shutdown(Shutdown::Both);
}

fn dispatch(request: &HttpRequest, shared: &Shared) -> HttpResponse {
    let started = Instant::now();
    let path = request.path();
    match (request.method.as_str(), path) {
        ("GET", "/health") => {
            let response = HttpResponse::text(200, "ok\n");
            shared.metrics.health.observe(started.elapsed());
            response
        }
        ("GET", "/metrics") => {
            let body = shared.metrics.render_text(&shared.metrics_context());
            let response = HttpResponse::text(200, body);
            shared.metrics.metrics.observe(started.elapsed());
            response
        }
        ("GET", "/metrics.json") => {
            let body = shared.metrics.render_json(&shared.metrics_context());
            let response = HttpResponse::json(200, body);
            shared.metrics.metrics.observe(started.elapsed());
            response
        }
        ("POST", "/query") => {
            let response = query_route(request, shared);
            shared.metrics.query.observe(started.elapsed());
            response
        }
        (_, "/health" | "/metrics" | "/metrics.json" | "/query") => {
            let error = ApiError {
                status: 405,
                kind: "method_not_allowed",
                detail: format!("{} is not supported on {path}", request.method),
            };
            HttpResponse::json(error.status, error.body())
        }
        _ => {
            let error = ApiError {
                status: 404,
                kind: "not_found",
                detail: format!("no route for {path}"),
            };
            HttpResponse::json(error.status, error.body())
        }
    }
}

/// The `/query` route. The gate slot is taken before the body is even
/// parsed, so shed requests do constant work and provably never reach a
/// tenant engine.
fn query_route(request: &HttpRequest, shared: &Shared) -> HttpResponse {
    let Some(_pass) = shared.gate.try_acquire() else {
        let error = ApiError {
            status: 429,
            kind: "saturated",
            detail: format!(
                "all {} in-flight slots are busy; retry shortly",
                shared.gate.capacity()
            ),
        };
        let retry_after = shared.gate.retry_after_hint().to_string();
        return HttpResponse::json(error.status, error.body())
            .with_header("retry-after", retry_after.as_str());
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| handle_query(request, shared)));
    match outcome {
        Ok(Ok(body)) => HttpResponse::json(200, body),
        Ok(Err(error)) => {
            let response = HttpResponse::json(error.status, error.body());
            if error.status == 503 || error.status == 429 {
                // Load-derived hint: the busier the gate, the longer
                // the suggested back-off, with deterministic jitter.
                let retry_after = shared.gate.retry_after_hint().to_string();
                response.with_header("retry-after", retry_after.as_str())
            } else {
                response
            }
        }
        Err(_) => {
            shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
            let error = ApiError {
                status: 500,
                kind: "internal",
                detail: "query handler panicked; see server logs".into(),
            };
            HttpResponse::json(error.status, error.body())
        }
    }
}

fn handle_query(request: &HttpRequest, shared: &Shared) -> Result<Vec<u8>, ApiError> {
    let query: ApiQuery = api::parse_query_body(&request.body, shared.config.max_rows)?;
    let tenant_name = request
        .header("x-tenant")
        .map(str::to_owned)
        .or(query.tenant.clone())
        .unwrap_or_else(|| "default".to_owned());
    let tenant =
        shared
            .tenants
            .route(&tenant_name)
            .map_err(|TenantError::Exhausted { limit }| ApiError {
                status: 503,
                kind: "tenants_exhausted",
                detail: format!(
                    "tenant registry is at its bound of {limit}; retry an existing tenant"
                ),
            })?;
    let dataset = tenant.dataset(&query.table);
    let outcome = tenant
        .engine()
        .submit(&dataset, &query.request)
        .map_err(ApiError::from)?;
    Ok(api::render_outcome(&tenant_name, &outcome))
}
