//! The in-process replay: the same request bytes the HTTP run sent, fed
//! through the same public functions `server::handle_query` calls, in the
//! same order, on the same thread layout (one thread per tenant).
//!
//! Untraced, it is the reference the HTTP run's response digest is checked
//! against (the house byte-identical invariant across binary × pool ×
//! persist). Traced, every call into a layer is a span and the layers'
//! counters are read at the same boundaries.

use crate::trace::{merge, timed, Recorder, Span};
use crate::workload::{Request, TenantStream, Workload, MAX_ROWS, TENANTS};
use expred_core::{EngineStats, PersistSessionStats, ResultMemoStats};
use expred_exec::CacheStats;
use expred_serve::api::{parse_query_body, render_outcome};
use expred_serve::http::read_request;
use expred_serve::{AdmissionGate, HttpResponse, Limits, ServeConfig, TenantRegistry};
use expred_stats::hash::Fnv64;
use expred_table::DerivedCacheStats;
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Layer counters summed over tenants, for one boot of the registry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionCounts {
    pub engine: EngineStats,
    pub cache: CacheStats,
    pub memo: ResultMemoStats,
    pub derived: DerivedCacheStats,
    pub persist: PersistSessionStats,
    /// Σ `session_counts()`: the audited bill.
    pub evaluated: u64,
    pub retrieved: u64,
    pub reuse_hits: u64,
    pub local_hits: u64,
}

impl SessionCounts {
    fn read(registry: &TenantRegistry) -> Self {
        let mut sum = Self::default();
        for tenant in registry.snapshot() {
            let engine = tenant.engine();
            let stats = engine.stats();
            sum.engine.queries += stats.queries;
            sum.engine.result_hits += stats.result_hits;
            sum.engine.dedup_joins += stats.dedup_joins;
            let cache = engine.cache_stats();
            sum.cache.hits += cache.hits;
            sum.cache.misses += cache.misses;
            sum.cache.insertions += cache.insertions;
            sum.cache.evictions += cache.evictions;
            sum.cache.ttl_expirations += cache.ttl_expirations;
            let memo = engine.result_memo_stats();
            sum.memo.hits += memo.hits;
            sum.memo.misses += memo.misses;
            sum.memo.evictions += memo.evictions;
            let derived = engine.derived_stats();
            sum.derived.hits += derived.hits;
            sum.derived.misses += derived.misses;
            if let Some(persist) = engine.persist_stats() {
                sum.persist.appended += persist.appended;
                sum.persist.shed += persist.shed;
                sum.persist.rehydrated_rows += persist.rehydrated_rows;
            }
            let bill = engine.session_counts();
            sum.evaluated += bill.evaluated;
            sum.retrieved += bill.retrieved;
            sum.reuse_hits += bill.reuse_hits;
            sum.local_hits += bill.cache_hits;
        }
        sum
    }

    /// The bill proxy the HTTP run relies on: every row-tier insertion is
    /// either a fresh evaluation or a rehydrated row.
    pub fn bill_proxy_holds(&self) -> bool {
        self.cache.insertions == self.evaluated + self.persist.rehydrated_rows
    }
}

/// Counts read at span boundaries during the traced window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowFacts {
    pub requests: u64,
    pub dataset_misses: u64,
    pub result_hits: u64,
    /// Σ `compute_seconds` over requests the engine actually executed.
    pub compute_seconds: f64,
    /// Σ returned rows over requests the engine actually executed.
    pub returned_rows: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

impl WindowFacts {
    fn add(&mut self, other: &WindowFacts) {
        self.requests += other.requests;
        self.dataset_misses += other.dataset_misses;
        self.result_hits += other.result_hits;
        self.compute_seconds += other.compute_seconds;
        self.returned_rows += other.returned_rows;
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
    }
}

/// What one replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Per tenant: FNV-1a over every response body, in send order.
    pub digests: Vec<u64>,
    pub window_wall: Duration,
    pub window_requests: u64,
    /// Window spans (empty when untraced).
    pub spans: Vec<Span>,
    pub facts: WindowFacts,
    /// The serving boot's counters (on `durable_cold`: after the reopen).
    pub counts: SessionCounts,
    /// Whether [`SessionCounts::bill_proxy_holds`] held on every boot.
    pub bill_proxy_holds: bool,
}

/// The server's request path, minus the socket.
struct Pipeline {
    registry: TenantRegistry,
    gate: AdmissionGate,
    limits: Limits,
}

impl Pipeline {
    /// Built from `ServeConfig::default()` plus the workload's flags, as
    /// `server::serve` builds its own.
    fn new(workload: Workload, data_dir: Option<&Path>) -> Self {
        let config = ServeConfig::default();
        Self {
            registry: TenantRegistry::new(
                config.max_tenants,
                config.max_tables_per_tenant,
                workload.engine_config(data_dir),
            ),
            gate: AdmissionGate::new(config.max_in_flight),
            limits: Limits {
                max_body_bytes: config.max_body_bytes,
                ..Limits::default()
            },
        }
    }

    /// `ServerHandle::shutdown`'s persistence step, then the drop.
    fn shutdown(self) -> Result<(), String> {
        for tenant in self.registry.snapshot() {
            tenant
                .engine()
                .flush_persistence()
                .map_err(|e| format!("flush of tenant {}: {e}", tenant.name()))?;
        }
        Ok(())
    }
}

/// One tenant's side of the replay.
struct TenantReplay {
    digest: Fnv64,
    recorder: Option<Recorder>,
    facts: WindowFacts,
    /// Table instance ids already seen: a new id is a dataset miss.
    tables_seen: HashSet<u64>,
    response: Vec<u8>,
    next_request_id: u32,
}

impl TenantReplay {
    fn new(tenant: usize) -> Self {
        Self {
            digest: Fnv64::new(),
            recorder: None,
            facts: WindowFacts::default(),
            tables_seen: HashSet::new(),
            response: Vec::new(),
            // Request ids are unique across tenants.
            next_request_id: (tenant as u32) << 24,
        }
    }

    /// `connection_loop` → `dispatch` → `query_route` → `handle_query`,
    /// call for call.
    fn serve_one(&mut self, pipeline: &Pipeline, request: &Request) -> Result<(), String> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let tracing = self.recorder.is_some();
        let rec = &mut self.recorder;
        let root = rec.as_mut().map(|r| r.open("request", None, id));

        let parsed = timed(rec, "serve.http.read_request", root, id, || {
            read_request(&mut &request.bytes[..], &pipeline.limits)
        })
        .map_err(|e| format!("read_request: {e}"))?;
        let pass = timed(rec, "serve.gate.acquire", root, id, || {
            pipeline.gate.try_acquire()
        })
        .ok_or("admission gate refused a replayed request")?;
        let query = timed(rec, "serve.api.parse", root, id, || {
            parse_query_body(&parsed.body, MAX_ROWS)
        })
        .map_err(|e| format!("parse_query_body: {}", e.detail))?;
        let tenant_name = parsed
            .header("x-tenant")
            .map(str::to_owned)
            .or(query.tenant.clone())
            .unwrap_or_else(|| "default".to_owned());
        let tenant = timed(rec, "serve.tenant.route", root, id, || {
            pipeline.registry.route(&tenant_name)
        })
        .map_err(|e| format!("route: {e:?}"))?;
        let dataset = timed(rec, "serve.tenant.dataset", root, id, || {
            tenant.dataset(&query.table)
        });
        let hits_before = tracing.then(|| tenant.engine().stats().result_hits);
        let outcome = timed(rec, "core.engine.submit", root, id, || {
            tenant.engine().submit(&dataset, &query.request)
        })
        .map_err(|e| format!("submit: {e}"))?;
        let body = timed(rec, "serve.api.render", root, id, || {
            render_outcome(&tenant_name, &outcome)
        });
        drop(pass);
        let body_len = body.len();
        self.response.clear();
        let response = &mut self.response;
        timed(rec, "serve.http.write_response", root, id, || {
            HttpResponse::json(200, body).write_to(response, parsed.keep_alive())
        })
        .map_err(|e| format!("write_to: {e}"))?;
        if let (Some(rec), Some(root)) = (rec.as_mut(), root) {
            rec.close(root);
        }
        // Outside the request span: the digest is the harness's work.
        let body_start = self.response.len() - body_len;
        self.digest.write_bytes(&self.response[body_start..]);

        if let Some(hits_before) = hits_before {
            let facts = &mut self.facts;
            facts.requests += 1;
            facts.request_bytes += request.bytes.len() as u64;
            facts.response_bytes += self.response.len() as u64;
            if self.tables_seen.insert(dataset.table.id().as_u64()) {
                facts.dataset_misses += 1;
            }
            if tenant.engine().stats().result_hits > hits_before {
                facts.result_hits += 1;
            } else {
                facts.compute_seconds += outcome.compute_seconds;
                facts.returned_rows += outcome.returned.len() as u64;
            }
        } else {
            // Untraced: still learn which tables exist, so the traced
            // window's first sight of a warm table is not a miss.
            self.tables_seen.insert(dataset.table.id().as_u64());
        }
        Ok(())
    }
}

/// Runs one phase — `requests[i]` on tenant `i`'s thread — and returns
/// its wall time.
fn run_phase(
    pipeline: &Pipeline,
    tenants: &mut [TenantReplay],
    requests: Vec<&[Request]>,
) -> Result<Duration, String> {
    let started = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .zip(requests)
            .map(|(tenant, requests)| {
                scope.spawn(move || {
                    requests
                        .iter()
                        .try_for_each(|request| tenant.serve_one(pipeline, request))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect::<Result<(), String>>()?;
    Ok(started.elapsed())
}

/// Replays populate (and the reopen), warm-up, and the first
/// `prefix_len` window requests of every tenant.
pub fn replay(
    workload: Workload,
    streams: &[TenantStream],
    prefix_len: usize,
    data_dir: Option<&Path>,
    traced: bool,
) -> Result<Replay, String> {
    assert_eq!(streams.len(), TENANTS);
    let mut tenants: Vec<TenantReplay> = (0..TENANTS).map(TenantReplay::new).collect();
    let mut bill_proxy_holds = true;

    let mut pipeline = Pipeline::new(workload, data_dir);
    if workload.durable() {
        run_phase(
            &pipeline,
            &mut tenants,
            streams.iter().map(|s| &s.populate[..]).collect(),
        )?;
        bill_proxy_holds &= SessionCounts::read(&pipeline.registry).bill_proxy_holds();
        pipeline.shutdown()?;
        // The reboot: nothing survives but the data directory.
        pipeline = Pipeline::new(workload, data_dir);
        for tenant in &mut tenants {
            tenant.tables_seen.clear();
        }
    }
    run_phase(
        &pipeline,
        &mut tenants,
        streams.iter().map(|s| &s.warmup[..]).collect(),
    )?;

    let epoch = Instant::now();
    if traced {
        for tenant in &mut tenants {
            tenant.recorder = Some(Recorder::new(epoch));
        }
    }
    let window_wall = run_phase(
        &pipeline,
        &mut tenants,
        streams
            .iter()
            .map(|s| &s.window[..prefix_len.min(s.window.len())])
            .collect(),
    )?;

    let counts = SessionCounts::read(&pipeline.registry);
    bill_proxy_holds &= counts.bill_proxy_holds();
    pipeline.shutdown()?;

    let mut facts = WindowFacts::default();
    let mut logs = Vec::new();
    let mut digests = Vec::new();
    for tenant in tenants {
        facts.add(&tenant.facts);
        digests.push(tenant.digest.finish());
        logs.push(
            tenant
                .recorder
                .map(Recorder::into_spans)
                .unwrap_or_default(),
        );
    }
    let window_requests = streams
        .iter()
        .map(|s| prefix_len.min(s.window.len()) as u64)
        .sum();
    Ok(Replay {
        digests,
        window_wall,
        window_requests,
        spans: merge(logs),
        facts,
        counts,
        bill_proxy_holds,
    })
}
