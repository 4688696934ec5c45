//! Per-tenant session routing: tenant id → one [`QueryEngine`] plus its
//! materialized tables.
//!
//! Each tenant gets an isolated engine — its own cross-query
//! [`expred_exec::CacheStore`], result memo, and session bill — created
//! lazily on first request and kept for the server's lifetime. Isolation
//! is the tenancy model: one tenant's cache churn, bill, or query mix
//! can never leak into another's answers or accounting (the paper's
//! amortization story plays out *within* a tenant's query stream). The
//! registry bounds how many tenants may exist; past the bound, new
//! tenant ids are refused with a retryable 503 while existing tenants
//! keep being served.
//!
//! What tenants do share is threads: with [`EngineConfig::pooled`] the
//! registry owns **one** [`WorkerPool`] for the process and every
//! tenant's engine borrows it. Threads carry no answers and no bill, and
//! a pool's width follows the probes rather than the tenant count. Each
//! tenant's job in flight gets its own width: the pool grows to cover
//! every queued job's helpers, up to a ceiling of 64 workers per core
//! less one, and a job published past it collects workers as older jobs
//! finish. A pool per tenant would be up to 32 sets of parked threads
//! for the same work.
//!
//! Tables are tenant-local too: a [`TableKey`] names a calibrated
//! generator (`prosper` / `lc`), a row count, and a generation seed, and
//! each tenant materializes its own instance (bounded per tenant,
//! evicting the least-recently-used). Generation is deterministic, so
//! equal keys answer identically across tenants — without sharing any
//! cache state.

use crate::api::TableKey;
use expred_core::{PersistConfig, QueryEngine};
use expred_exec::WorkerPool;
use expred_stats::counters::{CounterSet, Section};
use expred_table::datasets::{Dataset, DatasetSpec, LENDING_CLUB, PROSPER};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// The table generator `spec` names, if it is a known one.
pub(crate) fn generator(spec: &str) -> Option<DatasetSpec> {
    match spec {
        "prosper" => Some(PROSPER),
        "lc" => Some(LENDING_CLUB),
        _ => None,
    }
}

/// How a tenant's engine is built (the registry applies this to every
/// lazily created tenant).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Run tenant engines on the registry's shared
    /// [`expred_exec::WorkerPool`] instead of the sequential backend.
    pub pooled: bool,
    /// Artificial latency added to every fresh UDF evaluation — the
    /// load-testing knob ([`QueryEngine::with_udf_latency`]).
    pub udf_latency: Duration,
    /// Root directory for durable per-tenant persistence
    /// ([`QueryEngine::with_persistence`]); each tenant gets an isolated
    /// subdirectory named after its (sanitized) id, so a restarted
    /// server re-serves every answer its tenants already paid for.
    /// `None` keeps engines fully in-memory.
    pub data_dir: Option<PathBuf>,
    /// Always `None`, and no other value can be built: answers leave the
    /// row tier only with their table. The field stays only because the
    /// benchmark harness (`benchmark/src/workload.rs`) names it
    /// (ROADMAP direction 4 removes it).
    pub cache_ttl: Option<std::convert::Infallible>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            pooled: false,
            udf_latency: Duration::ZERO,
            data_dir: None,
            cache_ttl: None,
        }
    }
}

/// A filesystem-safe directory name for a tenant id: ASCII alphanumerics,
/// `_`, and `-` pass through; every other byte is percent-encoded. The
/// encoding is injective, so two distinct tenant ids can never collide on
/// one directory — and a hostile id like `../../etc` cannot escape the
/// data root.
pub(crate) fn tenant_dir_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for byte in name.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(byte as char),
            other => {
                out.push('%');
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{other:02X}"));
            }
        }
    }
    if out.is_empty() {
        out.push_str("%empty");
    }
    out
}

impl EngineConfig {
    fn base_engine(&self, pool: Option<&Arc<WorkerPool>>) -> QueryEngine {
        let engine = match pool {
            Some(pool) => QueryEngine::with_executor(Box::new(Arc::clone(pool))),
            None => QueryEngine::new(),
        };
        engine.with_udf_latency(self.udf_latency)
    }

    fn build(&self, tenant: &str, pool: Option<&Arc<WorkerPool>>) -> QueryEngine {
        let engine = self.base_engine(pool);
        if let Some(root) = &self.data_dir {
            let dir = root.join(tenant_dir_name(tenant));
            return match engine.with_persistence(PersistConfig::new(dir)) {
                Ok(persistent) => persistent,
                Err(error) => {
                    // Persistence is an accelerator, not a correctness
                    // tier: serve this tenant in-memory rather than
                    // refusing it.
                    eprintln!("expred-serve: tenant {tenant:?} persistence disabled: {error}");
                    self.base_engine(pool)
                }
            };
        }
        engine
    }
}

/// One tenant's session: an engine plus its materialized tables.
pub struct Tenant {
    name: String,
    engine: QueryEngine,
    /// Materialized tables, LRU-bounded by `max_tables`.
    tables: Mutex<Tables>,
    max_tables: usize,
    table_misses: AtomicU64,
    table_materialize_micros: AtomicU64,
}

/// A tenant's table map and its logical access clock, under one lock.
#[derive(Default)]
struct Tables {
    clock: u64,
    slots: HashMap<TableKey, Slot>,
}

/// One key's place in the map. The lock is held only to find or reserve
/// a slot; the table is generated into the slot's once-cell *outside* it,
/// so a miss never parks the tenant's other requests, and concurrent
/// misses on one key still generate once and share the instance.
struct Slot {
    table: Arc<OnceLock<Arc<Dataset>>>,
    last_used: u64,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("tables", &self.table_count())
            .finish_non_exhaustive()
    }
}

impl Tenant {
    fn new(
        name: String,
        config: &EngineConfig,
        pool: Option<&Arc<WorkerPool>>,
        max_tables: usize,
    ) -> Self {
        let engine = config.build(&name, pool);
        Self {
            name,
            engine,
            tables: Mutex::default(),
            max_tables: max_tables.max(1),
            table_misses: AtomicU64::new(0),
            table_materialize_micros: AtomicU64::new(0),
        }
    }

    /// The tenant's id.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's engine (callable from any worker thread).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The tenant's table for `key`, materializing it on first use.
    /// Dropping a table past the LRU bound frees what it bought once the
    /// last request using it ends: a re-materialized instance gets a
    /// fresh [`expred_table::table::TableId`], so nothing could borrow
    /// the old namespaces or hit the old memo entries again. The
    /// engine's store drops the namespaces at its next liveness sweep
    /// (see `expred_exec::store`), offering them to the durable tier
    /// first when one is wired, and its death signal removes the old
    /// instance's outcomes from the engine's result memo.
    pub fn dataset(&self, key: &TableKey) -> Arc<Dataset> {
        let (slot, evicted) = {
            let mut tables = self.tables.lock().unwrap_or_else(|e| e.into_inner());
            tables.clock += 1;
            let tick = tables.clock;
            match tables.slots.get_mut(key) {
                Some(slot) => {
                    slot.last_used = tick;
                    (Arc::clone(&slot.table), None)
                }
                None => {
                    let evicted = if tables.slots.len() >= self.max_tables {
                        let oldest = tables.slots.iter().min_by_key(|(_, slot)| slot.last_used);
                        let victim = oldest.map(|(key, _)| key.clone());
                        victim.and_then(|key| tables.slots.remove(&key))
                    } else {
                        None
                    };
                    let table = Arc::new(OnceLock::new());
                    let slot = Slot {
                        table: Arc::clone(&table),
                        last_used: tick,
                    };
                    tables.slots.insert(key.clone(), slot);
                    (table, evicted)
                }
            }
        };
        // The victim's table is freed here, after the guard.
        drop(evicted);
        Arc::clone(slot.get_or_init(|| {
            let started = Instant::now();
            let spec = generator(&key.spec).expect("key validated by the API layer");
            let dataset = Arc::new(Dataset::generate(
                DatasetSpec {
                    rows: key.rows,
                    ..spec
                },
                key.seed,
            ));
            self.table_misses.fetch_add(1, Ordering::Relaxed);
            self.table_materialize_micros
                .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            dataset
        }))
    }

    /// How many tables this tenant currently holds.
    pub(crate) fn table_count(&self) -> usize {
        let tables = self.tables.lock().unwrap_or_else(|e| e.into_inner());
        tables.slots.len()
    }

    /// How many [`Self::dataset`] calls had to materialize their table
    /// (first use, or re-use after eviction).
    pub(crate) fn table_misses(&self) -> u64 {
        self.table_misses.load(Ordering::Relaxed)
    }

    /// Total time those misses spent materializing, in microseconds.
    pub fn table_materialize_micros(&self) -> u64 {
        self.table_materialize_micros.load(Ordering::Relaxed)
    }

    /// The tenant's counter sections: its engine's, then the table tier's
    /// — "this query was slow because its table had been evicted" reads
    /// as a miss and its materialization time. The table counters sit
    /// inline in the tenant's JSON object and share the `engine` prefix.
    pub fn counter_sections(&self, visit: &mut dyn FnMut(Section, &dyn CounterSet)) {
        self.engine.counter_sections(visit);
        visit(
            Section::new("", "engine"),
            &[
                ("tables", self.table_count() as u64),
                ("table_misses", self.table_misses()),
                ("table_materialize_micros", self.table_materialize_micros()),
            ],
        );
    }
}

/// Why a tenant could not be routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantError {
    /// The registry is at capacity and `name` is not an existing tenant.
    /// Maps to 503 (retryable: an existing tenant's traffic still flows).
    Exhausted {
        /// The configured bound.
        limit: usize,
    },
}

/// The tenant routing table: id → session, lazily created, bounded.
pub struct TenantRegistry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    max_tenants: usize,
    max_tables_per_tenant: usize,
    engine_config: EngineConfig,
    /// The process's one worker pool, when engines are pooled. Spawns no
    /// thread until a tenant's batch first fans out.
    pool: Option<Arc<WorkerPool>>,
}

impl TenantRegistry {
    /// A registry admitting at most `max_tenants` distinct tenant ids,
    /// each holding at most `max_tables_per_tenant` materialized tables.
    pub fn new(
        max_tenants: usize,
        max_tables_per_tenant: usize,
        engine_config: EngineConfig,
    ) -> Self {
        Self {
            tenants: RwLock::new(HashMap::new()),
            max_tenants: max_tenants.max(1),
            max_tables_per_tenant,
            pool: engine_config.pooled.then(|| Arc::new(WorkerPool::new())),
            engine_config,
        }
    }

    /// The registry's own counter section: the shared pool's width, size
    /// and traffic, when tenant engines are pooled. (A tenant's sections
    /// are [`Tenant::counter_sections`].)
    pub fn counter_sections(&self, visit: &mut dyn FnMut(Section, &dyn CounterSet)) {
        if let Some(pool) = &self.pool {
            visit(Section::new("pool", "pool"), &pool.stats());
        }
    }

    /// Routes `name` to its session, creating it if the bound allows.
    /// Existing tenants are resolved under a shared read lock (the
    /// steady-state path); only a genuinely new tenant takes the write
    /// lock.
    pub fn route(&self, name: &str) -> Result<Arc<Tenant>, TenantError> {
        {
            let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
            if let Some(tenant) = tenants.get(name) {
                return Ok(Arc::clone(tenant));
            }
        }
        let mut tenants = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if let Some(tenant) = tenants.get(name) {
            return Ok(Arc::clone(tenant));
        }
        if tenants.len() >= self.max_tenants {
            return Err(TenantError::Exhausted {
                limit: self.max_tenants,
            });
        }
        let tenant = Arc::new(Tenant::new(
            name.to_owned(),
            &self.engine_config,
            self.pool.as_ref(),
            self.max_tables_per_tenant,
        ));
        tenants.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Every live tenant, sorted by id (stable `/metrics` output).
    pub fn snapshot(&self) -> Vec<Arc<Tenant>> {
        let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let mut all: Vec<Arc<Tenant>> = tenants.values().cloned().collect();
        all.sort_by(|a, b| a.name().cmp(b.name()));
        all
    }

    /// How many tenants exist.
    pub fn len(&self) -> usize {
        self.tenants.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no tenant has been routed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rows: usize, seed: u64) -> TableKey {
        TableKey {
            spec: "prosper".into(),
            rows,
            seed,
        }
    }

    #[test]
    fn tenants_are_created_lazily_and_bounded() {
        let registry = TenantRegistry::new(2, 4, EngineConfig::default());
        assert!(registry.is_empty());
        let a = registry.route("alice").unwrap();
        let a2 = registry.route("alice").unwrap();
        assert!(Arc::ptr_eq(&a, &a2), "same tenant routes to same session");
        registry.route("bob").unwrap();
        assert_eq!(registry.len(), 2);
        match registry.route("carol") {
            Err(TenantError::Exhausted { limit: 2 }) => {}
            other => panic!("expected Exhausted, got {other:?}"),
        }
        // Existing tenants still route after exhaustion.
        assert!(registry.route("bob").is_ok());
        let names: Vec<String> = registry
            .snapshot()
            .iter()
            .map(|t| t.name().to_owned())
            .collect();
        assert_eq!(names, ["alice", "bob"]);
    }

    #[test]
    fn tenant_engines_are_isolated() {
        let registry = TenantRegistry::new(4, 4, EngineConfig::default());
        let a = registry.route("a").unwrap();
        let b = registry.route("b").unwrap();
        let ds = a.dataset(&key(200, 1));
        let req = expred_core::QueryRequest::naive(expred_core::QuerySpec::paper_default());
        a.engine().submit(&ds, &req).unwrap();
        assert_eq!(a.engine().stats().queries, 1);
        assert_eq!(b.engine().stats().queries, 0, "b never ran anything");
    }

    #[test]
    fn datasets_are_cached_and_lru_bounded() {
        let registry = TenantRegistry::new(1, 2, EngineConfig::default());
        let t = registry.route("t").unwrap();
        let first = t.dataset(&key(100, 1));
        let again = t.dataset(&key(100, 1));
        assert!(Arc::ptr_eq(&first, &again), "same key, same instance");
        t.dataset(&key(100, 2));
        assert_eq!(t.table_count(), 2);
        // Touch key 1 so key 2 is the LRU victim.
        t.dataset(&key(100, 1));
        t.dataset(&key(100, 3));
        assert_eq!(t.table_count(), 2);
        let kept = t.dataset(&key(100, 1));
        assert!(Arc::ptr_eq(&first, &kept), "recently used key survived");
    }

    #[test]
    fn racing_misses_on_one_key_generate_once() {
        let registry = TenantRegistry::new(1, 2, EngineConfig::default());
        let tenant = registry.route("t").unwrap();
        let key = key(2_000, 4);
        let barrier = std::sync::Barrier::new(8);
        let tables: Vec<Arc<Dataset>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        tenant.dataset(&key)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for table in &tables {
            assert!(Arc::ptr_eq(table, &tables[0]), "one instance for all");
        }
        assert_eq!(tenant.table_count(), 1);
        assert_eq!(tenant.table_misses(), 1, "generated once");
        tenant.dataset(&key);
        assert_eq!(tenant.table_misses(), 1, "a hit is not a miss");
    }

    #[test]
    fn equal_keys_generate_identical_tables() {
        let registry = TenantRegistry::new(2, 2, EngineConfig::default());
        let a = registry.route("a").unwrap().dataset(&key(150, 9));
        let b = registry.route("b").unwrap().dataset(&key(150, 9));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.table, b.table, "deterministic generation (content)");
        assert_ne!(
            a.table.id(),
            b.table.id(),
            "distinct instances: no shared cache namespaces"
        );
    }

    #[test]
    fn spec_names_resolve() {
        assert!(generator("prosper").is_some());
        assert!(generator("lc").is_some());
        assert!(generator("sentiment").is_none());
    }

    #[test]
    fn tenant_dir_names_are_safe_and_injective() {
        assert_eq!(tenant_dir_name("acme_corp-1"), "acme_corp-1");
        assert_eq!(tenant_dir_name("../../etc"), "%2E%2E%2F%2E%2E%2Fetc");
        assert_eq!(tenant_dir_name("a b"), "a%20b");
        assert_eq!(tenant_dir_name(""), "%empty");
        // Distinct names that differ only in encoded bytes stay distinct.
        assert_ne!(tenant_dir_name("a/b"), tenant_dir_name("a_b"));
        assert_ne!(tenant_dir_name("a%2Fb"), tenant_dir_name("a/b"));
    }

    #[test]
    fn data_dir_gives_each_tenant_an_isolated_persistent_engine() {
        let root =
            std::env::temp_dir().join(format!("expred-tenant-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let registry = TenantRegistry::new(
            4,
            4,
            EngineConfig {
                data_dir: Some(root.clone()),
                ..EngineConfig::default()
            },
        );
        let a = registry.route("alice").unwrap();
        let b = registry.route("bob/../alice").unwrap();
        assert!(a.engine().persist_stats().is_some(), "persistence wired");
        assert!(b.engine().persist_stats().is_some());
        assert!(root.join("alice").is_dir());
        assert!(
            root.join("bob%2F%2E%2E%2Falice").is_dir(),
            "hostile name confined to an encoded subdirectory"
        );
        drop(registry);
        let _ = std::fs::remove_dir_all(&root);
    }
}
