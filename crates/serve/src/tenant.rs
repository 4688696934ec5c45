//! Per-tenant session routing: tenant id → one [`QueryEngine`] plus its
//! materialized tables.
//!
//! Each tenant gets an isolated engine — its own cross-query
//! [`expred_exec::CacheStore`], result memo, and session bill — created
//! lazily on first request and kept for the server's lifetime. The
//! tenancy rule: tenants share a table's content and whatever is derived
//! from content alone, and never share an answer, a bill, or a counter
//! that reports either. So one tenant's cache churn, bill, or query mix
//! can never leak into another's answers or accounting (the paper's
//! amortization story plays out *within* a tenant's query stream). The
//! registry bounds how many tenants may exist; past the bound, new
//! tenant ids are refused with a retryable 503 while existing tenants
//! keep being served.
//!
//! Tenants share threads too: with [`EngineConfig::pooled`] the
//! registry owns **one** [`WorkerPool`] for the process and every
//! tenant's engine borrows it. Threads carry no answers and no bill, and
//! a pool's width follows the probes rather than the tenant count. Each
//! tenant's job in flight gets its own width: the pool grows to cover
//! every queued job's helpers, up to a ceiling of 64 workers per core
//! less one, and a job published past it collects workers as older jobs
//! finish. A pool per tenant would be up to 32 sets of parked threads
//! for the same work.
//!
//! Tables are content, and tenants share it. A [`TableKey`] names a
//! calibrated generator (`prosper` / `lc`), a row count, and a generation
//! seed; generation is deterministic, so one key names one content, and
//! the registry holds each key's content once per process, weakly. A
//! tenant's first request for a key takes a handle on the content some
//! tenant already holds, and only a key no tenant holds is generated —
//! once, however many tenants race on it. The columns, their per-column
//! stats and partitions ([`expred_table::derived`]) are functions of
//! content alone, so they are built once for every tenant; the table
//! memo's `derived` counters stay per tenant, reported under its
//! `derived` section, and a tenant's hit there may be another tenant's
//! derivation. Each tenant's handle has its own
//! [`expred_table::TableId`], and everything that holds answers keys by
//! it: the row tier's namespaces and their liveness sweep, the result
//! memo, the answer-plane interner and the durable namespace. So the
//! handles a tenant holds are its own (bounded per tenant, evicting the
//! least-recently-used), and evicting one frees everything that tenant's
//! handle bought, even while another tenant keeps the content alive.

use crate::api::TableKey;
use expred_core::{PersistConfig, QueryEngine};
use expred_exec::WorkerPool;
use expred_stats::counters::{CounterSet, Section};
use expred_table::datasets::{Dataset, DatasetSpec, LENDING_CLUB, PROSPER};
use expred_table::WeakTable;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// A calibrated table generator a [`TableKey`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generator {
    /// `"prosper"`: [`PROSPER`].
    Prosper,
    /// `"lc"`: [`LENDING_CLUB`].
    LendingClub,
}

impl Generator {
    /// The generator's name on the wire.
    pub fn as_str(self) -> &'static str {
        self.spec().name
    }

    /// The calibration it generates to.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Self::Prosper => PROSPER,
            Self::LendingClub => LENDING_CLUB,
        }
    }
}

/// The table generator `spec` names, if it is a known one.
pub(crate) fn generator(spec: &str) -> Option<Generator> {
    [Generator::Prosper, Generator::LendingClub]
        .into_iter()
        .find(|generator| generator.as_str() == spec)
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

/// Every generated table's content in the process, held weakly: a key's
/// content lives while some tenant holds a table over it, and no longer.
#[derive(Debug, Default)]
struct Contents(Mutex<ContentMap>);

/// What [`Contents`] guards.
#[derive(Debug, Default)]
struct ContentMap {
    /// Key → the content generated for it, once generated. The cell is
    /// reserved under the lock and filled outside it, so a generation
    /// parks only the requests for its own key, and racing requests for
    /// it generate once.
    entries: HashMap<TableKey, Arc<OnceLock<WeakTable>>>,
    /// The entries the last sweep of dead ones left: the next sweep runs
    /// once the map has doubled past it.
    swept: usize,
}

impl Contents {
    /// A table over `key`'s content — the content some tenant already
    /// holds, or else generated now — under a fresh identity.
    fn materialize(&self, key: &TableKey) -> Dataset {
        let spec = DatasetSpec {
            rows: key.rows,
            ..key.spec.spec()
        };
        loop {
            let cell = self.reserve(key);
            let mut generated = None;
            let content = cell.get_or_init(|| {
                let dataset = Dataset::generate(spec, key.seed);
                let content = dataset.table.downgrade();
                generated = Some(dataset);
                content
            });
            if let Some(dataset) = generated {
                return dataset;
            }
            if let Some(table) = content.upgrade() {
                return Dataset {
                    table,
                    spec,
                    seed: key.seed,
                };
            }
            // The last table over it died after the cell was read.
            self.forget(key, &cell);
        }
    }

    /// `key`'s cell, reserved now if the map has none.
    fn reserve(&self, key: &TableKey) -> Arc<OnceLock<WeakTable>> {
        let mut map = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if map.entries.len() >= 2 * map.swept {
            // A cell still being filled is kept.
            map.entries
                .retain(|_, cell| cell.get().is_none_or(WeakTable::is_held));
            map.swept = map.entries.len();
        }
        Arc::clone(map.entries.entry(key.clone()).or_default())
    }

    /// Drops `key`'s entry if it is still `cell`, whose content is dead.
    fn forget(&self, key: &TableKey, cell: &Arc<OnceLock<WeakTable>>) {
        let mut map = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if map
            .entries
            .get(key)
            .is_some_and(|held| Arc::ptr_eq(held, cell))
        {
            map.entries.remove(key);
        }
    }
}

/// One tenant's session: an engine plus its materialized tables.
pub struct Tenant {
    name: String,
    engine: QueryEngine,
    /// The registry's contents, shared by every tenant.
    contents: Arc<Contents>,
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
        contents: &Arc<Contents>,
        max_tables: usize,
    ) -> Self {
        let engine = config.build(&name, pool);
        Self {
            name,
            engine,
            contents: Arc::clone(contents),
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

    /// The tenant's table for `key`, materialized on first use: a handle
    /// of its own over the content the registry holds for `key`,
    /// generated only when no tenant holds it. Dropping a table past the
    /// LRU bound frees what it bought once the last request using it
    /// ends, whoever else holds its content: a re-materialized handle
    /// gets a fresh [`expred_table::table::TableId`], so nothing could
    /// borrow the old namespaces or hit the old memo entries again. The
    /// engine's store drops the namespaces at its next liveness sweep
    /// (see `expred_exec::store`), offering them to the durable tier
    /// first when one is wired, and its death signal removes the old
    /// handle's outcomes from the engine's result memo.
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
            let dataset = Arc::new(self.contents.materialize(key));
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

    /// How many [`Self::dataset`] calls found this tenant without a
    /// handle on their table (first use, or re-use after eviction),
    /// whether the content was generated or another tenant's.
    pub(crate) fn table_misses(&self) -> u64 {
        self.table_misses.load(Ordering::Relaxed)
    }

    /// Total time those misses spent materializing, in microseconds: a
    /// generation, or a handle on content another tenant holds.
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
    /// The process's table contents, one per key some tenant holds.
    contents: Arc<Contents>,
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
            contents: Arc::default(),
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
            &self.contents,
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
            spec: Generator::Prosper,
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
        assert!(
            std::ptr::eq(a.table.column_at(0), b.table.column_at(0)),
            "one content under both"
        );
    }

    /// The registry's entry for `key`, if it has one.
    fn content(registry: &TenantRegistry, key: &TableKey) -> Option<WeakTable> {
        let map = registry.contents.0.lock().unwrap();
        map.entries.get(key).and_then(|cell| cell.get().cloned())
    }

    #[test]
    fn an_evicted_shared_key_frees_only_what_its_tenant_bought() {
        let registry = TenantRegistry::new(2, 1, EngineConfig::default());
        let (a, b) = (registry.route("a").unwrap(), registry.route("b").unwrap());
        let shared = key(400, 5);
        let request =
            expred_core::QueryRequest::intel_sample(expred_core::IntelSampleConfig::experiment1(
                expred_core::PredictorChoice::Fixed("grade".into()),
            ))
            .with_seed(3);
        let answer = |tenant: &Tenant| {
            let ds = tenant.dataset(&shared);
            tenant.engine().submit(&ds, &request).unwrap()
        };
        let b_before = crate::api::render_outcome("b", &answer(&b));
        let a_outcome = Arc::downgrade(&answer(&a));
        assert!(a.engine().store().num_namespaces() > 0);
        assert!(a_outcome.upgrade().is_some(), "A's memo holds its outcome");
        // A's one-table LRU evicts the shared key; B keeps its content.
        a.dataset(&key(400, 6));
        assert!(content(&registry, &shared).is_some_and(|c| c.is_held()));
        assert_eq!(
            a.engine().store().num_namespaces(),
            0,
            "A's sweep dropped the evicted key's namespaces"
        );
        assert!(a_outcome.upgrade().is_none(), "and its memo entries");
        let b_namespaces = b.engine().store().num_namespaces();
        assert!(b_namespaces > 0);
        let b_after = crate::api::render_outcome("b", &answer(&b));
        assert_eq!(b_after, b_before, "B answers as before");
        assert_eq!(b.engine().store().num_namespaces(), b_namespaces);
        assert_eq!(b.table_misses(), 1);
    }

    #[test]
    fn shared_content_dies_with_the_last_tenant_holding_it() {
        let registry = TenantRegistry::new(2, 1, EngineConfig::default());
        let (a, b) = (registry.route("a").unwrap(), registry.route("b").unwrap());
        let shared = key(200, 1);
        drop((a.dataset(&shared), b.dataset(&shared)));
        let weak = content(&registry, &shared).expect("materialized");
        a.dataset(&key(200, 2));
        assert!(weak.is_held(), "B still holds it");
        b.dataset(&key(200, 2));
        assert!(!weak.is_held());
        assert!(weak.upgrade().is_none());
        // The next request for the key generates it again.
        let again = a.dataset(&shared);
        assert!(content(&registry, &shared).is_some_and(|c| c.is_held()));
        assert_eq!(again.table.num_rows(), 200);
    }

    #[test]
    fn racing_tenants_generate_a_key_once() {
        let registry = TenantRegistry::new(2, 2, EngineConfig::default());
        let tenants = [registry.route("a").unwrap(), registry.route("b").unwrap()];
        let key = key(2_000, 4);
        let barrier = std::sync::Barrier::new(8);
        let tables: Vec<Arc<Dataset>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|i| {
                    let (tenant, key, barrier) = (&tenants[i % 2], &key, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        tenant.dataset(key)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let column = tables[0].table.column_at(0);
        for table in &tables {
            assert!(
                std::ptr::eq(table.table.column_at(0), column),
                "one content"
            );
        }
        for (i, tenant) in tenants.iter().enumerate() {
            assert_eq!(tenant.table_misses(), 1, "one handle per tenant");
            assert!(Arc::ptr_eq(&tenant.dataset(&key), &tables[i]));
        }
        assert_ne!(tables[0].table.id(), tables[1].table.id());
        assert_eq!(registry.contents.0.lock().unwrap().entries.len(), 1);
    }

    #[test]
    fn churned_keys_leave_the_content_map_bounded() {
        let registry = TenantRegistry::new(1, 2, EngineConfig::default());
        let tenant = registry.route("t").unwrap();
        for seed in 0..200 {
            tenant.dataset(&key(100, seed));
            let map = registry.contents.0.lock().unwrap();
            let held = map.entries.values();
            let live = held.filter(|cell| cell.get().is_some_and(WeakTable::is_held));
            let live = live.count();
            assert_eq!(live, tenant.table_count(), "seed {seed}");
            assert!(map.entries.len() <= 2 * live, "seed {seed}: {map:?}");
        }
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
