//! [`QueryEngine`]: the session layer — many queries, one cache.
//!
//! Everything below this module is per-query: pipelines build an invoker,
//! pay `o_e` for every fresh evaluation, and throw the memo away. The
//! engine is what a *serving* deployment holds on to between requests. It
//! owns an [`Executor`] backend and a [`CacheStore`], threads them
//! through every pipeline as one [`ExecContext`], and adds a second
//! reuse tier: a bounded memo of whole query outcomes, so an *identical*
//! repeated request (same table state, same query, same seed) is answered
//! without touching the UDF at all.
//!
//! An outcome is one shared allocation: [`QueryEngine::submit`] returns
//! `Arc<RunOutcome>`, and the memo, a cold race's followers and the caller
//! all hold that same `Arc` — a memo hit is a refcount bump, a fresh
//! request copies nothing. The answer inside is the bit plane the
//! pipeline filled ([`RunOutcome::returned`]), never an id list.
//!
//! Equal answers share one plane. Once a table's rows are decided,
//! §4.2's reuse rule (an evaluated tuple is returned, or dropped,
//! without being evaluated again) gives every Intel-Sample-family
//! request over it the same answer — the decided positives — whatever
//! its seed. So before a fresh outcome enters the memo its plane is
//! interned: the engine keeps a weak map from (table id, popcount) to
//! the distinct planes it has handed out, and a plane whose words equal
//! one still held is swapped for that one. Planes whose words differ
//! are never merged. The map holds no plane alive: an entry dies with
//! the last outcome holding its plane, the dead ones are swept once the
//! map has doubled since its last sweep, and a dead table's entries
//! leave with the table (below).
//!
//! The two tiers compose:
//!
//! 1. **Row tier** ([`CacheStore`]) — namespaced by `(udf, table id)`;
//!    overlapping-but-different queries stop re-paying `o_e` for rows any
//!    earlier query evaluated.
//! 2. **Query tier** (result memo) — keyed by a fingerprint of the query
//!    request; identical repeats are free and charge zero additional
//!    `o_e`, reported as [`EngineStats::result_hits`].
//!
//! A table id names one content state: mutating a table makes it a new
//! table with a fresh id, so neither tier's keys match it again. What a
//! table bought leaves with the table, in every tier: once no clone of
//! a state is left (a dropped table, or one mutated into a new state),
//! the row tier's liveness sweep drops its namespaces and signals its
//! death to the engine's one sink, which removes its outcomes from the
//! result memo and its planes from the interning map and, with
//! persistence wired, forgets its durable registration. The durable
//! store needs no word of it: a page leaves its RAM once a snapshot
//! frame holds all of its rows, live table or dead.
//! The table memo (partitions, dictionaries) lives inside the
//! table and goes with its last clone. The signal names tables the row
//! tier has seen: an outcome over a table whose UDFs have no stable
//! fingerprint (so no namespace) leaves the memo only under its bound.
//!
//! # Concurrency: one engine, many worker threads
//!
//! [`QueryEngine::submit`] takes `&self` and the engine is `Send + Sync`:
//! one long-lived engine — one executor, one [`CacheStore`], one result
//! memo — serves any number of worker threads directly, no outer mutex.
//! Every shared structure is internally synchronized:
//!
//! * the result memo is [`crate::result_memo::ResultMemo`], the
//!   workspace's one lock-striped, capacity-bounded second-chance memo;
//!   each entry stores the *full* request identity beside its outcome
//!   and every lookup compares it, so a hash collision (or a racing
//!   writer) can never serve one query's answer as another's;
//! * [`EngineStats`] is kept in atomic counters; [`QueryEngine::stats`]
//!   returns a consistent snapshot (see the type's docs);
//! * the session bill is an atomic [`CostTracker`], so charges from
//!   interleaved queries each land exactly once.
//!
//! **Answer stability.** Cached row answers are always *correct* — the
//! row tier is keyed by `(udf, table id)` and a UDF is deterministic per
//! row of one table state — so pipelines whose demand stream
//! is independent of cache state (e.g. [`crate::Strategy::Naive`]) return
//! byte-identical answers no matter how queries interleave. Intel-Sample
//! steers by one state per grouping, its ledger
//! ([`crate::sampling::Ledger`]): what the query's one read of the
//! grouping saw when the ledger opened, plus what the query evaluated
//! itself. Its draws, estimates, plans, rounds and the decided rows its
//! execution returns or drops all read the ledger; the live memo and
//! store are read only to answer a row the query has already chosen to
//! evaluate. So live state changes what a query pays, never what it
//! draws or returns: a row another query in flight lands mid-query
//! turns one of this query's evaluations into a free reuse, and leaves
//! its draws, its answer, its retrievals and its demand (evaluations
//! plus reuses) as they were. What can still differ across interleavings
//! is the state the query opens on — the ledger's opening read and
//! predictor ranking's labelled draw see every row the session holds at
//! that moment, a query still in flight included — just as a query's
//! sample differs across serial session orderings. Opening on only the
//! rows of queries that have completed is ROADMAP direction 31's other
//! half.
//!
//! **Racing duplicates (cold-race suppression).** Two threads submitting
//! the identical fresh request execute it once. After a memo miss each
//! finds or registers the request's flight in a small waiter table
//! (keyed by the result-memo hash, identity-verified): one
//! `Arc<OnceLock>` per in-flight identity, the pattern the serving
//! tier's tenants use to generate a contested table once. The first
//! caller into the cell runs the request; every identical arrival parks
//! on the cell and shares what it gets — the outcome, billed to the
//! session exactly once and reported as [`EngineStats::dedup_joins`], or
//! the [`EngineError`]. The memo read path stays lock-free; the waiter
//! table is touched only after a memo miss. A runner that panics leaves
//! the cell unset, so one parked caller runs the request itself.
//! Requests that merely *collide* on the 64-bit hash are never
//! deduplicated (the stored identity is compared), they just run side
//! by side.
//!
//! ```
//! use expred_core::{IntelSampleConfig, PredictorChoice, QueryEngine, QueryRequest};
//! use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
//!
//! let ds = Dataset::generate(DatasetSpec { rows: 2_000, ..PROSPER }, 7);
//! let engine = QueryEngine::new();
//! let request = QueryRequest::intel_sample(IntelSampleConfig::experiment1(
//!     PredictorChoice::Fixed("grade".into()),
//! ))
//! .with_seed(42);
//! let first = engine.submit(&ds, &request)?;
//! // `submit` takes `&self`: worker threads share the engine directly.
//! let again = std::thread::scope(|s| {
//!     s.spawn(|| engine.submit(&ds, &request)).join().unwrap()
//! })?;
//! assert_eq!(first.returned, again.returned);
//! // The repeat was answered from the result memo: zero new UDF calls.
//! assert_eq!(engine.session_counts().evaluated, first.counts.evaluated);
//! assert_eq!(engine.stats().result_hits, 1);
//! # Ok::<(), expred_core::EngineError>(())
//! ```

use crate::error::EngineError;
use crate::persistence::{PersistLayer, PersistSessionStats};
use crate::pipeline::RunOutcome;
use crate::request::{InfeasiblePolicy, QueryRequest};
use crate::result_memo::{ResultMemo, ResultMemoStats};
use expred_exec::{
    CacheNamespace, CacheStats, CacheStore, ExecContext, Executor, Sequential, SpillSink,
};
use expred_persist::{PagePlanes, PersistConfig, PersistError, PersistStore};
use expred_stats::counters::{CounterSet, Section};
use expred_stats::hash::{fnv1a, Fnv64};
use expred_table::datasets::Dataset;
use expred_table::{DerivedCacheStats, DerivedCounters, RowSet};
use expred_udf::{CostCounts, CostTracker};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Default bound on memoized whole-query outcomes. An entry holds its
/// identity, bill and map slots, ≈ 330 bytes, and shares its answer's
/// plane — table rows / 8 bytes, 2.5 KB over 20 000 rows whatever the
/// answer's size — with every other outcome of its table that returns
/// the same rows ([`AnswerPlanes`]). So a full memo over 20 000-row
/// tables is ≈ 0.33 MB plus 2.5 KB per distinct answer
/// (`tests/memo_bytes.rs` pins one answer at ≤ 512 KB), and about 3 MB
/// only when every answer differs. A dead table's outcomes leave with
/// it ([`EngineSink`]), so the bound binds only the live tables'
/// outcomes: distinct seeds over one live table are unbounded.
pub(crate) const DEFAULT_RESULT_MEMO_CAPACITY: usize = 1024;

expred_stats::counter_set! {
    /// Session-level statistics beyond the cost counters.
    ///
    /// # Snapshot consistency
    ///
    /// `result_hits <= queries` and `dedup_joins <= queries` hold in every
    /// [`QueryEngine::stats`] snapshot, even while other threads are
    /// mid-`submit`, by construction of the counter set: a free-ride
    /// counter is incremented *after* its query counter (`AcqRel`), and a
    /// snapshot loads in reverse declaration order (`Acquire`), so any
    /// observed hit's query increment is observed too. All counters are
    /// monotone; a snapshot may trail in-flight queries but never invents
    /// or loses events.
    pub struct EngineStats, atomic struct AtomicEngineStats {
        /// Queries served, including memoized repeats.
        queries,
        /// Queries answered entirely from the result memo.
        result_hits,
        /// Queries answered by joining an identical in-flight run
        /// (cold-race suppression): the arrival parked on the request's
        /// flight until its runner finished and shared the outcome,
        /// charging the session nothing.
        dedup_joins,
    }
}

/// The full identity of one memoized request. Stored alongside the
/// outcome and compared on every hit, so a 64-bit hash collision can
/// never serve one query's answers as another's. The strategy enters as
/// its whole identity stream ([`crate::Strategy::identity`]).
#[derive(Debug, Clone, PartialEq)]
struct ResultKey {
    table: u64,
    seed: u64,
    strategy: Vec<u8>,
}

impl ResultKey {
    /// `req`'s identity over table state `table`.
    fn new(table: u64, req: &QueryRequest) -> Self {
        Self {
            table,
            seed: req.seed(),
            strategy: req.strategy().identity(),
        }
    }

    /// The 64-bit memo/waiter-table key for this identity.
    fn hash64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.table);
        h.write_u64(self.seed);
        h.write_u64(fnv1a(&self.strategy));
        h.finish()
    }
}

/// The memo of whole outcomes: request identity -> the shared outcome.
type Results = ResultMemo<ResultKey, Arc<RunOutcome>>;

/// The answer planes the engine's outcomes share: each distinct plane
/// of a table is held once, however many outcomes return it (see the
/// module docs). Weak, so a plane leaves with the last outcome that
/// holds it.
#[derive(Debug, Default)]
struct AnswerPlanes(Mutex<PlaneMap>);

/// What [`AnswerPlanes`] guards.
#[derive(Debug, Default)]
struct PlaneMap {
    /// (table id, popcount) -> the planes interned under it.
    planes: HashMap<(u64, usize), Interned>,
    /// The planes `planes` names, held or not.
    len: usize,
    /// The planes the last sweep of dead entries left: the next sweep
    /// runs once the map has doubled past it, before the plane that
    /// doubled it is interned.
    swept: usize,
}

/// The distinct planes interned under one key: they share a popcount,
/// not their words. The first is inline, so a key naming one plane —
/// almost every key — allocates nothing of its own.
#[derive(Debug)]
struct Interned {
    first: Weak<RowSet>,
    rest: Vec<Weak<RowSet>>,
}

impl Interned {
    /// Drops the planes no outcome holds; `false` when none is left.
    fn sweep(&mut self) -> bool {
        self.rest.retain(|plane| plane.strong_count() > 0);
        if self.first.strong_count() == 0 {
            match self.rest.pop() {
                Some(plane) => self.first = plane,
                None => return false,
            }
        }
        true
    }
}

impl PlaneMap {
    /// Keeps the entries of the tables `keep` accepts whose planes are
    /// still held.
    fn sweep(&mut self, keep: impl Fn(u64) -> bool) {
        let mut len = 0;
        self.planes.retain(|&(table, _), interned| {
            let kept = keep(table) && interned.sweep();
            len += if kept { 1 + interned.rest.len() } else { 0 };
            kept
        });
        (self.len, self.swept) = (len, len);
    }
}

impl AnswerPlanes {
    /// The one shared copy of `plane`'s rows over table `table`: a plane
    /// with equal words interned earlier and still held, or else `plane`
    /// itself, interned now.
    fn intern(&self, table: u64, plane: Arc<RowSet>) -> Arc<RowSet> {
        let mut map = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if map.len >= 2 * map.swept {
            map.sweep(|_| true);
        }
        let weak = Arc::downgrade(&plane);
        match map.planes.entry((table, plane.len())) {
            Entry::Occupied(mut entry) => {
                let interned = entry.get_mut();
                let held = std::iter::once(&interned.first).chain(&interned.rest);
                let equal = held.filter_map(Weak::upgrade).find(|held| **held == *plane);
                if let Some(held) = equal {
                    return held;
                }
                interned.rest.push(weak);
            }
            Entry::Vacant(entry) => {
                let rest = Vec::new();
                entry.insert(Interned { first: weak, rest });
            }
        }
        map.len += 1;
        plane
    }

    /// Drops table `table`'s entries, and every dead one with them.
    fn table_dropped(&self, table: u64) {
        let mut map = self.0.lock().unwrap_or_else(|e| e.into_inner());
        map.sweep(|held| held != table);
    }
}

/// The one sink every engine installs on its row tier. The store's
/// liveness sweep is the engine's death signal: when a table dies, its
/// memoized outcomes leave the result memo and its planes the interning
/// map, and with persistence wired the durable layer forgets the table
/// too. Page offers go on to the durable layer, or nowhere on an
/// in-memory engine.
#[derive(Debug)]
struct EngineSink {
    results: Arc<Results>,
    planes: Arc<AnswerPlanes>,
    persist: Option<Arc<PersistLayer>>,
}

impl SpillSink for EngineSink {
    fn spill(&self, namespace: CacheNamespace, pages: &[(usize, PagePlanes)]) {
        if let Some(layer) = &self.persist {
            layer.spill(namespace, pages);
        }
    }

    fn table_dropped(&self, table: u64) {
        self.results.retain(|key| key.table != table);
        self.planes.table_dropped(table);
        if let Some(layer) = &self.persist {
            layer.table_dropped(table);
        }
    }
}

/// One in-flight request's result: set once by whichever caller runs
/// the request, read by every identical arrival parked on it.
type Flight = Arc<OnceLock<Result<Arc<RunOutcome>, EngineError>>>;

/// The cold-race waiter table: result-memo hash -> the in-flight
/// request's full identity and its flight.
type Waiters = Mutex<HashMap<u64, (ResultKey, Flight)>>;

/// Unregisters a flight when the frame that registered it ends, on every
/// path: an outcome, an error or an unwind.
struct FlightGuard<'a> {
    waiters: &'a Waiters,
    key: u64,
    flight: Flight,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut waiters = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
        if let Entry::Occupied(entry) = waiters.entry(self.key) {
            if Arc::ptr_eq(&entry.get().1, &self.flight) {
                entry.remove();
            }
        }
    }
}

/// A long-lived query session: one executor, one cross-query cache, one
/// result memo, many queries — and many worker threads.
///
/// `Send + Sync` with `submit(&self)`: share one engine behind an `Arc` (or
/// a scoped-thread borrow) and call it from every worker directly. See
/// the module docs for the exact concurrency guarantees.
pub struct QueryEngine {
    executor: Box<dyn Executor>,
    store: CacheStore,
    session: CostTracker,
    /// Shared with the store's sink ([`EngineSink`]), which removes a
    /// dead table's outcomes.
    results: Arc<Results>,
    /// The distinct answer planes the memo's outcomes share; shared with
    /// the sink too, which drops a dead table's.
    planes: Arc<AnswerPlanes>,
    udf_latency: Option<Duration>,
    stats: AtomicEngineStats,
    /// Cold-race waiter table.
    inflight: Waiters,
    /// Hits and misses of this session's table-memo lookups (group
    /// partitions, encoding dictionaries); the memo itself
    /// lives in each table.
    derived: DerivedCounters,
    /// Durable persistence bridge ([`QueryEngine::with_persistence`]):
    /// spills fresh answers to a WAL-backed store and rehydrates them —
    /// version-checked — on the first submit over each table id.
    /// `None` (the default) keeps the engine fully in-memory.
    persist: Option<Arc<PersistLayer>>,
}

// The `&self + Sync` contract is the point of the engine; if a field
// change ever silently broke it, every serving deployment would stop
// compiling somewhere far less obvious than here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>()
};

impl QueryEngine {
    /// An engine on the [`Sequential`] backend with default capacities.
    pub fn new() -> Self {
        Self::with_executor(Box::new(Sequential))
    }

    /// An engine running UDF batches through `executor`.
    pub fn with_executor(executor: Box<dyn Executor>) -> Self {
        let engine = Self {
            executor,
            store: CacheStore::new(),
            session: CostTracker::new(),
            results: Arc::new(ResultMemo::with_capacity(DEFAULT_RESULT_MEMO_CAPACITY)),
            planes: Arc::default(),
            udf_latency: None,
            stats: AtomicEngineStats::default(),
            inflight: Mutex::new(HashMap::new()),
            derived: DerivedCounters::default(),
            persist: None,
        };
        engine.install_sink();
        engine
    }

    /// (Re)installs the engine's one sink ([`EngineSink`]) over its
    /// current memo and durable layer; every builder that replaces
    /// either calls it, so the store hears one sink in any call order.
    fn install_sink(&self) {
        let sink = EngineSink {
            results: Arc::clone(&self.results),
            planes: Arc::clone(&self.planes),
            persist: self.persist.clone(),
        };
        self.store.set_spill(Some(Arc::new(sink)));
    }

    /// An engine on its own persistent [`expred_exec::WorkerPool`]: no
    /// per-batch thread spawns, work-stealing chunking, a core budget read
    /// off the machine and a width the pool learns from the probes
    /// (waiting probes overlap far past the core count, computing ones
    /// do not). A process with many engines should share one pool
    /// instead — `with_executor(Box::new(Arc::clone(&pool)))`, as the
    /// serving tier does.
    pub fn pooled() -> Self {
        Self::with_executor(Box::new(expred_exec::WorkerPool::new()))
    }

    /// Attaches a durable persistence tier rooted at `config`'s
    /// directory, recovering whatever a previous process left there.
    ///
    /// From this point on, every fresh `(udf, table, row) → answer` the
    /// session pays `o_e` for is offered to a WAL-backed store
    /// (asynchronously — the hot path never blocks on disk), and the
    /// first submit over each table id — one content state — rehydrates
    /// matching persisted namespaces into the row tier, so a restarted
    /// process re-serves previously-paid answers at zero `o_e`. Matching
    /// is by *(schema fingerprint, table version)* — both
    /// process-independent — so a mutated or different table can never
    /// be served another table's answers.
    pub fn with_persistence(mut self, config: PersistConfig) -> Result<Self, PersistError> {
        let store = PersistStore::open(config)?;
        self.persist = Some(Arc::new(PersistLayer::new(store)));
        self.install_sink();
        Ok(self)
    }

    /// Bounds the query-tier result memo (0 disables it). The effective
    /// bound may round down slightly to divide evenly across stripes
    /// ([`ResultMemo::with_capacity`]). `pub` as a test seam: only tests
    /// and benches in other crates call it.
    pub fn with_result_capacity(mut self, capacity: usize) -> Self {
        self.results = Arc::new(ResultMemo::with_capacity(capacity));
        self.install_sink();
        self
    }

    /// Adds an artificial latency to every fresh UDF evaluation this
    /// engine performs — a load-testing knob: answers, cache identities,
    /// and audited counts are all unaffected.
    pub fn with_udf_latency(mut self, latency: Duration) -> Self {
        self.udf_latency = (!latency.is_zero()).then_some(latency);
        self
    }

    /// The execution context this engine runs queries under — exposed so
    /// callers can drive the pipeline and stage functions (or their
    /// own invokers) inside this session's cache, from any thread.
    pub fn context(&self) -> ExecContext<'_> {
        let ctx = ExecContext::new(self.executor.as_ref())
            .with_cache(&self.store)
            .with_derived_counters(&self.derived);
        match self.udf_latency {
            Some(latency) => ctx.with_udf_latency(latency),
            None => ctx,
        }
    }

    /// Serves one request — the engine's primary entry point. Callable
    /// from any thread; see the module docs for concurrency semantics.
    ///
    /// The request's [`crate::Strategy`] is validated first
    /// (bad input surfaces as [`EngineError`] before any UDF money is
    /// spent and before the request is counted). An identical request —
    /// same dataset state, same strategy identity, same seed — returns
    /// the memoized [`RunOutcome`] itself — the same allocation, behind
    /// the same `Arc`; its `counts` describe the original run — and
    /// charges nothing new to the session. A fresh request runs
    /// the strategy against the shared row cache and folds its bill into
    /// [`QueryEngine::session_counts`]. Two threads racing on the
    /// identical fresh request execute it once: the first runs it, the
    /// second parks on its flight in the waiter table and shares the
    /// outcome ([`EngineStats::dedup_joins`]) or the error.
    ///
    /// Under [`InfeasiblePolicy::Error`], an outcome whose plan fell back
    /// to evaluate-everything is reported as [`EngineError::Infeasible`]
    /// (the fallback outcome itself is still memoized — see the policy's
    /// docs).
    pub fn submit(&self, ds: &Dataset, req: &QueryRequest) -> Result<Arc<RunOutcome>, EngineError> {
        let strategy = req.strategy();
        strategy.validate(ds)?;
        // With persistence wired: register the table's durable identity
        // and, once per table id, rehydrate persisted answers into the
        // row tier before any evaluation is planned.
        if let Some(layer) = &self.persist {
            layer.register(ds, &self.store);
        }
        // `queries` before the memo probe, `result_hits` after the hit:
        // this increment order is what makes stats snapshots consistent.
        self.stats.queries.fetch_add(1, Ordering::AcqRel);
        let identity = ResultKey::new(ds.table.id().as_u64(), req);
        let outcome = self.serve(ds, req, identity)?;
        if req.infeasible_policy() == InfeasiblePolicy::Error && !outcome.plan_feasible {
            return Err(EngineError::Infeasible {
                strategy: strategy.name().to_owned(),
            });
        }
        Ok(outcome)
    }

    /// The memo / cold-race / fresh-execution core of [`QueryEngine::submit`].
    fn serve(
        &self,
        ds: &Dataset,
        req: &QueryRequest,
        identity: ResultKey,
    ) -> Result<Arc<RunOutcome>, EngineError> {
        let key = identity.hash64();
        // The memo verifies the full identity: a colliding key is
        // treated as a miss, never served.
        if let Some(hit) = self.results.get(key, &identity) {
            self.stats.result_hits.fetch_add(1, Ordering::AcqRel);
            return Ok(hit);
        }
        // Cold-race suppression: join an identity-verified identical
        // flight, or register one. A hash collision with a *different*
        // in-flight request gets a flight of its own and runs solo —
        // duplicated work can only be saved, never substituted.
        let (flight, _guard) = {
            let mut waiters = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match waiters.entry(key) {
                Entry::Occupied(entry) if entry.get().0 == identity => {
                    (Arc::clone(&entry.get().1), None)
                }
                Entry::Occupied(_) => (Flight::default(), None),
                Entry::Vacant(slot) => {
                    let flight = Flight::default();
                    slot.insert((identity.clone(), Arc::clone(&flight)));
                    let guard = FlightGuard {
                        waiters: &self.inflight,
                        key,
                        flight: Arc::clone(&flight),
                    };
                    (flight, Some(guard))
                }
            }
        };
        let mut ran = false;
        let result = flight.get_or_init(|| {
            ran = true;
            // Re-probe the memo: our earlier miss may be stale (a
            // previous flight published and unregistered between our
            // probe and our registration), and re-running a memoized
            // request would waste the whole pipeline. A `peek`: this
            // request's lookup was counted by the probe above.
            if let Some(hit) = self.results.peek(key, &identity) {
                self.stats.result_hits.fetch_add(1, Ordering::AcqRel);
                return Ok(hit);
            }
            self.execute_fresh(ds, req, key, identity)
        });
        if !ran && result.is_ok() {
            self.stats.dedup_joins.fetch_add(1, Ordering::AcqRel);
        }
        result.clone()
    }

    /// Runs the strategy for one non-memoized request, folds its bill
    /// into the session, and publishes the outcome to the result memo,
    /// its answer interned first ([`AnswerPlanes`]). A strategy error is
    /// propagated without billing or memoizing.
    fn execute_fresh(
        &self,
        ds: &Dataset,
        req: &QueryRequest,
        key: u64,
        identity: ResultKey,
    ) -> Result<Arc<RunOutcome>, EngineError> {
        let outcome = {
            let ctx = self.context();
            let mut outcome = req.strategy().execute(ds, req.seed(), &ctx)?;
            outcome.returned = self.planes.intern(identity.table, outcome.returned);
            Arc::new(outcome)
        };
        self.session.absorb(&outcome.counts);
        self.results.insert(key, identity, Arc::clone(&outcome));
        Ok(outcome)
    }

    /// Every counter set this engine keeps, in export order, each named
    /// once with its `/metrics.json` key and its `/metrics` line prefix —
    /// the one walk both exports render. A layer that grows a counter set
    /// adds its line here and appears in both.
    pub fn counter_sections(&self, visit: &mut dyn FnMut(Section, &dyn CounterSet)) {
        visit(Section::new("engine", "engine"), &self.stats());
        visit(Section::new("cache", "engine_cache"), &self.cache_stats());
        let memo = self.result_memo_stats();
        visit(Section::new("result_memo", "engine_memo"), &memo);
        visit(
            Section::new("derived", "engine_derived"),
            &self.derived_stats(),
        );
        if let Some(layer) = &self.persist {
            visit(
                Section::new("persist", "engine_persist"),
                &layer.session_stats(),
            );
            // Beside the session counters rather than among them: a
            // disk that stopped taking WAL writes.
            let write_failures = layer.store().stats().write_failures;
            visit(
                Section::new("persist_wal", "engine_persist_wal"),
                &[("write_failures", write_failures)],
            );
        }
        visit(Section::new("bill", "engine_bill"), &self.session_counts());
    }

    /// Cumulative audited counts across every non-memoized query served.
    pub fn session_counts(&self) -> CostCounts {
        self.session.snapshot()
    }

    /// Row-tier cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Session statistics (queries served, result-memo hits) as a
    /// consistent snapshot — see [`EngineStats`].
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// Query-tier result-memo statistics (hits, misses, collision
    /// rejects, evictions).
    pub fn result_memo_stats(&self) -> ResultMemoStats {
        self.results.stats()
    }

    /// The shared row-tier store (its statistics, its namespaces).
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// Table-memo statistics (partition/dictionary/label-plane reuse):
    /// a lookup that had to derive is a miss.
    pub fn derived_stats(&self) -> DerivedCacheStats {
        self.derived.snapshot()
    }

    /// Persistence-tier statistics, if persistence is wired
    /// ([`QueryEngine::with_persistence`]); `None` on in-memory engines.
    pub fn persist_stats(&self) -> Option<PersistSessionStats> {
        self.persist.as_ref().map(|layer| layer.session_stats())
    }

    /// Snapshots the durable index into the next generation now and
    /// waits for it; an `Err` means no snapshot was written. Every page
    /// the snapshot holds whole then leaves the store's RAM
    /// ([`PersistSessionStats::resident_pages`]). A no-op without
    /// persistence. `pub` as a test seam: only tests and benches in other
    /// crates call it.
    pub fn compact_persistence(&self) -> Result<(), PersistError> {
        self.persist
            .as_ref()
            .map_or(Ok(()), |layer| layer.store().compact())
    }

    /// Holds the durable store's flusher until the guard drops
    /// ([`PersistStore::hold_flusher`]); `None` without persistence.
    /// `pub` as a test seam: only tests in other crates call it.
    pub fn hold_persistence(&self) -> Option<expred_persist::FlushHold<'_>> {
        self.persist
            .as_ref()
            .map(|layer| layer.store().hold_flusher())
    }

    /// Pushes the session's durable state to disk and waits for it:
    /// re-offers every live row-tier entry (catching answers whose table
    /// was unregistered at insert time; already-persisted ones
    /// deduplicate to no-ops, and a page whose snapshot frame holds
    /// exactly the offered rows is not read back), compacts if any WAL
    /// row was ever shed (a shed row lives only in the store's in-memory
    /// index — re-offers dedup against the index without re-enqueuing,
    /// so only a snapshot of the index gets it to disk), and blocks
    /// until everything accepted so far is fsynced. The answers are the
    /// whole durable state: the pass rates the optimizer reads come back
    /// with them. A no-op without persistence.
    pub fn flush_persistence(&self) -> Result<(), PersistError> {
        let Some(layer) = &self.persist else {
            return Ok(());
        };
        self.store
            .for_each_namespace(|namespace, pages| layer.spill(namespace, pages));
        if layer.store().stats().shed > 0 {
            layer.store().compact()?;
        }
        layer.store().sync()
    }
}

impl Default for QueryEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{IntelSampleConfig, PredictorChoice};
    use crate::query::QuerySpec;
    use crate::sampling::Sampling;
    use expred_table::datasets::{DatasetSpec, PROSPER};

    fn small_prosper(seed: u64) -> Dataset {
        Dataset::generate(
            DatasetSpec {
                rows: 3_000,
                ..PROSPER
            },
            seed,
        )
    }

    fn intel_query() -> QueryRequest {
        QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
            "grade".into(),
        )))
    }

    fn naive(spec: QuerySpec, seed: u64) -> QueryRequest {
        QueryRequest::naive(spec).with_seed(seed)
    }

    #[test]
    fn identical_query_is_memoized_and_free() {
        let ds = small_prosper(1);
        let engine = QueryEngine::new();
        let first = engine.submit(&ds, &intel_query().with_seed(5)).unwrap();
        let after_first = engine.session_counts();
        let again = engine.submit(&ds, &intel_query().with_seed(5)).unwrap();
        assert_eq!(first.returned, again.returned);
        assert_eq!(first.counts, again.counts);
        assert_eq!(
            engine.session_counts(),
            after_first,
            "a memoized repeat charges nothing"
        );
        assert_eq!(engine.stats().result_hits, 1);
        assert_eq!(engine.stats().queries, 2);
    }

    #[test]
    fn a_memo_hit_is_the_leaders_allocation() {
        let ds = small_prosper(1);
        let engine = QueryEngine::new();
        let first = engine.submit(&ds, &intel_query().with_seed(5)).unwrap();
        let again = engine.submit(&ds, &intel_query().with_seed(5)).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "a hit bumps a refcount");
        // Caller, caller, memo: nobody holds a copy.
        assert_eq!(Arc::strong_count(&first), 3);
    }

    #[test]
    fn each_request_counts_one_memo_lookup() {
        // A fresh request probes the memo twice (before registering its
        // flight and again as leader); only the first probe is counted.
        let ds = small_prosper(4);
        let engine = QueryEngine::new();
        let spec = QuerySpec::paper_default();
        for seed in 0..5 {
            engine.submit(&ds, &naive(spec, seed)).unwrap();
        }
        let cold = engine.result_memo_stats();
        assert_eq!((cold.hits, cold.misses, cold.insertions), (0, 5, 5));
        for seed in 0..5 {
            engine.submit(&ds, &naive(spec, seed)).unwrap();
            engine.submit(&ds, &naive(spec, seed)).unwrap();
        }
        let warm = engine.result_memo_stats();
        assert_eq!((warm.hits, warm.misses), (10, 5));
        assert_eq!(
            warm.hits + warm.misses + warm.collision_rejects,
            engine.stats().queries
        );
        assert_eq!(engine.stats().result_hits, warm.hits);
    }

    /// A UDF passing every third row whose first evaluation announces
    /// itself and waits to be let go, then answers or, if `panics`,
    /// unwinds: an expression scan over it holds a request in flight.
    struct Gated {
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
        started: std::sync::atomic::AtomicBool,
        panics: bool,
    }

    impl expred_udf::BooleanUdf for Gated {
        fn evaluate(&self, _: &expred_table::Table, row: usize) -> bool {
            if !self.started.swap(true, Ordering::SeqCst) {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
                assert!(!self.panics, "the gated evaluation unwinds");
            }
            row.is_multiple_of(3)
        }

        fn fingerprint(&self) -> Option<expred_udf::UdfId> {
            Some(expred_udf::UdfId::from_parts("gated", &[]))
        }
    }

    /// What one `submit` returns.
    type Submitted = Result<Arc<RunOutcome>, EngineError>;

    /// Submits a [`Gated`] scan from two threads: the first is held in
    /// flight until the second parks on its flight, then let go. Returns
    /// what each got (the first's `Err` if it panicked) and whether the
    /// gate was entered again.
    fn cold_race(
        engine: &QueryEngine,
        ds: &Dataset,
        panics: bool,
    ) -> (std::thread::Result<Submitted>, Submitted, bool) {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let gated = Gated {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
            started: Default::default(),
            panics,
        };
        let request = QueryRequest::expr_scan(
            expred_udf::Pred::udf(gated),
            expred_udf::CostModel::PAPER_DEFAULT,
        );
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| engine.submit(ds, &request));
            entered.recv().unwrap();
            let follower = scope.spawn(|| engine.submit(ds, &request));
            // The leader's frame holds the flight twice and the waiter
            // table once; a fourth holder is the follower, which from
            // there can only park on it.
            loop {
                let waiters = engine.inflight.lock().unwrap();
                let (_, flight) = waiters.values().next().expect("the leader is in flight");
                if Arc::strong_count(flight) >= 4 {
                    break;
                }
                drop(waiters);
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            let led = leader.join();
            (led, follower.join().unwrap(), entered.try_recv().is_ok())
        })
    }

    #[test]
    fn a_cold_race_follower_shares_the_leaders_allocation() {
        let ds = small_prosper(10);
        let engine = QueryEngine::new();
        let (led, followed, reentered) = cold_race(&engine, &ds, false);
        let (led, followed) = (led.unwrap().unwrap(), followed.unwrap());
        assert!(Arc::ptr_eq(&led, &followed), "followers share, not copy");
        let stats = engine.stats();
        assert_eq!(
            (stats.queries, stats.dedup_joins, stats.result_hits),
            (2, 1, 0)
        );
        assert!(!reentered, "the strategy ran once");
    }

    #[test]
    fn a_panicking_leader_releases_its_follower() {
        let ds = small_prosper(10);
        let engine = QueryEngine::new();
        let (led, followed, reentered) = cold_race(&engine, &ds, true);
        assert!(led.is_err(), "the leader unwound");
        // The flight stayed unset, so the parked follower ran the
        // request itself, past the gate.
        let followed = followed.expect("the follower answers");
        let rows = ds.table.num_rows();
        let reference: Vec<u32> = (0..rows as u32)
            .filter(|row| row.is_multiple_of(3))
            .collect();
        assert_eq!(followed.returned.to_vec(), reference);
        assert!(!reentered);
        let stats = engine.stats();
        assert_eq!((stats.queries, stats.dedup_joins), (2, 0));
        assert!(
            engine.inflight.lock().unwrap().is_empty(),
            "the waiter table must drain"
        );
    }

    #[test]
    fn first_run_matches_the_legacy_pipeline_exactly() {
        let ds = small_prosper(2);
        let engine = QueryEngine::new();
        let engine_out = engine.submit(&ds, &intel_query().with_seed(9)).unwrap();
        let legacy = crate::pipeline::run_intel_sample(
            &ds,
            &IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into())),
            9,
            &ExecContext::sequential(),
        )
        .unwrap();
        assert_eq!(engine_out.returned, legacy.returned);
        assert_eq!(engine_out.counts.evaluated, legacy.counts.evaluated);
        assert_eq!(engine_out.counts.retrieved, legacy.counts.retrieved);
        assert_eq!(engine_out.cost, legacy.cost);
        assert_eq!(engine_out.counts.reuse_hits, 0, "cold session, no reuse");
    }

    #[test]
    fn overlapping_queries_reuse_rows() {
        let ds = small_prosper(3);
        let engine = QueryEngine::new();
        let spec = QuerySpec::paper_default();
        engine.submit(&ds, &naive(spec, 1)).unwrap();
        // Same query, different seed: different random β-fraction, heavy
        // overlap with the first one's rows.
        let second = engine.submit(&ds, &naive(spec, 2)).unwrap();
        assert!(
            second.counts.reuse_hits > 0,
            "overlapping workload must reuse"
        );
        let cold = crate::pipeline::run_naive(&ds, &spec, 2, &ExecContext::sequential()).unwrap();
        assert_eq!(
            second.returned, cold.returned,
            "reuse must not change answers"
        );
        assert!(
            second.counts.evaluated < cold.counts.evaluated,
            "warm {} vs cold {}",
            second.counts.evaluated,
            cold.counts.evaluated
        );
        assert_eq!(
            second.counts.evaluated + second.counts.reuse_hits,
            cold.counts.evaluated,
            "every demanded row is either fresh or reused"
        );
    }

    #[test]
    fn different_seeds_and_specs_are_distinct_memo_keys() {
        let ds = small_prosper(4);
        let engine = QueryEngine::new();
        let spec = QuerySpec::paper_default();
        engine.submit(&ds, &naive(spec, 1)).unwrap();
        engine.submit(&ds, &naive(spec, 2)).unwrap();
        let other = QuerySpec::new(0.7, 0.7, 0.8, spec.cost);
        engine.submit(&ds, &naive(other, 1)).unwrap();
        assert_eq!(engine.stats().result_hits, 0);
        assert_eq!(engine.stats().queries, 3);
    }

    #[test]
    fn result_capacity_zero_disables_the_memo() {
        let ds = small_prosper(5);
        let engine = QueryEngine::new().with_result_capacity(0);
        let spec = QuerySpec::paper_default();
        let a = engine.submit(&ds, &naive(spec, 1)).unwrap();
        let b = engine.submit(&ds, &naive(spec, 1)).unwrap();
        assert_eq!(engine.stats().result_hits, 0);
        // The row tier still answers everything: zero fresh evaluations.
        assert_eq!(b.counts.evaluated, 0);
        assert_eq!(b.counts.reuse_hits, a.counts.evaluated);
        assert_eq!(a.returned, b.returned);
    }

    #[test]
    fn every_query_kind_runs_through_the_engine() {
        let ds = small_prosper(6);
        let spec = QuerySpec::paper_default();
        let engine = QueryEngine::new();
        let grade = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let queries = [
            intel_query(),
            QueryRequest::naive(spec),
            QueryRequest::optimal(spec, "grade"),
            QueryRequest::intel_sample(IntelSampleConfig {
                sampling: Sampling::Search,
                ..grade.clone()
            }),
            QueryRequest::intel_sample(IntelSampleConfig {
                rounds: std::num::NonZeroUsize::new(2).unwrap(),
                ..grade
            }),
        ];
        for (i, q) in queries.iter().enumerate() {
            let out = engine
                .submit(&ds, &q.clone().with_seed(100 + i as u64))
                .unwrap();
            assert!(!out.returned.is_empty(), "query {i} returned nothing");
        }
        assert_eq!(engine.stats().queries, queries.len() as u64);
        assert!(engine.cache_stats().insertions > 0);
        // Later queries benefit from earlier ones' evaluations.
        assert!(engine.session_counts().reuse_hits > 0);
    }

    #[test]
    fn identical_query_storm_is_billed_once() {
        // 8 threads, one engine, the identical fresh request: cold-race
        // suppression must let exactly one thread execute (one o_e bill)
        // while everyone returns the identical outcome.
        let ds = small_prosper(8);
        let spec = QuerySpec::paper_default();
        // 100µs per fresh evaluation keeps the leader in flight long
        // enough that the storm genuinely races instead of serially
        // hitting the result memo.
        let engine = QueryEngine::new().with_udf_latency(Duration::from_micros(100));
        let reference = {
            let probe = QueryEngine::new();
            probe.submit(&ds, &naive(spec, 3)).unwrap()
        };
        // A barrier makes the storm simultaneous: every thread misses the
        // memo together, one becomes leader, seven park on its flight.
        let barrier = std::sync::Barrier::new(8);
        let outcomes: Vec<Arc<RunOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        engine.submit(&ds, &naive(spec, 3)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for outcome in &outcomes {
            assert_eq!(outcome.returned, reference.returned);
            assert_eq!(outcome.counts, reference.counts);
            // Memo hit or waiter-table join, it is the leader's outcome.
            assert!(Arc::ptr_eq(outcome, &outcomes[0]));
        }
        assert_eq!(
            engine.session_counts().evaluated,
            reference.counts.evaluated,
            "the storm must be billed exactly one run's o_e"
        );
        let stats = engine.stats();
        assert_eq!(stats.queries, 8);
        assert_eq!(
            stats.result_hits + stats.dedup_joins,
            7,
            "every non-leader must ride the memo or the waiter table"
        );
        assert!(
            engine.inflight.lock().unwrap().is_empty(),
            "the waiter table must drain"
        );
    }

    #[test]
    fn dedup_survives_a_disabled_result_memo() {
        // With the result memo off, the waiter table is the only dedup
        // tier — concurrent identical requests still bill once; serial
        // repeats legitimately re-execute (their row-tier reuse makes
        // them cheap, not free).
        let ds = small_prosper(9);
        let spec = QuerySpec::paper_default();
        let engine = QueryEngine::new()
            .with_result_capacity(0)
            .with_udf_latency(Duration::from_micros(100));
        let outcomes: Vec<Arc<RunOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| engine.submit(&ds, &naive(spec, 5)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for outcome in &outcomes[1..] {
            assert_eq!(outcome.returned, outcomes[0].returned);
        }
        let stats = engine.stats();
        assert_eq!(stats.result_hits, 0, "the memo is off");
        // Exactly one run paid fresh evaluations: concurrent identical
        // arrivals joined the leader, and any post-completion arrival
        // re-ran against the warm row tier (zero fresh, all reuse).
        let fresh = outcomes.iter().map(|o| o.counts.evaluated).max().unwrap();
        assert!(fresh > 0, "someone must have paid the cold run");
        assert_eq!(
            engine.session_counts().evaluated,
            fresh,
            "the storm's total fresh o_e is one cold run's"
        );
    }

    #[test]
    fn repeat_queries_hit_the_derived_cache() {
        let ds = small_prosper(21);
        let engine = QueryEngine::new();
        // Different seeds: the result memo misses, so the pipeline runs in
        // full both times — but the "grade" partition is derived once.
        let first = engine.submit(&ds, &intel_query().with_seed(1)).unwrap();
        let after_first = engine.derived_stats();
        assert!(after_first.misses >= 1, "cold session derives fresh");
        let again = engine.submit(&ds, &intel_query().with_seed(2)).unwrap();
        let after_second = engine.derived_stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "the repeat must not re-group"
        );
        assert!(after_second.hits > after_first.hits, "the repeat reuses");
        // Both runs are real answers over the same 3k-row table; the
        // memo only changed who derived the partition, not the query.
        assert_eq!(first.num_groups, again.num_groups);
    }

    #[test]
    fn push_row_forces_a_derived_miss() {
        let mut ds = small_prosper(22);
        let engine = QueryEngine::new();
        engine.submit(&ds, &intel_query().with_seed(1)).unwrap();
        let warm = engine.derived_stats();
        // Appending a row resets the table's memo, so the next run must
        // derive again.
        let row = ds.table.row(0);
        ds.table.push_row(row).expect("row 0 matches the schema");
        engine.submit(&ds, &intel_query().with_seed(1)).unwrap();
        let after_push = engine.derived_stats();
        assert!(
            after_push.misses > warm.misses,
            "a push must force re-derivation"
        );
    }

    #[test]
    fn a_cold_auto_query_partitions_only_its_winner() {
        let ds = small_prosper(23);
        let engine = QueryEngine::new();
        let auto =
            QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Auto {
                label_fraction: 0.05,
            }));
        let outcome = engine.submit(&ds, &auto.with_seed(1)).unwrap();
        // Ranking tallies its sample through each candidate's codes (nine
        // are eligible here); only the plan's column is partitioned.
        let derived = engine.derived_stats();
        assert_eq!((derived.hits, derived.misses), (0, 1));
        let counters = DerivedCounters::default();
        let partitioned: Vec<String> = ds
            .candidate_columns()
            .into_iter()
            .filter(|column| {
                let before = counters.snapshot().hits;
                let groups = ds.table.partition(column, Some(&counters)).unwrap();
                let held = counters.snapshot().hits > before;
                held && groups.num_groups() == outcome.num_groups
            })
            .collect();
        assert_eq!(partitioned.len(), 1, "the winner's partition alone");
        assert_eq!(counters.snapshot().hits, 1);
    }

    /// The tables the memo's entries name, ascending, each once.
    fn memo_tables(engine: &QueryEngine) -> Vec<u64> {
        let mut tables = Vec::new();
        engine.results.retain(|key| {
            tables.push(key.table);
            true
        });
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// What the interning map holds.
    #[derive(Debug)]
    struct PlaneEntries {
        /// The tables its keys name, ascending, each once.
        tables: Vec<u64>,
        keys: usize,
        /// The planes its keys name, and how many of them an outcome
        /// still holds.
        planes: usize,
        live: usize,
    }

    fn plane_entries(engine: &QueryEngine) -> PlaneEntries {
        let map = engine.planes.0.lock().unwrap();
        let mut tables: Vec<u64> = map.planes.keys().map(|&(table, _)| table).collect();
        tables.sort_unstable();
        tables.dedup();
        let interned = map.planes.values();
        let planes = interned.flat_map(|i| std::iter::once(&i.first).chain(&i.rest));
        let (planes, live) = planes.fold((0, 0), |(planes, live), plane| {
            (planes + 1, live + usize::from(plane.strong_count() > 0))
        });
        let keys = map.planes.len();
        PlaneEntries {
            tables,
            keys,
            planes,
            live,
        }
    }

    /// A scratch directory for one test's durable store, emptied first.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("expred-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs `case` on an in-memory engine, then on a durable one built
    /// with persistence before the memo bound and on one built after it:
    /// each must keep the engine's one sink whole. Every engine's memo
    /// holds `capacity` outcomes.
    fn with_each_wiring(name: &str, capacity: usize, case: impl Fn(&str, &QueryEngine)) {
        case(
            "in-memory",
            &QueryEngine::new().with_result_capacity(capacity),
        );
        let config = |order: &str| PersistConfig::new(scratch_dir(&format!("{name}-{order}")));
        let wirings = [
            (
                "persistence, then capacity",
                QueryEngine::new()
                    .with_persistence(config("pc"))
                    .unwrap()
                    .with_result_capacity(capacity),
            ),
            (
                "capacity, then persistence",
                QueryEngine::new()
                    .with_result_capacity(capacity)
                    .with_persistence(config("cp"))
                    .unwrap(),
            ),
        ];
        for (wiring, engine) in wirings {
            case(wiring, &engine);
            let persist = engine.persist_stats().expect("persistence stays wired");
            assert!(persist.spilled_offers > 0, "{wiring}: offers reach disk");
            assert_eq!(persist.skipped_unregistered, 0, "{wiring}");
        }
        for order in ["pc", "cp"] {
            let _ = std::fs::remove_dir_all(scratch_dir(&format!("{name}-{order}")));
        }
    }

    /// The request kinds the serving tier answers (`crates/serve`'s HTTP
    /// kinds): naive, optimal, intel_sample fixed and auto, adaptive,
    /// iterative and expr.
    fn http_kinds() -> Vec<(&'static str, QueryRequest)> {
        let kinds = [
            "naive",
            "optimal",
            "intel_sample",
            "intel_sample auto",
            "adaptive",
            "iterative",
            "expr",
        ];
        let requests = pinned_requests().into_iter();
        requests.filter(|(kind, _)| kinds.contains(kind)).collect()
    }

    #[test]
    fn a_dead_tables_outcomes_leave_the_memo() {
        with_each_wiring("death", DEFAULT_RESULT_MEMO_CAPACITY, |wiring, engine| {
            let live = small_prosper(31);
            let dead = small_prosper(32);
            let (live_id, dead_id) = (live.table.id().as_u64(), dead.table.id().as_u64());
            let kinds = http_kinds();
            assert_eq!(kinds.len(), 7);
            let mut first = Vec::new();
            for (kind, request) in &kinds {
                let out = engine.submit(&live, request);
                first.push(out.unwrap_or_else(|e| panic!("{wiring}: {kind}: {e}")));
                engine.submit(&dead, request).unwrap();
            }
            assert_eq!(memo_tables(engine), [live_id, dead_id], "{wiring}");
            assert_eq!(plane_entries(engine).tables, [live_id, dead_id], "{wiring}");
            drop(dead);
            // Nothing is swept yet: the outcomes wait for the signal.
            assert_eq!(engine.results.len(), 14, "{wiring}");
            engine.store().num_namespaces();
            assert_eq!(memo_tables(engine), [live_id], "{wiring}");
            assert_eq!(engine.results.len(), kinds.len(), "{wiring}");
            // The dead table's planes leave the interning map with them.
            let held = plane_entries(engine);
            assert_eq!(held.tables, [live_id], "{wiring}");
            assert_eq!(
                held.planes, held.live,
                "{wiring}: the sweep kept a dead plane"
            );
            // The live table's outcomes still hit, as the same allocation.
            let hits = engine.stats().result_hits;
            for ((kind, request), first) in kinds.iter().zip(&first) {
                let again = engine.submit(&live, request).unwrap();
                assert!(Arc::ptr_eq(first, &again), "{wiring}: {kind} re-ran");
            }
            assert_eq!(engine.stats().result_hits, hits + kinds.len() as u64);
            assert_eq!(engine.result_memo_stats().evictions, 0, "{wiring}");
        });
    }

    #[test]
    fn a_superseded_states_outcomes_leave_the_memo() {
        with_each_wiring("push", DEFAULT_RESULT_MEMO_CAPACITY, |wiring, engine| {
            let mut ds = small_prosper(33);
            let old = ds.table.id().as_u64();
            engine.submit(&ds, &intel_query().with_seed(1)).unwrap();
            let row = ds.table.row(0);
            ds.table.push_row(row).unwrap();
            engine.submit(&ds, &intel_query().with_seed(1)).unwrap();
            let new = ds.table.id().as_u64();
            assert_eq!(memo_tables(engine), [old, new], "{wiring}");
            engine.store().num_namespaces();
            assert_eq!(memo_tables(engine), [new], "{wiring}");
        });
    }

    #[test]
    fn churned_tables_leave_only_live_outcomes() {
        // Four threads each churn short-lived tables beside one live
        // table; the sweeps their borrows trigger race their inserts.
        with_each_wiring("churn", DEFAULT_RESULT_MEMO_CAPACITY, |wiring, engine| {
            let live = Dataset::generate(
                DatasetSpec {
                    rows: 1_000,
                    ..PROSPER
                },
                40,
            );
            let spec = QuerySpec::paper_default();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let live = &live;
                    scope.spawn(move || {
                        for i in 0..6u64 {
                            let brief = Dataset::generate(
                                DatasetSpec {
                                    rows: 500,
                                    ..PROSPER
                                },
                                100 + t * 10 + i,
                            );
                            engine.submit(&brief, &naive(spec, i)).unwrap();
                            engine.submit(live, &naive(spec, t * 10 + i)).unwrap();
                        }
                    });
                }
            });
            engine.store().num_namespaces();
            assert_eq!(memo_tables(engine), [live.table.id().as_u64()], "{wiring}");
            assert_eq!(engine.results.len(), 24, "{wiring}");
            let hits = engine.stats().result_hits;
            for t in 0..4u64 {
                for i in 0..6u64 {
                    engine.submit(&live, &naive(spec, t * 10 + i)).unwrap();
                }
            }
            assert_eq!(engine.stats().result_hits, hits + 24, "{wiring}");
        });
    }

    #[test]
    fn equal_answers_over_a_decided_table_share_one_plane() {
        with_each_wiring("shared", DEFAULT_RESULT_MEMO_CAPACITY, |wiring, engine| {
            let ds = small_prosper(34);
            let kinds = http_kinds();
            // The expression scan evaluates every row: its answer is the
            // decided positives, and so is every §4 request's after it.
            let (_, scan) = kinds.iter().find(|(kind, _)| *kind == "expr").unwrap();
            let decided = engine.submit(&ds, scan).unwrap();
            let family = [
                "optimal",
                "intel_sample",
                "intel_sample auto",
                "adaptive",
                "iterative",
            ];
            for seed in [3, 4] {
                for (kind, request) in kinds.iter().filter(|(kind, _)| family.contains(kind)) {
                    let out = engine
                        .submit(&ds, &request.clone().with_seed(seed))
                        .unwrap();
                    assert_eq!(out.counts.evaluated, 0, "{wiring}: {kind}");
                    assert!(
                        Arc::ptr_eq(&out.returned, &decided.returned),
                        "{wiring}: {kind}, seed {seed}: a private copy of the decided answer"
                    );
                }
            }
            let held = plane_entries(engine);
            assert_eq!(held.tables, [ds.table.id().as_u64()], "{wiring}");
            assert_eq!((held.planes, held.live), (1, 1), "{wiring}");
        });
    }

    /// Passes the rows `≡ phase (mod 4)`: the four phases' answers share
    /// a popcount over any table of a multiple of 4 rows, not a word.
    struct Stripe(u64);

    impl expred_udf::BooleanUdf for Stripe {
        fn evaluate(&self, _: &expred_table::Table, row: usize) -> bool {
            row as u64 % 4 == self.0
        }

        fn fingerprint(&self) -> Option<expred_udf::UdfId> {
            Some(expred_udf::UdfId::from_parts("stripe", &[self.0]))
        }
    }

    #[test]
    fn equal_popcounts_with_different_words_stay_distinct() {
        with_each_wiring(
            "distinct",
            DEFAULT_RESULT_MEMO_CAPACITY,
            |wiring, engine| {
                let ds = small_prosper(35);
                let rows = ds.table.num_rows();
                let scan = |phase: u64| {
                    let expr = expred_udf::Pred::udf(Stripe(phase));
                    QueryRequest::expr_scan(expr, expred_udf::CostModel::PAPER_DEFAULT)
                };
                let mut first: Vec<Arc<RowSet>> = Vec::new();
                for seed in 0..2 {
                    for phase in 0..4 {
                        let out = engine.submit(&ds, &scan(phase).with_seed(seed)).unwrap();
                        let ids = (phase as u32..rows as u32).step_by(4);
                        let reference = RowSet::from_ids(rows, ids);
                        assert_eq!(out.returned.len(), rows / 4, "{wiring}");
                        assert_eq!(out.returned.words(), reference.words(), "{wiring}: {phase}");
                        match first.get(phase as usize) {
                            Some(plane) => assert!(Arc::ptr_eq(plane, &out.returned), "{wiring}"),
                            None => first.push(Arc::clone(&out.returned)),
                        }
                    }
                }
                for (i, a) in first.iter().enumerate() {
                    assert!(first[..i].iter().all(|b| !Arc::ptr_eq(a, b)), "{wiring}");
                }
                let held = plane_entries(engine);
                assert_eq!(held.tables, [ds.table.id().as_u64()], "{wiring}");
                assert_eq!((held.keys, held.planes, held.live), (1, 4, 4), "{wiring}");
            },
        );
    }

    #[test]
    fn churned_tables_keep_the_interning_map_near_its_live_planes() {
        // The shape of `churned_tables_leave_only_live_outcomes`, under a
        // memo small enough that the live table's outcomes evict each
        // other: their planes die in the map, and only the sweeps clear
        // them.
        with_each_wiring("plane-churn", 16, |wiring, engine| {
            let live = Dataset::generate(
                DatasetSpec {
                    rows: 1_000,
                    ..PROSPER
                },
                41,
            );
            let spec = QuerySpec::paper_default();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let live = &live;
                    scope.spawn(move || {
                        for i in 0..6u64 {
                            let brief = Dataset::generate(
                                DatasetSpec {
                                    rows: 500,
                                    ..PROSPER
                                },
                                200 + t * 10 + i,
                            );
                            engine.submit(&brief, &naive(spec, i)).unwrap();
                            engine.submit(live, &naive(spec, t * 10 + i)).unwrap();
                        }
                    });
                }
            });
            engine.store().num_namespaces();
            let held = plane_entries(engine);
            assert_eq!(held.tables, [live.table.id().as_u64()], "{wiring}");
            assert_eq!(
                held.planes, held.live,
                "{wiring}: the sweep kept a dead plane"
            );
            // Past the last death, only the doubling sweep clears what
            // the memo evicts.
            for seed in 100..140 {
                engine.submit(&live, &naive(spec, seed)).unwrap();
                let held = plane_entries(engine);
                assert!(held.planes <= 2 * held.live, "{wiring}: {held:?}");
            }
            assert!(engine.result_memo_stats().evictions > 0, "{wiring}");
        });
    }

    /// `request`'s [`ResultKey::hash64`] over table id 7, and the FNV-1a
    /// digest of its identity stream.
    fn key_and_digest(request: &QueryRequest) -> (u64, u64) {
        let key = ResultKey::new(7, request);
        (key.hash64(), fnv1a(&key.strategy))
    }

    /// One request per kind whose memo key is pinned: the eight rows of
    /// `crates/serve/tests/alloc_budget.rs` (as the serving tier parses
    /// them), then `not udf_label`, a virtual predictor and the 422 probe
    /// of `crates/serve/tests/serving.rs` (`corr` unknown).
    fn pinned_requests() -> [(&'static str, QueryRequest); 11] {
        use crate::optimize::CorrelationModel;
        use crate::sampling::SampleSizeRule;
        use expred_udf::{parse_predicate, CostModel, OracleRegistry};
        let spec = QuerySpec::paper_default();
        let intel = |spec, sampling, predictor, rounds| {
            QueryRequest::intel_sample(IntelSampleConfig {
                spec,
                sampling,
                corr: CorrelationModel::Independent,
                predictor,
                rounds: std::num::NonZeroUsize::new(rounds).unwrap(),
            })
        };
        let rule = Sampling::Rule(SampleSizeRule::Fraction(0.05));
        let grade = || PredictorChoice::Fixed("grade".into());
        let expr = |text: &str| {
            let expr = parse_predicate(text, &OracleRegistry::new()).unwrap();
            QueryRequest::expr_scan(expr, CostModel::PAPER_DEFAULT)
        };
        let strict = QuerySpec::new(0.999, 0.999, 0.999, spec.cost);
        [
            ("naive", QueryRequest::naive(spec).with_seed(2)),
            ("optimal", QueryRequest::optimal(spec, "grade").with_seed(2)),
            (
                "adaptive",
                intel(spec, Sampling::Search, grade(), 1).with_seed(2),
            ),
            ("iterative", intel(spec, rule, grade(), 2).with_seed(2)),
            ("intel_sample", intel(spec, rule, grade(), 1).with_seed(2)),
            (
                "intel_sample auto",
                intel(
                    spec,
                    rule,
                    PredictorChoice::Auto {
                        label_fraction: 0.01,
                    },
                    1,
                )
                .with_seed(2),
            ),
            ("expr", expr("udf_label").with_seed(2)),
            ("memo hit", intel(spec, rule, grade(), 1).with_seed(1)),
            ("expr not", expr("not udf_label").with_seed(2)),
            (
                "intel_sample virtual",
                intel(
                    spec,
                    rule,
                    PredictorChoice::Virtual {
                        buckets: 10,
                        label_fraction: 0.01,
                    },
                    1,
                )
                .with_seed(2),
            ),
            (
                "intel_sample corr unknown",
                QueryRequest::intel_sample(IntelSampleConfig {
                    spec: strict,
                    sampling: rule,
                    corr: CorrelationModel::Unknown,
                    predictor: grade(),
                    rounds: std::num::NonZeroUsize::MIN,
                }),
            ),
        ]
    }

    #[test]
    fn memo_keys_are_pinned() {
        // (kind, ResultKey::hash64 over table id 7, FNV-1a of the identity
        // stream), harvested at the commit before the strategy set closed.
        // The result memo stripes and evicts by this hash.
        const PINS: [(&str, u64, u64); 11] = [
            ("naive", 0xda60f7e4d72f3539, 0x668a3440c5dc3d1d),
            ("optimal", 0x4ff5d7c555d414eb, 0xd185a02faaafedd4),
            ("adaptive", 0x4d15903c9e4cbd68, 0x253aa57e22bd51d0),
            ("iterative", 0xeb28232e65b96c36, 0x0d6ba99c34cd55d3),
            ("intel_sample", 0xb516f71f1f1ac59c, 0xcd2fcf94ab5b3877),
            ("intel_sample auto", 0x3b21f3f8c18b401a, 0x45654e2120d80b9a),
            ("expr", 0x553a26648a98a3d9, 0x1a4f60a3f6fbedd1),
            ("memo hit", 0x67765a5ea6359387, 0xcd2fcf94ab5b3877),
            ("expr not", 0x90d3dd834a53b0b3, 0x3f06ecac43d6bcaf),
            (
                "intel_sample virtual",
                0x97d99ba9a9442436,
                0x643508d5aee1846d,
            ),
            (
                "intel_sample corr unknown",
                0x352229a84f7fe8f7,
                0x89767344ebc6c71f,
            ),
        ];
        let got: Vec<(&str, u64, u64)> = pinned_requests()
            .iter()
            .map(|(kind, request)| {
                let (hash, digest) = key_and_digest(request);
                (*kind, hash, digest)
            })
            .collect();
        assert_eq!(got, PINS);
    }
}
