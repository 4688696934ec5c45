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
//! table with a fresh id, so neither tier's keys match it again. The
//! old state's row namespaces are freed once no clone of it is left, as
//! a dropped table's are; its memoized results age out of the memo.
//!
//! # Concurrency: one engine, many worker threads
//!
//! [`QueryEngine::submit`] takes `&self` and the engine is `Send + Sync`:
//! one long-lived engine — one executor, one [`CacheStore`], one result
//! memo — serves any number of worker threads directly, no outer mutex.
//! Every shared structure is internally synchronized:
//!
//! * the result memo is a lock-striped, capacity-bounded
//!   [`crate::result_memo::ShardedResultMemo`] whose lookups verify the
//!   *full* request identity, so a hash collision (or a racing writer)
//!   can never serve one query's answer as another's;
//! * [`EngineStats`] is kept in atomic counters; [`QueryEngine::stats`]
//!   returns a consistent snapshot (see the type's docs);
//! * the session bill is an atomic [`CostTracker`], so charges from
//!   interleaved queries each land exactly once.
//!
//! **Answer stability.** Cached row answers are always *correct* — the
//! row tier is keyed by `(udf, table id)` and a UDF is deterministic per
//! row of one table state — so pipelines whose demand stream
//! is independent of cache state (e.g. [`crate::strategy::Naive`]) return
//! byte-identical answers no matter how queries interleave. Pipelines
//! that *branch* on session-known rows (sampling counts them toward its
//! target) remain correct under concurrency but may legitimately pick
//! different sample sets depending on what earlier/overlapping queries
//! already paid for, exactly as they already did across serial session
//! orderings.
//!
//! **Racing duplicates (cold-race suppression).** Two threads submitting
//! the identical fresh request used to both execute it; now the first
//! becomes the *leader* and registers the request in a small in-flight
//! waiter table (keyed by the result-memo hash, identity-verified), and
//! every later identical arrival parks on its condvar and shares the
//! leader's outcome — the session is billed exactly once, reported as
//! [`EngineStats::dedup_joins`]. The memo read path stays lock-free; the
//! waiter table is touched only after a memo miss, and a leader that
//! panics wakes its followers, who then execute for themselves. Requests
//! that merely *collide* on the 64-bit hash are never deduplicated (the
//! stored identity is compared), they just run side by side.
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
use crate::result_memo::{ResultMemoStats, ShardedResultMemo};
use crate::strategy::StrategyIdentity;
use expred_exec::{CacheStats, CacheStore, ExecContext, Executor, Sequential, SpillSink};
use expred_persist::{PersistConfig, PersistError, PersistStore};
use expred_stats::counters::{CounterSet, Section};
use expred_stats::hash::Fnv64;
use expred_table::datasets::Dataset;
use expred_table::{DerivedCacheStats, DerivedCounters};
use expred_udf::{CostCounts, CostTracker};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default bound on memoized whole-query outcomes. An entry holds its
/// answer as a plane — table rows / 8 bytes (2.5 KB over 20 000 rows,
/// whatever the answer's size) plus a few hundred bytes of identity and
/// bill — so a full memo over 20 000-row tables is about 3 MB.
pub const DEFAULT_RESULT_MEMO_CAPACITY: usize = 1024;

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
        /// (cold-race suppression): the arrival parked until the leader
        /// finished and shared its outcome, charging the session nothing.
        dedup_joins,
    }
}

/// The full identity of one memoized request. Stored alongside the
/// outcome and compared on every hit, so a 64-bit hash collision can
/// never serve one query's answers as another's. Strategy identity is
/// the full [`StrategyIdentity`] byte stream, so open (out-of-crate)
/// strategies get the same collision-proof verification as built-ins.
#[derive(Debug, Clone, PartialEq)]
struct ResultKey {
    table: u64,
    seed: u64,
    strategy: StrategyIdentity,
}

impl ResultKey {
    /// The 64-bit memo/waiter-table key for this identity.
    fn hash64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.table);
        h.write_u64(self.seed);
        h.write_u64(self.strategy.digest64());
        h.finish()
    }
}

/// Where one in-flight request stands, as seen by its followers.
#[derive(Debug)]
enum FlightState {
    /// The leader is still executing the pipeline.
    Running,
    /// The leader finished; followers share this outcome.
    Done(Arc<RunOutcome>),
    /// The leader unwound without an outcome; followers run themselves.
    Aborted,
}

/// One entry of the cold-race waiter table: the leader's registration
/// that identical arrivals park on.
#[derive(Debug)]
struct InFlight {
    /// Full request identity — a hash-colliding *different* request must
    /// never join this flight.
    identity: ResultKey,
    state: Mutex<FlightState>,
    finished: Condvar,
}

impl InFlight {
    fn new(identity: ResultKey) -> Self {
        Self {
            identity,
            state: Mutex::new(FlightState::Running),
            finished: Condvar::new(),
        }
    }

    /// Parks until the leader resolves the flight; `None` means the
    /// leader aborted and the caller should execute for itself.
    fn wait(&self) -> Option<Arc<RunOutcome>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*state {
                FlightState::Running => {
                    state = self.finished.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                FlightState::Done(outcome) => return Some(Arc::clone(outcome)),
                FlightState::Aborted => return None,
            }
        }
    }

    fn resolve(&self, resolution: FlightState) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, FlightState::Running) {
            *state = resolution;
        }
        drop(state);
        self.finished.notify_all();
    }
}

/// Unregisters a leader's flight when its `serve` frame ends — normally
/// *after* the outcome is published, but also on unwind, where it flips
/// the flight to `Aborted` so followers never park forever.
struct FlightGuard<'a> {
    waiters: &'a Mutex<HashMap<u64, Arc<InFlight>>>,
    key: u64,
    flight: Arc<InFlight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        {
            let mut waiters = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
            if let Entry::Occupied(entry) = waiters.entry(self.key) {
                if Arc::ptr_eq(entry.get(), &self.flight) {
                    entry.remove();
                }
            }
        }
        // No-op if the leader already resolved `Done`; on unwind this is
        // what releases the followers.
        self.flight.resolve(FlightState::Aborted);
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
    results: ShardedResultMemo<ResultKey, Arc<RunOutcome>>,
    udf_latency: Option<Duration>,
    stats: AtomicEngineStats,
    /// Cold-race waiter table: result-memo hash -> in-flight run.
    inflight: Mutex<HashMap<u64, Arc<InFlight>>>,
    /// Hits and misses of this session's table-memo lookups (group
    /// partitions, encoding dictionaries, label planes); the memo itself
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
        Self {
            executor,
            store: CacheStore::new(),
            session: CostTracker::new(),
            results: ShardedResultMemo::with_capacity(DEFAULT_RESULT_MEMO_CAPACITY),
            udf_latency: None,
            stats: AtomicEngineStats::default(),
            inflight: Mutex::new(HashMap::new()),
            derived: DerivedCounters::default(),
            persist: None,
        }
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
        let layer = Arc::new(PersistLayer::new(store));
        self.store
            .set_spill(Some(Arc::clone(&layer) as Arc<dyn SpillSink>));
        self.persist = Some(layer);
        Ok(self)
    }

    /// Bounds the query-tier result memo (0 disables it). The effective
    /// bound may round down slightly to divide evenly across stripes
    /// ([`ShardedResultMemo::with_capacity`]).
    pub fn with_result_capacity(mut self, capacity: usize) -> Self {
        self.results = ShardedResultMemo::with_capacity(capacity);
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
    /// The request's [`crate::strategy::Strategy`] is validated first
    /// (bad input surfaces as [`EngineError`] before any UDF money is
    /// spent and before the request is counted). An identical request —
    /// same dataset state, same strategy identity, same seed — returns
    /// the memoized [`RunOutcome`] itself — the same allocation, behind
    /// the same `Arc`; its `counts` describe the original run — and
    /// charges nothing new to the session. A fresh request runs
    /// the strategy against the shared row cache and folds its bill into
    /// [`QueryEngine::session_counts`]. Two threads racing on the
    /// identical fresh request execute it once: the first becomes the
    /// leader, the second parks on the in-flight waiter table and shares
    /// the leader's outcome ([`EngineStats::dedup_joins`]).
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
        let identity = ResultKey {
            table: ds.table.id().as_u64(),
            seed: req.seed(),
            strategy: StrategyIdentity::of(strategy),
        };
        let key = identity.hash64();
        let outcome = self.serve(ds, req, key, identity)?;
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
        key: u64,
        identity: ResultKey,
    ) -> Result<Arc<RunOutcome>, EngineError> {
        // The memo verifies the full identity: a colliding key is
        // treated as a miss, never served.
        if let Some(hit) = self.results.get(key, &identity) {
            self.stats.result_hits.fetch_add(1, Ordering::AcqRel);
            return Ok(hit);
        }
        // Cold-race suppression: register as leader, or join an
        // identity-verified identical in-flight run as a follower. A hash
        // collision with a *different* in-flight request runs solo —
        // duplicated work can only be saved, never substituted.
        let flight = {
            let mut waiters = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match waiters.entry(key) {
                Entry::Occupied(entry) if entry.get().identity == identity => {
                    Err(Some(Arc::clone(entry.get())))
                }
                Entry::Occupied(_) => Err(None),
                Entry::Vacant(slot) => {
                    let flight = Arc::new(InFlight::new(identity.clone()));
                    slot.insert(Arc::clone(&flight));
                    Ok(flight)
                }
            }
        };
        match flight {
            Ok(flight) => {
                // Leader. The guard unregisters the flight when this
                // frame ends — and aborts it if the pipeline unwinds (or
                // the strategy errors), so followers never park forever.
                let guard = FlightGuard {
                    waiters: &self.inflight,
                    key,
                    flight: Arc::clone(&flight),
                };
                // Re-probe the memo: our earlier miss may be stale (a
                // previous leader published and unregistered between our
                // probe and our registration), and re-running a memoized
                // request would waste the whole pipeline. A `peek`: this
                // request's lookup was counted by the probe above.
                if let Some(hit) = self.results.peek(key, &identity) {
                    self.stats.result_hits.fetch_add(1, Ordering::AcqRel);
                    flight.resolve(FlightState::Done(Arc::clone(&hit)));
                    drop(guard);
                    return Ok(hit);
                }
                let outcome = self.execute_fresh(ds, req, key, identity)?;
                // Publish to the memo first, then release followers,
                // then (via the guard) unregister: an arrival in any
                // window finds the answer somewhere.
                flight.resolve(FlightState::Done(Arc::clone(&outcome)));
                drop(guard);
                Ok(outcome)
            }
            Err(Some(flight)) => match flight.wait() {
                Some(outcome) => {
                    self.stats.dedup_joins.fetch_add(1, Ordering::AcqRel);
                    Ok(outcome)
                }
                // The leader aborted; pay full price ourselves.
                None => self.execute_fresh(ds, req, key, identity),
            },
            Err(None) => self.execute_fresh(ds, req, key, identity),
        }
    }

    /// Runs the strategy for one non-memoized request, folds its bill
    /// into the session, and publishes the outcome to the result memo.
    /// A strategy error is propagated without billing or memoizing.
    fn execute_fresh(
        &self,
        ds: &Dataset,
        req: &QueryRequest,
        key: u64,
        identity: ResultKey,
    ) -> Result<Arc<RunOutcome>, EngineError> {
        let outcome = {
            let ctx = self.context();
            Arc::new(req.strategy().execute(ds, req.seed(), &ctx)?)
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
    /// waits for it; an `Err` means no snapshot was written. The pages of
    /// tables no longer live then leave the store's RAM
    /// ([`PersistSessionStats::resident_pages`]). A no-op without
    /// persistence.
    pub fn compact_persistence(&self) -> Result<(), PersistError> {
        self.persist
            .as_ref()
            .map_or(Ok(()), |layer| layer.store().compact())
    }

    /// Pushes the session's durable state to disk and waits for it:
    /// re-offers every live row-tier entry (catching answers whose table
    /// was unregistered at insert time; already-persisted ones
    /// deduplicate to no-ops), compacts if any WAL row was ever shed (a
    /// shed row lives only in the store's in-memory index — re-offers
    /// dedup against the index without re-enqueuing, so only a snapshot
    /// of the index gets it to disk), and blocks until everything
    /// accepted so far is fsynced. The answers are the whole durable
    /// state: the pass rates the optimizer reads come back with them. A
    /// no-op without persistence.
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
    use crate::optimize::CorrelationModel;
    use crate::pipeline::{IntelSampleConfig, PredictorChoice};
    use crate::query::QuerySpec;
    use crate::sampling::SampleSizeRule;
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

    /// A strategy whose run announces itself and then waits to be let go,
    /// so a test can hold a leader in flight.
    struct Gated {
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl crate::strategy::Strategy for Gated {
        fn name(&self) -> &str {
            "gated"
        }
        fn fingerprint(&self, _fp: &mut crate::strategy::Fingerprint) {}
        fn execute(
            &self,
            ds: &Dataset,
            _seed: u64,
            _ctx: &ExecContext<'_>,
        ) -> Result<RunOutcome, EngineError> {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            let rows = ds.table.num_rows();
            Ok(RunOutcome::trivial(expred_table::RowSet::from_ids(
                rows,
                0..rows as u32,
            )))
        }
    }

    #[test]
    fn a_cold_race_follower_shares_the_leaders_allocation() {
        let ds = small_prosper(10);
        let engine = QueryEngine::new();
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let request = QueryRequest::new(Gated {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let (led, followed) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| engine.submit(&ds, &request).unwrap());
            entered.recv().unwrap();
            let follower = scope.spawn(|| engine.submit(&ds, &request).unwrap());
            // The leader's frame holds the flight twice and the waiter
            // table once; a fourth holder is the follower, which from
            // there can only park on it.
            loop {
                let waiters = engine.inflight.lock().unwrap();
                let flight = waiters.values().next().expect("the leader is in flight");
                if Arc::strong_count(flight) >= 4 {
                    break;
                }
                drop(waiters);
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            (leader.join().unwrap(), follower.join().unwrap())
        });
        assert!(Arc::ptr_eq(&led, &followed), "followers share, not copy");
        let stats = engine.stats();
        assert_eq!(
            (stats.queries, stats.dedup_joins, stats.result_hits),
            (2, 1, 0)
        );
        assert!(entered.try_recv().is_err(), "the strategy ran once");
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
        let queries = [
            intel_query(),
            QueryRequest::naive(spec),
            QueryRequest::optimal(spec, "grade"),
            QueryRequest::adaptive(spec, CorrelationModel::Independent, "grade"),
            QueryRequest::iterative(
                spec,
                CorrelationModel::Independent,
                "grade",
                SampleSizeRule::Fraction(0.05),
                2,
            ),
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
}
