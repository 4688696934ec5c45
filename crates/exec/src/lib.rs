//! `expred-exec` — the batched, pooled, cache-sharing evaluation runtime.
//!
//! The paper's premise is that UDF evaluation dominates query cost; this
//! crate makes sure the system spends that cost as the hardware allows
//! instead of one blocking call at a time. It is deliberately foundational
//! (no dependency on the table/UDF crates), so every layer above — the
//! audited invoker, the probabilistic executor, the pipelines — can route
//! probes through it:
//!
//! * [`executor`] — the [`Executor`] trait ([`Executor::evaluate_batch`])
//!   with the [`Sequential`] backend that preserves one-at-a-time
//!   behavior bit for bit;
//! * [`pool`] — the [`WorkerPool`] backend: persistent work-stealing
//!   workers with an atomic chunk cursor (no per-batch thread spawns, no
//!   straggler-bound chunking), a latency-aware inline fast path, and a
//!   width learned from the probes — blocking-RPC probes (remote UDF
//!   backends) overlap by connection-pool math, CPU-bound ones by core
//!   count, with no setting to say which;
//! * [`cache`] — [`RowBits`], the dense lock-free `row -> bool` bitmap
//!   each page of the session store keeps its answers in;
//! * [`store`] — [`CacheStore`], the long-lived,
//!   `(udf, table, version)`-namespaced bitmap cache that outlives
//!   individual queries and keeps every answer it is given; invokers
//!   borrow [`CacheHandle`]s from it, and the expression optimizer ranks
//!   `AND`/`OR` siblings by the pass rates its answers show
//!   ([`CacheStore::pass_rate`]);
//! * [`context`] — [`ExecContext`], the single execution parameter
//!   (backend + cache) threaded through every pipeline.
//!
//! # The `Executor` contract
//!
//! Implementations of [`Executor`] must uphold, and callers may rely on:
//!
//! 1. **Order**: `evaluate_batch(probe, rows)` returns exactly
//!    `rows.len()` answers, with `answers[i] = probe(rows[i])`.
//! 2. **Exactly once per slot**: the probe is invoked exactly once per
//!    batch slot (callers dedupe and memoize *before* batching, so the
//!    charged cost of a batch is precisely its length).
//! 3. **Determinism**: for a pure probe, the returned vector is a pure
//!    function of `rows` — scheduling, thread count, and backend choice
//!    must not leak into results. This is what makes [`WorkerPool`] produce
//!    byte-identical `RunOutcome`s to [`Sequential`].
//! 4. **Purity requirement on probes**: [`BatchProbe::probe`] must be
//!    deterministic per row and safe to call from any thread
//!    concurrently. Probes that randomize or keep interior mutable state
//!    must synchronize internally and stay row-deterministic.
//!
//! Backends may reorder, interleave, or parallelize the underlying calls
//! arbitrarily within a batch — the paper's cost model is indifferent to
//! *when* an evaluation happens, only to *how many* happen.

pub mod cache;
pub mod context;
pub mod executor;
pub mod pool;
pub mod store;

pub use cache::RowBits;
pub use context::ExecContext;
pub use executor::{BatchProbe, Executor, Sequential};
pub use pool::{PoolStats, WorkerPool};
pub use store::{
    CacheHandle, CacheNamespace, CacheReader, CacheStats, CacheStore, SpillSink, MAX_LIVE_VERSIONS,
};
