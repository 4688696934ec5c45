//! [`ExecContext`]: the one execution parameter every pipeline takes.
//!
//! The context bundles every runtime capability a pipeline can use:
//! which [`Executor`] evaluates batches and which [`CacheStore`] (if
//! any) outlives the query. One-shot callers run on
//! [`ExecContext::sequential`]: one-at-a-time, cache-less — the
//! reference every backend and session tier must match bit for bit.

use crate::executor::{Executor, Sequential};
use crate::store::CacheStore;
use expred_table::DerivedCounters;
use std::time::Duration;

/// The sequential backend as a `'static` borrow for default contexts.
static SEQUENTIAL: Sequential = Sequential;

/// How a query executes: backend and cross-query cache.
///
/// `Copy` and cheap — pipelines pass it by reference, helpers may copy it
/// to narrow lifetimes. Constructed either standalone (one-shot queries)
/// or by a session engine that owns the executor and store.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// The backend UDF batches run through.
    pub executor: &'a dyn Executor,
    /// The cross-query cache, if this query runs inside a session.
    pub cache: Option<&'a CacheStore>,
    /// Artificial per-evaluation latency pipelines should add to their
    /// UDFs — `None` for the real (instantaneous oracle) predicate.
    /// Benchmarks and load tests use this to serve a genuinely expensive
    /// workload through the full session stack; answers and audited
    /// counts are unaffected (latency is not part of any cache identity).
    pub udf_latency: Option<Duration>,
    /// The session's hit/miss counters for the table memo (group
    /// partitions, encoding dictionaries, label planes), if this query
    /// runs inside a session. Pipelines read derived data through the
    /// memo either way; only whether it is counted differs.
    pub derived: Option<&'a DerivedCounters>,
}

impl<'a> ExecContext<'a> {
    /// A context running on `executor`, cache-less.
    pub fn new(executor: &'a dyn Executor) -> Self {
        Self {
            executor,
            cache: None,
            udf_latency: None,
            derived: None,
        }
    }

    /// The reference behavior: sequential, cache-less.
    pub fn sequential() -> ExecContext<'static> {
        ExecContext::new(&SEQUENTIAL)
    }

    /// Attaches a cross-query cache store.
    pub fn with_cache(mut self, store: &'a CacheStore) -> Self {
        self.cache = Some(store);
        self
    }

    /// Asks pipelines to add `latency` to every fresh UDF evaluation
    /// (a zero duration means no delay).
    pub fn with_udf_latency(mut self, latency: Duration) -> Self {
        self.udf_latency = (!latency.is_zero()).then_some(latency);
        self
    }

    /// Counts the table-memo lookups pipelines make on `counters`.
    pub fn with_derived_counters(mut self, counters: &'a DerivedCounters) -> Self {
        self.derived = Some(counters);
        self
    }
}

impl std::fmt::Debug for ExecContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("executor", &self.executor.name())
            .field("cached", &self.cache.is_some())
            .field("derived", &self.derived.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_context_is_cacheless_and_default_budgeted() {
        let ctx = ExecContext::sequential();
        assert_eq!(ctx.executor.name(), "sequential");
        assert!(ctx.cache.is_none());
    }

    #[test]
    fn builders_compose() {
        let store = CacheStore::new();
        let derived = DerivedCounters::default();
        let ctx = ExecContext::new(&Sequential)
            .with_cache(&store)
            .with_derived_counters(&derived);
        assert!(ctx.cache.is_some());
        assert!(ctx.derived.is_some());
        assert!(ExecContext::sequential().derived.is_none());
        let copy = ctx; // Copy must hold: contexts are passed around freely.
        assert!(copy.cache.is_some());
        assert!(format!("{ctx:?}").contains("sequential"));
    }
}
