//! The paper's cost model and the audited cost tracker.
//!
//! Every tuple *retrieved* costs `o_r` and every tuple *evaluated* (a UDF
//! invocation) costs `o_e`; discards are free (paper §2). The experiments
//! use `o_e = 3, o_r = 1` ("evaluating the UDF is a factor of three more
//! expensive than retrieving the tuple", §6.1).

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Per-action costs `(o_r, o_e)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost `o_r` of retrieving one tuple from storage.
    pub retrieve: f64,
    /// Cost `o_e` of one UDF evaluation.
    pub evaluate: f64,
}

impl CostModel {
    /// The paper's default experimental cost model: `o_r = 1, o_e = 3`.
    pub const PAPER_DEFAULT: CostModel = CostModel {
        retrieve: 1.0,
        evaluate: 3.0,
    };

    /// Creates a cost model; both costs must be nonnegative.
    pub fn new(retrieve: f64, evaluate: f64) -> Self {
        assert!(retrieve >= 0.0 && evaluate >= 0.0, "costs must be >= 0");
        Self { retrieve, evaluate }
    }

    /// Total cost for the given action counts.
    pub fn total(&self, retrieved: u64, evaluated: u64) -> f64 {
        self.retrieve * retrieved as f64 + self.evaluate * evaluated as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::PAPER_DEFAULT
    }
}

expred_stats::counter_set! {
    /// A snapshot of accumulated action counts.
    pub struct CostCounts, atomic struct AtomicCounts {
        /// Tuples retrieved from storage.
        retrieved,
        /// UDF evaluations actually performed (fresh external calls).
        evaluated,
        /// Evaluations answered from this query's own memo without
        /// invoking the UDF.
        cache_hits,
        /// Evaluations answered from the *cross-query* cache: rows some
        /// earlier query in the session already paid `o_e` for. Counted
        /// once per row and query (subsequent re-reads are `cache_hits`).
        reuse_hits,
        /// Extra wire attempts a remote backend made after a timeout or
        /// transport failure. A ledger, not a bill: a retried probe still
        /// charges `o_e` exactly once (under `evaluated`) — this counts
        /// the re-sends so fault-handling overhead is auditable.
        retries,
        /// Speculative duplicate requests a remote backend launched to cut
        /// tail latency (first answer wins). Like `retries`, a ledger
        /// only: a hedged probe bills `o_e` once no matter which copy
        /// answered.
        hedges,
    }
}

impl CostCounts {
    /// Total monetary/latency cost under `model`. Cache and reuse hits
    /// are free: a cached answer does not re-invoke the external service.
    pub fn cost(&self, model: &CostModel) -> f64 {
        model.total(self.retrieved, self.evaluated)
    }

    /// Evaluation *demand*: how many `o_e` charges a cache-less run of
    /// the same request stream would have paid. (Pipelines that *branch*
    /// on cached knowledge — e.g. sampling that counts session-known
    /// rows toward its target — reduce their stream itself, so their
    /// demand is not comparable across warm and cold runs.)
    pub fn demanded(&self) -> u64 {
        self.evaluated + self.cache_hits + self.reuse_hits
    }
}

impl fmt::Display for CostCounts {
    /// Breaks the bill out so the reuse win is visible at a glance:
    /// `retrieved 120 | fresh evals 75 | memo hits 30 | cross-query reuse 15`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retrieved {} | fresh evals {} | memo hits {} | cross-query reuse {}",
            self.retrieved, self.evaluated, self.cache_hits, self.reuse_hits
        )?;
        // Wire-level fault handling is worth a line only when it
        // happened; local backends keep the familiar four-part bill.
        if self.retries != 0 || self.hedges != 0 {
            write!(
                f,
                " | wire retries {} | hedges {}",
                self.retries, self.hedges
            )?;
        }
        Ok(())
    }
}

/// Thread-safe accumulator of retrieval/evaluation counts.
///
/// Cloning shares the underlying counters, so a tracker can be handed to
/// several pipeline stages and still report one total. Counters are
/// individual atomics rather than one mutex-guarded struct, so parallel
/// executor workers charging concurrently never serialize on a lock and
/// every increment lands exactly once; a [`CostTracker::snapshot`] taken
/// while workers are mid-batch may mix counters from slightly different
/// instants, but quiescent totals are exact.
#[derive(Debug, Clone, Default)]
pub struct CostTracker {
    counts: Arc<AtomicCounts>,
}

impl CostTracker {
    /// A fresh tracker with zero counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` tuple retrievals.
    pub fn add_retrievals(&self, n: u64) {
        self.counts.retrieved.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one UDF evaluation.
    pub fn add_evaluation(&self) {
        self.add_evaluations(1);
    }

    /// Records `n` UDF evaluations (one batch charge for a drained batch).
    pub fn add_evaluations(&self, n: u64) {
        self.counts.evaluated.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` memoized evaluations (no external call).
    pub fn add_cache_hits(&self, n: u64) {
        self.counts.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` evaluations answered from the cross-query cache.
    pub fn add_reuse_hits(&self, n: u64) {
        self.counts.reuse_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` wire-level retry attempts (ledger only — the retried
    /// probes' `o_e` is still charged exactly once via `add_evaluations`).
    pub fn add_retries(&self, n: u64) {
        self.counts.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` hedged (speculative duplicate) wire requests (ledger
    /// only — a hedged probe bills once no matter which copy answered).
    pub fn add_hedges(&self, n: u64) {
        self.counts.hedges.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counts.
    pub fn snapshot(&self) -> CostCounts {
        self.counts.snapshot()
    }

    /// Adds another snapshot's counts onto this tracker (session-level
    /// aggregation over per-query trackers).
    pub fn absorb(&self, counts: &CostCounts) {
        self.counts.absorb(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_costs() {
        let m = CostModel::default();
        assert_eq!(m.retrieve, 1.0);
        assert_eq!(m.evaluate, 3.0);
        assert_eq!(m.total(10, 5), 25.0);
    }

    #[test]
    fn tracker_accumulates() {
        let t = CostTracker::new();
        t.add_retrievals(4);
        t.add_evaluation();
        t.add_evaluation();
        t.add_cache_hits(1);
        let c = t.snapshot();
        assert_eq!(c.retrieved, 4);
        assert_eq!(c.evaluated, 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cost(&CostModel::PAPER_DEFAULT), 4.0 + 6.0);
    }

    #[test]
    fn clones_share_counters() {
        let t = CostTracker::new();
        let t2 = t.clone();
        t2.add_retrievals(3);
        assert_eq!(t.snapshot().retrieved, 3);
    }

    #[test]
    fn cache_hits_are_free() {
        let c = CostCounts {
            retrieved: 0,
            evaluated: 0,
            cache_hits: 100,
            reuse_hits: 40,
            ..CostCounts::default()
        };
        assert_eq!(c.cost(&CostModel::PAPER_DEFAULT), 0.0);
        assert_eq!(c.demanded(), 140);
    }

    #[test]
    fn display_breaks_out_the_bill() {
        let c = CostCounts {
            retrieved: 120,
            evaluated: 75,
            cache_hits: 30,
            reuse_hits: 15,
            ..CostCounts::default()
        };
        assert_eq!(
            c.to_string(),
            "retrieved 120 | fresh evals 75 | memo hits 30 | cross-query reuse 15"
        );
        let remote = CostCounts {
            retries: 4,
            hedges: 2,
            ..c
        };
        assert_eq!(
            remote.to_string(),
            "retrieved 120 | fresh evals 75 | memo hits 30 | cross-query reuse 15 \
             | wire retries 4 | hedges 2"
        );
    }

    #[test]
    fn absorb_aggregates_snapshots() {
        let session = CostTracker::new();
        let q1 = CostCounts {
            retrieved: 10,
            evaluated: 5,
            cache_hits: 2,
            reuse_hits: 0,
            retries: 3,
            hedges: 1,
        };
        let q2 = CostCounts {
            retrieved: 4,
            evaluated: 0,
            cache_hits: 1,
            reuse_hits: 5,
            retries: 0,
            hedges: 2,
        };
        session.absorb(&q1);
        session.absorb(&q2);
        let total = session.snapshot();
        assert_eq!(total.retrieved, 14);
        assert_eq!(total.evaluated, 5);
        assert_eq!(total.cache_hits, 3);
        assert_eq!(total.reuse_hits, 5);
        assert_eq!(total.retries, 3);
        assert_eq!(total.hedges, 3);
    }

    #[test]
    fn retries_and_hedges_are_a_ledger_not_a_bill() {
        let t = CostTracker::new();
        t.add_evaluations(10);
        t.add_retries(7);
        t.add_hedges(3);
        let c = t.snapshot();
        assert_eq!(c.retries, 7);
        assert_eq!(c.hedges, 3);
        // The bill only counts evaluations: re-sends are free.
        assert_eq!(c.cost(&CostModel::PAPER_DEFAULT), 30.0);
        assert_eq!(c.demanded(), 10);
    }

    #[test]
    fn fields_export_stable_names() {
        let c = CostCounts {
            retrieved: 1,
            evaluated: 2,
            cache_hits: 3,
            reuse_hits: 4,
            retries: 5,
            hedges: 6,
        };
        assert_eq!(
            expred_stats::counters::CounterSet::pairs(&c),
            vec![
                ("retrieved", 1),
                ("evaluated", 2),
                ("cache_hits", 3),
                ("reuse_hits", 4),
                ("retries", 5),
                ("hedges", 6),
            ]
        );
    }

    #[test]
    #[should_panic]
    fn negative_costs_rejected() {
        CostModel::new(-1.0, 1.0);
    }

    #[test]
    fn batch_charges_accumulate() {
        let t = CostTracker::new();
        t.add_evaluations(10);
        t.add_cache_hits(4);
        let c = t.snapshot();
        assert_eq!(c.evaluated, 10);
        assert_eq!(c.cache_hits, 4);
    }

    #[test]
    fn concurrent_charges_are_exact() {
        let t = CostTracker::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        t.add_retrievals(1);
                        t.add_evaluation();
                    }
                });
            }
        });
        let c = t.snapshot();
        assert_eq!(c.retrieved, 8_000);
        assert_eq!(c.evaluated, 8_000);
    }
}
