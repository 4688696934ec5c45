//! The [`Executor`] trait and the [`Sequential`] reference backend.

use std::sync::Arc;

/// One row-probe: the expensive call an executor fans out.
///
/// Must be deterministic per row and callable from any thread (see the
/// crate-level contract). Any `Fn(usize) -> bool + Sync` closure is a
/// probe.
pub trait BatchProbe: Sync {
    /// Evaluates the expensive predicate on one row.
    fn probe(&self, row: usize) -> bool;
}

impl<F: Fn(usize) -> bool + Sync> BatchProbe for F {
    fn probe(&self, row: usize) -> bool {
        self(row)
    }
}

/// A strategy for evaluating a batch of expensive probes.
///
/// See the crate-level documentation for the full contract (order
/// preservation, exactly-once, determinism).
pub trait Executor: Send + Sync {
    /// Evaluates `probe` on every row of `rows`, returning answers in
    /// input order (`answers[i]` belongs to `rows[i]`).
    fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool>;

    /// Short human-readable backend name for diagnostics.
    fn name(&self) -> &str {
        "executor"
    }
}

/// A shared backend is a backend: one long-lived executor (a
/// [`crate::WorkerPool`], typically) can serve every session of a
/// process.
impl<E: Executor + ?Sized> Executor for Arc<E> {
    fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        (**self).evaluate_batch(probe, rows)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The reference backend: probes one row at a time, in order, on the
/// calling thread. Exactly the behavior the paper's cost accounting was
/// originally audited against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Executor for Sequential {
    fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        rows.iter().map(|&row| probe.probe(row)).collect()
    }

    fn name(&self) -> &str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_preserves_order_and_calls_once() {
        let calls = AtomicUsize::new(0);
        let probe = |row: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            row.is_multiple_of(3)
        };
        let rows = [5usize, 6, 0, 7, 9];
        let answers = Sequential.evaluate_batch(&probe, &rows);
        assert_eq!(answers, vec![false, true, true, false, true]);
        assert_eq!(calls.load(Ordering::Relaxed), rows.len());
        assert_eq!(Sequential.name(), "sequential");
    }

    #[test]
    fn empty_batch_is_empty() {
        let probe = |_row: usize| true;
        assert!(Sequential.evaluate_batch(&probe, &[]).is_empty());
    }

    #[test]
    fn closures_are_probes() {
        let threshold = 3usize;
        let probe = move |row: usize| row < threshold;
        assert!(probe.probe(1));
        assert!(!probe.probe(4));
    }
}
