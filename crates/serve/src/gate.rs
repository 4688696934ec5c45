//! Admission control: a bounded in-flight gate that sheds load instead
//! of queueing it.
//!
//! Every `/query` must acquire a slot *before* any engine work happens.
//! When all slots are taken the request is refused immediately — the
//! caller turns that into `429 Too Many Requests` with a `Retry-After`
//! hint — so a saturated server keeps answering in constant time rather
//! than building an unbounded backlog. Shed requests provably never
//! touch an engine: the acquire happens before tenant routing, table
//! materialization, or [`expred_core::QueryEngine::submit`], which the
//! saturation tests pin down via exact bill conservation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A counting gate over at most `capacity` concurrent holders.
///
/// Lock-free: acquire is a CAS loop on the in-flight count, release is a
/// single decrement (via [`GatePass`]'s `Drop`).
pub struct AdmissionGate {
    capacity: usize,
    in_flight: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl AdmissionGate {
    /// A gate admitting at most `capacity` holders at once (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            in_flight: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Tries to take a slot. `None` means the request must be shed —
    /// the gate never blocks and never queues.
    pub fn try_acquire(&self) -> Option<GatePass<'_>> {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.capacity {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return Some(GatePass { gate: self });
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Like [`Self::try_acquire`], but the pass owns an `Arc` to the
    /// gate instead of borrowing it — for holders that outlive the
    /// acquiring stack frame, like a connection thread releasing its
    /// slot whenever the socket finally closes.
    pub(crate) fn try_acquire_owned(self: &Arc<Self>) -> Option<OwnedGatePass> {
        let pass = self.try_acquire()?;
        std::mem::forget(pass); // the owned pass takes over the release
        Some(OwnedGatePass {
            gate: Arc::clone(self),
        })
    }

    /// A `Retry-After` hint (seconds) derived from current load: an
    /// idle gate says "1", a gate at capacity says up to ~5, and a
    /// small deterministic jitter keyed on the shed counter de-phases
    /// clients that were all refused in the same burst (so they do not
    /// all come back in the same second and get shed again).
    pub(crate) fn retry_after_hint(&self) -> u64 {
        let capacity = self.capacity.max(1) as u64;
        let load = (self.in_flight() as u64).min(capacity);
        let base = 1 + (3 * load) / capacity; // 1 (idle) ..= 4 (full)
        let jitter = self.shed.load(Ordering::Relaxed) % 2; // 0 or 1
        base + jitter
    }

    /// The configured slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many holders are in flight right now.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Total acquisitions granted.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Total acquisitions refused.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// An RAII slot in the gate; dropping it releases the slot (also on
/// panic, which is what keeps a crashed handler from leaking capacity).
pub struct GatePass<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for GatePass<'_> {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// An owned slot in an `Arc`-shared gate — same semantics as
/// [`GatePass`], but movable across threads and lifetimes.
pub(crate) struct OwnedGatePass {
    gate: Arc<AdmissionGate>,
}

impl Drop for OwnedGatePass {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_past_capacity_and_recovers() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_acquire().expect("slot 1");
        let b = gate.try_acquire().expect("slot 2");
        assert!(gate.try_acquire().is_none(), "third holder is shed");
        assert_eq!(gate.in_flight(), 2);
        assert_eq!((gate.admitted(), gate.shed()), (2, 1));
        drop(a);
        let c = gate.try_acquire().expect("freed slot is reusable");
        drop(b);
        drop(c);
        assert_eq!(gate.in_flight(), 0);
        assert_eq!((gate.admitted(), gate.shed()), (3, 1));
    }

    #[test]
    fn panic_in_holder_releases_slot() {
        let gate = AdmissionGate::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _pass = gate.try_acquire().expect("slot");
            panic!("handler crashed");
        }));
        assert!(result.is_err());
        assert_eq!(gate.in_flight(), 0, "slot returned by Drop during unwind");
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let gate = AdmissionGate::new(0);
        assert_eq!(gate.capacity(), 1);
        let _pass = gate.try_acquire().expect("one slot exists");
        assert!(gate.try_acquire().is_none());
    }

    #[test]
    fn owned_passes_share_the_same_budget_and_release_on_drop() {
        let gate = Arc::new(AdmissionGate::new(2));
        let owned = gate.try_acquire_owned().expect("slot 1");
        let _borrowed = gate.try_acquire().expect("slot 2");
        assert!(gate.try_acquire_owned().is_none(), "budget is shared");
        // An owned pass survives a move to another thread.
        let moved = std::thread::spawn(move || drop(owned)).join();
        assert!(moved.is_ok());
        assert_eq!(gate.in_flight(), 1, "owned drop released its slot");
    }

    #[test]
    fn retry_after_scales_with_load_and_jitters_deterministically() {
        let gate = AdmissionGate::new(4);
        assert_eq!(gate.retry_after_hint(), 1, "idle gate: minimum hint");
        let passes: Vec<_> = (0..4).map(|_| gate.try_acquire().unwrap()).collect();
        assert_eq!(gate.retry_after_hint(), 4, "full gate: maximum base");
        assert!(gate.try_acquire().is_none()); // shed becomes odd
        assert_eq!(gate.retry_after_hint(), 5, "odd shed count adds jitter");
        assert!(gate.try_acquire().is_none()); // shed becomes even
        assert_eq!(gate.retry_after_hint(), 4, "even shed count: no jitter");
        drop(passes);
        assert!(gate.retry_after_hint() <= 2, "drained gate relaxes");
    }

    #[test]
    fn concurrent_holders_never_exceed_capacity() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let gate = Arc::new(AdmissionGate::new(3));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (gate, peak, live) = (gate.clone(), peak.clone(), live.clone());
                std::thread::spawn(move || {
                    let mut held = 0u64;
                    for _ in 0..500 {
                        if let Some(_pass) = gate.try_acquire() {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            live.fetch_sub(1, Ordering::SeqCst);
                            held += 1;
                        }
                    }
                    held
                })
            })
            .collect();
        let total_held: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(peak.load(Ordering::SeqCst) <= 3, "capacity respected");
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.admitted(), total_held);
        assert_eq!(gate.admitted() + gate.shed(), 8 * 500);
    }
}
