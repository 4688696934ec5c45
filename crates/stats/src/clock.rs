//! [`ClockCache`]: the workspace's one striped second-chance cache.
//!
//! The engine's whole-result memo needs three things at once: readers
//! and writers of different keys must not contend, the entry count must
//! stay under a hard bound, and a hot entry must survive a stream of cold
//! inserts. Its keys are caller-computed 64-bit hashes, so the cache is
//! keyed by `u64`. This is that mechanism:
//!
//! * **Lock striping** — keys spread over up to 64 `RwLock`
//!   stripes; a lookup takes one stripe's *read* lock.
//! * **Second chance (CLOCK)** — each entry carries an atomic referenced
//!   bit that a hit sets under the read lock; a full stripe's insert
//!   sweeps its ring, sparing referenced entries once (clearing the bit)
//!   and evicting the first unreferenced one.
//! * **Capacity** — the number of live entries never exceeds
//!   [`ClockCache::capacity`], under any interleaving of inserts and
//!   gets.
//! * **Last-writer-wins** — inserting under an occupied key replaces the
//!   occupant in place (its ring slot carries over), so two threads
//!   racing to cache the same key settle on one entry.
//!
//! A lookup hands the stored value to a *reader* closure under the read
//! lock and serves whatever the reader makes of it; a reader that returns
//! `None` refuses the entry. That is how a cache keyed by a hash stays
//! collision-safe: the reader compares the stored identity before it
//! clones anything (see `expred_core::result_memo`).

use crate::counter_set;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// Upper bound on the stripe count (the actual count is the largest power
/// of two that also keeps each stripe at [`MIN_SHARD_CAPACITY`] slots).
const MAX_SHARDS: usize = 64;

/// Floor on per-stripe slots. A stripe evicts on its *own* count, so
/// shallow stripes would start evicting long before a small cache is
/// full (and a single-slot stripe cannot grant a second chance at all);
/// small capacities take fewer, deeper stripes instead.
const MIN_SHARD_CAPACITY: usize = 16;

counter_set! {
    /// A snapshot of one [`ClockCache`]'s statistics.
    pub struct ClockCacheStats, atomic struct ClockCacheCounters {
        /// Lookups that served a value.
        hits,
        /// Lookups that found nothing under the key.
        misses,
        /// Lookups that found an entry whose reader refused it — under a
        /// hashed key, a *different* identity with the same hash. Always
        /// zero for a cache keyed by the identity itself.
        collision_rejects,
        /// Values written (including in-place replacements).
        insertions,
        /// Entries discarded by the capacity bound.
        evictions,
    }
}

/// One cached value and its CLOCK referenced bit (atomic so hits can mark
/// it under a shared read lock).
#[derive(Debug)]
struct Entry<V> {
    value: V,
    referenced: AtomicBool,
}

/// One lock stripe: entries plus the CLOCK ring over their keys.
#[derive(Debug)]
struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    ring: VecDeque<u64>,
}

/// A lock-striped, capacity-bounded second-chance cache. `Sync` whenever
/// `V` is `Send + Sync`; all methods take `&self`. See the
/// module docs for the invariants.
#[derive(Debug)]
pub struct ClockCache<V> {
    shards: Box<[RwLock<Shard<V>>]>,
    mask: u64,
    shard_capacity: usize,
    stats: ClockCacheCounters,
}

/// Largest power of two `<= x` (for `x >= 1`).
fn prev_power_of_two(x: usize) -> usize {
    debug_assert!(x >= 1);
    usize::MAX.wrapping_shr(x.leading_zeros()) / 2 + 1
}

impl<V> ClockCache<V> {
    /// A cache holding at most `capacity` entries in total. The effective
    /// bound ([`ClockCache::capacity`]) is rounded *down* so the sum of
    /// per-stripe budgets never exceeds the request; `capacity == 0`
    /// disables the cache entirely (every get misses, inserts are no-ops).
    pub fn with_capacity(capacity: usize) -> Self {
        let num_shards = if capacity == 0 {
            1
        } else {
            prev_power_of_two(MAX_SHARDS.min((capacity / MIN_SHARD_CAPACITY).max(1)))
        };
        let shard = || {
            RwLock::new(Shard {
                map: HashMap::new(),
                ring: VecDeque::new(),
            })
        };
        Self {
            shards: (0..num_shards).map(|_| shard()).collect(),
            mask: (num_shards - 1) as u64,
            shard_capacity: capacity / num_shards,
            stats: ClockCacheCounters::default(),
        }
    }

    /// The enforced total entry bound (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    fn shard(&self, key: u64) -> &RwLock<Shard<V>> {
        // Fibonacci spread: the key's bits may be weak at the low end.
        let spread = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(spread & self.mask) as usize]
    }

    /// What `read` makes of the value stored under `key`. A reader that
    /// returns `None` refuses the entry: the lookup is a miss, counted
    /// under [`ClockCacheStats::collision_rejects`]. Every call counts
    /// exactly one of hit, miss or collision reject. `read` runs under
    /// the stripe's read lock, so it should be cheap (compare, clone an
    /// `Arc`).
    pub fn get<R>(&self, key: u64, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let served = self.probe(key, read);
        let counter = match served {
            Some(Some(_)) => &self.stats.hits,
            Some(None) => &self.stats.collision_rejects,
            None => &self.stats.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        served.flatten()
    }

    /// [`ClockCache::get`] without the statistics: for a caller that
    /// already counted this lookup and is only looking again. A served
    /// entry is still marked referenced for the sweep.
    pub fn peek<R>(&self, key: u64, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        self.probe(key, read).flatten()
    }

    /// `None`: nothing under `key`. `Some(None)`: an entry the reader
    /// refused. `Some(Some(_))`: served, and marked referenced.
    fn probe<R>(&self, key: u64, read: impl FnOnce(&V) -> Option<R>) -> Option<Option<R>> {
        if self.shard_capacity == 0 {
            return None;
        }
        let guard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        let entry = guard.map.get(&key)?;
        let served = read(&entry.value);
        if served.is_some() {
            entry.referenced.store(true, Ordering::Relaxed);
        }
        Some(served)
    }

    /// Stores `value` under `key`, evicting under the capacity bound. An
    /// occupied key is replaced in place and keeps its ring slot.
    pub fn insert(&self, key: u64, value: V) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut guard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
            let shard = &mut *guard;
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.value = value;
                entry.referenced.store(true, Ordering::Relaxed);
            } else {
                // Second-chance sweep: referenced entries get one more
                // lap, unreferenced ones go. Terminates because every
                // pass-over clears a referenced bit.
                while shard.map.len() >= self.shard_capacity {
                    let Some(candidate) = shard.ring.pop_front() else {
                        break;
                    };
                    match shard.map.get(&candidate) {
                        Some(entry) if entry.referenced.load(Ordering::Relaxed) => {
                            entry.referenced.store(false, Ordering::Relaxed);
                            shard.ring.push_back(candidate);
                        }
                        Some(_) => {
                            shard.map.remove(&candidate);
                            evicted += 1;
                        }
                        None => {}
                    }
                }
                shard.ring.push_back(key);
                let referenced = AtomicBool::new(false);
                shard.map.insert(key, Entry { value, referenced });
            }
        }
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache-wide statistics since construction.
    pub fn stats(&self) -> ClockCacheStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prev_power_of_two_is_exact() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(10), 8);
        assert_eq!(prev_power_of_two(64), 64);
        assert_eq!(prev_power_of_two(100), 64);
    }
}
