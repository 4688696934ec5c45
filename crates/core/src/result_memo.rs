//! [`ShardedResultMemo`]: the engine's concurrent whole-result memo.
//!
//! [`crate::engine::QueryEngine`] memoizes entire query outcomes keyed by
//! a 64-bit fingerprint of the request. Serving that memo from many
//! threads at once needs the same treatment the row tier got in
//! `expred_exec::CacheStore`: lock striping so readers and writers of
//! different requests never contend, a hard capacity bound enforced by
//! second-chance (CLOCK) eviction, and — because the key is a *hash* —
//! full-identity verification on every lookup so a 64-bit collision can
//! never serve one query's answer as another's.
//!
//! The memo is generic over the identity (`K`) and value (`V`) types so
//! its invariants can be property-tested in isolation (see
//! `crates/core/tests/result_memo_props.rs`):
//!
//! * **Collision safety** — `get(h, id)` returns a value only if the
//!   stored identity equals `id` exactly; a colliding occupant is
//!   reported as a miss and counted in
//!   [`ResultMemoStats::collision_rejects`].
//! * **Capacity** — the number of live entries never exceeds
//!   [`ShardedResultMemo::capacity`], under any interleaving of inserts,
//!   gets, and clears.
//! * **Last-writer-wins** — inserting under an occupied hash replaces the
//!   occupant in place (its ring slot carries over), so two threads
//!   racing to memoize the same request settle on one entry.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

/// Upper bound on the stripe count (actual count is the largest power of
/// two that also keeps each stripe at [`MIN_SHARD_CAPACITY`] slots).
const MAX_SHARDS: usize = 64;

/// Floor on per-stripe slots: a single-slot stripe cannot grant a CLOCK
/// second chance (evicting always lands on the one occupant), so small
/// capacities take fewer, deeper stripes instead of 64 useless ones.
const MIN_SHARD_CAPACITY: usize = 4;

/// A snapshot of memo-wide statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultMemoStats {
    /// Lookups that returned a verified value.
    pub hits: u64,
    /// Lookups that found nothing under the hash.
    pub misses: u64,
    /// Lookups that found a *different* identity under the hash and
    /// refused to serve it.
    pub collision_rejects: u64,
    /// Values written (including in-place replacements).
    pub insertions: u64,
    /// Entries discarded by the capacity bound.
    pub evictions: u64,
}

impl ResultMemoStats {
    /// The snapshot as named counters, in stable declaration order — the
    /// serialization-ready view the serving `/metrics` endpoint consumes
    /// (render with [`expred_stats::json::counters_to_json`] /
    /// [`expred_stats::json::counters_to_text`]).
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("collision_rejects", self.collision_rejects),
            ("insertions", self.insertions),
            ("evictions", self.evictions),
        ]
    }
}

#[derive(Debug, Default)]
struct AtomicMemoStats {
    hits: AtomicU64,
    misses: AtomicU64,
    collision_rejects: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// One memoized value, its full identity, and its CLOCK referenced bit
/// (atomic so hits can mark it under a shared read lock).
#[derive(Debug)]
struct Entry<K, V> {
    identity: K,
    value: V,
    referenced: AtomicBool,
}

/// One lock-striped shard: entries plus the CLOCK ring over their hashes.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<u64, Entry<K, V>>,
    ring: VecDeque<u64>,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            ring: VecDeque::new(),
        }
    }
}

/// A lock-striped, capacity-bounded, collision-verified memo of whole
/// values keyed by a caller-computed 64-bit hash.
///
/// `Sync` whenever `K` and `V` are `Send + Sync`; all methods take
/// `&self`. See the module docs for the invariants.
#[derive(Debug)]
pub struct ShardedResultMemo<K, V> {
    shards: Box<[RwLock<Shard<K, V>>]>,
    mask: u64,
    shard_capacity: usize,
    stats: AtomicMemoStats,
}

/// Largest power of two `<= x` (for `x >= 1`).
fn prev_power_of_two(x: usize) -> usize {
    debug_assert!(x >= 1);
    usize::MAX.wrapping_shr(x.leading_zeros()) / 2 + 1
}

impl<K: PartialEq, V: Clone> ShardedResultMemo<K, V> {
    /// A memo holding at most `capacity` entries in total. The effective
    /// bound ([`ShardedResultMemo::capacity`]) is rounded *down* so the
    /// sum of per-shard budgets never exceeds the request; `capacity == 0`
    /// disables the memo entirely (every get misses, inserts are no-ops).
    pub fn with_capacity(capacity: usize) -> Self {
        let num_shards = if capacity == 0 {
            1
        } else {
            prev_power_of_two(MAX_SHARDS.min((capacity / MIN_SHARD_CAPACITY).max(1)))
        };
        let shards: Vec<RwLock<Shard<K, V>>> = (0..num_shards).map(|_| RwLock::default()).collect();
        Self {
            shards: shards.into_boxed_slice(),
            mask: (num_shards - 1) as u64,
            shard_capacity: capacity / num_shards,
            stats: AtomicMemoStats::default(),
        }
    }

    /// The enforced total entry bound (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    fn shard(&self, key: u64) -> &RwLock<Shard<K, V>> {
        // Fibonacci spread: the caller's hash may be weak in its low bits.
        let spread = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(spread & self.mask) as usize]
    }

    /// The value stored under `key`, provided its stored identity equals
    /// `identity` exactly. A colliding occupant is a miss (counted as a
    /// [`ResultMemoStats::collision_rejects`]), never served. Every call
    /// counts exactly one of hit, miss or collision reject.
    pub fn get(&self, key: u64, identity: &K) -> Option<V> {
        let (value, counter) = self.probe(key, identity);
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// [`ShardedResultMemo::get`] without the statistics: for a caller
    /// that already counted this request's lookup and is only looking
    /// again (the engine's leader re-probe). A found entry is still
    /// marked referenced for the CLOCK sweep.
    pub fn peek(&self, key: u64, identity: &K) -> Option<V> {
        self.probe(key, identity).0
    }

    /// The verified value under `key`, and the counter that lookup
    /// outcome belongs to. `V::clone` runs under the shard's read lock,
    /// so `V` should be cheap to clone (the engine stores an `Arc`).
    fn probe(&self, key: u64, identity: &K) -> (Option<V>, &AtomicU64) {
        if self.shard_capacity == 0 {
            return (None, &self.stats.misses);
        }
        let guard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        match guard.map.get(&key) {
            Some(entry) if entry.identity == *identity => {
                entry.referenced.store(true, Ordering::Relaxed);
                (Some(entry.value.clone()), &self.stats.hits)
            }
            Some(_) => (None, &self.stats.collision_rejects),
            None => (None, &self.stats.misses),
        }
    }

    /// Stores `value` under `key`, evicting under the capacity bound. An
    /// occupied hash — same request memoized twice, or a genuine
    /// collision — is replaced in place and keeps its ring slot.
    pub fn insert(&self, key: u64, identity: K, value: V) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut guard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
            let shard = &mut *guard;
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.identity = identity;
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
                shard.map.insert(
                    key,
                    Entry {
                        identity,
                        value,
                        referenced: AtomicBool::new(false),
                    },
                );
                shard.ring.push_back(key);
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

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (statistics are preserved). Entries being
    /// inserted concurrently by in-flight callers may land after the
    /// clear; they are fresh values, not resurrections of cleared ones.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut guard = shard.write().unwrap_or_else(|e| e.into_inner());
            guard.map.clear();
            guard.ring.clear();
        }
    }

    /// Memo-wide statistics since construction.
    pub fn stats(&self) -> ResultMemoStats {
        ResultMemoStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            collision_rejects: self.stats.collision_rejects.load(Ordering::Relaxed),
            insertions: self.stats.insertions.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_verifies_identity() {
        let memo: ShardedResultMemo<&str, u32> = ShardedResultMemo::with_capacity(16);
        memo.insert(7, "query-a", 1);
        assert_eq!(memo.get(7, &"query-a"), Some(1));
        // Same hash, different identity: a collision must be refused.
        assert_eq!(memo.get(7, &"query-b"), None);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.collision_rejects), (1, 0, 1));
    }

    #[test]
    fn peek_serves_without_counting() {
        let memo: ShardedResultMemo<&str, u32> = ShardedResultMemo::with_capacity(16);
        assert_eq!(memo.peek(7, &"a"), None);
        memo.insert(7, "a", 1);
        assert_eq!(memo.peek(7, &"a"), Some(1));
        assert_eq!(memo.peek(7, &"b"), None, "peek verifies identity too");
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.collision_rejects), (0, 0, 0));
    }

    #[test]
    fn colliding_insert_replaces_in_place() {
        let memo: ShardedResultMemo<&str, u32> = ShardedResultMemo::with_capacity(16);
        memo.insert(7, "a", 1);
        memo.insert(7, "b", 2);
        assert_eq!(memo.get(7, &"a"), None);
        assert_eq!(memo.get(7, &"b"), Some(2));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn capacity_zero_disables() {
        let memo: ShardedResultMemo<u64, u64> = ShardedResultMemo::with_capacity(0);
        assert_eq!(memo.capacity(), 0);
        memo.insert(1, 1, 1);
        assert_eq!(memo.get(1, &1), None);
        assert!(memo.is_empty());
    }

    #[test]
    fn len_never_exceeds_capacity() {
        for requested in [1usize, 3, 10, 64, 100, 1024] {
            let memo: ShardedResultMemo<u64, u64> = ShardedResultMemo::with_capacity(requested);
            assert!(memo.capacity() <= requested);
            assert!(memo.capacity() >= 1);
            for k in 0..2_000u64 {
                memo.insert(k, k, k);
                assert!(memo.len() <= memo.capacity());
            }
        }
    }

    #[test]
    fn second_chance_protects_hot_entries() {
        // >1 entry per stripe: a single-slot shard has no lap to grant.
        let memo: ShardedResultMemo<u64, u64> = ShardedResultMemo::with_capacity(256);
        memo.insert(0, 0, 42);
        for cold in 1..2_000u64 {
            assert_eq!(memo.get(0, &0), Some(42), "hot entry evicted at {cold}");
            memo.insert(cold, cold, cold);
        }
        assert!(memo.stats().evictions > 0);
    }

    #[test]
    fn clear_empties_and_keeps_stats() {
        let memo: ShardedResultMemo<u64, u64> = ShardedResultMemo::with_capacity(8);
        memo.insert(1, 1, 1);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.stats().insertions, 1);
        assert_eq!(memo.get(1, &1), None);
    }

    #[test]
    fn prev_power_of_two_is_exact() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(10), 8);
        assert_eq!(prev_power_of_two(64), 64);
        assert_eq!(prev_power_of_two(100), 64);
    }

    #[test]
    fn concurrent_access_stays_bounded_and_verified() {
        let memo: ShardedResultMemo<u64, u64> = ShardedResultMemo::with_capacity(64);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let memo = &memo;
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        let k = (t * 1_000 + i) % 300;
                        memo.insert(k, k, k * 2);
                        if let Some(v) = memo.get(k, &k) {
                            assert_eq!(v, k * 2);
                        }
                        assert_eq!(memo.get(k, &(k + 1_000_000)), None);
                    }
                });
            }
        });
        assert!(memo.len() <= memo.capacity());
    }
}
