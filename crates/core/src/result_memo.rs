//! [`ResultMemo`]: the engine's concurrent whole-result memo.
//!
//! [`crate::engine::QueryEngine`] memoizes entire query outcomes keyed by
//! a 64-bit fingerprint of the request. The memo needs three things at
//! once: readers and writers of different keys must not contend, the
//! entry count must stay under a hard bound, and a hot entry must survive
//! a stream of cold inserts. Because its key is a *hash*, it also stores
//! the full identity beside the value and verifies it on every lookup.
//! The memo is generic over the identity (`K`) and value (`V`) types so
//! its invariants can be property-tested in isolation (see
//! `crates/core/tests/result_memo_props.rs`):
//!
//! * **Lock striping** — keys spread over up to 64 `RwLock` stripes; a
//!   lookup takes one stripe's *read* lock.
//! * **Collision safety** — `get(h, id)` returns a value only if the
//!   stored identity equals `id` exactly; a colliding occupant is
//!   reported as a miss and counted in
//!   [`ResultMemoStats::collision_rejects`].
//! * **Second chance (CLOCK)** — each entry carries an atomic referenced
//!   bit that a hit sets under the read lock; a full stripe's insert
//!   sweeps its ring, sparing referenced entries once (clearing the bit)
//!   and evicting the first unreferenced one.
//! * **Capacity** — the number of live entries never exceeds
//!   [`ResultMemo::capacity`], under any interleaving of inserts and
//!   gets.
//! * **Last-writer-wins** — inserting under an occupied hash replaces the
//!   occupant in place (its ring slot carries over), so two threads
//!   racing to memoize the same request settle on one entry.
//! * **Removal** — [`ResultMemo::retain`] drops the entries a caller
//!   no longer wants (the engine's: those of a dead table) together with
//!   their ring slots, so each stripe's ring holds exactly its map's
//!   keys and a memo that never fills does not grow its ring.

use expred_stats::counter_set;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// Upper bound on the stripe count (the actual count is the largest power
/// of two that also keeps each stripe at [`MIN_SHARD_CAPACITY`] slots).
const MAX_SHARDS: usize = 64;

/// Floor on per-stripe slots. A stripe evicts on its *own* count, so
/// shallow stripes would start evicting long before a small memo is
/// full (and a single-slot stripe cannot grant a second chance at all);
/// small capacities take fewer, deeper stripes instead.
const MIN_SHARD_CAPACITY: usize = 16;

counter_set! {
    /// A snapshot of memo-wide statistics.
    pub struct ResultMemoStats, atomic struct ResultMemoCounters {
        /// Lookups that served a value.
        hits,
        /// Lookups that found nothing under the key.
        misses,
        /// Lookups that found an entry under the key with a *different*
        /// identity (a hash collision), and refused it.
        collision_rejects,
        /// Values written (including in-place replacements).
        insertions,
        /// Entries discarded by the capacity bound.
        evictions,
    }
}

/// One memoized value, the identity it answers, and its CLOCK referenced
/// bit (atomic so hits can mark it under a shared read lock).
#[derive(Debug)]
struct Entry<K, V> {
    identity: K,
    value: V,
    referenced: AtomicBool,
}

/// One lock stripe: entries plus the CLOCK ring over their keys.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<u64, Entry<K, V>>,
    ring: VecDeque<u64>,
}

/// A lock-striped, capacity-bounded, collision-verified second-chance
/// memo of whole values keyed by a caller-computed 64-bit hash.
///
/// `Sync` whenever `K` and `V` are `Send + Sync`; all methods take
/// `&self`. See the module docs for the invariants.
#[derive(Debug)]
pub struct ResultMemo<K, V> {
    shards: Box<[RwLock<Shard<K, V>>]>,
    mask: u64,
    shard_capacity: usize,
    stats: ResultMemoCounters,
}

/// Largest power of two `<= x` (for `x >= 1`).
fn prev_power_of_two(x: usize) -> usize {
    debug_assert!(x >= 1);
    usize::MAX.wrapping_shr(x.leading_zeros()) / 2 + 1
}

impl<K: PartialEq, V: Clone> ResultMemo<K, V> {
    /// A memo holding at most `capacity` entries in total. The effective
    /// bound ([`ResultMemo::capacity`]) is rounded *down* so the sum of
    /// per-stripe budgets never exceeds the request; `capacity == 0`
    /// disables the memo entirely (every get misses, inserts are no-ops).
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
            stats: ResultMemoCounters::default(),
        }
    }

    /// The enforced total entry bound (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    fn shard(&self, key: u64) -> &RwLock<Shard<K, V>> {
        // Fibonacci spread: the key's bits may be weak at the low end.
        let spread = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(spread & self.mask) as usize]
    }

    /// The value stored under `key`, provided its stored identity equals
    /// `identity` exactly. A colliding occupant is a miss (counted as a
    /// [`ResultMemoStats::collision_rejects`]), never served. Every call
    /// counts exactly one of hit, miss or collision reject. `V::clone`
    /// runs under the stripe's read lock, so `V` should be cheap to clone
    /// (the engine stores an `Arc`).
    pub fn get(&self, key: u64, identity: &K) -> Option<V> {
        let served = self.probe(key, identity);
        let counter = match served {
            Some(Some(_)) => &self.stats.hits,
            Some(None) => &self.stats.collision_rejects,
            None => &self.stats.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        served.flatten()
    }

    /// [`ResultMemo::get`] without the statistics: for a caller that
    /// already counted this request's lookup and is only looking again
    /// (the engine's leader re-probe). A served entry is still marked
    /// referenced for the CLOCK sweep.
    pub fn peek(&self, key: u64, identity: &K) -> Option<V> {
        self.probe(key, identity).flatten()
    }

    /// `None`: nothing under `key`. `Some(None)`: an entry with another
    /// identity. `Some(Some(_))`: served, and marked referenced.
    fn probe(&self, key: u64, identity: &K) -> Option<Option<V>> {
        if self.shard_capacity == 0 {
            return None;
        }
        let guard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        let entry = guard.map.get(&key)?;
        if entry.identity != *identity {
            return Some(None);
        }
        entry.referenced.store(true, Ordering::Relaxed);
        Some(Some(entry.value.clone()))
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
                shard.ring.push_back(key);
                let referenced = AtomicBool::new(false);
                shard.map.insert(
                    key,
                    Entry {
                        identity,
                        value,
                        referenced,
                    },
                );
            }
        }
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Removes every entry whose identity `keep` rejects, with its ring
    /// slot, and returns how many went. Removal is not eviction: the
    /// statistics do not count it. Each stripe is visited once under its
    /// write lock; `keep` must not call back into the memo.
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut guard = shard.write().unwrap_or_else(|e| e.into_inner());
            let shard = &mut *guard;
            let before = shard.map.len();
            shard.map.retain(|_, entry| keep(&entry.identity));
            if shard.map.len() < before {
                removed += before - shard.map.len();
                shard.ring.retain(|key| shard.map.contains_key(key));
            }
        }
        removed
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

    /// Memo-wide statistics since construction.
    pub fn stats(&self) -> ResultMemoStats {
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

    #[test]
    fn round_trip_verifies_identity() {
        let memo: ResultMemo<&str, u32> = ResultMemo::with_capacity(16);
        memo.insert(7, "query-a", 1);
        assert_eq!(memo.get(7, &"query-a"), Some(1));
        // Same hash, different identity: a collision must be refused.
        assert_eq!(memo.get(7, &"query-b"), None);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.collision_rejects), (1, 0, 1));
    }

    #[test]
    fn peek_serves_without_counting() {
        let memo: ResultMemo<&str, u32> = ResultMemo::with_capacity(16);
        assert_eq!(memo.peek(7, &"a"), None);
        memo.insert(7, "a", 1);
        assert_eq!(memo.peek(7, &"a"), Some(1));
        assert_eq!(memo.peek(7, &"b"), None, "peek verifies identity too");
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.collision_rejects), (0, 0, 0));
    }

    #[test]
    fn colliding_insert_replaces_in_place() {
        let memo: ResultMemo<&str, u32> = ResultMemo::with_capacity(16);
        memo.insert(7, "a", 1);
        memo.insert(7, "b", 2);
        assert_eq!(memo.get(7, &"a"), None);
        assert_eq!(memo.get(7, &"b"), Some(2));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn capacity_zero_disables() {
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(0);
        assert_eq!(memo.capacity(), 0);
        memo.insert(1, 1, 1);
        assert_eq!(memo.get(1, &1), None);
        assert!(memo.is_empty());
    }

    #[test]
    fn len_never_exceeds_capacity() {
        for requested in [1usize, 3, 10, 64, 100, 1024] {
            let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(requested);
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
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(256);
        memo.insert(0, 0, 42);
        for cold in 1..2_000u64 {
            assert_eq!(memo.get(0, &0), Some(42), "hot entry evicted at {cold}");
            memo.insert(cold, cold, cold);
        }
        assert!(memo.stats().evictions > 0);
    }

    /// Asserts that every stripe's CLOCK ring holds exactly its map's
    /// keys, each once.
    fn assert_rings_match_maps<K, V>(memo: &ResultMemo<K, V>) {
        for shard in memo.shards.iter() {
            let shard = shard.read().unwrap();
            let mut ring: Vec<u64> = shard.ring.iter().copied().collect();
            let mut keys: Vec<u64> = shard.map.keys().copied().collect();
            ring.sort_unstable();
            keys.sort_unstable();
            assert_eq!(ring, keys, "a ring slot without its entry, or twice");
        }
    }

    #[test]
    fn retain_removes_entries_with_their_ring_slots() {
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(256);
        for k in 0..100u64 {
            memo.insert(k, k, k * 2);
        }
        assert_eq!(memo.retain(|k| k % 2 == 0), 50);
        assert_eq!(memo.len(), 50);
        assert_rings_match_maps(&memo);
        for k in 0..100u64 {
            let want = (k % 2 == 0).then_some(k * 2);
            assert_eq!(memo.get(k, &k), want, "key {k}");
        }
        let s = memo.stats();
        assert_eq!(
            (s.evictions, s.insertions),
            (0, 100),
            "removal is not eviction"
        );
        assert_eq!(memo.retain(|_| true), 0);
    }

    #[test]
    fn retain_keeps_identity_verification() {
        let memo: ResultMemo<&str, u32> = ResultMemo::with_capacity(16);
        memo.insert(7, "a", 1);
        memo.insert(8, "dead", 2);
        assert_eq!(memo.retain(|id| *id != "dead"), 1);
        assert_eq!(memo.get(7, &"b"), None, "a collision is still refused");
        assert_eq!(memo.get(7, &"a"), Some(1));
        assert_eq!(memo.get(8, &"dead"), None);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.collision_rejects), (1, 1, 1));
    }

    #[test]
    fn reinserting_a_removed_key_takes_one_ring_slot() {
        // Capacity 16 is one stripe, so its ring is the whole memo's.
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(16);
        for round in 0..1_000u64 {
            memo.insert(7, 7, round);
            memo.insert(round + 100, round + 100, round);
            memo.retain(|&k| k != 7 && k != round + 100);
        }
        memo.insert(7, 7, 1);
        assert_rings_match_maps(&memo);
        let ring_len: usize = memo
            .shards
            .iter()
            .map(|s| s.read().unwrap().ring.len())
            .sum();
        assert_eq!(ring_len, 1, "a memo that never fills keeps no dead slots");
        assert_eq!(memo.get(7, &7), Some(1));
    }

    #[test]
    fn retain_keeps_the_bound_and_the_second_chance() {
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(256);
        memo.insert(0, 0, 42);
        for cold in 1..4_000u64 {
            assert_eq!(memo.get(0, &0), Some(42), "hot entry evicted at {cold}");
            memo.insert(cold, cold, cold);
            if cold % 7 == 0 {
                // A table death among the cold keys: every third one goes.
                memo.retain(|&k| k == 0 || k % 3 != 0);
            }
            assert!(memo.len() <= memo.capacity());
        }
        assert!(memo.stats().evictions > 0, "the bound still binds");
        assert_rings_match_maps(&memo);
    }

    #[test]
    fn rings_match_maps_under_any_interleaving() {
        // A small xorshift drives insert / get / retain over a key space
        // wider than the bound, with hash collisions (identity = key + 1
        // under every 5th key's hash), checking the rings after each step.
        for capacity in [16usize, 40, 256] {
            let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(capacity);
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ capacity as u64;
            for _ in 0..4_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = state % (3 * capacity as u64);
                let identity = if key.is_multiple_of(5) { key + 1 } else { key };
                match (state >> 32) % 8 {
                    0 => {
                        let cut = (state >> 40) % 4;
                        memo.retain(|&id| id % 4 != cut);
                    }
                    1..=3 => {
                        if let Some(v) = memo.get(key, &identity) {
                            assert_eq!(v, identity * 3);
                        }
                    }
                    _ => memo.insert(key, identity, identity * 3),
                }
                assert!(memo.len() <= memo.capacity());
                assert_rings_match_maps(&memo);
            }
        }
    }

    #[test]
    fn concurrent_retain_stays_bounded_and_consistent() {
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let memo = &memo;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = (t * 2_000 + i) % 300;
                        memo.insert(k, k, k * 2);
                        if let Some(v) = memo.get(k, &k) {
                            assert_eq!(v, k * 2);
                        }
                        if i % 50 == t {
                            memo.retain(|&id| id % 4 != t);
                        }
                    }
                });
            }
        });
        assert!(memo.len() <= memo.capacity());
        assert_rings_match_maps(&memo);
    }

    #[test]
    fn concurrent_access_stays_bounded_and_verified() {
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(64);
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
