//! [`ShardedResultMemo`]: the engine's concurrent whole-result memo.
//!
//! [`crate::engine::QueryEngine`] memoizes entire query outcomes keyed by
//! a 64-bit fingerprint of the request. The striping, the capacity bound
//! and the second-chance eviction are [`expred_stats::clock::ClockCache`]
//! (the one CLOCK cache in the workspace, keyed by that fingerprint);
//! what this wrapper adds is what a key that is a *hash* needs: the full
//! identity is stored beside the value and verified on every lookup, so
//! a 64-bit collision can never serve one query's answer as another's.
//!
//! The memo is generic over the identity (`K`) and value (`V`) types so
//! its invariants can be property-tested in isolation (see
//! `crates/core/tests/result_memo_props.rs`):
//!
//! * **Collision safety** — `get(h, id)` returns a value only if the
//!   stored identity equals `id` exactly; a colliding occupant is
//!   reported as a miss and counted in
//!   [`ResultMemoStats::collision_rejects`].
//! * **Capacity** and **last-writer-wins** — the cache's own: the live
//!   entry count never exceeds [`ShardedResultMemo::capacity`], and an
//!   insert under an occupied hash replaces the occupant in place.

use expred_stats::clock::{ClockCache, ClockCacheStats};

/// A snapshot of memo-wide statistics: the cache's own counter set.
pub type ResultMemoStats = ClockCacheStats;

/// A lock-striped, capacity-bounded, collision-verified memo of whole
/// values keyed by a caller-computed 64-bit hash.
///
/// `Sync` whenever `K` and `V` are `Send + Sync`; all methods take
/// `&self`. See the module docs for the invariants.
#[derive(Debug)]
pub struct ShardedResultMemo<K, V>(ClockCache<(K, V)>);

impl<K: PartialEq, V: Clone> ShardedResultMemo<K, V> {
    /// A memo holding at most `capacity` entries in total, rounded down
    /// as [`ClockCache::with_capacity`] rounds; `capacity == 0` disables
    /// the memo entirely (every get misses, inserts are no-ops).
    pub fn with_capacity(capacity: usize) -> Self {
        Self(ClockCache::with_capacity(capacity))
    }

    /// The enforced total entry bound (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// The reader both lookups hand the cache: serves a clone of the
    /// value only when the stored identity is `identity`.
    fn verified(identity: &K) -> impl FnOnce(&(K, V)) -> Option<V> + '_ {
        move |(stored, value)| (stored == identity).then(|| value.clone())
    }

    /// The value stored under `key`, provided its stored identity equals
    /// `identity` exactly. A colliding occupant is a miss (counted as a
    /// [`ResultMemoStats::collision_rejects`]), never served. Every call
    /// counts exactly one of hit, miss or collision reject. `V::clone`
    /// runs under the stripe's read lock, so `V` should be cheap to clone
    /// (the engine stores an `Arc`).
    pub fn get(&self, key: u64, identity: &K) -> Option<V> {
        self.0.get(key, Self::verified(identity))
    }

    /// [`ShardedResultMemo::get`] without the statistics: for a caller
    /// that already counted this request's lookup and is only looking
    /// again (the engine's leader re-probe). A found entry is still
    /// marked referenced for the CLOCK sweep.
    pub fn peek(&self, key: u64, identity: &K) -> Option<V> {
        self.0.peek(key, Self::verified(identity))
    }

    /// Stores `value` under `key`, evicting under the capacity bound. An
    /// occupied hash — same request memoized twice, or a genuine
    /// collision — is replaced in place and keeps its ring slot.
    pub fn insert(&self, key: u64, identity: K, value: V) {
        self.0.insert(key, (identity, value));
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drops every entry (statistics are preserved). Entries being
    /// inserted concurrently by in-flight callers may land after the
    /// clear; they are fresh values, not resurrections of cleared ones.
    pub fn clear(&self) {
        self.0.clear();
    }

    /// Memo-wide statistics since construction.
    pub fn stats(&self) -> ResultMemoStats {
        self.0.stats()
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
