//! Property tests for the engine's sharded result memo.
//!
//! The two invariants a correct result memo owes the engine, checked
//! against a reference model under arbitrary operation sequences:
//!
//! * **Collision safety** — `get` never returns a value whose stored
//!   identity differs from the queried one; whatever it does return is
//!   exactly the last value inserted under that hash (eviction may
//!   forget, it may never corrupt).
//! * **Capacity** — the live entry count never exceeds the configured
//!   bound at any point in the sequence, including under gets that mark
//!   CLOCK referenced bits.

use expred_core::result_memo::ResultMemo;
use proptest::prelude::*;
use std::collections::HashMap;

/// One scripted operation: `kind` selects insert/get/wrong-get,
/// `hash` the (deliberately small, collision-prone) key space, `ident`
/// the identity inserted or probed.
fn ops() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..10, 0u64..40, 0u64..5), 1..250)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memo_is_collision_safe_and_model_consistent(script in ops()) {
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(16);
        // hash -> (identity, value) of the last insert.
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
        for (i, &(kind, hash, ident)) in script.iter().enumerate() {
            match kind {
                // Insert: value encodes (hash, ident) so a cross-served
                // value is detectable.
                0..=4 => {
                    let value = hash * 1_000 + ident;
                    memo.insert(hash, ident, value);
                    model.insert(hash, (ident, value));
                }
                // Probe with an identity that was never inserted: must
                // always miss, even when the hash is occupied.
                5..=6 => {
                    prop_assert_eq!(
                        memo.get(hash, &(ident + 1_000)),
                        None,
                        "op {}: served a foreign identity", i
                    );
                }
                // Probe with a plausible identity: a hit must agree with
                // the model's last insert for that hash, identity and all.
                _ => {
                    if let Some(value) = memo.get(hash, &ident) {
                        prop_assert_eq!(
                            model.get(&hash),
                            Some(&(ident, value)),
                            "op {}: hit disagrees with the reference model", i
                        );
                    }
                }
            }
            prop_assert!(memo.len() <= memo.capacity());
        }
        let stats = memo.stats();
        prop_assert_eq!(
            stats.hits + stats.misses + stats.collision_rejects,
            script.iter().filter(|&&(k, _, _)| k >= 5).count() as u64
        );
    }

    #[test]
    fn memo_never_exceeds_any_capacity(
        capacity in 0usize..40,
        script in prop::collection::vec((0u64..200, 0u64..3), 1..300),
    ) {
        let memo: ResultMemo<u64, u64> = ResultMemo::with_capacity(capacity);
        prop_assert!(memo.capacity() <= capacity);
        for &(hash, ident) in &script {
            memo.insert(hash, ident, hash ^ ident);
            // Interleave gets so CLOCK referenced bits influence eviction.
            memo.get(hash.wrapping_mul(7) % 200, &ident);
            prop_assert!(
                memo.len() <= memo.capacity(),
                "len {} exceeded capacity {}", memo.len(), memo.capacity()
            );
        }
        if capacity == 0 {
            prop_assert!(memo.is_empty(), "capacity 0 must disable the memo");
        }
    }
}
