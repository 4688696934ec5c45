//! Counter sets: one declaration per set of named `u64` counters, one
//! walk per export.
//!
//! Every layer that counts — the engine, its caches, the WAL, the remote
//! client, the bill — declares its counters once with [`counter_set!`]:
//! the list of documented names generates the `Copy` snapshot struct, its
//! private atomic twin, the snapshot load and the name/value visit the
//! exports read. Adding a counter is one line in that list (plus the
//! `fetch_add` that bumps it); `/metrics` and `/metrics.json` pick it up
//! through [`CounterSet`], with no edit anywhere else.
//!
//! [`counter_set!`]: crate::counter_set

/// A set of named `u64` counters in a stable order — what `/metrics`,
/// `/metrics.json` and the bench artifacts serialize. Snapshots declared
/// with [`counter_set!`](crate::counter_set) implement it; computed
/// gauges (a tenant's table count, a gate's in-flight level) are an array
/// of pairs.
pub trait CounterSet {
    /// Calls `visit(name, value)` once per counter, in declaration order.
    fn visit(&self, visit: &mut dyn FnMut(&'static str, u64));

    /// The counters as `(name, value)` pairs, in declaration order.
    fn pairs(&self) -> Vec<(&'static str, u64)> {
        let mut pairs = Vec::new();
        self.visit(&mut |name, value| pairs.push((name, value)));
        pairs
    }
}

/// Computed gauges with no snapshot type of their own: the pairs are the
/// set.
impl<const N: usize> CounterSet for [(&'static str, u64); N] {
    fn visit(&self, visit: &mut dyn FnMut(&'static str, u64)) {
        for &(name, value) in self {
            visit(name, value);
        }
    }
}

/// Where one [`CounterSet`] lands in the two metrics exports. A layer
/// names each of its sections once, with both spellings, and hands them
/// to whoever renders (`QueryEngine::counter_sections` is the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// The JSON object key the counters sit under; empty when they sit
    /// inline in the enclosing object.
    pub key: &'static str,
    /// The text export's line prefix: `prefix_counter{labels} value`.
    pub prefix: &'static str,
}

impl Section {
    /// The section under JSON key `key` (empty: inline) and text prefix
    /// `prefix`.
    pub const fn new(key: &'static str, prefix: &'static str) -> Self {
        Self { key, prefix }
    }
}

/// Declares one counter set: a public `Copy` snapshot struct of named
/// `u64` fields and the atomic twin that counts them.
///
/// ```
/// expred_stats::counter_set! {
///     /// What a cache did.
///     pub struct LookupStats, atomic struct LookupCounters {
///         /// Lookups issued.
///         lookups,
///         /// Lookups served (bumped after its `lookups` increment).
///         hits,
///     }
/// }
/// use expred_stats::counters::CounterSet;
/// use std::sync::atomic::Ordering;
///
/// let live = LookupCounters::default();
/// live.lookups.fetch_add(1, Ordering::Relaxed);
/// let snapshot: LookupStats = live.snapshot();
/// assert_eq!(snapshot.pairs(), [("lookups", 1), ("hits", 0)]);
/// ```
///
/// The snapshot derives `Debug + Clone + Copy + Default + PartialEq + Eq`
/// and implements [`CounterSet`](crate::counters::CounterSet), visiting
/// in declaration order. The twin's fields are `AtomicU64`s of the same
/// names, bumped directly by the code that counts (each site keeps its
/// own memory ordering), and it carries:
///
/// * `snapshot()` — loads every counter with `Acquire`, **in reverse
///   declaration order**. So when a later-declared counter is always
///   bumped *after* an earlier one (with `Release` or stronger, as
///   `EngineStats` does), no snapshot shows the later one ahead: any
///   increment of it that the snapshot saw happened after an increment of
///   the earlier counter, which the later load then sees too. For
///   counters bumped with `Relaxed` it is simply a load.
/// * `absorb(&snapshot)` — adds a snapshot's values on (`Relaxed`).
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Snapshot:ident, atomic $twin_vis:vis struct $Atomic:ident {
            $( $(#[$doc:meta])* $counter:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $Snapshot {
            $( $(#[$doc])* pub $counter: u64, )+
        }

        impl $crate::counters::CounterSet for $Snapshot {
            fn visit(&self, visit: &mut dyn FnMut(&'static str, u64)) {
                $( visit(stringify!($counter), self.$counter); )+
            }
        }

        #[doc = concat!("The live atomics behind [`", stringify!($Snapshot), "`] snapshots.")]
        #[derive(Debug, Default)]
        $twin_vis struct $Atomic {
            $( $twin_vis $counter: ::std::sync::atomic::AtomicU64, )+
        }

        #[allow(dead_code)]
        impl $Atomic {
            /// The current values, loaded in reverse declaration order
            /// (see [`counter_set!`]($crate::counter_set)).
            $twin_vis fn snapshot(&self) -> $Snapshot {
                $crate::counter_set!(@load self, [$($counter)+] []);
                $Snapshot { $($counter),+ }
            }

            /// Adds `delta`'s values onto the live counters.
            $twin_vis fn absorb(&self, delta: &$Snapshot) {
                $( self.$counter.fetch_add(delta.$counter, ::std::sync::atomic::Ordering::Relaxed); )+
            }
        }
    };
    // Reverses the counter list, then loads it front to back.
    (@load $twin:ident, [$head:ident $($tail:ident)*] [$($reversed:ident)*]) => {
        $crate::counter_set!(@load $twin, [$($tail)*] [$head $($reversed)*]);
    };
    (@load $twin:ident, [] [$($reversed:ident)*]) => {
        $( let $reversed = $twin.$reversed.load(::std::sync::atomic::Ordering::Acquire); )*
    };
}

#[cfg(test)]
mod tests {
    use super::CounterSet;
    use std::sync::atomic::Ordering;

    counter_set! {
        /// A set whose `served` is only ever bumped after `asked`.
        struct Traffic, atomic struct TrafficCounters {
            /// Requests that arrived.
            asked,
            /// Requests answered.
            served,
            /// Requests refused.
            refused,
        }
    }

    #[test]
    fn visit_order_is_declaration_order() {
        let snapshot = Traffic {
            asked: 3,
            served: 2,
            refused: 1,
        };
        assert_eq!(
            snapshot.pairs(),
            [("asked", 3), ("served", 2), ("refused", 1)]
        );
        let set: &dyn CounterSet = &snapshot;
        let mut names = Vec::new();
        set.visit(&mut |name, _| names.push(name));
        assert_eq!(names, ["asked", "served", "refused"]);
    }

    #[test]
    fn snapshot_never_shows_a_later_counter_ahead_of_the_one_it_follows() {
        let live = TrafficCounters::default();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50_000 {
                        live.asked.fetch_add(1, Ordering::AcqRel);
                        live.served.fetch_add(1, Ordering::AcqRel);
                    }
                });
            }
            // Snapshots race the writers for as long as they run.
            let mut seen = Traffic::default();
            while seen.served < 100_000 {
                seen = live.snapshot();
                assert!(seen.served <= seen.asked, "{seen:?}");
            }
        });
        assert_eq!(
            (live.snapshot().asked, live.snapshot().served),
            (100_000, 100_000)
        );
    }

    #[test]
    fn absorb_adds_onto_the_live_counters() {
        let live = TrafficCounters::default();
        live.refused.fetch_add(4, Ordering::Relaxed);
        let delta = Traffic {
            asked: 10,
            served: 7,
            refused: 3,
        };
        live.absorb(&delta);
        live.absorb(&delta);
        assert_eq!(
            live.snapshot(),
            Traffic {
                asked: 20,
                served: 14,
                refused: 10
            }
        );
    }
}
