//! Model-based tests for the bitmap-backed [`CacheStore`].
//!
//! A plain `HashMap<usize, bool>` is the reference. Arbitrary sequences
//! of `get` / `get_many` / `insert` / `prefill` / "the table dies" over
//! keys that sit on every layout boundary — word edges (63, 64), page
//! edges (4095, 4096), a table's last row, and a sparse key far beyond
//! any table (`1 << 40`) — must:
//!
//! * answer exactly like the map, count exactly the map's hits, misses
//!   and insertions, and offer the spill sink exactly the row each
//!   `insert` wrote (while `prefill` offers nothing);
//! * once the table's owner dies, drop its namespace at the next sweep,
//!   offering the sink nothing and naming the table dropped once;
//! * land a batch of pages (`insert_pages`) exactly as the per-row loop
//!   over its rows, ascending, would: contents, `len`, statistics and
//!   the rows the sink was offered — across page edges and over rows
//!   already cached.
//!
//! The sink hears pages; these properties compare the rows on them as
//! sets, since a batch is one offer however many rows it carries.

use expred_exec::{CacheNamespace, CacheStore, SpillSink};
use expred_stats::bits::{pages_of, rows_of, PagePlanes};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

const NUM_ROWS: usize = 20_000;

/// Every layout boundary, plus a few ordinary neighbours.
const KEYS: [usize; 14] = [
    0,
    1,
    62,
    63,
    64,
    65,
    4_095,
    4_096,
    4_097,
    8_191,
    8_192,
    NUM_ROWS - 1,
    1 << 40,
    (1 << 40) + 64,
];

const NS: CacheNamespace = CacheNamespace { udf: 7, table: 3 };

/// One step of a run: an operation code, a key selector, and a value.
type Op = (u8, usize, bool);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..10, 0usize..KEYS.len(), any::<bool>()), 1..120)
}

/// Records the rows of every offer, one list per offer, and every table
/// named dropped.
#[derive(Debug, Default)]
struct RecordingSink(Mutex<Vec<Vec<(usize, bool)>>>, Mutex<Vec<u64>>);

impl SpillSink for RecordingSink {
    fn spill(&self, namespace: CacheNamespace, pages: &[(usize, PagePlanes)]) {
        assert_eq!(namespace, NS);
        assert!(!pages.is_empty(), "an empty offer");
        assert!(
            pages.windows(2).all(|w| w[0].0 < w[1].0),
            "pages out of order"
        );
        assert!(pages.iter().all(|(_, planes)| !planes.is_empty()));
        self.0.lock().unwrap().push(rows_of(pages).collect());
    }

    fn table_dropped(&self, table: u64) {
        self.1.lock().unwrap().push(table);
    }
}

impl RecordingSink {
    fn offers(&self) -> Vec<Vec<(usize, bool)>> {
        self.0.lock().unwrap().clone()
    }

    fn dropped(&self) -> Vec<u64> {
        self.1.lock().unwrap().clone()
    }

    /// Every row offered so far.
    fn rows(&self) -> BTreeSet<usize> {
        let offers = self.0.lock().unwrap();
        offers.iter().flatten().map(|&(row, _)| row).collect()
    }
}

/// The live entries of `NS`, ascending.
fn live_entries(store: &CacheStore) -> Vec<(usize, bool)> {
    let mut live = Vec::new();
    store.for_each_namespace(|namespace, pages| {
        assert_eq!(namespace, NS);
        live.extend(rows_of(pages));
    });
    live
}

/// What the reference run tallies, to hold against [`CacheStore::stats`].
#[derive(Debug, Default, PartialEq)]
struct Tally {
    hits: u64,
    misses: u64,
    insertions: u64,
}

/// Drives `store` and the reference map through `ops`, checking that
/// the store answers like the map, that each insert offers `sink` exactly
/// its own row, that a prefill offers nothing, and that a dead table's
/// rows are not offered again. Returns the tally and the rows offered.
fn drive(
    store: &CacheStore,
    sink: &RecordingSink,
    ops: &[Op],
) -> Result<(Tally, BTreeSet<usize>), TestCaseError> {
    let mut model: HashMap<usize, bool> = HashMap::new();
    let mut tally = Tally::default();
    let mut offered = BTreeSet::new();
    // The table `NS` speaks for; it dies and is rebuilt by the last op.
    let mut owner = Arc::new(());
    let lookup = |tally: &mut Tally, model: &HashMap<usize, bool>, key, got: Option<bool>| {
        match got {
            Some(answer) => {
                tally.hits += 1;
                prop_assert_eq!(Some(&answer), model.get(&key), "wrong answer for {}", key);
            }
            None => {
                tally.misses += 1;
                prop_assert!(!model.contains_key(&key), "lost key {}", key);
            }
        }
        Ok(())
    };
    for &(op, selector, value) in ops {
        let key = KEYS[selector];
        // Re-borrowed per step: a sweep orphans older handles.
        let handle = store.handle(NS, &owner);
        match op {
            0..=2 => lookup(&mut tally, &model, key, handle.get(key))?,
            3 => {
                let keys: Vec<usize> = (0..4).map(|i| KEYS[(selector + 5 * i) % 14]).collect();
                let got = handle.get_many(&keys);
                prop_assert_eq!(got.len(), keys.len());
                for (&key, got) in keys.iter().zip(got) {
                    lookup(&mut tally, &model, key, got)?;
                }
            }
            4..=6 => {
                let heard = sink.offers().len();
                handle.insert(key, value);
                let offers = sink.offers();
                prop_assert_eq!(offers.len(), heard + 1, "one offer per insert");
                prop_assert_eq!(&offers[heard], &vec![(key, value)]);
                model.insert(key, value);
                offered.insert(key);
                tally.insertions += 1;
            }
            7..=8 => {
                let rows = [(key, value), (KEYS[(selector + 3) % 14], !value)];
                let heard = sink.offers().len();
                let pages = pages_of(rows);
                prop_assert_eq!(store.prefill(NS, &owner, &pages), 2);
                prop_assert_eq!(sink.offers().len(), heard, "a prefill offered");
                model.extend(rows);
                tally.insertions += 2;
            }
            _ => {
                let (heard, dropped) = (sink.offers().len(), sink.dropped().len());
                // The last clone goes; a rebuilt table gets a new owner.
                drop(std::mem::replace(&mut owner, Arc::new(())));
                prop_assert_eq!(store.num_namespaces(), 0);
                model.clear();
                prop_assert_eq!(sink.offers().len(), heard, "a death offered");
                prop_assert_eq!(&sink.dropped()[dropped..], &[NS.table]);
            }
        }
        prop_assert_eq!(store.len(), model.len());
    }
    // The live entries are the reference, and `len` counts exactly them.
    let mut live = HashMap::new();
    for (row, answer) in live_entries(store) {
        assert!(
            live.insert(row, answer).is_none(),
            "row {row} visited twice"
        );
    }
    prop_assert_eq!(live.len(), store.len());
    prop_assert_eq!(live, model);
    Ok((tally, offered))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roomy_store_is_the_reference_map(ops in ops()) {
        let store = CacheStore::new();
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        let (tally, offered) = drive(&store, &sink, &ops)?;
        let stats = store.stats();
        prop_assert_eq!(
            tally,
            Tally { hits: stats.hits, misses: stats.misses, insertions: stats.insertions }
        );
        prop_assert_eq!(stats.evictions, 0);
        // The rows offered are the rows inserted: a prefilled row is
        // never offered.
        prop_assert_eq!(sink.rows(), offered);
    }

    // `insert_pages` is the per-row loop: wherever the batch falls
    // (inside a word, across page edges, onto cached rows), both stores
    // end up holding, counting and offering the same, and the sink hears
    // exactly the batch's rows.
    #[test]
    fn insert_pages_is_the_per_row_loop(
        warm in prop::collection::vec((0usize..KEYS.len(), any::<bool>()), 0..20),
        reads in prop::collection::vec(0usize..KEYS.len(), 0..6),
        batches in prop::collection::vec(
            prop::collection::vec((0usize..KEYS.len() + 80, any::<bool>()), 0..60),
            1..4,
        ),
        with_sink in any::<bool>(),
    ) {
        // Selectors past `KEYS` are dense runs straddling the first and
        // the second page edge, so a batch has words to merge as well as
        // strays, on several pages.
        let key = |selector: usize| match KEYS.get(selector) {
            Some(&key) => key,
            None if selector < KEYS.len() + 40 => 4_096 - 20 + (selector - KEYS.len()),
            None => 8_192 - 20 + (selector - KEYS.len() - 40),
        };
        let run = |batched: bool| {
            let store = CacheStore::new();
            let sink = Arc::new(RecordingSink::default());
            if with_sink {
                store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
            }
            let owner = Arc::new(());
            let handle = store.handle(NS, &owner);
            for &(selector, value) in &warm {
                handle.insert(key(selector), value);
            }
            // Per batch: the rows the sink heard while it landed.
            let mut offered = Vec::new();
            for batch in &batches {
                // Reads between batches count toward the statistics.
                for &selector in &reads {
                    handle.get(key(selector));
                }
                let pages = pages_of(batch.iter().map(|&(selector, value)| (key(selector), value)));
                let heard = sink.offers().len();
                if batched {
                    handle.insert_pages(&pages);
                } else {
                    for (row, value) in rows_of(&pages) {
                        handle.insert(row, value);
                    }
                }
                let offers = sink.offers();
                let rows: BTreeSet<usize> = offers[heard..].iter().flatten().map(|&(row, _)| row).collect();
                offered.push(rows);
            }
            (live_entries(&store), handle.len(), store.stats(), offered)
        };
        let (batched, per_row) = (run(true), run(false));
        prop_assert_eq!(&batched.0, &per_row.0, "contents");
        prop_assert_eq!(batched.1, per_row.1, "len");
        prop_assert_eq!(batched.2, per_row.2, "statistics");
        prop_assert_eq!(&batched.3, &per_row.3, "offers");
        // A batch is offered exactly its rows, or nothing without a sink.
        if with_sink {
            for (batch, offer) in batches.iter().zip(&batched.3) {
                let rows: BTreeSet<usize> = batch.iter().map(|&(selector, _)| key(selector)).collect();
                prop_assert_eq!(&rows, offer);
            }
        } else {
            prop_assert!(batched.3.iter().all(BTreeSet::is_empty));
        }
    }
}
