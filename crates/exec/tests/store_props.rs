//! Model-based tests for the bitmap-backed [`CacheStore`].
//!
//! A plain `HashMap<usize, bool>` is the reference. Arbitrary sequences
//! of `get` / `get_many` / `insert` / `prefill` / `invalidate` over keys
//! that sit on every layout boundary — word edges (63, 64), page edges
//! (4095, 4096), a table's last row, and a sparse key far beyond any
//! table (`1 << 40`) — must:
//!
//! * with room for everything, answer exactly like the map, count
//!   exactly the map's hits, misses and insertions, and offer the spill
//!   sink exactly the rows inserted;
//! * under a tight capacity, never answer wrongly, never hold more than
//!   `capacity` entries, and offer the spill sink each inserted row with
//!   every entry its `insert` evicted (while `prefill` offers nothing);
//! * give a just-read row its second chance;
//! * land a batch of pages (`insert_pages`) exactly as the per-row loop
//!   over its rows, ascending, would: contents, `len`, statistics,
//!   evictions and the rows the sink was offered — with room, at
//!   capacity and past it, across page edges, and over rows already
//!   cached.
//!
//! The sink hears pages; these properties compare the rows on them as
//! sets, since a batch is one offer however many rows it carries.

use expred_exec::{CacheNamespace, CacheStore, SpillSink};
use expred_stats::bits::{pages_of, rows_of, PagePlanes};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

const NS: CacheNamespace = CacheNamespace {
    udf: 7,
    table: 3,
    version: 1,
};

/// One step of a run: an operation code, a key selector, and a value.
type Op = (u8, usize, bool);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..10, 0usize..KEYS.len(), any::<bool>()), 1..120)
}

/// Records the rows of every offer, one list per offer.
#[derive(Debug, Default)]
struct RecordingSink(Mutex<Vec<Vec<(usize, bool)>>>);

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
}

impl RecordingSink {
    fn offers(&self) -> Vec<Vec<(usize, bool)>> {
        self.0.lock().unwrap().clone()
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

/// The rows of [`live_entries`].
fn live_rows(store: &CacheStore) -> BTreeSet<usize> {
    live_entries(store)
        .into_iter()
        .map(|(row, _)| row)
        .collect()
}

/// What the reference run tallies, to hold against [`CacheStore::stats`].
#[derive(Debug, Default, PartialEq)]
struct Tally {
    hits: u64,
    misses: u64,
    insertions: u64,
}

/// What an insert must offer the sink: its own row and the rows it
/// evicted — the rows live before it and gone after it.
fn expected_offer(
    key: usize,
    before: &BTreeSet<usize>,
    after: &BTreeSet<usize>,
) -> BTreeSet<usize> {
    let mut offer: BTreeSet<usize> = before.difference(after).copied().collect();
    offer.insert(key);
    offer
}

/// Drives `store` and the reference map through `ops`, checking that
/// each insert offers `sink` exactly [`expected_offer`] and a prefill
/// nothing. `exact` demands the store answer like the map; otherwise
/// (capacity pressure) a miss is always acceptable but a hit must carry
/// the map's value. Returns the tally, the rows `insert` wrote, and how
/// many entries inserts evicted.
fn drive(
    store: &CacheStore,
    sink: &RecordingSink,
    ops: &[Op],
    exact: bool,
    capacity: usize,
) -> Result<(Tally, BTreeSet<usize>, u64), TestCaseError> {
    let mut model: HashMap<usize, bool> = HashMap::new();
    let mut tally = Tally::default();
    let mut inserts = BTreeSet::new();
    let mut evicted = 0;
    let lookup = |tally: &mut Tally, model: &HashMap<usize, bool>, key, got: Option<bool>| {
        match got {
            Some(answer) => {
                tally.hits += 1;
                prop_assert_eq!(Some(&answer), model.get(&key), "wrong answer for {}", key);
            }
            None => {
                tally.misses += 1;
                prop_assert!(!exact || !model.contains_key(&key), "lost key {}", key);
            }
        }
        Ok(())
    };
    for &(op, selector, value) in ops {
        let key = KEYS[selector];
        // Re-borrowed per step: `invalidate` orphans older handles.
        let handle = store.handle(NS);
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
                let (before, heard) = (live_rows(store), sink.offers().len());
                handle.insert(key, value);
                let after = live_rows(store);
                let offers = sink.offers();
                prop_assert_eq!(offers.len(), heard + 1, "one offer per insert");
                let offer: BTreeSet<usize> = offers[heard].iter().map(|&(row, _)| row).collect();
                prop_assert_eq!(&offer, &expected_offer(key, &before, &after));
                evicted += offer.len() as u64 - 1;
                model.insert(key, value);
                inserts.insert(key);
                tally.insertions += 1;
            }
            7..=8 => {
                let rows = [(key, value), (KEYS[(selector + 3) % 14], !value)];
                let heard = sink.offers().len();
                prop_assert_eq!(store.prefill(NS, &pages_of(rows), Duration::ZERO), 2);
                prop_assert_eq!(sink.offers().len(), heard, "a prefill offered");
                model.extend(rows);
                tally.insertions += 2;
            }
            _ => {
                store.invalidate(NS);
                model.clear();
            }
        }
        prop_assert!(
            store.len() <= capacity,
            "{} entries over {}",
            store.len(),
            capacity
        );
        if exact {
            prop_assert_eq!(store.len(), model.len());
        }
    }
    // The live entries are a sub-map of the reference (all of it, when
    // nothing was evicted), and `len` counts exactly them.
    let mut live = HashMap::new();
    for (row, answer) in live_entries(store) {
        assert!(
            live.insert(row, answer).is_none(),
            "row {row} visited twice"
        );
    }
    prop_assert_eq!(live.len(), store.len());
    for (row, answer) in &live {
        prop_assert_eq!(model.get(row), Some(answer));
    }
    if exact {
        prop_assert_eq!(live.len(), model.len());
    }
    Ok((tally, inserts, evicted))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roomy_store_is_the_reference_map(ops in ops()) {
        let store = CacheStore::new();
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        let (tally, inserts, _) = drive(&store, &sink, &ops, true, usize::MAX)?;
        let stats = store.stats();
        prop_assert_eq!(
            tally,
            Tally { hits: stats.hits, misses: stats.misses, insertions: stats.insertions }
        );
        prop_assert_eq!(stats.evictions, 0);
        // The rows offered are the rows inserted: no prefilled row.
        prop_assert_eq!(sink.rows(), inserts);
    }

    #[test]
    fn tight_store_stays_bounded_and_reoffers_evictions(
        ops in ops(),
        capacity in 1usize..6,
    ) {
        let store = CacheStore::with_capacity(capacity);
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        // `drive` checked every insert's offer: its row and what it
        // evicted.
        let (tally, inserts, evicted) = drive(&store, &sink, &ops, false, capacity)?;
        let stats = store.stats();
        prop_assert_eq!(
            tally,
            Tally { hits: stats.hits, misses: stats.misses, insertions: stats.insertions }
        );
        prop_assert!(inserts.is_subset(&sink.rows()));
        // Prefill evictions are the silent remainder; without prefills
        // every eviction was offered.
        prop_assert!(evicted <= stats.evictions, "{} offered, {} evictions", evicted, stats.evictions);
        if !ops.iter().any(|&(op, _, _)| (7..=8).contains(&op)) {
            prop_assert_eq!(evicted, stats.evictions);
        }
    }

    #[test]
    fn a_just_read_row_gets_its_second_chance(
        capacity in 2usize..12,
        read in 0usize..12,
        newcomer in 12usize..14,
    ) {
        let store = CacheStore::with_capacity(capacity);
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        let handle = store.handle(NS);
        // Fill to the brim with never-read rows, then read one of them.
        for &key in &KEYS[..capacity] {
            handle.insert(key, key.is_multiple_of(2));
        }
        let hot = KEYS[read % capacity];
        prop_assert_eq!(handle.get(hot), Some(hot.is_multiple_of(2)));
        // The newcomer evicts exactly one row — not the one just read —
        // and the sink hears of it.
        handle.insert(KEYS[newcomer], true);
        prop_assert_eq!(store.stats().evictions, 1);
        prop_assert_eq!(handle.len(), capacity);
        prop_assert_eq!(handle.get(hot), Some(hot.is_multiple_of(2)), "hot row {} evicted", hot);
        let last = sink.offers().pop().unwrap();
        let newcomer = (KEYS[newcomer], true);
        prop_assert!(last.len() == 2 && last.contains(&newcomer), "{:?}", last);
        let (victim, answer) = last.into_iter().find(|&offer| offer != newcomer).unwrap();
        prop_assert!(victim != hot && KEYS[..capacity].contains(&victim));
        prop_assert_eq!(answer, victim.is_multiple_of(2), "re-offer carries the cached answer");
        prop_assert_eq!(handle.get(victim), None);
    }

    // `insert_pages` is the per-row loop under one lock: whatever the
    // capacity (roomy, exactly full, overflowing), wherever the batch
    // falls (inside a word, across page edges, onto cached rows), both
    // stores end up holding, counting and offering the same. A batch with
    // room lands as pages; one past the bound goes through the sweep.
    #[test]
    fn insert_pages_is_the_per_row_loop(
        // 1..=40 entries, or (one draw in three) room for everything.
        capacity in (1usize..61).prop_map(|c| if c > 40 { usize::MAX } else { c }),
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
            let store = CacheStore::with_capacity(capacity);
            let sink = Arc::new(RecordingSink::default());
            if with_sink {
                store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
            }
            let handle = store.handle(NS);
            for &(selector, value) in &warm {
                handle.insert(key(selector), value);
            }
            // Per batch: the rows the sink heard while it landed.
            let mut offered = Vec::new();
            for batch in &batches {
                // Reads between batches leave referenced marks for the
                // sweep to honour.
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
                // Rows, not answers: a batch that overwrites a cached row
                // the same batch evicted is offered its answers once each
                // row by row, but once per row as pages (first one kept).
                let rows: BTreeSet<usize> = offers[heard..].iter().flatten().map(|&(row, _)| row).collect();
                offered.push(rows);
                assert!(handle.len() <= capacity);
            }
            (live_entries(&store), handle.len(), store.stats(), offered)
        };
        let (batched, per_row) = (run(true), run(false));
        prop_assert_eq!(&batched.0, &per_row.0, "contents");
        prop_assert_eq!(batched.1, per_row.1, "len");
        prop_assert_eq!(batched.2, per_row.2, "statistics");
        prop_assert_eq!(&batched.3, &per_row.3, "offers");
        // A batch is one offer — its rows and what they evicted — or none.
        if with_sink {
            for (batch, offer) in batches.iter().zip(&batched.3) {
                let rows: BTreeSet<usize> = batch.iter().map(|&(selector, _)| key(selector)).collect();
                prop_assert!(rows.is_subset(offer), "{:?} not all offered", rows);
            }
        } else {
            prop_assert!(batched.3.iter().all(BTreeSet::is_empty));
        }
    }
}
