//! [`CacheStore`]: the long-lived, cross-query evaluation cache.
//!
//! The paper's §4.2 observation — an already-evaluated tuple "can be
//! simply returned as part of the query result without re-evaluating" —
//! does not stop at a query boundary. [`crate::RowBits`] is the
//! *within-query* memo; this store is the *cross-query* one: entries are
//! namespaced by `(udf, table, table version)`, memory is bounded per
//! namespace with second-chance (CLOCK) eviction, and the store reports
//! hit/miss/eviction/invalidation statistics.
//!
//! # Layout
//!
//! Row ids are dense integers, so a namespace is a position bitmap, the
//! representation column engines use for predicate results: on-demand
//! pages of 4096 rows, each three bit planes (`known`, `answer`,
//! `referenced`) — 3 bits per cached row, 1.5 KB per touched page,
//! nothing allocated in proportion to the largest key. A lookup is a
//! page-table probe (skipped for runs of nearby rows by
//! [`CacheReader`]) and two loads; it takes no lock on the planes.
//! Writers serialize per namespace on the CLOCK hand's mutex, which is
//! also what makes the capacity bound exact.
//!
//! # The write path
//!
//! The unit of a write is the batch, and a batch is pages, as the unit
//! of a read is the word: [`CacheHandle::insert_pages`] takes the
//! [`PagePlanes`] a stage batch filled (its rows distinct by
//! construction) and the `hand` lock once. If the namespace has room for
//! every row, the pages land a 64-row word at a time — one merge into
//! the planes per word. Otherwise the rows go one by one, ascending,
//! through the second-chance sweep. [`CacheStore::prefill`] lands
//! rehydrated pages the same way. Statistics are added once per batch.
//! Contents, `len`, statistics and evictions are exactly what inserting
//! the rows one at a time, ascending, would leave.
//!
//! After the lock drops, the sink hears the batch once: its rows plus
//! whatever they evicted, as the pages they touch — the rows
//! one-at-a-time inserts would have offered, gathered into pages. The
//! batch's pages are that offer as they are; evicted rows are merged
//! into a copy of them ([`scatter`]).
//!
//! # Keying and invalidation
//!
//! A [`CacheNamespace`] is three raw `u64`s so this crate stays
//! foundational (no dependency on the table/UDF crates): the UDF's
//! fingerprint, the table's instance id, and the table's version.
//! A mutated table presents a new version, which is simply a *different*
//! namespace — stale entries become unreachable immediately. To keep
//! superseded versions from pinning memory without punishing *diverged
//! clones* (two live tables sharing one id whose versions legitimately
//! coexist), [`CacheStore::handle`] retains the
//! [`MAX_LIVE_VERSIONS`] most recently borrowed versions of each
//! `(udf, table)` pair and garbage-collects the rest.
//!
//! # Consistency contract
//!
//! The store is a *cache*, not a ledger: any entry may disappear at any
//! moment (eviction, invalidation). Callers that need read-your-writes
//! stability within one query — the paper's sample-reuse logic does —
//! must layer a per-query memo in front (the invoker does exactly that)
//! and treat the store as a best-effort accelerator.

use crate::cache::{assign_bits, zeroed_plane, RowBits};
use expred_stats::bits::{pages_of, rows_of, scatter, PagePlanes, PAGE_ROWS, PAGE_WORDS};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Receives cache writes for durable storage.
///
/// A sink hears about every answer that *enters* a namespace (fresh
/// evaluations — the invoker only writes through on fresh) and every
/// answer the capacity bound *evicts* (a second offer; sinks deduplicate
/// by key, so re-offers are cheap no-ops). It never hears about
/// [`CacheStore::prefill`]ed entries: those came *from* the sink, and
/// echoing them back would re-log every restart.
///
/// An offer is one batch of one namespace as `(page number, planes)`
/// pairs, ascending by page, none of them empty: the rows the batch
/// inserted and the rows they evicted, a row's first answer kept. Rows
/// may repeat across offers — a sink keeps the first answer it heard.
///
/// Implementations must never block meaningfully (the store calls them
/// outside its locks, but on the evaluation hot path) and must not call
/// back into the store.
pub trait SpillSink: Send + Sync + std::fmt::Debug {
    /// Offers `pages` of `namespace` for durable storage.
    fn spill(&self, namespace: CacheNamespace, pages: &[(usize, PagePlanes)]);
}

/// The store's current sink, shared by every namespace so
/// [`CacheStore::set_spill`] reaches caches created before wiring.
type SharedSink = Arc<RwLock<Option<Arc<dyn SpillSink>>>>;

/// Default per-namespace entry budget: roomy for the bundled datasets
/// while still exercising eviction on million-row workloads.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// How many versions of one `(udf, table)` pair stay live at once.
///
/// Two covers the common shapes: a linear mutation history (current +
/// immediately superseded), and a pair of diverged clones queried
/// alternately — which must *not* thrash each other's namespaces.
pub const MAX_LIVE_VERSIONS: usize = 2;

/// The key of one cache namespace: which UDF over which table state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheNamespace {
    /// The UDF's stable fingerprint.
    pub udf: u64,
    /// The table's instance id.
    pub table: u64,
    /// The table's version; bumping it abandons the namespace.
    pub version: u64,
}

expred_stats::counter_set! {
    /// A snapshot of store-wide cache statistics.
    pub struct CacheStats, atomic struct AtomicStats {
        /// Lookups answered from the store.
        hits,
        /// Lookups that found nothing.
        misses,
        /// Entries written.
        insertions,
        /// Entries discarded by the capacity bound.
        evictions,
        /// Entries discarded by namespace invalidation (version bumps,
        /// explicit invalidation).
        invalidated,
        /// Entries discarded because their namespace outlived the store's
        /// time-to-live ([`CacheStore::set_ttl`]), checked lazily on
        /// borrow.
        ttl_expirations,
    }
}

/// 4096 consecutive rows of one namespace: which are cached and their
/// answers (a [`RowBits`] over row offsets), plus each entry's CLOCK
/// referenced bit. All atomic, so lookups — which also mark
/// `referenced` — never take a lock.
#[derive(Debug)]
struct Page {
    bits: RowBits,
    referenced: Box<[AtomicU64]>,
}

impl Page {
    fn new() -> Self {
        Self {
            bits: RowBits::new(PAGE_ROWS),
            referenced: zeroed_plane(PAGE_WORDS),
        }
    }

    /// Advances the CLOCK hand over this page from row offset `from`:
    /// referenced entries it passes lose their bit (their second
    /// chance), and the first unreferenced entry's offset is returned.
    fn sweep(&self, from: usize) -> Option<usize> {
        for word in from / 64..PAGE_WORDS {
            let ahead = if word == from / 64 {
                u64::MAX << (from % 64)
            } else {
                u64::MAX
            };
            let known = self.bits.word(word).0 & ahead;
            let victims = known & !self.referenced[word].load(Ordering::Relaxed);
            // Entries below the first victim (all of them, without one)
            // are the referenced ones the hand passes over.
            let passed = known & (victims & victims.wrapping_neg()).wrapping_sub(1);
            assign_bits(&self.referenced[word], passed, 0, Ordering::Relaxed);
            if victims != 0 {
                return Some(word * 64 + victims.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// The entries of one namespace: on-demand [`Page`]s keyed by
/// `row / 4096`, so memory follows the rows actually cached (three bits
/// each, in 1.5 KB pages), never the largest key.
///
/// Lookups are lock-free on the planes and take the page table's read
/// lock only to find a page. Every mutation — insert, eviction, page
/// creation and removal, the entry count — happens under the `hand`
/// mutex, which is what keeps `len <= capacity` exact.
#[derive(Debug)]
struct NamespaceCache {
    namespace: CacheNamespace,
    capacity: usize,
    pages: RwLock<BTreeMap<usize, Arc<Page>>>,
    /// The CLOCK hand — the next row the eviction sweep examines — and
    /// the writers' lock. The hand walks rows in ascending order, page
    /// after page, and wraps.
    hand: Mutex<usize>,
    len: AtomicUsize,
    stats: Arc<AtomicStats>,
    /// The store's durable sink slot (shared, so late wiring applies to
    /// every namespace); the slot holds `None` on stores without
    /// persistence.
    spill: SharedSink,
    /// When this namespace was created — prefilled namespaces backdate
    /// this by their oldest surviving entry's age so a TTL keeps counting
    /// across restarts.
    born: Instant,
}

impl NamespaceCache {
    fn new(
        namespace: CacheNamespace,
        capacity: usize,
        stats: Arc<AtomicStats>,
        spill: SharedSink,
        born: Instant,
    ) -> Self {
        Self {
            namespace,
            capacity,
            pages: RwLock::new(BTreeMap::new()),
            hand: Mutex::new(0),
            len: AtomicUsize::new(0),
            stats,
            spill,
            born,
        }
    }

    /// Whether this namespace has outlived `ttl`.
    fn expired(&self, ttl: Duration) -> bool {
        self.born.elapsed() > ttl
    }

    fn page(&self, page_key: usize) -> Option<Arc<Page>> {
        let pages = self.pages.read().unwrap_or_else(|e| e.into_inner());
        pages.get(&page_key).cloned()
    }

    /// Inserts the rows of `pages` (ascending by page, as every crossing
    /// carries them) under one `hand` lock: with room for all of them they
    /// land a word at a time, and otherwise one by one, ascending, through
    /// the eviction sweep. With `offer`, the pages and whatever they
    /// evicted are offered to the spill sink as one set of pages, after
    /// the writers' lock drops: for a persistent sink the re-offer of an
    /// evicted row is a deduplicated no-op (first write wins), but it
    /// guarantees no answer leaves memory without the sink having heard
    /// of it.
    ///
    /// Without `offer` (the prefill path) the sink is not touched at all:
    /// the rows came *from* it, and anything they evict is either another
    /// prefilled (already durable) entry or a live one the sink heard at
    /// its own insert. Staying sink-silent is also what lets a caller
    /// prefill while holding locks the sink would re-take (the
    /// rehydration path holds its table registry's write lock).
    fn insert_pages(&self, pages: &[(usize, PagePlanes)], offer: bool) -> usize {
        let rows: usize = pages.iter().map(|(_, planes)| planes.len()).sum();
        if rows == 0 {
            return 0;
        }
        let mut evicted = Vec::new();
        {
            let mut hand = self.hand.lock().unwrap_or_else(|e| e.into_inner());
            if rows <= self.capacity.saturating_sub(self.len()) {
                self.land_pages(pages);
            } else {
                for (key, value) in rows_of(pages) {
                    self.insert_locked(&mut hand, key, value, &mut evicted);
                }
            }
        }
        let (inserted, evictions) = (rows as u64, evicted.len() as u64);
        self.stats.insertions.fetch_add(inserted, Ordering::Relaxed);
        self.stats.evictions.fetch_add(evictions, Ordering::Relaxed);
        let sink = offer
            .then(|| self.spill.read().unwrap_or_else(|e| e.into_inner()).clone())
            .flatten();
        if let Some(sink) = sink {
            if evicted.is_empty() {
                sink.spill(self.namespace, pages);
            } else {
                let mut offered = pages.to_vec();
                scatter(&mut offered, evicted);
                sink.spill(self.namespace, &offered);
            }
        }
        rows
    }

    /// Lands whole pages of rows, a word at a time (the caller holds the
    /// `hand` lock and checked the room).
    fn land_pages(&self, pages: &[(usize, PagePlanes)]) {
        let (mut cursor, mut new) = (None, 0);
        for (page, planes) in pages {
            for w in (0..PAGE_WORDS).filter(|&w| planes.known[w] != 0) {
                let word = page * PAGE_WORDS + w;
                new += self.land_word(&mut cursor, word, planes.known[w], planes.answer[w]);
            }
        }
        self.len.fetch_add(new, Ordering::Relaxed);
    }

    /// Caches the rows of `known` in row word `word` with the answers in
    /// `answer`, under the `hand` lock and with room for all of them, and
    /// returns how many were new entries, for the caller to add to `len`
    /// once per batch. `cursor` is the page the previous call wrote to.
    fn land_word(
        &self,
        cursor: &mut Option<(usize, Arc<Page>)>,
        word: usize,
        known: u64,
        answer: u64,
    ) -> usize {
        if known == 0 {
            return 0;
        }
        let page_key = word / PAGE_WORDS;
        let (_, page) = match cursor.take() {
            Some(at) if at.0 == page_key => cursor.insert(at),
            _ => cursor.insert((page_key, self.page_or_new(page_key))),
        };
        let new = page.bits.merge_word(word % PAGE_WORDS, known, answer);
        // A new entry starts unreferenced; a refreshed one was just used.
        let referenced = &page.referenced[word % PAGE_WORDS];
        assign_bits(referenced, known, known & !new, Ordering::Relaxed);
        new.count_ones() as usize
    }

    /// The page for `page_key`, created if absent (under the `hand`
    /// lock).
    fn page_or_new(&self, page_key: usize) -> Arc<Page> {
        self.page(page_key).unwrap_or_else(|| {
            let mut pages = self.pages.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(
                pages
                    .entry(page_key)
                    .or_insert_with(|| Arc::new(Page::new())),
            )
        })
    }

    /// The write path proper, under the `hand` lock: refresh a cached
    /// row in place, or make room (pushing what the sweep discards onto
    /// `evicted`) and land a new entry.
    fn insert_locked(
        &self,
        hand: &mut usize,
        key: usize,
        value: bool,
        evicted: &mut Vec<(usize, bool)>,
    ) {
        let (page_key, offset) = (key / PAGE_ROWS, key % PAGE_ROWS);
        let cached = |page: Arc<Page>| page.bits.get(offset).is_some();
        if !self.page(page_key).is_some_and(cached) {
            while self.len.load(Ordering::Relaxed) >= self.capacity {
                match self.evict_one(hand) {
                    Some(entry) => evicted.push(entry),
                    None => break,
                }
            }
        }
        // Looked up (again) only now: the sweep above may have emptied
        // and dropped the very page this key belongs to.
        let page = self.page_or_new(page_key);
        // A new entry starts unreferenced; a refreshed one was just used.
        let new = page.bits.insert(offset, value);
        let bit = 1u64 << (offset % 64);
        let referenced = if new { 0 } else { bit };
        assign_bits(
            &page.referenced[offset / 64],
            bit,
            referenced,
            Ordering::Relaxed,
        );
        self.len.fetch_add(usize::from(new), Ordering::Relaxed);
    }

    /// Second-chance sweep for one victim: referenced entries get one
    /// more lap, the first unreferenced one goes. Scans from the hand to
    /// the last page, then whole laps from row 0; the second whole lap
    /// finds only cleared bits, so three scans suffice unless concurrent
    /// readers keep re-marking every entry (then the caller runs one
    /// entry over until the next insert).
    fn evict_one(&self, hand: &mut usize) -> Option<(usize, bool)> {
        let (page_key, page, offset) = {
            let pages = self.pages.read().unwrap_or_else(|e| e.into_inner());
            let mut scans = 0;
            loop {
                let first = *hand / PAGE_ROWS;
                let found = pages.range(first..).find_map(|(&page_key, page)| {
                    let from = if page_key == first {
                        *hand % PAGE_ROWS
                    } else {
                        0
                    };
                    Some((page_key, Arc::clone(page), page.sweep(from)?))
                });
                scans += 1;
                match found {
                    Some(found) => break found,
                    None if scans == 3 => return None,
                    None => *hand = 0,
                }
            }
        };
        let row = page_key * PAGE_ROWS + offset;
        let answer = page.bits.remove(offset)?;
        self.len.fetch_sub(1, Ordering::Relaxed);
        *hand = row.wrapping_add(1);
        if page.bits.is_empty() {
            let mut pages = self.pages.write().unwrap_or_else(|e| e.into_inner());
            pages.remove(&page_key);
        }
        Some((row, answer))
    }

    /// Every non-empty page's live entries, ascending by page: plain
    /// loads under the page table's read lock — no writer is frozen.
    fn planes(&self) -> Vec<(usize, PagePlanes)> {
        let pages = self.pages.read().unwrap_or_else(|e| e.into_inner());
        let copy = |(&page_key, page): (&usize, &Arc<Page>)| {
            let mut planes = PagePlanes::empty();
            for word in 0..PAGE_WORDS {
                let (known, answer) = page.bits.word(word);
                planes.merge(word, known, answer);
            }
            (!planes.is_empty()).then_some((page_key, planes))
        };
        pages.iter().filter_map(copy).collect()
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// A cheap, clonable view of one namespace inside a [`CacheStore`].
///
/// This is what an invoker *borrows* for the duration of a query instead
/// of owning its memo: lookups and insertions go straight to the shared
/// store, so every borrower of the same namespace — across threads and
/// across queries — sees one cache.
#[derive(Clone)]
pub struct CacheHandle {
    namespace: CacheNamespace,
    cache: Arc<NamespaceCache>,
}

impl CacheHandle {
    /// The namespace this handle is scoped to.
    pub fn namespace(&self) -> CacheNamespace {
        self.namespace
    }

    /// A lookup cursor for a run of keys (see [`CacheReader`]).
    pub fn reader(&self) -> CacheReader<'_> {
        CacheReader {
            cache: &self.cache,
            page_key: usize::MAX,
            page: None,
            hits: 0,
            misses: 0,
        }
    }

    /// The cached answer for `key`, if present (counts a hit or miss).
    pub fn get(&self, key: usize) -> Option<bool> {
        self.reader().get(key)
    }

    /// Answers for every key, in input order. Hit/miss accounting is
    /// exactly what the equivalent sequence of [`CacheHandle::get`]
    /// calls would record.
    pub fn get_many(&self, keys: &[usize]) -> Vec<Option<bool>> {
        let mut reader = self.reader();
        keys.iter().map(|&key| reader.get(key)).collect()
    }

    /// Caches `value` for `key`, possibly evicting under the capacity
    /// bound: a one-row [`CacheHandle::insert_pages`].
    pub fn insert(&self, key: usize, value: bool) {
        self.insert_pages(&pages_of([(key, value)]))
    }

    /// Caches every row of `pages` — `(page number, planes)`, ascending
    /// by page — under one writers' lock (see the module docs). What the
    /// store holds, counts, evicts and offers its sink afterwards is what
    /// calling [`CacheHandle::insert`] per row, in ascending order, would
    /// leave.
    pub fn insert_pages(&self, pages: &[(usize, PagePlanes)]) {
        self.cache.insert_pages(pages, true);
    }

    /// Number of live entries in this namespace.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the namespace holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheHandle")
            .field("namespace", &self.namespace)
            .field("len", &self.len())
            .finish()
    }
}

/// A lookup cursor over one namespace: the read path of a bulk scan.
/// Each [`CacheReader::get`] behaves exactly like [`CacheHandle::get`] —
/// same answer, same referenced mark, one hit or miss — but the cursor
/// remembers the page it last touched (runs of nearby rows skip the page
/// table) and adds its hits and misses to the store's statistics once,
/// when it drops, instead of once per row. Scans that visit many rows of
/// one 64-row word read the word once ([`CacheReader::word`]) and settle
/// the accounting for it afterwards ([`CacheReader::record`]).
pub struct CacheReader<'a> {
    cache: &'a NamespaceCache,
    /// The page `page` was looked up for (`usize::MAX`: none yet — no
    /// word index divides down to it).
    page_key: usize,
    page: Option<Arc<Page>>,
    hits: u64,
    misses: u64,
}

impl CacheReader<'_> {
    /// The page holding row word `word`, if it exists.
    #[inline]
    fn page(&mut self, word: usize) -> Option<&Page> {
        if word / PAGE_WORDS != self.page_key {
            self.page_key = word / PAGE_WORDS;
            self.page = self.cache.page(self.page_key);
        }
        self.page.as_deref()
    }

    /// The cached rows of `[64 * word, 64 * word + 64)` as `(known,
    /// answer)` bit masks (bit `i` speaks for row `64 * word + i`;
    /// `answer` is meaningful only under `known`). Counts nothing and
    /// marks nothing: pair it with [`CacheReader::record`].
    #[inline]
    pub fn word(&mut self, word: usize) -> (u64, u64) {
        match self.page(word) {
            Some(page) => page.bits.word(word % PAGE_WORDS),
            None => (0, 0),
        }
    }

    /// Accounts for lookups answered from [`CacheReader::word`]: the rows
    /// of `hits` (a mask over row word `word`) were served — each counts
    /// a hit and is marked referenced — and `misses` lookups found
    /// nothing.
    #[inline]
    pub fn record(&mut self, word: usize, hits: u64, misses: u64) {
        if hits != 0 {
            if let Some(page) = self.page(word) {
                let referenced = &page.referenced[word % PAGE_WORDS];
                assign_bits(referenced, hits, hits, Ordering::Relaxed);
            }
        }
        self.hits += u64::from(hits.count_ones());
        self.misses += misses;
    }

    /// The cached answer for `key`, if present.
    #[inline]
    pub fn get(&mut self, key: usize) -> Option<bool> {
        let (known, answer) = self.word(key / 64);
        let bit = 1u64 << (key % 64);
        let hit = known & bit;
        self.record(key / 64, hit, u64::from(hit == 0));
        (hit != 0).then_some(answer & bit != 0)
    }
}

impl Drop for CacheReader<'_> {
    fn drop(&mut self) {
        let stats = &self.cache.stats;
        if self.hits > 0 {
            stats.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            stats.misses.fetch_add(self.misses, Ordering::Relaxed);
        }
    }
}

/// The cross-query evaluation cache: a capacity-bounded map of
/// namespaces, shared by every query an engine session runs.
///
/// Cloning shares the underlying storage (the store is an `Arc`
/// internally), so an engine, its pipelines, and diagnostic code can all
/// hold the same store cheaply.
#[derive(Clone, Debug)]
pub struct CacheStore {
    inner: Arc<StoreInner>,
}

/// The namespace table plus the per-`(udf, table)` borrow-recency lists
/// driving [`MAX_LIVE_VERSIONS`] garbage collection. One struct, one
/// lock: they must always be updated together.
#[derive(Debug, Default)]
struct Namespaces {
    map: HashMap<CacheNamespace, Arc<NamespaceCache>>,
    /// Live versions per `(udf, table)`, most recently borrowed last.
    recency: HashMap<(u64, u64), Vec<u64>>,
}

impl Namespaces {
    /// Removes one namespace, maintaining the recency index. Returns the
    /// number of entries dropped.
    fn remove(&mut self, namespace: &CacheNamespace) -> u64 {
        let Some(old) = self.map.remove(namespace) else {
            return 0;
        };
        let pair = (namespace.udf, namespace.table);
        if let Some(versions) = self.recency.get_mut(&pair) {
            versions.retain(|&v| v != namespace.version);
            if versions.is_empty() {
                self.recency.remove(&pair);
            }
        }
        old.len() as u64
    }
}

#[derive(Debug)]
struct StoreInner {
    namespaces: RwLock<Namespaces>,
    capacity: usize,
    stats: Arc<AtomicStats>,
    /// The durable sink slot shared with every namespace (see
    /// [`SharedSink`]); empty unless persistence is wired.
    spill: SharedSink,
    /// Namespace time-to-live in nanoseconds; `0` disables expiry.
    ttl_nanos: AtomicU64,
}

impl StoreInner {
    fn read(&self) -> RwLockReadGuard<'_, Namespaces> {
        self.namespaces.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Namespaces> {
        self.namespaces.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Makes `namespace` the most recently borrowed version of its
    /// `(udf, table)` pair — dropping versions that fall off the
    /// [`MAX_LIVE_VERSIONS`] window, their entries counted as
    /// invalidated — and returns its cache, born at `born` if new.
    fn touch(
        &self,
        guard: &mut Namespaces,
        namespace: CacheNamespace,
        born: Instant,
    ) -> Arc<NamespaceCache> {
        let versions = guard
            .recency
            .entry((namespace.udf, namespace.table))
            .or_default();
        versions.retain(|&v| v != namespace.version);
        versions.push(namespace.version);
        let excess = versions.len().saturating_sub(MAX_LIVE_VERSIONS);
        let stale: Vec<u64> = versions.drain(..excess).collect();
        let invalidated: u64 = stale
            .into_iter()
            .map(|version| {
                guard.remove(&CacheNamespace {
                    version,
                    ..namespace
                })
            })
            .sum();
        self.stats
            .invalidated
            .fetch_add(invalidated, Ordering::Relaxed);
        let cache = guard.map.entry(namespace).or_insert_with(|| {
            Arc::new(NamespaceCache::new(
                namespace,
                self.capacity,
                Arc::clone(&self.stats),
                Arc::clone(&self.spill),
                born,
            ))
        });
        Arc::clone(cache)
    }
}

impl CacheStore {
    /// A store with the default per-namespace capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// A store holding at most `capacity` entries per namespace (at
    /// least one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(StoreInner {
                namespaces: RwLock::new(Namespaces::default()),
                capacity: capacity.max(1),
                stats: Arc::new(AtomicStats::default()),
                spill: Arc::new(RwLock::new(None)),
                ttl_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Sets (or clears, with `None`) the namespace time-to-live.
    ///
    /// Expiry is *lazy*: a namespace older than the TTL is dropped the
    /// next time someone borrows it via [`CacheStore::handle`], with its
    /// entries counted under [`CacheStats::ttl_expirations`]. Handles
    /// borrowed before expiry keep their private `Arc` — in-flight
    /// queries are never interrupted; only new borrowers start cold.
    /// Prefilled namespaces carry their age across restarts (see
    /// [`CacheStore::prefill`]), so a TTL bounds *answer* staleness, not
    /// merely process uptime.
    pub fn set_ttl(&self, ttl: Option<Duration>) {
        let nanos = match ttl {
            // An explicit zero TTL means "expire immediately"; encode it
            // as 1ns so it doesn't collide with the disabled sentinel.
            Some(t) => (t.as_nanos().min(u64::MAX as u128) as u64).max(1),
            None => 0,
        };
        self.inner.ttl_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The configured namespace time-to-live, if any.
    pub fn ttl(&self) -> Option<Duration> {
        let nanos = self.inner.ttl_nanos.load(Ordering::Relaxed);
        (nanos > 0).then(|| Duration::from_nanos(nanos))
    }

    /// Installs (or removes, with `None`) the durable spill sink.
    ///
    /// The slot is shared with every namespace, including ones created
    /// before this call, so wiring order doesn't matter. The sink hears
    /// every fresh insert and every capacity eviction a fresh insert
    /// causes; prefill never touches the sink — neither its inserts nor
    /// the evictions they trigger (everything involved is already
    /// durable; see [`CacheStore::prefill`]).
    pub fn set_spill(&self, sink: Option<Arc<dyn SpillSink>>) {
        *self.inner.spill.write().unwrap_or_else(|e| e.into_inner()) = sink;
    }

    /// Borrows the cache for `namespace`, creating it on first use.
    ///
    /// Borrowing refreshes the namespace's recency; once more than
    /// [`MAX_LIVE_VERSIONS`] versions of one `(udf, table)` pair are
    /// live, the least recently borrowed ones are dropped (their entries
    /// count as invalidated). A bumped version's entries are unreachable
    /// from the new version immediately — retention only delays memory
    /// reclamation, never serves stale answers — while two diverged
    /// clones of one table can alternate without thrashing each other.
    ///
    /// Concurrent borrows of the same namespace are the common case for a
    /// shared engine and return clones of one `Arc`'d cache; the steady
    /// state (namespace exists and is already the most recently borrowed
    /// version of its pair) takes only the shared read lock, so worker
    /// threads starting queries do not serialize on each other. Racing
    /// borrows of *diverging* versions settle under the write lock, and
    /// a handle borrowed before its namespace is GCed keeps a private
    /// `Arc` — its query's read-your-writes view stays intact; only new
    /// borrowers start empty.
    pub fn handle(&self, namespace: CacheNamespace) -> CacheHandle {
        let ttl = self.ttl();
        {
            // Fast path: borrowing the freshest, unexpired version
            // changes neither the recency list nor the namespace table.
            let guard = self.inner.read();
            if let Some(cache) = guard.map.get(&namespace) {
                if !ttl.is_some_and(|t| cache.expired(t)) {
                    let pair = (namespace.udf, namespace.table);
                    let freshest = guard.recency.get(&pair).and_then(|v| v.last());
                    if freshest == Some(&namespace.version) {
                        return CacheHandle {
                            namespace,
                            cache: Arc::clone(cache),
                        };
                    }
                }
            }
        }
        let mut guard = self.inner.write();
        // Lazy TTL expiry: an over-age namespace is dropped here, on
        // borrow, so the borrower below starts from a fresh (re-aged)
        // cache rather than serving answers older than the bound.
        if let Some(ttl) = ttl {
            if guard.map.get(&namespace).is_some_and(|c| c.expired(ttl)) {
                let dropped = guard.remove(&namespace);
                let stats = &self.inner.stats;
                stats.ttl_expirations.fetch_add(dropped, Ordering::Relaxed);
            }
        }
        let cache = self.inner.touch(&mut guard, namespace, Instant::now());
        CacheHandle { namespace, cache }
    }

    /// Bulk-loads rehydrated pages into `namespace` without touching the
    /// spill sink at all, and returns the number of rows loaded. The
    /// pages land as a [`CacheHandle::insert_pages`] batch does: a word
    /// at a time while the namespace has room for every row, row by row
    /// through the eviction sweep otherwise. The loaded entries came
    /// *from* the sink,
    /// and any entry the capacity bound evicts mid-prefill is either
    /// another prefilled entry or a live one the sink already heard — so
    /// prefill is safe to call while holding locks the sink would
    /// re-take.
    ///
    /// A prefilled version counts as recently borrowed (it may push an
    /// old one out, exactly like [`CacheStore::handle`]). A namespace
    /// created by prefill is backdated by `age` — the time since its
    /// oldest persisted answer was written — so a configured TTL measures
    /// answer staleness across restarts instead of restarting the clock.
    /// Prefilling an already-live namespace keeps its existing birth
    /// time (fresh activity wins).
    pub fn prefill(
        &self,
        namespace: CacheNamespace,
        pages: &[(usize, PagePlanes)],
        age: Duration,
    ) -> usize {
        // If the whole batch is already over-age, loading it would only
        // hand the next borrower an expired namespace to tear down.
        if pages.iter().all(|(_, planes)| planes.is_empty())
            || self.ttl().is_some_and(|ttl| age > ttl)
        {
            return 0;
        }
        let born = Instant::now().checked_sub(age).unwrap_or_else(Instant::now);
        let cache = self.inner.touch(&mut self.inner.write(), namespace, born);
        cache.insert_pages(pages, false)
    }

    /// Visits every namespace's live entries as its non-empty pages,
    /// ascending — the spill-on-flush walk, one slice per namespace
    /// (empty ones are skipped). Entries are read without freezing
    /// writers, so concurrent inserts may or may not be visited; every
    /// entry present for the whole walk is.
    pub fn for_each_namespace(&self, mut f: impl FnMut(CacheNamespace, &[(usize, PagePlanes)])) {
        let caches: Vec<Arc<NamespaceCache>> = self.inner.read().map.values().cloned().collect();
        for cache in caches {
            let pages = cache.planes();
            if !pages.is_empty() {
                f(cache.namespace, &pages);
            }
        }
    }

    /// Drops one namespace outright.
    pub fn invalidate(&self, namespace: CacheNamespace) {
        let dropped = self.inner.write().remove(&namespace);
        let stats = &self.inner.stats;
        stats.invalidated.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Number of live namespaces.
    pub fn num_namespaces(&self) -> usize {
        self.inner.read().map.len()
    }

    /// Total live entries across namespaces.
    pub fn len(&self) -> usize {
        self.inner.read().map.values().map(|c| c.len()).sum()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store-wide statistics since construction.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats.snapshot()
    }

    /// Drops every namespace (stats are preserved).
    pub fn clear(&self) {
        let mut guard = self.inner.write();
        let entries: u64 = guard.map.values().map(|c| c.len() as u64).sum();
        let stats = &self.inner.stats;
        stats.invalidated.fetch_add(entries, Ordering::Relaxed);
        guard.map.clear();
        guard.recency.clear();
    }
}

impl Default for CacheStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(udf: u64, table: u64, version: u64) -> CacheNamespace {
        CacheNamespace {
            udf,
            table,
            version,
        }
    }

    #[test]
    fn get_insert_round_trips_and_counts() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1, 0));
        assert_eq!(h.get(42), None);
        h.insert(42, true);
        assert_eq!(h.get(42), Some(true));
        h.insert(42, false);
        assert_eq!(h.get(42), Some(false));
        let s = store.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn get_many_matches_per_key_gets_including_stats() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1, 0));
        for key in (0..200).step_by(2) {
            h.insert(key, key % 4 == 0);
        }
        let keys: Vec<usize> = (0..200).collect();
        let batched = h.get_many(&keys);
        let batched_stats = store.stats();

        let twin = CacheStore::new();
        let th = twin.handle(ns(1, 1, 0));
        for key in (0..200).step_by(2) {
            th.insert(key, key % 4 == 0);
        }
        let individual: Vec<Option<bool>> = keys.iter().map(|&k| th.get(k)).collect();
        assert_eq!(batched, individual);
        assert_eq!(batched_stats, twin.stats());
        assert_eq!(batched_stats.hits, 100);
        assert_eq!(batched_stats.misses, 100);
        assert!(h.get_many(&[]).is_empty());
    }

    #[test]
    fn get_many_marks_entries_referenced_for_eviction() {
        // A key read through get_many must survive a second-chance sweep
        // exactly like one read through get.
        let store = CacheStore::with_capacity(256);
        let h = store.handle(ns(1, 1, 0));
        h.insert(0, true);
        for cold in 1..5_000usize {
            assert_eq!(h.get_many(&[0]), vec![Some(true)], "evicted at {cold}");
            h.insert(cold, false);
        }
    }

    #[test]
    fn namespaces_are_isolated() {
        let store = CacheStore::new();
        let a = store.handle(ns(1, 1, 0));
        let b = store.handle(ns(2, 1, 0));
        a.insert(7, true);
        assert_eq!(b.get(7), None);
        assert_eq!(a.get(7), Some(true));
        assert_eq!(store.num_namespaces(), 2);
    }

    #[test]
    fn handles_share_one_namespace() {
        let store = CacheStore::new();
        let a = store.handle(ns(1, 1, 0));
        let b = store.handle(ns(1, 1, 0));
        a.insert(5, true);
        assert_eq!(b.get(5), Some(true));
        assert_eq!(store.num_namespaces(), 1);
    }

    #[test]
    fn version_bump_invalidates_and_old_versions_are_eventually_gced() {
        let store = CacheStore::new();
        let v0 = store.handle(ns(1, 9, 100));
        v0.insert(1, true);
        v0.insert(2, false);
        // The bumped version never sees the old state's entries…
        let v1 = store.handle(ns(1, 9, 101));
        assert_eq!(v1.get(1), None);
        // …but the old version stays live (diverged clones coexist) until
        // it falls off the MAX_LIVE_VERSIONS recency window.
        assert_eq!(store.num_namespaces(), 2);
        assert_eq!(store.stats().invalidated, 0);
        let _v2 = store.handle(ns(1, 9, 102));
        assert_eq!(store.num_namespaces(), MAX_LIVE_VERSIONS);
        assert_eq!(store.stats().invalidated, 2, "v100's entries dropped");
        // The orphaned handle still works (its Arc is alive) but new
        // borrowers of v100 start empty.
        assert_eq!(v0.get(1), Some(true));
        assert_eq!(store.handle(ns(1, 9, 100)).get(1), None);
    }

    #[test]
    fn alternating_diverged_clones_do_not_thrash_each_other() {
        // Two live versions of one (udf, table) — e.g. diverged clones —
        // queried alternately must keep their caches intact.
        let store = CacheStore::new();
        store.handle(ns(1, 9, 7)).insert(1, true);
        store.handle(ns(1, 9, 8)).insert(2, false);
        for _ in 0..10 {
            assert_eq!(store.handle(ns(1, 9, 7)).get(1), Some(true));
            assert_eq!(store.handle(ns(1, 9, 8)).get(2), Some(false));
        }
        assert_eq!(store.stats().invalidated, 0);
        assert_eq!(store.num_namespaces(), 2);
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        let store = CacheStore::with_capacity(64);
        let h = store.handle(ns(1, 1, 0));
        for key in 0..1_000 {
            h.insert(key, key % 2 == 0);
            assert!(h.len() <= 64, "len {} over bound", h.len());
        }
        let s = store.stats();
        assert_eq!(s.insertions, 1_000);
        assert_eq!(s.evictions, 1_000 - 64, "the bound is exact");
        // A zero capacity still holds one entry.
        let tiny = CacheStore::with_capacity(0);
        let h = tiny.handle(ns(1, 1, 0));
        h.insert(1, true);
        h.insert(2, false);
        assert_eq!((h.get(1), h.get(2), h.len()), (None, Some(false), 1));
    }

    #[test]
    fn pages_follow_the_cached_rows_not_the_largest_key() {
        let store = CacheStore::with_capacity(1);
        let h = store.handle(ns(1, 1, 0));
        let pages = |h: &CacheHandle| h.cache.pages.read().unwrap().len();
        // A sparse huge key costs one page, not a plane up to it.
        h.insert(1 << 40, true);
        assert_eq!((h.get(1 << 40), pages(&h)), (Some(true), 1));
        // Each newcomer evicts its predecessor — across a word boundary,
        // then a page boundary — and a page emptied that way is freed.
        for (key, evicted) in [(63, 1 << 40), (64, 63), (4_096, 64)] {
            h.insert(key, key % 2 == 0);
            assert_eq!((h.get(key), h.get(evicted)), (Some(key % 2 == 0), None));
            assert_eq!((h.len(), pages(&h)), (1, 1), "after inserting {key}");
        }
        assert_eq!(store.stats().evictions, 3);
    }

    #[test]
    fn second_chance_protects_hot_entries() {
        let store = CacheStore::with_capacity(256);
        let h = store.handle(ns(1, 1, 0));
        // A hot key that is re-read between every burst of cold inserts.
        h.insert(0, true);
        for cold in 1..5_000usize {
            assert_eq!(h.get(0), Some(true), "hot key evicted at {cold}");
            h.insert(cold, false);
        }
    }

    #[test]
    fn clear_empties_but_keeps_stats() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1, 0));
        h.insert(1, true);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.stats().insertions, 1);
        assert_eq!(store.stats().invalidated, 1);
    }

    #[test]
    fn clones_share_storage() {
        let store = CacheStore::new();
        let view = store.clone();
        store.handle(ns(1, 1, 0)).insert(3, true);
        assert_eq!(view.handle(ns(1, 1, 0)).get(3), Some(true));
    }

    /// A sink that records every offer, for spill-path tests.
    #[derive(Debug, Default)]
    struct RecordingSink {
        offers: std::sync::Mutex<Vec<(CacheNamespace, usize, bool)>>,
    }

    impl SpillSink for RecordingSink {
        fn spill(&self, namespace: CacheNamespace, pages: &[(usize, PagePlanes)]) {
            assert!(!pages.is_empty(), "an empty offer");
            assert!(pages.iter().all(|(_, planes)| !planes.is_empty()));
            self.offers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(rows_of(pages).map(|(row, answer)| (namespace, row, answer)));
        }
    }

    impl RecordingSink {
        fn offers(&self) -> Vec<(CacheNamespace, usize, bool)> {
            self.offers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone()
        }
    }

    #[test]
    fn spill_sink_hears_inserts_but_not_prefill() {
        let store = CacheStore::new();
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        // Prefilled entries must not echo back to the sink.
        assert_eq!(
            store.prefill(
                ns(1, 1, 0),
                &pages_of([(10, true), (11, false)]),
                Duration::ZERO
            ),
            2
        );
        assert!(sink.offers().is_empty());
        // Fresh inserts do reach it — including on namespaces created
        // before the sink was wired (the slot is shared).
        store.handle(ns(1, 1, 0)).insert(12, true);
        assert_eq!(sink.offers(), vec![(ns(1, 1, 0), 12, true)]);
        // And prefilled entries are still readable.
        assert_eq!(store.handle(ns(1, 1, 0)).get(10), Some(true));
        assert_eq!(store.handle(ns(1, 1, 0)).get(11), Some(false));
    }

    #[test]
    fn prefill_past_capacity_evicts_without_touching_the_sink() {
        // Regression: prefilling more rows than the capacity bound used
        // to re-offer the evictions to the sink, re-entering the
        // rehydration caller's locks on the same thread (deadlock).
        let store = CacheStore::with_capacity(64);
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        let rows = (0..1_000).map(|r| (r, r % 2 == 0));
        assert_eq!(
            store.prefill(ns(1, 1, 0), &pages_of(rows), Duration::ZERO),
            1_000
        );
        assert!(store.stats().evictions > 0, "capacity bound not exercised");
        assert!(
            sink.offers().is_empty(),
            "prefill must stay sink-silent even when it evicts"
        );
    }

    #[test]
    fn spill_sink_wired_late_still_hears_old_namespaces() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1, 0));
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        h.insert(5, false);
        assert_eq!(sink.offers(), vec![(ns(1, 1, 0), 5, false)]);
    }

    #[test]
    fn evictions_are_reoffered_to_sink() {
        let store = CacheStore::with_capacity(1);
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        let h = store.handle(ns(1, 1, 0));
        for key in 0..1_000usize {
            h.insert(key, key % 2 == 0);
        }
        let offers = sink.offers();
        let evictions = store.stats().evictions;
        assert!(evictions > 0);
        // Every insert offered once, every eviction re-offered once.
        assert_eq!(offers.len() as u64, 1_000 + evictions);
        // Re-offers carry the answer originally cached.
        for &(_, row, answer) in &offers {
            assert_eq!(answer, row % 2 == 0);
        }
    }

    #[test]
    fn ttl_expires_namespaces_lazily_on_borrow() {
        let store = CacheStore::new();
        store.set_ttl(Some(Duration::from_millis(20)));
        let h = store.handle(ns(1, 1, 0));
        h.insert(1, true);
        h.insert(2, false);
        // Young namespace: borrow serves the cached answers.
        assert_eq!(store.handle(ns(1, 1, 0)).get(1), Some(true));
        std::thread::sleep(Duration::from_millis(40));
        // Over-age: the next borrow starts cold and counts expirations.
        let reborrowed = store.handle(ns(1, 1, 0));
        assert_eq!(reborrowed.get(1), None);
        assert_eq!(store.stats().ttl_expirations, 2);
        // The pre-expiry handle keeps its private view (read-your-writes
        // within a query survives).
        assert_eq!(h.get(2), Some(false));
        // The replacement namespace ages from now, not from the original.
        reborrowed.insert(3, true);
        assert_eq!(store.handle(ns(1, 1, 0)).get(3), Some(true));
    }

    #[test]
    fn prefill_age_counts_against_ttl() {
        let store = CacheStore::new();
        store.set_ttl(Some(Duration::from_millis(25)));
        // Rehydrated with most of its TTL already spent…
        assert_eq!(
            store.prefill(
                ns(1, 1, 0),
                &pages_of([(1, true)]),
                Duration::from_millis(15)
            ),
            1
        );
        assert_eq!(store.handle(ns(1, 1, 0)).get(1), Some(true));
        // …so it expires after the *remaining* budget, not a full TTL.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(store.handle(ns(1, 1, 0)).get(1), None);
        assert_eq!(store.stats().ttl_expirations, 1);
        // A batch already past the TTL is refused outright: no namespace
        // is created for it (only the reborrowed ns(1,..) remains).
        assert_eq!(
            store.prefill(
                ns(2, 1, 0),
                &pages_of([(1, true)]),
                Duration::from_millis(60)
            ),
            0
        );
        assert_eq!(store.num_namespaces(), 1);
    }

    #[test]
    fn no_ttl_means_no_expiry() {
        let store = CacheStore::new();
        store.handle(ns(1, 1, 0)).insert(1, true);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(store.handle(ns(1, 1, 0)).get(1), Some(true));
        assert_eq!(store.stats().ttl_expirations, 0);
        assert_eq!(store.ttl(), None);
        store.set_ttl(Some(Duration::from_secs(3600)));
        assert_eq!(store.ttl(), Some(Duration::from_secs(3600)));
    }

    #[test]
    fn for_each_entry_visits_every_namespace() {
        let store = CacheStore::new();
        store.handle(ns(1, 1, 0)).insert(1, true);
        store.handle(ns(2, 1, 0)).insert(2, false);
        store.prefill(ns(3, 1, 0), &pages_of([(3, true)]), Duration::ZERO);
        let mut seen: Vec<(CacheNamespace, usize, bool)> = Vec::new();
        store.for_each_namespace(|namespace, pages| {
            seen.extend(rows_of(pages).map(|(row, answer)| (namespace, row, answer)));
        });
        seen.sort_by_key(|(n, r, _)| (n.udf, *r));
        assert_eq!(
            seen,
            vec![
                (ns(1, 1, 0), 1, true),
                (ns(2, 1, 0), 2, false),
                (ns(3, 1, 0), 3, true),
            ]
        );
    }

    #[test]
    fn prefill_respects_version_recency_window() {
        let store = CacheStore::new();
        store.handle(ns(1, 9, 100)).insert(1, true);
        store.handle(ns(1, 9, 101)).insert(1, true);
        // Prefilling a third version pushes the oldest out, exactly like
        // a borrow would.
        store.prefill(ns(1, 9, 102), &pages_of([(1, false)]), Duration::ZERO);
        assert_eq!(store.num_namespaces(), MAX_LIVE_VERSIONS);
        assert_eq!(store.stats().invalidated, 1);
        assert_eq!(store.handle(ns(1, 9, 102)).get(1), Some(false));
    }

    #[test]
    fn concurrent_borrowers_land_every_entry() {
        let store = CacheStore::new();
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let store = store.clone();
                scope.spawn(move || {
                    let h = store.handle(ns(1, 1, 0));
                    for i in 0..500 {
                        h.insert(worker * 500 + i, true);
                    }
                });
            }
        });
        assert_eq!(store.len(), 4_000);
    }
}
