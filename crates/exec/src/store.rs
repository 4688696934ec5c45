//! [`CacheStore`]: the long-lived, cross-query evaluation cache.
//!
//! The paper's §4.2 observation — an already-evaluated tuple "can be
//! simply returned as part of the query result without re-evaluating" —
//! does not stop at a query boundary. An invoker's own memo is the
//! *within-query* one; this store is the *cross-query* one: entries are
//! namespaced by `(udf, table, table version)`, a namespace keeps every
//! answer it is given, and the store reports hit/miss/invalidation
//! statistics.
//!
//! # Layout
//!
//! Row ids are dense integers, so a namespace is a position bitmap, the
//! representation column engines use for predicate results: on-demand
//! pages of 4096 rows, each two bit planes (`known`, `answer`) — 2 bits
//! per cached row, 1 KB per touched page, nothing allocated in
//! proportion to the largest key. A namespace's keys are the row ids of
//! one table, so its size is bounded by the table's; there is no
//! per-namespace cap. A lookup is a page-table probe (skipped for runs of
//! nearby rows by [`CacheReader`]) and two loads; it takes no lock on the
//! planes.
//!
//! # The write path
//!
//! The unit of a write is the batch, and a batch is pages, as the unit
//! of a read is the word: [`CacheHandle::insert_pages`] takes the
//! [`PagePlanes`] a stage batch filled (its rows distinct by
//! construction) and lands them a 64-row word at a time — one merge into
//! the planes per word. [`CacheStore::prefill`] lands rehydrated pages
//! the same way. Statistics are added once per batch, and the sink hears
//! the batch once, as exactly its pages.
//!
//! Writers take no lock of their own. A page is created under the page
//! table's write lock, so racing writers of one page land in one page.
//! Within a page, [`RowBits::merge_word`] stores the answers, then
//! publishes `known` with one `fetch_or` whose previous value hands each
//! newly known row to exactly one writer — so `len` counts every row
//! once, however many writers raced to land it.
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
//! A whole namespace may disappear between borrows (invalidation, version
//! garbage collection, TTL expiry, [`CacheStore::clear`]); a borrowed
//! handle keeps its namespace alive. Callers that need read-your-writes
//! stability within one query — the paper's sample-reuse logic does —
//! layer a per-query memo in front (the invoker does exactly that).

use crate::cache::RowBits;
use expred_stats::bits::{pages_of, PagePlanes, PAGE_ROWS, PAGE_WORDS};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Receives cache writes for durable storage.
///
/// A sink hears about every answer that *enters* a namespace (fresh
/// evaluations — the invoker only writes through on fresh). It never
/// hears about [`CacheStore::prefill`]ed entries: those came *from* the
/// sink, and echoing them back would re-log every restart.
///
/// An offer is one batch of one namespace as `(page number, planes)`
/// pairs, ascending by page, none of them empty. Rows may repeat across
/// offers — a sink keeps the first answer it heard.
///
/// Implementations must never block meaningfully (the store calls them
/// on the evaluation hot path) and must not call back into the store.
pub trait SpillSink: Send + Sync + std::fmt::Debug {
    /// Offers `pages` of `namespace` for durable storage.
    fn spill(&self, namespace: CacheNamespace, pages: &[(usize, PagePlanes)]);
}

/// The store's current sink, shared by every namespace so
/// [`CacheStore::set_spill`] reaches caches created before wiring.
type SharedSink = Arc<RwLock<Option<Arc<dyn SpillSink>>>>;

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
        /// Always 0: a namespace keeps every answer it is given. Still
        /// exported because the benchmark harness reads it (ROADMAP
        /// direction 4 removes it).
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

/// The entries of one namespace: on-demand [`RowBits`] pages of 4096
/// rows keyed by `row / 4096`, so memory follows the rows actually cached
/// (two bits each, in 1 KB pages), never the largest key.
///
/// Lookups are lock-free on the planes and take the page table's read
/// lock only to find a page; a page is created under its write lock (see
/// the module docs for why writers need no other lock).
#[derive(Debug)]
struct NamespaceCache {
    namespace: CacheNamespace,
    pages: RwLock<BTreeMap<usize, Arc<RowBits>>>,
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
        stats: Arc<AtomicStats>,
        spill: SharedSink,
        born: Instant,
    ) -> Self {
        Self {
            namespace,
            pages: RwLock::new(BTreeMap::new()),
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

    fn page(&self, page_key: usize) -> Option<Arc<RowBits>> {
        let pages = self.pages.read().unwrap_or_else(|e| e.into_inner());
        pages.get(&page_key).cloned()
    }

    /// Lands the rows of `pages` (ascending by page, as every crossing
    /// carries them) a word at a time and, with `offer`, offers the
    /// spill sink exactly those pages.
    ///
    /// Without `offer` (the prefill path) the sink is not touched at all:
    /// the rows came *from* it. Staying sink-silent is also what lets a
    /// caller prefill while holding locks the sink would re-take (the
    /// rehydration path holds its table registry's write lock).
    fn insert_pages(&self, pages: &[(usize, PagePlanes)], offer: bool) -> usize {
        let rows: usize = pages.iter().map(|(_, planes)| planes.len()).sum();
        if rows == 0 {
            return 0;
        }
        let mut new = 0;
        for (page, planes) in pages.iter().filter(|(_, planes)| !planes.is_empty()) {
            let page = self.page_or_new(*page);
            for w in (0..PAGE_WORDS).filter(|&w| planes.known[w] != 0) {
                let landed = page.merge_word(w, planes.known[w], planes.answer[w]);
                new += landed.count_ones() as usize;
            }
        }
        self.len.fetch_add(new, Ordering::Relaxed);
        self.stats
            .insertions
            .fetch_add(rows as u64, Ordering::Relaxed);
        let sink = offer
            .then(|| self.spill.read().unwrap_or_else(|e| e.into_inner()).clone())
            .flatten();
        if let Some(sink) = sink {
            sink.spill(self.namespace, pages);
        }
        rows
    }

    /// The page for `page_key`, created under the page table's write lock
    /// if absent.
    fn page_or_new(&self, page_key: usize) -> Arc<RowBits> {
        self.page(page_key).unwrap_or_else(|| {
            let mut pages = self.pages.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(
                pages
                    .entry(page_key)
                    .or_insert_with(|| Arc::new(RowBits::new(PAGE_ROWS))),
            )
        })
    }

    /// Every non-empty page's live entries, ascending by page: plain
    /// loads under the page table's read lock — no writer is frozen.
    fn planes(&self) -> Vec<(usize, PagePlanes)> {
        let pages = self.pages.read().unwrap_or_else(|e| e.into_inner());
        let copy = |(&page_key, page): (&usize, &Arc<RowBits>)| {
            let mut planes = PagePlanes::empty();
            for word in 0..PAGE_WORDS {
                let (known, answer) = page.word(word);
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

    /// Caches `value` for `key`: a one-row [`CacheHandle::insert_pages`].
    pub fn insert(&self, key: usize, value: bool) {
        self.insert_pages(&pages_of([(key, value)]))
    }

    /// Caches every row of `pages` — `(page number, planes)`, ascending
    /// by page — a word at a time (see the module docs). What the store
    /// holds and counts afterwards is what calling [`CacheHandle::insert`]
    /// per row would leave; the sink hears `pages` as one offer.
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
/// same answer, one hit or miss — but the cursor
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
    page: Option<Arc<RowBits>>,
    hits: u64,
    misses: u64,
}

impl CacheReader<'_> {
    /// The page holding row word `word`, if it exists.
    #[inline]
    fn page(&mut self, word: usize) -> Option<&RowBits> {
        if word / PAGE_WORDS != self.page_key {
            self.page_key = word / PAGE_WORDS;
            self.page = self.cache.page(self.page_key);
        }
        self.page.as_deref()
    }

    /// The cached rows of `[64 * word, 64 * word + 64)` as `(known,
    /// answer)` bit masks (bit `i` speaks for row `64 * word + i`;
    /// `answer` is meaningful only under `known`). Counts nothing: pair it
    /// with [`CacheReader::record`].
    #[inline]
    pub fn word(&mut self, word: usize) -> (u64, u64) {
        match self.page(word) {
            Some(page) => page.word(word % PAGE_WORDS),
            None => (0, 0),
        }
    }

    /// Accounts for lookups answered from [`CacheReader::word`]: the rows
    /// of `hits` (a mask over one row word) were served, one hit each, and
    /// `misses` lookups found nothing.
    #[inline]
    pub fn record(&mut self, hits: u64, misses: u64) {
        self.hits += u64::from(hits.count_ones());
        self.misses += misses;
    }

    /// The cached answer for `key`, if present.
    #[inline]
    pub fn get(&mut self, key: usize) -> Option<bool> {
        let (known, answer) = self.word(key / 64);
        let bit = 1u64 << (key % 64);
        let hit = known & bit;
        self.record(hit, u64::from(hit == 0));
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

/// The cross-query evaluation cache: a map of namespaces, shared by every
/// query an engine session runs.
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
                Arc::clone(&self.stats),
                Arc::clone(&self.spill),
                born,
            ))
        });
        Arc::clone(cache)
    }
}

impl CacheStore {
    /// An empty store: no namespaces, no TTL, no sink.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(StoreInner {
                namespaces: RwLock::new(Namespaces::default()),
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
    /// every fresh insert; prefill never touches the sink (its rows are
    /// already durable; see [`CacheStore::prefill`]).
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
    /// pages land as a [`CacheHandle::insert_pages`] batch does, a word at
    /// a time. The loaded entries came *from* the sink, so prefill is
    /// safe to call while holding locks the sink would re-take.
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
    use expred_stats::bits::rows_of;

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
    fn pages_follow_the_cached_rows_not_the_largest_key() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1, 0));
        let pages = |h: &CacheHandle| h.cache.pages.read().unwrap().len();
        // A sparse huge key costs one page, not a plane up to it.
        h.insert(1 << 40, true);
        assert_eq!((h.get(1 << 40), pages(&h)), (Some(true), 1));
        // Rows across a word boundary share a page; the next page edge
        // opens one more, and every entry stays.
        for (key, pages_after) in [(63, 2), (64, 2), (4_096, 3)] {
            h.insert(key, key % 2 == 0);
            assert_eq!(h.get(key), Some(key % 2 == 0));
            assert_eq!(pages(&h), pages_after, "after inserting {key}");
        }
        assert_eq!((h.len(), h.get(1 << 40)), (4, Some(true)));
        assert_eq!(store.stats().evictions, 0);
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
    fn spill_sink_wired_late_still_hears_old_namespaces() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1, 0));
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        h.insert(5, false);
        assert_eq!(sink.offers(), vec![(ns(1, 1, 0), 5, false)]);
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
        // Eight writers, no lock ordering them. Worker `w` writes rows
        // `[1000 w, 1000 w + 5000)` as batches, overlapping its
        // neighbours' over three pages, after writing row `w` of pages
        // 3..515 one at a time, so every worker races the others to open
        // each of those pages. A ninth thread prefills the first three
        // pages meanwhile. Each row must still count once in `len`, and
        // every answer must land.
        const WORKERS: usize = 8;
        let answer = |row: usize| row.is_multiple_of(3);
        let shared = |w: usize| 1_000 * w..1_000 * w + 5_000;
        let opener = |w: usize| (3..515).map(move |page| page * PAGE_ROWS + w);
        let store = CacheStore::new();
        let barrier = std::sync::Barrier::new(WORKERS + 1);
        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let (store, barrier) = (store.clone(), &barrier);
                scope.spawn(move || {
                    let h = store.handle(ns(1, 1, 0));
                    barrier.wait();
                    for row in opener(worker) {
                        h.insert(row, answer(row));
                    }
                    for chunk in shared(worker).collect::<Vec<_>>().chunks(100) {
                        h.insert_pages(&pages_of(chunk.iter().map(|&row| (row, answer(row)))));
                    }
                });
            }
            let (store, barrier) = (store.clone(), &barrier);
            scope.spawn(move || {
                barrier.wait();
                let prefilled = (0..shared(WORKERS - 1).end).step_by(7);
                let pages = pages_of(prefilled.map(|row| (row, answer(row))));
                store.prefill(ns(1, 1, 0), &pages, Duration::ZERO);
            });
        });
        let mut distinct: Vec<usize> = (0..WORKERS).flat_map(opener).collect();
        distinct.extend(0..shared(WORKERS - 1).end);
        let offered = WORKERS * (shared(0).len() + opener(0).len())
            + (0..shared(WORKERS - 1).end).step_by(7).len();
        assert_eq!(store.len(), distinct.len());
        assert_eq!(store.stats().insertions as usize, offered);
        // Every answer reads back, and nothing else is cached.
        distinct.sort_unstable();
        let expected: Vec<(usize, bool)> = distinct.iter().map(|&r| (r, answer(r))).collect();
        let h = store.handle(ns(1, 1, 0));
        assert_eq!(rows_of(&h.cache.planes()).collect::<Vec<_>>(), expected);
        for &row in &distinct {
            assert_eq!(h.get(row), Some(answer(row)), "row {row}");
        }
    }
}
