//! [`CacheStore`]: the long-lived, cross-query evaluation cache.
//!
//! The paper's §4.2 observation — an already-evaluated tuple "can be
//! simply returned as part of the query result without re-evaluating" —
//! does not stop at a query boundary. An invoker's own memo is the
//! *within-query* one; this store is the *cross-query* one: entries are
//! namespaced by `(udf, table)`, a namespace keeps every answer it is
//! given, and the store reports hit/miss/invalidation statistics.
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
//! Within a page, `RowBits::merge_word` stores the answers, then
//! publishes `known` with one `fetch_or` whose previous value hands each
//! newly known row to exactly one writer — so `len` counts every row
//! once, however many writers raced to land it, and `passed` counts each
//! of those rows that passed once, by the answer that landed it.
//!
//! # Observed pass rates
//!
//! A namespace holds every answer its UDF gave over one table state, so
//! its pass rate is `passed / len` ([`CacheStore::pass_rate`]). The
//! expression optimizer ranks `AND`/`OR` siblings by it. The rate lives
//! and dies with the answers: a swept namespace has none, and a
//! rehydrated one has it back.
//!
//! # Keying and invalidation
//!
//! A [`CacheNamespace`] is two raw `u64`s so this crate stays
//! foundational (no dependency on the table/UDF crates): the UDF's
//! fingerprint and the table's id. The id names one content state: a
//! mutated table gets a fresh id, so it is simply a *different*
//! namespace, and stale entries become unreachable immediately. The
//! superseded state's namespace is freed like a dropped table's (see
//! below), once no clone of that state is left.
//!
//! # Liveness
//!
//! A namespace is worth keeping only while its table can still be asked
//! about. Every borrow names the table's *owner* — an `Arc` that every
//! clone of the table state shares and nothing else holds — and the store
//! keeps a `Weak` to it beside the namespace. Once the owner is dead no
//! one can borrow the namespace again (a re-built or mutated table gets a
//! fresh id), so the store drops it. The sweep runs on the borrow's
//! write-lock path once the namespaces have doubled since the last
//! sweep, so its work is O(1) per borrow, and [`CacheStore::num_namespaces`]
//! runs it on demand. Once the store's lock is released, the sink hears
//! that each swept table is gone ([`SpillSink::table_dropped`]) and the
//! swept namespaces are freed. Their answers are not offered again: the
//! sink heard each one as it entered. The row tier is thus bounded by
//! the tables that are live.
//!
//! # Consistency contract
//!
//! Answers leave a namespace only with their table: a namespace
//! disappears for good once its table dies, and never before. A borrowed
//! handle keeps its namespace alive. No live table loses a namespace to
//! the liveness sweep: the sweep drops only namespaces whose owner is
//! dead, and a dead `Arc` never revives. Callers that need
//! read-your-writes stability within one query — the paper's
//! sample-reuse logic does — layer a per-query memo in front (the
//! invoker does exactly that).

use crate::cache::RowBits;
use expred_stats::bits::{pages_of, PagePlanes, PAGE_ROWS, PAGE_WORDS};
use std::any::Any;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};

/// Receives cache writes for durable storage, and the death of each
/// table the store has seen.
///
/// Every query engine installs one sink on its store: a table's death
/// ([`SpillSink::table_dropped`]) is the engine's signal to drop what
/// the table bought in its other tiers (its memoized results, its
/// durable registration), and offers reach disk only when persistence
/// is wired. A bare store has no sink until [`CacheStore::set_spill`].
///
/// A sink hears each answer exactly once: as it *enters* a namespace
/// (fresh evaluations — the invoker only writes through on fresh). It
/// never hears [`CacheStore::prefill`]ed entries: those came *from* the
/// sink. A table's death offers nothing (see the module docs).
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

    /// Hears that the table with instance id `table` has died: the store
    /// has dropped its namespaces. No borrow can name the table again, so
    /// whatever the sink keeps for it can go. The default forgets
    /// nothing.
    fn table_dropped(&self, _table: u64) {}
}

/// The store's current sink, shared by every namespace so
/// [`CacheStore::set_spill`] reaches caches created before wiring.
type SharedSink = Arc<RwLock<Option<Arc<dyn SpillSink>>>>;

/// The key of one cache namespace: which UDF over which table state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheNamespace {
    /// The UDF's stable fingerprint.
    pub udf: u64,
    /// The table's id, which names one content state.
    pub table: u64,
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
        /// Entries discarded with their namespace because its table died
        /// (see the module docs).
        invalidated,
        /// Always 0: answers leave only with their table. Still exported
        /// because the benchmark harness (`benchmark/src/http_run.rs`) and
        /// the metrics goldens read it (ROADMAP direction 4 removes it).
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
    /// Of the `len` rows, those whose answer was `true`.
    passed: AtomicUsize,
    stats: Arc<AtomicStats>,
    /// The store's sink slot (shared, so late wiring applies to every
    /// namespace); `None` until a sink is installed.
    spill: SharedSink,
}

impl NamespaceCache {
    fn new(namespace: CacheNamespace, stats: Arc<AtomicStats>, spill: SharedSink) -> Self {
        Self {
            namespace,
            pages: RwLock::new(BTreeMap::new()),
            len: AtomicUsize::new(0),
            passed: AtomicUsize::new(0),
            stats,
            spill,
        }
    }

    fn page(&self, page_key: usize) -> Option<Arc<RowBits>> {
        let pages = self.pages.read().unwrap_or_else(|e| e.into_inner());
        pages.get(&page_key).cloned()
    }

    /// Lands the rows of `pages` (ascending by page, as every crossing
    /// carries them) a word at a time and returns their count. The sink
    /// is not touched: [`NamespaceCache::insert_pages`] offers, and the
    /// prefill path stays sink-silent, which is what lets a caller
    /// prefill while holding locks the sink would re-take (the
    /// rehydration path holds its table registry's write lock). Planes
    /// are only read, so shared ones (`Arc<PagePlanes>`) land uncopied.
    fn land<P: Borrow<PagePlanes>>(&self, pages: &[(usize, P)]) -> usize {
        let rows: usize = pages.iter().map(|(_, planes)| planes.borrow().len()).sum();
        if rows == 0 {
            return 0;
        }
        let (mut new, mut passed) = (0, 0);
        for (page, planes) in pages {
            let planes: &PagePlanes = planes.borrow();
            if planes.is_empty() {
                continue;
            }
            let page = self.page_or_new(*page);
            for w in (0..PAGE_WORDS).filter(|&w| planes.known[w] != 0) {
                let landed = page.merge_word(w, planes.known[w], planes.answer[w]);
                new += landed.count_ones() as usize;
                passed += (landed & planes.answer[w]).count_ones() as usize;
            }
        }
        self.len.fetch_add(new, Ordering::Relaxed);
        self.passed.fetch_add(passed, Ordering::Relaxed);
        self.stats
            .insertions
            .fetch_add(rows as u64, Ordering::Relaxed);
        rows
    }

    /// Lands the rows of `pages` as [`NamespaceCache::land`] does and
    /// offers the spill sink exactly those pages.
    fn insert_pages(&self, pages: &[(usize, PagePlanes)]) {
        if self.land(pages) == 0 {
            return;
        }
        let sink = self.spill.read().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(sink) = sink {
            sink.spill(self.namespace, pages);
        }
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
        self.cache.insert_pages(pages);
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

/// What owns a namespace: the table's shared identity, held weakly.
type Owner = Weak<dyn Any + Send + Sync>;

/// One namespace and its table's owner. It lives as long as its table;
/// only the liveness sweep removes it.
#[derive(Debug)]
struct Entry {
    cache: Arc<NamespaceCache>,
    owner: Owner,
}

/// The namespace table and the liveness sweep's bookkeeping, under one
/// lock.
#[derive(Debug, Default)]
struct Namespaces {
    map: HashMap<CacheNamespace, Entry>,
    /// How many namespaces the last liveness sweep left; the next one is
    /// due once there are more than twice as many.
    swept_at: usize,
}

impl Namespaces {
    /// Whether the namespaces have more than doubled since the last
    /// sweep: the sweep's work, one look per namespace, is then paid for
    /// by the borrows that created the namespaces added since.
    fn sweep_due(&self) -> bool {
        self.map.len() > 2 * self.swept_at
    }

    /// Drops every namespace whose owner is dead and returns their
    /// caches, to be freed once the lock is released. Their entries count
    /// as invalidated.
    fn sweep(&mut self, stats: &AtomicStats) -> Vec<Arc<NamespaceCache>> {
        let mut swept = Vec::new();
        self.map.retain(|_, entry| {
            let live = entry.owner.strong_count() > 0;
            if !live {
                swept.push(Arc::clone(&entry.cache));
            }
            live
        });
        self.swept_at = self.map.len();
        let dropped: usize = swept.iter().map(|cache| cache.len()).sum();
        stats
            .invalidated
            .fetch_add(dropped as u64, Ordering::Relaxed);
        swept
    }
}

#[derive(Debug)]
struct StoreInner {
    namespaces: RwLock<Namespaces>,
    stats: Arc<AtomicStats>,
    /// The sink slot shared with every namespace (see [`SharedSink`]);
    /// empty until [`CacheStore::set_spill`].
    spill: SharedSink,
}

impl StoreInner {
    fn read(&self) -> RwLockReadGuard<'_, Namespaces> {
        self.namespaces.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Namespaces> {
        self.namespaces.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The cache of `namespace`, created owned by `owner` if absent.
    fn entry<T: Any + Send + Sync>(
        &self,
        guard: &mut Namespaces,
        namespace: CacheNamespace,
        owner: &Arc<T>,
    ) -> Arc<NamespaceCache> {
        let entry = guard.map.entry(namespace).or_insert_with(|| Entry {
            cache: Arc::new(NamespaceCache::new(
                namespace,
                Arc::clone(&self.stats),
                Arc::clone(&self.spill),
            )),
            owner: Arc::downgrade(owner) as Owner,
        });
        Arc::clone(&entry.cache)
    }

    /// Names each table a sweep dropped a namespace of dead to the spill
    /// sink, once, and frees the dropped caches. Called with the store's
    /// lock released, since the sink may take locks of its own.
    fn retire(&self, swept: Vec<Arc<NamespaceCache>>) {
        if swept.is_empty() {
            return;
        }
        let mut tables: Vec<u64> = swept.iter().map(|cache| cache.namespace.table).collect();
        tables.sort_unstable();
        tables.dedup();
        let sink = self.spill.read().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(sink) = sink {
            for table in tables {
                sink.table_dropped(table);
            }
        }
    }
}

impl CacheStore {
    /// An empty store: no namespaces, no sink.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(StoreInner {
                namespaces: RwLock::new(Namespaces::default()),
                stats: Arc::new(AtomicStats::default()),
                spill: Arc::new(RwLock::new(None)),
            }),
        }
    }

    /// Installs (or removes, with `None`) the spill sink.
    ///
    /// The slot is shared with every namespace, including ones created
    /// before this call, so wiring order doesn't matter. The sink hears
    /// every fresh insert; prefill never touches the sink (its rows are
    /// already durable; see [`CacheStore::prefill`]).
    pub fn set_spill(&self, sink: Option<Arc<dyn SpillSink>>) {
        *self.inner.spill.write().unwrap_or_else(|e| e.into_inner()) = sink;
    }

    /// Borrows the cache for `namespace`, creating it on first use.
    /// `owner` is the table's shared identity (see the module docs): the
    /// namespace lives no longer than it.
    ///
    /// Concurrent borrows of the same namespace are the common case for a
    /// shared engine and return clones of one `Arc`'d cache; the steady
    /// state (the namespace exists) is one map lookup under the shared
    /// read lock, so worker threads starting queries do not serialize on
    /// each other. A borrow that takes the write lock also runs the
    /// liveness sweep when it is due, and names the tables it swept dead
    /// to the sink after releasing the lock.
    pub fn handle<T: Any + Send + Sync>(
        &self,
        namespace: CacheNamespace,
        owner: &Arc<T>,
    ) -> CacheHandle {
        if let Some(entry) = self.inner.read().map.get(&namespace) {
            let cache = Arc::clone(&entry.cache);
            return CacheHandle { namespace, cache };
        }
        let mut guard = self.inner.write();
        let cache = self.inner.entry(&mut guard, namespace, owner);
        let swept = if guard.sweep_due() {
            guard.sweep(&self.inner.stats)
        } else {
            Vec::new()
        };
        drop(guard);
        self.inner.retire(swept);
        CacheHandle { namespace, cache }
    }

    /// Bulk-loads rehydrated pages into `namespace`, owned by `owner` as
    /// in [`CacheStore::handle`], without touching the spill sink at all,
    /// and returns the number of rows loaded. The pages land as a
    /// [`CacheHandle::insert_pages`] batch does, a word at a time. The
    /// loaded entries came *from* the sink, and prefill never runs the
    /// liveness sweep (whose death signals reach the sink), so prefill is
    /// safe to call while holding locks the sink would re-take. A batch
    /// with no rows creates no namespace. The planes are only read, so a
    /// caller may hand over shared ones (`Arc<PagePlanes>`, as the
    /// durable store's read-back gives them) without copying.
    pub fn prefill<T: Any + Send + Sync, P: Borrow<PagePlanes>>(
        &self,
        namespace: CacheNamespace,
        owner: &Arc<T>,
        pages: &[(usize, P)],
    ) -> usize {
        if pages.iter().all(|(_, planes)| planes.borrow().is_empty()) {
            return 0;
        }
        let cache = self.inner.entry(&mut self.inner.write(), namespace, owner);
        cache.land(pages)
    }

    /// Visits every namespace's live entries as its non-empty pages,
    /// ascending — the spill-on-flush walk, one slice per namespace
    /// (empty ones are skipped). Entries are read without freezing
    /// writers, so concurrent inserts may or may not be visited; every
    /// entry present for the whole walk is.
    pub fn for_each_namespace(&self, mut f: impl FnMut(CacheNamespace, &[(usize, PagePlanes)])) {
        let caches: Vec<Arc<NamespaceCache>> = self
            .inner
            .read()
            .map
            .values()
            .map(|entry| Arc::clone(&entry.cache))
            .collect();
        for cache in caches {
            let pages = cache.planes();
            if !pages.is_empty() {
                f(cache.namespace, &pages);
            }
        }
    }

    /// The observed pass rate of `namespace` — its passed rows over its
    /// known rows — or `None` if it holds no answers (never borrowed,
    /// empty or dropped). A read-only lookup: it creates no namespace.
    pub fn pass_rate(&self, namespace: CacheNamespace) -> Option<f64> {
        let guard = self.inner.read();
        let cache = &guard.map.get(&namespace)?.cache;
        let len = cache.len();
        if len == 0 {
            return None;
        }
        // A read racing a write may see a batch in one counter and not
        // yet in the other; the clamp keeps the rate a rate.
        let passed = cache.passed.load(Ordering::Relaxed).min(len);
        Some(passed as f64 / len as f64)
    }

    /// Number of namespaces the store holds once the liveness sweep has
    /// dropped those of dead tables: it runs the sweep now, whether due
    /// or not, and names the tables it dropped dead to the sink.
    pub fn num_namespaces(&self) -> usize {
        let mut guard = self.inner.write();
        let swept = guard.sweep(&self.inner.stats);
        let live = guard.map.len();
        drop(guard);
        self.inner.retire(swept);
        live
    }

    /// Total live entries across namespaces.
    pub fn len(&self) -> usize {
        self.inner.read().map.values().map(|e| e.cache.len()).sum()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store-wide statistics since construction.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats.snapshot()
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

    fn ns(udf: u64, table: u64) -> CacheNamespace {
        CacheNamespace { udf, table }
    }

    /// An owner that never dies, for the tests about everything but
    /// liveness.
    fn live() -> &'static Arc<()> {
        static OWNER: std::sync::OnceLock<Arc<()>> = std::sync::OnceLock::new();
        OWNER.get_or_init(|| Arc::new(()))
    }

    #[test]
    fn get_insert_round_trips_and_counts() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1), live());
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
        let h = store.handle(ns(1, 1), live());
        for key in (0..200).step_by(2) {
            h.insert(key, key % 4 == 0);
        }
        let keys: Vec<usize> = (0..200).collect();
        let batched = h.get_many(&keys);
        let batched_stats = store.stats();

        let twin = CacheStore::new();
        let th = twin.handle(ns(1, 1), live());
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
        let a = store.handle(ns(1, 1), live());
        let b = store.handle(ns(2, 1), live());
        a.insert(7, true);
        assert_eq!(b.get(7), None);
        assert_eq!(a.get(7), Some(true));
        assert_eq!(store.num_namespaces(), 2);
    }

    #[test]
    fn handles_share_one_namespace() {
        let store = CacheStore::new();
        let a = store.handle(ns(1, 1), live());
        let b = store.handle(ns(1, 1), live());
        a.insert(5, true);
        assert_eq!(b.get(5), Some(true));
        assert_eq!(store.num_namespaces(), 1);
    }

    #[test]
    fn version_bump_invalidates_and_old_versions_are_eventually_gced() {
        // A mutated table is a new table: a new id with a new owner.
        let store = CacheStore::new();
        let (old, new) = (Arc::new(()), Arc::new(()));
        let v0 = store.handle(ns(1, 9), &old);
        v0.insert(1, true);
        v0.insert(2, false);
        // The new state never sees the old state's entries…
        let v1 = store.handle(ns(1, 10), &new);
        assert_eq!(v1.get(1), None);
        // …and the old state keeps them while a clone of it lives…
        assert_eq!(store.num_namespaces(), 2);
        assert_eq!(store.stats().invalidated, 0);
        // …and no longer.
        drop(old);
        assert_eq!(store.num_namespaces(), 1);
        assert_eq!(
            store.stats().invalidated,
            2,
            "the old state's entries dropped"
        );
        // The orphaned handle still works: its Arc is alive.
        assert_eq!(v0.get(1), Some(true));
    }

    #[test]
    fn alternating_diverged_clones_do_not_thrash_each_other() {
        // Two live states of one UDF's namespaces — e.g. diverged clones,
        // each a table of its own — queried alternately keep their caches
        // intact.
        let store = CacheStore::new();
        let (left, right) = (Arc::new(()), Arc::new(()));
        store.handle(ns(1, 9), &left).insert(1, true);
        store.handle(ns(1, 10), &right).insert(2, false);
        for _ in 0..10 {
            assert_eq!(store.handle(ns(1, 9), &left).get(1), Some(true));
            assert_eq!(store.handle(ns(1, 10), &right).get(2), Some(false));
        }
        assert_eq!(store.stats().invalidated, 0);
        assert_eq!(store.num_namespaces(), 2);
    }

    #[test]
    fn pages_follow_the_cached_rows_not_the_largest_key() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1), live());
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
    fn pass_rate_is_passed_over_known_rows_and_only_reads() {
        let store = CacheStore::new();
        assert_eq!(store.pass_rate(ns(1, 9)), None);
        assert_eq!(store.num_namespaces(), 0, "a lookup creates nothing");
        let h = store.handle(ns(1, 9), live());
        assert_eq!(store.pass_rate(ns(1, 9)), None, "no answers yet");
        h.insert_pages(&pages_of((0..40).map(|row| (row, row < 10))));
        // A re-offer lands nothing new, so it moves neither count.
        h.insert_pages(&pages_of((0..40).map(|row| (row, row < 10))));
        assert_eq!(store.pass_rate(ns(1, 9)), Some(0.25));
        // Another table state is its own namespace, and its rate goes
        // with its answers when its table dies.
        let other = Arc::new(());
        store.handle(ns(1, 10), &other).insert(0, true);
        assert_eq!(store.pass_rate(ns(1, 10)), Some(1.0));
        drop(other);
        assert_eq!(store.num_namespaces(), 1);
        assert_eq!(store.pass_rate(ns(1, 10)), None);
        assert_eq!(store.pass_rate(ns(1, 9)), Some(0.25));
    }

    #[test]
    fn clones_share_storage() {
        let store = CacheStore::new();
        let view = store.clone();
        store.handle(ns(1, 1), live()).insert(3, true);
        assert_eq!(view.handle(ns(1, 1), live()).get(3), Some(true));
    }

    /// A sink that records every offer and every dropped table, for
    /// spill-path tests.
    #[derive(Debug, Default)]
    struct RecordingSink {
        offers: std::sync::Mutex<Vec<(CacheNamespace, usize, bool)>>,
        dropped: std::sync::Mutex<Vec<u64>>,
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

        fn table_dropped(&self, table: u64) {
            self.dropped.lock().unwrap().push(table);
        }
    }

    impl RecordingSink {
        fn offers(&self) -> Vec<(CacheNamespace, usize, bool)> {
            self.offers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone()
        }

        fn dropped(&self) -> Vec<u64> {
            self.dropped.lock().unwrap().clone()
        }
    }

    #[test]
    fn a_dead_tables_namespaces_are_offered_nothing_and_dropped_once() {
        let store = CacheStore::new();
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        let (table, other) = (Arc::new(()), Arc::new(()));
        // Two UDFs over one table: one namespace prefilled and then
        // written, one empty. Another table stays live.
        store.prefill(ns(1, 9), &table, &pages_of([(3, true)]));
        store.handle(ns(1, 9), &table).insert(4, false);
        store.handle(ns(2, 9), &table);
        store.handle(ns(1, 8), &other).insert(5, true);
        let fresh = sink.offers();
        assert_eq!(fresh.len(), 2, "the two inserts");
        // Alive, the table keeps everything through a sweep.
        assert_eq!(store.num_namespaces(), 3);
        assert_eq!(sink.offers(), fresh);
        drop(table);
        assert_eq!(store.num_namespaces(), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().invalidated, 2);
        // The sink heard each answer as it entered, and nothing more: the
        // dead namespaces are offered nothing, and the table is named
        // dropped, once.
        assert_eq!(sink.offers(), fresh, "a death offers nothing");
        assert_eq!(sink.dropped(), [9]);
        assert_eq!(store.num_namespaces(), 1);
        assert_eq!(sink.dropped(), [9], "a table is dropped once");
        assert_eq!(store.handle(ns(1, 8), &other).get(5), Some(true));
    }

    #[test]
    fn borrows_sweep_dead_tables_once_the_pairs_double() {
        let store = CacheStore::new();
        let keep = Arc::new(());
        store.handle(ns(1, 0), &keep).insert(0, true);
        let mut most = 0;
        for table in 1..=1_000 {
            let owner = Arc::new(());
            store.handle(ns(1, table), &owner).insert(1, true);
            drop(owner);
            // Two namespaces are live at the borrow (`keep`'s and the
            // new one), so a sweep is due by the fifth.
            let held = store.inner.read().map.len();
            assert!(held <= 4, "{held} namespaces held after table {table}");
            most = most.max(held);
        }
        assert_eq!(most, 4, "sweeps are amortised, not run on every borrow");
        assert!(store.stats().invalidated >= 997, "the borrows swept");
        assert_eq!(store.num_namespaces(), 1);
        assert_eq!(store.stats().invalidated, 1_000);
        assert_eq!(store.handle(ns(1, 0), &keep).get(0), Some(true));
    }

    #[test]
    fn spill_sink_hears_inserts_but_not_prefill() {
        let store = CacheStore::new();
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        // Prefilled entries must not echo back to the sink.
        assert_eq!(
            store.prefill(ns(1, 1), live(), &pages_of([(10, true), (11, false)])),
            2
        );
        assert!(sink.offers().is_empty());
        // Fresh inserts do reach it — including on namespaces created
        // before the sink was wired (the slot is shared).
        store.handle(ns(1, 1), live()).insert(12, true);
        assert_eq!(sink.offers(), vec![(ns(1, 1), 12, true)]);
        // And prefilled entries are still readable.
        assert_eq!(store.handle(ns(1, 1), live()).get(10), Some(true));
        assert_eq!(store.handle(ns(1, 1), live()).get(11), Some(false));
    }

    #[test]
    fn spill_sink_wired_late_still_hears_old_namespaces() {
        let store = CacheStore::new();
        let h = store.handle(ns(1, 1), live());
        let sink = Arc::new(RecordingSink::default());
        store.set_spill(Some(sink.clone() as Arc<dyn SpillSink>));
        h.insert(5, false);
        assert_eq!(sink.offers(), vec![(ns(1, 1), 5, false)]);
    }

    #[test]
    fn for_each_entry_visits_every_namespace() {
        let store = CacheStore::new();
        store.handle(ns(1, 1), live()).insert(1, true);
        store.handle(ns(2, 1), live()).insert(2, false);
        store.prefill(ns(3, 1), live(), &pages_of([(3, true)]));
        let mut seen: Vec<(CacheNamespace, usize, bool)> = Vec::new();
        store.for_each_namespace(|namespace, pages| {
            seen.extend(rows_of(pages).map(|(row, answer)| (namespace, row, answer)));
        });
        seen.sort_by_key(|(n, r, _)| (n.udf, *r));
        assert_eq!(
            seen,
            vec![
                (ns(1, 1), 1, true),
                (ns(2, 1), 2, false),
                (ns(3, 1), 3, true),
            ]
        );
    }

    #[test]
    fn prefilled_namespaces_leave_with_their_table() {
        let store = CacheStore::new();
        let table = Arc::new(());
        store.handle(ns(1, 9), &table).insert(1, true);
        // Prefill lands beside a live namespace's answers, and a
        // namespace it creates is owned as a borrowed one is.
        store.prefill(ns(1, 9), &table, &pages_of([(2, false)]));
        store.prefill(ns(2, 9), &table, &pages_of([(1, false)]));
        let h = store.handle(ns(1, 9), &table);
        assert_eq!((h.get(1), h.get(2)), (Some(true), Some(false)));
        assert_eq!(store.num_namespaces(), 2);
        drop(table);
        assert_eq!(store.num_namespaces(), 0);
        assert_eq!(store.stats().invalidated, 3);
    }

    #[test]
    fn concurrent_borrowers_land_every_entry() {
        // Eight writers, no lock ordering them. Worker `w` writes rows
        // `[1000 w, 1000 w + 5000)` as batches, overlapping its
        // neighbours' over three pages, after writing row `w` of pages
        // 3..515 one at a time, so every worker races the others to open
        // each of those pages. A ninth thread prefills the first three
        // pages meanwhile. Each row must still count once in `len` (and
        // in `passed` if its answer is `true`), and every answer must land.
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
                    let h = store.handle(ns(1, 1), live());
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
                store.prefill(ns(1, 1), live(), &pages);
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
        let h = store.handle(ns(1, 1), live());
        let landed = h.cache.planes();
        assert_eq!(rows_of(&landed).collect::<Vec<_>>(), expected);
        let passed: usize = landed
            .iter()
            .flat_map(|(_, planes)| planes.answer.iter())
            .map(|word| word.count_ones() as usize)
            .sum();
        assert_eq!(h.cache.passed.load(Ordering::Relaxed), passed);
        let rate = passed as f64 / distinct.len() as f64;
        assert_eq!(store.pass_rate(ns(1, 1)), Some(rate));
        for &row in &distinct {
            assert_eq!(h.get(row), Some(answer(row)), "row {row}");
        }
    }
}
