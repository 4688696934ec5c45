//! The audited UDF gateway.
//!
//! All algorithm code reaches the UDF through [`UdfInvoker`], never through
//! [`crate::udf::BooleanUdf`] directly. The invoker
//!
//! * charges every retrieval and evaluation to a shared
//!   [`crate::cost::CostTracker`] (so experiment costs include
//!   sampling, exactly as the paper requires: "The cost of sampling tuples
//!   to estimate the selectivity is included in the cost of the
//!   algorithms", §6.2), and
//! * memoizes evaluations per row, implementing the paper's observation
//!   that already-sampled tuples "can be simply returned as part of the
//!   query result without re-evaluating them" (§4.2).
//!
//! # The read path
//!
//! Row ids are dense, so both cache layers are bit planes over 64-row
//! words: the per-query memo is two plain planes sized to the table,
//! `known` and `answer`, private to the query (the invoker is `Send`
//! but not `Sync`), the session store behind it lock-free pages of the
//! same planes shared by every query ([`expred_exec::CacheStore`]). The
//! unit of a read is therefore the word, not the row. A visit to a word
//! loads the memo's `(known, answer)` planes for it — and the store's,
//! once a row the memo cannot decide needs them — answers from those
//! copies, and on leaving *settles* the word once: store hits are
//! promoted into the memo with two plain stores and counted — with the
//! visit's misses — toward the store's statistics; the reuse charge and the statistics land once per call.
//!
//! A warm query reads each word once. Its multi-row reads are planes:
//! the pipelines ask "which rows of these groups are already decided,
//! and which passed?" through [`UdfInvoker::scan_groups`], which reads
//! the union of every group's rows ([`GroupBy::row_plane`]) word by word
//! — one visit per word however many groups share it, every row of the
//! word answered at once: hits are `store.known & !memo.known & rows`,
//! misses a popcount — and hands back a decided plane and a passed plane
//! that a group's `(word, mask)` runs ([`GroupBy::runs`]) AND against to
//! tally with popcounts or OR into an answer; [`UdfInvoker::scan_plane`]
//! makes the same read of any plane (the rows of the groups a sampling
//! round is short in, a whole table). Every batch is a plane too: a
//! sampling round's draws, a plan's queued rows, a ranking sample and an
//! expression leaf's rows in play go to [`UdfInvoker::evaluate_plane`],
//! which makes the same read and sends only the undecided rows to the
//! executor, as one batch in ascending order — the bound probe is all
//! the executor's workers see of the invoker. Their answers come back as
//! a plane, land in the memo a word at a time and reach the session store
//! as the pages they fill ([`expred_exec::CacheHandle::insert_pages`]).
//! [`UdfInvoker::evaluate_batch`] is that path over a row list's distinct
//! rows. Only [`UdfInvoker::evaluate`] and [`UdfInvoker::known_many`]
//! move the cursor a row at a time. Whichever walk, the memo, the bill
//! and the store see exactly what a per-row loop over the same rows in
//! ascending order would have shown them — only the order of the store's
//! probes within a call differs, and the store's statistics do not
//! record order.
//!
//! The plane read is a bit-count kernel ([`read_plane`], defined through
//! [`expred_stats::bit_kernels`]): its per-word popcounts — the store's
//! misses, the memo's hits, the promotions — run with the POPCNT
//! instruction where the CPU has it, and [`portable::read_plane`] is the
//! same read compiled without it.

use crate::cost::{CostCounts, CostModel, CostTracker};
use crate::udf::{BooleanUdf, BoundUdf};
use expred_exec::{CacheHandle, CacheNamespace, CacheReader, ExecContext, Executor};
use expred_stats::bits::{PagePlanes, PAGE_WORDS};
use expred_table::rowset::bits;
use expred_table::{GroupBy, RowSet, Table};
use std::cell::Cell;

/// The cross-query cache namespace for `udf` over `table`'s current
/// state, or `None` when the UDF opted out of identity
/// ([`BooleanUdf::fingerprint`]).
pub fn cache_namespace(udf: &dyn BooleanUdf, table: &Table) -> Option<CacheNamespace> {
    udf.fingerprint().map(|id| CacheNamespace {
        udf: id.as_u64(),
        table: table.id().as_u64(),
        version: table.version(),
    })
}

/// The pages two planes over a table make — `known` and, under it,
/// `answer` — ascending, those without a row skipped.
fn page_planes(known: &[u64], answer: &[u64]) -> Vec<(usize, PagePlanes)> {
    let pages = known.chunks(PAGE_WORDS).zip(answer.chunks(PAGE_WORDS));
    pages
        .enumerate()
        .filter(|(_, (known, _))| known.iter().any(|&word| word != 0))
        .map(|(page, (known, answer))| {
            let mut planes = PagePlanes::empty();
            planes.known[..known.len()].copy_from_slice(known);
            planes.answer[..answer.len()].copy_from_slice(answer);
            (page, planes)
        })
        .collect()
}

/// One query's answers as two plain planes over the table's 64-row
/// words: bit `i` of `known[w]` says row `64 * w + i` is decided, the
/// same bit of `answer[w]` is its answer (zero where `known` is). Only
/// the invoker's own thread reads or writes it.
struct Memo {
    known: Box<[Cell<u64>]>,
    answer: Box<[Cell<u64>]>,
}

impl Memo {
    /// A memo without answers over rows `[0, rows)`.
    fn new(rows: usize) -> Self {
        let plane = || (0..rows.div_ceil(64)).map(|_| Cell::new(0)).collect();
        Self {
            known: plane(),
            answer: plane(),
        }
    }

    /// The `(known, answer)` planes of word `word`; zero past the end.
    #[inline(always)]
    fn word(&self, word: usize) -> (u64, u64) {
        match self.known.get(word) {
            Some(known) => (known.get(), self.answer[word].get()),
            None => (0, 0),
        }
    }

    /// Makes word `word`'s planes `(known, answer)`: two plain stores.
    #[inline(always)]
    fn set(&self, word: usize, (known, answer): (u64, u64)) {
        self.known[word].set(known);
        self.answer[word].set(answer);
    }

    /// Adds the rows of `rows` in word `word`, none of them decided yet,
    /// with their answers in `answer` (zero outside `rows`).
    #[inline(always)]
    fn add(&self, word: usize, rows: u64, answer: u64) {
        let (known, answers) = self.word(word);
        self.set(word, (known | rows, answers | answer));
    }
}

/// Counted, memoized access to a UDF over one table.
///
/// The per-query memo is two plain bit planes, private to the query: an
/// invoker is `Send` but not `Sync`, so one thread at a time reads and
/// writes it. What reaches the executor's workers is the bound probe
/// alone ([`UdfInvoker::evaluate_plane`] hands them the undecided rows),
/// never the invoker. The cost tracker is atomic, so invokers sharing
/// one tracker may run on different threads.
///
/// # Cross-query reuse
///
/// Built via [`UdfInvoker::with_context`] against a session's
/// [`expred_exec::CacheStore`], the invoker additionally *borrows* a
/// [`CacheHandle`] scoped to `(udf fingerprint, table id, table
/// version)`. Lookups layer local-memo-first, then the shared store: a
/// shared hit is *promoted* into the local memo and charged exactly once
/// as a [`CostCounts::reuse_hits`] — a promoted row is a memo hit from
/// then on — because the row's `o_e` was paid by an earlier query, not
/// this one. The memo is what keeps that local-versus-reuse split (and
/// what a store-less invoker has instead of a store); the store itself
/// never drops an entry a borrowed handle can see. Fresh evaluations are written through to
/// both layers. Without a context (or for UDFs with no fingerprint)
/// behavior is bit-identical to the pre-session invoker.
///
/// # Cost exactness under concurrent sessions
///
/// Many invokers on many threads may borrow the same store namespace at
/// once (a `Sync` query engine does exactly this). Each invoker still
/// charges every row it demands exactly once — as a fresh `evaluated`, a
/// local `cache_hit`, or a promoted `reuse_hit` — because the local memo
/// is consulted first and is private to the query: an invoker is not
/// `Sync`, so its calls never race on the memo, and only the store sees
/// concurrent readers and writers. Interleavings only shift *which*
/// bucket a row lands in (two queries racing on a session-cold row may
/// both pay `o_e` fresh where a serial ordering would have let the
/// second reuse), never the per-query total
/// [`CostCounts::demanded`]. Answers are unaffected either way: the
/// store is keyed by table version and UDFs are row-deterministic.
pub struct UdfInvoker<'a> {
    /// The UDF bound to `table` ([`BooleanUdf::bind`]): every fresh
    /// evaluation of the query probes through it.
    probe: BoundUdf<'a>,
    table: &'a Table,
    tracker: CostTracker,
    memo: Memo,
    shared: Option<CacheHandle>,
}

/// A read cursor over the local memo and, behind it, the shared store,
/// one 64-row word at a time: arriving at a word loads the memo's planes
/// for it (the store's follow when a row first needs them), its rows are
/// then answered from those copies — one at a time ([`Lookup::local`],
/// [`Lookup::shared`], for [`UdfInvoker::evaluate`] and
/// [`UdfInvoker::known_many`]) or a whole run at once ([`Lookup::run`]), store
/// hits collecting in `promote` — and leaving it writes the copies back
/// to the memo and settles the store's accounting.
struct Lookup<'i> {
    memo: &'i Memo,
    reader: Option<CacheReader<'i>>,
    /// The word the cursor is on (`usize::MAX`: none yet).
    word: usize,
    /// Rows of `word` this query holds an answer for — memoized on
    /// arrival, or promoted since — and those answers.
    local: (u64, u64),
    /// Rows of `word` the shared store held, and its answers — read when
    /// the visit first needs the store (`None` until then: a word whose
    /// rows the memo all decides costs the store nothing).
    shared: Option<(u64, u64)>,
    /// Store hits of this visit, awaiting promotion.
    promote: u64,
    /// Store misses of this visit.
    misses: u64,
    promoted: u64,
}

impl Lookup<'_> {
    /// Moves the cursor to `row`'s word and returns `row`'s bit in it.
    #[inline(always)]
    fn seek(&mut self, row: usize) -> u64 {
        if row / 64 != self.word {
            self.leave();
            self.word = row / 64;
            self.local = self.memo.word(self.word);
            self.shared = None;
        }
        1u64 << (row % 64)
    }

    /// The shared store's planes for the cursor's word; `None` without a
    /// store.
    #[inline(always)]
    fn store_word(&mut self) -> Option<(u64, u64)> {
        let reader = self.reader.as_mut()?;
        Some(*self.shared.get_or_insert_with(|| reader.word(self.word)))
    }

    /// The answer this query already holds for `row`: memoized, or a
    /// store hit promoted earlier in this call.
    #[inline]
    fn local(&mut self, row: usize) -> Option<bool> {
        let bit = self.seek(row);
        (self.local.0 & bit != 0).then_some(self.local.1 & bit != 0)
    }

    /// Probes the shared store for `row`, promoting a hit.
    #[inline]
    fn shared(&mut self, row: usize) -> Option<bool> {
        let bit = self.seek(row);
        let (known, answer) = self.store_word()?;
        if known & bit == 0 {
            self.misses += 1;
            return None;
        }
        self.promote |= bit;
        self.local.0 |= bit;
        self.local.1 |= answer & bit;
        Some(answer & bit != 0)
    }

    /// Answers every row of `mask` in `word` at once: what probing each
    /// (memo first, then the store) in ascending order would do. Returns
    /// the rows of `mask` now decided, of those the ones that passed, and
    /// of the decided ones those the store answered (the rest the memo
    /// already held).
    #[inline(always)]
    fn run(&mut self, word: usize, mask: u64) -> (u64, u64, u64) {
        self.seek(word * 64);
        let unknown = mask & !self.local.0;
        let mut hits = 0;
        if unknown != 0 {
            if let Some((known, answer)) = self.store_word() {
                hits = unknown & known;
                self.misses += u64::from((unknown & !hits).count_ones());
                self.promote |= hits;
                self.local.0 |= hits;
                self.local.1 |= answer & hits;
            }
        }
        let known = self.local.0 & mask;
        (known, self.local.1 & known, hits)
    }

    /// Lands this visit's store hits in the memo — two plain stores, the
    /// memo being this query's alone — and accounts for the visit's
    /// probes in the store: the one place a word is settled, whichever
    /// walk visited it.
    #[inline(always)]
    fn leave(&mut self) {
        if self.promote != 0 {
            self.memo.set(self.word, self.local);
            self.promoted += u64::from(self.promote.count_ones());
        }
        if self.promote != 0 || self.misses != 0 {
            if let Some(reader) = &mut self.reader {
                reader.record(self.promote, self.misses);
            }
            (self.promote, self.misses) = (0, 0);
        }
    }

    /// Ends the walk and charges the reuse.
    fn finish(mut self, tracker: &CostTracker) {
        self.leave();
        tracker.add_reuse_hits(self.promoted);
    }
}

expred_stats::bit_kernels! {
    /// What `invoker`'s query and session already hold for the rows of
    /// the plane `rows` — a set over the invoker's table — read a word at
    /// a time: each word loaded, its store hits promoted into the memo
    /// (and charged as reuse) and its probes settled once. Returns, per
    /// word of the table, the rows of `rows` now decided and those of
    /// them that passed, and how many decided rows the memo held before
    /// the read: the memo hits, for callers that charge them. The read
    /// behind [`UdfInvoker::scan_plane`] and
    /// [`UdfInvoker::evaluate_plane`].
    pub fn read_plane(invoker: &UdfInvoker<'_>, rows: &RowSet) -> (Vec<u64>, Vec<u64>, u64) {
        let words = invoker.table.num_rows().div_ceil(64);
        let (mut known, mut passed) = (vec![0u64; words], vec![0u64; words]);
        let mut memo_hits = 0u64;
        let mut lookup = invoker.lookup();
        for (word, &mask) in rows.words().iter().enumerate() {
            if mask != 0 {
                let (decided, answer, reused) = lookup.run(word, mask);
                (known[word], passed[word]) = (decided, answer);
                memo_hits += u64::from((decided & !reused).count_ones());
            }
        }
        lookup.finish(&invoker.tracker);
        (known, passed, memo_hits)
    }
}

impl<'a> UdfInvoker<'a> {
    /// Creates an invoker with a fresh cost tracker.
    pub fn new(udf: &'a dyn BooleanUdf, table: &'a Table) -> Self {
        Self::with_tracker(udf, table, CostTracker::new())
    }

    /// Creates an invoker charging to an existing tracker (lets a pipeline
    /// aggregate sampling and execution costs in one place).
    pub fn with_tracker(udf: &'a dyn BooleanUdf, table: &'a Table, tracker: CostTracker) -> Self {
        Self {
            probe: udf.bind(table),
            table,
            tracker,
            memo: Memo::new(table.num_rows()),
            shared: None,
        }
    }

    /// Creates an invoker for one query of a session: if the context
    /// carries a cache store and the UDF has a stable fingerprint, a
    /// [`CacheHandle`] is borrowed so answers outlive this query.
    pub fn with_context(udf: &'a dyn BooleanUdf, table: &'a Table, ctx: &ExecContext<'_>) -> Self {
        Self::with_tracker_and_context(udf, table, CostTracker::new(), ctx)
    }

    /// [`UdfInvoker::with_context`] charging to an existing tracker.
    pub fn with_tracker_and_context(
        udf: &'a dyn BooleanUdf,
        table: &'a Table,
        tracker: CostTracker,
        ctx: &ExecContext<'_>,
    ) -> Self {
        let ns = cache_namespace(udf, table);
        Self {
            shared: ctx
                .cache
                .zip(ns)
                .map(|(store, ns)| store.handle(ns, table.identity())),
            ..Self::with_tracker(udf, table, tracker)
        }
    }

    /// The table this invoker answers over.
    pub fn table(&self) -> &Table {
        self.table
    }

    fn lookup(&self) -> Lookup<'_> {
        Lookup {
            memo: &self.memo,
            reader: self.shared.as_ref().map(CacheHandle::reader),
            word: usize::MAX,
            local: (0, 0),
            shared: None,
            promote: 0,
            misses: 0,
            promoted: 0,
        }
    }

    /// Charges `n` tuple retrievals.
    pub fn charge_retrievals(&self, n: u64) {
        self.tracker.add_retrievals(n);
    }

    /// Evaluates the UDF on `row`, charging `o_e` unless this row was
    /// already evaluated (then the memoized answer is returned free).
    ///
    /// Retrieval is charged separately by the caller — the executor decides
    /// whether an evaluation happens on a freshly retrieved tuple.
    pub fn evaluate(&self, row: usize) -> bool {
        let mut lookup = self.lookup();
        let local = lookup.local(row);
        let known = local.or_else(|| lookup.shared(row));
        lookup.finish(&self.tracker);
        if let Some(answer) = known {
            self.tracker.add_cache_hits(u64::from(local.is_some()));
            return answer;
        }
        let answer = (self.probe)(row);
        self.tracker.add_evaluation();
        let bit = 1u64 << (row % 64);
        self.memo.add(row / 64, bit, if answer { bit } else { 0 });
        if let Some(shared) = &self.shared {
            shared.insert(row, answer);
        }
        answer
    }

    /// Evaluates the UDF on every row of `rows` through `executor`,
    /// returning answers in input order: [`UdfInvoker::evaluate_plane`]
    /// over the plane of the distinct rows, its answers read back by
    /// position. A repeated occurrence is a memo hit — the first one
    /// memoized the row, whatever it cost — so the bill, the memo and the
    /// store's hit/miss statistics are those of calling
    /// [`UdfInvoker::evaluate`] in a loop; only the order of the store's
    /// probes and of the executor's batch (ascending) differ, and neither
    /// is recorded.
    pub fn evaluate_batch(&self, executor: &dyn Executor, rows: &[usize]) -> Vec<bool> {
        let mut plane = RowSet::new(self.table.num_rows());
        for &row in rows {
            plane.insert(row);
        }
        self.tracker
            .add_cache_hits((rows.len() - plane.len()) as u64);
        let passed = self.evaluate_plane(executor, &plane);
        rows.iter().map(|&row| passed.contains(row)).collect()
    }

    /// Evaluates the UDF on the rows of the plane `rows` — a set over
    /// this invoker's table — through `executor`, returning the plane of
    /// those that passed. One word-wise read answers what the memo and
    /// the session store hold (a word's memo hits charged as hits, its
    /// store hits promoted and charged as reuse, the word settled once),
    /// and the undecided rows go to `executor` as one batch in ascending
    /// order, charged one evaluation each. Action for action the
    /// [`UdfInvoker::evaluate`] loop over the plane's rows in ascending
    /// order: same bill, same store probes, same memo, same store
    /// contents and sink offers.
    pub fn evaluate_plane(&self, executor: &dyn Executor, rows: &RowSet) -> RowSet {
        let (mut queued, mut passed, hits) = read_plane(self, rows);
        self.tracker.add_cache_hits(hits);
        // The decided plane becomes the undecided one, word by word.
        for (queued, &mask) in queued.iter_mut().zip(rows.words()) {
            *queued = mask & !*queued;
        }
        if queued.iter().any(|&word| word != 0) {
            let fresh = self.evaluate_fresh(executor, &queued);
            for (passed, fresh) in passed.iter_mut().zip(fresh) {
                *passed |= fresh;
            }
        }
        RowSet::from_words(passed)
    }

    /// Evaluates the rows of `queued` — a plane over the table of rows
    /// neither the memo nor the store could answer — as one executor
    /// batch in ascending order, and returns the plane of those that
    /// passed. The answers land in the memo a word at a time and in the
    /// session store as the `(page, planes)` pairs the two planes make,
    /// in one call.
    fn evaluate_fresh(&self, executor: &dyn Executor, queued: &[u64]) -> Vec<u64> {
        let mut fresh = Vec::new();
        for (word, &mask) in queued.iter().enumerate() {
            fresh.extend(bits(mask).map(|bit| word * 64 + bit as usize));
        }
        let answers = executor.evaluate_batch(&self.probe, &fresh);
        self.tracker.add_evaluations(fresh.len() as u64);
        let mut passed = vec![0u64; queued.len()];
        for (&row, answer) in fresh.iter().zip(answers) {
            passed[row / 64] |= u64::from(answer) << (row % 64);
        }
        for (word, (&queued, &passed)) in queued.iter().zip(&passed).enumerate() {
            if queued != 0 {
                self.memo.add(word, queued, passed);
            }
        }
        if let Some(shared) = &self.shared {
            shared.insert_pages(&page_planes(queued, &passed));
        }
        passed
    }

    /// The known answer for `row`, if this query or an earlier one in the
    /// session evaluated it. A free lookup cost-wise; a session-cache hit
    /// is promoted into the query's memo, so it counts once as a reuse
    /// and as a memo hit from then on.
    pub fn memoized(&self, row: usize) -> Option<bool> {
        self.known_many([row]).pop().flatten()
    }

    /// [`UdfInvoker::memoized`] for an arbitrary list of rows, in input
    /// order (a set of rows goes through [`UdfInvoker::scan_plane`]).
    /// Action for action the per-row loop (same answers, same
    /// promotions, one store hit or miss per probe), with the reuse
    /// charge and the store statistics added once per call.
    pub fn known_many(&self, rows: impl IntoIterator<Item = usize>) -> Vec<Option<bool>> {
        let mut lookup = self.lookup();
        let known = rows
            .into_iter()
            .map(|row| lookup.local(row).or_else(|| lookup.shared(row)))
            .collect();
        lookup.finish(&self.tracker);
        known
    }

    /// [`UdfInvoker::scan_plane`] over every row of `groups` in one
    /// word-major pass: the groups' runs in a word never overlap, so the
    /// pass reads their union ([`GroupBy::row_plane`]) and each 64-row
    /// word the grouping touches is loaded, promoted and settled once,
    /// however many groups have rows in it. A run `(word, mask)` of any
    /// group takes its `known` and `answer` masks with one AND each —
    /// `decided.word(word) & mask`, `passed.word(word) & mask` — and the
    /// store sees the probes one read per group would have made.
    pub fn scan_groups(&self, groups: &GroupBy) -> (RowSet, RowSet) {
        self.scan_plane(&groups.row_plane())
    }

    /// What this query or the session has decided of the rows of `rows`,
    /// a set over this invoker's table, and of those the ones that
    /// passed, as two planes over the table, read a word at a time: each
    /// 64-row word `rows` touches is loaded, its store hits promoted into
    /// the memo (and charged as reuse) and its probes settled once.
    /// Action for action [`UdfInvoker::known_many`] over the plane's rows
    /// in ascending order — same promotions, one store hit or miss per
    /// undecided row — with the reuse charge and
    /// the store statistics added once per call.
    pub fn scan_plane(&self, rows: &RowSet) -> (RowSet, RowSet) {
        let (decided, passed, _) = read_plane(self, rows);
        (RowSet::from_words(decided), RowSet::from_words(passed))
    }

    /// Retrieves and evaluates `row` in one step (charges both actions).
    pub fn retrieve_and_evaluate(&self, row: usize) -> bool {
        self.charge_retrievals(1);
        self.evaluate(row)
    }

    /// Retrieves and evaluates every row of `rows` through `executor`
    /// (charges one retrieval per row plus the batch's evaluations).
    pub fn retrieve_and_evaluate_batch(
        &self,
        executor: &dyn Executor,
        rows: &[usize],
    ) -> Vec<bool> {
        self.charge_retrievals(rows.len() as u64);
        self.evaluate_batch(executor, rows)
    }

    /// Current action counts.
    pub fn counts(&self) -> CostCounts {
        self.tracker.snapshot()
    }

    /// Total cost so far under `model`.
    pub fn cost(&self, model: &CostModel) -> f64 {
        self.counts().cost(model)
    }

    /// The shared tracker (for pipelines that stack invokers).
    pub fn tracker(&self) -> &CostTracker {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::OracleUdf;
    use expred_stats::bits::{rows_of, PagePlanes};
    use expred_table::{DataType, Field, Schema, Table, Value};

    impl Memo {
        /// The answer for `row`, if decided.
        fn get(&self, row: usize) -> Option<bool> {
            let (known, answer) = self.word(row / 64);
            let bit = 1u64 << (row % 64);
            (known & bit != 0).then_some(answer & bit != 0)
        }
    }

    fn table_with_labels(labels: &[bool]) -> Table {
        let schema = Schema::new(vec![Field::new("good", DataType::Bool)]);
        let rows = labels.iter().map(|&l| vec![Value::Bool(l)]).collect();
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn evaluations_are_charged_once_per_row() {
        let t = table_with_labels(&[true, false, true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        assert!(inv.evaluate(0));
        assert!(inv.evaluate(0));
        assert!(!inv.evaluate(1));
        let c = inv.counts();
        assert_eq!(c.evaluated, 2, "second call to row 0 must be memoized");
        assert_eq!(c.cache_hits, 1);
    }

    #[test]
    fn retrieve_and_evaluate_charges_both() {
        let t = table_with_labels(&[true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        assert!(inv.retrieve_and_evaluate(0));
        let c = inv.counts();
        assert_eq!(c.retrieved, 1);
        assert_eq!(c.evaluated, 1);
        assert_eq!(inv.cost(&CostModel::PAPER_DEFAULT), 4.0);
    }

    #[test]
    fn memo_queries_are_free() {
        let t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        assert_eq!(inv.memoized(0), None);
        inv.evaluate(0);
        assert_eq!(inv.memoized(0), Some(true));
        assert_eq!(inv.counts().evaluated, 1);
    }

    #[test]
    fn shared_tracker_aggregates_across_invokers() {
        let t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let tracker = CostTracker::new();
        let a = UdfInvoker::with_tracker(&udf, &t, tracker.clone());
        let b = UdfInvoker::with_tracker(&udf, &t, tracker.clone());
        a.evaluate(0);
        b.evaluate(1);
        assert_eq!(tracker.snapshot().evaluated, 2);
    }

    #[test]
    fn batch_matches_sequential_loop_action_for_action() {
        let labels: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        let rows: Vec<usize> = (0..64).rev().collect();

        let loop_inv = UdfInvoker::new(&udf, &t);
        let loop_answers: Vec<bool> = rows.iter().map(|&r| loop_inv.evaluate(r)).collect();

        for executor in [
            &expred_exec::Sequential as &dyn Executor,
            &expred_exec::WorkerPool::with_threads(4),
        ] {
            let batch_inv = UdfInvoker::new(&udf, &t);
            let batch_answers = batch_inv.evaluate_batch(executor, &rows);
            assert_eq!(batch_answers, loop_answers);
            assert_eq!(batch_inv.counts(), loop_inv.counts());
        }
    }

    #[test]
    fn batch_reuses_memo_and_charges_hits() {
        let t = table_with_labels(&[true, false, true, false]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        inv.evaluate(0);
        inv.evaluate(1);
        let answers = inv.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2, 3]);
        assert_eq!(answers, vec![true, false, true, false]);
        let c = inv.counts();
        assert_eq!(c.evaluated, 4, "rows 2 and 3 are the only new calls");
        assert_eq!(c.cache_hits, 2);
    }

    #[test]
    fn batch_duplicates_charge_once() {
        let t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        let answers = inv.evaluate_batch(&expred_exec::Sequential, &[1, 0, 1, 1]);
        assert_eq!(answers, vec![false, true, false, false]);
        let c = inv.counts();
        assert_eq!(c.evaluated, 2);
        assert_eq!(c.cache_hits, 2, "repeat occurrences are free re-reads");
    }

    #[test]
    fn retrieve_and_evaluate_batch_charges_both() {
        let t = table_with_labels(&[true, false, true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        let answers = inv.retrieve_and_evaluate_batch(&expred_exec::Sequential, &[0, 1, 2]);
        assert_eq!(answers, vec![true, false, true]);
        let c = inv.counts();
        assert_eq!(c.retrieved, 3);
        assert_eq!(c.evaluated, 3);
        assert_eq!(inv.cost(&CostModel::PAPER_DEFAULT), 3.0 + 9.0);
    }

    #[test]
    fn context_without_store_matches_plain_invoker() {
        let t = table_with_labels(&[true, false, true]);
        let udf = OracleUdf::new("good");
        let ctx = expred_exec::ExecContext::sequential();
        let inv = UdfInvoker::with_context(&udf, &t, &ctx);
        inv.evaluate(0);
        inv.evaluate(0);
        let c = inv.counts();
        assert_eq!((c.evaluated, c.cache_hits, c.reuse_hits), (1, 1, 0));
    }

    #[test]
    fn second_query_reuses_the_sessions_answers() {
        let t = table_with_labels(&[true, false, true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);

        let q1 = UdfInvoker::with_context(&udf, &t, &ctx);
        q1.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2]);
        assert_eq!(q1.counts().evaluated, 3);
        assert_eq!(q1.counts().reuse_hits, 0, "a cold session has no reuse");

        let q2 = UdfInvoker::with_context(&udf, &t, &ctx);
        let answers = q2.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2, 3, 0]);
        assert_eq!(answers, vec![true, false, true, false, true]);
        let c = q2.counts();
        assert_eq!(c.evaluated, 1, "only row 3 is new to the session");
        assert_eq!(c.reuse_hits, 3, "rows 0-2 were paid for by query 1");
        assert_eq!(c.cache_hits, 1, "the repeated row 0 is a plain memo hit");
        assert_eq!(c.demanded(), 5);
    }

    #[test]
    fn batched_store_probe_matches_per_row_path_action_for_action() {
        // The batch path prefetches the shared store via get_many; the
        // per-row path (`evaluate` in a loop) takes a lock per row. Both
        // must produce identical answers, identical invoker bills, and
        // identical store hit/miss statistics.
        let labels: Vec<bool> = (0..96).map(|i| i % 5 < 2).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        // Duplicate-heavy request over a half-warmed session.
        let warm: Vec<usize> = (0..48).collect();
        let request: Vec<usize> = (0..96).chain(24..72).chain(0..8).rev().collect();

        let run = |batched: bool| {
            let store = expred_exec::CacheStore::new();
            let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
            UdfInvoker::with_context(&udf, &t, &ctx)
                .evaluate_batch(&expred_exec::Sequential, &warm);
            let warm_stats = store.stats();
            let inv = UdfInvoker::with_context(&udf, &t, &ctx);
            let answers = if batched {
                inv.evaluate_batch(&expred_exec::Sequential, &request)
            } else {
                request.iter().map(|&r| inv.evaluate(r)).collect()
            };
            let stats = store.stats();
            (
                answers,
                inv.counts(),
                stats.hits - warm_stats.hits,
                stats.misses - warm_stats.misses,
            )
        };
        let (batch_answers, batch_counts, batch_hits, batch_misses) = run(true);
        let (loop_answers, loop_counts, loop_hits, loop_misses) = run(false);
        assert_eq!(batch_answers, loop_answers);
        assert_eq!(batch_counts, loop_counts, "invoker bills must match");
        assert_eq!(batch_hits, loop_hits, "store hits must match");
        assert_eq!(batch_misses, loop_misses, "store misses must match");
        assert!(batch_counts.reuse_hits > 0, "the warm rows must be reused");
    }

    /// A sink that records every offered row, sorted.
    #[derive(Debug, Default)]
    struct RecordingSink(std::sync::Mutex<Vec<(usize, bool)>>);

    impl expred_exec::SpillSink for RecordingSink {
        fn spill(&self, _: CacheNamespace, pages: &[(usize, PagePlanes)]) {
            let mut offers = self.0.lock().unwrap();
            offers.extend(rows_of(pages));
            offers.sort_unstable();
        }
    }

    #[test]
    fn batched_commit_matches_the_per_row_commit_loop() {
        // One store call per batch must leave what one per row left: the
        // memo, the bill, the store's statistics, contents and pass rate
        // and the rows offered to the sink — under
        // both backends (the pool evaluates out of order, the commit
        // does not).
        let labels: Vec<bool> = (0..5_000).map(|i| i % 5 < 2).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        let ns = cache_namespace(&udf, &t).expect("oracle has identity");
        let warm: Vec<usize> = (0..48).collect();
        // Out of order, across the page edge, repeats, warm rows.
        let request: Vec<usize> = (4_090..4_200)
            .chain(0..96)
            .chain(24..72)
            .rev()
            .chain([4_999, 4_096, 4_999])
            .collect();
        let pool = expred_exec::WorkerPool::with_threads(4);
        let run = |executor: Option<&dyn Executor>| {
            let store = expred_exec::CacheStore::new();
            let sink = std::sync::Arc::new(RecordingSink::default());
            store.set_spill(Some(
                sink.clone() as std::sync::Arc<dyn expred_exec::SpillSink>
            ));
            let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
            UdfInvoker::with_context(&udf, &t, &ctx)
                .evaluate_batch(&expred_exec::Sequential, &warm);
            let inv = UdfInvoker::with_context(&udf, &t, &ctx);
            let answers = match executor {
                Some(executor) => inv.evaluate_batch(executor, &request),
                None => request.iter().map(|&r| inv.evaluate(r)).collect(),
            };
            let (counts, stats) = (inv.counts(), store.stats());
            let mut cached = Vec::new();
            store.for_each_namespace(|_, pages| cached.extend(rows_of(pages)));
            let memo: Vec<Option<bool>> = (0..labels.len()).map(|r| inv.memo.get(r)).collect();
            let observed = store.pass_rate(ns);
            let offers = sink.0.lock().unwrap().clone();
            (answers, counts, stats, cached, memo, observed, offers)
        };
        let per_row = run(None);
        assert_eq!(run(Some(&expred_exec::Sequential)), per_row);
        assert_eq!(run(Some(&pool)), per_row);
        let fresh = per_row.1.evaluated as usize;
        assert_eq!(
            per_row.6.len(),
            warm.len() + fresh,
            "every fresh answer offered once"
        );
        let mut evaluated: Vec<usize> = warm.iter().chain(&request).copied().collect();
        evaluated.sort_unstable();
        evaluated.dedup();
        let labelled: Vec<(usize, bool)> = evaluated.iter().map(|&r| (r, labels[r])).collect();
        assert_eq!(per_row.6, labelled);
    }

    #[test]
    fn a_plane_read_matches_the_ascending_batch_action_for_action() {
        // A memo and a store both partly warm, rows across the page edge:
        // the plane read must charge, probe, memoize, commit and offer
        // exactly what `evaluate_batch` over the ascending id list does.
        let labels: Vec<bool> = (0..5_000).map(|i| i % 5 < 2).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        let ns = cache_namespace(&udf, &t).expect("oracle has identity");
        let earlier: Vec<usize> = (0..4_300).step_by(3).collect();
        let own: Vec<usize> = (0..4_300).step_by(7).collect();
        let rows: Vec<usize> = (0..5_000).filter(|row| row % 4 != 1).collect();
        let run = |planes: bool| {
            let store = expred_exec::CacheStore::new();
            let sink = std::sync::Arc::new(RecordingSink::default());
            store.set_spill(Some(
                sink.clone() as std::sync::Arc<dyn expred_exec::SpillSink>
            ));
            let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
            UdfInvoker::with_context(&udf, &t, &ctx)
                .evaluate_batch(&expred_exec::Sequential, &earlier);
            let inv = UdfInvoker::with_context(&udf, &t, &ctx);
            inv.evaluate_batch(&expred_exec::Sequential, &own);
            let answers: Vec<bool> = if planes {
                let plane = RowSet::from_ids(t.num_rows(), rows.iter().map(|&row| row as u32));
                let passed = inv.evaluate_plane(&expred_exec::Sequential, &plane);
                assert!(passed.iter().all(|row| plane.contains(row as usize)));
                rows.iter().map(|&row| passed.contains(row)).collect()
            } else {
                inv.evaluate_batch(&expred_exec::Sequential, &rows)
            };
            let memo: Vec<Option<bool>> = (0..labels.len()).map(|r| inv.memo.get(r)).collect();
            let observed = store.pass_rate(ns);
            let offers = sink.0.lock().unwrap().clone();
            (answers, inv.counts(), store.stats(), memo, observed, offers)
        };
        let plane = run(true);
        assert_eq!(plane, run(false));
        let counts = plane.1;
        assert!(counts.cache_hits > 0 && counts.reuse_hits > 0 && counts.evaluated > 0);
    }

    #[test]
    fn memoized_promotes_session_answers_once() {
        let t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
        UdfInvoker::with_context(&udf, &t, &ctx).evaluate(0);

        let q2 = UdfInvoker::with_context(&udf, &t, &ctx);
        assert_eq!(q2.memoized(0), Some(true));
        assert_eq!(q2.memoized(0), Some(true));
        assert!(q2.evaluate(0));
        let c = q2.counts();
        assert_eq!(c.reuse_hits, 1, "promotion charges exactly once");
        assert_eq!(c.evaluated, 0);
        assert_eq!(c.cache_hits, 1, "post-promotion reads are memo hits");
        assert_eq!(q2.memoized(1), None, "unknown rows stay unknown");
    }

    #[test]
    fn distinct_udfs_and_tables_do_not_share() {
        let t = table_with_labels(&[true, false]);
        let other_table = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
        UdfInvoker::with_context(&udf, &t, &ctx).evaluate(0);

        // Same content, different table instance: no sharing.
        let cross = UdfInvoker::with_context(&udf, &other_table, &ctx);
        cross.evaluate(0);
        assert_eq!(cross.counts().evaluated, 1);
        assert_eq!(cross.counts().reuse_hits, 0);
    }

    #[test]
    fn table_mutation_invalidates_session_answers() {
        let mut t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        {
            let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
            let q1 = UdfInvoker::with_context(&udf, &t, &ctx);
            q1.evaluate(0);
            q1.evaluate(1);
        }
        t.push_row(vec![Value::Bool(true)]).unwrap();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
        let q2 = UdfInvoker::with_context(&udf, &t, &ctx);
        q2.evaluate(0);
        let c = q2.counts();
        assert_eq!(c.evaluated, 1, "stale version must not serve answers");
        assert_eq!(c.reuse_hits, 0);
        // The old version stays live until MAX_LIVE_VERSIONS newer ones
        // supersede it (diverged clones may still be using it).
        assert_eq!(store.num_namespaces(), 2);
    }

    #[test]
    fn concurrent_session_invokers_charge_each_demanded_row_exactly_once() {
        // 8 threads, one store, one invoker per thread over the same
        // namespace: whatever the interleaving, every thread's bill must
        // satisfy evaluated + cache_hits + reuse_hits == demands, and
        // answers must match the oracle.
        let labels: Vec<bool> = (0..256).map(|i| i % 3 == 0).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let rows: Vec<usize> = (0..256).collect();
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let (store, udf, t, rows, labels) = (&store, &udf, &t, &rows, &labels);
                scope.spawn(move || {
                    let ctx = expred_exec::ExecContext::sequential().with_cache(store);
                    let inv = UdfInvoker::with_context(udf, t, &ctx);
                    // Offset start so threads race on different fronts.
                    let mut order = rows.clone();
                    order.rotate_left(worker * 32);
                    let answers = inv.evaluate_batch(&expred_exec::Sequential, &order);
                    for (&row, &answer) in order.iter().zip(&answers) {
                        assert_eq!(answer, labels[row], "wrong answer for row {row}");
                    }
                    assert_eq!(inv.counts().demanded(), order.len() as u64);
                });
            }
        });
    }

    #[test]
    fn an_invoker_moves_to_another_thread_with_its_memo() {
        let t = table_with_labels(&[true, false, true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        inv.evaluate(0);
        let inv = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    assert_eq!(inv.memoized(0), Some(true));
                    assert!(!inv.evaluate(1));
                    inv
                })
                .join()
                .unwrap()
        });
        assert_eq!(inv.memo.get(1), Some(false));
        let c = inv.counts();
        assert_eq!((c.evaluated, c.cache_hits), (2, 0));
    }

    #[test]
    fn known_many_matches_the_per_row_walk_including_repeats() {
        // Rows straddling word boundaries, repeated store hits (probed
        // once, then memo hits) and repeated misses (probed every time).
        let labels: Vec<bool> = (0..200).map(|i| i % 5 < 2).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        let warm: Vec<usize> = (60..70).chain(120..130).collect();
        let scan = [63, 64, 63, 5, 5, 128, 199, 64, 127, 128, 0];
        let run = |bulk: bool| {
            let store = expred_exec::CacheStore::new();
            let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
            UdfInvoker::with_context(&udf, &t, &ctx)
                .evaluate_batch(&expred_exec::Sequential, &warm);
            let inv = UdfInvoker::with_context(&udf, &t, &ctx);
            inv.evaluate(5);
            let known = if bulk {
                inv.known_many(scan)
            } else {
                scan.iter().map(|&row| inv.memoized(row)).collect()
            };
            (known, inv.counts(), store.stats())
        };
        let (known, counts, stats) = run(true);
        assert_eq!((known.clone(), counts, stats), run(false));
        assert_eq!(known[0], Some(false), "row 63 was paid for by query 1");
        assert_eq!(known[3], Some(true), "row 5 is in this query's memo");
        assert_eq!(known[6], None, "nobody evaluated row 199");
        assert_eq!(counts.reuse_hits, 4, "rows 63, 64, 128, 127 — once each");
        assert_eq!(stats.hits, 4);
        assert_eq!(
            stats.misses,
            warm.len() as u64 + 1 + 2,
            "warm-up, row 5, rows 199 and 0"
        );
    }

    #[test]
    fn selectivity_observes_fresh_evaluations_only() {
        // The session's pass rate is what its store holds: each answer
        // counts once, when a query first pays for it.
        let t = table_with_labels(&[true, true, true, false, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let ns = cache_namespace(&udf, &t).expect("oracle has identity");
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);

        let q1 = UdfInvoker::with_context(&udf, &t, &ctx);
        q1.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2, 3]);
        assert_eq!(store.pass_rate(ns), Some(0.75));

        // A second query reuses every answer: nothing fresh, nothing
        // counted again.
        let q2 = UdfInvoker::with_context(&udf, &t, &ctx);
        q2.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2, 3]);
        assert_eq!(q2.counts().evaluated, 0);
        assert_eq!((store.len(), store.pass_rate(ns)), (4, Some(0.75)));

        // The per-row path lands its fresh answers too.
        let q3 = UdfInvoker::with_context(&udf, &t, &ctx);
        q3.evaluate(4);
        q3.evaluate(4); // a memo hit: nothing lands
        assert_eq!(q3.counts().evaluated, 1);
        assert_eq!((store.len(), store.pass_rate(ns)), (5, Some(0.6)));
    }

    #[test]
    fn charge_retrievals_accumulates() {
        let t = table_with_labels(&[true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        inv.charge_retrievals(10);
        inv.charge_retrievals(5);
        assert_eq!(inv.counts().retrieved, 15);
    }
}
