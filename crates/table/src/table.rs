//! The in-memory relation and its group-by operation.
//!
//! The paper's algorithms never need joins or sorts over the base relation;
//! they need (a) row access by index, (b) partitioning rows into *groups*
//! by the value of a (possibly virtual) correlated column, and (c) cheap
//! per-column metadata (distinct counts) for the column-selection procedure
//! of §4.4. [`Table`] provides exactly that.

use crate::bitcount;
use crate::column::Column;
use crate::derived::{memo, Derived, DerivedCounters};
use crate::kernels::GroupCodes;
use crate::rowset::{bits, RowSet};
use crate::schema::{Field, Schema};
use crate::stats::{ColumnStats, GroupTally};
use crate::value::{DataType, Value};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Process-unique identity of one [`Table`] state.
///
/// Every process-local cache keys by it alone. Two independently built
/// tables never share an id, even with identical content, nor do two
/// tables over one content ([`WeakTable::upgrade`]), and every
/// [`Table::push_row`] gives its table a fresh one: a mutated table is a
/// new table. Clones share the id until one of them is pushed to, so
/// diverged clones never share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(u64);

impl TableId {
    /// The raw id, for embedding into cache namespace keys.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Source of fresh [`TableId`]s. Starts at 1 so 0 can mean "no table" in
/// downstream key encodings.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// A [`TableId`] no table state has had.
fn fresh_id() -> Arc<TableId> {
    Arc::new(TableId(NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed)))
}

/// What a row's hash starts from, before its cells are folded in.
const ROW_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one cell's [`Value::fingerprint`] into its row's hash.
fn fold_cell(row_hash: u64, fingerprint: u64) -> u64 {
    row_hash
        .rotate_left(5)
        .wrapping_mul(0x100_0000_01b3)
        .wrapping_add(fingerprint)
}

/// Folds one row's hash into the table version. Never 0, so "mutated at
/// least once" is observable.
fn fold_row(version: u64, row_hash: u64) -> u64 {
    version
        .rotate_left(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(row_hash)
        | 1
}

/// What builds a lazy table's columns on first read: the column at a
/// schema position, every row of it. Only generated tables are lazy
/// ([`crate::datasets`]). Every handle on the content reads the one build
/// ([`WeakTable::upgrade`]); only a push copies the content, and it builds every
/// column first, so a source is asked for each column at most once per
/// table content.
pub(crate) trait ColumnSource: Debug + Send + Sync {
    /// The column at schema position `idx`.
    fn build(&self, idx: usize) -> Column;
}

/// The checks a column passes before a table holds it: its field's type,
/// the table's row count, and no NULL in a non-nullable field.
fn check_column(field: &Field, column: &Column, num_rows: usize) -> Result<(), String> {
    if column.data_type() != field.data_type() {
        return Err(format!(
            "type mismatch: {} column for {} field {:?}",
            column.data_type(),
            field.data_type(),
            field.name()
        ));
    }
    if column.len() != num_rows {
        return Err(format!(
            "column {:?} has {} rows, the table has {num_rows}",
            field.name(),
            column.len()
        ));
    }
    if !field.is_nullable() && column.null_count() > 0 {
        return Err(format!("NULL in non-nullable field {:?}", field.name()));
    }
    Ok(())
}

/// One field's column and what is derived from it ([`crate::derived`]),
/// each built on first read.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Empty only while the table's `source` can fill it.
    column: OnceLock<Column>,
    derived: Derived,
}

impl From<Column> for Slot {
    fn from(column: Column) -> Self {
        Self {
            column: OnceLock::from(column),
            derived: Derived::default(),
        }
    }
}

/// An immutable-after-build, columnar, in-memory relation.
///
/// A table built by [`Self::from_rows`], [`Self::from_columns`] or
/// [`crate::csv`] holds every column from the start, and its
/// [`Self::version`] is a fold of every cell. A generated table
/// ([`crate::datasets::Dataset::generate`]) holds the columns its recipe
/// built eagerly and builds each other column the first time it is read;
/// its version fingerprints the recipe, since a content fold would have to
/// build every cell. Either way, what a reader sees is the same cells.
/// What is derived from a column is memoized beside it
/// ([`Self::partition`], [`Self::codes`], [`Self::column_stats`]).
///
/// A table is a handle: its identity ([`Self::id`]) over its content,
/// which handles share. A clone is the same table, and costs two
/// reference counts; an upgrade of [`Self::downgrade`] is another table
/// over the same content, so what one of them builds or derives the other reads, while
/// every cache keyed by identity keeps the two apart.
#[derive(Debug, Clone)]
pub struct Table {
    content: Arc<Content>,
    /// Shared by clones and held by nothing else, so it is also the
    /// state's [`Self::identity`]; replaced by every push.
    id: Arc<TableId>,
}

/// What a table's handles share: its cells and what is derived from them.
/// A push copies it first unless the pushing handle holds it alone.
#[derive(Debug, Clone)]
struct Content {
    schema: Schema,
    /// One slot per field.
    columns: Vec<Slot>,
    /// What fills the empty slots; `None` for a table built whole, and
    /// from a lazy table's first `push_row` on.
    source: Option<Arc<dyn ColumnSource>>,
    num_rows: usize,
    version: u64,
}

/// A table's content, held without keeping it alive ([`Table::downgrade`]).
#[derive(Debug, Clone)]
pub struct WeakTable(Weak<Content>);

impl WeakTable {
    /// Another table over the content, or `None` once no table holds
    /// it: a fresh [`Table::id`], so no cache keyed by identity serves
    /// one for the other, over the same columns and the same memo, so
    /// neither builds or derives what the other already has. A push to
    /// either copies the content first.
    pub fn upgrade(&self) -> Option<Table> {
        self.0.upgrade().map(Table::over)
    }

    /// Whether some table still holds the content.
    pub fn is_held(&self) -> bool {
        self.0.strong_count() > 0
    }
}

impl PartialEq for Table {
    /// Content equality: identity (id, version) is deliberately excluded,
    /// so two tables built independently from the same rows compare equal.
    /// Builds every column of a lazy table.
    fn eq(&self, other: &Self) -> bool {
        self.schema() == other.schema()
            && self.num_rows() == other.num_rows()
            && (0..self.num_columns()).all(|idx| self.column_at(idx) == other.column_at(idx))
    }
}

impl Table {
    /// A new table instance (fresh [`TableId`], nothing derived) over
    /// already-validated parts.
    fn new(schema: Schema, columns: Vec<Column>, num_rows: usize, version: u64) -> Self {
        let columns = columns.into_iter().map(Slot::from).collect();
        Self::over(Arc::new(Content {
            schema,
            columns,
            source: None,
            num_rows,
            version,
        }))
    }

    /// A new table (fresh [`TableId`]) over `content`.
    fn over(content: Arc<Content>) -> Self {
        Self {
            content,
            id: fresh_id(),
        }
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type()))
            .collect();
        Self::new(schema, columns, 0, 0)
    }

    /// Builds a table from rows, validating types against the schema.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self, String> {
        let mut table = Self::empty(schema);
        for row in rows {
            table.push_row(row)?;
        }
        Ok(table)
    }

    /// Builds a table from whole columns: the columnar twin of
    /// [`Self::from_rows`], for producers that already hold typed vectors
    /// (and, for strings, a dictionary plus codes). It makes every check
    /// [`Self::push_row`] makes — arity, equal lengths, column type
    /// against field type, NULLs in non-nullable fields — and folds the
    /// **same** row-major [`Self::version`] fingerprint, so a table built
    /// either way from the same cells has the same version; a string's
    /// fingerprint is taken once per dictionary entry instead of once per
    /// cell.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self, String> {
        if columns.len() != schema.len() {
            return Err(format!(
                "{} columns do not match schema arity {}",
                columns.len(),
                schema.len()
            ));
        }
        let num_rows = columns.first().map_or(0, Column::len);
        for (field, column) in schema.fields().iter().zip(&columns) {
            check_column(field, column, num_rows)?;
        }
        let mut row_hashes = vec![ROW_HASH_SEED; num_rows];
        for column in &columns {
            column.fold_fingerprints(&mut row_hashes, fold_cell);
        }
        let version = row_hashes.into_iter().fold(0, fold_row);
        Ok(Self::new(schema, columns, num_rows, version))
    }

    /// A table of `num_rows` rows at `version` that holds the `built`
    /// columns, given by schema position, and leaves every other column
    /// to `source`, to build on first read. The built columns pass
    /// [`Self::from_columns`]' checks here; a column `source` builds
    /// passes them when it is built, or the read panics naming its field.
    pub(crate) fn lazy(
        schema: Schema,
        num_rows: usize,
        version: u64,
        built: impl IntoIterator<Item = (usize, Column)>,
        source: Arc<dyn ColumnSource>,
    ) -> Result<Self, String> {
        let mut columns: Vec<_> = schema.fields().iter().map(|_| Slot::default()).collect();
        for (idx, column) in built {
            check_column(&schema.fields()[idx], &column, num_rows)?;
            columns[idx] = Slot::from(column);
        }
        Ok(Self::over(Arc::new(Content {
            schema,
            columns,
            source: Some(source),
            num_rows,
            version,
        })))
    }

    /// Builds the column at `idx` from the table's source, checked
    /// against its field.
    fn build(&self, idx: usize) -> Column {
        let content = &*self.content;
        let source = content
            .source
            .as_ref()
            .expect("an empty column slot has a source");
        let column = source.build(idx);
        if let Err(err) = check_column(&content.schema.fields()[idx], &column, content.num_rows) {
            panic!("a lazily built column broke its field: {err}");
        }
        column
    }

    /// Whether the column at `idx` has been built.
    #[cfg(test)]
    pub(crate) fn is_built(&self, idx: usize) -> bool {
        self.content.columns[idx].column.get().is_some()
    }

    /// Appends one row. Errors on arity or type mismatch, and on NULLs in
    /// non-nullable fields; a failed push changes nothing. A push changes
    /// every column, so it drops everything derived from them, and it
    /// makes the table a new table: a fresh [`Self::id`] that no clone
    /// shares.
    pub fn push_row(&mut self, mut row: Vec<Value>) -> Result<(), String> {
        let schema = self.schema();
        if row.len() != schema.len() {
            return Err(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                schema.len()
            ));
        }
        // Every cell is checked against its column before any is pushed,
        // so a failed push leaves neither the columns nor the version
        // (and hence cache keys) touched.
        for (field, value) in schema.fields().iter().zip(&mut row) {
            // The cell as its column stores it — an `Int` widens into a
            // float column — which is also the cell the version
            // fingerprints, as `from_columns` does.
            if let (DataType::Float, Value::Int(i)) = (field.data_type(), &*value) {
                *value = Value::Float(*i as f64);
            }
            match value.data_type() {
                None if !field.is_nullable() => {
                    return Err(format!("NULL in non-nullable field {:?}", field.name()));
                }
                Some(found) if found != field.data_type() => {
                    return Err(format!(
                        "type mismatch: cannot push {value:?} into {} column",
                        field.data_type()
                    ));
                }
                _ => {}
            }
        }
        let row_hash = row.iter().fold(ROW_HASH_SEED, |hash, value| {
            fold_cell(hash, value.fingerprint())
        });
        // A lazy table builds what it has not yet, and stops being lazy;
        // content another handle holds is copied, and that one keeps it.
        for idx in 0..self.num_columns() {
            self.column_at(idx);
        }
        let content = Arc::make_mut(&mut self.content);
        content.source = None;
        for (slot, value) in content.columns.iter_mut().zip(row) {
            let column = slot.column.get_mut().expect("every column is built");
            column.push(value).expect("cell checked against its column");
            slot.derived = Derived::default();
        }
        content.num_rows += 1;
        content.version = fold_row(content.version, row_hash);
        self.id = fresh_id();
        Ok(())
    }

    /// This content state's identity (shared by clones until one is
    /// pushed to).
    pub fn id(&self) -> TableId {
        *self.id
    }

    /// What every clone of this state shares and nothing else holds: it
    /// dies with the last clone, or when the last one is pushed to. The
    /// row tier keeps a weak reference to it, to drop the answers it
    /// holds for the state once no one can ask about it again
    /// (`expred_exec::CacheStore::handle`).
    pub fn identity(&self) -> &Arc<TableId> {
        &self.id
    }

    /// A hold on this table's content that does not keep it alive: it
    /// upgrades into another table over it while some table holds it.
    pub fn downgrade(&self) -> WeakTable {
        WeakTable(Arc::downgrade(&self.content))
    }

    /// Fingerprint of the table's current state.
    ///
    /// For a table built from rows, columns or CSV it is a fold of every
    /// cell, row by row: equal cells give equal versions, however the
    /// table was built. For a generated table it is a fingerprint of the
    /// recipe — generator revision, spec and seed — which names the same
    /// cells without building them ([`crate::datasets`] pins both kinds).
    /// Either way it is deterministic across processes and every
    /// [`Self::push_row`] folds its row onto it. It is the content half of
    /// the durable key (`expred_persist::PersistKey`), which must name a
    /// state across processes; within a process, [`Self::id`] names it.
    pub fn version(&self) -> u64 {
        self.content.version
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.content.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.content.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.content.columns.len()
    }

    /// The column with the given name (built now if it is not yet).
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.schema().index_of(name).map(|i| self.column_at(i))
    }

    /// The column at an index (built now if it is not yet). Threads
    /// racing to read an unbuilt column build it once.
    pub fn column_at(&self, idx: usize) -> &Column {
        self.content.columns[idx]
            .column
            .get_or_init(|| self.build(idx))
    }

    /// The named column and its slot's memo.
    fn derived(&self, name: &str) -> Result<(&Column, &Derived), String> {
        let idx = self
            .schema()
            .index_of(name)
            .ok_or_else(|| format!("no column named {name:?}"))?;
        Ok((self.column_at(idx), &self.content.columns[idx].derived))
    }

    /// The cell at `(row, column-name)`.
    pub fn value(&self, row: usize, column: &str) -> Option<Value> {
        self.column(column).map(|c| c.value(row))
    }

    /// Materializes one full row (mostly for tests and display).
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.num_columns())
            .map(|idx| self.column_at(idx).value(row))
            .collect()
    }

    /// Partitions all rows by the value of `column`.
    ///
    /// Group order is deterministic: ascending by the group key's total
    /// order (NULL first), so downstream algorithms and experiments are
    /// reproducible. Runs on the vectorized grouping kernel
    /// ([`Column::group_codes`](crate::kernels::GroupCodes)); the crate's
    /// property tests hold its output byte-identical to a scalar
    /// hash-per-cell reference.
    pub fn group_by(&self, column: &str) -> Result<GroupBy, String> {
        let col = self
            .column(column)
            .ok_or_else(|| format!("no column named {column:?}"))?;
        Ok(col.group_codes().to_group_by(column))
    }

    /// [`Self::group_by`], memoized: derived on the first lookup of this
    /// table state, shared by every later one. `counters`, if given,
    /// counts the lookup as a hit or a miss ([`crate::derived`]).
    pub fn partition(
        &self,
        column: &str,
        counters: Option<&DerivedCounters>,
    ) -> Result<Arc<GroupBy>, String> {
        let (col, derived) = self.derived(column)?;
        Ok(memo(&derived.groups, counters, || {
            Arc::new(col.group_codes().to_group_by(column))
        }))
    }

    /// The dictionary codes of `column` ([`Column::group_codes`]),
    /// memoized like [`Self::partition`]. The substrate for one-hot
    /// feature encoding.
    pub fn codes(
        &self,
        column: &str,
        counters: Option<&DerivedCounters>,
    ) -> Result<Arc<GroupCodes>, String> {
        let (col, derived) = self.derived(column)?;
        Ok(memo(&derived.codes, counters, || {
            Arc::new(col.group_codes())
        }))
    }

    /// The named column's NULL and distinct counts, memoized like
    /// [`Self::partition`] but never counted.
    pub fn column_stats(&self, name: &str) -> Option<Arc<ColumnStats>> {
        let (col, derived) = self.derived(name).ok()?;
        Some(memo(&derived.stats, None, || {
            Arc::new(ColumnStats::of(col))
        }))
    }

    /// Per group of `column`, in [`Self::group_by`]'s group order: its
    /// size, how many of its rows `sample` holds, and how many of those
    /// `marked` holds too — [`GroupBy::counts`]`([marked, sample])` beside
    /// [`GroupBy::sizes`] when `marked` lies within `sample`, without a
    /// partition. Walks the rows of `sample` only: a string column reads
    /// each one's stored code through its memoized [`ColumnStats`], any
    /// other type encodes the column once per call
    /// ([`Column::group_codes`]). Both planes are sets over this table.
    /// What the §4.4 ranking scores a candidate column from.
    pub fn tally_groups(
        &self,
        column: &str,
        sample: &RowSet,
        marked: &RowSet,
    ) -> Result<Vec<GroupTally>, String> {
        let (col, derived) = self.derived(column)?;
        let stats = memo(&derived.stats, None, || Arc::new(ColumnStats::of(col)));
        Ok(stats.tally(col, sample, marked))
    }
}

/// The result of partitioning a table's rows by a column's values.
///
/// Each group's rows are held as ascending `(word, mask)` runs
/// ([`GroupBy::runs`]) and nothing else: the 64-row words the group
/// touches, each with the bits of the group's rows in it. A group's id
/// list ([`GroupBy::rows`]) is its runs read out bit by bit. The runs are
/// what the pipelines' read path walks: "which rows of this group are
/// decided, and which passed?" is an AND and a popcount per run against
/// the caches' bit planes, not a probe per row.
///
/// Groups partition their rows, so the runs of all groups in one word
/// never overlap, and their union is the word of one plane
/// ([`GroupBy::row_plane`]): a read of that plane a word at a time visits
/// each word once however many groups share it, and a group's run takes
/// its share of what the read found with one AND.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBy {
    column: String,
    keys: Vec<Value>,
    /// Every group's runs, group after group, as two flat columns — run
    /// `i` is `(run_words[i], run_masks[i])`; group `g` owns runs
    /// `run_starts[g]..run_starts[g + 1]`.
    pub(crate) run_words: Vec<u32>,
    pub(crate) run_masks: Vec<u64>,
    pub(crate) run_starts: Vec<usize>,
    /// Rows per group.
    sizes: Vec<usize>,
    num_rows: usize,
    /// One past the largest row id held (0 without rows): the size of
    /// [`GroupBy::row_plane`].
    extent: usize,
}

/// One past the last row of the run `(word, mask)`.
fn run_end(word: u32, mask: u64) -> usize {
    word as usize * 64 + 64 - mask.leading_zeros() as usize
}

/// The bits of `mask` whose rank among its set bits — 0 for the lowest —
/// lies in `lo..hi`. At most 64 steps, however far past the run `hi` is.
fn ranked_bits(mask: u64, lo: usize, hi: usize) -> u64 {
    let drop_lowest = |mut mask: u64, n: usize| {
        for _ in 0..n {
            mask &= mask.wrapping_sub(1);
        }
        mask
    };
    let count = mask.count_ones() as usize;
    let (lo, hi) = (lo.min(count), hi.min(count));
    if lo == 0 && hi == count {
        return mask;
    }
    drop_lowest(mask, lo) & !drop_lowest(mask, hi)
}

impl GroupBy {
    /// A grouping labelled `column` of no group yet; groups are pushed in
    /// order with [`Self::push_group`].
    fn empty(column: String) -> Self {
        Self {
            column,
            keys: Vec::new(),
            run_words: Vec::new(),
            run_masks: Vec::new(),
            run_starts: vec![0],
            sizes: Vec::new(),
            num_rows: 0,
            extent: 0,
        }
    }

    /// Closes the group of `size` rows whose runs were pushed since the
    /// previous group, keyed `key`.
    fn push_group(&mut self, key: Value, size: usize) {
        let last = self.run_words.len() - 1;
        let end = run_end(self.run_words[last], self.run_masks[last]);
        self.extent = self.extent.max(end);
        self.keys.push(key);
        self.sizes.push(size);
        self.num_rows += size;
        self.run_starts.push(self.run_words.len());
    }

    /// Builds a grouping from externally computed row lists.
    ///
    /// # Panics
    ///
    /// If there is not one key per group, a group is empty, the group
    /// sizes do not add up to `num_rows`, or a group's row ids are not
    /// strictly ascending — walking a group's runs in bit order must
    /// visit its rows in list order, which is what keeps a run-based
    /// scan drawing the random stream a row-list scan drew.
    pub fn new(column: String, keys: Vec<Value>, rows: Vec<Vec<u32>>, num_rows: usize) -> Self {
        assert_eq!(keys.len(), rows.len(), "one key per group required");
        let total: usize = rows.iter().map(|g| g.len()).sum();
        assert_eq!(total, num_rows, "groups must partition all rows");
        let mut grouping = Self::empty(column);
        for (key, group) in keys.into_iter().zip(&rows) {
            let (&first, rest) = group.split_first().expect("groups must be nonempty");
            let (mut word, mut mask, mut last) = (first / 64, 1u64 << (first % 64), first);
            for &row in rest {
                assert!(last < row, "a group's row ids must be strictly ascending");
                if row / 64 != word {
                    grouping.run_words.push(word);
                    grouping.run_masks.push(mask);
                    (word, mask) = (row / 64, 0);
                }
                mask |= 1 << (row % 64);
                last = row;
            }
            grouping.run_words.push(word);
            grouping.run_masks.push(mask);
            grouping.push_group(key, group.len());
        }
        grouping
    }

    /// The grouping of `codes` — row `r` in group `codes[r]`, every group
    /// of `0..keys.len()` holding a row — labelled `column`, built in one
    /// word-major pass: each 64-row word ORs its rows into one mask per
    /// group it touches and emits those masks as runs, which one more
    /// pass over the runs (not the rows) deals out group by group.
    pub(crate) fn from_codes(column: &str, keys: Vec<Value>, codes: &[u32]) -> Self {
        let k = keys.len();
        // Per group: the mask of the current word, its runs and its rows.
        let mut masks = vec![0u64; k];
        let (mut next, mut sizes) = (vec![0usize; k], vec![0usize; k]);
        // The groups the current word touches, in first-touch order: a
        // row's group is written past the end and kept only on its first
        // touch, so no row branches.
        let mut touched = [0u32; 64];
        // `(group, word, mask)` in word order.
        let words = codes.len().div_ceil(64);
        let mut runs: Vec<(u32, u32, u64)> = Vec::with_capacity(codes.len().min(k * words));
        for (word, chunk) in codes.chunks(64).enumerate() {
            let mut num_touched = 0;
            for (bit, &code) in chunk.iter().enumerate() {
                let mask = &mut masks[code as usize];
                touched[num_touched] = code;
                num_touched += usize::from(*mask == 0);
                *mask |= 1 << bit;
            }
            for &code in &touched[..num_touched] {
                let mask = std::mem::take(&mut masks[code as usize]);
                next[code as usize] += 1;
                sizes[code as usize] += mask.count_ones() as usize;
                runs.push((code, word as u32, mask));
            }
        }
        // Each group's first run slot, then its next free one.
        let mut run_starts = Vec::with_capacity(k + 1);
        run_starts.push(0);
        for slot in &mut next {
            let start = run_starts[run_starts.len() - 1];
            run_starts.push(start + *slot);
            *slot = start;
        }
        let (mut run_words, mut run_masks) = (vec![0; runs.len()], vec![0; runs.len()]);
        for (code, word, mask) in runs {
            let slot = &mut next[code as usize];
            (run_words[*slot], run_masks[*slot]) = (word, mask);
            *slot += 1;
        }
        Self {
            column: column.to_owned(),
            keys,
            run_words,
            run_masks,
            run_starts,
            sizes,
            num_rows: codes.len(),
            extent: codes.len(),
        }
    }

    /// Builds a grouping from a per-row group-id assignment: the entry
    /// point for *virtual* columns (paper §4.4) — bucketized classifier
    /// scores never materialize as a table column, they arrive here
    /// directly. Ids are `0..k`; an id no row carries is dropped and the
    /// groups keep ascending id order, keyed by their ids.
    pub fn from_assignments(column: &str, assignments: &[usize]) -> Self {
        let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
        let mut code_of = vec![None; k];
        for &g in assignments {
            code_of[g] = Some(0);
        }
        let mut keys = Vec::new();
        for (id, code) in code_of.iter_mut().enumerate() {
            if code.is_some() {
                *code = Some(keys.len() as u32);
                keys.push(Value::Int(id as i64));
            }
        }
        let codes: Vec<u32> = assignments
            .iter()
            .map(|&g| code_of[g].expect("every assigned id has a code"))
            .collect();
        Self::from_codes(column, keys, &codes)
    }

    /// The rows of each group `g` whose rank among the group's rows — its
    /// position in [`Self::rows`]`(g)` — lies in `ranks[g]`, as one plane
    /// over the grouped rows: what Intel-Sample's §4.2 rounds execute of
    /// the grouping in one round. Ranges that cover every group are the
    /// [`Self::row_plane`]; others are read off the runs: the prefix
    /// popcounts find the runs a range starts and ends in
    /// ([`bitcount::rank_cut`]), those two are cut, and the runs between
    /// them are ORed in whole.
    ///
    /// # Panics
    ///
    /// If there is not one range per group.
    pub fn window(&self, ranks: &[std::ops::Range<usize>]) -> RowSet {
        assert_eq!(ranks.len(), self.num_groups(), "one rank range per group");
        let whole =
            |(ranks, &size): (&std::ops::Range<usize>, _)| ranks.start == 0 && ranks.end >= size;
        if ranks.iter().zip(&self.sizes).all(whole) {
            return self.row_plane();
        }
        let mut window = RowSet::new(self.extent);
        for (g, ranks) in ranks.iter().enumerate() {
            let ranks = ranks.start..ranks.end.min(self.size(g));
            if ranks.is_empty() {
                continue;
            }
            let runs = self.run_starts[g]..self.run_starts[g + 1];
            let (words, masks) = (&self.run_words[runs.clone()], &self.run_masks[runs]);
            let [(first, lo_before), (last, hi_before)] =
                bitcount::rank_cut(masks, ranks.start, ranks.end);
            let mut take = |run: usize, mask| window.insert_word(words[run] as usize, mask);
            take(
                first,
                ranked_bits(masks[first], ranks.start - lo_before, ranks.end - lo_before),
            );
            if first < last {
                (first + 1..last).for_each(|run| take(run, masks[run]));
                take(last, ranked_bits(masks[last], 0, ranks.end - hi_before));
            }
        }
        window
    }

    /// The grouping column's name (or the virtual column's label).
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Total number of rows across groups.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The key of group `g`.
    pub fn key(&self, g: usize) -> &Value {
        &self.keys[g]
    }

    /// Every group's key, in group order.
    pub fn keys(&self) -> &[Value] {
        &self.keys
    }

    /// The row ids in group `g`, ascending: its runs read out bit by bit.
    pub fn rows(&self, g: usize) -> impl Iterator<Item = u32> + '_ {
        self.runs(g)
            .flat_map(|(word, mask)| bits(mask).map(move |bit| word * 64 + bit))
    }

    /// Group `g`'s rows as `(word, mask)` runs, ascending by word: bit
    /// `i` of `mask` speaks for row `64 * word + i`, every mask is
    /// nonzero, and together they hold exactly [`GroupBy::rows`]`(g)`.
    pub fn runs(&self, g: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let range = self.run_starts[g]..self.run_starts[g + 1];
        let words = self.run_words[range.clone()].iter().copied();
        words.zip(self.run_masks[range].iter().copied())
    }

    /// The rows of every group as one plane, sized to the largest row id
    /// held. A grouping of every row of a table — any grouping built by
    /// [`Table::group_by`] — is the full plane, filled without a pass
    /// over the runs; a grouping of fewer rows ([`GroupBy::new`] over
    /// row lists that leave some out) ORs its runs together.
    pub fn row_plane(&self) -> RowSet {
        // Groups hold distinct rows below the extent: as many as the
        // extent is all.
        if self.num_rows == self.extent {
            return RowSet::full(self.extent);
        }
        let mut plane = RowSet::new(self.extent);
        for (&word, &mask) in self.run_words.iter().zip(&self.run_masks) {
            plane.insert_word(word as usize, mask);
        }
        plane
    }

    /// Per group, in group order, how many of its rows each of `planes`
    /// holds — sets over the grouped table; a plane shorter than the
    /// grouping holds no row past its end. One popcount per run and
    /// plane ([`bitcount::group_counts`]): the tallies "how many of this
    /// group are decided, and how many passed?" for every group at once.
    pub fn counts<const N: usize>(&self, planes: [&RowSet; N]) -> Vec<[usize; N]> {
        bitcount::group_counts(self, planes.map(RowSet::words))
    }

    /// The size `t_a` of group `g`.
    pub fn size(&self, g: usize) -> usize {
        self.sizes[g]
    }

    /// All group sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.sizes.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("good", DataType::Bool),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::from("w"), Value::Bool(true)],
            vec![Value::Int(2), Value::from("x"), Value::Bool(false)],
            vec![Value::Int(1), Value::from("y"), Value::Bool(true)],
            vec![Value::Int(3), Value::from("z"), Value::Bool(false)],
            vec![Value::Int(2), Value::from("v"), Value::Bool(true)],
        ];
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn build_and_access() {
        let t = sample_table();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.value(3, "name"), Some(Value::from("z")));
        assert_eq!(
            t.row(0),
            vec![Value::Int(1), Value::from("w"), Value::Bool(true)]
        );
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample_table();
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn null_in_non_nullable_rejected() {
        let mut t = sample_table();
        let err = t
            .push_row(vec![Value::Null, Value::from("q"), Value::Bool(true)])
            .unwrap_err();
        assert!(err.contains("non-nullable"), "{err}");
    }

    #[test]
    fn group_by_partitions_rows() {
        let t = sample_table();
        let g = t.group_by("a").unwrap();
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.num_rows(), 5);
        // Sorted keys: 1, 2, 3.
        assert_eq!(g.key(0), &Value::Int(1));
        assert_eq!(g.rows(0).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(g.key(1), &Value::Int(2));
        assert_eq!(g.rows(1).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(g.size(2), 1);
        assert_eq!(g.sizes(), vec![2, 2, 1]);
        assert_eq!(g.keys(), [1, 2, 3].map(Value::Int));
    }

    #[test]
    fn group_by_missing_column_errors() {
        let t = sample_table();
        assert!(t.group_by("nope").is_err());
    }

    #[test]
    fn runs_hold_each_groups_rows_word_by_word() {
        // 200 rows dealt round-robin into three groups: every group
        // touches every word, and the last word is partial.
        let assignments: Vec<usize> = (0..200).map(|row| row % 3).collect();
        let g = GroupBy::from_assignments("virt", &assignments);
        for gi in 0..3 {
            let runs: Vec<(u32, u64)> = g.runs(gi).collect();
            assert_eq!(runs.len(), 4, "words 0..=3");
            assert!(runs.windows(2).all(|w| w[0].0 < w[1].0));
            let want: Vec<u32> = (0..200).filter(|row| row % 3 == gi as u32).collect();
            assert_eq!(g.rows(gi).collect::<Vec<_>>(), want);
            assert_eq!(g.size(gi), want.len());
        }
        // A group may skip words entirely.
        let sparse = GroupBy::new(
            "sparse".into(),
            vec![Value::Int(0), Value::Int(1)],
            vec![vec![3, 640, 641], vec![64]],
            4,
        );
        let runs = |g| sparse.runs(g).collect::<Vec<_>>();
        assert_eq!(runs(0), [(0, 1 << 3), (10, 0b11)]);
        assert_eq!(runs(1), [(1, 1)]);
        // The union of the groups' runs, as one plane.
        assert_eq!(sparse.row_plane().to_vec(), [3, 64, 640, 641]);
        assert_eq!(sparse.row_plane().words().len(), 11);
        assert_eq!(g.row_plane(), RowSet::full(200));
        let slice = GroupBy::new(
            "slice".into(),
            vec![Value::Int(0), Value::Int(1)],
            vec![g.rows(0).take(5).collect(), g.rows(2).take(3).collect()],
            8,
        );
        assert_eq!(slice.row_plane().to_vec(), [0, 2, 3, 5, 6, 8, 9, 12]);
        assert!(GroupBy::new("none".into(), vec![], vec![], 0)
            .row_plane()
            .is_empty());
    }

    #[test]
    fn a_slice_takes_each_groups_rows_by_rank() {
        // Group 0 holds every row below 200 but the multiples of 3, so
        // its runs are full words but for the bits of group 1.
        let assignments: Vec<usize> = (0..200).map(|row| usize::from(row % 3 == 0)).collect();
        let g = GroupBy::from_assignments("virt", &assignments);
        let rows = |group| g.rows(group).collect::<Vec<_>>();
        // Ranks 40..90 of group 0 straddle words 0..=2; group 1 keeps one
        // row; a range past a group's end is cut to it.
        let window = g.window(&[40..90, 66..70]);
        assert_eq!(
            window.to_vec(),
            [rows(0)[40..90].to_vec(), vec![198]].concat()
        );
        assert_eq!(window.words().len(), 4);
        // An empty range takes none of its group.
        assert_eq!(g.window(&[3..3, 0..2]).to_vec(), [0, 3]);
        // Every rank is every row.
        assert_eq!(g.window(&[0..200, 0..200]), g.row_plane());
    }

    #[test]
    fn ranked_bits_stop_at_the_runs_popcount() {
        // Bits 1, 2, 4, 5 and 7: ranks 0..5. A bound past the run costs
        // nothing more than the run's own bits.
        let mask = 0b1011_0110u64;
        assert_eq!(ranked_bits(mask, 1, 3), 0b0001_0100);
        assert_eq!(ranked_bits(mask, 2, usize::MAX), 0b1011_0000);
        assert_eq!(ranked_bits(mask, 0, usize::MAX), mask);
        assert_eq!(ranked_bits(mask, usize::MAX, usize::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn descending_group_rows_are_rejected() {
        GroupBy::new("bad".into(), vec![Value::Int(0)], vec![vec![0, 2, 1]], 3);
    }

    #[test]
    fn from_assignments_drops_empty_buckets() {
        let g = GroupBy::from_assignments("virt", &[0, 2, 2, 0]);
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.rows(0).collect::<Vec<_>>(), [0, 3]);
        assert_eq!(g.rows(1).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(g.key(0), &Value::Int(0));
        assert_eq!(g.key(1), &Value::Int(2));
    }

    #[test]
    fn ids_are_unique_and_clones_share_them() {
        let a = sample_table();
        let b = sample_table();
        assert_ne!(a.id(), b.id(), "independent tables get distinct ids");
        assert_eq!(a, b, "identity must not leak into content equality");
        let mut c = a.clone();
        assert_eq!(a.id(), c.id());
        assert_eq!(a.version(), c.version());
        // The identity lives while any clone does, and only that long.
        let identity = Arc::downgrade(a.identity());
        assert!(!Arc::ptr_eq(a.identity(), b.identity()));
        drop(a);
        assert_eq!(identity.strong_count(), 1, "the clone holds it");
        // A refused push keeps the table what it was; a push makes it a
        // new table, and the state it left dies with its last holder.
        let state = c.id();
        assert!(c.push_row(vec![Value::Int(1)]).is_err());
        assert_eq!((c.id(), identity.strong_count()), (state, 1));
        c.push_row(vec![Value::Int(9), Value::from("q"), Value::Bool(true)])
            .unwrap();
        assert_ne!(c.id(), state);
        assert_eq!(identity.strong_count(), 0);
    }

    #[test]
    fn version_tracks_content() {
        let mut a = sample_table();
        let mut b = sample_table();
        assert_eq!(a.version(), b.version(), "same build history, same version");
        let before = a.version();
        a.push_row(vec![Value::Int(9), Value::from("q"), Value::Bool(true)])
            .unwrap();
        assert_ne!(a.version(), before, "mutation must bump the version");
        // Same mutation on an equal table converges to the same version…
        b.push_row(vec![Value::Int(9), Value::from("q"), Value::Bool(true)])
            .unwrap();
        assert_eq!(a.version(), b.version());
        // …while a different row diverges.
        let mut c = sample_table();
        c.push_row(vec![Value::Int(9), Value::from("q"), Value::Bool(false)])
            .unwrap();
        assert_ne!(a.version(), c.version());
    }

    #[test]
    fn failed_push_leaves_version_unchanged() {
        let mut t = sample_table();
        let before = t.version();
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert!(t
            .push_row(vec![Value::Null, Value::from("q"), Value::Bool(true)])
            .is_err());
        assert_eq!(t.version(), before);
    }

    #[test]
    fn failed_push_leaves_no_ragged_columns() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let mut t = Table::from_rows(schema, vec![vec![Value::Int(1), Value::Int(2)]]).unwrap();
        let lens = |t: &Table| (t.column_at(0).len(), t.column_at(1).len(), t.num_rows());
        let before = t.version();
        // The first cell fits its column, the second does not.
        let err = t
            .push_row(vec![Value::Int(7), Value::from("x")])
            .unwrap_err();
        assert!(err.contains("type mismatch"), "{err}");
        assert_eq!(lens(&t), (1, 1, 1), "no cell of a refused row is kept");
        assert_eq!(t.version(), before);
        t.push_row(vec![Value::Int(7), Value::Int(8)]).unwrap();
        assert_eq!(lens(&t), (2, 2, 2));
        assert_eq!(t.row(1), [Value::Int(7), Value::Int(8)]);
        assert_ne!(t.version(), before);
    }

    #[test]
    fn a_widened_int_is_versioned_as_the_float_it_is_stored_as() {
        let schema = || Schema::new(vec![Field::new("x", DataType::Float)]);
        let by_rows = Table::from_rows(schema(), vec![vec![Value::Int(3)]]).unwrap();
        let by_columns =
            Table::from_columns(schema(), vec![Column::Float(vec![Some(3.0)])]).unwrap();
        assert_eq!(by_rows, by_columns, "equal cells");
        assert_eq!(by_rows.version(), by_columns.version());
    }

    #[test]
    fn from_columns_makes_the_checks_push_row_makes() {
        let ints = |cells: &[Option<i64>]| Column::Int(cells.to_vec());
        let names = |cells: &[Option<&str>]| {
            let mut column = Column::empty(DataType::Str);
            for cell in cells {
                column.push(cell.map_or(Value::Null, Value::from)).unwrap();
            }
            column
        };
        let goods = |cells: &[Option<bool>]| Column::Bool(cells.iter().copied().collect());
        let schema = || sample_table().schema().clone();
        let build = |columns| Table::from_columns(schema(), columns);

        let good = build(vec![
            ints(&[Some(1), Some(2), Some(1), Some(3), Some(2)]),
            names(&["w", "x", "y", "z", "v"].map(Some)),
            goods(&[true, false, true, false, true].map(Some)),
        ])
        .unwrap();
        assert_eq!(good, sample_table());
        assert_eq!(good.version(), sample_table().version());

        let err = build(vec![ints(&[Some(1)]), names(&[Some("w")])]).unwrap_err();
        assert!(err.contains("arity"), "{err}");
        let ragged = vec![
            ints(&[Some(1), Some(2)]),
            names(&[Some("w")]),
            goods(&[Some(true), Some(false)]),
        ];
        let err = build(ragged).unwrap_err();
        assert!(err.contains("\"name\" has 1 rows"), "{err}");
        let mistyped = vec![ints(&[Some(1)]), ints(&[Some(2)]), goods(&[Some(true)])];
        let err = build(mistyped).unwrap_err();
        assert!(err.contains("type mismatch"), "{err}");
        let with_null = vec![ints(&[None]), names(&[Some("w")]), goods(&[Some(true)])];
        let err = build(with_null).unwrap_err();
        assert!(err.contains("non-nullable"), "{err}");
    }

    #[test]
    fn from_columns_of_no_rows_is_the_empty_table() {
        let schema = sample_table().schema().clone();
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type()))
            .collect();
        let t = Table::from_columns(schema.clone(), columns).unwrap();
        assert_eq!(t, Table::empty(schema));
        assert_eq!(t.version(), 0);
    }

    #[test]
    fn empty_table_version_is_zero() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let t = Table::empty(schema);
        assert_eq!(t.version(), 0);
    }

    /// A column source that records every build: column `idx` holds
    /// `1000 * idx + row` for each of its `rows` rows. A build waits up to
    /// `linger` for a second build to start beside it, so builders that
    /// were let in together are all recorded.
    #[derive(Debug)]
    struct Counting {
        rows: usize,
        builds: std::sync::Mutex<Vec<usize>>,
        linger: std::time::Duration,
        building: (std::sync::Mutex<usize>, std::sync::Condvar),
    }

    impl Counting {
        fn new(rows: usize, linger: std::time::Duration) -> Arc<Self> {
            Arc::new(Self {
                rows,
                builds: Default::default(),
                linger,
                building: Default::default(),
            })
        }
    }

    impl ColumnSource for Counting {
        fn build(&self, idx: usize) -> Column {
            self.builds.lock().unwrap().push(idx);
            let (started, cond) = &self.building;
            let mut started = started.lock().unwrap();
            *started += 1;
            cond.notify_all();
            drop(cond.wait_timeout_while(started, self.linger, |n| *n < 2));
            Column::Int(
                (0..self.rows)
                    .map(|r| Some((1000 * idx + r) as i64))
                    .collect(),
            )
        }
    }

    /// Three Int columns `a`, `b`, `c` over `rows` rows at version 42:
    /// `a` built eagerly, `b` and `c` left to `source`.
    fn lazy_table(rows: usize, source: &Arc<Counting>) -> Table {
        let schema = Schema::new(
            ["a", "b", "c"]
                .map(|name| Field::new(name, DataType::Int))
                .to_vec(),
        );
        let a = Column::Int((0..rows).map(|r| Some(r as i64)).collect());
        Table::lazy(schema, rows, 42, [(0, a)], source.clone()).unwrap()
    }

    fn builds(source: &Counting) -> Vec<usize> {
        source.builds.lock().unwrap().clone()
    }

    #[test]
    fn racing_reads_build_a_lazy_column_once() {
        let source = Counting::new(500, std::time::Duration::from_millis(100));
        let table = lazy_table(500, &source);
        let barrier = std::sync::Barrier::new(8);
        let read: Vec<Column> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        table.column_at(1).clone()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(builds(&source), [1], "one build for eight readers");
        assert!(read.iter().all(|column| *column == read[0]));
        assert_eq!(read[0].value(499), Value::Int(1499));
        assert!(table.is_built(1) && !table.is_built(2));
    }

    #[test]
    fn racing_reads_derive_a_partition_once() {
        // The column build lingers, so all eight readers queue on it and
        // then reach the partition's memo together.
        let source = Counting::new(500, std::time::Duration::from_millis(100));
        let table = lazy_table(500, &source);
        let counters = DerivedCounters::default();
        let barrier = std::sync::Barrier::new(8);
        let read: Vec<Arc<GroupBy>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        table.partition("b", Some(&counters)).unwrap()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(builds(&source), [1], "one build for eight readers");
        let counted = counters.snapshot();
        assert_eq!((counted.misses, counted.hits), (1, 7), "one derivation");
        assert!(read.iter().all(|groups| Arc::ptr_eq(groups, &read[0])));
        assert_eq!(*read[0], table.group_by("b").unwrap());
    }

    #[test]
    fn a_clone_taken_before_the_build_shares_it() {
        let source = Counting::new(100, Default::default());
        let table = lazy_table(100, &source);
        let clone = table.clone();
        let shared = table.downgrade().upgrade().unwrap();
        assert!(std::ptr::eq(table.column_at(2), clone.column_at(2)));
        assert!(std::ptr::eq(table.column_at(2), shared.column_at(2)));
        assert_eq!(builds(&source), [2], "one build for every handle");
        assert_eq!(table.id(), clone.id());
        assert_ne!(table.id(), shared.id(), "a share is another table");
        assert_eq!(table.version(), shared.version());
        // Equality reads every column, building what is left, once.
        assert_eq!(table, shared);
        assert_eq!(builds(&source), [2, 1]);
    }

    #[test]
    fn a_push_to_one_share_leaves_the_other_untouched() {
        let source = Counting::new(3, Default::default());
        let mut pushed = lazy_table(3, &source);
        let kept = pushed.downgrade().upgrade().unwrap();
        let groups = kept.partition("b", None).unwrap();
        let stats = kept.column_stats("c").unwrap();
        let (id, version) = (kept.id(), kept.version());
        let column: *const Column = kept.column_at(1);
        pushed
            .push_row(vec![Value::Int(7), Value::Int(8), Value::Int(9)])
            .unwrap();
        assert_eq!((pushed.num_rows(), kept.num_rows()), (4, 3));
        assert_eq!((kept.id(), kept.version()), (id, version));
        assert_ne!(pushed.version(), version);
        assert!(std::ptr::eq(column, kept.column_at(1)), "not copied");
        assert_eq!(kept.row(2), [2, 1002, 2002].map(Value::Int));
        assert!(Arc::ptr_eq(&groups, &kept.partition("b", None).unwrap()));
        assert!(Arc::ptr_eq(&stats, &kept.column_stats("c").unwrap()));
        assert_eq!(pushed.partition("b", None).unwrap().num_rows(), 4);
        assert_eq!(
            builds(&source),
            [1, 2],
            "the push built on the shared content"
        );
    }

    #[test]
    fn shared_content_dies_with_its_last_table() {
        let table = sample_table();
        let weak = table.downgrade();
        let upgraded = weak.upgrade().expect("the table holds its content");
        assert_ne!(upgraded.id(), table.id(), "an upgrade is another table");
        assert_eq!(upgraded, table);
        let groups = Arc::downgrade(&upgraded.partition("name", None).unwrap());
        drop(table);
        assert!(weak.is_held(), "the upgraded table still holds it");
        assert!(groups.upgrade().is_some());
        drop(upgraded);
        assert!(!weak.is_held());
        assert!(weak.upgrade().is_none());
        assert!(groups.upgrade().is_none(), "the memo left with it");
    }

    #[test]
    fn push_row_builds_every_column_then_folds_onto_the_version() {
        let source = Counting::new(3, Default::default());
        let mut table = lazy_table(3, &source);
        table.column_at(2);
        let row = vec![Value::Int(7), Value::Int(8), Value::Int(9)];
        let row_hash = row.iter().fold(ROW_HASH_SEED, |hash, value| {
            fold_cell(hash, value.fingerprint())
        });
        // A refused row builds nothing.
        assert!(table.push_row(vec![Value::Int(7)]).is_err());
        assert_eq!(builds(&source), [2]);
        table.push_row(row).unwrap();
        assert_eq!(builds(&source), [2, 1]);
        assert_eq!(table.version(), fold_row(42, row_hash));
        assert_eq!(table.num_rows(), 4);
        assert_eq!(table.row(1), [1, 1001, 2001].map(Value::Int));
        assert_eq!(table.row(3), [7, 8, 9].map(Value::Int));
        assert_eq!(builds(&source), [2, 1], "no source after the push");
    }

    #[test]
    #[should_panic(expected = "column \"b\" has 2 rows, the table has 3")]
    fn a_built_column_that_breaks_its_field_panics_naming_it() {
        lazy_table(3, &Counting::new(2, Default::default())).column_at(1);
    }

    #[test]
    fn lazy_checks_its_built_columns() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let source = Counting::new(2, Default::default());
        let built = |column| Table::lazy(schema.clone(), 2, 1, [column], source.clone());
        let err = built((0, Column::Bool([Some(true); 2].into_iter().collect()))).unwrap_err();
        assert!(err.contains("type mismatch"), "{err}");
        let err = built((0, Column::Int(vec![Some(1), None]))).unwrap_err();
        assert!(err.contains("non-nullable"), "{err}");
        assert!(builds(&source).is_empty());
    }

    #[test]
    #[should_panic]
    fn groupby_must_partition() {
        GroupBy::new("c".into(), vec![Value::Int(0)], vec![vec![0, 1]], 5);
    }
}
