//! In-memory columnar relation substrate for the `expred` workspace.
//!
//! The paper's query `SELECT * FROM R(A, ID) WHERE f(ID) = 1` needs a small
//! relational backbone: typed tables, a group-by over the correlated
//! attribute, per-column metadata for predictor selection, and ingestion.
//! This crate provides it from scratch.
//!
//! # Storage model
//!
//! Storage is **typed-columnar**, not row-oriented: a [`table::Table`] is a
//! [`schema::Schema`] plus one [`column::Column`] per field. Numeric
//! columns are typed vectors — `Vec<Option<i64>>`, `Vec<Option<f64>>` —
//! with `None` as NULL. A boolean column is its bit planes
//! ([`column::BoolColumn`]): the rows where it is true, one
//! [`rowset::RowSet`] behind an `Arc` that [`column::Column::true_rows`]
//! hands out as it is, and a NULL plane only once a NULL exists. String
//! columns are **dictionary-encoded** ([`column::StrColumn`]): each
//! distinct string is stored once, and every row carries a code at the
//! narrowest width the dictionary allows — a byte up to 255 entries, two
//! bytes up to 65 535, four beyond — with NULL as the width's maximum
//! value ([`column::Code::NULL`]). A push that outgrows the width
//! re-stores the codes one width up, and every reader of the codes is
//! generic over the width. There is one string representation, whatever
//! the cardinality; equality is by *content* (two columns with the same
//! cells are equal however their dictionaries are ordered); and the one
//! cost is stated plainly: an all-distinct string column pays 2–4 B/row
//! of codes plus a dictionary slot and an interning-index entry per row on
//! top of its strings.
//! [`value::Value`] is a *cell view* for ingestion, display, and group
//! keys; it is materialized at the edges, never stored per cell. A table
//! is built a row at a time ([`table::Table::push_row`], what [`csv`]
//! uses) or from whole columns ([`table::Table::from_columns`]); both
//! make the same checks and fold the same content
//! [`table::Table::version`]. A generated table ([`datasets`]) builds
//! each column on its first read, and its version fingerprints the
//! generator's recipe instead of the cells. Hot paths run on the typed
//! vectors and the codes directly:
//!
//! * [`kernels`] — vectorized grouping: [`kernels::GroupCodes`] dictionary-
//!   encodes a column into dense group ids plus a key-sorted dictionary
//!   in one typed pass (byte-identical output to the scalar
//!   hash-per-cell reference the property tests keep); on a string
//!   column it sorts the stored dictionary and remaps the stored codes at
//!   their width, hashing nothing.
//!   Also the substrate for one-hot feature encoding in `expred_core::ml`.
//! * [`stats`] — [`stats::ColumnStats`], a column's NULL and distinct
//!   counts and, for a string column, its group sizes and code → group
//!   map, through which [`table::Table::tally_groups`] tallies a sample
//!   per group without a partition.
//! * [`rowset`] — [`rowset::RowSet`], a set of dense row ids as one
//!   packed bit plane (answers, ground truth, labelled samples), in the
//!   64-row word layout [`table::GroupBy::runs`] shares: a group meets a
//!   set one `mask & word` at a time, and an ascending answer list is
//!   the plane read out in order.
//! * [`bitcount`] — the read path's bit counts (a plane's size, a
//!   group's share of a plane, a group's rank cut), each compiled twice:
//!   with the POPCNT instruction where the CPU has it, and portably.
//! * [`derived`] — the table memo: a column's [`table::GroupBy`]
//!   partition, dictionary codes and stats, each derived on first lookup
//!   and kept in the column's slot, so it dies with the table and
//!   `push_row` resets it; [`derived::DerivedCounters`] counts one
//!   caller's hits and misses.
//!
//! # Modules
//!
//! * [`value`] / [`schema`] / [`crate::column`] / [`table`] — the data model.
//!   [`table::GroupBy`] is the central structure: the partition of rows by
//!   a real or *virtual* correlated column.
//! * [`csv`] — minimal RFC-4180 CSV ingestion for users with real data.
//! * [`datasets`] — synthetic clones of the paper's four evaluation
//!   datasets, calibrated to the published Table 2/3 statistics (the
//!   module docs give the substitution argument), generated column by
//!   column.

pub mod bitcount;
pub mod column;
pub mod csv;
pub mod datasets;
pub mod derived;
pub mod kernels;
pub mod rowset;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use column::{BoolColumn, Column, StrColumn};
pub use datasets::{Dataset, DatasetSpec, LABEL_COLUMN};
pub use derived::{DerivedCacheStats, DerivedCounters};
pub use kernels::GroupCodes;
pub use rowset::RowSet;
pub use schema::{Field, Schema};
pub use stats::{ColumnStats, GroupTally};
pub use table::{GroupBy, Table, TableId, WeakTable};
pub use value::{DataType, Value};
