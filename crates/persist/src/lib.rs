//! `expred-persist` — a std-only durable store for the engine's reuse
//! tiers: every answer the session ever paid `o_e` for can outlive the
//! process that bought it.
//!
//! The paper's entire win is never paying for the same probe twice;
//! PRs 2–9 stretched that reuse across queries, threads, and tenants,
//! but every tier still died with the process. This crate adds the
//! missing axis — time across restarts — with a deliberately boring,
//! auditable design:
//!
//! * **Format** ([`mod@format`]): magic + format version per file, one
//!   CRC-checked length-prefixed frame per record. Corrupt or truncated
//!   tails are *skipped, never trusted*: recovery keeps the longest
//!   valid prefix and never panics on file contents.
//! * **WAL** ([`store`]): fresh `(udf, table, version, row) → bool`
//!   answers append a stage batch at a time to a write-ahead log through
//!   a bounded queue drained by a background flusher thread with a
//!   batched-fsync policy. A batch that arrives to find a queue's worth
//!   of rows already pending sheds the *oldest* pending frames, so
//!   persistence can never stall the hot path — shedding trades
//!   crash-window durability only, never correctness, because the
//!   index (the snapshot source) is updated synchronously and
//!   the next compaction re-captures anything the WAL dropped.
//! * **Index and snapshots**: the index is [`PagePlanes`] — the
//!   workspace's one page of `known`/`answer` bit planes, 4 096 rows a
//!   page, and no clock: an answer never expires — and a snapshot is
//!   those pages — one CRC-checked page image each — in a
//!   generation-numbered file streamed a few pages at a time and written
//!   as temp-then-rename, so a crash at any byte leaves either the old
//!   generation or the new one, never a half state. Only live tables'
//!   pages stay in RAM: a page no live table holds waits in its snapshot
//!   frame, and is read back when a table of its state registers again.
//!   Appends arrive and rehydration leaves as the same pages.
//! * **Rehydration**: namespaces are keyed by `(udf fingerprint, schema
//!   fingerprint, table version)` — all process-independent — and the
//!   engine checks versions on load, so a persisted namespace whose
//!   table no longer matches is ignored, not served.
//!
//! The store itself is engine-agnostic: it maps [`PersistKey`]s to row
//! answers (a selectivity-counter frame an earlier build wrote is read
//! and skipped, and the next snapshot leaves it out). `expred-core`
//! wires it into `QueryEngine::with_persistence`, and `expred-serve`
//! gives every tenant a directory under `--data-dir` for warm restarts.

pub mod format;
pub mod store;

pub use format::{PagePlanes, PersistKey, Record, PAGE_LIMIT, PAGE_ROWS};
pub use store::{FsyncPolicy, PersistConfig, PersistError, PersistStats, PersistStore};
