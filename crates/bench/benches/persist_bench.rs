//! Persistence-tier benchmarks: the cost of durability — appending,
//! compacting and rehydrating — below the serving path. The payoff of a
//! warm restart (zero fresh `o_e` after a reboot) is measured end to end
//! by the `durable_cold` workload in `benchmark/` and asserted by
//! `crates/serve/tests/warm_restart.rs`.
//!
//! ```text
//! cargo bench --bench persist_bench            # full run
//! cargo bench --bench persist_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Scenarios (→ `BENCH_persist.json`):
//!
//! * `wal_append` — raw [`PersistStore::append_row`] throughput through
//!   the bounded queue and batched-fsync flusher, ns/record.
//! * `recovery` — reopening the store over that WAL: CRC-checked replay
//!   cost per recovered record.
//! * `wal_append_batch` — the same rows through
//!   [`PersistStore::append_pages`], one stage-sized batch of pages at a
//!   time: ns/row until the calls return, and until the final sync does
//!   (the backends keep their `append_rows` names, so `bench-diff` still
//!   compares like with like), and the WAL bytes the batches wrote per
//!   row (`wal_bytes`).
//! * `compact` — two snapshot compactions of a 25-namespace index: ns
//!   per persisted row of the first (which encodes every page, as every
//!   compaction did before pages could leave RAM; the second copies the
//!   frames of the pages that left); `longest_append_stall`, the worst
//!   latency of a re-offer to a live table's namespace (which needs the
//!   index lock and nothing else) issued while either compaction ran —
//!   what a request's append waits for the walk; and `extra_heap_bytes`,
//!   the most heap the compactions held beyond what the process held
//!   before them (a counting global allocator, local to this binary,
//!   keeps the books).
//! * `rehydrate` — that snapshot back into a live
//!   [`expred_exec::CacheStore`]: open, page copies, prefill, ns/row.
//! * `resident` — an engine with persistence (result memo off) builds
//!   2 000 tables of 20 000 rows, asks one `intel_sample` query of each
//!   and drops it: the heap the process keeps per dead table once the
//!   dead are swept and a compaction has written their pages
//!   (`bytes_per_dead_table`).

use expred_bench::BenchReport;
use expred_core::pipeline::{IntelSampleConfig, PredictorChoice};
use expred_core::{PersistConfig, QueryEngine, QueryRequest};
use expred_exec::{CacheNamespace, CacheStore};
use expred_persist::{PagePlanes, PersistKey, PersistStore};
use expred_stats::bits::pages_of;
use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, counting the bytes it holds live and their
/// high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    /// Starts a new high-water mark at the current live bytes, and
    /// returns them.
    fn reset_peak() -> usize {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        live
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("expred-persist-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = BenchReport::new("persist");
    println!(
        "persist_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    // ---- Raw WAL append throughput. ----
    let wal_dir = scratch("wal");
    let records = if smoke { 20_000u32 } else { 200_000 };
    let store = PersistStore::open(
        PersistConfig::new(&wal_dir)
            .with_queue_capacity(records as usize)
            .with_compact_after(0),
    )
    .expect("open WAL store");
    let key = PersistKey {
        udf: 1,
        table: 2,
        version: 3,
    };
    let start = Instant::now();
    for i in 0..records {
        store.append_row(key, i, i % 2 == 0, 0);
    }
    store.sync().expect("drain and fsync the WAL");
    let append_secs = start.elapsed().as_secs_f64();
    drop(store);
    let append_ns = append_secs * 1e9 / records as f64;
    report.record("wal_append", "append_plus_batched_fsync", append_ns, 1.0);
    report.name_last("ns_per_record", "ns");
    println!("wal_append                  {append_ns:>8.1} ns/record ({records} records)");

    // ---- Recovery replay over that WAL. ----
    let start = Instant::now();
    let recovered = PersistStore::open(PersistConfig::new(&wal_dir)).expect("recover WAL");
    let recovery_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        recovered.stats().recovered_rows,
        records as u64,
        "recovery must replay every record"
    );
    drop(recovered);
    let recovery_ns = recovery_secs * 1e9 / records as f64;
    report.record("recovery", "open_wal", recovery_ns, append_ns / recovery_ns);
    report.name_last("ns_per_record", "ns");
    println!("recovery                    {recovery_ns:>8.1} ns/record");

    // ---- The same rows as stage batches. ----
    let batch_dir = scratch("batch");
    let store = PersistStore::open(
        PersistConfig::new(&batch_dir)
            .with_queue_capacity(records as usize)
            .with_compact_after(0),
    )
    .expect("open WAL store");
    let stage = 10_000usize;
    let batches: Vec<Vec<(usize, PagePlanes)>> = (0..records as usize / stage)
        .map(|b| pages_of((b * stage..(b + 1) * stage).map(|i| (i, i % 2 == 0))))
        .collect();
    let start = Instant::now();
    for batch in &batches {
        store.append_pages(key, batch);
    }
    // What the caller waits for, then what the flusher still owes.
    let caller_ns = start.elapsed().as_secs_f64() * 1e9 / records as f64;
    store.sync().expect("drain and fsync the WAL");
    let batch_ns = start.elapsed().as_secs_f64() * 1e9 / records as f64;
    assert_eq!(store.stats().flushed, records as u64);
    drop(store);
    for (backend, ns) in [
        ("append_rows", caller_ns),
        ("append_rows_plus_batched_fsync", batch_ns),
    ] {
        report.record_metric("wal_append_batch", backend, "ns_per_row", "ns", ns);
    }
    let wal_bytes = std::fs::metadata(batch_dir.join("wal-000000"))
        .expect("the batches' WAL")
        .len();
    let bytes_per_row = wal_bytes as f64 / records as f64;
    report.record_metric(
        "wal_append_batch",
        "wal_bytes",
        "wal_bytes_per_row",
        "bytes",
        bytes_per_row,
    );
    println!(
        "wal_append_batch            {batch_ns:>8.1} ns/row ({stage}-row batches, {:.1}x; \
         {caller_ns:.1} ns/row on the caller; {bytes_per_row:.2} WAL bytes/row)",
        append_ns / batch_ns
    );

    // ---- Compaction: the snapshot, and what an append waits for it. ----
    let snap_dir = scratch("snapshot");
    let (namespaces, table_rows) = (25u64, if smoke { 4_000u32 } else { 20_000 });
    let persisted = namespaces * table_rows as u64;
    // Namespace 0 is a live table's (retained, as the engine retains a
    // registered table), and the prober re-offers its rows; no table
    // holds the other 24.
    let ns_key = |n: u64| PersistKey {
        udf: n,
        version: key.version + u64::from(n == 0),
        ..key
    };
    let store = PersistStore::open(PersistConfig::new(&snap_dir).with_compact_after(0))
        .expect("open snapshot store");
    let table = pages_of((0..table_rows as usize).map(|i| (i, i % 3 == 0)));
    for n in 0..namespaces {
        store.append_pages(ns_key(n), &table);
    }
    store.retain(ns_key(0).table, ns_key(0).version);
    store.sync().expect("flush before compacting");
    // One compaction with a prober appending beside it: its time, and
    // the prober's worst wait.
    let compact_probed = || {
        let compacting = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|scope| {
            let prober = scope.spawn(|| {
                let mut worst = Duration::ZERO;
                while compacting.load(Ordering::Acquire) {
                    let asked = Instant::now();
                    store.append_row(ns_key(0), 0, true, 0);
                    worst = worst.max(asked.elapsed());
                }
                worst
            });
            let start = Instant::now();
            store.compact().expect("compact");
            let secs = start.elapsed().as_secs_f64();
            compacting.store(false, Ordering::Release);
            (secs, prober.join().expect("prober"))
        })
    };
    // The first compaction encodes every page; the pages no table holds
    // then leave RAM, and the second copies their frames.
    let heap_before = Counting::reset_peak();
    let (compact_secs, encode_stall) = compact_probed();
    let (copy_secs, copy_stall) = compact_probed();
    let extra_heap = PEAK.load(Ordering::Relaxed) - heap_before;
    drop(store);
    let stall = encode_stall.max(copy_stall);
    let compact_ns = compact_secs * 1e9 / persisted as f64;
    let snapshot_bytes: u64 = std::fs::read_dir(&snap_dir)
        .expect("list snapshot dir")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    report.record_metric(
        "compact",
        "page_images",
        "ns_per_persisted_row",
        "ns",
        compact_ns,
    );
    let stall_ns = stall.as_nanos() as f64;
    report.record_metric(
        "compact",
        "longest_append_stall",
        "append_latency_max",
        "ns",
        stall_ns,
    );
    report.record_metric(
        "compact",
        "extra_heap_bytes",
        "heap_bytes_max",
        "bytes",
        extra_heap as f64,
    );
    println!(
        "compact                     {compact_ns:>8.1} ns/row ({persisted} rows, {:.2} B/row, \
         {:.1} ns/row copied, longest append stall {:.0} us encoding and {:.0} us copying, \
         {} KB extra heap)",
        snapshot_bytes as f64 / persisted as f64,
        copy_secs * 1e9 / persisted as f64,
        encode_stall.as_secs_f64() * 1e6,
        copy_stall.as_secs_f64() * 1e6,
        extra_heap / 1024
    );

    // ---- Rehydration: that disk image into a live cache. ----
    let start = Instant::now();
    let store = PersistStore::open(PersistConfig::new(&snap_dir)).expect("reopen snapshot");
    let cache = CacheStore::new();
    let table = std::sync::Arc::new(());
    let mut loaded = 0usize;
    for persist_key in store.namespaces() {
        let pages = store.pages(persist_key).expect("listed namespace");
        // One table id per persisted state, as the engine registers them.
        let namespace = CacheNamespace {
            udf: persist_key.udf,
            table: persist_key.version,
        };
        loaded += cache.prefill(namespace, &table, &pages);
    }
    let rehydrate_ns = start.elapsed().as_secs_f64() * 1e9 / persisted as f64;
    assert_eq!((loaded as u64, cache.len() as u64), (persisted, persisted));
    drop(store);
    report.record_metric(
        "rehydrate",
        "disk_to_live_cache",
        "ns_per_row",
        "ns",
        rehydrate_ns,
    );
    println!("rehydrate                   {rehydrate_ns:>8.1} ns/row");

    // ---- Residency: what a dead table leaves in RAM. ----
    let engine_dir = scratch("resident");
    let engine = QueryEngine::new()
        .with_result_capacity(0)
        .with_persistence(PersistConfig::new(&engine_dir))
        .expect("open the engine's store");
    let query = QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
        "grade".into(),
    )));
    let (warm, dead) = (100u64, if smoke { 200u64 } else { 2_000 });
    let ask = |seeds: std::ops::Range<u64>| {
        for seed in seeds {
            let table = Dataset::generate(
                DatasetSpec {
                    rows: 20_000,
                    ..PROSPER
                },
                seed,
            );
            engine
                .submit(&table, &query.clone().with_seed(seed))
                .expect("query a table");
        }
        // Sweep the dead tables, and write their pages whole.
        assert_eq!(engine.store().num_namespaces(), 0, "every table is dead");
        engine.compact_persistence().expect("compact");
        let stats = engine.persist_stats().expect("a persistent engine");
        (LIVE.load(Ordering::Relaxed), stats.resident_pages)
    };
    let (heap_warm, _) = ask(0..warm);
    let (heap_dead, resident) = ask(warm..warm + dead);
    let per_table = heap_dead.saturating_sub(heap_warm) as f64 / dead as f64;
    drop(engine);
    report.record_metric(
        "resident",
        "bytes_per_dead_table",
        "heap_bytes_per_table",
        "bytes",
        per_table,
    );
    println!(
        "resident                    {per_table:>8.1} B/dead table ({dead} tables, \
         {resident} resident pages)"
    );

    for dir in [&wal_dir, &batch_dir, &snap_dir, &engine_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
