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
//! * `compact` — one snapshot compaction of a 25-namespace index: ns per
//!   persisted row, and `longest_append_stall`, the worst latency of a
//!   re-offer (which needs the index lock and nothing else) issued while
//!   the compaction ran — what a request's append waits for the freeze.
//! * `rehydrate` — that snapshot back into a live
//!   [`expred_exec::CacheStore`]: open, page copies, prefill, ns/row.

use expred_bench::BenchReport;
use expred_core::PersistConfig;
use expred_exec::{CacheNamespace, CacheStore};
use expred_persist::{PagePlanes, PersistKey, PersistStore};
use expred_stats::bits::pages_of;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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
        store.append_row(key, i, i % 2 == 0, 1_000 + i as u64);
    }
    store.sync().expect("drain and fsync the WAL");
    let append_secs = start.elapsed().as_secs_f64();
    drop(store);
    let append_ns = append_secs * 1e9 / records as f64;
    report.record("wal_append", "append_plus_batched_fsync", append_ns, 1.0);
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
    for (batch, ts) in batches.iter().zip(1_000u64..) {
        store.append_pages(key, batch, ts);
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
    let ns_key = |n: u64| PersistKey { udf: n, ..key };
    let store = PersistStore::open(PersistConfig::new(&snap_dir).with_compact_after(0))
        .expect("open snapshot store");
    let table = pages_of((0..table_rows as usize).map(|i| (i, i % 3 == 0)));
    for n in 0..namespaces {
        store.append_pages(ns_key(n), &table, 1_000 + n);
    }
    store.sync().expect("flush before compacting");
    let compacting = std::sync::atomic::AtomicBool::new(true);
    let (compact_secs, stall) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let mut worst = Duration::ZERO;
            while compacting.load(std::sync::atomic::Ordering::Acquire) {
                let asked = Instant::now();
                store.append_row(ns_key(0), 0, true, 0);
                worst = worst.max(asked.elapsed());
            }
            worst
        });
        let start = Instant::now();
        store.compact().expect("compact");
        let secs = start.elapsed().as_secs_f64();
        compacting.store(false, std::sync::atomic::Ordering::Release);
        (secs, prober.join().expect("prober"))
    });
    drop(store);
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
    println!(
        "compact                     {compact_ns:>8.1} ns/row ({persisted} rows, {:.2} B/row, \
         longest append stall {:.0} us)",
        snapshot_bytes as f64 / persisted as f64,
        stall_ns / 1e3
    );

    // ---- Rehydration: that disk image into a live cache. ----
    let start = Instant::now();
    let store = PersistStore::open(PersistConfig::new(&snap_dir)).expect("reopen snapshot");
    let cache = CacheStore::new();
    let table = std::sync::Arc::new(());
    let mut loaded = 0usize;
    for persist_key in store.namespaces() {
        let (pages, _) = store.pages(persist_key).expect("listed namespace");
        let namespace = CacheNamespace {
            udf: persist_key.udf,
            table: 1,
            version: persist_key.version,
        };
        loaded += cache.prefill(namespace, &table, &pages, Duration::ZERO);
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

    for dir in [&wal_dir, &batch_dir, &snap_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
