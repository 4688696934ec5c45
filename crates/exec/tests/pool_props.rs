//! Property tests for the [`WorkerPool`] executor contract.
//!
//! For *arbitrary* row sets — duplicate-heavy, unsorted, tiny or large —
//! and every interesting worker count, the pool must be answer-identical
//! to [`Sequential`], batch after batch on one long-lived pool (the
//! inline fast path, the fan-out path, and the transitions between them
//! as the latency EWMA settles are all exercised by the same stream).
//! A panicking probe must propagate to the caller without wedging or
//! poisoning the pool for subsequent batches. All of it must hold while
//! the pool's learned width moves — between batches and under a batch
//! in flight — and at widths well past the core count.

use expred_exec::{Executor, Sequential, WorkerPool};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A stream of batches over a small row universe: duplicates within and
/// across batches are the norm, batch sizes span empty to medium.
fn batches() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..200, 0..120), 1..12)
}

fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The row's answer, whatever the probe does on the way to it.
fn answer(row: usize) -> bool {
    (row.wrapping_mul(2654435761) >> 3) % 5 < 2
}

/// A probe that waits: run in bulk, it teaches the pool to widen.
fn waiting(row: usize) -> bool {
    std::thread::sleep(Duration::from_micros(60));
    answer(row)
}

/// A probe that computes: run in bulk, it teaches the pool to narrow.
fn computing(row: usize) -> bool {
    let began = Instant::now();
    while began.elapsed() < Duration::from_micros(60) {
        std::hint::spin_loop();
    }
    answer(row)
}

/// Runs waiting batches until `pool` is wider than its cold start.
fn widen(pool: &WorkerPool) {
    let rows: Vec<usize> = (0..192).collect();
    for _ in 0..64 {
        if pool.width() <= pool.threads() + 1 {
            pool.evaluate_batch(&waiting, &rows);
        }
    }
    assert!(
        pool.width() > pool.threads() + 1,
        "waiting probes did not widen the pool"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pool_is_answer_identical_while_the_width_moves(
        stream in batches(),
        kinds in prop::collection::vec(0usize..3, 12),
    ) {
        let pool = WorkerPool::with_threads(2);
        widen(&pool);
        let stop = AtomicBool::new(false);
        let diverged = std::thread::scope(|scope| {
            // A second caller keeps the width moving under the first:
            // waiting batches widen it, computing ones narrow it again.
            let mover = scope.spawn(|| {
                let rows: Vec<usize> = (0..96).rev().collect();
                let want = Sequential.evaluate_batch(&answer, &rows);
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let got = if round % 8 < 5 {
                        pool.evaluate_batch(&waiting, &rows)
                    } else {
                        pool.evaluate_batch(&computing, &rows)
                    };
                    assert_eq!(got, want, "the mover's own batch diverged");
                    round += 1;
                }
            });
            // Between batches the first caller changes regime itself.
            let mut diverged = None;
            for (i, batch) in stream.iter().enumerate() {
                let probe: &(dyn Fn(usize) -> bool + Sync) = match kinds[i % kinds.len()] {
                    0 => &answer,
                    1 => &waiting,
                    _ => &computing,
                };
                if pool.evaluate_batch(&probe, batch) != Sequential.evaluate_batch(&answer, batch) {
                    diverged = Some(i);
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            mover.join().expect("the mover's batches stay correct");
            diverged
        });
        prop_assert_eq!(diverged, None, "a batch diverged while the width moved");
    }

    #[test]
    fn panic_at_a_width_past_the_cores_never_wedges_the_pool(
        batch in prop::collection::vec(0usize..100, 40..200),
        bomb_row in 0usize..100,
    ) {
        let pool = WorkerPool::with_threads(1);
        widen(&pool);
        let bomb = |row: usize| {
            if row == bomb_row {
                panic!("bomb at {row}");
            }
            waiting(row)
        };
        let has_bomb = batch.contains(&bomb_row);
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.evaluate_batch(&bomb, &batch)));
        prop_assert_eq!(outcome.is_err(), has_bomb);
        if let Ok(answers) = outcome {
            prop_assert_eq!(answers, Sequential.evaluate_batch(&answer, &batch));
        }
        // Every worker that shared the bombed job is back in service.
        prop_assert_eq!(
            pool.evaluate_batch(&waiting, &batch),
            Sequential.evaluate_batch(&answer, &batch)
        );
        prop_assert!(pool.stats().workers > 1);
    }

    #[test]
    fn pool_is_answer_identical_to_sequential(stream in batches()) {
        let probe = |row: usize| (row.wrapping_mul(2654435761) >> 3) % 5 < 2;
        for threads in [1, 2, machine_threads()] {
            let pool = WorkerPool::with_threads(threads);
            for (i, batch) in stream.iter().enumerate() {
                prop_assert_eq!(
                    pool.evaluate_batch(&probe, batch),
                    Sequential.evaluate_batch(&probe, batch),
                    "batch {} diverged at {} threads", i, threads
                );
            }
        }
    }

    #[test]
    fn duplicate_heavy_batches_probe_every_slot(stream in batches()) {
        // The executor contract is exactly-once *per slot*, duplicates
        // included — deduplication is the invoker's business, never the
        // backend's.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let probe = |row: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            row.is_multiple_of(2)
        };
        let pool = WorkerPool::with_threads(2);
        let mut expected = 0usize;
        for batch in &stream {
            pool.evaluate_batch(&probe, batch);
            expected += batch.len();
        }
        prop_assert_eq!(calls.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn panicking_probe_never_wedges_the_pool(
        batch in prop::collection::vec(0usize..100, 2..200),
        bomb_row in 0usize..100,
    ) {
        let pool = WorkerPool::with_threads(machine_threads().min(4));
        let bomb = |row: usize| {
            if row == bomb_row {
                panic!("bomb at {row}");
            }
            row.is_multiple_of(3)
        };
        let has_bomb = batch.contains(&bomb_row);
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.evaluate_batch(&bomb, &batch)));
        prop_assert_eq!(
            outcome.is_err(),
            has_bomb,
            "panic must propagate exactly when the bomb row is present"
        );
        // The same pool keeps serving correct answers afterwards.
        let probe = |row: usize| row.is_multiple_of(3);
        prop_assert_eq!(
            pool.evaluate_batch(&probe, &batch),
            Sequential.evaluate_batch(&probe, &batch)
        );
    }
}
