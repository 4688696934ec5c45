//! The [`WorkerPool`]'s width follows what its probes turn out to be.
//!
//! These tests run real probes against real clocks: *waiting* probes
//! (`thread::sleep`, the paper's service-call UDFs) must widen a cold
//! pool far past the core count within a handful of jobs, *computing*
//! probes (a fixed amount of arithmetic) must keep it at the core
//! budget, one pool taken through cheap → waiting → computing →
//! waiting must re-converge each time, and two callers of waiting probes
//! on one pool must each run nearly as fast as one alone (with probes
//! that wait long enough that the box's CPUs are not what is timed). The
//! controller's arithmetic is unit-tested on synthetic latencies in
//! `pool.rs`; here the signal is the machine's own. Timing-sensitive, so
//! the tests take turns, and a scenario that fails gets one more go (see
//! [`on_a_quiet_box`]).

use expred_exec::{BatchProbe, Executor, Sequential, WorkerPool};
use std::hint::black_box;
use std::sync::{Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// One timing test at a time: they measure the box they share.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs a timing scenario in its turn — and once more, from scratch, if
/// it fails. A shared box stalls now and then (on the reference VM about
/// one run in a hundred lost 100–250 ms across consecutive jobs, which
/// reads as a 2 ms "100 µs" probe); the pool shrugs a stalled job off
/// within a few jobs, but a scenario that counts jobs cannot. Two
/// stalled attempts in a row are rare enough to be called a failure.
fn on_a_quiet_box(scenario: impl Fn() + std::panic::RefUnwindSafe) {
    let _turn = turn();
    if std::panic::catch_unwind(&scenario).is_err() {
        scenario();
    }
}

const LATENCY: Duration = Duration::from_micros(100);

/// A probe that waits [`LATENCY`]: holds a thread, not a core.
fn waiting(row: usize) -> bool {
    std::thread::sleep(LATENCY);
    row.is_multiple_of(3)
}

fn churn(rounds: u64, seed: u64) -> u64 {
    let mut acc = seed;
    for _ in 0..rounds {
        acc = black_box(
            acc.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    acc
}

/// A probe that computes for about [`LATENCY`]: a fixed amount of work
/// (calibrated once), so sharing a core really does slow it down — a
/// spin-until-the-clock-says-so probe would count time spent descheduled
/// as progress.
fn computing(row: usize) -> bool {
    static ROUNDS: OnceLock<u64> = OnceLock::new();
    let rounds = *ROUNDS.get_or_init(|| {
        let trial = 200_000;
        let began = Instant::now();
        black_box(churn(trial, 1));
        let per_round = began.elapsed().as_nanos() as f64 / trial as f64;
        (LATENCY.as_nanos() as f64 / per_round.max(0.01)) as u64
    });
    black_box(churn(rounds, row as u64));
    row.is_multiple_of(3)
}

fn rows(n: usize) -> Vec<usize> {
    (0..n).collect()
}

fn timed(executor: &dyn Executor, probe: &dyn BatchProbe, rows: &[usize]) -> Duration {
    let began = Instant::now();
    black_box(executor.evaluate_batch(probe, rows));
    began.elapsed()
}

fn best_of(n: usize, mut run: impl FnMut() -> Duration) -> Duration {
    (0..n).map(|_| run()).min().expect("at least one run")
}

#[test]
fn waiting_probes_widen_a_cold_pool_within_eight_jobs() {
    on_a_quiet_box(|| {
        let pool = WorkerPool::new();
        let batch = rows(512);
        for _ in 0..8 {
            pool.evaluate_batch(&waiting, &batch);
        }
        assert!(
            pool.width() >= 32,
            "eight jobs of waiting probes left the width at {} (core budget {})",
            pool.width(),
            pool.threads()
        );
        let sequential = timed(&Sequential, &waiting, &batch);
        let pooled = best_of(3, || timed(&pool, &waiting, &batch));
        let speedup = sequential.as_secs_f64() / pooled.as_secs_f64();
        assert!(
            speedup >= 10.0,
            "512 × 100 µs: sequential {sequential:?}, pool {pooled:?} ({speedup:.1}×) at width {}",
            pool.width()
        );
    });
}

/// A probe that waits 1 ms. Every probe a worker runs costs it one
/// wake-up of CPU whatever the probe waits, and 126 workers waking every
/// 100 µs saturate a 2-vCPU box: there two callers of [`waiting`] probes
/// read 1.55–1.7× one caller's time per job whether or not each gets a
/// width of its own. At 1 ms the wake-ups are a tenth of the load, and
/// the same box reads 1.0–1.03× when each caller gets a width and
/// 1.85–1.95× when the callers share one job's worth of workers.
fn waiting_long(row: usize) -> bool {
    std::thread::sleep(Duration::from_millis(1));
    row.is_multiple_of(3)
}

/// Mean wall time of `jobs` batches of `batch` on `pool`, run by each of
/// `callers` threads released together; one entry per caller.
fn per_job_walls(pool: &WorkerPool, callers: usize, batch: &[usize], jobs: u32) -> Vec<Duration> {
    let start = Barrier::new(callers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let began = Instant::now();
                    for _ in 0..jobs {
                        black_box(pool.evaluate_batch(&waiting_long, batch));
                    }
                    began.elapsed() / jobs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_waiting_callers_each_get_a_width() {
    on_a_quiet_box(|| {
        let pool = WorkerPool::new();
        let batch = rows(512);
        for _ in 0..12 {
            pool.evaluate_batch(&waiting_long, &batch);
        }
        // Spawning the second job's workers is not what is timed.
        per_job_walls(&pool, 2, &batch, 4);
        // Best of three each, taken alternately, the slower caller's
        // time standing for the pair: a stall of the shared box must
        // land on both sides.
        let (mut alone, mut together) = (Duration::MAX, Duration::MAX);
        for _ in 0..3 {
            alone = alone.min(per_job_walls(&pool, 1, &batch, 10)[0]);
            let walls = per_job_walls(&pool, 2, &batch, 10);
            together = together.min(walls.into_iter().max().expect("two callers"));
        }
        let ratio = together.as_secs_f64() / alone.as_secs_f64();
        assert!(
            ratio <= 1.5,
            "512 × 1 ms: one caller {alone:?} a job, two callers {together:?} ({ratio:.2}×) \
             on {} workers",
            pool.stats().workers
        );
    });
}

/// The fixed-width reference the elastic pool must not lose to: one
/// scoped thread per contiguous chunk, answers written in place.
struct FixedWidth(usize);

impl Executor for FixedWidth {
    fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        let chunk = rows.len().div_ceil(self.0).max(1);
        let mut answers = vec![false; rows.len()];
        std::thread::scope(|scope| {
            for (rows, answers) in rows.chunks(chunk).zip(answers.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (row, answer) in rows.iter().zip(answers) {
                        *answer = probe.probe(*row);
                    }
                });
            }
        });
        answers
    }
}

#[test]
fn computing_probes_keep_the_core_budget() {
    on_a_quiet_box(|| {
        let pool = WorkerPool::new();
        let batch = rows(512);
        for _ in 0..12 {
            pool.evaluate_batch(&computing, &batch);
        }
        assert!(
            pool.width() <= pool.threads() + 1,
            "computing probes settled at width {} on a core budget of {}",
            pool.width(),
            pool.threads()
        );
        // And lose nothing to a backend fixed at that size.
        // Best of five each, taken alternately: a stall of the shared
        // box spans several consecutive jobs and must land on both sides.
        let fixed = FixedWidth(pool.threads() + 1);
        let (mut fixed_time, mut pooled) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            fixed_time = fixed_time.min(timed(&fixed, &computing, &batch));
            pooled = pooled.min(timed(&pool, &computing, &batch));
        }
        assert!(
            pooled.as_secs_f64() <= 1.15 * fixed_time.as_secs_f64(),
            "512 × 100 µs of arithmetic: fixed {fixed_time:?}, elastic {pooled:?}"
        );
    });
}

#[test]
fn one_pool_re_converges_across_regimes() {
    on_a_quiet_box(|| {
        let base = WorkerPool::new().threads() + 1;
        let batch = rows(512);

        // What the benchmark harness's own probe does first: teach the pool
        // a no-op. A no-op job gives its threads less work than waking them
        // costs, so it says nothing about width — unless a box stall lands
        // inside a probe and reads as work. This phase lasts microseconds,
        // so one stall (30–250 ms) spans all of it and the scenario's
        // retry too: it gets three goes of its own, on fresh pools, each
        // after the last one's stall is over.
        let cheap = |row: usize| black_box(row).is_multiple_of(3);
        let wide = rows(4096);
        let pool = (0..3)
            .map(|attempt| {
                if attempt > 0 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                let pool = WorkerPool::new();
                for _ in 0..4 {
                    pool.evaluate_batch(&cheap, &wide);
                }
                pool
            })
            .find(|pool| pool.width() == base)
            .expect("a no-op says nothing about width");

        for _ in 0..8 {
            pool.evaluate_batch(&waiting, &batch);
        }
        assert!(pool.width() >= 32, "cheap → waiting: {}", pool.width());

        for _ in 0..12 {
            pool.evaluate_batch(&computing, &batch);
        }
        assert!(
            pool.width() <= base,
            "waiting → computing: {}",
            pool.width()
        );

        for _ in 0..20 {
            pool.evaluate_batch(&waiting, &batch);
        }
        assert!(pool.width() >= 32, "computing → waiting: {}", pool.width());

        // Every regime, every width: the same answers.
        assert_eq!(
            pool.evaluate_batch(&cheap, &batch),
            Sequential.evaluate_batch(&cheap, &batch)
        );
    });
}
