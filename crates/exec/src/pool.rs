//! [`WorkerPool`]: a persistent, work-stealing [`Executor`] backend whose
//! *width* — how many threads share one batch — is learned, not set.
//!
//! # Shape
//!
//! Workers are long-lived and park on a condvar; a batch is published as
//! one shared job with an **atomic chunk cursor** from which the job's
//! stealers (some workers, and always the calling thread) claim
//! variable-size chunks: guided self-scheduling, `remaining /
//! (2·stealers)` rows at a time, large chunks first shrinking toward the
//! tail, so fast stealers absorb stragglers' leftovers. Every answer
//! lands at its input index in the output buffer, so results are in
//! input order no matter which thread computed what — the crate-level
//! determinism contract comes from *where* answers land, never from
//! *when*. No threads are spawned per batch and no batch is as slow as
//! its unluckiest fixed chunk.
//!
//! # Width is not cores
//!
//! The paper's UDFs are expensive in *latency* — service calls, crowd
//! work — and a probe that waits holds a thread, not a core. Sizing a
//! pool of waiting threads by `available_parallelism` leaves the box
//! asleep: on the 2-vCPU reference box a 945-evaluation query on a
//! 100 µs UDF spent 58 ms of a 62 ms request inside the pool with the
//! CPUs 81 % idle. So the pool keeps two numbers apart:
//!
//! * the **core budget** ([`WorkerPool::threads`], what
//!   [`WorkerPool::new`] reads off the machine and
//!   [`WorkerPool::with_threads`] overrides): the width a job gets when
//!   nothing is known about its probes, right for CPU-bound ones;
//! * the **width** ([`WorkerPool::width`]): how many threads, caller
//!   included, share one job *now*. It starts at the core budget plus
//!   the caller, may grow to `MAX_WIDTH` (64), and workers are spawned
//!   lazily as it does — a pool that only ever sees cheap batches never
//!   spawns a thread.
//!
//! The width is learned from the one signal that tells a waiting probe
//! from a computing one without a CPU clock or a hint from the UDF:
//! **whether a probe costs more when more threads share the job.**
//! Waiting probes cost the same however many run side by side;
//! computing probes past the core count queue for a core, and cost in
//! proportion to the width (measurements beside `GROW_RATIO`). Every
//! job measures it twice over: by its stealers' clocks (time inside
//! probes ÷ rows — exact, but blind to a thread that never got a core to
//! start on) and by its own (wall time ÷ rounds of `stealers` rows —
//! sees those threads, and is trusted when no other caller's job shared
//! the workers); the larger is what a probe cost. The controller runs a
//! trial job at twice the proven width and keeps the doubling only if a
//! probe cost at most 1.4× more; backs off exponentially from trials
//! that fail; and, when the cost at the proven width stops resembling
//! its reference (a different UDF arrived on this shared pool), halves
//! the width for as long as the wider width would have failed as a trial
//! from the narrower. One job never overturns a reference — a stalled
//! box reads just like a slower probe — the next job at that width gets
//! a say. Latency-bound probes reach the cap in six jobs; CPU-bound ones
//! stay at the core budget with an occasional trial that costs them
//! nothing (their throughput is the same at any width past the core
//! count); a box whose CPUs saturate on wake-ups fails its next trial
//! and stops there. There is deliberately no setting: a width someone
//! must tune is wrong for the next UDF.
//!
//! One pool is meant to serve a whole process — share it as an
//! `Arc<WorkerPool>` (`Arc<E>` is an [`Executor`]), and N sessions cost
//! one set of threads instead of N. The width is **per job**: a job
//! grows the pool to cover the helpers every queued job was published
//! with plus its own, so two callers' waiting probes overlap as if each
//! had the pool alone. The pool stops growing at a ceiling of
//! `MAX_WIDTH` workers per core of the budget, less one (127 on the
//! reference box); a job published past it keeps its planned width and
//! collects workers as older jobs finish, since idle workers always take
//! the *oldest* job that still wants help — so a later batch can never
//! starve an earlier one down to single-threaded execution. On a 2-vCPU
//! VM, 512 × 100 µs sleeping probes per job, two concurrent callers took
//! 1.78× one caller's time per job when they shared one job's worth of
//! workers and take 1.1–1.35× under this rule; four took 3.47× and take
//! 1.9–2.7× (wake-ups load the CPUs, so the spread follows the load on
//! the host). Probes that compute gain nothing from the extra threads
//! and lose nothing either: two spinning callers run at about 2× one
//! caller's time under both rules.
//!
//! # Inline fast path
//!
//! The pool keeps a per-probe latency estimate (an EWMA fed by its own
//! stealers' clocks — only the pool can time a probe once probes
//! overlap): batches whose *estimated total work* is below the dispatch
//! cost run inline on the caller instead of waking workers — eight
//! 100 µs probes fan out (they carry 800 µs of work), eight 1 µs probes
//! run inline. The inline path hedges against a stale estimate: if a
//! supposedly-cheap batch overruns a small time budget (a new, slower
//! UDF arrived on a warmed-up pool), the remainder fans out mid-batch.
//!
//! # Panic safety
//!
//! A panicking probe must not poison or deadlock a long-lived pool.
//! Stealers catch the unwind per chunk, mark the job panicked, and keep
//! claiming (without evaluating) so the job still completes; the caller
//! re-raises the panic only after every stealer is provably done
//! touching the job's buffers. The pool remains fully usable afterwards.
//! Growing the pool cannot panic either: a worker that fails to spawn
//! (thread or memory limits, inside someone's request) leaves the pool
//! at the size it had, and the job runs on the threads there are — the
//! caller alone can finish any job.

use crate::executor::{BatchProbe, Executor};
use std::cmp::Ordering as Cmp;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Estimated fixed cost (ns) of publishing a job and waking the pool;
/// batches with less estimated total probe work than this run inline.
const DISPATCH_COST_NS: f64 = 30_000.0;

/// The most threads, caller included, that one job is shared among (a
/// pool given a larger core budget keeps that budget). Measured on the
/// 2-vCPU reference box, 2 048 sleeping 100 µs probes: 17 / 91 / 175 /
/// 330 rows per ms at 3 / 17 / 33 / 65 threads with per-probe latency
/// flat at 174–189 µs — still near-linear at 64 — while each parked
/// worker costs a stack's worth of address space and one wake-up per
/// wide job. Past this, a backend that needs more concurrency wants
/// asynchronous I/O, not more threads.
///
/// It is also the pool's ceiling per core. Concurrent jobs each get
/// their own width, but the pool never spawns more than `MAX_WIDTH ×
/// threads − 1` workers (127 on the reference box). Workers are never
/// retired, so this bounds what a process keeps parked after its
/// busiest moment, in proportion to its cores. It is a bound on
/// threads, not a tuned optimum: where wake-ups saturate a box depends
/// on the box, and on the 2-vCPU VM this was measured on, four
/// concurrent callers of 512 sleeping 100 µs probes ran 2.6 ms a job at
/// the ceiling and 2.2 ms uncapped (252 workers).
const MAX_WIDTH: usize = 64;

/// A trial at twice the width is kept when a probe cost at most this
/// much more than at the proven width. Probes that wait cost the same
/// at any width, probes that compute cost in proportion to it — 1× or
/// 2× per doubling — and this is the geometric midpoint. Measured on
/// the 2-vCPU reference box, per probe by the stealers' own clocks: a
/// sleeping 100 µs probe reads 174 → 176 → 184 → 185 → 185 → 189 µs at
/// 3 / 5 / 9 / 17 / 33 / 65 threads (worst step 1.05×), a spinning one
/// 148 → 244 → 421 → 724 → 1 124 → 1 298 µs (1.6–1.7× a step until, past
/// 33, threads stop getting a core to start on and that clock goes
/// blind); by the job's clock (wall ÷ rounds, which the controller takes
/// when it is the larger) the sleeping probe's worst step is 1.15× —
/// wake-ups are on that clock — and 512 × 100 µs of arithmetic reads
/// 0.41 → 0.81 → 1.63 → 3.29 → 6.59 ms at 4 / 8 / 16 / 32 / 64 threads:
/// 2.0× a step, however few of them got to run.
const GROW_RATIO: f64 = 1.4;

/// Latency at the proven width this far from its reference, either way,
/// means the reference describes some other probe, and the width has to
/// prove itself again: it is halved for as long as the wider width would
/// have failed as a trial from the narrower one (`GROW_RATIO` again —
/// the spinning series above improves 1.6–1.9× per halving, a waiting
/// probe not at all). Run-to-run noise on one box stays well under
/// this; a different UDF rarely does.
const SHRINK_RATIO: f64 = 1.5;

/// Most jobs between two trials after repeated failures (a first
/// failure is retried at once, then the wait doubles from 1). Bounds
/// how long a CPU-bound regime that turned latency-bound *at the same
/// per-probe cost* — the one change the reference cannot see — waits to
/// be noticed.
const MAX_BACKOFF: u32 = 8;

/// How long the inline fast path may run before it concedes its latency
/// estimate was stale and fans the remaining rows out (a few dispatch
/// costs: cheap enough to never matter when the estimate was right,
/// tight enough to cap the damage when it was not).
const INLINE_BUDGET: Duration = Duration::from_micros(120);

/// One published batch: everything a stealer needs to claim and fill
/// chunks, plus completion/panic bookkeeping.
///
/// The probe/rows/answers pointers borrow from the `evaluate_batch` call
/// frame with their lifetimes erased — see the safety argument on
/// [`WorkerPool::fan_out`].
struct Job {
    /// The probe, lifetime-erased. Only dereferenced for claimed rows.
    probe: *const dyn BatchProbe,
    /// The input rows, lifetime-erased.
    rows: *const usize,
    /// The output buffer, disjointly written by chunk index.
    answers: *mut bool,
    len: usize,
    /// Next unclaimed row index; claims advance it atomically.
    cursor: AtomicUsize,
    /// Rows whose slots are finalized (evaluated, or skipped post-panic).
    completed: AtomicUsize,
    /// Sticky flag: some chunk's probe panicked.
    panicked: AtomicBool,
    /// Total ns spent inside probe calls (summed across stealers).
    work_ns: AtomicU64,
    /// How many threads share this job, the caller included: the width
    /// it was published at, at most one per row. Sizes the guided
    /// chunks and bounds how many workers may enlist.
    stealers: usize,
    /// Workers enlisted so far (at most `stealers - 1`).
    helpers: AtomicUsize,
    /// Completion signal: the final chunk's stealer notifies the caller.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: the raw pointers are only dereferenced by stealers holding a
// claimed chunk, and `fan_out` does not return (or unwind) until
// `completed == len`, i.e. until no stealer will dereference them again.
// `BatchProbe: Sync` makes the shared `&dyn BatchProbe` usable from any
// thread; `rows` is only read; `answers` writes are disjoint by index.
// Every other field is an atomic, a `Mutex`/`Condvar`, or immutable.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims the next chunk: guided self-scheduling, `remaining /
    /// (2·stealers)` rows (at least 1), so early chunks are large and the
    /// tail degrades to single rows that fast stealers mop up.
    fn claim(&self) -> Option<(usize, usize)> {
        loop {
            let start = self.cursor.load(Ordering::Relaxed);
            if start >= self.len {
                return None;
            }
            let remaining = self.len - start;
            let chunk = (remaining / (2 * self.stealers)).clamp(1, remaining);
            if self
                .cursor
                .compare_exchange_weak(start, start + chunk, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some((start, chunk));
            }
        }
    }

    /// Whether a worker may join: rows are left and the job's width is
    /// not yet filled. Enlisting is what keeps a job at the width it was
    /// published at when workers come off another caller's job.
    fn enlist(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.len
            && self
                .helpers
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |helpers| {
                    (helpers + 1 < self.stealers).then_some(helpers + 1)
                })
                .is_ok()
    }

    /// Steals and evaluates chunks until the cursor is exhausted.
    fn run(&self) {
        while let Some((start, chunk)) = self.claim() {
            if !self.panicked.load(Ordering::Relaxed) {
                let began = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    for i in start..start + chunk {
                        // SAFETY: `i < len`, this chunk is exclusively
                        // ours, and the buffers outlive the job (see the
                        // `Send`/`Sync` impl and `fan_out`).
                        unsafe {
                            let row = *self.rows.add(i);
                            *self.answers.add(i) = (*self.probe).probe(row);
                        }
                    }
                }));
                self.work_ns
                    .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if outcome.is_err() {
                    self.panicked.store(true, Ordering::Release);
                }
            }
            // Count the chunk complete even after a panic: completion is
            // what lets the caller stop waiting, and a panicked job's
            // answers are never returned anyway.
            let done = self.completed.fetch_add(chunk, Ordering::AcqRel) + chunk;
            if done >= self.len {
                let mut finished = self.done.lock().unwrap_or_else(|e| e.into_inner());
                *finished = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every row's slot is finalized.
    fn wait(&self) {
        let mut finished = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*finished {
            finished = self
                .done_cv
                .wait(finished)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The width controller: which width is proven, and what the next job
/// should try. Pure bookkeeping — the pool feeds it each finished job's
/// width and per-probe latency under the state lock.
#[derive(Debug)]
struct Width {
    /// The core budget plus the caller: the floor, and the cold start.
    base: usize,
    /// The ceiling: [`MAX_WIDTH`], or `base` if that is larger.
    cap: usize,
    /// The width jobs run at: the widest that has not (yet) been seen to
    /// cost per-probe latency.
    proven: usize,
    /// Per-probe latency (ns) at the proven width — an EWMA while it
    /// holds steady, replaced outright when it shifts. `0.0`: unknown.
    reference_ns: f64,
    /// While halving: the latency at the previous, wider width. `0.0`
    /// when not halving.
    wider_ns: f64,
    /// The last job at the proven width contradicted the reference (or,
    /// while halving, said to stop): a second opinion is pending.
    doubt: bool,
    /// Jobs at the proven width still to run before the next trial.
    cooldown: u32,
    /// The cooldown the next failed trial imposes: none after a first
    /// failure (one noisy job should not cost two), then 1, 2, 4, ... up
    /// to [`MAX_BACKOFF`].
    backoff: u32,
}

impl Width {
    fn new(threads: usize) -> Self {
        let base = threads + 1;
        Self {
            base,
            cap: MAX_WIDTH.max(base),
            proven: base,
            reference_ns: 0.0,
            wider_ns: 0.0,
            doubt: false,
            cooldown: 0,
            backoff: 0,
        }
    }

    /// How many threads the next job of `len` rows is shared among: the
    /// proven width — or, when a trial is due, twice that — but never
    /// more than one per row.
    fn plan(&self, len: usize) -> usize {
        let settled = self.reference_ns > 0.0 && self.wider_ns == 0.0 && !self.doubt;
        let width = if settled && self.cooldown == 0 {
            (2 * self.proven).min(self.cap)
        } else {
            self.proven
        };
        width.min(len)
    }

    /// Folds in one finished job: it ran `stealers` wide and a probe
    /// cost `ns`.
    fn observe(&mut self, stealers: usize, ns: f64) {
        match stealers.cmp(&self.proven) {
            // Too short to fill the width: says nothing about it.
            Cmp::Less => {}
            Cmp::Equal => self.observe_proven(ns),
            // A trial. (One published before a halving began is stale.)
            Cmp::Greater if self.wider_ns > 0.0 => {}
            Cmp::Greater if ns <= GROW_RATIO * self.reference_ns => {
                self.proven = stealers;
                self.settle(ns);
            }
            Cmp::Greater => {
                self.cooldown = self.backoff;
                self.backoff = (2 * self.backoff).clamp(1, MAX_BACKOFF);
            }
        }
    }

    /// A job at the proven width: the reference holds, or the width has
    /// to prove itself again.
    fn observe_proven(&mut self, ns: f64) {
        let halving = self.wider_ns > 0.0;
        let unknown = self.reference_ns == 0.0;
        let shifted = unknown
            || ns >= SHRINK_RATIO * self.reference_ns
            || ns * SHRINK_RATIO <= self.reference_ns;
        if !halving && !shifted {
            self.reference_ns += 0.25 * (ns - self.reference_ns);
            self.cooldown = self.cooldown.saturating_sub(1);
            self.doubt = false;
        } else if halving && self.proven > self.base && ns * GROW_RATIO < self.wider_ns {
            // The wider width would not have survived as a trial from
            // this one: try narrower still.
            self.halve(ns);
        } else if !unknown && !self.doubt {
            // About to drop a reference, or stop halving, on one job's
            // word — and a noisy neighbour reads just like that. The
            // next job at this width decides.
            self.doubt = true;
        } else if !halving && self.proven > self.base {
            // These are not the probes the width was proven on.
            self.halve(ns);
        } else {
            self.settle(ns);
        }
    }

    /// A probe cost `ns` at the proven width; see what it costs at half.
    fn halve(&mut self, ns: f64) {
        self.wider_ns = ns;
        self.proven = (self.proven / 2).max(self.base);
        self.doubt = false;
    }

    /// `ns` is what probes cost at the proven width from here on; trials
    /// may resume at once.
    fn settle(&mut self, ns: f64) {
        self.reference_ns = ns;
        self.wider_ns = 0.0;
        self.doubt = false;
        self.cooldown = 0;
        self.backoff = 0;
    }

    /// The pool has just seen its latency estimate be wrong (the inline
    /// hedge fired): the reference is for some other probe.
    fn invalidate(&mut self) {
        self.reference_ns = 0.0;
    }
}

/// EWMA smoothing factor: each batch contributes a quarter of the new
/// estimate, so a latency regime change settles within a few batches
/// without one outlier (page cache miss, scheduler hiccup) whipping the
/// estimate around.
const EWMA_ALPHA: f64 = 0.25;

/// A lock-free EWMA of observed per-probe latency: observations and
/// reads are single atomics, so concurrent callers never serialize on it.
#[derive(Debug, Default)]
struct LatencyEwma {
    /// `f64` bits of the ns-per-probe estimate; `0` means "no
    /// observation yet" (a real measurement of exactly 0.0 ns cannot
    /// occur: `observe` floors at a fraction of a nanosecond).
    ns_bits: AtomicU64,
}

impl LatencyEwma {
    /// Folds one batch into the estimate.
    ///
    /// Racing observers may each fold against the same prior value —
    /// losing one update's weight is harmless for a heuristic, and the
    /// alternative (a CAS loop) would put a contended retry on every
    /// batch of every caller.
    fn observe(&self, rows: usize, elapsed: Duration) {
        if rows == 0 {
            return;
        }
        let per_probe = (elapsed.as_nanos() as f64 / rows as f64).max(0.1);
        let next = match self.ns_bits.load(Ordering::Relaxed) {
            0 => per_probe,
            prior => {
                let prior = f64::from_bits(prior);
                prior + EWMA_ALPHA * (per_probe - prior)
            }
        };
        self.ns_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    /// The current estimate, if any batch has been observed yet.
    fn latency_estimate(&self) -> Option<Duration> {
        match self.ns_bits.load(Ordering::Relaxed) {
            0 => None,
            bits => Some(Duration::from_nanos(f64::from_bits(bits) as u64)),
        }
    }
}

/// The pool's publication queue: workers park here between jobs.
struct PoolShared {
    state: Mutex<PoolState>,
    work_available: Condvar,
    /// Per-probe latency estimate driving the inline fast path.
    latency: LatencyEwma,
    /// Batches fanned out as jobs / run inline, and rows through either.
    counters: PoolCounters,
    /// Test hook: the worker count past which spawning "fails".
    #[cfg(test)]
    spawn_limit: AtomicUsize,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Every update under this lock leaves the state valid at each
        // step, so a panicking holder poisons nothing worth refusing.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct PoolState {
    /// Published jobs in FIFO order. Each caller pushes its job, steals
    /// alongside the workers, and removes the job once complete; workers
    /// serve the *oldest* job that still wants help first, so concurrent
    /// callers share the pool fairly instead of the newest publication
    /// starving the rest.
    jobs: Vec<Arc<Job>>,
    /// Every worker spawned so far; joined on drop.
    workers: Vec<JoinHandle<()>>,
    width: Width,
    /// Jobs published so far (tells a job whether another shared the
    /// pool with it).
    published: u64,
    shutdown: bool,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut guard = shared.lock();
            loop {
                if guard.shutdown {
                    return;
                }
                // Oldest-first: FIFO fairness across concurrent callers.
                if let Some(job) = guard.jobs.iter().find(|job| job.enlist()) {
                    break Arc::clone(job);
                }
                guard = shared
                    .work_available
                    .wait(guard)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        job.run();
    }
}

expred_stats::counter_set! {
    /// What a pool is doing, for `/metrics` and benches: "why was this
    /// query slow?" can be answered with "the width was 2". The first
    /// three are gauges [`WorkerPool::stats`] reads off the pool (their
    /// slots in the atomic twin stay zero); the twin counts the rest.
    pub struct PoolStats, atomic struct PoolCounters {
        /// Threads, caller included, a job is shared among right now.
        width,
        /// Workers spawned so far.
        workers,
        /// The per-probe latency estimate, in ns (0 before the first
        /// batch).
        probe_latency_ns,
        /// Batches published to the workers.
        jobs,
        /// Batches that ran on their caller (cheap, or a single row).
        inline_batches,
        /// Rows evaluated either way.
        rows,
        /// Jobs that had another caller's job in the queue while they
        /// ran.
        shared_jobs,
    }
}

/// A persistent work-stealing executor: long-lived workers, batches
/// published as shared jobs, chunks claimed off an atomic cursor, and a
/// width that follows what the probes turn out to be.
///
/// See the module docs for the full design; the short version: no
/// per-batch thread spawns, straggler-proof chunking, deterministic
/// answer placement, waiting probes overlapped far past the core count,
/// latency-aware inline fast path, panic-safe.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
}

impl WorkerPool {
    /// A pool whose core budget is the machine's
    /// (`std::thread::available_parallelism`).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A pool with a core budget of `threads` (at least 1): CPU-bound
    /// probes are shared among that many workers plus the caller. No
    /// thread is spawned until a batch fans out.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                workers: Vec::new(),
                width: Width::new(threads),
                published: 0,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            latency: LatencyEwma::default(),
            counters: PoolCounters::default(),
            #[cfg(test)]
            spawn_limit: AtomicUsize::new(usize::MAX),
        });
        Self { shared, threads }
    }

    /// The core budget: how many workers share a CPU-bound job with its
    /// caller. Not the thread count — see [`WorkerPool::stats`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many threads, caller included, share one job right now.
    pub fn width(&self) -> usize {
        self.shared.lock().width.proven
    }

    /// The pool's current per-probe latency estimate, if it has executed
    /// any batch yet. Drives the inline fast path; exposed for
    /// diagnostics and benches.
    pub fn latency_estimate(&self) -> Option<Duration> {
        self.shared.latency.latency_estimate()
    }

    /// A snapshot of the pool's width, size and traffic.
    pub fn stats(&self) -> PoolStats {
        let (width, workers) = {
            let state = self.shared.lock();
            (state.width.proven, state.workers.len())
        };
        PoolStats {
            width: width as u64,
            workers: workers as u64,
            probe_latency_ns: self
                .latency_estimate()
                .map_or(0, |estimate| estimate.as_nanos() as u64),
            ..self.shared.counters.snapshot()
        }
    }

    /// Whether a batch of `len` probes should skip the pool entirely:
    /// single rows always, and any batch whose estimated total work is
    /// below the dispatch cost. An unknown latency (first ever batch)
    /// fans out — misjudging one tiny batch costs microseconds, while
    /// running a first 4096×1ms batch inline would cost seconds.
    fn should_inline(&self, len: usize) -> bool {
        if len <= 1 {
            return true;
        }
        match self.latency_estimate() {
            None => false,
            Some(estimate) => estimate.as_nanos() as f64 * len as f64 <= DISPATCH_COST_NS,
        }
    }

    /// How many threads a batch of `len` probes is worth sharing among:
    /// every helper should find at least a dispatch cost's worth of work
    /// (the inline rule, continued past one thread — 64 probes of 1 µs
    /// want two helpers, not a pool's worth of wake-ups). An unknown
    /// latency sets no limit.
    fn worth_waking(&self, len: usize) -> usize {
        match self.latency_estimate() {
            None => usize::MAX,
            Some(estimate) => {
                let work = estimate.as_nanos() as f64 * len as f64;
                1 + (work / DISPATCH_COST_NS) as usize
            }
        }
    }

    /// Runs the batch on the calling thread, still feeding the latency
    /// estimate. Hedged: the estimate that routed the batch here may be
    /// stale (learned from a *different, cheaper* UDF on this shared
    /// pool), so if the loop overruns [`INLINE_BUDGET`] the remaining
    /// rows fan out to the workers instead of serializing an arbitrarily
    /// expensive batch on the caller.
    fn evaluate_inline(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        self.shared
            .counters
            .inline_batches
            .fetch_add(1, Ordering::Relaxed);
        let began = Instant::now();
        let mut answers = Vec::with_capacity(rows.len());
        for &row in rows {
            answers.push(probe.probe(row));
            // Check the clock only every 8 probes: noise on a genuinely
            // cheap batch, a bounded overrun (~8 probes) on a stale one.
            if answers.len() < rows.len()
                && answers.len() % 8 == 0
                && began.elapsed() > INLINE_BUDGET
            {
                self.finish_inline(answers.len(), began.elapsed());
                self.shared.lock().width.invalidate();
                let rest = self.fan_out(probe, &rows[answers.len()..]);
                answers.extend(rest);
                return answers;
            }
        }
        self.finish_inline(rows.len(), began.elapsed());
        answers
    }

    fn finish_inline(&self, rows: usize, elapsed: Duration) {
        self.shared.latency.observe(rows, elapsed);
        self.shared
            .counters
            .rows
            .fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Spawns workers until there are `wanted` (or spawning fails: the
    /// pool then stays the size it is — this runs inside a request).
    fn grow(&self, state: &mut PoolState, wanted: usize) {
        while state.workers.len() < wanted {
            #[cfg(test)]
            if state.workers.len() >= self.shared.spawn_limit.load(Ordering::Relaxed) {
                return;
            }
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("expred-pool-{}", state.workers.len()))
                .spawn(move || worker_loop(shared));
            match spawned {
                Ok(worker) => state.workers.push(worker),
                Err(_) => return,
            }
        }
    }

    /// Publishes `rows` as a shared job at the width the controller
    /// plans, steals chunks alongside the workers, and returns once
    /// every row's slot is finalized.
    fn fan_out(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        let mut answers = vec![false; rows.len()];
        // SAFETY: the transmute only erases the probe borrow's lifetime
        // so the pointer can live in the long-lived workers' `Arc<Job>`.
        // The job is done before this frame's borrows end: `wait()`
        // returns only once `completed == len`, after which no stealer
        // dereferences the pointers again (the cursor is exhausted, so
        // every future `claim` fails), and panics are re-raised only
        // after that same barrier.
        let probe_erased: *const (dyn BatchProbe + 'static) = {
            let raw: *const (dyn BatchProbe + '_) = probe;
            unsafe { std::mem::transmute(raw) }
        };
        let (job, ticket) = {
            let mut state = self.shared.lock();
            let planned = state
                .width
                .plan(rows.len())
                .min(self.worth_waking(rows.len()));
            // Each job in flight gets its own width: the pool covers the
            // helpers every queued job was published with, plus this
            // one's, up to the ceiling. Past it the job is still
            // published at its planned width and collects workers as
            // older jobs finish.
            let queued: usize = state.jobs.iter().map(|job| job.stealers - 1).sum();
            let ceiling = MAX_WIDTH * self.threads - 1;
            self.grow(&mut state, (queued + planned - 1).min(ceiling));
            let job = Arc::new(Job {
                probe: probe_erased,
                rows: rows.as_ptr(),
                answers: answers.as_mut_ptr(),
                len: rows.len(),
                cursor: AtomicUsize::new(0),
                completed: AtomicUsize::new(0),
                panicked: AtomicBool::new(false),
                work_ns: AtomicU64::new(0),
                stealers: planned.min(state.workers.len() + 1),
                helpers: AtomicUsize::new(0),
                done: Mutex::new(false),
                done_cv: Condvar::new(),
            });
            state.published += 1;
            // Alone in the queue now; `published` tells at the end
            // whether it stayed that way.
            let ticket = state.jobs.is_empty().then_some(state.published);
            state.jobs.push(Arc::clone(&job));
            (job, ticket)
        };
        let began = Instant::now();
        // One wake-up per helper the job wants — a 14-row job must not
        // stampede 63 parked threads. A worker that is busy instead of
        // parked needs none: it rescans the queue when it comes free.
        for _ in 1..job.stealers {
            self.shared.work_available.notify_one();
        }
        // The caller is a stealer too: small batches often finish right
        // here before a parked worker even wakes.
        job.run();
        job.wait();
        let wall = began.elapsed();
        let work = Duration::from_nanos(job.work_ns.load(Ordering::Relaxed));
        {
            let mut state = self.shared.lock();
            state.jobs.retain(|j| !Arc::ptr_eq(j, &job));
            let alone = ticket == Some(state.published);
            if !alone {
                let shared_jobs = &self.shared.counters.shared_jobs;
                shared_jobs.fetch_add(1, Ordering::Relaxed);
            }
            // A job that gave its threads less work than waking them
            // costs says nothing about width.
            if work.as_nanos() as f64 >= job.stealers as f64 * DISPATCH_COST_NS {
                // What a probe cost at this width. By the stealers' own
                // clocks: time inside probes ÷ rows — exact for probes
                // that wait, but blind to a thread that was given the
                // job and never got a core to start on it, which is how
                // computing probes at too wide a width look once the
                // CPUs are busy. By the job's clock: wall time ÷ rounds
                // of `stealers` rows — sees those threads, but also sees
                // another caller's job taking the workers, so it only
                // counts for a job that had the pool to itself.
                let inside = work.as_nanos() as f64 / rows.len() as f64;
                let outside = wall.as_nanos() as f64 / rows.len().div_ceil(job.stealers) as f64;
                let per_probe = if alone { inside.max(outside) } else { inside };
                state.width.observe(job.stealers, per_probe);
            }
        }
        self.shared.latency.observe(rows.len(), work);
        self.shared.counters.jobs.fetch_add(1, Ordering::Relaxed);
        let rows = rows.len() as u64;
        self.shared.counters.rows.fetch_add(rows, Ordering::Relaxed);
        if job.panicked.load(Ordering::Acquire) {
            panic!("WorkerPool: probe panicked while evaluating a batch");
        }
        answers
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor for WorkerPool {
    fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        if rows.is_empty() {
            return Vec::new();
        }
        if self.should_inline(rows.len()) {
            self.evaluate_inline(probe, rows)
        } else {
            self.fan_out(probe, rows)
        }
    }

    fn name(&self) -> &str {
        "worker_pool"
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let workers = {
            let mut state = self.shared.lock();
            state.shutdown = true;
            std::mem::take(&mut state.workers)
        };
        self.shared.work_available.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sequential;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn matches_sequential_exactly() {
        let probe = |row: usize| (row * 2654435761) % 7 < 3;
        let rows: Vec<usize> = (0..1000).rev().collect();
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::with_threads(threads);
            for _ in 0..3 {
                assert_eq!(
                    pool.evaluate_batch(&probe, &rows),
                    Sequential.evaluate_batch(&probe, &rows),
                    "threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn each_row_probed_exactly_once_per_batch() {
        let calls = AtomicUsize::new(0);
        let probe = |_row: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        };
        let rows: Vec<usize> = (0..257).collect();
        let pool = WorkerPool::with_threads(4);
        pool.evaluate_batch(&probe, &rows);
        assert_eq!(calls.load(Ordering::Relaxed), rows.len());
        pool.evaluate_batch(&probe, &rows);
        assert_eq!(calls.load(Ordering::Relaxed), 2 * rows.len());
    }

    #[test]
    fn empty_and_degenerate_batches() {
        let probe = |row: usize| row == 9;
        let pool = WorkerPool::new();
        assert!(pool.evaluate_batch(&probe, &[]).is_empty());
        assert_eq!(pool.evaluate_batch(&probe, &[9]), vec![true]);
        assert_eq!(pool.evaluate_batch(&probe, &[3]), vec![false]);
    }

    #[test]
    fn sleepy_probes_overlap_without_respawning_threads() {
        let probe = |_row: usize| {
            std::thread::sleep(Duration::from_millis(10));
            true
        };
        let rows: Vec<usize> = (0..8).collect();
        let pool = WorkerPool::with_threads(8);
        // Several consecutive batches: a scoped-spawn backend pays spawn
        // latency every round; the pool parks and rewakes the same
        // threads. 8 probes × 10ms over ≥8 stealers ≈ 10ms per round.
        for _ in 0..3 {
            let start = Instant::now();
            pool.evaluate_batch(&probe, &rows);
            assert!(
                start.elapsed() < Duration::from_millis(60),
                "no overlap: {:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn cheap_batches_learn_to_run_inline() {
        let pool = WorkerPool::with_threads(4);
        let probe = |row: usize| row.is_multiple_of(2);
        let rows: Vec<usize> = (0..64).collect();
        for _ in 0..8 {
            pool.evaluate_batch(&probe, &rows);
        }
        let estimate = pool.latency_estimate().expect("estimate after batches");
        assert!(
            estimate < Duration::from_micros(10),
            "trivial probes should estimate cheap, got {estimate:?}"
        );
        assert!(
            pool.should_inline(rows.len()),
            "64 trivial probes should run inline once the pool knows them"
        );
        // Correctness is unaffected either way.
        assert_eq!(
            pool.evaluate_batch(&probe, &rows),
            Sequential.evaluate_batch(&probe, &rows)
        );
    }

    #[test]
    fn stale_cheap_estimate_does_not_serialize_an_expensive_batch() {
        let pool = WorkerPool::with_threads(8);
        let cheap = |row: usize| row.is_multiple_of(2);
        let rows: Vec<usize> = (0..64).collect();
        for _ in 0..8 {
            pool.evaluate_batch(&cheap, &rows);
        }
        assert!(
            pool.should_inline(rows.len()),
            "the pool should have learned these probes are cheap"
        );
        // Same pool, new regime: 5ms sleeping probes. The stale estimate
        // routes the batch inline, where the hedge must notice the
        // overrun and fan the tail out — 64 probes serially would be
        // 320ms; hedged, the first 8 run inline (~40ms) and the rest
        // overlap across the workers.
        let slow = |_row: usize| {
            std::thread::sleep(Duration::from_millis(5));
            true
        };
        let start = Instant::now();
        let answers = pool.evaluate_batch(&slow, &rows);
        assert_eq!(answers, vec![true; 64]);
        assert!(
            start.elapsed() < Duration::from_millis(220),
            "inline hedge failed to fan out: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn panicking_probe_does_not_deadlock_or_poison_the_pool() {
        let pool = WorkerPool::with_threads(4);
        let rows: Vec<usize> = (0..512).collect();
        let bomb = |row: usize| {
            if row == 300 {
                panic!("boom");
            }
            true
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.evaluate_batch(&bomb, &rows)));
        assert!(outcome.is_err(), "the panic must propagate to the caller");
        // The pool stays fully serviceable afterwards.
        let probe = |row: usize| row.is_multiple_of(3);
        assert_eq!(
            pool.evaluate_batch(&probe, &rows),
            Sequential.evaluate_batch(&probe, &rows)
        );
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = WorkerPool::with_threads(4);
        let probe = |row: usize| row.is_multiple_of(5);
        std::thread::scope(|scope| {
            for offset in 0..8usize {
                let pool = &pool;
                scope.spawn(move || {
                    let rows: Vec<usize> = (offset * 100..offset * 100 + 400).collect();
                    let want = Sequential.evaluate_batch(&probe, &rows);
                    for _ in 0..5 {
                        assert_eq!(pool.evaluate_batch(&probe, &rows), want);
                    }
                });
            }
        });
    }

    #[test]
    fn name_and_threads_report() {
        let pool = WorkerPool::with_threads(0);
        assert_eq!(pool.threads(), 1, "the core budget clamps to >= 1");
        assert_eq!(pool.width(), 2, "one worker plus the caller");
        assert_eq!(pool.name(), "worker_pool");
    }

    #[test]
    fn the_latency_ewma_converges() {
        let ewma = LatencyEwma::default();
        for _ in 0..64 {
            ewma.observe(1, Duration::from_micros(500));
        }
        let ns = ewma.latency_estimate().unwrap().as_nanos() as f64;
        assert!(
            (ns - 500_000.0).abs() < 50_000.0,
            "estimate {ns} should settle near 500µs"
        );
    }

    #[test]
    fn zero_row_observations_are_ignored() {
        let ewma = LatencyEwma::default();
        ewma.observe(0, Duration::from_secs(1));
        assert_eq!(ewma.latency_estimate(), None);
    }

    /// What a probe costs at `width` threads on `cores` cores.
    type Regime = fn(usize, usize) -> f64;
    /// A probe that waits: the same at any width.
    const WAITING: Regime = |_, _| 176_000.0;
    /// A probe that computes: queues for a core past the core count.
    const COMPUTING: Regime = |width, cores| 100_000.0 * (width as f64 / cores as f64).max(1.0);

    /// Drives `width` with `jobs` jobs of `len` rows under `regime`;
    /// returns the width each job ran at.
    fn drive(width: &mut Width, regime: Regime, len: usize, jobs: usize) -> Vec<usize> {
        let cores = width.base - 1;
        (0..jobs)
            .map(|_| {
                let stealers = width.plan(len);
                width.observe(stealers, regime(stealers, cores));
                stealers
            })
            .collect()
    }

    #[test]
    fn waiting_probes_double_the_width_to_the_cap() {
        let mut width = Width::new(2);
        let ran = drive(&mut width, WAITING, 512, 8);
        assert_eq!(ran, [3, 6, 12, 24, 48, 64, 64, 64]);
        assert_eq!(width.proven, MAX_WIDTH);
    }

    #[test]
    fn computing_probes_keep_the_core_budget_and_try_ever_less_often() {
        let mut width = Width::new(2);
        let ran = drive(&mut width, COMPUTING, 512, 40);
        assert_eq!(width.proven, 3);
        let trials: Vec<usize> = (0..ran.len()).filter(|&job| ran[job] > 3).collect();
        assert_eq!(
            trials,
            [1, 2, 4, 7, 12, 21, 30, 39],
            "backoff 0, 1, 2, 4, 8, 8, ..."
        );
        assert!(ran.iter().all(|&w| w == 3 || w == 6));
    }

    #[test]
    fn a_regime_change_re_proves_the_width_from_narrower() {
        let mut width = Width::new(2);
        drive(&mut width, WAITING, 512, 8);
        // Computing probes arrive on the wide pool: halve while halving
        // keeps making them quicker, down to the core budget.
        let ran = drive(&mut width, COMPUTING, 512, 10);
        assert_eq!(
            &ran[..8],
            [64, 64, 32, 16, 8, 4, 3, 3],
            "a second look, then down"
        );
        assert_eq!(width.proven, 3);
        // Waiting probes again, at a latency the reference cannot tell
        // from the computing ones': the next trial (at most MAX_BACKOFF
        // jobs away) finds out.
        let ran = drive(&mut width, WAITING, 512, 6 + MAX_BACKOFF as usize);
        assert_eq!(*ran.last().unwrap(), MAX_WIDTH);
        // A waiting probe that merely got slower costs one halving.
        let slower: Regime = |_, _| 400_000.0;
        let ran = drive(&mut width, slower, 512, 6);
        assert_eq!(ran, [64, 64, 32, 32, 64, 64]);
    }

    #[test]
    fn one_noisy_job_moves_nothing() {
        let mut width = Width::new(2);
        drive(&mut width, WAITING, 512, 8);
        let before = width.reference_ns;
        width.observe(64, 3.0 * before); // a neighbour's burst
        let ran = drive(&mut width, WAITING, 512, 3);
        assert_eq!(ran, [64, 64, 64]);
        assert!((width.reference_ns - before).abs() < 1.0);
    }

    #[test]
    fn short_jobs_neither_fill_nor_move_the_width() {
        let mut width = Width::new(2);
        assert_eq!(width.plan(2), 2, "never more threads than rows");
        let ran = drive(&mut width, WAITING, 14, 6);
        assert_eq!(
            ran,
            [3, 6, 12, 14, 14, 14],
            "a 14-row job wants 14 threads, not 64"
        );
        assert_eq!(width.proven, 14);
        // Jobs too short to fill the proven width say nothing about it.
        drive(&mut width, COMPUTING, 8, 5);
        assert_eq!(width.proven, 14);
    }

    #[test]
    fn a_stale_reference_is_not_trusted_with_a_trial() {
        let mut width = Width::new(2);
        drive(&mut width, |_, _| 5.0, 4096, 1);
        // The inline hedge saw the estimate be wrong: the next job runs
        // at the proven width and becomes the reference, instead of a
        // trial being judged against the 5 ns one.
        width.invalidate();
        let ran = drive(&mut width, WAITING, 504, 3);
        assert_eq!(ran, [3, 6, 12]);
    }

    #[test]
    fn a_worker_that_cannot_spawn_leaves_the_pool_serving() {
        let pool = WorkerPool::with_threads(4);
        pool.shared.spawn_limit.store(1, Ordering::Relaxed);
        let probe = |row: usize| {
            std::thread::sleep(Duration::from_micros(200));
            row.is_multiple_of(3)
        };
        let rows: Vec<usize> = (0..64).collect();
        for _ in 0..4 {
            assert_eq!(
                pool.evaluate_batch(&probe, &rows),
                Sequential.evaluate_batch(&probe, &rows)
            );
        }
        assert_eq!(
            pool.stats().workers,
            1,
            "the pool stayed the size it could reach"
        );
        // The limit lifts (memory came back): growth resumes.
        pool.shared.spawn_limit.store(usize::MAX, Ordering::Relaxed);
        pool.evaluate_batch(&probe, &rows);
        assert!(pool.stats().workers >= 4);
    }

    #[test]
    fn a_job_enlists_no_more_threads_than_it_has_rows() {
        use std::collections::HashSet;
        let pool = WorkerPool::with_threads(2);
        let sleepy = |_row: usize| {
            std::thread::sleep(Duration::from_micros(200));
            true
        };
        let wide: Vec<usize> = (0..256).collect();
        while pool.width() < 32 {
            pool.evaluate_batch(&sleepy, &wide);
        }
        let seen = Mutex::new(HashSet::new());
        let probe = |_row: usize| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(2));
            true
        };
        let rows: Vec<usize> = (0..14).collect();
        pool.evaluate_batch(&probe, &rows);
        let threads = seen.lock().unwrap().len();
        assert!(threads <= 14, "{threads} threads shared a 14-row job");
        assert!(threads > 3, "the learned width was not used: {threads}");
    }

    #[test]
    fn a_batch_wakes_no_more_threads_than_its_work_is_worth() {
        let pool = WorkerPool::with_threads(8);
        assert_eq!(
            pool.worth_waking(64),
            usize::MAX,
            "unknown latency: no limit"
        );
        pool.shared.latency.observe(1000, Duration::from_millis(1)); // 1 µs a probe
        assert_eq!(pool.worth_waking(64), 3, "64 µs of work: two helpers");
        assert_eq!(pool.worth_waking(4096), 137);
        // And it does: a 64-probe batch leaves most of the budget asleep.
        let rows: Vec<usize> = (0..64).collect();
        let probe = |row: usize| row.is_multiple_of(2);
        assert_eq!(
            pool.evaluate_batch(&probe, &rows),
            Sequential.evaluate_batch(&probe, &rows)
        );
        assert!(pool.stats().workers <= 2);
    }

    #[test]
    fn stats_count_jobs_inline_batches_and_rows() {
        let pool = WorkerPool::with_threads(2);
        assert_eq!(
            pool.stats(),
            PoolStats {
                width: 3,
                ..PoolStats::default()
            }
        );
        let probe = |row: usize| row.is_multiple_of(2);
        let rows: Vec<usize> = (0..100).collect();
        pool.evaluate_batch(&probe, &rows); // unknown latency: fans out
        pool.evaluate_batch(&probe, &rows); // known cheap: inline
        pool.evaluate_batch(&probe, &[7]); // single row: inline
        let stats = pool.stats();
        assert_eq!((stats.jobs, stats.inline_batches, stats.rows), (1, 2, 201));
        assert_eq!(stats.shared_jobs, 0, "one caller never shares the queue");
        assert_eq!(stats.workers, 2);
        assert!(stats.probe_latency_ns < 10_000);
        use expred_stats::counters::CounterSet;
        let names: Vec<&str> = stats.pairs().iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "width",
                "workers",
                "probe_latency_ns",
                "jobs",
                "inline_batches",
                "rows",
                "shared_jobs"
            ]
        );
    }

    #[test]
    fn concurrent_wide_jobs_stop_growing_the_pool_at_the_ceiling() {
        let pool = WorkerPool::with_threads(2);
        drive(&mut pool.shared.lock().width, WAITING, 512, 8);
        let callers = 8;
        // Every probe holds its job open until all eight are queued, so
        // they are all in flight at once, each planned 64 wide.
        let queued = AtomicBool::new(false);
        let probe = |row: usize| {
            while !queued.load(Ordering::Acquire) {
                if pool.shared.lock().jobs.len() == callers {
                    queued.store(true, Ordering::Release);
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            row.is_multiple_of(3)
        };
        std::thread::scope(|scope| {
            for caller in 0..callers {
                let (pool, probe) = (&pool, &probe);
                scope.spawn(move || {
                    let rows: Vec<usize> = (caller * 1000..caller * 1000 + 256).collect();
                    assert_eq!(
                        pool.evaluate_batch(probe, &rows),
                        Sequential.evaluate_batch(&|row: usize| row.is_multiple_of(3), &rows)
                    );
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(
            stats.workers as usize,
            MAX_WIDTH * 2 - 1,
            "eight 64-wide jobs want 504 helpers; the ceiling is two cores' worth"
        );
        assert_eq!(stats.shared_jobs, callers as u64);
    }
}
