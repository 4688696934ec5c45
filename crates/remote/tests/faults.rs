//! The remote backend's proof obligation, under fire.
//!
//! For *arbitrary* seeded fault schedules — drops, corrupt frames,
//! mid-response disconnects, latency tails — a query served by the
//! remote backend must be indistinguishable from one served by a local
//! [`Sequential`] reference on the same oracle:
//!
//! 1. **byte-identical answers**, landed by input index, and
//! 2. **exact bill conservation**: the paper-model `o_e` is charged
//!    once per fresh row no matter how many wire attempts the probe
//!    took; retries and hedges appear only in the wire *ledger*.
//!
//! Plus the wedge test: a black-holed endpoint must trip the circuit
//! breaker and degrade (typed error or local fallback) in bounded wall
//! time instead of hanging the `WorkerPool`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use expred_exec::{Sequential, WorkerPool};
use expred_remote::{
    BreakerConfig, BreakerState, ClientConfig, FaultPlan, HedgeConfig, OracleMap, RemoteClient,
    RemoteUdf, UdfServer,
};
use expred_table::{DataType, Field, Schema, Table, Value};
use expred_udf::{CostModel, CostTracker, OracleUdf, UdfInvoker};
use proptest::prelude::*;

fn table_with_labels(labels: &[bool]) -> Table {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("good", DataType::Bool),
    ]);
    let rows = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| vec![Value::Int(i as i64), Value::Bool(l)])
        .collect();
    Table::from_rows(schema, rows).unwrap()
}

fn serve_labels(labels: &[bool], plan: FaultPlan) -> UdfServer {
    let mut oracles = OracleMap::new();
    oracles.insert("good".to_string(), Arc::new(labels.to_vec()));
    UdfServer::bind("127.0.0.1:0", oracles, plan).unwrap()
}

/// An arbitrary-but-bounded fault schedule: individually modest
/// probabilities so a generous retry budget always gets through, plus
/// short latency tails so the suite stays fast.
#[derive(Debug, Clone)]
struct Schedule {
    seed: u64,
    drop_probability: f64,
    corrupt_probability: f64,
    disconnect_probability: f64,
    tail_probability: f64,
    tail_ms: u64,
}

impl Schedule {
    fn plan(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            drop_probability: self.drop_probability,
            corrupt_probability: self.corrupt_probability,
            disconnect_probability: self.disconnect_probability,
            tail_probability: self.tail_probability,
            tail_delay: Duration::from_millis(self.tail_ms),
            ..FaultPlan::healthy()
        }
    }

    fn is_faulty(&self) -> bool {
        self.drop_probability > 0.0
            || self.corrupt_probability > 0.0
            || self.disconnect_probability > 0.0
    }
}

fn schedules() -> impl Strategy<Value = Schedule> {
    (
        any::<u64>(),
        0.0..0.2f64,
        0.0..0.1f64,
        0.0..0.1f64,
        0.0..0.3f64,
        0u64..20,
    )
        .prop_map(
            |(
                seed,
                drop_probability,
                corrupt_probability,
                disconnect_probability,
                tail_probability,
                tail_ms,
            )| {
                Schedule {
                    seed,
                    drop_probability,
                    corrupt_probability,
                    disconnect_probability,
                    tail_probability,
                    tail_ms,
                }
            },
        )
}

/// Labels plus a row set over them (duplicates and shuffles included);
/// raw indices are folded into range so the two parts stay independent.
fn workload() -> impl Strategy<Value = (Vec<bool>, Vec<usize>)> {
    (
        prop::collection::vec(any::<bool>(), 4..28),
        prop::collection::vec(0usize..1024, 1..40),
    )
        .prop_map(|(labels, raw)| {
            let n = labels.len();
            let rows = raw.into_iter().map(|r| r % n).collect();
            (labels, rows)
        })
}

/// A retry budget deep enough that a bounded schedule cannot exhaust it
/// (worst per-attempt failure probability here is ~0.4; 0.4^13 ≈ 7e-6).
fn resilient_config(server: &UdfServer) -> ClientConfig {
    let mut config = ClientConfig::new(server.addr().to_string());
    config.connections = 4;
    config.attempt_timeout = Duration::from_millis(150);
    config.max_retries = 12;
    config.backoff_base = Duration::from_millis(2);
    config.backoff_cap = Duration::from_millis(40);
    config.hedge = None;
    config.breaker = BreakerConfig {
        failure_threshold: u32::MAX,
        cooldown: Duration::from_millis(100),
    };
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole proof: answers and bills are conserved under every
    // injected fault schedule.
    #[test]
    fn remote_conserves_answers_and_bills_under_faults(
        schedule in schedules(),
        (labels, rows) in workload(),
    ) {
        let server = serve_labels(&labels, schedule.plan());
        let table = table_with_labels(&labels);

        // Local reference: Sequential executor over the hidden column.
        let local_udf = OracleUdf::new("good");
        let local_invoker = UdfInvoker::new(&local_udf, &table);
        let expected = local_invoker.evaluate_batch(&Sequential, &rows);

        // Remote: same rows through the audited invoker over a pooled,
        // retrying client, fanned out by the elastic worker pool.
        let tracker = CostTracker::new();
        let client = Arc::new(
            RemoteClient::new(resilient_config(&server)).with_tracker(tracker.clone()),
        );
        let remote_udf = RemoteUdf::new(Arc::clone(&client), "good");
        let remote_invoker = UdfInvoker::with_tracker(&remote_udf, &table, tracker.clone());
        let got = remote_invoker.evaluate_batch(&WorkerPool::new(), &rows);

        prop_assert_eq!(&got, &expected, "answers diverged under {:?}", schedule);

        // Exact bill conservation: same evaluations, same paper cost.
        let local_counts = local_invoker.counts();
        let remote_counts = remote_invoker.counts();
        prop_assert_eq!(remote_counts.evaluated, local_counts.evaluated);
        let model = CostModel::PAPER_DEFAULT;
        prop_assert_eq!(
            remote_counts.cost(&model).to_bits(),
            local_counts.cost(&model).to_bits(),
            "wire faults must never change the bill"
        );

        // Retries/hedges are a ledger: recorded, never billed.
        let stats = client.stats();
        prop_assert_eq!(tracker.snapshot().retries, stats.retries);
        prop_assert_eq!(tracker.snapshot().hedges, stats.hedges);
        if schedule.is_faulty() {
            // With any fault probability the wire MAY have retried; the
            // bill above already proved retries were free either way.
            prop_assert!(stats.requests as usize >= 1);
        }
    }
}

/// A deterministic heavy-drop schedule must visibly exercise the retry
/// path and still conserve the bill.
#[test]
fn heavy_drops_force_retries_that_never_bill() {
    let labels: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    let plan = FaultPlan {
        seed: 1234,
        drop_probability: 0.5,
        ..FaultPlan::healthy()
    };
    let server = serve_labels(&labels, plan);
    let table = table_with_labels(&labels);

    let local_udf = OracleUdf::new("good");
    let local_invoker = UdfInvoker::new(&local_udf, &table);
    let rows: Vec<usize> = (0..labels.len()).collect();
    let expected = local_invoker.evaluate_batch(&Sequential, &rows);

    let mut config = resilient_config(&server);
    config.attempt_timeout = Duration::from_millis(80);
    let tracker = CostTracker::new();
    let client = Arc::new(RemoteClient::new(config).with_tracker(tracker.clone()));
    let remote_udf = RemoteUdf::new(Arc::clone(&client), "good");
    let remote_invoker = UdfInvoker::with_tracker(&remote_udf, &table, tracker.clone());
    let got = remote_invoker.evaluate_batch(&WorkerPool::new(), &rows);

    assert_eq!(got, expected);
    let stats = client.stats();
    assert!(stats.retries > 0, "50% drops must force retries: {stats:?}");
    let counts = tracker.snapshot();
    assert_eq!(counts.retries, stats.retries, "ledger mirrors the wire");
    assert_eq!(
        counts.evaluated,
        local_invoker.counts().evaluated,
        "o_e billed once per fresh row despite {} retries",
        stats.retries
    );
}

/// Hedges fire on latency tails, win some races, and bill nothing.
#[test]
fn hedges_cut_tails_and_never_bill() {
    let labels: Vec<bool> = (0..48).map(|i| i % 2 == 0).collect();
    let plan = FaultPlan::jittered_tail(77, Duration::ZERO, 0.3, Duration::from_millis(250));
    let server = serve_labels(&labels, plan);
    let table = table_with_labels(&labels);

    let mut config = ClientConfig::new(server.addr().to_string());
    config.connections = 4;
    config.attempt_timeout = Duration::from_secs(3);
    config.max_retries = 0;
    config.hedge = Some(HedgeConfig {
        initial_delay: Duration::from_millis(25),
        min_samples: usize::MAX, // pin the hedge delay for determinism
    });
    let tracker = CostTracker::new();
    let client = Arc::new(RemoteClient::new(config).with_tracker(tracker.clone()));
    let remote_udf = RemoteUdf::new(Arc::clone(&client), "good");
    let remote_invoker = UdfInvoker::with_tracker(&remote_udf, &table, tracker.clone());
    let rows: Vec<usize> = (0..labels.len()).collect();
    let got = remote_invoker.evaluate_batch(&WorkerPool::new(), &rows);

    let expected: Vec<bool> = rows.iter().map(|&r| labels[r]).collect();
    assert_eq!(got, expected);
    let stats = client.stats();
    assert!(
        stats.hedges > 0,
        "30% × 250ms tails must trigger hedges: {stats:?}"
    );
    let counts = tracker.snapshot();
    assert_eq!(counts.hedges, stats.hedges, "hedge ledger mirrors the wire");
    assert_eq!(
        counts.evaluated as usize,
        labels.len(),
        "first-answer-wins bills once: {stats:?}"
    );
}

/// The wedge test: a black-holed endpoint trips the breaker and the
/// query degrades to the local fallback in bounded wall time — the
/// `WorkerPool` never hangs.
#[test]
fn blackout_trips_breaker_and_does_not_wedge_the_pool() {
    let labels: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
    let server = serve_labels(&labels, FaultPlan::blackout());
    let table = table_with_labels(&labels);

    let mut config = ClientConfig::new(server.addr().to_string());
    config.attempt_timeout = Duration::from_millis(60);
    config.max_retries = 0;
    config.hedge = None;
    config.breaker = BreakerConfig {
        failure_threshold: 3,
        cooldown: Duration::from_secs(60),
    };
    let client = Arc::new(RemoteClient::new(config));
    let remote_udf =
        RemoteUdf::new(Arc::clone(&client), "good").with_fallback(Box::new(OracleUdf::new("good")));

    let pool = WorkerPool::with_threads(4);
    let invoker = UdfInvoker::new(&remote_udf, &table);
    let rows: Vec<usize> = (0..labels.len()).collect();
    let started = Instant::now();
    let got = invoker.evaluate_batch(&pool, &rows);
    let elapsed = started.elapsed();

    let expected: Vec<bool> = rows.iter().map(|&r| labels[r]).collect();
    assert_eq!(got, expected, "fallback answers must match the oracle");
    // 64 rows × 60ms deadline serially would be ~3.8s; once the breaker
    // opens every remaining probe fails fast to the fallback.
    assert!(
        elapsed < Duration::from_secs(3),
        "pool wedged for {elapsed:?} against a black-holed endpoint"
    );
    assert_eq!(client.breaker_state(), BreakerState::Open);
    let stats = client.stats();
    assert!(stats.breaker_opens >= 1, "{stats:?}");
    assert!(stats.breaker_rejections > 0, "{stats:?}");
    assert_eq!(stats.fallback_local as usize, labels.len());
}

/// Without a fallback, the same blackout surfaces as the typed
/// `Unavailable` engine error through the fallible batch surface.
#[test]
fn blackout_without_fallback_maps_to_engine_unavailable() {
    let labels = vec![true; 8];
    let server = serve_labels(&labels, FaultPlan::blackout());
    let table = table_with_labels(&labels);

    let mut config = ClientConfig::new(server.addr().to_string());
    config.attempt_timeout = Duration::from_millis(50);
    config.max_retries = 0;
    config.hedge = None;
    config.breaker = BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::from_secs(60),
    };
    let remote_udf = RemoteUdf::new(Arc::new(RemoteClient::new(config)), "good");
    let rows: Vec<usize> = (0..labels.len()).collect();
    let err = remote_udf.try_evaluate_batch(&table, &rows, 4).unwrap_err();
    let engine_err: expred_core::EngineError = err.into();
    match engine_err {
        expred_core::EngineError::Unavailable { endpoint, .. } => {
            assert_eq!(endpoint, server.addr().to_string());
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
}

/// Identical fault schedules replay identically: the whole suite is
/// rerunnable from a seed.
#[test]
fn fault_schedules_replay_deterministically() {
    let labels: Vec<bool> = (0..12).map(|i| i % 2 == 0).collect();
    let plan = FaultPlan {
        seed: 5150,
        drop_probability: 0.3,
        corrupt_probability: 0.1,
        ..FaultPlan::healthy()
    };
    let run = || {
        let server = serve_labels(&labels, plan.clone());
        let mut config = resilient_config(&server);
        config.connections = 1; // one connection → one fault stream
        let client = RemoteClient::new(config);
        let answers: Vec<bool> = (0..labels.len() as u64)
            .map(|row| client.probe("good", row).unwrap())
            .collect();
        (answers, client.stats().retries)
    };
    let (answers_a, retries_a) = run();
    let (answers_b, retries_b) = run();
    assert_eq!(answers_a, answers_b);
    assert_eq!(
        retries_a, retries_b,
        "same plan + same access pattern must replay the same wire history"
    );
}
