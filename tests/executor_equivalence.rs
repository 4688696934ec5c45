//! Backend-equivalence suite: the `WorkerPool` executor must be an exact
//! drop-in for `Sequential` — identical result sets, identical accuracy
//! metrics, identical audited costs — for every pipeline, on the bundled
//! datasets, under fixed seeds, and regardless of what the pool has
//! learned about its probes. Only wall-clock time may differ. And the
//! session entry point must add nothing: `submit` on a cold engine
//! equals the direct pipeline function on `ExecContext::sequential()`.

use expred::core::{
    run_intel_sample, run_naive, run_optimal, CorrelationModel, EngineError, IntelSampleConfig,
    PredictorChoice, QueryEngine, QueryRequest, QuerySpec, RunOutcome, SampleSizeRule, Sampling,
};
use expred::exec::{ExecContext, Executor, Sequential, WorkerPool};
use expred::table::datasets::{Dataset, DatasetSpec, LENDING_CLUB, PROSPER};
use std::num::NonZeroUsize;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn small(spec: DatasetSpec, rows: usize, seed: u64) -> Dataset {
    Dataset::generate(DatasetSpec { rows, ..spec }, seed)
}

/// Intel-Sample on `grade` with the given first sample, correlation
/// model and rounds: what the `adaptive` (§4.3's search) and `iterative`
/// (§4.2's rounds) HTTP kinds ask for.
fn section4(sampling: Sampling, corr: CorrelationModel, rounds: usize) -> IntelSampleConfig {
    IntelSampleConfig {
        sampling,
        corr,
        rounds: NonZeroUsize::new(rounds).expect("at least one round"),
        ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()))
    }
}

fn adaptive(corr: CorrelationModel) -> IntelSampleConfig {
    section4(Sampling::Search, corr, 1)
}

fn iterative(fraction: f64, rounds: usize) -> IntelSampleConfig {
    let rule = Sampling::Rule(SampleSizeRule::Fraction(fraction));
    section4(rule, CorrelationModel::Independent, rounds)
}

/// Backends under test: the persistent work-stealing pool at a narrow,
/// an oversubscribed and the machine's own core budget.
fn backends() -> Vec<Box<dyn Executor>> {
    vec![
        Box::new(WorkerPool::with_threads(2)),
        Box::new(WorkerPool::with_threads(5)),
        Box::new(WorkerPool::new()),
    ]
}

#[track_caller]
fn assert_identical(sequential: &RunOutcome, parallel: &RunOutcome, what: &str) {
    assert_eq!(
        sequential.returned, parallel.returned,
        "{what}: result sets differ"
    );
    assert_eq!(
        sequential.counts, parallel.counts,
        "{what}: audited action counts differ"
    );
    assert_eq!(sequential.cost, parallel.cost, "{what}: costs differ");
    assert_eq!(
        sequential.summary, parallel.summary,
        "{what}: precision/recall differ"
    );
    assert_eq!(
        sequential.num_groups, parallel.num_groups,
        "{what}: group counts differ"
    );
    assert_eq!(
        sequential.plan_feasible, parallel.plan_feasible,
        "{what}: feasibility verdicts differ"
    );
}

#[test]
fn naive_is_backend_invariant() {
    let ds = small(PROSPER, 4_000, 1);
    let spec = QuerySpec::paper_default();
    for seed in [1u64, 99] {
        let want = run_naive(&ds, &spec, seed, &ExecContext::sequential()).unwrap();
        for backend in backends() {
            let got = run_naive(&ds, &spec, seed, &ExecContext::new(backend.as_ref())).unwrap();
            assert_identical(&want, &got, &format!("naive seed {seed}"));
        }
    }
}

#[test]
fn optimal_is_backend_invariant() {
    let ds = small(LENDING_CLUB, 5_000, 2);
    let spec = QuerySpec::paper_default();
    for seed in [3u64, 77] {
        let want = run_optimal(&ds, &spec, "grade", seed, &ExecContext::sequential()).unwrap();
        for backend in backends() {
            let ctx = ExecContext::new(backend.as_ref());
            let got = run_optimal(&ds, &spec, "grade", seed, &ctx).unwrap();
            assert_identical(&want, &got, &format!("optimal seed {seed}"));
        }
    }
}

#[test]
fn intel_sample_fixed_predictor_is_backend_invariant() {
    let ds = small(PROSPER, 5_000, 3);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    for seed in [5u64, 123] {
        let want = run_intel_sample(&ds, &cfg, seed, &ExecContext::sequential()).unwrap();
        for backend in backends() {
            let ctx = ExecContext::new(backend.as_ref());
            let got = run_intel_sample(&ds, &cfg, seed, &ctx).unwrap();
            assert_identical(&want, &got, &format!("intel-sample seed {seed}"));
        }
    }
}

#[test]
fn intel_sample_auto_predictor_is_backend_invariant() {
    let ds = small(LENDING_CLUB, 4_000, 4);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Auto {
        label_fraction: 0.01,
    });
    let want = run_intel_sample(&ds, &cfg, 6, &ExecContext::sequential()).unwrap();
    for backend in backends() {
        let got = run_intel_sample(&ds, &cfg, 6, &ExecContext::new(backend.as_ref())).unwrap();
        assert_identical(&want, &got, "intel-sample auto");
    }
}

#[test]
fn intel_sample_virtual_predictor_is_backend_invariant() {
    let ds = small(PROSPER, 4_000, 5);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Virtual {
        buckets: 10,
        label_fraction: 0.01,
    });
    let want = run_intel_sample(&ds, &cfg, 7, &ExecContext::sequential()).unwrap();
    for backend in backends() {
        let got = run_intel_sample(&ds, &cfg, 7, &ExecContext::new(backend.as_ref())).unwrap();
        assert_identical(&want, &got, "intel-sample virtual");
    }
}

/// Digests of the virtual-predictor `intel_sample` run above, harvested
/// on the commit before the virtual column took its labels from the
/// evaluated plane: per dataset (`prosper`, then `lc`, 4 000 rows each),
/// the FNV-64 of the returned plane's words and the bill's `retrieved`,
/// `evaluated`, `cache_hits` and `reuse_hits`.
const VIRTUAL_PREDICTOR_GOLDEN: [(u64, [u64; 4]); 2] = [
    (0xc1795cef98dc42ac, [3_004, 2_132, 0, 0]),
    (0xa84d4b770504b771, [2_980, 1_046, 0, 0]),
];

#[test]
fn intel_sample_virtual_predictor_answers_what_the_parent_commit_answered() {
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Virtual {
        buckets: 10,
        label_fraction: 0.01,
    });
    let got: Vec<(u64, [u64; 4])> = [PROSPER, LENDING_CLUB]
        .into_iter()
        .map(|spec| {
            let ds = small(spec, 4_000, 5);
            let out = run_intel_sample(&ds, &cfg, 7, &ExecContext::sequential()).unwrap();
            let mut h = expred::stats::hash::Fnv64::new();
            for &word in out.returned.words() {
                h.write_u64(word);
            }
            let c = out.counts;
            (
                h.finish(),
                [c.retrieved, c.evaluated, c.cache_hits, c.reuse_hits],
            )
        })
        .collect();
    assert_eq!(got, VIRTUAL_PREDICTOR_GOLDEN, "got {got:#x?}");
}

#[test]
fn adaptive_pipeline_is_backend_invariant() {
    let ds = small(PROSPER, 3_000, 6);
    let cfg = adaptive(CorrelationModel::Independent);
    let run = |backend: &dyn Executor| {
        run_intel_sample(&ds, &cfg, 8, &ExecContext::new(backend)).unwrap()
    };
    let want = run(&Sequential);
    for backend in backends() {
        assert_identical(&want, &run(backend.as_ref()), "adaptive");
    }
}

#[test]
fn iterative_pipeline_is_backend_invariant() {
    let ds = small(PROSPER, 3_000, 8);
    let cfg = iterative(0.05, 3);
    let run = |backend: &dyn Executor| {
        run_intel_sample(&ds, &cfg, 9, &ExecContext::new(backend)).unwrap()
    };
    let want = run(&Sequential);
    for backend in backends() {
        let got = run(backend.as_ref());
        assert_identical(&want, &got, "iterative");
    }
}

#[test]
fn search_and_rounds_work_with_ranked_and_virtual_predictors() {
    // The knobs are the pipeline's, not a fixed predictor's: §4.3's
    // search and §4.2's rounds run after any predictor step, and stay
    // backend-invariant there too.
    let ds = small(LENDING_CLUB, 3_000, 14);
    let auto = PredictorChoice::Auto {
        label_fraction: 0.01,
    };
    let virtual_column = PredictorChoice::Virtual {
        buckets: 6,
        label_fraction: 0.02,
    };
    for predictor in [auto, virtual_column] {
        for (sampling, rounds) in [
            (Sampling::Search, 1),
            (Sampling::Rule(SampleSizeRule::Fraction(0.05)), 3),
        ] {
            let cfg = IntelSampleConfig {
                predictor: predictor.clone(),
                ..section4(sampling, CorrelationModel::Independent, rounds)
            };
            let want = run_intel_sample(&ds, &cfg, 15, &ExecContext::sequential()).unwrap();
            assert!(want.counts.evaluated > 0, "{predictor:?} {sampling:?}");
            for backend in backends() {
                let got = run_intel_sample(&ds, &cfg, 15, &ExecContext::new(backend.as_ref()));
                assert_identical(&want, &got.unwrap(), &format!("{predictor:?} {sampling:?}"));
            }
        }
    }
}

#[test]
fn adaptive_planner_is_outcome_invariant() {
    // Each stage hands the executor one batch; what the pool has learned
    // — nothing yet, that probes wait (wide fan-out), that probes cost
    // nanoseconds (inline path) — decides how that batch is chunked and
    // overlapped, and never moves a byte of the outcome or bill.
    let ds = small(PROSPER, 4_000, 9);
    let spec = QuerySpec::paper_default();
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    let rows: Vec<usize> = (0..64).collect();
    let cold = WorkerPool::with_threads(4);
    let wide = WorkerPool::with_threads(4);
    let sleepy = |_row: usize| {
        std::thread::sleep(std::time::Duration::from_millis(2));
        true
    };
    for _ in 0..32 {
        if wide.width() < 16 {
            wide.evaluate_batch(&sleepy, &rows);
        }
    }
    assert!(
        wide.width() >= 16,
        "2 ms sleeps left the width at {}",
        wide.width()
    );
    let inline = WorkerPool::with_threads(4);
    for _ in 0..8 {
        inline.evaluate_batch(&|row: usize| row.is_multiple_of(2), &rows);
    }
    assert!(inline.latency_estimate().unwrap() < std::time::Duration::from_micros(10));
    for seed in [2u64, 31] {
        let sequential = ExecContext::sequential();
        let want_naive = run_naive(&ds, &spec, seed, &sequential).unwrap();
        let want_intel = run_intel_sample(&ds, &cfg, seed, &sequential).unwrap();
        let want_optimal = run_optimal(&ds, &spec, "grade", seed, &sequential).unwrap();
        for (name, pool) in [
            ("cold pool", &cold),
            ("pool trained wide on 2 ms sleeps", &wide),
            ("pool trained inline on ns probes", &inline),
        ] {
            let ctx = ExecContext::new(pool);
            let what = format!("{name} seed {seed}");
            assert_identical(
                &want_naive,
                &run_naive(&ds, &spec, seed, &ctx).unwrap(),
                &what,
            );
            assert_identical(
                &want_intel,
                &run_intel_sample(&ds, &cfg, seed, &ctx).unwrap(),
                &what,
            );
            assert_identical(
                &want_optimal,
                &run_optimal(&ds, &spec, "grade", seed, &ctx).unwrap(),
                &what,
            );
        }
    }
}

#[test]
fn engine_on_worker_pool_matches_sequential_engine() {
    // The full session stack — engine, row cache, result memo — on the
    // pool backend must bill and answer exactly
    // like the sequential engine, query for query.
    let ds = small(PROSPER, 3_000, 10);
    let spec = QuerySpec::paper_default();
    let requests = [
        QueryRequest::naive(spec),
        QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
            "grade".into(),
        ))),
        QueryRequest::optimal(spec, "grade"),
    ];
    let sequential = QueryEngine::new();
    let pooled = QueryEngine::pooled();
    for (i, request) in requests.into_iter().enumerate() {
        let request = request.with_seed(40 + i as u64);
        let want = sequential.submit(&ds, &request).unwrap();
        let got = pooled.submit(&ds, &request).unwrap();
        assert_identical(&want, &got, &format!("engine query {i}"));
    }
    assert_eq!(sequential.session_counts(), pooled.session_counts());
}

/// One pipeline called directly: `(dataset, seed, context)`.
type Direct = Box<dyn Fn(&Dataset, u64, &ExecContext<'_>) -> Result<RunOutcome, EngineError>>;

/// Every built-in pipeline strategy for a given contract: the request
/// `submit` takes, beside the direct pipeline call it must equal. (The
/// paper's ML baselines are not strategies; `expred-bench`'s
/// `tests/baselines.rs` holds them to the same backend identity.)
fn all_pipelines(spec: QuerySpec) -> Vec<(QueryRequest, Direct)> {
    let intel_sample = |cfg: IntelSampleConfig| -> (QueryRequest, Direct) {
        (
            QueryRequest::intel_sample(cfg.clone()),
            Box::new(move |ds, seed, ctx| run_intel_sample(ds, &cfg, seed, ctx)),
        )
    };
    vec![
        intel_sample(IntelSampleConfig {
            spec,
            ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()))
        }),
        (
            QueryRequest::naive(spec),
            Box::new(move |ds, seed, ctx| run_naive(ds, &spec, seed, ctx)),
        ),
        (
            QueryRequest::optimal(spec, "grade"),
            Box::new(move |ds, seed, ctx| run_optimal(ds, &spec, "grade", seed, ctx)),
        ),
        intel_sample(IntelSampleConfig {
            spec,
            ..adaptive(CorrelationModel::Independent)
        }),
        intel_sample(IntelSampleConfig {
            spec,
            ..iterative(0.05, 2)
        }),
    ]
}

#[test]
fn submit_is_byte_identical_to_legacy_run_for_all_seven_strategies() {
    // The session surface (QueryRequest + Strategy + submit) must add
    // nothing to an answer: on a cold engine it equals the pipeline
    // function called directly on the sequential context — identical
    // answers, bills, summaries — and replaying the request is a
    // result-memo hit, not a re-execution. ("legacy run" in the name
    // is the direct call; the strategies were seven before the ML
    // baselines left for the experiments harness and `adaptive` and
    // `iterative` became settings of `intel_sample`, which the five
    // requests below still cover; the name is kept so the suite's
    // history keeps tracking this test.)
    let ds = small(PROSPER, 2_000, 11);
    let spec = QuerySpec::paper_default();
    for (i, (request, direct)) in all_pipelines(spec).into_iter().enumerate() {
        let seed = 70 + i as u64;
        let request = request.with_seed(seed);
        let engine = QueryEngine::new();
        let submitted = engine
            .submit(&ds, &request)
            .expect("valid request must be accepted");
        let direct = direct(&ds, seed, &ExecContext::sequential()).expect("valid configuration");
        assert_identical(
            &direct,
            &submitted,
            &format!("strategy {i} submit vs direct"),
        );
        assert_eq!(
            engine.session_counts(),
            direct.counts,
            "strategy {i}: the session bill is the one run's bill"
        );
        let replay = engine.submit(&ds, &request).unwrap();
        assert_identical(&submitted, &replay, &format!("strategy {i} replay"));
        assert_eq!(
            engine.stats().result_hits,
            1,
            "strategy {i}: the replay must hit the memo entry the first submit wrote"
        );
        assert_eq!(
            engine.session_counts(),
            direct.counts,
            "strategy {i}: a memo hit charges nothing"
        );
    }
}

#[test]
fn engines_sharing_one_pool_match_sequential_engines() {
    // What `expred-serve --pool` runs: two sessions on one process-wide
    // pool, submitting at once with a latency-bound UDF, so their jobs
    // meet in the pool's queue and each grows it for its own width.
    // Neither session may see the other in an answer or a bill.
    let ds = small(PROSPER, 2_000, 12);
    let spec = QuerySpec::paper_default();
    let pool = Arc::new(WorkerPool::new());
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for engine in 0..2u64 {
            let (ds, pool, start) = (&ds, &pool, &start);
            scope.spawn(move || {
                let requests: Vec<QueryRequest> = all_pipelines(spec)
                    .into_iter()
                    .zip(0u64..)
                    .map(|((request, _), i)| request.with_seed(90 + 10 * engine + i))
                    .collect();
                let sequential = QueryEngine::new();
                let want: Vec<_> = requests
                    .iter()
                    .map(|request| sequential.submit(ds, request).unwrap())
                    .collect();
                let pooled = QueryEngine::with_executor(Box::new(Arc::clone(pool)))
                    .with_udf_latency(Duration::from_micros(50));
                start.wait();
                for (i, (request, want)) in requests.iter().zip(&want).enumerate() {
                    let got = pooled.submit(ds, request).unwrap();
                    assert_identical(want, &got, &format!("engine {engine} strategy {i}"));
                }
                assert_eq!(
                    pooled.session_counts(),
                    sequential.session_counts(),
                    "engine {engine}: the session bill"
                );
            });
        }
    });
}

// Property: for random contracts and seeds, every request answers
// byte-identically to its direct pipeline call (a fresh engine per case).
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    #[test]
    fn random_requests_match_legacy_run(
        alpha in 0.55f64..0.9,
        beta in 0.55f64..0.9,
        rho in 0.5f64..0.9,
        seed in 0u64..1_000,
        strategy_index in 0usize..5,
    ) {
        let ds = small(PROSPER, 1_500, 13);
        let spec = QuerySpec::try_new(alpha, beta, rho, expred::udf::CostModel::PAPER_DEFAULT)
            .expect("generated specs are in range");
        let (request, direct) = all_pipelines(spec).swap_remove(strategy_index);
        let direct = direct(&ds, seed, &ExecContext::sequential()).expect("valid configuration");
        let submitted = QueryEngine::new()
            .submit(&ds, &request.with_seed(seed))
            .expect("valid request must be accepted");
        assert_identical(&direct, &submitted, &format!("proptest strategy {strategy_index}"));
    }
}

/// The §4 requests whose outcomes are pinned below, by name: §4.3's
/// search under both correlation models, §4.2's rounds at three
/// depths, and the one-shot pipeline with a fixed and an auto-ranked
/// predictor.
fn section4_requests() -> Vec<(&'static str, QueryRequest)> {
    let iterative = |fraction, rounds| QueryRequest::intel_sample(iterative(fraction, rounds));
    vec![
        (
            "adaptive independent",
            QueryRequest::intel_sample(adaptive(CorrelationModel::Independent)),
        ),
        (
            "adaptive unknown",
            QueryRequest::intel_sample(adaptive(CorrelationModel::Unknown)),
        ),
        ("iterative 1/0.05", iterative(0.05, 1)),
        ("iterative 2/0.05", iterative(0.05, 2)),
        ("iterative 3/0.02", iterative(0.02, 3)),
        (
            "intel_sample fixed",
            QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
                "grade".into(),
            ))),
        ),
        (
            "intel_sample auto",
            QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Auto {
                label_fraction: 0.01,
            })),
        ),
    ]
}

/// FNV-64 digests of [`section4_requests`]' outcomes, harvested on the
/// commit before `adaptive` and `iterative` became knobs of
/// `intel_sample`. Per dataset (`prosper`, then `lc`, 3 000 rows, table
/// seed 21), per request, cold then warm: the digest of seeds 0–7's
/// returned words, bills, cost bits, group counts and feasibility
/// verdicts. Sequential and `WorkerPool` engines must both answer it.
/// The 8 `adaptive` digests (the first four of each dataset) were
/// re-pinned once when §4.3's search began to stop on a predicted saving
/// and to plan on every row it drew: it draws and plans differently by
/// design. The other 20 did not move.
const SECTION4_GOLDEN: [u64; 28] = [
    0x68fccb7925ff6fa0,
    0x11962beec28af575,
    0xb80d240ccaff7ab2,
    0xe9564c2b7fb9f42d,
    0x3d38909c863acc5a,
    0x7b4bf621f0d76383,
    0x41238cd8a970fd72,
    0xab8d0660856c0081,
    0x8ebdb8b56d9b2db9,
    0x910a297959d70d2b,
    0x3d38909c863acc5a,
    0x7b4bf621f0d76383,
    0x473fac46a3e5bb12,
    0x93bf361c1bfd4d4a,
    0x7215cf2aa0cead3f,
    0xfe00910c26cc3445,
    0xf80a89e586545a9,
    0x1f952238e203e489,
    0x289d709cd0c2c1de,
    0x4bcc5a8b3027217,
    0x79e0fb905a84bc9b,
    0x9fcbf29cc15b4282,
    0xc4cefad650ee33f2,
    0x45b136aa448336b2,
    0x289d709cd0c2c1de,
    0x4bcc5a8b3027217,
    0x4199a0438f735450,
    0x1687356d09274380,
];

#[test]
fn section4_requests_answer_what_the_parent_commit_answered() {
    let pool = Arc::new(WorkerPool::with_threads(3));
    // A sequential engine, then one on the shared pool.
    let engines: [&dyn Fn() -> QueryEngine; 2] = [&QueryEngine::new, &|| {
        QueryEngine::with_executor(Box::new(Arc::clone(&pool)))
    }];
    // A warm run first pays for another predictor's sample and a
    // low-recall answer on the same session store.
    let warmer = QueryRequest::intel_sample(IntelSampleConfig {
        spec: QuerySpec::new(0.8, 0.3, 0.8, expred::udf::CostModel::PAPER_DEFAULT),
        ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("housing_status".into()))
    });
    let mut got = Vec::new();
    for spec in [PROSPER, LENDING_CLUB] {
        let ds = small(spec, 3_000, 21);
        for (name, request) in section4_requests() {
            for warm in [false, true] {
                let digests: Vec<u64> = engines
                    .iter()
                    .map(|engine| {
                        let mut h = expred::stats::hash::Fnv64::new();
                        for seed in 0..8 {
                            let engine = engine();
                            if warm {
                                engine.submit(&ds, &warmer.clone().with_seed(seed)).unwrap();
                            }
                            let out = engine
                                .submit(&ds, &request.clone().with_seed(seed))
                                .unwrap();
                            for &word in out.returned.words() {
                                h.write_u64(word);
                            }
                            let c = out.counts;
                            for field in [c.retrieved, c.evaluated, c.cache_hits, c.reuse_hits] {
                                h.write_u64(field);
                            }
                            h.write_u64(out.cost.to_bits());
                            h.write_u64(out.num_groups as u64);
                            h.write_u64(u64::from(out.plan_feasible));
                        }
                        h.finish()
                    })
                    .collect();
                let what = format!("{} {name} warm={warm}", spec.name);
                assert_eq!(digests[0], digests[1], "{what}: sequential vs pool");
                got.push(digests[0]);
            }
        }
    }
    assert_eq!(got, SECTION4_GOLDEN, "got {got:#x?}");
}
