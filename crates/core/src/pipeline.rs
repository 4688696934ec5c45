//! End-to-end query pipelines (paper §6.2's contestants).
//!
//! * [`run_intel_sample`] — the paper's main algorithm: choose a predictor
//!   column (fixed, auto-ranked, or an ML virtual column), sample to
//!   estimate selectivities (by a fixed rule, or §4.3's search), solve the
//!   convex program, execute — at once, or in §4.2's estimate/exploit
//!   rounds. Once the predictor is chosen, the run opens one
//!   [`Ledger`] over its grouping: the one read of the grouping that
//!   sampling makes. Every search step and every round re-plans on the
//!   ledger's counts, and each round adds the rows its execution
//!   evaluated, so no step re-reads the grouping to count. Execution
//!   still reads what its groups have decided, for the free answers.
//! * [`run_optimal`] — the unrealistic lower bound: exact selectivities
//!   handed to the §3.2 optimizer for free.
//! * [`run_naive`] — retrieve a random `β` fraction and evaluate all of it.
//!
//! Every pipeline runs against the audited [`UdfInvoker`], so reported
//! costs include sampling and predictor-selection evaluations, exactly as
//! §6.2 requires. All three pipelines are bodies inside one frame,
//! [`run_framed`]: the single place a run obtains its predicate, is
//! clocked, billed and scored. A pipeline written outside this crate runs in the same frame
//! — the frame, the [`Frame`] it lends and the [`Answer`] it takes back
//! are public for that (the paper's ML baselines in `expred-bench` are
//! such bodies).
//!
//! The answer is one bit plane from body to wire: a body fills a
//! [`RowSet`] over the table's rows, the frame scores it by popcount and
//! moves it behind an `Arc` into [`RunOutcome::returned`], the engine
//! memoizes and shares that outcome behind another — keeping each
//! distinct answer of a table once, however many outcomes return it —
//! and the serving tier's writer walks the plane's words straight into
//! the response body. No id list exists in between.

use crate::column_select::{rank_columns, virtual_column};
use crate::error::EngineError;
use crate::execute::execute_plan;
use crate::metrics::PrSummary;
use crate::optimize::{solve_estimated, solve_perfect_selectivities, CorrelationModel, PlanError};
use crate::plan::Plan;
use crate::query::QuerySpec;
use crate::sampling::{adaptive_num_search, Ledger, SampleSizeRule, Sampling};
use expred_exec::ExecContext;
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, LABEL_COLUMN};
use expred_table::{Column, GroupBy, RowSet, Table};
use expred_udf::{BooleanUdf, CostCounts, CostModel, OracleUdf, SlowUdf, UdfInvoker};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The label oracle every pipeline evaluates, wrapped in the context's
/// artificial latency when one is set. Answers, audited counts, and
/// cache identities are unchanged — [`SlowUdf`] shares its inner UDF's
/// fingerprint — so a latency-injected session is byte-identical to a
/// plain one, only slower.
fn label_udf(ctx: &ExecContext<'_>) -> Box<dyn BooleanUdf> {
    match ctx.udf_latency {
        Some(latency) => Box::new(SlowUdf::new(OracleUdf::new(LABEL_COLUMN), latency)),
        None => Box::new(OracleUdf::new(LABEL_COLUMN)),
    }
}

/// Partitions `table` by `column` through the table's memo
/// ([`Table::partition`]): repeat queries over an unchanged table skip
/// the re-group, and `push_row` forces a fresh derivation. The lookup is
/// counted on the context's session counters when it has them. A column
/// the table lacks is the only way to fail.
pub(crate) fn session_group_by(
    table: &Table,
    column: &str,
    ctx: &ExecContext<'_>,
) -> Result<Arc<GroupBy>, EngineError> {
    table
        .partition(column, ctx.derived)
        .map_err(|_| EngineError::unknown_column(table, column))
}

/// How the correlated column is obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorChoice {
    /// Use a named column as-is.
    Fixed(String),
    /// Rank all candidate columns on a labelled sample (§4.4 method 1).
    Auto {
        /// Fraction of the table to label for ranking (the paper uses 1%).
        label_fraction: f64,
    },
    /// Train a logistic regressor and bucketize its scores (§4.4 method 2).
    Virtual {
        /// Number of equal-depth buckets (the paper uses 10).
        buckets: usize,
        /// Fraction of the table to label for training (the paper uses 1%).
        label_fraction: f64,
    },
}

/// Intel-Sample configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IntelSampleConfig {
    /// Accuracy contract.
    pub spec: QuerySpec,
    /// How the first sample is sized: a per-group rule, or §4.3's search.
    pub sampling: Sampling,
    /// Estimate-correlation model for the convex program.
    pub corr: CorrelationModel,
    /// Predictor column source.
    pub predictor: PredictorChoice,
    /// Estimate/exploit rounds (§4.2). One plans once and executes the
    /// whole plan; more execute a share of every group per round and
    /// re-plan on what the rounds so far evaluated.
    pub rounds: NonZeroUsize,
}

impl IntelSampleConfig {
    /// The paper's Experiment-1 configuration for a given predictor:
    /// defaults `α=β=ρ=0.8`, independent-correlation convex program, 5%
    /// sample, one round.
    pub fn experiment1(predictor: PredictorChoice) -> Self {
        Self {
            spec: QuerySpec::paper_default(),
            sampling: Sampling::Rule(SampleSizeRule::Fraction(0.05)),
            corr: CorrelationModel::Independent,
            predictor,
            rounds: NonZeroUsize::MIN,
        }
    }
}

/// The outcome of one pipeline run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The rows returned as the query answer: the plane the pipeline
    /// body filled, over the table's rows — 8 rows a byte whatever the
    /// answer's size. Read it with `len`/`contains`/`iter`/`to_vec`
    /// through the `Arc`. Shared: the engine keeps each distinct answer
    /// of a table once, so equal answers of many outcomes are one plane
    /// ([`crate::QueryEngine`]'s module docs).
    pub returned: Arc<RowSet>,
    /// Audited action counts (retrievals, UDF evaluations, memo hits).
    pub counts: CostCounts,
    /// Total cost under the query's cost model.
    pub cost: f64,
    /// Quality versus ground truth (evaluation-side only).
    pub summary: PrSummary,
    /// Number of groups the plan was computed over.
    pub num_groups: usize,
    /// Wall-clock seconds spent outside UDF calls (planning, sampling
    /// bookkeeping, optimization) — the paper reports this is ≪ 1 s.
    pub compute_seconds: f64,
    /// False when the optimizer declared the constraints infeasible and
    /// the pipeline fell back to evaluating everything.
    pub plan_feasible: bool,
}

/// What the frame lends a pipeline body: the one audited invoker (and
/// therefore one borrowed cache handle) serving predictor ranking,
/// sampling *and* execution, and the seeded generator.
pub struct Frame<'a> {
    /// The audited invoker every probe of the run goes through.
    pub invoker: UdfInvoker<'a>,
    /// The run's generator, seeded from the request.
    pub rng: Prng,
    /// Ground truth — the set of correct rows — read outside the clock.
    /// The frame scores against it; of this crate's bodies only
    /// `Optimal`, to which the paper hands exact selectivities for free,
    /// may look — never planning code.
    pub truth: Arc<RowSet>,
}

impl Frame<'_> {
    /// An empty answer plane over the frame's table, for a body to fill.
    pub fn empty_answer(&self) -> RowSet {
        RowSet::new(self.invoker.table().num_rows())
    }
}

/// What a pipeline body hands back for the frame to score and bill.
pub struct Answer {
    /// The rows in the answer, as a plane over the table.
    pub returned: RowSet,
    /// Number of groups the plan was computed over.
    pub num_groups: usize,
    /// False when the plan fell back to evaluating everything.
    pub plan_feasible: bool,
}

/// The one frame under every pipeline: obtains the predicate,
/// builds the audited invoker and the seeded generator, clocks `body`,
/// then scores its answer against ground truth — both are planes, so
/// `|R ∩ C|` is a popcount of `answer & truth` — and assembles the bill
/// under `cost`. The answer plane moves into the outcome as it is: no
/// id list is built between the body and the response writer.
/// `compute_seconds` stops when the body returns, so it excludes both.
///
/// Takes the body as a closure because the invoker borrows the boxed
/// UDF, which must outlive it on this stack frame. This is the seam a
/// pipeline outside the crate uses: its outcome is then clocked, billed
/// and scored by the same code as the built-ins'.
pub fn run_framed(
    ds: &Dataset,
    cost: &CostModel,
    seed: u64,
    ctx: &ExecContext<'_>,
    body: impl FnOnce(&mut Frame<'_>) -> Result<Answer, EngineError>,
) -> Result<RunOutcome, EngineError> {
    let truth = Arc::clone(label_plane(&ds.table)?);
    let start = Instant::now();
    let udf = label_udf(ctx);
    let mut frame = Frame {
        invoker: UdfInvoker::with_context(udf.as_ref(), &ds.table, ctx),
        rng: Prng::seeded(seed),
        truth,
    };
    let answer = body(&mut frame)?;
    let compute_seconds = start.elapsed().as_secs_f64();
    let summary = PrSummary::from_counts(
        answer.returned.len(),
        answer.returned.intersection_len(&frame.truth),
        frame.truth.len(),
    );
    let counts = frame.invoker.counts();
    Ok(RunOutcome {
        returned: Arc::new(answer.returned),
        counts,
        cost: counts.cost(cost),
        summary,
        num_groups: answer.num_groups,
        compute_seconds,
        plan_feasible: answer.plan_feasible,
    })
}

/// The ground truth a run is scored against: the label column's
/// true-row plane ([`Column::true_rows`]), or a typed error for a label
/// that cannot be scored — missing, not boolean, or holding a NULL.
pub(crate) fn label_plane(table: &Table) -> Result<&Arc<RowSet>, EngineError> {
    let label = table.column(LABEL_COLUMN).and_then(Column::true_rows);
    label.ok_or_else(|| EngineError::InvalidRequest {
        reason: format!("label column {LABEL_COLUMN:?} must be a boolean column without NULLs"),
    })
}

/// Infeasibility falls back to evaluating everything (always correct,
/// never cheap); the flag is what `RunOutcome::plan_feasible` reports.
pub(crate) fn solve_or_evaluate_all(
    solved: Result<Plan, PlanError>,
    num_groups: usize,
) -> (Plan, bool) {
    match solved {
        Ok(plan) => (plan, true),
        Err(_) => (Plan::evaluate_all(num_groups), false),
    }
}

/// Runs the paper's Intel-Sample pipeline on a dataset, with every UDF
/// probe (predictor labelling, sampling, execution) routed through the
/// context's executor.
///
/// With [`IntelSampleConfig::rounds`] above one, this is §4.2's
/// back-and-forth: each round executes a `1/rounds_remaining` slice of
/// every group under the current plan, and every round after the first
/// re-plans on all the rows evaluated so far.
///
/// For a fixed seed the outcome is byte-identical across backends: all
/// randomness is drawn on the calling thread before batches dispatch.
/// When the context carries a session cache store, rows paid for by
/// earlier queries in the session arrive as free
/// [`CostCounts::reuse_hits`].
pub fn run_intel_sample(
    ds: &Dataset,
    cfg: &IntelSampleConfig,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> Result<RunOutcome, EngineError> {
    run_framed(ds, &cfg.spec.cost, seed, ctx, |f| {
        let table = &ds.table;
        // Step 0: obtain the correlated (possibly virtual) grouping.
        let groups: Arc<GroupBy> = match &cfg.predictor {
            PredictorChoice::Fixed(col) => session_group_by(table, col, ctx)?,
            PredictorChoice::Auto { label_fraction } => {
                let candidates = ds.candidate_columns();
                let (scores, _labelled) = rank_columns(
                    table,
                    &candidates,
                    &f.invoker,
                    &cfg.spec,
                    *label_fraction,
                    &mut f.rng,
                    ctx,
                )?;
                let best = scores.first().ok_or_else(|| EngineError::InvalidRequest {
                    reason: "predictor ranking scored no column".into(),
                })?;
                session_group_by(table, &best.column, ctx)?
            }
            PredictorChoice::Virtual {
                buckets,
                label_fraction,
            } => {
                let n = table.num_rows();
                let want = ((label_fraction * n as f64).ceil() as usize).clamp(1, n);
                let labelled = f.rng.sample_indices(n, want);
                let labels = f
                    .invoker
                    .retrieve_and_evaluate_batch(ctx.executor, &labelled);
                Arc::new(virtual_column(
                    table,
                    &[LABEL_COLUMN, "row_id"],
                    &labelled,
                    &labels,
                    *buckets,
                    ctx,
                ))
            }
        };

        // Steps 1–2: sample for selectivity estimates (reuses labelled
        // rows) and optimize, on the grouping's one ledger. The search
        // already solved the sample it stopped at.
        let k = groups.num_groups();
        let mut ledger = Ledger::open(&groups, &f.invoker);
        let solve = |ledger: &Ledger<'_>| {
            let est_groups = ledger.estimated_groups();
            solve_or_evaluate_all(solve_estimated(&est_groups, &cfg.spec, cfg.corr), k)
        };
        let (mut plan, mut plan_feasible) = match cfg.sampling {
            Sampling::Rule(rule) => {
                ledger.sample(rule, &mut f.rng, ctx);
                solve(&ledger)
            }
            Sampling::Search => solve_or_evaluate_all(
                adaptive_num_search(&mut ledger, &cfg.spec, cfg.corr, &mut f.rng, ctx),
                k,
            ),
        };

        // Step 3: execute. One round's slice is the whole grouping.
        let rounds = cfg.rounds.get();
        let mut returned = f.empty_answer();
        if rounds == 1 {
            execute_plan(&plan, &groups, &f.invoker, &mut f.rng, ctx, &mut returned)?;
        } else {
            // Rows of each group executed so far: its first ones by rank.
            let mut executed = vec![0; k];
            for round in 0..rounds {
                if round > 0 {
                    // Re-plan on everything evaluated so far: the ledger
                    // holds it.
                    let feasible;
                    (plan, feasible) = solve(&ledger);
                    plan_feasible &= feasible;
                }
                // Slice each group's pending rows for this round off its
                // runs, restricting the plan to the groups that still have
                // rows.
                let ranks = next_slices(&groups, &mut executed, rounds - round);
                let (slice_r, slice_e): (Vec<f64>, Vec<f64>) = (0..k)
                    .filter(|&g| !ranks[g].is_empty())
                    .map(|g| (plan.r()[g], plan.e()[g]))
                    .unzip();
                if slice_r.is_empty() {
                    break;
                }
                let slice_groups =
                    groups.slice(format!("{}#round{round}", groups.column()), &ranks);
                let (evaluated, passed) = execute_plan(
                    &Plan::new(slice_r, slice_e),
                    &slice_groups,
                    &f.invoker,
                    &mut f.rng,
                    ctx,
                    &mut returned,
                )?;
                ledger.add(&evaluated, &passed);
            }
        }
        Ok(Answer {
            returned,
            num_groups: k,
            plan_feasible,
        })
    })
}

/// Each group's slice for the next round, as a range of ranks among its
/// rows: a `1/remaining_rounds` share, rounded up, of the rows after the
/// `executed` ones, which it then counts as executed.
fn next_slices(
    groups: &GroupBy,
    executed: &mut [usize],
    remaining_rounds: usize,
) -> Vec<Range<usize>> {
    executed
        .iter_mut()
        .enumerate()
        .map(|(g, executed)| {
            let start = *executed;
            *executed += (groups.size(g) - start).div_ceil(remaining_rounds);
            start..*executed
        })
        .collect()
}

/// Runs the unrealistic `Optimal` baseline: exact selectivities are read
/// from ground truth for free, then the §3.2 optimizer plans and executes.
pub fn run_optimal(
    ds: &Dataset,
    spec: &QuerySpec,
    predictor: &str,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> Result<RunOutcome, EngineError> {
    run_framed(ds, &spec.cost, seed, ctx, |f| {
        let groups = session_group_by(&ds.table, predictor, ctx)?;
        let sizes: Vec<f64> = groups.sizes().iter().map(|&s| s as f64).collect();
        let sels: Vec<f64> = groups
            .counts([&f.truth])
            .iter()
            .zip(&sizes)
            .map(|(&[correct], &size)| correct as f64 / size)
            .collect();
        let (plan, plan_feasible) = solve_or_evaluate_all(
            solve_perfect_selectivities(&sizes, &sels, spec),
            groups.num_groups(),
        );
        let mut returned = f.empty_answer();
        execute_plan(&plan, &groups, &f.invoker, &mut f.rng, ctx, &mut returned)?;
        Ok(Answer {
            returned,
            num_groups: groups.num_groups(),
            plan_feasible,
        })
    })
}

/// Runs the `Naive` baseline: retrieve a uniform `β` fraction of the table
/// and evaluate every retrieved tuple, as executor batches (§6.2).
pub fn run_naive(
    ds: &Dataset,
    spec: &QuerySpec,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> Result<RunOutcome, EngineError> {
    run_framed(ds, &spec.cost, seed, ctx, |f| {
        let n = ds.table.num_rows();
        let k = ((spec.beta * n as f64).ceil() as usize).min(n);
        let mut batch = RowSet::new(n);
        for row in f.rng.sample_indices(n, k) {
            batch.insert(row);
        }
        f.invoker.charge_retrievals(k as u64);
        let returned = f.invoker.evaluate_plane(ctx.executor, &batch);
        Ok(Answer {
            returned,
            num_groups: 1,
            plan_feasible: true,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::request::QueryRequest;
    use expred_exec::WorkerPool;
    use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
    use proptest::prelude::*;

    fn prosper() -> Dataset {
        Dataset::generate(PROSPER, 21)
    }

    fn small_prosper() -> Dataset {
        Dataset::generate(
            DatasetSpec {
                rows: 6_000,
                ..PROSPER
            },
            41,
        )
    }

    /// Intel-Sample on `grade` with the given first sample and rounds.
    fn section4(sampling: Sampling, rounds: usize) -> IntelSampleConfig {
        IntelSampleConfig {
            sampling,
            rounds: NonZeroUsize::new(rounds).expect("at least one round"),
            ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()))
        }
    }

    fn rounds_of(fraction: f64, rounds: usize) -> IntelSampleConfig {
        section4(Sampling::Rule(SampleSizeRule::Fraction(fraction)), rounds)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn run_slices_are_the_row_list_slices_round_by_round(
            assignments in prop::collection::vec(0usize..9, 1..400),
            rounds in 1usize..6,
        ) {
            let groups = GroupBy::from_assignments("g", &assignments);
            let k = groups.num_groups();
            // The slicing the runs replaced: drain each group's row list
            // and rebuild a grouping through `GroupBy::new`.
            let mut pending: Vec<Vec<u32>> = (0..k).map(|g| groups.rows(g).collect()).collect();
            let mut executed = vec![0; k];
            for round in 0..rounds {
                let remaining_rounds = rounds - round;
                let (mut keys, mut rows, mut total) = (Vec::new(), Vec::new(), 0);
                for (g, p) in pending.iter_mut().enumerate() {
                    let take = p.len().div_ceil(remaining_rounds).min(p.len());
                    if take > 0 {
                        total += take;
                        keys.push(groups.key(g).clone());
                        rows.push(p.drain(..take).collect::<Vec<u32>>());
                    }
                }
                let ranks = next_slices(&groups, &mut executed, remaining_rounds);
                let kept = ranks.iter().filter(|r| !r.is_empty()).count();
                prop_assert_eq!(kept, keys.len(), "round {}", round);
                let label = format!("g#round{round}");
                let want = GroupBy::new(label.clone(), keys, rows, total);
                prop_assert_eq!(groups.slice(label, &ranks), want, "round {}", round);
            }
            prop_assert!(pending.iter().all(Vec::is_empty), "rounds left rows behind");
            prop_assert_eq!(executed, groups.sizes());
        }
    }

    #[test]
    fn adaptive_pipeline_beats_naive_without_tuning() {
        let ctx = ExecContext::sequential();
        let ds = small_prosper();
        let adaptive = run_intel_sample(&ds, &section4(Sampling::Search, 1), 1, &ctx).unwrap();
        let naive = run_naive(&ds, &QuerySpec::paper_default(), 1, &ctx).unwrap();
        assert!(
            adaptive.counts.evaluated < naive.counts.evaluated,
            "adaptive {} vs naive {}",
            adaptive.counts.evaluated,
            naive.counts.evaluated
        );
    }

    #[test]
    fn adaptive_pipeline_meets_constraints_mostly() {
        let ds = small_prosper();
        let cfg = section4(Sampling::Search, 1);
        let mut ok = 0;
        for seed in 0..8 {
            let out = run_intel_sample(&ds, &cfg, seed, &ExecContext::sequential()).unwrap();
            if out.summary.meets(cfg.spec.alpha, cfg.spec.beta) {
                ok += 1;
            }
        }
        assert!(ok >= 6, "met constraints only {ok}/8 times");
    }

    #[test]
    fn iterative_single_round_close_to_one_shot() {
        // One round executes the whole grouping under the first plan —
        // exactly what a one-round slice of it executes, cold and on a
        // warm session store, on either backend.
        let ds = small_prosper();
        let cfg = rounds_of(0.05, 1);
        let sliced = |f: &mut Frame<'_>, ctx: &ExecContext<'_>| {
            let groups = session_group_by(&ds.table, "grade", ctx)?;
            let k = groups.num_groups();
            let mut ledger = Ledger::open(&groups, &f.invoker);
            ledger.sample(SampleSizeRule::Fraction(0.05), &mut f.rng, ctx);
            let est_groups = ledger.estimated_groups();
            let (plan, plan_feasible) =
                solve_or_evaluate_all(solve_estimated(&est_groups, &cfg.spec, cfg.corr), k);
            let ranks = next_slices(&groups, &mut vec![0; k], 1);
            assert!(ranks.iter().all(|r| !r.is_empty()), "every group has rows");
            let slice = groups.slice("grade#round0".into(), &ranks);
            let mut returned = f.empty_answer();
            execute_plan(&plan, &slice, &f.invoker, &mut f.rng, ctx, &mut returned)?;
            Ok(Answer {
                returned,
                num_groups: k,
                plan_feasible,
            })
        };
        let warmer = QueryRequest::intel_sample(IntelSampleConfig {
            spec: QuerySpec::new(0.8, 0.3, 0.8, cfg.spec.cost),
            ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("housing_status".into()))
        });
        let engines: [fn() -> QueryEngine; 2] = [QueryEngine::new, || {
            QueryEngine::with_executor(Box::new(WorkerPool::with_threads(2)))
        }];
        for engine in engines {
            for warm in [false, true] {
                for seed in [5, 6] {
                    let (one_round, one_slice) = (engine(), engine());
                    if warm {
                        for e in [&one_round, &one_slice] {
                            e.submit(&ds, &warmer.clone().with_seed(seed)).unwrap();
                        }
                    }
                    let got = run_intel_sample(&ds, &cfg, seed, &one_round.context()).unwrap();
                    let ctx = one_slice.context();
                    let want =
                        run_framed(&ds, &cfg.spec.cost, seed, &ctx, |f| sliced(f, &ctx)).unwrap();
                    let what = format!("warm {warm} seed {seed}");
                    assert_eq!(got.returned, want.returned, "{what}");
                    assert_eq!(got.counts, want.counts, "{what}");
                    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}");
                    assert_eq!(got.num_groups, want.num_groups, "{what}");
                    assert_eq!(got.plan_feasible, want.plan_feasible, "{what}");
                }
            }
        }
    }

    #[test]
    fn every_round_and_search_step_plans_on_what_a_retally_reads() {
        // The ledger against the re-tally it replaced, at every estimate
        // a run plans on: each §4.2 round's and each §4.3 search step's,
        // cold and on a warm session store, on either backend.
        let ds = small_prosper();
        let unknown = IntelSampleConfig {
            corr: CorrelationModel::Unknown,
            ..section4(Sampling::Search, 1)
        };
        let cfgs = [
            rounds_of(0.05, 2),
            rounds_of(0.02, 3),
            section4(Sampling::Search, 1),
            unknown,
        ];
        let warmer = QueryRequest::intel_sample(IntelSampleConfig {
            spec: QuerySpec::new(0.8, 0.3, 0.8, QuerySpec::paper_default().cost),
            ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("housing_status".into()))
        });
        let engines: [fn() -> QueryEngine; 2] = [QueryEngine::new, || {
            QueryEngine::with_executor(Box::new(WorkerPool::with_threads(2)))
        }];
        for engine in engines {
            for warm in [false, true] {
                for cfg in &cfgs {
                    let (checked, unchecked) = (engine(), engine());
                    if warm {
                        for e in [&checked, &unchecked] {
                            e.submit(&ds, &warmer.clone().with_seed(8)).unwrap();
                        }
                    }
                    let (got, checks) = crate::sampling::tests::with_retally_checks(|| {
                        run_intel_sample(&ds, cfg, 7, &checked.context()).unwrap()
                    });
                    let what = format!("warm {warm}, {cfg:?}");
                    match cfg.sampling {
                        Sampling::Search => assert!(checks >= 2, "{checks} steps: {what}"),
                        Sampling::Rule(_) => assert_eq!(checks, cfg.rounds.get(), "{what}"),
                    }
                    // The re-tally changed nothing the run reports.
                    let want = run_intel_sample(&ds, cfg, 7, &unchecked.context()).unwrap();
                    assert_eq!(got.returned, want.returned, "{what}");
                    assert_eq!(got.counts, want.counts, "{what}");
                }
            }
        }
    }

    #[test]
    fn iterative_multi_round_refines_without_losing_accuracy() {
        let ds = small_prosper();
        let cfg = rounds_of(0.03, 3);
        let mut ok = 0;
        for seed in 0..6 {
            let out = run_intel_sample(&ds, &cfg, 100 + seed, &ExecContext::sequential()).unwrap();
            assert!(out.counts.evaluated > 0);
            if out.summary.meets(cfg.spec.alpha, cfg.spec.beta) {
                ok += 1;
            }
        }
        assert!(ok >= 4, "multi-round met constraints only {ok}/6 times");
    }

    #[test]
    fn iterative_never_duplicates_answers() {
        let ds = small_prosper();
        let out =
            run_intel_sample(&ds, &rounds_of(0.05, 4), 9, &ExecContext::sequential()).unwrap();
        // The answer is a plane, so a row returned by two rounds is one
        // bit; what must still agree is the count the frame scored.
        let ids = out.returned.to_vec();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), out.summary.returned);
    }

    #[test]
    fn naive_meets_recall_in_expectation_with_perfect_precision() {
        let ds = prosper();
        let spec = QuerySpec::paper_default();
        let out = run_naive(&ds, &spec, 1, &ExecContext::sequential()).unwrap();
        assert_eq!(out.summary.precision, 1.0);
        assert!(
            (out.summary.recall - 0.8).abs() < 0.03,
            "{}",
            out.summary.recall
        );
        assert_eq!(
            out.counts.evaluated as usize,
            (0.8f64 * 30_000.0).ceil() as usize
        );
    }

    #[test]
    fn intel_sample_fixed_predictor_beats_naive() {
        let ctx = ExecContext::sequential();
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let intel = run_intel_sample(&ds, &cfg, 2, &ctx).unwrap();
        let naive = run_naive(&ds, &cfg.spec, 2, &ctx).unwrap();
        assert!(intel.plan_feasible, "plan must be feasible on Prosper");
        assert!(
            intel.counts.evaluated < naive.counts.evaluated,
            "intel {} vs naive {}",
            intel.counts.evaluated,
            naive.counts.evaluated
        );
    }

    #[test]
    fn intel_sample_respects_constraints_typically() {
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let mut ok = 0;
        let runs = 10;
        for seed in 0..runs {
            let out = run_intel_sample(&ds, &cfg, 100 + seed, &ExecContext::sequential()).unwrap();
            if out.summary.meets(cfg.spec.alpha, cfg.spec.beta) {
                ok += 1;
            }
        }
        // rho = 0.8: at least 8/10 in expectation; allow one slip.
        assert!(ok >= 7, "constraints met only {ok}/{runs} times");
    }

    #[test]
    fn optimal_is_cheapest() {
        let ctx = ExecContext::sequential();
        let ds = prosper();
        let spec = QuerySpec::paper_default();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let optimal = run_optimal(&ds, &spec, "grade", 3, &ctx).unwrap();
        let intel = run_intel_sample(&ds, &cfg, 3, &ctx).unwrap();
        assert!(optimal.plan_feasible);
        assert!(
            optimal.counts.evaluated <= intel.counts.evaluated,
            "optimal {} vs intel {}",
            optimal.counts.evaluated,
            intel.counts.evaluated
        );
    }

    #[test]
    fn auto_predictor_runs_and_is_competitive() {
        let ctx = ExecContext::sequential();
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Auto {
            label_fraction: 0.01,
        });
        let auto = run_intel_sample(&ds, &cfg, 4, &ctx).unwrap();
        let naive = run_naive(&ds, &cfg.spec, 4, &ctx).unwrap();
        assert!(auto.counts.evaluated < naive.counts.evaluated);
    }

    #[test]
    fn virtual_predictor_runs() {
        let ctx = ExecContext::sequential();
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Virtual {
            buckets: 10,
            label_fraction: 0.01,
        });
        let out = run_intel_sample(&ds, &cfg, 5, &ctx).unwrap();
        assert!(out.num_groups >= 5);
        let naive = run_naive(&ds, &cfg.spec, 5, &ctx).unwrap();
        assert!(out.counts.evaluated < naive.counts.evaluated);
    }

    #[test]
    fn compute_time_is_sub_second() {
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let out = run_intel_sample(&ds, &cfg, 6, &ExecContext::sequential()).unwrap();
        // Debug builds are slow; the paper's <1s claim is checked in the
        // release-mode experiment harness. Here: just sanity.
        assert!(out.compute_seconds < 30.0);
    }
}
