//! Adaptive estimation–exploitation loops (paper §4.2–§4.3).
//!
//! Two schemes beyond the one-shot pipeline:
//!
//! * [`run_intel_sample_adaptive`] — §4.3's parameter-free variant:
//!   instead of fixing the sampling parameter `num` up front, grow it and
//!   re-plan until the estimated total cost starts rising ("we can guess
//!   the optimal value of z using adaptive sampling").
//! * [`run_intel_sample_iterative`] — §4.2's remark that "nothing prevents
//!   us from going back-and-forth between estimating selectivities and
//!   exploiting them": run a fraction of the plan, fold the new
//!   evaluations into the estimates, and re-plan.

use crate::execute::{execute_plan_ctx, truth_vector};
use crate::optimize::{solve_estimated, CorrelationModel};
use crate::pipeline::{session_group_by, RunOutcome};
use crate::plan::Plan;
use crate::query::QuerySpec;
use crate::sampling::{adaptive_num_search_ctx, sample_groups_ctx, SampleSizeRule};
use expred_exec::{ExecContext, Executor};
use expred_ml::metrics::precision_recall;
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, LABEL_COLUMN};
use expred_udf::UdfInvoker;
use std::time::Instant;

/// §4.3's adaptive pipeline: no sampling parameter needs to be supplied.
pub fn run_intel_sample_adaptive(
    ds: &Dataset,
    spec: &QuerySpec,
    corr: CorrelationModel,
    predictor: &str,
    seed: u64,
) -> RunOutcome {
    run_intel_sample_adaptive_ctx(ds, spec, corr, predictor, seed, &ExecContext::sequential())
}

/// [`run_intel_sample_adaptive`], probing through `executor`.
pub fn run_intel_sample_adaptive_with(
    ds: &Dataset,
    spec: &QuerySpec,
    corr: CorrelationModel,
    predictor: &str,
    seed: u64,
    executor: &dyn Executor,
) -> RunOutcome {
    run_intel_sample_adaptive_ctx(ds, spec, corr, predictor, seed, &ExecContext::new(executor))
}

/// [`run_intel_sample_adaptive`] under an execution context.
pub fn run_intel_sample_adaptive_ctx(
    ds: &Dataset,
    spec: &QuerySpec,
    corr: CorrelationModel,
    predictor: &str,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> RunOutcome {
    let start = Instant::now();
    let table = &ds.table;
    let udf = crate::pipeline::label_udf(ctx);
    let invoker = UdfInvoker::with_context(udf.as_ref(), table, ctx);
    let mut rng = Prng::seeded(seed);
    let groups = session_group_by(table, predictor, ctx).expect("predictor column");

    let outcome = adaptive_num_search_ctx(&groups, &invoker, spec, corr, &mut rng, ctx);
    let est_groups = outcome.sample.to_estimated_groups(&groups);
    let (plan, plan_feasible) = match solve_estimated(&est_groups, spec, corr) {
        Ok(plan) => (plan, true),
        Err(_) => (Plan::evaluate_all(groups.num_groups()), false),
    };
    let result = execute_plan_ctx(&plan, &groups, &invoker, &mut rng, ctx);
    let compute_seconds = start.elapsed().as_secs_f64();

    let truth = truth_vector(table, LABEL_COLUMN);
    let summary = precision_recall(result.returned.iter().map(|&r| r as usize), &truth);
    let counts = invoker.counts();
    RunOutcome {
        returned: result.returned,
        counts,
        cost: counts.cost(&spec.cost),
        summary,
        num_groups: groups.num_groups(),
        compute_seconds,
        plan_feasible,
    }
}

/// §4.2's iterative pipeline: `rounds` alternations of (sample, plan,
/// partially execute). Each round executes a `1/rounds_remaining` slice of
/// every group under the current plan, then folds what it learned back
/// into the estimates.
///
/// With `rounds = 1` this degenerates to the one-shot pipeline.
pub fn run_intel_sample_iterative(
    ds: &Dataset,
    spec: &QuerySpec,
    corr: CorrelationModel,
    predictor: &str,
    initial_rule: SampleSizeRule,
    rounds: usize,
    seed: u64,
) -> RunOutcome {
    run_intel_sample_iterative_ctx(
        ds,
        spec,
        corr,
        predictor,
        initial_rule,
        rounds,
        seed,
        &ExecContext::sequential(),
    )
}

/// [`run_intel_sample_iterative`], probing through `executor`.
#[allow(clippy::too_many_arguments)]
pub fn run_intel_sample_iterative_with(
    ds: &Dataset,
    spec: &QuerySpec,
    corr: CorrelationModel,
    predictor: &str,
    initial_rule: SampleSizeRule,
    rounds: usize,
    seed: u64,
    executor: &dyn Executor,
) -> RunOutcome {
    run_intel_sample_iterative_ctx(
        ds,
        spec,
        corr,
        predictor,
        initial_rule,
        rounds,
        seed,
        &ExecContext::new(executor),
    )
}

/// [`run_intel_sample_iterative`] under an execution context.
#[allow(clippy::too_many_arguments)]
pub fn run_intel_sample_iterative_ctx(
    ds: &Dataset,
    spec: &QuerySpec,
    corr: CorrelationModel,
    predictor: &str,
    initial_rule: SampleSizeRule,
    rounds: usize,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> RunOutcome {
    assert!(rounds >= 1, "need at least one round");
    let start = Instant::now();
    let table = &ds.table;
    let udf = crate::pipeline::label_udf(ctx);
    let invoker = UdfInvoker::with_context(udf.as_ref(), table, ctx);
    let mut rng = Prng::seeded(seed);
    let groups = session_group_by(table, predictor, ctx).expect("predictor column");
    let k = groups.num_groups();

    // Initial estimates.
    let mut sample = sample_groups_ctx(&groups, &invoker, initial_rule, &mut rng, ctx);
    let mut returned: Vec<u32> = Vec::new();
    // Rows not yet touched by execution, per group.
    let mut pending: Vec<Vec<u32>> = (0..k).map(|g| groups.rows(g).to_vec()).collect();
    let mut plan_feasible = true;

    for round in 0..rounds {
        let est_groups = sample.to_estimated_groups(&groups);
        let plan = match solve_estimated(&est_groups, spec, corr) {
            Ok(plan) => plan,
            Err(_) => {
                plan_feasible = false;
                Plan::evaluate_all(k)
            }
        };
        // Slice each group's pending rows for this round, restricting the
        // plan to the groups that still have rows.
        let remaining_rounds = rounds - round;
        let mut keys = Vec::new();
        let mut slice_rows: Vec<Vec<u32>> = Vec::new();
        let mut slice_r = Vec::new();
        let mut slice_e = Vec::new();
        let mut total = 0usize;
        for (g, p) in pending.iter_mut().enumerate() {
            let take = p.len().div_ceil(remaining_rounds).min(p.len());
            if take == 0 {
                continue;
            }
            let slice: Vec<u32> = p.drain(..take).collect();
            total += slice.len();
            keys.push(groups.key(g).clone());
            slice_rows.push(slice);
            slice_r.push(plan.r()[g]);
            slice_e.push(plan.e()[g]);
        }
        if total == 0 {
            break;
        }
        let slice_groups = expred_table::GroupBy::new(
            format!("{predictor}#round{round}"),
            keys,
            slice_rows,
            total,
        );
        let slice_plan = Plan::new(slice_r, slice_e);
        let result = execute_plan_ctx(&slice_plan, &slice_groups, &invoker, &mut rng, ctx);
        returned.extend(result.returned);

        // Fold everything evaluated so far back into the estimates.
        let refreshed = sample_groups_ctx(
            &groups,
            &invoker,
            SampleSizeRule::Constant(0),
            &mut rng,
            ctx,
        );
        sample = refreshed;
    }
    returned.sort_unstable();
    returned.dedup();

    let compute_seconds = start.elapsed().as_secs_f64();
    let truth = truth_vector(table, LABEL_COLUMN);
    let summary = precision_recall(returned.iter().map(|&r| r as usize), &truth);
    let counts = invoker.counts();
    RunOutcome {
        returned,
        counts,
        cost: counts.cost(&spec.cost),
        summary,
        num_groups: k,
        compute_seconds,
        plan_feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_intel_sample, run_naive, IntelSampleConfig, PredictorChoice};
    use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};

    fn small_prosper() -> Dataset {
        Dataset::generate(
            DatasetSpec {
                rows: 6_000,
                ..PROSPER
            },
            41,
        )
    }

    #[test]
    fn adaptive_pipeline_beats_naive_without_tuning() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let adaptive =
            run_intel_sample_adaptive(&ds, &spec, CorrelationModel::Independent, "grade", 1);
        let naive = run_naive(&ds, &spec, 1);
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
        let spec = QuerySpec::paper_default();
        let mut ok = 0;
        for seed in 0..8 {
            let out =
                run_intel_sample_adaptive(&ds, &spec, CorrelationModel::Independent, "grade", seed);
            if out.summary.meets(spec.alpha, spec.beta) {
                ok += 1;
            }
        }
        assert!(ok >= 6, "met constraints only {ok}/8 times");
    }

    #[test]
    fn iterative_single_round_close_to_one_shot() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let iterative = run_intel_sample_iterative(
            &ds,
            &spec,
            CorrelationModel::Independent,
            "grade",
            SampleSizeRule::Fraction(0.05),
            1,
            5,
        );
        let one_shot = run_intel_sample(
            &ds,
            &IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into())),
            5,
        );
        // Same structure; costs should land in the same ballpark.
        let a = iterative.counts.evaluated as f64;
        let b = one_shot.counts.evaluated as f64;
        assert!(
            (a - b).abs() < 0.35 * b.max(1.0),
            "iterative {a} vs one-shot {b}"
        );
    }

    #[test]
    fn iterative_multi_round_refines_without_losing_accuracy() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let mut ok = 0;
        for seed in 0..6 {
            let out = run_intel_sample_iterative(
                &ds,
                &spec,
                CorrelationModel::Independent,
                "grade",
                SampleSizeRule::Fraction(0.03),
                3,
                100 + seed,
            );
            assert!(out.counts.evaluated > 0);
            if out.summary.meets(spec.alpha, spec.beta) {
                ok += 1;
            }
        }
        assert!(ok >= 4, "multi-round met constraints only {ok}/6 times");
    }

    #[test]
    fn iterative_never_duplicates_answers() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let out = run_intel_sample_iterative(
            &ds,
            &spec,
            CorrelationModel::Independent,
            "grade",
            SampleSizeRule::Fraction(0.05),
            4,
            9,
        );
        let mut sorted = out.returned.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), out.returned.len());
    }
}
