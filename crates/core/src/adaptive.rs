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

use crate::error::EngineError;
use crate::execute::execute_plan_into;
use crate::optimize::{solve_estimated, CorrelationModel};
use crate::pipeline::{run_framed, session_group_by, solve_or_evaluate_all, Answer, RunOutcome};
use crate::plan::Plan;
use crate::query::QuerySpec;
use crate::sampling::{adaptive_num_search, sample_groups, SampleSizeRule};
use expred_exec::ExecContext;
use expred_table::datasets::Dataset;
use expred_table::GroupBy;
use std::ops::Range;

/// §4.3's adaptive pipeline: no sampling parameter needs to be supplied.
pub fn run_intel_sample_adaptive(
    ds: &Dataset,
    spec: &QuerySpec,
    corr: CorrelationModel,
    predictor: &str,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> Result<RunOutcome, EngineError> {
    run_framed(ds, &spec.cost, seed, ctx, |f| {
        let groups = session_group_by(&ds.table, predictor, ctx)?;
        // The search already solved the sample it stopped at.
        let outcome = adaptive_num_search(&groups, &f.invoker, spec, corr, &mut f.rng, ctx);
        let (plan, plan_feasible) = solve_or_evaluate_all(outcome.plan, groups.num_groups());
        let mut returned = f.empty_answer();
        execute_plan_into(&plan, &groups, &f.invoker, &mut f.rng, ctx, &mut returned)?;
        Ok(Answer {
            returned,
            num_groups: groups.num_groups(),
            plan_feasible,
        })
    })
}

/// §4.2's iterative pipeline: `rounds` alternations of (sample, plan,
/// partially execute). Each round executes a `1/rounds_remaining` slice of
/// every group under the current plan, then folds what it learned back
/// into the estimates.
///
/// With `rounds = 1` this degenerates to the one-shot pipeline; zero
/// rounds is an [`EngineError::InvalidRequest`].
#[allow(clippy::too_many_arguments)]
pub fn run_intel_sample_iterative(
    ds: &Dataset,
    spec: &QuerySpec,
    corr: CorrelationModel,
    predictor: &str,
    initial_rule: SampleSizeRule,
    rounds: usize,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> Result<RunOutcome, EngineError> {
    if rounds < 1 {
        return Err(EngineError::InvalidRequest {
            reason: "iterative pipeline needs at least one round".into(),
        });
    }
    run_framed(ds, &spec.cost, seed, ctx, |f| {
        let groups = session_group_by(&ds.table, predictor, ctx)?;
        let k = groups.num_groups();

        // Initial estimates.
        let mut sample = sample_groups(&groups, &f.invoker, initial_rule, &mut f.rng, ctx);
        // Every round's answer rows join one plane over the table.
        let mut returned = f.empty_answer();
        // Rows of each group executed so far: its first ones by rank.
        let mut executed = vec![0; k];
        let mut plan_feasible = true;

        for round in 0..rounds {
            let est_groups = sample.to_estimated_groups(&groups);
            let (plan, feasible) =
                solve_or_evaluate_all(solve_estimated(&est_groups, spec, corr), k);
            plan_feasible &= feasible;
            // Slice each group's pending rows for this round off its runs,
            // restricting the plan to the groups that still have rows.
            let ranks = next_slices(&groups, &mut executed, rounds - round);
            let (slice_r, slice_e): (Vec<f64>, Vec<f64>) = (0..k)
                .filter(|&g| !ranks[g].is_empty())
                .map(|g| (plan.r()[g], plan.e()[g]))
                .unzip();
            if slice_r.is_empty() {
                break;
            }
            let slice_groups = groups.slice(format!("{predictor}#round{round}"), &ranks);
            let slice_plan = Plan::new(slice_r, slice_e);
            execute_plan_into(
                &slice_plan,
                &slice_groups,
                &f.invoker,
                &mut f.rng,
                ctx,
                &mut returned,
            )?;

            // Fold everything evaluated so far back into the estimates:
            // a tally-only pass (no group is short of a zero target), so
            // one word-major read of the grouping.
            sample = sample_groups(
                &groups,
                &f.invoker,
                SampleSizeRule::Constant(0),
                &mut f.rng,
                ctx,
            );
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_intel_sample, run_naive, IntelSampleConfig, PredictorChoice};
    use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
    use proptest::prelude::*;

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
        let ctx = ExecContext::sequential();
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let adaptive =
            run_intel_sample_adaptive(&ds, &spec, CorrelationModel::Independent, "grade", 1, &ctx)
                .unwrap();
        let naive = run_naive(&ds, &spec, 1, &ctx).unwrap();
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
            let out = run_intel_sample_adaptive(
                &ds,
                &spec,
                CorrelationModel::Independent,
                "grade",
                seed,
                &ExecContext::sequential(),
            )
            .unwrap();
            if out.summary.meets(spec.alpha, spec.beta) {
                ok += 1;
            }
        }
        assert!(ok >= 6, "met constraints only {ok}/8 times");
    }

    #[test]
    fn iterative_single_round_close_to_one_shot() {
        let ctx = ExecContext::sequential();
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
            &ctx,
        )
        .unwrap();
        let one_shot = run_intel_sample(
            &ds,
            &IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into())),
            5,
            &ctx,
        )
        .unwrap();
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
                &ExecContext::sequential(),
            )
            .unwrap();
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
            &ExecContext::sequential(),
        )
        .unwrap();
        // The answer is a plane, so a row returned by two rounds is one
        // bit; what must still agree is the count the frame scored.
        let ids = out.returned.to_vec();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), out.summary.returned);
    }
}
