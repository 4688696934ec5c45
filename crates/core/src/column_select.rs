//! Finding a correlated column (paper §4.4).
//!
//! Both published methods:
//!
//! 1. **Real column ranking**: evaluate a small labelled sample (~1%),
//!    estimate per-value selectivities for every candidate column with at
//!    most `√t` distinct values (sampling more if no column qualifies),
//!    cost each candidate by running the §3.2 optimizer on the estimates,
//!    and pick the cheapest.
//! 2. **Virtual column**: train a logistic regressor on the labelled
//!    sample, score every tuple, and split the scores into equal-depth
//!    buckets; the bucket id is the correlated column (§6.3.2).

use crate::error::EngineError;
use crate::optimize::solve_perfect_selectivities;
use crate::pipeline::session_group_by;
use crate::query::QuerySpec;
use crate::sampling::draw_by_rank;
use expred_exec::ExecContext;
use expred_ml::features::{extract_features, FeatureSpec};
use expred_ml::logistic::{train, TrainConfig};
use expred_stats::estimator::SelectivityEstimate;
use expred_stats::histogram::bucketize;
use expred_stats::rng::Prng;
use expred_table::{GroupBy, RowSet, Table};
use expred_udf::UdfInvoker;

/// Ranked candidate column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnScore {
    /// Column name.
    pub column: String,
    /// Estimated plan cost using the sampled selectivities (lower is
    /// better); infinite when no feasible plan exists under the estimates.
    pub estimated_cost: f64,
    /// Number of distinct values observed for the column.
    pub distinct_values: usize,
}

/// Evaluates a labelled sample and ranks `candidates` by estimated plan
/// cost (method 1), labelling each round's sample as one executor batch.
/// Returns the ranking (best first) plus the labelled rows, ascending,
/// which callers re-use for selectivity estimation and output.
///
/// `label_fraction` is the initial sample size as a fraction of the table
/// (the paper uses 1%); if no candidate has ≤ √t distinct values the
/// sample is doubled, up to `max_rounds` times.
///
/// Errors if `candidates` is empty or names a column the table lacks.
pub fn rank_columns(
    table: &Table,
    candidates: &[String],
    invoker: &UdfInvoker<'_>,
    spec: &QuerySpec,
    label_fraction: f64,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> Result<(Vec<ColumnScore>, Vec<u32>), EngineError> {
    if candidates.is_empty() {
        return Err(EngineError::InvalidRequest {
            reason: "predictor ranking needs at least one candidate column".into(),
        });
    }
    let n = table.num_rows();
    let max_rounds = 4;
    let mut target = ((label_fraction * n as f64).ceil() as usize).clamp(1, n);
    // The labelled rows as planes over the table — which rows, and which
    // of them passed — for scoring columns a word at a time.
    let mut labelled = RowSet::new(n);
    let mut passed = RowSet::new(n);

    // Sample until some column qualifies, or the last round is spent.
    let mut round = 1;
    let eligible = loop {
        // Grow the labelled sample to the current target.
        let missing = target.saturating_sub(labelled.len());
        if missing > 0 {
            // Every row of the table, read a word at a time; the sample
            // is drawn by rank among the undecided ones, into a plane.
            let every_row = RowSet::full(n);
            let (decided, _) = invoker.scan_plane(&every_row);
            let unlabelled: Vec<(u32, u64)> = every_row
                .words()
                .iter()
                .zip(decided.words())
                .enumerate()
                .map(|(word, (&rows, &decided))| (word as u32, rows & !decided))
                .filter(|&(_, open)| open != 0)
                .collect();
            let mut batch = RowSet::new(n);
            let drawn = draw_by_rank(&unlabelled, missing, rng, |row| batch.insert(row));
            invoker.charge_retrievals(drawn as u64);
            passed.union_with(&invoker.evaluate_plane(ctx.executor, &batch));
            labelled.union_with(&batch);
        }
        let limit = (labelled.len() as f64).sqrt().ceil() as usize;
        // Eligibility reads the memoized per-column stats: the distinct
        // count is computed once per (column, version), not re-scanned on
        // every ranking round.
        let eligible: Vec<&String> = candidates
            .iter()
            .filter(|c| {
                table
                    .column_stats(c)
                    .map(|stats| stats.distinct_count <= limit.max(2))
                    .unwrap_or(false)
            })
            .collect();
        if !eligible.is_empty() || round == max_rounds {
            break eligible;
        }
        target = (target * 2).min(n);
        round += 1;
    };
    // No column qualified even at the last round's sample: rank them all.
    let pool = if eligible.is_empty() {
        candidates.iter().collect::<Vec<_>>()
    } else {
        eligible
    };
    let mut scores = pool
        .into_iter()
        .map(|c| score_column(table, c, spec, &labelled, &passed, ctx))
        .collect::<Result<Vec<ColumnScore>, EngineError>>()?;
    scores.sort_by(|a, b| {
        a.estimated_cost
            .total_cmp(&b.estimated_cost)
            .then(a.column.cmp(&b.column))
    });
    Ok((scores, labelled.to_vec()))
}

/// Scores one column: group the table by it, estimate each group's
/// selectivity from the labelled rows (Beta posterior; unseen groups fall
/// back to the uniform prior), and cost the §3.2 plan on those estimates.
/// The labelled rows arrive as two planes (`labelled`, and `passed` among
/// them), so a group's tally is a popcount per run of the group.
fn score_column(
    table: &Table,
    column: &str,
    spec: &QuerySpec,
    labelled: &RowSet,
    passed: &RowSet,
    ctx: &ExecContext<'_>,
) -> Result<ColumnScore, EngineError> {
    let groups = session_group_by(table, column, ctx)?;
    let sizes: Vec<f64> = groups.sizes().iter().map(|&s| s as f64).collect();
    let sels: Vec<f64> = groups
        .counts([passed, labelled])
        .into_iter()
        .map(|[pos, tot]| SelectivityEstimate::from_sample(pos as u64, tot as u64).mean())
        .collect();
    let estimated_cost = match solve_perfect_selectivities(&sizes, &sels, spec) {
        Ok(plan) => plan.expected_cost(&sizes, &spec.cost),
        Err(_) => f64::INFINITY,
    };
    Ok(ColumnScore {
        column: column.to_owned(),
        estimated_cost,
        distinct_values: groups.num_groups(),
    })
}

/// Builds the §6.3.2 virtual column (method 2): train a logistic
/// regressor on the `labelled` rows and their evaluated `labels`, score
/// all tuples, and bucketize the scores into `buckets` equal-depth
/// groups.
///
/// `exclude` must contain at least the hidden label column; the paper also
/// excludes identifiers.
pub fn virtual_column(
    table: &Table,
    exclude: &[&str],
    labelled: &[usize],
    labels: &[bool],
    buckets: usize,
    ctx: &ExecContext<'_>,
) -> GroupBy {
    assert!(!labelled.is_empty(), "virtual column needs labelled rows");
    let features = extract_features(table, exclude, FeatureSpec::default(), ctx.derived);
    let model = train(&features, labelled, labels, TrainConfig::default());
    let scores = model.predict_all(&features);
    let assignments = bucketize(&scores, buckets);
    GroupBy::from_assignments("virtual:logistic", &assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::datasets::{Dataset, LABEL_COLUMN, PROSPER};
    use expred_udf::OracleUdf;

    #[test]
    fn designated_predictor_wins_on_synthetic_data() {
        let ctx = ExecContext::sequential();
        let ds = Dataset::generate(PROSPER, 11);
        let udf = OracleUdf::new(LABEL_COLUMN);
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let spec = QuerySpec::paper_default();
        let mut rng = Prng::seeded(11);
        let candidates = ds.candidate_columns();
        let (scores, labelled) = rank_columns(
            &ds.table,
            &candidates,
            &invoker,
            &spec,
            0.01,
            &mut rng,
            &ctx,
        )
        .unwrap();
        assert!(!scores.is_empty());
        assert_eq!(labelled.len(), 300); // 1% of 30k
                                         // The designated predictor ("grade") or its high-fidelity noisy
                                         // copy should rank at or near the top.
        let top3: Vec<&str> = scores.iter().take(3).map(|s| s.column.as_str()).collect();
        assert!(
            top3.contains(&"grade") || top3.contains(&"sub_grade"),
            "top3 = {top3:?}"
        );
        // Noise columns must rank worse than the winner.
        let winner_cost = scores[0].estimated_cost;
        let weekday = scores.iter().find(|s| s.column == "weekday").unwrap();
        assert!(weekday.estimated_cost > winner_cost);
    }

    #[test]
    fn ranking_costs_are_monotone() {
        let ctx = ExecContext::sequential();
        let ds = Dataset::generate(PROSPER, 12);
        let udf = OracleUdf::new(LABEL_COLUMN);
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let spec = QuerySpec::paper_default();
        let mut rng = Prng::seeded(12);
        let (scores, _) = rank_columns(
            &ds.table,
            &ds.candidate_columns(),
            &invoker,
            &spec,
            0.01,
            &mut rng,
            &ctx,
        )
        .unwrap();
        for w in scores.windows(2) {
            assert!(w[0].estimated_cost <= w[1].estimated_cost);
        }
    }

    #[test]
    fn labelling_cost_is_charged() {
        let ctx = ExecContext::sequential();
        let ds = Dataset::generate(PROSPER, 13);
        let udf = OracleUdf::new(LABEL_COLUMN);
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let spec = QuerySpec::paper_default();
        let mut rng = Prng::seeded(13);
        let (_, labelled) = rank_columns(
            &ds.table,
            &ds.candidate_columns(),
            &invoker,
            &spec,
            0.01,
            &mut rng,
            &ctx,
        )
        .unwrap();
        assert_eq!(invoker.counts().evaluated as usize, labelled.len());
    }

    #[test]
    fn virtual_column_buckets_order_by_selectivity() {
        let ctx = ExecContext::sequential();
        let ds = Dataset::generate(PROSPER, 14);
        let udf = OracleUdf::new(LABEL_COLUMN);
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let mut rng = Prng::seeded(14);
        // Label 2% of rows.
        let n = ds.table.num_rows();
        let labelled = rng.sample_indices(n, n / 50);
        let labels: Vec<bool> = labelled
            .iter()
            .map(|&r| invoker.retrieve_and_evaluate(r))
            .collect();
        let groups = virtual_column(
            &ds.table,
            &[LABEL_COLUMN, "row_id"],
            &labelled,
            &labels,
            10,
            &ctx,
        );
        assert!(
            groups.num_groups() >= 5,
            "got {} buckets",
            groups.num_groups()
        );
        assert_eq!(groups.num_rows(), n);
        // Bucket selectivity (vs ground truth) should increase with the
        // bucket id: the regressor's score orders tuples by likelihood.
        let truth = crate::execute::truth_vector(&ds.table, LABEL_COLUMN);
        let sels: Vec<f64> = (0..groups.num_groups())
            .map(|g| {
                let correct = groups.rows(g).filter(|&r| truth[r as usize]).count();
                correct as f64 / groups.size(g) as f64
            })
            .collect();
        let first = sels.first().copied().unwrap();
        let last = sels.last().copied().unwrap();
        assert!(
            last > first + 0.2,
            "virtual buckets must separate classes: {sels:?}"
        );
    }
}
