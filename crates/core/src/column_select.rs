//! Finding a correlated column (paper §4.4).
//!
//! Both published methods:
//!
//! 1. **Real column ranking**: evaluate a small labelled sample (~1%),
//!    estimate per-value selectivities for every candidate column with at
//!    most `√t` distinct values (sampling more if no column qualifies),
//!    cost each candidate by running the §3.2 optimizer on the estimates,
//!    and pick the cheapest. A candidate is scored from the table's
//!    memoized per-column stats — its group sizes and code → group map —
//!    and the labelled rows walked through its codes
//!    ([`Table::tally_groups`]), so ranking partitions no column: only the
//!    winner is partitioned, by the plan that executes it.
//! 2. **Virtual column**: train a logistic regressor on the labelled
//!    sample, score every tuple, and split the scores into equal-depth
//!    buckets; the bucket id is the correlated column (§6.3.2).

use crate::error::EngineError;
use crate::ml::features::extract_features;
use crate::ml::logistic::{train, TrainConfig};
use crate::optimize::solve_perfect_selectivities;
use crate::query::QuerySpec;
use crate::sampling::draw_by_rank;
use expred_exec::ExecContext;
use expred_stats::estimator::SelectivityEstimate;
use expred_stats::histogram::bucketize;
use expred_stats::rng::Prng;
use expred_table::{GroupBy, RowSet, Table};
use expred_udf::UdfInvoker;

/// Ranked candidate column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnScore {
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
pub(crate) fn rank_columns(
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
        .map(|c| score_column(table, c, spec, &labelled, &passed))
        .collect::<Result<Vec<ColumnScore>, EngineError>>()?;
    scores.sort_by(|a, b| {
        a.estimated_cost
            .total_cmp(&b.estimated_cost)
            .then(a.column.cmp(&b.column))
    });
    Ok((scores, labelled.to_vec()))
}

/// Scores one column: tally the labelled rows per group of the column
/// (Beta posterior per group; unseen groups fall back to the uniform
/// prior), and cost the §3.2 plan on those estimates. The labelled rows
/// arrive as two planes (`labelled`, and `passed` among them), and only
/// they are walked, through the column's codes
/// ([`Table::tally_groups`]): the group sizes come with the column's
/// memoized stats, so scoring builds no partition — only the winner gets
/// one, when a plan executes it.
fn score_column(
    table: &Table,
    column: &str,
    spec: &QuerySpec,
    labelled: &RowSet,
    passed: &RowSet,
) -> Result<ColumnScore, EngineError> {
    let groups = table
        .tally_groups(column, labelled, passed)
        .map_err(|_| EngineError::unknown_column(table, column))?;
    let sizes: Vec<f64> = groups.iter().map(|g| g.size as f64).collect();
    let sels: Vec<f64> = groups
        .iter()
        .map(|g| SelectivityEstimate::from_sample(g.marked as u64, g.rows as u64).mean())
        .collect();
    Ok(ColumnScore {
        column: column.to_owned(),
        estimated_cost: plan_cost(&sizes, &sels, spec),
        distinct_values: groups.len(),
    })
}

/// The expected cost of the §3.2 plan over groups of `sizes` rows and
/// estimated selectivities `sels`; infinite when no plan is feasible.
fn plan_cost(sizes: &[f64], sels: &[f64], spec: &QuerySpec) -> f64 {
    match solve_perfect_selectivities(sizes, sels, spec) {
        Ok(plan) => plan.expected_cost(sizes, &spec.cost),
        Err(_) => f64::INFINITY,
    }
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
    let features = extract_features(table, exclude, ctx.derived);
    let model = train(&features, labelled, labels, TrainConfig::default());
    let scores = model.predict_all(&features);
    let assignments = bucketize(&scores, buckets);
    GroupBy::from_assignments("virtual:logistic", &assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::session_group_by;
    use expred_table::datasets::{all_specs, Dataset, DatasetSpec, LABEL_COLUMN, PROSPER};
    use expred_table::{DataType, Field, Schema, Value};
    use expred_udf::OracleUdf;

    /// The oracle `score_column` is held to: group the table by the
    /// column (through the table memo) and take each group's tallies off
    /// its runs.
    fn score_by_partition(
        table: &Table,
        column: &str,
        spec: &QuerySpec,
        labelled: &RowSet,
        passed: &RowSet,
        ctx: &ExecContext<'_>,
    ) -> ColumnScore {
        let groups = session_group_by(table, column, ctx).unwrap();
        let sizes: Vec<f64> = groups.sizes().iter().map(|&s| s as f64).collect();
        let sels: Vec<f64> = groups
            .counts([passed, labelled])
            .into_iter()
            .map(|[pos, tot]| SelectivityEstimate::from_sample(pos as u64, tot as u64).mean())
            .collect();
        ColumnScore {
            column: column.to_owned(),
            estimated_cost: plan_cost(&sizes, &sels, spec),
            distinct_values: groups.num_groups(),
        }
    }

    /// Ranks `candidates` and holds every score, distinct count and the
    /// order bit-equal to the oracle's on the same labelled sample.
    fn assert_ranking_matches_partitions(
        table: &Table,
        label: &str,
        candidates: &[String],
        invoker: &UdfInvoker<'_>,
        label_fraction: f64,
        seed: u64,
    ) {
        let ctx = ExecContext::sequential();
        let spec = QuerySpec::paper_default();
        let mut rng = Prng::seeded(seed);
        let (scores, labelled) = rank_columns(
            table,
            candidates,
            invoker,
            &spec,
            label_fraction,
            &mut rng,
            &ctx,
        )
        .unwrap();
        let truth = crate::execute::truth_vector(table, label);
        let n = table.num_rows();
        let sample = RowSet::from_ids(n, labelled.iter().copied());
        let passed = RowSet::from_ids(n, labelled.iter().copied().filter(|&r| truth[r as usize]));
        let mut oracle: Vec<ColumnScore> = scores
            .iter()
            .map(|s| score_by_partition(table, &s.column, &spec, &sample, &passed, &ctx))
            .collect();
        oracle.sort_by(|a, b| {
            a.estimated_cost
                .total_cmp(&b.estimated_cost)
                .then(a.column.cmp(&b.column))
        });
        let bits = |scores: &[ColumnScore]| {
            scores
                .iter()
                .map(|s| {
                    (
                        s.column.clone(),
                        s.estimated_cost.to_bits(),
                        s.distinct_values,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&scores), bits(&oracle), "seed {seed}");
    }

    #[test]
    fn code_tallies_rank_as_partitions_did() {
        for (seed, spec) in (31..).zip(all_specs()) {
            let ds = Dataset::generate(
                DatasetSpec {
                    rows: 6_000,
                    ..spec
                },
                seed,
            );
            let table = &ds.table;
            let candidates = ds.candidate_columns();
            let udf = OracleUdf::new(LABEL_COLUMN);
            let rank = |invoker: &UdfInvoker<'_>| {
                assert_ranking_matches_partitions(
                    table,
                    LABEL_COLUMN,
                    &candidates,
                    invoker,
                    0.01,
                    seed,
                )
            };
            // Cold: nothing decided, nothing derived.
            rank(&UdfInvoker::new(&udf, table));
            // Warm: every other word of the table decided (the sample is
            // drawn among the rest), then all of it — no row is left to
            // label, so every candidate is scored on the prior alone.
            let ctx = ExecContext::sequential();
            let invoker = UdfInvoker::new(&udf, table);
            let n = table.num_rows();
            let mut half = RowSet::new(n);
            for word in (0..n.div_ceil(64)).step_by(2) {
                half.insert_word(word, RowSet::full(n).word(word));
            }
            invoker.evaluate_plane(ctx.executor, &half);
            rank(&invoker);
            invoker.evaluate_plane(ctx.executor, &RowSet::full(n));
            rank(&invoker);
        }
    }

    #[test]
    fn code_tallies_rank_a_column_holding_a_null_as_partitions_did() {
        let schema = Schema::new(vec![
            Field::nullable("cat", DataType::Str),
            Field::new("level", DataType::Str),
            Field::new("n", DataType::Int),
            Field::new("label", DataType::Bool),
        ]);
        let rows = (0..600)
            .map(|i: i64| {
                let cat = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("c{}", i % 3))
                };
                vec![
                    cat,
                    Value::Str(format!("l{}", i * 7 % 4)),
                    Value::Int(i % 3),
                    Value::Bool(i % 3 == 0 || i % 7 == 0 || i % 5 == 0),
                ]
            })
            .collect();
        let table = Table::from_rows(schema, rows).unwrap();
        let candidates = ["cat", "level", "n"].map(String::from);
        let udf = OracleUdf::new("label");
        for seed in 1..=4 {
            let invoker = UdfInvoker::new(&udf, &table);
            assert_ranking_matches_partitions(&table, "label", &candidates, &invoker, 0.05, seed);
        }
        let (scores, _) = rank_columns(
            &table,
            &candidates,
            &UdfInvoker::new(&udf, &table),
            &QuerySpec::paper_default(),
            0.05,
            &mut Prng::seeded(1),
            &ExecContext::sequential(),
        )
        .unwrap();
        let cat = scores.iter().find(|s| s.column == "cat").unwrap();
        assert_eq!(cat.distinct_values, 4, "NULL is a group of its own");
    }

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
