//! Probabilistic plan execution (paper §3.2, "Execution").
//!
//! Given a plan `(R_a, E_a)` and a grouping, each tuple of group `a` is
//! retrieved with probability `R_a` independently; a retrieved tuple is
//! evaluated with conditional probability `E_a / R_a` (so the
//! unconditional evaluation probability is exactly `E_a`). Evaluated
//! tuples enter the answer iff the UDF passes; retrieved-but-unevaluated
//! tuples enter unconditionally.
//!
//! Tuples that were already evaluated during sampling bypass the plan:
//! positives join the answer for free, negatives are dropped — §4.2's
//! "those that are correct … can be simply returned as part of the query
//! result without re-evaluating them".
//!
//! # Runs and planes
//!
//! On a warm session that bypass is all an execution does, so it runs a
//! 64-row word at a time, and each word once. One word-major pass over
//! the grouping ([`UdfInvoker::scan_groups`]) answers "which rows are
//! decided, and which passed?" as two planes, loading and settling each
//! word the groups touch once however many groups share it. The passing
//! rows join the answer — a [`RowSet`] plane over the table — with one OR
//! per word. The groups then take their `(word, mask)` runs
//! ([`GroupBy::runs`]) in group order, and only the undecided bits of a
//! run, `mask & !decided`, are visited singly, in ascending order, to
//! draw their retrieve/evaluate decisions. The rows to evaluate gather
//! in one more plane, which [`UdfInvoker::evaluate_plane`] evaluates and
//! answers as a plane of those that passed. The answer is never sorted:
//! groups partition the rows, every path sets bits, and the ascending id
//! list is the plane read out once.

use crate::error::EngineError;
use crate::plan::Plan;
use expred_exec::ExecContext;
use expred_stats::rng::Prng;
use expred_table::rowset::bits;
use expred_table::{Column, GroupBy, RowSet, Table};
use expred_udf::UdfInvoker;

/// The rows a query execution returned (cost lives in the invoker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionResult {
    /// Row ids in the answer, ascending.
    pub returned: Vec<u32>,
    /// How many answer rows came from reused sampled positives.
    pub reused_positives: usize,
}

/// Executes `plan` over `groups` under an execution context, charging
/// all retrievals/evaluations to `invoker` and reusing its memoized
/// sample answers. Cross-query caching is the invoker's concern — build
/// it with [`UdfInvoker::with_context`] and already-known rows (from
/// sampling or from earlier queries in the session) bypass the plan for
/// free.
///
/// The random decisions (retrieve? evaluate?) are drawn on the calling
/// thread in group order — exactly the stream the sequential executor
/// consumes — into a plane of the rows to evaluate, and only then do
/// those rows go to `ctx.executor`, as one batch in ascending row order;
/// their answers reach the store and the spill sink as the pages they
/// fill. How that batch is chunked and overlapped is the executor's
/// decision alone, and answers and bills do not depend on its order. The
/// result is therefore byte-identical across backends for a fixed seed;
/// only wall-clock time changes.
///
/// Errors with [`EngineError::InvalidRequest`] if the plan and the
/// grouping disagree on the number of groups.
pub fn execute_plan(
    plan: &Plan,
    groups: &GroupBy,
    invoker: &UdfInvoker<'_>,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> Result<ExecutionResult, EngineError> {
    let mut answer = RowSet::new(invoker.table().num_rows());
    let reused_positives = execute_plan_into(plan, groups, invoker, rng, ctx, &mut answer)?;
    Ok(ExecutionResult {
        returned: answer.to_vec(),
        reused_positives,
    })
}

/// [`execute_plan`] adding its answer rows to `answer` — a plane over
/// the invoker's *table*, which `groups` need not cover (the iterative
/// pipeline executes a slice of every group per round into one plane).
/// Returns how many of them were reused positives.
///
/// One word-major pass ([`UdfInvoker::scan_groups`]) reads what every
/// group has decided, and the decided rows that passed join the plane
/// with one OR per word. Then each group walks its `(word, mask)` runs in
/// group order and draws for its undecided rows, `mask & !decided`, in
/// bit order — ascending row order, the order the group's row list has,
/// so the random stream is the one a row-at-a-time walk draws.
pub(crate) fn execute_plan_into(
    plan: &Plan,
    groups: &GroupBy,
    invoker: &UdfInvoker<'_>,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
    answer: &mut RowSet,
) -> Result<usize, EngineError> {
    if plan.num_groups() != groups.num_groups() {
        return Err(EngineError::InvalidRequest {
            reason: format!(
                "a plan over {} groups cannot execute a grouping of {}",
                plan.num_groups(),
                groups.num_groups()
            ),
        });
    }
    // Sampled tuples are already decided: what every group knows, in one
    // word-major pass, and the passing ones join the answer whole.
    let (decided, passed) = invoker.scan_groups(groups);
    answer.union_with(&passed);
    let reused_positives = passed.len();
    let mut queued = RowSet::new(invoker.table().num_rows());
    let mut retrieved = 0u64;
    for g in 0..groups.num_groups() {
        let r = plan.r()[g];
        let e = plan.e()[g];
        let eval_given_retrieved = if r > 0.0 { (e / r).min(1.0) } else { 0.0 };
        if r <= 0.0 {
            continue;
        }
        for (word, mask) in groups.runs(g) {
            let word = word as usize;
            for bit in bits(mask & !decided.word(word)) {
                if !rng.bernoulli(r) {
                    continue;
                }
                retrieved += 1;
                if eval_given_retrieved > 0.0 && rng.bernoulli(eval_given_retrieved) {
                    queued.insert_word(word, 1 << bit);
                } else {
                    answer.insert_word(word, 1 << bit);
                }
            }
        }
    }
    invoker.charge_retrievals(retrieved);
    // Every queued row is fresh (the scan above skipped the decided ones)
    // and distinct (groups partition rows), so the audited plane charges
    // exactly one evaluation per row — the same bill the serial loop
    // paid. Through the invoker, never the raw probe: the invoker is what
    // memoizes the answers and charges the tracker.
    answer.union_with(&invoker.evaluate_plane(ctx.executor, &queued));
    Ok(reused_positives)
}

/// Reads the ground truth for evaluation purposes (never available to
/// the planning code) as the set of correct rows, in one pass over the
/// label column.
///
/// # Panics
///
/// If `label_column` is missing, not boolean, or holds NULLs — which
/// [`crate::strategy::Strategy::validate`] rejects as a typed error
/// before a request runs, so only harness code that skips validation can
/// get here with such a table.
pub fn truth_set(table: &Table, label_column: &str) -> RowSet {
    table
        .column(label_column)
        .and_then(Column::true_rows)
        .unwrap_or_else(|| bad_label_column(label_column))
}

/// The panic of [`truth_set`], for the session path that reads the same
/// plane through the table's memo.
pub(crate) fn bad_label_column(label_column: &str) -> ! {
    panic!("label column {label_column:?} must be a boolean column without NULLs")
}

/// [`truth_set`] as one `bool` per row, for harness code that indexes
/// rows.
pub fn truth_vector(table: &Table, label_column: &str) -> Vec<bool> {
    let truth = truth_set(table, label_column);
    (0..table.num_rows())
        .map(|row| truth.contains(row))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_exec::{BatchProbe, CacheStore, Executor, Sequential};
    use expred_table::{DataType, Field, Schema, Table, Value};
    use expred_udf::{CostModel, OracleUdf};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// The row-at-a-time execution [`execute_plan`] replaced — probe
    /// every row of every group, push answer rows as they are decided,
    /// sort at the end — kept as the oracle the run-and-plane version
    /// must match action for action.
    fn execute_plan_push_and_sort(
        plan: &Plan,
        groups: &GroupBy,
        invoker: &UdfInvoker<'_>,
        rng: &mut Prng,
        ctx: &ExecContext<'_>,
    ) -> ExecutionResult {
        let mut queued = Vec::new();
        let mut returned = Vec::new();
        let mut reused_positives = 0;
        for g in 0..groups.num_groups() {
            let rows: Vec<u32> = groups.rows(g).collect();
            let r = plan.r()[g];
            let e = plan.e()[g];
            let eval_given_retrieved = if r > 0.0 { (e / r).min(1.0) } else { 0.0 };
            let known = invoker.known_many(rows.iter().map(|&row| row as usize));
            let mut retrieved = 0u64;
            for (&row, known) in rows.iter().zip(known) {
                if let Some(answer) = known {
                    if answer {
                        returned.push(row);
                        reused_positives += 1;
                    }
                    continue;
                }
                if r <= 0.0 || !rng.bernoulli(r) {
                    continue;
                }
                retrieved += 1;
                if eval_given_retrieved > 0.0 && rng.bernoulli(eval_given_retrieved) {
                    queued.push(row as usize);
                } else {
                    returned.push(row);
                }
            }
            invoker.charge_retrievals(retrieved);
        }
        let answers = invoker.evaluate_batch(ctx.executor, &queued);
        returned.extend(
            queued
                .iter()
                .zip(answers)
                .filter_map(|(&row, answer)| answer.then_some(row as u32)),
        );
        returned.sort_unstable();
        ExecutionResult {
            returned,
            reused_positives,
        }
    }

    fn test_table(labels: &[bool], groups: &[i64]) -> Table {
        assert_eq!(labels.len(), groups.len());
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("label", DataType::Bool),
        ]);
        let rows = groups
            .iter()
            .zip(labels)
            .map(|(&g, &l)| vec![Value::Int(g), Value::Bool(l)])
            .collect();
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn deterministic_plan_execution() {
        let ctx = ExecContext::sequential();
        // Group 0: return all; group 1: evaluate all; group 2: discard.
        let labels = [true, false, true, false, true, false];
        let table = test_table(&labels, &[0, 0, 1, 1, 2, 2]);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let plan = Plan::new(vec![1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0]);
        let mut rng = Prng::seeded(1);
        let result = execute_plan(&plan, &groups, &invoker, &mut rng, &ctx).unwrap();
        // Group 0 returned unevaluated (rows 0,1); group 1 evaluated, only
        // row 2 passes; group 2 dropped.
        assert_eq!(result.returned, vec![0, 1, 2]);
        let counts = invoker.counts();
        assert_eq!(counts.retrieved, 4);
        assert_eq!(counts.evaluated, 2);
        assert_eq!(counts.cost(&CostModel::PAPER_DEFAULT), 4.0 + 6.0);
    }

    #[test]
    fn memoized_positives_are_free_and_returned() {
        let ctx = ExecContext::sequential();
        let labels = [true, false, true];
        let table = test_table(&labels, &[0, 0, 0]);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        // Pre-sample rows 0 and 1.
        invoker.retrieve_and_evaluate(0);
        invoker.retrieve_and_evaluate(1);
        let before = invoker.counts();
        let groups = table.group_by("g").unwrap();
        // Plan discards the group entirely; sampled positive still returns.
        let plan = Plan::discard_all(1);
        let mut rng = Prng::seeded(2);
        let result = execute_plan(&plan, &groups, &invoker, &mut rng, &ctx).unwrap();
        assert_eq!(result.returned, vec![0]);
        assert_eq!(result.reused_positives, 1);
        assert_eq!(invoker.counts(), before, "no new cost for reuse");
    }

    #[test]
    fn fractional_plan_rates_track_probabilities() {
        let ctx = ExecContext::sequential();
        let n = 10_000;
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let group_ids = vec![0i64; n];
        let table = test_table(&labels, &group_ids);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let plan = Plan::new(vec![0.6], vec![0.3]);
        let mut rng = Prng::seeded(3);
        let _ = execute_plan(&plan, &groups, &invoker, &mut rng, &ctx).unwrap();
        let counts = invoker.counts();
        let retrieved_rate = counts.retrieved as f64 / n as f64;
        let evaluated_rate = counts.evaluated as f64 / n as f64;
        assert!((retrieved_rate - 0.6).abs() < 0.03, "{retrieved_rate}");
        assert!((evaluated_rate - 0.3).abs() < 0.03, "{evaluated_rate}");
    }

    #[test]
    fn evaluated_tuples_filter_failures() {
        let ctx = ExecContext::sequential();
        let n = 2_000;
        let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect(); // sel 0.25
        let table = test_table(&labels, &vec![0i64; n]);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        // Evaluate everything: answer must be exactly the true set.
        let plan = Plan::evaluate_all(1);
        let mut rng = Prng::seeded(4);
        let result = execute_plan(&plan, &groups, &invoker, &mut rng, &ctx).unwrap();
        let truth = truth_vector(&table, "label");
        assert!(result.returned.iter().all(|&r| truth[r as usize]));
        assert_eq!(result.returned.len(), n / 4);
    }

    /// Records every batch an executor is handed, answering through
    /// [`Sequential`].
    #[derive(Default)]
    struct Recorder(Mutex<Vec<Vec<usize>>>);

    impl Executor for Recorder {
        fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
            self.0.lock().unwrap().push(rows.to_vec());
            Sequential.evaluate_batch(probe, rows)
        }
    }

    #[test]
    fn the_queue_reaches_the_executor_as_one_batch_in_ascending_order() {
        let n = 12_000;
        let labels: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let group_ids: Vec<i64> = (0..n as i64).map(|i| i % 4).collect();
        let table = test_table(&labels, &group_ids);
        let udf = OracleUdf::new("label");
        let groups = table.group_by("g").unwrap();
        // E = R: every retrieved row is evaluated, ≈ 10 800 queued rows.
        let plan = Plan::new(vec![0.9; 4], vec![0.9; 4]);
        let run = |ctx: ExecContext<'_>| {
            let invoker = UdfInvoker::new(&udf, &table);
            let mut rng = Prng::seeded(17);
            let result = execute_plan(&plan, &groups, &invoker, &mut rng, &ctx).unwrap();
            (result, invoker.counts())
        };
        let recorder = Recorder::default();
        let recorded = run(ExecContext::new(&recorder));
        assert_eq!(recorded, run(ExecContext::sequential()));

        let batches = recorder.0.into_inner().unwrap();
        assert_eq!(batches.len(), 1, "one stage, one batch");
        let batch = &batches[0];
        assert_eq!(batch.len() as u64, recorded.1.evaluated);
        assert!(batch.len() > 10_000, "{} rows queued", batch.len());
        // Ascending row order — the queue is a plane read out — though
        // the groups interleave, so group order would differ. Strictly
        // ascending, so every row is distinct too.
        assert!(batch.windows(2).all(|w| w[0] < w[1]));
        assert!(batch.windows(2).any(|w| group_ids[w[0]] > group_ids[w[1]]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn runs_and_planes_match_push_and_sort(
            sizes in prop::collection::vec(1usize..120, 1..7),
            bits in any::<u64>(),
            seed in any::<u64>(),
            earlier in prop::collection::vec(0usize..600, 0..200),
            own in prop::collection::vec(0usize..600, 0..40),
            rates in prop::collection::vec((0u32..5, 0u32..5), 7),
            keep_one_in in 1usize..4,
        ) {
            // Group g's rows are those ≡ g (mod k) while it has rows
            // left: groups interleave, so none aligns with bitmap words.
            let k = sizes.len();
            let mut left = sizes.clone();
            let mut group_ids = Vec::new();
            while left.iter().any(|&n| n > 0) {
                for (g, n) in left.iter_mut().enumerate() {
                    if *n > 0 {
                        *n -= 1;
                        group_ids.push(g as i64);
                    }
                }
            }
            let n = group_ids.len();
            let labels: Vec<bool> =
                (0..n).map(|row| (bits >> (row % 64)) & 1 == 1 || row % 5 == 0).collect();
            let table = test_table(&labels, &group_ids);
            let udf = OracleUdf::new("label");
            // The whole table's grouping, or — as the iterative pipeline
            // executes — a slice of every group: fewer rows than the table.
            let whole = table.group_by("g").unwrap();
            let slices: Vec<Vec<u32>> = (0..k)
                .map(|g| whole.rows(g).take(whole.size(g).div_ceil(keep_one_in)).collect())
                .collect();
            let sliced: usize = slices.iter().map(Vec::len).sum();
            let keys = (0..k).map(|g| whole.key(g).clone()).collect();
            let groups = GroupBy::new("g#slice".into(), keys, slices, sliced);
            // Rates on a grid that includes the deterministic ends.
            let r: Vec<f64> = rates[..k].iter().map(|&(r, _)| f64::from(r) / 4.0).collect();
            let e: Vec<f64> =
                rates[..k].iter().zip(&r).map(|(&(_, e), r)| r * f64::from(e) / 4.0).collect();
            let plan = Plan::new(r, e);

            let run = |planes: bool| {
                let store = CacheStore::new();
                let recorder = Recorder::default();
                let ctx = ExecContext::new(&recorder).with_cache(&store);
                let before = UdfInvoker::with_context(&udf, &table, &ctx);
                for &row in &earlier {
                    before.evaluate(row % n);
                }
                let invoker = UdfInvoker::with_context(&udf, &table, &ctx);
                for &row in &own {
                    invoker.retrieve_and_evaluate(row % n);
                }
                let mut rng = Prng::seeded(seed);
                let result = if planes {
                    execute_plan(&plan, &groups, &invoker, &mut rng, &ctx).unwrap()
                } else {
                    execute_plan_push_and_sort(&plan, &groups, &invoker, &mut rng, &ctx)
                };
                // The executor's batch as a set: the plane sends it in
                // ascending order, the row-at-a-time walk in group order.
                let mut batches = recorder.0.into_inner().unwrap();
                batches.iter_mut().for_each(|batch| batch.sort_unstable());
                (result, invoker.counts(), store.stats(), batches, rng.next_u64())
            };
            let (got, want) = (run(true), run(false));
            prop_assert_eq!(&got.0, &want.0);
            prop_assert_eq!(got.1, want.1, "the bills differ");
            prop_assert_eq!(got.2, want.2, "the store saw different probes");
            prop_assert_eq!(&got.3, &want.3, "the executor saw different batches");
            prop_assert!(got.3.len() <= 1, "one stage, at most one batch");
            prop_assert_eq!(got.4, want.4, "the RNG moved differently");
            prop_assert!(got.0.returned.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn truth_vector_reads_labels() {
        let labels = [true, false, true];
        let table = test_table(&labels, &[0, 1, 2]);
        assert_eq!(truth_vector(&table, "label"), vec![true, false, true]);
    }

    #[test]
    fn plan_group_mismatch_is_a_typed_error() {
        let ctx = ExecContext::sequential();
        let table = test_table(&[true], &[0]);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let plan = Plan::discard_all(2);
        let mut rng = Prng::seeded(5);
        let err = execute_plan(&plan, &groups, &invoker, &mut rng, &ctx)
            .expect_err("two plan groups cannot execute one group");
        assert!(
            matches!(&err, EngineError::InvalidRequest { reason } if reason.contains("2 groups")),
            "{err}"
        );
        assert_eq!(invoker.counts(), Default::default(), "nothing was charged");
    }
}
