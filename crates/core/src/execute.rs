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
//! 64-row word at a time, and each word once. What the query has decided
//! is its [`Ledger`]'s: the plane of the rows it holds an answer for and
//! the plane of those that passed, read when the ledger opened and grown
//! by every row the query evaluated since, so execution reads no
//! grouping. The passing rows join the answer — a [`RowSet`] plane over
//! the table — with one OR per word, and the decided rows leave the
//! window with one AND-NOT per word. The groups then take their `(word,
//! mask)` runs ([`GroupBy::runs`]) in group order, and only the bits of a
//! run left in the window, `mask & window`, are visited singly, in
//! ascending order, to draw their retrieve/evaluate decisions. The rows to evaluate gather in one more
//! plane, which [`UdfInvoker::evaluate_plane`] evaluates and answers as a
//! plane of those that passed; both join the ledger. That is the one
//! read of the live memo and session store, and only for rows the plan
//! already chose: a row another query landed meanwhile is answered as a
//! reuse, never evaluated twice, and never changes what is drawn. The
//! answer is never sorted: groups partition the rows, every path sets
//! bits, and the ascending id list is the plane read out once.
//!
//! [`GroupBy::runs`]: expred_table::GroupBy::runs
//! [`UdfInvoker::evaluate_plane`]: expred_udf::UdfInvoker::evaluate_plane

use crate::error::EngineError;
use crate::plan::Plan;
use crate::sampling::Ledger;
use expred_exec::ExecContext;
use expred_stats::rng::Prng;
use expred_table::rowset::bits;
use expred_table::{Column, RowSet, Table};

/// Executes `plan` over the rows of `ledger`'s grouping in `window`, a
/// plane over the table — a §4.2 round's rank window
/// ([`GroupBy::window`]) or every row ([`GroupBy::row_plane`]) — under
/// an execution context, adding its answer rows to `answer`, a plane
/// over the table. Every row the ledger holds as passed joins the answer
/// for free, in the window or not, and every row it holds as failed is
/// dropped: the rows sampling, earlier rounds or earlier queries of the
/// session decided (§4.2). All retrievals and evaluations are charged to
/// the ledger's invoker, and the rows evaluated join the ledger, so a
/// later round re-plans on them.
///
/// The window loses the decided rows first, one AND-NOT per word, so
/// each group walks its `(word, mask)` runs in group order and draws for
/// the open rows of each, `mask & window`, in bit order — ascending row
/// order, the order the group's row list has, so the random stream is
/// the one a row-at-a-time walk draws. The random decisions (retrieve?
/// evaluate?) are thus drawn on the calling thread, into a plane of the
/// rows to evaluate, and only then do those rows go to `ctx.executor`,
/// as one batch in ascending row order; their answers reach the store
/// and the spill sink as the pages they fill. How that batch is chunked
/// and overlapped is the executor's decision alone, and answers and
/// bills do not depend on its order. The result is therefore
/// byte-identical across backends for a fixed seed; only wall-clock time
/// changes.
///
/// Errors with [`EngineError::InvalidRequest`] if the plan and the
/// grouping disagree on the number of groups.
///
/// [`GroupBy::window`]: expred_table::GroupBy::window
/// [`GroupBy::row_plane`]: expred_table::GroupBy::row_plane
pub fn execute_plan(
    plan: &Plan,
    ledger: &mut Ledger<'_>,
    mut window: RowSet,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
    answer: &mut RowSet,
) -> Result<(), EngineError> {
    let (groups, invoker) = (ledger.groups(), ledger.invoker());
    if plan.num_groups() != groups.num_groups() {
        return Err(EngineError::InvalidRequest {
            reason: format!(
                "a plan over {} groups cannot execute a grouping of {}",
                plan.num_groups(),
                groups.num_groups()
            ),
        });
    }
    // Decided rows need no plan: the passing ones join the answer whole.
    answer.union_with(ledger.passed());
    window.difference_with(ledger.decided());
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
            for bit in bits(mask & window.word(word)) {
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
    // Every queued row is undecided and distinct (groups partition
    // rows), so the audited plane charges at most one evaluation per row
    // — the same bill the serial loop paid — and a row the store already
    // holds, one reuse. Through the invoker, never the raw probe: the
    // invoker is what memoizes the answers and charges the tracker.
    let passed = invoker.evaluate_plane(ctx.executor, &queued);
    answer.union_with(&passed);
    ledger.add(&queued, &passed);
    Ok(())
}

/// The label column's ground truth as one `bool` per row, for harness
/// code that indexes rows: its true-row plane ([`Column::true_rows`]),
/// read out. Never available to the planning code.
///
/// # Panics
///
/// If `label_column` is missing, not boolean, or holds NULLs.
pub fn truth_vector(table: &Table, label_column: &str) -> Vec<bool> {
    let truth = table
        .column(label_column)
        .and_then(Column::true_rows)
        .unwrap_or_else(|| {
            panic!("label column {label_column:?} must be a boolean column without NULLs")
        });
    (0..table.num_rows())
        .map(|row| truth.contains(row))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_exec::{BatchProbe, CacheStore, Executor, Sequential};
    use expred_table::{DataType, Field, GroupBy, Schema, Table, Value};
    use expred_udf::{CostModel, OracleUdf, UdfInvoker};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// What an execution leaves, as ascending id lists: the answer, the
    /// rows it evaluated and those of them that passed.
    type Lists = (Vec<u32>, Vec<u32>, Vec<u32>);

    /// [`execute_plan`] on a ledger opened over `groups`, into an empty
    /// answer plane, read out as lists: the answer and what the
    /// execution added to the ledger.
    fn execute(
        plan: &Plan,
        groups: &GroupBy,
        window: RowSet,
        invoker: &UdfInvoker<'_>,
        rng: &mut Prng,
        ctx: &ExecContext<'_>,
    ) -> Result<Lists, EngineError> {
        let mut ledger = Ledger::open(groups, invoker);
        let (decided, passed) = (ledger.decided().clone(), ledger.passed().clone());
        let mut answer = RowSet::new(invoker.table().num_rows());
        execute_plan(plan, &mut ledger, window, rng, ctx, &mut answer)?;
        let added = |now: &RowSet, before: &RowSet| {
            let mut added = now.clone();
            added.difference_with(before);
            added.to_vec()
        };
        Ok((
            answer.to_vec(),
            added(ledger.decided(), &decided),
            added(ledger.passed(), &passed),
        ))
    }

    /// The row-at-a-time execution [`execute_plan`] replaced — read what
    /// every row of every group knows, return the known positives, then
    /// probe the first `take[g]` rows of each group `g`, push answer rows
    /// as they are decided, sort at the end — kept as the oracle the
    /// run-and-plane version must match action for action.
    fn execute_plan_push_and_sort(
        plan: &Plan,
        groups: &GroupBy,
        take: &[usize],
        invoker: &UdfInvoker<'_>,
        rng: &mut Prng,
        ctx: &ExecContext<'_>,
    ) -> Lists {
        let k = groups.num_groups();
        let rows: Vec<Vec<u32>> = (0..k).map(|g| groups.rows(g).collect()).collect();
        let known: Vec<Vec<Option<bool>>> = rows
            .iter()
            .map(|rows| invoker.known_many(rows.iter().map(|&row| row as usize)))
            .collect();
        let mut queued = Vec::new();
        let mut returned: Vec<u32> = rows
            .iter()
            .flatten()
            .zip(known.iter().flatten())
            .filter_map(|(&row, &known)| (known == Some(true)).then_some(row))
            .collect();
        for g in 0..k {
            let r = plan.r()[g];
            let e = plan.e()[g];
            let eval_given_retrieved = if r > 0.0 { (e / r).min(1.0) } else { 0.0 };
            let mut retrieved = 0u64;
            for (&row, known) in rows[g].iter().zip(&known[g]).take(take[g]) {
                if known.is_some() || r <= 0.0 || !rng.bernoulli(r) {
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
        let mut passed: Vec<u32> = queued
            .iter()
            .zip(answers)
            .filter_map(|(&row, answer)| answer.then_some(row as u32))
            .collect();
        returned.extend(&passed);
        returned.sort_unstable();
        passed.sort_unstable();
        let mut evaluated: Vec<u32> = queued.iter().map(|&row| row as u32).collect();
        evaluated.sort_unstable();
        (returned, evaluated, passed)
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
        let (returned, evaluated, passed) =
            execute(&plan, &groups, groups.row_plane(), &invoker, &mut rng, &ctx).unwrap();
        // Group 0 returned unevaluated (rows 0,1); group 1 evaluated, only
        // row 2 passes; group 2 dropped.
        assert_eq!(returned, vec![0, 1, 2]);
        assert_eq!((evaluated, passed), (vec![2, 3], vec![2]));
        let counts = invoker.counts();
        assert_eq!(counts.retrieved, 4);
        assert_eq!(counts.evaluated, 2);
        assert_eq!(counts.cost(&CostModel::PAPER_DEFAULT), 4.0 + 6.0);
    }

    #[test]
    fn already_sampled_positives_are_free_and_returned() {
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
        let (returned, evaluated, _) =
            execute(&plan, &groups, groups.row_plane(), &invoker, &mut rng, &ctx).unwrap();
        assert_eq!(returned, vec![0]);
        assert!(evaluated.is_empty(), "a reused row is no new evidence");
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
        let (_, evaluated, _) =
            execute(&plan, &groups, groups.row_plane(), &invoker, &mut rng, &ctx).unwrap();
        let counts = invoker.counts();
        assert_eq!(evaluated.len() as u64, counts.evaluated);
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
        let (returned, _, passed) =
            execute(&plan, &groups, groups.row_plane(), &invoker, &mut rng, &ctx).unwrap();
        let truth = truth_vector(&table, "label");
        assert!(returned.iter().all(|&r| truth[r as usize]));
        assert_eq!(returned.len(), n / 4);
        assert_eq!(passed, returned, "every answer row was evaluated");
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
            let result =
                execute(&plan, &groups, groups.row_plane(), &invoker, &mut rng, &ctx).unwrap();
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
            // The whole table's grouping, or — as Intel-Sample's rounds
            // execute — a window of every group: fewer rows than the
            // table.
            let groups = table.group_by("g").unwrap();
            let take: Vec<usize> =
                (0..k).map(|g| groups.size(g).div_ceil(keep_one_in)).collect();
            let ranks: Vec<_> = take.iter().map(|&take| 0..take).collect();
            let window = groups.window(&ranks);
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
                    execute(&plan, &groups, window.clone(), &invoker, &mut rng, &ctx).unwrap()
                } else {
                    execute_plan_push_and_sort(&plan, &groups, &take, &invoker, &mut rng, &ctx)
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
            let (returned, _, _) = &got.0;
            prop_assert!(returned.windows(2).all(|w| w[0] < w[1]));
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
        let err = execute(&plan, &groups, groups.row_plane(), &invoker, &mut rng, &ctx)
            .expect_err("two plan groups cannot execute one group");
        assert!(
            matches!(&err, EngineError::InvalidRequest { reason } if reason.contains("2 groups")),
            "{err}"
        );
        assert_eq!(invoker.counts(), Default::default(), "nothing was charged");
    }
}
