//! The paper's machine-learning baselines, `Learning` and `Multiple`
//! (§6.2).
//!
//! Both evaluate a labelled seed, fit a semi-supervised classifier, and
//! answer with evaluated-true ∪ predicted-true tuples. Per the paper, they
//! receive an *unfair advantage*: "we choose the smallest number of tuples
//! to evaluate that lets us satisfy the precision and recall constraints"
//! — i.e. the training size is tuned against ground truth, and only the
//! winning configuration's cost is charged.
//!
//! Labelling runs through the audited [`expred_udf::UdfInvoker`] and the
//! `expred-exec` runtime (not a serial ground-truth loop): each grid step
//! labels only its *new* slice of the shuffled permutation as one
//! executor batch, so the cumulative bill at the winning step is exactly
//! that step's labelling cost — and inside a session, labels paid for by
//! earlier queries arrive as free reuse hits. No deployment has the
//! ground truth, so the baselines are not engine strategies; they still
//! run in core's one frame, [`run_framed`], which bills and scores every
//! pipeline.

use crate::semisupervised::{
    learning_returned_set, multiple_imputations, self_train, SelfTrainConfig, SelfTrainOutcome,
};
use expred_core::error::EngineError;
use expred_core::metrics::PrSummary;
use expred_core::ml::features::extract_features;
use expred_core::ml::logistic::TrainConfig;
use expred_core::pipeline::{run_framed, Answer, Frame, RunOutcome};
use expred_core::query::QuerySpec;
use expred_exec::ExecContext;
use expred_table::datasets::{Dataset, LABEL_COLUMN};
use expred_table::RowSet;

/// Training-set sizes to probe, as fractions of the table. The grid is
/// geometric-ish: the baselines' cost is the *smallest* feasible size, so
/// resolution matters more at the low end.
const SIZE_GRID: [f64; 12] = [
    0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.27, 0.40, 0.60, 0.80, 1.0,
];

/// Cheaper training settings for the repeated grid probes.
const TRAIN_CONFIG: SelfTrainConfig = SelfTrainConfig {
    rounds: 2,
    confidence: 0.92,
    train: TrainConfig {
        epochs: 80,
        learning_rate: 1.0,
        l2: 1e-4,
        tolerance: 1e-6,
    },
};

/// Scores a candidate answer against ground truth (the oracle-tuned
/// acceptance test).
fn score(truth: &RowSet, returned: impl IntoIterator<Item = usize>) -> PrSummary {
    let (mut num_returned, mut true_positives) = (0, 0);
    for row in returned {
        num_returned += 1;
        true_positives += usize::from(truth.contains(row));
    }
    PrSummary::from_counts(num_returned, true_positives, truth.len())
}

/// The grid both ML baselines walk: label a growing prefix of one
/// shuffled permutation (training labels are evaluated through
/// `ctx.executor`, and reused from the session cache when present),
/// self-train on it, and answer with the first size whose step `accept`s
/// — the oracle-tuned acceptance test is all the two baselines differ in.
/// `accept` sees the trained model, the labelled rows and their labels,
/// and the step's answer set (evaluated-true plus predicted-true). An
/// empty table has no seed to label and is an
/// [`EngineError::InvalidRequest`].
fn run_grid(
    ds: &Dataset,
    spec: &QuerySpec,
    seed: u64,
    ctx: &ExecContext<'_>,
    accept: impl Fn(&SelfTrainOutcome, &[usize], &[bool], &[usize], &Frame<'_>) -> bool,
) -> Result<RunOutcome, EngineError> {
    if ds.table.num_rows() == 0 {
        return Err(EngineError::InvalidRequest {
            reason: "the ML baselines need a nonempty table to label".into(),
        });
    }
    run_framed(ds, &spec.cost, seed, ctx, |f| {
        let table = &ds.table;
        let features = extract_features(table, &[LABEL_COLUMN, "row_id"], ctx.derived);
        let n = table.num_rows();
        let mut perm: Vec<usize> = (0..n).collect();
        f.rng.shuffle(&mut perm);
        let mut perm_labels = Vec::new();

        // Even full evaluation of the grid's maximum can fail (possible
        // only for extreme constraints); the last attempt is then
        // reported, flagged infeasible.
        let mut last: Option<(Vec<usize>, usize, bool)> = None;
        for frac in SIZE_GRID {
            let m = ((frac * n as f64).ceil() as usize).clamp(1, n);
            // Label the prefix's new slice through the runtime, as one batch.
            if m > perm_labels.len() {
                let new = &perm[perm_labels.len()..m];
                perm_labels.extend(f.invoker.retrieve_and_evaluate_batch(ctx.executor, new));
            }
            let (labelled, labels) = (&perm[..m], &perm_labels[..m]);
            let outcome = self_train(&features, labelled, labels, TRAIN_CONFIG);
            let returned = learning_returned_set(&outcome, labelled, labels);
            let accepted = accept(&outcome, labelled, labels, &returned, f);
            last = Some((returned, m, accepted));
            if accepted {
                break;
            }
        }
        let (returned, m, plan_feasible) = last.expect("grid is nonempty");
        // Every returned-but-unevaluated row still has to be retrieved; the
        // evaluated seed was retrieved once already (charged by the labelling
        // batches).
        let labelled: std::collections::HashSet<usize> = perm[..m].iter().copied().collect();
        let fresh_returns = returned.iter().filter(|r| !labelled.contains(r)).count();
        f.invoker.charge_retrievals(fresh_returns as u64);
        let mut answer = f.empty_answer();
        for row in returned {
            answer.insert(row);
        }
        Ok(Answer {
            returned: answer,
            num_groups: 1,
            plan_feasible,
        })
    })
}

/// The `Learning` baseline: self-training semi-supervised classification
/// with oracle-tuned minimal training size.
pub fn run_learning(
    ds: &Dataset,
    spec: &QuerySpec,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> Result<RunOutcome, EngineError> {
    run_grid(ds, spec, seed, ctx, |_, _, _, returned, f| {
        score(&f.truth, returned.iter().copied()).meets(spec.alpha, spec.beta)
    })
}

/// The `Multiple` baseline: multiple imputations from class probabilities;
/// the training size is the smallest whose constraints hold *on average
/// across the imputed datasets* (§6.2). Zero imputations is an
/// [`EngineError::InvalidRequest`].
pub fn run_multiple(
    ds: &Dataset,
    spec: &QuerySpec,
    imputations: usize,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> Result<RunOutcome, EngineError> {
    if imputations < 1 {
        return Err(EngineError::InvalidRequest {
            reason: "the Multiple baseline needs at least one imputation".into(),
        });
    }
    run_grid(ds, spec, seed, ctx, |outcome, labelled, labels, _, f| {
        // Average constraint satisfaction across imputed completions.
        let mut imp_rng = f.rng.fork(labelled.len() as u64);
        let imps = multiple_imputations(outcome, labelled, labels, imputations, &mut imp_rng);
        let (mut p_acc, mut r_acc) = (0.0, 0.0);
        for imp in &imps {
            let imputed_true = imp.iter().enumerate().filter(|(_, &label)| label);
            let s = score(&f.truth, imputed_true.map(|(row, _)| row));
            p_acc += s.precision;
            r_acc += s.recall;
        }
        p_acc / imps.len() as f64 >= spec.alpha && r_acc / imps.len() as f64 >= spec.beta
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
    use expred_udf::CostModel;

    fn small_prosper() -> Dataset {
        // A shrunken Prosper keeps baseline tests fast in debug builds.
        let spec = DatasetSpec {
            rows: 4_000,
            ..PROSPER
        };
        Dataset::generate(spec, 31)
    }

    #[test]
    fn learning_meets_constraints_and_reports_cost() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let out = run_learning(&ds, &spec, 1, &ExecContext::sequential()).unwrap();
        assert!(out.plan_feasible, "learning should find a feasible size");
        assert!(out.summary.meets(spec.alpha, spec.beta));
        assert!(out.counts.evaluated > 0);
        assert!(out.counts.evaluated < ds.table.num_rows() as u64);
    }

    #[test]
    fn multiple_meets_constraints() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let out = run_multiple(&ds, &spec, 5, 2, &ExecContext::sequential()).unwrap();
        assert!(out.plan_feasible);
        assert!(out.counts.evaluated > 0);
    }

    #[test]
    fn looser_constraints_cost_no_more() {
        let ctx = ExecContext::sequential();
        let ds = small_prosper();
        let tight = QuerySpec::paper_default();
        let loose = QuerySpec::new(0.5, 0.5, 0.8, CostModel::PAPER_DEFAULT);
        let c_tight = run_learning(&ds, &tight, 3, &ctx).unwrap().counts.evaluated;
        let c_loose = run_learning(&ds, &loose, 3, &ctx).unwrap().counts.evaluated;
        assert!(c_loose <= c_tight, "loose {c_loose} vs tight {c_tight}");
    }

    #[test]
    fn deterministic_given_seed() {
        let ctx = ExecContext::sequential();
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let a = run_learning(&ds, &spec, 7, &ctx).unwrap();
        let b = run_learning(&ds, &spec, 7, &ctx).unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.returned, b.returned);
    }
}
