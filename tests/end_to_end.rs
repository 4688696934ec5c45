//! Cross-crate integration tests: the full pipelines over the synthetic
//! datasets, exercised through the `expred` facade exactly as a downstream
//! user would.

use expred::core::optimize::CorrelationModel;
use expred::core::{
    run_intel_sample, run_naive, run_optimal, IntelSampleConfig, PredictorChoice, QuerySpec,
    SampleSizeRule,
};
use expred::exec::ExecContext;
use expred::table::datasets::{Dataset, DatasetSpec, LENDING_CLUB, PROSPER};

/// Shrunken clones keep the suite quick while preserving group structure.
fn small(spec: DatasetSpec, rows: usize, seed: u64) -> Dataset {
    Dataset::generate(DatasetSpec { rows, ..spec }, seed)
}

#[test]
fn cost_ordering_optimal_intel_naive() {
    let ctx = ExecContext::sequential();
    let ds = small(LENDING_CLUB, 10_000, 1);
    let spec = QuerySpec::paper_default();
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    let optimal = run_optimal(&ds, &spec, "grade", 11, &ctx).unwrap();
    let intel = run_intel_sample(&ds, &cfg, 11, &ctx).unwrap();
    let naive = run_naive(&ds, &spec, 11, &ctx).unwrap();
    assert!(
        optimal.counts.evaluated <= intel.counts.evaluated,
        "optimal {} > intel {}",
        optimal.counts.evaluated,
        intel.counts.evaluated
    );
    assert!(
        intel.counts.evaluated < naive.counts.evaluated,
        "intel {} >= naive {}",
        intel.counts.evaluated,
        naive.counts.evaluated
    );
}

#[test]
fn constraint_satisfaction_rate_tracks_rho() {
    // The paper's Figure 2 guarantee: over repeated runs, both constraints
    // hold at least rho of the time (checked with slack for Monte-Carlo
    // noise at 24 runs).
    let ds = small(PROSPER, 8_000, 2);
    let spec = QuerySpec::paper_default(); // rho = 0.8
    let cfg = IntelSampleConfig {
        spec,
        rule: SampleSizeRule::Fraction(0.05),
        corr: CorrelationModel::Independent,
        predictor: PredictorChoice::Fixed("grade".into()),
    };
    let runs = 24;
    let mut precision_ok = 0;
    let mut recall_ok = 0;
    for seed in 0..runs {
        let out = run_intel_sample(&ds, &cfg, 1_000 + seed, &ExecContext::sequential()).unwrap();
        if out.summary.precision >= spec.alpha {
            precision_ok += 1;
        }
        if out.summary.recall >= spec.beta {
            recall_ok += 1;
        }
    }
    assert!(
        precision_ok >= 19,
        "precision met only {precision_ok}/{runs} times (need >= rho-ish)"
    );
    assert!(
        recall_ok >= 19,
        "recall met only {recall_ok}/{runs} times (need >= rho-ish)"
    );
}

#[test]
fn sampling_cost_is_part_of_the_bill() {
    // An Intel-Sample run's evaluation count must include its sample: with
    // a 20% sampling rule the evaluations can never drop below 20% of the
    // table (minus reuse).
    let ds = small(PROSPER, 5_000, 3);
    let cfg = IntelSampleConfig {
        spec: QuerySpec::paper_default(),
        rule: SampleSizeRule::Fraction(0.2),
        corr: CorrelationModel::Independent,
        predictor: PredictorChoice::Fixed("grade".into()),
    };
    let out = run_intel_sample(&ds, &cfg, 4, &ExecContext::sequential()).unwrap();
    assert!(
        out.counts.evaluated >= (0.19 * 5_000.0) as u64,
        "sampling evaluations missing from the bill: {}",
        out.counts.evaluated
    );
}

#[test]
fn unknown_correlation_model_is_more_conservative() {
    let ctx = ExecContext::sequential();
    let ds = small(LENDING_CLUB, 10_000, 5);
    let spec = QuerySpec::paper_default();
    let mk = |corr| IntelSampleConfig {
        spec,
        rule: SampleSizeRule::Fraction(0.05),
        corr,
        predictor: PredictorChoice::Fixed("grade".into()),
    };
    // Average over a few seeds: the worst-case-correlation program must
    // spend at least as much as the independence program.
    let mut ind = 0u64;
    let mut unk = 0u64;
    for seed in 0..5 {
        ind += run_intel_sample(&ds, &mk(CorrelationModel::Independent), 50 + seed, &ctx)
            .unwrap()
            .counts
            .evaluated;
        unk += run_intel_sample(&ds, &mk(CorrelationModel::Unknown), 50 + seed, &ctx)
            .unwrap()
            .counts
            .evaluated;
    }
    assert!(
        unk as f64 >= 0.95 * ind as f64,
        "unknown-correlations ({unk}) should not beat independent ({ind})"
    );
}

#[test]
fn browsing_scenario_returns_only_evaluated_tuples() {
    // alpha = 1: every returned tuple must have been evaluated (no blind
    // returns), so precision is exactly 1.
    let ds = small(PROSPER, 5_000, 6);
    let cfg = IntelSampleConfig {
        spec: QuerySpec::browsing(0.7, 0.8, expred::udf::CostModel::PAPER_DEFAULT),
        rule: SampleSizeRule::Fraction(0.05),
        corr: CorrelationModel::Independent,
        predictor: PredictorChoice::Fixed("grade".into()),
    };
    let out = run_intel_sample(&ds, &cfg, 7, &ExecContext::sequential()).unwrap();
    assert_eq!(out.summary.precision, 1.0, "browsing mode must be exact");
    assert!(out.summary.recall >= 0.6, "recall {}", out.summary.recall);
}

#[test]
fn facade_reexports_compose() {
    // Spot-check that the facade exposes the full toolchain.
    let estimate = expred::stats::SelectivityEstimate::from_sample(3, 10);
    assert_eq!(estimate.mean(), 4.0 / 12.0);
    let plan = expred::core::Plan::evaluate_all(2);
    assert_eq!(plan.num_groups(), 2);
    let model = expred::udf::CostModel::PAPER_DEFAULT;
    assert_eq!(model.total(1, 1), 4.0);
}
