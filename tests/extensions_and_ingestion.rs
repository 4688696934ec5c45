//! Integration tests for the §5 extensions and the CSV ingestion path.

use expred::core::extensions::{
    maximize_recall_under_budget, solve_multi_predicate, MultiCost, PredicatePairGroup,
};
use expred::core::{
    run_intel_sample, IntelSampleConfig, PredictorChoice, QuerySpec, SampleSizeRule, Sampling,
};
use expred::exec::ExecContext;
use expred::table::csv::{read_csv, write_csv};
use expred::table::datasets::{Dataset, DatasetSpec, PROSPER};
use expred::udf::CostModel;

#[test]
fn budget_recall_curve_is_monotone() {
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 6_000,
            ..PROSPER
        },
        8,
    );
    let stats = ds.group_stats("grade");
    let sizes: Vec<f64> = stats.per_group.iter().map(|&(t, _)| t as f64).collect();
    let sels: Vec<f64> = stats.per_group.iter().map(|&(_, s)| s).collect();
    let mut prev = -1.0;
    for budget in [500.0, 2_000.0, 8_000.0, 20_000.0] {
        let out =
            maximize_recall_under_budget(&sizes, &sels, 0.8, 0.8, CostModel::PAPER_DEFAULT, budget)
                .expect("affordable");
        assert!(
            out.achieved_beta + 1e-9 >= prev,
            "recall curve must be nondecreasing in budget"
        );
        prev = out.achieved_beta;
    }
    assert!(
        prev > 0.3,
        "a 20k budget should buy real recall, got {prev}"
    );
}

#[test]
fn multi_predicate_cheaper_than_eval_both_everywhere() {
    let groups = vec![
        PredicatePairGroup {
            size: 2_000.0,
            s1: 0.9,
            s2: 0.9,
        },
        PredicatePairGroup {
            size: 2_000.0,
            s1: 0.4,
            s2: 0.5,
        },
    ];
    let cost = MultiCost {
        retrieve: 1.0,
        eval1: 3.0,
        eval2: 3.0,
    };
    let plan = solve_multi_predicate(&groups, 0.8, 0.8, &cost).expect("feasible");
    let naive: f64 = groups
        .iter()
        .map(|g| g.size * (cost.retrieve + cost.eval1 + g.s1 * cost.eval2))
        .sum();
    assert!(
        plan.expected_cost < naive,
        "joint plan {} should undercut naive {}",
        plan.expected_cost,
        naive
    );
}

#[test]
fn csv_round_trip_preserves_pipeline_behaviour() {
    let ctx = ExecContext::sequential();
    // Export a dataset to CSV, re-ingest it, and run the same seeded
    // pipeline on both: the costs and answers must agree exactly.
    let ds = Dataset::generate(
        DatasetSpec {
            rows: 3_000,
            ..PROSPER
        },
        9,
    );
    let mut buf = Vec::new();
    write_csv(&ds.table, &mut buf).expect("serialize");
    let round_tripped = read_csv(std::io::Cursor::new(buf)).expect("parse");
    assert_eq!(round_tripped.num_rows(), ds.table.num_rows());

    let ds2 = Dataset {
        table: round_tripped,
        spec: ds.spec,
        seed: ds.seed,
    };
    let cfg = IntelSampleConfig {
        spec: QuerySpec::paper_default(),
        sampling: Sampling::Rule(SampleSizeRule::Fraction(0.1)),
        ..IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()))
    };
    let a = run_intel_sample(&ds, &cfg, 77, &ctx).unwrap();
    let b = run_intel_sample(&ds2, &cfg, 77, &ctx).unwrap();
    assert_eq!(a.counts, b.counts, "ingested data must behave identically");
    assert_eq!(a.returned, b.returned);
}
