//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * greedy fast path vs always-exact LP inside `solve_robust`;
//! * independence vs worst-case correlation model in the convex program;
//! * the three sampling rules at equal total budget.
//!
//! ```text
//! cargo bench --bench ablation_bench            # full run
//! cargo bench --bench ablation_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Results land in `BENCH_ablation.json`; each scenario's first listed
//! variant is the baseline the others' `speedup_vs_baseline` refers to.

use expred_bench::{report::measure_ns_per_unit, BenchReport};
use expred_core::optimize::{solve_estimated, CorrelationModel, EstimatedGroup};
use expred_core::pipeline::{run_intel_sample, IntelSampleConfig, PredictorChoice};
use expred_core::query::QuerySpec;
use expred_core::sampling::SampleSizeRule;
use expred_exec::ExecContext;
use expred_solver::bigreedy::GreedyProblem;
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, DatasetSpec, LENDING_CLUB};
use std::hint::black_box;

fn greedy_instance(k: usize) -> GreedyProblem {
    let mut rng = Prng::seeded(11);
    let sizes: Vec<f64> = (0..k).map(|_| 100.0 + rng.f64() * 1000.0).collect();
    let sels: Vec<f64> = (0..k).map(|_| 0.05 + 0.9 * rng.f64()).collect();
    let recall_mass: f64 = sizes.iter().zip(&sels).map(|(t, s)| t * s).sum();
    GreedyProblem::from_group_stats(&sizes, &sels, 0.8, 1.0, 3.0, 0.8 * recall_mass, 10.0)
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = BenchReport::new("ablation");
    println!(
        "ablation_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    // Greedy fast path vs always-exact LP.
    let sizes: &[usize] = if smoke { &[8, 64] } else { &[8, 64, 256] };
    let reps = if smoke { 5 } else { 20 };
    for &k in sizes {
        let p = greedy_instance(k);
        let scenario = format!("solve_robust_{k}");
        let greedy_ns = measure_ns_per_unit(k as u64, reps, || {
            let _ = black_box(p.solve_robust(false));
        });
        let exact_ns = measure_ns_per_unit(k as u64, reps, || {
            let _ = black_box(p.solve_robust(true));
        });
        report.record(&scenario, "greedy_first", greedy_ns, 1.0);
        report.record(&scenario, "always_exact", exact_ns, greedy_ns / exact_ns);
        println!(
            "{scenario:<26} greedy_first {greedy_ns:>10.0} ns/group | always_exact \
             {exact_ns:>10.0} ns/group"
        );
    }

    // Correlation model cost inside the convex program.
    let groups: Vec<EstimatedGroup> = (0..10)
        .map(|i| {
            let s = 0.1 + 0.08 * i as f64;
            EstimatedGroup {
                size: 5_000.0,
                sampled: 250.0,
                sampled_positive: (250.0 * s).round(),
                sel: s,
                var: s * (1.0 - s) / 253.0,
            }
        })
        .collect();
    let spec = QuerySpec::paper_default();
    let model_reps = if smoke { 10 } else { 30 };
    let mut baseline_ns = 0.0;
    for (name, corr) in [
        ("independent", CorrelationModel::Independent),
        ("unknown", CorrelationModel::Unknown),
    ] {
        let ns = measure_ns_per_unit(groups.len() as u64, model_reps, || {
            black_box(solve_estimated(&groups, &spec, corr).unwrap());
        });
        if name == "independent" {
            baseline_ns = ns;
            report.record("correlation_model", name, ns, 1.0);
        } else {
            report.record("correlation_model", name, ns, baseline_ns / ns);
        }
        println!("correlation_model/{name:<12} {ns:>10.0} ns/group");
    }

    // Sampling rules at equal-ish total budget (5% of the table).
    let rows = if smoke { 3_000 } else { 10_000 };
    let ds = Dataset::generate(
        DatasetSpec {
            rows,
            ..LENDING_CLUB
        },
        4,
    );
    let rules = [
        ("fraction_5pct", SampleSizeRule::Fraction(0.05)),
        ("constant_71", SampleSizeRule::Constant(71)),
        ("two_third_power", SampleSizeRule::TwoThirdPower(1.08)),
    ];
    let rule_reps = if smoke { 1 } else { 5 };
    let mut baseline_ns = 0.0;
    for (i, (name, rule)) in rules.into_iter().enumerate() {
        let cfg = IntelSampleConfig {
            spec: QuerySpec::paper_default(),
            rule,
            corr: CorrelationModel::Independent,
            predictor: PredictorChoice::Fixed("grade".into()),
        };
        let mut seed = 0u64;
        let ns = measure_ns_per_unit(rows as u64, rule_reps, || {
            seed += 1;
            let ctx = ExecContext::sequential();
            black_box(run_intel_sample(&ds, &cfg, seed, &ctx).expect("\"grade\" exists"));
        });
        if i == 0 {
            baseline_ns = ns;
            report.record("sampling_rule_pipeline", name, ns, 1.0);
        } else {
            report.record("sampling_rule_pipeline", name, ns, baseline_ns / ns);
        }
        println!("sampling_rule_pipeline/{name:<16} {ns:>8.1} ns/row");
    }

    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
