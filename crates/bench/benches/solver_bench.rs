//! Solver micro-benchmarks: the exact plan-LP solve across group counts,
//! and the estimated-selectivity convex program behind the paper's "less
//! than a second on each of the datasets" (§6.2).
//!
//! ```text
//! cargo bench --bench solver_bench            # full run
//! cargo bench --bench solver_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Results land in `BENCH_solver.json`. `structured_lp_<k>` times one
//! `GreedyProblem::solve` over `k` groups and records ns per group
//! (`ns_per_group`), so slow growth across `k` is the `O(k log k)` per
//! dual step, times about `log₂ k` steps, made visible.
//! `convex_optimizer_<dataset>` times one whole `solve_estimated` on group
//! statistics shaped like each paper dataset (7–10 groups) and records ns
//! per solve (`ns_per_solve`).

use expred_bench::{report::measure_ns_per_unit, BenchReport};
use expred_core::optimize::{solve_estimated, CorrelationModel, EstimatedGroup};
use expred_core::query::QuerySpec;
use expred_solver::bigreedy::GreedyProblem;
use expred_stats::rng::Prng;
use expred_table::datasets::{all_specs, Dataset};
use std::hint::black_box;

/// A reproducible structured instance with `k` groups.
fn instance(k: usize, seed: u64) -> GreedyProblem {
    let mut rng = Prng::seeded(seed);
    let sizes: Vec<f64> = (0..k).map(|_| 50.0 + rng.f64() * 2000.0).collect();
    let sels: Vec<f64> = (0..k).map(|_| 0.05 + 0.9 * rng.f64()).collect();
    let alpha = 0.8;
    let recall_mass: f64 = sizes.iter().zip(&sels).map(|(t, s)| t * s).sum();
    let prec_cap: f64 = sizes
        .iter()
        .zip(&sels)
        .map(|(t, s)| (t * (s - alpha)).max(0.0))
        .sum();
    GreedyProblem::from_group_stats(
        &sizes,
        &sels,
        alpha,
        1.0,
        3.0,
        0.8 * recall_mass,
        0.5 * prec_cap,
    )
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = BenchReport::new("solver");
    println!(
        "solver_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let sizes: &[usize] = if smoke {
        &[16, 256, 4096]
    } else {
        &[16, 64, 256, 1024, 4096, 16384]
    };
    let reps = if smoke { 5 } else { 20 };
    for &k in sizes {
        let problem = instance(k, 42);
        let scenario = format!("structured_lp_{k}");
        let ns = measure_ns_per_unit(k as u64, reps, || {
            let _ = black_box(problem.solve());
        });
        report.record(&scenario, "exact", "ns_per_group", "ns", ns, 1.0);
        println!("{scenario:<26} exact  {ns:>10.1} ns/group");
    }

    // The convex optimizer alone, on group statistics shaped like each
    // paper dataset (7–10 groups, 30k–53k tuples).
    let spec = QuerySpec::paper_default();
    for ds_spec in all_specs() {
        let ds = Dataset::generate(ds_spec, 1);
        let stats = ds.group_stats(ds.predictor());
        let groups: Vec<EstimatedGroup> = stats
            .per_group
            .iter()
            .map(|&(t, s)| {
                let f = (t as f64 * 0.05).round();
                EstimatedGroup {
                    size: t as f64,
                    sampled: f,
                    sampled_positive: (f * s).round(),
                    sel: s,
                    var: s * (1.0 - s) / (f + 3.0),
                }
            })
            .collect();
        let scenario = format!("convex_optimizer_{}", ds_spec.name);
        let ns = measure_ns_per_unit(1, if smoke { 5 } else { 50 }, || {
            black_box(solve_estimated(&groups, &spec, CorrelationModel::Independent).unwrap());
        });
        report.record(&scenario, "solver", "ns_per_solve", "ns", ns, 1.0);
        println!(
            "{scenario:<26} solver {ns:>10.0} ns/solve ({} groups)",
            groups.len()
        );
    }

    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
