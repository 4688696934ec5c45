//! One function per table/figure of the paper's evaluation (§6).
//!
//! Each function returns a [`TextTable`] whose rows mirror the series the
//! paper plots; the `experiments` binary renders them by name (its
//! module docs list the subcommands). Defaults follow §6.1:
//! `α = β = ρ = 0.8`, `o_r = 1`, `o_e = 3`, 5% sampling for Experiment 1.

use crate::baselines::{run_learning, run_multiple};
use crate::harness::{fmt, paper_datasets, run_many, summarize, HarnessConfig, TextTable};
use expred_core::pipeline::{
    run_intel_sample, run_naive, run_optimal, IntelSampleConfig, PredictorChoice,
};
use expred_core::query::QuerySpec;
use expred_core::sampling::{SampleSizeRule, Sampling};
use expred_exec::ExecContext;
use expred_table::datasets::Dataset;
use expred_udf::CostModel;

fn fixed(ds: &Dataset) -> PredictorChoice {
    PredictorChoice::Fixed(ds.predictor().to_owned())
}

/// Table 2: selectivity and savings (vs Naive, vs the best ML baseline)
/// per dataset.
pub fn table2(cfg: &HarnessConfig) -> TextTable {
    let ctx = ExecContext::sequential();
    let datasets = paper_datasets(cfg.seed);
    let mut t = TextTable::new(vec![
        "Dataset",
        "Selectivity",
        "Savings vs. Naive",
        "Savings vs. ML",
    ]);
    for ds in &datasets {
        let spec = QuerySpec::paper_default();
        let intel_cfg = IntelSampleConfig::experiment1(PredictorChoice::Auto {
            label_fraction: 0.01,
        });
        let intel = summarize(
            &run_many(cfg.iterations, cfg.seed, |s| {
                run_intel_sample(ds, &intel_cfg, s, &ctx)
            }),
            spec.alpha,
            spec.beta,
        );
        let naive = summarize(
            &run_many(cfg.iterations, cfg.seed, |s| run_naive(ds, &spec, s, &ctx)),
            spec.alpha,
            spec.beta,
        );
        // The ML comparison uses the stronger (cheaper) of the two
        // baselines, as the paper's Table 2 reports a single ML column.
        let ml_iters = cfg.iterations.clamp(1, 5);
        let learning = summarize(
            &run_many(ml_iters, cfg.seed, |s| run_learning(ds, &spec, s, &ctx)),
            spec.alpha,
            spec.beta,
        );
        let multiple = summarize(
            &run_many(ml_iters, cfg.seed, |s| run_multiple(ds, &spec, 5, s, &ctx)),
            spec.alpha,
            spec.beta,
        );
        let ml_eval = learning.evaluated.min(multiple.evaluated);
        let stats = ds.group_stats(ds.predictor());
        let vs_naive = 100.0 * (1.0 - intel.evaluated / naive.evaluated);
        let vs_ml = 100.0 * (1.0 - intel.evaluated / ml_eval);
        t.push_row(vec![
            ds.spec.name.to_owned(),
            fmt(stats.overall_selectivity, 2),
            format!("{}%", fmt(vs_naive, 0)),
            format!("{}%", fmt(vs_ml, 0)),
        ]);
    }
    t
}

/// Table 3: group statistics per dataset (achieved by the synthetic
/// clones) next to the paper's published values.
pub fn table3(cfg: &HarnessConfig) -> TextTable {
    let datasets = paper_datasets(cfg.seed);
    let mut t = TextTable::new(vec![
        "Dataset",
        "Num. Groups",
        "Size Dev. (paper)",
        "Size Dev. (ours)",
        "Sel. Dev. (paper)",
        "Sel. Dev. (ours)",
        "Corr. (paper)",
        "Corr. (ours)",
    ]);
    for ds in &datasets {
        let stats = ds.group_stats(ds.predictor());
        t.push_row(vec![
            ds.spec.name.to_owned(),
            stats.num_groups.to_string(),
            fmt(ds.spec.size_dev, 0),
            fmt(stats.size_dev, 0),
            fmt(ds.spec.sel_dev, 2),
            fmt(stats.sel_dev, 2),
            fmt(ds.spec.size_sel_corr, 2),
            fmt(stats.size_sel_corr, 2),
        ]);
    }
    t
}

/// Figure 1(a): evaluations for Naive vs Intel-Sample vs Optimal.
pub fn fig1a(cfg: &HarnessConfig) -> TextTable {
    let ctx = ExecContext::sequential();
    let datasets = paper_datasets(cfg.seed);
    let spec = QuerySpec::paper_default();
    let mut t = TextTable::new(vec!["Dataset", "Naive", "Intel-Sample", "Optimal"]);
    for ds in &datasets {
        let intel_cfg = IntelSampleConfig::experiment1(fixed(ds));
        let naive = summarize(
            &run_many(cfg.iterations, cfg.seed, |s| run_naive(ds, &spec, s, &ctx)),
            spec.alpha,
            spec.beta,
        );
        let intel = summarize(
            &run_many(cfg.iterations, cfg.seed, |s| {
                run_intel_sample(ds, &intel_cfg, s, &ctx)
            }),
            spec.alpha,
            spec.beta,
        );
        let optimal = summarize(
            &run_many(cfg.iterations, cfg.seed, |s| {
                run_optimal(ds, &spec, ds.predictor(), s, &ctx)
            }),
            spec.alpha,
            spec.beta,
        );
        t.push_row(vec![
            ds.spec.name.to_owned(),
            fmt(naive.evaluated, 0),
            fmt(intel.evaluated, 0),
            fmt(optimal.evaluated, 0),
        ]);
    }
    t
}

/// Figure 1(b): evaluations for the ML baselines vs Intel-Sample.
pub fn fig1b(cfg: &HarnessConfig) -> TextTable {
    let ctx = ExecContext::sequential();
    let datasets = paper_datasets(cfg.seed);
    let spec = QuerySpec::paper_default();
    let mut t = TextTable::new(vec!["Dataset", "Learning", "Multiple", "Intel-Sample"]);
    let ml_iters = cfg.iterations.clamp(1, 8);
    for ds in &datasets {
        let intel_cfg = IntelSampleConfig::experiment1(fixed(ds));
        let learning = summarize(
            &run_many(ml_iters, cfg.seed, |s| run_learning(ds, &spec, s, &ctx)),
            spec.alpha,
            spec.beta,
        );
        let multiple = summarize(
            &run_many(ml_iters, cfg.seed, |s| run_multiple(ds, &spec, 5, s, &ctx)),
            spec.alpha,
            spec.beta,
        );
        let intel = summarize(
            &run_many(cfg.iterations, cfg.seed, |s| {
                run_intel_sample(ds, &intel_cfg, s, &ctx)
            }),
            spec.alpha,
            spec.beta,
        );
        t.push_row(vec![
            ds.spec.name.to_owned(),
            fmt(learning.evaluated, 0),
            fmt(multiple.evaluated, 0),
            fmt(intel.evaluated, 0),
        ]);
    }
    t
}

/// Figure 1(c): evaluations vs the Two-Third-Power parameter `num`, with
/// the **logistic-regression virtual column** as the predictor.
pub fn fig1c(cfg: &HarnessConfig) -> TextTable {
    let ctx = ExecContext::sequential();
    let datasets = paper_datasets(cfg.seed);
    let spec = QuerySpec::paper_default();
    let nums = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 11.0, 14.0];
    let mut t = TextTable::new(vec!["num", "lc", "prosper", "census", "marketing"]);
    for &num in &nums {
        let mut row = vec![fmt(num, 1)];
        for ds in &datasets {
            let intel_cfg = IntelSampleConfig {
                spec,
                sampling: Sampling::Rule(SampleSizeRule::TwoThirdPower(num)),
                ..IntelSampleConfig::experiment1(PredictorChoice::Virtual {
                    buckets: 10,
                    label_fraction: 0.01,
                })
            };
            let stats = summarize(
                &run_many(cfg.iterations, cfg.seed, |s| {
                    run_intel_sample(ds, &intel_cfg, s, &ctx)
                }),
                spec.alpha,
                spec.beta,
            );
            row.push(fmt(stats.evaluated, 0));
        }
        // Reorder row cells to header order (datasets generate in the
        // Table-2 order lc, prosper, census, marketing already).
        t.push_row(row);
    }
    t
}

/// Figures 2(a)/2(b): fraction of runs satisfying the precision (resp.
/// recall) constraint, as ρ sweeps — every value must sit above `x = y`.
pub fn fig2ab(cfg: &HarnessConfig, recall_side: bool) -> TextTable {
    let ctx = ExecContext::sequential();
    let datasets = paper_datasets(cfg.seed);
    let rhos = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95];
    let mut t = TextTable::new(vec!["rho", "lc", "prosper", "census", "marketing"]);
    for &rho in &rhos {
        let mut row = vec![fmt(rho, 2)];
        for ds in &datasets {
            let spec = QuerySpec::new(0.8, 0.8, rho, CostModel::PAPER_DEFAULT);
            let intel_cfg = IntelSampleConfig {
                spec,
                ..IntelSampleConfig::experiment1(fixed(ds))
            };
            let stats = summarize(
                &run_many(cfg.rho_iterations, cfg.seed, |s| {
                    run_intel_sample(ds, &intel_cfg, s, &ctx)
                }),
                spec.alpha,
                spec.beta,
            );
            let frac = if recall_side {
                stats.recall_ok
            } else {
                stats.precision_ok
            };
            row.push(fmt(frac, 2));
        }
        t.push_row(row);
    }
    t
}

/// Figure 2(c): evaluations vs the precision bound α (β = 0.8) on LC with
/// the Grade predictor, for `num/α ∈ {2.5, 3.5, 4.5}`.
pub fn fig2c(cfg: &HarnessConfig) -> TextTable {
    let ctx = ExecContext::sequential();
    let ds = &paper_datasets(cfg.seed)[0]; // lc
    let alphas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let ratios = [2.5, 3.5, 4.5];
    let mut t = TextTable::new(vec![
        "alpha",
        "num/alpha 2.5",
        "num/alpha 3.5",
        "num/alpha 4.5",
    ]);
    for &alpha in &alphas {
        let mut row = vec![fmt(alpha, 1)];
        for &ratio in &ratios {
            let spec = QuerySpec::new(alpha, 0.8, 0.8, CostModel::PAPER_DEFAULT);
            let intel_cfg = IntelSampleConfig {
                spec,
                sampling: Sampling::Rule(SampleSizeRule::TwoThirdPower(ratio * alpha)),
                ..IntelSampleConfig::experiment1(fixed(ds))
            };
            let stats = summarize(
                &run_many(cfg.iterations, cfg.seed, |s| {
                    run_intel_sample(ds, &intel_cfg, s, &ctx)
                }),
                spec.alpha,
                spec.beta,
            );
            row.push(fmt(stats.evaluated, 0));
        }
        t.push_row(row);
    }
    t
}

/// Figure 3(a): evaluations vs the per-group sample count `c` of the
/// Constant scheme (fixed predictors; U-shaped curves).
pub fn fig3a(cfg: &HarnessConfig) -> TextTable {
    sweep_sampling(cfg, true)
}

/// Figure 3(b): evaluations vs `num` of the Two-Third-Power scheme
/// (fixed predictors; optimum near `num ∈ [2α, 5α]`).
pub fn fig3b(cfg: &HarnessConfig) -> TextTable {
    sweep_sampling(cfg, false)
}

fn sweep_sampling(cfg: &HarnessConfig, constant: bool) -> TextTable {
    let ctx = ExecContext::sequential();
    let datasets = paper_datasets(cfg.seed);
    let spec = QuerySpec::paper_default();
    let mut t = TextTable::new(vec![
        if constant { "c" } else { "num" },
        "lc",
        "prosper",
        "census",
        "marketing",
    ]);
    let constants = [
        25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2000.0, 3500.0, 5000.0,
    ];
    let nums = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 13.0, 16.0];
    let params: &[f64] = if constant { &constants } else { &nums };
    for &p in params {
        let mut row = vec![fmt(p, if constant { 0 } else { 1 })];
        for ds in &datasets {
            let rule = if constant {
                SampleSizeRule::Constant(p as usize)
            } else {
                SampleSizeRule::TwoThirdPower(p)
            };
            let intel_cfg = IntelSampleConfig {
                spec,
                sampling: Sampling::Rule(rule),
                ..IntelSampleConfig::experiment1(fixed(ds))
            };
            let stats = summarize(
                &run_many(cfg.iterations, cfg.seed, |s| {
                    run_intel_sample(ds, &intel_cfg, s, &ctx)
                }),
                spec.alpha,
                spec.beta,
            );
            row.push(fmt(stats.evaluated, 0));
        }
        t.push_row(row);
    }
    t
}

/// Figure 3(c): retrievals vs the recall bound β (α = 0.8) on LC, for
/// `num ∈ {2.5, 3.5, 4.5}`.
pub fn fig3c(cfg: &HarnessConfig) -> TextTable {
    let ctx = ExecContext::sequential();
    let ds = &paper_datasets(cfg.seed)[0]; // lc
    let betas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let nums = [2.5, 3.5, 4.5];
    let mut t = TextTable::new(vec!["beta", "num 2.5", "num 3.5", "num 4.5"]);
    for &beta in &betas {
        let mut row = vec![fmt(beta, 1)];
        for &num in &nums {
            let spec = QuerySpec::new(0.8, beta, 0.8, CostModel::PAPER_DEFAULT);
            let intel_cfg = IntelSampleConfig {
                spec,
                sampling: Sampling::Rule(SampleSizeRule::TwoThirdPower(num)),
                ..IntelSampleConfig::experiment1(fixed(ds))
            };
            let stats = summarize(
                &run_many(cfg.iterations, cfg.seed, |s| {
                    run_intel_sample(ds, &intel_cfg, s, &ctx)
                }),
                spec.alpha,
                spec.beta,
            );
            row.push(fmt(stats.retrieved, 0));
        }
        t.push_row(row);
    }
    t
}

/// §6.2.1's column-robustness sweep: Intel-Sample's evaluations when
/// *every* candidate column is forced as the predictor, against the Naive
/// ceiling.
pub fn columns(cfg: &HarnessConfig) -> TextTable {
    let ctx = ExecContext::sequential();
    let ds = &paper_datasets(cfg.seed)[0]; // lc
    let spec = QuerySpec::paper_default();
    let naive = summarize(
        &run_many(cfg.iterations, cfg.seed, |s| run_naive(ds, &spec, s, &ctx)),
        spec.alpha,
        spec.beta,
    );
    let mut rows: Vec<(String, f64)> = Vec::new();
    for col in ds.candidate_columns() {
        let intel_cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed(col.clone()));
        let stats = summarize(
            &run_many(cfg.iterations, cfg.seed, |s| {
                run_intel_sample(ds, &intel_cfg, s, &ctx)
            }),
            spec.alpha,
            spec.beta,
        );
        rows.push((col, stats.evaluated));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut t = TextTable::new(vec!["Predictor column", "Evaluations"]);
    for (col, eval) in rows {
        t.push_row(vec![col, fmt(eval, 0)]);
    }
    t.push_row(vec!["(naive ceiling)".to_owned(), fmt(naive.evaluated, 0)]);
    t
}

/// §6.2's runtime claim: Intel-Sample's non-UDF compute time per dataset
/// (the paper reports "less than a second").
pub fn timing(cfg: &HarnessConfig) -> TextTable {
    let ctx = ExecContext::sequential();
    let datasets = paper_datasets(cfg.seed);
    let spec = QuerySpec::paper_default();
    let mut t = TextTable::new(vec!["Dataset", "Compute seconds (mean)"]);
    for ds in &datasets {
        let intel_cfg = IntelSampleConfig::experiment1(PredictorChoice::Auto {
            label_fraction: 0.01,
        });
        let stats = summarize(
            &run_many(cfg.iterations.clamp(1, 5), cfg.seed, |s| {
                run_intel_sample(ds, &intel_cfg, s, &ctx)
            }),
            spec.alpha,
            spec.beta,
        );
        t.push_row(vec![ds.spec.name.to_owned(), fmt(stats.compute_seconds, 3)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            iterations: 2,
            rho_iterations: 2,
            seed: 42,
        }
    }

    #[test]
    fn table3_has_four_rows() {
        let t = table3(&tiny());
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.cell(0, 0), "lc");
        assert_eq!(t.cell(3, 0), "marketing");
    }

    #[test]
    fn fig1a_orders_naive_above_optimal() {
        let t = fig1a(&tiny());
        assert_eq!(t.num_rows(), 4);
        for r in 0..4 {
            let naive: f64 = t.cell(r, 1).parse().unwrap();
            let intel: f64 = t.cell(r, 2).parse().unwrap();
            let optimal: f64 = t.cell(r, 3).parse().unwrap();
            assert!(naive > intel, "row {r}: naive {naive} vs intel {intel}");
            assert!(
                intel >= optimal * 0.9,
                "row {r}: intel {intel} vs optimal {optimal}"
            );
        }
    }
}
