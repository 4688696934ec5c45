//! §4.3's sample-size search (`Sampling::Search`) held to the paper's
//! guarantee and to the fixed sample fractions it chooses among.
//!
//! Each cell runs the search cold on `Sequential`, at the paper's
//! defaults (α = β = ρ = 0.8) with the spec's fixed predictor, over
//! [`SEEDS`] tables `Dataset::generate(.., 1_000 + s)` and query seeds
//! `50_000 + s`. It asserts that:
//! - the precision rate's and the recall rate's Wilson 95 % lower bounds
//!   are each at least ρ;
//! - the search's mean evaluations are within 5 % of the best of
//!   Intel-Sample at a fixed 2, 5, 10 and 20 % sample, on the same
//!   tables and seeds, under the same correlation model.
//!
//! The 2 000-row cells run with the suite. The 20 000-row cells are slow
//! in a debug build, so they are ignored there; run them with
//! `cargo test --release --test search_guarantee -- --ignored`.

use expred::core::optimize::CorrelationModel;
use expred::core::{
    run_intel_sample, IntelSampleConfig, PredictorChoice, SampleSizeRule, Sampling,
};
use expred::exec::ExecContext;
use expred::stats::bounds::wilson_lower;
use expred::table::datasets::{Dataset, DatasetSpec, LENDING_CLUB, PROSPER};

/// Runs per cell.
const SEEDS: u64 = 200;

/// The fixed sample fractions the search is held to.
const FRACTIONS: [f64; 4] = [0.02, 0.05, 0.10, 0.20];

/// What [`SEEDS`] runs of one configuration scored.
struct Cell {
    mean_evaluations: f64,
    precision_ok: u64,
    recall_ok: u64,
}

fn cell(tables: &[Dataset], cfg: &IntelSampleConfig) -> Cell {
    let ctx = ExecContext::sequential();
    let (mut evaluated, mut precision_ok, mut recall_ok) = (0, 0, 0);
    for (s, ds) in (0..).zip(tables) {
        let out = run_intel_sample(ds, cfg, 50_000 + s, &ctx).unwrap();
        evaluated += out.counts.evaluated;
        precision_ok += u64::from(out.summary.precision >= cfg.spec.alpha);
        recall_ok += u64::from(out.summary.recall >= cfg.spec.beta);
    }
    Cell {
        mean_evaluations: evaluated as f64 / tables.len() as f64,
        precision_ok,
        recall_ok,
    }
}

fn gate(spec: DatasetSpec, rows: usize) {
    let tables: Vec<Dataset> = (0..SEEDS)
        .map(|s| Dataset::generate(DatasetSpec { rows, ..spec }, 1_000 + s))
        .collect();
    for corr in [CorrelationModel::Independent, CorrelationModel::Unknown] {
        let config = |sampling| IntelSampleConfig {
            sampling,
            corr,
            ..IntelSampleConfig::experiment1(PredictorChoice::Fixed(spec.predictor.into()))
        };
        let what = format!("{} at {rows} rows, {corr:?}", spec.name);
        let search = cell(&tables, &config(Sampling::Search));
        let rho = config(Sampling::Search).spec.rho;
        for (constraint, ok) in [
            ("precision", search.precision_ok),
            ("recall", search.recall_ok),
        ] {
            let bound = wilson_lower(ok, SEEDS);
            assert!(
                bound >= rho,
                "{what}: {constraint} met {ok}/{SEEDS}, Wilson bound {bound:.3} < ρ {rho}"
            );
        }
        let fixed: Vec<f64> = FRACTIONS
            .iter()
            .map(|&f| {
                cell(
                    &tables,
                    &config(Sampling::Rule(SampleSizeRule::Fraction(f))),
                )
            })
            .map(|cell| cell.mean_evaluations)
            .collect();
        let best = fixed.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            search.mean_evaluations <= 1.05 * best,
            "{what}: the search evaluates {:.1} on average, the fixed fractions {FRACTIONS:?} {fixed:.1?}",
            search.mean_evaluations
        );
    }
}

#[test]
fn the_search_holds_on_prosper_at_2000_rows() {
    gate(PROSPER, 2_000);
}

#[test]
fn the_search_holds_on_lc_at_2000_rows() {
    gate(LENDING_CLUB, 2_000);
}

#[test]
#[ignore = "slow in a debug build; run with --release -- --ignored"]
fn the_search_holds_on_prosper_at_20000_rows() {
    gate(PROSPER, 20_000);
}

#[test]
#[ignore = "slow in a debug build; run with --release -- --ignored"]
fn the_search_holds_on_lc_at_20000_rows() {
    gate(LENDING_CLUB, 20_000);
}
