//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [--quick] [--iters N] [--seed S] [--markdown] <which>...
//! ```
//!
//! `<which>` is any of: `table2 table3 fig1a fig1b fig1c fig2a fig2b fig2c
//! fig3a fig3b fig3c columns timing search all`. Run with `--quick` for
//! reduced iteration counts. Output is plain text (or markdown with
//! `--markdown`). `search` is §4.3's sample-size search against fixed
//! sample fractions, on 2 000- and 20 000-row tables.

use expred_bench::experiments;
use expred_bench::harness::{HarnessConfig, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = HarnessConfig::full();
    let mut which: Vec<String> = Vec::new();
    let mut markdown = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = HarnessConfig::quick(),
            "--markdown" => markdown = true,
            "--iters" => {
                i += 1;
                cfg.iterations = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--iters needs a number"));
                cfg.rho_iterations = cfg.rho_iterations.min(cfg.iterations * 4);
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            other => which.push(other.to_owned()),
        }
        i += 1;
    }
    if which.is_empty() {
        usage("no experiment named");
    }
    if which.iter().any(|w| w == "all") {
        which = vec![
            "table2", "table3", "fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c", "fig3a",
            "fig3b", "fig3c", "columns", "timing", "search",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }

    eprintln!(
        "# config: iterations={} rho_iterations={} seed={}",
        cfg.iterations, cfg.rho_iterations, cfg.seed
    );
    for name in which {
        let started = std::time::Instant::now();
        let (title, table): (&str, TextTable) = match name.as_str() {
            "table2" => (
                "Table 2: selectivities and savings",
                experiments::table2(&cfg),
            ),
            "table3" => (
                "Table 3: group statistics (paper vs ours)",
                experiments::table3(&cfg),
            ),
            "fig1a" => (
                "Figure 1(a): evaluations, Naive / Intel-Sample / Optimal",
                experiments::fig1a(&cfg),
            ),
            "fig1b" => (
                "Figure 1(b): evaluations, Learning / Multiple / Intel-Sample",
                experiments::fig1b(&cfg),
            ),
            "fig1c" => (
                "Figure 1(c): evaluations vs num (logistic virtual column)",
                experiments::fig1c(&cfg),
            ),
            "fig2a" => (
                "Figure 2(a): precision-constraint satisfaction vs rho",
                experiments::fig2ab(&cfg, false),
            ),
            "fig2b" => (
                "Figure 2(b): recall-constraint satisfaction vs rho",
                experiments::fig2ab(&cfg, true),
            ),
            "fig2c" => (
                "Figure 2(c): evaluations vs alpha (LC, beta = 0.8)",
                experiments::fig2c(&cfg),
            ),
            "fig3a" => (
                "Figure 3(a): evaluations vs c (Constant sampling)",
                experiments::fig3a(&cfg),
            ),
            "fig3b" => (
                "Figure 3(b): evaluations vs num (Two-Third-Power sampling)",
                experiments::fig3b(&cfg),
            ),
            "fig3c" => (
                "Figure 3(c): retrievals vs beta (LC, alpha = 0.8)",
                experiments::fig3c(&cfg),
            ),
            "columns" => (
                "Section 6.2.1: per-column robustness sweep (LC)",
                experiments::columns(&cfg),
            ),
            "timing" => (
                "Section 6.2: optimizer compute time",
                experiments::timing(&cfg),
            ),
            "search" => (
                "Section 4.3: evaluations (precision/recall rates, %), search vs fixed fractions",
                experiments::search(&cfg),
            ),
            other => usage(&format!("unknown experiment {other}")),
        };
        println!("\n== {title} ==");
        if markdown {
            print!("{}", table.render_markdown());
        } else {
            print!("{}", table.render());
        }
        eprintln!("# {name} done in {:.1}s", started.elapsed().as_secs_f64());
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: experiments [--quick] [--iters N] [--seed S] [--markdown] \
         <table2|table3|fig1a|fig1b|fig1c|fig2a|fig2b|fig2c|fig3a|fig3b|fig3c|columns|timing|search|all>..."
    );
    std::process::exit(2);
}
