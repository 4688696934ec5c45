//! A miniature end-to-end application: approximate UDF selection over a
//! CSV file from the command line.
//!
//! ```text
//! cargo run --release --example csv_query -- \
//!     [path.csv] [label_column] [alpha] [beta] [rho]
//! ```
//!
//! With no arguments, the example writes the Prosper clone to a temporary
//! CSV first, then queries it — demonstrating the full ingestion path:
//! CSV → Table → predictor selection → sampling → optimization →
//! execution → audited cost report.

use expred::core::{IntelSampleConfig, PredictorChoice, QueryEngine, QueryRequest, QuerySpec};
use expred::table::csv::{read_csv, write_csv};
use expred::table::datasets::{Dataset, DatasetSpec, LABEL_COLUMN, PROSPER};
use expred::udf::CostModel;
use std::io::BufReader;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "approximate UDF selection over a CSV file\n\n\
             usage: cargo run --release --example csv_query -- \\\n\
             \x20   [path.csv label_column [alpha beta rho]]\n\n\
             With no arguments, writes the Prosper clone to a temporary CSV\n\
             first, then queries it."
        );
        return;
    }
    let (path, label, alpha, beta, rho) = match args.len() {
        0 => {
            // Self-contained demo: materialize a clone as CSV.
            let ds = Dataset::generate(
                DatasetSpec {
                    rows: 8_000,
                    ..PROSPER
                },
                7,
            );
            let path = std::env::temp_dir().join("expred_demo.csv");
            let mut file = std::fs::File::create(&path).expect("create temp csv");
            write_csv(&ds.table, &mut file).expect("write csv");
            println!("wrote demo data to {}", path.display());
            (
                path.to_string_lossy().into_owned(),
                LABEL_COLUMN.to_owned(),
                0.8,
                0.8,
                0.8,
            )
        }
        2..=5 => (
            args[0].clone(),
            args[1].clone(),
            args.get(2).map_or(0.8, |v| v.parse().expect("alpha")),
            args.get(3).map_or(0.8, |v| v.parse().expect("beta")),
            args.get(4).map_or(0.8, |v| v.parse().expect("rho")),
        ),
        _ => {
            eprintln!("usage: csv_query [path.csv label_column [alpha beta rho]]");
            std::process::exit(2);
        }
    };

    let file = std::fs::File::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let table = read_csv(BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "loaded {} rows x {} columns; schema {}",
        table.num_rows(),
        table.num_columns(),
        table.schema()
    );

    // Wrap the table as a Dataset so the pipelines can run over it. The
    // label column plays the expensive UDF (in a real deployment you would
    // implement `BooleanUdf` for your service call instead).
    let spec_template = DatasetSpec {
        rows: table.num_rows(),
        ..PROSPER
    };
    let ds = Dataset {
        table,
        spec: spec_template,
        seed: 0,
    };

    // User-supplied contract: validate fallibly instead of panicking.
    let spec = match QuerySpec::try_new(alpha, beta, rho, CostModel::PAPER_DEFAULT) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    };
    if label != LABEL_COLUMN {
        eprintln!(
            "note: this demo expects the UDF answers in a column named {LABEL_COLUMN:?}; \
             got {label:?} — rename the column or adapt the example"
        );
    }
    let cfg = IntelSampleConfig {
        spec,
        ..IntelSampleConfig::experiment1(PredictorChoice::Auto {
            label_fraction: 0.01,
        })
    };
    // Each contestant gets its own engine session: sharing one would let
    // the second query reuse rows the first already paid for and skew
    // the cost comparison.
    let submit = |req: QueryRequest| match QueryEngine::new().submit(&ds, &req.with_seed(1)) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("query failed: {err}");
            std::process::exit(1);
        }
    };
    let intel = submit(QueryRequest::intel_sample(cfg));
    let naive = submit(QueryRequest::naive(spec));

    println!("\nquery: SELECT * WHERE udf(row) = 1 (alpha={alpha}, beta={beta}, rho={rho})");
    println!(
        "intel-sample: {} rows returned | {} UDF calls | precision {:.3} recall {:.3} | cost {:.0}",
        intel.returned.len(),
        intel.counts.evaluated,
        intel.summary.precision,
        intel.summary.recall,
        intel.cost
    );
    println!(
        "naive       : {} rows returned | {} UDF calls | precision {:.3} recall {:.3} | cost {:.0}",
        naive.returned.len(),
        naive.counts.evaluated,
        naive.summary.precision,
        naive.summary.recall,
        naive.cost
    );
    println!(
        "savings     : {:.0}% of UDF calls avoided",
        100.0 * (1.0 - intel.counts.evaluated as f64 / naive.counts.evaluated as f64)
    );
}
