//! `scan_bench` — the columnar kernel layer vs the legacy per-cell
//! paths, in ns/row.
//!
//! ```text
//! cargo bench --bench scan_bench            # full grid
//! cargo bench --bench scan_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Scenarios (each at table sizes ≥4096 rows):
//!
//! * `group_by_<rows>` — `Table::group_by` (the `Column::group_codes`
//!   kernel) on the PROSPER `grade` column. The per-cell
//!   `HashMap<ValueKey>` path it replaced is no longer public API (it
//!   lives on as `expred-table`'s property-test oracle), so these rows
//!   carry the kernel's ns/row alone.
//! * `group_by_str_<rows>` — the same on `zip3` (40 values): on a
//!   dictionary-encoded string column the kernel sorts 40 entries and
//!   remaps codes.
//! * `generate_<rows>` — materializing the PROSPER table: backend `rows`
//!   rebuilds it through `Table::from_rows` from its row values (cloned
//!   inside the timed region, as a row-wise producer builds them — the
//!   path `csv` and every `push_row` caller use); backend `columnar` is
//!   `Dataset::generate` and then a read of every column (typed vectors,
//!   labels rendered once) including its PRNG draws; backend `lazy` is
//!   `Dataset::generate` alone — the predictor and the label, what a
//!   query on a named predictor reads. All three drop the table they
//!   built.
//! * `cold_table_<rows>` — what a query over a table the session has
//!   never seen pays before its first probe, in ns/row: `Dataset::generate`,
//!   then `Table::group_by` on the predictor, then the label column's
//!   `Column::true_rows` plane.
//! * `one_hot_<rows>` — `extract_features` (dictionary-coded one-hot)
//!   over the full PROSPER candidate set, with the codes already in the
//!   table's memo (what every extraction after a table's first pays);
//!   like `group_by`, its per-cell predecessor is now `expred-ml`'s test
//!   oracle, not a baseline row.
//! * `derived_group_by_<rows>` — building the `grade` partition from its
//!   dictionary codes per query (`GroupCodes::to_group_by`, backend
//!   `legacy`) vs a hit in the table's memo (`Table::partition`, backend
//!   `cached`).
//!
//! And two rows for the read path's bit counts, at 20 000 rows in either
//! mode, each timed for the `portable` copy of its kernel and for the
//! `selected` one (POPCNT where the CPU reports it):
//!
//! * `warm_read_20000` — a fresh session invoker reads a session-warm
//!   table end to end ([`expred_udf::invoker::read_plane`]: every row a
//!   store hit promoted into the query's memo), in ns/row.
//! * `group_counts_20000` — the per-group counts of two planes over the
//!   `grade` grouping ([`expred_table::bitcount::group_counts`]), in
//!   ns/run.
//!
//! And one row for the answer body a result-memo hit writes:
//!
//! * `id_plane_20000` — [`JsonWriter::id_plane`] over a 20 000-row plane
//!   with ≈ 48 % of its bits set (the shape of a steady-state 57 KB
//!   answer), into a buffer sized once and finished as bytes, in ns/id.
//!
//! Results land in `BENCH_scan.json` (schema: `expred_bench::report`);
//! where a scenario has a legacy path, it is the speedup baseline. Full mode
//! prints a WARNING (it does not panic) if a kernel fails to beat its
//! baseline — CI smoke runs make no timing claims.

use expred_bench::report::measure_ns_per_unit;
use expred_bench::BenchReport;
use expred_exec::{CacheStore, ExecContext, Sequential};
use expred_ml::features::{extract_features, FeatureSpec};
use expred_stats::json::{id_plane_len, JsonWriter};
use expred_stats::Prng;
use expred_table::bitcount;
use expred_table::datasets::{Dataset, DatasetSpec, LABEL_COLUMN, PROSPER};
use expred_table::{Column, GroupBy, RowSet, Table, Value};
use expred_udf::{invoker, OracleUdf, UdfInvoker};
use std::hint::black_box;

fn main() {
    // `cargo test` probes bench binaries with --test; do nothing.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");

    let sizes: &[usize] = if smoke { &[4_096] } else { &[4_096, 30_000] };
    let reps: usize = if smoke { 2 } else { 30 };

    let mut report = BenchReport::new("scan");
    println!(
        "scan_bench ({} mode): columnar kernels vs legacy per-cell paths",
        if smoke { "smoke" } else { "full" }
    );
    let mut warnings = 0usize;
    let mut check = |scenario: &str, legacy: f64, kernel: f64| {
        if !smoke && kernel >= legacy {
            println!("WARNING: {scenario}: kernel ({kernel:.0} ns/row) not faster than legacy ({legacy:.0} ns/row)");
            warnings += 1;
        }
    };

    for &rows in sizes {
        let ds = Dataset::generate(DatasetSpec { rows, ..PROSPER }, 7);
        let units = rows as u64;

        // The group_codes kernel on an integer-like column, then on a
        // 40-value dictionary-encoded string column.
        for (scenario, column) in [("group_by", "grade"), ("group_by_str", "zip3")] {
            let scenario = format!("{scenario}_{rows}");
            let kernel = measure_ns_per_unit(units, reps, || {
                black_box(ds.table.group_by(column).unwrap());
            });
            report.record(&scenario, "kernel", kernel, 1.0);
            println!("{scenario:<24} kernel {kernel:>8.1} ns/row");
        }

        // Materializing the table: row at a time vs column at a time.
        let scenario = format!("generate_{rows}");
        let cells: Vec<Vec<Value>> = (0..rows).map(|r| ds.table.row(r)).collect();
        let by_rows = measure_ns_per_unit(units, reps.div_ceil(3), || {
            black_box(Table::from_rows(ds.table.schema().clone(), cells.clone()).unwrap());
        });
        let columnar = measure_ns_per_unit(units, reps.div_ceil(3), || {
            let table = Dataset::generate(ds.spec, black_box(ds.seed)).table;
            for idx in 0..table.num_columns() {
                black_box(table.column_at(idx));
            }
        });
        let lazy = measure_ns_per_unit(units, reps.div_ceil(3), || {
            black_box(Dataset::generate(ds.spec, black_box(ds.seed)));
        });
        report.record(&scenario, "rows", by_rows, 1.0);
        report.record(&scenario, "columnar", columnar, by_rows / columnar);
        report.record(&scenario, "lazy", lazy, by_rows / lazy);
        println!(
            "{scenario:<24} rows   {by_rows:>8.1} ns/row | columnar {columnar:>6.1} ({:>5.2}x) \
             | lazy {lazy:>6.1} ({:>5.2}x)",
            by_rows / columnar,
            by_rows / lazy,
        );
        check(&scenario, by_rows, columnar);
        check(&scenario, columnar, lazy);

        // What a query over a table the session has never seen pays
        // before its first probe: generate, group by the predictor, and
        // the label's truth plane.
        let scenario = format!("cold_table_{rows}");
        let cold = measure_ns_per_unit(units, reps.div_ceil(3), || {
            let table = Dataset::generate(ds.spec, black_box(ds.seed)).table;
            black_box(table.group_by(ds.spec.predictor).unwrap());
            black_box(table.column(LABEL_COLUMN).unwrap().true_rows());
        });
        report.record_metric(&scenario, "kernel", "ns_per_row", "ns", cold);
        println!("{scenario:<24} kernel {cold:>8.1} ns/row");

        // One-hot encoding from dictionary codes.
        let scenario = format!("one_hot_{rows}");
        let exclude = ["label", "row_id"];
        let kernel = measure_ns_per_unit(units, reps.div_ceil(3), || {
            black_box(extract_features(
                &ds.table,
                &exclude,
                FeatureSpec::default(),
                None,
            ));
        });
        report.record(&scenario, "kernel", kernel, 1.0);
        println!("{scenario:<24} kernel {kernel:>8.1} ns/row");

        // The partition per query vs a hit in the table's memo.
        let scenario = format!("derived_group_by_{rows}");
        let codes = ds.table.column("grade").unwrap().group_codes();
        let legacy = measure_ns_per_unit(units, reps, || {
            black_box(codes.to_group_by("grade"));
        });
        let kernel = measure_ns_per_unit(units, reps, || {
            black_box(ds.table.partition("grade", None).unwrap());
        });
        report.record(&scenario, "legacy", legacy, 1.0);
        report.name_last("ns_per_row", "ns");
        report.record(&scenario, "cached", kernel, legacy / kernel);
        report.name_last("ns_per_row", "ns");
        println!(
            "{scenario:<24} derive {legacy:>8.1} ns/row | cached {kernel:>8.1} ({:>5.2}x)",
            legacy / kernel
        );
        check(&scenario, legacy, kernel);
    }

    // The read path's bit counts, portable copy and selected copy.
    let rows = 20_000;
    let ds = Dataset::generate(DatasetSpec { rows, ..PROSPER }, 7);
    let udf = OracleUdf::new(LABEL_COLUMN);
    let store = CacheStore::new();
    let ctx = ExecContext::sequential().with_cache(&store);
    let every_row = RowSet::full(rows);
    UdfInvoker::with_context(&udf, &ds.table, &ctx).evaluate_plane(&Sequential, &every_row);
    type Read = fn(&UdfInvoker<'_>, &RowSet) -> (Vec<u64>, Vec<u64>, u64);
    let reads: [(&str, Read); 2] = [
        ("portable", invoker::portable::read_plane),
        ("selected", invoker::read_plane),
    ];
    for (backend, read) in reads {
        let ns = measure_ns_per_unit(rows as u64, reps, || {
            let invoker = UdfInvoker::with_context(&udf, &ds.table, &ctx);
            black_box(read(&invoker, &every_row));
        });
        report.record_metric("warm_read_20000", backend, "ns_per_row", "ns", ns);
        println!("{:<24} {backend:<8} {ns:>8.2} ns/row", "warm_read_20000");
    }
    let groups = ds.table.group_by("grade").unwrap();
    let runs: usize = (0..groups.num_groups())
        .map(|g| groups.runs(g).count())
        .sum();
    let truth = ds
        .table
        .column(LABEL_COLUMN)
        .and_then(Column::true_rows)
        .unwrap();
    let sevenths = RowSet::from_flags((0..rows).map(|row| row % 7 == 0));
    type Counts = fn(&GroupBy, [&[u64]; 2]) -> Vec<[usize; 2]>;
    let counts: [(&str, Counts); 2] = [
        ("portable", bitcount::portable::group_counts),
        ("selected", bitcount::group_counts),
    ];
    for (backend, count) in counts {
        let ns = measure_ns_per_unit(runs as u64, reps * 10, || {
            black_box(count(&groups, [truth.words(), sevenths.words()]));
        });
        report.record_metric("group_counts_20000", backend, "ns_per_run", "ns", ns);
        println!(
            "{:<24} {backend:<8} {ns:>8.2} ns/run ({runs} runs)",
            "group_counts_20000"
        );
    }

    // The answer plane a memo hit writes.
    let mut rng = Prng::seeded(7);
    let plane = RowSet::from_flags((0..rows).map(|_| rng.bernoulli(0.48)));
    let ids = plane.len() as u64;
    let ns = measure_ns_per_unit(ids, reps * 10, || {
        let mut w = JsonWriter::with_capacity(id_plane_len(plane.words()) + 2);
        w.id_plane(black_box(plane.words()));
        black_box(w.finish_bytes());
    });
    report.record_metric("id_plane_20000", "writer", "ns_per_id", "ns", ns);
    println!(
        "{:<24} writer   {ns:>8.2} ns/id ({ids} ids)",
        "id_plane_20000"
    );

    if warnings > 0 {
        println!("{warnings} scenario(s) below target — see WARNINGs above");
    }
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
