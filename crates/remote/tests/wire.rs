//! The remote wire's proof obligation on a healthy server: a query
//! served over the wire is indistinguishable from one served by the
//! local oracle it mirrors.
//!
//! 1. **Byte-identical answers**, landed by input index, and
//! 2. **exact bill conservation**: through the audited `UdfInvoker`,
//!    the `CostCounts` equal the local reference's, on the `Sequential`
//!    executor and on a four-thread `WorkerPool`.

use std::sync::Arc;

use expred_exec::{Executor, Sequential, WorkerPool};
use expred_remote::{ClientConfig, FaultPlan, OracleMap, RemoteClient, RemoteUdf, UdfServer};
use expred_table::{DataType, Field, Schema, Table, Value};
use expred_udf::{OracleUdf, UdfInvoker};

fn labels() -> Vec<bool> {
    (0..97).map(|i| i % 3 == 0 || i % 7 == 1).collect()
}

fn table_with_labels(labels: &[bool]) -> Table {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("good", DataType::Bool),
    ]);
    let rows = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| vec![Value::Int(i as i64), Value::Bool(l)])
        .collect();
    Table::from_rows(schema, rows).unwrap()
}

fn serve(labels: &[bool]) -> (UdfServer, Arc<RemoteClient>) {
    let mut oracles = OracleMap::new();
    oracles.insert("good".to_string(), Arc::new(labels.to_vec()));
    let server = UdfServer::bind("127.0.0.1:0", oracles, FaultPlan::healthy()).unwrap();
    let client = Arc::new(RemoteClient::new(ClientConfig::new(
        server.addr().to_string(),
    )));
    (server, client)
}

/// Every row once in a scrambled order, then a run of repeats.
fn rows_with_repeats(n: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % n).collect();
    rows.extend((0..n).step_by(5));
    rows.extend([0, 0, n - 1, 3, 3]);
    rows
}

#[test]
fn remote_conserves_answers_and_bills() {
    let labels = labels();
    let table = table_with_labels(&labels);
    let rows = rows_with_repeats(labels.len());
    let executors: [(&str, Box<dyn Executor>); 2] = [
        ("sequential", Box::new(Sequential)),
        ("pool(4)", Box::new(WorkerPool::with_threads(4))),
    ];
    for (name, executor) in &executors {
        let (_server, client) = serve(&labels);
        let local_udf = OracleUdf::new("good");
        let local = UdfInvoker::new(&local_udf, &table);
        let expected = local.evaluate_batch(executor.as_ref(), &rows);

        let remote_udf = RemoteUdf::new(client, "good");
        let remote = UdfInvoker::new(&remote_udf, &table);
        let got = remote.evaluate_batch(executor.as_ref(), &rows);

        assert_eq!(got, expected, "answers diverged on {name}");
        assert_eq!(remote.counts(), local.counts(), "bills diverged on {name}");
        assert_eq!(remote.counts().evaluated as usize, labels.len());
    }
}

#[test]
fn batches_land_by_input_index_at_every_window() {
    let labels = labels();
    let table = table_with_labels(&labels);
    let rows = rows_with_repeats(labels.len());
    let expected: Vec<bool> = rows.iter().map(|&row| labels[row]).collect();
    let (_server, client) = serve(&labels);
    let remote = RemoteUdf::new(client, "good");
    for window in [0, 1, 4, 64, 1000] {
        let got = remote.try_evaluate_batch(&table, &rows, window).unwrap();
        assert_eq!(got, expected, "window {window}");
    }
}
