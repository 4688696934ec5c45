//! Stand-alone layer probes: layers the request path reaches only through
//! the engine (or, for `remote`, not at all) are timed directly through
//! their public functions, on a table of the workload's own shape.

use crate::stats::median;
use crate::workload::Workload;
use expred_exec::{Executor, Sequential, WorkerPool};
use expred_persist::{FsyncPolicy, PersistConfig, PersistKey, PersistStore};
use expred_remote::{ClientConfig, FaultPlan, RemoteClient, RemoteUdf, UdfServer};
use expred_solver::bigreedy::GreedyProblem;
use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
use expred_table::LABEL_COLUMN;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time each probe keeps measuring (at least three measurements).
const PROBE_BUDGET: Duration = Duration::from_millis(400);

/// One probe's result: the median measurement and how many were taken.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Repeats `measure` for [`PROBE_BUDGET`], at least three times.
fn repeat<T>(mut measure: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut values = Vec::new();
    while values.len() < 3 || started.elapsed() < PROBE_BUDGET {
        values.push(measure()?);
    }
    Ok(values)
}

/// Repeats `measure` and reports the median.
fn probe(name: &'static str, unit: &'static str, mut measure: impl FnMut() -> f64) -> Probe {
    let mut values = repeat(|| Ok(measure())).expect("the measurement cannot fail");
    Probe {
        name,
        unit,
        value: median(&mut values),
        samples: values.len(),
    }
}

/// Nanoseconds per item of `iterations` calls of `f`.
fn ns_per(iterations: usize, items: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        f();
    }
    started.elapsed().as_nanos() as f64 / (iterations * items) as f64
}

fn sleeping_probe(latency: Duration) -> impl Fn(usize) -> bool + Sync {
    move |row: usize| {
        std::thread::sleep(latency);
        row.is_multiple_of(3)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The persistence probes share one append → sync → reopen cycle.
fn persist_cycle(dir: &Path, records: u32) -> Result<(f64, f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let config = || PersistConfig::new(dir).with_fsync(FsyncPolicy::EveryBatch);
    let key = PersistKey {
        udf: 1,
        table: 2,
        version: 3,
    };
    let store = PersistStore::open(config()).map_err(|e| e.to_string())?;
    let started = Instant::now();
    for row in 0..records {
        store.append_row(key, row, row.is_multiple_of(3), u64::from(row));
    }
    let append_ns = started.elapsed().as_nanos() as f64 / f64::from(records);
    // Shed records reach disk only through a compaction.
    if store.stats().shed > 0 {
        store.compact().map_err(|e| e.to_string())?;
    }
    store.sync().map_err(|e| e.to_string())?;
    drop(store);
    let bytes_per_answer = dir_bytes(dir) as f64 / f64::from(records);
    let started = Instant::now();
    let reopened = PersistStore::open(config()).map_err(|e| e.to_string())?;
    let open_s = started.elapsed().as_secs_f64();
    if reopened.len() != records as usize {
        return Err(format!(
            "persist probe recovered {} of {records} rows",
            reopened.len()
        ));
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
    Ok((append_ns, open_s, bytes_per_answer))
}

pub fn run(workload: Workload, seed: u64, scratch: &Path) -> Result<Vec<Probe>, String> {
    let rows = workload.table_rows();
    let spec = DatasetSpec { rows, ..PROSPER };
    let dataset = Dataset::generate(spec, seed);
    let mut probes = Vec::new();

    probes.push(probe("table.generate_ns_per_row", "ns", || {
        ns_per(1, rows, || {
            black_box(Dataset::generate(spec, black_box(seed)));
        })
    }));

    let grade = dataset
        .table
        .column("grade")
        .ok_or("probe table has no grade column")?;
    probes.push(probe("table.group_codes_ns_per_row", "ns", || {
        ns_per(8, rows, || {
            black_box(black_box(grade).group_codes());
        })
    }));

    // The workload table's own groups (8 on prosper), under the contract
    // every request uses.
    let stats = dataset.group_stats("grade");
    let sizes: Vec<f64> = stats.per_group.iter().map(|&(t, _)| t as f64).collect();
    let sels: Vec<f64> = stats.per_group.iter().map(|&(_, s)| s).collect();
    let alpha = 0.8;
    let recall_mass: f64 = sizes.iter().zip(&sels).map(|(t, s)| t * s).sum();
    let problem =
        GreedyProblem::from_group_stats(&sizes, &sels, alpha, 1.0, 3.0, 0.8 * recall_mass, 0.0);
    problem
        .solve()
        .map_err(|e| format!("bigreedy probe instance is infeasible: {e}"))?;
    probes.push(probe("solver.bigreedy_solve_ns", "ns", || {
        ns_per(2_000, 1, || {
            black_box(black_box(&problem).solve().ok());
        })
    }));

    let pool = WorkerPool::new();
    let batch: Vec<usize> = (0..4_096).collect();
    let noop = |row: usize| black_box(row).is_multiple_of(3);
    probes.push(probe("exec.pool.dispatch_ns_per_probe", "ns", || {
        ns_per(16, batch.len(), || {
            black_box(pool.evaluate_batch(&noop, black_box(&batch)));
        })
    }));

    let slow = sleeping_probe(Duration::from_micros(100));
    let slow_batch: Vec<usize> = (0..512).collect();
    probes.push(probe("exec.pool.speedup_100us", "ratio", || {
        let sequential = ns_per(1, 1, || {
            black_box(Sequential.evaluate_batch(&slow, &slow_batch));
        });
        let pooled = ns_per(1, 1, || {
            black_box(pool.evaluate_batch(&slow, &slow_batch));
        });
        sequential / pooled
    }));
    drop(pool);

    let persist_dir = scratch.join("probe-persist");
    let cycles = repeat(|| persist_cycle(&persist_dir, rows as u32))?;
    let column = |pick: fn(&(f64, f64, f64)) -> f64| {
        median(&mut cycles.iter().map(pick).collect::<Vec<_>>())
    };
    for (name, unit, value) in [
        ("persist.append_ns_per_record", "ns", column(|c| c.0)),
        ("persist.open_s", "s", column(|c| c.1)),
        ("persist.disk_bytes_per_answer", "bytes", column(|c| c.2)),
    ] {
        probes.push(Probe {
            name,
            unit,
            value,
            samples: cycles.len(),
        });
    }

    let labels = dataset
        .table
        .column(LABEL_COLUMN)
        .ok_or("probe table has no label column")?;
    let oracle: Arc<Vec<bool>> = Arc::new(
        (0..rows)
            .map(|row| labels.bool_at(row) == Some(true))
            .collect(),
    );
    let oracles = HashMap::from([(LABEL_COLUMN.to_owned(), Arc::clone(&oracle))]);
    let mut server = UdfServer::bind("127.0.0.1:0", oracles, FaultPlan::healthy())
        .map_err(|e| format!("bind udf server: {e}"))?;
    let client = Arc::new(RemoteClient::new(ClientConfig::new(
        server.addr().to_string(),
    )));
    let wire_rows: Vec<usize> = (0..rows.min(1_000)).collect();
    let mut wire_error = None;
    probes.push(probe("remote.wire_ns_per_probe", "ns", || {
        ns_per(1, wire_rows.len(), || {
            for &row in &wire_rows {
                match client.probe(LABEL_COLUMN, row as u64) {
                    Ok(answer) if answer == oracle[row] => {}
                    other => wire_error = Some(format!("remote probe of row {row}: {other:?}")),
                }
            }
        })
    }));
    let udf = RemoteUdf::new(Arc::clone(&client), LABEL_COLUMN);
    probes.push(probe("remote.batch_wire_ns_per_probe", "ns", || {
        ns_per(1, wire_rows.len(), || {
            match udf.try_evaluate_batch(&dataset.table, &wire_rows, 4) {
                Ok(answers) if answers[..] == oracle[..wire_rows.len()] => {}
                other => wire_error = Some(format!("remote batch: {:?}", other.err())),
            }
        })
    }));
    server.shutdown();
    if let Some(error) = wire_error {
        return Err(error);
    }
    Ok(probes)
}
