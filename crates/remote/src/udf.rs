//! [`RemoteUdf`]: a [`BooleanUdf`] whose expensive call is a network
//! round-trip.
//!
//! This is where the remote backend meets the engine's existing
//! contract. A `RemoteUdf` plugs into everything a local UDF does —
//! the `UdfInvoker` (which bills `o_e` exactly once per fresh row, no
//! matter how many wire retries the probe took underneath), the
//! executors in `expred-exec` (a [`WorkerPool`] over a remote UDF
//! learns that its probes wait and keeps dozens on the wire at once,
//! whatever the core count), and the predicate expression tree.
//!
//! Failure policy, in order:
//!
//! 1. the [`RemoteClient`] burns its full deadline/retry/hedge budget;
//! 2. if a **local fallback evaluator** was configured, the probe
//!    degrades to it (counted in `fallback_local`) and the query
//!    completes with local answers;
//! 3. otherwise the typed error surfaces through
//!    [`RemoteUdf::try_evaluate`] / [`RemoteUdf::try_evaluate_batch`]
//!    (and from there maps to
//!    [`EngineError::Unavailable`] → HTTP 503). The infallible
//!    [`BooleanUdf::evaluate`] has no error channel, so with no
//!    fallback it panics — callers on the fallible surface should use
//!    the `try_*` methods.
//!
//! [`WorkerPool`]: expred_exec::WorkerPool
//! [`EngineError::Unavailable`]: expred_core::EngineError::Unavailable

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use expred_table::Table;
use expred_udf::{BooleanUdf, UdfId};

use crate::client::{RemoteClient, RemoteError};

/// A boolean UDF evaluated by a remote oracle server.
pub struct RemoteUdf {
    client: Arc<RemoteClient>,
    oracle: String,
    fallback: Option<Box<dyn BooleanUdf>>,
}

impl RemoteUdf {
    /// A remote UDF probing `oracle` through `client`, with no local
    /// fallback: unavailability is a typed error (or a panic on the
    /// infallible path).
    pub fn new(client: Arc<RemoteClient>, oracle: impl Into<String>) -> Self {
        Self {
            client,
            oracle: oracle.into(),
            fallback: None,
        }
    }

    /// Degrades to `fallback` when the endpoint is unavailable, instead
    /// of erroring: the query completes with locally computed answers
    /// and the degradation shows up in the `fallback_local` counter.
    pub fn with_fallback(mut self, fallback: Box<dyn BooleanUdf>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// The oracle name this UDF probes.
    pub fn oracle(&self) -> &str {
        &self.oracle
    }

    /// Evaluates one row with a typed error channel. Infrastructure
    /// failures (breaker open, deadline exhausted) consult the fallback
    /// first; request bugs (unknown oracle) never do — a wrong oracle
    /// name should fail loudly, not silently compute something else.
    pub fn try_evaluate(&self, table: &Table, row: usize) -> Result<bool, RemoteError> {
        match self.client.probe(&self.oracle, row as u64) {
            Ok(answer) => Ok(answer),
            Err(e @ (RemoteError::CircuitOpen { .. } | RemoteError::DeadlineExhausted { .. })) => {
                match &self.fallback {
                    Some(local) => {
                        self.client.note_fallback();
                        Ok(local.evaluate(table, row))
                    }
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Evaluates `rows` with up to `window` probes in flight at once,
    /// landing answers by input index. The first infrastructure error
    /// (after the fallback had its chance) aborts the remaining work —
    /// there is no point burning `len × deadline` against a dead
    /// endpoint — and is returned; answers computed so far are dropped.
    ///
    /// This is the typed-error sibling of running an executor over
    /// [`BooleanUdf::evaluate`]: slots claimed off a cursor, out-of-order
    /// completion, but unavailability is a `Result`, not a panic.
    pub fn try_evaluate_batch(
        &self,
        table: &Table,
        rows: &[usize],
        window: usize,
    ) -> Result<Vec<bool>, RemoteError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let workers = window.clamp(1, rows.len());
        if workers == 1 {
            let mut answers = Vec::with_capacity(rows.len());
            for &row in rows {
                answers.push(self.try_evaluate(table, row)?);
            }
            return Ok(answers);
        }

        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // (slot, error) of the earliest-slot failure, for a
        // deterministic error regardless of thread interleaving.
        let first_error: Mutex<Option<(usize, RemoteError)>> = Mutex::new(None);
        let mut answers = vec![false; rows.len()];

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| {
                    let mut local: Vec<(usize, bool)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let slot = cursor.fetch_add(1, Ordering::Relaxed);
                        if slot >= rows.len() {
                            break;
                        }
                        match self.try_evaluate(table, rows[slot]) {
                            Ok(answer) => local.push((slot, answer)),
                            Err(e) => {
                                let mut guard = first_error.lock().unwrap();
                                if guard.as_ref().map(|(s, _)| slot < *s).unwrap_or(true) {
                                    *guard = Some((slot, e));
                                }
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    local
                }));
            }
            for handle in handles {
                match handle.join() {
                    Ok(local) => {
                        for (slot, answer) in local {
                            answers[slot] = answer;
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        match first_error.into_inner().unwrap() {
            Some((_, e)) => Err(e),
            None => Ok(answers),
        }
    }
}

impl BooleanUdf for RemoteUdf {
    /// The infallible surface: panics on unavailability with no
    /// fallback. Engine paths that can report errors should go through
    /// [`RemoteUdf::try_evaluate`] instead.
    fn evaluate(&self, table: &Table, row: usize) -> bool {
        self.try_evaluate(table, row).unwrap_or_else(|e| {
            panic!(
                "remote UDF {:?} failed with no local fallback: {e}",
                self.oracle
            )
        })
    }

    fn name(&self) -> &str {
        "remote"
    }

    /// Identity is the oracle name: two clients probing the same named
    /// oracle (even via different endpoints) answer identically, so
    /// they share a cache namespace; the fallback does not participate
    /// (it is an availability detail, not a semantic one — it is the
    /// caller's obligation to supply a fallback that agrees with the
    /// remote oracle).
    fn fingerprint(&self) -> Option<UdfId> {
        Some(UdfId::from_parts(
            "remote",
            &[UdfId::str_part(&self.oracle)],
        ))
    }

    fn required_columns(&self) -> Vec<String> {
        match &self.fallback {
            Some(local) => local.required_columns(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::client::ClientConfig;
    use crate::fault::FaultPlan;
    use crate::server::{OracleMap, UdfServer};
    use expred_table::{DataType, Field, Schema, Value};
    use expred_udf::OracleUdf;
    use std::time::Duration;

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

    fn serve_labels(labels: &[bool], plan: FaultPlan) -> (UdfServer, Arc<RemoteClient>) {
        let mut oracles = OracleMap::new();
        oracles.insert("good".to_string(), Arc::new(labels.to_vec()));
        let server = UdfServer::bind("127.0.0.1:0", oracles, plan).unwrap();
        let client = Arc::new(RemoteClient::new(ClientConfig::new(
            server.addr().to_string(),
        )));
        (server, client)
    }

    #[test]
    fn remote_matches_local_oracle_row_by_row() {
        let labels = [true, false, false, true, true, false];
        let (_server, client) = serve_labels(&labels, FaultPlan::healthy());
        let table = table_with_labels(&labels);
        let remote = RemoteUdf::new(client, "good");
        let local = OracleUdf::new("good");
        for row in 0..labels.len() {
            assert_eq!(remote.evaluate(&table, row), local.evaluate(&table, row));
        }
    }

    #[test]
    fn batch_lands_answers_by_input_index() {
        let labels = [true, false, true, false, true, false, true, false];
        let (_server, client) = serve_labels(&labels, FaultPlan::healthy());
        let table = table_with_labels(&labels);
        let remote = RemoteUdf::new(client, "good");
        // Shuffled, repeated rows: answers must land by slot.
        let rows = [7usize, 0, 3, 3, 6, 1, 2, 5, 4, 0];
        let answers = remote.try_evaluate_batch(&table, &rows, 4).unwrap();
        let expected: Vec<bool> = rows.iter().map(|&r| labels[r]).collect();
        assert_eq!(answers, expected);
        assert!(remote
            .try_evaluate_batch(&table, &[], 4)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unavailable_with_fallback_degrades_locally() {
        let labels = [true, false, true];
        let (_server, client) = serve_labels(&labels, FaultPlan::blackout());
        let table = table_with_labels(&labels);
        let mut config = ClientConfig::new(client.endpoint().to_string());
        config.attempt_timeout = Duration::from_millis(50);
        config.max_retries = 0;
        config.hedge = None;
        let client = Arc::new(RemoteClient::new(config));
        let remote = RemoteUdf::new(Arc::clone(&client), "good")
            .with_fallback(Box::new(OracleUdf::new("good")));
        for (row, &expected) in labels.iter().enumerate() {
            assert_eq!(remote.try_evaluate(&table, row).unwrap(), expected);
        }
        assert_eq!(client.stats().fallback_local, 3);
    }

    #[test]
    fn unavailable_without_fallback_is_a_typed_error_and_batch_aborts_early() {
        let labels = [true; 32];
        let (_server, _healthy) = serve_labels(&labels, FaultPlan::healthy());
        // A client aimed at a blackout server, tight budget, fast breaker.
        let mut oracles = OracleMap::new();
        oracles.insert("good".to_string(), Arc::new(labels.to_vec()));
        let dark = UdfServer::bind("127.0.0.1:0", oracles, FaultPlan::blackout()).unwrap();
        let mut config = ClientConfig::new(dark.addr().to_string());
        config.attempt_timeout = Duration::from_millis(50);
        config.max_retries = 0;
        config.hedge = None;
        config.breaker = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
        };
        let remote = RemoteUdf::new(Arc::new(RemoteClient::new(config)), "good");
        let table = table_with_labels(&labels);
        let started = std::time::Instant::now();
        let err = remote
            .try_evaluate_batch(&table, &(0..32).collect::<Vec<_>>(), 4)
            .unwrap_err();
        assert!(
            matches!(
                err,
                RemoteError::DeadlineExhausted { .. } | RemoteError::CircuitOpen { .. }
            ),
            "{err:?}"
        );
        // 32 rows × 50ms deadline would be 1.6s serial; early abort plus
        // the breaker must finish far sooner.
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "batch against a dead endpoint took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn unknown_oracle_never_consults_the_fallback() {
        let labels = [true, true];
        let (_server, client) = serve_labels(&labels, FaultPlan::healthy());
        let table = table_with_labels(&labels);
        let remote = RemoteUdf::new(Arc::clone(&client), "wrong-name")
            .with_fallback(Box::new(OracleUdf::new("good")));
        assert!(matches!(
            remote.try_evaluate(&table, 0),
            Err(RemoteError::UnknownOracle { .. })
        ));
        assert_eq!(client.stats().fallback_local, 0);
    }

    #[test]
    fn fingerprint_is_the_oracle_name() {
        let (_server, client) = serve_labels(&[true], FaultPlan::healthy());
        let a = RemoteUdf::new(Arc::clone(&client), "good");
        let b = RemoteUdf::new(Arc::clone(&client), "good");
        let c = RemoteUdf::new(client, "other");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a.fingerprint().is_some());
    }
}
