//! [`RemoteUdf`]: a [`BooleanUdf`] whose expensive call is a network
//! round trip.
//!
//! A `RemoteUdf` plugs into everything a local UDF does: the
//! `UdfInvoker`, which bills `o_e` exactly once per fresh row, and the
//! executors in `expred-exec`. Its probes share the client's one
//! connection, so executor threads take turns on it.
//!
//! A failed call is a typed [`RemoteError`] on
//! [`RemoteUdf::try_evaluate_batch`]. The infallible
//! [`BooleanUdf::evaluate`] has no error channel, so it panics instead.

use std::sync::Arc;

use expred_table::Table;
use expred_udf::{BooleanUdf, UdfId};

use crate::client::{RemoteClient, RemoteError};

/// A boolean UDF evaluated by a remote oracle server.
pub struct RemoteUdf {
    client: Arc<RemoteClient>,
    oracle: String,
}

impl RemoteUdf {
    /// A remote UDF probing `oracle` through `client`.
    pub fn new(client: Arc<RemoteClient>, oracle: impl Into<String>) -> Self {
        Self {
            client,
            oracle: oracle.into(),
        }
    }

    /// Evaluates `rows` as one pipelined batch with up to `window`
    /// requests in flight, landing answers by input index. The first
    /// failure ends the batch and is returned.
    ///
    /// `_table` is unused: it stays because the benchmark passes it,
    /// and directions 4 and 5 of ROADMAP.md remove it.
    pub fn try_evaluate_batch(
        &self,
        _table: &Table,
        rows: &[usize],
        window: usize,
    ) -> Result<Vec<bool>, RemoteError> {
        self.client
            .probe_batch(&self.oracle, rows.iter().map(|&row| row as u64), window)
    }
}

impl BooleanUdf for RemoteUdf {
    /// Panics when the call fails: this surface has no error channel.
    fn evaluate(&self, _table: &Table, row: usize) -> bool {
        self.client
            .probe(&self.oracle, row as u64)
            .unwrap_or_else(|e| panic!("remote UDF {:?} failed: {e}", self.oracle))
    }

    fn name(&self) -> &str {
        "remote"
    }

    /// Identity is the oracle name: two clients probing the same named
    /// oracle (even via different endpoints) answer identically, so
    /// they share a cache namespace.
    fn fingerprint(&self) -> Option<UdfId> {
        Some(UdfId::from_parts(
            "remote",
            &[UdfId::str_part(&self.oracle)],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use crate::server::{FaultPlan, OracleMap, UdfServer};
    use expred_table::{DataType, Field, Schema, Value};
    use expred_udf::OracleUdf;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

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

    fn serve_labels(labels: &[bool]) -> (UdfServer, Arc<RemoteClient>) {
        let mut oracles = OracleMap::new();
        oracles.insert("good".to_string(), Arc::new(labels.to_vec()));
        let server = UdfServer::bind("127.0.0.1:0", oracles, FaultPlan::healthy()).unwrap();
        let client = Arc::new(RemoteClient::new(ClientConfig::new(
            server.addr().to_string(),
        )));
        (server, client)
    }

    #[test]
    fn remote_matches_local_oracle_row_by_row() {
        let labels = [true, false, false, true, true, false];
        let (_server, client) = serve_labels(&labels);
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
        let (_server, client) = serve_labels(&labels);
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
    fn dead_endpoint_is_a_transport_error_within_two_seconds() {
        // A port that was just bound and released: nothing listens there.
        let endpoint = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let client = Arc::new(RemoteClient::new(ClientConfig::new(endpoint.clone())));
        let remote = RemoteUdf::new(client, "good");
        let table = table_with_labels(&[true; 32]);
        let started = Instant::now();
        let err = remote
            .try_evaluate_batch(&table, &(0..32).collect::<Vec<_>>(), 4)
            .unwrap_err();
        assert!(
            matches!(&err, RemoteError::Transport { endpoint: e, .. } if *e == endpoint),
            "{err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "batch against a dead endpoint took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn fingerprint_is_the_oracle_name() {
        let (_server, client) = serve_labels(&[true]);
        let a = RemoteUdf::new(Arc::clone(&client), "good");
        let b = RemoteUdf::new(Arc::clone(&client), "good");
        let c = RemoteUdf::new(client, "other");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a.fingerprint().is_some());
    }
}
