//! The remote UDF client.
//!
//! [`RemoteClient`] turns "evaluate oracle O on rows R" into one
//! blocking call over one lazily dialed connection. A batch is
//! pipelined: up to `window` requests are on the wire at once, and the
//! answers are read back in send order, which the server keeps.
//!
//! Dial, read and write share one 500 ms timeout. Any failure — a refused
//! dial, a timeout, a corrupt frame, an answer out of order, or an
//! error status — drops the connection, so the next call redials.
//! Nothing is retried. Billing is not done here either: the paper-model
//! `o_e` is charged once per row by the `UdfInvoker` above this layer.

use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::proto::{read_frame, Request, Response, STATUS_OK, STATUS_UNKNOWN_ORACLE};

/// The deadline for one dial, and for each read and write on the
/// connection.
pub(crate) const TIMEOUT: Duration = Duration::from_millis(500);

/// Where the client connects. A shim kept because the benchmark builds
/// its client through it; directions 4 and 5 of ROADMAP.md remove it.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// `host:port` of the UDF server.
    pub endpoint: String,
}

impl ClientConfig {
    /// A client configuration for `endpoint`.
    pub fn new(endpoint: impl Into<String>) -> Self {
        Self {
            endpoint: endpoint.into(),
        }
    }
}

/// Why a call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The connection could not be dialed, timed out, or carried
    /// something that is not the protocol.
    Transport {
        /// The endpoint the call went to.
        endpoint: String,
        /// What went wrong on the wire.
        reason: String,
    },
    /// The server does not know the named oracle.
    UnknownOracle {
        /// The name the server rejected.
        oracle: String,
    },
    /// The server rejected the request (row out of range, undecodable).
    BadRequest {
        /// The endpoint that rejected it.
        endpoint: String,
    },
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Transport { endpoint, reason } => write!(f, "{endpoint}: {reason}"),
            RemoteError::UnknownOracle { oracle } => {
                write!(f, "remote server has no oracle named {oracle:?}")
            }
            RemoteError::BadRequest { endpoint } => {
                write!(f, "{endpoint} rejected the probe as malformed")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

/// A client for one endpoint.
pub struct RemoteClient {
    endpoint: String,
    conn: Mutex<Option<Conn>>,
}

impl RemoteClient {
    /// A client for `config.endpoint`. The connection is dialed on the
    /// first call, so constructing a client never blocks.
    pub fn new(config: ClientConfig) -> Self {
        Self {
            endpoint: config.endpoint,
            conn: Mutex::new(None),
        }
    }

    /// The endpoint this client talks to.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Evaluates `oracle` on `row`.
    pub fn probe(&self, oracle: &str, row: u64) -> Result<bool, RemoteError> {
        Ok(self.probe_batch(oracle, [row].into_iter(), 1)?[0])
    }

    /// Evaluates `oracle` on each of `rows`, with up to `window` requests
    /// in flight (0 counts as 1), and returns the answers in input order.
    /// Callers on other threads wait for the connection.
    pub fn probe_batch(
        &self,
        oracle: &str,
        rows: impl ExactSizeIterator<Item = u64>,
        window: usize,
    ) -> Result<Vec<bool>, RemoteError> {
        if rows.len() == 0 {
            return Ok(Vec::new());
        }
        let mut slot = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        // Taken, not borrowed: a failed exchange leaves the slot empty.
        let mut conn = match slot.take() {
            Some(conn) => conn,
            None => Conn::dial(&self.endpoint).map_err(|e| transport(&self.endpoint, e))?,
        };
        let answers = conn.exchange(&self.endpoint, oracle, rows, window.max(1))?;
        *slot = Some(conn);
        Ok(answers)
    }
}

fn transport(endpoint: &str, reason: impl fmt::Display) -> RemoteError {
    RemoteError::Transport {
        endpoint: endpoint.to_owned(),
        reason: reason.to_string(),
    }
}

/// One connection, and the id of its next request.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Conn {
    fn dial(endpoint: &str) -> io::Result<Conn> {
        let addr: SocketAddr = endpoint
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 0,
        })
    }

    /// Sends `rows` with up to `window` requests in flight and reads the
    /// answers in send order. It tops the window up only when no answer
    /// is buffered, so the requests of one top-up leave in one write.
    fn exchange(
        &mut self,
        endpoint: &str,
        oracle: &str,
        mut rows: impl ExactSizeIterator<Item = u64>,
        window: usize,
    ) -> Result<Vec<bool>, RemoteError> {
        let total = rows.len();
        let mut answers = Vec::with_capacity(total);
        let first_id = self.next_id;
        let mut sent = 0;
        while answers.len() < total {
            if self.reader.buffer().is_empty() {
                while sent - answers.len() < window {
                    let Some(row) = rows.next() else { break };
                    let request = Request {
                        id: self.next_id,
                        oracle: oracle.to_owned(),
                        row,
                    };
                    self.writer
                        .write_all(&request.encode())
                        .map_err(|e| transport(endpoint, e))?;
                    self.next_id = self.next_id.wrapping_add(1);
                    sent += 1;
                }
                self.writer.flush().map_err(|e| transport(endpoint, e))?;
            }
            let response = read_frame(&mut self.reader)
                .and_then(|body| Response::decode(&body))
                .map_err(|e| transport(endpoint, e))?;
            if response.id != first_id.wrapping_add(answers.len() as u64) {
                return Err(transport(endpoint, "answer out of send order"));
            }
            match response.status {
                STATUS_OK => answers.push(response.answer),
                STATUS_UNKNOWN_ORACLE => {
                    return Err(RemoteError::UnknownOracle {
                        oracle: oracle.to_owned(),
                    })
                }
                _ => {
                    return Err(RemoteError::BadRequest {
                        endpoint: endpoint.to_owned(),
                    })
                }
            }
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FaultPlan, OracleMap, UdfServer};
    use std::net::TcpListener;
    use std::sync::Arc;

    fn server_with(bits: &[bool]) -> UdfServer {
        let mut oracles = OracleMap::new();
        oracles.insert("default".to_string(), Arc::new(bits.to_vec()));
        UdfServer::bind("127.0.0.1:0", oracles, FaultPlan::healthy()).unwrap()
    }

    fn client_for(server: &UdfServer) -> RemoteClient {
        RemoteClient::new(ClientConfig::new(server.addr().to_string()))
    }

    /// Reads one request off `stream` and answers it with `answer`.
    fn answer_one(stream: &mut TcpStream, answer: bool) {
        let request = Request::decode(&read_frame(stream).unwrap()).unwrap();
        let response = Response {
            id: request.id,
            status: STATUS_OK,
            answer,
        };
        stream.write_all(&response.encode()).unwrap();
    }

    #[test]
    fn healthy_probes_answer_correctly() {
        let bits = [true, false, true, true, false];
        let server = server_with(&bits);
        let client = client_for(&server);
        for (row, &expected) in bits.iter().enumerate() {
            assert_eq!(client.probe("default", row as u64).unwrap(), expected);
        }
    }

    #[test]
    fn unknown_oracle_is_typed_and_not_retried() {
        let server = server_with(&[true]);
        let client = client_for(&server);
        match client.probe("nonesuch", 0) {
            Err(RemoteError::UnknownOracle { oracle }) => assert_eq!(oracle, "nonesuch"),
            other => panic!("wrong result: {other:?}"),
        }
        // The dropped connection is redialed by the next call.
        assert!(client.probe("default", 0).unwrap());
    }

    #[test]
    fn corrupt_frames_poison_the_connection_and_reconnect() {
        // A hand-rolled server: its first connection answers with a
        // length prefix over the protocol bound, its second one properly.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bad_server = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            read_frame(&mut first).unwrap();
            first.write_all(&1_000_000u32.to_le_bytes()).unwrap();
            let (mut second, _) = listener.accept().unwrap();
            answer_one(&mut second, true);
            (first, second)
        });
        let client = RemoteClient::new(ClientConfig::new(addr.to_string()));
        match client.probe("default", 0) {
            Err(RemoteError::Transport { reason, .. }) => {
                assert!(reason.contains("frame length exceeds bound"), "{reason}")
            }
            other => panic!("a corrupt frame must be a transport error: {other:?}"),
        }
        assert!(client.probe("default", 0).unwrap());
        bad_server.join().unwrap();
    }

    #[test]
    fn pipelined_probes_answer_in_order_on_one_connection() {
        // The server takes one connection and reads every request before
        // it answers any, so a client that waited for each answer before
        // sending the next request would time out here.
        let bits = [true, false, false, true, true, false, true, false];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let requests: Vec<Request> = (0..bits.len())
                .map(|_| Request::decode(&read_frame(&mut stream).unwrap()).unwrap())
                .collect();
            for request in requests {
                let response = Response {
                    id: request.id,
                    status: STATUS_OK,
                    answer: bits[request.row as usize],
                };
                stream.write_all(&response.encode()).unwrap();
            }
            stream
        });
        let client = RemoteClient::new(ClientConfig::new(addr.to_string()));
        let rows = [6u64, 0, 3, 3, 7, 1, 2, 5];
        let answers = client
            .probe_batch("default", rows.iter().copied(), rows.len())
            .unwrap();
        let expected: Vec<bool> = rows.iter().map(|&r| bits[r as usize]).collect();
        assert_eq!(answers, expected);
        server.join().unwrap();
    }
}
