//! The UDF oracle server.
//!
//! A std-only TCP server that evaluates *named oracles* — precomputed
//! boolean label vectors registered under a string name — over the
//! length-prefixed protocol in [`crate::proto`]. Each accepted
//! connection gets a worker thread that answers its requests in the
//! order they arrive. A worker writes its answers through a buffer and
//! flushes only when no request is waiting, so the answers to a
//! pipelined batch leave together.
//!
//! Shutdown is event-driven: a loopback connect wakes the blocking
//! `accept`, and the accept thread then shuts each live connection's
//! socket, which wakes its worker's blocking read, and joins the
//! workers. No thread polls a clock, and none outlives [`UdfServer::shutdown`].

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::client::TIMEOUT;
use crate::proto::{
    read_frame, Request, Response, STATUS_BAD_REQUEST, STATUS_OK, STATUS_UNKNOWN_ORACLE,
};

/// A named-oracle registry: oracle name → the label for each row.
pub type OracleMap = HashMap<String, Arc<Vec<bool>>>;

/// The server's fault plan, of which only the healthy one is left. A
/// shim kept because the benchmark passes it to [`UdfServer::bind`];
/// directions 4 and 5 of ROADMAP.md remove it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan;

impl FaultPlan {
    /// The only plan: every request is answered at once.
    pub fn healthy() -> Self {
        FaultPlan
    }
}

/// Each live connection's socket, by accept index, so the accept thread
/// can wake its worker at shutdown.
type Live = Mutex<HashMap<u64, TcpStream>>;

/// A running UDF oracle server (owns its accept thread).
pub struct UdfServer {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl UdfServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral test port),
    /// registers `oracles`, and starts accepting. The plan is the
    /// [`FaultPlan`] shim's and changes nothing.
    pub fn bind(addr: &str, oracles: OracleMap, _plan: FaultPlan) -> io::Result<UdfServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("udf-server-accept".into())
            .spawn(move || accept_loop(listener, &oracles, &accept_stop))?;
        Ok(UdfServer {
            stop,
            addr: local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts every live connection and joins every
    /// thread the server started.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, TIMEOUT);
        let _ = handle.join();
    }
}

impl Drop for UdfServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Each update of the live sockets is one insert or remove, so a guard
/// recovered from a panicked holder still sees a whole map.
fn lock(live: &Live) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
    live.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(listener: TcpListener, oracles: &OracleMap, stop: &AtomicBool) {
    let live = &Live::default();
    std::thread::scope(|scope| {
        for index in 0u64.. {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => continue,
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(handle) = stream.try_clone() else {
                continue;
            };
            lock(live).insert(index, handle);
            let spawned = std::thread::Builder::new()
                .name(format!("udf-server-conn-{index}"))
                .spawn_scoped(scope, move || {
                    let _ = serve_connection(stream, oracles);
                    lock(live).remove(&index);
                });
            if spawned.is_err() {
                lock(live).remove(&index);
            }
        }
        // This thread is the only one that registers sockets, so every
        // worker still running is in the map. Leaving the scope joins them.
        for stream in lock(live).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    });
}

fn serve_connection(stream: TcpStream, oracles: &OracleMap) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // A clean close, a shut socket and a malformed frame all end it.
    while let Ok(body) = read_frame(&mut reader) {
        writer.write_all(&answer(&body, oracles).encode())?;
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
    }
    Ok(())
}

fn answer(body: &[u8], oracles: &OracleMap) -> Response {
    let Ok(request) = Request::decode(body) else {
        return Response {
            id: 0,
            status: STATUS_BAD_REQUEST,
            answer: false,
        };
    };
    let (status, answer) = match oracles.get(&request.oracle) {
        Some(labels) => match labels.get(request.row as usize) {
            Some(&bit) => (STATUS_OK, bit),
            None => (STATUS_BAD_REQUEST, false),
        },
        None => (STATUS_UNKNOWN_ORACLE, false),
    };
    Response {
        id: request.id,
        status,
        answer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::write_frame as send;
    use std::time::{Duration, Instant};

    fn oracle(bits: &[bool]) -> OracleMap {
        let mut map = HashMap::new();
        map.insert("default".to_string(), Arc::new(bits.to_vec()));
        map
    }

    fn probe(stream: &mut TcpStream, id: u64, oracle: &str, row: u64) -> Response {
        let request = Request {
            id,
            oracle: oracle.into(),
            row,
        };
        send(stream, &request.encode()).unwrap();
        let body = read_frame(stream).unwrap();
        Response::decode(&body).unwrap()
    }

    #[test]
    fn healthy_server_answers_registered_oracles() {
        let server = UdfServer::bind(
            "127.0.0.1:0",
            oracle(&[true, false, true]),
            FaultPlan::healthy(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        assert!(probe(&mut stream, 1, "default", 0).answer);
        assert!(!probe(&mut stream, 2, "default", 1).answer);
        assert!(probe(&mut stream, 3, "default", 2).answer);
        assert_eq!(
            probe(&mut stream, 4, "nonesuch", 0).status,
            STATUS_UNKNOWN_ORACLE
        );
        assert_eq!(
            probe(&mut stream, 5, "default", 99).status,
            STATUS_BAD_REQUEST
        );
    }

    #[test]
    fn ids_echo_back_verbatim() {
        let server = UdfServer::bind("127.0.0.1:0", oracle(&[true]), FaultPlan::healthy()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for id in [0u64, 1, u64::MAX, 0xCAFE_BABE] {
            assert_eq!(probe(&mut stream, id, "default", 0).id, id);
        }
    }

    #[test]
    fn shutdown_is_prompt_even_with_idle_connections() {
        let mut server =
            UdfServer::bind("127.0.0.1:0", oracle(&[true]), FaultPlan::healthy()).unwrap();
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        // One answer proves the worker is up and blocked on its next read.
        assert_eq!(probe(&mut idle, 1, "default", 0).status, STATUS_OK);
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            started.elapsed()
        );
        // The worker's socket was shut: the idle peer reads a close.
        idle.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert!(read_frame(&mut idle).is_err());
    }
}
