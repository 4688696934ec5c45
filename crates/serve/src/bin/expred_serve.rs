//! `expred-serve` — run the serving tier from the command line.
//!
//! ```text
//! expred-serve [--addr HOST:PORT] [--max-in-flight N] [--max-connections N]
//!              [--max-tenants N] [--max-rows N] [--pool]
//!              [--udf-latency-us MICROS] [--data-dir PATH]
//! ```
//!
//! With `--data-dir`, every tenant's engine persists its paid-for answers
//! under `<data-dir>/<tenant>/`, and `SIGTERM`/`SIGINT` trigger a graceful
//! drain: stop accepting, finish in-flight requests, flush persistence,
//! exit 0. The exit line reports how long the drain took, from the
//! signal to the flushed persistence. A subsequent boot with the same
//! `--data-dir` rehydrates the answers and serves repeats at zero fresh
//! UDF cost (warm restart).

use expred_serve::{serve, ServeConfig};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: expred-serve [--addr HOST:PORT] [--max-in-flight N] [--max-connections N]\n\
         \x20                   [--max-tenants N] [--max-rows N] [--pool]\n\
         \x20                   [--udf-latency-us MICROS] [--data-dir PATH]"
    );
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(parsed) => parsed,
        None => {
            eprintln!("expred-serve: {flag} needs a valid value");
            usage();
        }
    }
}

/// The self-pipe: the signal handler writes one byte to its write end
/// (`write(2)` is async-signal-safe), and the main thread blocks reading
/// the other end, so it wakes once per signal instead of on a clock.
#[cfg(unix)]
mod wake {
    use std::io::Read;
    use std::os::unix::io::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    /// Set by the signal handler; the main thread re-checks it on every
    /// wake-up. A handler may only do async-signal-safe work, and a
    /// relaxed atomic store is exactly that.
    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    /// The write end's fd; -1 until installed.
    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Relaxed);
        let fd = WRITE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // A failed write means a full pipe (a signal storm), which
            // already holds a wake-up.
            // SAFETY: `fd` is the write end `install` leaked, so it stays
            // open for the life of the process, and the buffer is a live
            // one-byte array.
            unsafe { write(fd, [1u8].as_ptr(), 1) };
        }
    }

    /// Installs the SIGTERM/SIGINT handlers and returns the end to read.
    pub fn install() -> std::io::Result<UnixStream> {
        let (read_end, write_end) = UnixStream::pair()?;
        // Non-blocking, so the handler never blocks on a full pipe.
        write_end.set_nonblocking(true)?;
        WRITE_FD.store(write_end.into_raw_fd(), Ordering::SeqCst);
        // `signal(2)` via the C library std already links against —
        // SIGTERM is 15 and SIGINT is 2 on every Unix we target.
        // SAFETY: `on_signal` does only async-signal-safe work: atomic
        // loads and stores and one `write(2)`.
        unsafe {
            signal(15, on_signal); // SIGTERM
            signal(2, on_signal); // SIGINT
        }
        Ok(read_end)
    }

    /// Blocks until a handler has run. The write end is never closed, so
    /// the read only returns for a wake-up byte or an interrupted call.
    pub fn wait(mut read_end: UnixStream) {
        let mut byte = [0u8; 1];
        while !SHUTDOWN.load(Ordering::Relaxed) {
            let _ = read_end.read(&mut byte);
        }
    }
}

/// No signals to catch: serve until the process is killed.
#[cfg(not(unix))]
mod wake {
    pub fn install() -> std::io::Result<()> {
        Ok(())
    }

    pub fn wait(_: ()) {
        loop {
            std::thread::park();
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_value(&arg, args.next()),
            "--max-in-flight" => config.max_in_flight = parse_value(&arg, args.next()),
            "--max-connections" => config.max_connections = parse_value(&arg, args.next()),
            "--max-tenants" => config.max_tenants = parse_value(&arg, args.next()),
            "--max-rows" => config.max_rows = parse_value(&arg, args.next()),
            "--pool" => config.engine.pooled = true,
            "--udf-latency-us" => {
                config.engine.udf_latency = Duration::from_micros(parse_value(&arg, args.next()))
            }
            "--data-dir" => {
                let dir: String = parse_value(&arg, args.next());
                config.engine.data_dir = Some(dir.into());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("expred-serve: unknown flag {other}");
                usage();
            }
        }
    }
    let wake = match wake::install() {
        Ok(wake) => wake,
        Err(e) => {
            eprintln!("expred-serve: failed to install signal handlers: {e}");
            std::process::exit(1);
        }
    };
    let mut handle = match serve(&*addr, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("expred-serve: failed to bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("expred-serve listening on http://{}", handle.local_addr());
    println!("routes: GET /health, GET /metrics, GET /metrics.json, POST /query");
    // Serve until signalled, then drain gracefully (finish in-flight
    // requests, flush tenant persistence) and exit cleanly.
    wake::wait(wake);
    let signalled = Instant::now();
    eprintln!("expred-serve: shutdown signal received; draining");
    handle.shutdown();
    drop(handle);
    eprintln!(
        "expred-serve: drained in {:.1} ms; exiting",
        signalled.elapsed().as_secs_f64() * 1e3
    );
}
