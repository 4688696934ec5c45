//! A minimal HTTP/1.1 codec over std I/O: request parsing with
//! content-length framing, response writing, keep-alive.
//!
//! The workspace builds offline, so there is no hyper/axum to lean on —
//! and none is needed: the serving tier speaks exactly the slice of
//! HTTP/1.1 a query front-end requires (request line, headers,
//! `Content-Length` bodies, persistent connections). Everything outside
//! that slice is rejected *as a protocol error the connection can
//! survive*: a malformed request becomes a 400 response, not a worker
//! panic.
//!
//! Framing rules implemented here:
//!
//! * request line + headers are bounded by [`Limits::max_head_bytes`];
//!   bodies by [`Limits::max_body_bytes`] (413 when exceeded);
//! * a body is read iff `Content-Length` is present (chunked
//!   transfer-encoding is refused — this is a JSON API, not a proxy);
//! * HTTP/1.1 connections persist unless either side says
//!   `Connection: close`; HTTP/1.0 closes unless `keep-alive` is asked.

use std::io::{BufRead, IoSlice, Write};
use std::time::Duration;

/// Hard bounds a connection's input must respect.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Max bytes of declared body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path plus optional query string).
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Headers, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (before any `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's raw query string (after the first `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Whether the connection should persist after this exchange.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if contains_ignore_ascii_case(v, "close") => false,
            Some(v) if contains_ignore_ascii_case(v, "keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Whether `needle` occurs in `haystack`, ASCII case ignored.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    haystack
        .as_bytes()
        .windows(needle.len())
        .any(|window| window.eq_ignore_ascii_case(needle.as_bytes()))
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed cleanly before sending a request line — the normal
    /// end of a keep-alive connection, not an error to report.
    Closed,
    /// Transport failure mid-request.
    Io(std::io::Error),
    /// Protocol violation; the payload is the human-readable reason.
    /// Maps to 400.
    Malformed(String),
    /// The declared body exceeds [`Limits::max_body_bytes`]. Maps to 413.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured bound.
        limit: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(reason) => write!(f, "malformed request: {reason}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
        }
    }
}

/// Reads one line terminated by `\n` (tolerating a trailing `\r`),
/// charging its bytes against `budget`.
fn read_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    first_line: bool,
) -> Result<String, HttpError> {
    let mut raw = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if first_line && raw.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Malformed("unexpected end of stream".into()))
                };
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(HttpError::Malformed("request head too large".into()));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                raw.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| HttpError::Malformed("non-UTF-8 in request head".into()))
}

/// Reads one request off the connection. Blocks until a full request
/// arrives, the peer closes ([`HttpError::Closed`]), or the stream's read
/// timeout fires ([`HttpError::Io`]).
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<HttpRequest, HttpError> {
    let mut budget = limits.max_head_bytes;
    let request_line = read_line(reader, &mut budget, true)?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_owned(), t.to_owned(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported version {other:?}"
            )))
        }
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget, false)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let request = HttpRequest {
        method,
        target,
        http11,
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; send Content-Length".into(),
        ));
    }
    let declared = match request.header("content-length") {
        None => 0,
        Some(text) => text
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {text:?}")))?,
    };
    if declared > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            declared,
            limit: limits.max_body_bytes,
        });
    }
    let mut request = request;
    if declared > 0 {
        let mut body = vec![0u8; declared];
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                HttpError::Malformed("body shorter than content-length".into())
            } else {
                HttpError::Io(e)
            }
        })?;
        request.body = body;
    }
    Ok(request)
}

/// One response under construction.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the framing set the writer adds.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// An empty response with this status.
    pub fn new(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A response carrying a JSON body: a `String`, a `&str`, or the
    /// bytes a [`JsonWriter`](expred_stats::json::JsonWriter) finished
    /// with (taken as they are).
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self::new(status)
            .with_header("content-type", "application/json")
            .with_body(body.into())
    }

    /// A response carrying a plain-text body.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(status)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// Appends one header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Sets the body.
    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Serializes the response, adding `Content-Length` and the
    /// `Connection` header (`keep-alive`/`close` per `keep_alive`). The
    /// head is assembled in one small buffer and leaves together with the
    /// body through vectored writes — on a socket, one syscall and one
    /// segment train per response — without copying the body.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = Vec::with_capacity(128);
        write!(
            head,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(head, "{name}: {value}\r\n")?;
        }
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(
            head,
            "content-length: {}\r\nconnection: {connection}\r\n\r\n",
            self.body.len()
        )?;
        let mut parts = [IoSlice::new(&head), IoSlice::new(&self.body)];
        let mut pending = &mut parts[..];
        // `advance_slices` drops exhausted slices (and an empty body), so
        // the loop ends exactly when every byte has been accepted.
        while !pending.is_empty() {
            match writer.write_vectored(pending) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut pending, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        writer.flush()
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Per-connection socket read timeout: a idle keep-alive connection held
/// open longer than this is closed so its thread can be reclaimed.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<HttpRequest, HttpError> {
        read_request(&mut BufReader::new(bytes), &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /query?x=1 HTTP/1.1\r\nHost: h\r\nX-Tenant: alice\r\n\
              Content-Length: 4\r\n\r\nbody",
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/query");
        assert_eq!(req.query(), Some("x=1"));
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.header("X-TENANT"), Some("alice"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_controls_persistence() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive());
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive(), "HTTP/1.0 defaults to close");
        let old_ka = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(old_ka.keep_alive());
    }

    #[test]
    fn malformed_requests_are_malformed_errors() {
        for bad in [
            &b"NOT_A_REQUEST\r\n\r\n"[..],
            b"GET / HTTP/2\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: oops\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(HttpError::Malformed(_))),
                "accepted: {}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        assert!(matches!(parse(b"GET"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn body_and_head_limits_are_enforced() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let over_body = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        match read_request(&mut BufReader::new(&over_body[..]), &limits) {
            Err(HttpError::BodyTooLarge {
                declared: 9,
                limit: 8,
            }) => {}
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        let huge_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        assert!(matches!(
            read_request(&mut BufReader::new(huge_head.as_bytes()), &limits),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn two_requests_frame_cleanly_on_one_stream() {
        let stream: &[u8] = b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                              GET /metrics HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(stream);
        let first = read_request(&mut reader, &Limits::default()).unwrap();
        assert_eq!(first.body, b"hi");
        let second = read_request(&mut reader, &Limits::default()).unwrap();
        assert_eq!(second.path(), "/metrics");
        assert!(matches!(
            read_request(&mut reader, &Limits::default()),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn responses_serialize_with_framing_headers() {
        let mut out = Vec::new();
        HttpResponse::json(200, "{\"ok\":true}")
            .with_header("retry-after", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        HttpResponse::text(429, "shed")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("connection: close\r\n"));
    }

    /// A sink that accepts 1..=`max` bytes per call, across slice
    /// boundaries like a socket does, and fails every third call with
    /// `Interrupted`.
    struct Dribble {
        accepted: Vec<u8>,
        calls: usize,
        max: usize,
        vectored: bool,
    }

    impl Dribble {
        fn quota(&mut self) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            Ok(1 + self.calls % self.max)
        }
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.quota()?.min(buf.len());
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if !self.vectored {
                // What `Write` does by default: the first non-empty slice.
                let first = bufs
                    .iter()
                    .find(|b| !b.is_empty())
                    .map_or(&[][..], |b| &**b);
                return self.write(first);
            }
            let mut left = self.quota()?;
            let before = self.accepted.len();
            for buf in bufs {
                let n = left.min(buf.len());
                self.accepted.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.accepted.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The bytes `write_to` produced when it built the head with
    /// `format!` and wrote head and body separately.
    fn reference_bytes(response: &HttpResponse, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            response.status,
            reason_phrase(response.status)
        );
        for (name, value) in &response.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\n", response.body.len()));
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n"
        } else {
            "connection: close\r\n"
        });
        head.push_str("\r\n");
        [head.as_bytes(), &response.body].concat()
    }

    #[test]
    fn partial_and_interrupted_writes_lose_no_byte() {
        let body: String = (0..3_000).map(|i| format!("{i},")).collect();
        let responses = [
            HttpResponse::json(200, body),
            HttpResponse::json(429, "{\"error\":\"saturated\"}").with_header("retry-after", "2"),
            HttpResponse::new(404),
            HttpResponse::text(200, "ok\n"),
        ];
        for response in &responses {
            for keep_alive in [true, false] {
                let expected = reference_bytes(response, keep_alive);
                for (max, vectored) in [(1, false), (7, true), (64, false), (4096, true)] {
                    let mut sink = Dribble {
                        accepted: Vec::new(),
                        calls: 0,
                        max,
                        vectored,
                    };
                    response.write_to(&mut sink, keep_alive).expect("writes");
                    assert_eq!(
                        sink.accepted, expected,
                        "status {} keep_alive {keep_alive} max {max} vectored {vectored}",
                        response.status
                    );
                }
            }
        }
    }

    #[test]
    fn a_sink_that_accepts_nothing_is_an_error_not_a_spin() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let error = HttpResponse::text(200, "ok")
            .write_to(&mut Full, true)
            .expect_err("no progress");
        assert_eq!(error.kind(), std::io::ErrorKind::WriteZero);
    }
}
