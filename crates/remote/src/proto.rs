//! The length-prefixed wire protocol between the remote UDF client and
//! server.
//!
//! One probe is one request frame and (normally) one response frame.
//! Frames are tiny and fixed-layout — no JSON, no allocation surprises on
//! the hot path — and every multi-byte integer is little-endian:
//!
//! ```text
//! request  := u32 len | u64 request_id | u8 op | u16 oracle_len
//!             | oracle bytes | u64 row
//! response := u32 len | u64 request_id | u8 status | u8 answer
//! ```
//!
//! `len` counts the bytes *after* the prefix. `request_id` is chosen by
//! the client and echoed verbatim, which is how a client with many
//! pipelined probes on one connection checks that each answer is the
//! one it expects.
//!
//! The decoder is paranoid by design: a length prefix over
//! [`MAX_FRAME_BYTES`], a truncated body, or an undecodable payload is a
//! [`ProtoError::Malformed`], never a panic or an unbounded allocation.

use std::io::{self, Read, Write};

/// Upper bound on a frame body. Real frames are tens of bytes; anything
/// claiming more is corruption by definition.
pub const MAX_FRAME_BYTES: usize = 4096;

/// Request opcode: evaluate a named oracle on one row.
pub const OP_PROBE: u8 = 1;

/// Response status: the probe succeeded, `answer` is valid.
pub const STATUS_OK: u8 = 0;
/// Response status: the server has no oracle by that name.
pub const STATUS_UNKNOWN_ORACLE: u8 = 1;
/// Response status: the server could not decode the request.
pub const STATUS_BAD_REQUEST: u8 = 2;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection (clean EOF between frames).
    Closed,
    /// An I/O failure (includes read timeouts surfaced by the socket).
    Io(io::Error),
    /// The bytes violate the protocol: oversized length prefix,
    /// truncated body, unknown opcode, or inconsistent inner lengths.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// One probe request: evaluate oracle `oracle` on row `row`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id, echoed by the response.
    pub id: u64,
    /// Which named oracle to evaluate.
    pub oracle: String,
    /// The row to evaluate it on.
    pub row: u64,
}

/// One probe response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// One of the `STATUS_*` codes.
    pub status: u8,
    /// The oracle's answer (valid only when `status == STATUS_OK`).
    pub answer: bool,
}

impl Request {
    /// Serializes the request as one frame.
    pub fn encode(&self) -> Vec<u8> {
        let name = self.oracle.as_bytes();
        debug_assert!(name.len() <= u16::MAX as usize);
        let body_len = 8 + 1 + 2 + name.len() + 8;
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(OP_PROBE);
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.row.to_le_bytes());
        out
    }

    /// Decodes a request frame body (the bytes after the length prefix).
    pub fn decode(body: &[u8]) -> Result<Self, ProtoError> {
        if body.len() < 8 + 1 + 2 {
            return Err(ProtoError::Malformed("request body too short"));
        }
        let id = u64::from_le_bytes(body[0..8].try_into().unwrap());
        if body[8] != OP_PROBE {
            return Err(ProtoError::Malformed("unknown opcode"));
        }
        let name_len = u16::from_le_bytes(body[9..11].try_into().unwrap()) as usize;
        let expected = 11 + name_len + 8;
        if body.len() != expected {
            return Err(ProtoError::Malformed("request length mismatch"));
        }
        let oracle = std::str::from_utf8(&body[11..11 + name_len])
            .map_err(|_| ProtoError::Malformed("oracle name is not UTF-8"))?
            .to_owned();
        let row = u64::from_le_bytes(body[11 + name_len..expected].try_into().unwrap());
        Ok(Request { id, oracle, row })
    }
}

impl Response {
    /// Serializes the response as one frame.
    pub fn encode(&self) -> [u8; 14] {
        let mut out = [0u8; 14];
        out[0..4].copy_from_slice(&10u32.to_le_bytes());
        out[4..12].copy_from_slice(&self.id.to_le_bytes());
        out[12] = self.status;
        out[13] = self.answer as u8;
        out
    }

    /// Decodes a response frame body.
    pub fn decode(body: &[u8]) -> Result<Self, ProtoError> {
        if body.len() != 10 {
            return Err(ProtoError::Malformed("response length mismatch"));
        }
        Ok(Response {
            id: u64::from_le_bytes(body[0..8].try_into().unwrap()),
            status: body[8],
            answer: body[9] != 0,
        })
    }
}

/// Reads one length-prefixed frame body. Distinguishes a clean close
/// (EOF at a frame boundary → [`ProtoError::Closed`]) from a truncation
/// mid-frame (→ [`ProtoError::Malformed`]).
pub fn read_frame(reader: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Err(ProtoError::Closed)
                } else {
                    Err(ProtoError::Malformed("EOF inside length prefix"))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Malformed("frame length exceeds bound"));
    }
    let mut body = vec![0u8; len];
    let mut read = 0;
    while read < len {
        match reader.read(&mut body[read..]) {
            Ok(0) => return Err(ProtoError::Malformed("EOF inside frame body")),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(body)
}

/// Writes one already-encoded frame.
pub fn write_frame(writer: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    writer.write_all(frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let req = Request {
            id: 0xDEAD_BEEF_1234_5678,
            oracle: "default".into(),
            row: 42,
        };
        let frame = req.encode();
        let mut cursor = io::Cursor::new(&frame);
        let body = read_frame(&mut cursor).unwrap();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn response_roundtrips() {
        for (status, answer) in [
            (STATUS_OK, true),
            (STATUS_OK, false),
            (STATUS_UNKNOWN_ORACLE, false),
        ] {
            let resp = Response {
                id: 7,
                status,
                answer,
            };
            let frame = resp.encode();
            let mut cursor = io::Cursor::new(&frame[..]);
            let body = read_frame(&mut cursor).unwrap();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn oversized_length_prefix_is_malformed_not_oom() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        frame.extend_from_slice(b"garbage");
        let mut cursor = io::Cursor::new(&frame);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::Malformed("frame length exceeds bound"))
        ));
    }

    #[test]
    fn eof_at_boundary_is_closed_eof_inside_is_malformed() {
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Err(ProtoError::Closed)));

        let req = Request {
            id: 1,
            oracle: "o".into(),
            row: 0,
        };
        let frame = req.encode();
        let mut truncated = io::Cursor::new(frame[..frame.len() - 3].to_vec());
        assert!(matches!(
            read_frame(&mut truncated),
            Err(ProtoError::Malformed("EOF inside frame body"))
        ));
        let mut half_prefix = io::Cursor::new(frame[..2].to_vec());
        assert!(matches!(
            read_frame(&mut half_prefix),
            Err(ProtoError::Malformed("EOF inside length prefix"))
        ));
    }

    #[test]
    fn corrupt_bodies_are_rejected() {
        assert!(matches!(
            Request::decode(&[0u8; 4]),
            Err(ProtoError::Malformed("request body too short"))
        ));
        let mut bad_op = Request {
            id: 1,
            oracle: "x".into(),
            row: 2,
        }
        .encode();
        bad_op[12] = 99; // opcode byte (4-byte prefix + 8-byte id)
        assert!(matches!(
            Request::decode(&bad_op[4..]),
            Err(ProtoError::Malformed("unknown opcode"))
        ));
        // Inner name length inconsistent with the frame length.
        let mut bad_len = Request {
            id: 1,
            oracle: "abcd".into(),
            row: 2,
        }
        .encode();
        bad_len[13] = 200; // oracle_len low byte
        assert!(matches!(
            Request::decode(&bad_len[4..]),
            Err(ProtoError::Malformed("request length mismatch"))
        ));
        assert!(Response::decode(&[0u8; 3]).is_err());
    }
}
