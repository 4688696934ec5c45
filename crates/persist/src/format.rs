//! The on-disk format: checksummed, length-prefixed, versioned frames.
//!
//! Both file kinds (WAL and snapshot) share one layout:
//!
//! ```text
//! file   := header frame*
//! header := magic "EXPD" (4 bytes) | format version (u32 le)
//! frame  := payload length (u32 le) | crc32(payload) (u32 le) | payload
//! ```
//!
//! The payload's first byte is a record tag; everything after it is
//! fixed-width little-endian fields. Decoding is *defensive by
//! construction*: a frame whose length prefix overruns the buffer (a
//! truncated tail), whose CRC does not match (bit rot, a torn write),
//! whose tag is unknown, or whose payload length disagrees with its tag
//! stops replay at that point — the valid prefix before it is recovered,
//! the tail is never trusted. Recovery never panics on file contents.
//!
//! # What a frame holds, and what a torn one costs
//!
//! Both files are page-granular. A snapshot holds one
//! [`Record::PageImage`] per 4 096-row page of a namespace: the page's
//! [`PagePlanes`] (only the 64-row words that hold an answer are written),
//! ≈ 0.26 bytes per answer on a full page. The WAL holds, per page a
//! stage batch added two or more rows to, a page image of just those
//! rows, and a [`Record::Row`] for a page that gained one row. Page
//! numbers stop at [`PAGE_LIMIT`], where row ids leave the `u32` space.
//! Every frame carries its own CRC, so damage costs the frame it hits and
//! the frames after it — at most a page of answers per frame — and never
//! a frame before it. [`Record::RowBatch`], 13 bytes per row, is no longer written, but
//! files that hold it (row-batch snapshots, and WALs before page-image
//! frames) replay unchanged: the version number did not move, a new tag
//! did.
//!
//! # The legacy timestamp bytes
//!
//! Row, row-batch and page-image payloads each keep eight bytes that
//! once held a write time (Unix nanos) for a cache TTL. No answer
//! expires now, so nothing reads them: this module is the only code
//! that knows they exist. Encoding writes zeros there (`LEGACY_STAMP`)
//! and decoding skips whatever is there, so the frame layout and sizes
//! did not change, and a file an earlier build stamped reads as before.

use std::io::Read;

/// File magic: the first four bytes of every persist file.
pub(crate) const MAGIC: [u8; 4] = *b"EXPD";

/// Current format version. Files written by a different version are
/// ignored wholesale on recovery (never partially interpreted).
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Length of the file header (magic + version).
pub const HEADER_LEN: usize = 8;

/// Per-frame overhead (length prefix + CRC).
pub(crate) const FRAME_OVERHEAD: usize = 8;

/// Upper bound on a single frame's payload; a corrupt length prefix
/// must not make recovery attempt a multi-gigabyte allocation.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// The page the index holds, the snapshot writes and rehydration copies:
/// the workspace's one page size and page type, as in the live cache.
pub use expred_stats::bits::{PagePlanes, PAGE_ROWS, PAGE_WORDS};

/// What the encoder writes in each frame's eight legacy timestamp bytes
/// (see the module docs).
const LEGACY_STAMP: [u8; 8] = [0; 8];

/// Pages in the `u32` row space: a page numbered at or past this holds
/// rows no frame can name.
pub const PAGE_LIMIT: usize = u32::MAX as usize / PAGE_ROWS + 1;

/// The longest page-image frame: a page with an answer in every word.
pub(crate) const MAX_PAGE_IMAGE_FRAME: usize =
    FRAME_OVERHEAD + 1 + 24 + 4 + 8 + 8 + 16 * PAGE_WORDS;

/// The serialized file header.
pub fn file_header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

/// Whether `bytes` starts with a header this version can read.
pub fn check_header(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN
        && bytes[..4] == MAGIC
        && bytes[4..HEADER_LEN] == FORMAT_VERSION.to_le_bytes()
}

/// CRC-32 (IEEE, reflected) lookup table, built at compile time so the
/// crate stays dependency-free.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) over `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The durable identity of one cache namespace.
///
/// Deliberately *not* the runtime `CacheNamespace`: that keys by
/// `TableId`, a process-local counter that means nothing after a
/// restart. Here `table` is the table's **schema fingerprint**
/// (structural, process-independent) and `version` its **content
/// fingerprint** — two tables agreeing on both hold the same rows under
/// the same columns, so an answer persisted under this key is valid for
/// any future process that re-materializes the same table state. The
/// engine maintains the `TableId` → schema-fingerprint mapping at
/// registration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PersistKey {
    /// The UDF's stable fingerprint.
    pub udf: u64,
    /// The table's schema (structure) fingerprint.
    pub table: u64,
    /// The table's version (`expred_table::Table::version`).
    pub version: u64,
}

/// One durable record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// One fresh row answer.
    Row {
        /// Namespace the answer belongs to.
        key: PersistKey,
        /// Row index within the table.
        row: u32,
        /// The UDF's answer.
        answer: bool,
    },
    /// Several rows of one namespace in one frame: what stage batches in
    /// the WAL, and whole namespaces in snapshots, were written as before
    /// page images. Read, never written.
    RowBatch {
        /// Namespace the rows belong to.
        key: PersistKey,
        /// `(row, answer)` pairs.
        rows: Vec<(u32, bool)>,
    },
    /// One page of a namespace as bit planes: a page of the index
    /// (snapshot compaction), or the rows a stage batch added to a page
    /// (the WAL).
    PageImage {
        /// Namespace the page belongs to.
        key: PersistKey,
        /// Page number, below [`PAGE_LIMIT`]: the page holds rows
        /// `[4096 * page, 4096 * page + 4096)`.
        page: u32,
        /// The page's answers.
        planes: Box<PagePlanes>,
    },
    /// Everything before this point is cleared: replay drops all
    /// namespaces seen so far. Builds that could clear the whole store
    /// logged it; the codec still reads and writes the frame so their
    /// logs replay as they did, but no build writes it now.
    TombstoneAll,
    /// Pass-rate counters for one namespace, as builds before the row
    /// tier held every answer logged them. The codec still reads and
    /// writes the frame so old logs decode, but replay skips it (the
    /// answers carry the rates now) and no snapshot writes it again.
    Selectivity {
        /// Namespace the counters describe.
        key: PersistKey,
        /// Observed passing evaluations.
        passes: u64,
        /// Observed total evaluations.
        total: u64,
    },
}

const TAG_ROW: u8 = 0x01;
const TAG_TOMBSTONE_ALL: u8 = 0x02;
const TAG_SELECTIVITY: u8 = 0x04;
const TAG_ROW_BATCH: u8 = 0x05;
const TAG_PAGE_IMAGE: u8 = 0x06;

/// Why a frame could not be decoded. Every variant means the same thing
/// to recovery: stop here, keep the prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends inside the frame (truncated tail).
    Truncated,
    /// The payload does not match its checksum.
    BadChecksum,
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    BadLength,
    /// Unknown record tag, or a payload whose size disagrees with it.
    Malformed,
}

fn put_key(out: &mut Vec<u8>, key: PersistKey) {
    out.extend_from_slice(&key.udf.to_le_bytes());
    out.extend_from_slice(&key.table.to_le_bytes());
    out.extend_from_slice(&key.version.to_le_bytes());
}

/// Appends `record` to `out` as one framed, checksummed unit.
pub fn encode_frame(record: &Record, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(64);
    match record {
        Record::Row { key, row, answer } => {
            payload.push(TAG_ROW);
            put_key(&mut payload, *key);
            payload.extend_from_slice(&row.to_le_bytes());
            payload.push(*answer as u8);
            payload.extend_from_slice(&LEGACY_STAMP);
        }
        Record::RowBatch { key, rows } => {
            payload.push(TAG_ROW_BATCH);
            put_key(&mut payload, *key);
            payload.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for (row, answer) in rows {
                payload.extend_from_slice(&row.to_le_bytes());
                payload.push(*answer as u8);
                payload.extend_from_slice(&LEGACY_STAMP);
            }
        }
        Record::PageImage { key, page, planes } => {
            return encode_page_image(*key, *page, planes, out);
        }
        Record::TombstoneAll => payload.push(TAG_TOMBSTONE_ALL),
        Record::Selectivity { key, passes, total } => {
            payload.push(TAG_SELECTIVITY);
            put_key(&mut payload, *key);
            payload.extend_from_slice(&passes.to_le_bytes());
            payload.extend_from_slice(&total.to_le_bytes());
        }
    }
    put_frame(&payload, out);
}

/// Appends `page` of `key` to `out` as one page-image frame: the frame
/// [`encode_frame`] writes for a [`Record::PageImage`] of the same
/// planes, read from wherever they are.
pub(crate) fn encode_page_image(
    key: PersistKey,
    page: u32,
    planes: &PagePlanes,
    out: &mut Vec<u8>,
) {
    let mut payload = Vec::with_capacity(64);
    payload.push(TAG_PAGE_IMAGE);
    put_key(&mut payload, key);
    payload.extend_from_slice(&page.to_le_bytes());
    payload.extend_from_slice(&LEGACY_STAMP);
    // Only the words that hold an answer are written; `present` says
    // which.
    let present = (0..PAGE_WORDS)
        .filter(|&w| planes.known[w] != 0)
        .fold(0u64, |mask, w| mask | 1 << w);
    payload.extend_from_slice(&present.to_le_bytes());
    for w in (0..PAGE_WORDS).filter(|w| present >> w & 1 != 0) {
        payload.extend_from_slice(&planes.known[w].to_le_bytes());
        payload.extend_from_slice(&planes.answer[w].to_le_bytes());
    }
    put_frame(&payload, out);
}

/// Frames `payload`: its length, its CRC, itself.
fn put_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A little-endian cursor over a payload; every read is bounds-checked
/// so corrupt payloads surface as [`DecodeError::Malformed`], never a
/// slice panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Malformed)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Malformed);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Skips the legacy timestamp bytes (see the module docs).
    fn legacy_stamp(&mut self) -> Result<(), DecodeError> {
        self.take(LEGACY_STAMP.len()).map(drop)
    }

    fn key(&mut self) -> Result<PersistKey, DecodeError> {
        Ok(PersistKey {
            udf: self.u64()?,
            table: self.u64()?,
            version: self.u64()?,
        })
    }

    /// A page image's body after its tag: the page's key and number,
    /// with its answers written into `planes`, which start empty.
    fn page_image(&mut self, planes: &mut PagePlanes) -> Result<(PersistKey, u32), DecodeError> {
        let key = self.key()?;
        let page = self.u32()?;
        // A page past the u32 row space names rows no other frame
        // can: its payload disagrees with its tag.
        if page as usize >= PAGE_LIMIT {
            return Err(DecodeError::Malformed);
        }
        self.legacy_stamp()?;
        let present = self.u64()?;
        for w in (0..PAGE_WORDS).filter(|w| present >> w & 1 != 0) {
            planes.known[w] = self.u64()?;
            planes.answer[w] = self.u64()? & planes.known[w];
        }
        Ok((key, page))
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// The payload of the frame at the start of `bytes`, CRC-checked, and
/// how many bytes the frame occupies.
fn frame_payload(bytes: &[u8]) -> Result<(&[u8], usize), DecodeError> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(DecodeError::Truncated);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(DecodeError::BadLength);
    }
    let want = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let end = FRAME_OVERHEAD + len;
    if bytes.len() < end {
        return Err(DecodeError::Truncated);
    }
    let payload = &bytes[FRAME_OVERHEAD..end];
    if crc32(payload) != want {
        return Err(DecodeError::BadChecksum);
    }
    Ok((payload, end))
}

/// Decodes one frame at the start of `bytes`, returning the record and
/// how many bytes the frame occupied.
pub fn decode_frame(bytes: &[u8]) -> Result<(Record, usize), DecodeError> {
    let (payload, end) = frame_payload(bytes)?;
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let record = match c.u8()? {
        TAG_ROW => {
            let (key, row, answer) = (c.key()?, c.u32()?, c.u8()? != 0);
            c.legacy_stamp()?;
            Record::Row { key, row, answer }
        }
        TAG_ROW_BATCH => {
            let key = c.key()?;
            let count = c.u32()? as usize;
            // 13 bytes per entry: a count that overruns the payload is
            // rejected before any allocation is sized by it.
            if count > payload.len() / 13 {
                return Err(DecodeError::Malformed);
            }
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push((c.u32()?, c.u8()? != 0));
                c.legacy_stamp()?;
            }
            Record::RowBatch { key, rows }
        }
        TAG_PAGE_IMAGE => {
            let mut planes = Box::new(PagePlanes::empty());
            let (key, page) = c.page_image(&mut planes)?;
            Record::PageImage { key, page, planes }
        }
        TAG_TOMBSTONE_ALL => Record::TombstoneAll,
        TAG_SELECTIVITY => Record::Selectivity {
            key: c.key()?,
            passes: c.u64()?,
            total: c.u64()?,
        },
        _ => return Err(DecodeError::Malformed),
    };
    if !c.done() {
        return Err(DecodeError::Malformed);
    }
    Ok((record, end))
}

/// Decodes the page-image frame at the start of `bytes` as
/// [`decode_frame`] decodes its [`Record::PageImage`], but into `planes`
/// (empty), wherever the caller keeps them. Returns the page's key and
/// number and how many bytes the frame occupied; a frame of any other
/// record is [`DecodeError::Malformed`].
pub(crate) fn decode_page_image(
    bytes: &[u8],
    planes: &mut PagePlanes,
) -> Result<(PersistKey, u32, usize), DecodeError> {
    let (payload, end) = frame_payload(bytes)?;
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    if c.u8()? != TAG_PAGE_IMAGE {
        return Err(DecodeError::Malformed);
    }
    let (key, page) = c.page_image(planes)?;
    if !c.done() {
        return Err(DecodeError::Malformed);
    }
    Ok((key, page, end))
}

/// Reads every valid frame from `reader` (a file after its header),
/// calling `visit(offset, len, record)` per frame, `offset` counted from
/// the reader's start. Returns the byte length of the valid prefix;
/// reading stops at the first bad frame. One frame buffer is reused
/// throughout, so the memory held is the largest frame, not the file,
/// and a length prefix past [`MAX_PAYLOAD`] or past the end of the input
/// sizes nothing.
pub(crate) fn scan_frames(mut reader: impl Read, mut visit: impl FnMut(u64, usize, Record)) -> u64 {
    let (mut at, mut frame) = (0u64, Vec::new());
    loop {
        frame.resize(FRAME_OVERHEAD, 0);
        if reader.read_exact(&mut frame).is_err() {
            break;
        }
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as u64;
        if len > MAX_PAYLOAD as u64 {
            break;
        }
        // Grows only as far as the input goes: a truncated tail reads
        // short, and `decode_frame` refuses it.
        if (&mut reader).take(len).read_to_end(&mut frame).is_err() {
            break;
        }
        let Ok((record, used)) = decode_frame(&frame) else {
            break;
        };
        visit(at, used, record);
        at += used as u64;
    }
    at
}

/// Replays every valid frame from the start of `bytes` (which excludes
/// the file header), calling `apply` per record: the scanner that opening
/// a store reads its files with, over a buffer. Returns the byte length
/// of the valid prefix; reading stops at the first bad frame. `pub` as a
/// test seam for `tests/format_fixture.rs`.
pub fn replay_frames(bytes: &[u8], mut apply: impl FnMut(Record)) -> usize {
    scan_frames(bytes, |_, _, record| apply(record)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> PersistKey {
        PersistKey {
            udf: n,
            table: n + 1,
            version: n + 2,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = [
            Record::Row {
                key: key(7),
                row: 42,
                answer: true,
            },
            Record::RowBatch {
                key: key(1),
                rows: vec![(0, false), (9, true), (u32::MAX, true)],
            },
            Record::TombstoneAll,
            Record::Selectivity {
                key: key(3),
                passes: 10,
                total: 40,
            },
            Record::PageImage {
                key: key(4),
                page: 7,
                planes: {
                    let mut planes = Box::new(PagePlanes::empty());
                    planes.merge(0, 0b1011, 0b0010);
                    planes.merge(63, 1 << 63, 1 << 63);
                    planes
                },
            },
            Record::PageImage {
                key: key(4),
                page: (PAGE_LIMIT - 1) as u32,
                planes: Box::new(PagePlanes::empty()),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            encode_frame(r, &mut buf);
        }
        let mut got = Vec::new();
        let valid = replay_frames(&buf, |r| got.push(r));
        assert_eq!(valid, buf.len());
        assert_eq!(got, records);
    }

    #[test]
    fn truncation_recovers_the_frame_prefix() {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for i in 0..5u32 {
            encode_frame(
                &Record::Row {
                    key: key(1),
                    row: i,
                    answer: i % 2 == 0,
                },
                &mut buf,
            );
            ends.push(buf.len());
        }
        for cut in 0..buf.len() {
            let whole_frames = ends.iter().filter(|&&e| e <= cut).count();
            let mut got = 0;
            let valid = replay_frames(&buf[..cut], |_| got += 1);
            assert_eq!(got, whole_frames, "cut at {cut}");
            assert_eq!(
                valid,
                ends.get(whole_frames.wrapping_sub(1)).copied().unwrap_or(0)
            );
        }
    }

    #[test]
    fn corruption_stops_replay_without_panicking() {
        let mut clean = Vec::new();
        for i in 0..4u32 {
            encode_frame(
                &Record::Row {
                    key: key(2),
                    row: i,
                    answer: true,
                },
                &mut clean,
            );
        }
        for at in 0..clean.len() {
            let mut buf = clean.clone();
            buf[at] ^= 0xFF;
            let mut got: Vec<Record> = Vec::new();
            replay_frames(&buf, |r| got.push(r));
            // Whatever is recovered must be a prefix of the clean records.
            let mut want: Vec<Record> = Vec::new();
            replay_frames(&clean, |r| want.push(r));
            assert!(got.len() <= want.len());
            assert_eq!(got[..], want[..got.len()], "corrupt byte at {at}");
        }
    }

    #[test]
    fn a_page_image_writes_only_the_words_that_hold_answers() {
        let image = |planes: &PagePlanes, page: usize| Record::PageImage {
            key: key(1),
            page: page as u32,
            planes: Box::new(planes.clone()),
        };
        let frame_len = |planes: &PagePlanes| {
            let mut buf = Vec::new();
            encode_frame(&image(planes, 0), &mut buf);
            assert_eq!(decode_frame(&buf), Ok((image(planes, 0), buf.len())));
            buf.len()
        };
        let mut planes = PagePlanes::empty();
        planes.merge(5, 1, 1);
        assert_eq!(frame_len(&planes), FRAME_OVERHEAD + 1 + 24 + 4 + 8 + 8 + 16);
        for w in 0..PAGE_WORDS {
            planes.merge(w, u64::MAX, w as u64);
        }
        assert_eq!(planes.len(), PAGE_ROWS);
        let full = frame_len(&planes);
        assert!(full * 3 < PAGE_ROWS, "{full} bytes for a full page");
        assert_eq!(full, MAX_PAGE_IMAGE_FRAME);
        // A page past the u32 row space is refused, not decoded.
        let mut buf = Vec::new();
        encode_frame(&image(&planes, PAGE_LIMIT), &mut buf);
        assert_eq!(decode_frame(&buf), Err(DecodeError::Malformed));
    }

    #[test]
    fn the_legacy_stamp_is_written_as_zeros_and_read_past() {
        let mut planes = Box::new(PagePlanes::empty());
        planes.merge(5, 1, 1);
        // Each record, the frame length it has always had, and where in
        // its payload the eight timestamp bytes sit (after tag, key, and
        // the row and answer, or the page number).
        let frames = [
            (
                Record::Row {
                    key: key(7),
                    row: 42,
                    answer: true,
                },
                FRAME_OVERHEAD + 1 + 24 + 4 + 1 + 8,
                1 + 24 + 4 + 1,
            ),
            (
                Record::PageImage {
                    key: key(4),
                    page: 7,
                    planes,
                },
                FRAME_OVERHEAD + 1 + 24 + 4 + 8 + 8 + 16,
                1 + 24 + 4,
            ),
        ];
        for (record, len, stamp_at) in frames {
            let mut buf = Vec::new();
            encode_frame(&record, &mut buf);
            assert_eq!(buf.len(), len, "{record:?}");
            let stamp = FRAME_OVERHEAD + stamp_at..FRAME_OVERHEAD + stamp_at + 8;
            assert_eq!(buf[stamp.clone()], [0; 8], "{record:?}");
            // A frame an earlier build stamped, CRC and all, reads the same.
            buf[stamp].copy_from_slice(&1_700_000_000_123_456_789u64.to_le_bytes());
            let crc = crc32(&buf[FRAME_OVERHEAD..]);
            buf[4..FRAME_OVERHEAD].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(decode_frame(&buf), Ok((record, len)));
        }
    }

    #[test]
    fn header_is_versioned() {
        let h = file_header();
        assert!(check_header(&h));
        let mut wrong_version = h;
        wrong_version[4] ^= 1;
        assert!(!check_header(&wrong_version));
        assert!(!check_header(b"EXP"));
        assert!(!check_header(b"NOPE1234"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.resize(1024, 0);
        assert_eq!(decode_frame(&buf), Err(DecodeError::BadLength));
    }
}
