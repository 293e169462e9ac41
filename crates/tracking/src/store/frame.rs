//! Record framing shared by the WAL, snapshot, segment and manifest
//! files.
//!
//! Every durable record is one **frame**:
//!
//! ```text
//! tag: u8 | len: u32 LE | payload: [u8; len] | crc: u32 LE
//! ```
//!
//! The CRC-32 (ISO-HDLC polynomial, the zlib/PNG one) covers the tag, the
//! length field and the payload, so a torn write, a bit flip or a
//! misaligned read is detected no matter which of the four parts it hits.
//! Readers additionally bound `len` by [`MAX_FRAME_PAYLOAD`] so a
//! corrupted length field cannot trigger a huge allocation or a bogus
//! multi-megabyte skip that happens to land on plausible bytes.
//!
//! Payload encodings are fixed-width little-endian — no varints, no
//! padding — so every record type has exactly one byte representation and
//! byte-for-byte comparisons of re-encoded state are meaningful.
//!
//! This is the one module that may call `from_le_bytes` (`clippy.toml`
//! disallows it everywhere else) and the one store module that indexes
//! and slices directly: its readers check every length before the
//! fixed-width slice they decode.
#![allow(clippy::disallowed_methods)]
#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "designated framing module: indexing follows explicit length checks in take()/FrameReader"
)]

use super::{FrameErrorKind, StoreError};
use crate::ott::{ObjectId, OttRow};
use crate::reading::RawReading;
use std::io::{self, Read};

/// Upper bound on a single frame's payload. Tracker-state rows are tens
/// of bytes; only the legacy `ARTREE` blob in older files grew with data
/// size.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Frame tags. Stable on-disk values — append only, never renumber.
pub mod tag {
    /// Tracker configuration (`max_gap`, lateness, watermark, …).
    pub const CONFIG: u8 = 1;
    /// A closed OTT row (`object, device, ts, te`).
    pub const CLOSED_ROW: u8 = 2;
    /// An open run (`object, device, ts, te`).
    pub const OPEN_RUN: u8 = 3;
    /// A reading buffered in the reorder heap (`object, device, t`).
    pub const PENDING: u8 = 4;
    /// A raw reading appended to the WAL (`object, device, t`).
    pub const READING: u8 = 5;
    /// File header: a WAL's base sequence, a snapshot's `wal_seq`, a
    /// segment's row range and time span, a manifest's sealed rows.
    pub const META: u8 = 6;
    /// A flat AR-tree blob that older segment and snapshot files carry
    /// just before `END`. Nothing writes it any more; decoding skips it
    /// unread (its CRC is still checked).
    pub const ARTREE: u8 = 7;
    /// Commit marker: row counts, proving the file was written to the
    /// end. A file without it is torn by definition.
    pub const END: u8 = 8;
    /// One sealed-segment entry in a manifest (`base_row, row_count,
    /// t_min, t_max, file_len, file_crc, flags`).
    pub const SEGMENT: u8 = 9;
}

/// CRC-32 (ISO-HDLC / zlib), reflected, init and xorout `0xFFFF_FFFF`,
/// computed slice-by-8: each step folds eight bytes through eight
/// compile-time tables, where `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes; the 0–7 byte tail goes bytewise through
/// `TABLES[0]`. Same values as the one-table bytewise loop at about
/// four times its throughput.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut i = 0;
        while i < 256 {
            let mut k = 1;
            while k < 8 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                k += 1;
            }
            i += 1;
        }
        tables
    };
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let word = (u64::from_le_bytes(word) ^ u64::from(c)).to_le_bytes();
        // Byte 0 has the most bytes after it: it goes through TABLES[7].
        c = TABLES.iter().rev().zip(word).fold(0, |acc, (table, b)| acc ^ table[usize::from(b)]);
    }
    for &b in chunks.remainder() {
        c = TABLES[0][usize::from(c as u8 ^ b)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit over a byte slice: the cheap, dependency-free digest
/// used for engine/shard state hashes in the record/replay harness.
/// Not error-detecting like [`crc32`] (frames keep their CRC); this is
/// for *comparing* two deterministic encodings, not validating one.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one frame (`tag | len | payload | crc`) to `out`.
pub fn write_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Reads the remainder of a streamed frame whose tag byte was already
/// consumed (`len | payload | crc`), verifying the length bound and the
/// checksum. The streaming twin of [`FrameReader`], shared by the TCP
/// protocol so raw length/CRC parsing stays in this module.
pub fn read_body_from(r: &mut impl Read, tag: u8) -> io::Result<Vec<u8>> {
    let bad = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(bad(format!("oversized frame payload ({len} bytes)")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let mut check = Vec::with_capacity(5 + len);
    check.push(tag);
    check.extend_from_slice(&len_bytes);
    check.extend_from_slice(&payload);
    if crc32(&check) != u32::from_le_bytes(crc_bytes) {
        return Err(bad("frame checksum mismatch".to_string()));
    }
    Ok(payload)
}

/// A decoded frame borrowing its payload from the underlying buffer.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Byte offset of the frame within the buffer (error reporting).
    pub offset: usize,
    pub tag: u8,
    pub payload: &'a [u8],
}

impl Frame<'_> {
    /// Byte offset one past this frame (tag + len + payload + crc).
    pub fn end_offset(&self) -> usize {
        self.offset + 5 + self.payload.len() + 4
    }
}

/// Iterator over the frames of a byte buffer. Each item is either a
/// decoded frame or the typed error that stopped the scan; after an error
/// the iterator is exhausted.
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    failed: bool,
}

impl<'a> FrameReader<'a> {
    /// Reads frames starting at `pos` within `bytes`.
    pub fn new(bytes: &'a [u8], pos: usize) -> FrameReader<'a> {
        FrameReader { bytes, pos, failed: false }
    }

    /// Current read offset (the start of the next frame — after an `Err`,
    /// the offset of the bad frame; after clean exhaustion, the buffer
    /// length).
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn fail(&mut self, kind: FrameErrorKind) -> Option<Result<Frame<'a>, StoreError>> {
        self.failed = true;
        Some(Err(StoreError::Frame { offset: self.pos, kind }))
    }
}

impl<'a> Iterator for FrameReader<'a> {
    type Item = Result<Frame<'a>, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.pos >= self.bytes.len() {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        if rest.len() < 5 {
            return self.fail(FrameErrorKind::Truncated);
        }
        let len = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return self.fail(FrameErrorKind::Oversized);
        }
        let total = 5 + len + 4;
        if rest.len() < total {
            return self.fail(FrameErrorKind::Truncated);
        }
        let stored = u32::from_le_bytes(rest[5 + len..total].try_into().expect("4 bytes"));
        if crc32(&rest[..5 + len]) != stored {
            return self.fail(FrameErrorKind::Checksum);
        }
        let frame = Frame { offset: self.pos, tag: rest[0], payload: &rest[5..5 + len] };
        self.pos += total;
        Some(Ok(frame))
    }
}

// ---- fixed-width payload codecs ------------------------------------------

/// Little-endian cursor over a payload, with typed, offset-carrying
/// errors instead of panics.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    frame_offset: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(frame: &Frame<'a>) -> Cursor<'a> {
        Cursor { bytes: frame.payload, pos: 0, frame_offset: frame.offset }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.bytes.len() {
            return Err(self.bad(format!("payload too short for {what}")));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A decode error at this frame's offset.
    pub fn bad(&self, reason: String) -> StoreError {
        StoreError::Decode { offset: self.frame_offset, reason }
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// A `u32` element count validated against the remaining payload:
    /// `n * elem_width` must fit in the unconsumed bytes (`elem_width`
    /// is the minimum encoded size of one element), so a corrupt length
    /// cannot drive `Vec::with_capacity` or a read loop past the frame.
    pub fn count(&mut self, what: &str, elem_width: usize) -> Result<usize, StoreError> {
        let n = self.u32(what)? as usize;
        match n.checked_mul(elem_width) {
            Some(need) if need <= self.bytes.len() - self.pos => Ok(n),
            _ => Err(self.bad(format!("{what} {n} exceeds remaining payload"))),
        }
    }

    pub fn f64(&mut self, what: &str) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// An `f64` that must be finite (timestamps in rows and readings).
    pub fn finite_f64(&mut self, what: &str) -> Result<f64, StoreError> {
        let v = self.f64(what)?;
        if !v.is_finite() {
            return Err(self.bad(format!("non-finite {what}")));
        }
        Ok(v)
    }

    /// The unconsumed remainder of the payload, consuming it — for
    /// delegating a variable-length tail to another decoder.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = self.bytes.get(self.pos..).unwrap_or_default();
        self.pos = self.bytes.len();
        s
    }

    /// True when the payload is fully consumed — lets decoders branch
    /// on an optional trailing section (e.g. version-negotiated protocol
    /// extensions) without raw length arithmetic at the call site.
    pub fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Rejects trailing bytes — a frame must be consumed exactly.
    pub fn done(&self) -> Result<(), StoreError> {
        if self.pos != self.bytes.len() {
            return Err(self.bad(format!("{} trailing payload bytes", self.bytes.len() - self.pos)));
        }
        Ok(())
    }
}

/// Encodes an interval row (`CLOSED_ROW` / `OPEN_RUN`): 24 bytes.
pub fn encode_row(row: &OttRow) -> [u8; 24] {
    let mut b = [0u8; 24];
    b[0..4].copy_from_slice(&row.object.0.to_le_bytes());
    b[4..8].copy_from_slice(&row.device.0.to_le_bytes());
    b[8..16].copy_from_slice(&row.ts.to_le_bytes());
    b[16..24].copy_from_slice(&row.te.to_le_bytes());
    b
}

/// Decodes an interval row, validating finite, ordered endpoints.
pub fn decode_row(frame: &Frame<'_>) -> Result<OttRow, StoreError> {
    let mut c = Cursor::new(frame);
    let row = OttRow {
        object: ObjectId(c.u32("object")?),
        device: inflow_indoor::DeviceId(c.u32("device")?),
        ts: c.finite_f64("ts")?,
        te: c.finite_f64("te")?,
    };
    c.done()?;
    if row.te < row.ts {
        return Err(StoreError::Decode {
            offset: frame.offset,
            reason: format!("reversed interval [{}, {}]", row.ts, row.te),
        });
    }
    Ok(row)
}

/// Encodes an `END` commit marker's row counts: 24 bytes.
pub fn encode_counts(closed: u64, open: u64, pending: u64) -> [u8; 24] {
    let mut b = [0u8; 24];
    b[0..8].copy_from_slice(&closed.to_le_bytes());
    b[8..16].copy_from_slice(&open.to_le_bytes());
    b[16..24].copy_from_slice(&pending.to_le_bytes());
    b
}

/// Decodes an `END` commit marker into `(closed, open, pending)` counts.
pub fn decode_counts(frame: &Frame<'_>) -> Result<(u64, u64, u64), StoreError> {
    let mut c = Cursor::new(frame);
    let counts = (c.u64("closed count")?, c.u64("open count")?, c.u64("pending count")?);
    c.done()?;
    Ok(counts)
}

/// Encodes a raw reading (`READING` / `PENDING`): 16 bytes.
pub fn encode_reading(r: &RawReading) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[0..4].copy_from_slice(&r.object.0.to_le_bytes());
    b[4..8].copy_from_slice(&r.device.0.to_le_bytes());
    b[8..16].copy_from_slice(&r.t.to_le_bytes());
    b
}

/// Decodes a raw reading, validating a finite timestamp.
pub fn decode_reading(frame: &Frame<'_>) -> Result<RawReading, StoreError> {
    let mut c = Cursor::new(frame);
    let r = RawReading {
        object: ObjectId(c.u32("object")?),
        device: inflow_indoor::DeviceId(c.u32("device")?),
        t: c.finite_f64("t")?,
    };
    c.done()?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::READING, &[1, 2, 3]);
        write_frame(&mut buf, tag::END, &[]);
        let frames: Vec<_> =
            FrameReader::new(&buf, 0).collect::<Result<Vec<_>, _>>().expect("clean buffer");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].tag, tag::READING);
        assert_eq!(frames[0].payload, &[1, 2, 3]);
        assert_eq!(frames[1].tag, tag::END);
        assert!(frames[1].payload.is_empty());
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::READING, &[9; 16]);
        for cut in 1..buf.len() {
            let r: Result<Vec<_>, _> = FrameReader::new(&buf[..cut], 0).collect();
            assert!(r.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::CLOSED_ROW, &[7; 24]);
        for i in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[i] ^= 1 << bit;
                let r: Result<Vec<_>, _> = FrameReader::new(&bad, 0).collect();
                // A flipped length field may also yield Truncated or
                // Oversized; any typed error is acceptable, silence is not.
                assert!(r.is_err(), "flip at byte {i} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn oversized_length_is_bounded() {
        let mut buf = vec![tag::ARTREE];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let r: Result<Vec<_>, _> = FrameReader::new(&buf, 0).collect();
        assert!(matches!(r, Err(StoreError::Frame { kind: FrameErrorKind::Oversized, .. })));
    }

    #[test]
    fn row_and_reading_codecs_round_trip() {
        let row =
            OttRow { object: ObjectId(7), device: inflow_indoor::DeviceId(3), ts: 1.25, te: 9.5 };
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::CLOSED_ROW, &encode_row(&row));
        let frame = FrameReader::new(&buf, 0).next().unwrap().unwrap();
        assert_eq!(decode_row(&frame).unwrap(), row);

        let r = RawReading { object: ObjectId(1), device: inflow_indoor::DeviceId(2), t: 0.5 };
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::READING, &encode_reading(&r));
        let frame = FrameReader::new(&buf, 0).next().unwrap().unwrap();
        assert_eq!(decode_reading(&frame).unwrap(), r);
    }

    #[test]
    fn non_finite_payload_values_rejected() {
        let row = OttRow {
            object: ObjectId(7),
            device: inflow_indoor::DeviceId(3),
            ts: f64::NAN,
            te: 9.5,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::CLOSED_ROW, &encode_row(&row));
        let frame = FrameReader::new(&buf, 0).next().unwrap().unwrap();
        assert!(matches!(decode_row(&frame), Err(StoreError::Decode { .. })));
    }
}
