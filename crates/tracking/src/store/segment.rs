//! Immutable time-partitioned segment files: the frozen tier of the
//! store.
//!
//! A segment seals a fixed, contiguous range of the tracker's closed-row
//! log — rows `[base_row, base_row + row_count)` in closure order — into
//! one self-verifying file:
//!
//! ```text
//! "IFSEG001" | META (base_row: u64, row_count: u64, t_min: f64,
//!            |       t_max: f64)
//!            | CLOSED_ROW*            (one frame per sealed row)
//!            | END (row counts)
//! ```
//!
//! Segments are written once by compaction ([`super::compact`]) and never
//! modified; every byte is covered by a frame CRC and the whole file by
//! the manifest's file-level CRC, so bit rot anywhere surfaces as a typed
//! error, never a silently different answer. Like snapshots (and unlike
//! the WAL) there is no partial credit: a segment that fails any check is
//! rejected whole, and the scrubber quarantines it.
//!
//! Files written before segments stopped carrying an index hold an
//! `ARTREE` frame just before `END`; decoding skips it unread. Queries
//! build their AR-tree from the assembled table, so nothing reads it.

use super::frame::{self, tag, Cursor, FrameReader};
use super::StoreError;
use crate::ott::{ObjectTrackingTable, OttRow};

/// Magic prefix of a segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"IFSEG001";

/// File-name suffix of segment files (`seg-<base_row>.seg`).
pub const SEGMENT_SUFFIX: &str = ".seg";

/// The canonical file name of the segment sealing `row_count` rows from
/// `base_row`. The count is part of the name so a merge — which reuses
/// the base row of its first input — writes a *new* file and never
/// clobbers one the current manifest still references.
pub fn file_name(base_row: u64, row_count: u64) -> String {
    format!("seg-{base_row:020}-{row_count:010}{SEGMENT_SUFFIX}")
}

/// Header of a sealed segment: which closed-row range it covers and the
/// time span of those rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentMeta {
    /// Index of the first sealed row in the store's closed-row log.
    pub base_row: u64,
    /// Number of rows sealed in this segment (always ≥ 1).
    pub row_count: u64,
    /// Minimum `ts` across the sealed rows.
    pub t_min: f64,
    /// Maximum `te` across the sealed rows.
    pub t_max: f64,
}

fn encode_meta(meta: &SegmentMeta) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    b.extend_from_slice(&meta.base_row.to_le_bytes());
    b.extend_from_slice(&meta.row_count.to_le_bytes());
    b.extend_from_slice(&meta.t_min.to_le_bytes());
    b.extend_from_slice(&meta.t_max.to_le_bytes());
    b
}

fn decode_meta(f: &frame::Frame<'_>) -> Result<SegmentMeta, StoreError> {
    let mut c = Cursor::new(f);
    let meta = SegmentMeta {
        base_row: c.u64("base row")?,
        row_count: c.u64("row count")?,
        t_min: c.finite_f64("t_min")?,
        t_max: c.finite_f64("t_max")?,
    };
    c.done()?;
    if meta.row_count == 0 {
        return Err(StoreError::Decode { offset: f.offset, reason: "empty segment".into() });
    }
    if meta.t_max < meta.t_min {
        return Err(StoreError::Decode {
            offset: f.offset,
            reason: format!("reversed time span [{}, {}]", meta.t_min, meta.t_max),
        });
    }
    Ok(meta)
}

/// Seals `rows` (the closed-log slice starting at `base_row`) into a
/// segment byte image, returning the header alongside the bytes so the
/// caller can build the manifest entry without recomputing spans. Fails
/// on an empty slice or rows that violate the OTT invariants — a sealed
/// segment must be independently queryable.
pub fn encode(base_row: u64, rows: &[OttRow]) -> Result<(SegmentMeta, Vec<u8>), StoreError> {
    if rows.is_empty() {
        return Err(StoreError::InvalidState { reason: "cannot seal an empty segment".into() });
    }
    ObjectTrackingTable::from_rows(rows.to_vec())
        .map_err(|e| StoreError::InvalidState { reason: format!("sealing rows: {e}") })?;
    let t_min = rows.iter().map(|r| r.ts).fold(f64::INFINITY, f64::min);
    let t_max = rows.iter().map(|r| r.te).fold(f64::NEG_INFINITY, f64::max);
    let meta = SegmentMeta { base_row, row_count: rows.len() as u64, t_min, t_max };
    let mut buf = Vec::new();
    buf.extend_from_slice(SEGMENT_MAGIC);
    frame::write_frame(&mut buf, tag::META, &encode_meta(&meta));
    for row in rows {
        frame::write_frame(&mut buf, tag::CLOSED_ROW, &frame::encode_row(row));
    }
    frame::write_frame(&mut buf, tag::END, &frame::encode_counts(rows.len() as u64, 0, 0));
    Ok((meta, buf))
}

/// Decodes only the header (meta) frame: magic plus the first frame's
/// checksum and fields. The cheap identity check the background scrubber
/// pairs with a whole-file CRC — everything after the header is covered
/// by that CRC, so re-walking every row frame adds cost, not safety.
pub fn decode_header(bytes: &[u8]) -> Result<SegmentMeta, StoreError> {
    read_header(bytes).map(|(meta, _)| meta)
}

/// The header frame, decoded, and a reader positioned just past it.
fn read_header(bytes: &[u8]) -> Result<(SegmentMeta, FrameReader<'_>), StoreError> {
    if !bytes.starts_with(SEGMENT_MAGIC) {
        return Err(StoreError::BadMagic { what: "segment" });
    }
    let mut reader = FrameReader::new(bytes, SEGMENT_MAGIC.len());
    let head = reader.next().ok_or(StoreError::Decode {
        offset: SEGMENT_MAGIC.len(),
        reason: "missing meta frame".into(),
    })??;
    if head.tag != tag::META {
        return Err(StoreError::Decode {
            offset: head.offset,
            reason: format!("expected meta frame, found tag {}", head.tag),
        });
    }
    Ok((decode_meta(&head)?, reader))
}

/// Decodes and validates a segment buffer, returning its header and the
/// sealed rows in closure order. Strict like a snapshot: every frame
/// checksum-clean and in order, the `END` counts matching, the header's
/// row count and time span matching the rows. Any deviation is a typed
/// error — a segment is either whole or rejected. Sealing already proved
/// the OTT invariants over these exact bytes (the manifest CRC ties them
/// together), so no per-segment table is rebuilt here.
pub fn decode_rows(bytes: &[u8]) -> Result<(SegmentMeta, Vec<OttRow>), StoreError> {
    let (meta, mut reader) = read_header(bytes)?;
    let mut rows: Vec<OttRow> = Vec::new();
    // An older file's `ARTREE` frame: skipped unread, and only `END` may
    // follow it.
    let mut skipped_artree = false;
    let mut committed = false;
    for item in reader.by_ref() {
        let f = item?;
        if committed {
            return Err(StoreError::Decode {
                offset: f.offset,
                reason: "frame after END marker".into(),
            });
        }
        match f.tag {
            tag::CLOSED_ROW if !skipped_artree => rows.push(frame::decode_row(&f)?),
            tag::ARTREE if !skipped_artree => skipped_artree = true,
            tag::END => {
                let expected = frame::decode_counts(&f)?;
                if expected != (rows.len() as u64, 0, 0) {
                    return Err(StoreError::Decode {
                        offset: f.offset,
                        reason: format!(
                            "END counts {expected:?} do not match {} decoded rows",
                            rows.len()
                        ),
                    });
                }
                committed = true;
            }
            other => {
                return Err(StoreError::Decode {
                    offset: f.offset,
                    reason: format!("unexpected frame tag {other}"),
                });
            }
        }
    }
    let offset = reader.offset();
    if !committed {
        return Err(StoreError::MissingCommit { offset });
    }
    if rows.len() as u64 != meta.row_count {
        return Err(StoreError::Decode {
            offset,
            reason: format!("header claims {} rows, file holds {}", meta.row_count, rows.len()),
        });
    }
    let t_min = rows.iter().map(|r| r.ts).fold(f64::INFINITY, f64::min);
    let t_max = rows.iter().map(|r| r.te).fold(f64::NEG_INFINITY, f64::max);
    if t_min != meta.t_min || t_max != meta.t_max {
        return Err(StoreError::Decode {
            offset,
            reason: format!(
                "header time span [{}, {}] does not match rows [{t_min}, {t_max}]",
                meta.t_min, meta.t_max
            ),
        });
    }
    Ok((meta, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ott::ObjectId;
    use inflow_indoor::DeviceId;

    fn row(o: u32, d: u32, ts: f64, te: f64) -> OttRow {
        OttRow { object: ObjectId(o), device: DeviceId(d), ts, te }
    }

    fn sample_rows() -> Vec<OttRow> {
        vec![
            row(1, 1, 0.0, 2.0),
            row(2, 1, 1.0, 3.0),
            row(1, 2, 4.0, 6.5),
            row(3, 3, 5.0, 5.0),
            row(2, 2, 7.0, 9.0),
        ]
    }

    #[test]
    fn segment_round_trips_rows_and_meta() {
        let rows = sample_rows();
        let (meta, bytes) = encode(16, &rows).unwrap();
        let (decoded_meta, decoded_rows) = decode_rows(&bytes).unwrap();
        assert_eq!(decoded_meta, meta);
        assert_eq!(meta.base_row, 16);
        assert_eq!(meta.row_count, 5);
        assert_eq!(meta.t_min, 0.0);
        assert_eq!(meta.t_max, 9.0);
        assert_eq!(decoded_rows, rows);
        assert_eq!(decode_header(&bytes).unwrap(), meta);
    }

    #[test]
    fn empty_segment_is_rejected_at_encode() {
        assert!(matches!(encode(0, &[]), Err(StoreError::InvalidState { .. })));
    }

    #[test]
    fn truncation_at_every_byte_is_rejected() {
        let (_, bytes) = encode(0, &sample_rows()).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_rows(&bytes[..cut]).is_err(), "prefix {cut}/{} accepted", bytes.len());
        }
    }

    #[test]
    fn bit_flip_anywhere_is_rejected_never_wrong() {
        let rows = sample_rows();
        let (_, bytes) = encode(0, &rows).unwrap();
        for i in 0..bytes.len() {
            for bit in [0, 5] {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                if let Ok((_, got)) = decode_rows(&bad) {
                    panic!("flip at byte {i} bit {bit} decoded; rows match: {}", got == rows);
                }
            }
        }
    }

    #[test]
    fn mismatched_header_count_is_rejected() {
        // Re-encode with a doctored META frame claiming one more row.
        let rows = sample_rows();
        let meta =
            SegmentMeta { base_row: 0, row_count: rows.len() as u64 + 1, t_min: 0.0, t_max: 9.0 };
        let mut buf = Vec::new();
        buf.extend_from_slice(SEGMENT_MAGIC);
        frame::write_frame(&mut buf, tag::META, &encode_meta(&meta));
        for r in &rows {
            frame::write_frame(&mut buf, tag::CLOSED_ROW, &frame::encode_row(r));
        }
        frame::write_frame(&mut buf, tag::END, &frame::encode_counts(rows.len() as u64, 0, 0));
        assert!(matches!(decode_rows(&buf), Err(StoreError::Decode { .. })));
    }

    #[test]
    fn file_names_sort_in_base_row_order_and_differ_by_count() {
        assert!(file_name(0, 8) < file_name(9, 8));
        assert!(file_name(9, 8) < file_name(10, 8));
        assert!(file_name(99, 8) < file_name(1_000_000, 8));
        assert_ne!(file_name(0, 8), file_name(0, 32));
    }
}
