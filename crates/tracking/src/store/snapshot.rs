//! Snapshot files: a point-in-time image of the tracker state.
//!
//! Layout:
//!
//! ```text
//! "IFSNP001" | META (wal_seq: u64) | CONFIG | CLOSED_ROW* | OPEN_RUN*
//!            | PENDING* | END (row counts)
//! ```
//!
//! `wal_seq` is the absolute number of WAL readings the snapshot
//! reflects; recovery replays WAL readings `wal_seq..` on top of it. The
//! frames after `META` are the tracker's committed state, and this module
//! is its one encoder and its one decoder. The `END` commit marker
//! carries the row counts; a file without a matching marker is torn by
//! definition and rejected whole — unlike the WAL there is no partial
//! credit for a snapshot.
//!
//! Files written before snapshots stopped carrying an index hold an
//! `ARTREE` frame just before `END`; decoding skips it unread. Recovery
//! needs only the tracker state, and queries build their AR-tree from the
//! assembled table.

use super::frame::{self, tag, Cursor, FrameReader};
use super::StoreError;
use crate::stream::{OnlineTracker, TrackerAssembler};

/// Magic prefix of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"IFSNP001";

/// A fully decoded, validated snapshot.
#[derive(Debug)]
pub struct SnapshotState {
    /// WAL readings reflected by this snapshot.
    pub wal_seq: u64,
    /// The tracker state at the snapshot point.
    pub tracker: OnlineTracker,
}

/// Serializes a snapshot of `tracker` taken after `wal_seq` readings.
pub fn encode(tracker: &OnlineTracker, wal_seq: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    frame::write_frame(&mut buf, tag::META, &wal_seq.to_le_bytes());
    tracker.write_committed_state(&mut buf);
    buf
}

/// Decodes and validates a snapshot buffer. Strict: every frame must be
/// present, in order, checksum-clean; the `END` counts must match the
/// decoded state, and that state must imply a consistent OTT. Any
/// deviation is a typed error.
pub fn decode(bytes: &[u8]) -> Result<SnapshotState, StoreError> {
    if !bytes.starts_with(SNAPSHOT_MAGIC) {
        return Err(StoreError::BadMagic { what: "snapshot" });
    }
    let mut reader = FrameReader::new(bytes, SNAPSHOT_MAGIC.len());

    let meta = reader.next().ok_or(StoreError::Decode {
        offset: SNAPSHOT_MAGIC.len(),
        reason: "missing meta frame".into(),
    })??;
    if meta.tag != tag::META {
        return Err(StoreError::Decode {
            offset: meta.offset,
            reason: format!("expected meta frame, found tag {}", meta.tag),
        });
    }
    let mut c = Cursor::new(&meta);
    let wal_seq = c.u64("wal sequence")?;
    c.done()?;

    let mut asm = TrackerAssembler::new();
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
        if !skipped_artree && asm.apply(&f)? {
            continue;
        }
        match f.tag {
            tag::ARTREE if !skipped_artree => skipped_artree = true,
            tag::END => {
                let expected = frame::decode_counts(&f)?;
                if expected != asm.counts() {
                    return Err(StoreError::Decode {
                        offset: f.offset,
                        reason: format!(
                            "END counts {expected:?} do not match decoded state {:?}",
                            asm.counts()
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
    let tracker = asm.finish(offset)?;
    tracker
        .snapshot()
        .map_err(|e| StoreError::Decode { offset, reason: format!("inconsistent OTT: {e}") })?;
    Ok(SnapshotState { wal_seq, tracker })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ott::ObjectId;
    use crate::reading::RawReading;
    use inflow_indoor::DeviceId;

    fn busy_tracker() -> OnlineTracker {
        let mut tracker = OnlineTracker::with_reorder(1.5, 2.0);
        for (o, d, t) in [(1, 1, 0.0), (1, 2, 3.0), (2, 1, 4.0), (3, 3, 9.0), (2, 2, 9.5)] {
            tracker.ingest(RawReading { object: ObjectId(o), device: DeviceId(d), t }).unwrap();
        }
        tracker
    }

    #[test]
    fn snapshot_round_trips_tracker_state() {
        let tracker = busy_tracker();
        let expected_ott = tracker.snapshot().unwrap();
        let bytes = encode(&tracker, 5);
        let snap = decode(&bytes).unwrap();
        assert_eq!(snap.wal_seq, 5);
        assert_eq!(snap.tracker.snapshot().unwrap().records(), expected_ott.records());
        // The restored tracker re-encodes byte-identically.
        assert_eq!(encode(&snap.tracker, 5), bytes);
    }

    #[test]
    fn empty_tracker_snapshot_round_trips() {
        let tracker = OnlineTracker::new(1.0);
        let bytes = encode(&tracker, 0);
        let snap = decode(&bytes).unwrap();
        assert_eq!(snap.wal_seq, 0);
        assert!(snap.tracker.snapshot().unwrap().is_empty());
    }

    #[test]
    fn truncation_at_every_byte_is_rejected() {
        let bytes = encode(&busy_tracker(), 5);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix {cut}/{} accepted", bytes.len());
        }
    }

    #[test]
    fn bit_flip_anywhere_is_rejected_or_harmless_never_wrong() {
        let tracker = busy_tracker();
        let bytes = encode(&tracker, 5);
        let expected_ott = tracker.snapshot().unwrap();
        for i in 0..bytes.len() {
            for bit in [0, 5] {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                // Every flip must yield a typed error: magic flips fail the
                // magic check, and every other byte is covered by a frame
                // CRC, so nothing can decode to a different table.
                match decode(&bad) {
                    Err(_) => {}
                    Ok(snap) => {
                        panic!(
                            "flip at byte {i} bit {bit} decoded; ott match: {}",
                            snap.tracker.snapshot().unwrap().records() == expected_ott.records()
                        );
                    }
                }
            }
        }
    }
}
