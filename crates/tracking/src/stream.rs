//! Incremental ingestion of raw readings.
//!
//! The batch pipeline ([`crate::merge_raw_readings`] →
//! [`ObjectTrackingTable::from_rows`]) suits historical analysis; a live
//! deployment instead receives readings continuously. [`OnlineTracker`]
//! maintains the per-object *open runs* (a run is a maximal sequence of
//! same-device readings with gaps below the merge threshold), closes runs
//! into OTT rows as soon as they can no longer grow, and periodically
//! snapshots a queryable [`ObjectTrackingTable`].
//!
//! Equivalence with the batch merger is guaranteed (and tested): feeding
//! the same readings in timestamp order produces the same rows. With
//! [`OnlineTracker::with_reorder`], the same holds for *out-of-order*
//! streams as long as no reading is later than the configured lateness
//! bound — a bounded reorder buffer holds readings until the watermark
//! passes them, then applies them in timestamp order.
//!
//! The tracker's complete state is what a store snapshot holds
//! ([`crate::store::snapshot`]): a tracker decoded from one resumes and
//! converges to the uninterrupted run (tested).

use crate::ott::{ObjectId, ObjectTrackingTable, OttError, OttRow};
use crate::reading::RawReading;
use crate::store::frame::{self, fnv1a, tag, Cursor, Frame};
use crate::store::StoreError;
use crate::Timestamp;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// An in-progress detection run for one object.
#[derive(Debug, Clone, Copy)]
struct OpenRun {
    device: inflow_indoor::DeviceId,
    ts: Timestamp,
    te: Timestamp,
}

/// Min-heap ordering for the reorder buffer (earliest timestamp first,
/// deterministic tie-breaking by object then device).
#[derive(Debug, Clone, Copy)]
struct Pending(RawReading);

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so BinaryHeap (a max-heap) pops the earliest first.
        other
            .0
            .t
            .total_cmp(&self.0.t)
            .then_with(|| other.0.object.cmp(&self.0.object))
            .then_with(|| other.0.device.0.cmp(&self.0.device.0))
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Incremental raw-reading ingester.
///
/// In the strict mode ([`OnlineTracker::new`]) readings must arrive in
/// non-decreasing timestamp order per object; out-of-order arrivals are
/// rejected with [`StreamError::OutOfOrderReading`]. With
/// [`OnlineTracker::with_reorder`] a bounded reorder buffer absorbs
/// disorder up to an allowed lateness instead: readings are held until the
/// watermark (largest timestamp seen) passes them by the lateness bound,
/// then applied in timestamp order; readings later than the bound are
/// dropped and counted ([`OnlineTracker::late_dropped`]), never an error.
#[derive(Debug, Default)]
pub struct OnlineTracker {
    max_gap: f64,
    /// Allowed lateness of the reorder buffer; `None` = strict mode.
    lateness: Option<f64>,
    open: HashMap<ObjectId, OpenRun>,
    closed: Vec<OttRow>,
    /// Readings buffered for reordering (reorder mode only).
    pending: BinaryHeap<Pending>,
    /// Largest timestamp ingested so far.
    watermark: Timestamp,
    /// Largest timestamp already applied from the reorder buffer; a
    /// reading below this frontier is too late to reorder.
    applied_to: Timestamp,
    /// Readings dropped for exceeding the lateness bound.
    late_dropped: u64,
}

/// Errors raised during streaming ingestion.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A reading arrived with a timestamp earlier than the object's
    /// current open run (strict mode only).
    OutOfOrderReading { object: ObjectId, t: Timestamp, run_end: Timestamp },
    /// Snapshot failed because accumulated rows violate OTT invariants.
    Ott(OttError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrderReading { object, t, run_end } => {
                write!(f, "reading for {object} at t={t} precedes its open run end {run_end}")
            }
            StreamError::Ott(e) => write!(f, "snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Domain prefix of [`OnlineTracker::state_hash`]: hashed ahead of the
/// committed-state frames so digests recorded in replay logs stay
/// comparable. A hash input, not a file format — no file starts with it.
const STATE_HASH_MAGIC: &[u8; 8] = b"IFCKP001";

impl OnlineTracker {
    /// Creates a strict tracker with the given merge gap (same semantics
    /// as [`crate::merge_raw_readings`]): out-of-order readings error.
    pub fn new(max_gap: f64) -> OnlineTracker {
        assert!(max_gap > 0.0, "max_gap must be positive");
        OnlineTracker {
            max_gap,
            watermark: f64::NEG_INFINITY,
            applied_to: f64::NEG_INFINITY,
            ..OnlineTracker::default()
        }
    }

    /// Creates a tracker with a bounded reorder buffer: readings are held
    /// until the watermark passes them by `lateness` seconds, then applied
    /// in timestamp order. A reading later than that is dropped and
    /// counted, never an error.
    pub fn with_reorder(max_gap: f64, lateness: f64) -> OnlineTracker {
        assert!(lateness >= 0.0 && lateness.is_finite(), "lateness must be finite, non-negative");
        let mut t = OnlineTracker::new(max_gap);
        t.lateness = Some(lateness);
        t
    }

    /// Ingests one reading.
    pub fn ingest(&mut self, r: RawReading) -> Result<(), StreamError> {
        self.ingest_with(r, &mut |_| {})
    }

    /// Ingests one reading, invoking `on_apply` for every reading actually
    /// applied to run state. In strict mode that is the reading itself (on
    /// success); in reorder mode a single ingest can drain and apply
    /// several buffered readings — possibly for *other* objects — and a
    /// buffered or dropped reading triggers no callback at all. This is
    /// the delta-emission hook the sharded flow-monitoring service uses to
    /// learn which objects' rows changed.
    pub fn ingest_with(
        &mut self,
        r: RawReading,
        on_apply: &mut dyn FnMut(RawReading),
    ) -> Result<(), StreamError> {
        let Some(lateness) = self.lateness else {
            self.watermark = self.watermark.max(r.t);
            self.apply(r)?;
            on_apply(r);
            return Ok(());
        };
        // A reading behind the lateness horizon may be older than already
        // applied readings: drop it. Everything at or above the horizon is
        // still applied in timestamp order, because drains never advance
        // `applied_to` past the horizon.
        if r.t < self.watermark - lateness {
            self.late_dropped += 1;
            return Ok(());
        }
        self.pending.push(Pending(r));
        self.watermark = self.watermark.max(r.t);
        let horizon = self.watermark - lateness;
        while let Some(&Pending(head)) = self.pending.peek() {
            if head.t > horizon {
                break;
            }
            self.pending.pop();
            self.applied_to = self.applied_to.max(head.t);
            // Drained readings are in timestamp order, so this cannot hit
            // the out-of-order branch; propagating keeps the serving path
            // panic-free either way.
            self.apply(head)?;
            on_apply(head);
        }
        Ok(())
    }

    /// Applies one reading to the run state. In reorder mode readings
    /// reach this in global timestamp order, so the out-of-order branch is
    /// unreachable there.
    fn apply(&mut self, r: RawReading) -> Result<(), StreamError> {
        match self.open.get_mut(&r.object) {
            Some(run)
                if run.device == r.device && r.t >= run.te && r.t - run.te <= self.max_gap =>
            {
                run.te = r.t;
                Ok(())
            }
            Some(run) if r.t < run.te => {
                Err(StreamError::OutOfOrderReading { object: r.object, t: r.t, run_end: run.te })
            }
            Some(run) => {
                // Device change or gap: close the current run.
                self.closed.push(OttRow {
                    object: r.object,
                    device: run.device,
                    ts: run.ts,
                    te: run.te,
                });
                *run = OpenRun { device: r.device, ts: r.t, te: r.t };
                Ok(())
            }
            None => {
                self.open.insert(r.object, OpenRun { device: r.device, ts: r.t, te: r.t });
                Ok(())
            }
        }
    }

    /// Ingests a batch of readings (strict mode: must respect per-object
    /// time order; reorder mode: any order within the lateness bound).
    pub fn ingest_all(
        &mut self,
        readings: impl IntoIterator<Item = RawReading>,
    ) -> Result<(), StreamError> {
        for r in readings {
            self.ingest(r)?;
        }
        Ok(())
    }

    /// Number of rows already closed (excludes open runs).
    pub fn closed_rows(&self) -> usize {
        self.closed.len()
    }

    /// All rows closed so far, in closure order. The slice only grows
    /// between calls (rows are never reordered or removed), so a caller
    /// can mirror it incrementally with a cursor.
    pub fn closed(&self) -> &[OttRow] {
        &self.closed
    }

    /// The object's open run as an as-of-now row (`te` = last applied
    /// reading), or `None` when the object has no open run.
    pub fn open_run_row(&self, object: ObjectId) -> Option<OttRow> {
        self.open.get(&object).map(|run| OttRow {
            object,
            device: run.device,
            ts: run.ts,
            te: run.te,
        })
    }

    /// Number of objects with an open run.
    pub fn open_runs(&self) -> usize {
        self.open.len()
    }

    /// Every open run as an as-of-now row (see [`Self::open_run_row`]) —
    /// the live complement of [`Self::closed`] when assembling a
    /// queryable history from tiered storage.
    pub fn open_run_rows(&self) -> Vec<OttRow> {
        self.open
            .iter()
            .map(|(&object, run)| OttRow { object, device: run.device, ts: run.ts, te: run.te })
            .collect()
    }

    /// Number of readings still held in the reorder buffer.
    pub fn pending_readings(&self) -> usize {
        self.pending.len()
    }

    /// Readings dropped for arriving later than the lateness bound.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// The largest timestamp seen (`NEG_INFINITY` before any reading).
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Closes every open run whose gap to the watermark already exceeds
    /// the merge threshold — they can never be extended again. Returns the
    /// number of runs closed. Call periodically to bound memory.
    ///
    /// In reorder mode the effective watermark for expiry is held back by
    /// the lateness bound, since a buffered reading may still extend a run.
    pub fn expire_stale_runs(&mut self) -> usize {
        let watermark = self.watermark - self.lateness.unwrap_or(0.0);
        let mut expired = 0;
        // By object, not map order: the closed log (and every file
        // serialized from it) must not depend on a hasher's seed.
        for (object, run) in self.sorted_open() {
            if watermark - run.te > self.max_gap {
                self.open.remove(&object);
                self.closed.push(OttRow { object, device: run.device, ts: run.ts, te: run.te });
                expired += 1;
            }
        }
        expired
    }

    /// Snapshots a queryable OTT from everything *applied* so far: closed
    /// rows plus the still-open runs (closed as-of-now). Readings still in
    /// the reorder buffer are not yet part of the snapshot — they surface
    /// once the watermark passes them. The tracker keeps its state and can
    /// continue ingesting.
    pub fn snapshot(&self) -> Result<ObjectTrackingTable, StreamError> {
        let mut rows = self.closed.clone();
        rows.extend(self.open.iter().map(|(&object, run)| OttRow {
            object,
            device: run.device,
            ts: run.ts,
            te: run.te,
        }));
        ObjectTrackingTable::from_rows(rows).map_err(StreamError::Ott)
    }

    /// Consumes the tracker, draining the reorder buffer and closing all
    /// open runs, and builds the final OTT.
    pub fn finish(mut self) -> Result<ObjectTrackingTable, StreamError> {
        while let Some(Pending(r)) = self.pending.pop() {
            self.applied_to = self.applied_to.max(r.t);
            self.apply(r)?;
        }
        let open = std::mem::take(&mut self.open);
        for (object, run) in open {
            self.closed.push(OttRow { object, device: run.device, ts: run.ts, te: run.te });
        }
        ObjectTrackingTable::from_rows(self.closed).map_err(StreamError::Ott)
    }

    /// Open runs in deterministic serialization order (by object).
    fn sorted_open(&self) -> Vec<(ObjectId, OpenRun)> {
        let mut open: Vec<(ObjectId, OpenRun)> = self.open.iter().map(|(&o, &r)| (o, r)).collect();
        open.sort_by_key(|&(o, _)| o);
        open
    }

    /// Buffered readings in deterministic serialization order (by time,
    /// then object, then device).
    fn sorted_pending(&self) -> Vec<RawReading> {
        let mut pending: Vec<RawReading> = self.pending.iter().map(|p| p.0).collect();
        pending.sort_by(|a, b| {
            a.t.total_cmp(&b.t)
                .then_with(|| a.object.cmp(&b.object))
                .then_with(|| a.device.0.cmp(&b.device.0))
        });
        pending
    }

    /// Encodes the tracker configuration as a `CONFIG` frame payload
    /// (41 bytes, fixed-width LE).
    pub(crate) fn encode_config(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(41);
        b.extend_from_slice(&self.max_gap.to_le_bytes());
        b.push(self.lateness.is_some() as u8);
        b.extend_from_slice(&self.lateness.unwrap_or(0.0).to_le_bytes());
        b.extend_from_slice(&self.watermark.to_le_bytes());
        b.extend_from_slice(&self.applied_to.to_le_bytes());
        b.extend_from_slice(&self.late_dropped.to_le_bytes());
        b
    }

    /// Rebuilds a tracker (no rows or readings yet) from a `CONFIG` frame,
    /// validating every field.
    pub(crate) fn from_config_frame(f: &Frame<'_>) -> Result<OnlineTracker, StoreError> {
        let mut c = Cursor::new(f);
        let max_gap = c.finite_f64("max_gap")?;
        let lateness_flag = c.u8("lateness flag")?;
        let lateness_raw = c.f64("lateness")?;
        let watermark = c.f64("watermark")?;
        let applied_to = c.f64("applied_to")?;
        let late_dropped = c.u64("late_dropped")?;
        c.done()?;
        if max_gap <= 0.0 {
            return Err(c.bad(format!("non-positive max_gap {max_gap}")));
        }
        let lateness = match lateness_flag {
            0 => None,
            1 => {
                if !lateness_raw.is_finite() || lateness_raw < 0.0 {
                    return Err(c.bad(format!("invalid lateness {lateness_raw}")));
                }
                Some(lateness_raw)
            }
            other => return Err(c.bad(format!("invalid lateness flag {other}"))),
        };
        // Watermarks may legitimately be -inf (empty tracker), never NaN.
        if watermark.is_nan() || applied_to.is_nan() {
            return Err(c.bad("NaN watermark".into()));
        }
        let mut tracker = OnlineTracker::new(max_gap);
        tracker.lateness = lateness;
        tracker.watermark = watermark;
        tracker.applied_to = applied_to;
        tracker.late_dropped = late_dropped;
        Ok(tracker)
    }

    /// Appends the tracker's complete state as checksummed frames —
    /// `CONFIG`, closed rows, open runs (sorted by object), buffered
    /// readings (sorted by time) — and the `END` commit marker carrying
    /// the (closed, open, pending) row counts: everything a snapshot
    /// holds after its header, and what [`OnlineTracker::state_hash`]
    /// digests. Deterministic: identical state encodes to identical bytes.
    pub(crate) fn write_committed_state(&self, out: &mut Vec<u8>) {
        frame::write_frame(out, tag::CONFIG, &self.encode_config());
        for row in &self.closed {
            frame::write_frame(out, tag::CLOSED_ROW, &frame::encode_row(row));
        }
        for (object, run) in self.sorted_open() {
            let row = OttRow { object, device: run.device, ts: run.ts, te: run.te };
            frame::write_frame(out, tag::OPEN_RUN, &frame::encode_row(&row));
        }
        for r in self.sorted_pending() {
            frame::write_frame(out, tag::PENDING, &frame::encode_reading(&r));
        }
        let (closed, open, pending) =
            (self.closed.len() as u64, self.open.len() as u64, self.pending.len() as u64);
        frame::write_frame(out, tag::END, &frame::encode_counts(closed, open, pending));
    }

    /// A 64-bit digest of the tracker's complete state: FNV-1a over
    /// `STATE_HASH_MAGIC` followed by the committed-state frames (the
    /// bytes a snapshot holds past its header). Two trackers hash
    /// equal iff their config, closed rows, open runs and reorder buffers
    /// are identical — the per-shard comparison point the record/replay
    /// harness checks at every barrier.
    pub fn state_hash(&self) -> u64 {
        let mut buf = Vec::new();
        buf.extend_from_slice(STATE_HASH_MAGIC);
        self.write_committed_state(&mut buf);
        fnv1a(&buf)
    }
}

/// Incrementally rebuilds an [`OnlineTracker`] from state frames
/// (`CONFIG` / `CLOSED_ROW` / `OPEN_RUN` / `PENDING`) for the snapshot
/// decoder ([`crate::store::snapshot`]).
pub(crate) struct TrackerAssembler {
    tracker: Option<OnlineTracker>,
    counts: (u64, u64, u64),
}

impl TrackerAssembler {
    pub(crate) fn new() -> TrackerAssembler {
        TrackerAssembler { tracker: None, counts: (0, 0, 0) }
    }

    fn tracker_mut(&mut self, offset: usize) -> Result<&mut OnlineTracker, StoreError> {
        self.tracker
            .as_mut()
            .ok_or(StoreError::Decode { offset, reason: "state frame before config frame".into() })
    }

    /// Applies one frame; `Ok(false)` when the tag is not a tracker state
    /// frame (the caller interprets it).
    pub(crate) fn apply(&mut self, f: &Frame<'_>) -> Result<bool, StoreError> {
        match f.tag {
            tag::CONFIG => {
                if self.tracker.is_some() {
                    return Err(StoreError::Decode {
                        offset: f.offset,
                        reason: "duplicate config frame".into(),
                    });
                }
                self.tracker = Some(OnlineTracker::from_config_frame(f)?);
                Ok(true)
            }
            tag::CLOSED_ROW => {
                let row = frame::decode_row(f)?;
                self.tracker_mut(f.offset)?.closed.push(row);
                self.counts.0 += 1;
                Ok(true)
            }
            tag::OPEN_RUN => {
                let row = frame::decode_row(f)?;
                let tracker = self.tracker_mut(f.offset)?;
                let run = OpenRun { device: row.device, ts: row.ts, te: row.te };
                if tracker.open.insert(row.object, run).is_some() {
                    return Err(StoreError::Decode {
                        offset: f.offset,
                        reason: format!("duplicate open run for object {}", row.object.0),
                    });
                }
                self.counts.1 += 1;
                Ok(true)
            }
            tag::PENDING => {
                let r = frame::decode_reading(f)?;
                self.tracker_mut(f.offset)?.pending.push(Pending(r));
                self.counts.2 += 1;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Decoded (closed, open, pending) counts so far, for validation
    /// against an `END` commit marker.
    pub(crate) fn counts(&self) -> (u64, u64, u64) {
        self.counts
    }

    /// The assembled tracker; errors if no `CONFIG` frame was seen.
    pub(crate) fn finish(self, offset: usize) -> Result<OnlineTracker, StoreError> {
        self.tracker.ok_or(StoreError::Decode { offset, reason: "missing config frame".into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::merge_raw_readings;
    use inflow_indoor::DeviceId;

    fn reading(o: u32, d: u32, t: f64) -> RawReading {
        RawReading { object: ObjectId(o), device: DeviceId(d), t }
    }

    /// Two objects weaving through three devices with gaps, in global
    /// timestamp order.
    fn weave() -> Vec<RawReading> {
        let mut readings = Vec::new();
        for (o, offsets) in [(1u32, 0.0), (2u32, 0.4)] {
            let mut t = offsets;
            for burst in 0..6 {
                let dev = burst % 3;
                for _ in 0..4 {
                    readings.push(reading(o, dev, t));
                    t += 1.0;
                }
                t += 5.0; // gap
            }
        }
        readings.sort_by(|a, b| a.t.total_cmp(&b.t));
        readings
    }

    /// Deterministic local shuffle: reverse non-overlapping windows of
    /// `w` readings, so each reading is displaced by at most `w - 1`
    /// positions (bounded disorder, no RNG dependency).
    fn window_reverse(mut readings: Vec<RawReading>, w: usize) -> Vec<RawReading> {
        for chunk in readings.chunks_mut(w) {
            chunk.reverse();
        }
        readings
    }

    /// The lateness bound that absorbs a `window_reverse(_, w)` shuffle of
    /// time-sorted readings: the largest time span of any window, padded
    /// so float rounding in `watermark - lateness` cannot land the
    /// tightest window exactly on the wrong side of the horizon.
    fn needed_lateness(sorted: &[RawReading], w: usize) -> f64 {
        sorted.chunks(w).map(|c| c.last().unwrap().t - c.first().unwrap().t).fold(0.0, f64::max)
            + 1e-6
    }

    #[test]
    fn streaming_matches_batch_merge() {
        let readings = weave();
        let batch = merge_raw_readings(readings.clone(), 1.5);

        let mut tracker = OnlineTracker::new(1.5);
        tracker.ingest_all(readings).unwrap();
        let ott = tracker.finish().unwrap();

        let batch_ott = ObjectTrackingTable::from_rows(batch).unwrap();
        assert_eq!(ott.len(), batch_ott.len());
        for (a, b) in ott.records().iter().zip(batch_ott.records()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn out_of_order_rejected() {
        let mut tracker = OnlineTracker::new(1.0);
        tracker.ingest(reading(1, 1, 5.0)).unwrap();
        let err = tracker.ingest(reading(1, 1, 4.0)).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrderReading { .. }));
        // Other objects are unaffected.
        tracker.ingest(reading(2, 1, 1.0)).unwrap();
    }

    #[test]
    fn reorder_buffer_matches_batch_on_shuffled_stream() {
        let readings = weave();
        let batch =
            ObjectTrackingTable::from_rows(merge_raw_readings(readings.clone(), 1.5)).unwrap();
        let lateness = needed_lateness(&readings, 5);
        let shuffled = window_reverse(readings, 5);
        let mut tracker = OnlineTracker::with_reorder(1.5, lateness);
        tracker.ingest_all(shuffled).unwrap();
        assert_eq!(tracker.late_dropped(), 0);
        let ott = tracker.finish().unwrap();
        assert_eq!(ott.records(), batch.records());
    }

    #[test]
    fn reorder_buffer_drops_hopelessly_late_readings() {
        let mut tracker = OnlineTracker::with_reorder(1.5, 1.0);
        tracker.ingest(reading(1, 1, 0.0)).unwrap();
        tracker.ingest(reading(1, 1, 10.0)).unwrap(); // applies t=0
        tracker.ingest(reading(1, 1, 20.0)).unwrap(); // applies t=10
                                                      // t=3 is far behind applied_to=10: dropped, not an error.
        tracker.ingest(reading(1, 1, 3.0)).unwrap();
        assert_eq!(tracker.late_dropped(), 1);
        let ott = tracker.finish().unwrap();
        // Three isolated single-reading runs (gaps exceed max_gap).
        assert_eq!(ott.len(), 3);
    }

    #[test]
    fn reorder_expiry_respects_lateness() {
        let mut tracker = OnlineTracker::with_reorder(1.0, 5.0);
        tracker.ingest(reading(1, 1, 0.0)).unwrap();
        tracker.ingest(reading(2, 2, 5.5)).unwrap();
        // The t=0 reading has been applied (horizon 0.5); object 1's run
        // ends at te=0. A strict watermark of 5.5 would expire it
        // (gap 5.5 > 1.0), but a buffered reading up to 5 s late could
        // still extend the run: the effective watermark is 0.5 and
        // gap 0.5 ≤ 1.0 → retained.
        assert_eq!(tracker.expire_stale_runs(), 0);
        assert_eq!(tracker.open_runs(), 1);
        // Advancing the watermark past the protection window expires it.
        tracker.ingest(reading(2, 2, 6.8)).unwrap();
        assert_eq!(tracker.expire_stale_runs(), 1);
    }

    #[test]
    fn snapshot_includes_open_runs() {
        let mut tracker = OnlineTracker::new(1.0);
        tracker.ingest(reading(1, 1, 0.0)).unwrap();
        tracker.ingest(reading(1, 1, 1.0)).unwrap();
        let ott = tracker.snapshot().unwrap();
        assert_eq!(ott.len(), 1);
        let rec = &ott.records()[0];
        assert_eq!((rec.ts, rec.te), (0.0, 1.0));
        // The tracker continues: the run keeps growing.
        tracker.ingest(reading(1, 1, 2.0)).unwrap();
        let ott = tracker.snapshot().unwrap();
        assert_eq!(ott.records()[0].te, 2.0);
    }

    #[test]
    fn expire_closes_stale_runs_only() {
        let mut tracker = OnlineTracker::new(1.0);
        tracker.ingest(reading(1, 1, 0.0)).unwrap();
        tracker.ingest(reading(2, 2, 9.5)).unwrap();
        // Watermark is 9.5: object 1's run (te=0) is stale, object 2's not.
        assert_eq!(tracker.expire_stale_runs(), 1);
        assert_eq!(tracker.open_runs(), 1);
        assert_eq!(tracker.closed_rows(), 1);
    }

    #[test]
    fn device_handover_closes_previous_run() {
        let mut tracker = OnlineTracker::new(1.0);
        tracker.ingest(reading(1, 1, 0.0)).unwrap();
        tracker.ingest(reading(1, 2, 0.5)).unwrap();
        assert_eq!(tracker.closed_rows(), 1);
        let ott = tracker.finish().unwrap();
        assert_eq!(ott.len(), 2);
        assert_eq!(ott.records()[0].device, DeviceId(1));
        assert_eq!(ott.records()[1].device, DeviceId(2));
    }

    #[test]
    fn empty_tracker_produces_empty_ott() {
        let ott = OnlineTracker::new(1.0).finish().unwrap();
        assert!(ott.is_empty());
    }
}
