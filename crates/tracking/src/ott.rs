//! The Object Tracking Table (OTT) and object state resolution.

use crate::Timestamp;
use inflow_indoor::DeviceId;
use std::collections::HashMap;

/// Identifier of a tracked moving object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
// The derived `PartialOrd` calls `partial_cmp` on its integer fields.
#[allow(clippy::disallowed_methods)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Identifier of a tracking record within an [`ObjectTrackingTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
// The derived `PartialOrd` calls `partial_cmp` on its integer fields.
#[allow(clippy::disallowed_methods)]
pub struct RecordId(pub u32);

impl RecordId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rd{}", self.0)
    }
}

/// An OTT row before record ids are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OttRow {
    pub object: ObjectId,
    pub device: DeviceId,
    pub ts: Timestamp,
    pub te: Timestamp,
}

/// A merged tracking record `⟨ID, objectID, deviceID, t_s, t_e⟩`
/// (paper Table 2): the object was continuously seen by `device` from
/// `ts` to `te`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingRecord {
    pub id: RecordId,
    pub object: ObjectId,
    pub device: DeviceId,
    pub ts: Timestamp,
    pub te: Timestamp,
}

/// Errors raised when assembling an [`ObjectTrackingTable`].
#[derive(Debug, Clone, PartialEq)]
pub enum OttError {
    /// A row had `te < ts` or a non-finite timestamp.
    InvalidInterval { object: ObjectId, ts: Timestamp, te: Timestamp },
    /// Two records of the same object overlap in time.
    OverlappingRecords { object: ObjectId, first_end: Timestamp, second_start: Timestamp },
}

impl std::fmt::Display for OttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OttError::InvalidInterval { object, ts, te } => {
                write!(f, "record for {object} has invalid interval [{ts}, {te}]")
            }
            OttError::OverlappingRecords { object, first_end, second_start } => write!(
                f,
                "records for {object} overlap: previous ends at {first_end}, next starts at {second_start}"
            ),
        }
    }
}

impl std::error::Error for OttError {}

/// The historical Object Tracking Table: all merged tracking records,
/// with per-object chains ordered by time.
#[derive(Debug, Default)]
pub struct ObjectTrackingTable {
    records: Vec<TrackingRecord>,
    /// Per object: record ids in chronological order.
    by_object: HashMap<ObjectId, Vec<RecordId>>,
    /// `chain_pos[record] = (index within its object's chain)`.
    chain_pos: Vec<u32>,
}

impl ObjectTrackingTable {
    /// Builds the table from unordered rows, assigning record ids in
    /// `(object, ts)` order. Rejects invalid intervals and per-object
    /// overlaps.
    ///
    /// Note on overlapping detection ranges: the paper assumes
    /// non-overlapping ranges (Remark, §3.3), under which an object is seen
    /// by at most one device at a time, making per-object records disjoint
    /// in time. This builder enforces that invariant.
    pub fn from_rows(mut rows: Vec<OttRow>) -> Result<ObjectTrackingTable, OttError> {
        for row in &rows {
            if !(row.ts.is_finite() && row.te.is_finite()) || row.te < row.ts {
                return Err(OttError::InvalidInterval {
                    object: row.object,
                    ts: row.ts,
                    te: row.te,
                });
            }
        }
        rows.sort_by(|a, b| a.object.cmp(&b.object).then_with(|| a.ts.total_cmp(&b.ts)));
        let mut records: Vec<TrackingRecord> = Vec::with_capacity(rows.len());
        let mut by_object: HashMap<ObjectId, Vec<RecordId>> = HashMap::new();
        let mut chain_pos = Vec::with_capacity(rows.len());
        for row in rows {
            let id = RecordId(records.len() as u32);
            let chain = by_object.entry(row.object).or_default();
            if let Some(&prev) = chain.last() {
                let prev_te = records[prev.index()].te;
                if row.ts < prev_te {
                    return Err(OttError::OverlappingRecords {
                        object: row.object,
                        first_end: prev_te,
                        second_start: row.ts,
                    });
                }
            }
            chain_pos.push(chain.len() as u32);
            chain.push(id);
            records.push(TrackingRecord {
                id,
                object: row.object,
                device: row.device,
                ts: row.ts,
                te: row.te,
            });
        }
        Ok(ObjectTrackingTable { records, by_object, chain_pos })
    }

    /// Number of tracking records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, indexed by [`RecordId`].
    pub fn records(&self) -> &[TrackingRecord] {
        &self.records
    }

    /// A record by id.
    pub fn record(&self, id: RecordId) -> &TrackingRecord {
        &self.records[id.index()]
    }

    /// The distinct tracked objects (arbitrary order).
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.by_object.keys().copied()
    }

    /// Number of distinct objects.
    pub fn object_count(&self) -> usize {
        self.by_object.len()
    }

    /// The chronologically ordered record chain of `object`.
    pub fn object_records(&self, object: ObjectId) -> &[RecordId] {
        self.by_object.get(&object).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The position of `id` within its object's chronologically ordered
    /// record chain.
    pub fn chain_position(&self, id: RecordId) -> usize {
        self.chain_pos[id.index()] as usize
    }

    /// The record immediately before `id` in its object's chain
    /// (the paper's `rd_pre` relative to a covered record).
    pub fn predecessor(&self, id: RecordId) -> Option<RecordId> {
        let pos = self.chain_pos[id.index()] as usize;
        if pos == 0 {
            None
        } else {
            let chain = &self.by_object[&self.records[id.index()].object];
            Some(chain[pos - 1])
        }
    }

    /// The record immediately after `id` in its object's chain.
    pub fn successor(&self, id: RecordId) -> Option<RecordId> {
        let chain = &self.by_object[&self.records[id.index()].object];
        let pos = self.chain_pos[id.index()] as usize;
        chain.get(pos + 1).copied()
    }

    /// The tracking state of `object` at time `t` (paper §3.1.1):
    /// active when a record covers `t`, inactive between two records, and
    /// `None` outside the object's tracked lifetime.
    pub fn state_at(&self, object: ObjectId, t: Timestamp) -> Option<ObjectState> {
        let chain = self.object_records(object);
        if chain.is_empty() {
            return None;
        }
        // Binary search for the first record with ts > t.
        let idx = chain.partition_point(|&rid| self.records[rid.index()].ts <= t);
        if idx == 0 {
            // Before the first detection: not yet tracked.
            return None;
        }
        let cur = chain[idx - 1];
        let rec = &self.records[cur.index()];
        if t <= rec.te {
            return Some(ObjectState::Active { cov: cur, pre: self.predecessor(cur) });
        }
        // t falls after rec; inactive if a successor exists.
        chain.get(idx).map(|&suc| ObjectState::Inactive { pre: cur, suc })
    }
}

/// The tracking state of an object at a time point (paper §3.1.1,
/// Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectState {
    /// A record `cov` covers `t`; `pre` is its predecessor (absent for the
    /// object's first record).
    Active { cov: RecordId, pre: Option<RecordId> },
    /// No record covers `t`: the object is between records `pre` and `suc`
    /// with `pre.t_e < t < suc.t_s`.
    Inactive { pre: RecordId, suc: RecordId },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId(i)
    }

    fn row(o: u32, d: u32, ts: f64, te: f64) -> OttRow {
        OttRow { object: ObjectId(o), device: dev(d), ts, te }
    }

    /// Re-creation of the paper's Table 2 / Figure 1 example: object `o1`
    /// seen by dev1, dev2, dev3 in turn.
    fn table2_ott() -> ObjectTrackingTable {
        ObjectTrackingTable::from_rows(vec![
            row(1, 1, 1.0, 2.0),  // rd1
            row(1, 2, 3.0, 4.0),  // rd2
            row(1, 3, 5.0, 6.0),  // rd3
            row(2, 1, 7.0, 8.0),  // rd4 (other object)
            row(2, 4, 9.0, 10.0), // rd5
        ])
        .unwrap()
    }

    #[test]
    fn records_are_ordered_per_object() {
        let ott = table2_ott();
        assert_eq!(ott.len(), 5);
        assert_eq!(ott.object_count(), 2);
        let chain = ott.object_records(ObjectId(1));
        assert_eq!(chain.len(), 3);
        let times: Vec<f64> = chain.iter().map(|&r| ott.record(r).ts).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn predecessor_and_successor_navigation() {
        let ott = table2_ott();
        let chain = ott.object_records(ObjectId(1)).to_vec();
        assert_eq!(ott.predecessor(chain[0]), None);
        assert_eq!(ott.predecessor(chain[1]), Some(chain[0]));
        assert_eq!(ott.successor(chain[1]), Some(chain[2]));
        assert_eq!(ott.successor(chain[2]), None);
    }

    #[test]
    fn active_state_when_covered() {
        // Figure 1: the object is in an active state at t = 5 (covered by
        // rd3, predecessor rd2).
        let ott = table2_ott();
        let chain = ott.object_records(ObjectId(1)).to_vec();
        match ott.state_at(ObjectId(1), 5.5) {
            Some(ObjectState::Active { cov, pre }) => {
                assert_eq!(cov, chain[2]);
                assert_eq!(pre, Some(chain[1]));
            }
            other => panic!("expected active, got {other:?}"),
        }
        // Boundary instants count as active.
        assert!(matches!(ott.state_at(ObjectId(1), 1.0), Some(ObjectState::Active { .. })));
        assert!(matches!(ott.state_at(ObjectId(1), 2.0), Some(ObjectState::Active { .. })));
    }

    #[test]
    fn inactive_state_between_records() {
        // Figure 1: inactive between rd2 (ends t4) and rd3 (starts t5).
        let ott = table2_ott();
        let chain = ott.object_records(ObjectId(1)).to_vec();
        match ott.state_at(ObjectId(1), 4.5) {
            Some(ObjectState::Inactive { pre, suc }) => {
                assert_eq!(pre, chain[1]);
                assert_eq!(suc, chain[2]);
            }
            other => panic!("expected inactive, got {other:?}"),
        }
    }

    #[test]
    fn outside_lifetime_is_none() {
        let ott = table2_ott();
        assert_eq!(ott.state_at(ObjectId(1), 0.5), None); // before first
        assert_eq!(ott.state_at(ObjectId(1), 6.5), None); // after last
        assert_eq!(ott.state_at(ObjectId(9), 3.0), None); // unknown object
    }

    #[test]
    fn active_for_first_record_has_no_predecessor() {
        let ott = table2_ott();
        match ott.state_at(ObjectId(1), 1.5) {
            Some(ObjectState::Active { pre, .. }) => assert_eq!(pre, None),
            other => panic!("expected active, got {other:?}"),
        }
    }

    #[test]
    fn invalid_interval_rejected() {
        let err = ObjectTrackingTable::from_rows(vec![row(1, 1, 5.0, 4.0)]).unwrap_err();
        assert!(matches!(err, OttError::InvalidInterval { .. }));
        let err = ObjectTrackingTable::from_rows(vec![OttRow {
            object: ObjectId(1),
            device: dev(1),
            ts: f64::NAN,
            te: 1.0,
        }])
        .unwrap_err();
        assert!(matches!(err, OttError::InvalidInterval { .. }));
    }

    #[test]
    fn overlapping_records_rejected() {
        let err = ObjectTrackingTable::from_rows(vec![row(1, 1, 1.0, 3.0), row(1, 2, 2.0, 4.0)])
            .unwrap_err();
        assert!(matches!(err, OttError::OverlappingRecords { .. }));
    }

    #[test]
    fn touching_records_allowed() {
        // te == next ts is legal (instantaneous hand-over between readers).
        let ott =
            ObjectTrackingTable::from_rows(vec![row(1, 1, 1.0, 3.0), row(1, 2, 3.0, 4.0)]).unwrap();
        assert_eq!(ott.len(), 2);
        // At the instant of hand-over the object is active (the later
        // record covers it deterministically).
        assert!(matches!(ott.state_at(ObjectId(1), 3.0), Some(ObjectState::Active { .. })));
    }

    #[test]
    fn rows_out_of_order_are_sorted() {
        let ott =
            ObjectTrackingTable::from_rows(vec![row(1, 2, 3.0, 4.0), row(1, 1, 1.0, 2.0)]).unwrap();
        let chain = ott.object_records(ObjectId(1));
        assert_eq!(ott.record(chain[0]).device, dev(1));
        assert_eq!(ott.record(chain[1]).device, dev(2));
    }

    #[test]
    fn zero_length_record_is_valid() {
        // A single raw reading yields ts == te.
        let ott = ObjectTrackingTable::from_rows(vec![row(1, 1, 2.0, 2.0)]).unwrap();
        assert!(matches!(ott.state_at(ObjectId(1), 2.0), Some(ObjectState::Active { .. })));
    }
}
