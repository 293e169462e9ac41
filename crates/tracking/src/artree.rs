//! The AR-tree: an augmented temporal index over the OTT (paper §4.1).
//!
//! Every tracking record `rd_c` is indexed by a leaf entry
//! `(t1, t2, Ptr_p, Ptr_c)` where `(t1, t2] = (rd_p.t_e, rd_c.t_e]` is the
//! *augmented tracking time interval* (`rd_p` being the object's previous
//! record) and the two pointers reference the predecessor and current
//! records. For an object's first record the interval is the closed
//! `[rd_c.t_s, rd_c.t_e]` — before its first detection an object is not
//! part of the tracked population.
//!
//! A point query at `t` returns, per object, the unique leaf entry whose
//! interval covers `t`; comparing `t` with the current record's `[t_s,
//! t_e]` then resolves the active/inactive state and the
//! `rd_pre` / `rd_cov` / `rd_suc` records exactly as §4.1 describes. A
//! range query returns all entries overlapping the query interval, from
//! which the interval algorithms assemble per-object record chains
//! (Table 3).

use crate::ott::{ObjectId, ObjectState, ObjectTrackingTable, RecordId};
use crate::Timestamp;

/// Fan-out of the static AR-tree nodes.
const FANOUT: usize = 32;

/// A leaf entry of the AR-tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArTreeEntry {
    /// Start of the augmented interval (`rd_pre.t_e`, or `rd_cov.t_s` for
    /// an object's first record).
    pub t1: Timestamp,
    /// End of the augmented interval (`rd_cov.t_e`).
    pub t2: Timestamp,
    /// Whether `t1` itself belongs to the interval (true only for an
    /// object's first record).
    pub closed_start: bool,
    /// The predecessor record (`Ptr_p`); `None` for the first record.
    pub pred: Option<RecordId>,
    /// The current record (`Ptr_c`).
    pub cur: RecordId,
    /// The tracked object, denormalized for convenient grouping.
    pub object: ObjectId,
}

impl ArTreeEntry {
    /// Whether the augmented interval covers time `t`.
    pub fn covers(&self, t: Timestamp) -> bool {
        let lower_ok = if self.closed_start { t >= self.t1 } else { t > self.t1 };
        lower_ok && t <= self.t2
    }

    /// Whether the augmented interval overlaps `[qs, qe]`.
    pub fn overlaps(&self, qs: Timestamp, qe: Timestamp) -> bool {
        let lower_ok = if self.closed_start { self.t1 <= qe } else { self.t1 < qe };
        lower_ok && self.t2 >= qs
    }
}

#[derive(Debug, Clone, Copy)]
struct ArNode {
    tmin: Timestamp,
    tmax: Timestamp,
    /// Child index range: into `entries` for leaves, into `nodes` for
    /// internal nodes.
    first: u32,
    count: u32,
    leaf: bool,
}

/// The static AR-tree over an [`ObjectTrackingTable`].
#[derive(Debug)]
pub struct ArTree {
    entries: Vec<ArTreeEntry>,
    nodes: Vec<ArNode>,
    root: usize,
}

impl ArTree {
    /// Builds the AR-tree for all records of `ott`.
    pub fn build(ott: &ObjectTrackingTable) -> ArTree {
        let mut entries: Vec<ArTreeEntry> = Vec::with_capacity(ott.len());
        for obj in ott.objects() {
            for &rid in ott.object_records(obj) {
                let rec = ott.record(rid);
                let pred = ott.predecessor(rid);
                let (t1, closed_start) = match pred {
                    Some(p) => (ott.record(p).te, false),
                    None => (rec.ts, true),
                };
                entries.push(ArTreeEntry {
                    t1,
                    t2: rec.te,
                    closed_start,
                    pred,
                    cur: rid,
                    object: obj,
                });
            }
        }
        // Total order (t1, object, record): object iteration above is
        // hash-ordered, and a deterministic entry array is what makes two
        // builds over equal OTTs return query hits in the same order.
        entries.sort_by(|a, b| {
            a.t1.total_cmp(&b.t1)
                .then_with(|| a.object.cmp(&b.object))
                .then_with(|| a.cur.index().cmp(&b.cur.index()))
        });

        let mut nodes: Vec<ArNode> = Vec::new();
        if entries.is_empty() {
            nodes.push(ArNode { tmin: 0.0, tmax: -1.0, first: 0, count: 0, leaf: true });
            return ArTree { entries, nodes, root: 0 };
        }
        // Leaf level.
        let mut level_start = 0usize;
        for (i, chunk) in entries.chunks(FANOUT).enumerate() {
            let tmin = chunk.iter().map(|e| e.t1).fold(f64::INFINITY, f64::min);
            let tmax = chunk.iter().map(|e| e.t2).fold(f64::NEG_INFINITY, f64::max);
            nodes.push(ArNode {
                tmin,
                tmax,
                first: (i * FANOUT) as u32,
                count: chunk.len() as u32,
                leaf: true,
            });
        }
        // Internal levels.
        let mut level_len = nodes.len();
        while level_len > 1 {
            let next_start = nodes.len();
            let mut i = level_start;
            while i < level_start + level_len {
                let end = (i + FANOUT).min(level_start + level_len);
                let tmin = nodes[i..end].iter().map(|n| n.tmin).fold(f64::INFINITY, f64::min);
                let tmax = nodes[i..end].iter().map(|n| n.tmax).fold(f64::NEG_INFINITY, f64::max);
                nodes.push(ArNode {
                    tmin,
                    tmax,
                    first: i as u32,
                    count: (end - i) as u32,
                    leaf: false,
                });
                i = end;
            }
            level_start = next_start;
            level_len = nodes.len() - next_start;
        }
        let root = nodes.len() - 1;
        ArTree { entries, nodes, root }
    }

    /// Number of indexed entries (= OTT records).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All leaf entries in `t1` order.
    pub fn entries(&self) -> &[ArTreeEntry] {
        &self.entries
    }

    /// All leaf entries whose augmented interval covers `t` — at most one
    /// per object (Algorithm 1, line 3).
    pub fn point_query(&self, t: Timestamp) -> Vec<&ArTreeEntry> {
        let mut out = Vec::new();
        if self.entries.is_empty() {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let node = self.nodes[idx];
            if t < node.tmin || t > node.tmax {
                // Closed-start entries make the lower bound inclusive, so
                // `t == tmin` must still be explored (handled by `<`).
                continue;
            }
            if node.leaf {
                for e in &self.entries[node.first as usize..(node.first + node.count) as usize] {
                    if e.covers(t) {
                        out.push(e);
                    }
                }
            } else {
                stack.extend(node.first as usize..(node.first + node.count) as usize);
            }
        }
        out
    }

    /// All leaf entries whose augmented interval overlaps `[qs, qe]`
    /// (Algorithm 4, line 3).
    pub fn range_query(&self, qs: Timestamp, qe: Timestamp) -> Vec<&ArTreeEntry> {
        let mut out = Vec::new();
        if self.entries.is_empty() || qe < qs {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let node = self.nodes[idx];
            if node.tmin > qe || node.tmax < qs {
                continue;
            }
            if node.leaf {
                for e in &self.entries[node.first as usize..(node.first + node.count) as usize] {
                    if e.overlaps(qs, qe) {
                        out.push(e);
                    }
                }
            } else {
                stack.extend(node.first as usize..(node.first + node.count) as usize);
            }
        }
        out
    }

    /// Resolves the object state encoded by a leaf entry at time `t`
    /// (§4.1): active when the current record covers `t`, inactive when
    /// `t` falls in the gap after the predecessor.
    pub fn resolve_state(
        ott: &ObjectTrackingTable,
        entry: &ArTreeEntry,
        t: Timestamp,
    ) -> Option<ObjectState> {
        let cur = ott.record(entry.cur);
        if t >= cur.ts && t <= cur.te {
            return Some(ObjectState::Active { cov: entry.cur, pre: entry.pred });
        }
        let pre = entry.pred?;
        let pre_rec = ott.record(pre);
        if t > pre_rec.te && t < cur.ts {
            return Some(ObjectState::Inactive { pre, suc: entry.cur });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ott::OttRow;
    use inflow_indoor::DeviceId;

    fn row(o: u32, d: u32, ts: f64, te: f64) -> OttRow {
        OttRow { object: ObjectId(o), device: DeviceId(d), ts, te }
    }

    fn sample_ott() -> ObjectTrackingTable {
        ObjectTrackingTable::from_rows(vec![
            row(1, 1, 1.0, 2.0),
            row(1, 2, 3.0, 4.0),
            row(1, 3, 5.0, 6.0),
            row(2, 1, 7.0, 8.0),
            row(2, 4, 9.0, 10.0),
            row(3, 2, 0.5, 9.5),
        ])
        .unwrap()
    }

    #[test]
    fn point_query_matches_state_machine() {
        let ott = sample_ott();
        let tree = ArTree::build(&ott);
        assert_eq!(tree.len(), 6);
        for t in [0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 4.5, 5.5, 6.0, 6.5, 8.5, 9.75, 10.5] {
            let hits = tree.point_query(t);
            // At most one entry per object.
            let mut objs: Vec<ObjectId> = hits.iter().map(|e| e.object).collect();
            objs.sort_unstable();
            objs.dedup();
            assert_eq!(objs.len(), hits.len(), "duplicate object at t={t}");
            for obj in [1, 2, 3].map(ObjectId) {
                let via_tree = hits
                    .iter()
                    .find(|e| e.object == obj)
                    .and_then(|e| ArTree::resolve_state(&ott, e, t));
                let via_ott = ott.state_at(obj, t);
                assert_eq!(via_tree, via_ott, "object {obj} at t={t}");
            }
        }
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let ott = sample_ott();
        let tree = ArTree::build(&ott);
        for (qs, qe) in [(0.0, 20.0), (2.5, 4.5), (6.5, 6.9), (9.0, 9.0), (11.0, 12.0)] {
            let mut got: Vec<(ObjectId, RecordId)> =
                tree.range_query(qs, qe).iter().map(|e| (e.object, e.cur)).collect();
            got.sort_unstable();
            let mut want: Vec<(ObjectId, RecordId)> = tree
                .entries()
                .iter()
                .filter(|e| e.overlaps(qs, qe))
                .map(|e| (e.object, e.cur))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "range [{qs}, {qe}]");
        }
    }

    #[test]
    fn first_record_has_closed_start() {
        let ott = sample_ott();
        let tree = ArTree::build(&ott);
        // Object 3's only record starts at 0.5; a point query at exactly
        // 0.5 must find it.
        let hits = tree.point_query(0.5);
        assert!(hits.iter().any(|e| e.object == ObjectId(3) && e.closed_start));
    }

    #[test]
    fn augmented_intervals_partition_lifetime() {
        let ott = sample_ott();
        let tree = ArTree::build(&ott);
        // Object 1 lives on [1, 6]; every t in that span is covered by
        // exactly one of its entries.
        let mut t = 1.0;
        while t <= 6.0 {
            let covering: Vec<_> =
                tree.entries().iter().filter(|e| e.object == ObjectId(1) && e.covers(t)).collect();
            assert_eq!(covering.len(), 1, "t={t}");
            t += 0.25;
        }
    }

    #[test]
    fn empty_tree_queries() {
        let ott = ObjectTrackingTable::from_rows(Vec::new()).unwrap();
        let tree = ArTree::build(&ott);
        assert!(tree.is_empty());
        assert!(tree.point_query(1.0).is_empty());
        assert!(tree.range_query(0.0, 10.0).is_empty());
    }

    #[test]
    fn large_randomized_equivalence() {
        // Build a larger OTT with a deterministic xorshift generator and
        // check point queries against the state machine.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::new();
        for o in 0..50u32 {
            let mut t = next() * 10.0;
            for _ in 0..20 {
                let dur = 0.1 + next() * 2.0;
                let dev = (next() * 10.0) as u32;
                rows.push(row(o, dev, t, t + dur));
                t += dur + 0.05 + next() * 3.0;
            }
        }
        let ott = ObjectTrackingTable::from_rows(rows).unwrap();
        let tree = ArTree::build(&ott);
        for i in 0..200 {
            let t = i as f64 * 0.5;
            let hits = tree.point_query(t);
            for obj in (0..50).map(ObjectId) {
                let via_tree = hits
                    .iter()
                    .find(|e| e.object == obj)
                    .and_then(|e| ArTree::resolve_state(&ott, e, t));
                assert_eq!(via_tree, ott.state_at(obj, t), "object {obj} t={t}");
            }
        }
    }
}
