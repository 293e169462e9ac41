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

/// A structural defect found while reloading a flat-serialized tree
/// ([`ArTree::from_flat_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTreeError {
    /// What invariant the blob violated.
    pub reason: String,
}

impl std::fmt::Display for FlatTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid flat AR-tree: {}", self.reason)
    }
}

impl std::error::Error for FlatTreeError {}

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
        // builds over equal OTTs byte-identical when serialized.
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

    /// Serializes the tree into a flat, position-independent byte layout:
    /// a fixed header (`ott_len`, entry count, node count, root index)
    /// followed by the entry array and the node array, both fixed-width
    /// little-endian records. Reloading ([`ArTree::from_flat_bytes`]) is a
    /// single bounds-check pass — no sort, no node construction — which
    /// is what makes reloading a segment's tree cheap compared to a §4.1
    /// rebuild.
    ///
    /// `ott_len` is the record count of the [`ObjectTrackingTable`] this
    /// tree indexes; it is stored so that a reloaded tree can be validated
    /// against the table it is paired with.
    pub fn to_flat_bytes(&self, ott_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.entries.len() * 29 + self.nodes.len() * 25);
        out.extend_from_slice(&(ott_len as u32).to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.root as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.t1.to_le_bytes());
            out.extend_from_slice(&e.t2.to_le_bytes());
            out.push(e.closed_start as u8);
            out.extend_from_slice(&e.pred.map_or(u32::MAX, |p| p.0).to_le_bytes());
            out.extend_from_slice(&e.cur.0.to_le_bytes());
            out.extend_from_slice(&e.object.0.to_le_bytes());
        }
        for n in &self.nodes {
            out.extend_from_slice(&n.tmin.to_le_bytes());
            out.extend_from_slice(&n.tmax.to_le_bytes());
            out.extend_from_slice(&n.first.to_le_bytes());
            out.extend_from_slice(&n.count.to_le_bytes());
            out.push(n.leaf as u8);
        }
        out
    }

    /// Reloads a tree serialized by [`ArTree::to_flat_bytes`], returning
    /// it together with the stored `ott_len`. Every structural invariant
    /// the query paths rely on is re-validated — index ranges, finite and
    /// ordered interval endpoints, child ranges that terminate — so a
    /// corrupted or truncated blob yields a typed error, never a panic or
    /// a silently wrong tree.
    pub fn from_flat_bytes(bytes: &[u8]) -> Result<(ArTree, usize), FlatTreeError> {
        let fail = |reason: &str| Err(FlatTreeError { reason: reason.to_string() });
        if bytes.len() < 16 {
            return fail("blob shorter than header");
        }
        let word = |i: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[i * 4..i * 4 + 4]);
            u32::from_le_bytes(b)
        };
        let (ott_len, entry_count, node_count, root) =
            (word(0) as usize, word(1) as usize, word(2) as usize, word(3) as usize);
        let expect = 16usize
            .checked_add(
                entry_count
                    .checked_mul(29)
                    .ok_or_else(|| FlatTreeError { reason: "entry count overflows".into() })?,
            )
            .and_then(|n| n.checked_add(node_count.checked_mul(25)?))
            .ok_or_else(|| FlatTreeError { reason: "size overflows".into() })?;
        if bytes.len() != expect {
            return fail("blob length does not match header counts");
        }
        if node_count == 0 || root != node_count - 1 {
            return fail("root must be the last node");
        }
        if entry_count == 0 && node_count != 1 {
            return fail("empty tree must have exactly the sentinel node");
        }

        let f64_at = |p: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[p..p + 8]);
            f64::from_le_bytes(b)
        };
        let u32_at = |p: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[p..p + 4]);
            u32::from_le_bytes(b)
        };
        let mut entries = Vec::with_capacity(entry_count);
        let mut p = 16;
        let mut prev_t1 = f64::NEG_INFINITY;
        for _ in 0..entry_count {
            let (t1, t2) = (f64_at(p), f64_at(p + 8));
            let closed_start = match bytes[p + 16] {
                0 => false,
                1 => true,
                _ => return fail("bad closed_start flag"),
            };
            let pred_raw = u32_at(p + 17);
            let cur = u32_at(p + 21);
            let object = u32_at(p + 25);
            p += 29;
            if !(t1.is_finite() && t2.is_finite()) || t2 < t1 {
                return fail("entry interval not finite and ordered");
            }
            if t1 < prev_t1 {
                return fail("entries not sorted by t1");
            }
            prev_t1 = t1;
            if cur as usize >= ott_len || (pred_raw != u32::MAX && pred_raw as usize >= ott_len) {
                return fail("entry record pointer out of range");
            }
            entries.push(ArTreeEntry {
                t1,
                t2,
                closed_start,
                pred: (pred_raw != u32::MAX).then_some(RecordId(pred_raw)),
                cur: RecordId(cur),
                object: ObjectId(object),
            });
        }
        let mut nodes = Vec::with_capacity(node_count);
        for idx in 0..node_count {
            let (tmin, tmax) = (f64_at(p), f64_at(p + 8));
            let (first, count) = (u32_at(p + 16), u32_at(p + 20));
            let leaf = match bytes[p + 24] {
                0 => false,
                1 => true,
                _ => return fail("bad leaf flag"),
            };
            p += 25;
            if tmin.is_nan() || tmax.is_nan() {
                return fail("node bounds are NaN");
            }
            let end = (first as usize).checked_add(count as usize);
            let in_range = match (leaf, end) {
                (true, Some(end)) => end <= entry_count,
                // Children of an internal node live strictly before it in
                // the array (bottom-up construction), which also
                // guarantees traversal terminates.
                (false, Some(end)) => count > 0 && end <= idx,
                (_, None) => false,
            };
            if !in_range {
                return fail("node child range out of bounds");
            }
            nodes.push(ArNode { tmin, tmax, first, count, leaf });
        }
        Ok((ArTree { entries, nodes, root }, ott_len))
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
    fn flat_round_trip_preserves_queries() {
        let ott = sample_ott();
        let tree = ArTree::build(&ott);
        let bytes = tree.to_flat_bytes(ott.len());
        let (reloaded, ott_len) = ArTree::from_flat_bytes(&bytes).expect("clean blob");
        assert_eq!(ott_len, ott.len());
        assert_eq!(reloaded.entries(), tree.entries());
        for t in [0.0, 0.5, 1.0, 2.5, 5.5, 9.75, 10.5] {
            let a: Vec<_> = tree.point_query(t).into_iter().map(|e| (e.object, e.cur)).collect();
            let b: Vec<_> =
                reloaded.point_query(t).into_iter().map(|e| (e.object, e.cur)).collect();
            assert_eq!(a, b, "point query at t={t}");
        }
        for (qs, qe) in [(0.0, 20.0), (2.5, 4.5), (11.0, 12.0)] {
            assert_eq!(
                tree.range_query(qs, qe).len(),
                reloaded.range_query(qs, qe).len(),
                "range [{qs}, {qe}]"
            );
        }
    }

    #[test]
    fn flat_round_trip_empty_tree() {
        let ott = ObjectTrackingTable::from_rows(Vec::new()).unwrap();
        let tree = ArTree::build(&ott);
        let bytes = tree.to_flat_bytes(0);
        let (reloaded, ott_len) = ArTree::from_flat_bytes(&bytes).expect("clean empty blob");
        assert_eq!(ott_len, 0);
        assert!(reloaded.is_empty());
        assert!(reloaded.point_query(1.0).is_empty());
    }

    #[test]
    fn flat_decode_rejects_truncation_at_every_byte() {
        let ott = sample_ott();
        let bytes = ArTree::build(&ott).to_flat_bytes(ott.len());
        for cut in 0..bytes.len() {
            assert!(
                ArTree::from_flat_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn flat_decode_never_panics_on_byte_flips() {
        // The blob is not checksummed at this layer (the store's frame CRC
        // covers it); the decoder's own contract is: typed error or a tree
        // whose indices are all in bounds — never a panic, never an
        // out-of-range pointer.
        let ott = sample_ott();
        let bytes = ArTree::build(&ott).to_flat_bytes(ott.len());
        for i in 0..bytes.len() {
            for bit in [0, 3, 7] {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                if let Ok((tree, ott_len)) = ArTree::from_flat_bytes(&bad) {
                    for e in tree.entries() {
                        assert!(e.cur.index() < ott_len);
                        if let Some(p) = e.pred {
                            assert!(p.index() < ott_len);
                        }
                    }
                    // Queries stay in bounds whatever the flip did.
                    tree.point_query(5.0);
                    tree.range_query(0.0, 10.0);
                }
            }
        }
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
