//! The join query algorithms (Algorithms 2, 3 and 5).
//!
//! Three phases (§4.2.2, §4.3.2):
//!
//! 1. build an in-memory **aggregate R-tree** `R_I` over the MBRs of the
//!    objects relevant to the query, each node entry augmented with the
//!    count of objects in its subtree;
//! 2. initialize a max-priority queue pairing POI R-tree (`R_P`) entries
//!    with *join lists* of `R_I` entries whose MBRs overlap, prioritized by
//!    the count-based **upper-bound flow** (an object's presence never
//!    exceeds 1, so the object count bounds the flow from above);
//! 3. drain the queue: descend whichever side is coarser
//!    (`expandList`, Algorithm 3, descends the `R_I` side), compute exact
//!    flows only when a POI leaf meets object leaves, and emit a POI as
//!    soon as its exact flow outranks every remaining upper bound.
//!
//! The interval variant implements the §4.3.2 improvement: each object
//! entry carries the per-segment small MBRs of its trajectory (Figure 9),
//! and a leaf object is admitted to a join list only if at least one small
//! MBR intersects the POI entry — eliminating the dead space of the single
//! large trajectory MBR.

use crate::analytics::FlowAnalytics;
use crate::profiling;
use crate::query::{IntervalQuery, QueryResult, QueryStats, SnapshotQuery};
use inflow_geometry::{Mbr, Region};
use inflow_indoor::PoiId;
use inflow_obs::{Counter, Histogram, Timer};
use inflow_rtree::{EntryRef, RTree};
use inflow_tracking::{ArTree, ObjectState};
use inflow_uncertainty::UncertaintyRegion;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Configuration switches for the join algorithms (ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct JoinConfig {
    /// Apply the finer small-MBR checks when filtering join lists
    /// (`true` = the paper's improved algorithm, which is the variant it
    /// evaluates; `false` = the single-large-MBR basic framework).
    ///
    /// In the **interval** join this is the §4.3.2 per-segment check
    /// (Figure 9). In the **snapshot** join, where `R_I` holds coarse
    /// MBRs (Algorithm 2 line 8) and exact regions are derived lazily,
    /// the analogous refinement tests an already-derived region's tight
    /// segment MBR instead of the coarse entry MBR — same flows, fewer
    /// presence integrations.
    pub use_segment_mbrs: bool,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig { use_segment_mbrs: true }
    }
}

/// A priority-queue item: an `R_P` entry with its join list and
/// upper-bound flow, or a resolved POI with its exact flow.
struct Item {
    ub: f64,
    /// `true` once the flow is exact (the join list has been consumed).
    exact: bool,
    e_p: EntryRef,
    list: Vec<EntryRef>,
    poi: Option<PoiId>,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Item {}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on the upper bound; exact flows win ties so a resolved
        // POI is emitted before equal-bound unresolved entries.
        self.ub
            .total_cmp(&other.ub)
            .then_with(|| self.exact.cmp(&other.exact))
            .then_with(|| other.e_p.cmp(&self.e_p))
    }
}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Algorithm 2 (+ 3): join-based snapshot top-k.
pub fn snapshot(fa: &FlowAnalytics, q: &SnapshotQuery, cfg: &JoinConfig) -> QueryResult {
    let mut rec = fa.recorder();
    let grid0 = profiling::grid_start(&rec);
    let root = rec.enter("snapshot_join");
    let mut stats = QueryStats::default();

    // Phase 1: aggregate R-tree over coarse object MBRs (lines 1–11).
    let span = rec.enter("candidate_retrieval");
    let mut states: Vec<ObjectState> = Vec::new();
    let mut repaired_slots: Vec<bool> = Vec::new();
    let mut data: Vec<(Mbr, u32)> = Vec::new();
    for entry in fa.artree().point_query(q.t) {
        let Some(state) = ArTree::resolve_state(fa.ott(), entry, q.t) else {
            continue;
        };
        stats.objects_considered += 1;
        let mbr = fa.engine().snapshot_mbr_coarse(fa.ott(), state, q.t);
        if mbr.is_empty() {
            // The coarse MBR is already empty, so the exact region would
            // be too (infeasible/degraded records).
            stats.empty_urs += 1;
            continue;
        }
        let slot = states.len() as u32;
        states.push(state);
        repaired_slots.push(fa.is_repaired(entry.object));
        data.push((mbr, slot));
    }
    rec.exit(span);
    let span = rec.enter("build_ri");
    let ri: RTree<u32> = RTree::bulk_load(data);
    rec.exit(span);
    let span = rec.enter("build_poi_rtree");
    let rp = fa.build_poi_rtree(&q.pois);
    rec.exit(span);

    // H_U: lazily derived uncertainty regions, shared across join lists
    // (lines 29–31). In a `RefCell` because the fine check reads it while
    // the presence closure populates it.
    let h_u: RefCell<Vec<Option<UncertaintyRegion>>> =
        RefCell::new((0..states.len()).map(|_| None).collect());
    let plan = fa.engine().context().plan();
    let engine = fa.engine();
    let ott = fa.ott();
    let t = q.t;
    let refine_with_derived = cfg.use_segment_mbrs;
    let timed = rec.is_enabled();

    let mut urs_built = 0usize;
    let mut presence_evals = 0usize;
    let mut mbr_rejects = 0usize;
    let mut small_mbr_rejects = 0usize;
    let mut accumulated_mass = 0.0f64;
    let mut repaired_mass = 0.0f64;
    let mut presence_hist = Histogram::new();
    let mut counters = JoinCounters::default();
    let descent = rec.enter("join_descent");
    let ranked = {
        let mut fine_check = |slot: u32, mbr: &Mbr| {
            // Snapshot analogue of the §4.3.2 refinement: the coarse R_I
            // entry MBR admitted this pairing, but once the object's
            // exact region is in H_U its tight segment MBR can veto it.
            if !refine_with_derived {
                return true;
            }
            match h_u.borrow()[slot as usize].as_ref() {
                None => true,
                Some(ur) if ur.any_segment_intersects(mbr) => true,
                Some(_) => {
                    small_mbr_rejects += 1;
                    false
                }
            }
        };
        let mut presence = |slot: u32, poi_id: PoiId| {
            let slot = slot as usize;
            if h_u.borrow()[slot].is_none() {
                let ur = engine.snapshot_ur(ott, states[slot], t);
                h_u.borrow_mut()[slot] = Some(ur);
                urs_built += 1;
            }
            let h = h_u.borrow();
            // Built two lines up when absent; contribute nothing rather
            // than panic inside the join loop if that ever changes.
            let Some(ur) = h[slot].as_ref() else { return 0.0 };
            let poi = plan.poi(poi_id);
            // Cheap MBR reject mirrors the iterative algorithm's R_P
            // filtering; only genuine integrations are counted.
            if !ur.mbr().intersects(&poi.mbr()) {
                mbr_rejects += 1;
                return 0.0;
            }
            presence_evals += 1;
            let p = if timed {
                let t0 = Instant::now();
                let p = engine.presence(ur, poi);
                presence_hist.observe(t0.elapsed().as_nanos() as u64);
                p
            } else {
                engine.presence(ur, poi)
            };
            if p > 0.0 {
                accumulated_mass += p;
                if repaired_slots[slot] {
                    repaired_mass += p;
                }
            }
            p
        };
        run_join(&rp, &ri, &q.pois, q.k, &mut fine_check, &mut presence, &mut counters)
    };
    rec.exit(descent);
    // Normalize tie order to match the iterative ranking (flow desc,
    // POI id asc); flows are unchanged.
    let span = rec.enter("rank");
    let ranked = crate::query::rank_topk(ranked, q.k);
    rec.exit(span);
    rec.exit(root);
    stats.urs_built = urs_built;
    stats.presence_evaluations = presence_evals;
    stats.mbr_rejects = mbr_rejects;
    stats.small_mbr_rejects = small_mbr_rejects;
    stats.accumulated_flow_mass = accumulated_mass;
    stats.repaired_flow_mass = repaired_mass;
    counters.fill(&mut stats, q.pois.len());
    rec.merge_timer(Timer::Presence, &presence_hist);
    counters.record_queue_traffic(&mut rec);
    let quality = fa.quality(&stats);
    QueryResult { ranked, stats, profile: profiling::finish_profile(rec, &stats, grid0), quality }
}

/// Algorithm 5 (improved): join-based interval top-k.
pub fn interval(fa: &FlowAnalytics, q: &IntervalQuery, cfg: &JoinConfig) -> QueryResult {
    let mut rec = fa.recorder();
    let grid0 = profiling::grid_start(&rec);
    let root = rec.enter("interval_join");
    let mut stats = QueryStats::default();

    // Phase 1 (lines 1–9): group the range query's entries by object and
    // derive each object's trajectory MBRs. The full region construction is
    // cheap; the expensive presence integrations stay lazy.
    let span = rec.enter("candidate_retrieval");
    let objects = fa.interval_candidates(q.ts, q.te);
    rec.exit(span);

    let span = rec.enter("derive_urs");
    let mut urs: Vec<UncertaintyRegion> = Vec::new();
    let mut repaired_slots: Vec<bool> = Vec::new();
    let mut data: Vec<(Mbr, u32)> = Vec::new();
    for object in objects {
        stats.objects_considered += 1;
        let timer = rec.start(Timer::UrDerive);
        let ur = fa.engine().interval_ur(fa.ott(), object, q.ts, q.te);
        rec.stop(Timer::UrDerive, timer);
        let Some(ur) = ur else {
            stats.missing_urs += 1;
            continue;
        };
        stats.urs_built += 1;
        if ur.is_empty() {
            stats.empty_urs += 1;
            continue;
        }
        let slot = urs.len() as u32;
        data.push((ur.mbr(), slot));
        urs.push(ur);
        repaired_slots.push(fa.is_repaired(object));
    }
    rec.exit(span);
    let span = rec.enter("build_ri");
    let ri: RTree<u32> = RTree::bulk_load(data);
    rec.exit(span);
    let span = rec.enter("build_poi_rtree");
    let rp = fa.build_poi_rtree(&q.pois);
    rec.exit(span);

    let plan = fa.engine().context().plan();
    let engine = fa.engine();
    let use_segments = cfg.use_segment_mbrs;
    let timed = rec.is_enabled();

    let mut presence_evals = 0usize;
    let mut mbr_rejects = 0usize;
    let mut small_mbr_rejects = 0usize;
    let mut accumulated_mass = 0.0f64;
    let mut repaired_mass = 0.0f64;
    let mut presence_hist = Histogram::new();
    let mut counters = JoinCounters::default();
    let descent = rec.enter("join_descent");
    let ranked = {
        // Figure 9: admit a leaf object only if one of its small MBRs
        // intersects the POI entry's MBR.
        let mut fine_check = |slot: u32, mbr: &Mbr| {
            if !use_segments || urs[slot as usize].any_segment_intersects(mbr) {
                true
            } else {
                small_mbr_rejects += 1;
                false
            }
        };
        let mut presence = |slot: u32, poi_id: PoiId| {
            let slot = slot as usize;
            let ur = &urs[slot];
            let poi = plan.poi(poi_id);
            if !ur.mbr().intersects(&poi.mbr()) {
                mbr_rejects += 1;
                return 0.0;
            }
            presence_evals += 1;
            let p = if timed {
                let t0 = Instant::now();
                let p = engine.presence(ur, poi);
                presence_hist.observe(t0.elapsed().as_nanos() as u64);
                p
            } else {
                engine.presence(ur, poi)
            };
            if p > 0.0 {
                accumulated_mass += p;
                if repaired_slots[slot] {
                    repaired_mass += p;
                }
            }
            p
        };
        run_join(&rp, &ri, &q.pois, q.k, &mut fine_check, &mut presence, &mut counters)
    };
    rec.exit(descent);
    let span = rec.enter("rank");
    let ranked = crate::query::rank_topk(ranked, q.k);
    rec.exit(span);
    rec.exit(root);
    stats.presence_evaluations = presence_evals;
    stats.mbr_rejects = mbr_rejects;
    stats.small_mbr_rejects = small_mbr_rejects;
    stats.accumulated_flow_mass = accumulated_mass;
    stats.repaired_flow_mass = repaired_mass;
    counters.fill(&mut stats, q.pois.len());
    rec.merge_timer(Timer::Presence, &presence_hist);
    counters.record_queue_traffic(&mut rec);
    let quality = fa.quality(&stats);
    QueryResult { ranked, stats, profile: profiling::finish_profile(rec, &stats, grid0), quality }
}

/// Counters local to one [`run_join`] drive: plain integers so the
/// closures and the driver never contend for the recorder.
#[derive(Debug, Default, Clone, Copy)]
struct JoinCounters {
    /// R-tree nodes expanded on either side of the join.
    nodes_visited: usize,
    /// Entries pushed into the priority queue.
    queue_pushes: usize,
    /// Entries popped off the priority queue.
    queue_pops: usize,
    /// POIs whose exact flow was computed.
    exact_resolved: usize,
}

impl JoinCounters {
    /// Copies the driver counters into the query's [`QueryStats`].
    fn fill(&self, stats: &mut QueryStats, query_poi_count: usize) {
        stats.rtree_nodes_visited = self.nodes_visited;
        stats.exact_flows_resolved = self.exact_resolved;
        stats.pois_pruned = query_poi_count.saturating_sub(self.exact_resolved);
    }

    /// Queue traffic only exists in the join driver, so it bypasses
    /// `QueryStats` and goes straight into the profile registry.
    fn record_queue_traffic(&self, rec: &mut inflow_obs::Recorder) {
        rec.add(Counter::QueuePushes, self.queue_pushes as u64);
        rec.add(Counter::QueuePops, self.queue_pops as u64);
    }
}

/// The shared priority-queue join driver (Algorithm 2 lines 12–48 /
/// Algorithm 5 lines 10–46).
fn run_join(
    rp: &RTree<PoiId>,
    ri: &RTree<u32>,
    query_pois: &[PoiId],
    k: usize,
    fine_check: &mut dyn FnMut(u32, &Mbr) -> bool,
    presence: &mut dyn FnMut(u32, PoiId) -> f64,
    counters: &mut JoinCounters,
) -> Vec<(PoiId, f64)> {
    let mut result: Vec<(PoiId, f64)> = Vec::new();
    if !ri.is_empty() && !rp.is_empty() {
        let mut queue: BinaryHeap<Item> = BinaryHeap::new();
        let ri_roots = ri.root_entries();
        counters.nodes_visited += 2; // both roots
        for e_p in rp.root_entries() {
            push_filtered(&mut queue, rp, ri, e_p, &ri_roots, fine_check, counters);
        }
        while let Some(item) = queue.pop() {
            counters.queue_pops += 1;
            if item.exact {
                // The exact flow dominates every remaining upper bound:
                // emit (lines 22–25).
                // Exact items carry their POI by construction; a bare
                // one is dropped, not panicked on.
                let Some(poi) = item.poi else { continue };
                result.push((poi, item.ub));
                if result.len() == k {
                    break;
                }
                continue;
            }
            let list_is_leaf = ri.is_leaf_entry(item.list[0]);
            if rp.is_leaf_entry(item.e_p) {
                let poi = *rp.item(item.e_p);
                if list_is_leaf {
                    // Exact flow: integrate every object in the join list
                    // (lines 27–33).
                    counters.exact_resolved += 1;
                    let mut flow = 0.0;
                    for &e_i in &item.list {
                        flow += presence(*ri.item(e_i), poi);
                    }
                    if flow > 0.0 {
                        queue.push(Item {
                            ub: flow,
                            exact: true,
                            e_p: item.e_p,
                            list: Vec::new(),
                            poi: Some(poi),
                        });
                        counters.queue_pushes += 1;
                    }
                } else {
                    // expandList (Algorithm 3): descend the R_I side.
                    counters.nodes_visited += item.list.len();
                    let children: Vec<EntryRef> =
                        item.list.iter().flat_map(|&e| ri.children(e)).collect();
                    push_filtered(&mut queue, rp, ri, item.e_p, &children, fine_check, counters);
                }
            } else if list_is_leaf {
                // Descend the POI side against the resolved object leaves
                // (lines 36–45).
                counters.nodes_visited += 1;
                for e_p2 in rp.children(item.e_p) {
                    push_filtered(&mut queue, rp, ri, e_p2, &item.list, fine_check, counters);
                }
            } else {
                // Both sides coarse: descend both (lines 46–48).
                counters.nodes_visited += 1 + item.list.len();
                let children: Vec<EntryRef> =
                    item.list.iter().flat_map(|&e| ri.children(e)).collect();
                for e_p2 in rp.children(item.e_p) {
                    push_filtered(&mut queue, rp, ri, e_p2, &children, fine_check, counters);
                }
            }
        }
    }
    // Queries can legitimately have fewer than k POIs with positive flow;
    // pad deterministically with zero-flow POIs in id order, mirroring the
    // iterative algorithms' ranking.
    if result.len() < k {
        let mut rest: Vec<PoiId> = query_pois
            .iter()
            .copied()
            .filter(|p| !result.iter().any(|&(rp_id, _)| rp_id == *p))
            .collect();
        rest.sort_unstable();
        for p in rest {
            if result.len() == k {
                break;
            }
            result.push((p, 0.0));
        }
    }
    result
}

/// Filters `candidates` down to those overlapping `e_p`'s MBR (with the
/// finer small-MBR check for leaf entries), sums their counts into the
/// upper-bound flow, and enqueues the pairing when non-empty.
fn push_filtered(
    queue: &mut BinaryHeap<Item>,
    rp: &RTree<PoiId>,
    ri: &RTree<u32>,
    e_p: EntryRef,
    candidates: &[EntryRef],
    fine_check: &mut dyn FnMut(u32, &Mbr) -> bool,
    counters: &mut JoinCounters,
) {
    let mbr_p = rp.entry_mbr(e_p);
    let mut ub = 0.0;
    let mut list = Vec::new();
    for &e_i in candidates {
        if !ri.entry_mbr(e_i).intersects(&mbr_p) {
            continue;
        }
        if ri.is_leaf_entry(e_i) && !fine_check(*ri.item(e_i), &mbr_p) {
            continue;
        }
        ub += ri.entry_count(e_i) as f64;
        list.push(e_i);
    }
    if !list.is_empty() {
        queue.push(Item { ub, exact: false, e_p, list, poi: None });
        counters.queue_pushes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::FlowAnalytics;
    use crate::query::SnapshotQuery;
    use inflow_geometry::{Point, Polygon};
    use inflow_indoor::{CellKind, FloorPlanBuilder};
    use inflow_tracking::{ObjectTrackingTable, OttRow};
    use inflow_uncertainty::{IndoorContext, UrConfig};
    use std::sync::Arc;

    /// A 100×100 hall with a 5×5 grid of POIs and one reader per POI;
    /// big enough that both R-trees have internal levels (25 POIs,
    /// up to 60 objects) so the join exercises every descent branch.
    fn grid_world(objects_per_device: &[(u32, usize)]) -> (FlowAnalytics, Vec<PoiId>) {
        let mut b = FloorPlanBuilder::new();
        b.add_cell(
            "hall",
            CellKind::Hallway,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        );
        let mut pois = Vec::new();
        let mut devices = Vec::new();
        for j in 0..5 {
            for i in 0..5 {
                let cx = 10.0 + i as f64 * 20.0;
                let cy = 10.0 + j as f64 * 20.0;
                devices.push(b.add_device(format!("dev-{i}-{j}"), Point::new(cx, cy), 2.0));
                pois.push(b.add_poi(
                    format!("poi-{i}-{j}"),
                    Polygon::rectangle(
                        Point::new(cx - 5.0, cy - 5.0),
                        Point::new(cx + 5.0, cy + 5.0),
                    ),
                ));
            }
        }
        let mut rows = Vec::new();
        let mut next_object = 0u32;
        for &(dev_idx, count) in objects_per_device {
            for _ in 0..count {
                rows.push(OttRow {
                    object: inflow_tracking::ObjectId(next_object),
                    device: devices[dev_idx as usize],
                    ts: 0.0,
                    te: 100.0,
                });
                next_object += 1;
            }
        }
        let ott = ObjectTrackingTable::from_rows(rows).unwrap();
        let ctx = Arc::new(IndoorContext::new(b.build().unwrap()));
        let fa = FlowAnalytics::new(ctx, ott, UrConfig { vmax: 1.1, ..UrConfig::default() });
        (fa, pois)
    }

    #[test]
    fn join_finds_the_dominant_poi_with_deep_trees() {
        // 40 objects at device 12 (the centre POI), a few elsewhere.
        let (fa, pois) = grid_world(&[(12, 40), (0, 3), (24, 2)]);
        let q = SnapshotQuery::new(50.0, pois.clone(), 3);
        let result = snapshot(&fa, &q, &JoinConfig::default());
        assert_eq!(result.ranked[0].0, pois[12]);
        assert!(result.ranked[0].1 > result.ranked[1].1);
        // Matches the iterative computation exactly.
        let iterative = crate::iterative::snapshot(&fa, &q);
        assert_eq!(result.poi_ids(), iterative.poi_ids());
        for (a, b) in result.ranked.iter().zip(&iterative.ranked) {
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn early_termination_skips_low_bound_pois() {
        // One hot POI and k=1: the join should resolve far fewer POIs than
        // the iterative pass, which integrates every object-POI pair.
        let (fa, pois) = grid_world(&[(12, 30), (0, 1), (6, 1), (18, 1), (24, 1)]);
        let q = SnapshotQuery::new(50.0, pois, 1);
        let join = snapshot(&fa, &q, &JoinConfig::default());
        let iterative = crate::iterative::snapshot(&fa, &q);
        assert_eq!(join.ranked[0].0, iterative.ranked[0].0);
        assert!(
            join.stats.presence_evaluations < iterative.stats.presence_evaluations,
            "join {} should beat iterative {}",
            join.stats.presence_evaluations,
            iterative.stats.presence_evaluations
        );
    }

    #[test]
    fn padding_fills_result_when_flows_are_scarce() {
        // Only two devices see anyone; k=5 forces three zero-flow pads in
        // ascending POI-id order.
        let (fa, pois) = grid_world(&[(3, 2), (7, 1)]);
        let q = SnapshotQuery::new(50.0, pois.clone(), 5);
        let result = snapshot(&fa, &q, &JoinConfig::default());
        assert_eq!(result.ranked.len(), 5);
        let positive = result.ranked.iter().filter(|&&(_, f)| f > 0.0).count();
        assert_eq!(positive, 2, "{:?}", result.ranked);
        // Pads are sorted by id among the zero flows.
        let zero_ids: Vec<PoiId> =
            result.ranked.iter().filter(|&&(_, f)| f == 0.0).map(|&(p, _)| p).collect();
        let mut sorted = zero_ids.clone();
        sorted.sort_unstable();
        assert_eq!(zero_ids, sorted);
    }

    #[test]
    fn empty_object_population_pads_everything() {
        let (fa, pois) = grid_world(&[]);
        let q = SnapshotQuery::new(50.0, pois, 4);
        let result = snapshot(&fa, &q, &JoinConfig::default());
        assert_eq!(result.ranked.len(), 4);
        assert!(result.ranked.iter().all(|&(_, f)| f == 0.0));
    }

    #[test]
    fn k_equals_poi_count_resolves_all() {
        let (fa, pois) = grid_world(&[(12, 5), (0, 5), (24, 5)]);
        let n = pois.len();
        let q = SnapshotQuery::new(50.0, pois, n);
        let result = snapshot(&fa, &q, &JoinConfig::default());
        assert_eq!(result.ranked.len(), n);
        let iterative = crate::iterative::snapshot(&fa, &q);
        assert_eq!(result.poi_ids(), iterative.poi_ids());
    }
}
