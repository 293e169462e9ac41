//! Duration-threshold counting — "how many objects stayed ≥ d".
//!
//! Afshani et al. (arXiv 2601.09489) motivate counting objects by *visit
//! duration* rather than mere presence. On the uncertain symbolic
//! substrate the natural analogue is **expected dwell**: for one object
//! and one POI, `dwell(o, p) = ∫_{ts}^{te} presence_o(p, t) dt` — the
//! expected amount of time the object spends inside the POI over the
//! query window. A long-visit query then counts, per POI, the objects
//! whose expected dwell reaches a threshold `d`, and ranks POIs by that
//! count.
//!
//! The integral is evaluated piecewise: an object's presence is smooth
//! between its tracking-record boundaries (the uncertainty-region shape
//! only changes character when the active record or the pre/suc record
//! pair changes), so the window is cut at every record boundary and each
//! piece integrated with a fixed [`DWELL_SAMPLES`]-point midpoint rule
//! over snapshot presences — the exact same per-sample primitive
//! ([`crate::contrib::snapshot_object_contrib`]) the paper's snapshot
//! algorithms use.
//!
//! Determinism contract: [`object_dwell`] is shared verbatim by the
//! batch path and the incremental serving engine, the per-POI threshold
//! count accumulates integer increments in ascending object-id order,
//! and the piece/sample loops are fixed — so streamed long-visit answers
//! are bit-identical to batch recomputation over the same rows.

use crate::analytics::FlowAnalytics;
use crate::contrib;
use crate::query::{rank_topk, DataQuality, QueryStats};
use inflow_indoor::PoiId;
use inflow_obs::{Counter, Recorder};
use inflow_rtree::RTree;
use inflow_tracking::{ObjectId, ObjectTrackingTable, Timestamp};
use inflow_uncertainty::UrEngine;
use std::collections::HashMap;

/// Midpoint-rule samples per inter-boundary piece of the dwell integral.
/// Fixed (not adaptive) so the float evaluation order — and therefore
/// stream-vs-batch equality — never depends on data-dependent branching.
pub const DWELL_SAMPLES: usize = 4;

/// One object's expected dwell per POI over `[ts, te]`:
/// `∫ presence(t) dt`, integrated piecewise at the object's record
/// boundaries with a fixed midpoint rule. Entries are sorted by POI id
/// and only positive dwells are kept. This is the shared batch/engine
/// recompute primitive for long-visit subscriptions.
pub fn object_dwell(
    engine: &UrEngine,
    ott: &ObjectTrackingTable,
    object: ObjectId,
    ts: Timestamp,
    te: Timestamp,
    rp: &RTree<PoiId>,
) -> Vec<(PoiId, f64)> {
    let mut stats = QueryStats::default();
    object_dwell_stats(engine, ott, object, ts, te, rp, &mut Recorder::disabled(), &mut stats)
}

/// NaN-safe strict "greater than": false when either operand is NaN,
/// so degenerate or poisoned bounds take the empty/skip path instead of
/// feeding NaN into the quadrature.
fn gt(a: f64, b: f64) -> bool {
    !a.is_nan() && !b.is_nan() && a.total_cmp(&b) == std::cmp::Ordering::Greater
}

/// [`object_dwell`] with observability: bumps `stats`/`rec` for every
/// underlying UR derivation and presence integration.
#[allow(clippy::too_many_arguments)]
pub(crate) fn object_dwell_stats(
    engine: &UrEngine,
    ott: &ObjectTrackingTable,
    object: ObjectId,
    ts: Timestamp,
    te: Timestamp,
    rp: &RTree<PoiId>,
    rec: &mut Recorder,
    stats: &mut QueryStats,
) -> Vec<(PoiId, f64)> {
    if !gt(te, ts) {
        return Vec::new();
    }
    let mut dwell: HashMap<PoiId, f64> = HashMap::new();
    integrate_segment(engine, ott, object, ts, te, rp, rec, stats, &mut dwell);
    finalize_dwell(dwell)
}

/// Integrates `∫ presence dt` over `[a, b]`, cutting at every record
/// boundary strictly inside the segment and folding `presence·step`
/// into `sums` per POI in ascending-time piece order. This is the
/// shared quadrature core of the batch recompute and the incremental
/// serving cache: splitting a window into consecutive segments at cut
/// points of the full decomposition and folding each in turn produces
/// the exact same left fold — bit-identical sums — as one pass over the
/// whole window.
#[allow(clippy::too_many_arguments)]
fn integrate_segment(
    engine: &UrEngine,
    ott: &ObjectTrackingTable,
    object: ObjectId,
    a: Timestamp,
    b: Timestamp,
    rp: &RTree<PoiId>,
    rec: &mut Recorder,
    stats: &mut QueryStats,
    sums: &mut HashMap<PoiId, f64>,
) {
    if !gt(b, a) {
        return;
    }
    // Cut the segment at every record boundary that falls strictly
    // inside it: presence is smooth between cuts, so a fixed-order
    // quadrature per piece converges cleanly.
    let mut cuts: Vec<Timestamp> = Vec::with_capacity(2 + 2 * ott.object_records(object).len());
    cuts.push(a);
    for &rid in ott.object_records(object) {
        let r = ott.record(rid);
        for t in [r.ts, r.te] {
            if t > a && t < b {
                cuts.push(t);
            }
        }
    }
    cuts.push(b);
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let step = (b - a) / DWELL_SAMPLES as f64;
        if !gt(step, 0.0) {
            continue;
        }
        for s in 0..DWELL_SAMPLES {
            let t = a + (s as f64 + 0.5) * step;
            let Some(state) = ott.state_at(object, t) else { continue };
            let contribs = contrib::snapshot_object_contrib(engine, ott, state, t, rp, rec, stats);
            for (poi, presence) in contribs {
                *sums.entry(poi).or_insert(0.0) += presence * step;
            }
        }
    }
}

/// The shared dwell post-processing: keep positive entries, sorted by
/// POI id.
fn finalize_dwell(dwell: HashMap<PoiId, f64>) -> Vec<(PoiId, f64)> {
    let mut out: Vec<(PoiId, f64)> = dwell.into_iter().filter(|&(_, d)| d > 0.0).collect();
    out.sort_by_key(|&(p, _)| p);
    out
}

/// Incremental dwell-integration state for one (subscription, object)
/// pair in the serving engine.
///
/// A full [`object_dwell`] costs O(records in window) per call, which
/// under a sustained stream makes a long-visit subscription's per-delta
/// recompute quadratic in stream length — enough to stall ingest. The
/// fix leans on the uncertainty model's locality: presence at `t`
/// depends only on the record covering `t` or the `pre`/`suc` pair
/// around it ([`inflow_tracking::ObjectState`]), and a tracker stream
/// only ever appends rows or grows the open last record's `te` — both
/// of which leave presence **before the last record's start**
/// untouched. Everything before `last.ts` is therefore permanently
/// settled: the state caches the per-POI left-fold of the quadrature up
/// to that frontier and re-integrates only the short tail
/// `[frontier, te]` on each recompute, making the per-delta cost O(1)
/// in stream length.
///
/// Bit-identity with the batch path holds because the frontier is
/// always a record-boundary cut of the full decomposition (`last.ts`
/// never changes once a row exists) and pieces are folded in the same
/// ascending-time order — the cached prefix is literally the partial
/// sum [`object_dwell`] would hold after its first pieces. The caller
/// must [`reset`](DwellState::reset) the state whenever the object's
/// rows change other than by appending/extending (repair rewrites
/// history; the serving engine checks row prefixes on every delta).
#[derive(Debug, Clone, Default)]
pub struct DwellState {
    /// Per-POI partial sums over the settled prefix `[ts, frontier]`.
    sums: HashMap<PoiId, f64>,
    /// End of the settled prefix; `None` until the first recompute.
    frontier: Option<Timestamp>,
}

impl DwellState {
    /// Drops the cached prefix; the next recompute is a full pass. Call
    /// when the object's rows changed other than by appending.
    pub fn reset(&mut self) {
        self.sums.clear();
        self.frontier = None;
    }

    /// The object's dwell vector over `[ts, te]` — the same value
    /// [`object_dwell`] returns on the same table, amortized O(tail)
    /// per call instead of O(window).
    pub fn recompute(
        &mut self,
        engine: &UrEngine,
        ott: &ObjectTrackingTable,
        object: ObjectId,
        ts: Timestamp,
        te: Timestamp,
        rp: &RTree<PoiId>,
    ) -> Vec<(PoiId, f64)> {
        if !gt(te, ts) {
            return Vec::new();
        }
        let mut stats = QueryStats::default();
        let mut rec = Recorder::disabled();
        let start = *self.frontier.get_or_insert(ts);
        // The settled prefix ends at the last record's *start*: its `te`
        // may still grow as the tracker merges readings into the open
        // record, and the un-tracked region beyond it flips to a gap
        // when the next record arrives.
        let settled = ott
            .object_records(object)
            .last()
            .map(|&rid| ott.record(rid).ts)
            .unwrap_or(ts)
            .clamp(start, te);
        integrate_segment(
            engine,
            ott,
            object,
            start,
            settled,
            rp,
            &mut rec,
            &mut stats,
            &mut self.sums,
        );
        self.frontier = Some(settled);
        let mut sums = self.sums.clone();
        integrate_segment(engine, ott, object, settled, te, rp, &mut rec, &mut stats, &mut sums);
        finalize_dwell(sums)
    }
}

/// A top-k long-visit query: rank POIs by the number of objects whose
/// expected dwell within `[ts, te]` reaches `d`.
#[derive(Debug, Clone)]
pub struct LongVisitQuery {
    pub ts: Timestamp,
    pub te: Timestamp,
    /// Dwell threshold (same time unit as the tracking data).
    pub d: f64,
    /// The query POI set `P`.
    pub pois: Vec<PoiId>,
    /// Result size `k` (`0 < k ≤ |P|`).
    pub k: usize,
}

impl LongVisitQuery {
    pub fn new(ts: Timestamp, te: Timestamp, d: f64, pois: Vec<PoiId>, k: usize) -> LongVisitQuery {
        assert!(!pois.is_empty(), "query POI set must be non-empty");
        assert!(ts <= te, "query interval must be ordered");
        assert!(d >= 0.0 && d.is_finite(), "dwell threshold must be finite and non-negative");
        let k = k.clamp(1, pois.len());
        LongVisitQuery { ts, te, d, pois, k }
    }
}

/// A long-visit query answer.
#[derive(Debug, Clone)]
pub struct LongVisitResult {
    /// Top-k POIs by qualifying-object count, descending (ties by
    /// ascending id). Values are integral counts carried as `f64` for
    /// ranked-answer uniformity with the flow queries.
    pub ranked: Vec<(PoiId, f64)>,
    /// Every query POI's qualifying-object count, in query POI-set order.
    pub counts: Vec<(PoiId, f64)>,
    pub stats: QueryStats,
    pub quality: DataQuality,
}

/// Counts, per query POI, the objects whose expected dwell within
/// `[ts, te]` is at least `q.d`, walking interval candidates in
/// ascending object-id order (the serving engine's order).
pub fn longvisit_counts(fa: &FlowAnalytics, q: &LongVisitQuery) -> LongVisitResult {
    let mut rec = fa.recorder();
    rec.add(Counter::LongVisitQueries, 1);
    let root = rec.enter("longvisit");
    let span = rec.enter("build_poi_rtree");
    let rp = fa.build_poi_rtree(&q.pois);
    rec.exit(span);
    let mut stats = QueryStats::default();
    let mut counts: HashMap<PoiId, f64> = q.pois.iter().map(|&p| (p, 0.0)).collect();

    let span = rec.enter("candidate_retrieval");
    let candidates = fa.interval_candidates(q.ts, q.te);
    rec.exit(span);

    let span = rec.enter("integrate_dwell");
    for object in candidates {
        stats.objects_considered += 1;
        let dwell = object_dwell_stats(
            fa.engine(),
            fa.ott(),
            object,
            q.ts,
            q.te,
            &rp,
            &mut rec,
            &mut stats,
        );
        for (poi, dw) in dwell {
            stats.accumulated_flow_mass += dw;
            if fa.is_repaired(object) {
                stats.repaired_flow_mass += dw;
            }
            if dw >= q.d {
                if let Some(c) = counts.get_mut(&poi) {
                    *c += 1.0;
                }
            }
        }
    }
    rec.exit(span);

    let span = rec.enter("rank");
    let scores: Vec<(PoiId, f64)> =
        q.pois.iter().map(|&p| (p, counts.get(&p).copied().unwrap_or(0.0))).collect();
    let ranked = rank_topk(scores.clone(), q.k);
    rec.exit(span);
    rec.exit(root);
    let quality = fa.quality(&stats);
    LongVisitResult { ranked, counts: scores, stats, quality }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflow_geometry::{Point, Polygon};
    use inflow_indoor::{CellKind, FloorPlanBuilder};
    use inflow_tracking::OttRow;
    use inflow_uncertainty::{IndoorContext, UrConfig};
    use std::sync::Arc;

    /// The incremental serving cache must reproduce the batch integral
    /// bit-for-bit at every step of a tracker-like row evolution:
    /// records appended one at a time, each first arriving as a short
    /// open record whose `te` then grows (the tracker's merge).
    #[test]
    fn incremental_dwell_is_bit_identical_to_batch_under_appends() {
        // A 60×20 hall with three reader-covered POIs in a row; one
        // object walks past all three readers.
        let mut b = FloorPlanBuilder::new();
        b.add_cell(
            "hall",
            CellKind::Hallway,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(60.0, 20.0)),
        );
        let mut pois = Vec::new();
        let mut devices = Vec::new();
        for i in 0..3 {
            let cx = 10.0 + i as f64 * 20.0;
            devices.push(b.add_device(format!("dev-{i}"), Point::new(cx, 10.0), 2.0));
            pois.push(b.add_poi(
                format!("poi-{i}"),
                Polygon::rectangle(Point::new(cx - 5.0, 5.0), Point::new(cx + 5.0, 15.0)),
            ));
        }
        let object = ObjectId(7);
        let full_rows: Vec<OttRow> = vec![
            OttRow { object, device: devices[0], ts: 0.0, te: 10.0 },
            OttRow { object, device: devices[1], ts: 18.0, te: 31.0 },
            OttRow { object, device: devices[2], ts: 44.0, te: 52.0 },
        ];
        let ott = ObjectTrackingTable::from_rows(full_rows.clone()).unwrap();
        let ctx = Arc::new(IndoorContext::new(b.build().unwrap()));
        let fa = FlowAnalytics::new(ctx, ott, UrConfig { vmax: 2.0, ..UrConfig::default() });
        let rp = fa.build_poi_rtree(&pois);
        let (ts, te) = (0.0, 60.0);

        let mut state = DwellState::default();
        let mut steps = 0usize;
        for i in 1..=full_rows.len() {
            // The i-th record first appears as a half-open stub, then
            // extends to its final te — exactly how the online tracker
            // grows an open record as readings arrive.
            let mut stub = full_rows[..i].to_vec();
            let last = stub.last_mut().unwrap();
            last.te = last.ts + (last.te - last.ts) / 2.0;
            for rows in [stub, full_rows[..i].to_vec()] {
                let ott = ObjectTrackingTable::from_rows(rows).unwrap();
                let batch = object_dwell(fa.engine(), &ott, object, ts, te, &rp);
                let incr = state.recompute(fa.engine(), &ott, object, ts, te, &rp);
                assert_eq!(incr, batch, "step {steps}: incremental != batch");
                assert!(!batch.is_empty(), "step {steps}: fixture should dwell somewhere");
                steps += 1;
            }
        }

        // History rewritten (repair moved a middle record): after a
        // reset the state must agree with batch again from scratch.
        let mut rewritten = full_rows.clone();
        rewritten[1].ts = 20.0;
        rewritten[1].te = 29.0;
        let ott = ObjectTrackingTable::from_rows(rewritten).unwrap();
        state.reset();
        let batch = object_dwell(fa.engine(), &ott, object, ts, te, &rp);
        let incr = state.recompute(fa.engine(), &ott, object, ts, te, &rp);
        assert_eq!(incr, batch, "post-reset incremental != batch");
    }
}
