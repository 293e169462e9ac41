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
//! The integral is evaluated piecewise, and exactly in time: the window
//! is cut at every record boundary, and between two cuts the object's
//! tracking state is fixed, so a point lies in its uncertainty region for
//! one closed stretch of the piece, `[t_in(q), t_out(q)]`, linear in the
//! point's distance from the records around it. The piece's dwell in a
//! POI is then `(1/|p|) ∫_p T(q) dq` over the time field `T(q)` of
//! [`inflow_uncertainty::DwellPiece`]: one spatial integration per
//! (piece, POI) pair, whose only error is the grid's. A block where the
//! field is positive and free of kinks is priced at the midpoint of its
//! bounds when they are at most [`inflow_uncertainty::DWELL_EPSILON`] of
//! the piece apart, or else at its second-order mean when one door or
//! device drives each leg there and the block is small for its distance
//! from them (within `DWELL_EPSILON / 16` of the piece per unit area);
//! every other cell takes its centre value.
//!
//! Determinism contract: [`object_dwell`] is shared verbatim by the
//! batch path and the incremental serving engine, the per-POI threshold
//! count accumulates integer increments in ascending object-id order, and
//! each piece's dwell is folded into its POI's sum in ascending-time
//! piece order, R-tree hit order within a piece. The field integrator
//! adapts — which blocks it refines depends on the data — but only on the
//! piece's own records, span and POI, never on what was integrated before
//! it or on how the window was split into segments. The same rows
//! therefore give the same pieces, the same per-piece values and the same
//! fold, so streamed long-visit answers are bit-identical to batch
//! recomputation over the same rows.

use crate::analytics::FlowAnalytics;
use crate::profiling;
use crate::query::{rank_topk, DataQuality, QueryStats};
use inflow_indoor::PoiId;
use inflow_obs::{Counter, QueryProfile, Recorder, Timer};
use inflow_rtree::RTree;
use inflow_tracking::{ObjectId, ObjectTrackingTable, Timestamp};
use inflow_uncertainty::UrEngine;
use std::collections::HashMap;

/// One object's expected dwell per POI over `[ts, te]`:
/// `∫ presence(t) dt`, integrated exactly in time per record piece (see
/// the module docs). Entries are sorted by POI id and only positive
/// dwells are kept. This is the shared batch/engine recompute primitive
/// for long-visit subscriptions.
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
/// piece built (`urs_built`, [`Timer::UrDerive`]) and every (piece, POI)
/// field integration (`presence_evaluations`, [`Timer::Presence`]).
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
/// boundary strictly inside the segment and folding each piece's dwell
/// into `sums` per POI in ascending-time piece order. This is the shared
/// quadrature core of the batch recompute and the incremental serving
/// cache: splitting a window into consecutive segments at cut points of
/// the full decomposition and folding each in turn produces the exact
/// same left fold — bit-identical sums — as one pass over the whole
/// window.
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
    // inside it: the object's state is fixed between cuts.
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

    let plan = engine.context().plan();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if !gt(b, a) {
            continue;
        }
        let Some(state) = ott.state_at(object, a + 0.5 * (b - a)) else { continue };
        let timer = rec.start(Timer::UrDerive);
        let piece = engine.dwell_piece(ott, state, a, b);
        rec.stop(Timer::UrDerive, timer);
        stats.urs_built += 1;
        if piece.is_empty() {
            stats.empty_urs += 1;
            continue;
        }
        let (hits, visited) = rp.query_intersecting_counted(&piece.mbr());
        stats.rtree_nodes_visited += visited;
        for &poi in hits {
            stats.presence_evaluations += 1;
            let timer = rec.start(Timer::Presence);
            let dwell = engine.dwell(&piece, plan.poi(poi));
            rec.stop(Timer::Presence, timer);
            if dwell > 0.0 {
                *sums.entry(poi).or_insert(0.0) += dwell;
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
    /// Work counters. Here `urs_built` counts record pieces and
    /// `presence_evaluations` counts (piece, POI) dwell integrations.
    pub stats: QueryStats,
    /// The query's profile when the façade has profiling enabled.
    pub profile: Option<Box<QueryProfile>>,
    pub quality: DataQuality,
}

/// Counts, per query POI, the objects whose expected dwell within
/// `[ts, te]` is at least `q.d`, walking interval candidates in
/// ascending object-id order (the serving engine's order).
pub fn longvisit_counts(fa: &FlowAnalytics, q: &LongVisitQuery) -> LongVisitResult {
    let mut rec = fa.recorder();
    let grid0 = profiling::grid_start(&rec);
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
    let profile = profiling::finish_profile(rec, &stats, grid0);
    LongVisitResult { ranked, counts: scores, stats, profile, quality }
}
