//! Flow timelines and continuous top-k monitoring.
//!
//! The paper's queries are one-shot; its concluding discussion points at
//! continuous monitoring as follow-on work. This module layers both on the
//! core engine:
//!
//! * [`flow_timeline`] evaluates interval flows over consecutive buckets
//!   of a time range — the "flows over time" view behind the motivating
//!   lease-pricing and planning scenarios (§1);
//! * [`ContinuousSnapshotMonitor`] re-evaluates a snapshot top-k as time
//!   advances and reports which POIs entered or left the result.

use crate::analytics::FlowAnalytics;
use crate::profiling;
use crate::query::{DataQuality, IntervalQuery, QueryStats, SnapshotQuery};
use inflow_indoor::PoiId;
use inflow_obs::QueryProfile;
use inflow_tracking::Timestamp;

/// One bucket of a [`FlowTimeline`].
#[derive(Debug, Clone)]
pub struct TimelineBucket {
    /// Bucket start (inclusive).
    pub ts: Timestamp,
    /// Bucket end.
    pub te: Timestamp,
    /// Interval flows of every query POI over `[ts, te]`, unranked but in
    /// query-POI order.
    pub flows: Vec<(PoiId, f64)>,
    /// Execution statistics of this bucket's interval evaluation.
    pub stats: QueryStats,
}

/// Interval flows per POI over consecutive time buckets.
#[derive(Debug, Clone)]
pub struct FlowTimeline {
    /// The buckets in chronological order.
    pub buckets: Vec<TimelineBucket>,
    /// Statistics summed across all buckets.
    pub stats: QueryStats,
    /// Per-phase profile of the whole timeline evaluation (one `bucket`
    /// child span per bucket under the `timeline` root). `Some` only when
    /// profiling is enabled on the façade.
    pub profile: Option<Box<QueryProfile>>,
    /// Data-quality summary across all buckets (degraded-mode reporting).
    pub quality: DataQuality,
}

impl FlowTimeline {
    /// The flow series of one POI across all buckets.
    pub fn series(&self, poi: PoiId) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|b| b.flows.iter().find(|&&(p, _)| p == poi).map_or(0.0, |&(_, f)| f))
            .collect()
    }

    /// Total flow of one POI over the whole timeline.
    pub fn total(&self, poi: PoiId) -> f64 {
        self.series(poi).iter().sum()
    }

    /// The bucket index where the POI peaks, with the peak flow
    /// (`None` for an empty timeline).
    pub fn peak_bucket(&self, poi: PoiId) -> Option<(usize, f64)> {
        self.series(poi).into_iter().enumerate().max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The `k` POIs with the largest summed flow, descending
    /// (ties by ascending POI id).
    pub fn top_k_overall(&self, k: usize) -> Vec<(PoiId, f64)> {
        let Some(first) = self.buckets.first() else {
            return Vec::new();
        };
        let totals: Vec<(PoiId, f64)> =
            first.flows.iter().map(|&(p, _)| (p, self.total(p))).collect();
        crate::query::rank_topk(totals, k)
    }
}

/// Evaluates interval flows over consecutive `bucket_len`-second buckets
/// spanning `[start, end)`. The final bucket is truncated at `end`.
pub fn flow_timeline(
    fa: &FlowAnalytics,
    pois: &[PoiId],
    start: Timestamp,
    end: Timestamp,
    bucket_len: f64,
) -> FlowTimeline {
    assert!(bucket_len > 0.0, "bucket length must be positive");
    assert!(end >= start, "time range must be ordered");
    let mut rec = fa.recorder();
    let grid0 = profiling::grid_start(&rec);
    let root = rec.enter("timeline");
    let mut buckets = Vec::new();
    let mut total = QueryStats::default();
    let mut ts = start;
    while ts < end {
        let te = (ts + bucket_len).min(end);
        let q = IntervalQuery::new(ts, te, pois.to_vec(), pois.len());
        let span = rec.enter("bucket");
        let (flows, stats) = crate::iterative::interval_flows_threads(fa, &q, &mut rec, 1);
        rec.exit(span);
        total.merge(&stats);
        buckets.push(TimelineBucket { ts, te, flows, stats });
        ts = te;
    }
    rec.exit(root);
    let quality = fa.quality(&total);
    FlowTimeline {
        buckets,
        stats: total,
        profile: profiling::finish_profile(rec, &total, grid0),
        quality,
    }
}

/// The outcome of one continuous-monitor evaluation.
#[derive(Debug, Clone)]
pub struct TopKUpdate {
    /// Evaluation time.
    pub t: Timestamp,
    /// The current top-k, ranked.
    pub ranked: Vec<(PoiId, f64)>,
    /// POIs that entered the top-k since the previous evaluation.
    pub entered: Vec<PoiId>,
    /// POIs that dropped out since the previous evaluation.
    pub exited: Vec<PoiId>,
}

impl TopKUpdate {
    /// Whether the top-k membership changed.
    pub fn changed(&self) -> bool {
        !self.entered.is_empty() || !self.exited.is_empty()
    }
}

/// Continuously monitors a snapshot top-k query as time advances.
///
/// Each [`ContinuousSnapshotMonitor::evaluate_at`] call runs the join
/// algorithm at the given time and diffs the membership against the
/// previous result.
pub struct ContinuousSnapshotMonitor<'a> {
    fa: &'a FlowAnalytics,
    pois: Vec<PoiId>,
    k: usize,
    last: Option<Vec<PoiId>>,
}

impl<'a> ContinuousSnapshotMonitor<'a> {
    /// Creates a monitor over the given POI set and result size.
    pub fn new(fa: &'a FlowAnalytics, pois: Vec<PoiId>, k: usize) -> Self {
        assert!(!pois.is_empty(), "monitor needs a non-empty POI set");
        let k = k.clamp(1, pois.len());
        ContinuousSnapshotMonitor { fa, pois, k, last: None }
    }

    /// Evaluates the top-k at `t` and reports membership changes.
    pub fn evaluate_at(&mut self, t: Timestamp) -> TopKUpdate {
        let q = SnapshotQuery::new(t, self.pois.clone(), self.k);
        let result = self.fa.snapshot_topk_join(&q);
        let current: Vec<PoiId> = result.poi_ids();
        let (entered, exited) = match &self.last {
            None => (current.clone(), Vec::new()),
            Some(prev) => {
                let entered = current.iter().copied().filter(|p| !prev.contains(p)).collect();
                let exited = prev.iter().copied().filter(|p| !current.contains(p)).collect();
                (entered, exited)
            }
        };
        self.last = Some(current);
        TopKUpdate { t, ranked: result.ranked, entered, exited }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflow_geometry::{Point, Polygon};
    use inflow_indoor::{CellKind, FloorPlanBuilder};
    use inflow_tracking::{ObjectId, ObjectTrackingTable, OttRow};
    use inflow_uncertainty::{IndoorContext, UrConfig};
    use std::sync::Arc;

    /// A corridor with two readers; objects pass reader A early and
    /// reader B late, so the popular POI flips between buckets.
    fn setup() -> (FlowAnalytics, Vec<PoiId>) {
        let mut b = FloorPlanBuilder::new();
        b.add_cell(
            "hall",
            CellKind::Hallway,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(40.0, 4.0)),
        );
        let dev_a = b.add_device("dev-a", Point::new(5.0, 2.0), 1.0);
        let dev_b = b.add_device("dev-b", Point::new(35.0, 2.0), 1.0);
        let poi_a =
            b.add_poi("poi-a", Polygon::rectangle(Point::new(3.0, 0.0), Point::new(7.0, 4.0)));
        let poi_b =
            b.add_poi("poi-b", Polygon::rectangle(Point::new(33.0, 0.0), Point::new(37.0, 4.0)));
        let ctx = Arc::new(IndoorContext::new(b.build().unwrap()));

        let mut rows = Vec::new();
        for o in 0..4u32 {
            let offset = o as f64;
            rows.push(OttRow { object: ObjectId(o), device: dev_a, ts: offset, te: offset + 5.0 });
            rows.push(OttRow {
                object: ObjectId(o),
                device: dev_b,
                ts: offset + 40.0,
                te: offset + 45.0,
            });
        }
        let ott = ObjectTrackingTable::from_rows(rows).unwrap();
        let fa = FlowAnalytics::new(ctx, ott, UrConfig { vmax: 1.1, ..UrConfig::default() });
        (fa, vec![poi_a, poi_b])
    }

    #[test]
    fn timeline_buckets_cover_range() {
        let (fa, pois) = setup();
        let tl = flow_timeline(&fa, &pois, 0.0, 50.0, 20.0);
        assert_eq!(tl.buckets.len(), 3);
        assert_eq!(tl.buckets[0].ts, 0.0);
        assert_eq!(tl.buckets[2].te, 50.0); // truncated final bucket
    }

    #[test]
    fn timeline_shows_popularity_shift() {
        let (fa, pois) = setup();
        let (poi_a, poi_b) = (pois[0], pois[1]);
        let tl = flow_timeline(&fa, &pois, 0.0, 50.0, 25.0);
        // Early bucket: everyone near reader A.
        let early_a = tl.buckets[0].flows.iter().find(|&&(p, _)| p == poi_a).unwrap().1;
        let early_b = tl.buckets[0].flows.iter().find(|&&(p, _)| p == poi_b).unwrap().1;
        assert!(early_a > early_b, "A should dominate early: {early_a} vs {early_b}");
        // Late bucket: everyone near reader B.
        let late_a = tl.buckets[1].flows.iter().find(|&&(p, _)| p == poi_a).unwrap().1;
        let late_b = tl.buckets[1].flows.iter().find(|&&(p, _)| p == poi_b).unwrap().1;
        assert!(late_b > late_a, "B should dominate late: {late_b} vs {late_a}");
        // Series/peak helpers agree.
        assert_eq!(tl.series(poi_a).len(), 2);
        assert_eq!(tl.peak_bucket(poi_a).unwrap().0, 0);
        assert_eq!(tl.peak_bucket(poi_b).unwrap().0, 1);
        assert!(tl.total(poi_a) > 0.0);
        assert_eq!(tl.top_k_overall(1).len(), 1);
    }

    #[test]
    fn monitor_reports_membership_changes() {
        let (fa, pois) = setup();
        let (poi_a, poi_b) = (pois[0], pois[1]);
        let mut monitor = ContinuousSnapshotMonitor::new(&fa, pois, 1);
        // t=3: objects detected at reader A.
        let u1 = monitor.evaluate_at(3.0);
        assert_eq!(u1.ranked[0].0, poi_a);
        assert!(u1.changed()); // first evaluation counts as entering
                               // Shortly after: still A.
        let u2 = monitor.evaluate_at(4.0);
        assert!(!u2.changed(), "top-1 should be stable: {u2:?}");
        // t=43: objects detected at reader B.
        let u3 = monitor.evaluate_at(43.0);
        assert_eq!(u3.ranked[0].0, poi_b);
        assert!(u3.changed());
        assert_eq!(u3.entered, vec![poi_b]);
        assert_eq!(u3.exited, vec![poi_a]);
    }

    #[test]
    fn empty_timeline_helpers() {
        let tl = FlowTimeline {
            buckets: Vec::new(),
            stats: QueryStats::default(),
            profile: None,
            quality: DataQuality::default(),
        };
        assert!(tl.top_k_overall(3).is_empty());
        assert!(tl.peak_bucket(PoiId(0)).is_none());
        assert_eq!(tl.total(PoiId(0)), 0.0);
    }
}
