//! Cross-layer invariants of the observability stack: the join algorithms
//! never do more presence work than the iterative ones, profiles mirror
//! the `QueryStats` the algorithms always report, span trees are
//! well-nested, and a disabled recorder leaves no trace in the result.

use inflow::core::{FlowAnalytics, IntervalQuery, JoinConfig, SnapshotQuery};
use inflow::geometry::{Point, Polygon};
use inflow::indoor::{CellKind, FloorPlanBuilder, PoiId};
use inflow::obs::ProfileSpan;
use inflow::tracking::{ObjectId, ObjectTrackingTable, OttRow};
use inflow::uncertainty::{IndoorContext, UrConfig};
use std::sync::Arc;

/// A 100×100 hall, a 4×4 grid of device+POI pairs, and a skewed object
/// population: most objects sit at one hot device, a few wander the rest
/// with multiple readings each (so interval URs have several segments).
fn world() -> (FlowAnalytics, Vec<PoiId>) {
    let mut b = FloorPlanBuilder::new();
    b.add_cell(
        "hall",
        CellKind::Hallway,
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
    );
    let mut devices = Vec::new();
    let mut pois = Vec::new();
    for j in 0..4 {
        for i in 0..4 {
            let cx = 12.0 + i as f64 * 25.0;
            let cy = 12.0 + j as f64 * 25.0;
            devices.push(b.add_device(format!("dev-{i}-{j}"), Point::new(cx, cy), 2.0));
            pois.push(b.add_poi(
                format!("poi-{i}-{j}"),
                Polygon::rectangle(Point::new(cx - 6.0, cy - 6.0), Point::new(cx + 6.0, cy + 6.0)),
            ));
        }
    }
    let mut rows = Vec::new();
    let mut next = 0u32;
    // 12 objects parked at the hot device for the whole window.
    for _ in 0..12 {
        rows.push(OttRow { object: ObjectId(next), device: devices[5], ts: 0.0, te: 200.0 });
        next += 1;
    }
    // 6 objects that hop between two devices (two readings each).
    for o in 0..6 {
        let a = devices[o % devices.len()];
        let b2 = devices[(o * 3 + 7) % devices.len()];
        rows.push(OttRow { object: ObjectId(next), device: a, ts: 0.0, te: 60.0 });
        rows.push(OttRow { object: ObjectId(next), device: b2, ts: 120.0, te: 200.0 });
        next += 1;
    }
    let ott = ObjectTrackingTable::from_rows(rows).unwrap();
    let ctx = Arc::new(IndoorContext::new(b.build().unwrap()));
    let fa = FlowAnalytics::new(ctx, ott, UrConfig { vmax: 1.2, ..UrConfig::default() });
    (fa, pois)
}

fn assert_well_nested(span: &ProfileSpan) {
    assert!(
        span.child_duration_ns() <= span.duration_ns,
        "span '{}' children sum {} ns > own {} ns",
        span.name,
        span.child_duration_ns(),
        span.duration_ns
    );
    for child in &span.children {
        assert_well_nested(child);
    }
}

#[test]
fn join_never_integrates_more_than_iterative() {
    let (fa, pois) = world();
    let sq = SnapshotQuery::new(100.0, pois.clone(), 2);
    let s_it = fa.snapshot_topk_iterative(&sq);
    let s_jn = fa.snapshot_topk_join(&sq);
    assert!(
        s_jn.stats.presence_evaluations <= s_it.stats.presence_evaluations,
        "snapshot join {} > iterative {}",
        s_jn.stats.presence_evaluations,
        s_it.stats.presence_evaluations
    );

    let iq = IntervalQuery::new(20.0, 180.0, pois, 2);
    let i_it = fa.interval_topk_iterative(&iq);
    let i_jn = fa.interval_topk_join(&iq);
    assert!(
        i_jn.stats.presence_evaluations <= i_it.stats.presence_evaluations,
        "interval join {} > iterative {}",
        i_jn.stats.presence_evaluations,
        i_it.stats.presence_evaluations
    );
}

#[test]
fn disabled_recorder_attaches_no_profile() {
    let (fa, pois) = world();
    assert!(!fa.profiling());
    let result = fa.snapshot_topk_join(&SnapshotQuery::new(100.0, pois.clone(), 3));
    assert!(result.profile.is_none());
    // Stats still flow without the recorder.
    assert!(result.stats.objects_considered > 0);
    let tl = inflow::core::flow_timeline(&fa, &pois, 0.0, 200.0, 100.0);
    assert!(tl.profile.is_none());
}

#[test]
fn profiled_snapshot_join_has_nested_spans_and_matching_counters() {
    let (fa, pois) = world();
    let fa = fa.with_profiling(true);
    let q = SnapshotQuery::new(100.0, pois, 3);
    let result = fa.snapshot_topk_join(&q);
    let profile = result.profile.as_ref().expect("profiling enabled");

    // One root span per query, with the expected phase children.
    assert_eq!(profile.roots.len(), 1);
    let root = &profile.roots[0];
    assert_eq!(root.name, "snapshot_join");
    for phase in ["candidate_retrieval", "build_ri", "build_poi_rtree", "join_descent", "rank"] {
        assert!(root.find(phase).is_some(), "missing phase '{phase}'\n{}", profile.render());
    }
    assert_well_nested(root);

    // Counters mirror the stats the algorithm reports unconditionally.
    let s = &result.stats;
    assert_eq!(profile.counter("objects_considered"), s.objects_considered as u64);
    assert_eq!(profile.counter("urs_built"), s.urs_built as u64);
    assert_eq!(profile.counter("presence_evaluations"), s.presence_evaluations as u64);
    assert_eq!(profile.counter("mbr_rejects"), s.mbr_rejects as u64);
    assert_eq!(profile.counter("rtree_nodes_visited"), s.rtree_nodes_visited as u64);
    assert_eq!(profile.counter("exact_flows_resolved"), s.exact_flows_resolved as u64);
    assert_eq!(profile.counter("pois_pruned"), s.pois_pruned as u64);
    assert!(profile.counter("rtree_nodes_visited") > 0);
    // Every presence integration reads the area grid at least once.
    assert!(s.presence_evaluations == 0 || profile.counter("grid_probes") > 0);
    // ... and classifies the grid's blocks first.
    assert!(s.presence_evaluations == 0 || profile.counter("grid_blocks") > 0);
    // Queue traffic is conserved: nothing pops that wasn't pushed.
    assert!(profile.counter("queue_pops") <= profile.counter("queue_pushes"));

    // The presence timer saw exactly the counted integrations.
    let presence = profile.timers.iter().find(|t| t.name == "presence");
    if s.presence_evaluations > 0 {
        assert_eq!(presence.expect("presence timer").count, s.presence_evaluations as u64);
    }
}

#[test]
fn profiled_interval_algorithms_cover_both_flavours() {
    let (fa, pois) = world();
    let fa = fa.with_profiling(true);
    let q = IntervalQuery::new(20.0, 180.0, pois, 3);

    let jn = fa.interval_topk_join(&q);
    let jp = jn.profile.as_ref().expect("profiling enabled");
    assert_eq!(jp.roots[0].name, "interval_join");
    assert!(jp.span("derive_urs").is_some());
    assert_well_nested(&jp.roots[0]);
    // UR derivation is timed in the interval join.
    assert!(jp.timers.iter().any(|t| t.name == "ur_derive" && t.count > 0), "{:?}", jp.timers);

    let it = fa.interval_topk_iterative(&q);
    let ip = it.profile.as_ref().expect("profiling enabled");
    assert_eq!(ip.roots[0].name, "interval_iterative");
    assert_well_nested(&ip.roots[0]);
    assert_eq!(ip.counter("presence_evaluations"), it.stats.presence_evaluations as u64);

    // Same flows from both algorithms, profiled or not.
    for (a, b) in jn.ranked.iter().zip(&it.ranked) {
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-9);
    }
}

#[test]
fn timeline_profile_groups_buckets_under_one_root() {
    let (fa, pois) = world();
    let fa = fa.with_profiling(true);
    let tl = inflow::core::flow_timeline(&fa, &pois, 0.0, 200.0, 50.0);
    let profile = tl.profile.as_ref().expect("profiling enabled");
    assert_eq!(profile.roots.len(), 1);
    let root = &profile.roots[0];
    assert_eq!(root.name, "timeline");
    let bucket_spans = root.children.iter().filter(|c| c.name == "bucket").count();
    assert_eq!(bucket_spans, tl.buckets.len());
    assert_well_nested(root);
    // The summed stats drive the profile counters.
    assert_eq!(profile.counter("presence_evaluations"), tl.stats.presence_evaluations as u64);
}

#[test]
fn snapshot_join_config_changes_work_not_answers() {
    let (fa, pois) = world();
    let q = SnapshotQuery::new(100.0, pois.clone(), pois.len());
    let on = inflow::core::join::snapshot(&fa, &q, &JoinConfig { use_segment_mbrs: true });
    let off = inflow::core::join::snapshot(&fa, &q, &JoinConfig { use_segment_mbrs: false });

    // Identical rankings and flows: the refinement only skips pairings
    // whose presence would integrate to zero anyway.
    assert_eq!(on.poi_ids(), off.poi_ids());
    for (a, b) in on.ranked.iter().zip(&off.ranked) {
        assert!((a.1 - b.1).abs() < 1e-9, "{a:?} vs {b:?}");
    }
    // The refined variant never does more integration work, and each
    // small-MBR veto is work the coarse variant would have attempted.
    let work = |r: &inflow::core::QueryResult| r.stats.presence_evaluations + r.stats.mbr_rejects;
    assert!(
        work(&on) <= work(&off),
        "refined variant did more work: {} vs {}",
        work(&on),
        work(&off)
    );
    assert_eq!(off.stats.small_mbr_rejects, 0, "coarse variant must not fine-check");
}
