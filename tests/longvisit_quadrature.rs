//! Long-visit dwell against a time-sampled reference, and the serving
//! cache against batch.
//!
//! `object_dwell` integrates each record piece's time field once
//! (`UrEngine::dwell`). The reference here integrates the paper's
//! snapshot presence over time by brute force instead: the same record
//! cuts, then a 256-sample midpoint rule per piece over
//! `snapshot_object_contrib`. Pinned, for every piece kind (disk-only,
//! same-device re-entry, disk ∩ ring, ring ∩ ring, an unbridgeable gap),
//! with the topology check on and off, for POIs with and without a host
//! cell, and on the tiny synthetic workload:
//!
//! * every (object, POI) dwell is within [`ERROR_BOUND`]` · (te − ts)` of
//!   the reference (the field integrator's blocks are off by at most
//!   `DWELL_EPSILON / 2` of their piece; the rest is grid error, which both
//!   sides share in kind but not in sample points);
//! * `0 ≤ dwell ≤ te − ts`;
//! * no threshold count differs from the reference's;
//! * each case's worst error is no larger than the integrator showed
//!   before it settled blocks by curvature.
//!
//! A pause through a long gap pins the one case where the midpoint of a
//! block's bounds misprices it: a block straddling a kink of the field.
//!
//! The field's own proofs are checked point by point: its bounds, the
//! door each leg reports as the only one that can be nearest over a
//! block, and its second-order block mean against a dense midpoint rule
//! wherever it reports a finite curvature bound.
//!
//! `DwellState` must reproduce `object_dwell` bit for bit under the
//! tracker's row evolution, including an inactive tail and a repair.
//!
//! The field integrator itself is pinned by its bits: every piece × POI
//! of the fixture, at three resolutions with the topology check on and
//! off, must give the same `f64` and cost the same grid blocks and
//! field values as [`FIELD_GOLDEN`] records, so a changed summation
//! order or settling rule cannot pass unseen.

use inflow::core::contrib::snapshot_object_contrib;
use inflow::core::{object_dwell, DwellState, QueryStats};
use inflow::geometry::{
    integration_blocks, integration_probes, Field, GridResolution, Mbr, Point, Polygon,
};
use inflow::indoor::{CellKind, DeviceId, FloorPlanBuilder, PoiId};
use inflow::obs::Recorder;
use inflow::rtree::RTree;
use inflow::tracking::{ObjectId, ObjectTrackingTable, OttRow};
use inflow::uncertainty::{HostCell, IndoorContext, UrConfig, UrEngine};
use inflow::workload::{generate_synthetic, SyntheticConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// The stated accuracy: per (object, POI), relative to the window length.
const ERROR_BOUND: f64 = 0.01;
/// Midpoint samples per record piece of the reference.
const REFERENCE_SAMPLES: usize = 256;

fn poi_rtree(engine: &UrEngine, pois: &[PoiId]) -> RTree<PoiId> {
    let plan = engine.context().plan();
    RTree::bulk_load(pois.iter().map(|&p| (plan.poi(p).mbr(), p)).collect())
}

/// The window `[ts, te]` cut at every record boundary strictly inside.
fn pieces(ott: &ObjectTrackingTable, object: ObjectId, ts: f64, te: f64) -> Vec<(f64, f64)> {
    let mut cuts = vec![ts, te];
    for &rid in ott.object_records(object) {
        let r = ott.record(rid);
        cuts.extend([r.ts, r.te].into_iter().filter(|&t| t > ts && t < te));
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

/// `∫ presence dt` by a midpoint rule over snapshot presences.
fn reference_dwell(
    engine: &UrEngine,
    ott: &ObjectTrackingTable,
    object: ObjectId,
    (ts, te): (f64, f64),
    rp: &RTree<PoiId>,
) -> HashMap<PoiId, f64> {
    let mut sums = HashMap::new();
    let mut stats = QueryStats::default();
    for (a, b) in pieces(ott, object, ts, te) {
        let step = (b - a) / REFERENCE_SAMPLES as f64;
        for s in 0..REFERENCE_SAMPLES {
            let t = a + (s as f64 + 0.5) * step;
            let Some(state) = ott.state_at(object, t) else { continue };
            let mut rec = Recorder::disabled();
            for (poi, presence) in
                snapshot_object_contrib(engine, ott, state, t, rp, &mut rec, &mut stats)
            {
                *sums.entry(poi).or_insert(0.0) += presence * step;
            }
        }
    }
    sums
}

/// Checks every object's dwell against the reference over `window` and
/// the threshold counts at each of `thresholds`, and that the largest
/// error seen is at most `held`; returns that error.
fn check(
    label: &str,
    engine: &UrEngine,
    ott: &ObjectTrackingTable,
    pois: &[PoiId],
    window: (f64, f64),
    thresholds: &[f64],
    held: f64,
) -> f64 {
    let rp = poi_rtree(engine, pois);
    let (ts, te) = window;
    let bound = ERROR_BOUND * (te - ts);
    let mut worst = 0.0f64;
    let mut counts: HashMap<(PoiId, usize), (usize, usize)> = HashMap::new();
    for object in ott.objects() {
        let got: HashMap<PoiId, f64> =
            object_dwell(engine, ott, object, ts, te, &rp).into_iter().collect();
        let want = reference_dwell(engine, ott, object, window, &rp);
        for &poi in pois {
            let (g, w) =
                (got.get(&poi).copied().unwrap_or(0.0), want.get(&poi).copied().unwrap_or(0.0));
            assert!(
                (0.0..=te - ts).contains(&g),
                "{label}: object {object:?} poi {poi:?}: dwell {g} outside [0, {}]",
                te - ts
            );
            let err = (g - w).abs();
            worst = worst.max(err);
            assert!(
                err <= bound,
                "{label}: object {object:?} poi {poi:?}: dwell {g} vs reference {w} (bound {bound})"
            );
            for (i, &d) in thresholds.iter().enumerate() {
                let c = counts.entry((poi, i)).or_default();
                c.0 += usize::from(g >= d);
                c.1 += usize::from(w >= d);
            }
        }
    }
    for ((poi, i), (got, want)) in counts {
        assert_eq!(got, want, "{label}: poi {poi:?}: count at d = {} differs", thresholds[i]);
    }
    assert!(worst <= held, "{label}: worst error {worst:e} exceeds the {held:e} held before");
    worst
}

/// The worst error against the reference of each case below, as the
/// integrator measured it when it settled blocks by the midpoint of their
/// bounds alone. Curvature settling must hold or lower each.
const HELD_FIXTURE: f64 = 1.544952392578125e-2;
const HELD_TINY_SYNTHETIC: f64 = 1.6298964095554425e-2;
const HELD_PAUSE: f64 = 2.6958309256031043e-6;

/// A 40×10 hall with two rooms above it, each entered by one door:
///
/// * `dev0` (5, 5) and `dev1` (9, 5) in the hall, 1 m apart at their
///   range boundaries; `dev2` (15, 15) in the west room;
/// * POI `hall` over both hall devices, POI `room` inside the west room,
///   and POI `wall` straddling the hall/room wall, which has no host cell.
fn fixture() -> (Arc<IndoorContext>, [DeviceId; 3], Vec<PoiId>) {
    let mut b = FloorPlanBuilder::new();
    let rect = |x0, y0, x1, y1| Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1));
    let hall = b.add_cell("hall", CellKind::Hallway, rect(0.0, 0.0, 40.0, 10.0));
    let west = b.add_cell("west", CellKind::Room, rect(10.0, 10.0, 20.0, 20.0));
    let east = b.add_cell("east", CellKind::Room, rect(20.0, 10.0, 30.0, 20.0));
    b.add_door("west-door", Point::new(15.0, 10.0), hall, west);
    b.add_door("east-door", Point::new(25.0, 10.0), hall, east);
    let devices = [
        b.add_device("dev0", Point::new(5.0, 5.0), 1.5),
        b.add_device("dev1", Point::new(9.0, 5.0), 1.5),
        b.add_device("dev2", Point::new(15.0, 15.0), 1.5),
    ];
    let pois = vec![
        b.add_poi("hall", rect(3.0, 2.0, 11.0, 8.0)),
        b.add_poi("room", rect(12.0, 12.0, 18.0, 18.0)),
        b.add_poi("wall", rect(13.0, 8.0, 17.0, 12.0)),
    ];
    let ctx = Arc::new(IndoorContext::new(b.build().unwrap()));
    assert!(ctx.plan().poi_cell(pois[1]).is_some());
    assert!(ctx.plan().poi_cell(pois[2]).is_none(), "the wall POI takes the general rule");
    (ctx, devices, pois)
}

/// One object per piece kind, numbered by kind.
fn fixture_rows([d0, d1, d2]: [DeviceId; 3]) -> Vec<OttRow> {
    let row = |o, device, ts, te| OttRow { object: ObjectId(o), device, ts, te };
    vec![
        // Disk only: one record, then untracked.
        row(1, d0, 0.0, 30.0),
        // Same-device re-entry: the gap's rings share a centre, and the
        // second record's disk is not cut by its predecessor's ring.
        row(2, d1, 0.0, 10.0),
        row(2, d1, 20.0, 30.0),
        // Disk ∩ ring: dev1 is entered 2 s after dev0 is left, so its disk
        // is cut by dev0's ring until the ring swallows it.
        row(3, d0, 0.0, 10.0),
        row(3, d1, 12.0, 20.0),
        // Ring ∩ ring through the west door: a 20 s gap from dev0 to dev2.
        row(4, d0, 0.0, 5.0),
        row(4, d2, 25.0, 30.0),
        // Unbridgeable: dev0 to dev2 in 1 s; the gap's region is empty.
        row(5, d0, 0.0, 5.0),
        row(5, d2, 6.0, 10.0),
    ]
}

#[test]
fn dwell_matches_time_sampled_reference_for_every_piece_kind() {
    let (ctx, devices, pois) = fixture();
    let ott = ObjectTrackingTable::from_rows(fixture_rows(devices)).unwrap();
    for topology_check in [true, false] {
        let cfg = UrConfig { vmax: 1.1, topology_check, ..UrConfig::default() };
        let engine = UrEngine::new(Arc::clone(&ctx), cfg);
        let label = format!("fixture, topology {topology_check}");
        check(&label, &engine, &ott, &pois, (0.0, 40.0), &[1.0, 5.0, 10.0, 20.0], HELD_FIXTURE);
        // The unbridgeable gap contributes nothing: object 5's dwell is
        // its two records' alone, so the window over the gap is empty.
        let rp = poi_rtree(&engine, &pois);
        assert!(object_dwell(&engine, &ott, ObjectId(5), 5.0, 6.0, &rp).is_empty(), "{label}");
    }
}

#[test]
fn dwell_matches_time_sampled_reference_on_tiny_synthetic() {
    let w = generate_synthetic(&SyntheticConfig {
        num_objects: 12,
        duration: 300.0,
        ..SyntheticConfig::tiny()
    });
    // The configuration the CLI ships: coarse grid, topology check on.
    let cfg = UrConfig { vmax: w.vmax, resolution: GridResolution::COARSE, ..UrConfig::default() };
    let engine = UrEngine::new(Arc::clone(&w.ctx), cfg);
    let pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();
    let window = (100.0, 160.0);
    let worst =
        check("tiny synthetic", &engine, &w.ott, &pois, window, &[2.0, 10.0], HELD_TINY_SYNTHETIC);
    assert!(worst > 0.0, "the reference differs in kind, so some error must show");
}

/// An object pausing in a room through a gap that covers the whole
/// window: the time field is flat over most of the POI and falls off
/// beyond a circle through it. Pricing the blocks across that kink at the
/// midpoint of their bounds lost 0.68 s of ~30 here. The object, POI and
/// window are the benchmark building's (20 objects, an hour, 1 m range).
#[test]
fn dwell_of_a_pause_through_a_long_gap_keeps_its_plateau() {
    let w = generate_synthetic(&SyntheticConfig {
        num_objects: 20,
        duration: 3600.0,
        detection_range: 1.0,
        ..SyntheticConfig::default()
    });
    let cfg = UrConfig { vmax: w.vmax, resolution: GridResolution::COARSE, ..UrConfig::default() };
    let engine = UrEngine::new(Arc::clone(&w.ctx), cfg);
    let (poi, ts) = (PoiId(74), 1933.1165966147178);
    let window = (ts, ts + 30.0);
    let rp = poi_rtree(&engine, &[poi]);
    let pause = object_dwell(&engine, &w.ott, ObjectId(9), ts, ts + 30.0, &rp);
    assert!(pause.iter().any(|&(p, d)| p == poi && d > 25.0), "no pause: {pause:?}");
    check("pause", &engine, &w.ott, &[poi], window, &[10.0, 29.0], HELD_PAUSE);
}

/// The incremental serving cache must reproduce the batch integral
/// bit for bit at every step of a tracker-like row evolution: records
/// appended one at a time, each first arriving as a short open record
/// whose `te` then grows (the tracker's merge); windows ending after the
/// last record, inside a gap that the next record turns into an inactive
/// tail, and inside a record; then a repair that rewrites history, after
/// which a reset state agrees again and keeps agreeing as rows extend.
#[test]
fn incremental_dwell_is_bit_identical_to_batch_under_appends() {
    // A 60×20 hall with three reader-covered POIs in a row; one object
    // walks past all three readers.
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
    let ctx = Arc::new(IndoorContext::new(b.build().unwrap()));
    let engine = UrEngine::new(ctx, UrConfig { vmax: 2.0, ..UrConfig::default() });
    let rp = poi_rtree(&engine, &pois);

    // Past the last record; inside the 31–44 gap; inside the last record.
    for (ts, te) in [(0.0, 60.0), (0.0, 38.0), (2.0, 48.0)] {
        let mut state = DwellState::default();
        let mut steps = 0usize;
        let mut step = |state: &mut DwellState, rows: Vec<OttRow>| {
            let ott = ObjectTrackingTable::from_rows(rows).unwrap();
            let batch = object_dwell(&engine, &ott, object, ts, te, &rp);
            let incr = state.recompute(&engine, &ott, object, ts, te, &rp);
            assert_eq!(incr, batch, "[{ts}, {te}] step {steps}: incremental != batch");
            assert!(!batch.is_empty(), "[{ts}, {te}] step {steps}: fixture should dwell somewhere");
            steps += 1;
        };
        for i in 1..=full_rows.len() {
            // The i-th record first appears as a half-open stub, then
            // extends to its final te — exactly how the online tracker
            // grows an open record as readings arrive.
            let mut stub = full_rows[..i].to_vec();
            let last = stub.last_mut().unwrap();
            last.te = last.ts + (last.te - last.ts) / 2.0;
            step(&mut state, stub);
            step(&mut state, full_rows[..i].to_vec());
        }

        // History rewritten (repair moved a middle record): after a reset
        // the state must agree with batch again from scratch, and stay in
        // step as the rewritten table keeps growing.
        let mut rewritten = full_rows.clone();
        rewritten[1].ts = 20.0;
        rewritten[1].te = 29.0;
        state.reset();
        step(&mut state, rewritten.clone());
        rewritten[2].te = 56.0;
        step(&mut state, rewritten);
    }
}

/// One line per (resolution, topology check, object, piece, POI) of the
/// fixture over `[0, 40]` whose piece reaches the POI: the dwell's `f64`
/// bits, then the grid blocks and field values the integration cost
/// (each block settled at its curvature mean counts one value). Taken
/// when blocks first settled by curvature.
const FIELD_GOLDEN: &str = "\
C 1 1 0-30 0 4011d78000000000 421 124\n\
C 1 2 0-10 0 3ff7ca0000000000 421 124\n\
C 1 2 10-20 0 4015a911ce820b8f 245 120\n\
C 1 2 10-20 1 0000000000000000 0 0\n\
C 1 2 10-20 2 3fd208211b2521f3 497 50\n\
C 1 2 20-30 0 3ff7ca0000000000 421 124\n\
C 1 3 0-10 0 3ff7ca0000000000 421 124\n\
C 1 3 10-12 0 3fb0a50020de9f4d 501 284\n\
C 1 3 12-20 0 3ff1df92dc85f9b0 525 164\n\
C 1 4 0-5 0 3fe7ca0000000000 421 124\n\
C 1 4 5-25 0 401624fef24a87e0 245 104\n\
C 1 4 5-25 1 4010d995e5eb51ba 293 96\n\
C 1 4 5-25 2 401cbb5a182d11c4 461 64\n\
C 1 4 25-30 1 3fefb80000000000 421 124\n\
C 1 5 0-5 0 3fe7ca0000000000 421 124\n\
C 0 1 0-30 0 4011d78000000000 421 124\n\
C 0 2 0-10 0 3ff7ca0000000000 421 124\n\
C 0 2 10-20 0 4015a911ce820b8f 245 120\n\
C 0 2 10-20 1 0000000000000000 0 0\n\
C 0 2 10-20 2 3fd28aa45e9485b4 181 64\n\
C 0 2 20-30 0 3ff7ca0000000000 421 124\n\
C 0 3 0-10 0 3ff7ca0000000000 421 124\n\
C 0 3 10-12 0 3fb0a50020de9f4d 501 284\n\
C 0 3 12-20 0 3ff1df92dc85f9b0 525 164\n\
C 0 4 0-5 0 3fe7ca0000000000 421 124\n\
C 0 4 5-25 0 401b128785e09ea0 245 104\n\
C 0 4 5-25 1 40177f77970a617a 293 96\n\
C 0 4 5-25 2 401f5eabffca0a6a 1 1\n\
C 0 4 25-30 1 3fefb80000000000 421 124\n\
C 0 5 0-5 0 3fe7ca0000000000 421 124\n\
D 1 1 0-30 0 4011bb6000000000 917 252\n\
D 1 2 0-10 0 3ff7a48000000000 917 252\n\
D 1 2 10-20 0 40158a881a013b9b 485 176\n\
D 1 2 10-20 1 0000000000000000 0 0\n\
D 1 2 10-20 2 3fd2096cb02d63d1 697 101\n\
D 1 2 20-30 0 3ff7a48000000000 917 252\n\
D 1 3 0-10 0 3ff7a48000000000 917 252\n\
D 1 3 10-12 0 3fb0b1ce826fc927 1189 680\n\
D 1 3 12-20 0 3ff1c401d3106089 1149 328\n\
D 1 4 0-5 0 3fe7a48000000000 917 252\n\
D 1 4 5-25 0 401610e001d04e80 485 160\n\
D 1 4 5-25 1 4010fa0cdebab277 565 160\n\
D 1 4 5-25 2 401cbb46c072c2e4 717 128\n\
D 1 4 25-30 1 3fef860000000000 917 252\n\
D 1 5 0-5 0 3fe7a48000000000 917 252\n\
D 0 1 0-30 0 4011bb6000000000 917 252\n\
D 0 2 0-10 0 3ff7a48000000000 917 252\n\
D 0 2 10-20 0 40158a881a013b9b 485 176\n\
D 0 2 10-20 1 0000000000000000 0 0\n\
D 0 2 10-20 2 3fd28ccd4b91d4cc 365 111\n\
D 0 2 20-30 0 3ff7a48000000000 917 252\n\
D 0 3 0-10 0 3ff7a48000000000 917 252\n\
D 0 3 10-12 0 3fb0b1ce826fc927 1189 680\n\
D 0 3 12-20 0 3ff1c401d3106089 1149 328\n\
D 0 4 0-5 0 3fe7a48000000000 917 252\n\
D 0 4 5-25 0 401af8d4f449c23d 485 160\n\
D 0 4 5-25 1 4017a98fb820bb09 565 160\n\
D 0 4 5-25 2 401f5eabffca0a6a 1 1\n\
D 0 4 25-30 1 3fef860000000000 917 252\n\
D 0 5 0-5 0 3fe7a48000000000 917 252\n\
F 1 1 0-30 0 4011ac4ccccccccd 2585 644\n\
F 1 2 0-10 0 3ff7906666666667 2585 644\n\
F 1 2 10-20 0 40159060d251b247 1259 352\n\
F 1 2 10-20 1 0000000000000000 0 0\n\
F 1 2 10-20 2 3fd209de9e3f074f 1373 251\n\
F 1 2 20-30 0 3ff7906666666667 2585 644\n\
F 1 3 0-10 0 3ff7906666666667 2585 644\n\
F 1 3 10-12 0 3fb0ba92f390976c 3627 1280\n\
F 1 3 12-20 0 3ff1b5453f61cd7f 3285 828\n\
F 1 4 0-5 0 3fe7906666666667 2585 644\n\
F 1 4 5-25 0 401614c8cc17bbb8 1259 336\n\
F 1 4 5-25 1 401107578aa3367f 1433 360\n\
F 1 4 5-25 2 401cbb4365aae7bd 1613 320\n\
F 1 4 25-30 1 3fef6b3333333334 2585 644\n\
F 1 5 0-5 0 3fe7906666666667 2585 644\n\
F 0 1 0-30 0 4011ac4ccccccccd 2585 644\n\
F 0 2 0-10 0 3ff7906666666667 2585 644\n\
F 0 2 10-20 0 40159060d251b247 1259 352\n\
F 0 2 10-20 1 0000000000000000 0 0\n\
F 0 2 10-20 2 3fd28d81fe502027 977 251\n\
F 0 2 20-30 0 3ff7906666666667 2585 644\n\
F 0 3 0-10 0 3ff7906666666667 2585 644\n\
F 0 3 10-12 0 3fb0ba92f390976c 3627 1280\n\
F 0 3 12-20 0 3ff1b5453f61cd7f 3285 828\n\
F 0 4 0-5 0 3fe7906666666667 2585 644\n\
F 0 4 5-25 0 401afdd55631863b 1259 336\n\
F 0 4 5-25 1 4017bac69da9b14d 1433 360\n\
F 0 4 5-25 2 401f5eabffca0a6c 1 1\n\
F 0 4 25-30 1 3fef6b3333333334 2585 644\n\
F 0 5 0-5 0 3fe7906666666667 2585 644\n";

/// The lines [`FIELD_GOLDEN`] pins, computed afresh.
fn field_lines() -> Vec<String> {
    let (ctx, devices, pois) = fixture();
    let ott = ObjectTrackingTable::from_rows(fixture_rows(devices)).unwrap();
    let mut objects: Vec<ObjectId> = ott.objects().collect();
    objects.sort_unstable();
    let mut lines = Vec::new();
    for (tag, resolution) in
        [("C", GridResolution::COARSE), ("D", GridResolution::DEFAULT), ("F", GridResolution::FINE)]
    {
        for topology_check in [true, false] {
            let cfg = UrConfig { vmax: 1.1, topology_check, resolution, ..UrConfig::default() };
            let engine = UrEngine::new(Arc::clone(&ctx), cfg);
            for &object in &objects {
                for (a, b) in pieces(&ott, object, 0.0, 40.0) {
                    let Some(state) = ott.state_at(object, a + 0.5 * (b - a)) else { continue };
                    let piece = engine.dwell_piece(&ott, state, a, b);
                    for &poi in &pois {
                        let poi_mbr = ctx.plan().poi(poi).mbr();
                        if piece.is_empty() || !piece.mbr().intersects(&poi_mbr) {
                            continue;
                        }
                        let (b0, p0) = (integration_blocks(), integration_probes());
                        let dwell = engine.dwell(&piece, ctx.plan().poi(poi));
                        lines.push(format!(
                            "{tag} {} {} {a}-{b} {} {:016x} {} {}",
                            u8::from(topology_check),
                            object.0,
                            poi.0,
                            dwell.to_bits(),
                            integration_blocks() - b0,
                            integration_probes() - p0,
                        ));
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn field_integrator_bits_and_work_are_pinned() {
    let got = field_lines();
    let want: Vec<&str> = FIELD_GOLDEN.lines().collect();
    assert_eq!(got.len(), want.len(), "case count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "(res topology object piece poi bits blocks values)");
    }
}

/// Two 4×4 rooms sharing the wall x = 4, joined by doors at (4, 2) and
/// (4, 3.5); one device in each room and one near the lower door. POI 0
/// is room b's east half, where from room a either door can be the
/// nearer way in.
fn two_rooms(topology_check: bool) -> UrEngine {
    let mut b = FloorPlanBuilder::new();
    let rect = |x0, y0, x1, y1| Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1));
    let a = b.add_cell("a", CellKind::Room, rect(0.0, 0.0, 4.0, 4.0));
    let c = b.add_cell("b", CellKind::Room, rect(4.0, 0.0, 8.0, 4.0));
    b.add_door("low", Point::new(4.0, 2.0), a, c);
    b.add_door("high", Point::new(4.0, 3.5), a, c);
    b.add_device("west", Point::new(1.0, 3.0), 0.5);
    b.add_device("east", Point::new(6.5, 1.0), 0.5);
    b.add_device("door", Point::new(3.5, 2.0), 0.4);
    b.add_poi("east", rect(6.0, 0.0, 8.0, 4.0));
    let ctx = Arc::new(IndoorContext::new(b.build().unwrap()));
    UrEngine::new(ctx, UrConfig { vmax: 1.0, topology_check, ..UrConfig::default() })
}

/// Blocks of four sizes tiling `area`, then thin strips and small squares
/// in `area` just beyond each device's range, where a distance term
/// curves most.
fn blocks_of(area: Mbr, engine: &UrEngine) -> Vec<Mbr> {
    let mut out = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let (w, h) = (area.width() / n as f64, area.height() / n as f64);
        for j in 0..n {
            for i in 0..n {
                let lo = Point::new(area.lo.x + i as f64 * w, area.lo.y + j as f64 * h);
                out.push(Mbr::new(lo, Point::new(lo.x + w, lo.y + h)));
            }
        }
    }
    for device in engine.context().plan().devices() {
        let c = device.detection_circle();
        for gap in [0.05, 0.3] {
            let p = c.radius + gap;
            for (w, h) in [(1.0, 0.02), (0.3, 0.3)] {
                // Above, below, right of and left of the device.
                let (x, y) = (c.center.x, c.center.y);
                for (lo, hi) in [
                    ((x - w / 2.0, y + p), (x + w / 2.0, y + p + h)),
                    ((x - w / 2.0, y - p - h), (x + w / 2.0, y - p)),
                    ((x + p, y - w / 2.0), (x + p + h, y + w / 2.0)),
                    ((x - p - h, y - w / 2.0), (x - p, y + w / 2.0)),
                ] {
                    let blk = Mbr::new(Point::new(lo.0, lo.1), Point::new(hi.0, hi.1));
                    if area.contains_mbr(&blk) {
                        out.push(blk);
                    }
                }
            }
        }
    }
    out
}

/// Every bound a piece's time field reports over a block holds at every
/// sample point of the block:
///
/// * the value lies in `[0, b − a]` and under `hi`; it is zero where the
///   block is proven outside the support, and at least `lo` where it is
///   proven inside;
/// * a door a leg reports as the only one that can be nearest over the
///   block gives the leg's distance at every sample;
/// * where the curvature bound `quartic` is finite, a dense 32 × 32
///   midpoint mean of the block lies within `quartic · (w² + h²)² / 576`
///   of the field's second-order mean, plus the dense rule's own error.
#[test]
fn field_bounds_hold_at_every_point_of_their_block() {
    let row = |d, ts, te| OttRow { object: ObjectId(1), device: DeviceId(d), ts, te };
    // west → east through a door with 2 s to spare, then the door device
    // while the east ring still cuts its disk.
    let ott = ObjectTrackingTable::from_rows(vec![
        row(0, 0.0, 2.0),
        row(1, 11.0, 13.0),
        row(2, 17.0, 20.0),
    ])
    .unwrap();
    let mut verdicts = [0usize; 3];
    let (mut sources, mut curved) = (0usize, 0usize);
    for topology_check in [true, false] {
        let engine = two_rooms(topology_check);
        let plan = engine.context().plan();
        let vmax = 1.0;
        let host = HostCell::of_poi(plan, plan.poi(PoiId(0))).unwrap();
        for (a, b) in [(2.0, 11.0), (4.0, 9.0), (11.0, 13.0), (17.0, 20.0)] {
            let state = ott.state_at(ObjectId(1), 0.5 * (a + b)).unwrap();
            let piece = engine.dwell_piece(&ott, state, a, b);
            // Without a host over both rooms; with one over room b's east
            // half, where the host's door rule holds.
            for (field, area) in [
                (piece.field(None), Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 4.0))),
                (piece.field(Some(host)), Mbr::new(Point::new(6.0, 0.0), Point::new(8.0, 4.0))),
            ] {
                for blk in blocks_of(area, &engine) {
                    let (w, h) = (blk.width(), blk.height());
                    let ctx = format!("topology {topology_check} [{a}, {b}] {blk:?}");
                    let fb = field.bounds(&blk);
                    verdicts[match fb.support {
                        Some(false) => 0,
                        None => 1,
                        Some(true) => 2,
                    }] += 1;
                    let legs: Vec<_> = field.legs().map(|leg| (leg, leg.bounds(&blk))).collect();
                    sources += legs.iter().filter(|(_, lb)| lb.source.is_some()).count();
                    for s in 0..=6 {
                        for t in 0..=6 {
                            let q = Point::new(
                                blk.lo.x + w * s as f64 / 6.0,
                                blk.lo.y + h * t as f64 / 6.0,
                            );
                            let v = field.value(q);
                            assert!((0.0..=b - a).contains(&v), "{ctx} at {q}: {v}");
                            assert!(v <= fb.hi + 1e-9, "{ctx} at {q}: {v} above {fb:?}");
                            match fb.support {
                                Some(false) => assert_eq!(v, 0.0, "{ctx} at {q}: {fb:?}"),
                                Some(true) => {
                                    assert!(v >= fb.lo - 1e-9, "{ctx} at {q}: {v} below {fb:?}")
                                }
                                None => assert!(v == 0.0 || v >= fb.lo - 1e-9, "{ctx}: {fb:?}"),
                            }
                            for (leg, lb) in &legs {
                                let (Some((at, offset)), Some(d)) = (lb.source, leg.distance(q))
                                else {
                                    continue;
                                };
                                let through = offset + at.distance(q);
                                assert!(
                                    (d - through).abs() <= 1e-9,
                                    "{ctx} at {q}: distance {d}, {through} through {at}"
                                );
                            }
                        }
                    }
                    if fb.quartic.is_finite() {
                        assert_eq!(fb.support, Some(true), "{ctx}: curvature off the support");
                        curved += 1;
                        let n = 32;
                        let mut dense = 0.0;
                        for j in 0..n {
                            for i in 0..n {
                                dense += field.value(Point::new(
                                    blk.lo.x + w * (i as f64 + 0.5) / n as f64,
                                    blk.lo.y + h * (j as f64 + 0.5) / n as f64,
                                ));
                            }
                        }
                        dense /= (n * n) as f64;
                        let c = Point::new(blk.lo.x + 0.5 * w, blk.lo.y + 0.5 * h);
                        let mean = field.mean(c, w, h);
                        let diag = w * w + h * h;
                        // The dense rule's error: the field's Hessian is at most
                        // Σ 1/(V_max·ρ) over its at most two distance terms,
                        // which `quartic` = Σ 1/(V_max·ρ³) bounds by
                        // 2^(2/3) · (quartic / V_max²)^(1/3); a sub-cell's
                        // centre value is then off by (w'² + h'²)/24 of it.
                        let hessian = 2f64.powf(2.0 / 3.0) * (fb.quartic / (vmax * vmax)).cbrt();
                        let dense_err = diag / (n * n) as f64 / 24.0 * hessian;
                        let bound = fb.quartic * diag * diag / 576.0;
                        assert!(
                            (dense - mean).abs() <= bound + dense_err + 1e-12,
                            "{ctx}: mean {mean} vs dense {dense} (bound {bound}, dense {dense_err})"
                        );
                    }
                }
            }
        }
    }
    assert!(verdicts.iter().all(|&n| n > 0), "every verdict occurs: {verdicts:?}");
    assert!(sources > 0 && curved > 0, "{sources} single-source legs, {curved} curved blocks");
}
