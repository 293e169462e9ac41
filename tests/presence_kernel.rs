//! Oracles for the presence kernel (`inflow::geometry::area`).
//!
//! The integrator settles whole grid blocks with `Region::classify` and
//! probes only the cells no verdict settles. Two properties make that
//! safe and a third makes it pay; all are checked here on seeded inputs
//! from the in-tree `StdRng`:
//!
//! * **Soundness**: a verdict `classify(b) == Some(v)` agrees with
//!   `contains` at a 5×5 lattice of `b` (corners and centre included), for
//!   every region kind that classifies — topology-constrained ones on the
//!   synthetic, CPH-like and scenario (office / library / metro) plans.
//! * **Equivalence**: integrating a region returns the same `f64`, bit for
//!   bit, as integrating an [`Opaque`] wrapper of it, which hides
//!   `classify` and so probes every cell, and as [`per_cell_area`], the
//!   plain per-cell pass written out here.
//! * **Work**: below a block where the region is proven only the POI
//!   polygon is tested, so a POI strictly inside the region costs no
//!   region probe at all and settles as one block, while a region
//!   crossing the POI is probed.
//! * **Edge cells at FINE**: a rectangle POI inside a proven region
//!   settles to its own edges, where `Polygon::contains_fast` is
//!   half-open; the edge cells take the per-cell rule's values, which
//!   differ from a plain fill at FINE's 6×6 super-samples.
//! * **Inherited part verdicts**: below a block, an uncertainty region
//!   tests only the segments and pieces the block left open. Interval
//!   views with more parts than the live set holds and disk ∩ ring
//!   snapshots whose ring is proven over part of the POI integrate bit
//!   for bit like probing every cell.
//! * **Host cells**: presence evaluates the topology check with the POI's
//!   host cell, skipping point location and `sole_cell` inside it. The
//!   plans resolve the host cells they should, host-cell verdicts and
//!   probes equal the plain ones, and presence equals [`per_cell_area`]
//!   of the plain view bit for bit, also for POIs without a host and for
//!   room-sized POIs whose grid corners fall on walls.
//!
//! The integrator's accuracy properties (exact circle–polygon areas,
//! MBR containment, rectangle clipping) live here too.

use inflow::geometry::{
    area_in_polygon, area_of_region, circle_polygon_area, integration_blocks, integration_probes,
    BoxedRegion, Circle, EmptyRegion, ExtendedEllipse, GridResolution, Live, Mbr, Point, Polygon,
    Region, RegionIntersection, RegionUnion, Ring, Verdict,
};
use inflow::indoor::{CellKind, DeviceId, FloorPlan, FloorPlanBuilder};
use inflow::tracking::{ObjectId, ObjectState, ObjectTrackingTable, OttRow};
use inflow::uncertainty::{
    ConstrainedRing, ConstrainedTheta, HostCell, IndoorAnchor, IndoorContext, UrConfig, UrEngine,
};
use inflow::workload::rng::StdRng;
use inflow::workload::{
    generate_cph, generate_synthetic, library_plan, metro_station_plan, office_plan, CphConfig,
    SyntheticConfig, Workload,
};
use std::sync::Arc;

/// Forwards only `contains` and `mbr`, so `classify` is the default
/// `None` and the integrator probes every cell: the reference path.
struct Opaque<'a, R: ?Sized>(&'a R);

impl<R: Region + ?Sized> Region for Opaque<'_, R> {
    fn contains(&self, p: Point) -> bool {
        self.0.contains(p)
    }
    fn mbr(&self) -> Mbr {
        self.0.mbr()
    }
}

/// The plain per-cell pass, spelled out independently of the library:
/// probe the whole `(n+1)²` corner lattice, then every cell's centre, and
/// super-sample each cell whose five probes disagree; sum row-major. The
/// library must reproduce it bit for bit.
fn per_cell_area(region: &dyn Region, polygon: &Polygon, res: GridResolution) -> f64 {
    let inside = |p: Point| polygon.contains_fast(p) && region.contains(p);
    let window = region.mbr().intersection(&polygon.mbr());
    let (w, h) = (window.width(), window.height());
    if window.is_empty() || w <= 0.0 || h <= 0.0 {
        return 0.0;
    }
    let (n, s) = (res.base, res.supersample);
    let (dx, dy) = (w / n as f64, h / n as f64);
    let cell_area = dx * dy;
    let x = |i: usize| window.lo.x + dx * i as f64;
    let y = |j: usize| window.lo.y + dy * j as f64;
    let corners: Vec<bool> = (0..=n)
        .flat_map(|j| (0..=n).map(move |i| (i, j)))
        .map(|(i, j)| inside(Point::new(x(i), y(j))))
        .collect();
    let corner = |i: usize, j: usize| corners[j * (n + 1) + i];
    let mut total = 0.0;
    for j in 0..n {
        for i in 0..n {
            let (x0, y0) = (x(i), y(j));
            let five = [
                corner(i, j),
                corner(i + 1, j),
                corner(i, j + 1),
                corner(i + 1, j + 1),
                inside(Point::new(x0 + 0.5 * dx, y0 + 0.5 * dy)),
            ];
            if five.iter().all(|&v| v) {
                total += cell_area;
            } else if five.iter().any(|&v| v) {
                let mut hits = 0usize;
                for sj in 0..s {
                    let py = y0 + dy * (sj as f64 + 0.5) / s as f64;
                    for si in 0..s {
                        let px = x0 + dx * (si as f64 + 0.5) / s as f64;
                        hits += usize::from(inside(Point::new(px, py)));
                    }
                }
                total += hits as f64 * (cell_area / (s * s) as f64);
            }
        }
    }
    total
}

fn point_in(rng: &mut StdRng, m: &Mbr) -> Point {
    Point::new(rng.random_range(m.lo.x..=m.hi.x), rng.random_range(m.lo.y..=m.hi.y))
}

/// A rectangle centred near `around` (grown by 1 m), with sides
/// log-uniform between 5 mm and 5 m: from single grid cells to whole
/// rooms.
fn random_block(rng: &mut StdRng, around: &Mbr) -> Mbr {
    let c = point_in(rng, &around.expanded(1.0));
    let w = 0.005 * 1000f64.powf(rng.random_range(0.0..1.0));
    let h = 0.005 * 1000f64.powf(rng.random_range(0.0..1.0));
    Mbr::new(Point::new(c.x - w / 2.0, c.y - h / 2.0), Point::new(c.x + w / 2.0, c.y + h / 2.0))
}

/// The 5×5 lattice of `b`, corners and centre included.
fn lattice(b: &Mbr) -> impl Iterator<Item = Point> + '_ {
    let at = |lo: f64, hi: f64, k: usize| if k == 4 { hi } else { lo + (hi - lo) * k as f64 / 4.0 };
    (0..5).flat_map(move |j| {
        (0..5).map(move |i| Point::new(at(b.lo.x, b.hi.x, i), at(b.lo.y, b.hi.y, j)))
    })
}

/// Verdict counts over random blocks: `[in, out, unsettled]`.
#[derive(Debug, Default, Clone, Copy)]
struct Tally([usize; 3]);

impl Tally {
    fn settled_both_ways(&self) -> bool {
        self.0[0] > 0 && self.0[1] > 0
    }
}

/// Classifies `blocks` random blocks around `region` and checks every
/// verdict against `contains` on the lattice.
fn check_sound(what: &str, region: &dyn Region, rng: &mut StdRng, blocks: usize) -> Tally {
    let around = region.mbr();
    let around = if around.is_empty() {
        Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    } else {
        around
    };
    let mut tally = Tally::default();
    for _ in 0..blocks {
        let b = random_block(rng, &around);
        let verdict = region.classify(&b);
        match verdict {
            Some(true) => tally.0[0] += 1,
            Some(false) => tally.0[1] += 1,
            None => tally.0[2] += 1,
        }
        if let Some(v) = verdict {
            for p in lattice(&b) {
                assert_eq!(
                    region.contains(p),
                    v,
                    "{what}: classify({b:?}) = {v} but contains({p}) disagrees"
                );
            }
        }
    }
    tally
}

fn random_circle(rng: &mut StdRng) -> Circle {
    Circle::new(
        point_in(rng, &Mbr::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0))),
        rng.random_range(0.2..4.0),
    )
}

#[test]
fn primitive_verdicts_are_sound() {
    let mut rng = StdRng::seed_from_u64(0x501D);
    for case in 0..24 {
        let c1 = random_circle(&mut rng);
        let c2 = random_circle(&mut rng);
        let ring = Ring::new(c1, rng.random_range(-0.5..6.0));
        let gap = ExtendedEllipse::new(c1, c2, 0.0).boundary_gap();
        let theta = ExtendedEllipse::new(c1, c2, gap + rng.random_range(-1.0..8.0));
        let lo = point_in(&mut rng, &c1.mbr());
        let rect = Mbr::new(
            lo,
            Point::new(lo.x + rng.random_range(0.5..6.0), lo.y + rng.random_range(0.5..6.0)),
        );
        let poly = Polygon::rectangle(rect.lo, rect.hi);
        let tilted = Polygon::regular(c2.center, c2.radius, 5);

        let circle = check_sound("circle", &c1, &mut rng, 200);
        let rect_t = check_sound("mbr", &rect, &mut rng, 200);
        let poly_t = check_sound("rectangle polygon", &poly, &mut rng, 200);
        assert!(
            circle.settled_both_ways() && rect_t.settled_both_ways() && poly_t.settled_both_ways(),
            "case {case}: {circle:?} {rect_t:?} {poly_t:?}"
        );
        check_sound("ring", &ring, &mut rng, 200);
        check_sound("extended ellipse", &theta, &mut rng, 200);
        let pentagon = check_sound("pentagon", &tilted, &mut rng, 50);
        assert_eq!(pentagon.0[2], 50, "only rectangles classify");
        check_sound("empty", &EmptyRegion, &mut rng, 20);
        check_sound("by reference", &&c1, &mut rng, 50);
        let boxed: BoxedRegion = Box::new(ring);
        check_sound("boxed", &boxed, &mut rng, 50);

        let lens = RegionIntersection::of(Ring::new(c1, 3.0), Ring::new(c2, 3.0));
        check_sound("intersection", &lens, &mut rng, 200);
        let union = RegionUnion::new(vec![Box::new(c1), Box::new(theta), Box::new(poly)]);
        let t = check_sound("union", &union, &mut rng, 200);
        assert!(t.settled_both_ways(), "case {case}: union {t:?}");
    }
}

/// Constrained rings and extended ellipses between the devices of the
/// plan, each checked against its Euclidean twin: some verdicts must come
/// from the topology bound alone (Euclidean in or unsure, indoor out).
fn check_topology_plan(name: &str, ctx: &Arc<IndoorContext>, rng: &mut StdRng) {
    let devices: Vec<Circle> = ctx.plan().devices().iter().map(|d| d.detection_circle()).collect();
    let anchor = |i: usize| IndoorAnchor::device(ctx, DeviceId(i as u32));
    let (mut topo_out, mut inside) = (0, 0);
    for _ in 0..16 {
        let (ia, ib) = (rng.random_range(0..devices.len()), rng.random_range(0..devices.len()));
        let (a, b) = (devices[ia], devices[ib]);
        let ext = rng.random_range(0.5..15.0);
        let ring = ConstrainedRing::indoor(anchor(ia), ext);
        let euclid = ConstrainedRing::euclidean(Ring::new(a, ext));
        let gap = ExtendedEllipse::new(a, b, 0.0).boundary_gap();
        let theta =
            ConstrainedTheta::indoor(anchor(ia), anchor(ib), gap + rng.random_range(0.5..12.0));
        let ellipse = *theta.theta();
        for _ in 0..150 {
            let blk = random_block(rng, &ring.mbr());
            if euclid.classify(&blk) != Some(false) && ring.classify(&blk) == Some(false) {
                topo_out += 1;
            }
            let blk = random_block(rng, &ellipse.mbr());
            if ConstrainedTheta::euclidean(ellipse).classify(&blk) != Some(false)
                && theta.classify(&blk) == Some(false)
            {
                topo_out += 1;
            }
        }
        inside += check_sound(&format!("{name}: constrained ring"), &ring, rng, 150).0[0];
        inside += check_sound(&format!("{name}: constrained theta"), &theta, rng, 150).0[0];
        let both = RegionIntersection::of(ring, ConstrainedRing::indoor(anchor(ib), ext));
        check_sound(&format!("{name}: ring ∩ ring"), &both, rng, 150);
    }
    assert!(topo_out > 0 && inside > 0, "{name}: {topo_out} topology-only outs, {inside} ins");
}

/// A block inside `m` with sides log-uniform between 5 mm and 5 m (capped
/// at `m`'s), and whether it was pushed against one of `m`'s sides.
fn block_in(rng: &mut StdRng, m: &Mbr) -> (Mbr, bool) {
    let w = (0.005 * 1000f64.powf(rng.random_range(0.0..1.0))).min(m.width());
    let h = (0.005 * 1000f64.powf(rng.random_range(0.0..1.0))).min(m.height());
    let (mut x0, mut y0) =
        (rng.random_range(m.lo.x..=m.hi.x - w), rng.random_range(m.lo.y..=m.hi.y - h));
    let (mut x1, mut y1) = (x0 + w, y0 + h);
    let on_wall = rng.random_range(0..3usize) == 0;
    if on_wall {
        match rng.random_range(0..4usize) {
            0 => (x0, x1) = (m.lo.x, m.lo.x + w),
            1 => (x0, x1) = (m.hi.x - w, m.hi.x),
            2 => (y0, y1) = (m.lo.y, m.lo.y + h),
            _ => (y0, y1) = (m.hi.y - h, m.hi.y),
        }
    }
    (Mbr::new(Point::new(x0, y0), Point::new(x1, y1)), on_wall)
}

/// Host-cell verdicts on the plan: blocks inside the host cells of its
/// POIs, a third of them against a wall, under rings and Θs that reach
/// into the cell. With the host, every verdict equals the plain one and
/// is sound, every lattice point tests the same, and no anchor bounds a
/// block touching a wall unless the block lies in its detection range.
fn check_host_cells(name: &str, ctx: &Arc<IndoorContext>, rng: &mut StdRng) {
    let plan = ctx.plan();
    let hosts: Vec<HostCell> =
        plan.pois().iter().filter_map(|p| HostCell::of_poi(plan, p)).collect();
    assert!(!hosts.is_empty(), "{name}: no POI has a host cell");
    let devices = plan.devices().len();
    let anchor = |i: usize| IndoorAnchor::device(ctx, DeviceId(i as u32));
    let (mut bounded, mut on_walls) = (0, 0);
    for _ in 0..24 {
        let host = hosts[rng.random_range(0..hosts.len())];
        let cell = plan.cell(host.id()).footprint().mbr();
        let (ia, ib) = (rng.random_range(0..devices), rng.random_range(0..devices));
        let (a, b) = (anchor(ia).circle(), anchor(ib).circle());
        let reach = |c: Circle| cell.min_distance(c.center) - c.radius;
        let ring = ConstrainedRing::indoor(anchor(ia), reach(a) + rng.random_range(0.5..10.0));
        let budget = reach(a) + reach(b) + rng.random_range(0.5..10.0);
        let theta = ConstrainedTheta::indoor(anchor(ia), anchor(ib), budget);
        for _ in 0..80 {
            let (blk, on_wall) = block_in(rng, &cell);
            let what = format!("{name}: host {:?}, block {blk:?}", host.id());
            let verdicts = [
                (ring.classify_in(&blk, Some(&host)), ring.classify(&blk)),
                (theta.classify_in(&blk, Some(&host)), theta.classify(&blk)),
            ];
            for (with, without) in verdicts {
                assert_eq!(with, without, "{what}: host verdict differs");
            }
            for p in lattice(&blk) {
                let rc = ring.contains_in(p, Some(&host));
                let tc = theta.contains_in(p, Some(&host));
                assert_eq!((rc, tc), (ring.contains(p), theta.contains(p)), "{what}: probe {p}");
                for (v, c) in [(verdicts[0].0, rc), (verdicts[1].0, tc)] {
                    assert!(v.is_none_or(|v| v == c), "{what}: verdict {v:?}, contains({p}) {c}");
                }
            }
            for i in [ia, ib] {
                let anchor = anchor(i);
                let bounds = anchor.boundary_bounds(&blk, Some(&host));
                if Region::classify(&anchor.circle(), &blk) == Some(true) {
                    continue;
                }
                if on_wall {
                    assert_eq!(bounds, None, "{what}: bounded against a wall");
                    on_walls += 1;
                } else if bounds.is_some() {
                    bounded += 1;
                }
            }
        }
    }
    assert!(bounded > 0 && on_walls > 0, "{name}: {bounded} bounded, {on_walls} on walls");
}

#[test]
fn topology_verdicts_are_sound_on_every_plan() {
    let mut rng = StdRng::seed_from_u64(0x70B0);
    let mut host_rng = StdRng::seed_from_u64(0x4057);
    let synthetic = generate_synthetic(&SyntheticConfig::tiny());
    let cph = generate_cph(&CphConfig::tiny());
    for (name, plan) in [
        ("synthetic", inflow::workload::build_floor_plan(&SyntheticConfig::tiny())),
        ("cph", inflow::workload::build_airport_plan(&CphConfig::tiny()).0),
        ("office", office_plan(6)),
        ("library", library_plan(4)),
        ("metro", metro_station_plan(3)),
    ] {
        let ctx = Arc::new(IndoorContext::new(plan));
        check_topology_plan(name, &ctx, &mut rng);
        check_host_cells(name, &ctx, &mut host_rng);
    }
    // Whole uncertainty regions, snapshot and interval, and the
    // per-POI views presence integrates over.
    for (name, w) in [("synthetic", &synthetic), ("cph", &cph)] {
        for topology_check in [false, true] {
            let eng = engine(w, topology_check, GridResolution::COARSE);
            for (ur, _) in sample_urs(w, &eng, &mut rng, 12) {
                check_sound(&format!("{name} UR (topology {topology_check})"), &ur, &mut rng, 60);
                for poi in
                    w.ctx.plan().pois().iter().filter(|p| p.mbr().intersects(&ur.mbr())).take(3)
                {
                    let view = ur.restricted_to(&poi.mbr());
                    check_sound(&format!("{name} restricted UR"), &view, &mut rng, 30);
                    let hosted = ur.restricted_to_poi(w.ctx.plan(), poi);
                    check_sound(&format!("{name} POI view"), &hosted, &mut host_rng, 30);
                }
            }
        }
    }
}

fn engine(w: &Workload, topology_check: bool, resolution: GridResolution) -> UrEngine {
    UrEngine::new(
        w.ctx.clone(),
        UrConfig { vmax: w.vmax, topology_check, resolution, ..UrConfig::default() },
    )
}

/// Up to `count` URs at seeded times, labelled, cycling through three
/// kinds: an inactive snapshot (ring ∩ ring, the bulk of long-visit
/// work), any snapshot, and an interval.
fn sample_urs(
    w: &Workload,
    eng: &UrEngine,
    rng: &mut StdRng,
    count: usize,
) -> Vec<(inflow::uncertainty::UncertaintyRegion, String)> {
    // `objects()` has no fixed order; sorting keeps the draw seeded.
    let mut objects: Vec<_> = w.ott.objects().collect();
    objects.sort_unstable();
    let end = w.ott.records().iter().map(|r| r.te).fold(0.0, f64::max);
    let mut out = Vec::new();
    while out.len() < count {
        let object = objects[rng.random_range(0..objects.len())];
        let t = rng.random_range(0.0..end);
        match (out.len() % 3, w.ott.state_at(object, t)) {
            (0, Some(state @ ObjectState::Inactive { .. })) => {
                out.push((eng.snapshot_ur(&w.ott, state, t), format!("inactive {object:?} t={t}")));
            }
            (1, Some(state)) => {
                out.push((eng.snapshot_ur(&w.ott, state, t), format!("snapshot {object:?} t={t}")));
            }
            (2, _) => {
                let te = t + rng.random_range(20.0..120.0);
                if let Some(ur) = eng.interval_ur(&w.ott, object, t, te) {
                    out.push((ur, format!("interval {object:?} [{t}, {te}]")));
                }
            }
            _ => {}
        }
    }
    out
}

#[test]
fn classifying_integrator_is_bit_identical_to_probing_every_cell() {
    let mut rng = StdRng::seed_from_u64(0xB171D);
    let synthetic = generate_synthetic(&SyntheticConfig::tiny());
    let cph = generate_cph(&CphConfig::tiny());
    let (mut probes_fast, mut probes_all, mut pairs) = (0u64, 0u64, 0usize);
    // FINE has 6×6 super-samples, the only s² that is not a power of two;
    // it is the slowest grid, so it runs on the synthetic plan alone and
    // on fewer URs.
    let all = [GridResolution::COARSE, GridResolution::DEFAULT, GridResolution::FINE];
    for (name, w, resolutions) in [("synthetic", &synthetic, &all[..]), ("cph", &cph, &all[..2])] {
        for topology_check in [false, true] {
            for &res in resolutions {
                let eng = engine(w, topology_check, res);
                let count = if res == GridResolution::FINE { 6 } else { 10 };
                for (ur, label) in sample_urs(w, &eng, &mut rng, count) {
                    let what = format!("{name} {label} topology={topology_check} {res:?}");
                    for poi in w.ctx.plan().pois().iter().filter(|p| p.mbr().intersects(&ur.mbr()))
                    {
                        let view = ur.restricted_to(&poi.mbr());
                        let p0 = integration_probes();
                        let fast = area_in_polygon(&view, poi.extent(), res);
                        let p1 = integration_probes();
                        let reference = area_in_polygon(&Opaque(&view), poi.extent(), res);
                        probes_fast += p1 - p0;
                        probes_all += integration_probes() - p1;
                        assert_eq!(
                            fast.to_bits(),
                            reference.to_bits(),
                            "{what}, POI {:?}: {fast} vs {reference}",
                            poi.id
                        );
                        let plain = per_cell_area(&view, poi.extent(), res);
                        assert_eq!(
                            fast.to_bits(),
                            plain.to_bits(),
                            "{what}, POI {:?}: {fast} vs per-cell {plain}",
                            poi.id
                        );
                        // The view is what presence integrates.
                        let presence = if view.mbr().is_empty() {
                            0.0
                        } else {
                            (fast / poi.area()).clamp(0.0, 1.0)
                        };
                        assert_eq!(
                            eng.presence(&ur, poi).to_bits(),
                            presence.to_bits(),
                            "{what}: presence"
                        );
                        let whole = area_in_polygon(&ur, poi.extent(), res);
                        assert_eq!(
                            whole.to_bits(),
                            area_in_polygon(&Opaque(&ur), poi.extent(), res).to_bits(),
                            "{what}: whole UR"
                        );
                        pairs += 1;
                    }
                    let own = area_of_region(&ur, res);
                    assert_eq!(
                        own.to_bits(),
                        area_of_region(&Opaque(&ur), res).to_bits(),
                        "{what}: UR area"
                    );
                }
            }
        }
    }
    assert!(pairs > 200, "only {pairs} (UR, POI) pairs compared");
    assert!(
        probes_fast * 3 < probes_all,
        "classification settled too little: {probes_fast} of {probes_all} probes"
    );
}

/// Four 5×6 rooms over a 20×3 corridor, each room with a door to the
/// corridor and rooms 1 and 2 joined by a second door. POIs 0–3 are the
/// rooms themselves and POI 4 the whole corridor, so their grid corners
/// fall on walls; POIs 5 and 6 straddle a wall and have no host cell.
fn walls_plan() -> FloorPlan {
    let mut b = FloorPlanBuilder::new();
    let rect = |x0, y0, x1, y1| Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1));
    let corridor = b.add_cell("corridor", CellKind::Hallway, rect(0.0, 0.0, 20.0, 3.0));
    let rooms: Vec<_> = (0..4)
        .map(|i| {
            let x0 = 5.0 * i as f64;
            b.add_cell(format!("room-{i}"), CellKind::Room, rect(x0, 3.0, x0 + 5.0, 9.0))
        })
        .collect();
    for (i, &room) in rooms.iter().enumerate() {
        let door = Point::new(5.0 * i as f64 + 2.5, 3.0);
        b.add_door(format!("door-{i}"), door, room, corridor);
        b.add_device(format!("dev-door-{i}"), door, 1.0);
        b.add_poi(format!("poi-room-{i}"), rect(5.0 * i as f64, 3.0, 5.0 * i as f64 + 5.0, 9.0));
    }
    b.add_door("door-12", Point::new(10.0, 6.0), rooms[1], rooms[2]);
    b.add_device("dev-hall-west", Point::new(5.0, 1.2), 1.0);
    b.add_device("dev-hall-east", Point::new(15.0, 1.2), 1.0);
    b.add_device("dev-room-1", Point::new(7.5, 7.0), 1.0);
    b.add_poi("poi-corridor", rect(0.0, 0.0, 20.0, 3.0));
    b.add_poi("poi-across-12", rect(8.0, 4.0, 12.0, 8.0));
    b.add_poi("poi-doorway-3", rect(16.0, 2.0, 19.0, 4.0));
    b.build().unwrap()
}

/// Seeded tracking data: each object makes `visits` visits to random
/// `devices`, pausing between visits for 1.1–3× the shortest indoor walk
/// at `vmax`, so that every gap is bridgeable and its URs are not empty.
fn random_ott(
    ctx: &IndoorContext,
    devices: &[DeviceId],
    vmax: f64,
    objects: u32,
    visits: usize,
    rng: &mut StdRng,
) -> ObjectTrackingTable {
    let plan = ctx.plan();
    let mut rows = Vec::new();
    for object in 0..objects {
        let mut t = rng.random_range(0.0..20.0);
        let mut at = plan.device(devices[rng.random_range(0..devices.len())]);
        for _ in 0..visits {
            let dwell = rng.random_range(1.0..10.0);
            rows.push(OttRow { object: ObjectId(object), device: at.id, ts: t, te: t + dwell });
            let next = plan.device(devices[rng.random_range(0..devices.len())]);
            let walk = ctx.indoor_distance(at.position, next.position).unwrap();
            let gap = (walk - at.range - next.range).max(0.5) / vmax;
            t += dwell + gap * rng.random_range(1.1..3.0);
            at = next;
        }
    }
    ObjectTrackingTable::from_rows(rows).unwrap()
}

/// Every device of the plan, for [`random_ott`].
fn all_devices(plan: &FloorPlan) -> Vec<DeviceId> {
    plan.devices().iter().map(|d| d.id).collect()
}

fn hosted_count(plan: &FloorPlan) -> (usize, usize) {
    (plan.pois().iter().filter(|p| plan.poi_cell(p.id).is_some()).count(), plan.pois().len())
}

#[test]
fn plans_resolve_their_host_cells() {
    let synthetic = inflow::workload::build_floor_plan(&SyntheticConfig::default());
    assert_eq!(hosted_count(&synthetic), (75, 75));
    let cph = inflow::workload::build_airport_plan(&CphConfig::default()).0;
    assert_eq!(hosted_count(&cph), (75, 75));
    for plan in [office_plan(6), library_plan(4)] {
        let (hosted, all) = hosted_count(&plan);
        assert_eq!(hosted, all);
    }
    // The fare-gate POIs straddle the ticket hall and the concourse.
    let metro = metro_station_plan(8);
    assert_eq!(hosted_count(&metro), (3, 11));
    for poi in metro.pois() {
        assert_eq!(metro.poi_cell(poi.id).is_none(), poi.name.starts_with("poi-gate-"));
    }
    let walls = walls_plan();
    let hosts: Vec<_> = walls.pois().iter().map(|p| walls.poi_cell(p.id).map(|c| c.0)).collect();
    assert_eq!(hosts, [Some(1), Some(2), Some(3), Some(4), Some(0), None, None]);
}

/// Presence with host cells against [`per_cell_area`] of the plain view,
/// bit for bit, on plans where the host cell is absent or its walls carry
/// grid corners: the metro station (fare-gate POIs straddle two halls)
/// and the walls plan (room-sized POIs and two straddling ones).
#[test]
fn presence_matches_the_plain_rule_off_host_cells_and_on_walls() {
    let mut rng = StdRng::seed_from_u64(0x0FF5);
    for (name, plan) in [("metro", metro_station_plan(8)), ("walls", walls_plan())] {
        let ctx = Arc::new(IndoorContext::new(plan));
        let ott = random_ott(&ctx, &all_devices(ctx.plan()), 1.1, 12, 8, &mut rng);
        let w = Workload { ctx, ott, ground_truth: Vec::new(), vmax: 1.1 };
        let plan = w.ctx.plan();
        let (mut hosted, mut unhosted, mut on_walls) = (0, 0, 0);
        for res in [GridResolution::COARSE, GridResolution::DEFAULT] {
            let eng = engine(&w, true, res);
            for (ur, label) in sample_urs(&w, &eng, &mut rng, 18) {
                for poi in plan.pois().iter().filter(|p| p.mbr().intersects(&ur.mbr())) {
                    let view = ur.restricted_to(&poi.mbr());
                    let window = view.mbr().intersection(&poi.mbr());
                    let plain = if view.mbr().is_empty() {
                        0.0
                    } else {
                        (per_cell_area(&view, poi.extent(), res) / poi.area()).clamp(0.0, 1.0)
                    };
                    let presence = eng.presence(&ur, poi);
                    assert_eq!(
                        presence.to_bits(),
                        plain.to_bits(),
                        "{name} {label} {res:?}, POI {}: {presence} vs plain {plain}",
                        poi.name
                    );
                    if presence == 0.0 {
                        continue;
                    }
                    match plan.poi_cell(poi.id) {
                        None => unhosted += 1,
                        Some(c) => {
                            hosted += 1;
                            let m = plan.cell(c).footprint().mbr();
                            let walls = [m.lo.x, m.hi.x, m.lo.y, m.hi.y];
                            let sides = [window.lo.x, window.hi.x, window.lo.y, window.hi.y];
                            on_walls += usize::from(walls.iter().zip(sides).any(|(&w, s)| w == s));
                        }
                    }
                }
            }
        }
        assert!(
            hosted > 10 && unhosted > 10,
            "{name}: {hosted} hosted, {unhosted} unhosted non-zero presences"
        );
        if name == "walls" {
            assert!(on_walls > 10, "{name}: only {on_walls} windows reach a wall");
        }
    }
}

/// `area_in_polygon` of `region` in `poi`, and the region probes and
/// grid blocks it cost.
fn probed_area(region: &dyn Region, poi: &Polygon, res: GridResolution) -> (f64, u64, u64) {
    let (p0, b0) = (integration_probes(), integration_blocks());
    let area = area_in_polygon(region, poi, res);
    (area, integration_probes() - p0, integration_blocks() - b0)
}

/// A POI strictly inside the region: the window is the POI's MBR, the
/// region is proven over all of it, and the grid settles as one block.
fn assert_probe_free(what: &str, region: &dyn Region, poi: &Polygon, res: GridResolution) {
    assert!(region.mbr().contains_mbr(&poi.mbr()), "{what}: window is not the POI's MBR");
    let (area, probes, blocks) = probed_area(region, poi, res);
    assert_eq!(probes, 0, "{what} {res:?}: {probes} region probes for a POI inside the region");
    assert_eq!(blocks, 1, "{what} {res:?}: {blocks} blocks for a POI inside the region");
    let reference = area_in_polygon(&Opaque(region), poi, res);
    assert_eq!(area.to_bits(), reference.to_bits(), "{what} {res:?}: {area} vs {reference}");
}

/// A region whose boundary crosses the POI must still be probed.
fn assert_probed(what: &str, region: &dyn Region, poi: &Polygon, res: GridResolution) {
    let (area, probes, _) = probed_area(region, poi, res);
    assert!(area > 0.0 && area < poi.area(), "{what}: {area} does not cross the POI");
    assert!(probes > 0, "{what} {res:?}: a crossing region issued no probe");
}

#[test]
fn proven_region_issues_no_probes() {
    let poi = Polygon::rectangle(Point::new(1.5, -0.5), Point::new(2.5, 0.5));
    let circle = Circle::new(Point::new(2.0, 0.0), 3.0);
    let rings = RegionIntersection::of(
        Ring::new(Circle::new(Point::new(0.0, 0.0), 1.0), 5.0),
        Ring::new(Circle::new(Point::new(4.0, 0.0), 1.0), 5.0),
    );
    let crossing = Circle::new(Point::new(1.0, 0.0), 1.2);
    for res in [GridResolution::COARSE, GridResolution::DEFAULT, GridResolution::FINE] {
        assert_probe_free("circle", &circle, &poi, res);
        assert_probe_free("ring ∩ ring", &rings, &poi, res);
        assert_probed("crossing circle", &crossing, &poi, res);
    }

    // Topology-constrained inactive snapshot URs (every third sample) on
    // the synthetic plan. A POI counts as inside when the UR proves it
    // with a 1 cm margin.
    let w = generate_synthetic(&SyntheticConfig::tiny());
    let eng = engine(&w, true, GridResolution::COARSE);
    let mut rng = StdRng::seed_from_u64(0x1AC7);
    let (mut inside, mut crossed) = (0, 0);
    for (ur, label) in sample_urs(&w, &eng, &mut rng, 60).iter().step_by(3) {
        for poi in w.ctx.plan().pois().iter().filter(|p| p.mbr().intersects(&ur.mbr())) {
            let view = ur.restricted_to(&poi.mbr());
            let what = format!("{label}, POI {:?}", poi.id);
            match view.classify(&poi.mbr().expanded(0.01)) {
                Some(true) => {
                    assert_probe_free(&what, &view, poi.extent(), GridResolution::COARSE);
                    inside += 1;
                }
                None => {
                    let (area, probes, _) =
                        probed_area(&view, poi.extent(), GridResolution::COARSE);
                    if area > 0.0 && area < poi.area() {
                        assert!(probes > 0, "{what}: a crossing UR issued no probe");
                        crossed += 1;
                    }
                }
                Some(false) => {}
            }
        }
    }
    assert!(inside > 0 && crossed > 0, "{inside} POIs inside, {crossed} crossed");
}

/// `Polygon::contains_fast` on an axis rectangle is the half-open box
/// `[lo, hi)` on both axes: bottom and left edges in, top and right
/// edges out. The integrator's edge-cell values rest on it.
#[test]
fn contains_fast_is_half_open_on_axis_rectangles() {
    let mut rng = StdRng::seed_from_u64(0x4A1F);
    for _ in 0..48 {
        let lo = Point::new(rng.random_range(-500.0..500.0), rng.random_range(-500.0..500.0));
        let hi = Point::new(lo.x + rng.random_range(0.1..20.0), lo.y + rng.random_range(0.1..20.0));
        // Either winding order.
        let poly = if rng.random_range(0..2usize) == 0 {
            Polygon::rectangle(lo, hi)
        } else {
            Polygon::new(vec![lo, Point::new(lo.x, hi.y), hi, Point::new(hi.x, lo.y)]).unwrap()
        };
        assert!(poly.is_axis_rectangle());
        let (x, y) = (rng.random_range(lo.x..hi.x), rng.random_range(lo.y..hi.y));
        let cases = [
            (Point::new(x, y), true),
            (Point::new(lo.x, y), true),
            (Point::new(x, lo.y), true),
            (lo, true),
            (Point::new(hi.x, y), false),
            (Point::new(x, hi.y), false),
            (hi, false),
            (Point::new(hi.x, lo.y), false),
            (Point::new(lo.x, hi.y), false),
            (Point::new(lo.x.next_down(), y), false),
            (Point::new(x, lo.y.next_down()), false),
            (Point::new(hi.x.next_down(), y), true),
            (Point::new(x, hi.y.next_down()), true),
        ];
        for (p, inside) in cases {
            assert_eq!(poly.contains_fast(p), inside, "{p} in {:?}", poly.mbr());
        }
    }
}

/// Rectangle POIs strictly inside a disk, far from the origin so that
/// the window's last lattice line lands on either side of the POI's top
/// and right edges: each settles as one block, bit for bit like
/// [`per_cell_area`] and [`Opaque`]. The sweep must hit cell areas `a`
/// with `s²·(a/s²) ≠ a` where a rim line fails, the one place where a
/// plain `a` fill would differ from the per-cell rule.
#[test]
fn rectangles_in_a_proven_region_settle_to_their_edges() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let (mut uneven, mut rims) = (0, 0);
    // A 4×4 FINE-like grid sums so few cells that one ulp rarely hides.
    let tiny = GridResolution::new(4, 6);
    for (res, cases) in [
        (GridResolution::COARSE, 48),
        (GridResolution::DEFAULT, 48),
        (GridResolution::FINE, 16),
        (tiny, 400),
    ] {
        let (n, s2) = (res.base as f64, (res.supersample * res.supersample) as f64);
        for _ in 0..cases {
            let lo = Point::new(rng.random_range(-900.0..900.0), rng.random_range(-900.0..900.0));
            let (w, h) = (rng.random_range(0.2..15.0), rng.random_range(0.2..15.0));
            let poi = Polygon::rectangle(lo, Point::new(lo.x + w, lo.y + h));
            let disk = Circle::new(poi.mbr().center(), 0.5 * w.hypot(h) + 0.5);
            let what = format!("{:?} in {disk:?}", poi.mbr());
            assert_probe_free(&what, &disk, &poi, res);
            let area = area_in_polygon(&disk, &poi, res);
            let plain = per_cell_area(&disk, &poi, res);
            assert_eq!(area.to_bits(), plain.to_bits(), "{what} {res:?}: {area} vs {plain}");
            let m = poi.mbr();
            let (dx, dy) = (m.width() / n, m.height() / n);
            let a = dx * dy;
            if s2 * (a / s2) != a {
                uneven += 1;
                rims += usize::from(m.lo.x + dx * n >= m.hi.x || m.lo.y + dy * n >= m.hi.y);
            }
        }
    }
    assert!(
        uneven > 20 && rims > 10,
        "{uneven} uneven cell areas, {rims} of them on a failing rim"
    );
}

/// Checks the live sets `region` hands down against `contains` on
/// random blocks near `around` and their quadrants: a verdict's block,
/// and every quadrant classified with the parts it left open, must test
/// the same under `contains_live` with the set in force as under
/// `contains`, at a 5×5 lattice. Returns how many blocks handed down a
/// set with some part proven.
fn check_live_sound(what: &str, region: &dyn Region, around: &Mbr, rng: &mut StdRng) -> usize {
    let agree = |b: &Mbr, verdict: Verdict| {
        for p in lattice(b) {
            let got = match verdict {
                Verdict::In => true,
                Verdict::Out => false,
                Verdict::Open(live) => region.contains_live(p, live),
            };
            assert_eq!(got, region.contains(p), "{what}: {verdict:?} over {b:?} at {p}");
        }
    };
    let mut inherited = 0;
    for _ in 0..40 {
        let b = random_block(rng, around);
        let verdict = region.classify_live(&b, Live::ALL);
        agree(&b, verdict);
        let Verdict::Open(live) = verdict else { continue };
        inherited += usize::from(live != Live::ALL);
        let m = b.center();
        for q in [
            Mbr::new(b.lo, m),
            Mbr::new(Point::new(m.x, b.lo.y), Point::new(b.hi.x, m.y)),
            Mbr::new(Point::new(b.lo.x, m.y), Point::new(m.x, b.hi.y)),
            Mbr::new(m, b.hi),
        ] {
            agree(&q, region.classify_live(&q, live));
        }
    }
    inherited
}

/// Interval URs of an object shuttling around room 1 of the walls plan,
/// active at the start and inactive at the end, so that the last segment
/// has three parts (its `Θ ∩ ring`). Restricted to one POI they keep up
/// to 40-odd segments: more than the live set has bits for, and in some
/// views the last segment starts two bits below the capacity, so only
/// part of it would fit. Live sets are sound on random blocks, and the
/// area is bit-identical to [`Opaque`] and [`per_cell_area`].
#[test]
fn interval_views_past_the_live_capacity_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x5E65);
    let ctx = Arc::new(IndoorContext::new(walls_plan()));
    // dev-door-1 on room 1's door, dev-hall-west and dev-room-1.
    let shuttle = [DeviceId(1), DeviceId(4), DeviceId(6)];
    let ott = random_ott(&ctx, &shuttle, 1.1, 1, 44, &mut rng);
    let w = Workload { ctx, ott, ground_truth: Vec::new(), vmax: 1.1 };
    let chain: Vec<_> =
        w.ott.object_records(ObjectId(0)).iter().map(|&id| *w.ott.record(id)).collect();
    let ts = 0.5 * (chain[0].ts + chain[0].te);
    let (mut past, mut straddling, mut inherited) = (0, 0, 0);
    for (k, pair) in chain.windows(2).enumerate().skip(12) {
        let te = 0.5 * (pair[0].te + pair[1].ts);
        let topology_check = k % 2 == 0;
        let eng = engine(&w, topology_check, GridResolution::COARSE);
        let ur = eng.interval_ur(&w.ott, ObjectId(0), ts, te).unwrap();
        let last = ur.segment_mbrs().last().unwrap();
        for poi in w.ctx.plan().pois().iter().filter(|p| p.mbr().intersects(&ur.mbr())) {
            let segments = ur.segment_mbrs().filter(|m| m.intersects(&poi.mbr())).count();
            // Every segment but the last has two parts.
            let straddles = last.intersects(&poi.mbr()) && 2 * segments == Live::CAPACITY;
            if 2 * segments <= Live::CAPACITY && !straddles && k % 4 != 0 {
                continue;
            }
            past += usize::from(2 * segments > Live::CAPACITY);
            straddling += usize::from(straddles);
            let what = format!("[{ts}, {te}] topology={topology_check}, {}", poi.name);
            let view = ur.restricted_to_poi(w.ctx.plan(), poi);
            inherited += check_live_sound(&what, &view, &poi.mbr(), &mut rng);
            let resolutions: &[GridResolution] = if straddles {
                &[GridResolution::COARSE, GridResolution::DEFAULT, GridResolution::FINE]
            } else {
                &[GridResolution::COARSE]
            };
            for &res in resolutions {
                let eng = engine(&w, topology_check, res);
                let fast = area_in_polygon(&view, poi.extent(), res);
                let reference = area_in_polygon(&Opaque(&view), poi.extent(), res);
                assert_eq!(fast.to_bits(), reference.to_bits(), "{what} {res:?}: {reference}");
                let plain = per_cell_area(&ur.restricted_to(&poi.mbr()), poi.extent(), res);
                assert_eq!(fast.to_bits(), plain.to_bits(), "{what} {res:?}: per-cell {plain}");
                let presence = (fast / poi.area()).clamp(0.0, 1.0);
                assert_eq!(eng.presence(&ur, poi).to_bits(), presence.to_bits(), "{what}");
            }
        }
    }
    assert!(
        past >= 10 && straddling >= 2 && inherited > 50,
        "{past} views past the live capacity, {straddling} straddling it, {inherited} inherited"
    );
}

/// Active snapshots just after a move, `disk ∩ ring`: the predecessor's
/// ring is proven in over part of the POI and crosses the rest, so blocks
/// below the window drop it from the live set while their neighbours
/// still test it. Bit-identical to [`Opaque`] and [`per_cell_area`] at
/// all three resolutions, topology on and off.
#[test]
fn disk_ring_snapshots_with_partly_proven_rings_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let ctx = Arc::new(IndoorContext::new(walls_plan()));
    let ott = random_ott(&ctx, &all_devices(ctx.plan()), 1.1, 12, 8, &mut rng);
    let w = Workload { ctx, ott, ground_truth: Vec::new(), vmax: 1.1 };
    let plan = w.ctx.plan();
    // `objects()` has no fixed order; sorting keeps the draw seeded.
    let mut objects: Vec<_> = w.ott.objects().collect();
    objects.sort_unstable();
    let mut moves: Vec<(ObjectId, f64, Ring)> = Vec::new();
    for object in objects {
        for pair in w.ott.object_records(object).windows(2) {
            let (pre, r) = (w.ott.record(pair[0]), w.ott.record(pair[1]));
            if pre.device == r.device {
                continue;
            }
            let circle = plan.device(pre.device).detection_circle();
            // Early in the record, while the ring still cuts the disk.
            let t = r.ts + 0.3 * (r.te - r.ts).min(2.0);
            moves.push((object, t, Ring::new(circle, w.vmax * (t - pre.te))));
        }
    }
    let (mut partial, mut pairs) = (0, 0);
    // Fewer moves on the finer grids, whose per-cell passes cost more.
    for (res, step) in
        [(GridResolution::COARSE, 1), (GridResolution::DEFAULT, 4), (GridResolution::FINE, 24)]
    {
        for topology_check in [false, true] {
            let eng = engine(&w, topology_check, res);
            for (object, t, ring) in moves.iter().step_by(step) {
                let state = w.ott.state_at(*object, *t).unwrap();
                assert!(matches!(state, ObjectState::Active { pre: Some(_), .. }));
                let ur = eng.snapshot_ur(&w.ott, state, *t);
                for poi in plan.pois().iter().filter(|p| p.mbr().intersects(&ur.mbr())) {
                    let what =
                        format!("{object:?} t={t} topology={topology_check} {res:?}, {}", poi.name);
                    let view = ur.restricted_to_poi(plan, poi);
                    let fast = area_in_polygon(&view, poi.extent(), res);
                    let reference = area_in_polygon(&Opaque(&view), poi.extent(), res);
                    assert_eq!(
                        fast.to_bits(),
                        reference.to_bits(),
                        "{what}: {fast} vs {reference}"
                    );
                    let plain = per_cell_area(&ur.restricted_to(&poi.mbr()), poi.extent(), res);
                    assert_eq!(fast.to_bits(), plain.to_bits(), "{what}: per-cell {plain}");
                    if fast > 0.0 && fast < poi.area() {
                        pairs += 1;
                        // The Euclidean ring, proven in over some of a 4×4
                        // split of the window and not over the rest.
                        let m = view.mbr().intersection(&poi.mbr());
                        let (qw, qh) = (m.width() / 4.0, m.height() / 4.0);
                        let verdicts: Vec<_> = (0..16)
                            .map(|k| {
                                let lo = Point::new(
                                    m.lo.x + qw * (k % 4) as f64,
                                    m.lo.y + qh * (k / 4) as f64,
                                );
                                ring.classify(&Mbr::new(lo, Point::new(lo.x + qw, lo.y + qh)))
                            })
                            .collect();
                        partial += usize::from(
                            verdicts.contains(&Some(true)) && verdicts.iter().any(|v| v.is_none()),
                        );
                    }
                }
            }
        }
    }
    assert!(partial >= 10 && pairs >= 40, "{partial} partly proven rings in {pairs} crossings");
}

#[test]
fn grid_area_matches_exact_circle_polygon() {
    // Within 2% (or 0.02 m²) of the exact circle–polygon area.
    let mut rng = StdRng::seed_from_u64(0xC12C);
    for _ in 0..48 {
        let circle = Circle::new(
            Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)),
            rng.random_range(0.3..4.0),
        );
        let (x0, y0) = (rng.random_range(-6.0..0.0), rng.random_range(-6.0..0.0));
        let (w, h) = (rng.random_range(1.0..8.0), rng.random_range(1.0..8.0));
        let poly = Polygon::rectangle(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let exact = circle_polygon_area(&circle, &poly);
        let approx = area_in_polygon(&circle, &poly, GridResolution::DEFAULT);
        let tol = (0.02 * exact).max(0.02);
        assert!(
            (approx - exact).abs() <= tol,
            "{circle:?} in {:?}: approx {approx} vs exact {exact}",
            poly.mbr()
        );
    }
}

#[test]
fn region_mbr_contains_members() {
    // Every point a ring or extended ellipse admits lies inside its MBR.
    let mut rng = StdRng::seed_from_u64(0x3B2);
    let field = Mbr::new(Point::new(-40.0, -40.0), Point::new(40.0, 40.0));
    let centres = Mbr::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0));
    for _ in 0..48 {
        let c1 = Circle::new(point_in(&mut rng, &centres), rng.random_range(0.2..2.0));
        let c2 = Circle::new(point_in(&mut rng, &centres), rng.random_range(0.2..2.0));
        let budget = rng.random_range(0.0..30.0);
        let ring = Ring::new(c1, budget);
        let theta = ExtendedEllipse::new(c1, c2, budget);
        for _ in 0..64 {
            // Half the probes uniform over the field, half near the shapes.
            let probe = if rng.random_range(0..2usize) == 0 {
                point_in(&mut rng, &field)
            } else {
                point_in(&mut rng, &ring.outer().mbr().expanded(1.0))
            };
            if ring.contains(probe) {
                assert!(ring.mbr().contains(probe), "{ring:?} admits {probe} outside its MBR");
            }
            if !theta.is_empty() && theta.contains(probe) {
                assert!(theta.mbr().contains(probe), "{theta:?} admits {probe} outside its MBR");
            }
        }
    }
}

#[test]
fn polygon_clip_area_is_consistent() {
    // Clipping against a convex window never grows the area, and a
    // rectangle ∩ rectangle matches the exact MBR intersection — by
    // clipping and by the grid integrator.
    let mut rng = StdRng::seed_from_u64(0xC11F);
    for _ in 0..48 {
        let (x0, y0) = (rng.random_range(-10.0..0.0), rng.random_range(-10.0..0.0));
        let (w, h) = (rng.random_range(2.0..15.0), rng.random_range(2.0..15.0));
        let (cx0, cy0) = (rng.random_range(-8.0..2.0), rng.random_range(-8.0..2.0));
        let (cw, ch) = (rng.random_range(2.0..12.0), rng.random_range(2.0..12.0));
        let subject = Polygon::rectangle(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let clip = Polygon::rectangle(Point::new(cx0, cy0), Point::new(cx0 + cw, cy0 + ch));
        let clipped_area = subject.intersection_area_convex(&clip);
        assert!(clipped_area <= subject.area() + 1e-9);
        assert!(clipped_area <= clip.area() + 1e-9);
        let exact = subject.mbr().intersection(&clip.mbr()).area();
        assert!((clipped_area - exact).abs() < 1e-6, "clip {clipped_area} vs exact {exact}");
        let grid = area_in_polygon(&subject, &clip, GridResolution::DEFAULT);
        assert!((grid - exact).abs() < 1e-6, "grid {grid} vs exact {exact}");
    }
}
