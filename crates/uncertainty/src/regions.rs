//! Topology-aware region primitives.
//!
//! The paper's §3.3 topology check excludes the parts of an uncertainty
//! region whose *indoor walking distance* from the anchoring device exceeds
//! the maximum-speed budget. Rather than post-partitioning the region, the
//! membership predicates here evaluate the indoor-distance constraint
//! directly: the integrator then measures exactly the checked region.
//!
//! Every predicate also comes in a form that takes a [`HostCell`]: the
//! one cell a POI's integration window lies in. Probes and blocks clear
//! of its walls then skip the floor-plan searches that would only find
//! the host again; the point set, and every verdict inside the window,
//! stays the same.

use crate::context::{DoorDistances, IndoorContext};
use inflow_geometry::{
    all_of, classify_at_most, Circle, ExtendedEllipse, Mbr, Point, Region, Ring,
};
use inflow_indoor::{CellId, DeviceId, FloorPlan, Poi};
use std::sync::Arc;

/// How far a block must stay from every wall before the topology check
/// bounds indoor distances over it (see [`IndoorAnchor::boundary_bounds`]).
/// Ten times the wall tolerance of the per-point check, so no point of a
/// bounded block ever takes the shared-wall path.
const SOLE_CELL_MARGIN: f64 = 1e-5;

/// Wall tolerance of the per-point check: a point this close to its
/// cell's MBR boundary may belong to an adjoining cell too.
const WALL_TOL: f64 = 1e-6;

/// The cell an integration window lies in: an axis-rectangle cell that no
/// other cell overlaps, whose MBR holds the window
/// ([`inflow_indoor::FloorPlan::poi_cell`]).
///
/// A point more than [`WALL_TOL`] inside it locates to it and to no other
/// cell, and a block [`SOLE_CELL_MARGIN`] clear of its walls is exactly
/// what [`inflow_indoor::FloorPlan::sole_cell`] finds for any block of
/// the window. So the topology check takes both answers from the host
/// instead of searching the plan; everything near a wall keeps the
/// general rule.
#[derive(Debug, Clone, Copy)]
pub struct HostCell {
    id: CellId,
    mbr: Mbr,
}

impl HostCell {
    /// The host of `poi` in `plan`: its [`FloorPlan::poi_cell`], when that
    /// cell's MBR holds the POI's MBR (a POI from elsewhere has none).
    pub fn of_poi(plan: &FloorPlan, poi: &Poi) -> Option<HostCell> {
        let id = plan.poi_cell(poi.id)?;
        let mbr = plan.cell(id).footprint().mbr();
        mbr.contains_mbr(&poi.mbr()).then_some(HostCell { id, mbr })
    }

    /// The host cell's id.
    pub fn id(&self) -> CellId {
        self.id
    }

    /// Whether `q` lies inside the host, clear of its walls.
    fn holds_point(&self, q: Point) -> bool {
        self.mbr.contains(q) && !near_mbr_boundary(self.mbr, q)
    }

    /// Whether `b` lies inside the host, [`SOLE_CELL_MARGIN`] clear of its
    /// walls.
    fn holds_block(&self, b: &Mbr) -> bool {
        self.mbr.contains_strictly(&b.expanded(SOLE_CELL_MARGIN))
    }
}

/// A device anchoring a maximum-speed constraint: indoor distance is
/// measured from the device's position (minus its detection radius, since
/// the clock starts when the object crosses the range boundary).
#[derive(Debug, Clone)]
pub struct IndoorAnchor {
    ctx: Arc<IndoorContext>,
    /// Device detection circle.
    circle: Circle,
    /// The cell containing the device position, plus the indoor distance
    /// from the device to every door of the plan — turning each membership
    /// probe into a scan of the probe cell's few doors.
    cell: Option<DoorDistances>,
}

impl IndoorAnchor {
    /// The anchor of a deployed device, sharing the device→door distance
    /// vector of the context.
    pub fn device(ctx: &Arc<IndoorContext>, id: DeviceId) -> IndoorAnchor {
        IndoorAnchor {
            circle: ctx.plan().device(id).detection_circle(),
            cell: ctx.device_doors(id).cloned(),
            ctx: Arc::clone(ctx),
        }
    }

    /// The device's detection circle.
    pub fn circle(&self) -> Circle {
        self.circle
    }

    /// Indoor distance from the device's range boundary to `q`:
    /// `max(0, d_indoor(center, q) − radius)`. Points inside the detection
    /// range cost zero. Returns `None` when `q` is indoors-unreachable
    /// (outside every cell or not connected by doors). The same value with
    /// or without a `host`.
    pub fn boundary_indoor_distance(&self, q: Point, host: Option<&HostCell>) -> Option<f64> {
        if self.circle.contains(q) {
            return Some(0.0);
        }
        let d = match &self.cell {
            Some((anchor_cell, door_dists)) => {
                let best = match host {
                    // `locate(q)` could only return the host here, and
                    // `q` is on none of its walls.
                    Some(h) if h.holds_point(q) => self.via_cell(q, h.id, *anchor_cell, door_dists),
                    _ => self.via_located_cells(q, *anchor_cell, door_dists)?,
                };
                if !best.is_finite() {
                    return None;
                }
                best
            }
            // Device mounted outside the modelled cells (rare): fall back
            // to the Euclidean distance, i.e. no topology constraint.
            None => self.circle.center.distance(q),
        };
        Some((d - self.circle.radius).max(0.0))
    }

    /// Indoor distance from the anchor to `q` through the cell `q` locates
    /// to; `None` when `q` is outside every cell.
    fn via_located_cells(&self, q: Point, anchor_cell: CellId, door_dists: &[f64]) -> Option<f64> {
        let plan = self.ctx.plan();
        let q_cell = plan.locate(q)?;
        let mut best = self.via_cell(q, q_cell, anchor_cell, door_dists);
        // Points on shared walls (door positions, trajectories hugging a
        // wall) belong to every adjoining cell; the indoor distance is the
        // minimum over all of them.
        if near_mbr_boundary(plan.cell(q_cell).footprint().mbr(), q) {
            for c in plan.locate_all(q) {
                if c != q_cell {
                    best = best.min(self.via_cell(q, c, anchor_cell, door_dists));
                }
            }
        }
        Some(best)
    }

    /// Bounds `(lo, hi)` on [`IndoorAnchor::boundary_indoor_distance`] over
    /// every point of the rectangle `b`, with `f64::INFINITY` standing for
    /// unreachable. `None` unless one rectangular cell holds `b` clear of
    /// its walls: the `host` when given, else what
    /// [`inflow_indoor::FloorPlan::sole_cell`] finds.
    ///
    /// Inside one cell the indoor distance is 1-Lipschitz: the Euclidean
    /// distance to the device in the anchor's own cell, and
    /// `min over the cell's doors of (door_dist + |door − q|)` in any
    /// other, so its range over `b` follows from point-to-rectangle
    /// distances.
    pub fn boundary_bounds(&self, b: &Mbr, host: Option<&HostCell>) -> Option<(f64, f64)> {
        // Points inside the detection range cost zero.
        let in_range = self.circle.classify(b);
        if in_range == Some(true) {
            return Some((0.0, 0.0));
        }
        let c = self.circle.center;
        let euclidean = || (b.min_distance_sq(c).sqrt(), b.max_distance_sq(c).sqrt());
        let (lo, hi) = match &self.cell {
            None => euclidean(),
            Some((anchor_cell, door_dists)) => {
                let plan = self.ctx.plan();
                let cell = match host {
                    Some(h) => h.holds_block(b).then_some(h.id)?,
                    None => plan.sole_cell(b, SOLE_CELL_MARGIN)?,
                };
                if cell == *anchor_cell {
                    euclidean()
                } else {
                    let positions = self.ctx.oracle().door_positions();
                    plan.doors_of_cell(cell).iter().fold(
                        (f64::INFINITY, f64::INFINITY),
                        |(lo, hi), door| {
                            let via = door_dists[door.index()];
                            // lo <= hi, so a door already this far away
                            // improves neither bound.
                            if via >= hi {
                                return (lo, hi);
                            }
                            let at = positions[door.index()];
                            (
                                lo.min(via + b.min_distance_sq(at).sqrt()),
                                hi.min(via + b.max_distance_sq(at).sqrt()),
                            )
                        },
                    )
                }
            }
        };
        let r = self.circle.radius;
        let lo = if in_range == Some(false) { (lo - r).max(0.0) } else { 0.0 };
        Some((lo, (hi - r).max(0.0)))
    }

    /// Indoor distance from the anchor to `q` assuming `q` is entered
    /// through cell `c`.
    fn via_cell(&self, q: Point, c: CellId, anchor_cell: CellId, door_dists: &[f64]) -> f64 {
        if c == anchor_cell {
            return self.circle.center.distance(q);
        }
        let plan = self.ctx.plan();
        let positions = self.ctx.oracle().door_positions();
        let mut best = f64::INFINITY;
        for &door in plan.doors_of_cell(c) {
            let total = door_dists[door.index()] + positions[door.index()].distance(q);
            if total < best {
                best = total;
            }
        }
        best
    }
}

/// Whether `q` lies within [`WALL_TOL`] of the rectangle's boundary. Cells
/// in the supported floor plans are axis-aligned rectangles, so MBR
/// proximity coincides with footprint-boundary proximity.
fn near_mbr_boundary(m: Mbr, q: Point) -> bool {
    (q.x - m.lo.x).abs() <= WALL_TOL
        || (m.hi.x - q.x).abs() <= WALL_TOL
        || (q.y - m.lo.y).abs() <= WALL_TOL
        || (m.hi.y - q.y).abs() <= WALL_TOL
}

/// `Ring(dev, ρ)` with an optional indoor-distance constraint.
///
/// Without an anchor this is exactly the paper's Euclidean ring; with one,
/// points whose indoor walking distance from the device exceeds `ρ` are
/// excluded — the Figure 8(a) check.
pub struct ConstrainedRing {
    ring: Ring,
    anchor: Option<IndoorAnchor>,
}

impl ConstrainedRing {
    /// A purely Euclidean ring (topology check disabled).
    pub fn euclidean(ring: Ring) -> ConstrainedRing {
        ConstrainedRing { ring, anchor: None }
    }

    /// A topology-checked ring around the anchor's device.
    pub fn indoor(anchor: IndoorAnchor, extension: f64) -> ConstrainedRing {
        ConstrainedRing { ring: Ring::new(anchor.circle, extension), anchor: Some(anchor) }
    }

    /// The underlying Euclidean ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// [`Region::contains`], with the integration window's host cell.
    pub fn contains_in(&self, p: Point, host: Option<&HostCell>) -> bool {
        if !self.ring.contains(p) {
            return false;
        }
        match &self.anchor {
            None => true,
            Some(anchor) => match anchor.boundary_indoor_distance(p, host) {
                Some(d) => d <= self.ring.extension,
                None => false,
            },
        }
    }

    /// [`Region::classify`], with the integration window's host cell.
    pub fn classify_in(&self, b: &Mbr, host: Option<&HostCell>) -> Option<bool> {
        let ring = self.ring.classify(b);
        match (&self.anchor, ring) {
            (None, _) | (_, Some(false)) => ring,
            (Some(anchor), _) => {
                let ext = self.ring.extension;
                let topo = anchor
                    .boundary_bounds(b, host)
                    .and_then(|(lo, hi)| classify_at_most(lo, hi, ext));
                all_of([ring, topo])
            }
        }
    }
}

impl Region for ConstrainedRing {
    fn contains(&self, p: Point) -> bool {
        self.contains_in(p, None)
    }

    fn mbr(&self) -> Mbr {
        self.ring.mbr()
    }

    fn is_empty_hint(&self) -> bool {
        self.ring.is_empty()
    }

    fn classify(&self, b: &Mbr) -> Option<bool> {
        self.classify_in(b, None)
    }
}

/// The extended ellipse `Θ` with an optional indoor-distance constraint.
///
/// With anchors, the two boundary-distance terms of the membership test are
/// measured along indoor walking paths, excluding rooms that are Euclidean-
/// near but unreachable through doors within the budget — the Figure 8(b)
/// check.
pub struct ConstrainedTheta {
    theta: ExtendedEllipse,
    anchors: Option<(IndoorAnchor, IndoorAnchor)>,
}

impl ConstrainedTheta {
    /// A purely Euclidean extended ellipse (topology check disabled).
    pub fn euclidean(theta: ExtendedEllipse) -> ConstrainedTheta {
        ConstrainedTheta { theta, anchors: None }
    }

    /// A topology-checked extended ellipse between two anchors' devices.
    pub fn indoor(from: IndoorAnchor, to: IndoorAnchor, budget: f64) -> ConstrainedTheta {
        ConstrainedTheta {
            theta: ExtendedEllipse::new(from.circle, to.circle, budget),
            anchors: Some((from, to)),
        }
    }

    /// The underlying Euclidean extended ellipse.
    pub fn theta(&self) -> &ExtendedEllipse {
        &self.theta
    }

    /// [`Region::contains`], with the integration window's host cell.
    pub fn contains_in(&self, p: Point, host: Option<&HostCell>) -> bool {
        // The Euclidean ellipse is a superset of the indoor one: use it as
        // a cheap pre-filter before any oracle lookups.
        if !self.theta.contains(p) {
            return false;
        }
        match &self.anchors {
            None => true,
            Some((from, to)) => {
                let Some(d1) = from.boundary_indoor_distance(p, host) else {
                    return false;
                };
                if d1 > self.theta.budget {
                    return false;
                }
                let Some(d2) = to.boundary_indoor_distance(p, host) else {
                    return false;
                };
                d1 + d2 <= self.theta.budget + inflow_geometry::EPS
            }
        }
    }

    /// [`Region::classify`], with the integration window's host cell.
    pub fn classify_in(&self, b: &Mbr, host: Option<&HostCell>) -> Option<bool> {
        let theta = self.theta.classify(b);
        match (&self.anchors, theta) {
            (None, _) | (_, Some(false)) => theta,
            (Some((from, to)), _) => {
                let budget = self.theta.budget;
                let topo = from.boundary_bounds(b, host).zip(to.boundary_bounds(b, host)).and_then(
                    |((lo1, hi1), (lo2, hi2))| {
                        all_of([
                            classify_at_most(lo1, hi1, budget),
                            classify_at_most(lo1 + lo2, hi1 + hi2, budget + inflow_geometry::EPS),
                        ])
                    },
                );
                all_of([theta, topo])
            }
        }
    }
}

impl Region for ConstrainedTheta {
    fn contains(&self, p: Point) -> bool {
        self.contains_in(p, None)
    }

    fn mbr(&self) -> Mbr {
        self.theta.mbr()
    }

    fn is_empty_hint(&self) -> bool {
        self.theta.is_empty()
    }

    fn classify(&self, b: &Mbr) -> Option<bool> {
        self.classify_in(b, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflow_geometry::Polygon;
    use inflow_indoor::{CellKind, DeviceId, FloorPlanBuilder, PoiId};

    /// Two 4×4 rooms sharing wall x = 4 with a door at (4, 2), and one
    /// device per `(x, y, range)`. POI 0 fills the east half of room b up
    /// to its walls, POI 1 straddles the shared wall.
    fn ctx(devices: &[(f64, f64, f64)]) -> Arc<IndoorContext> {
        let mut b = FloorPlanBuilder::new();
        let a = b.add_cell(
            "a",
            CellKind::Room,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)),
        );
        let c = b.add_cell(
            "b",
            CellKind::Room,
            Polygon::rectangle(Point::new(4.0, 0.0), Point::new(8.0, 4.0)),
        );
        b.add_door("d", Point::new(4.0, 2.0), a, c);
        for &(x, y, range) in devices {
            b.add_device("dev", Point::new(x, y), range);
        }
        b.add_poi("east", Polygon::rectangle(Point::new(6.0, 0.0), Point::new(8.0, 4.0)));
        b.add_poi("wall", Polygon::rectangle(Point::new(3.0, 1.0), Point::new(5.0, 3.0)));
        Arc::new(IndoorContext::new(b.build().unwrap()))
    }

    fn anchor(ctx: &Arc<IndoorContext>, device: u32) -> IndoorAnchor {
        IndoorAnchor::device(ctx, DeviceId(device))
    }

    #[test]
    fn euclidean_ring_has_no_topology() {
        let ring =
            ConstrainedRing::euclidean(Ring::new(Circle::new(Point::new(2.0, 3.9), 0.5), 3.0));
        // A point in the neighbouring room, Euclidean-near through the wall.
        assert!(ring.contains(Point::new(4.5, 3.9)));
    }

    #[test]
    fn indoor_ring_excludes_through_wall_points() {
        // Device near the top wall of room a; budget 3 m. The point on the
        // other side of the wall is ~2 m away Euclidean but needs a walk
        // through the door at (4,2): far beyond 3 m.
        let ctx = ctx(&[(2.0, 3.9, 0.5)]);
        let ring = ConstrainedRing::indoor(anchor(&ctx, 0), 3.0);
        assert!(!ring.contains(Point::new(4.5, 3.9)), "through-wall point must be excluded");
        // A same-room point at the same Euclidean distance stays.
        assert!(ring.contains(Point::new(2.0, 1.5)));
    }

    #[test]
    fn indoor_ring_keeps_reachable_next_room_points() {
        // Device at the door: the next room is genuinely reachable.
        let ctx = ctx(&[(4.0, 2.0, 0.5)]);
        let ring = ConstrainedRing::indoor(anchor(&ctx, 0), 2.0);
        assert!(ring.contains(Point::new(5.5, 2.0)));
        assert!(ring.contains(Point::new(2.5, 2.0)));
    }

    #[test]
    fn indoor_ring_rejects_points_outside_building() {
        let ctx = ctx(&[(2.0, 2.0, 0.5)]);
        let ring = ConstrainedRing::indoor(anchor(&ctx, 0), 30.0);
        assert!(!ring.contains(Point::new(-3.0, 2.0)), "outdoors is unreachable");
    }

    #[test]
    fn indoor_theta_excludes_far_rooms() {
        // Both devices in room a; budget small. Points in room b require a
        // detour via the door, exceeding the budget.
        let ctx = ctx(&[(1.0, 3.5, 0.4), (3.0, 3.5, 0.4)]);
        let indoor = ConstrainedTheta::indoor(anchor(&ctx, 0), anchor(&ctx, 1), 5.0);
        let euclid = ConstrainedTheta::euclidean(*indoor.theta());
        let through_wall = Point::new(4.6, 3.5);
        assert!(euclid.contains(through_wall));
        assert!(!indoor.contains(through_wall));
        // Same-room points agree.
        let inside = Point::new(2.0, 3.0);
        assert!(euclid.contains(inside) && indoor.contains(inside));
    }

    #[test]
    fn indoor_theta_is_subset_of_euclidean() {
        let ctx = ctx(&[(1.0, 1.0, 0.4), (6.0, 2.0, 0.4)]);
        let indoor = ConstrainedTheta::indoor(anchor(&ctx, 0), anchor(&ctx, 1), 9.0);
        let euclid = ConstrainedTheta::euclidean(*indoor.theta());
        for i in 0..40 {
            for j in 0..20 {
                let p = Point::new(i as f64 * 0.2, j as f64 * 0.2);
                if indoor.contains(p) {
                    assert!(euclid.contains(p), "indoor ⊄ euclidean at {p}");
                }
            }
        }
    }

    #[test]
    fn anchor_zero_inside_range() {
        let ctx = ctx(&[(2.0, 2.0, 1.0)]);
        let anchor = anchor(&ctx, 0);
        assert_eq!(anchor.boundary_indoor_distance(Point::new(2.5, 2.0), None), Some(0.0));
        let d = anchor.boundary_indoor_distance(Point::new(2.0, 3.8), None).unwrap();
        assert!((d - 0.8).abs() < 1e-9);
    }

    #[test]
    fn anchors_on_one_device_share_its_door_distances() {
        let ctx = ctx(&[(2.0, 3.0, 0.5)]);
        let (first, second) = (anchor(&ctx, 0), anchor(&ctx, 0));
        let ((cell, dists), (_, again)) = (first.cell.unwrap(), second.cell.unwrap());
        assert!(Arc::ptr_eq(&dists, &again));
        let plan = ctx.plan();
        assert_eq!(cell, CellId(0));
        let fresh = ctx.oracle().distances_from_point(plan, Point::new(2.0, 3.0), cell);
        assert_eq!(&dists[..], &fresh[..]);
    }

    #[test]
    fn host_cell_changes_no_distance_and_no_bound() {
        let ctx = ctx(&[(2.0, 3.0, 0.5)]);
        let plan = ctx.plan();
        let host = HostCell::of_poi(plan, plan.poi(PoiId(0))).unwrap();
        assert_eq!(host.id(), CellId(1));
        assert!(HostCell::of_poi(plan, plan.poi(PoiId(1))).is_none());
        let anchor = anchor(&ctx, 0);
        // Quarter-metre lattice over room b, walls and the door included.
        for i in 0..=16 {
            for j in 0..=16 {
                let q = Point::new(4.0 + i as f64 * 0.25, j as f64 * 0.25);
                let (with, without) = (
                    anchor.boundary_indoor_distance(q, Some(&host)),
                    anchor.boundary_indoor_distance(q, None),
                );
                assert_eq!(with.map(f64::to_bits), without.map(f64::to_bits), "at {q}");
            }
        }
        let block = |x0, y0, x1, y1| Mbr::new(Point::new(x0, y0), Point::new(x1, y1));
        let clear = block(6.5, 1.0, 7.5, 3.0);
        assert!(anchor.boundary_bounds(&clear, Some(&host)).is_some());
        assert_eq!(
            anchor.boundary_bounds(&clear, Some(&host)),
            anchor.boundary_bounds(&clear, None)
        );
        // Touching the east wall, or within the margin of the west one.
        for touching in [block(7.0, 1.0, 8.0, 3.0), block(4.0 + 1e-6, 1.0, 5.0, 3.0)] {
            assert_eq!(anchor.boundary_bounds(&touching, Some(&host)), None);
            assert_eq!(anchor.boundary_bounds(&touching, None), None);
        }
    }
}
