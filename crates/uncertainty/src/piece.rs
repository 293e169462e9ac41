//! Time spent in the uncertainty region over one record piece.
//!
//! Between two consecutive record boundaries an object's tracking state
//! is fixed, so its snapshot uncertainty region changes only through the
//! extensions of its maximum-speed rings, which grow or shrink linearly
//! in `t`. A point `q` therefore lies in `UR(t)` exactly while
//!
//! * `t ≥ t_in(q) = pre.te + d_pre(q)/V_max` — reachable from the record
//!   the object left, and
//! * `t ≤ t_out(q) = suc.ts − d_suc(q)/V_max` — able to reach the record
//!   it enters next,
//!
//! where `d` is the distance from the device's range boundary (indoor
//! when the topology check is on), points inside either detection disk
//! are excluded, and an active record restricts `q` to its covering disk
//! and has no successor term. The time `q` spends in the region over the
//! piece `[a, b]` is `T(q) = |[max(a, t_in), min(b, t_out)]|⁺`, and
//! `∫ presence dt` over the piece is `(1/|p|) ∫_p T(q) dq`: one spatial
//! integration of a bounded field ([`inflow_geometry::field_in_polygon`])
//! instead of one indicator integration per time sample.

use crate::context::IndoorContext;
use crate::regions::{HostCell, IndoorAnchor};
use inflow_geometry::{
    all_of, Circle, ExtendedEllipse, Field, FieldBounds, Mbr, Point, Region, Ring, EPS,
};
use inflow_indoor::DeviceId;
use std::sync::Arc;

/// One record on either side of a piece: its device's detection disk,
/// the topology anchor when the check is on, and the time the speed bound
/// counts from (`pre.te`, or `suc.ts`).
struct Leg {
    circle: Circle,
    anchor: Option<IndoorAnchor>,
    at: f64,
}

impl Leg {
    fn new(ctx: &Arc<IndoorContext>, topology: bool, (device, at): (DeviceId, f64)) -> Leg {
        Leg {
            circle: ctx.plan().device(device).detection_circle(),
            anchor: topology.then(|| IndoorAnchor::device(ctx, device)),
            at,
        }
    }

    fn view(&self, host: Option<&HostCell>) -> LegView<'_> {
        let distance = match (&self.anchor, host) {
            (Some(anchor), Some(h)) => Distance::Sources(anchor.sources_in(h)),
            (Some(anchor), None) => Distance::Plan(anchor),
            (None, _) => Distance::Sources(vec![(self.circle.center, 0.0)]),
        };
        LegView { circle: self.circle, at: self.at, distance }
    }
}

/// An object's uncertainty over one piece `[a, b]` between two record
/// boundaries, as the field `T(q)` of the time `q` spends in the region
/// (see the module docs). Built by [`crate::UrEngine::dwell_piece`].
pub struct DwellPiece {
    a: f64,
    b: f64,
    vmax: f64,
    /// The covering record's detection disk, when the object is active.
    disk: Option<Circle>,
    /// The record left before the piece: `t_in(q) = at + d(q)/V_max`.
    pre: Option<Leg>,
    /// The record entered after the piece: `t_out(q) = at − d(q)/V_max`.
    suc: Option<Leg>,
    /// Holds every `UR(t)`, `t ∈ [a, b]`.
    mbr: Mbr,
}

impl DwellPiece {
    /// The piece of an active record on `cov`: its detection disk, cut by
    /// the ring of the predecessor `(device, te)` when there is one.
    pub(crate) fn active(
        ctx: &Arc<IndoorContext>,
        topology: bool,
        vmax: f64,
        (a, b): (f64, f64),
        cov: DeviceId,
        pre: Option<(DeviceId, f64)>,
    ) -> DwellPiece {
        let disk = ctx.plan().device(cov).detection_circle();
        let pre = pre.map(|pre| Leg::new(ctx, topology, pre));
        let mut mbr = disk.mbr();
        if let Some(leg) = &pre {
            mbr = mbr.intersection(&Ring::new(leg.circle, vmax * (b - leg.at)).mbr());
        }
        DwellPiece { a, b, vmax, disk: Some(disk), pre, suc: None, mbr }
    }

    /// The piece of an inactive gap between the predecessor `(device, te)`
    /// and the successor `(device, ts)`: the meet of their rings.
    pub(crate) fn inactive(
        ctx: &Arc<IndoorContext>,
        topology: bool,
        vmax: f64,
        (a, b): (f64, f64),
        pre: (DeviceId, f64),
        suc: (DeviceId, f64),
    ) -> DwellPiece {
        let (pre, suc) = (Leg::new(ctx, topology, pre), Leg::new(ctx, topology, suc));
        let ring = |leg: &Leg, ext| Ring::new(leg.circle, ext).mbr();
        // Whatever the object does in the gap stays inside the two records'
        // extended ellipse, usually a far smaller box than the rings'.
        let theta = ExtendedEllipse::new(pre.circle, suc.circle, vmax * (suc.at - pre.at));
        let mbr = ring(&pre, vmax * (b - pre.at))
            .intersection(&ring(&suc, vmax * (suc.at - a)))
            .intersection(&theta.mbr());
        DwellPiece { a, b, vmax, disk: None, pre: Some(pre), suc: Some(suc), mbr }
    }

    /// The piece's time span `(a, b)`.
    pub(crate) fn span(&self) -> (f64, f64) {
        (self.a, self.b)
    }

    /// A rectangle holding the region at every instant of the piece.
    pub fn mbr(&self) -> Mbr {
        self.mbr
    }

    /// Whether the object can be nowhere during the piece.
    pub fn is_empty(&self) -> bool {
        self.mbr.is_empty()
    }

    /// The piece as a [`Field`] over an integration window: one lying in
    /// `host` when one is given (see [`HostCell`]). Inside a host, indoor
    /// distances are taken through the host's own doors everywhere, its
    /// walls included: a point within the plan's wall tolerance of a wall
    /// counts as inside the host rather than taking the minimum over the
    /// cells beyond. That band has no area to speak of, and without it no
    /// block along a wall of the host could be bounded.
    pub(crate) fn field(&self, host: Option<HostCell>) -> PieceField<'_> {
        let host = host.as_ref();
        PieceField {
            piece: self,
            pre: self.pre.as_ref().map(|leg| leg.view(host)),
            suc: self.suc.as_ref().map(|leg| leg.view(host)),
        }
    }
}

/// How a leg measures distance over one integration window.
enum Distance<'a> {
    /// `min over (at, via) of (via + |at − q|)`: the device centre, or the
    /// host cell's doors ([`IndoorAnchor::sources_in`]).
    Sources(Vec<(Point, f64)>),
    /// The plan-wide indoor distance, for a window with no host cell.
    Plan(&'a IndoorAnchor),
}

/// One leg of a piece over an integration window.
struct LegView<'a> {
    circle: Circle,
    /// `pre.te` or `suc.ts`.
    at: f64,
    distance: Distance<'a>,
}

impl LegView<'_> {
    /// Distance from the device's range boundary to `q`, as the ring test
    /// measures it; `None` when `q` is inside the detection disk (the ring
    /// excludes it) or unreachable.
    fn distance(&self, q: Point) -> Option<f64> {
        let c = self.circle;
        if c.center.distance_sq(q) <= c.radius * c.radius - EPS {
            return None;
        }
        let d = match &self.distance {
            Distance::Sources(sources) => sources
                .iter()
                .fold(f64::INFINITY, |best, &(at, via)| best.min(via + at.distance(q))),
            Distance::Plan(anchor) => {
                // The ring checks the Euclidean bound too; indoor is never
                // shorter, so keeping both only guards rounding.
                let indoor = anchor.boundary_indoor_distance(q, None)?;
                return Some(indoor.max(c.boundary_distance(q)));
            }
        };
        d.is_finite().then(|| (d - c.radius).max(0.0))
    }

    /// Over the block `b`: whether it is proven outside the detection
    /// disk, and bounds on [`LegView::distance`] (`f64::INFINITY` standing
    /// for unreachable).
    fn bounds(&self, b: &Mbr) -> (Option<bool>, f64, f64) {
        let c = self.circle;
        let outside = Region::classify(&c, b).map(|inside| !inside);
        let (lo, hi) = match &self.distance {
            Distance::Sources(sources) => {
                sources.iter().fold((f64::INFINITY, f64::INFINITY), |(lo, hi), &(at, via)| {
                    (
                        lo.min(via + b.min_distance_sq(at).sqrt()),
                        hi.min(via + b.max_distance_sq(at).sqrt()),
                    )
                })
            }
            Distance::Plan(anchor) => {
                let (lo, hi) = c.boundary_distance_bounds(b);
                return match anchor.boundary_bounds(b, None) {
                    Some((ilo, ihi)) => (outside, lo.max(ilo), hi.max(ihi)),
                    // Straddles a wall: indoor is never shorter than Euclidean.
                    None => (outside, lo, f64::INFINITY),
                };
            }
        };
        (outside, (lo - c.radius).max(0.0), (hi - c.radius).max(0.0))
    }
}

/// A [`DwellPiece`] as an integrable [`Field`] of `T(q)` over one
/// integration window ([`DwellPiece::field`]).
pub(crate) struct PieceField<'a> {
    piece: &'a DwellPiece,
    pre: Option<LegView<'a>>,
    suc: Option<LegView<'a>>,
}

impl Field for PieceField<'_> {
    fn value(&self, q: Point) -> f64 {
        let piece = self.piece;
        if piece.disk.is_some_and(|d| !d.contains(q)) {
            return 0.0;
        }
        let (mut from, mut to) = (piece.a, piece.b);
        if let Some(leg) = &self.pre {
            let Some(d) = leg.distance(q) else { return 0.0 };
            from = from.max(leg.at + d / piece.vmax);
        }
        if let Some(leg) = &self.suc {
            let Some(d) = leg.distance(q) else { return 0.0 };
            to = to.min(leg.at - d / piece.vmax);
        }
        (to - from).max(0.0)
    }

    /// `T` falls as `t_in` rises and rises with `t_out`, so the distance
    /// bounds of the two legs give its range directly. A block is only
    /// reported inside the support where `T` is positive and neither clamp
    /// of `[max(a, t_in), min(b, t_out)]` switches inside it: across such
    /// a kink `T` is flat on one side, and the midpoint of its bounds
    /// would misprice the plateau (a pause in a POI through a long gap
    /// lost 0.7 s of 30 that way).
    fn bounds(&self, b: &Mbr) -> FieldBounds {
        let piece = self.piece;
        let mut support = piece.disk.map_or(Some(true), |d| Region::classify(&d, b));
        let (mut from_lo, mut from_hi, mut to_lo, mut to_hi) = (piece.a, piece.a, piece.b, piece.b);
        let mut kinked = false;
        for (leg, entry) in [(&self.pre, true), (&self.suc, false)] {
            if support == Some(false) {
                break;
            }
            let Some(leg) = leg else { continue };
            let (outside, lo, hi) = leg.bounds(b);
            support = all_of([support, outside]);
            if entry {
                let (t_lo, t_hi) = (leg.at + lo / piece.vmax, leg.at + hi / piece.vmax);
                kinked |= t_lo < piece.a && piece.a < t_hi;
                from_lo = from_lo.max(t_lo);
                from_hi = from_hi.max(t_hi);
            } else {
                let (t_lo, t_hi) = (leg.at - hi / piece.vmax, leg.at - lo / piece.vmax);
                kinked |= t_lo < piece.b && piece.b < t_hi;
                to_lo = to_lo.min(t_lo);
                to_hi = to_hi.min(t_hi);
            }
        }
        if support == Some(false) {
            return FieldBounds { support, lo: 0.0, hi: 0.0 };
        }
        let (lo, hi) = ((to_lo - from_hi).max(0.0), (to_hi - from_lo).max(0.0));
        if lo <= 0.0 || kinked {
            support = all_of([support, None]);
        }
        FieldBounds { support, lo, hi }
    }

    fn mbr(&self) -> Mbr {
        self.piece.mbr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UrConfig, UrEngine};
    use inflow_geometry::Polygon;
    use inflow_indoor::{CellKind, FloorPlanBuilder, PoiId};
    use inflow_tracking::{ObjectId, ObjectTrackingTable, OttRow};

    /// Two 4×4 rooms sharing wall x = 4 with a door at (4, 2); one device
    /// in each room and one near the door. POI 0 is room b's east half.
    fn engine(topology_check: bool) -> UrEngine {
        let mut b = FloorPlanBuilder::new();
        let rect = |x0, y0, x1, y1| Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1));
        let a = b.add_cell("a", CellKind::Room, rect(0.0, 0.0, 4.0, 4.0));
        let c = b.add_cell("b", CellKind::Room, rect(4.0, 0.0, 8.0, 4.0));
        b.add_door("d", Point::new(4.0, 2.0), a, c);
        b.add_device("west", Point::new(1.0, 3.0), 0.5);
        b.add_device("east", Point::new(6.5, 1.0), 0.5);
        b.add_device("door", Point::new(3.5, 2.0), 0.4);
        b.add_poi("east", rect(6.0, 0.0, 8.0, 4.0));
        let ctx = Arc::new(IndoorContext::new(b.build().unwrap()));
        UrEngine::new(ctx, UrConfig { vmax: 1.0, topology_check, ..UrConfig::default() })
    }

    #[test]
    fn field_bounds_hold_at_every_point_of_their_block() {
        let row = |d, ts, te| OttRow { object: ObjectId(1), device: DeviceId(d), ts, te };
        // west → east through the door with 2 s to spare, then the door
        // device while the east ring still cuts its disk.
        let ott = ObjectTrackingTable::from_rows(vec![
            row(0, 0.0, 2.0),
            row(1, 11.0, 13.0),
            row(2, 17.0, 20.0),
        ])
        .unwrap();
        let mut verdicts = [0usize; 3];
        for topology_check in [true, false] {
            let engine = engine(topology_check);
            let plan = engine.context().plan();
            let host = HostCell::of_poi(plan, plan.poi(PoiId(0))).unwrap();
            for (a, b) in [(2.0, 11.0), (4.0, 9.0), (11.0, 13.0), (17.0, 20.0)] {
                let state = ott.state_at(ObjectId(1), 0.5 * (a + b)).unwrap();
                let piece = engine.dwell_piece(&ott, state, a, b);
                // Without a host over both rooms; with one over room b's
                // east half, where the host's door rule holds.
                for (field, area) in [
                    (piece.field(None), Mbr::new(Point::new(0.0, 0.0), Point::new(8.0, 4.0))),
                    (piece.field(Some(host)), Mbr::new(Point::new(6.0, 0.0), Point::new(8.0, 4.0))),
                ] {
                    for k in 0..64 {
                        // Blocks of four sizes tiling the area.
                        let n = [1usize, 2, 4, 8][k % 4];
                        let (i, j) = ((k / 4) % n, (k / 16) % n);
                        let (w, h) = (area.width() / n as f64, area.height() / n as f64);
                        let lo = Point::new(area.lo.x + i as f64 * w, area.lo.y + j as f64 * h);
                        let blk = Mbr::new(lo, Point::new(lo.x + w, lo.y + h));
                        let fb = field.bounds(&blk);
                        verdicts[match fb.support {
                            Some(false) => 0,
                            None => 1,
                            Some(true) => 2,
                        }] += 1;
                        for s in 0..=6 {
                            for t in 0..=6 {
                                let q = Point::new(
                                    blk.lo.x + w * s as f64 / 6.0,
                                    blk.lo.y + h * t as f64 / 6.0,
                                );
                                let v = field.value(q);
                                let ctx =
                                    format!("topology {topology_check} [{a}, {b}] {blk:?} at {q}");
                                assert!((0.0..=b - a).contains(&v), "{ctx}: {v}");
                                assert!(v <= fb.hi + 1e-9, "{ctx}: {v} above {fb:?}");
                                match fb.support {
                                    Some(false) => assert_eq!(v, 0.0, "{ctx}: {fb:?}"),
                                    Some(true) => {
                                        assert!(v >= fb.lo - 1e-9, "{ctx}: {v} below {fb:?}")
                                    }
                                    None => assert!(v == 0.0 || v >= fb.lo - 1e-9, "{ctx}: {fb:?}"),
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "every verdict occurs: {verdicts:?}");
    }
}
