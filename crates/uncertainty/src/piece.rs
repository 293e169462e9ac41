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
//!
//! Off its kinks, `T` is `b − a`, `t_out − a`, `b − t_in` or
//! `t_out − t_in`: a constant less one distance term `|q − s| / V_max` per
//! leg whose clamp is active, where `s` is the source (device centre or
//! host door) nearest `q` through. Over a block where each such leg has a
//! single source that no other can undercut, `T` is smooth, and
//! [`PieceField`] reports the curvature bound and second-order mean that
//! let the integrator price the block at one value
//! ([`inflow_geometry::FieldBounds::quartic`], [`Field::mean`]).

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
    pub fn field(&self, host: Option<HostCell>) -> PieceField<'_> {
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
pub struct LegView<'a> {
    circle: Circle,
    /// `pre.te` or `suc.ts`.
    at: f64,
    distance: Distance<'a>,
}

/// What a leg proves over a block ([`LegView::bounds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegBounds {
    /// Whether the block is proven outside the detection disk.
    pub outside: Option<bool>,
    /// A lower bound on [`LegView::distance`] over the block.
    pub lo: f64,
    /// An upper bound on it (`f64::INFINITY` standing for unreachable).
    pub hi: f64,
    /// The one source no other can undercut anywhere in the block, as
    /// `(at, offset)`: the leg's distance there is `offset + |q − at|`.
    /// `None` under the plan-wide distance, where two or more sources
    /// survive, or where the distance may clamp at zero.
    pub source: Option<(Point, f64)>,
}

impl LegView<'_> {
    /// Distance from the device's range boundary to `q`, as the ring test
    /// measures it; `None` when `q` is inside the detection disk (the ring
    /// excludes it) or unreachable.
    pub fn distance(&self, q: Point) -> Option<f64> {
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
    /// disk, bounds on [`LegView::distance`], and the source that gives
    /// it throughout the block when only one can. A source whose lower
    /// bound exceeds the least upper bound is never the nearest in the
    /// block, so one source survives exactly when the second-least lower
    /// bound exceeds the least upper one; it is then the source of the
    /// least lower bound. Recomputed per block: a block's survivors are
    /// cheap to find from the bounds the block needs anyway.
    pub fn bounds(&self, b: &Mbr) -> LegBounds {
        let c = self.circle;
        let outside = Region::classify(&c, b).map(|inside| !inside);
        let (lo, hi, source) = match &self.distance {
            Distance::Sources(sources) => {
                let (mut lo, mut hi, mut second) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
                let mut nearest = None;
                for &(at, via) in sources {
                    let near = via + b.min_distance_sq(at).sqrt();
                    hi = hi.min(via + b.max_distance_sq(at).sqrt());
                    if near < lo {
                        (second, lo, nearest) = (lo, near, Some((at, via - c.radius)));
                    } else {
                        second = second.min(near);
                    }
                }
                (lo, hi, nearest.filter(|_| second > hi && lo >= c.radius))
            }
            Distance::Plan(anchor) => {
                let (lo, hi) = c.boundary_distance_bounds(b);
                let (lo, hi) = match anchor.boundary_bounds(b, None) {
                    Some((ilo, ihi)) => (lo.max(ilo), hi.max(ihi)),
                    // Straddles a wall: indoor is never shorter than Euclidean.
                    None => (lo, f64::INFINITY),
                };
                return LegBounds { outside, lo, hi, source: None };
            }
        };
        LegBounds { outside, lo: (lo - c.radius).max(0.0), hi: (hi - c.radius).max(0.0), source }
    }

    /// The second-order term of the leg's distance over the `w × h` block
    /// centred at `q`, `(w² · u_y² + h² · u_x²) / (24 · ρ)` for `ρ` and
    /// `u` the length and direction of `q − s`, `s` the source nearest
    /// through: half the trace of the Hessian of `|q − s|`, which is
    /// `(I − u uᵀ) / ρ`, against the block's second moments. Zero under
    /// the plan-wide distance, which reports no curvature bound.
    fn bend(&self, q: Point, w: f64, h: f64) -> f64 {
        let Distance::Sources(sources) = &self.distance else { return 0.0 };
        let through = |&(at, via): &(Point, f64)| via + at.distance(q);
        let Some(&(s, _)) = sources.iter().min_by(|x, y| through(x).total_cmp(&through(y))) else {
            return 0.0;
        };
        let (dx, dy) = (q.x - s.x, q.y - s.y);
        let rho_sq = dx * dx + dy * dy;
        (w * w * dy * dy + h * h * dx * dx) / (24.0 * rho_sq * rho_sq.sqrt())
    }
}

/// A [`DwellPiece`] as an integrable [`Field`] of `T(q)` over one
/// integration window ([`DwellPiece::field`]).
pub struct PieceField<'a> {
    piece: &'a DwellPiece,
    pre: Option<LegView<'a>>,
    suc: Option<LegView<'a>>,
}

impl<'a> PieceField<'a> {
    /// The piece's legs over this window: the predecessor's, then the
    /// successor's, each when the piece has one.
    pub fn legs(&self) -> impl Iterator<Item = &LegView<'a>> {
        self.pre.iter().chain(self.suc.iter())
    }

    /// `T(q)`; with `block = Some((w, h))`, less each active leg's
    /// [`LegView::bend`] over the `w × h` block centred at `q`, which
    /// makes it the block's second-order mean ([`Field::mean`]).
    fn time_at(&self, q: Point, block: Option<(f64, f64)>) -> f64 {
        let piece = self.piece;
        if piece.disk.is_some_and(|d| !d.contains(q)) {
            return 0.0;
        }
        let (mut from, mut to, mut bend) = (piece.a, piece.b, 0.0);
        if let Some(leg) = &self.pre {
            let Some(d) = leg.distance(q) else { return 0.0 };
            let t_in = leg.at + d / piece.vmax;
            if t_in > from {
                from = t_in;
                bend += block.map_or(0.0, |(w, h)| leg.bend(q, w, h) / piece.vmax);
            }
        }
        if let Some(leg) = &self.suc {
            let Some(d) = leg.distance(q) else { return 0.0 };
            let t_out = leg.at - d / piece.vmax;
            if t_out < to {
                to = t_out;
                bend += block.map_or(0.0, |(w, h)| leg.bend(q, w, h) / piece.vmax);
            }
        }
        (to - from - bend).max(0.0)
    }
}

impl Field for PieceField<'_> {
    fn value(&self, q: Point) -> f64 {
        self.time_at(q, None)
    }

    /// `T` falls as `t_in` rises and rises with `t_out`, so the distance
    /// bounds of the two legs give its range directly. A block is only
    /// reported inside the support where `T` is positive and neither clamp
    /// of `[max(a, t_in), min(b, t_out)]` switches inside it: across such
    /// a kink `T` is flat on one side, and the midpoint of its bounds
    /// would misprice the plateau (a pause in a POI through a long gap
    /// lost 0.7 s of 30 that way).
    ///
    /// There `T` is a constant less `|q − s| / V_max` for each leg whose
    /// clamp is active, so `quartic` is `Σ 1 / (V_max · ρ³)` over those
    /// legs, `ρ` the least distance from the block to the leg's single
    /// surviving source ([`LegBounds::source`]); infinite when such a leg
    /// has none.
    fn bounds(&self, b: &Mbr) -> FieldBounds {
        let piece = self.piece;
        let mut support = piece.disk.map_or(Some(true), |d| Region::classify(&d, b));
        let (mut from_lo, mut from_hi, mut to_lo, mut to_hi) = (piece.a, piece.a, piece.b, piece.b);
        let mut kinked = false;
        let mut quartic = 0.0;
        for (leg, entry) in [(&self.pre, true), (&self.suc, false)] {
            if support == Some(false) {
                break;
            }
            let Some(leg) = leg else { continue };
            let LegBounds { outside, lo, hi, source } = leg.bounds(b);
            support = all_of([support, outside]);
            let active = if entry {
                let (t_lo, t_hi) = (leg.at + lo / piece.vmax, leg.at + hi / piece.vmax);
                kinked |= t_lo < piece.a && piece.a < t_hi;
                from_lo = from_lo.max(t_lo);
                from_hi = from_hi.max(t_hi);
                t_hi > piece.a
            } else {
                let (t_lo, t_hi) = (leg.at - hi / piece.vmax, leg.at - lo / piece.vmax);
                kinked |= t_lo < piece.b && piece.b < t_hi;
                to_lo = to_lo.min(t_lo);
                to_hi = to_hi.min(t_hi);
                t_lo < piece.b
            };
            if active {
                quartic += source.map_or(f64::INFINITY, |(at, _)| {
                    let rho_sq = b.min_distance_sq(at);
                    1.0 / (piece.vmax * rho_sq * rho_sq.sqrt())
                });
            }
        }
        if support == Some(false) {
            return FieldBounds { support, lo: 0.0, hi: 0.0, quartic: f64::INFINITY };
        }
        let (lo, hi) = ((to_lo - from_hi).max(0.0), (to_hi - from_lo).max(0.0));
        if lo <= 0.0 || kinked {
            support = all_of([support, None]);
        }
        if support != Some(true) {
            quartic = f64::INFINITY;
        }
        FieldBounds { support, lo, hi, quartic }
    }

    fn mean(&self, c: Point, w: f64, h: f64) -> f64 {
        self.time_at(c, Some((w, h)))
    }

    fn mbr(&self) -> Mbr {
        self.piece.mbr
    }
}
