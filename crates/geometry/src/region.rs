//! Composable point-set regions.
//!
//! Uncertainty regions in the paper are intersections and unions of circles,
//! rings, and extended ellipses, further constrained by indoor topology. No
//! closed-form area exists for these composites, so regions are modelled as
//! *predicates with a bounding box*: a [`Region`] answers membership queries
//! and exposes an MBR, and the integrator in [`crate::area`] measures
//! intersection areas numerically.
//!
//! A region may also *classify* whole rectangles ([`Region::classify`]):
//! prove that every point of a block is in, or that none is. The
//! integrator settles such blocks without probing them. Verdicts are
//! three-valued (`Some(true)`, `Some(false)`, `None` = cannot tell) and
//! combine with [`all_of`] / [`any_of`]; every threshold comparison
//! behind one carries a relative slack of `1e-10`
//! ([`classify_at_most`]), so float rounding can only turn a verdict
//! into `None`, never into a wrong answer.
//!
//! A region built from parts can also say which of them a block left
//! open ([`Region::classify_live`]): the parts a verdict proved stay
//! proven for every block and probe below it ([`Live`]), so those test
//! only the rest ([`Region::contains_live`]).

use crate::circle::Circle;
use crate::ellipse::ExtendedEllipse;
use crate::mbr::Mbr;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::ring::Ring;
use crate::EPS;

/// A (possibly unbounded-in-shape, but MBR-bounded) point set in the plane.
///
/// Implementations must guarantee that every point with `contains(p) == true`
/// lies within `mbr()`; the integrator and the index structures rely on it.
pub trait Region {
    /// Whether `p` belongs to the region.
    fn contains(&self, p: Point) -> bool;

    /// A rectangle containing the whole region (need not be tight).
    fn mbr(&self) -> Mbr;

    /// Cheap emptiness check; `true` means certainly empty, `false` means
    /// possibly non-empty.
    fn is_empty_hint(&self) -> bool {
        self.mbr().is_empty()
    }

    /// Classifies the closed rectangle `b`: `Some(true)` when every point
    /// of `b` is in the region, `Some(false)` when none is, `None` when
    /// the region cannot tell. A verdict must agree with
    /// [`Region::contains`] at every point of `b`; `None` is always
    /// sound, and is the default.
    fn classify(&self, _b: &Mbr) -> Option<bool> {
        None
    }

    /// [`Region::classify`] of a block inside one whose verdict left
    /// `live` open: only the live parts are classified, and
    /// [`Verdict::Open`] carries the parts still live over `b`. Every
    /// point of `b` then tests the same under [`Region::contains_live`]
    /// with that set as under [`Region::contains`], and so does every
    /// point of a block inside `b`, classified with it in turn. With
    /// [`Live::ALL`] it is `classify`. A region without parts keeps the
    /// default, which forwards to `classify`.
    fn classify_live(&self, b: &Mbr, live: Live) -> Verdict {
        Verdict::of(self.classify(b), live)
    }

    /// [`Region::contains`] at a point of a block whose verdict left
    /// `live` open: only the live parts are tested. With [`Live::ALL`]
    /// it is `contains`; the default forwards to it.
    fn contains_live(&self, p: Point, _live: Live) -> bool {
        self.contains(p)
    }
}

/// The parts of a region a block verdict left unproven, one bit per
/// part in an order the region defines. A clear bit marks a part proven
/// over a block that holds everything below it: proven in, or proven out
/// together with the group of parts it belongs to, which the region then
/// reads as dead. Parts numbered [`Live::CAPACITY`] or higher have no
/// bit and are always live, so they are classified and tested every
/// time. A plain word, so carrying it down a quadtree allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Live(u64);

impl Live {
    /// Parts with a bit of their own.
    pub const CAPACITY: usize = u64::BITS as usize;
    /// Every part live: nothing proven yet.
    pub const ALL: Live = Live(u64::MAX);

    /// Whether `part` is still live; always so past the capacity.
    pub fn has(self, part: usize) -> bool {
        part >= Live::CAPACITY || self.0 >> part & 1 == 1
    }

    /// The set with `part` proven; unchanged past the capacity.
    #[must_use]
    pub fn without(self, part: usize) -> Live {
        if part < Live::CAPACITY {
            Live(self.0 & !(1 << part))
        } else {
            self
        }
    }
}

/// A block verdict that also says what it left open below the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every point of the block is in the region.
    In,
    /// No point of the block is.
    Out,
    /// The region cannot tell; the parts still live over the block.
    Open(Live),
}

impl Verdict {
    /// A three-valued verdict that proves no part: `None` leaves `live`
    /// open.
    pub fn of(verdict: Option<bool>, live: Live) -> Verdict {
        match verdict {
            Some(true) => Verdict::In,
            Some(false) => Verdict::Out,
            None => Verdict::Open(live),
        }
    }

    /// The verdict as [`Region::classify`] gives it.
    pub fn settled(self) -> Option<bool> {
        match self {
            Verdict::In => Some(true),
            Verdict::Out => Some(false),
            Verdict::Open(_) => None,
        }
    }
}

/// The slack a [`Region::classify`] threshold comparison carries:
/// `1e-10 · (1 + |thr|)`, far above the rounding error of the distances
/// compared against `thr` and far below any meaningful length.
fn threshold_slack(thr: f64) -> f64 {
    1e-10 * (1.0 + thr.abs())
}

/// Three-valued verdict on `x <= thr` for every `x` in `[lo, hi]`, with
/// [`threshold_slack`] on both sides. Negate it for `x > thr`.
pub fn classify_at_most(lo: f64, hi: f64, thr: f64) -> Option<bool> {
    let slack = threshold_slack(thr);
    if hi <= thr - slack {
        Some(true)
    } else if lo > thr + slack {
        Some(false)
    } else {
        None
    }
}

/// Three-valued AND: `Some(false)` as soon as one verdict is, `Some(true)`
/// when all are, `None` otherwise. Stops at the first `Some(false)`, so
/// pass a lazy iterator when later verdicts are costly.
pub fn all_of(verdicts: impl IntoIterator<Item = Option<bool>>) -> Option<bool> {
    let mut all = true;
    for v in verdicts {
        match v {
            Some(false) => return Some(false),
            Some(true) => {}
            None => all = false,
        }
    }
    all.then_some(true)
}

/// Three-valued OR: `Some(true)` as soon as one verdict is, `Some(false)`
/// when all are, `None` otherwise.
pub fn any_of(verdicts: impl IntoIterator<Item = Option<bool>>) -> Option<bool> {
    let mut none = true;
    for v in verdicts {
        match v {
            Some(true) => return Some(true),
            Some(false) => {}
            None => none = false,
        }
    }
    none.then_some(false)
}

/// Verdict of `guard.contains(p) && part.contains(p)` over `b`; the part
/// is only classified when the guard MBR does not already rule `b` out.
fn classify_guarded(guard: &Mbr, part: &(impl Region + ?Sized), b: &Mbr) -> Option<bool> {
    match guard.classify(b) {
        Some(false) => Some(false),
        g => all_of([g, part.classify(b)]),
    }
}

/// Verdict of "in `m` grown by `tol`" over `b`. `Some(true)` needs `b`
/// strictly inside `m` itself, so it holds for boundary-exclusive tests
/// of `m` as well.
fn rect_verdict(m: &Mbr, b: &Mbr, tol: f64) -> Option<bool> {
    if m.is_empty() {
        return Some(false);
    }
    let (lo, hi) = (m.lo, m.hi);
    let inside = |blo: f64, bhi: f64, lo: f64, hi: f64| {
        blo > lo + threshold_slack(lo) && bhi < hi - threshold_slack(hi)
    };
    let apart = |blo: f64, bhi: f64, lo: f64, hi: f64| {
        bhi < lo - tol - threshold_slack(lo) || blo > hi + tol + threshold_slack(hi)
    };
    if inside(b.lo.x, b.hi.x, lo.x, hi.x) && inside(b.lo.y, b.hi.y, lo.y, hi.y) {
        Some(true)
    } else if apart(b.lo.x, b.hi.x, lo.x, hi.x) || apart(b.lo.y, b.hi.y, lo.y, hi.y) {
        Some(false)
    } else {
        None
    }
}

/// A heap-allocated, thread-safe region — the common currency of the
/// uncertainty-analysis code.
pub type BoxedRegion = Box<dyn Region + Send + Sync>;

impl Region for Circle {
    fn contains(&self, p: Point) -> bool {
        Circle::contains(self, p)
    }
    fn mbr(&self) -> Mbr {
        Circle::mbr(self)
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        let (lo, hi) = (b.min_distance_sq(self.center), b.max_distance_sq(self.center));
        classify_at_most(lo, hi, self.radius * self.radius + EPS)
    }
}

impl Region for Ring {
    fn contains(&self, p: Point) -> bool {
        Ring::contains(self, p)
    }
    fn mbr(&self) -> Mbr {
        Ring::mbr(self)
    }
    fn is_empty_hint(&self) -> bool {
        self.is_empty()
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        if self.is_empty() {
            return Some(false);
        }
        let c = self.inner.center;
        let (lo, hi) = (b.min_distance_sq(c), b.max_distance_sq(c));
        let r_in = self.inner.radius;
        let r_out = r_in + self.extension;
        all_of([
            classify_at_most(lo, hi, r_in * r_in - EPS).map(|v| !v),
            classify_at_most(lo, hi, r_out * r_out + EPS),
        ])
    }
}

impl Region for ExtendedEllipse {
    fn contains(&self, p: Point) -> bool {
        ExtendedEllipse::contains(self, p)
    }
    fn mbr(&self) -> Mbr {
        ExtendedEllipse::mbr(self)
    }
    fn is_empty_hint(&self) -> bool {
        self.is_empty()
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        if self.budget < -EPS {
            return Some(false);
        }
        let (lo_from, hi_from) = self.from.boundary_distance_bounds(b);
        let (lo_to, hi_to) = self.to.boundary_distance_bounds(b);
        classify_at_most(lo_from + lo_to, hi_from + hi_to, self.budget + EPS)
    }
}

impl Region for Polygon {
    fn contains(&self, p: Point) -> bool {
        Polygon::contains(self, p)
    }
    fn mbr(&self) -> Mbr {
        Polygon::mbr(self)
    }
    /// Rectangles only. Blocks touching an edge stay `None`: the verdicts
    /// hold for [`Polygon::contains`] and [`Polygon::contains_fast`] alike,
    /// and the two differ on the boundary. The grid integrator still
    /// settles a block along an edge of an axis-rectangle POI: it judges
    /// the block inset by its padding once the region is proven over it,
    /// and gives the cells on the edge the values `contains_fast`'s
    /// half-open rule implies (see [`crate::area`]).
    fn classify(&self, b: &Mbr) -> Option<bool> {
        if self.is_axis_rectangle() {
            rect_verdict(&Polygon::mbr(self), b, EPS)
        } else {
            None
        }
    }
}

impl Region for Mbr {
    fn contains(&self, p: Point) -> bool {
        Mbr::contains(self, p)
    }
    fn mbr(&self) -> Mbr {
        *self
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        rect_verdict(self, b, 0.0)
    }
}

impl<R: Region + ?Sized> Region for Box<R> {
    fn contains(&self, p: Point) -> bool {
        (**self).contains(p)
    }
    fn mbr(&self) -> Mbr {
        (**self).mbr()
    }
    fn is_empty_hint(&self) -> bool {
        (**self).is_empty_hint()
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        (**self).classify(b)
    }
    fn classify_live(&self, b: &Mbr, live: Live) -> Verdict {
        (**self).classify_live(b, live)
    }
    fn contains_live(&self, p: Point, live: Live) -> bool {
        (**self).contains_live(p, live)
    }
}

impl<R: Region + ?Sized> Region for &R {
    fn contains(&self, p: Point) -> bool {
        (**self).contains(p)
    }
    fn mbr(&self) -> Mbr {
        (**self).mbr()
    }
    fn is_empty_hint(&self) -> bool {
        (**self).is_empty_hint()
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        (**self).classify(b)
    }
    fn classify_live(&self, b: &Mbr, live: Live) -> Verdict {
        (**self).classify_live(b, live)
    }
    fn contains_live(&self, p: Point, live: Live) -> bool {
        (**self).contains_live(p, live)
    }
}

/// The region containing no points.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyRegion;

impl Region for EmptyRegion {
    fn contains(&self, _: Point) -> bool {
        false
    }
    fn mbr(&self) -> Mbr {
        Mbr::EMPTY
    }
    fn is_empty_hint(&self) -> bool {
        true
    }
    fn classify(&self, _b: &Mbr) -> Option<bool> {
        Some(false)
    }
}

/// Intersection of several regions: membership in all of them. The MBR is
/// the intersection of the member MBRs.
pub struct RegionIntersection {
    parts: Vec<BoxedRegion>,
    mbr: Mbr,
}

impl RegionIntersection {
    /// Builds the intersection of `parts`. An empty list gets the `EMPTY`
    /// MBR, which `contains` checks first, so it is the empty region —
    /// callers should supply at least one part.
    pub fn new(parts: Vec<BoxedRegion>) -> RegionIntersection {
        let mbr =
            parts.iter().map(|r| r.mbr()).reduce(|a, b| a.intersection(&b)).unwrap_or(Mbr::EMPTY);
        RegionIntersection { parts, mbr }
    }

    /// Convenience constructor for the common two-part case
    /// (e.g. `Ring ∩ Ring` in the inactive snapshot UR).
    pub fn of(
        a: impl Region + Send + Sync + 'static,
        b: impl Region + Send + Sync + 'static,
    ) -> RegionIntersection {
        RegionIntersection::new(vec![Box::new(a), Box::new(b)])
    }
}

impl Region for RegionIntersection {
    fn contains(&self, p: Point) -> bool {
        self.mbr.contains(p) && self.parts.iter().all(|r| r.contains(p))
    }
    fn mbr(&self) -> Mbr {
        self.mbr
    }
    fn is_empty_hint(&self) -> bool {
        self.mbr.is_empty() || self.parts.iter().any(|r| r.is_empty_hint())
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        let guard = std::iter::once(self.mbr.classify(b));
        all_of(guard.chain(self.parts.iter().map(|r| r.classify(b))))
    }
}

/// Union of several regions: membership in at least one. The MBR is the
/// union of the member MBRs.
///
/// Interval uncertainty regions are unions of up to hundreds of segments
/// (disks and ellipses along a trajectory), and the integrator probes
/// membership thousands of times per presence computation, so each part's
/// MBR is cached and checked before the (potentially expensive,
/// topology-aware) part predicate runs.
pub struct RegionUnion {
    parts: Vec<(Mbr, BoxedRegion)>,
    mbr: Mbr,
}

impl RegionUnion {
    /// Builds the union of `parts`; empty parts are harmless.
    pub fn new(parts: Vec<BoxedRegion>) -> RegionUnion {
        let parts: Vec<(Mbr, BoxedRegion)> = parts.into_iter().map(|r| (r.mbr(), r)).collect();
        let mbr = parts.iter().fold(Mbr::EMPTY, |m, (pm, _)| m.union(pm));
        RegionUnion { parts, mbr }
    }

    /// The member regions.
    pub fn parts(&self) -> impl Iterator<Item = &BoxedRegion> + '_ {
        self.parts.iter().map(|(_, r)| r)
    }
}

impl Region for RegionUnion {
    fn contains(&self, p: Point) -> bool {
        self.mbr.contains(p) && self.parts.iter().any(|(pm, r)| pm.contains(p) && r.contains(p))
    }
    fn mbr(&self) -> Mbr {
        self.mbr
    }
    fn is_empty_hint(&self) -> bool {
        self.parts.iter().all(|(_, r)| r.is_empty_hint())
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        match self.mbr.classify(b) {
            Some(false) => Some(false),
            g => all_of([g, any_of(self.parts.iter().map(|(pm, r)| classify_guarded(pm, r, b)))]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn intersection_of_overlapping_disks() {
        let i = RegionIntersection::of(disk(0.0, 0.0, 2.0), disk(2.0, 0.0, 2.0));
        assert!(i.contains(Point::new(1.0, 0.0)));
        assert!(!i.contains(Point::new(-1.0, 0.0)));
        assert!(!i.contains(Point::new(3.5, 0.0)));
        assert!(!i.is_empty_hint());
    }

    #[test]
    fn intersection_of_disjoint_disks_is_empty_by_mbr() {
        let i = RegionIntersection::of(disk(0.0, 0.0, 1.0), disk(10.0, 0.0, 1.0));
        assert!(i.is_empty_hint());
        assert!(!i.contains(Point::new(5.0, 0.0)));
    }

    #[test]
    fn union_membership_and_mbr() {
        let u =
            RegionUnion::new(vec![Box::new(disk(0.0, 0.0, 1.0)), Box::new(disk(10.0, 0.0, 1.0))]);
        assert!(u.contains(Point::new(0.5, 0.0)));
        assert!(u.contains(Point::new(10.5, 0.0)));
        assert!(!u.contains(Point::new(5.0, 0.0)));
        assert!(u.mbr().contains(Point::new(11.0, 0.0)));
    }

    #[test]
    fn empty_region_contains_nothing() {
        assert!(!EmptyRegion.contains(Point::new(0.0, 0.0)));
        assert!(EmptyRegion.is_empty_hint());
    }

    #[test]
    fn mbr_invariant_holds_for_composites() {
        let u = RegionUnion::new(vec![
            Box::new(disk(1.0, 1.0, 0.5)),
            Box::new(Ring::new(disk(4.0, 1.0, 0.5), 1.0)),
        ]);
        let m = u.mbr();
        for i in 0..200 {
            for j in 0..60 {
                let p = Point::new(i as f64 * 0.05 - 1.0, j as f64 * 0.1 - 1.0);
                if u.contains(p) {
                    assert!(m.contains(p));
                }
            }
        }
    }
}
