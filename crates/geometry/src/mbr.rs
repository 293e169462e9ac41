//! Minimum bounding rectangles (axis-aligned).

use crate::point::Point;

/// An axis-aligned minimum bounding rectangle.
///
/// `Mbr` is the workhorse of the index structures: every region exposes one,
/// the R-trees store them, and the join algorithms prune with them. An `Mbr`
/// may be *empty* (`lo > hi` on some axis), which all operations treat as the
/// neutral element for union and the absorbing element for intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    pub lo: Point,
    pub hi: Point,
}

impl Mbr {
    /// The canonical empty MBR.
    pub const EMPTY: Mbr = Mbr {
        lo: Point::new(f64::INFINITY, f64::INFINITY),
        hi: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// Builds an MBR from two corner points given in any order.
    pub fn new(a: Point, b: Point) -> Mbr {
        Mbr {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Builds an MBR from explicit bounds. Callers must ensure `lo <= hi`
    /// component-wise unless an empty MBR is intended.
    pub const fn from_bounds(lo: Point, hi: Point) -> Mbr {
        Mbr { lo, hi }
    }

    /// The tightest MBR enclosing all `points`; empty for an empty slice.
    pub fn from_points(points: &[Point]) -> Mbr {
        points.iter().fold(Mbr::EMPTY, |m, &p| m.extended(p))
    }

    /// Whether this MBR contains no points.
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y
    }

    /// Width along the x axis (zero for empty MBRs).
    pub fn width(&self) -> f64 {
        (self.hi.x - self.lo.x).max(0.0)
    }

    /// Height along the y axis (zero for empty MBRs).
    pub fn height(&self) -> f64 {
        (self.hi.y - self.lo.y).max(0.0)
    }

    /// Area of the rectangle (zero for empty MBRs).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half of the perimeter; a common R-tree split heuristic metric.
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Centre point. Meaningless for empty MBRs.
    pub fn center(&self) -> Point {
        self.lo.midpoint(self.hi)
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        if other.is_empty() {
            return true;
        }
        !self.is_empty()
            && self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && self.hi.x >= other.hi.x
            && self.hi.y >= other.hi.y
    }

    /// Whether the non-empty `other` lies in the open interior of `self`,
    /// clear of all four sides.
    pub fn contains_strictly(&self, other: &Mbr) -> bool {
        self.lo.x < other.lo.x
            && other.hi.x < self.hi.x
            && self.lo.y < other.lo.y
            && other.hi.y < self.hi.y
    }

    /// Whether the two rectangles share at least one point (closed-set
    /// semantics: touching boundaries intersect).
    pub fn intersects(&self, other: &Mbr) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// The intersection rectangle (empty when disjoint).
    pub fn intersection(&self, other: &Mbr) -> Mbr {
        let m = Mbr {
            lo: Point::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        };
        if m.is_empty() {
            Mbr::EMPTY
        } else {
            m
        }
    }

    /// The smallest MBR containing both rectangles.
    pub fn union(&self, other: &Mbr) -> Mbr {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Mbr {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// The smallest MBR containing both `self` and `p`.
    pub fn extended(&self, p: Point) -> Mbr {
        if self.is_empty() {
            return Mbr { lo: p, hi: p };
        }
        Mbr {
            lo: Point::new(self.lo.x.min(p.x), self.lo.y.min(p.y)),
            hi: Point::new(self.hi.x.max(p.x), self.hi.y.max(p.y)),
        }
    }

    /// The rectangle grown by `margin` on every side.
    ///
    /// The join algorithms use this to extend a device's detection-range MBR
    /// by the maximum distance an object can have moved (Algorithm 2,
    /// lines 6–7). A negative margin shrinks the rectangle and may empty it.
    pub fn expanded(&self, margin: f64) -> Mbr {
        if self.is_empty() {
            return Mbr::EMPTY;
        }
        let m = Mbr {
            lo: Point::new(self.lo.x - margin, self.lo.y - margin),
            hi: Point::new(self.hi.x + margin, self.hi.y + margin),
        };
        if m.is_empty() {
            Mbr::EMPTY
        } else {
            m
        }
    }

    /// Growth in area needed to include `other`; the classic R-tree
    /// insertion heuristic.
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Minimum distance from `p` to any point of the rectangle (0 inside).
    pub fn min_distance(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared minimum distance from `p` to any point of the rectangle
    /// (0 inside; infinite for empty MBRs).
    pub fn min_distance_sq(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        dx * dx + dy * dy
    }

    /// Squared maximum distance from `p` to any point of the rectangle
    /// (the farthest corner; 0 for empty MBRs).
    pub fn max_distance_sq(&self, p: Point) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let dx = (p.x - self.lo.x).abs().max((self.hi.x - p.x).abs());
        let dy = (p.y - self.lo.y).abs().max((self.hi.y - p.y).abs());
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbr(x0: f64, y0: f64, x1: f64, y1: f64) -> Mbr {
        Mbr::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn empty_behaves_as_neutral_element() {
        let a = mbr(0.0, 0.0, 2.0, 2.0);
        assert!(Mbr::EMPTY.is_empty());
        assert_eq!(Mbr::EMPTY.union(&a), a);
        assert_eq!(a.union(&Mbr::EMPTY), a);
        assert!(a.intersection(&Mbr::EMPTY).is_empty());
        assert!(!a.intersects(&Mbr::EMPTY));
        assert_eq!(Mbr::EMPTY.area(), 0.0);
    }

    #[test]
    fn new_normalizes_corner_order() {
        let a = Mbr::new(Point::new(2.0, 3.0), Point::new(-1.0, 1.0));
        assert_eq!(a, mbr(-1.0, 1.0, 2.0, 3.0));
    }

    #[test]
    fn intersection_and_union() {
        let a = mbr(0.0, 0.0, 4.0, 4.0);
        let b = mbr(2.0, 2.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), mbr(2.0, 2.0, 4.0, 4.0));
        assert_eq!(a.union(&b), mbr(0.0, 0.0, 6.0, 6.0));

        let c = mbr(5.0, 5.0, 7.0, 7.0);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn touching_boundaries_intersect() {
        let a = mbr(0.0, 0.0, 1.0, 1.0);
        let b = mbr(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b).area(), 0.0);
    }

    #[test]
    fn expanded_grows_each_side() {
        let a = mbr(1.0, 1.0, 2.0, 2.0);
        assert_eq!(a.expanded(0.5), mbr(0.5, 0.5, 2.5, 2.5));
        assert!(a.expanded(-1.0).is_empty());
    }

    #[test]
    fn containment() {
        let a = mbr(0.0, 0.0, 4.0, 4.0);
        assert!(a.contains(Point::new(0.0, 0.0)));
        assert!(a.contains(Point::new(4.0, 4.0)));
        assert!(!a.contains(Point::new(4.1, 0.0)));
        assert!(a.contains_mbr(&mbr(1.0, 1.0, 2.0, 2.0)));
        assert!(!a.contains_mbr(&mbr(1.0, 1.0, 5.0, 2.0)));
        assert!(a.contains_mbr(&Mbr::EMPTY));
    }

    #[test]
    fn min_distance_cases() {
        let a = mbr(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_distance(Point::new(1.0, 1.0)), 0.0);
        assert!((a.min_distance(Point::new(5.0, 2.0)) - 3.0).abs() < 1e-12);
        assert!((a.min_distance(Point::new(5.0, 6.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn squared_distance_bounds() {
        let a = mbr(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_distance_sq(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.max_distance_sq(Point::new(1.0, 1.0)), 2.0);
        assert_eq!(a.min_distance_sq(Point::new(5.0, 6.0)), 25.0);
        assert_eq!(a.max_distance_sq(Point::new(5.0, 6.0)), 61.0);
        assert_eq!(Mbr::EMPTY.min_distance_sq(Point::new(0.0, 0.0)), f64::INFINITY);
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 0.5), Point::new(3.0, 2.0)];
        let m = Mbr::from_points(&pts);
        for p in pts {
            assert!(m.contains(p));
        }
        assert_eq!(m, mbr(-2.0, 0.5, 3.0, 5.0));
    }

    #[test]
    fn enlargement_metric() {
        let a = mbr(0.0, 0.0, 2.0, 2.0);
        let b = mbr(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.enlargement(&b), 4.0);
        assert_eq!(b.enlargement(&a), 0.0);
    }

    #[test]
    fn union_and_intersection_are_commutative() {
        let a = mbr(0.0, 0.0, 3.0, 3.0);
        let b = mbr(1.0, -1.0, 2.0, 5.0);
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.intersection(&b), b.intersection(&a));
    }

    #[test]
    fn margin_and_center() {
        let a = mbr(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.margin(), 6.0);
        assert_eq!(a.center(), Point::new(2.0, 1.0));
        assert_eq!(Mbr::EMPTY.margin(), 0.0);
    }

    #[test]
    fn expanded_empty_stays_empty() {
        assert!(Mbr::EMPTY.expanded(5.0).is_empty());
    }
}
