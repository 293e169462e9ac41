//! Circles (proximity-detection ranges) and exact circle intersection areas.

use crate::mbr::Mbr;
use crate::point::{Point, Vec2};
use crate::polygon::Polygon;
use crate::EPS;

/// A closed disk: the detection range of a proximity-detection device
/// (RFID reader, Bluetooth radio) in the paper's model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    pub center: Point,
    pub radius: f64,
}

impl Circle {
    /// Creates a circle. The radius must be non-negative and finite.
    pub fn new(center: Point, radius: f64) -> Circle {
        debug_assert!(radius >= 0.0 && radius.is_finite(), "invalid radius {radius}");
        Circle { center, radius }
    }

    /// Whether `p` lies inside or on the circle.
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius + EPS
    }

    /// Distance from `p` to the disk boundary measured from outside:
    /// zero for points inside the disk.
    ///
    /// This is the `max(0, |p − c| − r)` term of the extended-ellipse
    /// membership test.
    pub fn boundary_distance(&self, p: Point) -> f64 {
        (self.center.distance(p) - self.radius).max(0.0)
    }

    /// Lower and upper bounds of [`Circle::boundary_distance`] over the
    /// rectangle `b`, from its nearest and farthest points to the centre.
    pub fn boundary_distance_bounds(&self, b: &Mbr) -> (f64, f64) {
        let lo = b.min_distance_sq(self.center).sqrt() - self.radius;
        let hi = b.max_distance_sq(self.center).sqrt() - self.radius;
        (lo.max(0.0), hi.max(0.0))
    }

    /// Exact disk area.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Tight bounding rectangle.
    pub fn mbr(&self) -> Mbr {
        let r = Vec2::new(self.radius, self.radius);
        Mbr::from_bounds(self.center - r, self.center + r)
    }

    /// Whether the two disks share at least one point.
    pub fn intersects(&self, other: &Circle) -> bool {
        let rr = self.radius + other.radius;
        self.center.distance_sq(other.center) <= rr * rr + EPS
    }
}

/// Exact area of the intersection of two disks (the classic lens formula).
pub fn circle_circle_intersection_area(c1: &Circle, c2: &Circle) -> f64 {
    let d = c1.center.distance(c2.center);
    let (r1, r2) = (c1.radius, c2.radius);
    if d >= r1 + r2 {
        return 0.0;
    }
    if d <= (r1 - r2).abs() {
        let r = r1.min(r2);
        return std::f64::consts::PI * r * r;
    }
    let a1 = ((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0).acos();
    let a2 = ((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0).acos();
    let k = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2);
    r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * k.max(0.0).sqrt()
}

/// Exact area of the intersection of a disk and a simple polygon.
///
/// Decomposes the polygon into signed triangles fanned from the circle
/// centre; each triangle's intersection with the disk has a closed form
/// combining straight (triangle) and circular-sector pieces. The result is
/// orientation-independent.
///
/// This routine serves as the analytic ground truth for validating the
/// adaptive-grid integrator; no query path calls it.
pub fn circle_polygon_area(circle: &Circle, polygon: &Polygon) -> f64 {
    if circle.radius <= EPS {
        return 0.0;
    }
    let o = circle.center;
    let r = circle.radius;
    let verts = polygon.vertices();
    let mut total = 0.0;
    for i in 0..verts.len() {
        let p1 = verts[i] - o;
        let p2 = verts[(i + 1) % verts.len()] - o;
        total += triangle_disk_area(p1, p2, r);
    }
    total.abs()
}

/// Signed area of `triangle(origin, p1, p2) ∩ disk(origin, r)`.
///
/// `p1` and `p2` are given relative to the disk centre. The sign follows the
/// orientation of `(p1, p2)` as seen from the origin.
fn triangle_disk_area(p1: Vec2, p2: Vec2, r: f64) -> f64 {
    let tri = |a: Vec2, b: Vec2| 0.5 * a.cross(b);
    let arc = |a: Vec2, b: Vec2| 0.5 * r * r * a.cross(b).atan2(a.dot(b));

    let in1 = p1.norm_sq() <= r * r;
    let in2 = p2.norm_sq() <= r * r;
    if in1 && in2 {
        return tri(p1, p2);
    }

    // Segment p(t) = p1 + t·d, t ∈ [0, 1]; solve |p(t)|² = r².
    let d = p2 - p1;
    let a = d.norm_sq();
    if a <= EPS * EPS {
        // Degenerate edge: zero-width triangle.
        return 0.0;
    }
    let b = 2.0 * p1.dot(d);
    let c = p1.norm_sq() - r * r;
    let disc = b * b - 4.0 * a * c;

    if in1 {
        // Exits the disk at the larger root.
        let t = (-b + disc.max(0.0).sqrt()) / (2.0 * a);
        let q = p1 + d * t.clamp(0.0, 1.0);
        return tri(p1, q) + arc(q, p2);
    }
    if in2 {
        // Enters the disk at the smaller root.
        let t = (-b - disc.max(0.0).sqrt()) / (2.0 * a);
        let q = p1 + d * t.clamp(0.0, 1.0);
        return arc(p1, q) + tri(q, p2);
    }

    // Both endpoints outside: the chord may still pass through the disk.
    if disc > 0.0 {
        let sq = disc.sqrt();
        let t1 = (-b - sq) / (2.0 * a);
        let t2 = (-b + sq) / (2.0 * a);
        if t1 > 0.0 && t2 < 1.0 && t1 < t2 {
            let q1 = p1 + d * t1;
            let q2 = p1 + d * t2;
            return arc(p1, q1) + tri(q1, q2) + arc(q2, p2);
        }
    }
    arc(p1, p2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn unit_square() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    #[test]
    fn contains_and_boundary_distance() {
        let c = Circle::new(Point::new(0.0, 0.0), 2.0);
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert!(c.contains(Point::new(2.0, 0.0)));
        assert!(!c.contains(Point::new(2.1, 0.0)));
        assert_eq!(c.boundary_distance(Point::new(1.0, 0.0)), 0.0);
        assert!((c.boundary_distance(Point::new(5.0, 0.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lens_area_limit_cases() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        // Disjoint.
        let b = Circle::new(Point::new(3.0, 0.0), 1.0);
        assert_eq!(circle_circle_intersection_area(&a, &b), 0.0);
        // Contained.
        let c = Circle::new(Point::new(0.1, 0.0), 0.5);
        assert!((circle_circle_intersection_area(&a, &c) - PI * 0.25).abs() < 1e-12);
        // Identical.
        assert!((circle_circle_intersection_area(&a, &a) - PI).abs() < 1e-12);
    }

    #[test]
    fn lens_area_half_overlap_is_symmetric() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let b = Circle::new(Point::new(1.0, 0.0), 1.0);
        let area = circle_circle_intersection_area(&a, &b);
        let expected = 2.0 * (PI / 3.0 - (3.0f64).sqrt() / 4.0); // known value for d = r
        assert!((area - expected).abs() < 1e-12);
        assert_eq!(area, circle_circle_intersection_area(&b, &a));
    }

    #[test]
    fn polygon_inside_disk_gives_polygon_area() {
        let c = Circle::new(Point::new(0.5, 0.5), 10.0);
        let area = circle_polygon_area(&c, &unit_square());
        assert!((area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disk_inside_polygon_gives_disk_area() {
        let c = Circle::new(Point::new(0.5, 0.5), 0.25);
        let area = circle_polygon_area(&c, &unit_square());
        assert!((area - PI * 0.0625).abs() < 1e-12);
    }

    #[test]
    fn disjoint_disk_and_polygon_give_zero() {
        let c = Circle::new(Point::new(10.0, 10.0), 1.0);
        assert!(circle_polygon_area(&c, &unit_square()).abs() < 1e-12);
    }

    #[test]
    fn quarter_disk_at_square_corner() {
        // Circle centred exactly on the square's corner: exactly one quarter
        // of the (small) disk lies inside.
        let c = Circle::new(Point::new(0.0, 0.0), 0.5);
        let area = circle_polygon_area(&c, &unit_square());
        assert!((area - PI * 0.25 * 0.25).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn half_disk_on_square_edge() {
        let c = Circle::new(Point::new(0.5, 0.0), 0.25);
        let area = circle_polygon_area(&c, &unit_square());
        assert!((area - PI * 0.0625 / 2.0).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn orientation_independent() {
        let c = Circle::new(Point::new(0.3, 0.4), 0.6);
        let ccw = unit_square();
        let cw = Polygon::new(ccw.vertices().iter().rev().copied().collect()).unwrap();
        let a1 = circle_polygon_area(&c, &ccw);
        let a2 = circle_polygon_area(&c, &cw);
        assert!((a1 - a2).abs() < 1e-12);
    }

    #[test]
    fn chord_through_polygon_without_vertices_inside() {
        // Thin horizontal strip crossed by a large disk: both strip corners on
        // each vertical edge are outside the disk but the chord passes through.
        let strip = Polygon::rectangle(Point::new(-10.0, -0.1), Point::new(10.0, 0.1));
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let area = circle_polygon_area(&c, &strip);
        // Nearly a 2 × 0.2 rectangle (chord length ≈ 2r for small height).
        assert!(area > 0.35 && area < 0.4, "got {area}");
    }

    #[test]
    fn zero_radius_circle_has_zero_intersection() {
        let c = Circle::new(Point::new(0.5, 0.5), 0.0);
        assert_eq!(circle_polygon_area(&c, &unit_square()), 0.0);
    }
}
