//! Simple polygons: POI extents, room footprints, and obstacle outlines.

use crate::mbr::Mbr;
use crate::point::{Point, Vec2};
use crate::segment::Segment;
use crate::EPS;

/// A simple (non-self-intersecting) polygon with at least three vertices.
///
/// Vertices are stored in counter-clockwise order regardless of the order
/// they were supplied in; construction rejects degenerate (zero-area) vertex
/// lists. The polygon is closed implicitly: the last vertex connects back to
/// the first.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
    mbr: Mbr,
    area: f64,
    axis_rectangle: bool,
}

/// Errors raised when constructing a [`Polygon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices were supplied.
    TooFewVertices,
    /// The vertices are collinear or coincident (zero area).
    DegenerateArea,
    /// A vertex coordinate was NaN or infinite.
    NonFiniteVertex,
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "polygon needs at least 3 vertices"),
            PolygonError::DegenerateArea => write!(f, "polygon has (near-)zero area"),
            PolygonError::NonFiniteVertex => write!(f, "polygon vertex is NaN or infinite"),
        }
    }
}

impl std::error::Error for PolygonError {}

impl Polygon {
    /// Builds a polygon from a vertex list given in either winding order.
    pub fn new(mut vertices: Vec<Point>) -> Result<Polygon, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        if vertices.iter().any(|p| !p.is_finite()) {
            return Err(PolygonError::NonFiniteVertex);
        }
        let signed = signed_area(&vertices);
        if signed.abs() <= EPS {
            return Err(PolygonError::DegenerateArea);
        }
        if signed < 0.0 {
            vertices.reverse();
        }
        let mbr = Mbr::from_points(&vertices);
        let area = signed.abs();
        let n = vertices.len();
        let axis_rectangle = n == 4
            && (0..n).all(|i| {
                let (a, b) = (vertices[i], vertices[(i + 1) % n]);
                a.x == b.x || a.y == b.y
            });
        Ok(Polygon { vertices, mbr, area, axis_rectangle })
    }

    /// Builds an axis-aligned rectangle from two opposite corners.
    pub fn rectangle(a: Point, b: Point) -> Polygon {
        let m = Mbr::new(a, b);
        assert!(m.width() > EPS && m.height() > EPS, "degenerate rectangle: {a} .. {b}");
        Polygon::new(vec![m.lo, Point::new(m.hi.x, m.lo.y), m.hi, Point::new(m.lo.x, m.hi.y)])
            .expect("rectangle is a valid polygon")
    }

    /// A regular `n`-gon approximating a circle; useful for tests and
    /// visual debugging.
    pub fn regular(center: Point, radius: f64, n: usize) -> Polygon {
        assert!(n >= 3, "regular polygon needs n >= 3");
        let verts = (0..n)
            .map(|i| {
                let ang = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                Point::new(center.x + radius * ang.cos(), center.y + radius * ang.sin())
            })
            .collect();
        Polygon::new(verts).expect("regular polygon is valid")
    }

    /// The vertices in counter-clockwise order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Exact polygon area (shoelace formula, cached at construction).
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Tight bounding rectangle (cached at construction).
    pub fn mbr(&self) -> Mbr {
        self.mbr
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Area centroid.
    pub fn centroid(&self) -> Point {
        let mut cx = 0.0;
        let mut cy = 0.0;
        let n = self.vertices.len();
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        let a6 = 6.0 * signed_area(&self.vertices);
        Point::new(cx / a6, cy / a6)
    }

    /// Iterates over the directed boundary edges.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Point-in-polygon test (boundary points count as inside).
    ///
    /// Standard even-odd ray casting with an explicit boundary check so the
    /// predicate is well-behaved for points exactly on edges — important when
    /// POIs tile a room and share walls.
    pub fn contains(&self, p: Point) -> bool {
        if !self.mbr.contains(p) {
            return false;
        }
        // Boundary check first.
        for e in self.edges() {
            if e.distance_to_point(p) <= EPS {
                return true;
            }
        }
        self.raycast(p)
    }

    /// Fast point-in-polygon test without the epsilon boundary pass.
    ///
    /// Boundary points may be classified either way; use this on hot paths
    /// where the boundary is measure-zero (area integration, point
    /// location), and [`Polygon::contains`] where boundary semantics
    /// matter.
    pub fn contains_fast(&self, p: Point) -> bool {
        self.mbr.contains(p) && self.raycast(p)
    }

    fn raycast(&self, p: Point) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let (vi, vj) = (self.vertices[i], self.vertices[j]);
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_int = vi.x + (p.y - vi.y) / (vj.y - vi.y) * (vj.x - vi.x);
                if p.x < x_int {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Whether the polygon is an axis-aligned rectangle: four vertices and
    /// every edge exactly parallel to an axis (cached at construction).
    /// Such a polygon coincides with its MBR.
    pub fn is_axis_rectangle(&self) -> bool {
        self.axis_rectangle
    }

    /// Whether the polygon is convex (all turns in the same direction).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        let mut sign = 0.0f64;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let c = self.vertices[(i + 2) % n];
            let cr = (b - a).cross(c - b);
            if cr.abs() <= EPS {
                continue;
            }
            if sign == 0.0 {
                sign = cr.signum();
            } else if cr.signum() != sign {
                return false;
            }
        }
        true
    }

    /// The polygon translated by `delta`.
    pub fn translated(&self, delta: Vec2) -> Polygon {
        Polygon::new(self.vertices.iter().map(|&p| p + delta).collect())
            .expect("translation preserves validity")
    }

    /// Clips this polygon against a *convex* clip polygon
    /// (Sutherland–Hodgman). Returns `None` when the intersection is empty
    /// or degenerate.
    ///
    /// Exact polygon–polygon intersection for the common rectangular-POI ∩
    /// rectangular-room case, and ground truth for integrator tests.
    pub fn clip_convex(&self, clip: &Polygon) -> Option<Polygon> {
        debug_assert!(clip.is_convex(), "clip polygon must be convex");
        let mut output: Vec<Point> = self.vertices.clone();
        let n = clip.vertices.len();
        for i in 0..n {
            if output.is_empty() {
                return None;
            }
            let a = clip.vertices[i];
            let b = clip.vertices[(i + 1) % n];
            let edge_dir = b - a;
            let inside = |p: Point| edge_dir.cross(p - a) >= -EPS;
            let input = std::mem::take(&mut output);
            let m = input.len();
            for j in 0..m {
                let cur = input[j];
                let next = input[(j + 1) % m];
                let cur_in = inside(cur);
                let next_in = inside(next);
                if cur_in {
                    output.push(cur);
                }
                if cur_in != next_in {
                    // The edge crosses the clip line; compute the crossing.
                    let denom = edge_dir.cross(next - cur);
                    if denom.abs() > EPS {
                        let t = edge_dir.cross(a - cur) / denom;
                        output.push(cur.lerp(next, t.clamp(0.0, 1.0)));
                    }
                }
            }
        }
        Polygon::new(output).ok()
    }

    /// Exact area of the intersection with a *convex* polygon.
    pub fn intersection_area_convex(&self, clip: &Polygon) -> f64 {
        self.clip_convex(clip).map_or(0.0, |p| p.area())
    }
}

/// Shoelace signed area: positive for counter-clockwise vertex order.
fn signed_area(vertices: &[Point]) -> f64 {
    let n = vertices.len();
    let mut sum = 0.0;
    for i in 0..n {
        let p = vertices[i];
        let q = vertices[(i + 1) % n];
        sum += p.x * q.y - q.x * p.y;
    }
    sum / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(2.0, 2.0))
    }

    #[test]
    fn construction_validations() {
        assert_eq!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap_err(),
            PolygonError::TooFewVertices
        );
        assert_eq!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)])
                .unwrap_err(),
            PolygonError::DegenerateArea
        );
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(f64::NAN, 0.0),
                Point::new(0.0, 1.0)
            ])
            .unwrap_err(),
            PolygonError::NonFiniteVertex
        );
    }

    #[test]
    fn winding_is_normalized_to_ccw() {
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(signed_area(cw.vertices()) > 0.0);
        assert!((cw.area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rectangle_area_and_mbr() {
        let s = square();
        assert_eq!(s.area(), 4.0);
        assert_eq!(s.mbr(), Mbr::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0)));
        assert_eq!(s.perimeter(), 8.0);
        assert_eq!(s.centroid(), Point::new(1.0, 1.0));
    }

    #[test]
    fn contains_interior_boundary_exterior() {
        let s = square();
        assert!(s.contains(Point::new(1.0, 1.0)));
        assert!(s.contains(Point::new(0.0, 0.0))); // corner
        assert!(s.contains(Point::new(2.0, 1.0))); // edge
        assert!(!s.contains(Point::new(2.01, 1.0)));
        assert!(!s.contains(Point::new(-0.01, -0.01)));
    }

    #[test]
    fn contains_concave_polygon() {
        // L-shape: the notch must be outside.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap();
        assert!(!l.is_convex());
        assert!((l.area() - 5.0).abs() < 1e-12);
        assert!(l.contains(Point::new(0.5, 2.0)));
        assert!(l.contains(Point::new(2.0, 0.5)));
        assert!(!l.contains(Point::new(2.0, 2.0))); // inside the notch
    }

    #[test]
    fn axis_rectangle_detection() {
        assert!(square().is_axis_rectangle());
        assert!(!Polygon::regular(Point::new(0.0, 0.0), 1.0, 4).is_axis_rectangle());
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap();
        assert!(!l.is_axis_rectangle());
    }

    #[test]
    fn regular_polygon_approaches_circle_area() {
        let p = Polygon::regular(Point::new(5.0, 5.0), 2.0, 720);
        let circle_area = std::f64::consts::PI * 4.0;
        assert!((p.area() - circle_area).abs() / circle_area < 1e-4);
        assert!(p.is_convex());
    }

    #[test]
    fn clip_overlapping_rectangles() {
        let a = square();
        let b = Polygon::rectangle(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        let clipped = a.clip_convex(&b).unwrap();
        assert!((clipped.area() - 1.0).abs() < 1e-12);
        assert_eq!(a.intersection_area_convex(&b), clipped.area());
    }

    #[test]
    fn clip_disjoint_is_none() {
        let a = square();
        let b = Polygon::rectangle(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(a.clip_convex(&b).is_none());
        assert_eq!(a.intersection_area_convex(&b), 0.0);
    }

    #[test]
    fn clip_contained_returns_inner() {
        let outer = Polygon::rectangle(Point::new(-5.0, -5.0), Point::new(5.0, 5.0));
        let s = square();
        let clipped = s.clip_convex(&outer).unwrap();
        assert!((clipped.area() - s.area()).abs() < 1e-12);
    }

    #[test]
    fn clip_concave_subject_against_convex_clip() {
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap();
        let clip = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(3.0, 0.5));
        let area = l.intersection_area_convex(&clip);
        assert!((area - 1.5).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn translation_moves_everything() {
        let s = square().translated(Vec2::new(10.0, -1.0));
        assert_eq!(s.area(), 4.0);
        assert!(s.contains(Point::new(11.0, 0.0)));
        assert!(!s.contains(Point::new(1.0, 1.0)));
    }
}
