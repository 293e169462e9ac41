//! Deterministic adaptive-grid area integration.
//!
//! The paper's presence measure (Definition 1) needs
//! `area(UR(o) ∩ p)` where `UR(o)` is a composite of circles, rings, and
//! extended ellipses clipped by indoor topology — no closed form exists.
//! This module integrates the membership indicator on a regular grid over
//! the intersection of bounding boxes, super-sampling cells that straddle a
//! boundary. The scheme is fully deterministic (identical inputs give
//! identical areas), which keeps query results reproducible and lets the
//! top-k algorithms compare flows exactly.
//!
//! The grid is walked as a quadtree over cell-index blocks. The integrand
//! has two factors, the polygon and the region, and each classifies
//! blocks on its own ([`Region::classify`]). A factor proven in for a
//! block stays proven below it: it is neither classified nor tested
//! again there. A block both factors prove in, or either proves out, gets
//! each cell's full or zero value without a single probe; only the cells
//! no bound settles are probed, at exactly the points a plain per-cell
//! pass would probe, testing only the factors not yet proven. Per-cell
//! values are summed in row-major order, so the result is the same
//! `f64`, bit for bit, as probing every cell.

use crate::mbr::Mbr;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::region::Region;
use std::cell::Cell;

thread_local! {
    static PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Monotonic per-thread count of region probes the grid integrator
/// actually issued: corner lattice points, cell centres and
/// super-samples at which the region's membership test ran. Blocks
/// settled by [`Region::classify`] cost no probes, and neither do
/// polygon-only tests below a block where the region is already proven,
/// so the count falls as classification settles more of the grid; the
/// classification calls themselves are not counted.
///
/// Observability hook: profilers snapshot it before and after a query
/// and report the delta as "grid probes" — the number of point-in-region
/// tests the query's presence integrations cost. Wraps on overflow
/// (never in practice).
pub fn integration_probes() -> u64 {
    PROBES.with(|c| c.get())
}

/// Grid resolution parameters for the integrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridResolution {
    /// Number of cells per axis of the base grid.
    pub base: usize,
    /// Sub-samples per axis inside boundary cells.
    pub supersample: usize,
}

impl GridResolution {
    /// Creates a resolution; both parameters must be at least 1.
    pub fn new(base: usize, supersample: usize) -> GridResolution {
        assert!(base >= 1 && supersample >= 1, "resolution parameters must be >= 1");
        GridResolution { base, supersample }
    }

    /// A coarse resolution for quick estimates (32×32, 2×2 refinement).
    pub const COARSE: GridResolution = GridResolution { base: 32, supersample: 2 };
    /// The default resolution (64×64 base, 4×4 refinement in boundary
    /// cells); < 1% relative error on circle–polygon benchmarks.
    pub const DEFAULT: GridResolution = GridResolution { base: 64, supersample: 4 };
    /// A fine resolution for validation runs (160×160, 6×6 refinement).
    pub const FINE: GridResolution = GridResolution { base: 160, supersample: 6 };
}

impl Default for GridResolution {
    fn default() -> Self {
        GridResolution::DEFAULT
    }
}

/// One factor of the integrand: a membership test and its block verdict.
struct Factor<'a> {
    contains: &'a dyn Fn(Point) -> bool,
    classify: &'a dyn Fn(&Mbr) -> Option<bool>,
}

/// The factor that holds everywhere: the polygon of an integration over
/// the region alone.
const ANYWHERE: Factor<'static> = Factor { contains: &|_| true, classify: &|_| Some(true) };

/// Area of `region ∩ polygon`.
///
/// Integrates over `region.mbr() ∩ polygon.mbr()`. Cells whose four corners
/// and centre agree on membership are counted whole; straddling cells are
/// super-sampled. Returns `0.0` for empty intersections.
pub fn area_in_polygon(
    region: &(impl Region + ?Sized),
    polygon: &Polygon,
    res: GridResolution,
) -> f64 {
    let window = region.mbr().intersection(&polygon.mbr());
    // The polygon test is far cheaper than a composite (possibly
    // topology-constrained) region test, so it goes first. Its verdicts
    // hold for `contains_fast` too (see `Polygon`'s `classify`).
    integrate(
        Factor { contains: &|p| polygon.contains_fast(p), classify: &|b| polygon.classify(b) },
        Factor { contains: &|p| region.contains(p), classify: &|b| region.classify(b) },
        window,
        res,
    )
}

/// Area of the region itself, integrated over its own MBR.
pub fn area_of_region(region: &(impl Region + ?Sized), res: GridResolution) -> f64 {
    area_in_window(region, region.mbr(), res)
}

/// Area of `region` restricted to an explicit window rectangle.
pub fn area_in_window(region: &(impl Region + ?Sized), window: Mbr, res: GridResolution) -> f64 {
    let window = region.mbr().intersection(&window);
    integrate(
        ANYWHERE,
        Factor { contains: &|p| region.contains(p), classify: &|b| region.classify(b) },
        window,
        res,
    )
}

/// Which factors a verdict has proven in for a block and everything
/// below it.
#[derive(Debug, Clone, Copy)]
struct Proven {
    polygon: bool,
    region: bool,
}

/// What the verdicts settle for one block.
enum Block {
    Out,
    In,
    Open(Proven),
}

/// One integration: the grid geometry, the memoised corner lattice and
/// the per-cell values, filled block by block.
struct Grid<'a> {
    polygon: Factor<'a>,
    region: Factor<'a>,
    origin: Point,
    n: usize,
    dx: f64,
    dy: f64,
    /// Outward padding of every classified block, so that rounding in the
    /// sample coordinates can never put a probe outside its block.
    pad: f64,
    supersample: usize,
    cell_area: f64,
    /// Memoised corner-lattice memberships of the whole integrand, `None`
    /// until probed.
    corners: Vec<Option<bool>>,
    cells: Vec<f64>,
    probes: u64,
}

fn integrate(polygon: Factor, region: Factor, window: Mbr, res: GridResolution) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    let w = window.width();
    let h = window.height();
    if w <= 0.0 || h <= 0.0 {
        return 0.0;
    }
    let n = res.base;
    let dx = w / n as f64;
    let dy = h / n as f64;
    let scale = 1.0
        + window.lo.x.abs().max(window.lo.y.abs()).max(window.hi.x.abs()).max(window.hi.y.abs());
    let mut grid = Grid {
        polygon,
        region,
        origin: window.lo,
        n,
        dx,
        dy,
        pad: 1e-9 * scale,
        supersample: res.supersample,
        cell_area: dx * dy,
        corners: Vec::new(),
        cells: Vec::new(),
        probes: 0,
    };
    // The top block is settled before anything is allocated. A whole
    // grid is the row-major sum of n² full cells, the same additions the
    // cell vector would take.
    let proven = match grid.classify(0, n, 0, n, Proven { polygon: false, region: false }) {
        Block::Out => return 0.0,
        Block::In => return (0..n * n).fold(0.0, |total, _| total + grid.cell_area),
        Block::Open(proven) => proven,
    };
    grid.corners = vec![None; (n + 1) * (n + 1)];
    grid.cells = vec![0.0; n * n];
    grid.descend(0, n, 0, n, proven);
    PROBES.with(|c| c.set(c.get().wrapping_add(grid.probes)));
    // Row-major, the order of a plain per-cell pass. Every value is +0.0
    // or positive, so skipping the zero cells leaves the sum unchanged.
    grid.cells.iter().filter(|&&v| v != 0.0).fold(0.0, |total, &v| total + v)
}

impl Grid<'_> {
    fn x(&self, i: usize) -> f64 {
        self.origin.x + self.dx * i as f64
    }

    fn y(&self, j: usize) -> f64 {
        self.origin.y + self.dy * j as f64
    }

    /// Classifies the padded block `[i0, i1) × [j0, j1)` by each factor
    /// not already proven: out as soon as one factor is, in once both are.
    fn classify(&self, i0: usize, i1: usize, j0: usize, j1: usize, above: Proven) -> Block {
        let b = Mbr::from_bounds(
            Point::new(self.x(i0) - self.pad, self.y(j0) - self.pad),
            Point::new(self.x(i1) + self.pad, self.y(j1) + self.pad),
        );
        let mut proven = above;
        for (done, factor) in
            [(&mut proven.polygon, &self.polygon), (&mut proven.region, &self.region)]
        {
            if !*done {
                match (factor.classify)(&b) {
                    Some(false) => return Block::Out,
                    Some(true) => *done = true,
                    None => {}
                }
            }
        }
        if proven.polygon && proven.region {
            Block::In
        } else {
            Block::Open(proven)
        }
    }

    /// Settles the cells `[i0, i1) × [j0, j1)`: whole when the block
    /// classifies, else as an open block.
    fn block(&mut self, i0: usize, i1: usize, j0: usize, j1: usize, above: Proven) {
        match self.classify(i0, i1, j0, j1, above) {
            Block::In => {
                for j in j0..j1 {
                    self.cells[j * self.n + i0..j * self.n + i1].fill(self.cell_area);
                }
            }
            Block::Out => {}
            Block::Open(proven) => self.descend(i0, i1, j0, j1, proven),
        }
    }

    /// A block its verdicts leave open: probed when it is a single cell,
    /// else split into quadrants that inherit `proven`.
    fn descend(&mut self, i0: usize, i1: usize, j0: usize, j1: usize, proven: Proven) {
        if i1 - i0 == 1 && j1 - j0 == 1 {
            return self.leaf(i0, j0, proven);
        }
        let im = if i1 - i0 > 1 { (i0 + i1) / 2 } else { i1 };
        let jm = if j1 - j0 > 1 { (j0 + j1) / 2 } else { j1 };
        for (ja, jb) in [(j0, jm), (jm, j1)] {
            for (ia, ib) in [(i0, im), (im, i1)] {
                if ia < ib && ja < jb {
                    self.block(ia, ib, ja, jb, proven);
                }
            }
        }
    }

    /// The integrand at `p`, a point of a block where `proven` holds:
    /// only the factors not yet proven are tested, the cheap polygon
    /// first, and only region tests count as probes.
    fn inside(&mut self, p: Point, proven: Proven) -> bool {
        (proven.polygon || (self.polygon.contains)(p))
            && (proven.region || {
                self.probes += 1;
                (self.region.contains)(p)
            })
    }

    /// Membership of lattice corner `(i, j)`, probed at most once. A
    /// proven factor holds at the corner, so the memoised value is the
    /// whole integrand's whichever block probed it.
    fn corner(&mut self, i: usize, j: usize, proven: Proven) -> bool {
        let k = j * (self.n + 1) + i;
        if let Some(v) = self.corners[k] {
            return v;
        }
        let v = self.inside(Point::new(self.x(i), self.y(j)), proven);
        self.corners[k] = Some(v);
        v
    }

    /// One unsettled cell: whole when its four corners and centre agree,
    /// else super-sampled at sub-cell centres.
    fn leaf(&mut self, i: usize, j: usize, proven: Proven) {
        let c00 = self.corner(i, j, proven);
        let c10 = self.corner(i + 1, j, proven);
        let c01 = self.corner(i, j + 1, proven);
        let c11 = self.corner(i + 1, j + 1, proven);
        let (dx, dy) = (self.dx, self.dy);
        let x0 = self.x(i);
        let y0 = self.y(j);
        // Corners that disagree already make this a boundary cell; the
        // centre could not change that, so it is only probed when they
        // agree. A uniform cell could still hide a thin feature; the base
        // resolution is chosen so features of interest span several cells.
        if c00 == c10
            && c00 == c01
            && c00 == c11
            && self.inside(Point::new(x0 + 0.5 * dx, y0 + 0.5 * dy), proven) == c00
        {
            if c00 {
                self.cells[j * self.n + i] = self.cell_area;
            }
            return;
        }
        let s = self.supersample;
        let mut hits = 0usize;
        for sj in 0..s {
            let y = y0 + dy * (sj as f64 + 0.5) / s as f64;
            for si in 0..s {
                let x = x0 + dx * (si as f64 + 0.5) / s as f64;
                if self.inside(Point::new(x, y), proven) {
                    hits += 1;
                }
            }
        }
        let sub_area = self.cell_area / (s * s) as f64;
        self.cells[j * self.n + i] = hits as f64 * sub_area;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circle::{circle_polygon_area, Circle};
    use crate::ellipse::ExtendedEllipse;
    use crate::region::{RegionIntersection, RegionUnion};
    use crate::ring::Ring;
    use std::f64::consts::PI;

    fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn rectangle_in_rectangle_is_exact() {
        let outer = square(0.0, 0.0, 4.0, 4.0);
        let inner = square(1.0, 1.0, 3.0, 2.0);
        let a = area_in_polygon(&inner, &outer, GridResolution::DEFAULT);
        assert!((a - 2.0).abs() < 1e-9, "got {a}");
    }

    #[test]
    fn circle_in_polygon_matches_exact_formula() {
        let poly = square(0.0, 0.0, 3.0, 3.0);
        for (cx, cy, r) in [
            (1.5, 1.5, 1.0), // fully inside
            (0.0, 1.5, 1.0), // half in
            (0.0, 0.0, 1.0), // quarter in
            (1.5, 1.5, 5.0), // polygon fully inside circle
            (2.8, 2.8, 0.5), // corner overlap
        ] {
            let c = Circle::new(Point::new(cx, cy), r);
            let exact = circle_polygon_area(&c, &poly);
            let approx = area_in_polygon(&c, &poly, GridResolution::DEFAULT);
            let tol = (0.01 * exact).max(5e-3);
            assert!(
                (approx - exact).abs() < tol,
                "circle ({cx},{cy},{r}): approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn finer_grids_reduce_error() {
        let poly = square(0.0, 0.0, 3.0, 3.0);
        let c = Circle::new(Point::new(0.7, 1.1), 1.3);
        let exact = circle_polygon_area(&c, &poly);
        let coarse = (area_in_polygon(&c, &poly, GridResolution::COARSE) - exact).abs();
        let fine = (area_in_polygon(&c, &poly, GridResolution::FINE) - exact).abs();
        assert!(fine <= coarse, "fine {fine} should not exceed coarse {coarse}");
        assert!(fine / exact < 1e-3);
    }

    #[test]
    fn ring_area_against_analytic() {
        let ring = Ring::new(Circle::new(Point::new(0.0, 0.0), 1.0), 1.0);
        let a = area_of_region(&ring, GridResolution::FINE);
        assert!((a - ring.area()).abs() / ring.area() < 5e-3, "got {a}");
    }

    #[test]
    fn ring_polygon_intersection_respects_hole() {
        // A polygon entirely inside the ring's inner disk intersects nothing.
        let ring = Ring::new(Circle::new(Point::new(0.0, 0.0), 2.0), 1.0);
        let hole_poly = square(-0.5, -0.5, 0.5, 0.5);
        let a = area_in_polygon(&ring, &hole_poly, GridResolution::DEFAULT);
        assert!(a.abs() < 1e-9, "got {a}");
    }

    #[test]
    fn intersection_region_integrates() {
        // Two unit disks at distance 1: lens area has a closed form.
        let c1 = Circle::new(Point::new(0.0, 0.0), 1.0);
        let c2 = Circle::new(Point::new(1.0, 0.0), 1.0);
        let lens = RegionIntersection::of(c1, c2);
        let exact = crate::circle::circle_circle_intersection_area(&c1, &c2);
        let approx = area_of_region(&lens, GridResolution::FINE);
        assert!((approx - exact).abs() / exact < 5e-3, "approx {approx} exact {exact}");
    }

    #[test]
    fn union_region_integrates_with_overlap_counted_once() {
        let c1 = Circle::new(Point::new(0.0, 0.0), 1.0);
        let c2 = Circle::new(Point::new(1.0, 0.0), 1.0);
        let u = RegionUnion::new(vec![Box::new(c1), Box::new(c2)]);
        let exact = 2.0 * PI - crate::circle::circle_circle_intersection_area(&c1, &c2);
        let approx = area_of_region(&u, GridResolution::FINE);
        assert!((approx - exact).abs() / exact < 5e-3, "approx {approx} exact {exact}");
    }

    #[test]
    fn ellipse_area_sanity() {
        // Point foci => classic ellipse, area = π·a·b.
        let e = ExtendedEllipse::new(
            Circle::new(Point::new(-1.0, 0.0), 0.0),
            Circle::new(Point::new(1.0, 0.0), 0.0),
            4.0,
        );
        let a = 2.0; // semi-major
        let b = 3.0f64.sqrt(); // semi-minor
        let exact = PI * a * b;
        let approx = area_of_region(&e, GridResolution::FINE);
        assert!((approx - exact).abs() / exact < 5e-3, "approx {approx} exact {exact}");
    }

    #[test]
    fn empty_window_returns_zero() {
        let c = Circle::new(Point::new(10.0, 10.0), 1.0);
        let poly = square(0.0, 0.0, 1.0, 1.0);
        assert_eq!(area_in_polygon(&c, &poly, GridResolution::DEFAULT), 0.0);
    }

    #[test]
    fn window_restriction() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let right_half = Mbr::new(Point::new(0.0, -2.0), Point::new(2.0, 2.0));
        let a = area_in_window(&c, right_half, GridResolution::FINE);
        assert!((a - PI / 2.0).abs() / (PI / 2.0) < 5e-3, "got {a}");
    }

    #[test]
    fn determinism() {
        let c = Circle::new(Point::new(0.3, 0.7), 1.1);
        let poly = square(0.0, 0.0, 2.0, 2.0);
        let a1 = area_in_polygon(&c, &poly, GridResolution::DEFAULT);
        let a2 = area_in_polygon(&c, &poly, GridResolution::DEFAULT);
        assert_eq!(a1, a2);
    }
}
