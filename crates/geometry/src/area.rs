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
//! blocks on its own ([`Region::classify`]). What a verdict proves stays
//! proven below the block: a factor proven in is neither classified nor
//! tested again there, and a region made of parts hands down the parts
//! still open ([`Region::classify_live`]), so that sub-blocks classify
//! and probes test only those. A block both factors prove in, or either
//! proves out, gets each cell's full or zero value without a single
//! probe. Once the region is proven over a block, an axis-rectangle
//! polygon judges the block inset by its padding, so blocks along the
//! POI's own edges settle too, each cell taking the value the per-cell
//! rule gives it there ([`Polygon::contains_fast`] is half-open). Only the
//! cells no bound settles are probed, at exactly the points a plain
//! per-cell pass would probe. Per-cell values are summed in row-major
//! order, so the result is the same `f64`, bit for bit, as probing every
//! cell.
//!
//! [`field_in_polygon`] walks the same quadtree for a bounded scalar
//! [`Field`] instead of an indicator: a block whose bounds are close
//! enough is priced at their midpoint, and an unsettled cell at its
//! centre value.

use crate::mbr::Mbr;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::region::{Live, Region, Verdict};
use std::cell::Cell;

thread_local! {
    static PROBES: Cell<u64> = const { Cell::new(0) };
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// Monotonic per-thread count of region probes the grid integrator
/// actually issued: corner lattice points, cell centres and
/// super-samples at which the region's membership test ran. Blocks
/// settled by [`Region::classify`] cost no probes, and neither do
/// polygon-only tests below a block where the region is already proven;
/// the classification calls themselves are not counted. The count does
/// not only fall as classification settles more of the grid: a settled
/// block memoises no lattice corners, so an open neighbour probes the
/// corners they share itself. Each field value [`field_in_polygon`]
/// takes at an unsettled cell's centre counts as one probe too.
///
/// Observability hook: profilers snapshot it before and after a query
/// and report the delta as "grid probes" — the number of point-in-region
/// tests the query's presence integrations cost. Wraps on overflow
/// (never in practice).
pub fn integration_probes() -> u64 {
    PROBES.with(|c| c.get())
}

/// Monotonic per-thread count of quadtree blocks both grid integrators
/// classified, the whole grid of each integration included: the work
/// of settling the grid, where [`integration_probes`] counts the work
/// below it. A POI a proven region holds whole costs one block.
///
/// Profilers report its delta as "grid blocks", beside "grid probes".
/// Wraps on overflow (never in practice).
pub fn integration_blocks() -> u64 {
    BLOCKS.with(|c| c.get())
}

/// Adds one integration's work to the per-thread counters.
fn count(probes: u64, blocks: u64) {
    PROBES.with(|c| c.set(c.get().wrapping_add(probes)));
    BLOCKS.with(|c| c.set(c.get().wrapping_add(blocks)));
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
    integrate(Some(polygon), region, window, res)
}

/// Area of the region itself, integrated over its own MBR.
pub fn area_of_region(region: &(impl Region + ?Sized), res: GridResolution) -> f64 {
    area_in_window(region, region.mbr(), res)
}

/// Area of `region` restricted to an explicit window rectangle.
pub fn area_in_window(region: &(impl Region + ?Sized), window: Mbr, res: GridResolution) -> f64 {
    let window = region.mbr().intersection(&window);
    integrate(None, region, window, res)
}

/// What a [`Field`] proves over a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldBounds {
    /// `Some(false)` when the block lies outside the field's support, so
    /// the field is zero on it; `Some(true)` when it lies inside and the
    /// field is smooth enough over it for the midpoint of `[lo, hi]` to
    /// price it; `None` otherwise.
    pub support: Option<bool>,
    /// A lower bound on the field at every point of the block inside the
    /// support.
    pub lo: f64,
    /// An upper bound on the field at every point of the block.
    pub hi: f64,
}

/// A non-negative scalar field, zero outside its support, that can bound
/// itself over a rectangle.
pub trait Field {
    /// The value at `p`; zero outside the support.
    fn value(&self, p: Point) -> f64;
    /// Sound bounds over every point of `b`.
    fn bounds(&self, b: &Mbr) -> FieldBounds;
    /// A rectangle holding the support.
    fn mbr(&self) -> Mbr;
}

/// `∫ field dA` over `polygon`, on the `res.base × res.base` cell grid of
/// `field.mbr() ∩ polygon.mbr()`, walked as the same cell-index quadtree
/// as [`area_in_polygon`].
///
/// A block is settled without a single evaluation when the polygon or
/// the field's support proves it out, or the field's upper bound is zero;
/// or when the polygon and the support both prove it in and the field's
/// bounds are `tol` apart or closer: it is then priced at the midpoint of
/// its bounds, within `tol / 2` per unit area of the exact integral. A
/// cell no bound settles takes its centre value (one field evaluation,
/// counted in [`integration_probes`]; each block bounded counts in
/// [`integration_blocks`]). Deterministic: the same inputs give the same
/// `f64`.
pub fn field_in_polygon(
    field: &(impl Field + ?Sized),
    polygon: &Polygon,
    res: GridResolution,
    tol: f64,
) -> f64 {
    let window = field.mbr().intersection(&polygon.mbr());
    if window.is_empty() || window.width() <= 0.0 || window.height() <= 0.0 {
        return 0.0;
    }
    let n = res.base;
    let (dx, dy) = (window.width() / n as f64, window.height() / n as f64);
    let scale = 1.0
        + window.lo.x.abs().max(window.lo.y.abs()).max(window.hi.x.abs()).max(window.hi.y.abs());
    let mut grid = FieldGrid {
        field,
        polygon,
        origin: window.lo,
        dx,
        dy,
        pad: 1e-9 * scale,
        cell_area: dx * dy,
        tol,
        probes: 0,
        blocks: 0,
    };
    let total = grid.block(0, n, 0, n, false);
    count(grid.probes, grid.blocks);
    total
}

/// One field integration: the grid geometry and the work spent.
struct FieldGrid<'a, F: ?Sized> {
    field: &'a F,
    polygon: &'a Polygon,
    origin: Point,
    dx: f64,
    dy: f64,
    /// Outward padding of every bounded block, as in `Grid`.
    pad: f64,
    cell_area: f64,
    tol: f64,
    probes: u64,
    blocks: u64,
}

impl<F: Field + ?Sized> FieldGrid<'_, F> {
    fn x(&self, i: usize) -> f64 {
        self.origin.x + self.dx * i as f64
    }

    fn y(&self, j: usize) -> f64 {
        self.origin.y + self.dy * j as f64
    }

    /// The integral over the cells `[i0, i1) × [j0, j1)`; `in_polygon`
    /// when a block above proved the polygon in.
    fn block(&mut self, i0: usize, i1: usize, j0: usize, j1: usize, in_polygon: bool) -> f64 {
        self.blocks += 1;
        let b = Mbr::from_bounds(
            Point::new(self.x(i0) - self.pad, self.y(j0) - self.pad),
            Point::new(self.x(i1) + self.pad, self.y(j1) + self.pad),
        );
        // The polygon judges the block inset by the padding instead: the
        // window's edge is an axis-rectangle POI's own edge, and no block
        // along it could ever be proven inside otherwise. What this gives
        // up is a sliver `pad` wide.
        let inset = Mbr::from_bounds(
            Point::new(self.x(i0) + self.pad, self.y(j0) + self.pad),
            Point::new(self.x(i1) - self.pad, self.y(j1) - self.pad),
        );
        let in_polygon = in_polygon
            || match self.polygon.classify(&inset) {
                Some(false) => return 0.0,
                Some(true) => true,
                None => false,
            };
        let FieldBounds { support, lo, hi } = self.field.bounds(&b);
        if support == Some(false) || hi <= 0.0 {
            return 0.0;
        }
        let cells = ((i1 - i0) * (j1 - j0)) as f64;
        if in_polygon && support == Some(true) && hi - lo <= self.tol {
            return 0.5 * (lo + hi) * cells * self.cell_area;
        }
        if i1 - i0 == 1 && j1 - j0 == 1 {
            let p = Point::new(self.x(i0) + 0.5 * self.dx, self.y(j0) + 0.5 * self.dy);
            if !in_polygon && !self.polygon.contains_fast(p) {
                return 0.0;
            }
            self.probes += 1;
            return self.field.value(p) * self.cell_area;
        }
        let im = if i1 - i0 > 1 { (i0 + i1) / 2 } else { i1 };
        let jm = if j1 - j0 > 1 { (j0 + j1) / 2 } else { j1 };
        let mut total = 0.0;
        for (ja, jb) in [(j0, jm), (jm, j1)] {
            for (ia, ib) in [(i0, im), (im, i1)] {
                if ia < ib && ja < jb {
                    total += self.block(ia, ib, ja, jb, in_polygon);
                }
            }
        }
        total
    }
}

/// Which factors a verdict has proven in for a block and everything
/// below it.
#[derive(Debug, Clone, Copy)]
struct Proven {
    polygon: bool,
    /// The region's parts still unproven; `None` once the whole region
    /// is proven in.
    region: Option<Live>,
}

/// What the verdicts settle for one block.
enum Block {
    Out,
    In,
    /// In up to the window's top and right lattice lines, which the
    /// polygon test may reject ([`Grid::settles_to_edge`]).
    InToEdge,
    Open(Proven),
}

/// One integration: the grid geometry, the memoised corner lattice and
/// the per-cell values, filled block by block.
struct Grid<'a, R: ?Sized> {
    /// The POI polygon; `None` integrates the region alone.
    polygon: Option<&'a Polygon>,
    region: &'a R,
    origin: Point,
    n: usize,
    dx: f64,
    dy: f64,
    /// Outward padding of every classified block, so that rounding in the
    /// sample coordinates can never put a probe outside its block.
    pad: f64,
    supersample: usize,
    cell_area: f64,
    /// Whether cells are wide enough, against the padding, for an
    /// axis-rectangle polygon to settle blocks along its edges.
    inset: bool,
    /// Memoised corner-lattice memberships of the whole integrand, `None`
    /// until probed.
    corners: Vec<Option<bool>>,
    cells: Vec<f64>,
    probes: u64,
    blocks: u64,
}

fn integrate<R: Region + ?Sized>(
    polygon: Option<&Polygon>,
    region: &R,
    window: Mbr,
    res: GridResolution,
) -> f64 {
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
    let pad = 1e-9 * scale;
    let s = res.supersample;
    let mut grid = Grid {
        polygon,
        region,
        origin: window.lo,
        n,
        dx,
        dy,
        pad,
        supersample: s,
        cell_area: dx * dy,
        inset: dx > 4.0 * s as f64 * pad && dy > 4.0 * s as f64 * pad,
        corners: Vec::new(),
        cells: Vec::new(),
        probes: 0,
        blocks: 0,
    };
    let area = grid.area();
    count(grid.probes, grid.blocks);
    area
}

impl<R: Region + ?Sized> Grid<'_, R> {
    fn x(&self, i: usize) -> f64 {
        self.origin.x + self.dx * i as f64
    }

    fn y(&self, j: usize) -> f64 {
        self.origin.y + self.dy * j as f64
    }

    /// The whole integral. The top block is settled before anything is
    /// allocated: a settled grid is the row-major sum of its n² cell
    /// values, the same additions the cell vector would take.
    fn area(&mut self) -> f64 {
        let n = self.n;
        let all = Proven { polygon: self.polygon.is_none(), region: Some(Live::ALL) };
        let proven = match self.classify(0, n, 0, n, all) {
            Block::Out => return 0.0,
            Block::In => return (0..n * n).fold(0.0, |total, _| total + self.cell_area),
            Block::InToEdge => {
                let rim = self.rim(0, n, 0, n);
                return (0..n * n).fold(0.0, |total, k| total + self.edge_cell(k % n, k / n, rim));
            }
            Block::Open(proven) => proven,
        };
        self.corners = vec![None; (n + 1) * (n + 1)];
        self.cells = vec![0.0; n * n];
        self.descend(0, n, 0, n, proven);
        // Row-major, the order of a plain per-cell pass. Every value is
        // +0.0 or positive, so skipping the zero cells leaves the sum
        // unchanged.
        self.cells.iter().filter(|&&v| v != 0.0).fold(0.0, |total, &v| total + v)
    }

    /// The block `[i0, i1) × [j0, j1)` grown by `by` on every side
    /// (shrunk for negative `by`).
    fn bounds(&self, i0: usize, i1: usize, j0: usize, j1: usize, by: f64) -> Mbr {
        Mbr::from_bounds(
            Point::new(self.x(i0) - by, self.y(j0) - by),
            Point::new(self.x(i1) + by, self.y(j1) + by),
        )
    }

    /// Classifies the padded block `[i0, i1) × [j0, j1)` by each factor
    /// not already proven: out as soon as one factor is, in once both are.
    fn classify(&mut self, i0: usize, i1: usize, j0: usize, j1: usize, above: Proven) -> Block {
        self.blocks += 1;
        let b = self.bounds(i0, i1, j0, j1, self.pad);
        // The polygon goes first: its test is far cheaper than a composite
        // (possibly topology-constrained) region's. Its verdicts hold for
        // `contains_fast` too (see `Polygon`'s `classify`).
        let mut polygon = above.polygon;
        if let (false, Some(poly)) = (polygon, self.polygon) {
            match poly.classify(&b) {
                Some(false) => return Block::Out,
                Some(true) => polygon = true,
                None => {}
            }
        }
        let region = match above.region {
            None => None,
            Some(live) => match self.region.classify_live(&b, live) {
                Verdict::Out => return Block::Out,
                Verdict::In => None,
                Verdict::Open(live) => Some(live),
            },
        };
        match (polygon, region) {
            (true, None) => Block::In,
            (false, None) if self.settles_to_edge(i0, i1, j0, j1) => Block::InToEdge,
            _ => Block::Open(Proven { polygon, region }),
        }
    }

    /// Whether an axis-rectangle polygon holds the block inset by the
    /// padding, for a block the region is proven over. Such a block is
    /// settled with [`Grid::edge_cell`]'s values, which are the per-cell
    /// rule's, because `contains_fast` on an axis rectangle `[L, H]` is
    /// exactly `L ≤ q < H` on both axes (the ray cast counts a vertical
    /// edge at `x` only for `q.x < x`, and only for `L.y ≤ q.y < H.y`):
    ///
    /// * every sample lies at or above the window's low corner, and the
    ///   window lies in the polygon's MBR, so no sample fails `L ≤ q`;
    /// * `inset` makes cells more than `4·s` paddings wide, while
    ///   rounding moves samples by far less than a padding. Every centre
    ///   and super-sample of the block then lies more than a padding
    ///   below its top and right sides, which the inset verdict puts
    ///   below `H`; and every lattice line below the window's last is a
    ///   whole cell below that last line, which lies within rounding of
    ///   `H`. So only a corner on the window's top or right lattice line
    ///   can fail `q < H`.
    fn settles_to_edge(&self, i0: usize, i1: usize, j0: usize, j1: usize) -> bool {
        match self.polygon {
            Some(poly) if self.inset && poly.is_axis_rectangle() => {
                poly.classify(&self.bounds(i0, i1, j0, j1, -self.pad)) == Some(true)
            }
            _ => false,
        }
    }

    /// Whether the window's right and top lattice lines fail the polygon
    /// test where the block `[i0, i1) × [j0, j1)` reaches them. A corner
    /// there fails on its own axis alone (see [`Grid::settles_to_edge`]),
    /// so one corner speaks for the whole line.
    fn rim(&self, i0: usize, i1: usize, j0: usize, j1: usize) -> (bool, bool) {
        let Some(poly) = self.polygon else { return (false, false) };
        let n = self.n;
        let right = i1 == n && !poly.contains_fast(Point::new(self.x(n), self.y(j0)));
        let top = j1 == n && !poly.contains_fast(Point::new(self.x(i0), self.y(n)));
        (right, top)
    }

    /// The per-cell rule's value of cell `(i, j)` of a block settled to
    /// the edge, with `rim` from [`Grid::rim`]. A cell whose four corners
    /// pass is whole: `cell_area`. A cell with a corner on a failing rim
    /// line is a boundary cell whose `s²` super-samples all pass:
    /// `s² · (cell_area / s²)`. The two are equal for `s` = 2 and 4, but
    /// for `s` = 6 differ by an ulp for some cell areas.
    fn edge_cell(&self, i: usize, j: usize, rim: (bool, bool)) -> f64 {
        if (rim.0 && i + 1 == self.n) || (rim.1 && j + 1 == self.n) {
            let s2 = self.supersample * self.supersample;
            s2 as f64 * (self.cell_area / s2 as f64)
        } else {
            self.cell_area
        }
    }

    /// Settles the cells `[i0, i1) × [j0, j1)`: whole when the block
    /// classifies, else as an open block.
    fn block(&mut self, i0: usize, i1: usize, j0: usize, j1: usize, above: Proven) {
        let n = self.n;
        match self.classify(i0, i1, j0, j1, above) {
            Block::In => {
                for j in j0..j1 {
                    self.cells[j * n + i0..j * n + i1].fill(self.cell_area);
                }
            }
            Block::InToEdge => {
                let rim = self.rim(i0, i1, j0, j1);
                for j in j0..j1 {
                    for i in i0..i1 {
                        self.cells[j * n + i] = self.edge_cell(i, j, rim);
                    }
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
    /// only the factors and region parts not yet proven are tested, the
    /// cheap polygon first, and only region tests count as probes.
    fn inside(&mut self, p: Point, proven: Proven) -> bool {
        (proven.polygon || self.polygon.is_none_or(|poly| poly.contains_fast(p)))
            && proven.region.is_none_or(|live| {
                self.probes += 1;
                self.region.contains_live(p, live)
            })
    }

    /// Membership of lattice corner `(i, j)`, probed at most once. A
    /// proven factor or region part holds at the corner, so the memoised
    /// value is the whole integrand's whichever block probed it.
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

    /// `slope · x` on a disk, with exact block bounds.
    struct Ramp {
        disk: Circle,
        slope: f64,
    }

    impl Field for Ramp {
        fn value(&self, p: Point) -> f64 {
            if self.disk.contains(p) {
                self.slope * p.x
            } else {
                0.0
            }
        }
        fn bounds(&self, b: &Mbr) -> FieldBounds {
            let support = Region::classify(&self.disk, b);
            FieldBounds { support, lo: self.slope * b.lo.x, hi: self.slope * b.hi.x }
        }
        fn mbr(&self) -> Mbr {
            self.disk.mbr()
        }
    }

    #[test]
    fn field_settles_flat_blocks_and_prices_them_at_their_midpoint() {
        // A constant field on a disk holding the polygon: one block, no
        // evaluation, the exact integral.
        let poly = square(1.0, 1.0, 3.0, 2.0);
        let flat = Ramp { disk: Circle::new(Point::new(2.0, 1.5), 5.0), slope: 0.0 };
        let p0 = integration_probes();
        let v = field_in_polygon(&flat, &poly, GridResolution::DEFAULT, 0.0);
        assert_eq!((v, integration_probes() - p0), (0.0, 0));
        // A linear field: every block's bound midpoint is its mean, so any
        // tolerance gives ∫ x = 2 · 2 over the polygon, up to rounding.
        let ramp = Ramp { slope: 1.0, ..flat };
        for tol in [0.0, 0.1, 10.0] {
            let v = field_in_polygon(&ramp, &poly, GridResolution::COARSE, tol);
            assert!((v - 4.0).abs() < 1e-9, "tol {tol}: {v}");
        }
        // A huge tolerance settles the top block with no evaluation.
        let p0 = integration_probes();
        field_in_polygon(&ramp, &poly, GridResolution::COARSE, 10.0);
        assert_eq!(integration_probes() - p0, 0);
    }

    #[test]
    fn field_on_a_disk_edge_matches_the_exact_area() {
        // A unit field on a disk straddling the polygon: the cells on the
        // disk's edge take their centre values, and the total is the
        // disk–polygon area within the grid's error.
        let poly = square(0.0, 0.0, 3.0, 3.0);
        let disk = Circle::new(Point::new(0.7, 1.1), 1.3);
        struct Unit(Circle);
        impl Field for Unit {
            fn value(&self, p: Point) -> f64 {
                f64::from(u8::from(self.0.contains(p)))
            }
            fn bounds(&self, b: &Mbr) -> FieldBounds {
                FieldBounds { support: Region::classify(&self.0, b), lo: 1.0, hi: 1.0 }
            }
            fn mbr(&self) -> Mbr {
                self.0.mbr()
            }
        }
        let exact = circle_polygon_area(&disk, &poly);
        let v = field_in_polygon(&Unit(disk), &poly, GridResolution::DEFAULT, 0.0);
        assert!((v - exact).abs() / exact < 5e-3, "{v} vs {exact}");
        let empty = Unit(Circle::new(Point::new(10.0, 10.0), 1.0));
        assert_eq!(field_in_polygon(&empty, &poly, GridResolution::DEFAULT, 0.0), 0.0);
    }
}
