//! Deterministic adaptive-grid integration over a POI.
//!
//! The paper's presence measure (Definition 1) needs
//! `area(UR(o) ∩ p)` where `UR(o)` is a composite of circles, rings, and
//! extended ellipses clipped by indoor topology — no closed form exists.
//! Long-visit dwell needs `∫ f dA` over `p` of a bounded scalar [`Field`],
//! an object's time spent at each point. Both are integrated on the same
//! regular `res.base × res.base` cell grid over the intersection of
//! bounding boxes, fully deterministically (identical inputs give
//! identical `f64`s), which keeps query results reproducible and lets
//! the top-k algorithms compare flows exactly.
//!
//! One walker does both. It lays the lattice over the window, pads every
//! block it bounds by `1e-9` of the coordinates' scale, walks the grid as
//! a quadtree over cell-index blocks, counts each block and the probes
//! below it ([`integration_blocks`], [`integration_probes`]), and sums a
//! block's quadrants in a fixed order. A *leaf rule* decides which blocks
//! their bounds settle, what a settled block is worth, what an unsettled
//! cell is worth, and what a block proves for the blocks below it. There
//! are two, each monomorphised into its entry points:
//!
//! * **Indicator** ([`area_in_polygon`], [`area_of_region`],
//!   [`area_in_window`]). The integrand has two factors, the polygon and
//!   the region, and each classifies blocks on its own
//!   ([`Region::classify`]). What a verdict proves stays proven below the
//!   block: a factor proven in is neither classified nor tested again
//!   there, and a region made of parts hands down the parts still open
//!   ([`Region::classify_live`]), so that sub-blocks classify and probes
//!   test only those. A block both factors prove in, or either proves
//!   out, gets each cell's full or zero value without a single probe.
//!   Once the region is proven over a block, an axis-rectangle polygon
//!   judges the block inset by its padding, so blocks along the POI's own
//!   edges settle too, each cell taking the value the per-cell rule gives
//!   it there ([`Polygon::contains_fast`] is half-open). Only the cells no
//!   bound settles are probed, at exactly the points a plain per-cell pass
//!   would probe: four memoised lattice corners and the centre, and
//!   super-samples where they disagree. Per-cell values are summed in
//!   row-major order, so the result is the same `f64`, bit for bit, as
//!   probing every cell.
//! * **Field** ([`field_in_polygon`]). The polygon judges each block inset
//!   by the padding; the field bounds it ([`FieldBounds`]). A block both
//!   prove in settles in one of two ways: at the midpoint of its bounds
//!   when they are close enough, or at the field's second-order mean
//!   ([`Field::mean`]) when its fourth-order curvature bound is small
//!   enough for the block's size. An unsettled cell takes its centre
//!   value.

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
/// takes counts as one probe too: an unsettled cell's centre value, and
/// the centre evaluation behind a block settled at its [`Field::mean`].
///
/// Observability hook: profilers snapshot it before and after a query
/// and report the delta as "grid probes" — the number of point-in-region
/// tests the query's presence integrations cost. Wraps on overflow
/// (never in practice).
pub fn integration_probes() -> u64 {
    PROBES.with(|c| c.get())
}

/// Monotonic per-thread count of quadtree blocks the grid walker bounded
/// under either leaf rule, the whole grid of each integration included:
/// the work of settling the grid, where [`integration_probes`] counts the
/// work below it. A POI a proven region holds whole costs one block.
///
/// Profilers report its delta as "grid blocks", beside "grid probes".
/// Wraps on overflow (never in practice).
pub fn integration_blocks() -> u64 {
    BLOCKS.with(|c| c.get())
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
    indicator(Some(polygon), region, window, res)
}

/// Area of the region itself, integrated over its own MBR.
pub fn area_of_region(region: &(impl Region + ?Sized), res: GridResolution) -> f64 {
    area_in_window(region, region.mbr(), res)
}

/// Area of `region` restricted to an explicit window rectangle.
pub fn area_in_window(region: &(impl Region + ?Sized), window: Mbr, res: GridResolution) -> f64 {
    let window = region.mbr().intersection(&window);
    indicator(None, region, window, res)
}

/// What a [`Field`] proves over a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldBounds {
    /// `Some(false)` when the block lies outside the field's support, so
    /// the field is zero on it; `Some(true)` when it lies inside and the
    /// field is smooth enough over it for the midpoint of `[lo, hi]`, or
    /// its [`Field::mean`], to price it; `None` otherwise.
    pub support: Option<bool>,
    /// A lower bound on the field at every point of the block inside the
    /// support.
    pub lo: f64,
    /// An upper bound on the field at every point of the block.
    pub hi: f64,
    /// A bound `K` on the field's fourth derivatives over the block:
    /// along every unit-speed line through it, `|d⁴f/dt⁴| ≤ 3K` (the form
    /// `Σ 1/|q − s|³` over distance terms takes; see
    /// [`field_in_polygon`]). `f64::INFINITY` where the field has no such
    /// bound there, and wherever `support` is not `Some(true)`.
    pub quartic: f64,
}

/// A non-negative scalar field, zero outside its support, that can bound
/// itself over a rectangle.
pub trait Field {
    /// The value at `p`; zero outside the support.
    fn value(&self, p: Point) -> f64;
    /// Sound bounds over every point of `b`.
    fn bounds(&self, b: &Mbr) -> FieldBounds;
    /// The second-order mean of the field over the `w × h` rectangle
    /// centred at `c`: the value at `c` plus half the centre Hessian's
    /// trace against the rectangle's second moments,
    /// `(w² · f_xx + h² · f_yy) / 24`. Only called on rectangles whose
    /// [`FieldBounds::quartic`] is finite, where it is within
    /// `quartic · (w² + h²)² / 576` of the true mean.
    fn mean(&self, c: Point, w: f64, h: f64) -> f64;
    /// A rectangle holding the support.
    fn mbr(&self) -> Mbr;
}

/// `∫ field dA` over `polygon`, on the `res.base × res.base` cell grid of
/// `field.mbr() ∩ polygon.mbr()`, walked as the same cell-index quadtree
/// as [`area_in_polygon`].
///
/// A block is settled without a single evaluation when the polygon or
/// the field's support proves it out, or the field's upper bound is zero.
/// A block the polygon and the support both prove in settles in one of
/// two ways, each within a stated error per unit area:
///
/// * its bounds are `tol` apart or closer: it is priced at their
///   midpoint, within `tol / 2`;
/// * its curvature is small for its size,
///   `quartic · (w² + h²)² / 576 ≤ tol / 16`: it is priced at the
///   field's [`Field::mean`] (one evaluation), within `tol / 16`.
///
/// The second rule's bound: on a rectangle centred at `c`, the odd terms
/// of the Taylor series of `f` about `c` average to zero, so the mean
/// differs from the second-order mean by the average of the fourth-order
/// remainder, at most `E[|δ|⁴] · max |d⁴f/dt⁴| / 24` over offsets `δ`
/// from `c`. A rectangle has `E[|δ|⁴] = (w⁴ + h⁴)/80 + w²h²/144 ≤
/// (w² + h²)² / 72`, and a quartic `K` bounds `|d⁴f/dt⁴|` by `3K` (for
/// `|q − s|` along any line, `|d⁴/dt⁴| ≤ 3 / |q − s|³`), which gives
/// `K · (w² + h²)² / 576`. The share `tol / 16`, an eighth of the first
/// rule's, keeps the blocks it settles well inside the error the first
/// rule already allows.
///
/// A cell no rule settles takes its centre value. Each field value taken
/// counts in [`integration_probes`], each block bounded in
/// [`integration_blocks`]. Deterministic: the same inputs give the same
/// `f64`.
pub fn field_in_polygon(
    field: &(impl Field + ?Sized),
    polygon: &Polygon,
    res: GridResolution,
    tol: f64,
) -> f64 {
    let window = field.mbr().intersection(&polygon.mbr());
    walk_grid(window, res, &mut FieldRule { field, polygon, tol }, false)
}

/// The cells `[i0, i1) × [j0, j1)` of the grid.
#[derive(Debug, Clone, Copy)]
struct Block {
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
}

/// One integration's lattice and the work it spent.
struct Grid {
    origin: Point,
    n: usize,
    dx: f64,
    dy: f64,
    /// Outward padding of every bounded block, so that rounding in the
    /// sample coordinates can never put a sample outside its block.
    pad: f64,
    cell_area: f64,
    probes: u64,
    blocks: u64,
}

/// What one integrand makes of the walk: which blocks their bounds
/// settle, and what a cell no bound settles is worth. `Proof` is what a
/// block proved for everything below it.
trait Rule {
    type Proof: Copy;
    /// The block's value when its bounds settle it, else the proof its
    /// quadrants inherit.
    fn settle(&mut self, g: &mut Grid, b: Block, above: Self::Proof) -> Result<f64, Self::Proof>;
    /// The value of the unsettled cell `(i, j)`.
    fn cell(&mut self, g: &mut Grid, i: usize, j: usize, proof: Self::Proof) -> f64;
}

/// Walks `rule` over the `res.base × res.base` grid of `window`, adds
/// the work to the per-thread counters and returns the walk's sum; zero
/// for an empty or degenerate window.
fn walk_grid<R: Rule>(window: Mbr, res: GridResolution, rule: &mut R, top: R::Proof) -> f64 {
    if window.is_empty() || window.width() <= 0.0 || window.height() <= 0.0 {
        return 0.0;
    }
    let n = res.base;
    let (dx, dy) = (window.width() / n as f64, window.height() / n as f64);
    let scale = 1.0
        + window.lo.x.abs().max(window.lo.y.abs()).max(window.hi.x.abs()).max(window.hi.y.abs());
    let mut g = Grid {
        origin: window.lo,
        n,
        dx,
        dy,
        pad: 1e-9 * scale,
        cell_area: dx * dy,
        probes: 0,
        blocks: 0,
    };
    let total = g.integral(rule, (0, n), (0, n), top);
    PROBES.with(|c| c.set(c.get().wrapping_add(g.probes)));
    BLOCKS.with(|c| c.set(c.get().wrapping_add(g.blocks)));
    total
}

impl Grid {
    fn x(&self, i: usize) -> f64 {
        self.origin.x + self.dx * i as f64
    }

    fn y(&self, j: usize) -> f64 {
        self.origin.y + self.dy * j as f64
    }

    fn centre(&self, i: usize, j: usize) -> Point {
        Point::new(self.x(i) + 0.5 * self.dx, self.y(j) + 0.5 * self.dy)
    }

    /// Block `b` grown by `by` on every side (shrunk for negative `by`).
    fn bounds(&self, b: Block, by: f64) -> Mbr {
        Mbr::from_bounds(
            Point::new(self.x(b.i0) - by, self.y(b.j0) - by),
            Point::new(self.x(b.i1) + by, self.y(b.j1) + by),
        )
    }

    /// The integral over the block `[i0, i1) × [j0, j1)`: its settled
    /// value, its single cell's, or the sum of its quadrants, which
    /// inherit the block's proof. The bounds travel as two pairs, which
    /// are passed in registers: a 32-byte `Block` argument goes through
    /// memory, and reloading it on every call slows the field walk, whose
    /// blocks are cheap, by about a third.
    fn integral<R: Rule>(
        &mut self,
        rule: &mut R,
        (i0, i1): (usize, usize),
        (j0, j1): (usize, usize),
        above: R::Proof,
    ) -> f64 {
        self.blocks += 1;
        let proof = match rule.settle(self, Block { i0, i1, j0, j1 }, above) {
            Ok(value) => return value,
            Err(proof) => proof,
        };
        if i1 - i0 == 1 && j1 - j0 == 1 {
            return rule.cell(self, i0, j0, proof);
        }
        let im = if i1 - i0 > 1 { (i0 + i1) / 2 } else { i1 };
        let jm = if j1 - j0 > 1 { (j0 + j1) / 2 } else { j1 };
        let mut total = 0.0;
        for (ja, jb) in [(j0, jm), (jm, j1)] {
            for (ia, ib) in [(i0, im), (im, i1)] {
                if ia < ib && ja < jb {
                    total += self.integral(rule, (ia, ib), (ja, jb), proof);
                }
            }
        }
        total
    }
}

/// The field rule: inset polygon verdicts, support, bound-midpoint and
/// curvature settling, centre values. Its proof is whether the polygon
/// holds the block.
struct FieldRule<'a, F: ?Sized> {
    field: &'a F,
    polygon: &'a Polygon,
    tol: f64,
}

impl<F: Field + ?Sized> Rule for FieldRule<'_, F> {
    type Proof = bool;

    fn settle(&mut self, g: &mut Grid, b: Block, in_polygon: bool) -> Result<f64, bool> {
        // The polygon judges the block inset by the padding: the window's
        // edge is an axis-rectangle POI's own edge, and no block along it
        // could ever be proven inside otherwise. What this gives up is a
        // sliver `pad` wide.
        let in_polygon = in_polygon
            || match self.polygon.classify(&g.bounds(b, -g.pad)) {
                Some(false) => return Ok(0.0),
                Some(true) => true,
                None => false,
            };
        let FieldBounds { support, lo, hi, quartic } = self.field.bounds(&g.bounds(b, g.pad));
        if support == Some(false) || hi <= 0.0 {
            return Ok(0.0);
        }
        if in_polygon && support == Some(true) {
            let cells = ((b.i1 - b.i0) * (b.j1 - b.j0)) as f64;
            if hi - lo <= self.tol {
                return Ok(0.5 * (lo + hi) * cells * g.cell_area);
            }
            // The curvature rule of `field_in_polygon`, on the block itself:
            // the padding only lowers the distances `quartic` is bounded by.
            let (w, h) = (g.x(b.i1) - g.x(b.i0), g.y(b.j1) - g.y(b.j0));
            let diag = w * w + h * h;
            if quartic * diag * diag / 576.0 <= self.tol / 16.0 {
                g.probes += 1;
                let c = Point::new(g.x(b.i0) + 0.5 * w, g.y(b.j0) + 0.5 * h);
                return Ok(self.field.mean(c, w, h) * cells * g.cell_area);
            }
        }
        Err(in_polygon)
    }

    fn cell(&mut self, g: &mut Grid, i: usize, j: usize, in_polygon: bool) -> f64 {
        let p = g.centre(i, j);
        if !in_polygon && !self.polygon.contains_fast(p) {
            return 0.0;
        }
        g.probes += 1;
        self.field.value(p) * g.cell_area
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

/// The indicator rule: the memoised corner lattice and the per-cell
/// values, filled block by block and summed row-major at the end.
struct Indicator<'a, R: ?Sized> {
    /// The POI polygon; `None` integrates the region alone.
    polygon: Option<&'a Polygon>,
    region: &'a R,
    supersample: usize,
    /// Memoised corner-lattice memberships of the whole integrand, `None`
    /// until probed.
    corners: Vec<Option<bool>>,
    /// Empty until the top block is left open.
    cells: Vec<f64>,
}

fn indicator<R: Region + ?Sized>(
    polygon: Option<&Polygon>,
    region: &R,
    window: Mbr,
    res: GridResolution,
) -> f64 {
    let mut rule = Indicator {
        polygon,
        region,
        supersample: res.supersample,
        corners: Vec::new(),
        cells: Vec::new(),
    };
    let top = Proven { polygon: polygon.is_none(), region: Some(Live::ALL) };
    let settled = walk_grid(window, res, &mut rule, top);
    if rule.cells.is_empty() {
        return settled;
    }
    // Row-major, the order of a plain per-cell pass. Every value is +0.0
    // or positive, so skipping the zero cells leaves the sum unchanged.
    rule.cells.iter().filter(|&&v| v != 0.0).fold(0.0, |total, &v| total + v)
}

impl<R: Region + ?Sized> Rule for Indicator<'_, R> {
    type Proof = Proven;

    /// Classifies the padded block by each factor not already proven: out
    /// as soon as one factor is, in once both are. The top block is
    /// settled before anything is allocated.
    fn settle(&mut self, g: &mut Grid, b: Block, above: Proven) -> Result<f64, Proven> {
        let m = g.bounds(b, g.pad);
        // The polygon goes first: its test is far cheaper than a composite
        // (possibly topology-constrained) region's. Its verdicts hold for
        // `contains_fast` too (see `Polygon`'s `classify`).
        let mut polygon = above.polygon;
        if let (false, Some(poly)) = (polygon, self.polygon) {
            match poly.classify(&m) {
                Some(false) => return Ok(0.0),
                Some(true) => polygon = true,
                None => {}
            }
        }
        let region = match above.region {
            None => None,
            Some(live) => match self.region.classify_live(&m, live) {
                Verdict::Out => return Ok(0.0),
                Verdict::In => None,
                Verdict::Open(live) => Some(live),
            },
        };
        let rim = match (polygon, region) {
            (true, None) => (false, false),
            (false, None) if self.settles_to_edge(g, b) => self.rim(g, b),
            _ => {
                if self.cells.is_empty() {
                    self.corners = vec![None; (g.n + 1) * (g.n + 1)];
                    self.cells = vec![0.0; g.n * g.n];
                }
                return Err(Proven { polygon, region });
            }
        };
        Ok(self.fill(g, b, rim))
    }

    /// One unsettled cell: whole when its four corners and centre agree,
    /// else super-sampled at sub-cell centres.
    fn cell(&mut self, g: &mut Grid, i: usize, j: usize, proven: Proven) -> f64 {
        let c00 = self.corner(g, i, j, proven);
        let c10 = self.corner(g, i + 1, j, proven);
        let c01 = self.corner(g, i, j + 1, proven);
        let c11 = self.corner(g, i + 1, j + 1, proven);
        // Corners that disagree already make this a boundary cell; the
        // centre could not change that, so it is only probed when they
        // agree. A uniform cell could still hide a thin feature; the base
        // resolution is chosen so features of interest span several cells.
        if c00 == c10 && c00 == c01 && c00 == c11 && self.inside(g, g.centre(i, j), proven) == c00 {
            if c00 {
                self.cells[j * g.n + i] = g.cell_area;
            }
            return 0.0;
        }
        let s = self.supersample;
        let (x0, y0) = (g.x(i), g.y(j));
        let mut hits = 0usize;
        for sj in 0..s {
            let y = y0 + g.dy * (sj as f64 + 0.5) / s as f64;
            for si in 0..s {
                let x = x0 + g.dx * (si as f64 + 0.5) / s as f64;
                if self.inside(g, Point::new(x, y), proven) {
                    hits += 1;
                }
            }
        }
        self.cells[j * g.n + i] = hits as f64 * (g.cell_area / (s * s) as f64);
        0.0
    }
}

impl<R: Region + ?Sized> Indicator<'_, R> {
    /// Gives block `b`'s cells [`Indicator::edge_cell`]'s values: written
    /// to the cell vector, or, for the top block, summed row-major, the
    /// same additions the cell vector would take.
    fn fill(&mut self, g: &Grid, b: Block, rim: (bool, bool)) -> f64 {
        let mut total = 0.0;
        for j in b.j0..b.j1 {
            for i in b.i0..b.i1 {
                let v = self.edge_cell(g, i, j, rim);
                match self.cells.get_mut(j * g.n + i) {
                    Some(cell) => *cell = v,
                    None => total += v,
                }
            }
        }
        total
    }

    /// Whether an axis-rectangle polygon holds block `b` inset by the
    /// padding, for a block the region is proven over. Such a block is
    /// settled with [`Indicator::edge_cell`]'s values, which are the
    /// per-cell rule's, because `contains_fast` on an axis rectangle
    /// `[L, H]` is exactly `L ≤ q < H` on both axes (the ray cast counts a
    /// vertical edge at `x` only for `q.x < x`, and only for
    /// `L.y ≤ q.y < H.y`):
    ///
    /// * every sample lies at or above the window's low corner, and the
    ///   window lies in the polygon's MBR, so no sample fails `L ≤ q`;
    /// * cells must be more than `4·s` paddings wide, while rounding
    ///   moves samples by far less than a padding. Every centre and
    ///   super-sample of the block then lies more than a padding below
    ///   its top and right sides, which the inset verdict puts below `H`;
    ///   and every lattice line below the window's last is a whole cell
    ///   below that last line, which lies within rounding of `H`. So only
    ///   a corner on the window's top or right lattice line can fail
    ///   `q < H`.
    fn settles_to_edge(&self, g: &Grid, b: Block) -> bool {
        let wide = 4.0 * self.supersample as f64 * g.pad;
        match self.polygon {
            Some(poly) if g.dx > wide && g.dy > wide && poly.is_axis_rectangle() => {
                poly.classify(&g.bounds(b, -g.pad)) == Some(true)
            }
            _ => false,
        }
    }

    /// Whether the window's right and top lattice lines fail the polygon
    /// test where block `b` reaches them. A corner there fails on its own
    /// axis alone (see [`Indicator::settles_to_edge`]), so one corner
    /// speaks for the whole line.
    fn rim(&self, g: &Grid, b: Block) -> (bool, bool) {
        let Some(poly) = self.polygon else { return (false, false) };
        let n = g.n;
        let right = b.i1 == n && !poly.contains_fast(Point::new(g.x(n), g.y(b.j0)));
        let top = b.j1 == n && !poly.contains_fast(Point::new(g.x(b.i0), g.y(n)));
        (right, top)
    }

    /// The per-cell rule's value of cell `(i, j)` of a settled block, with
    /// `rim` from [`Indicator::rim`] (no rim for a block both factors
    /// hold). A cell whose four corners pass is whole: `cell_area`. A cell
    /// with a corner on a failing rim line is a boundary cell whose `s²`
    /// super-samples all pass: `s² · (cell_area / s²)`. The two are equal
    /// for `s` = 2 and 4, but for `s` = 6 differ by an ulp for some cell
    /// areas.
    fn edge_cell(&self, g: &Grid, i: usize, j: usize, rim: (bool, bool)) -> f64 {
        if (rim.0 && i + 1 == g.n) || (rim.1 && j + 1 == g.n) {
            let s2 = self.supersample * self.supersample;
            s2 as f64 * (g.cell_area / s2 as f64)
        } else {
            g.cell_area
        }
    }

    /// The integrand at `p`, a point of a block where `proven` holds:
    /// only the factors and region parts not yet proven are tested, the
    /// cheap polygon first, and only region tests count as probes.
    fn inside(&self, g: &mut Grid, p: Point, proven: Proven) -> bool {
        (proven.polygon || self.polygon.is_none_or(|poly| poly.contains_fast(p)))
            && proven.region.is_none_or(|live| {
                g.probes += 1;
                self.region.contains_live(p, live)
            })
    }

    /// Membership of lattice corner `(i, j)`, probed at most once. A
    /// proven factor or region part holds at the corner, so the memoised
    /// value is the whole integrand's whichever block probed it.
    fn corner(&mut self, g: &mut Grid, i: usize, j: usize, proven: Proven) -> bool {
        let k = j * (g.n + 1) + i;
        if let Some(v) = self.corners[k] {
            return v;
        }
        let v = self.inside(g, Point::new(g.x(i), g.y(j)), proven);
        self.corners[k] = Some(v);
        v
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
            let (lo, hi) = (self.slope * b.lo.x, self.slope * b.hi.x);
            FieldBounds { support, lo, hi, quartic: f64::INFINITY }
        }
        fn mean(&self, c: Point, _: f64, _: f64) -> f64 {
            self.value(c)
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
                let support = Region::classify(&self.0, b);
                FieldBounds { support, lo: 1.0, hi: 1.0, quartic: f64::INFINITY }
            }
            fn mean(&self, c: Point, _: f64, _: f64) -> f64 {
                self.value(c)
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

    /// `top − |q − s|`, a cone falling away from `s`, on the whole plane.
    struct Cone {
        s: Point,
        top: f64,
        /// Whether `bounds` reports the cone's quartic.
        curved: bool,
    }

    impl Field for Cone {
        fn value(&self, p: Point) -> f64 {
            self.top - p.distance(self.s)
        }
        fn bounds(&self, b: &Mbr) -> FieldBounds {
            let (near, far) = (b.min_distance_sq(self.s).sqrt(), b.max_distance_sq(self.s).sqrt());
            let quartic = if self.curved { 1.0 / (near * near * near) } else { f64::INFINITY };
            FieldBounds { support: Some(true), lo: self.top - far, hi: self.top - near, quartic }
        }
        fn mean(&self, c: Point, w: f64, h: f64) -> f64 {
            let (dx, dy) = (c.x - self.s.x, c.y - self.s.y);
            let rho = dx.hypot(dy);
            self.value(c) - (w * w * dy * dy + h * h * dx * dx) / (24.0 * rho * rho * rho)
        }
        fn mbr(&self) -> Mbr {
            Mbr::new(Point::new(-100.0, -100.0), Point::new(100.0, 100.0))
        }
    }

    #[test]
    fn curvature_settles_smooth_blocks_within_their_bound() {
        // A cone whose source lies 3 m off a 4 × 4 POI: its range over the
        // POI is wide, but its curvature there is small.
        let poly = square(0.0, 0.0, 4.0, 4.0);
        let (s, tol) = (Point::new(-3.0, 2.0), 0.05);
        // The exact integral, by a 1024 × 1024 midpoint rule (its own
        // error is below 1e-6 here).
        let n = 1024;
        let step = 4.0 / n as f64;
        let mut exact = 0.0;
        for j in 0..n {
            for i in 0..n {
                let q = Point::new((i as f64 + 0.5) * step, (j as f64 + 0.5) * step);
                exact += (10.0 - q.distance(s)) * step * step;
            }
        }
        let mut runs = Vec::new();
        for curved in [false, true] {
            let cone = Cone { s, top: 10.0, curved };
            let (b0, p0) = (integration_blocks(), integration_probes());
            let v = field_in_polygon(&cone, &poly, GridResolution::DEFAULT, tol);
            runs.push((v, integration_blocks() - b0, integration_probes() - p0));
        }
        let ((range, range_blocks, _), (curv, curv_blocks, curv_probes)) = (runs[0], runs[1]);
        // Both rules keep their stated error per unit area (16 m²).
        assert!((range - exact).abs() <= 16.0 * tol / 2.0, "{range} vs {exact}");
        assert!((curv - exact).abs() <= 16.0 * tol / 16.0 + 1e-6, "{curv} vs {exact}");
        // The curvature rule settles far higher in the quadtree, and every
        // block it settles costs one field value.
        assert!(curv_blocks * 4 < range_blocks, "{curv_blocks} vs {range_blocks}");
        assert!(curv_probes > 0 && curv_probes < curv_blocks, "{curv_probes} of {curv_blocks}");
    }
}
