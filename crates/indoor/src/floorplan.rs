//! Floor plans: cells, doors, devices, POIs, and point location.

use crate::device::Device;
use crate::ids::{CellId, DeviceId, DoorId, PoiId};
use crate::poi::Poi;
use inflow_geometry::{Mbr, Point, Polygon};

/// Maximum distance a door may sit from each of the cells it connects.
///
/// Doors are modelled as points on the shared wall between two cells; data
/// digitized from drawings is rarely exact, so a small slack is tolerated.
pub const DOOR_PLACEMENT_TOLERANCE: f64 = 0.3;

/// What a floor-plan cell is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// An enclosed room.
    Room,
    /// A section of hallway / corridor / concourse.
    Hallway,
}

/// A partition of the floor plan: the unit of the indoor topology.
///
/// Objects can move freely within a cell but can only move between cells
/// through [`Door`]s — the constraint the paper's §3.3 topology check
/// exploits.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub id: CellId,
    pub name: String,
    pub kind: CellKind,
    footprint: Polygon,
}

impl Cell {
    /// The cell's polygonal footprint.
    pub fn footprint(&self) -> &Polygon {
        &self.footprint
    }

    /// Whether the cell covers `p` (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        self.footprint.contains(p)
    }
}

/// A door connecting exactly two cells, modelled as a point on their
/// shared wall.
#[derive(Debug, Clone, PartialEq)]
pub struct Door {
    pub id: DoorId,
    pub name: String,
    pub position: Point,
    /// The two cells the door connects (order is not meaningful).
    pub cells: (CellId, CellId),
}

/// Errors raised while building a [`FloorPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FloorPlanError {
    /// A door referenced a cell id that has not been added.
    UnknownCell(CellId),
    /// A door connected a cell to itself.
    SelfLoopDoor { door: String },
    /// A door's position is too far from one of its cells.
    DoorNotOnCell { door: String, cell: CellId, distance: f64 },
    /// The plan has no cells.
    NoCells,
}

impl std::fmt::Display for FloorPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FloorPlanError::UnknownCell(c) => write!(f, "door references unknown cell {c}"),
            FloorPlanError::SelfLoopDoor { door } => {
                write!(f, "door {door} connects a cell to itself")
            }
            FloorPlanError::DoorNotOnCell { door, cell, distance } => write!(
                f,
                "door {door} is {distance:.2} m from cell {cell} (tolerance {DOOR_PLACEMENT_TOLERANCE})"
            ),
            FloorPlanError::NoCells => write!(f, "floor plan has no cells"),
        }
    }
}

impl std::error::Error for FloorPlanError {}

/// Incrementally assembles a [`FloorPlan`], validating door placement.
#[derive(Debug, Default)]
pub struct FloorPlanBuilder {
    cells: Vec<Cell>,
    doors: Vec<Door>,
    devices: Vec<Device>,
    pois: Vec<Poi>,
    errors: Vec<FloorPlanError>,
}

impl FloorPlanBuilder {
    /// Creates an empty builder.
    pub fn new() -> FloorPlanBuilder {
        FloorPlanBuilder::default()
    }

    /// Adds a cell and returns its id.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        footprint: Polygon,
    ) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell { id, name: name.into(), kind, footprint });
        id
    }

    /// Adds a door between `a` and `b` at `position`. Validation is
    /// deferred to [`FloorPlanBuilder::build`].
    pub fn add_door(
        &mut self,
        name: impl Into<String>,
        position: Point,
        a: CellId,
        b: CellId,
    ) -> DoorId {
        let id = DoorId(self.doors.len() as u32);
        let name = name.into();
        if a == b {
            self.errors.push(FloorPlanError::SelfLoopDoor { door: name.clone() });
        }
        self.doors.push(Door { id, name, position, cells: (a, b) });
        id
    }

    /// Adds a proximity-detection device.
    pub fn add_device(&mut self, name: impl Into<String>, position: Point, range: f64) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Device::new(id, name, position, range));
        id
    }

    /// Adds a POI.
    pub fn add_poi(&mut self, name: impl Into<String>, extent: Polygon) -> PoiId {
        let id = PoiId(self.pois.len() as u32);
        self.pois.push(Poi::new(id, name, extent));
        id
    }

    /// Validates the plan and builds the immutable [`FloorPlan`].
    pub fn build(mut self) -> Result<FloorPlan, FloorPlanError> {
        if let Some(err) = self.errors.drain(..).next() {
            return Err(err);
        }
        if self.cells.is_empty() {
            return Err(FloorPlanError::NoCells);
        }
        for door in &self.doors {
            for cell_id in [door.cells.0, door.cells.1] {
                let cell =
                    self.cells.get(cell_id.index()).ok_or(FloorPlanError::UnknownCell(cell_id))?;
                let dist = if cell.contains(door.position) {
                    0.0
                } else {
                    cell.footprint
                        .edges()
                        .map(|e| e.distance_to_point(door.position))
                        .fold(f64::INFINITY, f64::min)
                };
                if dist > DOOR_PLACEMENT_TOLERANCE {
                    return Err(FloorPlanError::DoorNotOnCell {
                        door: door.name.clone(),
                        cell: cell_id,
                        distance: dist,
                    });
                }
            }
        }
        let mut doors_by_cell = vec![Vec::new(); self.cells.len()];
        for door in &self.doors {
            doors_by_cell[door.cells.0.index()].push(door.id);
            doors_by_cell[door.cells.1.index()].push(door.id);
        }
        let mbr = self.cells.iter().fold(Mbr::EMPTY, |m, c| m.union(&c.footprint.mbr()));
        let locator = CellLocator::build(&self.cells, mbr);
        let overlapping: Vec<Vec<CellId>> = self
            .cells
            .iter()
            .map(|cell| {
                let m = cell.footprint.mbr();
                let overlaps =
                    |o: &&Cell| o.id != cell.id && o.footprint.mbr().intersection(&m).area() > 0.0;
                self.cells.iter().filter(overlaps).map(|o| o.id).collect()
            })
            .collect();
        // A cell whose MBR holds the POI's MBR also holds its centre, so
        // the centre's bucket lists it.
        let poi_cells = self
            .pois
            .iter()
            .map(|poi| {
                let m = poi.mbr();
                locator.candidates(m.center()).iter().copied().find(|&id| {
                    let footprint = &self.cells[id.index()].footprint;
                    footprint.is_axis_rectangle()
                        && overlapping[id.index()].is_empty()
                        && footprint.mbr().contains_mbr(&m)
                })
            })
            .collect();
        Ok(FloorPlan {
            cells: self.cells,
            doors: self.doors,
            devices: self.devices,
            pois: self.pois,
            doors_by_cell,
            overlapping,
            poi_cells,
            locator,
            mbr,
        })
    }
}

/// An immutable indoor floor plan.
#[derive(Debug)]
pub struct FloorPlan {
    cells: Vec<Cell>,
    doors: Vec<Door>,
    devices: Vec<Device>,
    pois: Vec<Poi>,
    doors_by_cell: Vec<Vec<DoorId>>,
    /// Per cell, the other cells whose MBRs overlap its MBR in more than
    /// a shared wall (none in a plan whose cells tile the floor).
    overlapping: Vec<Vec<CellId>>,
    /// Per POI, its host cell (see [`FloorPlan::poi_cell`]).
    poi_cells: Vec<Option<CellId>>,
    locator: CellLocator,
    mbr: Mbr,
}

impl FloorPlan {
    /// All cells, indexed by [`CellId`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// A cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// All doors, indexed by [`DoorId`].
    pub fn doors(&self) -> &[Door] {
        &self.doors
    }

    /// A door by id.
    pub fn door(&self, id: DoorId) -> &Door {
        &self.doors[id.index()]
    }

    /// All deployed devices, indexed by [`DeviceId`].
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// A device by id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// All POIs, indexed by [`PoiId`].
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// A POI by id.
    pub fn poi(&self, id: PoiId) -> &Poi {
        &self.pois[id.index()]
    }

    /// The host cell of a POI: an axis-rectangle cell that no other cell
    /// overlaps and whose MBR holds the POI's MBR; `None` when no cell
    /// qualifies (a POI straddling a wall) or the id is not this plan's.
    ///
    /// Every point more than a wall tolerance inside the host locates to
    /// it and to no other cell, and a block clear of its walls is what
    /// [`FloorPlan::sole_cell`] would find inside it — what lets presence
    /// integration over the POI skip both lookups.
    pub fn poi_cell(&self, id: PoiId) -> Option<CellId> {
        self.poi_cells.get(id.index()).copied().flatten()
    }

    /// The doors on the boundary of `cell`.
    pub fn doors_of_cell(&self, cell: CellId) -> &[DoorId] {
        &self.doors_by_cell[cell.index()]
    }

    /// Cells reachable from `cell` through one door.
    pub fn neighbors(&self, cell: CellId) -> impl Iterator<Item = CellId> + '_ {
        self.doors_of_cell(cell).iter().map(move |&d| {
            let door = self.door(d);
            if door.cells.0 == cell {
                door.cells.1
            } else {
                door.cells.0
            }
        })
    }

    /// The cell covering `p`, if any. The result is deterministic; for a
    /// point exactly on a shared wall, which adjoining cell is returned is
    /// an implementation detail — use [`FloorPlan::locate_all`] when all
    /// adjoining cells matter.
    pub fn locate(&self, p: Point) -> Option<CellId> {
        self.locator.locate(&self.cells, p)
    }

    /// All cells covering `p`, boundary-inclusive. A point strictly inside
    /// a cell yields one id; a point on a shared wall or door yields every
    /// adjoining cell — callers resolving indoor distances must consider
    /// all of them.
    pub fn locate_all(&self, p: Point) -> Vec<CellId> {
        self.locator
            .candidates(p)
            .iter()
            .copied()
            .filter(|&id| self.cells[id.index()].contains(p))
            .collect()
    }

    /// The one cell holding all of `b` at least `margin` from its walls,
    /// when that cell is an axis-aligned rectangle and no other cell's MBR
    /// comes within `margin` of `b`; `None` otherwise.
    ///
    /// Every point of `b` then locates to that cell, and none lies near
    /// enough to a wall to be claimed by a neighbour — what lets the
    /// topology check bound indoor distances over a whole block.
    pub fn sole_cell(&self, b: &Mbr, margin: f64) -> Option<CellId> {
        let grown = b.expanded(margin);
        let mbr_of = |id: CellId| self.cells[id.index()].footprint().mbr();
        let id = self
            .locator
            .candidates(grown.center())
            .iter()
            .copied()
            .find(|&id| mbr_of(id).contains_strictly(&grown))?;
        // A cell whose MBR meets this one's only along a wall cannot
        // reach `grown`, which stays clear of the walls; only overlapping
        // cells need a look.
        let clear = self.cells[id.index()].footprint().is_axis_rectangle()
            && self.overlapping[id.index()].iter().all(|&o| !mbr_of(o).intersects(&grown));
        clear.then_some(id)
    }

    /// Bounding rectangle of the whole plan.
    pub fn mbr(&self) -> Mbr {
        self.mbr
    }
}

/// Uniform-grid point-location index over cell footprints.
///
/// Point location is on the hot path of the topology-constrained area
/// integrator (one lookup per sample point), so a linear scan over cells is
/// replaced with a bucket grid storing, per bucket, the cells whose MBRs
/// intersect it.
#[derive(Debug)]
struct CellLocator {
    origin: Point,
    inv_cell: f64,
    nx: usize,
    ny: usize,
    buckets: Vec<Vec<CellId>>,
}

impl CellLocator {
    fn build(cells: &[Cell], mbr: Mbr) -> CellLocator {
        let w = mbr.width().max(1e-6);
        let h = mbr.height().max(1e-6);
        // Aim for a few cells per bucket: grid of ~4x the cell count.
        let target = (cells.len().max(1) * 4) as f64;
        let aspect = w / h;
        let ny = ((target / aspect).sqrt().ceil() as usize).clamp(1, 512);
        let nx = ((target / ny as f64).ceil() as usize).clamp(1, 512);
        let bucket_w = w / nx as f64;
        let bucket_h = h / ny as f64;
        let cell_size = bucket_w.max(bucket_h);
        // Use a square bucket of the larger pitch to keep indexing simple.
        let nx = (w / cell_size).ceil() as usize + 1;
        let ny = (h / cell_size).ceil() as usize + 1;
        let mut buckets = vec![Vec::new(); nx * ny];
        for cell in cells {
            let m = cell.footprint().mbr();
            let i0 = (((m.lo.x - mbr.lo.x) / cell_size).floor() as isize).clamp(0, nx as isize - 1);
            let i1 = (((m.hi.x - mbr.lo.x) / cell_size).floor() as isize).clamp(0, nx as isize - 1);
            let j0 = (((m.lo.y - mbr.lo.y) / cell_size).floor() as isize).clamp(0, ny as isize - 1);
            let j1 = (((m.hi.y - mbr.lo.y) / cell_size).floor() as isize).clamp(0, ny as isize - 1);
            for j in j0..=j1 {
                for i in i0..=i1 {
                    buckets[j as usize * nx + i as usize].push(cell.id);
                }
            }
        }
        CellLocator { origin: mbr.lo, inv_cell: 1.0 / cell_size, nx, ny, buckets }
    }

    /// The candidate cells of `p`'s bucket (MBR-level filter only).
    fn candidates(&self, p: Point) -> &[CellId] {
        let i = ((p.x - self.origin.x) * self.inv_cell).floor();
        let j = ((p.y - self.origin.y) * self.inv_cell).floor();
        if i < 0.0 || j < 0.0 {
            return &[];
        }
        let (i, j) = (i as usize, j as usize);
        if i >= self.nx || j >= self.ny {
            return &[];
        }
        &self.buckets[j * self.nx + i]
    }

    fn locate(&self, cells: &[Cell], p: Point) -> Option<CellId> {
        let i = ((p.x - self.origin.x) * self.inv_cell).floor();
        let j = ((p.y - self.origin.y) * self.inv_cell).floor();
        if i < 0.0 || j < 0.0 {
            return None;
        }
        let (i, j) = (i as usize, j as usize);
        if i >= self.nx || j >= self.ny {
            return None;
        }
        let bucket = &self.buckets[j * self.nx + i];
        // Fast ray-cast pass first; points exactly on shared walls (door
        // positions, trajectory waypoints) can be missed by it, so fall
        // back to the boundary-inclusive test before giving up.
        bucket
            .iter()
            .copied()
            .find(|&id| cells[id.index()].footprint().contains_fast(p))
            .or_else(|| bucket.iter().copied().find(|&id| cells[id.index()].contains(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two rooms side by side sharing a wall at x = 4, with a door in the
    /// middle of that wall.
    fn two_rooms() -> FloorPlan {
        let mut b = FloorPlanBuilder::new();
        let r1 = b.add_cell(
            "room-1",
            CellKind::Room,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)),
        );
        let r2 = b.add_cell(
            "room-2",
            CellKind::Room,
            Polygon::rectangle(Point::new(4.0, 0.0), Point::new(8.0, 4.0)),
        );
        b.add_door("d-12", Point::new(4.0, 2.0), r1, r2);
        b.add_device("dev-0", Point::new(4.0, 2.0), 1.0);
        b.add_poi("poi-0", Polygon::rectangle(Point::new(5.0, 1.0), Point::new(7.0, 3.0)));
        b.build().unwrap()
    }

    #[test]
    fn build_and_accessors() {
        let plan = two_rooms();
        assert_eq!(plan.cells().len(), 2);
        assert_eq!(plan.doors().len(), 1);
        assert_eq!(plan.devices().len(), 1);
        assert_eq!(plan.pois().len(), 1);
        assert_eq!(plan.cell(CellId(0)).name, "room-1");
        assert_eq!(plan.doors_of_cell(CellId(0)), &[DoorId(0)]);
        assert_eq!(plan.doors_of_cell(CellId(1)), &[DoorId(0)]);
        assert_eq!(plan.neighbors(CellId(0)).collect::<Vec<_>>(), vec![CellId(1)]);
    }

    #[test]
    fn locate_points() {
        let plan = two_rooms();
        assert_eq!(plan.locate(Point::new(1.0, 1.0)), Some(CellId(0)));
        assert_eq!(plan.locate(Point::new(6.0, 1.0)), Some(CellId(1)));
        // On the shared wall: deterministically resolved to one of the
        // two adjoining cells; locate_all reports both.
        let on_wall = Point::new(4.0, 1.0);
        let via_locate = plan.locate(on_wall).unwrap();
        assert!(via_locate == CellId(0) || via_locate == CellId(1));
        let mut all = plan.locate_all(on_wall);
        all.sort_unstable();
        assert_eq!(all, vec![CellId(0), CellId(1)]);
        assert_eq!(plan.locate(Point::new(100.0, 1.0)), None);
        assert_eq!(plan.locate(Point::new(-1.0, 1.0)), None);
    }

    #[test]
    fn sole_cell_needs_one_rectangle_and_a_margin() {
        let plan = two_rooms();
        let block = |x0, y0, x1, y1| Mbr::new(Point::new(x0, y0), Point::new(x1, y1));
        assert_eq!(plan.sole_cell(&block(1.0, 1.0, 2.0, 2.0), 1e-5), Some(CellId(0)));
        assert_eq!(plan.sole_cell(&block(5.0, 1.0, 7.9, 3.0), 1e-5), Some(CellId(1)));
        // Straddling the shared wall, or within the margin of it.
        assert_eq!(plan.sole_cell(&block(3.0, 1.0, 5.0, 2.0), 1e-5), None);
        assert_eq!(plan.sole_cell(&block(3.0, 1.0, 4.0 - 1e-6, 2.0), 1e-5), None);
        // Outside the building.
        assert_eq!(plan.sole_cell(&block(9.0, 1.0, 10.0, 2.0), 1e-5), None);
    }

    #[test]
    fn poi_cell_is_the_rectangle_holding_the_poi() {
        let plan = two_rooms();
        assert_eq!(plan.poi_cell(PoiId(0)), Some(CellId(1)));
        assert_eq!(plan.poi_cell(PoiId(7)), None);
        let mut b = FloorPlanBuilder::new();
        let rect = |x0, x1| Polygon::rectangle(Point::new(x0, 0.0), Point::new(x1, 4.0));
        b.add_cell("room-1", CellKind::Room, rect(0.0, 4.0));
        b.add_cell("room-2", CellKind::Room, rect(4.0, 8.0));
        b.add_poi("whole-room", rect(0.0, 4.0));
        b.add_poi("across", rect(3.0, 5.0));
        let plan = b.build().unwrap();
        assert_eq!(plan.poi_cell(PoiId(0)), Some(CellId(0)));
        assert_eq!(plan.poi_cell(PoiId(1)), None);
    }

    #[test]
    fn door_far_from_cell_is_rejected() {
        let mut b = FloorPlanBuilder::new();
        let r1 = b.add_cell(
            "room-1",
            CellKind::Room,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)),
        );
        let r2 = b.add_cell(
            "room-2",
            CellKind::Room,
            Polygon::rectangle(Point::new(4.0, 0.0), Point::new(8.0, 4.0)),
        );
        b.add_door("bad-door", Point::new(20.0, 2.0), r1, r2);
        match b.build() {
            Err(FloorPlanError::DoorNotOnCell { door, .. }) => assert_eq!(door, "bad-door"),
            other => panic!("expected DoorNotOnCell, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_door_is_rejected() {
        let mut b = FloorPlanBuilder::new();
        let r1 = b.add_cell(
            "room-1",
            CellKind::Room,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)),
        );
        b.add_door("loop", Point::new(0.0, 0.0), r1, r1);
        assert!(matches!(b.build(), Err(FloorPlanError::SelfLoopDoor { .. })));
    }

    #[test]
    fn unknown_cell_is_rejected() {
        let mut b = FloorPlanBuilder::new();
        let r1 = b.add_cell(
            "room-1",
            CellKind::Room,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)),
        );
        b.add_door("dangling", Point::new(4.0, 2.0), r1, CellId(9));
        assert!(matches!(b.build(), Err(FloorPlanError::UnknownCell(CellId(9)))));
    }

    #[test]
    fn empty_plan_is_rejected() {
        assert!(matches!(FloorPlanBuilder::new().build(), Err(FloorPlanError::NoCells)));
    }

    #[test]
    fn locator_agrees_with_linear_scan_on_grid_plan() {
        // A 5x5 grid of rooms.
        let mut b = FloorPlanBuilder::new();
        for j in 0..5 {
            for i in 0..5 {
                b.add_cell(
                    format!("r-{i}-{j}"),
                    CellKind::Room,
                    Polygon::rectangle(
                        Point::new(i as f64 * 3.0, j as f64 * 3.0),
                        Point::new(i as f64 * 3.0 + 3.0, j as f64 * 3.0 + 3.0),
                    ),
                );
            }
        }
        let plan = b.build().unwrap();
        for step in 0..400 {
            let p = Point::new((step % 20) as f64 * 0.77, (step / 20) as f64 * 0.77);
            let by_index = plan.locate(p);
            let by_scan = plan.cells().iter().find(|c| c.contains(p)).map(|c| c.id);
            assert_eq!(by_index, by_scan, "mismatch at {p}");
        }
    }
}
