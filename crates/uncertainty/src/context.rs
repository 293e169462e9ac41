//! Shared indoor context: floor plan plus distance oracle.

use inflow_geometry::Point;
use inflow_indoor::{CellId, DeviceId, DistanceOracle, FloorPlan};
use std::sync::{Arc, OnceLock};

/// A point's cell and the indoor distance from the point to every door
/// of the plan, indexed by door.
pub type DoorDistances = (CellId, Arc<[f64]>);

/// A floor plan bundled with its precomputed [`DistanceOracle`].
///
/// Uncertainty regions capture the context behind an `Arc` so they stay
/// `'static` and cheaply clonable while sharing one door-distance matrix.
#[derive(Debug)]
pub struct IndoorContext {
    plan: FloorPlan,
    oracle: DistanceOracle,
    /// Per device, [`IndoorContext::device_doors`], computed when a
    /// topology anchor first needs it; every later anchor on the device
    /// shares the vector. Both the table and its entries fill lazily, so a
    /// context that never derives an uncertainty region (an ingest-only
    /// server's) holds neither a devices × doors table nor a slot per
    /// device.
    device_doors: OnceLock<Box<[OnceLock<Option<DoorDistances>>]>>,
}

impl IndoorContext {
    /// Builds the context, precomputing all door-to-door shortest paths.
    pub fn new(plan: FloorPlan) -> IndoorContext {
        let oracle = DistanceOracle::new(&plan);
        IndoorContext { plan, oracle, device_doors: OnceLock::new() }
    }

    /// The cell holding the device and the indoor distance from the
    /// device to every door, computed once per context; `None` when the
    /// device lies outside every cell.
    pub fn device_doors(&self, id: DeviceId) -> Option<&DoorDistances> {
        let table = self
            .device_doors
            .get_or_init(|| self.plan.devices().iter().map(|_| OnceLock::new()).collect());
        table[id.index()]
            .get_or_init(|| {
                let p = self.plan.device(id).position;
                let cell = self.plan.locate(p)?;
                Some((cell, self.oracle.distances_from_point(&self.plan, p, cell).into()))
            })
            .as_ref()
    }

    /// The floor plan.
    pub fn plan(&self) -> &FloorPlan {
        &self.plan
    }

    /// The distance oracle.
    pub fn oracle(&self) -> &DistanceOracle {
        &self.oracle
    }

    /// Indoor walking distance between two points (`None` when either
    /// point is outside every cell or no door path exists).
    pub fn indoor_distance(&self, p: Point, q: Point) -> Option<f64> {
        self.oracle.distance(&self.plan, p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflow_geometry::Polygon;
    use inflow_indoor::{CellKind, FloorPlanBuilder};

    #[test]
    fn context_wires_plan_and_oracle() {
        let mut b = FloorPlanBuilder::new();
        let a = b.add_cell(
            "a",
            CellKind::Room,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)),
        );
        let c = b.add_cell(
            "b",
            CellKind::Room,
            Polygon::rectangle(Point::new(4.0, 0.0), Point::new(8.0, 4.0)),
        );
        b.add_door("d", Point::new(4.0, 2.0), a, c);
        let inside = b.add_device("in", Point::new(2.0, 2.0), 0.5);
        let outside = b.add_device("out", Point::new(-3.0, 2.0), 0.5);
        let ctx = IndoorContext::new(b.build().unwrap());
        let d = ctx.indoor_distance(Point::new(2.0, 2.0), Point::new(6.0, 2.0)).unwrap();
        assert!((d - 4.0).abs() < 1e-12);
        let (cell, doors) = ctx.device_doors(inside).unwrap();
        assert_eq!((*cell, &doors[..]), (a, &[2.0][..]));
        assert!(std::ptr::eq(ctx.device_doors(inside).unwrap(), ctx.device_doors(inside).unwrap()));
        assert!(ctx.device_doors(outside).is_none());
    }
}
