//! Multi-floor buildings.
//!
//! The paper's implementation indexes one floor and notes that "our
//! analysis of uncertainty regions as well as the query processing
//! techniques can be extended to multi-floor cases" (§4.1). This module
//! provides that substrate: a [`Building`] stacks per-floor
//! [`FloorPlan`]s joined by [`Connector`]s (staircases, escalators,
//! elevators), and [`BuildingDistanceOracle`] answers indoor walking
//! distances across floors — the quantity the topology check needs when a
//! device and a candidate location sit on different floors.
//!
//! Query processing remains per-floor (as in the paper: detection ranges
//! and POIs live on one floor each); the building layer contributes the
//! cross-floor distances and a global point-location namespace.

use crate::distance::DistanceOracle;
use crate::floorplan::FloorPlan;
use inflow_geometry::Point;

/// Identifier of a floor within a [`Building`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
// The derived `PartialOrd` calls `partial_cmp` on its integer fields.
#[allow(clippy::disallowed_methods)]
pub struct FloorId(pub u32);

impl FloorId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FloorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Floor{}", self.0)
    }
}

/// A location within a building: floor plus in-floor coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildingPoint {
    pub floor: FloorId,
    pub position: Point,
}

/// A vertical connector (staircase, escalator, elevator) joining a point
/// on one floor to a point on another, with an associated walking length.
#[derive(Debug, Clone, PartialEq)]
pub struct Connector {
    pub name: String,
    /// Entry on the first floor.
    pub a: BuildingPoint,
    /// Entry on the second floor.
    pub b: BuildingPoint,
    /// Walking length through the connector (stairs are longer than the
    /// straight-line height difference).
    pub length: f64,
}

/// Errors raised while assembling a [`Building`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildingError {
    /// The building has no floors.
    NoFloors,
    /// A connector referenced an unknown floor.
    UnknownFloor { connector: String, floor: FloorId },
    /// A connector endpoint lies outside every cell of its floor.
    EndpointOutsideFloor { connector: String, floor: FloorId },
    /// A connector's length is not positive and finite.
    InvalidLength { connector: String, length: f64 },
}

impl std::fmt::Display for BuildingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildingError::NoFloors => write!(f, "building has no floors"),
            BuildingError::UnknownFloor { connector, floor } => {
                write!(f, "connector {connector} references unknown {floor}")
            }
            BuildingError::EndpointOutsideFloor { connector, floor } => {
                write!(f, "connector {connector} endpoint lies outside every cell of {floor}")
            }
            BuildingError::InvalidLength { connector, length } => {
                write!(f, "connector {connector} has invalid length {length}")
            }
        }
    }
}

impl std::error::Error for BuildingError {}

/// A stack of floors joined by connectors.
#[derive(Debug)]
pub struct Building {
    floors: Vec<FloorPlan>,
    connectors: Vec<Connector>,
}

impl Building {
    /// Assembles a building, validating the connectors.
    pub fn new(
        floors: Vec<FloorPlan>,
        connectors: Vec<Connector>,
    ) -> Result<Building, BuildingError> {
        if floors.is_empty() {
            return Err(BuildingError::NoFloors);
        }
        for c in &connectors {
            if !(c.length > 0.0 && c.length.is_finite()) {
                return Err(BuildingError::InvalidLength {
                    connector: c.name.clone(),
                    length: c.length,
                });
            }
            for ep in [&c.a, &c.b] {
                let floor = floors.get(ep.floor.index()).ok_or(BuildingError::UnknownFloor {
                    connector: c.name.clone(),
                    floor: ep.floor,
                })?;
                if floor.locate(ep.position).is_none() {
                    return Err(BuildingError::EndpointOutsideFloor {
                        connector: c.name.clone(),
                        floor: ep.floor,
                    });
                }
            }
        }
        Ok(Building { floors, connectors })
    }

    /// The floors, indexed by [`FloorId`].
    pub fn floors(&self) -> &[FloorPlan] {
        &self.floors
    }

    /// A floor by id.
    pub fn floor(&self, id: FloorId) -> &FloorPlan {
        &self.floors[id.index()]
    }

    /// The vertical connectors.
    pub fn connectors(&self) -> &[Connector] {
        &self.connectors
    }

    /// Locates a point given its floor; `None` outside every cell.
    pub fn locate(&self, p: BuildingPoint) -> Option<crate::ids::CellId> {
        self.floor(p.floor).locate(p.position)
    }
}

/// Cross-floor indoor walking distances.
///
/// Builds one [`DistanceOracle`] per floor plus a small graph over
/// connector endpoints (all-pairs shortest paths via Floyd–Warshall — a
/// building has few connectors).
#[derive(Debug)]
pub struct BuildingDistanceOracle {
    floor_oracles: Vec<DistanceOracle>,
    /// Connector endpoints, two per connector: `(floor, position)`.
    nodes: Vec<BuildingPoint>,
    /// `dist[i * n + j]`: shortest walking distance between endpoints.
    dist: Vec<f64>,
}

impl BuildingDistanceOracle {
    /// Precomputes per-floor oracles and the endpoint graph.
    pub fn new(building: &Building) -> BuildingDistanceOracle {
        let floor_oracles: Vec<DistanceOracle> =
            building.floors().iter().map(DistanceOracle::new).collect();

        let mut nodes: Vec<BuildingPoint> = Vec::new();
        for c in building.connectors() {
            nodes.push(c.a);
            nodes.push(c.b);
        }
        let n = nodes.len();
        let mut dist = vec![f64::INFINITY; n * n];
        for i in 0..n {
            dist[i * n + i] = 0.0;
        }
        // Connector internal edges.
        for (ci, c) in building.connectors().iter().enumerate() {
            let (i, j) = (2 * ci, 2 * ci + 1);
            dist[i * n + j] = dist[i * n + j].min(c.length);
            dist[j * n + i] = dist[j * n + i].min(c.length);
        }
        // Same-floor edges via the floor oracle.
        for i in 0..n {
            for j in i + 1..n {
                if nodes[i].floor == nodes[j].floor {
                    if let Some(d) = floor_oracles[nodes[i].floor.index()].distance(
                        building.floor(nodes[i].floor),
                        nodes[i].position,
                        nodes[j].position,
                    ) {
                        dist[i * n + j] = dist[i * n + j].min(d);
                        dist[j * n + i] = dist[j * n + i].min(d);
                    }
                }
            }
        }
        // Floyd–Warshall closure.
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if !dik.is_finite() {
                    continue;
                }
                for j in 0..n {
                    let alt = dik + dist[k * n + j];
                    if alt < dist[i * n + j] {
                        dist[i * n + j] = alt;
                    }
                }
            }
        }
        BuildingDistanceOracle { floor_oracles, nodes, dist }
    }

    /// The per-floor distance oracle.
    pub fn floor_oracle(&self, floor: FloorId) -> &DistanceOracle {
        &self.floor_oracles[floor.index()]
    }

    /// Indoor walking distance between two building points, through
    /// connectors when the floors differ. `None` when either point is
    /// outside its floor's cells or no connector path exists.
    pub fn distance(&self, building: &Building, p: BuildingPoint, q: BuildingPoint) -> Option<f64> {
        if p.floor == q.floor {
            return self.floor_oracles[p.floor.index()].distance(
                building.floor(p.floor),
                p.position,
                q.position,
            );
        }
        let n = self.nodes.len();
        let mut best = f64::INFINITY;
        for (i, ni) in self.nodes.iter().enumerate() {
            if ni.floor != p.floor {
                continue;
            }
            let Some(leg1) = self.floor_oracles[p.floor.index()].distance(
                building.floor(p.floor),
                p.position,
                ni.position,
            ) else {
                continue;
            };
            if leg1 >= best {
                continue;
            }
            for (j, nj) in self.nodes.iter().enumerate() {
                if nj.floor != q.floor {
                    continue;
                }
                let through = self.dist[i * n + j];
                if !through.is_finite() || leg1 + through >= best {
                    continue;
                }
                if let Some(leg2) = self.floor_oracles[q.floor.index()].distance(
                    building.floor(q.floor),
                    nj.position,
                    q.position,
                ) {
                    best = best.min(leg1 + through + leg2);
                }
            }
        }
        if best.is_finite() {
            Some(best)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{CellKind, FloorPlanBuilder};
    use inflow_geometry::Polygon;

    /// One 20×4 corridor per floor.
    fn corridor_floor() -> FloorPlan {
        let mut b = FloorPlanBuilder::new();
        b.add_cell(
            "corridor",
            CellKind::Hallway,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(20.0, 4.0)),
        );
        b.build().unwrap()
    }

    fn bp(floor: u32, x: f64, y: f64) -> BuildingPoint {
        BuildingPoint { floor: FloorId(floor), position: Point::new(x, y) }
    }

    fn two_floor_building() -> Building {
        // Staircase at x = 18 joining the two corridors, 6 m of stairs.
        Building::new(
            vec![corridor_floor(), corridor_floor()],
            vec![Connector {
                name: "stairs-east".into(),
                a: bp(0, 18.0, 2.0),
                b: bp(1, 18.0, 2.0),
                length: 6.0,
            }],
        )
        .unwrap()
    }

    #[test]
    fn same_floor_distance_delegates_to_floor_oracle() {
        let building = two_floor_building();
        let oracle = BuildingDistanceOracle::new(&building);
        let d = oracle.distance(&building, bp(0, 1.0, 2.0), bp(0, 11.0, 2.0)).unwrap();
        assert!((d - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cross_floor_distance_goes_through_stairs() {
        let building = two_floor_building();
        let oracle = BuildingDistanceOracle::new(&building);
        // (2,2) floor 0 → stairs at (18,2): 16 m; stairs: 6 m; stairs →
        // (2,2) floor 1: 16 m.
        let d = oracle.distance(&building, bp(0, 2.0, 2.0), bp(1, 2.0, 2.0)).unwrap();
        assert!((d - 38.0).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn unconnected_floors_are_unreachable() {
        let building = Building::new(vec![corridor_floor(), corridor_floor()], Vec::new()).unwrap();
        let oracle = BuildingDistanceOracle::new(&building);
        assert_eq!(oracle.distance(&building, bp(0, 1.0, 1.0), bp(1, 1.0, 1.0)), None);
    }

    #[test]
    fn multiple_connectors_pick_the_shortest() {
        let building = Building::new(
            vec![corridor_floor(), corridor_floor()],
            vec![
                Connector {
                    name: "stairs-east".into(),
                    a: bp(0, 18.0, 2.0),
                    b: bp(1, 18.0, 2.0),
                    length: 6.0,
                },
                Connector {
                    name: "stairs-west".into(),
                    a: bp(0, 2.0, 2.0),
                    b: bp(1, 2.0, 2.0),
                    length: 6.0,
                },
            ],
        )
        .unwrap();
        let oracle = BuildingDistanceOracle::new(&building);
        // From (3,2): west stairs are 1 m away, east 15 m. Best: 1+6+1.
        let d = oracle.distance(&building, bp(0, 3.0, 2.0), bp(1, 3.0, 2.0)).unwrap();
        assert!((d - 8.0).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn three_floor_chain_composes() {
        let building = Building::new(
            vec![corridor_floor(), corridor_floor(), corridor_floor()],
            vec![
                Connector {
                    name: "s01".into(),
                    a: bp(0, 10.0, 2.0),
                    b: bp(1, 10.0, 2.0),
                    length: 5.0,
                },
                Connector {
                    name: "s12".into(),
                    a: bp(1, 10.0, 2.0),
                    b: bp(2, 10.0, 2.0),
                    length: 5.0,
                },
            ],
        )
        .unwrap();
        let oracle = BuildingDistanceOracle::new(&building);
        let d = oracle.distance(&building, bp(0, 10.0, 2.0), bp(2, 10.0, 2.0)).unwrap();
        assert!((d - 10.0).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(Building::new(Vec::new(), Vec::new()), Err(BuildingError::NoFloors)));
        let err = Building::new(
            vec![corridor_floor()],
            vec![Connector {
                name: "bad".into(),
                a: bp(0, 1.0, 1.0),
                b: bp(5, 1.0, 1.0),
                length: 3.0,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, BuildingError::UnknownFloor { .. }));
        let err = Building::new(
            vec![corridor_floor()],
            vec![Connector {
                name: "outside".into(),
                a: bp(0, 100.0, 1.0),
                b: bp(0, 1.0, 1.0),
                length: 3.0,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, BuildingError::EndpointOutsideFloor { .. }));
        let err = Building::new(
            vec![corridor_floor()],
            vec![Connector {
                name: "zero".into(),
                a: bp(0, 1.0, 1.0),
                b: bp(0, 2.0, 1.0),
                length: 0.0,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, BuildingError::InvalidLength { .. }));
    }

    #[test]
    fn building_point_location() {
        let building = two_floor_building();
        assert!(building.locate(bp(0, 1.0, 1.0)).is_some());
        assert!(building.locate(bp(1, 25.0, 1.0)).is_none());
    }
}
