//! 2D computational geometry substrate for symbolic indoor tracking analytics.
//!
//! This crate provides the geometric machinery required by the EDBT 2016
//! paper *Finding Frequently Visited Indoor POIs Using Symbolic Indoor
//! Tracking Data*:
//!
//! * primitive types — [`Point`], [`Vec2`], [`Segment`], [`Mbr`];
//! * detection-range shapes — [`Circle`], annular [`Ring`]s, and the
//!   Pfoser–Jensen [`ExtendedEllipse`] bounding an object's location between
//!   two consecutive proximity detections;
//! * [`Polygon`]s modelling POI extents and room footprints, with exact area
//!   and point-containment tests;
//! * a composable [`Region`] abstraction (intersection / union / difference)
//!   used to express uncertainty regions, whose members can classify whole
//!   rectangles ([`Region::classify`]), together with a deterministic
//!   adaptive-grid integrator ([`area_in_polygon`]) that measures
//!   `area(region ∩ polygon)` — the quantity at the heart of the paper's
//!   *object presence* definition (Definition 1), and its twin for bounded
//!   scalar fields ([`field_in_polygon`]), which integrates an object's
//!   time-in-region over a POI for long-visit dwell;
//! * exact circle–polygon intersection area ([`circle_polygon_area`]), the
//!   analytic ground truth the grid integrator is validated against.
//!
//! All coordinates are `f64` metres. The crate is dependency-free.

pub mod area;
pub mod circle;
pub mod ellipse;
pub mod mbr;
pub mod point;
pub mod polygon;
pub mod region;
pub mod ring;
pub mod segment;

pub use area::{
    area_in_polygon, area_in_window, area_of_region, field_in_polygon, integration_probes, Field,
    FieldBounds, GridResolution,
};
pub use circle::{circle_circle_intersection_area, circle_polygon_area, Circle};
pub use ellipse::ExtendedEllipse;
pub use mbr::Mbr;
pub use point::{Point, Vec2};
pub use polygon::Polygon;
pub use region::{
    all_of, any_of, classify_at_most, BoxedRegion, EmptyRegion, HalfPlane, Region,
    RegionDifference, RegionIntersection, RegionUnion,
};
pub use ring::Ring;
pub use segment::Segment;

/// Geometric tolerance used by predicates throughout the crate.
///
/// Coordinates are metres, so `1e-9` is a nanometre — far below any
/// physically meaningful distance in an indoor space.
pub const EPS: f64 = 1e-9;
