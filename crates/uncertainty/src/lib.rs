//! Uncertainty-region derivation for symbolic indoor tracking (paper §3).
//!
//! Symbolic tracking data only captures an object's location while it is
//! inside some device's detection range; between detections the object's
//! location is uncertain. This crate derives, for a given object and time
//! parameter, the region where the object *can possibly be*:
//!
//! * **snapshot** uncertainty regions `UR(o, t)` — the active and inactive
//!   cases of §3.1.2 (Figure 2), built from detection disks and
//!   maximum-speed rings;
//! * **interval** uncertainty regions `UR(o, [t_s, t_e])` — the four cases
//!   of §3.2 (Table 3, Figures 4–7), built from chains of Pfoser–Jensen
//!   extended ellipses with ring clipping at inactive endpoints;
//! * the **indoor topology check** of §3.3: membership additionally
//!   requires the *indoor walking distance* from the anchoring devices to
//!   stay within the maximum-speed budget, excluding parts of space that
//!   are Euclidean-near but unreachable through doors (Figure 8);
//! * **dwell pieces** ([`DwellPiece`]): between two record boundaries, the
//!   time each point spends in `UR(o, t)` as a bounded field, which
//!   long-visit queries integrate once per piece instead of sampling
//!   snapshot regions.
//!
//! The central entry point is [`UrEngine`]; the result type is
//! [`UncertaintyRegion`], a composable [`inflow_geometry::Region`] carrying
//! the per-segment small MBRs used by the improved interval join algorithm
//! (§4.3.2, Figure 9).
//!
//! ## Fidelity notes
//!
//! * The paper's Case 2 formula degenerates when the first record after
//!   `t_s` is also the record covering `t_e` (the in-between union is
//!   empty, dropping the detection disk the object certainly occupies).
//!   This implementation always unions in the detection disk of every
//!   record overlapping the query interval, which matches the
//!   prose definition of `UR(o, [t_s, t_e])`.
//! * Objects are treated as untracked before their first and after their
//!   last OTT record (the paper leaves both unspecified); an interval UR
//!   simply starts/ends at the first/last overlapping record.

pub mod context;
pub mod engine;
pub mod piece;
pub mod regions;

pub use context::IndoorContext;
pub use engine::{
    IntervalChain, RestrictedUr, UncertaintyRegion, UrConfig, UrEngine, DWELL_EPSILON,
};
pub use piece::DwellPiece;
pub use regions::{ConstrainedRing, ConstrainedTheta, HostCell, IndoorAnchor};
