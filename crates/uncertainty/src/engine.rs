//! The uncertainty-region engine: snapshot and interval derivation.

use crate::context::IndoorContext;
use crate::piece::DwellPiece;
use crate::regions::{ConstrainedRing, ConstrainedTheta, HostCell, IndoorAnchor};
use inflow_geometry::{
    all_of, any_of, area_in_polygon, field_in_polygon, Circle, ExtendedEllipse, GridResolution,
    Mbr, Point, Region, Ring,
};
use inflow_indoor::{DeviceId, FloorPlan, Poi};
use inflow_tracking::{ObjectId, ObjectState, ObjectTrackingTable, Timestamp};
use std::sync::Arc;

/// How far apart, relative to the piece length, the bounds of the time
/// field may be on a grid block that [`UrEngine::dwell`] prices at their
/// midpoint instead of refining: such a block is off by at most
/// `DWELL_EPSILON / 2 · (b − a)` per unit area. A fixed property of the
/// quadrature, like the grid itself, not a query parameter.
pub const DWELL_EPSILON: f64 = 0.05;

/// Configuration of uncertainty-region derivation and presence
/// integration.
#[derive(Debug, Clone, Copy)]
pub struct UrConfig {
    /// Maximum speed `V_max` of indoor moving objects (m/s). The paper's
    /// experiments use 1.1 m/s for both movement and `V_max`.
    pub vmax: f64,
    /// Whether to apply the §3.3 indoor topology check.
    pub topology_check: bool,
    /// Grid resolution for presence integration.
    pub resolution: GridResolution,
    /// Coarse object-MBR estimation for the snapshot join (Algorithm 2,
    /// line 8): `true` reproduces the paper's merge (union) of the two
    /// extended device MBRs; `false` uses their tighter intersection.
    pub paper_coarse_mbr: bool,
}

impl Default for UrConfig {
    fn default() -> Self {
        UrConfig {
            vmax: 1.1,
            topology_check: true,
            resolution: GridResolution::DEFAULT,
            paper_coarse_mbr: true,
        }
    }
}

/// One shape a segment intersects: a detection disk, a (constrained)
/// ring, or a (constrained) extended ellipse.
enum Piece {
    Disk(Circle),
    Ring(ConstrainedRing),
    Theta(ConstrainedTheta),
}

impl Piece {
    fn contains(&self, p: Point, host: Option<&HostCell>) -> bool {
        match self {
            Piece::Disk(c) => c.contains(p),
            Piece::Ring(r) => r.contains_in(p, host),
            Piece::Theta(t) => t.contains_in(p, host),
        }
    }

    fn classify(&self, b: &Mbr, host: Option<&HostCell>) -> Option<bool> {
        match self {
            Piece::Disk(c) => Region::classify(c, b),
            Piece::Ring(r) => r.classify_in(b, host),
            Piece::Theta(t) => t.classify_in(b, host),
        }
    }
}

/// One segment of an uncertainty region: the intersection of its pieces,
/// inside its small MBR.
struct Segment {
    mbr: Mbr,
    pieces: Vec<Piece>,
}

impl Segment {
    fn contains(&self, p: Point, host: Option<&HostCell>) -> bool {
        self.mbr.contains(p) && self.pieces.iter().all(|x| x.contains(p, host))
    }

    fn classify(&self, b: &Mbr, host: Option<&HostCell>) -> Option<bool> {
        match self.mbr.classify(b) {
            Some(false) => Some(false),
            g => all_of(std::iter::once(g).chain(self.pieces.iter().map(|x| x.classify(b, host)))),
        }
    }
}

/// An object's uncertainty region: a union of *segments* — detection
/// disks and inter-detection ellipses — each carrying its small MBR
/// (§4.3.2, Figure 9). Snapshot regions consist of a single segment.
///
/// Keeping the segments explicit serves two purposes: the improved
/// interval join checks POI entries against the small MBRs
/// ([`UncertaintyRegion::any_segment_intersects`]), and presence
/// integration restricts membership tests to the segments near the POI
/// rather than scanning the whole trajectory per probe.
pub struct UncertaintyRegion {
    segments: Vec<Segment>,
    mbr: Mbr,
}

impl UncertaintyRegion {
    /// Builds a region from its segments.
    fn from_segments(segments: Vec<Segment>) -> UncertaintyRegion {
        let mbr = segments.iter().fold(Mbr::EMPTY, |m, s| m.union(&s.mbr));
        UncertaintyRegion { segments, mbr }
    }

    /// The region containing no points (e.g. from inconsistent data).
    pub fn empty() -> UncertaintyRegion {
        UncertaintyRegion { segments: Vec::new(), mbr: Mbr::EMPTY }
    }

    /// Whether the region is certainly empty.
    pub fn is_empty(&self) -> bool {
        self.mbr.is_empty()
    }

    /// Number of segments (detection disks + inter-detection ellipses).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The per-segment small MBRs, in segment order.
    pub fn segment_mbrs(&self) -> impl Iterator<Item = Mbr> + '_ {
        self.segments.iter().map(|s| s.mbr)
    }

    /// Whether any small MBR intersects `query` — the finer-grained check
    /// of the improved interval join (§4.3.2).
    pub fn any_segment_intersects(&self, query: &Mbr) -> bool {
        self.segments.iter().any(|s| s.mbr.intersects(query))
    }

    /// A view of the region restricted to segments whose MBRs intersect
    /// `window`; integrating over this view is equivalent to integrating
    /// the full region against any polygon inside `window`.
    pub fn restricted_to(&self, window: &Mbr) -> RestrictedUr<'_> {
        let segments: Vec<&Segment> =
            self.segments.iter().filter(|s| s.mbr.intersects(window)).collect();
        let mbr = segments.iter().fold(Mbr::EMPTY, |m, s| m.union(&s.mbr));
        RestrictedUr { segments, mbr, host: None }
    }

    /// The view presence integrates against `poi`: [`restricted_to`] the
    /// POI's MBR, with the POI's [`HostCell`] when the plan has one. The
    /// same point set and, over the POI, the same block verdicts as
    /// `restricted_to`, found without searching the plan.
    ///
    /// [`restricted_to`]: UncertaintyRegion::restricted_to
    pub fn restricted_to_poi(&self, plan: &FloorPlan, poi: &Poi) -> RestrictedUr<'_> {
        RestrictedUr { host: HostCell::of_poi(plan, poi), ..self.restricted_to(&poi.mbr()) }
    }
}

impl Region for UncertaintyRegion {
    fn contains(&self, p: Point) -> bool {
        self.mbr.contains(p) && self.segments.iter().any(|s| s.contains(p, None))
    }
    fn mbr(&self) -> Mbr {
        self.mbr
    }
    fn is_empty_hint(&self) -> bool {
        self.is_empty()
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        match self.mbr.classify(b) {
            Some(false) => Some(false),
            g => all_of([g, any_of(self.segments.iter().map(|s| s.classify(b, None)))]),
        }
    }
}

/// A borrow of the segments of an [`UncertaintyRegion`] relevant to one
/// integration window ([`UncertaintyRegion::restricted_to`]), with the
/// window's host cell when it has one
/// ([`UncertaintyRegion::restricted_to_poi`]).
pub struct RestrictedUr<'a> {
    segments: Vec<&'a Segment>,
    mbr: Mbr,
    host: Option<HostCell>,
}

impl Region for RestrictedUr<'_> {
    fn contains(&self, p: Point) -> bool {
        self.segments.iter().any(|s| s.contains(p, self.host.as_ref()))
    }
    fn mbr(&self) -> Mbr {
        self.mbr
    }
    fn classify(&self, b: &Mbr) -> Option<bool> {
        any_of(self.segments.iter().map(|s| s.classify(b, self.host.as_ref())))
    }
}

/// The resolved record chain of an interval query (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalChain {
    /// The chain `rd_s, …, rd_e` in chronological order.
    pub records: Vec<inflow_tracking::RecordId>,
    /// Object inactive at `t_s` (`rd_s = rd_pre(t_s)`; Cases 2 and 4).
    pub start_inactive: bool,
    /// Object inactive at `t_e` (`rd_e = rd_suc(t_e)`; Cases 3 and 4).
    pub end_inactive: bool,
}

/// Derives uncertainty regions and presences over a fixed indoor context.
pub struct UrEngine {
    ctx: Arc<IndoorContext>,
    cfg: UrConfig,
}

impl UrEngine {
    /// Creates an engine over `ctx` with configuration `cfg`.
    pub fn new(ctx: Arc<IndoorContext>, cfg: UrConfig) -> UrEngine {
        assert!(cfg.vmax > 0.0, "V_max must be positive");
        UrEngine { ctx, cfg }
    }

    /// The indoor context.
    pub fn context(&self) -> &Arc<IndoorContext> {
        &self.ctx
    }

    /// The configuration.
    pub fn config(&self) -> &UrConfig {
        &self.cfg
    }

    fn device_circle(&self, id: DeviceId) -> Circle {
        self.ctx.plan().device(id).detection_circle()
    }

    fn ring_region(&self, device: DeviceId, extension: f64) -> ConstrainedRing {
        if self.cfg.topology_check {
            ConstrainedRing::indoor(IndoorAnchor::device(&self.ctx, device), extension)
        } else {
            ConstrainedRing::euclidean(Ring::new(self.device_circle(device), extension))
        }
    }

    fn theta_region(&self, from: DeviceId, to: DeviceId, budget: f64) -> ConstrainedTheta {
        if self.cfg.topology_check {
            ConstrainedTheta::indoor(
                IndoorAnchor::device(&self.ctx, from),
                IndoorAnchor::device(&self.ctx, to),
                budget,
            )
        } else {
            ConstrainedTheta::euclidean(ExtendedEllipse::new(
                self.device_circle(from),
                self.device_circle(to),
                budget,
            ))
        }
    }

    /// Snapshot uncertainty region `UR(o, t)` for a resolved object state
    /// (§3.1.2, Figure 2).
    pub fn snapshot_ur(
        &self,
        ott: &ObjectTrackingTable,
        state: ObjectState,
        t: Timestamp,
    ) -> UncertaintyRegion {
        let (mbr, pieces) = match state {
            ObjectState::Active { cov, pre } => {
                let cov_rec = ott.record(cov);
                let cov_circle = self.device_circle(cov_rec.device);
                match pre {
                    // Case 1: UR = Ring(dev_pre, V_max·(t − rd_pre.t_e)) ∩
                    // dev_cov.range. Degenerates to the detection disk when
                    // there is no predecessor or the object re-entered the
                    // same device (where the ring's inner exclusion would
                    // wrongly empty the region).
                    Some(p) if ott.record(p).device != cov_rec.device => {
                        let pre_rec = ott.record(p);
                        let ring =
                            self.ring_region(pre_rec.device, self.cfg.vmax * (t - pre_rec.te));
                        let mbr = cov_circle.mbr().intersection(&ring.mbr());
                        (mbr, vec![Piece::Disk(cov_circle), Piece::Ring(ring)])
                    }
                    _ => (cov_circle.mbr(), vec![Piece::Disk(cov_circle)]),
                }
            }
            // Case 2: UR = Ring(dev_pre, V_max·(t − rd_pre.t_e)) ∩
            // Ring(dev_suc, V_max·(rd_suc.t_s − t)).
            ObjectState::Inactive { pre, suc } => {
                let pre_rec = ott.record(pre);
                let suc_rec = ott.record(suc);
                let ring_pre = self.ring_region(pre_rec.device, self.cfg.vmax * (t - pre_rec.te));
                let ring_suc = self.ring_region(suc_rec.device, self.cfg.vmax * (suc_rec.ts - t));
                let mbr = ring_pre.mbr().intersection(&ring_suc.mbr());
                (mbr, vec![Piece::Ring(ring_pre), Piece::Ring(ring_suc)])
            }
        };
        if mbr.is_empty() {
            return UncertaintyRegion::empty();
        }
        UncertaintyRegion::from_segments(vec![Segment { mbr, pieces }])
    }

    /// The uncertainty of a resolved object state over the piece `[a, b]`
    /// it holds throughout (no record boundary strictly inside): the field
    /// of time spent in `UR(o, t)`, `t ∈ [a, b]`, with the same cases as
    /// [`UrEngine::snapshot_ur`] — an active record's disk, cut by the
    /// predecessor's ring unless the object re-entered the same device,
    /// and an inactive gap's two rings.
    pub fn dwell_piece(
        &self,
        ott: &ObjectTrackingTable,
        state: ObjectState,
        a: Timestamp,
        b: Timestamp,
    ) -> DwellPiece {
        let (ctx, topology, vmax) = (&self.ctx, self.cfg.topology_check, self.cfg.vmax);
        match state {
            ObjectState::Active { cov, pre } => {
                let cov = ott.record(cov).device;
                let pre = pre
                    .map(|p| ott.record(p))
                    .filter(|p| p.device != cov)
                    .map(|p| (p.device, p.te));
                DwellPiece::active(ctx, topology, vmax, (a, b), cov, pre)
            }
            ObjectState::Inactive { pre, suc } => {
                let (pre, suc) = (ott.record(pre), ott.record(suc));
                DwellPiece::inactive(
                    ctx,
                    topology,
                    vmax,
                    (a, b),
                    (pre.device, pre.te),
                    (suc.device, suc.ts),
                )
            }
        }
    }

    /// The coarse snapshot MBR of Algorithm 2 (lines 5–10), computed
    /// without building the region: the detection-range MBR when active,
    /// the merge of the two speed-extended device MBRs when inactive.
    pub fn snapshot_mbr_coarse(
        &self,
        ott: &ObjectTrackingTable,
        state: ObjectState,
        t: Timestamp,
    ) -> Mbr {
        match state {
            ObjectState::Active { cov, .. } => self.device_circle(ott.record(cov).device).mbr(),
            ObjectState::Inactive { pre, suc } => {
                let pre_rec = ott.record(pre);
                let suc_rec = ott.record(suc);
                let m1 = self
                    .device_circle(pre_rec.device)
                    .mbr()
                    .expanded(self.cfg.vmax * (t - pre_rec.te));
                let m2 = self
                    .device_circle(suc_rec.device)
                    .mbr()
                    .expanded(self.cfg.vmax * (suc_rec.ts - t));
                if self.cfg.paper_coarse_mbr {
                    m1.union(&m2)
                } else {
                    m1.intersection(&m2)
                }
            }
        }
    }

    /// The per-object record chain backing an interval query: the start
    /// and end records per Table 3 and whether the query endpoints fall in
    /// inactive gaps (which triggers the ring clipping of Cases 2–4).
    ///
    /// Exposed for inspection and testing; [`UrEngine::interval_ur`] is
    /// the consumer.
    pub fn interval_chain(
        &self,
        ott: &ObjectTrackingTable,
        object: ObjectId,
        ts: Timestamp,
        te: Timestamp,
    ) -> Option<IntervalChain> {
        debug_assert!(ts <= te, "query interval must be ordered");
        let chain = ott.object_records(object);
        if chain.is_empty() {
            return None;
        }
        let first = ott.record(chain[0]);
        let last = ott.record(chain[chain.len() - 1]);

        // Resolve the start record rd_s and end record rd_e per Table 3,
        // extended with the untracked-boundary convention (see crate docs).
        let (si, start_inactive) = match ott.state_at(object, ts) {
            Some(ObjectState::Active { cov, .. }) => (ott.chain_position(cov), false),
            Some(ObjectState::Inactive { pre, .. }) => (ott.chain_position(pre), true),
            None => {
                if ts < first.ts {
                    (0, false)
                } else {
                    // ts is after the object's last detection.
                    return None;
                }
            }
        };
        let (ei, end_inactive) = match ott.state_at(object, te) {
            Some(ObjectState::Active { cov, .. }) => (ott.chain_position(cov), false),
            Some(ObjectState::Inactive { suc, .. }) => (ott.chain_position(suc), true),
            None => {
                if te > last.te {
                    (chain.len() - 1, false)
                } else {
                    // te is before the object's first detection.
                    return None;
                }
            }
        };
        if ei < si {
            return None;
        }
        Some(IntervalChain { records: chain[si..=ei].to_vec(), start_inactive, end_inactive })
    }

    /// Interval uncertainty region `UR(o, [t_s, t_e])` (§3.2, Cases 1–4).
    ///
    /// Returns `None` when the object's tracked lifetime does not overlap
    /// the query interval at all; returns an empty region when the data is
    /// inconsistent (gaps not bridgeable at `V_max`).
    pub fn interval_ur(
        &self,
        ott: &ObjectTrackingTable,
        object: ObjectId,
        ts: Timestamp,
        te: Timestamp,
    ) -> Option<UncertaintyRegion> {
        let IntervalChain { records, start_inactive, end_inactive } =
            self.interval_chain(ott, object, ts, te)?;
        let recs: Vec<_> = records.iter().map(|&rid| *ott.record(rid)).collect();
        let mut segments = Vec::new();

        // Detection disks of records overlapping the query interval: the
        // object is certainly within range while detected. Revisited
        // devices contribute one disk each (deduplicated).
        let mut seen_devices: Vec<DeviceId> = Vec::new();
        for r in &recs {
            if r.ts <= te && r.te >= ts && !seen_devices.contains(&r.device) {
                seen_devices.push(r.device);
                let circle = self.device_circle(r.device);
                segments.push(Segment { mbr: circle.mbr(), pieces: vec![Piece::Disk(circle)] });
            }
        }

        // Inter-detection extended ellipses, with ring clipping at
        // inactive endpoints (Cases 2–4).
        let pair_count = recs.len().saturating_sub(1);
        for i in 0..pair_count {
            let a = &recs[i];
            let b = &recs[i + 1];
            let theta = self.theta_region(a.device, b.device, self.cfg.vmax * (b.ts - a.te));
            if theta.theta().is_empty() {
                // Inconsistent data: the object cannot have bridged the
                // gap at V_max. Skip the segment.
                continue;
            }
            let mut mbr = theta.mbr();
            let mut pieces = vec![Piece::Theta(theta)];
            if i == 0 && start_inactive {
                // Θ_s ∩ Ring(dev_b, V_max·(rd_b.t_s − t_s)): positions at
                // t_s must still reach the next detection in time.
                let ring = self.ring_region(b.device, self.cfg.vmax * (b.ts - ts));
                mbr = mbr.intersection(&ring.mbr());
                pieces.push(Piece::Ring(ring));
            }
            if i + 1 == pair_count && end_inactive {
                // Θ_e ∩ Ring(dev_b, V_max·(t_e − rd_b.t_e)): positions at
                // t_e must be reachable from the last detection.
                let ring = self.ring_region(a.device, self.cfg.vmax * (te - a.te));
                mbr = mbr.intersection(&ring.mbr());
                pieces.push(Piece::Ring(ring));
            }
            if !mbr.is_empty() {
                segments.push(Segment { mbr, pieces });
            }
        }

        Some(UncertaintyRegion::from_segments(segments))
    }

    /// The probability that the object lies inside `poi`, assuming a
    /// uniform distribution over its uncertainty region:
    /// `area(UR ∩ p) / area(UR)`.
    ///
    /// Contrast with [`UrEngine::presence`] (Definition 1), which
    /// normalizes by the *POI's* area: presence is the paper's coverage
    /// measure and can approach 1 for every small POI inside a large UR,
    /// while `probability_in` sums to at most 1 over disjoint POIs and is
    /// the measure density analysis builds on.
    pub fn probability_in(&self, ur: &UncertaintyRegion, poi: &Poi) -> f64 {
        if ur.is_empty() || !ur.mbr().intersects(&poi.mbr()) {
            return 0.0;
        }
        let total = inflow_geometry::area_of_region(ur, self.cfg.resolution);
        if total <= f64::EPSILON {
            return 0.0;
        }
        let view = ur.restricted_to_poi(self.ctx.plan(), poi);
        if view.mbr.is_empty() {
            return 0.0;
        }
        let inter = area_in_polygon(&view, poi.extent(), self.cfg.resolution);
        (inter / total).clamp(0.0, 1.0)
    }

    /// The expected time the object spends in `poi` over the piece,
    /// `∫ presence dt = (1/|p|) ∫_p T(q) dq`, clamped to `[0, b − a]`: one
    /// [`field_in_polygon`] integration at the configured resolution and
    /// tolerance [`DWELL_EPSILON`]` · (b − a)`.
    pub fn dwell(&self, piece: &DwellPiece, poi: &Poi) -> f64 {
        if piece.is_empty() || !piece.mbr().intersects(&poi.mbr()) {
            return 0.0;
        }
        let (a, b) = piece.span();
        let field = piece.field(HostCell::of_poi(self.ctx.plan(), poi));
        let inter =
            field_in_polygon(&field, poi.extent(), self.cfg.resolution, DWELL_EPSILON * (b - a));
        (inter / poi.area()).clamp(0.0, b - a)
    }

    /// The object presence `φ(o) = area(UR ∩ p) / area(p)` (Definition 1),
    /// clamped to `[0, 1]`.
    pub fn presence(&self, ur: &UncertaintyRegion, poi: &Poi) -> f64 {
        if ur.is_empty() || !ur.mbr().intersects(&poi.mbr()) {
            return 0.0;
        }
        // Restrict to the segments near the POI: integrating a 100-segment
        // trajectory against an 8 m shop only ever touches a handful of
        // them. The POI's host cell spares each probe the point location.
        let view = ur.restricted_to_poi(self.ctx.plan(), poi);
        if view.mbr.is_empty() {
            return 0.0;
        }
        let inter = area_in_polygon(&view, poi.extent(), self.cfg.resolution);
        (inter / poi.area()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflow_geometry::Polygon;
    use inflow_indoor::{CellKind, FloorPlan, FloorPlanBuilder};
    use inflow_tracking::OttRow;

    /// A 20×4 corridor modelled as a single hallway cell, with devices at
    /// x = 2, 8, 14 (range 1 m), and one room above the corridor connected
    /// by a door.
    fn plan() -> FloorPlan {
        let mut b = FloorPlanBuilder::new();
        let hall = b.add_cell(
            "hall",
            CellKind::Hallway,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(20.0, 4.0)),
        );
        let room = b.add_cell(
            "room",
            CellKind::Room,
            Polygon::rectangle(Point::new(8.0, 4.0), Point::new(12.0, 8.0)),
        );
        b.add_door("door", Point::new(8.2, 4.0), hall, room);
        b.add_device("dev0", Point::new(2.0, 2.0), 1.0);
        b.add_device("dev1", Point::new(8.0, 2.0), 1.0);
        b.add_device("dev2", Point::new(14.0, 2.0), 1.0);
        b.add_poi("poi-hall", Polygon::rectangle(Point::new(4.0, 0.0), Point::new(7.0, 4.0)));
        b.add_poi("poi-room", Polygon::rectangle(Point::new(8.5, 5.0), Point::new(11.5, 7.5)));
        b.build().unwrap()
    }

    fn engine(topology: bool) -> UrEngine {
        let cfg = UrConfig { vmax: 1.0, topology_check: topology, ..UrConfig::default() };
        UrEngine::new(Arc::new(IndoorContext::new(plan())), cfg)
    }

    fn row(o: u32, d: u32, ts: f64, te: f64) -> OttRow {
        OttRow { object: ObjectId(o), device: inflow_indoor::DeviceId(d), ts, te }
    }

    /// Object 1 walks dev0 → dev1 → dev2 along the corridor.
    fn walking_ott() -> ObjectTrackingTable {
        ObjectTrackingTable::from_rows(vec![
            row(1, 0, 0.0, 2.0),
            row(1, 1, 6.0, 8.0),
            row(1, 2, 12.0, 14.0),
        ])
        .unwrap()
    }

    #[test]
    fn snapshot_active_without_pred_is_detection_disk() {
        let eng = engine(false);
        let ott = walking_ott();
        let state = ott.state_at(ObjectId(1), 1.0).unwrap();
        let ur = eng.snapshot_ur(&ott, state, 1.0);
        assert!(ur.contains(Point::new(2.0, 2.0)));
        assert!(ur.contains(Point::new(2.9, 2.0)));
        assert!(!ur.contains(Point::new(3.5, 2.0)));
        assert_eq!(ur.segment_count(), 1);
    }

    #[test]
    fn snapshot_active_with_pred_intersects_ring() {
        let eng = engine(false);
        let ott = walking_ott();
        // t = 7: active at dev1, left dev0 at t=2 → ring extension 5.
        let state = ott.state_at(ObjectId(1), 7.0).unwrap();
        let ur = eng.snapshot_ur(&ott, state, 7.0);
        // dev1 disk reaches x ∈ [7, 9]; ring around dev0 (r=1, ext=5)
        // reaches x ≤ 2 + 6 = 8.
        assert!(ur.contains(Point::new(7.5, 2.0)));
        assert!(!ur.contains(Point::new(8.5, 2.0)), "beyond the V_max ring");
    }

    #[test]
    fn snapshot_inactive_is_ring_intersection() {
        let eng = engine(false);
        let ott = walking_ott();
        // t = 4: inactive between dev0 (left at 2) and dev1 (entered at 6).
        let state = ott.state_at(ObjectId(1), 4.0).unwrap();
        let ur = eng.snapshot_ur(&ott, state, 4.0);
        // Ring(dev0, 2) → 1 < |p − (2,2)| ≤ 3; Ring(dev1, 2) → 1 < |p − (8,2)| ≤ 3.
        assert!(ur.contains(Point::new(5.0, 2.0))); // 3 from each center
        assert!(!ur.contains(Point::new(2.5, 2.0))); // too far from dev1
        assert!(!ur.contains(Point::new(8.5, 2.0))); // inside dev1's range? no: too far from dev0
        assert!(!ur.contains(Point::new(2.0, 2.0))); // inside dev0's range
    }

    #[test]
    fn snapshot_inconsistent_timing_gives_empty() {
        let eng = engine(false);
        // Object teleports: leaves dev0 at t=2, seen at dev2 (12 m away) at
        // t=3 with V_max=1 → rings cannot intersect.
        let ott =
            ObjectTrackingTable::from_rows(vec![row(1, 0, 0.0, 2.0), row(1, 2, 3.0, 4.0)]).unwrap();
        let state = ott.state_at(ObjectId(1), 2.5).unwrap();
        let ur = eng.snapshot_ur(&ott, state, 2.5);
        assert!(ur.is_empty());
    }

    #[test]
    fn snapshot_same_device_reentry_keeps_disk() {
        let eng = engine(false);
        let ott =
            ObjectTrackingTable::from_rows(vec![row(1, 1, 0.0, 2.0), row(1, 1, 5.0, 7.0)]).unwrap();
        let state = ott.state_at(ObjectId(1), 6.0).unwrap();
        let ur = eng.snapshot_ur(&ott, state, 6.0);
        assert!(ur.contains(Point::new(8.0, 2.0)), "detection disk must survive re-entry");
    }

    #[test]
    fn interval_case1_active_both_ends() {
        let eng = engine(false);
        let ott = walking_ott();
        // [1, 13]: active at both ends (dev0 covers 1, dev2 covers 13).
        let ur = eng.interval_ur(&ott, ObjectId(1), 1.0, 13.0).unwrap();
        // All three detection disks present.
        assert!(ur.contains(Point::new(2.0, 2.0)));
        assert!(ur.contains(Point::new(8.0, 2.0)));
        assert!(ur.contains(Point::new(14.0, 2.0)));
        // Ellipse between dev0 and dev1 covers the corridor mid-point.
        assert!(ur.contains(Point::new(5.0, 2.0)));
        // Far outside any segment.
        assert!(!ur.contains(Point::new(19.5, 0.2)));
        // 3 disks + 2 ellipses.
        assert_eq!(ur.segment_count(), 5);
    }

    #[test]
    fn interval_case2_inactive_start_ring_clips() {
        let eng = engine(false);
        let ott = walking_ott();
        // [5, 7]: inactive at ts=5 (between dev0 and dev1), active at te=7.
        let ur = eng.interval_ur(&ott, ObjectId(1), 5.0, 7.0).unwrap();
        // Ring_s = Ring(dev1, V_max·(6 − 5) = 1): at t_s the object is at
        // most 1 m from dev1's range boundary, so ≤ 2 m from (8,2).
        assert!(ur.contains(Point::new(6.5, 2.0)));
        assert!(!ur.contains(Point::new(4.0, 2.0)), "too far from dev1 to arrive by t=6");
        // The dev1 disk itself is included (the object is detected there
        // during [6, 7] ⊂ [5, 7]) — the paper's Case 2 omission fixed.
        assert!(ur.contains(Point::new(8.0, 2.0)));
        // dev0's disk must NOT be included: the object left it before t_s.
        assert!(!ur.contains(Point::new(1.2, 2.0)));
    }

    #[test]
    fn interval_case3_inactive_end_ring_clips() {
        let eng = engine(false);
        let ott = walking_ott();
        // [7, 9]: active at ts=7 (dev1), inactive at te=9 (before dev2).
        let ur = eng.interval_ur(&ott, ObjectId(1), 7.0, 9.0).unwrap();
        // Ring_e = Ring(dev1, V_max·(9 − 8) = 1): reachable ≤ 2 m from dev1.
        assert!(ur.contains(Point::new(8.0, 2.0))); // the disk itself
        assert!(ur.contains(Point::new(9.5, 2.0)));
        assert!(!ur.contains(Point::new(11.0, 2.0)), "beyond Ring_e at te");
        // dev2's disk not included (first seen there at t=12 > te).
        assert!(!ur.contains(Point::new(14.5, 2.0)));
    }

    #[test]
    fn interval_case4_inactive_both_ends() {
        let eng = engine(false);
        let ott = walking_ott();
        // [3, 5]: wholly inside the dev0→dev1 gap.
        let ur = eng.interval_ur(&ott, ObjectId(1), 3.0, 5.0).unwrap();
        // Ring_s = Ring(dev1, 1·(6−3)=3) and Ring_e = Ring(dev0, 1·(5−2)=3).
        assert!(ur.contains(Point::new(5.0, 2.0)));
        // Neither detection disk is included.
        assert!(!ur.contains(Point::new(2.0, 2.0)));
        assert!(!ur.contains(Point::new(8.0, 2.0)));
        // Beyond Ring_e: cannot be 5 m from dev0's boundary at te=5.
        assert!(!ur.contains(Point::new(7.5, 2.0)));
        assert_eq!(ur.segment_count(), 1);
    }

    #[test]
    fn interval_outside_lifetime_is_none() {
        let eng = engine(false);
        let ott = walking_ott();
        assert!(eng.interval_ur(&ott, ObjectId(1), 20.0, 30.0).is_none());
        assert!(eng.interval_ur(&ott, ObjectId(1), -5.0, -1.0).is_none());
        assert!(eng.interval_ur(&ott, ObjectId(9), 1.0, 2.0).is_none());
    }

    #[test]
    fn interval_clipped_to_lifetime_boundaries() {
        let eng = engine(false);
        let ott = walking_ott();
        // Query starts before the first record and ends after the last.
        let ur = eng.interval_ur(&ott, ObjectId(1), -10.0, 100.0).unwrap();
        assert!(ur.contains(Point::new(2.0, 2.0)));
        assert!(ur.contains(Point::new(14.0, 2.0)));
        assert_eq!(ur.segment_count(), 5);
    }

    #[test]
    fn topology_check_excludes_room_behind_wall() {
        // Figure 8 scenario: an inactive object between dev0 and dev1 in
        // the corridor. Without topology the UR pokes into the room above
        // the wall; with topology the room is excluded because walking
        // there requires the door at (10, 4), far beyond the budget.
        let ott = ObjectTrackingTable::from_rows(vec![
            row(1, 1, 0.0, 2.0),  // dev1 at (8,2)
            row(1, 2, 8.0, 10.0), // dev2 at (14,2)
        ])
        .unwrap();
        let t = 5.0;
        let state = ott.state_at(ObjectId(1), t).unwrap();

        let eng_euclid = engine(false);
        let eng_topo = engine(true);
        let ur_euclid = eng_euclid.snapshot_ur(&ott, state, t);
        let ur_topo = eng_topo.snapshot_ur(&ott, state, t);

        // A point in the room above, Euclidean-near both devices but only
        // reachable through the door at (8.2, 4), which costs more walking
        // than the V_max budget allows.
        let in_room = Point::new(11.0, 4.3);
        assert!(ur_euclid.contains(in_room), "euclidean UR should reach the room");
        assert!(!ur_topo.contains(in_room), "topology check must exclude the room");

        // Corridor points agree.
        let in_hall = Point::new(11.0, 2.0);
        assert_eq!(ur_euclid.contains(in_hall), ur_topo.contains(in_hall));
    }

    #[test]
    fn topology_ur_is_subset_of_euclidean_ur() {
        let ott = walking_ott();
        let eng_euclid = engine(false);
        let eng_topo = engine(true);
        let ur_e = eng_euclid.interval_ur(&ott, ObjectId(1), 1.0, 13.0).unwrap();
        let ur_t = eng_topo.interval_ur(&ott, ObjectId(1), 1.0, 13.0).unwrap();
        for i in 0..60 {
            for j in 0..24 {
                let p = Point::new(i as f64 / 3.0, j as f64 / 3.0);
                if ur_t.contains(p) {
                    assert!(ur_e.contains(p), "topology UR must be a subset at {p}");
                }
            }
        }
    }

    #[test]
    fn presence_is_normalized() {
        let eng = engine(false);
        // Slack timing: the gaps are bridgeable with 2 m to spare, so the
        // inter-device ellipses have positive area (the zero-slack
        // `walking_ott` degenerates to a line segment of measure zero).
        let ott = ObjectTrackingTable::from_rows(vec![
            row(1, 0, 0.0, 2.0),
            row(1, 1, 8.0, 10.0),
            row(1, 2, 16.0, 18.0),
        ])
        .unwrap();
        let ur = eng.interval_ur(&ott, ObjectId(1), 1.0, 17.0).unwrap();
        let plan = plan();
        let poi_hall = &plan.pois()[0];
        let poi_room = &plan.pois()[1];
        let p_hall = eng.presence(&ur, poi_hall);
        let p_room = eng.presence(&ur, poi_room);
        assert!(p_hall > 0.0 && p_hall <= 1.0, "hall presence {p_hall}");
        // The room POI is disjoint from the corridor UR (euclidean MBRs may
        // touch, but the ellipse is corridor-bound here).
        assert!(p_room < p_hall);
    }

    #[test]
    fn presence_of_empty_region_is_zero() {
        let eng = engine(false);
        let plan = plan();
        let ur = UncertaintyRegion::empty();
        assert_eq!(eng.presence(&ur, &plan.pois()[0]), 0.0);
    }

    #[test]
    fn snapshot_coarse_mbr_modes() {
        let ott = walking_ott();
        let t = 4.0;
        let state = ott.state_at(ObjectId(1), t).unwrap();
        let mut cfg = UrConfig { vmax: 1.0, topology_check: false, ..UrConfig::default() };
        cfg.paper_coarse_mbr = true;
        let eng_paper = UrEngine::new(Arc::new(IndoorContext::new(plan())), cfg);
        cfg.paper_coarse_mbr = false;
        let eng_tight = UrEngine::new(Arc::new(IndoorContext::new(plan())), cfg);
        let coarse = eng_paper.snapshot_mbr_coarse(&ott, state, t);
        let tight = eng_tight.snapshot_mbr_coarse(&ott, state, t);
        assert!(coarse.contains_mbr(&tight));
        assert!(coarse.area() > tight.area());
        // Both must contain the true UR.
        let ur = eng_paper.snapshot_ur(&ott, state, t);
        assert!(coarse.contains_mbr(&ur.mbr()));
        assert!(tight.contains_mbr(&ur.mbr()));
    }

    #[test]
    fn table3_chain_resolution_covers_all_four_cases() {
        // walking_ott: rd0 = dev0 [0,2], rd1 = dev1 [6,8], rd2 = dev2 [12,14].
        let eng = engine(false);
        let ott = walking_ott();
        let chain = ott.object_records(ObjectId(1)).to_vec();
        let resolve = |ts, te| eng.interval_chain(&ott, ObjectId(1), ts, te).unwrap();

        // Case 1: active at both ends → rd_s = rd_cov(ts), rd_e = rd_cov(te).
        let c = resolve(1.0, 13.0);
        assert_eq!(c.records, chain);
        assert!(!c.start_inactive && !c.end_inactive);

        // Case 2: inactive at ts → rd_s = rd_pre(ts); active at te.
        let c = resolve(4.0, 7.0);
        assert_eq!(c.records, vec![chain[0], chain[1]]);
        assert!(c.start_inactive && !c.end_inactive);

        // Case 3: active at ts; inactive at te → rd_e = rd_suc(te).
        let c = resolve(7.0, 10.0);
        assert_eq!(c.records, vec![chain[1], chain[2]]);
        assert!(!c.start_inactive && c.end_inactive);

        // Case 4: inactive at both ends.
        let c = resolve(3.0, 10.0);
        assert_eq!(c.records, chain);
        assert!(c.start_inactive && c.end_inactive);
    }

    #[test]
    fn chain_clips_to_untracked_boundaries() {
        let eng = engine(false);
        let ott = walking_ott();
        let chain = ott.object_records(ObjectId(1)).to_vec();
        // Query starts before the first record: chain starts at rd0,
        // treated as an active start (no ring clipping).
        let c = eng.interval_chain(&ott, ObjectId(1), -5.0, 7.0).unwrap();
        assert_eq!(c.records.first(), Some(&chain[0]));
        assert!(!c.start_inactive);
        // Query ends after the last record.
        let c = eng.interval_chain(&ott, ObjectId(1), 13.0, 99.0).unwrap();
        assert_eq!(c.records.last(), Some(&chain[2]));
        assert!(!c.end_inactive);
        // Entirely outside the lifetime.
        assert!(eng.interval_chain(&ott, ObjectId(1), 20.0, 30.0).is_none());
        assert!(eng.interval_chain(&ott, ObjectId(1), -9.0, -1.0).is_none());
    }

    #[test]
    fn probability_in_normalizes_by_region_area() {
        let eng = engine(false);
        // A single active record: UR = the r=1 detection disk of dev1 at
        // (8,2), fully inside the hall POI? Use a custom check against the
        // hall POI [4,7]x[0,4] (disjoint) and a synthetic containment case.
        let ott = ObjectTrackingTable::from_rows(vec![row(1, 1, 0.0, 10.0)]).unwrap();
        let state = ott.state_at(ObjectId(1), 5.0).unwrap();
        let ur = eng.snapshot_ur(&ott, state, 5.0);
        let plan = plan();
        // poi-hall is [4,7]x[0,4]; the disk around (8,2) misses it almost
        // entirely (boundary graze), so probability ~0.
        let p_hall = eng.probability_in(&ur, &plan.pois()[0]);
        assert!(p_hall < 0.05, "got {p_hall}");
        // A POI covering the whole disk captures (almost) all the mass.
        let full = inflow_indoor::Poi::new(
            inflow_indoor::PoiId(99),
            "full",
            inflow_geometry::Polygon::rectangle(Point::new(6.0, 0.0), Point::new(10.0, 4.0)),
        );
        let p_full = eng.probability_in(&ur, &full);
        assert!(p_full > 0.95, "got {p_full}");
        // Half-covering POI gets ~half the mass.
        let half = inflow_indoor::Poi::new(
            inflow_indoor::PoiId(98),
            "half",
            inflow_geometry::Polygon::rectangle(Point::new(8.0, 0.0), Point::new(10.0, 4.0)),
        );
        let p_half = eng.probability_in(&ur, &half);
        assert!((p_half - 0.5).abs() < 0.08, "got {p_half}");
        // Presence differs: it normalizes by POI area instead.
        let presence_full = eng.presence(&ur, &full);
        assert!(presence_full < p_full, "presence {presence_full} vs probability {p_full}");
    }
}
