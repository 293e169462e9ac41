//! The workloads and the seeded inputs they run on.

use inflow_geometry::GridResolution;
use inflow_service::{SubKind, SubSpec};
use inflow_tracking::RawReading;
use inflow_uncertainty::UrConfig;
use inflow_workload::{generate_synthetic, SyntheticConfig, Workload};

/// Generated data: the synthetic office building (paper §5.1, 1 m
/// detection range) with `objects` moving objects over `duration` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Source {
    pub objects: usize,
    pub duration: f64,
}

/// Which subscriptions the serve phase registers before streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subs {
    /// None: the stream exercises only the write path.
    None,
    /// Snapshot and interval subscriptions whose query times lie before
    /// the stream, so the engine skips every delta.
    BeforeStream,
    /// One subscription of each kind, windows overlapping the stream.
    AllKinds,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// The table the batch phase queries (the generated Object Tracking
    /// Table, as in the paper's batch setting).
    pub batch: Source,
    /// The data whose reading stream the serve phase publishes.
    pub stream: Source,
    pub subs: Subs,
}

/// Readings the serve phase of an untraced run streams in all, in whole
/// episodes (at most [`MAX_EPISODES`]): 40 episodes of `serve-ingest`'s
/// stream, 158 of `batch-synthetic`'s shorter one, so both take a few
/// seconds of closed-loop steps. A fixed amount keeps the work (and the
/// peak memory) of the phase independent of the machine's speed; the
/// batch phase takes the rest of `--seconds`.
pub const SERVE_READINGS: usize = 1_000_000;
pub const MAX_EPISODES: usize = 200;

/// Episodes of an untraced run whose stream has `readings` readings.
pub fn episodes(readings: usize) -> usize {
    SERVE_READINGS.div_ceil(readings.max(1)).clamp(2, MAX_EPISODES)
}
/// Distinct queries per query family in the batch phase (306 in all).
/// The seed draws them, and the work of a family's mean query still
/// varied between seeds by 5–6% (IQR over median of integration probes,
/// 30 seeds) at 17 queries per family, against 3% at 51.
pub const QUERIES: usize = 51;
/// Interval and long-visit query window, seconds.
pub const WINDOW: f64 = 30.0;
/// Readings per PUBLISH in the serve phase.
pub const CHUNK: usize = 48;

/// The batch table of both workloads: small enough that every query is
/// timed many times in one run.
const BUILDING: Source = Source { objects: 20, duration: 3600.0 };

pub const WORKLOADS: [Spec; 2] = [
    Spec { name: "batch-synthetic", batch: BUILDING, stream: BUILDING, subs: Subs::None },
    // 80 objects give each of the two shards about 8,000 rows, past the
    // server's 4096-row segment seal.
    Spec {
        name: "serve-ingest",
        batch: BUILDING,
        stream: Source { objects: 80, duration: 3600.0 },
        subs: Subs::BeforeStream,
    },
];

/// The traced runs' recompute probe: short episodes with a subscription
/// of every kind over the stream, for the per-object engine costs and the
/// transport share of UPDATE-bearing steps.
pub const RECOMPUTE_PROBE: Spec = Spec {
    name: "recompute-probe",
    batch: Source { objects: 20, duration: 600.0 },
    stream: Source { objects: 20, duration: 600.0 },
    subs: Subs::AllKinds,
};

/// Episodes of the recompute probe per traced run, for enough
/// UPDATE-bearing steps.
pub const PROBE_EPISODES: usize = 4;

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Generated inputs: the workload (plan, OTT, `V_max`) and the reading
/// stream derived from it.
///
/// Each dataset comes from its generator's own default seed, like the
/// paper's fixed datasets; `--seed` draws what
/// runs against it (query times and POI sets, PUBLISH boundaries). With
/// datasets drawn per seed, the work of a run varied by 5–11% between
/// seeds (integration probes per query, 10 seeds), more than the bounds
/// leave room for on top of the host's own timing noise.
pub struct Dataset {
    pub workload: Workload,
    pub readings: Vec<RawReading>,
    pub duration: f64,
}

impl Source {
    pub fn generate(self) -> Dataset {
        let workload = generate_synthetic(&SyntheticConfig {
            num_objects: self.objects,
            duration: self.duration,
            detection_range: 1.0,
            ..SyntheticConfig::default()
        });
        let readings = readings_of(&workload);
        Dataset { workload, readings, duration: self.duration }
    }
}

/// The workload's OTT expanded back into its time-ordered reading stream
/// (each record's endpoints) — the stream `inflow ingest` consumes.
pub fn readings_of(w: &Workload) -> Vec<RawReading> {
    let mut out = Vec::with_capacity(w.ott.len() * 2);
    for r in w.ott.records() {
        out.push(RawReading { object: r.object, device: r.device, t: r.ts });
        if r.te > r.ts {
            out.push(RawReading { object: r.object, device: r.device, t: r.te });
        }
    }
    out.sort_by(|a, b| {
        a.t.total_cmp(&b.t)
            .then_with(|| a.object.cmp(&b.object))
            .then_with(|| a.device.0.cmp(&b.device.0))
    });
    out
}

/// The uncertainty configuration the CLI ships for queries and serving:
/// the workload's `V_max`, topology check on, coarse integration grid.
pub fn ur_config(w: &Workload) -> UrConfig {
    UrConfig { vmax: w.vmax, resolution: GridResolution::COARSE, ..UrConfig::default() }
}

/// The subscriptions of a serve phase (ε = 0, all plan POIs, k = 10).
pub fn subscriptions(subs: Subs, duration: f64) -> Vec<SubSpec> {
    let kinds = match subs {
        Subs::None => Vec::new(),
        Subs::BeforeStream => {
            vec![SubKind::Snapshot { t: -1.0 }, SubKind::Interval { ts: -60.0, te: -1.0 }]
        }
        Subs::AllKinds => vec![
            SubKind::Snapshot { t: 0.5 * duration },
            SubKind::Interval { ts: 0.25 * duration, te: 0.75 * duration },
            SubKind::Distrib { t: 0.5 * duration, kq: 2, kmax: 32 },
            SubKind::LongVisit { ts: 0.25 * duration, te: 0.75 * duration, d: 60.0 },
        ],
    };
    kinds.into_iter().map(|kind| SubSpec { kind, k: 10, epsilon: 0.0, pois: Vec::new() }).collect()
}
