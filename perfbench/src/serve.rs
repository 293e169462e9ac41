//! The serve phase: the workload's reading stream through an in-process
//! `inflow_service::Server` in a closed loop (one client, one connection,
//! one chunk in flight: PUBLISH, then BARRIER), with the answer checks
//! and the write-path and engine probes of the traced run.

use crate::batch::same_topk;
use crate::data::{subscriptions, ur_config, Dataset, Spec, CHUNK};
use crate::spans::Spans;
use crate::stats::{mean, median, min, quantile, ratio, Metrics, Tally};
use inflow_core::{
    object_interval_flows, object_snapshot_flows, rank_topk, DistribQuery, DistribState,
    DwellState, FlowAnalytics, IntervalQuery, LongVisitQuery, SnapshotQuery,
};
use inflow_indoor::PoiId;
use inflow_obs::{Counter, Json, SEGMENTS};
use inflow_rtree::RTree;
use inflow_service::protocol::{decode_publish, encode_publish};
use inflow_service::{Client, ServeConfig, Server, ServiceError, SubKind, SubSpec};
use inflow_tracking::store::{IngestStore, StdFs, StoreOptions};
use inflow_tracking::{ObjectId, ObjectTrackingTable, OnlineTracker, OttRow, RawReading};
use inflow_uncertainty::UrEngine;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Oracle tolerance of `tests/service.rs`.
const SERVE_TOL: f64 = 1e-9;
/// The server's tracker gap (the `ServeConfig` default).
const MAX_GAP: f64 = 60.0;

/// Counters of one episode's server.
const COUNTERS: [(&str, Counter); 8] = [
    ("recomputes", Counter::ServeRecomputes),
    ("delta_objects", Counter::ServeDeltaObjects),
    ("notifications", Counter::ServeNotifications),
    ("suppressed", Counter::ServeNotificationsSuppressed),
    ("overloads", Counter::ServeOverloads),
    ("segments_sealed", Counter::SegmentsSealed),
    ("compactions", Counter::StoreCompactions),
    ("scrub_passes", Counter::ScrubPasses),
];

/// One server lifetime: set-up, the closed-loop stream, the checks.
pub struct Episode {
    pub generate_ms: f64,
    pub setup_s: f64,
    /// Readings streamed; `ingest_rps` divides them by the stream's time.
    pub readings: usize,
    pub ingest_rps: f64,
    /// PUBLISH sent → BARRIER ack, per step.
    pub steps_ms: Vec<f64>,
    /// Step latency minus the server's router → notified trace total,
    /// for steps that carried a traced UPDATE.
    pub transport_ms: Vec<f64>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Stage histogram buckets `(lo, hi, n)` by segment name, in ns.
    pub stages: BTreeMap<&'static str, Vec<(f64, f64, f64)>>,
    /// The rows the server held after the stream, sorted.
    pub rows: Vec<OttRow>,
    /// The stream's data (without its table when the stream is the batch
    /// table's own).
    pub data: Dataset,
}

impl Episode {
    /// Drops the episode's rows and readings.
    fn release(&mut self) {
        self.rows = Vec::new();
        self.data.readings = Vec::new();
    }
}

/// Runs one episode in a fresh store directory under `work_dir`.
/// `trace` is the server's pipeline-tracing switch (on by default).
pub fn episode(
    spec: &Spec,
    seed: u64,
    trace: bool,
    work_dir: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Episode, ServiceError> {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir =
        work_dir.join(format!("store-{}", NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_episode(spec, seed, trace, dir.clone(), spans, tally);
    let _ = std::fs::remove_dir_all(&dir);
    if result.is_err() {
        tally.check(false);
    }
    result
}

fn run_episode(
    spec: &Spec,
    seed: u64,
    trace: bool,
    dir: PathBuf,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Episode, ServiceError> {
    let t0 = Instant::now();
    let mut batch = spans.time("workload.generate", 0, || spec.batch.generate());
    let stream = (spec.stream != spec.batch)
        .then(|| spans.time("workload.generate", 1, || spec.stream.generate()));
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let ott = std::mem::replace(
        &mut batch.workload.ott,
        ObjectTrackingTable::from_rows(Vec::new()).expect("empty table"),
    );
    // The batch index is part of the set-up; the batch phase queries one
    // of its own, built before the first episode.
    let _analytics = spans.time("tracking.analytics_build", 0, || {
        FlowAnalytics::new(Arc::clone(&batch.workload.ctx), ott, ur_config(&batch.workload))
    });
    let data = stream.unwrap_or(batch);
    let w = &data.workload;
    let cfg = ServeConfig { ur: ur_config(w), trace, ..ServeConfig::new(dir) };
    let handle = spans.time("service.start", 0, || Server::start(Arc::clone(&w.ctx), cfg))?;
    let out = drive(spec, seed, &data, &handle, t0, spans, tally);
    handle.shutdown();
    let metrics = handle.metrics();
    handle.wait();
    let (steps, rows) = out?;
    let counters = COUNTERS.iter().map(|&(name, c)| (name, metrics.counter(c))).collect();
    let stages = stage_buckets(&metrics.snapshot_json(&[], 0));
    Ok(Episode {
        generate_ms,
        setup_s: steps.setup_s,
        readings: data.readings.len(),
        ingest_rps: data.readings.len() as f64 / steps.stream_s,
        steps_ms: steps.steps_ms,
        transport_ms: steps.transport_ms,
        counters,
        stages,
        rows,
        data,
    })
}

struct Steps {
    setup_s: f64,
    stream_s: f64,
    steps_ms: Vec<f64>,
    transport_ms: Vec<f64>,
}

/// Subscribes, streams in a closed loop and checks every subscription's
/// final answer against the batch reference over `DUMP_ROWS`.
fn drive(
    spec: &Spec,
    seed: u64,
    data: &Dataset,
    handle: &inflow_service::ServerHandle,
    t0: Instant,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Steps, Vec<OttRow>), ServiceError> {
    let mut client = Client::connect(handle.addr())?;
    let specs = subscriptions(spec.subs, data.duration);
    let mut ids = Vec::new();
    for s in &specs {
        ids.push(spans.time("protocol.subscribe", 0, || client.subscribe(s))?);
    }
    client.barrier()?;
    client.take_updates();
    let setup_s = t0.elapsed().as_secs_f64();

    let mut steps_ms = Vec::new();
    let mut transport_ms = Vec::new();
    let start = Instant::now();
    // The seed sets where the PUBLISH boundaries fall.
    let first = 1 + (seed % CHUNK as u64) as usize;
    let (head, tail) = data.readings.split_at(first.min(data.readings.len()));
    for (i, chunk) in std::iter::once(head).chain(tail.chunks(CHUNK)).enumerate() {
        let span = spans.enter("service.step", i as u64);
        let s0 = Instant::now();
        let published = client.publish(chunk).and_then(|_| client.barrier());
        let step_ms = s0.elapsed().as_secs_f64() * 1e3;
        spans.exit(span);
        tally.check(published.is_ok());
        published?;
        steps_ms.push(step_ms);
        let server_ns = client
            .take_updates()
            .iter()
            .filter_map(|u| u.trace.as_ref().and_then(|t| t.total_ns()))
            .max();
        if let Some(ns) = server_ns {
            transport_ms.push(step_ms - ns as f64 / 1e6);
        }
    }
    let stream_s = start.elapsed().as_secs_f64();

    let rows = client.dump_rows()?;
    if !specs.is_empty() {
        let w = &data.workload;
        let fa = (!rows.is_empty())
            .then(|| ObjectTrackingTable::from_rows(rows.clone()).ok())
            .flatten()
            .map(|ott| FlowAnalytics::new(Arc::clone(&w.ctx), ott, ur_config(w)));
        let pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();
        for (s, &id) in specs.iter().zip(&ids) {
            let want = reference(fa.as_ref(), s, &pois);
            let current = client.current(id)?;
            tally.check(same_topk(&current, &want, SERVE_TOL));
        }
    }
    client.shutdown_server()?;
    Ok((Steps { setup_s, stream_s, steps_ms, transport_ms }, rows))
}

/// From-scratch batch answer for one subscription (the `tests/service.rs`
/// oracle); `fa` is `None` while the server holds no rows.
fn reference(fa: Option<&FlowAnalytics>, spec: &SubSpec, pois: &[PoiId]) -> Vec<(PoiId, f64)> {
    let (pois, k) = (pois.to_vec(), spec.k);
    let Some(fa) = fa else {
        return rank_topk(pois.into_iter().map(|p| (p, 0.0)).collect(), k);
    };
    match spec.kind {
        SubKind::Snapshot { t } => {
            fa.snapshot_topk_iterative(&SnapshotQuery::new(t, pois, k)).ranked
        }
        SubKind::Interval { ts, te } => {
            fa.interval_topk_iterative(&IntervalQuery::new(ts, te, pois, k)).ranked
        }
        SubKind::Distrib { t, kq, kmax } => {
            fa.distrib_topk(&DistribQuery::at(t, pois, kq as usize, kmax as usize, k)).ranked
        }
        SubKind::LongVisit { ts, te, d } => {
            fa.longvisit_topk(&LongVisitQuery::new(ts, te, d, pois, k)).ranked
        }
    }
}

/// The stage histograms of a `METRICS` snapshot, by segment name.
fn stage_buckets(json: &str) -> BTreeMap<&'static str, Vec<(f64, f64, f64)>> {
    let mut out = BTreeMap::new();
    let Ok(doc) = Json::parse(json) else { return out };
    for h in doc.get("histograms").and_then(Json::as_arr).unwrap_or_default() {
        let name = h.get("name").and_then(Json::as_str).unwrap_or_default();
        let Some(seg) = SEGMENTS.iter().find(|s| name.strip_prefix("stage_") == Some(**s)) else {
            continue;
        };
        let buckets = h.get("buckets").and_then(Json::as_arr).unwrap_or_default();
        let field = |b: &Json, k: &str| b.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.insert(
            *seg,
            buckets.iter().map(|b| (field(b, "lo"), field(b, "hi"), field(b, "n"))).collect(),
        );
    }
    out
}

/// Median of log₂-bucketed samples (sorted by bucket; a bucket may
/// repeat), interpolated linearly inside the bucket that holds it.
fn bucket_median(buckets: &[(f64, f64, f64)]) -> f64 {
    let total: f64 = buckets.iter().map(|b| b.2).sum();
    let mut seen = 0.0;
    for &(lo, hi, n) in buckets {
        if n > 0.0 && seen + n >= total / 2.0 {
            return lo + (hi - lo) * (total / 2.0 - seen) / n;
        }
        seen += n;
    }
    0.0
}

/// End-to-end serve metrics over the run's episodes, which replay the
/// same steps. Each step keeps its fastest latency across episodes (the
/// batch phase's per-query minimum, for the same reason); `fresh_*` are
/// the p50 and p90 over steps, `ingest_rps` the readings over the sum of
/// the steps' fastest latencies.
pub fn end_to_end(episodes: &[Episode]) -> Metrics {
    let steps = episodes.iter().map(|e| e.steps_ms.len()).min().unwrap_or(0);
    let fastest: Vec<f64> = (0..steps)
        .map(|i| min(&episodes.iter().map(|e| e.steps_ms[i]).collect::<Vec<_>>()))
        .collect();
    let mut m = Metrics::default();
    let readings = episodes.first().map_or(0, |e| e.readings) as f64;
    m.set("ingest_rps", readings / (fastest.iter().sum::<f64>() / 1e3), "1/s");
    m.set("fresh_p50_ms", quantile(&fastest, 0.5), "ms");
    m.set("fresh_p90_ms", quantile(&fastest, 0.9), "ms");
    m
}

/// Per-layer serve counts of the traced run's first episode.
pub fn layers(episodes: &[Episode]) -> Metrics {
    let mut m = Metrics::default();
    let first = &episodes[0].counters;
    let count = |k: &str| first.get(k).copied().unwrap_or(0) as f64;
    m.set("service.recomputes", count("recomputes"), "count");
    m.set("service.delta_objects", count("delta_objects"), "count");
    m.set("service.notifications", count("notifications"), "count");
    m.set(
        "service.suppressed_ratio",
        ratio(count("suppressed"), count("suppressed") + count("notifications")),
        "ratio",
    );
    m.set("service.overloads", count("overloads"), "count");
    m.set("store.segments_sealed", count("segments_sealed"), "count");
    m.set("store.compactions", count("compactions"), "count");
    m.set("store.scrub_passes", count("scrub_passes"), "count");
    m
}

/// Write-path layers over the stream, outside the server: tracker
/// ingest, durable store ingest (server store settings) and the PUBLISH
/// codec.
pub fn write_path_layers(readings: &[RawReading], work_dir: &Path, spans: &mut Spans) -> Metrics {
    let n = readings.len().max(1) as f64;
    let mut m = Metrics::default();

    let mut tracker = OnlineTracker::new(MAX_GAP);
    let t0 = Instant::now();
    spans.time("tracking.stream_ingest", 0, || {
        for &r in readings {
            let _ = black_box(tracker.ingest(r));
        }
    });
    m.set("tracking.stream_ingest_ns", t0.elapsed().as_nanos() as f64 / n, "ns");

    let defaults = ServeConfig::new(PathBuf::new());
    let opts = StoreOptions {
        snapshot_every: defaults.snapshot_every,
        sync_each_reading: defaults.sync_each_reading,
        compact_every: defaults.compact_every,
        scrub_every: defaults.scrub_every,
        ..StoreOptions::default()
    };
    let dir = work_dir.join("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let (ingest_ns, bytes) = match IngestStore::open(StdFs, &dir, OnlineTracker::new(MAX_GAP), opts)
    {
        Ok((mut store, _)) => {
            let t0 = Instant::now();
            spans.time("store.ingest", 0, || {
                for &r in readings {
                    let _ = store.ingest(r);
                }
            });
            let ns = t0.elapsed().as_nanos() as f64 / n;
            let _ = store.finish();
            (ns, dir_bytes(&dir))
        }
        Err(_) => (0.0, 0),
    };
    let _ = std::fs::remove_dir_all(&dir);
    m.set("store.ingest_ns", ingest_ns, "ns");
    m.set("store.bytes_per_reading", bytes as f64 / n, "bytes");

    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for (i, chunk) in readings.chunks(CHUNK).enumerate() {
        let t0 = Instant::now();
        let payload = spans.time("protocol.encode_publish", i as u64, || encode_publish(chunk));
        enc.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let _ =
            spans.time("protocol.decode_publish", i as u64, || black_box(decode_publish(&payload)));
        dec.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    m.set("protocol.encode_publish_us", mean(&enc), "us");
    m.set("protocol.decode_publish_us", mean(&dec), "us");
    m
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Metrics of [`recompute_layers`], with their units.
pub const RECOMPUTE_LAYERS: [(&str, &str); 12] = [
    ("protocol.transport_ms", "ms"),
    ("protocol.stalled_step_ratio", "ratio"),
    ("service.stage.queue_ms", "ms"),
    ("service.stage.wal_ms", "ms"),
    ("service.stage.apply_ms", "ms"),
    ("service.stage.engine_queue_ms", "ms"),
    ("service.stage.recompute_ms", "ms"),
    ("service.stage.notify_ms", "ms"),
    ("core.engine.snapshot_obj_us", "us"),
    ("core.engine.interval_obj_us", "us"),
    ("core.engine.distrib_obj_us", "us"),
    ("core.engine.dwell_obj_us", "us"),
];

/// UPDATE-bearing steps whose transport share exceeds this wait for the
/// client's delayed ACK (the kernel fires it after 40 ms or more).
const STALL_MS: f64 = 20.0;

/// The recompute probe's layers over its episodes: the transport share of
/// every UPDATE-bearing step (step latency minus the server's own trace
/// total; its mean and the share of steps that stall), the stage
/// histograms, and the per-object engine recompute cost per subscription
/// kind, timed on the last episode's rows the way the engine recomputes a
/// changed object: one single-object table, the subscription's POI
/// R-tree, and the kind's shared recompute primitive.
pub fn recompute_layers(spec: &Spec, episodes: &[Episode], spans: &mut Spans) -> Metrics {
    let episode = episodes.last().expect("one probe episode");
    let w = &episode.data.workload;
    let engine = UrEngine::new(Arc::clone(&w.ctx), ur_config(w));
    let engine = &engine;
    let plan = w.ctx.plan();
    let pois: Vec<PoiId> = plan.pois().iter().map(|p| p.id).collect();
    let rp = RTree::bulk_load(pois.iter().map(|&p| (plan.poi(p).mbr(), p)).collect::<Vec<_>>());
    let mut by_object: BTreeMap<ObjectId, Vec<OttRow>> = BTreeMap::new();
    for r in &episode.rows {
        by_object.entry(r.object).or_default().push(*r);
    }
    let tables: Vec<(ObjectId, ObjectTrackingTable)> = by_object
        .into_iter()
        .filter_map(|(o, rows)| ObjectTrackingTable::from_rows(rows).ok().map(|t| (o, t)))
        .collect();
    let mut m = Metrics::default();
    let transport: Vec<f64> =
        episodes.iter().flat_map(|e| e.transport_ms.iter().copied()).collect();
    let stalled = transport.iter().filter(|&&ms| ms > STALL_MS).count();
    m.set("protocol.transport_ms", mean(&transport), "ms");
    m.set("protocol.stalled_step_ratio", ratio(stalled as f64, transport.len() as f64), "ratio");
    // Stage histograms fill from notification traces, which only
    // UPDATE-bearing steps complete.
    for seg in SEGMENTS {
        let mut buckets: Vec<(f64, f64, f64)> = episodes
            .iter()
            .flat_map(|e| e.stages.get(seg).into_iter().flatten().copied())
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        m.set(&format!("service.stage.{seg}_ms"), bucket_median(&buckets) / 1e6, "ms");
    }
    for s in subscriptions(spec.subs, episode.data.duration) {
        let mut us = Vec::new();
        let mut distrib = match s.kind {
            SubKind::Distrib { kq, kmax, .. } => {
                Some(DistribState::new(kq as usize, kmax as usize))
            }
            _ => None,
        };
        for (i, (object, ott)) in tables.iter().enumerate() {
            let span = spans.enter("core.engine.recompute", i as u64);
            let t0 = Instant::now();
            match s.kind {
                SubKind::Snapshot { t } => {
                    black_box(object_snapshot_flows(engine, ott, *object, t, &rp));
                }
                SubKind::Interval { ts, te } => {
                    black_box(object_interval_flows(engine, ott, *object, ts, te, &rp));
                }
                SubKind::Distrib { t, .. } => {
                    let state = distrib.as_mut().expect("distrib state");
                    let new = object_snapshot_flows(engine, ott, *object, t, &rp);
                    state.update(*object, &[], &new);
                    black_box(state.scores(&pois));
                }
                SubKind::LongVisit { ts, te, .. } => {
                    black_box(DwellState::default().recompute(engine, ott, *object, ts, te, &rp));
                }
            }
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            spans.exit(span);
        }
        let name = match s.kind {
            SubKind::Snapshot { .. } => "snapshot",
            SubKind::Interval { .. } => "interval",
            SubKind::Distrib { .. } => "distrib",
            SubKind::LongVisit { .. } => "dwell",
        };
        m.set(&format!("core.engine.{name}_obj_us"), mean(&us), "us");
    }
    m
}

/// Throughput with the server's pipeline tracing off versus on (the
/// shipped default), over paired episodes in alternating order: the
/// median paired slowdown, as a percentage.
pub fn trace_overhead(
    spec: &Spec,
    seed: u64,
    work_dir: &Path,
    budget: Duration,
    tally: &mut Tally,
) -> f64 {
    let mut ratios = Vec::new();
    let start = Instant::now();
    let mut pair = 0;
    let mut quiet = Spans::new(false);
    while pair < 1 || start.elapsed() < budget {
        let mut rps = [0.0; 2];
        for step in 0..2 {
            let traced = (step + pair) % 2 == 1;
            if let Ok(e) = episode(spec, seed, traced, work_dir, &mut quiet, tally) {
                rps[traced as usize] = e.ingest_rps;
            }
        }
        ratios.push(ratio(rps[0], rps[1]));
        pair += 1;
    }
    (median(&ratios) - 1.0) * 100.0
}

/// Runs one more episode onto `out`, keeping only the newest episode's
/// rows and data; a failed one is counted in `tally` and skipped.
pub fn add_episode(
    out: &mut Vec<Episode>,
    spec: &Spec,
    seed: u64,
    work_dir: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) {
    if let Ok(e) = episode(spec, seed, true, work_dir, spans, tally) {
        if let Some(prev) = out.last_mut() {
            prev.release();
        }
        out.push(e);
    }
}

/// `count` episodes in a row (see [`add_episode`]).
pub fn episodes(
    spec: &Spec,
    seed: u64,
    count: usize,
    work_dir: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Episode> {
    let mut out = Vec::new();
    for _ in 0..count {
        add_episode(&mut out, spec, seed, work_dir, spans, tally);
    }
    out
}

pub fn generate_ms(episodes: &[Episode]) -> f64 {
    median(&episodes.iter().map(|e| e.generate_ms).collect::<Vec<_>>())
}

pub fn setup_s(episodes: &[Episode]) -> f64 {
    median(&episodes.iter().map(|e| e.setup_s).collect::<Vec<_>>())
}
