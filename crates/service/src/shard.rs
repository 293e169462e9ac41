//! Shard ingestion workers.
//!
//! The server routes each published reading to the shard owning its
//! object (`object.0 % shards` — all of one object's readings hit the
//! same shard, so per-object ordering is preserved). Each shard worker
//! owns one crash-consistent [`IngestStore`] (WAL + snapshots in its own
//! subdirectory) feeding a per-shard [`OnlineTracker`], and emits **row
//! deltas** to the flow engine: for every object whose rows changed, the
//! object's complete current row set plus the *affected start* — the
//! object's previous row frontier, before which nothing changed. The
//! engine uses the affected range to skip subscriptions whose query time
//! lies entirely before it.
//!
//! Workers are restartable mid-stream: the message receiver lives in an
//! `Arc<Mutex<…>>` owned by the server, so a crashed worker's queue
//! survives; the restarted worker recovers its tracker from the store
//! (snapshot + WAL replay), rebuilds its row mirror, and re-emits *full*
//! deltas (affected start −∞) so the engine reconverges no matter what
//! the crash interleaved.
//!
//! Each routed reading may carry a [`TraceChain`]; the worker stamps
//! the dequeue, WAL-durable and applied hops and forwards the chain on
//! the delta batch so the engine can finish the latency decomposition.
//! On an injected crash the worker dumps the flight recorder to
//! `postmortem.jsonl` in its store directory before exiting — the
//! always-on last-N-events window the crash suites assert on.

use crate::engine::EngineMsg;
use crate::metrics::ServiceMetrics;
use crate::sync::lock_or_recover;
use inflow_obs::{Counter, FlightEventKind, FlightRecorder, Hop, TraceChain};
use inflow_tracking::{
    IngestStore, ObjectId, OnlineTracker, OttRow, RawReading, StdFs, StoreError, StoreOptions,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One object's row change: its complete current row set (closed rows
/// plus the open run as an as-of-now row) and the time before which its
/// rows are unchanged.
#[derive(Debug, Clone)]
pub struct ObjectDelta {
    pub object: ObjectId,
    /// The object's rows, in time order. Replaces any previous set.
    pub rows: Vec<OttRow>,
    /// Rows at times `< affected_start` are identical to the previous
    /// delta's; a query whose end time precedes it is unaffected.
    /// `NEG_INFINITY` forces a full recompute (new object or recovery).
    pub affected_start: f64,
}

/// The deltas one ingest step produced, in applied-reading order.
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    pub shard: usize,
    pub deltas: Vec<ObjectDelta>,
    /// Trace context of the reading that produced this batch (absent
    /// for recovery re-emissions and trace-off servers).
    pub trace: Option<TraceChain>,
}

/// Messages a shard worker consumes.
pub enum ShardMsg {
    /// Ingest this shard's slice of one client `PUBLISH` batch (already
    /// routed here), with the batch's router-assigned trace context, if
    /// tracing is on. The whole slice is applied before a single delta
    /// batch is emitted, so the engine refreshes subscriptions once per
    /// publish rather than once per reading — and because the slicing
    /// follows client publish boundaries, the batching (and therefore
    /// the notification cadence) is deterministic under record/replay.
    Publish(Vec<RawReading>, Option<TraceChain>),
    /// Ack once every prior message is applied and its deltas are
    /// enqueued to the engine (the barrier protocol's first half).
    Flush(Sender<()>),
    /// Reply with the FNV-1a digest of this shard's tracker state
    /// (`OnlineTracker::state_hash`) — the replay verifier's per-shard
    /// hash point. A crashed worker never answers; callers time out and
    /// record the sentinel 0.
    StateHash(Sender<u64>),
    /// Simulate a crash: exit immediately without closing the store.
    Crash,
    /// Clean stop: snapshot the store, then ack and exit.
    Stop(Sender<()>),
}

/// Per-shard tracker/store configuration (a fresh tracker is built from
/// it on first start; recovery carries its own durable config).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    pub max_gap: f64,
    pub lateness: Option<f64>,
    pub sync_each_reading: bool,
    pub snapshot_every: Option<u64>,
    /// Seal closed rows into immutable segments every this many rows
    /// (`None` disables the segment tier for this shard).
    pub compact_every: Option<u64>,
    /// Run a budgeted scrub pass every this many ingested readings
    /// (`None` disables background scrubbing).
    pub scrub_every: Option<u64>,
}

impl ShardConfig {
    fn fresh_tracker(&self) -> OnlineTracker {
        match self.lateness {
            Some(l) => OnlineTracker::with_reorder(self.max_gap, l),
            None => OnlineTracker::new(self.max_gap),
        }
    }

    fn store_options(&self) -> StoreOptions {
        StoreOptions {
            snapshot_every: self.snapshot_every,
            sync_each_reading: self.sync_each_reading,
            compact_every: self.compact_every,
            scrub_every: self.scrub_every,
            ..StoreOptions::default()
        }
    }
}

/// Spawns one shard worker thread. `queue_depth` mirrors the channel's
/// backlog (incremented by the router on send, decremented here on
/// receive) since `mpsc` exposes no length.
#[allow(clippy::too_many_arguments)]
pub fn spawn_shard(
    index: usize,
    dir: PathBuf,
    rx: Arc<Mutex<Receiver<ShardMsg>>>,
    queue_depth: Arc<AtomicUsize>,
    engine_tx: Sender<EngineMsg>,
    metrics: Arc<ServiceMetrics>,
    flight: Arc<FlightRecorder>,
    cfg: ShardConfig,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("inflow-shard-{index}"))
        .spawn(move || run_shard(index, dir, rx, queue_depth, engine_tx, metrics, flight, cfg))
}

struct ShardState {
    index: usize,
    store: IngestStore<StdFs>,
    /// Per-object closed rows, mirrored incrementally from the tracker's
    /// grow-only closed-row log.
    mirror: HashMap<ObjectId, Vec<OttRow>>,
    /// How many closed rows are already mirrored.
    cursor: usize,
    /// Each object's current row frontier (max `te` across its rows);
    /// the next delta's `affected_start`.
    last_te: HashMap<ObjectId, f64>,
    engine_tx: Sender<EngineMsg>,
    metrics: Arc<ServiceMetrics>,
    flight: Arc<FlightRecorder>,
}

impl ShardState {
    /// The object's complete current row set: mirrored closed rows plus
    /// the open run, if any.
    fn rows_of(&self, object: ObjectId) -> Vec<OttRow> {
        let mut rows = self.mirror.get(&object).cloned().unwrap_or_default();
        if let Some(open) = self.store.tracker().open_run_row(object) {
            rows.push(open);
        }
        rows
    }

    /// Pulls newly closed rows from the tracker into the mirror.
    fn sync_mirror(&mut self) {
        let closed = self.store.tracker().closed();
        for row in closed.get(self.cursor..).unwrap_or_default() {
            self.mirror.entry(row.object).or_default().push(*row);
        }
        self.cursor = closed.len();
    }

    /// Emits one delta batch for `objects` (deduplicated, first-seen
    /// order). `full` forces `affected_start = −∞` (recovery re-emission).
    fn emit(&mut self, objects: &[ObjectId], full: bool, trace: Option<TraceChain>) {
        let mut seen = std::collections::HashSet::new();
        let mut deltas = Vec::new();
        for &object in objects {
            if !seen.insert(object) {
                continue;
            }
            let rows = self.rows_of(object);
            let affected_start = if full {
                f64::NEG_INFINITY
            } else {
                self.last_te.get(&object).copied().unwrap_or(f64::NEG_INFINITY)
            };
            let frontier = rows.iter().map(|r| r.te).fold(f64::NEG_INFINITY, f64::max);
            self.last_te.insert(object, frontier);
            deltas.push(ObjectDelta { object, rows, affected_start });
        }
        if deltas.is_empty() {
            return;
        }
        self.metrics.add(Counter::ServeDeltasEmitted, 1);
        self.metrics.add(Counter::ServeDeltaObjects, deltas.len() as u64);
        self.metrics.observe_delta_batch(deltas.len() as u64);
        let trace_id = trace.map_or(0, |t| t.id);
        self.flight.record(
            FlightEventKind::DeltaEmitted,
            trace_id,
            self.index as u64,
            deltas.len() as u64,
        );
        // A closed engine only happens during shutdown; drop silently.
        let _ =
            self.engine_tx.send(EngineMsg::Delta(DeltaBatch { shard: self.index, deltas, trace }));
    }

    /// Folds store maintenance (snapshots, compactions, scrub passes,
    /// quarantines the store performed while ingesting) into the service
    /// counters and the flight recorder.
    fn drain_tier_events(&mut self) {
        let ev = self.store.take_tier_events();
        if ev.is_empty() {
            return;
        }
        self.metrics.add(Counter::StoreSnapshots, ev.snapshots);
        self.metrics.add(Counter::StoreSnapshotBytes, ev.snapshot_bytes);
        self.metrics.add(Counter::StoreCompactions, ev.compactions);
        self.metrics.add(Counter::SegmentsSealed, ev.segments_sealed);
        self.metrics.add(Counter::SegmentsMerged, ev.segments_merged);
        self.metrics.add(Counter::ScrubPasses, ev.scrub_passes);
        self.metrics.add(Counter::ScrubCorruptions, ev.scrub_corruptions);
        self.metrics.add(Counter::SegmentsQuarantined, ev.segments_quarantined);
        let shard = self.index as u64;
        if ev.compactions > 0 {
            self.flight.record(FlightEventKind::CompactionRun, 0, shard, ev.segments_sealed);
        }
        if ev.scrub_passes > 0 {
            self.flight.record(FlightEventKind::ScrubPass, 0, shard, ev.segments_scrubbed);
        }
        if ev.segments_quarantined > 0 {
            let rows = self.store.manifest().quarantined_rows();
            self.flight.record(FlightEventKind::SegmentQuarantined, 0, shard, rows);
        }
    }

    /// Ingests one publish slice: applies every reading, then emits one
    /// delta batch covering all objects the slice touched.
    fn ingest(&mut self, batch: Vec<RawReading>, mut trace: Option<TraceChain>) {
        let mut applied: Vec<ObjectId> = Vec::new();
        for r in batch {
            self.ingest_one(r, &mut trace, &mut applied);
        }
        if applied.is_empty() {
            return;
        }
        self.sync_mirror();
        self.emit(&applied, false, trace);
    }

    /// Applies a single reading to the store, pushing the objects it
    /// changed onto `applied` (emission is the caller's job, once per
    /// publish slice).
    fn ingest_one(
        &mut self,
        r: RawReading,
        trace: &mut Option<TraceChain>,
        applied: &mut Vec<ObjectId>,
    ) {
        let before = applied.len();
        let clock = self.flight.clock().clone();
        let result = self.store.ingest_marked(
            r,
            &mut || {
                if let Some(chain) = trace.as_mut() {
                    chain.stamp(Hop::WalAppended, clock.now_ns());
                }
            },
            &mut |a| applied.push(a.object),
        );
        match result {
            Ok(()) => {}
            // Strict-mode rejection: durably logged, deterministically
            // refused — count it and move on, like recovery replay does.
            Err(StoreError::Stream(_)) => {
                self.metrics.add(Counter::ServeReadingsRejected, 1);
                self.flight.record(
                    FlightEventKind::ReadingRejected,
                    trace.as_ref().map_or(0, |t| t.id),
                    self.index as u64,
                    u64::from(r.object.0),
                );
            }
            Err(e) => panic!("shard {} store failed: {e}", self.index),
        }
        self.drain_tier_events();
        if applied.len() == before {
            return;
        }
        if let Some(chain) = trace.as_mut() {
            chain.stamp(Hop::Applied, clock.now_ns());
        }
        self.metrics.add(Counter::ServeReadingsApplied, (applied.len() - before) as u64);
        self.flight.record(
            FlightEventKind::ReadingApplied,
            trace.as_ref().map_or(0, |t| t.id),
            self.index as u64,
            u64::from(r.object.0),
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn run_shard(
    index: usize,
    dir: PathBuf,
    rx: Arc<Mutex<Receiver<ShardMsg>>>,
    queue_depth: Arc<AtomicUsize>,
    engine_tx: Sender<EngineMsg>,
    metrics: Arc<ServiceMetrics>,
    flight: Arc<FlightRecorder>,
    cfg: ShardConfig,
) {
    let (store, report) = IngestStore::open(StdFs, &dir, cfg.fresh_tracker(), cfg.store_options())
        .unwrap_or_else(|e| panic!("shard {index}: opening store {}: {e}", dir.display()));
    let mut state = ShardState {
        index,
        store,
        mirror: HashMap::new(),
        cursor: 0,
        last_te: HashMap::new(),
        engine_tx,
        metrics,
        flight,
    };
    // A restarted (or re-opened) shard rebuilds its mirror from the
    // recovered tracker and re-emits every object's rows as a full delta:
    // the engine converges to the recovered state regardless of which
    // deltas the crash swallowed.
    state.sync_mirror();
    if !report.created {
        // Closed rows live in the mirror; objects with only an open run
        // surface through an as-of-now state snapshot.
        let mut objects: Vec<ObjectId> = state.mirror.keys().copied().collect();
        if let Ok(ott) = state.store.tracker().snapshot() {
            objects.extend(ott.records().iter().map(|r| r.object));
        }
        objects.sort_unstable();
        objects.dedup();
        state.emit(&objects, true, None);
    }

    loop {
        let msg = {
            let guard = lock_or_recover(&rx);
            match guard.recv() {
                Ok(m) => m,
                Err(_) => break, // server dropped the sender: shut down
            }
        };
        // Queue depth is measured in readings, not messages, so the
        // backpressure bound keeps its meaning under batched publishes.
        let weight = match &msg {
            ShardMsg::Publish(batch, _) => batch.len().max(1),
            _ => 1,
        };
        let depth = queue_depth.fetch_sub(weight, Ordering::Relaxed).saturating_sub(weight);
        state.metrics.observe_queue_depth(depth as u64);
        match msg {
            ShardMsg::Publish(batch, mut trace) => {
                if let Some(chain) = trace.as_mut() {
                    chain.stamp(Hop::ShardDequeue, state.flight.clock().now_ns());
                }
                state.ingest(batch, trace);
            }
            ShardMsg::Flush(ack) => {
                let _ = ack.send(());
            }
            ShardMsg::StateHash(reply) => {
                let _ = reply.send(state.store.tracker().state_hash());
            }
            // No snapshot, no sync: the WAL is the truth. Dump the
            // flight recorder first so the postmortem shows what this
            // worker (and the rest of the pipeline) did right before.
            ShardMsg::Crash => {
                state.flight.record(FlightEventKind::ShardCrash, 0, index as u64, 0);
                let _ = std::fs::write(dir.join("postmortem.jsonl"), state.flight.dump_jsonl());
                return;
            }
            ShardMsg::Stop(ack) => {
                let _ = state.store.snapshot();
                let _ = ack.send(());
                return;
            }
        }
    }
    let _ = state.store.snapshot();
}
