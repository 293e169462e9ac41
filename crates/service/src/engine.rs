//! The incremental flow engine.
//!
//! One thread owns the materialized query state: every object's current
//! rows (from shard deltas) and, per subscription, a map of per-object
//! flow contributions. When a delta arrives, only the changed object's
//! contribution is recomputed — via the *same* per-object primitive the
//! batch iterative algorithms use ([`inflow_core::object_snapshot_flows`]
//! / [`inflow_core::object_interval_flows`]) — so the maintained result
//! provably tracks a from-scratch batch computation over the same rows.
//!
//! Two consequences of that design are load-bearing:
//!
//! * **Skip soundness.** A subscription whose query end time `t_q`
//!   satisfies `t_q < delta.affected_start` is skipped: rows before the
//!   affected start are unchanged, and resolving an object's state at
//!   `t_q` only consults records at or adjacent to `t_q` — all unchanged.
//!   Times at or after the frontier must recompute (a growing open run
//!   extends coverage, and a new successor record reshapes the inactive
//!   uncertainty region).
//! * **Drift-free flows.** Per-POI flows are re-summed from the
//!   contribution map (objects in ascending id order) on every refresh
//!   rather than maintained by `+= new − old`, so repeated updates cannot
//!   accumulate floating-point drift away from the batch answer.
//!
//! The engine also answers one-shot queries by assembling a full
//! [`FlowAnalytics`] over the union of all rows — the reference batch
//! path — and serves row dumps so tests can compute the same reference
//! externally.

use crate::metrics::ServiceMetrics;
use crate::protocol::{self, hash_ranked, tag, Resume, SubKind, SubSpec};
use crate::shard::DeltaBatch;
use inflow_core::{
    object_interval_flows, object_snapshot_flows, rank_topk, DistribQuery, DistribState,
    DwellState, FlowAnalytics, IntervalQuery, LongVisitQuery, SnapshotQuery,
};
use inflow_indoor::PoiId;
use inflow_obs::{Counter, FlightEventKind, FlightRecorder, Hop, TraceChain};
use inflow_rtree::RTree;
use inflow_tracking::{ObjectId, ObjectTrackingTable, OttRow};
use inflow_uncertainty::{IndoorContext, UrConfig, UrEngine};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Messages the engine consumes. Reply frames go through the requesting
/// connection's writer channel (already-encoded frames), which serializes
/// them with any pushed `UPDATE` frames.
pub enum EngineMsg {
    Delta(DeltaBatch),
    Subscribe {
        spec: SubSpec,
        conn: u64,
        /// Whether the subscriber negotiated protocol v2 and should
        /// receive the trace-chain section on its `UPDATE` frames.
        trace_v2: bool,
        /// A v3 reconnecting subscriber's resume point: the sequence
        /// number and top-k digest of the last update it saw. The engine
        /// continues the sequence from there and suppresses the initial
        /// push when the current answer still matches the digest.
        resume: Option<Resume>,
        writer: Sender<Vec<u8>>,
    },
    Unsubscribe {
        sub_id: u64,
        writer: Sender<Vec<u8>>,
    },
    Current {
        sub_id: u64,
        writer: Sender<Vec<u8>>,
    },
    Query {
        spec: SubSpec,
        writer: Sender<Vec<u8>>,
    },
    /// One-shot count-distribution detail: answers with a
    /// `DISTRIB_JSON` frame carrying every query POI's full
    /// Poisson-binomial pmf, tail mass, `P(count ≥ kq)`, expectation and
    /// median (the `QUERY` verb answers the same spec with its ranked
    /// top-k only).
    Distrib {
        spec: SubSpec,
        writer: Sender<Vec<u8>>,
    },
    DumpRows {
        writer: Sender<Vec<u8>>,
    },
    Stats {
        writer: Sender<Vec<u8>>,
    },
    /// Ack after everything enqueued before it is applied (the barrier
    /// protocol's second half; shards flushed first).
    Barrier {
        writer: Sender<Vec<u8>>,
    },
    /// Reply with a `HASH` frame digesting the engine's deterministic
    /// state (rows + per-subscription current answers) alongside the
    /// already-collected per-shard tracker hashes. Ordered after the
    /// shard flush, so every pre-barrier delta is applied first.
    StateHash {
        shard_hashes: Vec<u64>,
        writer: Sender<Vec<u8>>,
    },
    /// A connection closed: drop its subscriptions.
    DropConn(u64),
    Stop,
}

/// One registered continuous subscription.
struct Sub {
    id: u64,
    conn: u64,
    kind: SubKind,
    k: usize,
    epsilon: f64,
    pois: Vec<PoiId>,
    rp: RTree<PoiId>,
    /// Per-object contributions `(poi, presence)`; absent = empty.
    contrib: HashMap<ObjectId, Vec<(PoiId, f64)>>,
    state: SubState,
    /// The current materialized top-k (updated on every refresh, sent or
    /// not).
    current: Vec<(PoiId, f64)>,
    /// The last top-k actually pushed (the ε gate's reference point).
    last_sent: Option<Vec<(PoiId, f64)>>,
    seq: u64,
    /// v2 connections get the trace section on their updates.
    trace_v2: bool,
    writer: Sender<Vec<u8>>,
}

/// What a subscription keeps besides its contribution map, by kind.
enum SubState {
    /// Snapshot and interval: flows are re-summed from `contrib`.
    Flow,
    /// Incremental per-POI score cache: refolds a POI's Poisson binomial
    /// only when a delta touched it, kept in sync with `contrib` by
    /// [`Sub::store_contrib`].
    Distrib(DistribState),
    /// Per-object incremental dwell caches: the settled prefix of the
    /// dwell integral, so per-delta recompute touches only the tail of
    /// the window. Entries are dropped whenever a delta rewrites an
    /// object's history instead of appending to it.
    LongVisit(HashMap<ObjectId, DwellState>),
}

impl SubState {
    fn of(kind: SubKind) -> SubState {
        match kind {
            SubKind::Snapshot { .. } | SubKind::Interval { .. } => SubState::Flow,
            SubKind::Distrib { kq, kmax, .. } => {
                SubState::Distrib(DistribState::new(kq as usize, kmax as usize))
            }
            SubKind::LongVisit { .. } => SubState::LongVisit(HashMap::new()),
        }
    }
}

impl Sub {
    /// Whether a delta with this affected start can change the result.
    fn affected_by(&self, affected_start: f64) -> bool {
        self.kind.end_time() >= affected_start
    }

    /// Installs one object's recomputed contribution, keeping the
    /// distrib score cache in sync with the contribution map.
    fn store_contrib(&mut self, object: ObjectId, contrib: Vec<(PoiId, f64)>) {
        if let SubState::Distrib(state) = &mut self.state {
            let old = self.contrib.get(&object).map(Vec::as_slice).unwrap_or(&[]);
            state.update(object, old, &contrib);
        }
        if contrib.is_empty() {
            self.contrib.remove(&object);
        } else {
            self.contrib.insert(object, contrib);
        }
    }

    /// Re-ranks from the contribution map. Returns the ranked top-k.
    ///
    /// Every kind folds objects in ascending id order — the same order
    /// the batch paths walk their candidates — so the maintained values
    /// are bit-identical to a from-scratch recomputation:
    ///
    /// * `Snapshot`/`Interval`: per-POI flow = Σ presences;
    /// * `Distrib`: per-POI Poisson-binomial convolution of presences,
    ///   scored by `P(count ≥ kq)`;
    /// * `LongVisit`: per-POI count of objects whose stored dwell
    ///   reaches `d` (integer increments — drift-free by construction).
    fn rank(&mut self) -> Vec<(PoiId, f64)> {
        let scores = match (self.kind, &mut self.state) {
            // Refold only the POIs deltas touched since the last rank
            // (kept in sync by `store_contrib`).
            (_, SubState::Distrib(state)) => state.scores(&self.pois),
            (SubKind::LongVisit { d, .. }, _) => {
                self.sum_per_poi(|dwell| if dwell >= d { 1.0 } else { 0.0 })
            }
            _ => self.sum_per_poi(|presence| presence),
        };
        rank_topk(scores, self.k)
    }

    /// Per-POI sums of `term(value)` over the contribution map, objects
    /// in ascending id order.
    fn sum_per_poi(&self, term: impl Fn(f64) -> f64) -> Vec<(PoiId, f64)> {
        let mut objects: Vec<ObjectId> = self.contrib.keys().copied().collect();
        objects.sort_unstable();
        let mut sums: HashMap<PoiId, f64> = self.pois.iter().map(|&p| (p, 0.0)).collect();
        for o in objects {
            let Some(contrib) = self.contrib.get(&o) else { continue };
            for &(p, value) in contrib {
                // contrib_of only ever yields POIs from the query set; a
                // stranger POI is skipped rather than trusted with a panic.
                if let Some(sum) = sums.get_mut(&p) {
                    *sum += term(value);
                }
            }
        }
        sums.into_iter().collect()
    }

    /// Whether `ranked` crosses the ε gate relative to the last pushed
    /// result: membership (or order) changed, or some member's flow moved
    /// by more than ε.
    fn crosses_gate(&self, ranked: &[(PoiId, f64)]) -> bool {
        let Some(prev) = &self.last_sent else { return true };
        if prev.len() != ranked.len() {
            return true;
        }
        for (&(pp, pf), &(np, nf)) in prev.iter().zip(ranked) {
            if pp != np || (nf - pf).abs() > self.epsilon {
                return true;
            }
        }
        false
    }
}

pub struct EngineConfig {
    pub ctx: Arc<IndoorContext>,
    pub ur: UrConfig,
    pub flight: Arc<FlightRecorder>,
}

/// Spawns the engine thread.
pub fn spawn_engine(
    rx: Receiver<EngineMsg>,
    cfg: EngineConfig,
    metrics: Arc<ServiceMetrics>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("inflow-engine".into())
        .spawn(move || run_engine(rx, cfg, metrics))
}

struct Engine {
    ctx: Arc<IndoorContext>,
    ur_cfg: UrConfig,
    ur: UrEngine,
    rows: HashMap<ObjectId, Vec<OttRow>>,
    subs: HashMap<u64, Sub>,
    next_sub: u64,
    metrics: Arc<ServiceMetrics>,
    flight: Arc<FlightRecorder>,
}

impl Engine {
    /// Resolves a spec's POI set (empty = all plan POIs) and prebuilds
    /// its R-tree.
    fn resolve_pois(&self, pois: &[PoiId]) -> (Vec<PoiId>, RTree<PoiId>) {
        let plan = self.ctx.plan();
        let pois: Vec<PoiId> = if pois.is_empty() {
            plan.pois().iter().map(|p| p.id).collect()
        } else {
            pois.to_vec()
        };
        let rp = RTree::bulk_load(pois.iter().map(|&p| (plan.poi(p).mbr(), p)).collect());
        (pois, rp)
    }

    /// Recomputes one object's contribution for one subscription.
    /// Takes the subscription mutably because a long-visit recompute
    /// advances its per-object incremental dwell cache.
    fn contrib_of(
        ur: &UrEngine,
        sub: &mut Sub,
        ott: &ObjectTrackingTable,
        object: ObjectId,
    ) -> Vec<(PoiId, f64)> {
        match (sub.kind, &mut sub.state) {
            // A distrib subscription stores the same per-object snapshot
            // presences a Snapshot one does (the distribution shape is
            // applied at rank time), so its per-delta recompute cost is
            // identical — the bench9 overhead gate leans on this.
            (SubKind::Snapshot { t } | SubKind::Distrib { t, .. }, _) => {
                object_snapshot_flows(ur, ott, object, t, &sub.rp)
            }
            (SubKind::Interval { ts, te }, _) => {
                object_interval_flows(ur, ott, object, ts, te, &sub.rp)
            }
            // A long-visit subscription stores expected dwell per POI;
            // the threshold count is applied at rank time so ε/`d` never
            // influence what is cached. The dwell integral is maintained
            // incrementally — appends only change presence past the last
            // record's start, so only the window tail is re-integrated.
            (SubKind::LongVisit { ts, te, .. }, SubState::LongVisit(dwell)) => {
                dwell.entry(object).or_default().recompute(ur, ott, object, ts, te, &sub.rp)
            }
            // `SubState::of` gives every long-visit subscription its caches.
            (SubKind::LongVisit { .. }, _) => Vec::new(),
        }
    }

    fn apply_delta(&mut self, batch: DeltaBatch, dirty: &mut HashSet<u64>) {
        for delta in batch.deltas {
            let prev = self.rows.insert(delta.object, delta.rows.clone());
            if self.subs.is_empty() {
                continue;
            }
            // Appends — including the tracker growing its open last
            // record's `te` in place — keep incremental dwell caches
            // valid; anything else (repair rewriting history) resets
            // them for this object.
            let extends = prev.is_none_or(|old| rows_extend(&old, &delta.rows));
            // One single-object table per delta, shared by every affected
            // subscription. Tracker-produced rows always satisfy the OTT
            // invariants (ordered, non-overlapping per object); a batch
            // that doesn't is dropped and counted, never trusted.
            let ott = match ObjectTrackingTable::from_rows(delta.rows) {
                Ok(o) => o,
                Err(_) => {
                    self.metrics.add(Counter::ServeDeltaRowsInvalid, 1);
                    continue;
                }
            };
            let sub_ids: Vec<u64> = self.subs.keys().copied().collect();
            for id in sub_ids {
                let Some(sub) = self.subs.get_mut(&id) else { continue };
                if !extends {
                    if let SubState::LongVisit(dwell) = &mut sub.state {
                        dwell.remove(&delta.object);
                    }
                }
                if !sub.affected_by(delta.affected_start) {
                    continue;
                }
                let t0 = Instant::now();
                let contrib = Self::contrib_of(&self.ur, sub, &ott, delta.object);
                self.metrics.observe_recompute_ns(t0.elapsed().as_nanos() as u64);
                self.metrics.add(Counter::ServeRecomputes, 1);
                sub.store_contrib(delta.object, contrib);
                dirty.insert(id);
            }
        }
    }

    /// Re-ranks a dirty subscription and pushes an update if it crosses
    /// the ε gate. `trace` is the context of the delta that dirtied the
    /// subscription; every notification it produces gets its own copy
    /// with a per-subscriber `notified` stamp.
    fn refresh(&mut self, sub_id: u64, trace: Option<&TraceChain>) {
        let Some(sub) = self.subs.get_mut(&sub_id) else { return };
        let ranked = sub.rank();
        sub.current = ranked.clone();
        if sub.crosses_gate(&ranked) {
            let t0 = Instant::now();
            sub.seq += 1;
            let chain = trace.map(|t| {
                let mut chain = *t;
                chain.stamp(Hop::Notified, self.flight.clock().now_ns());
                chain
            });
            let wire_trace = if sub.trace_v2 { chain.as_ref() } else { None };
            let payload = protocol::encode_update_traced(sub.id, sub.seq, &ranked, wire_trace);
            let mut frame = Vec::with_capacity(9 + payload.len());
            inflow_tracking::store::frame::write_frame(&mut frame, tag::UPDATE, &payload);
            let delivered = sub.writer.send(frame).is_ok();
            sub.last_sent = Some(ranked);
            self.metrics.observe_notify_ns(t0.elapsed().as_nanos() as u64);
            self.metrics.add(Counter::ServeNotifications, 1);
            let seq = sub.seq;
            if let Some(chain) = chain.as_ref() {
                self.metrics.observe_trace(chain, sub_id);
                self.flight.record(FlightEventKind::NotifySent, chain.id, sub_id, seq);
            } else {
                self.flight.record(FlightEventKind::NotifySent, 0, sub_id, seq);
            }
            if !delivered {
                // The connection is gone; the DropConn cleanup will
                // remove the subscription shortly.
            }
        } else {
            self.metrics.add(Counter::ServeNotificationsSuppressed, 1);
            self.flight.record(
                FlightEventKind::NotifySuppressed,
                trace.map_or(0, |t| t.id),
                sub_id,
                0,
            );
        }
    }

    fn subscribe(
        &mut self,
        spec: SubSpec,
        conn: u64,
        trace_v2: bool,
        resume: Option<Resume>,
        writer: Sender<Vec<u8>>,
    ) {
        let (pois, rp) = self.resolve_pois(&spec.pois);
        let id = self.next_sub;
        self.next_sub += 1;
        let mut sub = Sub {
            id,
            conn,
            kind: spec.kind,
            k: spec.k,
            epsilon: spec.epsilon,
            pois,
            rp,
            contrib: HashMap::new(),
            state: SubState::of(spec.kind),
            current: Vec::new(),
            last_sent: None,
            seq: 0,
            trace_v2,
            writer,
        };
        // Initial materialization over every known object.
        for (&object, rows) in &self.rows {
            let ott = match ObjectTrackingTable::from_rows(rows.clone()) {
                Ok(o) => o,
                Err(_) => {
                    self.metrics.add(Counter::ServeDeltaRowsInvalid, 1);
                    continue;
                }
            };
            let t0 = Instant::now();
            let contrib = Self::contrib_of(&self.ur, &mut sub, &ott, object);
            self.metrics.observe_recompute_ns(t0.elapsed().as_nanos() as u64);
            self.metrics.add(Counter::ServeRecomputes, 1);
            sub.store_contrib(object, contrib);
        }
        if let Some(r) = resume {
            // Continue the interrupted sequence: the next pushed update
            // carries `last_seq + 1`. When the current answer still
            // digests to what the client last saw, pre-seed the ε gate's
            // reference so the initial refresh suppresses the duplicate;
            // otherwise the refresh pushes the missed state.
            sub.seq = r.last_seq;
            let ranked = sub.rank();
            if hash_ranked(&ranked) == r.last_hash {
                sub.last_sent = Some(ranked);
            }
            self.metrics.add(Counter::ServeResumedSubscriptions, 1);
            self.flight.record(FlightEventKind::SubResumed, 0, id, r.last_seq);
        }
        send_frame(&sub.writer, tag::SUB_ACK, &protocol::encode_u64(id));
        self.metrics.add(Counter::ServeSubscriptions, 1);
        self.metrics.add(
            match sub.kind {
                SubKind::Snapshot { .. } => Counter::ServeSnapshotSubscriptions,
                SubKind::Interval { .. } => Counter::ServeIntervalSubscriptions,
                SubKind::Distrib { .. } => Counter::ServeDistribSubscriptions,
                SubKind::LongVisit { .. } => Counter::ServeLongvisitSubscriptions,
            },
            1,
        );
        self.flight.record(FlightEventKind::Subscribed, 0, id, conn);
        self.subs.insert(id, sub);
        // The initial result counts as the first update (seq 1); a
        // resumed subscription either continues its sequence or stays
        // silent until the answer moves.
        self.refresh(id, None);
    }

    /// Digests the engine's replay-deterministic state: every object's
    /// rows (ascending object id, canonical 24-byte row encoding) and
    /// every subscription's current top-k (ascending id). Sequence
    /// numbers and ε-gate reference points are deliberately excluded —
    /// they depend on delta interleaving, which barriers do not fix.
    fn state_hash(&self) -> u64 {
        let frame = inflow_tracking::store::frame::encode_row;
        let mut buf = Vec::new();
        let mut objects: Vec<ObjectId> = self.rows.keys().copied().collect();
        objects.sort_unstable();
        for o in objects {
            let Some(rows) = self.rows.get(&o) else { continue };
            for row in rows {
                buf.extend_from_slice(&frame(row));
            }
        }
        let mut ids: Vec<u64> = self.subs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let Some(sub) = self.subs.get(&id) else { continue };
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&hash_ranked(&sub.current).to_le_bytes());
        }
        inflow_tracking::store::frame::fnv1a(&buf)
    }

    /// Every current row, ordered by object, then `ts`, then `te`.
    fn sorted_rows(&self) -> Vec<OttRow> {
        let mut rows: Vec<OttRow> = self.rows.values().flatten().copied().collect();
        rows.sort_by(|a, b| {
            a.object.cmp(&b.object).then(a.ts.total_cmp(&b.ts)).then(a.te.total_cmp(&b.te))
        });
        rows
    }

    /// The reference batch analytics over the union of all current rows;
    /// rows that do not form a valid table are reported on `writer`.
    fn batch(&self, writer: &Sender<Vec<u8>>) -> Option<FlowAnalytics> {
        match ObjectTrackingTable::from_rows(self.sorted_rows()) {
            Ok(ott) => Some(FlowAnalytics::new(Arc::clone(&self.ctx), ott, self.ur_cfg)),
            Err(e) => {
                send_frame(writer, tag::ERROR, format!("inconsistent rows: {e}").as_bytes());
                None
            }
        }
    }

    /// One-shot query: the reference batch path over the union of all
    /// current rows.
    fn one_shot(&self, spec: &SubSpec, writer: &Sender<Vec<u8>>) {
        let Some(fa) = self.batch(writer) else { return };
        let (pois, _) = self.resolve_pois(&spec.pois);
        let ranked = match spec.kind {
            SubKind::Snapshot { t } => {
                fa.snapshot_topk_iterative(&SnapshotQuery::new(t, pois, spec.k)).ranked
            }
            SubKind::Interval { ts, te } => {
                fa.interval_topk_iterative(&IntervalQuery::new(ts, te, pois, spec.k)).ranked
            }
            SubKind::Distrib { t, kq, kmax } => {
                fa.distrib_topk(&DistribQuery::at(t, pois, kq as usize, kmax as usize, spec.k))
                    .ranked
            }
            SubKind::LongVisit { ts, te, d } => {
                fa.longvisit_topk(&LongVisitQuery::new(ts, te, d, pois, spec.k)).ranked
            }
        };
        self.metrics.add(Counter::ServeOneShotQueries, 1);
        send_frame(writer, tag::RESULT, &protocol::encode_ranked(&ranked));
    }

    /// Full count-distribution detail for a one-shot `DISTRIB` request:
    /// the batch distribution over the union of all current rows,
    /// serialized as JSON (per-POI pmf, tail, `P(count ≥ kq)`,
    /// expectation and median, plus the ranked top-k).
    fn distrib_detail(&self, spec: &SubSpec, writer: &Sender<Vec<u8>>) {
        let SubKind::Distrib { t, kq, kmax } = spec.kind else {
            send_frame(writer, tag::ERROR, b"DISTRIB requires a distrib query kind");
            return;
        };
        let Some(fa) = self.batch(writer) else { return };
        let (pois, _) = self.resolve_pois(&spec.pois);
        let q = DistribQuery::at(t, pois, kq as usize, kmax as usize, spec.k);
        let res = fa.distrib_topk(&q);
        let mut json = String::with_capacity(256);
        json.push_str(&format!("{{\"version\":1,\"t\":{t},\"kq\":{kq},\"kmax\":{kmax},\"pois\":["));
        for (i, (poi, dist)) in res.distributions.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"poi\":{},\"p_ge\":{},\"expectation\":{},\"median\":{},\"tail\":{},\"pmf\":[",
                poi.0,
                dist.p_ge(kq as usize),
                dist.expectation(),
                dist.quantile(0.5),
                dist.tail_mass()
            ));
            for k in 0..=dist.kmax() {
                if k > 0 {
                    json.push(',');
                }
                json.push_str(&format!("{}", dist.pmf(k)));
            }
            json.push_str("]}");
        }
        json.push_str("],\"ranked\":[");
        for (i, (poi, score)) in res.ranked.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!("[{},{}]", poi.0, score));
        }
        json.push_str("]}");
        send_frame(writer, tag::DISTRIB_JSON, json.as_bytes());
    }

    fn dump_rows(&self, writer: &Sender<Vec<u8>>) {
        send_frame(writer, tag::ROWS, &protocol::encode_rows(&self.sorted_rows()));
    }
}

/// Whether `new` merely extends `old`: every row but `old`'s last is
/// unchanged, and the last keeps its identity — the online tracker
/// grows an open record's `te` in place as readings merge into it.
/// Incremental dwell caches tolerate exactly these shapes (presence
/// before the last record's start is unaffected by either); any other
/// change is a history rewrite and must reset them.
fn rows_extend(old: &[OttRow], new: &[OttRow]) -> bool {
    let Some((last, stable)) = old.split_last() else { return true };
    if new.get(..stable.len()) != Some(stable) {
        return false;
    }
    let Some(n) = new.get(stable.len()) else { return false };
    n.object == last.object && n.device == last.device && n.ts == last.ts && n.te >= last.te
}

/// Encodes and enqueues one reply frame; a dead connection is ignored
/// (its reader already initiated cleanup).
fn send_frame(writer: &Sender<Vec<u8>>, tag_byte: u8, payload: &[u8]) {
    let mut frame = Vec::with_capacity(9 + payload.len());
    inflow_tracking::store::frame::write_frame(&mut frame, tag_byte, payload);
    let _ = writer.send(frame);
}

fn run_engine(rx: Receiver<EngineMsg>, cfg: EngineConfig, metrics: Arc<ServiceMetrics>) {
    let ur = UrEngine::new(Arc::clone(&cfg.ctx), cfg.ur);
    let mut engine = Engine {
        ctx: cfg.ctx,
        ur_cfg: cfg.ur,
        ur,
        rows: HashMap::new(),
        subs: HashMap::new(),
        next_sub: 1,
        metrics,
        flight: cfg.flight,
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            EngineMsg::Delta(mut batch) => {
                let clock = engine.flight.clock().clone();
                if let Some(chain) = batch.trace.as_mut() {
                    chain.stamp(Hop::EngineDequeue, clock.now_ns());
                }
                let mut trace = batch.trace;
                let shard = batch.shard as u64;
                let objects = batch.deltas.len() as u64;
                let mut dirty = HashSet::new();
                engine.apply_delta(batch, &mut dirty);
                if let Some(chain) = trace.as_mut() {
                    chain.stamp(Hop::Recomputed, clock.now_ns());
                }
                engine.flight.record(
                    FlightEventKind::DeltaApplied,
                    trace.map_or(0, |t| t.id),
                    shard,
                    objects,
                );
                let mut ids: Vec<u64> = dirty.into_iter().collect();
                ids.sort_unstable();
                for id in ids {
                    engine.refresh(id, trace.as_ref());
                }
            }
            EngineMsg::Subscribe { spec, conn, trace_v2, resume, writer } => {
                engine.subscribe(spec, conn, trace_v2, resume, writer)
            }
            EngineMsg::Unsubscribe { sub_id, writer } => {
                engine.subs.remove(&sub_id);
                engine.flight.record(FlightEventKind::Unsubscribed, 0, sub_id, 0);
                send_frame(&writer, tag::ACK, &[]);
            }
            EngineMsg::Current { sub_id, writer } => match engine.subs.get(&sub_id) {
                Some(sub) => {
                    send_frame(&writer, tag::RESULT, &protocol::encode_ranked(&sub.current))
                }
                None => send_frame(&writer, tag::ERROR, b"unknown subscription"),
            },
            EngineMsg::Query { spec, writer } => engine.one_shot(&spec, &writer),
            EngineMsg::Distrib { spec, writer } => engine.distrib_detail(&spec, &writer),
            EngineMsg::DumpRows { writer } => engine.dump_rows(&writer),
            EngineMsg::Stats { writer } => {
                send_frame(&writer, tag::STATS_TEXT, engine.metrics.render().as_bytes())
            }
            EngineMsg::Barrier { writer } => send_frame(&writer, tag::ACK, &[]),
            EngineMsg::StateHash { shard_hashes, writer } => {
                let hash =
                    protocol::StateHash { engine: engine.state_hash(), shards: shard_hashes };
                send_frame(&writer, tag::HASH, &protocol::encode_state_hash(&hash));
            }
            EngineMsg::DropConn(conn) => engine.subs.retain(|_, s| s.conn != conn),
            EngineMsg::Stop => break,
        }
    }
}
