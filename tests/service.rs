//! End-to-end tests for the continuous flow-monitoring server.
//!
//! The load-bearing invariant: at every synchronization point, each
//! subscription's materialized top-k must equal a from-scratch batch
//! computation over the exact rows the engine holds (fetched via
//! `DUMP_ROWS`, recomputed locally with the same `UrConfig`). The
//! barrier protocol makes each point deterministic — after `barrier()`
//! returns, every prior publish is ingested, its deltas applied, and all
//! triggered updates are already buffered client-side.

use inflow::core::{DistribQuery, FlowAnalytics, IntervalQuery, LongVisitQuery, SnapshotQuery};
use inflow::geometry::GridResolution;
use inflow::service::{Client, ServeConfig, Server, ServerHandle, SubKind, SubSpec};
use inflow::tracking::{ObjectTrackingTable, RawReading};
use inflow::uncertainty::{IndoorContext, UrConfig};
use inflow::workload::{generate_synthetic, SyntheticConfig, Workload};
use inflow::{indoor::PoiId, obs::Counter, obs::Json};
use std::collections::HashMap;
use std::sync::Arc;

const TOL: f64 = 1e-9;
const MAX_GAP: f64 = 60.0;

/// Small enough for per-reading incremental recomputes to stay fast in
/// debug builds, large enough for real flow dynamics (12 objects roaming
/// 6 rooms with 8 POIs for 5 simulated minutes).
fn small_workload() -> Workload {
    generate_synthetic(&SyntheticConfig {
        rooms_x: 3,
        rooms_y: 2,
        num_objects: 12,
        duration: 300.0,
        num_pois: 8,
        ..SyntheticConfig::default()
    })
}

/// Coarse presence integration keeps each incremental recompute cheap;
/// both sides of every comparison use this exact config.
fn ur_config(w: &Workload) -> UrConfig {
    UrConfig { vmax: w.vmax, resolution: GridResolution::COARSE, ..UrConfig::default() }
}

/// Expands the workload's OTT back into a time-ordered reading stream
/// (each record's endpoints), the same derivation the CLI uses.
fn readings_of(w: &Workload) -> Vec<RawReading> {
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

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("inflow-service-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_server(w: &Workload, name: &str, shards: usize) -> (ServerHandle, std::path::PathBuf) {
    let dir = temp_dir(name);
    let cfg =
        ServeConfig { shards, max_gap: MAX_GAP, ur: ur_config(w), ..ServeConfig::new(dir.clone()) };
    let handle = Server::start(Arc::clone(&w.ctx), cfg).expect("server start");
    (handle, dir)
}

/// From-scratch batch reference over `rows`, using the same context and
/// UR configuration as the server.
fn batch_reference(
    ctx: &Arc<IndoorContext>,
    cfg: UrConfig,
    rows: Vec<inflow::tracking::OttRow>,
    kind: &SubKind,
    pois: Vec<PoiId>,
    k: usize,
) -> Vec<(PoiId, f64)> {
    if rows.is_empty() {
        // No tracked objects yet: every flow is zero; the engine ranks
        // the full (zero-flow) POI set by id.
        return inflow::core::rank_topk(pois.into_iter().map(|p| (p, 0.0)).collect(), k);
    }
    let ott = ObjectTrackingTable::from_rows(rows).expect("dumped rows are consistent");
    let fa = FlowAnalytics::new(Arc::clone(ctx), ott, cfg);
    match *kind {
        SubKind::Snapshot { t } => {
            fa.snapshot_topk_iterative(&SnapshotQuery::new(t, pois, k)).ranked
        }
        SubKind::Interval { ts, te } => {
            fa.interval_topk_iterative(&IntervalQuery::new(ts, te, pois, k)).ranked
        }
        // The zero-row shortcut above scores every POI 0.0, which for a
        // distrib kind presumes kq >= 1 (an empty Poisson binomial has
        // P(count >= 0) = 1); the subscriptions under test honor that.
        SubKind::Distrib { t, kq, kmax } => {
            fa.distrib_topk(&DistribQuery::at(t, pois, kq as usize, kmax as usize, k)).ranked
        }
        SubKind::LongVisit { ts, te, d } => {
            fa.longvisit_topk(&LongVisitQuery::new(ts, te, d, pois, k)).ranked
        }
    }
}

/// Positional comparison within `TOL`, tolerant of rank swaps between
/// POIs whose flows are tied within tolerance (the two sides accumulate
/// per-object contributions in different orders, so mathematical ties
/// can land 1 ulp apart and sort either way).
fn assert_ranked_eq(got: &[(PoiId, f64)], want: &[(PoiId, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch\n got: {got:?}\nwant: {want:?}");
    let want_map: HashMap<PoiId, f64> = want.iter().copied().collect();
    for (i, (&(gp, gf), &(wp, wf))) in got.iter().zip(want).enumerate() {
        assert!(
            (gf - wf).abs() <= TOL,
            "{what}: flow diverges at rank {i}: {gf} vs {wf} (|Δ|={})\n got: {got:?}\nwant: {want:?}",
            (gf - wf).abs()
        );
        if gp != wp {
            // A swap is only legitimate between tied entries: this POI's
            // flow in the reference must also match.
            let alt = want_map.get(&gp).copied().unwrap_or(wf);
            assert!(
                (gf - alt).abs() <= TOL,
                "{what}: rank {i} holds {gp} ({gf}) but reference attributes {alt}\n got: {got:?}\nwant: {want:?}"
            );
        }
    }
}

/// Streams the workload in chunks through the server with one
/// subscription of every kind — snapshot, interval, count-distribution
/// and long-visit (ε = 0, k = all POIs) — registered up front; at every
/// barrier, each subscription's materialized result must match the batch
/// reference over the engine's rows. `crash_at`, if set, crashes shard 0
/// after that chunk and restarts it two chunks later.
fn run_stream_and_verify(name: &str, crash_at: Option<usize>) {
    let w = small_workload();
    let readings = readings_of(&w);
    assert!(readings.len() > 50, "workload too small to exercise streaming");
    let all_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();
    let k = all_pois.len();
    let t_mid = 150.0;
    let (ts, te) = (75.0, 225.0);

    let (handle, dir) = start_server(&w, name, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let snap_spec = SubSpec {
        kind: SubKind::Snapshot { t: t_mid },
        k,
        epsilon: 0.0,
        pois: Vec::new(), // empty = all plan POIs
    };
    let int_spec =
        SubSpec { kind: SubKind::Interval { ts, te }, k, epsilon: 0.0, pois: Vec::new() };
    let distrib_spec = SubSpec {
        kind: SubKind::Distrib { t: t_mid, kq: 2, kmax: 16 },
        k,
        epsilon: 0.0,
        pois: Vec::new(),
    };
    let longvisit_spec =
        SubSpec { kind: SubKind::LongVisit { ts, te, d: 5.0 }, k, epsilon: 0.0, pois: Vec::new() };
    let snap_id = client.subscribe(&snap_spec).expect("subscribe snapshot");
    let int_id = client.subscribe(&int_spec).expect("subscribe interval");
    let distrib_id = client.subscribe(&distrib_spec).expect("subscribe distrib");
    let longvisit_id = client.subscribe(&longvisit_spec).expect("subscribe longvisit");
    let subs = [
        (snap_id, &snap_spec, "snapshot"),
        (int_id, &int_spec, "interval"),
        (distrib_id, &distrib_spec, "distrib"),
        (longvisit_id, &longvisit_spec, "longvisit"),
    ];
    client.barrier().expect("initial barrier");
    // Initial results (seq 1) over an empty engine.
    let initial = client.take_updates();
    for (sub_id, _, label) in subs {
        assert!(
            initial.iter().any(|u| u.sub_id == sub_id),
            "{label} subscription must push its initial result"
        );
    }

    let ur = ur_config(&w);
    let chunk = readings.len().div_ceil(12).max(1);
    let mut crashed = false;
    for (i, batch) in readings.chunks(chunk).enumerate() {
        client.publish(batch).expect("publish");
        if Some(i) == crash_at {
            handle.crash_shard(0);
            crashed = true;
        }
        if crashed && Some(i.wrapping_sub(2)) == crash_at {
            handle.restart_shard(0).expect("restart shard");
            crashed = false;
        }
        if crashed {
            // Half the pipeline is down; skip verification until the
            // shard is back (its queue holds the unprocessed readings).
            continue;
        }
        client.barrier().expect("barrier");

        let rows = client.dump_rows().expect("dump rows");
        for (sub_id, spec, label) in subs {
            let want =
                batch_reference(&w.ctx, ur, rows.clone(), &spec.kind, all_pois.clone(), spec.k);
            let current = client.current(sub_id).expect("current");
            assert_ranked_eq(&current, &want, &format!("{label} sub, chunk {i}"));
        }
        // Every pushed update for a sub must agree with the sub's final
        // materialized state at the barrier where it was drained, or be a
        // superseded intermediate — the last one per sub must match.
        let updates = client.take_updates();
        for (sub_id, _, label) in subs {
            if let Some(last) = updates.iter().rev().find(|u| u.sub_id == sub_id) {
                let current = client.current(sub_id).expect("current after drain");
                assert_ranked_eq(
                    &last.ranked,
                    &current,
                    &format!("{label} last update, chunk {i}"),
                );
            }
        }
    }
    assert!(!crashed, "crash schedule never restarted the shard");

    // Final convergence: everything published must now be reflected.
    client.barrier().expect("final barrier");
    let rows = client.dump_rows().expect("final rows");
    assert!(!rows.is_empty(), "no rows survived the stream");
    let want = batch_reference(&w.ctx, ur, rows, &snap_spec.kind, all_pois, k);
    let current = client.current(snap_id).expect("final current");
    assert_ranked_eq(&current, &want, "final snapshot state");

    if crash_at.is_some() {
        let m = handle.metrics();
        assert_eq!(m.counter(Counter::ServeShardRestarts), 1, "restart not counted");
    }

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn subscriptions_track_batch_reference() {
    run_stream_and_verify("steady", None);
}

#[test]
fn shard_crash_and_restart_reconverges() {
    run_stream_and_verify("crash", Some(3));
}

/// A large ε suppresses pushes for sub-threshold changes while `CURRENT`
/// still tracks the exact materialized state.
#[test]
fn epsilon_gates_notifications() {
    let w = small_workload();
    let readings = readings_of(&w);
    let all_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();

    let (handle, dir) = start_server(&w, "epsilon", 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // ε far above any achievable flow delta: only membership/order
    // changes can push.
    let spec = SubSpec {
        kind: SubKind::Interval { ts: 0.0, te: 300.0 },
        k: all_pois.len(),
        epsilon: 1e12,
        pois: Vec::new(),
    };
    let sub_id = client.subscribe(&spec).expect("subscribe");
    client.barrier().expect("barrier");
    let initial = client.take_updates();
    assert_eq!(initial.len(), 1, "exactly the initial push expected");
    assert_eq!(initial[0].sub_id, sub_id);

    for batch in readings.chunks(64) {
        client.publish(batch).expect("publish");
    }
    client.barrier().expect("barrier");
    let m = handle.metrics();
    assert!(
        m.counter(Counter::ServeNotificationsSuppressed) > 0,
        "large ε never suppressed a push:\n{}",
        m.render()
    );
    // CURRENT is exact regardless of suppression.
    let rows = client.dump_rows().expect("rows");
    let want = batch_reference(&w.ctx, ur_config(&w), rows, &spec.kind, all_pois.clone(), spec.k);
    let current = client.current(sub_id).expect("current");
    assert_ranked_eq(&current, &want, "suppressed sub current state");

    // The stats report must surface the pipeline counters end-to-end.
    let stats = client.stats().expect("stats");
    assert!(stats.contains("serve_readings_sharded"), "missing router counter:\n{stats}");
    assert!(stats.contains("serve_recompute"), "missing recompute histogram:\n{stats}");

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// Every traced update's hop chain must be monotone, complete
/// (router → shard → WAL → apply → engine → recompute → notify), carry
/// at least 4 named latency segments, and those segments must sum to
/// (within 10% of) the chain's end-to-end total — including across a
/// shard crash/restart, whose queued publishes keep their chains.
#[test]
fn trace_chains_decompose_notify_latency() {
    let w = small_workload();
    let readings = readings_of(&w);
    let all_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();

    let (handle, dir) = start_server(&w, "trace", 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert!(client.version() >= 2, "client must negotiate a traced protocol");

    let spec = SubSpec {
        kind: SubKind::Interval { ts: 0.0, te: 300.0 },
        k: all_pois.len(),
        epsilon: 0.0,
        pois: Vec::new(),
    };
    client.subscribe(&spec).expect("subscribe");
    client.barrier().expect("barrier");
    client.take_updates(); // drop the untraced initial result

    let mut traced = 0usize;
    let mut crashed = false;
    let chunk = readings.len().div_ceil(8).max(1);
    for (i, batch) in readings.chunks(chunk).enumerate() {
        let id = client.publish(batch).expect("publish");
        assert!(id.is_some(), "v2 publish must return the assigned trace id");
        if i == 2 {
            handle.crash_shard(0);
            crashed = true;
        }
        if crashed && i == 4 {
            handle.restart_shard(0).expect("restart shard");
            crashed = false;
        }
        if crashed {
            continue;
        }
        client.barrier().expect("barrier");
        for u in client.take_updates() {
            let Some(chain) = u.trace else { continue };
            traced += 1;
            assert!(chain.id > 0, "trace id must be assigned");
            assert!(chain.is_monotone(), "hop chain not monotone: {}", chain.to_json());
            assert!(chain.is_complete(), "hop chain incomplete: {}", chain.to_json());
            let segments = chain.segments();
            assert!(segments.len() >= 4, "expected >= 4 named segments, got {segments:?}");
            let total = chain.total_ns().expect("complete chain has a total");
            let sum: u64 = segments.iter().map(|&(_, ns)| ns).sum();
            let tolerance = total / 10;
            assert!(
                sum.abs_diff(total) <= tolerance,
                "segments sum {sum} differs from total {total} by more than 10%: {segments:?}"
            );
        }
    }
    assert!(traced > 0, "no update carried a trace chain");

    // The TRACE verb surfaces the same chains server-side.
    let traces = Json::parse(&client.trace_json().expect("trace_json")).expect("valid trace json");
    let recent = traces.get("recent").and_then(|r| r.as_arr()).expect("recent array");
    assert!(!recent.is_empty(), "server recorded no completed traces");
    let seg = recent[0]
        .get("trace")
        .and_then(|t| t.get("segments"))
        .and_then(|s| s.as_obj())
        .expect("segments object");
    assert!(seg.len() >= 4, "server-side trace has too few segments: {seg:?}");

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// A crashing shard worker dumps the flight recorder to
/// `postmortem.jsonl` in its store directory: the dump must parse as
/// JSONL, contain the `shard_crash` event, and include pipeline events
/// from *before* the crash (the point of a flight recorder).
#[test]
fn shard_crash_writes_flight_postmortem() {
    let w = small_workload();
    let readings = readings_of(&w);

    let (handle, dir) = start_server(&w, "postmortem", 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.publish(&readings[..readings.len() / 2]).expect("publish");
    client.barrier().expect("barrier");
    handle.crash_shard(0);

    // The worker writes the postmortem before exiting; crash_shard joins
    // nothing, so poll briefly for the file.
    let path = dir.join("shard-0").join("postmortem.jsonl");
    let mut dump = String::new();
    for _ in 0..100 {
        if let Ok(s) = std::fs::read_to_string(&path) {
            dump = s;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(!dump.is_empty(), "no postmortem at {}", path.display());

    let mut kinds = Vec::new();
    for line in dump.lines() {
        let event = Json::parse(line).expect("postmortem line is valid JSON");
        let kind = event.get("event").and_then(|k| k.as_str()).expect("event kind").to_string();
        assert!(event.get("seq").and_then(|s| s.as_u64()).is_some(), "event seq");
        assert!(event.get("at_ns").and_then(|s| s.as_u64()).is_some(), "event at_ns");
        kinds.push(kind);
    }
    assert!(kinds.iter().any(|k| k == "shard_crash"), "crash event missing: {kinds:?}");
    let crash_at = kinds.iter().position(|k| k == "shard_crash").unwrap_or(0);
    assert!(
        kinds[..crash_at].iter().any(|k| k == "reading_applied" || k == "publish_routed"),
        "no pipeline events precede the crash: {kinds:?}"
    );

    handle.restart_shard(0).expect("restart");
    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// `METRICS` and `FLIGHT` replies must be machine-readable: valid JSON
/// with exact histogram bucket bounds that tile the observations, and
/// valid JSONL respectively.
#[test]
fn metrics_snapshot_is_well_formed() {
    let w = small_workload();
    let readings = readings_of(&w);

    let (handle, dir) = start_server(&w, "metrics-json", 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec =
        SubSpec { kind: SubKind::Snapshot { t: 150.0 }, k: 5, epsilon: 0.0, pois: Vec::new() };
    client.subscribe(&spec).expect("subscribe");
    client.publish(&readings).expect("publish");
    client.barrier().expect("barrier");

    let snap = Json::parse(&client.metrics_json().expect("metrics_json")).expect("valid json");
    assert_eq!(snap.get("version").and_then(|v| v.as_u64()), Some(1));
    assert!(snap.get("uptime_ns").and_then(|v| v.as_u64()).is_some());
    let counters = snap.get("counters").and_then(|c| c.as_obj()).expect("counters object");
    assert!(
        counters.get("serve_readings_sharded").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
        "router counter missing or zero"
    );
    let hists = snap.get("histograms").and_then(|h| h.as_arr()).expect("histograms array");
    let mut saw_e2e = false;
    for h in hists {
        let name = h.get("name").and_then(|n| n.as_str()).expect("histogram name");
        assert!(h.get("unit").and_then(|u| u.as_str()).is_some(), "{name}: unit");
        let count = h.get("count").and_then(|c| c.as_u64()).expect("count");
        let buckets = h.get("buckets").and_then(|b| b.as_arr()).expect("buckets");
        let mut total = 0u64;
        for b in buckets {
            let lo = b.get("lo").and_then(|v| v.as_u64()).expect("bucket lo");
            let hi = b.get("hi").and_then(|v| v.as_u64()).expect("bucket hi");
            assert!(lo <= hi, "{name}: bucket bound inversion {lo} > {hi}");
            total += b.get("n").and_then(|v| v.as_u64()).expect("bucket n");
        }
        assert_eq!(total, count, "{name}: bucket counts must tile the series count");
        if name == "e2e" {
            saw_e2e = true;
            assert!(count > 0, "traced pipeline recorded no end-to-end latencies");
        }
    }
    assert!(saw_e2e, "e2e histogram missing from snapshot");
    let shards = snap.get("shards").and_then(|s| s.as_arr()).expect("shards array");
    assert_eq!(shards.len(), 2, "one queue-depth entry per shard");

    // Flight dump: every line parses, and the query itself is recorded.
    let dump = client.flight_dump().expect("flight_dump");
    assert!(!dump.is_empty());
    for line in dump.lines() {
        Json::parse(line).expect("flight line is valid JSON");
    }
    assert!(
        handle.metrics().counter(Counter::ServeMetricsQueries) >= 1
            && handle.metrics().counter(Counter::ServeFlightDumps) >= 1,
        "telemetry handlers must record into ServiceMetrics"
    );

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// With an aggressive segment tier (tiny snapshot/compact/scrub
/// cadences), the serving pipeline snapshots, seals and scrubs under
/// load, shard crash/restart reopens the segmented stores and
/// reconverges, and the store's activity is visible in
/// `ServiceMetrics`, the `METRICS` payload and the flight recorder.
#[test]
fn segment_tier_runs_under_serving_load() {
    let w = small_workload();
    let readings = readings_of(&w);
    let all_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();
    let dir = temp_dir("segment-tier");
    let cfg = ServeConfig {
        shards: 2,
        max_gap: MAX_GAP,
        ur: ur_config(&w),
        snapshot_every: Some(16),
        compact_every: Some(16),
        scrub_every: Some(32),
        ..ServeConfig::new(dir.clone())
    };
    let handle = Server::start(Arc::clone(&w.ctx), cfg).expect("server start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let half = readings.len() / 2;
    assert!(half > 2 * 16, "each shard's stream must pass snapshot_every");
    client.publish(&readings[..half]).expect("publish first half");
    client.barrier().expect("barrier");
    // Crash + restart shard 0 mid-stream: reopening a segmented store
    // must reconverge exactly like the WAL-only path always has.
    handle.crash_shard(0);
    handle.restart_shard(0).expect("restart shard");
    client.publish(&readings[half..]).expect("publish second half");
    client.barrier().expect("final barrier");

    let spec =
        SubSpec { kind: SubKind::Snapshot { t: 150.0 }, k: 5, epsilon: 0.0, pois: Vec::new() };
    let got = client.query(&spec).expect("query");
    let rows = client.dump_rows().expect("rows");
    let want = batch_reference(&w.ctx, ur_config(&w), rows, &spec.kind, all_pois, 5);
    assert_ranked_eq(&got, &want, "one-shot snapshot over the tiered stores");

    let m = handle.metrics();
    assert!(m.counter(Counter::StoreSnapshots) > 0, "no snapshot written");
    assert!(m.counter(Counter::StoreSnapshotBytes) > 0, "snapshot bytes not counted");
    assert!(m.counter(Counter::StoreCompactions) > 0, "no compaction ran");
    assert!(m.counter(Counter::SegmentsSealed) > 0, "no segments sealed");
    assert!(m.counter(Counter::ScrubPasses) > 0, "no scrub pass ran");
    assert_eq!(m.counter(Counter::ScrubCorruptions), 0, "clean run found corruption");
    assert_eq!(m.counter(Counter::SegmentsQuarantined), 0);

    let snap = Json::parse(&client.metrics_json().expect("metrics_json")).expect("valid json");
    let counters = snap.get("counters").and_then(|c| c.as_obj()).expect("counters object");
    for name in ["store_snapshots", "store_snapshot_bytes", "store_compactions"] {
        assert!(
            counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "store counter {name} must ride the METRICS payload"
        );
    }
    let dump = client.flight_dump().expect("flight dump");
    assert!(dump.contains("compaction_run"), "flight dump lacks compaction events");
    assert!(dump.contains("scrub_pass"), "flight dump lacks scrub events");

    // Segments are really on disk under the shard stores.
    let seg_count = |shard: usize| {
        std::fs::read_dir(dir.join(format!("shard-{shard}")))
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().to_str().is_some_and(|s| s.ends_with(".seg")))
            .count()
    };
    assert!(seg_count(0) + seg_count(1) > 0, "no segment files on disk");

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// One-shot queries answered server-side must match a local batch run
/// over the dumped rows.
#[test]
fn one_shot_query_matches_local_batch() {
    let w = small_workload();
    let readings = readings_of(&w);
    let all_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();

    let (handle, dir) = start_server(&w, "oneshot", 3);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.publish(&readings).expect("publish");
    client.barrier().expect("barrier");

    let spec =
        SubSpec { kind: SubKind::Snapshot { t: 150.0 }, k: 5, epsilon: 0.0, pois: Vec::new() };
    let got = client.query(&spec).expect("query");
    let rows = client.dump_rows().expect("rows");
    let want = batch_reference(&w.ctx, ur_config(&w), rows, &spec.kind, all_pois, 5);
    assert_ranked_eq(&got, &want, "one-shot snapshot");
    assert!(handle.metrics().counter(Counter::ServeOneShotQueries) >= 1);

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// The `DISTRIB` verb returns the full per-POI Poisson-binomial detail:
/// valid JSON whose per-POI expectation equals the batch snapshot flow Φ
/// within 1e-9 (the generating-function identity, verified end-to-end
/// over the wire), whose pmf sums to 1, and whose `P(count ≥ kq)` agrees
/// with the ranked score of the same spec through `QUERY`. Registering
/// one subscription per kind must also surface the per-kind counters.
#[test]
fn distrib_detail_matches_batch_flow_and_kind_counters_surface() {
    let w = small_workload();
    let readings = readings_of(&w);
    let all_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();

    let (handle, dir) = start_server(&w, "distrib-json", 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    for spec_kind in [
        SubKind::Snapshot { t: 150.0 },
        SubKind::Interval { ts: 0.0, te: 300.0 },
        SubKind::Distrib { t: 150.0, kq: 1, kmax: 16 },
        SubKind::LongVisit { ts: 0.0, te: 300.0, d: 10.0 },
    ] {
        let spec = SubSpec { kind: spec_kind, k: 3, epsilon: 0.0, pois: Vec::new() };
        client.subscribe(&spec).expect("subscribe");
    }
    client.publish(&readings).expect("publish");
    client.barrier().expect("barrier");

    let spec = SubSpec {
        kind: SubKind::Distrib { t: 150.0, kq: 1, kmax: 24 },
        k: all_pois.len(),
        epsilon: 0.0,
        pois: Vec::new(),
    };
    let detail = Json::parse(&client.distrib_json(&spec).expect("distrib_json")).expect("json");
    assert_eq!(detail.get("version").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(detail.get("kq").and_then(|v| v.as_u64()), Some(1));

    // Batch Φ over the engine's rows: the expectation oracle.
    let rows = client.dump_rows().expect("rows");
    let ott = ObjectTrackingTable::from_rows(rows).expect("rows consistent");
    let fa = FlowAnalytics::new(Arc::clone(&w.ctx), ott, ur_config(&w));
    let flows: HashMap<PoiId, f64> = fa
        .snapshot_flows(&SnapshotQuery::new(150.0, all_pois.clone(), all_pois.len()))
        .into_iter()
        .collect();

    let pois = detail.get("pois").and_then(|p| p.as_arr()).expect("pois array");
    assert_eq!(pois.len(), all_pois.len(), "one distribution per query POI");
    let mut p_ge: HashMap<PoiId, f64> = HashMap::new();
    for entry in pois {
        let poi = PoiId(entry.get("poi").and_then(|v| v.as_u64()).expect("poi id") as u32);
        let expectation = entry.get("expectation").and_then(|v| v.as_f64()).expect("expectation");
        let phi = flows.get(&poi).copied().unwrap_or(0.0);
        assert!(
            (expectation - phi).abs() <= TOL,
            "E[count] at {poi:?} is {expectation}, batch flow is {phi}"
        );
        let pmf = entry.get("pmf").and_then(|v| v.as_arr()).expect("pmf array");
        let tail = entry.get("tail").and_then(|v| v.as_f64()).expect("tail");
        let total: f64 = pmf.iter().filter_map(|v| v.as_f64()).sum::<f64>() + tail;
        assert!((total - 1.0).abs() <= TOL, "pmf at {poi:?} sums to {total}");
        p_ge.insert(poi, entry.get("p_ge").and_then(|v| v.as_f64()).expect("p_ge"));
    }
    // The ranked QUERY answer of the same spec scores exactly these p_ge.
    let ranked = client.query(&spec).expect("query distrib kind");
    for &(poi, score) in &ranked {
        let detail_score = p_ge.get(&poi).copied().expect("ranked POI in detail");
        assert!(
            (score - detail_score).abs() <= TOL,
            "QUERY scores {score} at {poi:?}, DISTRIB details {detail_score}"
        );
    }

    let m = handle.metrics();
    assert!(m.counter(Counter::ServeDistribQueries) >= 1, "DISTRIB handler must count");
    for (c, label) in [
        (Counter::ServeSnapshotSubscriptions, "snapshot"),
        (Counter::ServeIntervalSubscriptions, "interval"),
        (Counter::ServeDistribSubscriptions, "distrib"),
        (Counter::ServeLongvisitSubscriptions, "longvisit"),
    ] {
        assert_eq!(m.counter(c), 1, "{label} subscription-kind counter");
    }
    // The per-kind counters ride the METRICS payload too.
    let snap = Json::parse(&client.metrics_json().expect("metrics_json")).expect("valid json");
    let counters = snap.get("counters").and_then(|c| c.as_obj()).expect("counters object");
    assert_eq!(
        counters.get("serve_distrib_subscriptions").and_then(|v| v.as_u64()),
        Some(1),
        "serve_distrib_subscriptions missing from METRICS"
    );

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// A server killed abruptly (accept loop, pool, shards, engine — all
/// torn down, state left only in the WALs) and restarted on the same
/// port must be transparent to a [`ResilientClient`]: the resumed
/// subscription sees exactly the update sequence a never-disconnected
/// client would — consecutive sequence numbers, no duplicates, no gaps
/// — and its final answer equals the from-scratch batch reference.
#[test]
fn resilient_client_resumes_across_server_kill_and_restart() {
    use inflow::service::ResilientClient;

    let w = small_workload();
    let readings = readings_of(&w);
    let all_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();
    let (first_half, second_half) = readings.split_at(readings.len() / 2);

    let dir = temp_dir("resume");
    let cfg = ServeConfig {
        shards: 2,
        max_gap: MAX_GAP,
        ur: ur_config(&w),
        ..ServeConfig::new(dir.clone())
    };
    let handle = Server::start(Arc::clone(&w.ctx), cfg.clone()).expect("server start");
    let addr = handle.addr();

    let mut client = ResilientClient::connect(addr).expect("connect");
    let spec = SubSpec {
        kind: SubKind::Interval { ts: 0.0, te: 300.0 },
        k: all_pois.len(),
        epsilon: 0.0,
        pois: Vec::new(),
    };
    let sub = client.subscribe(&spec).expect("subscribe");
    client.barrier().expect("initial barrier");
    let mut updates = client.take_updates();

    for batch in first_half.chunks(64) {
        client.publish(batch).expect("publish");
        client.barrier().expect("barrier");
        updates.extend(client.take_updates());
    }

    // Kill everything; durable state survives only in the shard WALs.
    handle.crash();

    // Restart from the same store on the same port. The freed port can
    // linger briefly, so binding retries.
    let mut restart_cfg = cfg;
    restart_cfg.port = addr.port();
    let handle = {
        let mut tries = 0;
        loop {
            match Server::start(Arc::clone(&w.ctx), restart_cfg.clone()) {
                Ok(h) => break h,
                Err(e) if tries < 50 => {
                    tries += 1;
                    let _ = e;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(e) => panic!("restart on {addr}: {e}"),
            }
        }
    };

    for batch in second_half.chunks(64) {
        client.publish(batch).expect("publish after restart");
        client.barrier().expect("barrier after restart");
        updates.extend(client.take_updates());
    }
    assert!(client.reconnects() >= 1, "the client must actually have healed a reconnect");

    // Exactly the sequence a never-disconnected client would have seen:
    // seq 1, 2, 3, ... with no duplicate and no hole across the restart.
    assert!(!updates.is_empty(), "the subscription must have produced updates");
    for (i, u) in updates.iter().enumerate() {
        assert_eq!(u.sub_id, sub, "updates carry the stable external id");
        assert_eq!(
            u.seq,
            (i + 1) as u64,
            "update stream must be contiguous across the restart: {:?}",
            updates.iter().map(|u| u.seq).collect::<Vec<_>>()
        );
    }

    // And the stream converged to the truth: last update == current ==
    // from-scratch batch reference over the recovered + new rows.
    let current = client.current(sub).expect("current");
    assert_ranked_eq(&updates.last().expect("nonempty").ranked, &current, "last update vs current");
    let mut probe = Client::connect(addr).expect("probe connect");
    let rows = probe.dump_rows().expect("rows");
    let want = batch_reference(&w.ctx, ur_config(&w), rows, &spec.kind, all_pois, spec.k);
    assert_ranked_eq(&current, &want, "resumed subscription final answer");

    probe.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// With a zero queue budget every publish must be refused with the
/// typed `OVERLOADED` backpressure error instead of being queued.
#[test]
fn zero_queue_budget_surfaces_typed_backpressure() {
    use inflow::service::ServiceError;

    let w = small_workload();
    let readings = readings_of(&w);
    let dir = temp_dir("overload");
    let cfg = ServeConfig {
        shards: 1,
        max_gap: MAX_GAP,
        ur: ur_config(&w),
        max_queue: 0,
        ..ServeConfig::new(dir.clone())
    };
    let handle = Server::start(Arc::clone(&w.ctx), cfg).expect("server start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    match client.publish(&readings[..4]) {
        Err(ServiceError::Overloaded { .. }) => {}
        other => panic!("want OVERLOADED backpressure, got {other:?}"),
    }
    assert!(
        handle.metrics().counter(Counter::ServeOverloads) >= 1,
        "refused publishes must be counted"
    );

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// A server that accepts the connection but never answers must surface
/// as a typed timeout within the configured budget, not a hang.
#[test]
fn silent_server_surfaces_typed_timeout() {
    use inflow::service::ServiceError;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let started = std::time::Instant::now();
    match Client::connect_with(addr, Some(std::time::Duration::from_millis(200))) {
        Err(ServiceError::Timeout) => {}
        Ok(_) => panic!("handshake against a silent server must not succeed"),
        Err(other) => panic!("want ServiceError::Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "the timeout must fire within the configured budget"
    );
    drop(listener);
}
