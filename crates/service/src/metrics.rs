//! The server-wide metrics registry.
//!
//! Every pipeline stage reports here: the router counts sharded readings,
//! shard workers report applied readings, queue depths and delta batch
//! sizes, the flow engine reports recompute latencies and notification
//! fan-out. Counters are the fixed [`Counter`] registry the rest of the
//! workspace uses; latencies and sizes go into the same log₂
//! [`Histogram`] the per-query profiles use, so `p99` here means the same
//! thing it means in `--profile` output.
//!
//! # Histogram axes
//!
//! The registry mixes two kinds of histograms. The bucket layout is
//! identical (log₂, exact bounds exposed in the snapshot) but the unit
//! of the observed axis differs, and the JSON snapshot labels each
//! series with its `unit` so consumers never have to guess:
//!
//! * **Latency histograms** — axis is *nanoseconds*: `serve_recompute`,
//!   `serve_notify`, the six per-stage trace segments
//!   ([`inflow_obs::SEGMENTS`]: queue, wal, apply, engine_queue,
//!   recompute, notify) and the end-to-end `e2e` series.
//! * **Value histograms** — axis is a *count*, not a duration:
//!   `shard_queue_depth` observes queued messages at each dequeue
//!   (unit `msgs`), `delta_batch_objects` observes object deltas per
//!   emitted batch (unit `objects`).

use crate::sync::lock_or_recover;
use inflow_obs::{Counter, CounterSet, Histogram, Timer, TraceChain, SEGMENTS};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Completed notification traces kept for the `TRACE` snapshot.
const TRACE_RING: usize = 64;

/// Slow traces (total ≥ the configured threshold) kept for the
/// slow-request log.
const SLOW_RING: usize = 32;

/// One completed end-to-end notification trace.
#[derive(Debug, Clone, Copy)]
pub struct CompletedTrace {
    pub chain: TraceChain,
    /// Subscription the notification went to.
    pub sub_id: u64,
}

impl CompletedTrace {
    fn to_json(self) -> String {
        let mut s = String::from("{\"sub_id\":");
        s.push_str(&self.sub_id.to_string());
        s.push_str(",\"trace\":");
        s.push_str(&self.chain.to_json());
        s.push('}');
        s
    }
}

#[derive(Debug, Default)]
struct TraceLog {
    /// Most recent completed traces, newest last (bounded ring).
    recent: Vec<CompletedTrace>,
    /// Most recent traces whose total exceeded the slow threshold.
    slow: Vec<CompletedTrace>,
}

/// Shared, thread-safe metrics for one server instance.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    counters: Mutex<CounterSet>,
    /// Per-object incremental recompute latency ([`Timer::ServeRecompute`]),
    /// ns.
    recompute_ns: Mutex<Histogram>,
    /// Notification fan-out latency ([`Timer::ServeNotify`]), ns.
    notify_ns: Mutex<Histogram>,
    /// Shard ingestion-queue depth sampled at every dequeue. Value
    /// histogram: the axis is queued *messages*, not ns.
    queue_depth: Mutex<Histogram>,
    /// Object deltas per emitted batch. Value histogram: the axis is
    /// *objects*, not ns.
    delta_batch: Mutex<Histogram>,
    /// Per-stage latency decomposition of completed notification
    /// traces, indexed like [`SEGMENTS`]; ns.
    stage_ns: Mutex<[Histogram; SEGMENTS.len()]>,
    /// End-to-end router → notified latency of completed traces, ns.
    e2e_ns: Mutex<Histogram>,
    /// Recent completed / slow traces for the `TRACE` snapshot.
    traces: Mutex<TraceLog>,
    /// Traces with `total_ns` at or above this land in the slow log.
    slow_threshold_ns: AtomicU64,
}

impl ServiceMetrics {
    pub fn new() -> ServiceMetrics {
        let m = ServiceMetrics::default();
        m.slow_threshold_ns.store(10_000_000, Ordering::Relaxed); // 10 ms
        m
    }

    pub fn add(&self, counter: Counter, n: u64) {
        lock_or_recover(&self.counters).add(counter, n);
    }

    pub fn counter(&self, counter: Counter) -> u64 {
        lock_or_recover(&self.counters).get(counter)
    }

    /// A copy of all counters (render / assertions).
    pub fn counters(&self) -> CounterSet {
        lock_or_recover(&self.counters).clone()
    }

    pub fn observe_recompute_ns(&self, ns: u64) {
        lock_or_recover(&self.recompute_ns).observe(ns);
    }

    pub fn observe_notify_ns(&self, ns: u64) {
        lock_or_recover(&self.notify_ns).observe(ns);
    }

    pub fn observe_queue_depth(&self, depth: u64) {
        lock_or_recover(&self.queue_depth).observe(depth);
    }

    pub fn observe_delta_batch(&self, objects: u64) {
        lock_or_recover(&self.delta_batch).observe(objects);
    }

    /// Set the slow-request threshold (ns); traces at or above it are
    /// kept in the slow log.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Fold one completed notification trace into the per-stage and
    /// end-to-end histograms and the trace/slow rings.
    pub fn observe_trace(&self, chain: &TraceChain, sub_id: u64) {
        {
            let mut stages = lock_or_recover(&self.stage_ns);
            for (name, ns) in chain.segments() {
                if let Some(i) = SEGMENTS.iter().position(|&s| s == name) {
                    if let Some(h) = stages.get_mut(i) {
                        h.observe(ns);
                    }
                }
            }
        }
        let total = match chain.total_ns() {
            Some(t) => t,
            None => return,
        };
        lock_or_recover(&self.e2e_ns).observe(total);
        self.add(Counter::ServeTracesCompleted, 1);
        let entry = CompletedTrace { chain: *chain, sub_id };
        let mut log = lock_or_recover(&self.traces);
        log.recent.push(entry);
        if log.recent.len() > TRACE_RING {
            log.recent.remove(0);
        }
        if total >= self.slow_threshold_ns() {
            log.slow.push(entry);
            if log.slow.len() > SLOW_RING {
                log.slow.remove(0);
            }
        }
    }

    /// Most recent completed traces (oldest first).
    pub fn recent_traces(&self) -> Vec<CompletedTrace> {
        lock_or_recover(&self.traces).recent.clone()
    }

    /// p99 of the incremental recompute latency, ns.
    pub fn recompute_p99_ns(&self) -> u64 {
        lock_or_recover(&self.recompute_ns).quantile(0.99)
    }

    /// p99 of the notification fan-out latency, ns.
    pub fn notify_p99_ns(&self) -> u64 {
        lock_or_recover(&self.notify_ns).quantile(0.99)
    }

    /// p99 of the end-to-end notification latency, ns.
    pub fn e2e_p99_ns(&self) -> u64 {
        lock_or_recover(&self.e2e_ns).quantile(0.99)
    }

    /// Human-readable registry dump (the `STATS` reply and `watch --stats`
    /// output).
    pub fn render(&self) -> String {
        let mut out = String::from("serve metrics\n");
        for (c, v) in self.counters().iter() {
            if v > 0 && c.name().starts_with("serve_") {
                let _ = writeln!(out, "  {:<32} {v}", c.name());
            }
        }
        for (name, h, unit) in self.histograms() {
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<32} n={} mean={} p99={} max={} {unit}",
                name,
                h.count(),
                h.mean(),
                h.quantile(0.99),
                h.maximum(),
            );
        }
        out
    }

    /// All histogram series as `(name, snapshot, unit)` in display order.
    fn histograms(&self) -> Vec<(String, Histogram, &'static str)> {
        let mut out = vec![
            (
                Timer::ServeRecompute.name().to_string(),
                lock_or_recover(&self.recompute_ns).clone(),
                "ns",
            ),
            (Timer::ServeNotify.name().to_string(), lock_or_recover(&self.notify_ns).clone(), "ns"),
            ("shard_queue_depth".to_string(), lock_or_recover(&self.queue_depth).clone(), "msgs"),
            (
                "delta_batch_objects".to_string(),
                lock_or_recover(&self.delta_batch).clone(),
                "objects",
            ),
        ];
        {
            let stages = lock_or_recover(&self.stage_ns);
            for (i, name) in SEGMENTS.iter().enumerate() {
                if let Some(h) = stages.get(i) {
                    out.push((format!("stage_{name}"), h.clone(), "ns"));
                }
            }
        }
        out.push(("e2e".to_string(), lock_or_recover(&self.e2e_ns).clone(), "ns"));
        out
    }

    /// The `METRICS` snapshot: one JSON object with every counter, every
    /// histogram (exact inclusive bucket bounds plus summary quantiles,
    /// each labeled with its axis `unit`), per-shard queue depths and
    /// the slow-request threshold.
    pub fn snapshot_json(&self, shard_depths: &[u64], uptime_ns: u64) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"version\":1,\"uptime_ns\":");
        s.push_str(&uptime_ns.to_string());
        s.push_str(",\"slow_threshold_ns\":");
        s.push_str(&self.slow_threshold_ns().to_string());
        s.push_str(",\"counters\":{");
        let mut first = true;
        for (c, v) in self.counters().iter() {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{}\":{v}", c.name());
        }
        s.push_str("},\"histograms\":[");
        for (i, (name, h, unit)) in self.histograms().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{},\"buckets\":[",
                h.count(),
                h.sum(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.maximum(),
            );
            for (j, (lo, hi, n)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"lo\":{lo},\"hi\":{hi},\"n\":{n}}}");
            }
            s.push_str("]}");
        }
        s.push_str("],\"shards\":[");
        for (i, d) in shard_depths.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"shard\":{i},\"queue_depth\":{d}}}");
        }
        s.push_str("]}");
        s
    }

    /// The `TRACE` snapshot: recent completed traces plus the slow log,
    /// each with per-hop timestamps and named segments.
    pub fn traces_json(&self) -> String {
        let log = lock_or_recover(&self.traces);
        let mut s = String::with_capacity(1024);
        s.push_str("{\"version\":1,\"slow_threshold_ns\":");
        s.push_str(&self.slow_threshold_ns().to_string());
        s.push_str(",\"recent\":[");
        for (i, t) in log.recent.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json());
        }
        s.push_str("],\"slow\":[");
        for (i, t) in log.slow.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflow_obs::{Hop, Json};

    #[test]
    fn render_lists_touched_series_only() {
        let m = ServiceMetrics::new();
        m.add(Counter::ServeReadingsApplied, 3);
        m.observe_recompute_ns(1_000);
        m.observe_recompute_ns(3_000);
        let text = m.render();
        assert!(text.contains("serve_readings_applied"));
        assert!(text.contains("serve_recompute"));
        assert!(!text.contains("serve_notify"), "untouched histogram rendered:\n{text}");
        assert!(m.recompute_p99_ns() >= 1_000);
    }

    fn chain(total_ns: u64) -> TraceChain {
        let mut c = TraceChain::new(5);
        let step = total_ns / 6;
        for (i, &h) in Hop::ALL.iter().enumerate() {
            c.stamp(h, 1 + step * i as u64);
        }
        c
    }

    #[test]
    fn observed_traces_feed_stage_histograms_and_rings() {
        let m = ServiceMetrics::new();
        m.set_slow_threshold_ns(1_000_000);
        m.observe_trace(&chain(600), 1); // fast
        m.observe_trace(&chain(60_000_000), 2); // slow
        assert_eq!(m.counter(Counter::ServeTracesCompleted), 2);
        assert_eq!(m.recent_traces().len(), 2);
        let traces = Json::parse(&m.traces_json()).expect("valid trace json");
        assert_eq!(traces.get("recent").and_then(|r| r.as_arr()).map(|r| r.len()), Some(2));
        let slow = traces.get("slow").and_then(|r| r.as_arr()).expect("slow log");
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].get("sub_id").and_then(|v| v.as_u64()), Some(2));
        let seg = slow[0]
            .get("trace")
            .and_then(|t| t.get("segments"))
            .and_then(|s| s.as_obj())
            .expect("segments");
        assert_eq!(seg.len(), SEGMENTS.len());
    }

    #[test]
    fn snapshot_json_is_valid_and_complete() {
        let m = ServiceMetrics::new();
        m.add(Counter::ServeReadingsSharded, 10);
        m.observe_queue_depth(3);
        m.observe_trace(&chain(6_000), 1);
        let snap = Json::parse(&m.snapshot_json(&[2, 0], 1_234)).expect("valid metrics json");
        assert_eq!(snap.get("version").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(snap.get("uptime_ns").and_then(|v| v.as_u64()), Some(1_234));
        let counters = snap.get("counters").and_then(|c| c.as_obj()).expect("counters");
        assert_eq!(counters.get("serve_readings_sharded").and_then(|v| v.as_u64()), Some(10));
        let hists = snap.get("histograms").and_then(|h| h.as_arr()).expect("histograms");
        // Value histograms carry non-ns units.
        let qd = hists
            .iter()
            .find(|h| h.get("name").and_then(|n| n.as_str()) == Some("shard_queue_depth"))
            .expect("queue depth series");
        assert_eq!(qd.get("unit").and_then(|u| u.as_str()), Some("msgs"));
        let buckets = qd.get("buckets").and_then(|b| b.as_arr()).expect("buckets");
        assert_eq!(buckets[0].get("lo").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(buckets[0].get("hi").and_then(|v| v.as_u64()), Some(3));
        // Every trace segment series is present with unit ns.
        for name in SEGMENTS {
            let s = hists
                .iter()
                .find(|h| {
                    h.get("name").and_then(|n| n.as_str()) == Some(&format!("stage_{name}")[..])
                })
                .unwrap_or_else(|| panic!("missing stage_{name}"));
            assert_eq!(s.get("unit").and_then(|u| u.as_str()), Some("ns"));
        }
        let shards = snap.get("shards").and_then(|x| x.as_arr()).expect("shards");
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("queue_depth").and_then(|v| v.as_u64()), Some(2));
    }
}
