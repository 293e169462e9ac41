//! Counters and latency histograms.
//!
//! The counter registry is a fixed enum rather than a string-keyed map:
//! hot paths pay one array index, names live in one place, and the
//! profile output is stable and exhaustively enumerable.

/// Everything the query stack counts.
///
/// Kept in one registry (not per-module ad-hoc fields) so the CLI, the
/// bench harness and the JSON output all agree on names. Counters that
/// only one algorithm family can bump simply stay zero for the other —
/// that asymmetry is itself informative (e.g. `pois_pruned` > 0 is the
/// join algorithm's whole reason to exist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Objects whose tracking records overlap the query time(s).
    ObjectsConsidered,
    /// Uncertainty regions actually derived (long-visit: record pieces).
    UrsBuilt,
    /// Exact presence integrations performed (the dominant cost;
    /// long-visit: (piece, POI) dwell field integrations).
    PresenceEvaluations,
    /// Object–POI pairings rejected by the cheap MBR intersection test
    /// before any integration.
    MbrRejects,
    /// §4.3.2: join-list entries rejected because no per-segment small
    /// MBR (or derived snapshot MBR) intersects the POI entry.
    SmallMbrRejects,
    /// R-tree nodes expanded (R_P probes plus R_I × R_P join descent).
    RtreeNodesVisited,
    /// Entries pushed into the join priority queue.
    QueuePushes,
    /// Entries popped off the join priority queue.
    QueuePops,
    /// POIs whose exact flow was resolved (join only).
    ExactFlowsResolved,
    /// POIs never exactly resolved thanks to upper-bound early
    /// termination (join only).
    PoisPruned,
    /// Membership probes issued by the adaptive grid integrator
    /// (`inflow_geometry::area`) — grid cells × samples — plus the
    /// field evaluations of long-visit dwell integrations.
    GridProbes,
    /// Objects considered whose snapshot/interval uncertainty region came
    /// out empty (degraded data: the object contributes no flow).
    EmptyUrs,
    /// Objects considered for which no uncertainty region could be
    /// derived at all (no covering tracking records).
    MissingUrs,
    /// Anomalies detected by the sanitization gate feeding this dataset.
    SanitizeDetected,
    /// Anomalies repaired in place by the sanitization gate.
    SanitizeRepaired,
    /// Anomalous records dropped by the sanitization gate.
    SanitizeRejected,
    /// Anomalous records moved to quarantine by the sanitization gate.
    SanitizeQuarantined,
    /// Previously quarantined records re-admitted by an offline readmit
    /// pass (e.g. after an unknown device was registered).
    SanitizeReadmitted,
    /// WAL records replayed on top of the newest valid snapshot during
    /// crash recovery of the durable ingestion store.
    RecoveryWalReplayed,
    /// Bytes of torn/corrupt WAL tail truncated during crash recovery.
    RecoveryTruncatedBytes,
    /// Snapshot files rejected during recovery (bad checksum, torn
    /// write, or missing commit marker).
    RecoverySnapshotsRejected,
    /// Replayed WAL readings the tracker rejected (deterministically, the
    /// same way the live run rejected them).
    RecoveryReplayRejected,
    /// Readings routed to shard ingestion queues by the serving layer.
    ServeReadingsSharded,
    /// Readings a shard worker applied to its tracker (durably logged and
    /// accepted; excludes buffered, dropped-late and rejected readings).
    ServeReadingsApplied,
    /// Readings a shard worker's tracker rejected (strict-mode
    /// out-of-order); the reading stays in the shard's WAL.
    ServeReadingsRejected,
    /// Row-delta batches shard workers emitted to the flow engine.
    ServeDeltasEmitted,
    /// Per-object row replacements carried across all delta batches.
    ServeDeltaObjects,
    /// Per-object presence recomputations the flow engine performed to
    /// maintain materialized subscription results incrementally.
    ServeRecomputes,
    /// Subscription updates pushed to watchers.
    ServeNotifications,
    /// Subscription refreshes whose result change stayed within the
    /// subscriber's ε threshold (no notification sent).
    ServeNotificationsSuppressed,
    /// Continuous top-k subscriptions registered over the protocol.
    ServeSubscriptions,
    /// One-shot snapshot/interval queries answered by the server.
    ServeOneShotQueries,
    /// Shard workers restarted after a crash (state recovered from the
    /// shard's ingestion store).
    ServeShardRestarts,
    /// Delta batches dropped because their rows violated the OTT
    /// invariants (should be zero: trackers only emit valid rows).
    ServeDeltaRowsInvalid,
    /// `METRICS` snapshot requests answered by the server.
    ServeMetricsQueries,
    /// `TRACE` snapshot requests answered by the server.
    ServeTraceQueries,
    /// Flight-recorder dumps served over the protocol (`FLIGHT`).
    ServeFlightDumps,
    /// Notification trace chains completed end-to-end (router →
    /// notified) and folded into the per-stage histograms.
    ServeTracesCompleted,
    /// `PUBLISH` batches refused with an `OVERLOADED` backpressure frame
    /// because a shard ingestion queue exceeded its bound.
    ServeOverloads,
    /// Connections refused at accept time because the server was at its
    /// concurrent-connection bound (`OVERLOADED` frame, then close).
    ServeConnsRejected,
    /// `STATE_HASH` barrier-digest requests answered by the server (the
    /// record/replay harness's per-barrier comparison point).
    ServeStateHashes,
    /// Subscriptions re-registered with a sequence-numbered resume
    /// section after a client reconnect.
    ServeResumedSubscriptions,
    /// Density-grid snapshot queries evaluated.
    DensityQueries,
    /// Inverse visitor queries (likely-visitors / also-visited) evaluated.
    VisitorQueries,
    /// Poisson-binomial count-distribution queries evaluated.
    DistribQueries,
    /// Duration-threshold long-visit queries evaluated.
    LongVisitQueries,
    /// Snapshot-flow (`--t`) subscriptions registered.
    ServeSnapshotSubscriptions,
    /// Interval-flow (`--ts --te`) subscriptions registered.
    ServeIntervalSubscriptions,
    /// Count-distribution subscriptions registered.
    ServeDistribSubscriptions,
    /// Long-visit subscriptions registered.
    ServeLongvisitSubscriptions,
    /// One-shot DISTRIB protocol requests answered (full per-POI
    /// distribution detail).
    ServeDistribQueries,
    /// Snapshot files written by the shard stores.
    StoreSnapshots,
    /// Bytes of the snapshot files written by the shard stores.
    StoreSnapshotBytes,
    /// Compaction passes that changed the segment manifest (sealed or
    /// merged at least one segment).
    StoreCompactions,
    /// Immutable segments sealed from the hot WAL tail.
    SegmentsSealed,
    /// Input segments consumed by compaction merges.
    SegmentsMerged,
    /// Background scrub passes completed over the segment tier.
    ScrubPasses,
    /// Segment files whose bytes a scrub pass (or a read-time check)
    /// found damaged — checksum, length, decode, or missing-file faults.
    ScrubCorruptions,
    /// Segments moved into quarantine (excluded from answers until
    /// repaired).
    SegmentsQuarantined,
    /// Queries answered from an assembled history with quarantined rows
    /// excluded — correct but `DataQuality`-degraded answers.
    QuarantineDegradedAnswers,
}

impl Counter {
    /// All counters, in display order.
    pub const ALL: [Counter; 60] = [
        Counter::ObjectsConsidered,
        Counter::UrsBuilt,
        Counter::PresenceEvaluations,
        Counter::MbrRejects,
        Counter::SmallMbrRejects,
        Counter::RtreeNodesVisited,
        Counter::QueuePushes,
        Counter::QueuePops,
        Counter::ExactFlowsResolved,
        Counter::PoisPruned,
        Counter::GridProbes,
        Counter::EmptyUrs,
        Counter::MissingUrs,
        Counter::SanitizeDetected,
        Counter::SanitizeRepaired,
        Counter::SanitizeRejected,
        Counter::SanitizeQuarantined,
        Counter::SanitizeReadmitted,
        Counter::RecoveryWalReplayed,
        Counter::RecoveryTruncatedBytes,
        Counter::RecoverySnapshotsRejected,
        Counter::RecoveryReplayRejected,
        Counter::ServeReadingsSharded,
        Counter::ServeReadingsApplied,
        Counter::ServeReadingsRejected,
        Counter::ServeDeltasEmitted,
        Counter::ServeDeltaObjects,
        Counter::ServeRecomputes,
        Counter::ServeNotifications,
        Counter::ServeNotificationsSuppressed,
        Counter::ServeSubscriptions,
        Counter::ServeOneShotQueries,
        Counter::ServeShardRestarts,
        Counter::ServeDeltaRowsInvalid,
        Counter::ServeMetricsQueries,
        Counter::ServeTraceQueries,
        Counter::ServeFlightDumps,
        Counter::ServeTracesCompleted,
        Counter::ServeOverloads,
        Counter::ServeConnsRejected,
        Counter::ServeStateHashes,
        Counter::ServeResumedSubscriptions,
        Counter::DensityQueries,
        Counter::VisitorQueries,
        Counter::DistribQueries,
        Counter::LongVisitQueries,
        Counter::ServeSnapshotSubscriptions,
        Counter::ServeIntervalSubscriptions,
        Counter::ServeDistribSubscriptions,
        Counter::ServeLongvisitSubscriptions,
        Counter::ServeDistribQueries,
        Counter::StoreSnapshots,
        Counter::StoreSnapshotBytes,
        Counter::StoreCompactions,
        Counter::SegmentsSealed,
        Counter::SegmentsMerged,
        Counter::ScrubPasses,
        Counter::ScrubCorruptions,
        Counter::SegmentsQuarantined,
        Counter::QuarantineDegradedAnswers,
    ];

    /// Stable snake_case name used in rendered and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ObjectsConsidered => "objects_considered",
            Counter::UrsBuilt => "urs_built",
            Counter::PresenceEvaluations => "presence_evaluations",
            Counter::MbrRejects => "mbr_rejects",
            Counter::SmallMbrRejects => "small_mbr_rejects",
            Counter::RtreeNodesVisited => "rtree_nodes_visited",
            Counter::QueuePushes => "queue_pushes",
            Counter::QueuePops => "queue_pops",
            Counter::ExactFlowsResolved => "exact_flows_resolved",
            Counter::PoisPruned => "pois_pruned",
            Counter::GridProbes => "grid_probes",
            Counter::EmptyUrs => "empty_urs",
            Counter::MissingUrs => "missing_urs",
            Counter::SanitizeDetected => "sanitize_detected",
            Counter::SanitizeRepaired => "sanitize_repaired",
            Counter::SanitizeRejected => "sanitize_rejected",
            Counter::SanitizeQuarantined => "sanitize_quarantined",
            Counter::SanitizeReadmitted => "sanitize_readmitted",
            Counter::RecoveryWalReplayed => "recovery_wal_replayed",
            Counter::RecoveryTruncatedBytes => "recovery_truncated_bytes",
            Counter::RecoverySnapshotsRejected => "recovery_snapshots_rejected",
            Counter::RecoveryReplayRejected => "recovery_replay_rejected",
            Counter::ServeReadingsSharded => "serve_readings_sharded",
            Counter::ServeReadingsApplied => "serve_readings_applied",
            Counter::ServeReadingsRejected => "serve_readings_rejected",
            Counter::ServeDeltasEmitted => "serve_deltas_emitted",
            Counter::ServeDeltaObjects => "serve_delta_objects",
            Counter::ServeRecomputes => "serve_recomputes",
            Counter::ServeNotifications => "serve_notifications",
            Counter::ServeNotificationsSuppressed => "serve_notifications_suppressed",
            Counter::ServeSubscriptions => "serve_subscriptions",
            Counter::ServeOneShotQueries => "serve_one_shot_queries",
            Counter::ServeShardRestarts => "serve_shard_restarts",
            Counter::ServeDeltaRowsInvalid => "serve_delta_rows_invalid",
            Counter::ServeMetricsQueries => "serve_metrics_queries",
            Counter::ServeTraceQueries => "serve_trace_queries",
            Counter::ServeFlightDumps => "serve_flight_dumps",
            Counter::ServeTracesCompleted => "serve_traces_completed",
            Counter::ServeOverloads => "serve_overloads",
            Counter::ServeConnsRejected => "serve_conns_rejected",
            Counter::ServeStateHashes => "serve_state_hashes",
            Counter::ServeResumedSubscriptions => "serve_resumed_subscriptions",
            Counter::DensityQueries => "density_queries",
            Counter::VisitorQueries => "visitor_queries",
            Counter::DistribQueries => "distrib_queries",
            Counter::LongVisitQueries => "longvisit_queries",
            Counter::ServeSnapshotSubscriptions => "serve_snapshot_subscriptions",
            Counter::ServeIntervalSubscriptions => "serve_interval_subscriptions",
            Counter::ServeDistribSubscriptions => "serve_distrib_subscriptions",
            Counter::ServeLongvisitSubscriptions => "serve_longvisit_subscriptions",
            Counter::ServeDistribQueries => "serve_distrib_queries",
            Counter::StoreSnapshots => "store_snapshots",
            Counter::StoreSnapshotBytes => "store_snapshot_bytes",
            Counter::StoreCompactions => "store_compactions",
            Counter::SegmentsSealed => "segments_sealed",
            Counter::SegmentsMerged => "segments_merged",
            Counter::ScrubPasses => "scrub_passes",
            Counter::ScrubCorruptions => "scrub_corruptions",
            Counter::SegmentsQuarantined => "segments_quarantined",
            Counter::QuarantineDegradedAnswers => "quarantine_degraded_answers",
        }
    }

    fn index(self) -> usize {
        Counter::ALL.iter().position(|&c| c == self).expect("counter in ALL")
    }
}

/// A fixed-size bag of counter values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet {
    values: [u64; Counter::ALL.len()],
}

impl Default for CounterSet {
    fn default() -> CounterSet {
        CounterSet { values: [0; Counter::ALL.len()] }
    }
}

impl CounterSet {
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    pub fn add(&mut self, counter: Counter, n: u64) {
        self.values[counter.index()] += n;
    }

    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    pub fn merge(&mut self, other: &CounterSet) {
        for (dst, src) in self.values.iter_mut().zip(&other.values) {
            *dst += src;
        }
    }

    /// `(counter, value)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    pub fn is_all_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

/// Named per-operation latency histograms.
///
/// Like [`Counter`], a fixed registry: each variant owns one histogram
/// slot in the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Timer {
    /// One `UrEngine::presence` integration, or one long-visit
    /// `UrEngine::dwell` field integration.
    Presence,
    /// One snapshot/interval uncertainty-region derivation, or one
    /// long-visit dwell piece.
    UrDerive,
    /// One per-object incremental recompute in the flow-monitoring
    /// engine (delta applied → subscription contributions refreshed).
    ServeRecompute,
    /// One subscription notification fan-out (rank + encode + enqueue to
    /// every watcher).
    ServeNotify,
}

impl Timer {
    pub const ALL: [Timer; 4] =
        [Timer::Presence, Timer::UrDerive, Timer::ServeRecompute, Timer::ServeNotify];

    /// Stable snake_case name used in rendered and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Timer::Presence => "presence",
            Timer::UrDerive => "ur_derive",
            Timer::ServeRecompute => "serve_recompute",
            Timer::ServeNotify => "serve_notify",
        }
    }

    pub(crate) fn index(self) -> usize {
        Timer::ALL.iter().position(|&t| t == self).expect("timer in ALL")
    }
}

const BUCKETS: usize = 44;

/// Log₂-bucketed histogram of unsigned values.
///
/// Bucket `i` holds observations in `[2^i, 2^(i+1))` (bucket 0 also
/// takes 0); the top bucket absorbs everything from `2^43` up. The
/// histogram itself is **unit-neutral** — the unit belongs to whatever
/// the caller observes into it. Latency callers observe nanoseconds
/// and read through the `*_ns` aliases; value callers (queue depths,
/// batch sizes) use the unsuffixed accessors. 44 buckets cover ~4.8
/// hours of nanoseconds — effectively unbounded for per-operation
/// latencies. Fixed-size and allocation-free so closures on hot paths
/// can own one locally and merge it into the recorder afterwards.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { count: 0, sum_ns: 0, min_ns: u64::MAX, max_ns: 0, buckets: [0; BUCKETS] }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    pub fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (unit-neutral).
    pub fn sum(&self) -> u64 {
        self.sum_ns
    }

    /// Mean observed value (unit-neutral).
    pub fn mean(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Smallest observed value (unit-neutral; 0 when empty).
    pub fn minimum(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest observed value (unit-neutral).
    pub fn maximum(&self) -> u64 {
        self.max_ns
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum()
    }

    pub fn mean_ns(&self) -> u64 {
        self.mean()
    }

    pub fn min_ns(&self) -> u64 {
        self.minimum()
    }

    pub fn max_ns(&self) -> u64 {
        self.maximum()
    }

    /// Quantile estimate (`q` in `[0, 1]`): upper edge of the bucket
    /// containing the q-th observation, clamped to the observed max.
    /// Log₂ buckets bound the relative error by 2×, which is plenty for
    /// "is presence integration microseconds or milliseconds" questions.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bounds(i).1.min(self.max_ns);
            }
        }
        self.max_ns
    }

    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.quantile(q)
    }

    /// Inclusive `(lo, hi)` value bounds of bucket `i`. Bucket 0 is
    /// `[0, 1]`; the top bucket's `hi` is `u64::MAX` (open-ended).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i + 1 >= BUCKETS { u64::MAX } else { (1u64 << (i + 1)) - 1 };
        (lo, hi)
    }

    /// Occupied buckets as `(lo, hi, count)` triples, ascending — the
    /// exact-bounds form the metrics snapshot and `QueryProfile::to_json`
    /// expose so consumers can rebuild the distribution, not just read
    /// pre-chewed quantiles.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_snake_case() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{n}");
        }
    }

    #[test]
    fn counter_set_add_get_merge() {
        let mut a = CounterSet::new();
        assert!(a.is_all_zero());
        a.add(Counter::PresenceEvaluations, 3);
        a.add(Counter::PresenceEvaluations, 2);
        let mut b = CounterSet::new();
        b.add(Counter::PresenceEvaluations, 10);
        b.add(Counter::QueuePops, 1);
        a.merge(&b);
        assert_eq!(a.get(Counter::PresenceEvaluations), 15);
        assert_eq!(a.get(Counter::QueuePops), 1);
        assert_eq!(a.get(Counter::PoisPruned), 0);
        assert!(!a.is_all_zero());
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.observe(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 101_500);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 100_000);
        // Median falls in the bucket containing 400 ([256, 512)).
        let p50 = h.quantile_ns(0.5);
        assert!((256..=511).contains(&p50), "p50 {p50}");
        // The tail quantile is clamped to the observed max.
        assert_eq!(h.quantile_ns(1.0), 100_000);
    }

    #[test]
    fn histogram_merge_matches_combined_observation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for ns in [10u64, 20, 30] {
            a.observe(ns);
            c.observe(ns);
        }
        for ns in [1_000u64, 2_000] {
            b.observe(ns);
            c.observe(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.sum_ns(), c.sum_ns());
        assert_eq!(a.min_ns(), c.min_ns());
        assert_eq!(a.max_ns(), c.max_ns());
        assert_eq!(a.quantile_ns(0.9), c.quantile_ns(0.9));
    }

    #[test]
    fn nonzero_buckets_expose_exact_bounds() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 300, 300, 1u64 << 43] {
            h.observe(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], (0, 1, 2));
        assert_eq!(buckets[1], (256, 511, 2));
        // Top bucket is open-ended.
        assert_eq!(buckets[2].1, u64::MAX);
        assert_eq!(buckets[2].2, 1);
        let total: u64 = buckets.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, h.count());
        // Unit-neutral accessors agree with the ns-suffixed aliases.
        assert_eq!(h.mean(), h.mean_ns());
        assert_eq!(h.quantile(0.5), h.quantile_ns(0.5));
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), u64::MAX);
    }
}
