//! Query types, results, and execution statistics.

use inflow_indoor::PoiId;
use inflow_tracking::Timestamp;

/// A snapshot top-k indoor POIs query (Problem 1): return the `k` POIs of
/// `pois` with the highest flow `Φ_t(p)` at time point `t`.
#[derive(Debug, Clone)]
pub struct SnapshotQuery {
    /// The query time point.
    pub t: Timestamp,
    /// The query POI set `P` (a subset of the plan's POIs).
    pub pois: Vec<PoiId>,
    /// Result size `k` (`0 < k ≤ |P|`).
    pub k: usize,
}

impl SnapshotQuery {
    /// Creates a snapshot query; `k` is clamped to `[1, |pois|]`.
    pub fn new(t: Timestamp, pois: Vec<PoiId>, k: usize) -> SnapshotQuery {
        assert!(!pois.is_empty(), "query POI set must be non-empty");
        let k = k.clamp(1, pois.len());
        SnapshotQuery { t, pois, k }
    }
}

/// An interval top-k indoor POIs query (Problem 2): return the `k` POIs of
/// `pois` with the highest flow `Φ_{[ts,te]}(p)`.
#[derive(Debug, Clone)]
pub struct IntervalQuery {
    /// Query interval start.
    pub ts: Timestamp,
    /// Query interval end (`ts ≤ te`).
    pub te: Timestamp,
    /// The query POI set `P`.
    pub pois: Vec<PoiId>,
    /// Result size `k` (`0 < k ≤ |P|`).
    pub k: usize,
}

impl IntervalQuery {
    /// Creates an interval query; `k` is clamped to `[1, |pois|]`.
    pub fn new(ts: Timestamp, te: Timestamp, pois: Vec<PoiId>, k: usize) -> IntervalQuery {
        assert!(!pois.is_empty(), "query POI set must be non-empty");
        assert!(ts <= te, "query interval must be ordered");
        let k = k.clamp(1, pois.len());
        IntervalQuery { ts, te, pois, k }
    }
}

/// Execution statistics, for analysis and the paper's ablation studies.
///
/// Always collected (they are plain integer bumps on paths that already
/// do real work); the richer per-phase timing breakdown lives in
/// [`QueryResult::profile`] and is opt-in via
/// [`crate::FlowAnalytics::with_profiling`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Objects whose tracking data overlapped the query time parameter.
    pub objects_considered: usize,
    /// Uncertainty regions actually derived. Long-visit queries count
    /// record pieces ([`inflow_uncertainty::DwellPiece`]) here.
    pub urs_built: usize,
    /// Presence integrations performed (the dominant cost). Long-visit
    /// queries count (piece, POI) dwell field integrations here.
    pub presence_evaluations: usize,
    /// Object–POI pairings rejected by the cheap MBR intersection test
    /// before any integration.
    pub mbr_rejects: usize,
    /// Join-list entries rejected by the finer small-MBR checks (§4.3.2
    /// per-segment MBRs in the interval join; derived-region MBRs in the
    /// snapshot join). Always 0 for the iterative algorithms.
    pub small_mbr_rejects: usize,
    /// R-tree nodes expanded (`R_P` probes in the iterative algorithms,
    /// `R_I`/`R_P` descent in the join algorithms).
    pub rtree_nodes_visited: usize,
    /// POIs whose exact flow the join algorithm computed. Always 0 for
    /// the iterative algorithms (which resolve every POI implicitly).
    pub exact_flows_resolved: usize,
    /// POIs never exactly resolved thanks to upper-bound early
    /// termination — the join algorithm's payoff. Always 0 for the
    /// iterative algorithms.
    pub pois_pruned: usize,
    /// Objects considered whose uncertainty region came out empty — e.g.
    /// `V_max`-infeasible record pairs (§3.2.2), degraded data, or device
    /// outages. They contribute no flow. Long-visit queries count empty
    /// record pieces here.
    pub empty_urs: usize,
    /// Objects considered for which no uncertainty region could be
    /// derived at all (no covering tracking records in the query range).
    pub missing_urs: usize,
    /// Total presence mass accumulated across evaluated object–POI pairs.
    /// For the join algorithms this covers only the pairs actually
    /// integrated (pruned POIs contribute nothing).
    pub accumulated_flow_mass: f64,
    /// The share of [`QueryStats::accumulated_flow_mass`] contributed by
    /// objects whose records the sanitization gate repaired. Always 0
    /// when no sanitize report is attached to the analytics façade.
    pub repaired_flow_mass: f64,
}

impl QueryStats {
    /// Accumulates `other` into `self` (used for timeline totals).
    pub fn merge(&mut self, other: &QueryStats) {
        self.objects_considered += other.objects_considered;
        self.urs_built += other.urs_built;
        self.presence_evaluations += other.presence_evaluations;
        self.mbr_rejects += other.mbr_rejects;
        self.small_mbr_rejects += other.small_mbr_rejects;
        self.rtree_nodes_visited += other.rtree_nodes_visited;
        self.exact_flows_resolved += other.exact_flows_resolved;
        self.pois_pruned += other.pois_pruned;
        self.empty_urs += other.empty_urs;
        self.missing_urs += other.missing_urs;
        self.accumulated_flow_mass += other.accumulated_flow_mass;
        self.repaired_flow_mass += other.repaired_flow_mass;
    }
}

/// Data-quality summary of one query answer — the degraded-mode contract:
/// instead of failing on dirty data, queries answer from what survived
/// sanitization and report how much the answer rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataQuality {
    /// Objects whose tracking data overlapped the query time parameter.
    pub objects_considered: usize,
    /// Considered objects whose uncertainty region was empty.
    pub empty_urs: usize,
    /// Considered objects with no derivable uncertainty region.
    pub missing_urs: usize,
    /// Fraction of considered objects that produced a usable region
    /// (`1.0` when nothing was considered — an empty answer is exact).
    pub coverage: f64,
    /// Rows the upstream sanitization gate repaired (0 when no report
    /// was attached to the analytics façade).
    pub repaired_rows: u64,
    /// Rows the gate rejected.
    pub rejected_rows: u64,
    /// Rows the gate quarantined.
    pub quarantined_rows: u64,
    /// Presence mass contributed by repaired objects. Under join pruning
    /// this is a lower bound: pruned POIs never integrate their objects.
    pub repaired_flow_mass: f64,
    /// `repaired_flow_mass` as a fraction of all accumulated flow mass
    /// (`0.0` when no mass was accumulated).
    pub repaired_mass_fraction: f64,
}

impl Default for DataQuality {
    fn default() -> DataQuality {
        DataQuality {
            objects_considered: 0,
            empty_urs: 0,
            missing_urs: 0,
            coverage: 1.0,
            repaired_rows: 0,
            rejected_rows: 0,
            quarantined_rows: 0,
            repaired_flow_mass: 0.0,
            repaired_mass_fraction: 0.0,
        }
    }
}

impl DataQuality {
    /// Derives the summary from a query's stats and the sanitize-report
    /// totals of the data it ran on.
    pub fn from_stats(
        stats: &QueryStats,
        repaired_rows: u64,
        rejected_rows: u64,
        quarantined_rows: u64,
    ) -> DataQuality {
        let unusable = stats.empty_urs + stats.missing_urs;
        let coverage = if stats.objects_considered == 0 {
            1.0
        } else {
            1.0 - unusable as f64 / stats.objects_considered as f64
        };
        let repaired_mass_fraction = if stats.accumulated_flow_mass > 0.0 {
            stats.repaired_flow_mass / stats.accumulated_flow_mass
        } else {
            0.0
        };
        DataQuality {
            objects_considered: stats.objects_considered,
            empty_urs: stats.empty_urs,
            missing_urs: stats.missing_urs,
            coverage,
            repaired_rows,
            rejected_rows,
            quarantined_rows,
            repaired_flow_mass: stats.repaired_flow_mass,
            repaired_mass_fraction,
        }
    }

    /// Whether the answer rests on anything less than full clean data.
    pub fn degraded(&self) -> bool {
        self.empty_urs > 0
            || self.missing_urs > 0
            || self.repaired_rows > 0
            || self.rejected_rows > 0
            || self.quarantined_rows > 0
    }

    /// One-line summary for CLI output.
    pub fn render(&self) -> String {
        if !self.degraded() {
            return format!("quality: clean ({} objects, full coverage)", self.objects_considered);
        }
        let mut s = format!(
            "quality: coverage {:.1}% ({} objects, {} empty URs, {} missing URs)",
            self.coverage * 100.0,
            self.objects_considered,
            self.empty_urs,
            self.missing_urs
        );
        if self.repaired_rows > 0 || self.rejected_rows > 0 || self.quarantined_rows > 0 {
            s.push_str(&format!(
                "; sanitized input: {} repaired, {} rejected, {} quarantined; repaired flow mass {:.1}%",
                self.repaired_rows,
                self.rejected_rows,
                self.quarantined_rows,
                self.repaired_mass_fraction * 100.0
            ));
        }
        s
    }
}

/// A ranked top-k result: `(poi, flow)` pairs in descending flow order
/// (ties broken by ascending POI id), plus execution statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The top-k POIs with their flow values.
    pub ranked: Vec<(PoiId, f64)>,
    /// Execution statistics.
    pub stats: QueryStats,
    /// Per-phase span timings, counters and latency histograms. `Some`
    /// only when profiling was enabled on the analytics façade; boxed so
    /// the common disabled case stays one pointer wide.
    pub profile: Option<Box<inflow_obs::QueryProfile>>,
    /// Data-quality summary: how much of the answer rests on repaired,
    /// empty or missing tracking data (degraded-mode reporting).
    pub quality: DataQuality,
}

impl QueryResult {
    /// The POI ids of the result, in rank order.
    pub fn poi_ids(&self) -> Vec<PoiId> {
        self.ranked.iter().map(|&(p, _)| p).collect()
    }
}

/// Ranks flows in descending order with deterministic tie-breaking
/// (ascending POI id) and truncates to `k`. Public so the incremental
/// flow-monitoring service materializes its top-k with the exact same
/// ordering semantics as the batch algorithms.
pub fn rank_topk(mut flows: Vec<(PoiId, f64)>, k: usize) -> Vec<(PoiId, f64)> {
    flows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    flows.truncate(k);
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_orders_and_breaks_ties_by_id() {
        let flows = vec![(PoiId(3), 1.0), (PoiId(1), 2.0), (PoiId(2), 1.0), (PoiId(0), 0.5)];
        let ranked = rank_topk(flows, 3);
        assert_eq!(ranked, vec![(PoiId(1), 2.0), (PoiId(2), 1.0), (PoiId(3), 1.0)]);
    }

    /// IL001 regression: a NaN flow must neither panic the sort nor
    /// perturb the relative order of the finite flows. Under total_cmp,
    /// NaN compares above +inf, so a NaN entry ranks first (and is
    /// visible, rather than silently shuffling the rest as the old
    /// partial_cmp sort could).
    #[test]
    fn nan_flow_does_not_reorder_topk() {
        let flows = vec![(PoiId(0), 1.0), (PoiId(1), f64::NAN), (PoiId(2), 3.0), (PoiId(3), 2.0)];
        let ranked = rank_topk(flows, 4);
        let ids: Vec<PoiId> = ranked.iter().map(|&(p, _)| p).collect();
        assert_eq!(ids, vec![PoiId(1), PoiId(2), PoiId(3), PoiId(0)]);
        // And with the NaN absent, the finite ordering is identical.
        let finite = rank_topk(vec![(PoiId(0), 1.0), (PoiId(2), 3.0), (PoiId(3), 2.0)], 3);
        let finite_ids: Vec<PoiId> = finite.iter().map(|&(p, _)| p).collect();
        assert_eq!(finite_ids, vec![PoiId(2), PoiId(3), PoiId(0)]);
    }

    #[test]
    fn k_is_clamped() {
        let q = SnapshotQuery::new(0.0, vec![PoiId(0), PoiId(1)], 10);
        assert_eq!(q.k, 2);
        let q = SnapshotQuery::new(0.0, vec![PoiId(0)], 0);
        assert_eq!(q.k, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_poi_set_rejected() {
        let _ = IntervalQuery::new(0.0, 1.0, Vec::new(), 1);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn reversed_interval_rejected() {
        let _ = IntervalQuery::new(2.0, 1.0, vec![PoiId(0)], 1);
    }
}
