//! Glue between query execution and the `inflow-obs` recorder.
//!
//! The always-on [`QueryStats`] counters are accumulated in plain locals
//! on the hot paths (no recorder branches in inner loops) and mirrored
//! into the profile's counter registry once per query, here. Profile-only
//! metrics — queue traffic, grid probes and blocks — are added by the
//! algorithms directly.

use crate::query::QueryStats;
use inflow_obs::{Counter, QueryProfile, Recorder};

/// Baselines of the geometry integrators' probe and block counters,
/// taken before the query runs so [`finish_profile`] can report the
/// deltas. Zero (and unused) when profiling is disabled.
pub(crate) fn grid_start(rec: &Recorder) -> (u64, u64) {
    if rec.is_enabled() {
        (inflow_geometry::integration_probes(), inflow_geometry::integration_blocks())
    } else {
        (0, 0)
    }
}

/// Mirrors the final [`QueryStats`] into the recorder's counter registry,
/// records the grid-probe and grid-block deltas, and freezes the profile.
pub(crate) fn finish_profile(
    mut rec: Recorder,
    stats: &QueryStats,
    (probes_before, blocks_before): (u64, u64),
) -> Option<Box<QueryProfile>> {
    if rec.is_enabled() {
        rec.add(Counter::ObjectsConsidered, stats.objects_considered as u64);
        rec.add(Counter::UrsBuilt, stats.urs_built as u64);
        rec.add(Counter::PresenceEvaluations, stats.presence_evaluations as u64);
        rec.add(Counter::MbrRejects, stats.mbr_rejects as u64);
        rec.add(Counter::SmallMbrRejects, stats.small_mbr_rejects as u64);
        rec.add(Counter::RtreeNodesVisited, stats.rtree_nodes_visited as u64);
        rec.add(Counter::ExactFlowsResolved, stats.exact_flows_resolved as u64);
        rec.add(Counter::PoisPruned, stats.pois_pruned as u64);
        rec.add(Counter::EmptyUrs, stats.empty_urs as u64);
        rec.add(Counter::MissingUrs, stats.missing_urs as u64);
        let probes = inflow_geometry::integration_probes().wrapping_sub(probes_before);
        rec.add(Counter::GridProbes, probes);
        let blocks = inflow_geometry::integration_blocks().wrapping_sub(blocks_before);
        rec.add(Counter::GridBlocks, blocks);
    }
    rec.finish().map(Box::new)
}
