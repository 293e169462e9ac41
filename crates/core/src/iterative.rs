//! The iterative query algorithms (Algorithms 1 and 4).
//!
//! Straightforward processing: derive the uncertainty region of *every*
//! object relevant to the query time parameter, find the POIs it
//! intersects via `R_P`, and accumulate presences into per-POI flow
//! values. Serves as the baseline the join algorithms are compared
//! against throughout §5.
//!
//! The per-object body lives in [`crate::contrib`] so the incremental
//! flow-monitoring service reuses the exact same primitive; the loops
//! here fold contributions in candidate order, keeping results bitwise
//! identical to the pre-factoring code.
//!
//! Both algorithms are embarrassingly parallel over objects: the
//! `*_parallel` variants partition the candidate list across
//! `std::thread::scope` workers and fold the per-object contributions on
//! the calling thread *in the sequential candidate order*, so the
//! floating-point accumulation order — and therefore the flows, the
//! top-k and even the stats — is bitwise identical to the
//! single-threaded path (asserted in `tests/algorithm_equivalence.rs`).
//!
//! Observability: each query records phase spans (`build_poi_rtree`,
//! `candidate_retrieval`, `accumulate`, `rank`) plus per-operation
//! latency histograms for UR derivation and presence integration when
//! profiling is enabled on the façade (sequential paths only — parallel
//! workers run with no-op recorders).

use crate::analytics::FlowAnalytics;
use crate::contrib::{self, fold_contrib};
use crate::profiling;
use crate::query::{rank_topk, IntervalQuery, QueryResult, QueryStats, SnapshotQuery};
use inflow_indoor::PoiId;
use inflow_obs::Recorder;
use inflow_tracking::{ArTree, ObjectId, ObjectState};
use std::collections::HashMap;

/// Algorithm 1: iterative snapshot top-k.
pub fn snapshot(fa: &FlowAnalytics, q: &SnapshotQuery) -> QueryResult {
    snapshot_threads(fa, q, 1)
}

/// Algorithm 1 with the per-object work spread over `threads` workers
/// (`<= 1` runs inline). Bitwise-identical results to [`snapshot`].
pub fn snapshot_threads(fa: &FlowAnalytics, q: &SnapshotQuery, threads: usize) -> QueryResult {
    let mut rec = fa.recorder();
    let grid0 = profiling::grid_start(&rec);
    let root = rec.enter("snapshot_iterative");
    let (flows, stats) = snapshot_flows_threads(fa, q, &mut rec, threads);
    let span = rec.enter("rank");
    let ranked = rank_topk(flows, q.k);
    rec.exit(span);
    rec.exit(root);
    let quality = fa.quality(&stats);
    QueryResult { ranked, stats, profile: profiling::finish_profile(rec, &stats, grid0), quality }
}

/// Algorithm 4: iterative interval top-k.
pub fn interval(fa: &FlowAnalytics, q: &IntervalQuery) -> QueryResult {
    interval_threads(fa, q, 1)
}

/// Algorithm 4 with the per-object work spread over `threads` workers
/// (`<= 1` runs inline). Bitwise-identical results to [`interval`].
pub fn interval_threads(fa: &FlowAnalytics, q: &IntervalQuery, threads: usize) -> QueryResult {
    let mut rec = fa.recorder();
    let grid0 = profiling::grid_start(&rec);
    let root = rec.enter("interval_iterative");
    let (flows, stats) = interval_flows_threads(fa, q, &mut rec, threads);
    let span = rec.enter("rank");
    let ranked = rank_topk(flows, q.k);
    rec.exit(span);
    rec.exit(root);
    let quality = fa.quality(&stats);
    QueryResult { ranked, stats, profile: profiling::finish_profile(rec, &stats, grid0), quality }
}

/// All snapshot flows, unranked.
pub fn snapshot_flows(fa: &FlowAnalytics, q: &SnapshotQuery) -> Vec<(PoiId, f64)> {
    snapshot_flows_threads(fa, q, &mut Recorder::disabled(), 1).0
}

/// All interval flows, unranked.
pub fn interval_flows(fa: &FlowAnalytics, q: &IntervalQuery) -> Vec<(PoiId, f64)> {
    interval_flows_threads(fa, q, &mut Recorder::disabled(), 1).0
}

fn snapshot_flows_threads(
    fa: &FlowAnalytics,
    q: &SnapshotQuery,
    rec: &mut Recorder,
    threads: usize,
) -> (Vec<(PoiId, f64)>, QueryStats) {
    let span = rec.enter("build_poi_rtree");
    let rp = fa.build_poi_rtree(&q.pois);
    rec.exit(span);
    let mut flows: HashMap<PoiId, f64> = q.pois.iter().map(|&p| (p, 0.0)).collect();
    let mut stats = QueryStats::default();

    // Point query on the AR-tree: all objects with an augmented tracking
    // interval covering t (Algorithm 1, line 3). Resolving states up
    // front fixes the candidate order the fold must follow.
    let span = rec.enter("candidate_retrieval");
    let candidates: Vec<(ObjectId, ObjectState)> = fa
        .artree()
        .point_query(q.t)
        .into_iter()
        .filter_map(|e| ArTree::resolve_state(fa.ott(), e, q.t).map(|s| (e.object, s)))
        .collect();
    rec.exit(span);

    let span = rec.enter("accumulate");
    let per_object =
        run_candidates(&candidates, threads, rec, &mut stats, |_, state, rec, stats| {
            Some(contrib::snapshot_object_contrib(
                fa.engine(),
                fa.ott(),
                *state,
                q.t,
                &rp,
                rec,
                stats,
            ))
        });
    for ((object, _), contribs) in candidates.iter().zip(&per_object) {
        stats.objects_considered += 1;
        let Some(contribs) = contribs else { continue };
        fold_contrib(&mut flows, &mut stats, contribs, fa.is_repaired(*object));
    }
    rec.exit(span);
    (flows.into_iter().collect(), stats)
}

pub(crate) fn interval_flows_threads(
    fa: &FlowAnalytics,
    q: &IntervalQuery,
    rec: &mut Recorder,
    threads: usize,
) -> (Vec<(PoiId, f64)>, QueryStats) {
    let span = rec.enter("build_poi_rtree");
    let rp = fa.build_poi_rtree(&q.pois);
    rec.exit(span);
    let mut flows: HashMap<PoiId, f64> = q.pois.iter().map(|&p| (p, 0.0)).collect();
    let mut stats = QueryStats::default();

    // Range query on the AR-tree; the distinct objects form the relevant
    // population (Algorithm 4, lines 3–6). Memoized on the façade so
    // repeated refreshes over the same range skip the rescan.
    let span = rec.enter("candidate_retrieval");
    let candidates: Vec<(ObjectId, ())> =
        fa.interval_candidates(q.ts, q.te).into_iter().map(|o| (o, ())).collect();
    rec.exit(span);

    let span = rec.enter("accumulate");
    let per_object =
        run_candidates(&candidates, threads, rec, &mut stats, |object, (), rec, stats| {
            contrib::interval_object_contrib(
                fa.engine(),
                fa.ott(),
                object,
                q.ts,
                q.te,
                &rp,
                rec,
                stats,
            )
        });
    for ((object, ()), contribs) in candidates.iter().zip(&per_object) {
        stats.objects_considered += 1;
        let Some(contribs) = contribs else { continue };
        fold_contrib(&mut flows, &mut stats, contribs, fa.is_repaired(*object));
    }
    rec.exit(span);
    (flows.into_iter().collect(), stats)
}

/// Computes one optional contribution list per candidate — inline on this
/// thread for `threads <= 1`, otherwise across contiguous chunks under
/// `std::thread::scope` — and returns them *in candidate order*, so the
/// caller's fold is order-identical either way. `None` marks a candidate
/// with no derivable region (counted inside `f` via its stats).
///
/// Integer stats from parallel workers merge commutatively; the f64 flow
/// masses are accumulated only by the caller's sequential fold, which is
/// what makes the parallel results bitwise identical.
fn run_candidates<S: Sync, F>(
    candidates: &[(ObjectId, S)],
    threads: usize,
    rec: &mut Recorder,
    stats: &mut QueryStats,
    f: F,
) -> Vec<Option<Vec<(PoiId, f64)>>>
where
    F: Fn(ObjectId, &S, &mut Recorder, &mut QueryStats) -> Option<Vec<(PoiId, f64)>> + Sync,
{
    if threads <= 1 || candidates.len() < 2 {
        return candidates.iter().map(|(o, s)| f(*o, s, rec, stats)).collect();
    }
    let workers = threads.min(candidates.len());
    let chunk = candidates.len().div_ceil(workers);
    let mut results: Vec<Option<Vec<(PoiId, f64)>>> = Vec::with_capacity(candidates.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = candidates
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                scope.spawn(move || {
                    let mut local = QueryStats::default();
                    let out: Vec<_> = part
                        .iter()
                        .map(|(o, s)| f(*o, s, &mut Recorder::disabled(), &mut local))
                        .collect();
                    (out, local)
                })
            })
            .collect();
        for h in handles {
            // A panicked worker already logged its own failure; degrade
            // to the surviving workers' results rather than tearing down
            // the serving thread with it.
            if let Ok((out, local)) = h.join() {
                results.extend(out);
                stats.merge(&local);
            }
        }
    });
    results
}
