//! The batch phase: the six query families of `inflow-core` over one
//! table, timed per distinct query, with the answer checks and the
//! per-layer probes of the traced run.

use crate::data::{QUERIES, WINDOW};
use crate::spans::Spans;
use crate::stats::{mean, median, min, quantile, ratio, Metrics, Rng, Tally};
use inflow_core::{
    object_dwell, CountDistribution, DistribQuery, FlowAnalytics, IntervalQuery, LongVisitQuery,
    QueryStats, SnapshotQuery,
};
use inflow_geometry::{integration_probes, Region};
use inflow_indoor::PoiId;
use inflow_rtree::RTree;
use inflow_tracking::ObjectId;
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Paper defaults (Table 4): result size and query POI share.
const K: usize = 10;
const POI_PERCENT: usize = 60;
/// Long-visit dwell threshold, seconds: a third of the query window, so
/// objects can reach it.
const DWELL_D: f64 = 10.0;
/// Count-distribution parameters: rank by `P(count ≥ 2)`, truncate at 32.
const KQ: usize = 2;
const KMAX: usize = 32;
/// Flow tolerance of `tests/algorithm_equivalence.rs`.
const FLOW_TOL: f64 = 1e-6;
/// Timings of every distinct query, at least.
const MIN_SAMPLES: usize = 3;

/// The six timed query families, in metric order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    SnapshotIter,
    SnapshotJoin,
    IntervalIter,
    IntervalJoin,
    Distrib,
    LongVisit,
}

impl Family {
    pub const ALL: [Family; 6] = [
        Family::SnapshotIter,
        Family::SnapshotJoin,
        Family::IntervalIter,
        Family::IntervalJoin,
        Family::Distrib,
        Family::LongVisit,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Family::SnapshotIter => "snapshot_iter_ms",
            Family::SnapshotJoin => "snapshot_join_ms",
            Family::IntervalIter => "interval_iter_ms",
            Family::IntervalJoin => "interval_join_ms",
            Family::Distrib => "distrib_ms",
            Family::LongVisit => "longvisit_ms",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Family::SnapshotIter => "core.snapshot_iterative",
            Family::SnapshotJoin => "core.snapshot_join",
            Family::IntervalIter => "core.interval_iterative",
            Family::IntervalJoin => "core.interval_join",
            Family::Distrib => "core.distrib",
            Family::LongVisit => "core.longvisit",
        }
    }

    fn is_join(self) -> bool {
        matches!(self, Family::SnapshotJoin | Family::IntervalJoin)
    }
}

/// A seeded set of distinct queries. Query `i` of the distrib family
/// shares its time and POI set with snapshot query `i`, and long-visit
/// query `i` with interval query `i`.
pub struct QuerySet {
    pub snapshot: Vec<SnapshotQuery>,
    pub interval: Vec<IntervalQuery>,
    pub distrib: Vec<DistribQuery>,
    pub longvisit: Vec<LongVisitQuery>,
}

impl QuerySet {
    /// [`QUERIES`] queries per family over `[0, duration]`, drawn from
    /// `seed`; interval and long-visit queries span [`WINDOW`] seconds.
    pub fn new(fa: &FlowAnalytics, duration: f64, seed: u64) -> QuerySet {
        let n = QUERIES;
        let mut rng = Rng::new(seed, 0x7175_6572);
        let all: Vec<PoiId> = fa.engine().context().plan().pois().iter().map(|p| p.id).collect();
        let take = (all.len() * POI_PERCENT / 100).max(1);
        let subset = |rng: &mut Rng| {
            let mut ids = all.clone();
            rng.shuffle(&mut ids);
            ids.truncate(take);
            ids.sort_unstable();
            ids
        };
        let len = WINDOW.min(0.4 * duration);
        let mut qs =
            QuerySet { snapshot: vec![], interval: vec![], distrib: vec![], longvisit: vec![] };
        // Stratified times: query `i` falls in the `i`-th of `n` equal
        // slices of the middle 80% of the timeline, so every seed covers
        // the timeline alike.
        let slice = |i: usize, rng: &mut Rng, span: f64| {
            0.1 * duration + span * (i as f64 + rng.range(0.0, 1.0)) / n as f64
        };
        for i in 0..n {
            let t = slice(i, &mut rng, 0.8 * duration);
            let pois = subset(&mut rng);
            qs.distrib.push(DistribQuery::at(t, pois.clone(), KQ, KMAX, K));
            qs.snapshot.push(SnapshotQuery::new(t, pois, K));
            let ts = slice(i, &mut rng, 0.8 * duration - len);
            let pois = subset(&mut rng);
            qs.longvisit.push(LongVisitQuery::new(ts, ts + len, DWELL_D, pois.clone(), K));
            qs.interval.push(IntervalQuery::new(ts, ts + len, pois, K));
        }
        qs
    }

    pub fn len(&self) -> usize {
        self.snapshot.len()
    }

    pub fn is_empty(&self) -> bool {
        self.snapshot.is_empty()
    }
}

/// One query execution's answer and work counters.
struct Outcome {
    ranked: Vec<(PoiId, f64)>,
    stats: QueryStats,
    /// Distrib only: every query POI's expected count.
    expectations: Vec<(PoiId, f64)>,
}

fn execute(fa: &FlowAnalytics, qs: &QuerySet, family: Family, i: usize) -> Outcome {
    let plain = |r: inflow_core::QueryResult| Outcome {
        ranked: r.ranked,
        stats: r.stats,
        expectations: Vec::new(),
    };
    match family {
        Family::SnapshotIter => plain(fa.snapshot_topk_iterative(&qs.snapshot[i])),
        Family::SnapshotJoin => plain(fa.snapshot_topk_join(&qs.snapshot[i])),
        Family::IntervalIter => plain(fa.interval_topk_iterative(&qs.interval[i])),
        Family::IntervalJoin => plain(fa.interval_topk_join(&qs.interval[i])),
        Family::Distrib => {
            let r = fa.distrib_topk(&qs.distrib[i]);
            let expectations = r.distributions.iter().map(|(p, d)| (*p, d.expectation())).collect();
            Outcome { ranked: r.ranked, stats: r.stats, expectations }
        }
        Family::LongVisit => {
            let r = fa.longvisit_topk(&qs.longvisit[i]);
            Outcome { ranked: r.ranked, stats: r.stats, expectations: Vec::new() }
        }
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Whether two top-k answers agree within `tol`: the flows match rank by
/// rank, and a POI only one side ranks ties the other side's k-th flow
/// (tied POIs may be cut in either order).
pub fn same_topk(got: &[(PoiId, f64)], want: &[(PoiId, f64)], tol: f64) -> bool {
    if got.len() != want.len() {
        return false;
    }
    if got.iter().zip(want).any(|(g, w)| (g.1 - w.1).abs() > tol) {
        return false;
    }
    let only_in = |a: &[(PoiId, f64)], b: &[(PoiId, f64)]| {
        let kth = b.last().map_or(0.0, |e| e.1);
        a.iter().all(|&(p, f)| b.iter().any(|e| e.0 == p) || (f - kth).abs() <= tol)
    };
    only_in(got, want) && only_in(want, got)
}

/// Deterministic work of one pass over the query set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub probes: u64,
    pub presence_evals: u64,
    pub urs: u64,
    pub pois_pruned: u64,
}

/// Per family, per distinct query: its timed executions, in ms.
type Samples = Vec<Vec<Vec<f64>>>;

/// Runs every query once: checks every answer and collects the work
/// counters. Returns the fingerprint, the per-layer count metrics and the
/// pass's timings (the first sample of every query).
fn checked_pass(
    fa: &FlowAnalytics,
    qs: &QuerySet,
    tally: &mut Tally,
    spans: &mut Spans,
) -> (Fingerprint, Metrics, Samples) {
    let memo_before = fa.range_memo_hits();
    let mut fp = Fingerprint::default();
    let (mut all, mut join) = (Vec::new(), Vec::new());
    let mut probes = Vec::new();
    // Indexed like `Family::ALL`, then by query.
    let (mut outcomes, mut samples): (Vec<Vec<Outcome>>, Samples) = (Vec::new(), Vec::new());
    for &family in &Family::ALL {
        let (mut outs, mut times) = (Vec::new(), Vec::new());
        for i in 0..qs.len() {
            let p0 = integration_probes();
            let span = spans.enter(family.span(), i as u64);
            let t0 = Instant::now();
            let out = execute(fa, qs, family, i);
            times.push(vec![t0.elapsed().as_secs_f64() * 1e3]);
            spans.exit(span);
            let dp = integration_probes().wrapping_sub(p0);
            probes.push(dp as f64);
            fp.probes += dp;
            fp.presence_evals += out.stats.presence_evaluations as u64;
            fp.urs += out.stats.urs_built as u64;
            fp.pois_pruned += out.stats.pois_pruned as u64;
            all.push(out.stats);
            if family.is_join() {
                join.push(out.stats);
            }
            outs.push(out);
        }
        outcomes.push(outs);
        samples.push(times);
    }
    #[allow(clippy::needless_range_loop)] // `i` indexes four parallel tables
    for i in 0..qs.len() {
        // Iterative and join agree on every snapshot and interval query.
        for (it, jn) in [(0, 1), (2, 3)] {
            tally.check(same_topk(&outcomes[jn][i].ranked, &outcomes[it][i].ranked, FLOW_TOL));
        }
        // E[count] of every POI equals its snapshot flow.
        let flows: HashMap<PoiId, f64> = fa.snapshot_flows(&qs.snapshot[i]).into_iter().collect();
        let expectations = &outcomes[4][i].expectations;
        tally.check(
            expectations.len() == qs.snapshot[i].pois.len()
                && expectations
                    .iter()
                    .all(|(p, e)| (e - flows.get(p).copied().unwrap_or(0.0)).abs() <= FLOW_TOL),
        );
        // Long-visit counts are whole object counts.
        tally.check(outcomes[5][i].ranked.iter().all(|&(_, c)| c >= 0.0 && c.fract() == 0.0));
    }

    let per = |xs: &[QueryStats], f: fn(&QueryStats) -> usize| {
        mean(&xs.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let pruned: usize = join.iter().map(|s| s.pois_pruned).sum();
    let exact: usize = join.iter().map(|s| s.exact_flows_resolved).sum();
    let mut m = Metrics::default();
    m.set("uncertainty.urs_per_query", per(&all, |s| s.urs_built), "count");
    m.set("rtree.nodes_per_query", per(&join, |s| s.rtree_nodes_visited), "count");
    m.set("geometry.presence_per_query", per(&all, |s| s.presence_evaluations), "count");
    m.set("geometry.probes_per_query", mean(&probes), "count");
    m.set("core.join.pruned_per_query", per(&join, |s| s.pois_pruned), "count");
    m.set("core.join.prune_ratio", ratio(pruned as f64, (pruned + exact) as f64), "ratio");
    m.set(
        "core.join.mbr_rejects_per_query",
        per(&join, |s| s.mbr_rejects + s.small_mbr_rejects),
        "count",
    );
    m.set("core.range_memo_hits", (fa.range_memo_hits() - memo_before) as f64, "count");
    m.set("work.probes", fp.probes as f64, "count");
    m.set("work.presence_evals", fp.presence_evals as f64, "count");
    m.set("work.urs", fp.urs as f64, "count");
    m.set("work.pois_pruned", fp.pois_pruned as f64, "count");
    (fp, m, samples)
}

/// The work fingerprint of one checked pass (same-seed runs must agree).
pub fn fingerprint(fa: &FlowAnalytics, qs: &QuerySet) -> Fingerprint {
    checked_pass(fa, qs, &mut Tally::default(), &mut Spans::new(false)).0
}

/// Timed rounds after the checked pass: every distinct query once per
/// round, until `budget` is spent and every query has at least
/// `min_samples` timings. Each query keeps its fastest timing: the
/// speed of a shared VM drifts with its neighbours' load (a fixed loop's median
/// over 2 s windows moved from 11 to 18 ms between quiet and busy spells,
/// its minimum only from 10.6 to 12.9 ms), so a hiccup or a busy spell
/// moves samples, not the metric. Each family metric is the mean of its
/// queries' minima, and `query_p90_ms` the p90 over all of them.
fn timed_rounds(
    fa: &FlowAnalytics,
    qs: &QuerySet,
    budget: Duration,
    min_samples: usize,
    mut samples: Samples,
) -> Metrics {
    let start = Instant::now();
    let mut round = samples[0][0].len();
    while round < min_samples || start.elapsed() < budget {
        for (f, &family) in Family::ALL.iter().enumerate() {
            for (i, runs) in samples[f].iter_mut().enumerate() {
                runs.push(time_ms(|| {
                    black_box(execute(fa, qs, family, i));
                }));
            }
        }
        round += 1;
    }
    let mut m = Metrics::default();
    let mut every = Vec::new();
    for (f, family) in Family::ALL.iter().enumerate() {
        let fastest: Vec<f64> = samples[f].iter().map(|runs| min(runs)).collect();
        m.set(family.metric(), mean(&fastest), "ms");
        every.extend(fastest);
    }
    m.set("query_p90_ms", quantile(&every, 0.9), "ms");
    m
}

/// Profiling on versus off, paired per query execution with alternating
/// order; the overhead is the median paired ratio, as a percentage.
fn profile_overhead(fa: &mut FlowAnalytics, qs: &QuerySet, budget: Duration) -> f64 {
    let mut ratios = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round < 1 || start.elapsed() < budget {
        for &family in &Family::ALL {
            for i in 0..qs.len() {
                let mut pair = [0.0; 2];
                for step in 0..2 {
                    let on = (step + round + i) % 2 == 1;
                    fa.set_profiling(on);
                    pair[on as usize] = time_ms(|| {
                        black_box(execute(fa, qs, family, i));
                    });
                }
                ratios.push(ratio(pair[1], pair[0]));
            }
        }
        round += 1;
    }
    fa.set_profiling(false);
    (median(&ratios) - 1.0) * 100.0
}

/// Per-call timings of the layers under the query families, measured by
/// replaying the iterative algorithms' steps through the public API:
/// AR-tree lookups, UR derivation, R-tree probes, presence integration,
/// count-distribution convolution and dwell integration.
fn layer_pass(fa: &FlowAnalytics, qs: &QuerySet, spans: &mut Spans) -> Metrics {
    let engine = fa.engine();
    let ott = fa.ott();
    let plan = engine.context().plan();
    let (mut artree_us, mut candidates, mut ur_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut presence_ns, mut presence_calls, mut probes) = (0.0, 0u64, 0u64);
    let (mut convolve_us, mut dwell_us) = (Vec::new(), Vec::new());
    let rtree_of = |pois: &[PoiId]| {
        RTree::bulk_load(pois.iter().map(|&p| (plan.poi(p).mbr(), p)).collect::<Vec<_>>())
    };
    let mut integrate = |ur: &inflow_uncertainty::UncertaintyRegion,
                         rp: &RTree<PoiId>,
                         per_poi: &mut HashMap<PoiId, Vec<f64>>,
                         spans: &mut Spans,
                         request: u64| {
        for &poi in rp.query_intersecting(&ur.mbr()) {
            let p0 = integration_probes();
            let span = spans.enter("geometry.presence", request);
            let t0 = Instant::now();
            let presence = black_box(engine.presence(ur, plan.poi(poi)));
            presence_ns += t0.elapsed().as_nanos() as f64;
            spans.exit(span);
            probes += integration_probes().wrapping_sub(p0);
            presence_calls += 1;
            if presence > 0.0 {
                per_poi.entry(poi).or_default().push(presence);
            }
        }
    };

    for (i, q) in qs.snapshot.iter().enumerate() {
        let request = i as u64;
        let rp = rtree_of(&q.pois);
        let t0 = Instant::now();
        let entries =
            spans.time("tracking.artree_point_query", request, || fa.artree().point_query(q.t));
        artree_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let objects: BTreeSet<ObjectId> = entries.iter().map(|e| e.object).collect();
        candidates.push(objects.len() as f64);
        let mut per_poi = HashMap::new();
        for object in objects {
            let Some(state) = ott.state_at(object, q.t) else { continue };
            let t0 = Instant::now();
            let ur = spans
                .time("uncertainty.snapshot_ur", request, || engine.snapshot_ur(ott, state, q.t));
            ur_us.push(t0.elapsed().as_secs_f64() * 1e6);
            integrate(&ur, &rp, &mut per_poi, spans, request);
        }
        for presences in per_poi.into_values() {
            let t0 = Instant::now();
            spans.time("core.distrib.convolve", request, || {
                black_box(CountDistribution::from_presences(presences, KMAX))
            });
            convolve_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    for (i, q) in qs.interval.iter().enumerate() {
        let request = (qs.len() + i) as u64;
        let rp = rtree_of(&q.pois);
        let t0 = Instant::now();
        let entries = spans
            .time("tracking.artree_range_query", request, || fa.artree().range_query(q.ts, q.te));
        artree_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let objects: BTreeSet<ObjectId> = entries.iter().map(|e| e.object).collect();
        candidates.push(objects.len() as f64);
        let mut per_poi = HashMap::new();
        for &object in &objects {
            let t0 = Instant::now();
            let ur = spans.time("uncertainty.interval_ur", request, || {
                engine.interval_ur(ott, object, q.ts, q.te)
            });
            ur_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Some(ur) = ur {
                integrate(&ur, &rp, &mut per_poi, spans, request);
            }
        }
        for object in objects {
            let t0 = Instant::now();
            spans.time("core.longvisit.dwell", request, || {
                black_box(object_dwell(engine, ott, object, q.ts, q.te, &rp))
            });
            dwell_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let mut m = Metrics::default();
    m.set("tracking.artree_query_us", mean(&artree_us), "us");
    m.set("tracking.candidates_per_query", mean(&candidates), "count");
    m.set("uncertainty.ur_us", mean(&ur_us), "us");
    m.set("geometry.presence_us", ratio(presence_ns, presence_calls as f64) / 1e3, "us");
    m.set("geometry.ns_per_probe", ratio(presence_ns, probes as f64), "ns");
    m.set("core.distrib.convolve_us", mean(&convolve_us), "us");
    m.set("core.longvisit.dwell_us", mean(&dwell_us), "us");
    m
}

/// The batch phase's end-to-end query metrics over `fa`, with the answer
/// checks.
pub fn end_to_end(
    fa: &FlowAnalytics,
    qs: &QuerySet,
    budget: Duration,
    tally: &mut Tally,
) -> Metrics {
    let start = Instant::now();
    let (_, _, samples) = checked_pass(fa, qs, tally, &mut Spans::new(false));
    let left = budget.saturating_sub(start.elapsed());
    timed_rounds(fa, qs, left, MIN_SAMPLES, samples)
}

/// The batch phase's per-layer metrics over `fa` (traced run), with the
/// answer checks.
pub fn layers(
    fa: &mut FlowAnalytics,
    qs: &QuerySet,
    budget: Duration,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Metrics {
    let start = Instant::now();
    let (_, mut m, _) = checked_pass(fa, qs, tally, spans);
    m.extend(&layer_pass(fa, qs, spans));
    let left = budget.saturating_sub(start.elapsed());
    m.set("obs.profile_overhead_pct", profile_overhead(fa, qs, left), "%");
    m
}
