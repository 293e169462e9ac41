//! Experiment harness regenerating every figure of the paper's evaluation
//! (§5), plus ablations.
//!
//! Each experiment id (`f10a` … `f14c`, see DESIGN.md's per-experiment
//! index) produces a series of rows mirroring the corresponding figure's
//! axes: query time (ms) as a function of one swept parameter, for the
//! iterative and join algorithms. Figure rows additionally carry per-query
//! work counters (presence integrations and join-pruned POIs) so that a
//! latency difference can be attributed to actual work saved rather than
//! measurement noise.
//!
//! Scales are reduced from paper scale by default (hundreds rather than
//! tens of thousands of objects) so the full suite regenerates in minutes;
//! `Scale` exposes every knob, and the `figures` binary accepts
//! `--objects`, `--passengers`, `--duration` and `--repeats` overrides for
//! paper-scale runs.

use inflow_core::{DistribQuery, FlowAnalytics, IntervalQuery, SnapshotQuery};
use inflow_geometry::GridResolution;
use inflow_indoor::PoiId;
use inflow_uncertainty::UrConfig;
use inflow_workload::{generate_cph, generate_synthetic, CphConfig, SyntheticConfig, Workload};
use std::time::Instant;

/// Global scale knobs for an experiment run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Synthetic moving objects (paper default: 10 K–50 K).
    pub objects: usize,
    /// CPH-like passengers (paper: ~21 K over 7 months).
    pub passengers: usize,
    /// Simulated seconds for the synthetic dataset.
    pub duration: f64,
    /// Query repetitions per measured point (median is reported).
    pub repeats: usize,
    /// Presence-integration resolution.
    pub resolution: GridResolution,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            objects: 400,
            passengers: 300,
            duration: 3600.0,
            repeats: 3,
            resolution: GridResolution::COARSE,
        }
    }
}

impl Scale {
    /// A very small scale for smoke tests of the harness itself.
    pub fn smoke() -> Scale {
        Scale { objects: 60, passengers: 60, duration: 900.0, repeats: 1, ..Scale::default() }
    }
}

/// Default experiment parameters (Table 4 defaults).
pub mod defaults {
    /// Default result size `k`.
    pub const K: usize = 10;
    /// Default query POI percentage.
    pub const POI_PERCENT: usize = 60;
    /// Default detection range (synthetic), metres.
    pub const DETECTION_RANGE: f64 = 1.0;
    /// Default interval length, seconds (20 minutes).
    pub const INTERVAL_LEN: f64 = 1200.0;
    /// The swept `k` values (Figures 10a, 12a, 13a, 14a).
    pub const K_SWEEP: [usize; 6] = [1, 10, 20, 30, 40, 50];
    /// The swept POI percentages (Figures 10b, 12b, 13b, 14b).
    pub const POI_SWEEP: [usize; 5] = [20, 40, 60, 80, 100];
    /// The swept detection ranges (Figure 11).
    pub const RANGE_SWEEP: [f64; 4] = [1.0, 1.5, 2.0, 2.5];
    /// The swept interval lengths in minutes (Figures 12d, 14c).
    pub const INTERVAL_SWEEP_MIN: [usize; 6] = [10, 20, 30, 40, 50, 60];
}

/// One timed algorithm run: median latency plus the work counters of the
/// median-adjacent executions (from [`inflow_core::QueryStats`], which the
/// algorithms populate even with profiling disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct Measure {
    /// Median query time (ms).
    pub ms: f64,
    /// Median presence integrations per query.
    pub presence: u64,
    /// Median POIs pruned by the join upper bound per query (always 0 for
    /// the iterative algorithms, which evaluate every candidate).
    pub pruned: u64,
}

/// One measured point of a series.
#[derive(Debug, Clone)]
pub struct Row {
    /// The swept parameter's value, formatted.
    pub x: String,
    /// Median iterative query time (ms).
    pub iterative_ms: f64,
    /// Median join query time (ms).
    pub join_ms: f64,
    /// Median presence integrations per iterative query.
    pub iterative_presence: u64,
    /// Median presence integrations per join query.
    pub join_presence: u64,
    /// Median POIs the join pruned via upper-bound flows per query.
    pub join_pruned: u64,
}

impl Row {
    /// A figure row from two algorithm measurements.
    pub fn measured(x: impl Into<String>, it: Measure, jn: Measure) -> Row {
        Row {
            x: x.into(),
            iterative_ms: it.ms,
            join_ms: jn.ms,
            iterative_presence: it.presence,
            join_presence: jn.presence,
            join_pruned: jn.pruned,
        }
    }

    /// A timing-only row (ablations repurpose the two ms columns and carry
    /// no counters).
    pub fn timing(x: impl Into<String>, iterative_ms: f64, join_ms: f64) -> Row {
        Row {
            x: x.into(),
            iterative_ms,
            join_ms,
            iterative_presence: 0,
            join_presence: 0,
            join_pruned: 0,
        }
    }
}

/// A completed experiment: id, axis label, and the measured series.
#[derive(Debug, Clone)]
pub struct Series {
    pub experiment: String,
    pub x_label: String,
    pub rows: Vec<Row>,
}

impl Series {
    /// Prints the series as CSV
    /// (`experiment, x, iterative_ms, join_ms, it_presence, jn_presence,
    /// jn_pruned`).
    pub fn print_csv(&self) {
        println!("# {} — x = {}", self.experiment, self.x_label);
        println!("experiment,x,iterative_ms,join_ms,it_presence,jn_presence,jn_pruned");
        for row in &self.rows {
            println!(
                "{},{},{:.2},{:.2},{},{},{}",
                self.experiment,
                row.x,
                row.iterative_ms,
                row.join_ms,
                row.iterative_presence,
                row.join_presence,
                row.join_pruned
            );
        }
        println!();
    }
}

/// The base synthetic configuration at a given scale.
pub fn base_synthetic(scale: &Scale) -> SyntheticConfig {
    SyntheticConfig {
        num_objects: scale.objects,
        duration: scale.duration,
        detection_range: defaults::DETECTION_RANGE,
        ..SyntheticConfig::default()
    }
}

/// The base CPH-like configuration at a given scale.
pub fn base_cph(scale: &Scale) -> CphConfig {
    CphConfig { num_passengers: scale.passengers, ..CphConfig::default() }
}

/// Builds the analytics stack for a workload.
pub fn analytics(w: Workload, scale: &Scale) -> FlowAnalytics {
    let cfg = UrConfig {
        vmax: w.vmax,
        topology_check: true,
        resolution: scale.resolution,
        ..UrConfig::default()
    };
    FlowAnalytics::new(w.ctx.clone(), w.ott, cfg)
}

/// A deterministic pseudo-random `percent`% subset of the plan's POIs.
pub fn poi_subset(fa: &FlowAnalytics, percent: usize, salt: usize) -> Vec<PoiId> {
    let all = fa.engine().context().plan().pois();
    let take = (all.len() * percent / 100).max(1);
    let mut ids: Vec<PoiId> =
        (0..take).map(|i| all[(i * 13 + salt * 7 + 3) % all.len()].id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn median_u64(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// One timed sample: latency plus the counters the run reported.
struct Sample {
    ms: f64,
    presence: u64,
    pruned: u64,
}

fn measure(samples: Vec<Sample>) -> Measure {
    Measure {
        ms: median(samples.iter().map(|s| s.ms).collect()),
        presence: median_u64(samples.iter().map(|s| s.presence).collect()),
        pruned: median_u64(samples.iter().map(|s| s.pruned).collect()),
    }
}

fn sample(f: impl FnOnce() -> inflow_core::QueryResult) -> Sample {
    let t0 = Instant::now();
    let result = std::hint::black_box(f());
    Sample {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        presence: result.stats.presence_evaluations as u64,
        pruned: result.stats.pois_pruned as u64,
    }
}

/// Times both algorithms on a set of snapshot queries; returns the median
/// latency and work counters of each.
pub fn time_snapshot(fa: &FlowAnalytics, queries: &[SnapshotQuery]) -> (Measure, Measure) {
    let mut it = Vec::new();
    let mut jn = Vec::new();
    for q in queries {
        it.push(sample(|| fa.snapshot_topk_iterative(q)));
        jn.push(sample(|| fa.snapshot_topk_join(q)));
    }
    (measure(it), measure(jn))
}

/// Times both algorithms on a set of interval queries; returns the median
/// latency and work counters of each.
pub fn time_interval(fa: &FlowAnalytics, queries: &[IntervalQuery]) -> (Measure, Measure) {
    let mut it = Vec::new();
    let mut jn = Vec::new();
    for q in queries {
        it.push(sample(|| fa.interval_topk_iterative(q)));
        jn.push(sample(|| fa.interval_topk_join(q)));
    }
    (measure(it), measure(jn))
}

/// Query time points spread over the simulation's busy middle.
fn snapshot_times(scale: &Scale) -> Vec<f64> {
    (0..scale.repeats).map(|i| scale.duration * (0.35 + 0.1 * i as f64)).collect()
}

fn snapshot_queries(
    fa: &FlowAnalytics,
    scale: &Scale,
    k: usize,
    percent: usize,
) -> Vec<SnapshotQuery> {
    snapshot_times(scale)
        .into_iter()
        .enumerate()
        .map(|(i, t)| SnapshotQuery::new(t, poi_subset(fa, percent, i), k))
        .collect()
}

fn interval_queries(
    fa: &FlowAnalytics,
    scale: &Scale,
    k: usize,
    percent: usize,
    len: f64,
) -> Vec<IntervalQuery> {
    (0..scale.repeats)
        .map(|i| {
            let ts = (scale.duration * (0.15 + 0.1 * i as f64)).max(0.0);
            let te = (ts + len).min(scale.duration);
            IntervalQuery::new(ts, te, poi_subset(fa, percent, i), k)
        })
        .collect()
}

// ───────────────────────── experiments ─────────────────────────────────

/// Figure 10(a): snapshot query vs `k`, synthetic data.
pub fn f10a(scale: &Scale) -> Series {
    let fa = analytics(generate_synthetic(&base_synthetic(scale)), scale);
    let rows = defaults::K_SWEEP
        .iter()
        .map(|&k| {
            let qs = snapshot_queries(&fa, scale, k, defaults::POI_PERCENT);
            let (i, j) = time_snapshot(&fa, &qs);
            Row::measured(k.to_string(), i, j)
        })
        .collect();
    Series { experiment: "f10a".into(), x_label: "k".into(), rows }
}

/// Figure 10(b): snapshot query vs `|P|`, synthetic data.
pub fn f10b(scale: &Scale) -> Series {
    let fa = analytics(generate_synthetic(&base_synthetic(scale)), scale);
    let rows = defaults::POI_SWEEP
        .iter()
        .map(|&p| {
            let qs = snapshot_queries(&fa, scale, defaults::K, p);
            let (i, j) = time_snapshot(&fa, &qs);
            Row::measured(format!("{p}%"), i, j)
        })
        .collect();
    Series { experiment: "f10b".into(), x_label: "|P| (% of POIs)".into(), rows }
}

/// Figure 11(a): snapshot query vs detection range, synthetic data.
pub fn f11a(scale: &Scale) -> Series {
    let rows = defaults::RANGE_SWEEP
        .iter()
        .map(|&r| {
            let cfg = SyntheticConfig { detection_range: r, ..base_synthetic(scale) };
            let fa = analytics(generate_synthetic(&cfg), scale);
            let qs = snapshot_queries(&fa, scale, defaults::K, defaults::POI_PERCENT);
            let (i, j) = time_snapshot(&fa, &qs);
            Row::measured(format!("{r}m"), i, j)
        })
        .collect();
    Series { experiment: "f11a".into(), x_label: "detection range".into(), rows }
}

/// Figure 11(b): interval query vs detection range, synthetic data.
pub fn f11b(scale: &Scale) -> Series {
    let rows = defaults::RANGE_SWEEP
        .iter()
        .map(|&r| {
            let cfg = SyntheticConfig { detection_range: r, ..base_synthetic(scale) };
            let fa = analytics(generate_synthetic(&cfg), scale);
            let qs = interval_queries(
                &fa,
                scale,
                defaults::K,
                defaults::POI_PERCENT,
                defaults::INTERVAL_LEN,
            );
            let (i, j) = time_interval(&fa, &qs);
            Row::measured(format!("{r}m"), i, j)
        })
        .collect();
    Series { experiment: "f11b".into(), x_label: "detection range".into(), rows }
}

/// Figure 12(a): interval query vs `k`, synthetic data.
pub fn f12a(scale: &Scale) -> Series {
    let fa = analytics(generate_synthetic(&base_synthetic(scale)), scale);
    let rows = defaults::K_SWEEP
        .iter()
        .map(|&k| {
            let qs = interval_queries(&fa, scale, k, defaults::POI_PERCENT, defaults::INTERVAL_LEN);
            let (i, j) = time_interval(&fa, &qs);
            Row::measured(k.to_string(), i, j)
        })
        .collect();
    Series { experiment: "f12a".into(), x_label: "k".into(), rows }
}

/// Figure 12(b): interval query vs `|P|`, synthetic data.
pub fn f12b(scale: &Scale) -> Series {
    let fa = analytics(generate_synthetic(&base_synthetic(scale)), scale);
    let rows = defaults::POI_SWEEP
        .iter()
        .map(|&p| {
            let qs = interval_queries(&fa, scale, defaults::K, p, defaults::INTERVAL_LEN);
            let (i, j) = time_interval(&fa, &qs);
            Row::measured(format!("{p}%"), i, j)
        })
        .collect();
    Series { experiment: "f12b".into(), x_label: "|P| (% of POIs)".into(), rows }
}

/// Figure 12(c): interval query vs `|O|`, synthetic data.
pub fn f12c(scale: &Scale) -> Series {
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let rows = fractions
        .iter()
        .map(|&f| {
            let n = ((scale.objects as f64 * f) as usize).max(10);
            let cfg = SyntheticConfig { num_objects: n, ..base_synthetic(scale) };
            let fa = analytics(generate_synthetic(&cfg), scale);
            let qs = interval_queries(
                &fa,
                scale,
                defaults::K,
                defaults::POI_PERCENT,
                defaults::INTERVAL_LEN,
            );
            let (i, j) = time_interval(&fa, &qs);
            Row::measured(n.to_string(), i, j)
        })
        .collect();
    Series { experiment: "f12c".into(), x_label: "|O|".into(), rows }
}

/// Figure 12(d): interval query vs `t_e − t_s`, synthetic data.
pub fn f12d(scale: &Scale) -> Series {
    let fa = analytics(generate_synthetic(&base_synthetic(scale)), scale);
    let rows = defaults::INTERVAL_SWEEP_MIN
        .iter()
        .map(|&mins| {
            let len = (mins * 60) as f64;
            let qs = interval_queries(&fa, scale, defaults::K, defaults::POI_PERCENT, len);
            let (i, j) = time_interval(&fa, &qs);
            Row::measured(format!("{mins}min"), i, j)
        })
        .collect();
    Series { experiment: "f12d".into(), x_label: "t_e − t_s".into(), rows }
}

/// Figure 13(a): snapshot query vs `k`, CPH-like data.
pub fn f13a(scale: &Scale) -> Series {
    let cfg = base_cph(scale);
    let fa = analytics(generate_cph(&cfg), scale);
    let rows = defaults::K_SWEEP
        .iter()
        .map(|&k| {
            let qs: Vec<SnapshotQuery> = (0..scale.repeats)
                .map(|i| {
                    SnapshotQuery::new(
                        cfg.duration * (0.35 + 0.1 * i as f64),
                        poi_subset(&fa, defaults::POI_PERCENT, i),
                        k,
                    )
                })
                .collect();
            let (i, j) = time_snapshot(&fa, &qs);
            Row::measured(k.to_string(), i, j)
        })
        .collect();
    Series { experiment: "f13a".into(), x_label: "k".into(), rows }
}

/// Figure 13(b): snapshot query vs `|P|`, CPH-like data.
pub fn f13b(scale: &Scale) -> Series {
    let cfg = base_cph(scale);
    let fa = analytics(generate_cph(&cfg), scale);
    let rows = defaults::POI_SWEEP
        .iter()
        .map(|&p| {
            let qs: Vec<SnapshotQuery> = (0..scale.repeats)
                .map(|i| {
                    SnapshotQuery::new(
                        cfg.duration * (0.35 + 0.1 * i as f64),
                        poi_subset(&fa, p, i),
                        defaults::K,
                    )
                })
                .collect();
            let (i, j) = time_snapshot(&fa, &qs);
            Row::measured(format!("{p}%"), i, j)
        })
        .collect();
    Series { experiment: "f13b".into(), x_label: "|P| (% of POIs)".into(), rows }
}

fn cph_interval_queries(
    fa: &FlowAnalytics,
    scale: &Scale,
    duration: f64,
    k: usize,
    percent: usize,
    len: f64,
) -> Vec<IntervalQuery> {
    (0..scale.repeats)
        .map(|i| {
            let ts = duration * (0.2 + 0.1 * i as f64);
            IntervalQuery::new(ts, (ts + len).min(duration), poi_subset(fa, percent, i), k)
        })
        .collect()
}

/// Figure 14(a): interval query vs `k`, CPH-like data.
pub fn f14a(scale: &Scale) -> Series {
    let cfg = base_cph(scale);
    let fa = analytics(generate_cph(&cfg), scale);
    let rows = defaults::K_SWEEP
        .iter()
        .map(|&k| {
            let qs = cph_interval_queries(
                &fa,
                scale,
                cfg.duration,
                k,
                defaults::POI_PERCENT,
                defaults::INTERVAL_LEN,
            );
            let (i, j) = time_interval(&fa, &qs);
            Row::measured(k.to_string(), i, j)
        })
        .collect();
    Series { experiment: "f14a".into(), x_label: "k".into(), rows }
}

/// Figure 14(b): interval query vs `|P|`, CPH-like data.
pub fn f14b(scale: &Scale) -> Series {
    let cfg = base_cph(scale);
    let fa = analytics(generate_cph(&cfg), scale);
    let rows = defaults::POI_SWEEP
        .iter()
        .map(|&p| {
            let qs = cph_interval_queries(
                &fa,
                scale,
                cfg.duration,
                defaults::K,
                p,
                defaults::INTERVAL_LEN,
            );
            let (i, j) = time_interval(&fa, &qs);
            Row::measured(format!("{p}%"), i, j)
        })
        .collect();
    Series { experiment: "f14b".into(), x_label: "|P| (% of POIs)".into(), rows }
}

/// Figure 14(c): interval query vs `t_e − t_s`, CPH-like data.
pub fn f14c(scale: &Scale) -> Series {
    let cfg = base_cph(scale);
    let fa = analytics(generate_cph(&cfg), scale);
    let rows = defaults::INTERVAL_SWEEP_MIN
        .iter()
        .map(|&mins| {
            let len = (mins * 60) as f64;
            let qs = cph_interval_queries(
                &fa,
                scale,
                cfg.duration,
                defaults::K,
                defaults::POI_PERCENT,
                len,
            );
            let (i, j) = time_interval(&fa, &qs);
            Row::measured(format!("{mins}min"), i, j)
        })
        .collect();
    Series { experiment: "f14c".into(), x_label: "t_e − t_s".into(), rows }
}

// ───────────────────────── ablations ────────────────────────────────────

/// Ablation: topology check on/off. Column semantics differ from the
/// figures: `iterative_ms` = topology OFF, `join_ms` = topology ON (both
/// via the join algorithm).
pub fn abl_topo(scale: &Scale) -> Series {
    let mk = |topo: bool| {
        let w = generate_synthetic(&base_synthetic(scale));
        let cfg = UrConfig {
            vmax: w.vmax,
            topology_check: topo,
            resolution: scale.resolution,
            ..UrConfig::default()
        };
        FlowAnalytics::new(w.ctx.clone(), w.ott, cfg)
    };
    let fa_on = mk(true);
    let fa_off = mk(false);
    let mut rows = Vec::new();

    let snaps = snapshot_queries(&fa_on, scale, defaults::K, defaults::POI_PERCENT);
    let time_snap = |fa: &FlowAnalytics| {
        let t0 = Instant::now();
        for q in &snaps {
            std::hint::black_box(fa.snapshot_topk_join(q));
        }
        t0.elapsed().as_secs_f64() * 1e3 / snaps.len() as f64
    };
    rows.push(Row::timing("snapshot", time_snap(&fa_off), time_snap(&fa_on)));

    let ints =
        interval_queries(&fa_on, scale, defaults::K, defaults::POI_PERCENT, defaults::INTERVAL_LEN);
    let time_int = |fa: &FlowAnalytics| {
        let t0 = Instant::now();
        for q in &ints {
            std::hint::black_box(fa.interval_topk_join(q));
        }
        t0.elapsed().as_secs_f64() * 1e3 / ints.len() as f64
    };
    rows.push(Row::timing("interval-20min", time_int(&fa_off), time_int(&fa_on)));

    Series {
        experiment: "abl-topo".into(),
        x_label: "query type (iterative_ms column = topology OFF, join_ms = ON)".into(),
        rows,
    }
}

/// Ablation: the §4.3.2 small-MBR improvement on the interval join
/// (`iterative_ms` column = single large MBR, `join_ms` = per-segment).
pub fn abl_mbr(scale: &Scale) -> Series {
    use inflow_core::JoinConfig;
    let mk = |seg: bool| {
        let w = generate_synthetic(&base_synthetic(scale));
        let cfg = UrConfig {
            vmax: w.vmax,
            topology_check: true,
            resolution: scale.resolution,
            ..UrConfig::default()
        };
        FlowAnalytics::new(w.ctx.clone(), w.ott, cfg)
            .with_join_config(JoinConfig { use_segment_mbrs: seg })
    };
    let fa_seg = mk(true);
    let fa_big = mk(false);
    let rows = defaults::INTERVAL_SWEEP_MIN[..3]
        .iter()
        .map(|&mins| {
            let len = (mins * 60) as f64;
            let qs = interval_queries(&fa_seg, scale, defaults::K, defaults::POI_PERCENT, len);
            let time = |fa: &FlowAnalytics| {
                let t0 = Instant::now();
                for q in &qs {
                    std::hint::black_box(fa.interval_topk_join(q));
                }
                t0.elapsed().as_secs_f64() * 1e3 / qs.len() as f64
            };
            Row::timing(format!("{mins}min"), time(&fa_big), time(&fa_seg))
        })
        .collect();
    Series {
        experiment: "abl-mbr".into(),
        x_label: "t_e − t_s (iterative_ms column = large MBR, join_ms = small MBRs)".into(),
        rows,
    }
}

/// Ablation: the paper's coarse snapshot-MBR estimation (Algorithm 2,
/// line 8 merges the two extended device MBRs) vs the tighter
/// intersection. Column semantics: `iterative_ms` = paper merge (union),
/// `join_ms` = tight intersection; both run the snapshot join.
pub fn abl_snapmbr(scale: &Scale) -> Series {
    let mk = |paper: bool| {
        let w = generate_synthetic(&base_synthetic(scale));
        let cfg = UrConfig {
            vmax: w.vmax,
            topology_check: true,
            resolution: scale.resolution,
            paper_coarse_mbr: paper,
        };
        FlowAnalytics::new(w.ctx.clone(), w.ott, cfg)
    };
    let fa_paper = mk(true);
    let fa_tight = mk(false);
    let rows = [1usize, 10, 50]
        .iter()
        .map(|&k| {
            let qs = snapshot_queries(&fa_paper, scale, k, defaults::POI_PERCENT);
            let time = |fa: &FlowAnalytics| {
                let t0 = Instant::now();
                for q in &qs {
                    std::hint::black_box(fa.snapshot_topk_join(q));
                }
                t0.elapsed().as_secs_f64() * 1e3 / qs.len() as f64
            };
            Row::timing(format!("k={k}"), time(&fa_paper), time(&fa_tight))
        })
        .collect();
    Series {
        experiment: "abl-snapmbr".into(),
        x_label: "k (iterative_ms column = paper merge MBR, join_ms = tight MBR)".into(),
        rows,
    }
}

/// Ablation: presence-integration resolution vs accuracy and cost.
/// `iterative_ms` column = mean relative error vs the FINE reference
/// (×1e-3), `join_ms` = mean presence time in microseconds.
pub fn abl_grid(scale: &Scale) -> Series {
    use inflow_geometry::Region;
    let w = generate_synthetic(&SyntheticConfig { num_objects: 40, ..base_synthetic(scale) });
    let engine_for = |res: GridResolution| {
        inflow_uncertainty::UrEngine::new(
            w.ctx.clone(),
            UrConfig { vmax: w.vmax, topology_check: true, resolution: res, ..UrConfig::default() },
        )
    };
    let fine = engine_for(GridResolution::FINE);
    let (ts, te) = (scale.duration * 0.3, scale.duration * 0.3 + 600.0);

    // Reference presences on the FINE grid.
    let plan = w.ctx.plan();
    let mut cases = Vec::new();
    for o in 0..30u32 {
        if let Some(ur) = fine.interval_ur(&w.ott, inflow_tracking::ObjectId(o), ts, te) {
            if ur.is_empty() {
                continue;
            }
            for poi in plan.pois().iter().take(20) {
                if ur.mbr().intersects(&poi.mbr()) {
                    let reference = fine.presence(&ur, poi);
                    if reference > 1e-3 {
                        cases.push((o, poi.id, reference));
                    }
                }
            }
        }
    }

    let rows = [
        ("16x2", GridResolution::new(16, 2)),
        ("32x2", GridResolution::COARSE),
        ("64x4", GridResolution::DEFAULT),
        ("96x4", GridResolution::new(96, 4)),
    ]
    .iter()
    .map(|(label, res)| {
        let eng = engine_for(*res);
        let mut err_sum = 0.0;
        let mut time_sum = 0.0;
        let mut n = 0usize;
        for &(o, poi, reference) in &cases {
            let Some(ur) = eng.interval_ur(&w.ott, inflow_tracking::ObjectId(o), ts, te) else {
                continue;
            };
            let t0 = Instant::now();
            let p = eng.presence(&ur, plan.poi(poi));
            time_sum += t0.elapsed().as_secs_f64() * 1e6;
            err_sum += (p - reference).abs() / reference;
            n += 1;
        }
        Row::timing(label.to_string(), err_sum / n.max(1) as f64 * 1e3, time_sum / n.max(1) as f64)
    })
    .collect();
    Series {
        experiment: "abl-grid".into(),
        x_label: "resolution (iterative_ms column = rel. error ×1e-3, join_ms = µs/presence)"
            .into(),
        rows,
    }
}

/// Ablation: answer quality against simulated ground truth. Column
/// semantics: `iterative_ms` = precision@5, `join_ms` = precision@10 of
/// the estimated top-k vs the true visit-count ranking (1.0 = identical
/// membership).
pub fn abl_accuracy(scale: &Scale) -> Series {
    use inflow_workload::{ranking_overlap, true_interval_ranking, true_snapshot_ranking};
    let w = generate_synthetic(&base_synthetic(scale));
    let plan_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();
    let ctx = w.ctx.clone();
    let ground_truth = w.ground_truth.clone();
    let fa = analytics(w, scale);

    let mut rows = Vec::new();

    // Snapshot accuracy at the busy middle of the simulation.
    let t = scale.duration * 0.5;
    let est = fa
        .snapshot_topk_iterative(&SnapshotQuery::new(t, plan_pois.clone(), plan_pois.len()))
        .poi_ids();
    let truth: Vec<PoiId> =
        true_snapshot_ranking(ctx.plan(), &ground_truth, t).into_iter().map(|(p, _)| p).collect();
    rows.push(Row::timing(
        "snapshot",
        ranking_overlap(&est, &truth, 5),
        ranking_overlap(&est, &truth, 10),
    ));

    // Interval accuracy over the default window.
    let (ts, te) = (scale.duration * 0.3, scale.duration * 0.3 + defaults::INTERVAL_LEN);
    let est = fa
        .interval_topk_iterative(&IntervalQuery::new(ts, te, plan_pois.clone(), plan_pois.len()))
        .poi_ids();
    let truth: Vec<PoiId> = true_interval_ranking(ctx.plan(), &ground_truth, ts, te, 5.0)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    rows.push(Row::timing(
        "interval-20min",
        ranking_overlap(&est, &truth, 5),
        ranking_overlap(&est, &truth, 10),
    ));

    Series {
        experiment: "abl-accuracy".into(),
        x_label: "query type (iterative_ms column = precision@5, join_ms = precision@10)".into(),
        rows,
    }
}

/// Ablation: answer quality as input corruption rises. Each level of the
/// seeded corruption grid (clean → severe) is applied to the synthetic
/// rows, routed through the repair-all sanitization gate, and the interval
/// top-k ranking is scored against the ranking computed from *clean*
/// input — so the clean row reads 1.0 by construction and each severity
/// row reads directly as "how much of the clean answer survives the
/// corruption + repair round trip". (Scoring against simulated ground
/// truth instead would fold in the estimator-vs-truth gap that
/// `abl-accuracy` measures, saturating the columns on dense workloads.)
/// Column semantics: `iterative_ms` = precision@5, `join_ms` =
/// precision@10.
pub fn abl_noise(scale: &Scale) -> Series {
    use inflow_tracking::{sanitize_rows, ObjectTrackingTable, SanitizeConfig};
    use inflow_workload::{apply_corruption, corruption_grid, ranking_overlap, rows_of};
    let w = generate_synthetic(&base_synthetic(scale));
    let plan_pois: Vec<PoiId> = w.ctx.plan().pois().iter().map(|p| p.id).collect();
    let device_count = w.ctx.plan().devices().len() as u32;
    let base_rows = rows_of(&w.ott);
    let (ts, te) = (scale.duration * 0.3, scale.duration * 0.3 + defaults::INTERVAL_LEN);
    let gate = SanitizeConfig::repair_all().with_vmax(w.vmax);

    let ranking_for = |rows: Vec<inflow_tracking::OttRow>| -> Vec<PoiId> {
        let outcome = sanitize_rows(rows, &gate, Some(w.ctx.plan()));
        let ott = ObjectTrackingTable::from_rows(outcome.rows)
            .expect("sanitized rows satisfy OTT invariants");
        let cfg = UrConfig {
            vmax: w.vmax,
            topology_check: true,
            resolution: scale.resolution,
            ..UrConfig::default()
        };
        let fa = FlowAnalytics::new(w.ctx.clone(), ott, cfg)
            .with_sanitize_report(outcome.report, outcome.repaired_objects);
        let q = IntervalQuery::new(ts, te, plan_pois.clone(), plan_pois.len());
        fa.interval_topk_iterative(&q).poi_ids()
    };
    let clean = ranking_for(base_rows.clone());

    let rows = corruption_grid(0xC0FFEE)
        .iter()
        .map(|spec| {
            let est = ranking_for(apply_corruption(base_rows.clone(), spec, device_count));
            Row::timing(
                spec.label.clone(),
                ranking_overlap(&est, &clean, 5),
                ranking_overlap(&est, &clean, 10),
            )
        })
        .collect();
    Series {
        experiment: "abl-noise".into(),
        x_label: "corruption level (iterative_ms column = precision@5 vs clean, \
                  join_ms = precision@10 vs clean)"
            .into(),
        rows,
    }
}

/// Probabilistic count-distribution query cost vs the convolution
/// truncation bound `kmax` and the object count. Column semantics:
/// `iterative_ms` = snapshot-form distribution query (`DistribQuery::at`),
/// `join_ms` = interval-form (`DistribQuery::over`). The convolution is
/// O(n·kmax) on top of the shared presence work, so rows should grow
/// mildly with `kmax` and the At/Over gap should track the candidate
/// volume, not the bound.
pub fn abl_distrib(scale: &Scale) -> Series {
    let mut rows = Vec::new();
    for divisor in [2usize, 1] {
        let mut cfg = base_synthetic(scale);
        cfg.num_objects = (scale.objects / divisor).max(1);
        let n = cfg.num_objects;
        let fa = analytics(generate_synthetic(&cfg), scale);
        for kmax in [8usize, 32, 128] {
            let t = scale.duration * 0.45;
            let (ts, te) = (scale.duration * 0.25, scale.duration * 0.55);
            let at_ms = median(
                (0..scale.repeats.max(1))
                    .map(|i| {
                        let q = DistribQuery::at(t, poi_subset(&fa, 60, i), 2, kmax, defaults::K);
                        let t0 = Instant::now();
                        std::hint::black_box(fa.distrib_topk(&q));
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect(),
            );
            let over_ms = median(
                (0..scale.repeats.max(1))
                    .map(|i| {
                        let q = DistribQuery::over(
                            ts,
                            te,
                            poi_subset(&fa, 60, i),
                            2,
                            kmax,
                            defaults::K,
                        );
                        let t0 = Instant::now();
                        std::hint::black_box(fa.distrib_topk(&q));
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect(),
            );
            rows.push(Row::timing(format!("{n} objects kmax={kmax}"), at_ms, over_ms));
        }
    }
    Series {
        experiment: "abl-distrib".into(),
        x_label: "objects × kmax (iterative_ms = At-form distrib, join_ms = Over-form)".into(),
        rows,
    }
}

/// One sustained-ingest run against an in-process
/// [`inflow_service::Server`]: one ε = 0 snapshot subscription, the
/// whole endpoint-expanded reading stream published over TCP. `trace`
/// toggles pipeline tracing + flight recording — the knob `BENCH_6`
/// compares. Returns (sustained readings/sec, notify p99 ms).
pub fn serve_run(scale: &Scale, num_objects: usize, trace: bool) -> (f64, f64) {
    serve_run_tiered(scale, num_objects, trace, true)
}

/// [`serve_run_spec`] with the benchmark-default snapshot subscription.
fn serve_run_tiered(scale: &Scale, num_objects: usize, trace: bool, tier: bool) -> (f64, f64) {
    serve_run_spec(scale, num_objects, trace, tier, |duration| inflow_service::SubKind::Snapshot {
        t: duration / 2.0,
    })
}

/// The sustained-ingest run with the subscription kind pluggable —
/// `tier` keeps/disables the segment tier (the knob `BENCH_8` compares),
/// `make_kind` picks what the one ε = 0 subscription computes per delta
/// (the knob `BENCH_9` compares across answer families).
fn serve_run_spec(
    scale: &Scale,
    num_objects: usize,
    trace: bool,
    tier: bool,
    make_kind: impl Fn(f64) -> inflow_service::SubKind,
) -> (f64, f64) {
    use inflow_service::{Client, ServeConfig, Server, SubSpec};
    use inflow_tracking::RawReading;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static RUN: AtomicUsize = AtomicUsize::new(0);
    let mut cfg = base_synthetic(scale);
    cfg.num_objects = num_objects.max(1);
    let w = generate_synthetic(&cfg);
    // The same endpoint-expanded stream `inflow ingest` consumes.
    let mut readings: Vec<RawReading> = Vec::with_capacity(w.ott.len() * 2);
    for r in w.ott.records() {
        readings.push(RawReading { object: r.object, device: r.device, t: r.ts });
        if r.te > r.ts {
            readings.push(RawReading { object: r.object, device: r.device, t: r.te });
        }
    }
    readings.sort_by(|a, b| a.t.total_cmp(&b.t).then_with(|| a.object.cmp(&b.object)));

    let dir = std::env::temp_dir().join(format!(
        "inflow-bench-serve-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let defaults = ServeConfig::new(dir.clone());
    let serve_cfg = ServeConfig {
        shards: 4,
        trace,
        compact_every: if tier { defaults.compact_every } else { None },
        scrub_every: if tier { defaults.scrub_every } else { None },
        ur: UrConfig { vmax: w.vmax, resolution: scale.resolution, ..UrConfig::default() },
        ..defaults
    };
    let handle = Server::start(w.ctx.clone(), serve_cfg).expect("bench server start");
    let mut client = Client::connect(handle.addr()).expect("bench client connect");
    let spec = SubSpec { kind: make_kind(cfg.duration), k: 10, epsilon: 0.0, pois: Vec::new() };
    client.subscribe(&spec).expect("bench subscribe");
    client.barrier().expect("bench barrier");

    let t0 = Instant::now();
    for batch in readings.chunks(256) {
        client.publish(batch).expect("bench publish");
    }
    client.barrier().expect("bench drain barrier");
    let elapsed = t0.elapsed().as_secs_f64();
    let throughput = readings.len() as f64 / elapsed.max(1e-9);
    let notify_p99_ms = handle.metrics().notify_p99_ns() as f64 / 1e6;

    client.shutdown_server().expect("bench shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
    (throughput, notify_p99_ms)
}

/// Sustained server throughput and tail notification latency vs object
/// count (tracing on, the server default). The `iterative_ms` column
/// carries sustained readings/sec; `join_ms` carries the p99
/// notification latency in milliseconds.
pub fn abl_serve(scale: &Scale) -> Series {
    let mut rows = Vec::new();
    for divisor in [4usize, 2, 1] {
        let n = (scale.objects / divisor).max(1);
        let (throughput, notify_p99_ms) = serve_run(scale, n, true);
        rows.push(Row::timing(format!("{n} objects"), throughput, notify_p99_ms));
    }
    Series {
        experiment: "abl-serve".into(),
        x_label: "dataset size (iterative_ms = readings/sec, join_ms = notify p99 ms)".into(),
        rows,
    }
}

/// The PR 6 observability-overhead benchmark: ingest throughput and
/// notify p99 with tracing + flight recording off (`baseline`) vs on
/// (`traced`), as the JSON document CI writes to `BENCH_6.json`. Each
/// side takes the best of `scale.repeats` runs — the overhead question
/// is about the mechanism's cost, not scheduler noise, and max-of-N is
/// the standard noise filter for throughput.
pub fn bench6_json(scale: &Scale) -> String {
    let repeats = scale.repeats.max(1);
    let run_best = |trace: bool| -> (f64, f64) {
        let mut best = (0.0f64, 0.0f64);
        for _ in 0..repeats {
            let (rps, p99) = serve_run(scale, scale.objects, trace);
            if rps > best.0 {
                best = (rps, p99);
            }
        }
        best
    };
    let (base_rps, base_p99) = run_best(false);
    let (traced_rps, traced_p99) = run_best(true);
    let regression_pct =
        if base_rps > 0.0 { ((base_rps - traced_rps) / base_rps * 100.0).max(0.0) } else { 0.0 };
    format!(
        "{{\"bench\":6,\"experiment\":\"abl-serve-tracing-overhead\",\"objects\":{},\"repeats\":{},\
         \"baseline\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3}}},\
         \"traced\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3}}},\
         \"ingest_regression_pct\":{:.2}}}",
        scale.objects, repeats, base_rps, base_p99, traced_rps, traced_p99, regression_pct
    )
}

/// One sustained-ingest run for the recorder-overhead comparison. Both
/// sides run the same workload, chunking and barrier cadence; the
/// `recorded` side additionally routes every op through the replay
/// recorder ([`inflow_replay::record_run`]) — per-barrier state-hash
/// RPCs, op logging and all. Returns (readings/sec, notify p99 ms).
fn record_overhead_run(scale: &Scale, recorded: bool) -> (f64, f64) {
    use inflow_replay::{record_run, FaultPlan, RecordOptions};
    use inflow_service::{Client, ServeConfig, Server, SubKind, SubSpec};
    use inflow_tracking::RawReading;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const CHUNK: usize = 256;
    const BARRIER_EVERY: usize = 8;

    static RUN: AtomicUsize = AtomicUsize::new(0);
    let mut cfg = base_synthetic(scale);
    cfg.num_objects = scale.objects.max(1);
    let w = generate_synthetic(&cfg);
    let mut readings: Vec<RawReading> = Vec::with_capacity(w.ott.len() * 2);
    for r in w.ott.records() {
        readings.push(RawReading { object: r.object, device: r.device, t: r.ts });
        if r.te > r.ts {
            readings.push(RawReading { object: r.object, device: r.device, t: r.te });
        }
    }
    readings.sort_by(|a, b| a.t.total_cmp(&b.t).then_with(|| a.object.cmp(&b.object)));

    let dir = std::env::temp_dir().join(format!(
        "inflow-bench-record-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let serve_cfg = ServeConfig {
        shards: 4,
        ur: UrConfig { vmax: w.vmax, resolution: scale.resolution, ..UrConfig::default() },
        ..ServeConfig::new(dir.clone())
    };
    let handle = Server::start(w.ctx.clone(), serve_cfg).expect("bench server start");
    let spec = SubSpec {
        kind: SubKind::Snapshot { t: cfg.duration / 2.0 },
        k: 10,
        epsilon: 0.0,
        pois: Vec::new(),
    };

    let t0 = Instant::now();
    if recorded {
        let opts = RecordOptions {
            chunk: CHUNK,
            barrier_every: BARRIER_EVERY,
            subs: vec![spec],
            plan: FaultPlan::default(),
        };
        let log = record_run(&handle, dir.clone(), &readings, &opts).expect("bench record");
        std::hint::black_box(log.to_bytes().len());
    } else {
        let mut client = Client::connect(handle.addr()).expect("bench client connect");
        client.subscribe(&spec).expect("bench subscribe");
        let mut publishes = 0usize;
        for batch in readings.chunks(CHUNK) {
            client.publish(batch).expect("bench publish");
            publishes += 1;
            if publishes.is_multiple_of(BARRIER_EVERY) {
                client.barrier().expect("bench barrier");
            }
        }
        client.barrier().expect("bench drain barrier");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let throughput = readings.len() as f64 / elapsed.max(1e-9);
    let notify_p99_ms = handle.metrics().notify_p99_ns() as f64 / 1e6;

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
    (throughput, notify_p99_ms)
}

/// The PR 7 recorder-overhead benchmark: sustained ingest throughput
/// and notify p99 with the replay recorder off (`baseline`) vs on
/// (`recorded`), as the JSON document CI writes to `BENCH_7.json`.
/// Best-of-`scale.repeats` per side, like [`bench6_json`]. The
/// acceptance bar is < 5% ingest-throughput regression while recording.
pub fn bench7_json(scale: &Scale) -> String {
    let repeats = scale.repeats.max(1);
    let run_best = |recorded: bool| -> (f64, f64) {
        let mut best = (0.0f64, 0.0f64);
        for _ in 0..repeats {
            let (rps, p99) = record_overhead_run(scale, recorded);
            if rps > best.0 {
                best = (rps, p99);
            }
        }
        best
    };
    let (base_rps, base_p99) = run_best(false);
    let (rec_rps, rec_p99) = run_best(true);
    let regression_pct =
        if base_rps > 0.0 { ((base_rps - rec_rps) / base_rps * 100.0).max(0.0) } else { 0.0 };
    format!(
        "{{\"bench\":7,\"experiment\":\"replay-recorder-overhead\",\"objects\":{},\"repeats\":{},\
         \"baseline\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3}}},\
         \"recorded\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3}}},\
         \"ingest_regression_pct\":{:.2}}}",
        scale.objects, repeats, base_rps, base_p99, rec_rps, rec_p99, regression_pct
    )
}

/// One direct store-ingest run for the segment-tier comparison: open a
/// fresh [`inflow_tracking::IngestStore`] under `opts` in a temp dir,
/// ingest the endpoint-expanded reading stream, snapshot, drop — then
/// time a cold reopen of the same directory. Returns
/// (readings/sec, coldstart reopen ms).
fn tier_ingest_run(
    readings: &[inflow_tracking::RawReading],
    opts: inflow_tracking::StoreOptions,
) -> (f64, f64) {
    use inflow_tracking::{IngestStore, OnlineTracker, StdFs};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const MAX_GAP: f64 = 60.0;
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "inflow-bench-tier-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    let t0 = Instant::now();
    let (mut store, _) = IngestStore::open(StdFs, &dir, OnlineTracker::new(MAX_GAP), opts)
        .expect("bench store open");
    for r in readings {
        store.ingest(*r).expect("bench ingest");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    store.snapshot().expect("bench snapshot");
    drop(store);
    let throughput = readings.len() as f64 / elapsed.max(1e-9);

    // Cold start = reopen to ingest-ready, the shard-restart path:
    // restore the snapshot's tracker state, replay the WAL tail and
    // reconcile the manifest.
    let t1 = Instant::now();
    let (reopened, report) = IngestStore::open(StdFs, &dir, OnlineTracker::new(MAX_GAP), opts)
        .expect("bench store reopen");
    std::hint::black_box((report.segments, reopened.seq()));
    let coldstart_ms = t1.elapsed().as_secs_f64() * 1e3;

    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    (throughput, coldstart_ms)
}

/// The PR 8 segment-tier benchmark: direct store ingest throughput and
/// cold-start reopen time with the tier off (`baseline`: WAL + snapshot
/// reload, the PR 3 path) vs on (`tiered`: background compaction into
/// immutable segments plus the budgeted scrubber), as the JSON document
/// CI writes to `BENCH_8.json`. Throughput is best-of-`scale.repeats`,
/// cold start is the fastest reopen over `scale.repeats` store builds.
/// The acceptance bars are < 5% ingest regression with the tier on and
/// a tiered cold start at least as fast as the snapshot-reload baseline
/// (ratio ≤ 1.0, with headroom for timer noise).
///
/// Ingest is measured at the serving layer — the same sustained-publish
/// harness as `BENCH_6`/`BENCH_7`, with the server's default compaction
/// and scrub cadence against both turned off — because that is the
/// configuration the tier actually ships in. Cold start is measured at
/// the store layer, where the reopen paths differ: snapshot + full WAL
/// tail (baseline) vs manifest + segments + rebased tail (tiered).
pub fn bench8_json(scale: &Scale) -> String {
    use inflow_tracking::{RawReading, StoreOptions};

    // Best-of-2 minimum even at smoke scale: a single ~100 ms serve run
    // has enough timer noise to swamp a 5% gate.
    let repeats = scale.repeats.max(2);
    let serve_best = |tier: bool| -> (f64, f64) {
        let mut best = (0.0f64, 0.0f64);
        for _ in 0..repeats {
            let (rps, p99) = serve_run_tiered(scale, scale.objects, true, tier);
            if rps > best.0 {
                best = (rps, p99);
            }
        }
        best
    };
    let (base_rps, base_p99) = serve_best(false);
    let (tier_rps, tier_p99) = serve_best(true);
    let regression_pct =
        if base_rps > 0.0 { ((base_rps - tier_rps) / base_rps * 100.0).max(0.0) } else { 0.0 };

    // The cold-start comparison ingests the same endpoint-expanded
    // stream directly into the two store layouts and times the reopen.
    let mut cfg = base_synthetic(scale);
    cfg.num_objects = scale.objects.max(1);
    let w = generate_synthetic(&cfg);
    let mut readings: Vec<RawReading> = Vec::with_capacity(w.ott.len() * 2);
    for r in w.ott.records() {
        readings.push(RawReading { object: r.object, device: r.device, t: r.ts });
        if r.te > r.ts {
            readings.push(RawReading { object: r.object, device: r.device, t: r.te });
        }
    }
    readings.sort_by(|a, b| a.t.total_cmp(&b.t).then_with(|| a.object.cmp(&b.object)));
    let base_opts = StoreOptions {
        snapshot_every: Some(4096),
        sync_each_reading: false,
        ..StoreOptions::default()
    };
    // Same snapshot clock as the baseline: compaction itself never
    // snapshots (the manifest swap is its commit point), it only rebases
    // the WAL to the oldest snapshot the regular clock retained.
    let tier_opts = StoreOptions {
        compact_every: Some(4096),
        scrub_every: Some(4096),
        scrub_budget: 1,
        ..base_opts
    };
    let cold_best = |opts: StoreOptions| -> f64 {
        (0..repeats).map(|_| tier_ingest_run(&readings, opts).1).fold(f64::INFINITY, f64::min)
    };
    let base_cold = cold_best(base_opts);
    let tier_cold = cold_best(tier_opts);
    let coldstart_ratio = if base_cold > 0.0 { tier_cold / base_cold } else { 0.0 };

    format!(
        "{{\"bench\":8,\"experiment\":\"segment-tier-overhead\",\"objects\":{},\"repeats\":{},\
         \"readings\":{},\
         \"baseline\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3},\"coldstart_ms\":{:.3}}},\
         \"tiered\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3},\"coldstart_ms\":{:.3}}},\
         \"ingest_regression_pct\":{:.2},\"coldstart_ratio\":{:.3}}}",
        scale.objects,
        repeats,
        readings.len(),
        base_rps,
        base_p99,
        base_cold,
        tier_rps,
        tier_p99,
        tier_cold,
        regression_pct,
        coldstart_ratio
    )
}

/// The PR 9 distribution-subscription overhead benchmark: sustained
/// serving-ingest throughput with one ε = 0 subscription of each answer
/// family — the expected-flow snapshot baseline vs the probabilistic
/// count distribution (and, informationally, the long-visit count) —
/// as the JSON document CI writes to `BENCH_9.json`. The acceptance bar
/// is < 5% ingest regression for the distrib subscription: its per-delta
/// recompute is the same per-object snapshot flow the baseline runs, so
/// the only added work is the per-notification convolution at rank time.
/// Runs are paired: each round measures baseline, distrib, and
/// long-visit back-to-back, and the reported regression is the
/// *minimum* paired regression across `scale.repeats` rounds (min 3).
/// A minimum over pairs is the right noise filter for an overhead gate
/// on short runs — a load spike that slows one side of one round
/// cannot flip it, while genuinely inherent overhead shows up in every
/// round. Reported throughputs are each side's best across rounds.
pub fn bench9_json(scale: &Scale) -> String {
    use inflow_service::SubKind;
    let repeats = scale.repeats.max(3);
    let run = |make_kind: &dyn Fn(f64) -> SubKind| -> (f64, f64) {
        serve_run_spec(scale, scale.objects, true, true, make_kind)
    };
    let paired_regression = |base: f64, rps: f64| {
        if base > 0.0 {
            ((base - rps) / base * 100.0).max(0.0)
        } else {
            0.0
        }
    };
    let mut base_best = (0.0f64, 0.0f64);
    let mut dist_best = (0.0f64, 0.0f64);
    let mut lv_best = (0.0f64, 0.0f64);
    let mut dist_reg = f64::INFINITY;
    let mut lv_reg = f64::INFINITY;
    for _ in 0..repeats {
        let (b_rps, b_p99) = run(&|duration| SubKind::Snapshot { t: duration / 2.0 });
        let (d_rps, d_p99) =
            run(&|duration| SubKind::Distrib { t: duration / 2.0, kq: 2, kmax: 32 });
        let (l_rps, l_p99) =
            run(&|duration| SubKind::LongVisit { ts: 0.0, te: duration, d: duration / 8.0 });
        if b_rps > base_best.0 {
            base_best = (b_rps, b_p99);
        }
        if d_rps > dist_best.0 {
            dist_best = (d_rps, d_p99);
        }
        if l_rps > lv_best.0 {
            lv_best = (l_rps, l_p99);
        }
        dist_reg = dist_reg.min(paired_regression(b_rps, d_rps));
        lv_reg = lv_reg.min(paired_regression(b_rps, l_rps));
    }
    let (base_rps, base_p99) = base_best;
    let (dist_rps, dist_p99) = dist_best;
    let (lv_rps, lv_p99) = lv_best;
    format!(
        "{{\"bench\":9,\"experiment\":\"distrib-subscription-overhead\",\"objects\":{},\
         \"repeats\":{},\
         \"baseline\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3}}},\
         \"distrib\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3}}},\
         \"longvisit\":{{\"ingest_rps\":{:.1},\"notify_p99_ms\":{:.3}}},\
         \"ingest_regression_pct\":{:.2},\"longvisit_regression_pct\":{:.2}}}",
        scale.objects,
        repeats,
        base_rps,
        base_p99,
        dist_rps,
        dist_p99,
        lv_rps,
        lv_p99,
        dist_reg,
        lv_reg
    )
}

/// All experiment ids in suite order.
pub const ALL_EXPERIMENTS: [&str; 21] = [
    "f10a",
    "f10b",
    "f11a",
    "f11b",
    "f12a",
    "f12b",
    "f12c",
    "f12d",
    "f13a",
    "f13b",
    "f14a",
    "f14b",
    "f14c",
    "abl-topo",
    "abl-mbr",
    "abl-snapmbr",
    "abl-grid",
    "abl-accuracy",
    "abl-noise",
    "abl-serve",
    "abl-distrib",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, scale: &Scale) -> Option<Series> {
    Some(match id {
        "f10a" => f10a(scale),
        "f10b" => f10b(scale),
        "f11a" => f11a(scale),
        "f11b" => f11b(scale),
        "f12a" => f12a(scale),
        "f12b" => f12b(scale),
        "f12c" => f12c(scale),
        "f12d" => f12d(scale),
        "f13a" => f13a(scale),
        "f13b" => f13b(scale),
        "f14a" => f14a(scale),
        "f14b" => f14b(scale),
        "f14c" => f14c(scale),
        "abl-topo" => abl_topo(scale),
        "abl-mbr" => abl_mbr(scale),
        "abl-snapmbr" => abl_snapmbr(scale),
        "abl-grid" => abl_grid(scale),
        "abl-accuracy" => abl_accuracy(scale),
        "abl-noise" => abl_noise(scale),
        "abl-serve" => abl_serve(scale),
        "abl-distrib" => abl_distrib(scale),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poi_subset_is_deterministic_and_sized() {
        let scale = Scale::smoke();
        let fa = analytics(generate_synthetic(&base_synthetic(&scale)), &scale);
        let a = poi_subset(&fa, 60, 0);
        let b = poi_subset(&fa, 60, 0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let larger = poi_subset(&fa, 100, 0);
        assert!(larger.len() >= a.len());
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("nope", &Scale::smoke()).is_none());
    }

    #[test]
    fn smoke_run_abl_noise() {
        let s = run_experiment("abl-noise", &Scale::smoke()).unwrap();
        assert_eq!(s.rows.len(), 4, "one row per corruption level");
        assert_eq!(s.rows[0].x, "clean");
        // Scored against the clean-input ranking, so the clean row is
        // exact by construction.
        assert_eq!(s.rows[0].iterative_ms, 1.0);
        assert_eq!(s.rows[0].join_ms, 1.0);
        // Precisions are valid fractions. (Monotonicity in corruption is a
        // statistical property that only emerges at real scales, so the
        // smoke test checks well-formedness, not ordering.)
        for r in &s.rows {
            assert!((0.0..=1.0).contains(&r.iterative_ms), "{:?}", r);
            assert!((0.0..=1.0).contains(&r.join_ms), "{:?}", r);
        }
    }

    #[test]
    fn smoke_run_abl_serve() {
        let tiny = Scale { objects: 12, duration: 240.0, ..Scale::smoke() };
        let s = run_experiment("abl-serve", &tiny).unwrap();
        assert_eq!(s.rows.len(), 3, "one row per dataset size");
        for r in &s.rows {
            assert!(r.iterative_ms > 0.0, "throughput must be positive: {r:?}");
            assert!(r.join_ms >= 0.0, "{r:?}");
        }
    }

    #[test]
    fn smoke_run_f10a() {
        let s = run_experiment("f10a", &Scale::smoke()).unwrap();
        assert_eq!(s.rows.len(), defaults::K_SWEEP.len());
        assert!(s.rows.iter().all(|r| r.iterative_ms >= 0.0 && r.join_ms >= 0.0));
    }
}
