//! The inflow benchmark: workloads run one per process that separate the
//! presence kernel and join (`batch-synthetic`) from the ingest path
//! (`serve-ingest`); traced runs add per-layer costs, engine recompute
//! included.
//!
//! Every workload streams its reading stream through an in-process
//! server in a closed loop (the serve phase), then runs the six query
//! families over the generated building (the batch phase). What differs
//! is the stream, the subscriptions and where the time goes; see
//! `README.md` next to this crate. An untraced run prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer metrics instead.

pub mod batch;
pub mod data;
pub mod serve;
pub mod spans;
pub mod stats;

use data::Spec;
use inflow_core::FlowAnalytics;
use inflow_tracking::ArTree;
use spans::Spans;
use stats::{median, Metrics, Tally};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The outcome of one run: its metrics, the answer-check tally and the
/// spans it recorded.
pub struct RunOutput {
    pub metrics: Metrics,
    pub tally: Tally,
    pub spans: Spans,
}

/// Runs one workload for about `seconds` of measurement. Store
/// directories go under `work_dir`. `Err` when no serve episode
/// completed, so no metric can be reported.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: &Path,
) -> Result<RunOutput, String> {
    let mut spans = Spans::new(trace);
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let started = Instant::now();
    // The batch index comes first, so its memory layout does not depend
    // on what the episodes allocated before it.
    let w = spec.batch.generate().workload;
    let cfg = data::ur_config(&w);
    let mut fa = FlowAnalytics::new(Arc::clone(&w.ctx), w.ott, cfg);
    let qs = batch::QuerySet::new(&fa, spec.batch.duration, seed);
    // An untraced run splits its episodes around the batch phase, so its
    // serve metrics sample two spells of the host 30 s or more apart; a
    // traced run takes its counts from one episode and spends its
    // remaining serve time on the tracing-overhead pairs.
    let mut episodes = serve::episodes(spec, seed, 1, work_dir, &mut spans, &mut tally);
    let Some(readings) = episodes.first().map(|e| e.readings) else {
        return Err(format!("{}: no serve episode completed", spec.name));
    };
    let total = if trace { 1 } else { data::episodes(readings) };
    for _ in 1..total / 2 {
        serve::add_episode(&mut episodes, spec, seed, work_dir, &mut spans, &mut tally);
    }

    let mut m = Metrics::default();
    if !trace {
        // The second half of the episodes gets the time it took the
        // first half.
        let left = budget.saturating_sub(started.elapsed() * 2);
        let queries = batch::end_to_end(&fa, &qs, left, &mut tally);
        for _ in total / 2..total {
            serve::add_episode(&mut episodes, spec, seed, work_dir, &mut spans, &mut tally);
        }
        m.set("setup_s", serve::setup_s(&episodes), "s");
        m.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        m.extend(&queries);
        m.extend(&serve::end_to_end(&episodes));
        return Ok(RunOutput { metrics: m, tally, spans });
    }

    m.set("workload.generate_ms", serve::generate_ms(&episodes), "ms");
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            spans
                .time("tracking.artree_build", 0, || std::hint::black_box(ArTree::build(fa.ott())));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.set("tracking.artree_build_ms", median(&builds), "ms");
    let readings = &episodes.last().expect("one episode").data.readings;
    m.extend(&serve::write_path_layers(readings, work_dir, &mut spans));
    m.extend(&serve::layers(&episodes));
    let probe = data::RECOMPUTE_PROBE;
    let probes =
        serve::episodes(&probe, seed, data::PROBE_EPISODES, work_dir, &mut spans, &mut tally);
    if probes.is_empty() {
        for (name, unit) in serve::RECOMPUTE_LAYERS {
            m.set(name, 0.0, unit);
        }
    } else {
        m.extend(&serve::recompute_layers(&probe, &probes, &mut spans));
    }
    m.set(
        "obs.trace_overhead_pct",
        serve::trace_overhead(spec, seed, work_dir, budget.mul_f64(0.3), &mut tally),
        "%",
    );
    let left = budget.saturating_sub(started.elapsed());
    m.extend(&batch::layers(&mut fa, &qs, left, &mut spans, &mut tally));
    Ok(RunOutput { metrics: m, tally, spans })
}
