//! The benchmark's own checks, at a scale small enough for `cargo test`:
//! same-seed runs do identical batch work, and a run reports exactly the
//! metrics `BENCHMARK.json` declares, with every answer check passing.
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use inflow_core::FlowAnalytics;
use inflow_obs::Json;
use inflow_perfbench::batch::{fingerprint, QuerySet};
use inflow_perfbench::data::{self, Source, Spec, Subs};
use inflow_perfbench::run;
use std::path::PathBuf;
use std::sync::Arc;

/// A workload on a small building, so a run takes seconds.
fn tiny(subs: Subs) -> Spec {
    let small = Source { objects: 6, duration: 600.0 };
    Spec { name: "tiny", batch: small, stream: small, subs }
}

fn analytics() -> (FlowAnalytics, f64) {
    let d = Source { objects: 8, duration: 600.0 }.generate();
    let w = d.workload;
    let cfg = data::ur_config(&w);
    (FlowAnalytics::new(Arc::clone(&w.ctx), w.ott, cfg), d.duration)
}

#[test]
fn same_seed_runs_do_identical_batch_work() {
    let counts = |seed| {
        let (fa, duration) = analytics();
        let qs = QuerySet::new(&fa, duration, seed);
        fingerprint(&fa, &qs)
    };
    let first = counts(11);
    assert_eq!(first, counts(11));
    assert!(first.probes > 0 && first.presence_evals > 0 && first.urs > 0);
    assert_ne!(first, counts(12), "the seed must change the inputs");
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect()
}

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn runs_report_the_declared_metrics_and_pass_their_checks() {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        for spec in [tiny(Subs::AllKinds), tiny(Subs::None)] {
            let dir = work_dir(&format!("run-{trace}-{:?}", spec.subs));
            std::fs::create_dir_all(&dir).unwrap();
            let out = run(&spec, 3, 0.0, trace, &dir).expect("run");
            let _ = std::fs::remove_dir_all(&dir);
            let names: Vec<&str> = out.metrics.names().collect();
            assert_eq!(names.len(), declared(key).len(), "{key}: {names:?}");
            for name in declared(key) {
                assert!(names.contains(&name.as_str()), "{key}: {name} missing");
            }
            assert!(out.tally.attempted > 0);
            assert_eq!(out.tally.failed, 0, "answer checks failed");
        }
    }
}

#[test]
fn workload_names_are_unique() {
    let names: Vec<&str> = data::WORKLOADS.iter().map(|w| w.name).collect();
    for (i, n) in names.iter().enumerate() {
        assert!(!names[i + 1..].contains(n), "duplicate workload {n}");
    }
    assert_eq!(declared("workloads"), names);
}
