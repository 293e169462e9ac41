//! End-to-end tests of the `inflow` CLI (via the library entry point, so
//! no subprocess management is needed).

use inflow::cli::run_str;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("inflow-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a small dataset and returns (plan path, ott path, dir).
fn generate(name: &str) -> (String, String, std::path::PathBuf) {
    let dir = temp_dir(name);
    let out = run_str(&[
        "generate",
        "synthetic",
        "--out-dir",
        dir.to_str().unwrap(),
        "--objects",
        "25",
        "--duration",
        "300",
    ])
    .expect("generate succeeds");
    assert!(out.contains("generated synthetic dataset"));
    (
        dir.join("plan.txt").to_str().unwrap().to_string(),
        dir.join("ott.csv").to_str().unwrap().to_string(),
        dir,
    )
}

#[test]
fn generate_then_query_round_trip() {
    let (plan, ott, dir) = generate("roundtrip");
    assert!(std::path::Path::new(&plan).exists());
    assert!(std::path::Path::new(&ott).exists());

    let snap = run_str(&["snapshot", "--plan", &plan, "--ott", &ott, "--t", "150", "--k", "3"])
        .expect("snapshot succeeds");
    assert!(snap.contains("top-3 POIs at t = 150"), "{snap}");
    assert!(snap.lines().count() >= 5, "{snap}");

    // Iterative and join agree on the ranking printed.
    let snap_it = run_str(&[
        "snapshot",
        "--plan",
        &plan,
        "--ott",
        &ott,
        "--t",
        "150",
        "--k",
        "3",
        "--iterative",
    ])
    .unwrap();
    let names = |s: &str| -> Vec<String> {
        s.lines()
            .skip(2)
            .take(3)
            .map(|l| l.split_whitespace().nth(1).unwrap().to_string())
            .collect()
    };
    assert_eq!(names(&snap), names(&snap_it));

    let interval = run_str(&[
        "interval", "--plan", &plan, "--ott", &ott, "--ts", "50", "--te", "150", "--k", "3",
    ])
    .expect("interval succeeds");
    assert!(interval.contains("top-3 POIs over [50, 150]"), "{interval}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn timeline_and_density_commands() {
    let (plan, ott, dir) = generate("timeline");
    let tl = run_str(&[
        "timeline", "--plan", &plan, "--ott", &ott, "--start", "0", "--end", "300", "--bucket",
        "150", "--k", "2",
    ])
    .expect("timeline succeeds");
    assert!(tl.contains("#0:") && tl.contains("#1:"), "{tl}");

    let density =
        run_str(&["density", "--plan", &plan, "--ott", &ott, "--t", "150"]).expect("density");
    assert!(density.contains("expected objects"), "{density}");
    // Expected mass ≈ tracked objects at t (≤ 25).
    let total: f64 = density
        .lines()
        .next()
        .unwrap()
        .split("total expected ")
        .nth(1)
        .unwrap()
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(total <= 25.5, "density total {total}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn profile_switches_emit_span_trees_and_json() {
    let (plan, ott, dir) = generate("profile");

    // Plain run carries no profile section.
    let bare = run_str(&["snapshot", "--plan", &plan, "--ott", &ott, "--t", "150"]).unwrap();
    assert!(!bare.contains("counters"), "{bare}");

    // --profile appends the phase tree and counter table to the ranking.
    let prof = run_str(&["snapshot", "--plan", &plan, "--ott", &ott, "--t", "150", "--profile"])
        .expect("profiled snapshot succeeds");
    assert!(prof.contains("top-10 POIs at t = 150"), "{prof}");
    assert!(prof.contains("snapshot_join"), "{prof}");
    assert!(prof.contains("candidate_retrieval"), "{prof}");
    assert!(prof.contains("presence_evaluations"), "{prof}");

    // --iterative flavours the span names.
    let prof_it = run_str(&[
        "snapshot",
        "--plan",
        &plan,
        "--ott",
        &ott,
        "--t",
        "150",
        "--profile",
        "--iterative",
    ])
    .unwrap();
    assert!(prof_it.contains("snapshot_iterative"), "{prof_it}");

    // --profile-json replaces the human output with one JSON document.
    let json = run_str(&[
        "interval",
        "--plan",
        &plan,
        "--ott",
        &ott,
        "--ts",
        "50",
        "--te",
        "150",
        "--profile-json",
    ])
    .expect("profiled interval succeeds");
    let trimmed = json.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{json}");
    assert!(trimmed.contains("\"spans\""), "{json}");
    assert!(trimmed.contains("\"counters\""), "{json}");
    assert!(!trimmed.contains("top-"), "{json}");

    // Timeline profiles group each bucket under the timeline root.
    let tl = run_str(&[
        "timeline",
        "--plan",
        &plan,
        "--ott",
        &ott,
        "--start",
        "0",
        "--end",
        "300",
        "--bucket",
        "150",
        "--profile",
    ])
    .unwrap();
    assert!(tl.contains("timeline") && tl.contains("bucket"), "{tl}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn render_writes_svg() {
    let (plan, ott, dir) = generate("render");
    let svg_path = dir.join("plan.svg");
    let out = run_str(&["render", "--plan", &plan, "--out", svg_path.to_str().unwrap()])
        .expect("render succeeds");
    assert!(out.contains("wrote"), "{out}");
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));

    // Overlay variant needs all three overlay flags.
    let err =
        run_str(&["render", "--plan", &plan, "--ott", &ott, "--out", svg_path.to_str().unwrap()])
            .unwrap_err();
    assert!(err.0.contains("overlay"), "{err}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sanitize_gates_dirty_data_into_degraded_answers() {
    let (plan, _ott, dir) = generate("sanitize");
    // Hand-built dirty OTT: overlapping runs, reversed endpoints, and a
    // reading from a device the plan does not define.
    let dirty = dir.join("dirty.csv");
    std::fs::write(
        &dirty,
        "object,device,ts,te\n\
         0,0,0.0,10.0\n\
         0,0,5.0,15.0\n\
         1,0,20.0,18.0\n\
         2,60000,0.0,1.0\n",
    )
    .unwrap();
    let dirty = dirty.to_str().unwrap().to_string();

    // The strict loader refuses the table outright.
    let err = run_str(&["snapshot", "--plan", &plan, "--ott", &dirty, "--t", "5"]).unwrap_err();
    assert!(err.0.contains("inconsistent OTT"), "{err}");

    // --sanitize repairs what it can and answers in degraded mode.
    let snap = run_str(&["snapshot", "--plan", &plan, "--ott", &dirty, "--t", "5", "--sanitize"])
        .expect("sanitized snapshot succeeds");
    assert!(snap.contains("quality:"), "{snap}");
    assert!(snap.contains("sanitized input"), "{snap}");

    // The standalone gate reports anomalies and writes a clean table.
    let clean = dir.join("clean.csv");
    let report =
        run_str(&["sanitize", "--plan", &plan, "--ott", &dirty, "--out", clean.to_str().unwrap()])
            .expect("sanitize command succeeds");
    assert!(report.contains("sanitize:"), "{report}");
    assert!(report.contains("anomalies"), "{report}");
    let clean = clean.to_str().unwrap().to_string();
    let snap2 = run_str(&["snapshot", "--plan", &plan, "--ott", &clean, "--t", "5"])
        .expect("cleaned table loads strictly");
    assert!(snap2.contains("quality:"), "{snap2}");

    // Unknown policies are refused.
    let e =
        run_str(&["sanitize", "--plan", &plan, "--ott", &dirty, "--policy", "wish"]).unwrap_err();
    assert!(e.0.contains("unknown policy"), "{e}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn quarantine_then_readmit_round_trip() {
    let (plan, _ott, dir) = generate("readmit");
    // An overlapping second run: under --policy quarantine it is set
    // aside, and a later readmit pass under the repair policy clamps it
    // back into the table.
    let dirty = dir.join("dirty.csv");
    std::fs::write(&dirty, "object,device,ts,te\n1,0,0.0,10.0\n1,1,5.0,12.0\n").unwrap();
    let dirty = dirty.to_str().unwrap().to_string();
    let clean = dir.join("clean.csv").to_str().unwrap().to_string();
    let quarantine = dir.join("quarantine.csv").to_str().unwrap().to_string();

    let report = run_str(&[
        "sanitize",
        "--plan",
        &plan,
        "--ott",
        &dirty,
        "--policy",
        "quarantine",
        "--out",
        &clean,
        "--quarantine-out",
        &quarantine,
    ])
    .expect("sanitize succeeds");
    assert!(report.contains("quarantined"), "{report}");
    assert!(report.contains("quarantined rows"), "{report}");
    let qtext = std::fs::read_to_string(&quarantine).unwrap();
    assert!(qtext.contains("overlapping_run"), "{qtext}");

    let restored = dir.join("restored.csv").to_str().unwrap().to_string();
    let out = run_str(&[
        "readmit",
        "--plan",
        &plan,
        "--ott",
        &clean,
        "--quarantine",
        &quarantine,
        "--policy",
        "repair",
        "--out",
        &restored,
    ])
    .expect("readmit succeeds");
    assert!(out.contains("readmitted 1 of 1"), "{out}");
    let rows = std::fs::read_to_string(&restored).unwrap();
    assert_eq!(rows.lines().count(), 3, "{rows}"); // header + both rows
    assert!(rows.contains("1,1,10,12"), "{rows}"); // clamped to the prior run's end

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ingest_recover_and_resume_round_trip() {
    let (_plan, _ott, dir) = generate("ingest");
    let readings = dir.join("readings.csv").to_str().unwrap().to_string();
    let store = dir.join("store").to_str().unwrap().to_string();

    // First run creates the store and drains the whole stream.
    let out = run_str(&[
        "ingest",
        "--store",
        &store,
        "--readings",
        &readings,
        "--snapshot-every",
        "64",
        "--no-sync",
    ])
    .expect("ingest succeeds");
    assert!(out.contains("created fresh store"), "{out}");
    assert!(out.contains("(0 already durable"), "{out}");
    assert!(out.contains("OTT:"), "{out}");

    // A rerun over the same file is a no-op: everything is already durable.
    let again =
        run_str(&["ingest", "--store", &store, "--readings", &readings]).expect("rerun succeeds");
    assert!(again.contains("ingested 0 readings"), "{again}");
    assert!(!again.contains("created fresh store"), "{again}");

    // Tear the WAL tail; recover truncates to the valid prefix and the
    // profile carries the recovery counters.
    let wal = dir.join("store").join("wal.bin");
    let mut bytes = std::fs::read(&wal).unwrap();
    let torn = bytes.len() - 7;
    bytes.truncate(torn);
    std::fs::write(&wal, &bytes).unwrap();
    let recovered_csv = dir.join("recovered.csv").to_str().unwrap().to_string();
    let rec = run_str(&["recover", "--store", &store, "--out", &recovered_csv, "--profile"])
        .expect("recover succeeds");
    assert!(rec.contains("recovered state:"), "{rec}");
    assert!(rec.contains("wrote"), "{rec}");
    assert!(std::path::Path::new(&recovered_csv).exists());

    // Resuming ingestion re-appends exactly what the tear destroyed.
    let resumed =
        run_str(&["ingest", "--store", &store, "--readings", &readings]).expect("resume succeeds");
    assert!(resumed.contains("OTT:"), "{resumed}");
    let final_state = run_str(&["recover", "--store", &store]).expect("final recover succeeds");
    assert!(final_state.contains("recovered state:"), "{final_state}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn helpful_errors() {
    assert!(run_str(&[]).unwrap().contains("commands:"));
    assert!(run_str(&["help"]).unwrap().contains("commands:"));
    let e = run_str(&["frobnicate"]).unwrap_err();
    assert!(e.0.contains("unknown command"), "{e}");
    let e = run_str(&["snapshot", "--plan"]).unwrap_err();
    assert!(e.0.contains("needs a value"), "{e}");
    let e = run_str(&["snapshot", "--t", "5"]).unwrap_err();
    assert!(e.0.contains("--plan"), "{e}");
    let e = run_str(&["generate", "martian", "--out-dir", "/tmp/x-inflow-none"]).unwrap_err();
    assert!(e.0.contains("unknown dataset"), "{e}");
    let e = run_str(&["snapshot", "--plan", "/nonexistent-plan", "--ott", "/x", "--t", "1"])
        .unwrap_err();
    assert!(e.0.contains("cannot open plan"), "{e}");
}

#[test]
fn threads_flag_matches_sequential_and_validates() {
    let (plan, ott, dir) = generate("threads");
    let base =
        ["snapshot", "--plan", &plan, "--ott", &ott, "--t", "150", "--k", "5", "--iterative"];
    let seq = run_str(&base).expect("sequential iterative");
    let mut with_threads = base.to_vec();
    with_threads.extend_from_slice(&["--threads", "4"]);
    let par = run_str(&with_threads).expect("threaded iterative");
    assert_eq!(seq, par, "--threads must not change the output");

    let e = run_str(&["snapshot", "--plan", &plan, "--ott", &ott, "--t", "150", "--threads", "4"])
        .unwrap_err();
    assert!(e.0.contains("--threads requires --iterative"), "{e}");
    let e = run_str(&[
        "interval",
        "--plan",
        &plan,
        "--ott",
        &ott,
        "--ts",
        "0",
        "--te",
        "100",
        "--iterative",
        "--threads",
        "0",
    ])
    .unwrap_err();
    assert!(e.0.contains("at least 1"), "{e}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn watch_requires_an_action() {
    // Argument validation happens before any connection is attempted for
    // flags; a bad address must fail cleanly.
    let e = run_str(&["watch", "--addr", "not-an-addr"]).unwrap_err();
    assert!(e.0.contains("addr"), "{e}");
}

#[test]
fn serve_validates_flags_before_binding() {
    let (plan, _, dir) = generate("servevalidate");
    let store = dir.join("store");
    let e =
        run_str(&["serve", "--plan", &plan, "--store", store.to_str().unwrap(), "--shards", "0"])
            .unwrap_err();
    assert!(e.0.contains("at least 1"), "{e}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn query_distrib_and_longvisit_verbs() {
    let (plan, ott, dir) = generate("probverbs");

    let out = run_str(&[
        "query", "distrib", "--plan", &plan, "--ott", &ott, "--t", "150", "--kq", "2", "--kmax",
        "16", "--k", "3",
    ])
    .expect("query distrib succeeds");
    assert!(out.contains("top-3 POIs by P(count >= 2) at t = 150"), "{out}");
    assert!(out.contains("E[count]"), "{out}");

    let over = run_str(&[
        "query", "distrib", "--plan", &plan, "--ott", &ott, "--ts", "50", "--te", "150", "--kq",
        "1", "--k", "3",
    ])
    .expect("interval-form distrib succeeds");
    assert!(over.contains("P(count >= 1) over [50, 150]"), "{over}");

    let lv = run_str(&[
        "query",
        "longvisit",
        "--plan",
        &plan,
        "--ott",
        &ott,
        "--ts",
        "50",
        "--te",
        "250",
        "--min-dwell",
        "10",
        "--k",
        "3",
    ])
    .expect("query longvisit succeeds");
    assert!(lv.contains("top-3 POIs by objects dwelling >= 10 over [50, 250]"), "{lv}");
    // The value column is a head count: every printed value is integral.
    for line in lv.lines().skip(2).take(3) {
        let value: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert_eq!(value.fract(), 0.0, "non-integral head count in {line}");
    }
    // --profile appends the long-visit span tree and its work counters.
    let profiled = run_str(&[
        "query",
        "longvisit",
        "--plan",
        &plan,
        "--ott",
        &ott,
        "--ts",
        "50",
        "--te",
        "250",
        "--min-dwell",
        "10",
        "--k",
        "3",
        "--profile",
    ])
    .expect("profiled longvisit succeeds");
    assert!(profiled.starts_with(&lv), "profile must only append:\n{profiled}");
    for needle in
        ["integrate_dwell", "urs_built", "presence_evaluations", "grid_probes", "grid_blocks"]
    {
        assert!(profiled.contains(needle), "missing {needle}:\n{profiled}");
    }

    let e =
        run_str(&["query", "distrib", "--plan", &plan, "--ott", &ott, "--t", "150", "--kq", "0"])
            .unwrap_err();
    assert!(e.0.contains("--kq"), "{e}");
    let e = run_str(&["query", "psychic", "--plan", &plan, "--ott", &ott]).unwrap_err();
    assert!(e.0.contains("unknown query family"), "{e}");
    let e = run_str(&[
        "query",
        "longvisit",
        "--plan",
        &plan,
        "--ott",
        &ott,
        "--ts",
        "0",
        "--te",
        "100",
    ])
    .unwrap_err();
    assert!(e.0.contains("min-dwell") || e.0.contains("--d"), "{e}");

    let _ = std::fs::remove_dir_all(dir);
}
