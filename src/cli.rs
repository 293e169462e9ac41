//! The `inflow` command-line interface.
//!
//! A thin, dependency-free frontend over the library:
//!
//! ```text
//! inflow generate synthetic --out-dir data [--objects N] [--duration S] [--seed N]
//! inflow generate cph --out-dir data [--passengers N] [--seed N]
//! inflow snapshot --plan plan.txt --ott ott.csv --t 1200 [--k 10] [--iterative]
//! inflow interval --plan plan.txt --ott ott.csv --ts 600 --te 1800 [--k 10]
//! inflow timeline --plan plan.txt --ott ott.csv --start 0 --end 3600 --bucket 600
//! inflow density --plan plan.txt --ott ott.csv --t 1200 [--cell-size 10]
//! inflow render --plan plan.txt --out plan.svg [--ott ott.csv --object 3 --t 1200]
//! ```
//!
//! All commands are pure functions over files; [`run`] returns the text
//! that `main` prints, which keeps the CLI fully unit-testable.

use crate::core::{
    flow_timeline, snapshot_density, DistribQuery, FlowAnalytics, IntervalQuery, LongVisitQuery,
    SnapshotQuery,
};
use crate::geometry::GridResolution;
use crate::indoor::{read_plan, write_plan, FloorPlan, PoiId};
use crate::replay::{bisect, record_run, replay, FaultPlan, RecordOptions, ReplayLog};
use crate::service::{Client, ServeConfig, Server, SubKind, SubSpec};
use crate::tracking::{
    atomic_write, read_ott_csv, read_quarantine_csv, read_readings_csv, readmit_rows,
    sanitize_rows, write_quarantine_csv, write_readings_csv, write_table_csv, IngestStore,
    ObjectId, ObjectTrackingTable, OnlineTracker, OttRow, RawReading, RecoveryReport,
    SanitizeConfig, StdFs, StoreError, StoreOptions,
};
use crate::uncertainty::{IndoorContext, UrConfig, UrEngine};
use crate::viz::SceneRenderer;
use crate::workload::{
    build_floor_plan, generate_cph, generate_synthetic, CphConfig, SyntheticConfig,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A CLI failure: the message shown to the user (exit code 2).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("I/O error: {e}"))
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Parsed `--flag value` options plus positional arguments.
struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                // Boolean switches take no value.
                if matches!(
                    name,
                    "iterative"
                        | "no-topology"
                        | "labels"
                        | "profile"
                        | "profile-json"
                        | "sanitize"
                        | "no-sync"
                        | "stats"
                        | "shutdown"
                        | "no-trace"
                        | "once"
                        | "bisect"
                        | "repair"
                        | "detail"
                ) {
                    switches.push(name.to_string());
                } else {
                    i += 1;
                    let Some(value) = argv.get(i) else {
                        return err(format!("--{name} needs a value"));
                    };
                    flags.insert(name.to_string(), value.clone());
                }
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Ok(Args { positional, flags, switches })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError(format!("cannot parse --{name} value '{v}'"))),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.get(name)?.ok_or_else(|| CliError(format!("missing required --{name}")))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Runs the CLI; returns the text to print on success.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Ok(usage());
    };
    let args = Args::parse(&argv[1..])?;
    match command.as_str() {
        "generate" => cmd_generate(&args),
        "snapshot" => cmd_snapshot(&args),
        "interval" => cmd_interval(&args),
        "query" => cmd_query(&args),
        "timeline" => cmd_timeline(&args),
        "density" => cmd_density(&args),
        "render" => cmd_render(&args),
        "sanitize" => cmd_sanitize(&args),
        "readmit" => cmd_readmit(&args),
        "ingest" => cmd_ingest(&args),
        "recover" => cmd_recover(&args),
        "fsck" => cmd_fsck(&args),
        "scrub" => cmd_scrub(&args),
        "serve" => cmd_serve(&args),
        "watch" => cmd_watch(&args),
        "top" => cmd_top(&args),
        "record" => cmd_record(&args),
        "replay" => cmd_replay(&args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

fn usage() -> String {
    "inflow — frequently visited indoor POIs from symbolic tracking data\n\
     \n\
     commands:\n\
     \x20 generate synthetic|cph --out-dir DIR [--objects N] [--passengers N]\n\
     \x20          [--duration S] [--seed N]       write plan.txt + ott.csv\n\
     \x20 snapshot --plan F --ott F --t T [--k K] [--iterative] [--no-topology]\n\
     \x20 interval --plan F --ott F --ts T --te T [--k K] [--iterative]\n\
     \x20 query distrib --plan F --ott F (--t T | --ts T --te T)\n\
     \x20          [--kq K] [--kmax N] [--k K]    rank POIs by P(count >= kq)\n\
     \x20 query longvisit --plan F --ott F --ts T --te T --min-dwell D [--k K]\n\
     \x20                                          count objects dwelling >= D\n\
     \x20 timeline --plan F --ott F --start T --end T --bucket S [--k K]\n\
     \x20 density  --plan F --ott F --t T [--cell-size M]\n\
     \x20 render   --plan F --out F.svg [--ott F --object ID --t T] [--labels]\n\
     \x20 sanitize --plan F --ott F [--out F.csv] [--quarantine-out F.csv]\n\
     \x20          [--policy repair|reject|quarantine] [--vmax V]\n\
     \x20                                          gate dirty data, print report\n\
     \x20 readmit  --plan F --ott F --quarantine F.csv [--out F.csv]\n\
     \x20          [--quarantine-out F.csv] [--policy P] [--vmax V]\n\
     \x20                                          replay quarantined rows\n\
     \x20 ingest   --store DIR --readings F.csv [--max-gap S] [--lateness S]\n\
     \x20          [--snapshot-every N] [--compact-every N] [--scrub-every N]\n\
     \x20          [--no-sync] [--out F.csv]\n\
     \x20                                          durable WAL + snapshot ingestion\n\
     \x20 recover  --store DIR [--max-gap S] [--out F.csv] [--profile|--profile-json]\n\
     \x20                                          replay WAL, print recovery report\n\
     \x20 fsck     --store DIR [--repair] [--max-gap S]\n\
     \x20                                          offline integrity sweep (manifest,\n\
     \x20                                          segments, WAL, snapshots); --repair\n\
     \x20                                          re-seals damaged segments from WAL\n\
     \x20 scrub    --store DIR [--budget N] [--repair] [--max-gap S]\n\
     \x20                                          one scrub pass: verify + quarantine\n\
     \x20 serve    --plan F --store DIR [--port P] [--shards N] [--pool N]\n\
     \x20          [--max-gap S] [--lateness S] [--vmax V] [--no-sync]\n\
     \x20          [--snapshot-every N] [--addr-file F] [--no-trace]\n\
     \x20          [--compact-every N] [--scrub-every N]\n\
     \x20          [--slow-ms MS] [--flight-capacity N]\n\
     \x20          [--max-queue N] [--max-conns N]\n\
     \x20                                          continuous flow-monitoring server\n\
     \x20 watch    --addr HOST:PORT [--t T | --ts T --te T] [--k K] [--epsilon E]\n\
     \x20          [--kq K [--kmax N]] [--min-dwell D] [--detail]\n\
     \x20          [--pois 1,2,3] [--publish F.csv] [--chunk N] [--stats] [--shutdown]\n\
     \x20          [--timeout-ms MS]               subscribe, stream, print updates\n\
     \x20 top      --addr HOST:PORT [--once] [--interval S] [--count N]\n\
     \x20          [--timeout-ms MS]               live server telemetry dashboard\n\
     \x20 record   --plan F --store DIR --readings F.csv --out F.rpl\n\
     \x20          [--chunk N] [--barrier-every N] [--t T | --ts T --te T]\n\
     \x20          [--subs 'kind:key=v,key=v;...']\n\
     \x20          [--faults 5:crash:0,7:restart:0 | --fault-seed N [--fault-count N]]\n\
     \x20          [serve flags]                   record a chaos run as a replay log\n\
     \x20 replay   --plan F --store DIR --log F.rpl [--bisect] [--out F.rpl.min]\n\
     \x20          [serve flags]                   verify per-barrier state hashes\n\
     \n\
     snapshot and interval accept --threads N with --iterative to fan the\n\
     per-object flow computation across N scoped worker threads; results\n\
     are bitwise identical to the single-threaded run.\n\
     \n\
     serve blocks until a client sends --shutdown; it prints the bound\n\
     address on startup (and writes it to --addr-file, for scripts) and\n\
     its metrics registry on exit. Pipeline tracing is on by default\n\
     (--no-trace disables it); notifications slower than --slow-ms land\n\
     in the slow-request log served by the TRACE protocol verb.\n\
     \n\
     watch and record pick the subscription kind from their flags: --t\n\
     alone is the expected-flow snapshot; --ts/--te the interval flow;\n\
     --t with --kq the probabilistic count P(count >= --kq) (convolution\n\
     truncated at --kmax, default 32); --ts/--te with --min-dwell the\n\
     long-visit head count. watch --detail additionally fetches the full\n\
     per-POI distribution (pmf, tail mass, expectation, median) for a\n\
     --kq subscription. record --subs adds extra subscriptions as a\n\
     semicolon-separated list: kind:key=value,... where kind is\n\
     snapshot|interval|distrib|longvisit (keys t, ts, te, kq, kmax, d,\n\
     k, epsilon).\n\
     \n\
     top polls the server's METRICS verb and renders counters (with\n\
     per-second rates), per-stage latency percentiles and per-shard\n\
     queue depths; --once prints a single machine-checkable snapshot\n\
     and exits (non-zero if the snapshot is malformed).\n\
     \n\
     record drives a fresh server through the readings over a single\n\
     connection, injecting the fault plan (shard kills, torn WAL writes,\n\
     connection drops) at recorded stream positions and stamping a state\n\
     digest at every barrier. replay re-drives the log against a fresh\n\
     server and exits non-zero at the first digest mismatch; --bisect\n\
     then shrinks the log to its minimal diverging prefix.\n\
     \n\
     ingest is resumable and idempotent: readings already durable in the\n\
     store's WAL are skipped, so rerunning after a crash continues where\n\
     the log ends. All file outputs are written atomically (temp + rename).\n\
     \n\
     serve seals cold rows into immutable, checksummed segments every\n\
     --compact-every rows (0 disables) and re-verifies them on a budgeted\n\
     schedule every --scrub-every readings (0 disables). A damaged\n\
     segment is quarantined, not fatal: queries keep answering with the\n\
     damaged rows excluded and the degradation counted. fsck exits\n\
     non-zero when a store needs attention; scrub exits non-zero when\n\
     segments remain quarantined after the pass (and --repair).\n\
     snapshot, interval, timeline and density accept --store DIR in\n\
     place of --ott: the table is assembled from verified segments plus\n\
     the hot WAL tail, and quarantined rows show up in the answer's\n\
     quality line instead of failing the query.\n\
     \n\
     snapshot, interval, timeline and query longvisit accept --profile\n\
     (per-phase span tree plus counters) or --profile-json (same data as a\n\
     JSON document); snapshot, interval and timeline also accept\n\
     --sanitize to route the OTT through the anomaly gate (repair policies)\n\
     instead of rejecting inconsistent input outright.\n"
        .to_string()
}

fn load_plan(args: &Args) -> Result<FloorPlan, CliError> {
    let path: PathBuf = args.require("plan")?;
    let file = File::open(&path)
        .map_err(|e| CliError(format!("cannot open plan {}: {e}", path.display())))?;
    read_plan(&mut BufReader::new(file)).map_err(|e| CliError(format!("bad plan file: {e}")))
}

fn load_ott_rows(args: &Args) -> Result<Vec<OttRow>, CliError> {
    let path: PathBuf = args.require("ott")?;
    let file = File::open(&path)
        .map_err(|e| CliError(format!("cannot open OTT {}: {e}", path.display())))?;
    read_ott_csv(&mut BufReader::new(file)).map_err(|e| CliError(format!("bad OTT file: {e}")))
}

fn load_ott(args: &Args) -> Result<ObjectTrackingTable, CliError> {
    ObjectTrackingTable::from_rows(load_ott_rows(args)?)
        .map_err(|e| CliError(format!("inconsistent OTT: {e}")))
}

fn build_analytics(args: &Args) -> Result<(FlowAnalytics, Vec<PoiId>), CliError> {
    let plan = load_plan(args)?;
    let pois: Vec<PoiId> = plan.pois().iter().map(|p| p.id).collect();
    if pois.is_empty() {
        return err("the plan defines no POIs");
    }
    let vmax: f64 = args.get("vmax")?.unwrap_or(1.1);
    // With --sanitize, dirty rows are repaired by the anomaly gate (the
    // plan serves as the device/feasibility oracle) instead of failing
    // `from_rows`; the report rides on the façade for degraded-mode output.
    let sanitized = if args.switch("sanitize") {
        let rows = load_ott_rows(args)?;
        let cfg = SanitizeConfig::repair_all().with_vmax(vmax);
        let outcome = sanitize_rows(rows, &cfg, Some(&plan));
        let ott = ObjectTrackingTable::from_rows(outcome.rows)
            .map_err(|e| CliError(format!("OTT still inconsistent after sanitize: {e}")))?;
        Some((ott, outcome.report, outcome.repaired_objects))
    } else {
        None
    };
    // With --store (and no --ott) the table is assembled from the tiered
    // ingestion store: verified segments + hot WAL tail + open runs.
    // Quarantined segments degrade the answer instead of failing it.
    let store_view = if sanitized.is_none() && !args.flags.contains_key("ott") {
        match args.flags.get("store") {
            Some(_) => {
                let store_dir: PathBuf = args.require("store")?;
                let (mut store, _recovery) = open_store_for_maintenance(args, &store_dir, 1)?;
                let view = store.assemble_history().map_err(|e| {
                    CliError(format!("assembling history from {}: {e}", store_dir.display()))
                })?;
                Some(view)
            }
            None => None,
        }
    } else {
        None
    };
    let cfg = UrConfig {
        vmax,
        topology_check: !args.switch("no-topology"),
        resolution: GridResolution::COARSE,
        ..UrConfig::default()
    };
    let fa = match (sanitized, store_view) {
        (Some((ott, report, repaired)), _) => {
            FlowAnalytics::new(Arc::new(IndoorContext::new(plan)), ott, cfg)
                .with_sanitize_report(report, repaired)
        }
        (None, Some(view)) => FlowAnalytics::new(Arc::new(IndoorContext::new(plan)), view.ott, cfg)
            .with_storage_quarantine(view.quarantined_rows),
        (None, None) => {
            FlowAnalytics::new(Arc::new(IndoorContext::new(plan)), load_ott(args)?, cfg)
        }
    }
    .with_profiling(args.switch("profile") || args.switch("profile-json"));
    Ok((fa, pois))
}

/// Appends the query profile to `out` per the `--profile`/`--profile-json`
/// switches. With `--profile-json` the JSON document *replaces* the human
/// output so the result can be piped straight into other tools.
fn append_profile(out: String, profile: Option<&crate::obs::QueryProfile>, args: &Args) -> String {
    let Some(profile) = profile else { return out };
    if args.switch("profile-json") {
        format!("{}\n", profile.to_json())
    } else if args.switch("profile") {
        format!("{out}\n{}", profile.render())
    } else {
        out
    }
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let kind = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError("generate needs 'synthetic' or 'cph'".into()))?;
    let out_dir: PathBuf = args.require("out-dir")?;
    std::fs::create_dir_all(&out_dir)?;

    let (plan, ott, label) = match kind {
        "synthetic" => {
            let mut cfg = SyntheticConfig::default();
            if let Some(n) = args.get("objects")? {
                cfg.num_objects = n;
            }
            if let Some(d) = args.get("duration")? {
                cfg.duration = d;
            }
            if let Some(s) = args.get("seed")? {
                cfg.seed = s;
            }
            if let Some(r) = args.get("detection-range")? {
                cfg.detection_range = r;
            }
            let w = generate_synthetic(&cfg);
            (build_floor_plan(&cfg), w.ott, "synthetic")
        }
        "cph" => {
            let mut cfg = CphConfig::default();
            if let Some(n) = args.get("passengers")? {
                cfg.num_passengers = n;
            }
            if let Some(d) = args.get("duration")? {
                cfg.duration = d;
            }
            if let Some(s) = args.get("seed")? {
                cfg.seed = s;
            }
            let w = generate_cph(&cfg);
            let (plan, _) = crate::workload::build_airport_plan(&cfg);
            (plan, w.ott, "cph")
        }
        other => return err(format!("unknown dataset '{other}' (use synthetic|cph)")),
    };

    let plan_path = out_dir.join("plan.txt");
    let ott_path = out_dir.join("ott.csv");
    let readings_path = out_dir.join("readings.csv");
    let readings = readings_of(&ott);
    write_file_atomic(&plan_path, |buf| write_plan(buf, &plan))?;
    write_file_atomic(&ott_path, |buf| write_table_csv(buf, &ott))?;
    write_file_atomic(&readings_path, |buf| write_readings_csv(buf, &readings))?;
    Ok(format!(
        "generated {label} dataset: {} records for {} objects\n  {}\n  {}\n  {}\n",
        ott.len(),
        ott.object_count(),
        plan_path.display(),
        ott_path.display(),
        readings_path.display()
    ))
}

/// A raw reading stream equivalent to the table under merging: one
/// reading at each record endpoint, globally time-ordered — the input
/// format `inflow ingest` consumes.
fn readings_of(ott: &ObjectTrackingTable) -> Vec<RawReading> {
    let mut readings = Vec::with_capacity(ott.len() * 2);
    for r in ott.records() {
        readings.push(RawReading { object: r.object, device: r.device, t: r.ts });
        if r.te > r.ts {
            readings.push(RawReading { object: r.object, device: r.device, t: r.te });
        }
    }
    readings.sort_by(|a, b| {
        a.t.total_cmp(&b.t)
            .then_with(|| a.object.cmp(&b.object))
            .then_with(|| a.device.0.cmp(&b.device.0))
    });
    readings
}

fn format_result(
    fa: &FlowAnalytics,
    ranked: &[(PoiId, f64)],
    header: &str,
    stats: &crate::core::QueryStats,
    quality: &crate::core::DataQuality,
) -> String {
    format_result_as(fa, ranked, header, "flow", stats, quality)
}

fn format_result_as(
    fa: &FlowAnalytics,
    ranked: &[(PoiId, f64)],
    header: &str,
    value_label: &str,
    stats: &crate::core::QueryStats,
    quality: &crate::core::DataQuality,
) -> String {
    let plan = fa.engine().context().plan();
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{:<6} {:<20} {:>10}", "rank", "poi", value_label);
    for (rank, &(poi, flow)) in ranked.iter().enumerate() {
        let _ = writeln!(out, "{:<6} {:<20} {:>10.3}", rank + 1, plan.poi(poi).name, flow);
    }
    let _ = writeln!(
        out,
        "({} objects considered, {} URs, {} presence integrations)",
        stats.objects_considered, stats.urs_built, stats.presence_evaluations
    );
    let _ = writeln!(out, "{}", quality.render());
    out
}

/// The `--threads` value for the iterative algorithms; `None` when
/// absent, an error when present without `--iterative` (the join
/// algorithms are inherently sequential over the shared index).
fn parse_threads(args: &Args) -> Result<Option<usize>, CliError> {
    let Some(threads) = args.get::<usize>("threads")? else { return Ok(None) };
    if threads == 0 {
        return err("--threads must be at least 1");
    }
    if !args.switch("iterative") {
        return err("--threads requires --iterative");
    }
    Ok(Some(threads))
}

fn cmd_snapshot(args: &Args) -> Result<String, CliError> {
    let (fa, pois) = build_analytics(args)?;
    let t: f64 = args.require("t")?;
    let k: usize = args.get("k")?.unwrap_or(10);
    let threads = parse_threads(args)?;
    let q = SnapshotQuery::new(t, pois, k);
    let result = match (args.switch("iterative"), threads) {
        (true, Some(n)) => fa.snapshot_topk_iterative_threads(&q, n),
        (true, None) => fa.snapshot_topk_iterative(&q),
        (false, _) => fa.snapshot_topk_join(&q),
    };
    let out = format_result(
        &fa,
        &result.ranked,
        &format!("top-{k} POIs at t = {t}"),
        &result.stats,
        &result.quality,
    );
    Ok(append_profile(out, result.profile.as_deref(), args))
}

fn cmd_interval(args: &Args) -> Result<String, CliError> {
    let (fa, pois) = build_analytics(args)?;
    let ts: f64 = args.require("ts")?;
    let te: f64 = args.require("te")?;
    if te < ts {
        return err("--te must not precede --ts");
    }
    let k: usize = args.get("k")?.unwrap_or(10);
    let threads = parse_threads(args)?;
    let q = IntervalQuery::new(ts, te, pois, k);
    let result = match (args.switch("iterative"), threads) {
        (true, Some(n)) => fa.interval_topk_iterative_threads(&q, n),
        (true, None) => fa.interval_topk_iterative(&q),
        (false, _) => fa.interval_topk_join(&q),
    };
    let out = format_result(
        &fa,
        &result.ranked,
        &format!("top-{k} POIs over [{ts}, {te}]"),
        &result.stats,
        &result.quality,
    );
    Ok(append_profile(out, result.profile.as_deref(), args))
}

/// `inflow query distrib|longvisit`: the probabilistic batch verbs.
/// `distrib` ranks POIs by `P(count ≥ --kq)` from the exact
/// Poisson-binomial count distribution (convolution truncated at
/// `--kmax`); `longvisit` counts the objects whose expected dwell
/// within `[--ts, --te]` reaches `--min-dwell`.
fn cmd_query(args: &Args) -> Result<String, CliError> {
    let family = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError("query needs 'distrib' or 'longvisit'".into()))?;
    let (fa, pois) = build_analytics(args)?;
    let k: usize = args.get("k")?.unwrap_or(10);
    match family {
        "distrib" => {
            let kq: usize = args.get("kq")?.unwrap_or(1);
            if kq == 0 {
                return err("--kq must be at least 1");
            }
            let kmax = parse_kmax(args)? as usize;
            let q = match (args.get::<f64>("t")?, args.get::<f64>("ts")?, args.get::<f64>("te")?) {
                (Some(t), None, None) => DistribQuery::at(t, pois, kq, kmax, k),
                (None, Some(ts), Some(te)) => {
                    if te < ts {
                        return err("--te must not precede --ts");
                    }
                    DistribQuery::over(ts, te, pois, kq, kmax, k)
                }
                _ => return err("query distrib needs --t, or both --ts and --te"),
            };
            let result = fa.distrib_topk(&q);
            let header = match q.time {
                crate::core::DistribTime::At(t) => {
                    format!("top-{} POIs by P(count >= {kq}) at t = {t}", q.k)
                }
                crate::core::DistribTime::Over(ts, te) => {
                    format!("top-{} POIs by P(count >= {kq}) over [{ts}, {te}]", q.k)
                }
            };
            let by_poi: HashMap<_, _> = result.distributions.iter().map(|(p, d)| (*p, d)).collect();
            let plan = fa.engine().context().plan();
            let mut out = String::new();
            let _ = writeln!(out, "{header}");
            let _ = writeln!(
                out,
                "{:<6} {:<20} {:>12} {:>10} {:>8} {:>10}",
                "rank", "poi", "P(>=kq)", "E[count]", "median", "tail"
            );
            for (rank, &(poi, p)) in result.ranked.iter().enumerate() {
                let d = by_poi[&poi];
                let _ = writeln!(
                    out,
                    "{:<6} {:<20} {:>12.4} {:>10.3} {:>8} {:>10.2e}",
                    rank + 1,
                    plan.poi(poi).name,
                    p,
                    d.expectation(),
                    d.quantile(0.5),
                    d.tail_mass()
                );
            }
            let _ = writeln!(
                out,
                "({} objects considered, {} URs, {} presence integrations, kmax {kmax})",
                result.stats.objects_considered,
                result.stats.urs_built,
                result.stats.presence_evaluations
            );
            let _ = writeln!(out, "{}", result.quality.render());
            Ok(out)
        }
        "longvisit" => {
            let ts: f64 = args.require("ts")?;
            let te: f64 = args.require("te")?;
            if te < ts {
                return err("--te must not precede --ts");
            }
            let d: f64 = match args.get("min-dwell")? {
                Some(d) => d,
                None => args.require("d")?,
            };
            if !(d >= 0.0 && d.is_finite()) {
                return err("--min-dwell must be finite and non-negative");
            }
            let q = LongVisitQuery::new(ts, te, d, pois, k);
            let result = fa.longvisit_topk(&q);
            let out = format_result_as(
                &fa,
                &result.ranked,
                &format!("top-{} POIs by objects dwelling >= {d} over [{ts}, {te}]", q.k),
                "objects",
                &result.stats,
                &result.quality,
            );
            Ok(append_profile(out, result.profile.as_deref(), args))
        }
        other => err(format!("unknown query family '{other}' (use distrib|longvisit)")),
    }
}

fn cmd_timeline(args: &Args) -> Result<String, CliError> {
    let (fa, pois) = build_analytics(args)?;
    let start: f64 = args.require("start")?;
    let end: f64 = args.require("end")?;
    let bucket: f64 = args.require("bucket")?;
    if bucket <= 0.0 || end < start {
        return err("need --bucket > 0 and --end >= --start");
    }
    let k: usize = args.get("k")?.unwrap_or(5);
    let tl = flow_timeline(&fa, &pois, start, end, bucket);
    let plan = fa.engine().context().plan();
    let mut out = String::new();
    let _ = writeln!(out, "flow timeline [{start}, {end}] in {bucket}-second buckets");
    for (idx, b) in tl.buckets.iter().enumerate() {
        let mut top: Vec<(PoiId, f64)> = b.flows.clone();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(k);
        let row: Vec<String> =
            top.iter().map(|&(p, f)| format!("{} ({f:.2})", plan.poi(p).name)).collect();
        let _ = writeln!(out, "  [{:>8.0}, {:>8.0}) #{idx}: {}", b.ts, b.te, row.join(", "));
    }
    let _ = writeln!(out, "{}", tl.quality.render());
    Ok(append_profile(out, tl.profile.as_deref(), args))
}

fn cmd_density(args: &Args) -> Result<String, CliError> {
    let (fa, _) = build_analytics(args)?;
    let t: f64 = args.require("t")?;
    let cell: f64 = args.get("cell-size")?.unwrap_or(10.0);
    let grid = snapshot_density(&fa, t, cell);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "density at t = {t} ({}×{} grid of {cell} m cells, total expected {:.2} objects)",
        grid.dims().0,
        grid.dims().1,
        grid.total()
    );
    for (i, j, value) in grid.hottest(8) {
        if value <= 0.0 {
            break;
        }
        let m = grid.cell_mbr(i, j);
        let _ = writeln!(
            out,
            "  cell ({i:>2}, {j:>2}) around ({:>6.1}, {:>6.1}): {value:.2} expected objects",
            m.center().x,
            m.center().y
        );
    }
    Ok(out)
}

fn cmd_render(args: &Args) -> Result<String, CliError> {
    let plan = load_plan(args)?;
    let out_path: PathBuf = args.require("out")?;
    let style = crate::viz::Style { labels: args.switch("labels"), ..Default::default() };

    // Optional uncertainty-region overlay for one object at one time.
    let svg = match (args.flags.get("ott"), args.flags.get("object"), args.flags.get("t")) {
        (Some(_), Some(_), Some(_)) => {
            let ott = load_ott(args)?;
            let object: u32 = args.require("object")?;
            let t: f64 = args.require("t")?;
            let ctx = Arc::new(IndoorContext::new(plan));
            let engine = UrEngine::new(
                Arc::clone(&ctx),
                UrConfig { vmax: args.get("vmax")?.unwrap_or(1.1), ..UrConfig::default() },
            );
            let Some(state) = ott.state_at(ObjectId(object), t) else {
                return err(format!("object {object} is not tracked at t = {t}"));
            };
            let ur = engine.snapshot_ur(&ott, state, t);
            SceneRenderer::with_style(ctx.plan(), style)
                .draw_pois()
                .draw_devices()
                .draw_uncertainty_region(&ur)
                .render()
        }
        (None, None, None) => {
            SceneRenderer::with_style(&plan, style).draw_pois().draw_devices().render()
        }
        _ => return err("render overlay needs all of --ott, --object and --t"),
    };
    std::fs::write(&out_path, &svg)?;
    Ok(format!("wrote {} ({} bytes)\n", out_path.display(), svg.len()))
}

/// The sanitize/readmit policy config from `--policy` and `--vmax`.
fn parse_policy(args: &Args) -> Result<SanitizeConfig, CliError> {
    let policy = args.get::<String>("policy")?.unwrap_or_else(|| "repair".to_string());
    let cfg = match policy.as_str() {
        "repair" => SanitizeConfig::repair_all(),
        "reject" => SanitizeConfig::reject_all(),
        "quarantine" => SanitizeConfig::quarantine_all(),
        other => return err(format!("unknown policy '{other}' (use repair|reject|quarantine)")),
    };
    Ok(cfg.with_vmax(args.get("vmax")?.unwrap_or(1.1)))
}

/// Renders a file image into memory and writes it via temp + fsync +
/// rename, so a crash mid-write can never leave a torn table where the
/// output should be.
fn write_file_atomic<E: std::fmt::Display>(
    path: impl AsRef<Path>,
    render: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), CliError> {
    let path = path.as_ref();
    let mut buf = Vec::new();
    render(&mut buf).map_err(|e| CliError(format!("rendering {}: {e}", path.display())))?;
    atomic_write(&StdFs, path, &buf)
        .map_err(|e| CliError(format!("writing {}: {e}", path.display())))
}

/// Shared tail of `sanitize` and `readmit`: write the clean table and the
/// surviving quarantine to their `--out` / `--quarantine-out` targets.
fn write_sanitize_outputs(
    args: &Args,
    out: &mut String,
    rows: Vec<OttRow>,
    quarantined: &[(OttRow, crate::tracking::AnomalyKind)],
) -> Result<(), CliError> {
    if let Some(path) = args.flags.get("out") {
        let table = ObjectTrackingTable::from_rows(rows)
            .map_err(|e| CliError(format!("OTT still inconsistent after sanitize: {e}")))?;
        write_file_atomic(path, |buf| write_table_csv(buf, &table))?;
        let _ = writeln!(out, "wrote {path}");
    }
    if let Some(path) = args.flags.get("quarantine-out") {
        write_file_atomic(path, |buf| write_quarantine_csv(buf, quarantined))?;
        let _ = writeln!(out, "wrote {path} ({} quarantined rows)", quarantined.len());
    }
    Ok(())
}

fn cmd_sanitize(args: &Args) -> Result<String, CliError> {
    let plan = load_plan(args)?;
    let rows = load_ott_rows(args)?;
    let cfg = parse_policy(args)?;
    let total_in = rows.len();
    let outcome = sanitize_rows(rows, &cfg, Some(&plan));
    let mut out = String::new();
    let _ = writeln!(out, "sanitized {total_in} rows -> {} rows", outcome.rows.len());
    out.push_str(&outcome.report.render());
    out.push('\n');
    write_sanitize_outputs(args, &mut out, outcome.rows, &outcome.quarantined)?;
    Ok(out)
}

fn cmd_readmit(args: &Args) -> Result<String, CliError> {
    let plan = load_plan(args)?;
    let clean = load_ott_rows(args)?;
    let qpath: PathBuf = args.require("quarantine")?;
    let file = File::open(&qpath)
        .map_err(|e| CliError(format!("cannot open quarantine {}: {e}", qpath.display())))?;
    let quarantined = read_quarantine_csv(&mut BufReader::new(file))
        .map_err(|e| CliError(format!("bad quarantine file: {e}")))?;
    let cfg = parse_policy(args)?;
    let q_in = quarantined.len();
    let q_rows: Vec<OttRow> = quarantined.iter().map(|&(r, _)| r).collect();
    let outcome = readmit_rows(clean, q_rows, &cfg, Some(&plan));
    let mut out = String::new();
    let _ = writeln!(out, "readmitted {} of {q_in} quarantined rows", outcome.report.readmitted);
    out.push_str(&outcome.report.render());
    out.push('\n');
    write_sanitize_outputs(args, &mut out, outcome.rows, &outcome.quarantined)?;
    Ok(out)
}

/// The fresh-store tracker configuration from `--max-gap`/`--lateness`.
/// Only consulted when the store directory holds no prior state: an
/// existing WAL or snapshot carries its own durable config.
fn fresh_tracker(args: &Args) -> Result<OnlineTracker, CliError> {
    let max_gap: f64 = args.get("max-gap")?.unwrap_or(60.0);
    if !(max_gap > 0.0 && max_gap.is_finite()) {
        return err("--max-gap must be positive and finite");
    }
    Ok(match args.get("lateness")? {
        Some(l) => OnlineTracker::with_reorder(max_gap, l),
        None => OnlineTracker::new(max_gap),
    })
}

fn cmd_ingest(args: &Args) -> Result<String, CliError> {
    let store_dir: PathBuf = args.require("store")?;
    let readings_path: PathBuf = args.require("readings")?;
    let file = File::open(&readings_path)
        .map_err(|e| CliError(format!("cannot open readings {}: {e}", readings_path.display())))?;
    let readings = read_readings_csv(&mut BufReader::new(file))
        .map_err(|e| CliError(format!("bad readings file: {e}")))?;
    // 0 disables the segment tier / background scrubbing (the default
    // for one-shot ingestion; serve defaults them on).
    let compact_every: u64 = args.get("compact-every")?.unwrap_or(0);
    let scrub_every: u64 = args.get("scrub-every")?.unwrap_or(0);
    let opts = StoreOptions {
        snapshot_every: Some(args.get("snapshot-every")?.unwrap_or(1024)),
        sync_each_reading: !args.switch("no-sync"),
        compact_every: (compact_every > 0).then_some(compact_every),
        scrub_every: (scrub_every > 0).then_some(scrub_every),
        ..StoreOptions::default()
    };
    let (mut store, report) = IngestStore::open(StdFs, &store_dir, fresh_tracker(args)?, opts)
        .map_err(|e| CliError(format!("opening store {}: {e}", store_dir.display())))?;
    let mut out = String::new();
    out.push_str(&report.render());

    // Resume: everything the WAL already holds is skipped, which makes a
    // rerun after a crash (or a plain rerun) idempotent.
    let skip = report.wal_records as usize;
    if skip > readings.len() {
        return err(format!(
            "store already holds {skip} readings but the input has only {}; \
             wrong --readings file for this store?",
            readings.len()
        ));
    }
    let mut ingested = 0u64;
    let mut rejected = 0u64;
    for &r in &readings[skip..] {
        match store.ingest(r) {
            Ok(()) => ingested += 1,
            // The reading is durable but the tracker refused it (e.g.
            // strict-mode regression): log and continue, like recovery does.
            Err(StoreError::Stream(_)) => rejected += 1,
            Err(e) => return err(format!("ingest failed at seq {}: {e}", store.seq())),
        }
    }
    let total = store.seq();
    let ott = store.finish().map_err(|e| CliError(format!("closing store: {e}")))?;
    let _ = writeln!(
        out,
        "ingested {ingested} readings ({skip} already durable, {rejected} rejected); \
         {total} total in WAL"
    );
    let _ = writeln!(out, "OTT: {} records for {} objects", ott.len(), ott.object_count());
    if let Some(path) = args.flags.get("out") {
        write_file_atomic(path, |buf| write_table_csv(buf, &ott))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

fn cmd_recover(args: &Args) -> Result<String, CliError> {
    let store_dir: PathBuf = args.require("store")?;
    let mut rec = crate::obs::Recorder::enabled();
    let span = rec.enter("recover");
    let (store, report) =
        IngestStore::open(StdFs, &store_dir, fresh_tracker(args)?, StoreOptions::default())
            .map_err(|e| CliError(format!("opening store {}: {e}", store_dir.display())))?;
    rec.exit(span);
    rec.add(crate::obs::Counter::RecoveryWalReplayed, report.wal_replayed);
    rec.add(crate::obs::Counter::RecoveryTruncatedBytes, report.wal_truncated_bytes);
    rec.add(crate::obs::Counter::RecoverySnapshotsRejected, report.snapshots_rejected);
    rec.add(crate::obs::Counter::RecoveryReplayRejected, report.replay_rejected);

    let mut out = report.render();
    let seq = store.seq();
    let tracker = store.into_tracker().map_err(|e| CliError(format!("closing store: {e}")))?;
    let ott =
        tracker.snapshot().map_err(|e| CliError(format!("recovered state inconsistent: {e}")))?;
    let _ = writeln!(
        out,
        "recovered state: {seq} durable readings, {} records for {} objects",
        ott.len(),
        ott.object_count()
    );
    if let Some(path) = args.flags.get("out") {
        write_file_atomic(path, |buf| write_table_csv(buf, &ott))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(append_profile(out, rec.finish().as_ref(), args))
}

/// Opens the store for offline maintenance: normal crash recovery plus
/// a scrub budget wide enough to cover every segment in one pass.
fn open_store_for_maintenance(
    args: &Args,
    store_dir: &Path,
    budget: usize,
) -> Result<(IngestStore<StdFs>, RecoveryReport), CliError> {
    let opts = StoreOptions { scrub_budget: budget.max(1), ..StoreOptions::default() };
    IngestStore::open(StdFs, store_dir, fresh_tracker(args)?, opts)
        .map_err(|e| CliError(format!("opening store {}: {e}", store_dir.display())))
}

fn cmd_fsck(args: &Args) -> Result<String, CliError> {
    let store_dir: PathBuf = args.require("store")?;
    let report = crate::tracking::store::scrub::fsck(&StdFs, &store_dir)
        .map_err(|e| CliError(format!("fsck {}: {e}", store_dir.display())))?;
    let mut out = report.render();
    if report.healthy() {
        return Ok(out);
    }
    if !args.switch("repair") {
        let _ = writeln!(out, "(rerun with --repair to re-seal damaged segments from the WAL)");
        return Err(CliError(out));
    }
    // Repair: crash recovery fixes the WAL tail and a corrupt manifest;
    // a full-coverage scrub pass quarantines damaged segments; repair
    // re-seals them from the recovered closed log (byte-identical —
    // sealing is deterministic); stale snapshots are swept.
    let (mut store, recovery) = open_store_for_maintenance(args, &store_dir, usize::MAX)?;
    out.push_str(&recovery.render());
    let scrub = store.scrub_pass().map_err(|e| CliError(format!("scrub pass: {e}")))?;
    out.push_str(&scrub.render());
    let (repaired, unrepairable) =
        store.repair_segments().map_err(|e| CliError(format!("segment repair: {e}")))?;
    let snaps_removed =
        store.remove_invalid_snapshots().map_err(|e| CliError(format!("snapshot sweep: {e}")))?;
    let _ = writeln!(
        out,
        "repaired {repaired} segment(s) ({unrepairable} unrepairable), \
         removed {snaps_removed} invalid snapshot(s)"
    );
    drop(store);
    let after = crate::tracking::store::scrub::fsck(&StdFs, &store_dir)
        .map_err(|e| CliError(format!("post-repair fsck {}: {e}", store_dir.display())))?;
    out.push_str(&after.render());
    if after.healthy() {
        Ok(out)
    } else {
        Err(CliError(out))
    }
}

fn cmd_scrub(args: &Args) -> Result<String, CliError> {
    let store_dir: PathBuf = args.require("store")?;
    let budget: usize = args.get("budget")?.unwrap_or(usize::MAX);
    let (mut store, _recovery) = open_store_for_maintenance(args, &store_dir, budget)?;
    let report = store.scrub_pass().map_err(|e| CliError(format!("scrub pass: {e}")))?;
    let mut out = report.render();
    if args.switch("repair") && store.manifest().quarantined_segments() > 0 {
        let (repaired, unrepairable) =
            store.repair_segments().map_err(|e| CliError(format!("segment repair: {e}")))?;
        let _ = writeln!(out, "repaired {repaired} segment(s), {unrepairable} unrepairable");
    }
    let remaining = store.manifest().quarantined_segments();
    if remaining > 0 {
        let _ = writeln!(
            out,
            "{remaining} segment(s) remain quarantined ({} row(s) excluded from answers)",
            store.manifest().quarantined_rows()
        );
        return Err(CliError(out));
    }
    Ok(out)
}

/// The server configuration shared by `serve`, `record` and `replay`.
/// Replays must run under the exact configuration of the recording run,
/// so all three commands accept the same flags through this one path.
fn serve_config(args: &Args, store_dir: PathBuf) -> Result<ServeConfig, CliError> {
    let max_gap: f64 = args.get("max-gap")?.unwrap_or(60.0);
    if !(max_gap > 0.0 && max_gap.is_finite()) {
        return err("--max-gap must be positive and finite");
    }
    // 0 disables the segment tier / background scrubbing.
    let compact_every: u64 = args.get("compact-every")?.unwrap_or(4096);
    let scrub_every: u64 = args.get("scrub-every")?.unwrap_or(1024);
    let cfg = ServeConfig {
        shards: args.get("shards")?.unwrap_or(2),
        max_gap,
        lateness: args.get("lateness")?,
        ur: UrConfig {
            vmax: args.get("vmax")?.unwrap_or(1.1),
            resolution: GridResolution::COARSE,
            ..UrConfig::default()
        },
        store_dir,
        sync_each_reading: !args.switch("no-sync"),
        snapshot_every: Some(args.get("snapshot-every")?.unwrap_or(1024)),
        compact_every: (compact_every > 0).then_some(compact_every),
        scrub_every: (scrub_every > 0).then_some(scrub_every),
        pool: args.get("pool")?.unwrap_or(4),
        port: args.get("port")?.unwrap_or(0),
        trace: !args.switch("no-trace"),
        slow_ms: args.get("slow-ms")?.unwrap_or(10),
        flight_capacity: args.get("flight-capacity")?.unwrap_or(4096),
        max_queue: args.get("max-queue")?.unwrap_or(16_384),
        max_conns: args.get("max-conns")?.unwrap_or(1024),
    };
    if cfg.shards == 0 || cfg.pool == 0 {
        return err("--shards and --pool must be at least 1");
    }
    if cfg.max_conns == 0 {
        return err("--max-conns must be at least 1");
    }
    Ok(cfg)
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let plan = load_plan(args)?;
    let store_dir: PathBuf = args.require("store")?;
    let cfg = serve_config(args, store_dir)?;
    let handle = Server::start(Arc::new(IndoorContext::new(plan)), cfg)
        .map_err(|e| CliError(format!("starting server: {e}")))?;
    let addr = handle.addr();
    // The listening line must reach the user (and any script polling
    // --addr-file) *before* the blocking wait, so it cannot ride on the
    // returned string.
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = args.flags.get("addr-file") {
        write_file_atomic(path, |buf: &mut Vec<u8>| -> Result<(), std::io::Error> {
            buf.extend_from_slice(addr.to_string().as_bytes());
            Ok(())
        })?;
    }
    let metrics = handle.metrics();
    handle.wait();
    Ok(format!("server stopped\n{}", metrics.render()))
}

/// The `--pois 1,2,3` list (empty = all plan POIs, resolved server-side).
fn parse_pois(args: &Args) -> Result<Vec<PoiId>, CliError> {
    let Some(list) = args.flags.get("pois") else { return Ok(Vec::new()) };
    list.split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map(PoiId)
                .map_err(|_| CliError(format!("bad POI id '{s}' in --pois")))
        })
        .collect()
}

/// The subscription/query spec from `--t` or `--ts`/`--te`, modulated
/// into the probabilistic kinds by `--kq` (count distribution) and
/// `--min-dwell` (long visit).
fn parse_subspec(args: &Args) -> Result<Option<SubSpec>, CliError> {
    let kq: Option<u32> = args.get("kq")?;
    let dwell: Option<f64> = args.get("min-dwell")?;
    let kind = match (args.get::<f64>("t")?, args.get::<f64>("ts")?, args.get::<f64>("te")?) {
        (Some(t), None, None) => match kq {
            Some(kq) => {
                if kq == 0 {
                    return err("--kq must be at least 1");
                }
                SubKind::Distrib { t, kq, kmax: parse_kmax(args)? }
            }
            None => SubKind::Snapshot { t },
        },
        (None, Some(ts), Some(te)) => {
            if te < ts {
                return err("--te must not precede --ts");
            }
            match dwell {
                Some(d) => {
                    if !(d >= 0.0 && d.is_finite()) {
                        return err("--min-dwell must be finite and non-negative");
                    }
                    SubKind::LongVisit { ts, te, d }
                }
                None => SubKind::Interval { ts, te },
            }
        }
        (None, None, None) => return Ok(None),
        _ => return err("give either --t, or both --ts and --te"),
    };
    if kq.is_some() && !matches!(kind, SubKind::Distrib { .. }) {
        return err("--kq needs --t (count distributions are snapshot-time queries)");
    }
    if dwell.is_some() && !matches!(kind, SubKind::LongVisit { .. }) {
        return err("--min-dwell needs --ts and --te");
    }
    let epsilon: f64 = args.get("epsilon")?.unwrap_or(0.0);
    if !(epsilon >= 0.0 && epsilon.is_finite()) {
        return err("--epsilon must be finite and non-negative");
    }
    Ok(Some(SubSpec { kind, k: args.get("k")?.unwrap_or(10), epsilon, pois: parse_pois(args)? }))
}

/// The `--kmax` convolution truncation bound (default 32).
fn parse_kmax(args: &Args) -> Result<u32, CliError> {
    let kmax: u32 = args.get("kmax")?.unwrap_or(32);
    if kmax == 0 {
        return err("--kmax must be at least 1");
    }
    Ok(kmax)
}

/// One `kind:key=value,...` item of the `--subs` list (see usage). The
/// compact form lets `inflow record` register several subscriptions of
/// different kinds in one run, so a recorded workload can exercise every
/// answer family through the replay machinery.
fn parse_sub_compact(item: &str, pois: &[PoiId]) -> Result<SubSpec, CliError> {
    let item = item.trim();
    let (kind_name, rest) = item.split_once(':').unwrap_or((item, ""));
    let mut kv: HashMap<&str, f64> = HashMap::new();
    for pair in rest.split(',').filter(|p| !p.trim().is_empty()) {
        let Some((key, value)) = pair.split_once('=') else {
            return err(format!("--subs item '{item}': expected key=value, got '{pair}'"));
        };
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| CliError(format!("--subs item '{item}': bad value in '{pair}'")))?;
        kv.insert(key.trim(), value);
    }
    fn need(kv: &mut HashMap<&str, f64>, item: &str, key: &str) -> Result<f64, CliError> {
        kv.remove(key).ok_or_else(|| CliError(format!("--subs item '{item}' needs {key}=")))
    }
    let kind = match kind_name {
        "snapshot" => SubKind::Snapshot { t: need(&mut kv, item, "t")? },
        "interval" => {
            SubKind::Interval { ts: need(&mut kv, item, "ts")?, te: need(&mut kv, item, "te")? }
        }
        "distrib" => SubKind::Distrib {
            t: need(&mut kv, item, "t")?,
            kq: need(&mut kv, item, "kq")?.max(1.0) as u32,
            kmax: kv.remove("kmax").unwrap_or(32.0).max(1.0) as u32,
        },
        "longvisit" => SubKind::LongVisit {
            ts: need(&mut kv, item, "ts")?,
            te: need(&mut kv, item, "te")?,
            d: need(&mut kv, item, "d")?,
        },
        other => {
            return err(format!(
                "--subs item '{item}': unknown kind '{other}' \
                 (use snapshot|interval|distrib|longvisit)"
            ))
        }
    };
    let k = kv.remove("k").unwrap_or(10.0) as usize;
    let epsilon = kv.remove("epsilon").unwrap_or(0.0);
    if let Some(extra) = kv.keys().next() {
        return err(format!("--subs item '{item}': unknown key '{extra}'"));
    }
    Ok(SubSpec { kind, k, epsilon, pois: pois.to_vec() })
}

fn format_ranked(ranked: &[(PoiId, f64)]) -> String {
    if ranked.is_empty() {
        return "(empty)".to_string();
    }
    ranked.iter().map(|&(p, f)| format!("{p}={f:.3}")).collect::<Vec<_>>().join(", ")
}

/// The client socket timeout from `--timeout-ms` (default 30s, `0` to
/// disable). A hung or partitioned server then surfaces as a typed
/// timeout error instead of a read that blocks forever.
fn client_timeout(args: &Args) -> Result<Option<std::time::Duration>, CliError> {
    let ms: u64 = args.get("timeout-ms")?.unwrap_or(30_000);
    Ok((ms > 0).then(|| std::time::Duration::from_millis(ms)))
}

fn cmd_watch(args: &Args) -> Result<String, CliError> {
    let addr: std::net::SocketAddr = args.require("addr")?;
    let mut client = Client::connect_with(addr, client_timeout(args)?)
        .map_err(|e| CliError(format!("connecting to {addr}: {e}")))?;
    let mut out = String::new();

    let sub = match parse_subspec(args)? {
        Some(spec) => {
            let id = client.subscribe(&spec).map_err(|e| CliError(format!("subscribe: {e}")))?;
            let _ = writeln!(
                out,
                "subscribed #{id}: {:?} k={} epsilon={}",
                spec.kind, spec.k, spec.epsilon
            );
            Some((id, spec))
        }
        None => None,
    };

    if let Some(path) = args.flags.get("publish") {
        let file =
            File::open(path).map_err(|e| CliError(format!("cannot open readings {path}: {e}")))?;
        let readings = read_readings_csv(&mut BufReader::new(file))
            .map_err(|e| CliError(format!("bad readings file: {e}")))?;
        let chunk: usize = args.get("chunk")?.unwrap_or(256);
        if chunk == 0 {
            return err("--chunk must be at least 1");
        }
        for batch in readings.chunks(chunk) {
            client.publish(batch).map_err(|e| CliError(format!("publish: {e}")))?;
            client.barrier().map_err(|e| CliError(format!("barrier: {e}")))?;
            for u in client.take_updates() {
                let _ = writeln!(
                    out,
                    "update sub=#{} seq={}: {}",
                    u.sub_id,
                    u.seq,
                    format_ranked(&u.ranked)
                );
            }
        }
        let _ = writeln!(out, "published {} readings", readings.len());
    } else {
        // No stream of our own: sync once so any initial subscription
        // result is in the buffer.
        client.barrier().map_err(|e| CliError(format!("barrier: {e}")))?;
        for u in client.take_updates() {
            let _ = writeln!(
                out,
                "update sub=#{} seq={}: {}",
                u.sub_id,
                u.seq,
                format_ranked(&u.ranked)
            );
        }
    }

    if let Some((id, spec)) = &sub {
        let current = client.current(*id).map_err(|e| CliError(format!("current: {e}")))?;
        let _ = writeln!(out, "current sub=#{id}: {}", format_ranked(&current));
        if args.switch("detail") {
            if !matches!(spec.kind, SubKind::Distrib { .. }) {
                return err("--detail needs a count-distribution subscription (--t with --kq)");
            }
            let json = client.distrib_json(spec).map_err(|e| CliError(format!("distrib: {e}")))?;
            let _ = writeln!(out, "{json}");
        }
    }
    if args.switch("stats") {
        out.push_str(&client.stats().map_err(|e| CliError(format!("stats: {e}")))?);
    }
    if args.switch("shutdown") {
        client.shutdown_server().map_err(|e| CliError(format!("shutdown: {e}")))?;
        let _ = writeln!(out, "server shutdown requested");
    }
    if sub.is_none()
        && !args.flags.contains_key("publish")
        && !args.switch("stats")
        && !args.switch("shutdown")
    {
        return err("watch needs at least one of --t/--ts+--te, --publish, --stats, --shutdown");
    }
    Ok(out)
}

/// `inflow record`: drive a fresh server through a readings file — with
/// an optional chaos schedule — and write the replayable `IFRPL001`
/// session log with a state digest at every barrier.
fn cmd_record(args: &Args) -> Result<String, CliError> {
    let plan = load_plan(args)?;
    let store_dir: PathBuf = args.require("store")?;
    // A replay always starts from an empty store; a recording taken over
    // recovered state would therefore diverge at the very first barrier.
    if store_dir.exists()
        && store_dir
            .read_dir()
            .map_err(|e| CliError(format!("reading {}: {e}", store_dir.display())))?
            .next()
            .is_some()
    {
        return err(format!(
            "--store {} is not empty; record needs a fresh store directory",
            store_dir.display()
        ));
    }
    let readings_path: PathBuf = args.require("readings")?;
    let file = File::open(&readings_path)
        .map_err(|e| CliError(format!("cannot open readings {}: {e}", readings_path.display())))?;
    let readings = read_readings_csv(&mut BufReader::new(file))
        .map_err(|e| CliError(format!("bad readings file: {e}")))?;
    if readings.is_empty() {
        return err("readings file is empty; nothing to record");
    }
    let out_path: PathBuf = args.require("out")?;
    let cfg = serve_config(args, store_dir.clone())?;
    let shards = cfg.shards as u32;
    let chunk: usize = args.get("chunk")?.unwrap_or(64);
    let barrier_every: usize = args.get("barrier-every")?.unwrap_or(8);
    if chunk == 0 || barrier_every == 0 {
        return err("--chunk and --barrier-every must be at least 1");
    }
    let publishes = readings.len().div_ceil(chunk) as u64;
    let logical_ops = publishes + publishes / barrier_every as u64;
    let fault_plan = if let Some(spec) = args.flags.get("faults") {
        if args.flags.contains_key("fault-seed") {
            return err("give either --faults or --fault-seed, not both");
        }
        FaultPlan::parse(spec).map_err(|e| CliError(format!("bad --faults: {e}")))?
    } else if let Some(seed) = args.get::<u64>("fault-seed")? {
        let count: usize = args.get("fault-count")?.unwrap_or(3);
        FaultPlan::generate(seed, logical_ops.max(1), shards, count)
    } else {
        FaultPlan::default()
    };
    let faults = fault_plan.events.len();
    let mut subs: Vec<SubSpec> = parse_subspec(args)?.into_iter().collect();
    if let Some(list) = args.flags.get("subs") {
        let pois = parse_pois(args)?;
        for item in list.split(';').filter(|s| !s.trim().is_empty()) {
            subs.push(parse_sub_compact(item, &pois)?);
        }
    }
    let handle = Server::start(Arc::new(IndoorContext::new(plan)), cfg)
        .map_err(|e| CliError(format!("starting server: {e}")))?;
    let result = record_run(
        &handle,
        store_dir,
        &readings,
        &RecordOptions { chunk, barrier_every, subs, plan: fault_plan },
    );
    handle.shutdown();
    handle.wait();
    let log = result.map_err(|e| CliError(format!("recording: {e}")))?;
    let bytes = log.to_bytes();
    write_file_atomic(&out_path, |buf: &mut Vec<u8>| -> Result<(), std::io::Error> {
        buf.extend_from_slice(&bytes);
        Ok(())
    })?;
    Ok(format!(
        "recorded {} readings as {} ops ({publishes} publishes, {} barriers, {faults} faults)\n\
         wrote {} ({} bytes)\n",
        readings.len(),
        log.ops.len(),
        log.barriers(),
        out_path.display(),
        bytes.len()
    ))
}

/// `inflow replay`: re-drive a recorded log against a fresh server and
/// verify the state digest at every barrier. Divergence is a non-zero
/// exit carrying the typed report; `--bisect` additionally shrinks the
/// log to its minimal diverging prefix and writes it to `--out`.
fn cmd_replay(args: &Args) -> Result<String, CliError> {
    let plan = load_plan(args)?;
    let log_path: PathBuf = args.require("log")?;
    let bytes = std::fs::read(&log_path)
        .map_err(|e| CliError(format!("cannot read log {}: {e}", log_path.display())))?;
    let log = ReplayLog::parse(&bytes)
        .map_err(|e| CliError(format!("log {}: {e}", log_path.display())))?;
    let base: PathBuf = args.require("store")?;
    let cfg = serve_config(args, base.clone())?;
    if log.meta.shards != 0 && cfg.shards as u32 != log.meta.shards {
        return err(format!(
            "log was recorded with {} shards but --shards is {}; a replay must run \
             the recording's configuration",
            log.meta.shards, cfg.shards
        ));
    }
    let ctx = Arc::new(IndoorContext::new(plan));
    // Each probe (the replay itself, then every bisect step) gets a
    // pristine store under --store; stale probe dirs are cleared so a
    // rerun cannot recover into yesterday's state.
    let mut probe = 0u32;
    let mut start_server = || -> std::io::Result<(crate::service::ServerHandle, PathBuf)> {
        probe += 1;
        let dir = base.join(format!("replay-{probe}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        let mut probe_cfg = cfg.clone();
        probe_cfg.store_dir = dir.clone();
        probe_cfg.port = 0;
        let handle = Server::start(Arc::clone(&ctx), probe_cfg)?;
        Ok((handle, dir))
    };
    if args.switch("bisect") {
        match bisect(&log, &mut start_server).map_err(|e| CliError(format!("replay: {e}")))? {
            None => Ok(format!(
                "replay clean: {} ops, {} barriers verified, no divergence\n",
                log.ops.len(),
                log.barriers()
            )),
            Some(found) => {
                let minimal = found.minimal.to_bytes();
                let out_path = match args.flags.get("out") {
                    Some(p) => PathBuf::from(p),
                    None => PathBuf::from(format!("{}.min", log_path.display())),
                };
                write_file_atomic(&out_path, |buf: &mut Vec<u8>| -> Result<(), std::io::Error> {
                    buf.extend_from_slice(&minimal);
                    Ok(())
                })?;
                err(format!(
                    "first diverging barrier: {} ({})\n\
                     minimal diverging prefix: {} ops, wrote {}",
                    found.first_diverging_barrier,
                    match found.prior_prefix_clean {
                        Some(true) => "prefix one barrier shorter replays clean",
                        Some(false) => "warning: one barrier shorter also diverges",
                        None => "divergence is at the first barrier",
                    },
                    found.minimal.ops.len(),
                    out_path.display()
                ))
            }
        }
    } else {
        let report =
            replay(&log, &mut start_server).map_err(|e| CliError(format!("replay: {e}")))?;
        match report.divergence {
            None => Ok(format!(
                "replay clean: {} ops, {} barriers verified, no divergence\n",
                log.ops.len(),
                report.barriers_checked
            )),
            Some(div) => err(format!("{div}\n(rerun with --bisect to shrink the log)")),
        }
    }
}

/// One validated `METRICS` snapshot, reduced to what the dashboard
/// shows. Parsing is strict on purpose: `top --once` is the smoke
/// test's canary for malformed telemetry, so any missing or mistyped
/// field is an error, not a blank cell.
struct TopSnapshot {
    uptime_ns: u64,
    counters: Vec<(String, u64)>,
    /// (name, unit, count, mean, p50, p99, max)
    histograms: Vec<(String, String, u64, f64, u64, u64, u64)>,
    /// (shard index, queue depth)
    shards: Vec<(u64, u64)>,
}

fn snapshot_field<'a>(
    v: &'a crate::obs::Json,
    key: &str,
    ctx: &str,
) -> Result<&'a crate::obs::Json, CliError> {
    v.get(key).ok_or_else(|| CliError(format!("malformed metrics snapshot: {ctx} missing '{key}'")))
}

fn snapshot_u64(v: &crate::obs::Json, key: &str, ctx: &str) -> Result<u64, CliError> {
    snapshot_field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| CliError(format!("malformed metrics snapshot: {ctx} '{key}' is not a u64")))
}

/// Parses and validates a `METRICS` reply. Beyond field presence, this
/// checks the invariants the snapshot format promises: histogram bucket
/// counts sum to the series count, and every bucket has `lo <= hi`.
fn parse_top_snapshot(raw: &str) -> Result<TopSnapshot, CliError> {
    let json = crate::obs::Json::parse(raw)
        .map_err(|e| CliError(format!("malformed metrics snapshot: {e}")))?;
    let version = snapshot_u64(&json, "version", "snapshot")?;
    if version != 1 {
        return err(format!("unsupported metrics snapshot version {version}"));
    }
    let uptime_ns = snapshot_u64(&json, "uptime_ns", "snapshot")?;
    snapshot_u64(&json, "slow_threshold_ns", "snapshot")?;

    let counters_obj =
        snapshot_field(&json, "counters", "snapshot")?.as_obj().ok_or_else(|| {
            CliError("malformed metrics snapshot: 'counters' is not an object".into())
        })?;
    let mut counters = Vec::new();
    for (name, v) in counters_obj {
        let v = v.as_u64().ok_or_else(|| {
            CliError(format!("malformed metrics snapshot: counter '{name}' is not a u64"))
        })?;
        counters.push((name.clone(), v));
    }

    let hists = snapshot_field(&json, "histograms", "snapshot")?.as_arr().ok_or_else(|| {
        CliError("malformed metrics snapshot: 'histograms' is not an array".into())
    })?;
    let mut histograms = Vec::new();
    for h in hists {
        let name = snapshot_field(h, "name", "histogram")?
            .as_str()
            .ok_or_else(|| CliError("malformed metrics snapshot: histogram name".into()))?
            .to_string();
        let unit = snapshot_field(h, "unit", "histogram")?
            .as_str()
            .ok_or_else(|| {
                CliError(format!("malformed metrics snapshot: histogram '{name}' unit"))
            })?
            .to_string();
        let count = snapshot_u64(h, "count", &name)?;
        let mean = snapshot_field(h, "mean", &name)?
            .as_f64()
            .ok_or_else(|| CliError(format!("malformed metrics snapshot: '{name}' mean")))?;
        let p50 = snapshot_u64(h, "p50", &name)?;
        let p99 = snapshot_u64(h, "p99", &name)?;
        let max = snapshot_u64(h, "max", &name)?;
        let buckets = snapshot_field(h, "buckets", &name)?
            .as_arr()
            .ok_or_else(|| CliError(format!("malformed metrics snapshot: '{name}' buckets")))?;
        let mut bucket_total = 0u64;
        for b in buckets {
            let lo = snapshot_u64(b, "lo", &name)?;
            let hi = snapshot_u64(b, "hi", &name)?;
            let n = snapshot_u64(b, "n", &name)?;
            if lo > hi {
                return err(format!(
                    "malformed metrics snapshot: '{name}' bucket has lo {lo} > hi {hi}"
                ));
            }
            bucket_total = bucket_total.saturating_add(n);
        }
        if bucket_total != count {
            return err(format!(
                "malformed metrics snapshot: '{name}' buckets sum to {bucket_total}, count is {count}"
            ));
        }
        histograms.push((name, unit, count, mean, p50, p99, max));
    }

    let shard_arr = snapshot_field(&json, "shards", "snapshot")?
        .as_arr()
        .ok_or_else(|| CliError("malformed metrics snapshot: 'shards' is not an array".into()))?;
    let mut shards = Vec::new();
    for s in shard_arr {
        shards
            .push((snapshot_u64(s, "shard", "shards")?, snapshot_u64(s, "queue_depth", "shards")?));
    }

    Ok(TopSnapshot { uptime_ns, counters, histograms, shards })
}

/// Scales nanoseconds into a human unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders one dashboard frame. `prev` (the previous poll's counters
/// and the seconds elapsed since it) turns monotone counters into
/// per-second rates.
fn render_top(
    addr: &std::net::SocketAddr,
    snap: &TopSnapshot,
    prev: Option<(&[(String, u64)], f64)>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "inflow top — {addr}  up {:.1}s", snap.uptime_ns as f64 / 1e9);
    out.push_str("\ncounters (nonzero):\n");
    for (name, v) in &snap.counters {
        if *v == 0 {
            continue;
        }
        let rate = prev.and_then(|(p, dt)| {
            let old = p.iter().find(|(n, _)| n == name).map(|&(_, v)| v)?;
            (dt > 0.0).then(|| (v.saturating_sub(old)) as f64 / dt)
        });
        match rate {
            Some(r) => {
                let _ = writeln!(out, "  {name:<28} {v:>12}  {r:>10.1}/s");
            }
            None => {
                let _ = writeln!(out, "  {name:<28} {v:>12}");
            }
        }
    }
    out.push_str("\nlatency / value series:\n");
    let _ = writeln!(
        out,
        "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "series", "count", "mean", "p50", "p99", "max"
    );
    for (name, unit, count, mean, p50, p99, max) in &snap.histograms {
        if *count == 0 {
            continue;
        }
        if unit == "ns" {
            let _ = writeln!(
                out,
                "  {name:<24} {count:>8} {:>10} {:>10} {:>10} {:>10}",
                fmt_ns(*mean as u64),
                fmt_ns(*p50),
                fmt_ns(*p99),
                fmt_ns(*max),
            );
        } else {
            let _ = writeln!(
                out,
                "  {name:<24} {count:>8} {mean:>10.1} {p50:>10} {p99:>10} {max:>10}  ({unit})"
            );
        }
    }
    // Always-on store summary (even all-zero): the one-line health view
    // of snapshots, compaction and scrubbing across every shard store.
    let counter =
        |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0);
    let _ = writeln!(
        out,
        "\nsnapshots: {} written ({} bytes)\n\
         segment tier: {} compaction(s) ({} sealed, {} merged); \
         {} scrub pass(es), {} corruption(s), {} quarantined",
        counter("store_snapshots"),
        counter("store_snapshot_bytes"),
        counter("store_compactions"),
        counter("segments_sealed"),
        counter("segments_merged"),
        counter("scrub_passes"),
        counter("scrub_corruptions"),
        counter("segments_quarantined"),
    );
    // Subscriptions by answer kind: how the serving load splits across
    // the expected-flow and probabilistic families.
    let _ = writeln!(
        out,
        "subscriptions by kind: {} snapshot, {} interval, {} distrib, {} longvisit \
         ({} distrib detail queries)",
        counter("serve_snapshot_subscriptions"),
        counter("serve_interval_subscriptions"),
        counter("serve_distrib_subscriptions"),
        counter("serve_longvisit_subscriptions"),
        counter("serve_distrib_queries"),
    );
    out.push_str("\nshard queues:\n  ");
    for (i, d) in &snap.shards {
        let _ = write!(out, "#{i}:{d} ");
    }
    out.push('\n');
    out
}

fn cmd_top(args: &Args) -> Result<String, CliError> {
    let addr: std::net::SocketAddr = args.require("addr")?;
    let once = args.switch("once");
    let interval: f64 = args.get("interval")?.unwrap_or(1.0);
    if !(interval > 0.0 && interval.is_finite()) {
        return err("--interval must be positive and finite");
    }
    let count: u64 = match args.get::<u64>("count")? {
        Some(0) => return err("--count must be at least 1"),
        Some(n) => n,
        None if once => 1,
        None => u64::MAX,
    };
    let mut client = Client::connect_with(addr, client_timeout(args)?)
        .map_err(|e| CliError(format!("connecting to {addr}: {e}")))?;
    let mut prev: Option<(Vec<(String, u64)>, std::time::Instant)> = None;
    let mut frame = 0u64;
    loop {
        let raw = client.metrics_json().map_err(|e| CliError(format!("metrics: {e}")))?;
        let snap = parse_top_snapshot(&raw)?;
        let now = std::time::Instant::now();
        let text = render_top(
            &addr,
            &snap,
            prev.as_ref().map(|(c, at)| (c.as_slice(), now.duration_since(*at).as_secs_f64())),
        );
        frame += 1;
        if once || frame >= count {
            // Final frame rides the return value so `main` prints it —
            // and so tests and the smoke script capture it.
            return Ok(text);
        }
        // Live mode: clear, redraw, sleep, poll again.
        print!("\x1b[2J\x1b[H{text}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = Some((snap.counters, now));
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// Convenience for tests: runs with string arguments.
pub fn run_str(args: &[&str]) -> Result<String, CliError> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&owned)
}
