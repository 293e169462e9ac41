//! The segment-tier overhead gate: `BENCH_8.json`.
//!
//! Runs the direct store-ingest benchmark twice — once against the
//! WAL + snapshot layout alone, once with the immutable segment tier on
//! (background compaction plus the budgeted scrubber) — and writes one
//! JSON document with both sides' ingest throughput and cold-start
//! reopen time, plus the computed regression percentage and cold-start
//! ratio. Cold start is reopen to ingest-ready: restore the newest
//! snapshot's tracker state (snapshots carry no index), replay the WAL
//! tail, and reconcile the manifest. The acceptance bars are < 5% ingest
//! regression with the tier on and a tiered cold start no slower than
//! the untiered reopen.
//!
//! ```text
//! bench8 [--objects N] [--duration S] [--repeats N] [--smoke] [--out PATH]
//! ```
//!
//! Without `--out` the document goes to stdout.

use inflow_bench::{bench8_json, Scale};

fn main() {
    let mut scale = Scale::default();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--objects" => scale.objects = parse(args.next(), "--objects"),
            "--duration" => scale.duration = parse(args.next(), "--duration"),
            "--repeats" => scale.repeats = parse(args.next(), "--repeats"),
            "--smoke" => scale = Scale::smoke(),
            "--out" => out = Some(parse(args.next(), "--out")),
            "--help" | "-h" => {
                println!(
                    "bench8 — segment-tier overhead report (BENCH_8.json)\n\n\
                     usage: bench8 [--objects N] [--duration S] [--repeats N] [--smoke] [--out PATH]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (see --help)");
                std::process::exit(2);
            }
        }
    }
    let json = bench8_json(&scale);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
                eprintln!("bench8: writing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("bench8: wrote {path}");
        }
        None => println!("{json}"),
    }
}

fn parse<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}
