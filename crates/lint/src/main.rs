//! CLI for `inflow-lint`.
//!
//! ```text
//! inflow-lint [--root DIR]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage / I/O error. There is
//! no suppression file: an exemption lives in the rule that grants it
//! (`audited_leaf` in `interproc.rs`, `FRAME_MODULE` in `wire.rs`).

use std::path::PathBuf;

use inflow_lint::{analyze, collect_sources, discover_root};

const USAGE: &str = "usage: inflow-lint [--root DIR]";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => return usage("--root requires a directory"),
            },
            "-h" | "--help" => {
                println!(
                    "inflow-lint: workspace invariant checker (IL002-IL006, IL008, IL009)\n\n\
                     {USAGE}\n\n\
                     exit codes: 0 clean, 1 findings, 2 usage/io error"
                );
                return 0;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root =
        match root_arg.or_else(|| std::env::current_dir().ok().and_then(|d| discover_root(&d))) {
            Some(r) => r,
            None => {
                eprintln!("inflow-lint: no workspace root found (pass --root)");
                return 2;
            }
        };

    let files = match collect_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("inflow-lint: failed to read sources under {}: {e}", root.display());
            return 2;
        }
    };

    let findings = analyze(&files);
    for f in &findings {
        println!("{}", f.render());
    }
    println!("inflow-lint: {} finding(s), {} files scanned", findings.len(), files.len());
    i32::from(!findings.is_empty())
}

fn usage(msg: &str) -> i32 {
    eprintln!("inflow-lint: {msg}\n{USAGE}");
    2
}
