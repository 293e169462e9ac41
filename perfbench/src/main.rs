//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!  --work-dir DIR [--spans FILE]`
//!
//! Runs one workload and prints its result as the last line of standard
//! output: `{"correct", "attempted", "failed", "metrics"}`. `--work-dir`
//! holds the run's store directories (created, and removed afterwards);
//! `--spans` receives the traced run's spans as JSON lines.

use inflow_perfbench::{data, run};
use std::path::PathBuf;

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut work_dir, mut spans_out) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value()? == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--spans" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = data::spec(&name).ok_or_else(|| {
        let names: Vec<&str> = data::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    let seed: u64 = seed.ok_or("--seed is required")?;
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    let work_dir = work_dir.ok_or("--work-dir is required")?;
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let result = run(&spec, seed, seconds, trace, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let out = result?;
    if let Some(path) = spans_out {
        std::fs::write(&path, out.spans.to_jsonl())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", out.metrics.result_json(out.tally.attempted, out.tally.failed));
    Ok(())
}
