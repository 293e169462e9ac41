//! CLI for `inflow-lint`.
//!
//! ```text
//! inflow-lint [--json] [--allow FILE] [--root DIR] [--baseline JSON] [--strict-unused]
//! ```
//!
//! Exit codes: 0 = clean (possibly with suppressions), 1 = findings,
//! 2 = usage / I/O / malformed allowlist or baseline. Unused allowlist
//! entries are warnings on stderr by default; `--strict-unused` turns
//! them into failures so CI keeps the baseline live — an entry that
//! suppresses nothing is a fixed finding whose tombstone must go.
//!
//! `--baseline` points at a previous `--json` run; findings present
//! there (same lint, path, line) are reported as baselined rather than
//! failing the run, so a rule rollout can land before its burn-down
//! completes without hiding *new* regressions.

use std::collections::HashSet;
use std::path::PathBuf;

use inflow_lint::{analyze, collect_sources, discover_root, json_escape, Allowlist, Finding};

/// Version of the `--json` output shape. Bump when fields change
/// meaning; consumers (CI diffing, dashboards) check it before parsing.
const JSON_SCHEMA: u32 = 2;

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut json = false;
    let mut strict_unused = false;
    let mut allow_path: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--strict-unused" => strict_unused = true,
            "--allow" => match args.next() {
                Some(p) => allow_path = Some(PathBuf::from(p)),
                None => return usage("--allow requires a file path"),
            },
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => return usage("--root requires a directory"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage("--baseline requires a JSON file path"),
            },
            "-h" | "--help" => {
                println!(
                    "inflow-lint: workspace invariant checker (IL001-IL006, IL008, IL009)\n\n\
                     usage: inflow-lint [--json] [--allow FILE] [--root DIR] \
                     [--baseline JSON] [--strict-unused]\n\n\
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

    let mut allowlist = Allowlist::default();
    let allow_file = allow_path.or_else(|| {
        let default = root.join("lint.allow");
        default.is_file().then_some(default)
    });
    if let Some(path) = allow_file {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("inflow-lint: cannot read {}: {e}", path.display());
                return 2;
            }
        };
        allowlist = match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("inflow-lint: {e}");
                return 2;
            }
        };
    }

    let baseline: HashSet<(String, String, u32)> = match &baseline_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("inflow-lint: cannot read baseline {}: {e}", path.display());
                    return 2;
                }
            };
            match parse_baseline(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("inflow-lint: baseline {}: {e}", path.display());
                    return 2;
                }
            }
        }
        None => HashSet::new(),
    };

    let all = analyze(&files);
    let mut active: Vec<&Finding> = Vec::new();
    let mut suppressed = 0usize;
    let mut baselined = 0usize;
    for f in &all {
        if allowlist.suppresses(f) {
            suppressed += 1;
        } else if baseline.contains(&(f.lint.to_string(), f.path.clone(), f.line)) {
            baselined += 1;
        } else {
            active.push(f);
        }
    }

    let unused = allowlist.unused();
    for e in &unused {
        let verdict = if strict_unused { "error" } else { "warning" };
        eprintln!(
            "inflow-lint: {verdict}: unused lint.allow entry (line {}): {} {} — remove it",
            e.at, e.lint, e.path
        );
    }

    if json {
        let mut out = format!("{{\"schema\":{JSON_SCHEMA},\"findings\":[");
        for (i, f) in active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"lint\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"hint\":\"{}\"}}",
                f.lint,
                json_escape(&f.path),
                f.line,
                json_escape(&f.message),
                json_escape(f.hint)
            ));
        }
        out.push_str(&format!(
            "],\"suppressed\":{suppressed},\"baselined\":{baselined},\"files\":{}}}",
            files.len()
        ));
        println!("{out}");
    } else {
        for f in &active {
            println!("{}", f.render());
        }
        println!(
            "inflow-lint: {} finding(s), {} suppressed, {} baselined, {} files scanned",
            active.len(),
            suppressed,
            baselined,
            files.len()
        );
    }

    if !active.is_empty() || (strict_unused && !unused.is_empty()) {
        1
    } else {
        0
    }
}

/// Extracts `(lint, path, line)` keys from a previous `--json` run.
///
/// Not a general JSON parser: it walks the known output shape (objects
/// with `"lint"`, `"path"`, `"line"` fields in order) and rejects
/// anything that doesn't look like it, so a truncated or hand-edited
/// baseline fails loudly instead of silently masking nothing.
fn parse_baseline(text: &str) -> Result<HashSet<(String, String, u32)>, String> {
    if !text.trim_start().starts_with('{') {
        return Err("not a JSON object (expected inflow-lint --json output)".into());
    }
    let mut out = HashSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("{\"lint\":\"") {
        rest = &rest[at + 9..];
        let lint_end = rest.find('"').ok_or("unterminated lint id")?;
        let lint = rest[..lint_end].to_string();
        rest = &rest[lint_end..];
        let path_tag = "\"path\":\"";
        let p = rest.find(path_tag).ok_or("finding without path")?;
        rest = &rest[p + path_tag.len()..];
        let path_end = json_str_end(rest).ok_or("unterminated path")?;
        let path = json_unescape(&rest[..path_end]);
        rest = &rest[path_end..];
        let line_tag = "\"line\":";
        let l = rest.find(line_tag).ok_or("finding without line")?;
        rest = &rest[l + line_tag.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let line = digits.parse::<u32>().map_err(|_| "bad line number")?;
        out.insert((lint, path, line));
    }
    Ok(out)
}

/// Index of the closing quote of a JSON string starting at `s[0]`.
fn json_str_end(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// Minimal inverse of [`json_escape`] for the escapes it emits.
fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(u) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(u);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn usage(msg: &str) -> i32 {
    eprintln!(
        "inflow-lint: {msg}\nusage: inflow-lint [--json] [--allow FILE] [--root DIR] \
         [--baseline JSON] [--strict-unused]"
    );
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips_json_output() {
        let text = r#"{"schema":2,"findings":[
            {"lint":"IL008","path":"crates/a \"b\".rs","line":12,"message":"m","hint":"h"},
            {"lint":"IL002","path":"crates/c.rs","line":7,"message":"m","hint":"h"}
        ],"suppressed":3,"baselined":0,"files":9}"#;
        let b = parse_baseline(text).expect("parses");
        assert_eq!(b.len(), 2);
        assert!(b.contains(&("IL008".into(), "crates/a \"b\".rs".into(), 12)));
        assert!(b.contains(&("IL002".into(), "crates/c.rs".into(), 7)));
    }

    #[test]
    fn empty_findings_baseline_is_empty() {
        let b = parse_baseline(r#"{"schema":2,"findings":[],"suppressed":0,"files":9}"#)
            .expect("parses");
        assert!(b.is_empty());
    }

    #[test]
    fn garbage_baseline_is_rejected() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline(r#"{"findings":[{"lint":"IL001","line":3}]}"#).is_err());
    }
}
