//! The `lint.allow` baseline: itemized suppressions with mandatory
//! reasons.
//!
//! Format, one entry per line (`#` comments and blank lines ignored):
//!
//! ```text
//! IL002 crates/tracking/src/store/frame.rs reason="designated bounds-checked accessor module"
//! IL002 crates/service/src/shard.rs:185 reason="crash-by-design on store failure"
//! ```
//!
//! A path without `:line` suppresses the lint for the whole file. The
//! reason string is mandatory and must be non-empty — an allowlist entry
//! is a reviewed decision, not an escape hatch. Entries that suppress
//! nothing are reported so the baseline shrinks as findings are fixed.

use crate::rules::Finding;

#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub lint: String,
    pub path: String,
    pub line: Option<u32>,
    pub reason: String,
    /// Source line in the allowlist file, for unused-entry reporting.
    pub at: usize,
}

#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

impl Allowlist {
    /// Parses allowlist text; malformed lines are hard errors so a typo
    /// cannot silently un-suppress (or over-suppress) anything.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let at = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (lint, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("lint.allow:{at}: expected `ILnnn path reason=\"..\"`"))?;
            if lint.len() != 5
                || !lint.starts_with("IL")
                || !lint[2..].bytes().all(|b| b.is_ascii_digit())
            {
                return Err(format!("lint.allow:{at}: bad lint id `{lint}` (expected ILnnn)"));
            }
            let rest = rest.trim_start();
            let (spec, rest) = rest
                .split_once(' ')
                .ok_or_else(|| format!("lint.allow:{at}: missing reason=\"..\" after path"))?;
            let reason = rest
                .trim()
                .strip_prefix("reason=\"")
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| format!("lint.allow:{at}: reason must be reason=\"..\""))?;
            if reason.trim().is_empty() {
                return Err(format!("lint.allow:{at}: empty reason — say why this is safe"));
            }
            let (path, line_no) = match spec.rsplit_once(':') {
                Some((p, n)) => match n.parse::<u32>() {
                    Ok(v) => (p.to_string(), Some(v)),
                    Err(_) => (spec.to_string(), None),
                },
                None => (spec.to_string(), None),
            };
            entries.push(AllowEntry {
                lint: lint.to_string(),
                path,
                line: line_no,
                reason: reason.trim().to_string(),
                at,
            });
        }
        let used = vec![false; entries.len()];
        Ok(Allowlist { entries, used })
    }

    /// True if some entry covers the finding; marks that entry used.
    pub fn suppresses(&mut self, f: &Finding) -> bool {
        for (i, e) in self.entries.iter().enumerate() {
            let line_matches = match e.line {
                Some(l) => l == f.line,
                None => true,
            };
            if e.lint == f.lint && e.path == f.path && line_matches {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Entries that never matched a finding in this run.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries.iter().enumerate().filter(|&(i, _)| !self.used[i]).map(|(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, path: &str, line: u32) -> Finding {
        Finding { lint, path: path.into(), line, message: String::new(), hint: "" }
    }

    #[test]
    fn file_and_line_scoped_entries() {
        let text = "\
# baseline
IL002 crates/a.rs reason=\"whole file ok\"
IL002 crates/b.rs:10 reason=\"line ten only\"
";
        let mut a = Allowlist::parse(text).expect("parses");
        assert!(a.suppresses(&finding("IL002", "crates/a.rs", 3)));
        assert!(a.suppresses(&finding("IL002", "crates/b.rs", 10)));
        assert!(!a.suppresses(&finding("IL002", "crates/b.rs", 11)));
        assert!(!a.suppresses(&finding("IL003", "crates/a.rs", 3)));
        assert!(a.unused().is_empty());
    }

    #[test]
    fn missing_or_empty_reason_is_an_error() {
        assert!(Allowlist::parse("IL002 crates/a.rs\n").is_err());
        assert!(Allowlist::parse("IL002 crates/a.rs reason=\"\"\n").is_err());
        assert!(Allowlist::parse("IL002 crates/a.rs because\n").is_err());
        assert!(Allowlist::parse("XX002 crates/a.rs reason=\"x\"\n").is_err());
    }

    #[test]
    fn unused_entries_are_reported() {
        let mut a = Allowlist::parse("IL003 x.rs reason=\"stale\"\n").expect("parses");
        assert!(!a.suppresses(&finding("IL002", "x.rs", 1)));
        assert_eq!(a.unused().len(), 1);
    }
}
