//! `inflow-lint`: a zero-dependency static checker for the inflow
//! workspace's source-level invariants.
//!
//! The serving and storage layers rest on properties no unit test can
//! pin down exhaustively: no panic reachable from a durable path through
//! a call chain (IL002), no mutex guard held across I/O (IL003), a
//! single definition per format magic (IL004), and observability
//! coverage of query entry points (IL005). This crate lexes every
//! workspace source (no syn, no external dependencies — same discipline
//! as `crates/obs`) and enforces those as typed, stably-numbered lints.
//! Exemptions live in the rule that grants them, never in a side file.
//!
//! [`ast`] parses `fn` items once per file and extracts per-`fn` facts
//! (calls, lock sites, I/O sites, panic sites), [`callgraph`] resolves a
//! workspace call graph over them, [`interproc`] implements lock-order
//! cycles (IL006), delta-loop purity (IL009) and the call-chain rules
//! IL002/IL003, and [`wire`] flags unchecked wire arithmetic (IL008).
//! IL007 is retired: `tests/wire_format.rs` pins the wire format by its
//! bytes. Rules with an exact clippy counterpart moved to clippy: IL001
//! (no `partial_cmp`) and IL004's raw-parse half (no `from_le_bytes`
//! outside `store/frame.rs`) are `disallowed_methods` in `clippy.toml`,
//! and IL002's file-local half is the `#![deny(clippy::unwrap_used, …)]`
//! at the roots of `crates/service` and `crates/tracking/src/store`.
//!
//! Library layout: [`lexer`] turns source text into a token stream with
//! test-scope flags, and [`rules`] implements IL003–IL005 over it and
//! drives the whole catalog. [`collect_sources`] + [`analyze`] is the
//! whole pipeline; the binary in `main.rs` adds exit codes.

pub mod ast;
pub mod callgraph;
pub mod interproc;
pub mod lexer;
pub mod rules;
pub mod wire;

pub use rules::{analyze, Finding, SourceFile};

use std::io;
use std::path::{Path, PathBuf};

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut cur = start.canonicalize().ok()?;
    loop {
        let manifest = cur.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(cur);
                }
            }
        }
        if !cur.pop() {
            return None;
        }
    }
}

/// Collects the lintable sources of a workspace: `src/` and `examples/`
/// at the root, plus `src/` and `benches/` of every crate under
/// `crates/`. Integration `tests/` directories and fixture trees are
/// excluded — the lints guard production code, and fixtures are
/// violations on purpose.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut roots = vec![root.join("src"), root.join("examples")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            roots.push(m.join("src"));
            roots.push(m.join("benches"));
        }
    }
    let mut files = Vec::new();
    for r in roots {
        if r.is_dir() {
            walk(root, &r, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|s| s.to_str()).unwrap_or_default();
        if p.is_dir() {
            if matches!(name, "target" | "tests" | "fixtures") {
                continue;
            }
            walk(root, &p, out)?;
        } else if name.ends_with(".rs") {
            let src = std::fs::read_to_string(&p)?;
            let rel = p.strip_prefix(root).unwrap_or(&p).to_string_lossy().replace('\\', "/");
            out.push(SourceFile::new(rel, &src));
        }
    }
    Ok(())
}
