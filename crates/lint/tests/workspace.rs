//! Checks over the real workspace sources rather than fixtures.
//!
//! * The one `fn` parser (`ast::parse_fns`, run by `SourceFile::new`)
//!   finds the workspace's fns, and every body span it reports is
//!   exactly one balanced brace group. A parser that mis-tracks brace
//!   depth would silently truncate the call graph.
//! * IL002's file-local half is clippy's panic lints, denied at the roots
//!   of the serving layer and the durable store. The deny lists must keep
//!   all seven lints, and the only exceptions below those roots are the
//!   four audited `#[expect]`s.

use std::path::Path;

use inflow_lint::lexer::{Tok, TokKind};
use inflow_lint::{collect_sources, SourceFile};

fn workspace() -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = collect_sources(&root).expect("collecting workspace sources");
    assert!(files.len() > 50, "workspace walk looks truncated: {} files", files.len());
    files
}

#[test]
fn parse_fns_bodies_are_balanced_brace_groups() {
    let mut bodies = 0usize;
    let files = workspace();
    for file in &files {
        for f in &file.fns {
            let Some((lo, hi)) = f.body else { continue };
            let ctx = format!("{}:{} fn {}", file.rel, f.line, f.name);
            assert!(lo >= 1 && file.toks[lo - 1].is_punct("{"), "{ctx}: body opens after `{{`");
            assert!(file.toks.get(hi).is_some_and(|t| t.is_punct("}")), "{ctx}: body ends at `}}`");
            let mut depth = 0i64;
            for t in &file.toks[lo..hi] {
                if t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct("}") {
                    depth -= 1;
                }
                assert!(depth >= 0, "{ctx}: body closes before its end");
            }
            assert_eq!(depth, 0, "{ctx}: the closing `}}` is not the matching one");
            bodies += 1;
        }
    }
    assert!(bodies > 500, "only {bodies} fn bodies parsed — parser regression?");
}

/// Clippy's lints that carry IL002's file-local half.
const PANIC_LINTS: [&str; 7] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "indexing_slicing",
];

/// The module roots that deny [`PANIC_LINTS`].
const PANIC_FREE_ROOTS: [&str; 2] =
    ["crates/service/src/lib.rs", "crates/tracking/src/store/mod.rs"];

fn panic_free(rel: &str) -> bool {
    rel.starts_with("crates/service/src/") || rel.starts_with("crates/tracking/src/store/")
}

/// One lint-level attribute: `allow`/`expect`/`deny`, the item it sits on
/// (`module` for an inner attribute, else the name after the next `fn`),
/// and the clippy lints it names (sorted).
#[derive(Debug, PartialEq)]
struct LintAttr {
    level: String,
    item: String,
    lints: Vec<String>,
}

/// The lint-level attributes of a token stream: `level(` not preceded by
/// `.` (which would be a method call), with the `clippy::name` paths
/// inside its parenthesised group. The `restriction` group, which holds
/// all seven lints, counts as naming them.
fn lint_attrs(toks: &[Tok], level: &str) -> Vec<LintAttr> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let opens = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !t.is_ident(level) || !opens || (i > 0 && toks[i - 1].is_punct(".")) {
            continue;
        }
        let mut depth = 0i64;
        let mut close = i + 1;
        for (j, u) in toks.iter().enumerate().skip(i + 1) {
            if u.is_punct("(") {
                depth += 1;
            } else if u.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
        }
        let group = &toks[i + 1..close];
        let mut lints: Vec<String> = group
            .windows(4)
            .filter(|w| w[0].is_ident("clippy") && w[1].is_punct(":") && w[2].is_punct(":"))
            .filter(|w| w[3].kind == TokKind::Ident)
            .map(|w| w[3].text.clone())
            .filter(|l| PANIC_LINTS.contains(&l.as_str()) || l == "restriction")
            .collect();
        lints.sort();
        let inner = i >= 2 && toks[i - 1].is_punct("[") && toks[i - 2].is_punct("!");
        let item = if inner {
            "module".to_string()
        } else {
            let next_fn = toks[close..].iter().position(|u| u.is_ident("fn"));
            next_fn
                .and_then(|p| toks.get(close + p + 1))
                .map_or_else(|| "?".to_string(), |n| n.text.clone())
        };
        out.push(LintAttr { level: level.to_string(), item, lints });
    }
    out
}

#[test]
fn panic_lints_stay_denied_with_only_the_audited_exceptions() {
    let files = workspace();
    for root in PANIC_FREE_ROOTS {
        let file = files.iter().find(|f| f.rel == root).expect("module root collected");
        let denied: Vec<String> = lint_attrs(&file.toks, "deny")
            .into_iter()
            .filter(|a| a.item == "module")
            .flat_map(|a| a.lints)
            .collect();
        for lint in PANIC_LINTS {
            assert!(
                denied.iter().any(|d| d == lint),
                "{root}: `#![deny(...)]` no longer names clippy::{lint}"
            );
        }
    }

    let mut exceptions: Vec<(String, LintAttr)> = Vec::new();
    for file in files.iter().filter(|f| panic_free(&f.rel)) {
        for level in ["allow", "expect"] {
            for attr in lint_attrs(&file.toks, level) {
                if !attr.lints.is_empty() {
                    exceptions.push((file.rel.clone(), attr));
                }
            }
        }
    }
    let audited = |rel: &str, item: &str, lints: &[&str]| {
        let lints = lints.iter().map(|l| l.to_string()).collect();
        (rel.to_string(), LintAttr { level: "expect".into(), item: item.into(), lints })
    };
    let want = vec![
        audited("crates/service/src/shard.rs", "ingest_one", &["panic"]),
        audited("crates/service/src/shard.rs", "run_shard", &["panic"]),
        audited("crates/tracking/src/store/failpoint.rs", "module", &["indexing_slicing"]),
        audited(
            "crates/tracking/src/store/frame.rs",
            "module",
            &["expect_used", "indexing_slicing"],
        ),
    ];
    assert_eq!(
        exceptions, want,
        "a clippy panic-lint exception under the panic-free roots changed; \
         only the four audited #[expect]s may exist"
    );
}
