//! IL008 unchecked wire arithmetic.
//!
//! IL008 taints `let` bindings fed from raw `Cursor::u32`/`u64` reads
//! and flags `+`/`*`/`as` on them unless routed through
//! `Cursor::count`/`checked_*`/clamping — the unchecked
//! `Vec::with_capacity(n as usize)` class of bug. The wire layouts
//! themselves are pinned by their bytes in `tests/wire_format.rs`.

use crate::ast::parse_fns;
use crate::lexer::{Tok, TokKind};
use crate::rules::{Finding, SourceFile};
use std::collections::HashSet;

/// The framing module is the sanctioned raw-parse layer; its own
/// arithmetic sits behind explicit bounds checks and is exempt from
/// IL008 (consistent with its IL002/IL004 treatment).
const FRAME_MODULE: &str = "crates/tracking/src/store/frame.rs";

/// Statement ranges `[lo, hi)` within a body: split on `;`, `{`, `}`.
fn stmts(toks: &[Tok], body: (usize, usize)) -> Vec<(usize, usize)> {
    let (lo, hi) = (body.0, body.1.min(toks.len()));
    let mut out = Vec::new();
    let mut start = lo;
    for (i, t) in toks.iter().enumerate().take(hi).skip(lo) {
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            if i > start {
                out.push((start, i));
            }
            start = i + 1;
        }
    }
    if hi > start {
        out.push((start, hi));
    }
    out
}

const IL008_HINT: &str = "read counts via Cursor::count (validates against remaining \
                          payload) or clamp/check: .min(..), checked_add/checked_mul";

fn stmt_has(s: &[Tok], pred: impl Fn(&Tok) -> bool) -> bool {
    s.iter().any(pred)
}

fn clamped(s: &[Tok]) -> bool {
    stmt_has(s, |t| {
        t.kind == TokKind::Ident
            && (t.text.starts_with("checked_")
                || t.text.starts_with("saturating_")
                || t.text.starts_with("wrapping_")
                || t.text == "min"
                || t.text == "max")
    })
}

/// IL008 unchecked wire arithmetic: a `let n = c.u32("…")…` read taints
/// `n`; `+`/`*`/`as` on a tainted length — or using it to size an
/// allocation — is flagged unless the statement clamps or checks.
/// Reads routed through `Cursor::count` are pre-validated and clean.
pub fn il008_wire_arithmetic(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files {
        if file.rel == FRAME_MODULE {
            continue;
        }
        for item in parse_fns(&file.toks) {
            if item.in_test {
                continue;
            }
            let Some(body) = item.body else { continue };
            il008_body(file, body, out);
        }
    }
}

fn il008_body(file: &SourceFile, body: (usize, usize), out: &mut Vec<Finding>) {
    let toks = &file.toks;
    let mut tainted: HashSet<String> = HashSet::new();
    let mut reported: HashSet<String> = HashSet::new();
    for (lo, hi) in stmts(toks, body) {
        let s = &toks[lo..hi];
        // A raw length read: `.u32("label")` / `.u64("label")`.
        let read = s.iter().enumerate().find_map(|(i, t)| {
            (t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "u32" | "u64")
                && i > 0
                && s[i - 1].is_punct(".")
                && matches!(s.get(i + 1), Some(n) if n.is_punct("("))
                && matches!(s.get(i + 2), Some(l) if l.kind == TokKind::Str))
            .then(|| (i, s[i + 2].text.clone(), t.line))
        });
        if let Some((ri, label, line)) = read {
            let counted = s
                .iter()
                .enumerate()
                .any(|(i, t)| t.is_ident("count") && i > 0 && s[i - 1].is_punct("."));
            let arith =
                s[ri..].iter().any(|t| t.is_punct("+") || t.is_punct("*") || t.is_ident("as"));
            if arith && !clamped(s) && !counted {
                out.push(Finding {
                    lint: "IL008",
                    path: file.rel.clone(),
                    line,
                    message: format!(
                        "unchecked arithmetic/cast on wire-derived `{label}` in the same \
                         statement as the raw read"
                    ),
                    hint: IL008_HINT,
                });
            } else if !clamped(s) && !counted && s.first().is_some_and(|t| t.is_ident("let")) {
                if let Some(name) = s[1..]
                    .iter()
                    .take_while(|t| !t.is_punct("="))
                    .find(|t| t.kind == TokKind::Ident && t.text != "mut")
                {
                    tainted.insert(name.text.clone());
                }
            }
            continue;
        }
        // Uses of tainted lengths.
        let shadow = s.first().is_some_and(|t| t.is_ident("let"));
        let alloc = stmt_has(s, |t| t.is_ident("with_capacity"))
            || s.iter().enumerate().any(|(i, t)| {
                t.is_ident("vec") && matches!(s.get(i + 1), Some(n) if n.is_punct("!"))
            });
        let mut untaint: Vec<String> = Vec::new();
        for (i, t) in s.iter().enumerate() {
            if t.kind != TokKind::Ident || !tainted.contains(&t.text) {
                continue;
            }
            if reported.contains(&t.text) {
                continue;
            }
            if clamped(s) {
                untaint.push(t.text.clone());
                continue;
            }
            let prev = i.checked_sub(1).map(|j| &s[j]);
            let next = s.get(i + 1);
            let cmp = prev.is_some_and(|p| p.is_punct("<") || p.is_punct(">"))
                || next.is_some_and(|n| n.is_punct("<") || n.is_punct(">"));
            if cmp {
                untaint.push(t.text.clone());
                continue;
            }
            let arith = prev.is_some_and(|p| p.is_punct("+") || p.is_punct("*"))
                || next.is_some_and(|n| n.is_punct("+") || n.is_punct("*") || n.is_ident("as"));
            if arith || alloc {
                out.push(Finding {
                    lint: "IL008",
                    path: file.rel.clone(),
                    line: t.line,
                    message: if arith {
                        format!("unchecked arithmetic on wire-derived length `{}`", t.text)
                    } else {
                        format!("wire-derived length `{}` sizes an allocation unchecked", t.text)
                    },
                    hint: IL008_HINT,
                });
                reported.insert(t.text.clone());
                untaint.push(t.text.clone());
            } else if shadow
                && s[1..].iter().take_while(|x| !x.is_punct("=")).any(|x| x.text == t.text)
            {
                untaint.push(t.text.clone());
            }
        }
        for n in untaint {
            tainted.remove(&n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint008(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::new("crates/replay/src/log.rs", src)];
        let mut out = Vec::new();
        il008_wire_arithmetic(&files, &mut out);
        out
    }

    #[test]
    fn raw_read_with_cast_is_flagged() {
        let out = lint008(
            r#"
            fn decode(c: &mut Cursor) {
                let n = c.u32("record count").unwrap() as usize;
            }
        "#,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("record count"), "{}", out[0].message);
    }

    #[test]
    fn tainted_length_sizing_allocation_is_flagged() {
        let out = lint008(
            r#"
            fn decode(c: &mut Cursor) {
                let n = c.u32("record count").unwrap();
                let v = Vec::with_capacity(n);
            }
        "#,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("allocation"), "{}", out[0].message);
    }

    #[test]
    fn count_accessor_and_clamps_are_clean() {
        let out = lint008(
            r#"
            fn decode(c: &mut Cursor) {
                let n = c.count("record count", 16).unwrap();
                let v = Vec::with_capacity(n);
                let k = c.u32("k").unwrap().min(4096) as usize;
                let m = c.u64("len").unwrap();
                let m = m.checked_add(1).unwrap_or(0);
                if m > 10 { return; }
            }
        "#,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn comparison_validates_a_length() {
        let out = lint008(
            r#"
            fn decode(c: &mut Cursor) {
                let n = c.u64("len").unwrap();
                if n > limit { return; }
                let end = n + 1;
            }
        "#,
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
