//! A lightweight AST over the token stream: items parsed by recursive
//! descent, and per-`fn` *facts* — call sites with the set of mutex
//! guards live at each one, lock-acquisition sites, blocking-I/O sites
//! and panic sites. [`parse_fns`] runs once per file (in
//! [`crate::rules::SourceFile::new`]); IL005, IL008 and the call graph
//! that the interprocedural rules (IL002, IL003, IL006, IL009) walk via
//! [`crate::callgraph`] all read its output.

use crate::lexer::{Tok, TokKind};
use crate::rules::stmt_start;

/// One `fn` item as seen by the recursive-descent parser.
#[derive(Debug, Clone)]
pub struct AstFn {
    pub name: String,
    /// Bare `pub` only — `pub(crate)` / `pub(super)` are internal and do
    /// not make a fn an entry point.
    pub is_pub: bool,
    /// Name of the enclosing `impl` target type, if any.
    pub impl_type: Option<String>,
    pub line: u32,
    pub in_test: bool,
    /// Token range `[fn_idx, body_open)`.
    pub sig: (usize, usize),
    /// Token range `(open_brace, close_brace)` exclusive of both braces.
    pub body: Option<(usize, usize)>,
}

/// Parses all `fn` items (top-level, impl methods, nested) by recursive
/// descent over the brace tree.
pub fn parse_fns(toks: &[Tok]) -> Vec<AstFn> {
    let mut out = Vec::new();
    walk(toks, 0, toks.len(), None, &mut out);
    out
}

fn walk(toks: &[Tok], mut i: usize, end: usize, impl_ty: Option<&str>, out: &mut Vec<AstFn>) {
    while i < end {
        let t = &toks[i];
        if t.is_ident("impl") {
            if let Some((ty, open)) = impl_header(toks, i, end) {
                if let Some(close) = matching_brace_in(toks, open, end) {
                    walk(toks, open + 1, close, Some(&ty), out);
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            if let Some(item) = fn_item(toks, i, end, impl_ty) {
                let after = match item.body {
                    Some((open, close)) => {
                        out.push(item.clone());
                        // Nested fns keep the enclosing impl context.
                        walk(toks, open, close, impl_ty, out);
                        close + 1
                    }
                    None => {
                        let next = item.sig.1 + 1;
                        out.push(item);
                        next
                    }
                };
                i = after;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            if let Some(close) = matching_brace_in(toks, i, end) {
                walk(toks, i + 1, close, impl_ty, out);
                i = close + 1;
                continue;
            }
            i += 1;
            continue;
        }
        i += 1;
    }
}

/// From an `impl` token: the implemented-on type name (`Type` for
/// `impl Trait for Type`) and the index of the body's `{`.
fn impl_header(toks: &[Tok], impl_idx: usize, end: usize) -> Option<(String, usize)> {
    let mut j = impl_idx + 1;
    let mut angle = 0i64;
    let mut after_for = false;
    let mut first: Option<String> = None;
    let mut for_name: Option<String> = None;
    while j < end {
        let t = &toks[j];
        if t.is_punct("{") && angle == 0 {
            let name = for_name.or(first)?;
            return Some((name, j));
        }
        if t.is_punct(";") && angle == 0 {
            return None;
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Ident, "for") if angle == 0 => after_for = true,
            (TokKind::Ident, "where") if angle == 0 => {}
            (TokKind::Ident, name) if angle == 0 => {
                if after_for {
                    if for_name.is_none() {
                        for_name = Some(name.to_string());
                    }
                } else if first.is_none() {
                    first = Some(name.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

fn fn_item(toks: &[Tok], fn_idx: usize, end: usize, impl_ty: Option<&str>) -> Option<AstFn> {
    let name_tok = toks.get(fn_idx + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Visibility: one token back, through `async`/`unsafe`/`const`/
    // `extern` qualifiers. `pub(crate) fn` puts `)` there and reads as
    // not-pub.
    let mut k = fn_idx;
    while k > 0
        && toks[k - 1].kind == TokKind::Ident
        && matches!(toks[k - 1].text.as_str(), "async" | "unsafe" | "const" | "extern")
    {
        k -= 1;
    }
    let is_pub = k > 0 && toks[k - 1].is_ident("pub");
    // Signature runs to the body `{` at zero paren/bracket nesting, or to
    // a `;` (bodyless trait declaration) at zero angle nesting too. The
    // `>` of `->` is guarded so return types don't unbalance the count.
    let mut j = fn_idx + 2;
    let mut nest = 0i64;
    let mut angle = 0i64;
    while j < end {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => nest += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => nest -= 1,
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") if !(j > 0 && toks[j - 1].is_punct("-")) => {
                angle = (angle - 1).max(0);
            }
            (TokKind::Punct, "{") if nest == 0 => break,
            (TokKind::Punct, ";") if nest == 0 && angle == 0 => {
                return Some(AstFn {
                    name: name_tok.text.clone(),
                    is_pub,
                    impl_type: impl_ty.map(str::to_string),
                    line: name_tok.line,
                    in_test: name_tok.in_test,
                    sig: (fn_idx, j),
                    body: None,
                });
            }
            _ => {}
        }
        j += 1;
    }
    if j >= end {
        return None;
    }
    let close = matching_brace_in(toks, j, end)?;
    Some(AstFn {
        name: name_tok.text.clone(),
        is_pub,
        impl_type: impl_ty.map(str::to_string),
        line: name_tok.line,
        in_test: name_tok.in_test,
        sig: (fn_idx, j),
        body: Some((j + 1, close)),
    })
}

/// Index of the `}` matching the `{` at `open`, searched within `end`.
fn matching_brace_in(toks: &[Tok], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(end).skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

// ---- per-fn facts --------------------------------------------------------

/// How a call names its target, for symbol resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// Bare `free(..)`.
    Free,
    /// `module::free(..)` with a lowercase qualifier — the qualifier
    /// lets resolution prefer free fns defined in `module.rs`, which
    /// keeps `frame::write_frame(..)` from aliasing every `write_frame`
    /// in the workspace.
    Qualified(String),
    /// `recv.method(..)`; the receiver is the identifier right before
    /// the dot (`self`, a local, a field), or `None` for a chain.
    Method(Option<String>),
    /// `Type::assoc(..)` with an uppercase qualifier.
    Assoc(String),
}

#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub callee: Callee,
    pub line: u32,
    /// Lock identities live (guards not yet dropped) at the call.
    pub held: Vec<String>,
}

/// A lock acquisition: `x.lock()` or `lock_or_recover(&x)`. The identity
/// is the final identifier of the receiver/argument path — `self.shared
/// .shards.lock()` and `lock_or_recover(&shared.shards)` both acquire
/// `shards`.
#[derive(Debug, Clone)]
pub struct LockSite {
    pub id: String,
    pub line: u32,
    /// Lock identities already held when this one is acquired.
    pub held: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct Site {
    pub what: String,
    pub line: u32,
    pub held: Vec<String>,
}

/// Everything the interprocedural rules need to know about one body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
    pub io: Vec<Site>,
    pub panics: Vec<Site>,
}

/// Call-position identifiers that are control flow, not calls.
const NON_CALL_KEYWORDS: [&str; 8] = ["if", "while", "match", "for", "return", "loop", "in", "fn"];

/// Blocking socket/file calls by method name (see IL003) plus the
/// `std::fs` free functions; used both for the file-local IL003 and the
/// reachability rules.
pub(crate) fn is_io_call(name: &str, callee: &Callee) -> bool {
    if crate::rules::IL003_IO_CALLS.contains(&name) {
        return true;
    }
    match callee {
        Callee::Assoc(q) => {
            (q == "File" && matches!(name, "open" | "create" | "create_new" | "options"))
                || (q == "TcpStream" && name == "connect")
                || (q == "TcpListener" && name == "bind")
        }
        // Any `fs::…` free function touches the filesystem.
        Callee::Qualified(q) => q == "fs",
        _ => false,
    }
}

#[derive(Debug)]
struct Guard {
    /// `None` for an un-bound temporary (dies at the statement's `;`).
    name: Option<String>,
    lock_id: String,
    depth: usize,
}

/// Extracts [`FnFacts`] from a body token range, tracking guard liveness
/// with the same model the file-local IL003 uses: `let`-bound guards
/// live to the end of their block or an explicit `drop(name)`,
/// temporaries die at the statement's `;`.
pub fn extract_facts(toks: &[Tok], body: (usize, usize)) -> FnFacts {
    let (lo, hi) = body;
    let hi = hi.min(toks.len());
    let mut facts = FnFacts::default();
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            guards.retain(|g| !(g.name.is_none() && g.depth == depth));
            i += 1;
            continue;
        }
        if t.in_test || t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let held = || guards.iter().map(|g| g.lock_id.clone()).collect::<Vec<_>>();
        let prev_dot = i > lo && toks[i - 1].is_punct(".");
        let next_paren = matches!(toks.get(i + 1), Some(n) if n.is_punct("("));

        // Lock acquisitions come first: they are not ordinary calls.
        let acquires =
            next_paren && (t.text == "lock_or_recover" || (t.text == "lock" && prev_dot));
        if acquires {
            let id = if t.text == "lock" {
                receiver_of(toks, lo, i)
            } else {
                last_ident_in_args(toks, i + 1, hi)
            };
            let id = id.unwrap_or_else(|| "<expr>".into());
            facts.locks.push(LockSite { id: id.clone(), line: t.line, held: held() });
            let start = stmt_start(toks, i).max(lo);
            let name = if toks[start].is_ident("let") {
                toks[start + 1..]
                    .iter()
                    .take_while(|n| !n.is_punct("="))
                    .find(|n| n.kind == TokKind::Ident && n.text != "mut")
                    .map(|n| n.text.clone())
            } else {
                None
            };
            guards.push(Guard { name, lock_id: id, depth });
            i += 1;
            continue;
        }
        if t.text == "drop" && next_paren {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
                }
            }
            i += 1;
            continue;
        }

        // Panic sites (the IL002 patterns, position-independent).
        if t.text == "unwrap" && prev_dot && next_paren {
            facts.panics.push(Site { what: "`.unwrap()`".into(), line: t.line, held: held() });
            i += 1;
            continue;
        }
        if t.text == "expect"
            && prev_dot
            && next_paren
            && matches!(toks.get(i + 2), Some(n) if n.kind == TokKind::Str)
        {
            facts.panics.push(Site { what: "`.expect(..)`".into(), line: t.line, held: held() });
            i += 1;
            continue;
        }
        if crate::rules::IL002_PANIC_MACROS.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("!"))
        {
            facts.panics.push(Site {
                what: format!("`{}!(..)`", t.text),
                line: t.line,
                held: held(),
            });
            i += 1;
            continue;
        }

        // Ordinary calls: `name(` that is not a definition or keyword.
        if next_paren
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && !(i > lo && toks[i - 1].is_ident("fn"))
        {
            let callee = if prev_dot {
                let recv = (i >= lo + 2)
                    .then(|| &toks[i - 2])
                    .filter(|r| r.kind == TokKind::Ident)
                    .map(|r| r.text.clone());
                Callee::Method(recv)
            } else if i >= lo + 2 && toks[i - 1].is_punct(":") && toks[i - 2].is_punct(":") {
                match (i >= lo + 3).then(|| &toks[i - 3]) {
                    Some(q) if q.kind == TokKind::Ident => {
                        if q.text.chars().next().is_some_and(char::is_uppercase) {
                            Callee::Assoc(q.text.clone())
                        } else {
                            Callee::Qualified(q.text.clone())
                        }
                    }
                    _ => Callee::Free,
                }
            } else {
                Callee::Free
            };
            if is_io_call(&t.text, &callee) {
                facts.io.push(Site { what: format!("{}()", t.text), line: t.line, held: held() });
            }
            facts.calls.push(CallSite { name: t.text.clone(), callee, line: t.line, held: held() });
        }
        i += 1;
    }
    facts
}

/// The final identifier of the dotted receiver path ending just before
/// the method-call dot at `dot_like` (the index of the method name):
/// `a.b.c.lock()` → `c`.
fn receiver_of(toks: &[Tok], lo: usize, method_idx: usize) -> Option<String> {
    (method_idx >= lo + 2)
        .then(|| &toks[method_idx - 2])
        .filter(|r| r.kind == TokKind::Ident)
        .map(|r| r.text.clone())
}

/// The last identifier inside the parenthesized argument list opening at
/// `open` — `lock_or_recover(&self.metrics.counters)` → `counters`.
fn last_ident_in_args(toks: &[Tok], open: usize, hi: usize) -> Option<String> {
    let mut nest = 0i64;
    let mut last: Option<String> = None;
    for t in toks.iter().take(hi).skip(open) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") => nest += 1,
            (TokKind::Punct, ")") => {
                nest -= 1;
                if nest == 0 {
                    return last;
                }
            }
            (TokKind::Ident, name) => last = Some(name.to_string()),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_free_and_impl_fns() {
        let toks = lex("
            pub fn free(a: u32) -> Vec<(u32, f64)> { a; inner() }
            impl<'a> Facade<'a> {
                pub fn method(&self) -> f64 { if x { 1.0 } else { 0.0 } }
                pub(crate) fn internal(&self) {}
                pub const unsafe fn qualified() {}
            }
            impl Ord for Item { fn cmp(&self, o: &Self) -> Ordering { todo() } }
            trait T { fn decl(&self); fn with_default(&self) {} }
        ");
        let fns = parse_fns(&toks);
        let by = |n: &str| fns.iter().find(|f| f.name == n).expect("parsed");
        assert!(by("free").is_pub);
        assert!(by("free").impl_type.is_none());
        assert_eq!(by("method").impl_type.as_deref(), Some("Facade"));
        assert!(by("method").is_pub);
        assert!(!by("internal").is_pub, "pub(crate) is not pub");
        // A sibling after a body with nested braces keeps its impl type.
        assert_eq!(by("internal").impl_type.as_deref(), Some("Facade"));
        assert!(by("qualified").is_pub);
        assert_eq!(by("cmp").impl_type.as_deref(), Some("Item"));
        assert!(!by("cmp").is_pub);
        assert!(by("decl").body.is_none());
        assert!(by("with_default").body.is_some());
    }

    #[test]
    fn facts_track_guards_across_calls() {
        let toks = lex("
            fn f(&self) {
                let guard = self.shards.lock();
                helper(&guard);
                drop(guard);
                bare();
            }
        ");
        let body = parse_fns(&toks)[0].body.expect("body");
        let facts = extract_facts(&toks, body);
        assert_eq!(facts.locks.len(), 1);
        assert_eq!(facts.locks[0].id, "shards");
        let helper = facts.calls.iter().find(|c| c.name == "helper").expect("helper call");
        assert_eq!(helper.held, vec!["shards".to_string()]);
        let bare = facts.calls.iter().find(|c| c.name == "bare").expect("bare call");
        assert!(bare.held.is_empty());
    }

    #[test]
    fn lock_or_recover_identity_is_the_last_path_ident() {
        let toks = lex("fn f() { let g = lock_or_recover(&self.metrics.counters); }");
        let body = parse_fns(&toks)[0].body.expect("body");
        let facts = extract_facts(&toks, body);
        assert_eq!(facts.locks[0].id, "counters");
    }

    #[test]
    fn panic_and_io_sites_capture_held_locks() {
        let toks = lex("
            fn f(&self) {
                let g = q.lock();
                stream.write_all(b).unwrap();
            }
        ");
        let body = parse_fns(&toks)[0].body.expect("body");
        let facts = extract_facts(&toks, body);
        assert_eq!(facts.io.len(), 1);
        assert_eq!(facts.io[0].held, vec!["q".to_string()]);
        assert_eq!(facts.panics.len(), 1);
    }

    #[test]
    fn callee_classification() {
        let toks = lex("fn f() { free(); m::free2(); Type::assoc(); recv.method(); }");
        let body = parse_fns(&toks)[0].body.expect("body");
        let facts = extract_facts(&toks, body);
        let by = |n: &str| &facts.calls.iter().find(|c| c.name == n).expect("call").callee;
        assert_eq!(by("free"), &Callee::Free);
        assert_eq!(by("free2"), &Callee::Qualified("m".into()));
        assert_eq!(by("assoc"), &Callee::Assoc("Type".into()));
        assert_eq!(by("method"), &Callee::Method(Some("recv".into())));
    }
}
