//! A lightweight item index over the token stream: every `fn` with its
//! name, visibility, enclosing `impl` type, signature and body token
//! ranges. IL005 (obs coverage) needs this to identify query entry
//! points and walk their intra-crate call graph.

use crate::lexer::{Tok, TokKind};

#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Bare `pub` only — `pub(crate)` / `pub(super)` are internal and do
    /// not make a fn an entry point.
    pub is_pub: bool,
    /// Name of the `impl` target type when the fn is an inherent or
    /// trait method.
    pub impl_type: Option<String>,
    pub line: u32,
    pub in_test: bool,
    /// Token range `[fn_idx, body_open)` — covers `fn name(args) -> Ret`.
    pub sig: (usize, usize),
    /// Token range `(open_brace, close_brace)` exclusive of both braces;
    /// `None` for bodyless trait declarations.
    pub body: Option<(usize, usize)>,
}

/// Indexes all `fn` items in a token stream, top-level and nested.
pub fn index_fns(toks: &[Tok]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    // (impl type name, brace depth of the impl body)
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            while impl_stack.last().is_some_and(|&(_, d)| d >= depth) {
                impl_stack.pop();
            }
            depth = depth.saturating_sub(1);
        } else if t.is_ident("impl") {
            if let Some((ty, open)) = parse_impl_header(toks, i) {
                impl_stack.push((ty, depth + 1));
                // Skip the header; the `{` is handled by the main loop.
                i = open;
                continue;
            }
        } else if t.is_ident("fn") {
            if let Some(item) = parse_fn(toks, i, &impl_stack) {
                // `sig.1` is the body's `{` (or the `;` of a bodyless
                // declaration); `body.0` is already *inside* the braces.
                let next = item.sig.1;
                fns.push(item);
                // Continue *inside* the body so nested fns are indexed too.
                i = next + 1;
                if next < toks.len() && toks[next].is_punct("{") {
                    depth += 1;
                }
                continue;
            }
        }
        i += 1;
    }
    fns
}

/// From an `impl` token, extracts the implemented-on type name and the
/// index of the body's `{`. For `impl Trait for Type` the name is
/// `Type`; generic parameters are skipped.
fn parse_impl_header(toks: &[Tok], impl_idx: usize) -> Option<(String, usize)> {
    let mut j = impl_idx + 1;
    let mut angle = 0i64;
    let mut after_for = false;
    let mut first: Option<String> = None;
    let mut after_for_name: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("{") && angle == 0 {
            let name = after_for_name.or(first)?;
            return Some((name, j));
        }
        if t.is_punct(";") && angle == 0 {
            return None; // e.g. inside a macro; bail out
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Ident, "for") if angle == 0 => after_for = true,
            (TokKind::Ident, "where") if angle == 0 => {}
            (TokKind::Ident, name) if angle == 0 => {
                if after_for {
                    if after_for_name.is_none() {
                        after_for_name = Some(name.to_string());
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

fn parse_fn(toks: &[Tok], fn_idx: usize, impl_stack: &[(String, usize)]) -> Option<FnItem> {
    let name_tok = toks.get(fn_idx + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // Visibility: `pub fn` (strict), possibly with intervening qualifiers
    // handled by looking one token back only — `pub(crate) fn` puts `)`
    // there and correctly reads as not-pub. `pub async fn` / `pub unsafe
    // fn` / `pub const fn` put the qualifier there; look back through
    // them.
    let mut k = fn_idx;
    while k > 0
        && matches!(toks[k - 1].kind, TokKind::Ident)
        && matches!(toks[k - 1].text.as_str(), "async" | "unsafe" | "const" | "extern")
    {
        k -= 1;
    }
    let is_pub = k > 0 && toks[k - 1].is_ident("pub");
    // Signature runs until `{` (body) or `;` (trait declaration) at zero
    // paren/bracket/angle nesting. Angle brackets are tracked so return
    // types like `-> Vec<(PoiId, f64)>` don't confuse the scan; `->` is
    // consumed as two puncts but the `>` is preceded by `-`, so guard it.
    let mut j = fn_idx + 2;
    let mut nest = 0i64;
    let mut angle = 0i64;
    while j < toks.len() {
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
                return Some(FnItem {
                    name,
                    is_pub,
                    impl_type: impl_stack.last().map(|(n, _)| n.clone()),
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
    if j >= toks.len() {
        return None;
    }
    let close = matching_brace(toks, j)?;
    Some(FnItem {
        name,
        is_pub,
        impl_type: impl_stack.last().map(|(n, _)| n.clone()),
        line: name_tok.line,
        in_test: name_tok.in_test,
        sig: (fn_idx, j),
        body: Some((j + 1, close)),
    })
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn indexes_free_and_impl_fns() {
        let src = "
            pub fn free(a: u32) -> Vec<(u32, f64)> { a; inner() }
            fn inner() {}
            impl<'a> Facade<'a> {
                pub fn method(&self, q: &Query) -> f64 { 0.0 }
                pub(crate) fn internal(&self) {}
            }
            impl Ord for Item {
                fn cmp(&self, other: &Self) -> Ordering { todo() }
            }
        ";
        let fns = index_fns(&lex(src));
        let by_name = |n: &str| fns.iter().find(|f| f.name == n).expect("fn indexed");
        assert!(by_name("free").is_pub);
        assert!(by_name("free").impl_type.is_none());
        assert!(by_name("inner").body.is_some());
        assert_eq!(by_name("method").impl_type.as_deref(), Some("Facade"));
        assert!(by_name("method").is_pub);
        assert!(!by_name("internal").is_pub, "pub(crate) is not pub");
        // A sibling method after one whose body contains nested braces
        // must keep its impl type (the index once popped the impl at the
        // first body's closing brace).
        assert_eq!(by_name("internal").impl_type.as_deref(), Some("Facade"));
        assert_eq!(by_name("cmp").impl_type.as_deref(), Some("Item"));
        assert!(!by_name("cmp").is_pub);
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let fns = index_fns(&lex("trait T { fn decl(&self) -> u32; fn with_default(&self) {} }"));
        assert!(fns.iter().find(|f| f.name == "decl").expect("decl").body.is_none());
        assert!(fns.iter().find(|f| f.name == "with_default").expect("def").body.is_some());
    }
}
