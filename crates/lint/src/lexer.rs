//! A comment-, string- and raw-string-aware Rust tokenizer with test-scope
//! tracking.
//!
//! This is deliberately *not* a parser: the project lints key on token
//! patterns (`.unwrap()`, a lock guard live across an I/O call, a magic
//! byte-string literal outside its `const`), so a flat token stream with
//! accurate line numbers and an `in_test` flag per token is all the
//! structure they need. What the lexer must get exactly right is what a
//! regex cannot: comments (including nested block comments), cooked and
//! raw strings (`r#"…"#`), byte strings, char literals vs. lifetimes —
//! otherwise a lint name mentioned in a doc comment or an error message
//! would count as a violation.
//!
//! Test scope: tokens under `#[cfg(test)]` / `#[test]` items or inside
//! `mod tests { … }` are flagged `in_test` and exempt from every lint —
//! the invariants guard production paths, and tests legitimately
//! `unwrap()` and forge corrupt magics.

/// Token categories. String/char literals carry their *content* (quotes
/// and prefixes stripped) so rules can inspect it; numbers keep their
/// spelling; punctuation is one token per character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Str,
    Char,
    Num,
    Punct,
    Lifetime,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// Inside `#[cfg(test)]` / `#[test]` scope or a `mod tests` block.
    pub in_test: bool,
}

impl Tok {
    pub fn is(&self, kind: TokKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }

    pub fn is_punct(&self, text: &str) -> bool {
        self.is(TokKind::Punct, text)
    }

    pub fn is_ident(&self, text: &str) -> bool {
        self.is(TokKind::Ident, text)
    }
}

/// Tokenizes `src` and marks test scopes. Never fails: unterminated
/// constructs consume to end-of-input (the lint then sees fewer tokens,
/// which for a checker that only *reports* is the safe direction).
pub fn lex(src: &str) -> Vec<Tok> {
    let mut toks = tokenize(src);
    mark_test_scopes(&mut toks);
    toks
}

fn tokenize(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line and (nested) block comments.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Identifiers, keywords, and string-literal prefixes (r, b, br).
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let next = chars.get(i).copied();
            let is_raw_prefix = matches!(text.as_str(), "r" | "br");
            if is_raw_prefix && matches!(next, Some('"') | Some('#')) {
                if let Some((content, ni, nl)) = lex_raw_string(&chars, i, line) {
                    toks.push(Tok { kind: TokKind::Str, text: content, line, in_test: false });
                    i = ni;
                    line = nl;
                    continue;
                }
            }
            if text == "b" && next == Some('"') {
                let (content, ni, nl) = lex_cooked_string(&chars, i, line);
                toks.push(Tok { kind: TokKind::Str, text: content, line, in_test: false });
                i = ni;
                line = nl;
                continue;
            }
            if text == "b" && next == Some('\'') {
                let (ni, nl) = skip_char_literal(&chars, i, line);
                toks.push(Tok { kind: TokKind::Char, text: String::new(), line, in_test: false });
                i = ni;
                line = nl;
                continue;
            }
            toks.push(Tok { kind: TokKind::Ident, text, line, in_test: false });
            continue;
        }
        if c == '"' {
            let (content, ni, nl) = lex_cooked_string(&chars, i, line);
            toks.push(Tok { kind: TokKind::Str, text: content, line, in_test: false });
            i = ni;
            line = nl;
            continue;
        }
        if c == '\'' {
            // `'x'` / `'\n'` are char literals, `'a` in `<'a>` a lifetime.
            let is_char = matches!(chars.get(i + 1), Some('\\'))
                || matches!(chars.get(i + 2), Some('\''))
                || !matches!(chars.get(i + 1), Some(ch) if ch.is_alphanumeric() || *ch == '_');
            if is_char {
                let (ni, nl) = skip_char_literal(&chars, i, line);
                toks.push(Tok { kind: TokKind::Char, text: String::new(), line, in_test: false });
                i = ni;
                line = nl;
            } else {
                let start = i + 1;
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push(Tok { kind: TokKind::Lifetime, text, line, in_test: false });
            }
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut seen_dot = false;
            while i < n {
                let d = chars[i];
                if d.is_alphanumeric() || d == '_' {
                    // `1e-3` / `0x1p-2`: sign glued to an exponent marker.
                    i += 1;
                    if matches!(chars.get(i), Some('+') | Some('-'))
                        && matches!(d, 'e' | 'E' | 'p' | 'P')
                        && !chars[start..i].iter().collect::<String>().starts_with("0x")
                    {
                        i += 1;
                    }
                } else if d == '.'
                    && !seen_dot
                    && matches!(chars.get(i + 1), Some(ch) if ch.is_ascii_digit())
                {
                    seen_dot = true;
                    i += 1;
                } else {
                    break;
                }
            }
            let text: String = chars[start..i].iter().collect();
            toks.push(Tok { kind: TokKind::Num, text, line, in_test: false });
            continue;
        }
        toks.push(Tok { kind: TokKind::Punct, text: c.to_string(), line, in_test: false });
        i += 1;
    }
    toks
}

/// From the opening `"` (index `i`), returns (content, index past the
/// closing quote, updated line).
fn lex_cooked_string(chars: &[char], i: usize, mut line: u32) -> (String, usize, u32) {
    let mut j = i + 1;
    let mut content = String::new();
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                if let Some(&esc) = chars.get(j + 1) {
                    content.push(esc);
                    if esc == '\n' {
                        line += 1;
                    }
                }
                j += 2;
            }
            '"' => return (content, j + 1, line),
            ch => {
                if ch == '\n' {
                    line += 1;
                }
                content.push(ch);
                j += 1;
            }
        }
    }
    (content, j, line)
}

/// From the first `#` or `"` after an `r`/`br` prefix. Returns `None` if
/// this isn't actually a raw string (e.g. `r#foo` raw identifiers).
fn lex_raw_string(chars: &[char], i: usize, mut line: u32) -> Option<(String, usize, u32)> {
    let mut j = i;
    let mut hashes = 0usize;
    while matches!(chars.get(j), Some('#')) {
        hashes += 1;
        j += 1;
    }
    if !matches!(chars.get(j), Some('"')) {
        return None;
    }
    j += 1;
    let start = j;
    while j < chars.len() {
        if chars[j] == '\n' {
            line += 1;
        }
        if chars[j] == '"' {
            let mut k = 0usize;
            while k < hashes && matches!(chars.get(j + 1 + k), Some('#')) {
                k += 1;
            }
            if k == hashes {
                let content: String = chars[start..j].iter().collect();
                return Some((content, j + 1 + hashes, line));
            }
        }
        j += 1;
    }
    Some((chars[start..].iter().collect(), j, line))
}

/// From the opening `'` (or the `'` after a `b` prefix — pass the index
/// of the quote's preceding position accordingly). Returns index past the
/// closing quote.
fn skip_char_literal(chars: &[char], i: usize, line: u32) -> (usize, u32) {
    // `i` may point at a `b` prefix; find the quote.
    let mut j = if chars[i] == '\'' { i + 1 } else { i + 2 };
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\'' => return (j + 1, line),
            _ => j += 1,
        }
    }
    (j, line)
}

/// Marks tokens inside test-only scopes: items annotated `#[cfg(test)]` /
/// `#[test]` (attribute, header and braced body) and `mod tests { … }` /
/// `mod test { … }` blocks.
fn mark_test_scopes(toks: &mut [Tok]) {
    let mut depth = 0usize;
    let mut test_stack: Vec<usize> = Vec::new();
    let mut pending = false;
    let mut group = 0i64; // paren/bracket nesting, for `;` cancellation
    let mut i = 0usize;
    while i < toks.len() {
        // Attributes: `#[ … ]`. `cfg(test)`, `test`, `cfg(all(test, …))`
        // arm the pending flag; `cfg(not(test))` does not.
        if toks[i].is_punct("#")
            && i + 1 < toks.len()
            && (toks[i + 1].is_punct("[")
                || (toks[i + 1].is_punct("!") && i + 2 < toks.len() && toks[i + 2].is_punct("[")))
        {
            let open = if toks[i + 1].is_punct("[") { i + 1 } else { i + 2 };
            let mut j = open;
            let mut bd = 0i64;
            let mut has_test = false;
            let mut has_not = false;
            while j < toks.len() {
                if toks[j].is_punct("[") {
                    bd += 1;
                } else if toks[j].is_punct("]") {
                    bd -= 1;
                    if bd == 0 {
                        break;
                    }
                } else if toks[j].is_ident("test") {
                    has_test = true;
                } else if toks[j].is_ident("not") {
                    has_not = true;
                }
                j += 1;
            }
            if has_test && !has_not {
                pending = true;
            }
            let flag = !test_stack.is_empty() || pending;
            let end = j.min(toks.len() - 1);
            for t in &mut toks[i..=end] {
                t.in_test = flag;
            }
            i = end + 1;
            continue;
        }
        if toks[i].is_ident("mod")
            && matches!(toks.get(i + 1), Some(t) if t.is_ident("tests") || t.is_ident("test"))
        {
            pending = true;
        }
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                if pending {
                    test_stack.push(depth);
                    pending = false;
                }
            }
            (TokKind::Punct, "}") => {
                if test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => group += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => group -= 1,
            (TokKind::Punct, ";") if group <= 0 => pending = false,
            _ => {}
        }
        toks[i].in_test = !test_stack.is_empty() || pending;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(String, bool)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text, t.in_test))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_idents() {
        let src = r##"
            // partial_cmp in a line comment
            /* unwrap() in a /* nested */ block comment */
            let a = "partial_cmp in a string";
            let b = r#"unwrap in a raw "string""#;
            let c = b"IFWAL001";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.iter().any(|(t, _)| t == "real_ident"));
        assert!(!ids.iter().any(|(t, _)| t == "partial_cmp" || t == "unwrap"));
        let strs: Vec<String> =
            lex(src).into_iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text).collect();
        assert!(strs.iter().any(|s| s == "IFWAL001"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn cfg_test_scopes_are_marked() {
        let src = "
            fn prod() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); }
            }
            fn prod2() { z.unwrap(); }
        ";
        let ids = idents(src);
        let unwraps: Vec<bool> =
            ids.iter().filter(|(t, _)| t == "unwrap").map(|&(_, f)| f).collect();
        assert_eq!(unwraps, vec![false, true, false]);
    }

    #[test]
    fn test_attr_covers_the_following_fn_only() {
        let src = "
            #[test]
            fn a_test() { x.unwrap(); }
            fn prod() { y.unwrap(); }
        ";
        let ids = idents(src);
        let unwraps: Vec<bool> =
            ids.iter().filter(|(t, _)| t == "unwrap").map(|&(_, f)| f).collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_scope() {
        let src = "
            #[cfg(not(test))]
            fn prod() { x.unwrap(); }
        ";
        let ids = idents(src);
        assert!(ids.iter().any(|(t, f)| t == "unwrap" && !f));
    }

    #[test]
    fn ranges_do_not_merge_into_numbers() {
        let toks = lex("let a = &b[0..8];");
        let nums: Vec<String> =
            toks.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text.clone()).collect();
        assert_eq!(nums, vec!["0", "8"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* a\nb */\nlet x = \"s\ns\";\nmarker();";
        let toks = lex(src);
        let marker = toks.iter().find(|t| t.is_ident("marker")).expect("marker lexed");
        assert_eq!(marker.line, 5);
    }
}
