//! The file-local lint rules, IL001–IL005, and [`analyze`], which runs
//! the whole catalog: IL001–IL006, IL008 and IL009.
//!
//! Every file-local rule works on the token stream from
//! [`crate::lexer`] (plus the fn index from [`crate::items`] for IL005),
//! operates only on non-test tokens, and emits [`Finding`]s carrying a
//! stable lint ID, `file:line` and a one-line fix hint. Rules are
//! heuristic by design — they favor the occasional reasoned
//! `lint.allow` entry over missed violations.

use crate::items::{index_fns, FnItem};
use crate::lexer::{lex, Tok, TokKind};
use std::collections::{HashMap, HashSet};

/// One workspace source file, pre-lexed and indexed.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes,
    /// e.g. `crates/core/src/query.rs`.
    pub rel: String,
    pub toks: Vec<Tok>,
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    pub fn new(rel: impl Into<String>, src: &str) -> Self {
        let toks = lex(src);
        let fns = index_fns(&toks);
        SourceFile { rel: rel.into(), toks, fns }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable lint ID: `IL001` … `IL009` (`IL007` is retired).
    pub lint: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
    pub hint: &'static str,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}\n    fix: {}",
            self.path, self.line, self.lint, self.message, self.hint
        )
    }
}

/// Runs the full catalog over a set of files and returns findings
/// sorted by path, line, lint ID.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        il001_float_total_order(f, &mut out);
        il002_panic_freedom(f, &mut out);
        il003_guard_across_io(f, &mut out);
        il004_format_magic(f, &mut out);
    }
    il005_obs_coverage(files, &mut out);
    il005_service_coverage(files, &mut out);
    il005_subkind_counter_coverage(files, &mut out);
    // The interprocedural catalog: a shared call graph, then the
    // reachability rules (deepened IL002/IL003, IL006, IL009), then
    // unchecked wire arithmetic (IL008).
    let graph = crate::callgraph::CallGraph::build(files);
    crate::interproc::il002_reachable_panics(&graph, &mut out);
    crate::interproc::il003_guard_into_io(&graph, &mut out);
    crate::interproc::il006_lock_order(&graph, &mut out);
    crate::interproc::il009_delta_purity(&graph, &mut out);
    crate::wire::il008_wire_arithmetic(files, &mut out);
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    out
}

/// Index of the first token of the statement containing token `i`
/// (scan back to the nearest `;`, `{` or `}`). Bracket/paren nesting is
/// tracked so the `;` inside an array type like `[&str; 3]` or `[u8; 8]`
/// does not cut the statement short.
pub(crate) fn stmt_start(toks: &[Tok], i: usize) -> usize {
    let mut j = i;
    let mut nest = 0usize;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct("]") || t.is_punct(")") {
            nest += 1;
        } else if t.is_punct("[") || t.is_punct("(") {
            nest = nest.saturating_sub(1);
        } else if nest == 0 && (t.is_punct(";") || t.is_punct("{") || t.is_punct("}")) {
            return j;
        }
        j -= 1;
    }
    0
}

// ---------------------------------------------------------------- IL001

const IL001_METHOD: &str = "partial_cmp";

/// IL001 float-total-order: flow values and spatial coordinates are
/// floats used as ordering keys; `partial_cmp` either panics or silently
/// misorders when a NaN slips in. `f64::total_cmp` is total, sorts NaN
/// deterministically, and costs the same. A `fn` definition of the
/// method (a `PartialOrd` impl delegating to `cmp`) is not a use site.
fn il001_float_total_order(f: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != IL001_METHOD || t.in_test {
            continue;
        }
        if i > 0 && f.toks[i - 1].is_ident("fn") {
            continue;
        }
        out.push(Finding {
            lint: "IL001",
            path: f.rel.clone(),
            line: t.line,
            message: format!("NaN-unsafe float ordering via `{IL001_METHOD}`"),
            hint: "use f64::total_cmp (total order, deterministic NaN placement) \
                   or derive the key ordering from total_cmp",
        });
    }
}

// ---------------------------------------------------------------- IL002

/// Paths whose non-test code must be panic-free: the serving layer and
/// the durable store. A panic here poisons locks, kills shard threads,
/// or aborts mid-write — exactly the failures PR 3/PR 4 hardened against.
pub(crate) fn il002_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/service/src/") || rel.starts_with("crates/tracking/src/store/")
}

pub(crate) const IL002_PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that legitimately precede a `[` without it being an
/// index expression (slice *types* and patterns, not element access).
const IL002_NONINDEX_PREV: [&str; 15] = [
    "mut", "ref", "dyn", "impl", "as", "in", "return", "break", "const", "static", "else", "match",
    "move", "where", "let",
];

fn il002_panic_freedom(f: &SourceFile, out: &mut Vec<Finding>) {
    if !il002_in_scope(&f.rel) {
        return;
    }
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.kind == TokKind::Ident {
            let prev_dot = i > 0 && toks[i - 1].is_punct(".");
            let next_paren = matches!(toks.get(i + 1), Some(n) if n.is_punct("("));
            if t.text == "unwrap" && prev_dot && next_paren {
                out.push(Finding {
                    lint: "IL002",
                    path: f.rel.clone(),
                    line: t.line,
                    message: "possible panic: `.unwrap()` in a durable/serving path".into(),
                    hint: IL002_HINT_ERR,
                });
                continue;
            }
            if t.text == "expect"
                && prev_dot
                && next_paren
                && matches!(toks.get(i + 2), Some(n) if n.kind == TokKind::Str)
            {
                out.push(Finding {
                    lint: "IL002",
                    path: f.rel.clone(),
                    line: t.line,
                    message: "possible panic: `.expect(..)` in a durable/serving path".into(),
                    hint: IL002_HINT_ERR,
                });
                continue;
            }
            if IL002_PANIC_MACROS.contains(&t.text.as_str())
                && matches!(toks.get(i + 1), Some(n) if n.is_punct("!"))
            {
                out.push(Finding {
                    lint: "IL002",
                    path: f.rel.clone(),
                    line: t.line,
                    message: format!("possible panic: `{}!(..)` in a durable/serving path", t.text),
                    hint: "return a typed error and let the caller decide; \
                           if aborting is genuinely intended, allowlist with a reason",
                });
                continue;
            }
        }
        // Unchecked indexing: `expr[..]` where expr ends in an identifier,
        // `)` or `]`. Type positions (`&[u8]`, `-> [u8; 4]`) put a punct
        // or excluded keyword before the bracket and are skipped, as is
        // the never-panicking full-range `[..]`.
        if t.is_punct("[") && i > 0 {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !IL002_NONINDEX_PREV.contains(&prev.text.as_str()),
                TokKind::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            let full_range = matches!(
                (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)),
                (Some(a), Some(b), Some(c))
                    if a.is_punct(".") && b.is_punct(".") && c.is_punct("]")
            );
            if indexes && !full_range {
                out.push(Finding {
                    lint: "IL002",
                    path: f.rel.clone(),
                    line: t.line,
                    message: "unchecked indexing can panic on out-of-bounds".into(),
                    hint: "use .get()/.get_mut() or a length-checked accessor \
                           (frame::Cursor) and propagate the error",
                });
            }
        }
    }
}

const IL002_HINT_ERR: &str = "propagate a typed error (StoreError / io::Error) or \
                              recover explicitly (e.g. sync::lock_or_recover for mutexes)";

// ---------------------------------------------------------------- IL003

/// Files where holding a mutex guard across blocking I/O stalls every
/// peer of the lock: the connection fan-out in `server.rs` and the shard
/// queue in `shard.rs`.
pub(crate) fn il003_in_scope(rel: &str) -> bool {
    rel.ends_with("/server.rs") || rel.ends_with("/shard.rs")
}

pub(crate) const IL003_IO_CALLS: [&str; 11] = [
    "write_all",
    "write_fmt",
    "flush",
    "read_exact",
    "read_to_end",
    "sync_all",
    "sync_data",
    "connect",
    "accept",
    "shutdown",
    "set_read_timeout",
];

#[derive(Debug)]
struct LiveGuard {
    /// `None` for an un-bound temporary (`m.lock()…;` in one statement).
    name: Option<String>,
    /// Brace depth at acquisition; the guard dies when depth drops below.
    depth: usize,
}

/// IL003 mutex-guard-across-I/O: a guard acquired via `.lock()` (or the
/// project's `lock_or_recover`) must be dropped before any socket/file
/// call. Guards bound with `let` live to the end of their block or an
/// explicit `drop(name)`; temporaries live to the end of the statement.
fn il003_guard_across_io(f: &SourceFile, out: &mut Vec<Finding>) {
    if !il003_in_scope(&f.rel) {
        return;
    }
    let toks = &f.toks;
    let mut depth = 0usize;
    let mut guards: Vec<LiveGuard> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("{") {
            depth += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
            continue;
        }
        if t.is_punct(";") {
            guards.retain(|g| !(g.name.is_none() && g.depth == depth));
            continue;
        }
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let next_paren = matches!(toks.get(i + 1), Some(n) if n.is_punct("("));
        let acquires = next_paren
            && (t.text == "lock_or_recover"
                || (t.text == "lock" && i > 0 && toks[i - 1].is_punct(".")));
        if acquires {
            let start = stmt_start(toks, i);
            let name = if toks[start].is_ident("let") {
                toks[start + 1..]
                    .iter()
                    .take_while(|n| !n.is_punct("="))
                    .find(|n| n.kind == TokKind::Ident && n.text != "mut")
                    .map(|n| n.text.clone())
            } else {
                None
            };
            guards.push(LiveGuard { name, depth });
            continue;
        }
        if t.text == "drop" && next_paren {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
                }
            }
            continue;
        }
        if next_paren && IL003_IO_CALLS.contains(&t.text.as_str()) {
            if let Some(g) = guards.last() {
                let held = g.name.as_deref().unwrap_or("<temporary>");
                out.push(Finding {
                    lint: "IL003",
                    path: f.rel.clone(),
                    line: t.line,
                    message: format!(
                        "blocking I/O `{}()` while mutex guard `{}` is live",
                        t.text, held
                    ),
                    hint: "copy what you need out of the guard, drop it (end the \
                           block or drop(guard)), then do the I/O",
                });
            }
        }
    }
}

// ---------------------------------------------------------------- IL004

/// The on-disk/wire magics. This const is itself the shape the lint
/// demands: magic literals may only appear in a `const … _MAGIC`-style
/// definition statement.
const FORMAT_MAGIC: [&str; 6] =
    ["IFWAL001", "IFSNP001", "IFCKP001", "IFRPL001", "IFSEG001", "IFMAN001"];

/// The single module allowed to call `from_le_bytes`: the bounds-checked
/// frame accessor layer everything else must go through.
const IL004_FRAME_MODULE: &str = "crates/tracking/src/store/frame.rs";

fn il004_format_magic(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.kind == TokKind::Str && FORMAT_MAGIC.iter().any(|m| t.text.contains(m)) {
            let start = stmt_start(toks, i);
            let is_const_def = toks[start..i].iter().any(|s| s.is_ident("const"))
                && toks[start..i]
                    .iter()
                    .any(|s| s.kind == TokKind::Ident && s.text.ends_with("_MAGIC"));
            if !is_const_def {
                out.push(Finding {
                    lint: "IL004",
                    path: f.rel.clone(),
                    line: t.line,
                    message: "format magic literal duplicated outside its const definition".into(),
                    hint: "reference WAL_MAGIC / SNAPSHOT_MAGIC / SEGMENT_MAGIC (or the \
                           STATE_HASH_MAGIC hash prefix); a re-spelled literal lets the \
                           formats drift apart silently",
                });
            }
        }
        if t.kind == TokKind::Ident && t.text == "from_le_bytes" && f.rel != IL004_FRAME_MODULE {
            out.push(Finding {
                lint: "IL004",
                path: f.rel.clone(),
                line: t.line,
                message: "raw little-endian parse outside the framing module".into(),
                hint: "decode via frame::Cursor / FrameReader (bounds-checked, \
                       CRC-verified) instead of hand-rolled from_le_bytes",
            });
        }
    }
}

// ---------------------------------------------------------------- IL005

/// Observability markers: a body containing any of these records a span
/// or counter directly.
fn il005_records_directly(toks: &[Tok], body: (usize, usize)) -> bool {
    let (lo, hi) = body;
    let range = &toks[lo..hi.min(toks.len())];
    for (j, t) in range.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = j > 0 && range[j - 1].is_punct(".");
        let next_colons = matches!(range.get(j + 1), Some(a) if a.is_punct(":"))
            && matches!(range.get(j + 2), Some(b) if b.is_punct(":"));
        match t.text.as_str() {
            "recorder" | "enter" | "merge_counters" | "record" if prev_dot => return true,
            s if prev_dot && s.starts_with("observe") => return true,
            "Counter" | "Timer" if next_colons => return true,
            _ => {}
        }
    }
    false
}

/// Identifier names called with `(` inside a body (macro invocations,
/// which put a `!` before the paren, are naturally excluded).
fn il005_calls(toks: &[Tok], body: (usize, usize)) -> Vec<String> {
    let (lo, hi) = body;
    let range = &toks[lo..hi.min(toks.len())];
    let mut calls = Vec::new();
    for (j, t) in range.iter().enumerate() {
        if t.kind == TokKind::Ident
            && matches!(range.get(j + 1), Some(n) if n.is_punct("("))
            && !(j > 0 && range[j - 1].is_ident("fn"))
            && !matches!(t.text.as_str(), "if" | "while" | "match" | "for" | "return")
        {
            calls.push(t.text.clone());
        }
    }
    calls
}

fn sig_mentions(toks: &[Tok], sig: (usize, usize), name: &str) -> bool {
    toks[sig.0..sig.1.min(toks.len())].iter().any(|t| t.is_ident(name))
}

/// One fn in an IL005 coverage graph: does it record directly, and what
/// does it call?
struct Il005Node<'a> {
    file: &'a SourceFile,
    item: &'a FnItem,
    records: bool,
    calls: Vec<String>,
}

fn il005_nodes<'a>(subset: &[&'a SourceFile]) -> Vec<Il005Node<'a>> {
    let mut nodes = Vec::new();
    for f in subset {
        for item in &f.fns {
            let (records, calls) = match item.body {
                Some(body) => (il005_records_directly(&f.toks, body), il005_calls(&f.toks, body)),
                None => (false, Vec::new()),
            };
            nodes.push(Il005Node { file: f, item, records, calls });
        }
    }
    nodes
}

/// Name-level fixpoint: a fn records if any callee *name* resolves to
/// a recording fn. Conservative in the permissive direction, which is
/// what a coverage lint wants — false "covered" beats false alarms.
fn il005_fixpoint(nodes: &[Il005Node<'_>]) -> HashSet<String> {
    let mut recording: HashSet<String> =
        nodes.iter().filter(|n| n.records).map(|n| n.item.name.clone()).collect();
    let call_map: HashMap<String, Vec<String>> = {
        let mut m: HashMap<String, Vec<String>> = HashMap::new();
        for n in nodes {
            m.entry(n.item.name.clone()).or_default().extend(n.calls.iter().cloned());
        }
        m
    };
    loop {
        let mut grew = false;
        for (name, calls) in &call_map {
            if !recording.contains(name) && calls.iter().any(|c| recording.contains(c)) {
                recording.insert(name.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    recording
}

/// IL005 obs coverage: every public query entry point in `crates/core` —
/// a `pub fn` taking `&FlowAnalytics`, or a `pub` method of
/// `FlowAnalytics` taking a query struct — must record a span or counter,
/// directly or through a callee that does (resolved by an intra-crate
/// name-level fixpoint). Unmeasured entry points are invisible in
/// `--profile` output and regress silently.
fn il005_obs_coverage(files: &[SourceFile], out: &mut Vec<Finding>) {
    let core: Vec<&SourceFile> =
        files.iter().filter(|f| f.rel.starts_with("crates/core/src/")).collect();
    if core.is_empty() {
        return;
    }
    let nodes = il005_nodes(&core);
    let recording = il005_fixpoint(&nodes);
    for n in &nodes {
        let it = n.item;
        if it.in_test || !it.is_pub || it.body.is_none() {
            continue;
        }
        if it.name == "new" || it.name.starts_with("with_") || it.name.starts_with("from_") {
            continue;
        }
        let entry = sig_mentions(&n.file.toks, it.sig, "FlowAnalytics")
            || (it.impl_type.as_deref() == Some("FlowAnalytics")
                && (sig_mentions(&n.file.toks, it.sig, "SnapshotQuery")
                    || sig_mentions(&n.file.toks, it.sig, "IntervalQuery")));
        if entry && !recording.contains(&it.name) {
            out.push(Finding {
                lint: "IL005",
                path: n.file.rel.clone(),
                line: it.line,
                message: format!("query entry point `{}` records no span or counter", it.name),
                hint: "record via the facade recorder (span enter/exit or a Counter) \
                       or delegate to a recording query path",
            });
        }
    }
}

/// IL005, service face: every protocol request handler in
/// `crates/service/src` — any fn named `handle_*` — must record into
/// `ServiceMetrics` (a `Counter::…` add, an `observe_*` call, or a
/// flight-recorder `.record(..)`), directly or through a callee that
/// does. A verb that bypasses the metrics registry is invisible to
/// `METRICS`/`inflow top` and to postmortems, which is exactly where a
/// misbehaving client shows up first.
fn il005_service_coverage(files: &[SourceFile], out: &mut Vec<Finding>) {
    let service: Vec<&SourceFile> =
        files.iter().filter(|f| f.rel.starts_with("crates/service/src/")).collect();
    if service.is_empty() {
        return;
    }
    let nodes = il005_nodes(&service);
    let recording = il005_fixpoint(&nodes);
    for n in &nodes {
        let it = n.item;
        if it.in_test || it.body.is_none() || !it.name.starts_with("handle_") {
            continue;
        }
        if !recording.contains(&it.name) {
            out.push(Finding {
                lint: "IL005",
                path: n.file.rel.clone(),
                line: it.line,
                message: format!(
                    "protocol handler `{}` records nothing into ServiceMetrics",
                    it.name
                ),
                hint: "count the request (metrics.add(Counter::…)) or observe a \
                       histogram/flight event so telemetry and postmortems see this verb",
            });
        }
    }
}

/// The variant names of `enum SubKind` as declared in a service source
/// file, with the declaration line: identifiers at brace depth 1 of the
/// enum body that start an arm (the previous depth-1 token is `{` or
/// `,`), skipping `#[...]` attribute contents.
fn il005_subkind_variants(f: &SourceFile) -> Vec<(String, u32)> {
    let toks = &f.toks;
    let mut variants = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident("enum") && toks[i + 1].is_ident("SubKind") && !toks[i].in_test) {
            i += 1;
            continue;
        }
        // Walk to the body's `{`, then collect arm-initial idents.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct("{") {
            j += 1;
        }
        let mut depth = 0i32;
        let mut arm_start = true;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        depth += 1;
                        arm_start = depth == 1;
                    }
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                        // A field-block close ends the arm body; the next
                        // depth-1 ident only starts an arm after a comma.
                        arm_start = false;
                    }
                    "," if depth == 1 => arm_start = true,
                    _ => {}
                }
            } else if t.kind == TokKind::Ident && depth == 1 {
                if arm_start {
                    variants.push((t.text.clone(), t.line));
                }
                arm_start = false;
            }
            j += 1;
        }
        i = j;
    }
    variants
}

/// IL005, per-kind serving telemetry: every variant of the service
/// protocol's `enum SubKind` must have a per-kind subscription counter —
/// an identifier spelled `Serve<Variant>Subscriptions` (variant casing
/// is free, e.g. `LongVisit` → `ServeLongvisitSubscriptions`) —
/// referenced somewhere in `crates/service/src`. A subscription kind
/// without its counter is invisible in `METRICS` and `inflow top`, so
/// a serving-load shift toward that kind cannot be seen or alerted on.
fn il005_subkind_counter_coverage(files: &[SourceFile], out: &mut Vec<Finding>) {
    let service: Vec<&SourceFile> =
        files.iter().filter(|f| f.rel.starts_with("crates/service/src/")).collect();
    if service.is_empty() {
        return;
    }
    let idents_lower: HashSet<String> = service
        .iter()
        .flat_map(|f| f.toks.iter())
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.to_lowercase())
        .collect();
    for f in &service {
        for (variant, line) in il005_subkind_variants(f) {
            let want = format!("serve{}subscriptions", variant.to_lowercase());
            if !idents_lower.contains(&want) {
                out.push(Finding {
                    lint: "IL005",
                    path: f.rel.clone(),
                    line,
                    message: format!(
                        "subscription kind `{variant}` has no per-kind counter \
                         `Serve{variant}Subscriptions` referenced in the service crate"
                    ),
                    hint: "add the Counter variant in inflow-obs and bump it where the \
                           subscription registers, so METRICS/`inflow top` break load \
                           out by kind",
                });
            }
        }
    }
}
