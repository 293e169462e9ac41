//! The interprocedural rules: IL002 and deepened IL003 (reachability
//! instead of file-local patterns, with full witnessing call chains), IL006
//! lock-order cycles, and IL009 delta-loop purity. All walk the
//! [`crate::callgraph::CallGraph`].
//!
//! Exemptions are file-granular and listed here, not scattered: BFS does
//! not descend into [`AUDITED_LEAVES`] — the mutex-recovery shim
//! (`sync.rs`), the metrics registry, and the obs crate. All three are
//! audited bounded leaves (short internal critical sections, no blocking
//! I/O, no panics on serving paths) that every hot path calls; name-level
//! edges through them would connect the whole workspace to their internal
//! locks and drown the real findings.

use crate::callgraph::{CallGraph, Node};
use crate::rules::{il002_in_scope, il003_in_scope, Finding, IL003_IO_CALLS};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Files whose internals the reachability rules treat as opaque leaves.
fn audited_leaf(rel: &str) -> bool {
    rel == "crates/service/src/sync.rs"
        || rel == "crates/service/src/metrics.rs"
        || rel.starts_with("crates/obs/src/")
}

/// Shorter chain wins; equal length falls back to lexicographic so a
/// HashMap iteration order can never flip the reported witness.
fn better_chain(candidate: &str, incumbent: &str) -> bool {
    let (c, i) = (candidate.matches("->").count(), incumbent.matches("->").count());
    c < i || (c == i && candidate < incumbent)
}

// ---------------------------------------------------------------- IL002

/// IL002: explicit panic sites (`unwrap`/`expect`/panic macros — not
/// indexing) reachable from any fn in the IL002-scoped files, reported at
/// the site with the witnessing chain. Clippy cannot follow a call chain,
/// so this is the half of IL002 it leaves. Sites *inside* scoped files
/// are excluded — clippy's panic lints, denied at those module roots,
/// reject them — and so are the audited leaves (sync/metrics/obs), whose
/// panics are structural invariants reviewed in place.
pub fn il002_reachable_panics(g: &CallGraph, out: &mut Vec<Finding>) {
    // (site file, line) -> (chain, what) keeping the best witness.
    let mut best: HashMap<(String, u32), (String, String)> = HashMap::new();
    for root in g.roots(|n| il002_in_scope(&n.file)) {
        let reach = g.reach(root, |n| audited_leaf(&n.file));
        let mut nodes: Vec<usize> = reach.keys().copied().collect();
        nodes.sort_unstable();
        for m in nodes {
            let node = &g.nodes[m];
            if il002_in_scope(&node.file) {
                continue;
            }
            for p in &node.facts.panics {
                let chain = format!(
                    "{} (rooted at {}:{})",
                    g.chain(&reach, m),
                    g.nodes[root].file,
                    g.nodes[root].line
                );
                let key = (node.file.clone(), p.line);
                match best.get_mut(&key) {
                    Some((inc, _)) if !better_chain(&chain, inc) => {}
                    Some(slot) => *slot = (chain, p.what.clone()),
                    None => {
                        best.insert(key, (chain, p.what.clone()));
                    }
                }
            }
        }
    }
    for ((file, line), (chain, what)) in best {
        out.push(Finding {
            lint: "IL002",
            path: file,
            line,
            message: format!(
                "possible panic: {what} reachable from a durable/serving path via {chain}"
            ),
            hint: "propagate a typed error along the chain (StoreError / io::Error) or \
                   restructure so the serving path cannot reach this site",
        });
    }
}

// ---------------------------------------------------------------- IL003 deep

/// Deepened IL003: a call made while a mutex guard is live, where the
/// callee transitively reaches blocking I/O. The file-local pass only
/// sees I/O *names* in the scoped file itself; this catches the guard
/// smuggled through a helper. Reported at the call site in the scoped
/// file, with the chain down to the I/O.
pub fn il003_guard_into_io(g: &CallGraph, out: &mut Vec<Finding>) {
    let mut best: HashMap<(String, u32), (String, String, String)> = HashMap::new();
    for root in g.roots(|n| il003_in_scope(&n.file)) {
        let node = &g.nodes[root];
        for (ci, call) in node.facts.calls.iter().enumerate() {
            if call.held.is_empty() || IL003_IO_CALLS.contains(&call.name.as_str()) {
                continue;
            }
            let targets = &g.edges[root][ci];
            if targets.is_empty() {
                continue;
            }
            let reach = g.reach_many(targets, |n| audited_leaf(&n.file));
            let mut reached: Vec<usize> = reach.keys().copied().collect();
            reached.sort_unstable();
            for m in reached {
                for io in &g.nodes[m].facts.io {
                    let chain = format!("{} -> {}", node.label(), g.chain(&reach, m));
                    let key = (node.file.clone(), call.line);
                    let held = call.held.join(", ");
                    match best.get_mut(&key) {
                        Some((inc, _, _)) if !better_chain(&chain, inc) => {}
                        Some(slot) => *slot = (chain, io.what.clone(), held),
                        None => {
                            best.insert(key, (chain, io.what.clone(), held));
                        }
                    }
                }
            }
        }
    }
    for ((file, line), (chain, what, held)) in best {
        out.push(Finding {
            lint: "IL003",
            path: file,
            line,
            message: format!(
                "blocking I/O `{what}` reachable while mutex guard `{held}` is live, via {chain}"
            ),
            hint: "copy what you need out of the guard and drop it before the call, \
                   or hoist the I/O out of the locked region",
        });
    }
}

// ---------------------------------------------------------------- IL006

/// One "A held while acquiring B" observation with its witness.
struct LockEdge {
    file: String,
    line: u32,
    via: String,
}

/// IL006 lock-order: build the lock-acquisition order graph (an edge
/// A→B for every place lock B is acquired — directly or through calls —
/// while A is held) and report every cycle with per-edge witnesses.
/// A self-edge A→A is reported too: `std::sync::Mutex` is not reentrant,
/// so re-acquiring a held lock deadlocks on its own.
pub fn il006_lock_order(g: &CallGraph, out: &mut Vec<Finding>) {
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut note = |from: &str, to: &str, file: &str, line: u32, via: String| {
        edges.entry((from.to_string(), to.to_string())).or_insert_with(|| LockEdge {
            file: file.to_string(),
            line,
            via,
        });
    };
    for (i, node) in g.nodes.iter().enumerate() {
        if audited_leaf(&node.file) {
            continue;
        }
        // Direct nesting inside one body.
        for l in &node.facts.locks {
            for h in &l.held {
                note(h, &l.id, &node.file, l.line, node.label());
            }
        }
        // A call made under a guard, reaching an acquisition elsewhere.
        for (ci, call) in node.facts.calls.iter().enumerate() {
            if call.held.is_empty() || g.edges[i][ci].is_empty() {
                continue;
            }
            let reach = g.reach_many(&g.edges[i][ci], |n| audited_leaf(&n.file));
            let mut reached: Vec<usize> = reach.keys().copied().collect();
            reached.sort_unstable();
            for m in reached {
                for l in &g.nodes[m].facts.locks {
                    let via = format!("{} -> {}", node.label(), g.chain(&reach, m));
                    for h in &call.held {
                        note(h, &l.id, &node.file, call.line, via.clone());
                    }
                }
            }
        }
    }
    // Cycle search on the lock-id digraph: BFS from each node's
    // successors back to itself; dedup cycles by member set.
    let mut succ: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        succ.entry(a).or_default().push(b);
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in succ.keys().copied().collect::<Vec<_>>() {
        let mut parent: HashMap<&str, &str> = HashMap::new();
        let mut q: Vec<&str> = Vec::new();
        for &t in &succ[start] {
            if !parent.contains_key(t) {
                parent.insert(t, start);
                q.push(t);
            }
        }
        let mut qi = 0;
        while qi < q.len() && !parent.contains_key(start) {
            let n = q[qi];
            qi += 1;
            for &t in succ.get(n).map(Vec::as_slice).unwrap_or_default() {
                if !parent.contains_key(t) {
                    parent.insert(t, n);
                    q.push(t);
                }
            }
        }
        if !parent.contains_key(start) {
            continue;
        }
        let mut cyc = vec![start.to_string()];
        let mut cur = start;
        loop {
            cur = parent[cur];
            cyc.push(cur.to_string());
            if cur == start {
                break;
            }
        }
        cyc.reverse();
        let mut key = cyc.clone();
        key.sort();
        key.dedup();
        if !seen.insert(key) {
            continue;
        }
        let witnesses: Vec<String> = cyc
            .windows(2)
            .map(|w| {
                let e = &edges[&(w[0].clone(), w[1].clone())];
                format!("{} -> {} at {}:{} via {}", w[0], w[1], e.file, e.line, e.via)
            })
            .collect();
        let first = &edges[&(cyc[0].clone(), cyc[1].clone())];
        out.push(Finding {
            lint: "IL006",
            path: first.file.clone(),
            line: first.line,
            message: format!("lock-order cycle {}: {}", cyc.join(" -> "), witnesses.join("; ")),
            hint: "impose one global acquisition order (document it in sync.rs) or \
                   collapse the locks; any cycle deadlocks under contention",
        });
    }
}

// ---------------------------------------------------------------- IL009

/// The per-delta recompute roots: everything the engine runs between
/// taking a delta batch off the channel and handing frames to writers.
fn il009_root(n: &Node) -> bool {
    n.file.starts_with("crates/service/src/")
        && n.impl_type.as_deref() == Some("Engine")
        && matches!(n.name.as_str(), "apply_delta" | "refresh")
}

/// IL009 delta-loop purity: nothing reachable from the engine's
/// per-delta recompute path may block — no lock acquisition, no
/// blocking I/O, no recursion cycle (unbounded stack) within the
/// service crate. The recompute path is the serving latency floor;
/// one blocking call there stalls every subscriber.
pub fn il009_delta_purity(g: &CallGraph, out: &mut Vec<Finding>) {
    let mut best: HashMap<(String, u32, &'static str), String> = HashMap::new();
    let mut cycles: BTreeSet<String> = BTreeSet::new();
    let mut cycle_site: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for root in g.roots(il009_root) {
        let reach = g.reach(root, |n| audited_leaf(&n.file));
        let mut reached: Vec<usize> = reach.keys().copied().collect();
        reached.sort_unstable();
        for &m in &reached {
            let node = &g.nodes[m];
            for l in &node.facts.locks {
                let chain = g.chain(&reach, m);
                let key: (String, u32, &'static str) = (node.file.clone(), l.line, "lock");
                match best.get_mut(&key) {
                    Some(inc) if !better_chain(&chain, inc) => {}
                    Some(slot) => *slot = chain,
                    None => {
                        best.insert(key, chain);
                    }
                }
            }
            for io in &node.facts.io {
                let chain = g.chain(&reach, m);
                let key: (String, u32, &'static str) = (node.file.clone(), io.line, "io");
                match best.get_mut(&key) {
                    Some(inc) if !better_chain(&chain, inc) => {}
                    Some(slot) => *slot = chain,
                    None => {
                        best.insert(key, chain);
                    }
                }
            }
        }
        // Recursion: cycles among reached service-crate nodes. Bounded
        // tree walks elsewhere (core's spatial indexes) are depth-capped
        // by construction; the serving crate has no business recursing.
        let members: HashSet<usize> = reached
            .iter()
            .copied()
            .filter(|&m| g.nodes[m].file.starts_with("crates/service/src/"))
            .collect();
        for cyc in g.cycles_within(&members) {
            let label = cyc.iter().map(|&i| g.nodes[i].label()).collect::<Vec<_>>().join(" -> ");
            if cycles.insert(label.clone()) {
                cycle_site.insert(label, (g.nodes[cyc[0]].file.clone(), g.nodes[cyc[0]].line));
            }
        }
    }
    for ((file, line, kind), chain) in best {
        let what = if kind == "lock" { "lock acquisition" } else { "blocking I/O" };
        out.push(Finding {
            lint: "IL009",
            path: file,
            line,
            message: format!(
                "delta-loop impurity: {what} reachable from the recompute path via {chain}"
            ),
            hint: "keep the per-delta path pure: snapshot state before the loop, buffer \
                   output through the writer channel, push I/O to the supervisor thread",
        });
    }
    for (label, (file, line)) in cycle_site {
        out.push(Finding {
            lint: "IL009",
            path: file,
            line,
            message: format!("delta-loop impurity: recursion cycle {label} on the recompute path"),
            hint: "replace the recursion with an explicit worklist; stack depth on the \
                   recompute path must be bounded by code, not by input",
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::SourceFile;

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::new(*rel, src)).collect();
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        il002_reachable_panics(&g, &mut out);
        il003_guard_into_io(&g, &mut out);
        il006_lock_order(&g, &mut out);
        il009_delta_purity(&g, &mut out);
        out
    }

    #[test]
    fn il002_deep_reports_multi_hop_chain() {
        let out = findings(&[
            ("crates/service/src/server.rs", "fn handle_x(&self) { step_one(); }"),
            ("crates/core/src/a.rs", "pub fn step_one() { step_two(); }"),
            ("crates/core/src/b.rs", "pub fn step_two(v: &[u8]) { v.first().unwrap(); }"),
        ]);
        let f = out.iter().find(|f| f.lint == "IL002").expect("deep IL002");
        assert_eq!(f.path, "crates/core/src/b.rs");
        assert!(f.message.contains("handle_x -> step_one -> step_two"), "{}", f.message);
    }

    #[test]
    fn il003_deep_sees_io_behind_helper() {
        let out = findings(&[(
            "crates/service/src/server.rs",
            "
            fn fan_out(&self) {
                let g = self.conns.lock();
                push_all(&g);
            }
            fn push_all(c: &C) { c.sock.write_all(b).ok(); }
            ",
        )]);
        let f = out.iter().find(|f| f.lint == "IL003").expect("deep IL003");
        assert!(f.message.contains("guard `conns`"), "{}", f.message);
        assert!(f.message.contains("fan_out -> push_all"), "{}", f.message);
    }

    #[test]
    fn il006_detects_cross_fn_cycle() {
        let out = findings(&[(
            "crates/service/src/engine.rs",
            "
            fn ab(&self) { let a = self.alpha.lock(); grab_beta(self); }
            fn grab_beta(s: &S) { let b = s.beta.lock(); }
            fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }
            ",
        )]);
        let f = out.iter().find(|f| f.lint == "IL006").expect("cycle");
        assert!(f.message.contains("alpha") && f.message.contains("beta"), "{}", f.message);
        assert!(f.message.contains("ab -> grab_beta"), "{}", f.message);
    }

    #[test]
    fn il006_clean_on_consistent_order() {
        let out = findings(&[(
            "crates/service/src/engine.rs",
            "
            fn one(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
            fn two(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
            ",
        )]);
        assert!(!out.iter().any(|f| f.lint == "IL006"), "{out:?}");
    }

    #[test]
    fn il009_flags_lock_io_and_recursion() {
        let out = findings(&[(
            "crates/service/src/engine.rs",
            "
            impl Engine {
                fn apply_delta(&mut self) { self.recompute(); }
                fn recompute(&mut self) { let g = self.cache.lock(); self.spill(); self.recompute(); }
                fn spill(&self) { self.file.sync_all().ok(); }
            }
            ",
        )]);
        let il9: Vec<_> = out.iter().filter(|f| f.lint == "IL009").collect();
        assert!(il9.iter().any(|f| f.message.contains("lock acquisition")), "{il9:?}");
        assert!(il9.iter().any(|f| f.message.contains("blocking I/O")), "{il9:?}");
        assert!(il9.iter().any(|f| f.message.contains("recursion cycle")), "{il9:?}");
    }

    #[test]
    fn il009_clean_engine_is_quiet() {
        let out = findings(&[(
            "crates/service/src/engine.rs",
            "
            impl Engine {
                fn apply_delta(&mut self) { self.recompute(); }
                fn recompute(&mut self) { self.metrics.observe_delta(1); }
            }
            ",
        )]);
        assert!(!out.iter().any(|f| f.lint == "IL009"), "{out:?}");
    }
}
