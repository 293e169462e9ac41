//! Workspace call graph over [`crate::ast`]: every non-test `fn` body
//! becomes a node, every call site a set of candidate edges resolved by
//! name against a workspace symbol table.
//!
//! Resolution is deliberately conservative-toward-edges: a method call
//! `x.apply(..)` with an unknown receiver type links to *every* `apply`
//! method in the workspace. For reachability lints that over-approximation
//! is the safe direction — a missing edge hides a deadlock, a spurious one
//! costs at worst an allowlist entry. The main noise dampener is the
//! [`SKIP_METHODS`] list of ubiquitous trait methods (`next`, `clone`,
//! `fmt`, …) whose name-level fan-out would connect everything to
//! everything while proving nothing. A method call's fallback to free
//! fns of the same name stays inside what the caller's crate can reach:
//! itself and the workspace crates it names, transitively ([`crate_deps`]).

use crate::ast::{extract_facts, parse_fns, Callee, FnFacts};
use crate::lexer::TokKind;
use crate::rules::SourceFile;
use std::collections::{HashMap, HashSet, VecDeque};

/// Method names excluded from *method-call* edge resolution (qualified
/// `Type::name` calls still resolve): each is either a ubiquitous trait
/// method or shadows a std collection method (`truncate`, `start` via
/// the obs timer idiom `rec.start(..)`), so a name-level edge through
/// them is noise, and none of the project's impls hide locks or
/// blocking I/O behind these names (spot-audited; the fixture suite
/// would catch a regression that moved I/O into one).
const SKIP_METHODS: [&str; 26] = [
    "next",
    "clone",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "total_cmp",
    "hash",
    "drop",
    "default",
    "from",
    "into",
    "try_from",
    "try_into",
    "deref",
    "deref_mut",
    "index",
    "index_mut",
    "to_string",
    "write_str",
    "len",
    "truncate",
    "start",
    "load",
    "store",
];

/// One `fn` node: identity, location, and the extracted body facts.
pub struct Node {
    pub name: String,
    pub impl_type: Option<String>,
    pub file: String,
    pub line: u32,
    pub facts: FnFacts,
}

impl Node {
    /// `Type::name` or bare `name`, for chain rendering.
    pub fn label(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// name -> nodes that are methods/assoc fns of some impl.
    by_method: HashMap<String, Vec<usize>>,
    /// name -> free-fn nodes.
    by_free: HashMap<String, Vec<usize>>,
    /// (impl type, name) -> nodes.
    by_assoc: HashMap<(String, String), Vec<usize>>,
    /// crate -> the crates its code can call into ([`crate_deps`]).
    deps: HashMap<String, HashSet<String>>,
    /// Resolved call edges per node, parallel to `facts.calls`:
    /// `edges[n][c]` are the target node indices of call site `c`.
    pub edges: Vec<Vec<Vec<usize>>>,
}

impl CallGraph {
    /// Builds the graph over every non-test fn with a body in `files`.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut nodes = Vec::new();
        for f in files {
            for item in parse_fns(&f.toks) {
                if item.in_test {
                    continue;
                }
                let Some(body) = item.body else { continue };
                let facts = extract_facts(&f.toks, body);
                nodes.push(Node {
                    name: item.name,
                    impl_type: item.impl_type,
                    file: f.rel.clone(),
                    line: item.line,
                    facts,
                });
            }
        }
        let mut by_method: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_free: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_assoc: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            match &n.impl_type {
                Some(t) => {
                    by_method.entry(n.name.clone()).or_default().push(i);
                    by_assoc.entry((t.clone(), n.name.clone())).or_default().push(i);
                }
                None => by_free.entry(n.name.clone()).or_default().push(i),
            }
        }
        let deps = crate_deps(files);
        let mut g = CallGraph { nodes, by_method, by_free, by_assoc, deps, edges: Vec::new() };
        g.edges = (0..g.nodes.len())
            .map(|i| {
                g.nodes[i].facts.calls.iter().map(|c| g.resolve(&c.name, &c.callee, i)).collect()
            })
            .collect();
        g
    }

    /// Candidate target nodes for a call site in node `caller`.
    fn resolve(&self, name: &str, callee: &Callee, caller: usize) -> Vec<usize> {
        let caller_ty = self.nodes[caller].impl_type.as_deref();
        match callee {
            Callee::Assoc(qual) => {
                let ty = if qual == "Self" { caller_ty.unwrap_or(qual) } else { qual };
                self.by_assoc.get(&(ty.to_string(), name.to_string())).cloned().unwrap_or_default()
            }
            Callee::Free => self.by_free.get(name).cloned().unwrap_or_default(),
            Callee::Qualified(module) => {
                // `frame::write_frame(..)` prefers free fns defined in a
                // file named after the module; only when none exists does
                // it fall back to every free fn of that name.
                let all = self.by_free.get(name).cloned().unwrap_or_default();
                let file_rs = format!("/{module}.rs");
                let file_mod = format!("/{module}/mod.rs");
                let scoped: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let f = &self.nodes[i].file;
                        f.ends_with(&file_rs) || f.ends_with(&file_mod)
                    })
                    .collect();
                if scoped.is_empty() {
                    all
                } else {
                    scoped
                }
            }
            Callee::Method(recv) => {
                // Bare method names are the ambiguous case — this is
                // where the noise dampener applies.
                if SKIP_METHODS.contains(&name) {
                    return Vec::new();
                }
                // `self.m(..)` in `impl T` resolves to `T::m` when that
                // exists; otherwise (and for non-self receivers) fall back
                // to every method of that name, and to the free fns of
                // that name in crates the caller's crate can reach.
                if recv.as_deref() == Some("self") {
                    if let Some(ty) = caller_ty {
                        if let Some(v) = self.by_assoc.get(&(ty.to_string(), name.to_string())) {
                            return v.clone();
                        }
                    }
                }
                let mut v = self.by_method.get(name).cloned().unwrap_or_default();
                let reachable = self.deps.get(&crate_of(&self.nodes[caller].file));
                v.extend(self.by_free.get(name).into_iter().flatten().copied().filter(|&i| {
                    reachable.is_some_and(|r| r.contains(&crate_of(&self.nodes[i].file)))
                }));
                v
            }
        }
    }

    /// Node indices whose `(file, name)` matches a predicate — the usual
    /// way rules pick BFS roots.
    pub fn roots(&self, mut pred: impl FnMut(&Node) -> bool) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| pred(&self.nodes[i])).collect()
    }

    /// Breadth-first reachability from `root`, not descending into nodes
    /// for which `skip` is true. Returns the parent map (`reached[n]` =
    /// node we arrived from), with `root` mapped to itself.
    pub fn reach(&self, root: usize, mut skip: impl FnMut(&Node) -> bool) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        parent.insert(root, root);
        let mut q = VecDeque::from([root]);
        while let Some(n) = q.pop_front() {
            for targets in &self.edges[n] {
                for &t in targets {
                    if parent.contains_key(&t) || skip(&self.nodes[t]) {
                        continue;
                    }
                    parent.insert(t, n);
                    q.push_back(t);
                }
            }
        }
        parent
    }

    /// [`reach`] from several seeds at once (each mapped to itself) —
    /// the shape call-site rules need: BFS from a call's candidate
    /// targets rather than from the caller.
    pub fn reach_many(
        &self,
        seeds: &[usize],
        mut skip: impl FnMut(&Node) -> bool,
    ) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut q = VecDeque::new();
        for &s in seeds {
            if !parent.contains_key(&s) && !skip(&self.nodes[s]) {
                parent.insert(s, s);
                q.push_back(s);
            }
        }
        while let Some(n) = q.pop_front() {
            for targets in &self.edges[n] {
                for &t in targets {
                    if parent.contains_key(&t) || skip(&self.nodes[t]) {
                        continue;
                    }
                    parent.insert(t, n);
                    q.push_back(t);
                }
            }
        }
        parent
    }

    /// The call chain `root → … → node` out of a [`reach`] parent map,
    /// rendered as `a → B::b → c`.
    pub fn chain(&self, parent: &HashMap<usize, usize>, node: usize) -> String {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.iter().map(|&i| self.nodes[i].label()).collect::<Vec<_>>().join(" -> ")
    }

    /// Cycles among `members`: for each member `n`, a shortest path from
    /// one of `n`'s successors back to `n` (edges restricted to the set)
    /// witnesses a cycle through `n`. Returned as node-index paths
    /// `n → … → n` (first == last), deduplicated by member set, so every
    /// strongly-connected component yields at least one witness.
    pub fn cycles_within(&self, members: &HashSet<usize>) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = Vec::new();
        let mut seen_sets: HashSet<Vec<usize>> = HashSet::new();
        let mut ordered: Vec<usize> = members.iter().copied().collect();
        ordered.sort_unstable();
        for start in ordered {
            // BFS from start's successors, looking for a path back.
            let mut parent: HashMap<usize, usize> = HashMap::new();
            let mut q = VecDeque::new();
            for targets in &self.edges[start] {
                for &t in targets {
                    if members.contains(&t) && !parent.contains_key(&t) {
                        parent.insert(t, start);
                        q.push_back(t);
                    }
                }
            }
            if !parent.contains_key(&start) {
                while let Some(n) = q.pop_front() {
                    if n == start {
                        break;
                    }
                    for targets in &self.edges[n] {
                        for &t in targets {
                            if members.contains(&t) && !parent.contains_key(&t) {
                                parent.insert(t, n);
                                q.push_back(t);
                            }
                        }
                    }
                }
            }
            if !parent.contains_key(&start) {
                continue;
            }
            let mut cyc = vec![start];
            let mut cur = start;
            loop {
                cur = parent[&cur];
                cyc.push(cur);
                if cur == start {
                    break;
                }
            }
            cyc.reverse();
            let mut key = cyc.clone();
            key.sort_unstable();
            key.dedup();
            if seen_sets.insert(key) {
                out.push(cyc);
            }
        }
        out
    }
}

/// The crate a workspace file belongs to, under the name its dependents
/// write: `inflow_<dir>` for `crates/<dir>/…`, and the root `inflow` for
/// everything else (`src/`, `examples/`).
fn crate_of(rel: &str) -> String {
    match rel.strip_prefix("crates/").and_then(|r| r.split('/').next()) {
        Some(dir) => format!("inflow_{dir}"),
        None => "inflow".to_string(),
    }
}

/// For each crate of `files`, the crates its non-test code can call into:
/// itself, and the workspace crates its sources name (`inflow_geometry`
/// in a `use` or a path), transitively. A crate can only name what its
/// manifest depends on, so this is the dependency closure as far as the
/// code uses it.
fn crate_deps(files: &[SourceFile]) -> HashMap<String, HashSet<String>> {
    let mut deps: HashMap<String, HashSet<String>> = HashMap::new();
    for f in files {
        let own = crate_of(&f.rel);
        deps.entry(own.clone()).or_default().insert(own);
    }
    let crates: HashSet<String> = deps.keys().cloned().collect();
    for f in files {
        let named = f
            .toks
            .iter()
            .filter(|t| !t.in_test && t.kind == TokKind::Ident && crates.contains(t.text.as_str()));
        let set = deps.entry(crate_of(&f.rel)).or_default();
        set.extend(named.map(|t| t.text.clone()));
    }
    loop {
        let before = deps.clone();
        let mut grew = false;
        for set in deps.values_mut() {
            let reached: Vec<String> = set
                .iter()
                .flat_map(|d| &before[d])
                .filter(|c| !set.contains(*c))
                .cloned()
                .collect();
            grew |= !reached.is_empty();
            set.extend(reached);
        }
        if !grew {
            return deps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(&[SourceFile::new("crates/x/src/lib.rs", src)])
    }

    fn idx(g: &CallGraph, label: &str) -> usize {
        (0..g.nodes.len()).find(|&i| g.nodes[i].label() == label).expect("node")
    }

    #[test]
    fn resolves_free_method_and_assoc_calls() {
        let g = graph(
            "
            fn top() { helper(); S::make(); }
            fn helper() {}
            struct S;
            impl S {
                fn make() -> S { S }
                fn go(&self) { self.step(); }
                fn step(&self) {}
            }
        ",
        );
        let top = idx(&g, "top");
        let reach = g.reach(top, |_| false);
        assert!(reach.contains_key(&idx(&g, "helper")));
        assert!(reach.contains_key(&idx(&g, "S::make")));
        assert!(!reach.contains_key(&idx(&g, "S::step")));
        let go = idx(&g, "S::go");
        assert!(g.reach(go, |_| false).contains_key(&idx(&g, "S::step")));
    }

    #[test]
    fn method_fallback_stays_in_the_crates_the_caller_can_reach() {
        // A method call whose receiver type is unknown falls back to free
        // fns of the same name. The lint's own file walker, which does
        // I/O, must not be one for a grid walk in geometry: no chain from
        // a query path can reach the lint crate.
        let g = CallGraph::build(&[
            SourceFile::new(
                "crates/geometry/src/area.rs",
                "
                pub fn field_in_polygon() { walk_grid(Grid); }
                fn walk_grid(g: Grid) { g.walk(); }
                struct Grid;
                impl Grid { fn walk(&self) {} }
                pub fn walk() {}
            ",
            ),
            SourceFile::new(
                "crates/core/src/longvisit.rs",
                "
                use inflow_geometry::field_in_polygon;
                pub fn dwell(g: Grid) { field_in_polygon(); g.walk(); }
            ",
            ),
            SourceFile::new(
                "crates/lint/src/lib.rs",
                "fn walk(dir: &Path) { std::fs::read_dir(dir); }",
            ),
        ]);
        let lint_walk = (0..g.nodes.len())
            .find(|&i| g.nodes[i].label() == "walk" && g.nodes[i].file.starts_with("crates/lint"))
            .expect("the lint's walk");
        let geometry_walk = (0..g.nodes.len())
            .find(|&i| g.nodes[i].label() == "walk" && g.nodes[i].file.starts_with("crates/geo"))
            .expect("geometry's free walk");
        let from_geometry = g.reach(idx(&g, "field_in_polygon"), |_| false);
        assert!(from_geometry.contains_key(&idx(&g, "Grid::walk")));
        assert!(from_geometry.contains_key(&geometry_walk), "same-crate fallback kept");
        assert!(!from_geometry.contains_key(&lint_walk), "{}", g.chain(&from_geometry, lint_walk));
        // A crate that names geometry still falls back into it.
        let from_core = g.reach(idx(&g, "dwell"), |_| false);
        assert!(from_core.contains_key(&geometry_walk));
        assert!(!from_core.contains_key(&lint_walk), "{}", g.chain(&from_core, lint_walk));
    }

    #[test]
    fn skip_methods_produce_no_edges() {
        let g = graph(
            "
            fn top(x: It) { x.next(); }
            struct It;
            impl It { fn next(&self) { dangerous(); } }
            fn dangerous() {}
        ",
        );
        let reach = g.reach(idx(&g, "top"), |_| false);
        assert!(!reach.contains_key(&idx(&g, "dangerous")));
    }

    #[test]
    fn chains_render_root_to_leaf() {
        let g = graph(
            "
            fn a() { b(); }
            fn b() { c(); }
            fn c() {}
        ",
        );
        let a = idx(&g, "a");
        let reach = g.reach(a, |_| false);
        assert_eq!(g.chain(&reach, idx(&g, "c")), "a -> b -> c");
    }

    #[test]
    fn finds_cycles_including_self_loops() {
        let g = graph(
            "
            fn a() { b(); }
            fn b() { a(); }
            fn solo() { solo(); }
            fn line() {}
        ",
        );
        let members: HashSet<usize> = (0..g.nodes.len()).collect();
        let cycles = g.cycles_within(&members);
        assert_eq!(cycles.len(), 2, "a<->b and solo: {cycles:?}");
        assert!(cycles.iter().any(|c| c.len() == 2 && c[0] == idx(&g, "solo")));
    }
}
