//! R-tree spatial indexing for the top-k join algorithms.
//!
//! The paper (§4.1) uses two R-tree based indexes: `R_P` over the query
//! POIs and an in-memory *aggregate* R-tree `R_I` over the MBRs of the
//! objects relevant to a query, where every node entry is augmented with a
//! `count` of the objects in its subtree — the source of the join
//! algorithms' upper-bound flows.
//!
//! [`RTree`] provides both roles:
//!
//! * Guttman-style insertion with quadratic split, plus an STR
//!   (sort-tile-recursive) bulk loader for static data;
//! * rectangle intersection queries;
//! * a low-level *entry* API ([`EntryRef`]) exposing per-entry MBRs,
//!   aggregate counts, and child navigation, which the join algorithms
//!   (Algorithms 2, 3 and 5) drive directly.

use inflow_geometry::Mbr;

/// Maximum number of entries per node before a split.
pub const MAX_ENTRIES: usize = 16;
/// Minimum number of entries per node after a split.
pub const MIN_ENTRIES: usize = 6;

/// A 2D R-tree mapping rectangles to payloads of type `T`.
#[derive(Debug)]
pub struct RTree<T> {
    nodes: Vec<Node>,
    items: Vec<T>,
    root: u32,
    len: usize,
}

#[derive(Debug)]
struct Node {
    /// 0 for leaves; grows towards the root.
    level: u32,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    mbr: Mbr,
    /// Child node index (internal nodes) or item index (leaves).
    child: u32,
    /// Number of items in the subtree (1 for leaf entries).
    count: u32,
}

/// An opaque reference to one entry of the tree, valid until the next
/// mutation. The join algorithms copy these freely into join lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
// The derived `PartialOrd` calls `partial_cmp` on its integer fields.
#[allow(clippy::disallowed_methods)]
pub struct EntryRef {
    node: u32,
    slot: u32,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        RTree::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> RTree<T> {
        RTree {
            nodes: vec![Node { level: 0, entries: Vec::new() }],
            items: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    /// Bulk-loads the tree with sort-tile-recursive packing; much better
    /// node utilization than repeated insertion for static data.
    pub fn bulk_load(data: Vec<(Mbr, T)>) -> RTree<T> {
        if data.is_empty() {
            return RTree::new();
        }
        let mut tree = RTree {
            nodes: Vec::new(),
            items: Vec::with_capacity(data.len()),
            root: 0,
            len: data.len(),
        };
        // Leaf entries reference items by index.
        let mut entries: Vec<Entry> = Vec::with_capacity(data.len());
        for (mbr, item) in data {
            let idx = tree.items.len() as u32;
            tree.items.push(item);
            entries.push(Entry { mbr, child: idx, count: 1 });
        }
        let mut level = 0u32;
        loop {
            let parents = tree.pack_level(entries, level);
            if parents.len() == 1 {
                tree.root = parents[0].child;
                return tree;
            }
            entries = parents;
            level += 1;
        }
    }

    /// Packs one level's entries into nodes (STR), returning the entries of
    /// the level above.
    fn pack_level(&mut self, mut entries: Vec<Entry>, level: u32) -> Vec<Entry> {
        let n = entries.len();
        let node_count = n.div_ceil(MAX_ENTRIES);
        let strip_count = (node_count as f64).sqrt().ceil() as usize;
        let per_strip = n.div_ceil(strip_count);
        entries.sort_by(|a, b| a.mbr.center().x.total_cmp(&b.mbr.center().x));
        let mut parents = Vec::with_capacity(node_count);
        for strip in entries.chunks_mut(per_strip.max(1)) {
            strip.sort_by(|a, b| a.mbr.center().y.total_cmp(&b.mbr.center().y));
            for group in strip.chunks(MAX_ENTRIES) {
                let node_idx = self.nodes.len() as u32;
                let mbr = group.iter().fold(Mbr::EMPTY, |m, e| m.union(&e.mbr));
                let count = group.iter().map(|e| e.count).sum();
                self.nodes.push(Node { level, entries: group.to_vec() });
                parents.push(Entry { mbr, child: node_idx, count });
            }
        }
        parents
    }

    /// Number of items in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a single leaf node).
    pub fn height(&self) -> usize {
        self.nodes[self.root as usize].level as usize + 1
    }

    /// Inserts an item with its bounding rectangle.
    pub fn insert(&mut self, mbr: Mbr, item: T) {
        let item_idx = self.items.len() as u32;
        self.items.push(item);
        let entry = Entry { mbr, child: item_idx, count: 1 };
        if let Some((split_a, split_b)) = self.insert_at(self.root, entry) {
            // Root split: grow the tree by one level.
            let new_level = self.nodes[self.root as usize].level + 1;
            let new_root = self.nodes.len() as u32;
            self.nodes.push(Node { level: new_level, entries: vec![split_a, split_b] });
            self.root = new_root;
        }
        self.len += 1;
    }

    /// Recursively inserts `entry` under `node`; returns the replacement
    /// pair when the node split.
    fn insert_at(&mut self, node: u32, entry: Entry) -> Option<(Entry, Entry)> {
        let level = self.nodes[node as usize].level;
        if level == 0 {
            self.nodes[node as usize].entries.push(entry);
        } else {
            let slot = self.choose_subtree(node, &entry.mbr);
            let child = self.nodes[node as usize].entries[slot].child;
            match self.insert_at(child, entry) {
                None => {
                    // Update the covering entry in place.
                    let e = &mut self.nodes[node as usize].entries[slot];
                    e.mbr = e.mbr.union(&entry.mbr);
                    e.count += 1;
                }
                Some((a, b)) => {
                    self.nodes[node as usize].entries[slot] = a;
                    self.nodes[node as usize].entries.push(b);
                }
            }
        }
        if self.nodes[node as usize].entries.len() > MAX_ENTRIES {
            Some(self.split(node))
        } else {
            None
        }
    }

    /// Least-enlargement subtree choice (ties by smaller area).
    fn choose_subtree(&self, node: u32, mbr: &Mbr) -> usize {
        let entries = &self.nodes[node as usize].entries;
        let mut best = 0usize;
        let mut best_enlargement = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, e) in entries.iter().enumerate() {
            let enlargement = e.mbr.enlargement(mbr);
            let area = e.mbr.area();
            if enlargement < best_enlargement
                || (enlargement == best_enlargement && area < best_area)
            {
                best = i;
                best_enlargement = enlargement;
                best_area = area;
            }
        }
        best
    }

    /// Guttman's quadratic split. The node keeps one group; a sibling takes
    /// the other; the returned entry pair replaces the original parent
    /// entry.
    fn split(&mut self, node: u32) -> (Entry, Entry) {
        let level = self.nodes[node as usize].level;
        let entries = std::mem::take(&mut self.nodes[node as usize].entries);

        // Pick the pair of seeds wasting the most area together.
        let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..entries.len() {
            for j in i + 1..entries.len() {
                let waste = entries[i].mbr.union(&entries[j].mbr).area()
                    - entries[i].mbr.area()
                    - entries[j].mbr.area();
                if waste > worst {
                    worst = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }

        let mut group_a = vec![entries[seed_a]];
        let mut group_b = vec![entries[seed_b]];
        let mut mbr_a = entries[seed_a].mbr;
        let mut mbr_b = entries[seed_b].mbr;
        let mut rest: Vec<Entry> = entries
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| i != seed_a && i != seed_b)
            .map(|(_, e)| e)
            .collect();

        while let Some(pos) = next_split_candidate(&rest, &mbr_a, &mbr_b) {
            let e = rest.swap_remove(pos);
            let da = mbr_a.enlargement(&e.mbr);
            let db = mbr_b.enlargement(&e.mbr);
            // Force-assign when one group must absorb the remainder to
            // satisfy the minimum fill.
            let need_a = MIN_ENTRIES.saturating_sub(group_a.len());
            let need_b = MIN_ENTRIES.saturating_sub(group_b.len());
            let remaining = rest.len() + 1;
            let to_a = if need_a >= remaining {
                true
            } else if need_b >= remaining {
                false
            } else {
                da < db || (da == db && mbr_a.area() <= mbr_b.area())
            };
            if to_a {
                mbr_a = mbr_a.union(&e.mbr);
                group_a.push(e);
            } else {
                mbr_b = mbr_b.union(&e.mbr);
                group_b.push(e);
            }
        }

        let count_a = group_a.iter().map(|e| e.count).sum();
        let count_b = group_b.iter().map(|e| e.count).sum();
        self.nodes[node as usize].entries = group_a;
        let sibling = self.nodes.len() as u32;
        self.nodes.push(Node { level, entries: group_b });
        (
            Entry { mbr: mbr_a, child: node, count: count_a },
            Entry { mbr: mbr_b, child: sibling, count: count_b },
        )
    }

    /// Collects references to all items whose MBRs intersect `query`.
    pub fn query_intersecting(&self, query: &Mbr) -> Vec<&T> {
        let mut out = Vec::new();
        self.visit_intersecting(query, &mut |_mbr, item| out.push(item));
        out
    }

    /// Like [`RTree::query_intersecting`], but also reports how many tree
    /// nodes the search expanded — the observability layer's
    /// `rtree_nodes_visited` counter.
    pub fn query_intersecting_counted(&self, query: &Mbr) -> (Vec<&T>, usize) {
        let mut out = Vec::new();
        let visited = self.visit_counted(query, &mut |_mbr, item| out.push(item));
        (out, visited)
    }

    /// Visits `(mbr, item)` for every item whose MBR intersects `query`.
    pub fn visit_intersecting<'a>(&'a self, query: &Mbr, f: &mut dyn FnMut(&Mbr, &'a T)) {
        self.visit_counted(query, f);
    }

    fn visit_counted<'a>(&'a self, query: &Mbr, f: &mut dyn FnMut(&Mbr, &'a T)) -> usize {
        if self.len == 0 {
            return 0;
        }
        let mut visited = 0;
        let mut stack = vec![self.root];
        while let Some(node_idx) = stack.pop() {
            visited += 1;
            let node = &self.nodes[node_idx as usize];
            for e in &node.entries {
                if e.mbr.intersects(query) {
                    if node.level == 0 {
                        f(&e.mbr, &self.items[e.child as usize]);
                    } else {
                        stack.push(e.child);
                    }
                }
            }
        }
        visited
    }

    // ---- Entry-level API used by the join algorithms -------------------

    /// The entries of the root node.
    pub fn root_entries(&self) -> Vec<EntryRef> {
        self.node_entry_refs(self.root)
    }

    fn node_entry_refs(&self, node: u32) -> Vec<EntryRef> {
        (0..self.nodes[node as usize].entries.len())
            .map(|slot| EntryRef { node, slot: slot as u32 })
            .collect()
    }

    fn entry(&self, e: EntryRef) -> &Entry {
        &self.nodes[e.node as usize].entries[e.slot as usize]
    }

    /// The entry's bounding rectangle.
    pub fn entry_mbr(&self, e: EntryRef) -> Mbr {
        self.entry(e).mbr
    }

    /// The number of items in the entry's subtree (1 for leaf entries) —
    /// the aggregate `count` of the paper's `R_I`.
    pub fn entry_count(&self, e: EntryRef) -> u32 {
        self.entry(e).count
    }

    /// Whether the entry belongs to a leaf node (i.e. references an item).
    pub fn is_leaf_entry(&self, e: EntryRef) -> bool {
        self.nodes[e.node as usize].level == 0
    }

    /// The entries of the child node referenced by a non-leaf entry.
    ///
    /// # Panics
    /// Panics when called on a leaf entry.
    pub fn children(&self, e: EntryRef) -> Vec<EntryRef> {
        assert!(!self.is_leaf_entry(e), "leaf entries have no children");
        self.node_entry_refs(self.entry(e).child)
    }

    /// The item referenced by a leaf entry.
    ///
    /// # Panics
    /// Panics when called on a non-leaf entry.
    pub fn item(&self, e: EntryRef) -> &T {
        assert!(self.is_leaf_entry(e), "internal entries carry no item");
        &self.items[self.entry(e).child as usize]
    }

    /// Iterates over all `(mbr, item)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (Mbr, &T)> + '_ {
        self.nodes.iter().filter(|n| n.level == 0).flat_map(move |n| {
            n.entries.iter().map(move |e| (e.mbr, &self.items[e.child as usize]))
        })
    }
}

/// Picks the next entry to assign during the quadratic split: the one with
/// the greatest preference for either group. Returns `None` when done.
fn next_split_candidate(rest: &[Entry], mbr_a: &Mbr, mbr_b: &Mbr) -> Option<usize> {
    if rest.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_pref = f64::NEG_INFINITY;
    for (i, e) in rest.iter().enumerate() {
        let pref = (mbr_a.enlargement(&e.mbr) - mbr_b.enlargement(&e.mbr)).abs();
        if pref > best_pref {
            best_pref = pref;
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflow_geometry::Point;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Mbr {
        Mbr::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// Deterministic pseudo-random rectangles (xorshift, no external crates).
    fn pseudo_random_rects(n: usize, seed: u64) -> Vec<Mbr> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let x = next() * 100.0;
                let y = next() * 100.0;
                let w = next() * 5.0;
                let h = next() * 5.0;
                rect(x, y, x + w, y + h)
            })
            .collect()
    }

    fn brute_force(rects: &[Mbr], query: &Mbr) -> Vec<usize> {
        let mut v: Vec<usize> =
            rects.iter().enumerate().filter(|(_, r)| r.intersects(query)).map(|(i, _)| i).collect();
        v.sort_unstable();
        v
    }

    fn check_against_brute_force(tree: &RTree<usize>, rects: &[Mbr]) {
        for q in pseudo_random_rects(40, 777) {
            let q = rect(q.lo.x, q.lo.y, q.lo.x + 20.0, q.lo.y + 20.0);
            let mut got: Vec<usize> = tree.query_intersecting(&q).into_iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(rects, &q), "query {q:?}");
        }
    }

    #[test]
    fn insert_then_query_matches_brute_force() {
        let rects = pseudo_random_rects(500, 42);
        let mut tree = RTree::new();
        for (i, &m) in rects.iter().enumerate() {
            tree.insert(m, i);
        }
        assert_eq!(tree.len(), 500);
        check_against_brute_force(&tree, &rects);
    }

    #[test]
    fn bulk_load_then_query_matches_brute_force() {
        let rects = pseudo_random_rects(500, 4242);
        let tree =
            RTree::bulk_load(rects.iter().copied().enumerate().map(|(i, m)| (m, i)).collect());
        assert_eq!(tree.len(), 500);
        check_against_brute_force(&tree, &rects);
    }

    #[test]
    fn empty_tree() {
        let tree: RTree<usize> = RTree::new();
        assert!(tree.is_empty());
        assert!(tree.query_intersecting(&rect(0.0, 0.0, 100.0, 100.0)).is_empty());
        assert!(tree.root_entries().is_empty());
        let bulk: RTree<usize> = RTree::bulk_load(Vec::new());
        assert!(bulk.is_empty());
    }

    #[test]
    fn single_item() {
        let mut tree = RTree::new();
        tree.insert(rect(1.0, 1.0, 2.0, 2.0), 7usize);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.query_intersecting(&rect(0.0, 0.0, 3.0, 3.0)), vec![&7]);
        assert!(tree.query_intersecting(&rect(5.0, 5.0, 6.0, 6.0)).is_empty());
    }

    /// Structural invariants: parent MBRs contain child MBRs and counts sum.
    fn check_invariants(tree: &RTree<usize>) {
        fn recurse(tree: &RTree<usize>, e: EntryRef) -> (Mbr, u32) {
            if tree.is_leaf_entry(e) {
                assert_eq!(tree.entry_count(e), 1);
                return (tree.entry_mbr(e), 1);
            }
            let mut total = 0;
            let parent_mbr = tree.entry_mbr(e);
            for child in tree.children(e) {
                let (child_mbr, child_count) = recurse(tree, child);
                assert!(parent_mbr.contains_mbr(&child_mbr), "parent MBR must contain child MBR");
                total += child_count;
            }
            assert_eq!(tree.entry_count(e), total, "aggregate count mismatch");
            (parent_mbr, total)
        }
        let mut total = 0;
        for e in tree.root_entries() {
            total += recurse(tree, e).1;
        }
        assert_eq!(total, tree.len() as u32);
    }

    #[test]
    fn invariants_after_insertion() {
        let rects = pseudo_random_rects(800, 99);
        let mut tree = RTree::new();
        for (i, &m) in rects.iter().enumerate() {
            tree.insert(m, i);
        }
        check_invariants(&tree);
        assert!(tree.height() >= 2);
    }

    #[test]
    fn invariants_after_bulk_load() {
        let rects = pseudo_random_rects(800, 123);
        let tree =
            RTree::bulk_load(rects.iter().copied().enumerate().map(|(i, m)| (m, i)).collect());
        check_invariants(&tree);
    }

    #[test]
    fn entry_api_reaches_every_item_once() {
        let rects = pseudo_random_rects(200, 5);
        let tree =
            RTree::bulk_load(rects.iter().copied().enumerate().map(|(i, m)| (m, i)).collect());
        let mut seen = [false; 200];
        let mut stack = tree.root_entries();
        while let Some(e) = stack.pop() {
            if tree.is_leaf_entry(e) {
                let &i = tree.item(e);
                assert!(!seen[i], "item {i} reached twice");
                seen[i] = true;
            } else {
                stack.extend(tree.children(e));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn iter_yields_all_items() {
        let rects = pseudo_random_rects(64, 9);
        let mut tree = RTree::new();
        for (i, &m) in rects.iter().enumerate() {
            tree.insert(m, i);
        }
        let mut items: Vec<usize> = tree.iter().map(|(_, &i)| i).collect();
        items.sort_unstable();
        assert_eq!(items, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_mbrs_are_kept() {
        let mut tree = RTree::new();
        let m = rect(0.0, 0.0, 1.0, 1.0);
        for i in 0..50usize {
            tree.insert(m, i);
        }
        assert_eq!(tree.query_intersecting(&m).len(), 50);
        check_invariants(&tree);
    }
}
