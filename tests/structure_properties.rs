//! Seeded properties of the core data structures and geometric
//! invariants: MBR laws, R-tree queries, the extended ellipse's budget
//! monotonicity, AR-tree state resolution and reading merges. Each runs
//! 48 cases drawn from the in-tree `StdRng`, so the whole suite is
//! deterministic and needs no external crate.

use inflow::geometry::{Circle, ExtendedEllipse, Mbr, Point};
use inflow::indoor::DeviceId;
use inflow::rtree::RTree;
use inflow::tracking::{
    merge_raw_readings, ArTree, ObjectId, ObjectTrackingTable, OttRow, RawReading,
};
use inflow::workload::rng::StdRng;
use std::collections::HashMap;

const CASES: usize = 48;

fn point(rng: &mut StdRng, range: f64) -> Point {
    Point::new(rng.random_range(-range..range), rng.random_range(-range..range))
}

/// A rectangle with its low corner in `[-50, 50)²` and sides in `[0.1, 20)`.
fn rect(rng: &mut StdRng) -> Mbr {
    let p = point(rng, 50.0);
    Mbr::new(p, Point::new(p.x + rng.random_range(0.1..20.0), p.y + rng.random_range(0.1..20.0)))
}

fn rects(rng: &mut StdRng, max: usize) -> Vec<Mbr> {
    let len = rng.random_range(1..max);
    (0..len).map(|_| rect(rng)).collect()
}

fn sorted_hits(tree: &RTree<usize>, query: &Mbr) -> Vec<usize> {
    let mut hits: Vec<usize> = tree.query_intersecting(query).into_iter().copied().collect();
    hits.sort_unstable();
    hits
}

fn bulk(rects: &[Mbr]) -> RTree<usize> {
    RTree::bulk_load(rects.iter().copied().enumerate().map(|(i, m)| (m, i)).collect())
}

/// MBR operations are consistent: union contains both, intersection is
/// contained in both.
#[test]
fn mbr_union_intersection_laws() {
    let mut rng = StdRng::seed_from_u64(0x3B2_1A55);
    for _ in 0..CASES {
        let (a, b) = (rect(&mut rng), rect(&mut rng));
        let u = a.union(&b);
        assert!(u.contains_mbr(&a) && u.contains_mbr(&b), "{a:?} ∪ {b:?} = {u:?}");
        let i = a.intersection(&b);
        if !i.is_empty() {
            assert!(a.contains_mbr(&i) && b.contains_mbr(&i), "{a:?} ∩ {b:?} = {i:?}");
            assert!(a.intersects(&b));
        }
        // Monotonicity: the bounding union is at least as large as either
        // input; the intersection at most as large.
        assert!(u.area() >= a.area().max(b.area()) - 1e-9);
        assert!(i.area() <= a.area().min(b.area()) + 1e-9);
    }
}

/// R-tree intersection queries agree with a brute-force scan.
#[test]
fn rtree_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x27EE);
    for _ in 0..CASES {
        let rects = rects(&mut rng, 200);
        let query = rect(&mut rng);
        let want: Vec<usize> = (0..rects.len()).filter(|&i| rects[i].intersects(&query)).collect();
        assert_eq!(sorted_hits(&bulk(&rects), &query), want, "query {query:?}");
    }
}

/// Inserting one-by-one and bulk loading answer queries identically.
#[test]
fn rtree_insert_and_bulk_agree() {
    let mut rng = StdRng::seed_from_u64(0x1B5E);
    for _ in 0..CASES {
        let rects = rects(&mut rng, 120);
        let query = rect(&mut rng);
        let mut incremental = RTree::new();
        for (i, &m) in rects.iter().enumerate() {
            incremental.insert(m, i);
        }
        assert_eq!(
            sorted_hits(&bulk(&rects), &query),
            sorted_hits(&incremental, &query),
            "query {query:?}"
        );
    }
}

/// The extended ellipse is monotone in its budget.
#[test]
fn theta_monotone_in_budget() {
    let mut rng = StdRng::seed_from_u64(0x7E7A);
    for _ in 0..CASES {
        let c1 = Circle::new(point(&mut rng, 10.0), 0.5);
        let c2 = Circle::new(point(&mut rng, 10.0), 0.5);
        let budget = rng.random_range(0.0..20.0);
        let extra = rng.random_range(0.0..10.0);
        let small = ExtendedEllipse::new(c1, c2, budget);
        let large = ExtendedEllipse::new(c1, c2, budget + extra);
        for _ in 0..32 {
            let probe = point(&mut rng, 30.0);
            if small.contains(probe) {
                assert!(large.contains(probe), "{small:?} admits {probe}, {large:?} does not");
            }
        }
    }
}

/// AR-tree point queries agree with the OTT state machine on random
/// record chains.
#[test]
fn artree_agrees_with_state_machine() {
    let mut rng = StdRng::seed_from_u64(0xA27E);
    for _ in 0..CASES {
        let mut seeds: Vec<(u32, u32, f64, f64)> = (0..rng.random_range(1..60usize))
            .map(|_| {
                (
                    rng.random_range(0..8u32),
                    rng.random_range(0..5u32),
                    rng.random_range(0.0..100.0),
                    rng.random_range(0.1..5.0),
                )
            })
            .collect();
        // Make per-object rows disjoint by sorting and pushing starts.
        seeds.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.total_cmp(&b.2)));
        let mut free_from: HashMap<u32, f64> = HashMap::new();
        let mut rows = Vec::new();
        for (o, d, ts, dur) in seeds {
            let start = free_from.get(&o).copied().unwrap_or(f64::NEG_INFINITY).max(ts);
            let end = start + dur;
            rows.push(OttRow { object: ObjectId(o), device: DeviceId(d), ts: start, te: end });
            free_from.insert(o, end + 0.001);
        }
        let ott = ObjectTrackingTable::from_rows(rows).unwrap();
        let tree = ArTree::build(&ott);
        for _ in 0..rng.random_range(1..30usize) {
            let t = rng.random_range(0.0..120.0);
            let hits = tree.point_query(t);
            for o in (0..8u32).map(ObjectId) {
                let via_tree = hits
                    .iter()
                    .find(|e| e.object == o)
                    .and_then(|e| ArTree::resolve_state(&ott, e, t));
                assert_eq!(via_tree, ott.state_at(o, t), "{o:?} at t={t}");
            }
        }
    }
}

/// Merging raw readings never loses detections: every reading's
/// timestamp is covered by a record of the same object and device.
#[test]
fn merge_covers_all_readings() {
    let mut rng = StdRng::seed_from_u64(0x3E26E);
    for _ in 0..CASES {
        let raw: Vec<RawReading> = (0..rng.random_range(1..80usize))
            .map(|_| RawReading {
                object: ObjectId(rng.random_range(0..4u32)),
                device: DeviceId(rng.random_range(0..4u32)),
                t: rng.random_range(0.0..50.0),
            })
            .collect();
        let rows = merge_raw_readings(raw.clone(), 1.0);
        for r in &raw {
            assert!(
                rows.iter().any(|row| row.object == r.object
                    && row.device == r.device
                    && row.ts <= r.t
                    && r.t <= row.te),
                "reading {r:?} lost"
            );
        }
    }
}
