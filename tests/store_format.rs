//! On-disk format pins for the ingestion store.
//!
//! * `crc32` (slice-by-8) agrees with a bit-at-a-time reference on
//!   every short length at every alignment, on a large buffer, and on
//!   the standard check values.
//! * Snapshots are `IFSNP001 | META | CONFIG | CLOSED_ROW* | OPEN_RUN* |
//!   PENDING* | END` — no index frame — decode to a tracker that
//!   checkpoints byte-identically, and files that still carry the older
//!   `ARTREE` frame before `END` decode to the same tracker.
//! * One seeded stream through a tiered store leaves WAL, segment,
//!   manifest and snapshot files whose digests are pinned: a codec or
//!   checksum change that moves a single byte fails here.
//! * Closing expired runs is independent of hash-map order, so trackers
//!   fed identical readings checkpoint identically.

use inflow::indoor::DeviceId;
use inflow::tracking::store::frame::{self, crc32, fnv1a, tag, FrameReader};
use inflow::tracking::store::snapshot::{self, SNAPSHOT_MAGIC};
use inflow::tracking::store::{IngestStore, StoreOptions};
use inflow::tracking::{ArTree, FailpointFs, Fs, ObjectId, OnlineTracker, RawReading};
use inflow::workload::rng::StdRng;
use std::path::Path;

/// CRC-32/ISO-HDLC one bit at a time: the specification, not a table.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn crc32_matches_reference_at_every_length_and_alignment() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let buf = random_bytes(&mut rng, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "seed {seed} start {start} len {len}");
            }
        }
    }
}

#[test]
fn crc32_matches_reference_on_a_large_buffer() {
    let mut rng = StdRng::seed_from_u64(42);
    let buf = random_bytes(&mut rng, (256 << 10) + 13);
    assert_eq!(crc32(&buf), crc32_reference(&buf));
    assert_eq!(crc32(&buf[5..]), crc32_reference(&buf[5..]));
}

#[test]
fn crc32_known_vectors() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
}

/// A tracker with closed rows, open runs and buffered readings.
fn busy_tracker() -> OnlineTracker {
    let mut tracker = OnlineTracker::with_reorder(4.0, 3.0);
    let mut rng = StdRng::seed_from_u64(7);
    let mut t = 0.0;
    for _ in 0..400 {
        t += rng.random_range(0.0..1.0);
        let r = RawReading {
            object: ObjectId(rng.random_range(1..24u32)),
            device: DeviceId(rng.random_range(0..6u32)),
            t,
        };
        tracker.ingest(r).expect("in-order stream");
    }
    assert!(tracker.closed_rows() > 0 && tracker.open_runs() > 0);
    assert!(tracker.pending_readings() > 0, "reorder buffer holds readings");
    tracker
}

fn checkpoint_bytes(tracker: &OnlineTracker) -> Vec<u8> {
    let mut buf = Vec::new();
    tracker.checkpoint(&mut buf).expect("in-memory checkpoint");
    buf
}

fn frame_tags(bytes: &[u8]) -> Vec<u8> {
    FrameReader::new(bytes, SNAPSHOT_MAGIC.len()).map(|f| f.expect("clean snapshot").tag).collect()
}

#[test]
fn snapshot_holds_tracker_state_and_no_index() {
    let tracker = busy_tracker();
    let bytes = snapshot::encode(&tracker, 400);
    assert!(bytes.starts_with(SNAPSHOT_MAGIC));
    let tags = frame_tags(&bytes);
    let (closed, open, pending) =
        (tracker.closed_rows(), tracker.open_runs(), tracker.pending_readings());
    let want = [
        vec![tag::META, tag::CONFIG],
        vec![tag::CLOSED_ROW; closed],
        vec![tag::OPEN_RUN; open],
        vec![tag::PENDING; pending],
        vec![tag::END],
    ]
    .concat();
    assert_eq!(tags, want);
    assert!(!tags.contains(&tag::ARTREE));

    let snap = snapshot::decode(&bytes).expect("decodes");
    assert_eq!(snap.wal_seq, 400);
    assert_eq!(checkpoint_bytes(&snap.tracker), checkpoint_bytes(&tracker));
    // Past its META frame a snapshot is byte-for-byte a checkpoint.
    let meta_end = SNAPSHOT_MAGIC.len() + 5 + 8 + 4;
    assert_eq!(bytes[meta_end..], checkpoint_bytes(&tracker)[SNAPSHOT_MAGIC.len()..]);
}

/// `bytes` with a flat AR-tree frame spliced in before its `END` frame —
/// the layout snapshots had while they carried the index.
fn with_legacy_artree(bytes: &[u8], tracker: &OnlineTracker) -> Vec<u8> {
    let end = FrameReader::new(bytes, SNAPSHOT_MAGIC.len())
        .map(|f| f.expect("clean snapshot"))
        .find(|f| f.tag == tag::END)
        .expect("END frame")
        .offset;
    let ott = tracker.snapshot().expect("consistent OTT");
    let mut out = bytes[..end].to_vec();
    frame::write_frame(&mut out, tag::ARTREE, &ArTree::build(&ott).to_flat_bytes(ott.len()));
    out.extend_from_slice(&bytes[end..]);
    out
}

#[test]
fn legacy_snapshot_with_artree_frame_still_decodes() {
    let tracker = busy_tracker();
    let bytes = snapshot::encode(&tracker, 9);
    let legacy = with_legacy_artree(&bytes, &tracker);
    assert!(frame_tags(&legacy).contains(&tag::ARTREE));
    let snap = snapshot::decode(&legacy).expect("legacy snapshot decodes");
    assert_eq!(snap.wal_seq, 9);
    assert_eq!(checkpoint_bytes(&snap.tracker), checkpoint_bytes(&tracker));

    // Only END may follow the skipped frame: a second ARTREE is rejected.
    let doubled = with_legacy_artree(&legacy, &tracker);
    assert!(snapshot::decode(&doubled).is_err());
    // And the skipped frame is still checksummed.
    let mut flipped = legacy.clone();
    let end = legacy.len() - (5 + 24 + 4);
    flipped[end - 8] ^= 0x10;
    assert!(snapshot::decode(&flipped).is_err());
}

/// Every file a seeded stream leaves in a tiered store, as
/// `(name, length, FNV-1a digest)`, sorted by name. Segment frames are
/// reached through compaction, merging and WAL rebasing; snapshots are
/// digested without any `ARTREE` frame, so the pins cover what the
/// current layout writes.
fn tiered_store_digests() -> Vec<(String, usize, u64)> {
    let fs = FailpointFs::new();
    let dir = Path::new("/store");
    let opts = StoreOptions {
        snapshot_every: Some(64),
        sync_each_reading: false,
        keep_snapshots: 2,
        compact_every: Some(32),
        merge_factor: 2,
        scrub_every: Some(96),
        scrub_budget: 1,
    };
    let (mut store, _) =
        IngestStore::open(fs.clone(), dir, OnlineTracker::new(5.0), opts).expect("fresh store");
    let mut rng = StdRng::seed_from_u64(2016);
    let mut t = 0.0;
    for _ in 0..1500 {
        t += rng.random_range(0.0..0.5);
        let r = RawReading {
            object: ObjectId(rng.random_range(1..40u32)),
            device: DeviceId(rng.random_range(0..12u32)),
            t,
        };
        store.ingest(r).expect("ingest");
    }
    store.snapshot().expect("final snapshot");
    drop(store);

    let mut out = Vec::new();
    for path in fs.list(dir).expect("list store") {
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
        let bytes = fs.dump(&path).expect("listed file exists");
        let kept: Vec<u8> = if name.ends_with(".snap") {
            let mut kept = bytes[..SNAPSHOT_MAGIC.len()].to_vec();
            for f in FrameReader::new(&bytes, SNAPSHOT_MAGIC.len()) {
                let f = f.expect("clean snapshot");
                if f.tag != tag::ARTREE {
                    kept.extend_from_slice(&bytes[f.offset..f.end_offset()]);
                }
            }
            kept
        } else {
            bytes
        };
        out.push((name, kept.len(), fnv1a(&kept)));
    }
    out.sort();
    out
}

#[test]
fn store_files_of_a_seeded_stream_are_pinned() {
    let got = tiered_store_digests();
    // Recorded from the bytewise-CRC build whose snapshots still carried
    // the index frame (stripped above); this build must reproduce them.
    let want: &[(&str, usize, u64)] = &[
        ("manifest.bin", 220, 187610962517353582),
        ("seg-00000000000000000000-0000001024.seg", 64420, 10214377944524327747),
        ("seg-00000000000000001024-0000000256.seg", 16204, 16037599510265706216),
        ("seg-00000000000000001280-0000000128.seg", 8168, 8250442362718579295),
        ("snap-00000000000000001472.snap", 47199, 9469611807018107824),
        ("snap-00000000000000001500.snap", 48090, 4780492173933253480),
        ("wal.bin", 2375, 5815116309936448466),
    ];
    let got_ref: Vec<(&str, usize, u64)> =
        got.iter().map(|(n, len, h)| (n.as_str(), *len, *h)).collect();
    assert_eq!(got_ref, want, "store file digests moved:\n{got:#?}");
}

#[test]
fn expiring_runs_closes_them_in_object_order() {
    // Twelve objects seen once each, then one late reading pushes the
    // watermark far past all of them: a single expiry call closes
    // twelve runs at once. Every tracker must log them identically.
    let readings: Vec<RawReading> = (1..=12u32)
        .map(|o| RawReading { object: ObjectId(o), device: DeviceId(o % 3), t: f64::from(o) })
        .chain(std::iter::once(RawReading { object: ObjectId(99), device: DeviceId(0), t: 500.0 }))
        .collect();
    let logs: Vec<Vec<u8>> = (0..16)
        .map(|_| {
            let mut tracker = OnlineTracker::new(10.0);
            for &r in &readings {
                tracker.ingest(r).expect("in-order stream");
            }
            assert_eq!(tracker.expire_stale_runs(), 12);
            checkpoint_bytes(&tracker)
        })
        .collect();
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log, &logs[0], "tracker {i} closed its runs in a different order");
    }
    let mut tracker = OnlineTracker::new(10.0);
    for &r in &readings {
        tracker.ingest(r).expect("in-order stream");
    }
    tracker.expire_stale_runs();
    let objects: Vec<u32> = tracker.closed().iter().map(|row| row.object.0).collect();
    assert_eq!(objects, (1..=12).collect::<Vec<_>>());
}
