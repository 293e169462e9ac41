//! On-disk format pins for the ingestion store.
//!
//! * `crc32` (slice-by-8) agrees with a bit-at-a-time reference on
//!   every short length at every alignment, on a large buffer, and on
//!   the standard check values.
//! * Snapshots are `IFSNP001 | META | CONFIG | CLOSED_ROW* | OPEN_RUN* |
//!   PENDING* | END` — no index frame — and are the one codec of tracker
//!   state: a decoded tracker restores every field, re-encodes
//!   byte-identically and resumes a stream exactly where it stopped, and
//!   a torn write at any failpoint is rejected.
//! * Segments are `IFSEG001 | META | CLOSED_ROW* | END`. Snapshots and
//!   segments that still carry the older `ARTREE` frame before `END`
//!   decode to the same state.
//! * One seeded stream through a tiered store leaves WAL, segment,
//!   manifest and snapshot files whose digests are pinned: a codec or
//!   checksum change that moves a single byte fails here.
//! * Closing expired runs is independent of hash-map order, so trackers
//!   fed identical readings encode identically.

use inflow::indoor::DeviceId;
use inflow::tracking::store::frame::{self, crc32, fnv1a, tag, FrameReader};
use inflow::tracking::store::segment::{self, SEGMENT_MAGIC};
use inflow::tracking::store::snapshot::{self, SNAPSHOT_MAGIC};
use inflow::tracking::store::{IngestStore, StoreOptions};
use inflow::tracking::{
    FailpointFs, FailpointWriter, Fs, ObjectId, OnlineTracker, OttRow, RawReading,
};
use inflow::workload::rng::StdRng;
use std::io::Write;
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

/// The tracker's committed state as a snapshot encodes it.
fn state_bytes(tracker: &OnlineTracker) -> Vec<u8> {
    snapshot::encode(tracker, 0)
}

/// The frame tags of a snapshot or segment (both have 8-byte magics).
fn frame_tags(bytes: &[u8]) -> Vec<u8> {
    FrameReader::new(bytes, SNAPSHOT_MAGIC.len()).map(|f| f.expect("clean file").tag).collect()
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
    assert_eq!(snapshot::encode(&snap.tracker, 400), bytes);
}

/// A reorder-mode stream: readings sorted by time, then each window of
/// five reversed, so every reading is at most four places late. Returns
/// the shuffled stream and the lateness bound that absorbs it.
fn disordered_stream() -> (Vec<RawReading>, f64) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut t = 0.0;
    let sorted: Vec<RawReading> = (0..300)
        .map(|_| {
            t += rng.random_range(0.0..1.0);
            RawReading {
                object: ObjectId(rng.random_range(1..8u32)),
                device: DeviceId(rng.random_range(0..4u32)),
                t,
            }
        })
        .collect();
    // The widest window's time span, padded so rounding in `watermark -
    // lateness` cannot land a reading on the wrong side of the horizon.
    let lateness = sorted.chunks(5).map(|c| c[c.len() - 1].t - c[0].t).fold(0.0, f64::max) + 1e-6;
    let mut shuffled = sorted;
    for window in shuffled.chunks_mut(5) {
        window.reverse();
    }
    (shuffled, lateness)
}

#[test]
fn snapshot_resumes_a_reorder_tracker_mid_stream() {
    // Ingest half the stream, snapshot, "crash", decode into a fresh
    // tracker and ingest the rest: the final table must equal the
    // uninterrupted run's.
    let (readings, lateness) = disordered_stream();
    let half = readings.len() / 2;

    let mut uninterrupted = OnlineTracker::with_reorder(1.5, lateness);
    uninterrupted.ingest_all(readings.iter().copied()).expect("reorder mode never errors");
    assert_eq!(uninterrupted.late_dropped(), 0);
    let expected = uninterrupted.finish().expect("consistent OTT");

    let mut first = OnlineTracker::with_reorder(1.5, lateness);
    first.ingest_all(readings[..half].iter().copied()).expect("reorder mode never errors");
    assert!(first.pending_readings() > 0, "the cut lands with readings buffered");
    let bytes = snapshot::encode(&first, half as u64);
    drop(first); // the crash

    let mut resumed = snapshot::decode(&bytes).expect("clean snapshot").tracker;
    resumed.ingest_all(readings[half..].iter().copied()).expect("reorder mode never errors");
    assert_eq!(resumed.finish().expect("consistent OTT").records(), expected.records());
}

#[test]
fn snapshot_restores_every_field() {
    let mut tracker = busy_tracker();
    // Hopelessly late: dropped and counted.
    tracker.ingest(RawReading { object: ObjectId(1), device: DeviceId(1), t: 0.0 }).unwrap();
    assert!(tracker.late_dropped() > 0);
    let bytes = snapshot::encode(&tracker, 401);

    let restored = snapshot::decode(&bytes).expect("clean snapshot").tracker;
    assert_eq!(restored.closed(), tracker.closed());
    assert_eq!(restored.open_runs(), tracker.open_runs());
    assert_eq!(restored.pending_readings(), tracker.pending_readings());
    assert_eq!(restored.watermark(), tracker.watermark());
    assert_eq!(restored.late_dropped(), tracker.late_dropped());
    assert_eq!(restored.state_hash(), tracker.state_hash());
    assert_eq!(snapshot::encode(&restored, 401), bytes);
}

#[test]
fn snapshot_of_a_strict_empty_tracker_stays_strict() {
    let bytes = snapshot::encode(&OnlineTracker::new(2.5), 0);
    let mut restored = snapshot::decode(&bytes).expect("clean snapshot").tracker;
    assert_eq!(restored.closed_rows(), 0);
    assert_eq!(restored.open_runs(), 0);
    // Strict mode survives: out-of-order still errors.
    restored.ingest(RawReading { object: ObjectId(1), device: DeviceId(1), t: 5.0 }).unwrap();
    assert!(restored
        .ingest(RawReading { object: ObjectId(1), device: DeviceId(1), t: 4.0 })
        .is_err());
}

#[test]
fn torn_snapshot_is_rejected_at_every_failpoint() {
    // Stream the encoded snapshot through a writer in 7-byte slices and
    // crash it at every write: whatever reached the sink must not decode.
    let full = snapshot::encode(&busy_tracker(), 400);
    let writes = full.len().div_ceil(7) as u64;
    for fail_at in 1..=writes {
        let mut w = FailpointWriter::new(Vec::new(), fail_at);
        for chunk in full.chunks(7) {
            if w.write_all(chunk).is_err() {
                break; // the crash
            }
        }
        let torn = w.into_inner();
        assert!(torn.len() < full.len(), "failpoint {fail_at} did not tear");
        assert!(
            snapshot::decode(&torn).is_err(),
            "torn snapshot ({} of {} bytes) accepted",
            torn.len(),
            full.len()
        );
    }
}

/// `bytes` (a snapshot or segment) with an `ARTREE` frame spliced in
/// before its `END` frame — the layout both had while they carried the
/// index. Decoders skip the payload unread, so an opaque one will do.
fn with_legacy_artree(bytes: &[u8]) -> Vec<u8> {
    let end = FrameReader::new(bytes, SNAPSHOT_MAGIC.len())
        .map(|f| f.expect("clean file"))
        .find(|f| f.tag == tag::END)
        .expect("END frame")
        .offset;
    let payload: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
    let mut out = bytes[..end].to_vec();
    frame::write_frame(&mut out, tag::ARTREE, &payload);
    out.extend_from_slice(&bytes[end..]);
    out
}

/// A byte inside the (last) `ARTREE` frame's payload.
fn artree_payload_byte(bytes: &[u8]) -> usize {
    let f = FrameReader::new(bytes, SNAPSHOT_MAGIC.len())
        .map(|f| f.expect("clean file"))
        .filter(|f| f.tag == tag::ARTREE)
        .last()
        .expect("ARTREE frame");
    f.end_offset() - 8
}

#[test]
fn legacy_snapshot_with_artree_frame_still_decodes() {
    let tracker = busy_tracker();
    let bytes = snapshot::encode(&tracker, 9);
    let legacy = with_legacy_artree(&bytes);
    assert!(frame_tags(&legacy).contains(&tag::ARTREE));
    let snap = snapshot::decode(&legacy).expect("legacy snapshot decodes");
    assert_eq!(snap.wal_seq, 9);
    assert_eq!(state_bytes(&snap.tracker), state_bytes(&tracker));

    // Only END may follow the skipped frame: a second ARTREE is rejected.
    let doubled = with_legacy_artree(&legacy);
    assert!(snapshot::decode(&doubled).is_err());
    // And the skipped frame is still checksummed.
    let mut flipped = legacy.clone();
    flipped[artree_payload_byte(&legacy)] ^= 0x10;
    assert!(snapshot::decode(&flipped).is_err());
}

fn sealed_rows() -> Vec<OttRow> {
    let tracker = busy_tracker();
    assert!(tracker.closed_rows() >= 32);
    tracker.closed().to_vec()
}

#[test]
fn segment_holds_rows_and_no_index() {
    let rows = sealed_rows();
    let (meta, bytes) = segment::encode(64, &rows).expect("valid rows seal");
    assert!(bytes.starts_with(SEGMENT_MAGIC));
    let want = [vec![tag::META], vec![tag::CLOSED_ROW; rows.len()], vec![tag::END]].concat();
    assert_eq!(frame_tags(&bytes), want);
    assert_eq!(segment::decode_rows(&bytes).expect("decodes"), (meta, rows));
}

#[test]
fn legacy_segment_with_artree_frame_still_decodes() {
    let rows = sealed_rows();
    let (meta, bytes) = segment::encode(64, &rows).expect("valid rows seal");
    let legacy = with_legacy_artree(&bytes);
    assert!(frame_tags(&legacy).contains(&tag::ARTREE));
    assert_eq!(segment::decode_rows(&legacy).expect("legacy segment decodes"), (meta, rows));
    assert_eq!(segment::decode_header(&legacy).expect("header decodes"), meta);

    // Only END may follow the skipped frame: a second ARTREE is rejected.
    let doubled = with_legacy_artree(&legacy);
    assert!(segment::decode_rows(&doubled).is_err());
    // And the skipped frame is still checksummed.
    let mut flipped = legacy.clone();
    flipped[artree_payload_byte(&legacy)] ^= 0x10;
    assert!(segment::decode_rows(&flipped).is_err());
}

/// Every file a seeded stream leaves in a tiered store, as
/// `(name, length, FNV-1a digest)`, sorted by name. Segment frames are
/// reached through compaction, merging and WAL rebasing. Snapshots and
/// segments are digested without any `ARTREE` frame: this build writes
/// none, so the digests are of its files as written, and the same
/// function run on a build that still wrote the index gives the same
/// pins for those files.
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
        let kept: Vec<u8> = if name.ends_with(".snap") || name.ends_with(segment::SEGMENT_SUFFIX) {
            let mut kept = bytes[..SNAPSHOT_MAGIC.len()].to_vec();
            for f in FrameReader::new(&bytes, SNAPSHOT_MAGIC.len()) {
                let f = f.expect("clean file");
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
    // WAL and snapshot pins were recorded from the bytewise-CRC build
    // whose snapshots still carried the index frame. The segment pins are
    // that of the last build whose segments carried it, run through the
    // same stripping; the manifest pin moved with the segments' lengths
    // and CRCs and is this build's own.
    let want: &[(&str, usize, u64)] = &[
        ("manifest.bin", 220, 13578883655025002505),
        ("seg-00000000000000000000-0000001024.seg", 33874, 3350922972497000065),
        ("seg-00000000000000001024-0000000256.seg", 8530, 14197073061285418129),
        ("seg-00000000000000001280-0000000128.seg", 4306, 8170128070221229041),
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
            state_bytes(&tracker)
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
