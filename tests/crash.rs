//! Crash suite: deterministic fault injection over the ingestion store.
//!
//! The `FailpointFs` counts every mutating I/O operation, so a clean run
//! of a workload tells us the exact number of crash points; the sweep
//! then kills the process model at each one in turn and asserts the
//! recovered-and-resumed store is indistinguishable from an
//! uninterrupted run: byte-identical OTT contents and identical
//! snapshot/interval top-k answers. Separate tests corrupt the files
//! directly — truncation at every byte, bit flips — and require typed
//! errors plus truncate-to-last-valid recovery, never a panic or a
//! silently wrong table.

use inflow::core::{FlowAnalytics, IntervalQuery, SnapshotQuery};
use inflow::geometry::GridResolution;
use inflow::indoor::PoiId;
use inflow::tracking::store::{IngestStore, Manifest, StoreError, StoreOptions, WAL_FILE};
use inflow::tracking::{
    write_table_csv, FailpointFs, ObjectTrackingTable, OnlineTracker, RawReading,
};
use inflow::uncertainty::UrConfig;
use inflow::workload::{generate_synthetic, rows_of, SyntheticConfig, Workload};
use std::path::Path;

const MAX_GAP: f64 = 5.0;

fn workload() -> Workload {
    generate_synthetic(&SyntheticConfig {
        num_objects: 8,
        duration: 120.0,
        ..SyntheticConfig::tiny()
    })
}

/// Derives a globally time-sorted raw-reading stream from the workload's
/// OTT rows (one reading at each row endpoint). The tracker's view of
/// this stream — not the original OTT — is the reference all crash
/// variants must reproduce.
fn derive_readings(w: &Workload) -> Vec<RawReading> {
    let mut out = Vec::new();
    for row in rows_of(&w.ott) {
        out.push(RawReading { object: row.object, device: row.device, t: row.ts });
        if row.te > row.ts {
            out.push(RawReading { object: row.object, device: row.device, t: row.te });
        }
    }
    out.sort_by(|a, b| {
        a.t.total_cmp(&b.t)
            .then_with(|| a.object.cmp(&b.object))
            .then_with(|| a.device.0.cmp(&b.device.0))
    });
    out
}

fn opts() -> StoreOptions {
    StoreOptions {
        snapshot_every: Some(16),
        sync_each_reading: true,
        keep_snapshots: 2,
        ..StoreOptions::default()
    }
}

/// Options with the segment tier switched on: seal small segments
/// aggressively and merge pairs, so short workloads exercise seal,
/// merge, WAL rebase and scrubbing many times over.
fn tier_opts() -> StoreOptions {
    StoreOptions {
        compact_every: Some(8),
        merge_factor: 2,
        scrub_every: Some(32),
        scrub_budget: 2,
        ..opts()
    }
}

fn store_dir() -> &'static Path {
    Path::new("/store")
}

/// Runs the full workload through a store on `fs`; any step may die on an
/// armed failpoint.
fn run_to_completion(
    fs: FailpointFs,
    readings: &[RawReading],
) -> Result<ObjectTrackingTable, StoreError> {
    let (mut store, _) = IngestStore::open(fs, store_dir(), OnlineTracker::new(MAX_GAP), opts())?;
    for &r in readings {
        store.ingest(r)?;
    }
    store.finish()
}

/// Recovers the store on `fs`, resumes ingestion from the durable
/// frontier the `RecoveryReport` names, and returns the final OTT.
fn recover_and_resume(fs: FailpointFs, readings: &[RawReading]) -> ObjectTrackingTable {
    let (mut store, report) =
        IngestStore::open(fs, store_dir(), OnlineTracker::new(MAX_GAP), opts())
            .expect("recovery must always succeed");
    let resume = report.wal_records as usize;
    assert!(resume <= readings.len(), "durable frontier beyond the producer's stream");
    for &r in &readings[resume..] {
        store.ingest(r).expect("resumed ingestion must succeed");
    }
    store.finish().expect("finish after recovery must succeed")
}

fn ott_csv(ott: &ObjectTrackingTable) -> Vec<u8> {
    let mut buf = Vec::new();
    write_table_csv(&mut buf, ott).expect("in-memory CSV write");
    buf
}

fn analytics(w: &Workload, ott: ObjectTrackingTable) -> FlowAnalytics {
    FlowAnalytics::new(
        w.ctx.clone(),
        ott,
        UrConfig { vmax: w.vmax, resolution: GridResolution::COARSE, ..UrConfig::default() },
    )
}

fn pois(w: &Workload) -> Vec<PoiId> {
    w.ctx.plan().pois().iter().map(|p| p.id).collect()
}

/// Snapshot + interval top-k answers over `ott`, as comparable data.
fn topk_answers(w: &Workload, ott: ObjectTrackingTable) -> Vec<(PoiId, f64)> {
    let fa = analytics(w, ott);
    let p = pois(w);
    let sq = SnapshotQuery::new(60.0, p.clone(), 3);
    let iq = IntervalQuery::new(40.0, 80.0, p, 3);
    let mut out = fa.snapshot_topk_iterative(&sq).ranked;
    out.extend(fa.interval_topk_iterative(&iq).ranked);
    out
}

#[test]
fn crash_sweep_recovers_identically_at_every_failpoint() {
    let w = workload();
    let readings = derive_readings(&w);
    assert!(readings.len() >= 50, "workload too small to exercise the store");

    // Uninterrupted reference run; also learns the total operation count.
    let fs = FailpointFs::new();
    let reference = run_to_completion(fs.clone(), &readings).expect("clean run");
    let reference_csv = ott_csv(&reference);
    let reference_topk = topk_answers(&w, reference);
    let total_ops = fs.ops();
    assert!(total_ops > 100, "expected a substantial operation count, got {total_ops}");

    for kill_at in 1..=total_ops {
        let fs = FailpointFs::new();
        fs.arm(kill_at);
        let crashed = run_to_completion(fs.clone(), &readings).is_err();
        assert!(crashed, "failpoint {kill_at} of {total_ops} did not fire");
        fs.disarm();

        let ott = recover_and_resume(fs, &readings);
        assert_eq!(ott_csv(&ott), reference_csv, "OTT diverged after crash at operation {kill_at}");
        // The OTT being byte-identical makes the (deterministic) query
        // pipeline identical too; spot-check real answers on a subsample
        // plus the sweep's edges.
        if kill_at % 37 == 0 || kill_at == 1 || kill_at == total_ops {
            assert_eq!(
                topk_answers(&w, ott),
                reference_topk,
                "top-k answers diverged after crash at operation {kill_at}"
            );
        }
    }
}

#[test]
fn double_crash_recovery_is_still_identical() {
    // Crash mid-ingestion, recover, crash again during the resumed run,
    // recover again: still byte-identical to the uninterrupted run.
    let w = workload();
    let readings = derive_readings(&w);
    let fs = FailpointFs::new();
    let reference_csv = ott_csv(&run_to_completion(fs.clone(), &readings).expect("clean run"));

    let fs = FailpointFs::new();
    fs.arm(120);
    assert!(run_to_completion(fs.clone(), &readings).is_err());
    fs.disarm();
    fs.arm(60);
    {
        let (mut store, report) =
            IngestStore::open(fs.clone(), store_dir(), OnlineTracker::new(MAX_GAP), opts())
                .expect("first recovery");
        let resume = report.wal_records as usize;
        let mut died = false;
        for &r in &readings[resume..] {
            if store.ingest(r).is_err() {
                died = true;
                break;
            }
        }
        let died = died || store.finish().is_err();
        assert!(died, "second failpoint did not fire");
    }
    fs.disarm();
    let ott = recover_and_resume(fs, &readings);
    assert_eq!(ott_csv(&ott), reference_csv);
}

#[test]
fn wal_truncated_at_every_byte_recovers_a_valid_prefix() {
    let w = workload();
    let readings = derive_readings(&w);

    // Build a WAL-only store (no snapshots) so every recovery exercises
    // the replay-from-scratch path over the truncated log.
    let fs = FailpointFs::new();
    let wal_opts = StoreOptions { snapshot_every: None, ..opts() };
    let reference_csv = {
        let (mut store, _) =
            IngestStore::open(fs.clone(), store_dir(), OnlineTracker::new(MAX_GAP), wal_opts)
                .expect("create");
        for &r in &readings {
            store.ingest(r).expect("ingest");
        }
        // No snapshot: drop the store with the WAL as the only truth.
        drop(store.into_tracker().expect("sync"));
        let fs_ref = FailpointFs::new();
        fs_ref
            .store_raw(&store_dir().join(WAL_FILE), fs.dump(&store_dir().join(WAL_FILE)).unwrap());
        ott_csv(&recover_and_resume(fs_ref, &readings))
    };

    let wal = fs.dump(&store_dir().join(WAL_FILE)).expect("wal exists");
    // Every-byte sweeps are cheap on the header; past it, stride through
    // the reading frames hitting every offset modulo 3.
    for cut in (0..200).chain((200..wal.len()).step_by(3)) {
        let fs = FailpointFs::new();
        fs.store_raw(&store_dir().join(WAL_FILE), wal[..cut].to_vec());
        let ott = recover_and_resume(fs, &readings);
        assert_eq!(ott_csv(&ott), reference_csv, "divergence after truncation to {cut} bytes");
    }
}

#[test]
fn wal_bit_flips_recover_via_truncation_or_rebase() {
    let w = workload();
    let readings = derive_readings(&w);
    let fs = FailpointFs::new();
    let reference_csv = ott_csv(&run_to_completion(fs.clone(), &readings).expect("clean run"));
    let wal = fs.dump(&store_dir().join(WAL_FILE)).expect("wal exists");

    // The snapshots stay in place, so flips near the WAL head exercise
    // the snapshot-ahead-of-damaged-WAL rebase path.
    for i in (0..wal.len()).step_by(2) {
        let fs2 = FailpointFs::new();
        // Restore the full post-run state, then flip one WAL byte.
        for (path, bytes) in snapshot_files(&fs) {
            fs2.store_raw(&path, bytes);
        }
        let mut bad = wal.clone();
        bad[i] ^= 1 << (i % 8);
        fs2.store_raw(&store_dir().join(WAL_FILE), bad);
        let ott = recover_and_resume(fs2, &readings);
        assert_eq!(ott_csv(&ott), reference_csv, "divergence after flipping WAL byte {i}");
    }
}

#[test]
fn corrupt_snapshots_fall_back_to_older_or_wal() {
    let w = workload();
    let readings = derive_readings(&w);
    let fs = FailpointFs::new();
    let reference_csv = ott_csv(&run_to_completion(fs.clone(), &readings).expect("clean run"));
    let snaps: Vec<_> = snapshot_files(&fs)
        .into_iter()
        .filter(|(p, _)| p.to_str().is_some_and(|s| s.ends_with(".snap")))
        .collect();
    assert!(snaps.len() >= 2, "expected several retained snapshots, got {}", snaps.len());

    // Corrupt the newest snapshot; then every snapshot.
    for corrupt_n in 1..=snaps.len() {
        let fs2 = FailpointFs::new();
        for (path, bytes) in snapshot_files(&fs) {
            fs2.store_raw(&path, bytes);
        }
        for (path, bytes) in snaps.iter().rev().take(corrupt_n) {
            let mut bad = bytes.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0xFF;
            fs2.store_raw(path, bad);
        }
        let (store, report) =
            IngestStore::open(fs2.clone(), store_dir(), OnlineTracker::new(MAX_GAP), opts())
                .expect("recovery with corrupt snapshots");
        assert_eq!(report.snapshots_rejected, corrupt_n as u64);
        drop(store);
        let ott = recover_and_resume(fs2, &readings);
        assert_eq!(ott_csv(&ott), reference_csv, "divergence with {corrupt_n} corrupt snapshots");
    }
}

#[test]
fn recovered_snapshot_index_matches_rebuild() {
    // Cold start from the final snapshot alone (no WAL replay) must hand
    // back exactly the table the clean run produced.
    let w = workload();
    let readings = derive_readings(&w);
    let fs = FailpointFs::new();
    let clean = run_to_completion(fs.clone(), &readings).expect("clean run");

    let (store, report) =
        IngestStore::open(fs, store_dir(), OnlineTracker::new(MAX_GAP), opts()).expect("reopen");
    assert!(report.snapshot_seq.is_some(), "finish() must have left a snapshot");
    assert_eq!(report.wal_replayed, 0, "snapshot covers the whole WAL");
    assert_eq!(store.tracker().snapshot().expect("ott").records(), clean.records());
}

/// Runs the full workload through a segment-tier store (compaction,
/// merging, WAL rebasing and scrubbing all active), returning the final
/// OTT CSV, the manifest, and the assembled-history CSV.
fn run_tier(
    fs: FailpointFs,
    readings: &[RawReading],
) -> Result<(Vec<u8>, Manifest, Vec<u8>), StoreError> {
    let (mut store, _) =
        IngestStore::open(fs, store_dir(), OnlineTracker::new(MAX_GAP), tier_opts())?;
    for &r in readings {
        store.ingest(r)?;
    }
    let history = store.assemble_history()?;
    let history_csv = ott_csv(&history.ott);
    assert_eq!(history.quarantined_rows, 0, "clean tier run must not quarantine");
    let manifest = store.manifest().clone();
    Ok((ott_csv(&store.finish()?), manifest, history_csv))
}

#[test]
fn compaction_crash_sweep_recovers_identically_at_every_failpoint() {
    // The tentpole guarantee: with sealing, merging, manifest swaps, WAL
    // rebasing and scrub passes interleaved into ingestion, killing the
    // process at *every* mutating I/O operation and resuming still
    // converges to the uninterrupted run — same OTT, same manifest
    // (sealed layout included), same assembled history.
    let w = workload();
    let readings = derive_readings(&w);

    let fs = FailpointFs::new();
    let (reference_csv, reference_manifest, reference_history) =
        run_tier(fs.clone(), &readings).expect("clean tier run");
    assert!(
        reference_manifest.entries.len() >= 2,
        "workload too small to seal several segments (got {})",
        reference_manifest.entries.len()
    );
    assert!(
        reference_manifest.entries.iter().any(|e| e.row_count > 8),
        "workload too small to exercise merging"
    );
    let total_ops = fs.ops();

    for kill_at in 1..=total_ops {
        let fs = FailpointFs::new();
        fs.arm(kill_at);
        assert!(
            run_tier(fs.clone(), &readings).is_err(),
            "failpoint {kill_at} of {total_ops} did not fire"
        );
        fs.disarm();

        let (mut store, report) =
            IngestStore::open(fs, store_dir(), OnlineTracker::new(MAX_GAP), tier_opts())
                .expect("recovery must always succeed");
        let resume = report.wal_records as usize;
        assert!(resume <= readings.len());
        for &r in &readings[resume..] {
            store.ingest(r).expect("resumed ingestion must succeed");
        }
        let history = store.assemble_history().expect("assemble after recovery");
        assert_eq!(
            ott_csv(&history.ott),
            reference_history,
            "assembled history diverged after crash at operation {kill_at}"
        );
        assert_eq!(history.quarantined_rows, 0, "crash at {kill_at} quarantined rows");
        assert_eq!(
            store.manifest(),
            &reference_manifest,
            "manifest diverged after crash at operation {kill_at}"
        );
        let ott = store.finish().expect("finish after recovery");
        assert_eq!(ott_csv(&ott), reference_csv, "OTT diverged after crash at operation {kill_at}");
    }
}

#[test]
fn segment_bit_flips_quarantine_and_degrade_never_panic_or_lie() {
    // Property sweep over the sealed tier: flipping any byte of any
    // segment file must either leave answers identical (the flip is in
    // a file recovery replaces) or degrade them with the quarantine
    // counted — never a panic, never a silently different table.
    let w = workload();
    let readings = derive_readings(&w);
    let fs = FailpointFs::new();
    let (_, manifest, reference_history) = run_tier(fs.clone(), &readings).expect("clean run");

    for entry in &manifest.entries {
        let path = store_dir().join(entry.file_name());
        let bytes = fs.dump(&path).expect("segment file exists");
        for i in (0..bytes.len()).step_by(7) {
            let fs2 = FailpointFs::new();
            for (p, b) in snapshot_files(&fs) {
                fs2.store_raw(&p, b);
            }
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            fs2.store_raw(&path, bad);

            let (mut store, _) =
                IngestStore::open(fs2, store_dir(), OnlineTracker::new(MAX_GAP), tier_opts())
                    .expect("recovery with a corrupt segment");
            let history = store.assemble_history().expect("assembly never fails hard");
            let lines = |csv: &[u8]| csv.iter().filter(|&&b| b == b'\n').count();
            if history.quarantined_rows == 0 {
                assert_eq!(
                    ott_csv(&history.ott),
                    reference_history,
                    "segment {} byte {i}: undetected flip changed the answer",
                    entry.base_row
                );
            } else {
                assert_eq!(history.quarantined_rows, entry.row_count);
                assert_eq!(history.quarantined_segments, 1);
                assert!(
                    lines(&ott_csv(&history.ott)) < lines(&reference_history),
                    "degraded view must exclude the quarantined rows"
                );
            }
        }
    }
}

#[test]
fn manifest_corruption_resets_the_tier_but_never_the_data() {
    // Truncate and bit-flip the manifest at every stride: recovery must
    // either keep a valid manifest or reset the segment tier, and the
    // final OTT must match the reference either way (snapshots + WAL
    // carry the state; segments are a redundant verified tier).
    let w = workload();
    let readings = derive_readings(&w);
    let fs = FailpointFs::new();
    let (reference_csv, _, _) = run_tier(fs.clone(), &readings).expect("clean run");
    let manifest_path = store_dir().join("manifest.bin");
    let manifest_bytes = fs.dump(&manifest_path).expect("manifest exists");

    let mut variants: Vec<Vec<u8>> = Vec::new();
    for cut in (0..manifest_bytes.len()).step_by(5) {
        variants.push(manifest_bytes[..cut].to_vec());
    }
    for i in (0..manifest_bytes.len()).step_by(3) {
        let mut bad = manifest_bytes.clone();
        bad[i] ^= 1 << (i % 8);
        variants.push(bad);
    }
    for (v, bad) in variants.into_iter().enumerate() {
        let fs2 = FailpointFs::new();
        for (p, b) in snapshot_files(&fs) {
            fs2.store_raw(&p, b);
        }
        fs2.store_raw(&manifest_path, bad);
        let (mut store, report) =
            IngestStore::open(fs2, store_dir(), OnlineTracker::new(MAX_GAP), tier_opts())
                .expect("recovery with a corrupt manifest");
        if report.manifest_rejected {
            assert_eq!(store.manifest().entries.len(), 0, "variant {v}: rejected tier not reset");
        }
        let history = store.assemble_history().expect("assembly succeeds");
        assert_eq!(history.quarantined_rows, 0, "variant {v}");
        let ott = store.finish().expect("finish");
        assert_eq!(ott_csv(&ott), reference_csv, "variant {v}: data diverged");
    }
}

/// All files currently in the store directory, with contents.
fn snapshot_files(fs: &FailpointFs) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    use inflow::tracking::store::Fs as _;
    fs.list(store_dir())
        .expect("list")
        .into_iter()
        .map(|p| {
            let bytes = fs.dump(&p).expect("file exists");
            (p, bytes)
        })
        .collect()
}
