//! Crash-consistent ingestion store: checksummed WAL + snapshots.
//!
//! The paper's flow queries assume a durable Object Tracking Table and
//! AR-tree; this module provides the durability layer beneath the
//! streaming ingester ([`crate::stream::OnlineTracker`]):
//!
//! * an append-only, CRC-checksummed, length-prefixed binary **WAL**
//!   recording every raw reading ([`wal`]);
//! * periodic **snapshot** files holding the complete tracker state, so
//!   recovery replays only the WAL tail past the newest one
//!   ([`snapshot`]);
//! * a **recovery** protocol: open the newest valid snapshot, replay the
//!   WAL tail, detect torn or corrupt records via checksums and truncate
//!   to the last valid record, reporting everything in a typed
//!   [`RecoveryReport`];
//! * a deterministic **fault-injection** layer ([`failpoint`]) so tests
//!   can enumerate every crash point of a workload and assert the
//!   recovered store is indistinguishable from an uninterrupted run;
//! * a **tiered cold path**: closed rows past the hot tail are sealed
//!   into immutable, self-verifying [`segment`] files described by an
//!   atomically-swapped [`manifest`], built by crash-safe [`compact`]ion
//!   and re-verified on a budget by the [`scrub`]ber, which quarantines
//!   damaged segments instead of dying — answers degrade, with the
//!   damage surfaced through `DataQuality`.
//!
//! All I/O goes through the [`Fs`] trait; production uses [`StdFs`],
//! tests use [`FailpointFs`].

// Panic-freedom: a panic here aborts mid-write, so
// non-test code returns typed errors instead. The audited exceptions
// are `#[expect(..., reason = ...)]`s, which fail clippy once stale.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod compact;
pub mod failpoint;
pub mod frame;
pub mod manifest;
pub mod scrub;
pub mod segment;
pub mod snapshot;
pub mod wal;

pub use compact::CompactionOutcome;
pub use failpoint::{FailpointFs, FailpointWriter, Fs, StdFs};
pub use manifest::{Manifest, SegmentEntry};
pub use scrub::{FsckReport, ScrubReport, Scrubber, SegmentFault, SegmentFaultKind};
pub use snapshot::SnapshotState;

use crate::ott::ObjectTrackingTable;
use crate::reading::RawReading;
use crate::stream::{OnlineTracker, StreamError};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.bin";
/// File-name suffix of snapshot files (`snap-<seq>.snap`).
pub const SNAPSHOT_SUFFIX: &str = ".snap";

/// How a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameErrorKind {
    /// The buffer ended inside the frame (torn write).
    Truncated,
    /// The length field exceeds [`frame::MAX_FRAME_PAYLOAD`].
    Oversized,
    /// The CRC-32 over tag, length and payload did not match.
    Checksum,
}

impl std::fmt::Display for FrameErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameErrorKind::Truncated => write!(f, "truncated frame"),
            FrameErrorKind::Oversized => write!(f, "oversized frame length"),
            FrameErrorKind::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

/// Errors raised by the durability layer. Every corruption mode — torn
/// write, bit flip, truncation, inconsistent counts — maps to a typed
/// variant; the store never panics on bad bytes.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A file did not start with the expected magic.
    BadMagic {
        /// Which file type was expected ("WAL", "snapshot", …).
        what: &'static str,
    },
    /// A frame failed to decode at `offset`.
    Frame { offset: usize, kind: FrameErrorKind },
    /// A frame decoded but its payload was invalid.
    Decode { offset: usize, reason: String },
    /// The file ended without its `END` commit marker.
    MissingCommit { offset: usize },
    /// The store's files are mutually inconsistent.
    InvalidState { reason: String },
    /// Live ingestion rejected a reading (after it was durably logged;
    /// replay reproduces the same rejection).
    Stream(StreamError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O failed: {e}"),
            StoreError::BadMagic { what } => write!(f, "not a {what} file (bad magic)"),
            StoreError::Frame { offset, kind } => write!(f, "{kind} at byte {offset}"),
            StoreError::Decode { offset, reason } => {
                write!(f, "invalid record at byte {offset}: {reason}")
            }
            StoreError::MissingCommit { offset } => {
                write!(f, "missing END commit marker (file ends at byte {offset})")
            }
            StoreError::InvalidState { reason } => write!(f, "inconsistent store: {reason}"),
            StoreError::Stream(e) => write!(f, "ingestion rejected a logged reading: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Writes `bytes` to `path` atomically: write a sibling temp file, fsync
/// it, then rename over the target. An interrupted write never clobbers
/// an existing good file with a half-written one.
pub fn atomic_write<F: Fs>(fs: &F, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let mut file = fs.create(&tmp)?;
    file.write_all(bytes)?;
    fs.sync(&mut file)?;
    drop(file);
    fs.rename(&tmp, path)?;
    Ok(())
}

/// Tuning knobs for an [`IngestStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Automatically snapshot after this many ingested readings
    /// (`None` = only on explicit [`IngestStore::snapshot`] / close).
    pub snapshot_every: Option<u64>,
    /// Fsync the WAL after every appended reading. Durable but slow;
    /// with `false`, readings since the last sync may be lost in a crash
    /// (recovery still yields a consistent prefix).
    pub sync_each_reading: bool,
    /// Snapshots retained after pruning (at least 1).
    pub keep_snapshots: usize,
    /// Seal an immutable segment whenever this many closed rows sit past
    /// the sealed frontier (`None` = segments only on explicit
    /// [`IngestStore::compact`]). Boundaries are always multiples of
    /// this value, which is what makes crash-resumed compaction
    /// reproduce byte-identical files.
    pub compact_every: Option<u64>,
    /// Merge this many consecutive equal-sized healthy segments into one
    /// (`< 2` disables merging).
    pub merge_factor: usize,
    /// Run a budgeted scrub pass every this many ingested readings
    /// (`None` = only on explicit [`IngestStore::scrub_pass`]).
    pub scrub_every: Option<u64>,
    /// Segments re-verified per scrub pass (at least 1).
    pub scrub_budget: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            snapshot_every: None,
            sync_each_reading: true,
            keep_snapshots: 3,
            compact_every: None,
            merge_factor: 4,
            scrub_every: None,
            scrub_budget: 1,
        }
    }
}

/// What recovery found and did. Wire the counts into the obs counter
/// registry at the call site (the tracking crate stays obs-free).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when the directory had no usable state and a fresh store was
    /// created.
    pub created: bool,
    /// Sequence of the snapshot recovery restored from, if any.
    pub snapshot_seq: Option<u64>,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_rejected: u64,
    /// Total durable readings after recovery (absolute sequence). A
    /// resumed producer should continue from this offset.
    pub wal_records: u64,
    /// WAL readings replayed on top of the restored snapshot.
    pub wal_replayed: u64,
    /// Bytes of torn or corrupt WAL tail discarded by truncation.
    pub wal_truncated_bytes: u64,
    /// Replayed readings the tracker rejected (they were rejected
    /// identically during live ingestion).
    pub replay_rejected: u64,
    /// Sealed segments listed by the recovered manifest.
    pub segments: u64,
    /// Manifest entries dropped because they claimed rows beyond the
    /// recovered closed log (only possible after WAL data loss).
    pub segments_dropped: u64,
    /// True when a manifest file existed but failed validation; the
    /// segment tier was reset (snapshots + WAL still carry all state,
    /// and the next compaction re-seals from row 0).
    pub manifest_rejected: bool,
    /// Segment files swept because no manifest references them (the
    /// losing side of an interrupted compaction).
    pub orphan_segments_removed: u64,
}

impl RecoveryReport {
    /// Human-readable multi-line rendering for CLI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.created {
            out.push_str("created fresh store\n");
        }
        match self.snapshot_seq {
            Some(seq) => out.push_str(&format!("restored snapshot at seq {seq}\n")),
            None => out.push_str("no snapshot restored\n"),
        }
        out.push_str(&format!(
            "durable readings: {}\nreplayed from WAL: {}\n",
            self.wal_records, self.wal_replayed
        ));
        if self.snapshots_rejected > 0 {
            out.push_str(&format!("snapshots rejected: {}\n", self.snapshots_rejected));
        }
        if self.wal_truncated_bytes > 0 {
            out.push_str(&format!("torn WAL bytes truncated: {}\n", self.wal_truncated_bytes));
        }
        if self.replay_rejected > 0 {
            out.push_str(&format!("replayed readings rejected: {}\n", self.replay_rejected));
        }
        if self.segments > 0 {
            out.push_str(&format!("sealed segments: {}\n", self.segments));
        }
        if self.segments_dropped > 0 {
            out.push_str(&format!(
                "segments dropped (beyond closed log): {}\n",
                self.segments_dropped
            ));
        }
        if self.manifest_rejected {
            out.push_str("manifest rejected: segment tier reset\n");
        }
        if self.orphan_segments_removed > 0 {
            out.push_str(&format!(
                "orphan segment files removed: {}\n",
                self.orphan_segments_removed
            ));
        }
        out
    }
}

/// Counts of store-maintenance events (snapshots and segment-tier work)
/// since the last [`IngestStore::take_tier_events`] — the bridge from the obs-free
/// tracking crate to the serving layer's counters and flight recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierEvents {
    /// Snapshot files written.
    pub snapshots: u64,
    /// Bytes of the snapshot files written.
    pub snapshot_bytes: u64,
    /// Compaction passes that changed the manifest.
    pub compactions: u64,
    /// New segments sealed from the hot tail.
    pub segments_sealed: u64,
    /// Input segments consumed by merges.
    pub segments_merged: u64,
    /// Scrub passes run.
    pub scrub_passes: u64,
    /// Segments re-verified by scrub passes.
    pub segments_scrubbed: u64,
    /// Faults found by scrubbing or history assembly.
    pub scrub_corruptions: u64,
    /// Segments newly quarantined.
    pub segments_quarantined: u64,
}

impl TierEvents {
    /// True when nothing happened.
    pub fn is_empty(&self) -> bool {
        *self == TierEvents::default()
    }
}

/// The queryable history assembled from the tiered store: verified
/// segment rows, the hot closed tail, and open runs closed as-of-now.
/// Quarantined segments' rows are *excluded* — the answer degrades, and
/// the exclusion is quantified so callers can feed `DataQuality`.
#[derive(Debug)]
pub struct HistoryView {
    /// The assembled OTT (verified sealed rows + hot tail + open runs).
    pub ott: ObjectTrackingTable,
    /// Sealed frontier of the manifest (rows `0..sealed_rows` live in
    /// segments, healthy or not).
    pub sealed_rows: u64,
    /// Rows served from verified segment files.
    pub segment_rows: u64,
    /// Rows excluded because their segment is quarantined.
    pub quarantined_rows: u64,
    /// Quarantined segments at assembly time.
    pub quarantined_segments: u64,
}

/// A durable wrapper around [`OnlineTracker`]: every ingested reading is
/// appended to the WAL before it is applied, and snapshots bound the
/// replay work a recovery needs.
#[derive(Debug)]
pub struct IngestStore<F: Fs> {
    fs: F,
    dir: PathBuf,
    wal: F::File,
    tracker: OnlineTracker,
    /// Absolute count of durably appended readings.
    seq: u64,
    /// Readings ingested since the last snapshot (drives auto-snapshot).
    since_snapshot: u64,
    /// Readings ingested since the last scrub pass (drives auto-scrub).
    since_scrub: u64,
    opts: StoreOptions,
    /// The segment-tier manifest (empty for a WAL-only store).
    manifest: Manifest,
    scrubber: Scrubber,
    /// Tier events accumulated since the last drain.
    events: TierEvents,
}

impl<F: Fs> IngestStore<F> {
    /// Opens (or creates) the store in `dir`, running recovery if any
    /// state exists. `fresh` supplies the tracker configuration when the
    /// directory holds no usable state; otherwise the recovered
    /// configuration wins and `fresh` is dropped.
    pub fn open(
        fs: F,
        dir: &Path,
        fresh: OnlineTracker,
        opts: StoreOptions,
    ) -> Result<(IngestStore<F>, RecoveryReport), StoreError> {
        assert!(opts.keep_snapshots >= 1, "keep_snapshots must be at least 1");
        fs.create_dir_all(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let mut report = RecoveryReport::default();

        // Sweep snapshots newest-first for the first one that validates;
        // clean up temp litter from interrupted atomic writes.
        let mut best: Option<snapshot::SnapshotState> = None;
        for path in Self::files_with_suffix(&fs, dir, ".tmp")? {
            fs.remove_file(&path)?;
        }

        // Load the segment manifest. A corrupt manifest resets the
        // segment tier: snapshots + WAL still carry every row, and the
        // next compaction deterministically re-seals from row 0.
        let mut tier = match Manifest::load(&fs, dir) {
            Ok(Some(m)) => m,
            Ok(None) => Manifest::default(),
            Err(_) => {
                report.manifest_rejected = true;
                Manifest::default()
            }
        };
        let snaps = Self::files_with_suffix(&fs, dir, SNAPSHOT_SUFFIX)?;
        for path in snaps.iter().rev() {
            match fs.read(path).map_err(StoreError::Io).and_then(|b| snapshot::decode(&b)) {
                Ok(s) => {
                    best = Some(s);
                    break;
                }
                Err(_) => report.snapshots_rejected += 1,
            }
        }

        // Scan the WAL; a damaged header makes the whole file unusable.
        let scan = if fs.exists(&wal_path) {
            let bytes = fs.read(&wal_path)?;
            match wal::scan(&bytes) {
                Ok(scan) => Some(scan),
                Err(_) => {
                    report.wal_truncated_bytes += bytes.len() as u64;
                    None
                }
            }
        } else {
            None
        };

        let (tracker, seq) = match (scan, best) {
            (Some(scan), best) => {
                if scan.truncated > 0 {
                    report.wal_truncated_bytes += scan.truncated as u64;
                    fs.truncate(&wal_path, scan.valid_len as u64)?;
                }
                let durable = scan.base + scan.readings.len() as u64;
                match best {
                    // The usual case: snapshot at or behind the durable
                    // WAL frontier — restore it, replay the tail.
                    Some(snap) if snap.wal_seq >= scan.base && snap.wal_seq <= durable => {
                        report.snapshot_seq = Some(snap.wal_seq);
                        let mut tracker = snap.tracker;
                        let skip = (snap.wal_seq - scan.base) as usize;
                        for &r in scan.readings.get(skip..).unwrap_or_default() {
                            report.wal_replayed += 1;
                            if tracker.ingest(r).is_err() {
                                // Rejected during live ingestion too:
                                // replay converges to the same state.
                                report.replay_rejected += 1;
                            }
                        }
                        (tracker, durable)
                    }
                    // The snapshot is ahead of a damaged WAL: its state
                    // is the most durable truth. Restore it and rebase
                    // the WAL so sequence numbering stays monotone.
                    Some(snap) => {
                        report.snapshot_seq = Some(snap.wal_seq);
                        report.wal_truncated_bytes += scan.valid_len as u64;
                        let header = wal::encode_header(&snap.tracker, snap.wal_seq);
                        atomic_write(&fs, &wal_path, &header)?;
                        (snap.tracker, snap.wal_seq)
                    }
                    // No usable snapshot: replay the whole WAL from
                    // scratch — only possible for an un-rebased log.
                    None if scan.base == 0 => {
                        let mut tracker = scan.tracker_init;
                        for &r in &scan.readings {
                            report.wal_replayed += 1;
                            if tracker.ingest(r).is_err() {
                                report.replay_rejected += 1;
                            }
                        }
                        (tracker, durable)
                    }
                    None => {
                        return Err(StoreError::InvalidState {
                            reason: format!(
                                "WAL starts at seq {} but no valid snapshot covers it",
                                scan.base
                            ),
                        });
                    }
                }
            }
            // No usable WAL, but a snapshot: restore it and start a
            // rebased WAL from its sequence.
            (None, Some(snap)) => {
                report.snapshot_seq = Some(snap.wal_seq);
                let header = wal::encode_header(&snap.tracker, snap.wal_seq);
                atomic_write(&fs, &wal_path, &header)?;
                (snap.tracker, snap.wal_seq)
            }
            // Nothing usable at all: fresh store.
            (None, None) => {
                report.created = true;
                atomic_write(&fs, &wal_path, &wal::encode_header(&fresh, 0))?;
                (fresh, 0)
            }
        };

        report.wal_records = seq;

        // Reconcile the segment tier with the recovered closed log: an
        // entry claiming rows the log cannot prove (possible only after
        // WAL data loss) is dropped, and files the surviving manifest
        // does not reference — the losing side of an interrupted
        // compaction — are swept.
        let closed_rows = tracker.closed_rows() as u64;
        if tier.sealed_rows() > closed_rows {
            let keep = tier.entries.iter().take_while(|e| e.end_row() <= closed_rows).count();
            report.segments_dropped = (tier.entries.len() - keep) as u64;
            tier.entries.truncate(keep);
            tier.store(&fs, dir)?;
        } else if report.manifest_rejected {
            tier.store(&fs, dir)?;
        }
        report.segments = tier.entries.len() as u64;
        report.orphan_segments_removed = compact::remove_unreferenced(&fs, dir, &tier)?;

        let since_snapshot = seq - report.snapshot_seq.unwrap_or(0);
        let wal = fs.open_append(&wal_path)?;
        Ok((
            IngestStore {
                fs,
                dir: dir.to_path_buf(),
                wal,
                tracker,
                seq,
                since_snapshot,
                since_scrub: 0,
                opts,
                manifest: tier,
                scrubber: Scrubber::new(),
                events: TierEvents::default(),
            },
            report,
        ))
    }

    fn files_with_suffix(fs: &F, dir: &Path, suffix: &str) -> Result<Vec<PathBuf>, StoreError> {
        let mut out: Vec<PathBuf> = fs
            .list(dir)?
            .into_iter()
            .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(suffix)))
            .collect();
        out.sort();
        Ok(out)
    }

    /// Durably logs one reading, then applies it to the tracker. The
    /// append happens first: a crash between the two replays the reading
    /// on recovery, converging to the same state. A [`StoreError::Stream`]
    /// rejection leaves the reading in the WAL — replay reproduces the
    /// identical rejection, so the log stays truthful.
    pub fn ingest(&mut self, r: RawReading) -> Result<(), StoreError> {
        self.ingest_with(r, &mut |_| {})
    }

    /// [`IngestStore::ingest`] with the tracker's apply hook exposed:
    /// `on_apply` fires for every reading actually applied to run state
    /// (see [`OnlineTracker::ingest_with`]) — after the WAL append, so
    /// anything observed is already durable.
    pub fn ingest_with(
        &mut self,
        r: RawReading,
        on_apply: &mut dyn FnMut(RawReading),
    ) -> Result<(), StoreError> {
        self.ingest_marked(r, &mut || {}, on_apply)
    }

    /// [`IngestStore::ingest_with`] with the durability boundary also
    /// exposed: `on_durable` fires once, right after the WAL append (and
    /// fsync, when configured) succeeds and before the tracker applies
    /// the reading. The serving layer stamps its per-reading trace
    /// chain here so "wal" and "apply" show up as separate latency
    /// segments.
    pub fn ingest_marked(
        &mut self,
        r: RawReading,
        on_durable: &mut dyn FnMut(),
        on_apply: &mut dyn FnMut(RawReading),
    ) -> Result<(), StoreError> {
        // One write call per frame: a torn write can only tear this frame.
        self.wal.write_all(&wal::encode_reading_frame(&r))?;
        if self.opts.sync_each_reading {
            self.fs.sync(&mut self.wal)?;
        }
        on_durable();
        self.seq += 1;
        self.since_snapshot += 1;
        self.tracker.ingest_with(r, on_apply).map_err(StoreError::Stream)?;
        if let Some(every) = self.opts.snapshot_every {
            if self.since_snapshot >= every {
                self.snapshot()?;
            }
        }
        if let Some(every) = self.opts.compact_every {
            let unsealed =
                (self.tracker.closed_rows() as u64).saturating_sub(self.manifest.sealed_rows());
            if unsealed >= every {
                self.compact()?;
            }
        }
        if let Some(every) = self.opts.scrub_every {
            self.since_scrub += 1;
            if self.since_scrub >= every {
                self.scrub_pass()?;
            }
        }
        Ok(())
    }

    /// Writes a snapshot of the current state (fsyncing the WAL first so
    /// the snapshot never claims more than the log can prove), then
    /// prunes old snapshots down to [`StoreOptions::keep_snapshots`].
    pub fn snapshot(&mut self) -> Result<PathBuf, StoreError> {
        self.fs.sync(&mut self.wal)?;
        let bytes = snapshot::encode(&self.tracker, self.seq);
        let path = self.dir.join(format!("snap-{:020}{}", self.seq, SNAPSHOT_SUFFIX));
        atomic_write(&self.fs, &path, &bytes)?;
        self.since_snapshot = 0;
        self.events.snapshots += 1;
        self.events.snapshot_bytes += bytes.len() as u64;
        let snaps = Self::files_with_suffix(&self.fs, &self.dir, SNAPSHOT_SUFFIX)?;
        if snaps.len() > self.opts.keep_snapshots {
            for old in snaps.get(..snaps.len() - self.opts.keep_snapshots).unwrap_or_default() {
                self.fs.remove_file(old)?;
            }
        }
        Ok(path)
    }

    /// Runs one compaction pass: seal full segments from the hot tail
    /// ([`StoreOptions::compact_every`] rows each), merge small ones,
    /// swap the manifest, and — when anything changed — trim the WAL
    /// back to the oldest *retained* snapshot so the hot tail stays
    /// bounded without sacrificing multi-snapshot redundancy. Compaction
    /// does not snapshot: the manifest swap is its commit point, and the
    /// regular snapshot clock already bounds replay — a second snapshot
    /// here would double that work for nothing.
    pub fn compact(&mut self) -> Result<CompactionOutcome, StoreError> {
        let Some(every) = self.opts.compact_every else {
            return Ok(CompactionOutcome::default());
        };
        // Sealed rows must be derivable from durable bytes: fsync the
        // WAL before cutting segments from state it implies.
        self.fs.sync(&mut self.wal)?;
        let outcome = compact::compact(
            &self.fs,
            &self.dir,
            &mut self.manifest,
            self.tracker.closed(),
            every,
            self.opts.merge_factor,
        )?;
        if outcome.changed() {
            self.events.compactions += 1;
            self.events.segments_sealed += outcome.segments_sealed;
            self.events.segments_merged += outcome.segments_merged;
            self.rebase_wal()?;
        }
        Ok(outcome)
    }

    /// Rewrites the WAL to start at the oldest retained snapshot's
    /// sequence, dropping readings every retained snapshot already
    /// reflects. Recovery from any retained snapshot keeps working:
    /// each one's `wal_seq` is ≥ the new base.
    fn rebase_wal(&mut self) -> Result<(), StoreError> {
        let wal_path = self.dir.join(WAL_FILE);
        let bytes = self.fs.read(&wal_path)?;
        let scan = wal::scan(&bytes)?;
        let oldest =
            Self::files_with_suffix(&self.fs, &self.dir, SNAPSHOT_SUFFIX)?.first().and_then(|p| {
                p.file_name()?
                    .to_str()?
                    .strip_prefix("snap-")?
                    .strip_suffix(SNAPSHOT_SUFFIX)?
                    .parse::<u64>()
                    .ok()
            });
        let Some(base) = oldest else { return Ok(()) };
        if base <= scan.base {
            return Ok(());
        }
        let mut buf = wal::encode_header(&self.tracker, base);
        for r in scan.readings.get((base - scan.base) as usize..).unwrap_or_default() {
            buf.extend_from_slice(&wal::encode_reading_frame(r));
        }
        atomic_write(&self.fs, &wal_path, &buf)?;
        // The old handle points at the replaced file; reopen.
        self.wal = self.fs.open_append(&wal_path)?;
        Ok(())
    }

    /// Runs one budgeted scrub pass ([`StoreOptions::scrub_budget`]
    /// segments), quarantining any that fail re-verification.
    pub fn scrub_pass(&mut self) -> Result<ScrubReport, StoreError> {
        self.since_scrub = 0;
        let report = self.scrubber.pass(
            &self.fs,
            &self.dir,
            &mut self.manifest,
            self.opts.scrub_budget.max(1),
        )?;
        self.events.scrub_passes += 1;
        self.events.segments_scrubbed += report.segments_checked;
        self.events.scrub_corruptions += report.faults.len() as u64;
        self.events.segments_quarantined += report.quarantined_new;
        Ok(report)
    }

    /// Re-seals every quarantined segment whose rows the recovered
    /// closed log still covers (byte-identical to the original, since
    /// sealing is deterministic), returning `(repaired, unrepairable)`.
    /// A segment beyond the closed log — possible only after WAL data
    /// loss — stays quarantined.
    pub fn repair_segments(&mut self) -> Result<(u64, u64), StoreError> {
        let closed_len = self.tracker.closed_rows() as u64;
        let (mut repaired, mut unrepairable) = (0u64, 0u64);
        for i in 0..self.manifest.entries.len() {
            let Some(e) = self.manifest.entries.get(i).copied() else { break };
            if !e.quarantined {
                continue;
            }
            if e.end_row() > closed_len {
                unrepairable += 1;
                continue;
            }
            let rows = self
                .tracker
                .closed()
                .get(e.base_row as usize..e.end_row() as usize)
                .unwrap_or_default();
            let entry = compact::write_segment(&self.fs, &self.dir, e.base_row, rows)?;
            if let Some(slot) = self.manifest.entries.get_mut(i) {
                *slot = entry;
            }
            repaired += 1;
        }
        if repaired > 0 {
            self.manifest.store(&self.fs, &self.dir)?;
        }
        Ok((repaired, unrepairable))
    }

    /// Removes snapshot files that no longer decode (recovery already
    /// ignores them; `fsck` flags them). Returns the number removed.
    pub fn remove_invalid_snapshots(&mut self) -> Result<u64, StoreError> {
        let mut removed = 0;
        for path in Self::files_with_suffix(&self.fs, &self.dir, SNAPSHOT_SUFFIX)? {
            let ok = self.fs.read(&path).map_err(StoreError::Io).and_then(|b| snapshot::decode(&b));
            if ok.is_err() {
                self.fs.remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Assembles the full queryable history from the tiered store:
    /// verified segment rows, the hot closed tail past the sealed
    /// frontier, and open runs closed as-of-now. A segment that fails
    /// verification *at read time* is quarantined on the spot — the
    /// answer degrades (excluded rows are counted), it never panics and
    /// never silently serves damaged rows.
    pub fn assemble_history(&mut self) -> Result<HistoryView, StoreError> {
        let mut rows: Vec<crate::ott::OttRow> = Vec::new();
        let mut segment_rows = 0u64;
        let mut newly_quarantined = 0u64;
        for i in 0..self.manifest.entries.len() {
            let Some(e) = self.manifest.entries.get(i).copied() else { break };
            if e.quarantined {
                continue;
            }
            match scrub::verify_entry(&self.fs, &self.dir, &e)? {
                Ok(seg_rows) => {
                    segment_rows += e.row_count;
                    rows.extend(seg_rows);
                }
                Err(_) => {
                    if let Some(slot) = self.manifest.entries.get_mut(i) {
                        slot.quarantined = true;
                    }
                    newly_quarantined += 1;
                }
            }
        }
        if newly_quarantined > 0 {
            self.events.scrub_corruptions += newly_quarantined;
            self.events.segments_quarantined += newly_quarantined;
            self.manifest.store(&self.fs, &self.dir)?;
        }
        let sealed = self.manifest.sealed_rows();
        rows.extend_from_slice(self.tracker.closed().get(sealed as usize..).unwrap_or_default());
        rows.extend(self.tracker.open_run_rows());
        let ott = ObjectTrackingTable::from_rows(rows)
            .map_err(|e| StoreError::InvalidState { reason: format!("assembling history: {e}") })?;
        Ok(HistoryView {
            ott,
            sealed_rows: sealed,
            segment_rows,
            quarantined_rows: self.manifest.quarantined_rows(),
            quarantined_segments: self.manifest.quarantined_segments() as u64,
        })
    }

    /// The segment-tier manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Drains the maintenance event counts accumulated since the last
    /// call (snapshots, compactions, scrub passes, quarantines).
    pub fn take_tier_events(&mut self) -> TierEvents {
        std::mem::take(&mut self.events)
    }

    /// The live tracker.
    pub fn tracker(&self) -> &OnlineTracker {
        &self.tracker
    }

    /// Total durable readings (absolute sequence).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Snapshots current state and closes the store, returning the final
    /// OTT (reorder buffer drained, every run closed).
    pub fn finish(mut self) -> Result<ObjectTrackingTable, StoreError> {
        self.snapshot()?;
        self.tracker.finish().map_err(StoreError::Stream)
    }

    /// Closes the store without snapshotting (the WAL alone carries the
    /// state), returning the tracker for further use.
    pub fn into_tracker(mut self) -> Result<OnlineTracker, StoreError> {
        self.fs.sync(&mut self.wal)?;
        Ok(self.tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ott::ObjectId;
    use crate::reading::RawReading;
    use inflow_indoor::DeviceId;

    /// One object bouncing between two devices: every reading closes the
    /// previous run, so `n` readings leave `n - 1` closed rows.
    fn bouncing_readings(n: usize) -> Vec<RawReading> {
        (0..n)
            .map(|i| RawReading {
                object: ObjectId(1),
                device: DeviceId((i % 2) as u32),
                t: i as f64,
            })
            .collect()
    }

    fn tiered_store() -> IngestStore<FailpointFs> {
        let fs = FailpointFs::new();
        let opts =
            StoreOptions { compact_every: Some(4), merge_factor: 0, ..StoreOptions::default() };
        let (mut store, _) =
            IngestStore::open(fs, Path::new("/s"), OnlineTracker::new(10.0), opts).unwrap();
        for r in bouncing_readings(14) {
            store.ingest(r).unwrap();
        }
        assert!(store.manifest.sealed_rows() >= 8, "workload seals at least two segments");
        store
    }

    #[test]
    fn repair_reseals_quarantined_segments_within_the_log() {
        let mut store = tiered_store();
        let original =
            store.fs.read(&Path::new("/s").join(store.manifest.entries[0].file_name())).unwrap();
        store.manifest.entries[0].quarantined = true;
        let (repaired, unrepairable) = store.repair_segments().unwrap();
        assert_eq!((repaired, unrepairable), (1, 0));
        assert!(!store.manifest.entries[0].quarantined);
        // Sealing is deterministic: the repaired file is byte-identical.
        let repaired_bytes =
            store.fs.read(&Path::new("/s").join(store.manifest.entries[0].file_name())).unwrap();
        assert_eq!(repaired_bytes, original);
    }

    #[test]
    fn repair_leaves_segments_beyond_the_closed_log_quarantined() {
        let mut store = tiered_store();
        // Doctor a quarantined entry claiming rows past the recovered
        // closed log — the shape WAL data loss would leave behind.
        let base = store.manifest.sealed_rows();
        store.manifest.entries.push(manifest::SegmentEntry {
            base_row: base,
            row_count: 1_000,
            t_min: 0.0,
            t_max: 1.0,
            file_len: 0,
            file_crc: 0,
            quarantined: true,
        });
        let (repaired, unrepairable) = store.repair_segments().unwrap();
        assert_eq!((repaired, unrepairable), (0, 1));
        assert!(store.manifest.entries.last().unwrap().quarantined);
    }
}
