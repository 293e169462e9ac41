//! Background scrubbing: budgeted re-verification of sealed segments,
//! quarantine of damaged ones, and the offline `fsck` sweep.
//!
//! Bit rot does not announce itself — a cold segment can sit corrupt for
//! months until a historical query finally reads it. The [`Scrubber`]
//! walks the manifest round-robin, re-reading up to `budget` segments
//! per pass and checking, in escalating depth: the file exists, its
//! length matches the manifest, its whole-file CRC matches, and its
//! header frame still matches the manifest entry
//! ([`verify_entry_fast`]). The offline `fsck` sweep and the read path
//! go one step further with [`verify_entry`], which also decodes every
//! frame strictly ([`segment::decode_rows`]) and hands back the rows: the
//! read path reads, checks and decodes each segment once and serves
//! those rows. Any failure **quarantines** the entry (manifest swap) and
//! lands in a typed [`ScrubReport`]; the store keeps serving, with the
//! quarantined rows excluded from answers and surfaced through
//! `DataQuality`. Scrubbing never panics and never mutates segment
//! files — repair is a separate, explicit step
//! ([`super::IngestStore::repair_segments`]).

use super::manifest::{Manifest, SegmentEntry, MANIFEST_FILE};
use super::{frame, segment, snapshot, wal, Fs, StoreError, SNAPSHOT_SUFFIX, WAL_FILE};
use crate::ott::OttRow;
use std::path::Path;

/// How a sealed segment failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFaultKind {
    /// The file named by the manifest does not exist.
    Missing,
    /// The file's length differs from the manifest entry (truncation or
    /// trailing garbage).
    Length,
    /// The whole-file CRC differs from the manifest entry (bit rot).
    Checksum,
    /// The file decodes incorrectly or its header contradicts the
    /// manifest entry.
    Decode,
}

impl std::fmt::Display for SegmentFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentFaultKind::Missing => write!(f, "file missing"),
            SegmentFaultKind::Length => write!(f, "length mismatch"),
            SegmentFaultKind::Checksum => write!(f, "checksum mismatch"),
            SegmentFaultKind::Decode => write!(f, "decode failure"),
        }
    }
}

/// One damaged segment found by a scrub pass or fsck sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFault {
    /// First row of the damaged segment.
    pub base_row: u64,
    /// Rows the segment was supposed to hold.
    pub row_count: u64,
    pub kind: SegmentFaultKind,
}

/// What one scrub pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Segments verified this pass (quarantined ones are skipped).
    pub segments_checked: u64,
    /// Total bytes re-read and CRC-verified.
    pub bytes_verified: u64,
    /// Damage found this pass, in scan order.
    pub faults: Vec<SegmentFault>,
    /// Segments newly quarantined this pass (= `faults.len()`).
    pub quarantined_new: u64,
    /// True when every healthy segment was verified this pass (budget
    /// covered the whole manifest).
    pub complete: bool,
}

impl ScrubReport {
    /// Human-readable multi-line rendering for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scrubbed {} segment(s), {} byte(s) verified{}\n",
            self.segments_checked,
            self.bytes_verified,
            if self.complete { " (full pass)" } else { "" }
        );
        for f in &self.faults {
            out.push_str(&format!(
                "  QUARANTINED rows [{}, {}): {}\n",
                f.base_row,
                f.base_row + f.row_count,
                f.kind
            ));
        }
        out
    }
}

/// Verifies one manifest entry against its file, fully: existence,
/// length, whole-file CRC, and a strict structural decode
/// ([`segment::decode_rows`]) matching the manifest header.
/// `Ok(Ok(rows))` with the sealed rows when healthy, `Ok(Err(kind))` when
/// the *segment* is damaged, `Err(_)` only for infrastructure I/O
/// failures (which must not quarantine). This is the depth `fsck` and the
/// read path use; the rows come from the same bytes the CRC covered, so
/// the read path serves exactly what was verified.
pub fn verify_entry<F: Fs>(
    fs: &F,
    dir: &Path,
    e: &SegmentEntry,
) -> Result<Result<Vec<OttRow>, SegmentFaultKind>, StoreError> {
    let bytes = match read_and_checksum(fs, dir, e)? {
        Ok(b) => b,
        Err(kind) => return Ok(Err(kind)),
    };
    match segment::decode_rows(&bytes) {
        Ok((meta, rows)) if meta_matches(&meta, e) => Ok(Ok(rows)),
        _ => Ok(Err(SegmentFaultKind::Decode)),
    }
}

/// The background scrubber's per-segment check: existence, length,
/// whole-file CRC, and the header frame against the manifest entry. The
/// CRC was computed at seal time over a buffer that had just passed the
/// strict encoder, so a matching checksum proves every row frame is the
/// sealed original — re-decoding them on every rotation buys no extra
/// detection, only latency in the ingest loop. Full structural decode
/// stays in [`verify_entry`] (fsck, read path).
pub fn verify_entry_fast<F: Fs>(
    fs: &F,
    dir: &Path,
    e: &SegmentEntry,
) -> Result<Result<u64, SegmentFaultKind>, StoreError> {
    let bytes = match read_and_checksum(fs, dir, e)? {
        Ok(b) => b,
        Err(kind) => return Ok(Err(kind)),
    };
    match segment::decode_header(&bytes) {
        Ok(meta) if meta_matches(&meta, e) => Ok(Ok(bytes.len() as u64)),
        _ => Ok(Err(SegmentFaultKind::Decode)),
    }
}

fn meta_matches(meta: &segment::SegmentMeta, e: &SegmentEntry) -> bool {
    meta.base_row == e.base_row
        && meta.row_count == e.row_count
        && meta.t_min == e.t_min
        && meta.t_max == e.t_max
}

/// The shared shallow tiers: existence, length, whole-file CRC.
fn read_and_checksum<F: Fs>(
    fs: &F,
    dir: &Path,
    e: &SegmentEntry,
) -> Result<Result<Vec<u8>, SegmentFaultKind>, StoreError> {
    let path = dir.join(e.file_name());
    if !fs.exists(&path) {
        return Ok(Err(SegmentFaultKind::Missing));
    }
    let bytes = match fs.read(&path) {
        Ok(b) => b,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Err(SegmentFaultKind::Missing));
        }
        Err(err) => return Err(err.into()),
    };
    if bytes.len() as u64 != e.file_len {
        return Ok(Err(SegmentFaultKind::Length));
    }
    if frame::crc32(&bytes) != e.file_crc {
        return Ok(Err(SegmentFaultKind::Checksum));
    }
    Ok(Ok(bytes))
}

/// Round-robin segment scrubber. Holds only a cursor; all durable state
/// lives in the manifest, so a restart simply begins a fresh rotation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrubber {
    cursor: usize,
}

impl Scrubber {
    pub fn new() -> Scrubber {
        Scrubber::default()
    }

    /// Verifies up to `budget` healthy segments, continuing where the
    /// last pass stopped. Faulty segments are quarantined with a single
    /// manifest swap at the end of the pass.
    pub fn pass<F: Fs>(
        &mut self,
        fs: &F,
        dir: &Path,
        manifest: &mut Manifest,
        budget: usize,
    ) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        let n = manifest.entries.len();
        let healthy = manifest.entries.iter().filter(|e| !e.quarantined).count();
        if n == 0 || healthy == 0 {
            report.complete = true;
            return Ok(report);
        }
        let start = self.cursor % n;
        let mut visited = 0;
        for k in 0..n {
            if report.segments_checked as usize >= budget {
                break;
            }
            visited = k + 1;
            let i = (start + k) % n;
            let Some(e) = manifest.entries.get(i).copied() else { break };
            if e.quarantined {
                continue;
            }
            report.segments_checked += 1;
            match verify_entry_fast(fs, dir, &e)? {
                Ok(bytes) => report.bytes_verified += bytes,
                Err(kind) => {
                    report.faults.push(SegmentFault {
                        base_row: e.base_row,
                        row_count: e.row_count,
                        kind,
                    });
                    if let Some(slot) = manifest.entries.get_mut(i) {
                        slot.quarantined = true;
                    }
                    report.quarantined_new += 1;
                }
            }
        }
        self.cursor = (start + visited) % n;
        report.complete = report.segments_checked as usize >= healthy;
        if report.quarantined_new > 0 {
            manifest.store(fs, dir)?;
        }
        Ok(report)
    }
}

/// Full offline integrity sweep of a store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// A manifest file exists (a pre-segment store has none — fine).
    pub manifest_present: bool,
    /// The manifest (when present) decoded and validated.
    pub manifest_valid: bool,
    /// Segment entries in the manifest.
    pub segments: u64,
    /// Entries whose file verified end-to-end.
    pub segments_ok: u64,
    /// Entries already quarantined before this sweep.
    pub already_quarantined: u64,
    /// Damage found in previously-healthy segments (not yet quarantined
    /// by this read-only sweep — run a scrub pass or repair to act).
    pub faults: Vec<SegmentFault>,
    /// The WAL scanned cleanly (header intact; a missing WAL is valid).
    pub wal_valid: bool,
    /// Readings in the WAL's valid prefix.
    pub wal_records: u64,
    /// Torn bytes past the WAL's valid prefix.
    pub wal_torn_bytes: u64,
    /// Snapshot files present.
    pub snapshots: u64,
    /// Snapshot files that decoded and validated.
    pub snapshots_ok: u64,
}

impl FsckReport {
    /// True when nothing needs attention: manifest and WAL intact, no
    /// segment damage (found now or previously), every snapshot valid.
    pub fn healthy(&self) -> bool {
        self.manifest_valid
            && self.wal_valid
            && self.faults.is_empty()
            && self.already_quarantined == 0
            && self.wal_torn_bytes == 0
            && self.snapshots == self.snapshots_ok
    }

    /// Human-readable multi-line rendering for CLI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "manifest: {}\n",
            match (self.manifest_present, self.manifest_valid) {
                (false, _) => "absent (WAL-only store)".to_string(),
                (true, true) => format!("{} segment(s)", self.segments),
                (true, false) => "CORRUPT".to_string(),
            }
        ));
        out.push_str(&format!(
            "segments: {} ok, {} quarantined, {} newly damaged\n",
            self.segments_ok,
            self.already_quarantined,
            self.faults.len()
        ));
        for f in &self.faults {
            out.push_str(&format!(
                "  DAMAGED rows [{}, {}): {}\n",
                f.base_row,
                f.base_row + f.row_count,
                f.kind
            ));
        }
        out.push_str(&format!(
            "wal: {}, {} reading(s){}\n",
            if self.wal_valid { "ok" } else { "CORRUPT" },
            self.wal_records,
            if self.wal_torn_bytes > 0 {
                format!(", {} torn byte(s)", self.wal_torn_bytes)
            } else {
                String::new()
            }
        ));
        out.push_str(&format!("snapshots: {}/{} valid\n", self.snapshots_ok, self.snapshots));
        out.push_str(if self.healthy() { "store is healthy\n" } else { "store needs attention\n" });
        out
    }
}

/// Read-only integrity sweep over every durable artifact in `dir`:
/// manifest, all segments, the WAL, and all snapshots. Detection only —
/// nothing is quarantined, truncated, or repaired.
pub fn fsck<F: Fs>(fs: &F, dir: &Path) -> Result<FsckReport, StoreError> {
    let mut report = FsckReport::default();

    let manifest_path = dir.join(MANIFEST_FILE);
    report.manifest_present = fs.exists(&manifest_path);
    let manifest = if report.manifest_present {
        match fs.read(&manifest_path).map_err(StoreError::Io).and_then(|b| Manifest::decode(&b)) {
            Ok(m) => {
                report.manifest_valid = true;
                m
            }
            Err(_) => Manifest::default(),
        }
    } else {
        report.manifest_valid = true;
        Manifest::default()
    };

    report.segments = manifest.entries.len() as u64;
    for e in &manifest.entries {
        if e.quarantined {
            report.already_quarantined += 1;
            continue;
        }
        match verify_entry(fs, dir, e)? {
            Ok(_) => report.segments_ok += 1,
            Err(kind) => report.faults.push(SegmentFault {
                base_row: e.base_row,
                row_count: e.row_count,
                kind,
            }),
        }
    }

    let wal_path = dir.join(WAL_FILE);
    if fs.exists(&wal_path) {
        match fs.read(&wal_path).map_err(StoreError::Io).and_then(|b| wal::scan(&b)) {
            Ok(scan) => {
                report.wal_valid = true;
                report.wal_records = scan.readings.len() as u64;
                report.wal_torn_bytes = scan.truncated as u64;
            }
            Err(_) => report.wal_valid = false,
        }
    } else {
        report.wal_valid = true;
    }

    for path in fs.list(dir)? {
        let is_snap =
            path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(SNAPSHOT_SUFFIX));
        if !is_snap {
            continue;
        }
        report.snapshots += 1;
        if fs.read(&path).map_err(StoreError::Io).and_then(|b| snapshot::decode(&b)).is_ok() {
            report.snapshots_ok += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ott::ObjectId;
    use crate::store::{compact, FailpointFs};
    use inflow_indoor::DeviceId;

    fn rows(n: usize) -> Vec<OttRow> {
        (0..n)
            .map(|i| OttRow {
                object: ObjectId((i % 5) as u32),
                device: DeviceId((i % 3) as u32),
                ts: i as f64,
                te: i as f64 + 0.5,
            })
            .collect()
    }

    fn sealed_store(n_rows: usize, every: u64) -> (FailpointFs, Manifest) {
        let fs = FailpointFs::new();
        let dir = Path::new("/s");
        fs.create_dir_all(dir).unwrap();
        let mut m = Manifest::default();
        compact::compact(&fs, dir, &mut m, &rows(n_rows), every, 0).unwrap();
        m.store(&fs, dir).unwrap();
        (fs, m)
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let (fs, mut m) = sealed_store(16, 4);
        let mut s = Scrubber::new();
        let report = s.pass(&fs, Path::new("/s"), &mut m, 10).unwrap();
        assert_eq!(report.segments_checked, 4);
        assert!(report.faults.is_empty());
        assert!(report.complete);
        assert!(report.bytes_verified > 0);
    }

    #[test]
    fn budget_splits_rotation_across_passes() {
        let (fs, mut m) = sealed_store(16, 4);
        let dir = Path::new("/s");
        let mut s = Scrubber::new();
        let a = s.pass(&fs, dir, &mut m, 3).unwrap();
        assert_eq!(a.segments_checked, 3);
        assert!(!a.complete);
        let b = s.pass(&fs, dir, &mut m, 3).unwrap();
        // The rotation continues: segment 4 then wraps to 1 and 2.
        assert_eq!(b.segments_checked, 3);
    }

    #[test]
    fn each_fault_kind_is_detected_and_quarantined() {
        type Damage = fn(&FailpointFs, &std::path::Path);
        let dir = Path::new("/s");
        let cases: [(&str, Damage); 4] = [
            ("missing", |fs, p| {
                fs.remove_file(p).unwrap();
            }),
            ("truncated", |fs, p| {
                let mut b = fs.dump(p).unwrap();
                b.truncate(b.len() - 3);
                fs.store_raw(p, b);
            }),
            ("flipped", |fs, p| {
                let mut b = fs.dump(p).unwrap();
                let mid = b.len() / 2;
                b[mid] ^= 0x40;
                fs.store_raw(p, b);
            }),
            ("extended", |fs, p| {
                let mut b = fs.dump(p).unwrap();
                b.push(0);
                fs.store_raw(p, b);
            }),
        ];
        for (name, damage) in cases {
            let (fs, mut m) = sealed_store(16, 4);
            let victim = dir.join(m.entries[1].file_name());
            damage(&fs, &victim);
            let mut s = Scrubber::new();
            let report = s.pass(&fs, dir, &mut m, 10).unwrap();
            assert_eq!(report.quarantined_new, 1, "case {name}");
            assert_eq!(report.faults.len(), 1, "case {name}");
            assert_eq!(report.faults[0].base_row, 4, "case {name}");
            assert!(m.entries[1].quarantined, "case {name}");
            // The quarantine is durable: reload and re-scrub skips it.
            let reloaded = Manifest::load(&fs, dir).unwrap().unwrap();
            assert_eq!(reloaded, m);
            let again = s.pass(&fs, dir, &mut m, 10).unwrap();
            assert_eq!(again.quarantined_new, 0, "case {name}");
            assert_eq!(again.segments_checked, 3, "case {name}");
        }
    }

    #[test]
    fn wrong_header_vs_manifest_is_a_decode_fault() {
        // Swap two same-length segment files: each still decodes, but
        // the header no longer matches its manifest entry.
        let (fs, mut m) = sealed_store(16, 4);
        let dir = Path::new("/s");
        let (p0, p1) = (dir.join(m.entries[0].file_name()), dir.join(m.entries[1].file_name()));
        let (b0, b1) = (fs.dump(&p0).unwrap(), fs.dump(&p1).unwrap());
        if b0.len() == b1.len() {
            fs.store_raw(&p0, b1);
            fs.store_raw(&p1, b0);
            let mut s = Scrubber::new();
            let report = s.pass(&fs, dir, &mut m, 10).unwrap();
            assert!(report.quarantined_new >= 1);
            assert!(report.faults.iter().all(|f| f.kind != SegmentFaultKind::Missing));
        }
    }

    #[test]
    fn fsck_reports_clean_and_damaged_stores() {
        let (fs, m) = sealed_store(16, 4);
        let dir = Path::new("/s");
        let clean = fsck(&fs, dir).unwrap();
        assert!(clean.healthy(), "{}", clean.render());
        assert_eq!(clean.segments_ok, 4);

        let victim = dir.join(m.entries[2].file_name());
        let mut b = fs.dump(&victim).unwrap();
        b[10] ^= 0xFF;
        fs.store_raw(&victim, b);
        let dirty = fsck(&fs, dir).unwrap();
        assert!(!dirty.healthy());
        assert_eq!(dirty.faults.len(), 1);
        assert_eq!(dirty.faults[0].base_row, 8);
        // fsck is read-only: the manifest still lists the entry healthy.
        assert!(!Manifest::load(&fs, dir).unwrap().unwrap().entries[2].quarantined);
    }

    #[test]
    fn fsck_of_empty_dir_is_healthy() {
        let fs = FailpointFs::new();
        let dir = Path::new("/s");
        fs.create_dir_all(dir).unwrap();
        let report = fsck(&fs, dir).unwrap();
        assert!(report.healthy(), "{}", report.render());
        assert!(!report.manifest_present);
    }
}
