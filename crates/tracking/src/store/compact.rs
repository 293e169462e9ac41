//! Crash-safe compaction: seals cold closed rows into immutable
//! segments and merges small segments into larger ones.
//!
//! Compaction is a pure, deterministic function of the closed-row log
//! and the current manifest:
//!
//! 1. **Seal** — whenever at least `compact_every` (`T`) closed rows sit
//!    past the sealed frontier, cut exactly `T` of them into a new
//!    segment. Only full `T`-row segments are ever sealed (the remainder
//!    stays hot in the WAL tail), so segment boundaries are `T`-aligned
//!    no matter where a crash interrupted a previous attempt — a resumed
//!    run re-seals byte-identical files.
//! 2. **Merge** — whenever `merge_factor` consecutive non-quarantined
//!    segments of equal row count exist, replace them with one segment
//!    covering their union (rows re-read from the in-memory closed log),
//!    scanning left-to-right to a fixed point. Segment sizes therefore
//!    follow powers of `merge_factor` times `T`, and the tier layout is
//!    a deterministic function of the sealed frontier.
//!
//! The crash-safety protocol is write-ahead all the way down: every new
//! segment file is written via [`super::atomic_write`] *before* the
//! single manifest swap that commits the whole pass, and files no longer
//! referenced are removed only *after* the swap. A crash at any I/O
//! operation leaves either the old manifest naming the old files (all
//! still present) or the new manifest naming the new files (all already
//! durable); stray files from the losing side are orphans that recovery
//! and the next pass sweep up. `tests/crash.rs` proves this at every
//! [`super::FailpointFs`] failpoint.

use super::manifest::Manifest;
use super::{frame, manifest::SegmentEntry, segment, Fs, StoreError};
use crate::ott::OttRow;
use std::collections::BTreeSet;
use std::path::Path;

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// New segments sealed from the hot tail.
    pub segments_sealed: u64,
    /// Input segments consumed by merges.
    pub segments_merged: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// No-longer-referenced segment files removed after the swap.
    pub files_removed: u64,
}

impl CompactionOutcome {
    /// True when the pass changed the manifest.
    pub fn changed(&self) -> bool {
        self.segments_sealed > 0 || self.merges > 0
    }
}

/// Rows `[base, base + count)` of the closed log, as a typed error when
/// the log is shorter than the manifest claims (never a panic).
fn log_slice(closed: &[OttRow], base: u64, count: u64) -> Result<&[OttRow], StoreError> {
    let (start, end) = (base as usize, (base + count) as usize);
    closed.get(start..end).ok_or_else(|| StoreError::InvalidState {
        reason: format!(
            "closed log holds {} rows but compaction needs [{start}, {end})",
            closed.len()
        ),
    })
}

/// Writes the segment sealing `rows` from `base_row` and returns its
/// manifest entry. The file is durable (atomic write + fsync) before
/// this returns; it becomes *live* only when the caller swaps a
/// manifest referencing it. Also the repair path: re-encoding the same
/// rows reproduces the original bytes, so a repaired entry keeps its
/// CRC.
pub(super) fn write_segment<F: Fs>(
    fs: &F,
    dir: &Path,
    base_row: u64,
    rows: &[OttRow],
) -> Result<SegmentEntry, StoreError> {
    let (meta, bytes) = segment::encode(base_row, rows)?;
    let entry = SegmentEntry {
        base_row,
        row_count: meta.row_count,
        t_min: meta.t_min,
        t_max: meta.t_max,
        file_len: bytes.len() as u64,
        file_crc: frame::crc32(&bytes),
        quarantined: false,
    };
    super::atomic_write(fs, &dir.join(entry.file_name()), &bytes)?;
    Ok(entry)
}

/// Removes every `*.seg` file in `dir` that `manifest` does not
/// reference — the post-swap cleanup, also run by recovery to sweep the
/// losing side of an interrupted pass. Returns the number removed.
pub fn remove_unreferenced<F: Fs>(
    fs: &F,
    dir: &Path,
    manifest: &Manifest,
) -> Result<u64, StoreError> {
    let live: BTreeSet<String> = manifest.entries.iter().map(SegmentEntry::file_name).collect();
    let mut removed = 0;
    for path in fs.list(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if name.ends_with(segment::SEGMENT_SUFFIX) && !live.contains(name) {
            fs.remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Runs one compaction pass over the store directory: seal, merge, swap
/// the manifest once, then sweep unreferenced files. `closed` is the
/// full closed-row log from row 0; the caller must have made its tail
/// durable (WAL fsync) before sealing from it.
pub fn compact<F: Fs>(
    fs: &F,
    dir: &Path,
    manifest: &mut Manifest,
    closed: &[OttRow],
    compact_every: u64,
    merge_factor: usize,
) -> Result<CompactionOutcome, StoreError> {
    let mut out = CompactionOutcome::default();
    if compact_every == 0 {
        return Err(StoreError::InvalidState { reason: "compact_every must be ≥ 1".into() });
    }
    let mut entries = manifest.entries.clone();

    // 1. Seal full T-row segments from the hot tail.
    let mut frontier = entries.last().map(SegmentEntry::end_row).unwrap_or(0);
    while (closed.len() as u64).saturating_sub(frontier) >= compact_every {
        let rows = log_slice(closed, frontier, compact_every)?;
        entries.push(write_segment(fs, dir, frontier, rows)?);
        frontier += compact_every;
        out.segments_sealed += 1;
    }

    // 2. Merge runs of merge_factor equal-sized, healthy segments.
    if merge_factor >= 2 {
        loop {
            let run = (0..entries.len().saturating_sub(merge_factor - 1)).find(|&i| {
                let Some(window) = entries.get(i..i + merge_factor) else { return false };
                let Some(first) = window.first() else { return false };
                window.iter().all(|e| !e.quarantined && e.row_count == first.row_count)
            });
            let Some(i) = run else { break };
            let Some(window) = entries.get(i..i + merge_factor) else { break };
            let Some(first) = window.first() else { break };
            let (base, count) = (first.base_row, window.iter().map(|e| e.row_count).sum::<u64>());
            let rows = log_slice(closed, base, count)?;
            let merged = write_segment(fs, dir, base, rows)?;
            entries.splice(i..i + merge_factor, [merged]);
            out.segments_merged += merge_factor as u64;
            out.merges += 1;
        }
    }

    // 3. Commit: one atomic manifest swap, then sweep the losers.
    if out.changed() {
        manifest.entries = entries;
        manifest.store(fs, dir)?;
        out.files_removed = remove_unreferenced(fs, dir, manifest)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ott::ObjectId;
    use crate::store::FailpointFs;
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

    fn setup() -> (FailpointFs, Manifest) {
        let fs = FailpointFs::new();
        fs.create_dir_all(Path::new("/s")).unwrap();
        (fs, Manifest::default())
    }

    #[test]
    fn seals_only_full_segments() {
        let (fs, mut m) = setup();
        let dir = Path::new("/s");
        let closed = rows(19);
        let out = compact(&fs, dir, &mut m, &closed, 8, 0).unwrap();
        assert_eq!(out.segments_sealed, 2);
        assert_eq!(m.sealed_rows(), 16); // 3 rows stay hot
        for e in &m.entries {
            let bytes = fs.read(&dir.join(e.file_name())).unwrap();
            assert_eq!(bytes.len() as u64, e.file_len);
            assert_eq!(frame::crc32(&bytes), e.file_crc);
            let (_, sealed) = segment::decode_rows(&bytes).unwrap();
            assert_eq!(sealed.as_slice(), log_slice(&closed, e.base_row, e.row_count).unwrap());
        }
    }

    #[test]
    fn merges_to_fixed_point_and_sweeps_old_files() {
        let (fs, mut m) = setup();
        let dir = Path::new("/s");
        let closed = rows(16);
        // Seal four 4-row segments, merging every 4 equal-sized ones.
        let out = compact(&fs, dir, &mut m, &closed, 4, 4).unwrap();
        assert_eq!(out.segments_sealed, 4);
        assert_eq!(out.merges, 1);
        assert_eq!(m.entries.len(), 1);
        assert_eq!(m.entries[0].row_count, 16);
        // Only the merged file survives the sweep.
        let segs: Vec<_> = fs
            .list(dir)
            .unwrap()
            .into_iter()
            .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".seg")))
            .collect();
        assert_eq!(segs, vec![dir.join(segment::file_name(0, 16))]);
        assert_eq!(out.files_removed, 4);
    }

    #[test]
    fn quarantined_segments_are_never_merged() {
        let (fs, mut m) = setup();
        let dir = Path::new("/s");
        let closed = rows(16);
        compact(&fs, dir, &mut m, &closed, 4, 0).unwrap();
        m.entries[1].quarantined = true;
        let out = compact(&fs, dir, &mut m, &closed, 4, 4).unwrap();
        assert_eq!(out.merges, 0);
        assert_eq!(m.entries.len(), 4);
    }

    #[test]
    fn resealing_after_partial_run_is_byte_identical() {
        // Two independent directories, one sealed in two passes, one in
        // a single pass: files and manifests must match byte-for-byte.
        let fs = FailpointFs::new();
        let (a, b) = (Path::new("/a"), Path::new("/b"));
        fs.create_dir_all(a).unwrap();
        fs.create_dir_all(b).unwrap();
        let closed = rows(32);
        let mut ma = Manifest::default();
        compact(&fs, a, &mut ma, &closed[..20], 8, 4).unwrap();
        compact(&fs, a, &mut ma, &closed, 8, 4).unwrap();
        let mut mb = Manifest::default();
        compact(&fs, b, &mut mb, &closed, 8, 4).unwrap();
        assert_eq!(ma, mb);
        for e in &ma.entries {
            assert_eq!(
                fs.read(&a.join(e.file_name())).unwrap(),
                fs.read(&b.join(e.file_name())).unwrap()
            );
        }
    }

    #[test]
    fn short_closed_log_is_a_typed_error() {
        // A merge whose inputs claim more rows than the closed log holds
        // must fail typed, not slice-panic.
        let (fs, mut m) = setup();
        for base in [0u64, 8] {
            m.entries.push(SegmentEntry {
                base_row: base,
                row_count: 8,
                t_min: 0.0,
                t_max: 1.0,
                file_len: 0,
                file_crc: 0,
                quarantined: false,
            });
        }
        let err = compact(&fs, Path::new("/s"), &mut m, &rows(10), 32, 2).unwrap_err();
        assert!(matches!(err, StoreError::InvalidState { .. }));
    }
}
