//! Symbolic indoor tracking data management.
//!
//! In symbolic indoor tracking (paper §2.1) raw position readings
//! `⟨objectID, deviceID, t⟩` are reported whenever an object is inside a
//! proximity-detection device's range. Consecutive raw readings by the same
//! device are merged into *tracking records*
//! `⟨ID, objectID, deviceID, t_s, t_e⟩` stored in the **Object Tracking
//! Table (OTT)**.
//!
//! This crate implements:
//!
//! * [`RawReading`] and the reading→record merger ([`merge_raw_readings`]);
//! * [`TrackingRecord`] / [`ObjectTrackingTable`] with per-object record
//!   chains and predecessor/successor navigation;
//! * the **AR-tree** ([`ArTree`], §4.1): a temporal index over *augmented
//!   tracking time intervals* `(rd_pre.t_e, rd.t_e]` whose leaf entries
//!   carry pointers to the current and predecessor records, supporting the
//!   point and range queries that drive uncertainty-region derivation;
//! * [`ObjectState`] resolution — the active/inactive state machine of
//!   §3.1.1 (Figure 1).

pub mod artree;
pub mod io;
pub mod ott;
pub mod reading;
pub mod sanitize;
pub mod store;
pub mod stream;

pub use artree::{ArTree, ArTreeEntry};
pub use io::{
    read_ott_csv, read_quarantine_csv, read_readings_csv, write_ott_csv, write_quarantine_csv,
    write_readings_csv, write_table_csv, CsvError,
};
pub use ott::{
    ObjectId, ObjectState, ObjectTrackingTable, OttError, OttRow, RecordId, TrackingRecord,
};
pub use reading::{merge_raw_readings, RawReading, ReadingError};
pub use sanitize::{
    readmit_rows, sanitize_rows, AnomalyKind, DeviceOracle, Policy, ReadingSanitizer,
    RowSanitizeOutcome, SanitizeConfig, SanitizeReport,
};
pub use store::{
    atomic_write, CompactionOutcome, FailpointFs, FailpointWriter, FrameErrorKind, Fs, FsckReport,
    HistoryView, IngestStore, Manifest, RecoveryReport, ScrubReport, Scrubber, SegmentEntry,
    SegmentFault, SegmentFaultKind, StdFs, StoreError, StoreOptions, TierEvents,
};
pub use stream::{OnlineTracker, StreamError};

/// Timestamps are seconds (f64) from an arbitrary epoch.
pub type Timestamp = f64;
