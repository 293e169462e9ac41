//! `inflow-service`: a sharded continuous flow-monitoring server over
//! symbolic indoor tracking streams.
//!
//! The batch crates answer "which POIs were most visited?" over a fixed
//! [`ObjectTrackingTable`](inflow_tracking::ObjectTrackingTable). This
//! crate keeps that answer *live* while readings stream in:
//!
//! * **Sharded ingestion** ([`shard`]): readings route by object id to
//!   worker threads, each owning a crash-consistent WAL-backed store and
//!   online tracker, emitting per-object row deltas with an *affected
//!   start* bound.
//! * **Incremental engine** ([`engine`], internal): per-subscription
//!   per-object contribution maps, recomputed only for changed objects
//!   and only when the query time can be affected; flows re-summed
//!   deterministically so the materialized top-k matches a from-scratch
//!   batch run.
//! * **Continuous subscriptions** ([`protocol`], [`client`]): snapshot
//!   or interval top-k with a result-change threshold ε, pushed as
//!   `UPDATE` frames over a length-prefixed, CRC-checked TCP protocol;
//!   plus one-shot queries, row dumps, stats, and a deterministic
//!   pipeline barrier.
//! * **Observability** ([`metrics`]): every stage reports into the
//!   workspace [`Counter`](inflow_obs::Counter)/histogram registry —
//!   queue depths, delta batch sizes, recompute and notification
//!   latencies.
//!
//! Everything is `std` only: `std::net` sockets, `std::thread` workers,
//! `mpsc` channels.

// Panic-freedom: a panic here kills a shard or the engine thread, so
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

pub mod client;
mod engine;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod resilient;
mod server;
mod shard;
mod sync;

pub use client::{Client, Update, DEFAULT_TIMEOUT};
pub use error::ServiceError;
pub use metrics::ServiceMetrics;
pub use protocol::{hash_ranked, Resume, StateHash, SubKind, SubSpec};
pub use resilient::{BackoffConfig, ResilientClient};
pub use server::{ServeConfig, Server, ServerHandle};
pub use shard::{DeltaBatch, ObjectDelta, ShardConfig};
