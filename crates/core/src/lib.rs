//! Flow counting and top-k frequently-visited-POI queries over symbolic
//! indoor tracking data — the primary contribution of the EDBT 2016 paper
//! *Finding Frequently Visited Indoor POIs Using Symbolic Indoor Tracking
//! Data*.
//!
//! Flow (Definition 2) performs weighted counting of the objects that stay
//! in a POI at a time point or during a time interval, where each object's
//! weight is its *presence* — the fraction of the POI covered by the
//! object's uncertainty region. On top of this, two query types return the
//! top-k most frequently visited POIs:
//!
//! * **snapshot** queries (Problem 1) at a time point `t`;
//! * **interval** queries (Problem 2) over `[t_s, t_e]`.
//!
//! Each query type has two processing algorithms, reproduced from §4:
//!
//! * the **iterative** algorithms (Algorithms 1 and 4): derive every
//!   relevant object's uncertainty region and accumulate presences per POI;
//! * the **join** algorithms (Algorithms 2, 3 and 5): build an in-memory
//!   aggregate R-tree of object MBRs and join it against the POI R-tree
//!   guided by a priority queue of upper-bound flows, computing exact
//!   presences only for POIs that can still enter the top-k. The interval
//!   variant implements the improved per-segment small-MBR checks of
//!   §4.3.2 (Figure 9).
//!
//! The entry point is [`FlowAnalytics`].

pub mod analytics;
pub mod contrib;
pub mod density;
pub mod distrib;
pub mod iterative;
pub mod join;
pub mod longvisit;
mod profiling;
pub mod query;
pub mod timeline;
pub mod visitors;

pub use analytics::FlowAnalytics;
pub use contrib::{object_interval_flows, object_snapshot_flows};
pub use density::{snapshot_density, DensityGrid};
pub use distrib::{
    count_distributions, CountDistribution, DistribQuery, DistribResult, DistribState, DistribTime,
};
pub use join::JoinConfig;
pub use longvisit::{longvisit_counts, object_dwell, DwellState, LongVisitQuery, LongVisitResult};
pub use query::{rank_topk, DataQuality, IntervalQuery, QueryResult, QueryStats, SnapshotQuery};
pub use timeline::{
    flow_timeline, ContinuousSnapshotMonitor, FlowTimeline, TimelineBucket, TopKUpdate,
};
pub use visitors::{also_visited, likely_visitors};
