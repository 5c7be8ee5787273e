//! # scrub-central
//!
//! ScrubCentral (§4): the dedicated centralized facility where everything
//! expensive happens — tumbling-window management, the request-id
//! equi-join, group-by, and exact + probabilistic aggregation — so that
//! none of it runs on the hosts serving the application. Partitioned
//! execution with mergeable aggregate states provides the scaling the
//! paper's deployment gets from a small ScrubCentral cluster.
//!
//! Ingest runs behind the sealed [`IngestBackend`] trait: the
//! single-threaded [`InlineBackend`] is the deterministic reference, the
//! [`ThreadedBackend`] hands whole batches to partition workers over deep
//! bounded channels and merges pre-folded per-partition states at window
//! close. [`PartitionedExecutor::new`] picks the backend from the
//! partition count; [`PartitionedExecutor::stats`] snapshots every
//! observable counter in one [`ExecutorStats`].

pub mod agg;
pub mod backend;
pub mod executor;
mod fold;
pub mod partition;
pub mod row;
pub mod stats;
pub mod threaded;
mod totals;

pub use agg::AggState;
pub use backend::{IngestBackend, InlineBackend};
pub use executor::{HostEstimatorState, QueryExecutor, WindowPartial, MAX_JOIN_ROWS_PER_REQUEST};
pub use partition::{PartitionedExecutor, WindowClose};
pub use row::{QuerySummary, ResultRow};
pub use stats::{ExecutorStats, WorkerTime};
pub use threaded::ThreadedBackend;
