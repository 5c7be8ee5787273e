//! Wall-clock benchmark of the Scrub pipeline.
//!
//! A seeded ad-fleet generator ([`fleet`]) feeds replay hosts
//! ([`replay`]) that call `ScrubAgent::log` inside the simulator, next
//! to the real ScrubCentral and query-server nodes ([`run`]). Each
//! workload ([`workload`]) is measured untraced for its end-to-end
//! metrics and, separately, traced ([`trace`], [`layers`]) for its
//! per-layer metrics; every run's output is checked against the batch
//! oracle ([`oracle`]).

pub mod fleet;
pub mod layers;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
