#![warn(missing_docs)]

//! # spider-simkit
//!
//! Deterministic simulation kernel underpinning the `spider` workspace.
//!
//! The crate provides the substrate every other crate builds on:
//!
//! - [`time`]: nanosecond-resolution simulated time ([`SimTime`], [`SimDuration`]).
//! - [`units`]: byte/bandwidth quantities with human-readable formatting.
//! - [`rng`]: a seeded, reproducible random number generator ([`SimRng`]) with
//!   the distributions the paper's workload characterization calls for
//!   (Pareto-tailed inter-arrival and idle times, lognormal component
//!   variation, bimodal request sizes).
//! - [`dist`]: a config-driven distribution description ([`Dist`]) that can be
//!   embedded in workload specifications and sampled.
//! - [`stats`]: streaming statistics (Welford), percentiles, confidence
//!   intervals (normal + Wilson), and the Hill estimator used to fit Pareto
//!   tails to observed inter-arrival times.
//! - [`montecarlo`]: a parallel, deterministic replication engine —
//!   counter-based per-replication RNG streams and a fixed-order tree
//!   reduction, bit-identical across thread counts.
//! - [`pdes`]: a sharded parallel discrete-event core — one simulation
//!   partitioned across shards with conservative epoch-barrier
//!   synchronization (model-declared lookahead), per-`(src, dst)` mailboxes
//!   flushed in fixed order, and fixed-shape merges: a single run is
//!   bit-identical across thread counts.
//! - [`mem`]: deterministic memory accounting ([`MemFootprint`]) — container
//!   capacities, never wall-clock or allocator globals, so byte gauges are
//!   reproducible run to run.
//! - [`hist`]: linear and logarithmic histograms.
//! - [`series`]: fixed-interval time series (server-side throughput logs) with
//!   the signal-processing helpers IOSI needs (smoothing, correlation,
//!   periodicity detection).
//! - [`engine`]: a minimal, deterministic discrete-event engine.
//!
//! Everything is deterministic: given the same seed, a simulation replays
//! identically. Ties in the event queue are broken by insertion sequence.

pub mod dist;
pub mod engine;
pub mod hist;
pub mod mem;
pub mod montecarlo;
pub mod pdes;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;

pub use dist::{BoundedPareto, Discrete, Dist};
pub use engine::{Engine, EventContext};
pub use hist::Histogram;
pub use mem::{slab_bytes, MemFootprint};
pub use montecarlo::{replicate, Estimate, McConfig, McRun, Merge};
pub use pdes::{EpochReport, PdesConfig, PdesRun, PdesStats, Shard, ShardCtx, ShardedEngine};
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{hill_tail_index, percentile, wilson95, wilson_interval, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, GB, GIB, KB, KIB, MB, MIB, PB, TB, TIB};
