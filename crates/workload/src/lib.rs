#![warn(missing_docs)]

//! # spider-workload
//!
//! I/O workload models for the center simulation, parameterized from the
//! paper's published characterization of Spider I traffic (§II, \[14\]):
//! 60% write / 40% read requests; request sizes bimodal (small, under
//! 16 KB, or large multiples of 1 MB); inter-arrival and idle times
//! long-tailed, "modeled as a Pareto distribution".
//!
//! - [`spec`]: request/stream types and the workload presets (checkpoint/
//!   restart, analytics reads, interactive, data transfer, production mix).
//! - [`generator`]: turns a spec into a deterministic request stream, drawn
//!   as it is read, and bins requests into a server-side throughput log.
//! - [`mix`]: composes the center-wide mixed workload from several compute
//!   resources — the thing a data-centric PFS actually experiences.
//! - [`characterize`](mod@characterize): recovers the paper's workload statistics from a
//!   trace (write fraction, size bimodality, Pareto tail fit via the Hill
//!   estimator) — validating generator output against §II.
//! - [`ior`]: the IOR-like synthetic benchmark behind Figures 3 and 4
//!   (file-per-process, transfer-size sweep, stonewalling).
//! - [`obdsurvey`]: the `obdfilter-survey` equivalent measuring file-system
//!   software overhead over the block layer (§III-B).
//! - [`s3d`]: the S3D combustion application's checkpoint I/O pattern
//!   (§VI-A), used to evaluate libPIO.

pub mod characterize;
pub mod generator;
pub mod ior;
pub mod mix;
pub mod obdsurvey;
pub mod s3d;
pub mod spec;

pub use characterize::{characterize, Characterization};
pub use generator::{generate_trace, trace_to_series, RequestStream};
pub use ior::{run_ior, IorConfig, IorMode, IorReport, IorTarget};
pub use mix::{CenterWorkload, SourceKind, WorkloadSource};
pub use obdsurvey::{run_obdsurvey, ObdSurveyReport};
pub use s3d::S3dConfig;
pub use spec::{IoRequest, StreamSpec, WorkloadKind};
