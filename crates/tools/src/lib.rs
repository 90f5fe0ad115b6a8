#![warn(missing_docs)]

//! # spider-tools
//!
//! The operational toolkit around the file system — the custom utilities
//! §IV–§VI describe OLCF building because vendor and stock tools fall short
//! at scale.
//!
//! - [`culling`]: the slow-disk identification and replacement campaign
//!   (§V-A, Lesson Learned 13): performance binning, iterative replacement,
//!   acceptance envelopes (5% / 7.5%).
//! - [`libpio`]: the balanced placement runtime (§VI-A, [33]): load-aware
//!   OST/router selection behind a small API, the thing that bought >70%
//!   on synthetic benchmarks and +24% for S3D.
//! - [`iosi`]: the I/O Signature Identifier (§VI-B, [16]): per-application
//!   I/O signatures recovered from noisy server-side throughput logs.
//! - [`monitor`]: the monitoring stack of §IV-A: health checks and the
//!   Lustre Health Checker event coalescer (the DDN-tool controller poller
//!   is `spider_obs::live::Monitor`).
//! - [`lustredu`]: server-side disk-usage aggregation (§VI-C) versus the
//!   MDS-crushing client-side `du`.
//! - [`ptools`]: scalable parallel file tools (§VI-C, [10]): work-stealing
//!   `dwalk`/`dfind`/`dcp`/`dtar` equivalents over a namespace, with real
//!   multi-core speedups via rayon.
//! - [`planner`]: capacity planning (§IV-C, §VII): project classification,
//!   namespace balancing, the 30x-memory capacity rule, and purge cadence.
//! - [`provision`]: diskless provisioning and configuration management
//!   (§IV-A: GeDI + BCFG2): image builds, boot-time config generation,
//!   convergence, and the MTTR argument for diskless servers.
//! - [`scheduler`]: I/O-aware job scheduling (LL18) — de-phasing checkpoint
//!   bursts using IOSI signatures.
//! - [`release`]: at-scale release testing (§IV-B, LL9) — defect detection
//!   probability as a function of test-campaign scale.

pub mod culling;
pub mod iosi;
pub mod libpio;
pub mod lustredu;
pub mod monitor;
pub mod planner;
pub mod provision;
pub mod ptools;
pub mod release;
pub mod scheduler;

pub use culling::{run_culling_campaign, CullingConfig, CullingReport};
pub use iosi::{extract_signature, IoSignature, IosiConfig};
pub use libpio::{Libpio, LoadSnapshot, PlacementRequest};
pub use lustredu::{client_du_cost, DuDatabase};
pub use monitor::{Alert, CheckOutcome, EventCoalescer, HealthChecker, Severity};
pub use planner::{classify_projects, CapacityPlan, Project, ProjectClass};
pub use provision::{BootOutcome, ImageBuild, NodeSpec, ProvisioningSystem};
pub use ptools::{dcp, dfind, du_parallel, dwalk, WalkStats};
pub use release::{CandidateRelease, Defect, TestCampaign};
pub use scheduler::{dephasing_gain, schedule_offsets, SchedulerConfig};
