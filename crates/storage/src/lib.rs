#![warn(missing_docs)]

//! # spider-storage
//!
//! The block-storage substrate of the center: the layer the paper's §V-A
//! ("Tuning the Block Storage Layer") and §III-B (acquisition benchmark
//! suite) exercise.
//!
//! - [`disk`]: a near-line SAS disk service model with sampled per-disk
//!   performance variance, including the slow-disk tail that motivated
//!   OLCF's culling campaign (Lesson Learned 13).
//! - [`raid`]: RAID-6 (8 data + 2 parity) groups — the paper's Lustre OST
//!   backing devices — with full-stripe vs read-modify-write behaviour,
//!   degraded modes and rebuild.
//! - [`enclosure`]: disk enclosures and the controller-pair cabling that made
//!   the 2010 human-error incident (§IV-E) possible.
//! - [`controller`]: DDN-style controller couplets with a generation-
//!   dependent throughput ceiling (the §V-C CPU/memory upgrade).
//! - [`ssu`]: the Scalable System Unit, the procurement building block
//!   (§III-A).
//! - [`fleet`]: the full 36-SSU, 20,160-disk Spider II floor.
//! - [`blockbench`]: the `fair-lio`-style block-level benchmark: a parameter
//!   sweep over request size, queue depth, read fraction and access pattern.

pub mod blockbench;
pub mod controller;
pub mod disk;
pub mod enclosure;
pub mod fleet;
pub mod raid;
pub mod reliability;
pub mod ssu;

pub use blockbench::{BlockBenchRow, BlockProfile, BlockSweep};
pub use controller::{ControllerGeneration, ControllerPair, ControllerState};
pub use disk::{Disk, DiskHealth, DiskId, DiskPopulationSpec, DiskSpec};
pub use enclosure::{Enclosure, EnclosureId, EnclosureLayout};
pub use fleet::{FleetSpec, StorageFleet};
pub use raid::{RaidConfig, RaidGroup, RaidGroupId, RaidRates, RaidState};
pub use reliability::{
    analytic_group_loss_probability, run_reliability, run_reliability_fast, FastReliabilityReport,
    ReliabilityConfig, ReliabilityReport, SplittingConfig, SECS_PER_YEAR,
};
pub use ssu::{Ssu, SsuId, SsuSpec};
