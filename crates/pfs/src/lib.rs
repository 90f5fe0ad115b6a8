#![warn(missing_docs)]

//! # spider-pfs
//!
//! A Lustre-like parallel file system layer over the `spider-storage`
//! substrate — the software half of the Spider deployments.
//!
//! - [`layout`]: file striping across OSTs (stripe count/size, object
//!   mapping) — the paper's best-practice knobs (§VII).
//! - [`ost`]: Object Storage Targets wrapping RAID groups, with the
//!   fullness-dependent performance degradation the paper operates around
//!   ("severe performance degradation after the resource is 70% or more
//!   full", §IV-C; "direct performance degradation when the utilization ...
//!   is greater than 50%", §VI-C) and an aging model for E13.
//! - [`oss`]: Object Storage Servers — obdfilter overhead, journaling modes
//!   (including the OLCF-funded high-performance journaling, §IV-D), and the
//!   server network limit.
//! - [`mds`]: the Metadata Server queueing model; one MDS per namespace is
//!   Lustre's scaling limit (§IV-C) and the reason OLCF runs multiple
//!   namespaces; DNE striping is modeled for the "use both" recommendation.
//! - [`namespace`]: an in-memory namespace tree (directories, files, stripe
//!   metadata, timestamps) that scales to millions of inodes: a file owns no
//!   heap allocation, and a last-activity index lets the purge visit only
//!   its victims.
//! - [`fs`]: a mounted file system instance tying MDS + OSTs + namespace
//!   together, with OST allocation policies.
//! - [`purge`](mod@purge): the 14-day automatic purge (§IV-C), driven by the
//!   namespace's last-activity index.
//! - [`journal`]: the Lustre journal whose loss in the 2010 incident cost
//!   "more than a million files" (§IV-E), plus the recovery model.
//! - [`client`]: Lustre client RPC behaviour — 1 MiB RPCs, pipelining, and
//!   the transfer-size efficiency curve behind Figure 3.

pub mod client;
pub mod fs;
pub mod journal;
pub mod layout;
pub mod mds;
pub mod namespace;
pub mod oss;
pub mod ost;
pub mod purge;
pub mod recovery;

pub use client::ClientConfig;
pub use fs::{FileSystem, FsConfig, OstAllocPolicy};
pub use journal::{Journal, RecoveryModel, RecoveryOutcome};
pub use layout::StripeLayout;
pub use mds::{MdsCluster, MdsOp, MetadataServer};
pub use namespace::{FileMeta, Inode, InodeId, InodeKind, Name, Namespace};
pub use oss::{JournalingMode, ObjectStorageServer, OssId};
pub use ost::{Ost, OstId};
pub use purge::{purge, PurgeReport};
pub use recovery::{FailoverModel, RecoveryMode};
