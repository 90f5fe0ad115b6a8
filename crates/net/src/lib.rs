#![warn(missing_docs)]

//! # spider-net
//!
//! The interconnect substrate between Titan's compute nodes and the Spider
//! storage floor (§V-B, "Tuning the I/O Routing Layer").
//!
//! - [`torus`]: a generic 3D torus with dimension-ordered routing and
//!   per-link load accounting.
//! - [`gemini`]: Titan's Gemini network — torus dimensions, per-dimension
//!   link capacities, and the cabinet floor-grid geometry of Figure 2.
//! - [`ib`]: the SION InfiniBand SAN — leaf and core switches connecting
//!   LNET routers to the Lustre servers.
//! - [`lnet`]: LNET I/O routers with Gemini-side and InfiniBand-side network
//!   interfaces, router groups and placement schemes.
//! - [`fgr`]: OLCF's fine-grained routing — topology-aware client-to-router
//!   assignment — plus the naive baselines it is compared against.
//! - [`maxmin`]: a progressive-filling max-min fair bandwidth allocator used
//!   as the throughput engine for end-to-end experiments.

pub mod cable;
pub mod fgr;
pub mod gemini;
pub mod ib;
pub mod lnet;
pub mod maxmin;
pub mod session;
pub mod torus;

pub use cable::{diagnose, CableDiagnosis, CablePlant, PortCounters};
pub use fgr::{CongestionReport, FgrAssignment, PlacementScheme};
pub use gemini::TitanGeometry;
pub use ib::{IbFabric, LeafId};
pub use lnet::{Router, RouterGroupId, RouterId, RouterSet};
pub use maxmin::{Bound, FlowSpec, MaxMinProblem, ResourceId, SolveStats, Violation, Witness};
pub use session::{FlowBatch, FlowId, SessionStats, SolveSession, UnionFind};
pub use torus::{Coord, LinkId, LinkLoads, Torus};
