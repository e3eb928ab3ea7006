//! # railsim-topology — cluster, rail and optical-switch topology models
//!
//! This crate models the physical substrate of a rail-optimized ML datacenter as
//! described in *Photonic Rails in ML Datacenters* (HotNets 2025):
//!
//! * [`ClusterSpec`] / [`Cluster`] — scale-up domains (DGX/HGX-style nodes), GPUs,
//!   local ranks, and the rail structure: rail *r* contains the GPU with local rank *r*
//!   from every scale-up domain.
//! * [`NicConfig`] — the per-GPU scale-out NIC and its logical port configuration
//!   (e.g. ConnectX-7 as 1×400 G, 2×200 G or 4×100 G), which drives the paper's C3
//!   bandwidth-fragmentation constraint.
//! * [`Ocs`] — an optical circuit switch: a bounded-radix set of point-to-point
//!   circuits with a configurable reconfiguration delay.
//! * [`fabric`] — the two scale-out fabrics compared in the paper: the electrical
//!   packet-switched rail fabric (full per-rail connectivity, no reconfiguration,
//!   one [`ELECTRICAL_SWITCH_LATENCY`] per transfer) and the [`OpticalRailFabric`]
//!   (one OCS per rail, circuit-switched).
//! * [`fattree`] — folded-Clos / fat-tree and rail-Clos sizing, used by the cost model
//!   and as the fully-connected baseline.
//! * [`path`] — reachability queries including PXN-style forwarding through the
//!   scale-up interconnect.
//!
//! ```
//! use railsim_topology::{ClusterSpec, NodePreset};
//!
//! // 4 DGX-H200-style scale-up domains => 8 rails of 4 GPUs each.
//! let spec = ClusterSpec::from_preset(NodePreset::DgxH200, 4);
//! let cluster = spec.build();
//! assert_eq!(cluster.num_gpus(), 32);
//! assert_eq!(cluster.num_rails(), 8);
//! assert_eq!(cluster.gpus_in_rail(railsim_topology::RailId(0)).len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fabric;
pub mod fattree;
pub mod health;
pub mod ids;
pub mod ocs;
pub mod path;
pub mod spec;

pub use cluster::Cluster;
pub use fabric::{
    DenseCircuit, OpticalRailFabric, PortGeometry, RailPort, ELECTRICAL_SWITCH_LATENCY,
};
pub use fattree::ClosDimensions;
pub use health::RailHealth;
pub use ids::{GpuId, NodeId, PortId, RailId, RailSet, RailSetIter};
pub use ocs::{Circuit, CircuitConfig, Ocs, OcsEffect, OcsError};
pub use path::{CommPath, PathKind};
pub use spec::{ClusterSpec, NicConfig, NodePreset};
