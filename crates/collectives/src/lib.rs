//! # railsim-collectives — communication groups, collective algorithms and cost models
//!
//! Distributed ML training communicates through *collectives* (AllReduce, AllGather,
//! ReduceScatter, AllToAll, point-to-point Send/Recv) issued over *communication
//! groups* — the per-parallelism-axis sets of ranks managed by libraries like NCCL.
//! This crate models:
//!
//! * [`CollectiveKind`] and [`ParallelismAxis`] — what is being communicated and which
//!   parallelism dimension issued it (Table 2 of the paper),
//! * [`CommGroup`] — a communication group and its ring structure,
//! * [`Algorithm`] — ring, double-binary-tree, halving–doubling and direct algorithms,
//!   together with the node-degree each requires (the paper's constraint C1),
//! * [`cost`] — α–β completion-time models for every (collective, algorithm) pair,
//! * [`constraints`] — the C1/C2/C3 feasibility and bandwidth-fragmentation analysis
//!   for photonic rails with a limited number of NIC ports.
//!
//! ```
//! use railsim_collectives::{Algorithm, CollectiveKind, cost::CostParams};
//! use railsim_sim::{Bandwidth, Bytes, SimDuration};
//!
//! let params = CostParams::new(SimDuration::from_micros(10), Bandwidth::from_gbps(400.0));
//! // Ring AllReduce of a 1 GB gradient across 8 ranks.
//! let t = railsim_collectives::cost::collective_time(
//!     CollectiveKind::AllReduce,
//!     Algorithm::Ring,
//!     8,
//!     Bytes::from_gb(1),
//!     &params,
//! );
//! // 2*(p-1)/p * 1GB at 50 GB/s ≈ 35 ms plus the per-step latency.
//! assert!(t.as_millis_f64() > 34.0 && t.as_millis_f64() < 36.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod constraints;
pub mod cost;
pub mod group;
pub mod kind;
pub mod ring;

pub use algorithm::Algorithm;
pub use constraints::{DegreeBudget, FeasibilityReport};
pub use cost::CostParams;
pub use group::{CommGroup, GroupId};
pub use kind::{CollectiveKind, ParallelismAxis};
