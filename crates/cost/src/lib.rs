//! # railsim-cost — cost, power and scalability models for GPU-backend fabrics
//!
//! This crate reproduces the paper's §4.2 analysis:
//!
//! * [`catalog`] — per-component price and power figures with their public sources,
//! * [`fabric`] — cost/power roll-ups for the three fabrics of Fig. 7: a full-bisection
//!   fat-tree, a rail-optimized electrical fabric, and the Opus photonic rail fabric,
//! * [`ocs_tech`] — Table 3: the OCS technology scalability–latency trade-off
//!   (`#GPUs = scale-up size × radix / 2`),
//! * [`devices`] — device-level DAC/ADC/laser power-area tables (the electro-optical
//!   engine below the module datasheet figures),
//! * [`provisioning`] — the provisioning ladder fleet sweeps price their
//!   availability/cost frontier with (one point per fabric + OCS class).
//!
//! ```
//! use railsim_cost::fabric::{FabricKind, GpuBackendCostModel};
//!
//! let model = GpuBackendCostModel::dgx_h200_400g();
//! let rail = model.evaluate(FabricKind::RailOptimized, 8192);
//! let opus = model.evaluate(FabricKind::Opus, 8192);
//! assert!(opus.capex_usd < rail.capex_usd);
//! assert!(opus.power_watts < rail.power_watts);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod devices;
pub mod fabric;
pub mod ocs_tech;
pub mod provisioning;

pub use catalog::ComponentCatalog;
pub use fabric::{FabricCost, FabricKind, GpuBackendCostModel};
pub use ocs_tech::{ocs_technologies, OcsTechnology};
pub use provisioning::{standard_points, ProvisioningPoint};
