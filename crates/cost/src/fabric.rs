//! Cost and power roll-ups for the three GPU-backend fabrics of Fig. 7.
//!
//! All three fabrics connect `N` GPUs, each with one 400 G scale-out NIC port:
//!
//! * **Fat-tree** — one full-bisection folded Clos over all `N` endpoints.
//! * **Rail-optimized** — one independent Clos per rail (8 rails for DGX H200), each
//!   connecting the `N / 8` same-rank GPUs (\[71\]'s design, the state of the art the
//!   paper compares against).
//! * **Opus** — one flat optical circuit switch layer per rail: no packet switches, no
//!   switch-side transceivers, just an OCS port per endpoint.
//!
//! Component counts come from [`railsim_topology::fattree`]; prices and power from
//! [`crate::catalog`]. NIC-side transceivers are required by every alternative and are
//! included in all three totals (they slightly *understate* the relative savings);
//! NICs themselves and fiber are excluded, as in the paper.

use crate::catalog::ComponentCatalog;
use railsim_topology::fattree::{ClosDimensions, RailClosDimensions};
use serde::{Deserialize, Serialize};

/// The fabric alternatives compared in Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricKind {
    /// Full-bisection fat-tree over all GPU NIC ports.
    FatTree,
    /// Rail-optimized electrical fabric: one Clos per rail.
    RailOptimized,
    /// Photonic rails with the Opus control plane: one OCS layer per rail.
    Opus,
}

impl FabricKind {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FabricKind::FatTree => "Fat-tree",
            FabricKind::RailOptimized => "Rail-optimized",
            FabricKind::Opus => "Opus",
        }
    }
}

/// The evaluated cost and power of one fabric at one cluster size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricCost {
    /// Which fabric.
    pub kind: FabricKind,
    /// Number of GPUs.
    pub num_gpus: u64,
    /// Electrical packet switches used.
    pub electrical_switches: u64,
    /// OCS ports used.
    pub ocs_ports: u64,
    /// Pluggable transceivers used (NIC side + switch side).
    pub transceivers: u64,
    /// Total capital expenditure in USD.
    pub capex_usd: f64,
    /// Total power draw in watts.
    pub power_watts: f64,
}

impl FabricCost {
    /// Capex relative to another fabric (`1 - self/other`), i.e. the fractional saving.
    pub fn capex_saving_vs(&self, other: &FabricCost) -> f64 {
        1.0 - self.capex_usd / other.capex_usd
    }

    /// Power saving relative to another fabric.
    pub fn power_saving_vs(&self, other: &FabricCost) -> f64 {
        1.0 - self.power_watts / other.power_watts
    }
}

/// The Fig. 7 cost model: a component catalog plus the cluster's node shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuBackendCostModel {
    /// Component prices and power.
    pub catalog: ComponentCatalog,
    /// GPUs per scale-up domain (number of rails).
    pub gpus_per_node: u64,
    /// Scale-out NIC ports per GPU (1 for the 400 G single-port configuration).
    pub ports_per_gpu: u64,
}

impl GpuBackendCostModel {
    /// The Fig. 7 configuration: DGX H200 nodes (8 GPUs), one 400 G port per GPU,
    /// 400 G-generation component prices.
    pub fn dgx_h200_400g() -> Self {
        GpuBackendCostModel {
            catalog: ComponentCatalog::gen_400g(),
            gpus_per_node: 8,
            ports_per_gpu: 1,
        }
    }

    /// Evaluates one fabric at a given GPU count.
    ///
    /// # Panics
    /// Panics if `num_gpus` is not a multiple of the node size.
    pub fn evaluate(&self, kind: FabricKind, num_gpus: u64) -> FabricCost {
        assert!(
            num_gpus > 0 && num_gpus.is_multiple_of(self.gpus_per_node),
            "GPU count {num_gpus} must be a positive multiple of the node size {}",
            self.gpus_per_node
        );
        let c = &self.catalog;
        let endpoints = num_gpus * self.ports_per_gpu;
        let radix = c.electrical_switch_ports;
        match kind {
            FabricKind::FatTree => {
                let dims = ClosDimensions::size(endpoints, radix);
                let switches = dims.total_switches();
                let transceivers = dims.switch_side_transceivers() + endpoints;
                self.roll_up(kind, num_gpus, switches, 0, transceivers)
            }
            FabricKind::RailOptimized => {
                let rails = self.gpus_per_node;
                let per_rail_endpoints = endpoints / rails;
                let dims = RailClosDimensions::size(rails, per_rail_endpoints, radix);
                let switches = dims.total_switches();
                let transceivers = dims.switch_side_transceivers() + endpoints;
                self.roll_up(kind, num_gpus, switches, 0, transceivers)
            }
            FabricKind::Opus => {
                // One OCS port per endpoint; NIC-side transceivers only; no packet
                // switches and no switch-side transceivers (the circuit is all-optical
                // end to end).
                let ocs_ports = endpoints;
                let transceivers = endpoints;
                self.roll_up(kind, num_gpus, 0, ocs_ports, transceivers)
            }
        }
    }

    /// Evaluates every fabric at every GPU count in `sweep` (the Fig. 7 x-axis).
    pub fn sweep(&self, sweep: &[u64]) -> Vec<FabricCost> {
        let mut out = Vec::new();
        for &n in sweep {
            for kind in [
                FabricKind::FatTree,
                FabricKind::RailOptimized,
                FabricKind::Opus,
            ] {
                out.push(self.evaluate(kind, n));
            }
        }
        out
    }

    fn roll_up(
        &self,
        kind: FabricKind,
        num_gpus: u64,
        electrical_switches: u64,
        ocs_ports: u64,
        transceivers: u64,
    ) -> FabricCost {
        let c = &self.catalog;
        let capex_usd = electrical_switches as f64 * c.electrical_switch_usd
            + ocs_ports as f64 * c.ocs_port_usd
            + transceivers as f64 * c.transceiver_400g_usd;
        let power_watts = electrical_switches as f64 * c.electrical_switch_watts
            + ocs_ports as f64 * c.ocs_port_watts
            + transceivers as f64 * c.transceiver_400g_watts;
        FabricCost {
            kind,
            num_gpus,
            electrical_switches,
            ocs_ports,
            transceivers,
            capex_usd,
            power_watts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GpuBackendCostModel {
        GpuBackendCostModel::dgx_h200_400g()
    }

    #[test]
    fn fig7_ordering_holds_at_every_cluster_size() {
        let m = model();
        for n in [1024u64, 2048, 4096, 8192] {
            let ft = m.evaluate(FabricKind::FatTree, n);
            let rail = m.evaluate(FabricKind::RailOptimized, n);
            let opus = m.evaluate(FabricKind::Opus, n);
            assert!(opus.capex_usd < rail.capex_usd, "n={n} capex");
            assert!(
                rail.capex_usd <= ft.capex_usd,
                "n={n} rail vs fat-tree capex"
            );
            assert!(opus.power_watts < rail.power_watts, "n={n} power");
            assert!(
                rail.power_watts <= ft.power_watts,
                "n={n} rail vs fat-tree power"
            );
        }
    }

    #[test]
    fn paper_headline_savings_at_8192_gpus() {
        // §6: "up to 70.5 % cost saving and 95.84 % power reduction". Our catalog uses
        // public list prices rather than the authors' quotes, so we assert the savings
        // land in the neighbourhood the paper reports.
        let m = model();
        let rail = m.evaluate(FabricKind::RailOptimized, 8192);
        let opus = m.evaluate(FabricKind::Opus, 8192);
        let cost_saving = opus.capex_saving_vs(&rail);
        let power_saving = opus.power_saving_vs(&rail);
        assert!(
            (0.60..=0.80).contains(&cost_saving),
            "cost saving {cost_saving:.3} outside the expected band"
        );
        assert!(
            (0.88..=0.97).contains(&power_saving),
            "power saving {power_saving:.3} outside the expected band"
        );
    }

    #[test]
    fn opus_uses_no_packet_switches() {
        let opus = model().evaluate(FabricKind::Opus, 4096);
        assert_eq!(opus.electrical_switches, 0);
        assert_eq!(opus.ocs_ports, 4096);
        assert_eq!(opus.transceivers, 4096);
    }

    #[test]
    fn rail_optimized_uses_one_clos_per_rail() {
        // 8192 GPUs => 8 rails of 1024 endpoints: each needs a 2-tier Clos of 48
        // switches (32 leaves + 16 spines) => 384 switches total.
        let rail = model().evaluate(FabricKind::RailOptimized, 8192);
        assert_eq!(rail.electrical_switches, 384);
        // Switch-side transceivers: 8 rails * (1024 endpoint + 2*1024 inter-switch)
        // plus 8192 NIC-side.
        assert_eq!(rail.transceivers, 8 * 3072 + 8192);
    }

    #[test]
    fn small_cluster_rail_fabric_uses_single_switch_per_rail() {
        // 512 GPUs => 64 endpoints per rail => one 64-port switch per rail.
        let rail = model().evaluate(FabricKind::RailOptimized, 512);
        assert_eq!(rail.electrical_switches, 8);
    }

    #[test]
    fn costs_scale_roughly_linearly_with_gpus() {
        let m = model();
        let at_1k = m.evaluate(FabricKind::Opus, 1024).capex_usd;
        let at_8k = m.evaluate(FabricKind::Opus, 8192).capex_usd;
        assert!((at_8k / at_1k - 8.0).abs() < 0.01);
    }

    #[test]
    fn sweep_produces_all_points() {
        let rows = model().sweep(&[1024, 2048, 4096, 8192]);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn non_node_multiple_rejected() {
        model().evaluate(FabricKind::Opus, 1001);
    }
}
