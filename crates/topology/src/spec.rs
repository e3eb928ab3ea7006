//! Cluster specifications and hardware presets.
//!
//! A [`ClusterSpec`] describes the scale-up domains (how many GPUs per node, how fast
//! the intra-node interconnect is) and the per-GPU scale-out NIC. Presets are provided
//! for the platforms the paper discusses: DGX H200 (8 GPUs, ConnectX-7 400 G), GB200
//! NVL72 (72-GPU scale-up), and the Perlmutter A100 nodes used for the paper's §3.1
//! trace study (4 GPUs, NVLink 3.0, Slingshot-11 200 G NICs).

use crate::cluster::Cluster;
use railsim_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};

/// The per-GPU scale-out NIC and its logical port configuration.
///
/// The paper's example (§3): a ConnectX-7 can be configured as one logical 400 Gbps
/// port, two 200 Gbps ports or four 100 Gbps ports. The number of logical ports bounds
/// the number of simultaneous optical circuits a GPU can terminate (constraint C2) and
/// splitting the NIC fragments per-collective bandwidth (constraint C3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NicConfig {
    /// Total NIC bandwidth across all logical ports.
    pub total_bandwidth: Bandwidth,
    /// Number of logical ports the NIC is partitioned into (1, 2 or 4 for ConnectX-7).
    pub ports: u8,
}

impl NicConfig {
    /// A ConnectX-7 400 G NIC configured as a single 400 Gbps port.
    pub fn connectx7_single() -> Self {
        NicConfig {
            total_bandwidth: Bandwidth::from_gbps(400.0),
            ports: 1,
        }
    }

    /// A ConnectX-7 400 G NIC configured as two 200 Gbps ports.
    pub fn connectx7_dual() -> Self {
        NicConfig {
            total_bandwidth: Bandwidth::from_gbps(400.0),
            ports: 2,
        }
    }

    /// A ConnectX-7 400 G NIC configured as four 100 Gbps ports.
    pub fn connectx7_quad() -> Self {
        NicConfig {
            total_bandwidth: Bandwidth::from_gbps(400.0),
            ports: 4,
        }
    }

    /// A Slingshot-11 200 G NIC (Perlmutter) as a single port.
    pub(crate) fn slingshot11() -> Self {
        NicConfig {
            total_bandwidth: Bandwidth::from_gbps(200.0),
            ports: 1,
        }
    }

    /// A Slingshot-11 200 G NIC partitioned into two 100 Gbps logical ports.
    pub fn slingshot11_dual() -> Self {
        NicConfig {
            total_bandwidth: Bandwidth::from_gbps(200.0),
            ports: 2,
        }
    }

    /// Creates an arbitrary NIC configuration.
    pub fn new(total_bandwidth: Bandwidth, ports: u8) -> Self {
        assert!(ports > 0, "a NIC must expose at least one logical port");
        NicConfig {
            total_bandwidth,
            ports,
        }
    }

    /// Bandwidth of a single logical port.
    pub fn port_bandwidth(&self) -> Bandwidth {
        self.total_bandwidth.split(self.ports as u32)
    }
}

/// Hardware presets for a scale-up domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodePreset {
    /// NVIDIA DGX H200: 8× H200, NVLink 4 (900 GB/s per GPU), ConnectX-7 400 G per GPU.
    DgxH200,
    /// NVIDIA GB200 NVL72: 72-GPU NVLink scale-up domain, 400 G scale-out per GPU.
    Gb200Nvl72,
    /// Perlmutter GPU node: 4× A100, NVLink 3.0 (~300 GB/s per GPU), Slingshot-11 200 G.
    /// This is the platform of the paper's §3.1 window-size study.
    PerlmutterA100,
    /// NVIDIA DGX H100: 8× H100, NVLink 4, ConnectX-7 400 G per GPU.
    DgxH100,
}

impl NodePreset {
    /// Number of GPUs per scale-up domain.
    pub fn gpus_per_node(self) -> u32 {
        match self {
            NodePreset::DgxH200 | NodePreset::DgxH100 => 8,
            NodePreset::Gb200Nvl72 => 72,
            NodePreset::PerlmutterA100 => 4,
        }
    }

    /// Per-GPU scale-up (NVLink-class) bandwidth.
    pub fn scaleup_bandwidth(self) -> Bandwidth {
        match self {
            // NVLink 4: 900 GB/s per GPU (bidirectional aggregate; we model usable uni).
            NodePreset::DgxH200 | NodePreset::DgxH100 => Bandwidth::from_gbytes_per_sec(450.0),
            // NVLink 5 in GB200 NVL72: 1.8 TB/s aggregate per GPU.
            NodePreset::Gb200Nvl72 => Bandwidth::from_gbytes_per_sec(900.0),
            // NVLink 3.0 on A100: 600 GB/s aggregate, ~300 GB/s usable per direction.
            NodePreset::PerlmutterA100 => Bandwidth::from_gbytes_per_sec(300.0),
        }
    }

    /// Default per-GPU scale-out NIC.
    pub fn nic(self) -> NicConfig {
        match self {
            NodePreset::DgxH200 | NodePreset::DgxH100 | NodePreset::Gb200Nvl72 => {
                NicConfig::connectx7_single()
            }
            NodePreset::PerlmutterA100 => NicConfig::slingshot11(),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            NodePreset::DgxH200 => "DGX H200",
            NodePreset::Gb200Nvl72 => "GB200 NVL72",
            NodePreset::PerlmutterA100 => "Perlmutter A100",
            NodePreset::DgxH100 => "DGX H100",
        }
    }
}

/// Full description of a cluster: the scale-up domains and the scale-out NICs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Descriptive name (used in reports).
    pub name: String,
    /// Number of scale-up domains (nodes).
    pub num_nodes: u32,
    /// GPUs per scale-up domain; also the number of rails.
    pub gpus_per_node: u32,
    /// Per-GPU scale-up interconnect bandwidth (NVLink class).
    pub scaleup_bandwidth: Bandwidth,
    /// Base latency of a scale-up transfer (kernel launch + NVLink hop).
    pub scaleup_latency: SimDuration,
    /// Per-GPU scale-out NIC configuration.
    pub nic: NicConfig,
    /// Base latency of a scale-out transfer (NIC + propagation; no packet-switch ASIC
    /// latency is added for photonic rails, a small extra is added by the electrical
    /// fabric model).
    pub scaleout_latency: SimDuration,
}

impl ClusterSpec {
    /// Builds a spec from a node preset and a node count.
    pub fn from_preset(preset: NodePreset, num_nodes: u32) -> Self {
        ClusterSpec {
            name: format!("{} x{}", preset.name(), num_nodes),
            num_nodes,
            gpus_per_node: preset.gpus_per_node(),
            scaleup_bandwidth: preset.scaleup_bandwidth(),
            scaleup_latency: SimDuration::from_micros(3),
            nic: preset.nic(),
            scaleout_latency: SimDuration::from_micros(10),
        }
    }

    /// Replaces the NIC configuration (e.g. to study the 2-port / 4-port splits of §3).
    pub fn with_nic(mut self, nic: NicConfig) -> Self {
        self.nic = nic;
        self
    }

    /// Total number of GPUs.
    pub fn num_gpus(&self) -> u32 {
        self.num_nodes * self.gpus_per_node
    }

    /// Number of rails (== GPUs per scale-up domain).
    pub fn num_rails(&self) -> u32 {
        self.gpus_per_node
    }

    /// Validates and builds the immutable [`Cluster`].
    ///
    /// # Panics
    /// Panics if the spec has zero nodes or zero GPUs per node.
    pub fn build(&self) -> Cluster {
        Cluster::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connectx7_port_configs() {
        assert!((NicConfig::connectx7_single().port_bandwidth().as_gbps() - 400.0).abs() < 1e-9);
        assert!((NicConfig::connectx7_dual().port_bandwidth().as_gbps() - 200.0).abs() < 1e-9);
        assert!((NicConfig::connectx7_quad().port_bandwidth().as_gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn presets_have_expected_shapes() {
        assert_eq!(NodePreset::DgxH200.gpus_per_node(), 8);
        assert_eq!(NodePreset::Gb200Nvl72.gpus_per_node(), 72);
        assert_eq!(NodePreset::PerlmutterA100.gpus_per_node(), 4);
        assert_eq!(
            NodePreset::PerlmutterA100.nic().total_bandwidth.as_gbps(),
            200.0
        );
    }

    #[test]
    fn spec_counts() {
        let spec = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4);
        assert_eq!(spec.num_gpus(), 16);
        assert_eq!(spec.num_rails(), 4);
        assert_eq!(spec.name, "Perlmutter A100 x4");
    }

    #[test]
    #[should_panic(expected = "at least one logical port")]
    fn zero_port_nic_rejected() {
        let _ = NicConfig::new(Bandwidth::from_gbps(400.0), 0);
    }
}
