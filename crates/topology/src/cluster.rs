//! The immutable cluster layout built from a [`ClusterSpec`].
//!
//! A [`Cluster`] answers the structural questions the rest of the workspace asks:
//! which node a GPU lives in, which rail it belongs to, which GPUs share a rail, and
//! how many scale-out NIC ports each GPU has.

use crate::ids::{GpuId, NodeId, RailId};
use crate::spec::ClusterSpec;
use railsim_sim::Bandwidth;

/// An immutable description of the cluster: nodes, GPUs, rails and NIC ports.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
}

impl Cluster {
    /// Builds a cluster from a spec.
    ///
    /// # Panics
    /// Panics if `num_nodes` or `gpus_per_node` is zero.
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.num_nodes > 0, "cluster must have at least one node");
        assert!(
            spec.gpus_per_node > 0,
            "cluster must have at least one GPU per node"
        );
        Cluster { spec }
    }

    /// The spec this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total number of GPUs.
    pub fn num_gpus(&self) -> u32 {
        self.spec.num_gpus()
    }

    /// Number of scale-up domains (nodes).
    pub fn num_nodes(&self) -> u32 {
        self.spec.num_nodes
    }

    /// Number of GPUs per scale-up domain.
    pub fn gpus_per_node(&self) -> u32 {
        self.spec.gpus_per_node
    }

    /// Number of rails (== GPUs per node).
    pub fn num_rails(&self) -> u32 {
        self.spec.gpus_per_node
    }

    /// Number of logical scale-out NIC ports per GPU.
    pub fn ports_per_gpu(&self) -> u8 {
        self.spec.nic.ports
    }

    /// Bandwidth of one logical scale-out port.
    pub fn port_bandwidth(&self) -> Bandwidth {
        self.spec.nic.port_bandwidth()
    }

    /// Per-GPU scale-up interconnect bandwidth.
    pub fn scaleup_bandwidth(&self) -> Bandwidth {
        self.spec.scaleup_bandwidth
    }

    /// True when `gpu` is a valid id in this cluster.
    pub fn contains(&self, gpu: GpuId) -> bool {
        gpu.0 < self.num_gpus()
    }

    /// The node (scale-up domain) hosting `gpu`.
    ///
    /// # Panics
    /// Panics if `gpu` is out of range.
    pub fn node_of(&self, gpu: GpuId) -> NodeId {
        self.check(gpu);
        NodeId(gpu.0 / self.spec.gpus_per_node)
    }

    /// The local rank of `gpu` within its node (equals its rail index).
    pub fn local_rank_of(&self, gpu: GpuId) -> u32 {
        self.check(gpu);
        gpu.0 % self.spec.gpus_per_node
    }

    /// The rail `gpu` is attached to.
    pub fn rail_of(&self, gpu: GpuId) -> RailId {
        RailId(self.local_rank_of(gpu))
    }

    /// The GPU at (`node`, `local_rank`).
    ///
    /// # Panics
    /// Panics if either coordinate is out of range.
    pub fn gpu_at(&self, node: NodeId, local_rank: u32) -> GpuId {
        assert!(node.0 < self.spec.num_nodes, "node {node} out of range");
        assert!(
            local_rank < self.spec.gpus_per_node,
            "local rank {local_rank} out of range"
        );
        GpuId(node.0 * self.spec.gpus_per_node + local_rank)
    }

    /// All GPUs attached to `rail`, in node order. These are the GPUs with local rank
    /// `rail.0` in every scale-up domain.
    pub fn gpus_in_rail(&self, rail: RailId) -> Vec<GpuId> {
        assert!(rail.0 < self.num_rails(), "rail {rail} out of range");
        (0..self.spec.num_nodes)
            .map(|n| self.gpu_at(NodeId(n), rail.0))
            .collect()
    }

    /// All GPU ids in the cluster, in order.
    pub fn all_gpus(&self) -> Vec<GpuId> {
        (0..self.num_gpus()).map(GpuId).collect()
    }

    /// All rail ids.
    pub fn all_rails(&self) -> Vec<RailId> {
        (0..self.num_rails()).map(RailId).collect()
    }

    /// True when `a` and `b` are in the same scale-up domain.
    pub fn same_node(&self, a: GpuId, b: GpuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// True when `a` and `b` are on the same rail (same local rank, different or same node).
    pub(crate) fn same_rail(&self, a: GpuId, b: GpuId) -> bool {
        self.local_rank_of(a) == self.local_rank_of(b)
    }

    /// Number of OCS ports a photonic rail needs to terminate this cluster's rail
    /// endpoints: one per logical NIC port per node on the rail.
    pub(crate) fn ocs_ports_per_rail(&self) -> u32 {
        self.spec.num_nodes * self.spec.nic.ports as u32
    }

    fn check(&self, gpu: GpuId) {
        assert!(
            self.contains(gpu),
            "{gpu} out of range for cluster of {} GPUs",
            self.num_gpus()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, NodePreset};

    fn perlmutter4() -> Cluster {
        ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
    }

    #[test]
    fn gpu_to_node_and_rank_roundtrip() {
        let c = perlmutter4();
        for gpu in c.all_gpus() {
            let node = c.node_of(gpu);
            let rank = c.local_rank_of(gpu);
            assert_eq!(c.gpu_at(node, rank), gpu);
        }
    }

    #[test]
    fn rail_membership_matches_paper_layout() {
        // 4 Perlmutter nodes, 4 GPUs each: rail 0 should be GPUs {0, 4, 8, 12}.
        let c = perlmutter4();
        assert_eq!(
            c.gpus_in_rail(RailId(0)),
            vec![GpuId(0), GpuId(4), GpuId(8), GpuId(12)]
        );
        assert_eq!(
            c.gpus_in_rail(RailId(3)),
            vec![GpuId(3), GpuId(7), GpuId(11), GpuId(15)]
        );
    }

    #[test]
    fn node_membership() {
        let c = perlmutter4();
        assert!((4..8).all(|g| c.node_of(GpuId(g)) == NodeId(1)));
        assert!(c.same_node(GpuId(4), GpuId(7)));
        assert!(!c.same_node(GpuId(3), GpuId(4)));
        assert!(c.same_rail(GpuId(1), GpuId(13)));
        assert!(!c.same_rail(GpuId(1), GpuId(12)));
    }

    #[test]
    fn every_rail_has_one_gpu_per_node() {
        let c = ClusterSpec::from_preset(NodePreset::DgxH200, 16).build();
        for rail in c.all_rails() {
            let gpus = c.gpus_in_rail(rail);
            assert_eq!(gpus.len(), c.num_nodes() as usize);
            let nodes: std::collections::HashSet<_> = gpus.iter().map(|&g| c.node_of(g)).collect();
            assert_eq!(nodes.len(), c.num_nodes() as usize);
            for &g in &gpus {
                assert_eq!(c.rail_of(g), rail);
            }
        }
    }

    #[test]
    fn ports_and_ocs_sizing() {
        let spec = ClusterSpec::from_preset(NodePreset::DgxH200, 4)
            .with_nic(crate::spec::NicConfig::connectx7_dual());
        let c = spec.build();
        assert_eq!(c.ports_per_gpu(), 2);
        assert_eq!(c.ocs_ports_per_rail(), 8);
        assert!((c.port_bandwidth().as_gbps() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gpu_panics() {
        let c = perlmutter4();
        c.node_of(GpuId(16));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        let mut spec = ClusterSpec::from_preset(NodePreset::DgxH200, 1);
        spec.num_nodes = 0;
        let _ = spec.build();
    }
}
