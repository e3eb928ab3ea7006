//! Communication paths between GPUs.
//!
//! Three kinds of path exist in a (photonic) rail-optimized cluster:
//!
//! 1. **Intra-node** — both GPUs share a scale-up domain and talk over NVLink-class
//!    interconnect; the scale-out network is not involved.
//! 2. **Same-rail** — the GPUs have the same local rank in different nodes and talk
//!    through their rail (electrical switch or optical circuit).
//! 3. **PXN forwarding** — the GPUs differ in both node and local rank. Traffic is
//!    forwarded through the GPU in the *sender's* node that shares the receiver's local
//!    rank (NVIDIA's PXN mechanism \[43\]), paying one extra scale-up hop — the
//!    "bandwidth tax" the paper mentions when discussing multi-hopping (§3, §5).

use crate::cluster::Cluster;
use crate::ids::{GpuId, RailId};
use serde::{Deserialize, Serialize};

/// The kind of path between two GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathKind {
    /// Both GPUs share a scale-up domain.
    IntraNode,
    /// Same local rank, different nodes: direct rail communication.
    SameRail {
        /// The rail carrying the traffic.
        rail: RailId,
    },
    /// Different node and different local rank: forward via the scale-up interconnect
    /// to the same-node GPU with the destination's local rank, then over that rail.
    PxnForward {
        /// The intermediate GPU in the sender's node.
        via: GpuId,
        /// The rail carrying the scale-out leg.
        rail: RailId,
    },
}

/// A resolved communication path with its hop structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommPath {
    /// Source GPU.
    pub src: GpuId,
    /// Destination GPU.
    pub dst: GpuId,
    /// Path classification.
    pub kind: PathKind,
}

impl CommPath {
    /// Resolves the path between two distinct GPUs in `cluster`.
    ///
    /// # Panics
    /// Panics if `src == dst` or either id is out of range.
    pub fn between(cluster: &Cluster, src: GpuId, dst: GpuId) -> Self {
        assert!(src != dst, "no path needed from {src} to itself");
        let kind = if cluster.same_node(src, dst) {
            PathKind::IntraNode
        } else if cluster.same_rail(src, dst) {
            PathKind::SameRail {
                rail: cluster.rail_of(src),
            }
        } else {
            let via = cluster.gpu_at(cluster.node_of(src), cluster.local_rank_of(dst));
            PathKind::PxnForward {
                via,
                rail: cluster.rail_of(dst),
            }
        };
        CommPath { src, dst, kind }
    }

    /// Number of scale-up hops on the path.
    pub fn scaleup_hops(&self) -> u32 {
        match self.kind {
            PathKind::IntraNode => 1,
            PathKind::SameRail { .. } => 0,
            PathKind::PxnForward { .. } => 1,
        }
    }

    /// Number of scale-out (rail) hops on the path.
    pub fn scaleout_hops(&self) -> u32 {
        match self.kind {
            PathKind::IntraNode => 0,
            PathKind::SameRail { .. } | PathKind::PxnForward { .. } => 1,
        }
    }

    /// The rail used by the scale-out leg, if any.
    pub fn rail(&self) -> Option<RailId> {
        match self.kind {
            PathKind::IntraNode => None,
            PathKind::SameRail { rail } => Some(rail),
            PathKind::PxnForward { rail, .. } => Some(rail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, NodePreset};

    fn cluster() -> Cluster {
        // 4 nodes x 4 GPUs.
        ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
    }

    #[test]
    fn intra_node_path() {
        let c = cluster();
        let p = CommPath::between(&c, GpuId(0), GpuId(3));
        assert_eq!(p.kind, PathKind::IntraNode);
        assert_eq!(p.scaleup_hops(), 1);
        assert_eq!(p.scaleout_hops(), 0);
        assert_eq!(p.rail(), None);
    }

    #[test]
    fn same_rail_path() {
        let c = cluster();
        let p = CommPath::between(&c, GpuId(1), GpuId(13));
        assert_eq!(p.kind, PathKind::SameRail { rail: RailId(1) });
        assert_eq!(p.scaleup_hops(), 0);
        assert_eq!(p.scaleout_hops(), 1);
        assert_eq!(p.rail(), Some(RailId(1)));
    }

    #[test]
    fn pxn_forwarding_path() {
        let c = cluster();
        // GPU 0 (node 0, rank 0) to GPU 7 (node 1, rank 3): forward via GPU 3 on rail 3.
        let p = CommPath::between(&c, GpuId(0), GpuId(7));
        assert_eq!(
            p.kind,
            PathKind::PxnForward {
                via: GpuId(3),
                rail: RailId(3)
            }
        );
        assert_eq!(p.scaleup_hops(), 1);
        assert_eq!(p.scaleout_hops(), 1);
    }

    #[test]
    #[should_panic(expected = "no path needed")]
    fn self_path_rejected() {
        let c = cluster();
        let _ = CommPath::between(&c, GpuId(0), GpuId(0));
    }
}
