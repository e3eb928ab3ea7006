//! Identifier newtypes for topology elements.
//!
//! By convention a [`GpuId`] is the GPU's global index in the cluster: GPU `g` lives in
//! scale-up domain (node) `g / gpus_per_node` and has local rank `g % gpus_per_node`.
//! The rail id of a GPU equals its local rank — rail *r* wires together the GPUs with
//! local rank *r* from every node (Fig. 1 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Global index of a GPU in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GpuId(pub u32);

/// Index of a scale-up domain (a DGX/HGX-style node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a rail. Equal to the local rank of the GPUs it connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RailId(pub u32);

/// A scale-out NIC port on a specific GPU.
///
/// A GPU's NIC can be configured as several logical ports (e.g. 4×100 G); `port` is the
/// logical port index on that GPU, in `0..NicConfig::ports`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId {
    /// The GPU owning the port.
    pub gpu: GpuId,
    /// Logical port index on that GPU's NIC.
    pub port: u8,
}

impl GpuId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RailId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compact set of rails: a 64-bit membership mask.
///
/// Communication records name the rails they used; with `Vec<RailId>` every
/// record owned a 24-byte header plus (for scale-out traffic) a heap
/// allocation — at datacenter scale, tens of millions of records made that
/// gigabytes. A cluster has one rail per scale-up local rank (8 on a DGX
/// H200, 4 on a Perlmutter node), so a single word covers every realistic
/// geometry with a 64-rail ceiling, enforced on insert.
///
/// Iteration yields rails in ascending id order — the same order as the
/// sorted `Vec<RailId>` it replaces — and the set serializes exactly like
/// that vector, so serialized metrics are byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RailSet(u64);

impl RailSet {
    /// The empty set.
    pub const EMPTY: RailSet = RailSet(0);

    /// Adds a rail.
    ///
    /// # Panics
    /// Panics if `rail.0 >= 64` (one rail per scale-up local rank; no preset
    /// comes close to the ceiling).
    pub fn insert(&mut self, rail: RailId) {
        assert!(
            rail.0 < 64,
            "RailSet holds rails 0..64, got rail {}",
            rail.0
        );
        self.0 |= 1u64 << rail.0;
    }

    /// True when `rail` is in the set.
    pub fn contains(self, rail: RailId) -> bool {
        rail.0 < 64 && self.0 & (1u64 << rail.0) != 0
    }

    /// True when the set has no rails.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of rails in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The rails in ascending id order.
    pub fn iter(self) -> RailSetIter {
        RailSetIter { bits: self.0 }
    }
}

/// Iterator over a [`RailSet`], ascending by rail id.
#[derive(Debug, Clone)]
pub struct RailSetIter {
    bits: u64,
}

impl Iterator for RailSetIter {
    type Item = RailId;
    fn next(&mut self) -> Option<RailId> {
        if self.bits == 0 {
            return None;
        }
        let rail = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(RailId(rail))
    }
}

impl FromIterator<RailId> for RailSet {
    fn from_iter<I: IntoIterator<Item = RailId>>(iter: I) -> Self {
        let mut set = RailSet::EMPTY;
        for rail in iter {
            set.insert(rail);
        }
        set
    }
}

impl IntoIterator for &RailSet {
    type Item = RailId;
    type IntoIter = RailSetIter;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Serialize for RailSet {
    fn to_value(&self) -> serde::Value {
        // Exactly `Vec<RailId>`'s shape (ascending, like the sorted vector it
        // replaced), so serialized metrics are unchanged.
        serde::Value::Seq(self.iter().map(|r| r.to_value()).collect())
    }
}

impl<'de> Deserialize<'de> for RailSet {}

impl PortId {
    /// Creates a port id.
    pub fn new(gpu: GpuId, port: u8) -> Self {
        PortId { gpu, port }
    }

    /// The port's `(rail, index)` position in per-rail dense tables of
    /// `num_nodes * ports_per_gpu` entries each: the owning GPU's rail is its local
    /// rank (`gpu % num_rails`), and within the rail ports are node-major,
    /// logical-port-minor. Each rail's OCS keeps its matching in such a table, and
    /// the Opus controller its per-port occupancy.
    pub fn rail_dense_index(self, num_rails: u32, ports_per_gpu: u8) -> (usize, usize) {
        debug_assert!(
            self.port < ports_per_gpu,
            "port {self} out of range for {ports_per_gpu} ports/GPU"
        );
        let rail = (self.gpu.0 % num_rails) as usize;
        let idx = (self.gpu.0 / num_rails) as usize * ports_per_gpu as usize + self.port as usize;
        (rail, idx)
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for RailId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rail{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:p{}", self.gpu, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", GpuId(3)), "gpu3");
        assert_eq!(format!("{}", NodeId(1)), "node1");
        assert_eq!(format!("{}", RailId(7)), "rail7");
        assert_eq!(format!("{}", PortId::new(GpuId(3), 2)), "gpu3:p2");
    }

    #[test]
    fn rail_dense_index_partitions_the_flat_table_by_rail() {
        // 4 rails (gpus/node), 2 ports/GPU: gpu 6 lives on node 1, rail 2.
        let p = PortId::new(GpuId(6), 1);
        assert_eq!(p.rail_dense_index(4, 2), (2, 3));
        // Every port of a 2-node cluster lands in a distinct (rail, idx) slot, and
        // the within-rail index stays below num_nodes * ports_per_gpu.
        let mut seen = std::collections::HashSet::new();
        for gpu in 0..8u32 {
            for port in 0..2u8 {
                let (rail, idx) = PortId::new(GpuId(gpu), port).rail_dense_index(4, 2);
                assert!(rail < 4 && idx < 4);
                assert!(seen.insert((rail, idx)));
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn ordering_is_lexicographic_for_ports() {
        let a = PortId::new(GpuId(1), 3);
        let b = PortId::new(GpuId(2), 0);
        assert!(a < b);
        assert!(PortId::new(GpuId(1), 0) < a);
    }
}
