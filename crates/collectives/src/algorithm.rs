//! Collective algorithms and the node degree each requires.
//!
//! The paper's constraint **C1**: on a circuit-switched rail each GPU can only hold as
//! many simultaneous circuits as it has NIC ports, so latency-optimized algorithms that
//! need a high node degree (trees, recursive halving–doubling, direct exchange) are
//! unavailable and collectives fall back to bandwidth-efficient but higher-latency
//! rings. The [`Algorithm::required_degree`] method makes that constraint explicit and
//! is used by the feasibility analysis in [`crate::constraints`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// A collective communication algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Ring: each rank talks only to its two ring neighbors. Bandwidth-optimal,
    /// latency linear in the group size.
    Ring,
    /// Double binary tree (NCCL's latency-optimized AllReduce): logarithmic latency but
    /// each rank needs up to two children and a parent in each of two trees.
    DoubleBinaryTree,
    /// Recursive halving–doubling: logarithmic rounds, a different peer every round.
    HalvingDoubling,
    /// Direct exchange: every rank opens a connection to every other rank (the natural
    /// algorithm for AllToAll).
    Direct,
}

impl Algorithm {
    /// The number of *distinct peers* a rank communicates with during the collective —
    /// the node degree the network must provide for the algorithm to run without
    /// multi-hop forwarding.
    ///
    /// For a group of `p` ranks:
    /// * Ring: 2 (1 when `p == 2`),
    /// * Double binary tree: up to 6 (parent + two children in each of two trees),
    ///   capped at `p - 1`,
    /// * Halving–doubling: `ceil(log2 p)` distinct peers,
    /// * Direct: `p - 1`.
    pub fn required_degree(self, group_size: usize) -> usize {
        if group_size <= 1 {
            return 0;
        }
        let p = group_size;
        match self {
            Algorithm::Ring => 2.min(p - 1),
            Algorithm::DoubleBinaryTree => 6.min(p - 1),
            Algorithm::HalvingDoubling => (p as f64).log2().ceil() as usize,
            Algorithm::Direct => p - 1,
        }
    }

    /// True when the algorithm can run on a network that gives each rank `degree`
    /// simultaneous neighbors.
    pub fn fits_degree(self, group_size: usize, degree: usize) -> bool {
        self.required_degree(group_size) <= degree
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ring => "ring",
            Algorithm::DoubleBinaryTree => "double-binary-tree",
            Algorithm::HalvingDoubling => "halving-doubling",
            Algorithm::Direct => "direct",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_degree_is_two() {
        assert_eq!(Algorithm::Ring.required_degree(8), 2);
        assert_eq!(Algorithm::Ring.required_degree(2), 1);
        assert_eq!(Algorithm::Ring.required_degree(1), 0);
    }

    #[test]
    fn tree_and_direct_degrees() {
        assert_eq!(Algorithm::DoubleBinaryTree.required_degree(64), 6);
        assert_eq!(Algorithm::DoubleBinaryTree.required_degree(4), 3);
        assert_eq!(Algorithm::HalvingDoubling.required_degree(8), 3);
        assert_eq!(Algorithm::HalvingDoubling.required_degree(16), 4);
        assert_eq!(Algorithm::Direct.required_degree(8), 7);
    }

    #[test]
    fn degree_constrained_rail_only_supports_rings() {
        // The paper's C1: with 2 circuits per GPU, only ring algorithms survive for
        // groups larger than 4.
        let available = |degree| {
            [
                Algorithm::Ring,
                Algorithm::HalvingDoubling,
                Algorithm::DoubleBinaryTree,
                Algorithm::Direct,
            ]
            .into_iter()
            .filter(|a| a.fits_degree(8, degree))
            .collect::<Vec<_>>()
        };
        assert_eq!(available(2), vec![Algorithm::Ring]);
        // An electrical rail (effectively unbounded degree) supports everything.
        assert_eq!(available(64).len(), 4);
    }

    #[test]
    fn small_groups_fit_more_algorithms() {
        // A 2-rank group needs degree 1 for every algorithm.
        for algo in [
            Algorithm::Ring,
            Algorithm::DoubleBinaryTree,
            Algorithm::HalvingDoubling,
            Algorithm::Direct,
        ] {
            assert!(algo.fits_degree(2, 1), "{algo} should fit degree 1 for p=2");
        }
    }
}
