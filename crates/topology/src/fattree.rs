//! Folded-Clos / fat-tree sizing.
//!
//! The cost and power comparison of Fig. 7 needs component counts for three fabrics:
//! a full-bisection three-tier fat-tree, a rail-optimized fabric (one Clos per rail),
//! and the flat photonic rail fabric. This module provides the switch/link arithmetic
//! for the electrical options; the photonic option needs no packet switches at all.
//!
//! The sizing follows the standard folded-Clos construction used by the papers the
//! figure cites ([71, 72]):
//! * a single switch suffices for up to `radix` endpoints;
//! * a two-tier leaf–spine Clos supports up to `radix²/2` endpoints at full bisection;
//! * a three-tier fat-tree supports up to `radix³/4` endpoints at full bisection.

use serde::{Deserialize, Serialize};

/// Switch and link counts for a folded-Clos network of a given tier count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClosDimensions {
    /// Number of endpoints (hosts/NIC ports) attached.
    pub endpoints: u64,
    /// Switch radix used for every tier.
    pub switch_radix: u64,
    /// Number of tiers (1, 2 or 3).
    pub tiers: u8,
    /// Leaf (ToR / tier-1) switches.
    pub leaf_switches: u64,
    /// Aggregation / spine (tier-2) switches.
    pub spine_switches: u64,
    /// Core (tier-3) switches.
    pub core_switches: u64,
    /// Endpoint-to-leaf links.
    pub endpoint_links: u64,
    /// Switch-to-switch links.
    pub inter_switch_links: u64,
}

impl ClosDimensions {
    /// Sizes the smallest folded Clos (1–3 tiers) that supports `endpoints` endpoints
    /// at full bisection bandwidth with switches of the given `radix`.
    ///
    /// # Panics
    /// Panics if `endpoints` is zero, `radix < 2`, or the requested endpoint count
    /// exceeds the three-tier maximum of `radix³/4`.
    pub fn size(endpoints: u64, radix: u64) -> Self {
        assert!(endpoints > 0, "cannot size a network with zero endpoints");
        assert!(radix >= 2, "switch radix must be at least 2");
        let half = radix / 2;

        if endpoints <= radix {
            // A single switch.
            return ClosDimensions {
                endpoints,
                switch_radix: radix,
                tiers: 1,
                leaf_switches: 1,
                spine_switches: 0,
                core_switches: 0,
                endpoint_links: endpoints,
                inter_switch_links: 0,
            };
        }

        if endpoints <= radix * half {
            // Two-tier leaf–spine: each leaf uses half its ports down, half up.
            let leaves = endpoints.div_ceil(half);
            // Full bisection: total uplinks == leaves * half, spread over spines with
            // `radix` ports each (all spine ports face down).
            let spines = (leaves * half).div_ceil(radix).max(1);
            let inter = leaves * half;
            return ClosDimensions {
                endpoints,
                switch_radix: radix,
                tiers: 2,
                leaf_switches: leaves,
                spine_switches: spines,
                core_switches: 0,
                endpoint_links: endpoints,
                inter_switch_links: inter,
            };
        }

        let max3 = radix * radix * radix / 4;
        assert!(
            endpoints <= max3,
            "{endpoints} endpoints exceed the 3-tier maximum of {max3} for radix {radix}"
        );

        // Three-tier fat-tree built from pods: each pod has `half` leaf and `half`
        // aggregation switches and serves `half * half` endpoints.
        let per_pod = half * half;
        let pods = endpoints.div_ceil(per_pod);
        let leaves = pods * half;
        let aggs = pods * half;
        // Core layer sized for full bisection across the pods actually built.
        let core = ((pods * half * half).div_ceil(radix)).max(1);
        let leaf_agg_links = leaves * half;
        let agg_core_links = aggs * half;
        ClosDimensions {
            endpoints,
            switch_radix: radix,
            tiers: 3,
            leaf_switches: leaves,
            spine_switches: aggs,
            core_switches: core,
            endpoint_links: endpoints,
            inter_switch_links: leaf_agg_links + agg_core_links,
        }
    }

    /// Total number of switches across all tiers.
    pub fn total_switches(&self) -> u64 {
        self.leaf_switches + self.spine_switches + self.core_switches
    }

    /// Number of transceivers plugged into switch ports: one per endpoint link (the
    /// switch side) plus two per inter-switch link. The NIC-side transceivers are
    /// counted separately by the cost model because every fabric needs those.
    pub fn switch_side_transceivers(&self) -> u64 {
        self.endpoint_links + 2 * self.inter_switch_links
    }
}

/// Component counts for a rail-optimized fabric: one independent Clos per rail, each
/// connecting the same-rank GPUs of every scale-up domain (the design of \[71\]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RailClosDimensions {
    /// Number of rails (GPUs per scale-up domain).
    pub rails: u64,
    /// Clos sizing of one rail (all rails are identical).
    pub per_rail: ClosDimensions,
}

impl RailClosDimensions {
    /// Sizes a rail-optimized fabric: `rails` independent Clos networks, each with
    /// `endpoints_per_rail` endpoints (one per scale-up domain).
    pub fn size(rails: u64, endpoints_per_rail: u64, radix: u64) -> Self {
        assert!(rails > 0, "a rail fabric needs at least one rail");
        RailClosDimensions {
            rails,
            per_rail: ClosDimensions::size(endpoints_per_rail, radix),
        }
    }

    /// Total switches across all rails.
    pub fn total_switches(&self) -> u64 {
        self.rails * self.per_rail.total_switches()
    }

    /// Total switch-side transceivers across all rails.
    pub fn switch_side_transceivers(&self) -> u64 {
        self.rails * self.per_rail.switch_side_transceivers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_when_endpoints_fit() {
        let d = ClosDimensions::size(48, 64);
        assert_eq!(d.tiers, 1);
        assert_eq!(d.total_switches(), 1);
        assert_eq!(d.endpoint_links, 48);
        assert_eq!(d.inter_switch_links, 0);
        assert_eq!(d.switch_side_transceivers(), 48);
    }

    #[test]
    fn two_tier_sizing() {
        // 1024 endpoints on 64-port switches: 32 leaves (32 down / 32 up), 16 spines.
        let d = ClosDimensions::size(1024, 64);
        assert_eq!(d.tiers, 2);
        assert_eq!(d.leaf_switches, 32);
        assert_eq!(d.spine_switches, 16);
        assert_eq!(d.inter_switch_links, 1024);
        assert_eq!(d.total_switches(), 48);
        assert_eq!(d.switch_side_transceivers(), 1024 + 2048);
    }

    #[test]
    fn two_tier_maximum() {
        // radix^2/2 = 2048 is still 2 tiers for radix 64.
        let d = ClosDimensions::size(2048, 64);
        assert_eq!(d.tiers, 2);
        assert_eq!(d.leaf_switches, 64);
        assert_eq!(d.spine_switches, 32);
    }

    #[test]
    fn three_tier_sizing() {
        // 8192 endpoints on 64-port switches: 8 pods of 1024, 256 leaves, 256 aggs.
        let d = ClosDimensions::size(8192, 64);
        assert_eq!(d.tiers, 3);
        assert_eq!(d.leaf_switches, 256);
        assert_eq!(d.spine_switches, 256);
        assert!(d.core_switches >= 128);
        assert_eq!(d.endpoint_links, 8192);
        // leaf-agg + agg-core links
        assert_eq!(d.inter_switch_links, 256 * 32 + 256 * 32);
    }

    #[test]
    fn three_tier_full_scale() {
        // The full k=64 fat-tree: 65536 endpoints, 64 pods, 5*64^2/4 = 5120 switches.
        let d = ClosDimensions::size(65536, 64);
        assert_eq!(d.tiers, 3);
        assert_eq!(d.leaf_switches, 2048);
        assert_eq!(d.spine_switches, 2048);
        assert_eq!(d.core_switches, 1024);
        assert_eq!(d.total_switches(), 5120);
    }

    #[test]
    #[should_panic(expected = "exceed the 3-tier maximum")]
    fn oversubscribed_request_panics() {
        let _ = ClosDimensions::size(70000, 64);
    }

    #[test]
    fn rail_clos_multiplies_per_rail_counts() {
        // 8192 GPUs in DGX H200 nodes: 8 rails of 1024 endpoints each.
        let d = RailClosDimensions::size(8, 1024, 64);
        assert_eq!(d.per_rail.tiers, 2);
        assert_eq!(d.total_switches(), 8 * 48);
        assert_eq!(d.switch_side_transceivers(), 8 * (1024 + 2048));
    }

    #[test]
    fn monotone_in_endpoints() {
        let mut prev = 0;
        for n in [64u64, 128, 512, 1024, 2048, 4096, 8192, 16384] {
            let d = ClosDimensions::size(n, 64);
            assert!(d.total_switches() >= prev, "switch count must not decrease");
            prev = d.total_switches();
        }
    }
}
