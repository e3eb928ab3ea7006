//! Scale-out rail fabrics: electrical (packet-switched) and optical (circuit-switched).
//!
//! * The electrical rail fabric models today's rail-optimized network: every pair of
//!   same-rail GPUs is always connected through the rail packet switch at full NIC
//!   bandwidth (the paper's baseline, and the `latency = 0` point of Fig. 8). Its one
//!   parameter is the per-transfer [`ELECTRICAL_SWITCH_LATENCY`].
//! * The [`OpticalRailFabric`] replaces each rail switch with an [`Ocs`]: two GPUs can
//!   only communicate once a circuit between them has been installed and has settled.

use crate::cluster::Cluster;
use crate::ids::{PortId, RailId};
use crate::ocs::{Circuit, Ocs};
use railsim_sim::{SimDuration, SimTime};

/// One hop through an electrical rail switch (ASIC pipeline plus the
/// optical-electrical-optical conversions), on the order of a microsecond. Every
/// scale-out transfer on electrical rails pays it once; an optical circuit is an
/// end-to-end light path and pays nothing.
pub const ELECTRICAL_SWITCH_LATENCY: SimDuration = SimDuration::from_micros(1);

/// The dense numbering of a rail fabric's NIC ports: one table per rail over that
/// rail's ports ([`PortId::rail_dense_index`]). Each rail OCS's matching tables index
/// by it, and so do other per-rail port tables, such as the Opus controller's
/// occupancy.
///
/// The cluster fixes it, so a circuit plan can be resolved against it once
/// ([`PortGeometry::resolve`]), before any fabric exists, and every later use of the
/// plan — a read, an install or a teardown — indexes the tables directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortGeometry {
    num_rails: u32,
    ports_per_gpu: u8,
    ports_per_rail: u32,
}

impl PortGeometry {
    /// The geometry of `cluster`'s rail fabric.
    pub fn of(cluster: &Cluster) -> PortGeometry {
        PortGeometry::new(
            cluster.num_rails(),
            cluster.num_nodes(),
            cluster.ports_per_gpu(),
        )
    }

    /// The geometry of `num_nodes` nodes of `num_rails` GPUs each, with
    /// `ports_per_gpu` logical NIC ports per GPU.
    ///
    /// # Panics
    /// Panics if `num_rails` or `ports_per_gpu` is zero.
    pub fn new(num_rails: u32, num_nodes: u32, ports_per_gpu: u8) -> PortGeometry {
        assert!(num_rails > 0, "a fabric must have at least one rail");
        assert!(ports_per_gpu > 0, "GPUs must expose at least one port");
        PortGeometry {
            num_rails,
            ports_per_gpu,
            ports_per_rail: num_nodes * ports_per_gpu as u32,
        }
    }

    /// Number of rails, one per-rail port table each.
    pub fn num_rails(self) -> usize {
        self.num_rails as usize
    }

    /// Logical NIC ports per GPU.
    pub fn ports_per_gpu(self) -> u8 {
        self.ports_per_gpu
    }

    /// Entries in one per-rail port table: every node's ports on that rail.
    pub fn ports_per_rail(self) -> usize {
        self.ports_per_rail as usize
    }

    /// `port`'s slot in the per-rail port tables.
    pub fn rail_port(self, port: PortId) -> RailPort {
        let (rail, index) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
        RailPort {
            rail: rail as u32,
            index: index as u32,
        }
    }

    /// Resolves `circuit`, carried by `rail`'s OCS, to the dense tables.
    ///
    /// # Panics
    /// Panics, in every build, when an endpoint's logical port exceeds the geometry
    /// (it would alias the next GPU's entries), or when an endpoint is not on `rail`.
    pub fn resolve(self, rail: RailId, circuit: Circuit) -> DenseCircuit {
        let ends = [circuit.a(), circuit.b()].map(|port| {
            assert!(
                port.port < self.ports_per_gpu,
                "{port} out of range for a fabric of {} ports/GPU",
                self.ports_per_gpu
            );
            let slot = self.rail_port(port);
            assert!(
                slot.rail == rail.0,
                "{port} is on rail{}, not on {rail}, whose OCS carries {circuit}",
                slot.rail
            );
            slot.index
        });
        DenseCircuit { rail, ends }
    }
}

/// A port's slot in the per-rail port tables of a [`PortGeometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RailPort {
    /// The rail whose table holds the port.
    pub rail: u32,
    /// The port's index in that table.
    pub index: u32,
}

/// A circuit resolved against a [`PortGeometry`]: the rail whose OCS carries it and
/// its endpoints' slots in that rail's tables, which index the OCS's matching and
/// every other per-rail port table alike. Only [`PortGeometry::resolve`] makes one,
/// so both endpoints are on the circuit's rail.
///
/// A resolved plan lists its circuits rail by rail, so each rail's circuits form one
/// run of the slice, which that rail's [`Ocs`] takes as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseCircuit {
    /// The rail whose OCS carries the circuit.
    pub(crate) rail: RailId,
    /// The endpoints' indices in the rail's tables, lower endpoint first.
    pub(crate) ends: [u32; 2],
}

impl DenseCircuit {
    /// The rail whose OCS carries the circuit.
    #[inline]
    pub fn rail(&self) -> RailId {
        self.rail
    }

    /// The endpoints' slots in the per-rail port tables, lower endpoint first.
    #[inline]
    pub fn ports(&self) -> [RailPort; 2] {
        self.ends.map(|index| RailPort {
            rail: self.rail.0,
            index,
        })
    }
}

/// The photonic rail fabric: one OCS per rail, circuits installed on demand by the
/// Opus controller.
#[derive(Debug, Clone)]
pub struct OpticalRailFabric {
    ocses: Vec<Ocs>,
    geometry: PortGeometry,
}

impl OpticalRailFabric {
    /// Builds the optical fabric for `cluster` with the given per-OCS reconfiguration
    /// delay. Each rail gets one OCS whose radix is exactly the number of rail
    /// endpoints (nodes × logical ports per GPU).
    pub fn for_cluster(cluster: &Cluster, reconfig_delay: SimDuration) -> Self {
        let radix = cluster.ocs_ports_per_rail() as usize;
        let geometry = PortGeometry::of(cluster);
        let ocses = (0..cluster.num_rails())
            .map(|rail| Ocs::with_geometry(radix, reconfig_delay, RailId(rail), geometry))
            .collect();
        OpticalRailFabric { ocses, geometry }
    }

    /// Number of rails (one OCS each).
    pub fn num_rails(&self) -> usize {
        self.ocses.len()
    }

    /// Logical scale-out NIC ports per GPU.
    pub fn ports_per_gpu(&self) -> u8 {
        self.geometry.ports_per_gpu()
    }

    /// The dense port numbering of this fabric's tables.
    pub fn geometry(&self) -> PortGeometry {
        self.geometry
    }

    /// Shared access to a rail's OCS.
    #[inline]
    pub fn ocs(&self, rail: RailId) -> &Ocs {
        &self.ocses[rail.index()]
    }

    /// Mutable access to a rail's OCS (used by the Opus controller).
    #[inline]
    pub fn ocs_mut(&mut self, rail: RailId) -> &mut Ocs {
        &mut self.ocses[rail.index()]
    }

    /// The time at which every one of `circuits`, a plan resolved against this
    /// fabric's [`geometry`](OpticalRailFabric::geometry) over any number of rails, is
    /// ready, or `None` when any of them is not installed. The read half of a no-op
    /// [`Ocs::install`] on each rail: it answers "would this request be free, and
    /// when would it be ready?" without touching switch state.
    #[inline]
    pub fn installed_ready(&self, circuits: &[DenseCircuit]) -> Option<SimTime> {
        let mut ready = SimTime::ZERO;
        for c in circuits {
            ready = ready.max(self.ocses[c.rail.index()].dense_ready_time(c.ends)?);
        }
        Some(ready)
    }

    /// Lifetime circuits set up, per rail (index == rail id). Exposes per-rail
    /// reconfiguration churn to the experiment harness.
    pub fn circuits_set_up_by_rail(&self) -> Vec<u64> {
        self.ocses.iter().map(|o| o.circuits_set_up()).collect()
    }

    /// Lifetime circuits torn down, per rail (index == rail id).
    pub fn circuits_torn_down_by_rail(&self) -> Vec<u64> {
        self.ocses.iter().map(|o| o.circuits_torn_down()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GpuId, PortId};
    use crate::ocs::Circuit;
    use crate::spec::{ClusterSpec, NodePreset};

    fn cluster() -> Cluster {
        ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
    }

    /// The circuit between ports `a` and `b`, resolved onto `rail` of `f`.
    fn resolved(f: &OpticalRailFabric, rail: RailId, a: PortId, b: PortId) -> [DenseCircuit; 1] {
        [f.geometry().resolve(rail, Circuit::new(a, b))]
    }

    #[test]
    fn optical_fabric_requires_circuits() {
        let c = cluster();
        let mut f = OpticalRailFabric::for_cluster(&c, SimDuration::from_millis(15));
        let rail = RailId(0);
        let (a, b) = (GpuId(0), GpuId(8));
        assert!(!f.ocs(rail).gpus_connected(a, b, SimTime::ZERO));
        assert_eq!(f.ocs(rail).gpu_ready_time(a, b), None);

        let plan = resolved(&f, rail, PortId::new(a, 0), PortId::new(b, 0));
        let ready = f.ocs_mut(rail).install(&plan, SimTime::ZERO).unwrap();
        assert_eq!(ready, SimTime::from_millis(15));
        assert!(!f.ocs(rail).gpus_connected(a, b, SimTime::from_millis(14)));
        assert!(f.ocs(rail).gpus_connected(a, b, SimTime::from_millis(15)));
        assert_eq!(f.ocs(rail).reconfig_count(), 1);
        assert_eq!(f.circuits_set_up_by_rail(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn optical_fabric_rails_are_independent() {
        let c = cluster();
        let mut f = OpticalRailFabric::for_cluster(&c, SimDuration::ZERO);
        let plan = resolved(
            &f,
            RailId(0),
            PortId::new(GpuId(0), 0),
            PortId::new(GpuId(8), 0),
        );
        f.ocs_mut(RailId(0)).install(&plan, SimTime::ZERO).unwrap();
        // Rail 1 is untouched: GPUs 1 and 9 remain disconnected.
        let now = SimTime::from_secs(1);
        assert!(!f.ocs(RailId(1)).gpus_connected(GpuId(1), GpuId(9), now));
        assert!(f.ocs(RailId(0)).gpus_connected(GpuId(0), GpuId(8), now));
    }

    #[test]
    fn resolved_circuits_read_the_tables_their_ports_index() {
        let c = cluster(); // 4 nodes of 4 GPUs, 1 port per GPU
        let mut f = OpticalRailFabric::for_cluster(&c, SimDuration::from_millis(15));
        let geometry = f.geometry();
        assert_eq!(geometry, PortGeometry::of(&c));
        assert_eq!((geometry.num_rails(), geometry.ports_per_rail()), (4, 4));
        // GPUs 1 and 9 are local rank 1 on nodes 0 and 2.
        let circuit = Circuit::new(PortId::new(GpuId(1), 0), PortId::new(GpuId(9), 0));
        let dense = geometry.resolve(RailId(1), circuit);
        assert_eq!((dense.rail, dense.ends), (RailId(1), [0, 2]));
        assert_eq!(
            dense.ports(),
            [
                RailPort { rail: 1, index: 0 },
                RailPort { rail: 1, index: 2 }
            ]
        );
        assert_eq!(f.installed_ready(&[dense]), None);
        let ready = f
            .ocs_mut(RailId(1))
            .install(&[dense], SimTime::from_millis(5))
            .unwrap();
        assert_eq!(f.installed_ready(&[dense]), Some(ready));
        assert_eq!(f.installed_ready(&[]), Some(SimTime::ZERO));
        // The same slots on another rail's OCS are not installed there.
        let elsewhere = geometry.resolve(
            RailId(2),
            Circuit::new(PortId::new(GpuId(2), 0), PortId::new(GpuId(10), 0)),
        );
        assert_eq!(elsewhere.ends, dense.ends);
        assert_eq!(f.installed_ready(&[dense, elsewhere]), None);
    }

    #[test]
    #[should_panic(expected = "is on rail1, not on rail2")]
    fn resolving_a_circuit_onto_another_rail_panics() {
        let geometry = PortGeometry::of(&cluster());
        let _ = geometry.resolve(
            RailId(2),
            Circuit::new(PortId::new(GpuId(1), 0), PortId::new(GpuId(9), 0)),
        );
    }

    #[test]
    fn each_ocs_sizes_its_tables_to_its_rail() {
        let c = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4)
            .with_nic(crate::spec::NicConfig::slingshot11_dual())
            .build();
        let mut f = OpticalRailFabric::for_cluster(&c, SimDuration::ZERO);
        // GPU 6 is local rank 2 on node 1; its second port is slot 1 * 2 + 1 of rail 2.
        let (a, b) = (PortId::new(GpuId(2), 0), PortId::new(GpuId(6), 1));
        let [dense] = resolved(&f, RailId(2), a, b);
        f.ocs_mut(RailId(2))
            .install(&[dense], SimTime::ZERO)
            .unwrap();
        let installed: Vec<Circuit> = f.ocs(RailId(2)).circuits().map(|(c, _)| c).collect();
        assert_eq!(installed, [Circuit::new(a, b)]);
        assert_eq!(dense.ends, [0, 3]);
        assert_eq!(f.installed_ready(&[dense]), Some(SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "is on rail1, not on this OCS's rail0")]
    fn installing_a_port_of_another_rail_panics() {
        let mut f = OpticalRailFabric::for_cluster(&cluster(), SimDuration::ZERO);
        // GPUs 1 and 9 are local rank 1: the circuit resolves onto rail 1 only.
        let plan = resolved(
            &f,
            RailId(1),
            PortId::new(GpuId(1), 0),
            PortId::new(GpuId(9), 0),
        );
        let _ = f.ocs_mut(RailId(0)).install(&plan, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range for a fabric of 1 ports/GPU")]
    fn resolving_a_port_beyond_the_nic_panics() {
        let geometry = PortGeometry::of(&cluster());
        let _ = geometry.resolve(
            RailId(0),
            Circuit::new(PortId::new(GpuId(0), 1), PortId::new(GpuId(4), 0)),
        );
    }

    #[test]
    fn ocs_radix_defaults_to_rail_endpoint_count() {
        let c = cluster(); // 4 nodes, 1 port per GPU
        let f = OpticalRailFabric::for_cluster(&c, SimDuration::ZERO);
        assert_eq!(f.ocs(RailId(0)).radix(), 4);
        assert_eq!(f.num_rails(), 4);
    }
}
