//! Old-vs-new OCS equivalence: the port-indexed matching engine must answer every
//! query exactly like the `BTreeMap<Circuit, SimTime>` implementation it replaced.
//!
//! [`RefOcs`] is a line-for-line reimplementation of the pre-refactor switch (circuit
//! set in a sorted map, installs scanning every installed circuit). The property
//! drives both switches through identical random sequences of `install` /
//! `tear_down` / `conflicting_circuits` / `tear_down_gpu` / `clear` operations and
//! asserts identical install results (including radix errors), teardown and conflict
//! counts, counters, connectivity answers, ready times, and — critically for
//! byte-identical serialized output — `circuits()` iteration order.
//!
//! The switch under test is one rail's OCS of a multi-rail fabric, whose tables hold
//! only that rail's ports. The operations name the rail's GPUs only, and each drawn
//! configuration reaches the switch resolved against the fabric's geometry, as the
//! simulator resolves its plans.

use proptest::prelude::*;
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{
    Circuit, CircuitConfig, DenseCircuit, GpuId, Ocs, OcsError, PortGeometry, PortId, RailId,
};
use std::collections::{BTreeMap, BTreeSet};

/// The reference model: the original `BTreeMap`-backed OCS, counters and all.
struct RefOcs {
    radix: usize,
    reconfig_delay: SimDuration,
    circuits: BTreeMap<Circuit, SimTime>,
    reconfig_count: u64,
    circuits_torn_down: u64,
    circuits_set_up: u64,
}

impl RefOcs {
    fn new(radix: usize, reconfig_delay: SimDuration) -> Self {
        RefOcs {
            radix,
            reconfig_delay,
            circuits: BTreeMap::new(),
            reconfig_count: 0,
            circuits_torn_down: 0,
            circuits_set_up: 0,
        }
    }

    fn install(&mut self, config: &CircuitConfig, now: SimTime) -> Result<SimTime, OcsError> {
        let new_circuits: Vec<Circuit> = config
            .circuits()
            .iter()
            .filter(|c| !self.circuits.contains_key(c))
            .copied()
            .collect();
        if new_circuits.is_empty() {
            let ready = config
                .circuits()
                .iter()
                .filter_map(|c| self.circuits.get(c).copied())
                .max()
                .unwrap_or(now);
            return Ok(ready.max(now));
        }
        let requested_ports: BTreeSet<PortId> =
            new_circuits.iter().flat_map(|c| [c.a(), c.b()]).collect();
        let uses_any =
            |c: &Circuit| requested_ports.contains(&c.a()) || requested_ports.contains(&c.b());
        let surviving = self.circuits.keys().filter(|c| !uses_any(c)).count();
        let resulting_ports = surviving * 2 + requested_ports.len();
        if resulting_ports > self.radix {
            return Err(OcsError::RadixExceeded {
                required: resulting_ports,
                radix: self.radix,
            });
        }
        let to_remove: Vec<Circuit> = self
            .circuits
            .keys()
            .filter(|c| uses_any(c))
            .copied()
            .collect();
        for c in &to_remove {
            self.circuits.remove(c);
            self.circuits_torn_down += 1;
        }
        let ready_at = now + self.reconfig_delay;
        for c in &new_circuits {
            self.circuits.insert(*c, ready_at);
            self.circuits_set_up += 1;
        }
        self.reconfig_count += 1;
        let ready = config
            .circuits()
            .iter()
            .filter_map(|c| self.circuits.get(c).copied())
            .max()
            .unwrap_or(ready_at);
        Ok(ready.max(now))
    }

    fn tear_down_gpu(&mut self, gpu: GpuId) -> usize {
        let to_remove: Vec<Circuit> = self
            .circuits
            .keys()
            .filter(|c| c.touches_gpu(gpu))
            .copied()
            .collect();
        let n = to_remove.len();
        for c in to_remove {
            self.circuits.remove(&c);
            self.circuits_torn_down += 1;
        }
        if n > 0 {
            self.reconfig_count += 1;
        }
        n
    }

    fn tear_down(&mut self, config: &CircuitConfig) -> usize {
        let mut n = 0;
        for c in config.circuits() {
            if self.circuits.remove(c).is_some() {
                self.circuits_torn_down += 1;
                n += 1;
            }
        }
        if n > 0 {
            self.reconfig_count += 1;
        }
        n
    }

    fn conflicting_circuits(&self, config: &CircuitConfig) -> usize {
        let new_ports: BTreeSet<PortId> = config
            .circuits()
            .iter()
            .filter(|c| !self.circuits.contains_key(c))
            .flat_map(|c| [c.a(), c.b()])
            .collect();
        self.circuits
            .keys()
            .filter(|c| new_ports.contains(&c.a()) || new_ports.contains(&c.b()))
            .count()
    }

    fn clear(&mut self) {
        if !self.circuits.is_empty() {
            self.circuits_torn_down += self.circuits.len() as u64;
            self.reconfig_count += 1;
        }
        self.circuits.clear();
    }

    fn gpus_connected(&self, x: GpuId, y: GpuId, now: SimTime) -> bool {
        self.circuits
            .iter()
            .any(|(c, &ready)| c.connects_gpus(x, y) && ready <= now)
    }

    fn gpu_ready_time(&self, x: GpuId, y: GpuId) -> Option<SimTime> {
        self.circuits
            .iter()
            .filter(|(c, _)| c.connects_gpus(x, y))
            .map(|(_, &ready)| ready)
            .min()
    }

    fn circuits_between_gpus(&self, x: GpuId, y: GpuId, now: SimTime) -> usize {
        self.circuits
            .iter()
            .filter(|(c, &ready)| c.connects_gpus(x, y) && ready <= now)
            .count()
    }

    fn already_installed(&self, config: &CircuitConfig) -> bool {
        config
            .circuits()
            .iter()
            .all(|c| self.circuits.contains_key(c))
    }
}

const NUM_NODES: u32 = 10;
const NUM_RAILS: u32 = 4;
const PORTS_PER_GPU: u8 = 2;
/// The rail whose OCS the property drives.
const RAIL: u32 = 1;

/// The GPU of `RAIL` on `node`.
fn gpu(node: u32) -> GpuId {
    GpuId(node * NUM_RAILS + RAIL)
}

/// One random operation applied to both switches, as raw sampled data (the vendored
/// proptest has no `prop_map`): `kind` 0–5 installs the matching built from `pairs`
/// of `(node, port)` endpoints at `dt_ms` past the previous operation, 6 tears that
/// matching's installed circuits down, 7 does the same for the last matching
/// installed (whose circuits later installs may have displaced since), 8 counts the installed circuits installing it
/// would displace, 9–10 tear down the GPU of `node`, 11 clears.
type RawOp = (u8, Vec<(u32, u8, u32, u8)>, u64, u32);

fn op_strategy() -> impl Strategy<Value = RawOp> {
    (
        0u8..12,
        proptest::collection::vec(
            (
                0..NUM_NODES,
                0..PORTS_PER_GPU,
                0..NUM_NODES,
                0..PORTS_PER_GPU,
            ),
            1..6,
        ),
        0u64..40,
        0..NUM_NODES,
    )
}

/// Builds a valid matching out of random endpoint pairs (self-loops and reused ports
/// dropped), mirroring what the circuit planner guarantees.
fn build_config(pairs: &[(u32, u8, u32, u8)]) -> Option<CircuitConfig> {
    let mut used = BTreeSet::new();
    let mut circuits = Vec::new();
    for &(na, pa, nb, pb) in pairs {
        let a = PortId::new(gpu(na), pa);
        let b = PortId::new(gpu(nb), pb);
        if a == b || used.contains(&a) || used.contains(&b) {
            continue;
        }
        used.insert(a);
        used.insert(b);
        circuits.push(Circuit::new(a, b));
    }
    if circuits.is_empty() {
        None
    } else {
        Some(CircuitConfig::new(circuits).expect("deduplicated ports form a valid matching"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The dense engine and the reference model agree on every observable after every
    // operation of a random sequence, for radices small enough to trigger
    // `RadixExceeded`.
    #[test]
    fn port_indexed_ocs_matches_btreemap_reference(
        ops in proptest::collection::vec(op_strategy(), 1..25),
        radix in 4usize..24,
        delay_ms in 0u64..50,
    ) {
        let delay = SimDuration::from_millis(delay_ms);
        let geometry = PortGeometry::new(NUM_RAILS, NUM_NODES, PORTS_PER_GPU);
        let mut ocs = Ocs::with_geometry(radix, delay, RailId(RAIL), geometry);
        let mut reference = RefOcs::new(radix, delay);
        let mut now = SimTime::ZERO;
        let mut last_installed: Option<CircuitConfig> = None;
        let resolved = |config: &CircuitConfig| -> Vec<DenseCircuit> {
            config.circuits().iter().map(|&c| geometry.resolve(RailId(RAIL), c)).collect()
        };

        for (kind, pairs, dt_ms, node) in &ops {
            match kind {
                0..=5 => {
                    now += SimDuration::from_millis(*dt_ms);
                    let Some(config) = build_config(pairs) else { continue };
                    let plan = resolved(&config);
                    prop_assert_eq!(
                        ocs.already_installed(&plan),
                        reference.already_installed(&config)
                    );
                    prop_assert_eq!(
                        ocs.conflicting_circuits(&plan),
                        reference.conflicting_circuits(&config)
                    );
                    let got = ocs.install(&plan, now);
                    let want = reference.install(&config, now);
                    prop_assert_eq!(&got, &want, "install result diverged at {}", now);
                    if let Ok(ready) = got {
                        // The pure read half must agree with the no-op re-install.
                        let slowest = config.circuits().iter().try_fold(SimTime::ZERO, |t, c| {
                            Some(t.max(ocs.ready_time(c.a(), c.b())?))
                        });
                        prop_assert_eq!(slowest.map(|t| t.max(now)), Some(ready));
                        last_installed = Some(config);
                    }
                }
                6..=7 => {
                    let drawn = match kind {
                        6 => build_config(pairs),
                        _ => last_installed.clone(),
                    };
                    let Some(config) = drawn else { continue };
                    prop_assert_eq!(
                        ocs.tear_down(&resolved(&config)),
                        reference.tear_down(&config)
                    );
                }
                8 => {
                    let Some(config) = build_config(pairs) else { continue };
                    prop_assert_eq!(
                        ocs.conflicting_circuits(&resolved(&config)),
                        reference.conflicting_circuits(&config)
                    );
                }
                9..=10 => {
                    prop_assert_eq!(
                        ocs.tear_down_gpu(gpu(*node)),
                        reference.tear_down_gpu(gpu(*node))
                    );
                }
                _ => {
                    ocs.clear();
                    reference.clear();
                }
            }

            // Counters.
            prop_assert_eq!(ocs.num_circuits(), reference.circuits.len());
            prop_assert_eq!(ocs.ports_in_use(), reference.circuits.len() * 2);
            prop_assert_eq!(ocs.reconfig_count(), reference.reconfig_count);
            prop_assert_eq!(ocs.circuits_torn_down(), reference.circuits_torn_down);
            prop_assert_eq!(ocs.circuits_set_up(), reference.circuits_set_up);

            // Iteration order: the dense port scan must reproduce the BTreeMap's
            // sorted circuit order exactly (serialized output depends on it).
            let dense: Vec<(Circuit, SimTime)> = ocs.circuits().collect();
            let sorted: Vec<(Circuit, SimTime)> =
                reference.circuits.iter().map(|(c, t)| (*c, *t)).collect();
            prop_assert_eq!(dense, sorted);

            // Connectivity answers over every GPU pair, at a probe time that splits
            // settling from settled circuits.
            let probe = now + SimDuration::from_millis(1);
            for x in 0..NUM_NODES {
                for y in 0..NUM_NODES {
                    let (x, y) = (gpu(x), gpu(y));
                    prop_assert_eq!(
                        ocs.gpus_connected(x, y, probe),
                        reference.gpus_connected(x, y, probe)
                    );
                    prop_assert_eq!(ocs.gpu_ready_time(x, y), reference.gpu_ready_time(x, y));
                    prop_assert_eq!(
                        ocs.circuits_between_gpus(x, y, probe),
                        reference.circuits_between_gpus(x, y, probe)
                    );
                }
            }
            // Per-circuit ready times.
            for (c, &ready) in reference.circuits.iter() {
                prop_assert_eq!(ocs.ready_time(c.a(), c.b()), Some(ready));
                prop_assert_eq!(ocs.is_connected(c.a(), c.b(), ready), true);
            }
        }
    }
}
