//! The optical circuit switch (OCS) model.
//!
//! An OCS provides one-to-one circuits between its ports: at any instant its state is a
//! partial matching over the attached ports. Changing that matching (tearing circuits
//! down and setting new ones up) takes a technology-dependent reconfiguration delay —
//! from tens of microseconds for PLZT devices to tens of milliseconds for 3D MEMS and
//! piezo switches (Table 3 of the paper). During the delay the *affected* circuits
//! carry no traffic; untouched circuits keep running, which is the fine-grained,
//! per-communication-group reconfiguration granularity §5 of the paper calls for.

use crate::fabric::{DenseCircuit, PortGeometry, RailPort};
use crate::ids::{GpuId, PortId, RailId};
use railsim_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// An undirected circuit between two OCS ports.
///
/// The two endpoints are stored in sorted order, so `Circuit::new(a, b)` and
/// `Circuit::new(b, a)` compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Circuit {
    lo: PortId,
    hi: PortId,
}

impl Circuit {
    /// Creates a circuit between two distinct ports.
    ///
    /// # Panics
    /// Panics if both endpoints are the same port.
    pub fn new(a: PortId, b: PortId) -> Self {
        assert!(a != b, "a circuit cannot loop a port back to itself ({a})");
        if a <= b {
            Circuit { lo: a, hi: b }
        } else {
            Circuit { lo: b, hi: a }
        }
    }

    /// The lexicographically smaller endpoint.
    pub fn a(&self) -> PortId {
        self.lo
    }

    /// The lexicographically larger endpoint.
    pub fn b(&self) -> PortId {
        self.hi
    }

    /// True when either endpoint belongs to `gpu`.
    pub fn touches_gpu(&self, gpu: GpuId) -> bool {
        self.lo.gpu == gpu || self.hi.gpu == gpu
    }

    /// True when this circuit connects the two given GPUs (in either direction).
    pub fn connects_gpus(&self, x: GpuId, y: GpuId) -> bool {
        (self.lo.gpu == x && self.hi.gpu == y) || (self.lo.gpu == y && self.hi.gpu == x)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<->{}", self.lo, self.hi)
    }
}

/// A set of circuits forming a valid partial matching (no port used twice).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitConfig {
    circuits: Vec<Circuit>,
}

impl CircuitConfig {
    /// An empty configuration (all circuits torn down).
    pub fn empty() -> Self {
        CircuitConfig::default()
    }

    /// Builds a configuration, validating that no port appears twice.
    pub fn new(circuits: Vec<Circuit>) -> Result<Self, OcsError> {
        let mut seen = BTreeSet::new();
        for c in &circuits {
            for p in [c.a(), c.b()] {
                if !seen.insert(p) {
                    return Err(OcsError::PortConflict { port: p });
                }
            }
        }
        Ok(CircuitConfig { circuits })
    }

    /// The circuits in this configuration.
    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// Number of circuits.
    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// True when the configuration contains no circuits.
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// Every port used by this configuration, each exactly once ([`CircuitConfig::new`]
    /// rejects a repeated port), in circuit order.
    pub fn ports(&self) -> impl Iterator<Item = PortId> + '_ {
        self.circuits.iter().flat_map(|c| [c.a(), c.b()])
    }

    /// True when the configuration contains a circuit between the two GPUs.
    pub fn connects_gpus(&self, x: GpuId, y: GpuId) -> bool {
        self.circuits.iter().any(|c| c.connects_gpus(x, y))
    }
}

/// Errors from OCS operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OcsError {
    /// Installing the requested circuits would exceed the switch radix.
    RadixExceeded {
        /// Number of ports the resulting matching would need.
        required: usize,
        /// Number of ports the switch has.
        radix: usize,
    },
    /// A port appears in more than one requested circuit.
    PortConflict {
        /// The conflicting port.
        port: PortId,
    },
}

impl fmt::Display for OcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OcsError::RadixExceeded { required, radix } => {
                write!(
                    f,
                    "circuit matching needs {required} ports but the OCS radix is {radix}"
                )
            }
            OcsError::PortConflict { port } => {
                write!(f, "port {port} appears in more than one circuit")
            }
        }
    }
}

impl std::error::Error for OcsError {}

/// Sentinel in [`Ocs::peer`]: the port is not part of any circuit.
const NO_PEER: u32 = u32::MAX;

/// The net effect of an [`Ocs`]'s installs over one span of time, measured by
/// [`Ocs::take_effect`] and applied again, shifted, by [`Ocs::apply_effect`]: every
/// matching slot whose ready time an install set, with the ready time it held when
/// the span ended, and how far the switch's lifetime counters moved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OcsEffect {
    /// `(slot, ready time)` of every slot an install set, ascending by slot.
    ready: Vec<(u32, SimTime)>,
    reconfigs: u64,
    torn_down: u64,
    set_up: u64,
}

/// An optical circuit switch: a bounded-radix partial matching of ports, each circuit
/// annotated with the simulated time at which it becomes usable.
///
/// The matching is stored *port-indexed*: flat `Vec`s over the switch's own rail's
/// ports, indexed by a port's slot in its rail's table ([`RailPort::index`]: node-major,
/// logical-port-minor), holding each port's matched peer and the circuit's ready time.
/// That makes every per-port question — is this circuit installed, when is it ready,
/// which peers does this GPU reach — O(1) or O(ports per GPU), and [`Ocs::install`]
/// O(affected ports), where the previous `BTreeMap<Circuit, SimTime>` walked every
/// installed circuit of the rail. A dense scan in slot order still yields circuits in
/// exactly the sorted order the `BTreeMap` produced (a circuit's smaller endpoint is
/// unique per matching, and on one rail slot order equals `PortId` order), so
/// serialized output is unchanged.
///
/// Each switch carries one rail of a fabric's [`PortGeometry`], and its tables hold
/// that rail's ports only. The calls that test or change the matching for a request
/// ([`Ocs::already_installed`], [`Ocs::conflicting_circuits`], [`Ocs::install`],
/// [`Ocs::tear_down`]) take the request's circuits resolved against the geometry
/// ([`DenseCircuit`]s of this rail) and index the tables directly. The GPU-level
/// queries take [`PortId`]s and [`GpuId`]s and resolve each one. Naming a circuit or a
/// port of another rail panics.
#[derive(Debug, Clone)]
pub struct Ocs {
    radix: usize,
    reconfig_delay: SimDuration,
    /// The rail the switch carries.
    rail: RailId,
    /// The port numbering the tables use.
    geometry: PortGeometry,
    /// Slot of the port matched to the port in slot `i`, or [`NO_PEER`]. Doubles as
    /// the per-GPU adjacency: a GPU's ports occupy consecutive slots.
    peer: Vec<u32>,
    /// Ready time of the circuit terminating at port `i`; meaningful only where
    /// `peer[i] != NO_PEER`. Stored on both endpoints.
    ready: Vec<SimTime>,
    num_circuits: usize,
    reconfig_count: u64,
    circuits_torn_down: u64,
    circuits_set_up: u64,
    /// Per slot: an install set its ready time since the last [`Ocs::take_effect`].
    /// Marking is one unconditional store per endpoint set up, into a table the size
    /// of `peer`, so a run that never takes an effect pays no more than that.
    set_since_take: Vec<bool>,
    /// `[reconfig_count, circuits_torn_down, circuits_set_up]` at the last
    /// [`Ocs::take_effect`].
    counted_at_take: [u64; 3],
    /// Install-time scratch: sorted dense indices of the requested new ports. Kept on
    /// the switch so the hot path never allocates.
    scratch: Vec<u32>,
}

impl Ocs {
    /// Creates the OCS of `rail` in a fabric numbered by `geometry`, its dense port
    /// tables sized to that rail's ports
    /// ([`ports_per_rail`](PortGeometry::ports_per_rail) entries each).
    ///
    /// # Panics
    /// Panics if `radix` is zero or `rail` is not one of the geometry's rails.
    pub fn with_geometry(
        radix: usize,
        reconfig_delay: SimDuration,
        rail: RailId,
        geometry: PortGeometry,
    ) -> Self {
        assert!(radix > 0, "an OCS must have at least one port");
        assert!(
            rail.index() < geometry.num_rails(),
            "{rail} is not one of the fabric's {} rails",
            geometry.num_rails()
        );
        let slots = geometry.ports_per_rail();
        Ocs {
            radix,
            reconfig_delay,
            rail,
            geometry,
            peer: vec![NO_PEER; slots],
            ready: vec![SimTime::ZERO; slots],
            num_circuits: 0,
            reconfig_count: 0,
            circuits_torn_down: 0,
            circuits_set_up: 0,
            set_since_take: vec![false; slots],
            counted_at_take: [0; 3],
            scratch: Vec::new(),
        }
    }

    /// The slot of `port` in this switch's tables: its [`RailPort::index`].
    ///
    /// # Panics
    /// Panics, in every build, when the port's logical index exceeds the switch
    /// geometry (a release-mode overflow would silently alias the port onto the next
    /// GPU's slots) or when the port is not on this switch's rail.
    fn dense(&self, port: PortId) -> usize {
        let ppg = self.geometry.ports_per_gpu();
        assert!(
            port.port < ppg,
            "{port} out of range for an OCS of {ppg} ports/GPU"
        );
        let RailPort { rail, index } = self.geometry.rail_port(port);
        assert!(
            rail == self.rail.0,
            "{port} is on rail{rail}, not on this OCS's {}",
            self.rail
        );
        index as usize
    }

    /// The slots of `circuit`'s endpoints in this switch's tables.
    ///
    /// # Panics
    /// Panics, in every build, when the circuit is on another rail.
    fn slots(&self, circuit: &DenseCircuit) -> [usize; 2] {
        assert!(
            circuit.rail == self.rail,
            "{circuit:?} is on {}, not on this OCS's {}",
            circuit.rail,
            self.rail
        );
        circuit.ends.map(|slot| slot as usize)
    }

    /// The port living at dense index `idx`.
    fn port_at(&self, idx: usize) -> PortId {
        let ppg = self.geometry.ports_per_gpu() as usize;
        let node = (idx / ppg) as u32;
        let gpu = node * self.geometry.num_rails() as u32 + self.rail.0;
        PortId::new(GpuId(gpu), (idx % ppg) as u8)
    }

    /// The dense index range of `gpu`'s ports, clamped to the tables.
    ///
    /// # Panics
    /// Panics when `gpu` is not on this switch's rail.
    fn gpu_range(&self, gpu: GpuId) -> std::ops::Range<usize> {
        let ppg = self.geometry.ports_per_gpu() as usize;
        let lo = self.dense(PortId::new(gpu, 0)).min(self.peer.len());
        let hi = (lo + ppg).min(self.peer.len());
        lo..hi
    }

    /// The switch radix (number of ports).
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// The configured reconfiguration delay.
    pub fn reconfig_delay(&self) -> SimDuration {
        self.reconfig_delay
    }

    /// Changes the reconfiguration delay (used by parameter sweeps).
    pub fn set_reconfig_delay(&mut self, delay: SimDuration) {
        self.reconfig_delay = delay;
    }

    /// Number of installed circuits (ready or still settling).
    pub fn num_circuits(&self) -> usize {
        self.num_circuits
    }

    /// Number of ports currently part of a circuit.
    pub fn ports_in_use(&self) -> usize {
        self.num_circuits * 2
    }

    /// Number of reconfiguration operations performed (install calls that changed state).
    pub fn reconfig_count(&self) -> u64 {
        self.reconfig_count
    }

    /// Total circuits torn down over the switch lifetime.
    pub fn circuits_torn_down(&self) -> u64 {
        self.circuits_torn_down
    }

    /// Total circuits set up over the switch lifetime.
    pub fn circuits_set_up(&self) -> u64 {
        self.circuits_set_up
    }

    /// Iterates over installed circuits and their ready times, in ascending
    /// [`Circuit`] order (the order the former `BTreeMap` storage produced: the dense
    /// scan visits each circuit at its smaller endpoint, and smaller endpoints are
    /// unique per matching).
    pub fn circuits(&self) -> impl Iterator<Item = (Circuit, SimTime)> + '_ {
        self.peer.iter().enumerate().filter_map(move |(i, &q)| {
            if q != NO_PEER && q as usize > i {
                Some((
                    Circuit::new(self.port_at(i), self.port_at(q as usize)),
                    self.ready[i],
                ))
            } else {
                None
            }
        })
    }

    /// True when a circuit between `a` and `b` is installed and ready at `now`.
    pub fn is_connected(&self, a: PortId, b: PortId, now: SimTime) -> bool {
        self.ready_time(a, b).is_some_and(|ready| ready <= now)
    }

    /// The ready time of the circuit between `a` and `b`, if installed.
    pub fn ready_time(&self, a: PortId, b: PortId) -> Option<SimTime> {
        self.dense_ready_time([self.dense(a) as u32, self.dense(b) as u32])
    }

    /// The ready time of the circuit between the ports in slots `ends` (their
    /// [`RailPort::index`]), if installed: [`Ocs::ready_time`] for a caller that
    /// resolved its ports once.
    #[inline]
    pub(crate) fn dense_ready_time(&self, [a, b]: [u32; 2]) -> Option<SimTime> {
        (self.peer.get(a as usize) == Some(&b)).then(|| self.ready[a as usize])
    }

    /// True when any circuit between a port of `x` and a port of `y` is ready at `now`.
    pub fn gpus_connected(&self, x: GpuId, y: GpuId, now: SimTime) -> bool {
        self.gpu_range(x).any(|i| {
            let q = self.peer[i];
            q != NO_PEER && self.port_at(q as usize).gpu == y && self.ready[i] <= now
        })
    }

    /// Earliest ready time over circuits connecting GPUs `x` and `y`, if any circuit
    /// between them is installed (possibly still settling).
    pub fn gpu_ready_time(&self, x: GpuId, y: GpuId) -> Option<SimTime> {
        self.gpu_range(x)
            .filter(|&i| {
                let q = self.peer[i];
                q != NO_PEER && self.port_at(q as usize).gpu == y
            })
            .map(|i| self.ready[i])
            .min()
    }

    /// Number of ready circuits between GPUs `x` and `y` at `now` (used to compute the
    /// aggregate bandwidth of a multi-port connection).
    pub fn circuits_between_gpus(&self, x: GpuId, y: GpuId, now: SimTime) -> usize {
        self.gpu_range(x)
            .filter(|&i| {
                let q = self.peer[i];
                // A circuit looping both its endpoints onto one GPU shows up at both
                // of that GPU's ports; count it at the smaller one only.
                q != NO_PEER
                    && self.port_at(q as usize).gpu == y
                    && self.ready[i] <= now
                    && (x != y || q as usize > i)
            })
            .count()
    }

    /// True when installing `circuits` would change nothing (every one of them is
    /// already installed).
    pub fn already_installed(&self, circuits: &[DenseCircuit]) -> bool {
        circuits.iter().all(|c| {
            let [a, b] = self.slots(c);
            self.peer[a] == b as u32
        })
    }

    /// Number of installed circuits an [`Ocs::install`] of `circuits` would tear down:
    /// circuits holding a requested port that are not themselves part of the request.
    /// The read half of the install's teardown pass — tenant-aware controllers use it
    /// to account evictions (who displaced whose circuits) before committing the
    /// install that performs them.
    pub fn conflicting_circuits(&self, circuits: &[DenseCircuit]) -> usize {
        let mut displaced = 0usize;
        for c in circuits {
            let [a, b] = self.slots(c);
            if self.peer[a] == b as u32 {
                continue; // already installed: nothing to displace
            }
            for p in [a, b] {
                let q = self.peer[p];
                if q != NO_PEER {
                    // Count a displaced circuit once even when the request claims
                    // both of its endpoints (at the smaller endpoint).
                    let other_requested = circuits.iter().any(|d| d.ends.contains(&q));
                    if !other_requested || q as usize > p {
                        displaced += 1;
                    }
                }
            }
        }
        displaced
    }

    /// Installs `circuits`, a matching on this switch's rail, tearing down any
    /// existing circuits that conflict with the requested ports.
    ///
    /// * Circuits already installed are left untouched (their ready time is preserved),
    ///   so re-installing the current configuration is free.
    /// * Newly created circuits become ready at `now + reconfig_delay`.
    /// * Returns the time at which *all* requested circuits are ready.
    ///
    /// # Errors
    /// Returns [`OcsError::RadixExceeded`] if the resulting matching would need more
    /// ports than the switch has; the switch state is left unchanged in that case.
    ///
    /// # Panics
    /// Panics when a circuit is on another rail.
    pub fn install(
        &mut self,
        circuits: &[DenseCircuit],
        now: SimTime,
    ) -> Result<SimTime, OcsError> {
        // Collect the ports of the requested circuits that are *new* (not installed).
        // A requested circuit that is already installed cannot share a port with a new
        // one (`circuits` is a valid matching), so this classification stays stable
        // through the teardown pass.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for c in circuits {
            let [a, b] = self.slots(c);
            if self.peer[a] != b as u32 {
                scratch.push(a as u32);
                scratch.push(b as u32);
            }
        }

        if scratch.is_empty() {
            // Nothing changes; ready when the slowest requested circuit is ready.
            self.scratch = scratch;
            let ready = circuits
                .iter()
                .map(|c| self.ready[c.ends[0] as usize])
                .max()
                .unwrap_or(now);
            return Ok(ready.max(now));
        }
        scratch.sort_unstable();

        // Validate the radix bound of the resulting matching before mutating: the
        // requested ports displace every installed circuit they touch, counted once
        // even when both of a circuit's endpoints are requested.
        let mut displaced = 0usize;
        for &p in &scratch {
            let q = self.peer[p as usize];
            if q != NO_PEER && (scratch.binary_search(&q).is_err() || q > p) {
                displaced += 1;
            }
        }
        let resulting_ports = (self.num_circuits - displaced) * 2 + scratch.len();
        if resulting_ports > self.radix {
            self.scratch = scratch;
            return Err(OcsError::RadixExceeded {
                required: resulting_ports,
                radix: self.radix,
            });
        }

        // Tear down conflicting circuits (clearing both endpoints counts each once).
        for &p in &scratch {
            let q = self.peer[p as usize];
            if q != NO_PEER {
                self.peer[p as usize] = NO_PEER;
                self.peer[q as usize] = NO_PEER;
                self.circuits_torn_down += 1;
                self.num_circuits -= 1;
            }
        }

        // Set up the new circuits (the already-installed ones keep their ready time).
        let ready_at = now + self.reconfig_delay;
        for c in circuits {
            let [a, b] = c.ends.map(|slot| slot as usize);
            if self.peer[a] == b as u32 {
                continue;
            }
            self.peer[a] = b as u32;
            self.peer[b] = a as u32;
            self.ready[a] = ready_at;
            self.ready[b] = ready_at;
            self.set_since_take[a] = true;
            self.set_since_take[b] = true;
            self.circuits_set_up += 1;
            self.num_circuits += 1;
        }
        self.reconfig_count += 1;
        self.scratch = scratch;

        // All requested circuits (old and new) must be ready.
        let ready = circuits
            .iter()
            .map(|c| self.ready[c.ends[0] as usize])
            .max()
            .unwrap_or(ready_at);
        Ok(ready.max(now))
    }

    /// The net effect of the installs since the previous call (or since the switch was
    /// built), and the start of the next span: every slot an install set up, with the
    /// ready time it holds now, and how far the lifetime counters moved.
    ///
    /// Scans the switch's slots once.
    pub fn take_effect(&mut self) -> OcsEffect {
        let ready = self
            .set_since_take
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, set)| std::mem::take(set).then(|| (slot as u32, self.ready[slot])))
            .collect();
        let counters = [
            self.reconfig_count,
            self.circuits_torn_down,
            self.circuits_set_up,
        ];
        let [reconfigs, torn_down, set_up] =
            std::array::from_fn(|i| counters[i] - self.counted_at_take[i]);
        self.counted_at_take = counters;
        OcsEffect {
            ready,
            reconfigs,
            torn_down,
            set_up,
        }
    }

    /// Applies `effect` again, `shift` later: writes each of its slots' ready time
    /// plus `shift` (marking the slot for the next [`Ocs::take_effect`]) and
    /// advances the lifetime counters by its deltas. The matching is left as it is.
    ///
    /// That is exactly what re-performing the effect's installs `shift` later would
    /// leave, provided the switch now holds the matching the effect's span started
    /// and ended on, has the delay the span ran under, and the span changed the
    /// switch only through installs. An install's writes depend only on the matching,
    /// the requested circuits, the install time and the delay, so the same installs
    /// from the same matching set up the same slots, each last to its old ready time
    /// plus `shift`, write no other slot, end on the same matching and count the
    /// same. Slots whose circuit the span tore down again are written too, so even
    /// the ready entries no read can reach match.
    ///
    /// # Panics
    /// Panics when a slot lies outside the switch's tables (the effect was taken from
    /// a larger switch).
    pub fn apply_effect(&mut self, effect: &OcsEffect, shift: SimDuration) {
        for &(slot, ready) in &effect.ready {
            self.ready[slot as usize] = ready + shift;
            self.set_since_take[slot as usize] = true;
        }
        self.reconfig_count += effect.reconfigs;
        self.circuits_torn_down += effect.torn_down;
        self.circuits_set_up += effect.set_up;
    }

    /// Tears down every circuit touching any port of `gpu`. Returns how many were removed.
    pub fn tear_down_gpu(&mut self, gpu: GpuId) -> usize {
        let mut n = 0;
        for i in self.gpu_range(gpu) {
            let q = self.peer[i];
            if q != NO_PEER {
                self.peer[i] = NO_PEER;
                self.peer[q as usize] = NO_PEER;
                self.circuits_torn_down += 1;
                self.num_circuits -= 1;
                n += 1;
            }
        }
        if n > 0 {
            self.reconfig_count += 1;
        }
        n
    }

    /// Tears down exactly those of `circuits` that are currently installed (requested
    /// circuits that are absent — or whose ports were re-matched to other peers in the
    /// meantime — are skipped). Returns how many were removed.
    ///
    /// This is the surgical inverse of [`Ocs::install`] for plan swaps: withdrawing a
    /// group's old plan must not disturb circuits other groups still hold on the same
    /// switch, which [`Ocs::clear`] would.
    ///
    /// # Panics
    /// Panics when a circuit is on another rail.
    pub fn tear_down(&mut self, circuits: &[DenseCircuit]) -> usize {
        let mut n = 0;
        for c in circuits {
            let [a, b] = self.slots(c);
            if self.peer[a] == b as u32 {
                self.peer[a] = NO_PEER;
                self.peer[b] = NO_PEER;
                self.circuits_torn_down += 1;
                self.num_circuits -= 1;
                n += 1;
            }
        }
        if n > 0 {
            self.reconfig_count += 1;
        }
        n
    }

    /// Tears down every installed circuit.
    pub fn clear(&mut self) {
        if self.num_circuits > 0 {
            self.circuits_torn_down += self.num_circuits as u64;
            self.reconfig_count += 1;
        }
        self.peer.fill(NO_PEER);
        self.ready.fill(SimTime::ZERO);
        self.num_circuits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(gpu: u32, p: u8) -> PortId {
        PortId::new(GpuId(gpu), p)
    }

    #[test]
    fn circuit_is_undirected() {
        let c1 = Circuit::new(port(0, 0), port(1, 0));
        let c2 = Circuit::new(port(1, 0), port(0, 0));
        assert_eq!(c1, c2);
        assert!(c1.connects_gpus(GpuId(0), GpuId(1)));
        assert!(c1.connects_gpus(GpuId(1), GpuId(0)));
        assert!(!c1.connects_gpus(GpuId(0), GpuId(2)));
    }

    #[test]
    #[should_panic(expected = "cannot loop")]
    fn self_loop_rejected() {
        let _ = Circuit::new(port(0, 0), port(0, 0));
    }

    #[test]
    fn config_rejects_port_reuse() {
        let c1 = Circuit::new(port(0, 0), port(1, 0));
        let c2 = Circuit::new(port(0, 0), port(2, 0));
        let err = CircuitConfig::new(vec![c1, c2]).unwrap_err();
        assert_eq!(err, OcsError::PortConflict { port: port(0, 0) });
    }

    #[test]
    fn ports_yields_each_endpoint_once() {
        let cfg = CircuitConfig::new(vec![
            Circuit::new(port(3, 0), port(1, 0)),
            Circuit::new(port(0, 1), port(2, 0)),
        ])
        .unwrap();
        let mut ports: Vec<_> = cfg.ports().collect();
        ports.sort();
        assert_eq!(ports, vec![port(0, 1), port(1, 0), port(2, 0), port(3, 0)]);
        assert_eq!(CircuitConfig::empty().ports().count(), 0);
    }

    /// The only rail of 8 one-GPU nodes with two ports per GPU: GPU `g` is node `g`,
    /// so the switch carries every GPU the tests name.
    fn geometry() -> PortGeometry {
        PortGeometry::new(1, 8, 2)
    }

    fn switch(radix: usize, delay: SimDuration) -> Ocs {
        Ocs::with_geometry(radix, delay, RailId(0), geometry())
    }

    /// `circuits`, validated as a matching and resolved for [`switch`] as the
    /// simulator resolves a plan.
    fn plan(circuits: Vec<Circuit>) -> Result<Vec<DenseCircuit>, OcsError> {
        let config = CircuitConfig::new(circuits)?;
        Ok(config
            .circuits()
            .iter()
            .map(|&c| geometry().resolve(RailId(0), c))
            .collect())
    }

    #[test]
    fn install_sets_ready_after_delay() {
        let mut ocs = switch(16, SimDuration::from_millis(15));
        let cfg = plan(vec![Circuit::new(port(0, 0), port(1, 0))]).unwrap();
        let now = SimTime::from_millis(100);
        let ready = ocs.install(&cfg, now).unwrap();
        assert_eq!(ready, SimTime::from_millis(115));
        assert!(!ocs.gpus_connected(GpuId(0), GpuId(1), now));
        assert!(ocs.gpus_connected(GpuId(0), GpuId(1), ready));
        assert_eq!(ocs.reconfig_count(), 1);
    }

    #[test]
    fn reinstalling_same_config_is_free() {
        let mut ocs = switch(16, SimDuration::from_millis(15));
        let cfg = plan(vec![Circuit::new(port(0, 0), port(1, 0))]).unwrap();
        let t0 = SimTime::from_millis(0);
        let ready = ocs.install(&cfg, t0).unwrap();
        // Later, reinstalling the same circuits changes nothing and is ready immediately.
        let later = SimTime::from_millis(100);
        let ready2 = ocs.install(&cfg, later).unwrap();
        assert_eq!(ready2, later);
        assert!(ready < later);
        assert_eq!(ocs.reconfig_count(), 1);
        assert!(ocs.already_installed(&cfg));
    }

    #[test]
    fn conflicting_circuit_tears_down_old_one() {
        let mut ocs = switch(16, SimDuration::from_millis(10));
        let ring_dp = plan(vec![Circuit::new(port(0, 0), port(1, 0))]).unwrap();
        let ring_pp = plan(vec![Circuit::new(port(0, 0), port(2, 0))]).unwrap();
        ocs.install(&ring_dp, SimTime::ZERO).unwrap();
        let ready = ocs.install(&ring_pp, SimTime::from_millis(50)).unwrap();
        assert_eq!(ready, SimTime::from_millis(60));
        assert_eq!(ocs.num_circuits(), 1);
        assert!(!ocs.gpus_connected(GpuId(0), GpuId(1), SimTime::from_millis(200)));
        assert!(ocs.gpus_connected(GpuId(0), GpuId(2), SimTime::from_millis(200)));
        assert_eq!(ocs.circuits_torn_down(), 1);
        assert_eq!(ocs.circuits_set_up(), 2);
    }

    #[test]
    fn conflicting_circuits_counts_displacements_without_mutating() {
        let mut ocs = switch(16, SimDuration::ZERO);
        let installed = plan(vec![
            Circuit::new(port(0, 0), port(1, 0)),
            Circuit::new(port(2, 0), port(3, 0)),
        ])
        .unwrap();
        ocs.install(&installed, SimTime::ZERO).unwrap();
        let reconfigs = ocs.reconfig_count();
        // Claims one endpoint of each installed circuit: both get displaced.
        let takeover = plan(vec![Circuit::new(port(0, 0), port(2, 0))]).unwrap();
        assert_eq!(ocs.conflicting_circuits(&takeover), 2);
        // Claims both endpoints of one installed circuit: counted once.
        let flip = plan(vec![
            Circuit::new(port(0, 0), port(4, 0)),
            Circuit::new(port(1, 0), port(5, 0)),
        ])
        .unwrap();
        assert_eq!(ocs.conflicting_circuits(&flip), 1);
        // Re-requesting the installed matching displaces nothing.
        assert_eq!(ocs.conflicting_circuits(&installed), 0);
        // Untouched ports conflict with nothing.
        let free = plan(vec![Circuit::new(port(6, 0), port(7, 0))]).unwrap();
        assert_eq!(ocs.conflicting_circuits(&free), 0);
        assert_eq!(
            ocs.reconfig_count(),
            reconfigs,
            "a count query must not mutate"
        );
        // The install then performs exactly the counted teardowns.
        let before = ocs.circuits_torn_down();
        ocs.install(&takeover, SimTime::ZERO).unwrap();
        assert_eq!(ocs.circuits_torn_down() - before, 2);
    }

    #[test]
    fn non_conflicting_circuits_coexist() {
        let mut ocs = switch(16, SimDuration::from_millis(10));
        let a = plan(vec![Circuit::new(port(0, 0), port(1, 0))]).unwrap();
        let b = plan(vec![Circuit::new(port(2, 0), port(3, 0))]).unwrap();
        ocs.install(&a, SimTime::ZERO).unwrap();
        ocs.install(&b, SimTime::ZERO).unwrap();
        assert_eq!(ocs.num_circuits(), 2);
        let t = SimTime::from_millis(20);
        assert!(ocs.gpus_connected(GpuId(0), GpuId(1), t));
        assert!(ocs.gpus_connected(GpuId(2), GpuId(3), t));
    }

    #[test]
    fn radix_bound_enforced() {
        let mut ocs = switch(4, SimDuration::ZERO);
        let cfg = plan(vec![
            Circuit::new(port(0, 0), port(1, 0)),
            Circuit::new(port(2, 0), port(3, 0)),
            Circuit::new(port(4, 0), port(5, 0)),
        ])
        .unwrap();
        let err = ocs.install(&cfg, SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            OcsError::RadixExceeded {
                required: 6,
                radix: 4
            }
        );
        assert_eq!(
            ocs.num_circuits(),
            0,
            "failed install must not mutate state"
        );
    }

    #[test]
    fn zero_delay_circuits_ready_immediately() {
        let mut ocs = switch(8, SimDuration::ZERO);
        let cfg = plan(vec![Circuit::new(port(0, 0), port(1, 0))]).unwrap();
        let now = SimTime::from_secs(1);
        let ready = ocs.install(&cfg, now).unwrap();
        assert_eq!(ready, now);
        assert!(ocs.gpus_connected(GpuId(0), GpuId(1), now));
    }

    #[test]
    fn tear_down_gpu_removes_only_its_circuits() {
        let mut ocs = switch(16, SimDuration::ZERO);
        let cfg = plan(vec![
            Circuit::new(port(0, 0), port(1, 0)),
            Circuit::new(port(2, 0), port(3, 0)),
        ])
        .unwrap();
        ocs.install(&cfg, SimTime::ZERO).unwrap();
        assert_eq!(ocs.tear_down_gpu(GpuId(0)), 1);
        assert_eq!(ocs.num_circuits(), 1);
        assert_eq!(ocs.tear_down_gpu(GpuId(7)), 0);
    }

    #[test]
    fn tear_down_removes_only_the_given_config() {
        let mut ocs = switch(16, SimDuration::ZERO);
        let mine = plan(vec![Circuit::new(port(0, 0), port(1, 0))]).unwrap();
        let theirs = plan(vec![Circuit::new(port(2, 0), port(3, 0))]).unwrap();
        ocs.install(&mine, SimTime::ZERO).unwrap();
        ocs.install(&theirs, SimTime::ZERO).unwrap();
        let reconfigs = ocs.reconfig_count();
        assert_eq!(ocs.tear_down(&mine), 1);
        assert_eq!(ocs.num_circuits(), 1, "the other group's circuit survives");
        assert!(ocs.gpus_connected(GpuId(2), GpuId(3), SimTime::ZERO));
        assert_eq!(
            ocs.reconfig_count(),
            reconfigs + 1,
            "a real teardown is a reconfiguration"
        );
        // Withdrawing an absent config is a free no-op.
        assert_eq!(ocs.tear_down(&mine), 0);
        assert_eq!(
            ocs.reconfig_count(),
            reconfigs + 1,
            "a no-op teardown is not a reconfiguration"
        );
    }

    #[test]
    fn tear_down_skips_rematched_ports() {
        // Port (0,0) was re-matched to GPU 2 after `old` was displaced: withdrawing
        // `old` must not disturb the newer circuit.
        let mut ocs = switch(16, SimDuration::ZERO);
        let old = plan(vec![Circuit::new(port(0, 0), port(1, 0))]).unwrap();
        let newer = plan(vec![Circuit::new(port(0, 0), port(2, 0))]).unwrap();
        ocs.install(&old, SimTime::ZERO).unwrap();
        ocs.install(&newer, SimTime::ZERO).unwrap();
        assert_eq!(ocs.tear_down(&old), 0);
        assert!(ocs.gpus_connected(GpuId(0), GpuId(2), SimTime::ZERO));
    }

    #[test]
    fn multi_port_gpus_support_multiple_circuits() {
        // A GPU with a 2-port NIC keeps one circuit per neighbor in a ring.
        let mut ocs = switch(32, SimDuration::from_millis(1));
        let cfg = plan(vec![
            Circuit::new(port(0, 0), port(1, 0)),
            Circuit::new(port(0, 1), port(2, 0)),
        ])
        .unwrap();
        ocs.install(&cfg, SimTime::ZERO).unwrap();
        let t = SimTime::from_millis(5);
        assert!(ocs.gpus_connected(GpuId(0), GpuId(1), t));
        assert!(ocs.gpus_connected(GpuId(0), GpuId(2), t));
        assert_eq!(ocs.circuits_between_gpus(GpuId(0), GpuId(1), t), 1);
    }

    #[test]
    fn applying_an_effect_equals_re_performing_its_installs() {
        let config = |pairs: &[(u32, u32)]| {
            let circuits = pairs
                .iter()
                .map(|&(a, b)| Circuit::new(port(a, 0), port(b, 0)))
                .collect();
            plan(circuits).unwrap()
        };
        let (ring, cross) = (config(&[(0, 1), (2, 3)]), config(&[(1, 2)]));
        let (pair, kick) = (config(&[(4, 5)]), config(&[(4, 6)]));
        // One period that ends on the matching it started from. `cross` displaces
        // both ring circuits, `kick` sets up port (6,0)'s circuit only for `pair`
        // to tear it down again, and the ring comes back. GPU 7 is never touched.
        let period = |ocs: &mut Ocs, shift: SimDuration| {
            let at = |ms| SimTime::from_millis(ms) + shift;
            for (cfg, ms) in [(&cross, 10), (&kick, 11), (&pair, 12), (&ring, 15)] {
                ocs.install(cfg, at(ms)).unwrap();
            }
        };
        let mut ocs = switch(16, SimDuration::from_millis(2));
        ocs.install(&ring, SimTime::ZERO).unwrap();
        ocs.install(&pair, SimTime::ZERO).unwrap();
        ocs.take_effect();
        period(&mut ocs, SimDuration::ZERO);
        let effect = ocs.take_effect();
        assert_eq!(
            effect
                .ready
                .iter()
                .map(|&(slot, _)| slot)
                .collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5, 6].map(|gpu| ocs.dense(port(gpu, 0)) as u32),
            "exactly the slots an install set up, torn-down port (6,0) included"
        );
        // Three more periods, each from where the previous one left its switch.
        let (mut stepped, mut applied) = (ocs.clone(), ocs.clone());
        for k in 1..=3 {
            let shift = SimDuration::from_millis(20 * k);
            period(&mut stepped, shift);
            applied.apply_effect(&effect, shift);
            assert_eq!(applied.peer, stepped.peer, "period {k}");
            assert_eq!(applied.ready, stepped.ready, "period {k}");
            assert_eq!(applied.num_circuits, stepped.num_circuits, "period {k}");
            let counters = |o: &Ocs| [o.reconfig_count, o.circuits_torn_down, o.circuits_set_up];
            assert_eq!(counters(&applied), counters(&stepped), "period {k}");
            // The marks and the counted span match too.
            assert_eq!(applied.take_effect(), stepped.take_effect(), "period {k}");
        }
    }
}
