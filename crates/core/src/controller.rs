//! The Opus controller.
//!
//! The controller owns the photonic rail fabric (one OCS per rail) and turns each
//! job's reconfiguration requests into circuit changes, honouring the paper's
//! objectives:
//!
//! * **Objective 1 / 2** — requests are only acted on when the demand actually changes;
//!   re-requesting the installed configuration is free.
//! * **Objective 3** — conflict avoidance: a reconfiguration that would tear down a
//!   circuit still carrying traffic is delayed until that traffic drains (the
//!   first-come-first-serve policy over the sequentially ordered demands of one job).
//!
//! The controller also keeps the per-port occupancy bookkeeping the conflict check
//! needs, and a log of [`ReconfigEvent`]s for the experiment harness.
//!
//! ## Prepared plans
//!
//! Every call takes a group's circuits *prepared*: resolved once, with
//! [`PortGeometry::resolve`](railsim_topology::PortGeometry::resolve), to the
//! [`DenseCircuit`]s that index each OCS's matching tables and the per-rail
//! occupancy tables directly, listed rail by rail in ascending rail order (see
//! [`crate::circuits`]). Every scale-out transfer reads the controller: is its
//! group's configuration installed and when is it ready
//! ([`OpusController::installed_ready_time`]), and which ports does it hold until
//! when ([`OpusController::occupy`], plus [`OpusController::ports_free`] for a
//! provisioned request); each read is one pass over the slice. The calls that change
//! the fabric — [`OpusController::request`] and [`OpusController::withdraw`] — hand
//! each rail's run of the same slice to that rail's OCS. A memoized fast-forward
//! installs nothing: it applies each rail's [`OcsEffect`] of the template iteration,
//! shifted.

use crate::config::EvictionPolicy;
use crate::metrics::ReconfigEvent;
use railsim_collectives::GroupId;
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{
    Circuit, DenseCircuit, OcsEffect, OpticalRailFabric, PortGeometry, RailId, RailPort,
};

/// Sentinel tenant id: the port's current hold was not placed by a tenant-tagged
/// transfer (or the port was never busy). Untagged holds are never evictable.
pub const NO_TENANT: u32 = u32::MAX;

/// The controller state a later request can read, taken at an iteration boundary
/// `B` and normalized to it ([`OpusController::boundary_state`]). Steady-state
/// detection compares it across consecutive boundaries.
///
/// It holds every rail's OCS matching exactly, every installed circuit's ready time
/// and every port's busy end. A time at or before its *horizon* is *dominated*:
/// every read from `B` on clamps it up to the horizon or later, so no read can tell
/// it from an earlier time. It normalizes to 0; a later time normalizes to its
/// offset past the horizon, which is at least 1.
///
/// * A port's horizon is `B − lat`, for the job's `reconfig_latency` `lat`: a
///   provisioned request is back-dated to no earlier than `now − lat`, and an
///   on-demand one starts at `now`.
/// * A ready time's horizon is `B − max(0, lat − delay)`, for the rail's current OCS
///   delay `delay`. A no-op request reads `max(ready, now)`. A partial install
///   logs `max(ready, start + delay)` as its event's `ready_at`, and its switching
///   start lies at or after `now − lat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FabricState {
    /// Per rail: every installed circuit, ascending, with its normalized ready time.
    circuits: Vec<Vec<(Circuit, u64)>>,
    /// Per rail and dense port: the normalized busy end.
    port_busy: Vec<Vec<u64>>,
}

/// `value` normalized to boundary `at` with horizon `at − lookback` (see
/// [`FabricState`]): 0 at or before the horizon, otherwise the offset past it.
fn normalized(value: SimTime, at: SimTime, lookback: SimDuration) -> u64 {
    value
        .as_nanos()
        .saturating_add(lookback.as_nanos())
        .saturating_sub(at.as_nanos())
}

/// The Opus controller: rail OCSes plus occupancy tracking and the reconfiguration log.
///
/// All per-port and per-rail bookkeeping is *dense* — `Vec`s pre-sized from the
/// fabric's [`PortGeometry`] and indexed by a port's [`RailPort`] slot / rail index.
/// The occupancy map is touched on every scale-out communication event (the
/// profiled hot path of the 10k-GPU runs), so it must not hash; it is segmented by
/// rail, one dense table per rail.
#[derive(Debug, Clone)]
pub struct OpusController {
    fabric: OpticalRailFabric,
    /// Until when each port is carrying traffic (conflict avoidance): one dense table
    /// per rail of `num_nodes * ports_per_gpu` entries, indexed by the port's
    /// [`RailPort`]. `SimTime::ZERO` means "never been busy".
    port_busy: Vec<Vec<SimTime>>,
    geometry: PortGeometry,
    events: Vec<ReconfigEvent>,
    requests: u64,
    noop_requests: u64,
    /// The tenant-contention policy. [`EvictionPolicy::Never`] (the default) keeps
    /// every code path byte-identical to the single-tenant controller; the tenancy
    /// tables below are then empty and never touched.
    eviction: EvictionPolicy,
    /// Tenant that placed each port's current busy hold, [`NO_TENANT`] when untagged.
    /// One table per rail, indexed like `port_busy`; inner vecs are empty unless
    /// [`OpusController::set_eviction`] activated tenancy.
    port_tenant: Vec<Vec<u32>>,
    /// Accumulated circuit-wait per `[rail][tenant]` — the fairness currency of
    /// [`EvictionPolicy::FairShare`]. Inner vecs empty unless tenancy is active.
    wait_by_rail: Vec<Vec<SimDuration>>,
    /// Port holds evicted *from* each tenant, per `[rail][tenant]`.
    evictions_suffered: Vec<Vec<u64>>,
    /// Port holds evicted *by* each tenant, per `[rail][tenant]`.
    evictions_inflicted: Vec<Vec<u64>>,
    /// Installed circuits displaced by evicting installs, per rail (counted through
    /// [`Ocs::conflicting_circuits`](railsim_topology::Ocs::conflicting_circuits) at
    /// the moment an eviction fires).
    circuits_evicted: Vec<u64>,
}

impl OpusController {
    /// Creates a controller owning the given photonic fabric. Dense occupancy and
    /// per-rail counters are pre-sized from the fabric's cluster geometry.
    pub fn new(fabric: OpticalRailFabric) -> Self {
        let geometry = fabric.geometry();
        let num_rails = geometry.num_rails();
        OpusController {
            fabric,
            port_busy: vec![vec![SimTime::ZERO; geometry.ports_per_rail()]; num_rails],
            geometry,
            events: Vec::new(),
            requests: 0,
            noop_requests: 0,
            eviction: EvictionPolicy::Never,
            port_tenant: vec![Vec::new(); num_rails],
            wait_by_rail: vec![Vec::new(); num_rails],
            evictions_suffered: vec![Vec::new(); num_rails],
            evictions_inflicted: vec![Vec::new(); num_rails],
            circuits_evicted: vec![0; num_rails],
        }
    }

    /// Activates tenant-aware contention arbitration: a tenant's
    /// [`OpusController::request`] may displace other tenants' port holds according
    /// to `policy`, and per-tenant wait/eviction ledgers are kept for the fairness
    /// metrics. With [`EvictionPolicy::Never`] (or when never called) the tenant
    /// argument of every request is ignored: arbitration is FC-FS over all holds.
    pub fn set_eviction(&mut self, policy: EvictionPolicy, num_tenants: u32) {
        self.eviction = policy;
        if policy.can_evict() {
            self.port_tenant = self
                .port_busy
                .iter()
                .map(|v| vec![NO_TENANT; v.len()])
                .collect();
            let tenants = num_tenants as usize;
            self.wait_by_rail = vec![vec![SimDuration::ZERO; tenants]; self.port_busy.len()];
            self.evictions_suffered = vec![vec![0; tenants]; self.port_busy.len()];
            self.evictions_inflicted = vec![vec![0; tenants]; self.port_busy.len()];
        }
    }

    /// True when tenant-aware arbitration is active (an evicting policy was set).
    pub fn tenancy_active(&self) -> bool {
        self.eviction.can_evict()
    }

    /// Port holds evicted *from* `tenant`, summed over rails.
    pub fn evictions_suffered_by(&self, tenant: u32) -> u64 {
        self.evictions_suffered
            .iter()
            .filter_map(|v| v.get(tenant as usize))
            .sum()
    }

    /// Port holds evicted *by* `tenant`, summed over rails.
    pub fn evictions_inflicted_by(&self, tenant: u32) -> u64 {
        self.evictions_inflicted
            .iter()
            .filter_map(|v| v.get(tenant as usize))
            .sum()
    }

    /// `tenant`'s accumulated circuit wait in the fairness ledger, summed over rails.
    #[cfg(test)]
    pub(crate) fn tenant_wait(&self, tenant: u32) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for rail in &self.wait_by_rail {
            if let Some(w) = rail.get(tenant as usize) {
                total += *w;
            }
        }
        total
    }

    /// Installed circuits displaced by evicting installs, per rail.
    pub fn circuits_evicted_by_rail(&self) -> &[u64] {
        &self.circuits_evicted
    }

    /// Borrow the fabric.
    pub fn fabric(&self) -> &OpticalRailFabric {
        &self.fabric
    }

    /// The reconfiguration log.
    pub fn events(&self) -> &[ReconfigEvent] {
        &self.events
    }

    /// Total requests received.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests that required no change (circuits already installed).
    pub fn noop_requests(&self) -> u64 {
        self.noop_requests
    }

    /// The time at which every circuit of a group's prepared plan (see the module
    /// docs) is ready, or `None` when any rail is missing part of the configuration.
    /// A pure O(circuits in the group) read: a `Some` answer is exactly what a no-op
    /// [`OpusController::request`] for the group would resolve to, so the simulator
    /// uses it as the request's fast path (pair it with
    /// [`OpusController::note_noop_request`]).
    pub fn installed_ready_time(&self, plan: &[DenseCircuit]) -> Option<SimTime> {
        self.fabric.installed_ready(plan)
    }

    /// Accounts for a request that [`OpusController::installed_ready_time`] resolved
    /// as a no-op (circuits installed everywhere): bumps the same counters
    /// [`OpusController::request`] would have, without re-walking the rails.
    pub fn note_noop_request(&mut self) {
        self.requests += 1;
        self.noop_requests += 1;
    }

    /// Advances the request counters by one steady iteration's worth at once. Used by
    /// the memoized-iteration replay: the counter deltas of a steady iteration were
    /// measured when the template was detected, and the replay applies them in bulk
    /// exactly as the re-stepped iteration would have one by one.
    pub fn replay_requests(&mut self, requests: u64, noops: u64) {
        self.requests += requests;
        self.noop_requests += noops;
    }

    /// Every rail's [`OcsEffect`] since the previous call, in rail order: the slots
    /// each OCS's installs set up, with their ready times now, and its counter
    /// deltas (see [`Ocs::take_effect`](railsim_topology::Ocs::take_effect)).
    /// Starts the next span on every rail.
    pub(crate) fn take_ocs_effects(&mut self) -> Vec<OcsEffect> {
        (0..self.geometry.num_rails() as u32)
            .map(|r| self.fabric.ocs_mut(RailId(r)).take_effect())
            .collect()
    }

    /// Applies [`OpusController::take_ocs_effects`]' per-rail effects `shift` later
    /// (see [`Ocs::apply_effect`](railsim_topology::Ocs::apply_effect)). Logs no
    /// event and leaves the request counters alone (see
    /// [`OpusController::replay_requests`]).
    pub(crate) fn replay_ocs_effects(&mut self, effects: &[OcsEffect], shift: SimDuration) {
        for (r, effect) in effects.iter().enumerate() {
            self.fabric
                .ocs_mut(RailId(r as u32))
                .apply_effect(effect, shift);
        }
    }

    /// Handles `tenant`'s reconfiguration request for `group`: installs the group's
    /// prepared circuits (see the module docs) on every rail they use and returns the
    /// time at which all of them are ready to carry traffic.
    ///
    /// `requested_at` is when the (possibly speculative) request was issued. Each rail
    /// whose circuits are not yet installed starts switching once its ports are free.
    /// With tenancy off that means every hold on them has drained (FC-FS conflict
    /// avoidance). Under an evicting policy the requester may displace *other*
    /// tenants' holds instead of waiting for them (which holds it may take is the
    /// policy's rule; see [`EvictionPolicy`]). The requester's own traffic is never
    /// preempted, so intra-tenant ordering stays FC-FS.
    ///
    /// Rails share no state, so one pass over the rail runs decides each rail's
    /// no-op, port claim, install and event in rail order.
    pub fn request(
        &mut self,
        tenant: u32,
        group: GroupId,
        circuits: &[DenseCircuit],
        requested_at: SimTime,
    ) -> SimTime {
        debug_assert!(
            circuits.is_sorted_by_key(DenseCircuit::rail),
            "a prepared plan lists its circuits rail by rail"
        );
        self.requests += 1;
        let tenancy = self.tenancy_active();
        let mut already_everywhere = true;
        let mut ready = requested_at;
        for run in circuits.chunk_by(|a, b| a.rail() == b.rail()) {
            let rail = run[0].rail();
            let ocs_already = self.fabric.ocs(rail).already_installed(run);
            already_everywhere &= ocs_already;
            let start = if ocs_already {
                requested_at
            } else if tenancy {
                self.claim_ports(tenant, rail, run, requested_at)
            } else {
                // Conflict avoidance: wait for ongoing traffic on the affected ports.
                let busy = &self.port_busy[rail.index()];
                run.iter()
                    .flat_map(DenseCircuit::ports)
                    .fold(requested_at, |free, port| {
                        free.max(busy[port.index as usize])
                    })
            };
            let rail_ready = self
                .fabric
                .ocs_mut(rail)
                .install(run, start)
                .unwrap_or_else(|e| panic!("circuit install failed on {rail}: {e}"));
            if !ocs_already {
                self.events.push(ReconfigEvent {
                    rail,
                    group,
                    requested_at,
                    started_at: start,
                    ready_at: rail_ready,
                    circuits_installed: run.len(),
                });
            }
            ready = ready.max(rail_ready);
        }
        if already_everywhere {
            self.noop_requests += 1;
        }
        ready
    }

    /// True when `tenant` may displace the hold on dense port `idx` of `rail` instead
    /// of waiting for it: never when tenancy is off, never for untagged holds or the
    /// tenant's own traffic, and otherwise as the eviction policy decides (under
    /// [`EvictionPolicy::FairShare`], only holds of tenants that have waited less on
    /// this rail).
    fn evictable(&self, tenant: u32, rail: usize, idx: usize) -> bool {
        if !self.tenancy_active() {
            return false;
        }
        let holder = self.port_tenant[rail][idx];
        holder != NO_TENANT
            && holder != tenant
            && match self.eviction {
                EvictionPolicy::Never => false,
                EvictionPolicy::LruTenant => true,
                EvictionPolicy::FairShare => {
                    let wait = &self.wait_by_rail[rail];
                    wait[tenant as usize] > wait[holder as usize]
                }
            }
    }

    /// Claims the ports of `circuits`, one rail's run of a prepared plan, on `rail` for
    /// `tenant`'s request at `requested_at` (tenancy must be active) and returns when
    /// the install may start:
    ///
    /// 1. the requester waits for every hold it may not evict (see
    ///    [`OpusController::evictable`]) to drain;
    /// 2. every evictable hold still extending past that wait is evicted: its
    ///    remaining occupancy is clamped to the requester's start and the
    ///    displacement is charged to both sides' eviction counters (one count per
    ///    port hold taken);
    /// 3. the requester's own wait (`start - requested_at`) is added to the rail's
    ///    fairness ledger.
    fn claim_ports(
        &mut self,
        tenant: u32,
        rail: RailId,
        circuits: &[DenseCircuit],
        requested_at: SimTime,
    ) -> SimTime {
        let r = rail.index();
        let mut start = requested_at;
        for port in circuits.iter().flat_map(DenseCircuit::ports) {
            let idx = port.index as usize;
            if !self.evictable(tenant, r, idx) {
                start = start.max(self.port_busy[r][idx]);
            }
        }
        let mut evicted = false;
        for port in circuits.iter().flat_map(DenseCircuit::ports) {
            let idx = port.index as usize;
            if self.port_busy[r][idx] > start {
                // Only evictable holds can still extend past `start`.
                debug_assert!(self.evictable(tenant, r, idx));
                let holder = self.port_tenant[r][idx];
                self.evictions_suffered[r][holder as usize] += 1;
                self.evictions_inflicted[r][tenant as usize] += 1;
                self.port_busy[r][idx] = start;
                evicted = true;
            }
        }
        if evicted {
            self.circuits_evicted[r] += self.fabric.ocs(rail).conflicting_circuits(circuits) as u64;
        }
        self.wait_by_rail[r][tenant as usize] += start - requested_at;
        start
    }

    /// The earliest time at or after which every port of a group's prepared plan that
    /// `tenant` would actually have to *wait* for is free of traffic. With tenancy off
    /// that is every port; under an evicting policy the holds it lets the tenant
    /// displace are skipped. Used to back-date provisioned requests, so a tenant that
    /// can evict issues its speculative request as early as eviction would allow.
    pub fn ports_free(&self, tenant: u32, plan: &[DenseCircuit]) -> SimTime {
        let mut free = SimTime::ZERO;
        for circuit in plan {
            for RailPort { rail, index } in circuit.ports() {
                let (rail, idx) = (rail as usize, index as usize);
                if !self.evictable(tenant, rail, idx) {
                    free = free.max(self.port_busy[rail][idx]);
                }
            }
        }
        free
    }

    /// Handles a rail failure: tears down every circuit on the rail's OCS (the light
    /// path is gone, whatever group owned it). Returns how many circuits were lost.
    /// The next request for a group touching this rail therefore takes the full
    /// install path and pays the reconfiguration delay after recovery.
    pub fn rail_failed(&mut self, rail: RailId) -> usize {
        let ocs = self.fabric.ocs_mut(rail);
        let lost = ocs.num_circuits();
        ocs.clear();
        lost
    }

    /// Withdraws a group's prepared circuits from the fabric: tears down exactly those
    /// of `circuits` that are currently installed, leaving other groups' circuits on
    /// the same rails untouched. Returns how many circuits were removed.
    ///
    /// This is the plan-swap half of `RecoveryPolicy::Replan`: before installing a
    /// degraded (or restored) plan, the old plan's surviving circuits are withdrawn so
    /// the group never holds ports under two plans at once; the next request pays the
    /// reconfiguration delay.
    pub fn withdraw(&mut self, circuits: &[DenseCircuit]) -> usize {
        circuits
            .chunk_by(|a, b| a.rail() == b.rail())
            .map(|run| self.fabric.ocs_mut(run[0].rail()).tear_down(run))
            .sum()
    }

    /// Sets one rail's OCS reconfiguration delay (an `OcsDegraded` scenario injection:
    /// the switch still works, but reconfigures slower — or faster, after repair).
    /// Installed circuits and their ready times are untouched.
    pub fn set_rail_reconfig_delay(&mut self, rail: RailId, delay: railsim_sim::SimDuration) {
        self.fabric.ocs_mut(rail).set_reconfig_delay(delay);
    }

    /// Drains the reconfiguration log into `out`, preserving order and the log's
    /// allocation. Scenario drivers call this after every committed event to attribute
    /// reconfigurations to the job whose request caused them.
    pub fn drain_events_into(&mut self, out: &mut Vec<ReconfigEvent>) {
        out.append(&mut self.events);
    }

    /// The occupancy footprint of the transfers occupied since `since`: per port, its
    /// busy end where that lies after `since` and `SimTime::ZERO` elsewhere, in a
    /// table shaped like the occupancy table. When no port was busy past `since` at
    /// `since` and every one of those transfers ended after it (an iteration
    /// boundary and the iteration that followed it), the nonzero entries are exactly
    /// the ports the transfers used, each with its latest end: occupancy is a
    /// max-merge. [`OpusController::replay_port_ends`] merges it back.
    pub(crate) fn port_ends_after(&self, since: SimTime) -> Vec<Vec<SimTime>> {
        self.port_busy
            .iter()
            .map(|rail| {
                rail.iter()
                    .map(|&end| if end > since { end } else { SimTime::ZERO })
                    .collect()
            })
            .collect()
    }

    /// Occupies every port of a [`OpusController::port_ends_after`] footprint until
    /// its end plus `shift`. Occupancy is a max-merge, so this leaves exactly what
    /// occupying each transfer of the footprint, shifted, one by one would. Zero
    /// entries mark ports the footprint never used and are skipped.
    pub(crate) fn replay_port_ends(&mut self, ends: &[Vec<SimTime>], shift: SimDuration) {
        for (busy, ends) in self.port_busy.iter_mut().zip(ends) {
            for (slot, &end) in busy.iter_mut().zip(ends) {
                if end > SimTime::ZERO {
                    *slot = (*slot).max(end + shift);
                }
            }
        }
    }

    /// The state every later request reads, as it stands at iteration boundary `at`
    /// and normalized to it, for a job that back-dates its requests by at most
    /// `reconfig_latency`; see [`FabricState`]. Two boundaries with equal states
    /// answer every later read identically, up to the shift between them.
    pub(crate) fn boundary_state(&self, at: SimTime, reconfig_latency: SimDuration) -> FabricState {
        let circuits = (0..self.geometry.num_rails() as u32)
            .map(|r| {
                let ocs = self.fabric.ocs(RailId(r));
                let lookback = reconfig_latency.saturating_sub(ocs.reconfig_delay());
                ocs.circuits()
                    .map(|(circuit, ready)| (circuit, normalized(ready, at, lookback)))
                    .collect()
            })
            .collect();
        let port_busy = self
            .port_busy
            .iter()
            .map(|rail| {
                rail.iter()
                    .map(|&end| normalized(end, at, reconfig_latency))
                    .collect()
            })
            .collect();
        FabricState {
            circuits,
            port_busy,
        }
    }

    /// The per-port occupancy table, one dense table per rail.
    #[cfg(test)]
    pub(crate) fn port_occupancy(&self) -> &[Vec<SimTime>] {
        &self.port_busy
    }

    /// Records that `tenant`'s traffic holds the ports of a group's prepared plan
    /// until `until`, blocking any conflicting reconfiguration before then. Occupancy
    /// is a max-merge. Under an evicting policy each port whose hold this transfer
    /// extends (or establishes) is also stamped with `tenant`, so a later contender
    /// knows whose traffic it would displace.
    pub fn occupy(&mut self, tenant: u32, plan: &[DenseCircuit], until: SimTime) {
        let active = self.tenancy_active();
        for circuit in plan {
            for RailPort { rail, index } in circuit.ports() {
                let (rail, idx) = (rail as usize, index as usize);
                let slot = &mut self.port_busy[rail][idx];
                if active && until >= *slot {
                    self.port_tenant[rail][idx] = tenant;
                }
                *slot = (*slot).max(until);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{CircuitPlanner, GroupCircuits};
    use proptest::prelude::*;
    use railsim_collectives::{CommGroup, ParallelismAxis};
    use railsim_sim::SimDuration;
    use railsim_topology::{
        CircuitConfig, Cluster, ClusterSpec, GpuId, NicConfig, NodePreset, PortId,
    };

    fn setup() -> (Cluster, OpusController, CircuitPlanner) {
        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
        let fabric = OpticalRailFabric::for_cluster(&cluster, SimDuration::from_millis(25));
        let planner = CircuitPlanner::for_cluster(&cluster);
        (cluster, OpusController::new(fabric), planner)
    }

    /// `circuits` prepared against the controller's fabric, as the hot reads take them.
    fn plan(ctrl: &OpusController, circuits: &GroupCircuits) -> Vec<DenseCircuit> {
        let mut plan = Vec::new();
        circuits.resolve_into(ctrl.fabric().geometry(), &mut plan);
        plan
    }

    fn dp_group(id: u32, ranks: &[u32]) -> CommGroup {
        CommGroup::new(
            railsim_collectives::GroupId(id),
            ParallelismAxis::Data,
            ranks.iter().map(|&r| GpuId(r)).collect(),
        )
    }

    #[test]
    fn first_request_pays_the_reconfig_delay() {
        let (cluster, mut ctrl, planner) = setup();
        let group = dp_group(1, &[0, 4]);
        let circuits = planner.plan(&cluster, &group);
        let ready = ctrl.request(
            0,
            group.id,
            &plan(&ctrl, &circuits),
            SimTime::from_millis(100),
        );
        assert_eq!(ready, SimTime::from_millis(125));
        assert_eq!(ctrl.events().len(), 1);
    }

    #[test]
    fn repeated_requests_for_the_same_group_are_free() {
        let (cluster, mut ctrl, planner) = setup();
        let group = dp_group(1, &[0, 4]);
        let circuits = planner.plan(&cluster, &group);
        ctrl.request(0, group.id, &plan(&ctrl, &circuits), SimTime::ZERO);
        let ready = ctrl.request(
            0,
            group.id,
            &plan(&ctrl, &circuits),
            SimTime::from_millis(200),
        );
        assert_eq!(ready, SimTime::from_millis(200));
        assert_eq!(ctrl.events().len(), 1);
        assert_eq!(ctrl.noop_requests(), 1);
        assert!(ctrl.installed_ready_time(&plan(&ctrl, &circuits)).is_some());
    }

    #[test]
    fn conflicting_reconfiguration_waits_for_traffic_to_drain() {
        let (cluster, mut ctrl, planner) = setup();
        // DP group {0, 4} and PP group {0, 8} share GPU 0's single NIC port on rail 0.
        let dp = dp_group(1, &[0, 4]);
        let pp = CommGroup::new(
            railsim_collectives::GroupId(2),
            ParallelismAxis::Pipeline,
            vec![GpuId(0), GpuId(8)],
        );
        let dp_circuits = planner.plan(&cluster, &dp);
        let pp_circuits = planner.plan(&cluster, &pp);

        ctrl.request(0, dp.id, &plan(&ctrl, &dp_circuits), SimTime::ZERO);
        // DP traffic occupies its circuit until t = 300 ms.
        ctrl.occupy(0, &plan(&ctrl, &dp_circuits), SimTime::from_millis(300));
        // A PP request at t = 150 ms must wait for the DP traffic to finish before the
        // switch can tear the shared port's circuit down, then pay the 25 ms delay.
        let ready = ctrl.request(
            0,
            pp.id,
            &plan(&ctrl, &pp_circuits),
            SimTime::from_millis(150),
        );
        assert_eq!(ready, SimTime::from_millis(325));
        let event = ctrl.events().last().unwrap();
        assert_eq!(event.started_at, SimTime::from_millis(300));
        assert_eq!(event.requested_at, SimTime::from_millis(150));
    }

    #[test]
    fn non_conflicting_groups_reconfigure_independently() {
        let (cluster, mut ctrl, planner) = setup();
        let a = dp_group(1, &[0, 4]);
        let b = dp_group(2, &[1, 5]); // rail 1 — no shared ports with rail 0.
        let ca = planner.plan(&cluster, &a);
        let cb = planner.plan(&cluster, &b);
        ctrl.request(0, a.id, &plan(&ctrl, &ca), SimTime::ZERO);
        ctrl.occupy(0, &plan(&ctrl, &ca), SimTime::from_secs(10));
        let ready = ctrl.request(0, b.id, &plan(&ctrl, &cb), SimTime::from_millis(50));
        assert_eq!(
            ready,
            SimTime::from_millis(75),
            "rail 1 must not wait for rail 0 traffic"
        );
        let rails: Vec<RailId> = ctrl.events().iter().map(|e| e.rail).collect();
        assert_eq!(rails, [RailId(0), RailId(1)]);
    }

    #[test]
    fn scaleup_only_groups_are_noops() {
        let (cluster, mut ctrl, planner) = setup();
        let tp = CommGroup::new(
            railsim_collectives::GroupId(3),
            ParallelismAxis::Tensor,
            vec![GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
        );
        let circuits = planner.plan(&cluster, &tp);
        let t = SimTime::from_millis(42);
        assert_eq!(ctrl.request(0, tp.id, &plan(&ctrl, &circuits), t), t);
        assert_eq!(ctrl.events().len(), 0);
        assert_eq!(ctrl.noop_requests(), 1);
    }

    #[test]
    fn installed_ready_matches_noop_requests() {
        let (cluster, mut ctrl, planner) = setup();
        let group = dp_group(1, &[0, 4]);
        let circuits = planner.plan(&cluster, &group);
        // Nothing installed yet: no fast-path ready time.
        assert_eq!(ctrl.installed_ready_time(&plan(&ctrl, &circuits)), None);

        let ready = ctrl.request(0, group.id, &plan(&ctrl, &circuits), SimTime::ZERO);
        // The pure read now answers exactly what a no-op request would return.
        assert_eq!(
            ctrl.installed_ready_time(&plan(&ctrl, &circuits)),
            Some(ready)
        );
        let later = SimTime::from_millis(500);
        assert_eq!(
            ctrl.request(0, group.id, &plan(&ctrl, &circuits), later),
            later
        );

        // Occupancy never changes an installed configuration's ready time.
        ctrl.occupy(0, &plan(&ctrl, &circuits), SimTime::from_secs(10));
        assert_eq!(
            ctrl.installed_ready_time(&plan(&ctrl, &circuits)),
            Some(ready)
        );

        let before = (ctrl.requests(), ctrl.noop_requests());
        ctrl.note_noop_request();
        assert_eq!(ctrl.requests(), before.0 + 1);
        assert_eq!(ctrl.noop_requests(), before.1 + 1);

        // A conflicting install (shared port on rail 0) tears the old group's
        // circuits down, so its fast path is gone.
        let pp = CommGroup::new(
            railsim_collectives::GroupId(2),
            ParallelismAxis::Pipeline,
            vec![GpuId(0), GpuId(8)],
        );
        let pp_circuits = planner.plan(&cluster, &pp);
        ctrl.request(0, pp.id, &plan(&ctrl, &pp_circuits), SimTime::from_secs(20));
        assert_eq!(ctrl.installed_ready_time(&plan(&ctrl, &circuits)), None);
    }

    #[test]
    fn withdraw_removes_only_the_groups_circuits() {
        let (cluster, mut ctrl, planner) = setup();
        let a = dp_group(1, &[0, 4]);
        let b = dp_group(2, &[1, 5]);
        let ca = planner.plan(&cluster, &a);
        let cb = planner.plan(&cluster, &b);
        ctrl.request(0, a.id, &plan(&ctrl, &ca), SimTime::ZERO);
        ctrl.request(0, b.id, &plan(&ctrl, &cb), SimTime::ZERO);
        let removed = ctrl.withdraw(&plan(&ctrl, &ca));
        assert!(removed > 0, "group a held circuits");
        assert!(
            ctrl.installed_ready_time(&plan(&ctrl, &cb)).is_some(),
            "group b's circuits survive"
        );
        assert_eq!(ctrl.installed_ready_time(&plan(&ctrl, &ca)), None);
        // Withdrawing again is a free no-op.
        assert_eq!(ctrl.withdraw(&plan(&ctrl, &ca)), 0);
        assert!(ctrl.installed_ready_time(&plan(&ctrl, &cb)).is_some());
    }

    #[test]
    fn lru_tenant_evicts_other_tenants_but_waits_for_its_own() {
        let (cluster, mut ctrl, planner) = setup();
        ctrl.set_eviction(EvictionPolicy::LruTenant, 2);
        // Tenant 0's DP group and tenant 1's PP group share GPU 0's port on rail 0.
        let dp = dp_group(1, &[0, 4]);
        let pp = CommGroup::new(
            railsim_collectives::GroupId(2),
            ParallelismAxis::Pipeline,
            vec![GpuId(0), GpuId(8)],
        );
        let dp_circuits = planner.plan(&cluster, &dp);
        let pp_circuits = planner.plan(&cluster, &pp);
        ctrl.request(0, dp.id, &plan(&ctrl, &dp_circuits), SimTime::ZERO);
        ctrl.occupy(0, &plan(&ctrl, &dp_circuits), SimTime::from_millis(300));
        // Tenant 1 does not wait for tenant 0's hold: start at 150, ready at 175.
        let ready = ctrl.request(
            1,
            pp.id,
            &plan(&ctrl, &pp_circuits),
            SimTime::from_millis(150),
        );
        assert_eq!(ready, SimTime::from_millis(175));
        assert_eq!(ctrl.evictions_suffered_by(0), 1);
        assert_eq!(ctrl.evictions_inflicted_by(1), 1);
        assert!(ctrl.circuits_evicted_by_rail()[0] > 0);
        // Tenant 1's own hold is never evicted by tenant 1: a second tenant-1 group
        // on the same port waits the full FC-FS way.
        ctrl.occupy(1, &plan(&ctrl, &pp_circuits), SimTime::from_millis(400));
        let own = CommGroup::new(
            railsim_collectives::GroupId(3),
            ParallelismAxis::Data,
            vec![GpuId(0), GpuId(12)],
        );
        let own_circuits = planner.plan(&cluster, &own);
        let ready = ctrl.request(
            1,
            own.id,
            &plan(&ctrl, &own_circuits),
            SimTime::from_millis(200),
        );
        assert_eq!(ready, SimTime::from_millis(425), "own traffic drains first");
    }

    #[test]
    fn fair_share_only_lets_the_longer_waiter_evict() {
        let (cluster, mut ctrl, planner) = setup();
        ctrl.set_eviction(EvictionPolicy::FairShare, 2);
        let dp = dp_group(1, &[0, 4]);
        let pp = CommGroup::new(
            railsim_collectives::GroupId(2),
            ParallelismAxis::Pipeline,
            vec![GpuId(0), GpuId(8)],
        );
        let dp_circuits = planner.plan(&cluster, &dp);
        let pp_circuits = planner.plan(&cluster, &pp);
        ctrl.request(0, dp.id, &plan(&ctrl, &dp_circuits), SimTime::ZERO);
        ctrl.occupy(0, &plan(&ctrl, &dp_circuits), SimTime::from_millis(300));
        // Equal waits (both zero): tenant 1 may not evict and waits like FC-FS, so a
        // provisioned request could not be back-dated past the hold either.
        assert_eq!(
            ctrl.ports_free(1, &plan(&ctrl, &pp_circuits)),
            SimTime::from_millis(300)
        );
        let ready = ctrl.request(
            1,
            pp.id,
            &plan(&ctrl, &pp_circuits),
            SimTime::from_millis(150),
        );
        assert_eq!(ready, SimTime::from_millis(325));
        assert_eq!(ctrl.evictions_inflicted_by(1), 0);
        assert_eq!(
            ctrl.tenant_wait(1),
            railsim_sim::SimDuration::from_millis(150),
            "the FC-FS wait entered tenant 1's fairness ledger"
        );
        // Now tenant 0 re-takes the port and holds it; tenant 1 has waited more, so
        // its next (circuit-changing) request displaces the hold instead of waiting.
        ctrl.occupy(0, &plan(&ctrl, &dp_circuits), SimTime::from_millis(900));
        let other = CommGroup::new(
            railsim_collectives::GroupId(3),
            ParallelismAxis::Data,
            vec![GpuId(0), GpuId(12)],
        );
        let other_circuits = planner.plan(&cluster, &other);
        assert_eq!(
            ctrl.ports_free(1, &plan(&ctrl, &other_circuits)),
            SimTime::ZERO,
            "the longer waiter's back-dating skips the evictable hold"
        );
        assert_eq!(
            ctrl.ports_free(0, &plan(&ctrl, &other_circuits)),
            SimTime::from_millis(900),
            "a tenant never skips its own hold"
        );
        let ready = ctrl.request(
            1,
            other.id,
            &plan(&ctrl, &other_circuits),
            SimTime::from_millis(400),
        );
        assert_eq!(
            ready,
            SimTime::from_millis(425),
            "the longer waiter cuts the line"
        );
        assert_eq!(ctrl.evictions_suffered_by(0), 1);
        assert_eq!(ctrl.evictions_inflicted_by(1), 1);
    }

    /// The 4-node testbed controller's state at boundary `at` for a job with
    /// reconfiguration latency `lat`: rail 0's OCS switches in `delay`, and group
    /// `ranks`' circuit on it became ready at `ready` and is busy until `busy` (all
    /// in microseconds).
    fn boundary_of(
        ranks: &[u32],
        lat: u64,
        delay: u64,
        ready: u64,
        busy: u64,
        at: u64,
    ) -> FabricState {
        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
        let lat = SimDuration::from_micros(lat);
        let mut ctrl = OpusController::new(OpticalRailFabric::for_cluster(&cluster, lat));
        ctrl.set_rail_reconfig_delay(RailId(0), SimDuration::from_micros(delay));
        let group = dp_group(1, ranks);
        let circuits = CircuitPlanner::for_cluster(&cluster).plan(&cluster, &group);
        let start = SimTime::from_micros(ready - delay);
        assert_eq!(
            ctrl.request(0, group.id, &plan(&ctrl, &circuits), start),
            SimTime::from_micros(ready)
        );
        ctrl.occupy(0, &plan(&ctrl, &circuits), SimTime::from_micros(busy));
        ctrl.boundary_state(SimTime::from_micros(at), lat)
    }

    proptest! {
        #[test]
        fn boundary_states_normalize_away_only_dominated_values(
            lat in 1u64..50_000,
            delay in 1u64..80_000,
            at in 200_000u64..1_000_000,
            a in 0u64..1_000_000,
            b in 0u64..1_000_000,
        ) {
            let state = |ready, busy| boundary_of(&[0, 4], lat, delay, ready, busy, at);
            // Port ends at or before `at − lat` are dominated; ready times at or
            // before `at − max(0, lat − delay)`. Installs start at or after zero, so
            // a ready time is at least `delay`.
            let port_horizon = at - lat;
            let ready_horizon = at - lat.saturating_sub(delay);

            // Moving a dominated value further into the past changes nothing.
            let busy = a % (port_horizon + 1);
            let earlier = busy - b % (busy + 1);
            prop_assert_eq!(state(delay, busy), state(delay, earlier));
            let ready = delay + a % (ready_horizon - delay + 1);
            let earlier = ready - b % (ready - delay + 1);
            prop_assert_eq!(state(ready, 0), state(earlier, 0));

            // Moving a live value anywhere into the past changes the state.
            let busy = port_horizon + 1 + a % lat;
            let earlier = busy - 1 - b % busy;
            prop_assert!(state(delay, busy) != state(delay, earlier));
            let ready = ready_horizon + 1 + a % 10_000;
            let earlier = ready - 1 - b % (ready - delay);
            prop_assert!(state(ready, 0) != state(earlier, 0));
        }
    }

    /// The per-port semantics the hot reads had before they took a prepared plan:
    /// the group's `BTreeMap` walked rail by rail, each port's slot recomputed.
    fn per_port_slot(ctrl: &OpusController, port: PortId) -> (usize, usize) {
        let fabric = ctrl.fabric();
        port.rail_dense_index(fabric.num_rails() as u32, fabric.ports_per_gpu())
    }

    fn per_port_ready(ctrl: &OpusController, circuits: &GroupCircuits) -> Option<SimTime> {
        let mut ready = SimTime::ZERO;
        for (rail, config) in &circuits.per_rail {
            for c in config.circuits() {
                ready = ready.max(ctrl.fabric().ocs(*rail).ready_time(c.a(), c.b())?);
            }
        }
        Some(ready)
    }

    fn per_port_free(ctrl: &OpusController, tenant: u32, circuits: &GroupCircuits) -> SimTime {
        let mut free = SimTime::ZERO;
        for port in circuits.per_rail.values().flat_map(CircuitConfig::ports) {
            let (rail, idx) = per_port_slot(ctrl, port);
            if !ctrl.evictable(tenant, rail, idx) {
                free = free.max(ctrl.port_busy[rail][idx]);
            }
        }
        free
    }

    fn per_port_occupy(
        ctrl: &mut OpusController,
        tenant: u32,
        circuits: &GroupCircuits,
        until: SimTime,
    ) {
        let active = ctrl.tenancy_active();
        for port in circuits.per_rail.values().flat_map(CircuitConfig::ports) {
            let (rail, idx) = per_port_slot(ctrl, port);
            let slot = &mut ctrl.port_busy[rail][idx];
            if active && until >= *slot {
                ctrl.port_tenant[rail][idx] = tenant;
            }
            *slot = (*slot).max(until);
        }
    }

    proptest! {
        #[test]
        fn plan_reads_match_the_per_port_reads(
            fair_share in 0u8..2,
            dual_port in 0u8..2,
            groups in proptest::collection::vec(proptest::collection::vec(0u32..16, 2..6), 1..5),
            ops in proptest::collection::vec((0u8..4, 0u32..2, 0usize..4, 0u64..8), 1..60),
        ) {
            // Two controllers over the same testbed take the same operations: one
            // reads and writes through prepared plans, the other through the
            // per-port walk. Requests go to both unchanged. Times are coarse, so
            // busy ends often tie.
            let mut spec = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4);
            if dual_port == 1 {
                spec = spec.with_nic(NicConfig::slingshot11_dual());
            }
            let cluster = spec.build();
            let planner = CircuitPlanner::for_cluster(&cluster);
            let fabric = || OpticalRailFabric::for_cluster(&cluster, SimDuration::from_millis(1));
            let (mut by_plan, mut by_port) = (OpusController::new(fabric()), OpusController::new(fabric()));
            if fair_share == 1 {
                by_plan.set_eviction(EvictionPolicy::FairShare, 2);
                by_port.set_eviction(EvictionPolicy::FairShare, 2);
            }
            let groups: Vec<(GroupId, GroupCircuits)> = groups
                .iter()
                .enumerate()
                .map(|(i, ranks)| {
                    let mut members: Vec<u32> = Vec::new();
                    for &r in ranks {
                        if !members.contains(&r) {
                            members.push(r);
                        }
                    }
                    let group = dp_group(i as u32, &members);
                    (group.id, planner.plan(&cluster, &group))
                })
                .collect();
            let plans: Vec<Vec<DenseCircuit>> =
                groups.iter().map(|(_, circuits)| plan(&by_plan, circuits)).collect();
            let mut now = SimTime::ZERO;
            for (op, tenant, g, dt) in ops {
                let g = g % groups.len();
                let (group, circuits) = &groups[g];
                now += SimDuration::from_micros(100 * dt);
                match op {
                    0 => prop_assert_eq!(
                        by_plan.request(tenant, *group, &plans[g], now),
                        by_port.request(tenant, *group, &plans[g], now)
                    ),
                    1 => {
                        let until = now + SimDuration::from_micros(100 * (1 + dt % 3));
                        by_plan.occupy(tenant, &plans[g], until);
                        per_port_occupy(&mut by_port, tenant, circuits, until);
                    }
                    2 => prop_assert_eq!(
                        by_plan.ports_free(tenant, &plans[g]),
                        per_port_free(&by_port, tenant, circuits)
                    ),
                    _ => prop_assert_eq!(
                        by_plan.installed_ready_time(&plans[g]),
                        per_port_ready(&by_port, circuits)
                    ),
                }
                prop_assert_eq!(&by_plan.port_busy, &by_port.port_busy);
                prop_assert_eq!(&by_plan.port_tenant, &by_port.port_tenant);
                prop_assert_eq!(by_plan.events(), by_port.events());
            }
        }
    }

    #[test]
    fn boundary_states_compare_matchings_exactly() {
        // Every time dominated: only the matching tells the two states apart.
        let state = |ranks: &[u32]| boundary_of(ranks, 25_000, 25_000, 25_000, 0, 500_000);
        assert_eq!(state(&[0, 4]), state(&[0, 4]));
        assert_ne!(state(&[0, 4]), state(&[0, 8]));
    }
}
