//! The Opus controller.
//!
//! The controller owns the photonic rail fabric (one OCS per rail) and turns the shim's
//! reconfiguration requests into circuit changes, honouring the paper's objectives:
//!
//! * **Objective 1 / 2** — requests are only acted on when the demand actually changes;
//!   re-requesting the installed configuration is free.
//! * **Objective 3** — conflict avoidance: a reconfiguration that would tear down a
//!   circuit still carrying traffic is delayed until that traffic drains (the
//!   first-come-first-serve policy over the sequentially ordered demands of one job).
//!
//! The controller also keeps the per-port occupancy bookkeeping the conflict check
//! needs, and a log of [`ReconfigEvent`]s for the experiment harness.

use crate::circuits::GroupCircuits;
use crate::config::EvictionPolicy;
use crate::metrics::ReconfigEvent;
use railsim_collectives::GroupId;
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{CircuitConfig, OpticalRailFabric, RailId};

/// Sentinel tenant id: the port's current hold was not placed by a tenant-tagged
/// transfer (or the port was never busy). Untagged holds are never evictable.
pub const NO_TENANT: u32 = u32::MAX;

/// The Opus controller: rail OCSes plus occupancy tracking and the reconfiguration log.
///
/// All per-port and per-rail bookkeeping is *dense* — `Vec`s pre-sized from the
/// fabric's geometry and indexed by
/// [`PortId::rail_dense_index`](railsim_topology::PortId::rail_dense_index) / rail
/// index. The occupancy map is touched on every scale-out communication event (the
/// profiled hot path of the 10k-GPU runs), so it must not hash; it is segmented by
/// rail, one dense table per rail.
#[derive(Debug, Clone)]
pub struct OpusController {
    fabric: OpticalRailFabric,
    /// Until when each port is carrying traffic (conflict avoidance): one dense table
    /// per rail of `num_nodes * ports_per_gpu` entries, indexed by
    /// [`PortId::rail_dense_index`](railsim_topology::PortId::rail_dense_index).
    /// `SimTime::ZERO` means "never been busy".
    port_busy: Vec<Vec<SimTime>>,
    num_rails: u32,
    ports_per_gpu: u8,
    events: Vec<ReconfigEvent>,
    requests: u64,
    noop_requests: u64,
    /// Reconfigurations per rail over the controller's whole lifetime, indexed by
    /// rail. Unlike the event log this is never drained, so per-lane load stays
    /// observable at 10k-GPU scale without retaining hundreds of thousands of events.
    lifetime_by_rail: Vec<u64>,
    /// Per-rail no-op flags of the request being handled, reused across requests so
    /// the hot path never allocates.
    noop_scratch: Vec<bool>,
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
        let dense_ports = fabric.dense_port_count();
        let num_rails = fabric.num_rails();
        let ports_per_gpu = fabric.ports_per_gpu();
        let per_rail_ports = dense_ports / num_rails.max(1);
        OpusController {
            fabric,
            port_busy: vec![vec![SimTime::ZERO; per_rail_ports]; num_rails],
            num_rails: num_rails as u32,
            ports_per_gpu,
            events: Vec::new(),
            requests: 0,
            noop_requests: 0,
            lifetime_by_rail: vec![0; num_rails],
            noop_scratch: Vec::new(),
            eviction: EvictionPolicy::Never,
            port_tenant: vec![Vec::new(); num_rails],
            wait_by_rail: vec![Vec::new(); num_rails],
            evictions_suffered: vec![Vec::new(); num_rails],
            evictions_inflicted: vec![Vec::new(); num_rails],
            circuits_evicted: vec![0; num_rails],
        }
    }

    /// Activates tenant-aware contention arbitration: requests tagged through
    /// [`OpusController::request_from`] may displace other tenants' port holds
    /// according to `policy`, and per-tenant wait/eviction ledgers are kept for the
    /// fairness metrics. With [`EvictionPolicy::Never`] (or when never called) every
    /// path stays byte-identical to the single-tenant controller.
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
    pub fn tenant_wait(&self, tenant: u32) -> SimDuration {
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

    /// Drains the reconfiguration log (used between iterations by the simulator).
    pub fn take_events(&mut self) -> Vec<ReconfigEvent> {
        std::mem::take(&mut self.events)
    }

    /// Total requests received.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests that required no change (circuits already installed).
    pub fn noop_requests(&self) -> u64 {
        self.noop_requests
    }

    /// The earliest time at or after which every port used by `circuits` is free of
    /// traffic.
    pub fn ports_free_at(&self, circuits: &GroupCircuits) -> SimTime {
        let mut free = SimTime::ZERO;
        for config in circuits.per_rail.values() {
            for port in config.ports() {
                let (rail, idx) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
                free = free.max(self.port_busy[rail][idx]);
            }
        }
        free
    }

    /// True when every rail already has the group's circuits installed (possibly still
    /// settling).
    pub fn is_installed(&self, circuits: &GroupCircuits) -> bool {
        circuits
            .per_rail
            .iter()
            .all(|(rail, config)| self.fabric.ocs(*rail).already_installed(config))
    }

    /// The time at which every circuit of the group is ready, or `None` when any rail
    /// is missing part of the configuration. A pure O(circuits in the group) read: a
    /// `Some` answer is exactly what a no-op [`OpusController::request`] would
    /// resolve to, so the simulator uses it as the request's fast path (pair it with
    /// [`OpusController::note_noop_request`]).
    pub fn installed_ready_time(&self, circuits: &GroupCircuits) -> Option<SimTime> {
        let mut ready = SimTime::ZERO;
        for (rail, config) in &circuits.per_rail {
            ready = ready.max(self.fabric.ocs(*rail).installed_ready(config)?);
        }
        Some(ready)
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

    /// Re-performs one reconfiguration from a memoized steady iteration: installs
    /// `config` on `rail` starting at `start` (the template event's start plus the
    /// replay shift), exactly as the request that produced the original event did.
    /// Goes straight to the fabric — the conflict wait is already baked into `start`
    /// — so matching state, per-circuit ready times and the set-up/torn-down
    /// counters all advance precisely as a naive re-step would have left them.
    /// Bumps the per-rail lifetime counter but does *not* log an event (the replay
    /// emits the shifted template events directly) or touch the request counters
    /// (see [`OpusController::replay_requests`]). Returns when the circuits are ready.
    pub fn replay_install(
        &mut self,
        rail: RailId,
        config: &CircuitConfig,
        start: SimTime,
    ) -> SimTime {
        let ready = self
            .fabric
            .install(rail, config, start)
            .unwrap_or_else(|e| panic!("replayed circuit install failed on {rail}: {e}"));
        self.lifetime_by_rail[rail.index()] += 1;
        ready
    }

    /// Handles a reconfiguration request for `group`: installs the group's circuits on
    /// every rail it needs, waiting for conflicting traffic to drain first. Returns the
    /// time at which all circuits are ready to carry traffic.
    ///
    /// `requested_at` is when the (possibly speculative) request was issued; the actual
    /// switching starts at `max(requested_at, ports-free time)`.
    pub fn request(
        &mut self,
        group: GroupId,
        circuits: &GroupCircuits,
        requested_at: SimTime,
    ) -> SimTime {
        self.request_as(None, group, circuits, requested_at)
    }

    /// The tenant-tagged variant of [`OpusController::request`]: identical FC-FS
    /// semantics under [`EvictionPolicy::Never`], but under an evicting policy the
    /// requester may displace *other* tenants' port holds instead of waiting for them
    /// (which holds it may take is the policy's rule; see [`EvictionPolicy`]). The
    /// requester's own traffic is never preempted, so intra-tenant ordering stays
    /// FC-FS.
    pub fn request_from(
        &mut self,
        tenant: u32,
        group: GroupId,
        circuits: &GroupCircuits,
        requested_at: SimTime,
    ) -> SimTime {
        let tenant = self.tenancy_active().then_some(tenant);
        self.request_as(tenant, group, circuits, requested_at)
    }

    /// The one request path. Each rail whose circuits are not yet installed starts
    /// switching once its ports are free: for an untagged request (`None`) that means
    /// every hold has drained; a tenant-tagged request claims the ports under the
    /// eviction policy instead.
    fn request_as(
        &mut self,
        tenant: Option<u32>,
        group: GroupId,
        circuits: &GroupCircuits,
        requested_at: SimTime,
    ) -> SimTime {
        self.requests += 1;
        if circuits.per_rail.is_empty() {
            self.noop_requests += 1;
            return requested_at;
        }
        // One pass computes every rail's no-op flag; the install loop below reuses
        // them instead of re-walking each rail's installed circuits.
        self.noop_scratch.clear();
        let mut already_everywhere = true;
        for (rail, config) in &circuits.per_rail {
            let noop = self.fabric.ocs(*rail).already_installed(config);
            self.noop_scratch.push(noop);
            already_everywhere &= noop;
        }
        if already_everywhere {
            self.noop_requests += 1;
        }
        let mut ready = requested_at;
        for (i, (rail, config)) in circuits.per_rail.iter().enumerate() {
            let ocs_already = self.noop_scratch[i];
            let start = if ocs_already {
                requested_at
            } else if let Some(tenant) = tenant {
                self.claim_ports(tenant, *rail, config, requested_at)
            } else {
                // Conflict avoidance: wait for ongoing traffic on the affected ports.
                let mut free = requested_at;
                for port in config.ports() {
                    let (r, idx) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
                    free = free.max(self.port_busy[r][idx]);
                }
                free
            };
            let rail_ready = self
                .fabric
                .install(*rail, config, start)
                .unwrap_or_else(|e| panic!("circuit install failed on {rail}: {e}"));
            if !ocs_already {
                self.events.push(ReconfigEvent {
                    rail: *rail,
                    group,
                    requested_at,
                    started_at: start,
                    ready_at: rail_ready,
                    circuits_installed: config.len(),
                });
                self.lifetime_by_rail[rail.index()] += 1;
            }
            ready = ready.max(rail_ready);
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

    /// Claims `config`'s ports on `rail` for `tenant`'s request at `requested_at`
    /// (tenancy must be active) and returns when the install may start:
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
        config: &CircuitConfig,
        requested_at: SimTime,
    ) -> SimTime {
        let r = rail.index();
        let mut start = requested_at;
        for port in config.ports() {
            let (_, idx) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
            if !self.evictable(tenant, r, idx) {
                start = start.max(self.port_busy[r][idx]);
            }
        }
        let mut evicted = false;
        for port in config.ports() {
            let (_, idx) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
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
            self.circuits_evicted[r] += self.fabric.ocs(rail).conflicting_circuits(config) as u64;
        }
        self.wait_by_rail[r][tenant as usize] += start - requested_at;
        start
    }

    /// The tenant-aware variant of [`OpusController::ports_free_at`]: the earliest
    /// time at or after which every port of `circuits` that `tenant` would actually
    /// have to *wait* for is free — holds the active eviction policy lets the tenant
    /// displace are skipped. Used to back-date provisioned requests, so a tenant that
    /// can evict issues its speculative request as early as eviction would allow.
    pub fn ports_free_for(&self, tenant: u32, circuits: &GroupCircuits) -> SimTime {
        let mut free = SimTime::ZERO;
        for config in circuits.per_rail.values() {
            for port in config.ports() {
                let (rail, idx) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
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

    /// Withdraws a group's circuits from the fabric: tears down exactly the circuits
    /// of `circuits` that are currently installed, leaving other groups' circuits on
    /// the same rails untouched. Returns how many circuits were removed.
    ///
    /// This is the plan-swap half of `RecoveryPolicy::Replan`: before installing a
    /// degraded (or restored) plan, the old plan's surviving circuits are withdrawn so
    /// the group never holds ports under two plans at once; the next request pays the
    /// reconfiguration delay.
    pub fn withdraw(&mut self, circuits: &GroupCircuits) -> usize {
        let mut n = 0;
        for (rail, config) in &circuits.per_rail {
            n += self.fabric.ocs_mut(*rail).tear_down(config);
        }
        n
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

    /// Records that the group's circuits carry traffic until `until`, blocking any
    /// conflicting reconfiguration before then.
    pub fn occupy(&mut self, circuits: &GroupCircuits, until: SimTime) {
        for config in circuits.per_rail.values() {
            for port in config.ports() {
                let (rail, idx) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
                let slot = &mut self.port_busy[rail][idx];
                *slot = (*slot).max(until);
            }
        }
    }

    /// The occupancy footprint of a set of transfers, each given as its group's
    /// circuits and its end: per port, the latest end among the transfers that used
    /// it, in a table shaped like the occupancy table (`SimTime::ZERO` where none
    /// did). [`OpusController::replay_port_ends`] merges it back.
    pub(crate) fn port_ends<'a>(
        &self,
        transfers: impl IntoIterator<Item = (&'a GroupCircuits, SimTime)>,
    ) -> Vec<Vec<SimTime>> {
        let mut ends: Vec<Vec<SimTime>> = self
            .port_busy
            .iter()
            .map(|rail| vec![SimTime::ZERO; rail.len()])
            .collect();
        for (circuits, end) in transfers {
            for config in circuits.per_rail.values() {
                for port in config.ports() {
                    let (rail, idx) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
                    let slot = &mut ends[rail][idx];
                    *slot = (*slot).max(end);
                }
            }
        }
        ends
    }

    /// Occupies every port of a [`OpusController::port_ends`] footprint until its
    /// end plus `shift`. Occupancy is a max-merge, so this leaves exactly what
    /// occupying each transfer of the footprint, shifted, one by one would. Zero
    /// entries mark ports the footprint never used and are skipped, so a transfer
    /// ending at time zero must not be replayed under a nonzero shift (a memo
    /// template never is: one that ends a transfer at zero has a zero period).
    pub(crate) fn replay_port_ends(&mut self, ends: &[Vec<SimTime>], shift: SimDuration) {
        for (busy, ends) in self.port_busy.iter_mut().zip(ends) {
            for (slot, &end) in busy.iter_mut().zip(ends) {
                if end > SimTime::ZERO {
                    *slot = (*slot).max(end + shift);
                }
            }
        }
    }

    /// The per-port occupancy table, one dense table per rail.
    #[cfg(test)]
    pub(crate) fn port_occupancy(&self) -> &[Vec<SimTime>] {
        &self.port_busy
    }

    /// The tenant-tagged variant of [`OpusController::occupy`]: the same max-merged
    /// occupancy, but each port whose hold this transfer extends (or establishes) is
    /// stamped with the owning tenant, so a later contender knows whose traffic it
    /// would displace. Identical to [`OpusController::occupy`] when tenancy is off.
    pub fn occupy_for(&mut self, tenant: u32, circuits: &GroupCircuits, until: SimTime) {
        let active = self.tenancy_active();
        for config in circuits.per_rail.values() {
            for port in config.ports() {
                let (rail, idx) = port.rail_dense_index(self.num_rails, self.ports_per_gpu);
                let slot = &mut self.port_busy[rail][idx];
                if active && until >= *slot {
                    self.port_tenant[rail][idx] = tenant;
                }
                *slot = (*slot).max(until);
            }
        }
    }

    /// Total reconfigurations actually performed.
    pub fn total_reconfigs(&self) -> usize {
        self.events.len()
    }

    /// The reconfigurations that touched a given rail.
    pub fn reconfigs_on_rail(&self, rail: RailId) -> usize {
        self.events.iter().filter(|e| e.rail == rail).count()
    }

    /// Total reconfigurations ever performed, across [`OpusController::take_events`]
    /// drains.
    pub fn lifetime_reconfigs(&self) -> u64 {
        self.lifetime_by_rail.iter().sum()
    }

    /// Lifetime reconfigurations on one rail (never reset by draining the log).
    pub fn lifetime_reconfigs_on_rail(&self, rail: RailId) -> u64 {
        self.lifetime_by_rail
            .get(rail.index())
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::CircuitPlanner;
    use railsim_collectives::{CommGroup, ParallelismAxis};
    use railsim_sim::SimDuration;
    use railsim_topology::{Cluster, ClusterSpec, GpuId, NodePreset};

    fn setup() -> (Cluster, OpusController, CircuitPlanner) {
        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
        let fabric = OpticalRailFabric::for_cluster(&cluster, SimDuration::from_millis(25));
        let planner = CircuitPlanner::for_cluster(&cluster);
        (cluster, OpusController::new(fabric), planner)
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
        let ready = ctrl.request(group.id, &circuits, SimTime::from_millis(100));
        assert_eq!(ready, SimTime::from_millis(125));
        assert_eq!(ctrl.total_reconfigs(), 1);
    }

    #[test]
    fn repeated_requests_for_the_same_group_are_free() {
        let (cluster, mut ctrl, planner) = setup();
        let group = dp_group(1, &[0, 4]);
        let circuits = planner.plan(&cluster, &group);
        ctrl.request(group.id, &circuits, SimTime::ZERO);
        let ready = ctrl.request(group.id, &circuits, SimTime::from_millis(200));
        assert_eq!(ready, SimTime::from_millis(200));
        assert_eq!(ctrl.total_reconfigs(), 1);
        assert_eq!(ctrl.noop_requests(), 1);
        assert!(ctrl.is_installed(&circuits));
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

        ctrl.request(dp.id, &dp_circuits, SimTime::ZERO);
        // DP traffic occupies its circuit until t = 300 ms.
        ctrl.occupy(&dp_circuits, SimTime::from_millis(300));
        // A PP request at t = 150 ms must wait for the DP traffic to finish before the
        // switch can tear the shared port's circuit down, then pay the 25 ms delay.
        let ready = ctrl.request(pp.id, &pp_circuits, SimTime::from_millis(150));
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
        ctrl.request(a.id, &ca, SimTime::ZERO);
        ctrl.occupy(&ca, SimTime::from_secs(10));
        let ready = ctrl.request(b.id, &cb, SimTime::from_millis(50));
        assert_eq!(
            ready,
            SimTime::from_millis(75),
            "rail 1 must not wait for rail 0 traffic"
        );
        assert_eq!(ctrl.reconfigs_on_rail(RailId(0)), 1);
        assert_eq!(ctrl.reconfigs_on_rail(RailId(1)), 1);
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
        assert_eq!(ctrl.request(tp.id, &circuits, t), t);
        assert_eq!(ctrl.total_reconfigs(), 0);
        assert_eq!(ctrl.noop_requests(), 1);
    }

    #[test]
    fn installed_ready_matches_noop_requests() {
        let (cluster, mut ctrl, planner) = setup();
        let group = dp_group(1, &[0, 4]);
        let circuits = planner.plan(&cluster, &group);
        // Nothing installed yet: no fast-path ready time.
        assert_eq!(ctrl.installed_ready_time(&circuits), None);

        let ready = ctrl.request(group.id, &circuits, SimTime::ZERO);
        // The pure read now answers exactly what a no-op request would return.
        assert_eq!(ctrl.installed_ready_time(&circuits), Some(ready));
        let later = SimTime::from_millis(500);
        assert_eq!(ctrl.request(group.id, &circuits, later), later);

        // Occupancy never changes an installed configuration's ready time.
        ctrl.occupy(&circuits, SimTime::from_secs(10));
        assert_eq!(ctrl.installed_ready_time(&circuits), Some(ready));

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
        ctrl.request(pp.id, &pp_circuits, SimTime::from_secs(20));
        assert_eq!(ctrl.installed_ready_time(&circuits), None);
    }

    #[test]
    fn withdraw_removes_only_the_groups_circuits() {
        let (cluster, mut ctrl, planner) = setup();
        let a = dp_group(1, &[0, 4]);
        let b = dp_group(2, &[1, 5]);
        let ca = planner.plan(&cluster, &a);
        let cb = planner.plan(&cluster, &b);
        ctrl.request(a.id, &ca, SimTime::ZERO);
        ctrl.request(b.id, &cb, SimTime::ZERO);
        let removed = ctrl.withdraw(&ca);
        assert!(removed > 0, "group a held circuits");
        assert!(!ctrl.is_installed(&ca));
        assert!(ctrl.is_installed(&cb), "group b's circuits survive");
        assert_eq!(ctrl.installed_ready_time(&ca), None);
        // Withdrawing again is a free no-op.
        assert_eq!(ctrl.withdraw(&ca), 0);
        assert!(ctrl.is_installed(&cb));
    }

    #[test]
    fn never_policy_request_from_is_the_plain_request() {
        let (cluster, mut tagged, planner) = setup();
        let mut plain = tagged.clone();
        let group = dp_group(1, &[0, 4]);
        let circuits = planner.plan(&cluster, &group);
        // Tenancy never activated: the tagged entry points delegate byte-for-byte.
        assert!(!tagged.tenancy_active());
        let a = tagged.request_from(0, group.id, &circuits, SimTime::from_millis(10));
        let b = plain.request(group.id, &circuits, SimTime::from_millis(10));
        assert_eq!(a, b);
        assert_eq!(tagged.requests(), plain.requests());
        tagged.occupy_for(0, &circuits, SimTime::from_millis(500));
        plain.occupy(&circuits, SimTime::from_millis(500));
        assert_eq!(
            tagged.ports_free_for(1, &circuits),
            plain.ports_free_at(&circuits)
        );
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
        ctrl.request_from(0, dp.id, &dp_circuits, SimTime::ZERO);
        ctrl.occupy_for(0, &dp_circuits, SimTime::from_millis(300));
        // Tenant 1 does not wait for tenant 0's hold: start at 150, ready at 175.
        let ready = ctrl.request_from(1, pp.id, &pp_circuits, SimTime::from_millis(150));
        assert_eq!(ready, SimTime::from_millis(175));
        assert_eq!(ctrl.evictions_suffered_by(0), 1);
        assert_eq!(ctrl.evictions_inflicted_by(1), 1);
        assert!(ctrl.circuits_evicted_by_rail()[0] > 0);
        // Tenant 1's own hold is never evicted by tenant 1: a second tenant-1 group
        // on the same port waits the full FC-FS way.
        ctrl.occupy_for(1, &pp_circuits, SimTime::from_millis(400));
        let own = CommGroup::new(
            railsim_collectives::GroupId(3),
            ParallelismAxis::Data,
            vec![GpuId(0), GpuId(12)],
        );
        let own_circuits = planner.plan(&cluster, &own);
        let ready = ctrl.request_from(1, own.id, &own_circuits, SimTime::from_millis(200));
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
        ctrl.request_from(0, dp.id, &dp_circuits, SimTime::ZERO);
        ctrl.occupy_for(0, &dp_circuits, SimTime::from_millis(300));
        // Equal waits (both zero): tenant 1 may not evict and waits like FC-FS, so a
        // provisioned request could not be back-dated past the hold either.
        assert_eq!(
            ctrl.ports_free_for(1, &pp_circuits),
            SimTime::from_millis(300)
        );
        let ready = ctrl.request_from(1, pp.id, &pp_circuits, SimTime::from_millis(150));
        assert_eq!(ready, SimTime::from_millis(325));
        assert_eq!(ctrl.evictions_inflicted_by(1), 0);
        assert_eq!(
            ctrl.tenant_wait(1),
            railsim_sim::SimDuration::from_millis(150),
            "the FC-FS wait entered tenant 1's fairness ledger"
        );
        // Now tenant 0 re-takes the port and holds it; tenant 1 has waited more, so
        // its next (circuit-changing) request displaces the hold instead of waiting.
        ctrl.occupy_for(0, &dp_circuits, SimTime::from_millis(900));
        let other = CommGroup::new(
            railsim_collectives::GroupId(3),
            ParallelismAxis::Data,
            vec![GpuId(0), GpuId(12)],
        );
        let other_circuits = planner.plan(&cluster, &other);
        assert_eq!(
            ctrl.ports_free_for(1, &other_circuits),
            SimTime::ZERO,
            "the longer waiter's back-dating skips the evictable hold"
        );
        assert_eq!(
            ctrl.ports_free_for(0, &other_circuits),
            SimTime::from_millis(900),
            "a tenant never skips its own hold"
        );
        let ready = ctrl.request_from(1, other.id, &other_circuits, SimTime::from_millis(400));
        assert_eq!(
            ready,
            SimTime::from_millis(425),
            "the longer waiter cuts the line"
        );
        assert_eq!(ctrl.evictions_suffered_by(0), 1);
        assert_eq!(ctrl.evictions_inflicted_by(1), 1);
    }

    #[test]
    fn take_events_drains_the_log() {
        let (cluster, mut ctrl, planner) = setup();
        let group = dp_group(1, &[0, 4]);
        let circuits = planner.plan(&cluster, &group);
        ctrl.request(group.id, &circuits, SimTime::ZERO);
        assert_eq!(ctrl.take_events().len(), 1);
        assert!(ctrl.events().is_empty());
        assert_eq!(ctrl.total_reconfigs(), 0, "total follows the drained log");
        assert_eq!(
            ctrl.lifetime_reconfigs(),
            1,
            "lifetime counts survive drains"
        );
        assert_eq!(ctrl.lifetime_reconfigs_on_rail(RailId(0)), 1);
        assert_eq!(ctrl.lifetime_reconfigs_on_rail(RailId(3)), 0);
    }
}
