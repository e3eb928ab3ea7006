//! Opus configuration.

use railsim_sim::{Bandwidth, Bytes, SimDuration};
use serde::{Deserialize, Serialize};

/// Offloading of small, bursty collectives to the host's packet-switched network.
///
/// §5 of the paper suggests that the short synchronization AllReduces toward the end of
/// an iteration — high fan-in, tiny payloads, issued in quick succession along both DP
/// and PP — are a poor fit for circuit switching and "could be off-loaded to the
/// host-based packet switched network". When enabled, scale-out collectives no larger
/// than `threshold` bypass the optical rails entirely and run over the (slower, but
/// always-connected) host network, avoiding reconfigurations that would otherwise be
/// triggered purely by sub-megabyte traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostOffload {
    /// Collectives moving at most this many bytes are offloaded.
    pub threshold: Bytes,
    /// Bandwidth of the host packet-switched network (per node).
    pub bandwidth: Bandwidth,
    /// Per-step latency on the host network (kernel + TCP/RDMA stack + switch hops).
    pub alpha: SimDuration,
}

impl HostOffload {
    /// A typical host frontend network: 100 Gbps with ~50 µs per-step latency, used for
    /// collectives of at most 1 MB.
    pub fn frontend_100g() -> Self {
        HostOffload {
            threshold: Bytes::from_mb(1),
            bandwidth: Bandwidth::from_gbps(100.0),
            alpha: SimDuration::from_micros(50),
        }
    }
}

/// How the scale-out rail network is realized and controlled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReconfigPolicy {
    /// Electrical packet-switched rails: full connectivity, no reconfiguration.
    /// This is the paper's baseline (the `latency = 0` point of Fig. 8).
    Electrical,
    /// Photonic rails with on-demand reconfiguration: the shim requests circuits when a
    /// collective is issued, so the reconfiguration delay sits on the critical path
    /// ("without provisioning" in Fig. 8).
    OnDemand,
    /// Photonic rails with provisioning: after the first (profiling) iteration, if it
    /// sent traffic over the rails, the shim issues speculative requests as soon as
    /// the previous traffic on the affected circuits completes, hiding the delay
    /// inside the inter-parallelism window ("with provisioning" in Fig. 8).
    Provisioned,
}

impl ReconfigPolicy {
    /// True when this policy uses optical circuit switches.
    pub fn is_optical(self) -> bool {
        !matches!(self, ReconfigPolicy::Electrical)
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ReconfigPolicy::Electrical => "electrical baseline",
            ReconfigPolicy::OnDemand => "optical, without provisioning",
            ReconfigPolicy::Provisioned => "optical, with provisioning",
        }
    }
}

/// How a job reacts to a rail failure that takes out circuits its collectives use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Stall until the rail recovers (the pre-replan behavior and the default):
    /// the failed rail's circuits are torn down and every group touching it waits
    /// for `RailUp` before its collectives can complete.
    Stall,
    /// Re-plan around the failure: swap affected groups onto a degraded schedule
    /// that re-stripes the lost rings across the surviving rails (paying one
    /// reconfiguration per swap and the α–β bandwidth penalty of fewer parallel
    /// rails), and swap back to the pristine plan on `RailUp`.
    Replan,
}

impl RecoveryPolicy {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Stall => "stall",
            RecoveryPolicy::Replan => "replan",
        }
    }
}

/// How the controller resolves port contention between tenants sharing an optical
/// rail fabric.
///
/// The controller's conflict-avoidance rule is FC-FS: a reconfiguration request waits
/// until the traffic currently occupying its ports drains. With a single job that is
/// always the right call — the job's own demand order is sequential. With multiple
/// tenants it means an aggressive tenant's long transfers can starve a latency-
/// sensitive one. Eviction policies let a requester *take* another tenant's busy ports
/// instead of waiting (the OCS install then tears the displaced circuits down, exactly
/// as it always has); they never preempt the requester's own traffic, so intra-job
/// ordering stays FC-FS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Never evict: wait for every port to drain (the default — byte-identical to the
    /// single-tenant controller).
    Never,
    /// Always evict other tenants' port holds: the requester only waits for its own
    /// traffic. The displaced tenant re-requests and pays the reconfiguration again —
    /// maximal aggression, useful as the contention upper bound.
    LruTenant,
    /// Evict only tenants that have waited *less* than the requester on that rail so
    /// far: circuit-wait time acts as the fairness currency, so a tenant that has
    /// already absorbed more than its share of waiting gets to cut the line.
    FairShare,
}

impl EvictionPolicy {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Never => "never",
            EvictionPolicy::LruTenant => "lru-tenant",
            EvictionPolicy::FairShare => "fair-share",
        }
    }

    /// True when the policy can displace another tenant's holds.
    pub(crate) fn can_evict(self) -> bool {
        !matches!(self, EvictionPolicy::Never)
    }
}

/// Configuration of one Opus simulation run.
///
/// All fields are public: start from a policy constructor ([`OpusConfig::electrical`],
/// [`OpusConfig::on_demand`], [`OpusConfig::provisioned`]) or [`OpusConfig::default`]
/// and set fields directly, or override some of them with struct-update syntax:
///
/// ```
/// use opus::OpusConfig;
/// use railsim_sim::SimDuration;
///
/// let config = OpusConfig {
///     iterations: 4,
///     compute_jitter: 0.0,
///     seed: 1,
///     ..OpusConfig::provisioned(SimDuration::from_millis(25))
/// };
/// assert!(config.jitter_inert());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpusConfig {
    /// The control policy (electrical baseline, on-demand, or provisioned optical).
    pub policy: ReconfigPolicy,
    /// OCS reconfiguration latency (ignored by the electrical baseline).
    pub reconfig_latency: SimDuration,
    /// Number of training iterations to simulate (at least one: a scenario rejects a
    /// job with zero). Provisioning only becomes active after the first (profiling)
    /// iteration, so Fig. 8 style experiments should run at least two.
    pub iterations: u32,
    /// Multiplicative jitter amplitude applied to compute-task durations, so that
    /// repeated iterations produce a distribution of window sizes rather than a single
    /// point (the paper's Fig. 4 aggregates 10 measured iterations).
    pub compute_jitter: f64,
    /// Seed for the jitter RNG.
    pub seed: u64,
    /// Optional offload of small collectives to the host packet-switched network (§5).
    pub host_offload: Option<HostOffload>,
    /// Steady-state iteration memoization (default: enabled). When the fabric state
    /// at two consecutive iteration boundaries is equal up to the shift between
    /// them — every OCS matching exactly, circuit ready times and port busy ends
    /// relative to the boundary — the simulator stops re-stepping the DAG and
    /// replays the later iteration with a shifted clock. Replayed iterations are
    /// byte-identical to naive stepping (the determinism suites pin this), so the
    /// knob exists for A/B measurement and as an escape hatch, not because results
    /// differ. Memoization never engages with compute jitter, for serving jobs, in
    /// multi-job scenarios, under an evicting policy or across injected external
    /// events; see the [`scenario`](crate::scenario) module docs for the detection
    /// and invalidation semantics.
    pub memoize_steady_state: bool,
    /// How the job reacts to injected rail failures: [`RecoveryPolicy::Stall`] (the
    /// default — wait for recovery, byte-identical to the pre-replan behavior) or
    /// [`RecoveryPolicy::Replan`] (swap affected groups onto a degraded schedule
    /// re-striped across the surviving rails). Ignored by the electrical baseline,
    /// which has no circuits to lose.
    pub recovery_policy: RecoveryPolicy,
    /// How the controller arbitrates optical-port contention between tenants:
    /// [`EvictionPolicy::Never`] (the default — FC-FS waiting, byte-identical to the
    /// single-tenant controller) or an evicting policy that lets one tenant displace
    /// another's circuits. Only meaningful in multi-job optical scenarios; all jobs of
    /// a scenario must agree on it (like `reconfig_latency`).
    pub eviction: EvictionPolicy,
}

impl Default for OpusConfig {
    /// The electrical baseline — the paper's reference point and the only policy with
    /// no free latency parameter, so it is the one configuration that needs no input.
    fn default() -> Self {
        Self::electrical()
    }
}

impl OpusConfig {
    /// The electrical-baseline configuration.
    pub fn electrical() -> Self {
        OpusConfig {
            policy: ReconfigPolicy::Electrical,
            reconfig_latency: SimDuration::ZERO,
            ..Self::default_optical(SimDuration::ZERO)
        }
    }

    /// An optical configuration with on-demand reconfiguration.
    pub fn on_demand(reconfig_latency: SimDuration) -> Self {
        OpusConfig {
            policy: ReconfigPolicy::OnDemand,
            ..Self::default_optical(reconfig_latency)
        }
    }

    /// An optical configuration with provisioning.
    pub fn provisioned(reconfig_latency: SimDuration) -> Self {
        OpusConfig {
            policy: ReconfigPolicy::Provisioned,
            ..Self::default_optical(reconfig_latency)
        }
    }

    fn default_optical(reconfig_latency: SimDuration) -> Self {
        OpusConfig {
            policy: ReconfigPolicy::OnDemand,
            reconfig_latency,
            iterations: 2,
            compute_jitter: 0.03,
            seed: 7,
            host_offload: None,
            memoize_steady_state: true,
            recovery_policy: RecoveryPolicy::Stall,
            eviction: EvictionPolicy::Never,
        }
    }

    /// True when provisioning is active for the given iteration index (the first
    /// iteration always profiles).
    pub(crate) fn provisioning_active(&self, iteration: u32) -> bool {
        self.policy == ReconfigPolicy::Provisioned && iteration >= 1
    }

    /// True when the compute-jitter RNG is inert under this configuration: the
    /// amplitude clamps to zero, so [`SimRng::jitter`] short-circuits to a factor of
    /// 1.0 *without drawing* (mirroring the clamp in `railsim_sim::SimRng`). Steady
    /// iterations then leave the RNG stream untouched, which is a precondition for
    /// memoized replay staying byte-identical to naive stepping.
    ///
    /// [`SimRng::jitter`]: railsim_sim::SimRng::jitter
    pub fn jitter_inert(&self) -> bool {
        self.compute_jitter.clamp(0.0, 0.999_999) == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_electrical_constructor() {
        assert_eq!(OpusConfig::default(), OpusConfig::electrical());
    }

    #[test]
    fn constructors_set_policy() {
        assert_eq!(OpusConfig::electrical().policy, ReconfigPolicy::Electrical);
        assert_eq!(
            OpusConfig::on_demand(SimDuration::from_millis(25)).policy,
            ReconfigPolicy::OnDemand
        );
        assert_eq!(
            OpusConfig::provisioned(SimDuration::from_millis(25)).policy,
            ReconfigPolicy::Provisioned
        );
    }

    #[test]
    fn provisioning_needs_a_profiling_iteration() {
        let cfg = OpusConfig::provisioned(SimDuration::from_millis(15));
        assert!(!cfg.provisioning_active(0));
        assert!(cfg.provisioning_active(1));
        let on_demand = OpusConfig::on_demand(SimDuration::from_millis(15));
        assert!(!on_demand.provisioning_active(5));
    }

    #[test]
    fn policy_properties() {
        assert!(!ReconfigPolicy::Electrical.is_optical());
        assert!(ReconfigPolicy::OnDemand.is_optical());
        assert!(ReconfigPolicy::Provisioned.is_optical());
        assert!(ReconfigPolicy::Provisioned
            .name()
            .contains("with provisioning"));
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        use crate::ScenarioSpec;
        use railsim_topology::{ClusterSpec, NodePreset};
        use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};

        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let dag = DagBuilder::new(model, parallel, compute).build();
        let config = OpusConfig {
            iterations: 0,
            ..OpusConfig::electrical()
        };
        let _ = ScenarioSpec::new(cluster).job(dag, config).run();
    }

    #[test]
    fn memoization_defaults_on_and_can_be_disabled() {
        let base = OpusConfig::provisioned(SimDuration::from_millis(25));
        assert!(base.memoize_steady_state);
        let naive = OpusConfig {
            memoize_steady_state: false,
            ..base
        };
        assert!(!naive.memoize_steady_state);
    }

    #[test]
    fn jitter_inertness_mirrors_the_rng_clamp() {
        let base = OpusConfig::electrical();
        assert!(!base.jitter_inert(), "the default jitter amplitude draws");
        let with_amplitude = |compute_jitter| OpusConfig {
            compute_jitter,
            ..base
        };
        assert!(with_amplitude(0.0).jitter_inert());
        // Negative amplitudes clamp to zero exactly like SimRng::jitter does.
        assert!(with_amplitude(-0.5).jitter_inert());
        assert!(!with_amplitude(f64::NAN).jitter_inert());
    }

    #[test]
    fn recovery_policy_defaults_to_stall() {
        assert_eq!(
            OpusConfig::electrical().recovery_policy,
            RecoveryPolicy::Stall
        );
        assert_eq!(
            OpusConfig::provisioned(SimDuration::from_millis(25)).recovery_policy,
            RecoveryPolicy::Stall
        );
        assert_eq!(RecoveryPolicy::Stall.name(), "stall");
        assert_eq!(RecoveryPolicy::Replan.name(), "replan");
    }

    #[test]
    fn eviction_defaults_to_never() {
        assert_eq!(OpusConfig::electrical().eviction, EvictionPolicy::Never);
        assert_eq!(
            OpusConfig::provisioned(SimDuration::from_millis(25)).eviction,
            EvictionPolicy::Never
        );
        assert!(!EvictionPolicy::Never.can_evict());
        assert!(EvictionPolicy::LruTenant.can_evict());
        assert!(EvictionPolicy::FairShare.can_evict());
        assert_eq!(EvictionPolicy::FairShare.name(), "fair-share");
    }

    #[test]
    fn host_offload_is_opt_in() {
        let base = OpusConfig::provisioned(SimDuration::from_millis(25));
        assert!(base.host_offload.is_none());
        let with = OpusConfig {
            host_offload: Some(HostOffload::frontend_100g()),
            ..base
        };
        assert_eq!(with.host_offload.unwrap().threshold, Bytes::from_mb(1));
        assert!(with.host_offload.unwrap().bandwidth.as_gbps() < 400.0);
    }
}
