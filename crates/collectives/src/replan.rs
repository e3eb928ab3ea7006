//! Degraded-schedule planning: re-striping rings around failed rails.
//!
//! The paper's C1 constraint pins circuit-switched rails to ring collectives, and the
//! baseline failure response is brutal: a `RailDown` tears down the rail's circuits
//! and every group that striped a ring across it stalls until the rail recovers. PCCL
//! demonstrates the alternative regime — circuit-switched collectives that re-plan
//! mid-collective around failed links. This module provides the two planning
//! primitives that regime needs:
//!
//! * [`RailStriper`] — a deterministic round-robin assignment of *displaced* rails
//!   (rails whose circuits were lost to a failure) onto the surviving healthy rails,
//!   so a group's parallel rings collapse onto fewer rails without ambiguity. The
//!   assignment depends only on the sorted healthy-rail set and the order in which
//!   displaced rails are submitted, so every shard/thread/worker arrangement of the
//!   simulator derives the same degraded plan.
//! * [`degraded_params`] — the α–β cost adjustment for a collective squeezed onto
//!   fewer parallel rails: the per-step latency α is unchanged (a ring step is a ring
//!   step), but the aggregate bandwidth scales by `degraded_rails / natural_rails`
//!   because the surviving rails now time-share the traffic the lost rails carried.
//!
//! The core scenario driver combines both with the topology's node-mate layout to
//! produce an alternate `GroupCircuits` plan that excludes failed rails; see
//! `opus::scenario` and the `RecoveryPolicy` knob (`Stall` vs `Replan`).

use crate::cost::CostParams;
use railsim_sim::Bandwidth;
use railsim_topology::RailId;

/// Deterministic round-robin assignment of displaced rails onto healthy rails.
///
/// Construction sorts and dedups the healthy set; [`RailStriper::assign`] then hands
/// out healthy rails in cyclic order, one per call. Submitting displaced rails in a
/// deterministic order (e.g. ascending, the iteration order of a
/// `BTreeMap<RailId, _>` plan) therefore yields a deterministic re-striping no matter
/// how the surrounding simulation is sharded or threaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RailStriper {
    healthy: Vec<RailId>,
    cursor: usize,
}

impl RailStriper {
    /// Creates a striper over the given healthy rails (sorted and deduped
    /// internally).
    pub fn new(mut healthy: Vec<RailId>) -> Self {
        healthy.sort_unstable();
        healthy.dedup();
        RailStriper { healthy, cursor: 0 }
    }

    /// True when no healthy rails remain (re-planning is impossible; callers should
    /// fall back to stalling).
    pub fn is_empty(&self) -> bool {
        self.healthy.is_empty()
    }

    /// True when `rail` survived — its circuits can stay where they are.
    pub fn is_healthy(&self, rail: RailId) -> bool {
        self.healthy.binary_search(&rail).is_ok()
    }

    /// Assigns the next healthy rail in round-robin order to a displaced rail.
    /// Returns `None` when no healthy rails exist.
    pub fn assign(&mut self) -> Option<RailId> {
        if self.healthy.is_empty() {
            return None;
        }
        let rail = self.healthy[self.cursor % self.healthy.len()];
        self.cursor += 1;
        Some(rail)
    }
}

/// α–β cost parameters for a collective degraded from `natural_rails` parallel rails
/// down to `degraded_rails`.
///
/// The per-step latency is untouched; the effective bandwidth scales by
/// `degraded_rails / natural_rails`, modeling the surviving rails time-sharing the
/// displaced traffic. With no surviving rails the bandwidth is
/// [`Bandwidth::ZERO`] ("link absent" — the transfer never completes), mirroring a
/// full stall.
///
/// # Panics
/// Panics if `natural_rails` is zero or `degraded_rails > natural_rails`.
pub fn degraded_params(
    params: &CostParams,
    natural_rails: usize,
    degraded_rails: usize,
) -> CostParams {
    assert!(natural_rails > 0, "a plan always spans at least one rail");
    assert!(
        degraded_rails <= natural_rails,
        "a degraded plan cannot span more rails ({degraded_rails}) than the pristine \
         plan ({natural_rails})"
    );
    if degraded_rails == natural_rails {
        return *params;
    }
    let ratio = degraded_rails as f64 / natural_rails as f64;
    CostParams {
        alpha: params.alpha,
        bandwidth: Bandwidth::from_bps(params.bandwidth.as_bps() * ratio),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railsim_sim::SimDuration;

    #[test]
    fn striper_round_robins_over_sorted_healthy_rails() {
        let mut striper = RailStriper::new(vec![RailId(5), RailId(1), RailId(3)]);
        let assigned: Vec<RailId> = (0..5).map(|_| striper.assign().unwrap()).collect();
        assert_eq!(
            assigned,
            vec![RailId(1), RailId(3), RailId(5), RailId(1), RailId(3)]
        );
    }

    #[test]
    fn striper_dedups_and_reports_health() {
        let mut striper = RailStriper::new(vec![RailId(2), RailId(2), RailId(0)]);
        assert!(striper.is_healthy(RailId(0)));
        assert!(striper.is_healthy(RailId(2)));
        assert!(!striper.is_healthy(RailId(1)));
        // The repeated rail 2 is striped onto once per round.
        let assigned: Vec<RailId> = (0..3).map(|_| striper.assign().unwrap()).collect();
        assert_eq!(assigned, [RailId(0), RailId(2), RailId(0)]);
    }

    #[test]
    fn empty_striper_assigns_nothing() {
        let mut striper = RailStriper::new(Vec::new());
        assert!(striper.is_empty());
        assert_eq!(striper.assign(), None);
    }

    #[test]
    fn degraded_params_scale_bandwidth_not_latency() {
        let params = CostParams::new(SimDuration::from_micros(10), Bandwidth::from_gbps(400.0));
        let degraded = degraded_params(&params, 8, 6);
        assert_eq!(degraded.alpha, params.alpha);
        assert!((degraded.bandwidth.as_gbps() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn undegraded_params_are_identical() {
        let params = CostParams::new(SimDuration::from_micros(3), Bandwidth::from_gbps(400.0));
        assert_eq!(degraded_params(&params, 8, 8), params);
    }

    #[test]
    fn fully_degraded_params_have_zero_bandwidth() {
        let params = CostParams::new(SimDuration::from_micros(10), Bandwidth::from_gbps(400.0));
        assert!(degraded_params(&params, 4, 0).bandwidth.is_zero());
    }

    #[test]
    #[should_panic(expected = "cannot span more rails")]
    fn degraded_params_reject_growing_plans() {
        let params = CostParams::new(SimDuration::from_micros(10), Bandwidth::from_gbps(400.0));
        degraded_params(&params, 4, 5);
    }
}
