//! Health state of the scale-out rails.
//!
//! A rail fails as a unit: its switch (electrical) or OCS (photonic) stops carrying
//! traffic, and every circuit riding it is lost. [`RailHealth`] is the fleet-level
//! up/down bookkeeping shared by both fabric kinds — the scenario driver flips rails
//! down and up from its injected-event timeline, and the simulator gates transfers on
//! the affected rails until recovery.
//!
//! Because scenario timelines are declared up front, a failure can carry its *scheduled
//! recovery time* ([`RailHealth::fail`]'s `recover_at`). That lets the simulator answer
//! "from when on can this rail carry new traffic?" in closed form
//! ([`RailHealth::available_from`]) instead of parking events, which keeps the
//! discrete-event engine's `(time, seq)` order — and therefore determinism —
//! untouched by fault injection.

use crate::ids::RailId;
use railsim_sim::{SimDuration, SimTime};

/// Per-rail up/down state plus lifetime failure counters.
#[derive(Debug, Clone)]
pub struct RailHealth {
    /// `None` — the rail is up. `Some(recover_at)` — the rail is down and scheduled to
    /// recover at `recover_at` (`SimTime::MAX` when no recovery is scheduled).
    down_until: Vec<Option<SimTime>>,
    /// When the current outage began (meaningful only while down).
    down_since: Vec<SimTime>,
    /// Lifetime failures per rail.
    failures: Vec<u64>,
    /// Lifetime accumulated downtime per rail (closed outages only; an outage still in
    /// progress is added at [`RailHealth::recover`]).
    downtime: Vec<SimDuration>,
}

impl RailHealth {
    /// Creates the health state for `num_rails` rails, all up.
    pub fn new(num_rails: usize) -> Self {
        RailHealth {
            down_until: vec![None; num_rails],
            down_since: vec![SimTime::ZERO; num_rails],
            failures: vec![0; num_rails],
            downtime: vec![SimDuration::ZERO; num_rails],
        }
    }

    /// Number of rails tracked.
    pub fn num_rails(&self) -> usize {
        self.down_until.len()
    }

    /// True when the rail is up.
    ///
    /// # Panics
    /// Panics if `rail` is out of range.
    pub fn is_up(&self, rail: RailId) -> bool {
        self.down_until[rail.index()].is_none()
    }

    /// Marks `rail` as failed at `now`. `recover_at` is the scheduled recovery time,
    /// when known (`None` = no recovery scheduled). Failing an already-down rail only
    /// tightens its recovery time; it is not counted as a second failure.
    ///
    /// # Panics
    /// Panics if `rail` is out of range.
    pub fn fail(&mut self, rail: RailId, now: SimTime, recover_at: Option<SimTime>) {
        let until = recover_at.unwrap_or(SimTime::MAX);
        let slot = &mut self.down_until[rail.index()];
        match slot {
            Some(existing) => *existing = (*existing).max(until),
            None => {
                *slot = Some(until);
                self.down_since[rail.index()] = now;
                self.failures[rail.index()] += 1;
            }
        }
    }

    /// Marks `rail` as recovered at `now`, closing the outage and accumulating its
    /// downtime.
    ///
    /// Recovering an up rail is a scheduling bug in the caller's injection timeline —
    /// a `RailUp` with no outstanding outage — and fires a `debug_assert` so it
    /// surfaces in tests; release builds tolerate it as a no-op. Callers whose
    /// timelines can legitimately produce stray recoveries (overlapping outage pulses
    /// collapse into one outage, leaving the later `RailUp` with nothing to close)
    /// should gate on [`RailHealth::is_up`] first.
    ///
    /// # Panics
    /// Panics if `rail` is out of range.
    pub fn recover(&mut self, rail: RailId, now: SimTime) {
        debug_assert!(
            !self.is_up(rail),
            "recover() called on healthy rail {rail:?}: stray RailUp in the injection timeline"
        );
        if self.down_until[rail.index()].take().is_some() {
            let since = self.down_since[rail.index()];
            self.downtime[rail.index()] =
                self.downtime[rail.index()].saturating_add(now.duration_since(since.min(now)));
        }
    }

    /// Iterates over the rails currently up, in ascending rail order.
    pub fn healthy_rails(&self) -> impl Iterator<Item = RailId> + '_ {
        self.down_until
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_none().then_some(RailId(i as u32)))
    }

    /// The earliest time at or after which `rail` can carry new traffic: `None` when
    /// the rail is up (available immediately), otherwise its scheduled recovery time
    /// (`SimTime::MAX` when the outage has no scheduled end).
    pub fn available_from(&self, rail: RailId) -> Option<SimTime> {
        self.down_until[rail.index()]
    }

    /// Lifetime failures per rail (index == rail id).
    pub fn failures_by_rail(&self) -> &[u64] {
        &self.failures
    }

    /// Accumulated downtime per rail (index == rail id; closed outages only).
    pub fn downtime_by_rail(&self) -> &[SimDuration] {
        &self.downtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rails_start_up() {
        let h = RailHealth::new(4);
        assert_eq!(h.num_rails(), 4);
        assert!((0..4).all(|r| h.is_up(RailId(r))));
        assert_eq!(h.failures_by_rail(), [0; 4]);
    }

    #[test]
    fn fail_and_recover_track_counters_and_downtime() {
        let mut h = RailHealth::new(2);
        h.fail(
            RailId(0),
            SimTime::from_millis(10),
            Some(SimTime::from_millis(60)),
        );
        assert!(!h.is_up(RailId(0)));
        assert!(h.is_up(RailId(1)));
        assert_eq!(h.healthy_rails().collect::<Vec<_>>(), [RailId(1)]);
        assert_eq!(h.available_from(RailId(0)), Some(SimTime::from_millis(60)));
        assert_eq!(h.available_from(RailId(1)), None);

        h.recover(RailId(0), SimTime::from_millis(60));
        assert!(h.is_up(RailId(0)));
        assert_eq!(h.failures_by_rail(), [1, 0]);
        assert_eq!(h.downtime_by_rail()[0], SimDuration::from_millis(50));
    }

    #[test]
    fn unscheduled_outage_reports_max_availability() {
        let mut h = RailHealth::new(1);
        h.fail(RailId(0), SimTime::ZERO, None);
        assert_eq!(h.available_from(RailId(0)), Some(SimTime::MAX));
    }

    #[test]
    fn healthy_rails_iterates_the_up_set_in_order() {
        let mut h = RailHealth::new(4);
        assert_eq!(
            h.healthy_rails().collect::<Vec<_>>(),
            vec![RailId(0), RailId(1), RailId(2), RailId(3)]
        );
        h.fail(RailId(2), SimTime::ZERO, None);
        h.fail(RailId(0), SimTime::ZERO, None);
        assert_eq!(
            h.healthy_rails().collect::<Vec<_>>(),
            vec![RailId(1), RailId(3)]
        );
        h.recover(RailId(0), SimTime::from_millis(1));
        assert_eq!(
            h.healthy_rails().collect::<Vec<_>>(),
            vec![RailId(0), RailId(1), RailId(3)]
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stray RailUp")]
    fn stray_recover_asserts_in_debug_builds() {
        let mut h = RailHealth::new(1);
        h.recover(RailId(0), SimTime::from_millis(5));
    }

    #[test]
    fn double_fail_is_one_outage() {
        let mut h = RailHealth::new(1);
        h.fail(
            RailId(0),
            SimTime::from_millis(10),
            Some(SimTime::from_millis(20)),
        );
        h.fail(
            RailId(0),
            SimTime::from_millis(15),
            Some(SimTime::from_millis(40)),
        );
        assert_eq!(h.failures_by_rail()[0], 1);
        assert_eq!(h.available_from(RailId(0)), Some(SimTime::from_millis(40)));
        h.recover(RailId(0), SimTime::from_millis(40));
        assert_eq!(h.downtime_by_rail()[0], SimDuration::from_millis(30));
    }
}
