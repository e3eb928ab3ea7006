//! Property-based tests for the simulation substrate: time arithmetic, the event
//! queue's total order, the engine's agreement with it and its clock monotonicity, and
//! the statistics helpers.

use proptest::prelude::*;
use railsim_sim::stats::{Cdf, Summary};
use railsim_sim::{Bandwidth, Bytes, Engine, EventQueue, SimDuration, SimTime};

/// Spans of the engine properties' draws, as (root times, follow-up delays) in ns: a
/// few instants, most of them shared, as in the simulator's steady state, or dozens
/// pending at once, as in a multi-tenant run.
const NARROW: (u64, u64) = (8, 3);
const WIDE: (u64, u64) = (10_000, 1_000);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn duration_sum_is_order_independent(mut values in proptest::collection::vec(0u64..1_000_000_000u64, 1..50)) {
        let forward: SimDuration = values.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        values.reverse();
        let backward: SimDuration = values.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn duration_display_roundtrips_magnitude(nanos in 1u64..10_000_000_000_000u64) {
        // Display never panics and always produces a unit suffix.
        let text = SimDuration::from_nanos(nanos).to_string();
        prop_assert!(text.ends_with("ns") || text.ends_with("us") || text.ends_with("ms") || text.ends_with('s'));
    }

    #[test]
    fn transfer_time_is_inverse_in_bandwidth(mb in 1u64..10_000, gbps in 1.0f64..1000.0) {
        let slow = Bandwidth::from_gbps(gbps);
        let fast = Bandwidth::from_gbps(gbps * 2.0);
        let bytes = Bytes::from_mb(mb);
        let t_slow = slow.transfer_time(bytes).as_secs_f64();
        let t_fast = fast.transfer_time(bytes).as_secs_f64();
        prop_assert!((t_slow / t_fast - 2.0).abs() < 1e-3);
    }

    #[test]
    fn engine_clock_never_goes_backwards(delays in proptest::collection::vec(0u64..1_000_000u64, 1..100)) {
        let mut engine: Engine<usize> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0usize;
        while let Some((t, _)) = engine.pop() {
            prop_assert!(t >= last);
            last = t;
            seen += 1;
        }
        prop_assert_eq!(seen, delays.len());
        prop_assert_eq!(engine.processed_events(), delays.len() as u64);
    }

    #[test]
    fn engine_pops_the_event_queue_order(
        schedule in proptest::collection::vec((0u64..10_000u64, 0usize..3usize), 1..300),
        span in prop_oneof![Just(NARROW.0), Just(WIDE.0)],
    ) {
        // The engine must pop exactly the `(time, seq)` order of the reference heap.
        // After each scheduled event a few pops advance the clock, and an event drawn
        // before the clock is scheduled at `now` instead. With the narrow span most
        // events share an instant and most schedules land on the instant being
        // drained, which is the simulator's regime. With the wide span dozens of
        // future instants are pending at once, so their heap decides the order.
        let mut engine: Engine<usize> = Engine::new();
        let mut reference = EventQueue::new();
        let mut popped = Vec::new();
        let mut reference_popped = Vec::new();
        for (i, &(nanos, pops)) in schedule.iter().enumerate() {
            let at = SimTime::from_nanos(nanos % span).max(engine.now());
            engine.schedule_at(at, i);
            reference.push(at, i);
            prop_assert_eq!(engine.pending_events(), reference.len());
            for _ in 0..pops {
                popped.extend(engine.pop());
                reference_popped.extend(reference.pop().map(|s| (s.time, s.event)));
                prop_assert_eq!(engine.pending_events(), reference.len());
            }
        }
        while let Some(event) = engine.pop() {
            popped.push(event);
            reference_popped.extend(reference.pop().map(|s| (s.time, s.event)));
            prop_assert_eq!(engine.pending_events(), reference.len());
        }
        reference_popped.extend(std::iter::from_fn(|| reference.pop()).map(|s| (s.time, s.event)));
        prop_assert_eq!(popped, reference_popped);
        prop_assert_eq!(engine.processed_events(), schedule.len() as u64);
        prop_assert!(engine.is_idle());
        prop_assert_eq!(engine.clamped_events(), 0);
    }

    #[test]
    fn engine_matches_event_queue_with_cascading_events(
        seeds in proptest::collection::vec(0u64..10_000u64, 1..40),
        fanout in 1u32..4u32,
        (span, follow_span) in prop_oneof![Just(NARROW), Just(WIDE)],
    ) {
        // Events scheduled *during* the run (the simulator's Ready -> Done pattern):
        // every popped event below a depth budget schedules follow-ups at now + delta,
        // with delta below `follow_span`. With the narrow spans, zero-delay follow-ups
        // often join the instant being drained; with the wide ones, follow-ups spread
        // over dozens of pending instants, promoted while new ones arrive. The reference
        // replays the same handler over the `(time, seq)` heap in lockstep.
        let follow_ups = |tag: u64, depth: u32| {
            let n = if depth < 3 { fanout } else { 0 };
            (0..u64::from(n)).map(move |f| {
                let delta = SimDuration::from_nanos(tag.wrapping_add(f) % follow_span);
                (delta, (tag.wrapping_mul(31).wrapping_add(f + 1), depth + 1))
            })
        };
        let mut engine: Engine<(u64, u32)> = Engine::new();
        let mut reference = EventQueue::new();
        for &nanos in &seeds {
            let at = SimTime::from_nanos(nanos % span);
            engine.schedule_at(at, (nanos, 0));
            reference.push(at, (nanos, 0));
        }
        loop {
            let got = engine.pop();
            let want = reference.pop().map(|s| (s.time, s.event));
            prop_assert_eq!(got, want);
            let Some((t, (tag, depth))) = got else { break };
            for (delta, event) in follow_ups(tag, depth) {
                engine.schedule_after(delta, event);
                reference.push(t + delta, event);
            }
            prop_assert_eq!(engine.pending_events(), reference.len());
        }
        prop_assert!(engine.is_idle());
        prop_assert_eq!(engine.clamped_events(), 0);
    }

    #[test]
    fn event_queue_len_tracks_pushes_and_pops(times in proptest::collection::vec(0u64..1_000u64, 0..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
            prop_assert_eq!(q.len(), i + 1);
        }
        for i in (0..times.len()).rev() {
            q.pop();
            prop_assert_eq!(q.len(), i);
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn summary_mean_lies_between_min_and_max(samples in proptest::collection::vec(-1e9f64..1e9f64, 1..200)) {
        let s = Summary::from_samples(samples.iter().copied());
        let (min, max, mean) = (s.min().unwrap(), s.max().unwrap(), s.mean().unwrap());
        prop_assert!(min <= mean + 1e-9 && mean <= max + 1e-9);
        let cdf = Cdf::from_samples(samples.iter().copied());
        prop_assert!(cdf.quantile(0.0).unwrap() >= min - 1e-9);
        prop_assert!(cdf.quantile(1.0).unwrap() <= max + 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_bounded(samples in proptest::collection::vec(0f64..1e6f64, 1..200), probe in 0f64..1e6f64) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let f = cdf.fraction_at_or_below(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(cdf.fraction_at_or_below(probe + 1.0) >= f);
        prop_assert!((cdf.fraction_at_or_below(probe) + cdf.fraction_above(probe) - 1.0).abs() < 1e-12);
    }
}
