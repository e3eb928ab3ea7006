//! Micro-benchmark: throughput of the discrete-event engine, the substrate every
//! simulation in the workspace runs on, next to the `(time, seq)` heap it reproduces.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use railsim_sim::{Engine, EventQueue, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                // Pseudo-random but deterministic times exercise heap reordering.
                let t = (i * 2_654_435_761) % 1_000_000;
                q.push(SimTime::from_nanos(t), i);
            }
            let mut total = 0u64;
            while let Some(ev) = q.pop() {
                total = total.wrapping_add(black_box(ev.event));
            }
            total
        })
    });
}

fn bench_engine_cascade(c: &mut Criterion) {
    c.bench_function("engine_cascading_events_100k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            engine.schedule_at(SimTime::ZERO, 0);
            let mut count = 0u64;
            engine.run(|eng, _t, ev| {
                count += 1;
                if ev < 100_000 {
                    eng.schedule_after(SimDuration::from_nanos(10), ev + 1);
                }
            });
            black_box(count)
        })
    });
}

fn bench_engine_same_instant_fanout(c: &mut Criterion) {
    // The simulator's regime: 1k chains of 10 events over a handful of timestamps.
    // Roots start on 4 instants; each event's follow-up alternates between a
    // zero-delay one at `now` (Done -> Ready) and one a fixed 1 us later
    // (Ready -> Done), so most schedules land on the instant being drained.
    c.bench_function("engine_same_instant_fanout_10k", |b| {
        b.iter(|| {
            let mut engine: Engine<u32> = Engine::new();
            for chain in 0..1_000u32 {
                let at = SimTime::from_micros(u64::from(chain % 4));
                engine.schedule_at(at, chain * 10);
            }
            let mut total = 0u64;
            engine.run(|eng, _t, ev| {
                total = total.wrapping_add(u64::from(black_box(ev)));
                match ev % 10 {
                    9 => {}
                    step if step % 2 == 0 => eng.schedule_now(ev + 1),
                    _ => eng.schedule_after(SimDuration::from_micros(1), ev + 1),
                }
            });
            total
        })
    });
}

fn bench_engine_spread_instants(c: &mut Criterion) {
    // Mixed tenancy's regime: the same 1k chains of 10 events, but roots start on 220
    // instants and each future follow-up lands 1-220 ns later, the delay hashed from
    // the event. About 150 future instants stay pending (147 on average when a
    // schedule looks its instant up, as mixed tenancy's 155), where the fan-out bench
    // keeps 2.
    c.bench_function("engine_spread_instants_10k", |b| {
        b.iter(|| {
            let mut engine: Engine<u32> = Engine::new();
            for chain in 0..1_000u32 {
                engine.schedule_at(SimTime::from_nanos(u64::from(chain % 220)), chain * 10);
            }
            let mut total = 0u64;
            engine.run(|eng, _t, ev| {
                total = total.wrapping_add(u64::from(black_box(ev)));
                match ev % 10 {
                    9 => {}
                    step if step % 2 == 0 => eng.schedule_now(ev + 1),
                    _ => {
                        let delay = 1 + u64::from(ev).wrapping_mul(2_654_435_761) % 220;
                        eng.schedule_after(SimDuration::from_nanos(delay), ev + 1)
                    }
                }
            });
            total
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_engine_cascade,
    bench_engine_same_instant_fanout,
    bench_engine_spread_instants
);
criterion_main!(benches);
