//! The sharded discrete-event engine for cluster-scale simulations.
//!
//! A single [`EventQueue`](crate::EventQueue) binary heap stops scaling around the
//! paper's 16-GPU testbed: every push/pop churns one huge heap, and the working set
//! falls out of cache long before the Fig. 7 / Table 3 regime (1k–10k GPUs). The
//! [`ShardedEngine`] splits the pending-event set into independent lanes — one per
//! rail in the Opus simulator — and merges them deterministically on pop. The lanes
//! are a memory-locality measure, not a concurrency one: events are still popped
//! one at a time by a single sequential loop. (Forcing one lane left every simulated
//! result unchanged and measured ~8–9 % slower on the 10k-GPU single-job and 4k-GPU
//! mixed-tenancy benchmark workloads; see EXPERIMENTS.md, "1M-GPU regime".)
//!
//! ## Determinism
//!
//! Every event, whichever shard it lands in, draws its sequence number from one
//! *global* counter. The merge pops the shard whose head has the smallest
//! `(time, seq)` key, which is exactly the total order a single queue would have
//! produced for the same schedule calls. Two consequences:
//!
//! * the sharded engine is a drop-in replacement: byte-identical simulation output
//!   regardless of the shard count (guarded by the sharded-vs-single-queue property
//!   tests), and
//! * the `(time, shard, seq)` triple is still a total order — `seq` alone already
//!   breaks every tie — so shard assignment is free to be a pure load-balancing
//!   decision.
//!
//! ## Example
//!
//! ```
//! use railsim_sim::{ShardId, ShardedEngine, SimTime};
//!
//! let mut engine: ShardedEngine<&'static str> = ShardedEngine::new(4);
//! engine.schedule_at(ShardId(3), SimTime::from_millis(2), "rail3");
//! engine.schedule_at(ShardId(0), SimTime::from_millis(1), "rail0");
//! engine.schedule_at(ShardId(3), SimTime::from_millis(1), "rail3-too");
//!
//! let order: Vec<_> = std::iter::from_fn(|| engine.pop()).map(|(_, e)| e).collect();
//! // Same time => insertion order, across shards.
//! assert_eq!(order, vec!["rail0", "rail3-too", "rail3"]);
//! ```

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Index of an event lane in a [`ShardedEngine`].
///
/// The Opus simulator keys lanes by rail (`RailId(r)` runs on `ShardId(r)`); the
/// engine itself treats the id as an opaque lane index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// A deterministic discrete-event engine with one event lane per shard.
///
/// Semantically identical to [`Engine`](crate::Engine) — same clock rules, same
/// `(time, seq)` total order — but pending events are partitioned into per-shard
/// heaps so each lane stays small and cache-resident at 10k-GPU scale.
#[derive(Debug)]
pub struct ShardedEngine<E> {
    shards: Vec<EventQueue<E>>,
    /// Global insertion counter shared by all shards; guarantees the cross-shard merge
    /// reproduces the single-queue total order.
    next_seq: u64,
    now: SimTime,
    processed: u64,
    clamped: u64,
    pending: usize,
}

impl<E> ShardedEngine<E> {
    /// Creates an engine with `num_shards` lanes and the clock at [`SimTime::ZERO`].
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "a sharded engine needs at least one shard");
        ShardedEngine {
            shards: (0..num_shards).map(|_| EventQueue::new()).collect(),
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
            pending: 0,
        }
    }

    /// Number of event lanes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed_events(&self) -> u64 {
        self.processed
    }

    /// Number of events that were scheduled in the past and clamped to fire "now".
    /// See [`Engine::clamped_events`](crate::Engine::clamped_events); the sharded
    /// merge relies on this staying zero and the Opus simulator asserts it.
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }

    /// Number of events still pending across all shards.
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// Number of events pending in one shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn pending_in_shard(&self, shard: ShardId) -> usize {
        self.shards[shard.index()].len()
    }

    /// True when no events are pending in any shard.
    pub fn is_idle(&self) -> bool {
        self.pending == 0
    }

    /// Wraps a raw lane index into a valid [`ShardId`] by taking it modulo the shard
    /// count. This is how callers with more keys than shards fold their key space
    /// onto the lanes.
    pub fn shard_for(&self, key: u32) -> ShardId {
        ShardId(key % self.shards.len() as u32)
    }

    /// Schedules `event` on `shard` at the absolute time `at`.
    ///
    /// Scheduling in the past is a logic error: it panics in debug builds; release
    /// builds clamp to `now` and count the clamp (see [`ShardedEngine::clamped_events`]).
    ///
    /// # Panics
    /// Panics if `shard` is out of range (any build), or if `at` is in the past
    /// (debug builds).
    pub fn schedule_at(&mut self, shard: ShardId, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: at={at} now={}",
            self.now
        );
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[shard.index()].push_with_seq(at, seq, event);
        self.pending += 1;
    }

    /// Schedules `event` on `shard` to fire `after` the current simulated time.
    pub fn schedule_after(&mut self, shard: ShardId, after: SimDuration, event: E) {
        let at = self.now.saturating_add(after);
        self.schedule_at(shard, at, event);
    }

    /// Schedules `event` on `shard` at the current simulated time, after everything
    /// already scheduled for this instant (on any shard).
    pub fn schedule_now(&mut self, shard: ShardId, event: E) {
        self.schedule_at(shard, self.now, event);
    }

    /// The shard whose head event merges next, by smallest `(time, seq)` key.
    ///
    /// The scan is O(#shards); shards are few (one per rail) and the per-shard heaps
    /// stay small, which is the point of sharding.
    fn next_shard(&self) -> Option<usize> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some((time, seq)) = shard.peek_key() {
                let better = match best {
                    None => true,
                    Some((bt, bs, _)) => (time, seq) < (bt, bs),
                };
                if better {
                    best = Some((time, seq, i));
                }
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Pops the globally next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_shard().map(|(time, _, event)| (time, event))
    }

    /// Pops the globally next event together with the shard it came from.
    pub fn pop_with_shard(&mut self) -> Option<(SimTime, ShardId, E)> {
        let idx = self.next_shard()?;
        let scheduled = self.shards[idx].pop().expect("peeked shard must pop");
        self.now = scheduled.time;
        self.processed += 1;
        self.pending -= 1;
        Some((scheduled.time, ShardId(idx as u32), scheduled.event))
    }

    /// The timestamp of the globally next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_shard().and_then(|i| self.shards[i].peek_time())
    }

    /// Runs the simulation to completion, invoking `handler` for every event.
    ///
    /// The handler receives `&mut ShardedEngine` so it can schedule follow-up events
    /// on any shard. Returns the final simulated time.
    pub fn run(
        &mut self,
        mut handler: impl FnMut(&mut ShardedEngine<E>, SimTime, ShardId, E),
    ) -> SimTime {
        while let Some((time, shard, event)) = self.pop_with_shard() {
            handler(self, time, shard, event);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_global_insertion_order_on_ties() {
        let mut engine = ShardedEngine::new(8);
        let t = SimTime::from_millis(5);
        for i in 0..64u32 {
            // Scatter ties across shards; global seq must still order them.
            engine.schedule_at(ShardId(i % 8), t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| engine.pop())
            .map(|(_, e)| e)
            .collect();
        let expected: Vec<_> = (0..64).collect();
        assert_eq!(order, expected);
        assert_eq!(engine.processed_events(), 64);
        assert!(engine.is_idle());
    }

    #[test]
    fn clock_advances_to_popped_timestamps() {
        let mut engine = ShardedEngine::new(2);
        engine.schedule_at(ShardId(1), SimTime::from_millis(10), "late");
        engine.schedule_at(ShardId(0), SimTime::from_millis(2), "early");
        assert_eq!(engine.peek_time(), Some(SimTime::from_millis(2)));
        let (t, shard, e) = engine.pop_with_shard().unwrap();
        assert_eq!(
            (t, shard, e),
            (SimTime::from_millis(2), ShardId(0), "early")
        );
        engine.pop();
        assert_eq!(engine.now(), SimTime::from_millis(10));
    }

    #[test]
    fn run_drives_cascading_cross_shard_events() {
        let mut engine = ShardedEngine::new(4);
        engine.schedule_at(ShardId(0), SimTime::from_millis(1), 0u32);
        let mut seen = Vec::new();
        engine.run(|eng, _t, _shard, n| {
            seen.push(n);
            if n < 5 {
                // Hop to a different shard every bounce.
                let next = eng.shard_for(n + 1);
                eng.schedule_after(next, SimDuration::from_millis(3), n + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(engine.now(), SimTime::from_millis(16));
        assert_eq!(engine.clamped_events(), 0);
    }

    #[test]
    fn pending_counts_track_shards() {
        let mut engine: ShardedEngine<()> = ShardedEngine::new(3);
        engine.schedule_at(ShardId(2), SimTime::from_millis(1), ());
        engine.schedule_at(ShardId(2), SimTime::from_millis(2), ());
        engine.schedule_at(ShardId(0), SimTime::from_millis(3), ());
        assert_eq!(engine.pending_events(), 3);
        assert_eq!(engine.pending_in_shard(ShardId(2)), 2);
        assert_eq!(engine.pending_in_shard(ShardId(1)), 0);
        engine.pop();
        assert_eq!(engine.pending_events(), 2);
    }

    #[test]
    fn shard_for_wraps_keys() {
        let engine: ShardedEngine<()> = ShardedEngine::new(3);
        assert_eq!(engine.shard_for(0), ShardId(0));
        assert_eq!(engine.shard_for(5), ShardId(2));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _: ShardedEngine<()> = ShardedEngine::new(0);
    }
}
