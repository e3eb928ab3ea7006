//! The discrete-event simulation driver.
//!
//! [`Engine`] owns the pending events plus the simulation clock. Callers drive the
//! simulation explicitly with [`Engine::pop`] (pull style) or [`Engine::run`] (push
//! style with a handler closure). The engine never runs events "in the past": popping
//! an event advances the clock to that event's timestamp, and scheduling an event
//! before the current time is a logic error that panics in debug builds and is clamped
//! to `now` in release builds.
//!
//! ## Timestamp buckets
//!
//! Events pop in `(time, scheduling order)` order — exactly the order of the
//! [`EventQueue`](crate::EventQueue) binary heap keyed on `(time, seq)` — but the
//! engine stores neither value per event. Every timestamp after the current time has a
//! FIFO list of its own. Scheduling appends to the list of the event's exact timestamp,
//! and scheduling order *is* sequence order, so every list is already sorted. The
//! earliest future list is held aside. The later ones are found by timestamp in a hash
//! map, and a min-heap of their timestamps alone decides which comes next. When the
//! current time's events are done, the held list is promoted: the clock advances to
//! its timestamp, and the heap's earliest timestamp, whose list leaves the map, is held
//! aside next.
//!
//! An event scheduled at the current time, or clamped to it, joins no list. It was
//! scheduled after every event of the promoted list, so it waits in a plain FIFO queue
//! that pops once the promoted list is empty.
//!
//! The workspace's simulations repeat one traffic pattern across replicas and
//! iterations, so millions of events share a few thousand distinct timestamps: almost
//! every schedule appends to an existing list or to the FIFO (the zero-delay
//! follow-ups), and the map stays small. A multi-tenant run still keeps over a hundred
//! instants pending, which is why they are found by hash rather than by an ordered
//! search. Holding the earliest future list outside the map keeps the opposite extreme
//! cheap too: a chain with one future instant at a time never touches the map. The
//! future lists thread through one slab of `(event, next)` nodes with a free list and
//! the FIFO is a ring buffer, so a running simulation allocates nothing per event.
//!
//! ```
//! use railsim_sim::{Engine, SimTime};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_at(SimTime::from_millis(2), "later");
//! engine.schedule_at(SimTime::from_millis(1), "first");
//! engine.schedule_at(SimTime::from_millis(1), "second");
//! let (t, e) = engine.pop().unwrap();
//! assert_eq!((t, e), (SimTime::from_millis(1), "first"));
//! // A zero-delay follow-up joins the instant behind what is already due.
//! engine.schedule_now("third");
//!
//! let rest: Vec<_> = std::iter::from_fn(|| engine.pop()).map(|(_, e)| e).collect();
//! assert_eq!(rest, vec!["second", "third", "later"]);
//! ```

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// End-of-list marker for slab indices.
const NIL: u32 = u32::MAX;

/// One slab slot: a pending event (`None` while the slot is on the free list) and the
/// index of the next slot in its list.
#[derive(Debug)]
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// A FIFO list of slab slots, by head and tail index.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(&self) -> bool {
        self.head == NIL
    }

    fn push_back<E>(&mut self, nodes: &mut [Node<E>], node: u32) {
        match self.tail {
            NIL => self.head = node,
            tail => nodes[tail as usize].next = node,
        }
        self.tail = node;
    }
}

/// Hashes a [`SimTime`], a single `u64`, with one multiply: the instants map needs no
/// defence against chosen keys, and SipHash would cost more than the lookup it serves.
#[derive(Default)]
struct InstantHasher(u64);

impl Hasher for InstantHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The product's high bits depend on every bit of the key; move them down to
        // the bits the table indexes by.
        self.0.rotate_left(26)
    }
}

/// A minimal deterministic discrete-event simulation engine.
///
/// `E` is the caller-defined event type. See the crate-level documentation for an
/// end-to-end example and the module documentation for the data structure.
#[derive(Debug)]
pub struct Engine<E> {
    /// Every future list's nodes; free slots chain from `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// The promoted list: events that were scheduled for `now` before the clock
    /// reached it, in scheduling order.
    due: List,
    /// Events scheduled at `now` since the clock reached it, in scheduling order. They
    /// pop after `due`.
    now_queue: VecDeque<E>,
    /// The earliest timestamp after `now` and its events (an empty list when nothing
    /// is scheduled after `now`).
    next: (SimTime, List),
    /// Events due after `next`'s timestamp, one list per exact timestamp.
    later: HashMap<SimTime, List, BuildHasherDefault<InstantHasher>>,
    /// Every key of `later`, once each: the order in which they are promoted.
    instants: BinaryHeap<Reverse<SimTime>>,
    now: SimTime,
    pending: usize,
    processed: u64,
    clamped: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            nodes: Vec::new(),
            free: NIL,
            due: List::EMPTY,
            now_queue: VecDeque::new(),
            next: (SimTime::ZERO, List::EMPTY),
            later: HashMap::default(),
            instants: BinaryHeap::new(),
            now: SimTime::ZERO,
            pending: 0,
            processed: 0,
            clamped: 0,
        }
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
    ///
    /// Release builds clamp instead of panicking so the simulation makes progress, but
    /// a non-zero count means the caller's event logic violated causality; correctness
    /// guards (the scenario driver, the determinism suite) assert this stays zero.
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// True when no events are pending.
    pub fn is_idle(&self) -> bool {
        self.pending == 0
    }

    /// Schedules `event` at the absolute time `at`, after every event already
    /// scheduled for that instant.
    ///
    /// Scheduling in the past is a logic error: it panics in debug builds; in release
    /// builds the event is clamped to fire "now", behind everything already due now,
    /// so the simulation still makes progress, and the clamp is counted in
    /// [`Engine::clamped_events`] so callers can assert it never happened.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: at={at} now={}",
            self.now
        );
        self.pending += 1;
        if at <= self.now {
            if at < self.now {
                self.clamped += 1;
            }
            self.now_queue.push_back(event);
            return;
        }
        let node = self.alloc(event);
        let (next_at, next) = self.next;
        let list = if next.is_empty() || at < next_at {
            // `at` becomes the earliest future instant.
            if !next.is_empty() {
                self.later.insert(next_at, next);
                self.instants.push(Reverse(next_at));
            }
            self.next = (at, List::EMPTY);
            &mut self.next.1
        } else if at == next_at {
            &mut self.next.1
        } else {
            match self.later.entry(at) {
                Entry::Occupied(list) => list.into_mut(),
                Entry::Vacant(slot) => {
                    self.instants.push(Reverse(at));
                    slot.insert(List::EMPTY)
                }
            }
        };
        list.push_back(&mut self.nodes, node);
    }

    /// Schedules `event` to fire `after` the current simulated time.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        self.schedule_at(self.now.saturating_add(after), event);
    }

    /// Schedules `event` to fire immediately (at the current simulated time), after all
    /// events already scheduled for this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() {
            if let Some(event) = self.now_queue.pop_front() {
                return Some(self.popped(event));
            }
            let (time, list) = self.next;
            if list.is_empty() {
                return None;
            }
            self.now = time;
            self.due = list;
            self.next = match self.instants.pop() {
                Some(Reverse(at)) => {
                    let list = self.later.remove(&at).expect("a heap instant has a list");
                    (at, list)
                }
                None => (time, List::EMPTY),
            };
        }
        let idx = self.due.head;
        let slot = &mut self.nodes[idx as usize];
        let event = slot.event.take().expect("a listed slot holds an event");
        self.due.head = slot.next;
        if self.due.head == NIL {
            self.due.tail = NIL;
        }
        slot.next = self.free;
        self.free = idx;
        Some(self.popped(event))
    }

    /// Counts `event` out of the pending set and returns it with its timestamp.
    fn popped(&mut self, event: E) -> (SimTime, E) {
        self.pending -= 1;
        self.processed += 1;
        (self.now, event)
    }

    /// Runs the simulation to completion, invoking `handler` for every event.
    ///
    /// The handler receives `&mut Engine` so it can schedule follow-up events.
    /// Returns the final simulated time.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Engine<E>, SimTime, E)) -> SimTime {
        while let Some((time, event)) = self.pop() {
            handler(self, time, event);
        }
        self.now
    }

    /// Stores `event` in a slab slot — the most recently freed one, or a new one —
    /// and returns the slot's index, unlinked.
    fn alloc(&mut self, event: E) -> u32 {
        let node = Node {
            event: Some(event),
            next: NIL,
        };
        if self.free == NIL {
            assert!(
                self.nodes.len() < NIL as usize,
                "more than u32::MAX - 1 events pending"
            );
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            self.free = slot.next;
            *slot = node;
            idx
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    fn drain<E>(engine: &mut Engine<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| engine.pop()).collect()
    }

    #[test]
    fn run_processes_cascading_events() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(1), Ev::Tick(0));
        let mut ticks = Vec::new();
        engine.run(|eng, _t, ev| {
            if let Ev::Tick(n) = ev {
                ticks.push(n);
                if n < 4 {
                    eng.schedule_after(SimDuration::from_millis(2), Ev::Tick(n + 1));
                } else {
                    eng.schedule_now(Ev::Stop);
                }
            }
        });
        assert_eq!(ticks, vec![0, 1, 2, 3, 4]);
        // 1ms + 4 * 2ms = 9ms final time.
        assert_eq!(engine.now(), SimTime::from_millis(9));
        assert_eq!(engine.processed_events(), 6);
        assert_eq!(engine.clamped_events(), 0);
    }

    #[test]
    fn run_drives_cascading_events() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(1), 0u32);
        // Queued up front for the instant the third bounce lands on, so it
        // was scheduled first and must pop ahead of that bounce.
        engine.schedule_at(SimTime::from_millis(7), 100);
        let mut seen = Vec::new();
        engine.run(|eng, _t, n| {
            seen.push(n);
            if n < 5 {
                eng.schedule_after(SimDuration::from_millis(3), n + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 100, 2, 3, 4, 5]);
        assert_eq!(engine.now(), SimTime::from_millis(16));
        assert_eq!(engine.clamped_events(), 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), "late");
        engine.schedule_at(SimTime::from_millis(2), "early");
        let (t1, _) = engine.pop().unwrap();
        let (t2, _) = engine.pop().unwrap();
        assert!(t2 >= t1);
        assert_eq!(engine.now(), SimTime::from_millis(10));
        assert!(engine.is_idle());
    }

    #[test]
    fn clock_advances_to_popped_timestamps() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), "late");
        engine.schedule_at(SimTime::from_millis(2), "early");
        assert_eq!(engine.now(), SimTime::ZERO);
        assert_eq!(engine.pop(), Some((SimTime::from_millis(2), "early")));
        assert_eq!(engine.now(), SimTime::from_millis(2));
        engine.schedule_now("now");
        assert_eq!(engine.pop(), Some((SimTime::from_millis(2), "now")));
        assert_eq!(engine.now(), SimTime::from_millis(2));
        assert_eq!(engine.pop(), Some((SimTime::from_millis(10), "late")));
        assert_eq!(engine.now(), SimTime::from_millis(10));
        // Draining leaves the clock where the last event fired.
        assert_eq!(engine.pop(), None);
        assert_eq!(engine.now(), SimTime::from_millis(10));
    }

    #[test]
    fn scheduling_at_now_queues_behind_pending_events() {
        let mut engine = Engine::new();
        let t = SimTime::from_millis(5);
        engine.schedule_at(t, "a");
        engine.schedule_at(t, "b");
        engine.schedule_at(SimTime::from_millis(6), "next instant");
        assert_eq!(engine.pop(), Some((t, "a")));
        // The clock advanced to `t`; `b` is already due there.
        engine.schedule_now("c");
        engine.schedule_at(t, "d");
        engine.schedule_after(SimDuration::ZERO, "e");
        let order: Vec<_> = drain(&mut engine).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "c", "d", "e", "next instant"]);
    }

    #[test]
    fn drain_and_refill_reuses_nodes_in_order() {
        let mut engine = Engine::new();
        for round in 0..3u32 {
            let base = engine.now();
            // Interleave two future instants; from the second round on, their lists
            // are built from slots the previous round freed.
            for i in 0..8u32 {
                let at = base + SimDuration::from_nanos(u64::from(2 - i % 2));
                engine.schedule_at(at, (round, i));
            }
            assert_eq!(engine.pending_events(), 8);
            let first: Vec<_> = (0..3).map(|_| engine.pop().unwrap().1).collect();
            assert_eq!(first, vec![(round, 1), (round, 3), (round, 5)]);
            assert_eq!(engine.pending_events(), 5);
            // Refill while half drained: freed slots come back into both lists.
            engine.schedule_now((round, 8));
            engine.schedule_at(base + SimDuration::from_nanos(2), (round, 9));
            assert_eq!(engine.pending_events(), 7);
            let rest: Vec<_> = drain(&mut engine).into_iter().map(|(_, e)| e).collect();
            let expected: Vec<_> = [7, 8, 0, 2, 4, 6, 9].map(|i| (round, i)).to_vec();
            assert_eq!(rest, expected);
            assert!(engine.is_idle());
            assert_eq!(engine.pending_events(), 0);
        }
        assert_eq!(engine.processed_events(), 30);
        // At most eight events were ever pending at once: freed slots were reused
        // instead of growing the slab.
        assert_eq!(engine.nodes.len(), 8);
    }

    #[test]
    #[should_panic(expected = "scheduled an event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), ());
        engine.pop();
        engine.schedule_at(SimTime::from_millis(1), ());
    }

    #[test]
    fn well_behaved_schedules_never_clamp() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(1), 1u32);
        engine.schedule_after(SimDuration::from_millis(2), 2);
        engine.run(|_, _, _| {});
        assert_eq!(engine.clamped_events(), 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_is_clamped_behind_due_events_and_counted_in_release() {
        let mut engine = Engine::new();
        let t = SimTime::from_millis(10);
        engine.schedule_at(t, 0u32);
        engine.schedule_at(t, 1);
        engine.pop();
        engine.schedule_now(2);
        engine.schedule_at(SimTime::from_millis(1), 3);
        assert_eq!(engine.clamped_events(), 1);
        // Clamped to now, not the past, and behind every event already due now: the
        // one scheduled for `t` before the clock got there and the one scheduled at it.
        assert_eq!(drain(&mut engine), vec![(t, 1), (t, 2), (t, 3)]);
    }
}
