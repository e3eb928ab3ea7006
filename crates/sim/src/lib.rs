//! # railsim-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the `photonic-rails` workspace. It provides the
//! building blocks every other crate relies on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`units`] — byte counts and bandwidths with explicit unit conversions,
//! * [`Engine`] — a minimal discrete-event simulation driver whose pending events are
//!   FIFO lists bucketed by exact timestamp,
//! * [`EventQueue`] — a `(time, sequence)` binary heap, the reference order the
//!   engine's property tests compare against,
//! * [`SimRng`] — a seedable, reproducible random-number generator,
//! * [`stats`] — summary statistics, histograms and empirical CDFs used by the
//!   experiment harness.
//!
//! The design intentionally avoids an async runtime and worker threads: the
//! simulations in this workspace are CPU-bound and must be bit-for-bit reproducible
//! across runs, so one sequential loop over an event set with a `(time, sequence)`
//! total order is both simpler and stricter than task-based concurrency. Parallelism
//! lives one level up, across independent simulations (the `opus` fleet sweep runs
//! variants on a worker pool). (This mirrors the "simplicity and robustness over
//! tricks" philosophy of event-driven network stacks such as smoltcp.)
//!
//! ## Quick example
//!
//! ```
//! use railsim_sim::{Engine, SimDuration, SimTime};
//!
//! // A tiny simulation: three events scheduled out of order, drained in order.
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_after(SimDuration::from_millis(5), "third");
//! engine.schedule_after(SimDuration::from_millis(1), "first");
//! engine.schedule_after(SimDuration::from_millis(3), "second");
//!
//! let mut seen = Vec::new();
//! while let Some((time, event)) = engine.pop() {
//!     seen.push((time, event));
//! }
//! assert_eq!(seen[0].1, "first");
//! assert_eq!(seen[2].1, "third");
//! assert_eq!(engine.now(), SimTime::from_millis(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use engine::Engine;
pub use queue::{EventQueue, Scheduled};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, Bytes};
