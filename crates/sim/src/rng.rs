//! Seedable, reproducible randomness.
//!
//! The simulator's one stochastic element, compute-time jitter, draws from a
//! [`SimRng`], which is a thin wrapper over ChaCha8 seeded explicitly by the
//! experiment harness. Two runs with the same seed and the same inputs produce
//! identical traces, which is what lets EXPERIMENTS.md quote exact numbers. Timelines
//! that must be derivable without building a scenario (fleet failure traces and
//! variant seeds, serving arrivals) use a splitmix64 stream in `opus` instead.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic random number generator for simulations.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Samples a multiplicative jitter factor in `[1 - amplitude, 1 + amplitude]`.
    ///
    /// Used to perturb analytic compute/communication times so that synthetic traces
    /// are not unrealistically clean. `amplitude` is clamped to `[0, 1)`.
    pub fn jitter(&mut self, amplitude: f64) -> f64 {
        let a = amplitude.clamp(0.0, 0.999_999);
        if a == 0.0 {
            return 1.0;
        }
        1.0 + self.inner.gen_range(-a..=a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.jitter(0.5), b.jitter(0.5));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<f64> = (0..10).map(|_| a.jitter(0.5)).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.jitter(0.5)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn jitter_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let j = rng.jitter(0.1);
            assert!((0.9..=1.1).contains(&j), "jitter {j} out of bounds");
        }
        assert_eq!(rng.jitter(0.0), 1.0);
    }
}
