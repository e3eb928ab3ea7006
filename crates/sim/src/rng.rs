//! Seedable, reproducible randomness.
//!
//! Every stochastic element of the simulator (compute-time jitter, synthetic traffic
//! perturbation, fault injection) draws from a [`SimRng`], which is a thin wrapper over
//! ChaCha8 seeded explicitly by the experiment harness. Two runs with the same seed and
//! the same inputs produce identical traces, which is what lets EXPERIMENTS.md quote
//! exact numbers.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic random number generator for simulations.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator. Children created with distinct labels
    /// produce independent streams, so subsystems can be given their own RNG without
    /// coupling their draws to each other's call order.
    pub fn derive(&self, label: u64) -> SimRng {
        // Mix the label into the seed with splitmix64-style finalization.
        let mut z = self.seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Samples a value uniformly from `range`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen_bool(p)
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
        1.0 + self.gen_range(-a..=a)
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
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
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let parent = SimRng::new(7);
        let mut c1 = parent.derive(1);
        let mut c1_again = parent.derive(1);
        let mut c2 = parent.derive(2);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(SimRng::new(7).derive(1).next_u64(), c2.next_u64());
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

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-1.0));
        assert!(rng.gen_bool(2.0));
    }
}
