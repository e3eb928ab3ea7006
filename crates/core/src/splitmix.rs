//! splitmix64 (Steele, Lea and Flood, 2014), the standard 64-bit seed expander.
//!
//! The fleet derives its variant seeds and failure traces from it, and serving its
//! request arrivals. Both timelines must be derivable without building a scenario,
//! so they deliberately do not draw from the simulation RNG (`railsim_sim::SimRng`).

/// splitmix64's golden-gamma increment: the state advances by it on every draw.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `[0, bound)`. Modulo bias is irrelevant here: bounds are tiny
    /// (rail counts, outage counts, nanosecond windows, burst sizes) against a 64-bit
    /// stream.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// A uniform draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
