//! Data-size and bandwidth units.
//!
//! The paper's traffic analysis mixes several unit conventions: tensor sizes in MB/GB,
//! link speeds in Gbps, and scale-up interconnect bandwidth in GB/s. This module makes
//! those conversions explicit so that the rest of the workspace never multiplies a
//! "gigabyte" by a "gigabit" by accident.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A number of bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a byte count from kibibytes-free decimal kilobytes (1 KB = 1e3 B).
    pub const fn from_kb(kb: u64) -> Self {
        Bytes(kb * 1_000)
    }

    /// Creates a byte count from decimal megabytes (1 MB = 1e6 B).
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// Creates a byte count from decimal gigabytes (1 GB = 1e9 B).
    pub const fn from_gb(gb: u64) -> Self {
        Bytes(gb * 1_000_000_000)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as fractional decimal megabytes.
    pub fn as_mb_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Byte count as fractional decimal gigabytes.
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Number of bits.
    pub(crate) fn as_bits(self) -> u64 {
        self.0.saturating_mul(8)
    }

    /// True when zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(other.0))
    }

    /// Scales the byte count by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> Bytes {
        if factor <= 0.0 || !factor.is_finite() {
            return Bytes::ZERO;
        }
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            Bytes(u64::MAX)
        } else {
            Bytes(scaled.round() as u64)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |acc, b| acc.saturating_add(b))
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GB", self.as_gb_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}MB", self.as_mb_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A link or interconnect bandwidth.
///
/// Stored internally as bits per second. Construct from the unit the datasheet uses:
/// [`Bandwidth::from_gbps`] for network links ("400 Gbps"), [`Bandwidth::from_gbytes_per_sec`]
/// for scale-up interconnects ("NVLink 3.0: 300 GB/s per GPU").
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth {
    bits_per_sec: f64,
}

impl Bandwidth {
    /// Zero bandwidth. Transfers over a zero-bandwidth link never complete; callers are
    /// expected to treat this as "link absent".
    pub const ZERO: Bandwidth = Bandwidth { bits_per_sec: 0.0 };

    /// Creates a bandwidth from bits per second.
    pub fn from_bps(bits_per_sec: f64) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec >= 0.0,
            "bandwidth must be finite and non-negative, got {bits_per_sec}"
        );
        Bandwidth { bits_per_sec }
    }

    /// Creates a bandwidth from gigabits per second (the usual NIC/transceiver unit).
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bps(gbps * 1e9)
    }

    /// Creates a bandwidth from gigabytes per second (the usual scale-up/NVLink unit).
    pub fn from_gbytes_per_sec(gbs: f64) -> Self {
        Self::from_bps(gbs * 8e9)
    }

    /// Bandwidth in bits per second.
    pub fn as_bps(self) -> f64 {
        self.bits_per_sec
    }

    /// Bandwidth in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.bits_per_sec / 1e9
    }

    /// True when the bandwidth is zero.
    pub fn is_zero(self) -> bool {
        self.bits_per_sec == 0.0
    }

    /// Time to serialize `bytes` onto a link of this bandwidth.
    ///
    /// Returns [`SimDuration::MAX`] for a zero-bandwidth link so that a missing link
    /// manifests as "never finishes" rather than a panic deep inside the simulator.
    pub fn transfer_time(self, bytes: Bytes) -> SimDuration {
        if bytes.is_zero() {
            return SimDuration::ZERO;
        }
        if self.is_zero() {
            return SimDuration::MAX;
        }
        let secs = bytes.as_bits() as f64 / self.bits_per_sec;
        SimDuration::from_secs_f64(secs)
    }

    /// Divides the bandwidth evenly among `n` shares (e.g. splitting a 400 Gbps NIC
    /// into four 100 Gbps logical ports). Zero shares yields zero bandwidth.
    pub fn split(self, n: u32) -> Bandwidth {
        if n == 0 {
            Bandwidth::ZERO
        } else {
            Bandwidth {
                bits_per_sec: self.bits_per_sec / n as f64,
            }
        }
    }

    /// Scales the bandwidth by a non-negative factor.
    pub fn scale(self, factor: f64) -> Bandwidth {
        if factor <= 0.0 || !factor.is_finite() {
            return Bandwidth::ZERO;
        }
        Bandwidth {
            bits_per_sec: self.bits_per_sec * factor,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}Gbps", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::from_kb(2), Bytes::new(2_000));
        assert_eq!(Bytes::from_mb(3), Bytes::new(3_000_000));
        assert_eq!(Bytes::from_gb(1), Bytes::new(1_000_000_000));
    }

    #[test]
    fn byte_arithmetic_and_display() {
        let b = Bytes::from_mb(2) + Bytes::from_mb(3);
        assert_eq!(b, Bytes::from_mb(5));
        assert_eq!(b * 2, Bytes::from_mb(10));
        assert_eq!(b / 5, Bytes::from_mb(1));
        assert_eq!(format!("{}", Bytes::new(512)), "512B");
        assert_eq!(format!("{}", Bytes::from_mb(64)), "64.00MB");
        assert_eq!(format!("{}", Bytes::from_gb(4)), "4.00GB");
    }

    #[test]
    fn bandwidth_units_agree() {
        let nic = Bandwidth::from_gbps(400.0);
        assert!((nic.as_bps() - 400e9).abs() < 1e-3);
        let nvlink = Bandwidth::from_gbytes_per_sec(300.0);
        assert!((nvlink.as_gbps() - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_matches_hand_calculation() {
        // 400 Gbps = 50 GB/s, so 1 GB takes 20 ms.
        let nic = Bandwidth::from_gbps(400.0);
        let t = nic.transfer_time(Bytes::from_gb(1));
        assert!((t.as_millis_f64() - 20.0).abs() < 1e-6);
        assert_eq!(nic.transfer_time(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(
            Bandwidth::ZERO.transfer_time(Bytes::new(1)),
            SimDuration::MAX
        );
    }

    #[test]
    fn split_and_scale() {
        let nic = Bandwidth::from_gbps(400.0);
        assert!((nic.split(4).as_gbps() - 100.0).abs() < 1e-9);
        assert!(nic.split(0).is_zero());
        assert!((nic.scale(0.5).as_gbps() - 200.0).abs() < 1e-9);
        assert!(nic.scale(-1.0).is_zero());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite")]
    fn negative_bandwidth_rejected() {
        let _ = Bandwidth::from_gbps(-1.0);
    }

    #[test]
    fn bytes_sum() {
        let total: Bytes = vec![Bytes::from_mb(1), Bytes::from_mb(2)].into_iter().sum();
        assert_eq!(total, Bytes::from_mb(3));
    }
}
