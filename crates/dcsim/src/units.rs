//! Physical units shared across the workspace: byte counts and bit rates.
//!
//! These are deliberately thin integer newtypes. Congestion-control math that
//! genuinely needs fractions (windows measured in fractional packets, rates
//! mid-update) is done in `f64` by the protocol crates; the *network model*
//! works in whole bytes and bits-per-second so that link serialization times
//! are exact and runs are reproducible across platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::time::Nanos;

/// A count of bytes (payload sizes, queue depths, window sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    ///
    /// The named counterpart of the tuple constructor; code outside this
    /// module should prefer it (simlint rule U3) so grep can find every
    /// point where an untyped integer becomes a byte count.
    #[inline]
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// Construct from kilobytes (10^3 bytes, the unit the paper uses for
    /// queue depths: "a queue of about 100KB"). Saturating.
    #[inline]
    pub const fn from_kb(kb: u64) -> Self {
        Bytes(kb.saturating_mul(1_000))
    }

    /// Construct from megabytes (10^6 bytes; flow sizes like "1MB flows").
    /// Saturating.
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb.saturating_mul(1_000_000))
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64`, for fairness/utilization math.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two byte counts.
    #[inline]
    pub fn max(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.max(rhs.0))
    }

    /// The smaller of two byte counts.
    #[inline]
    pub fn min(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.min(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    /// Saturating: byte counters accumulate over a whole run (delivered
    /// bytes, queue occupancy integrals) and must clamp, not wrap.
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1_000_000 {
            write!(f, "{:.2}MB", b as f64 / 1e6)
        } else if b >= 1_000 {
            write!(f, "{:.1}KB", b as f64 / 1e3)
        } else {
            write!(f, "{b}B")
        }
    }
}

impl Nanos {
    /// Quantize a fractional duration (ns) onto the integer nanosecond grid.
    ///
    /// The sanctioned f64→u64 crossing for times, mirroring
    /// [`BitRate::from_bps_f64`] — but *truncating* rather than rounding,
    /// matching the discretization the congestion-control delay math has
    /// always used (so golden determinism traces are unchanged).
    ///
    /// A NaN or negative input is a bug in the caller's float math, so
    /// debug builds assert on it. Release builds clamp: NaN and negative
    /// values map to zero, `+inf`/overflow saturates at `u64::MAX`
    /// (Rust's float-to-int `as` semantics, which are platform-independent).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the audited float-to-Nanos helper: saturating `as` is the documented rounding"
    )]
    pub fn from_ns_f64(ns: f64) -> Nanos {
        debug_assert!(
            ns.is_finite() && ns >= 0.0,
            "Nanos::from_ns_f64 called with {ns}: durations must be finite and non-negative"
        );
        Nanos(ns as u64)
    }
}

/// A link or injection rate in bits per second.
///
/// 100 Gbps — the paper's host link speed — is 1e11 bps, comfortably inside
/// `u64`. Conversions to serialization delay round to whole nanoseconds;
/// the link model owns sub-nanosecond residue (see `netsim::link`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitRate(pub u64);

impl BitRate {
    /// Zero rate (an idle or fully throttled sender).
    pub const ZERO: BitRate = BitRate(0);

    /// Construct from raw bits per second.
    ///
    /// The named counterpart of the tuple constructor; code outside this
    /// module should prefer it (simlint rule U3) so grep can find every
    /// point where an untyped integer becomes a rate.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        BitRate(bps)
    }

    /// Construct from gigabits per second. Saturating.
    #[inline]
    pub const fn from_gbps(g: u64) -> Self {
        BitRate(g.saturating_mul(1_000_000_000))
    }

    /// Construct from megabits per second (the paper's AI unit: 50 Mbps).
    /// Saturating.
    #[inline]
    pub const fn from_mbps(m: u64) -> Self {
        BitRate(m.saturating_mul(1_000_000))
    }

    /// Quantize a fractional rate (bps) onto the integer rate grid.
    ///
    /// This is the one sanctioned f64→u64 crossing for rates: protocol
    /// crates keep mid-update rates in `f64` and materialize them here.
    /// Rounds to nearest.
    ///
    /// A NaN or negative input is a bug in the caller's rate math, so
    /// debug builds assert on it. Release builds clamp: NaN and negative
    /// values map to zero, `+inf`/overflow saturates at `u64::MAX`
    /// (Rust's float-to-int `as` semantics, which are platform-independent).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the audited float-to-BitRate helper: saturating `as` is the documented rounding"
    )]
    pub fn from_bps_f64(bps: f64) -> Self {
        debug_assert!(
            bps.is_finite() && bps >= 0.0,
            "BitRate::from_bps_f64 called with {bps}: rates must be finite and non-negative"
        );
        BitRate(bps.round() as u64)
    }

    /// Raw bits-per-second value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Rate in bits per second as `f64`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Rate expressed in bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Time to serialize `bytes` at this rate, rounded up to whole ns.
    ///
    /// Rounding *up* guarantees a transmitter never emits faster than the
    /// physical line: 1000 B at 100 Gbps is exactly 80 ns; 1000 B at 400 Gbps
    /// is exactly 20 ns; 1 B at 3 Gbps rounds 2.67 ns up to 3 ns.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "per-packet path: a delay past u64 ns (584 years) cannot occur at any modeled rate"
    )]
    pub fn serialization_delay(self, bytes: Bytes) -> Nanos {
        assert!(self.0 > 0, "serialization delay at zero rate is undefined");
        // delay_ns = bytes * 8 * 1e9 / rate_bps, computed in u128 to avoid
        // overflow (bytes can be a whole flow for ideal-FCT math).
        // simlint: allow(O1) — widened to u128; max is 2^64 * 8e9 < 2^128
        let num = (bytes.0 as u128) * 8 * 1_000_000_000;
        let den = self.0 as u128;
        Nanos(num.div_ceil(den) as u64)
    }

    /// The number of bytes this rate delivers in `dur` (rounded down).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rate * dur / 8e9 fits u64 for any duration and rate a run can reach"
    )]
    pub fn bytes_in(self, dur: Nanos) -> Bytes {
        // simlint: allow(O1) — widened to u128; product of two u64 fits
        let num = (self.0 as u128) * (dur.0 as u128);
        // simlint: allow(O1) — constant divisor product 8e9 fits in u128
        Bytes((num / (8 * 1_000_000_000)) as u64)
    }

    /// Bandwidth-delay product for a given round-trip time.
    ///
    /// This is the paper's `Token_Thresh` default: "the minimum BDP of the
    /// network, which is about 50KB" for 100 Gbps and a ~4 µs base RTT.
    #[inline]
    pub fn bdp(self, rtt: Nanos) -> Bytes {
        self.bytes_in(rtt)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        if r >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", r as f64 / 1e9)
        } else if r >= 1_000_000 {
            write!(f, "{:.1}Mbps", r as f64 / 1e6)
        } else {
            write!(f, "{r}bps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::from_kb(50), Bytes(50_000));
        assert_eq!(Bytes::from_mb(1), Bytes(1_000_000));
    }

    #[test]
    fn serialization_delay_exact_cases() {
        // The two link speeds in the paper.
        let host = BitRate::from_gbps(100);
        let fabric = BitRate::from_gbps(400);
        assert_eq!(host.serialization_delay(Bytes(1000)), Nanos(80));
        assert_eq!(fabric.serialization_delay(Bytes(1000)), Nanos(20));
    }

    #[test]
    fn serialization_delay_rounds_up() {
        // 1 byte at 3 Gbps = 8/3 ns -> 3 ns.
        assert_eq!(
            BitRate::from_gbps(3).serialization_delay(Bytes(1)),
            Nanos(3)
        );
    }

    #[test]
    fn serialization_delay_huge_flow_no_overflow() {
        // A 10 GB flow at 100 Gbps takes 0.8 s.
        let r = BitRate::from_gbps(100);
        let d = r.serialization_delay(Bytes(10_000_000_000));
        assert_eq!(d, Nanos(800_000_000));
    }

    #[test]
    #[should_panic(expected = "zero rate")]
    fn serialization_delay_zero_rate_panics() {
        let _ = BitRate::ZERO.serialization_delay(Bytes(1));
    }

    #[test]
    fn bytes_in_matches_rate() {
        let r = BitRate::from_gbps(100); // 12.5 B/ns
        assert_eq!(r.bytes_in(Nanos(80)), Bytes(1000));
        assert_eq!(r.bytes_in(Nanos(1)), Bytes(12)); // floor(12.5)
    }

    #[test]
    fn bdp_matches_paper_token_thresh() {
        // 100 Gbps and a 4us RTT give the ~50KB minimum BDP quoted in VI-A.
        let bdp = BitRate::from_gbps(100).bdp(Nanos::from_micros(4));
        assert_eq!(bdp, Bytes(50_000));
    }

    #[test]
    fn f64_crossings_quantize() {
        assert_eq!(Nanos::from_ns_f64(2.9), Nanos(2)); // truncates
        assert_eq!(Nanos::from_ns_f64(0.0), Nanos::ZERO);
        assert_eq!(BitRate::from_bps_f64(2.5), BitRate(3)); // rounds
        assert_eq!(BitRate::from_bps_f64(1e11), BitRate::from_gbps(100));
    }

    #[test]
    fn saturating_unit_arithmetic() {
        assert_eq!(Bytes(u64::MAX) + Bytes(1), Bytes(u64::MAX));
        let mut b = Bytes(u64::MAX);
        b += Bytes(1);
        assert_eq!(b, Bytes(u64::MAX));
        assert_eq!(Bytes::from_mb(u64::MAX), Bytes(u64::MAX));
        assert_eq!(BitRate::from_gbps(u64::MAX), BitRate(u64::MAX));
    }

    #[cfg(debug_assertions)]
    mod f64_crossing_debug_guards {
        use super::*;

        #[test]
        #[should_panic(expected = "finite and non-negative")]
        fn from_ns_f64_nan_asserts() {
            let _ = Nanos::from_ns_f64(f64::NAN);
        }

        #[test]
        #[should_panic(expected = "finite and non-negative")]
        fn from_ns_f64_negative_asserts() {
            let _ = Nanos::from_ns_f64(-1.0);
        }

        #[test]
        #[should_panic(expected = "finite and non-negative")]
        fn from_bps_f64_nan_asserts() {
            let _ = BitRate::from_bps_f64(f64::NAN);
        }

        #[test]
        #[should_panic(expected = "finite and non-negative")]
        fn from_bps_f64_infinite_asserts() {
            let _ = BitRate::from_bps_f64(f64::INFINITY);
        }
    }

    #[cfg(not(debug_assertions))]
    mod f64_crossing_release_clamps {
        use super::*;

        #[test]
        fn from_ns_f64_clamps_bad_inputs() {
            assert_eq!(Nanos::from_ns_f64(f64::NAN), Nanos::ZERO);
            assert_eq!(Nanos::from_ns_f64(-5.0), Nanos::ZERO);
            assert_eq!(Nanos::from_ns_f64(f64::INFINITY), Nanos::MAX);
        }

        #[test]
        fn from_bps_f64_clamps_bad_inputs() {
            assert_eq!(BitRate::from_bps_f64(f64::NAN), BitRate::ZERO);
            assert_eq!(BitRate::from_bps_f64(-5.0), BitRate::ZERO);
            assert_eq!(BitRate::from_bps_f64(f64::INFINITY), BitRate(u64::MAX));
        }
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", Bytes(512)), "512B");
        assert_eq!(format!("{}", Bytes(50_000)), "50.0KB");
        assert_eq!(format!("{}", Bytes(2_500_000)), "2.50MB");
        assert_eq!(format!("{}", BitRate::from_gbps(100)), "100.00Gbps");
        assert_eq!(format!("{}", BitRate::from_mbps(50)), "50.0Mbps");
    }
}
