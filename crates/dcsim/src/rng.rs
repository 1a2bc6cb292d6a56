//! Deterministic random numbers for simulations.
//!
//! Every scenario run owns a [`DetRng`] seeded from a single `u64`. Distinct
//! subsystems (workload sampling, ECMP hashing, RED marking, probabilistic
//! feedback) should each take an independent *stream* split off the scenario
//! seed so that, e.g., adding one extra RED draw cannot perturb the flow
//! arrival sequence. Streams are derived with SplitMix64, the standard seed
//! expander, so nearby seeds still yield statistically independent streams.
//!
//! The core generator is an in-repo xoshiro256++ (Blackman & Vigna): fast,
//! non-cryptographic, 256-bit state — exactly what a network simulator
//! needs, with no external dependency so the workspace builds hermetically.

/// Stream label for workload sampling (flow arrivals, sizes).
pub const WORKLOAD_STREAM: u64 = 0;
/// Stream label for ECMP path hashing.
pub const ECMP_STREAM: u64 = 1;
/// Stream label for RED marking draws.
pub const RED_STREAM: u64 = 2;
/// Stream label for probabilistic feedback draws.
pub const FEEDBACK_STREAM: u64 = 3;
// Stream 4 is fault injection; netsim::fault owns FAULT_STREAM so the
// constant lives next to the code it disciplines.

/// SplitMix64 step: used for seed derivation only, never as the main RNG.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, splittable random number generator.
///
/// Internally xoshiro256++ plus the ability to derive independent child
/// generators by label.
pub struct DetRng {
    state: [u64; 4],
    seed: u64,
}

impl std::fmt::Debug for DetRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetRng").field("seed", &self.seed).finish()
    }
}

impl DetRng {
    /// Create a generator from a scenario seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        // Expand the u64 into the 256-bit state deterministically. SplitMix64
        // guarantees the expanded state is never all-zero for any seed.
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        DetRng { state, seed }
    }

    /// The seed this generator (or stream) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream.
    ///
    /// `label` identifies the consumer; use the named constants
    /// ([`WORKLOAD_STREAM`], [`ECMP_STREAM`], [`RED_STREAM`],
    /// [`FEEDBACK_STREAM`], `netsim::fault::FAULT_STREAM`) rather than raw
    /// numbers so assignments stay auditable. The
    /// child depends only on
    /// `(seed, label)`, never on how much randomness the parent has already
    /// consumed, which keeps subsystems decoupled.
    pub fn stream(&self, label: u64) -> DetRng {
        let mut s = self.seed ^ label.rotate_left(17).wrapping_mul(0xA24B_AED4_963E_E407);
        let derived = splitmix64(&mut s);
        DetRng::new(derived)
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper half of a 64-bit step).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Lemire's method: the low 64 bits of the 128-bit product are the rejection test"
    )]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift method with rejection for exact uniformity.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform index in `[0, len)`: [`below`](Self::below) for slice
    /// indexing, drawing exactly what `below(len as u64)` draws. Panics if
    /// `len == 0`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the draw is below `len`, itself a usize"
    )]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for Poisson arrival processes; mean is in whatever unit the
    /// caller works in (we use nanoseconds between flow arrivals).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse-CDF; (1 - u) avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn matches_xoshiro256plusplus_reference() {
        // Reference vector: state seeded as [1, 2, 3, 4] produces this
        // prefix (from the xoshiro256++ reference implementation).
        let mut r = DetRng::new(0);
        r.state = [1, 2, 3, 4];
        let expect: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for e in expect {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn streams_are_independent_of_parent_consumption() {
        let parent1 = DetRng::new(7);
        let mut parent2 = DetRng::new(7);
        // Burn randomness on parent2 before splitting.
        for _ in 0..100 {
            parent2.next_u64();
        }
        let mut c1 = parent1.stream(3);
        let mut c2 = parent2.stream(3);
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn distinct_stream_labels_differ() {
        let root = DetRng::new(9);
        let mut a = root.stream(0);
        let mut b = root.stream(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut a = DetRng::new(3);
        let mut b = DetRng::new(3);
        let mut buf = [0u8; 13];
        a.fill_bytes(&mut buf);
        let full = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &full);
        assert_ne!(&buf[8..], &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(21);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(5);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = DetRng::new(19);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.index(8)] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "got {c}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_is_calibrated() {
        let mut r = DetRng::new(11);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn exp_mean_is_calibrated() {
        let mut r = DetRng::new(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(500.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 500.0).abs() < 10.0, "got {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exp_rejects_nonpositive_mean() {
        DetRng::new(1).exp(0.0);
    }
}
