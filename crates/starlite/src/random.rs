//! Seeded random processes for workload generation.
//!
//! All randomness in a simulation flows through a [`RandomSource`] seeded
//! from the run configuration, which makes each run a pure function of its
//! seed. Independent sub-streams (one per site, one per generator) are
//! obtained with [`RandomSource::split`] so adding a consumer never perturbs
//! the draws seen by another.

use std::fmt;

use crate::time::SimDuration;

/// xoshiro256++ with SplitMix64 seeding — the same construction
/// `rand::rngs::SmallRng::seed_from_u64` uses on 64-bit targets, inlined so
/// the kernel has no external dependency. Deterministic across platforms.
#[derive(Clone)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the four state words; the
        // all-zero state (unreachable from SplitMix64 output) is excluded.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256PlusPlus {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A deterministic random source.
///
/// # Example
///
/// ```
/// use starlite::RandomSource;
/// let mut a = RandomSource::new(42);
/// let mut b = RandomSource::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub struct RandomSource {
    rng: Xoshiro256PlusPlus,
    seed: u64,
}

impl fmt::Debug for RandomSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomSource")
            .field("seed", &self.seed)
            .finish()
    }
}

impl RandomSource {
    /// Creates a source from a seed.
    pub fn new(seed: u64) -> Self {
        RandomSource {
            rng: Xoshiro256PlusPlus::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this source was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream; deterministic in the parent's
    /// current state.
    pub fn split(&mut self) -> RandomSource {
        // Mix so that consecutive splits land far apart in seed space.
        let child = self.rng.next_u64() ^ 0x9E37_79B9_7F4A_7C15;
        RandomSource::new(child)
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, as rand's `Standard` distribution does.
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty uniform range");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            // Full u64 domain.
            return self.rng.next_u64();
        }
        // Lemire's widening-multiply mapping with rejection of the biased
        // low zone, so every value in the span is exactly equally likely.
        // The zone is `2^64 mod span` values long, less than `span`, so a
        // low word at or above `span` is accepted without computing it.
        let mut wide = self.rng.next_u64() as u128 * span as u128;
        if (wide as u64) < span {
            let threshold = span.wrapping_neg() % span;
            while (wide as u64) < threshold {
                wide = self.rng.next_u64() as u128 * span as u128;
            }
        }
        lo + ((wide >> 64) as u64)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.unit() < p
    }

    /// Exponentially distributed duration with the given mean (inverse
    /// transform sampling); used for the paper's exponentially distributed
    /// interarrival times.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        assert!(!mean.is_zero(), "exponential mean must be positive");
        // u ∈ (0, 1]; -ln(u) is Exp(1).
        let u = 1.0 - self.unit();
        let ticks = (-(u.ln()) * mean.ticks() as f64).round();
        // Clamp to at least one tick so arrivals keep a total order that
        // does not depend on float rounding of near-zero gaps.
        SimDuration::from_ticks((ticks as u64).max(1))
    }

    /// Samples `n` distinct values uniformly from `[0, universe)` using
    /// Floyd's algorithm; used to draw a transaction's data-object set
    /// "uniformly from the database".
    ///
    /// The result is in sampling order (not sorted).
    ///
    /// # Panics
    ///
    /// Panics if `n > universe`.
    pub fn sample_distinct(&mut self, n: usize, universe: u64) -> Vec<u64> {
        assert!(
            (n as u64) <= universe,
            "cannot sample {n} distinct values from a universe of {universe}"
        );
        let mut chosen: Vec<u64> = Vec::with_capacity(n);
        // Floyd's algorithm: for j in universe-n..universe, pick t in [0, j];
        // insert t unless already chosen, else insert j.
        for j in (universe - n as u64)..universe {
            let t = self.uniform_inclusive(0, j);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        // Shuffle so access order is unbiased.
        self.shuffle(&mut chosen);
        chosen
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.is_empty() {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.uniform_inclusive(0, i as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Picks one element of `items` uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        let idx = self.uniform_inclusive(0, items.len() as u64 - 1) as usize;
        &items[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RandomSource::new(7);
        let mut b = RandomSource::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_deterministic_and_distinct() {
        let mut a = RandomSource::new(7);
        let mut b = RandomSource::new(7);
        let mut ca = a.split();
        let mut cb = b.split();
        assert_eq!(ca.next_u64(), cb.next_u64());
        // Parent and child produce different streams.
        assert_ne!(a.next_u64(), ca.next_u64());
    }

    /// Lemire's mapping with the rejection threshold computed on every
    /// call: the reference `uniform_inclusive` must match draw for draw.
    fn uniform_by_division(r: &mut RandomSource, lo: u64, hi: u64) -> u64 {
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            return r.next_u64();
        }
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = r.next_u64() as u128 * span as u128;
            if (wide as u64) >= threshold {
                return lo + ((wide >> 64) as u64);
            }
        }
    }

    #[test]
    fn uniform_inclusive_matches_the_division_form_draw_for_draw() {
        // Spans 1, 2, 3, 2^32 + 1, 2^63 + 1 (which rejects about half its
        // draws) and the full u64 range.
        let ranges = [
            (5, 5),
            (0, 1),
            (7, 9),
            (0, 1 << 32),
            (3, (1 << 63) + 3),
            (0, u64::MAX),
        ];
        for (lo, hi) in ranges {
            let mut fast = RandomSource::new(21);
            let mut reference = RandomSource::new(21);
            for i in 0..10_000 {
                assert_eq!(
                    fast.uniform_inclusive(lo, hi),
                    uniform_by_division(&mut reference, lo, hi),
                    "draw {i} of [{lo}, {hi}]"
                );
            }
            // Both consumed the same raw draws.
            assert_eq!(fast.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = RandomSource::new(11);
        let mean = SimDuration::from_ticks(1_000);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.exponential(mean).ticks()).sum();
        let observed = total as f64 / n as f64;
        assert!(
            (observed - 1_000.0).abs() < 30.0,
            "observed mean {observed} too far from 1000"
        );
    }

    #[test]
    fn exponential_is_at_least_one_tick() {
        let mut r = RandomSource::new(3);
        for _ in 0..1_000 {
            assert!(r.exponential(SimDuration::from_ticks(2)).ticks() >= 1);
        }
    }

    #[test]
    fn sample_distinct_yields_distinct_in_range() {
        let mut r = RandomSource::new(5);
        for _ in 0..100 {
            let s = r.sample_distinct(10, 30);
            assert_eq!(s.len(), 10);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 10, "duplicates in {s:?}");
            assert!(s.iter().all(|&v| v < 30));
        }
    }

    #[test]
    fn sample_distinct_full_universe_is_permutation() {
        let mut r = RandomSource::new(5);
        let mut s = r.sample_distinct(8, 8);
        s.sort_unstable();
        assert_eq!(s, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_is_roughly_uniform() {
        let mut r = RandomSource::new(17);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            for v in r.sample_distinct(3, 10) {
                counts[v as usize] += 1;
            }
        }
        // Each of the 10 values should appear ~3000 times.
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (2_700..=3_300).contains(&c),
                "value {v} count {c} outside tolerance"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = RandomSource::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "distinct values")]
    fn oversized_sample_panics() {
        let mut r = RandomSource::new(1);
        r.sample_distinct(5, 4);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut r = RandomSource::new(2);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
