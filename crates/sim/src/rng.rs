//! Deterministic pseudo-random number generation.
//!
//! The simulator must be reproducible: the same seed must generate the same
//! trace and the same simulation on every platform and every run. We therefore
//! ship a small, self-contained xoshiro256** generator (public domain
//! algorithm by Blackman & Vigna) seeded through SplitMix64, instead of
//! depending on a generator whose stream might change across crate versions.

/// A deterministic xoshiro256** PRNG.
///
/// # Examples
///
/// ```
/// use esp_sim::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the distribution is
    /// exactly uniform.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_in range is inverted");
        lo + self.next_below(hi - lo + 1)
    }
}

/// A Zipf(θ)-distributed sampler over `{0, 1, ..., n-1}` where rank 0 is the
/// most popular item.
///
/// Uses the standard YCSB/Gray et al. closed-form approximation, which needs
/// O(1) memory and O(1) time per sample — important because workload
/// footprints reach millions of logical pages.
///
/// `theta = 0` degenerates to the uniform distribution; `theta = 0.99` is the
/// YCSB default for highly skewed ("hot/cold") access patterns.
///
/// # Examples
///
/// ```
/// use esp_sim::{Rng, Zipf};
///
/// let zipf = Zipf::new(1000, 0.99);
/// let mut rng = Rng::seed_from(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^θ`: a scaled draw below this (and at least 1) is rank 1.
    rank1_below: f64,
}

impl Zipf {
    /// Creates a sampler over `n` items with skew `theta` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `[0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            rank1_below: 1.0 + 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; Euler–Maclaurin style approximation for
        // large n keeps construction O(1)-ish while staying accurate enough
        // for workload skew purposes.
        const DIRECT_LIMIT: u64 = 100_000;
        if n <= DIRECT_LIMIT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=DIRECT_LIMIT)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            // Integral of x^-theta from DIRECT_LIMIT to n.
            let a = DIRECT_LIMIT as f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the hottest item.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.theta == 0.0 {
            return rng.next_below(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below && self.n >= 2 {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Rng::seed_from(9);
        for _ in 0..10_000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    fn next_in_is_inclusive() {
        let mut rng = Rng::seed_from(10);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.next_in(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::seed_from(11);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_tracks_probability() {
        let mut rng = Rng::seed_from(12);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = Rng::seed_from(13);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(1_000, 0.99);
        let mut rng = Rng::seed_from(14);
        let mut head = 0u32;
        const SAMPLES: u32 = 100_000;
        for _ in 0..SAMPLES {
            if zipf.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With theta=0.99, the top 10% of items should attract far more than
        // 10% of accesses (empirically ~70%+).
        assert!(head > SAMPLES / 2, "head hits: {head}");
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let zipf = Zipf::new(17, 0.7);
        let mut rng = Rng::seed_from(15);
        for _ in 0..50_000 {
            assert!(zipf.sample(&mut rng) < 17);
        }
    }
}
