//! HDR-style latency histograms.
//!
//! [`HdrHistogram`] is the streaming percentile accumulator behind every
//! latency the simulator reports, in text and in `BENCH_*.json` alike:
//! log2 major buckets refined by 16 linear sub-buckets, giving percentile
//! estimates with at most ~6.25 % relative error at fixed memory (no
//! sample retention).

use std::fmt;

/// Linear sub-buckets per power-of-two major bucket (2^4).
const SUB_BUCKETS: u64 = 16;
const SUB_BITS: u32 = 4;
/// Index space: values 0..16 exact, then 16 sub-buckets for each of the
/// 60 possible major buckets (msb 4..=63).
const BUCKET_COUNT: usize = (SUB_BUCKETS + 60 * SUB_BUCKETS) as usize;

/// A log-bucketed (HDR-style) histogram for latency-like `u64` values.
///
/// Values below 16 are counted exactly; larger values land in one of 16
/// linear sub-buckets of their power-of-two range, so any percentile
/// estimate is within one sub-bucket (≤ 1/16 relative error) of the exact
/// sample percentile. Memory is fixed (~7.6 KiB) regardless of sample
/// count.
///
/// # Examples
///
/// ```
/// use esp_sim::HdrHistogram;
///
/// let mut h = HdrHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(0.50);
/// // Within one sub-bucket of the exact median (500).
/// assert!((469..=531).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Clone)]
pub struct HdrHistogram {
    buckets: Box<[u64; BUCKET_COUNT]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram {
            buckets: Box::new([0; BUCKET_COUNT]),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl fmt::Debug for HdrHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HdrHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

/// Index of the bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = (v >> shift) - SUB_BUCKETS; // top 4 bits after the leading 1
        (u64::from(msb - SUB_BITS) * SUB_BUCKETS + SUB_BUCKETS + sub) as usize
    }
}

/// Smallest value mapping to bucket `idx`.
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        idx
    } else {
        let major = (idx - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (idx - SUB_BUCKETS) % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << major
    }
}

impl HdrHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the lower bound of
    /// the sub-bucket containing the rank-`⌈qN⌉` sample — i.e. within one
    /// sub-bucket of the exact sample percentile. Clamped to the recorded
    /// min/max so estimates never fall outside the observed range.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &HdrHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The standard percentile summary reported in `BENCH_*.json`.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            min: self.min,
            max: self.max,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }
}

impl fmt::Display for HdrHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p95={} p99={} p999={}",
            self.count,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99),
            self.percentile(0.999),
        )
    }
}

/// A percentile snapshot of an [`HdrHistogram`] (the latency block of a
/// `BENCH_*.json` run entry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for q in [0.1f64, 0.5, 0.9] {
            let exact = ((16.0 * q).ceil() as u64).max(1) - 1;
            assert_eq!(h.percentile(q), exact);
        }
    }

    #[test]
    fn bucket_roundtrip() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1023,
            1024,
            1 << 40,
            u64::MAX,
        ] {
            let idx = bucket_of(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > v {v}");
            // The bucket above starts past v.
            if idx + 1 < BUCKET_COUNT {
                assert!(bucket_floor(idx + 1) > v, "v {v} spills into next bucket");
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = HdrHistogram::new();
        let mut vals: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 1_000_000 + 1).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.95, 0.99, 0.999] {
            let rank = ((vals.len() as f64 * q).ceil() as usize).max(1) - 1;
            let exact = vals[rank];
            let est = h.percentile(q);
            assert!(est <= exact);
            let err = (exact - est) as f64 / exact as f64;
            assert!(
                err <= 1.0 / 16.0 + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn percentiles_clamped_to_observed_range() {
        let mut h = HdrHistogram::new();
        h.record(100);
        assert_eq!(h.percentile(0.0), 100);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn merge_matches_sequential() {
        let mut whole = HdrHistogram::new();
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        for i in 0..1000u64 {
            let v = i * 13 % 777 + 1;
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.percentile(q), whole.percentile(q));
        }
    }

    /// Full-state equality: two histograms agree on every bucket and every
    /// derived statistic, not just on a few spot-checked percentiles.
    fn assert_same(a: &HdrHistogram, b: &HdrHistogram, what: &str) {
        assert_eq!(a.count(), b.count(), "{what}: count");
        assert_eq!(a.min(), b.min(), "{what}: min");
        assert_eq!(a.max(), b.max(), "{what}: max");
        assert_eq!(a.sum, b.sum, "{what}: sum");
        assert_eq!(a.buckets, b.buckets, "{what}: buckets");
    }

    /// Property test for fleet-level aggregation: merging per-shard (or
    /// per-arm, or per-core) histograms must give the same result in any
    /// order and with any grouping, so fleet percentiles never depend on
    /// the order devices happen to report in.
    #[test]
    fn merge_is_order_independent_and_associative() {
        let mut rng = crate::Rng::seed_from(0x9136_5EED);
        for trial in 0..32 {
            // A fleet of 2–6 histograms with wildly different shapes,
            // including empty ones.
            let parts: Vec<HdrHistogram> = (0..2 + trial % 5)
                .map(|_| {
                    let mut h = HdrHistogram::new();
                    for _ in 0..rng.next_below(200) {
                        // Span many orders of magnitude so bucket edges get
                        // exercised, not just the exact small-value range.
                        let v = rng.next_u64() >> rng.next_below(64);
                        h.record(v);
                    }
                    h
                })
                .collect();

            // Left fold in presentation order.
            let mut forward = HdrHistogram::new();
            for p in &parts {
                forward.merge(p);
            }
            // Same parts, reversed order.
            let mut reverse = HdrHistogram::new();
            for p in parts.iter().rev() {
                reverse.merge(p);
            }
            assert_same(&forward, &reverse, "trial {trial}: commutativity");

            // A shuffled order (deterministic Fisher–Yates).
            let mut order: Vec<usize> = (0..parts.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut shuffled = HdrHistogram::new();
            for &i in &order {
                shuffled.merge(&parts[i]);
            }
            assert_same(&forward, &shuffled, "trial {trial}: order independence");

            // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c) for every split
            // point, merging pre-combined groups instead of single parts.
            for split in 1..parts.len() {
                let mut left = HdrHistogram::new();
                for p in &parts[..split] {
                    left.merge(p);
                }
                let mut right = HdrHistogram::new();
                for p in &parts[split..] {
                    right.merge(p);
                }
                let mut grouped = left.clone();
                grouped.merge(&right);
                assert_same(&forward, &grouped, "trial {trial}: split {split}");
                // And the mirrored grouping.
                let mut mirrored = HdrHistogram::new();
                mirrored.merge(&right);
                mirrored.merge(&left);
                assert_same(&forward, &mirrored, "trial {trial}: mirror {split}");
            }
        }
    }

    #[test]
    fn summary_fields_are_consistent() {
        let mut h = HdrHistogram::new();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999);
        assert!(s.min <= s.p50 && s.p999 <= s.max);
        assert!((s.mean - 50_500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = HdrHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.summary().p999, 0);
        assert_eq!(h.mean(), 0.0);
    }
}
