//! Parametric synthetic workload generator.
//!
//! Section 2 of the paper characterizes workloads by two ratios:
//!
//! * `r_small` — small writes (shorter than a full 16 KB page) over total
//!   writes, and
//! * `r_synch` — synchronous small writes over total small writes,
//!
//! and shows that IOPS and GC-invocation counts of the CGM and FGM schemes
//! are governed by them. [`SyntheticConfig`] exposes exactly those knobs
//! (plus footprint, skew, read mix and sizing details), so the Fig 2 sweep
//! and the five benchmark profiles of §5 are all instances of one generator.

use std::collections::VecDeque;

use esp_sim::{Rng, SimDuration, SimTime, Zipf};

use crate::request::{IoRequest, Trace, SECTORS_PER_PAGE};

/// Configuration for [`generate`].
///
/// # Examples
///
/// ```
/// use esp_workload::{generate, SyntheticConfig};
///
/// let cfg = SyntheticConfig {
///     requests: 1_000,
///     r_small: 0.8,
///     r_synch: 0.5,
///     ..SyntheticConfig::default()
/// };
/// let trace = generate(&cfg);
/// let stats = trace.stats();
/// assert!((stats.r_small() - 0.8).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Logical address space in sectors.
    pub footprint_sectors: u64,
    /// Number of requests to generate.
    pub requests: u64,
    /// Target fraction of writes that are small (< 4 sectors).
    pub r_small: f64,
    /// Target fraction of small writes that are synchronous.
    pub r_synch: f64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Zipf skew for write/read locations; 0 = uniform, 0.99 = very hot.
    pub zipf_theta: f64,
    /// Relative weights of 1-, 2- and 3-sector small writes.
    pub small_sector_weights: [u32; 3],
    /// Relative weights of 4-, 8- and 16-sector large writes.
    pub large_sector_weights: [u32; 3],
    /// Fraction of large writes whose start is *not* aligned to a 16 KB
    /// page boundary (footnote 1 of the paper: misaligned full-page writes
    /// split into RMW-causing small pieces under CGM).
    pub misaligned_large_fraction: f64,
    /// If set, small writes are confined to the first `n` sectors of the
    /// footprint (then Zipf-skewed within that zone). Real small writes —
    /// journals, mail files, metadata — concentrate in a small part of the
    /// address space; §4.1 of the paper relies on exactly this ("small
    /// writes are likely to have higher update frequencies than large
    /// writes ... hot and cold pages tend to be isolated"). `None` spreads
    /// small writes over the whole footprint.
    pub small_zone_sectors: Option<u64>,
    /// Length, in small writes, of the host page cache's rewrite window
    /// (0 = no window). Traces reaching an FTL have passed through the host
    /// page cache, which absorbs short-interval rewrites; without the
    /// window the FTL's own write buffer would absorb them a second time
    /// and inflate apparent throughput.
    ///
    /// The window holds the sectors of the last `rewrite_distance` small
    /// writes. A small write whose first draw lands in the window redraws,
    /// at most eight times, and then keeps its last draw even if that is
    /// still in the window, so a sector can be queued twice. When the
    /// oldest queued write leaves the window its sector leaves too, even if
    /// the sector was queued again since. The window is therefore a soft
    /// preference, not a guaranteed minimum distance.
    pub rewrite_distance: u64,
    /// If true, large writes stream sequentially through the footprint
    /// (log/SSTable style) instead of following the Zipf distribution.
    pub sequential_large: bool,
    /// Fixed spacing between request arrivals (zero = replay full throttle).
    pub inter_arrival: SimDuration,
    /// If non-zero, insert an idle gap of `burst_idle` after every
    /// `burst_period` requests (bursty on/off arrivals — the pattern that
    /// gives background GC its window).
    pub burst_period: u64,
    /// Idle gap inserted between bursts (used when `burst_period > 0`).
    pub burst_idle: SimDuration,
    /// RNG seed; the same config always generates the same trace.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            footprint_sectors: 64 * 1024, // 256 MiB
            requests: 10_000,
            r_small: 1.0,
            r_synch: 0.0,
            read_fraction: 0.0,
            zipf_theta: 0.8,
            small_sector_weights: [8, 1, 1],
            large_sector_weights: [4, 2, 1],
            misaligned_large_fraction: 0.0,
            small_zone_sectors: None,
            rewrite_distance: 0,
            sequential_large: false,
            inter_arrival: SimDuration::ZERO,
            burst_period: 0,
            burst_idle: SimDuration::ZERO,
            seed: 0x5eed_e5b0,
        }
    }
}

impl SyntheticConfig {
    /// Validates ratios and sizes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (v, name) in [
            (self.r_small, "r_small"),
            (self.r_synch, "r_synch"),
            (self.read_fraction, "read_fraction"),
            (self.misaligned_large_fraction, "misaligned_large_fraction"),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if !(0.0..1.0).contains(&self.zipf_theta) {
            return Err(format!(
                "zipf_theta must be in [0, 1), got {}",
                self.zipf_theta
            ));
        }
        if self.footprint_sectors < 64 {
            return Err("footprint_sectors must be at least 64".into());
        }
        if self.small_sector_weights.iter().sum::<u32>() == 0 {
            return Err("small_sector_weights must not all be zero".into());
        }
        if self.large_sector_weights.iter().sum::<u32>() == 0 {
            return Err("large_sector_weights must not all be zero".into());
        }
        if let Some(zone) = self.small_zone_sectors {
            if zone < 16 || zone > self.footprint_sectors {
                return Err(format!(
                    "small_zone_sectors must be in [16, footprint], got {zone}"
                ));
            }
        }
        Ok(())
    }
}

fn weighted_pick(rng: &mut Rng, weights: &[u32], values: &[u32]) -> u32 {
    let total: u32 = weights.iter().sum();
    let mut x = rng.next_below(u64::from(total)) as u32;
    for (w, v) in weights.iter().zip(values) {
        if x < *w {
            return *v;
        }
        x -= w;
    }
    values[values.len() - 1]
}

/// Maps popularity ranks to the sectors of one footprint (the whole
/// footprint, or the small zone): rank `r` lands on sector
/// `r × stride mod footprint`.
///
/// The stride is `0x9E37_79B9_7F4A_7C15 mod footprint` when that is
/// coprime with the footprint, which scatters hot ranks over the address
/// space, and 1 otherwise. The constant is 5 × 139 × 199 × …, and the
/// paper's 0.625 fill (5/8) makes every benchmark footprint a multiple of
/// 5: 61,440, 491,520, 15,360 and 30,720 sectors, and the small zones 960,
/// 3,840, 240 and 480. On all of them the stride is 1, so the map is the
/// identity: rank `r` is sector `r`, and the hottest sectors sit together
/// at the start of the footprint or zone. Power-of-two footprints such as
/// the default 65,536 do scatter.
struct RankMap {
    footprint: u64,
    stride: u64,
}

impl RankMap {
    fn new(footprint: u64) -> Self {
        const STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
        let stride = if gcd(STRIDE % footprint, footprint) == 1 {
            STRIDE % footprint
        } else {
            1
        };
        RankMap { footprint, stride }
    }

    /// The sector of `rank`, which is below the footprint (every rank
    /// comes from a sampler over exactly this footprint).
    fn sector(&self, rank: u64) -> u64 {
        debug_assert!(rank < self.footprint, "rank {rank} outside the map");
        rank.wrapping_mul(self.stride) % self.footprint
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The host page cache's rewrite window (see
/// [`SyntheticConfig::rewrite_distance`]): the sectors of the last
/// `distance` small writes, as a queue of writes and a bitset over the
/// small zone of the sectors in the window.
struct RewriteWindow {
    distance: u64,
    queue: VecDeque<u64>,
    /// Sector `s` is in the window iff bit `s % 64` of word `s / 64` is set.
    held: Vec<u64>,
}

impl RewriteWindow {
    fn new(distance: u64, zone: u64) -> Self {
        RewriteWindow {
            distance,
            queue: VecDeque::new(),
            held: vec![0; zone.div_ceil(64) as usize],
        }
    }

    fn holds(&self, sector: u64) -> bool {
        self.held[(sector / 64) as usize] >> (sector % 64) & 1 == 1
    }

    /// Queues a write to `sector`. When that pushes the oldest write out,
    /// its sector leaves the window even if it is queued again since.
    fn push(&mut self, sector: u64) {
        self.queue.push_back(sector);
        self.held[(sector / 64) as usize] |= 1 << (sector % 64);
        if self.queue.len() as u64 > self.distance {
            if let Some(old) = self.queue.pop_front() {
                self.held[(old / 64) as usize] &= !(1 << (old % 64));
            }
        }
    }
}

/// Generates a deterministic trace from `config`.
///
/// # Panics
///
/// Panics if the configuration fails [`SyntheticConfig::validate`].
#[must_use]
pub fn generate(config: &SyntheticConfig) -> Trace {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid synthetic config: {e}"));
    let mut rng = Rng::seed_from(config.seed);
    let zipf = Zipf::new(config.footprint_sectors, config.zipf_theta);
    let small_zone = config
        .small_zone_sectors
        .unwrap_or(config.footprint_sectors);
    let small_zipf = Zipf::new(small_zone, config.zipf_theta);
    let ranks = RankMap::new(config.footprint_sectors);
    let small_ranks = RankMap::new(small_zone);
    let page = u64::from(SECTORS_PER_PAGE);
    let mut trace = Trace::new(config.footprint_sectors);
    let mut seq_cursor: u64 = ranks.sector(rng.next_below(config.footprint_sectors)) / page * page;
    let mut clock = SimTime::ZERO;
    let mut window = RewriteWindow::new(config.rewrite_distance, small_zone);

    for n in 0..config.requests {
        let arrival = clock;
        clock += config.inter_arrival;
        if config.burst_period > 0 && (n + 1).is_multiple_of(config.burst_period) {
            clock += config.burst_idle;
        }

        if rng.chance(config.read_fraction) {
            // Read a (likely hot) location.
            let sectors = weighted_pick(&mut rng, &[4, 2, 1], &[1, 4, 8]);
            let max_start = config.footprint_sectors - u64::from(sectors);
            let lsn = ranks.sector(zipf.sample(&mut rng)).min(max_start);
            trace.push(IoRequest::read(arrival, lsn, sectors));
            continue;
        }

        if rng.chance(config.r_small) {
            // Small write: 1..=3 sectors at a hot location.
            let sectors = weighted_pick(&mut rng, &config.small_sector_weights, &[1, 2, 3]);
            let max_start = config.footprint_sectors - u64::from(sectors);
            let mut lsn = small_ranks
                .sector(small_zipf.sample(&mut rng))
                .min(max_start);
            if config.rewrite_distance > 0 {
                // Emulate the host page cache: retry a few times to avoid
                // re-writing a recently written sector.
                for _ in 0..8 {
                    if !window.holds(lsn) {
                        break;
                    }
                    lsn = small_ranks
                        .sector(small_zipf.sample(&mut rng))
                        .min(max_start);
                }
                window.push(lsn);
            }
            let sync = rng.chance(config.r_synch);
            trace.push(IoRequest::write(arrival, lsn, sectors, sync));
        } else {
            // Large write: one or more full pages.
            let sectors = weighted_pick(&mut rng, &config.large_sector_weights, &[4, 8, 16]);
            let lsn = if config.sequential_large {
                let l = seq_cursor;
                seq_cursor += u64::from(sectors);
                if seq_cursor + 16 > config.footprint_sectors {
                    seq_cursor = 0;
                }
                l
            } else {
                let aligned = ranks.sector(zipf.sample(&mut rng)) / page * page;
                if rng.chance(config.misaligned_large_fraction) {
                    aligned + rng.next_in(1, page - 1)
                } else {
                    aligned
                }
            };
            let max_start = config.footprint_sectors - u64::from(sectors);
            trace.push(IoRequest::write(
                arrival,
                lsn.min(max_start),
                sectors,
                false,
            ));
        }
    }
    trace
}

/// Generates the preconditioning fill the paper applies before each
/// measurement: a sequential full-page write of `fill_fraction` of the
/// footprint (§2: "preconditioned ... by filling 10-GB data to the 16 GB
/// SSD" — a fill fraction of 0.625).
///
/// # Panics
///
/// Panics if `fill_fraction` is outside `[0, 1]`.
#[must_use]
pub fn precondition_fill(footprint_sectors: u64, fill_fraction: f64) -> Trace {
    assert!(
        (0.0..=1.0).contains(&fill_fraction),
        "fill_fraction must be in [0, 1]"
    );
    let page = u64::from(SECTORS_PER_PAGE);
    let sectors_to_fill = ((footprint_sectors as f64 * fill_fraction) as u64) / page * page;
    let mut trace = Trace::new(footprint_sectors);
    let mut lsn = 0;
    while lsn + 16 <= sectors_to_fill {
        trace.push(IoRequest::write(SimTime::ZERO, lsn, 16, false));
        lsn += 16;
    }
    while lsn + page <= sectors_to_fill {
        trace.push(IoRequest::write(SimTime::ZERO, lsn, page as u32, false));
        lsn += page;
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_ratios_match_targets() {
        let cfg = SyntheticConfig {
            requests: 20_000,
            r_small: 0.6,
            r_synch: 0.3,
            read_fraction: 0.1,
            ..SyntheticConfig::default()
        };
        let stats = generate(&cfg).stats();
        assert!(
            (stats.r_small() - 0.6).abs() < 0.02,
            "r_small {}",
            stats.r_small()
        );
        assert!(
            (stats.r_synch() - 0.3).abs() < 0.03,
            "r_synch {}",
            stats.r_synch()
        );
        let reads = stats.reads as f64 / stats.requests as f64;
        assert!((reads - 0.1).abs() < 0.02, "reads {reads}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig {
            r_small: 0.5,
            r_synch: 0.5,
            ..SyntheticConfig::default()
        };
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticConfig::default();
        let b = SyntheticConfig {
            seed: a.seed + 1,
            ..a.clone()
        };
        assert_ne!(generate(&a), generate(&b));
    }

    #[test]
    fn all_requests_inside_footprint() {
        let cfg = SyntheticConfig {
            requests: 5_000,
            r_small: 0.5,
            read_fraction: 0.2,
            misaligned_large_fraction: 0.5,
            ..SyntheticConfig::default()
        };
        let t = generate(&cfg);
        for r in &t {
            assert!(r.end_lsn() <= t.footprint_sectors);
            assert!(r.sectors >= 1);
        }
    }

    #[test]
    fn pure_large_and_pure_small_extremes() {
        let large = generate(&SyntheticConfig {
            r_small: 0.0,
            requests: 2_000,
            ..SyntheticConfig::default()
        });
        assert_eq!(large.stats().small_writes, 0);
        let small = generate(&SyntheticConfig {
            r_small: 1.0,
            requests: 2_000,
            ..SyntheticConfig::default()
        });
        assert_eq!(small.stats().small_writes, small.stats().writes);
    }

    #[test]
    fn aligned_large_writes_land_on_page_boundaries() {
        let cfg = SyntheticConfig {
            r_small: 0.0,
            misaligned_large_fraction: 0.0,
            requests: 2_000,
            ..SyntheticConfig::default()
        };
        for r in &generate(&cfg) {
            assert_eq!(r.lsn % u64::from(SECTORS_PER_PAGE), 0, "lsn {}", r.lsn);
        }
    }

    #[test]
    fn sequential_large_streams_forward() {
        let cfg = SyntheticConfig {
            r_small: 0.0,
            sequential_large: true,
            requests: 100,
            ..SyntheticConfig::default()
        };
        let t = generate(&cfg);
        let mut wraps = 0;
        for w in t.requests.windows(2) {
            if w[1].lsn < w[0].lsn {
                wraps += 1;
            } else {
                assert_eq!(w[1].lsn, w[0].end_lsn());
            }
        }
        assert!(
            wraps <= 1,
            "sequential stream wrapped {wraps} times in 100 reqs"
        );
    }

    #[test]
    fn inter_arrival_spaces_requests() {
        let cfg = SyntheticConfig {
            requests: 10,
            inter_arrival: SimDuration::from_millis(1),
            ..SyntheticConfig::default()
        };
        let t = generate(&cfg);
        for (i, r) in t.iter().enumerate() {
            assert_eq!(
                r.arrival,
                SimTime::ZERO + SimDuration::from_millis(i as u64)
            );
        }
    }

    #[test]
    fn bursty_arrivals_insert_gaps() {
        let cfg = SyntheticConfig {
            requests: 10,
            burst_period: 4,
            burst_idle: SimDuration::from_millis(5),
            ..SyntheticConfig::default()
        };
        let t = generate(&cfg);
        // Requests 0..3 at t=0, then a 5 ms gap, etc.
        assert_eq!(t.requests[3].arrival, SimTime::ZERO);
        assert_eq!(
            t.requests[4].arrival,
            SimTime::ZERO + SimDuration::from_millis(5)
        );
        assert_eq!(
            t.requests[8].arrival,
            SimTime::ZERO + SimDuration::from_millis(10)
        );
    }

    #[test]
    fn precondition_covers_requested_fraction() {
        let t = precondition_fill(10_000, 0.625);
        let written: u64 = t.iter().map(|r| u64::from(r.sectors)).sum();
        assert!((6_240..=6_252).contains(&written), "wrote {written}");
        // Sequential and non-overlapping.
        for w in t.requests.windows(2) {
            assert_eq!(w[1].lsn, w[0].end_lsn());
        }
    }

    #[test]
    fn validate_rejects_bad_config() {
        let bad = SyntheticConfig {
            r_small: 1.5,
            ..SyntheticConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad_theta = SyntheticConfig {
            zipf_theta: 1.0,
            ..SyntheticConfig::default()
        };
        assert!(bad_theta.validate().is_err());
    }

    #[test]
    fn rank_permutation_is_bijective_prefix() {
        // The top-1000 ranks map to 1000 distinct sectors.
        let ranks = RankMap::new(64 * 1024);
        let mut seen = std::collections::HashSet::new();
        for rank in 0..1000 {
            assert!(seen.insert(ranks.sector(rank)));
        }
    }
}
