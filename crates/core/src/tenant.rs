//! Multi-tenant served-traffic frontend: per-tenant QoS admission and
//! weighted-fair dispatch on top of the queue-depth replay engine.
//!
//! A [`TenantSet`] multiplexes several tenants — each a workload trace
//! plus a [`TenantConfig`] — onto one device. Each tenant owns a
//! disjoint, page-aligned slice of the logical space (its trace's LSNs
//! are offset by the slices stacked before it), so tenants never share
//! data but *do* share everything the paper cares about: the write
//! buffer, GC, the read-path countermeasures, and raw channel/chip
//! bandwidth.
//!
//! [`run_tenants_qd`] replays the set through the one replay loop behind
//! [`run_trace_qd`](crate::run_trace_qd) (`runner.rs`), whose two stages
//! in front of the host queue live here:
//!
//! 1. **Token-bucket admission** (`rate` + `burst` per tenant). A
//!    request becomes *eligible* at `max(arrival, token_ready)`; tokens
//!    refill continuously at `rate` per second up to `burst`. `rate = 0`
//!    disables throttling (every request is eligible at its arrival).
//! 2. **Deficit round-robin dispatch.** When a queue slot frees, the
//!    earliest-eligible head request is chosen among tenants by DRR over
//!    per-tenant FIFOs: each tenant's turn banks `DRR_QUANTUM_SECTORS ×
//!    weight` sectors of deficit, requests are served while the deficit
//!    covers their sector count, and unused deficit carries over only
//!    while the tenant stays backlogged. Over any saturated interval,
//!    tenant service shares therefore track their weights to within one
//!    quantum — the invariant `drr_respects_weights_under_saturation`
//!    locks.
//!
//! With a **single tenant at default QoS** (unlimited rate) both stages
//! vanish: the one FIFO preserves trace order, eligibility degenerates
//! to the arrival stamp, and the replay is **bit-identical** to
//! [`run_trace_qd`](crate::run_trace_qd) by construction, since plain
//! replay is exactly that case of the same loop.
//! `single_tenant_matches_run_trace_qd` checks the two wrappers.
//!
//! # Latency contract
//!
//! The global [`RunReport`](crate::RunReport) keeps the plain-replay
//! semantics: service histograms record issue → done, and the
//! `latency.response` histogram records arrival → done for open-arrival
//! traces. Each
//! [`TenantReport`] additionally carries that tenant's own arrival →
//! done **response** histogram (recorded for reads and synchronous
//! writes of *open* tenants — a closed tenant's "response time" would
//! just accumulate makespan) and its SLO attainment: the fraction of
//! response samples at or under [`TenantConfig::slo`]. Admission delay
//! imposed by the token bucket is part of response time by design —
//! throttling trades a tenant's own queueing for its neighbors' tails.

use esp_sim::{HdrHistogram, SimDuration, SimTime};
use esp_workload::{Trace, SECTORS_PER_PAGE};

use crate::runner::{replay, Ftl, Lane};
use crate::stats::RunReport;

/// Sectors of deficit one weight unit banks per DRR turn. Small enough
/// that low-weight tenants are not starved for long stretches, large
/// enough that a full-page request fits in a single turn.
pub const DRR_QUANTUM_SECTORS: u64 = 16;

/// Per-tenant QoS settings: scheduling weight, token-bucket admission,
/// and an optional response-time SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Display name (report rows, espsim output).
    pub name: String,
    /// Deficit-round-robin weight (≥ 1): relative share of device
    /// service, in sectors, under contention.
    pub weight: u32,
    /// Token-bucket refill rate in requests per second; `0.0` disables
    /// admission throttling.
    pub rate: f64,
    /// Token-bucket capacity in requests (≥ 1): the largest burst
    /// admitted at line rate.
    pub burst: u32,
    /// Response-time SLO target: a response sample meets the SLO when
    /// arrival → done is at or under this. `None` disables the
    /// attainment row.
    pub slo: Option<SimDuration>,
}

impl TenantConfig {
    /// A tenant with default QoS: weight 1, no admission throttling, no
    /// SLO — the configuration under which a single tenant replays
    /// bit-identically to [`run_trace_qd`](crate::run_trace_qd).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            weight: 1,
            rate: 0.0,
            burst: 16,
            slo: None,
        }
    }

    /// Sets the DRR weight.
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets token-bucket admission: `rate` requests per second with a
    /// `burst`-request bucket.
    #[must_use]
    pub fn limit(mut self, rate: f64, burst: u32) -> Self {
        self.rate = rate;
        self.burst = burst;
        self
    }

    /// Sets the response-time SLO target.
    #[must_use]
    pub fn slo(mut self, target: SimDuration) -> Self {
        self.slo = Some(target);
        self
    }
}

struct TenantEntry {
    config: TenantConfig,
    trace: Trace,
    /// First LSN of this tenant's slice of the logical space.
    base_lsn: u64,
}

/// A set of tenants to multiplex onto one device, each owning a
/// disjoint page-aligned slice of the logical space.
///
/// # Examples
///
/// ```
/// use esp_core::{run_tenants_qd, FtlConfig, SubFtl, TenantConfig, TenantSet};
/// use esp_workload::{generate, SyntheticConfig};
///
/// let cfg = FtlConfig::tiny();
/// let mut ftl = SubFtl::new(&cfg);
/// let trace = |seed| {
///     generate(&SyntheticConfig {
///         footprint_sectors: 64, // two slices exactly fill the tiny device
///         requests: 200,
///         seed,
///         ..SyntheticConfig::default()
///     })
/// };
/// let mut set = TenantSet::new();
/// set.add(TenantConfig::new("victim").weight(4), trace(1));
/// set.add(TenantConfig::new("noisy").limit(50_000.0, 32), trace(2));
/// let report = run_tenants_qd(&mut ftl, &set, 8);
/// assert_eq!(report.tenants.len(), 2);
/// assert_eq!(report.run.requests, 400);
/// ```
#[derive(Default)]
pub struct TenantSet {
    entries: Vec<TenantEntry>,
    footprint: u64,
}

impl TenantSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        TenantSet::default()
    }

    /// Adds a tenant. Its trace's LSNs are offset by the footprints of
    /// the tenants already in the set (rounded up to a page boundary),
    /// giving it a private slice of the logical space.
    ///
    /// # Panics
    ///
    /// Panics on a zero weight, zero burst, or non-finite/negative rate.
    pub fn add(&mut self, config: TenantConfig, trace: Trace) {
        assert!(config.weight >= 1, "tenant weight must be at least 1");
        assert!(config.burst >= 1, "tenant burst must be at least 1");
        assert!(
            config.rate.is_finite() && config.rate >= 0.0,
            "tenant rate must be finite and non-negative (0 = unlimited)"
        );
        let base_lsn = self.footprint.next_multiple_of(u64::from(SECTORS_PER_PAGE));
        self.footprint = base_lsn + trace.footprint_sectors;
        self.entries.push(TenantEntry {
            config,
            trace,
            base_lsn,
        });
    }

    /// Number of tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no tenant has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Combined logical footprint of all tenant slices, in sectors.
    #[must_use]
    pub fn footprint_sectors(&self) -> u64 {
        self.footprint
    }

    /// Total request count across all tenants.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.entries.iter().map(|e| e.trace.len() as u64).sum()
    }
}

/// Continuous-refill token bucket gating one tenant's admission.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    /// Tokens per nanosecond; `0.0` = unlimited (bucket disabled).
    rate_per_ns: f64,
    capacity: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    pub(crate) fn new(rate_per_sec: f64, burst: u32, at: SimTime) -> Self {
        TokenBucket {
            rate_per_ns: rate_per_sec / 1e9,
            capacity: f64::from(burst),
            tokens: f64::from(burst),
            last: at,
        }
    }

    /// Earliest instant at which one token is available. Exact for any
    /// query time at or after `last` (state only changes on `consume`).
    pub(crate) fn ready_at(&self) -> SimTime {
        if self.rate_per_ns <= 0.0 || self.tokens >= 1.0 {
            return if self.rate_per_ns <= 0.0 {
                SimTime::ZERO
            } else {
                self.last
            };
        }
        let wait_ns = ((1.0 - self.tokens) / self.rate_per_ns).ceil() as u64;
        self.last + SimDuration::from_nanos(wait_ns)
    }

    /// Removes one token at time `at` (which must be ≥ [`Self::ready_at`]).
    pub(crate) fn consume(&mut self, at: SimTime) {
        if self.rate_per_ns <= 0.0 {
            return;
        }
        let dt = at.saturating_since(self.last).as_nanos() as f64;
        self.tokens = (self.tokens + dt * self.rate_per_ns).min(self.capacity) - 1.0;
        self.last = at;
    }
}

/// Deficit-round-robin chooser over per-tenant FIFOs. One call picks the
/// tenant for one queue-slot grant; the cursor and per-tenant deficits
/// persist across grants so a tenant's turn spans as many requests as
/// its banked deficit covers.
pub(crate) struct Drr {
    weights: Vec<u64>,
    deficit: Vec<u64>,
    /// Whether the tenant under the cursor has already banked its
    /// quantum for the current turn.
    fresh: Vec<bool>,
    cursor: usize,
}

impl Drr {
    pub(crate) fn new(weights: Vec<u64>) -> Self {
        let n = weights.len();
        Drr {
            weights,
            deficit: vec![0; n],
            fresh: vec![false; n],
            cursor: 0,
        }
    }

    /// Picks the next tenant among those for which `eligible` holds.
    /// `cost` is the head request's sector count; `backlogged` reports
    /// whether a tenant still has any requests queued (an emptied
    /// tenant forfeits its carried deficit, per standard DRR).
    ///
    /// The caller must guarantee at least one eligible tenant; each full
    /// rotation banks another quantum for it, so the loop terminates.
    pub(crate) fn pick(
        &mut self,
        eligible: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> u64,
        backlogged: impl Fn(usize) -> bool,
    ) -> usize {
        let n = self.weights.len();
        if n == 1 {
            return 0;
        }
        loop {
            let t = self.cursor;
            if eligible(t) {
                if !self.fresh[t] {
                    self.deficit[t] =
                        self.deficit[t].saturating_add(DRR_QUANTUM_SECTORS * self.weights[t]);
                    self.fresh[t] = true;
                }
                let c = cost(t);
                if self.deficit[t] >= c {
                    self.deficit[t] -= c;
                    return t; // cursor stays: the turn continues
                }
            } else if !backlogged(t) {
                self.deficit[t] = 0;
            }
            self.fresh[t] = false;
            self.cursor = (self.cursor + 1) % n;
        }
    }
}

/// One tenant's slice of a [`run_tenants_qd`] replay.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name from [`TenantConfig`].
    pub name: String,
    /// DRR weight the run used.
    pub weight: u32,
    /// Token-bucket rate the run used (`0.0` = unlimited).
    pub rate: f64,
    /// Token-bucket burst the run used.
    pub burst: u32,
    /// Requests this tenant replayed.
    pub requests: u64,
    /// Sectors of host data this tenant moved (reads + writes).
    pub sectors: u64,
    /// This tenant's throughput over the run's makespan, requests/s.
    pub iops: f64,
    /// Arrival → done response times (reads and synchronous writes;
    /// empty for closed tenants — see the module docs).
    pub response: HdrHistogram,
    /// SLO target, if one was configured.
    pub slo: Option<SimDuration>,
    /// Response samples checked against the SLO.
    pub slo_samples: u64,
    /// Response samples that met the SLO.
    pub slo_good: u64,
}

impl TenantReport {
    /// An empty row for a tenant replaying `requests` requests under
    /// `config`.
    pub(crate) fn new(config: &TenantConfig, requests: usize) -> Self {
        TenantReport {
            name: config.name.clone(),
            weight: config.weight,
            rate: config.rate,
            burst: config.burst,
            requests: requests as u64,
            sectors: 0,
            iops: 0.0,
            response: HdrHistogram::new(),
            slo: config.slo,
            slo_samples: 0,
            slo_good: 0,
        }
    }

    /// Records one arrival → done response sample and scores it against
    /// the SLO, if one is configured.
    pub(crate) fn record_response(&mut self, response: SimDuration) {
        self.response.record(response.as_nanos());
        if let Some(target) = self.slo {
            self.slo_samples += 1;
            if response <= target {
                self.slo_good += 1;
            }
        }
    }

    /// Fraction of response samples that met the SLO, if an SLO was
    /// configured and any samples were recorded.
    #[must_use]
    pub fn slo_attainment(&self) -> Option<f64> {
        match (self.slo, self.slo_samples) {
            (Some(_), n) if n > 0 => Some(self.slo_good as f64 / n as f64),
            _ => None,
        }
    }
}

/// A [`run_tenants_qd`] result: the familiar whole-device [`RunReport`]
/// plus one [`TenantReport`] per tenant, in [`TenantSet`] order.
#[derive(Debug, Clone)]
pub struct TenantRunReport {
    /// Whole-device report, same semantics as
    /// [`run_trace_qd`](crate::run_trace_qd).
    pub run: RunReport,
    /// Per-tenant rows.
    pub tenants: Vec<TenantReport>,
}

/// Replays a [`TenantSet`] through `ftl` at `queue_depth`, with
/// token-bucket admission and DRR dispatch in front of the host queue
/// (see the module docs for semantics and the single-tenant bit-identity
/// guarantee).
///
/// # Panics
///
/// Panics if `queue_depth` is zero, the set is empty, or the combined
/// footprint exceeds the device's logical space.
pub fn run_tenants_qd<F: Ftl + ?Sized>(
    ftl: &mut F,
    set: &TenantSet,
    queue_depth: usize,
) -> TenantRunReport {
    assert!(queue_depth > 0, "queue_depth must be at least 1");
    assert!(!set.is_empty(), "tenant set must not be empty");
    assert!(
        set.footprint_sectors() <= ftl.logical_sectors(),
        "combined tenant footprint ({} sectors) exceeds the device's logical space ({} sectors)",
        set.footprint_sectors(),
        ftl.logical_sectors()
    );
    let lanes: Vec<Lane<'_>> = set
        .entries
        .iter()
        .map(|e| Lane {
            trace: &e.trace,
            base_lsn: e.base_lsn,
            config: &e.config,
        })
        .collect();
    replay(ftl, &lanes, queue_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_trace_qd;
    use crate::test_fixtures::{all_ftls, mixed_trace, StubFtl};
    use crate::{FtlConfig, SubFtl};
    use esp_workload::{generate, IoRequest, SyntheticConfig};

    /// A device big enough to host two tenants (~2456 logical sectors),
    /// still small enough for fast tests.
    fn mid_cfg() -> FtlConfig {
        FtlConfig {
            geometry: esp_nand::Geometry {
                channels: 2,
                chips_per_channel: 2,
                blocks_per_chip: 16,
                pages_per_block: 16,
                subpages_per_page: 4,
                subpage_bytes: 4 * 1024,
            },
            write_buffer_sectors: 64,
            overprovision: 0.4,
            ..FtlConfig::paper_default()
        }
    }

    /// THE fallback guarantee: one tenant at default QoS replays
    /// bit-identically to `run_trace_qd` — same report JSON (every
    /// histogram bucket), same device makespan, same NAND command
    /// stream — across all four FTLs and several queue depths, on a
    /// workload with idle windows, rewrites, reads and open arrivals.
    #[test]
    fn single_tenant_matches_run_trace_qd() {
        let cfg = FtlConfig::tiny();
        for qd in [1usize, 8] {
            for ((name, mut a), (_, mut b)) in all_ftls(&cfg).into_iter().zip(all_ftls(&cfg)) {
                let trace = mixed_trace(a.logical_sectors() / 2, 0x7EA0);
                let reference = run_trace_qd(a.as_mut(), &trace, qd);
                let mut set = TenantSet::new();
                set.add(TenantConfig::new("solo"), trace);
                let tenants = run_tenants_qd(b.as_mut(), &set, qd);
                assert_eq!(
                    crate::report::run_json("t", &reference).to_pretty(),
                    crate::report::run_json("t", &tenants.run).to_pretty(),
                    "{name} qd={qd}: single tenant must be bit-identical to run_trace_qd"
                );
                assert_eq!(a.ssd().makespan(), b.ssd().makespan(), "{name} qd={qd}");
                assert_eq!(
                    a.ssd().commands_issued(),
                    b.ssd().commands_issued(),
                    "{name} qd={qd}"
                );
            }
        }
    }

    fn sync_writes(requests: usize, sectors: u32) -> Trace {
        let mut t = Trace::new(4096);
        for i in 0..requests {
            let lsn = (i as u64 * u64::from(sectors)) % 4000;
            t.push(IoRequest::write(SimTime::ZERO, lsn, sectors, true));
        }
        t
    }

    /// The fairness invariant the module docs promise: while both
    /// tenants are backlogged and eligible, each tenant's served sectors
    /// normalized by its weight never diverges by more than ~one DRR
    /// quantum from the other's.
    #[test]
    fn drr_respects_weights_under_saturation() {
        let (w_a, w_b) = (3u64, 1u64);
        let mut ftl = StubFtl::new(SimDuration::from_micros(100));
        let mut set = TenantSet::new();
        set.add(
            TenantConfig::new("a").weight(w_a as u32),
            sync_writes(900, 4),
        );
        set.add(
            TenantConfig::new("b").weight(w_b as u32),
            sync_writes(900, 4),
        );
        let base_b = set.entries[1].base_lsn;
        run_tenants_qd(&mut ftl, &set, 1);

        let (mut served_a, mut served_b) = (0u64, 0u64);
        let mut checked = 0;
        for c in &ftl.calls {
            if c.lsn >= base_b {
                served_b += u64::from(c.sectors);
            } else {
                served_a += u64::from(c.sectors);
            }
            // Both tenants have 3600 sectors of demand; only check
            // prefixes where neither can have drained.
            if served_a < 3000 && served_b < 3000 {
                checked += 1;
                let norm_a = served_a as f64 / w_a as f64;
                let norm_b = served_b as f64 / w_b as f64;
                assert!(
                    (norm_a - norm_b).abs() <= 2.0 * DRR_QUANTUM_SECTORS as f64,
                    "weighted shares diverged: a={served_a} b={served_b}"
                );
            }
        }
        assert!(checked > 500, "saturation window too short: {checked}");
        // Over the saturated region the sector ratio tracks the weights.
        let ratio = served_a.min(3000 * w_a / (w_a + w_b) * 4) as f64;
        assert!(ratio > 0.0);
    }

    /// Token-bucket conformance: over ANY window of the admitted
    /// stream, the number of requests admitted is at most
    /// `burst + rate × window + 1`. With a deep queue and a fast device
    /// the issue times observed by the FTL equal the admission times,
    /// so the property is checked end to end, not just on the bucket.
    #[test]
    fn token_bucket_conforms_over_any_window() {
        let (rate, burst) = (5_000.0f64, 8u32);
        let requests = 600;
        let mut ftl = StubFtl::new(SimDuration::from_nanos(10));
        let mut set = TenantSet::new();
        set.add(
            TenantConfig::new("throttled").limit(rate, burst),
            sync_writes(requests, 1),
        );
        let report = run_tenants_qd(&mut ftl, &set, requests + 2);
        let times: Vec<u64> = ftl.calls.iter().map(|c| c.issue.as_nanos()).collect();
        assert_eq!(times.len(), requests);
        for i in 0..times.len() {
            for j in i..times.len() {
                let window_s = (times[j] - times[i]) as f64 / 1e9;
                let admitted = (j - i + 1) as f64;
                assert!(
                    admitted <= f64::from(burst) + rate * window_s + 1.0,
                    "window [{i}, {j}] admitted {admitted} in {window_s}s"
                );
            }
        }
        // The first burst goes through at line rate, the rest at ~rate.
        assert!(times[burst as usize - 1] < 1_000);
        let span_s = (times[requests - 1] - times[0]) as f64 / 1e9;
        let sustained = requests as f64 / span_s;
        assert!(
            (sustained / rate - 1.0).abs() < 0.05,
            "sustained admitted rate {sustained}, configured {rate}"
        );
        // Throughput in the report reflects the throttle.
        assert!(report.run.iops <= rate * 1.1);
    }

    /// A closed aggressor sharing the device with an open victim: QoS
    /// (weight + rate limit on the aggressor) must cut the victim's p99
    /// response time versus the unthrottled run. This is the
    /// fig_tenant_isolation claim in miniature, on a real FTL.
    #[test]
    fn qos_caps_victim_tail_inflation() {
        let victim_trace = || {
            generate(&SyntheticConfig {
                footprint_sectors: 512,
                requests: 300,
                r_small: 1.0,
                r_synch: 1.0,
                read_fraction: 0.5,
                inter_arrival: SimDuration::from_micros(500),
                seed: 21,
                ..SyntheticConfig::default()
            })
        };
        let noisy_trace = || {
            generate(&SyntheticConfig {
                footprint_sectors: 1024,
                requests: 3000,
                r_small: 1.0,
                r_synch: 1.0,
                seed: 22,
                ..SyntheticConfig::default()
            })
        };
        let cfg = mid_cfg();
        let p99 = |qos: bool| {
            let mut ftl = SubFtl::new(&cfg);
            let mut set = TenantSet::new();
            // The unthrottled aggressor saturates the device (~100 IOPS of
            // sync small writes on this geometry); 30/s leaves the victim
            // real slack.
            let noisy = if qos {
                TenantConfig::new("noisy").limit(30.0, 4)
            } else {
                TenantConfig::new("noisy")
            };
            set.add(TenantConfig::new("victim").weight(4), victim_trace());
            set.add(noisy, noisy_trace());
            let report = run_tenants_qd(&mut ftl, &set, 8);
            assert_eq!(report.tenants[0].name, "victim");
            assert!(report.tenants[0].response.count() > 0);
            // The closed aggressor records no response samples.
            assert_eq!(report.tenants[1].response.count(), 0);
            report.tenants[0].response.percentile(0.99)
        };
        let (without, with) = (p99(false), p99(true));
        assert!(
            with < without,
            "QoS must reduce the victim p99: {with} !< {without}"
        );
    }

    #[test]
    fn multi_tenant_replay_is_deterministic() {
        let run = || {
            let cfg = mid_cfg();
            let mut ftl = SubFtl::new(&cfg);
            let mut set = TenantSet::new();
            set.add(
                TenantConfig::new("a")
                    .weight(2)
                    .slo(SimDuration::from_millis(2)),
                mixed_trace(700, 1),
            );
            set.add(
                TenantConfig::new("b").limit(3_000.0, 8),
                mixed_trace(700, 2),
            );
            let r = run_tenants_qd(&mut ftl, &set, 4);
            (
                crate::report::run_json("t", &r.run).to_pretty(),
                r.tenants
                    .iter()
                    .map(|t| (t.response.count(), t.response.percentile(0.99), t.slo_good))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slo_attainment_counts_response_samples() {
        let mut ftl = StubFtl::new(SimDuration::from_micros(50));
        let mut set = TenantSet::new();
        let mut trace = Trace::new(1024);
        for i in 0..100u64 {
            trace.push(IoRequest::write(
                SimTime::from_nanos(i * 1_000_000),
                i,
                1,
                true,
            ));
        }
        // Service is a flat 50 us and arrivals are 1 ms apart, so every
        // response is exactly 50 us: a 60 us SLO is always met, a 40 us
        // SLO never.
        set.add(
            TenantConfig::new("meets").slo(SimDuration::from_micros(60)),
            trace.clone(),
        );
        let report = run_tenants_qd(&mut ftl, &set, 4);
        let t = &report.tenants[0];
        assert_eq!(t.slo_samples, 100);
        assert_eq!(t.slo_good, 100);
        assert_eq!(t.slo_attainment(), Some(1.0));

        let mut ftl = StubFtl::new(SimDuration::from_micros(50));
        let mut set = TenantSet::new();
        set.add(
            TenantConfig::new("misses").slo(SimDuration::from_micros(40)),
            trace,
        );
        let report = run_tenants_qd(&mut ftl, &set, 4);
        assert_eq!(report.tenants[0].slo_attainment(), Some(0.0));
    }

    #[test]
    fn tenant_slices_are_disjoint_and_page_aligned() {
        let mut set = TenantSet::new();
        set.add(TenantConfig::new("a"), Trace::new(1001));
        set.add(TenantConfig::new("b"), Trace::new(64));
        set.add(TenantConfig::new("c"), Trace::new(10));
        assert_eq!(set.entries[0].base_lsn, 0);
        assert_eq!(set.entries[1].base_lsn, 1004); // 1001 rounded up to a page
        assert_eq!(set.entries[2].base_lsn, 1068);
        assert_eq!(set.footprint_sectors(), 1078);
    }

    #[test]
    #[should_panic(expected = "exceeds the device's logical space")]
    fn oversized_tenant_set_panics_with_a_clear_message() {
        let mut ftl = StubFtl::new(SimDuration::from_nanos(10));
        let mut set = TenantSet::new();
        set.add(TenantConfig::new("huge"), Trace::new(1 << 21));
        run_tenants_qd(&mut ftl, &set, 1);
    }
}
