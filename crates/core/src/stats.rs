//! FTL-level statistics: the quantities the paper's evaluation reports.

use esp_sim::{HdrHistogram, LatencySummary, SimTime};
use esp_workload::SECTOR_BYTES;

/// Counters maintained by every FTL.
///
/// Terminology follows the paper:
///
/// * **GC invocations** (Fig 2(b), Fig 8(b)) — one per victim block
///   collected.
/// * **Request WAF of a small write** (§2, Table 1) — `s_flash / s`, where
///   `s_flash` is the flash space consumed on behalf of the request. A 4 KB
///   write that occupies a 16 KB page alone has WAF 4; a 4 KB write stored
///   in a 4 KB subpage has WAF 1. subFTL's lap migrations and cold/retention
///   evictions are charged to the numerator too, which is why its average
///   sits slightly above 1.0 (Table 1).
#[derive(Debug, Clone, Default)]
pub struct FtlStats {
    /// Host write requests observed.
    pub host_write_requests: u64,
    /// Host sectors written (4 KB units).
    pub host_write_sectors: u64,
    /// Host read requests observed.
    pub host_read_requests: u64,
    /// Host sectors read.
    pub host_read_sectors: u64,
    /// Host small-write requests (shorter than one full page).
    pub small_write_requests: u64,

    /// Flash sectors consumed by host-data programs, **including padding**
    /// (a full-page program always consumes 4 sectors of flash space).
    pub flash_sectors_consumed: u64,
    /// Flash sectors consumed by GC relocation programs.
    pub gc_flash_sectors: u64,

    /// GC invocations (victim blocks collected), total.
    pub gc_invocations: u64,
    /// GC invocations in subFTL's subpage region (subset of total).
    pub gc_subpage_region: u64,
    /// Sectors copied by GC (valid-data relocation).
    pub gc_copied_sectors: u64,
    /// Read-modify-write operations performed (CGM-style partial updates).
    pub rmw_operations: u64,

    /// subFTL: lap migrations of valid subpages to the next subpage level.
    pub lap_migrations: u64,
    /// subFTL: cold subpages evicted to the full-page region during GC.
    pub cold_evictions: u64,
    /// subFTL: subpages evicted because they approached the retention bound.
    pub retention_evictions: u64,
    /// Wear-leveling block swaps between regions.
    pub wear_swaps: u64,
    /// Static wear-leveling migrations: cold (fully/mostly valid) blocks
    /// relocated off lightly-worn blocks so they rejoin the allocation pool.
    pub wear_level_migrations: u64,

    /// Over-provisioning shrink steps: the GC watermark was lowered because
    /// no victim could net free space (end-of-life degradation, step 1).
    pub op_shrinks: u64,
    /// Times the FTL latched into the terminal end-of-life state (at most
    /// once per mount): writes are refused from then on.
    pub end_of_life_trips: u64,
    /// Host write requests refused after the end-of-life latch tripped.
    pub writes_dropped_end_of_life: u64,

    /// Host reads that could not be served (uncorrectable or unmapped data
    /// faults; must stay zero when the FTL is correct).
    pub read_faults: u64,
    /// Read faults whose cause was destruction by a later subpage program
    /// (SBPI corruption reaching the host; subset of `read_faults`).
    pub read_faults_destroyed: u64,
    /// Read faults whose cause was retention/read-disturb BER beyond every
    /// correction rung (subset of `read_faults`).
    pub read_faults_retention: u64,
    /// Read faults whose cause was a torn (power-cut) page that escaped the
    /// mount-time quarantine (subset of `read_faults`).
    pub read_faults_torn: u64,
    /// Read faults forced by the fault-injection hook (subset of
    /// `read_faults`).
    pub read_faults_injected: u64,
    /// Pages or subpages relocated by read-reclaim: a read needed at least
    /// `reclaim_threshold` retry rungs, so the data was rewritten to a fresh
    /// location before it could age past the ladder.
    pub read_reclaims: u64,
    /// Blocks relocated and erased by the read-disturb patrol because their
    /// accumulated sense count approached the ladder's last rung.
    pub disturb_scrubs: u64,
    /// Times the FTL latched into read-only fallback after an uncorrectable
    /// host read (at most once per mount; requires `read_only_on_loss`).
    pub read_only_trips: u64,
    /// Host write requests refused while latched read-only.
    pub writes_dropped_read_only: u64,

    /// Program operations that reported status fail and were retried.
    pub program_failures: u64,
    /// Erase operations that reported status fail (each grows a bad block).
    pub erase_failures: u64,
    /// Blocks retired from service (factory-marked bad at mount plus blocks
    /// grown bad by erase failures).
    pub blocks_retired: u64,
    /// Programs re-issued to a different location after a program failure.
    pub write_retries: u64,
    /// Pages found torn (cut by power loss) by the mount-time scan and
    /// quarantined: read, counted, excluded from the live set.
    pub torn_pages_quarantined: u64,

    /// Accumulated small-write request-WAF numerator (flash sectors
    /// attributed to small writes, including later migrations/evictions).
    pub small_waf_flash_sectors: f64,
    /// Small-write request-WAF denominator (host sectors from small writes).
    pub small_waf_host_sectors: u64,
}

impl FtlStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Average request WAF over all small writes (Table 1). Returns 1.0 when
    /// no small writes occurred.
    #[must_use]
    pub fn small_request_waf(&self) -> f64 {
        if self.small_waf_host_sectors == 0 {
            1.0
        } else {
            self.small_waf_flash_sectors / self.small_waf_host_sectors as f64
        }
    }

    /// Overall write amplification: all flash sectors consumed (host +
    /// GC + padding) over host sectors written.
    #[must_use]
    pub fn total_waf(&self) -> f64 {
        if self.host_write_sectors == 0 {
            0.0
        } else {
            (self.flash_sectors_consumed + self.gc_flash_sectors) as f64
                / self.host_write_sectors as f64
        }
    }

    /// Fraction of host writes that were small.
    #[must_use]
    pub fn small_write_fraction(&self) -> f64 {
        if self.host_write_requests == 0 {
            0.0
        } else {
            self.small_write_requests as f64 / self.host_write_requests as f64
        }
    }
}

/// End-of-run snapshot of the device's per-block wear distribution
/// (effective P/E counts over every physical block) plus adaptive-erase
/// activity during the run.
///
/// The distribution is a **snapshot**, not a delta: wear accumulated by
/// preconditioning is part of the device state the run ends with, and the
/// quantity wear leveling bounds — [`WearSummary::delta_pe`] — is only
/// meaningful over absolute counts. `shallow_erases` alone is a per-run
/// delta, like the other `RunReport` device counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearSummary {
    /// Minimum effective P/E count over all physical blocks.
    pub min_pe: u32,
    /// Maximum effective P/E count over all physical blocks.
    pub max_pe: u32,
    /// Mean effective P/E count over all physical blocks.
    pub mean_pe: f64,
    /// Shallow (reduced-depth) erases performed during the run
    /// (adaptive erase; zero when the feature is off).
    pub shallow_erases: u64,
}

impl WearSummary {
    /// `max - min` effective P/E: the fleet-wide wear spread that static
    /// wear leveling keeps bounded.
    #[must_use]
    pub fn delta_pe(&self) -> u32 {
        self.max_pe - self.min_pe
    }
}

/// The result of replaying one trace through one FTL.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// FTL name ("cgmFTL", "fgmFTL", "subFTL").
    pub ftl: &'static str,
    /// Host requests replayed.
    pub requests: u64,
    /// Simulated makespan (last completion).
    pub makespan: SimTime,
    /// I/O operations per second over the makespan.
    pub iops: f64,
    /// FTL counters at the end of the run.
    pub stats: FtlStats,
    /// Device erase count (lifetime proxy).
    pub erases: u64,
    /// Device program counts (full, subpage).
    pub programs: (u64, u64),
    /// Device reads recovered by the retry ladder (would have been
    /// uncorrectable on the first sense; includes FTL-internal reads).
    pub recovered_reads: u64,
    /// Hard retry-ladder steps the device performed.
    pub retry_steps: u64,
    /// Soft-decode passes the device performed.
    pub soft_decodes: u64,
    /// Host-observed **read** latencies in nanoseconds, at HDR (≤1/16
    /// relative error) resolution for p50/p95/p99/p999 reporting.
    pub read_latency: HdrHistogram,
    /// Host-observed **synchronous write** latencies in nanoseconds, at HDR
    /// resolution. Asynchronous writes complete in DRAM and are excluded.
    pub write_latency: HdrHistogram,
    /// Arrival → completion **response** times in nanoseconds (host
    /// queueing delay included), for the same samples as the service
    /// histograms. Recorded only for open-arrival traces (at least one
    /// nonzero arrival stamp); empty for closed-loop replays, where
    /// arrival-to-done would measure cumulative makespan instead of
    /// per-request latency.
    pub response_latency: HdrHistogram,
    /// Per-block wear distribution at the end of the run.
    pub wear: WearSummary,
}

impl RunReport {
    /// Host-observed request latencies in nanoseconds: the merge of the
    /// read and synchronous-write histograms (asynchronous writes complete
    /// in DRAM and are excluded). BENCH reports render it as
    /// `latency.all`.
    #[must_use]
    pub fn latency(&self) -> HdrHistogram {
        let mut all = self.read_latency.clone();
        all.merge(&self.write_latency);
        all
    }

    /// Percentile summary (count/mean/min/max/p50/p95/p99/p999) of
    /// host-observed read latencies, in nanoseconds.
    #[must_use]
    pub fn read_latency_summary(&self) -> LatencySummary {
        self.read_latency.summary()
    }

    /// Percentile summary of host-observed synchronous write latencies, in
    /// nanoseconds.
    #[must_use]
    pub fn write_latency_summary(&self) -> LatencySummary {
        self.write_latency.summary()
    }

    /// Host write bandwidth over the makespan, in MB/s.
    #[must_use]
    pub fn write_bandwidth_mbps(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.stats.host_write_sectors * SECTOR_BYTES) as f64 / 1e6 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_request_waf_defaults_to_one() {
        assert_eq!(FtlStats::new().small_request_waf(), 1.0);
    }

    #[test]
    fn small_request_waf_ratio() {
        let mut s = FtlStats::new();
        s.small_waf_host_sectors = 10;
        s.small_waf_flash_sectors = 40.0;
        assert!((s.small_request_waf() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn total_waf_counts_gc_and_padding() {
        let mut s = FtlStats::new();
        s.host_write_sectors = 100;
        s.flash_sectors_consumed = 120;
        s.gc_flash_sectors = 30;
        assert!((s.total_waf() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn small_write_fraction() {
        let mut s = FtlStats::new();
        s.host_write_requests = 200;
        s.small_write_requests = 50;
        assert!((s.small_write_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(FtlStats::new().small_write_fraction(), 0.0);
    }

    #[test]
    fn report_bandwidth() {
        let r = RunReport {
            ftl: "test",
            requests: 1,
            makespan: SimTime::from_secs(2),
            iops: 0.5,
            stats: {
                let mut s = FtlStats::new();
                s.host_write_sectors = 1000;
                s
            },
            erases: 0,
            programs: (0, 0),
            recovered_reads: 0,
            retry_steps: 0,
            soft_decodes: 0,
            read_latency: HdrHistogram::new(),
            write_latency: HdrHistogram::new(),
            response_latency: HdrHistogram::new(),
            wear: WearSummary::default(),
        };
        let mbps = r.write_bandwidth_mbps();
        assert!((mbps - 1000.0 * 4096.0 / 1e6 / 2.0).abs() < 1e-9);
    }
}
