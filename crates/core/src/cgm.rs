//! `cgmFTL` — the coarse-grained mapping baseline (paper §2, §5).
//!
//! Logical-to-physical mapping at full-page (16 KB) granularity over the
//! whole device. Small or misaligned writes require **read-modify-write**:
//! the old 16 KB page is read, merged with the new sectors, and rewritten —
//! the paper's explanation for cgmFTL's collapse under small writes
//! ("89.3 % of the total writes in Varmail were serviced using RMW").

use esp_nand::Oob;
use esp_sim::{merge_events, SimTime, TraceEvent};
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::block_pool::window_fits_erase;
use crate::buffer::{FlushChunk, Front, FrontEnd, WriteBuffer};
use crate::config::FtlConfig;
use crate::full_region::FullRegionEngine;
use crate::map_cache::{MapCache, MapCacheStats};
use crate::read_path::{self, read_sectors_coarse, ReadReliability};
use crate::runner::Ftl;
use crate::stats::FtlStats;

/// The CGM-scheme FTL baseline.
///
/// # Examples
///
/// ```
/// use esp_core::{CgmFtl, Ftl, FtlConfig};
/// use esp_sim::SimTime;
///
/// let mut ftl = CgmFtl::new(&FtlConfig::tiny());
/// // A synchronous 4 KB write lands via an RMW-free path only if its whole
/// // 16 KB page is dirty; alone, it costs a full-page program.
/// let done = ftl.write(0, 1, true, SimTime::ZERO);
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct CgmFtl {
    ssd: Ssd,
    engine: FullRegionEngine,
    buffer: WriteBuffer,
    stats: FtlStats,
    seq: u64,
    logical_sectors: u64,
    reliability: ReadReliability,
    /// Static wear leveling: rotate a cold block when the pool's effective
    /// P/E spread exceeds this (`FtlConfig::wear_delta_threshold`).
    wear_delta: u32,
    /// Device erase count at which the next wear-spread check runs (the
    /// spread only changes on erase, so the scan is metered by erases).
    next_wear_check: u64,
    /// Background GC into host idle windows (`FtlConfig::background_gc`).
    background_gc: bool,
    /// Demand-cached page map (`FtlConfig::map_cache`): translation
    /// lookups charge CMT miss/evict traffic onto the host path. The
    /// in-DRAM `engine` map stays authoritative; the cache only models
    /// the latency and footprint of keeping most of it on flash.
    map_cache: Option<MapCache>,
    /// Reused RMW read buffer and OOB staging for
    /// [`CgmFtl::flush_chunks`], so the steady-state write path allocates
    /// nothing per page.
    slots_scratch: Vec<Result<Oob, esp_nand::ReadFault>>,
    oobs_scratch: Vec<Option<Oob>>,
    chunks_scratch: Vec<FlushChunk>,
}

impl CgmFtl {
    /// Builds a cgmFTL over the configured device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`FtlConfig::validate`]).
    #[must_use]
    pub fn new(config: &FtlConfig) -> Self {
        Self::with_ssd(config, config.build_ssd())
    }

    /// Builds the FTL structures over an existing (possibly non-empty)
    /// device; mapping state starts empty — see [`CgmFtl::recover`] for
    /// rebuilding it from flash contents.
    pub(crate) fn with_ssd(config: &FtlConfig, mut ssd: Ssd) -> Self {
        config.arm_device(&mut ssd);
        let logical_sectors = config.logical_sectors();
        let lpn_count = logical_sectors / u64::from(SECTORS_PER_PAGE);
        let all_blocks: Vec<u32> = (0..config.geometry.block_count()).collect();
        let mut engine = FullRegionEngine::new(
            all_blocks,
            config.geometry.pages_per_block,
            config.geometry.blocks_per_chip,
            lpn_count,
        );
        engine.set_wear_leveling(config.wear_leveling);
        engine.set_gc_policy(config.gc_policy);
        let map_cache = config.map_cache.as_ref().map(|mc| {
            use esp_nand::OpKind;
            MapCache::new(
                mc,
                lpn_count,
                config.geometry.pages_per_block,
                ssd.device().op_cost(OpKind::ReadFull).total(),
                ssd.device().op_cost(OpKind::ProgramFull).total(),
                ssd.device().op_cost(OpKind::Erase).total(),
            )
        });
        let mut stats = FtlStats::new();
        // Exclude factory-marked and previously grown bad blocks from the
        // pool (local index == gbi here, so retirement is in place).
        for gbi in ssd.device().bad_block_indices() {
            if engine.retire_gbi(gbi) {
                stats.blocks_retired += 1;
            }
        }
        CgmFtl {
            ssd,
            engine,
            buffer: WriteBuffer::new(config.write_buffer_sectors),
            stats,
            seq: 0,
            logical_sectors,
            reliability: ReadReliability::new(config),
            wear_delta: config.wear_delta_threshold,
            next_wear_check: 0,
            background_gc: config.background_gc,
            map_cache,
            slots_scratch: Vec::new(),
            oobs_scratch: Vec::new(),
            chunks_scratch: Vec::new(),
        }
    }

    /// Rebuilds a cgmFTL from the contents of a previously written device
    /// (power-loss recovery): scans every programmed page, maps each
    /// logical page to its newest readable copy, and resumes with a write
    /// sequence number above everything on flash. DRAM-buffered data that
    /// was never flushed is gone, as on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or does not match the
    /// device's geometry.
    #[must_use]
    pub fn recover(mut ssd: Ssd, config: &FtlConfig) -> Self {
        config.assert_mountable(&ssd);
        let scan = crate::recovery::scan_device(&mut ssd);
        let scans = scan.blocks;
        let mut ftl = Self::with_ssd(config, ssd);
        ftl.stats.torn_pages_quarantined = scan.torn_pages;
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let lpn_count = (ftl.logical_sectors / page_sz) as usize;
        // lpn -> (seq, local block, page); engine-local index == gbi here.
        let mut best: Vec<Option<(u64, u32, u32)>> = vec![None; lpn_count];
        let mut programmed = vec![0u32; scans.len()];
        let mut max_seq = 0u64;
        for (b, scan) in scans.iter().enumerate() {
            programmed[b] = scan.programmed_pages();
            for (p, page) in scan.pages.iter().enumerate() {
                let Some(newest) = page.live.iter().max_by_key(|s| s.seq) else {
                    continue;
                };
                max_seq = max_seq.max(newest.seq);
                let lpn = (newest.lsn / page_sz) as usize;
                if lpn >= lpn_count {
                    continue; // data beyond the (shrunk) logical space
                }
                if best[lpn].is_none_or(|(seq, _, _)| newest.seq > seq) {
                    best[lpn] = Some((newest.seq, b as u32, p as u32));
                }
            }
        }
        let mappings: Vec<(u64, u32, u32)> = best
            .iter()
            .enumerate()
            .filter_map(|(lpn, e)| e.map(|(_, b, p)| (lpn as u64, b, p)))
            .collect();
        ftl.engine.restore_state(&programmed, &mappings);
        ftl.seq = max_seq;
        ftl
    }

    pub(crate) fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Allocation-state digest for the crash harness's idempotence check
    /// (see [`FullRegionEngine::pool_fingerprint`]).
    pub(crate) fn pool_fingerprint(&self) -> Vec<u64> {
        self.engine.pool_fingerprint()
    }

    /// Asserts the engine's pool invariants plus map/validity agreement
    /// (see `BlockPool::check_invariants`). Intended for tests; panics on
    /// violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.engine.check_invariants();
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

impl FrontEnd for CgmFtl {
    fn front(&mut self) -> Front<'_> {
        Front {
            ssd: &self.ssd,
            buffer: &mut self.buffer,
            chunks: &mut self.chunks_scratch,
            reliability: &mut self.reliability,
            stats: &mut self.stats,
            logical_sectors: self.logical_sectors,
        }
    }

    /// Writes the chunks out, page by page, RMW-merging partial pages.
    fn flush_chunks(&mut self, chunks: &mut Vec<FlushChunk>, issue: SimTime) -> SimTime {
        let page = u64::from(SECTORS_PER_PAGE);
        let mut done = issue;
        for chunk in chunks.drain(..) {
            let (lo, hi) = (chunk.start_lsn, chunk.end_lsn());
            let first_lpn = lo / page;
            let last_lpn = (hi - 1) / page;
            for lpn in first_lpn..=last_lpn {
                let s_lo = lo.max(lpn * page);
                let s_hi = hi.min((lpn + 1) * page);
                let new_sectors = (s_hi - s_lo) as u32;
                let full_cover = new_sectors == SECTORS_PER_PAGE;

                self.oobs_scratch.clear();
                self.oobs_scratch.resize(SECTORS_PER_PAGE as usize, None);
                let mut t = issue;
                // A cached map must pull (and dirty) the translation entry
                // before the data program; misses serialize ahead of it.
                if let Some(cache) = self.map_cache.as_mut() {
                    t = cache.access(lpn, true, t);
                }
                if !full_cover {
                    // Read-modify-write: merge with the existing page, if any.
                    if let Some(ptr) = self.engine.lookup(lpn) {
                        let addr = self.engine.page_addr(ptr, &self.ssd);
                        let rt = self.ssd.read_full_into(addr, t, &mut self.slots_scratch);
                        for (slot, r) in self.slots_scratch.iter().enumerate() {
                            if let Ok(oob) = r {
                                self.oobs_scratch[slot] = Some(*oob);
                            }
                        }
                        t = rt;
                        self.stats.rmw_operations += 1;
                    }
                }
                for lsn in s_lo..s_hi {
                    let slot = (lsn - lpn * page) as usize;
                    self.oobs_scratch[slot] = Some(Oob {
                        lsn,
                        seq: self.next_seq(),
                    });
                }
                let pd = match self.engine.try_program_page(
                    lpn,
                    &self.oobs_scratch,
                    &mut self.ssd,
                    &mut self.stats,
                    t,
                ) {
                    Ok(pd) => pd,
                    Err(_) => {
                        // Pool exhausted mid-flush: latch end-of-life and
                        // drop the remaining data (the old copies, if any,
                        // stay mapped). Subsequent writes are refused at
                        // the top of `write`.
                        self.reliability.latch_end_of_life(&mut self.stats);
                        t
                    }
                };
                done = done.max(pd);

                // Request-WAF attribution: the whole 16 KB page consumption is
                // divided among the new host sectors it carries.
                let share = f64::from(SECTORS_PER_PAGE) / f64::from(new_sectors);
                for lsn in s_lo..s_hi {
                    let idx = (lsn - chunk.start_lsn) as usize;
                    if chunk.origins[idx] {
                        self.stats.small_waf_flash_sectors += share;
                    }
                }
            }
            self.buffer.recycle(chunk);
        }
        done
    }
}

impl Ftl for CgmFtl {
    fn name(&self) -> &'static str {
        "cgmFTL"
    }

    fn logical_sectors(&self) -> u64 {
        self.logical_sectors
    }

    fn enable_tracing(&mut self, capacity: usize) {
        self.engine.enable_tracing(capacity);
        self.ssd.enable_tracing(capacity);
    }

    fn events(&self) -> Vec<TraceEvent> {
        merge_events(&[self.engine.trace(), self.ssd.trace()])
    }

    fn events_dropped(&self) -> u64 {
        self.engine.trace().dropped() + self.ssd.trace().dropped()
    }

    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        self.write_back(lsn, sectors, sync, issue)
    }

    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime {
        if !self.admit_read(sectors) {
            return issue;
        }
        let mut issue = issue;
        if let Some(cache) = self.map_cache.as_mut() {
            let page = u64::from(SECTORS_PER_PAGE);
            let last = lsn + u64::from(sectors.max(1)) - 1;
            for lpn in lsn / page..=last / page {
                issue = cache.access(lpn, false, issue);
            }
        }
        let CgmFtl {
            ssd,
            engine,
            buffer,
            stats,
            reliability,
            slots_scratch,
            ..
        } = self;
        let (mut done, reclaim) = read_sectors_coarse(
            lsn,
            sectors,
            issue,
            ssd,
            engine,
            None,
            buffer,
            stats,
            reliability,
            slots_scratch,
        );
        for lpn in reclaim.pages {
            done = done.max(engine.reclaim_page(lpn, ssd, stats, done));
        }
        done
    }

    fn maintain(&mut self, now: SimTime) {
        if self.ssd.device_failed() {
            return;
        }
        let reads = self.ssd.device().stats().reads;
        if self.reliability.patrol_due(reads) {
            if let Some(limit) = self.reliability.scrub_limit() {
                self.engine
                    .scrub_disturbed(&mut self.ssd, &mut self.stats, limit, now);
            }
        }
        // Static wear leveling rides the maintenance tick (the idle hook
        // is reserved for background GC): the wear spread only changes on
        // erase, so the scan is re-armed per batch of erases and no-ops
        // entirely with wear leveling off.
        if self.engine.wear_leveling() {
            let erases = self.ssd.device().stats().erases;
            if erases >= self.next_wear_check {
                self.next_wear_check = erases + 16;
                self.engine
                    .wear_rotate(&mut self.ssd, &mut self.stats, now, self.wear_delta);
            }
        }
    }

    fn flush(&mut self, issue: SimTime) -> SimTime {
        self.flush_buffer(issue)
    }

    fn idle(&mut self, from: SimTime, until: SimTime) {
        if !self.background_gc
            || self.ssd.device_failed()
            || !window_fits_erase(&self.ssd, from, until)
        {
            return;
        }
        let target = self.engine.watermark() + 2;
        self.engine
            .background_collect(&mut self.ssd, &mut self.stats, from, until, target);
    }

    fn stored_seq(&self, lsn: u64) -> Option<u64> {
        let addr = self.engine.sector_addr(lsn, &self.ssd);
        read_path::stored_seq(&self.buffer, &self.ssd, lsn, addr)
    }

    fn trim(&mut self, lsn: u64, sectors: u32) {
        self.buffer.discard(lsn, sectors);
        self.engine.trim(lsn, sectors);
    }

    fn mapping_memory_bytes(&self) -> u64 {
        match &self.map_cache {
            Some(cache) => cache.resident_bytes(),
            None => self.engine.mapping_bytes(),
        }
    }

    fn map_cache_stats(&self) -> Option<MapCacheStats> {
        self.map_cache.as_ref().map(MapCache::stats)
    }

    fn stats(&self) -> &FtlStats {
        &self.stats
    }

    fn end_of_life(&self) -> bool {
        self.reliability.end_of_life()
    }

    fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    fn fail_device(&mut self) {
        self.ssd.device_mut().kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_trace;
    use esp_workload::{generate, IoRequest, SyntheticConfig, Trace};

    fn tiny_ftl() -> CgmFtl {
        CgmFtl::new(&FtlConfig::tiny())
    }

    #[test]
    fn sync_small_write_costs_rmw_after_first_version() {
        let mut ftl = tiny_ftl();
        // First write: page unmapped, no read needed.
        ftl.write(0, 1, true, SimTime::ZERO);
        assert_eq!(ftl.stats().rmw_operations, 0);
        // Overwrite of one sector of a mapped page: RMW.
        let t = SimTime::from_secs(1);
        ftl.write(0, 1, true, t);
        assert_eq!(ftl.stats().rmw_operations, 1);
    }

    #[test]
    fn full_aligned_write_avoids_rmw() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 4, true, SimTime::ZERO);
        ftl.write(0, 4, true, SimTime::from_secs(1));
        assert_eq!(ftl.stats().rmw_operations, 0);
    }

    #[test]
    fn misaligned_full_write_needs_two_rmws_once_mapped() {
        let mut ftl = tiny_ftl();
        // Map both pages first.
        ftl.write(0, 8, true, SimTime::ZERO);
        // 16 KB write misaligned by one sector touches 2 pages partially.
        ftl.write(1, 4, true, SimTime::from_secs(1));
        assert_eq!(ftl.stats().rmw_operations, 2);
    }

    #[test]
    fn async_writes_buffer_and_merge() {
        let mut ftl = tiny_ftl();
        // Four adjacent async small writes: absorbed, one full-page program
        // on flush, no RMW.
        for i in 0..4 {
            ftl.write(i, 1, false, SimTime::ZERO);
        }
        assert_eq!(ftl.ssd().device().stats().full_programs, 0);
        ftl.flush(SimTime::ZERO);
        assert_eq!(ftl.ssd().device().stats().full_programs, 1);
        assert_eq!(ftl.stats().rmw_operations, 0);
        // Merged small writes achieve request WAF 1.
        assert!((ftl.stats().small_request_waf() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sync_small_write_request_waf_is_four() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 1, true, SimTime::ZERO);
        assert!((ftl.stats().small_request_waf() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn read_your_writes() {
        let mut ftl = tiny_ftl();
        ftl.write(5, 3, true, SimTime::ZERO);
        let done = ftl.read(5, 3, SimTime::from_secs(1));
        assert!(done > SimTime::from_secs(1));
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn buffered_reads_cost_nothing() {
        let mut ftl = tiny_ftl();
        ftl.write(5, 1, false, SimTime::ZERO);
        let issue = SimTime::from_secs(1);
        let done = ftl.read(5, 1, issue);
        assert_eq!(done, issue, "buffer hit must not touch flash");
    }

    #[test]
    fn survives_sustained_random_small_sync_writes() {
        let mut ftl = tiny_ftl();
        let logical = ftl.logical_sectors();
        let cfg = SyntheticConfig {
            footprint_sectors: logical / 2,
            requests: 2_000,
            r_small: 1.0,
            r_synch: 1.0,
            zipf_theta: 0.5,
            ..SyntheticConfig::default()
        };
        let report = run_trace(&mut ftl, &generate(&cfg));
        assert!(report.stats.gc_invocations > 0, "GC exercised");
        assert_eq!(report.stats.read_faults, 0);
        assert!(report.iops > 0.0);
    }

    #[test]
    fn survives_faults_and_factory_bad_blocks() {
        let mut config = FtlConfig::tiny();
        config.fault = Some(esp_nand::FaultConfig {
            seed: 9,
            program_fail_prob: 0.02,
            erase_fail_prob: 0.01,
            factory_bad_blocks: 2,
            ..esp_nand::FaultConfig::default()
        });
        let mut ftl = CgmFtl::new(&config);
        assert_eq!(
            ftl.stats().blocks_retired,
            2,
            "factory bad blocks retired at mount"
        );
        let logical = ftl.logical_sectors();
        let cfg = SyntheticConfig {
            footprint_sectors: logical / 2,
            requests: 2_000,
            r_small: 0.5,
            r_synch: 1.0,
            zipf_theta: 0.5,
            ..SyntheticConfig::default()
        };
        let report = run_trace(&mut ftl, &generate(&cfg));
        assert_eq!(
            report.stats.read_faults, 0,
            "faults must never corrupt reads"
        );
        assert!(report.stats.write_retries > 0, "p=0.02 must force retries");
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let mut config = FtlConfig::tiny();
        config.fault = Some(esp_nand::FaultConfig {
            seed: 13,
            program_fail_prob: 0.02,
            erase_fail_prob: 0.01,
            ..esp_nand::FaultConfig::default()
        });
        let cfg = SyntheticConfig {
            footprint_sectors: CgmFtl::new(&config).logical_sectors() / 2,
            requests: 1_000,
            r_small: 0.5,
            r_synch: 1.0,
            ..SyntheticConfig::default()
        };
        let trace = generate(&cfg);
        let run = |c: &FtlConfig| {
            let mut ftl = CgmFtl::new(c);
            run_trace(&mut ftl, &trace)
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.stats.write_retries, b.stats.write_retries);
        assert_eq!(a.stats.blocks_retired, b.stats.blocks_retired);
        assert_eq!(a.erases, b.erases);
        let mut other = config.clone();
        other.fault = Some(esp_nand::FaultConfig {
            seed: 14,
            ..config.fault.clone().unwrap()
        });
        let c = run(&other);
        assert_ne!(
            (a.stats.write_retries, a.stats.erase_failures),
            (c.stats.write_retries, c.stats.erase_failures),
            "different fault seed, different fault history"
        );
    }

    #[test]
    fn unmapped_read_is_free() {
        let mut ftl = tiny_ftl();
        let issue = SimTime::from_secs(1);
        assert_eq!(ftl.read(100, 2, issue), issue);
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn hot_reads_stay_correctable_with_ladder_and_reclaim() {
        use esp_nand::{RetentionModel, RetryLadder};
        let mut config = FtlConfig::tiny();
        config.retention = RetentionModel::paper_default().with_read_disturb(2e-2);
        config.retry_ladder = Some(RetryLadder::paper_default());
        config.reclaim_threshold = Some(2);
        let mut ftl = CgmFtl::new(&config);
        ftl.write(0, 4, true, SimTime::ZERO);
        // Hammer one page far past the bare-ECC disturb budget (~108
        // senses at 2e-2 per read over a fresh block).
        let mut now = SimTime::from_secs(1);
        for _ in 0..600 {
            ftl.maintain(now);
            now = ftl.read(0, 4, now);
        }
        assert_eq!(ftl.stats().read_faults, 0, "pipeline must keep data alive");
        assert!(
            ftl.stats().read_reclaims > 0 || ftl.stats().disturb_scrubs > 0,
            "mitigation must actually have run"
        );
        assert!(
            ftl.ssd().device().stats().recovered_reads > 0,
            "the ladder carried reads past the base limit"
        );
    }

    #[test]
    fn hot_reads_without_mitigation_lose_data_and_can_latch_read_only() {
        use esp_nand::RetentionModel;
        let mut config = FtlConfig::tiny();
        config.retention = RetentionModel::paper_default().with_read_disturb(2e-2);
        config.read_only_on_loss = true;
        let mut ftl = CgmFtl::new(&config);
        ftl.write(0, 4, true, SimTime::ZERO);
        let mut now = SimTime::from_secs(1);
        for _ in 0..300 {
            now = ftl.read(0, 4, now);
        }
        assert!(
            ftl.stats().read_faults > 0,
            "no ladder, no reclaim: disturb must eventually win"
        );
        assert_eq!(
            ftl.stats().read_faults_retention,
            ftl.stats().read_faults,
            "every fault here is a BER (retention-class) fault"
        );
        assert_eq!(ftl.stats().read_only_trips, 1);
        let before = ftl.ssd().device().stats().full_programs;
        ftl.write(8, 4, true, now);
        assert_eq!(
            ftl.stats().writes_dropped_read_only,
            1,
            "latched FTL refuses writes"
        );
        assert_eq!(
            ftl.ssd().device().stats().full_programs,
            before,
            "refused write must not touch flash"
        );
    }

    #[test]
    fn run_trace_reports_sync_serialization() {
        let mut ftl = tiny_ftl();
        let mut t = Trace::new(64);
        for i in 0..8u64 {
            t.push(IoRequest::write(SimTime::ZERO, i * 4, 4, true));
        }
        let report = run_trace(&mut ftl, &t);
        // 8 sync full-page writes at >= 1640 us each, serialized.
        assert!(report.makespan >= SimTime::from_micros(8 * 1640));
        assert_eq!(report.requests, 8);
    }
}
