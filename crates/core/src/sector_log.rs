//! `sectorLogFTL` — the sector-log technique of Jin et al. (SAC 2011), the
//! closest related work the paper discusses (§6).
//!
//! Like subFTL it is a *hybrid-mapping* FTL: small writes are appended to a
//! reserved **log region** with fine-grained (4 KB) mapping while ordinary
//! data lives in a coarse-grained **data region**. The critical difference
//! the paper calls out: the sector log "supports subpage programming at the
//! logical level" only — without ESP, every append to the log physically
//! programs a whole 16 KB page, so a synchronous 4 KB write still wastes
//! 3/4 of a page and "its performance suffers when synchronous small writes
//! occur fairly frequently". Log GC performs *full merges*: every live log
//! sector of a victim's logical pages is read-modify-written back into the
//! data region.
//!
//! Implemented as a fourth [`Ftl`] so the paper's qualitative comparison
//! becomes a measurable experiment (`related_sector_log`).

use esp_nand::{Oob, SubpageAddr};
use esp_sim::{merge_events, EventBuffer, SimTime, TraceEvent};
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::block_pool::{window_fits_erase, BlockPool, Refill};
use crate::buffer::{FlushChunk, Front, FrontEnd, WriteBuffer};
use crate::config::{FtlConfig, GC_FREE_WATERMARK};
use crate::full_region::FullRegionEngine;
use crate::gc_policy::GcPolicyKind;
use crate::read_path::{self, note_read_result, read_sectors_coarse, FineMap, ReadReliability};
use crate::runner::Ftl;
use crate::stats::FtlStats;
use crate::sub_map::{SubEntry, SubpageMap};

/// The sector-log baseline FTL (see module docs).
///
/// # Examples
///
/// ```
/// use esp_core::{Ftl, FtlConfig, SectorLogFtl};
/// use esp_sim::SimTime;
///
/// let mut ftl = SectorLogFtl::new(&FtlConfig::tiny());
/// // A synchronous 4 KB write appends to the log: one full-page program.
/// ftl.write(0, 1, true, SimTime::ZERO);
/// assert_eq!(ftl.ssd().device().stats().full_programs, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SectorLogFtl {
    ssd: Ssd,
    /// Coarse-grained data region (same engine as cgmFTL).
    data: FullRegionEngine,
    /// The log region: `N_sub` mapping units per page.
    log: BlockPool,
    /// Fine-grained log map: lsn → log location.
    log_map: SubpageMap,
    buffer: WriteBuffer,
    stats: FtlStats,
    seq: u64,
    logical_sectors: u64,
    pages_per_block: u32,
    nsub: u32,
    /// Victim-selection policy for log-merge GC (the data region's engine
    /// carries its own copy).
    gc_policy: GcPolicyKind,
    /// Background GC into host idle windows (`FtlConfig::background_gc`).
    background_gc: bool,
    /// Wear-delta bias in log-merge victim selection plus wear-aware log
    /// allocation (off by default for bit-identity with the seed).
    wear_leveling: bool,
    /// Max−min effective-P/E spread that triggers a data-region rotation.
    wear_delta: u32,
    /// Device erase count at which the next wear-spread check runs.
    next_wear_check: u64,
    reliability: ReadReliability,
    /// Log-merge/reclaim event recorder; disabled (free) by default.
    trace: EventBuffer,
    /// Reused full-page read buffer and OOB staging for log merges, log
    /// appends and grouped host reads, so those hot paths allocate nothing
    /// per page.
    slots_scratch: Vec<Result<Oob, esp_nand::ReadFault>>,
    oobs_scratch: Vec<Option<Oob>>,
    chunks_scratch: Vec<FlushChunk>,
    /// Reused list of a flush chunk's `(lsn, from host)` sectors outside
    /// whole logical pages, which go to the log.
    residues_scratch: Vec<(u64, bool)>,
    /// Reused list of the logical pages a log merge rewrites (see
    /// [`SectorLogFtl::merge_block`]).
    lpns_scratch: Vec<u64>,
}

impl SectorLogFtl {
    /// Builds a sector-log FTL over the configured device, giving the log
    /// region the same share of blocks subFTL gives its subpage region
    /// (`subpage_region_fraction`), for a like-for-like comparison.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`FtlConfig::validate`]).
    #[must_use]
    pub fn new(config: &FtlConfig) -> Self {
        Self::with_ssd(config, config.build_ssd())
    }

    /// Builds the FTL structures over an existing (possibly non-empty)
    /// device with the default region layout; mapping state starts empty —
    /// see [`SectorLogFtl::recover`] for rebuilding it from flash contents.
    pub(crate) fn with_ssd(config: &FtlConfig, mut ssd: Ssd) -> Self {
        config.arm_device(&mut ssd);
        let g = &config.geometry;
        let bpc = g.blocks_per_chip;
        let log_per_chip = config.hot_blocks_per_chip();
        let mut log_gbis = Vec::new();
        let mut data_gbis = Vec::new();
        for chip in 0..g.chip_count() {
            for b in 0..bpc {
                let gbi = chip * bpc + b;
                if b < log_per_chip {
                    log_gbis.push(gbi);
                } else {
                    data_gbis.push(gbi);
                }
            }
        }
        let logical_sectors = config.logical_sectors();
        let lpn_count = logical_sectors / u64::from(SECTORS_PER_PAGE);
        let mut data = FullRegionEngine::new(data_gbis, g.pages_per_block, bpc, lpn_count);
        data.set_wear_leveling(config.wear_leveling);
        data.set_gc_policy(config.gc_policy);
        let log = BlockPool::new(
            &log_gbis,
            g.pages_per_block,
            g.subpages_per_page,
            bpc,
            g.chip_count() as usize,
        );
        let map_capacity = log_gbis.len() * (g.pages_per_block * g.subpages_per_page) as usize;
        let mut ftl = SectorLogFtl {
            ssd,
            data,
            log,
            log_map: SubpageMap::with_capacity(map_capacity.max(1), logical_sectors),
            buffer: WriteBuffer::new(config.write_buffer_sectors),
            stats: FtlStats::new(),
            seq: 0,
            logical_sectors,
            pages_per_block: g.pages_per_block,
            nsub: g.subpages_per_page,
            gc_policy: config.gc_policy,
            background_gc: config.background_gc,
            wear_leveling: config.wear_leveling,
            wear_delta: config.wear_delta_threshold,
            next_wear_check: 0,
            reliability: ReadReliability::new(config),
            trace: EventBuffer::disabled(),
            slots_scratch: Vec::new(),
            oobs_scratch: Vec::new(),
            chunks_scratch: Vec::new(),
            residues_scratch: Vec::new(),
            lpns_scratch: Vec::new(),
        };
        // Exclude factory-marked bad blocks from whichever region owns them.
        for gbi in ftl.ssd.device().bad_block_indices() {
            if ftl.data.retire_gbi(gbi) || ftl.log.retire_gbi(gbi) {
                ftl.stats.blocks_retired += 1;
            }
        }
        ftl
    }

    /// Rebuilds a sector-log FTL from the contents of a previously written
    /// device (power-loss recovery). The region split is structural (the
    /// same per-chip shares `with_ssd` uses), so each scanned block's
    /// contents are re-attributed to its region: the data region maps each
    /// logical page to its newest readable copy, and a log entry survives
    /// only while it is strictly newer than the data-region copy of the
    /// same sector (merges copy log data into the data region preserving
    /// sequence numbers, so on a tie the full-page copy wins). Torn pages
    /// found by the scan are quarantined and counted. DRAM-buffered data
    /// that was never flushed is gone, as on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or does not match the
    /// device's geometry.
    #[must_use]
    pub fn recover(mut ssd: Ssd, config: &FtlConfig) -> Self {
        config.assert_mountable(&ssd);
        if let Some(f) = &config.fault {
            ssd.device_mut().set_faults(f.clone());
        }
        let scan = crate::recovery::scan_device(&mut ssd);
        let scans = scan.blocks;
        let g = config.geometry.clone();
        let bpc = g.blocks_per_chip;
        let log_per_chip = config.hot_blocks_per_chip();
        let data_per_chip = bpc - log_per_chip;
        let mut ftl = Self::with_ssd(config, ssd);
        ftl.stats.torn_pages_quarantined = scan.torn_pages;
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let lpn_count = (ftl.logical_sectors / page_sz) as usize;

        // Split the scan back into the structural regions.
        // lpn -> (seq, data-local block, page) of the newest data copy.
        let mut best_data: Vec<Option<(u64, u32, u32)>> = vec![None; lpn_count];
        // Newest log copy per lsn.
        #[derive(Clone, Copy)]
        struct LogCand {
            seq: u64,
            block: u32,
            page: u32,
            slot: u8,
            written_at: SimTime,
        }
        let mut best_log: Vec<Option<LogCand>> = vec![None; ftl.logical_sectors as usize];
        let mut data_programmed = vec![0u32; (g.chip_count() * data_per_chip) as usize];
        let mut log_programmed = vec![0u32; (g.chip_count() * log_per_chip) as usize];
        let mut max_seq = 0u64;
        for (gbi, scan) in scans.iter().enumerate() {
            let gbi = gbi as u32;
            let (chip, b) = (gbi / bpc, gbi % bpc);
            let log_local = if b < log_per_chip {
                let local = chip * log_per_chip + b;
                log_programmed[local as usize] = scan.programmed_pages();
                Some(local)
            } else {
                let data_local = chip * data_per_chip + (b - log_per_chip);
                data_programmed[data_local as usize] = scan.programmed_pages();
                None
            };
            for (p, page) in scan.pages.iter().enumerate() {
                for slot in &page.live {
                    max_seq = max_seq.max(slot.seq);
                }
                match log_local {
                    Some(local) => {
                        for slot in &page.live {
                            if slot.lsn >= ftl.logical_sectors {
                                continue;
                            }
                            let e = &mut best_log[slot.lsn as usize];
                            if e.is_none_or(|c| slot.seq > c.seq) {
                                *e = Some(LogCand {
                                    seq: slot.seq,
                                    block: local,
                                    page: p as u32,
                                    slot: slot.slot,
                                    written_at: slot.written_at,
                                });
                            }
                        }
                    }
                    None => {
                        let Some(newest) = page.live.iter().max_by_key(|s| s.seq) else {
                            continue;
                        };
                        let lpn = (newest.lsn / page_sz) as usize;
                        if lpn >= lpn_count {
                            continue;
                        }
                        let data_local = chip * data_per_chip + (b - log_per_chip);
                        if best_data[lpn].is_none_or(|(seq, _, _)| newest.seq > seq) {
                            best_data[lpn] = Some((newest.seq, data_local, p as u32));
                        }
                    }
                }
            }
        }
        let mappings: Vec<(u64, u32, u32)> = best_data
            .iter()
            .enumerate()
            .filter_map(|(lpn, e)| e.map(|(_, b, p)| (lpn as u64, b, p)))
            .collect();
        ftl.data.restore_state(&data_programmed, &mappings);
        ftl.log.restore(&log_programmed);

        // Per-sector sequence number of the chosen data-region copy, used
        // to drop log entries the merges already superseded.
        let mut data_seq = vec![0u64; ftl.logical_sectors as usize];
        for entry in &best_data {
            let Some((_, data_local, p)) = *entry else {
                continue;
            };
            let chip = data_local / data_per_chip;
            let gbi = chip * bpc + log_per_chip + (data_local % data_per_chip);
            for slot in &scans[gbi as usize].pages[p as usize].live {
                if slot.lsn < ftl.logical_sectors {
                    data_seq[slot.lsn as usize] = data_seq[slot.lsn as usize].max(slot.seq);
                }
            }
        }
        for (lsn, entry) in best_log.iter().enumerate() {
            let Some(c) = *entry else {
                continue;
            };
            if c.seq <= data_seq[lsn] {
                continue; // merged into the data region already
            }
            ftl.log_map.insert(
                lsn as u64,
                SubEntry {
                    block: c.block,
                    page: c.page,
                    slot: c.slot,
                    updated: false,
                    written_at: c.written_at,
                },
            );
            ftl.log
                .mark_valid(c.block, c.page * ftl.nsub + u32::from(c.slot));
        }
        ftl.seq = max_seq;
        ftl
    }

    pub(crate) fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Allocation-state digest for the crash harness's idempotence check:
    /// the log region's pool, then the data region's (see
    /// `BlockPool::fingerprint`).
    pub(crate) fn pool_fingerprint(&self) -> Vec<u64> {
        let mut out = self.log.fingerprint();
        out.push(u64::MAX);
        out.extend(self.data.pool_fingerprint());
        out
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Static wear leveling for the log region: a log block packed with
    /// valid cold sectors is never a profitable merge victim, so it can pin
    /// a lightly-worn block forever. When the fleet-wide effective-wear
    /// spread exceeds the threshold, the coldest such parked block is
    /// force-merged so it rejoins the erase rotation. At most one block per
    /// call; metered from `maintain`.
    fn log_wear_rotate(&mut self, issue: SimTime) -> SimTime {
        if !self.wear_leveling || self.reliability.end_of_life() || self.ssd.halted() {
            return issue;
        }
        let data_max = self.data.wear_spread(&self.ssd).map_or(0, |(_, hi)| hi);
        let log_max = self.log.wear_spread(&self.ssd).map_or(0, |(_, hi)| hi);
        let Some((victim, cold_pe)) = self.log.coldest_collectable(&self.ssd) else {
            return issue;
        };
        if data_max.max(log_max).saturating_sub(cold_pe) <= self.wear_delta {
            return issue;
        }
        self.stats.wear_level_migrations += 1;
        self.merge_block(victim, issue).unwrap_or(issue)
    }

    /// With wear leveling on, trades the hottest erased log block for the
    /// data region's coldest free block. The log pool churns orders of
    /// magnitude faster than data blocks pinned under cold pages, so
    /// without this cross-region exchange the handful of log blocks absorb
    /// the device's whole erase budget on their own.
    fn maybe_log_wear_swap(&mut self) {
        if !self.wear_leveling {
            return;
        }
        let Some(pos) = self.log.most_worn_free(&self.ssd) else {
            return;
        };
        let worn_gbi = self.log.free_gbi(pos);
        let Some(fresh_gbi) = self
            .data
            .swap_free_block(worn_gbi, self.wear_delta, &self.ssd)
        else {
            return;
        };
        self.log.donate(pos);
        self.log.adopt(fresh_gbi);
        self.stats.wear_swaps += 1;
    }

    /// Device subpage of a log-map entry.
    fn log_addr(&self, e: SubEntry) -> SubpageAddr {
        let block = self.ssd.geometry().block_addr(self.log.gbi(e.block));
        block.page(e.page).subpage(e.slot)
    }

    fn unmap_log(&mut self, lsn: u64) {
        if let Some(e) = self.log_map.remove(lsn) {
            self.log
                .invalidate(e.block, e.page * self.nsub + u32::from(e.slot));
        }
    }

    /// Appends up to `N_sub` sectors of one chunk into one log page,
    /// striped across chips. A program that reports status fail is retried
    /// on the next log page.
    fn log_append(&mut self, group: &[(u64, bool)], issue: SimTime) -> SimTime {
        debug_assert!(!group.is_empty() && group.len() <= self.nsub as usize);
        let now = self.ensure_log_space(issue);
        self.oobs_scratch.clear();
        self.oobs_scratch.resize(self.nsub as usize, None);
        for (slot, &(lsn, _)) in group.iter().enumerate() {
            let seq = self.next_seq();
            self.oobs_scratch[slot] = Some(Oob { lsn, seq });
        }
        // With wear leveling, refills pick the chip's least-worn free log
        // block so erase cycles spread across the region; otherwise the
        // chip's first free block (seed behavior).
        let refill = if self.wear_leveling {
            Refill::LeastWornLowestIndex
        } else {
            Refill::FirstFree
        };
        let (block, page, done) = match self.log.program(
            &mut self.ssd,
            &self.oobs_scratch,
            &mut self.stats,
            refill,
            now,
        ) {
            Ok(landed) => landed,
            Err(now) => {
                if !self.ssd.halted() {
                    // End of life: the log region has no appendable
                    // page left. Drop the append (old copies stay
                    // mapped) and latch the refusal so subsequent
                    // writes are dropped up front.
                    self.reliability.latch_end_of_life(&mut self.stats);
                }
                return now;
            }
        };
        for (slot, &(lsn, _)) in group.iter().enumerate() {
            self.unmap_log(lsn);
            self.log_map.insert(
                lsn,
                SubEntry {
                    block,
                    page,
                    slot: slot as u8,
                    updated: false,
                    written_at: done,
                },
            );
            self.log.mark_valid(block, page * self.nsub + slot as u32);
        }
        self.stats.flash_sectors_consumed += u64::from(SECTORS_PER_PAGE);
        let share = f64::from(SECTORS_PER_PAGE) / group.len() as f64;
        for &(_, origin) in group {
            if origin {
                self.stats.small_waf_flash_sectors += share;
            }
        }
        done
    }

    fn ensure_log_space(&mut self, issue: SimTime) -> SimTime {
        let mut now = issue;
        while !self.ssd.halted() && self.log.free_blocks() < GC_FREE_WATERMARK {
            // A shrunken log region (retired bad blocks) may dip below the
            // watermark before any block has filled; merge what exists and
            // let the allocator keep appending to the open blocks.
            let Some(victim) = self
                .log
                .gc_victim(&self.ssd, self.gc_policy, self.wear_leveling)
            else {
                break;
            };
            match self.merge_block(victim, now) {
                Some(done) => now = done,
                None => {
                    // The data region is exhausted, so the merge could not
                    // drain the victim: retrying would livelock. Latch end
                    // of life and degrade to refusing writes instead.
                    self.reliability.latch_end_of_life(&mut self.stats);
                    break;
                }
            }
        }
        now
    }

    /// Log GC: full merge — every live sector of the victim (and every
    /// other live log copy of the same logical pages) is read-modify-
    /// written back into the data region one logical page at a time; the
    /// victim is erased. Shared by normal log GC and static wear leveling
    /// (coldest parked block). Returns `None` when the data region was too
    /// exhausted to drain the victim (the log copies stay where they are,
    /// nothing is erased).
    fn merge_block(&mut self, victim: u32, issue: SimTime) -> Option<SimTime> {
        self.stats.gc_invocations += 1;
        let valid = self.log.valid_count(victim);
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.collect")
                .tag("log_merge")
                .field("block", u64::from(victim))
                .field("valid_sectors", u64::from(valid))
        });
        let mut now = issue;
        // Collect the victim's live sectors.
        let gbi = self.log.gbi(victim);
        let mut lpns = std::mem::take(&mut self.lpns_scratch);
        lpns.clear();
        for page in 0..self.pages_per_block {
            if !self.log.page_has_valid(victim, page) {
                continue;
            }
            let addr = self.ssd.geometry().block_addr(gbi).page(page);
            now = self.ssd.read_full_into(addr, now, &mut self.slots_scratch);
            if self.ssd.halted() {
                // Power died mid-merge: surviving log copies stay where
                // they are on flash; this half-done merge dies with DRAM.
                self.lpns_scratch = lpns;
                return Some(now);
            }
            for slot in 0..self.nsub {
                if !self.log.is_valid(victim, page * self.nsub + slot) {
                    continue;
                }
                match self.slots_scratch[slot as usize] {
                    Ok(oob) => lpns.push(oob.lsn / u64::from(SECTORS_PER_PAGE)),
                    Err(fault) => {
                        // The ladder could not recover it: count the loss
                        // once and drop the log mapping, found in the map
                        // since the spare area is unreadable.
                        let (lsn, _) = self
                            .log_map
                            .iter()
                            .find(|(_, e)| {
                                (e.block, e.page, u32::from(e.slot)) == (victim, page, slot)
                            })
                            .expect("valid log sector is mapped");
                        note_read_result(&Err(fault), lsn, &mut self.stats);
                        self.unmap_log(lsn);
                    }
                }
            }
        }
        lpns.sort_unstable();
        lpns.dedup();
        for &lpn in &lpns {
            now = self.merge_lpn(lpn, now);
        }
        self.lpns_scratch = lpns;
        if self.log.valid_count(victim) > 0 {
            // The data region ran out of space mid-merge: the remaining
            // log entries are sole copies, so the victim must not be
            // erased. The caller degrades to end-of-life handling.
            return if self.ssd.halted() { Some(now) } else { None };
        }
        // An erase failure retires the block: all live sectors were merged
        // into the data region above, so retiring it loses nothing.
        match self.log.erase(victim, &mut self.ssd, &mut self.stats, now) {
            Ok(done) => {
                self.maybe_log_wear_swap();
                Some(done)
            }
            Err(at) => Some(at),
        }
    }

    /// Full merge of one logical page: gather its sectors (live log copies
    /// first, then the old data-region page), program a fresh data page,
    /// and drop the log entries.
    fn merge_lpn(&mut self, lpn: u64, issue: SimTime) -> SimTime {
        let page_sz = u64::from(SECTORS_PER_PAGE);
        self.oobs_scratch.clear();
        self.oobs_scratch.resize(SECTORS_PER_PAGE as usize, None);
        let mut now = issue;
        let mut from_log = 0u64;
        for slot in 0..u64::from(SECTORS_PER_PAGE) {
            let lsn = lpn * page_sz + slot;
            if let Some(e) = self.log_map.get(lsn) {
                let (r, t) = self.ssd.read_subpage(self.log_addr(e), now);
                now = t;
                note_read_result(&r, lsn, &mut self.stats);
                if let Ok(oob) = r {
                    self.oobs_scratch[slot as usize] = Some(oob);
                    from_log += 1;
                }
            }
        }
        if let Some(ptr) = self.data.lookup(lpn) {
            let addr = self.data.page_addr(ptr, &self.ssd);
            now = self.ssd.read_full_into(addr, now, &mut self.slots_scratch);
            for (slot, r) in self.slots_scratch.iter().enumerate() {
                if self.oobs_scratch[slot].is_none() {
                    if let Ok(oob) = r {
                        self.oobs_scratch[slot] = Some(*oob);
                    }
                }
            }
            self.stats.rmw_operations += 1;
        }
        now = match self.data.try_program_page(
            lpn,
            &self.oobs_scratch,
            &mut self.ssd,
            &mut self.stats,
            now,
        ) {
            Ok(t) => t,
            Err(_) => {
                // Data region exhausted: the log entries are sole copies,
                // so they stay mapped; writes degrade to refusal.
                self.reliability.latch_end_of_life(&mut self.stats);
                return now;
            }
        };
        for slot in 0..page_sz {
            self.unmap_log(lpn * page_sz + slot);
        }
        self.stats.gc_copied_sectors += from_log;
        self.stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
        now
    }

    /// Asserts both regions' pool invariants (see
    /// `BlockPool::check_invariants`) plus map/validity agreement: every
    /// mapped page or log sector is valid and each region's mapped count
    /// equals its pool's valid count. Intended for tests; panics on
    /// violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.data.check_invariants();
        self.log.check_invariants();
        let mut mapped = 0u64;
        for (lsn, e) in self.log_map.iter() {
            assert!(
                self.log
                    .is_valid(e.block, e.page * self.nsub + u32::from(e.slot)),
                "log sector {lsn} maps to an invalid subpage"
            );
            mapped += 1;
        }
        assert_eq!(
            mapped,
            self.log.valid_units(),
            "log map and validity disagree"
        );
    }
}

impl FrontEnd for SectorLogFtl {
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

    /// Flushes chunks: aligned 16 KB units go straight to the data region,
    /// residues append to the log (per-chunk packing, like the FGM buffer).
    fn flush_chunks(&mut self, chunks: &mut Vec<FlushChunk>, issue: SimTime) -> SimTime {
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let mut done = issue;
        for chunk in chunks.drain(..) {
            let (lo, hi) = (chunk.start_lsn, chunk.end_lsn());
            let aligned_lo = lo.div_ceil(page_sz) * page_sz;
            let aligned_hi = (hi / page_sz) * page_sz;
            let origin = |lsn: u64| chunk.origins[(lsn - chunk.start_lsn) as usize];
            let mut residues = std::mem::take(&mut self.residues_scratch);
            residues.clear();
            if aligned_lo + page_sz <= aligned_hi {
                residues.extend((lo..aligned_lo).map(|l| (l, origin(l))));
                for lpn in aligned_lo / page_sz..aligned_hi / page_sz {
                    self.oobs_scratch.clear();
                    for slot in 0..page_sz {
                        let seq = self.next_seq();
                        self.oobs_scratch.push(Some(Oob {
                            lsn: lpn * page_sz + slot,
                            seq,
                        }));
                    }
                    let t = match self.data.try_program_page(
                        lpn,
                        &self.oobs_scratch,
                        &mut self.ssd,
                        &mut self.stats,
                        issue,
                    ) {
                        Ok(t) => t,
                        Err(_) => {
                            // End of life: the flush has nowhere to land;
                            // any older copies (data or log) stay mapped.
                            self.reliability.latch_end_of_life(&mut self.stats);
                            continue;
                        }
                    };
                    done = done.max(t);
                    for slot in 0..page_sz {
                        let lsn = lpn * page_sz + slot;
                        self.unmap_log(lsn);
                        if origin(lsn) {
                            self.stats.small_waf_flash_sectors += 1.0;
                        }
                    }
                }
                residues.extend((aligned_hi..hi).map(|l| (l, origin(l))));
            } else {
                residues.extend((lo..hi).map(|l| (l, origin(l))));
            }
            for group in residues.chunks(self.nsub as usize) {
                let t = self.log_append(group, issue);
                done = done.max(t);
            }
            self.residues_scratch = residues;
            self.buffer.recycle(chunk);
        }
        done
    }
}

impl Ftl for SectorLogFtl {
    fn name(&self) -> &'static str {
        "sectorLogFTL"
    }

    fn logical_sectors(&self) -> u64 {
        self.logical_sectors
    }

    fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
        self.data.enable_tracing(capacity);
        self.ssd.enable_tracing(capacity);
    }

    fn events(&self) -> Vec<TraceEvent> {
        merge_events(&[&self.trace, self.data.trace(), self.ssd.trace()])
    }

    fn events_dropped(&self) -> u64 {
        self.trace.dropped() + self.data.trace().dropped() + self.ssd.trace().dropped()
    }

    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        self.write_back(lsn, sectors, sync, issue)
    }

    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime {
        if !self.admit_read(sectors) {
            return issue;
        }
        let SectorLogFtl {
            ssd,
            data,
            log,
            log_map,
            buffer,
            stats,
            reliability,
            slots_scratch,
            ..
        } = self;
        let fine = FineMap {
            map: log_map,
            gbi: &|b| log.gbi(b),
        };
        let (mut done, reclaim) = read_sectors_coarse(
            lsn,
            sectors,
            issue,
            ssd,
            data,
            Some(fine),
            buffer,
            stats,
            reliability,
            slots_scratch,
        );
        // One relocation per logical page (the second element marks a
        // costly log copy); a full merge handles both regions at once, and
        // runs whether or not the log read succeeded.
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let mut pages: Vec<(u64, bool)> = reclaim
            .sectors
            .iter()
            .map(|&(s, _)| (s / page_sz, true))
            .collect();
        pages.extend(reclaim.pages.iter().map(|&lpn| (lpn, false)));
        pages.sort_unstable_by_key(|&(lpn, via_log)| (lpn, !via_log));
        pages.dedup_by_key(|e| e.0);
        for (lpn, via_log) in pages {
            done = if via_log {
                let at = done.as_nanos();
                let t = self.merge_lpn(lpn, done);
                self.trace.emit(|| {
                    TraceEvent::new(at, "gc.reclaim")
                        .tag("read_reclaim")
                        .field("lpn", lpn)
                });
                self.stats.read_reclaims += 1;
                t
            } else {
                self.data
                    .reclaim_page(lpn, &mut self.ssd, &mut self.stats, done)
            };
        }
        done
    }

    fn maintain(&mut self, now: SimTime) {
        if self.ssd.device_failed() {
            return;
        }
        // The patrol covers the data region; disturbed log entries are
        // relocated through full merges when their reads climb the ladder.
        let reads = self.ssd.device().stats().reads;
        if self.reliability.patrol_due(reads) {
            if let Some(limit) = self.reliability.scrub_limit() {
                self.data
                    .scrub_disturbed(&mut self.ssd, &mut self.stats, limit, now);
            }
        }
        if self.data.wear_leveling() {
            let erases = self.ssd.device().stats().erases;
            if erases >= self.next_wear_check {
                self.next_wear_check = erases + 16;
                self.data
                    .wear_rotate(&mut self.ssd, &mut self.stats, now, self.wear_delta);
                self.log_wear_rotate(now);
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
        // Refill the data-region pool first, then pre-merge log blocks: a
        // merge only starts if its estimate fits the remaining window.
        let mut now = self.data.background_collect(
            &mut self.ssd,
            &mut self.stats,
            from,
            until,
            GC_FREE_WATERMARK + 2,
        );
        use esp_nand::OpKind;
        let per_page = self.ssd.device().op_cost(OpKind::ReadFull).total()
            + self.ssd.device().op_cost(OpKind::ProgramFull).total();
        let erase = self.ssd.device().op_cost(OpKind::Erase).total();
        while !self.ssd.halted() && self.log.free_blocks() < GC_FREE_WATERMARK + 2 {
            let Some(victim) = self
                .log
                .gc_victim(&self.ssd, self.gc_policy, self.wear_leveling)
            else {
                break;
            };
            let valid = self.log.valid_count(victim);
            if valid >= self.pages_per_block * self.nsub {
                break; // nothing reclaimable
            }
            let estimate = per_page * u64::from(valid.div_ceil(self.nsub).max(1) + 1) + erase;
            if now + estimate > until {
                break;
            }
            match self.merge_block(victim, now) {
                Some(done) if !self.ssd.halted() => now = done,
                _ => break,
            }
        }
    }

    fn trim(&mut self, lsn: u64, sectors: u32) {
        self.buffer.discard(lsn, sectors);
        for s in lsn..lsn + u64::from(sectors) {
            self.unmap_log(s);
        }
        self.data.trim(lsn, sectors);
    }

    fn mapping_memory_bytes(&self) -> u64 {
        self.data.mapping_bytes() + self.log_map.memory_bytes() as u64
    }

    fn stored_seq(&self, lsn: u64) -> Option<u64> {
        let addr = match self.log_map.peek(lsn) {
            Some(e) => Some(self.log_addr(e)),
            None => self.data.sector_addr(lsn, &self.ssd),
        };
        read_path::stored_seq(&self.buffer, &self.ssd, lsn, addr)
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
    use esp_workload::{generate, SyntheticConfig};

    fn tiny_ftl() -> SectorLogFtl {
        SectorLogFtl::new(&FtlConfig::tiny())
    }

    #[test]
    fn sync_small_write_fragments_a_log_page() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 1, true, SimTime::ZERO);
        // No ESP: the log append programs a whole 16 KB page.
        assert_eq!(ftl.ssd().device().stats().full_programs, 1);
        assert_eq!(ftl.ssd().device().stats().subpage_programs, 0);
        assert!((ftl.stats().small_request_waf() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn aligned_large_write_goes_to_data_region() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 4, true, SimTime::ZERO);
        assert_eq!(ftl.stats().rmw_operations, 0);
        assert!(ftl.stored_seq(2).is_some());
    }

    #[test]
    fn log_hit_shadows_stale_data_copy() {
        let mut ftl = tiny_ftl();
        let mut t = ftl.write(0, 4, true, SimTime::ZERO); // data region
        let v1 = ftl.stored_seq(1).unwrap();
        t = ftl.write(1, 1, true, t); // newer copy in the log
        assert!(ftl.stored_seq(1).unwrap() > v1);
        ftl.read(0, 4, t);
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn log_gc_merges_back_to_data_region() {
        let mut ftl = tiny_ftl();
        let mut t = SimTime::ZERO;
        // Churn small writes until log GC (full merge) fires.
        for i in 0..4_000u64 {
            t = ftl.write(i % 24, 1, true, t);
            if ftl.stats().gc_invocations > 0 {
                break;
            }
        }
        assert!(ftl.stats().gc_invocations > 0, "log merge never fired");
        assert!(
            ftl.stats().gc_flash_sectors > 0,
            "merges must program data-region pages"
        );
        for lsn in 0..24 {
            ftl.read(lsn, 1, t);
        }
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn survives_mixed_workload() {
        let mut ftl = tiny_ftl();
        let cfg = SyntheticConfig {
            footprint_sectors: ftl.logical_sectors() / 2,
            requests: 3_000,
            r_small: 0.8,
            r_synch: 0.9,
            read_fraction: 0.2,
            zipf_theta: 0.8,
            seed: 5,
            ..SyntheticConfig::default()
        };
        let report = run_trace(&mut ftl, &generate(&cfg));
        assert_eq!(report.stats.read_faults, 0);
        assert!(report.iops > 0.0);
    }

    #[test]
    fn survives_faults_and_factory_bad_blocks() {
        let mut config = FtlConfig::tiny();
        config.fault = Some(esp_nand::FaultConfig {
            seed: 23,
            program_fail_prob: 0.02,
            erase_fail_prob: 0.001,
            factory_bad_blocks: 1,
            ..esp_nand::FaultConfig::default()
        });
        let mut ftl = SectorLogFtl::new(&config);
        assert_eq!(ftl.stats().blocks_retired, 1);
        let cfg = SyntheticConfig {
            footprint_sectors: ftl.logical_sectors() / 2,
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
    fn trim_clears_log_and_data() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 4, true, SimTime::ZERO);
        ftl.write(1, 1, true, SimTime::from_secs(1));
        ftl.trim(0, 4);
        assert_eq!(ftl.stored_seq(1), None);
        assert_eq!(ftl.stored_seq(2), None);
    }

    #[test]
    fn fine_mapping_scales_with_log_region_not_logical_space() {
        // The hybrid's fine map is bounded by the log region: growing the
        // device grows fgmFTL's table linearly while the sector log's fine
        // part grows only with the (fractional) log region.
        let small = FtlConfig::tiny();
        let mut big = FtlConfig::tiny();
        big.geometry.blocks_per_chip *= 4;
        let sl_small = SectorLogFtl::new(&small).mapping_memory_bytes();
        let sl_big = SectorLogFtl::new(&big).mapping_memory_bytes();
        let fgm_small = crate::fgm::FgmFtl::new(&small).mapping_memory_bytes();
        let fgm_big = crate::fgm::FgmFtl::new(&big).mapping_memory_bytes();
        // fgm scales with logical sectors (4x); the hybrid grows slower
        // because only its log share is fine-grained.
        assert_eq!(fgm_big, fgm_small * 4);
        assert!(sl_big < sl_small * 4, "hybrid map must grow sublinearly");
    }

    #[test]
    fn hot_reads_stay_correctable_with_ladder_and_reclaim() {
        use esp_nand::{RetentionModel, RetryLadder};
        let mut config = FtlConfig::tiny();
        config.retention = RetentionModel::paper_default().with_read_disturb(2e-2);
        config.retry_ladder = Some(RetryLadder::paper_default());
        config.reclaim_threshold = Some(2);
        let mut ftl = SectorLogFtl::new(&config);
        // One sector in the log, one aligned page in the data region: the
        // hot-read loop disturbs both the log block and the data block.
        let t = ftl.write(0, 1, true, SimTime::ZERO);
        ftl.write(4, 4, true, t);
        let mut now = SimTime::from_secs(1);
        for _ in 0..600 {
            ftl.maintain(now);
            now = ftl.read(0, 1, now);
            now = ftl.read(4, 4, now);
        }
        assert_eq!(ftl.stats().read_faults, 0, "pipeline must keep data alive");
        assert!(
            ftl.stats().read_reclaims > 0 || ftl.stats().disturb_scrubs > 0,
            "mitigation must actually have run"
        );
        assert!(ftl.stored_seq(0).is_some(), "hot sector stays mapped");
        assert!(ftl.stored_seq(5).is_some(), "hot page stays mapped");
    }
}
