//! `fgmFTL` — the fine-grained mapping baseline (paper §1, §2, §5).
//!
//! Logical-to-physical mapping at 4 KB granularity; the write buffer merges
//! small writes into full-page programs when it can. The scheme's weakness,
//! which Fig 2 quantifies, is that **synchronous** small writes must be
//! flushed immediately: a 4 KB fsync consumes a whole 16 KB physical page
//! (one data subpage plus three padding subpages — *internal fragmentation*)
//! and garbage collection degrades toward the CGM level as `r_synch` grows.

use esp_nand::Oob;
use esp_sim::{merge_events, EventBuffer, SimTime, TraceEvent};
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::block_pool::{window_fits_erase, BlockPool, Refill};
use crate::buffer::{FlushChunk, Front, FrontEnd, WriteBuffer};
use crate::config::{FtlConfig, GC_FREE_WATERMARK};
use crate::gc_policy::GcPolicyKind;
use crate::map_cache::{MapCache, MapCacheStats};
use crate::read_path::{self, note_read_result, ReadReliability};
use crate::runner::Ftl;
use crate::stats::FtlStats;

const NO_PTR: u32 = u32::MAX;

/// GC never shrinks the free watermark below this floor: one free block is
/// the minimum needed to keep copy-out possible at all.
const WATERMARK_FLOOR: u32 = 1;

/// The FGM-scheme FTL baseline.
///
/// # Examples
///
/// ```
/// use esp_core::{FgmFtl, Ftl, FtlConfig};
/// use esp_sim::SimTime;
///
/// let mut ftl = FgmFtl::new(&FtlConfig::tiny());
/// // An async small write buffers in DRAM and costs no flash time yet.
/// let done = ftl.write(0, 1, false, SimTime::ZERO);
/// assert_eq!(done, SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct FgmFtl {
    ssd: Ssd,
    /// The 4 KB pool: `N_sub` mapping units per page.
    pool: BlockPool,
    /// LSN → packed subpage pointer (`block * pages * nsub + page * nsub +
    /// slot`), `NO_PTR` for unmapped.
    l2p: Vec<u32>,
    buffer: WriteBuffer,
    stats: FtlStats,
    seq: u64,
    logical_sectors: u64,
    pages_per_block: u32,
    nsub: u32,
    watermark: u32,
    background_gc: bool,
    /// GC victim-selection policy (greedy by default).
    gc_policy: GcPolicyKind,
    /// DFTL-style demand-cached mapping tier; `None` keeps the full map
    /// resident (the default, bit-identical to pre-cache builds).
    map_cache: Option<MapCache>,
    /// Wear-delta bias in GC victim selection plus cold-block rotation
    /// (off by default for bit-identity with the seed).
    wear_leveling: bool,
    /// Max−min effective-P/E spread that triggers a cold-block rotation.
    wear_delta: u32,
    /// Device erase count at which the next wear-spread check runs (the
    /// spread only changes on erases, so checks are metered by them).
    next_wear_check: u64,
    /// Latched when GC can no longer net free space even at the watermark
    /// floor: the drive is at end of life and writes degrade gracefully.
    exhausted: bool,
    reliability: ReadReliability,
    /// GC/scrub/reclaim event recorder; disabled (free) by default.
    trace: EventBuffer,
    /// Reused OOB staging for [`FgmFtl::program_group`] (always `nsub`
    /// entries), so the steady-state program path allocates nothing.
    oob_scratch: Vec<Option<Oob>>,
    /// Reused `(block, page, lsn, slot)` grouping scratch for
    /// [`Ftl::read`].
    read_groups: Vec<(u32, u32, u64, u32)>,
    /// Reused full-page read buffer for GC collection and grouped host
    /// reads.
    slots_scratch: Vec<Result<Oob, esp_nand::ReadFault>>,
    chunks_scratch: Vec<FlushChunk>,
    group_scratch: Vec<(u64, u64)>,
    /// Reused `(lsn, seq)` list of a GC victim's readable valid sectors
    /// (see [`FgmFtl::collect_block`]).
    survivors_scratch: Vec<(u64, u64)>,
}

impl FgmFtl {
    /// Builds an fgmFTL over the configured device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`FtlConfig::validate`]).
    #[must_use]
    pub fn new(config: &FtlConfig) -> Self {
        Self::with_ssd(config, config.build_ssd())
    }

    /// Builds the FTL structures over an existing (possibly non-empty)
    /// device; mapping state starts empty — see [`FgmFtl::recover`] for
    /// rebuilding it from flash contents.
    pub(crate) fn with_ssd(config: &FtlConfig, mut ssd: Ssd) -> Self {
        config.arm_device(&mut ssd);
        let g = &config.geometry;
        let gbis: Vec<u32> = (0..g.block_count()).collect();
        let pool = BlockPool::new(
            &gbis,
            g.pages_per_block,
            g.subpages_per_page,
            g.blocks_per_chip,
            g.chip_count() as usize,
        );
        let logical_sectors = config.logical_sectors();
        let map_cache = config.map_cache.as_ref().map(|mc| {
            use esp_nand::OpKind;
            MapCache::new(
                mc,
                logical_sectors,
                g.pages_per_block,
                ssd.device().op_cost(OpKind::ReadFull).total(),
                ssd.device().op_cost(OpKind::ProgramFull).total(),
                ssd.device().op_cost(OpKind::Erase).total(),
            )
        });
        let mut ftl = FgmFtl {
            ssd,
            pool,
            l2p: vec![NO_PTR; logical_sectors as usize],
            buffer: WriteBuffer::new(config.write_buffer_sectors),
            stats: FtlStats::new(),
            seq: 0,
            logical_sectors,
            pages_per_block: g.pages_per_block,
            nsub: g.subpages_per_page,
            watermark: GC_FREE_WATERMARK,
            background_gc: config.background_gc,
            gc_policy: config.gc_policy,
            map_cache,
            wear_leveling: config.wear_leveling,
            wear_delta: config.wear_delta_threshold,
            next_wear_check: 0,
            exhausted: false,
            reliability: ReadReliability::new(config),
            trace: EventBuffer::disabled(),
            oob_scratch: vec![None; g.subpages_per_page as usize],
            read_groups: Vec::new(),
            slots_scratch: Vec::new(),
            chunks_scratch: Vec::new(),
            group_scratch: Vec::new(),
            survivors_scratch: Vec::new(),
        };
        // Exclude factory-marked and previously grown bad blocks.
        for gbi in ftl.ssd.device().bad_block_indices() {
            if ftl.pool.retire_gbi(gbi) {
                ftl.stats.blocks_retired += 1;
            }
        }
        ftl
    }

    /// Rebuilds an fgmFTL from the contents of a previously written device
    /// (power-loss recovery): scans every programmed page, maps each
    /// logical sector to its newest readable copy, and resumes with a write
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
        // lsn -> (seq, block, page, slot).
        let mut best: Vec<Option<(u64, u32, u32, u32)>> = vec![None; ftl.logical_sectors as usize];
        let mut programmed = vec![0u32; scans.len()];
        let mut max_seq = 0u64;
        for (b, scan) in scans.iter().enumerate() {
            programmed[b] = scan.programmed_pages();
            for (p, page) in scan.pages.iter().enumerate() {
                for slot in &page.live {
                    max_seq = max_seq.max(slot.seq);
                    let lsn = slot.lsn as usize;
                    if lsn >= best.len() {
                        continue;
                    }
                    if best[lsn].is_none_or(|(seq, ..)| slot.seq > seq) {
                        best[lsn] = Some((slot.seq, b as u32, p as u32, u32::from(slot.slot)));
                    }
                }
            }
        }
        ftl.pool.restore(&programmed);
        for (lsn, entry) in best.iter().enumerate() {
            let Some((_, b, p, slot)) = *entry else {
                continue;
            };
            ftl.l2p[lsn] = ftl.pack(b, p, slot);
            ftl.pool.mark_valid(b, p * ftl.nsub + slot);
        }
        ftl.seq = max_seq;
        ftl
    }

    pub(crate) fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Allocation-state digest for the crash harness's idempotence check
    /// (see `BlockPool::fingerprint`).
    pub(crate) fn pool_fingerprint(&self) -> Vec<u64> {
        self.pool.fingerprint()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn subpages_per_block(&self) -> u32 {
        self.pages_per_block * self.nsub
    }

    fn pack(&self, block: u32, page: u32, slot: u32) -> u32 {
        block * self.subpages_per_block() + page * self.nsub + slot
    }

    fn unpack(&self, packed: u32) -> (u32, u32, u32) {
        let spb = self.subpages_per_block();
        (packed / spb, (packed % spb) / self.nsub, packed % self.nsub)
    }

    fn map_sector(&mut self, lsn: u64, block: u32, page: u32, slot: u32) {
        let old = self.l2p[lsn as usize];
        if old != NO_PTR {
            let (ob, op, os) = self.unpack(old);
            self.pool.invalidate(ob, op * self.nsub + os);
        }
        self.l2p[lsn as usize] = self.pack(block, page, slot);
        self.pool.mark_valid(block, page * self.nsub + slot);
    }

    /// Programs up to `N_sub` sectors into one physical page, mapping each.
    /// Returns the completion time. When nothing can be programmed (power
    /// off, or space exhausted at end of life) the program is dropped and
    /// any sector that was already mapped keeps its old copy.
    fn program_group(&mut self, group: &[(u64, u64)], issue: SimTime) -> SimTime {
        debug_assert!(!group.is_empty() && group.len() <= self.nsub as usize);
        let mut oobs = std::mem::take(&mut self.oob_scratch);
        oobs.clear();
        oobs.resize(self.nsub as usize, None);
        for (slot, &(lsn, seq)) in group.iter().enumerate() {
            oobs[slot] = Some(Oob { lsn, seq });
        }
        let done = match self.pool.program(
            &mut self.ssd,
            &oobs,
            &mut self.stats,
            Refill::LeastWorn,
            issue,
        ) {
            Ok((block, page, done)) => {
                for (slot, &(lsn, _)) in group.iter().enumerate() {
                    self.map_sector(lsn, block, page, slot as u32);
                }
                done
            }
            Err(now) => now,
        };
        self.oob_scratch = oobs;
        done
    }

    /// Greedy GC: collect min-valid blocks until the free pool recovers.
    /// When no victim can net free space, degrade instead of looping: the
    /// watermark shrinks toward [`WATERMARK_FLOOR`] (giving up reserve
    /// headroom), and once even the floor is unreachable the engine latches
    /// `exhausted` — the drive is at end of life.
    fn ensure_space(&mut self, issue: SimTime) -> SimTime {
        let mut now = issue;
        while !self.ssd.halted() && !self.exhausted && self.pool.free_blocks() < self.watermark {
            match self.try_collect_victim(now, "watermark") {
                Some(done) => now = done,
                None if self.watermark > WATERMARK_FLOOR => {
                    self.watermark -= 1;
                    self.stats.op_shrinks += 1;
                }
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        now
    }

    /// Collects one GC victim, or returns `None` when no victim exists,
    /// none can net free space, or the copy-out would not fit in the
    /// remaining allocatable pages (erasing then would drop sole copies).
    fn try_collect_victim(&mut self, issue: SimTime, cause: &'static str) -> Option<SimTime> {
        let (victim, valid) =
            self.pool
                .feasible_victim(&self.ssd, self.gc_policy, self.wear_leveling)?;
        self.stats.gc_invocations += 1;
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.collect")
                .tag(cause)
                .field("block", u64::from(victim))
                .field("valid_sectors", u64::from(valid))
        });
        Some(self.collect_block(victim, issue))
    }

    /// Relocates every valid sector of `victim` — all valid pages are read
    /// first, then the survivors are repacked `N_sub` to a page — and
    /// erases it. Shared by GC victim collection, static wear leveling and
    /// the read-disturb patrol, which may collect fully-valid blocks.
    fn collect_block(&mut self, victim: u32, issue: SimTime) -> SimTime {
        let gbi = self.pool.gbi(victim);
        let mut now = issue;
        let mut survivors = std::mem::take(&mut self.survivors_scratch);
        survivors.clear();
        for page in 0..self.pages_per_block {
            if !self.pool.page_has_valid(victim, page) {
                continue;
            }
            let addr = self.ssd.geometry().block_addr(gbi).page(page);
            now = self.ssd.read_full_into(addr, now, &mut self.slots_scratch);
            if self.ssd.halted() {
                // Power died mid-GC: the victim's remaining valid sectors
                // stay on flash; this half-done collection dies with DRAM.
                self.survivors_scratch = survivors;
                return now;
            }
            for slot in 0..self.nsub {
                if !self.pool.is_valid(victim, page * self.nsub + slot) {
                    continue;
                }
                let packed = self.pack(victim, page, slot);
                match self.slots_scratch[slot as usize] {
                    Ok(oob) => {
                        debug_assert_eq!(
                            self.l2p[oob.lsn as usize], packed,
                            "validity bitmap out of sync with l2p"
                        );
                        survivors.push((oob.lsn, oob.seq));
                    }
                    Err(fault) => {
                        // The ladder could not recover it: count the loss
                        // once and drop the mapping, found in the map since
                        // the spare area is unreadable.
                        let lsn = self
                            .l2p
                            .iter()
                            .position(|&p| p == packed)
                            .expect("valid subpage is mapped");
                        note_read_result(&Err(fault), lsn as u64, &mut self.stats);
                        self.l2p[lsn] = NO_PTR;
                        self.pool.invalidate(victim, page * self.nsub + slot);
                    }
                }
            }
        }
        for group in survivors.chunks(self.nsub as usize) {
            now = self.program_group(group, now);
            self.stats.gc_copied_sectors += group.len() as u64;
            self.stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
        }
        self.survivors_scratch = survivors;
        if self.pool.valid_count(victim) > 0 {
            // Copy-out could not place every survivor (space exhausted
            // mid-GC): leave the victim intact instead of erasing sole
            // copies.
            return now;
        }
        // An erase failure retires the block; survivors were copied out
        // above, so nothing is lost and GC just picks another victim.
        match self.pool.erase(victim, &mut self.ssd, &mut self.stats, now) {
            Ok(t) | Err(t) => t,
        }
    }

    /// Read-disturb patrol: relocates and erases every block whose sense
    /// count since its last erase reached `limit`. Open blocks are closed
    /// first so they stop absorbing senses.
    fn scrub_disturbed(&mut self, limit: u64, issue: SimTime) -> SimTime {
        let mut now = issue;
        while !self.ssd.halted() {
            let Some(victim) = self.pool.disturbed(&self.ssd, limit) else {
                break;
            };
            self.pool.close(victim);
            // Copy-out needs allocatable space; GC here may collect (and
            // thereby scrub) the victim itself, so re-check before taking
            // it — a completed erase already reset its sense count.
            now = self.ensure_space(now);
            let addr = self.ssd.geometry().block_addr(self.pool.gbi(victim));
            if self.ssd.device().reads_since_erase(addr) >= limit && !self.ssd.halted() {
                let at = now.as_nanos();
                self.trace.emit(|| {
                    TraceEvent::new(at, "gc.scrub")
                        .tag("disturb")
                        .field("block", u64::from(victim))
                });
                now = self.collect_block(victim, now);
                self.stats.disturb_scrubs += 1;
                if self.pool.valid_count(victim) > 0 {
                    // Space exhausted: the block cannot be relocated, and
                    // retrying it forever would livelock the patrol.
                    break;
                }
            }
        }
        now
    }

    /// Read-reclaim: rewrites the given `(lsn, seq)` survivors of a
    /// charged read to fresh pages, escaping their disturbed/aged blocks.
    fn reclaim_sectors(&mut self, sectors: &[(u64, u64)], issue: SimTime) -> SimTime {
        let mut now = issue;
        for group in sectors.chunks(self.nsub as usize) {
            now = self.ensure_space(now);
            if self.ssd.halted() {
                return now;
            }
            let at = now.as_nanos();
            let sectors = group.len() as u64;
            now = self.program_group(group, now);
            self.trace.emit(|| {
                TraceEvent::new(at, "gc.reclaim")
                    .tag("read_reclaim")
                    .field("sectors", sectors)
            });
            self.stats.read_reclaims += group.len() as u64;
            self.stats.gc_copied_sectors += group.len() as u64;
            self.stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
        }
        now
    }

    /// Static wear leveling: when the fleet-wide effective-P/E spread
    /// exceeds the configured delta, migrate the coldest (least-worn) full
    /// block's data so the lightly-worn block re-enters the free pool and
    /// absorbs hot writes. One migration per call keeps the cost bounded.
    fn wear_rotate(&mut self, now: SimTime) -> SimTime {
        let Some((_, max_pe)) = self.pool.wear_spread(&self.ssd) else {
            return now;
        };
        let Some((cold, cold_pe)) = self.pool.coldest_collectable(&self.ssd) else {
            return now;
        };
        if max_pe.saturating_sub(cold_pe) <= self.wear_delta {
            return now;
        }
        let valid = self.pool.valid_count(cold);
        if !self.pool.fits(valid) {
            return now;
        }
        self.stats.wear_level_migrations += 1;
        self.trace.emit(|| {
            TraceEvent::new(now.as_nanos(), "gc.wear_rotate")
                .tag("static_wl")
                .field("block", u64::from(cold))
                .field("valid_sectors", u64::from(valid))
        });
        self.collect_block(cold, now)
    }

    /// Asserts the pool invariants (see `BlockPool::check_invariants`)
    /// plus map/validity agreement: every mapped sector's subpage is
    /// valid and the mapped count equals the pool's valid count. Intended
    /// for tests; panics on violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.pool.check_invariants();
        let mut mapped = 0u64;
        for (lsn, &packed) in self.l2p.iter().enumerate() {
            if packed == NO_PTR {
                continue;
            }
            let (b, p, slot) = self.unpack(packed);
            assert!(
                self.pool.is_valid(b, p * self.nsub + slot),
                "sector {lsn} maps to an invalid subpage"
            );
            mapped += 1;
        }
        assert_eq!(mapped, self.pool.valid_units(), "l2p and validity disagree");
    }
}

impl FrontEnd for FgmFtl {
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

    /// Writes flush chunks out. Following the paper's FGM definition, the
    /// write buffer merges "small writes with **consecutive logical block
    /// addresses** into one sequential write" (§4.1): each contiguous chunk
    /// is packed into physical pages `N_sub` sectors at a time, and the
    /// final partial page of every chunk is padded — *internal
    /// fragmentation*. Non-adjacent small writes are not combined, which is
    /// why the FGM scheme degrades as `r_small` grows even for
    /// asynchronous writes (Fig 2).
    fn flush_chunks(&mut self, chunks: &mut Vec<FlushChunk>, issue: SimTime) -> SimTime {
        let mut done = issue;
        let nsub = self.nsub as usize;
        for c in chunks.drain(..) {
            let mut idx = 0usize;
            let total = c.origins.len();
            while idx < total {
                let end = (idx + nsub).min(total);
                let mut group = std::mem::take(&mut self.group_scratch);
                group.clear();
                for i in idx..end {
                    group.push((c.start_lsn + i as u64, self.next_seq()));
                }
                let mut t = self.ensure_space(issue);
                // Demand-cached mapping: dirtying each sector's translation
                // page may fault it in (TP read) and push out a dirty TP
                // (TP program); both serialize ahead of the data program.
                if let Some(cache) = self.map_cache.as_mut() {
                    let mut at = t.max(issue);
                    for &(lsn, _) in group.iter() {
                        at = cache.access(lsn, true, at);
                    }
                    t = at;
                }
                if !self.ssd.halted() && !self.pool.can_alloc() {
                    // End of life: the flush has nowhere to land. Latch the
                    // refusal so subsequent writes are dropped up front;
                    // already-mapped sectors keep their old copies.
                    self.reliability.latch_end_of_life(&mut self.stats);
                    self.group_scratch = group;
                    break;
                }
                let pd = self.program_group(&group, t.max(issue));
                done = done.max(pd);
                self.stats.flash_sectors_consumed += u64::from(SECTORS_PER_PAGE);
                // Attribute the page's consumption to its new host sectors.
                let share = f64::from(SECTORS_PER_PAGE) / group.len() as f64;
                self.group_scratch = group;
                for i in idx..end {
                    if c.origins[i] {
                        self.stats.small_waf_flash_sectors += share;
                    }
                }
                idx = end;
            }
            self.buffer.recycle(c);
        }
        done
    }
}

impl Ftl for FgmFtl {
    fn name(&self) -> &'static str {
        "fgmFTL"
    }

    fn logical_sectors(&self) -> u64 {
        self.logical_sectors
    }

    fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
        self.ssd.enable_tracing(capacity);
    }

    fn events(&self) -> Vec<TraceEvent> {
        merge_events(&[&self.trace, self.ssd.trace()])
    }

    fn events_dropped(&self) -> u64 {
        self.trace.dropped() + self.ssd.trace().dropped()
    }

    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        self.write_back(lsn, sectors, sync, issue)
    }

    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime {
        if !self.admit_read(sectors) {
            return issue;
        }
        // Group flash-resident sectors by physical page to batch reads.
        // The scratch is filled in ascending-lsn order and stable-sorted
        // by (block, page): iteration order decides the order reads hit
        // the channel timelines, and runs must be deterministic (this
        // reproduces the grouping a `BTreeMap<(block, page), Vec<_>>`
        // would give, without its per-request node allocations).
        let mut groups = std::mem::take(&mut self.read_groups);
        groups.clear();
        for s in lsn..lsn + u64::from(sectors) {
            if self.buffer.contains(s) {
                continue;
            }
            let packed = self.l2p[s as usize];
            if packed == NO_PTR {
                continue;
            }
            let (b, p, slot) = self.unpack(packed);
            groups.push((b, p, s, slot));
        }
        groups.sort_by_key(|&(b, p, _, _)| (b, p));
        // Demand-cached mapping: faulting in each flash-resident sector's
        // translation page serializes ahead of the data reads.
        let mut issue = issue;
        if let Some(cache) = self.map_cache.as_mut() {
            for &(_, _, s, _) in groups.iter() {
                issue = cache.access(s, false, issue);
            }
        }
        let mut done = issue;
        let mut faulted = false;
        let mut reclaim: Vec<(u64, u64)> = Vec::new();
        let mut i = 0;
        while i < groups.len() {
            let (block, page) = (groups[i].0, groups[i].1);
            let mut j = i + 1;
            while j < groups.len() && (groups[j].0, groups[j].1) == (block, page) {
                j += 1;
            }
            let addr = self
                .ssd
                .geometry()
                .block_addr(self.pool.gbi(block))
                .page(page);
            if j - i >= 2 {
                let (effort, t) =
                    self.ssd
                        .read_full_graded_into(addr, issue, &mut self.slots_scratch);
                for &(_, _, s, slot) in &groups[i..j] {
                    faulted |=
                        note_read_result(&self.slots_scratch[slot as usize], s, &mut self.stats);
                    if self.reliability.wants_reclaim(effort) {
                        if let Ok(oob) = &self.slots_scratch[slot as usize] {
                            reclaim.push((oob.lsn, oob.seq));
                        }
                    }
                }
                done = done.max(t);
            } else {
                let (_, _, s, slot) = groups[i];
                let (r, effort, t) = self
                    .ssd
                    .read_subpage_graded(addr.subpage(slot as u8), issue);
                faulted |= note_read_result(&r, s, &mut self.stats);
                if self.reliability.wants_reclaim(effort) {
                    if let Ok(oob) = &r {
                        reclaim.push((oob.lsn, oob.seq));
                    }
                }
                done = done.max(t);
            }
            i = j;
        }
        self.read_groups = groups;
        self.reliability.note_host_read(faulted, &mut self.stats);
        if !reclaim.is_empty() {
            done = done.max(self.reclaim_sectors(&reclaim, done));
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
                self.scrub_disturbed(limit, now);
            }
        }
        if self.wear_leveling && !self.exhausted {
            let erases = self.ssd.device().stats().erases;
            if erases >= self.next_wear_check {
                self.next_wear_check = erases + 16;
                self.wear_rotate(now);
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
        use esp_nand::OpKind;
        let per_page = self.ssd.device().op_cost(OpKind::ReadFull).total()
            + self.ssd.device().op_cost(OpKind::ProgramFull).total();
        let erase = self.ssd.device().op_cost(OpKind::Erase).total();
        let mut now = from;
        while self.pool.free_blocks() < self.watermark + 2 {
            // The estimate sizes the emptiest reclaimable block, whatever
            // the victim policy then picks.
            let victim_valid = self
                .pool
                .collectable()
                .map(|(_, valid)| valid)
                .filter(|&v| v < self.subpages_per_block())
                .min();
            let Some(valid) = victim_valid else { break };
            let estimate = per_page * u64::from(valid.div_ceil(self.nsub) + 1) + erase;
            if now + estimate > until {
                break;
            }
            match self.try_collect_victim(now, "background") {
                Some(done) => now = done,
                None => break,
            }
        }
    }

    fn stored_seq(&self, lsn: u64) -> Option<u64> {
        let packed = self.l2p[lsn as usize];
        let addr = (packed != NO_PTR).then(|| {
            let (b, p, slot) = self.unpack(packed);
            let block = self.ssd.geometry().block_addr(self.pool.gbi(b));
            block.page(p).subpage(slot as u8)
        });
        read_path::stored_seq(&self.buffer, &self.ssd, lsn, addr)
    }

    fn trim(&mut self, lsn: u64, sectors: u32) {
        self.buffer.discard(lsn, sectors);
        // Fine-grained map: every covered sector can be invalidated.
        for s in lsn..lsn + u64::from(sectors) {
            let packed = self.l2p[s as usize];
            if packed != NO_PTR {
                let (b, p, slot) = self.unpack(packed);
                self.pool.invalidate(b, p * self.nsub + slot);
                self.l2p[s as usize] = NO_PTR;
            }
        }
    }

    fn mapping_memory_bytes(&self) -> u64 {
        match &self.map_cache {
            Some(cache) => cache.resident_bytes(),
            None => (self.l2p.len() * std::mem::size_of::<u32>()) as u64,
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
    use esp_workload::{generate, SyntheticConfig};

    fn tiny_ftl() -> FgmFtl {
        FgmFtl::new(&FtlConfig::tiny())
    }

    #[test]
    fn sync_small_write_fragments_a_page() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 1, true, SimTime::ZERO);
        // One full-page program for one sector: request WAF 4.
        assert_eq!(ftl.ssd().device().stats().full_programs, 1);
        assert!((ftl.stats().small_request_waf() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn async_adjacent_small_writes_merge_without_fragmentation() {
        let mut ftl = tiny_ftl();
        // Adjacent (consecutive-LBA) async sectors merge into one page.
        for i in 0..4u64 {
            ftl.write(i, 1, false, SimTime::ZERO);
        }
        ftl.flush(SimTime::ZERO);
        assert_eq!(ftl.ssd().device().stats().full_programs, 1);
        assert!((ftl.stats().small_request_waf() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn async_scattered_small_writes_fragment() {
        let mut ftl = tiny_ftl();
        // Non-adjacent sectors do NOT merge (the paper's FGM buffer merges
        // consecutive LBAs only): each fragments its own page.
        for i in 0..4u64 {
            ftl.write(i * 10, 1, false, SimTime::ZERO);
        }
        ftl.flush(SimTime::ZERO);
        assert_eq!(ftl.ssd().device().stats().full_programs, 4);
        assert!((ftl.stats().small_request_waf() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn no_rmw_ever() {
        let mut ftl = tiny_ftl();
        for round in 0..3 {
            for i in 0..8u64 {
                ftl.write(i, 1, true, SimTime::from_secs(round * 10 + i));
            }
        }
        assert_eq!(ftl.stats().rmw_operations, 0);
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let mut ftl = tiny_ftl();
        ftl.write(3, 1, true, SimTime::ZERO);
        ftl.write(3, 1, true, SimTime::from_secs(1));
        assert_eq!(ftl.pool.valid_units(), 1);
    }

    #[test]
    fn read_your_writes_after_gc_churn() {
        let mut ftl = tiny_ftl();
        let footprint = ftl.logical_sectors() / 2;
        let cfg = SyntheticConfig {
            footprint_sectors: footprint,
            requests: 3_000,
            r_small: 1.0,
            r_synch: 1.0,
            zipf_theta: 0.6,
            ..SyntheticConfig::default()
        };
        let report = run_trace(&mut ftl, &generate(&cfg));
        assert!(report.stats.gc_invocations > 0);
        assert_eq!(report.stats.read_faults, 0);
        // Every mapped sector still reads back correctly.
        let t = SimTime::from_secs(10_000);
        for lsn in 0..footprint {
            if ftl.l2p[lsn as usize] != NO_PTR {
                ftl.read(lsn, 1, t);
            }
        }
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn sync_flush_takes_merge_partners_along() {
        let mut ftl = tiny_ftl();
        // Buffer three async neighbors, then fsync the fourth: all four
        // flush together into one full page (WAF 1).
        for i in 0..3u64 {
            ftl.write(i, 1, false, SimTime::ZERO);
        }
        ftl.write(3, 1, true, SimTime::ZERO);
        assert_eq!(ftl.ssd().device().stats().full_programs, 1);
        assert!((ftl.stats().small_request_waf() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn survives_faults_and_factory_bad_blocks() {
        let mut config = FtlConfig::tiny();
        // Erase faults retire blocks permanently, and fgm's fragmented sync
        // small writes erase often — keep the grown-bad rate low enough
        // that the 16-block tiny device survives the whole run.
        config.fault = Some(esp_nand::FaultConfig {
            seed: 17,
            program_fail_prob: 0.02,
            erase_fail_prob: 0.001,
            factory_bad_blocks: 2,
            ..esp_nand::FaultConfig::default()
        });
        let mut ftl = FgmFtl::new(&config);
        assert_eq!(ftl.stats().blocks_retired, 2);
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
    fn hot_reads_stay_correctable_with_ladder_and_reclaim() {
        use esp_nand::{RetentionModel, RetryLadder};
        let mut config = FtlConfig::tiny();
        config.retention = RetentionModel::paper_default().with_read_disturb(2e-2);
        config.retry_ladder = Some(RetryLadder::paper_default());
        config.reclaim_threshold = Some(2);
        let mut ftl = FgmFtl::new(&config);
        // One fragmented sync sector: lives alone on a page, then gets
        // hammered far past the bare-ECC disturb budget.
        ftl.write(5, 1, true, SimTime::ZERO);
        let mut now = SimTime::from_secs(1);
        for _ in 0..600 {
            ftl.maintain(now);
            now = ftl.read(5, 1, now);
        }
        assert_eq!(ftl.stats().read_faults, 0, "pipeline must keep data alive");
        assert!(
            ftl.stats().read_reclaims > 0 || ftl.stats().disturb_scrubs > 0,
            "mitigation must actually have run"
        );
        // The sector is still the newest durable version.
        assert!(ftl.stored_seq(5).is_some());
    }

    #[test]
    fn gc_pressure_scales_with_fragmentation() {
        // Small writes (fragmented pages) vs large writes (full pages) of
        // the same volume: the small-write run must invoke GC far more
        // often — the essence of Fig 2(b).
        let runs: Vec<u64> = [(1.0f64, 16_000u64), (0.0, 2_400)]
            .into_iter()
            .map(|(r_small, requests)| {
                let mut ftl = tiny_ftl();
                let cfg = SyntheticConfig {
                    footprint_sectors: ftl.logical_sectors() / 2,
                    requests,
                    r_small,
                    r_synch: 1.0,
                    zipf_theta: 0.4,
                    small_sector_weights: [1, 0, 0],
                    seed: 7,
                    ..SyntheticConfig::default()
                };
                run_trace(&mut ftl, &generate(&cfg)).stats.gc_invocations
            })
            .collect();
        assert!(
            runs[0] > runs[1] * 2,
            "small-write GC {} should dwarf large-write GC {}",
            runs[0],
            runs[1]
        );
    }
}
