//! The coarse-grained (CGM) flash-space engine.
//!
//! Manages a [`BlockPool`] written in full-page units with a
//! page-granularity (16 KB) logical-to-physical map — the management scheme
//! of the paper's `cgmFTL` baseline, reused verbatim for subFTL's full-page
//! region ("the full-page region is managed in exactly the same way as the
//! CGM-based FTLs", §4.1) and sector-log's data region.
//!
//! The pool (`block_pool.rs`) owns the blocks, free list, per-chip active
//! blocks, allocation, victim scans, erase-or-retire and crash rebuild.
//! The engine adds:
//!
//! * the L2P page map and page-at-a-time relocation (GC copy-out, read
//!   reclaim, the read-disturb patrol and static wear leveling),
//! * its refill rule — each chip opens its least-worn free block
//!   (implicit wear leveling within the pool),
//! * policy-driven GC ([`crate::GcPolicyKind`], greedy by default),
//!   optionally wear-biased ([`FullRegionEngine::set_wear_leveling`]):
//!   among victims within a small valid-count slack of the policy's
//!   choice, the least-worn block is collected so lightly-cycled blocks
//!   re-enter the free pool,
//! * static wear leveling ([`FullRegionEngine::wear_rotate`]): when the
//!   pool's wear spread exceeds a threshold, the coldest full block (static
//!   data pinned on a lightly-worn block) is relocated off it,
//! * graceful end-of-life: when retirement and wear exhaust the reserve,
//!   the engine sheds over-provisioning (watermark shrink) and then refuses
//!   allocation with a typed [`SpaceExhausted`] instead of panicking; the
//!   disturb patrol stops when a full pool cannot move its victim, and
//! * donating/adopting free blocks for cross-region wear leveling.
//!
//! The engine issues device operations itself and charges their time; the
//! host-facing policy (write buffering, RMW gathering, WAF attribution)
//! stays in the owning FTL.

use esp_nand::{Oob, PageAddr, SubpageAddr};
use esp_sim::{EventBuffer, SimTime, TraceEvent};
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::block_pool::{BlockPool, Refill};
use crate::config::GC_FREE_WATERMARK;
use crate::eol::SpaceExhausted;
use crate::gc_policy::GcPolicyKind;
use crate::read_path::note_read_result;
use crate::stats::FtlStats;

const NO_PTR: u32 = u32::MAX;

/// The watermark never shrinks below this floor: one erased block must stay
/// in reserve so GC copy-out has somewhere to land.
const WATERMARK_FLOOR: u32 = 1;

/// Packed physical page pointer: `local_block * pages_per_block + page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagePtr {
    /// Engine-local block index.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

/// The CGM space engine (see module docs).
#[derive(Debug, Clone)]
pub struct FullRegionEngine {
    pool: BlockPool,
    /// L2P: logical page number → packed pointer (`NO_PTR` = unmapped).
    l2p: Vec<u32>,
    watermark: u32,
    /// Wear-aware victim selection and cold-block rotation enabled.
    wear_leveling: bool,
    /// GC victim-selection policy (greedy by default — bit-identical to
    /// the historical hard-coded scan).
    gc_policy: GcPolicyKind,
    /// Allocation failed at the watermark floor: the engine is end-of-life
    /// (or overcommitted) and refuses further space-consuming work.
    exhausted: bool,
    /// GC/scrub/reclaim event recorder; disabled (free) by default.
    trace: EventBuffer,
    /// Reused full-page read buffer and OOB staging for GC relocation and
    /// read-reclaim, so those hot paths allocate nothing per page.
    slots_scratch: Vec<Result<Oob, esp_nand::ReadFault>>,
    oobs_scratch: Vec<Option<Oob>>,
}

impl FullRegionEngine {
    /// Creates an engine over the given device-global blocks, mapping a
    /// logical space of `lpn_count` 16 KB pages. `blocks_per_chip` is the
    /// device's blocks-per-chip count, used to stripe writes across chips.
    ///
    /// # Panics
    ///
    /// Panics if `gbis` is empty or the GC watermark leaves no usable space.
    #[must_use]
    pub fn new(gbis: Vec<u32>, pages_per_block: u32, blocks_per_chip: u32, lpn_count: u64) -> Self {
        assert!(!gbis.is_empty(), "full region needs at least one block");
        assert!(
            gbis.len() as u32 > GC_FREE_WATERMARK,
            "watermark {GC_FREE_WATERMARK} leaves no usable blocks"
        );
        assert!(blocks_per_chip > 0, "blocks_per_chip must be non-zero");
        let chips = gbis
            .iter()
            .map(|&g| g / blocks_per_chip)
            .max()
            .expect("non-empty") as usize
            + 1;
        FullRegionEngine {
            pool: BlockPool::new(&gbis, pages_per_block, 1, blocks_per_chip, chips),
            l2p: vec![NO_PTR; lpn_count as usize],
            watermark: GC_FREE_WATERMARK,
            wear_leveling: false,
            gc_policy: GcPolicyKind::Greedy,
            exhausted: false,
            trace: EventBuffer::disabled(),
            slots_scratch: Vec::new(),
            oobs_scratch: Vec::new(),
        }
    }

    /// Arms event tracing for the engine's GC/scrub/reclaim decisions,
    /// keeping at most `capacity` events (keep-newest). Off by default.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// The engine's trace recorder (empty unless
    /// [`FullRegionEngine::enable_tracing`] was called).
    #[must_use]
    pub fn trace(&self) -> &EventBuffer {
        &self.trace
    }

    /// Enables (or disables) wear-aware victim selection and cold-block
    /// rotation. Off by default; with it off the engine's decisions are
    /// bit-identical to the pre-wear-leveling behaviour.
    pub fn set_wear_leveling(&mut self, on: bool) {
        self.wear_leveling = on;
    }

    /// Whether wear-aware victim selection is enabled.
    #[must_use]
    pub fn wear_leveling(&self) -> bool {
        self.wear_leveling
    }

    /// Selects the GC victim policy. Greedy (the default) is bit-identical
    /// to the historical behaviour; see [`crate::GcPolicyKind`].
    pub fn set_gc_policy(&mut self, policy: GcPolicyKind) {
        self.gc_policy = policy;
    }

    /// Current GC watermark (free blocks kept in reserve). Shrinks toward
    /// the floor of 1 as end-of-life degradation sheds over-provisioning.
    #[must_use]
    pub fn watermark(&self) -> u32 {
        self.watermark
    }

    /// The typed reason allocation is (or would be) refused: end-of-life if
    /// any block was lost to grown-bad retirement, plain device-full
    /// otherwise.
    fn exhaustion(&self) -> SpaceExhausted {
        if self.pool.retired_bad() > 0 {
            SpaceExhausted::EndOfLife
        } else {
            SpaceExhausted::DeviceFull
        }
    }

    /// Min/max effective P/E over all non-retired blocks under management,
    /// or `None` when every block is retired.
    #[must_use]
    pub fn wear_spread(&self, ssd: &Ssd) -> Option<(u32, u32)> {
        self.pool.wear_spread(ssd)
    }

    /// Order-independent digest of the engine's allocation state, used by
    /// the crash harness to prove recovery is idempotent (see
    /// `BlockPool::fingerprint`).
    pub(crate) fn pool_fingerprint(&self) -> Vec<u64> {
        self.pool.fingerprint()
    }

    /// The physical page currently mapped for `lpn`, if any.
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<PagePtr> {
        let packed = *self.l2p.get(lpn as usize)?;
        if packed == NO_PTR {
            None
        } else {
            let ppb = self.pool.pages_per_block();
            Some(PagePtr {
                block: packed / ppb,
                page: packed % ppb,
            })
        }
    }

    /// Translates a pointer to a device page address.
    #[must_use]
    pub fn page_addr(&self, ptr: PagePtr, ssd: &Ssd) -> PageAddr {
        ssd.geometry()
            .block_addr(self.pool.gbi(ptr.block))
            .page(ptr.page)
    }

    /// Device subpage holding sector `lsn` of its mapped page, if any.
    pub(crate) fn sector_addr(&self, lsn: u64, ssd: &Ssd) -> Option<SubpageAddr> {
        let page = u64::from(SECTORS_PER_PAGE);
        let ptr = self.lookup(lsn / page)?;
        Some(self.page_addr(ptr, ssd).subpage((lsn % page) as u8))
    }

    /// Unmaps `lpn` (trim-style): the old physical page becomes garbage.
    pub fn unmap(&mut self, lpn: u64) {
        if let Some(ptr) = self.lookup(lpn) {
            self.pool.invalidate(ptr.block, ptr.page);
            self.l2p[lpn as usize] = NO_PTR;
        }
    }

    /// Host trim over the page map: unmaps the pages `[lsn, lsn + sectors)`
    /// covers completely; a partly covered page stays mapped.
    pub(crate) fn trim(&mut self, lsn: u64, sectors: u32) {
        let page = u64::from(SECTORS_PER_PAGE);
        for lpn in lsn.div_ceil(page)..(lsn + u64::from(sectors)) / page {
            self.unmap(lpn);
        }
    }

    /// Garbage-collects until the free pool is back above the watermark,
    /// then programs one full page for `lpn` with the given spare entries
    /// (`oobs[slot]` must carry `lsn == lpn * 4 + slot` for data slots).
    /// Returns the completion time of the program (including any GC that
    /// had to run first). Callers on the host write path turn
    /// [`SpaceExhausted`] into a refused write plus the read-only latch
    /// (end-of-life degradation, DESIGN.md §11).
    ///
    /// # Errors
    ///
    /// Returns the engine's exhaustion cause — end of life once a block
    /// was lost to grown-bad retirement, device-full otherwise — when GC
    /// (after shedding over-provisioning down to the watermark floor)
    /// cannot make a page allocatable.
    ///
    /// # Panics
    ///
    /// Panics if an OOB entry carries an inconsistent LSN.
    pub fn try_program_page(
        &mut self,
        lpn: u64,
        oobs: &[Option<Oob>],
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> Result<SimTime, SpaceExhausted> {
        for (slot, oob) in oobs.iter().enumerate() {
            if let Some(o) = oob {
                assert_eq!(
                    o.lsn / u64::from(SECTORS_PER_PAGE),
                    lpn,
                    "oob slot {slot} lsn {} does not belong to lpn {lpn}",
                    o.lsn
                );
            }
        }
        let ready = self.ensure_space(ssd, stats, issue);
        if !ssd.halted() && !self.pool.can_alloc() {
            return Err(self.exhaustion());
        }
        let done = self.program_internal(lpn, oobs, ssd, stats, ready);
        stats.flash_sectors_consumed += u64::from(SECTORS_PER_PAGE);
        Ok(done)
    }

    /// Programs `lpn` at the pool's next write position and remaps it.
    /// When nothing can be programmed (power off, or absolute exhaustion
    /// after program-failure retries burned the last pages) the map is
    /// untouched, so the previous copy of `lpn` — if any — stays valid.
    fn program_internal(
        &mut self,
        lpn: u64,
        oobs: &[Option<Oob>],
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        match self
            .pool
            .program(ssd, oobs, stats, Refill::LeastWorn, issue)
        {
            Ok((block, page, done)) => {
                self.unmap(lpn);
                self.l2p[lpn as usize] = block * self.pool.pages_per_block() + page;
                self.pool.mark_valid(block, page);
                done
            }
            Err(now) => now,
        }
    }

    /// Background collection during a host idle window: reclaims victims
    /// while the free pool sits below `target` free blocks and the clock
    /// stays inside `[issue, until]` (the final victim may overrun
    /// slightly). Only profitable victims (any invalid page) are taken.
    pub fn background_collect(
        &mut self,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
        until: SimTime,
        target: u32,
    ) -> SimTime {
        use esp_nand::OpKind;
        let per_copy = ssd.device().op_cost(OpKind::ReadFull).total()
            + ssd.device().op_cost(OpKind::ProgramFull).total();
        let erase = ssd.device().op_cost(OpKind::Erase).total();
        let mut now = issue;
        while !ssd.halted() && self.pool.free_blocks() < target {
            // Nothing reclaimable, or a copy-out that would wedge a dying
            // pool.
            let Some((victim, valid)) =
                self.pool
                    .feasible_victim(ssd, self.gc_policy, self.wear_leveling)
            else {
                break;
            };
            // Start the victim only if it fits in the remaining window (the
            // whole point is to stay off the foreground path).
            let estimate = per_copy * u64::from(valid) + erase;
            if now + estimate > until {
                break;
            }
            now = self.collect_victim(victim, valid, ssd, stats, now, "background");
        }
        now
    }

    /// Runs GC until the free pool is above the watermark, degrading
    /// gracefully when it cannot get there: with no profitable-and-feasible
    /// victim left, the watermark is shed step by step (over-provisioning
    /// shrink, counted in `op_shrinks`) down to a floor of 1; at the floor
    /// the engine latches exhaustion and returns instead of panicking or
    /// spinning. Returns when the last GC operation completes (`issue` if
    /// no GC was needed).
    fn ensure_space(&mut self, ssd: &mut Ssd, stats: &mut FtlStats, issue: SimTime) -> SimTime {
        let mut now = issue;
        while !ssd.halted() && self.pool.free_blocks() < self.watermark {
            match self
                .pool
                .feasible_victim(ssd, self.gc_policy, self.wear_leveling)
            {
                Some((victim, valid)) => {
                    now = self.collect_victim(victim, valid, ssd, stats, now, "watermark");
                }
                None if self.watermark > WATERMARK_FLOOR => {
                    // Degradation step 1: shed over-provisioning. A lower
                    // reserve keeps writes flowing at the cost of GC
                    // headroom.
                    self.watermark -= 1;
                    stats.op_shrinks += 1;
                }
                None => {
                    // Degradation step 2: nothing reclaimable at the floor.
                    // Latch exhaustion; the caller refuses the write.
                    self.exhausted = true;
                    break;
                }
            }
        }
        now
    }

    /// Read-reclaim: rewrites the current copy of `lpn` to a fresh page,
    /// resetting its retention age and escaping its (disturbed) block.
    /// Slots that are already uncorrectable are dropped — relocation
    /// preserves whatever the ladder can still recover. No-op if `lpn` is
    /// unmapped or nothing on the page is recoverable.
    pub fn reclaim_page(
        &mut self,
        lpn: u64,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let Some(ptr) = self.lookup(lpn) else {
            return issue;
        };
        let addr = self.page_addr(ptr, ssd);
        let read_done = ssd.read_full_into(addr, issue, &mut self.slots_scratch);
        if ssd.halted() {
            return issue;
        }
        let mut oobs = std::mem::take(&mut self.oobs_scratch);
        oobs.clear();
        oobs.extend(self.slots_scratch.iter().map(|r| r.as_ref().ok().copied()));
        let data_sectors = oobs.iter().flatten().count() as u64;
        if data_sectors == 0 {
            self.oobs_scratch = oobs;
            return read_done;
        }
        let ready = self.ensure_space(ssd, stats, read_done);
        if !self.pool.can_alloc() {
            // Exhausted pool: leave the data where it is rather than risk
            // losing the mapping; the ladder keeps serving it as long as it
            // can.
            self.oobs_scratch = oobs;
            return ready;
        }
        let done = self.program_internal(lpn, &oobs, ssd, stats, ready);
        self.oobs_scratch = oobs;
        stats.read_reclaims += 1;
        stats.gc_copied_sectors += data_sectors;
        stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.reclaim")
                .tag("read_reclaim")
                .field("lpn", lpn)
                .field("sectors", data_sectors)
        });
        done
    }

    /// Read-disturb patrol: relocates and erases every block whose sense
    /// count since its last erase reached `limit` (the erase discharges the
    /// accumulated disturb). Open blocks are closed first so they stop
    /// absorbing senses. Stops early when a full pool cannot move a
    /// victim's data. Returns when the last scrub completes.
    pub fn scrub_disturbed(
        &mut self,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        limit: u64,
        issue: SimTime,
    ) -> SimTime {
        let mut now = issue;
        while !ssd.halted() {
            let Some(victim) = self.pool.disturbed(ssd, limit) else {
                break;
            };
            self.pool.close(victim);
            // Copy-out needs allocatable space; GC here may collect (and
            // thereby scrub) the victim itself, so re-check before taking
            // it — a completed erase already reset its sense count.
            now = self.ensure_space(ssd, stats, now);
            let gbi = self.pool.gbi(victim);
            if ssd
                .device()
                .reads_since_erase(ssd.geometry().block_addr(gbi))
                >= limit
                && !ssd.halted()
            {
                let at = now.as_nanos();
                self.trace.emit(|| {
                    TraceEvent::new(at, "gc.scrub")
                        .tag("disturb")
                        .field("block", u64::from(gbi))
                });
                now = self.collect_block(victim, ssd, stats, now);
                stats.disturb_scrubs += 1;
                if self.pool.valid_count(victim) > 0 {
                    // Space exhausted: the block cannot be relocated, and
                    // retrying it forever would livelock the patrol.
                    break;
                }
            }
        }
        now
    }

    /// Collects GC victim `victim` holding `valid` pages: counts the
    /// invocation, traces it (`cause` is "watermark" for foreground
    /// pressure, "background" for idle-window collection) and relocates.
    fn collect_victim(
        &mut self,
        victim: u32,
        valid: u32,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
        cause: &'static str,
    ) -> SimTime {
        stats.gc_invocations += 1;
        let gbi = self.pool.gbi(victim);
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.collect")
                .tag(cause)
                .field("block", u64::from(gbi))
                .field("valid_pages", u64::from(valid))
        });
        self.collect_block(victim, ssd, stats, issue)
    }

    /// Static wear leveling: when the pool's effective-wear spread exceeds
    /// `threshold`, the coldest full block — static data pinned on a
    /// lightly-worn block — is relocated and erased so the block rejoins
    /// the free pool (where least-worn-first allocation puts it back to
    /// work). At most one migration per call, so callers can meter it from
    /// idle windows or maintenance ticks. No-op unless wear leveling is
    /// enabled. Returns the completion time (`issue` when nothing moved).
    pub fn wear_rotate(
        &mut self,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
        threshold: u32,
    ) -> SimTime {
        if !self.wear_leveling || self.exhausted || ssd.halted() {
            return issue;
        }
        let Some((_, max_pe)) = self.pool.wear_spread(ssd) else {
            return issue;
        };
        let Some((cold, cold_pe)) = self.pool.coldest_collectable(ssd) else {
            return issue;
        };
        if max_pe.saturating_sub(cold_pe) <= threshold {
            return issue; // spread within bounds, or the cold data already cycles
        }
        if !self.pool.fits(self.pool.valid_count(cold)) {
            return issue; // not enough room to relocate safely
        }
        let gbi = self.pool.gbi(cold);
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.wear_rotate")
                .tag("static_wl")
                .field("block", u64::from(gbi))
                .field("pe", u64::from(cold_pe))
                .field("max_pe", u64::from(max_pe))
        });
        let done = self.collect_block(cold, ssd, stats, issue);
        stats.wear_level_migrations += 1;
        done
    }

    /// Relocates every valid page of `victim`, one page at a time, and
    /// erases it (shared by GC victim collection, static wear leveling and
    /// the read-disturb patrol, which may collect fully-valid blocks).
    fn collect_block(
        &mut self,
        victim: u32,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let mut now = issue;
        let gbi = self.pool.gbi(victim);
        for page in 0..self.pool.pages_per_block() {
            if !self.pool.is_valid(victim, page) {
                continue;
            }
            let addr = ssd.geometry().block_addr(gbi).page(page);
            let read_done = ssd.read_full_into(addr, now, &mut self.slots_scratch);
            if ssd.halted() {
                // Power died before the relocation finished: the victim's
                // remaining valid pages stay where they are on flash, and
                // the in-DRAM state of this half-done GC dies with power.
                return now;
            }
            // Recover the LPN from the spare area of any data slot.
            let from_oob = self
                .slots_scratch
                .iter()
                .find_map(|r| r.as_ref().ok().map(|o| o.lsn / u64::from(SECTORS_PER_PAGE)));
            let lpn = if let Some(lpn) = from_oob {
                let here = Some(PagePtr {
                    block: victim,
                    page,
                });
                debug_assert_eq!(self.lookup(lpn), here, "valid bitmap and L2P out of sync");
                let mut oobs = std::mem::take(&mut self.oobs_scratch);
                oobs.clear();
                oobs.extend(self.slots_scratch.iter().map(|r| r.as_ref().ok().copied()));
                let data_sectors = oobs.iter().flatten().count() as u64;
                now = self.program_internal(lpn, &oobs, ssd, stats, read_done);
                self.oobs_scratch = oobs;
                if self.lookup(lpn) == here {
                    // Relocation could not land anywhere (absolute
                    // exhaustion): abort the collection before the erase
                    // below can destroy the only valid copy. The victim
                    // stays as it is.
                    return now;
                }
                stats.gc_copied_sectors += data_sectors;
                stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
                lpn
            } else {
                // The ladder could read no slot, so the spare area cannot
                // name the LPN: find it in the map (this only runs once
                // data is already lost) and drop the mapping.
                let packed = victim * self.pool.pages_per_block() + page;
                let lpn = self
                    .l2p
                    .iter()
                    .position(|&p| p == packed)
                    .expect("valid page is mapped") as u64;
                self.unmap(lpn);
                now = read_done;
                lpn
            };
            // Every data slot the relocation could not carry is lost: count
            // it here, since no later read of the moved page can see it.
            for (slot, r) in self.slots_scratch.iter().enumerate() {
                if r.is_err() {
                    note_read_result(r, lpn * u64::from(SECTORS_PER_PAGE) + slot as u64, stats);
                }
            }
        }
        // An erase failure retires the block; every valid page was copied
        // out above, so nothing is lost and the caller's loop simply picks
        // the next victim.
        match self.pool.erase(victim, ssd, stats, now) {
            Ok(t) | Err(t) => t,
        }
    }

    /// Retires the block with device-global index `gbi` in place (bad-block
    /// exclusion at mount or after a grown-bad discovery). The block keeps
    /// its engine-local slot — callers such as `CgmFtl::recover` rely on
    /// local index == gbi alignment — but leaves the free list and any
    /// active-block slot. Returns `false` if `gbi` is not under management
    /// or already retired.
    pub fn retire_gbi(&mut self, gbi: u32) -> bool {
        self.pool.retire_gbi(gbi)
    }

    /// Removes one erased block from the pool for cross-region wear
    /// leveling, preferring the most-worn free block. Returns its
    /// device-global index, or `None` if the pool cannot spare one.
    pub fn donate_free_block(&mut self, ssd: &Ssd) -> Option<u32> {
        if self.pool.free_blocks() <= self.watermark {
            return None;
        }
        let pos = self.pool.most_worn_free(ssd)?;
        Some(self.pool.donate(pos))
    }

    /// Removes the *least-worn* erased block from the pool (for handing a
    /// fresh block to a hotter region during wear leveling). Returns its
    /// device-global index, or `None` if the pool cannot spare one.
    pub fn donate_coldest_free_block(&mut self, ssd: &Ssd) -> Option<u32> {
        if self.pool.free_blocks() <= self.watermark {
            return None;
        }
        let (pos, _) = self.pool.least_worn_free(ssd)?;
        Some(self.pool.donate(pos))
    }

    /// Atomically trades an erased, over-worn block from another region for
    /// the pool's least-worn free block: the worn block is adopted into the
    /// pool in the same transaction, so — unlike
    /// [`donate_coldest_free_block`](Self::donate_coldest_free_block) — the
    /// pool never shrinks and the exchange is safe even at the GC
    /// watermark. Returns the fresh block's device-global index, or `None`
    /// when the pool is empty or the wear gain would be below `min_gain`
    /// effective cycles.
    pub fn swap_free_block(&mut self, worn_gbi: u32, min_gain: u32, ssd: &Ssd) -> Option<u32> {
        let (pos, cold_pe) = self.pool.least_worn_free(ssd)?;
        let worn_pe = ssd
            .device()
            .effective_pe(ssd.geometry().block_addr(worn_gbi));
        if worn_pe <= cold_pe.saturating_add(min_gain) {
            return None;
        }
        let fresh = self.pool.donate(pos);
        self.pool.adopt(worn_gbi);
        Some(fresh)
    }

    /// Effective P/E cycles of the least-worn free block, if any can be
    /// spared.
    #[must_use]
    pub fn coldest_free_pe(&self, ssd: &Ssd) -> Option<u32> {
        if self.pool.free_blocks() <= self.watermark {
            return None;
        }
        self.pool.least_worn_free(ssd).map(|(_, pe)| pe)
    }

    /// Adds an erased block (received from another region) to the pool.
    pub fn adopt_free_block(&mut self, gbi: u32) {
        self.pool.adopt(gbi);
    }

    /// Rebuilds mapping and allocation state from a post-crash scan:
    /// `programmed[b]` is the number of programmed pages in local block `b`
    /// and `mappings` the winning `(lpn, block, page)` triples (see
    /// `BlockPool::restore` for the allocation rebuild).
    ///
    /// # Panics
    ///
    /// Panics if a mapping points outside the pool or two mappings claim
    /// the same logical page.
    pub(crate) fn restore_state(&mut self, programmed: &[u32], mappings: &[(u64, u32, u32)]) {
        self.pool.restore(programmed);
        self.l2p.fill(NO_PTR);
        for &(lpn, block, page) in mappings {
            assert!(
                self.l2p[lpn as usize] == NO_PTR,
                "two recovered copies mapped for lpn {lpn}"
            );
            assert!(
                page < programmed[block as usize],
                "mapping into unprogrammed page"
            );
            self.l2p[lpn as usize] = block * self.pool.pages_per_block() + page;
            self.pool.mark_valid(block, page);
        }
    }

    /// Bytes of L2P mapping state (the coarse page map).
    #[must_use]
    pub fn mapping_bytes(&self) -> u64 {
        (self.l2p.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Asserts the pool invariants (see `BlockPool::check_invariants`)
    /// plus map/validity agreement: every mapped page is valid and the
    /// mapped count equals the pool's valid count.
    pub(crate) fn check_invariants(&self) {
        self.pool.check_invariants();
        let mut mapped = 0u64;
        for lpn in 0..self.l2p.len() as u64 {
            if let Some(ptr) = self.lookup(lpn) {
                assert!(
                    self.pool.is_valid(ptr.block, ptr.page),
                    "lpn {lpn} maps to an invalid page"
                );
                mapped += 1;
            }
        }
        assert_eq!(mapped, self.pool.valid_units(), "L2P and validity disagree");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_nand::Geometry;

    fn setup() -> (Ssd, FullRegionEngine, FtlStats) {
        let g = Geometry::tiny(); // 16 blocks of 4 pages
        let ssd = Ssd::new(g.clone());
        // Use all 16 blocks, logical space of 32 lpns (half of physical).
        let engine =
            FullRegionEngine::new((0..16).collect(), g.pages_per_block, g.blocks_per_chip, 32);
        (ssd, engine, FtlStats::new())
    }

    impl FullRegionEngine {
        /// Programs `lpn` with every slot filled; the pool must have space.
        fn put(
            &mut self,
            lpn: u64,
            ssd: &mut Ssd,
            stats: &mut FtlStats,
            issue: SimTime,
        ) -> SimTime {
            self.try_program_page(lpn, &full_oobs(lpn), ssd, stats, issue)
                .expect("pool has space")
        }
    }

    fn full_oobs(lpn: u64) -> Vec<Option<Oob>> {
        (0..4)
            .map(|s| {
                Some(Oob {
                    lsn: lpn * 4 + s,
                    seq: 0,
                })
            })
            .collect()
    }

    #[test]
    fn program_maps_and_invalidates_old_copy() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.put(5, &mut ssd, &mut stats, SimTime::ZERO);
        let first = eng.lookup(5).unwrap();
        eng.put(5, &mut ssd, &mut stats, SimTime::ZERO);
        let second = eng.lookup(5).unwrap();
        assert_ne!(first, second);
        assert_eq!(eng.pool.valid_units(), 1, "old copy must be invalid");
        assert_eq!(stats.flash_sectors_consumed, 8);
    }

    #[test]
    fn read_back_through_lookup() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.put(3, &mut ssd, &mut stats, SimTime::ZERO);
        let ptr = eng.lookup(3).unwrap();
        let addr = eng.page_addr(ptr, &ssd);
        let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
        assert_eq!(slots[2].as_ref().unwrap().lsn, 14);
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_pressure() {
        let (mut ssd, mut eng, mut stats) = setup();
        // 32 lpns over 16 blocks x 4 pages = 64 physical pages. Overwrite
        // the 32 lpns repeatedly; GC must keep the engine alive.
        for round in 0..6 {
            for lpn in 0..32 {
                eng.put(lpn, &mut ssd, &mut stats, SimTime::ZERO);
                let _ = round;
            }
        }
        assert!(stats.gc_invocations > 0, "GC must have run");
        assert_eq!(eng.pool.valid_units(), 32, "exactly one valid copy per lpn");
        eng.check_invariants();
        // Every lpn still readable with correct content.
        for lpn in 0..32 {
            let ptr = eng.lookup(lpn).unwrap();
            let addr = eng.page_addr(ptr, &ssd);
            let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
            assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
        }
    }

    #[test]
    fn gc_preserves_partial_pages() {
        let (mut ssd, mut eng, mut stats) = setup();
        // Pages with only one data slot (RMW style) survive GC intact.
        let oobs = |lpn: u64| {
            let mut v: Vec<Option<Oob>> = vec![None; 4];
            v[1] = Some(Oob {
                lsn: lpn * 4 + 1,
                seq: 9,
            });
            v
        };
        for round in 0..8 {
            for lpn in 0..32 {
                let o = if round == 7 {
                    oobs(lpn)
                } else {
                    full_oobs(lpn)
                };
                eng.try_program_page(lpn, &o, &mut ssd, &mut stats, SimTime::ZERO)
                    .unwrap();
            }
        }
        // Force more GC by overwriting a few lpns.
        for lpn in 0..8 {
            eng.put(lpn, &mut ssd, &mut stats, SimTime::ZERO);
        }
        for lpn in 8..32u64 {
            let ptr = eng.lookup(lpn).unwrap();
            let addr = eng.page_addr(ptr, &ssd);
            let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
            assert_eq!(slots[1].as_ref().unwrap().lsn, lpn * 4 + 1);
            assert!(slots[0].is_err(), "padding slots stay padding");
        }
    }

    #[test]
    fn unmap_releases_validity() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.put(1, &mut ssd, &mut stats, SimTime::ZERO);
        assert_eq!(eng.pool.valid_units(), 1);
        eng.unmap(1);
        assert_eq!(eng.pool.valid_units(), 0);
        assert_eq!(eng.lookup(1), None);
        // Double unmap is a no-op.
        eng.unmap(1);
        assert_eq!(eng.pool.valid_units(), 0);
    }

    #[test]
    fn donate_and_adopt_blocks() {
        let (mut ssd, mut eng, mut stats) = setup();
        let before = eng.pool.free_blocks();
        let gbi = eng.donate_free_block(&ssd).unwrap();
        assert_eq!(eng.pool.free_blocks(), before - 1);
        eng.adopt_free_block(gbi);
        assert_eq!(eng.pool.free_blocks(), before);
        // The engine still functions.
        eng.put(0, &mut ssd, &mut stats, SimTime::ZERO);
        assert!(eng.lookup(0).is_some());
    }

    #[test]
    fn donation_refuses_below_watermark() {
        let g = Geometry::tiny();
        let ssd = Ssd::new(g.clone());
        let mut eng = FullRegionEngine::new(vec![0, 1, 2], g.pages_per_block, g.blocks_per_chip, 4);
        // 3 free blocks, watermark 2: can donate exactly one.
        assert!(eng.donate_free_block(&ssd).is_some());
        assert!(eng.donate_free_block(&ssd).is_none());
    }

    #[test]
    fn gc_time_is_charged() {
        let (mut ssd, mut eng, mut stats) = setup();
        let mut last = SimTime::ZERO;
        for round in 0..6 {
            for lpn in 0..32 {
                last = eng.put(lpn, &mut ssd, &mut stats, last);
                let _ = round;
            }
        }
        assert!(ssd.device().stats().erases > 0);
        // Makespan reflects GC reads + copies + erases, beyond pure host
        // programs.
        let host_only = 6 * 32 * 1650; // rough lower bound in us
        assert!(ssd.makespan() > SimTime::from_micros(host_only));
    }

    #[test]
    fn restore_state_rebuilds_free_and_actives() {
        let (mut ssd, mut eng, mut stats) = setup();
        for lpn in 0..8 {
            eng.put(lpn, &mut ssd, &mut stats, SimTime::ZERO);
        }
        // Snapshot the physical truth, then restore a fresh engine.
        let programmed: Vec<u32> = (0..16)
            .map(|b| {
                (0..4)
                    .filter(|&p| {
                        ssd.device()
                            .program_count(ssd.geometry().block_addr(b).page(p))
                            > 0
                    })
                    .count() as u32
            })
            .collect();
        let mappings: Vec<(u64, u32, u32)> = (0..8)
            .map(|lpn| {
                let ptr = eng.lookup(lpn).unwrap();
                (lpn, ptr.block, ptr.page)
            })
            .collect();
        let mut restored =
            FullRegionEngine::new((0..16).collect(), 4, ssd.geometry().blocks_per_chip, 32);
        restored.restore_state(&programmed, &mappings);
        assert_eq!(restored.pool.valid_units(), 8);
        for lpn in 0..8 {
            assert_eq!(restored.lookup(lpn), eng.lookup(lpn));
        }
        // Partially programmed blocks resumed as actives: writing continues
        // without touching a dirty page.
        restored.put(9, &mut ssd, &mut stats, SimTime::ZERO);
        assert!(restored.lookup(9).is_some());
    }

    #[test]
    fn restore_closes_extra_partial_blocks() {
        // Two partial blocks on one chip: one resumes, the other closes.
        let g = Geometry {
            channels: 1,
            chips_per_channel: 1,
            blocks_per_chip: 4,
            pages_per_block: 4,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        };
        let mut ssd = Ssd::new(g.clone());
        // Physically program the partial prefixes the scan would report
        // (blocks must be written in page order).
        for (blk, pages) in [(0u32, 2u32), (1, 1)] {
            for p in 0..pages {
                ssd.program_full(g.block_addr(blk).page(p), &[None; 4], SimTime::ZERO)
                    .unwrap();
            }
        }
        let mut eng = FullRegionEngine::new((0..4).collect(), 4, 4, 8);
        eng.restore_state(&[2, 1, 0, 0], &[]);
        assert_eq!(eng.pool.free_blocks(), 2);
        // One of the two partials was closed: it is a GC candidate once a
        // victim is needed; the other continues as active.
        let mut stats = FtlStats::new();
        eng.put(0, &mut ssd, &mut stats, SimTime::ZERO);
        assert!(eng.lookup(0).is_some());
    }

    #[test]
    fn donate_coldest_prefers_least_worn() {
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        // Wear block 0 heavily.
        for _ in 0..5 {
            ssd.erase(g.block_addr(0), SimTime::ZERO).unwrap();
        }
        let mut eng =
            FullRegionEngine::new(vec![0, 1, 2, 3], g.pages_per_block, g.blocks_per_chip, 4);
        let donated = eng.donate_coldest_free_block(&ssd).unwrap();
        assert_ne!(donated, 0, "coldest donation must avoid the worn block");
        assert_eq!(eng.coldest_free_pe(&ssd), Some(0));
    }

    #[test]
    fn program_failures_are_retried_elsewhere() {
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        ssd.device_mut().set_faults(esp_nand::FaultConfig {
            seed: 21,
            program_fail_prob: 0.2,
            ..esp_nand::FaultConfig::default()
        });
        // Failed attempts burn pages, so keep utilization low enough that
        // GC always nets space even when copies retry.
        let mut eng =
            FullRegionEngine::new((0..16).collect(), g.pages_per_block, g.blocks_per_chip, 16);
        let mut stats = FtlStats::new();
        let mut now = SimTime::ZERO;
        for round in 0..8 {
            for lpn in 0..16 {
                now = eng.put(lpn, &mut ssd, &mut stats, now);
                let _ = round;
            }
        }
        assert!(stats.write_retries > 0, "p=0.2 must force retries");
        assert_eq!(stats.program_failures, stats.write_retries);
        assert_eq!(eng.pool.valid_units(), 16);
        // Every lpn readable with correct content despite the failures.
        for lpn in 0..16 {
            let ptr = eng.lookup(lpn).unwrap();
            let addr = eng.page_addr(ptr, &ssd);
            let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
            assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
        }
    }

    #[test]
    fn erase_failures_retire_the_victim() {
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        ssd.device_mut().set_faults(esp_nand::FaultConfig {
            seed: 5,
            erase_fail_prob: 0.3,
            ..esp_nand::FaultConfig::default()
        });
        // Small logical space (4 blocks of data over 16 physical) so GC can
        // afford to lose several blocks to grown-bad retirement.
        let mut eng =
            FullRegionEngine::new((0..16).collect(), g.pages_per_block, g.blocks_per_chip, 16);
        let mut stats = FtlStats::new();
        let mut now = SimTime::ZERO;
        for round in 0..6 {
            for lpn in 0..16 {
                now = eng.put(lpn, &mut ssd, &mut stats, now);
                let _ = round;
            }
        }
        assert!(stats.erase_failures > 0, "p=0.3 must force erase failures");
        assert_eq!(stats.blocks_retired, stats.erase_failures);
        assert_eq!(eng.pool.block_count(), 16 - stats.blocks_retired as u32);
        assert_eq!(
            ssd.device().bad_block_indices().len() as u64,
            stats.blocks_retired,
            "every retirement corresponds to a grown bad block"
        );
        assert_eq!(eng.pool.valid_units(), 16);
        eng.check_invariants();
        for lpn in 0..16 {
            let ptr = eng.lookup(lpn).unwrap();
            let addr = eng.page_addr(ptr, &ssd);
            let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
            assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
        }
    }

    #[test]
    fn retire_gbi_excludes_the_block_in_place() {
        let (mut ssd, mut eng, mut stats) = setup();
        let before_free = eng.pool.free_blocks();
        let before_total = eng.pool.block_count();
        assert!(eng.retire_gbi(7));
        assert_eq!(eng.pool.free_blocks(), before_free - 1);
        assert_eq!(eng.pool.block_count(), before_total - 1);
        // Idempotent / unknown gbis refused.
        assert!(!eng.retire_gbi(7));
        assert!(!eng.retire_gbi(999));
        // Local slot preserved: block 8 still maps to gbi 8.
        eng.put(0, &mut ssd, &mut stats, SimTime::ZERO);
        let ptr = eng.lookup(0).unwrap();
        assert_eq!(eng.pool.gbi(ptr.block), ptr.block);
        // The engine never writes into the retired block.
        for lpn in 0..32 {
            eng.put(lpn, &mut ssd, &mut stats, SimTime::ZERO);
        }
        assert_eq!(
            ssd.device()
                .program_count(ssd.geometry().block_addr(7).page(0)),
            0
        );
    }

    #[test]
    fn reclaim_page_moves_data_to_a_fresh_location() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.put(3, &mut ssd, &mut stats, SimTime::ZERO);
        let before = eng.lookup(3).unwrap();
        let done = eng.reclaim_page(3, &mut ssd, &mut stats, SimTime::ZERO);
        let after = eng.lookup(3).unwrap();
        assert_ne!(before, after, "reclaim must relocate the page");
        assert!(done > SimTime::ZERO, "reclaim charges read + program time");
        assert_eq!(stats.read_reclaims, 1);
        assert_eq!(eng.pool.valid_units(), 1, "old copy invalidated");
        let (slots, _) = ssd.read_full(eng.page_addr(after, &ssd), done);
        assert_eq!(slots[0].as_ref().unwrap().lsn, 12);
        // Unmapped lpns are a no-op.
        let t = eng.reclaim_page(30, &mut ssd, &mut stats, done);
        assert_eq!(t, done);
        assert_eq!(stats.read_reclaims, 1);
    }

    #[test]
    fn scrub_relocates_disturbed_blocks_and_discharges_them() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.put(7, &mut ssd, &mut stats, SimTime::ZERO);
        let ptr = eng.lookup(7).unwrap();
        let old_gbi = eng.pool.gbi(ptr.block);
        let addr = eng.page_addr(ptr, &ssd);
        // Hammer the page until the block accumulates 50 senses.
        for _ in 0..50 {
            let _ = ssd.read_full(addr, SimTime::ZERO);
        }
        let old_block = ssd.geometry().block_addr(old_gbi);
        assert_eq!(ssd.device().reads_since_erase(old_block), 50);
        eng.scrub_disturbed(&mut ssd, &mut stats, 50, SimTime::ZERO);
        assert_eq!(stats.disturb_scrubs, 1);
        // The block was erased (sense counter discharged) and the data
        // lives elsewhere, still readable.
        assert_eq!(ssd.device().reads_since_erase(old_block), 0);
        let after = eng.lookup(7).unwrap();
        assert_ne!(eng.pool.gbi(after.block), old_gbi);
        let (slots, _) = ssd.read_full(eng.page_addr(after, &ssd), SimTime::ZERO);
        assert_eq!(slots[0].as_ref().unwrap().lsn, 28);
        // A second sweep finds nothing above the limit.
        eng.scrub_disturbed(&mut ssd, &mut stats, 50, SimTime::ZERO);
        assert_eq!(stats.disturb_scrubs, 1);
    }

    #[test]
    fn scrub_stops_when_a_full_pool_cannot_move_the_victim() {
        // Every block is fully valid, so nothing is allocatable: the
        // disturbed victim cannot be relocated and the patrol must give up
        // instead of retrying it forever.
        let mut ssd = Ssd::new(one_chip());
        let mut eng = staged(&mut ssd, &[4; 8]);
        let addr = ssd.geometry().block_addr(0).page(0);
        for _ in 0..50 {
            let _ = ssd.read_full(addr, SimTime::ZERO);
        }
        let mut stats = FtlStats::new();
        eng.scrub_disturbed(&mut ssd, &mut stats, 50, SimTime::ZERO);
        assert_eq!(eng.pool.valid_units(), 32, "no data may be dropped");
        eng.check_invariants();
    }

    /// One-chip, 8-block pool with `mapped[b]` lpns valid in the first
    /// pages of block `b` (0 = left free), for tests that need exact
    /// per-block valid counts. Blocks with any valid pages are physically
    /// programmed full (pages past the valid prefix are stale data).
    fn staged(ssd: &mut Ssd, mapped: &[u32]) -> FullRegionEngine {
        let g = ssd.geometry().clone();
        let mut eng =
            FullRegionEngine::new((0..8).collect(), g.pages_per_block, g.blocks_per_chip, 32);
        let mut programmed = vec![0u32; 8];
        let mut mappings = Vec::new();
        for (b, &valid) in mapped.iter().enumerate() {
            if valid == 0 {
                continue;
            }
            programmed[b] = g.pages_per_block; // full block
            for p in 0..g.pages_per_block {
                let lpn = u64::from(b as u32) * 4 + u64::from(p);
                ssd.program_full(
                    g.block_addr(b as u32).page(p),
                    &full_oobs(lpn),
                    SimTime::ZERO,
                )
                .unwrap();
                if p < valid {
                    mappings.push((lpn, b as u32, p));
                }
            }
        }
        eng.restore_state(&programmed, &mappings);
        eng
    }

    fn one_chip() -> Geometry {
        Geometry {
            channels: 1,
            chips_per_channel: 1,
            blocks_per_chip: 8,
            pages_per_block: 4,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        }
    }

    #[test]
    fn wear_bias_prefers_less_worn_victims_within_slack() {
        let mut ssd = Ssd::new(one_chip());
        // Block 0 is the greedy choice (fewest valid pages) but heavily
        // worn; block 1 has one more valid page (within the slack of 1) on
        // fresh cells; block 2 is fully valid (never eligible).
        for _ in 0..5 {
            ssd.erase(ssd.geometry().block_addr(0), SimTime::ZERO)
                .unwrap();
        }
        let mut eng = staged(&mut ssd, &[2, 3, 4, 0, 0, 0, 0, 0]);
        assert_eq!(
            eng.pool.gc_victim(&ssd, eng.gc_policy, eng.wear_leveling),
            Some(0),
            "greedy picks fewest valid"
        );
        eng.set_wear_leveling(true);
        assert_eq!(
            eng.pool.gc_victim(&ssd, eng.gc_policy, eng.wear_leveling),
            Some(1),
            "wear bias trades one extra copy for a colder victim"
        );
        // A fully-valid block never wins, however cold.
        let mut ssd = Ssd::new(one_chip());
        for _ in 0..5 {
            ssd.erase(ssd.geometry().block_addr(0), SimTime::ZERO)
                .unwrap();
        }
        let mut eng = staged(&mut ssd, &[2, 4, 4, 0, 0, 0, 0, 0]);
        eng.set_wear_leveling(true);
        assert_eq!(
            eng.pool.gc_victim(&ssd, eng.gc_policy, eng.wear_leveling),
            Some(0)
        );
    }

    #[test]
    fn wear_rotate_migrates_cold_static_data() {
        let mut ssd = Ssd::new(one_chip());
        // Block 4 is far more worn than block 0, which pins static data.
        for _ in 0..25 {
            ssd.erase(ssd.geometry().block_addr(4), SimTime::ZERO)
                .unwrap();
        }
        let mut eng = staged(&mut ssd, &[4, 0, 0, 0, 0, 0, 0, 0]);
        let mut stats = FtlStats::new();
        // Off (default): never moves anything.
        let t = eng.wear_rotate(&mut ssd, &mut stats, SimTime::ZERO, 20);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(stats.wear_level_migrations, 0);
        eng.set_wear_leveling(true);
        // Spread (25) exceeds the threshold: the cold block is relocated,
        // erased, and freed.
        let free_before = eng.pool.free_blocks();
        let done = eng.wear_rotate(&mut ssd, &mut stats, SimTime::ZERO, 20);
        assert!(done > SimTime::ZERO);
        assert_eq!(stats.wear_level_migrations, 1);
        assert_eq!(ssd.device().pe_cycles(ssd.geometry().block_addr(0)), 1);
        assert_eq!(
            eng.pool.free_blocks(),
            free_before,
            "cold block rejoined the pool"
        );
        for lpn in 0..4 {
            let ptr = eng.lookup(lpn).unwrap();
            assert_ne!(ptr.block, 0, "data moved off the cold block");
            let (slots, _) = ssd.read_full(eng.page_addr(ptr, &ssd), done);
            assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
        }
        // Spread now within threshold: second call is a no-op.
        let again = eng.wear_rotate(&mut ssd, &mut stats, done, 20);
        assert_eq!(again, done);
        assert_eq!(stats.wear_level_migrations, 1);
    }

    #[test]
    fn exhaustion_refuses_writes_instead_of_panicking() {
        // Every erase fails, so each GC victim retires and the pool wears
        // out fast. The engine must shed over-provisioning, then return a
        // typed end-of-life error — never panic, never livelock.
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        ssd.device_mut().set_faults(esp_nand::FaultConfig {
            seed: 9,
            erase_fail_prob: 0.95,
            ..esp_nand::FaultConfig::default()
        });
        let mut eng =
            FullRegionEngine::new((0..16).collect(), g.pages_per_block, g.blocks_per_chip, 16);
        let mut stats = FtlStats::new();
        let mut now = SimTime::ZERO;
        let mut died = None;
        'outer: for round in 0..400 {
            for lpn in 0..16 {
                match eng.try_program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, now) {
                    Ok(t) => now = t,
                    Err(e) => {
                        died = Some(e);
                        break 'outer;
                    }
                }
                let _ = round;
            }
        }
        assert_eq!(
            died,
            Some(SpaceExhausted::EndOfLife),
            "retirement-driven exhaustion reports end of life"
        );
        assert!(eng.exhausted);
        assert!(stats.op_shrinks > 0, "watermark shed before giving up");
        assert!(stats.blocks_retired > 0);
        // Further writes fail fast with the same typed error.
        let err = eng
            .try_program_page(0, &full_oobs(0), &mut ssd, &mut stats, now)
            .unwrap_err();
        assert_eq!(err, SpaceExhausted::EndOfLife);
        // Every lpn that still has a mapping reads back correctly: dying
        // never corrupted surviving data.
        let mut readable = 0;
        for lpn in 0..16 {
            if let Some(ptr) = eng.lookup(lpn) {
                let (slots, _) = ssd.read_full(eng.page_addr(ptr, &ssd), now);
                assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
                readable += 1;
            }
        }
        assert!(readable > 0, "some data survives to the read-only phase");
        eng.check_invariants();
    }

    #[test]
    #[should_panic(expected = "does not belong to lpn")]
    fn program_rejects_inconsistent_oob() {
        let (mut ssd, mut eng, mut stats) = setup();
        let mut oobs = full_oobs(3);
        oobs[0] = Some(Oob { lsn: 999, seq: 0 });
        let _ = eng.try_program_page(3, &oobs, &mut ssd, &mut stats, SimTime::ZERO);
    }
}
