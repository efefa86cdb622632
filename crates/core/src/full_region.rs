//! The coarse-grained (CGM) flash-space engine.
//!
//! Manages a pool of erase blocks written in full-page units with a
//! page-granularity (16 KB) logical-to-physical map — the management scheme
//! of the paper's `cgmFTL` baseline, reused verbatim for subFTL's full-page
//! region ("the full-page region is managed in exactly the same way as the
//! CGM-based FTLs", §4.1).
//!
//! Responsibilities:
//!
//! * block allocation with a least-worn-first free list (implicit wear
//!   leveling within the pool),
//! * greedy (min-valid-pages) garbage collection with victim copy-out —
//!   optionally wear-biased ([`FullRegionEngine::set_wear_leveling`]):
//!   among victims within a small valid-count slack of the greedy choice,
//!   the least-worn block is collected so lightly-cycled blocks re-enter
//!   the free pool,
//! * static wear leveling ([`FullRegionEngine::wear_rotate`]): when the
//!   pool's wear spread exceeds a threshold, the coldest full block (static
//!   data pinned on a lightly-worn block) is relocated off it,
//! * graceful end-of-life: when retirement and wear exhaust the reserve,
//!   the engine sheds over-provisioning (watermark shrink) and then refuses
//!   allocation with a typed [`SpaceExhausted`] instead of panicking,
//! * the L2P page map, and
//! * donating/adopting free blocks for cross-region wear leveling.
//!
//! The engine issues device operations itself and charges their time; the
//! host-facing policy (write buffering, RMW gathering, WAF attribution)
//! stays in the owning FTL.

use esp_nand::{Oob, PageAddr};
use esp_sim::{EventBuffer, SimTime, TraceEvent};
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::eol::SpaceExhausted;
use crate::gc_policy::{select_victim, GcPolicyKind, SelectOpts, VictimCandidate};
use crate::stats::FtlStats;

const NO_PTR: u32 = u32::MAX;

/// The watermark never shrinks below this floor: one erased block must stay
/// in reserve so GC copy-out has somewhere to land.
const WATERMARK_FLOOR: u32 = 1;

#[derive(Debug, Clone)]
struct FullBlock {
    /// Device-global block index.
    gbi: u32,
    /// Chip holding this block (`gbi / blocks_per_chip`), precomputed so
    /// hot paths like GC victim scans avoid a division per lookup.
    chip: u32,
    /// Per-page validity (a page is valid while the L2P points at it).
    valid: Vec<bool>,
    valid_count: u32,
    /// Pages programmed so far (the write pointer when active).
    programmed: u32,
    /// Donated to another region; never used again under this engine.
    retired: bool,
    /// Monotone stamp taken when the block became fully programmed; 0 for
    /// blocks restored by recovery (maximally old to the age-aware GC
    /// policies). Reset on erase.
    closed_seq: u64,
}

impl FullBlock {
    fn new(gbi: u32, blocks_per_chip: u32, pages: u32) -> Self {
        FullBlock {
            gbi,
            chip: gbi / blocks_per_chip,
            valid: vec![false; pages as usize],
            valid_count: 0,
            programmed: 0,
            retired: false,
            closed_seq: 0,
        }
    }

    fn is_full(&self, pages: u32) -> bool {
        self.programmed >= pages
    }
}

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
    pages_per_block: u32,
    /// Device blocks-per-chip, used to derive a block's chip for striping.
    blocks_per_chip: u32,
    blocks: Vec<FullBlock>,
    /// Erased blocks ready for allocation (engine-local indices).
    free: Vec<u32>,
    /// One active (open) block per chip, so programs stripe across chips
    /// and exploit the multi-channel parallelism the paper's platform has.
    actives: Vec<Option<u32>>,
    /// Round-robin cursor over chips.
    rr: usize,
    /// L2P: logical page number → packed pointer (`NO_PTR` = unmapped).
    l2p: Vec<u32>,
    watermark: u32,
    /// Wear-aware victim selection and cold-block rotation enabled.
    wear_leveling: bool,
    /// GC victim-selection policy (greedy by default — bit-identical to
    /// the historical hard-coded scan).
    gc_policy: GcPolicyKind,
    /// Next close stamp (starts at 1 so restored blocks' stamp 0 reads as
    /// oldest).
    closed_seq_counter: u64,
    /// Allocation failed at the watermark floor: the engine is end-of-life
    /// (or overcommitted) and refuses further space-consuming work.
    exhausted: bool,
    /// Blocks lost to grown-bad retirement (erase failures and
    /// [`FullRegionEngine::retire_gbi`]); donations are not counted. Decides
    /// whether exhaustion reports [`SpaceExhausted::EndOfLife`].
    retired_bad: u32,
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
    /// Panics if `gbis` is empty or the watermark leaves no usable space.
    #[must_use]
    pub fn new(
        gbis: Vec<u32>,
        pages_per_block: u32,
        blocks_per_chip: u32,
        lpn_count: u64,
        watermark: u32,
    ) -> Self {
        assert!(!gbis.is_empty(), "full region needs at least one block");
        assert!(
            gbis.len() as u32 > watermark,
            "watermark {watermark} leaves no usable blocks"
        );
        assert!(blocks_per_chip > 0, "blocks_per_chip must be non-zero");
        let blocks: Vec<FullBlock> = gbis
            .iter()
            .map(|&g| FullBlock::new(g, blocks_per_chip, pages_per_block))
            .collect();
        let chips = gbis
            .iter()
            .map(|&g| g / blocks_per_chip)
            .max()
            .expect("non-empty") as usize
            + 1;
        let free = (0..blocks.len() as u32).collect();
        FullRegionEngine {
            pages_per_block,
            blocks_per_chip,
            blocks,
            free,
            actives: vec![None; chips],
            rr: 0,
            l2p: vec![NO_PTR; lpn_count as usize],
            watermark,
            wear_leveling: false,
            gc_policy: GcPolicyKind::Greedy,
            closed_seq_counter: 1,
            exhausted: false,
            retired_bad: 0,
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

    fn chip_of(&self, local: u32) -> usize {
        self.blocks[local as usize].chip as usize
    }

    /// O(1) test for "is this block an open active block". Equivalent to
    /// `self.actives.contains(&Some(local))`: an active block only ever
    /// occupies its own chip's slot (see
    /// [`FullRegionEngine::alloc_page`]).
    fn is_active(&self, local: u32) -> bool {
        self.actives[self.chip_of(local)] == Some(local)
    }

    /// Number of erased blocks available.
    #[must_use]
    pub fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    /// Total (non-retired) blocks under management.
    #[must_use]
    pub fn block_count(&self) -> u32 {
        self.blocks.iter().filter(|b| !b.retired).count() as u32
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

    /// The active GC victim policy.
    #[must_use]
    pub fn gc_policy(&self) -> GcPolicyKind {
        self.gc_policy
    }

    /// Stamps `local` with the next close sequence if it just became fully
    /// programmed (feeds the age term of the age-aware GC policies).
    fn note_closed(&mut self, local: u32) {
        let blk = &mut self.blocks[local as usize];
        if blk.programmed >= self.pages_per_block && blk.closed_seq == 0 {
            blk.closed_seq = self.closed_seq_counter;
            self.closed_seq_counter += 1;
        }
    }

    /// Current GC watermark (free blocks kept in reserve). Shrinks toward
    /// the floor of 1 as end-of-life degradation sheds over-provisioning.
    #[must_use]
    pub fn watermark(&self) -> u32 {
        self.watermark
    }

    /// True once allocation has failed at the watermark floor: the engine
    /// refuses space-consuming work from then on (see
    /// [`FullRegionEngine::exhaustion`] for the typed cause).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The typed reason allocation is (or would be) refused: end-of-life if
    /// any block was lost to grown-bad retirement, plain device-full
    /// otherwise.
    #[must_use]
    pub fn exhaustion(&self) -> SpaceExhausted {
        if self.retired_bad > 0 {
            SpaceExhausted::EndOfLife
        } else {
            SpaceExhausted::DeviceFull
        }
    }

    /// Pages still allocatable without GC: room left in open blocks plus
    /// the whole free pool.
    fn allocatable_pages(&self) -> u64 {
        let active_room: u64 = self
            .actives
            .iter()
            .flatten()
            .map(|&b| u64::from(self.pages_per_block - self.blocks[b as usize].programmed))
            .sum();
        active_room + self.free.len() as u64 * u64::from(self.pages_per_block)
    }

    /// Whether at least one more page can be allocated right now.
    fn can_alloc_page(&self) -> bool {
        !self.free.is_empty()
            || self
                .actives
                .iter()
                .flatten()
                .any(|&b| !self.blocks[b as usize].is_full(self.pages_per_block))
    }

    /// Effective P/E cycles of engine-local block `local` (raw erase count
    /// unless adaptive erase is charging fractional stress).
    fn block_pe(&self, local: u32, ssd: &Ssd) -> u32 {
        let gbi = self.blocks[local as usize].gbi;
        ssd.device().effective_pe(ssd.geometry().block_addr(gbi))
    }

    /// Min/max effective P/E over all non-retired blocks under management,
    /// or `None` when every block is retired.
    #[must_use]
    pub fn wear_spread(&self, ssd: &Ssd) -> Option<(u32, u32)> {
        let mut bounds: Option<(u32, u32)> = None;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.retired {
                continue;
            }
            let pe = self.block_pe(i as u32, ssd);
            bounds = Some(match bounds {
                None => (pe, pe),
                Some((lo, hi)) => (lo.min(pe), hi.max(pe)),
            });
        }
        bounds
    }

    /// Order-independent digest of the engine's allocation state (free
    /// pool, retired pool, open blocks), used by the crash harness to
    /// prove recovery is idempotent. Simulated times are excluded on
    /// purpose: two mounts of the same flash image happen at different
    /// clocks but must land in the same state.
    pub(crate) fn pool_fingerprint(&self) -> Vec<u64> {
        // Keyed by device-global block index, not local position: two
        // mounts of the same image may deal the regions in a different
        // order, and retired blocks (grown bad, or donated to the subpage
        // region) drop out of the engine entirely on a remount.
        let mut out = Vec::new();
        let mut free: Vec<u64> = self
            .free
            .iter()
            .map(|&b| u64::from(self.blocks[b as usize].gbi))
            .collect();
        free.sort_unstable();
        out.extend(free);
        out.push(u64::MAX);
        for a in &self.actives {
            out.push(a.map_or(u64::MAX - 1, |b| u64::from(self.blocks[b as usize].gbi)));
        }
        out.push(u64::MAX);
        let mut live: Vec<[u64; 3]> = self
            .blocks
            .iter()
            .filter(|b| !b.retired)
            .map(|b| {
                [
                    u64::from(b.gbi),
                    u64::from(b.programmed),
                    u64::from(b.valid_count),
                ]
            })
            .collect();
        live.sort_unstable();
        for b in live {
            out.extend(b);
        }
        out
    }

    /// The physical page currently mapped for `lpn`, if any.
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<PagePtr> {
        let packed = *self.l2p.get(lpn as usize)?;
        if packed == NO_PTR {
            None
        } else {
            Some(PagePtr {
                block: packed / self.pages_per_block,
                page: packed % self.pages_per_block,
            })
        }
    }

    /// Translates a pointer to a device page address.
    #[must_use]
    pub fn page_addr(&self, ptr: PagePtr, ssd: &Ssd) -> PageAddr {
        let gbi = self.blocks[ptr.block as usize].gbi;
        ssd.geometry().block_addr(gbi).page(ptr.page)
    }

    /// Unmaps `lpn` (trim-style): the old physical page becomes garbage.
    pub fn unmap(&mut self, lpn: u64) {
        let packed = self.l2p[lpn as usize];
        if packed != NO_PTR {
            let (b, p) = (packed / self.pages_per_block, packed % self.pages_per_block);
            let blk = &mut self.blocks[b as usize];
            if blk.valid[p as usize] {
                blk.valid[p as usize] = false;
                blk.valid_count -= 1;
            }
            self.l2p[lpn as usize] = NO_PTR;
        }
    }

    /// Garbage-collects until the free pool is back above the watermark,
    /// then programs one full page for `lpn` with the given spare entries
    /// (`oobs[slot]` must carry `lsn == lpn * 4 + slot` for data slots).
    ///
    /// Returns the completion time of the program (including any GC that
    /// had to run first).
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted (see
    /// [`FullRegionEngine::try_program_page`] for the non-panicking form)
    /// or an OOB entry carries an inconsistent LSN.
    pub fn program_page(
        &mut self,
        lpn: u64,
        oobs: &[Option<Oob>],
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        self.try_program_page(lpn, oobs, ssd, stats, issue)
            .unwrap_or_else(|e| panic!("full region out of space: {e}"))
    }

    /// Like [`FullRegionEngine::program_page`], but reports pool exhaustion
    /// as a typed error instead of panicking: callers on the host write
    /// path turn [`SpaceExhausted`] into a refused write plus the read-only
    /// latch (end-of-life degradation, DESIGN.md §11).
    ///
    /// # Errors
    ///
    /// Returns the engine's [`FullRegionEngine::exhaustion`] cause when GC
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
        if !ssd.halted() && !self.can_alloc_page() {
            return Err(self.exhaustion());
        }
        let done = self.program_internal(lpn, oobs, ssd, stats, ready);
        stats.flash_sectors_consumed += u64::from(SECTORS_PER_PAGE);
        Ok(done)
    }

    /// Allocates the next page of the active block (popping a new free
    /// block if needed) and programs it, updating the map and validity.
    ///
    /// A program that reports status fail is retried on the next allocated
    /// page (write retry): the failed page stays accounted as programmed
    /// with no valid data, so GC reclaims it with the rest of its block.
    fn program_internal(
        &mut self,
        lpn: u64,
        oobs: &[Option<Oob>],
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let mut now = issue;
        loop {
            if ssd.halted() {
                // Power is off: nothing will reach the array, and with GC
                // disabled the pool may legitimately be empty — bail out
                // before alloc_page can panic over it.
                return now;
            }
            if !self.can_alloc_page() {
                // Absolute exhaustion (program-failure retries burned the
                // last pages of a dying pool): drop the program instead of
                // panicking. The map is untouched, so the previous copy of
                // `lpn` — if any — remains valid and readable.
                return now;
            }
            let (block, page) = self.alloc_page(ssd);
            let gbi = self.blocks[block as usize].gbi;
            let addr = ssd.geometry().block_addr(gbi).page(page);
            match ssd.program_full(addr, oobs, now) {
                Ok(done) => {
                    // Invalidate the old copy, map the new one.
                    self.unmap(lpn);
                    self.l2p[lpn as usize] = block * self.pages_per_block + page;
                    let blk = &mut self.blocks[block as usize];
                    blk.valid[page as usize] = true;
                    blk.valid_count += 1;
                    return done;
                }
                Err(f) if f.error == esp_nand::NandError::ProgramFailed => {
                    stats.program_failures += 1;
                    stats.write_retries += 1;
                    now = f.at;
                }
                Err(f) => panic!("engine allocated a clean page: {f}"),
            }
        }
    }

    /// Next write position: round-robins over per-chip active blocks so
    /// consecutive programs land on different chips; opens the least-worn
    /// free block of a chip when its active block fills.
    ///
    /// # Panics
    ///
    /// Panics if no chip has space (the watermark logic in
    /// [`FullRegionEngine::ensure_space`] prevents this in normal use).
    fn alloc_page(&mut self, ssd: &Ssd) -> (u32, u32) {
        let chips = self.actives.len();
        // Every chip's least-worn free block, found in ONE pass over the
        // pool, computed lazily on the first chip that needs a refill.
        // The pool is not mutated until a pick succeeds (which returns),
        // so the single pass sees exactly what per-chip scans would see,
        // and keeping the first strict minimum in pool order reproduces
        // `min_by_key`'s first-minimum tie-break per chip.
        let mut picks: Option<Vec<Option<(u32, usize)>>> = None;
        for i in 0..chips {
            let chip = (self.rr + i) % chips;
            let usable = match self.actives[chip] {
                Some(b) => !self.blocks[b as usize].is_full(self.pages_per_block),
                None => false,
            };
            if !usable {
                // Open the least-worn free block on this chip, if any.
                let picks = picks.get_or_insert_with(|| {
                    let mut p: Vec<Option<(u32, usize)>> = vec![None; chips];
                    for (idx, &b) in self.free.iter().enumerate() {
                        let c = self.chip_of(b);
                        let pe = self.block_pe(b, ssd);
                        if p[c].is_none_or(|(best, _)| pe < best) {
                            p[c] = Some((pe, idx));
                        }
                    }
                    p
                });
                match picks[chip] {
                    Some((_, p)) => self.actives[chip] = Some(self.free.swap_remove(p)),
                    None => continue, // this chip is out of space; try next
                }
            }
            let block = self.actives[chip].expect("just ensured");
            let page = self.blocks[block as usize].programmed;
            self.blocks[block as usize].programmed += 1;
            self.note_closed(block);
            self.rr = chip + 1;
            return (block, page);
        }
        panic!("no free block on any chip: region overcommitted");
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
        while !ssd.halted() && (self.free.len() as u32) < target {
            let Some(v) = self.pick_victim(ssd) else {
                break;
            };
            let valid = self.blocks[v as usize].valid_count;
            if valid >= self.pages_per_block {
                break; // nothing reclaimable
            }
            if u64::from(valid) > self.allocatable_pages() {
                break; // copy-out would wedge a dying pool
            }
            // Start the victim only if it fits in the remaining window (the
            // whole point is to stay off the foreground path).
            let estimate = per_copy * u64::from(valid) + erase;
            if now + estimate > until {
                break;
            }
            now = self
                .try_collect_victim(ssd, stats, now, "background")
                .expect("victim checked profitable and feasible");
        }
        now
    }

    /// Runs greedy GC until the free pool is above the watermark, degrading
    /// gracefully when it cannot get there: with no profitable-and-feasible
    /// victim left, the watermark is shed step by step (over-provisioning
    /// shrink, counted in `op_shrinks`) down to a floor of 1; at the floor
    /// the engine latches [`FullRegionEngine::exhausted`] and returns
    /// instead of panicking or spinning. Returns when the last GC operation
    /// completes (`issue` if no GC was needed).
    pub fn ensure_space(&mut self, ssd: &mut Ssd, stats: &mut FtlStats, issue: SimTime) -> SimTime {
        let mut now = issue;
        while !ssd.halted() && (self.free.len() as u32) < self.watermark {
            match self.try_collect_victim(ssd, stats, now, "watermark") {
                Some(done) => now = done,
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
        if !self.can_alloc_page() {
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
    /// absorbing senses. Returns when the last scrub completes.
    pub fn scrub_disturbed(
        &mut self,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        limit: u64,
        issue: SimTime,
    ) -> SimTime {
        let mut now = issue;
        while !ssd.halted() {
            let victim = (0..self.blocks.len() as u32).find(|&b| {
                let blk = &self.blocks[b as usize];
                !blk.retired
                    && blk.programmed > 0
                    && ssd
                        .device()
                        .reads_since_erase(ssd.geometry().block_addr(blk.gbi))
                        >= limit
            });
            let Some(victim) = victim else { break };
            for a in &mut self.actives {
                if *a == Some(victim) {
                    *a = None;
                }
            }
            self.blocks[victim as usize].programmed = self.pages_per_block;
            self.note_closed(victim);
            // Copy-out needs allocatable space; GC here may collect (and
            // thereby scrub) the victim itself, so re-check before taking
            // it — a completed erase already reset its sense count.
            now = self.ensure_space(ssd, stats, now);
            let addr = ssd.geometry().block_addr(self.blocks[victim as usize].gbi);
            if ssd.device().reads_since_erase(addr) >= limit && !ssd.halted() {
                let gbi = self.blocks[victim as usize].gbi;
                let at = now.as_nanos();
                self.trace.emit(|| {
                    TraceEvent::new(at, "gc.scrub")
                        .tag("disturb")
                        .field("block", u64::from(gbi))
                });
                now = self.collect_block(victim, ssd, stats, now);
                stats.disturb_scrubs += 1;
            }
        }
        now
    }

    /// Policy-driven victim choice over the full, non-retired, non-active
    /// blocks (see [`crate::GcPolicyKind`]; greedy — the default — picks
    /// the fewest valid pages, bit-identical to the historical scan). With
    /// wear leveling on, candidates within a small valid-count slack (1/8
    /// of a block, at least one page) of the policy's choice compete on
    /// effective wear instead — collecting the least-worn of them cycles
    /// cold blocks back into service (dynamic wear leveling).
    fn pick_victim(&self, ssd: &Ssd) -> Option<u32> {
        let mut candidates = Vec::new();
        for (i, b) in self.blocks.iter().enumerate() {
            if !b.is_full(self.pages_per_block) || b.retired || self.is_active(i as u32) {
                continue;
            }
            candidates.push(VictimCandidate {
                index: i as u32,
                valid: b.valid_count,
                capacity: self.pages_per_block,
                age: self.closed_seq_counter.saturating_sub(b.closed_seq),
                wear: if self.wear_leveling {
                    self.block_pe(i as u32, ssd)
                } else {
                    0
                },
            });
        }
        select_victim(
            self.gc_policy,
            SelectOpts::standard(self.wear_leveling),
            &candidates,
        )
    }

    /// Collects one victim block (copy valid pages out, erase, free) if one
    /// exists that is profitable (has an invalid page) *and* feasible (its
    /// valid pages fit in the currently allocatable space, so copy-out
    /// cannot wedge). Returns `None` otherwise — the caller decides whether
    /// that means degradation or just "done for now". `cause` tags the
    /// trace event ("watermark" for foreground pressure, "background" for
    /// idle-window collection).
    fn try_collect_victim(
        &mut self,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
        cause: &'static str,
    ) -> Option<SimTime> {
        let victim = self.pick_victim(ssd)?;
        let valid = self.blocks[victim as usize].valid_count;
        if valid >= self.pages_per_block || u64::from(valid) > self.allocatable_pages() {
            return None;
        }
        stats.gc_invocations += 1;
        let gbi = self.blocks[victim as usize].gbi;
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.collect")
                .tag(cause)
                .field("block", u64::from(gbi))
                .field("valid_pages", u64::from(valid))
        });
        Some(self.collect_block(victim, ssd, stats, issue))
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
        let Some((_, max_pe)) = self.wear_spread(ssd) else {
            return issue;
        };
        // The coldest candidate holding data (full, not retired, not open).
        let cold = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                b.is_full(self.pages_per_block) && !b.retired && !self.is_active(*i as u32)
            })
            .min_by_key(|(i, _)| self.block_pe(*i as u32, ssd))
            .map(|(i, _)| i as u32);
        let Some(cold) = cold else { return issue };
        let cold_pe = self.block_pe(cold, ssd);
        if max_pe.saturating_sub(cold_pe) <= threshold {
            return issue; // spread within bounds, or the cold data already cycles
        }
        if u64::from(self.blocks[cold as usize].valid_count) > self.allocatable_pages() {
            return issue; // not enough room to relocate safely
        }
        let gbi = self.blocks[cold as usize].gbi;
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

    /// Relocates every valid page of `victim` and erases it (shared by GC
    /// victim collection and the read-disturb patrol, which may collect
    /// fully-valid blocks).
    fn collect_block(
        &mut self,
        victim: u32,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let mut now = issue;
        let gbi = self.blocks[victim as usize].gbi;
        for page in 0..self.pages_per_block {
            if !self.blocks[victim as usize].valid[page as usize] {
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
            let lpn = self
                .slots_scratch
                .iter()
                .find_map(|r| r.as_ref().ok().map(|o| o.lsn / u64::from(SECTORS_PER_PAGE)))
                .expect("valid page with no data slots");
            debug_assert_eq!(
                self.lookup(lpn),
                Some(PagePtr {
                    block: victim,
                    page
                }),
                "valid bitmap and L2P out of sync"
            );
            let mut oobs = std::mem::take(&mut self.oobs_scratch);
            oobs.clear();
            oobs.extend(self.slots_scratch.iter().map(|r| r.as_ref().ok().copied()));
            let data_sectors = oobs.iter().flatten().count() as u64;
            now = self.program_internal(lpn, &oobs, ssd, stats, read_done);
            self.oobs_scratch = oobs;
            if self.lookup(lpn)
                == Some(PagePtr {
                    block: victim,
                    page,
                })
            {
                // Relocation could not land anywhere (absolute exhaustion):
                // abort the collection before the erase below can destroy
                // the only valid copy. The victim stays as it is.
                return now;
            }
            stats.gc_copied_sectors += data_sectors;
            stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
        }
        let blk_addr = ssd.geometry().block_addr(gbi);
        match ssd.erase(blk_addr, now) {
            Ok(done) => {
                now = done;
                let blk = &mut self.blocks[victim as usize];
                blk.programmed = 0;
                blk.valid.fill(false);
                blk.valid_count = 0;
                blk.closed_seq = 0;
                self.free.push(victim);
            }
            Err(f) if f.error == esp_nand::NandError::EraseFailed => {
                // The block grew bad: retire it instead of freeing it. All
                // valid data was already copied out above, so nothing is
                // lost; the caller's loop simply picks the next victim.
                now = f.at;
                let blk = &mut self.blocks[victim as usize];
                blk.retired = true;
                blk.valid.fill(false);
                blk.valid_count = 0;
                blk.closed_seq = 0;
                self.retired_bad += 1;
                stats.erase_failures += 1;
                stats.blocks_retired += 1;
            }
            Err(f) => panic!("erase of managed block: {f}"),
        }
        now
    }

    /// Retires the block with device-global index `gbi` in place (bad-block
    /// exclusion at mount or after a grown-bad discovery). The block keeps
    /// its engine-local slot — callers such as `CgmFtl::recover` rely on
    /// local index == gbi alignment — but leaves the free list and any
    /// active-block slot. Returns `false` if `gbi` is not under management
    /// or already retired.
    pub fn retire_gbi(&mut self, gbi: u32) -> bool {
        let Some(local) = self.blocks.iter().position(|b| b.gbi == gbi) else {
            return false;
        };
        if self.blocks[local].retired {
            return false;
        }
        assert_eq!(
            self.blocks[local].valid_count, 0,
            "cannot retire a block that still holds valid data"
        );
        self.blocks[local].retired = true;
        self.retired_bad += 1;
        let local = local as u32;
        if let Some(pos) = self.free.iter().position(|&f| f == local) {
            self.free.swap_remove(pos);
        }
        for a in &mut self.actives {
            if *a == Some(local) {
                *a = None;
            }
        }
        true
    }

    /// Removes one erased block from the pool for cross-region wear
    /// leveling, preferring the most-worn free block. Returns its
    /// device-global index, or `None` if the pool cannot spare one.
    pub fn donate_free_block(&mut self, ssd: &Ssd) -> Option<u32> {
        if self.free.len() as u32 <= self.watermark {
            return None;
        }
        let pick = self
            .free
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| self.block_pe(b, ssd))
            .map(|(i, _)| i)?;
        let local = self.free.swap_remove(pick);
        self.blocks[local as usize].retired = true;
        Some(self.blocks[local as usize].gbi)
    }

    /// Removes the *least-worn* erased block from the pool (for handing a
    /// fresh block to a hotter region during wear leveling). Returns its
    /// device-global index, or `None` if the pool cannot spare one.
    pub fn donate_coldest_free_block(&mut self, ssd: &Ssd) -> Option<u32> {
        if self.free.len() as u32 <= self.watermark {
            return None;
        }
        let pick = self
            .free
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| self.block_pe(b, ssd))
            .map(|(i, _)| i)?;
        let local = self.free.swap_remove(pick);
        self.blocks[local as usize].retired = true;
        Some(self.blocks[local as usize].gbi)
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
        let pick = self
            .free
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| self.block_pe(b, ssd))
            .map(|(i, _)| i)?;
        let cold_pe = self.block_pe(self.free[pick], ssd);
        let worn_pe = ssd
            .device()
            .effective_pe(ssd.geometry().block_addr(worn_gbi));
        if worn_pe <= cold_pe.saturating_add(min_gain) {
            return None;
        }
        let local = self.free.swap_remove(pick);
        self.blocks[local as usize].retired = true;
        let fresh = self.blocks[local as usize].gbi;
        self.adopt_free_block(worn_gbi);
        Some(fresh)
    }

    /// Effective P/E cycles of the least-worn free block, if any can be
    /// spared.
    #[must_use]
    pub fn coldest_free_pe(&self, ssd: &Ssd) -> Option<u32> {
        if self.free.len() as u32 <= self.watermark {
            return None;
        }
        self.free.iter().map(|&b| self.block_pe(b, ssd)).min()
    }

    /// Adds an erased block (received from another region) to the pool.
    pub fn adopt_free_block(&mut self, gbi: u32) {
        let local = self.blocks.len() as u32;
        self.blocks.push(FullBlock::new(
            gbi,
            self.blocks_per_chip,
            self.pages_per_block,
        ));
        self.free.push(local);
    }

    /// Rebuilds mapping and allocation state from a post-crash scan:
    /// `programmed[b]` is the number of programmed pages in local block `b`
    /// and `mappings` the winning `(lpn, block, page)` triples. The free
    /// list is recomputed; no block is left active.
    ///
    /// # Panics
    ///
    /// Panics if a mapping points outside the pool or two mappings claim
    /// the same logical page.
    pub(crate) fn restore_state(&mut self, programmed: &[u32], mappings: &[(u64, u32, u32)]) {
        assert_eq!(programmed.len(), self.blocks.len(), "scan shape mismatch");
        for (b, &p) in programmed.iter().enumerate() {
            assert!(p <= self.pages_per_block);
            self.blocks[b].programmed = p;
            self.blocks[b].valid.fill(false);
            self.blocks[b].valid_count = 0;
            // Recovered blocks carry stamp 0: maximally old to the
            // age-aware policies, the safe direction after a crash.
            self.blocks[b].closed_seq = 0;
        }
        for l in &mut self.l2p {
            *l = NO_PTR;
        }
        for &(lpn, block, page) in mappings {
            assert!(
                self.l2p[lpn as usize] == NO_PTR,
                "two recovered copies mapped for lpn {lpn}"
            );
            self.l2p[lpn as usize] = block * self.pages_per_block + page;
            let blk = &mut self.blocks[block as usize];
            assert!(page < blk.programmed, "mapping into unprogrammed page");
            blk.valid[page as usize] = true;
            blk.valid_count += 1;
        }
        self.free = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.retired && b.programmed == 0)
            .map(|(i, _)| i as u32)
            .collect();
        // Partially programmed blocks were the per-chip active blocks at
        // the crash: resume one per chip; close any extras (their unwritten
        // tail is wasted until GC reclaims the block, the standard
        // "close the open block" recovery rule).
        for a in &mut self.actives {
            *a = None;
        }
        for i in 0..self.blocks.len() {
            let b = &self.blocks[i];
            if b.retired || b.programmed == 0 || b.programmed >= self.pages_per_block {
                continue;
            }
            let chip = self.chip_of(i as u32);
            if self.actives[chip].is_none() {
                self.actives[chip] = Some(i as u32);
            } else {
                self.blocks[i].programmed = self.pages_per_block;
            }
        }
    }

    /// Bytes of L2P mapping state (the coarse page map).
    #[must_use]
    pub fn mapping_bytes(&self) -> u64 {
        (self.l2p.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Sum of valid pages across the pool (for tests and reporting).
    #[must_use]
    pub fn valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.valid_count)).sum()
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
        let engine = FullRegionEngine::new(
            (0..16).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            32,
            2,
        );
        (ssd, engine, FtlStats::new())
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
        eng.program_page(5, &full_oobs(5), &mut ssd, &mut stats, SimTime::ZERO);
        let first = eng.lookup(5).unwrap();
        eng.program_page(5, &full_oobs(5), &mut ssd, &mut stats, SimTime::ZERO);
        let second = eng.lookup(5).unwrap();
        assert_ne!(first, second);
        assert_eq!(eng.valid_pages(), 1, "old copy must be invalid");
        assert_eq!(stats.flash_sectors_consumed, 8);
    }

    #[test]
    fn read_back_through_lookup() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.program_page(3, &full_oobs(3), &mut ssd, &mut stats, SimTime::ZERO);
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
                eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, SimTime::ZERO);
                let _ = round;
            }
        }
        assert!(stats.gc_invocations > 0, "GC must have run");
        assert_eq!(eng.valid_pages(), 32, "exactly one valid copy per lpn");
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
                eng.program_page(lpn, &o, &mut ssd, &mut stats, SimTime::ZERO);
            }
        }
        // Force more GC by overwriting a few lpns.
        for lpn in 0..8 {
            eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, SimTime::ZERO);
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
        eng.program_page(1, &full_oobs(1), &mut ssd, &mut stats, SimTime::ZERO);
        assert_eq!(eng.valid_pages(), 1);
        eng.unmap(1);
        assert_eq!(eng.valid_pages(), 0);
        assert_eq!(eng.lookup(1), None);
        // Double unmap is a no-op.
        eng.unmap(1);
        assert_eq!(eng.valid_pages(), 0);
    }

    #[test]
    fn donate_and_adopt_blocks() {
        let (mut ssd, mut eng, mut stats) = setup();
        let before = eng.free_blocks();
        let gbi = eng.donate_free_block(&ssd).unwrap();
        assert_eq!(eng.free_blocks(), before - 1);
        eng.adopt_free_block(gbi);
        assert_eq!(eng.free_blocks(), before);
        // The engine still functions.
        eng.program_page(0, &full_oobs(0), &mut ssd, &mut stats, SimTime::ZERO);
        assert!(eng.lookup(0).is_some());
    }

    #[test]
    fn donation_refuses_below_watermark() {
        let g = Geometry::tiny();
        let ssd = Ssd::new(g.clone());
        let mut eng =
            FullRegionEngine::new(vec![0, 1, 2], g.pages_per_block, g.blocks_per_chip, 4, 2);
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
                last = eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, last);
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
            eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, SimTime::ZERO);
        }
        // Snapshot the physical truth, then restore a fresh engine.
        let programmed: Vec<u32> = (0..16)
            .map(|b| {
                (0..4)
                    .filter(|&p| {
                        !ssd.device()
                            .block(ssd.geometry().block_addr(b))
                            .page(p)
                            .is_erased()
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
            FullRegionEngine::new((0..16).collect(), 4, ssd.geometry().blocks_per_chip, 32, 2);
        restored.restore_state(&programmed, &mappings);
        assert_eq!(restored.valid_pages(), 8);
        for lpn in 0..8 {
            assert_eq!(restored.lookup(lpn), eng.lookup(lpn));
        }
        // Partially programmed blocks resumed as actives: writing continues
        // without touching a dirty page.
        restored.program_page(9, &full_oobs(9), &mut ssd, &mut stats, SimTime::ZERO);
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
        let mut eng = FullRegionEngine::new((0..4).collect(), 4, 4, 8, 2);
        eng.restore_state(&[2, 1, 0, 0], &[]);
        assert_eq!(eng.free_blocks(), 2);
        // One of the two partials was closed: it is a GC candidate once a
        // victim is needed; the other continues as active.
        let mut stats = FtlStats::new();
        eng.program_page(0, &full_oobs(0), &mut ssd, &mut stats, SimTime::ZERO);
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
            FullRegionEngine::new(vec![0, 1, 2, 3], g.pages_per_block, g.blocks_per_chip, 4, 2);
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
        let mut eng = FullRegionEngine::new(
            (0..16).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            16,
            2,
        );
        let mut stats = FtlStats::new();
        let mut now = SimTime::ZERO;
        for round in 0..8 {
            for lpn in 0..16 {
                now = eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, now);
                let _ = round;
            }
        }
        assert!(stats.write_retries > 0, "p=0.2 must force retries");
        assert_eq!(stats.program_failures, stats.write_retries);
        assert_eq!(eng.valid_pages(), 16);
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
        let mut eng = FullRegionEngine::new(
            (0..16).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            16,
            2,
        );
        let mut stats = FtlStats::new();
        let mut now = SimTime::ZERO;
        for round in 0..6 {
            for lpn in 0..16 {
                now = eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, now);
                let _ = round;
            }
        }
        assert!(stats.erase_failures > 0, "p=0.3 must force erase failures");
        assert_eq!(stats.blocks_retired, stats.erase_failures);
        assert_eq!(eng.block_count(), 16 - stats.blocks_retired as u32);
        assert_eq!(
            ssd.device().bad_block_indices().len() as u64,
            stats.blocks_retired,
            "every retirement corresponds to a grown bad block"
        );
        assert_eq!(eng.valid_pages(), 16);
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
        let before_free = eng.free_blocks();
        let before_total = eng.block_count();
        assert!(eng.retire_gbi(7));
        assert_eq!(eng.free_blocks(), before_free - 1);
        assert_eq!(eng.block_count(), before_total - 1);
        // Idempotent / unknown gbis refused.
        assert!(!eng.retire_gbi(7));
        assert!(!eng.retire_gbi(999));
        // Local slot preserved: block 8 still maps to gbi 8.
        eng.program_page(0, &full_oobs(0), &mut ssd, &mut stats, SimTime::ZERO);
        let ptr = eng.lookup(0).unwrap();
        assert_eq!(eng.blocks[ptr.block as usize].gbi, ptr.block);
        // The engine never writes into the retired block.
        for lpn in 0..32 {
            eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, SimTime::ZERO);
        }
        assert!(ssd
            .device()
            .block(ssd.geometry().block_addr(7))
            .page(0)
            .is_erased());
    }

    #[test]
    fn reclaim_page_moves_data_to_a_fresh_location() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.program_page(3, &full_oobs(3), &mut ssd, &mut stats, SimTime::ZERO);
        let before = eng.lookup(3).unwrap();
        let done = eng.reclaim_page(3, &mut ssd, &mut stats, SimTime::ZERO);
        let after = eng.lookup(3).unwrap();
        assert_ne!(before, after, "reclaim must relocate the page");
        assert!(done > SimTime::ZERO, "reclaim charges read + program time");
        assert_eq!(stats.read_reclaims, 1);
        assert_eq!(eng.valid_pages(), 1, "old copy invalidated");
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
        eng.program_page(7, &full_oobs(7), &mut ssd, &mut stats, SimTime::ZERO);
        let ptr = eng.lookup(7).unwrap();
        let old_gbi = eng.blocks[ptr.block as usize].gbi;
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
        assert_ne!(eng.blocks[after.block as usize].gbi, old_gbi);
        let (slots, _) = ssd.read_full(eng.page_addr(after, &ssd), SimTime::ZERO);
        assert_eq!(slots[0].as_ref().unwrap().lsn, 28);
        // A second sweep finds nothing above the limit.
        eng.scrub_disturbed(&mut ssd, &mut stats, 50, SimTime::ZERO);
        assert_eq!(stats.disturb_scrubs, 1);
    }

    /// One-chip, 8-block pool with `mapped[b]` lpns valid in the first
    /// pages of block `b` (0 = left free), for tests that need exact
    /// per-block valid counts. Blocks with any valid pages are physically
    /// programmed full (pages past the valid prefix are stale data).
    fn staged(ssd: &mut Ssd, mapped: &[u32]) -> FullRegionEngine {
        let g = ssd.geometry().clone();
        let mut eng = FullRegionEngine::new(
            (0..8).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            32,
            2,
        );
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
        assert_eq!(eng.pick_victim(&ssd), Some(0), "greedy picks fewest valid");
        eng.set_wear_leveling(true);
        assert_eq!(
            eng.pick_victim(&ssd),
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
        assert_eq!(eng.pick_victim(&ssd), Some(0));
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
        let free_before = eng.free_blocks();
        let done = eng.wear_rotate(&mut ssd, &mut stats, SimTime::ZERO, 20);
        assert!(done > SimTime::ZERO);
        assert_eq!(stats.wear_level_migrations, 1);
        assert_eq!(ssd.device().pe_cycles(ssd.geometry().block_addr(0)), 1);
        assert_eq!(
            eng.free_blocks(),
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
        let mut eng = FullRegionEngine::new(
            (0..16).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            16,
            2,
        );
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
        assert!(eng.exhausted());
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
    }

    #[test]
    #[should_panic(expected = "does not belong to lpn")]
    fn program_rejects_inconsistent_oob() {
        let (mut ssd, mut eng, mut stats) = setup();
        let mut oobs = full_oobs(3);
        oobs[0] = Some(Oob { lsn: 999, seq: 0 });
        eng.program_page(3, &oobs, &mut ssd, &mut stats, SimTime::ZERO);
    }
}
