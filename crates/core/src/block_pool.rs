//! The erase-block pool shared by every region written in whole pages:
//! the full-page engine ([`crate::FullRegionEngine`] — cgmFTL, subFTL's
//! full-page region, sector-log's data region), fgmFTL's 4 KB pool and
//! sector-log's log region.
//!
//! The pool owns the block table (device-global index, chip, write
//! pointer, per-unit validity, close stamp, retirement), the free list,
//! one active block per chip with a round-robin cursor, page allocation
//! and the program-retry loop, the victim-candidate scans, erase-or-retire
//! and the post-crash rebuild. Its only shape parameter is the number of
//! mapping units per page: 1 for a page-mapped region, `N_sub` for a
//! sector-mapped one. Owners keep their map and their relocation code,
//! and pass their refill rule ([`Refill`]) in code.

use esp_nand::Oob;
use esp_sim::SimTime;
use esp_ssd::Ssd;

use crate::gc_policy::{select_victim, GcPolicyKind, SelectOpts, VictimCandidate};
use crate::stats::FtlStats;

/// How a chip whose active block filled picks its next block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refill {
    /// The chip's least-worn free block (effective P/E); ties go to the
    /// first in free-list order.
    LeastWorn,
    /// The chip's first free block in free-list order.
    FirstFree,
    /// The chip's free block with the least (effective P/E, local index).
    LeastWornLowestIndex,
}

#[derive(Debug, Clone)]
struct Block {
    /// Device-global block index.
    gbi: u32,
    /// Chip holding this block (`gbi / blocks_per_chip`), precomputed so
    /// victim scans avoid a division per lookup.
    chip: u32,
    /// Per-unit validity bitset (`pages × units_per_page` bits, unit `u`
    /// at bit `u % 64` of word `u / 64`; a unit is valid while the owner's
    /// map points at it).
    valid: Vec<u64>,
    valid_count: u32,
    /// Pages programmed since the last erase (the write pointer while
    /// active).
    programmed: u32,
    /// Out of service: grown bad, factory bad, or handed to another
    /// region. Never allocated and never a victim again.
    retired: bool,
    /// Monotone stamp taken when the block became fully programmed; 0 for
    /// erased and recovered blocks (maximally old to the age-aware GC
    /// policies).
    closed_seq: u64,
}

impl Block {
    fn new(gbi: u32, blocks_per_chip: u32, units: u32) -> Self {
        Block {
            gbi,
            chip: gbi / blocks_per_chip,
            valid: vec![0; units.div_ceil(64) as usize],
            valid_count: 0,
            programmed: 0,
            retired: false,
            closed_seq: 0,
        }
    }

    /// Word index and bit mask of `unit` in the validity bitset.
    fn bit(unit: u32) -> (usize, u64) {
        ((unit / 64) as usize, 1 << (unit % 64))
    }

    fn is_valid(&self, unit: u32) -> bool {
        let (w, mask) = Block::bit(unit);
        self.valid[w] & mask != 0
    }

    /// Whether any of the `len` units from `start` is valid.
    fn any_valid(&self, start: u32, len: u32) -> bool {
        let end = start + len;
        let mut unit = start;
        while unit < end {
            let low = unit % 64;
            let n = (end - unit).min(64 - low);
            let mask = (u64::MAX >> (64 - n)) << low;
            if self.valid[(unit / 64) as usize] & mask != 0 {
                return true;
            }
            unit += n;
        }
        false
    }

    fn clear_valid(&mut self) {
        self.valid.fill(0);
        self.valid_count = 0;
    }
}

/// Erases block `gbi`. `Ok` carries the completion time; an erase that
/// status-fails grows a bad block, is counted in `stats`, and comes back
/// as `Err` with the failure time — the caller retires the block. Every
/// erase of a managed block goes through here.
///
/// # Panics
///
/// Panics on any failure other than a status-failed erase (the block is
/// managed, so the command itself is always legal).
pub(crate) fn erase_or_retire(
    ssd: &mut Ssd,
    gbi: u32,
    stats: &mut FtlStats,
    issue: SimTime,
) -> Result<SimTime, SimTime> {
    match ssd.erase(ssd.geometry().block_addr(gbi), issue) {
        Ok(done) => Ok(done),
        Err(f) if f.error == esp_nand::NandError::EraseFailed => {
            stats.erase_failures += 1;
            stats.blocks_retired += 1;
            Err(f.at)
        }
        Err(f) => panic!("erase of managed block: {f}"),
    }
}

/// Whether the idle window `[from, until]` can hold one erase. Every
/// idle collection estimates its cost as one erase plus a non-negative
/// copy cost and starts only if the estimate ends by `until`, so a window
/// that fails this test can collect nothing: `Ftl::idle` returns before
/// any victim scan.
pub(crate) fn window_fits_erase(ssd: &Ssd, from: SimTime, until: SimTime) -> bool {
    from + ssd.device().op_cost(esp_nand::OpKind::Erase).total() <= until
}

/// Effective P/E cycles of device block `gbi` (raw erase count unless
/// adaptive erase is charging fractional stress).
fn effective_pe(ssd: &Ssd, gbi: u32) -> u32 {
    ssd.device().effective_pe(ssd.geometry().block_addr(gbi))
}

/// A pool of erase blocks written in whole pages (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct BlockPool {
    pages_per_block: u32,
    units_per_page: u32,
    blocks_per_chip: u32,
    blocks: Vec<Block>,
    /// Erased blocks ready for allocation (pool-local indices).
    free: Vec<u32>,
    /// Free blocks on each chip.
    free_on_chip: Vec<u32>,
    /// Chips that can take a page now (their active block has room or a
    /// free block sits on them): chip `c` at bit `c % 64` of word `c / 64`.
    /// Allocation finds its chip here instead of walking full chips.
    ready: Vec<u64>,
    /// One active (open) block per chip, so programs stripe across chips.
    /// An active block only ever occupies its own chip's slot.
    actives: Vec<Option<u32>>,
    /// Round-robin cursor over chips.
    rr: usize,
    /// Next close stamp (starts at 1 so stamp 0 reads as oldest).
    closed_seq_counter: u64,
    /// Blocks lost to grown-bad or factory-bad retirement; donations are
    /// not counted.
    retired_bad: u32,
}

impl BlockPool {
    /// A pool over the device-global blocks `gbis` (local index = position
    /// in `gbis`), with one active slot for each of `chips` chips.
    pub(crate) fn new(
        gbis: &[u32],
        pages_per_block: u32,
        units_per_page: u32,
        blocks_per_chip: u32,
        chips: usize,
    ) -> Self {
        let units = pages_per_block * units_per_page;
        let mut pool = BlockPool {
            pages_per_block,
            units_per_page,
            blocks_per_chip,
            blocks: gbis
                .iter()
                .map(|&g| Block::new(g, blocks_per_chip, units))
                .collect(),
            free: (0..gbis.len() as u32).collect(),
            free_on_chip: vec![0; chips],
            ready: vec![0; chips.div_ceil(64)],
            actives: vec![None; chips],
            rr: 0,
            closed_seq_counter: 1,
            retired_bad: 0,
        };
        pool.recount_free();
        pool
    }

    pub(crate) fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    fn units_per_block(&self) -> u32 {
        self.pages_per_block * self.units_per_page
    }

    /// Device-global index of local block `block`.
    pub(crate) fn gbi(&self, block: u32) -> u32 {
        self.blocks[block as usize].gbi
    }

    /// Number of erased blocks available.
    pub(crate) fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    /// Non-retired blocks under management.
    #[cfg(test)]
    pub(crate) fn block_count(&self) -> u32 {
        self.blocks.iter().filter(|b| !b.retired).count() as u32
    }

    /// Blocks lost to grown-bad or factory-bad retirement.
    pub(crate) fn retired_bad(&self) -> u32 {
        self.retired_bad
    }

    /// Valid units in `block`.
    pub(crate) fn valid_count(&self, block: u32) -> u32 {
        self.blocks[block as usize].valid_count
    }

    /// Valid units across the pool.
    pub(crate) fn valid_units(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.valid_count)).sum()
    }

    pub(crate) fn is_valid(&self, block: u32, unit: u32) -> bool {
        self.blocks[block as usize].is_valid(unit)
    }

    /// Whether any unit of `page` in `block` is valid.
    pub(crate) fn page_has_valid(&self, block: u32, page: u32) -> bool {
        self.blocks[block as usize].any_valid(page * self.units_per_page, self.units_per_page)
    }

    /// Marks a freshly programmed unit valid.
    pub(crate) fn mark_valid(&mut self, block: u32, unit: u32) {
        let b = &mut self.blocks[block as usize];
        let (w, mask) = Block::bit(unit);
        b.valid[w] |= mask;
        b.valid_count += 1;
    }

    /// Drops `unit`'s validity (its map entry moved or went away); no-op
    /// if it was not valid.
    pub(crate) fn invalidate(&mut self, block: u32, unit: u32) {
        let b = &mut self.blocks[block as usize];
        let (w, mask) = Block::bit(unit);
        if b.valid[w] & mask != 0 {
            b.valid[w] &= !mask;
            b.valid_count -= 1;
        }
    }

    /// Effective P/E cycles of local block `block` (raw erase count unless
    /// adaptive erase is charging fractional stress).
    fn block_pe(&self, block: u32, ssd: &Ssd) -> u32 {
        effective_pe(ssd, self.gbi(block))
    }

    /// Min/max effective P/E over all non-retired blocks, or `None` when
    /// every block is retired.
    pub(crate) fn wear_spread(&self, ssd: &Ssd) -> Option<(u32, u32)> {
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

    fn is_active(&self, block: u32) -> bool {
        self.actives[self.blocks[block as usize].chip as usize] == Some(block)
    }

    /// Whole pages still programmable without GC: room left in the open
    /// blocks plus the whole free list.
    pub(crate) fn allocatable_pages(&self) -> u64 {
        let active_room: u64 = self
            .actives
            .iter()
            .flatten()
            .map(|&b| u64::from(self.pages_per_block - self.blocks[b as usize].programmed))
            .sum();
        active_room + self.free.len() as u64 * u64::from(self.pages_per_block)
    }

    /// Whether at least one more page can be allocated right now.
    pub(crate) fn can_alloc(&self) -> bool {
        self.ready.iter().any(|&w| w != 0)
    }

    /// Whether `chip`'s active block has room.
    fn active_has_room(&self, chip: usize) -> bool {
        self.actives[chip]
            .is_some_and(|b| self.blocks[b as usize].programmed < self.pages_per_block)
    }

    /// Recomputes `chip`'s bit in `ready`; every change to the free list
    /// or an active slot ends here.
    fn refresh_ready(&mut self, chip: usize) {
        let (w, mask) = (chip / 64, 1 << (chip % 64));
        if self.free_on_chip[chip] > 0 || self.active_has_room(chip) {
            self.ready[w] |= mask;
        } else {
            self.ready[w] &= !mask;
        }
    }

    /// Recounts the free blocks per chip from the free list and refreshes
    /// every chip's ready bit.
    fn recount_free(&mut self) {
        self.free_on_chip.fill(0);
        for &b in &self.free {
            self.free_on_chip[self.blocks[b as usize].chip as usize] += 1;
        }
        for chip in 0..self.actives.len() {
            self.refresh_ready(chip);
        }
    }

    /// Appends `block` to the free list.
    fn push_free(&mut self, block: u32) {
        let chip = self.blocks[block as usize].chip as usize;
        self.free.push(block);
        self.free_on_chip[chip] += 1;
        self.refresh_ready(chip);
    }

    /// Takes the block at free-list position `pos` off the free list (the
    /// last entry fills its place).
    fn remove_free(&mut self, pos: usize) -> u32 {
        let block = self.free.swap_remove(pos);
        let chip = self.blocks[block as usize].chip as usize;
        self.free_on_chip[chip] -= 1;
        self.refresh_ready(chip);
        block
    }

    /// The first ready chip in `lo..hi`.
    fn first_ready_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut chip = lo;
        while chip < hi {
            let bits = self.ready[chip / 64] >> (chip % 64);
            if bits != 0 {
                let found = chip + bits.trailing_zeros() as usize;
                return (found < hi).then_some(found);
            }
            chip = (chip / 64 + 1) * 64;
        }
        None
    }

    /// Stamps `block` with the next close sequence if it just became fully
    /// programmed (feeds the age term of the age-aware GC policies).
    fn note_closed(&mut self, block: u32) {
        let b = &mut self.blocks[block as usize];
        if b.programmed >= self.pages_per_block && b.closed_seq == 0 {
            b.closed_seq = self.closed_seq_counter;
            self.closed_seq_counter += 1;
        }
    }

    /// Next write position: round-robins over the per-chip active blocks
    /// so consecutive programs land on different chips, refilling a chip
    /// whose active block filled under `refill`. The chip is the first
    /// ready one from the cursor on, which is the first chip whose active
    /// block has room or that holds a free block.
    ///
    /// # Panics
    ///
    /// Panics if no chip has space; callers check [`BlockPool::can_alloc`].
    fn alloc_page(&mut self, ssd: &Ssd, refill: Refill) -> (u32, u32) {
        let chips = self.actives.len();
        let from = self.rr % chips;
        let chip = self
            .first_ready_in(from, chips)
            .or_else(|| self.first_ready_in(0, from))
            .expect("no free block on any chip: pool overcommitted");
        if !self.active_has_room(chip) {
            let pos = self
                .refill_pick(chip, ssd, refill)
                .expect("a ready chip without room holds a free block");
            let block = self.remove_free(pos);
            self.actives[chip] = Some(block);
        }
        let block = self.actives[chip].expect("just ensured");
        let page = self.blocks[block as usize].programmed;
        self.blocks[block as usize].programmed += 1;
        self.note_closed(block);
        self.refresh_ready(chip);
        self.rr = chip + 1;
        (block, page)
    }

    /// Free-list position of `chip`'s next active block under `refill`:
    /// the first strict minimum of the refill key in free-list order.
    fn refill_pick(&self, chip: usize, ssd: &Ssd, refill: Refill) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (pos, &b) in self.free.iter().enumerate() {
            if self.blocks[b as usize].chip as usize != chip {
                continue;
            }
            // Smaller key wins; (pe, index) packs as pe << 32 | index.
            let key = match refill {
                Refill::FirstFree => return Some(pos),
                Refill::LeastWorn => u64::from(self.block_pe(b, ssd)),
                Refill::LeastWornLowestIndex => {
                    u64::from(self.block_pe(b, ssd)) << 32 | u64::from(b)
                }
            };
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, pos));
            }
        }
        best.map(|(_, pos)| pos)
    }

    /// Programs one full page at the next write position. A program that
    /// reports status fail is retried on the next allocated page (write
    /// retry): the failed page stays accounted as programmed with no valid
    /// data, so GC reclaims it with the rest of its block.
    ///
    /// Returns the landed `(block, page, done)` — the owner maps it — or
    /// `Err(now)` when nothing was programmed because power is off or no
    /// page is allocatable (absolute exhaustion); the two are told apart
    /// by [`Ssd::halted`].
    pub(crate) fn program(
        &mut self,
        ssd: &mut Ssd,
        oobs: &[Option<Oob>],
        stats: &mut FtlStats,
        refill: Refill,
        issue: SimTime,
    ) -> Result<(u32, u32, SimTime), SimTime> {
        let mut now = issue;
        loop {
            // Power off: with GC fenced the pool may legitimately be empty.
            if ssd.halted() || !self.can_alloc() {
                return Err(now);
            }
            let (block, page) = self.alloc_page(ssd, refill);
            let addr = ssd.geometry().block_addr(self.gbi(block)).page(page);
            match ssd.program_full(addr, oobs, now) {
                Ok(done) => return Ok((block, page, done)),
                Err(f) if f.error == esp_nand::NandError::ProgramFailed => {
                    stats.program_failures += 1;
                    stats.write_retries += 1;
                    now = f.at;
                }
                Err(f) => panic!("pool allocated a clean page: {f}"),
            }
        }
    }

    /// Blocks a collection may take, in ascending local index, with their
    /// valid-unit counts: fully programmed, not retired, not open.
    pub(crate) fn collectable(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.collectable_blocks().map(|(i, b)| (i, b.valid_count))
    }

    fn collectable_blocks(&self) -> impl Iterator<Item = (u32, &Block)> + '_ {
        (0u32..).zip(&self.blocks).filter(|&(i, b)| {
            b.programmed >= self.pages_per_block
                && !b.retired
                && self.actives[b.chip as usize] != Some(i)
        })
    }

    /// Policy-driven GC victim over the collectable blocks (see
    /// [`crate::GcPolicyKind`]; greedy picks the fewest valid units, ties
    /// to the lowest local index). With wear leveling on, candidates
    /// within a small valid-count slack of the policy's choice compete on
    /// effective wear instead (dynamic wear leveling).
    pub(crate) fn gc_victim(
        &self,
        ssd: &Ssd,
        policy: GcPolicyKind,
        wear_leveling: bool,
    ) -> Option<u32> {
        let capacity = self.units_per_block();
        let mut candidates = Vec::new();
        for (i, b) in self.collectable_blocks() {
            candidates.push(VictimCandidate {
                index: i,
                valid: b.valid_count,
                capacity,
                age: self.closed_seq_counter.saturating_sub(b.closed_seq),
                wear: if wear_leveling {
                    effective_pe(ssd, b.gbi)
                } else {
                    0
                },
            });
        }
        select_victim(policy, SelectOpts::standard(wear_leveling), &candidates)
    }

    /// Whether `valid` units fit in the pages allocatable right now, so a
    /// copy-out cannot wedge halfway.
    pub(crate) fn fits(&self, valid: u32) -> bool {
        u64::from(valid.div_ceil(self.units_per_page)) <= self.allocatable_pages()
    }

    /// The GC victim and its valid-unit count, if collecting it is
    /// profitable (it holds an invalid unit) and feasible (its survivors
    /// fit, see [`BlockPool::fits`]).
    pub(crate) fn feasible_victim(
        &self,
        ssd: &Ssd,
        policy: GcPolicyKind,
        wear_leveling: bool,
    ) -> Option<(u32, u32)> {
        let victim = self.gc_victim(ssd, policy, wear_leveling)?;
        let valid = self.valid_count(victim);
        (valid < self.units_per_block() && self.fits(valid)).then_some((victim, valid))
    }

    /// Static wear leveling's candidate: the least-worn collectable block
    /// (ties to the lowest local index) with its effective P/E.
    pub(crate) fn coldest_collectable(&self, ssd: &Ssd) -> Option<(u32, u32)> {
        self.collectable_blocks()
            .map(|(i, b)| (i, effective_pe(ssd, b.gbi)))
            .min_by_key(|&(_, pe)| pe)
    }

    /// The read-disturb patrol's next victim: the first non-retired block
    /// holding programmed pages whose sense count since its last erase
    /// reached `limit`.
    pub(crate) fn disturbed(&self, ssd: &Ssd, limit: u64) -> Option<u32> {
        let pos = self.blocks.iter().position(|b| {
            !b.retired
                && b.programmed > 0
                && ssd
                    .device()
                    .reads_since_erase(ssd.geometry().block_addr(b.gbi))
                    >= limit
        })?;
        Some(pos as u32)
    }

    /// Closes `block` early (the patrol does this so a disturbed open
    /// block stops absorbing senses): it leaves its active slot and its
    /// unwritten tail is wasted until the block is erased.
    pub(crate) fn close(&mut self, block: u32) {
        self.leave_active(block);
        self.blocks[block as usize].programmed = self.pages_per_block;
        self.note_closed(block);
    }

    /// Empties `block`'s chip slot if `block` is that chip's active block.
    fn leave_active(&mut self, block: u32) {
        let chip = self.blocks[block as usize].chip as usize;
        if self.actives[chip] == Some(block) {
            self.actives[chip] = None;
            self.refresh_ready(chip);
        }
    }

    /// Erases `block`, which must hold no valid units, and frees it. An
    /// erase that status-fails retires the block instead (grown bad; see
    /// [`erase_or_retire`]). Returns `Ok(done)` when the block was freed
    /// and `Err(at)` when it was retired.
    pub(crate) fn erase(
        &mut self,
        block: u32,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> Result<SimTime, SimTime> {
        debug_assert_eq!(self.valid_count(block), 0, "erasing live data");
        let result = erase_or_retire(ssd, self.gbi(block), stats, issue);
        self.after_erase(block, result.is_ok());
        result
    }

    /// Frees `block` after a completed erase, or retires it (grown bad)
    /// after a failed one.
    fn after_erase(&mut self, block: u32, erased: bool) {
        let b = &mut self.blocks[block as usize];
        b.clear_valid();
        b.closed_seq = 0;
        if erased {
            b.programmed = 0;
            self.push_free(block);
        } else {
            self.retired_bad += 1;
            self.take_out(block);
        }
    }

    /// Marks `block` retired and removes it from the free list and its
    /// active slot.
    fn take_out(&mut self, block: u32) {
        self.blocks[block as usize].retired = true;
        if let Some(pos) = self.free.iter().position(|&f| f == block) {
            self.remove_free(pos);
        }
        self.leave_active(block);
    }

    /// Retires the live block with device-global index `gbi` in place
    /// (bad-block exclusion at mount). The block keeps its local slot.
    /// Returns `false` if no live block has that index.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid data.
    pub(crate) fn retire_gbi(&mut self, gbi: u32) -> bool {
        let Some(local) = self.blocks.iter().position(|b| b.gbi == gbi && !b.retired) else {
            return false;
        };
        assert_eq!(
            self.blocks[local].valid_count, 0,
            "cannot retire a block that still holds valid data"
        );
        self.retired_bad += 1;
        self.take_out(local as u32);
        true
    }

    /// Free-list position and effective P/E of the least-worn free block
    /// (first minimum).
    pub(crate) fn least_worn_free(&self, ssd: &Ssd) -> Option<(usize, u32)> {
        (0..self.free.len())
            .map(|p| (p, self.block_pe(self.free[p], ssd)))
            .min_by_key(|&(_, pe)| pe)
    }

    /// Free-list position of the most-worn free block (last maximum).
    pub(crate) fn most_worn_free(&self, ssd: &Ssd) -> Option<usize> {
        (0..self.free.len()).max_by_key(|&p| self.block_pe(self.free[p], ssd))
    }

    /// Device-global index of the free block at free-list position `pos`.
    pub(crate) fn free_gbi(&self, pos: usize) -> u32 {
        self.gbi(self.free[pos])
    }

    /// Hands the free block at free-list position `pos` to another region:
    /// it leaves the free list and is never used here again. Returns its
    /// device-global index.
    pub(crate) fn donate(&mut self, pos: usize) -> u32 {
        let local = self.remove_free(pos);
        self.blocks[local as usize].retired = true;
        self.blocks[local as usize].gbi
    }

    /// Adds an erased block received from another region to the free list.
    pub(crate) fn adopt(&mut self, gbi: u32) {
        let units = self.units_per_block();
        self.blocks
            .push(Block::new(gbi, self.blocks_per_chip, units));
        self.push_free((self.blocks.len() - 1) as u32);
    }

    /// Rebuilds allocation state after a post-crash scan: `programmed[b]`
    /// is the number of programmed pages of local block `b`. Validity is
    /// cleared (the owner re-marks its recovered mappings), the free list
    /// is recomputed, one partially programmed block per chip resumes as
    /// that chip's active block, and any extra partial block is closed
    /// (its unwritten tail is wasted until GC reclaims the block).
    /// Recovered blocks carry close stamp 0: maximally old to the
    /// age-aware policies, the safe direction after a crash.
    ///
    /// # Panics
    ///
    /// Panics if `programmed` does not cover the pool or exceeds a block.
    pub(crate) fn restore(&mut self, programmed: &[u32]) {
        assert_eq!(programmed.len(), self.blocks.len(), "scan shape mismatch");
        for (b, &p) in self.blocks.iter_mut().zip(programmed) {
            assert!(p <= self.pages_per_block);
            b.programmed = p;
            b.clear_valid();
            b.closed_seq = 0;
        }
        self.free = (0..self.blocks.len() as u32)
            .filter(|&i| {
                let b = &self.blocks[i as usize];
                !b.retired && b.programmed == 0
            })
            .collect();
        self.actives.fill(None);
        for i in 0..self.blocks.len() {
            let b = &self.blocks[i];
            if b.retired || b.programmed == 0 || b.programmed >= self.pages_per_block {
                continue;
            }
            let chip = b.chip as usize;
            if self.actives[chip].is_none() {
                self.actives[chip] = Some(i as u32);
            } else {
                self.blocks[i].programmed = self.pages_per_block;
            }
        }
        self.recount_free();
    }

    /// Order-independent digest of the allocation state (free list, open
    /// blocks, each live block's fill and valid count), used by the crash
    /// harness to prove recovery idempotent. Keyed by device-global block
    /// index, not local position: two mounts of the same image may deal
    /// regions in a different order, and retired blocks drop out of a
    /// remount entirely. Simulated times are excluded: two mounts happen
    /// at different clocks but must land in the same state.
    pub(crate) fn fingerprint(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.free.iter().map(|&b| u64::from(self.gbi(b))).collect();
        out.sort_unstable();
        out.push(u64::MAX);
        for a in &self.actives {
            out.push(a.map_or(u64::MAX - 1, |b| u64::from(self.gbi(b))));
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

    /// Asserts the pool's structural invariants: every non-retired block
    /// is exactly one of free (erased, nothing valid), active (in its own
    /// chip's slot) or closed (fully programmed); retired blocks are in
    /// neither list and hold nothing valid; every `valid_count` matches
    /// its validity units; the per-chip free counts and ready bits match
    /// the free list and the active slots.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub(crate) fn check_invariants(&self) {
        let mut in_free = vec![false; self.blocks.len()];
        let mut free_on_chip = vec![0; self.actives.len()];
        for &f in &self.free {
            assert!(!in_free[f as usize], "block {f} listed free twice");
            in_free[f as usize] = true;
            free_on_chip[self.blocks[f as usize].chip as usize] += 1;
        }
        assert_eq!(free_on_chip, self.free_on_chip, "free counts out of sync");
        for (chip, &free) in free_on_chip.iter().enumerate() {
            let ready = free > 0 || self.active_has_room(chip);
            let bit = self.ready[chip / 64] >> (chip % 64) & 1 == 1;
            assert_eq!(bit, ready, "chip {chip}: ready bit out of sync");
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let set: u32 = b.valid.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set, b.valid_count, "block {i}: valid_count out of sync");
            let active = self.actives.contains(&Some(i as u32));
            if b.retired {
                assert!(!in_free[i] && !active, "retired block {i} still in use");
                assert_eq!(b.valid_count, 0, "retired block {i} holds valid data");
            } else if in_free[i] {
                assert!(!active, "block {i} is both free and active");
                assert_eq!(b.programmed, 0, "free block {i} is programmed");
                assert_eq!(b.valid_count, 0, "free block {i} holds valid data");
            } else if active {
                assert!(self.is_active(i as u32), "block {i} active off its chip");
            } else {
                assert!(
                    b.programmed >= self.pages_per_block,
                    "block {i} is neither free, active nor closed"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use esp_nand::{DeviceStats, FaultConfig, Geometry, OpKind};
    use esp_sim::{Rng, SimDuration, SimTime};
    use esp_ssd::Ssd;
    use esp_workload::{generate, SyntheticConfig};

    use super::{erase_or_retire, BlockPool, Refill};
    use crate::stats::FtlStats;
    use crate::test_fixtures::all_ftls;
    use crate::{run_trace_qd, CgmFtl, Ftl, FtlConfig};

    /// Allocation as it was before the ready bitset: walk the chips from
    /// the cursor, building every chip's refill pick in one pass over the
    /// free list on the first chip whose active block is full.
    fn alloc_page_by_walk(pool: &mut BlockPool, ssd: &Ssd, refill: Refill) -> (u32, u32) {
        let chips = pool.actives.len();
        let mut picks: Option<Vec<Option<(u64, usize)>>> = None;
        for i in 0..chips {
            let chip = (pool.rr + i) % chips;
            let usable = pool.actives[chip]
                .is_some_and(|b| pool.blocks[b as usize].programmed < pool.pages_per_block);
            if !usable {
                let picks = picks.get_or_insert_with(|| {
                    let mut p: Vec<Option<(u64, usize)>> = vec![None; chips];
                    for (idx, &b) in pool.free.iter().enumerate() {
                        let c = pool.blocks[b as usize].chip as usize;
                        let key = match refill {
                            Refill::FirstFree if p[c].is_some() => continue,
                            Refill::FirstFree => 0,
                            Refill::LeastWorn => u64::from(pool.block_pe(b, ssd)),
                            Refill::LeastWornLowestIndex => {
                                u64::from(pool.block_pe(b, ssd)) << 32 | u64::from(b)
                            }
                        };
                        if p[c].is_none_or(|(best, _)| key < best) {
                            p[c] = Some((key, idx));
                        }
                    }
                    p
                });
                match picks[chip] {
                    Some((_, p)) => pool.actives[chip] = Some(pool.remove_free(p)),
                    None => continue,
                }
            }
            let block = pool.actives[chip].expect("just ensured");
            let page = pool.blocks[block as usize].programmed;
            pool.blocks[block as usize].programmed += 1;
            pool.note_closed(block);
            pool.refresh_ready(chip);
            pool.rr = chip + 1;
            return (block, page);
        }
        panic!("no free block on any chip: pool overcommitted");
    }

    /// `can_alloc` as it was before the ready bitset.
    fn can_alloc_by_walk(pool: &BlockPool) -> bool {
        !pool.free.is_empty()
            || pool
                .actives
                .iter()
                .flatten()
                .any(|&b| pool.blocks[b as usize].programmed < pool.pages_per_block)
    }

    #[test]
    fn ready_chips_allocate_exactly_as_the_chip_walk() {
        // Six chips, and 70 chips so the ready bitset spans two words.
        for (channels, ways, blocks_per_chip) in [(2, 3, 6), (7, 10, 3)] {
            let g = Geometry {
                channels,
                chips_per_channel: ways,
                blocks_per_chip,
                pages_per_block: 4,
                ..Geometry::tiny()
            };
            let chips = g.chip_count() as usize;
            for seed in 0..6 {
                let mut ssd = Ssd::new(g.clone());
                ssd.device_mut().set_faults(FaultConfig {
                    seed,
                    erase_fail_prob: 0.03,
                    ..FaultConfig::default()
                });
                // Each chip's last block stays out of the pool, to adopt.
                let (gbis, mut outside): (Vec<u32>, Vec<u32>) =
                    (0..g.block_count()).partition(|b| b % blocks_per_chip != blocks_per_chip - 1);
                let mut pool = BlockPool::new(&gbis, g.pages_per_block, 1, blocks_per_chip, chips);
                let mut walk = pool.clone();
                let mut stats = FtlStats::default();
                let mut rng = Rng::seed_from(seed);
                let refills = [
                    Refill::LeastWorn,
                    Refill::FirstFree,
                    Refill::LeastWornLowestIndex,
                ];
                let mut allocated = 0;
                for step in 0..3_000 {
                    let blocks = pool.blocks.len() as u64;
                    let block = rng.next_below(blocks) as u32;
                    match rng.next_below(100) {
                        0..=59 => {
                            let refill = refills[rng.next_below(3) as usize];
                            let can = can_alloc_by_walk(&walk);
                            assert_eq!(pool.can_alloc(), can, "seed {seed} step {step}");
                            if can {
                                let got = pool.alloc_page(&ssd, refill);
                                let want = alloc_page_by_walk(&mut walk, &ssd, refill);
                                assert_eq!(got, want, "seed {seed} step {step}");
                                allocated += 1;
                            }
                        }
                        60..=79 => {
                            let victims: Vec<u32> = pool.collectable().map(|(b, _)| b).collect();
                            if !victims.is_empty() {
                                let b = victims[rng.next_below(victims.len() as u64) as usize];
                                let gbi = pool.gbi(b);
                                let erased =
                                    erase_or_retire(&mut ssd, gbi, &mut stats, SimTime::ZERO)
                                        .is_ok();
                                pool.after_erase(b, erased);
                                walk.after_erase(b, erased);
                            }
                        }
                        80..=85 => {
                            let b = &pool.blocks[block as usize];
                            if !b.retired && b.programmed > 0 {
                                pool.close(block);
                                walk.close(block);
                            }
                        }
                        86..=88 => {
                            let gbi = pool.gbi(block);
                            assert_eq!(pool.retire_gbi(gbi), walk.retire_gbi(gbi));
                        }
                        89..=92 => {
                            if !pool.free.is_empty() {
                                let pos = rng.next_below(pool.free.len() as u64) as usize;
                                let gbi = pool.donate(pos);
                                assert_eq!(walk.donate(pos), gbi);
                                outside.push(gbi);
                            }
                        }
                        93..=96 => {
                            if let Some(gbi) = outside.pop() {
                                pool.adopt(gbi);
                                walk.adopt(gbi);
                            }
                        }
                        _ => {
                            let programmed: Vec<u32> = (0..blocks)
                                .map(|_| match rng.next_below(3) {
                                    0 => 0,
                                    1 => g.pages_per_block,
                                    _ => rng.next_below(u64::from(g.pages_per_block)) as u32,
                                })
                                .collect();
                            pool.restore(&programmed);
                            walk.restore(&programmed);
                        }
                    }
                    assert_eq!(pool.free, walk.free, "seed {seed} step {step}");
                    assert_eq!(pool.actives, walk.actives, "seed {seed} step {step}");
                    pool.check_invariants();
                }
                assert!(allocated > 500, "seed {seed}: only {allocated} allocations");
            }
        }
    }

    fn background_config() -> FtlConfig {
        FtlConfig {
            background_gc: true,
            ..FtlConfig::tiny()
        }
    }

    fn erase(ftl: &dyn Ftl) -> SimDuration {
        ftl.ssd().device().op_cost(OpKind::Erase).total()
    }

    /// The FTL's and the device's counters.
    fn counters(ftl: &dyn Ftl) -> (String, DeviceStats) {
        (format!("{:?}", ftl.stats()), *ftl.ssd().device().stats())
    }

    #[test]
    fn validity_bits_of_a_page_that_straddles_two_words() {
        // Three units per page: page 21 holds units 63, 64 and 65, the
        // last bit of word 0 and the first two of word 1.
        let mut pool = BlockPool::new(&[0, 1], 32, 3, 2, 1);
        pool.mark_valid(1, 64);
        assert!(pool.is_valid(1, 64) && !pool.is_valid(1, 63) && !pool.is_valid(0, 64));
        assert!(pool.page_has_valid(1, 21));
        assert!(!pool.page_has_valid(1, 20) && !pool.page_has_valid(1, 22));
        pool.mark_valid(1, 63);
        pool.invalidate(1, 64);
        pool.invalidate(1, 64);
        assert!(pool.page_has_valid(1, 21));
        assert_eq!(pool.valid_count(1), 1);
        pool.invalidate(1, 63);
        assert!(!pool.page_has_valid(1, 21));
        assert_eq!(pool.valid_count(1), 0);
        pool.mark_valid(0, 95);
        assert!(pool.page_has_valid(0, 31) && !pool.page_has_valid(0, 30));
    }

    #[test]
    fn window_one_ns_short_of_an_erase_changes_nothing() {
        let cfg = background_config();
        // Back-to-back arrivals: the replay grants no idle window, so the
        // pools end where foreground GC left them, under the idle target.
        let trace = generate(&SyntheticConfig {
            footprint_sectors: cfg.logical_sectors() / 2,
            requests: 2_000,
            r_small: 0.5,
            ..SyntheticConfig::default()
        });
        for (name, mut ftl) in all_ftls(&cfg) {
            run_trace_qd(ftl.as_mut(), &trace, 4);
            let from = SimTime::from_secs(1_000);
            let before = counters(ftl.as_ref());
            let short = erase(ftl.as_ref()) - SimDuration::from_nanos(1);
            ftl.idle(from, from + short);
            assert_eq!(counters(ftl.as_ref()), before, "{name}");
            // A long window does collect: the pool was under its target.
            ftl.idle(from, from + SimDuration::from_secs(1));
            assert_ne!(counters(ftl.as_ref()), before, "{name}: nothing to collect");
        }
    }

    #[test]
    fn window_of_exactly_one_erase_collects_an_empty_block() {
        let mut ftl = CgmFtl::new(&background_config());
        // Rewriting one page leaves every closed block but the newest
        // fully invalid, and foreground GC holds the pool at its watermark,
        // under the idle target.
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now = ftl.write(0, 4, true, now);
        }
        let from = now + SimDuration::from_secs(1);
        let before = ftl.stats().gc_invocations;
        ftl.idle(from, from + erase(&ftl));
        assert_eq!(ftl.stats().gc_invocations, before + 1);
    }
}
