//! DFTL-style demand-cached mapping for the page-mapped FTLs.
//!
//! The baseline FTLs keep their entire L2P map resident in host DRAM —
//! 4 B per mapped unit, which is linear in device capacity and caps
//! simulated geometries well below production scale. Following DFTL
//! (Gupta et al., ASPLOS 2009), this module models the standard escape:
//!
//! * the full map lives in flash as **translation pages** (TPs), each
//!   packing [`ENTRIES_PER_TP`] 4-byte entries;
//! * a bounded **cached mapping table** (CMT) holds the most recently
//!   used TPs in DRAM under LRU;
//! * a tiny **global translation directory** (GTD) — 8 B per TP —
//!   locates every TP in flash and is the only structure whose size
//!   still scales with capacity.
//!
//! A host access whose TP is not cached charges one TP flash read; an
//! eviction of a dirtied TP charges one TP program; TPs live in their
//! own small flash area with greedy garbage collection whose relocation
//! and erase traffic is charged too. All charges are serialized into the
//! host path: [`MapCache::access`] returns the adjusted issue time for
//! the host operation, so mapping pressure is visible in latency and
//! throughput exactly where DFTL pays it.
//!
//! **Durability.** The simulator's in-memory L2P array remains the
//! authoritative state for data placement, and mount-time recovery
//! rebuilds it from the per-page OOB spare areas (the same full-device
//! scan every FTL already charges). The TP area is therefore a *timing
//! and footprint* model: a crash mid-TP-program can never lose a
//! committed mapping, because recovery never reads TPs — it re-derives
//! them. The GTD is rebuilt cold at mount and the CMT starts empty
//! (misses after mount charge their TP reads as warm-up traffic).
//!
//! The cache is only consulted for host-issued reads and writes. GC
//! relocations update mappings without a cache charge — production DFTL
//! batches those updates into the victim's TPs; modeling that would only
//! shift cost between GC and host paths, and is called out in DESIGN.md
//! §15 as a known simplification.

use std::collections::HashMap;

use esp_sim::{SimDuration, SimTime};

/// Mapping entries per translation page: 16 KB page / 4 B entry.
pub const ENTRIES_PER_TP: u64 = 4096;

/// Configuration for the demand-cached mapping tier
/// (`FtlConfig::map_cache`, espsim `--map-cache <pages>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapCacheConfig {
    /// CMT capacity in cached translation pages (each caches 4,096
    /// mapping entries ≈ 16 KB of map). Must be ≥ 2.
    pub cmt_pages: usize,
}

impl Default for MapCacheConfig {
    fn default() -> Self {
        // 64 TPs ≈ 1 MiB of cached map — covers 4 GiB of mapped space.
        MapCacheConfig { cmt_pages: 64 }
    }
}

/// Counters for the cached-mapping tier, surfaced as `map_cache.*`
/// extras in BENCH reports and in the espsim run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapCacheStats {
    /// Host accesses whose translation page was cached.
    pub hits: u64,
    /// Host accesses that had to fault their translation page in.
    pub misses: u64,
    /// CMT evictions (clean or dirty).
    pub evictions: u64,
    /// Evictions that had to program the TP back to flash first.
    pub dirty_evictions: u64,
    /// Translation-page flash reads charged (miss fills + GC relocation).
    pub tp_reads: u64,
    /// Translation-page flash programs charged (dirty evictions + GC
    /// relocation).
    pub tp_programs: u64,
    /// Erases of translation-area blocks.
    pub tp_erases: u64,
    /// Garbage collections run inside the translation area.
    pub tp_gc_collections: u64,
    /// Total simulated time charged to the host path, in nanoseconds.
    pub charged_ns: u64,
}

impl MapCacheStats {
    /// Fraction of accesses served from the CMT (1.0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    tvpn: u32,
    dirty: bool,
    last_use: u64,
}

/// The demand-cached mapping tier: CMT + GTD + a modeled
/// translation-page flash area with its own greedy GC.
#[derive(Debug, Clone)]
pub struct MapCache {
    cmt_pages: usize,
    slots: Vec<Slot>,
    index: HashMap<u32, usize>,
    tick: u64,
    /// GTD: translation virtual page → flash page in the TP area.
    tp_loc: Vec<Option<u32>>,
    /// TP-area flash page → owning TP (None = free or stale).
    page_owner: Vec<Option<u32>>,
    free_blocks: Vec<u32>,
    active_block: u32,
    next_page: u32,
    pages_per_block: u32,
    read_cost: SimDuration,
    program_cost: SimDuration,
    erase_cost: SimDuration,
    stats: MapCacheStats,
}

impl MapCache {
    /// Builds a cache covering `total_entries` mapping entries.
    ///
    /// `pages_per_block` shapes the modeled TP flash area (sized at 2×
    /// the live TP count plus two blocks, so TP-GC always has a victim
    /// with reclaimable space). The three costs are the device's
    /// full-page read/program/erase totals, captured once at build.
    #[must_use]
    pub fn new(
        config: &MapCacheConfig,
        total_entries: u64,
        pages_per_block: u32,
        read_cost: SimDuration,
        program_cost: SimDuration,
        erase_cost: SimDuration,
    ) -> Self {
        let total_tps = total_entries.div_ceil(ENTRIES_PER_TP).max(1) as u32;
        let ppb = pages_per_block.max(2);
        let blocks = (2 * total_tps).div_ceil(ppb) + 2;
        // Pop order: block 1, 2, ... (block 0 starts active).
        let free_blocks: Vec<u32> = (1..blocks).rev().collect();
        MapCache {
            cmt_pages: config.cmt_pages.max(2),
            slots: Vec::new(),
            index: HashMap::new(),
            tick: 0,
            tp_loc: vec![None; total_tps as usize],
            page_owner: vec![None; (blocks * ppb) as usize],
            free_blocks,
            active_block: 0,
            next_page: 0,
            pages_per_block: ppb,
            read_cost,
            program_cost,
            erase_cost,
            stats: MapCacheStats::default(),
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> MapCacheStats {
        self.stats
    }

    /// Host DRAM actually resident for mapping with the cache enabled:
    /// the CMT (entries) plus the GTD (8 B per TP). Compare with the
    /// full map's `4 × total_entries`.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let cmt = self.cmt_pages as u64 * ENTRIES_PER_TP * 4;
        let gtd = self.tp_loc.len() as u64 * 8;
        cmt + gtd
    }

    /// Charges the mapping-tier cost of one host access to mapping
    /// `entry` (`write` dirties the TP) and returns the adjusted issue
    /// time for the host operation: `now` plus any TP read / dirty-evict
    /// program / TP-GC traffic this access triggered.
    pub fn access(&mut self, entry: u64, write: bool, now: SimTime) -> SimTime {
        let tvpn = (entry / ENTRIES_PER_TP) as u32;
        debug_assert!((tvpn as usize) < self.tp_loc.len());
        self.tick += 1;
        let tick = self.tick;
        let mut charge = SimDuration::ZERO;
        if let Some(&slot) = self.index.get(&tvpn) {
            self.stats.hits += 1;
            let s = &mut self.slots[slot];
            s.last_use = tick;
            s.dirty |= write;
        } else {
            self.stats.misses += 1;
            let slot = if self.slots.len() < self.cmt_pages {
                self.slots.push(Slot {
                    tvpn,
                    dirty: false,
                    last_use: 0,
                });
                self.slots.len() - 1
            } else {
                // Evict the LRU slot (lowest last_use; slot order breaks
                // ties deterministically).
                let victim = (0..self.slots.len())
                    .min_by_key(|&i| (self.slots[i].last_use, i))
                    .expect("cmt_pages >= 2");
                let evicted = self.slots[victim];
                self.index.remove(&evicted.tvpn);
                self.stats.evictions += 1;
                if evicted.dirty {
                    self.stats.dirty_evictions += 1;
                    self.program_tp(evicted.tvpn, &mut charge);
                }
                victim
            };
            // Fault the TP in: a flash read if it has ever been written;
            // first-touch TPs are born in cache for free.
            if self.tp_loc[tvpn as usize].is_some() {
                self.stats.tp_reads += 1;
                charge += self.read_cost;
            }
            self.slots[slot] = Slot {
                tvpn,
                dirty: write,
                last_use: tick,
            };
            self.index.insert(tvpn, slot);
        }
        self.stats.charged_ns += charge.as_nanos();
        now + charge
    }

    fn alloc_tp_page(&mut self, charge: &mut SimDuration) -> u32 {
        if self.next_page == self.pages_per_block {
            self.active_block = self
                .free_blocks
                .pop()
                .expect("TP area sizing keeps a free block available");
            self.next_page = 0;
            while self.free_blocks.is_empty() {
                self.collect_tp_block(charge);
            }
        }
        let page = self.active_block * self.pages_per_block + self.next_page;
        self.next_page += 1;
        page
    }

    fn program_tp(&mut self, tvpn: u32, charge: &mut SimDuration) {
        let page = self.alloc_tp_page(charge);
        if let Some(old) = self.tp_loc[tvpn as usize] {
            self.page_owner[old as usize] = None;
        }
        self.page_owner[page as usize] = Some(tvpn);
        self.tp_loc[tvpn as usize] = Some(page);
        self.stats.tp_programs += 1;
        *charge += self.program_cost;
    }

    fn collect_tp_block(&mut self, charge: &mut SimDuration) {
        let ppb = self.pages_per_block;
        let blocks = (self.page_owner.len() as u32) / ppb;
        // Greedy: fewest valid TPs wins, ties to the lowest block; skip
        // the active block and anything already free. The 2× + 2-block
        // sizing guarantees some closed block is below fully valid.
        let mut victim: Option<(u32, u32)> = None;
        for b in 0..blocks {
            if b == self.active_block || self.free_blocks.contains(&b) {
                continue;
            }
            let valid = (b * ppb..(b + 1) * ppb)
                .filter(|&p| self.page_owner[p as usize].is_some())
                .count() as u32;
            if valid < ppb && victim.is_none_or(|(v, _)| valid < v) {
                victim = Some((valid, b));
            }
        }
        let (_, block) = victim.expect("TP area always has a reclaimable block");
        for p in block * ppb..(block + 1) * ppb {
            if let Some(tvpn) = self.page_owner[p as usize] {
                self.stats.tp_reads += 1;
                *charge += self.read_cost;
                self.page_owner[p as usize] = None;
                // Relocation re-programs the TP at the active cursor.
                let page = self.alloc_tp_page(charge);
                self.page_owner[page as usize] = Some(tvpn);
                self.tp_loc[tvpn as usize] = Some(page);
                self.stats.tp_programs += 1;
                *charge += self.program_cost;
            }
        }
        self.stats.tp_erases += 1;
        self.stats.tp_gc_collections += 1;
        *charge += self.erase_cost;
        self.free_blocks.push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cmt_pages: usize, total_entries: u64) -> MapCache {
        MapCache::new(
            &MapCacheConfig { cmt_pages },
            total_entries,
            8,
            SimDuration::from_micros(100),
            SimDuration::from_micros(1600),
            SimDuration::from_micros(5000),
        )
    }

    #[test]
    fn repeated_access_to_one_tp_hits_after_first_touch() {
        let mut c = cache(4, 4 * ENTRIES_PER_TP);
        let t0 = SimTime::ZERO;
        // First touch: miss, but no flash read (TP never written).
        assert_eq!(c.access(0, false, t0), t0);
        for i in 1..100 {
            assert_eq!(c.access(i % ENTRIES_PER_TP, true, t0), t0);
        }
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 99);
        assert_eq!(s.tp_reads, 0);
        assert!(s.hit_rate() > 0.98);
    }

    #[test]
    fn dirty_eviction_charges_a_program_and_refill_charges_a_read() {
        let mut c = cache(2, 8 * ENTRIES_PER_TP);
        let t0 = SimTime::ZERO;
        // Dirty TPs 0 and 1 (first-touch, free), then touch TP 2: TP 0
        // is evicted dirty → one program charged.
        c.access(0, true, t0);
        c.access(ENTRIES_PER_TP, true, t0);
        let t = c.access(2 * ENTRIES_PER_TP, false, t0);
        assert_eq!(t, t0 + SimDuration::from_micros(1600));
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().tp_programs, 1);
        // Touching TP 0 again faults it back in: TP 1 evicted (dirty,
        // program) + TP 0 read.
        let t = c.access(0, false, t0);
        assert_eq!(
            t,
            t0 + SimDuration::from_micros(1600) + SimDuration::from_micros(100)
        );
        assert_eq!(c.stats().tp_reads, 1);
    }

    #[test]
    fn clean_eviction_is_free() {
        let mut c = cache(2, 8 * ENTRIES_PER_TP);
        let t0 = SimTime::ZERO;
        c.access(0, false, t0);
        c.access(ENTRIES_PER_TP, false, t0);
        let t = c.access(2 * ENTRIES_PER_TP, false, t0);
        assert_eq!(t, t0);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 0);
    }

    #[test]
    fn tp_area_gc_reclaims_and_never_wedges() {
        // 2 TPs, ppb 8 → tiny area; thrash dirty evictions until many
        // TP programs force TP-GC erases.
        let mut c = cache(2, 3 * ENTRIES_PER_TP);
        let t0 = SimTime::ZERO;
        for round in 0..500u64 {
            let tp = round % 3;
            c.access(tp * ENTRIES_PER_TP, true, t0);
        }
        let s = c.stats();
        assert!(s.tp_erases > 0, "TP area must have cycled: {s:?}");
        assert!(s.tp_gc_collections > 0);
        // Every live TP is still locatable.
        assert!(c.tp_loc.iter().filter(|l| l.is_some()).count() <= 3);
    }

    #[test]
    fn resident_bytes_is_bounded_by_cmt_plus_gtd() {
        let entries = 1 << 30; // a 4 TiB-of-sectors map
        let c = cache(64, entries);
        let full_map = entries * 4;
        assert!(c.resident_bytes() < full_map / 100);
        assert_eq!(
            c.resident_bytes(),
            64 * ENTRIES_PER_TP * 4 + entries.div_ceil(ENTRIES_PER_TP) * 8
        );
    }

    #[test]
    fn charges_accumulate_in_stats() {
        let mut c = cache(2, 8 * ENTRIES_PER_TP);
        let t0 = SimTime::from_micros(50);
        c.access(0, true, t0);
        c.access(ENTRIES_PER_TP, true, t0);
        let t = c.access(2 * ENTRIES_PER_TP, true, t0);
        assert_eq!(
            (t - t0).as_nanos(),
            c.stats().charged_ns,
            "all charge flows through charged_ns"
        );
    }
}
