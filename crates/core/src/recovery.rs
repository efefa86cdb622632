//! Power-loss recovery: rebuilding FTL mapping state from flash contents.
//!
//! Real FTLs survive sudden power loss because everything needed to rebuild
//! the logical-to-physical map lives in the NAND itself: each subpage's
//! spare (OOB) area stores the logical sector number and a monotonically
//! increasing write sequence number ([`esp_nand::Oob`]), and the program
//! history of every page is visible in the cell array. This module provides
//! the mount-time *scan* shared by all four FTLs' `recover` constructors:
//! read every programmed page once (charged against the simulated clock —
//! mount time is real time), classify each block, and report every readable
//! data slot.
//!
//! Recovery semantics:
//!
//! * DRAM contents are gone: buffered (asynchronous) writes that were never
//!   flushed are lost, exactly as on real hardware. Synchronous writes were
//!   durable by definition.
//! * The newest readable copy of each sector wins (highest sequence
//!   number); on a tie between a subpage-region copy and a full-page-region
//!   copy the full-page copy wins, matching eviction/RMW semantics (those
//!   copies carry the sequence number of the data they moved).
//! * Block *roles* (subpage vs full-page region) are not stored anywhere —
//!   the paper decides a block's type "at the program time, not at the
//!   design time" (§4.2) — so the scan infers them from the program
//!   pattern: any page programmed more than once, or programmed with fewer
//!   than `N_sub` written slots, is an ESP page and marks its block as
//!   subpage-region.

use esp_nand::SubpageState;
use esp_sim::SimTime;
use esp_ssd::Ssd;

/// Role of a block as inferred from its program pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScannedKind {
    /// Fully erased; can join either region's free pool.
    Erased,
    /// Written with whole-page programs only (full-page region).
    FullPage,
    /// Written with erase-free subpage programs (subpage region).
    Subpage,
}

/// One readable data slot found by the scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotScan {
    pub slot: u8,
    pub lsn: u64,
    pub seq: u64,
    /// When the physical copy was programmed (spare-area timestamp).
    pub written_at: SimTime,
}

/// Scan result for one physical page.
#[derive(Debug, Clone)]
pub(crate) struct PageScan {
    /// Program operations since the last erase.
    pub programs: u8,
    /// Readable data slots (padding, destroyed and aged-out slots excluded).
    pub live: Vec<SlotScan>,
}

/// Scan result for one block (indexed by device-global block order).
#[derive(Debug, Clone)]
pub(crate) struct BlockScan {
    pub kind: ScannedKind,
    pub pages: Vec<PageScan>,
}

impl BlockScan {
    /// Number of pages programmed at least once (blocks are written in page
    /// order, so this is the write pointer for full-page blocks).
    pub(crate) fn programmed_pages(&self) -> u32 {
        self.pages.iter().filter(|p| p.programs > 0).count() as u32
    }

    /// Reconstructs the lap state of a subpage-region block: the current
    /// lap `level` (programs of the last page) and the page `cursor`
    /// within it (pages written one extra time).
    pub(crate) fn lap_state(&self, n_sub: u32) -> (u8, u32) {
        let level = self.pages.last().map_or(0, |p| p.programs);
        let cursor = self
            .pages
            .iter()
            .filter(|p| u32::from(p.programs) == u32::from(level) + 1)
            .count() as u32;
        debug_assert!(u32::from(level) <= n_sub);
        (level, cursor)
    }
}

/// Full result of the mount-time scan: per-block classification plus the
/// torn-state accounting the crash model introduces.
#[derive(Debug, Clone)]
pub(crate) struct DeviceScan {
    /// Per-block scan results (indexed by device-global block order).
    pub blocks: Vec<BlockScan>,
    /// Pages found holding at least one torn (power-cut) slot. They were
    /// still read — an uncorrectable page costs the same sense + transfer
    /// as a good one — then quarantined: excluded from the live set, left
    /// for GC (torn program) or re-erased on the spot (torn erase).
    pub torn_pages: u64,
}

fn blank_pages(g: &esp_nand::Geometry) -> Vec<PageScan> {
    (0..g.pages_per_block)
        .map(|_| PageScan {
            programs: 0,
            live: Vec::new(),
        })
        .collect()
}

/// Reads every programmed page of the device once (mount-time scan; the
/// reads occupy channels and chips like any other I/O) and returns the
/// per-block classification and contents.
///
/// Torn state is quarantined rather than resurrected: a torn slot never
/// reads back data, a block whose erase was cut is re-erased here (the
/// scan's one repair action — the block is unusable until then), and both
/// are tallied in [`DeviceScan::torn_pages`].
pub(crate) fn scan_device(ssd: &mut Ssd) -> DeviceScan {
    let g = ssd.geometry().clone();
    let issue = ssd.makespan();
    let mut out = Vec::with_capacity(g.block_count() as usize);
    let mut torn_pages = 0u64;
    for gbi in 0..g.block_count() {
        let baddr = g.block_addr(gbi);
        if ssd.device().is_bad(baddr) {
            // Factory-marked or grown bad block: never read, holds no
            // recoverable data. Reported as erased; the callers' own
            // bad-block pass keeps it out of every region.
            out.push(BlockScan {
                kind: ScannedKind::Erased,
                pages: blank_pages(&g),
            });
            continue;
        }
        let block_torn = ssd.device().is_torn(baddr);
        let mut pages = Vec::with_capacity(g.pages_per_block as usize);
        let mut saw_esp = false;
        let mut saw_full = false;
        for p in 0..g.pages_per_block {
            let paddr = baddr.page(p);
            let programs = ssd.device().program_count(paddr);
            let mut live = Vec::new();
            if programs > 0 {
                // One page read recovers all slots' data + spare areas.
                // Charged even when every slot comes back uncorrectable:
                // the scan cannot know a page is torn without sensing it.
                let (results, _) = ssd.read_full(paddr, issue);
                let mut non_erased = 0u32;
                let mut has_torn = false;
                for (slot, r) in results.iter().enumerate() {
                    let addr = paddr.subpage(slot as u8);
                    let state = ssd.device().subpage_state(addr);
                    if !matches!(state, SubpageState::Erased) {
                        non_erased += 1;
                    }
                    if matches!(state, SubpageState::Torn) {
                        has_torn = true;
                    }
                    if let Ok(oob) = r {
                        let written_at = match state {
                            SubpageState::Written(w) => w.programmed_at,
                            _ => unreachable!("readable slot must be written"),
                        };
                        live.push(SlotScan {
                            slot: slot as u8,
                            lsn: oob.lsn,
                            seq: oob.seq,
                            written_at,
                        });
                    }
                }
                if has_torn {
                    torn_pages += 1;
                }
                if programs >= 2 || non_erased < g.subpages_per_page {
                    saw_esp = true;
                } else {
                    saw_full = true;
                }
            }
            pages.push(PageScan { programs, live });
        }
        if block_torn {
            // The block's erase was cut mid-pulse: every page is
            // uncorrectable garbage and programs are rejected until a
            // completed re-erase. Finish the interrupted erase now; if it
            // status-fails the block becomes a grown bad block, and either
            // way the callers see a clean (empty) block.
            if let Err(f) = ssd.erase(baddr, issue) {
                debug_assert_eq!(f.error, esp_nand::NandError::EraseFailed);
            }
            out.push(BlockScan {
                kind: ScannedKind::Erased,
                pages: blank_pages(&g),
            });
            continue;
        }
        let kind = if saw_esp {
            ScannedKind::Subpage
        } else if saw_full {
            ScannedKind::FullPage
        } else {
            ScannedKind::Erased
        };
        out.push(BlockScan { kind, pages });
    }
    DeviceScan {
        blocks: out,
        torn_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_nand::{Geometry, Oob};

    fn oob(lsn: u64, seq: u64) -> Oob {
        Oob { lsn, seq }
    }

    #[test]
    fn classifies_erased_full_and_subpage_blocks() {
        let mut ssd = Ssd::new(Geometry::tiny());
        let g = ssd.geometry().clone();
        // Block 0: full-page program (with padding — still full-kind).
        let p0 = g.block_addr(0).page(0);
        ssd.program_full(
            p0,
            &[Some(oob(0, 1)), Some(oob(1, 2)), None, None],
            SimTime::ZERO,
        )
        .unwrap();
        // Block 1: one subpage program.
        ssd.program_subpage(g.block_addr(1).page(0).subpage(0), oob(9, 3), SimTime::ZERO)
            .unwrap();
        let scans = scan_device(&mut ssd).blocks;
        assert_eq!(scans[0].kind, ScannedKind::FullPage);
        assert_eq!(scans[1].kind, ScannedKind::Subpage);
        assert_eq!(scans[2].kind, ScannedKind::Erased);
        assert_eq!(scans[0].programmed_pages(), 1);
        // Padding slots are not live; data slots are.
        assert_eq!(scans[0].pages[0].live.len(), 2);
        assert_eq!(scans[1].pages[0].live.len(), 1);
        assert_eq!(scans[1].pages[0].live[0].lsn, 9);
    }

    #[test]
    fn destroyed_slots_are_not_live() {
        let mut ssd = Ssd::new(Geometry::tiny());
        let page = ssd.geometry().block_addr(0).page(0);
        ssd.program_subpage(page.subpage(0), oob(1, 1), SimTime::ZERO)
            .unwrap();
        ssd.program_subpage(page.subpage(1), oob(2, 2), SimTime::ZERO)
            .unwrap();
        let scans = scan_device(&mut ssd).blocks;
        let live = &scans[0].pages[0].live;
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].lsn, 2);
        assert_eq!(scans[0].pages[0].programs, 2);
    }

    #[test]
    fn lap_state_reconstruction() {
        let mut ssd = Ssd::new(Geometry::tiny());
        let g = ssd.geometry().clone();
        let b = g.block_addr(0);
        // Lap 0 over all 4 pages, then lap 1 over the first 2 pages.
        for p in 0..4 {
            ssd.program_subpage(b.page(p).subpage(0), oob(u64::from(p), 1), SimTime::ZERO)
                .unwrap();
        }
        for p in 0..2 {
            ssd.program_subpage(
                b.page(p).subpage(1),
                oob(u64::from(10 + p), 2),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let scans = scan_device(&mut ssd).blocks;
        let (level, cursor) = scans[0].lap_state(4);
        assert_eq!((level, cursor), (1, 2));
    }

    #[test]
    fn torn_pages_are_quarantined_counted_and_charged() {
        let mut ssd = Ssd::new(Geometry::tiny());
        let page = ssd.geometry().block_addr(0).page(0);
        ssd.program_subpage(page.subpage(0), oob(1, 1), SimTime::ZERO)
            .unwrap();
        // Tear the next lap: slot 1 torn, slot 0 destroyed.
        ssd.device_mut()
            .tear_program_subpage(page.subpage(1))
            .unwrap();
        let before = ssd.makespan();
        let scan = scan_device(&mut ssd);
        assert_eq!(scan.torn_pages, 1);
        assert!(
            scan.blocks[0].pages[0].live.is_empty(),
            "nothing resurrected"
        );
        assert_eq!(scan.blocks[0].kind, ScannedKind::Subpage);
        assert!(
            ssd.makespan() > before,
            "uncorrectable page still costs a read"
        );
    }

    #[test]
    fn torn_erase_block_is_reerased_and_reported_clean() {
        let mut ssd = Ssd::new(Geometry::tiny());
        let g = ssd.geometry().clone();
        let blk = g.block_addr(0);
        ssd.program_subpage(blk.page(0).subpage(0), oob(1, 1), SimTime::ZERO)
            .unwrap();
        ssd.device_mut().tear_erase(blk).unwrap();
        let pe_before = ssd.device().pe_cycles(blk);
        let scan = scan_device(&mut ssd);
        // Every page of the block was torn garbage; the scan finishes the
        // interrupted erase and reports the block clean.
        assert_eq!(scan.torn_pages, u64::from(g.pages_per_block));
        assert_eq!(scan.blocks[0].kind, ScannedKind::Erased);
        assert_eq!(scan.blocks[0].programmed_pages(), 0);
        assert!(!ssd.device().is_torn(blk));
        assert_eq!(ssd.device().pe_cycles(blk), pe_before + 1);
        // Idempotent: a second scan sees an ordinary erased block.
        let again = scan_device(&mut ssd);
        assert_eq!(again.torn_pages, 0);
        assert_eq!(again.blocks[0].kind, ScannedKind::Erased);
    }

    #[test]
    fn scan_charges_mount_time() {
        let mut ssd = Ssd::new(Geometry::tiny());
        let page = ssd.geometry().block_addr(0).page(0);
        ssd.program_subpage(page.subpage(0), oob(1, 1), SimTime::ZERO)
            .unwrap();
        let before = ssd.makespan();
        scan_device(&mut ssd);
        assert!(ssd.makespan() > before, "mount scan must cost time");
    }
}
