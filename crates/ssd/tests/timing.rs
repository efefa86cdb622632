//! Randomized tests of the SSD timing model, driven by the deterministic
//! `esp_sim::Rng` (every case reproducible from its seed).

use esp_nand::{Geometry, Oob, OpKind};
use esp_sim::{Rng, SimDuration, SimTime};
use esp_ssd::Ssd;

fn oob(lsn: u64) -> Oob {
    Oob { lsn, seq: lsn }
}

#[derive(Debug, Clone, Copy)]
enum TimedOp {
    ProgramSub { block: u32, page: u32, slot: u8 },
    Read { block: u32, page: u32, slot: u8 },
    Erase { block: u32 },
}

fn random_op(rng: &mut Rng, blocks: u32, pages: u32) -> TimedOp {
    // Weighted 3:2:1 program/read/erase, like the original distribution.
    match rng.next_below(6) {
        0..=2 => TimedOp::ProgramSub {
            block: rng.next_below(u64::from(blocks)) as u32,
            page: rng.next_below(u64::from(pages)) as u32,
            slot: rng.next_below(4) as u8,
        },
        3 | 4 => TimedOp::Read {
            block: rng.next_below(u64::from(blocks)) as u32,
            page: rng.next_below(u64::from(pages)) as u32,
            slot: rng.next_below(4) as u8,
        },
        _ => TimedOp::Erase {
            block: rng.next_below(u64::from(blocks)) as u32,
        },
    }
}

/// Makespan is monotone, bounded below by the busiest chip and bounded
/// above by fully serial execution.
#[test]
fn makespan_bounds() {
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from(0x55D ^ seed);
        let n = rng.next_in(1, 79) as usize;
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        let mut serial = SimDuration::ZERO;
        let mut prev_makespan = SimTime::ZERO;
        let mut lsn = 0u64;
        for _ in 0..n {
            match random_op(&mut rng, 16, 4) {
                TimedOp::ProgramSub { block, page, slot } => {
                    let addr = g.block_addr(block).page(page).subpage(slot);
                    lsn += 1;
                    if ssd.program_subpage(addr, oob(lsn), SimTime::ZERO).is_ok() {
                        serial += ssd.device().op_cost(OpKind::ProgramSubpage).total();
                    }
                }
                TimedOp::Read { block, page, slot } => {
                    let addr = g.block_addr(block).page(page).subpage(slot);
                    let _ = ssd.read_subpage(addr, SimTime::ZERO);
                    serial += ssd.device().op_cost(OpKind::ReadSubpage).total();
                }
                TimedOp::Erase { block } => {
                    if ssd.erase(g.block_addr(block), SimTime::ZERO).is_ok() {
                        serial += ssd.device().op_cost(OpKind::Erase).total();
                    }
                }
            }
            assert!(
                ssd.makespan() >= prev_makespan,
                "seed {seed}: makespan regressed"
            );
            prev_makespan = ssd.makespan();
        }
        // Upper bound: fully serial execution.
        assert!(ssd.makespan() - SimTime::ZERO <= serial, "seed {seed}");
        // Chips are never over 100% utilized.
        for (i, u) in ssd.chip_utilization().iter().enumerate() {
            assert!(*u <= 1.0 + 1e-9, "seed {seed}: chip {i} over 100% utilized");
        }
    }
}

/// Operations on distinct chips at the same issue time complete in
/// parallel: the makespan equals the slowest single op, not the sum.
#[test]
fn distinct_chips_run_parallel() {
    let g = Geometry {
        channels: 4,
        chips_per_channel: 1,
        blocks_per_chip: 2,
        pages_per_block: 4,
        subpages_per_page: 4,
        subpage_bytes: 4096,
    };
    let mut ssd = Ssd::new(g.clone());
    for chip in 0..4u32 {
        let gbi = chip * g.blocks_per_chip;
        let addr = g.block_addr(gbi).page(0).subpage(0);
        ssd.program_subpage(addr, oob(u64::from(chip)), SimTime::ZERO)
            .unwrap();
    }
    let single = ssd.device().op_cost(OpKind::ProgramSubpage).total();
    assert_eq!(ssd.makespan() - SimTime::ZERO, single);
}

/// The command counter counts exactly the operations that executed;
/// rejected ones never reach the array.
#[test]
fn command_count_tracks_executed_ops() {
    for programs in 1u32..10 {
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        let mut executed = 0;
        for i in 0..programs {
            let addr = g.block_addr(i % 8).page(0).subpage(0);
            if ssd
                .program_subpage(addr, oob(u64::from(i)), SimTime::ZERO)
                .is_ok()
            {
                executed += 1;
            }
        }
        assert_eq!(ssd.commands_issued(), executed);
        assert!(executed >= 1);
        // A full-page program of a written page is illegal: rejected at
        // issue, it never counts.
        let dirty = g.block_addr(0).page(0);
        assert!(ssd.program_full(dirty, &[None; 4], SimTime::ZERO).is_err());
        assert_eq!(ssd.commands_issued(), executed);
    }
}

#[test]
fn fast_subpage_read_shortens_read_latency() {
    let g = Geometry::tiny();
    let timing = esp_nand::NandTiming::paper_default().with_fast_subpage_read();
    let mut fast = Ssd::with_models(g.clone(), timing, esp_nand::RetentionModel::paper_default());
    let mut slow = Ssd::new(g.clone());
    for ssd in [&mut fast, &mut slow] {
        let addr = g.block_addr(0).page(0).subpage(0);
        ssd.program_subpage(addr, oob(1), SimTime::ZERO).unwrap();
    }
    let t0 = SimTime::from_secs(1);
    let (_, fast_done) = fast.read_subpage(g.block_addr(0).page(0).subpage(0), t0);
    let (_, slow_done) = slow.read_subpage(g.block_addr(0).page(0).subpage(0), t0);
    assert!(fast_done < slow_done, "fast subpage sense must be faster");
}
