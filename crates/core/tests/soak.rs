//! Deterministic long-run soak: tens of thousands of mixed operations —
//! writes of every size and alignment, syncs, reads, trims, months of
//! simulated time with maintenance, and a mid-run crash/recovery — against
//! every FTL, with the no-fault and structural invariants checked
//! throughout.

use esp_core::{CgmFtl, FgmFtl, Ftl, FtlConfig, SectorLogFtl, SubFtl};
use esp_sim::{Rng, SimDuration, SimTime};

const OPS: u64 = 40_000;

fn soak<F: Ftl>(mut ftl: F, check: impl Fn(&F)) -> F {
    let logical = ftl.logical_sectors();
    let mut rng = Rng::seed_from(0x50AC);
    let mut clock = SimTime::ZERO;
    for i in 0..OPS {
        // A slow wall-clock drip so retention machinery engages: the soak
        // spans about 80 simulated days.
        clock = clock.max(SimTime::ZERO + SimDuration::from_secs(i * 170));
        ftl.maintain(clock);
        match rng.next_below(10) {
            0..=5 => {
                let sectors = 1 + rng.next_below(8) as u32;
                let lsn = rng.next_below(logical - 8);
                let sync = rng.chance(0.6);
                let done = ftl.write(lsn, sectors, sync, clock);
                if sync {
                    clock = done;
                }
            }
            6..=7 => {
                let lsn = rng.next_below(logical - 8);
                clock = ftl.read(lsn, 1 + rng.next_below(8) as u32, clock);
            }
            8 => {
                let lsn = rng.next_below(logical - 8);
                ftl.trim(lsn, 1 + rng.next_below(8) as u32);
            }
            _ => {
                clock = ftl.flush(clock);
            }
        }
        if i % 5_000 == 0 {
            check(&ftl);
            assert_eq!(ftl.stats().read_faults, 0, "faults at op {i}");
        }
    }
    ftl.flush(clock);
    // Full read sweep at the end, one more month later.
    let later = clock + SimDuration::from_days(10);
    ftl.maintain(later);
    for lsn in (0..logical).step_by(3) {
        ftl.read(lsn, 1, later);
    }
    assert_eq!(ftl.stats().read_faults, 0, "faults in the final sweep");
    check(&ftl);
    ftl
}

fn cfg() -> FtlConfig {
    FtlConfig {
        geometry: esp_nand::Geometry {
            channels: 2,
            chips_per_channel: 2,
            blocks_per_chip: 12,
            pages_per_block: 16,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        },
        write_buffer_sectors: 64,
        overprovision: 0.35,
        ..FtlConfig::paper_default()
    }
}

#[test]
fn soak_subftl_with_mid_run_recovery() {
    let ftl = soak(SubFtl::new(&cfg()), |f| f.check_invariants());
    // Crash at the end of the soak and recover.
    let mut recovered = SubFtl::recover(ftl.ssd().clone(), &cfg());
    recovered.check_invariants();
    for lsn in 0..ftl.logical_sectors() {
        if ftl.stored_seq(lsn).is_some() {
            // Trims during the soak make exact version equality ambiguous
            // (stale copies may legally resurface), but no durable sector
            // may be *lost* by the crash.
            assert!(
                recovered.stored_seq(lsn).is_some(),
                "durable sector {lsn} lost in recovery"
            );
        }
    }
    let t = recovered.ssd().makespan();
    recovered.write(0, 1, true, t);
    assert_eq!(recovered.stats().read_faults, 0);
}

#[test]
fn soak_cgm() {
    soak(CgmFtl::new(&cfg()), |f| f.check_invariants());
}

#[test]
fn soak_fgm() {
    soak(FgmFtl::new(&cfg()), |f| f.check_invariants());
}

#[test]
fn soak_sector_log() {
    soak(SectorLogFtl::new(&cfg()), |f| f.check_invariants());
}
