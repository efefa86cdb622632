//! Read-path reliability properties, checked on all four FTLs with
//! read-disturb modeling, the retry ladder, and read-reclaim enabled:
//!
//! 1. **Recovered reads are the right data**: a read that needed ladder
//!    effort must return the sector that was asked for — relocations
//!    (reclaim, patrol scrub) preserve every sector's identity and
//!    sequence number, so a pure-read workload leaves `stored_seq`
//!    bit-identical however much data the pipeline moved. (Wrong-LSN
//!    returns additionally trip `note_read_result`'s debug assertion.)
//! 2. **Zero loss within spec**: a seeded soak combining read-disturb,
//!    retention aging, and program/erase fault injection finishes with
//!    zero uncorrectable host reads and no sector's sequence number ever
//!    rolling back, as long as the ladder + reclaim pipeline is on.
//! 3. **Loss beyond spec is counted, not fatal**: past what the ladder
//!    can recover, GC, reclaim and the patrol meet valid data they cannot
//!    read. Each FTL counts the loss, drops the mapping and finishes the
//!    collection, and its structural invariants still hold.
//!
//! Everything is driven by the deterministic `esp_sim::Rng`: a failure
//! reproduces from the printed case seed.

use esp_core::{precondition, run_trace_qd, CgmFtl, FgmFtl, Ftl, FtlConfig, SectorLogFtl, SubFtl};
use esp_nand::{FaultConfig, Geometry, RetentionModel, RetryLadder};
use esp_sim::{Rng, SimDuration, SimTime};
use esp_workload::{generate, SyntheticConfig, Trace};

fn build(name: &str, cfg: &FtlConfig) -> Box<dyn Ftl> {
    match name {
        "sub" => Box::new(SubFtl::new(cfg)),
        "cgm" => Box::new(CgmFtl::new(cfg)),
        "fgm" => Box::new(FgmFtl::new(cfg)),
        "sectorlog" => Box::new(SectorLogFtl::new(cfg)),
        _ => unreachable!(),
    }
}

const FTLS: [&str; 4] = ["sub", "cgm", "fgm", "sectorlog"];

/// Tiny device with the full read-reliability pipeline on. The disturb
/// rate is calibrated so the bare ECC budget dies after ~108 senses of one
/// block — easily reached by a hot-read loop — while the ladder + patrol
/// keep everything correctable.
fn reliable_config() -> FtlConfig {
    let mut cfg = FtlConfig::tiny();
    cfg.retention = RetentionModel::paper_default().with_read_disturb(2e-2);
    cfg.retry_ladder = Some(RetryLadder::paper_default());
    cfg.reclaim_threshold = Some(2);
    cfg
}

#[test]
fn recovered_reads_return_the_correct_sectors() {
    for name in FTLS {
        let cfg = reliable_config();
        let mut ftl = build(name, &cfg);
        // A fragmented sector and two aligned pages, so every FTL has data
        // both in its fine-grained structure and its full-page region.
        let mut now = ftl.write(0, 1, true, SimTime::ZERO);
        now = ftl.write(4, 8, true, now);
        now = ftl.flush(now);
        let baseline: Vec<(u64, u64)> = (0..12)
            .filter_map(|lsn| ftl.stored_seq(lsn).map(|s| (lsn, s)))
            .collect();
        assert!(!baseline.is_empty(), "{name}: nothing durably stored");
        // Hammer every written sector far past the bare-ECC disturb budget.
        for _ in 0..500 {
            ftl.maintain(now);
            now = ftl.read(0, 1, now);
            now = ftl.read(4, 8, now);
        }
        assert_eq!(
            ftl.stats().read_faults,
            0,
            "{name}: ladder + reclaim must keep every read correctable"
        );
        assert!(
            ftl.ssd().device().stats().recovered_reads > 0,
            "{name}: the ladder never fired — the property was not exercised"
        );
        // Pure reads: however much the pipeline relocated, every sector
        // still answers with the exact copy that was written.
        for (lsn, seq) in baseline {
            assert_eq!(
                ftl.stored_seq(lsn),
                Some(seq),
                "{name}: sector {lsn} changed identity under read-reclaim"
            );
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Write {
        lsn: u64,
        sectors: u32,
    },
    Read {
        lsn: u64,
        sectors: u32,
    },
    /// Flush, then age the stored data by `hours` before continuing.
    AgeHours(u64),
}

fn soak_trace(rng: &mut Rng, logical: u64, len: usize) -> Vec<Op> {
    let max_start = logical / 2 - 4;
    (0..len)
        .map(|_| match rng.next_below(8) {
            // Read-heavy, hot: reads concentrate on a 16-sector zone so
            // blocks accumulate disturb fast.
            0..=4 => Op::Read {
                lsn: rng.next_below(16),
                sectors: rng.next_in(1, 4) as u32,
            },
            5 | 6 => Op::Write {
                lsn: rng.next_below(max_start),
                sectors: rng.next_in(1, 4) as u32,
            },
            _ => Op::AgeHours(rng.next_in(1, 3)),
        })
        .collect()
}

#[test]
fn soak_with_disturb_aging_and_faults_loses_nothing() {
    for case in 0..4u64 {
        let mut rng = Rng::seed_from(0x50AC ^ case);
        for name in FTLS {
            let mut cfg = reliable_config();
            cfg.fault = Some(FaultConfig {
                seed: case + 1,
                program_fail_prob: 0.005,
                erase_fail_prob: 0.0002,
                ..FaultConfig::default()
            });
            let mut ftl = build(name, &cfg);
            let logical = ftl.logical_sectors();
            let ops = soak_trace(&mut rng, logical, 600);
            let mut clock = SimTime::ZERO;
            let mut high = vec![0u64; logical as usize];
            for op in &ops {
                ftl.maintain(clock);
                match *op {
                    Op::Write { lsn, sectors } => clock = ftl.write(lsn, sectors, true, clock),
                    Op::Read { lsn, sectors } => clock = ftl.read(lsn, sectors, clock),
                    Op::AgeHours(h) => {
                        clock = ftl.flush(clock);
                        clock += SimDuration::from_secs(h * 3600);
                        // Monotone durability: aging and relocation must
                        // never roll a sector back to an older copy.
                        for lsn in 0..logical {
                            if let Some(seq) = ftl.stored_seq(lsn) {
                                assert!(
                                    seq >= high[lsn as usize],
                                    "{name} case {case}: sector {lsn} rolled back"
                                );
                                high[lsn as usize] = seq;
                            }
                        }
                    }
                }
            }
            clock = ftl.flush(clock);
            // Final readback of everything durably stored.
            for lsn in 0..logical {
                if ftl.stored_seq(lsn).is_some() {
                    clock = ftl.read(lsn, 1, clock);
                }
            }
            assert_eq!(
                ftl.stats().read_faults,
                0,
                "{name} case {case}: the read-reliability pipeline lost data"
            );
        }
    }
}

/// A hot-read case past what the retry ladder can recover: the config,
/// the preconditioning fill, the trace and the queue depth.
struct HotCase {
    cfg: FtlConfig,
    fill: f64,
    trace: Trace,
    queue_depth: usize,
}

/// Two cases at 3e-2 disturb per read. The first is espsim's `run
/// --geometry 2x2x16x32 --op 0.4 --requests 2000 --rsmall 0.5
/// --read-fraction 0.9 --read-disturb 3e-2 --retry-ladder on
/// --reclaim-threshold 2`, where GC meets unreadable full pages and fgm
/// sectors. The second is `golden_outputs`' hot-read trace, where
/// sector-log's log merge meets unreadable log sectors.
fn hot_cases() -> [HotCase; 2] {
    let hot = |geometry: Geometry| FtlConfig {
        geometry,
        overprovision: 0.4,
        retention: RetentionModel::paper_default().with_read_disturb(3e-2),
        retry_ladder: Some(RetryLadder::paper_default()),
        reclaim_threshold: Some(2),
        ..FtlConfig::paper_default()
    };
    let cli = hot(Geometry {
        channels: 2,
        chips_per_channel: 2,
        blocks_per_chip: 16,
        pages_per_block: 32,
        ..Geometry::tiny()
    });
    let footprint = (cli.logical_sectors() as f64 * 0.625) as u64;
    let cli_trace = generate(&SyntheticConfig {
        footprint_sectors: footprint,
        requests: 2000,
        r_small: 0.5,
        r_synch: 1.0,
        read_fraction: 0.9,
        zipf_theta: 0.9,
        small_zone_sectors: Some((footprint / 64).max(64)),
        rewrite_distance: 512,
        seed: 42,
        ..SyntheticConfig::default()
    });
    let golden = FtlConfig {
        write_buffer_sectors: 32,
        ..hot(Geometry {
            channels: 2,
            chips_per_channel: 2,
            blocks_per_chip: 16,
            pages_per_block: 16,
            ..Geometry::tiny()
        })
    };
    let golden_trace = generate(&SyntheticConfig {
        footprint_sectors: golden.logical_sectors() * 3 / 4,
        requests: 6000,
        r_small: 0.7,
        r_synch: 0.8,
        read_fraction: 0.9,
        zipf_theta: 0.99,
        seed: 14,
        ..SyntheticConfig::default()
    });
    [
        HotCase {
            cfg: cli,
            fill: 0.625,
            trace: cli_trace,
            queue_depth: 8,
        },
        HotCase {
            cfg: golden,
            fill: 0.0,
            trace: golden_trace,
            queue_depth: 4,
        },
    ]
}

/// Replays every hot case on a fresh FTL from `build`, checks
/// `invariants` after each, and requires that data was lost and counted.
fn lose_and_check<F: Ftl>(name: &str, build: impl Fn(&FtlConfig) -> F, invariants: impl Fn(&F)) {
    let mut lost = 0;
    for case in hot_cases() {
        let mut ftl = build(&case.cfg);
        if case.fill > 0.0 {
            precondition(&mut ftl, case.fill);
        }
        lost += run_trace_qd(&mut ftl, &case.trace, case.queue_depth)
            .stats
            .read_faults;
        invariants(&ftl);
    }
    assert!(
        lost > 0,
        "{name}: nothing was lost, so the property was not exercised"
    );
}

#[test]
fn unrecoverable_relocation_reads_are_counted_and_keep_invariants() {
    lose_and_check("cgm", CgmFtl::new, CgmFtl::check_invariants);
    lose_and_check("fgm", FgmFtl::new, FgmFtl::check_invariants);
    lose_and_check("sub", SubFtl::new, SubFtl::check_invariants);
    lose_and_check(
        "sectorlog",
        SectorLogFtl::new,
        SectorLogFtl::check_invariants,
    );
}
