//! Golden simulated outputs: each arm replays a short seeded trace through
//! one FTL under one feature mix and pins the 64-bit FNV-1a digest of its
//! `run_json` rendering. Any change to a simulated decision — victim
//! choice, refill order, retry placement, erase-failure retirement, end of
//! life — moves at least one digest. Every arm also asserts that the
//! counter it exists for is non-zero, so its digest locks the path it
//! names rather than a run that never reached it.
//!
//! On a mismatch the test prints every new digest; a change that is meant
//! to alter simulated output updates them together with its baselines.

use esp_core::{
    run_json, run_trace_qd, CgmFtl, FgmFtl, Ftl, FtlConfig, GcPolicyKind, MapCacheConfig,
    SectorLogFtl, SubFtl,
};
use esp_nand::{FaultConfig, Geometry, RetentionModel, RetryLadder};
use esp_sim::SimDuration;
use esp_workload::{generate, SyntheticConfig, Trace};

#[derive(Debug, Clone, Copy)]
enum Kind {
    Cgm,
    Fgm,
    Sub,
    SectorLog,
}

fn build(kind: Kind, cfg: &FtlConfig) -> Box<dyn Ftl> {
    match kind {
        Kind::Cgm => Box::new(CgmFtl::new(cfg)),
        Kind::Fgm => Box::new(FgmFtl::new(cfg)),
        Kind::Sub => Box::new(SubFtl::new(cfg)),
        Kind::SectorLog => Box::new(SectorLogFtl::new(cfg)),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// 2×2 chips of 16 blocks × 16 pages: small enough for debug-build test
/// runs, large enough that GC, wear leveling and retirement all engage.
fn base() -> FtlConfig {
    FtlConfig {
        geometry: Geometry {
            channels: 2,
            chips_per_channel: 2,
            blocks_per_chip: 16,
            pages_per_block: 16,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        },
        write_buffer_sectors: 32,
        overprovision: 0.4,
        ..FtlConfig::paper_default()
    }
}

fn trace_cfg(cfg: &FtlConfig, requests: u64, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        footprint_sectors: cfg.logical_sectors() * 3 / 4,
        requests,
        r_small: 0.7,
        r_synch: 0.8,
        read_fraction: 0.2,
        zipf_theta: 0.8,
        seed,
        ..SyntheticConfig::default()
    }
}

/// One golden arm: FTL, config, trace, the counter the arm exists for,
/// and the recorded digest.
struct Arm {
    name: String,
    kind: Kind,
    cfg: FtlConfig,
    trace: Trace,
    counter: Counter,
    digest: u64,
}

/// The counter an arm exists for: its name and how to read it.
type Counter = (&'static str, fn(&dyn Ftl) -> u64);

/// Replays `trace` through a fresh `kind` FTL at queue depth 4. Returns
/// the FTL and the digest of the run's `run_json` rendering under `name`.
fn replay(name: &str, kind: Kind, cfg: &FtlConfig, trace: &Trace) -> (Box<dyn Ftl>, u64) {
    let mut ftl = build(kind, cfg);
    let report = run_trace_qd(ftl.as_mut(), trace, 4);
    let digest = fnv1a(run_json(name, &report).to_string().as_bytes());
    (ftl, digest)
}

fn check(arms: &[Arm]) {
    let mut mismatches = Vec::new();
    for arm in arms {
        let (ftl, digest) = replay(&arm.name, arm.kind, &arm.cfg, &arm.trace);
        let (counter, read) = arm.counter;
        assert!(
            read(ftl.as_ref()) > 0,
            "{}: {counter} stayed zero, so the digest does not lock its path",
            arm.name
        );
        if digest != arm.digest {
            mismatches.push(format!(
                "{}: expected {:#018x}, got {digest:#018x}",
                arm.name, arm.digest
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulated output changed:\n{}",
        mismatches.join("\n")
    );
}

fn arms(
    scenario: &str,
    cfg: &FtlConfig,
    trace: &Trace,
    counter: Counter,
    digests: &[(Kind, u64)],
) -> Vec<Arm> {
    digests
        .iter()
        .map(|&(kind, digest)| Arm {
            name: format!("{kind:?}/{scenario}"),
            kind,
            cfg: cfg.clone(),
            trace: trace.clone(),
            counter,
            digest,
        })
        .collect()
}

#[test]
fn golden_default() {
    let cfg = base();
    let trace = trace_cfg(&cfg, 3_000, 11);
    check(&arms(
        "default",
        &cfg,
        &generate(&trace),
        ("gc_invocations", |f| f.stats().gc_invocations),
        &[
            (Kind::Cgm, 0xc3f53233f3a1a774),
            (Kind::Fgm, 0x6e5b4d05e4aa58b5),
            (Kind::Sub, 0x249ebeb20212e9ae),
            (Kind::SectorLog, 0x17ec802656cd3724),
        ],
    ));
}

#[test]
fn golden_wear_leveling_adaptive_erase() {
    let cfg = FtlConfig {
        wear_leveling: true,
        adaptive_erase: true,
        wear_delta_threshold: 1,
        ..base()
    };
    let trace = SyntheticConfig {
        zipf_theta: 0.99,
        ..trace_cfg(&cfg, 6_000, 12)
    };
    check(&arms(
        "wear",
        &cfg,
        &generate(&trace),
        ("wear_swaps + wear_level_migrations", |f| {
            f.stats().wear_swaps + f.stats().wear_level_migrations
        }),
        &[
            (Kind::Cgm, 0x64455d6e26596532),
            (Kind::Fgm, 0xa44c24a90962d7fb),
            (Kind::Sub, 0x0be3838b591dd045),
            (Kind::SectorLog, 0x9ebfa48cb3e96054),
        ],
    ));
}

#[test]
fn golden_program_and_erase_failures() {
    let cfg = FtlConfig {
        fault: Some(FaultConfig {
            seed: 13,
            program_fail_prob: 0.01,
            erase_fail_prob: 0.02,
            factory_bad_blocks: 3,
            ..FaultConfig::default()
        }),
        ..base()
    };
    let trace = trace_cfg(&cfg, 4_000, 13);
    check(&arms(
        "faults",
        &cfg,
        &generate(&trace),
        ("min(erase_failures, program_failures)", |f| {
            f.stats().erase_failures.min(f.stats().program_failures)
        }),
        &[
            (Kind::Cgm, 0xb787231883903001),
            (Kind::Fgm, 0x9165c7fc186a3ac3),
            (Kind::Sub, 0xa1cafa7d4cb721cb),
            (Kind::SectorLog, 0xf90c11db723663f4),
        ],
    ));
}

#[test]
fn golden_retry_ladder_reclaim_hot_reads() {
    let cfg = FtlConfig {
        retention: RetentionModel::paper_default().with_read_disturb(1.5e-2),
        retry_ladder: Some(RetryLadder::paper_default()),
        reclaim_threshold: Some(2),
        ..base()
    };
    let trace = SyntheticConfig {
        read_fraction: 0.9,
        zipf_theta: 0.99,
        ..trace_cfg(&cfg, 6_000, 14)
    };
    check(&arms(
        "hot_reads",
        &cfg,
        &generate(&trace),
        ("disturb_scrubs + read_reclaims", |f| {
            f.stats().disturb_scrubs + f.stats().read_reclaims
        }),
        &[
            (Kind::Cgm, 0xbdc46a8423fe5695),
            (Kind::Fgm, 0x3ad77e2ddc8eee9f),
            (Kind::Sub, 0xd09700eeda182c04),
            (Kind::SectorLog, 0x7184dde0b1e79126),
        ],
    ));
}

/// The hot-read workload past what the ladder and reclaim can hold: GC,
/// reclaim and the patrol meet data they cannot recover, count it and
/// finish the collection. cgm loses nothing at this rate, so it has no arm.
#[test]
fn golden_hot_reads_beyond_spec() {
    let cfg = FtlConfig {
        retention: RetentionModel::paper_default().with_read_disturb(3e-2),
        retry_ladder: Some(RetryLadder::paper_default()),
        reclaim_threshold: Some(2),
        ..base()
    };
    let trace = SyntheticConfig {
        read_fraction: 0.9,
        zipf_theta: 0.99,
        ..trace_cfg(&cfg, 6_000, 14)
    };
    check(&arms(
        "hot_reads_beyond_spec",
        &cfg,
        &generate(&trace),
        ("read_faults", |f| f.stats().read_faults),
        &[
            (Kind::Fgm, 0x506791d465224f62),
            (Kind::Sub, 0xaa14bae522a774e2),
            (Kind::SectorLog, 0x3e9f8ec618cfab31),
        ],
    ));
}

#[test]
fn golden_cost_benefit_background_gc() {
    let cfg = FtlConfig {
        gc_policy: GcPolicyKind::CostBenefit,
        background_gc: true,
        ..base()
    };
    let trace = SyntheticConfig {
        burst_period: 64,
        burst_idle: SimDuration::from_millis(50),
        ..trace_cfg(&cfg, 4_000, 15)
    };
    check(&arms(
        "cost_benefit_bg",
        &cfg,
        &generate(&trace),
        ("gc_invocations", |f| f.stats().gc_invocations),
        &[
            (Kind::Cgm, 0x86cb50f4985ee472),
            (Kind::Fgm, 0xdfa3b5c8bc039f98),
            (Kind::Sub, 0xcbd9bb39298d1d62),
            (Kind::SectorLog, 0x723431fde50a88f7),
        ],
    ));
}

#[test]
fn golden_end_of_life() {
    let cfg = FtlConfig {
        fault: Some(FaultConfig {
            seed: 3,
            erase_fail_prob: 0.5,
            ..FaultConfig::default()
        }),
        ..FtlConfig::tiny()
    };
    let trace = SyntheticConfig {
        footprint_sectors: cfg.logical_sectors(),
        ..trace_cfg(&cfg, 3_000, 16)
    };
    check(&arms(
        "end_of_life",
        &cfg,
        &generate(&trace),
        ("op_shrinks + end_of_life_trips", |f| {
            f.stats().op_shrinks + f.stats().end_of_life_trips
        }),
        &[
            (Kind::Cgm, 0x94451547692722c7),
            (Kind::Fgm, 0xd6cab9f94b47cd74),
            (Kind::Sub, 0xd339749019130e20),
            (Kind::SectorLog, 0xc6312f6021ee0c9f),
        ],
    ));
}

#[test]
fn golden_map_cache() {
    // Large enough that cgm's page map spans three translation pages, so
    // a two-page CMT must evict.
    let mut cfg = FtlConfig {
        map_cache: Some(MapCacheConfig { cmt_pages: 2 }),
        ..base()
    };
    cfg.geometry.blocks_per_chip = 64;
    cfg.geometry.pages_per_block = 64;
    let trace = SyntheticConfig {
        footprint_sectors: cfg.logical_sectors(),
        ..trace_cfg(&cfg, 3_000, 17)
    };
    // Only cgm and fgm have a cached map.
    check(&arms(
        "map_cache",
        &cfg,
        &generate(&trace),
        ("map_cache evictions", |f| {
            f.map_cache_stats().map_or(0, |m| m.evictions)
        }),
        &[
            (Kind::Cgm, 0x2791e57ee08f74ae),
            (Kind::Fgm, 0xc22fe836e4fa5863),
        ],
    ));
}

#[test]
fn golden_greedy_background_gc_open_arrivals() {
    // Poisson arrivals at 300 requests/s: the mean gap is 3.3 ms, so idle
    // windows fall on both sides of one 5 ms erase. Mostly full-page
    // writes, so subFTL's full-page region drops below its idle target.
    let cfg = FtlConfig {
        background_gc: true,
        ..base()
    };
    let trace = generate(&SyntheticConfig {
        r_small: 0.3,
        ..trace_cfg(&cfg, 4_000, 18)
    })
    .with_poisson_arrivals(300.0, 18);
    let arms = arms(
        "greedy_bg_open",
        &cfg,
        &trace,
        ("gc_invocations", |f| f.stats().gc_invocations),
        &[
            (Kind::Cgm, 0x0fb01544270858f2),
            (Kind::Fgm, 0xcf6a72d2f891ffb3),
            (Kind::Sub, 0xa1123957e92aa861),
            (Kind::SectorLog, 0x7c98c26d0ca7322a),
        ],
    );
    check(&arms);
    // The idle windows must have changed the run, or the digests would
    // not lock the background path.
    let off = FtlConfig {
        background_gc: false,
        ..cfg
    };
    for arm in &arms {
        let (_, digest) = replay(&arm.name, arm.kind, &off, &trace);
        assert_ne!(
            digest, arm.digest,
            "{}: background GC left the run unchanged",
            arm.name
        );
    }
}

/// subFTL's subpage-map probe counters and live entry count after seeded
/// runs. `run_json` carries neither, so a read or GC path that adds or
/// skips a fine-map lookup of a sector the map holds moves no digest
/// above; these numbers catch it. (A lookup of a sector the map does not
/// hold is answered by its membership bit and counts nothing.)
#[test]
fn golden_subpage_map_probes() {
    let cfg = base();
    let hot = FtlConfig {
        retention: RetentionModel::paper_default().with_read_disturb(1.5e-2),
        retry_ladder: Some(RetryLadder::paper_default()),
        reclaim_threshold: Some(2),
        ..base()
    };
    let hot_trace = SyntheticConfig {
        read_fraction: 0.9,
        zipf_theta: 0.99,
        ..trace_cfg(&hot, 6_000, 14)
    };
    let arms = [
        (
            "default",
            cfg.clone(),
            trace_cfg(&cfg, 3_000, 11),
            [18050, 28941, 38, 127],
        ),
        ("hot_reads", hot, hot_trace, [4391, 1960, 14, 110]),
    ];
    for (name, cfg, trace, expect) in arms {
        let mut ftl = SubFtl::new(&cfg);
        run_trace_qd(&mut ftl, &generate(&trace), 4);
        let p = ftl.subpage_map_probes();
        let got = [
            p.lookups,
            p.extra_probes,
            p.max_probe,
            ftl.subpage_entries() as u64,
        ];
        assert_eq!(
            got, expect,
            "{name}: [lookups, extra_probes, max_probe, entries]"
        );
    }
}
