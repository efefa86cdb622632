//! Golden generated traces: each arm runs `generate` on one seeded config
//! and pins the 64-bit FNV-1a digest of the trace — the footprint, then
//! every request's arrival, op, lsn, length and sync flag. Every figure
//! binary and every perfbench round generates its inputs here, so a change
//! to the generator that moves one RNG call, one floating-point expression
//! or one rewrite-window decision moves a digest.
//!
//! The arms cover the five profiles at perfbench's footprints, the
//! tenants_open victim (also with Poisson arrivals) and neighbour, and the
//! generator's edges: uniform ranks, no small zone, misaligned large
//! writes, a wrapping sequential stream, burst gaps, and footprints the
//! rank map's stride is and is not coprime with.
//!
//! On a mismatch the test prints every new digest.

use esp_sim::SimDuration;
use esp_workload::{generate, Benchmark, IoOp, SyntheticConfig, Trace};

/// perfbench's smallsync footprint: 0.625 of the 512 MiB experiment
/// geometry's logical sectors.
const SMALL_FP: u64 = 61_440;
/// perfbench's bulk_big footprint at the 4 GiB geometry.
const BIG_FP: u64 = 491_520;
/// Requests per arm: enough for the 512-request rewrite window to turn
/// over several times, short enough for a debug-build test.
const REQUESTS: u64 = 4_000;

fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&trace.footprint_sectors.to_le_bytes());
    for r in trace {
        eat(&r.arrival.as_nanos().to_le_bytes());
        eat(&[u8::from(r.op == IoOp::Write)]);
        eat(&r.lsn.to_le_bytes());
        eat(&r.sectors.to_le_bytes());
        eat(&[u8::from(r.sync)]);
    }
    h
}

/// perfbench's tenants_open tenant: sync small writes in a 1/64 hot zone.
fn tenant(footprint: u64, read_fraction: f64, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        footprint_sectors: footprint,
        requests: REQUESTS,
        r_small: 1.0,
        r_synch: 1.0,
        read_fraction,
        zipf_theta: 0.9,
        small_zone_sectors: Some((footprint / 64).max(64)),
        rewrite_distance: 512,
        seed,
        ..SyntheticConfig::default()
    }
}

/// A mixed small/large config for the edge arms.
fn mixed(footprint: u64, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        footprint_sectors: footprint,
        requests: REQUESTS,
        r_small: 0.6,
        r_synch: 0.5,
        read_fraction: 0.2,
        small_zone_sectors: Some(footprint / 32),
        rewrite_distance: 256,
        seed,
        ..SyntheticConfig::default()
    }
}

/// Large writes stream through a footprint small enough to wrap.
fn sequential_wraps() -> SyntheticConfig {
    SyntheticConfig {
        small_zone_sectors: Some(128),
        sequential_large: true,
        ..mixed(4_096, 34)
    }
}

fn arms() -> Vec<(String, Trace, u64)> {
    let profile_digests = [
        (
            SMALL_FP,
            [
                0x4042_3589_9d08_09a1,
                0xd16b_213e_3590_86dc,
                0x7fee_74c2_ba72_cf56,
                0x1d11_2eca_f667_2cf7,
                0xbef9_5829_82ca_dfa2,
            ],
        ),
        (
            BIG_FP,
            [
                0x8118_3d16_1e99_a60f,
                0x7314_a454_8189_e67c,
                0x08f4_92e9_b21b_b32b,
                0xa152_f8ca_6bd2_2b2d,
                0x4f82_968a_7fa5_8279,
            ],
        ),
    ];
    let mut arms = Vec::new();
    for (footprint, digests) in profile_digests {
        for (b, d) in Benchmark::ALL.into_iter().zip(digests) {
            let cfg = b.config(footprint, REQUESTS, 0x5eed ^ footprint);
            arms.push((format!("{b} @ {footprint}"), generate(&cfg), d));
        }
    }
    let victim = generate(&tenant(15_360, 0.8, 21));
    let open_victim = victim.with_poisson_arrivals(400.0, 22);
    arms.push(("victim".into(), victim, 0x1cfd_ee56_c4e2_81f3));
    arms.push((
        "victim, poisson 400/s".into(),
        open_victim,
        0x5430_8528_9a0d_0b26,
    ));
    arms.push((
        "neighbour".into(),
        generate(&tenant(30_720, 0.0, 23)),
        0xdc95_510e_1c07_60d8,
    ));
    let edges = [
        (
            "theta 0",
            SyntheticConfig {
                zipf_theta: 0.0,
                ..mixed(SMALL_FP, 31)
            },
            0xa5f4_68b0_7d77_4c9b,
        ),
        (
            "no small zone, rewrite window",
            SyntheticConfig {
                small_zone_sectors: None,
                rewrite_distance: 512,
                ..mixed(SMALL_FP, 32)
            },
            0x4bd4_e9e2_d0c9_f852,
        ),
        (
            "misaligned large",
            SyntheticConfig {
                misaligned_large_fraction: 0.5,
                ..mixed(SMALL_FP, 33)
            },
            0x42f1_66fb_00d3_f1cb,
        ),
        (
            "sequential wraps",
            sequential_wraps(),
            0x094f_4951_69e9_22a6,
        ),
        (
            "burst gaps",
            SyntheticConfig {
                inter_arrival: SimDuration::from_micros(250),
                burst_period: 64,
                burst_idle: SimDuration::from_millis(20),
                ..mixed(SMALL_FP, 35)
            },
            0xd370_bd38_b53a_c54d,
        ),
        (
            "stride coprime (65,536)",
            mixed(65_536, 36),
            0xc063_0b41_e00b_d0ec,
        ),
        (
            "stride not coprime (61,440)",
            mixed(61_440, 36),
            0x62c2_df07_f740_e2af,
        ),
    ];
    for (name, cfg, d) in edges {
        arms.push((name.into(), generate(&cfg), d));
    }
    arms
}

#[test]
fn golden_trace_digests() {
    let mut mismatches = Vec::new();
    for (name, trace, expect) in arms() {
        let got = digest(&trace);
        if got != expect {
            mismatches.push(format!("{name}: expected {expect:#018x}, got {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated traces changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn the_sequential_arm_wraps() {
    let t = generate(&sequential_wraps());
    let large: Vec<u64> = t
        .iter()
        .filter(|r| r.op == IoOp::Write && !r.is_small_write())
        .map(|r| r.lsn)
        .collect();
    let wraps = large.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(wraps >= 2, "sequential stream wrapped {wraps} times");
}
