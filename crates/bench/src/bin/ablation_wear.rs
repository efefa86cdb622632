//! **Ablation A6 — wear leveling across regions** (paper §4.2: "blocks in
//! the subpage region are more rapidly worn out than those in the full-page
//! region. This unbalanced wearing problem is solved by using existing
//! wear-leveling algorithms" — block type is "decided at the program time",
//! so regions can swap blocks).
//!
//! Runs a long small-write churn with the cross-region swap threshold at
//! several settings and reports the per-block erase-count distribution.

use esp_bench::{
    bench_report, big_flag, experiment_config, footprint_sectors, write_bench, TextTable,
    FILL_FRACTION,
};
use esp_core::{precondition, run_trace_qd, Ftl, FtlConfig, SubFtl};
use esp_sim::Json;
use esp_workload::{generate, SyntheticConfig};

/// Mean, population standard deviation and maximum of the per-block P/E
/// counts.
fn wear_distribution(ftl: &SubFtl) -> (f64, f64, u32) {
    let ssd = ftl.ssd();
    let g = ssd.geometry();
    let pe: Vec<u32> = (0..g.block_count())
        .map(|b| ssd.device().pe_cycles(g.block_addr(b)))
        .collect();
    let n = pe.len() as f64;
    let mean = pe.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
    let variance = pe
        .iter()
        .map(|&x| (f64::from(x) - mean).powi(2))
        .sum::<f64>()
        / n;
    (mean, variance.sqrt(), pe.iter().copied().max().unwrap_or(0))
}

fn main() {
    let big = big_flag();
    let base = experiment_config(big);
    let footprint = footprint_sectors(&base);
    let requests = if big_flag() { 4_800_000 } else { 600_000 };
    let trace = generate(&SyntheticConfig {
        footprint_sectors: footprint,
        requests,
        r_small: 1.0,
        r_synch: 1.0,
        zipf_theta: 0.9,
        small_zone_sectors: Some((footprint / 64).max(64)),
        rewrite_distance: 512,
        seed: 0xAB6,
        ..SyntheticConfig::default()
    });

    println!("Ablation A6: cross-region wear leveling ({requests} small sync writes)");
    println!();
    let mut bench = bench_report("ablation_wear", &base, big);
    bench.meta("requests", Json::from(requests as u64));
    let mut t = TextTable::new([
        "swap threshold",
        "swaps",
        "rotations",
        "mean P/E",
        "max P/E",
        "P/E std dev",
        "IOPS",
    ]);
    // The sweep varies the cross-region swap threshold; the final arm adds
    // static wear leveling (cold-block rotation + wear-aware victims) at
    // the default threshold to show the combined flattening.
    for (label, delta, wl) in [
        ("off (u32::MAX)", u32::MAX, false),
        ("50 cycles", 50, false),
        ("20 cycles (default)", 20, false),
        ("5 cycles", 5, false),
        ("20 cycles + static wl", 20, true),
    ] {
        let cfg = FtlConfig {
            wear_delta_threshold: delta,
            wear_leveling: wl,
            ..base.clone()
        };
        let mut ftl = SubFtl::new(&cfg);
        precondition(&mut ftl, FILL_FRACTION);
        let r = run_trace_qd(&mut ftl, &trace, 8);
        let (mean, std_dev, max) = wear_distribution(&ftl);
        t.row([
            label.to_string(),
            r.stats.wear_swaps.to_string(),
            r.stats.wear_level_migrations.to_string(),
            format!("{mean:.2}"),
            max.to_string(),
            format!("{std_dev:.2}"),
            format!("{:.0}", r.iops),
        ]);
        bench.push_run_with(
            label,
            &r,
            [
                ("swap_threshold".to_string(), Json::from(delta)),
                ("static_wear_leveling".to_string(), Json::from(wl)),
                ("pe_mean".to_string(), Json::from(mean)),
                ("pe_max".to_string(), Json::from(max)),
                ("pe_std_dev".to_string(), Json::from(std_dev)),
            ],
        );
    }
    println!("{}", t.render());
    write_bench(&bench);
    println!(
        "Expected: with swapping off, the 20% subpage region absorbs nearly\n\
         all erases and its blocks race ahead (high max and std dev); lower\n\
         thresholds trade a few block swaps for a flatter distribution —\n\
         longer device life at negligible IOPS cost."
    );
}
