//! **§7 future work, implemented — fast subpage reads.**
//!
//! The paper's conclusion: "we plan to support subpage read operations in
//! the next version of subFTL. If subpage read operations can be made
//! faster than full-page reads, we believe that they can be useful for
//! read latency-sensitive applications."
//!
//! subFTL's read path already issues subpage reads when a single 4 KB
//! sector is requested; this experiment turns on the faster subpage sense
//! (`NandTiming::with_fast_subpage_read`, scaled like the measured
//! program-side saving) and measures a read-latency-sensitive workload.

use esp_bench::{
    big_flag, experiment_config, footprint_sectors, FtlKind, TextTable, FILL_FRACTION,
};
use esp_core::{precondition, run_trace_qd, FtlConfig};
use esp_sim::SimDuration;
use esp_workload::{generate, SyntheticConfig};

fn main() {
    let base = experiment_config(big_flag());
    let footprint = footprint_sectors(&base);
    let requests = if big_flag() { 400_000 } else { 50_000 };
    // Read-dominant, 4 KB-heavy: the latency-sensitive case §7 names.
    let trace = generate(&SyntheticConfig {
        footprint_sectors: footprint,
        requests,
        r_small: 0.997,
        r_synch: 0.9,
        read_fraction: 0.6,
        zipf_theta: 0.9,
        small_zone_sectors: Some((footprint / 64).max(64)),
        rewrite_distance: 512,
        seed: 0xF7,
        ..SyntheticConfig::default()
    });

    println!("§7 future work: fast subpage reads ({requests} requests, 60% reads, QD 1)");
    println!();
    let mut t = TextTable::new(["configuration", "IOPS", "mean latency (us)", "p99 latency"]);
    for (label, fast, kind) in [
        ("fgmFTL (full-page sense)", false, FtlKind::Fgm),
        ("subFTL (full-page sense)", false, FtlKind::Sub),
        ("subFTL + fast subpage read", true, FtlKind::Sub),
    ] {
        let mut cfg = FtlConfig { ..base.clone() };
        if fast {
            cfg.timing = cfg.timing.with_fast_subpage_read();
        }
        let mut ftl = kind.build(&cfg);
        precondition(ftl.as_mut(), FILL_FRACTION);
        let r = run_trace_qd(ftl.as_mut(), &trace, 1);
        assert_eq!(r.stats.read_faults, 0);
        let latency = r.latency();
        t.row([
            label.to_string(),
            format!("{:.0}", r.iops),
            format!("{:.1}", latency.mean() / 1_000.0),
            SimDuration::from_nanos(latency.percentile(0.99)).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Expected: subFTL already wins on the write path; the faster subpage\n\
         sense shaves single-sector read latency on top (the reads of data\n\
         resident in the subpage region and single-sector reads from the\n\
         full-page region both use the subpage sense)."
    );
}
