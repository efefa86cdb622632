//! **Extension — background GC in host idle windows.**
//!
//! The paper's FTLs collect garbage on the write path (foreground), which
//! is what puts GC episodes into the fsync latency tail. Real workloads are
//! bursty; an FTL that pre-erases blocks between bursts moves that work off
//! the critical path. This experiment replays a bursty sync-small-write
//! workload (64-request bursts separated by 50 ms of quiet) with background
//! GC off (the paper's behaviour) and on.

use esp_bench::{big_flag, experiment_config, footprint_sectors, TextTable, FILL_FRACTION};
use esp_core::{precondition, run_trace_qd, FtlConfig, SubFtl};
use esp_sim::SimDuration;
use esp_workload::{generate, SyntheticConfig};

fn main() {
    let base = experiment_config(big_flag());
    let footprint = footprint_sectors(&base);
    let requests = if big_flag() { 400_000 } else { 50_000 };
    let trace = generate(&SyntheticConfig {
        footprint_sectors: footprint,
        requests,
        r_small: 1.0,
        r_synch: 1.0,
        zipf_theta: 0.9,
        small_zone_sectors: Some((footprint / 64).max(64)),
        rewrite_distance: 512,
        burst_period: 64,
        burst_idle: SimDuration::from_millis(50),
        seed: 0xB6C,
        ..SyntheticConfig::default()
    });

    println!(
        "Background GC on a bursty fsync workload ({requests} requests, \
         64-request bursts / 50 ms gaps, QD 8)"
    );
    println!();
    let mut t = TextTable::new([
        "configuration",
        "IOPS",
        "p50",
        "p99",
        "worst request",
        "GC invocations",
    ]);
    for (label, background) in [("foreground GC (paper)", false), ("background GC", true)] {
        let cfg = FtlConfig {
            background_gc: background,
            ..base.clone()
        };
        let mut ftl = SubFtl::new(&cfg);
        precondition(&mut ftl, FILL_FRACTION);
        let r = run_trace_qd(&mut ftl, &trace, 8);
        assert_eq!(r.stats.read_faults, 0);
        let latency = r.latency();
        let pct = |q: f64| SimDuration::from_nanos(latency.percentile(q)).to_string();
        t.row([
            label.to_string(),
            format!("{:.0}", r.iops),
            pct(0.50),
            pct(0.99),
            SimDuration::from_nanos(latency.max()).to_string(),
            r.stats.gc_invocations.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Expected: the same GC work runs either way, but pre-erasing during\n\
         the 50 ms gaps removes multi-millisecond GC episodes from the\n\
         in-burst latency tail."
    );
}
