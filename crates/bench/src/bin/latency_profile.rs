//! **Host latency profile** — per-request latency distribution of
//! synchronous writes and reads under each FTL.
//!
//! The paper reports IOPS; latency is the same story seen per request:
//! cgmFTL's RMWs and fgmFTL's full-page programs sit directly on the fsync
//! path, while GC bursts shape the tail.

use esp_bench::{
    bench_report, big_flag, experiment_config, footprint_sectors, write_bench, FtlKind, TextTable,
    FILL_FRACTION,
};
use esp_core::{precondition, run_trace_qd};
use esp_sim::{Json, SimDuration};
use esp_workload::{generate, Benchmark};

fn main() {
    let cfg = experiment_config(big_flag());
    let footprint = footprint_sectors(&cfg);
    let requests = if big_flag() { 400_000 } else { 50_000 };
    let mut out = bench_report("latency_profile", &cfg, big_flag());
    out.meta("requests", Json::from(requests));

    for (bench, qd) in [(Benchmark::Varmail, 1usize), (Benchmark::Varmail, 8)] {
        let trace = generate(&bench.config(footprint, requests, 0x1A7));
        println!("{bench} at queue depth {qd}:");
        let mut t = TextTable::new(["FTL", "mean", "p50", "p90", "p99", "p99.9"]);
        for kind in FtlKind::ALL {
            let mut ftl = kind.build(&cfg);
            precondition(ftl.as_mut(), FILL_FRACTION);
            let r = run_trace_qd(ftl.as_mut(), &trace, qd);
            out.push_run(&format!("{} {bench} qd={qd}", kind.name()), &r);
            let latency = r.latency();
            let pct = |q: f64| SimDuration::from_nanos(latency.percentile(q)).to_string();
            t.row([
                kind.name().to_string(),
                SimDuration::from_nanos(latency.mean() as u64).to_string(),
                pct(0.50),
                pct(0.90),
                pct(0.99),
                pct(0.999),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "Expected: subFTL's 4 KB subpage program shortens the fsync path\n\
         (lower median), and its rarer GC keeps the p99/p99.9 tail flatter\n\
         than fgmFTL's. (Percentiles are HDR bucket lower bounds, within\n\
         1/16 of the exact value.)"
    );
    write_bench(&out);
}
