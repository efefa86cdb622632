//! **Queue-depth scaling** — IOPS and read tail latency vs. host queue depth.
//!
//! Replays the same read-only uniform-random trace against each FTL at
//! QD ∈ {1, 4, 8, 16, 32} and reports how throughput scales as the NCQ
//! scheduler is allowed to keep more requests in flight. Random 4 KB reads
//! spread across the 8 × 4 chip array, so deeper queues overlap cell reads
//! on independent chips and IOPS rises steeply until the channel buses
//! saturate; p99 read *service time* (issue → done — host queueing delay
//! before issue is excluded, see the `esp_core` runner docs) rises with
//! depth as channel/chip contention grows — the classic
//! throughput/latency trade.
//!
//! Expected shape: IOPS at QD=32 is at least 3× IOPS at QD=1 for every FTL
//! (asserted below — this is the PR's acceptance bar), and QD=1 numbers are
//! byte-identical to the serial scheduler's (locked by the
//! `replay_matches_legacy_reference` unit test in `esp-core`).
//!
//! The `(kind, qd)` grid is embarrassingly parallel — each cell is an
//! independent simulation — so the sweep fans out across host cores with
//! [`esp_sim::par_map`]; results are merged in grid order regardless of
//! which worker finished first.

use esp_bench::{
    bench_report, big_flag, experiment_config, footprint_sectors, write_bench, FtlKind, TextTable,
    FILL_FRACTION,
};
use esp_core::{precondition, run_trace_qd};
use esp_sim::Json;
use esp_workload::{generate, SyntheticConfig};

/// Queue depths swept (powers of two up to a typical NCQ window of 32).
const QDS: [usize; 5] = [1, 4, 8, 16, 32];

fn main() {
    let big = big_flag();
    let cfg = experiment_config(big);
    let footprint = footprint_sectors(&cfg);
    let requests = if big { 240_000 } else { 60_000 };

    // Read-only uniform-random 4 KB-class requests, replayed full-throttle:
    // with no write traffic the dependency tracker never serializes, so the
    // sweep isolates pure device-side parallelism.
    let trace = generate(&SyntheticConfig {
        footprint_sectors: footprint,
        requests,
        read_fraction: 1.0,
        zipf_theta: 0.0,
        seed: 0x9D5C,
        ..SyntheticConfig::default()
    });

    println!(
        "Queue-depth scaling: read-only uniform random, {} requests, footprint {} sectors",
        requests, footprint
    );
    println!();

    let grid: Vec<(FtlKind, usize)> = FtlKind::ALL
        .into_iter()
        .flat_map(|kind| QDS.into_iter().map(move |qd| (kind, qd)))
        .collect();
    let reports = esp_sim::par_map(&grid, |_, &(kind, qd)| {
        let mut ftl = kind.build(&cfg);
        precondition(ftl.as_mut(), FILL_FRACTION);
        run_trace_qd(ftl.as_mut(), &trace, qd)
    });

    let mut out = bench_report("fig_qd_scaling", &cfg, big);
    out.meta("requests", Json::from(requests));
    out.meta(
        "qds",
        Json::Arr(QDS.iter().map(|&q| Json::from(q as u64)).collect()),
    );

    let mut tbl = TextTable::new(["FTL", "QD", "IOPS", "speedup vs QD=1", "read p99 (us)"]);
    for (kind_idx, kind) in FtlKind::ALL.into_iter().enumerate() {
        let base_iops = reports[kind_idx * QDS.len()].iops;
        for (qd_idx, &qd) in QDS.iter().enumerate() {
            let report = &reports[kind_idx * QDS.len() + qd_idx];
            assert_eq!(
                report.stats.read_faults,
                0,
                "{} surfaced read faults at qd={qd}",
                kind.name()
            );
            let p99 = report.read_latency_summary().p99;
            tbl.row([
                kind.name().to_string(),
                qd.to_string(),
                format!("{:.0}", report.iops),
                format!("{:.2}x", report.iops / base_iops),
                format!("{:.1}", p99 as f64 / 1e3),
            ]);
            out.push_run(&format!("{} qd={qd}", kind.name()), report);
        }
        let deep_iops = reports[kind_idx * QDS.len() + QDS.len() - 1].iops;
        assert!(
            deep_iops >= 3.0 * base_iops,
            "{}: IOPS at QD=32 ({deep_iops:.0}) is below 3x QD=1 ({base_iops:.0})",
            kind.name()
        );
    }

    println!("{}", tbl.render());
    println!("(IOPS at QD=32 is asserted to be at least 3x IOPS at QD=1 per FTL.)");
    write_bench(&out);
}
