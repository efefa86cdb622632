//! **perfbench** — host-performance benchmark of the ESP/subFTL simulator,
//! end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <smallsync|bulk_big|tenants_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run replays one workload's cells (see `workloads.rs`) in rounds
//! until `--seconds` have passed. Each round generates the inputs from the
//! seed, then builds, preconditions and replays every cell from scratch.
//! The first round is a warm-up. A fixed probe (`probe.rs`) runs before
//! the inputs are generated and after every step, so each step is
//! bracketed by two probes. Every end-to-end time is scaled by how slow
//! the host ran during that step, as the mean of its two probes over the
//! probe's reference time, and each is the median over the half of the
//! later rounds in which the host ran fastest during that step.
//! Every timing is taken here, around calls into the simulator's public
//! API; nothing inside the simulator is instrumented.
//!
//! * `--trace 0` reports the end-to-end metrics `req_per_s`, `setup_s`
//!   and `peak_rss_mib`, and prints `failed_frac` on a text line.
//! * `--trace 1` replays every cell a second time through the timing
//!   wrapper of `timed.rs`, times the isolated kernels of `kernels.rs`,
//!   and reports the per-layer metrics. The end-to-end numbers come only
//!   from untraced replays.
//!
//! The run fails (exit code 1, `"correct": false`) when a cell's simulated
//! output differs between rounds, between its traced and untraced replay,
//! or from the digest recorded in `references.json` for the same seed and
//! length; a seed without a recording is checked through an extra round at
//! the lowest recorded seed. `--record-seeds <n>` records seeds `0..n` of
//! the workload instead of measuring. The last line of standard output is
//! a JSON object with `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod kernels;
mod probe;
mod reference;
mod replay;
mod stats;
mod timed;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use esp_core::{FtlConfig, FtlStats};
use esp_sim::Json;

use crate::probe::Probe;
use crate::reference::{Digests, References};
use crate::replay::{replay, Replay};
use crate::stats::{digest, median, percentile, ratio};
use crate::timed::Tally;
use crate::workloads::{Cell, Workload};

/// Rounds a run makes at least, whatever `--seconds` says. The first is
/// a warm-up and is left out of every timing.
const MIN_ROUNDS: usize = 4;

const USAGE: &str = "usage: perfbench --workload <smallsync|bulk_big|tenants_open> \
                     --seed <n> --seconds <s> --trace <0|1> | --workload <name> --record-seeds <n>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_seeds: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SmallSync,
        seed: 0,
        seconds: 10.0,
        trace: false,
        record_seeds: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--record-seeds" => args.record_seeds = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One round: the inputs generated once, then every cell replayed on a
/// fresh FTL (and, in traced runs, every cell once more through the timing
/// wrapper).
struct Round {
    generate_s: f64,
    /// Probe seconds before the inputs are generated, after they are, and
    /// after each cell's untraced replay: step `k` (0 = generation, then
    /// the cells) sits between probes `k` and `k + 1`.
    probe_s: Vec<f64>,
    untraced: Vec<Replay>,
    traced: Vec<Replay>,
}

impl Round {
    fn run(
        w: Workload,
        cells: &[Cell],
        base: &FtlConfig,
        seed: u64,
        traced: bool,
        probe: &mut Probe,
    ) -> Round {
        let mut probe_s = vec![probe.run()];
        let t = Instant::now();
        let inputs = w.inputs(seed, w.length());
        let generate_s = t.elapsed().as_secs_f64();
        probe_s.push(probe.run());
        let mut untraced = Vec::new();
        for cell in cells {
            untraced.push(replay(cell, base, &inputs[cell.input], false));
            probe_s.push(probe.run());
        }
        let traced = if traced {
            cells
                .iter()
                .map(|cell| replay(cell, base, &inputs[cell.input], true))
                .collect()
        } else {
            Vec::new()
        };
        Round {
            generate_s,
            probe_s,
            untraced,
            traced,
        }
    }

    /// How many times slower than the reference host the host ran during
    /// step `k` (0 = input generation, `i + 1` = cell `i`'s untraced
    /// replay): the mean of the two probes around it over
    /// [`probe::REFERENCE_S`].
    fn slowdown(&self, k: usize) -> f64 {
        (self.probe_s[k] + self.probe_s[k + 1]) / 2.0 / probe::REFERENCE_S
    }

    fn requests(&self) -> u64 {
        self.untraced.iter().map(|r| r.report.requests).sum()
    }

    fn replay_s(replays: &[Replay]) -> f64 {
        replays.iter().map(|r| r.replay_s).sum()
    }

    fn req_per_s(&self) -> f64 {
        self.requests() as f64 / Round::replay_s(&self.untraced)
    }

    fn digests(&self, cells: &[Cell]) -> Digests {
        cells
            .iter()
            .zip(&self.untraced)
            .map(|(c, r)| (c.label.clone(), digest(&r.output)))
            .collect()
    }
}

/// A reported metric: name, value and unit.
type Metric = (&'static str, f64, &'static str);

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Checks the simulated outputs: every round equals the first, every
/// traced replay equals its untraced twin, and the first round equals the
/// recorded reference. Returns one message per problem.
fn check_outputs(
    w: Workload,
    cells: &[Cell],
    base: &FtlConfig,
    seed: u64,
    rounds: &[Round],
    probe: &mut Probe,
) -> Vec<String> {
    let mut problems = Vec::new();
    let first = rounds[0].digests(cells);
    for (i, round) in rounds.iter().enumerate().skip(1) {
        if round.digests(cells) != first {
            problems.push(format!("round {i} output differs from round 0"));
        }
    }
    for round in rounds {
        for (cell, (u, t)) in cells.iter().zip(round.untraced.iter().zip(&round.traced)) {
            if u.output != t.output {
                problems.push(format!(
                    "`{}`: traced output differs from untraced",
                    cell.label
                ));
            }
        }
    }
    let refs = match References::load() {
        Ok(r) => r,
        Err(e) => return vec![format!("references.json: {e}")],
    };
    let length = w.length();
    if let Some(p) = refs.check(w.name(), length, seed, &first) {
        problems.extend(p);
    } else if let Some(&fallback) = refs.seeds(w.name(), length).first() {
        println!("seed {seed} has no recorded reference; checking recorded seed {fallback}");
        let got = Round::run(w, cells, base, fallback, false, probe).digests(cells);
        problems.extend(
            refs.check(w.name(), length, fallback, &got)
                .unwrap_or_default(),
        );
    } else {
        problems.push(format!(
            "no reference recorded for {} at {length} requests; run --record-seeds",
            w.name()
        ));
    }
    problems
}

/// Step `k`'s time `f` scaled to the reference host: the median over the
/// half of `rounds` in which the probes found the host fastest during that
/// step, of `f` divided by the slowdown.
///
/// Host speed on a shared machine moves by up to a factor of two between
/// regimes that outlast a run, so neither a median nor the fastest round
/// of raw times repeats from run to run. Dividing by the slowdown the
/// probes measured around the same step removes most of that. The probe
/// slows a little less than the replay does, so the slower half of the
/// rounds, where that shortfall is largest, is left out; the median of
/// the rest removes what is left of short disturbances.
fn step_scaled(rounds: &[Round], k: usize, f: impl Fn(&Round) -> f64) -> f64 {
    let mut by_speed: Vec<(f64, f64)> = rounds
        .iter()
        .map(|r| (r.slowdown(k), f(r) / r.slowdown(k)))
        .collect();
    by_speed.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_speed.truncate(by_speed.len().div_ceil(2));
    median(&mut by_speed.into_iter().map(|(_, t)| t).collect::<Vec<_>>())
}

/// Input generation seconds scaled to the reference host.
fn generate_scaled(rounds: &[Round]) -> f64 {
    step_scaled(rounds, 0, |r| r.generate_s)
}

/// Each cell's `f` scaled to the reference host, summed over the cells.
fn cells_scaled(rounds: &[Round], f: impl Fn(&Replay) -> f64) -> f64 {
    (0..rounds[0].untraced.len())
        .map(|i| step_scaled(rounds, i + 1, |r| f(&r.untraced[i])))
        .sum()
}

/// Requests per second of replay on the reference host: all cells'
/// requests over the sum of each cell's scaled median replay.
fn req_per_s(rounds: &[Round]) -> f64 {
    rounds[0].requests() as f64 / cells_scaled(rounds, |r| r.replay_s)
}

/// Requests per second of replay as measured on this host: all cells'
/// requests over the sum of each cell's raw median replay.
fn raw_req_per_s(rounds: &[Round]) -> f64 {
    let replay_s: f64 = (0..rounds[0].untraced.len())
        .map(|i| median_of(rounds, |r| r.untraced[i].replay_s))
        .sum();
    rounds[0].requests() as f64 / replay_s
}

/// Seconds of set-up per round on the reference host: scaled input
/// generation plus each cell's scaled construction and preconditioning.
fn setup_s(rounds: &[Round]) -> f64 {
    generate_scaled(rounds) + cells_scaled(rounds, |r| r.build_s + r.precondition_s)
}

fn end_to_end(rounds: &[Round], peak_rss: f64) -> Vec<Metric> {
    vec![
        ("req_per_s", req_per_s(rounds), "1/s"),
        ("setup_s", setup_s(rounds), "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
    ]
}

fn per_layer(rounds: &[Round], base: &FtlConfig) -> Vec<Metric> {
    let first = &rounds[0].untraced;
    let requests = first.iter().map(|r| r.report.requests).sum::<u64>() as f64;
    let per_req = |f: &dyn Fn(&Replay) -> u64| first.iter().map(f).sum::<u64>() as f64 / requests;
    let stats = first
        .iter()
        .fold(FtlStats::new(), |acc, r| acc.plus(&r.report.stats));
    let (hits, lookups, evictions) = first
        .iter()
        .filter_map(|r| r.map_cache)
        .fold((0, 0, 0), |(h, l, e), c| {
            (h + c.hits, l + c.hits + c.misses, e + c.evictions)
        });

    let mut tally = Tally::default();
    let (mut traced_s, mut traced_requests) = (0.0, 0u64);
    for round in rounds {
        for r in &round.traced {
            tally.merge(r.tally.as_ref().expect("traced replays carry a tally"));
            traced_s += r.replay_s;
            traced_requests += r.report.requests;
        }
    }
    let traced_ns = traced_s * 1e9;
    let self_ns = traced_ns - tally.ftl_ns() as f64;
    let traced_requests = traced_requests as f64;
    let overhead = median_of(rounds, |r| {
        Round::replay_s(&r.traced) / Round::replay_s(&r.untraced) - 1.0
    });

    let ssd = kernels::ssd_costs(&base.geometry);
    let calendar = kernels::calendar_cost();
    let hdr = kernels::hdr_record_cost();
    let full_programs = per_req(&|r| r.report.programs.0);
    let subpage_programs = per_req(&|r| r.report.programs.1);
    let reads = per_req(&|r| r.nand_reads);
    let erases = per_req(&|r| r.report.erases);
    // The isolated kernels are raw host times, so they are set against the
    // raw replay time.
    let untraced_ns_per_req = 1e9 / raw_req_per_s(rounds);
    let ssd_ns_per_req = full_programs * ssd.program_full.ns
        + subpage_programs * ssd.program_subpage.ns
        + reads * ssd.read_full.ns
        + erases * ssd.erase.ns;

    vec![
        ("workload.generate_s", generate_scaled(rounds), "s"),
        (
            "runner.precondition_s",
            cells_scaled(rounds, |r| r.precondition_s),
            "s",
        ),
        ("runner.self_ns_per_req", self_ns / traced_requests, "ns"),
        ("runner.share", self_ns / traced_ns, "fraction"),
        ("runner.traced_requests", traced_requests, "count"),
        (
            "ftl.write_ns_p50",
            percentile(&mut tally.write_ns, 0.50),
            "ns",
        ),
        (
            "ftl.write_ns_p99",
            percentile(&mut tally.write_ns, 0.99),
            "ns",
        ),
        ("ftl.write_samples", tally.write_ns.len() as f64, "count"),
        (
            "ftl.read_ns_p50",
            percentile(&mut tally.read_ns, 0.50),
            "ns",
        ),
        (
            "ftl.read_ns_p99",
            percentile(&mut tally.read_ns, 0.99),
            "ns",
        ),
        ("ftl.read_samples", tally.read_ns.len() as f64, "count"),
        (
            "ftl.maintain_ns_per_req",
            tally.maintain_ns as f64 / traced_requests,
            "ns",
        ),
        ("ftl.waf", stats.total_waf(), "ratio"),
        ("ftl.rmw_ops", stats.rmw_operations as f64, "count"),
        (
            "gc.fg_share",
            tally.gc_write_ns as f64 / traced_ns,
            "fraction",
        ),
        (
            "gc.fg_ns_per_gc",
            ratio(tally.gc_write_ns as f64, tally.gc_invocations as f64),
            "ns",
        ),
        ("gc.fg_samples", tally.gc_writes as f64, "count"),
        (
            "gc.idle_ns_per_window",
            ratio(tally.idle_ns as f64, tally.idle_calls as f64),
            "ns",
        ),
        (
            "gc.idle_share",
            tally.idle_ns as f64 / traced_ns,
            "fraction",
        ),
        ("gc.idle_windows", tally.idle_calls as f64, "count"),
        ("gc.invocations", stats.gc_invocations as f64, "count"),
        ("gc.copied_sectors", stats.gc_copied_sectors as f64, "count"),
        (
            "map_cache.hit_rate",
            ratio(hits as f64, lookups as f64),
            "fraction",
        ),
        ("map_cache.evictions", evictions as f64, "count"),
        ("nand.full_programs_per_req", full_programs, "1/req"),
        ("nand.subpage_programs_per_req", subpage_programs, "1/req"),
        ("nand.reads_per_req", reads, "1/req"),
        ("nand.erases_per_req", erases, "1/req"),
        ("ssd.program_full_ns", ssd.program_full.ns, "ns"),
        ("ssd.program_subpage_ns", ssd.program_subpage.ns, "ns"),
        ("ssd.read_full_ns", ssd.read_full.ns, "ns"),
        ("ssd.erase_ns", ssd.erase.ns, "ns"),
        (
            "ssd.program_samples",
            ssd.program_full.samples as f64,
            "count",
        ),
        ("ssd.erase_samples", ssd.erase.samples as f64, "count"),
        (
            "ssd.est_share",
            ssd_ns_per_req / untraced_ns_per_req,
            "fraction",
        ),
        ("sim.calendar_ns_per_op", calendar.ns, "ns"),
        ("sim.hdr_record_ns", hdr.ns, "ns"),
        ("sim.samples", calendar.samples as f64, "count"),
        ("trace.overhead", overhead, "fraction"),
    ]
}

fn print_cells(cells: &[Cell], rounds: &[Round]) {
    println!(
        "{:<28} {:>9} {:>11} {:>11} {:>10} {:>12}",
        "cell", "requests", "setup ms", "replay ms", "kreq/s", "sim IOPS"
    );
    for (i, cell) in cells.iter().enumerate() {
        let setup = step_scaled(rounds, i + 1, |r| {
            r.untraced[i].build_s + r.untraced[i].precondition_s
        });
        let replay_s = step_scaled(rounds, i + 1, |r| r.untraced[i].replay_s);
        let report = &rounds[0].untraced[i].report;
        println!(
            "{:<28} {:>9} {:>11.2} {:>11.2} {:>10.1} {:>12.1}",
            cell.label,
            report.requests,
            setup * 1e3,
            replay_s * 1e3,
            report.requests as f64 / replay_s / 1e3,
            report.iops
        );
    }
}

fn record(
    w: Workload,
    cells: &[Cell],
    base: &FtlConfig,
    seeds: u64,
    probe: &mut Probe,
) -> Result<(), String> {
    let mut refs = References::load_source()?;
    for seed in 0..seeds {
        let got = Round::run(w, cells, base, seed, false, probe).digests(cells);
        refs.record(w.name(), w.length(), seed, &got);
        println!("recorded {} seed {seed}", w.name());
    }
    let path = refs.save().map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let cells = w.cells();
    let base = w.config();
    let mut probe = Probe::new();
    if let Some(seeds) = args.record_seeds {
        record(w, &cells, &base, seeds, &mut probe)?;
        return Ok(true);
    }
    println!(
        "perfbench {}: {} cells, {} requests per trace, seed {}, {} s, trace {}",
        w.name(),
        cells.len(),
        w.length(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut rounds = vec![Round::run(
        w, &cells, &base, args.seed, args.trace, &mut probe,
    )];
    // One round's peak: later rounds repeat the same allocations, so only
    // allocator noise could raise it further.
    let peak_rss = peak_rss_mib()?;
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        rounds.push(Round::run(
            w, &cells, &base, args.seed, args.trace, &mut probe,
        ));
    }
    let problems = check_outputs(w, &cells, &base, args.seed, &rounds, &mut probe);
    for p in &problems {
        println!("OUTPUT CHECK FAILED: {p}");
    }

    let all = || {
        rounds
            .iter()
            .flat_map(|r| r.untraced.iter().chain(&r.traced))
    };
    let attempted: u64 = all().map(|r| r.report.requests).sum();
    let failed: u64 = all().map(Replay::failed).sum();
    let timed = &rounds[1..];
    print_cells(&cells, timed);
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        rounds
            .iter()
            .map(|r| format!("{:.0}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "rounds {} (first is warm-up), raw kreq/s per round: {}",
        rounds.len(),
        per_round(&|r| r.req_per_s() / 1e3)
    );
    println!(
        "scaled kreq/s per round: {}",
        per_round(&|r| {
            let scaled: f64 = (0..cells.len())
                .map(|i| r.untraced[i].replay_s / r.slowdown(i + 1))
                .sum();
            r.requests() as f64 / scaled / 1e3
        })
    );
    println!(
        "median probe us per round: {}",
        per_round(&|r| median(&mut r.probe_s.clone()) * 1e6)
    );
    println!(
        "{:<30} {:>18.6} 1/s (medians of raw replay times)",
        "raw_req_per_s",
        raw_req_per_s(timed)
    );
    let metrics = if args.trace {
        per_layer(timed, &base)
    } else {
        end_to_end(timed, peak_rss)
    };
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>18.6} {unit}");
    }
    println!(
        "{:<30} {:>18.6} fraction ({failed} of {attempted} requests)",
        "failed_frac",
        failed as f64 / attempted as f64
    );
    let correct = problems.is_empty();
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced and an untraced replay of every cell of every workload,
    /// at a short length, produce identical simulated output. Run with
    /// `cargo test --release`: `bulk_big` preconditions a 4 GiB device
    /// per cell.
    #[test]
    fn traced_and_untraced_replays_agree() {
        for w in Workload::ALL {
            let base = w.config();
            let inputs = w.inputs(7, 2_000);
            for cell in w.cells() {
                let input = &inputs[cell.input];
                let plain = replay(&cell, &base, input, false);
                let traced = replay(&cell, &base, input, true);
                assert_eq!(plain.output, traced.output, "{}: {}", w.name(), cell.label);
                let tally = traced.tally.expect("traced replay carries a tally");
                assert!(tally.ftl_ns() > 0, "{}: nothing timed", cell.label);
            }
        }
    }
}
