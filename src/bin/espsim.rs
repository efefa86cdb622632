//! `espsim` — command-line front end for the ESP/subFTL simulator.
//!
//! ```text
//! espsim run      --ftl sub --benchmark varmail --requests 50000 --qd 8
//! espsim compare  --benchmark sysbench --requests 40000
//! espsim gen      --out trace.txt --benchmark postmark --requests 10000
//! espsim replay   --ftl sub --trace trace.txt
//! ```
//!
//! Run `espsim help` for every flag. All runs are deterministic for a given
//! `--seed`.

use std::collections::HashMap;
use std::error::Error;
use std::fs::File;
use std::process::ExitCode;

use esp_storage::array::{shard_configs, ArrayConfig, EspArray, KillSpec};
use esp_storage::ftl::{
    precondition, random_workload, run_tenants_qd, run_trace_qd, BenchReport, CgmFtl, CrashHarness,
    CrashOp, CrashTarget, FgmFtl, Ftl, FtlConfig, GcPolicyKind, MapCacheConfig, RunReport,
    SectorLogFtl, SubFtl, TenantConfig, TenantReport, TenantSet,
};
use esp_storage::nand::{FaultConfig, Geometry, RetryLadder};
use esp_storage::sim::SimDuration;
use esp_storage::sim::{Json, Rng};
use esp_storage::workload::{
    generate, load_msr_tenants, load_msr_trace, load_trace, save_trace, ArrivalModel, Benchmark,
    MsrOptions, SyntheticConfig, Trace,
};

const HELP: &str = "\
espsim — erase-free subpage programming (ESP/subFTL) simulator

USAGE:
    espsim <COMMAND> [FLAGS]

COMMANDS:
    run          replay a workload through one FTL and print a report
    compare      replay the same workload through all four FTLs
    gen          generate a trace file
    replay       replay a saved trace file (use with --trace / --msr)
    stats        print the characteristics of a workload (r_small, r_synch, ...)
    crash-sweep  cut a workload at many NAND commands, remount after each
                 cut, and check the sync-durability contract
    help         print this text

WORKLOAD FLAGS (run / compare / gen):
    --benchmark <name>   sysbench | varmail | postmark | ycsb | tpcc
    --rsmall <0..1>      custom mix instead of a benchmark profile
    --rsynch <0..1>        (with --rsmall; defaults 1.0 / 1.0)
    --read-fraction <0..1>  reads in the custom mix       [default 0]
    --requests <n>       request count           [default 20000]
    --footprint <n>      logical sectors the generated workload touches
                         [default: 62.5% of logical capacity; per tenant
                         in tenant mode]
    --seed <n>           RNG seed                [default 42]
    --trace <file>       replay this esp-trace file instead of generating
    --msr <file>         import an MSR-Cambridge CSV block trace
    --msr-rsynch <0..1>  sync probability for imported small writes [0.5]
    --msr-disk <n>       import only this disk number (a comma list
                         replays each disk as its own tenant, see below)
    --take <n>           keep only the first n requests of the workload
    --time-scale <f>     compress (>1) / stretch (<1) arrival times
    --arrival-rate <r>   restamp arrivals as a Poisson open-arrival
                         process at r requests/second (an *open* host:
                         load is offered independently of completions;
                         default keeps the workload's own timestamps)
    --arrival-model <m>  restamp arrivals with a named process (excludes
                         --arrival-rate): closed | poisson:<r> |
                         onoff:<r>:<on_ms>:<off_ms> |
                         diurnal:<trough>:<peak>:<period_s>

TENANT / QOS FLAGS (run / replay; single device only — see DESIGN.md §13):
    --tenants <n>        replay n synthetic tenants concurrently through
                         one device with weighted-fair (DRR) scheduling
    --msr-disk <a,b,..>  (with --msr) replay several MSR disk numbers as
                         concurrent tenants on disjoint LBA slices
    --tenant-weight <w,..>  DRR weights, one per tenant      [default 1]
    --tenant-rate <r,..>    token-bucket admission rate per tenant in
                         requests/second; 0 = unlimited      [default 0]
    --tenant-burst <b,..>   token-bucket burst, requests    [default 16]
    --tenant-slo <ms,..>    response-time SLO target, milliseconds;
                         0 = no SLO tracked                  [default 0]
    --arrival-model <m,..>  per-tenant arrival process (forms above)

    Per-tenant lists are comma-separated; a single value applies to every
    tenant. One tenant with default QoS replays bit-identically to a
    plain `run`. Per-tenant rows (throughput, response percentiles, SLO
    attainment) are printed and embedded in the --json report.

DEVICE / FTL FLAGS:
    --ftl <name>         sub | cgm | fgm | sectorlog   [default sub]
    --qd <n>             host queue depth, 1..65536    [default 8]
    --fill <0..1>        preconditioning fill          [default 0.625]
    --geometry <CxWxBxP> channels x ways x blocks/chip x pages/block
                         [default 8x4x16x64]
    --op <0..1>          over-provisioning (hidden capacity) [default 0.25]
    --planes <n>         planes per chip               [default 1]
    --gc-policy <name>   GC victim selection: greedy | cost-benefit |
                         windowed-greedy               [default greedy]
    --background-gc <bool>  collect into host idle windows (all FTLs)
                                                       [default false]
    --map-cache <n>      demand-cache the page map (cgm / fgm): keep n
                         translation pages resident (DFTL-style CMT,
                         n >= 2); miss / evict traffic is charged to
                         the device timeline            [default off]
    --out <file>         (gen) output path

OBSERVABILITY FLAGS (run / compare / replay):
    --json <file>        also write a machine-readable BENCH report
                         (schema `esp-bench`, see DESIGN.md §8)
    --events <n>         (run / replay) record per-op trace events in a
                         ring of capacity n and embed the newest ones in
                         the --json report

READ-RELIABILITY FLAGS (run / compare / replay):
    --read-disturb <f>   per-read disturb added to each block's normalized
                         BER, reset by erase (try 1e-3)      [default 0]
    --retry-ladder <v>   read-retry ladder: `on` for the paper default
                         (4 hard steps, +0.15 uplift each, soft decode at
                         2x), or `S:U:V` = steps:uplift:soft-uplift
    --reclaim-threshold <n>  relocate data whose read needed >= n ladder
                         steps, and patrol-scrub disturbed blocks
                         (requires --retry-ladder)
    --read-only-on-loss <bool>  latch the FTL read-only after the first
                         uncorrectable host read           [default false]

WEAR / LIFETIME FLAGS (run / compare / replay):
    --wear-leveling <bool>  wear-aware GC victim selection plus static
                         cold-block rotation               [default false]
    --adaptive-erase <bool>  AERO-style shallow erases for lightly-worn
                         blocks: less cell stress, faster erase, tracked
                         as fractional P/E                 [default false]
    --wear-delta <n>     max-min effective-P/E spread tolerated before a
                         cold block is rotated (with --wear-leveling)
                                                           [default 20]

ARRAY FLAGS (run / replay):
    --array <n>          stripe the host space across n simulated SSDs
                         (each shard is a full --ftl + device stack)
    --parity <bool>      rotating parity, RAID-5 style: survive one
                         device loss via reconstruction   [default true]
    --spare <bool>       keep a hot spare and rebuild onto it after a
                         device loss                      [default true]
    --chunk <n>          stripe chunk in 4 KB sectors     [default 4]
    --rebuild-interval-us <n>  throttle: minimum gap between background
                         rebuild stripes, microseconds    [default 200]
    --fail-on-eol <bool> retire a shard whose FTL latches end of life
                                                          [default false]
    --kill-device <d>    arm device d's death latch (0-based; the spare,
                         when armed, is the last device)
    --kill-at-op <n>     the armed device fails after n NAND commands,
                         preconditioning included  [default 1000 when
                         --kill-device is given without --kill-at-pe]
    --kill-at-pe <n>     ... or when any block reaches n P/E cycles

FAULT-INJECTION FLAGS (run / compare / replay / crash-sweep):
    --pfail <0..1>       per-program failure probability     [default 0]
    --efail <0..1>       per-erase failure probability (the block is then
                         retired as a grown bad block)       [default 0]
    --bad-blocks <n>     factory-marked bad blocks           [default 0]
    --fault-seed <n>     fault RNG seed                      [default 1]

CRASH-SWEEP FLAGS:
    --ftl <name>         sub | cgm | fgm | sectorlog | all  [default all]
    --requests <n>       workload operations                [default 2000]
    --footprint <n>      logical sectors the workload touches
                         [default: logical capacity / 16]
    --sweep <n>          exhaustive crash points over the first n NAND
                         commands                           [default 200]
    --random <n>         seeded-random crash points beyond  [default 500]
    --crash-at <n>       check one crash point only (skips the sweep)
    --crash-seed <n>     workload and sweep RNG seed        [default 42]

    The sweep replays the workload once per crash point, cuts power on the
    nth NAND command (leaving the mid-flight page torn), remounts, and
    checks that every synced sector survives, nothing reads back corrupt,
    and recovery is idempotent. subFTL is swept in its crash-safe mode
    (`crash_safe_mode`); the default fast path trades a documented
    durability window for speed (see DESIGN.md).
";

fn main() -> ExitCode {
    match run_cli() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("espsim: {e}");
            eprintln!("run `espsim help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `--flag value` pairs.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, Box<dyn Error>> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`").into());
            };
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Box<dyn Error>>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("bad value for --{name}: {e}").into()),
        }
    }
}

fn run_cli() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        println!("{HELP}");
        return Ok(());
    };
    let flags = Flags::parse(&args[1..])?;
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        "run" => cmd_run(&flags, false),
        "replay" => cmd_run(&flags, true),
        "compare" => cmd_compare(&flags),
        "gen" => cmd_gen(&flags),
        "stats" => cmd_stats(&flags),
        "crash-sweep" => cmd_crash_sweep(&flags),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

fn config_from(flags: &Flags) -> Result<FtlConfig, Box<dyn Error>> {
    let geo = flags.get("geometry").unwrap_or("8x4x16x64");
    let parts: Vec<u32> = geo
        .split('x')
        .map(|p| p.parse::<u32>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad --geometry `{geo}`: {e}"))?;
    let [channels, ways, bpc, ppb] = parts.as_slice() else {
        return Err(format!("--geometry wants CxWxBxP, got `{geo}`").into());
    };
    let mut cfg = FtlConfig {
        geometry: Geometry {
            channels: *channels,
            chips_per_channel: *ways,
            blocks_per_chip: *bpc,
            pages_per_block: *ppb,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        },
        overprovision: flags.parse_or("op", 0.25)?,
        planes_per_chip: flags.parse_or("planes", 1)?,
        ..FtlConfig::paper_default()
    };
    let pfail: f64 = flags.parse_or("pfail", 0.0)?;
    let efail: f64 = flags.parse_or("efail", 0.0)?;
    let bad_blocks: u32 = flags.parse_or("bad-blocks", 0)?;
    // `!= 0.0`, not `> 0.0`: a negative probability must reach the
    // FaultConfig validator and be rejected, not be silently ignored.
    if pfail != 0.0 || efail != 0.0 || bad_blocks > 0 || flags.get("fault-seed").is_some() {
        cfg.fault = Some(FaultConfig {
            seed: flags.parse_or("fault-seed", 1)?,
            program_fail_prob: pfail,
            erase_fail_prob: efail,
            factory_bad_blocks: bad_blocks,
            ..FaultConfig::default()
        });
    }
    let read_disturb: f64 = flags.parse_or("read-disturb", 0.0)?;
    if !(read_disturb.is_finite() && read_disturb >= 0.0) {
        return Err(
            format!("--read-disturb must be finite and non-negative, got {read_disturb}").into(),
        );
    }
    if read_disturb != 0.0 {
        cfg.retention = cfg.retention.clone().with_read_disturb(read_disturb);
    }
    if let Some(v) = flags.get("retry-ladder") {
        cfg.retry_ladder = Some(ladder_from(v)?);
    }
    if let Some(v) = flags.get("reclaim-threshold") {
        let t: u32 = v
            .parse()
            .map_err(|e| format!("bad --reclaim-threshold: {e}"))?;
        cfg.reclaim_threshold = Some(t);
    }
    cfg.read_only_on_loss = flags.parse_or("read-only-on-loss", false)?;
    cfg.wear_leveling = flags.parse_or("wear-leveling", false)?;
    cfg.adaptive_erase = flags.parse_or("adaptive-erase", false)?;
    cfg.wear_delta_threshold = flags.parse_or("wear-delta", cfg.wear_delta_threshold)?;
    cfg.background_gc = flags.parse_or("background-gc", false)?;
    if let Some(v) = flags.get("gc-policy") {
        cfg.gc_policy = v
            .parse::<GcPolicyKind>()
            .map_err(|e| format!("bad --gc-policy: {e}"))?;
    }
    if let Some(v) = flags.get("map-cache") {
        let pages: usize = v
            .parse()
            .map_err(|_| format!("bad --map-cache `{v}`: expected a page count"))?;
        cfg.map_cache = Some(MapCacheConfig { cmt_pages: pages });
    }
    cfg.validate().map_err(|e| format!("invalid config: {e}"))?;
    Ok(cfg)
}

/// Parses `--retry-ladder`: `on`/`default` for the paper ladder, or a
/// `steps:uplift:soft-uplift` triple (e.g. `4:0.15:1.0`).
fn ladder_from(v: &str) -> Result<RetryLadder, Box<dyn Error>> {
    if matches!(v, "on" | "default" | "paper") {
        return Ok(RetryLadder::paper_default());
    }
    let parts: Vec<&str> = v.split(':').collect();
    let [steps, uplift, soft] = parts.as_slice() else {
        return Err(format!("--retry-ladder wants `on` or S:U:V, got `{v}`").into());
    };
    Ok(RetryLadder {
        hard_steps: steps
            .parse()
            .map_err(|e| format!("bad ladder steps: {e}"))?,
        step_uplift: uplift
            .parse()
            .map_err(|e| format!("bad ladder uplift: {e}"))?,
        soft_uplift: soft
            .parse()
            .map_err(|e| format!("bad ladder soft uplift: {e}"))?,
    })
}

fn build_ftl(name: &str, cfg: &FtlConfig) -> Result<Box<dyn Ftl>, Box<dyn Error>> {
    Ok(match name {
        "sub" => Box::new(SubFtl::new(cfg)),
        "cgm" => Box::new(CgmFtl::new(cfg)),
        "fgm" => Box::new(FgmFtl::new(cfg)),
        "sectorlog" => Box::new(SectorLogFtl::new(cfg)),
        other => return Err(format!("unknown --ftl `{other}`").into()),
    })
}

fn benchmark_from(name: &str) -> Result<Benchmark, Box<dyn Error>> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "sysbench" => Benchmark::Sysbench,
        "varmail" => Benchmark::Varmail,
        "postmark" => Benchmark::Postmark,
        "ycsb" => Benchmark::Ycsb,
        "tpcc" | "tpc-c" => Benchmark::TpcC,
        other => return Err(format!("unknown --benchmark `{other}`").into()),
    })
}

fn trace_from(flags: &Flags, cfg: &FtlConfig, force_file: bool) -> Result<Trace, Box<dyn Error>> {
    let postprocess = |mut t: Trace| -> Result<Trace, Box<dyn Error>> {
        if let Some(n) = flags.get("take") {
            let n: usize = n.parse().map_err(|e| format!("bad --take: {e}"))?;
            t = t.take(n);
        }
        if let Some(f) = time_scale_from(flags)? {
            t = t.scale_time(f);
        }
        if let Some(r) = flags.get("arrival-rate") {
            if flags.get("arrival-model").is_some() {
                return Err("--arrival-rate and --arrival-model are mutually exclusive".into());
            }
            let rate: f64 = r.parse().map_err(|e| format!("bad --arrival-rate: {e}"))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err("--arrival-rate must be positive".into());
            }
            // Seed forked off --seed so the arrival process is independent
            // of the address/size streams but still reproducible.
            let seed: u64 = flags.parse_or("seed", 42)?;
            t = t.with_poisson_arrivals(rate, seed ^ 0xA221_7A1E);
        }
        if let Some(m) = flags.get("arrival-model") {
            let model: ArrivalModel = m.parse()?;
            let seed: u64 = flags.parse_or("seed", 42)?;
            t = model.apply(&t, seed ^ 0xA221_7A1E);
        }
        Ok(t)
    };
    if let Some(path) = flags.get("msr") {
        let opts = MsrOptions {
            r_synch: msr_rsynch(flags)?,
            disk: match flags.get("msr-disk") {
                None => None,
                Some(v) => Some(v.parse().map_err(|e| format!("bad --msr-disk: {e}"))?),
            },
            ..MsrOptions::default()
        };
        return postprocess(load_msr_trace(File::open(path)?, &opts)?);
    }
    if let Some(path) = flags.get("trace") {
        return postprocess(load_trace(File::open(path)?)?);
    }
    if force_file {
        return Err("replay needs --trace <file> or --msr <file>".into());
    }
    let requests: u64 = flags.parse_or("requests", 20_000)?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let default_footprint = (cfg.logical_sectors() as f64 * 0.625) as u64;
    let footprint: u64 = flags.parse_or("footprint", default_footprint)?;
    if footprint == 0 {
        return Err("--footprint must be nonzero".into());
    }
    if let Some(b) = flags.get("benchmark") {
        let bench = benchmark_from(b)?;
        return postprocess(generate_checked(&bench.config(footprint, requests, seed))?);
    }
    let r_small: f64 = flags.parse_or("rsmall", 1.0)?;
    let r_synch: f64 = flags.parse_or("rsynch", 1.0)?;
    let read_fraction: f64 = flags.parse_or("read-fraction", 0.0)?;
    postprocess(generate_checked(&SyntheticConfig {
        footprint_sectors: footprint,
        requests,
        r_small,
        r_synch,
        read_fraction,
        zipf_theta: 0.9,
        small_zone_sectors: Some((footprint / 64).max(64)),
        rewrite_distance: 512,
        seed,
        ..SyntheticConfig::default()
    })?)
}

/// Generates a synthetic workload, returning the config error that
/// [`generate`] would panic on.
fn generate_checked(config: &SyntheticConfig) -> Result<Trace, Box<dyn Error>> {
    config
        .validate()
        .map_err(|e| format!("invalid workload: {e}"))?;
    Ok(generate(config))
}

/// Parses `--time-scale`, which must be finite and positive.
fn time_scale_from(flags: &Flags) -> Result<Option<f64>, Box<dyn Error>> {
    let Some(v) = flags.get("time-scale") else {
        return Ok(None);
    };
    let f: f64 = v.parse().map_err(|e| format!("bad --time-scale: {e}"))?;
    if !(f.is_finite() && f > 0.0) {
        return Err(format!("--time-scale must be finite and positive, got {v}").into());
    }
    Ok(Some(f))
}

/// Parses `--msr-rsynch`, the sync probability of imported small writes
/// (a fraction in [0, 1]).
fn msr_rsynch(flags: &Flags) -> Result<f64, Box<dyn Error>> {
    let r_synch: f64 = flags.parse_or("msr-rsynch", 0.5)?;
    if !(0.0..=1.0).contains(&r_synch) {
        return Err(format!("--msr-rsynch must be in [0, 1], got {r_synch}").into());
    }
    Ok(r_synch)
}

/// Deepest host queue `--qd` accepts: the largest NVMe I/O queue.
const MAX_QD: usize = 65_536;

/// Parses `--qd` (1 to [`MAX_QD`]) and `--fill` (a fraction in [0, 1]).
fn qd_and_fill(flags: &Flags) -> Result<(usize, f64), Box<dyn Error>> {
    let qd: usize = flags.parse_or("qd", 8)?;
    // Replay allocates one in-flight entry per slot up front, so an
    // unbounded depth could ask for exabytes.
    if !(1..=MAX_QD).contains(&qd) {
        return Err(format!("--qd must be in [1, {MAX_QD}], got {qd}").into());
    }
    let fill: f64 = flags.parse_or("fill", 0.625)?;
    if !(0.0..=1.0).contains(&fill) {
        return Err(format!("--fill must be in [0, 1], got {fill}").into());
    }
    Ok((qd, fill))
}

fn print_report(r: &RunReport, lifetime: &esp_storage::ftl::FtlStats) {
    println!("=== {} ===", r.ftl);
    println!("  requests        {}", r.requests);
    println!("  simulated time  {}", r.makespan);
    println!("  IOPS            {:.0}", r.iops);
    println!("  write bandwidth {:.1} MB/s", r.write_bandwidth_mbps());
    let latency = r.latency();
    println!(
        "  latency p50/p99 {} / {}",
        SimDuration::from_nanos(latency.percentile(0.50)),
        SimDuration::from_nanos(latency.percentile(0.99))
    );
    println!("  erases          {}", r.erases);
    println!("  GC invocations  {}", r.stats.gc_invocations);
    println!("  RMW operations  {}", r.stats.rmw_operations);
    println!(
        "  programs        {} full / {} subpage",
        r.programs.0, r.programs.1
    );
    println!(
        "  small writes    {:.1}%",
        r.stats.small_write_fraction() * 100.0
    );
    println!("  request WAF     {:.3}", r.stats.small_request_waf());
    println!("  total WAF       {:.3}", r.stats.total_waf());
    println!("  read faults     {}", r.stats.read_faults);
    if r.stats.read_faults > 0 {
        println!(
            "    by cause      {} retention / {} torn / {} destroyed / {} injected",
            r.stats.read_faults_retention,
            r.stats.read_faults_torn,
            r.stats.read_faults_destroyed,
            r.stats.read_faults_injected
        );
    }
    if r.recovered_reads > 0 || r.retry_steps > 0 || r.soft_decodes > 0 {
        println!(
            "  retry ladder    {} recovered reads ({} hard steps, {} soft decodes)",
            r.recovered_reads, r.retry_steps, r.soft_decodes
        );
    }
    if r.stats.read_reclaims > 0 || r.stats.disturb_scrubs > 0 {
        println!(
            "  read reclaim    {} page reclaims, {} blocks scrubbed",
            r.stats.read_reclaims, r.stats.disturb_scrubs
        );
    }
    if lifetime.read_only_trips > 0 {
        println!(
            "  read-only latch tripped ({} writes dropped)",
            lifetime.writes_dropped_read_only
        );
    }
    println!(
        "  block wear      {}..{} P/E (mean {:.1}, delta {})",
        r.wear.min_pe,
        r.wear.max_pe,
        r.wear.mean_pe,
        r.wear.delta_pe()
    );
    if r.wear.shallow_erases > 0 || r.stats.wear_level_migrations > 0 {
        println!(
            "  wear leveling   {} shallow erases, {} cold-block rotations",
            r.wear.shallow_erases, r.stats.wear_level_migrations
        );
    }
    if lifetime.end_of_life_trips > 0 {
        println!(
            "  end of life     latched ({} OP shrinks, {} writes dropped)",
            lifetime.op_shrinks, lifetime.writes_dropped_end_of_life
        );
    }
    // Non-zero only for mounts of a crashed image: pages cut mid-program
    // are quarantined (and still cost scan reads) at recovery time.
    if lifetime.torn_pages_quarantined > 0 {
        println!("  torn quarantine {}", lifetime.torn_pages_quarantined);
    }
    // Fault-handling counters are lifetime totals: mount-time bad-block
    // retirement and preconditioning retries happen before the timed run.
    if lifetime.program_failures + lifetime.erase_failures + lifetime.blocks_retired > 0 {
        println!("  write retries   {}", lifetime.write_retries);
        println!(
            "  flash failures  {} program / {} erase",
            lifetime.program_failures, lifetime.erase_failures
        );
        println!("  blocks retired  {}", lifetime.blocks_retired);
    }
}

/// One-line demand-cache summary after the main report; silent when the
/// FTL runs without `--map-cache`.
fn print_map_cache(ftl: &dyn Ftl) {
    if let Some(s) = ftl.map_cache_stats() {
        println!(
            "  map cache       {:.1}% hit ({} miss, {} dirty evict, {} TP programs)",
            s.hit_rate() * 100.0,
            s.misses,
            s.dirty_evictions,
            s.tp_programs
        );
    }
}

fn check_capacity(trace: &Trace, logical_sectors: u64) -> Result<(), Box<dyn Error>> {
    if trace.footprint_sectors > logical_sectors {
        return Err(format!(
            "trace footprint ({} sectors) exceeds the device's logical \
             capacity ({logical_sectors} sectors); pick a larger --geometry",
            trace.footprint_sectors,
        )
        .into());
    }
    Ok(())
}

/// Whether the flags select the multi-tenant front end: `--tenants <n>`
/// for synthetic tenants, or a comma list in `--msr-disk` for
/// tenant-per-disk MSR replay.
fn tenant_mode(flags: &Flags) -> bool {
    flags.get("tenants").is_some() || flags.get("msr-disk").is_some_and(|v| v.contains(','))
}

/// Splits a per-tenant flag into `n` optional values: absent flag →
/// all `None`; one value → broadcast to every tenant; otherwise the
/// comma list must have exactly `n` entries.
fn per_tenant(flags: &Flags, name: &str, n: usize) -> Result<Vec<Option<String>>, Box<dyn Error>> {
    let Some(v) = flags.get(name) else {
        return Ok(vec![None; n]);
    };
    let parts: Vec<&str> = v.split(',').collect();
    if parts.len() == 1 {
        return Ok(vec![Some(parts[0].to_string()); n]);
    }
    if parts.len() != n {
        return Err(format!(
            "--{name} lists {} values but the run has {n} tenants",
            parts.len()
        )
        .into());
    }
    Ok(parts.into_iter().map(|p| Some(p.to_string())).collect())
}

/// Builds the [`TenantSet`] for a tenant-mode run: per-disk MSR replay
/// when `--msr` is given, otherwise `--tenants` synthetic workloads, each
/// postprocessed (`--take` / `--time-scale` / `--arrival-model`) and
/// paired with its QoS settings.
fn tenant_set_from(flags: &Flags, cfg: &FtlConfig) -> Result<TenantSet, Box<dyn Error>> {
    if flags.get("arrival-rate").is_some() {
        return Err(
            "tenant mode uses --arrival-model (e.g. poisson:<r>), not --arrival-rate".into(),
        );
    }
    let seed: u64 = flags.parse_or("seed", 42)?;
    let (names, traces): (Vec<String>, Vec<Trace>) = if let Some(path) = flags.get("msr") {
        let list = flags
            .get("msr-disk")
            .ok_or("tenant MSR replay needs --msr-disk <a,b,...>")?;
        let disks: Vec<u32> = list
            .split(',')
            .map(|d| d.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad --msr-disk `{list}`: {e}"))?;
        let opts = MsrOptions {
            r_synch: msr_rsynch(flags)?,
            seed,
            ..MsrOptions::default()
        };
        let traces = load_msr_tenants(File::open(path)?, &disks, &opts)?;
        (disks.iter().map(|d| format!("disk{d}")).collect(), traces)
    } else {
        if flags.get("trace").is_some() {
            return Err("--tenants replays synthetic or --msr workloads, not --trace files".into());
        }
        let n: usize = flags.parse_or("tenants", 1)?;
        if n == 0 {
            return Err("--tenants must be at least 1".into());
        }
        let requests: u64 = flags.parse_or("requests", 20_000)?;
        let default_footprint = ((cfg.logical_sectors() as f64 * 0.625) as u64 / n as u64).max(64);
        let footprint: u64 = flags.parse_or("footprint", default_footprint)?;
        if footprint == 0 {
            return Err("--footprint must be nonzero".into());
        }
        let mut names = Vec::new();
        let mut traces = Vec::new();
        for i in 0..n {
            // Same golden-ratio seed mixing as the MSR tenant loader:
            // tenant i's workload does not depend on who its neighbors
            // are, and tenant 0 uses --seed unchanged.
            let tseed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let trace = if let Some(b) = flags.get("benchmark") {
                generate_checked(&benchmark_from(b)?.config(footprint, requests, tseed))?
            } else {
                generate_checked(&SyntheticConfig {
                    footprint_sectors: footprint,
                    requests,
                    r_small: flags.parse_or("rsmall", 1.0)?,
                    r_synch: flags.parse_or("rsynch", 1.0)?,
                    read_fraction: flags.parse_or("read-fraction", 0.0)?,
                    zipf_theta: 0.9,
                    small_zone_sectors: Some((footprint / 64).max(64)),
                    rewrite_distance: 512,
                    seed: tseed,
                    ..SyntheticConfig::default()
                })?
            };
            names.push(format!("t{i}"));
            traces.push(trace);
        }
        (names, traces)
    };

    let n = names.len();
    let weights = per_tenant(flags, "tenant-weight", n)?;
    let rates = per_tenant(flags, "tenant-rate", n)?;
    let bursts = per_tenant(flags, "tenant-burst", n)?;
    let slos = per_tenant(flags, "tenant-slo", n)?;
    let models = per_tenant(flags, "arrival-model", n)?;
    let take: Option<usize> = match flags.get("take") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("bad --take: {e}"))?),
    };
    let time_scale = time_scale_from(flags)?;

    let mut set = TenantSet::new();
    for (i, (name, mut trace)) in names.into_iter().zip(traces).enumerate() {
        if let Some(k) = take {
            trace = trace.take(k);
        }
        if let Some(f) = time_scale {
            trace = trace.scale_time(f);
        }
        if let Some(m) = &models[i] {
            let model: ArrivalModel = m.parse()?;
            trace = model.apply(
                &trace,
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA221_7A1E,
            );
        }
        let mut tc = TenantConfig::new(&name);
        if let Some(w) = &weights[i] {
            let w: u32 = w.parse().map_err(|e| format!("bad --tenant-weight: {e}"))?;
            if w == 0 {
                return Err("--tenant-weight values must be at least 1".into());
            }
            tc = tc.weight(w);
        }
        let rate: f64 = match &rates[i] {
            None => 0.0,
            Some(r) => r.parse().map_err(|e| format!("bad --tenant-rate: {e}"))?,
        };
        if !(rate.is_finite() && rate >= 0.0) {
            return Err("--tenant-rate values must be finite and non-negative".into());
        }
        let burst: u32 = match &bursts[i] {
            None => 16,
            Some(b) => b.parse().map_err(|e| format!("bad --tenant-burst: {e}"))?,
        };
        if burst == 0 {
            return Err("--tenant-burst values must be at least 1".into());
        }
        tc = tc.limit(rate, burst);
        if let Some(s) = &slos[i] {
            let ms: f64 = s.parse().map_err(|e| format!("bad --tenant-slo: {e}"))?;
            if !(ms.is_finite() && ms >= 0.0) {
                return Err("--tenant-slo values must be finite and non-negative".into());
            }
            if ms > 0.0 {
                tc = tc.slo(SimDuration::from_nanos((ms * 1e6) as u64));
            }
        }
        set.add(tc, trace);
    }
    Ok(set)
}

/// Prints the per-tenant QoS table (`=== tenants ===`): one awk-friendly
/// row per tenant — name, weight, rate, requests, IOPS, response p99 in
/// microseconds, SLO attainment. `-` marks "not configured / no samples".
fn print_tenant_table(tenants: &[TenantReport]) {
    println!("=== tenants ===");
    println!(
        "{:>10} {:>6} {:>9} {:>9} {:>9} {:>12} {:>8}",
        "tenant", "weight", "rate", "requests", "IOPS", "p99_us", "SLO"
    );
    for t in tenants {
        let resp = t.response.summary();
        let p99 = if resp.count > 0 {
            format!("{:.0}", resp.p99 as f64 / 1000.0)
        } else {
            "-".to_string()
        };
        let slo = match t.slo_attainment() {
            Some(a) => format!("{:.3}", a),
            None => "-".to_string(),
        };
        let rate = if t.rate > 0.0 {
            format!("{:.0}", t.rate)
        } else {
            "-".to_string()
        };
        println!(
            "{:>10} {:>6} {:>9} {:>9} {:>9.0} {:>12} {:>8}",
            t.name, t.weight, rate, t.requests, t.iops, p99, slo
        );
    }
}

/// Parses the array flags; `None` when `--array` is absent (plain
/// single-device run). Array-only flags without `--array` are an error.
fn array_config_from(flags: &Flags) -> Result<Option<ArrayConfig>, Box<dyn Error>> {
    let Some(n) = flags.get("array") else {
        for f in [
            "parity",
            "spare",
            "chunk",
            "rebuild-interval-us",
            "fail-on-eol",
            "kill-device",
            "kill-at-op",
            "kill-at-pe",
        ] {
            if flags.get(f).is_some() {
                return Err(format!("--{f} needs --array <n>").into());
            }
        }
        return Ok(None);
    };
    let shards: usize = n.parse().map_err(|e| format!("bad --array: {e}"))?;
    let cfg = ArrayConfig {
        shards,
        parity: flags.parse_or("parity", true)?,
        spare: flags.parse_or("spare", true)?,
        chunk_sectors: flags.parse_or("chunk", 4)?,
        rebuild_interval: SimDuration::from_micros(flags.parse_or("rebuild-interval-us", 200)?),
        fail_on_eol: flags.parse_or("fail-on-eol", false)?,
    };
    cfg.validate().map_err(|e| format!("invalid array: {e}"))?;
    Ok(Some(cfg))
}

/// Parses `--kill-device` and its trigger flags into a death-latch arm
/// for [`shard_configs`].
fn kill_from(flags: &Flags, devices: usize) -> Result<Option<KillSpec>, Box<dyn Error>> {
    let Some(d) = flags.get("kill-device") else {
        if flags.get("kill-at-op").is_some() || flags.get("kill-at-pe").is_some() {
            return Err("--kill-at-op / --kill-at-pe need --kill-device <d>".into());
        }
        return Ok(None);
    };
    let dev: usize = d.parse().map_err(|e| format!("bad --kill-device: {e}"))?;
    if dev >= devices {
        return Err(
            format!("--kill-device {dev} out of range (array has {devices} devices)").into(),
        );
    }
    let at_pe: Option<u32> = match flags.get("kill-at-pe") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("bad --kill-at-pe: {e}"))?),
    };
    let at_op: Option<u64> = match flags.get("kill-at-op") {
        Some(v) => Some(v.parse().map_err(|e| format!("bad --kill-at-op: {e}"))?),
        None if at_pe.is_none() => Some(1000),
        None => None,
    };
    Ok(Some((dev, at_op, at_pe)))
}

fn print_array_report(arr: &EspArray) {
    let s = arr.array_stats();
    let cfg = arr.config();
    println!("=== array ===");
    println!("  state           {}", arr.health());
    println!(
        "  devices         {} active{}",
        cfg.shards,
        if cfg.spare { " + 1 spare" } else { "" }
    );
    println!(
        "  parity          {}",
        if cfg.parity {
            "rotating (RAID-5 style)"
        } else {
            "none (RAID-0)"
        }
    );
    println!("  device failures {}", s.device_failures);
    println!("  degraded reads  {}", s.degraded_reads);
    println!("  reconstructed   {} sectors", s.reconstructed_sectors);
    if s.rebuild_rows_total > 0 {
        println!(
            "  rebuild         {}/{} rows",
            s.rebuild_rows_done, s.rebuild_rows_total
        );
    }
    println!("  data loss       {}", s.data_loss_sectors());
}

/// Array health and counters for the BENCH report, so `benchcmp` and the
/// CI smoke jobs can gate on them.
fn array_extras(arr: &EspArray) -> Vec<(String, Json)> {
    let s = arr.array_stats();
    vec![
        ("array.state".into(), Json::from(arr.health().to_string())),
        ("array.devices".into(), Json::from(arr.devices())),
        (
            "array.device_failures".into(),
            Json::from(s.device_failures),
        ),
        ("array.degraded_reads".into(), Json::from(s.degraded_reads)),
        (
            "array.reconstructed_sectors".into(),
            Json::from(s.reconstructed_sectors),
        ),
        (
            "array.rebuild_rows_done".into(),
            Json::from(s.rebuild_rows_done),
        ),
        (
            "array.rebuild_rows_total".into(),
            Json::from(s.rebuild_rows_total),
        ),
        (
            "array.data_loss_sectors".into(),
            Json::from(s.data_loss_sectors()),
        ),
    ]
}

/// Starts a BENCH report carrying the run's provenance (geometry, queue
/// depth, fill, workload flags) so a later `benchcmp` knows what it is
/// comparing.
fn bench_report(name: &str, flags: &Flags, cfg: &FtlConfig, requests: u64) -> BenchReport {
    let mut b = BenchReport::new(name);
    b.meta("geometry", Json::from(format!("{}", cfg.geometry)));
    b.meta("qd", Json::from(flags.get("qd").unwrap_or("8")));
    b.meta("fill", Json::from(flags.get("fill").unwrap_or("0.625")));
    b.meta("seed", Json::from(flags.get("seed").unwrap_or("42")));
    if let Some(rate) = flags.get("arrival-rate") {
        b.meta("arrival_rate", Json::from(rate));
    }
    if let Some(model) = flags.get("arrival-model") {
        b.meta("arrival_model", Json::from(model));
    }
    if let Some(bench) = flags.get("benchmark") {
        b.meta("benchmark", Json::from(bench));
    }
    b.meta("requests", Json::from(requests));
    if cfg.wear_leveling {
        b.meta("wear_leveling", Json::from(true));
        b.meta("wear_delta", Json::from(cfg.wear_delta_threshold));
    }
    if cfg.adaptive_erase {
        b.meta("adaptive_erase", Json::from(true));
    }
    if cfg.background_gc {
        b.meta("background_gc", Json::from(true));
    }
    if cfg.gc_policy != GcPolicyKind::Greedy {
        b.meta("gc_policy", Json::from(cfg.gc_policy.name()));
    }
    if let Some(mc) = &cfg.map_cache {
        b.meta("map_cache_pages", Json::from(mc.cmt_pages as u64));
    }
    b
}

/// Demand-cache counters for the BENCH report, namespaced `map_cache.*`
/// alongside the other extras. Empty when the FTL runs without a cache,
/// so default runs stay bit-identical to their committed baselines.
fn map_cache_extras(ftl: &dyn Ftl) -> Vec<(String, Json)> {
    let Some(s) = ftl.map_cache_stats() else {
        return Vec::new();
    };
    vec![
        ("map_cache.hits".into(), Json::from(s.hits)),
        ("map_cache.misses".into(), Json::from(s.misses)),
        ("map_cache.hit_rate".into(), Json::from(s.hit_rate())),
        ("map_cache.evictions".into(), Json::from(s.evictions)),
        (
            "map_cache.dirty_evictions".into(),
            Json::from(s.dirty_evictions),
        ),
        ("map_cache.tp_reads".into(), Json::from(s.tp_reads)),
        ("map_cache.tp_programs".into(), Json::from(s.tp_programs)),
        ("map_cache.tp_erases".into(), Json::from(s.tp_erases)),
        ("map_cache.charged_ns".into(), Json::from(s.charged_ns)),
    ]
}

/// Writes the report where `--json` points, plus the newest `--events n`
/// trace events when tracing was armed.
fn emit_json(
    flags: &Flags,
    mut bench: BenchReport,
    traced: Option<&dyn Ftl>,
) -> Result<(), Box<dyn Error>> {
    let Some(path) = flags.get("json") else {
        return Ok(());
    };
    if let Some(ftl) = traced {
        let events = ftl.events();
        bench.attach_events(&events, ftl.events_dropped());
    }
    bench.write_to(std::path::Path::new(path))?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_run(flags: &Flags, force_file: bool) -> Result<(), Box<dyn Error>> {
    let cfg = config_from(flags)?;
    let (qd, fill) = qd_and_fill(flags)?;
    let events: usize = flags.parse_or("events", 0)?;
    if tenant_mode(flags) {
        if flags.get("array").is_some() {
            return Err("tenant mode runs a single device; drop --array".into());
        }
        if force_file && flags.get("msr").is_none() {
            return Err("tenant replay needs --msr <file> with --msr-disk <a,b,...>".into());
        }
        let set = tenant_set_from(flags, &cfg)?;
        if set.footprint_sectors() > cfg.logical_sectors() {
            return Err(format!(
                "combined tenant footprint ({} sectors) exceeds the device's logical \
                 capacity ({} sectors); pick a larger --geometry or smaller --footprint",
                set.footprint_sectors(),
                cfg.logical_sectors()
            )
            .into());
        }
        let mut ftl = build_ftl(flags.get("ftl").unwrap_or("sub"), &cfg)?;
        println!("device: {} ({} tenants)", cfg.geometry, set.len());
        precondition(ftl.as_mut(), fill);
        if events > 0 {
            ftl.enable_tracing(events);
        }
        let report = run_tenants_qd(ftl.as_mut(), &set, qd);
        print_report(&report.run, ftl.stats());
        print_tenant_table(&report.tenants);
        let mut bench = bench_report("espsim_run", flags, &cfg, set.total_requests());
        bench.meta("tenants", Json::from(set.len() as u64));
        bench.push_tenant_run(
            report.run.ftl,
            &report,
            [(
                "mapping_memory_bytes".to_string(),
                Json::from(ftl.mapping_memory_bytes()),
            )],
        );
        return emit_json(flags, bench, (events > 0).then_some(ftl.as_ref()));
    }
    for f in ["tenant-weight", "tenant-rate", "tenant-burst", "tenant-slo"] {
        if flags.get(f).is_some() {
            return Err(format!("--{f} needs --tenants <n> or a multi-disk --msr-disk").into());
        }
    }
    let trace = trace_from(flags, &cfg, force_file)?;
    if let Some(acfg) = array_config_from(flags)? {
        let kill = kill_from(flags, acfg.devices())?;
        let configs = shard_configs(&cfg, acfg.devices(), kill);
        for c in &configs {
            c.validate()
                .map_err(|e| format!("invalid shard config: {e}"))?;
        }
        let kind = flags.get("ftl").unwrap_or("sub");
        let shards = configs
            .iter()
            .map(|c| build_ftl(kind, c))
            .collect::<Result<Vec<_>, _>>()?;
        let mut arr = EspArray::new(acfg, shards);
        check_capacity(&trace, arr.logical_sectors())?;
        println!("device: {} x {} shards", cfg.geometry, arr.devices());
        precondition(&mut arr, fill);
        if events > 0 {
            arr.enable_tracing(events);
        }
        let report = run_trace_qd(&mut arr, &trace, qd);
        print_report(&report, arr.stats());
        print_array_report(&arr);
        let mut bench = bench_report("espsim_run", flags, &cfg, trace.len() as u64);
        bench.meta("array", Json::from(arr.devices()));
        let mut extras = array_extras(&arr);
        extras.push((
            "mapping_memory_bytes".to_string(),
            Json::from(arr.mapping_memory_bytes()),
        ));
        bench.push_run_with(report.ftl, &report, extras);
        return emit_json(flags, bench, (events > 0).then_some(&arr as &dyn Ftl));
    }
    check_capacity(&trace, cfg.logical_sectors())?;
    let mut ftl = build_ftl(flags.get("ftl").unwrap_or("sub"), &cfg)?;
    println!("device: {}", cfg.geometry);
    precondition(ftl.as_mut(), fill);
    if events > 0 {
        ftl.enable_tracing(events);
    }
    let report = run_trace_qd(ftl.as_mut(), &trace, qd);
    print_report(&report, ftl.stats());
    print_map_cache(ftl.as_ref());
    let mut bench = bench_report("espsim_run", flags, &cfg, trace.len() as u64);
    let mut extras = vec![(
        "mapping_memory_bytes".to_string(),
        Json::from(ftl.mapping_memory_bytes()),
    )];
    extras.extend(map_cache_extras(ftl.as_ref()));
    bench.push_run_with(report.ftl, &report, extras);
    emit_json(flags, bench, (events > 0).then_some(ftl.as_ref()))
}

fn cmd_compare(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let cfg = config_from(flags)?;
    let (qd, fill) = qd_and_fill(flags)?;
    let trace = trace_from(flags, &cfg, false)?;
    check_capacity(&trace, cfg.logical_sectors())?;
    println!("device: {}", cfg.geometry);
    println!(
        "{:>14} {:>9} {:>8} {:>8} {:>12} {:>10}",
        "FTL", "IOPS", "erases", "GCs", "request WAF", "map bytes"
    );
    let mut bench = bench_report("espsim_compare", flags, &cfg, trace.len() as u64);
    for name in ["cgm", "fgm", "sectorlog", "sub"] {
        let mut ftl = build_ftl(name, &cfg)?;
        precondition(ftl.as_mut(), fill);
        let r = run_trace_qd(ftl.as_mut(), &trace, qd);
        println!(
            "{:>14} {:>9.0} {:>8} {:>8} {:>12.3} {:>10}",
            r.ftl,
            r.iops,
            r.erases,
            r.stats.gc_invocations,
            r.stats.small_request_waf(),
            ftl.mapping_memory_bytes(),
        );
        let mut extras = vec![(
            "mapping_memory_bytes".to_string(),
            Json::from(ftl.mapping_memory_bytes()),
        )];
        extras.extend(map_cache_extras(ftl.as_ref()));
        bench.push_run_with(r.ftl, &r, extras);
    }
    emit_json(flags, bench, None)
}

fn cmd_stats(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let cfg = config_from(flags)?;
    let trace = trace_from(flags, &cfg, false)?;
    let a = esp_storage::workload::analyze(&trace);
    let s = &a.stats;
    println!("requests            {}", s.requests);
    println!(
        "footprint           {} sectors ({} MiB)",
        trace.footprint_sectors,
        trace.footprint_sectors * 4096 / (1024 * 1024)
    );
    println!("writes / reads      {} / {}", s.writes, s.reads);
    println!(
        "write volume        {} MiB",
        s.write_sectors * 4096 / (1024 * 1024)
    );
    println!("r_small             {:.3}", s.r_small());
    println!("r_synch             {:.3}", s.r_synch());
    println!(
        "unique sectors      {} written, {} by small writes",
        a.unique_write_sectors, a.unique_small_write_sectors
    );
    println!(
        "sequential writes   {:.1}%",
        a.sequential_write_fraction * 100.0
    );
    println!(
        "top-10% write share {:.1}%",
        a.top_decile_write_share * 100.0
    );
    println!("writes per sector   {:.2} (mean)", a.mean_writes_per_sector);
    match a.median_rewrite_distance {
        Some(d) => println!("rewrite distance    {d} requests (median)"),
        None => println!("rewrite distance    n/a (no sector rewritten)"),
    }
    Ok(())
}

fn cmd_crash_sweep(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let mut cfg = config_from(flags)?;
    // The durability contract is checked in subFTL's crash-safe mode; the
    // default fast path's in-place lap migration knowingly trades a
    // durability window for speed (see DESIGN.md). The flag is a no-op for
    // the other FTLs.
    cfg.crash_safe_mode = true;
    let requests: usize = flags.parse_or("requests", 2000)?;
    let seed: u64 = flags.parse_or("crash-seed", 42)?;
    let footprint: u64 = flags.parse_or("footprint", (cfg.logical_sectors() / 16).max(8))?;
    if !(8..=cfg.logical_sectors()).contains(&footprint) {
        return Err(format!(
            "--footprint must be between 8 and the logical capacity ({} sectors)",
            cfg.logical_sectors()
        )
        .into());
    }
    let dense: u64 = flags.parse_or("sweep", 200)?;
    let random: u64 = flags.parse_or("random", 500)?;
    let crash_at: Option<u64> = match flags.get("crash-at") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("bad --crash-at: {e}"))?),
    };
    let mut rng = Rng::seed_from(seed);
    let ops = random_workload(&mut rng, footprint, requests);
    println!("device: {}", cfg.geometry);
    println!(
        "workload: {} ops over {footprint} sectors (seed {seed})",
        ops.len()
    );
    let selected = flags.get("ftl").unwrap_or("all");
    let names: Vec<&str> = if selected == "all" {
        vec!["cgm", "fgm", "sectorlog", "sub"]
    } else {
        vec![selected]
    };
    let mut all_ok = true;
    for name in names {
        all_ok &= match name {
            "sub" => sweep_one::<SubFtl>(&cfg, &ops, dense, random, crash_at, seed),
            "cgm" => sweep_one::<CgmFtl>(&cfg, &ops, dense, random, crash_at, seed),
            "fgm" => sweep_one::<FgmFtl>(&cfg, &ops, dense, random, crash_at, seed),
            "sectorlog" => sweep_one::<SectorLogFtl>(&cfg, &ops, dense, random, crash_at, seed),
            other => return Err(format!("unknown --ftl `{other}`").into()),
        };
    }
    if !all_ok {
        return Err("crash sweep found durability violations".into());
    }
    Ok(())
}

/// Sweeps one FTL and prints its summary line (plus the first few failures,
/// if any). Returns whether the durability contract held everywhere.
fn sweep_one<F: CrashTarget>(
    cfg: &FtlConfig,
    ops: &[CrashOp],
    dense: u64,
    random: u64,
    crash_at: Option<u64>,
    seed: u64,
) -> bool {
    let h = CrashHarness::<F>::new(cfg, ops);
    if let Some(n) = crash_at {
        return match h.check_crash_at(n) {
            Ok(case) => {
                println!(
                    "{:>14}  crash at command {n}/{}: {}, {} torn pages quarantined — PASS",
                    h.name(),
                    h.total_commands(),
                    if case.crashed {
                        "power cut fired"
                    } else {
                        "point beyond the run, no crash"
                    },
                    case.torn_pages
                );
                true
            }
            Err(e) => {
                println!(
                    "{:>14}  crash at command {n}/{}: FAIL — {e}",
                    h.name(),
                    h.total_commands()
                );
                false
            }
        };
    }
    let r = h.sweep(dense, random, seed ^ 0x5EED);
    println!(
        "{:>14}  {} crash points over {} commands ({} fired, {} torn pages quarantined): {}",
        r.ftl,
        r.cases,
        r.total_commands,
        r.crashed_cases,
        r.torn_pages,
        if r.passed() { "PASS" } else { "FAIL" }
    );
    for (n, msg) in r.failures.iter().take(5) {
        println!("{:>14}  at command {n}: {msg}", "");
    }
    if r.failures.len() > 5 {
        println!("{:>14}  ... {} more failures", "", r.failures.len() - 5);
    }
    r.passed()
}

fn cmd_gen(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let cfg = config_from(flags)?;
    let trace = trace_from(flags, &cfg, false)?;
    let out = flags.get("out").ok_or("gen needs --out <file>")?;
    save_trace(&trace, File::create(out)?)?;
    let stats = trace.stats();
    println!(
        "wrote {} requests to {out} (r_small {:.1}%, r_synch {:.1}%)",
        trace.len(),
        stats.r_small() * 100.0,
        stats.r_synch() * 100.0
    );
    Ok(())
}
