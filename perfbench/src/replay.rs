//! Set-up and replay of one cell, timed from outside through the public
//! API: `Cell::build` (FTL construction), `esp_core::precondition`, then
//! `run_trace_qd` or `run_tenants_qd`, optionally through [`Timed`].

use std::time::Instant;

use esp_core::{
    precondition, run_json, run_tenants_qd, run_trace_qd, tenants_json, Ftl, FtlConfig,
    MapCacheStats, RunReport,
};

use crate::timed::{Tally, Timed};
use crate::workloads::{Cell, Input, FILL_FRACTION, QUEUE_DEPTH};

/// The outcome of one replay of one cell.
pub struct Replay {
    /// Host seconds constructing the FTL.
    pub build_s: f64,
    /// Host seconds in `precondition`.
    pub precondition_s: f64,
    /// Host seconds in the replay call.
    pub replay_s: f64,
    /// The simulated output (`run_json`, plus `tenants_json` for tenant
    /// replays), compact.
    pub output: String,
    /// The replay's simulated report.
    pub report: RunReport,
    /// NAND reads issued during the replay.
    pub nand_reads: u64,
    /// Map-cache counters accumulated during the replay, if the cell has a
    /// cache.
    pub map_cache: Option<MapCacheStats>,
    /// Per-call host times, for traced replays.
    pub tally: Option<Tally>,
}

impl Replay {
    /// Requests the host saw fail: reads that returned lost data and
    /// writes refused by end of life or the read-only latch.
    #[must_use]
    pub fn failed(&self) -> u64 {
        let s = &self.report.stats;
        s.read_faults + s.writes_dropped_end_of_life + s.writes_dropped_read_only
    }
}

fn run<F: Ftl + ?Sized>(ftl: &mut F, label: &str, input: &Input) -> (RunReport, String) {
    match input {
        Input::Closed(trace) => {
            let report = run_trace_qd(ftl, trace, QUEUE_DEPTH);
            let output = run_json(label, &report).to_string();
            (report, output)
        }
        Input::Tenants(set) => {
            let r = run_tenants_qd(ftl, set, QUEUE_DEPTH);
            let output = format!("{}{}", run_json(label, &r.run), tenants_json(&r.tenants));
            (r.run, output)
        }
    }
}

fn cache_delta(
    after: Option<MapCacheStats>,
    before: Option<MapCacheStats>,
) -> Option<MapCacheStats> {
    let (a, b) = (after?, before.unwrap_or_default());
    Some(MapCacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        evictions: a.evictions - b.evictions,
        dirty_evictions: a.dirty_evictions - b.dirty_evictions,
        tp_reads: a.tp_reads - b.tp_reads,
        tp_programs: a.tp_programs - b.tp_programs,
        tp_erases: a.tp_erases - b.tp_erases,
        tp_gc_collections: a.tp_gc_collections - b.tp_gc_collections,
        charged_ns: a.charged_ns - b.charged_ns,
    })
}

/// Builds and preconditions `cell`'s FTL, then replays `input` through
/// it, through the timing wrapper when `traced`.
#[must_use]
pub fn replay(cell: &Cell, base: &FtlConfig, input: &Input, traced: bool) -> Replay {
    let t0 = Instant::now();
    let mut ftl = cell.build(base);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    precondition(ftl.as_mut(), FILL_FRACTION);
    let precondition_s = t1.elapsed().as_secs_f64();

    let reads0 = ftl.ssd().device().stats().reads;
    let cache0 = ftl.map_cache_stats();
    let (report, output, replay_s, ftl, tally) = if traced {
        let requests = usize::try_from(input.requests()).expect("request count fits usize");
        let mut timed = Timed::new(ftl, requests);
        let t = Instant::now();
        let (report, output) = run(&mut timed, &cell.label, input);
        let replay_s = t.elapsed().as_secs_f64();
        let tally = std::mem::take(&mut timed.tally);
        (
            report,
            output,
            replay_s,
            Box::new(timed) as Box<dyn Ftl>,
            Some(tally),
        )
    } else {
        let t = Instant::now();
        let (report, output) = run(ftl.as_mut(), &cell.label, input);
        let replay_s = t.elapsed().as_secs_f64();
        (report, output, replay_s, ftl, None)
    };
    Replay {
        build_s,
        precondition_s,
        replay_s,
        output,
        nand_reads: ftl.ssd().device().stats().reads - reads0,
        map_cache: cache_delta(ftl.map_cache_stats(), cache0),
        report,
        tally,
    }
}
