//! The `Ftl` trait and the trace-replay engine.
//!
//! Replay semantics match the paper's host-level FTL measurements:
//!
//! * **synchronous writes** block the host — the next request issues only
//!   after the write (and any GC it triggered) completes;
//! * **asynchronous writes** land in the DRAM write buffer and return
//!   immediately; flash work happens on buffer-full flushes and pipelines
//!   across channels/chips;
//! * **reads** block the host until data is returned.
//!
//! IOPS is requests over the simulated makespan, so foreground GC, RMW
//! traffic and program-latency differences all show up exactly as they do
//! in the paper's figures.
//!
//! # Queue-depth scheduling
//!
//! One loop serves every replay. [`run_trace_qd`] hands it one trace at
//! default QoS; [`run_tenants_qd`](crate::run_tenants_qd) hands it a
//! tenant set, whose admission and weighted-fair dispatch stages (see
//! `tenant.rs`) vanish in the one-tenant, unlimited-rate case.
//!
//! The loop models an NCQ-style host: up to `queue_depth`
//! requests are in flight at once, one per queue slot, and a table keeps
//! each slot's occupant and its completion time. A request is admitted
//! when the earliest in-flight request completes (out-of-order completion
//! falls out naturally — each request's completion is independent), and
//! its issue time is the latest of
//!
//! 1. its **arrival** (the open arrival model: timestamps come from the
//!    trace — fixed-spaced, bursty, Poisson via
//!    `Trace::with_poisson_arrivals`, or trace-file supplied),
//! 2. the **slot grant** (the earliest completion in the slot table, found
//!    by a scan that takes the lowest slot on a tie — queue-depth
//!    back-pressure), and
//! 3. its **data dependencies** on the requests still in flight: a read
//!    waits for every overlapping write (read-after-write), and a write
//!    waits for every overlapping write *and* read (write-after-write,
//!    write-after-read). Overlapping reads run concurrently.
//!
//! Only the slots' current occupants need checking. Slot grants come in
//! non-decreasing order and no request completes before it issues, so a
//! request that has left its slot completed at or before the grant being
//! handed out now, which term 2 already covers. The same argument makes
//! the tie rule free: whichever of several slots completing at the grant
//! is reused, the set of completion times evolves the same way, and a
//! tied occupant left in its slot completed at that grant, so it can
//! never raise a later issue time. Both scans cost `O(queue depth)` per
//! request.
//!
//! Independent requests therefore pipeline across channels and chips
//! while same-LSN and RMW request chains still serialize correctly. At
//! `queue_depth = 1` the table degenerates to the classic closed loop:
//! the one occupant completes exactly at the slot grant, so QD=1 replays
//! are bit-for-bit identical to a strictly serial host. The
//! `replay_matches_legacy_reference` test locks every depth against a
//! per-sector-table reference.
//!
//! # What the latency histograms measure
//!
//! The service histograms record **device service time** — issue to
//! completion, where issue already includes the slot grant and
//! dependency waits. Host queueing delay is *excluded* there: under
//! Poisson load with deep queues, tail response time can be much larger
//! than the recorded tail service time. For open-arrival traces (at
//! least one nonzero arrival stamp — Poisson, spaced, bursty, or
//! trace-file supplied) the runner *additionally* records an
//! arrival-to-completion **response** histogram over the same samples,
//! surfaced as `latency.response` in BENCH reports. Closed-loop traces
//! stamp every arrival at zero, so the response histogram is left empty
//! there (arrival-to-done would measure cumulative makespan, not
//! per-request latency). Use service histograms to compare device-side
//! behaviour (GC stalls, RMW, retry ladders) across FTLs and queue
//! depths; use the response histogram for end-to-end latency under an
//! offered load.

use esp_nand::DeviceStats;
use esp_sim::{HdrHistogram, SimDuration, SimTime};
use esp_ssd::Ssd;
use esp_workload::{IoOp, Trace};

use crate::stats::{FtlStats, RunReport};
use crate::tenant::{Drr, TenantConfig, TenantReport, TenantRunReport, TokenBucket};

/// A flash translation layer: the host-facing write/read/flush interface
/// plus statistics.
///
/// All four FTLs (the paper's `cgmFTL`, `fgmFTL` and `subFTL`, plus the
/// §6 baseline `sectorLogFTL`) implement this trait; [`run_trace`] drives
/// any of them over a workload.
pub trait Ftl {
    /// Short display name ("cgmFTL", "fgmFTL", "subFTL", "sectorLogFTL").
    fn name(&self) -> &'static str;

    /// Number of logical 4 KB sectors exported to the host.
    fn logical_sectors(&self) -> u64;

    /// Handles a host write of `sectors` sectors at `lsn`, issued at
    /// `issue`. Returns the completion time the host observes: for
    /// synchronous writes, when the data is durable; for asynchronous
    /// writes, effectively `issue`. The completion is never earlier than
    /// `issue`; the replay loop's dependency check relies on it.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the request exceeds
    /// [`Ftl::logical_sectors`].
    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime;

    /// Handles a host read, returning its completion time, which is never
    /// earlier than `issue` (see [`Ftl::write`]).
    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime;

    /// Drains the write buffer to flash. Returns the completion time.
    fn flush(&mut self, issue: SimTime) -> SimTime;

    /// Periodic maintenance hook (subFTL's retention scrubbing). Called by
    /// the runner with the current host clock before each request.
    fn maintain(&mut self, _now: SimTime) {}

    /// Idle-window hook: the host is quiet from `from` until (at least)
    /// `until`. FTLs with background GC use the window to reclaim blocks
    /// off the critical path; the default does nothing. Implementations may
    /// slightly overrun `until` to finish the victim they started.
    ///
    /// The four FTLs return at once, before any victim scan, when the
    /// window cannot hold one erase (`from + tBERS > until`). The rule is
    /// exact: each of their idle collections estimates one erase plus a
    /// non-negative copy cost, starts only if `now + estimate <= until`,
    /// and changes nothing before that check, so such a window could
    /// never have collected anything.
    fn idle(&mut self, _from: SimTime, _until: SimTime) {}

    /// Diagnostic hook: the write sequence number stored on flash for the
    /// newest durable copy of `lsn`, or `None` if the sector is unmapped or
    /// its newest copy still sits in the write buffer. Test harnesses use
    /// this to prove that reads can never observe stale or lost data: for a
    /// fixed `lsn` the stored sequence number must never decrease.
    fn stored_seq(&self, lsn: u64) -> Option<u64>;

    /// Host trim/discard: the sectors in `[lsn, lsn + sectors)` will never
    /// be read again. The FTL drops buffered copies and invalidates flash
    /// mappings where its granularity allows (coarse page maps can only
    /// drop fully-covered 16 KB pages), turning future GC copies into free
    /// reclamation. Costs no flash I/O.
    fn trim(&mut self, lsn: u64, sectors: u32);

    /// Bytes of RAM the FTL spends on logical-to-physical mapping state —
    /// the quantity §4.2 of the paper argues subFTL keeps small by mapping
    /// only the subpage region at fine grain (hash table) and the rest at
    /// page grain.
    fn mapping_memory_bytes(&self) -> u64;

    /// Demand-cached mapping counters, when the FTL runs with
    /// [`crate::FtlConfig::map_cache`] enabled. `None` for FTLs without a
    /// cache (including FTLs that support one but run with it off).
    fn map_cache_stats(&self) -> Option<crate::MapCacheStats> {
        None
    }

    /// FTL counters.
    fn stats(&self) -> &FtlStats;

    /// True once the FTL has latched its terminal end-of-life state:
    /// wear-out and/or grown bad blocks exhausted the GC reserve, so
    /// writes are refused (counted in
    /// [`FtlStats::writes_dropped_end_of_life`]) while reads keep
    /// serving. The latch is permanent for the mount.
    fn end_of_life(&self) -> bool {
        false
    }

    /// The underlying timed SSD.
    fn ssd(&self) -> &Ssd;

    /// Marks the underlying NAND device as failed (see
    /// [`esp_nand::NandDevice::kill`]): every later command on it is
    /// rejected without running. Array layers use this to retire a shard
    /// whose FTL latched end-of-life, and tests use it to simulate a
    /// sudden whole-device loss. The default does nothing, for FTL
    /// implementations whose device cannot be externally killed.
    fn fail_device(&mut self) {}

    /// Arms per-operation event tracing, retaining at most `capacity`
    /// events in a keep-newest ring. Tracing is off by default and costs
    /// one branch per potential event while off; FTLs without a recorder
    /// may ignore the request (the default does).
    fn enable_tracing(&mut self, _capacity: usize) {}

    /// The retained trace events, oldest first (empty when tracing was
    /// never enabled). Includes both FTL-level events (`host.*`, `gc.*`,
    /// …) and NAND-level events (`nand.*`), merged by simulated time.
    fn events(&self) -> Vec<esp_sim::TraceEvent> {
        Vec::new()
    }

    /// Events evicted by the trace ring bound (0 when tracing is off).
    fn events_dropped(&self) -> u64 {
        0
    }
}

/// Applies a binary operator field-wise over two [`FtlStats`]; the struct
/// literal keeps [`FtlStats::minus`] and [`FtlStats::plus`] exhaustive and
/// in sync — adding a counter without extending this list fails to compile.
macro_rules! ftl_stats_fieldwise {
    ($a:expr, $b:expr, $u64op:expr, $f64op:expr) => {
        FtlStats {
            host_write_requests: $u64op($a.host_write_requests, $b.host_write_requests),
            host_write_sectors: $u64op($a.host_write_sectors, $b.host_write_sectors),
            host_read_requests: $u64op($a.host_read_requests, $b.host_read_requests),
            host_read_sectors: $u64op($a.host_read_sectors, $b.host_read_sectors),
            small_write_requests: $u64op($a.small_write_requests, $b.small_write_requests),
            flash_sectors_consumed: $u64op($a.flash_sectors_consumed, $b.flash_sectors_consumed),
            gc_flash_sectors: $u64op($a.gc_flash_sectors, $b.gc_flash_sectors),
            gc_invocations: $u64op($a.gc_invocations, $b.gc_invocations),
            gc_subpage_region: $u64op($a.gc_subpage_region, $b.gc_subpage_region),
            gc_copied_sectors: $u64op($a.gc_copied_sectors, $b.gc_copied_sectors),
            rmw_operations: $u64op($a.rmw_operations, $b.rmw_operations),
            lap_migrations: $u64op($a.lap_migrations, $b.lap_migrations),
            cold_evictions: $u64op($a.cold_evictions, $b.cold_evictions),
            retention_evictions: $u64op($a.retention_evictions, $b.retention_evictions),
            wear_swaps: $u64op($a.wear_swaps, $b.wear_swaps),
            wear_level_migrations: $u64op($a.wear_level_migrations, $b.wear_level_migrations),
            op_shrinks: $u64op($a.op_shrinks, $b.op_shrinks),
            end_of_life_trips: $u64op($a.end_of_life_trips, $b.end_of_life_trips),
            writes_dropped_end_of_life: $u64op(
                $a.writes_dropped_end_of_life,
                $b.writes_dropped_end_of_life,
            ),
            read_faults: $u64op($a.read_faults, $b.read_faults),
            read_faults_destroyed: $u64op($a.read_faults_destroyed, $b.read_faults_destroyed),
            read_faults_retention: $u64op($a.read_faults_retention, $b.read_faults_retention),
            read_faults_torn: $u64op($a.read_faults_torn, $b.read_faults_torn),
            read_faults_injected: $u64op($a.read_faults_injected, $b.read_faults_injected),
            read_reclaims: $u64op($a.read_reclaims, $b.read_reclaims),
            disturb_scrubs: $u64op($a.disturb_scrubs, $b.disturb_scrubs),
            read_only_trips: $u64op($a.read_only_trips, $b.read_only_trips),
            writes_dropped_read_only: $u64op(
                $a.writes_dropped_read_only,
                $b.writes_dropped_read_only,
            ),
            program_failures: $u64op($a.program_failures, $b.program_failures),
            erase_failures: $u64op($a.erase_failures, $b.erase_failures),
            blocks_retired: $u64op($a.blocks_retired, $b.blocks_retired),
            write_retries: $u64op($a.write_retries, $b.write_retries),
            torn_pages_quarantined: $u64op($a.torn_pages_quarantined, $b.torn_pages_quarantined),
            small_waf_flash_sectors: $f64op($a.small_waf_flash_sectors, $b.small_waf_flash_sectors),
            small_waf_host_sectors: $u64op($a.small_waf_host_sectors, $b.small_waf_host_sectors),
        }
    };
}

impl FtlStats {
    /// Field-wise sum `self + other`; array layers use it to aggregate
    /// per-shard counters into one fleet-level view.
    #[must_use]
    pub fn plus(&self, other: &FtlStats) -> FtlStats {
        ftl_stats_fieldwise!(self, other, u64::wrapping_add, |x: f64, y: f64| x + y)
    }

    /// Field-wise difference `self - earlier`; used to report per-run
    /// deltas when the same FTL instance replays several traces
    /// (preconditioning, then measurement).
    ///
    /// Counter fields subtract saturating at zero, so a snapshot taken out
    /// of order (or a counter reset between runs) degrades to a zero delta
    /// instead of a u64 underflow panic/wraparound.
    #[must_use]
    pub fn minus(&self, earlier: &FtlStats) -> FtlStats {
        ftl_stats_fieldwise!(self, earlier, u64::saturating_sub, |x: f64, y: f64| x - y)
    }
}

/// Replays `trace` through `ftl` and reports per-run metrics (deltas
/// against the FTL's state at entry, so preconditioning runs do not
/// pollute measurement runs).
///
/// Single-threaded host semantics (`queue_depth = 1`); see
/// [`run_trace_qd`] for concurrent hosts. Trace arrival times are
/// interpreted relative to the FTL's current makespan, so back-to-back
/// runs compose naturally.
pub fn run_trace<F: Ftl + ?Sized>(ftl: &mut F, trace: &Trace) -> RunReport {
    run_trace_qd(ftl, trace, 1)
}

/// Replays `trace` through `ftl` with an NCQ-style host queue of depth
/// `queue_depth` (the paper's benchmarks — Sysbench, Varmail, YCSB,
/// TPC-C — are multithreaded, so synchronous writes from different
/// threads overlap in flight and the device becomes throughput-bound
/// rather than latency-bound).
///
/// Each queue slot holds one in-flight request; a request is
/// admitted when a queue slot frees and issues at
/// `max(arrival, slot grant, data dependencies)` — see the module docs
/// for the dependency rules. Completion is out of order: a request that
/// lands on an idle chip finishes ahead of an earlier one stuck behind
/// GC on a busy chip.
///
/// An idle window (granted to background GC via [`Ftl::idle`]) opens only
/// when a request arrives after *every* in-flight request has completed —
/// the device is genuinely quiet.
///
/// The report's latency histograms record device **service time**
/// (issue → done, queueing delay excluded), not arrival-to-done response
/// time — see "What the latency histograms measure" in
/// `crates/core/src/runner.rs` for why, and for what to use instead when
/// characterizing open-arrival response time.
///
/// # Panics
///
/// Panics if `queue_depth` is zero.
pub fn run_trace_qd<F: Ftl + ?Sized>(ftl: &mut F, trace: &Trace, queue_depth: usize) -> RunReport {
    let config = TenantConfig::new("");
    let lane = Lane {
        trace,
        base_lsn: 0,
        config: &config,
    };
    replay(ftl, &[lane], queue_depth).run
}

/// Snapshots the device's per-block wear distribution (effective P/E over
/// every physical block). `shallow_erases` is the run's adaptive-erase
/// delta, passed through verbatim.
#[must_use]
fn device_wear_summary(ssd: &Ssd, shallow_erases: u64) -> crate::stats::WearSummary {
    let dev = ssd.device();
    let g = ssd.geometry();
    let n = g.block_count();
    let (mut min_pe, mut max_pe, mut sum) = (u32::MAX, 0u32, 0u64);
    for b in 0..n {
        let pe = dev.effective_pe(g.block_addr(b));
        min_pe = min_pe.min(pe);
        max_pe = max_pe.max(pe);
        sum += u64::from(pe);
    }
    if n == 0 {
        min_pe = 0;
    }
    crate::stats::WearSummary {
        min_pe,
        max_pe,
        mean_pe: if n == 0 {
            0.0
        } else {
            sum as f64 / f64::from(n)
        },
        shallow_erases,
    }
}

/// One tenant's borrowed input to [`replay`]: its trace, the first LSN of
/// its slice of the logical space, and its QoS settings.
pub(crate) struct Lane<'a> {
    pub(crate) trace: &'a Trace,
    pub(crate) base_lsn: u64,
    pub(crate) config: &'a TenantConfig,
}

impl Lane<'_> {
    /// When request `i` becomes eligible: max(arrival, token ready), or
    /// `None` past the end of the trace.
    fn gate(&self, i: usize, bucket: &TokenBucket, base: SimTime) -> Option<SimTime> {
        let r = self.trace.requests.get(i)?;
        Some((base + SimDuration::from_nanos(r.arrival.as_nanos())).max(bucket.ready_at()))
    }
}

/// A lane's progress through [`replay`].
struct LaneState {
    /// Index of the lane's head request.
    next: usize,
    /// When the head request becomes eligible; `None` once drained.
    gate: Option<SimTime>,
    bucket: TokenBucket,
    /// Whether the trace carries real arrival stamps (open arrivals):
    /// closed-loop traces stamp every arrival at zero, where "response
    /// time" would just accumulate the makespan.
    open: bool,
    row: TenantReport,
}

/// A queue slot's latest occupant: its sector range `[lsn, end)`, whether
/// it writes, and the completion the host observes. The default is an
/// empty range, which binds nothing.
#[derive(Clone, Copy, Default)]
struct InFlight {
    lsn: u64,
    end: u64,
    is_write: bool,
    done: SimTime,
}

impl InFlight {
    /// Whether a request over `[lsn, end)` must wait for this one: the
    /// ranges overlap and at least one of the two writes.
    fn binds(&self, lsn: u64, end: u64, is_write: bool) -> bool {
        (self.is_write | is_write) & (self.lsn < end) & (lsn < self.end)
    }
}

/// The slot whose occupant completes first, and that completion: the
/// lowest index among ties. Like the dependency scan, it selects without
/// a branch, since which slot frees first is hard to predict.
fn earliest_slot(in_flight: &[InFlight]) -> (usize, SimTime) {
    in_flight
        .iter()
        .enumerate()
        .fold((0, in_flight[0].done), |min, (k, f)| {
            std::hint::select_unpredictable(f.done < min.1, (k, f.done), min)
        })
}

/// The FTL and device counters at the start of a run, against which its
/// report's deltas are taken.
struct RunStart {
    base: SimTime,
    stats: FtlStats,
    dev: DeviceStats,
}

impl RunStart {
    fn take<F: Ftl + ?Sized>(ftl: &F) -> Self {
        RunStart {
            base: ftl.ssd().makespan(),
            stats: ftl.stats().clone(),
            dev: *ftl.ssd().device().stats(),
        }
    }

    /// Flushes the write buffer at `clock` (the latest host-visible
    /// completion) and assembles the run's report.
    fn finish<F: Ftl + ?Sized>(
        self,
        ftl: &mut F,
        clock: SimTime,
        requests: u64,
        read_latency: HdrHistogram,
        write_latency: HdrHistogram,
        response_latency: HdrHistogram,
    ) -> RunReport {
        let flushed = ftl.flush(clock);
        let end = ftl.ssd().makespan().max(flushed).max(clock);
        let makespan_ns = end.saturating_since(self.base);
        let secs = makespan_ns.as_secs_f64();
        let dev = ftl.ssd().device().stats();
        let dev0 = &self.dev;
        RunReport {
            ftl: ftl.name(),
            requests,
            makespan: SimTime::ZERO + makespan_ns,
            iops: if secs > 0.0 {
                requests as f64 / secs
            } else {
                0.0
            },
            stats: ftl.stats().minus(&self.stats),
            erases: dev.erases.saturating_sub(dev0.erases),
            programs: (
                dev.full_programs.saturating_sub(dev0.full_programs),
                dev.subpage_programs.saturating_sub(dev0.subpage_programs),
            ),
            recovered_reads: dev.recovered_reads.saturating_sub(dev0.recovered_reads),
            retry_steps: dev.retry_steps.saturating_sub(dev0.retry_steps),
            soft_decodes: dev.soft_decodes.saturating_sub(dev0.soft_decodes),
            read_latency,
            write_latency,
            response_latency,
            wear: device_wear_summary(
                ftl.ssd(),
                dev.shallow_erases.saturating_sub(dev0.shallow_erases),
            ),
        }
    }
}

/// The replay loop behind [`run_trace_qd`] and
/// [`run_tenants_qd`](crate::run_tenants_qd): merges the `lanes` through
/// token-bucket admission and DRR dispatch (see `tenant.rs`) into one host
/// queue of depth `queue_depth`, then replays them as the module docs
/// describe. With one lane at default QoS both front-end stages vanish:
/// the lane's FIFO keeps trace order and each request's gate is its
/// arrival.
///
/// # Panics
///
/// Panics if `queue_depth` is zero.
pub(crate) fn replay<F: Ftl + ?Sized>(
    ftl: &mut F,
    lanes: &[Lane<'_>],
    queue_depth: usize,
) -> TenantRunReport {
    assert!(queue_depth > 0, "queue_depth must be at least 1");
    let start = RunStart::take(ftl);
    let base = start.base;

    // One entry per queue slot holds the slot's latest occupant and its
    // completion (`base` = free from the start). The slot that completes
    // first is granted to the next request, which then occupies it.
    // `clock` is the max completion granted so far.
    let mut in_flight = vec![
        InFlight {
            done: base,
            ..InFlight::default()
        };
        queue_depth
    ];
    let mut clock = base;
    let mut read_latency = HdrHistogram::new();
    let mut write_latency = HdrHistogram::new();
    let mut response_latency = HdrHistogram::new();
    let mut states: Vec<LaneState> = lanes
        .iter()
        .map(|l| {
            let bucket = TokenBucket::new(l.config.rate, l.config.burst, base);
            LaneState {
                next: 0,
                gate: l.gate(0, &bucket, base),
                bucket,
                open: l.trace.iter().any(|r| r.arrival > SimTime::ZERO),
                row: TenantReport::new(l.config, l.trace.len()),
            }
        })
        .collect();
    // The global response histogram records every lane's samples as soon
    // as any lane is open; a lane's own row records only its own, and only
    // when that lane is open.
    let open_arrival = states.iter().any(|s| s.open);
    let mut drr = Drr::new(lanes.iter().map(|l| u64::from(l.config.weight)).collect());

    let requests: u64 = lanes.iter().map(|l| l.trace.len() as u64).sum();
    for _ in 0..requests {
        // Admit on the earliest in-flight completion, the lowest slot on a
        // tie (which tied slot is reused changes no grant: module docs).
        // If no head request is eligible when the slot frees, the grant
        // waits for the earliest gate.
        let (slot, slot_free) = earliest_slot(&in_flight);
        let earliest = states
            .iter()
            .filter_map(|s| s.gate)
            .min()
            .expect("at least one pending request");
        let now = slot_free.max(earliest);
        let t = drr.pick(
            |t| states[t].gate.is_some_and(|g| g <= now),
            |t| u64::from(lanes[t].trace.requests[states[t].next].sectors),
            |t| states[t].gate.is_some(),
        );
        let (lane, state) = (&lanes[t], &mut states[t]);
        let gate = state.gate.expect("the picked lane has a head request");
        let r = lane.trace.requests[state.next];
        let arrival = base + SimDuration::from_nanos(r.arrival.as_nanos());
        // Only the dispatched lane's head and bucket change, so only its
        // gate moves.
        state.next += 1;
        state.bucket.consume(now);
        state.gate = lane.gate(state.next, &state.bucket, base);

        // Wait for the overlapping requests still in flight; every other
        // earlier request completed by `slot_free` (module docs). The
        // range comparisons are close to coin flips on random addresses,
        // so branching on them mispredicts often: `binds` uses `&` rather
        // than `&&`, and the max is selected without a branch.
        let lsn = lane.base_lsn + r.lsn;
        let end = lsn + u64::from(r.sectors);
        let is_write = r.op == IoOp::Write;
        let dep = in_flight.iter().fold(SimTime::ZERO, |dep, f| {
            std::hint::select_unpredictable(f.binds(lsn, end, is_write), dep.max(f.done), dep)
        });
        let issue = slot_free.max(gate).max(dep);
        if gate > clock {
            // Every in-flight request completed before the chosen request
            // became eligible (clock is the max over all slots): a
            // background window.
            ftl.idle(clock, gate);
        }
        ftl.maintain(issue);
        let done = if is_write {
            ftl.write(lsn, r.sectors, r.sync, issue)
        } else {
            ftl.read(lsn, r.sectors, issue)
        };
        debug_assert!(done >= issue, "{} completed before it issued", ftl.name());
        let done = if is_write && !r.sync {
            // An async write completes in DRAM: the host sees it done at
            // issue, and it records no latency sample.
            issue
        } else {
            // Service histograms record issue → done: device service
            // time. Response histograms record arrival → done (host
            // queueing included) for the same samples.
            let service = done.saturating_since(issue).as_nanos();
            if is_write {
                write_latency.record(service);
            } else {
                read_latency.record(service);
            }
            let response = done.saturating_since(arrival);
            if open_arrival {
                response_latency.record(response.as_nanos());
            }
            if state.open {
                state.row.record_response(response);
            }
            done
        };
        state.row.sectors += u64::from(r.sectors);
        // An async write holds its slot until its host-visible completion
        // (the buffered copy is readable immediately); sync writes until
        // durability.
        in_flight[slot] = InFlight {
            lsn,
            end,
            is_write,
            done,
        };
        clock = clock.max(done);
    }

    let run = start.finish(
        ftl,
        clock,
        requests,
        read_latency,
        write_latency,
        response_latency,
    );
    let secs = run.makespan.as_secs_f64();
    let tenants = states
        .into_iter()
        .zip(lanes)
        .map(|(s, l)| TenantReport {
            iops: if secs > 0.0 {
                l.trace.len() as f64 / secs
            } else {
                0.0
            },
            ..s.row
        })
        .collect();
    TenantRunReport { run, tenants }
}

/// Preconditions `ftl` to the paper's steady state: sequentially fills
/// `fill_fraction` of the logical space (the paper fills 10 GB of its
/// 16 GB device, i.e. 0.625).
pub fn precondition<F: Ftl + ?Sized>(ftl: &mut F, fill_fraction: f64) -> RunReport {
    let fill = esp_workload::precondition_fill(ftl.logical_sectors(), fill_fraction);
    run_trace(ftl, &fill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{all_ftls, mixed_trace, StubFtl};
    use crate::{FtlConfig, SubFtl};
    use esp_workload::{IoRequest, SyntheticConfig};

    #[test]
    fn qd_one_serializes_sync_writes() {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let mut t = Trace::new(64);
        for i in 0..8u64 {
            t.push(IoRequest::write(SimTime::ZERO, i, 1, true));
        }
        let serial = run_trace(&mut ftl, &t);
        let mut ftl2 = SubFtl::new(&FtlConfig::tiny());
        let parallel = run_trace_qd(&mut ftl2, &t, 8);
        assert!(
            parallel.makespan < serial.makespan,
            "8 threads must beat 1 thread on independent sync writes"
        );
        assert_eq!(serial.requests, parallel.requests);
    }

    #[test]
    fn sync_latencies_are_recorded_async_are_not() {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let mut t = Trace::new(64);
        t.push(IoRequest::write(SimTime::ZERO, 0, 1, true));
        t.push(IoRequest::write(SimTime::ZERO, 1, 1, false));
        t.push(IoRequest::read(SimTime::ZERO, 0, 1));
        let r = run_trace(&mut ftl, &t);
        // 1 sync write + 1 read recorded; the async write is not.
        assert_eq!(r.latency().count(), 2);
        assert!(r.latency().percentile(0.50) > 0);
    }

    #[test]
    fn arrival_times_gate_issue() {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let mut t = Trace::new(64);
        // One write arriving 5 seconds in: the makespan must include the
        // idle wait.
        t.push(IoRequest::write(SimTime::from_secs(5), 0, 1, true));
        let r = run_trace(&mut ftl, &t);
        assert!(r.makespan >= SimTime::from_secs(5));
    }

    #[test]
    fn back_to_back_runs_rebase_arrivals() {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let mut t = Trace::new(64);
        t.push(IoRequest::write(SimTime::ZERO, 0, 1, true));
        let first = run_trace(&mut ftl, &t);
        let second = run_trace(&mut ftl, &t);
        // Each run reports its own makespan, not cumulative time.
        assert!(second.makespan.as_nanos() < first.makespan.as_nanos() * 3);
        assert_eq!(second.requests, 1);
    }

    #[test]
    #[should_panic(expected = "queue_depth")]
    fn zero_queue_depth_rejected() {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let t = Trace::new(64);
        let _ = run_trace_qd(&mut ftl, &t, 0);
    }

    #[test]
    fn precondition_fills_requested_fraction() {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let r = precondition(&mut ftl, 0.5);
        let expected = ftl.logical_sectors() / 2;
        assert!(r.stats.host_write_sectors >= expected - 16);
        assert!(r.stats.host_write_sectors <= expected);
    }

    #[test]
    fn stats_minus_is_fieldwise() {
        let mut a = FtlStats::new();
        a.gc_invocations = 10;
        a.write_retries = 5;
        a.blocks_retired = 2;
        a.small_waf_flash_sectors = 8.0;
        a.small_waf_host_sectors = 4;
        let mut b = FtlStats::new();
        b.gc_invocations = 3;
        b.write_retries = 1;
        b.small_waf_flash_sectors = 2.0;
        b.small_waf_host_sectors = 1;
        let d = a.minus(&b);
        assert_eq!(d.gc_invocations, 7);
        assert_eq!(d.write_retries, 4);
        assert_eq!(d.blocks_retired, 2);
        assert_eq!(d.small_waf_host_sectors, 3);
        assert!((d.small_waf_flash_sectors - 6.0).abs() < 1e-12);
    }

    #[test]
    fn stats_minus_saturates_instead_of_underflowing() {
        // An out-of-order snapshot (earlier > later) must degrade to zero
        // deltas, not wrap around or panic in release/debug builds.
        let mut earlier = FtlStats::new();
        earlier.gc_invocations = 10;
        earlier.read_faults = 3;
        earlier.program_failures = 2;
        let later = FtlStats::new();
        let d = later.minus(&earlier);
        assert_eq!(d.gc_invocations, 0);
        assert_eq!(d.read_faults, 0);
        assert_eq!(d.program_failures, 0);
    }

    #[test]
    fn stats_minus_round_trips_every_field() {
        // Every field distinct, so a field paired with the wrong one shows.
        let n = std::cell::Cell::new(0u64);
        let next = |_: u64, _: u64| {
            n.set(n.get() + 1);
            n.get()
        };
        let zero = FtlStats::new();
        let a = ftl_stats_fieldwise!(zero, zero, next, |_: f64, _: f64| 12.5);
        let b = ftl_stats_fieldwise!(zero, zero, next, |_: f64, _: f64| 3.25);
        assert_eq!(format!("{:?}", a.plus(&b).minus(&b)), format!("{a:?}"));
        // Out of order, every counter saturates to a zero delta.
        let d = b.minus(&a.plus(&b));
        assert_eq!(d.small_waf_flash_sectors, -12.5);
        let counters_zero = FtlStats {
            small_waf_flash_sectors: d.small_waf_flash_sectors,
            ..FtlStats::new()
        };
        assert_eq!(format!("{d:?}"), format!("{counters_zero:?}"));
    }

    #[test]
    fn empty_trace_yields_zero_report() {
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let r = run_trace_qd(&mut ftl, &Trace::new(64), 4);
        assert_eq!(r.requests, 0);
        assert_eq!(r.iops, 0.0);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.latency().count(), 0);
        assert_eq!(r.erases, 0);
        // An empty run after real work must also report zero deltas.
        let mut t = Trace::new(64);
        t.push(IoRequest::write(SimTime::ZERO, 0, 1, true));
        run_trace(&mut ftl, &t);
        let r = run_trace(&mut ftl, &Trace::new(64));
        assert_eq!(r.requests, 0);
        assert_eq!(r.stats.host_write_sectors, 0);
    }

    #[test]
    fn idle_window_requires_all_threads_quiet() {
        // Thread 0 is busy 0..10s. A request arriving at 5s finds thread 1
        // free (its t_free = 0 < arrival) but thread 0 still busy: that gap
        // is NOT an idle window. A request at 20s — past every thread's
        // completion — is.
        let mut p = StubFtl::new(SimDuration::from_secs(10));
        let mut t = Trace::new(1 << 20);
        t.push(IoRequest::write(SimTime::ZERO, 0, 1, true)); // 0..10s on thread 0
        t.push(IoRequest::write(SimTime::from_secs(5), 1, 1, true)); // 5..15s on thread 1
        t.push(IoRequest::write(SimTime::from_secs(20), 2, 1, true));
        run_trace_qd(&mut p, &t, 2);
        assert_eq!(
            p.idle_windows,
            vec![(SimTime::from_secs(15), SimTime::from_secs(20))],
            "exactly one idle window, from last completion to next arrival"
        );
    }

    #[test]
    fn no_idle_window_when_requests_are_back_to_back() {
        let mut p = StubFtl::new(SimDuration::from_secs(1));
        let mut t = Trace::new(1 << 20);
        for i in 0..4u64 {
            t.push(IoRequest::write(SimTime::ZERO, i, 1, true));
        }
        run_trace(&mut p, &t);
        assert!(p.idle_windows.is_empty(), "got {:?}", p.idle_windows);
    }

    /// The pre-NCQ scheduler plus per-sector dependency tables over the
    /// trace footprint (the rule `replay` implemented before it scanned
    /// only its in-flight slots), kept as the reference: each request goes
    /// to the earliest-free host thread and waits for the last write of any
    /// of its sectors and, if it writes, the latest read of them. At every
    /// queue depth `replay` must reproduce its completion times bit for
    /// bit.
    fn legacy_run_trace_qd<F: Ftl + ?Sized>(
        ftl: &mut F,
        trace: &Trace,
        queue_depth: usize,
    ) -> RunReport {
        let start = RunStart::take(ftl);
        let base = start.base;
        let mut threads = vec![base; queue_depth];
        let footprint = trace.footprint_sectors as usize;
        let mut last_write = vec![SimTime::ZERO; footprint];
        let mut last_read = vec![SimTime::ZERO; footprint];
        let mut clock = base;
        let mut read_latency = HdrHistogram::new();
        let mut write_latency = HdrHistogram::new();
        // Response recording mirrors `run_trace_qd` (it post-dates the
        // legacy scheduler and doesn't affect scheduling), so the
        // bit-identity comparison also covers the response histogram.
        let mut response_latency = HdrHistogram::new();
        let open_arrival = trace.into_iter().any(|r| r.arrival > SimTime::ZERO);
        for r in trace {
            let arrival = base + SimDuration::from_nanos(r.arrival.as_nanos());
            let (t_idx, &t_free) = threads
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .expect("at least one thread");
            let sectors = r.lsn as usize..(r.lsn + u64::from(r.sectors)) as usize;
            let is_write = r.op == IoOp::Write;
            let mut dep = SimTime::ZERO;
            for s in sectors.clone() {
                dep = dep.max(last_write[s]);
                if is_write {
                    dep = dep.max(last_read[s]);
                }
            }
            let issue = t_free.max(arrival).max(dep);
            if arrival > t_free {
                let all_free = threads.iter().copied().max().expect("non-empty");
                if arrival > all_free {
                    ftl.idle(all_free, arrival);
                }
            }
            ftl.maintain(issue);
            let done = match r.op {
                IoOp::Write => {
                    let done = ftl.write(r.lsn, r.sectors, r.sync, issue);
                    if r.sync {
                        write_latency.record(done.saturating_since(issue).as_nanos());
                        if open_arrival {
                            response_latency.record(done.saturating_since(arrival).as_nanos());
                        }
                        done
                    } else {
                        issue
                    }
                }
                IoOp::Read => {
                    let done = ftl.read(r.lsn, r.sectors, issue);
                    read_latency.record(done.saturating_since(issue).as_nanos());
                    if open_arrival {
                        response_latency.record(done.saturating_since(arrival).as_nanos());
                    }
                    done
                }
            };
            // A write overwrites (its copy is the newest data); reads keep
            // the latest, since concurrent reads complete in any order.
            for s in sectors {
                if is_write {
                    last_write[s] = done;
                } else {
                    last_read[s] = last_read[s].max(done);
                }
            }
            threads[t_idx] = done;
            clock = clock.max(done);
        }
        start.finish(
            ftl,
            clock,
            trace.len() as u64,
            read_latency,
            write_latency,
            response_latency,
        )
    }

    #[test]
    fn replay_matches_legacy_reference() {
        // Bit-for-bit: the event-engine scheduler must reproduce the
        // table-driven reference exactly — same completion times, same
        // latency distribution, same device state — at every queue depth,
        // on a workload that exercises idle windows, rewrites and reads,
        // for every FTL in the tree. At QD 1 that is the serial host. The
        // second trace is closed-loop (every arrival 0) and mostly async
        // writes, which complete at issue, so most slots tie for the grant.
        let cfg = FtlConfig::tiny();
        let closed_async = |footprint| {
            esp_workload::generate(&SyntheticConfig {
                footprint_sectors: footprint,
                requests: 600,
                r_small: 0.8,
                r_synch: 0.1,
                read_fraction: 0.1,
                ..SyntheticConfig::default()
            })
        };
        for qd in [1, 2, 8, 32] {
            for ((name, mut a), (_, mut b)) in all_ftls(&cfg).into_iter().zip(all_ftls(&cfg)) {
                let footprint = a.logical_sectors() / 2;
                for (input, trace) in [
                    (
                        "mixed",
                        mixed_trace(footprint, SyntheticConfig::default().seed),
                    ),
                    ("closed_async", closed_async(footprint)),
                ] {
                    let new = run_trace_qd(a.as_mut(), &trace, qd);
                    let old = legacy_run_trace_qd(b.as_mut(), &trace, qd);
                    assert_eq!(
                        crate::report::run_json("qd", &new).to_pretty(),
                        crate::report::run_json("qd", &old).to_pretty(),
                        "{name} {input} qd={qd}: replay must be bit-identical to the reference"
                    );
                    assert_eq!(
                        a.ssd().makespan(),
                        b.ssd().makespan(),
                        "{name} {input} qd={qd}"
                    );
                    assert_eq!(
                        a.ssd().commands_issued(),
                        b.ssd().commands_issued(),
                        "{name} {input} qd={qd}"
                    );
                }
            }
        }
    }

    #[test]
    fn response_histogram_records_only_open_arrivals() {
        // Closed loop: every arrival at zero — no response samples.
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let mut t = Trace::new(64);
        t.push(IoRequest::write(SimTime::ZERO, 0, 1, true));
        t.push(IoRequest::read(SimTime::ZERO, 0, 1));
        let r = run_trace(&mut ftl, &t);
        assert_eq!(r.response_latency.summary().count, 0);
        let j = crate::report::run_json("closed", &r);
        assert!(j.path("latency.response.count").is_none());

        // Open arrivals: response = service + queueing delay, recorded
        // for the same samples as the service histograms.
        let mut ftl = SubFtl::new(&FtlConfig::tiny());
        let mut t = Trace::new(64);
        for i in 0..8u64 {
            // All arrive within 1 us: deep backlog at QD=1, so response
            // must exceed service for the queued requests.
            t.push(IoRequest::write(
                SimTime::from_nanos(100 * i + 1),
                i,
                1,
                true,
            ));
        }
        let r = run_trace(&mut ftl, &t);
        let resp = r.response_latency.summary();
        assert_eq!(resp.count, 8, "one response sample per sync request");
        assert!(
            resp.max > r.write_latency_summary().max,
            "queued tail response must exceed pure service time"
        );
        let j = crate::report::run_json("open", &r);
        assert_eq!(
            j.path("latency.response.count").and_then(|v| v.as_u64()),
            Some(8)
        );
    }

    #[test]
    fn same_lsn_write_read_serializes_at_qd32() {
        // A read of sector 0 arriving while a 10-second write of sector 0
        // is in flight must wait for the write (read-after-write), even
        // with 31 free queue slots; an independent read sails through.
        let mut p = StubFtl::new(SimDuration::from_secs(10));
        let mut t = Trace::new(1 << 20);
        t.push(IoRequest::write(SimTime::ZERO, 0, 4, true)); // [0, 4): 0..10 s
        t.push(IoRequest::read(SimTime::ZERO, 2, 1)); // overlaps the write
        t.push(IoRequest::read(SimTime::ZERO, 100, 1)); // independent
        t.push(IoRequest::read(SimTime::ZERO, 4, 1)); // first sector past it
        t.push(IoRequest::read(SimTime::ZERO, 3, 1)); // its last sector
        run_trace_qd(&mut p, &t, 32);
        assert_eq!(p.issue(0), SimTime::ZERO);
        assert_eq!(
            p.issue(1),
            SimTime::from_secs(10),
            "overlapping read must wait for the write to complete"
        );
        assert_eq!(
            p.issue(2),
            SimTime::ZERO,
            "independent read must not serialize"
        );
        assert_eq!(
            p.issue(3),
            SimTime::ZERO,
            "a read of [4, 5) does not overlap a write of [0, 4)"
        );
        assert_eq!(
            p.issue(4),
            SimTime::from_secs(10),
            "a read of [3, 4) overlaps a write of [0, 4)"
        );
    }

    #[test]
    fn write_waits_for_overlapping_reads_and_writes_at_qd32() {
        let mut p = StubFtl::new(SimDuration::from_secs(10));
        let mut t = Trace::new(1 << 20);
        t.push(IoRequest::read(SimTime::ZERO, 0, 2)); // 0..10 s
        t.push(IoRequest::write(SimTime::ZERO, 1, 1, true)); // WAR on sector 1
        t.push(IoRequest::write(SimTime::ZERO, 1, 1, true)); // WAW behind it
        run_trace_qd(&mut p, &t, 32);
        assert_eq!(
            p.issue(1),
            SimTime::from_secs(10),
            "write must wait for the in-flight read of its sectors"
        );
        assert_eq!(
            p.issue(2),
            SimTime::from_secs(20),
            "second write must wait for the first (write-after-write)"
        );
    }

    #[test]
    fn overlapping_reads_run_concurrently() {
        let mut p = StubFtl::new(SimDuration::from_secs(10));
        let mut t = Trace::new(1 << 20);
        t.push(IoRequest::read(SimTime::ZERO, 0, 4));
        t.push(IoRequest::read(SimTime::ZERO, 0, 4));
        run_trace_qd(&mut p, &t, 4);
        assert_eq!(p.issue(0), SimTime::ZERO);
        assert_eq!(p.issue(1), SimTime::ZERO, "reads never depend on reads");
    }

    #[test]
    fn seeded_qd_runs_are_deterministic() {
        let cfg = FtlConfig::tiny();
        let trace = mixed_trace(
            SubFtl::new(&cfg).logical_sectors() / 2,
            SyntheticConfig::default().seed,
        );
        let run = |qd: usize| {
            let mut ftl = SubFtl::new(&cfg);
            let r = run_trace_qd(&mut ftl, &trace, qd);
            crate::report::run_json("det", &r).to_pretty()
        };
        for qd in [2, 8, 32] {
            assert_eq!(run(qd), run(qd), "QD={qd} replay must be reproducible");
        }
    }

    #[test]
    fn iops_is_monotone_nondecreasing_in_qd_on_read_only() {
        // Property: with no write hazards, adding queue slots can only
        // increase device-level overlap, so IOPS never drops as QD grows.
        let cfg = FtlConfig::tiny();
        let footprint = SubFtl::new(&cfg).logical_sectors() / 2;
        let trace = esp_workload::generate(&SyntheticConfig {
            footprint_sectors: footprint,
            requests: 1_500,
            read_fraction: 1.0,
            ..SyntheticConfig::default()
        });
        let mut last = 0.0_f64;
        for qd in [1usize, 2, 4, 8, 16] {
            let mut ftl = SubFtl::new(&cfg);
            precondition(&mut ftl, 0.5);
            let r = run_trace_qd(&mut ftl, &trace, qd);
            assert!(
                r.iops >= last,
                "IOPS regressed from {last:.0} to {:.0} going to QD={qd}",
                r.iops
            );
            last = r.iops;
        }
    }
}
