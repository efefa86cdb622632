//! Host I/O request and trace types.
//!
//! The trace unit is the **sector**: a 4 KB logical block, matching the
//! paper's subpage size `S_sub`. A *small* write is any write shorter than
//! the 16 KB physical page (`S_full`), i.e. fewer than
//! [`SECTORS_PER_PAGE`] sectors (paper §2).

use esp_sim::{Rng, SimDuration, SimTime};

/// Bytes per logical sector (the paper's `S_sub` = 4 KB).
pub const SECTOR_BYTES: u64 = 4096;

/// Sectors per full physical page (the paper's `N_sub` = 4).
pub const SECTORS_PER_PAGE: u32 = 4;

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

/// One host request.
///
/// # Examples
///
/// ```
/// use esp_workload::{IoOp, IoRequest};
/// use esp_sim::SimTime;
///
/// let r = IoRequest::write(SimTime::ZERO, 100, 1, true);
/// assert!(r.is_small_write());
/// assert_eq!(r.op, IoOp::Write);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Arrival time. Traces replayed "as fast as possible" use a constant
    /// (often zero) arrival; retention experiments space arrivals out over
    /// simulated days.
    pub arrival: SimTime,
    /// Read or write.
    pub op: IoOp,
    /// Starting logical sector number (4 KB units).
    pub lsn: u64,
    /// Length in sectors (must be ≥ 1).
    pub sectors: u32,
    /// For writes: synchronous (must be durable before the next request
    /// issues — an fsync-style barrier). Ignored for reads.
    pub sync: bool,
}

impl IoRequest {
    /// A write request.
    #[must_use]
    pub fn write(arrival: SimTime, lsn: u64, sectors: u32, sync: bool) -> Self {
        IoRequest {
            arrival,
            op: IoOp::Write,
            lsn,
            sectors,
            sync,
        }
    }

    /// A read request.
    #[must_use]
    pub fn read(arrival: SimTime, lsn: u64, sectors: u32) -> Self {
        IoRequest {
            arrival,
            op: IoOp::Read,
            lsn,
            sectors,
            sync: false,
        }
    }

    /// True for writes shorter than one full physical page (the paper's
    /// definition of a *small* write).
    #[must_use]
    pub fn is_small_write(&self) -> bool {
        self.op == IoOp::Write && self.sectors < SECTORS_PER_PAGE
    }

    /// Request length in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        u64::from(self.sectors) * SECTOR_BYTES
    }

    /// One-past-the-end sector.
    #[must_use]
    pub fn end_lsn(&self) -> u64 {
        self.lsn + u64::from(self.sectors)
    }
}

/// Aggregate characteristics of a trace, in the paper's vocabulary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceStats {
    /// Total requests.
    pub requests: u64,
    /// Total write requests.
    pub writes: u64,
    /// Total read requests.
    pub reads: u64,
    /// Small writes (shorter than one full page).
    pub small_writes: u64,
    /// Synchronous small writes.
    pub sync_small_writes: u64,
    /// Total sectors written.
    pub write_sectors: u64,
    /// Total sectors read.
    pub read_sectors: u64,
}

impl TraceStats {
    /// `r_small`: the ratio of small writes to total writes (paper §2).
    #[must_use]
    pub fn r_small(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.small_writes as f64 / self.writes as f64
        }
    }

    /// `r_synch`: the ratio of synchronous small writes to total small
    /// writes (paper §2).
    #[must_use]
    pub fn r_synch(&self) -> f64 {
        if self.small_writes == 0 {
            0.0
        } else {
            self.sync_small_writes as f64 / self.small_writes as f64
        }
    }
}

/// An ordered sequence of host requests plus the logical address space they
/// live in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Size of the logical address space in sectors. All request LSNs fall
    /// inside `[0, footprint_sectors)`.
    pub footprint_sectors: u64,
    /// The requests, in arrival order.
    pub requests: Vec<IoRequest>,
}

impl Trace {
    /// An empty trace over `footprint_sectors` logical sectors.
    #[must_use]
    pub fn new(footprint_sectors: u64) -> Self {
        Trace {
            footprint_sectors,
            requests: Vec::new(),
        }
    }

    /// Appends a request.
    ///
    /// # Panics
    ///
    /// Panics if the request has zero length or extends past the footprint.
    pub fn push(&mut self, r: IoRequest) {
        assert!(r.sectors > 0, "zero-length request");
        assert!(
            r.end_lsn() <= self.footprint_sectors,
            "request [{}, {}) exceeds footprint {}",
            r.lsn,
            r.end_lsn(),
            self.footprint_sectors
        );
        self.requests.push(r);
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the trace has no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over the requests in order.
    pub fn iter(&self) -> std::slice::Iter<'_, IoRequest> {
        self.requests.iter()
    }

    /// Computes aggregate statistics (`r_small`, `r_synch`, volumes).
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for r in &self.requests {
            s.requests += 1;
            match r.op {
                IoOp::Write => {
                    s.writes += 1;
                    s.write_sectors += u64::from(r.sectors);
                    if r.is_small_write() {
                        s.small_writes += 1;
                        if r.sync {
                            s.sync_small_writes += 1;
                        }
                    }
                }
                IoOp::Read => {
                    s.reads += 1;
                    s.read_sectors += u64::from(r.sectors);
                }
            }
        }
        s
    }

    /// The requests arriving in `[from, to)`, rebased so the window starts
    /// at time zero. Useful for replaying a slice of a long (e.g. week-long
    /// MSR) trace.
    #[must_use]
    pub fn window(&self, from: SimTime, to: SimTime) -> Trace {
        let mut out = Trace::new(self.footprint_sectors);
        for r in &self.requests {
            if r.arrival >= from && r.arrival < to {
                let mut r = *r;
                r.arrival = SimTime::from_nanos(r.arrival.as_nanos() - from.as_nanos());
                out.requests.push(r);
            }
        }
        out
    }

    /// The first `n` requests (or all of them, if fewer).
    #[must_use]
    pub fn take(&self, n: usize) -> Trace {
        Trace {
            footprint_sectors: self.footprint_sectors,
            requests: self.requests.iter().take(n).copied().collect(),
        }
    }

    /// Restamps all arrivals with a **Poisson open-arrival process** at
    /// `rate_per_sec` requests per second: inter-arrival gaps are drawn
    /// i.i.d. from an exponential distribution with mean `1/rate`, so the
    /// host offers load independently of completions (an *open* model)
    /// instead of the closed replay-as-fast-as-possible default.
    /// Deterministic for a given `seed`; request order, addresses and
    /// sizes are untouched.
    ///
    /// With [`crate::Trace`] replayed through a queue-depth scheduler,
    /// this measures the device at a fixed offered throughput rather
    /// than at saturation. Note that the replay engine's latency
    /// histograms record device *service time* (issue → done), not
    /// arrival-to-done *response time* — host queueing delay under the
    /// offered load shows up in makespan and IOPS, not in the
    /// percentiles (see `esp_core::run_trace_qd`).
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not positive and finite.
    #[must_use]
    pub fn with_poisson_arrivals(&self, rate_per_sec: f64, seed: u64) -> Trace {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive"
        );
        let mean_ns = 1e9 / rate_per_sec;
        let mut rng = Rng::seed_from(seed);
        let mut clock = SimTime::ZERO;
        let mut out = self.clone();
        for r in &mut out.requests {
            r.arrival = clock;
            // Inverse-CDF exponential draw; `next_f64` is in [0, 1), so
            // `1 - u` is in (0, 1] and the log is finite.
            let gap_ns = mean_ns * -(1.0 - rng.next_f64()).ln();
            clock += SimDuration::from_nanos(gap_ns as u64);
        }
        out
    }

    /// Compresses (`factor > 1`) or stretches (`factor < 1`) all arrival
    /// times by `factor` — e.g. replay a day-long trace in a minute of
    /// simulated time while preserving relative burst structure.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    #[must_use]
    pub fn scale_time(&self, factor: f64) -> Trace {
        assert!(
            factor.is_finite() && factor > 0.0,
            "time scale factor must be positive"
        );
        let mut out = self.clone();
        for r in &mut out.requests {
            r.arrival = SimTime::from_nanos((r.arrival.as_nanos() as f64 / factor) as u64);
        }
        out
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a IoRequest;
    type IntoIter = std::slice::Iter<'a, IoRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_write_definition_matches_paper() {
        // Small = strictly less than one full page (4 sectors).
        for sectors in 1..=3 {
            assert!(IoRequest::write(SimTime::ZERO, 0, sectors, false).is_small_write());
        }
        assert!(!IoRequest::write(SimTime::ZERO, 0, 4, false).is_small_write());
        assert!(!IoRequest::read(SimTime::ZERO, 0, 1).is_small_write());
    }

    #[test]
    fn stats_compute_r_small_and_r_synch() {
        let mut t = Trace::new(1000);
        t.push(IoRequest::write(SimTime::ZERO, 0, 1, true)); // small sync
        t.push(IoRequest::write(SimTime::ZERO, 4, 1, false)); // small async
        t.push(IoRequest::write(SimTime::ZERO, 8, 4, false)); // large
        t.push(IoRequest::read(SimTime::ZERO, 0, 2));
        let s = t.stats();
        assert_eq!(s.requests, 4);
        assert_eq!(s.writes, 3);
        assert_eq!(s.small_writes, 2);
        assert!((s.r_small() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.r_synch() - 0.5).abs() < 1e-12);
        assert_eq!(s.write_sectors, 6);
        assert_eq!(s.read_sectors, 2);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let t = Trace::new(10);
        let s = t.stats();
        assert_eq!(s.r_small(), 0.0);
        assert_eq!(s.r_synch(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds footprint")]
    fn push_rejects_out_of_footprint() {
        let mut t = Trace::new(10);
        t.push(IoRequest::write(SimTime::ZERO, 8, 4, false));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn push_rejects_zero_length() {
        let mut t = Trace::new(10);
        t.push(IoRequest::write(SimTime::ZERO, 0, 0, false));
    }

    #[test]
    fn window_selects_and_rebases() {
        let mut t = Trace::new(100);
        for i in 0..10u64 {
            t.push(IoRequest::write(SimTime::from_secs(i), i, 1, false));
        }
        let w = t.window(SimTime::from_secs(3), SimTime::from_secs(7));
        assert_eq!(w.len(), 4);
        assert_eq!(w.requests[0].arrival, SimTime::ZERO);
        assert_eq!(w.requests[0].lsn, 3);
        assert_eq!(w.requests[3].arrival, SimTime::from_secs(3));
    }

    #[test]
    fn take_truncates() {
        let mut t = Trace::new(100);
        for i in 0..5u64 {
            t.push(IoRequest::write(SimTime::ZERO, i, 1, false));
        }
        assert_eq!(t.take(3).len(), 3);
        assert_eq!(t.take(99).len(), 5);
    }

    #[test]
    fn scale_time_compresses_arrivals() {
        let mut t = Trace::new(100);
        t.push(IoRequest::write(SimTime::from_secs(10), 0, 1, false));
        let fast = t.scale_time(10.0);
        assert_eq!(fast.requests[0].arrival, SimTime::from_secs(1));
        let slow = t.scale_time(0.5);
        assert_eq!(slow.requests[0].arrival, SimTime::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scale_time_rejects_zero() {
        let _ = Trace::new(100).scale_time(0.0);
    }

    #[test]
    fn poisson_arrivals_are_open_ordered_and_seeded() {
        let mut t = Trace::new(100);
        for i in 0..5_000u64 {
            t.push(IoRequest::write(SimTime::ZERO, i % 100, 1, false));
        }
        // 10k req/s -> mean gap 100 us.
        let a = t.with_poisson_arrivals(10_000.0, 7);
        // Same seed reproduces; different seed differs.
        assert_eq!(a, t.with_poisson_arrivals(10_000.0, 7));
        assert_ne!(a, t.with_poisson_arrivals(10_000.0, 8));
        // Arrivals are nondecreasing and only the arrivals changed.
        assert_eq!(a.requests[0].arrival, SimTime::ZERO);
        for (orig, new) in t.iter().zip(a.iter()) {
            assert_eq!(
                (orig.lsn, orig.sectors, orig.op),
                (new.lsn, new.sectors, new.op)
            );
        }
        for w in a.requests.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        // The empirical mean gap is within 5% of 100 us.
        let span_ns = a.requests.last().unwrap().arrival.as_nanos() as f64;
        let mean = span_ns / (a.len() - 1) as f64;
        assert!(
            (mean - 100_000.0).abs() < 5_000.0,
            "mean inter-arrival {mean} ns, wanted ~100000"
        );
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn poisson_rejects_nonpositive_rate() {
        let _ = Trace::new(100).with_poisson_arrivals(0.0, 1);
    }

    #[test]
    fn trace_iterates_in_push_order() {
        let mut a = Trace::new(100);
        a.push(IoRequest::write(SimTime::ZERO, 0, 1, false));
        a.push(IoRequest::read(SimTime::ZERO, 1, 1));
        assert_eq!(a.len(), 2);
        let ops: Vec<_> = (&a).into_iter().map(|r| r.op).collect();
        assert_eq!(ops, vec![IoOp::Write, IoOp::Read]);
    }
}
