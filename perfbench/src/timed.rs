//! A transparent timing wrapper over the [`Ftl`] trait.
//!
//! [`Timed`] forwards every trait method to the wrapped FTL — including the
//! ones with trait defaults (`maintain`, `idle`, `map_cache_stats`,
//! `end_of_life`, `fail_device`, `enable_tracing`, `events`,
//! `events_dropped`), so that wrapping never changes behaviour — and
//! records the host time spent inside the calls the replay loop makes per
//! request. Everything outside those calls is the runner's own time.

use std::time::Instant;

use esp_core::{Ftl, FtlStats, MapCacheStats};
use esp_sim::{SimTime, TraceEvent};
use esp_ssd::Ssd;

/// Host time spent inside the wrapped FTL, split by call kind.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-call host ns of writes during which no GC ran.
    pub write_ns: Vec<u32>,
    /// Per-call host ns of reads.
    pub read_ns: Vec<u32>,
    /// Total host ns of writes during which no GC ran.
    pub write_total_ns: u64,
    /// Total host ns of reads.
    pub read_total_ns: u64,
    /// Writes during which `stats().gc_invocations` advanced.
    pub gc_writes: u64,
    /// GC invocations run inside those writes.
    pub gc_invocations: u64,
    /// Total host ns of those writes.
    pub gc_write_ns: u64,
    /// Total host ns inside `maintain`.
    pub maintain_ns: u64,
    /// `idle` calls (host idle windows) and their total host ns.
    pub idle_calls: u64,
    /// Total host ns inside `idle`.
    pub idle_ns: u64,
    /// Total host ns inside `flush`.
    pub flush_ns: u64,
}

impl Tally {
    /// Host ns spent inside every timed FTL call.
    #[must_use]
    pub fn ftl_ns(&self) -> u64 {
        self.write_total_ns
            + self.read_total_ns
            + self.gc_write_ns
            + self.maintain_ns
            + self.idle_ns
            + self.flush_ns
    }

    /// Adds `other`'s samples and totals into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.write_ns.extend_from_slice(&other.write_ns);
        self.read_ns.extend_from_slice(&other.read_ns);
        self.write_total_ns += other.write_total_ns;
        self.read_total_ns += other.read_total_ns;
        self.gc_writes += other.gc_writes;
        self.gc_invocations += other.gc_invocations;
        self.gc_write_ns += other.gc_write_ns;
        self.maintain_ns += other.maintain_ns;
        self.idle_calls += other.idle_calls;
        self.idle_ns += other.idle_ns;
        self.flush_ns += other.flush_ns;
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An FTL whose per-request calls are timed into a [`Tally`].
pub struct Timed {
    inner: Box<dyn Ftl>,
    /// What the calls so far cost.
    pub tally: Tally,
}

impl Timed {
    /// Wraps `inner`, reserving sample space for `requests` calls so the
    /// timed loop does not reallocate.
    #[must_use]
    pub fn new(inner: Box<dyn Ftl>, requests: usize) -> Self {
        let tally = Tally {
            write_ns: Vec::with_capacity(requests),
            read_ns: Vec::with_capacity(requests),
            ..Tally::default()
        };
        Timed { inner, tally }
    }
}

impl Ftl for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn logical_sectors(&self) -> u64 {
        self.inner.logical_sectors()
    }

    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        let gc0 = self.inner.stats().gc_invocations;
        let t = Instant::now();
        let done = self.inner.write(lsn, sectors, sync, issue);
        let ns = elapsed_ns(t);
        let gc = self.inner.stats().gc_invocations - gc0;
        if gc > 0 {
            self.tally.gc_writes += 1;
            self.tally.gc_invocations += gc;
            self.tally.gc_write_ns += ns;
        } else {
            self.tally
                .write_ns
                .push(u32::try_from(ns).unwrap_or(u32::MAX));
            self.tally.write_total_ns += ns;
        }
        done
    }

    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime {
        let t = Instant::now();
        let done = self.inner.read(lsn, sectors, issue);
        let ns = elapsed_ns(t);
        self.tally
            .read_ns
            .push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.tally.read_total_ns += ns;
        done
    }

    fn flush(&mut self, issue: SimTime) -> SimTime {
        let t = Instant::now();
        let done = self.inner.flush(issue);
        self.tally.flush_ns += elapsed_ns(t);
        done
    }

    fn maintain(&mut self, now: SimTime) {
        let t = Instant::now();
        self.inner.maintain(now);
        self.tally.maintain_ns += elapsed_ns(t);
    }

    fn idle(&mut self, from: SimTime, until: SimTime) {
        let t = Instant::now();
        self.inner.idle(from, until);
        self.tally.idle_ns += elapsed_ns(t);
        self.tally.idle_calls += 1;
    }

    fn stored_seq(&self, lsn: u64) -> Option<u64> {
        self.inner.stored_seq(lsn)
    }

    fn trim(&mut self, lsn: u64, sectors: u32) {
        self.inner.trim(lsn, sectors);
    }

    fn mapping_memory_bytes(&self) -> u64 {
        self.inner.mapping_memory_bytes()
    }

    fn map_cache_stats(&self) -> Option<MapCacheStats> {
        self.inner.map_cache_stats()
    }

    fn stats(&self) -> &FtlStats {
        self.inner.stats()
    }

    fn end_of_life(&self) -> bool {
        self.inner.end_of_life()
    }

    fn ssd(&self) -> &Ssd {
        self.inner.ssd()
    }

    fn fail_device(&mut self) {
        self.inner.fail_device();
    }

    fn enable_tracing(&mut self, capacity: usize) {
        self.inner.enable_tracing(capacity);
    }

    fn events(&self) -> Vec<TraceEvent> {
        self.inner.events()
    }

    fn events_dropped(&self) -> u64 {
        self.inner.events_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_core::{FgmFtl, FtlConfig, MapCacheConfig, SubFtl};

    #[test]
    fn defaulted_methods_reach_the_wrapped_ftl() {
        let cfg = FtlConfig {
            map_cache: Some(MapCacheConfig { cmt_pages: 2 }),
            ..FtlConfig::tiny()
        };
        let mut timed = Timed::new(Box::new(FgmFtl::new(&cfg)), 0);
        timed.enable_tracing(64);
        let t = timed.write(0, 4, true, SimTime::ZERO);
        timed.read(0, 4, t);
        assert!(
            timed.map_cache_stats().is_some(),
            "map_cache_stats fell back"
        );
        assert!(!timed.events().is_empty(), "events fell back");
        assert!(!timed.end_of_life());
        assert_eq!(timed.stored_seq(0), timed.inner.stored_seq(0));
        timed.fail_device();
        assert!(timed.ssd().device_failed(), "fail_device fell back");
    }

    #[test]
    fn tally_splits_calls_by_kind() {
        let mut timed = Timed::new(Box::new(SubFtl::new(&FtlConfig::tiny())), 8);
        let mut t = SimTime::ZERO;
        for lsn in 0..4 {
            timed.maintain(t);
            t = timed.write(lsn, 1, true, t);
        }
        timed.idle(t, t);
        timed.read(0, 1, t);
        let tally = &timed.tally;
        assert_eq!(tally.write_ns.len() as u64 + tally.gc_writes, 4);
        assert_eq!(tally.read_ns.len(), 1);
        assert_eq!(tally.idle_calls, 1);
        assert!(tally.maintain_ns > 0);
    }
}
