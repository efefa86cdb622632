//! Resource timelines: first-come-first-served occupancy scheduling.
//!
//! The SSD timing model treats each contended hardware unit — a flash channel,
//! a NAND chip — as a [`Resource`] that can execute one operation at a time.
//! Scheduling an operation asks the resource for the earliest start at or
//! after a requested time, occupies it for the operation's duration, and
//! returns the completion instant. The sum of all occupied spans is tracked so
//! utilization can be reported.

use crate::time::{SimDuration, SimTime};

/// A serially-occupied hardware unit (a channel, a chip, ...).
///
/// # Examples
///
/// ```
/// use esp_sim::{Resource, SimDuration, SimTime};
///
/// let mut chip = Resource::new();
/// // A program op requested at t=0 that takes 1600 us:
/// let done = chip.occupy(SimTime::ZERO, SimDuration::from_micros(1600));
/// assert_eq!(done, SimTime::from_micros(1600));
/// // A second op requested "in the past" queues behind the first:
/// let done2 = chip.occupy(SimTime::from_micros(100), SimDuration::from_micros(1600));
/// assert_eq!(done2, SimTime::from_micros(3200));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    next_free: SimTime,
    busy: SimDuration,
    ops: u64,
}

impl Resource {
    /// Creates an idle resource, free from [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest instant at which the resource is free.
    #[must_use]
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total time the resource has spent occupied.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of operations scheduled on this resource.
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// When would an operation requested at `earliest` start?
    ///
    /// Does not occupy the resource; use [`Resource::occupy`] to commit.
    #[must_use]
    fn start_at(&self, earliest: SimTime) -> SimTime {
        self.next_free.max(earliest)
    }

    /// Occupies the resource for `duration`, starting no earlier than
    /// `earliest` and no earlier than the end of all previously scheduled
    /// work. Returns the completion instant.
    pub fn occupy(&mut self, earliest: SimTime, duration: SimDuration) -> SimTime {
        let start = self.start_at(earliest);
        let end = start + duration;
        self.next_free = end;
        self.busy += duration;
        self.ops += 1;
        end
    }

    /// Fraction of `[SimTime::ZERO, horizon]` the resource spent busy.
    ///
    /// Busy time is clamped to the horizon: when the last scheduled
    /// operation completes after `horizon` (common when the horizon is a
    /// request-issue makespan and the tail operation is still draining),
    /// the overrun `next_free - horizon` is subtracted before dividing,
    /// and the result is capped at 1.0. The subtraction is exact whenever
    /// the occupied timeline is contiguous across the horizon (always
    /// true when the horizon is at or after the last operation's start);
    /// with idle gaps entirely beyond the horizon it may undercount, so
    /// the result is a lower bound — but never above 1.0.
    ///
    /// Returns 0.0 for a zero horizon.
    #[must_use]
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        let overrun = self.next_free.saturating_since(horizon).as_nanos();
        let busy_in = self.busy.as_nanos().saturating_sub(overrun);
        (busy_in as f64 / horizon.as_nanos() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_queue_back_to_back() {
        let mut r = Resource::new();
        let d = SimDuration::from_micros(10);
        assert_eq!(r.occupy(SimTime::ZERO, d), SimTime::from_micros(10));
        assert_eq!(r.occupy(SimTime::ZERO, d), SimTime::from_micros(20));
        assert_eq!(r.op_count(), 2);
        assert_eq!(r.busy_time(), SimDuration::from_micros(20));
    }

    #[test]
    fn late_request_starts_at_request_time() {
        let mut r = Resource::new();
        let d = SimDuration::from_micros(10);
        r.occupy(SimTime::ZERO, d);
        // Requested long after the resource went idle: starts on request.
        let end = r.occupy(SimTime::from_micros(100), d);
        assert_eq!(end, SimTime::from_micros(110));
        // There is now an idle gap, so busy < horizon.
        assert!(r.busy_time() < end - SimTime::ZERO);
    }

    #[test]
    fn start_at_previews_without_committing() {
        let mut r = Resource::new();
        r.occupy(SimTime::ZERO, SimDuration::from_micros(10));
        let preview = r.start_at(SimTime::from_micros(3));
        assert_eq!(preview, SimTime::from_micros(10));
        assert_eq!(r.op_count(), 1);
    }

    #[test]
    fn utilization_is_busy_over_horizon() {
        let mut r = Resource::new();
        r.occupy(SimTime::ZERO, SimDuration::from_micros(25));
        let u = r.utilization(SimTime::from_micros(100));
        assert!((u - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn utilization_clamps_ops_past_the_horizon() {
        // Regression: a back-to-back pipeline whose last op completes
        // after the horizon used to report > 1.0 (busy exceeds the
        // horizon when the tail is still draining).
        let mut r = Resource::new();
        for _ in 0..10 {
            r.occupy(SimTime::ZERO, SimDuration::from_micros(10));
        }
        // Ops occupy [0, 100) us; a horizon mid-pipeline at 60 us.
        let u = r.utilization(SimTime::from_micros(60));
        assert!((u - 1.0).abs() < 1e-12, "fully busy up to the horizon: {u}");
        // And never above 1.0 anywhere in the pipeline.
        for h in 1..=12u64 {
            let u = r.utilization(SimTime::from_micros(h * 10));
            assert!(u <= 1.0, "utilization({h}0us) = {u} > 1.0");
        }
        // Past the end the idle tail dilutes it again.
        let u = r.utilization(SimTime::from_micros(200));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_with_gap_beyond_horizon_is_a_lower_bound() {
        // An op far beyond the horizon must not count toward the window
        // before it (the overrun subtraction saturates to zero).
        let mut r = Resource::new();
        r.occupy(SimTime::from_micros(100), SimDuration::from_micros(10));
        assert_eq!(r.utilization(SimTime::from_micros(10)), 0.0);
    }
}
