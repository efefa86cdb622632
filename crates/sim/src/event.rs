//! Calendar-queue event scheduling: an amortized-`O(1)` discrete-event
//! list.
//!
//! A [`CalendarQueue`] is a priority queue of `(SimTime, payload)` events
//! optimized for the access pattern of a discrete-event simulator: events
//! are popped in non-decreasing time order and new events land a bounded
//! distance ahead of the current time. Instead of a comparison-based heap
//! (`O(log n)` per operation with pointer-chasing through a binary tree),
//! the calendar queue hashes each event into a bucket by `time / width`
//! modulo the number of buckets — one simulated "day" per bucket, one
//! "year" per full rotation (Brown's classic calendar-queue design).
//! Pops scan only the current day's bucket, so both `push` and `pop` are
//! amortized `O(1)` when the bucket width tracks the mean inter-event
//! gap; the queue resizes itself (doubling/halving the year and re-
//! estimating the width from a sample of live events) as the population
//! drifts.
//!
//! Determinism: ties are broken by insertion order (FIFO), enforced with
//! a monotonically increasing sequence number, so pop order is a pure
//! function of the push history — independent of bucket layout, resize
//! timing, or anything else. The `matches_heap_reference` property test
//! locks this against a `BinaryHeap` oracle.
//!
//! Buckets keep their allocated capacity across pops (cleared, never
//! dropped), so a steady-state simulation loop pushing and popping
//! through the queue allocates nothing once warm.

use crate::time::SimTime;

/// One scheduled event: fires at `.0`, tie-broken by `.1`, carrying `.2`.
type Event<T> = (SimTime, u64, T);

/// A calendar queue: an amortized-`O(1)` event list keyed by [`SimTime`].
///
/// # Examples
///
/// ```
/// use esp_sim::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.push(SimTime::from_micros(30), "c");
/// q.push(SimTime::from_micros(10), "a");
/// q.push(SimTime::from_micros(20), "b");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// `buckets[d]` holds events with `time / width ≡ d (mod buckets.len())`,
    /// in arbitrary order (pops select the minimum `(time, seq)`).
    buckets: Vec<Vec<Event<T>>>,
    /// Bucket width in nanoseconds (one "day"). Always ≥ 1.
    width: u64,
    /// Index of the day currently being scanned.
    day: usize,
    /// Start of the current day, in nanoseconds.
    day_start: u64,
    /// Live event count.
    len: usize,
    /// Next insertion sequence number (FIFO tie-break).
    seq: u64,
}

/// Initial number of buckets; the year doubles/halves as the population
/// drifts outside `[len/2, 2*len]`.
const INITIAL_BUCKETS: usize = 16;

/// Default bucket width (ns) before any resize has sampled the live
/// event spacing. The value only affects constants, not correctness.
const INITIAL_WIDTH: u64 = 1 << 12;

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            width: INITIAL_WIDTH,
            day: 0,
            day_start: 0,
            len: 0,
            seq: 0,
        }
    }

    /// Number of events currently scheduled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bucket index for an event time under the current layout.
    fn bucket_of(&self, ns: u64) -> usize {
        ((ns / self.width) % self.buckets.len() as u64) as usize
    }

    /// Schedules `payload` to fire at `at`. Events may be scheduled at any
    /// time, including before already-popped events (the calendar rewinds).
    pub fn push(&mut self, at: SimTime, payload: T) {
        let ns = at.as_nanos();
        // An event behind the calendar cursor would otherwise only be
        // found after a full (wrapped) year scan; rewind the cursor so the
        // current day always lower-bounds every live event.
        if ns < self.day_start {
            self.day_start = ns - ns % self.width;
            self.day = self.bucket_of(ns);
        }
        let b = self.bucket_of(ns);
        self.buckets[b].push((at, self.seq, payload));
        self.seq += 1;
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(2 * self.buckets.len());
        }
    }

    /// Removes and returns the earliest event (FIFO on equal times).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len();
        for _ in 0..nbuckets {
            let day_end = self.day_start.saturating_add(self.width);
            let found = self.buckets[self.day]
                .iter()
                .enumerate()
                .filter(|(_, (t, _, _))| t.as_nanos() < day_end)
                .min_by_key(|(_, (t, s, _))| (*t, *s))
                .map(|(i, _)| i);
            if let Some(i) = found {
                let (t, _, payload) = self.buckets[self.day].swap_remove(i);
                self.len -= 1;
                if self.len < self.buckets.len() / 2 && self.buckets.len() > INITIAL_BUCKETS {
                    self.resize(self.buckets.len() / 2);
                }
                return Some((t, payload));
            }
            self.day = (self.day + 1) % nbuckets;
            self.day_start = day_end;
        }
        // A full year scanned with nothing due: every live event is more
        // than a year ahead — the bucket width no longer matches the
        // live event spacing (resizes only re-estimate it on population
        // changes, so a fixed-population queue can drift). Rebuild at the
        // same size, which re-estimates the width from the live events
        // and repositions the cursor on the earliest one; the retry then
        // finds it in the current day. Amortized O(1): each rebuild buys
        // a width that serves until the spacing drifts again.
        self.resize(self.buckets.len());
        self.pop()
    }

    /// Rebuilds the calendar with `nbuckets` buckets and a width set to
    /// roughly the mean spacing of live events (so one day holds O(1) of
    /// them), then repositions the cursor on the earliest event.
    fn resize(&mut self, nbuckets: usize) {
        let events: Vec<Event<T>> = self.buckets.iter_mut().flat_map(|v| v.drain(..)).collect();
        self.width = Self::estimate_width(&events);
        self.buckets.resize_with(nbuckets, Vec::new);
        // Reposition the cursor on the earliest live event: jumping
        // forward is safe (no event precedes it), and the retry after the
        // empty-year fallback finds it in the current day.
        let earliest = events
            .iter()
            .map(|(t, _, _)| t.as_nanos())
            .min()
            .unwrap_or(self.day_start);
        self.day_start = earliest - earliest % self.width;
        self.day = self.bucket_of(earliest);
        for (t, s, p) in events {
            let b = self.bucket_of(t.as_nanos());
            self.buckets[b].push((t, s, p));
        }
    }

    /// Mean inter-event gap over the live population (min 1 ns), the
    /// classic calendar-queue width heuristic.
    fn estimate_width(events: &[Event<T>]) -> u64 {
        if events.len() < 2 {
            return INITIAL_WIDTH;
        }
        let min = events
            .iter()
            .map(|(t, _, _)| t.as_nanos())
            .min()
            .unwrap_or(0);
        let max = events
            .iter()
            .map(|(t, _, _)| t.as_nanos())
            .max()
            .unwrap_or(0);
        ((max - min) / events.len() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        for t in [5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_micros(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_micros(42);
        for i in 0..10 {
            q.push(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t, i)), "FIFO order on ties");
        }
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn handles_events_far_beyond_one_year() {
        // Events more than a full rotation apart force the direct-search
        // fallback that jumps the calendar across empty years.
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_secs(1000), "late");
        q.push(SimTime::ZERO, "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn rewinds_for_events_behind_the_cursor() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_secs(5), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        // The cursor now sits at ~5 s; an earlier event must still pop.
        q.push(SimTime::from_micros(1), "b");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    /// The property test the issue asks for: against a `BinaryHeap`
    /// reference model, interleaved pushes and pops over random schedules
    /// (clustered, uniform, and heavily tied times; growth through
    /// resizes in both directions) must produce identical sequences.
    #[test]
    fn matches_heap_reference() {
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from(0xCA1E_0000 + seed);
            let mut q = CalendarQueue::new();
            // Reference: min-heap on (time, seq) — exactly the documented
            // tie-break contract.
            let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut base = 0u64;
            for step in 0..4000 {
                let burst = (rng.next_u64() % 4) as usize;
                for _ in 0..=burst {
                    // Mix of spacings: exact ties, tight clusters, and
                    // year-scale jumps (exercising resize + direct search).
                    let dt = match rng.next_u64() % 5 {
                        0 => 0,
                        1 => rng.next_u64() % 8,
                        2 => rng.next_u64() % 1_000,
                        3 => rng.next_u64() % 1_000_000,
                        _ => rng.next_u64() % 10_000_000_000,
                    };
                    let t = SimTime::from_nanos(base + dt);
                    q.push(t, seq);
                    heap.push(Reverse((t, seq)));
                    seq += 1;
                }
                let pops = if step % 7 == 0 { 3 } else { 1 };
                for _ in 0..pops {
                    let got = q.pop();
                    let want = heap.pop().map(|Reverse((t, s))| (t, s));
                    assert_eq!(got, want, "seed {seed} step {step}");
                    if let Some((t, _)) = got {
                        // Simulated time advances with the popped events.
                        base = t.as_nanos();
                    }
                }
            }
            // Drain both completely.
            loop {
                let got = q.pop();
                let want = heap.pop().map(|Reverse((t, s))| (t, s));
                assert_eq!(got, want, "seed {seed} drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn steady_state_reuses_bucket_capacity() {
        // Push/pop churn at a fixed population must not grow the queue:
        // resizes only trigger when the population doubles or halves.
        let mut q = CalendarQueue::new();
        for i in 0..8u64 {
            q.push(SimTime::from_micros(i), i);
        }
        let buckets_before = q.buckets.len();
        for t in 8u64..10_008 {
            let (at, v) = q.pop().unwrap();
            q.push(at + crate::SimDuration::from_micros(t % 97 + 1), v);
        }
        assert_eq!(q.len(), 8);
        assert_eq!(
            q.buckets.len(),
            buckets_before,
            "no resize at fixed population"
        );
    }
}
