//! Per-operation structured event tracing.
//!
//! Components (the SSD timing layer, every FTL) embed an [`EventBuffer`]
//! and report what they do as [`TraceEvent`]s: op kind, sim-time
//! timestamp, a small set of named integer fields (LSN, sector count,
//! retry rungs climbed, latency) and an optional static tag (GC cause,
//! region). Recording is **zero-cost when disabled**: the buffer starts
//! disabled, `emit` takes a closure so the event is never even
//! constructed unless the buffer is armed, and the disabled check is a
//! single predictable branch on the ring bound.
//!
//! # Examples
//!
//! ```
//! use esp_sim::{EventBuffer, TraceEvent};
//!
//! let mut trace = EventBuffer::disabled();
//! trace.emit(|| unreachable!("never constructed while disabled"));
//!
//! trace.enable(1024);
//! trace.emit(|| TraceEvent::new(150_000, "host.write")
//!     .field("lsn", 42)
//!     .field("sectors", 1)
//!     .tag("sync"));
//! assert_eq!(trace.events().len(), 1);
//! assert_eq!(trace.events()[0].get("lsn"), Some(42));
//! ```

use std::collections::VecDeque;

use crate::Json;

/// One structured trace event: what happened, when (simulated time), and
/// the operation's key numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp (nanoseconds since simulation start).
    pub at_ns: u64,
    /// Event kind, dot-namespaced by layer: `host.write`, `host.read`,
    /// `gc.collect`, `sub.lap_migration`, `nand.program_subpage`, ….
    pub kind: &'static str,
    /// Optional static qualifier: the GC cause (`"watermark"`,
    /// `"background"`, `"disturb"`), the region (`"sub"`, `"full"`), or a
    /// similar enum-like label.
    pub tag: Option<&'static str>,
    /// Named integer fields (`lsn`, `sectors`, `lat_ns`, `rungs`, …), in
    /// emission order.
    pub fields: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// Starts an event of `kind` at simulated time `at_ns`.
    #[must_use]
    pub fn new(at_ns: u64, kind: &'static str) -> Self {
        TraceEvent {
            at_ns,
            kind,
            tag: None,
            fields: Vec::new(),
        }
    }

    /// Appends a named field (builder style).
    #[must_use]
    pub fn field(mut self, name: &'static str, value: u64) -> Self {
        self.fields.push((name, value));
        self
    }

    /// Sets the qualifier tag (builder style).
    #[must_use]
    pub fn tag(mut self, tag: &'static str) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Value of the named field, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The event as a JSON object (`{"at_ns": …, "kind": …, ["tag": …,]
    /// <fields>…}`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::with_capacity(self.fields.len() + 3);
        members.push(("at_ns".into(), Json::from(self.at_ns)));
        members.push(("kind".into(), Json::from(self.kind)));
        if let Some(tag) = self.tag {
            members.push(("tag".into(), Json::from(tag)));
        }
        for (name, value) in &self.fields {
            members.push(((*name).into(), Json::from(*value)));
        }
        Json::Obj(members)
    }
}

/// The recorder a component embeds: a bounded keep-newest event ring.
///
/// Disabled (the default) it holds a zero bound and no storage — `emit`
/// is one branch, no allocation, no event construction.
/// [`EventBuffer::enable`] arms it at runtime: once `capacity` events are
/// held, each new event evicts the oldest (the tail of a run is where
/// latency spikes and GC storms live), and evictions are counted so
/// reports can state how much history was dropped.
#[derive(Debug, Clone, Default)]
pub struct EventBuffer {
    events: VecDeque<TraceEvent>,
    /// Ring bound; zero while disabled.
    capacity: usize,
    dropped: u64,
}

impl EventBuffer {
    /// The default, disabled recorder.
    #[must_use]
    pub fn disabled() -> Self {
        EventBuffer::default()
    }

    /// A recorder armed with a ring bounded to `capacity` events (at
    /// least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventBuffer {
            events: VecDeque::with_capacity(capacity.clamp(1, 1 << 16)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Arms recording (discarding any previous events) with the given
    /// bound.
    pub fn enable(&mut self, capacity: usize) {
        *self = EventBuffer::with_capacity(capacity);
    }

    /// Whether events are being retained.
    #[must_use]
    fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records the event produced by `f`, if and only if the buffer is
    /// armed.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.is_enabled() {
            self.record(f());
        }
    }

    /// Records one event, evicting the oldest when the ring is full; a
    /// disabled buffer drops it.
    pub fn record(&mut self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first (empty when disabled).
    #[must_use]
    pub fn events(&self) -> Vec<&TraceEvent> {
        self.events.iter().collect()
    }

    /// Events evicted by the ring bound (0 when disabled).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Merges several event streams into one list ordered by timestamp
/// (stable: ties keep stream order, then intra-stream order). Used when a
/// report combines FTL-level and NAND-level events.
#[must_use]
pub fn merge_events(streams: &[&EventBuffer]) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = streams
        .iter()
        .flat_map(|b| b.events().into_iter().cloned())
        .collect();
    all.sort_by_key(|e| e.at_ns);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_never_constructs_events() {
        let mut b = EventBuffer::disabled();
        b.emit(|| panic!("constructed while disabled"));
        assert!(!b.is_enabled());
        assert!(b.is_empty());
    }

    #[test]
    fn enabled_buffer_records_in_order() {
        let mut b = EventBuffer::with_capacity(8);
        for i in 0..3u64 {
            b.emit(|| TraceEvent::new(i * 10, "host.write").field("lsn", i));
        }
        let events = b.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("lsn"), Some(2));
        assert_eq!(events[0].at_ns, 0);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut b = EventBuffer::with_capacity(2);
        for i in 0..5u64 {
            b.emit(|| TraceEvent::new(i, "x"));
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 3);
        assert_eq!(b.events()[0].at_ns, 3);
        assert_eq!(b.events()[1].at_ns, 4);
    }

    #[test]
    fn event_json_shape() {
        let e = TraceEvent::new(5, "gc.collect")
            .tag("watermark")
            .field("victim_pe", 7)
            .field("copied", 12);
        let j = e.to_json();
        assert_eq!(j.get("at_ns").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("gc.collect"));
        assert_eq!(j.get("tag").and_then(Json::as_str), Some("watermark"));
        assert_eq!(j.get("copied").and_then(Json::as_u64), Some(12));
        // Untagged events omit the member entirely.
        let j = TraceEvent::new(0, "x").to_json();
        assert!(j.get("tag").is_none());
    }

    #[test]
    fn merge_orders_by_timestamp() {
        let mut a = EventBuffer::with_capacity(8);
        let mut b = EventBuffer::with_capacity(8);
        a.emit(|| TraceEvent::new(10, "a"));
        a.emit(|| TraceEvent::new(30, "a"));
        b.emit(|| TraceEvent::new(20, "b"));
        let merged = merge_events(&[&a, &b]);
        let kinds: Vec<&str> = merged.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["a", "b", "a"]);
    }
}
