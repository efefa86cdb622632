//! The DRAM write buffer shared by all four FTLs (paper §4.1: "subFTL puts
//! [writes] into a write buffer to merge several small writes with
//! consecutive logical block addresses into one sequential write"; the FGM
//! scheme is defined around the same buffer in §1), and the write-back
//! front end ([`FrontEnd`]) that drives it: every FTL's `write`, `flush`
//! and read admission run through this one copy, and each FTL supplies only
//! its placement rule.
//!
//! Overwrites of buffered sectors are absorbed in DRAM. Synchronous writes
//! force their sectors (together with any buffered neighbors that form a
//! contiguous run with them) out immediately — this is exactly why
//! synchronous small writes "miss an opportunity to be merged" (§1) and the
//! crux of the FGM scheme's fragility that subFTL fixes.
//!
//! # Representation
//!
//! The buffer stores **maximal contiguous runs** in a sorted `Vec` — the
//! exact [`FlushChunk`]s it will eventually emit — instead of one map node
//! per dirty sector. A multi-sector write is one binary search plus a run
//! merge rather than per-sector tree inserts, a full drain moves the run
//! list out whole, and the flush path allocates nothing per sector. The
//! run list is kept sorted, disjoint, and maximal (no two runs touch), so
//! every operation can binary-search by start/end. A synchronous write
//! that touches no run — almost every one on the paper's sync-heavy
//! workloads — leaves as a fresh chunk without the run list being shifted.

use esp_sim::SimTime;
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::read_path::ReadReliability;
use crate::stats::FtlStats;

/// A contiguous run of dirty sectors leaving the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushChunk {
    /// First logical sector of the run.
    pub start_lsn: u64,
    /// Per-sector small-write-origin flags; the run length is
    /// `origins.len()`. (Did each sector arrive as part of a *small* host
    /// write? Used to attribute flash consumption to small-write request
    /// WAF.)
    pub origins: Vec<bool>,
}

impl FlushChunk {
    /// Run length in sectors.
    #[must_use]
    pub fn sectors(&self) -> u32 {
        self.origins.len() as u32
    }

    /// One-past-the-end sector.
    #[must_use]
    pub fn end_lsn(&self) -> u64 {
        self.start_lsn + u64::from(self.sectors())
    }
}

/// A fixed-capacity, coalescing write buffer keyed by logical sector.
#[derive(Debug, Clone, Default)]
pub struct WriteBuffer {
    capacity: usize,
    /// Total dirty sectors across all runs.
    len: usize,
    /// Maximal contiguous runs, sorted by `start_lsn`, pairwise disjoint
    /// and non-adjacent (touching runs are merged on insert).
    runs: Vec<FlushChunk>,
    /// Recycled `origins` allocations: spent chunks come back through
    /// [`WriteBuffer::recycle`] and [`WriteBuffer::insert`] reuses their
    /// storage, so the steady-state flush cycle allocates nothing.
    spare: Vec<Vec<bool>>,
}

/// Bound on the recycled-allocation pool; beyond this, returned chunks are
/// simply dropped (a buffer rarely fragments into more runs than this).
const SPARE_LIMIT: usize = 64;

impl WriteBuffer {
    /// Creates a buffer holding up to `capacity_sectors` dirty sectors.
    #[must_use]
    pub fn new(capacity_sectors: usize) -> Self {
        WriteBuffer {
            capacity: capacity_sectors,
            len: 0,
            runs: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Returns a spent chunk's storage to the internal pool so the next
    /// [`WriteBuffer::insert`] can reuse it instead of allocating.
    pub fn recycle(&mut self, chunk: FlushChunk) {
        if self.spare.len() < SPARE_LIMIT {
            let mut origins = chunk.origins;
            origins.clear();
            self.spare.push(origins);
        }
    }

    /// An empty `origins` vector, reusing pooled storage when available.
    fn fresh_origins(&mut self) -> Vec<bool> {
        self.spare.pop().unwrap_or_default()
    }

    /// True once the buffer is at or beyond capacity (time to flush).
    #[must_use]
    fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// True if the sector is buffered (reads hit DRAM).
    #[must_use]
    pub fn contains(&self, lsn: u64) -> bool {
        // The last run starting at or before `lsn`, if any, is the only
        // candidate (runs are sorted and disjoint).
        let i = self.runs.partition_point(|r| r.start_lsn <= lsn);
        i > 0 && self.runs[i - 1].end_lsn() > lsn
    }

    /// The runs a write of `[lsn, end)` overlaps *or touches*, as the
    /// index range `[i, j)`: those with `end_lsn >= lsn` and
    /// `start_lsn <= end`. Runs are sorted, so `j` is found by walking on
    /// from `i` over the (usually zero or one) runs that qualify.
    fn touching(&self, lsn: u64, end: u64) -> (usize, usize) {
        let i = self.runs.partition_point(|r| r.end_lsn() < lsn);
        let j = i + self.runs[i..]
            .iter()
            .take_while(|r| r.start_lsn <= end)
            .count();
        (i, j)
    }

    /// The run that merging a write of `[lsn, end)` with `runs[i..j]` (the
    /// runs it touches, `i < j`) forms. Sectors inside `[lsn, end)` take
    /// the write's origin (absorbed overwrites); the prefix of `runs[i]`
    /// below `lsn` and the suffix of `runs[j - 1]` past `end` keep theirs.
    /// Interior gaps are inside `[lsn, end)` by construction, so the
    /// merged run is dense.
    fn merged(&mut self, i: usize, j: usize, lsn: u64, end: u64, small_origin: bool) -> FlushChunk {
        let mut origins = self.fresh_origins();
        let (first, last) = (&self.runs[i], &self.runs[j - 1]);
        let start_lsn = first.start_lsn.min(lsn);
        origins.reserve((last.end_lsn().max(end) - start_lsn) as usize);
        if first.start_lsn < lsn {
            origins.extend_from_slice(&first.origins[..(lsn - first.start_lsn) as usize]);
        }
        origins.resize(origins.len() + (end - lsn) as usize, small_origin);
        if last.end_lsn() > end {
            origins.extend_from_slice(&last.origins[(end - last.start_lsn) as usize..]);
        }
        FlushChunk { start_lsn, origins }
    }

    /// Removes `runs[i..j]`, recycling their storage, and returns how many
    /// sectors they held.
    fn remove_runs(&mut self, i: usize, j: usize) -> usize {
        let mut removed = 0;
        for k in i..j {
            let spent = std::mem::take(&mut self.runs[k].origins);
            removed += spent.len();
            self.recycle(FlushChunk {
                start_lsn: 0,
                origins: spent,
            });
        }
        self.runs.drain(i..j);
        removed
    }

    /// Buffers `sectors` sectors starting at `lsn`; overwrites of already
    /// buffered sectors are absorbed in place (taking this write's
    /// origin flag).
    pub fn insert(&mut self, lsn: u64, sectors: u32, small_origin: bool) {
        if sectors == 0 {
            return;
        }
        let end = lsn + u64::from(sectors);
        let (i, j) = self.touching(lsn, end);
        if i == j {
            // No neighbors: a fresh run.
            let mut origins = self.fresh_origins();
            origins.resize(sectors as usize, small_origin);
            self.runs.insert(
                i,
                FlushChunk {
                    start_lsn: lsn,
                    origins,
                },
            );
            self.len += sectors as usize;
            return;
        }
        let merged = self.merged(i, j, lsn, end, small_origin);
        self.len += merged.origins.len();
        let old = std::mem::replace(&mut self.runs[i], merged);
        self.len -= old.origins.len();
        self.recycle(old);
        self.len -= self.remove_runs(i + 1, j);
    }

    /// A synchronous write of `sectors` sectors at `lsn`: buffers it and
    /// forces it out at once together with the runs it overlaps or touches
    /// (its merge partners), as one chunk appended to `out` — the chunk
    /// that inserting the write and then taking its run would emit.
    ///
    /// A write that touches no run leaves as a fresh chunk and the run list
    /// is not shifted; otherwise the touched runs leave with one `drain`.
    fn write_through_into(
        &mut self,
        lsn: u64,
        sectors: u32,
        small_origin: bool,
        out: &mut Vec<FlushChunk>,
    ) {
        let end = lsn + u64::from(sectors);
        let (i, j) = self.touching(lsn, end);
        if i == j {
            if sectors > 0 {
                let mut origins = self.fresh_origins();
                origins.resize(sectors as usize, small_origin);
                out.push(FlushChunk {
                    start_lsn: lsn,
                    origins,
                });
            }
            return;
        }
        let merged = self.merged(i, j, lsn, end, small_origin);
        self.len -= self.remove_runs(i, j);
        out.push(merged);
    }

    /// Removes every buffered sector as maximal contiguous chunks, in
    /// ascending LSN order, appending them to `out` (which the caller
    /// reuses across flushes).
    fn drain_all_into(&mut self, out: &mut Vec<FlushChunk>) {
        self.len = 0;
        out.append(&mut self.runs);
    }

    /// Discards any buffered sectors in `[lsn, lsn + sectors)` (host trim:
    /// the data will never be needed again). Returns how many sectors were
    /// dropped.
    pub fn discard(&mut self, lsn: u64, sectors: u32) -> u32 {
        if sectors == 0 {
            return 0;
        }
        let end = lsn + u64::from(sectors);
        // Strictly overlapping runs only (adjacency doesn't discard).
        let i = self.runs.partition_point(|r| r.end_lsn() <= lsn);
        let j = self.runs.partition_point(|r| r.start_lsn < end);
        if i == j {
            return 0;
        }
        let mut dropped = 0u32;
        let mut keep: Vec<FlushChunk> = Vec::with_capacity(2);
        for r in &self.runs[i..j] {
            let cut_lo = lsn.max(r.start_lsn);
            let cut_hi = end.min(r.end_lsn());
            dropped += (cut_hi - cut_lo) as u32;
            if r.start_lsn < cut_lo {
                keep.push(FlushChunk {
                    start_lsn: r.start_lsn,
                    origins: r.origins[..(cut_lo - r.start_lsn) as usize].to_vec(),
                });
            }
            if cut_hi < r.end_lsn() {
                keep.push(FlushChunk {
                    start_lsn: cut_hi,
                    origins: r.origins[(cut_hi - r.start_lsn) as usize..].to_vec(),
                });
            }
        }
        self.runs.splice(i..j, keep);
        self.len -= dropped as usize;
        dropped
    }
}

/// The parts of an FTL the write-back front end drives.
pub(crate) struct Front<'a> {
    pub(crate) ssd: &'a Ssd,
    pub(crate) buffer: &'a mut WriteBuffer,
    /// Reused chunk list, so the flush cycle allocates nothing.
    pub(crate) chunks: &'a mut Vec<FlushChunk>,
    pub(crate) reliability: &'a mut ReadReliability,
    pub(crate) stats: &'a mut FtlStats,
    pub(crate) logical_sectors: u64,
}

/// The host-facing write path of every FTL: the capacity and failed-device
/// gates, read-only and end-of-life refusal, host counters, DRAM buffering,
/// and the flushes a write forces. An FTL supplies its parts and its
/// placement rule; its `Ftl::write`, `Ftl::flush` and the top of
/// `Ftl::read` call the provided methods.
pub(crate) trait FrontEnd {
    /// Borrows the parts the front end drives.
    fn front(&mut self) -> Front<'_>;

    /// Writes `chunks` out (draining the list) and returns when the last
    /// program completes: the FTL's placement rule.
    fn flush_chunks(&mut self, chunks: &mut Vec<FlushChunk>, issue: SimTime) -> SimTime;

    /// `Ftl::write`: buffers the sectors, then forces out the runs a
    /// synchronous write touches, or drains a full buffer. An asynchronous
    /// write completes at `issue`, whatever flushing it caused.
    fn write_back(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        let f = self.front();
        assert!(
            lsn + u64::from(sectors) <= f.logical_sectors,
            "write beyond logical capacity"
        );
        // A failed device executes nothing; the shard is inert.
        if f.ssd.device_failed() || f.reliability.refuse_write(f.stats) {
            return issue;
        }
        f.stats.host_write_requests += 1;
        f.stats.host_write_sectors += u64::from(sectors);
        let small = sectors < SECTORS_PER_PAGE;
        if small {
            f.stats.small_write_requests += 1;
            f.stats.small_waf_host_sectors += u64::from(sectors);
        }
        if !sync {
            f.buffer.insert(lsn, sectors, small);
            if f.buffer.is_full() {
                self.flush_buffer(issue);
            }
            return issue;
        }
        let mut chunks = std::mem::take(f.chunks);
        f.buffer
            .write_through_into(lsn, sectors, small, &mut chunks);
        let done = self.flush_chunks(&mut chunks, issue);
        *self.front().chunks = chunks;
        done
    }

    /// `Ftl::flush`: drains the whole buffer to flash.
    fn flush_buffer(&mut self, issue: SimTime) -> SimTime {
        let f = self.front();
        if f.ssd.device_failed() {
            return issue;
        }
        let mut chunks = std::mem::take(f.chunks);
        f.buffer.drain_all_into(&mut chunks);
        let done = self.flush_chunks(&mut chunks, issue);
        *self.front().chunks = chunks;
        done
    }

    /// The top of `Ftl::read`: counts the request, or returns `false` when
    /// the device has failed and the read must complete at its issue time.
    fn admit_read(&mut self, sectors: u32) -> bool {
        let f = self.front();
        if f.ssd.device_failed() {
            return false;
        }
        f.stats.host_read_requests += 1;
        f.stats.host_read_sectors += u64::from(sectors);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The representation invariant: sorted, disjoint, maximal, and the
    /// sector counter matches.
    fn check(b: &WriteBuffer) {
        let mut total = 0;
        for w in b.runs.windows(2) {
            assert!(
                w[0].end_lsn() < w[1].start_lsn,
                "runs must be disjoint and non-adjacent: {w:?}"
            );
        }
        for r in &b.runs {
            assert!(!r.origins.is_empty(), "empty run");
            total += r.origins.len();
        }
        assert_eq!(total, b.len, "sector counter out of sync");
    }

    fn drain_all(b: &mut WriteBuffer) -> Vec<FlushChunk> {
        let mut out = Vec::new();
        b.drain_all_into(&mut out);
        out
    }

    fn write_through(b: &mut WriteBuffer, lsn: u64, sectors: u32, small: bool) -> Vec<FlushChunk> {
        let mut out = Vec::new();
        b.write_through_into(lsn, sectors, small, &mut out);
        out
    }

    #[test]
    fn insert_and_absorb() {
        let mut b = WriteBuffer::new(100);
        b.insert(5, 3, true);
        assert_eq!(b.len, 3);
        // Overwrite absorbs (no growth) and updates origin.
        b.insert(6, 1, false);
        assert_eq!(b.len, 3);
        check(&b);
        let chunks = drain_all(&mut b);
        assert_eq!(chunks[0].origins, vec![true, false, true]);
        assert_eq!(b.len, 0);
        check(&b);
    }

    #[test]
    fn drain_produces_maximal_runs() {
        let mut b = WriteBuffer::new(100);
        b.insert(0, 2, true);
        b.insert(10, 1, false);
        b.insert(2, 1, true); // extends the first run
        check(&b);
        let chunks = drain_all(&mut b);
        assert_eq!(chunks.len(), 2);
        assert_eq!((chunks[0].start_lsn, chunks[0].sectors()), (0, 3));
        assert_eq!((chunks[1].start_lsn, chunks[1].sectors()), (10, 1));
    }

    #[test]
    fn insert_bridges_runs_and_keeps_outside_origins() {
        let mut b = WriteBuffer::new(100);
        b.insert(0, 2, true); // 0,1 small
        b.insert(4, 2, false); // 4,5 large
                               // Bridge 1..5: overwritten interior takes the new origin, the
                               // untouched prefix (0) and suffix (5) keep theirs.
        b.insert(1, 4, true);
        check(&b);
        let chunks = drain_all(&mut b);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].start_lsn, 0);
        assert_eq!(chunks[0].origins, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn write_through_grabs_whole_runs() {
        let mut b = WriteBuffer::new(100);
        b.insert(4, 4, true); // run 4..8
        b.insert(20, 1, false);
        // Sync write of sector 5 must flush the whole 4..8 run (its merge
        // partners) with it, as one chunk, but leave 20 alone.
        let chunks = write_through(&mut b, 5, 1, false);
        assert_eq!(chunks.len(), 1);
        assert_eq!((chunks[0].start_lsn, chunks[0].sectors()), (4, 4));
        assert_eq!(chunks[0].origins, vec![true, false, true, true]);
        assert_eq!(b.len, 1);
        assert!(b.contains(20) && !b.contains(5));
        check(&b);
    }

    #[test]
    fn write_through_extends_in_both_directions() {
        let mut b = WriteBuffer::new(100);
        b.insert(8, 2, true); // 8,9
        b.insert(12, 2, true); // 12,13
                               // Writing [9, 13) touches both runs; they leave merged with it.
        let chunks = write_through(&mut b, 9, 4, false);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].start_lsn, 8);
        assert_eq!(
            chunks[0].origins,
            vec![true, false, false, false, false, true]
        );
        assert_eq!(b.len, 0);
        check(&b);
    }

    #[test]
    fn write_through_grabs_adjacent_runs() {
        // A run ending exactly at the sync write's start (or starting at
        // its end) is a merge partner and comes out too — even when the
        // written sectors themselves are not buffered.
        let mut b = WriteBuffer::new(100);
        b.insert(2, 2, true); // 2,3
        b.insert(6, 2, false); // 6,7
        let chunks = write_through(&mut b, 4, 2, true); // [4, 6): touches both
        assert_eq!(chunks.len(), 1);
        assert_eq!((chunks[0].start_lsn, chunks[0].sectors()), (2, 6));
        assert_eq!(b.len, 0);
        check(&b);
    }

    #[test]
    fn write_through_of_an_untouched_range_is_a_fresh_chunk() {
        let mut b = WriteBuffer::new(100);
        b.insert(0, 1, true);
        b.insert(5, 1, true);
        // [2, 4) neither overlaps nor touches a run (1 and 4 are free).
        let chunks = write_through(&mut b, 2, 2, false);
        assert_eq!(
            chunks,
            vec![FlushChunk {
                start_lsn: 2,
                origins: vec![false, false]
            }]
        );
        assert_eq!(b.len, 2);
        assert_eq!(b.runs.len(), 2);
        check(&b);
        // A zero-length sync write forces out only the run it touches.
        assert!(write_through(&mut b, 3, 0, false).is_empty());
        assert_eq!(write_through(&mut b, 6, 0, false).len(), 1);
        check(&b);
    }

    #[test]
    fn discard_drops_buffered_sectors() {
        let mut b = WriteBuffer::new(100);
        b.insert(0, 4, true);
        assert_eq!(b.discard(1, 2), 2);
        assert_eq!(b.len, 2);
        assert!(b.contains(0) && b.contains(3));
        assert_eq!(b.discard(10, 5), 0);
        check(&b);
    }

    #[test]
    fn discard_splits_across_runs() {
        let mut b = WriteBuffer::new(100);
        b.insert(0, 3, true); // 0..3
        b.insert(5, 3, false); // 5..8
                               // Cut [2, 6): tail of the first run, head of the second.
        assert_eq!(b.discard(2, 4), 2);
        assert_eq!(b.len, 4);
        assert!(b.contains(0) && b.contains(1) && b.contains(6) && b.contains(7));
        assert!(!b.contains(2) && !b.contains(5));
        check(&b);
    }

    #[test]
    fn capacity_signals_fullness() {
        let mut b = WriteBuffer::new(2);
        assert!(!b.is_full());
        b.insert(0, 2, false);
        assert!(b.is_full());
    }

    #[test]
    fn chunk_accessors() {
        let c = FlushChunk {
            start_lsn: 7,
            origins: vec![true, true],
        };
        assert_eq!(c.sectors(), 2);
        assert_eq!(c.end_lsn(), 9);
    }

    #[test]
    fn randomized_against_btreemap_reference() {
        // Differential test: the run-based buffer must agree with the
        // original per-sector BTreeMap implementation on every operation
        // of a random interleaving. A sync write's reference inserts the
        // write, then takes the runs it overlaps or touches.
        use std::collections::BTreeMap;
        struct Reference {
            entries: BTreeMap<u64, bool>,
        }
        impl Reference {
            fn insert(&mut self, lsn: u64, sectors: u32, small: bool) {
                for s in lsn..lsn + u64::from(sectors) {
                    self.entries.insert(s, small);
                }
            }
            fn discard(&mut self, lsn: u64, sectors: u32) -> u32 {
                let mut n = 0;
                for s in lsn..lsn + u64::from(sectors) {
                    if self.entries.remove(&s).is_some() {
                        n += 1;
                    }
                }
                n
            }
            fn take_overlapping(&mut self, lsn: u64, sectors: u32) -> Vec<FlushChunk> {
                let end = lsn + u64::from(sectors);
                let mut lo = lsn;
                while lo > 0 && self.entries.contains_key(&(lo - 1)) {
                    lo -= 1;
                }
                let mut hi = end;
                while self.entries.contains_key(&hi) {
                    hi += 1;
                }
                let keys: Vec<u64> = self.entries.range(lo..hi).map(|(k, _)| *k).collect();
                let taken: Vec<(u64, bool)> = keys
                    .into_iter()
                    .map(|k| (k, self.entries.remove(&k).unwrap()))
                    .collect();
                Self::runs(taken)
            }
            fn write_through(&mut self, lsn: u64, sectors: u32, small: bool) -> Vec<FlushChunk> {
                self.insert(lsn, sectors, small);
                self.take_overlapping(lsn, sectors)
            }
            fn drain_all(&mut self) -> Vec<FlushChunk> {
                let e = std::mem::take(&mut self.entries);
                Self::runs(e.into_iter().collect())
            }
            fn runs(entries: Vec<(u64, bool)>) -> Vec<FlushChunk> {
                let mut chunks: Vec<FlushChunk> = Vec::new();
                for (lsn, small) in entries {
                    match chunks.last_mut() {
                        Some(c) if c.end_lsn() == lsn => c.origins.push(small),
                        _ => chunks.push(FlushChunk {
                            start_lsn: lsn,
                            origins: vec![small],
                        }),
                    }
                }
                chunks
            }
        }

        const SECTORS: u64 = 56;
        let mut rng = esp_sim::Rng::seed_from(0xB0FF);
        for _ in 0..200 {
            let mut buf = WriteBuffer::new(64);
            let mut reference = Reference {
                entries: BTreeMap::new(),
            };
            for _ in 0..120 {
                let lsn = rng.next_u64() % 48;
                let sectors = (rng.next_u64() % 6 + 1) as u32;
                let small = rng.next_u64().is_multiple_of(2);
                match rng.next_u64() % 9 {
                    0 => {
                        // Now and then a zero-length write.
                        let sectors = if rng.next_u64().is_multiple_of(8) {
                            0
                        } else {
                            sectors
                        };
                        assert_eq!(
                            write_through(&mut buf, lsn, sectors, small),
                            reference.write_through(lsn, sectors, small)
                        );
                    }
                    1 => {
                        assert_eq!(drain_all(&mut buf), reference.drain_all());
                    }
                    2 => {
                        assert_eq!(buf.discard(lsn, sectors), reference.discard(lsn, sectors));
                    }
                    3 | 4 => {
                        // A write starting inside the last run or at its
                        // end: the merge keeps that run's prefix.
                        let Some(last) = buf.runs.last() else {
                            continue;
                        };
                        let lsn = last.start_lsn + rng.next_u64() % (u64::from(last.sectors()) + 1);
                        if lsn + u64::from(sectors) < SECTORS {
                            buf.insert(lsn, sectors, small);
                            reference.insert(lsn, sectors, small);
                        }
                    }
                    _ => {
                        buf.insert(lsn, sectors, small);
                        reference.insert(lsn, sectors, small);
                    }
                }
                check(&buf);
                assert_eq!(buf.len, reference.entries.len());
                for s in 0..SECTORS {
                    assert_eq!(buf.contains(s), reference.entries.contains_key(&s));
                }
            }
            assert_eq!(drain_all(&mut buf), reference.drain_all());
        }
    }
}
