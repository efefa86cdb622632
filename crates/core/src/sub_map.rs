//! The subpage region's fine-grained mapping table.
//!
//! Paper §4.2: "In order to mitigate memory overhead for fine-grained L2P
//! mapping, subFTL employs a hash table to manage the subpage region. The
//! memory requirement for the hash table is not huge because each full page
//! can hold only one valid subpage — the number of hash entries pointing to
//! valid subpages is one fourth of the total subpages. Therefore, even with
//! a relatively small hash table, subFTL can quickly find a physical
//! location of a given logical subpage, without being severely affected by
//! hash collisions."
//!
//! [`SubpageMap`] makes that argument concrete: a fixed-capacity,
//! open-addressing (linear probing, backward-shift deletion) hash table
//! sized at 1.25× the region's one-valid-subpage-per-page capacity (≤ 80 %
//! load), stored as parallel arrays of 8-byte keys and 12-byte packed
//! entries — 20 bytes per slot — with probe-length statistics and exact
//! memory accounting. These are the numbers behind the
//! `table_mapping_memory` experiment. Beside them sits a membership bitset,
//! one bit per logical sector, the host's lookup accelerator (not part of
//! the table the paper sizes): most lookups are removes for sectors the map
//! never held (every full-page write unmaps its sectors from the fine map),
//! and each of those now tests one bit instead of hashing its key and
//! probing the table.

use esp_sim::SimTime;

/// A fine-grained mapping entry: where a logical sector lives in the
/// subpage region, plus the hot/cold and retention bookkeeping of §4.2/4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubEntry {
    /// Region-local block index.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
    /// Subpage slot within the page.
    pub slot: u8,
    /// Updated at least once since (re-)entering the subpage region — the
    /// hot/cold signal used by GC.
    pub updated: bool,
    /// When the current physical copy was programmed (retention clock,
    /// stored at 1-second granularity — retention decisions are made in
    /// days).
    pub written_at: SimTime,
}

/// Packed in-table representation: 12 bytes per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed {
    /// `block * pages_per_block_cap + page`, assigned by the caller through
    /// block/page fields; packed as two u16-capable fields in one u32 pair.
    block: u32,
    /// Low 24 bits: page; bits 24..29: slot; bit 30: updated.
    page_meta: u32,
    /// Program time in whole seconds (1-second granularity).
    written_secs: u32,
}

const EMPTY_KEY: u64 = u64::MAX;

/// `key`'s home slot in a table of `slots` slots: a SplitMix64 finalizer,
/// cheap and well distributed.
fn home_slot(key: u64, slots: usize) -> usize {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % slots as u64) as usize
}

impl Packed {
    fn pack(e: SubEntry) -> Packed {
        debug_assert!(e.page < (1 << 24), "page index exceeds packing");
        debug_assert!(e.slot < 32, "slot exceeds packing");
        Packed {
            block: e.block,
            page_meta: e.page | (u32::from(e.slot) << 24) | (u32::from(e.updated) << 30),
            written_secs: (e.written_at.as_nanos() / 1_000_000_000) as u32,
        }
    }

    fn unpack(self) -> SubEntry {
        SubEntry {
            block: self.block,
            page: self.page_meta & 0x00FF_FFFF,
            slot: ((self.page_meta >> 24) & 0x1F) as u8,
            updated: (self.page_meta >> 30) & 1 == 1,
            written_at: SimTime::from_secs(u64::from(self.written_secs)),
        }
    }
}

/// Probe statistics, used to verify the paper's "not severely affected by
/// hash collisions" claim experimentally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Lookups that reached the table: every insert, and every `get`,
    /// `update` and `remove` of a sector the map holds. A lookup of a
    /// sector the map does not hold is answered by its membership bit and
    /// is not counted.
    pub lookups: u64,
    /// Total probe steps beyond the home slot across those lookups.
    pub extra_probes: u64,
    /// Longest probe sequence observed.
    pub max_probe: u64,
}

impl ProbeStats {
    /// Mean probes per lookup (1.0 = every lookup hits its home slot).
    #[must_use]
    pub fn mean_probes(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            1.0 + self.extra_probes as f64 / self.lookups as f64
        }
    }
}

/// Fixed-capacity open-addressing hash map from logical sector numbers to
/// [`SubEntry`] (see module docs).
#[derive(Debug, Clone)]
pub struct SubpageMap {
    keys: Vec<u64>,
    vals: Vec<Packed>,
    /// Sector `s` is in the table iff bit `s % 64` of word `s / 64` is set.
    members: Vec<u64>,
    len: usize,
    max_entries: usize,
    stats: ProbeStats,
}

impl SubpageMap {
    /// Creates a map that can hold `max_entries` live entries of the
    /// sectors `0..sectors`. The backing arrays hold `1.25 × max_entries +
    /// 1` slots, bounding the load factor at 80 %.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero. Every later call panics on a sector
    /// past `sectors` rounded up to a multiple of 64 (the callers map only
    /// logical sectors, which the host path has checked).
    #[must_use]
    pub fn with_capacity(max_entries: usize, sectors: u64) -> Self {
        assert!(max_entries > 0, "subpage map needs capacity");
        let slots = max_entries * 5 / 4 + 1;
        SubpageMap {
            keys: vec![EMPTY_KEY; slots],
            members: vec![0; sectors.div_ceil(64) as usize],
            vals: vec![
                Packed {
                    block: 0,
                    page_meta: 0,
                    written_secs: 0
                };
                slots
            ],
            len: 0,
            max_entries,
            stats: ProbeStats::default(),
        }
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Exact memory footprint of the table the paper sizes, in bytes
    /// (8-byte key + 12-byte packed entry per slot). The membership bitset,
    /// one bit per logical sector, is a host-side lookup aid and is not
    /// counted.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u64>()
            + self.vals.len() * std::mem::size_of::<Packed>()
    }

    /// Probe-length statistics accumulated since construction.
    #[must_use]
    pub fn probe_stats(&self) -> ProbeStats {
        self.stats
    }

    fn home(&self, key: u64) -> usize {
        home_slot(key, self.keys.len())
    }

    fn next(&self, idx: usize) -> usize {
        let n = idx + 1;
        if n == self.keys.len() {
            0
        } else {
            n
        }
    }

    fn note_probe(&mut self, extra: u64) {
        self.stats.lookups += 1;
        self.stats.extra_probes += extra;
        self.stats.max_probe = self.stats.max_probe.max(extra + 1);
    }

    /// Marks `lsn` as held (`true`) or not.
    fn set_member(&mut self, lsn: u64, on: bool) {
        let mask = 1 << (lsn % 64);
        if on {
            self.members[(lsn / 64) as usize] |= mask;
        } else {
            self.members[(lsn / 64) as usize] &= !mask;
        }
    }

    /// Index of `key` if present, or of the first empty slot otherwise,
    /// and the probe steps taken beyond the home slot.
    fn find(&self, key: u64) -> (usize, bool, u64) {
        debug_assert_ne!(key, EMPTY_KEY, "sentinel key is reserved");
        let mut idx = self.home(key);
        let mut extra = 0;
        loop {
            match self.keys[idx] {
                k if k == key => return (idx, true, extra),
                EMPTY_KEY => return (idx, false, extra),
                _ => {}
            }
            idx = self.next(idx);
            extra += 1;
        }
    }

    /// Looks up the entry for `lsn`.
    pub fn get(&mut self, lsn: u64) -> Option<SubEntry> {
        if !self.contains(lsn) {
            return None;
        }
        let (idx, found, extra) = self.find(lsn);
        self.note_probe(extra);
        found.then(|| self.vals[idx].unpack())
    }

    /// Looks up without touching statistics (for read-only diagnostics).
    #[must_use]
    pub fn peek(&self, lsn: u64) -> Option<SubEntry> {
        if !self.contains(lsn) {
            return None;
        }
        let (idx, found, _) = self.find(lsn);
        found.then(|| self.vals[idx].unpack())
    }

    /// True if `lsn` is mapped: one bit, no hash, no probe and no
    /// statistics update.
    #[must_use]
    pub fn contains(&self, lsn: u64) -> bool {
        self.members[(lsn / 64) as usize] >> (lsn % 64) & 1 == 1
    }

    /// Inserts or replaces the entry for `lsn`. Returns the previous entry
    /// if one existed.
    ///
    /// # Panics
    ///
    /// Panics if the table would exceed `max_entries` — the region
    /// invariant (at most one valid subpage per physical page) makes that
    /// impossible in correct use.
    pub fn insert(&mut self, lsn: u64, entry: SubEntry) -> Option<SubEntry> {
        let (idx, found, extra) = self.find(lsn);
        self.note_probe(extra);
        if found {
            let old = self.vals[idx].unpack();
            self.vals[idx] = Packed::pack(entry);
            Some(old)
        } else {
            assert!(
                self.len < self.max_entries,
                "subpage map over capacity: region invariant violated"
            );
            self.keys[idx] = lsn;
            self.vals[idx] = Packed::pack(entry);
            self.set_member(lsn, true);
            self.len += 1;
            None
        }
    }

    /// Applies `f` to the entry for `lsn`, if present. Returns whether the
    /// entry existed.
    pub fn update<F: FnOnce(&mut SubEntry)>(&mut self, lsn: u64, f: F) -> bool {
        if !self.contains(lsn) {
            return false;
        }
        let (idx, found, extra) = self.find(lsn);
        self.note_probe(extra);
        if found {
            let mut e = self.vals[idx].unpack();
            f(&mut e);
            self.vals[idx] = Packed::pack(e);
        }
        found
    }

    /// Removes the entry for `lsn`, returning it if present. Uses
    /// backward-shift deletion, so no tombstones accumulate.
    pub fn remove(&mut self, lsn: u64) -> Option<SubEntry> {
        if !self.contains(lsn) {
            return None;
        }
        let (idx, found, extra) = self.find(lsn);
        self.note_probe(extra);
        if !found {
            return None;
        }
        let removed = self.vals[idx].unpack();
        self.set_member(lsn, false);
        self.len -= 1;
        // Backward-shift: close the hole by moving displaced entries back.
        let n = self.keys.len();
        let mut hole = idx;
        let mut cursor = self.next(hole);
        while self.keys[cursor] != EMPTY_KEY {
            let key = self.keys[cursor];
            let home = self.home(key);
            // Move back iff the hole lies within [home, cursor) cyclically.
            let dist_home = (cursor + n - home) % n;
            let dist_hole = (cursor + n - hole) % n;
            if dist_home >= dist_hole {
                self.keys[hole] = self.keys[cursor];
                self.vals[hole] = self.vals[cursor];
                hole = cursor;
            }
            cursor = self.next(cursor);
        }
        self.keys[hole] = EMPTY_KEY;
        Some(removed)
    }

    /// Iterates over `(lsn, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SubEntry)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, &v)| (k, v.unpack()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(block: u32) -> SubEntry {
        SubEntry {
            block,
            page: block + 1,
            slot: (block % 4) as u8,
            updated: false,
            written_at: SimTime::from_secs(u64::from(block) * 100),
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = SubpageMap::with_capacity(16, 64);
        assert_eq!(m.len(), 0);
        assert_eq!(m.insert(5, e(1)), None);
        assert_eq!(m.insert(5, e(2)), Some(e(1)));
        assert_eq!(m.get(5), Some(e(2)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(5), Some(e(2)));
        assert_eq!(m.get(5), None);
        assert_eq!(m.len(), 0);
        assert_eq!(m.remove(5), None);
    }

    #[test]
    fn packing_round_trips_every_field() {
        let orig = SubEntry {
            block: 123_456,
            page: (1 << 24) - 1,
            slot: 31,
            updated: true,
            written_at: SimTime::from_secs(86_400 * 365),
        };
        assert_eq!(Packed::pack(orig).unpack(), orig);
        let plain = SubEntry {
            block: 0,
            page: 0,
            slot: 0,
            updated: false,
            written_at: SimTime::ZERO,
        };
        assert_eq!(Packed::pack(plain).unpack(), plain);
    }

    #[test]
    fn update_mutates_in_place() {
        let mut m = SubpageMap::with_capacity(4, 64);
        m.insert(9, e(0));
        assert!(m.update(9, |x| x.updated = true));
        assert!(m.get(9).unwrap().updated);
        assert!(!m.update(10, |_| panic!("must not run")));
    }

    #[test]
    fn many_entries_with_collisions() {
        let mut m = SubpageMap::with_capacity(1000, 1000);
        for k in 0..1000u64 {
            m.insert(k, e(k as u32));
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k), Some(e(k as u32)), "key {k}");
        }
        // At <= 80% load, linear probing stays short on average.
        assert!(
            m.probe_stats().mean_probes() < 4.0,
            "mean probes {}",
            m.probe_stats().mean_probes()
        );
    }

    #[test]
    fn backward_shift_preserves_chains() {
        // Force collisions in a small table, then remove entries and verify
        // every remaining key is still reachable.
        let mut m = SubpageMap::with_capacity(64, 64 * 7919);
        for k in 0..64u64 {
            m.insert(k * 7919, e(k as u32));
        }
        for k in (0..64u64).step_by(2) {
            assert!(m.remove(k * 7919).is_some());
        }
        for k in (1..64u64).step_by(2) {
            assert_eq!(m.get(k * 7919), Some(e(k as u32)), "key {k}");
        }
        assert_eq!(m.len(), 32);
    }

    #[test]
    fn churn_interleaved_insert_remove() {
        // Heavy interleaving exercises backward-shift across wrap-around.
        let mut m = SubpageMap::with_capacity(100, 500);
        let mut live = std::collections::HashMap::new();
        let mut x: u64 = 0x1234_5678;
        for step in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = x % 500;
            if live.len() < 100 && !(x >> 32).is_multiple_of(3) {
                m.insert(key, e(step as u32));
                live.insert(key, e(step as u32));
            } else {
                assert_eq!(m.remove(key), live.remove(&key), "step {step} key {key}");
            }
            if step % 1000 == 0 {
                assert_eq!(m.len(), live.len());
            }
        }
        for (&k, &v) in &live {
            assert_eq!(m.get(k), Some(v));
        }
    }

    #[test]
    fn iter_visits_every_live_entry() {
        let mut m = SubpageMap::with_capacity(32, 64);
        for k in 10..20u64 {
            m.insert(k, e(k as u32));
        }
        m.remove(13);
        let mut keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![10, 11, 12, 14, 15, 16, 17, 18, 19]);
    }

    #[test]
    fn memory_accounting_is_twenty_bytes_per_slot() {
        let m = SubpageMap::with_capacity(1000, 1000);
        // 1251 slots x (8 + 12) bytes.
        assert_eq!(m.memory_bytes(), 1251 * 20);
        // 1.25x headroom plus one slot.
        let m = SubpageMap::with_capacity(64, 64);
        assert_eq!(m.memory_bytes(), (64 * 5 / 4 + 1) * 20);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn overfull_table_panics() {
        let mut m = SubpageMap::with_capacity(4, 100);
        for k in 0..100u64 {
            m.insert(k, e(0));
        }
    }

    /// The map without its membership bitset: every lookup hashes and
    /// probes, and an empty slot is told by its sentinel key.
    struct KeyProbed {
        keys: Vec<u64>,
        vals: Vec<SubEntry>,
        stats: ProbeStats,
    }

    impl KeyProbed {
        fn new(max_entries: usize) -> Self {
            let slots = max_entries * 5 / 4 + 1;
            KeyProbed {
                keys: vec![EMPTY_KEY; slots],
                vals: vec![e(0); slots],
                stats: ProbeStats::default(),
            }
        }

        fn next(&self, idx: usize) -> usize {
            (idx + 1) % self.keys.len()
        }

        /// Finds `key`. The lookup counts when it reaches `SubpageMap`'s
        /// table too: when the key is held, or to insert it.
        fn probe(&mut self, key: u64, inserting: bool) -> (usize, bool) {
            let mut idx = home_slot(key, self.keys.len());
            let mut extra = 0;
            let found = loop {
                match self.keys[idx] {
                    k if k == key => break true,
                    EMPTY_KEY => break false,
                    _ => {}
                }
                idx = self.next(idx);
                extra += 1;
            };
            if found || inserting {
                self.stats.lookups += 1;
                self.stats.extra_probes += extra;
                self.stats.max_probe = self.stats.max_probe.max(extra + 1);
            }
            (idx, found)
        }

        fn get(&mut self, key: u64) -> Option<SubEntry> {
            let (idx, found) = self.probe(key, false);
            found.then_some(self.vals[idx])
        }

        fn insert(&mut self, key: u64, entry: SubEntry) -> Option<SubEntry> {
            let (idx, found) = self.probe(key, true);
            let old = found.then_some(self.vals[idx]);
            self.keys[idx] = key;
            self.vals[idx] = entry;
            old
        }

        fn update(&mut self, key: u64) -> bool {
            let (idx, found) = self.probe(key, false);
            if found {
                self.vals[idx].updated = true;
            }
            found
        }

        fn remove(&mut self, key: u64) -> Option<SubEntry> {
            let (idx, found) = self.probe(key, false);
            if !found {
                return None;
            }
            let removed = self.vals[idx];
            let n = self.keys.len();
            let (mut hole, mut cursor) = (idx, self.next(idx));
            while self.keys[cursor] != EMPTY_KEY {
                let home = home_slot(self.keys[cursor], n);
                if (cursor + n - home) % n >= (cursor + n - hole) % n {
                    self.keys[hole] = self.keys[cursor];
                    self.vals[hole] = self.vals[cursor];
                    hole = cursor;
                }
                cursor = self.next(cursor);
            }
            self.keys[hole] = EMPTY_KEY;
            Some(removed)
        }
    }

    #[test]
    fn occupancy_bits_change_no_result_and_no_probe_count() {
        for seed in 0..6u64 {
            let cap = 64 + 40 * seed as usize;
            let mut m = SubpageMap::with_capacity(cap, 3 * cap as u64);
            let mut reference = KeyProbed::new(cap);
            let mut rng = esp_sim::Rng::seed_from(seed);
            for step in 0..20_000u64 {
                let key = rng.next_below(3 * cap as u64);
                let entry = e(step as u32);
                match rng.next_below(4) {
                    0 if m.len() < cap || m.contains(key) => {
                        assert_eq!(m.insert(key, entry), reference.insert(key, entry));
                    }
                    1 => assert_eq!(m.update(key, |x| x.updated = true), reference.update(key)),
                    2 => assert_eq!(m.remove(key), reference.remove(key)),
                    _ => assert_eq!(m.get(key), reference.get(key)),
                }
                assert_eq!(m.probe_stats(), reference.stats, "seed {seed} step {step}");
            }
            let live: Vec<(u64, SubEntry)> = reference
                .keys
                .iter()
                .zip(&reference.vals)
                .filter(|(&k, _)| k != EMPTY_KEY)
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(m.iter().collect::<Vec<_>>(), live, "seed {seed}");
            for key in 0..3 * cap as u64 {
                let held = live.iter().any(|&(k, _)| k == key);
                assert_eq!(m.contains(key), held, "seed {seed} key {key}");
            }
        }
    }

    #[test]
    fn peek_and_contains_do_not_count() {
        let mut m = SubpageMap::with_capacity(8, 64);
        m.insert(1, e(1));
        let before = m.probe_stats().lookups;
        assert!(m.contains(1));
        assert_eq!(m.peek(1), Some(e(1)));
        assert_eq!(m.probe_stats().lookups, before);
    }
}
