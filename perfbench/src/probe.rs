//! A fixed host-speed probe, independent of the simulator.
//!
//! On a shared host the same code runs up to twice as slow for seconds to
//! minutes at a time (see `STEADINESS.md`). The probe repeats identical
//! work every time it runs — hash-map updates, a sort, random updates of a
//! 2 MiB table and B-tree inserts and removals, the cache-bound, branchy
//! kind of work the replay does — so its time, taken on both sides of a
//! replay, tells how fast the host ran meanwhile. It calls nothing in the
//! simulator: a change to the simulator cannot move it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Hash-map updates per probe, over `MAP_KEYS` keys.
const MAP_OPS: u64 = 1 << 15;
const MAP_KEYS: u64 = 1 << 14;
/// Values sorted per probe.
const SORT_LEN: usize = 1 << 15;
/// Random increments per probe over a `u32` table of `TABLE_LEN` entries.
const TABLE_OPS: usize = 1 << 18;
const TABLE_LEN: usize = 1 << 19;
/// B-tree inserts or removals per probe, over `TREE_KEYS` keys.
const TREE_OPS: u64 = 1 << 13;
const TREE_KEYS: u64 = 1 << 11;

/// Host seconds of one probe on the reference host: about the probe's
/// time on the 2-core x86-64 VM of `STEADINESS.md` in its fast regime. A
/// time divided by the probe's time over this value reads as if measured
/// there.
pub const REFERENCE_S: f64 = 0.003;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The probe's buffers, allocated once so that a probe does no more than
/// refill them.
pub struct Probe {
    map: HashMap<u64, u64>,
    values: Vec<u64>,
    table: Vec<u32>,
}

impl Probe {
    #[must_use]
    pub fn new() -> Probe {
        Probe {
            map: HashMap::with_capacity(MAP_KEYS as usize),
            values: Vec::with_capacity(SORT_LEN),
            table: vec![0; TABLE_LEN],
        }
    }

    /// Runs the probe once and returns its host seconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1D;
        self.map.clear();
        for _ in 0..MAP_OPS {
            let k = xorshift(&mut x) % MAP_KEYS;
            *self.map.entry(k).or_insert(0) += k;
        }
        black_box(self.map.len());
        self.values.clear();
        self.values.extend((0..SORT_LEN).map(|_| xorshift(&mut x)));
        self.values.sort_unstable();
        black_box(self.values[SORT_LEN / 2]);
        for _ in 0..TABLE_OPS {
            let i = xorshift(&mut x) as usize % TABLE_LEN;
            self.table[i] = self.table[i].wrapping_add(1);
        }
        black_box(self.table[0]);
        let mut tree = BTreeMap::new();
        for _ in 0..TREE_OPS {
            let k = xorshift(&mut x) % TREE_KEYS;
            if tree.remove(&k).is_none() {
                tree.insert(k, x);
            }
        }
        black_box(tree.len());
        t.elapsed().as_secs_f64()
    }
}
