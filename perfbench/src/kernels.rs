//! Isolated host cost of the layers the replay reaches only through the
//! FTL: `Ssd` program/read/erase on a fresh device, and the esp-sim
//! kernels the runner calls per request (`CalendarQueue` push + pop,
//! `HdrHistogram::record`).
//!
//! Every kernel runs a fixed amount of work in batches and reports the
//! median batch's host ns per operation, with the number of operations
//! timed.

use std::hint::black_box;
use std::time::Instant;

use esp_nand::{Geometry, Oob};
use esp_sim::{CalendarQueue, HdrHistogram, SimDuration, SimTime};
use esp_ssd::Ssd;

use crate::stats::median;
use crate::workloads::QUEUE_DEPTH;

/// Blocks of the fresh device each `Ssd` kernel cycles through.
const SSD_BLOCKS: u32 = 64;
/// Batches (and operations per batch) of each esp-sim kernel.
const SIM_BATCHES: usize = 32;
const SIM_BATCH_OPS: u64 = 1 << 16;

/// Host ns per operation and the number of operations timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Median batch's host ns per operation.
    pub ns: f64,
    /// Operations timed.
    pub samples: u64,
}

/// Host cost of each `Ssd` operation the FTLs issue.
#[derive(Debug, Clone, Copy)]
pub struct SsdCosts {
    /// `Ssd::program_full`.
    pub program_full: Cost,
    /// `Ssd::program_subpage`.
    pub program_subpage: Cost,
    /// `Ssd::read_full_into`.
    pub read_full: Cost,
    /// `Ssd::erase`.
    pub erase: Cost,
}

/// Collects per-batch ns/op and reduces them to a [`Cost`].
#[derive(Default)]
struct Batches {
    per_op_ns: Vec<f64>,
    samples: u64,
}

impl Batches {
    fn time<T>(&mut self, ops: u64, f: impl FnOnce() -> T) {
        let t = Instant::now();
        black_box(f());
        self.per_op_ns
            .push(t.elapsed().as_nanos() as f64 / ops as f64);
        self.samples += ops;
    }

    fn cost(mut self) -> Cost {
        Cost {
            ns: median(&mut self.per_op_ns),
            samples: self.samples,
        }
    }
}

/// Times full-page programs, full-page reads, subpage programs and erases
/// over `SSD_BLOCKS` blocks of a fresh device of `geometry`, one block per
/// batch.
#[must_use]
pub fn ssd_costs(geometry: &Geometry) -> SsdCosts {
    let mut ssd = Ssd::new(geometry.clone());
    let pages = geometry.pages_per_block;
    let slots = u8::try_from(geometry.subpages_per_page).expect("subpages per page fit u8");
    let oob = |page: u32, slot: u8| {
        Some(Oob {
            lsn: u64::from(page) * u64::from(slots) + u64::from(slot),
            seq: u64::from(page),
        })
    };
    let full_oobs: Vec<Vec<Option<Oob>>> = (0..pages)
        .map(|p| (0..slots).map(|s| oob(p, s)).collect())
        .collect();
    let (mut program_full, mut program_subpage, mut read_full, mut erase) = (
        Batches::default(),
        Batches::default(),
        Batches::default(),
        Batches::default(),
    );
    let mut buf = Vec::new();
    let at = SimTime::ZERO;
    let stride = (geometry.block_count() / SSD_BLOCKS).max(1);
    for i in 0..SSD_BLOCKS.min(geometry.block_count()) {
        let block = geometry.block_addr(i * stride);
        program_full.time(u64::from(pages), || {
            for p in 0..pages {
                ssd.program_full(block.page(p), &full_oobs[p as usize], at)
                    .expect("program a free page");
            }
        });
        read_full.time(u64::from(pages), || {
            for p in 0..pages {
                black_box(ssd.read_full_into(block.page(p), at, &mut buf));
            }
        });
        erase.time(1, || ssd.erase(block, at).expect("erase a good block"));
        program_subpage.time(u64::from(pages) * u64::from(slots), || {
            for p in 0..pages {
                for s in 0..slots {
                    let o = oob(p, s).expect("oob");
                    ssd.program_subpage(block.page(p).subpage(s), o, at)
                        .expect("program a free subpage");
                }
            }
        });
        erase.time(1, || ssd.erase(block, at).expect("erase a good block"));
    }
    SsdCosts {
        program_full: program_full.cost(),
        program_subpage: program_subpage.cost(),
        read_full: read_full.cost(),
        erase: erase.cost(),
    }
}

/// A deterministic stream of simulated service times (50 µs – 3 ms).
fn service_times() -> impl FnMut() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        50_000 + x % 2_950_000
    }
}

/// Host ns per `CalendarQueue` pop + push pair at the replay's queue
/// depth: the slot calendar's work per request.
#[must_use]
pub fn calendar_cost() -> Cost {
    let mut q: CalendarQueue<()> = CalendarQueue::new();
    for _ in 0..QUEUE_DEPTH {
        q.push(SimTime::ZERO, ());
    }
    let mut next = service_times();
    let mut b = Batches::default();
    for _ in 0..SIM_BATCHES {
        b.time(SIM_BATCH_OPS, || {
            for _ in 0..SIM_BATCH_OPS {
                let (at, ()) = q.pop().expect("queue holds QUEUE_DEPTH events");
                q.push(at + SimDuration::from_nanos(next()), ());
            }
        });
    }
    b.cost()
}

/// Host ns per `HdrHistogram::record` of a simulated latency.
#[must_use]
pub fn hdr_record_cost() -> Cost {
    let mut h = HdrHistogram::new();
    let mut next = service_times();
    let mut b = Batches::default();
    for _ in 0..SIM_BATCHES {
        b.time(SIM_BATCH_OPS, || {
            for _ in 0..SIM_BATCH_OPS {
                h.record(black_box(next()));
            }
        });
    }
    black_box(h.count());
    b.cost()
}
