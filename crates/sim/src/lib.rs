//! # esp-sim — deterministic simulation substrate
//!
//! Shared infrastructure for the ESP/subFTL storage simulator
//! (reproduction of Kim et al., *"Improving Performance and Lifetime of
//! Large-Page NAND Storages Using Erase-Free Subpage Programming"*, DAC 2017):
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`Resource`] — first-come-first-served occupancy timelines used to model
//!   flash channels and chips.
//! * [`CalendarQueue`] — amortized-`O(1)` discrete-event list (Brown's
//!   calendar queue).
//! * [`Rng`] / [`Zipf`] — self-contained deterministic random number
//!   generation and skewed (hot/cold) sampling for workload synthesis.
//! * [`HdrHistogram`] — the one latency histogram: HDR-style log-bucketed
//!   percentiles (p50/p95/p99/p999) behind every reported latency.
//! * [`TraceEvent`] / [`EventBuffer`] — zero-cost-when-disabled
//!   per-operation structured event tracing into a bounded ring.
//! * [`Json`] — dependency-free JSON emit/parse for `BENCH_*.json`
//!   artifacts.
//! * [`par_map`] — a `std::thread`-only multi-core sweep driver for
//!   running many independent simulations (crash points, seeds, queue
//!   depths) one per core with order-independent result merging.
//!
//! Every *simulation* here is deterministic and single-threaded by design:
//! a seed plus a configuration fully determines every simulation result,
//! which is what makes the paper's experiments reproducible run-to-run.
//! [`par_map`] parallelizes only across whole simulations, so sweeps keep
//! that guarantee while the simulator — not just the simulated device —
//! uses all available cores.
//!
//! # Examples
//!
//! Model two flash operations contending for one chip:
//!
//! ```
//! use esp_sim::{Resource, SimDuration, SimTime};
//!
//! let mut chip = Resource::new();
//! let first = chip.occupy(SimTime::ZERO, SimDuration::from_micros(1600));
//! let second = chip.occupy(SimTime::ZERO, SimDuration::from_micros(1300));
//! assert_eq!(second - first, SimDuration::from_micros(1300));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod json;
mod metrics;
mod parallel;
mod resource;
mod rng;
mod time;
mod trace;

pub use event::CalendarQueue;
pub use json::Json;
pub use metrics::{HdrHistogram, LatencySummary};
pub use parallel::{par_map, par_map_with_threads};
pub use resource::Resource;
pub use rng::{Rng, Zipf};
pub use time::{SimDuration, SimTime};
pub use trace::{merge_events, EventBuffer, TraceEvent};
