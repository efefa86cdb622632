//! # esp-nand — NAND flash device model with erase-free subpage programming
//!
//! A behavioural model of the large-page TLC NAND devices characterized in
//! Kim et al., *"Improving Performance and Lifetime of Large-Page NAND
//! Storages Using Erase-Free Subpage Programming"* (DAC 2017):
//!
//! * [`Geometry`] — channels × ways × blocks × pages × subpages (defaults to
//!   the paper's 8-channel, 4-way device with 16 KB pages of four 4 KB
//!   subpages).
//! * [`NandDevice`] — the command interface: [`NandDevice::program_full`],
//!   [`NandDevice::program_subpage`] (**ESP**), [`NandDevice::read_subpage`],
//!   [`NandDevice::erase`], with exact SBPI corruption semantics: programming
//!   a subpage destroys data in every previously-programmed subpage of the
//!   same page (paper Fig 4).
//! * [`RetentionModel`] — the subpage-aware retention-BER model of Fig 5: an
//!   `Npp^k` subpage (programmed after `k` earlier programs of its page) has
//!   a retention capability that shrinks with `k`; `Npp^3` survives 1 month
//!   but not 2 at 1K P/E cycles.
//! * [`NandTiming`] — operation latencies (full-page program 1600 µs,
//!   subpage program 1300 µs, per the paper's measurements).
//! * [`FaultConfig`] / [`FaultModel`] — opt-in deterministic program/erase
//!   fault injection with factory-marked and grown bad blocks; a device
//!   without an installed model draws no randomness and never faults.
//!
//! The timing *simulation* (channel/chip contention) lives in `esp-ssd`; the
//! FTLs that exploit ESP live in `esp-core`.
//!
//! # Examples
//!
//! The paper's Fig 4 scenario — sp1 programmed, then sp2 programmed without
//! an intervening erase:
//!
//! ```
//! use esp_nand::{Geometry, NandDevice, Oob, ReadFault};
//! use esp_sim::SimTime;
//!
//! let mut dev = NandDevice::new(Geometry::tiny());
//! let page = dev.geometry().block_addr(0).page(0);
//! dev.program_subpage(page.subpage(0), Oob { lsn: 1, seq: 1 }, SimTime::ZERO)?;
//! dev.program_subpage(page.subpage(1), Oob { lsn: 2, seq: 2 }, SimTime::ZERO)?;
//!
//! // sp1 is destroyed (uncorrectable); sp2 holds data with reduced retention.
//! assert_eq!(
//!     dev.read_subpage(page.subpage(0), SimTime::ZERO),
//!     Err(ReadFault::DestroyedByProgram)
//! );
//! assert_eq!(dev.read_subpage(page.subpage(1), SimTime::ZERO)?.lsn, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod ecc;
mod error;
mod fault;
mod geometry;
mod page;
mod reliability;
mod timing;

pub use device::{Block, DeviceStats, NandDevice, OpCost, OpKind};
pub use ecc::EccConfig;
pub use error::{NandError, ReadFault};
pub use fault::{FaultConfig, FaultModel};
pub use geometry::{BlockAddr, ChipAddr, Geometry, PageAddr, SubpageAddr};
pub use page::{Oob, SubpageState, WrittenSubpage};
pub use reliability::{EraseDepth, ReadEffort, RetentionModel, RetryLadder};
pub use timing::NandTiming;
