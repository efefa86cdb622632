//! The NAND device: geometry + per-block state + retention-aware reads.
//!
//! [`NandDevice`] is a *behavioural* model, not a timing model: operations
//! mutate state and return immediately. The cost of each operation is exposed
//! through [`NandDevice::op_cost`], and the multi-channel timing simulation
//! (which chip is busy when) lives in the `esp-ssd` crate. Keeping mechanism
//! and timing separate lets unit tests drive the state machine directly.
//!
//! Page state lives in two device-wide tables. Every written subpage of a
//! page comes from the page's last program (each program destroys the
//! page's other written subpages), so the last program's time and wear,
//! the program count and each slot's kind make one 16-byte record per
//! page, indexed `global block × pages_per_block + page`. Each subpage's
//! spare area (`lsn`, `seq`) is a 16-byte record indexed `page index ×
//! N_sub + slot`: 20 bytes per subpage at four subpages per page. An erase
//! fills the block's page records and leaves the spare areas alone. Every
//! command checks its address against the geometry before it computes a
//! flat index: in a flat table an out-of-range page or slot would silently
//! land in the next page or block.

use std::collections::HashSet;

use esp_sim::{SimDuration, SimTime};

use crate::error::{NandError, ReadFault};
use crate::fault::{FaultConfig, FaultModel};
use crate::geometry::{BlockAddr, Geometry, PageAddr, SubpageAddr};
use crate::page::{self, Oob, PageRec, SubpageState};
use crate::reliability::{EraseDepth, ReadEffort, RetentionModel, RetryLadder};
use crate::timing::NandTiming;

/// One erase block's wear and health state (its pages' contents live in
/// the device's page and spare-area tables).
#[derive(Debug, Clone, Default)]
pub struct Block {
    pe_cycles: u32,
    /// Accumulated tunnel-oxide stress in milli-P/E. A full-depth erase
    /// charges exactly 1000, so without adaptive erase this is always
    /// `pe_cycles * 1000` and the effective wear equals the erase count;
    /// AERO-style shallow erases charge less (see [`EraseDepth`]).
    stress_milli: u64,
    bad: bool,
    /// The last erase was interrupted by power loss: contents are
    /// indeterminate and programs are rejected until a completed re-erase.
    torn: bool,
    /// Cell senses since the last erase: the read-disturb accumulator
    /// (see [`RetentionModel::disturb_term`]). An erase resets it.
    reads_since_erase: u64,
}

impl Block {
    /// Program/erase cycles this block has endured (the raw erase count,
    /// regardless of erase depth).
    #[must_use]
    pub fn pe_cycles(&self) -> u32 {
        self.pe_cycles
    }

    /// The block's *effective* wear in whole P/E cycles: accumulated
    /// oxide stress over the stress of one full-depth erase. Equal to
    /// [`Block::pe_cycles`] unless AERO-style shallow erases have charged
    /// fractional stress. This is the wear that reliability judgments and
    /// fault draws use.
    #[must_use]
    pub fn effective_pe(&self) -> u32 {
        (self.stress_milli / 1000) as u32
    }

    /// Accumulated tunnel-oxide stress in milli-P/E (1000 per full-depth
    /// erase).
    #[must_use]
    pub fn stress_milli_pe(&self) -> u64 {
        self.stress_milli
    }

    /// True if the block is marked bad (factory-marked or grown).
    #[must_use]
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// True if the block's last erase was cut mid-operation (power loss):
    /// it must be re-erased before any program is accepted.
    #[must_use]
    pub fn is_torn(&self) -> bool {
        self.torn
    }

    /// Cell senses this block has absorbed since its last erase (the
    /// read-disturb accumulator).
    #[must_use]
    pub fn reads_since_erase(&self) -> u64 {
        self.reads_since_erase
    }
}

/// Kinds of device operation, used for cost lookup and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Full-page read (cell sense + full-page bus transfer).
    ReadFull,
    /// Subpage read (cell sense + subpage bus transfer).
    ReadSubpage,
    /// Full-page program (bus transfer + 1600 µs cell program).
    ProgramFull,
    /// Subpage program (bus transfer + 1300 µs cell program).
    ProgramSubpage,
    /// Block erase.
    Erase,
}

/// Bus and cell occupancy of one operation: the channel is busy for
/// `bus`, the chip for `cell` (the `esp-ssd` crate serializes these on the
/// corresponding resources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Channel (data transfer) occupancy.
    pub bus: SimDuration,
    /// Chip (cell operation) occupancy.
    pub cell: SimDuration,
}

impl OpCost {
    /// Total serial latency of the operation (bus + cell).
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.bus + self.cell
    }
}

/// Operation counters for the whole device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Full-page program operations.
    pub full_programs: u64,
    /// Subpage (ESP) program operations.
    pub subpage_programs: u64,
    /// Subpage read operations.
    pub reads: u64,
    /// Block erase operations.
    pub erases: u64,
    /// Subpages destroyed as a side effect of ESP programs. Non-zero values
    /// indicate that some program destroyed *valid-looking* data; the subFTL
    /// discipline keeps destroyed slots limited to already-invalid data.
    pub subpages_destroyed: u64,
    /// Reads that failed because retention exceeded the ECC limit.
    pub retention_failures: u64,
    /// Program operations that reported status fail (injected faults).
    pub program_failures: u64,
    /// Erase operations that reported status fail; each one grows a bad
    /// block.
    pub erase_failures: u64,
    /// Program operations cut mid-pulse by an injected power loss.
    pub torn_programs: u64,
    /// Erase operations cut mid-operation by an injected power loss.
    pub torn_erases: u64,
    /// Hard read-retry steps performed by the retry ladder.
    pub retry_steps: u64,
    /// Soft-decode passes performed by the retry ladder.
    pub soft_decodes: u64,
    /// Reads that were over the base ECC limit but recovered by the ladder.
    pub recovered_reads: u64,
    /// Erases performed at less than full depth (adaptive erase only; a
    /// device without adaptive erase never counts one).
    pub shallow_erases: u64,
}

/// A behavioural model of a multi-chip NAND subsystem.
///
/// # Examples
///
/// ```
/// use esp_nand::{Geometry, NandDevice, Oob};
/// use esp_sim::SimTime;
///
/// let mut dev = NandDevice::new(Geometry::tiny());
/// let page = dev.geometry().block_addr(0).page(0);
/// // ESP: program subpage 0, then subpage 1 of the same page with no erase.
/// dev.program_subpage(page.subpage(0), Oob { lsn: 7, seq: 1 }, SimTime::ZERO)?;
/// dev.program_subpage(page.subpage(1), Oob { lsn: 8, seq: 2 }, SimTime::ZERO)?;
/// // Subpage 1 holds data; subpage 0 was destroyed by the second program.
/// assert_eq!(dev.read_subpage(page.subpage(1), SimTime::ZERO)?.lsn, 8);
/// assert!(dev.read_subpage(page.subpage(0), SimTime::ZERO).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct NandDevice {
    geometry: Geometry,
    timing: NandTiming,
    retention: RetentionModel,
    /// Blocks indexed by the device-global block index.
    blocks: Vec<Block>,
    /// Every page's record (last program, program count, slot kinds): the
    /// record of (global block `b`, page `p`) is at `b × pages_per_block +
    /// p`.
    pages: Vec<PageRec>,
    /// Every subpage's spare area: (global block `b`, page `p`, slot `s`)
    /// is at `(b × pages_per_block + p) × N_sub + s`. Meaningful only
    /// while the slot's page record says it holds data.
    spare: Vec<Oob>,
    stats: DeviceStats,
    forced_faults: HashSet<SubpageAddr>,
    faults: Option<FaultModel>,
    retry_ladder: Option<RetryLadder>,
    /// AERO-style adaptive erase: erase depth (latency and oxide stress)
    /// follows the block's effective wear. Off by default so seed runs are
    /// bit-identical.
    adaptive_erase: bool,
    /// Whole-device death latch: once set (fault-model trip or explicit
    /// [`NandDevice::kill`]) every command fails with
    /// [`NandError::DeviceDead`] / [`ReadFault::DeviceDead`], permanently.
    dead: bool,
    /// Executed NAND commands (programs, reads, erases — the commands that
    /// actually ran, legal-and-accepted; illegal commands and power-cut
    /// tears are excluded). Drives [`FaultConfig::die_at_op`].
    ops_executed: u64,
}

impl NandDevice {
    /// Creates a device with default timing and retention models.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`Geometry::validate`].
    #[must_use]
    pub fn new(geometry: Geometry) -> Self {
        Self::with_models(
            geometry,
            NandTiming::paper_default(),
            RetentionModel::paper_default(),
        )
    }

    /// Creates a device with explicit timing and retention models.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`Geometry::validate`].
    #[must_use]
    pub fn with_models(geometry: Geometry, timing: NandTiming, retention: RetentionModel) -> Self {
        geometry.validate().expect("invalid NAND geometry");
        let subpages = geometry.subpage_count() as usize;
        let pages = subpages / geometry.subpages_per_page as usize;
        NandDevice {
            blocks: vec![Block::default(); geometry.block_count() as usize],
            pages: vec![PageRec::ERASED; pages],
            spare: vec![Oob { lsn: 0, seq: 0 }; subpages],
            geometry,
            timing,
            retention,
            stats: DeviceStats::default(),
            forced_faults: HashSet::new(),
            faults: None,
            retry_ladder: None,
            adaptive_erase: false,
            dead: false,
            ops_executed: 0,
        }
    }

    /// Enables (or disables) AERO-style adaptive erase: each erase picks a
    /// depth from the block's effective wear (see
    /// [`RetentionModel::erase_depth`]), charging proportionally less
    /// latency ([`NandTiming::erase_for`]) and oxide stress. Disabled by
    /// default; while disabled, every erase is full-depth and the device is
    /// bit-identical to one without this feature.
    pub fn set_adaptive_erase(&mut self, on: bool) {
        self.adaptive_erase = on;
    }

    /// True if AERO-style adaptive erase is enabled.
    #[must_use]
    pub fn adaptive_erase(&self) -> bool {
        self.adaptive_erase
    }

    /// Installs (or removes) a tiered read-retry ladder. Without one —
    /// the default — an over-limit read fails immediately, as in the seed
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the ladder fails [`RetryLadder::validate`].
    pub fn set_retry_ladder(&mut self, ladder: Option<RetryLadder>) {
        if let Some(l) = &ladder {
            l.validate().expect("invalid retry ladder");
        }
        self.retry_ladder = ladder;
    }

    /// The installed retry ladder, if any.
    #[must_use]
    pub fn retry_ladder(&self) -> Option<&RetryLadder> {
        self.retry_ladder.as_ref()
    }

    /// Installs a program/erase fault model (factory bad blocks are marked
    /// immediately; subsequent programs/erases consult the fault stream).
    ///
    /// Without this call the device draws no random numbers and never
    /// injects a fault, so baseline runs are bit-for-bit reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FaultConfig::validate`].
    pub fn set_faults(&mut self, config: FaultConfig) {
        let model = FaultModel::new(config);
        for gbi in model.factory_bad_blocks(self.geometry.block_count()) {
            self.blocks[gbi as usize].bad = true;
        }
        self.faults = Some(model);
    }

    /// True if the block at `addr` is marked bad (factory or grown).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the geometry.
    #[must_use]
    pub fn is_bad(&self, addr: BlockAddr) -> bool {
        self.block(addr).bad
    }

    /// Device-global indices of every bad block, in ascending order.
    #[must_use]
    pub fn bad_block_indices(&self) -> Vec<u32> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.bad)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Device geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Latency parameters.
    #[must_use]
    pub fn timing(&self) -> &NandTiming {
        &self.timing
    }

    /// The retention model used to judge reads.
    #[must_use]
    pub fn retention_model(&self) -> &RetentionModel {
        &self.retention
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Bus/cell occupancy of an operation of the given kind.
    #[must_use]
    pub fn op_cost(&self, kind: OpKind) -> OpCost {
        let g = &self.geometry;
        let t = &self.timing;
        match kind {
            OpKind::ReadFull => OpCost {
                bus: t.transfer(g.page_bytes()),
                cell: t.read_full,
            },
            OpKind::ReadSubpage => OpCost {
                bus: t.transfer(u64::from(g.subpage_bytes)),
                cell: t.read_subpage,
            },
            OpKind::ProgramFull => OpCost {
                bus: t.transfer(g.page_bytes()),
                cell: t.program_full,
            },
            OpKind::ProgramSubpage => OpCost {
                bus: t.transfer(u64::from(g.subpage_bytes)),
                cell: t.program_subpage,
            },
            OpKind::Erase => OpCost {
                bus: SimDuration::ZERO,
                cell: t.erase,
            },
        }
    }

    /// True if `addr` names a block of this geometry.
    fn block_in_range(&self, addr: BlockAddr) -> bool {
        addr.chip.channel < self.geometry.channels
            && addr.chip.way < self.geometry.chips_per_channel
            && addr.block < self.geometry.blocks_per_chip
    }

    /// Device-global index of the block at `addr`.
    ///
    /// # Errors
    ///
    /// [`NandError::AddressOutOfRange`] if `addr` is outside the geometry.
    fn checked_block_index(&self, addr: BlockAddr) -> Result<usize, NandError> {
        if self.block_in_range(addr) {
            Ok(self.geometry.block_index(addr) as usize)
        } else {
            Err(NandError::AddressOutOfRange)
        }
    }

    /// Flat index of `page` into `pages`; its spare areas start at `N_sub`
    /// times this in `spare`. The caller has checked the address.
    fn page_index(&self, page: PageAddr) -> usize {
        debug_assert!(self.geometry.contains(page.subpage(0)));
        self.geometry.block_index(page.block) as usize * self.geometry.pages_per_block as usize
            + page.page as usize
    }

    /// Flat index of `page` into `pages`.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the geometry.
    fn checked_page_index(&self, page: PageAddr) -> usize {
        assert!(
            self.geometry.contains(page.subpage(0)),
            "address outside geometry"
        );
        self.page_index(page)
    }

    /// The record and the spare area of the subpage at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the geometry.
    fn slot(&self, addr: SubpageAddr) -> (&PageRec, Oob) {
        assert!(self.geometry.contains(addr), "address outside geometry");
        let pi = self.page_index(addr.page);
        let n = self.geometry.subpages_per_page as usize;
        (&self.pages[pi], self.spare[pi * n + usize::from(addr.slot)])
    }

    /// The record and the spare areas of the page at flat index `pi`.
    fn page_mut(&mut self, pi: usize) -> (&mut PageRec, &mut [Oob]) {
        let n = self.geometry.subpages_per_page as usize;
        (&mut self.pages[pi], &mut self.spare[pi * n..(pi + 1) * n])
    }

    /// The records of every page of block `bi`.
    fn block_pages_mut(&mut self, bi: usize) -> &mut [PageRec] {
        let pages = self.geometry.pages_per_block as usize;
        &mut self.pages[bi * pages..(bi + 1) * pages]
    }

    /// Checks that the block at `addr` accepts programs and returns its
    /// effective wear.
    ///
    /// # Errors
    ///
    /// [`NandError::AddressOutOfRange`], [`NandError::BadBlock`] or
    /// [`NandError::TornBlock`], in that order.
    fn programmable_wear(&self, addr: BlockAddr) -> Result<u32, NandError> {
        let block = &self.blocks[self.checked_block_index(addr)?];
        if block.bad {
            return Err(NandError::BadBlock);
        }
        if block.torn {
            return Err(NandError::TornBlock);
        }
        // Reliability follows *effective* wear (equal to the erase count
        // unless adaptive erase charged fractional stress).
        Ok(block.effective_pe())
    }

    /// The checks shared by [`NandDevice::program_full`] and
    /// [`NandDevice::tear_program_full`] before the page's own state:
    /// returns the page's flat index and its block's effective wear.
    fn full_program_target(&self, page: PageAddr) -> Result<(usize, u32), NandError> {
        if self.dead {
            return Err(NandError::DeviceDead);
        }
        let pe = self.programmable_wear(page.block)?;
        if page.page >= self.geometry.pages_per_block {
            return Err(NandError::AddressOutOfRange);
        }
        let pi = self.page_index(page);
        // Word lines must be programmed in order: a full-page program is
        // only legal if the preceding page has been programmed.
        if page.page > 0 && self.pages[pi - 1].programs() == 0 {
            return Err(NandError::NonSequentialProgram { page: page.page });
        }
        Ok((pi, pe))
    }

    /// The checks shared by [`NandDevice::program_subpage`] and
    /// [`NandDevice::tear_program_subpage`] before the page's own state:
    /// returns the page's flat index and its block's effective wear.
    fn subpage_program_target(&self, addr: SubpageAddr) -> Result<(usize, u32), NandError> {
        if self.dead {
            return Err(NandError::DeviceDead);
        }
        if !self.geometry.contains(addr) {
            return Err(NandError::AddressOutOfRange);
        }
        let pe = self.programmable_wear(addr.page.block)?;
        Ok((self.page_index(addr.page), pe))
    }

    /// The block at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the geometry.
    #[must_use]
    pub fn block(&self, addr: BlockAddr) -> &Block {
        // A block index past its chip would name the next chip's block.
        assert!(self.block_in_range(addr), "address outside geometry");
        &self.blocks[self.geometry.block_index(addr) as usize]
    }

    /// P/E cycles endured by the block at `addr`.
    #[must_use]
    pub fn pe_cycles(&self, addr: BlockAddr) -> u32 {
        self.block(addr).pe_cycles()
    }

    /// Effective wear of the block at `addr` (see [`Block::effective_pe`]).
    /// Equal to [`NandDevice::pe_cycles`] unless adaptive erase has charged
    /// fractional stress.
    #[must_use]
    pub fn effective_pe(&self, addr: BlockAddr) -> u32 {
        self.block(addr).effective_pe()
    }

    /// Bus/cell occupancy of erasing the specific block at `addr`: the
    /// full-depth cost unless adaptive erase is enabled, in which case the
    /// cell time follows the depth the block's *current* wear selects.
    /// Callers that charge erase time must sample this **before** calling
    /// [`NandDevice::erase`], which mutates the wear. Out-of-range
    /// addresses report the full-depth cost (the erase itself will be
    /// rejected without running).
    #[must_use]
    pub fn erase_cost(&self, addr: BlockAddr) -> OpCost {
        let cell = if self.adaptive_erase && self.block_in_range(addr) {
            let depth = self.retention.erase_depth(self.block(addr).effective_pe());
            self.timing.erase_for(depth)
        } else {
            self.timing.erase
        };
        OpCost {
            bus: SimDuration::ZERO,
            cell,
        }
    }

    /// Cell senses absorbed by the block at `addr` since its last erase
    /// (the read-disturb accumulator scrubbers patrol).
    #[must_use]
    pub fn reads_since_erase(&self, addr: BlockAddr) -> u64 {
        self.block(addr).reads_since_erase()
    }

    /// Programs a whole physical page (conventional CGM/FGM write path).
    ///
    /// # Errors
    ///
    /// * [`NandError::DeviceDead`] once the device has failed.
    /// * [`NandError::AddressOutOfRange`] for addresses outside the
    ///   geometry.
    /// * [`NandError::BadBlock`] / [`NandError::TornBlock`] if the block is
    ///   marked bad or its last erase was cut.
    /// * [`NandError::NonSequentialProgram`] if the previous page of the
    ///   block is still erased.
    /// * [`NandError::SlotCountMismatch`] if `oobs.len() != N_sub`.
    /// * [`NandError::ProgramOnDirtyPage`] if the page has been programmed
    ///   since the last erase.
    /// * [`NandError::ProgramFailed`] with a fault model installed: the
    ///   pulse ran (the page counts a program and holds garbage) but no data
    ///   was stored, and the caller must re-program elsewhere.
    pub fn program_full(
        &mut self,
        page: PageAddr,
        oobs: &[Option<Oob>],
        now: SimTime,
    ) -> Result<(), NandError> {
        let (pi, pe) = self.full_program_target(page)?;
        let (rec, spare) = self.page_mut(pi);
        page::program_full(rec, spare, oobs, now, pe)?;
        self.stats.full_programs += 1;
        self.note_op_executed();
        // The fault stream is consulted only after the command proved legal,
        // so illegal commands never advance (or even require) the RNG.
        if self.draw_program_fault() {
            for slot in 0..oobs.len() {
                self.pages[pi].destroy(slot);
            }
            self.stats.program_failures += 1;
            return Err(NandError::ProgramFailed);
        }
        Ok(())
    }

    /// Programs a single subpage via ESP (erase-free subpage programming).
    ///
    /// Any previously programmed subpage of the same page is destroyed;
    /// the count of destroyed subpages is recorded in [`DeviceStats`].
    ///
    /// # Errors
    ///
    /// * [`NandError::DeviceDead`] once the device has failed.
    /// * [`NandError::AddressOutOfRange`] for addresses outside the
    ///   geometry, an out-of-range slot included.
    /// * [`NandError::BadBlock`] / [`NandError::TornBlock`] if the block is
    ///   marked bad or its last erase was cut.
    /// * [`NandError::ProgramLimitExceeded`] if the page has already been
    ///   programmed `N_sub` times since the last erase.
    /// * [`NandError::ProgramFailed`] with a fault model installed: the
    ///   pulse ran (SBPI side effects included) but the target slot holds
    ///   garbage.
    pub fn program_subpage(
        &mut self,
        addr: SubpageAddr,
        oob: Oob,
        now: SimTime,
    ) -> Result<(), NandError> {
        let (pi, pe) = self.subpage_program_target(addr)?;
        let (rec, spare) = self.page_mut(pi);
        let destroyed = page::program_subpage(rec, spare, addr.slot, oob, now, pe)?;
        self.stats.subpage_programs += 1;
        self.stats.subpages_destroyed += u64::from(destroyed);
        self.note_op_executed();
        // Consulted only after the command proved legal (see program_full).
        if self.draw_program_fault() {
            self.pages[pi].destroy(usize::from(addr.slot));
            self.stats.program_failures += 1;
            return Err(NandError::ProgramFailed);
        }
        Ok(())
    }

    /// Reads the subpage at `addr`, judging retention at time `now`.
    ///
    /// # Errors
    ///
    /// * [`ReadFault::NotWritten`] / [`ReadFault::Padding`] /
    ///   [`ReadFault::DestroyedByProgram`] / [`ReadFault::Torn`] if the
    ///   subpage is erased, padding, destroyed by a later program of its
    ///   page, or torn by a power cut (see [`SubpageState`]).
    /// * [`ReadFault::RetentionExceeded`] if the data has aged (or been
    ///   read-disturbed) past what the ECC — and the retry ladder, if one
    ///   is installed — can correct.
    /// * [`ReadFault::Injected`] if a fault was injected at this address.
    pub fn read_subpage(&mut self, addr: SubpageAddr, now: SimTime) -> Result<Oob, ReadFault> {
        self.read_subpage_with_effort(addr, now).0
    }

    /// Reads the subpage at `addr`, also reporting how much retry-ladder
    /// work the read needed (always [`ReadEffort::NONE`] without a ladder).
    /// The block's read-disturb accumulator is charged one sense plus one
    /// per hard retry step.
    pub fn read_subpage_with_effort(
        &mut self,
        addr: SubpageAddr,
        now: SimTime,
    ) -> (Result<Oob, ReadFault>, ReadEffort) {
        if self.dead {
            return (Err(ReadFault::DeviceDead), ReadEffort::NONE);
        }
        self.stats.reads += 1;
        let (result, effort) = self.judge_read(addr, now);
        self.account_slot(&result, effort);
        self.stats.retry_steps += u64::from(effort.retry_steps);
        if effort.soft_decode {
            self.stats.soft_decodes += 1;
        }
        let idx = self.geometry.block_index(addr.page.block) as usize;
        self.blocks[idx].reads_since_erase += 1 + u64::from(effort.retry_steps);
        self.note_op_executed();
        (result, effort)
    }

    /// Reads every subpage of `page` in one cell sense (the full-page read
    /// path): clears `out` and fills it with the per-slot results, so
    /// steady-state read loops can reuse one buffer. Returns the page's
    /// effort — the componentwise maximum over its slots, since retry steps
    /// re-sense the whole page. The disturb accumulator is charged once,
    /// not per slot.
    pub fn read_full_with_effort_into(
        &mut self,
        page: PageAddr,
        now: SimTime,
        out: &mut Vec<Result<Oob, ReadFault>>,
    ) -> ReadEffort {
        let n_sub = self.geometry.subpages_per_page;
        if self.dead {
            out.clear();
            out.resize(n_sub as usize, Err(ReadFault::DeviceDead));
            return ReadEffort::NONE;
        }
        out.clear();
        out.reserve(n_sub as usize);
        let results = out;
        let mut effort = ReadEffort::NONE;
        let pi = self.checked_page_index(page);
        let rec = self.pages[pi];
        let first = pi * n_sub as usize;
        let block_index = u64::from(self.geometry.block_index(page.block));
        // Every slot that holds data comes from the page's last program, so
        // they share one BER verdict: judged once, on the first data slot.
        let mut verdict: Option<(Result<(), ReadFault>, ReadEffort)> = None;
        for slot in 0..n_sub as usize {
            self.stats.reads += 1;
            let addr = page.subpage(slot as u8);
            let (r, e) = if !self.forced_faults.is_empty() && self.forced_faults.contains(&addr) {
                (Err(ReadFault::Injected), ReadEffort::NONE)
            } else {
                match rec.data(slot) {
                    Err(e) => (Err(e), ReadEffort::NONE),
                    Ok(()) => {
                        let (v, eff) =
                            *verdict.get_or_insert_with(|| self.judge(block_index, &rec, now));
                        (v.map(|()| self.spare[first + slot]), eff)
                    }
                }
            };
            self.account_slot(&r, e);
            effort = effort.max(e);
            results.push(r);
        }
        self.stats.retry_steps += u64::from(effort.retry_steps);
        if effort.soft_decode {
            self.stats.soft_decodes += 1;
        }
        self.blocks[block_index as usize].reads_since_erase += 1 + u64::from(effort.retry_steps);
        self.note_op_executed();
        effort
    }

    /// Judges one subpage read without mutating any state: retention BER
    /// plus the block's accumulated read-disturb term, run through the
    /// retry ladder if one is installed.
    fn judge_read(&self, addr: SubpageAddr, now: SimTime) -> (Result<Oob, ReadFault>, ReadEffort) {
        if !self.forced_faults.is_empty() && self.forced_faults.contains(&addr) {
            return (Err(ReadFault::Injected), ReadEffort::NONE);
        }
        let (rec, spare) = self.slot(addr);
        if let Err(e) = rec.data(usize::from(addr.slot)) {
            return (Err(e), ReadEffort::NONE);
        }
        let block_index = u64::from(self.geometry.block_index(addr.page.block));
        let (verdict, effort) = self.judge(block_index, rec, now);
        (verdict.map(|()| spare), effort)
    }

    /// The BER verdict for every slot of page record `rec` that holds
    /// data: a pure function of the page's last program, the block, and
    /// `now`.
    fn judge(
        &self,
        block_index: u64,
        rec: &PageRec,
        now: SimTime,
    ) -> (Result<(), ReadFault>, ReadEffort) {
        let (pe_at_program, npp, programmed_at) = rec.last_program();
        let elapsed = now.saturating_since(programmed_at);
        let ber = self.retention.normalized_ber_on_block(
            block_index,
            pe_at_program,
            u32::from(npp),
            elapsed,
        ) + self
            .retention
            .disturb_term(self.blocks[block_index as usize].reads_since_erase);
        let limit = self.retention.ecc_limit();
        match &self.retry_ladder {
            Some(ladder) => match ladder.effort_for(ber, limit) {
                Some(effort) => (Ok(()), effort),
                None => (Err(ReadFault::RetentionExceeded), ladder.exhausted()),
            },
            None if ber <= limit => (Ok(()), ReadEffort::NONE),
            None => (Err(ReadFault::RetentionExceeded), ReadEffort::NONE),
        }
    }

    /// Per-slot statistics for a judged read.
    fn account_slot(&mut self, result: &Result<Oob, ReadFault>, effort: ReadEffort) {
        match result {
            Ok(_) if !effort.is_free() => self.stats.recovered_reads += 1,
            Err(ReadFault::RetentionExceeded) => self.stats.retention_failures += 1,
            _ => {}
        }
    }

    /// Introspects the raw state of a subpage (no ECC judgment, no
    /// statistics): the oracle for stored data, the mount scan, and the
    /// characterization harnesses.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the geometry.
    #[must_use]
    pub fn subpage_state(&self, addr: SubpageAddr) -> SubpageState {
        let (rec, spare) = self.slot(addr);
        rec.state(usize::from(addr.slot), spare)
    }

    /// Program operations on the page at `page` since its last erase (0
    /// for an erased page; `N_sub` after a cut erase).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the geometry.
    #[must_use]
    pub fn program_count(&self, page: PageAddr) -> u8 {
        self.pages[self.checked_page_index(page)].programs()
    }

    /// Erases a block, resetting all of its pages and incrementing its P/E
    /// cycle count.
    ///
    /// # Errors
    ///
    /// * [`NandError::AddressOutOfRange`] for addresses outside the
    ///   geometry.
    /// * [`NandError::BadBlock`] if the block is already marked bad.
    /// * [`NandError::EraseFailed`] if the installed fault model injects an
    ///   erase failure: the block's contents are gone, wear still accrues,
    ///   and the block becomes a *grown bad block* that rejects all further
    ///   program/erase commands.
    pub fn erase(&mut self, addr: BlockAddr, _now: SimTime) -> Result<(), NandError> {
        let bi = self.erase_target(addr)?;
        let pe = self.blocks[bi].effective_pe();
        // Depth is chosen from the wear *before* this erase (matching the
        // cost [`NandDevice::erase_cost`] reports); a full-depth erase is
        // exactly one P/E cycle of stress, so the adaptive-off path is
        // bit-identical to the classic accounting.
        let depth = if self.adaptive_erase {
            self.retention.erase_depth(pe)
        } else {
            EraseDepth::Deep
        };
        // Consulted only after the command proved legal (see program_full).
        let failed = self.draw_erase_fault();
        page::erase(self.block_pages_mut(bi));
        let block = &mut self.blocks[bi];
        block.pe_cycles += 1;
        block.stress_milli += depth.stress_milli_pe();
        // A completed erase recovers a torn block and discharges the
        // accumulated read disturb.
        block.torn = false;
        block.reads_since_erase = 0;
        self.stats.erases += 1;
        if depth != EraseDepth::Deep {
            self.stats.shallow_erases += 1;
        }
        self.note_op_executed();
        self.note_wear(self.blocks[bi].effective_pe());
        if failed {
            self.blocks[bi].bad = true;
            self.stats.erase_failures += 1;
            return Err(NandError::EraseFailed);
        }
        Ok(())
    }

    /// True if the block's last erase was interrupted (see [`Block::is_torn`]).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the geometry.
    #[must_use]
    pub fn is_torn(&self, addr: BlockAddr) -> bool {
        self.block(addr).torn
    }

    /// A full-page program interrupted by power loss: legality is checked
    /// exactly as for [`NandDevice::program_full`] (the command was
    /// accepted before the cut), but the fault stream is *not* consulted —
    /// power died before any status register could report. Every subpage
    /// of the target page ends up [`SubpageState::Torn`].
    ///
    /// # Errors
    ///
    /// Same legality errors as [`NandDevice::program_full`].
    pub fn tear_program_full(&mut self, page: PageAddr) -> Result<(), NandError> {
        let (pi, _) = self.full_program_target(page)?;
        let n_sub = self.geometry.subpages_per_page as usize;
        page::tear_program_full(&mut self.pages[pi], n_sub)?;
        self.stats.torn_programs += 1;
        Ok(())
    }

    /// A subpage program interrupted by power loss: the target slot is
    /// torn and previously-programmed siblings are destroyed (the Fig 4(b)
    /// disturbance precedes the cut). No fault-stream draw — see
    /// [`NandDevice::tear_program_full`].
    ///
    /// # Errors
    ///
    /// Same legality errors as [`NandDevice::program_subpage`].
    pub fn tear_program_subpage(&mut self, addr: SubpageAddr) -> Result<(), NandError> {
        let (pi, _) = self.subpage_program_target(addr)?;
        let n_sub = self.geometry.subpages_per_page as usize;
        let destroyed = page::tear_program_subpage(&mut self.pages[pi], n_sub, addr.slot)?;
        self.stats.subpages_destroyed += u64::from(destroyed);
        self.stats.torn_programs += 1;
        Ok(())
    }

    /// An erase interrupted by power loss: every page of the block becomes
    /// unreadable, wear accrues (the erase pulse ran), and the block
    /// rejects programs ([`NandError::TornBlock`]) until a completed
    /// re-erase recovers it. No fault-stream draw.
    ///
    /// # Errors
    ///
    /// Same legality errors as [`NandDevice::erase`].
    pub fn tear_erase(&mut self, addr: BlockAddr) -> Result<(), NandError> {
        let bi = self.erase_target(addr)?;
        let n_sub = self.geometry.subpages_per_page as u8;
        page::tear_erase(self.block_pages_mut(bi), n_sub);
        let block = &mut self.blocks[bi];
        block.pe_cycles += 1;
        // An interrupted erase is charged full stress regardless of
        // adaptive mode: no status handshake happened, so the controller
        // must assume the deepest pulse sequence ran.
        block.stress_milli += 1000;
        block.torn = true;
        // The erase pulse ran: the old charge pattern (and its disturb) is
        // gone even though the block is unusable until re-erased.
        block.reads_since_erase = 0;
        self.stats.torn_erases += 1;
        Ok(())
    }

    /// Checks that the block at `addr` accepts an erase and returns its
    /// index.
    ///
    /// # Errors
    ///
    /// [`NandError::DeviceDead`], [`NandError::AddressOutOfRange`] or
    /// [`NandError::BadBlock`], in that order.
    fn erase_target(&self, addr: BlockAddr) -> Result<usize, NandError> {
        if self.dead {
            return Err(NandError::DeviceDead);
        }
        let bi = self.checked_block_index(addr)?;
        if self.blocks[bi].bad {
            return Err(NandError::BadBlock);
        }
        Ok(bi)
    }

    fn draw_program_fault(&mut self) -> bool {
        self.faults.as_mut().is_some_and(FaultModel::program_fails)
    }

    fn draw_erase_fault(&mut self) -> bool {
        self.faults.as_mut().is_some_and(FaultModel::erase_fails)
    }

    /// Pre-ages every block to `pe_cycles` without touching page contents.
    ///
    /// The paper performs 1K P/E cycles before its retention measurements;
    /// characterization harnesses use this to reproduce that precondition
    /// without simulating a thousand full device overwrites.
    pub fn precycle(&mut self, pe_cycles: u32) {
        for b in &mut self.blocks {
            b.pe_cycles = b.pe_cycles.max(pe_cycles);
            // Pre-aging is full-depth wear: keep the stress accumulator in
            // lockstep so effective wear never lags the erase count.
            b.stress_milli = b.stress_milli.max(u64::from(pe_cycles) * 1000);
        }
    }

    /// Forces the next and all subsequent reads of `addr` to fail with
    /// [`ReadFault::Injected`] until [`NandDevice::clear_fault`] is called.
    #[cfg(test)]
    fn inject_read_fault(&mut self, addr: SubpageAddr) {
        self.forced_faults.insert(addr);
    }

    /// Removes an injected fault.
    #[cfg(test)]
    fn clear_fault(&mut self, addr: SubpageAddr) {
        self.forced_faults.remove(&addr);
    }

    /// True once the whole device has failed (fault-model death trip or an
    /// explicit [`NandDevice::kill`]). The latch is permanent: every
    /// subsequent command fails without running.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Kills the device outright: every subsequent command fails with
    /// [`NandError::DeviceDead`] / [`ReadFault::DeviceDead`]. Array layers
    /// use this for externally-triggered failures (e.g. an FTL end-of-life
    /// latch promoted to whole-device death).
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// Executed NAND commands so far (the counter
    /// [`FaultConfig::die_at_op`] compares against).
    #[must_use]
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Counts one executed command and trips the death latch when the
    /// configured op budget is exhausted. The command that reaches the
    /// budget still completes — the device bricks *after* it.
    fn note_op_executed(&mut self) {
        self.ops_executed += 1;
        if let Some(n) = self.faults.as_ref().and_then(|f| f.config().die_at_op) {
            if self.ops_executed >= n {
                self.dead = true;
            }
        }
    }

    /// Trips the death latch when a block's effective wear reaches the
    /// configured P/E death threshold (controller-level wear-out trip).
    fn note_wear(&mut self, effective_pe: u32) {
        if let Some(t) = self.faults.as_ref().and_then(|f| f.config().die_at_pe) {
            if effective_pe >= t {
                self.dead = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::WrittenSubpage;

    fn oob(lsn: u64) -> Oob {
        Oob { lsn, seq: lsn }
    }

    fn dev() -> NandDevice {
        NandDevice::new(Geometry::tiny())
    }

    #[test]
    fn full_program_then_read_round_trips() {
        let mut d = dev();
        let blk = d.geometry().block_addr(3);
        // Pages program in word-line order; fill pages 0-1 to reach page 2.
        d.program_full(blk.page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        d.program_full(blk.page(1), &[None; 4], SimTime::ZERO)
            .unwrap();
        let page = blk.page(2);
        let oobs: Vec<_> = (0..4).map(|i| Some(oob(100 + i))).collect();
        d.program_full(page, &oobs, SimTime::ZERO).unwrap();
        for slot in 0..4u8 {
            let got = d.read_subpage(page.subpage(slot), SimTime::ZERO).unwrap();
            assert_eq!(got.lsn, 100 + u64::from(slot));
        }
        assert_eq!(d.stats().full_programs, 3);
        assert_eq!(d.stats().reads, 4);
    }

    #[test]
    fn erase_increments_pe_and_resets_pages() {
        let mut d = dev();
        let blk = d.geometry().block_addr(0);
        let page = blk.page(0);
        d.program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        d.erase(blk, SimTime::ZERO).unwrap();
        assert_eq!(d.pe_cycles(blk), 1);
        assert_eq!(
            d.read_subpage(page.subpage(0), SimTime::ZERO),
            Err(ReadFault::NotWritten)
        );
        assert_eq!(d.stats().erases, 1);
    }

    #[test]
    fn retention_failure_after_aging() {
        let mut d = dev();
        d.precycle(1000);
        let page = d.geometry().block_addr(0).page(0);
        // Build an Npp^3 subpage: 3 programs, then program slot 3.
        for slot in 0..3u8 {
            d.program_subpage(page.subpage(slot), oob(u64::from(slot)), SimTime::ZERO)
                .unwrap();
        }
        d.program_subpage(page.subpage(3), oob(99), SimTime::ZERO)
            .unwrap();
        // Readable at 1 month...
        let one_month = SimTime::ZERO + SimDuration::from_months(1);
        assert_eq!(d.read_subpage(page.subpage(3), one_month).unwrap().lsn, 99);
        // ...unreadable at 2 months (Fig 5).
        let two_months = SimTime::ZERO + SimDuration::from_months(2);
        assert_eq!(
            d.read_subpage(page.subpage(3), two_months),
            Err(ReadFault::RetentionExceeded)
        );
        assert_eq!(d.stats().retention_failures, 1);
    }

    #[test]
    fn retry_ladder_recovers_aged_data_and_charges_effort() {
        // The retention_failure_after_aging scenario, with a ladder: the
        // 2-month Npp^3 read is over the base limit but within the rungs.
        let mut d = dev();
        d.set_retry_ladder(Some(RetryLadder::paper_default()));
        d.precycle(1000);
        let page = d.geometry().block_addr(0).page(0);
        for slot in 0..3u8 {
            d.program_subpage(page.subpage(slot), oob(u64::from(slot)), SimTime::ZERO)
                .unwrap();
        }
        d.program_subpage(page.subpage(3), oob(99), SimTime::ZERO)
            .unwrap();
        let two_months = SimTime::ZERO + SimDuration::from_months(2);
        let (r, effort) = d.read_subpage_with_effort(page.subpage(3), two_months);
        assert_eq!(r.unwrap().lsn, 99, "ladder must recover the read");
        assert!(effort.retry_steps > 0);
        assert_eq!(d.stats().recovered_reads, 1);
        assert_eq!(d.stats().retention_failures, 0);
        assert!(d.stats().retry_steps >= u64::from(effort.retry_steps));
        // Truly over-limit data still dies: far past the soft rung.
        let years = SimTime::ZERO + SimDuration::from_months(36);
        let (r, effort) = d.read_subpage_with_effort(page.subpage(3), years);
        assert_eq!(r, Err(ReadFault::RetentionExceeded));
        assert_eq!(effort, RetryLadder::paper_default().exhausted());
        assert_eq!(d.stats().retention_failures, 1);
    }

    #[test]
    fn read_disturb_accumulates_and_erase_resets() {
        let mut d = NandDevice::with_models(
            Geometry::tiny(),
            NandTiming::paper_default(),
            RetentionModel::paper_default().with_read_disturb(0.05),
        );
        let blk = d.geometry().block_addr(0);
        let sp = blk.page(0).subpage(0);
        d.program_subpage(sp, oob(1), SimTime::ZERO).unwrap();
        // Fresh block at 0 P/E: base BER = fresh_factor (0.25). The limit
        // (2.4) leaves headroom for 43 disturb increments of 0.05.
        let mut failures = 0;
        for _ in 0..60 {
            if d.read_subpage(sp, SimTime::ZERO).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "hot reads must eventually exceed the limit");
        assert_eq!(d.stats().retention_failures, failures);
        assert!(d.reads_since_erase(blk) >= 60);
        // Erase discharges the disturb.
        d.erase(blk, SimTime::ZERO).unwrap();
        assert_eq!(d.reads_since_erase(blk), 0);
        d.program_subpage(sp, oob(2), SimTime::ZERO).unwrap();
        assert_eq!(d.read_subpage(sp, SimTime::ZERO).unwrap().lsn, 2);
    }

    #[test]
    fn full_page_read_charges_one_sense_not_four() {
        let mut d = dev();
        let blk = d.geometry().block_addr(0);
        let page = blk.page(0);
        d.program_full(page, &[Some(oob(1)); 4], SimTime::ZERO)
            .unwrap();
        let mut results = Vec::new();
        let effort = d.read_full_with_effort_into(page, SimTime::ZERO, &mut results);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(Result::is_ok));
        assert!(effort.is_free());
        assert_eq!(d.reads_since_erase(blk), 1, "one sense for the page");
        assert_eq!(d.stats().reads, 4, "per-slot counter is unchanged");
    }

    #[test]
    fn ladder_does_not_advance_the_fault_stream() {
        // The ladder is deterministic: enabling it must not change seeded
        // program-fault outcomes.
        let faults = crate::FaultConfig {
            seed: 5,
            program_fail_prob: 0.3,
            ..crate::FaultConfig::default()
        };
        let run = |with_ladder: bool| -> Vec<bool> {
            let mut d = dev();
            d.set_faults(faults.clone());
            if with_ladder {
                d.set_retry_ladder(Some(RetryLadder::paper_default()));
            }
            let blk = d.geometry().block_addr(0);
            let mut outcomes = Vec::new();
            for i in 0..32u8 {
                let sp = blk.page(u32::from(i % 4)).subpage(i % 4);
                let r = d.program_subpage(sp, oob(u64::from(i)), SimTime::ZERO);
                outcomes.push(r == Err(NandError::ProgramFailed));
                let _ = d.read_subpage(sp, SimTime::ZERO);
                if i % 4 == 3 {
                    let _ = d.erase(blk, SimTime::ZERO);
                }
            }
            outcomes
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn npp0_subpage_survives_a_year() {
        let mut d = dev();
        d.precycle(1000);
        let page = d.geometry().block_addr(0).page(0);
        d.program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        let year = SimTime::ZERO + SimDuration::from_months(12);
        assert!(d.read_subpage(page.subpage(0), year).is_ok());
    }

    #[test]
    fn op_costs_reflect_paper_latencies() {
        let d = dev();
        let full = d.op_cost(OpKind::ProgramFull);
        let sub = d.op_cost(OpKind::ProgramSubpage);
        assert_eq!(full.cell, SimDuration::from_micros(1600));
        assert_eq!(sub.cell, SimDuration::from_micros(1300));
        assert!(sub.bus < full.bus, "subpage transfers 1/4 of the bytes");
        assert_eq!(d.op_cost(OpKind::Erase).bus, SimDuration::ZERO);
        assert!(full.total() > full.cell);
    }

    #[test]
    fn destroyed_counter_tracks_esp_side_effects() {
        let mut d = dev();
        let page = d.geometry().block_addr(0).page(0);
        d.program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        d.program_subpage(page.subpage(1), oob(2), SimTime::ZERO)
            .unwrap();
        assert_eq!(d.stats().subpages_destroyed, 1);
        assert_eq!(d.stats().subpage_programs, 2);
    }

    #[test]
    fn out_of_range_addresses_are_rejected() {
        let mut d = dev();
        let bad_block = BlockAddr {
            chip: d.geometry().chip_addr(0),
            block: d.geometry().blocks_per_chip,
        };
        assert_eq!(
            d.erase(bad_block, SimTime::ZERO),
            Err(NandError::AddressOutOfRange)
        );
        let bad_page = d.geometry().block_addr(0).page(99);
        assert_eq!(
            d.program_full(bad_page, &[None; 4], SimTime::ZERO),
            Err(NandError::AddressOutOfRange)
        );
    }

    /// Every state and program count of block `gbi`'s pages.
    fn block_snapshot(d: &NandDevice, gbi: u32) -> Vec<(u8, Vec<SubpageState>)> {
        let g = d.geometry();
        (0..g.pages_per_block)
            .map(|p| {
                let page = g.block_addr(gbi).page(p);
                let states = (0..g.subpages_per_page as u8)
                    .map(|s| d.subpage_state(page.subpage(s)))
                    .collect();
                (d.program_count(page), states)
            })
            .collect()
    }

    #[test]
    fn a_page_or_slot_past_the_end_never_reaches_the_next_block() {
        // In the flat table, page `pages_per_block` of block 0 and slot
        // `N_sub` of its last page both index block 1's page 0.
        let mut d = dev();
        let g = d.geometry().clone();
        let (blk, next) = (g.block_addr(0), g.block_addr(1));
        let last = g.pages_per_block - 1;
        for p in 0..last {
            d.program_full(blk.page(p), &[Some(oob(u64::from(p))); 4], SimTime::ZERO)
                .unwrap();
        }
        d.program_full(
            next.page(0),
            &[Some(oob(7)), None, Some(oob(8)), None],
            SimTime::ZERO,
        )
        .unwrap();
        let before = (block_snapshot(&d, 1), *d.stats(), d.ops_executed());
        let past_page = blk.page(g.pages_per_block);
        let past_slot = blk.page(last).subpage(g.subpages_per_page as u8);
        let out = Err(NandError::AddressOutOfRange);
        assert_eq!(d.program_full(past_page, &[None; 4], SimTime::ZERO), out);
        assert_eq!(d.tear_program_full(past_page), out);
        for addr in [past_page.subpage(0), past_slot] {
            assert_eq!(d.program_subpage(addr, oob(9), SimTime::ZERO), out);
            assert_eq!(d.tear_program_subpage(addr), out);
        }
        // One spare-area entry too many on the last page: the extra one
        // would spill into the next block.
        assert_eq!(
            d.program_full(blk.page(last), &[Some(oob(9)); 5], SimTime::ZERO),
            Err(NandError::SlotCountMismatch {
                expected: 4,
                got: 5
            })
        );
        assert_eq!(d.program_count(blk.page(last)), 0);
        assert_eq!(
            (block_snapshot(&d, 1), *d.stats(), d.ops_executed()),
            before
        );
    }

    #[test]
    #[should_panic(expected = "address outside geometry")]
    fn block_past_the_chip_panics() {
        let d = dev();
        let past = BlockAddr {
            chip: d.geometry().chip_addr(0),
            block: d.geometry().blocks_per_chip,
        };
        let _ = d.pe_cycles(past);
    }

    #[test]
    #[should_panic(expected = "address outside geometry")]
    fn program_count_past_the_block_panics() {
        let d = dev();
        let _ = d.program_count(d.geometry().block_addr(0).page(4));
    }

    #[test]
    #[should_panic(expected = "address outside geometry")]
    fn subpage_state_past_the_page_panics() {
        let d = dev();
        let _ = d.subpage_state(d.geometry().block_addr(0).page(3).subpage(4));
    }

    #[test]
    fn erase_touches_only_its_own_block() {
        // Blocks 7 and 9 sit on either side of block 8, across a chip
        // boundary (8 blocks per chip).
        let mut d = dev();
        let g = d.geometry().clone();
        for gbi in 7..10 {
            for p in 0..g.pages_per_block {
                let lsn = u64::from(gbi * 100 + p);
                d.program_full(
                    g.block_addr(gbi).page(p),
                    &[Some(oob(lsn)); 4],
                    SimTime::ZERO,
                )
                .unwrap();
            }
        }
        let neighbours = |d: &NandDevice| (block_snapshot(d, 7), block_snapshot(d, 9));
        let before = neighbours(&d);
        d.erase(g.block_addr(8), SimTime::ZERO).unwrap();
        for (programs, states) in block_snapshot(&d, 8) {
            assert_eq!(programs, 0);
            assert!(states.iter().all(|s| *s == SubpageState::Erased));
        }
        assert_eq!(neighbours(&d), before);
        d.tear_erase(g.block_addr(8)).unwrap();
        for (programs, states) in block_snapshot(&d, 8) {
            assert_eq!(programs, 4, "a cut erase leaves every page exhausted");
            assert!(states.iter().all(|s| *s == SubpageState::Torn));
        }
        assert_eq!(neighbours(&d), before);
    }

    #[test]
    fn full_programs_must_follow_page_order() {
        let mut d = dev();
        let blk = d.geometry().block_addr(0);
        // Page 1 before page 0: rejected.
        assert_eq!(
            d.program_full(blk.page(1), &[None; 4], SimTime::ZERO),
            Err(NandError::NonSequentialProgram { page: 1 })
        );
        // In order: fine.
        d.program_full(blk.page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        d.program_full(blk.page(1), &[None; 4], SimTime::ZERO)
            .unwrap();
        // ESP subpage programs are exempt (lap discipline revisits pages).
        let other = d.geometry().block_addr(1);
        d.program_subpage(other.page(3).subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        d.program_subpage(other.page(0).subpage(0), oob(2), SimTime::ZERO)
            .unwrap();
    }

    #[test]
    fn fault_injection_forces_and_clears() {
        let mut d = dev();
        let sp = d.geometry().block_addr(0).page(0).subpage(0);
        d.program_subpage(sp, oob(5), SimTime::ZERO).unwrap();
        d.inject_read_fault(sp);
        assert_eq!(d.read_subpage(sp, SimTime::ZERO), Err(ReadFault::Injected));
        d.clear_fault(sp);
        assert_eq!(d.read_subpage(sp, SimTime::ZERO).unwrap().lsn, 5);
    }

    #[test]
    fn bad_blocks_reject_program_and_erase() {
        let mut d = dev();
        d.set_faults(crate::FaultConfig {
            factory_bad_blocks: 1,
            ..crate::FaultConfig::default()
        });
        let bad = d.bad_block_indices();
        assert_eq!(bad.len(), 1);
        let blk = d.geometry().block_addr(bad[0]);
        assert!(d.is_bad(blk));
        assert_eq!(
            d.program_full(blk.page(0), &[None; 4], SimTime::ZERO),
            Err(NandError::BadBlock)
        );
        assert_eq!(
            d.program_subpage(blk.page(0).subpage(0), oob(1), SimTime::ZERO),
            Err(NandError::BadBlock)
        );
        assert_eq!(d.erase(blk, SimTime::ZERO), Err(NandError::BadBlock));
        assert_eq!(d.bad_block_indices(), bad);
        // No operation was actually performed.
        assert_eq!(d.stats().full_programs, 0);
        assert_eq!(d.stats().erases, 0);
    }

    #[test]
    fn factory_bad_blocks_marked_at_install() {
        let mut d = dev();
        d.set_faults(crate::FaultConfig {
            seed: 9,
            factory_bad_blocks: 3,
            ..crate::FaultConfig::default()
        });
        let bad = d.bad_block_indices();
        assert_eq!(bad.len(), 3);
        for gbi in bad {
            assert!(d.is_bad(d.geometry().block_addr(gbi)));
        }
    }

    #[test]
    fn injected_program_failure_leaves_garbage_and_counts() {
        // program_fail_prob ~ 1 makes the very first program fail.
        let mut d = dev();
        d.set_faults(crate::FaultConfig {
            seed: 1,
            program_fail_prob: 0.999_999,
            ..crate::FaultConfig::default()
        });
        let page = d.geometry().block_addr(0).page(0);
        assert_eq!(
            d.program_subpage(page.subpage(0), oob(7), SimTime::ZERO),
            Err(NandError::ProgramFailed)
        );
        // The pulse ran: the page counts a program, the slot holds garbage.
        assert_eq!(d.program_count(page), 1);
        assert_eq!(
            d.read_subpage(page.subpage(0), SimTime::ZERO),
            Err(ReadFault::DestroyedByProgram)
        );
        assert_eq!(d.stats().program_failures, 1);
        assert_eq!(d.stats().subpage_programs, 1);

        // Full-page variant: all slots garbage, WL order still satisfied.
        let blk = d.geometry().block_addr(1);
        assert_eq!(
            d.program_full(blk.page(0), &[Some(oob(1)); 4], SimTime::ZERO),
            Err(NandError::ProgramFailed)
        );
        for slot in 0..4u8 {
            assert_eq!(
                d.read_subpage(blk.page(0).subpage(slot), SimTime::ZERO),
                Err(ReadFault::DestroyedByProgram)
            );
        }
        assert_eq!(d.stats().program_failures, 2);
    }

    #[test]
    fn injected_erase_failure_grows_a_bad_block() {
        let mut d = dev();
        d.set_faults(crate::FaultConfig {
            seed: 1,
            erase_fail_prob: 0.999_999,
            ..crate::FaultConfig::default()
        });
        let blk = d.geometry().block_addr(0);
        d.program_subpage(blk.page(0).subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(d.erase(blk, SimTime::ZERO), Err(NandError::EraseFailed));
        // Contents gone, wear accrued, block now bad.
        assert!(d.is_bad(blk));
        assert_eq!(d.pe_cycles(blk), 1);
        assert_eq!(
            d.read_subpage(blk.page(0).subpage(0), SimTime::ZERO),
            Err(ReadFault::NotWritten)
        );
        assert_eq!(d.erase(blk, SimTime::ZERO), Err(NandError::BadBlock));
        assert_eq!(d.stats().erase_failures, 1);
        assert_eq!(d.stats().erases, 1);
    }

    #[test]
    fn illegal_commands_do_not_advance_the_fault_stream() {
        // Two devices with the same seeded fault model; one also issues a
        // stream of illegal commands. The fault outcomes must match.
        let faults = crate::FaultConfig {
            seed: 5,
            program_fail_prob: 0.3,
            ..crate::FaultConfig::default()
        };
        let run = |with_illegal: bool| -> Vec<bool> {
            let mut d = dev();
            d.set_faults(faults.clone());
            let blk = d.geometry().block_addr(0);
            let mut outcomes = Vec::new();
            for i in 0..32u8 {
                if with_illegal {
                    // Out-of-range and WL-order violations: rejected before
                    // the fault model is consulted.
                    let _ = d.program_full(blk.page(99), &[None; 4], SimTime::ZERO);
                    let _ = d.program_full(
                        d.geometry().block_addr(1).page(5),
                        &[None; 4],
                        SimTime::ZERO,
                    );
                }
                let r = d.program_subpage(
                    blk.page(u32::from(i % 4)).subpage(i % 4),
                    oob(u64::from(i)),
                    SimTime::ZERO,
                );
                outcomes.push(r == Err(NandError::ProgramFailed));
                if i % 4 == 3 {
                    let _ = d.erase(blk, SimTime::ZERO);
                }
            }
            outcomes
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn torn_subpage_program_destroys_sibling_and_reads_torn() {
        let mut d = dev();
        let page = d.geometry().block_addr(0).page(0);
        d.program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        d.tear_program_subpage(page.subpage(1)).unwrap();
        assert_eq!(
            d.read_subpage(page.subpage(0), SimTime::ZERO),
            Err(ReadFault::DestroyedByProgram)
        );
        assert_eq!(
            d.read_subpage(page.subpage(1), SimTime::ZERO),
            Err(ReadFault::Torn)
        );
        assert_eq!(d.stats().torn_programs, 1);
        assert_eq!(d.stats().subpages_destroyed, 1);
        // Further laps on the page remain legal; the block is not torn.
        assert!(!d.is_torn(page.block));
        d.program_subpage(page.subpage(2), oob(2), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            d.read_subpage(page.subpage(2), SimTime::ZERO).unwrap().lsn,
            2
        );
    }

    #[test]
    fn torn_full_program_respects_legality_and_wl_order() {
        let mut d = dev();
        let blk = d.geometry().block_addr(0);
        assert_eq!(
            d.tear_program_full(blk.page(1)),
            Err(NandError::NonSequentialProgram { page: 1 })
        );
        d.tear_program_full(blk.page(0)).unwrap();
        for slot in 0..4u8 {
            assert_eq!(
                d.read_subpage(blk.page(0).subpage(slot), SimTime::ZERO),
                Err(ReadFault::Torn)
            );
        }
        assert_eq!(d.stats().torn_programs, 1);
    }

    #[test]
    fn torn_erase_blocks_programs_until_reerased() {
        let mut d = dev();
        let blk = d.geometry().block_addr(0);
        d.program_subpage(blk.page(0).subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        d.tear_erase(blk).unwrap();
        assert!(d.is_torn(blk));
        assert_eq!(d.pe_cycles(blk), 1);
        assert_eq!(d.stats().torn_erases, 1);
        // Contents unreadable, programs rejected.
        assert_eq!(
            d.read_subpage(blk.page(0).subpage(0), SimTime::ZERO),
            Err(ReadFault::Torn)
        );
        assert_eq!(
            d.program_subpage(blk.page(0).subpage(0), oob(2), SimTime::ZERO),
            Err(NandError::TornBlock)
        );
        assert_eq!(
            d.program_full(blk.page(0), &[None; 4], SimTime::ZERO),
            Err(NandError::TornBlock)
        );
        // A completed erase recovers the block.
        d.erase(blk, SimTime::ZERO).unwrap();
        assert!(!d.is_torn(blk));
        assert_eq!(d.pe_cycles(blk), 2);
        d.program_subpage(blk.page(0).subpage(0), oob(3), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            d.read_subpage(blk.page(0).subpage(0), SimTime::ZERO)
                .unwrap()
                .lsn,
            3
        );
    }

    #[test]
    fn tear_operations_do_not_advance_the_fault_stream() {
        // Mirror of illegal_commands_do_not_advance_the_fault_stream: a
        // power cut never consults the status register, so tear operations
        // must leave the seeded fault stream untouched.
        let faults = crate::FaultConfig {
            seed: 5,
            program_fail_prob: 0.3,
            ..crate::FaultConfig::default()
        };
        let run = |with_tears: bool| -> Vec<bool> {
            let mut d = dev();
            d.set_faults(faults.clone());
            let blk = d.geometry().block_addr(0);
            let spare = d.geometry().block_addr(1);
            let mut outcomes = Vec::new();
            for i in 0..16u8 {
                if with_tears {
                    let _ = d.tear_program_subpage(spare.page(u32::from(i % 4)).subpage(i % 4));
                }
                let r = d.program_subpage(
                    blk.page(u32::from(i % 4)).subpage(i % 4),
                    oob(u64::from(i)),
                    SimTime::ZERO,
                );
                outcomes.push(r == Err(NandError::ProgramFailed));
                if i % 4 == 3 {
                    let _ = d.erase(blk, SimTime::ZERO);
                    if with_tears {
                        let _ = d.tear_erase(spare);
                    }
                }
            }
            outcomes
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn precycle_only_raises() {
        let mut d = dev();
        let blk = d.geometry().block_addr(0);
        d.erase(blk, SimTime::ZERO).unwrap();
        d.erase(blk, SimTime::ZERO).unwrap();
        d.precycle(1);
        assert_eq!(d.pe_cycles(blk), 2, "precycle must not lower wear");
        assert_eq!(d.effective_pe(blk), 2, "stress must not lag either");
    }

    #[test]
    fn without_adaptive_erase_stress_tracks_pe_exactly() {
        let mut d = dev();
        let blk = d.geometry().block_addr(0);
        for _ in 0..5 {
            d.erase(blk, SimTime::ZERO).unwrap();
        }
        d.tear_erase(blk).unwrap();
        d.erase(blk, SimTime::ZERO).unwrap();
        d.precycle(20);
        assert_eq!(d.pe_cycles(blk), 20);
        assert_eq!(d.effective_pe(blk), d.pe_cycles(blk));
        assert_eq!(d.block(blk).stress_milli_pe(), 20_000);
        assert_eq!(d.stats().shallow_erases, 0);
        assert_eq!(d.erase_cost(blk), d.op_cost(OpKind::Erase));
    }

    #[test]
    fn adaptive_erase_charges_fractional_stress_and_counts() {
        let mut d = dev();
        d.set_adaptive_erase(true);
        let blk = d.geometry().block_addr(0);
        // A fresh block sits deep in the shallow tier: 600 milli-P/E and
        // 70 % of tBERS per erase.
        assert_eq!(
            d.erase_cost(blk).cell,
            d.timing().erase_for(EraseDepth::Shallow)
        );
        for _ in 0..10 {
            d.erase(blk, SimTime::ZERO).unwrap();
        }
        assert_eq!(d.pe_cycles(blk), 10);
        assert_eq!(d.block(blk).stress_milli_pe(), 6_000);
        assert_eq!(
            d.effective_pe(blk),
            6,
            "shallow erases age the block slower"
        );
        assert_eq!(d.stats().shallow_erases, 10);
        // A worn block falls back to full depth: same cost and stress as
        // the non-adaptive path.
        d.precycle(2000);
        assert_eq!(d.erase_cost(blk), d.op_cost(OpKind::Erase));
        let stress_before = d.block(blk).stress_milli_pe();
        d.erase(blk, SimTime::ZERO).unwrap();
        assert_eq!(d.block(blk).stress_milli_pe(), stress_before + 1000);
        assert_eq!(d.stats().shallow_erases, 10, "deep erases are not counted");
    }

    #[test]
    fn adaptive_erase_feeds_effective_wear_into_retention() {
        // Two identically-programmed devices; the adaptive one performed
        // its erases shallowly, so its effective wear — and therefore the
        // judged BER — is lower for data of the same age.
        let run = |adaptive: bool| -> u32 {
            let mut d = dev();
            d.set_adaptive_erase(adaptive);
            let blk = d.geometry().block_addr(0);
            for _ in 0..400 {
                // Keep the block in the shallow tier only while adaptive:
                // effective wear grows 0.6×.
                d.erase(blk, SimTime::ZERO).unwrap();
            }
            let sp = blk.page(0).subpage(0);
            d.program_subpage(sp, oob(1), SimTime::ZERO).unwrap();
            match d.subpage_state(sp) {
                SubpageState::Written(w) => w.pe_at_program,
                other => panic!("expected written subpage, got {other:?}"),
            }
        };
        assert_eq!(run(false), 400);
        assert_eq!(run(true), 240, "0.6 stress per shallow erase");
    }

    #[test]
    fn kill_bricks_every_operation() {
        let mut d = dev();
        let blk = d.geometry().block_addr(0);
        d.program_subpage(blk.page(0).subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        assert!(!d.is_dead());
        d.kill();
        assert!(d.is_dead());
        assert_eq!(
            d.program_full(blk.page(1), &[None; 4], SimTime::ZERO),
            Err(NandError::DeviceDead)
        );
        assert_eq!(
            d.program_subpage(blk.page(0).subpage(1), oob(2), SimTime::ZERO),
            Err(NandError::DeviceDead)
        );
        assert_eq!(d.erase(blk, SimTime::ZERO), Err(NandError::DeviceDead));
        // Reads of previously-written data fail too: the device is gone.
        assert_eq!(
            d.read_subpage(blk.page(0).subpage(0), SimTime::ZERO),
            Err(ReadFault::DeviceDead)
        );
        assert_eq!(d.tear_program_full(blk.page(1)), Err(NandError::DeviceDead));
        assert_eq!(d.tear_erase(blk), Err(NandError::DeviceDead));
    }

    #[test]
    fn die_at_op_latches_after_exactly_n_commands() {
        let mut d = dev();
        d.set_faults(FaultConfig {
            die_at_op: Some(3),
            ..FaultConfig::default()
        });
        let blk = d.geometry().block_addr(0);
        // Commands 1 and 2 execute normally.
        d.program_subpage(blk.page(0).subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            d.read_subpage(blk.page(0).subpage(0), SimTime::ZERO)
                .unwrap()
                .lsn,
            1
        );
        assert!(!d.is_dead());
        // Command 3 (a read) still completes — then the latch trips.
        assert_eq!(
            d.read_subpage(blk.page(0).subpage(0), SimTime::ZERO)
                .unwrap()
                .lsn,
            1
        );
        assert!(d.is_dead());
        assert_eq!(d.ops_executed(), 3);
        assert_eq!(
            d.read_subpage(blk.page(0).subpage(0), SimTime::ZERO),
            Err(ReadFault::DeviceDead)
        );
        // Rejected commands do not advance the executed-op counter.
        assert_eq!(d.ops_executed(), 3);
    }

    #[test]
    fn die_at_pe_latches_when_wear_crosses_threshold() {
        let mut d = dev();
        d.set_faults(FaultConfig {
            die_at_pe: Some(3),
            ..FaultConfig::default()
        });
        let blk = d.geometry().block_addr(0);
        d.erase(blk, SimTime::ZERO).unwrap();
        d.erase(blk, SimTime::ZERO).unwrap();
        assert!(!d.is_dead(), "two cycles below the three-cycle trip");
        d.erase(blk, SimTime::ZERO).unwrap();
        assert!(d.is_dead(), "third cycle reaches the wear-out trip");
        assert_eq!(d.erase(blk, SimTime::ZERO), Err(NandError::DeviceDead));
    }

    /// One block as the device kept it before page records: every slot's
    /// own state, program time, wear and `Npp` included, and each page's
    /// program count. The oracle of
    /// `page_records_match_per_slot_states_on_random_commands`.
    struct SlotModel {
        n_sub: usize,
        pages: u32,
        slots: Vec<SubpageState>,
        programs: Vec<u8>,
        torn: bool,
        pe: u32,
    }

    impl SlotModel {
        fn new(pages: u32, n_sub: usize) -> Self {
            SlotModel {
                n_sub,
                pages,
                slots: vec![SubpageState::Erased; pages as usize * n_sub],
                programs: vec![0; pages as usize],
                torn: false,
                pe: 0,
            }
        }

        fn page_slots(&mut self, page: u32) -> &mut [SubpageState] {
            let n = self.n_sub;
            &mut self.slots[page as usize * n..(page as usize + 1) * n]
        }

        fn full_checks(&self, page: u32) -> Result<(), NandError> {
            if self.torn {
                return Err(NandError::TornBlock);
            }
            if page >= self.pages {
                return Err(NandError::AddressOutOfRange);
            }
            if page > 0 && self.programs[page as usize - 1] == 0 {
                return Err(NandError::NonSequentialProgram { page });
            }
            Ok(())
        }

        fn program_full(
            &mut self,
            page: u32,
            oobs: &[Option<Oob>],
            now: SimTime,
        ) -> Result<(), NandError> {
            self.full_checks(page)?;
            if oobs.len() != self.n_sub {
                return Err(NandError::SlotCountMismatch {
                    expected: self.n_sub as u32,
                    got: oobs.len() as u32,
                });
            }
            if self.programs[page as usize] != 0 {
                return Err(NandError::ProgramOnDirtyPage);
            }
            let pe = self.pe;
            for (s, oob) in self.page_slots(page).iter_mut().zip(oobs) {
                *s = SubpageState::Written(WrittenSubpage {
                    oob: *oob,
                    npp: 0,
                    programmed_at: now,
                    pe_at_program: pe,
                });
            }
            self.programs[page as usize] = 1;
            Ok(())
        }

        fn subpage_checks(&self, page: u32, slot: u8) -> Result<(), NandError> {
            if page >= self.pages || usize::from(slot) >= self.n_sub {
                return Err(NandError::AddressOutOfRange);
            }
            if self.torn {
                return Err(NandError::TornBlock);
            }
            if usize::from(self.programs[page as usize]) >= self.n_sub {
                return Err(NandError::ProgramLimitExceeded);
            }
            Ok(())
        }

        /// Destroys every written slot of `page` but `slot`.
        fn destroy_siblings(&mut self, page: u32, slot: u8) -> u32 {
            let mut destroyed = 0;
            for (i, s) in self.page_slots(page).iter_mut().enumerate() {
                if i != usize::from(slot) && matches!(s, SubpageState::Written(_)) {
                    *s = SubpageState::Destroyed;
                    destroyed += 1;
                }
            }
            destroyed
        }

        fn program_subpage(
            &mut self,
            page: u32,
            slot: u8,
            oob: Oob,
            now: SimTime,
        ) -> Result<u32, NandError> {
            self.subpage_checks(page, slot)?;
            let mut destroyed = self.destroy_siblings(page, slot);
            let npp = self.programs[page as usize];
            let pe = self.pe;
            let target = &mut self.page_slots(page)[usize::from(slot)];
            if *target == SubpageState::Erased {
                *target = SubpageState::Written(WrittenSubpage {
                    oob: Some(oob),
                    npp,
                    programmed_at: now,
                    pe_at_program: pe,
                });
            } else {
                *target = SubpageState::Destroyed;
                destroyed += 1;
            }
            self.programs[page as usize] += 1;
            Ok(destroyed)
        }

        fn tear_program_full(&mut self, page: u32) -> Result<(), NandError> {
            self.full_checks(page)?;
            if self.programs[page as usize] != 0 {
                return Err(NandError::ProgramOnDirtyPage);
            }
            self.page_slots(page).fill(SubpageState::Torn);
            self.programs[page as usize] = 1;
            Ok(())
        }

        fn tear_program_subpage(&mut self, page: u32, slot: u8) -> Result<u32, NandError> {
            self.subpage_checks(page, slot)?;
            let destroyed = self.destroy_siblings(page, slot);
            self.page_slots(page)[usize::from(slot)] = SubpageState::Torn;
            self.programs[page as usize] += 1;
            Ok(destroyed)
        }

        fn erase(&mut self, torn: bool) {
            let (state, programs) = if torn {
                (SubpageState::Torn, self.n_sub as u8)
            } else {
                (SubpageState::Erased, 0)
            };
            self.slots.fill(state);
            self.programs.fill(programs);
            self.torn = torn;
            self.pe += 1;
        }
    }

    #[test]
    fn page_records_match_per_slot_states_on_random_commands() {
        let g = Geometry {
            pages_per_block: 8,
            ..Geometry::tiny()
        };
        let (pages, n_sub) = (g.pages_per_block, g.subpages_per_page as usize);
        for seed in 0..8 {
            let mut d = NandDevice::new(g.clone());
            d.set_faults(FaultConfig {
                seed,
                program_fail_prob: 0.1,
                ..FaultConfig::default()
            });
            let blk = g.block_addr(5);
            let mut model = SlotModel::new(pages, n_sub);
            let mut rng = esp_sim::Rng::seed_from(seed);
            for step in 0..3_000u64 {
                let now = SimTime::from_nanos(step * 1_000);
                // One page and one slot past the end are illegal addresses.
                let page = rng.next_below(u64::from(pages) + 1) as u32;
                let slot = rng.next_below(n_sub as u64 + 1) as u8;
                let oob = Oob {
                    lsn: step,
                    seq: step + 1,
                };
                let destroyed_before = d.stats().subpages_destroyed;
                match rng.next_below(100) {
                    0..=29 => {
                        let len = if rng.chance(0.05) { n_sub + 1 } else { n_sub };
                        let oobs: Vec<_> = (0..len)
                            .map(|i| {
                                rng.chance(0.7).then_some(Oob {
                                    lsn: i as u64,
                                    ..oob
                                })
                            })
                            .collect();
                        let got = d.program_full(blk.page(page), &oobs, now);
                        let want = model.program_full(page, &oobs, now);
                        if got == Err(NandError::ProgramFailed) && want.is_ok() {
                            model.page_slots(page).fill(SubpageState::Destroyed);
                        } else {
                            assert_eq!(got, want, "seed {seed} step {step}");
                        }
                    }
                    30..=69 => {
                        let got = d.program_subpage(blk.page(page).subpage(slot), oob, now);
                        let want = model.program_subpage(page, slot, oob, now);
                        if got == Err(NandError::ProgramFailed) && want.is_ok() {
                            model.page_slots(page)[usize::from(slot)] = SubpageState::Destroyed;
                        } else {
                            assert_eq!(got, want.map(|_| ()), "seed {seed} step {step}");
                        }
                        let destroyed = d.stats().subpages_destroyed - destroyed_before;
                        assert_eq!(destroyed, u64::from(want.unwrap_or(0)));
                    }
                    70..=77 => {
                        let got = d.tear_program_full(blk.page(page));
                        assert_eq!(got, model.tear_program_full(page));
                    }
                    78..=85 => {
                        let got = d.tear_program_subpage(blk.page(page).subpage(slot));
                        let want = model.tear_program_subpage(page, slot);
                        assert_eq!(got, want.map(|_| ()), "seed {seed} step {step}");
                        let destroyed = d.stats().subpages_destroyed - destroyed_before;
                        assert_eq!(destroyed, u64::from(want.unwrap_or(0)));
                    }
                    86..=93 => {
                        d.erase(blk, now).unwrap();
                        model.erase(false);
                    }
                    94..=96 => {
                        d.tear_erase(blk).unwrap();
                        model.erase(true);
                    }
                    _ => {
                        // Raises the wear later programs record, not the
                        // wear already recorded.
                        let pe = model.pe + rng.next_below(3) as u32;
                        d.precycle(pe);
                        model.pe = pe;
                    }
                }
                for p in 0..pages {
                    let addr = blk.page(p);
                    assert_eq!(
                        d.program_count(addr),
                        model.programs[p as usize],
                        "seed {seed} step {step} page {p}"
                    );
                    for s in 0..n_sub {
                        assert_eq!(
                            d.subpage_state(addr.subpage(s as u8)),
                            model.slots[p as usize * n_sub + s],
                            "seed {seed} step {step} page {p} slot {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn death_disabled_config_never_trips() {
        // A fault config with both death modes off behaves exactly like a
        // fault-free device over an op-heavy sequence.
        let mut d = dev();
        d.set_faults(FaultConfig::default());
        let blk = d.geometry().block_addr(0);
        for i in 0..200u64 {
            d.program_subpage(blk.page(0).subpage(0), oob(i), SimTime::ZERO)
                .unwrap();
            d.read_subpage(blk.page(0).subpage(0), SimTime::ZERO)
                .unwrap();
            d.erase(blk, SimTime::ZERO).unwrap();
        }
        assert!(!d.is_dead());
        assert_eq!(d.ops_executed(), 600);
    }
}
