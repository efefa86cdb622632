//! # esp-ssd — multi-channel SSD timing model
//!
//! Wraps an [`esp_nand::NandDevice`] with the contention model of the
//! paper's evaluation platform (§5): 8 channels, each with 4 TLC NAND chips.
//! Every flash operation occupies
//!
//! * its **channel** for the data-transfer phase (page or subpage bytes at
//!   bus bandwidth), and
//! * its **chip** for the cell-operation phase (read 90 µs, full-page
//!   program 1600 µs, subpage program 1300 µs, erase 5 ms by default),
//!
//! using first-come-first-served [`esp_sim::Resource`] timelines. Operations
//! on different chips pipeline; operations on one chip serialize — exactly
//! the first-order behaviour that makes GC and RMW traffic depress IOPS in
//! the paper's measurements.
//!
//! The FTLs in `esp-core` issue operations with explicit issue times and
//! receive completion times, so request-level dependencies (e.g. the read
//! half of a read-modify-write must finish before the program half starts)
//! are expressed by threading completion times through.
//!
//! # Examples
//!
//! ```
//! use esp_nand::{Geometry, Oob};
//! use esp_sim::SimTime;
//! use esp_ssd::Ssd;
//!
//! let mut ssd = Ssd::new(Geometry::tiny());
//! let page = ssd.geometry().block_addr(0).page(0);
//! let done = ssd.program_subpage(page.subpage(0), Oob { lsn: 1, seq: 1 }, SimTime::ZERO)?;
//! // subpage program: 4 KB transfer + 1300 us cell time
//! assert!(done > SimTime::from_micros(1300));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use esp_nand::{
    BlockAddr, Geometry, NandDevice, NandError, NandTiming, Oob, OpKind, PageAddr, ReadEffort,
    ReadFault, RetentionModel, SubpageAddr,
};
use esp_sim::{EventBuffer, Resource, SimDuration, SimTime, TraceEvent};

/// A failed flash command: the underlying [`NandError`] plus the simulated
/// time at which the failure was reported to the controller.
///
/// Two failure classes, with different timing:
///
/// * **Illegal commands** (bad addresses, ESP-discipline violations,
///   commands to bad blocks) are rejected before touching the array:
///   `at` equals the issue time and no simulated time is consumed.
/// * **Status failures** ([`NandError::ProgramFailed`] /
///   [`NandError::EraseFailed`], injected by the fault model) ran on the
///   array: they occupy the channel and chip exactly like a successful
///   attempt, and `at` is the completion time of the wasted attempt — so
///   an FTL retry pays full price for the failure it recovers from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpFailure {
    /// The device error behind the failure.
    pub error: NandError,
    /// When the failure was reported (issue time for illegal commands,
    /// completion time of the failed attempt for status failures).
    pub at: SimTime,
}

impl fmt::Display for OpFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flash command failed: {}", self.error)
    }
}

impl std::error::Error for OpFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Where to cut power during a run.
///
/// A crash point makes exactly one NAND command the *torn* command: a
/// program or erase cut mid-pulse leaves [`esp_nand::ReadFault::Torn`]
/// state behind (and, for ESP subpage programs, destroys the
/// previously-programmed siblings — Fig 4(b) is worst exactly when power
/// dies mid-lap). Every command after the torn one sees a powered-off
/// device: programs and erases are silently dropped, reads return
/// [`ReadFault::PowerLoss`]. Illegal commands never reach the array and so
/// never count toward [`CrashPoint::Command`] numbering — the counter
/// tracks *executed* commands, mirroring the fault-stream invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Cut power during the nth executed NAND command (1-based): commands
    /// `1..n` complete normally, command `n` is torn.
    Command(u64),
    /// Cut power at a simulated instant: the first command issued at or
    /// after this time is torn (legal or not — a command issued into a
    /// dead device is simply lost).
    Time(SimTime),
}

/// A timing-aware SSD: an [`NandDevice`] plus per-channel and per-chip
/// occupancy timelines.
#[derive(Debug, Clone)]
pub struct Ssd {
    device: NandDevice,
    channels: Vec<Resource>,
    /// One cell-operation timeline per plane (chips × planes_per_chip);
    /// a block's plane is `block % planes_per_chip`.
    planes: Vec<Resource>,
    planes_per_chip: u32,
    /// Latest completion time of any operation (the simulation makespan).
    makespan: SimTime,
    crash_point: Option<CrashPoint>,
    crashed: bool,
    commands_issued: u64,
    /// Per-command event recorder (disabled by default; see
    /// [`Ssd::enable_tracing`]).
    trace: EventBuffer,
}

/// Event-kind string for a NAND command.
fn op_kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::ProgramFull => "nand.program_full",
        OpKind::ProgramSubpage => "nand.program_subpage",
        OpKind::ReadFull => "nand.read_full",
        OpKind::ReadSubpage => "nand.read_subpage",
        OpKind::Erase => "nand.erase",
    }
}

impl Ssd {
    /// Creates an SSD with default timing and retention models.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`Geometry::validate`]).
    #[must_use]
    pub fn new(geometry: Geometry) -> Self {
        Self::with_device(NandDevice::new(geometry))
    }

    /// Creates an SSD with explicit timing and retention models.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    #[must_use]
    pub fn with_models(geometry: Geometry, timing: NandTiming, retention: RetentionModel) -> Self {
        Self::with_device(NandDevice::with_models(geometry, timing, retention))
    }

    /// Wraps an existing device (useful when the device was pre-conditioned
    /// or pre-cycled out of band). Single-plane chips; see
    /// [`Ssd::with_planes`] for multi-plane devices.
    #[must_use]
    fn with_device(device: NandDevice) -> Self {
        Self::with_device_planes(device, 1)
    }

    /// Like [`Ssd::with_device`] but with `planes_per_chip` independent
    /// planes per chip: cell operations on blocks of different planes of
    /// the same chip overlap (block `b` belongs to plane
    /// `b % planes_per_chip`), as on real multi-plane NAND. The channel is
    /// still shared.
    ///
    /// # Panics
    ///
    /// Panics if `planes_per_chip` is zero.
    #[must_use]
    fn with_device_planes(device: NandDevice, planes_per_chip: u32) -> Self {
        assert!(planes_per_chip > 0, "planes_per_chip must be at least 1");
        let g = device.geometry();
        let channels = vec![Resource::new(); g.channels as usize];
        let planes = vec![Resource::new(); (g.chip_count() * planes_per_chip) as usize];
        Ssd {
            device,
            channels,
            planes,
            planes_per_chip,
            makespan: SimTime::ZERO,
            crash_point: None,
            crashed: false,
            commands_issued: 0,
            trace: EventBuffer::disabled(),
        }
    }

    /// Creates a multi-plane SSD with explicit models.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid or `planes_per_chip` is zero.
    #[must_use]
    pub fn with_planes(
        geometry: Geometry,
        timing: NandTiming,
        retention: RetentionModel,
        planes_per_chip: u32,
    ) -> Self {
        Self::with_device_planes(
            NandDevice::with_models(geometry, timing, retention),
            planes_per_chip,
        )
    }

    /// Device geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        self.device.geometry()
    }

    /// The underlying behavioural device (for state introspection).
    #[must_use]
    pub fn device(&self) -> &NandDevice {
        &self.device
    }

    /// Mutable access to the underlying device (pre-cycling, fault
    /// injection).
    pub fn device_mut(&mut self) -> &mut NandDevice {
        &mut self.device
    }

    /// Latest completion time across all operations so far.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Utilization of every chip over the current makespan (mean across
    /// the chip's planes).
    #[must_use]
    pub fn chip_utilization(&self) -> Vec<f64> {
        let ppc = self.planes_per_chip as usize;
        self.planes
            .chunks(ppc)
            .map(|planes| {
                planes
                    .iter()
                    .map(|p| p.utilization(self.makespan))
                    .sum::<f64>()
                    / ppc as f64
            })
            .collect()
    }

    /// Planes per chip configured for this SSD.
    #[must_use]
    pub fn planes_per_chip(&self) -> u32 {
        self.planes_per_chip
    }

    /// Arms a crash point: the run will lose power at the given command or
    /// instant (see [`CrashPoint`]).
    pub fn set_crash_point(&mut self, point: CrashPoint) {
        self.crash_point = Some(point);
    }

    /// Restores power: disarms the crash point and lets commands reach the
    /// array again. Call before remounting a crashed device — the torn
    /// state the crash left behind is of course still there.
    pub fn clear_crash(&mut self) {
        self.crash_point = None;
        self.crashed = false;
    }

    /// Whether the armed crash point has fired (power is off).
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Whether the underlying device has failed outright (fault-model death
    /// trip or an explicit [`NandDevice::kill`]). A failed device behaves
    /// like a powered-off one — programs and erases are silently dropped,
    /// reads return [`ReadFault::DeviceDead`] — except that the condition is
    /// permanent: there is no power to restore. Array layers poll this to
    /// drive degraded-mode reconstruction.
    #[must_use]
    pub fn device_failed(&self) -> bool {
        self.device.is_dead()
    }

    /// Whether the device can no longer execute commands, for either
    /// reason: power is cut ([`Ssd::crashed`]) or the device failed
    /// outright ([`Ssd::device_failed`]). The FTLs' mid-operation abort
    /// points check this — a GC or migration pass bails out of a dead
    /// device exactly the way it bails out of a power cut.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.crashed || self.device.is_dead()
    }

    /// Number of NAND commands executed so far. Counts every command that
    /// reached the array — including status-failed programs and erases —
    /// but not illegal commands (rejected before execution), not the torn
    /// command itself, and nothing after a crash.
    #[must_use]
    pub fn commands_issued(&self) -> u64 {
        self.commands_issued
    }

    /// Whether the next executed command would trip the armed crash point.
    fn crash_due(&self, issue: SimTime) -> bool {
        match self.crash_point {
            Some(CrashPoint::Command(n)) => self.commands_issued + 1 >= n,
            Some(CrashPoint::Time(t)) => issue >= t,
            None => false,
        }
    }

    /// Whether a time-based crash point fires even on an illegal command:
    /// power dies at an instant regardless of what the controller was
    /// sending, so the command is lost rather than rejected.
    fn time_crash(&self) -> bool {
        matches!(self.crash_point, Some(CrashPoint::Time(_)))
    }

    fn indices(&self, block: BlockAddr) -> (usize, usize) {
        let g = self.device.geometry();
        let chip = g.chip_index(block.chip);
        let plane = block.block % self.planes_per_chip;
        (
            block.chip.channel as usize,
            (chip * self.planes_per_chip + plane) as usize,
        )
    }

    /// Arms per-command event tracing, retaining the newest `capacity`
    /// events: every executed NAND command records its kind, channel,
    /// chip and end-to-end latency (see [`esp_sim::TraceEvent`]).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// The per-command event recorder (empty unless
    /// [`Ssd::enable_tracing`] was called).
    #[must_use]
    pub fn trace(&self) -> &EventBuffer {
        &self.trace
    }

    /// Schedules a program-like op: channel transfer first, then cell time.
    fn schedule_write(&mut self, block: BlockAddr, kind: OpKind, issue: SimTime) -> SimTime {
        let cost = self.device.op_cost(kind);
        let (ch, plane) = self.indices(block);
        let xfer_done = self.channels[ch].occupy(issue, cost.bus);
        let done = self.planes[plane].occupy(xfer_done, cost.cell);
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), op_kind_name(kind))
                .field("channel", u64::from(block.chip.channel))
                .field("chip", u64::from(block.chip.way))
                .field("block", u64::from(block.block))
                .field("lat_ns", done.saturating_since(issue).as_nanos())
        });
        self.finish(done)
    }

    /// Schedules a read-like op: cell time first, then channel transfer.
    /// `penalty` is extra cell occupancy charged by the retry ladder (each
    /// hard step re-senses on the plane; the bus transfer happens once).
    fn schedule_read(
        &mut self,
        block: BlockAddr,
        kind: OpKind,
        penalty: SimDuration,
        issue: SimTime,
    ) -> SimTime {
        let cost = self.device.op_cost(kind);
        let (ch, plane) = self.indices(block);
        let sensed = self.planes[plane].occupy(issue, cost.cell + penalty);
        let done = self.channels[ch].occupy(sensed, cost.bus);
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), op_kind_name(kind))
                .field("channel", u64::from(block.chip.channel))
                .field("chip", u64::from(block.chip.way))
                .field("block", u64::from(block.block))
                .field("retry_ns", penalty.as_nanos())
                .field("lat_ns", done.saturating_since(issue).as_nanos())
        });
        self.finish(done)
    }

    fn finish(&mut self, done: SimTime) -> SimTime {
        self.makespan = self.makespan.max(done);
        done
    }

    /// Programs a full page, returning the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`OpFailure`]: illegal commands consume no simulated time;
    /// injected status failures cost as much as a successful program.
    pub fn program_full(
        &mut self,
        page: PageAddr,
        oobs: &[Option<Oob>],
        issue: SimTime,
    ) -> Result<SimTime, OpFailure> {
        if self.crashed || self.device.is_dead() {
            return Ok(issue);
        }
        if self.crash_due(issue) {
            match self.device.tear_program_full(page) {
                Ok(()) => {
                    self.crashed = true;
                    return Ok(issue);
                }
                // An illegal command never reached the array: a time crash
                // swallows it (power is gone either way); a command-count
                // crash stays armed for the next *executed* command.
                Err(error) => {
                    if self.time_crash() {
                        self.crashed = true;
                        return Ok(issue);
                    }
                    return Err(OpFailure { error, at: issue });
                }
            }
        }
        match self.device.program_full(page, oobs, issue) {
            Ok(()) => {
                self.commands_issued += 1;
                Ok(self.schedule_write(page.block, OpKind::ProgramFull, issue))
            }
            Err(error @ NandError::ProgramFailed) => {
                self.commands_issued += 1;
                let at = self.schedule_write(page.block, OpKind::ProgramFull, issue);
                Err(OpFailure { error, at })
            }
            Err(error) => Err(OpFailure { error, at: issue }),
        }
    }

    /// Programs a single subpage (ESP), returning the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`OpFailure`]: illegal commands consume no simulated time;
    /// injected status failures cost as much as a successful program.
    pub fn program_subpage(
        &mut self,
        addr: SubpageAddr,
        oob: Oob,
        issue: SimTime,
    ) -> Result<SimTime, OpFailure> {
        if self.crashed || self.device.is_dead() {
            return Ok(issue);
        }
        if self.crash_due(issue) {
            match self.device.tear_program_subpage(addr) {
                Ok(()) => {
                    self.crashed = true;
                    return Ok(issue);
                }
                Err(error) => {
                    if self.time_crash() {
                        self.crashed = true;
                        return Ok(issue);
                    }
                    return Err(OpFailure { error, at: issue });
                }
            }
        }
        match self.device.program_subpage(addr, oob, issue) {
            Ok(()) => {
                self.commands_issued += 1;
                Ok(self.schedule_write(addr.page.block, OpKind::ProgramSubpage, issue))
            }
            Err(error @ NandError::ProgramFailed) => {
                self.commands_issued += 1;
                let at = self.schedule_write(addr.page.block, OpKind::ProgramSubpage, issue);
                Err(OpFailure { error, at })
            }
            Err(error) => Err(OpFailure { error, at: issue }),
        }
    }

    /// Reads one subpage. The returned completion time is charged whether or
    /// not the data was correctable (the flash array and bus were occupied
    /// either way).
    pub fn read_subpage(
        &mut self,
        addr: SubpageAddr,
        issue: SimTime,
    ) -> (Result<Oob, ReadFault>, SimTime) {
        let (data, _, done) = self.read_subpage_graded(addr, issue);
        (data, done)
    }

    /// Like [`Ssd::read_subpage`] but also reports the retry-ladder effort
    /// the read needed, so FTLs can trigger read-reclaim on high-effort
    /// reads. Each hard retry step extends the plane (cell) occupancy by
    /// [`NandTiming::read_retry_step`]; a soft-decode pass adds
    /// [`NandTiming::soft_decode`].
    pub fn read_subpage_graded(
        &mut self,
        addr: SubpageAddr,
        issue: SimTime,
    ) -> (Result<Oob, ReadFault>, ReadEffort, SimTime) {
        if self.device.is_dead() {
            return (Err(ReadFault::DeviceDead), ReadEffort::NONE, issue);
        }
        if self.crashed || self.crash_due(issue) {
            // A read cut by power loss returns nothing and corrupts
            // nothing: the sense never completed and the cells are
            // untouched.
            self.crashed |= self.crash_point.is_some();
            return (Err(ReadFault::PowerLoss), ReadEffort::NONE, issue);
        }
        self.commands_issued += 1;
        let (data, effort) = self.device.read_subpage_with_effort(addr, issue);
        let penalty = self.device.timing().retry_penalty(effort);
        let done = self.schedule_read(addr.page.block, OpKind::ReadSubpage, penalty, issue);
        (data, effort, done)
    }

    /// Reads every data-bearing subpage of a full page in one page read
    /// (one cell sense + one full-page transfer).
    ///
    /// Returns per-slot results plus the completion time.
    pub fn read_full(
        &mut self,
        page: PageAddr,
        issue: SimTime,
    ) -> (Vec<Result<Oob, ReadFault>>, SimTime) {
        let mut results = Vec::new();
        let done = self.read_full_into(page, issue, &mut results);
        (results, done)
    }

    /// Like [`Ssd::read_full_into`] but also reports the page's
    /// retry-ladder effort — the effort of its hardest subpage, since retry
    /// steps re-sense the page as a unit.
    pub fn read_full_graded_into(
        &mut self,
        page: PageAddr,
        issue: SimTime,
        out: &mut Vec<Result<Oob, ReadFault>>,
    ) -> (ReadEffort, SimTime) {
        let n = self.geometry().subpages_per_page;
        if self.device.is_dead() {
            out.clear();
            out.resize(n as usize, Err(ReadFault::DeviceDead));
            return (ReadEffort::NONE, issue);
        }
        if self.crashed || self.crash_due(issue) {
            self.crashed |= self.crash_point.is_some();
            out.clear();
            out.resize(n as usize, Err(ReadFault::PowerLoss));
            return (ReadEffort::NONE, issue);
        }
        self.commands_issued += 1;
        let effort = self.device.read_full_with_effort_into(page, issue, out);
        let penalty = self.device.timing().retry_penalty(effort);
        let done = self.schedule_read(page.block, OpKind::ReadFull, penalty, issue);
        (effort, done)
    }

    /// Allocation-free variant of [`Ssd::read_full`]: clears `out` and
    /// fills it with the per-slot results, returning the completion time.
    pub fn read_full_into(
        &mut self,
        page: PageAddr,
        issue: SimTime,
        out: &mut Vec<Result<Oob, ReadFault>>,
    ) -> SimTime {
        self.read_full_graded_into(page, issue, out).1
    }

    /// Schedules an erase: cell time only, no channel transfer. `cell` is
    /// the per-block erase occupancy, sampled by the caller *before* the
    /// erase mutated the wear it depends on (adaptive erase).
    fn schedule_erase(&mut self, block: BlockAddr, cell: SimDuration, issue: SimTime) -> SimTime {
        let (_, plane) = self.indices(block);
        let done = self.planes[plane].occupy(issue, cell);
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), op_kind_name(OpKind::Erase))
                .field("channel", u64::from(block.chip.channel))
                .field("chip", u64::from(block.chip.way))
                .field("block", u64::from(block.block))
                .field("lat_ns", done.saturating_since(issue).as_nanos())
        });
        self.finish(done)
    }

    /// Erases a block, returning the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`OpFailure`]: illegal commands (including erases of bad
    /// blocks) consume no simulated time; an injected
    /// [`NandError::EraseFailed`] costs a full erase and leaves the block
    /// marked bad.
    pub fn erase(&mut self, block: BlockAddr, issue: SimTime) -> Result<SimTime, OpFailure> {
        if self.crashed || self.device.is_dead() {
            return Ok(issue);
        }
        if self.crash_due(issue) {
            match self.device.tear_erase(block) {
                Ok(()) => {
                    self.crashed = true;
                    return Ok(issue);
                }
                Err(error) => {
                    if self.time_crash() {
                        self.crashed = true;
                        return Ok(issue);
                    }
                    return Err(OpFailure { error, at: issue });
                }
            }
        }
        // Sampled before the erase increments the wear the adaptive depth
        // depends on; without adaptive erase this is the fixed tBERS.
        let cell = self.device.erase_cost(block).cell;
        match self.device.erase(block, issue) {
            Ok(()) => {
                self.commands_issued += 1;
                Ok(self.schedule_erase(block, cell, issue))
            }
            Err(error @ NandError::EraseFailed) => {
                self.commands_issued += 1;
                let at = self.schedule_erase(block, cell, issue);
                Err(OpFailure { error, at })
            }
            Err(error) => Err(OpFailure { error, at: issue }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oob(lsn: u64) -> Oob {
        Oob { lsn, seq: lsn }
    }

    fn ssd() -> Ssd {
        Ssd::new(Geometry::tiny())
    }

    #[test]
    fn single_program_latency_is_bus_plus_cell() {
        let mut s = ssd();
        let page = s.geometry().block_addr(0).page(0);
        let done = s
            .program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        let cost = s.device().op_cost(OpKind::ProgramSubpage);
        assert_eq!(done.saturating_since(SimTime::ZERO), cost.total());
    }

    #[test]
    fn same_chip_ops_serialize() {
        let mut s = ssd();
        let blk = s.geometry().block_addr(0);
        let d1 = s
            .program_full(blk.page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        let d2 = s
            .program_full(blk.page(1), &[None; 4], SimTime::ZERO)
            .unwrap();
        let cell = s.device().op_cost(OpKind::ProgramFull).cell;
        assert_eq!(d2.saturating_since(d1), cell);
    }

    #[test]
    fn different_channel_ops_pipeline() {
        let mut s = ssd();
        let g = s.geometry().clone();
        // tiny(): 2 channels x 1 chip, blocks 0..8 on chip 0, 8..16 on chip 1.
        let b0 = g.block_addr(0);
        let b1 = g.block_addr(g.blocks_per_chip); // second chip, other channel
        assert_ne!(b0.chip.channel, b1.chip.channel);
        let d0 = s
            .program_full(b0.page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        let d1 = s
            .program_full(b1.page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        // Fully parallel: identical completion times.
        assert_eq!(d0, d1);
    }

    #[test]
    fn same_channel_transfers_contend() {
        let g = Geometry {
            chips_per_channel: 2,
            ..Geometry::tiny()
        };
        let mut s = Ssd::new(g.clone());
        // Two chips on channel 0: cell phases overlap, transfers serialize.
        let b0 = g.block_addr(0);
        let b1 = g.block_addr(g.blocks_per_chip);
        assert_eq!(b0.chip.channel, b1.chip.channel);
        assert_ne!(b0.chip, b1.chip);
        let d0 = s
            .program_full(b0.page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        let d1 = s
            .program_full(b1.page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        let bus = s.device().op_cost(OpKind::ProgramFull).bus;
        assert_eq!(d1.saturating_since(d0), bus);
    }

    #[test]
    fn read_is_sense_then_transfer() {
        let mut s = ssd();
        let page = s.geometry().block_addr(0).page(0);
        s.program_subpage(page.subpage(0), oob(9), SimTime::ZERO)
            .unwrap();
        let issue = SimTime::from_secs(1);
        let (data, done) = s.read_subpage(page.subpage(0), issue);
        assert_eq!(data.unwrap().lsn, 9);
        let cost = s.device().op_cost(OpKind::ReadSubpage);
        assert_eq!(done.saturating_since(issue), cost.total());
    }

    #[test]
    fn retried_read_charges_ladder_latency() {
        use esp_nand::RetryLadder;
        use esp_sim::SimDuration;

        let mut s = ssd();
        s.device_mut()
            .set_retry_ladder(Some(RetryLadder::paper_default()));
        s.device_mut().precycle(1000);
        let page = s.geometry().block_addr(0).page(0);
        // An Npp^3 subpage read at 2 months: over the base limit, recovered
        // by hard retry steps that extend the plane occupancy.
        for slot in 0..4u8 {
            s.program_subpage(page.subpage(slot), oob(u64::from(slot)), SimTime::ZERO)
                .unwrap();
        }
        let issue = SimTime::ZERO + SimDuration::from_months(2);
        let (r, effort, done) = s.read_subpage_graded(page.subpage(3), issue);
        assert_eq!(r.unwrap().lsn, 3);
        assert!(effort.retry_steps > 0 && !effort.soft_decode);
        let base = s.device().op_cost(OpKind::ReadSubpage).total();
        let penalty = s.device().timing().retry_penalty(effort);
        assert_eq!(done.saturating_since(issue), base + penalty);
    }

    #[test]
    fn read_full_returns_all_slots() {
        let mut s = ssd();
        let page = s.geometry().block_addr(1).page(0);
        let oobs = vec![Some(oob(1)), Some(oob(2)), None, None];
        s.program_full(page, &oobs, SimTime::ZERO).unwrap();
        let (results, _) = s.read_full(page, SimTime::from_secs(1));
        assert_eq!(results[0], Ok(oob(1)));
        assert_eq!(results[1], Ok(oob(2)));
        assert_eq!(results[2], Err(ReadFault::Padding));
        assert_eq!(results[3], Err(ReadFault::Padding));
    }

    #[test]
    fn erase_occupies_chip_only() {
        let g = Geometry {
            chips_per_channel: 2,
            ..Geometry::tiny()
        };
        let mut s = Ssd::new(g.clone());
        let blk = g.block_addr(0);
        let done = s.erase(blk, SimTime::ZERO).unwrap();
        assert_eq!(
            done.saturating_since(SimTime::ZERO),
            s.device().op_cost(OpKind::Erase).cell
        );
        // Channel untouched: a program on the channel's other chip starts
        // its transfer at 0 and finishes after bus plus cell time.
        let other = g.block_addr(g.blocks_per_chip);
        assert_eq!(other.chip.channel, blk.chip.channel);
        let d = s
            .program_full(other.page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        assert_eq!(
            d.saturating_since(SimTime::ZERO),
            s.device().op_cost(OpKind::ProgramFull).total()
        );
    }

    #[test]
    fn adaptive_erase_shortens_the_scheduled_occupancy() {
        let mut s = ssd();
        s.device_mut().set_adaptive_erase(true);
        let blk = s.geometry().block_addr(0);
        // Fresh block: shallow depth, 70 % of tBERS (5 ms -> 3.5 ms).
        let done = s.erase(blk, SimTime::ZERO).unwrap();
        assert_eq!(
            done.saturating_since(SimTime::ZERO),
            SimDuration::from_micros(3_500)
        );
        // Worn far past the reference point: full depth again.
        s.device_mut().precycle(2000);
        let issue = SimTime::from_secs(1);
        let done = s.erase(blk, issue).unwrap();
        assert_eq!(
            done.saturating_since(issue),
            s.device().op_cost(OpKind::Erase).cell
        );
    }

    #[test]
    fn failed_commands_cost_no_time() {
        let mut s = ssd();
        let page = s.geometry().block_addr(0).page(0);
        s.program_full(page, &[None; 4], SimTime::ZERO).unwrap();
        let before = s.makespan();
        // Second full program on the same page is illegal.
        let err = s.program_full(page, &[None; 4], SimTime::ZERO).unwrap_err();
        assert_eq!(err.error, NandError::ProgramOnDirtyPage);
        assert_eq!(err.at, SimTime::ZERO, "illegal commands fail at issue");
        assert_eq!(s.makespan(), before);
    }

    #[test]
    fn injected_program_failure_costs_full_attempt() {
        let mut s = ssd();
        s.device_mut().set_faults(esp_nand::FaultConfig {
            seed: 1,
            program_fail_prob: 0.999_999,
            ..esp_nand::FaultConfig::default()
        });
        let page = s.geometry().block_addr(0).page(0);
        let err = s
            .program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err.error, NandError::ProgramFailed);
        let cost = s.device().op_cost(OpKind::ProgramSubpage);
        assert_eq!(
            err.at.saturating_since(SimTime::ZERO),
            cost.total(),
            "a status-failed program occupies bus and cell like a real one"
        );
        assert_eq!(s.makespan(), err.at);
        assert_eq!(s.commands_issued(), 1, "the failed attempt executed");
    }

    #[test]
    fn injected_erase_failure_costs_full_erase_and_grows_bad_block() {
        let mut s = ssd();
        s.device_mut().set_faults(esp_nand::FaultConfig {
            seed: 1,
            erase_fail_prob: 0.999_999,
            ..esp_nand::FaultConfig::default()
        });
        let blk = s.geometry().block_addr(0);
        let err = s.erase(blk, SimTime::ZERO).unwrap_err();
        assert_eq!(err.error, NandError::EraseFailed);
        assert_eq!(
            err.at.saturating_since(SimTime::ZERO),
            s.device().op_cost(OpKind::Erase).cell
        );
        assert!(s.device().is_bad(blk));
        // Further commands to the grown bad block are free rejections.
        let before = s.makespan();
        let err = s.erase(blk, SimTime::ZERO).unwrap_err();
        assert_eq!(err.error, NandError::BadBlock);
        assert_eq!(s.makespan(), before);
    }

    #[test]
    fn op_failure_display_names_the_cause() {
        let f = OpFailure {
            error: NandError::ProgramFailed,
            at: SimTime::ZERO,
        };
        let msg = f.to_string();
        assert!(msg.contains("status fail"), "got {msg}");
        let src = std::error::Error::source(&f).expect("has a source");
        assert_eq!(src.to_string(), NandError::ProgramFailed.to_string());
    }

    #[test]
    fn makespan_and_command_count_track_ops() {
        let mut s = ssd();
        let page = s.geometry().block_addr(0).page(0);
        s.program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        s.program_subpage(page.subpage(1), oob(2), SimTime::ZERO)
            .unwrap();
        assert_eq!(s.commands_issued(), 2);
        assert!(s.makespan() > SimTime::from_micros(2600));
    }

    #[test]
    fn planes_overlap_cell_ops_on_one_chip() {
        let g = Geometry::tiny(); // 8 blocks/chip: blocks 0,1 on planes 0,1
        let single = {
            let mut s = Ssd::new(g.clone());
            s.program_full(g.block_addr(0).page(0), &[None; 4], SimTime::ZERO)
                .unwrap();
            s.program_full(g.block_addr(1).page(0), &[None; 4], SimTime::ZERO)
                .unwrap()
        };
        let dual = {
            let mut s = Ssd::with_planes(
                g.clone(),
                esp_nand::NandTiming::paper_default(),
                esp_nand::RetentionModel::paper_default(),
                2,
            );
            assert_eq!(s.planes_per_chip(), 2);
            s.program_full(g.block_addr(0).page(0), &[None; 4], SimTime::ZERO)
                .unwrap();
            s.program_full(g.block_addr(1).page(0), &[None; 4], SimTime::ZERO)
                .unwrap()
        };
        assert!(
            dual < single,
            "different-plane programs must overlap: dual {dual} vs single {single}"
        );
    }

    #[test]
    fn same_plane_blocks_still_serialize() {
        let g = Geometry::tiny();
        let mut s = Ssd::with_planes(
            g.clone(),
            esp_nand::NandTiming::paper_default(),
            esp_nand::RetentionModel::paper_default(),
            2,
        );
        // Blocks 0 and 2 share plane 0.
        let d0 = s
            .program_full(g.block_addr(0).page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        let d2 = s
            .program_full(g.block_addr(2).page(0), &[None; 4], SimTime::ZERO)
            .unwrap();
        let cell = s.device().op_cost(OpKind::ProgramFull).cell;
        assert_eq!(d2.saturating_since(d0), cell);
    }

    #[test]
    fn crash_at_nth_command_tears_it_and_freezes_the_device() {
        let mut s = ssd();
        let page = s.geometry().block_addr(0).page(0);
        s.set_crash_point(CrashPoint::Command(2));
        s.program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(s.commands_issued(), 1);
        assert!(!s.crashed());
        let before = s.makespan();
        // Command 2 is torn: reported Ok, costs nothing, tears the slot and
        // destroys the sibling programmed by command 1.
        let done = s
            .program_subpage(page.subpage(1), oob(2), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(done, SimTime::from_secs(1));
        assert!(s.crashed());
        assert_eq!(s.commands_issued(), 1, "the torn command does not count");
        assert_eq!(s.makespan(), before);
        // Power is off: programs are dropped, reads fail with PowerLoss.
        s.program_subpage(page.subpage(2), oob(3), SimTime::from_secs(2))
            .unwrap();
        let (r, at) = s.read_subpage(page.subpage(0), SimTime::from_secs(3));
        assert_eq!(r, Err(ReadFault::PowerLoss));
        assert_eq!(at, SimTime::from_secs(3));
        let (rs, _) = s.read_full(page, SimTime::from_secs(3));
        assert!(rs.iter().all(|r| *r == Err(ReadFault::PowerLoss)));
        // Power restored: the torn state is visible on the array.
        s.clear_crash();
        let (r0, _) = s.read_subpage(page.subpage(0), SimTime::from_secs(4));
        assert_eq!(r0, Err(ReadFault::DestroyedByProgram));
        let (r1, _) = s.read_subpage(page.subpage(1), SimTime::from_secs(4));
        assert_eq!(r1, Err(ReadFault::Torn));
        let (r2, _) = s.read_subpage(page.subpage(2), SimTime::from_secs(4));
        assert_eq!(r2, Err(ReadFault::NotWritten), "dropped program never ran");
    }

    #[test]
    fn crash_by_time_fires_on_first_command_at_or_after_the_instant() {
        let mut s = ssd();
        let blk = s.geometry().block_addr(0);
        s.set_crash_point(CrashPoint::Time(SimTime::from_micros(50)));
        s.program_subpage(blk.page(0).subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        assert!(!s.crashed());
        // First command issued past the instant: the erase is torn.
        s.erase(blk, SimTime::from_micros(60)).unwrap();
        assert!(s.crashed());
        s.clear_crash();
        assert!(s.device().is_torn(blk));
        assert_eq!(s.device().stats().torn_erases, 1);
        // The torn block rejects programs until a completed re-erase.
        let err = s
            .program_subpage(blk.page(0).subpage(0), oob(2), SimTime::from_secs(1))
            .unwrap_err();
        assert_eq!(err.error, NandError::TornBlock);
        s.erase(blk, SimTime::from_secs(1)).unwrap();
        assert!(!s.device().is_torn(blk));
    }

    #[test]
    fn command_crash_skips_illegal_commands() {
        let mut s = ssd();
        let g = s.geometry().clone();
        let page = g.block_addr(0).page(0);
        s.program_full(page, &[None; 4], SimTime::ZERO).unwrap();
        s.set_crash_point(CrashPoint::Command(2));
        // Illegal command (dirty-page full program): rejected as usual, the
        // crash stays armed because nothing executed.
        let err = s
            .program_full(page, &[None; 4], SimTime::from_secs(1))
            .unwrap_err();
        assert_eq!(err.error, NandError::ProgramOnDirtyPage);
        assert!(!s.crashed());
        // The next *executed* command is the one that tears.
        s.erase(page.block, SimTime::from_secs(2)).unwrap();
        assert!(s.crashed());
        assert!(s.device().is_torn(page.block));
    }

    #[test]
    fn crashed_read_never_reaches_the_array() {
        let mut s = ssd();
        let page = s.geometry().block_addr(0).page(0);
        s.program_subpage(page.subpage(0), oob(7), SimTime::ZERO)
            .unwrap();
        s.set_crash_point(CrashPoint::Command(2));
        let before = s.makespan();
        let (r, at) = s.read_subpage(page.subpage(0), SimTime::from_secs(1));
        assert_eq!(r, Err(ReadFault::PowerLoss));
        assert_eq!(at, SimTime::from_secs(1));
        assert!(s.crashed());
        assert_eq!(s.makespan(), before, "a cut read charges no time");
        // After power-on the data is intact: reads do not corrupt.
        s.clear_crash();
        let (r, _) = s.read_subpage(page.subpage(0), SimTime::from_secs(2));
        assert_eq!(r.unwrap().lsn, 7);
    }

    #[test]
    fn tracing_records_each_executed_command() {
        let mut s = ssd();
        let blk = s.geometry().block_addr(0);
        let page = blk.page(0);
        // Disabled by default: no events, no cost.
        s.program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        assert!(s.trace().is_empty());
        s.enable_tracing(64);
        s.program_subpage(page.subpage(1), oob(2), SimTime::ZERO)
            .unwrap();
        let (_, _) = s.read_subpage(page.subpage(1), SimTime::from_secs(1));
        // An illegal command (full program on a dirty page) never reaches
        // the array and is not traced.
        let _ = s
            .program_full(page, &[None; 4], SimTime::from_secs(2))
            .unwrap_err();
        s.erase(blk, SimTime::from_secs(3)).unwrap();
        let events = s.trace().events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            ["nand.program_subpage", "nand.read_subpage", "nand.erase"]
        );
        // Each event carries its latency and placement.
        for e in &events {
            assert!(e.get("lat_ns").unwrap() > 0);
            assert!(e.get("channel").is_some() && e.get("block").is_some());
        }
    }

    #[test]
    fn dead_device_drops_writes_and_fails_reads_without_cost() {
        let mut s = ssd();
        let page = s.geometry().block_addr(0).page(0);
        s.program_subpage(page.subpage(0), oob(7), SimTime::ZERO)
            .unwrap();
        assert!(!s.device_failed());
        s.device_mut().kill();
        assert!(s.device_failed());
        let before = s.makespan();
        let issued = s.commands_issued();
        // Programs and erases are silently dropped, like a powered-off
        // device: the FTL sees success and never livelocks on retries.
        let done = s
            .program_subpage(page.subpage(1), oob(8), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(done, SimTime::from_secs(1));
        s.erase(page.block, SimTime::from_secs(1)).unwrap();
        // Reads fail at issue with the array-visible cause.
        let (r, effort, at) = s.read_subpage_graded(page.subpage(0), SimTime::from_secs(2));
        assert_eq!(r, Err(ReadFault::DeviceDead));
        assert_eq!(effort, ReadEffort::NONE);
        assert_eq!(at, SimTime::from_secs(2));
        let (rs, _) = s.read_full(page, SimTime::from_secs(2));
        assert!(rs.iter().all(|r| *r == Err(ReadFault::DeviceDead)));
        // Nothing reached the array: no time, no command count.
        assert_eq!(s.makespan(), before);
        assert_eq!(s.commands_issued(), issued);
    }

    #[test]
    fn fault_model_death_trip_surfaces_through_the_ssd() {
        let mut s = ssd();
        s.device_mut().set_faults(esp_nand::FaultConfig {
            die_at_op: Some(2),
            ..esp_nand::FaultConfig::default()
        });
        let page = s.geometry().block_addr(0).page(0);
        s.program_subpage(page.subpage(0), oob(1), SimTime::ZERO)
            .unwrap();
        assert!(!s.device_failed());
        // The second executed command completes, then the device bricks.
        let (r, _) = s.read_subpage(page.subpage(0), SimTime::from_secs(1));
        assert_eq!(r.unwrap().lsn, 1);
        assert!(s.device_failed());
        let (r, _) = s.read_subpage(page.subpage(0), SimTime::from_secs(2));
        assert_eq!(r, Err(ReadFault::DeviceDead));
    }

    #[test]
    fn utilization_vector_has_one_entry_per_chip() {
        assert_eq!(ssd().chip_utilization().len(), 2);
    }
}
