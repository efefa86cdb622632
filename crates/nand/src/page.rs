//! Per-page and per-subpage state machine with SBPI/ESP semantics.
//!
//! NAND flash programs bit-by-bit through the self-boosting program-inhibit
//! (SBPI) scheme (paper §3.1): during a program pulse, bit lines belonging to
//! the target subpage are driven to 0 V (programmed) while all others are
//! inhibited at `V_cc`. This means a page *can* be programmed several times,
//! one subpage per operation — but with the physics the paper characterizes
//! in §3.2 (Fig 4):
//!
//! * a subpage that was **already programmed** is destroyed by any later
//!   program operation on the same page (program disturbance + coupling push
//!   its BER past the ECC limit);
//! * a subpage that was **inhibited** during `k` earlier programs and is then
//!   programmed becomes an `Npp^k`-type subpage: it stores data correctly but
//!   with the reduced retention capability modeled in
//!   [`RetentionModel`](crate::RetentionModel).
//!
//! This module models exactly that: it is mechanism, not policy. The ESP
//! *discipline* (only program a subpage when no other subpage in the page
//! holds valid data) lives in the FTL; the device faithfully destroys data
//! if the discipline is violated.
//!
//! Because every program pulse destroys the page's written subpages, all
//! written subpages of a page come from its last program. The device keeps
//! one 16-byte [`PageRec`] per page (that program's time and wear, the
//! program count and a 3-bit kind per slot) and one 16-byte [`Oob`] spare
//! record per subpage; the rules here are functions over one page's record
//! and its spare records.

use esp_sim::SimTime;

use crate::error::{NandError, ReadFault};

/// FTL metadata stored in a subpage's spare (out-of-band) area: the logical
/// sector it holds and a monotonically increasing write sequence number.
///
/// Real FTLs store this in the page spare area to rebuild mappings after
/// power loss and to identify stale copies during GC; the simulator uses it
/// additionally to verify end-to-end read-your-writes in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Oob {
    /// Logical sector number (4 KB units) this subpage holds.
    pub lsn: u64,
    /// Global write sequence number at the time of programming.
    pub seq: u64,
}

/// State of one subpage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubpageState {
    /// Erased and never programmed since the last block erase.
    Erased,
    /// Programmed and holding data (subject to retention limits).
    Written(WrittenSubpage),
    /// Was programmed, then corrupted past the ECC limit by a later program
    /// operation on the same page (Fig 4(b), "uncorrectable failure").
    Destroyed,
    /// A program or erase operation was interrupted mid-pulse (power loss):
    /// the cells hold a partial charge pattern that reads back
    /// ECC-uncorrectable (Cai et al.'s interrupted-programming states).
    Torn,
}

/// The payload of a programmed subpage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrittenSubpage {
    /// Spare-area metadata; `None` for padding written as part of a
    /// partially-filled full-page program.
    pub oob: Option<Oob>,
    /// `Npp` type: number of program operations the page had experienced
    /// before this subpage was programmed (0 for full-page programs).
    pub npp: u8,
    /// When the subpage was programmed (for retention-age evaluation).
    pub programmed_at: SimTime,
    /// Block P/E cycle count at program time (wear affects retention).
    pub pe_at_program: u32,
}

/// What a subpage holds: [`SubpageState`] with data and padding apart.
/// The discriminant is the 3-bit code a [`PageRec`] packs per slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Erased = 0,
    Data = 1,
    Padding = 2,
    Destroyed = 3,
    Torn = 4,
}

impl Kind {
    fn from_code(code: u32) -> Kind {
        match code {
            0 => Kind::Erased,
            1 => Kind::Data,
            2 => Kind::Padding,
            3 => Kind::Destroyed,
            _ => Kind::Torn,
        }
    }

    /// True for a programmed slot not destroyed since: data or padding.
    fn is_written(self) -> bool {
        matches!(self, Kind::Data | Kind::Padding)
    }
}

/// Bits per slot kind in [`PageRec::packed`].
const KIND_BITS: usize = 3;
/// The most slots a [`PageRec`] holds kinds for.
pub(crate) const MAX_SUBPAGES: u32 = 8;
/// Where [`PageRec::packed`] keeps the program count.
const PROGRAMS_SHIFT: u32 = 24;
const KINDS_MASK: u32 = (1 << PROGRAMS_SHIFT) - 1;

/// One page as the device stores it. Every program pulse destroys the
/// page's other written subpages, so each slot that reads as written comes
/// from the page's last program: its program time, wear and `Npp` type
/// (the program count minus one) are the page's. A slot's spare area
/// ([`Oob`]) lives beside the record and means something only while the
/// slot holds data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageRec {
    /// When the last program ran.
    programmed_at: SimTime,
    /// The block's effective P/E at the last program.
    pe_at_program: u32,
    /// Slot `s`'s [`Kind`] at bits `3s..3s + 3`; the program operations
    /// since the last erase at bits 24..32.
    packed: u32,
}

// The device holds one page record per page and one spare record per
// subpage: 20 MiB per million subpages at four subpages per page.
const _: () = assert!(std::mem::size_of::<PageRec>() == 16);
const _: () = assert!(std::mem::size_of::<Oob>() == 16);
const _: () = assert!(MAX_SUBPAGES as usize * KIND_BITS <= PROGRAMS_SHIFT as usize);

impl PageRec {
    /// An erased page.
    pub(crate) const ERASED: PageRec = PageRec {
        programmed_at: SimTime::ZERO,
        pe_at_program: 0,
        packed: 0,
    };

    /// A page of `n_sub` slots, every one torn, that has counted
    /// `programs` programs since its last erase.
    fn torn(n_sub: usize, programs: u8) -> PageRec {
        let mut rec = PageRec::ERASED;
        for slot in 0..n_sub {
            rec.set_kind(slot, Kind::Torn);
        }
        rec.set_programs(programs);
        rec
    }

    /// Program operations since the last erase (`N_sub` after a cut
    /// erase).
    pub(crate) fn programs(&self) -> u8 {
        (self.packed >> PROGRAMS_SHIFT) as u8
    }

    fn set_programs(&mut self, programs: u8) {
        self.packed = self.packed & KINDS_MASK | u32::from(programs) << PROGRAMS_SHIFT;
    }

    fn kind(&self, slot: usize) -> Kind {
        Kind::from_code(self.packed >> (KIND_BITS * slot) & 0b111)
    }

    fn set_kind(&mut self, slot: usize, kind: Kind) {
        let shift = KIND_BITS * slot;
        self.packed = self.packed & !(0b111 << shift) | (kind as u32) << shift;
    }

    /// Slot `slot` as written by the last program, with `spare` its spare
    /// area; the caller has checked that the slot is written.
    fn written(&self, slot: usize, spare: Oob) -> WrittenSubpage {
        let (pe_at_program, npp, programmed_at) = self.last_program();
        WrittenSubpage {
            oob: (self.kind(slot) == Kind::Data).then_some(spare),
            npp,
            programmed_at,
            pe_at_program,
        }
    }

    /// Slot `slot`'s raw state, with `spare` its spare area.
    pub(crate) fn state(&self, slot: usize, spare: Oob) -> SubpageState {
        match self.kind(slot) {
            Kind::Erased => SubpageState::Erased,
            Kind::Data | Kind::Padding => SubpageState::Written(self.written(slot, spare)),
            Kind::Destroyed => SubpageState::Destroyed,
            Kind::Torn => SubpageState::Torn,
        }
    }

    /// Raw check that slot `slot` holds data — the ECC/retention judgment
    /// is the device's job (it owns the retention model and the clock).
    ///
    /// # Errors
    ///
    /// * [`ReadFault::NotWritten`] if the subpage is erased.
    /// * [`ReadFault::Padding`] if it was programmed as padding.
    /// * [`ReadFault::DestroyedByProgram`] if a later program on the page
    ///   corrupted it.
    /// * [`ReadFault::Torn`] if a program or erase was cut mid-operation.
    pub(crate) fn data(&self, slot: usize) -> Result<(), ReadFault> {
        match self.kind(slot) {
            Kind::Erased => Err(ReadFault::NotWritten),
            Kind::Data => Ok(()),
            Kind::Padding => Err(ReadFault::Padding),
            Kind::Destroyed => Err(ReadFault::DestroyedByProgram),
            Kind::Torn => Err(ReadFault::Torn),
        }
    }

    /// Raw read of slot `slot`, with `spare` its spare area.
    ///
    /// # Errors
    ///
    /// As [`PageRec::data`].
    #[cfg(test)]
    fn read(&self, slot: usize, spare: Oob) -> Result<WrittenSubpage, ReadFault> {
        self.data(slot).map(|()| self.written(slot, spare))
    }

    /// What the retention judgment of any slot holding data needs: the
    /// last program's wear (effective P/E), the slots' `Npp` type and the
    /// program time.
    pub(crate) fn last_program(&self) -> (u32, u8, SimTime) {
        (
            self.pe_at_program,
            self.programs().saturating_sub(1),
            self.programmed_at,
        )
    }

    /// Marks slot `slot` destroyed: by a later program pulse on its page
    /// (Fig 4(b)), or by a program of its own that reported status fail
    /// (the pulse ran, so it holds garbage rather than data).
    pub(crate) fn destroy(&mut self, slot: usize) {
        self.set_kind(slot, Kind::Destroyed);
    }
}

/// True if no further program operation is allowed before an erase (the
/// page has been programmed `N_sub` times).
fn is_exhausted(rec: &PageRec, n_sub: usize) -> bool {
    usize::from(rec.programs()) >= n_sub
}

/// Programs the whole page in one operation (the conventional path):
/// `rec` is the page's record and `spare` its subpages' spare areas.
///
/// `oobs` supplies one spare-area entry per subpage; `None` entries are
/// padding (space wasted by internal fragmentation in CGM/FGM FTLs).
///
/// # Errors
///
/// * [`NandError::SlotCountMismatch`] if `oobs.len() != N_sub`.
/// * [`NandError::ProgramOnDirtyPage`] if the page has been programmed
///   since the last erase — full-page programs require an erased page.
pub(crate) fn program_full(
    rec: &mut PageRec,
    spare: &mut [Oob],
    oobs: &[Option<Oob>],
    now: SimTime,
    pe_cycles: u32,
) -> Result<(), NandError> {
    if oobs.len() != spare.len() {
        return Err(NandError::SlotCountMismatch {
            expected: spare.len() as u32,
            got: oobs.len() as u32,
        });
    }
    if rec.programs() != 0 {
        return Err(NandError::ProgramOnDirtyPage);
    }
    *rec = PageRec {
        programmed_at: now,
        pe_at_program: pe_cycles,
        packed: 0,
    };
    for (slot, (s, oob)) in spare.iter_mut().zip(oobs).enumerate() {
        match oob {
            Some(o) => {
                *s = *o;
                rec.set_kind(slot, Kind::Data);
            }
            None => rec.set_kind(slot, Kind::Padding),
        }
    }
    rec.set_programs(1);
    Ok(())
}

/// The legality checks shared by a subpage program and its torn twin;
/// returns the slot's index into the page.
fn subpage_target(rec: &PageRec, n_sub: usize, slot: u8) -> Result<usize, NandError> {
    if usize::from(slot) >= n_sub {
        return Err(NandError::SlotOutOfRange {
            slot,
            n_sub: n_sub as u32,
        });
    }
    if is_exhausted(rec, n_sub) {
        return Err(NandError::ProgramLimitExceeded);
    }
    Ok(usize::from(slot))
}

/// Destroys every written slot of the page but `target` (the Fig 4(b)
/// disturbance of one program pulse) and returns how many there were.
fn destroy_siblings(rec: &mut PageRec, n_sub: usize, target: usize) -> u32 {
    let mut destroyed = 0;
    for slot in 0..n_sub {
        if slot != target && rec.kind(slot).is_written() {
            rec.destroy(slot);
            destroyed += 1;
        }
    }
    destroyed
}

/// Programs a single subpage via SBPI bit-line selection (the ESP path):
/// `rec` is the page's record and `spare` its subpages' spare areas.
///
/// Physics, per Fig 4: every *other* subpage of this page that currently
/// holds data is **destroyed** (its BER exceeds the ECC limit). If the
/// target slot itself was already programmed, the newly written data is
/// garbage too, so the slot ends up [`SubpageState::Destroyed`] — this
/// models an FTL bug, not a supported operation, and the device reports
/// it faithfully rather than rejecting the command.
///
/// The subpage becomes an `Npp^k` type where `k` is the number of program
/// operations the page had seen before this one.
///
/// Returns how many slots' data was destroyed as a side effect (the
/// target included if it had been programmed), so callers can count the
/// corruption.
///
/// # Errors
///
/// * [`NandError::SlotOutOfRange`] if `slot >= N_sub`.
/// * [`NandError::ProgramLimitExceeded`] if the page has already been
///   programmed `N_sub` times since the last erase.
pub(crate) fn program_subpage(
    rec: &mut PageRec,
    spare: &mut [Oob],
    slot: u8,
    oob: Oob,
    now: SimTime,
    pe_cycles: u32,
) -> Result<u32, NandError> {
    let target = subpage_target(rec, spare.len(), slot)?;
    let mut destroyed = destroy_siblings(rec, spare.len(), target);
    if rec.kind(target) == Kind::Erased {
        rec.set_kind(target, Kind::Data);
        spare[target] = oob;
    } else {
        rec.destroy(target);
        destroyed += 1;
    }
    rec.programmed_at = now;
    rec.pe_at_program = pe_cycles;
    rec.set_programs(rec.programs() + 1);
    Ok(destroyed)
}

/// A full-page program of a page of `n_sub` slots cut by power loss
/// mid-pulse: every subpage holds a partial charge pattern and reads back
/// uncorrectable. Legality mirrors [`program_full`] (the command was
/// accepted; only its completion was interrupted).
///
/// # Errors
///
/// * [`NandError::ProgramOnDirtyPage`] if the page is not erased.
pub(crate) fn tear_program_full(rec: &mut PageRec, n_sub: usize) -> Result<(), NandError> {
    if rec.programs() != 0 {
        return Err(NandError::ProgramOnDirtyPage);
    }
    *rec = PageRec::torn(n_sub, 1);
    Ok(())
}

/// A subpage program on a page of `n_sub` slots cut by power loss
/// mid-pulse. The target slot is torn, and — exactly as for a completed
/// program — every other subpage of the page that held data is destroyed
/// (the Fig 4(b) disturbance comes from the program pulses, which did run
/// before the cut). Legality mirrors [`program_subpage`].
///
/// Returns how many slots' data was destroyed as a side effect.
///
/// # Errors
///
/// * [`NandError::SlotOutOfRange`] if `slot >= N_sub`.
/// * [`NandError::ProgramLimitExceeded`] if the page is exhausted.
pub(crate) fn tear_program_subpage(
    rec: &mut PageRec,
    n_sub: usize,
    slot: u8,
) -> Result<u32, NandError> {
    let target = subpage_target(rec, n_sub, slot)?;
    let destroyed = destroy_siblings(rec, n_sub, target);
    rec.set_kind(target, Kind::Torn);
    rec.set_programs(rec.programs() + 1);
    Ok(destroyed)
}

/// Resets pages to the erased state: `pages` holds their records (one
/// page, or a whole block). Spare areas are left as they are: a slot's
/// spare area is read only while the slot holds data.
pub(crate) fn erase(pages: &mut [PageRec]) {
    pages.fill(PageRec::ERASED);
}

/// An erase cut by power loss mid-operation: the partial erase leaves
/// every subpage in an indeterminate, uncorrectable state. Each page is
/// marked exhausted (`n_sub` programs) so no program can target it until a
/// completed erase resets it.
pub(crate) fn tear_erase(pages: &mut [PageRec], n_sub: u8) {
    pages.fill(PageRec::torn(usize::from(n_sub), n_sub));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oob(lsn: u64) -> Oob {
        Oob { lsn, seq: lsn }
    }

    /// A fresh (erased) page of `n_sub` subpages: its record and its spare
    /// areas.
    fn page(n_sub: usize) -> (PageRec, Vec<Oob>) {
        (PageRec::ERASED, vec![oob(0); n_sub])
    }

    /// Raw read of `slot`.
    fn read(r: &PageRec, s: &[Oob], slot: usize) -> Result<WrittenSubpage, ReadFault> {
        r.read(slot, s[slot])
    }

    fn state(r: &PageRec, s: &[Oob], slot: usize) -> SubpageState {
        r.state(slot, s[slot])
    }

    #[test]
    fn full_program_fills_all_subpages_at_npp0() {
        let (mut r, mut s) = page(4);
        let oobs: Vec<_> = (0..4).map(|i| Some(oob(i))).collect();
        program_full(&mut r, &mut s, &oobs, SimTime::ZERO, 5).unwrap();
        assert_eq!(r.programs(), 1);
        for slot in 0..4 {
            let w = read(&r, &s, slot).unwrap();
            assert_eq!(w.npp, 0);
            assert_eq!(w.oob.unwrap().lsn, slot as u64);
            assert_eq!(w.pe_at_program, 5);
        }
    }

    #[test]
    fn full_program_requires_erased_page() {
        let (mut r, mut s) = page(4);
        program_subpage(&mut r, &mut s, 0, oob(1), SimTime::ZERO, 0).unwrap();
        let oobs = vec![None; 4];
        assert_eq!(
            program_full(&mut r, &mut s, &oobs, SimTime::ZERO, 0),
            Err(NandError::ProgramOnDirtyPage)
        );
    }

    #[test]
    fn full_program_checks_slot_count() {
        let (mut r, mut s) = page(4);
        let err = program_full(&mut r, &mut s, &[None, None], SimTime::ZERO, 0).unwrap_err();
        assert_eq!(
            err,
            NandError::SlotCountMismatch {
                expected: 4,
                got: 2
            }
        );
    }

    #[test]
    fn esp_sequence_assigns_increasing_npp() {
        // Fig 4: sp1 programmed (Npp^0), then sp2 programmed (Npp^1).
        let (mut r, mut s) = page(4);
        program_subpage(&mut r, &mut s, 0, oob(10), SimTime::ZERO, 0).unwrap();
        assert_eq!(read(&r, &s, 0).unwrap().npp, 0);
        let destroyed = program_subpage(&mut r, &mut s, 1, oob(11), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed, 1);
        assert_eq!(state(&r, &s, 0), SubpageState::Destroyed);
        assert_eq!(read(&r, &s, 1).unwrap().npp, 1);
        let d = program_subpage(&mut r, &mut s, 2, oob(12), SimTime::ZERO, 0).unwrap();
        assert_eq!(d, 1);
        assert_eq!(state(&r, &s, 1), SubpageState::Destroyed);
        assert_eq!(read(&r, &s, 2).unwrap().npp, 2);
        let d = program_subpage(&mut r, &mut s, 3, oob(13), SimTime::ZERO, 0).unwrap();
        assert_eq!(d, 1);
        assert_eq!(state(&r, &s, 2), SubpageState::Destroyed);
        assert_eq!(read(&r, &s, 3).unwrap().npp, 3);
    }

    #[test]
    fn program_destroys_previously_programmed_subpage() {
        // Fig 4(b): after sp2's program, sp1 is uncorrectable.
        let (mut r, mut s) = page(2);
        program_subpage(&mut r, &mut s, 0, oob(1), SimTime::ZERO, 0).unwrap();
        program_subpage(&mut r, &mut s, 1, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(read(&r, &s, 0), Err(ReadFault::DestroyedByProgram));
        assert!(read(&r, &s, 1).is_ok());
    }

    #[test]
    fn reprogramming_same_slot_destroys_it() {
        let (mut r, mut s) = page(4);
        program_subpage(&mut r, &mut s, 0, oob(1), SimTime::ZERO, 0).unwrap();
        let destroyed = program_subpage(&mut r, &mut s, 0, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed, 1);
        assert_eq!(read(&r, &s, 0), Err(ReadFault::DestroyedByProgram));
    }

    #[test]
    fn page_accepts_at_most_nsub_programs() {
        let (mut r, mut s) = page(2);
        program_subpage(&mut r, &mut s, 0, oob(1), SimTime::ZERO, 0).unwrap();
        program_subpage(&mut r, &mut s, 1, oob(2), SimTime::ZERO, 0).unwrap();
        assert!(is_exhausted(&r, s.len()));
        assert_eq!(
            program_subpage(&mut r, &mut s, 0, oob(3), SimTime::ZERO, 0),
            Err(NandError::ProgramLimitExceeded)
        );
    }

    #[test]
    fn slot_out_of_range_is_rejected() {
        let (mut r, mut s) = page(2);
        assert_eq!(
            program_subpage(&mut r, &mut s, 2, oob(1), SimTime::ZERO, 0),
            Err(NandError::SlotOutOfRange { slot: 2, n_sub: 2 })
        );
    }

    #[test]
    fn padding_slots_report_padding_on_read() {
        let (mut r, mut s) = page(4);
        let oobs = vec![Some(oob(1)), None, None, None];
        program_full(&mut r, &mut s, &oobs, SimTime::ZERO, 0).unwrap();
        assert!(read(&r, &s, 0).is_ok());
        assert_eq!(read(&r, &s, 1), Err(ReadFault::Padding));
    }

    #[test]
    fn erase_resets_everything() {
        let (mut r, mut s) = page(4);
        program_subpage(&mut r, &mut s, 0, oob(1), SimTime::ZERO, 0).unwrap();
        program_subpage(&mut r, &mut s, 1, oob(2), SimTime::ZERO, 0).unwrap();
        erase(std::slice::from_mut(&mut r));
        assert_eq!(r.programs(), 0);
        assert_eq!(read(&r, &s, 0), Err(ReadFault::NotWritten));
        // A fresh subpage program is possible again, at Npp^0.
        program_subpage(&mut r, &mut s, 2, oob(3), SimTime::ZERO, 0).unwrap();
        assert_eq!(read(&r, &s, 2).unwrap().npp, 0);
    }

    #[test]
    fn torn_subpage_program_tears_target_and_destroys_siblings() {
        // Power loss during the migration program of Fig 7(c): the target
        // slot is unreadable AND the previously-programmed sibling is
        // destroyed — the data exists nowhere on the page afterwards.
        let (mut r, mut s) = page(4);
        program_subpage(&mut r, &mut s, 0, oob(7), SimTime::ZERO, 0).unwrap();
        let destroyed = tear_program_subpage(&mut r, s.len(), 1).unwrap();
        assert_eq!(destroyed, 1);
        assert_eq!(read(&r, &s, 0), Err(ReadFault::DestroyedByProgram));
        assert_eq!(read(&r, &s, 1), Err(ReadFault::Torn));
        assert_eq!(r.programs(), 2);
    }

    #[test]
    fn torn_subpage_program_respects_legality() {
        let (mut r, mut s) = page(2);
        assert_eq!(
            tear_program_subpage(&mut r, s.len(), 2),
            Err(NandError::SlotOutOfRange { slot: 2, n_sub: 2 })
        );
        program_subpage(&mut r, &mut s, 0, oob(1), SimTime::ZERO, 0).unwrap();
        program_subpage(&mut r, &mut s, 1, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(
            tear_program_subpage(&mut r, s.len(), 0),
            Err(NandError::ProgramLimitExceeded)
        );
    }

    #[test]
    fn torn_full_program_tears_every_slot() {
        let (mut r, s) = page(4);
        tear_program_full(&mut r, s.len()).unwrap();
        for slot in 0..s.len() {
            assert_eq!(read(&r, &s, slot), Err(ReadFault::Torn));
        }
        assert_eq!(r.programs(), 1);
        assert_eq!(
            tear_program_full(&mut r, s.len()),
            Err(NandError::ProgramOnDirtyPage)
        );
    }

    #[test]
    fn erase_recovers_a_torn_page() {
        let (mut r, mut s) = page(4);
        program_subpage(&mut r, &mut s, 0, oob(1), SimTime::ZERO, 0).unwrap();
        tear_program_subpage(&mut r, s.len(), 1).unwrap();
        erase(std::slice::from_mut(&mut r));
        assert_eq!(r.programs(), 0);
        program_subpage(&mut r, &mut s, 0, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(read(&r, &s, 0).unwrap().oob.unwrap().lsn, 2);
    }

    #[test]
    fn full_then_subpage_program_destroys_all_valid_data() {
        // A full-page program followed by a subpage program is the worst
        // ESP-discipline violation: three slots destroyed, target slot too.
        let (mut r, mut s) = page(4);
        let oobs: Vec<_> = (0..4).map(|i| Some(oob(i))).collect();
        program_full(&mut r, &mut s, &oobs, SimTime::ZERO, 0).unwrap();
        let destroyed = program_subpage(&mut r, &mut s, 1, oob(9), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed, 4);
        for slot in 0..s.len() {
            assert_eq!(read(&r, &s, slot), Err(ReadFault::DestroyedByProgram));
        }
    }
}
