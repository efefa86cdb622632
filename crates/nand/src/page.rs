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
//! The device keeps one [`Subpage`] record per subpage in one device-wide
//! array and one program count per page; the rules here are functions over
//! one page's slice of records and its count.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Erased,
    Data,
    Padding,
    Destroyed,
    Torn,
}

/// One subpage as the device stores it. The program-time fields mean
/// something only for [`Kind::Data`] (all of them) and [`Kind::Padding`]
/// (all but `lsn` and `seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Subpage {
    lsn: u64,
    seq: u64,
    programmed_at: SimTime,
    pe_at_program: u32,
    npp: u8,
    kind: Kind,
}

// The device holds one record per subpage: 32 MiB per million subpages.
const _: () = assert!(std::mem::size_of::<Subpage>() == 32);

impl Subpage {
    /// An erased subpage.
    pub(crate) const ERASED: Subpage = Subpage::blank(Kind::Erased);
    /// A subpage whose program or erase was cut mid-pulse.
    const TORN: Subpage = Subpage::blank(Kind::Torn);

    const fn blank(kind: Kind) -> Self {
        Subpage {
            lsn: 0,
            seq: 0,
            programmed_at: SimTime::ZERO,
            pe_at_program: 0,
            npp: 0,
            kind,
        }
    }

    /// A programmed subpage: data if `oob` is `Some`, padding otherwise.
    fn programmed(oob: Option<Oob>, npp: u8, now: SimTime, pe_cycles: u32) -> Self {
        let (kind, Oob { lsn, seq }) = match oob {
            Some(o) => (Kind::Data, o),
            None => (Kind::Padding, Oob { lsn: 0, seq: 0 }),
        };
        Subpage {
            lsn,
            seq,
            programmed_at: now,
            pe_at_program: pe_cycles,
            npp,
            kind,
        }
    }

    /// True if the subpage was programmed (data or padding) and not
    /// destroyed since.
    fn is_written(&self) -> bool {
        matches!(self.kind, Kind::Data | Kind::Padding)
    }

    fn written(&self) -> WrittenSubpage {
        WrittenSubpage {
            oob: (self.kind == Kind::Data).then_some(Oob {
                lsn: self.lsn,
                seq: self.seq,
            }),
            npp: self.npp,
            programmed_at: self.programmed_at,
            pe_at_program: self.pe_at_program,
        }
    }

    /// The subpage's raw state.
    pub(crate) fn state(&self) -> SubpageState {
        match self.kind {
            Kind::Erased => SubpageState::Erased,
            Kind::Data | Kind::Padding => SubpageState::Written(self.written()),
            Kind::Destroyed => SubpageState::Destroyed,
            Kind::Torn => SubpageState::Torn,
        }
    }

    /// Raw read — the ECC/retention judgment is the device's job (it owns
    /// the retention model and the clock).
    ///
    /// # Errors
    ///
    /// * [`ReadFault::NotWritten`] if the subpage is erased.
    /// * [`ReadFault::Padding`] if it was programmed as padding.
    /// * [`ReadFault::DestroyedByProgram`] if a later program on the page
    ///   corrupted it.
    /// * [`ReadFault::Torn`] if a program or erase was cut mid-operation.
    pub(crate) fn read(&self) -> Result<WrittenSubpage, ReadFault> {
        match self.kind {
            Kind::Erased => Err(ReadFault::NotWritten),
            Kind::Data => Ok(self.written()),
            Kind::Padding => Err(ReadFault::Padding),
            Kind::Destroyed => Err(ReadFault::DestroyedByProgram),
            Kind::Torn => Err(ReadFault::Torn),
        }
    }

    /// Marks the subpage destroyed: by a later program pulse on its page
    /// (Fig 4(b)), or by a program of its own that reported status fail
    /// (the pulse ran, so it holds garbage rather than data).
    pub(crate) fn destroy(&mut self) {
        self.kind = Kind::Destroyed;
    }
}

/// True if no further program operation is allowed before an erase (the
/// page has been programmed `N_sub` times).
fn is_exhausted(page: &[Subpage], programs: u8) -> bool {
    usize::from(programs) >= page.len()
}

/// Programs the whole page in one operation (the conventional path).
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
    page: &mut [Subpage],
    programs: &mut u8,
    oobs: &[Option<Oob>],
    now: SimTime,
    pe_cycles: u32,
) -> Result<(), NandError> {
    if oobs.len() != page.len() {
        return Err(NandError::SlotCountMismatch {
            expected: page.len() as u32,
            got: oobs.len() as u32,
        });
    }
    if *programs != 0 {
        return Err(NandError::ProgramOnDirtyPage);
    }
    for (s, oob) in page.iter_mut().zip(oobs) {
        *s = Subpage::programmed(*oob, 0, now, pe_cycles);
    }
    *programs = 1;
    Ok(())
}

/// The legality checks shared by a subpage program and its torn twin;
/// returns the slot's index into `page`.
fn subpage_target(page: &[Subpage], programs: u8, slot: u8) -> Result<usize, NandError> {
    if usize::from(slot) >= page.len() {
        return Err(NandError::SlotOutOfRange {
            slot,
            n_sub: page.len() as u32,
        });
    }
    if is_exhausted(page, programs) {
        return Err(NandError::ProgramLimitExceeded);
    }
    Ok(usize::from(slot))
}

/// Destroys every written subpage of `page` but `target` (the Fig 4(b)
/// disturbance of one program pulse) and returns how many there were.
fn destroy_siblings(page: &mut [Subpage], target: usize) -> u32 {
    let mut destroyed = 0;
    for (i, s) in page.iter_mut().enumerate() {
        if i != target && s.is_written() {
            s.destroy();
            destroyed += 1;
        }
    }
    destroyed
}

/// Programs a single subpage via SBPI bit-line selection (the ESP path).
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
    page: &mut [Subpage],
    programs: &mut u8,
    slot: u8,
    oob: Oob,
    now: SimTime,
    pe_cycles: u32,
) -> Result<u32, NandError> {
    let target = subpage_target(page, *programs, slot)?;
    let mut destroyed = destroy_siblings(page, target);
    if page[target].kind == Kind::Erased {
        page[target] = Subpage::programmed(Some(oob), *programs, now, pe_cycles);
    } else {
        page[target].destroy();
        destroyed += 1;
    }
    *programs += 1;
    Ok(destroyed)
}

/// A full-page program cut by power loss mid-pulse: every subpage holds a
/// partial charge pattern and reads back uncorrectable. Legality mirrors
/// [`program_full`] (the command was accepted; only its completion was
/// interrupted).
///
/// # Errors
///
/// * [`NandError::ProgramOnDirtyPage`] if the page is not erased.
pub(crate) fn tear_program_full(page: &mut [Subpage], programs: &mut u8) -> Result<(), NandError> {
    if *programs != 0 {
        return Err(NandError::ProgramOnDirtyPage);
    }
    page.fill(Subpage::TORN);
    *programs = 1;
    Ok(())
}

/// A subpage program cut by power loss mid-pulse. The target slot is torn,
/// and — exactly as for a completed program — every other subpage of the
/// page that held data is destroyed (the Fig 4(b) disturbance comes from
/// the program pulses, which did run before the cut). Legality mirrors
/// [`program_subpage`].
///
/// Returns how many slots' data was destroyed as a side effect.
///
/// # Errors
///
/// * [`NandError::SlotOutOfRange`] if `slot >= N_sub`.
/// * [`NandError::ProgramLimitExceeded`] if the page is exhausted.
pub(crate) fn tear_program_subpage(
    page: &mut [Subpage],
    programs: &mut u8,
    slot: u8,
) -> Result<u32, NandError> {
    let target = subpage_target(page, *programs, slot)?;
    let destroyed = destroy_siblings(page, target);
    page[target] = Subpage::TORN;
    *programs += 1;
    Ok(destroyed)
}

/// Resets pages to the erased state: `subpages` holds their records and
/// `programs` their counts (one page, or a whole block).
pub(crate) fn erase(subpages: &mut [Subpage], programs: &mut [u8]) {
    subpages.fill(Subpage::ERASED);
    programs.fill(0);
}

/// An erase cut by power loss mid-operation: the partial erase leaves
/// every subpage in an indeterminate, uncorrectable state. Each page is
/// marked exhausted (`n_sub` programs) so no program can target it until a
/// completed erase resets it.
pub(crate) fn tear_erase(subpages: &mut [Subpage], programs: &mut [u8], n_sub: u8) {
    subpages.fill(Subpage::TORN);
    programs.fill(n_sub);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oob(lsn: u64) -> Oob {
        Oob { lsn, seq: lsn }
    }

    /// A fresh (erased) page of `n_sub` subpages and its program count.
    fn page(n_sub: usize) -> (Vec<Subpage>, u8) {
        (vec![Subpage::ERASED; n_sub], 0)
    }

    #[test]
    fn full_program_fills_all_subpages_at_npp0() {
        let (mut p, mut n) = page(4);
        let oobs: Vec<_> = (0..4).map(|i| Some(oob(i))).collect();
        program_full(&mut p, &mut n, &oobs, SimTime::ZERO, 5).unwrap();
        assert_eq!(n, 1);
        for (slot, s) in p.iter().enumerate() {
            let w = s.read().unwrap();
            assert_eq!(w.npp, 0);
            assert_eq!(w.oob.unwrap().lsn, slot as u64);
            assert_eq!(w.pe_at_program, 5);
        }
    }

    #[test]
    fn full_program_requires_erased_page() {
        let (mut p, mut n) = page(4);
        program_subpage(&mut p, &mut n, 0, oob(1), SimTime::ZERO, 0).unwrap();
        let oobs = vec![None; 4];
        assert_eq!(
            program_full(&mut p, &mut n, &oobs, SimTime::ZERO, 0),
            Err(NandError::ProgramOnDirtyPage)
        );
    }

    #[test]
    fn full_program_checks_slot_count() {
        let (mut p, mut n) = page(4);
        let err = program_full(&mut p, &mut n, &[None, None], SimTime::ZERO, 0).unwrap_err();
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
        let (mut p, mut n) = page(4);
        program_subpage(&mut p, &mut n, 0, oob(10), SimTime::ZERO, 0).unwrap();
        assert_eq!(p[0].read().unwrap().npp, 0);
        let destroyed = program_subpage(&mut p, &mut n, 1, oob(11), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed, 1);
        assert_eq!(p[0].state(), SubpageState::Destroyed);
        assert_eq!(p[1].read().unwrap().npp, 1);
        let d = program_subpage(&mut p, &mut n, 2, oob(12), SimTime::ZERO, 0).unwrap();
        assert_eq!(d, 1);
        assert_eq!(p[1].state(), SubpageState::Destroyed);
        assert_eq!(p[2].read().unwrap().npp, 2);
        let d = program_subpage(&mut p, &mut n, 3, oob(13), SimTime::ZERO, 0).unwrap();
        assert_eq!(d, 1);
        assert_eq!(p[2].state(), SubpageState::Destroyed);
        assert_eq!(p[3].read().unwrap().npp, 3);
    }

    #[test]
    fn program_destroys_previously_programmed_subpage() {
        // Fig 4(b): after sp2's program, sp1 is uncorrectable.
        let (mut p, mut n) = page(2);
        program_subpage(&mut p, &mut n, 0, oob(1), SimTime::ZERO, 0).unwrap();
        program_subpage(&mut p, &mut n, 1, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(p[0].read(), Err(ReadFault::DestroyedByProgram));
        assert!(p[1].read().is_ok());
    }

    #[test]
    fn reprogramming_same_slot_destroys_it() {
        let (mut p, mut n) = page(4);
        program_subpage(&mut p, &mut n, 0, oob(1), SimTime::ZERO, 0).unwrap();
        let destroyed = program_subpage(&mut p, &mut n, 0, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed, 1);
        assert_eq!(p[0].read(), Err(ReadFault::DestroyedByProgram));
    }

    #[test]
    fn page_accepts_at_most_nsub_programs() {
        let (mut p, mut n) = page(2);
        program_subpage(&mut p, &mut n, 0, oob(1), SimTime::ZERO, 0).unwrap();
        program_subpage(&mut p, &mut n, 1, oob(2), SimTime::ZERO, 0).unwrap();
        assert!(is_exhausted(&p, n));
        assert_eq!(
            program_subpage(&mut p, &mut n, 0, oob(3), SimTime::ZERO, 0),
            Err(NandError::ProgramLimitExceeded)
        );
    }

    #[test]
    fn slot_out_of_range_is_rejected() {
        let (mut p, mut n) = page(2);
        assert_eq!(
            program_subpage(&mut p, &mut n, 2, oob(1), SimTime::ZERO, 0),
            Err(NandError::SlotOutOfRange { slot: 2, n_sub: 2 })
        );
    }

    #[test]
    fn padding_slots_report_padding_on_read() {
        let (mut p, mut n) = page(4);
        let oobs = vec![Some(oob(1)), None, None, None];
        program_full(&mut p, &mut n, &oobs, SimTime::ZERO, 0).unwrap();
        assert!(p[0].read().is_ok());
        assert_eq!(p[1].read(), Err(ReadFault::Padding));
    }

    #[test]
    fn erase_resets_everything() {
        let (mut p, mut n) = page(4);
        program_subpage(&mut p, &mut n, 0, oob(1), SimTime::ZERO, 0).unwrap();
        program_subpage(&mut p, &mut n, 1, oob(2), SimTime::ZERO, 0).unwrap();
        erase(&mut p, std::slice::from_mut(&mut n));
        assert_eq!(n, 0);
        assert_eq!(p[0].read(), Err(ReadFault::NotWritten));
        // A fresh subpage program is possible again, at Npp^0.
        program_subpage(&mut p, &mut n, 2, oob(3), SimTime::ZERO, 0).unwrap();
        assert_eq!(p[2].read().unwrap().npp, 0);
    }

    #[test]
    fn torn_subpage_program_tears_target_and_destroys_siblings() {
        // Power loss during the migration program of Fig 7(c): the target
        // slot is unreadable AND the previously-programmed sibling is
        // destroyed — the data exists nowhere on the page afterwards.
        let (mut p, mut n) = page(4);
        program_subpage(&mut p, &mut n, 0, oob(7), SimTime::ZERO, 0).unwrap();
        let destroyed = tear_program_subpage(&mut p, &mut n, 1).unwrap();
        assert_eq!(destroyed, 1);
        assert_eq!(p[0].read(), Err(ReadFault::DestroyedByProgram));
        assert_eq!(p[1].read(), Err(ReadFault::Torn));
        assert_eq!(n, 2);
    }

    #[test]
    fn torn_subpage_program_respects_legality() {
        let (mut p, mut n) = page(2);
        assert_eq!(
            tear_program_subpage(&mut p, &mut n, 2),
            Err(NandError::SlotOutOfRange { slot: 2, n_sub: 2 })
        );
        program_subpage(&mut p, &mut n, 0, oob(1), SimTime::ZERO, 0).unwrap();
        program_subpage(&mut p, &mut n, 1, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(
            tear_program_subpage(&mut p, &mut n, 0),
            Err(NandError::ProgramLimitExceeded)
        );
    }

    #[test]
    fn torn_full_program_tears_every_slot() {
        let (mut p, mut n) = page(4);
        tear_program_full(&mut p, &mut n).unwrap();
        for s in &p {
            assert_eq!(s.read(), Err(ReadFault::Torn));
        }
        assert_eq!(n, 1);
        assert_eq!(
            tear_program_full(&mut p, &mut n),
            Err(NandError::ProgramOnDirtyPage)
        );
    }

    #[test]
    fn erase_recovers_a_torn_page() {
        let (mut p, mut n) = page(4);
        program_subpage(&mut p, &mut n, 0, oob(1), SimTime::ZERO, 0).unwrap();
        tear_program_subpage(&mut p, &mut n, 1).unwrap();
        erase(&mut p, std::slice::from_mut(&mut n));
        assert_eq!(n, 0);
        program_subpage(&mut p, &mut n, 0, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(p[0].read().unwrap().oob.unwrap().lsn, 2);
    }

    #[test]
    fn full_then_subpage_program_destroys_all_valid_data() {
        // A full-page program followed by a subpage program is the worst
        // ESP-discipline violation: three slots destroyed, target slot too.
        let (mut p, mut n) = page(4);
        let oobs: Vec<_> = (0..4).map(|i| Some(oob(i))).collect();
        program_full(&mut p, &mut n, &oobs, SimTime::ZERO, 0).unwrap();
        let destroyed = program_subpage(&mut p, &mut n, 1, oob(9), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed, 4);
        for s in &p {
            assert_eq!(s.read(), Err(ReadFault::DestroyedByProgram));
        }
    }
}
