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

/// One physical page: `N_sub` subpages plus a program counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    subpages: Vec<SubpageState>,
    programs: u8,
}

impl Page {
    /// A fresh (erased) page with `n_sub` subpages.
    #[must_use]
    pub fn new(n_sub: u32) -> Self {
        Page {
            subpages: vec![SubpageState::Erased; n_sub as usize],
            programs: 0,
        }
    }

    /// Number of subpages.
    #[must_use]
    pub fn subpage_count(&self) -> u32 {
        self.subpages.len() as u32
    }

    /// Number of program operations since the last erase.
    #[must_use]
    pub fn program_count(&self) -> u8 {
        self.programs
    }

    /// True if the page has never been programmed since the last erase.
    #[must_use]
    pub fn is_erased(&self) -> bool {
        self.programs == 0
    }

    /// True if no further program operation is allowed before an erase
    /// (the page has been programmed `N_sub` times).
    #[must_use]
    fn is_exhausted(&self) -> bool {
        u32::from(self.programs) >= self.subpage_count()
    }

    /// State of the subpage at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn subpage(&self, slot: u8) -> &SubpageState {
        &self.subpages[slot as usize]
    }

    /// Iterates over `(slot, state)` pairs.
    pub fn subpages(&self) -> impl Iterator<Item = (u8, &SubpageState)> {
        self.subpages.iter().enumerate().map(|(i, s)| (i as u8, s))
    }

    /// Programs the whole page in one operation (the conventional path).
    ///
    /// `oobs` supplies one spare-area entry per subpage; `None` entries are
    /// padding (space wasted by internal fragmentation in CGM/FGM FTLs).
    ///
    /// # Errors
    ///
    /// * [`NandError::ProgramOnDirtyPage`] if the page has been programmed
    ///   since the last erase — full-page programs require an erased page.
    /// * [`NandError::SlotCountMismatch`] if `oobs.len() != N_sub`.
    pub fn program_full(
        &mut self,
        oobs: &[Option<Oob>],
        now: SimTime,
        pe_cycles: u32,
    ) -> Result<(), NandError> {
        if oobs.len() != self.subpages.len() {
            return Err(NandError::SlotCountMismatch {
                expected: self.subpages.len() as u32,
                got: oobs.len() as u32,
            });
        }
        if !self.is_erased() {
            return Err(NandError::ProgramOnDirtyPage);
        }
        for (state, oob) in self.subpages.iter_mut().zip(oobs) {
            *state = SubpageState::Written(WrittenSubpage {
                oob: *oob,
                npp: 0,
                programmed_at: now,
                pe_at_program: pe_cycles,
            });
        }
        self.programs = 1;
        Ok(())
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
    /// The subpage becomes an `Npp^k` type where `k` is the number of
    /// program operations the page had seen before this one.
    ///
    /// # Errors
    ///
    /// * [`NandError::ProgramLimitExceeded`] if the page has already been
    ///   programmed `N_sub` times since the last erase.
    /// * [`NandError::SlotOutOfRange`] if `slot >= N_sub`.
    ///
    /// Returns the list of slots whose data was destroyed as a side effect,
    /// so callers (and tests) can observe the corruption.
    pub fn program_subpage(
        &mut self,
        slot: u8,
        oob: Oob,
        now: SimTime,
        pe_cycles: u32,
    ) -> Result<Vec<u8>, NandError> {
        if usize::from(slot) >= self.subpages.len() {
            return Err(NandError::SlotOutOfRange {
                slot,
                n_sub: self.subpages.len() as u32,
            });
        }
        if self.is_exhausted() {
            return Err(NandError::ProgramLimitExceeded);
        }
        let npp = self.programs;
        let mut destroyed = Vec::new();
        let target_was_programmed = !matches!(self.subpages[slot as usize], SubpageState::Erased);
        for (i, state) in self.subpages.iter_mut().enumerate() {
            if i != usize::from(slot) {
                if let SubpageState::Written(_) = state {
                    *state = SubpageState::Destroyed;
                    destroyed.push(i as u8);
                }
            }
        }
        self.subpages[slot as usize] = if target_was_programmed {
            destroyed.push(slot);
            SubpageState::Destroyed
        } else {
            SubpageState::Written(WrittenSubpage {
                oob: Some(oob),
                npp,
                programmed_at: now,
                pe_at_program: pe_cycles,
            })
        };
        self.programs += 1;
        Ok(destroyed)
    }

    /// Raw read of the subpage at `slot` — the ECC/retention judgment is the
    /// device's job (it owns the retention model and the clock).
    ///
    /// # Errors
    ///
    /// * [`ReadFault::NotWritten`] if the slot is erased.
    /// * [`ReadFault::Padding`] if the slot was programmed as padding.
    /// * [`ReadFault::DestroyedByProgram`] if a later program on the page
    ///   corrupted it.
    /// * [`ReadFault::Torn`] if a program or erase was cut mid-operation.
    pub fn read_subpage(&self, slot: u8) -> Result<&WrittenSubpage, ReadFault> {
        match &self.subpages[usize::from(slot)] {
            SubpageState::Erased => Err(ReadFault::NotWritten),
            SubpageState::Destroyed => Err(ReadFault::DestroyedByProgram),
            SubpageState::Torn => Err(ReadFault::Torn),
            SubpageState::Written(w) => {
                if w.oob.is_none() {
                    Err(ReadFault::Padding)
                } else {
                    Ok(w)
                }
            }
        }
    }

    /// Marks the subpage at `slot` as destroyed (used by the device when a
    /// program operation reports status fail: the pulse ran, so the target
    /// holds garbage rather than data).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub(crate) fn destroy_subpage(&mut self, slot: u8) {
        self.subpages[usize::from(slot)] = SubpageState::Destroyed;
    }

    /// A full-page program cut by power loss mid-pulse: every subpage holds
    /// a partial charge pattern and reads back uncorrectable. Legality
    /// mirrors [`Page::program_full`] (the command was accepted; only its
    /// completion was interrupted).
    ///
    /// # Errors
    ///
    /// * [`NandError::ProgramOnDirtyPage`] if the page is not erased.
    pub fn tear_program_full(&mut self) -> Result<(), NandError> {
        if !self.is_erased() {
            return Err(NandError::ProgramOnDirtyPage);
        }
        for s in &mut self.subpages {
            *s = SubpageState::Torn;
        }
        self.programs = 1;
        Ok(())
    }

    /// A subpage program cut by power loss mid-pulse. The target slot is
    /// torn, and — exactly as for a completed program — every other subpage
    /// of the page that held data is destroyed (the Fig 4(b) disturbance
    /// comes from the program pulses, which did run before the cut).
    /// Legality mirrors [`Page::program_subpage`].
    ///
    /// Returns the slots whose data was destroyed as a side effect.
    ///
    /// # Errors
    ///
    /// * [`NandError::ProgramLimitExceeded`] if the page is exhausted.
    /// * [`NandError::SlotOutOfRange`] if `slot >= N_sub`.
    pub fn tear_program_subpage(&mut self, slot: u8) -> Result<Vec<u8>, NandError> {
        if usize::from(slot) >= self.subpages.len() {
            return Err(NandError::SlotOutOfRange {
                slot,
                n_sub: self.subpages.len() as u32,
            });
        }
        if self.is_exhausted() {
            return Err(NandError::ProgramLimitExceeded);
        }
        let mut destroyed = Vec::new();
        for (i, state) in self.subpages.iter_mut().enumerate() {
            if i != usize::from(slot) {
                if let SubpageState::Written(_) = state {
                    *state = SubpageState::Destroyed;
                    destroyed.push(i as u8);
                }
            }
        }
        self.subpages[slot as usize] = SubpageState::Torn;
        self.programs += 1;
        Ok(destroyed)
    }

    /// An erase cut by power loss mid-operation: the partial erase leaves
    /// every subpage in an indeterminate, uncorrectable state. The page is
    /// marked exhausted so no program can target it until a completed erase
    /// resets it.
    pub(crate) fn tear_all(&mut self) {
        for s in &mut self.subpages {
            *s = SubpageState::Torn;
        }
        self.programs = self.subpages.len() as u8;
    }

    /// Resets the page to the erased state.
    pub fn erase(&mut self) {
        for s in &mut self.subpages {
            *s = SubpageState::Erased;
        }
        self.programs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oob(lsn: u64) -> Oob {
        Oob { lsn, seq: lsn }
    }

    #[test]
    fn full_program_fills_all_subpages_at_npp0() {
        let mut p = Page::new(4);
        let oobs: Vec<_> = (0..4).map(|i| Some(oob(i))).collect();
        p.program_full(&oobs, SimTime::ZERO, 5).unwrap();
        assert_eq!(p.program_count(), 1);
        for slot in 0..4 {
            let w = p.read_subpage(slot).unwrap();
            assert_eq!(w.npp, 0);
            assert_eq!(w.oob.unwrap().lsn, u64::from(slot));
            assert_eq!(w.pe_at_program, 5);
        }
    }

    #[test]
    fn full_program_requires_erased_page() {
        let mut p = Page::new(4);
        p.program_subpage(0, oob(1), SimTime::ZERO, 0).unwrap();
        let oobs = vec![None; 4];
        assert_eq!(
            p.program_full(&oobs, SimTime::ZERO, 0),
            Err(NandError::ProgramOnDirtyPage)
        );
    }

    #[test]
    fn full_program_checks_slot_count() {
        let mut p = Page::new(4);
        let err = p.program_full(&[None, None], SimTime::ZERO, 0).unwrap_err();
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
        let mut p = Page::new(4);
        p.program_subpage(0, oob(10), SimTime::ZERO, 0).unwrap();
        assert_eq!(p.read_subpage(0).unwrap().npp, 0);
        let destroyed = p.program_subpage(1, oob(11), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed, vec![0]);
        assert_eq!(p.read_subpage(1).unwrap().npp, 1);
        let d = p.program_subpage(2, oob(12), SimTime::ZERO, 0).unwrap();
        assert_eq!(d, vec![1]);
        assert_eq!(p.read_subpage(2).unwrap().npp, 2);
        let d = p.program_subpage(3, oob(13), SimTime::ZERO, 0).unwrap();
        assert_eq!(d, vec![2]);
        assert_eq!(p.read_subpage(3).unwrap().npp, 3);
    }

    #[test]
    fn program_destroys_previously_programmed_subpage() {
        // Fig 4(b): after sp2's program, sp1 is uncorrectable.
        let mut p = Page::new(2);
        p.program_subpage(0, oob(1), SimTime::ZERO, 0).unwrap();
        p.program_subpage(1, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(p.read_subpage(0), Err(ReadFault::DestroyedByProgram));
        assert!(p.read_subpage(1).is_ok());
    }

    #[test]
    fn reprogramming_same_slot_destroys_it() {
        let mut p = Page::new(4);
        p.program_subpage(0, oob(1), SimTime::ZERO, 0).unwrap();
        let destroyed = p.program_subpage(0, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed, vec![0]);
        assert_eq!(p.read_subpage(0), Err(ReadFault::DestroyedByProgram));
    }

    #[test]
    fn page_accepts_at_most_nsub_programs() {
        let mut p = Page::new(2);
        p.program_subpage(0, oob(1), SimTime::ZERO, 0).unwrap();
        p.program_subpage(1, oob(2), SimTime::ZERO, 0).unwrap();
        assert!(p.is_exhausted());
        assert_eq!(
            p.program_subpage(0, oob(3), SimTime::ZERO, 0),
            Err(NandError::ProgramLimitExceeded)
        );
    }

    #[test]
    fn slot_out_of_range_is_rejected() {
        let mut p = Page::new(2);
        assert_eq!(
            p.program_subpage(2, oob(1), SimTime::ZERO, 0),
            Err(NandError::SlotOutOfRange { slot: 2, n_sub: 2 })
        );
    }

    #[test]
    fn padding_slots_report_padding_on_read() {
        let mut p = Page::new(4);
        let oobs = vec![Some(oob(1)), None, None, None];
        p.program_full(&oobs, SimTime::ZERO, 0).unwrap();
        assert!(p.read_subpage(0).is_ok());
        assert_eq!(p.read_subpage(1), Err(ReadFault::Padding));
    }

    #[test]
    fn erase_resets_everything() {
        let mut p = Page::new(4);
        p.program_subpage(0, oob(1), SimTime::ZERO, 0).unwrap();
        p.program_subpage(1, oob(2), SimTime::ZERO, 0).unwrap();
        p.erase();
        assert!(p.is_erased());
        assert_eq!(p.read_subpage(0), Err(ReadFault::NotWritten));
        // A fresh subpage program is possible again, at Npp^0.
        p.program_subpage(2, oob(3), SimTime::ZERO, 0).unwrap();
        assert_eq!(p.read_subpage(2).unwrap().npp, 0);
    }

    #[test]
    fn torn_subpage_program_tears_target_and_destroys_siblings() {
        // Power loss during the migration program of Fig 7(c): the target
        // slot is unreadable AND the previously-programmed sibling is
        // destroyed — the data exists nowhere on the page afterwards.
        let mut p = Page::new(4);
        p.program_subpage(0, oob(7), SimTime::ZERO, 0).unwrap();
        let destroyed = p.tear_program_subpage(1).unwrap();
        assert_eq!(destroyed, vec![0]);
        assert_eq!(p.read_subpage(0), Err(ReadFault::DestroyedByProgram));
        assert_eq!(p.read_subpage(1), Err(ReadFault::Torn));
        assert_eq!(p.program_count(), 2);
    }

    #[test]
    fn torn_subpage_program_respects_legality() {
        let mut p = Page::new(2);
        assert_eq!(
            p.tear_program_subpage(2),
            Err(NandError::SlotOutOfRange { slot: 2, n_sub: 2 })
        );
        p.program_subpage(0, oob(1), SimTime::ZERO, 0).unwrap();
        p.program_subpage(1, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(
            p.tear_program_subpage(0),
            Err(NandError::ProgramLimitExceeded)
        );
    }

    #[test]
    fn torn_full_program_tears_every_slot() {
        let mut p = Page::new(4);
        p.tear_program_full().unwrap();
        for slot in 0..4 {
            assert_eq!(p.read_subpage(slot), Err(ReadFault::Torn));
        }
        assert_eq!(p.program_count(), 1);
        assert_eq!(p.tear_program_full(), Err(NandError::ProgramOnDirtyPage));
    }

    #[test]
    fn erase_recovers_a_torn_page() {
        let mut p = Page::new(4);
        p.program_subpage(0, oob(1), SimTime::ZERO, 0).unwrap();
        p.tear_program_subpage(1).unwrap();
        p.erase();
        assert!(p.is_erased());
        p.program_subpage(0, oob(2), SimTime::ZERO, 0).unwrap();
        assert_eq!(p.read_subpage(0).unwrap().oob.unwrap().lsn, 2);
    }

    #[test]
    fn full_then_subpage_program_destroys_all_valid_data() {
        // A full-page program followed by a subpage program is the worst
        // ESP-discipline violation: three slots destroyed, target slot too.
        let mut p = Page::new(4);
        let oobs: Vec<_> = (0..4).map(|i| Some(oob(i))).collect();
        p.program_full(&oobs, SimTime::ZERO, 0).unwrap();
        let destroyed = p.program_subpage(1, oob(9), SimTime::ZERO, 0).unwrap();
        assert_eq!(destroyed.len(), 4);
        for slot in 0..4 {
            assert_eq!(p.read_subpage(slot), Err(ReadFault::DestroyedByProgram));
        }
    }
}
