//! Subpage-aware NAND retention model (paper §3.3, Fig 5).
//!
//! The paper characterizes 81,920 pages of 2x-nm TLC NAND and finds that the
//! *retention bit-error rate* of a subpage depends on how many program
//! operations the containing page had experienced **before** that subpage was
//! programmed. A subpage programmed after `k` earlier programs is an
//! `Npp^k`-type subpage; right after 1K P/E cycles an `Npp^3` subpage shows a
//! retention BER ~41 % above an `Npp^0` subpage, and while `Npp^3` satisfies
//! a 1-month retention requirement it fails at 2 months.
//!
//! This module is the behavioural substitute for those chip measurements: a
//! closed-form parametric model of the *normalized* retention BER
//!
//! ```text
//! ber(pe, k, t) = pe_factor(pe) · npp_factor(k) · (1 + slope(k) · t^0.9)
//! ```
//!
//! normalized so that `ber(1000 P/E, Npp^0, 0) = 1.0` (the "endurance BER").
//! The default calibration anchors the shape of Fig 5:
//!
//! * `npp_factor(3) = 1.41` (the paper's +41 %),
//! * `Npp^3` crosses the ECC limit between month 1 and month 2,
//! * `Npp^0` retains data for well over 12 months (the JEDEC
//!   commercial-grade requirement the paper cites),
//! * higher `k` degrades faster with time (slope grows with `k`).

use esp_sim::SimDuration;

/// Parametric subpage-aware retention-BER model.
///
/// All BER values are *normalized* to the endurance BER (the retention BER
/// of an `Npp^0` subpage right after [`RetentionModel::reference_pe_cycles`]
/// P/E cycles, at zero retention time), exactly as in Fig 5 of the paper.
///
/// # Examples
///
/// ```
/// use esp_nand::RetentionModel;
/// use esp_sim::SimDuration;
///
/// let m = RetentionModel::paper_default();
/// // An Npp^3 subpage survives 1 month but not 2 (paper Fig 5):
/// let pe = m.reference_pe_cycles();
/// assert!(m.normalized_ber(pe, 3, SimDuration::from_months(1)) <= m.ecc_limit());
/// assert!(m.normalized_ber(pe, 3, SimDuration::from_months(2)) > m.ecc_limit());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionModel {
    /// Normalized BER the ECC engine can still correct.
    ecc_limit: f64,
    /// P/E cycle count at which the model is normalized (the paper: 1000).
    reference_pe: u32,
    /// Multiplier on BER at zero P/E cycles (fresh cells are cleaner).
    fresh_factor: f64,
    /// Extra BER factor at `Npp^(N_sub-1)` relative to `Npp^0`
    /// (the paper: 0.41).
    npp_max_uplift: f64,
    /// Shape exponent of the `Npp` uplift curve.
    npp_shape: f64,
    /// Time-degradation slope at `Npp^0` (per month^0.9).
    slope_base: f64,
    /// Additional slope at `Npp^(N_sub-1)`.
    slope_max_uplift: f64,
    /// Exponent of the time term (months^time_exp).
    time_exp: f64,
    /// The `Npp` index the uplift anchors refer to (`N_sub - 1`; 3 for the
    /// paper's 4-subpage pages).
    npp_anchor: u32,
    /// Page-to-page process variation: each block's BER is scaled by a
    /// deterministic factor in `[1 - variation, 1 + variation]` (Fig 5
    /// reports min/avg/max across 81,920 measured pages). Zero by default
    /// so the closed-form model is exact; the Fig 5 characterization
    /// harness enables it.
    variation: f64,
    /// Additive normalized-BER contribution of each cell sense on a block
    /// since its last erase (read disturb; Cai et al.). Zero by default so
    /// baseline runs are unaffected; an erase resets the accumulation.
    read_disturb_per_read: f64,
}

impl RetentionModel {
    /// The calibration used throughout the reproduction (see module docs).
    #[must_use]
    pub fn paper_default() -> Self {
        RetentionModel {
            ecc_limit: 2.4,
            reference_pe: 1000,
            fresh_factor: 0.25,
            npp_max_uplift: 0.41,
            npp_shape: 0.85,
            slope_base: 0.10,
            slope_max_uplift: 0.46,
            time_exp: 0.9,
            npp_anchor: 3,
            variation: 0.0,
            read_disturb_per_read: 0.0,
        }
    }

    /// Overrides the normalized ECC limit (see [`crate::EccConfig`], which
    /// derives limits from codeword size and correction strength).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not positive.
    #[must_use]
    pub fn with_ecc_limit(mut self, limit: f64) -> Self {
        assert!(limit > 0.0, "ecc limit must be positive");
        self.ecc_limit = limit;
        self
    }

    /// Enables page-to-page process variation: per-block BER scale factors
    /// spread uniformly within `±spread` (deterministically derived from
    /// the block index). Fig 5's min/avg/max bars use 0.08.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is not within `[0, 0.5]`.
    #[must_use]
    pub fn with_variation(mut self, spread: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&spread),
            "variation must be in [0, 0.5]"
        );
        self.variation = spread;
        self
    }

    /// Enables read-disturb modeling: every cell sense of a block adds
    /// `per_read` to the normalized BER of all data stored in that block
    /// until its next erase. Reads weakly program unselected word lines
    /// (Cai et al.); the device model accumulates a per-block sense counter
    /// and charges this term on top of the retention BER.
    ///
    /// # Panics
    ///
    /// Panics if `per_read` is negative or not finite.
    #[must_use]
    pub fn with_read_disturb(mut self, per_read: f64) -> Self {
        assert!(
            per_read >= 0.0 && per_read.is_finite(),
            "read-disturb rate must be finite and non-negative"
        );
        self.read_disturb_per_read = per_read;
        self
    }

    /// Normalized-BER increment charged per cell sense (0 when read-disturb
    /// modeling is disabled).
    #[must_use]
    pub fn read_disturb_per_read(&self) -> f64 {
        self.read_disturb_per_read
    }

    /// Additive normalized-BER term accumulated by `reads_since_erase`
    /// senses of a block since its last erase.
    #[must_use]
    pub fn disturb_term(&self, reads_since_erase: u64) -> f64 {
        self.read_disturb_per_read * reads_since_erase as f64
    }

    /// The deterministic per-block BER scale factor in
    /// `[1 - variation, 1 + variation]` (1.0 when variation is disabled).
    #[must_use]
    fn block_factor(&self, block_index: u64) -> f64 {
        if self.variation == 0.0 {
            return 1.0;
        }
        // SplitMix64 finalizer -> uniform in [-1, 1].
        let mut z = block_index.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.variation * (2.0 * unit - 1.0)
    }

    /// Normalized retention BER of an `Npp^k` subpage on a specific block
    /// (the closed-form model scaled by the block's process-variation
    /// factor).
    #[must_use]
    pub fn normalized_ber_on_block(
        &self,
        block_index: u64,
        pe_cycles: u32,
        npp: u32,
        elapsed: SimDuration,
    ) -> f64 {
        self.block_factor(block_index) * self.normalized_ber(pe_cycles, npp, elapsed)
    }

    /// Normalized BER the ECC can correct; reads above this fail.
    #[must_use]
    pub fn ecc_limit(&self) -> f64 {
        self.ecc_limit
    }

    /// The P/E cycle count at which `Npp^0`, `t = 0` BER is defined as 1.0.
    #[must_use]
    pub fn reference_pe_cycles(&self) -> u32 {
        self.reference_pe
    }

    /// Wear factor: grows linearly from `fresh_factor` at 0 cycles to 1.0 at
    /// the reference cycle count and keeps growing past it.
    #[must_use]
    fn pe_factor(&self, pe_cycles: u32) -> f64 {
        let x = f64::from(pe_cycles) / f64::from(self.reference_pe);
        self.fresh_factor + (1.0 - self.fresh_factor) * x
    }

    /// `Npp` uplift: 1.0 at `Npp^0` rising to `1 + npp_max_uplift` at the
    /// anchor index (`Npp^3` for 4-subpage pages).
    #[must_use]
    fn npp_factor(&self, npp: u32) -> f64 {
        if npp == 0 {
            return 1.0;
        }
        let x = f64::from(npp) / f64::from(self.npp_anchor.max(1));
        1.0 + self.npp_max_uplift * x.powf(self.npp_shape)
    }

    /// Time-degradation slope for an `Npp^k` subpage (per month^`time_exp`).
    #[must_use]
    fn slope(&self, npp: u32) -> f64 {
        let x = f64::from(npp) / f64::from(self.npp_anchor.max(1));
        self.slope_base + self.slope_max_uplift * x
    }

    /// Normalized retention BER of an `Npp^k` subpage after `elapsed`
    /// retention time on a block with `pe_cycles` program/erase cycles.
    #[must_use]
    pub fn normalized_ber(&self, pe_cycles: u32, npp: u32, elapsed: SimDuration) -> f64 {
        let t = elapsed.as_months_f64();
        self.pe_factor(pe_cycles)
            * self.npp_factor(npp)
            * (1.0 + self.slope(npp) * t.powf(self.time_exp))
    }

    /// True if data in an `Npp^k` subpage is still within the ECC limit
    /// after `elapsed` retention time.
    #[must_use]
    pub fn is_readable(&self, pe_cycles: u32, npp: u32, elapsed: SimDuration) -> bool {
        self.normalized_ber(pe_cycles, npp, elapsed) <= self.ecc_limit
    }

    /// AERO-style erase-depth selection (arXiv 2404.10355): lightly-worn
    /// blocks erase reliably with fewer, weaker pulses, so the controller
    /// picks a depth from the block's *effective* wear. The thresholds are
    /// conservative — a depth is only shallower than a full erase while the
    /// block sits well below the reference endurance point, where the wear
    /// factor (`pe_factor` in the module docs) leaves ample margin to the
    /// ECC limit for every `Npp` type, so retention capability is never the
    /// binding constraint.
    #[must_use]
    pub fn erase_depth(&self, effective_pe: u32) -> EraseDepth {
        if effective_pe.saturating_mul(2) < self.reference_pe {
            EraseDepth::Shallow
        } else if effective_pe < self.reference_pe {
            EraseDepth::Reduced
        } else {
            EraseDepth::Deep
        }
    }

    /// How long an `Npp^k` subpage written on a block with `pe_cycles`
    /// cycles can retain data before crossing the ECC limit.
    ///
    /// Returns [`SimDuration::ZERO`] if the subpage is unreadable even at
    /// zero retention time.
    #[must_use]
    pub fn retention_capability(&self, pe_cycles: u32, npp: u32) -> SimDuration {
        let base = self.pe_factor(pe_cycles) * self.npp_factor(npp);
        if base >= self.ecc_limit {
            return SimDuration::ZERO;
        }
        let s = self.slope(npp);
        if s <= 0.0 {
            // Never degrades: effectively unbounded; report 100 years.
            return SimDuration::from_days(36_500);
        }
        let t_months = ((self.ecc_limit / base - 1.0) / s).powf(1.0 / self.time_exp);
        let ns = t_months * 30.0 * 86_400.0 * 1e9;
        SimDuration::from_nanos(ns as u64)
    }
}

impl Default for RetentionModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How deeply a block is erased (AERO, arXiv 2404.10355).
///
/// A conventional erase always drives cells to the deepest erase state; AERO
/// observes that lightly-worn blocks reach an erase-verifiable state with
/// fewer, weaker pulses, trading unneeded reliability margin for latency and
/// — because each pulse stresses the tunnel oxide — for lifetime. The model
/// here charges each depth a fixed fraction of a full erase's latency and of
/// a full erase's wear (in milli-P/E, so the bookkeeping stays integral):
/// with adaptive erase disabled every erase is [`EraseDepth::Deep`], which
/// costs exactly one P/E cycle and the full `tBERS` — bit-identical to the
/// non-adaptive device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EraseDepth {
    /// Lightly-worn block: ~60 % of the oxide stress, ~70 % of the latency.
    Shallow,
    /// Mid-life block: ~85 % of the stress, ~90 % of the latency.
    Reduced,
    /// Full-depth erase: exactly 1 P/E cycle of stress at full latency.
    Deep,
}

impl EraseDepth {
    /// Oxide stress charged by one erase at this depth, in milli-P/E
    /// (a [`EraseDepth::Deep`] erase is exactly 1000, i.e. one P/E cycle).
    #[must_use]
    pub fn stress_milli_pe(self) -> u64 {
        match self {
            EraseDepth::Shallow => 600,
            EraseDepth::Reduced => 850,
            EraseDepth::Deep => 1000,
        }
    }

    /// Erase latency at this depth, in percent of the full-depth `tBERS`.
    #[must_use]
    pub fn latency_percent(self) -> u64 {
        match self {
            EraseDepth::Shallow => 70,
            EraseDepth::Reduced => 90,
            EraseDepth::Deep => 100,
        }
    }
}

/// A tiered read-retry ladder (Cai et al., *Data Retention in MLC NAND
/// Flash Memory: Characterization, Optimization, and Recovery*).
///
/// When the initial sense of a subpage lands above the ECC limit, the
/// controller re-reads at shifted reference voltages: hard step `i`
/// tolerates a normalized BER up to `ecc_limit · (1 + step_uplift · i)`. If
/// every hard step fails, a final soft-decode pass (soft-decision sensing
/// plus LDPC soft decoding) tolerates `ecc_limit · (1 + soft_uplift)`. Each
/// step costs extra cell time (see [`crate::NandTiming`]); only data above
/// the soft-decode rung is truly uncorrectable.
///
/// # Examples
///
/// ```
/// use esp_nand::RetryLadder;
///
/// let l = RetryLadder::paper_default();
/// // Just above the base limit: one hard step recovers it.
/// let e = l.effort_for(2.5, 2.4).unwrap();
/// assert_eq!((e.retry_steps, e.soft_decode), (1, false));
/// // Beyond every rung: uncorrectable.
/// assert!(l.effort_for(5.0, 2.4).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetryLadder {
    /// Number of stepped hard re-reads tried after the initial sense.
    pub hard_steps: u32,
    /// Fractional ECC-limit uplift each hard step adds: step `i` corrects
    /// up to `ecc_limit · (1 + step_uplift · i)`.
    pub step_uplift: f64,
    /// Fractional uplift of the final soft-decode pass relative to the base
    /// limit (reached only after all hard steps fail).
    pub soft_uplift: f64,
}

impl RetryLadder {
    /// The default ladder used throughout the reproduction: four hard steps
    /// of +15 % each, then a soft-decode pass that doubles the correctable
    /// BER — in line with the retry behaviour Cai et al. report.
    #[must_use]
    pub fn paper_default() -> Self {
        RetryLadder {
            hard_steps: 4,
            step_uplift: 0.15,
            soft_uplift: 1.0,
        }
    }

    /// Checks the ladder parameters are usable.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.step_uplift.is_finite() && self.step_uplift >= 0.0) {
            return Err("retry ladder step uplift must be finite and non-negative".into());
        }
        if !(self.soft_uplift.is_finite() && self.soft_uplift >= 0.0) {
            return Err("retry ladder soft uplift must be finite and non-negative".into());
        }
        if self.hard_steps == 0 && self.soft_uplift == 0.0 {
            return Err("retry ladder must have at least one rung".into());
        }
        Ok(())
    }

    /// The cheapest effort that corrects a read at `ber`, or `None` if even
    /// the soft-decode rung cannot.
    #[must_use]
    pub fn effort_for(&self, ber: f64, ecc_limit: f64) -> Option<ReadEffort> {
        if ber <= ecc_limit {
            return Some(ReadEffort::NONE);
        }
        for step in 1..=self.hard_steps {
            if ber <= ecc_limit * (1.0 + self.step_uplift * f64::from(step)) {
                return Some(ReadEffort {
                    retry_steps: step,
                    soft_decode: false,
                });
            }
        }
        if ber <= ecc_limit * (1.0 + self.soft_uplift) {
            return Some(ReadEffort {
                retry_steps: self.hard_steps,
                soft_decode: true,
            });
        }
        None
    }

    /// The effort charged when the whole ladder runs and still fails: every
    /// hard step plus the soft-decode pass (uncorrectable reads are the
    /// slowest reads a device serves).
    #[must_use]
    pub fn exhausted(&self) -> ReadEffort {
        ReadEffort {
            retry_steps: self.hard_steps,
            soft_decode: true,
        }
    }
}

/// How much retry-ladder work a read needed beyond the initial sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadEffort {
    /// Hard re-read steps performed (each one a full extra cell sense).
    pub retry_steps: u32,
    /// True if the final soft-decode pass ran.
    pub soft_decode: bool,
}

impl ReadEffort {
    /// A clean first-sense read: no retries, no soft decode.
    pub const NONE: ReadEffort = ReadEffort {
        retry_steps: 0,
        soft_decode: false,
    };

    /// True if the read succeeded on the initial sense.
    #[must_use]
    pub fn is_free(self) -> bool {
        self == Self::NONE
    }

    /// Componentwise maximum: the effort of a full-page read is the effort
    /// of its hardest subpage (the page is sensed as a unit).
    #[must_use]
    pub fn max(self, other: ReadEffort) -> ReadEffort {
        ReadEffort {
            retry_steps: self.retry_steps.max(other.retry_steps),
            soft_decode: self.soft_decode || other.soft_decode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> RetentionModel {
        RetentionModel::paper_default()
    }

    #[test]
    fn endurance_ber_is_normalized_to_one() {
        let m = m();
        let b = m.normalized_ber(m.reference_pe_cycles(), 0, SimDuration::ZERO);
        assert!((b - 1.0).abs() < 1e-12, "got {b}");
    }

    #[test]
    fn npp3_uplift_matches_paper_41_percent() {
        let m = m();
        let n0 = m.normalized_ber(1000, 0, SimDuration::ZERO);
        let n3 = m.normalized_ber(1000, 3, SimDuration::ZERO);
        assert!((n3 / n0 - 1.41).abs() < 1e-9, "uplift {}", n3 / n0);
    }

    #[test]
    fn npp3_passes_one_month_fails_two_months() {
        let m = m();
        assert!(m.is_readable(1000, 3, SimDuration::from_months(1)));
        assert!(!m.is_readable(1000, 3, SimDuration::from_months(2)));
    }

    #[test]
    fn npp0_meets_commercial_grade_retention() {
        // JEDEC commercial grade: 1 year. Our Npp^0 cells comfortably pass.
        let m = m();
        assert!(m.is_readable(1000, 0, SimDuration::from_months(12)));
    }

    #[test]
    fn every_npp_type_survives_the_ftl_one_month_bound() {
        // subFTL conservatively assumes every subpage holds data for one
        // month; the device model must honor that for all Npp types.
        let m = m();
        for npp in 0..=3 {
            assert!(
                m.is_readable(1000, npp, SimDuration::from_months(1)),
                "Npp^{npp} failed the 1-month bound"
            );
        }
    }

    #[test]
    fn ber_is_monotone_in_npp() {
        let m = m();
        let t = SimDuration::from_days(10);
        let mut prev = 0.0;
        for npp in 0..=3 {
            let b = m.normalized_ber(1000, npp, t);
            assert!(b > prev, "Npp^{npp}: {b} <= {prev}");
            prev = b;
        }
    }

    #[test]
    fn ber_is_monotone_in_time_and_pe() {
        let m = m();
        assert!(
            m.normalized_ber(1000, 2, SimDuration::from_months(2))
                > m.normalized_ber(1000, 2, SimDuration::from_months(1))
        );
        assert!(
            m.normalized_ber(2000, 0, SimDuration::ZERO)
                > m.normalized_ber(1000, 0, SimDuration::ZERO)
        );
        assert!(m.normalized_ber(500, 0, SimDuration::ZERO) < 1.0);
    }

    #[test]
    fn variation_is_deterministic_and_bounded() {
        let m = RetentionModel::paper_default().with_variation(0.12);
        for b in 0..1000u64 {
            let f = m.block_factor(b);
            assert!((0.88..=1.12).contains(&f), "block {b}: factor {f}");
            assert_eq!(f, m.block_factor(b), "must be deterministic");
        }
        // Factors actually spread (not all identical).
        let f0 = m.block_factor(0);
        assert!((0..100u64).any(|b| (m.block_factor(b) - f0).abs() > 0.02));
        // Disabled by default.
        assert_eq!(RetentionModel::paper_default().block_factor(7), 1.0);
    }

    #[test]
    fn block_scaled_ber_wraps_the_closed_form() {
        let m = RetentionModel::paper_default().with_variation(0.12);
        let t = SimDuration::from_months(1);
        let plain = m.normalized_ber(1000, 2, t);
        let scaled = m.normalized_ber_on_block(5, 1000, 2, t);
        assert!((scaled / plain - m.block_factor(5)).abs() < 1e-12);
    }

    #[test]
    fn retention_capability_matches_is_readable() {
        let m = m();
        for npp in 0..=3 {
            let cap = m.retention_capability(1000, npp);
            assert!(!cap.is_zero());
            // Just inside the capability: readable.
            let inside = SimDuration::from_nanos(cap.as_nanos() * 99 / 100);
            assert!(m.is_readable(1000, npp, inside), "Npp^{npp} inside cap");
            // Just past: not readable.
            let outside = SimDuration::from_nanos(cap.as_nanos() * 101 / 100);
            assert!(!m.is_readable(1000, npp, outside), "Npp^{npp} outside cap");
        }
    }

    #[test]
    fn disturb_term_accumulates_and_defaults_off() {
        let base = m();
        assert_eq!(base.read_disturb_per_read(), 0.0);
        assert_eq!(base.disturb_term(1_000_000), 0.0);
        let d = RetentionModel::paper_default().with_read_disturb(1e-3);
        assert!((d.disturb_term(500) - 0.5).abs() < 1e-12);
        assert_eq!(d.disturb_term(0), 0.0);
    }

    #[test]
    fn ladder_rungs_are_monotone() {
        let l = RetryLadder::paper_default();
        let limit = 2.4;
        // Base-limit reads are free.
        assert_eq!(l.effort_for(2.4, limit), Some(ReadEffort::NONE));
        // Each rung corrects strictly more; efforts are non-decreasing.
        let mut prev_steps = 0;
        for ber in [2.5, 2.9, 3.2, 3.8, 4.7] {
            let e = l.effort_for(ber, limit).unwrap();
            assert!(e.retry_steps >= prev_steps, "ber {ber}");
            prev_steps = e.retry_steps;
        }
        // The soft rung is the last resort and the hardest charge.
        let soft = l.effort_for(4.7, limit).unwrap();
        assert!(soft.soft_decode);
        assert_eq!(soft, l.exhausted());
        // Past the soft rung: uncorrectable.
        assert!(l.effort_for(limit * 2.0 + 0.01, limit).is_none());
    }

    #[test]
    fn ladder_validate_rejects_degenerate_parameters() {
        assert!(RetryLadder::paper_default().validate().is_ok());
        let no_rungs = RetryLadder {
            hard_steps: 0,
            step_uplift: 0.15,
            soft_uplift: 0.0,
        };
        assert!(no_rungs.validate().is_err());
        let negative = RetryLadder {
            step_uplift: -0.1,
            ..RetryLadder::paper_default()
        };
        assert!(negative.validate().is_err());
    }

    #[test]
    fn effort_max_takes_the_hardest_component() {
        let a = ReadEffort {
            retry_steps: 2,
            soft_decode: false,
        };
        let b = ReadEffort {
            retry_steps: 1,
            soft_decode: true,
        };
        assert_eq!(
            a.max(b),
            ReadEffort {
                retry_steps: 2,
                soft_decode: true
            }
        );
        assert!(ReadEffort::NONE.is_free());
        assert!(!a.is_free());
    }

    #[test]
    fn erase_depth_tiers_follow_effective_wear() {
        let m = m();
        assert_eq!(m.erase_depth(0), EraseDepth::Shallow);
        assert_eq!(m.erase_depth(499), EraseDepth::Shallow);
        assert_eq!(m.erase_depth(500), EraseDepth::Reduced);
        assert_eq!(m.erase_depth(999), EraseDepth::Reduced);
        assert_eq!(m.erase_depth(1000), EraseDepth::Deep);
        assert_eq!(m.erase_depth(u32::MAX), EraseDepth::Deep);
    }

    #[test]
    fn erase_depth_charges_are_monotone_and_deep_is_exact() {
        // Deep must cost exactly one P/E cycle and 100 % latency so the
        // adaptive-off path stays bit-identical to the classic device.
        assert_eq!(EraseDepth::Deep.stress_milli_pe(), 1000);
        assert_eq!(EraseDepth::Deep.latency_percent(), 100);
        assert!(EraseDepth::Shallow.stress_milli_pe() < EraseDepth::Reduced.stress_milli_pe());
        assert!(EraseDepth::Reduced.stress_milli_pe() < EraseDepth::Deep.stress_milli_pe());
        assert!(EraseDepth::Shallow.latency_percent() < EraseDepth::Reduced.latency_percent());
        assert!(EraseDepth::Reduced.latency_percent() < EraseDepth::Deep.latency_percent());
    }

    #[test]
    fn capability_shrinks_with_npp() {
        let m = m();
        let caps: Vec<_> = (0..=3).map(|k| m.retention_capability(1000, k)).collect();
        for w in caps.windows(2) {
            assert!(w[0] > w[1]);
        }
        // Npp^3 capability sits between 1 and 2 months.
        assert!(caps[3] > SimDuration::from_months(1));
        assert!(caps[3] < SimDuration::from_months(2));
    }
}
