//! ECC engine model.
//!
//! Fig 3 of the paper shows the page buffer organized as ECC codewords of
//! "1 KB or 2 KB"; reads fail when the raw bit-error count of a codeword
//! exceeds the engine's correction capability ("over ECC limit", Fig 4).
//! The retention model expresses BER *normalized* to the endurance BER;
//! [`EccConfig`] closes the loop: given an absolute endurance raw BER and a
//! correction strength in bits per codeword, it derives the normalized BER
//! the engine can tolerate — the `ecc_limit` the rest of the stack consumes.
//!
//! This makes ECC strength a first-class design input: the
//! `ablation_ecc` experiment sweeps correction strength and reports how
//! each `Npp` type's retention capability responds (e.g. how much ECC it
//! would take to make 2-month `Npp^3` retention safe).

use crate::reliability::RetentionModel;

/// A BCH/LDPC-style ECC engine: corrects up to `correctable_bits` per
/// codeword of `codeword_bytes`.
///
/// # Examples
///
/// ```
/// use esp_nand::EccConfig;
///
/// let ecc = EccConfig::paper_default();
/// assert_eq!(ecc.codeword_bytes, 1024);
/// // The default engine tolerates 2.4x the endurance BER — the normalized
/// // ECC limit used throughout the reproduction.
/// assert!((ecc.normalized_limit() - 2.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EccConfig {
    /// Data bytes protected per codeword (the paper's Fig 3: 1 KB or 2 KB).
    pub codeword_bytes: u32,
    /// Correctable bit errors per codeword.
    pub correctable_bits: u32,
    /// Absolute raw bit-error rate at the endurance point (1K P/E, zero
    /// retention) — the quantity the normalized model is anchored to.
    pub endurance_raw_ber: f64,
}

impl EccConfig {
    /// The engine implied by the reproduction's normalized limit of 2.4:
    /// 1 KB codewords, 40-bit correction, and an endurance raw BER of
    /// 2.03e-3 (40 bits / 8192 bits / 2.4) — typical mid-2010s TLC figures.
    #[must_use]
    pub fn paper_default() -> Self {
        EccConfig {
            codeword_bytes: 1024,
            correctable_bits: 40,
            endurance_raw_ber: 40.0 / (1024.0 * 8.0) / 2.4,
        }
    }

    /// Mean raw bit errors per codeword the engine can correct, expressed
    /// as a raw BER threshold.
    #[must_use]
    fn raw_ber_limit(&self) -> f64 {
        f64::from(self.correctable_bits) / (f64::from(self.codeword_bytes) * 8.0)
    }

    /// The engine's tolerance normalized to the endurance BER — the value
    /// to install as the retention model's ECC limit.
    ///
    /// # Panics
    ///
    /// Panics if `endurance_raw_ber` is not positive.
    #[must_use]
    pub fn normalized_limit(&self) -> f64 {
        assert!(
            self.endurance_raw_ber > 0.0,
            "endurance_raw_ber must be positive"
        );
        self.raw_ber_limit() / self.endurance_raw_ber
    }

    /// Builds a retention model whose ECC limit reflects this engine.
    #[must_use]
    pub fn retention_model(&self) -> RetentionModel {
        RetentionModel::paper_default().with_ecc_limit(self.normalized_limit())
    }
}

impl Default for EccConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_sim::SimDuration;

    #[test]
    fn paper_default_matches_normalized_limit() {
        let ecc = EccConfig::paper_default();
        assert!((ecc.normalized_limit() - 2.4).abs() < 1e-9);
        let m = ecc.retention_model();
        assert!((m.ecc_limit() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn stronger_ecc_extends_subpage_retention() {
        let weak = EccConfig {
            correctable_bits: 40,
            ..EccConfig::paper_default()
        }
        .retention_model();
        let strong = EccConfig {
            correctable_bits: 60,
            ..EccConfig::paper_default()
        }
        .retention_model();
        for npp in 0..4 {
            assert!(
                strong.retention_capability(1000, npp) > weak.retention_capability(1000, npp),
                "Npp^{npp}"
            );
        }
        // 60-bit correction makes 2-month Npp^3 retention safe (the regime
        // the paper's 40-bit-class device cannot reach).
        assert!(strong.is_readable(1000, 3, SimDuration::from_months(2)));
    }

    #[test]
    fn larger_codewords_at_same_bits_are_weaker() {
        let small = EccConfig {
            codeword_bytes: 1024,
            ..EccConfig::paper_default()
        };
        let large = EccConfig {
            codeword_bytes: 2048,
            ..EccConfig::paper_default()
        };
        assert!(large.normalized_limit() < small.normalized_limit());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_endurance_ber_rejected() {
        let bad = EccConfig {
            endurance_raw_ber: 0.0,
            ..EccConfig::paper_default()
        };
        let _ = bad.normalized_limit();
    }
}
