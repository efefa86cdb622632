//! Program/erase fault injection and bad-block modelling.
//!
//! Real NAND parts ship with factory-marked bad blocks and grow more over
//! their lifetime: a program or erase occasionally completes with a *status
//! fail*, after which the firmware must re-program the data elsewhere
//! (write retry) or retire the block (grown bad block). This module is the
//! deterministic, seedable source of those events.
//!
//! The model is **opt-in**: a [`NandDevice`](crate::NandDevice) without an
//! installed [`FaultModel`] draws no random numbers and behaves bit-for-bit
//! like the fault-free device, so baseline experiments are unaffected.
//!
//! Determinism: one [`Rng`] draw is consumed per consulted program/erase
//! operation, in device-issue order. Because the FTLs issue operations in a
//! deterministic order, the whole fault sequence is a pure function of the
//! seed and the workload.

use esp_sim::Rng;

/// Configuration of the injected-fault model.
///
/// # Examples
///
/// ```
/// use esp_nand::FaultConfig;
///
/// let f = FaultConfig { program_fail_prob: 1e-4, ..FaultConfig::default() };
/// assert_eq!(f.erase_fail_prob, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault stream (and factory bad-block placement).
    pub seed: u64,
    /// Probability that a program operation reports status fail.
    pub program_fail_prob: f64,
    /// Probability that an erase operation reports status fail (the block
    /// then becomes a grown bad block).
    pub erase_fail_prob: f64,
    /// Number of factory-marked bad blocks, placed deterministically from
    /// the seed across the whole device.
    pub factory_bad_blocks: u32,
    /// Whole-device death: the device bricks itself after executing this
    /// many NAND commands (programs, reads, erases — the same executed-op
    /// count that advances the fault stream). `None` disables the mode.
    pub die_at_op: Option<u64>,
    /// Whole-device death: the device bricks itself as soon as any block's
    /// effective P/E count reaches this threshold (a controller-level
    /// wear-out trip). `None` disables the mode.
    pub die_at_pe: Option<u32>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            program_fail_prob: 0.0,
            erase_fail_prob: 0.0,
            factory_bad_blocks: 0,
            die_at_op: None,
            die_at_pe: None,
        }
    }
}

impl FaultConfig {
    /// Validates probabilities and returns a human-readable reason on error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field if either probability is
    /// outside `[0, 1)` or not finite.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("program_fail_prob", self.program_fail_prob),
            ("erase_fail_prob", self.erase_fail_prob),
        ] {
            if !p.is_finite() || !(0.0..1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1), got {p}"));
            }
        }
        if self.die_at_op == Some(0) {
            return Err(
                "die_at_op must be at least 1 (0 would brick the device before any command)"
                    .to_string(),
            );
        }
        if self.die_at_pe == Some(0) {
            return Err("die_at_pe must be at least 1".to_string());
        }
        Ok(())
    }
}

/// The runtime fault generator: configuration plus its private RNG stream.
#[derive(Debug, Clone)]
pub struct FaultModel {
    config: FaultConfig,
    rng: Rng,
}

impl FaultModel {
    /// Creates a model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FaultConfig::validate`].
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        config.validate().expect("invalid fault configuration");
        let rng = Rng::seed_from(config.seed);
        FaultModel { config, rng }
    }

    /// The configuration this model was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Picks the factory bad-block set: `factory_bad_blocks` distinct
    /// device-global block indices, deterministically derived from the seed
    /// (independent of the program/erase fault stream).
    #[must_use]
    pub fn factory_bad_blocks(&self, block_count: u32) -> Vec<u32> {
        let want = self.config.factory_bad_blocks.min(block_count) as usize;
        let mut rng = Rng::seed_from(self.config.seed ^ 0xBADB_10C5);
        let mut picked = Vec::with_capacity(want);
        while picked.len() < want {
            let b = rng.next_below(u64::from(block_count)) as u32;
            if !picked.contains(&b) {
                picked.push(b);
            }
        }
        picked.sort_unstable();
        picked
    }

    /// Draws whether a program operation reports status fail. Consumes
    /// exactly one RNG draw.
    pub fn program_fails(&mut self) -> bool {
        self.rng.chance(self.config.program_fail_prob)
    }

    /// Draws whether an erase operation reports status fail. Consumes
    /// exactly one RNG draw.
    pub fn erase_fails(&mut self) -> bool {
        self.rng.chance(self.config.erase_fail_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_never_fails() {
        let mut m = FaultModel::new(FaultConfig::default());
        for _ in 0..10_000 {
            assert!(!m.program_fails());
            assert!(!m.erase_fails());
        }
        assert!(m.factory_bad_blocks(64).is_empty());
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            seed: 7,
            program_fail_prob: 0.05,
            erase_fail_prob: 0.02,
            ..FaultConfig::default()
        };
        let draw = |mut m: FaultModel| -> Vec<bool> {
            (0..512)
                .map(|i| {
                    if i % 3 == 0 {
                        m.erase_fails()
                    } else {
                        m.program_fails()
                    }
                })
                .collect()
        };
        let a = draw(FaultModel::new(cfg.clone()));
        let b = draw(FaultModel::new(cfg.clone()));
        assert_eq!(a, b, "same seed, same fault sequence");
        let c = draw(FaultModel::new(FaultConfig { seed: 8, ..cfg }));
        assert_ne!(a, c, "different seed, different sequence");
    }

    #[test]
    fn fail_rates_track_probability() {
        let mut m = FaultModel::new(FaultConfig {
            seed: 3,
            program_fail_prob: 0.10,
            ..FaultConfig::default()
        });
        let n = 20_000;
        let fails = (0..n).filter(|_| m.program_fails()).count();
        let rate = fails as f64 / f64::from(n);
        assert!((rate - 0.10).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn factory_bad_blocks_are_distinct_in_range_and_stable() {
        let m = FaultModel::new(FaultConfig {
            seed: 42,
            factory_bad_blocks: 5,
            ..FaultConfig::default()
        });
        let bad = m.factory_bad_blocks(64);
        assert_eq!(bad.len(), 5);
        for b in &bad {
            assert!(*b < 64);
        }
        let mut dedup = bad.clone();
        dedup.dedup();
        assert_eq!(dedup, bad, "must be distinct and sorted");
        assert_eq!(bad, m.factory_bad_blocks(64), "must be stable");
        // Never more bad blocks than blocks.
        assert_eq!(m.factory_bad_blocks(3).len(), 3);
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        let bad = FaultConfig {
            program_fail_prob: 1.5,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultConfig {
            erase_fail_prob: -0.1,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(FaultConfig::default().validate().is_ok());
    }
}
