//! FTL configuration.

use std::fmt;

use esp_nand::{FaultConfig, Geometry, NandTiming, RetentionModel, RetryLadder};
use esp_sim::SimDuration;
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::gc_policy::GcPolicyKind;
use crate::map_cache::MapCacheConfig;

/// The full-page engine, fgm and sector-log's log region start foreground
/// GC when their free-block count drops below this (the engine and fgm
/// shed it toward 1 as the device wears out).
pub(crate) const GC_FREE_WATERMARK: u32 = 2;

/// What subFTL's subpage-region GC does with a victim block's valid
/// subpages (paper §4.2; the default refines the paper's rule with a
/// second chance — see the ablation `ablation_eviction`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Updated subpages stay in the region but their updated flag is
    /// cleared; if they are not updated again by the next GC encounter,
    /// they are evicted then. Never-updated subpages are evicted now.
    #[default]
    SecondChance,
    /// The paper's literal rule: subpages "that have been updated at least
    /// once" move within the region (and keep counting as hot forever);
    /// never-updated subpages are evicted.
    KeepUpdatedForever,
    /// Evict every valid subpage to the full-page region (no hot/cold
    /// separation; stresses RMW eviction).
    EvictAll,
    /// Keep every valid subpage in the region (no cold eviction; only the
    /// retention scrubber ever demotes data).
    KeepAll,
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EvictionPolicy::SecondChance => "second-chance",
            EvictionPolicy::KeepUpdatedForever => "keep-updated",
            EvictionPolicy::EvictAll => "evict-all",
            EvictionPolicy::KeepAll => "keep-all",
        };
        f.write_str(name)
    }
}

/// Configuration shared by all four FTLs (cgmFTL, fgmFTL, subFTL,
/// sectorLogFTL).
///
/// The defaults reproduce the paper's §5 setup where the paper specifies a
/// value, and use stated, conventional values elsewhere:
///
/// * subpage region = **20 %** of flash (paper §4),
/// * retention-scrub threshold = **15 days** of the 1-month device bound
///   (paper §4.3),
/// * full-page program 1600 µs / subpage program 1300 µs (paper §5),
/// * exported (logical) capacity = 75 % of raw flash. The paper does not
///   state its over-provisioning; 25 % is chosen so that subFTL's full-page
///   region (80 % of raw) can always hold the entire logical space, and the
///   *same* logical capacity is exported by all four FTLs so comparisons
///   are apples-to-apples.
///
/// Fixed, not configurable: the full-page engine, fgm and sector-log's log
/// region start foreground GC below two free blocks, subFTL scans for
/// over-age subpages once a simulated day, and its subpage-region GC
/// reclaims every profitable victim per episode.
///
/// # Examples
///
/// ```
/// use esp_core::FtlConfig;
///
/// let cfg = FtlConfig::paper_default();
/// assert!((cfg.subpage_region_fraction - 0.20).abs() < 1e-12);
/// assert!(cfg.logical_sectors() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FtlConfig {
    /// NAND geometry (channels × ways × blocks × pages × subpages).
    pub geometry: Geometry,
    /// NAND operation latencies.
    pub timing: NandTiming,
    /// Subpage-aware retention model.
    pub retention: RetentionModel,
    /// Fraction of raw capacity hidden from the host (over-provisioning).
    pub overprovision: f64,
    /// Write-buffer capacity in 4 KB sectors.
    pub write_buffer_sectors: usize,
    /// Fraction of blocks assigned to subFTL's subpage region (paper: 0.20).
    pub subpage_region_fraction: f64,
    /// subFTL evicts subpages older than this to the full-page region
    /// (paper: 15 days against the 1-month device bound).
    pub retention_threshold: SimDuration,
    /// Wear-leveling: swap free blocks between regions when the P/E delta
    /// exceeds this.
    pub wear_delta_threshold: u32,
    /// Hot/cold handling in subpage-region GC.
    pub eviction_policy: EvictionPolicy,
    /// Run garbage collection in host idle windows (an extension beyond
    /// the paper; see the `future_background_gc` experiment). Off by
    /// default to match the paper's foreground-GC behaviour.
    pub background_gc: bool,
    /// Independent planes per chip (cell operations on different planes of
    /// one chip overlap; blocks alternate planes). 1 matches the paper's
    /// timing assumptions; 2 models typical multi-plane TLC dies.
    pub planes_per_chip: u32,
    /// Program/erase fault injection (factory + grown bad blocks, write
    /// retries). `None` — the default — disables the fault model entirely:
    /// the device draws no randomness and every baseline result is
    /// bit-identical to a fault-free build.
    pub fault: Option<FaultConfig>,
    /// subFTL: durability-first variants of the internal operations that
    /// otherwise leave mid-operation power-loss windows (found by the
    /// crash harness; see `crash_harness` module docs):
    ///
    /// * **Lap migration / same-sector overwrite.** The paper's in-place
    ///   migration re-programs a valid subpage *on its own page* — if
    ///   power dies mid-pulse the only durable copy is destroyed
    ///   (Fig 4(b)); overwriting a sector whose previous version occupies
    ///   the target page has the same window. With this flag the occupant
    ///   is instead evicted to the full-page region (the old copy stays
    ///   intact until the relocation completes).
    /// * **Buffer-shadowed GC/scrub drops.** Fast mode treats a flash copy
    ///   as garbage once a newer version sits in the DRAM write buffer;
    ///   erasing it before the buffer flushes loses the sector's only
    ///   durable version if power dies. With this flag shadowed copies are
    ///   relocated like any other live data.
    ///
    /// Both trade extra eviction traffic for crash safety. Off by default:
    /// the fast paths match the paper and stay bit-identical to
    /// pre-crash-model builds.
    pub crash_safe_mode: bool,
    /// Tiered read-retry ladder installed on the device: reads whose BER
    /// lands above the base ECC limit are re-sensed at shifted reference
    /// voltages (each step charging extra cell time) and finally soft
    /// decoded, instead of failing outright. `None` — the default — keeps
    /// the single-sense behaviour and every baseline result bit-identical.
    pub retry_ladder: Option<RetryLadder>,
    /// Read-reclaim: a read that needed at least this many hard ladder
    /// rungs (or the soft-decode pass) has its data relocated to a fresh
    /// location, resetting its retention age and escaping its disturbed
    /// block. Also enables the background read-disturb patrol when the
    /// retention model charges a per-read disturb term. Requires
    /// `retry_ladder`; `None` disables reclaim and the patrol.
    pub reclaim_threshold: Option<u32>,
    /// Graceful degradation: after the first uncorrectable host read the
    /// FTL latches read-only (subsequent writes are refused and counted in
    /// `writes_dropped_read_only`), preserving remaining data for salvage
    /// instead of continuing to mutate a failing device. Off by default.
    pub read_only_on_loss: bool,
    /// Wear leveling across each FTL's block pools: wear-biased GC victim
    /// selection (dynamic) plus cold-block rotation when the effective P/E
    /// spread exceeds `wear_delta_threshold` (static). Off by default: with
    /// it off every result is bit-identical to pre-wear-leveling builds.
    pub wear_leveling: bool,
    /// AERO-style adaptive erase (arXiv 2404.10355): lightly-worn blocks
    /// are erased with shallower, faster pulses that charge fractional
    /// oxide stress, extending lifetime. Off by default for bit-identity.
    pub adaptive_erase: bool,
    /// GC victim-selection policy shared by every victim site (see
    /// [`crate::GcPolicyKind`]). Greedy — the default — reproduces the
    /// historical hard-coded behaviour bit-for-bit.
    pub gc_policy: GcPolicyKind,
    /// DFTL-style demand-cached mapping for the page-mapped FTLs
    /// (cgmFTL, fgmFTL): a bounded CMT of cached translation pages
    /// backed by flash-resident translation pages, with miss/evict
    /// traffic charged to the device timeline. `None` — the default —
    /// keeps the whole map resident and every result bit-identical.
    pub map_cache: Option<MapCacheConfig>,
}

impl FtlConfig {
    /// The paper's configuration over the default 4 GiB-shaped device.
    #[must_use]
    pub fn paper_default() -> Self {
        FtlConfig {
            geometry: Geometry::paper_default(),
            timing: NandTiming::paper_default(),
            retention: RetentionModel::paper_default(),
            overprovision: 0.25,
            write_buffer_sectors: 2048, // 8 MiB
            subpage_region_fraction: 0.20,
            retention_threshold: SimDuration::from_days(15),
            wear_delta_threshold: 20,
            eviction_policy: EvictionPolicy::SecondChance,
            background_gc: false,
            planes_per_chip: 1,
            fault: None,
            crash_safe_mode: false,
            retry_ladder: None,
            reclaim_threshold: None,
            read_only_on_loss: false,
            wear_leveling: false,
            adaptive_erase: false,
            gc_policy: GcPolicyKind::Greedy,
            map_cache: None,
        }
    }

    /// A small configuration for unit tests (tiny geometry, tiny buffer,
    /// generous over-provisioning so GC headroom exists on 16 blocks).
    #[must_use]
    pub fn tiny() -> Self {
        FtlConfig {
            geometry: Geometry::tiny(),
            write_buffer_sectors: 16,
            overprovision: 0.5,
            ..FtlConfig::paper_default()
        }
    }

    /// Number of logical sectors exported to the host: raw sectors scaled by
    /// `1 - overprovision`, rounded down to a full-page multiple.
    #[must_use]
    pub fn logical_sectors(&self) -> u64 {
        let raw = self.geometry.subpage_count();
        let logical = (raw as f64 * (1.0 - self.overprovision)) as u64;
        logical / u64::from(SECTORS_PER_PAGE) * u64::from(SECTORS_PER_PAGE)
    }

    /// Validates ranges and cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field, including the
    /// requirement that the full-page region can hold all logical data.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        // The FTL layer works in 4 KB host sectors mapped 1:1 onto
        // subpages; other shapes would silently corrupt the RMW/packing
        // logic, so reject them loudly.
        if self.geometry.subpages_per_page != SECTORS_PER_PAGE {
            return Err(format!(
                "FTLs require {} subpages per page (geometry has {})",
                SECTORS_PER_PAGE, self.geometry.subpages_per_page
            ));
        }
        if u64::from(self.geometry.subpage_bytes) != esp_workload::SECTOR_BYTES {
            return Err(format!(
                "FTLs require {} B subpages (geometry has {})",
                esp_workload::SECTOR_BYTES,
                self.geometry.subpage_bytes
            ));
        }
        if !(0.0..1.0).contains(&self.overprovision) {
            return Err(format!(
                "overprovision must be in [0,1), got {}",
                self.overprovision
            ));
        }
        if !(0.0..1.0).contains(&self.subpage_region_fraction) {
            return Err(format!(
                "subpage_region_fraction must be in [0,1), got {}",
                self.subpage_region_fraction
            ));
        }
        if self.write_buffer_sectors == 0 {
            return Err("write_buffer_sectors must be non-zero".into());
        }
        let full_fraction = 1.0 - self.subpage_region_fraction;
        let full_sectors = (self.geometry.subpage_count() as f64 * full_fraction) as u64;
        let watermark_sectors = u64::from(GC_FREE_WATERMARK + 2)
            * u64::from(self.geometry.pages_per_block)
            * u64::from(self.geometry.subpages_per_page);
        if self.logical_sectors() + watermark_sectors > full_sectors {
            return Err(format!(
                "logical capacity ({} sectors) does not fit in the full-page \
                 region ({} sectors) with GC headroom; raise overprovision or \
                 lower subpage_region_fraction",
                self.logical_sectors(),
                full_sectors
            ));
        }
        if self.planes_per_chip == 0 {
            return Err("planes_per_chip must be at least 1".into());
        }
        if self.retention_threshold >= SimDuration::from_months(1) {
            return Err("retention_threshold must be below the 1-month device bound".into());
        }
        if let Some(ladder) = &self.retry_ladder {
            ladder.validate()?;
        }
        if let Some(threshold) = self.reclaim_threshold {
            let Some(ladder) = &self.retry_ladder else {
                return Err("reclaim_threshold requires a retry_ladder".into());
            };
            if threshold == 0 {
                return Err("reclaim_threshold must be at least 1 rung".into());
            }
            if threshold > ladder.hard_steps {
                return Err(format!(
                    "reclaim_threshold ({threshold}) exceeds the ladder's \
                     {} hard steps; no hard-step read could ever trigger it",
                    ladder.hard_steps
                ));
            }
        }
        if let Some(cache) = &self.map_cache {
            if cache.cmt_pages < 2 {
                return Err(format!(
                    "map_cache.cmt_pages must be at least 2 (got {}); a \
                     single slot thrashes on every read-modify-write",
                    cache.cmt_pages
                ));
            }
        }
        if let Some(fault) = &self.fault {
            fault.validate()?;
            // The FTLs must survive losing every factory bad block from
            // whichever region it lands in; 12.5 % of the device is a
            // generous ceiling (real parts specify ~2 %).
            let cap = (self.geometry.block_count() / 8).max(1);
            if fault.factory_bad_blocks > cap {
                return Err(format!(
                    "factory_bad_blocks ({}) exceeds what the block budget \
                     tolerates ({cap})",
                    fault.factory_bad_blocks
                ));
            }
        }
        Ok(())
    }

    /// Panics with the validation error unless the configuration is valid
    /// (see [`FtlConfig::validate`]).
    fn assert_valid(&self) {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid FTL config: {e}"));
    }

    /// Validates the configuration and builds the empty device it
    /// describes.
    pub(crate) fn build_ssd(&self) -> Ssd {
        self.assert_valid();
        Ssd::with_planes(
            self.geometry.clone(),
            self.timing.clone(),
            self.retention.clone(),
            self.planes_per_chip,
        )
    }

    /// Checks that the flash image in `ssd` can be remounted under this
    /// configuration: the configuration is valid and its geometry matches
    /// the device's.
    pub(crate) fn assert_mountable(&self, ssd: &Ssd) {
        self.assert_valid();
        assert_eq!(
            *ssd.geometry(),
            self.geometry,
            "recovery config geometry mismatch"
        );
    }

    /// Arms the device features the configuration selects, in this order:
    /// fault injection, the read-retry ladder, adaptive erase.
    pub(crate) fn arm_device(&self, ssd: &mut Ssd) {
        if let Some(f) = &self.fault {
            ssd.device_mut().set_faults(f.clone());
        }
        ssd.device_mut().set_retry_ladder(self.retry_ladder.clone());
        ssd.device_mut().set_adaptive_erase(self.adaptive_erase);
    }

    /// Blocks per chip of the hybrid FTLs' fine-grained region (subFTL's
    /// subpage region, sector-log's log region):
    /// `subpage_region_fraction` of the chip, at least 2, leaving at least
    /// one block to the coarse region.
    pub(crate) fn hot_blocks_per_chip(&self) -> u32 {
        let bpc = self.geometry.blocks_per_chip;
        ((f64::from(bpc) * self.subpage_region_fraction).round() as u32).clamp(2, bpc - 1)
    }
}

impl Default for FtlConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        FtlConfig::paper_default().validate().unwrap();
        FtlConfig::tiny().validate().unwrap();
    }

    #[test]
    fn logical_capacity_is_page_aligned_and_below_raw() {
        let cfg = FtlConfig::paper_default();
        let logical = cfg.logical_sectors();
        assert_eq!(logical % u64::from(SECTORS_PER_PAGE), 0);
        assert!(logical < cfg.geometry.subpage_count());
        assert!(logical > cfg.geometry.subpage_count() / 2);
    }

    #[test]
    fn validate_rejects_overcommitted_full_region() {
        let cfg = FtlConfig {
            overprovision: 0.05,
            subpage_region_fraction: 0.30,
            ..FtlConfig::paper_default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("full-page region"), "{err}");
    }

    #[test]
    fn validate_rejects_threshold_beyond_device_bound() {
        let cfg = FtlConfig {
            retention_threshold: SimDuration::from_days(40),
            ..FtlConfig::paper_default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_foreign_subpage_shape() {
        let mut cfg = FtlConfig::paper_default();
        cfg.geometry.subpages_per_page = 8;
        assert!(cfg.validate().unwrap_err().contains("subpages per page"));
        let mut cfg = FtlConfig::paper_default();
        cfg.geometry.subpage_bytes = 2048;
        assert!(cfg.validate().unwrap_err().contains("B subpages"));
    }

    #[test]
    fn validate_checks_fault_config() {
        let cfg = FtlConfig {
            fault: Some(FaultConfig {
                program_fail_prob: 2.0,
                ..FaultConfig::default()
            }),
            ..FtlConfig::paper_default()
        };
        assert!(cfg.validate().unwrap_err().contains("program_fail_prob"));
        let cfg = FtlConfig {
            fault: Some(FaultConfig {
                factory_bad_blocks: 100_000,
                ..FaultConfig::default()
            }),
            ..FtlConfig::paper_default()
        };
        assert!(cfg.validate().unwrap_err().contains("factory_bad_blocks"));
        let cfg = FtlConfig {
            fault: Some(FaultConfig {
                seed: 1,
                program_fail_prob: 1e-4,
                erase_fail_prob: 1e-5,
                factory_bad_blocks: 2,
                ..FaultConfig::default()
            }),
            ..FtlConfig::tiny()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_checks_read_reliability_knobs() {
        // Reclaim without a ladder is rejected.
        let cfg = FtlConfig {
            reclaim_threshold: Some(2),
            ..FtlConfig::paper_default()
        };
        assert!(cfg.validate().unwrap_err().contains("retry_ladder"));
        // Zero rungs rejected; beyond the ladder rejected.
        let cfg = FtlConfig {
            retry_ladder: Some(RetryLadder::paper_default()),
            reclaim_threshold: Some(0),
            ..FtlConfig::paper_default()
        };
        assert!(cfg.validate().is_err());
        let cfg = FtlConfig {
            retry_ladder: Some(RetryLadder::paper_default()),
            reclaim_threshold: Some(9),
            ..FtlConfig::paper_default()
        };
        assert!(cfg.validate().unwrap_err().contains("hard steps"));
        // A degenerate ladder is caught by its own validation.
        let cfg = FtlConfig {
            retry_ladder: Some(RetryLadder {
                hard_steps: 0,
                step_uplift: 0.0,
                soft_uplift: 0.0,
            }),
            ..FtlConfig::paper_default()
        };
        assert!(cfg.validate().is_err());
        // The full stack validates.
        let cfg = FtlConfig {
            retry_ladder: Some(RetryLadder::paper_default()),
            reclaim_threshold: Some(2),
            read_only_on_loss: true,
            ..FtlConfig::paper_default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_map_cache() {
        let cfg = FtlConfig {
            map_cache: Some(MapCacheConfig { cmt_pages: 1 }),
            ..FtlConfig::paper_default()
        };
        assert!(cfg.validate().unwrap_err().contains("cmt_pages"));
        let cfg = FtlConfig {
            map_cache: Some(MapCacheConfig { cmt_pages: 2 }),
            ..FtlConfig::paper_default()
        };
        cfg.validate().unwrap();
    }
}
