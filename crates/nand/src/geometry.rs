//! Device geometry and physical addressing.
//!
//! The paper's evaluation platform is an SSD with 8 channels, 4 TLC chips per
//! channel, 16 KB physical pages split into four 4 KB subpages. [`Geometry`]
//! captures that shape (all dimensions configurable) and provides the
//! conversions between structured addresses and the flat indices used for
//! dense storage.

use std::fmt;

/// Physical shape of the NAND subsystem.
///
/// # Examples
///
/// ```
/// use esp_nand::Geometry;
///
/// let g = Geometry::paper_default();
/// assert_eq!(g.channels, 8);
/// assert_eq!(g.chips_per_channel, 4);
/// assert_eq!(g.subpages_per_page, 4);
/// assert_eq!(g.page_bytes(), 16 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of independent flash channels.
    pub channels: u32,
    /// NAND chips (ways) attached to each channel.
    pub chips_per_channel: u32,
    /// Erase blocks per chip.
    pub blocks_per_chip: u32,
    /// Physical pages per erase block.
    pub pages_per_block: u32,
    /// Subpages per physical page (`N_sub` in the paper).
    pub subpages_per_page: u32,
    /// Bytes per subpage (`S_sub`; the paper uses 4 KB).
    pub subpage_bytes: u32,
}

impl Geometry {
    /// The paper's device shape: 8 channels × 4 chips, 16 KB pages of four
    /// 4 KB subpages, sized here to 32 blocks/chip (a 4 GiB device — the same
    /// shape as the paper's 16 GB device but faster to simulate; the paper
    /// argues in §5 that capacity scaling does not distort results).
    #[must_use]
    pub fn paper_default() -> Self {
        Geometry {
            channels: 8,
            chips_per_channel: 4,
            blocks_per_chip: 32,
            pages_per_block: 256,
            subpages_per_page: 4,
            subpage_bytes: 4 * 1024,
        }
    }

    /// A deliberately tiny geometry for unit tests: 2 channels × 1 chip,
    /// 8 blocks of 4 pages of 4 subpages.
    #[must_use]
    pub fn tiny() -> Self {
        Geometry {
            channels: 2,
            chips_per_channel: 1,
            blocks_per_chip: 8,
            pages_per_block: 4,
            subpages_per_page: 4,
            subpage_bytes: 4 * 1024,
        }
    }

    /// Validates that every dimension is non-zero, the device is
    /// addressable and a page has at most eight subpages (the device's
    /// page record holds eight slot kinds).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid dimension.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            (self.channels, "channels"),
            (self.chips_per_channel, "chips_per_channel"),
            (self.blocks_per_chip, "blocks_per_chip"),
            (self.pages_per_block, "pages_per_block"),
            (self.subpages_per_page, "subpages_per_page"),
            (self.subpage_bytes, "subpage_bytes"),
        ];
        for (v, name) in fields {
            if v == 0 {
                return Err(format!("geometry field `{name}` must be non-zero"));
            }
        }
        if self.subpages_per_page > crate::page::MAX_SUBPAGES {
            return Err(format!(
                "subpages_per_page must be at most {}: a page record packs a 3-bit kind per slot",
                crate::page::MAX_SUBPAGES
            ));
        }
        Ok(())
    }

    /// Bytes per full physical page (`S_full = N_sub × S_sub`).
    #[must_use]
    pub fn page_bytes(&self) -> u64 {
        u64::from(self.subpages_per_page) * u64::from(self.subpage_bytes)
    }

    /// Bytes per erase block.
    #[must_use]
    fn block_bytes(&self) -> u64 {
        self.page_bytes() * u64::from(self.pages_per_block)
    }

    /// Total number of chips.
    #[must_use]
    pub fn chip_count(&self) -> u32 {
        self.channels * self.chips_per_channel
    }

    /// Total number of erase blocks in the device.
    #[must_use]
    pub fn block_count(&self) -> u32 {
        self.chip_count() * self.blocks_per_chip
    }

    /// Total number of physical pages in the device.
    #[must_use]
    fn page_count(&self) -> u64 {
        u64::from(self.block_count()) * u64::from(self.pages_per_block)
    }

    /// Total number of subpages in the device.
    #[must_use]
    pub fn subpage_count(&self) -> u64 {
        self.page_count() * u64::from(self.subpages_per_page)
    }

    /// Raw device capacity in bytes.
    #[must_use]
    fn capacity_bytes(&self) -> u64 {
        u64::from(self.block_count()) * self.block_bytes()
    }

    /// Structured address of the chip with flat index `idx`
    /// (row-major: channel, then way).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= chip_count()`.
    #[must_use]
    pub fn chip_addr(&self, idx: u32) -> ChipAddr {
        assert!(idx < self.chip_count(), "chip index out of range");
        ChipAddr {
            channel: idx / self.chips_per_channel,
            way: idx % self.chips_per_channel,
        }
    }

    /// Flat index of a chip address.
    #[must_use]
    pub fn chip_index(&self, chip: ChipAddr) -> u32 {
        chip.channel * self.chips_per_channel + chip.way
    }

    /// Structured address of the block with device-global flat index `idx`.
    ///
    /// Blocks are numbered chip-major so consecutive global indices land on
    /// the same chip.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= block_count()`.
    #[must_use]
    pub fn block_addr(&self, idx: u32) -> BlockAddr {
        assert!(idx < self.block_count(), "block index out of range");
        BlockAddr {
            chip: self.chip_addr(idx / self.blocks_per_chip),
            block: idx % self.blocks_per_chip,
        }
    }

    /// Device-global flat index of a block address.
    #[must_use]
    pub fn block_index(&self, block: BlockAddr) -> u32 {
        self.chip_index(block.chip) * self.blocks_per_chip + block.block
    }

    /// Checks that an address is within this geometry.
    #[must_use]
    pub fn contains(&self, addr: SubpageAddr) -> bool {
        addr.page.block.chip.channel < self.channels
            && addr.page.block.chip.way < self.chips_per_channel
            && addr.page.block.block < self.blocks_per_chip
            && addr.page.page < self.pages_per_block
            && u32::from(addr.slot) < self.subpages_per_page
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}ch x {}way, {} blk/chip x {} pg/blk, {} x {} B subpages ({} MiB)",
            self.channels,
            self.chips_per_channel,
            self.blocks_per_chip,
            self.pages_per_block,
            self.subpages_per_page,
            self.subpage_bytes,
            self.capacity_bytes() / (1024 * 1024)
        )
    }
}

/// Address of one NAND chip: (channel, way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChipAddr {
    /// Channel index.
    pub channel: u32,
    /// Way (position on the channel).
    pub way: u32,
}

/// Address of one erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr {
    /// Owning chip.
    pub chip: ChipAddr,
    /// Block index within the chip.
    pub block: u32,
}

/// Address of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr {
    /// Owning block.
    pub block: BlockAddr,
    /// Page index within the block.
    pub page: u32,
}

/// Address of one subpage: a physical page plus a subpage slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubpageAddr {
    /// Owning page.
    pub page: PageAddr,
    /// Subpage slot within the page (0-based).
    pub slot: u8,
}

impl PageAddr {
    /// The subpage at `slot` of this page.
    #[must_use]
    pub fn subpage(self, slot: u8) -> SubpageAddr {
        SubpageAddr { page: self, slot }
    }
}

impl BlockAddr {
    /// The page at index `page` of this block.
    #[must_use]
    pub fn page(self, page: u32) -> PageAddr {
        PageAddr { block: self, page }
    }
}

impl fmt::Display for SubpageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{}w{}/b{}/p{}/s{}",
            self.page.block.chip.channel,
            self.page.block.chip.way,
            self.page.block.block,
            self.page.page,
            self.slot
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let g = Geometry::paper_default();
        g.validate().expect("paper geometry is valid");
        assert_eq!(g.chip_count(), 32);
        assert_eq!(g.page_bytes(), 16 * 1024);
        assert_eq!(g.block_bytes(), 4 * 1024 * 1024);
        assert_eq!(g.capacity_bytes(), 4 * 1024 * 1024 * 1024);
    }

    #[test]
    fn block_index_round_trips() {
        let g = Geometry::tiny();
        for idx in 0..g.block_count() {
            let addr = g.block_addr(idx);
            assert_eq!(g.block_index(addr), idx);
        }
    }

    #[test]
    fn chip_index_round_trips() {
        let g = Geometry::paper_default();
        for idx in 0..g.chip_count() {
            assert_eq!(g.chip_index(g.chip_addr(idx)), idx);
        }
    }

    #[test]
    fn consecutive_blocks_share_chip() {
        let g = Geometry::paper_default();
        let a = g.block_addr(0);
        let b = g.block_addr(1);
        assert_eq!(a.chip, b.chip);
        let last_of_chip0 = g.block_addr(g.blocks_per_chip - 1);
        let first_of_chip1 = g.block_addr(g.blocks_per_chip);
        assert_ne!(last_of_chip0.chip, first_of_chip1.chip);
    }

    #[test]
    fn validate_rejects_zero_dimensions() {
        let mut g = Geometry::tiny();
        g.pages_per_block = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_accepts_eight_subpages_and_rejects_nine() {
        let mut g = Geometry::tiny();
        g.subpages_per_page = 8;
        assert_eq!(g.validate(), Ok(()));
        g.subpages_per_page = 9;
        let err = g.validate().unwrap_err();
        assert!(err.contains("at most 8") && err.contains("kind"), "{err}");
    }

    #[test]
    fn contains_checks_all_dimensions() {
        let g = Geometry::tiny();
        let ok = g.block_addr(0).page(0).subpage(0);
        assert!(g.contains(ok));
        let bad_slot = g.block_addr(0).page(0).subpage(4);
        assert!(!g.contains(bad_slot));
        let bad_page = g.block_addr(0).page(4).subpage(0);
        assert!(!g.contains(bad_page));
    }

    #[test]
    fn display_is_informative() {
        let g = Geometry::tiny();
        let s = g.to_string();
        assert!(s.contains("2ch"));
        assert!(s.contains("8 blk/chip"));
    }
}
