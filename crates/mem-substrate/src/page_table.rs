//! The page table, holding per-page SLIP codes (in "ignored" PTE bits)
//! and the sampling state bit, plus the per-page 32 b reuse-distance
//! distributions conceptually stored in DRAM (paper §3.1, §4.1).

use cache_sim::hash::FxHashMap;
use cache_sim::PageId;
use slip_core::{PageState, RdDistribution, Slip, SlipLevel};

/// Per-page metadata: 6 b of SLIPs + 1 state bit in the PTE, and two
/// 16 b distributions (L2, L3) in DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct PageEntry {
    /// 3 b SLIP codes for [L2, L3].
    pub slips: [u8; 2],
    /// Sampling/stable state (one PTE bit).
    pub state: PageState,
    /// Reuse-distance distributions for [L2, L3].
    pub dists: [RdDistribution; 2],
}

impl PageEntry {
    /// A fresh page: sampling, Default SLIPs, empty distributions.
    pub fn new(sublevels: usize) -> Self {
        Self::with_bin_bits(sublevels, 4)
    }

    /// A fresh page with custom distribution-counter width (for the §6
    /// bin-width sensitivity study).
    pub fn with_bin_bits(sublevels: usize, bin_bits: u32) -> Self {
        let default = Slip::default_slip(sublevels)
            .expect("1..=8 sublevels")
            .code();
        let bins = sublevels + 1;
        PageEntry {
            slips: [default, default],
            state: PageState::Sampling,
            dists: [
                RdDistribution::new(bins, bin_bits),
                RdDistribution::new(bins, bin_bits),
            ],
        }
    }

    /// PTE storage the SLIP mechanism consumes, in bits (paper: 6 b of
    /// SLIPs + 1 state bit, fitting in the x86-64 PTE's ignored bits).
    pub const PTE_BITS: u32 = 7;

    /// DRAM distribution storage per page, in bits (paper: 32 b).
    pub fn dram_metadata_bits(&self) -> u32 {
        self.dists.iter().map(|d| d.storage_bits()).sum()
    }
}

/// The page table: a growable map from page number to [`PageEntry`].
///
/// # Example
///
/// ```
/// use cache_sim::PageId;
/// use mem_substrate::PageTable;
/// use slip_core::{PageState, SlipLevel};
///
/// let mut pt = PageTable::new(3);
/// let entry = pt.entry_mut(PageId(7));
/// assert_eq!(entry.state, PageState::Sampling);
/// entry.dists[SlipLevel::L2.index()].observe(0);
/// assert_eq!(pt.entry_mut(PageId(7)).dists[0].counts()[0], 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PageTable {
    sublevels: usize,
    bin_bits: u32,
    /// Looked up on every translation, so it uses the fast
    /// deterministic hasher rather than std's seeded SipHash.
    pages: FxHashMap<PageId, PageEntry>,
}

impl PageTable {
    /// Creates an empty page table for levels with `sublevels`
    /// sublevels and the paper's 4-bit distribution counters.
    ///
    /// # Panics
    ///
    /// Panics if `sublevels` is not in `1..=8`.
    pub fn new(sublevels: usize) -> Self {
        Self::with_bin_bits(sublevels, 4)
    }

    /// Creates an empty page table with custom distribution-counter
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `sublevels` is not in `1..=8` or `bin_bits` is not in
    /// `1..=16`.
    pub fn with_bin_bits(sublevels: usize, bin_bits: u32) -> Self {
        assert!((1..=8).contains(&sublevels), "1..=8 sublevels required");
        assert!((1..=16).contains(&bin_bits), "1..=16 bin bits required");
        PageTable {
            sublevels,
            bin_bits,
            pages: FxHashMap::default(),
        }
    }

    /// Number of pages touched so far.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` if no page has been touched.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The entry for `page`, creating a fresh sampling entry on first
    /// touch.
    pub fn entry_mut(&mut self, page: PageId) -> &mut PageEntry {
        self.pages
            .entry(page)
            .or_insert_with(|| PageEntry::with_bin_bits(self.sublevels, self.bin_bits))
    }

    /// Read-only view of an existing entry.
    pub fn entry(&self, page: PageId) -> Option<&PageEntry> {
        self.pages.get(&page)
    }

    /// Records an observed reuse-distance bin for `page` at `level`.
    pub fn observe(&mut self, page: PageId, level: SlipLevel, bin: usize) {
        self.entry_mut(page).dists[level.index()].observe(bin);
    }

    /// Iterates over all (page, entry) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PageId, &PageEntry)> {
        self.pages.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_is_sampling_with_default_slip() {
        let mut pt = PageTable::new(3);
        let e = pt.entry_mut(PageId(1));
        assert_eq!(e.state, PageState::Sampling);
        let def = Slip::default_slip(3).unwrap().code();
        assert_eq!(e.slips, [def, def]);
        assert!(e.dists[0].is_empty());
        assert!(e.dists[1].is_empty());
    }

    #[test]
    fn paper_storage_overheads() {
        let e = PageEntry::new(3);
        // 32 b of distribution metadata per page => 0.1% of a 4 KB page.
        assert_eq!(e.dram_metadata_bits(), 32);
        let overhead = f64::from(e.dram_metadata_bits()) / (4096.0 * 8.0);
        assert!(overhead < 0.0011, "overhead {overhead}");
        // 6 b of SLIPs + 1 state bit fit the PTE's >= 14 ignored bits
        // (the Intel SDM guarantees at least 14 in 64-bit paging).
        let ignored_pte_bits = 14;
        assert!(PageEntry::PTE_BITS <= ignored_pte_bits);
    }

    #[test]
    fn observe_updates_the_right_level() {
        let mut pt = PageTable::new(3);
        pt.observe(PageId(3), SlipLevel::L2, 0);
        pt.observe(PageId(3), SlipLevel::L3, 3);
        let e = pt.entry(PageId(3)).unwrap();
        assert_eq!(e.dists[0].counts(), &[1, 0, 0, 0]);
        assert_eq!(e.dists[1].counts(), &[0, 0, 0, 1]);
    }

    #[test]
    fn len_counts_touched_pages() {
        let mut pt = PageTable::new(3);
        assert!(pt.is_empty());
        pt.entry_mut(PageId(1));
        pt.entry_mut(PageId(2));
        pt.entry_mut(PageId(1));
        assert_eq!(pt.len(), 2);
        let bits: u64 = pt
            .iter()
            .map(|(_, e)| u64::from(e.dram_metadata_bits()))
            .sum();
        assert_eq!(bits, 64);
    }
}
