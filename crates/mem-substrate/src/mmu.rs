//! The SLIP MMU: the TLB-side mechanism of paper Figure 7.
//!
//! On every TLB miss the MMU (steps Ê–Í):
//!
//! 1. reads the PTE (SLIP codes + sampling-state bit),
//! 2. if the page samples, loads its 32 b reuse-distance distribution
//!    (this is the metadata traffic bounded by time-based sampling),
//! 3. randomly transitions the sampling state,
//! 4. on a sampling→stable transition, recomputes the page's L2/L3
//!    SLIPs with the two EOUs (blocking the TLB for one cycle).
//!
//! During hits in lower-level caches (step Î), observed reuse-distance
//! bins are recorded into the distribution of sampling pages via
//! [`SlipMmu::record_reuse`].

use crate::page_table::PageTable;
use crate::tlb::Tlb;
use cache_sim::{LineAddr, PageId};
use energy_model::Energy;
use slip_core::{
    EnergyOptimizerUnit, EouCost, EouObjective, LevelModelParams, PageState, SamplingConfig, Slip,
    SlipLevel, TimeSampler, Transition,
};

/// Counters for the MMU-side mechanism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmuStats {
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (where all SLIP policy work happens).
    pub tlb_misses: u64,
    /// Distribution-metadata fetches issued (sampling pages only).
    pub metadata_fetches: u64,
    /// Distribution-metadata writebacks on TLB eviction of sampling
    /// pages.
    pub metadata_writebacks: u64,
    /// SLIP recomputations (sampling→stable edges).
    pub slip_recomputes: u64,
    /// Cycles the TLB was blocked for SLIP updates (1 per recompute).
    pub tlb_block_cycles: u64,
}

/// The result of one address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Effective 3 b SLIP codes for [L2, L3]: the PTE codes for stable
    /// pages, the Default SLIP for sampling pages (paper §4.2).
    pub slip_codes: [u8; 2],
    /// Whether the page is currently sampling.
    pub sampling: bool,
    /// Whether this translation missed the TLB.
    pub tlb_miss: bool,
    /// The caller must issue a 32 b distribution-metadata *read* through
    /// the memory hierarchy.
    pub fetch_metadata: bool,
    /// The caller must issue a distribution-metadata *writeback* for
    /// this evicted sampling page.
    pub writeback_metadata_page: Option<PageId>,
    /// Extra cycles this translation cost (TLB blocking on SLIP update).
    pub extra_cycles: u32,
}

/// The SLIP MMU: TLB + page table + time-based sampler + two EOUs.
///
/// # Example
///
/// ```
/// use cache_sim::PageId;
/// use energy_model::HierarchySpec;
/// use mem_substrate::SlipMmu;
/// use slip_core::{LevelModelParams, SlipLevel};
///
/// let tech = HierarchySpec::builtin("45nm").unwrap().technology();
/// let l2 = LevelModelParams::from_level(&tech.l2, tech.l3.mean_access());
/// let l3 = LevelModelParams::from_level(&tech.l3, tech.dram_line_energy());
/// let mut mmu = SlipMmu::new(1, l2, l3);
///
/// let t = mmu.translate(PageId(42));
/// assert!(t.tlb_miss && t.sampling); // fresh pages sample
/// // A hit at L2 with a near reuse distance feeds the distribution.
/// mmu.record_reuse(PageId(42), SlipLevel::L2, 0);
/// ```
#[derive(Debug)]
pub struct SlipMmu {
    tlb: Tlb,
    /// The page table (public for experiment introspection).
    pub page_table: PageTable,
    sampler: TimeSampler,
    eou_l2: EnergyOptimizerUnit,
    eou_l3: EnergyOptimizerUnit,
    params: (LevelModelParams, LevelModelParams),
    default_codes: [u8; 2],
    /// log2 of the rd-block size in bytes (paper default: the 4 KB
    /// page, i.e. 12). Section 7 proposes smaller rd-blocks for large
    /// pages, with the per-block SLIPs held in a SLIP-cache managed
    /// like a TLB; here the TLB structure itself plays that role, so a
    /// non-default shift turns it into the SLIP-cache.
    block_shift: u32,
    /// When set, SLIP recomputation runs the EOU's pre-kernel
    /// `optimize_reference` path (for golden-equivalence testing).
    reference_path: bool,
    /// MMU statistics.
    pub stats: MmuStats,
}

impl SlipMmu {
    /// Creates an MMU with the paper's sampling probabilities and a
    /// 64-entry TLB.
    ///
    /// # Panics
    ///
    /// Panics if the two levels disagree on sublevel count.
    pub fn new(seed: u64, l2: LevelModelParams, l3: LevelModelParams) -> Self {
        Self::with_config(
            seed,
            l2,
            l3,
            SamplingConfig::paper_default(),
            Tlb::paper_default(),
        )
    }

    /// Creates an MMU with explicit sampling configuration and TLB.
    ///
    /// # Panics
    ///
    /// Panics if the two levels disagree on sublevel count.
    pub fn with_config(
        seed: u64,
        l2: LevelModelParams,
        l3: LevelModelParams,
        sampling: SamplingConfig,
        tlb: Tlb,
    ) -> Self {
        assert_eq!(
            l2.sublevels(),
            l3.sublevels(),
            "L2 and L3 must have the same sublevel count"
        );
        let sublevels = l2.sublevels();
        let default = Slip::default_slip(sublevels)
            .expect("1..=8 sublevels")
            .code();
        SlipMmu {
            tlb,
            page_table: PageTable::new(sublevels),
            sampler: TimeSampler::with_config(seed, sampling),
            eou_l2: EnergyOptimizerUnit::new(&l2),
            eou_l3: EnergyOptimizerUnit::new(&l3),
            params: (l2, l3),
            default_codes: [default, default],
            block_shift: 12,
            reference_path: false,
            stats: MmuStats::default(),
        }
    }

    /// Routes SLIP recomputation through the EOU's pre-kernel reference
    /// implementation instead of the fused kernel. The two are
    /// bit-identical by contract; golden-equivalence tests run both and
    /// compare.
    pub fn with_reference_path(mut self, reference: bool) -> Self {
        self.reference_path = reference;
        self
    }

    /// Rebuilds both EOUs with an explicit analytical objective (for
    /// the EOU-objective ablation). Preserves the ABP setting and the
    /// hardware cost.
    pub fn with_eou_objective(mut self, objective: EouObjective) -> Self {
        let abp = self.eou_l2.allows_all_bypass();
        let cost = self.eou_l2.cost();
        self.eou_l2 =
            EnergyOptimizerUnit::with_objective(&self.params.0, objective).with_cost(cost);
        self.eou_l3 =
            EnergyOptimizerUnit::with_objective(&self.params.1, objective).with_cost(cost);
        if !abp {
            self.eou_l2 = self.eou_l2.forbid_all_bypass();
            self.eou_l3 = self.eou_l3.forbid_all_bypass();
        }
        self
    }

    /// Charges `energy_per_op` for each optimization of either EOU —
    /// the hierarchy's `eou` energy — keeping the synthesized latency
    /// and area.
    pub fn with_eou_energy(mut self, energy_per_op: Energy) -> Self {
        let cost = EouCost {
            energy_per_op,
            ..self.eou_l2.cost()
        };
        self.eou_l2 = self.eou_l2.with_cost(cost);
        self.eou_l3 = self.eou_l3.with_cost(cost);
        self
    }

    /// Uses rd-blocks of `2^shift` bytes instead of 4 KB pages as the
    /// profiling/policy granularity (paper Section 7). Must be set
    /// before any access.
    ///
    /// # Panics
    ///
    /// Panics if blocks have already been touched, or the shift is
    /// outside `7..=21` (at least two lines per block, at most 2 MB).
    pub fn with_block_shift(mut self, shift: u32) -> Self {
        assert!(
            self.page_table.is_empty(),
            "block size must be set before any access"
        );
        assert!((7..=21).contains(&shift), "shift must be in 7..=21");
        self.block_shift = shift;
        self
    }

    /// The rd-block a line belongs to (a page number when the shift is
    /// the default 12).
    pub fn block_of(&self, line: LineAddr) -> PageId {
        PageId(line.0 >> (self.block_shift - 6))
    }

    /// `true` if `line`'s rd-block is TLB-resident: translating it is
    /// a TLB hit — `extra_cycles == 0`, no metadata traffic, no
    /// page-table or sampler transition — so an access that also hits
    /// the L1 never reads the rest of the `Translation`
    /// (`slip_codes`/`sampling` matter below the L1 only). This is the
    /// pure residency probe of the L1 fast path; once the L1 hit
    /// is confirmed, [`Self::commit_resident_hit`] performs the real
    /// translation state change.
    #[inline]
    pub fn is_resident_line(&self, line: LineAddr) -> bool {
        self.tlb.contains(self.block_of(line))
    }

    /// Commits the TLB-hit half of [`Self::translate_line`] for a
    /// resident line: the recency splice and the hit credits, skipping
    /// the `Translation` build (on a hit it is assembled from pure
    /// reads of the existing page-table entry, and an L1 hit consumes
    /// none of it).
    #[inline]
    pub fn commit_resident_hit(&mut self, line: LineAddr) {
        let hit = self.tlb.lookup(self.block_of(line));
        debug_assert!(hit, "callers probe residency before committing");
        self.stats.tlb_hits += 1;
    }

    /// Excludes the All-Bypass Policy from both EOUs ("SLIP" vs
    /// "SLIP+ABP" in the paper's figures).
    pub fn forbid_all_bypass(mut self) -> Self {
        self.eou_l2 = self.eou_l2.clone().forbid_all_bypass();
        self.eou_l3 = self.eou_l3.clone().forbid_all_bypass();
        self
    }

    /// Uses `bin_bits`-wide distribution counters instead of the
    /// paper's 4 bits (for the §6 sensitivity study). Must be called
    /// before any page is touched.
    ///
    /// # Panics
    ///
    /// Panics if pages have already been touched.
    pub fn with_bin_bits(mut self, bin_bits: u32) -> Self {
        assert!(
            self.page_table.is_empty(),
            "bin width must be set before any page is touched"
        );
        self.page_table = PageTable::with_bin_bits(self.page_table_sublevels(), bin_bits);
        self
    }

    fn page_table_sublevels(&self) -> usize {
        // Recover S from the Default SLIP code, which is 2^(S-1).
        (self.default_codes[0].trailing_zeros() + 1) as usize
    }

    /// Translates an access to the line's rd-block (a page at the
    /// default shift), performing the Figure 7 TLB-miss work when
    /// needed.
    pub fn translate_line(&mut self, line: LineAddr) -> Translation {
        let block = self.block_of(line);
        self.translate(block)
    }

    /// Translates an access to `page` (or rd-block id), performing the
    /// Figure 7 TLB/SLIP-cache miss work when needed.
    pub fn translate(&mut self, page: PageId) -> Translation {
        if self.tlb.lookup(page) {
            self.stats.tlb_hits += 1;
            let entry = self.page_table.entry_mut(page);
            let sampling = entry.state == PageState::Sampling;
            return Translation {
                slip_codes: if sampling {
                    self.default_codes
                } else {
                    entry.slips
                },
                sampling,
                tlb_miss: false,
                fetch_metadata: false,
                writeback_metadata_page: None,
                extra_cycles: 0,
            };
        }

        // --- TLB miss: steps Ê-Í of Figure 7 ---
        self.stats.tlb_misses += 1;
        let first_touch = self.page_table.entry(page).is_none();
        let transition = {
            let entry = self.page_table.entry_mut(page);
            if first_touch {
                // A fresh PTE starts sampling; the random state
                // transition applies to subsequent misses only, so a
                // page cannot stabilize before observing anything.
                Transition {
                    state: entry.state,
                    became_stable: false,
                }
            } else {
                self.sampler.transition(entry.state)
            }
        };
        let mut extra_cycles = 0;
        if transition.became_stable {
            // Step Í: recompute the SLIPs from the collected profile.
            // Borrowing the entry and the EOUs simultaneously is fine —
            // they are disjoint fields — so no distribution clones.
            let entry = self.page_table.entry_mut(page);
            let (s2, s3) = if self.reference_path {
                (
                    self.eou_l2.optimize_reference(&entry.dists[0]).slip.code(),
                    self.eou_l3.optimize_reference(&entry.dists[1]).slip.code(),
                )
            } else {
                (
                    self.eou_l2.optimize(&entry.dists[0]).slip.code(),
                    self.eou_l3.optimize(&entry.dists[1]).slip.code(),
                )
            };
            entry.slips = [s2, s3];
            self.stats.slip_recomputes += 1;
            self.stats.tlb_block_cycles += 1;
            extra_cycles += 1;
        }
        // The profile must be resident whenever the page samples — and
        // to compute the new SLIP on a sampling→stable edge.
        let was_or_is_sampling =
            transition.became_stable || transition.state == PageState::Sampling;
        let fetch_metadata = was_or_is_sampling;
        if fetch_metadata {
            self.stats.metadata_fetches += 1;
        }
        let entry = self.page_table.entry_mut(page);
        entry.state = transition.state;
        let sampling = entry.state == PageState::Sampling;
        let slip_codes = if sampling {
            self.default_codes
        } else {
            entry.slips
        };

        // Step Ì/TLB fill: a sampling page evicted from the TLB must
        // write its (possibly updated) profile back to DRAM.
        let evicted = self.tlb.insert(page);
        let writeback_metadata_page = evicted.filter(|p| {
            self.page_table
                .entry(*p)
                .is_some_and(|e| e.state == PageState::Sampling)
        });
        if writeback_metadata_page.is_some() {
            self.stats.metadata_writebacks += 1;
        }

        Translation {
            slip_codes,
            sampling,
            tlb_miss: true,
            fetch_metadata,
            writeback_metadata_page,
            extra_cycles,
        }
    }

    /// Records an observed reuse-distance bin for the rd-block of
    /// `line` (Figure 7 step Î). Ignored for stable blocks.
    pub fn record_reuse_line(&mut self, line: LineAddr, level: SlipLevel, bin: usize) {
        let block = self.block_of(line);
        self.record_reuse(block, level, bin);
    }

    /// Records an observed reuse-distance bin for `page` at `level`
    /// (Figure 7 step Î). Ignored for stable pages.
    pub fn record_reuse(&mut self, page: PageId, level: SlipLevel, bin: usize) {
        let entry = self.page_table.entry_mut(page);
        if entry.state == PageState::Sampling {
            entry.dists[level.index()].observe(bin);
        }
    }

    /// Total energy consumed by the two EOUs so far.
    pub fn eou_energy(&self) -> Energy {
        self.eou_l2.energy_consumed() + self.eou_l3.energy_consumed()
    }

    /// Clears MMU statistics while keeping the TLB, page table, and
    /// sampler state (for post-warmup measurement). EOU operation
    /// counts are preserved — their energy is charged where consumed.
    pub fn reset_measurements(&mut self) {
        self.stats = MmuStats::default();
        self.eou_l2.reset_operations();
        self.eou_l3.reset_operations();
    }

    /// The TLB, for inspection.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// EOU optimizations performed by both levels.
    fn eou_operations(m: &SlipMmu) -> u64 {
        m.eou_l2.operations() + m.eou_l3.operations()
    }
    use energy_model::HierarchySpec;

    /// The L2/L3 model parameters of the built-in 45 nm node.
    fn params_45nm() -> (LevelModelParams, LevelModelParams) {
        let tech = HierarchySpec::builtin("45nm").unwrap().technology();
        (
            LevelModelParams::from_level(&tech.l2, tech.l3.mean_access()),
            LevelModelParams::from_level(&tech.l3, tech.dram_line_energy()),
        )
    }

    fn mmu(seed: u64) -> SlipMmu {
        let (l2, l3) = params_45nm();
        SlipMmu::new(seed, l2, l3)
    }

    #[test]
    fn fresh_page_misses_and_samples_with_default_slip() {
        let mut m = mmu(1);
        let t = m.translate(PageId(1));
        assert!(t.tlb_miss);
        assert!(t.sampling);
        assert!(t.fetch_metadata);
        let def = Slip::default_slip(3).unwrap().code();
        assert_eq!(t.slip_codes, [def, def]);
    }

    #[test]
    fn second_access_hits_tlb_without_metadata_traffic() {
        let mut m = mmu(1);
        m.translate(PageId(1));
        let t = m.translate(PageId(1));
        assert!(!t.tlb_miss);
        assert!(!t.fetch_metadata);
        assert_eq!(m.stats.tlb_hits, 1);
        assert_eq!(m.stats.tlb_misses, 1);
    }

    #[test]
    fn pages_eventually_stabilize_and_get_optimized_slips() {
        let mut m = mmu(2);
        // Teach page 1 a pure-miss profile at L2.
        for _ in 0..15 {
            m.record_reuse(PageId(1), SlipLevel::L2, 3);
            m.record_reuse(PageId(1), SlipLevel::L3, 3);
        }
        // Force many TLB misses by cycling through > TLB-capacity pages.
        let mut stable_seen = false;
        for round in 0..200u64 {
            for p in 0..80u64 {
                m.translate(PageId(p));
            }
            let e = m.page_table.entry(PageId(1)).unwrap();
            if e.state == PageState::Stable {
                stable_seen = true;
                // An all-miss profile must produce a bypass at L2.
                let slip = Slip::from_code(3, e.slips[0]).unwrap();
                assert!(slip.is_all_bypass(), "round {round}: got {slip}");
                break;
            }
        }
        assert!(stable_seen, "page never stabilized");
        assert!(m.stats.slip_recomputes > 0);
        assert_eq!(m.stats.tlb_block_cycles, m.stats.slip_recomputes);
        assert!(eou_operations(&m) >= 2 * m.stats.slip_recomputes);
        assert!(m.eou_energy() > Energy::ZERO);
    }

    #[test]
    fn metadata_fetch_fraction_is_near_sampling_fraction() {
        let mut m = mmu(3);
        // Cycle pages to generate many TLB misses; no reuse recording so
        // profiles stay empty (Default SLIP when stable too). Run long
        // enough for the per-page Markov chains to reach stationarity —
        // every page starts in the sampling state.
        for _ in 0..4000 {
            for p in 0..100u64 {
                m.translate(PageId(p));
            }
        }
        let f = m.stats.metadata_fetches as f64 / m.stats.tlb_misses as f64;
        let expect = SamplingConfig::paper_default().expected_sampling_fraction();
        // The paper says ~6% of TLB misses fetch distribution data.
        assert!(
            (f - expect).abs() < 0.02,
            "metadata fetch fraction {f}, expected near {expect}"
        );
    }

    #[test]
    fn sampling_page_eviction_writes_metadata_back() {
        let mut m = mmu(4);
        // Fill the 64-entry TLB with sampling pages, then overflow it.
        let mut writebacks = 0;
        for p in 0..200u64 {
            let t = m.translate(PageId(p));
            if t.writeback_metadata_page.is_some() {
                writebacks += 1;
            }
        }
        assert!(writebacks > 0);
        assert_eq!(m.stats.metadata_writebacks, writebacks);
    }

    #[test]
    fn sub_page_blocks_profile_independently() {
        let mut m = {
            let (l2, l3) = params_45nm();
            SlipMmu::new(8, l2, l3).with_block_shift(11) // 2 KB rd-blocks
        };
        use cache_sim::LineAddr;
        // Lines 0 and 32 sit in the same 4 KB page but different 2 KB
        // blocks.
        let a = LineAddr(0);
        let b = LineAddr(32);
        assert_ne!(m.block_of(a), m.block_of(b));
        m.translate_line(a);
        m.translate_line(b);
        m.record_reuse_line(a, SlipLevel::L2, 0);
        m.record_reuse_line(b, SlipLevel::L2, 3);
        let ea = m.page_table.entry(m.block_of(a)).unwrap().dists[0].clone();
        let eb = m.page_table.entry(m.block_of(b)).unwrap().dists[0].clone();
        assert_eq!(ea.counts(), &[1, 0, 0, 0]);
        assert_eq!(eb.counts(), &[0, 0, 0, 1]);
    }

    #[test]
    fn default_block_is_the_page() {
        let m = mmu(1);
        use cache_sim::LineAddr;
        assert_eq!(m.block_of(LineAddr(0)), PageId(0));
        assert_eq!(m.block_of(LineAddr(63)), PageId(0));
        assert_eq!(m.block_of(LineAddr(64)), PageId(1));
    }

    #[test]
    fn objective_switch_preserves_abp_setting() {
        use slip_core::EouObjective;
        let (l2, l3) = params_45nm();
        let mut m = SlipMmu::new(9, l2, l3)
            .forbid_all_bypass()
            .with_eou_objective(EouObjective::PaperLiteral);
        // A pure-miss profile must now stabilize to the Default SLIP
        // (paper-literal objective ties, Default wins the tie-break).
        for _ in 0..15 {
            m.record_reuse(PageId(1), SlipLevel::L2, 3);
        }
        for _ in 0..400 {
            for p in 0..80u64 {
                m.translate(PageId(p));
            }
            if let Some(e) = m.page_table.entry(PageId(1)) {
                if e.state == PageState::Stable {
                    let slip = Slip::from_code(3, e.slips[0]).unwrap();
                    assert!(slip.is_default(), "got {slip}");
                    return;
                }
            }
        }
        panic!("page never stabilized");
    }

    #[test]
    fn eou_energy_charges_the_configured_op_energy() {
        let op = Energy::from_pj(0.7);
        let mut m = mmu(2)
            .with_eou_energy(op)
            .with_eou_objective(slip_core::EouObjective::PaperLiteral);
        for _ in 0..200 {
            for p in 0..80u64 {
                m.translate(PageId(p));
            }
        }
        assert!(eou_operations(&m) > 0);
        assert_eq!(m.eou_energy(), op * eou_operations(&m) as f64);
    }

    #[test]
    fn stable_pages_do_not_record_reuse() {
        let mut m = mmu(5);
        m.translate(PageId(9));
        // Force the page stable directly.
        m.page_table.entry_mut(PageId(9)).state = PageState::Stable;
        m.record_reuse(PageId(9), SlipLevel::L2, 0);
        assert!(m.page_table.entry(PageId(9)).unwrap().dists[0].is_empty());
    }
}
