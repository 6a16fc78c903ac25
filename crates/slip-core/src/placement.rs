//! The SLIP placement policy: the state machine of paper Figure 6,
//! expressed as a [`cache_sim::PlacementPolicy`].
//!
//! * **Insertion**: a line's 3 b SLIP code (delivered with the fill
//!   request from the TLB/PTE) selects chunk `C_0`; the victim is chosen
//!   inside `C_0` by the underlying replacement policy. The All-Bypass
//!   code skips the level.
//! * **Demotion**: a line displaced from a way in chunk `C_i` of *its
//!   own* SLIP moves into `C_{i+1}`; from the last chunk it leaves the
//!   level (written back if dirty).
//! * **No promotion**: SLIP never moves lines on hits — that is the
//!   core energy argument against NUCA promotion policies.
//!
//! The optional *sublevel-randomized victimization* implements paper
//! Section 7: to preserve DRRIP/SHiP's scan and thrash resistance, the
//! victim chunk is first narrowed to one random sublevel, chosen in
//! proportion to sublevel sizes.

use crate::slip::Slip;
use cache_sim::policy::{FillRequest, InsertionClass, PlacementPolicy};
use cache_sim::rng::SplitMix64;
use cache_sim::{CacheGeometry, LineState, WayMask};

/// Which per-line SLIP code a level consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlipLevel {
    /// Use `slip_codes[0]` (the L2 SLIP).
    L2,
    /// Use `slip_codes[1]` (the L3 SLIP).
    L3,
}

impl SlipLevel {
    /// Index into the 2-entry `slip_codes` arrays.
    pub fn index(self) -> usize {
        match self {
            SlipLevel::L2 => 0,
            SlipLevel::L3 => 1,
        }
    }
}

/// SLIP placement for one cache level.
///
/// # Example
///
/// ```
/// use cache_sim::{CacheGeometry, FillRequest, LineAddr, PlacementPolicy,
///                 WayMask};
/// use energy_model::Energy;
/// use slip_core::{Slip, SlipLevel, SlipPlacement};
///
/// let geom = CacheGeometry::from_sublevels(
///     256,
///     &[(4, Energy::from_pj(21.0), 4),
///       (4, Energy::from_pj(33.0), 6),
///       (8, Energy::from_pj(50.0), 8)],
/// );
/// let mut policy = SlipPlacement::new(SlipLevel::L2, &geom);
///
/// // A {[S0],[S1,S2]} line inserts into the nearest 4 ways.
/// let slip = Slip::from_chunk_ends(3, &[0, 2]).unwrap();
/// let mut req = FillRequest::new(LineAddr(0));
/// req.slip_codes[0] = slip.code();
/// assert_eq!(policy.insertion_mask(&geom, &req),
///            Some(WayMask::from_range(0..4)));
/// ```
#[derive(Debug, Clone)]
pub struct SlipPlacement {
    level: SlipLevel,
    sublevels: usize,
    /// Way mask per sublevel, cached from the geometry.
    sublevel_masks: Vec<WayMask>,
    /// Way count per sublevel (weights for randomized victimization).
    sublevel_weights: Vec<u64>,
    randomize_sublevel: bool,
    rng: SplitMix64,
}

impl SlipPlacement {
    /// Creates SLIP placement for `level` over `geom`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no sublevels or more than 8.
    pub fn new(level: SlipLevel, geom: &CacheGeometry) -> Self {
        let s = geom.sublevels();
        assert!((1..=8).contains(&s), "1..=8 sublevels required");
        let sublevel_masks: Vec<WayMask> = (0..s).map(|i| geom.sublevel_ways(i)).collect();
        let sublevel_weights = sublevel_masks.iter().map(|m| m.count() as u64).collect();
        SlipPlacement {
            level,
            sublevels: s,
            sublevel_masks,
            sublevel_weights,
            randomize_sublevel: false,
            rng: SplitMix64::new(0x51ae_c0de),
        }
    }

    /// Enables Section 7's sublevel-randomized victimization (for use
    /// with DRRIP/SHiP replacement).
    pub fn with_randomized_victim_sublevel(mut self, seed: u64) -> Self {
        self.randomize_sublevel = true;
        self.rng = SplitMix64::new(seed);
        self
    }

    /// The level whose SLIP codes this policy consumes.
    pub fn level(&self) -> SlipLevel {
        self.level
    }

    fn slip_of_code(&self, code: u8) -> Slip {
        // Mask in usize: `1u8 << 8` would overflow for S = 8.
        let mask = (1usize << self.sublevels) - 1;
        Slip::from_code(self.sublevels, (code as usize & mask) as u8)
            .expect("masked code is always in range")
    }

    fn chunk_mask(&mut self, chunk: core::ops::RangeInclusive<usize>) -> WayMask {
        if self.randomize_sublevel && chunk.start() < chunk.end() {
            let lo = *chunk.start();
            let pick = lo + self.rng.pick_weighted(&self.sublevel_weights[chunk]);
            return self.sublevel_masks[pick];
        }
        let mut m = WayMask::EMPTY;
        for s in chunk {
            m = m.union(self.sublevel_masks[s]);
        }
        m
    }
}

impl PlacementPolicy for SlipPlacement {
    fn name(&self) -> &'static str {
        "SLIP"
    }

    fn insertion_mask(&mut self, _geom: &CacheGeometry, req: &FillRequest) -> Option<WayMask> {
        let slip = self.slip_of_code(req.slip_codes[self.level.index()]);
        let first = slip.chunks().next()?;
        Some(self.chunk_mask(first))
    }

    fn demotion_mask(
        &mut self,
        geom: &CacheGeometry,
        line: &LineState,
        from_way: usize,
    ) -> Option<WayMask> {
        let slip = self.slip_of_code(line.slip_codes[self.level.index()]);
        let sublevel = geom.sublevel(from_way);
        // A line may sit outside its SLIP's sublevels if its page's
        // policy changed while it was resident; evict it. Otherwise it
        // moves to the chunk after the one holding `sublevel`, if any:
        // one pass of the decoder finds both.
        let mut chunks = slip.chunks();
        chunks.position(|c| c.contains(&sublevel))?;
        let next = chunks.next()?;
        Some(self.chunk_mask(next))
    }

    fn classify_insertion(&self, _geom: &CacheGeometry, req: &FillRequest) -> InsertionClass {
        let slip = self.slip_of_code(req.slip_codes[self.level.index()]);
        if slip.is_all_bypass() {
            InsertionClass::AllBypass
        } else if slip.bypasses_sublevels() {
            InsertionClass::PartialBypass
        } else if slip.is_default() {
            InsertionClass::Default
        } else {
            InsertionClass::Other
        }
    }

    fn uses_movement_queue(&self) -> bool {
        true
    }

    fn uses_line_metadata(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::LineAddr;
    use energy_model::Energy;

    fn paper_l2_geom() -> CacheGeometry {
        CacheGeometry::from_sublevels(
            256,
            &[
                (4, Energy::from_pj(21.0), 4),
                (4, Energy::from_pj(33.0), 6),
                (8, Energy::from_pj(50.0), 8),
            ],
        )
    }

    fn req_with(code: u8) -> FillRequest {
        let mut r = FillRequest::new(LineAddr(0));
        r.slip_codes = [code, code];
        r
    }

    fn line_with(code: u8) -> LineState {
        let mut l = LineState::new(LineAddr(0));
        l.slip_codes = [code, code];
        l
    }

    #[test]
    fn abp_bypasses_the_level() {
        let g = paper_l2_geom();
        let mut p = SlipPlacement::new(SlipLevel::L2, &g);
        let abp = Slip::all_bypass(3).unwrap();
        assert_eq!(p.insertion_mask(&g, &req_with(abp.code())), None);
        assert_eq!(
            p.classify_insertion(&g, &req_with(abp.code())),
            InsertionClass::AllBypass
        );
    }

    #[test]
    fn default_slip_inserts_anywhere_and_never_demotes() {
        let g = paper_l2_geom();
        let mut p = SlipPlacement::new(SlipLevel::L2, &g);
        let def = Slip::default_slip(3).unwrap();
        assert_eq!(
            p.insertion_mask(&g, &req_with(def.code())),
            Some(WayMask::full(16))
        );
        // From any way, no next chunk exists.
        for way in [0, 5, 12] {
            assert_eq!(p.demotion_mask(&g, &line_with(def.code()), way), None);
        }
        assert_eq!(
            p.classify_insertion(&g, &req_with(def.code())),
            InsertionClass::Default
        );
    }

    #[test]
    fn split_slip_demotes_along_chunks() {
        let g = paper_l2_geom();
        let mut p = SlipPlacement::new(SlipLevel::L2, &g);
        let slip = Slip::from_chunk_ends(3, &[0, 2]).unwrap(); // {[0],[1,2]}
        assert_eq!(
            p.insertion_mask(&g, &req_with(slip.code())),
            Some(WayMask::from_range(0..4))
        );
        // Displaced from sublevel 0 => chunk 1 (ways 4..16).
        assert_eq!(
            p.demotion_mask(&g, &line_with(slip.code()), 2),
            Some(WayMask::from_range(4..16))
        );
        // Displaced from the last chunk => leaves the level.
        assert_eq!(p.demotion_mask(&g, &line_with(slip.code()), 9), None);
        assert_eq!(
            p.classify_insertion(&g, &req_with(slip.code())),
            InsertionClass::Other
        );
    }

    #[test]
    fn partial_bypass_evicts_after_used_prefix() {
        let g = paper_l2_geom();
        let mut p = SlipPlacement::new(SlipLevel::L2, &g);
        let slip = Slip::from_chunk_ends(3, &[0]).unwrap(); // {[0]}
        assert_eq!(
            p.insertion_mask(&g, &req_with(slip.code())),
            Some(WayMask::from_range(0..4))
        );
        assert_eq!(p.demotion_mask(&g, &line_with(slip.code()), 1), None);
        assert_eq!(
            p.classify_insertion(&g, &req_with(slip.code())),
            InsertionClass::PartialBypass
        );
    }

    #[test]
    fn line_outside_its_slip_is_evicted() {
        let g = paper_l2_geom();
        let mut p = SlipPlacement::new(SlipLevel::L2, &g);
        // Line's SLIP only uses sublevel 0, but it sits in way 10
        // (sublevel 2) after a policy change: evict on displacement.
        let slip = Slip::from_chunk_ends(3, &[0]).unwrap();
        assert_eq!(p.demotion_mask(&g, &line_with(slip.code()), 10), None);
    }

    #[test]
    fn l3_level_reads_second_code() {
        let g = paper_l2_geom();
        let mut p = SlipPlacement::new(SlipLevel::L3, &g);
        let mut req = FillRequest::new(LineAddr(0));
        req.slip_codes = [
            Slip::all_bypass(3).unwrap().code(),
            Slip::default_slip(3).unwrap().code(),
        ];
        // L3 uses code[1] = default, not the bypass in code[0].
        assert_eq!(p.insertion_mask(&g, &req), Some(WayMask::full(16)));
    }

    #[test]
    fn randomized_victim_sublevel_stays_in_chunk_and_follows_weights() {
        let g = paper_l2_geom();
        let mut p = SlipPlacement::new(SlipLevel::L2, &g).with_randomized_victim_sublevel(5);
        let slip = Slip::from_chunk_ends(3, &[2]).unwrap(); // one chunk of all
        let chunk_mask = WayMask::full(16);
        let mut per_sublevel = [0u64; 3];
        for _ in 0..3000 {
            let m = p.insertion_mask(&g, &req_with(slip.code())).unwrap();
            assert!(m.difference(chunk_mask).is_empty());
            // The mask must be exactly one sublevel.
            let s = g.sublevel(m.first().unwrap());
            assert_eq!(m, g.sublevel_ways(s));
            per_sublevel[s] += 1;
        }
        // Sublevel 2 has twice the ways of 0 and 1: expect ~2x picks.
        let ratio = per_sublevel[2] as f64 / per_sublevel[0] as f64;
        assert!((1.6..2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn eight_sublevel_codes_are_not_truncated() {
        // Regression: masking the code with `1u8 << 8` wraps in release
        // builds and turned every S = 8 SLIP into the ABP.
        let g = CacheGeometry::from_sublevels(
            16,
            &(0..8)
                .map(|i| (2usize, Energy::from_pj(10.0 + i as f64), 4u32))
                .collect::<Vec<_>>(),
        );
        let mut p = SlipPlacement::new(SlipLevel::L2, &g);
        let def = Slip::default_slip(8).unwrap();
        let mut req = FillRequest::new(LineAddr(0));
        req.slip_codes = [def.code(), def.code()];
        assert_eq!(p.insertion_mask(&g, &req), Some(WayMask::full(16)));
        assert_eq!(p.classify_insertion(&g, &req), InsertionClass::Default);
    }

    #[test]
    fn uses_metadata_and_movement_queue() {
        let g = paper_l2_geom();
        let p = SlipPlacement::new(SlipLevel::L2, &g);
        assert!(p.uses_movement_queue());
        assert!(p.uses_line_metadata());
        assert_eq!(p.name(), "SLIP");
    }
}
