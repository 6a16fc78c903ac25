//! Static dispatch over the closed set of placement/replacement
//! policies.
//!
//! The systems pick a policy at run time from [`PolicyKind`](crate::config::PolicyKind) /
//! [`ReplacementKind`](crate::config::ReplacementKind) — a closed set —
//! so boxing trait objects would pay an indirect call for each of the
//! ~10 policy consultations per simulated access and wall off inlining
//! into the cache controller's hot loop. These enums turn every
//! consultation into a jump table over a few arms whose bodies inline
//! (see DESIGN.md §9).

use cache_sim::{
    BaselinePolicy, CacheGeometry, Drrip, FillRequest, InsertionClass, LineState, Lru,
    PlacementPolicy, ReplacementPolicy, Ship, WayMask,
};
use nuca_baselines::{LruPea, NuRapid, PeaLru};
use slip_core::{PartitionedSlip, SlipPlacement};

/// Every placement policy a system can run, statically dispatched.
#[derive(Debug)]
pub enum AnyPlacement {
    /// Insert-anywhere baseline hierarchy.
    Baseline(BaselinePolicy),
    /// NuRAPID distance-group placement.
    NuRapid(NuRapid),
    /// LRU-PEA promotion/eviction arbitration.
    LruPea(LruPea),
    /// SLIP / SLIP+ABP sublevel placement.
    Slip(SlipPlacement),
    /// SLIP confined to one core's ways of a partitioned shared L3
    /// (paper §7).
    Partitioned(PartitionedSlip),
}

/// Dispatches a method call to whichever policy the enum holds.
macro_rules! each_placement {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPlacement::Baseline($p) => $body,
            AnyPlacement::NuRapid($p) => $body,
            AnyPlacement::LruPea($p) => $body,
            AnyPlacement::Slip($p) => $body,
            AnyPlacement::Partitioned($p) => $body,
        }
    };
}

impl PlacementPolicy for AnyPlacement {
    #[inline]
    fn name(&self) -> &'static str {
        each_placement!(self, p => p.name())
    }

    #[inline]
    fn insertion_mask(&mut self, geom: &CacheGeometry, req: &FillRequest) -> Option<WayMask> {
        each_placement!(self, p => p.insertion_mask(geom, req))
    }

    #[inline]
    fn demotion_mask(
        &mut self,
        geom: &CacheGeometry,
        line: &LineState,
        from_way: usize,
    ) -> Option<WayMask> {
        each_placement!(self, p => p.demotion_mask(geom, line, from_way))
    }

    #[inline]
    fn promotion_mask(
        &mut self,
        geom: &CacheGeometry,
        line: &LineState,
        hit_way: usize,
    ) -> Option<WayMask> {
        each_placement!(self, p => p.promotion_mask(geom, line, hit_way))
    }

    #[inline]
    fn classify_insertion(&self, geom: &CacheGeometry, req: &FillRequest) -> InsertionClass {
        each_placement!(self, p => p.classify_insertion(geom, req))
    }

    #[inline]
    fn on_promotion_swap(&mut self, promoted: &mut LineState, demoted: &mut LineState) {
        each_placement!(self, p => p.on_promotion_swap(promoted, demoted))
    }

    #[inline]
    fn uses_movement_queue(&self) -> bool {
        each_placement!(self, p => p.uses_movement_queue())
    }

    #[inline]
    fn uses_line_metadata(&self) -> bool {
        each_placement!(self, p => p.uses_line_metadata())
    }
}

/// Every replacement policy a system can run, statically dispatched.
#[derive(Debug)]
pub enum AnyReplacement {
    /// Plain LRU.
    Lru(Lru),
    /// DRRIP set-dueling RRIP.
    Drrip(Drrip),
    /// SHiP signature-based insertion.
    Ship(Ship),
    /// LRU-PEA's demotion-aware LRU.
    PeaLru(PeaLru),
}

macro_rules! each_replacement {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyReplacement::Lru($p) => $body,
            AnyReplacement::Drrip($p) => $body,
            AnyReplacement::Ship($p) => $body,
            AnyReplacement::PeaLru($p) => $body,
        }
    };
}

impl ReplacementPolicy for AnyReplacement {
    #[inline]
    fn name(&self) -> &'static str {
        each_replacement!(self, p => p.name())
    }

    #[inline]
    fn choose_victim(
        &mut self,
        set_index: usize,
        set: &mut [LineState],
        candidates: WayMask,
    ) -> usize {
        each_replacement!(self, p => p.choose_victim(set_index, set, candidates))
    }

    #[inline]
    fn on_hit(&mut self, set_index: usize, set: &mut [LineState], way: usize) {
        each_replacement!(self, p => p.on_hit(set_index, set, way))
    }

    #[inline]
    fn on_fill(&mut self, set_index: usize, set: &mut [LineState], way: usize) {
        each_replacement!(self, p => p.on_fill(set_index, set, way))
    }

    #[inline]
    fn on_miss(&mut self, set_index: usize) {
        each_replacement!(self, p => p.on_miss(set_index))
    }

    #[inline]
    fn on_evict(&mut self, line: &LineState) {
        each_replacement!(self, p => p.on_evict(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_matches_the_wrapped_policy() {
        let mut any = AnyPlacement::Baseline(BaselinePolicy::new());
        let mut plain = BaselinePolicy::new();
        let geom = CacheGeometry::uniform(4, 8, energy_model::Energy::from_pj(1.0), 2);
        let req = FillRequest::new(cache_sim::LineAddr(5));
        assert_eq!(any.name(), plain.name());
        assert_eq!(
            any.insertion_mask(&geom, &req),
            plain.insertion_mask(&geom, &req)
        );
        assert_eq!(any.uses_movement_queue(), plain.uses_movement_queue());

        let mut any_r = AnyReplacement::Lru(Lru::new());
        assert_eq!(any_r.name(), Lru::new().name());
        let mut set = vec![LineState::new(cache_sim::LineAddr(0)); 4];
        for (i, l) in set.iter_mut().enumerate() {
            l.valid = true;
            l.lru_seq = 10 - i as u64;
        }
        let victim = any_r.choose_victim(0, &mut set, WayMask::from_bits(0b1111));
        assert_eq!(
            victim,
            Lru::new().choose_victim(0, &mut set, WayMask::from_bits(0b1111))
        );
    }
}
