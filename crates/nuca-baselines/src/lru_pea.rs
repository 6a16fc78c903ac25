//! LRU-PEA: LRU with Priority Eviction Approach (Lira et al.).

use cache_sim::policy::{FillRequest, InsertionClass, PlacementPolicy};
use cache_sim::replacement::ReplacementPolicy;
use cache_sim::rng::SplitMix64;
use cache_sim::{CacheGeometry, LineState, WayMask};

/// The LRU-PEA placement policy.
///
/// * Incoming lines are mapped to a *random* bankcluster (sublevel),
///   chosen in proportion to cluster sizes.
/// * A hit promotes the line one cluster nearer (generational
///   promotion); the line it swaps with is marked *demoted*.
/// * Displaced lines leave the cache — the distinguishing feature is
///   the eviction priority, implemented by [`PeaLru`], which
///   preferentially victimizes demoted lines (the paper's observation:
///   lines which receive a single hit tend to receive more).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruPea {
    sublevel_masks: Vec<WayMask>,
    weights: Vec<u64>,
    /// One deterministic stream per set, so the cluster chosen for a
    /// fill is a pure function of that set's fill history.
    rngs: Vec<SplitMix64>,
}

impl LruPea {
    /// Creates LRU-PEA placement for a geometry with a deterministic
    /// seed for the random bankcluster mapping.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no sublevels.
    pub fn new(geom: &CacheGeometry, seed: u64) -> Self {
        let s = geom.sublevels();
        assert!(s >= 1, "need at least one sublevel");
        let sublevel_masks: Vec<WayMask> = (0..s).map(|i| geom.sublevel_ways(i)).collect();
        let weights = sublevel_masks.iter().map(|m| m.count() as u64).collect();
        let rngs = (0..geom.sets as u64)
            .map(|set| SplitMix64::new(seed.wrapping_add(set.wrapping_mul(0x9E3779B97F4A7C15))))
            .collect();
        LruPea {
            sublevel_masks,
            weights,
            rngs,
        }
    }
}

impl PlacementPolicy for LruPea {
    fn name(&self) -> &'static str {
        "LRU-PEA"
    }

    fn insertion_mask(&mut self, geom: &CacheGeometry, req: &FillRequest) -> Option<WayMask> {
        let set = geom.set_of(req.addr);
        let pick = self.rngs[set].pick_weighted(&self.weights);
        Some(self.sublevel_masks[pick])
    }

    fn demotion_mask(
        &mut self,
        _geom: &CacheGeometry,
        _line: &LineState,
        _from_way: usize,
    ) -> Option<WayMask> {
        // Displaced lines leave the cache; PEA's bias lives in victim
        // selection, not in lateral movement.
        None
    }

    fn promotion_mask(
        &mut self,
        geom: &CacheGeometry,
        _line: &LineState,
        hit_way: usize,
    ) -> Option<WayMask> {
        let cluster = geom.sublevel(hit_way);
        if cluster == 0 {
            None
        } else {
            Some(self.sublevel_masks[cluster - 1])
        }
    }

    fn on_promotion_swap(&mut self, promoted: &mut LineState, demoted: &mut LineState) {
        promoted.demoted = false;
        demoted.demoted = true;
    }

    fn classify_insertion(&self, _geom: &CacheGeometry, _req: &FillRequest) -> InsertionClass {
        InsertionClass::Other
    }

    fn uses_movement_queue(&self) -> bool {
        true
    }
}

/// LRU-PEA's replacement policy: evict the LRU *demoted* line if the
/// candidate set contains one, otherwise plain LRU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeaLru;

impl PeaLru {
    /// Creates the PEA replacement policy.
    pub fn new() -> Self {
        PeaLru
    }
}

impl ReplacementPolicy for PeaLru {
    fn name(&self) -> &'static str {
        "PEA-LRU"
    }

    fn choose_victim(
        &mut self,
        _set_index: usize,
        set: &mut [LineState],
        candidates: WayMask,
    ) -> usize {
        let demoted = candidates
            .iter()
            .filter(|&w| set[w].demoted)
            .min_by_key(|&w| set[w].lru_seq);
        demoted.unwrap_or_else(|| {
            candidates
                .iter()
                .min_by_key(|&w| set[w].lru_seq)
                .expect("candidate mask must not be empty")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::LineAddr;
    use energy_model::Energy;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sublevels(
            8,
            &[
                (4, Energy::from_pj(21.0), 4),
                (4, Energy::from_pj(33.0), 6),
                (8, Energy::from_pj(50.0), 8),
            ],
        )
    }

    #[test]
    fn inserts_into_random_cluster_weighted_by_size() {
        let g = geom();
        let mut p = LruPea::new(&g, 1);
        let mut per_cluster = [0u64; 3];
        for _ in 0..6000 {
            let m = p
                .insertion_mask(&g, &FillRequest::new(LineAddr(0)))
                .unwrap();
            let s = g.sublevel(m.first().unwrap());
            assert_eq!(m, g.sublevel_ways(s), "mask must be one whole cluster");
            per_cluster[s] += 1;
        }
        // Cluster 2 is twice as big as 0 and 1.
        let ratio = per_cluster[2] as f64 / per_cluster[0] as f64;
        assert!((1.6..2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn promotes_one_cluster_nearer() {
        let g = geom();
        let mut p = LruPea::new(&g, 1);
        let line = LineState::new(LineAddr(0));
        assert_eq!(p.promotion_mask(&g, &line, 0), None);
        assert_eq!(
            p.promotion_mask(&g, &line, 5),
            Some(WayMask::from_range(0..4))
        );
        assert_eq!(
            p.promotion_mask(&g, &line, 12),
            Some(WayMask::from_range(4..8))
        );
    }

    #[test]
    fn swap_marks_demotion() {
        let g = geom();
        let mut p = LruPea::new(&g, 1);
        let mut a = LineState::new(LineAddr(1));
        let mut b = LineState::new(LineAddr(2));
        b.demoted = false;
        p.on_promotion_swap(&mut a, &mut b);
        assert!(!a.demoted);
        assert!(b.demoted);
    }

    #[test]
    fn displaced_lines_leave_the_cache() {
        let g = geom();
        let mut p = LruPea::new(&g, 1);
        let line = LineState::new(LineAddr(0));
        assert_eq!(p.demotion_mask(&g, &line, 3), None);
    }

    #[test]
    fn pea_lru_prefers_demoted_victims() {
        let mut set: Vec<LineState> = (0..4)
            .map(|i| {
                let mut l = LineState::new(LineAddr(i));
                l.lru_seq = i;
                l
            })
            .collect();
        set[3].demoted = true;
        let mut r = PeaLru::new();
        // Way 0 is LRU overall, but way 3 is demoted: PEA picks it.
        assert_eq!(r.choose_victim(0, &mut set, WayMask::full(4)), 3);
        // With no demoted candidate, fall back to LRU.
        set[3].demoted = false;
        assert_eq!(r.choose_victim(0, &mut set, WayMask::full(4)), 0);
        // Among several demoted, the LRU demoted one.
        set[2].demoted = true;
        set[3].demoted = true;
        assert_eq!(r.choose_victim(0, &mut set, WayMask::full(4)), 2);
    }
}
