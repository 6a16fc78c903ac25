//! Per-level cache statistics.

use crate::policy::InsertionClass;

/// Counters for one cache level.
///
/// These feed the paper's evaluation figures directly:
///
/// * hit/miss and per-sublevel hit counters → Figures 12 and 15,
/// * insertion-class counters → Figure 14,
/// * the `nr_histogram` of reuses-before-eviction → Figure 1,
/// * movement/writeback/bypass counters → Figure 11's energy grouping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that reached this level.
    pub demand_accesses: u64,
    /// Demand hits.
    pub demand_hits: u64,
    /// Demand misses.
    pub demand_misses: u64,
    /// Metadata accesses that reached this level.
    pub metadata_accesses: u64,
    /// Metadata hits.
    pub metadata_hits: u64,
    /// Metadata misses.
    pub metadata_misses: u64,
    /// Hits served by each sublevel (demand + metadata).
    pub hits_per_sublevel: Vec<u64>,
    /// Lines inserted into the level (excludes bypasses).
    pub insertions: u64,
    /// Fills classified by the SLIP class of the inserted line
    /// (indexed by [`InsertionClass::index`]); includes bypasses.
    pub insertion_class: [u64; 4],
    /// Fills that bypassed the level entirely.
    pub bypasses: u64,
    /// Inter-sublevel line movements (demotions and promotions).
    pub movements: u64,
    /// Promotion swaps performed on hits (NUCA policies).
    pub promotions: u64,
    /// Dirty lines written back out of the level.
    pub writebacks: u64,
    /// Lines that left the level (clean or dirty).
    pub evictions: u64,
    /// Lines by number of reuses before eviction: NR = 0, 1, 2, >2
    /// (paper Figure 1).
    pub nr_histogram: [u64; 4],
    /// Incoming writebacks from the level above that hit here.
    pub writeback_hits: u64,
    /// Incoming writebacks that missed and were forwarded down.
    pub writeback_misses: u64,
}

impl CacheStats {
    /// Creates zeroed stats for a level with `sublevels` sublevels.
    pub fn new(sublevels: usize) -> Self {
        CacheStats {
            hits_per_sublevel: vec![0; sublevels],
            ..CacheStats::default()
        }
    }

    /// Demand hit rate in [0, 1]; 0 if there were no demand accesses.
    pub fn demand_hit_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_hits as f64 / self.demand_accesses as f64
        }
    }

    /// Fraction of hits served by each sublevel (paper Figure 15).
    /// Returns zeros if there were no hits.
    pub fn sublevel_hit_fractions(&self) -> Vec<f64> {
        let total: u64 = self.hits_per_sublevel.iter().sum();
        if total == 0 {
            return vec![0.0; self.hits_per_sublevel.len()];
        }
        self.hits_per_sublevel
            .iter()
            .map(|&h| h as f64 / total as f64)
            .collect()
    }

    /// Fraction of fills per insertion class (paper Figure 14).
    /// Returns zeros if there were no fills.
    pub fn insertion_class_fractions(&self) -> [f64; 4] {
        let total: u64 = self.insertion_class.iter().sum();
        let mut out = [0.0; 4];
        if total > 0 {
            for (o, &c) in out.iter_mut().zip(&self.insertion_class) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }

    /// Fraction of lines per reuse count (paper Figure 1).
    /// Returns zeros if no lines have been evicted or finalized.
    pub fn nr_fractions(&self) -> [f64; 4] {
        let total: u64 = self.nr_histogram.iter().sum();
        let mut out = [0.0; 4];
        if total > 0 {
            for (o, &c) in out.iter_mut().zip(&self.nr_histogram) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }

    /// Records that a line left the level (or was still resident at the
    /// end of simulation) after `hits` reuses.
    pub fn record_line_reuses(&mut self, hits: u32) {
        let bin = (hits as usize).min(3);
        self.nr_histogram[bin] += 1;
    }

    /// Records a fill classified as `class`.
    pub fn record_insertion_class(&mut self, class: InsertionClass) {
        self.insertion_class[class.index()] += 1;
    }

    /// Adds another level's counters into this one (field-wise integer
    /// addition); because every field is a count, merge order cannot
    /// change the result.
    pub fn merge(&mut self, other: &CacheStats) {
        assert_eq!(
            self.hits_per_sublevel.len(),
            other.hits_per_sublevel.len(),
            "sublevel count mismatch"
        );
        self.demand_accesses += other.demand_accesses;
        self.demand_hits += other.demand_hits;
        self.demand_misses += other.demand_misses;
        self.metadata_accesses += other.metadata_accesses;
        self.metadata_hits += other.metadata_hits;
        self.metadata_misses += other.metadata_misses;
        for (dst, src) in self
            .hits_per_sublevel
            .iter_mut()
            .zip(&other.hits_per_sublevel)
        {
            *dst += *src;
        }
        self.insertions += other.insertions;
        for (dst, src) in self.insertion_class.iter_mut().zip(&other.insertion_class) {
            *dst += *src;
        }
        self.bypasses += other.bypasses;
        self.movements += other.movements;
        self.promotions += other.promotions;
        self.writebacks += other.writebacks;
        self.evictions += other.evictions;
        for (dst, src) in self.nr_histogram.iter_mut().zip(&other.nr_histogram) {
            *dst += *src;
        }
        self.writeback_hits += other.writeback_hits;
        self.writeback_misses += other.writeback_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_fractions() {
        let mut s = CacheStats::new(3);
        s.demand_accesses = 10;
        s.demand_hits = 4;
        s.demand_misses = 6;
        s.hits_per_sublevel = vec![2, 1, 1];
        assert_eq!(s.demand_hit_rate(), 0.4);
        assert_eq!(s.sublevel_hit_fractions(), vec![0.5, 0.25, 0.25]);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CacheStats::new(3);
        assert_eq!(s.demand_hit_rate(), 0.0);
        assert_eq!(s.sublevel_hit_fractions(), vec![0.0; 3]);
        assert_eq!(s.nr_fractions(), [0.0; 4]);
        assert_eq!(s.insertion_class_fractions(), [0.0; 4]);
    }

    #[test]
    fn nr_histogram_saturates_at_bin_3() {
        let mut s = CacheStats::new(1);
        s.record_line_reuses(0);
        s.record_line_reuses(1);
        s.record_line_reuses(2);
        s.record_line_reuses(3);
        s.record_line_reuses(100);
        assert_eq!(s.nr_histogram, [1, 1, 1, 2]);
        let f = s.nr_fractions();
        assert!((f[3] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn insertion_classes_counted() {
        let mut s = CacheStats::new(1);
        s.record_insertion_class(InsertionClass::AllBypass);
        s.record_insertion_class(InsertionClass::Default);
        s.record_insertion_class(InsertionClass::Default);
        assert_eq!(s.insertion_class[InsertionClass::AllBypass.index()], 1);
        assert_eq!(s.insertion_class[InsertionClass::Default.index()], 2);
    }
}
