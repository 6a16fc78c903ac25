//! Quantized reuse-distance distributions (paper Section 4.1).
//!
//! SLIP stores, per page and per cache level, the distribution of reuse
//! distances of the page's lines over `K + 1` bins, where `K` is the
//! number of sublevels: bin `i < K` counts references with reuse
//! distance in `[CC_{i-1}, CC_i)` lines (`CC` = cumulative sublevel
//! capacity), and the last bin counts references beyond the level's
//! used capacity — including all misses. Each bin is a low-precision
//! saturating counter (4 bits in the paper); when a bin would overflow,
//! *all* bins are halved, which both avoids saturation and exponentially
//! decays stale history.

use crate::slip::MAX_SUBLEVELS;
use core::fmt;

/// Most bins a distribution can hold: one per sublevel of the widest
/// supported level, plus the beyond-capacity bin.
pub const MAX_BINS: usize = MAX_SUBLEVELS + 1;

/// Number of distribution bins used by the paper (3 sublevels + 1).
pub const PAPER_BINS: usize = 4;

/// Counter width used by the paper.
pub const PAPER_BIN_BITS: u32 = 4;

/// A quantized reuse-distance distribution.
///
/// # Example
///
/// ```
/// use slip_core::RdDistribution;
///
/// let mut d = RdDistribution::paper_default();
/// for _ in 0..3 {
///     d.observe(0); // three near reuses
/// }
/// d.observe(3); // one miss
/// let p = d.probabilities();
/// assert!((p[0] - 0.75).abs() < 1e-12);
/// assert!((p[3] - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RdDistribution {
    /// Counters inline (no heap block per page); slots at and above
    /// `bins` stay zero, so the derived comparisons see only the used
    /// prefix.
    counts: [u16; MAX_BINS],
    bins: u8,
    max_count: u16,
}

impl RdDistribution {
    /// Creates a zeroed distribution with `bins` bins of `bits`-wide
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is not in `1..=MAX_BINS` or `bits` is not in
    /// `1..=16`.
    pub fn new(bins: usize, bits: u32) -> Self {
        assert!(bins > 0, "at least one bin required");
        assert!(bins <= MAX_BINS, "at most {MAX_BINS} bins supported");
        assert!((1..=16).contains(&bits), "counter width must be 1..=16");
        RdDistribution {
            counts: [0; MAX_BINS],
            bins: bins as u8,
            max_count: ((1u32 << bits) - 1) as u16,
        }
    }

    /// The paper's configuration: 4 bins x 4 bits.
    pub fn paper_default() -> Self {
        Self::new(PAPER_BINS, PAPER_BIN_BITS)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        usize::from(self.bins)
    }

    /// Maximum value a counter may hold.
    pub fn max_count(&self) -> u16 {
        self.max_count
    }

    /// Raw counter values.
    pub fn counts(&self) -> &[u16] {
        &self.counts[..self.bins()]
    }

    /// Sum of all counters.
    pub fn total(&self) -> u32 {
        self.counts().iter().map(|&c| u32::from(c)).sum()
    }

    /// `true` if no observations have been recorded (or all have decayed
    /// away).
    pub fn is_empty(&self) -> bool {
        self.counts().iter().all(|&c| c == 0)
    }

    /// Records one reference whose reuse distance falls in `bin`.
    ///
    /// If the bin counter is saturated, all counters are halved first
    /// (paper Section 4.1: `[4, 15, 0, 12]` + overflow in bin 1 becomes
    /// `[2, 8, 0, 6]` including the new observation).
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range.
    pub fn observe(&mut self, bin: usize) {
        assert!(bin < self.bins(), "bin {bin} out of range");
        if self.counts[bin] == self.max_count {
            // Unused slots are zero and stay zero.
            for c in &mut self.counts {
                *c /= 2;
            }
        }
        self.counts[bin] += 1;
    }

    /// Normalized probabilities per bin (`P_x^d` aggregated to bins).
    /// All-zero counts yield a uniform distribution, matching the
    /// paper's treatment of unknown reuse behavior as Default-SLIP-like.
    ///
    /// Thin allocating wrapper over
    /// [`write_probabilities`](Self::write_probabilities); hot paths
    /// should reuse a buffer with that method instead.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.bins()];
        self.write_probabilities(&mut out);
        out
    }

    /// Writes the normalized bin probabilities into a caller-owned
    /// buffer (the allocation-free form of
    /// [`probabilities`](Self::probabilities); identical values, bit
    /// for bit).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the bin count.
    pub fn write_probabilities(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.bins(), "one slot per bin");
        let total = self.total();
        if total == 0 {
            out.fill(1.0 / self.bins() as f64);
            return;
        }
        for (o, &c) in out.iter_mut().zip(self.counts()) {
            *o = f64::from(c) / total as f64;
        }
    }

    /// Packs the counters into a little-endian bit string (16 bits for
    /// the paper configuration), the form stored per page in DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the configuration needs more than 64 bits.
    pub fn to_bits(&self) -> u64 {
        let width = 16 - self.max_count.leading_zeros();
        assert!(
            width as usize * self.bins() <= 64,
            "packed distribution exceeds 64 bits"
        );
        let mut out = 0u64;
        for (i, &c) in self.counts().iter().enumerate() {
            out |= u64::from(c) << (i as u32 * width);
        }
        out
    }

    /// Unpacks a distribution packed by [`to_bits`](Self::to_bits) with
    /// the same geometry.
    pub fn from_bits(bins: usize, bits: u32, packed: u64) -> Self {
        let mut d = Self::new(bins, bits);
        let mask = u64::from(d.max_count);
        for i in 0..bins {
            d.counts[i] = ((packed >> (i as u32 * bits)) & mask) as u16;
        }
        d
    }

    /// Storage size of the packed form, in bits.
    pub fn storage_bits(&self) -> u32 {
        let width = 16 - self.max_count.leading_zeros();
        width * u32::from(self.bins)
    }
}

impl fmt::Display for RdDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.counts().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// Maps a reuse distance in lines to its distribution bin, given the
/// cumulative sublevel capacities `CC_i` in lines (paper Section 4.1).
///
/// Distances below `cumulative[0]` land in bin 0; distances at or above
/// the last capacity land in the final bin `cumulative.len()`.
///
/// # Example
///
/// ```
/// use slip_core::bin_for_distance;
///
/// let cc = [1024, 2048, 4096]; // paper L2 sublevels in lines
/// assert_eq!(bin_for_distance(100, &cc), 0);
/// assert_eq!(bin_for_distance(1024, &cc), 1);
/// assert_eq!(bin_for_distance(4095, &cc), 2);
/// assert_eq!(bin_for_distance(1 << 30, &cc), 3);
/// ```
pub fn bin_for_distance(distance: u64, cumulative: &[usize]) -> usize {
    cumulative
        .iter()
        .position(|&cc| distance < cc as u64)
        .unwrap_or(cumulative.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_halving_example() {
        // Paper §4.1: counts [4, 15, 0, 12], new access in the bin
        // holding 15 => [2, 8, 0, 6].
        let mut d = RdDistribution::paper_default();
        d.counts[..4].copy_from_slice(&[4, 15, 0, 12]);
        d.observe(1);
        assert_eq!(d.counts(), &[2, 8, 0, 6]);
    }

    #[test]
    fn counters_never_exceed_max() {
        let mut d = RdDistribution::paper_default();
        for _ in 0..1000 {
            d.observe(2);
        }
        assert!(d.counts().iter().all(|&c| c <= d.max_count()));
    }

    #[test]
    fn empty_distribution_is_uniform() {
        let d = RdDistribution::paper_default();
        assert!(d.is_empty());
        assert_eq!(d.probabilities(), vec![0.25; 4]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut d = RdDistribution::paper_default();
        for bin in [0, 0, 1, 3, 3, 3, 2] {
            d.observe(bin);
        }
        let sum: f64 = d.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn write_probabilities_matches_allocating_form() {
        let mut d = RdDistribution::paper_default();
        for bin in [0, 0, 1, 3, 3, 3, 2] {
            d.observe(bin);
        }
        let mut buf = [0.0f64; 4];
        d.write_probabilities(&mut buf);
        for (a, b) in buf.iter().zip(&d.probabilities()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "one slot per bin")]
    fn write_probabilities_rejects_wrong_len() {
        RdDistribution::paper_default().write_probabilities(&mut [0.0; 3]);
    }

    #[test]
    fn pack_round_trip() {
        let mut d = RdDistribution::paper_default();
        for bin in [0, 1, 1, 2, 3, 3, 3, 3, 0] {
            d.observe(bin);
        }
        let packed = d.to_bits();
        let back = RdDistribution::from_bits(4, 4, packed);
        assert_eq!(back, d);
        assert_eq!(d.storage_bits(), 16);
    }

    #[test]
    fn storage_matches_paper_claims() {
        // One 4x4 distribution = 16 b; two per page (L2 + L3) = 32 b,
        // the paper's per-page DRAM overhead.
        let d = RdDistribution::paper_default();
        assert_eq!(2 * d.storage_bits(), 32);
    }

    #[test]
    fn narrow_counters_saturate_faster() {
        let mut d = RdDistribution::new(4, 2);
        assert_eq!(d.max_count(), 3);
        for _ in 0..3 {
            d.observe(0);
        }
        d.observe(1);
        // Bin 0 is full (3) but bin 1's observe does not halve.
        assert_eq!(d.counts(), &[3, 1, 0, 0]);
        d.observe(0); // halves: [1, 0, 0, 0] then +1 -> [2, 0, 0, 0]
        assert_eq!(d.counts(), &[2, 0, 0, 0]);
    }

    #[test]
    fn bin_for_distance_edges() {
        let cc = [1024usize, 2048, 4096];
        assert_eq!(bin_for_distance(0, &cc), 0);
        assert_eq!(bin_for_distance(1023, &cc), 0);
        assert_eq!(bin_for_distance(1024, &cc), 1);
        assert_eq!(bin_for_distance(2047, &cc), 1);
        assert_eq!(bin_for_distance(2048, &cc), 2);
        assert_eq!(bin_for_distance(4096, &cc), 3);
        assert_eq!(bin_for_distance(u64::MAX, &cc), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observe_rejects_bad_bin() {
        RdDistribution::paper_default().observe(4);
    }

    #[test]
    #[should_panic(expected = "at most 9 bins")]
    fn rejects_more_bins_than_sublevels_allow() {
        RdDistribution::new(MAX_BINS + 1, 4);
    }

    #[test]
    fn widest_distribution_halves_every_bin() {
        let mut d = RdDistribution::new(MAX_BINS, 2);
        for bin in 0..MAX_BINS {
            d.observe(bin);
            d.observe(bin);
        }
        d.observe(MAX_BINS - 1);
        d.observe(MAX_BINS - 1); // saturated: halves all, then +1
        assert_eq!(d.counts(), &[1, 1, 1, 1, 1, 1, 1, 1, 2]);
        assert_eq!(RdDistribution::from_bits(MAX_BINS, 2, d.to_bits()), d);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn rejects_zero_width() {
        RdDistribution::new(4, 0);
    }

    #[test]
    fn display_shows_counts() {
        let mut d = RdDistribution::paper_default();
        d.observe(0);
        d.observe(3);
        assert_eq!(d.to_string(), "[1, 0, 0, 1]");
    }
}
