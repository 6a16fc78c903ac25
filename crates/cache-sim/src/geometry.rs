//! Cache geometry: sets, ways, way→sublevel mapping, and way masks.

use core::fmt;
use energy_model::Energy;

/// A set of ways within one cache set, as a bitmask.
///
/// Placement policies express "insert somewhere in these ways" /
/// "demote into these ways" with `WayMask`s; chunk and sublevel
/// membership are masks too. Supports up to 32 ways.
///
/// # Example
///
/// ```
/// use cache_sim::WayMask;
///
/// let near = WayMask::from_range(0..4);
/// let far = WayMask::from_range(4..16);
/// assert_eq!(near.union(far), WayMask::full(16));
/// assert!(near.contains(2) && !near.contains(4));
/// assert_eq!(near.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WayMask(u32);

impl WayMask {
    /// The empty mask.
    pub const EMPTY: WayMask = WayMask(0);

    /// Mask of all `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 32`.
    #[inline]
    pub fn full(ways: usize) -> Self {
        assert!(ways <= 32, "at most 32 ways supported");
        if ways == 32 {
            WayMask(u32::MAX)
        } else {
            WayMask((1u32 << ways) - 1)
        }
    }

    /// Mask containing exactly `way`.
    #[inline]
    pub fn single(way: usize) -> Self {
        assert!(way < 32);
        WayMask(1 << way)
    }

    /// Mask of a contiguous way range.
    #[inline]
    pub fn from_range(range: core::ops::Range<usize>) -> Self {
        let mut m = 0u32;
        for w in range {
            assert!(w < 32);
            m |= 1 << w;
        }
        WayMask(m)
    }

    /// Raw bits.
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Builds a mask from raw bits.
    #[inline]
    pub fn from_bits(bits: u32) -> Self {
        WayMask(bits)
    }

    /// `true` if `way` is in the mask.
    #[inline]
    pub fn contains(self, way: usize) -> bool {
        way < 32 && self.0 & (1 << way) != 0
    }

    /// Number of ways in the mask.
    #[inline]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if no ways are set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two masks.
    #[inline]
    pub fn union(self, other: WayMask) -> WayMask {
        WayMask(self.0 | other.0)
    }

    /// Intersection of two masks.
    #[inline]
    pub fn intersect(self, other: WayMask) -> WayMask {
        WayMask(self.0 & other.0)
    }

    /// Ways in `self` but not `other`.
    #[inline]
    pub fn difference(self, other: WayMask) -> WayMask {
        WayMask(self.0 & !other.0)
    }

    /// Iterates over the way indices in the mask, lowest first.
    pub fn iter(self) -> WayMaskIter {
        WayMaskIter(self.0)
    }

    /// The lowest way in the mask, if any.
    #[inline]
    pub fn first(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways[")?;
        let mut first = true;
        for w in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{w}")?;
            first = false;
        }
        write!(f, "]")
    }
}

impl IntoIterator for WayMask {
    type Item = usize;
    type IntoIter = WayMaskIter;
    fn into_iter(self) -> WayMaskIter {
        self.iter()
    }
}

/// Iterator over the ways of a [`WayMask`], produced by [`WayMask::iter`].
#[derive(Debug, Clone)]
pub struct WayMaskIter(u32);

impl Iterator for WayMaskIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let w = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(w)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for WayMaskIter {}

/// Per-sublevel energies and latency for [`CacheGeometry::from_rw_sublevels`].
///
/// SRAM sublevels have `read == write == insert`; asymmetric
/// technologies (STT-RAM) price writes — and therefore insertions —
/// several times higher than reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SublevelEnergies {
    /// Ways in this sublevel.
    pub ways: usize,
    /// Read energy per access.
    pub read: Energy,
    /// Write energy per access.
    pub write: Energy,
    /// Insertion energy (the write of an incoming line).
    pub insert: Energy,
    /// Hit latency in cycles.
    pub latency: u32,
}

/// Static geometry of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: usize,
    /// Number of ways per set.
    pub ways: usize,
    /// Sublevel index of each way (nearest sublevel = 0), length `ways`.
    pub sublevel_of_way: Vec<u8>,
    /// Per-way *read* access energy, length `ways`.
    pub way_energy: Vec<Energy>,
    /// Per-way *write* energy, length `ways`; equals `way_energy` for
    /// symmetric (SRAM) technologies.
    pub way_write_energy: Vec<Energy>,
    /// Per-way *insertion* energy, length `ways`; equals
    /// `way_write_energy` unless the technology prices insertions
    /// separately.
    pub way_insert_energy: Vec<Energy>,
    /// Per-way hit latency in cycles, length `ways`.
    pub way_latency: Vec<u32>,
}

impl CacheGeometry {
    /// Builds a geometry from per-sublevel descriptions with separate
    /// read/write/insertion energies.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or the way counts sum to zero or exceed 32.
    pub fn from_rw_sublevels(sets: usize, sublevels: &[SublevelEnergies]) -> Self {
        assert!(sets > 0, "cache must have at least one set");
        let ways: usize = sublevels.iter().map(|s| s.ways).sum();
        assert!(ways > 0 && ways <= 32, "1..=32 ways required, got {ways}");
        let mut sublevel_of_way = Vec::with_capacity(ways);
        let mut way_energy = Vec::with_capacity(ways);
        let mut way_write_energy = Vec::with_capacity(ways);
        let mut way_insert_energy = Vec::with_capacity(ways);
        let mut way_latency = Vec::with_capacity(ways);
        for (s, sub) in sublevels.iter().enumerate() {
            for _ in 0..sub.ways {
                sublevel_of_way.push(s as u8);
                way_energy.push(sub.read);
                way_write_energy.push(sub.write);
                way_insert_energy.push(sub.insert);
                way_latency.push(sub.latency);
            }
        }
        CacheGeometry {
            sets,
            ways,
            sublevel_of_way,
            way_energy,
            way_write_energy,
            way_insert_energy,
            way_latency,
        }
    }

    /// Builds a symmetric geometry from per-sublevel descriptions.
    ///
    /// `sublevels` lists `(way_count, access_energy, latency)` per
    /// sublevel, nearest first; writes and insertions cost the same as
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or the way counts sum to zero or exceed 32.
    pub fn from_sublevels(sets: usize, sublevels: &[(usize, Energy, u32)]) -> Self {
        let rw: Vec<SublevelEnergies> = sublevels
            .iter()
            .map(|&(ways, e, latency)| SublevelEnergies {
                ways,
                read: e,
                write: e,
                insert: e,
                latency,
            })
            .collect();
        Self::from_rw_sublevels(sets, &rw)
    }

    /// A uniform (single-sublevel) geometry, e.g. for an L1.
    pub fn uniform(sets: usize, ways: usize, energy: Energy, latency: u32) -> Self {
        Self::from_sublevels(sets, &[(ways, energy, latency)])
    }

    /// Number of sublevels.
    pub fn sublevels(&self) -> usize {
        self.sublevel_of_way.last().map_or(0, |&s| s as usize + 1)
    }

    /// Total capacity in lines.
    pub fn total_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Lines of capacity in sublevel `s`.
    pub fn sublevel_lines(&self, s: usize) -> usize {
        self.sublevel_ways(s).count() * self.sets
    }

    /// Mask of the ways belonging to sublevel `s`.
    pub fn sublevel_ways(&self, s: usize) -> WayMask {
        let mut m = WayMask::EMPTY;
        for (w, &sw) in self.sublevel_of_way.iter().enumerate() {
            if sw as usize == s {
                m = m.union(WayMask::single(w));
            }
        }
        m
    }

    /// The set index a line maps to. Power-of-two set counts (every
    /// paper configuration) index with a mask instead of a division;
    /// the two forms are exactly equivalent.
    #[inline]
    pub fn set_of(&self, line: crate::addr::LineAddr) -> usize {
        if self.sets.is_power_of_two() {
            (line.0 as usize) & (self.sets - 1)
        } else {
            (line.0 % self.sets as u64) as usize
        }
    }

    /// Sublevel of `way`.
    #[inline]
    pub fn sublevel(&self, way: usize) -> usize {
        self.sublevel_of_way[way] as usize
    }

    /// Read access energy of `way`.
    #[inline]
    pub fn energy(&self, way: usize) -> Energy {
        self.way_energy[way]
    }

    /// Write energy of `way`.
    #[inline]
    pub fn write_energy(&self, way: usize) -> Energy {
        self.way_write_energy[way]
    }

    /// Insertion energy of `way`.
    #[inline]
    pub fn insert_energy(&self, way: usize) -> Energy {
        self.way_insert_energy[way]
    }

    /// `true` when reads, writes, and insertions share one energy table.
    pub fn is_symmetric(&self) -> bool {
        self.way_write_energy == self.way_energy && self.way_insert_energy == self.way_energy
    }

    /// Hit latency of `way` in cycles.
    #[inline]
    pub fn latency(&self, way: usize) -> u32 {
        self.way_latency[way]
    }

    /// Cumulative line capacities of sublevels (`CC_i` of paper §3.2).
    pub fn cumulative_sublevel_lines(&self) -> Vec<usize> {
        (0..self.sublevels())
            .scan(0usize, |acc, s| {
                *acc += self.sublevel_lines(s);
                Some(*acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    fn paper_l2() -> CacheGeometry {
        CacheGeometry::from_sublevels(
            256,
            &[
                (4, Energy::from_pj(21.0), 4),
                (4, Energy::from_pj(33.0), 6),
                (8, Energy::from_pj(50.0), 8),
            ],
        )
    }

    #[test]
    fn waymask_basics() {
        let m = WayMask::from_range(2..5);
        assert_eq!(m.count(), 3);
        assert!(m.contains(2) && m.contains(4) && !m.contains(5));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(m.first(), Some(2));
        assert_eq!(WayMask::EMPTY.first(), None);
        assert!(WayMask::EMPTY.is_empty());
        assert_eq!(WayMask::full(16).count(), 16);
        assert_eq!(WayMask::full(32).count(), 32);
    }

    #[test]
    fn waymask_set_operations() {
        let a = WayMask::from_range(0..4);
        let b = WayMask::from_range(2..6);
        assert_eq!(a.union(b), WayMask::from_range(0..6));
        assert_eq!(a.intersect(b), WayMask::from_range(2..4));
        assert_eq!(a.difference(b), WayMask::from_range(0..2));
    }

    #[test]
    fn waymask_display() {
        assert_eq!(WayMask::from_range(0..3).to_string(), "ways[0,1,2]");
        assert_eq!(WayMask::EMPTY.to_string(), "ways[]");
    }

    #[test]
    fn waymask_iter_is_exact_size() {
        let m = WayMask::from_range(1..9);
        let it = m.iter();
        assert_eq!(it.len(), 8);
        assert_eq!(m.into_iter().count(), 8);
    }

    #[test]
    fn geometry_paper_l2_shape() {
        let g = paper_l2();
        assert_eq!(g.ways, 16);
        assert_eq!(g.sublevels(), 3);
        assert_eq!(g.total_lines(), 4096);
        assert_eq!(g.sublevel_lines(0), 1024);
        assert_eq!(g.sublevel_lines(2), 2048);
        assert_eq!(g.cumulative_sublevel_lines(), vec![1024, 2048, 4096]);
        assert_eq!(g.sublevel_ways(0), WayMask::from_range(0..4));
        assert_eq!(g.sublevel_ways(2), WayMask::from_range(8..16));
        assert_eq!(
            g.sublevel_ways(1).union(g.sublevel_ways(2)),
            WayMask::from_range(4..16)
        );
        assert_eq!(g.sublevel(5), 1);
        assert_eq!(g.energy(10).as_pj(), 50.0);
        assert_eq!(g.latency(0), 4);
    }

    #[test]
    fn set_mapping_wraps() {
        let g = paper_l2();
        assert_eq!(g.set_of(LineAddr(0)), 0);
        assert_eq!(g.set_of(LineAddr(256)), 0);
        assert_eq!(g.set_of(LineAddr(257)), 1);
    }

    #[test]
    fn uniform_geometry() {
        let g = CacheGeometry::uniform(64, 8, Energy::from_pj(5.0), 4);
        assert_eq!(g.sublevels(), 1);
        assert_eq!(g.ways, 8);
        assert!(g.way_energy.iter().all(|&e| e.as_pj() == 5.0));
    }

    #[test]
    #[should_panic(expected = "1..=32 ways")]
    fn geometry_rejects_too_many_ways() {
        CacheGeometry::from_sublevels(4, &[(33, Energy::ZERO, 1)]);
    }

    #[test]
    fn symmetric_constructors_fill_all_three_tables() {
        let g = paper_l2();
        assert!(g.is_symmetric());
        assert_eq!(g.way_write_energy, g.way_energy);
        assert_eq!(g.way_insert_energy, g.way_energy);
        assert_eq!(g.write_energy(10), g.energy(10));
        assert_eq!(g.insert_energy(0), g.energy(0));
    }

    #[test]
    fn rw_geometry_carries_asymmetric_tables() {
        let g = CacheGeometry::from_rw_sublevels(
            2048,
            &[
                SublevelEnergies {
                    ways: 4,
                    read: Energy::from_pj(40.0),
                    write: Energy::from_pj(240.0),
                    insert: Energy::from_pj(240.0),
                    latency: 15,
                },
                SublevelEnergies {
                    ways: 12,
                    read: Energy::from_pj(106.0),
                    write: Energy::from_pj(636.0),
                    insert: Energy::from_pj(500.0),
                    latency: 23,
                },
            ],
        );
        assert!(!g.is_symmetric());
        assert_eq!(g.energy(0).as_pj(), 40.0);
        assert_eq!(g.write_energy(0).as_pj(), 240.0);
        assert_eq!(g.insert_energy(15).as_pj(), 500.0);
        assert_eq!(g.sublevel(15), 1);
    }
}
