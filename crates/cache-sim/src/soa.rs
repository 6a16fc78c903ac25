//! Structure-of-arrays recency for LRU-replaced levels.
//!
//! [`PackedLruStack`] packs a set's full LRU recency order into one
//! u64 — sixteen 4-bit way slots, most-recent first — so a hit's LRU
//! update is a handful of straight-line shifts/masks instead of a
//! per-line sequence-number store, and victim selection never reads
//! the set's line states. On levels that enable it (the L1, and every
//! `Lru`-replaced L2/L3 of at most 16 ways except NuRAPID's), the
//! stack replaces `lru_seq` ordering: the two are equivalent because
//! every touch point (hit, fill, promotion swap) updates both orders
//! identically, and victim candidates are always valid lines (invalid
//! ways are filled first), so stale positions of invalidated ways are
//! never consulted. The `properties` suite holds stack-vs-`Lru`
//! equivalence over random access/evict/swap sequences and way masks
//! for every way count, and a packed level against the `lru_seq` level
//! under demotion cascades and promotions.

/// A per-set LRU recency stack packed into one u64.
///
/// Slot `i` (nibble `i`, LSB first) holds the way index that is the
/// `i`-th most recently used; slot 0 is the MRU way. Way counts up to
/// 16 fit. For smaller way counts the upper slots keep their initial
/// identity values (>= the way count) and are never consulted: the
/// ways form a closed permutation of the low slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedLruStack(u64);

impl PackedLruStack {
    /// Maximum ways a packed stack can order (4-bit slots).
    pub const MAX_WAYS: usize = 16;

    /// Identity order: way `i` in slot `i` (way 0 MRU .. way 15 LRU).
    const IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

    /// One per nibble.
    const NIBBLE_LSB: u64 = 0x1111_1111_1111_1111;
    /// Nibble sign bits.
    const NIBBLE_MSB: u64 = 0x8888_8888_8888_8888;

    /// Creates a stack in identity order.
    pub fn new() -> Self {
        PackedLruStack(Self::IDENTITY)
    }

    /// Slot position currently holding `way`.
    ///
    /// SWAR zero-nibble search over `stack ^ (way repeated)`: exactly
    /// one nibble is zero (the stack is a permutation), and the
    /// borrow-ripple false positives of the `(x - 1) & !x` trick can
    /// only appear *above* the first zero nibble, so the lowest
    /// flagged nibble is always the true match.
    #[inline]
    fn position_of(&self, way: u64) -> u32 {
        let x = self.0 ^ way.wrapping_mul(Self::NIBBLE_LSB);
        let zeros = x.wrapping_sub(Self::NIBBLE_LSB) & !x & Self::NIBBLE_MSB;
        zeros.trailing_zeros() / 4
    }

    /// Moves `way` to the MRU slot, shifting the slots above it down.
    #[inline]
    pub fn touch(&mut self, way: usize) {
        debug_assert!(way < Self::MAX_WAYS);
        if self.0 & 0xF == way as u64 {
            // Already MRU — the common case on memoized repeat hits.
            return;
        }
        let pos = self.position_of(way as u64);
        let shift = 4 * pos;
        // Slots above `pos` stay, slots [0, pos) move up one, `way`
        // lands in slot 0. Double shifts keep the edge case pos == 15
        // (shift + 4 == 64) well-defined.
        let above = (self.0 >> shift >> 4) << shift << 4;
        let below = self.0 & ((1u64 << shift) - 1);
        self.0 = above | (below << 4) | way as u64;
    }

    /// Swaps the stack positions of two ways (promotion swap: the
    /// recency metadata travels with the exchanged line states).
    #[inline]
    pub fn swap_ways(&mut self, a: usize, b: usize) {
        debug_assert!(a < Self::MAX_WAYS && b < Self::MAX_WAYS);
        if a == b {
            return;
        }
        let sa = 4 * self.position_of(a as u64);
        let sb = 4 * self.position_of(b as u64);
        let va = (self.0 >> sa) & 0xF;
        let vb = (self.0 >> sb) & 0xF;
        self.0 = (self.0 & !(0xF << sa) & !(0xF << sb)) | (vb << sa) | (va << sb);
    }

    /// The least-recently-used way among `mask` (a way bitmask), for a
    /// level with `ways` ways. Candidates must all be stacked ways —
    /// the caller guarantees `mask` is non-empty and names only valid
    /// (hence touched) ways.
    #[inline]
    pub fn victim_among(&self, mask: u32, ways: usize) -> usize {
        debug_assert!(ways <= Self::MAX_WAYS);
        debug_assert!(mask != 0);
        for pos in (0..ways).rev() {
            let way = ((self.0 >> (4 * pos as u32)) & 0xF) as usize;
            if mask & (1 << way) != 0 {
                return way;
            }
        }
        unreachable!("victim mask names no stacked way");
    }

    /// MRU-first way order (introspection/tests).
    pub fn order(&self, ways: usize) -> Vec<usize> {
        (0..ways)
            .map(|pos| ((self.0 >> (4 * pos as u32)) & 0xF) as usize)
            .collect()
    }
}

impl Default for PackedLruStack {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_identity_order() {
        let s = PackedLruStack::new();
        assert_eq!(s.order(16), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn touch_moves_way_to_front_preserving_relative_order() {
        let mut s = PackedLruStack::new();
        s.touch(3);
        assert_eq!(s.order(5), vec![3, 0, 1, 2, 4]);
        s.touch(4);
        assert_eq!(s.order(5), vec![4, 3, 0, 1, 2]);
        s.touch(4); // MRU touch is a no-op
        assert_eq!(s.order(5), vec![4, 3, 0, 1, 2]);
        s.touch(2);
        assert_eq!(s.order(5), vec![2, 4, 3, 0, 1]);
    }

    #[test]
    fn touch_is_a_permutation_for_every_way_count() {
        for ways in 1..=16usize {
            let mut s = PackedLruStack::new();
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ ways as u64;
            for _ in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.touch((x % ways as u64) as usize);
                let mut order = s.order(ways);
                order.sort_unstable();
                assert_eq!(order, (0..ways).collect::<Vec<_>>());
                // Upper slots keep identity values.
                assert_eq!(
                    s.order(16)[ways..],
                    (ways..16).collect::<Vec<_>>()[..],
                    "ways {ways}"
                );
            }
        }
    }

    #[test]
    fn victim_is_deepest_way_in_mask() {
        let mut s = PackedLruStack::new();
        for w in [0usize, 1, 2, 3] {
            s.touch(w); // order now 3,2,1,0 (way 0 LRU)
        }
        assert_eq!(s.victim_among(0b1111, 4), 0);
        assert_eq!(s.victim_among(0b1110, 4), 1);
        assert_eq!(s.victim_among(0b1000, 4), 3);
    }

    #[test]
    fn swap_exchanges_positions() {
        let mut s = PackedLruStack::new();
        s.touch(2); // 2,0,1,3
        s.swap_ways(2, 3); // 3,0,1,2
        assert_eq!(s.order(4), vec![3, 0, 1, 2]);
        s.swap_ways(1, 1);
        assert_eq!(s.order(4), vec![3, 0, 1, 2]);
    }
}
