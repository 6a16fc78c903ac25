//! A fully-associative, LRU translation lookaside buffer.
//!
//! Table 1 does not specify the TLB; we use a 64-entry fully-associative
//! LRU TLB, typical of the paper's era (documented in DESIGN.md). The
//! TLB matters to SLIP because all policy work — state transitions,
//! distribution fetches, SLIP recomputation — happens on TLB misses
//! (paper Figure 7).
//!
//! Recency is an intrusive doubly-linked list threaded through the
//! entry slots, so lookup, refresh, and capacity eviction are all O(1)
//! — the TLB sits on the per-access hot path, and high-miss-rate
//! workloads evict on a third of their accesses.

use cache_sim::hash::FxHashMap;
use cache_sim::PageId;

/// Default TLB capacity in entries.
pub const DEFAULT_TLB_ENTRIES: usize = 64;

/// Sentinel "no slot" link.
const NONE: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    page: PageId,
    prev: usize,
    next: usize,
}

/// A fully-associative LRU TLB.
///
/// # Example
///
/// ```
/// use cache_sim::PageId;
/// use mem_substrate::Tlb;
///
/// let mut tlb = Tlb::new(2);
/// assert!(!tlb.lookup(PageId(1))); // cold miss
/// tlb.insert(PageId(1));
/// assert!(tlb.lookup(PageId(1)));
/// tlb.insert(PageId(2));
/// let evicted = tlb.insert(PageId(3)); // capacity eviction
/// assert_eq!(evicted, Some(PageId(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    capacity: usize,
    /// page -> slot index. Consulted every access, so it uses the fast
    /// deterministic hasher rather than std's seeded SipHash.
    map: FxHashMap<PageId, usize>,
    slots: Vec<Slot>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (the eviction victim).
    tail: usize,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            capacity,
            map: FxHashMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            slots: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
            hits: 0,
            misses: 0,
        }
    }

    /// Creates the default 64-entry TLB.
    pub fn paper_default() -> Self {
        Tlb::new(DEFAULT_TLB_ENTRIES)
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.map.len()
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NONE => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NONE => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Attaches slot `i` at the MRU end of the recency list.
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NONE;
        self.slots[i].next = self.head;
        match self.head {
            NONE => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Looks up `page`, updating recency and hit/miss counters.
    /// Returns `true` on a hit.
    pub fn lookup(&mut self, page: PageId) -> bool {
        match self.probe(page) {
            Some(i) => {
                self.commit_hit(i);
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Pure residency probe returning the entry's slot handle — no
    /// counters, no recency update. A `Some` handle stays valid until
    /// the next insertion or lookup miss; pass it to
    /// [`Self::commit_hit`] to turn the probe into a real hit without
    /// paying the map lookup twice.
    #[inline]
    pub fn probe(&self, page: PageId) -> Option<usize> {
        // Repeat touches of the MRU entry (nearly every access of an
        // L1-hit run) answer without hashing the page.
        if self.head != NONE && self.slots[self.head].page == page {
            return Some(self.head);
        }
        self.map.get(&page).copied()
    }

    /// Commits a hit on a slot handle from [`Self::probe`]: counts it
    /// and refreshes recency, exactly like a successful
    /// [`Self::lookup`] on the probed page.
    #[inline]
    pub fn commit_hit(&mut self, i: usize) {
        debug_assert!(i < self.slots.len(), "stale TLB slot handle");
        self.hits += 1;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Inserts `page` (after a miss), returning the evicted page if the
    /// TLB was full. Inserting a resident page just refreshes it.
    pub fn insert(&mut self, page: PageId) -> Option<PageId> {
        if let Some(&i) = self.map.get(&page) {
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Slot {
                page,
                prev: NONE,
                next: NONE,
            });
            self.map.insert(page, i);
            self.push_front(i);
            return None;
        }
        // Full: reuse the LRU slot for the incoming page.
        let i = self.tail;
        let victim = self.slots[i].page;
        self.map.remove(&victim);
        self.unlink(i);
        self.slots[i].page = page;
        self.map.insert(page, i);
        self.push_front(i);
        Some(victim)
    }

    /// `true` if `page` is resident (no recency update).
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.probe(page).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4);
        assert!(!t.lookup(PageId(1)));
        t.insert(PageId(1));
        assert!(t.lookup(PageId(1)));
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn evicts_lru_entry() {
        let mut t = Tlb::new(2);
        t.insert(PageId(1));
        t.insert(PageId(2));
        // Touch 1 so 2 becomes LRU.
        assert!(t.lookup(PageId(1)));
        let e = t.insert(PageId(3));
        assert_eq!(e, Some(PageId(2)));
        assert!(t.contains(PageId(1)));
        assert!(t.contains(PageId(3)));
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn reinserting_resident_page_evicts_nothing() {
        let mut t = Tlb::new(2);
        t.insert(PageId(1));
        t.insert(PageId(2));
        assert_eq!(t.insert(PageId(1)), None);
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn reinsertion_refreshes_recency() {
        let mut t = Tlb::new(2);
        t.insert(PageId(1));
        t.insert(PageId(2));
        // Refresh 1 via insert; 2 becomes the victim.
        assert_eq!(t.insert(PageId(1)), None);
        assert_eq!(t.insert(PageId(3)), Some(PageId(2)));
    }

    #[test]
    fn eviction_order_matches_a_reference_lru_model() {
        // Drive the TLB with a deterministic access mix and mirror it
        // against a naive stamp-based LRU; every eviction must agree.
        let mut t = Tlb::new(8);
        let mut stamps: Vec<(u64, u64)> = Vec::new(); // (page, stamp)
        let mut clock = 0u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = x % 24;
            clock += 1;
            let hit = t.lookup(PageId(page));
            let model_hit = stamps.iter().any(|&(p, _)| p == page);
            assert_eq!(hit, model_hit);
            if let Some(e) = stamps.iter_mut().find(|(p, _)| *p == page) {
                e.1 = clock;
            } else {
                let evicted = t.insert(PageId(page));
                stamps.push((page, clock));
                let model_evicted = (stamps.len() > 8).then(|| {
                    let at = stamps
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, s))| s)
                        .expect("nonempty")
                        .0;
                    stamps.remove(at).0
                });
                assert_eq!(evicted, model_evicted.map(PageId));
            }
        }
    }

    #[test]
    fn mru_repeats_count_and_follow_slot_reuse() {
        let mut t = Tlb::new(1);
        assert!(!t.contains(PageId(1)));
        t.insert(PageId(1));
        for _ in 0..3 {
            assert!(t.contains(PageId(1)));
            assert!(t.lookup(PageId(1)));
        }
        assert_eq!((t.hits, t.misses), (3, 0));
        // The MRU slot is recycled for page 2: page 1 must miss.
        assert_eq!(t.insert(PageId(2)), Some(PageId(1)));
        assert!(!t.contains(PageId(1)));
        assert!(!t.lookup(PageId(1)));
        assert!(t.lookup(PageId(2)));
        assert_eq!((t.hits, t.misses), (4, 1));
    }

    #[test]
    fn paper_default_is_64_entries() {
        assert_eq!(Tlb::paper_default().capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        Tlb::new(0);
    }
}
