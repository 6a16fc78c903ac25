//! The movement queue (paper Section 4.3).
//!
//! Lines being moved between ways are held in a small fully-associative
//! queue until written to their destination, so lookups and invalidations
//! can still find them. Our simulator performs movements atomically, so
//! the queue is a bookkeeping and cost model: it tracks occupancy within
//! one fill/movement cascade, the high-water mark, and how often a
//! cascade exceeded the paper's 16 entries (which a real implementation
//! would resolve by stalling the port).

use crate::addr::LineAddr;

/// Capacity used in the paper's evaluation.
pub const PAPER_MOVEMENT_QUEUE_ENTRIES: usize = 16;

/// A bounded queue of in-flight line movements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MovementQueue {
    capacity: usize,
    in_flight: Vec<LineAddr>,
    /// Total movements pushed over the simulation.
    pub total_movements: u64,
    /// Largest simultaneous occupancy observed.
    pub max_occupancy: usize,
    /// Movements that found the queue full (would stall the port).
    pub overflows: u64,
    /// Lookups performed against the queue.
    pub lookups: u64,
}

impl MovementQueue {
    /// Creates a queue with the paper's 16 entries.
    pub fn new() -> Self {
        Self::with_capacity(PAPER_MOVEMENT_QUEUE_ENTRIES)
    }

    /// Creates a queue with a custom capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "movement queue needs at least one entry");
        MovementQueue {
            capacity,
            in_flight: Vec::with_capacity(capacity),
            total_movements: 0,
            max_occupancy: 0,
            overflows: 0,
            lookups: 0,
        }
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// Registers a movement of `line`. Returns `false` if the queue was
    /// full (counted as an overflow; the movement still proceeds, as a
    /// real controller would stall until an entry frees up).
    pub fn push(&mut self, line: LineAddr) -> bool {
        self.total_movements += 1;
        if self.in_flight.len() >= self.capacity {
            self.overflows += 1;
            return false;
        }
        self.in_flight.push(line);
        self.max_occupancy = self.max_occupancy.max(self.in_flight.len());
        true
    }

    /// Probes the queue for `line` (a lookup or invalidation must check
    /// lines in flight).
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.lookups += 1;
        self.in_flight.contains(&line)
    }

    /// Completes all in-flight movements (end of a movement cascade).
    pub fn drain(&mut self) {
        self.in_flight.clear();
    }
}

impl Default for MovementQueue {
    fn default() -> Self {
        MovementQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_occupancy_and_high_water() {
        let mut q = MovementQueue::with_capacity(2);
        assert!(q.push(LineAddr(1)));
        assert!(q.push(LineAddr(2)));
        assert_eq!(q.occupancy(), 2);
        assert_eq!(q.max_occupancy, 2);
        q.drain();
        assert_eq!(q.occupancy(), 0);
        assert_eq!(q.max_occupancy, 2);
        assert_eq!(q.total_movements, 2);
    }

    #[test]
    fn overflow_is_counted_not_fatal() {
        let mut q = MovementQueue::with_capacity(1);
        assert!(q.push(LineAddr(1)));
        assert!(!q.push(LineAddr(2)));
        assert_eq!(q.overflows, 1);
        assert_eq!(q.total_movements, 2);
    }

    #[test]
    fn lookup_finds_in_flight_lines() {
        let mut q = MovementQueue::new();
        q.push(LineAddr(7));
        assert!(q.lookup(LineAddr(7)));
        assert!(!q.lookup(LineAddr(8)));
        assert_eq!(q.lookups, 2);
        q.drain();
        assert!(!q.lookup(LineAddr(7)));
    }

    #[test]
    fn paper_capacity_is_16() {
        assert_eq!(MovementQueue::new().capacity(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        MovementQueue::with_capacity(0);
    }
}
