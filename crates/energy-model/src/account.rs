//! Energy accounting, split into the categories of paper Figure 11.

use crate::Energy;
use core::fmt;

/// Category of energy consumption inside one cache level (or DRAM).
///
/// Paper Figure 11 groups these into *access* energy (`Access`) and
/// *movement* energy ("inter-sublevel movement energy, insertion energy,
/// and writeback energy" — `Movement` + `Insertion` + `Writeback`). The
/// remaining categories are the hardware overheads of SLIP itself that the
/// paper accounts separately (metadata reads/writes, EOU operations,
/// movement-queue lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EnergyCategory {
    /// Data read on a hit (or the read half of a demand access).
    Access,
    /// Read+write pair for an inter-sublevel movement.
    Movement,
    /// Write of an incoming line into the level.
    Insertion,
    /// Read of a dirty victim leaving the level.
    Writeback,
    /// 12 b-per-line SLIP/timestamp metadata reads and writes.
    Metadata,
    /// Energy Optimizer Unit operations.
    Eou,
    /// Movement-queue lookups.
    MovementQueue,
    /// DRAM data transfer.
    Dram,
}

impl EnergyCategory {
    /// All categories, in reporting order.
    pub const ALL: [EnergyCategory; 8] = [
        EnergyCategory::Access,
        EnergyCategory::Movement,
        EnergyCategory::Insertion,
        EnergyCategory::Writeback,
        EnergyCategory::Metadata,
        EnergyCategory::Eou,
        EnergyCategory::MovementQueue,
        EnergyCategory::Dram,
    ];

    fn index(self) -> usize {
        match self {
            EnergyCategory::Access => 0,
            EnergyCategory::Movement => 1,
            EnergyCategory::Insertion => 2,
            EnergyCategory::Writeback => 3,
            EnergyCategory::Metadata => 4,
            EnergyCategory::Eou => 5,
            EnergyCategory::MovementQueue => 6,
            EnergyCategory::Dram => 7,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EnergyCategory::Access => "access",
            EnergyCategory::Movement => "movement",
            EnergyCategory::Insertion => "insertion",
            EnergyCategory::Writeback => "writeback",
            EnergyCategory::Metadata => "metadata",
            EnergyCategory::Eou => "eou",
            EnergyCategory::MovementQueue => "mvq",
            EnergyCategory::Dram => "dram",
        }
    }
}

impl fmt::Display for EnergyCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulator of energy split by [`EnergyCategory`].
///
/// # Example
///
/// ```
/// use energy_model::{Energy, EnergyAccount, EnergyCategory};
///
/// let mut acct = EnergyAccount::new();
/// acct.charge(EnergyCategory::Access, Energy::from_pj(21.0));
/// acct.charge(EnergyCategory::Insertion, Energy::from_pj(21.0));
/// assert_eq!(acct.total(), Energy::from_pj(42.0));
/// assert_eq!(acct.get(EnergyCategory::Access), Energy::from_pj(21.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyAccount {
    by_category: [Energy; 8],
}

impl EnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to `category`.
    #[inline]
    pub fn charge(&mut self, category: EnergyCategory, amount: Energy) {
        self.by_category[category.index()] += amount;
    }

    /// Energy accumulated in one category.
    #[inline]
    pub fn get(&self, category: EnergyCategory) -> Energy {
        self.by_category[category.index()]
    }

    /// Total energy over all categories.
    pub fn total(&self) -> Energy {
        self.by_category.iter().sum()
    }

    /// Paper Figure 11's "access" bar: demand access energy only.
    pub fn access_energy(&self) -> Energy {
        self.get(EnergyCategory::Access)
    }

    /// Paper Figure 11's "movement" bar: inter-sublevel movement +
    /// insertion + writeback energy.
    pub fn movement_energy(&self) -> Energy {
        self.get(EnergyCategory::Movement)
            + self.get(EnergyCategory::Insertion)
            + self.get(EnergyCategory::Writeback)
    }

    /// SLIP hardware overhead energy (metadata + EOU + movement queue).
    pub fn overhead_energy(&self) -> Energy {
        self.get(EnergyCategory::Metadata)
            + self.get(EnergyCategory::Eou)
            + self.get(EnergyCategory::MovementQueue)
    }

    /// Iterates over `(category, energy)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (EnergyCategory, Energy)> + '_ {
        EnergyCategory::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

impl fmt::Display for EnergyAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total {}", self.total())?;
        for (cat, e) in self.iter() {
            if !e.is_zero() {
                write!(f, ", {cat} {e}")?;
            }
        }
        Ok(())
    }
}

/// Integer event ledger behind a cache level's [`EnergyAccount`].
///
/// Instead of accumulating floating-point energy on every event, the hot
/// path counts *events* (per way for the way-priced categories, plus flat
/// metadata / movement-queue counters) and the account is rebuilt on demand
/// by [`EnergyLedger::to_account`] with one multiply per (category, way)
/// pair. Because the ledger is pure integers, the finalized account is a
/// pure function of the counts: how (or in what batches) events were
/// counted cannot perturb it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyLedger {
    ways: usize,
    /// `WAY_CATEGORIES.len()` blocks of `ways` counters each.
    way_counts: Vec<u64>,
    /// Events priced at the level's metadata energy, charged to `Metadata`.
    metadata_events: u64,
    /// Events priced at the level's metadata energy, charged to `Access`
    /// (metadata-class hits read the metadata array, not a data way).
    access_metadata_events: u64,
    /// Movement-queue lookups, priced at the level's MVQ lookup energy.
    mvq_events: u64,
}

impl EnergyLedger {
    /// Categories whose events are priced by the way they touch, in the
    /// fixed order used for both storage and finalization.
    pub const WAY_CATEGORIES: [EnergyCategory; 4] = [
        EnergyCategory::Access,
        EnergyCategory::Movement,
        EnergyCategory::Insertion,
        EnergyCategory::Writeback,
    ];

    /// Creates an empty ledger for a level with `ways` ways.
    pub fn new(ways: usize) -> Self {
        Self {
            ways,
            way_counts: vec![0; Self::WAY_CATEGORIES.len() * ways],
            metadata_events: 0,
            access_metadata_events: 0,
            mvq_events: 0,
        }
    }

    #[inline]
    fn slot(&self, category: EnergyCategory, way: usize) -> usize {
        let ci = category.index();
        debug_assert!(ci < Self::WAY_CATEGORIES.len(), "not a way category");
        debug_assert!(way < self.ways);
        ci * self.ways + way
    }

    /// Records one event of a way-priced `category` at `way`.
    #[inline]
    pub fn count_way(&mut self, category: EnergyCategory, way: usize) {
        let slot = self.slot(category, way);
        self.way_counts[slot] += 1;
    }

    /// Records `n` events of a way-priced `category` at `way`.
    #[inline]
    pub fn count_way_n(&mut self, category: EnergyCategory, way: usize, n: u64) {
        let slot = self.slot(category, way);
        self.way_counts[slot] += n;
    }

    /// Records one metadata-priced event charged to `Metadata`.
    #[inline]
    pub fn count_metadata(&mut self) {
        self.metadata_events += 1;
    }

    /// Records one metadata-priced event charged to `Access`.
    #[inline]
    pub fn count_access_metadata(&mut self) {
        self.access_metadata_events += 1;
    }

    /// Records one movement-queue lookup.
    #[inline]
    pub fn count_mvq(&mut self) {
        self.mvq_events += 1;
    }

    /// Number of recorded events for a way-priced `category` at `way`.
    pub fn way_count(&self, category: EnergyCategory, way: usize) -> u64 {
        self.way_counts[self.slot(category, way)]
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.way_counts.fill(0);
        self.metadata_events = 0;
        self.access_metadata_events = 0;
        self.mvq_events = 0;
    }

    /// Rebuilds the account: one `energy * count` multiply per slot, folded
    /// in the fixed `WAY_CATEGORIES`-then-way order so the result is a pure
    /// function of the counts regardless of how they were accumulated.
    pub fn to_account(
        &self,
        way_energy: &[Energy],
        metadata_energy: Energy,
        mvq_energy: Energy,
    ) -> EnergyAccount {
        assert_eq!(way_energy.len(), self.ways, "way energy table mismatch");
        let mut acct = EnergyAccount::new();
        for (ci, &cat) in Self::WAY_CATEGORIES.iter().enumerate() {
            for (way, &e) in way_energy.iter().enumerate() {
                let n = self.way_counts[ci * self.ways + way];
                if n != 0 {
                    acct.charge(cat, e * n as f64);
                }
            }
        }
        if self.access_metadata_events != 0 {
            acct.charge(
                EnergyCategory::Access,
                metadata_energy * self.access_metadata_events as f64,
            );
        }
        if self.metadata_events != 0 {
            acct.charge(
                EnergyCategory::Metadata,
                metadata_energy * self.metadata_events as f64,
            );
        }
        if self.mvq_events != 0 {
            acct.charge(
                EnergyCategory::MovementQueue,
                mvq_energy * self.mvq_events as f64,
            );
        }
        acct
    }

    /// Like [`EnergyLedger::to_account`], but with separate read, write,
    /// and insertion energy tables for asymmetric technologies (STT-RAM):
    ///
    /// * `Access` and `Writeback` events are reads — a writeback *reads*
    ///   the dirty victim out of the level;
    /// * `Insertion` events are writes of the incoming line, priced by
    ///   the insert table;
    /// * `Movement` events are recorded once at the source way (a read)
    ///   and once at the target way (a write), so each event is priced
    ///   at the read/write mean of its way — the pair then sums to one
    ///   full read plus one full write on average.
    ///
    /// With `write == insert == read` this is bit-identical to
    /// [`EnergyLedger::to_account`]: `(r + r) * 0.5` is exactly `r` in
    /// IEEE arithmetic and every charge folds in the same order.
    pub fn to_account_rw(
        &self,
        read_energy: &[Energy],
        write_energy: &[Energy],
        insert_energy: &[Energy],
        metadata_energy: Energy,
        mvq_energy: Energy,
    ) -> EnergyAccount {
        assert_eq!(read_energy.len(), self.ways, "read energy table mismatch");
        assert_eq!(write_energy.len(), self.ways, "write energy table mismatch");
        assert_eq!(
            insert_energy.len(),
            self.ways,
            "insert energy table mismatch"
        );
        let mut acct = EnergyAccount::new();
        for (ci, &cat) in Self::WAY_CATEGORIES.iter().enumerate() {
            for way in 0..self.ways {
                let n = self.way_counts[ci * self.ways + way];
                if n != 0 {
                    let e = match cat {
                        EnergyCategory::Access | EnergyCategory::Writeback => read_energy[way],
                        EnergyCategory::Insertion => insert_energy[way],
                        EnergyCategory::Movement => (read_energy[way] + write_energy[way]) * 0.5,
                        _ => unreachable!("not a way category"),
                    };
                    acct.charge(cat, e * n as f64);
                }
            }
        }
        if self.access_metadata_events != 0 {
            acct.charge(
                EnergyCategory::Access,
                metadata_energy * self.access_metadata_events as f64,
            );
        }
        if self.metadata_events != 0 {
            acct.charge(
                EnergyCategory::Metadata,
                metadata_energy * self.metadata_events as f64,
            );
        }
        if self.mvq_events != 0 {
            acct.charge(
                EnergyCategory::MovementQueue,
                mvq_energy * self.mvq_events as f64,
            );
        }
        acct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut a = EnergyAccount::new();
        a.charge(EnergyCategory::Access, Energy::from_pj(10.0));
        a.charge(EnergyCategory::Access, Energy::from_pj(5.0));
        a.charge(EnergyCategory::Dram, Energy::from_pj(100.0));
        assert_eq!(a.get(EnergyCategory::Access).as_pj(), 15.0);
        assert_eq!(a.get(EnergyCategory::Movement).as_pj(), 0.0);
        assert_eq!(a.total().as_pj(), 115.0);
    }

    #[test]
    fn figure11_grouping() {
        let mut a = EnergyAccount::new();
        a.charge(EnergyCategory::Access, Energy::from_pj(1.0));
        a.charge(EnergyCategory::Movement, Energy::from_pj(2.0));
        a.charge(EnergyCategory::Insertion, Energy::from_pj(3.0));
        a.charge(EnergyCategory::Writeback, Energy::from_pj(4.0));
        a.charge(EnergyCategory::Metadata, Energy::from_pj(5.0));
        a.charge(EnergyCategory::Eou, Energy::from_pj(6.0));
        a.charge(EnergyCategory::MovementQueue, Energy::from_pj(7.0));
        assert_eq!(a.access_energy().as_pj(), 1.0);
        assert_eq!(a.movement_energy().as_pj(), 9.0);
        assert_eq!(a.overhead_energy().as_pj(), 18.0);
    }

    #[test]
    fn display_skips_zero_categories() {
        let mut a = EnergyAccount::new();
        a.charge(EnergyCategory::Dram, Energy::from_pj(10.0));
        let s = a.to_string();
        assert!(s.contains("dram"));
        assert!(!s.contains("movement"));
    }

    #[test]
    fn ledger_rebuilds_account_from_counts() {
        let ways = [Energy::from_pj(10.0), Energy::from_pj(30.0)];
        let mut l = EnergyLedger::new(2);
        l.count_way(EnergyCategory::Access, 0);
        l.count_way_n(EnergyCategory::Movement, 1, 3);
        l.count_way(EnergyCategory::Insertion, 1);
        l.count_way(EnergyCategory::Writeback, 0);
        l.count_metadata();
        l.count_access_metadata();
        l.count_mvq();
        let a = l.to_account(&ways, Energy::from_pj(2.0), Energy::from_pj(0.5));
        assert_eq!(a.get(EnergyCategory::Access).as_pj(), 10.0 + 2.0);
        assert_eq!(a.get(EnergyCategory::Movement).as_pj(), 90.0);
        assert_eq!(a.get(EnergyCategory::Insertion).as_pj(), 30.0);
        assert_eq!(a.get(EnergyCategory::Writeback).as_pj(), 10.0);
        assert_eq!(a.get(EnergyCategory::Metadata).as_pj(), 2.0);
        assert_eq!(a.get(EnergyCategory::MovementQueue).as_pj(), 0.5);
        assert_eq!(l.way_count(EnergyCategory::Movement, 1), 3);
    }

    #[test]
    fn symmetric_rw_tables_are_bit_exact_with_plain_finalize() {
        // Awkward energies again: the read/write-mean pricing must
        // collapse to the plain path exactly when the tables coincide.
        let ways = [
            Energy::from_pj(0.1),
            Energy::from_pj(1.0 / 3.0),
            Energy::from_pj(7.77e-3),
        ];
        let meta = Energy::from_pj(0.061);
        let mvq = Energy::from_pj(0.013);
        let mut l = EnergyLedger::new(3);
        let mut state = 0xdead_beef_u64;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let cat = EnergyLedger::WAY_CATEGORIES[(state >> 33) as usize % 4];
            l.count_way(cat, (state >> 17) as usize % 3);
            if state.is_multiple_of(3) {
                l.count_metadata();
            }
            if state.is_multiple_of(5) {
                l.count_access_metadata();
            }
            if state.is_multiple_of(7) {
                l.count_mvq();
            }
        }
        let plain = l.to_account(&ways, meta, mvq);
        let rw = l.to_account_rw(&ways, &ways, &ways, meta, mvq);
        for c in EnergyCategory::ALL {
            assert_eq!(
                plain.get(c).as_pj().to_bits(),
                rw.get(c).as_pj().to_bits(),
                "{c}"
            );
        }
    }

    #[test]
    fn asymmetric_tables_price_each_category_by_its_operation() {
        let read = [Energy::from_pj(10.0)];
        let write = [Energy::from_pj(60.0)];
        let insert = [Energy::from_pj(50.0)];
        let mut l = EnergyLedger::new(1);
        l.count_way(EnergyCategory::Access, 0); // read
        l.count_way_n(EnergyCategory::Movement, 0, 2); // one source + one target
        l.count_way(EnergyCategory::Insertion, 0); // insert-priced write
        l.count_way(EnergyCategory::Writeback, 0); // read of the victim
        let a = l.to_account_rw(&read, &write, &insert, Energy::ZERO, Energy::ZERO);
        assert_eq!(a.get(EnergyCategory::Access).as_pj(), 10.0);
        // Movement pair = one read + one write = 10 + 60.
        assert_eq!(a.get(EnergyCategory::Movement).as_pj(), 70.0);
        assert_eq!(a.get(EnergyCategory::Insertion).as_pj(), 50.0);
        assert_eq!(a.get(EnergyCategory::Writeback).as_pj(), 10.0);
    }

    #[test]
    fn ledger_reset_clears_all_counts() {
        let mut l = EnergyLedger::new(1);
        l.count_way(EnergyCategory::Access, 0);
        l.count_metadata();
        l.count_access_metadata();
        l.count_mvq();
        l.reset();
        assert_eq!(l, EnergyLedger::new(1));
    }

    #[test]
    fn all_categories_have_distinct_indices() {
        let mut seen = std::collections::HashSet::new();
        for c in EnergyCategory::ALL {
            assert!(seen.insert(c.index()));
        }
        assert_eq!(seen.len(), 8);
    }
}
