//! Geometric wire-energy model for the cache topologies of paper Figure 4.
//!
//! Large caches are built from small SRAM banks joined by an interconnect.
//! Which topology and which way-to-bank interleaving is chosen determines
//! whether different ways of the same set have different access energies —
//! the asymmetry SLIP exploits. Three schemes from the paper:
//!
//! * **Hierarchical bus, way interleaving** (Fig. 4a — Intel Xeon E5 LLC
//!   slice, Samsung SRAM macro): ways are spread across banks at different
//!   distances from the cache controller, so access energy varies per way.
//!   This is the baseline organization of the paper's evaluation.
//! * **Hierarchical bus, set interleaving** (Fig. 4b): all ways of a set
//!   live in the same bank; every candidate location of a line costs the
//!   same, so there is nothing for a placement policy to exploit.
//! * **H-tree** (Fig. 4c): every access traverses a path as long as the
//!   path to the furthest bank; uniform but maximally expensive. The paper
//!   reports this costs 37% more L2 energy and 32% more L3 energy than the
//!   hierarchical bus baseline (Section 2.1).
//!
//! The model here is deliberately simple: banks sit in a `rows x cols`
//! grid above the cache controller; the request/response path runs up a
//! vertical spine, so the wire length to a bank is `base_offset +
//! (row + 0.5) * bank_height`. Horizontal distribution within a row is
//! folded into the intrinsic bank access energy. The calibrated grids
//! below reproduce the paper's Table 2 sublevel energies to within 5%.

use crate::params::LINE_BITS;
use crate::Energy;

/// Interconnect parameters of a technology node
/// ([`crate::TechnologyParams::wire`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireParams {
    /// Wire energy per transition, pJ/bit/mm (Table 2: 0.16 at 45 nm).
    pub pj_per_bit_mm: f64,
    /// Wire delay, ns/mm (Table 2: 0.3 at 45 nm).
    pub delay_ns_per_mm: f64,
}

impl WireParams {
    /// Energy to move `bits` over `mm` of wire.
    pub fn transfer(&self, bits: usize, mm: f64) -> Energy {
        Energy::from_pj(self.pj_per_bit_mm * bits as f64 * mm)
    }
}

/// Cache interconnect topology and interleaving scheme (paper Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Fig. 4a: hierarchical bus, ways interleaved across banks.
    /// Access energy differs per way; SLIP applies.
    HierarchicalBusWayInterleaved,
    /// Fig. 4b: hierarchical bus, all ways of a set in one bank.
    /// Access energy is uniform across ways (set-position average).
    HierarchicalBusSetInterleaved,
    /// Fig. 4c: H-tree. Every access costs as much as reaching the
    /// furthest bank.
    HTree,
}

/// A grid of SRAM banks making up one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct BankGrid {
    /// Bank rows, counted outward from the cache controller.
    pub rows: usize,
    /// Bank columns.
    pub cols: usize,
    /// Number of ways in the level.
    pub ways: usize,
    /// Physical bank height in mm (row pitch of the vertical spine).
    pub bank_height_mm: f64,
    /// Fixed wire length between the controller and row 0, in mm.
    pub base_offset_mm: f64,
    /// Intrinsic (wire-free) energy of one bank access, including the
    /// horizontal distribution within a row.
    pub bank_access: Energy,
    /// Bits moved per access (a full 64 B line).
    pub bits_per_access: usize,
}

impl BankGrid {
    /// Calibrated L2 grid for the 45 nm node: a 2 (wide) x 4 (high) array
    /// of 32 KB banks, two complete ways per bank (paper Section 5).
    pub fn l2_45nm() -> BankGrid {
        BankGrid {
            rows: 4,
            cols: 2,
            ways: 16,
            bank_height_mm: 0.1465,
            base_offset_mm: 0.0,
            bank_access: Energy::from_pj(15.0),
            bits_per_access: LINE_BITS,
        }
    }

    /// Calibrated L3 grid for the 45 nm node: a 16 (high) x 4 (wide)
    /// array of 32 KB banks, one way per row (paper Section 5).
    pub fn l3_45nm() -> BankGrid {
        BankGrid {
            rows: 16,
            cols: 4,
            ways: 16,
            bank_height_mm: 0.1404,
            base_offset_mm: 0.3540,
            bank_access: Energy::from_pj(15.0),
            bits_per_access: LINE_BITS,
        }
    }

    /// Number of banks in the grid.
    pub fn banks(&self) -> usize {
        self.rows * self.cols
    }

    /// The bank row that holds `way` under way interleaving.
    ///
    /// Ways are assigned to rows in order, nearest row first, evenly.
    ///
    /// # Panics
    ///
    /// Panics if `way >= self.ways`.
    pub fn way_row(&self, way: usize) -> usize {
        assert!(way < self.ways, "way {way} out of range ({})", self.ways);
        way * self.rows / self.ways
    }

    /// Wire length from the controller to the banks of `row`, in mm.
    pub fn row_distance_mm(&self, row: usize) -> f64 {
        self.base_offset_mm + (row as f64 + 0.5) * self.bank_height_mm
    }

    /// Access energy of a single row's banks under the way-interleaved
    /// hierarchical bus: intrinsic bank energy plus spine wire energy.
    pub fn row_energy(&self, row: usize, wire: &WireParams) -> Energy {
        self.bank_access + wire.transfer(self.bits_per_access, self.row_distance_mm(row))
    }

    /// Per-way access energy under `topology`.
    ///
    /// The returned vector has one entry per way, way 0 first.
    pub fn way_energies(&self, topology: Topology, wire: &WireParams) -> Vec<Energy> {
        match topology {
            Topology::HierarchicalBusWayInterleaved => (0..self.ways)
                .map(|w| self.row_energy(self.way_row(w), wire))
                .collect(),
            Topology::HierarchicalBusSetInterleaved => {
                // All ways of a set share a bank; a line's candidate
                // locations all cost the same. Averaged over sets this is
                // the mean row energy.
                let mean = (0..self.rows)
                    .map(|r| self.row_energy(r, wire))
                    .sum::<Energy>()
                    / self.rows as f64;
                vec![mean; self.ways]
            }
            Topology::HTree => {
                // Every access pays the path to the furthest bank.
                let worst = self.row_energy(self.rows - 1, wire);
                vec![worst; self.ways]
            }
        }
    }

    /// Mean access energy per sublevel, given the way count of each
    /// sublevel (nearest first).
    ///
    /// # Panics
    ///
    /// Panics if the way counts do not sum to `self.ways`.
    pub fn sublevel_energies(
        &self,
        topology: Topology,
        wire: &WireParams,
        ways_per_sublevel: &[usize],
    ) -> Vec<Energy> {
        let total: usize = ways_per_sublevel.iter().sum();
        assert_eq!(
            total, self.ways,
            "sublevel way counts must cover all {} ways",
            self.ways
        );
        let per_way = self.way_energies(topology, wire);
        let mut out = Vec::with_capacity(ways_per_sublevel.len());
        let mut next = 0;
        for &n in ways_per_sublevel {
            let slice = &per_way[next..next + n];
            out.push(slice.iter().sum::<Energy>() / n as f64);
            next += n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HierarchySpec, TechnologyParams};

    fn tech45() -> TechnologyParams {
        HierarchySpec::builtin("45nm").unwrap().technology()
    }

    fn wire45() -> WireParams {
        tech45().wire()
    }

    const PAPER_SUBLEVEL_WAYS: [usize; 3] = [4, 4, 8];

    fn close(a: Energy, b: Energy, tol: f64) -> bool {
        (a.as_pj() - b.as_pj()).abs() / b.as_pj() <= tol
    }

    #[test]
    fn l2_grid_reproduces_table2_sublevels() {
        let grid = BankGrid::l2_45nm();
        let got = grid.sublevel_energies(
            Topology::HierarchicalBusWayInterleaved,
            &wire45(),
            &PAPER_SUBLEVEL_WAYS,
        );
        for (g, want) in got.iter().zip(&tech45().l2.sublevel_access) {
            assert!(close(*g, *want, 0.05), "got {g}, want {want}");
        }
    }

    #[test]
    fn l3_grid_reproduces_table2_sublevels() {
        let grid = BankGrid::l3_45nm();
        let got = grid.sublevel_energies(
            Topology::HierarchicalBusWayInterleaved,
            &wire45(),
            &PAPER_SUBLEVEL_WAYS,
        );
        for (g, want) in got.iter().zip(&tech45().l3.sublevel_access) {
            assert!(close(*g, *want, 0.05), "got {g}, want {want}");
        }
    }

    #[test]
    fn way_row_assignment_is_monotone_and_even() {
        let grid = BankGrid::l2_45nm();
        let rows: Vec<usize> = (0..grid.ways).map(|w| grid.way_row(w)).collect();
        assert!(rows.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(rows[0], 0);
        assert_eq!(rows[grid.ways - 1], grid.rows - 1);
        // 16 ways over 4 rows: exactly 4 per row.
        for r in 0..grid.rows {
            assert_eq!(rows.iter().filter(|&&x| x == r).count(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn way_row_rejects_out_of_range() {
        BankGrid::l2_45nm().way_row(16);
    }

    #[test]
    fn set_interleaving_is_uniform_and_equals_mean() {
        let grid = BankGrid::l2_45nm();
        let set = grid.way_energies(Topology::HierarchicalBusSetInterleaved, &wire45());
        let way = grid.way_energies(Topology::HierarchicalBusWayInterleaved, &wire45());
        assert!(set.windows(2).all(|w| w[0] == w[1]));
        let mean = way.iter().sum::<Energy>() / way.len() as f64;
        assert!(close(set[0], mean, 1e-9));
    }

    #[test]
    fn htree_is_uniform_and_worst_case() {
        let grid = BankGrid::l3_45nm();
        let ht = grid.way_energies(Topology::HTree, &wire45());
        let way = grid.way_energies(Topology::HierarchicalBusWayInterleaved, &wire45());
        assert!(ht.windows(2).all(|w| w[0] == w[1]));
        let worst = way.iter().copied().fold(Energy::ZERO, Energy::max);
        assert_eq!(ht[0], worst);
        // H-tree must be strictly worse than the way-interleaved mean --
        // this is the premise of the paper's Section 2.1 comparison.
        let mean = way.iter().sum::<Energy>() / way.len() as f64;
        assert!(ht[0] > mean);
    }

    #[test]
    fn wire_transfer_scales_linearly() {
        let w = wire45();
        let e1 = w.transfer(512, 1.0);
        let e2 = w.transfer(512, 2.0);
        let e3 = w.transfer(1024, 1.0);
        assert!((e2.as_pj() - 2.0 * e1.as_pj()).abs() < 1e-12);
        assert!((e3.as_pj() - 2.0 * e1.as_pj()).abs() < 1e-12);
        assert!((e1.as_pj() - 0.16 * 512.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must cover all")]
    fn sublevel_energies_validates_way_counts() {
        let grid = BankGrid::l2_45nm();
        grid.sublevel_energies(Topology::HierarchicalBusWayInterleaved, &wire45(), &[4, 4]);
    }
}
