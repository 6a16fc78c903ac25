//! Energy parameter types for one technology node.
//!
//! The values live in one place: the built-in hierarchy specs of
//! [`crate::spec`] (`45nm` is paper Table 1 + Table 2 verbatim; `22nm` is
//! our derivation for the Section 6 node study). Build a node's
//! parameters with [`crate::HierarchySpec::technology`], e.g.
//! `HierarchySpec::builtin("45nm").unwrap().technology()`.

use crate::topology::WireParams;
use crate::Energy;

/// Energy parameters for one cache level.
///
/// A level is split into sublevels — groups of ways with similar access
/// energy (paper Section 3). `sublevel_access[i]` is the energy of one
/// read or write access serviced by sublevel `i`; index 0 is the sublevel
/// nearest the cache controller.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelEnergyParams {
    /// Flat access energy of the level when treated as a uniform cache
    /// (paper Table 2 "Baseline access"). This is the capacity-weighted
    /// average of the sublevel energies and is used only for reporting;
    /// the simulator always charges the actual sublevel energy.
    pub baseline_access: Energy,
    /// Per-sublevel access energy, nearest first.
    pub sublevel_access: Vec<Energy>,
    /// Lines of capacity per sublevel, nearest first.
    pub sublevel_lines: Vec<usize>,
    /// Energy of one metadata (12 b per line: two 3 b SLIPs + 6 b
    /// timestamp) read or write at this level.
    pub metadata_access: Energy,
    /// Per-sublevel *write* energy, nearest first. `None` means writes
    /// cost the same as reads (SRAM, the paper's Table 2 assumption);
    /// `Some` models asymmetric technologies such as STT-RAM, where a
    /// write costs several times a read (Rodríguez-Rodríguez et al.,
    /// "Reuse Detector").
    pub sublevel_write: Option<Vec<Energy>>,
    /// Per-sublevel *insertion* energy (the write of an incoming line),
    /// nearest first. `None` means insertions are priced as writes.
    pub sublevel_insert: Option<Vec<Energy>>,
}

impl LevelEnergyParams {
    /// Total capacity of the level in lines.
    pub fn total_lines(&self) -> usize {
        self.sublevel_lines.iter().sum()
    }

    /// Number of sublevels.
    pub fn sublevels(&self) -> usize {
        self.sublevel_access.len()
    }

    /// Capacity-weighted mean access energy over all sublevels.
    ///
    /// For the paper's configurations this reproduces the Table 2
    /// "Baseline access" values (39 pJ for L2, 136 pJ for L3) to within a
    /// few percent.
    pub fn mean_access(&self) -> Energy {
        let total: usize = self.total_lines();
        assert!(total > 0, "level must have nonzero capacity");
        self.sublevel_access
            .iter()
            .zip(&self.sublevel_lines)
            .map(|(&e, &lines)| e * (lines as f64 / total as f64))
            .sum()
    }

    /// `true` when reads, writes, and insertions all share one energy
    /// table (every SRAM node; the pre-topology behavior).
    pub fn is_symmetric(&self) -> bool {
        self.sublevel_write.is_none() && self.sublevel_insert.is_none()
    }

    /// Resolved per-sublevel write energies: `sublevel_write` when
    /// present, else the read energies.
    pub fn resolved_write(&self) -> Vec<Energy> {
        self.sublevel_write
            .clone()
            .unwrap_or_else(|| self.sublevel_access.clone())
    }

    /// Resolved per-sublevel insertion energies: `sublevel_insert` when
    /// present, else the resolved write energies.
    pub fn resolved_insert(&self) -> Vec<Energy> {
        self.sublevel_insert
            .clone()
            .unwrap_or_else(|| self.resolved_write())
    }

    /// Cumulative capacity (in lines) of sublevels `0..=i`, i.e. the
    /// `CC_i` terms of paper Section 3.2.
    pub fn cumulative_lines(&self) -> Vec<usize> {
        self.sublevel_lines
            .iter()
            .scan(0usize, |acc, &l| {
                *acc += l;
                Some(*acc)
            })
            .collect()
    }
}

/// A complete technology-node parameter set (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct TechnologyParams {
    /// Human-readable node name, e.g. `"45nm"`.
    pub name: String,
    /// Wire energy per transition, pJ/bit/mm.
    pub wire_pj_per_bit_mm: f64,
    /// Wire delay, ns/mm.
    pub wire_delay_ns_per_mm: f64,
    /// L2 level parameters.
    pub l2: LevelEnergyParams,
    /// L3 level parameters.
    pub l3: LevelEnergyParams,
    /// DRAM access energy, pJ/bit (sum of Idd4 and Idd7RW per Vogelsang).
    pub dram_pj_per_bit: f64,
    /// Energy of one EOU optimization operation (paper Section 5:
    /// synthesized RTL, 1.27 pJ including pipeline registers).
    pub eou_op: Energy,
    /// Energy of one movement-queue lookup (paper Section 5: 0.3 pJ).
    pub movement_queue_lookup: Energy,
}

/// Number of bytes in a cache line throughout the workspace.
pub const LINE_BYTES: usize = 64;

/// Bits transferred for one full line.
pub const LINE_BITS: usize = LINE_BYTES * 8;

impl TechnologyParams {
    /// Energy to transfer one full 64 B line to/from DRAM.
    pub fn dram_line_energy(&self) -> Energy {
        Energy::from_pj(self.dram_pj_per_bit * LINE_BITS as f64)
    }

    /// The node's interconnect parameters, for the bank-grid wire model.
    pub fn wire(&self) -> WireParams {
        WireParams {
            pj_per_bit_mm: self.wire_pj_per_bit_mm,
            delay_ns_per_mm: self.wire_delay_ns_per_mm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchySpec;

    fn node(name: &str) -> TechnologyParams {
        HierarchySpec::builtin(name)
            .expect("built-in node")
            .technology()
    }

    #[test]
    fn table2_values_match_paper() {
        let t = node("45nm");
        assert_eq!(t.wire_pj_per_bit_mm, 0.16);
        assert_eq!(t.wire_delay_ns_per_mm, 0.3);
        assert_eq!(t.l2.sublevel_access[0].as_pj(), 21.0);
        assert_eq!(t.l2.sublevel_access[1].as_pj(), 33.0);
        assert_eq!(t.l2.sublevel_access[2].as_pj(), 50.0);
        assert_eq!(t.l3.sublevel_access[0].as_pj(), 67.0);
        assert_eq!(t.l3.sublevel_access[1].as_pj(), 113.0);
        assert_eq!(t.l3.sublevel_access[2].as_pj(), 176.0);
        assert_eq!(t.l2.baseline_access.as_pj(), 39.0);
        assert_eq!(t.l3.baseline_access.as_pj(), 136.0);
        assert_eq!(t.l2.metadata_access.as_pj(), 1.0);
        assert_eq!(t.l3.metadata_access.as_pj(), 2.5);
        assert_eq!(t.dram_pj_per_bit, 20.0);
        // Paper Section 5: synthesized EOU and movement-queue costs.
        assert_eq!(t.eou_op.as_pj(), 1.27);
        assert_eq!(t.movement_queue_lookup.as_pj(), 0.3);
        // Table 2 is SRAM: writes and insertions cost a read.
        assert!(t.l2.is_symmetric() && t.l3.is_symmetric());
    }

    #[test]
    fn capacities_match_table1() {
        let t = node("45nm");
        // 256 KB L2 and 2 MB L3 at 64 B lines: 64/64/128 KB and
        // 512/512/1024 KB sublevels.
        assert_eq!(t.l2.total_lines(), 256 * 1024 / 64);
        assert_eq!(t.l3.total_lines(), 2 * 1024 * 1024 / 64);
        assert_eq!(t.l2.cumulative_lines(), vec![1024, 2048, 4096]);
        assert_eq!(t.l3.cumulative_lines(), vec![8192, 16384, 32768]);
    }

    #[test]
    fn mean_access_close_to_baseline_constant() {
        // The capacity-weighted mean of the sublevel energies should land
        // near the paper's flat "baseline access" constants.
        let t = node("45nm");
        let l2_mean = t.l2.mean_access().as_pj();
        let l3_mean = t.l3.mean_access().as_pj();
        assert!((l2_mean - 39.0).abs() / 39.0 < 0.05, "L2 mean {l2_mean}");
        assert!((l3_mean - 136.0).abs() / 136.0 < 0.05, "L3 mean {l3_mean}");
    }

    #[test]
    fn dram_line_energy_is_20pj_per_bit() {
        assert_eq!(node("45nm").dram_line_energy().as_pj(), 20.0 * 512.0);
    }

    #[test]
    fn node_22nm_is_more_asymmetric_than_45nm() {
        // Wire scaling lags transistor scaling, so far/near energy ratio
        // must grow at 22 nm — this is what yields the slightly larger
        // relative savings the paper reports.
        let (t45, t22) = (node("45nm"), node("22nm"));
        let r45 = t45.l2.sublevel_access[2] / t45.l2.sublevel_access[0];
        let r22 = t22.l2.sublevel_access[2] / t22.l2.sublevel_access[0];
        assert!(r22 > r45);
        // And everything must be cheaper in absolute terms.
        for i in 0..3 {
            assert!(t22.l2.sublevel_access[i] < t45.l2.sublevel_access[i]);
            assert!(t22.l3.sublevel_access[i] < t45.l3.sublevel_access[i]);
        }
        assert!(t22.eou_op < t45.eou_op);
        assert!(t22.dram_pj_per_bit < t45.dram_pj_per_bit);
    }

    #[test]
    fn sublevel_energies_strictly_increase_with_distance() {
        for name in crate::BUILTIN_NAMES {
            let t = node(name);
            for lvl in [&t.l2, &t.l3] {
                for w in lvl.sublevel_access.windows(2) {
                    assert!(w[0] < w[1], "{name}");
                }
            }
        }
    }

    #[test]
    fn wire_params_come_from_the_node() {
        let w = node("45nm").wire();
        assert_eq!((w.pj_per_bit_mm, w.delay_ns_per_mm), (0.16, 0.3));
    }
}
