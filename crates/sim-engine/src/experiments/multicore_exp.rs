//! Figure 16: two-core multiprogrammed mixes with a shared L3, and the
//! paper §7 way-partitioned L3. Both are mix cells of the suite grid.

use crate::config::PolicyKind;
use crate::experiments::suite::SuiteResults;
use crate::report::{mean, pct, Table};

/// One Figure 16 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Row {
    /// The mix label, e.g. `"soplex+mcf"`.
    pub mix: String,
    /// Shared-L3 energy saving of SLIP+ABP vs baseline.
    pub l3_saving: f64,
    /// Combined L2+L3 energy saving.
    pub l2_l3_saving: f64,
    /// DRAM traffic change (negative = reduction), incl. metadata.
    pub dram_change: f64,
    /// NuRAPID L3 saving (negative; caption quotes −97%).
    pub l3_nurapid: f64,
    /// LRU-PEA L3 saving (caption quotes −85%).
    pub l3_lru_pea: f64,
}

/// Figure 16 over `mixes` (the paper's are
/// [`workloads::MULTICORE_MIXES`]), plus an average row.
pub fn fig16(suite: &SuiteResults, mixes: &[(&'static str, &'static str)]) -> Vec<Fig16Row> {
    let policies = [
        PolicyKind::Baseline,
        PolicyKind::SlipAbp,
        PolicyKind::NuRapid,
        PolicyKind::LruPea,
    ];
    let mut rows = Vec::new();
    for &(a, b) in mixes {
        let [base, slip, nurapid, lru_pea] =
            policies.map(|p| suite.mix(&suite.options.cell((a, b), p)));
        rows.push(Fig16Row {
            mix: format!("{a}+{b}"),
            l3_saving: 1.0 - slip.l3_energy / base.l3_energy,
            l2_l3_saving: 1.0 - slip.l2_plus_l3_energy() / base.l2_plus_l3_energy(),
            dram_change: slip.dram_total_traffic as f64 / base.dram_demand_traffic as f64 - 1.0,
            l3_nurapid: 1.0 - nurapid.l3_energy / base.l3_energy,
            l3_lru_pea: 1.0 - lru_pea.l3_energy / base.l3_energy,
        });
    }
    rows.push(Fig16Row {
        mix: "average".to_owned(),
        l3_saving: mean(&rows.iter().map(|r| r.l3_saving).collect::<Vec<_>>()),
        l2_l3_saving: mean(&rows.iter().map(|r| r.l2_l3_saving).collect::<Vec<_>>()),
        dram_change: mean(&rows.iter().map(|r| r.dram_change).collect::<Vec<_>>()),
        l3_nurapid: mean(&rows.iter().map(|r| r.l3_nurapid).collect::<Vec<_>>()),
        l3_lru_pea: mean(&rows.iter().map(|r| r.l3_lru_pea).collect::<Vec<_>>()),
    });
    rows
}

/// Renders Figure 16 as a table.
pub fn fig16_table(rows: &[Fig16Row]) -> Table {
    let mut t = Table::new(
        "Figure 16: 2-core mixes, shared 2 MB L3, SLIP+ABP \
         (paper avg: 47% L3 saving, -5.5% DRAM traffic; NuRAPID -97%, LRU-PEA -85% L3)",
        &[
            "mix",
            "L3 saving",
            "L2+L3 saving",
            "DRAM traffic",
            "NuRAPID L3",
            "LRU-PEA L3",
        ],
    );
    for r in rows {
        t.row(vec![
            r.mix.clone(),
            pct(r.l3_saving),
            pct(r.l2_l3_saving),
            pct(r.dram_change),
            pct(r.l3_nurapid),
            pct(r.l3_lru_pea),
        ]);
    }
    t
}

/// One partitioned-L3 comparison row (paper §7 extension).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRow {
    /// The mix label.
    pub mix: String,
    /// Shared-L3 energy saving with one global SLIP+ABP policy.
    pub shared_saving: f64,
    /// Saving when the L3 is way-partitioned per core, SLIP within
    /// each partition.
    pub partitioned_saving: f64,
    /// DRAM traffic change under the shared policy.
    pub shared_dram: f64,
    /// DRAM traffic change under partitioning.
    pub partitioned_dram: f64,
}

/// Compares shared vs way-partitioned L3 under SLIP+ABP (paper §7:
/// "given a partitioning of the cache among the various cores, one can
/// apply SLIP to minimize the access energy within each partition").
pub fn partition_comparison(
    suite: &SuiteResults,
    mixes: &[(&'static str, &'static str)],
) -> Vec<PartitionRow> {
    let mut rows = Vec::new();
    for &(a, b) in mixes {
        let cell = |p| suite.options.cell((a, b), p);
        let base = suite.mix(&cell(PolicyKind::Baseline));
        let shared = suite.mix(&cell(PolicyKind::SlipAbp));
        let part = suite.mix(&cell(PolicyKind::SlipAbp).with(|v| v.partitioned_l3 = true));
        rows.push(PartitionRow {
            mix: format!("{a}+{b}"),
            shared_saving: 1.0 - shared.l3_energy / base.l3_energy,
            partitioned_saving: 1.0 - part.l3_energy / base.l3_energy,
            shared_dram: shared.dram_total_traffic as f64 / base.dram_demand_traffic as f64 - 1.0,
            partitioned_dram: part.dram_total_traffic as f64 / base.dram_demand_traffic as f64
                - 1.0,
        });
    }
    rows.push(PartitionRow {
        mix: "average".to_owned(),
        shared_saving: mean(&rows.iter().map(|r| r.shared_saving).collect::<Vec<_>>()),
        partitioned_saving: mean(
            &rows
                .iter()
                .map(|r| r.partitioned_saving)
                .collect::<Vec<_>>(),
        ),
        shared_dram: mean(&rows.iter().map(|r| r.shared_dram).collect::<Vec<_>>()),
        partitioned_dram: mean(&rows.iter().map(|r| r.partitioned_dram).collect::<Vec<_>>()),
    });
    rows
}

/// Renders the partitioned-L3 comparison.
pub fn partition_table(rows: &[PartitionRow]) -> Table {
    let mut t = Table::new(
        "Paper §7 extension: shared vs way-partitioned L3, SLIP+ABP",
        &[
            "mix",
            "shared saving",
            "partitioned saving",
            "shared DRAM",
            "partitioned DRAM",
        ],
    );
    for r in rows {
        t.row(vec![
            r.mix.clone(),
            pct(r.shared_saving),
            pct(r.partitioned_saving),
            pct(r.shared_dram),
            pct(r.partitioned_dram),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::suite::tests::read_study;

    #[test]
    fn partition_comparison_produces_sane_rows() {
        let rows = read_study(60_000, |s| partition_comparison(s, &[("gcc", "lbm")]));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.shared_saving.is_finite());
            assert!(r.partitioned_saving.is_finite());
        }
        assert!(!partition_table(&rows).render().is_empty());
    }

    #[test]
    fn two_mixes_show_l3_savings_and_nuca_costs() {
        let mixes = [("soplex", "mcf"), ("lbm", "gcc")];
        let rows = read_study(100_000, |s| fig16(s, &mixes));
        assert_eq!(rows.len(), 3);
        let avg = rows.last().unwrap();
        assert!(avg.l3_saving > 0.0, "{avg:?}");
        assert!(avg.l3_nurapid < 0.0, "{avg:?}");
        assert!(avg.l3_lru_pea < 0.0, "{avg:?}");
        // DRAM traffic stays within a few percent of baseline.
        assert!(avg.dram_change.abs() < 0.15, "{avg:?}");
        assert!(!fig16_table(&rows).render().is_empty());
    }
}
