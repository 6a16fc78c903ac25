//! Sensitivity studies: distribution bin width (§6) and the Section 7
//! replacement-policy adaptation (DRRIP/SHiP under SLIP).

use crate::config::{PolicyKind, ReplacementKind};
use crate::experiments::suite::{SuiteResults, Workload};
use crate::report::{mean, pct, Table};
use workloads::{PatternKind, PatternSpec, PhaseSpec, WorkloadSpec};

/// One bin-width study row.
#[derive(Debug, Clone, PartialEq)]
pub struct BinWidthRow {
    /// Counter width in bits.
    pub bits: u32,
    /// Mean L2 saving of SLIP+ABP.
    pub l2_saving: f64,
    /// Mean L3 saving of SLIP+ABP.
    pub l3_saving: f64,
    /// Mean DRAM traffic relative to baseline (the paper's 2-bit
    /// penalty shows up here: hit counts rounded to zero cause
    /// over-bypassing and extra DRAM accesses).
    pub dram_traffic: f64,
}

/// The §6 bin-width sweep (paper: 4 bits within 1% of wider; sharp
/// drop at 2 bits). The baseline has no distribution counters, so every
/// width compares against the default baseline.
pub fn bin_width_sweep(
    suite: &SuiteResults,
    benchmarks: &[&'static str],
    widths: &[u32],
) -> Vec<BinWidthRow> {
    let opts = &suite.options;
    widths
        .iter()
        .map(|&bits| {
            let (mut l2, mut l3, mut dram) = (Vec::new(), Vec::new(), Vec::new());
            for &b in benchmarks {
                let base = suite.result(&opts.cell(b, PolicyKind::Baseline));
                let cell = opts.cell(b, PolicyKind::SlipAbp);
                let r = suite.result(&cell.with(|v| v.rd_bin_bits = bits));
                l2.push(1.0 - r.l2_total_energy() / base.l2_total_energy());
                l3.push(1.0 - r.l3_total_energy() / base.l3_total_energy());
                dram.push(r.dram_total_traffic() as f64 / base.dram_demand_traffic().max(1) as f64);
            }
            BinWidthRow {
                bits,
                l2_saving: mean(&l2),
                l3_saving: mean(&l3),
                dram_traffic: mean(&dram),
            }
        })
        .collect()
}

/// Renders the bin-width sweep.
pub fn bin_width_table(rows: &[BinWidthRow]) -> Table {
    let mut t = Table::new(
        "Section 6: distribution bin-width sensitivity, SLIP+ABP \
         (paper: 4 b within 1% of wider widths; 2 b over-bypasses, raising LLC/DRAM accesses)",
        &["bits", "L2 saving", "L3 saving", "DRAM traffic"],
    );
    for r in rows {
        t.row(vec![
            r.bits.to_string(),
            pct(r.l2_saving),
            pct(r.l3_saving),
            pct(r.dram_traffic),
        ]);
    }
    t
}

/// A scan-resistance stressor: a hot working set that fits the L2 near
/// chunk plus long streaming scans (DRRIP's scan-resistance showcase).
pub fn scan_stressor() -> WorkloadSpec {
    WorkloadSpec::new(
        "scan-stressor",
        vec![PhaseSpec {
            fraction: 1.0,
            patterns: vec![
                PatternSpec::new(PatternKind::Loop { region_kb: 48 }, 55, 0.2),
                PatternSpec::new(
                    PatternKind::Scan {
                        region_kb: 4 * 1024,
                    },
                    45,
                    0.2,
                ),
            ],
        }],
    )
}

/// A thrash stressor: a working set slightly larger than the L2
/// (BRRIP's thrash-resistance showcase).
pub fn thrash_stressor() -> WorkloadSpec {
    WorkloadSpec::new(
        "thrash-stressor",
        vec![PhaseSpec {
            fraction: 1.0,
            patterns: vec![PatternSpec::new(
                PatternKind::Loop { region_kb: 320 },
                1,
                0.2,
            )],
        }],
    )
}

/// One Section 7 ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplacementRow {
    /// Stressor name.
    pub workload: String,
    /// Replacement policy.
    pub replacement: ReplacementKind,
    /// L2 demand hit rate under the regular cache.
    pub baseline_hit_rate: f64,
    /// L2 demand hit rate under SLIP+ABP with Section 7's randomized
    /// victim sublevel.
    pub slip_hit_rate: f64,
    /// L2 energy saving of SLIP+ABP over the regular cache, same
    /// replacement.
    pub l2_saving: f64,
}

/// The Section 7 study: does SLIP's chunk-restricted,
/// sublevel-randomized victim selection preserve DRRIP/SHiP behavior?
pub fn replacement_ablation(suite: &SuiteResults) -> Vec<ReplacementRow> {
    let mut rows = Vec::new();
    for spec in [scan_stressor(), thrash_stressor()] {
        for replacement in [
            ReplacementKind::Lru,
            ReplacementKind::Drrip,
            ReplacementKind::Ship,
        ] {
            let run = |p| {
                let cell = suite.options.cell(Workload::Custom(spec.clone()), p);
                suite.result(&cell.with(|v| v.replacement = replacement))
            };
            let (base, slip) = (run(PolicyKind::Baseline), run(PolicyKind::SlipAbp));
            rows.push(ReplacementRow {
                workload: spec.name().to_owned(),
                replacement,
                baseline_hit_rate: base.l2_stats.demand_hit_rate(),
                slip_hit_rate: slip.l2_stats.demand_hit_rate(),
                l2_saving: 1.0 - slip.l2_total_energy() / base.l2_total_energy(),
            });
        }
    }
    rows
}

/// Renders the Section 7 ablation.
pub fn replacement_table(rows: &[ReplacementRow]) -> Table {
    let mut t = Table::new(
        "Section 7: replacement policies under SLIP \
         (chunk victimization with randomized sublevels preserves scan/thrash resistance)",
        &[
            "workload",
            "replacement",
            "baseline hit rate",
            "SLIP+ABP hit rate",
            "L2 saving",
        ],
    );
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.replacement.label().to_owned(),
            pct(r.baseline_hit_rate),
            pct(r.slip_hit_rate),
            pct(r.l2_saving),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::suite::tests::read_study;

    #[test]
    fn wider_bins_do_not_hurt() {
        let rows = read_study(150_000, |s| bin_width_sweep(s, &["soplex"], &[2, 4, 8]));
        assert_eq!(rows.len(), 3);
        let by_bits = |b: u32| rows.iter().find(|r| r.bits == b).unwrap();
        // 4 bits lands close to 8 bits (paper: within 1%; allow some
        // slack for the short test trace).
        let gap = (by_bits(8).l2_saving - by_bits(4).l2_saving).abs();
        assert!(gap < 0.08, "gap {gap}");
    }

    #[test]
    fn drrip_scan_resistance_survives_slip() {
        let rows = read_study(200_000, replacement_ablation);
        assert_eq!(rows.len(), 6);
        let scan_drrip = rows
            .iter()
            .find(|r| r.workload == "scan-stressor" && r.replacement == ReplacementKind::Drrip)
            .unwrap();
        // SLIP must not destroy DRRIP's hit rate on the scan stressor.
        assert!(
            scan_drrip.slip_hit_rate > scan_drrip.baseline_hit_rate - 0.10,
            "{scan_drrip:?}"
        );
        assert!(!replacement_table(&rows).render().is_empty());
    }

    #[test]
    fn stressors_are_well_formed() {
        assert_eq!(scan_stressor().name(), "scan-stressor");
        assert_eq!(thrash_stressor().name(), "thrash-stressor");
        // The thrash loop exceeds the 256 KB L2.
        let t = thrash_stressor();
        let trace: Vec<_> = t.trace(1000, 1).collect();
        assert_eq!(trace.len(), 1000);
    }
}
