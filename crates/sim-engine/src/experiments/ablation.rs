//! Design-space ablations beyond the paper's figures, exercising the
//! extension knobs DESIGN.md calls out: sublevel partitioning, the EOU
//! objective, rd-block granularity (paper §7), sampling probabilities
//! (§4.2), and LLC inclusion (§4.3). Each reads its cells from the
//! suite grid ([`SuiteResults::run_read`]).

use crate::config::PolicyKind;
use crate::experiments::suite::{Cell, SuiteResults};
use crate::report::{mean, pct, Table};
use slip_core::{EouObjective, SamplingConfig};

/// The default-configuration baseline cell of a benchmark, in `suite`'s
/// grid.
fn baseline(suite: &SuiteResults) -> impl Fn(&'static str) -> Cell + '_ {
    |b| suite.options.cell(b, PolicyKind::Baseline)
}

/// One sublevel-partitioning row.
#[derive(Debug, Clone, PartialEq)]
pub struct SublevelRow {
    /// Human label, e.g. `"2x8 ways"`.
    pub label: String,
    /// Number of sublevels (and PTE bits per level).
    pub sublevels: usize,
    /// Mean L2 saving of SLIP+ABP vs a baseline on the same geometry.
    pub l2_saving: f64,
    /// Mean L3 saving.
    pub l3_saving: f64,
}

/// Sweeps the number/shape of sublevels. The paper fixes S = 3
/// (4/4/8 ways); this ablation quantifies what coarser and finer
/// partitions cost, with energies re-derived from the calibrated bank
/// grids, against a baseline on the same geometry.
pub fn sublevel_sweep(suite: &SuiteResults, benchmarks: &[&'static str]) -> Vec<SublevelRow> {
    let splits: [(&str, &[usize]); 4] = [
        ("2 sublevels (8/8)", &[8, 8]),
        ("3 sublevels (4/4/8, paper)", &[4, 4, 8]),
        ("4 sublevels (4/4/4/4)", &[4, 4, 4, 4]),
        ("8 sublevels (2x8)", &[2, 2, 2, 2, 2, 2, 2, 2]),
    ];
    splits
        .iter()
        .map(|&(label, split)| {
            let cell = |p| {
                move |b| {
                    let c = suite.options.cell(b, p);
                    c.with(|v| v.sublevel_ways = Some(split.to_vec()))
                }
            };
            let (l2, l3) = suite.mean_savings(
                benchmarks,
                cell(PolicyKind::Baseline),
                cell(PolicyKind::SlipAbp),
            );
            SublevelRow {
                label: label.to_owned(),
                sublevels: split.len(),
                l2_saving: l2,
                l3_saving: l3,
            }
        })
        .collect()
}

/// Renders the sublevel sweep.
pub fn sublevel_table(rows: &[SublevelRow]) -> Table {
    let mut t = Table::new(
        "Ablation: sublevel partitioning (paper fixes 3 sublevels = 3 PTE bits/level)",
        &["partition", "S", "PTE bits/level", "L2 saving", "L3 saving"],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            r.sublevels.to_string(),
            r.sublevels.to_string(),
            pct(r.l2_saving),
            pct(r.l3_saving),
        ]);
    }
    t
}

/// One EOU-objective row.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveRow {
    /// The objective.
    pub objective: EouObjective,
    /// Policy (SLIP or SLIP+ABP).
    pub policy: PolicyKind,
    /// Mean L2 saving.
    pub l2_saving: f64,
    /// Mean L3 saving.
    pub l3_saving: f64,
}

/// Compares the insertion-aware EOU objective against the paper's
/// literal Eq. 1–4 (see DESIGN.md §3 for why the difference matters).
pub fn eou_objective_ablation(
    suite: &SuiteResults,
    benchmarks: &[&'static str],
) -> Vec<ObjectiveRow> {
    let mut rows = Vec::new();
    for objective in [EouObjective::InsertionAware, EouObjective::PaperLiteral] {
        for policy in [PolicyKind::Slip, PolicyKind::SlipAbp] {
            let cell = |b| {
                let c = suite.options.cell(b, policy);
                c.with(|v| v.eou_objective = objective)
            };
            let (l2, l3) = suite.mean_savings(benchmarks, baseline(suite), cell);
            rows.push(ObjectiveRow {
                objective,
                policy,
                l2_saving: l2,
                l3_saving: l3,
            });
        }
    }
    rows
}

/// Renders the objective ablation.
pub fn objective_table(rows: &[ObjectiveRow]) -> Table {
    let mut t = Table::new(
        "Ablation: EOU objective — Eq. 1-4 + insertion term vs paper-literal Eq. 1-4",
        &["objective", "policy", "L2 saving", "L3 saving"],
    );
    for r in rows {
        t.row(vec![
            format!("{:?}", r.objective),
            r.policy.label().to_owned(),
            pct(r.l2_saving),
            pct(r.l3_saving),
        ]);
    }
    t
}

/// One rd-block row.
#[derive(Debug, Clone, PartialEq)]
pub struct RdBlockRow {
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Mean L2 saving.
    pub l2_saving: f64,
    /// Mean L3 saving.
    pub l3_saving: f64,
    /// Metadata fetches per 1000 accesses (traffic cost of finer
    /// blocks).
    pub metadata_fetches_per_kilo_access: f64,
}

/// Sweeps the rd-block (profiling granularity) size — paper §7's
/// extension for large pages. Finer blocks adapt policies to
/// heterogeneous pages; coarser blocks cut metadata traffic.
pub fn rd_block_sweep(
    suite: &SuiteResults,
    benchmarks: &[&'static str],
    shifts: &[u32],
) -> Vec<RdBlockRow> {
    shifts
        .iter()
        .map(|&shift| {
            let cell = |b| {
                let c = suite.options.cell(b, PolicyKind::SlipAbp);
                c.with(|v| v.rd_block_shift = shift)
            };
            let (l2, l3) = suite.mean_savings(benchmarks, baseline(suite), cell);
            let fetches: Vec<f64> = benchmarks
                .iter()
                .map(|&b| {
                    let m = suite.result(&cell(b)).mmu_stats.expect("slip run");
                    m.metadata_fetches as f64 * 1000.0 / suite.options.accesses as f64
                })
                .collect();
            RdBlockRow {
                block_bytes: 1 << shift,
                l2_saving: l2,
                l3_saving: l3,
                metadata_fetches_per_kilo_access: mean(&fetches),
            }
        })
        .collect()
}

/// Renders the rd-block sweep.
pub fn rd_block_table(rows: &[RdBlockRow]) -> Table {
    let mut t = Table::new(
        "Ablation (paper §7): rd-block granularity",
        &["block size", "L2 saving", "L3 saving", "meta fetches/kacc"],
    );
    for r in rows {
        t.row(vec![
            format!("{} B", r.block_bytes),
            pct(r.l2_saving),
            pct(r.l3_saving),
            format!("{:.2}", r.metadata_fetches_per_kilo_access),
        ]);
    }
    t
}

/// One sampling-configuration row.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingRow {
    /// The configuration.
    pub config: SamplingConfig,
    /// Mean L2 saving.
    pub l2_saving: f64,
    /// Mean L3 saving.
    pub l3_saving: f64,
    /// Measured fraction of TLB misses that fetched metadata.
    pub fetch_fraction: f64,
}

/// Sweeps the time-based-sampling probabilities around the paper's
/// N_samp = 16 / N_stab = 256.
pub fn sampling_sweep(suite: &SuiteResults, benchmarks: &[&'static str]) -> Vec<SamplingRow> {
    let configs = [(4, 64), (16, 64), (16, 256), (64, 1024), (4, 1024)];
    configs
        .iter()
        .map(|&(n_samp, n_stab)| {
            let sc = SamplingConfig { n_samp, n_stab };
            let cell = |b| {
                let c = suite.options.cell(b, PolicyKind::SlipAbp);
                c.with(|v| v.sampling = sc)
            };
            let (l2, l3) = suite.mean_savings(benchmarks, baseline(suite), cell);
            let frac: Vec<f64> = benchmarks
                .iter()
                .map(|&b| {
                    let m = suite.result(&cell(b)).mmu_stats.expect("slip run");
                    m.metadata_fetches as f64 / m.tlb_misses.max(1) as f64
                })
                .collect();
            SamplingRow {
                config: sc,
                l2_saving: l2,
                l3_saving: l3,
                fetch_fraction: mean(&frac),
            }
        })
        .collect()
}

/// Renders the sampling sweep.
pub fn sampling_table(rows: &[SamplingRow]) -> Table {
    let mut t = Table::new(
        "Ablation (paper §4.2): time-based sampling probabilities \
         (paper: N_samp=16, N_stab=256 -> ~6% of TLB misses fetch metadata)",
        &[
            "N_samp",
            "N_stab",
            "fetch fraction",
            "L2 saving",
            "L3 saving",
        ],
    );
    for r in rows {
        t.row(vec![
            r.config.n_samp.to_string(),
            r.config.n_stab.to_string(),
            pct(r.fetch_fraction),
            pct(r.l2_saving),
            pct(r.l3_saving),
        ]);
    }
    t
}

/// One inclusion-model row.
#[derive(Debug, Clone, PartialEq)]
pub struct InclusionRow {
    /// Benchmark name.
    pub bench: String,
    /// `true` for the inclusive-LLC run.
    pub inclusive: bool,
    /// L2 demand hit rate.
    pub l2_hit_rate: f64,
    /// Speedup vs the non-inclusive baseline hierarchy.
    pub speedup: f64,
    /// DRAM demand traffic relative to that baseline.
    pub dram_traffic: f64,
}

/// Demonstrates paper §4.3's warning: the All-Bypass Policy is
/// undesirable with an inclusive LLC, because bypassed lines may not be
/// cached in any upper level either.
pub fn inclusion_ablation(suite: &SuiteResults, benchmarks: &[&'static str]) -> Vec<InclusionRow> {
    let mut rows = Vec::new();
    for &b in benchmarks {
        let base = suite.result(&baseline(suite)(b));
        for inclusive in [false, true] {
            let cell = suite.options.cell(b, PolicyKind::SlipAbp);
            let r = suite.result(&cell.with(|v| v.inclusive_llc = inclusive));
            rows.push(InclusionRow {
                bench: b.to_owned(),
                inclusive,
                l2_hit_rate: r.l2_stats.demand_hit_rate(),
                speedup: r.speedup_vs(base) - 1.0,
                dram_traffic: r.dram_total_traffic() as f64 / base.dram_demand_traffic() as f64,
            });
        }
    }
    rows
}

/// Renders the inclusion ablation.
pub fn inclusion_table(rows: &[InclusionRow]) -> Table {
    let mut t = Table::new(
        "Ablation (paper §4.3): SLIP+ABP under an inclusive LLC \
         (bypassed lines cannot be cached above -> performance degrades)",
        &["bench", "LLC", "L2 hit rate", "speedup", "DRAM traffic"],
    );
    for r in rows {
        t.row(vec![
            r.bench.clone(),
            if r.inclusive {
                "inclusive"
            } else {
                "non-inclusive"
            }
            .to_owned(),
            pct(r.l2_hit_rate),
            pct(r.speedup),
            pct(r.dram_traffic),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::suite::tests::read_study;

    const BENCH: &[&str] = &["gcc"];
    const N: u64 = 150_000;

    #[test]
    fn sublevel_sweep_covers_partitions() {
        let rows = read_study(N, |s| sublevel_sweep(s, BENCH));
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1].sublevels, 3);
        for r in &rows {
            assert!(r.l2_saving.is_finite() && r.l3_saving.is_finite());
        }
        assert!(!sublevel_table(&rows).render().is_empty());
    }

    #[test]
    fn objective_ablation_runs_both_objectives() {
        let rows = read_study(N, |s| eou_objective_ablation(s, BENCH));
        assert_eq!(rows.len(), 4);
        assert!(!objective_table(&rows).render().is_empty());
    }

    #[test]
    fn finer_rd_blocks_cost_more_metadata_traffic() {
        let rows = read_study(300_000, |s| {
            rd_block_sweep(s, &["xalancbmk"], &[11, 12, 13])
        });
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].metadata_fetches_per_kilo_access > rows[2].metadata_fetches_per_kilo_access,
            "{rows:?}"
        );
        assert!(!rd_block_table(&rows).render().is_empty());
    }

    #[test]
    fn heavier_sampling_fetches_more_metadata() {
        let rows = read_study(200_000, |s| sampling_sweep(s, &["xalancbmk"]));
        let heavy = rows
            .iter()
            .find(|r| r.config.n_samp == 16 && r.config.n_stab == 64)
            .unwrap();
        let light = rows
            .iter()
            .find(|r| r.config.n_samp == 4 && r.config.n_stab == 1024)
            .unwrap();
        assert!(
            heavy.fetch_fraction > light.fetch_fraction,
            "heavy {heavy:?} vs light {light:?}"
        );
        assert!(!sampling_table(&rows).render().is_empty());
    }

    #[test]
    fn inclusive_llc_hurts_with_abp() {
        let rows = read_study(300_000, |s| inclusion_ablation(s, &["lbm"]));
        let non = rows.iter().find(|r| !r.inclusive).unwrap();
        let inc = rows.iter().find(|r| r.inclusive).unwrap();
        // Bypassed lines uncached above: the inclusive run cannot be
        // faster, and generally pushes more traffic to DRAM.
        assert!(
            inc.speedup <= non.speedup + 0.01,
            "inclusive {inc:?} vs non {non:?}"
        );
        assert!(!inclusion_table(&rows).render().is_empty());
    }
}
