//! Traffic and placement experiments: Figure 12 (miss traffic incl.
//! metadata), Figure 14 (insertion classes), Figure 15 (sublevel access
//! fractions).

use crate::config::PolicyKind;
use crate::experiments::suite::SuiteResults;
use crate::report::{mean, pct, Table};

/// One Figure 12 row: a level's miss traffic relative to baseline,
/// split into demand and metadata-overhead components.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Benchmark (or "average").
    pub bench: String,
    /// Policy (SLIP or SLIP+ABP).
    pub policy: PolicyKind,
    /// L2 demand misses / baseline L2 demand misses.
    pub l2_demand: f64,
    /// L2 metadata misses / baseline L2 demand misses.
    pub l2_overhead: f64,
    /// L3 demand misses / baseline L3 demand misses.
    pub l3_demand: f64,
    /// L3 metadata misses / baseline L3 demand misses.
    pub l3_overhead: f64,
}

impl Fig12Row {
    /// Total relative L2 miss traffic.
    pub fn l2_total(&self) -> f64 {
        self.l2_demand + self.l2_overhead
    }

    /// Total relative L3 miss traffic.
    pub fn l3_total(&self) -> f64 {
        self.l3_demand + self.l3_overhead
    }
}

/// Computes Figure 12 from a suite.
pub fn fig12(suite: &SuiteResults) -> Vec<Fig12Row> {
    let mut rows = Vec::new();
    for policy in [PolicyKind::Slip, PolicyKind::SlipAbp] {
        let mut policy_rows: Vec<Fig12Row> = suite
            .benchmarks()
            .iter()
            .map(|&b| {
                let base = suite.baseline(b);
                let r = suite.get(b, policy);
                let l2_base = base.l2_stats.demand_misses.max(1) as f64;
                let l3_base = base.l3_stats.demand_misses.max(1) as f64;
                Fig12Row {
                    bench: b.to_owned(),
                    policy,
                    l2_demand: r.l2_stats.demand_misses as f64 / l2_base,
                    l2_overhead: r.l2_stats.metadata_misses as f64 / l2_base,
                    l3_demand: r.l3_stats.demand_misses as f64 / l3_base,
                    l3_overhead: r.l3_stats.metadata_misses as f64 / l3_base,
                }
            })
            .collect();
        policy_rows.push(Fig12Row {
            bench: "average".to_owned(),
            policy,
            l2_demand: mean(&policy_rows.iter().map(|r| r.l2_demand).collect::<Vec<_>>()),
            l2_overhead: mean(
                &policy_rows
                    .iter()
                    .map(|r| r.l2_overhead)
                    .collect::<Vec<_>>(),
            ),
            l3_demand: mean(&policy_rows.iter().map(|r| r.l3_demand).collect::<Vec<_>>()),
            l3_overhead: mean(
                &policy_rows
                    .iter()
                    .map(|r| r.l3_overhead)
                    .collect::<Vec<_>>(),
            ),
        });
        rows.extend(policy_rows);
    }
    rows
}

/// Renders Figure 12 as a table.
pub fn fig12_table(rows: &[Fig12Row]) -> Table {
    let mut t = Table::new(
        "Figure 12: relative miss traffic incl. metadata overhead \
         (paper avg: SLIP -1.7%/-1.0%, SLIP+ABP -2.4%/-2.2% at L2/L3)",
        &[
            "bench",
            "policy",
            "L2 demand",
            "L2 overhead",
            "L2 total",
            "L3 demand",
            "L3 overhead",
            "L3 total",
        ],
    );
    for r in rows {
        t.row(vec![
            r.bench.clone(),
            r.policy.label().to_owned(),
            pct(r.l2_demand),
            pct(r.l2_overhead),
            pct(r.l2_total()),
            pct(r.l3_demand),
            pct(r.l3_overhead),
            pct(r.l3_total()),
        ]);
    }
    t
}

/// One Figure 14 row: the insertion-class mix at one level.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Benchmark (or "average").
    pub bench: String,
    /// `true` for L2, `false` for L3.
    pub is_l2: bool,
    /// Fractions: ABP, partial bypass, default, others.
    pub classes: [f64; 4],
}

/// Computes Figure 14 (insertion classes under SLIP+ABP).
pub fn fig14(suite: &SuiteResults) -> Vec<Fig14Row> {
    let mut rows = Vec::new();
    for is_l2 in [true, false] {
        let mut level_rows: Vec<Fig14Row> = suite
            .benchmarks()
            .iter()
            .map(|&b| {
                let r = suite.get(b, PolicyKind::SlipAbp);
                let classes = if is_l2 {
                    r.l2_stats.insertion_class_fractions()
                } else {
                    r.l3_stats.insertion_class_fractions()
                };
                Fig14Row {
                    bench: b.to_owned(),
                    is_l2,
                    classes,
                }
            })
            .collect();
        let mut avg = [0.0f64; 4];
        for r in &level_rows {
            for (a, c) in avg.iter_mut().zip(&r.classes) {
                *a += c;
            }
        }
        let n = level_rows.len() as f64;
        for a in &mut avg {
            *a /= n;
        }
        level_rows.push(Fig14Row {
            bench: "average".to_owned(),
            is_l2,
            classes: avg,
        });
        rows.extend(level_rows);
    }
    rows
}

/// Renders Figure 14 as a table.
pub fn fig14_table(rows: &[Fig14Row]) -> Table {
    let mut t = Table::new(
        "Figure 14: insertions by SLIP class under SLIP+ABP \
         (paper: ~27% L2 / ~14% L3 bypassed; ABP+partial+default > 95%)",
        &["bench", "level", "ABP", "partial", "default", "others"],
    );
    for r in rows {
        t.row(vec![
            r.bench.clone(),
            if r.is_l2 { "L2" } else { "L3" }.to_owned(),
            pct(r.classes[0]),
            pct(r.classes[1]),
            pct(r.classes[2]),
            pct(r.classes[3]),
        ]);
    }
    t
}

/// One Figure 15 row: fraction of hits served per sublevel.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Row {
    /// Policy.
    pub policy: PolicyKind,
    /// `true` for L2.
    pub is_l2: bool,
    /// Mean hit fraction per sublevel (0 = nearest).
    pub fractions: Vec<f64>,
}

/// Computes Figure 15: average sublevel hit fractions per policy.
pub fn fig15(suite: &SuiteResults) -> Vec<Fig15Row> {
    let policies = [
        PolicyKind::NuRapid,
        PolicyKind::LruPea,
        PolicyKind::Slip,
        PolicyKind::SlipAbp,
    ];
    let mut rows = Vec::new();
    for is_l2 in [true, false] {
        for policy in policies {
            let mut acc = vec![0.0f64; 3];
            for &b in suite.benchmarks() {
                let r = suite.get(b, policy);
                let f = if is_l2 {
                    r.l2_stats.sublevel_hit_fractions()
                } else {
                    r.l3_stats.sublevel_hit_fractions()
                };
                for (a, x) in acc.iter_mut().zip(&f) {
                    *a += x;
                }
            }
            let n = suite.benchmarks().len() as f64;
            for a in &mut acc {
                *a /= n;
            }
            rows.push(Fig15Row {
                policy,
                is_l2,
                fractions: acc,
            });
        }
    }
    rows
}

/// Renders Figure 15 as a table.
pub fn fig15_table(rows: &[Fig15Row]) -> Table {
    let mut t = Table::new(
        "Figure 15: fraction of accesses served per sublevel \
         (all policies shift hits toward sublevel 0; NUCA most aggressively)",
        &["level", "policy", "sublevel 0", "sublevel 1", "sublevel 2"],
    );
    for r in rows {
        t.row(vec![
            if r.is_l2 { "L2" } else { "L3" }.to_owned(),
            r.policy.label().to_owned(),
            pct(r.fractions[0]),
            pct(r.fractions[1]),
            pct(r.fractions[2]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::suite::{SuiteOptions, SweepConfig};

    fn small_suite() -> SuiteResults {
        SuiteResults::run_with(
            SuiteOptions::paper_full()
                .with_benchmarks(&["soplex", "lbm"])
                .with_accesses(150_000),
            &SweepConfig::with_jobs(2),
        )
        .unwrap()
    }

    #[test]
    fn fig12_fractions_are_sane() {
        let suite = small_suite();
        let rows = fig12(&suite);
        // 2 policies x (2 benches + average).
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.l2_demand > 0.5 && r.l2_demand < 1.5, "{r:?}");
            assert!(r.l2_overhead >= 0.0 && r.l2_overhead < 0.3, "{r:?}");
        }
        assert!(!fig12_table(&rows).render().is_empty());
    }

    #[test]
    fn fig14_classes_sum_to_one_and_abp_nonzero() {
        let suite = small_suite();
        let rows = fig14(&suite);
        for r in &rows {
            let sum: f64 = r.classes.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{r:?}");
        }
        // lbm streams: visible L2 bypassing even on this short trace
        // (pages need ~16 TLB misses to stabilize into the ABP).
        let lbm_l2 = rows.iter().find(|r| r.bench == "lbm" && r.is_l2).unwrap();
        assert!(lbm_l2.classes[0] > 0.05, "{lbm_l2:?}");
        // The paper: L2 bypassing exceeds L3 bypassing on average.
        let avg_l2 = rows
            .iter()
            .find(|r| r.bench == "average" && r.is_l2)
            .unwrap();
        let avg_l3 = rows
            .iter()
            .find(|r| r.bench == "average" && !r.is_l2)
            .unwrap();
        assert!(
            avg_l2.classes[0] >= avg_l3.classes[0] - 0.05,
            "L2 {avg_l2:?} vs L3 {avg_l3:?}"
        );
        assert!(!fig14_table(&rows).render().is_empty());
    }

    #[test]
    fn fig15_rows_cover_policies_and_levels() {
        let suite = small_suite();
        let rows = fig15(&suite);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            let sum: f64 = r.fractions.iter().sum();
            // Fractions sum to ~1 when there were hits at all.
            assert!(sum <= 1.0 + 1e-9, "{r:?}");
        }
        assert!(!fig15_table(&rows).render().is_empty());
    }
}
