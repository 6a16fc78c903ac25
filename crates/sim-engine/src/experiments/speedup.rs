//! Figure 13: speedups of the four policies versus the regular
//! hierarchy.

use crate::config::PolicyKind;
use crate::experiments::suite::SuiteResults;
use crate::report::{mean, pct2, Table};

/// One Figure 13 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Benchmark (or "average").
    pub bench: String,
    /// Speedup minus one (0.0075 = 0.75%) per policy:
    /// NuRAPID, LRU-PEA, SLIP, SLIP+ABP.
    pub speedups: [f64; 4],
}

/// The policy order of the `speedups` array.
pub const FIG13_POLICIES: [PolicyKind; 4] = [
    PolicyKind::NuRapid,
    PolicyKind::LruPea,
    PolicyKind::Slip,
    PolicyKind::SlipAbp,
];

/// Computes Figure 13 from a suite.
pub fn fig13(suite: &SuiteResults) -> Vec<Fig13Row> {
    let mut rows: Vec<Fig13Row> = suite
        .benchmarks()
        .iter()
        .map(|&b| {
            let base = suite.baseline(b);
            let mut speedups = [0.0f64; 4];
            for (s, &p) in speedups.iter_mut().zip(&FIG13_POLICIES) {
                *s = suite.get(b, p).speedup_vs(base) - 1.0;
            }
            Fig13Row {
                bench: b.to_owned(),
                speedups,
            }
        })
        .collect();
    let mut avg = [0.0f64; 4];
    for (i, a) in avg.iter_mut().enumerate() {
        *a = mean(&rows.iter().map(|r| r.speedups[i]).collect::<Vec<_>>());
    }
    rows.push(Fig13Row {
        bench: "average".to_owned(),
        speedups: avg,
    });
    rows
}

/// Renders Figure 13 as a table.
pub fn fig13_table(rows: &[Fig13Row]) -> Table {
    let mut t = Table::new(
        "Figure 13: speedup vs regular hierarchy \
         (paper avg: NuRAPID 0.06%, LRU-PEA 0.16%, SLIP 0.24%, SLIP+ABP 0.75%)",
        &["bench", "NuRAPID", "LRU-PEA", "SLIP", "SLIP+ABP"],
    );
    for r in rows {
        t.row(vec![
            r.bench.clone(),
            pct2(r.speedups[0]),
            pct2(r.speedups[1]),
            pct2(r.speedups[2]),
            pct2(r.speedups[3]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::suite::{SuiteOptions, SweepConfig};

    #[test]
    fn speedups_are_small_and_slip_abp_not_worst() {
        let suite = SuiteResults::run_with(
            SuiteOptions::paper_full()
                .with_benchmarks(&["gcc", "sphinx3"])
                .with_accesses(150_000),
            &SweepConfig::with_jobs(2),
        )
        .unwrap();
        let rows = fig13(&suite);
        let avg = rows.last().unwrap();
        for s in avg.speedups {
            // All within a plausible +-25% band (the paper's band is
            // tighter; our timing model is cruder, and the per-set port
            // backlog charges promotion occupancy to later same-set
            // accesses, which taxes the promotion-heavy NUCA policies).
            assert!(s.abs() < 0.25, "{avg:?}");
        }
        // SLIP+ABP is not slower than the NUCA policies on average.
        assert!(avg.speedups[3] >= avg.speedups[0] - 0.01, "{avg:?}");
        assert!(!fig13_table(&rows).render().is_empty());
    }
}
