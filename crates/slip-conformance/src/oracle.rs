//! The figure oracle: EXPERIMENTS.md's headline table as data-driven
//! assertions.
//!
//! The paper's reproducible claims are *signs and orderings* — SLIP+ABP
//! saves more than SLIP, both save where NuRAPID and LRU-PEA lose,
//! metadata traffic stays under 1.5% of demand traffic — plus tolerance
//! bands around the measured headline numbers. Each claim is one
//! [`OracleRow`] with an inclusive `[lo, hi]` band; the bands are
//! calibrated for 1M-access runs and wide enough to absorb seed and
//! warmup noise without admitting a sign flip or an ordering inversion.
//!
//! The bands pin regressions at 1M; they do not show convergence. The
//! savings keep climbing with trace length: the full 14-benchmark sweep
//! (no warmup, seed `0x511b`) gives suite-mean SLIP+ABP L2/L3 savings of
//! 28.5%/27.2% at 1M, 42.6%/41.0% at 4M and 52.4%/57.5% at 16M, and
//! SLIP's 1.6%/5.0%, 9.8%/12.2% and 16.2%/23.7% (ROADMAP item 1). The
//! headline table in EXPERIMENTS.md is a 4M snapshot.

use energy_model::{EnergyCategory, HierarchySpec};
use sim_engine::config::PolicyKind;
use sim_engine::experiments::energy;
use sim_engine::experiments::suite::{SuiteOptions, SuiteResults, SweepConfig};

/// One checked claim.
#[derive(Debug, Clone)]
pub struct OracleRow {
    /// What the claim asserts, e.g. `mean L2 saving, SLIP+ABP`.
    pub label: String,
    /// The measured value.
    pub value: f64,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl OracleRow {
    /// Whether the measured value sits inside the band.
    pub fn pass(&self) -> bool {
        self.value.is_finite() && self.value >= self.lo && self.value <= self.hi
    }
}

impl core::fmt::Display for OracleRow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} {:<44} {:>9.4}  in [{:>8.4}, {:>8.4}]",
            if self.pass() { "ok  " } else { "FAIL" },
            self.label,
            self.value,
            self.lo,
            self.hi
        )
    }
}

/// The full oracle verdict.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Accesses per benchmark the oracle ran at.
    pub accesses: u64,
    /// Every checked claim.
    pub rows: Vec<OracleRow>,
}

impl OracleReport {
    /// Rows whose value fell outside their band.
    pub fn failures(&self) -> Vec<&OracleRow> {
        self.rows.iter().filter(|r| !r.pass()).collect()
    }

    /// Whether every claim held.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.pass())
    }
}

impl core::fmt::Display for OracleReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "figure oracle at {} accesses/benchmark: {}/{} claims hold",
            self.accesses,
            self.rows.len() - self.failures().len(),
            self.rows.len()
        )?;
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Mean speedup of `policy` over the per-benchmark baselines.
fn mean_speedup(suite: &SuiteResults, policy: PolicyKind) -> f64 {
    mean(
        suite
            .benchmarks()
            .iter()
            .map(|b| suite.get(b, policy).speedup_vs(suite.baseline(b))),
    )
}

/// Mean metadata share of DRAM traffic under `policy`.
fn mean_metadata_overhead(suite: &SuiteResults, policy: PolicyKind) -> f64 {
    mean(suite.benchmarks().iter().map(|b| {
        let r = suite.get(b, policy);
        (r.dram_total_traffic() - r.dram_demand_traffic()) as f64
            / suite.baseline(b).dram_demand_traffic() as f64
    }))
}

/// Runs the headline experiment grid at `accesses` per benchmark and
/// checks every claim. `sweep` controls parallelism; results are
/// identical at any worker count.
pub fn run_oracle(accesses: u64, sweep: &SweepConfig) -> std::io::Result<OracleReport> {
    let options = SuiteOptions::paper_full()
        .with_accesses(accesses)
        .with_warmup(accesses / 10);
    let (mut rows, node_rows) = SuiteResults::run_read(options, sweep, single_core_rows)?;
    // Two-core shared-L3 spot check (Figure 16 headline: 49.0% L3
    // saving, -4.9% DRAM at 4M/core over the 8 mixes; the oracle runs
    // two mixes to stay inside the --oracle time budget).
    let per_core = SuiteOptions::paper_full()
        .with_accesses(accesses / 2)
        .with_warmup(0);
    let (l3_savings, dram_changes): (Vec<f64>, Vec<f64>) =
        SuiteResults::run_read(per_core, sweep, |suite| {
            let mixes = &workloads::MULTICORE_MIXES[..2];
            let run = |&m, p| suite.mix(&suite.options.cell(m, p));
            mixes
                .iter()
                .map(|m| {
                    let (base, slip) = (run(m, PolicyKind::Baseline), run(m, PolicyKind::SlipAbp));
                    (
                        1.0 - slip.l3_energy / base.l3_energy,
                        slip.dram_total_traffic as f64 / base.dram_demand_traffic as f64 - 1.0,
                    )
                })
                .unzip()
        })?;
    rows.push(row(
        "multicore shared-L3 saving, SLIP+ABP",
        mean(l3_savings.into_iter()),
        0.25,
        0.65,
    ));
    rows.push(row(
        "multicore DRAM traffic change, SLIP+ABP",
        mean(dram_changes.into_iter()),
        -0.20,
        0.02,
    ));
    rows.extend(node_rows);
    Ok(OracleReport { accesses, rows })
}

/// One claim with its band.
fn row(label: &str, value: f64, lo: f64, hi: f64) -> OracleRow {
    OracleRow {
        label: label.to_string(),
        value,
        lo,
        hi,
    }
}

/// The single-core claims: the 45 nm headline figures, and the node
/// studies.
fn single_core_rows(suite: &SuiteResults) -> (Vec<OracleRow>, Vec<OracleRow>) {
    let l2 = |p| suite.mean_saving(p).0;
    let l3 = |p| suite.mean_saving(p).1;
    let speedup = |p| mean_speedup(suite, p);

    let headline = vec![
        // Headline savings bands (EXPERIMENTS.md: L2 9.8% / 42.6%,
        // L3 12.2% / 41.0% at 4M; 1M runs land within these bands).
        row("mean L2 saving, SLIP", l2(PolicyKind::Slip), 0.02, 0.30),
        row(
            "mean L2 saving, SLIP+ABP",
            l2(PolicyKind::SlipAbp),
            0.25,
            0.60,
        ),
        row("mean L3 saving, SLIP", l3(PolicyKind::Slip), 0.02, 0.30),
        row(
            "mean L3 saving, SLIP+ABP",
            l3(PolicyKind::SlipAbp),
            0.25,
            0.60,
        ),
        // The baselines *lose* energy in this wire-dominated model
        // (NuRAPID ~-119%/-108%, LRU-PEA ~-13%/-15%): signs must hold.
        row(
            "mean L2 saving, NuRAPID (negative)",
            l2(PolicyKind::NuRapid),
            -3.0,
            -0.30,
        ),
        row(
            "mean L3 saving, NuRAPID (negative)",
            l3(PolicyKind::NuRapid),
            -3.0,
            -0.30,
        ),
        row(
            "mean L2 saving, LRU-PEA (negative)",
            l2(PolicyKind::LruPea),
            -0.60,
            -0.01,
        ),
        row(
            "mean L3 saving, LRU-PEA (negative)",
            l3(PolicyKind::LruPea),
            -0.60,
            -0.01,
        ),
        // Orderings, encoded as non-negative differences.
        row(
            "ordering: ABP adds L2 saving over SLIP",
            l2(PolicyKind::SlipAbp) - l2(PolicyKind::Slip),
            0.0,
            1.0,
        ),
        row(
            "ordering: ABP adds L3 saving over SLIP",
            l3(PolicyKind::SlipAbp) - l3(PolicyKind::Slip),
            0.0,
            1.0,
        ),
        // Speedup ordering NuRAPID < LRU-PEA < SLIP < SLIP+ABP
        // (measured -25.3% / -4.9% / +4.9% / +16.8% at 4M).
        row(
            "ordering: speedup LRU-PEA over NuRAPID",
            speedup(PolicyKind::LruPea) - speedup(PolicyKind::NuRapid),
            0.0,
            1.0,
        ),
        row(
            "ordering: speedup SLIP over LRU-PEA",
            speedup(PolicyKind::Slip) - speedup(PolicyKind::LruPea),
            0.0,
            1.0,
        ),
        // ABP's edge over plain SLIP and its net speedup only fully
        // develop with trace length (+16.8% at 4M, -0.5% at the oracle's
        // 1M default): the bands tolerate the short-run shortfall while
        // still catching a real regression.
        row(
            "ordering: speedup SLIP+ABP over SLIP",
            speedup(PolicyKind::SlipAbp) - speedup(PolicyKind::Slip),
            -0.03,
            1.0,
        ),
        row(
            "mean speedup, SLIP+ABP",
            speedup(PolicyKind::SlipAbp),
            0.96,
            1.20,
        ),
        row(
            "mean speedup, NuRAPID (slowdown)",
            speedup(PolicyKind::NuRapid),
            0.70,
            1.0,
        ),
        // SLIP+ABP reduces DRAM traffic on net at paper length (-4.2%
        // at 4M; +2.7% at 1M, where warmup is a larger share), and
        // metadata stays under the paper's 1.5%.
        row(
            "mean DRAM traffic change, SLIP+ABP",
            energy::mean_dram_traffic_change(suite, PolicyKind::SlipAbp),
            -0.20,
            0.06,
        ),
        row(
            "mean metadata DRAM overhead, SLIP+ABP",
            mean_metadata_overhead(suite, PolicyKind::SlipAbp),
            0.0,
            0.015,
        ),
    ];

    // §6 node study at 22 nm, through the topology path: the node is a
    // parsed hierarchy spec, not a compiled-in constant, so the oracle
    // also pins the spec pipeline end to end. The paper's §6 claim is
    // that SLIP's savings *persist* at smaller nodes (22 nm: 36% L2 /
    // 25% L3). In this model wire and bank energy shrink together, so
    // the fractional saving at 22 nm tracks 45 nm to within half a
    // point (measured −0.004 L2 / −0.002 L3 at 1M) — the gap rows pin
    // that carry-over, not a growth that the model does not exhibit.
    let benchmarks = suite.benchmarks();
    let mut rows = Vec::new();
    let (l2_22, l3_22) = energy::node_savings(suite, "22nm", benchmarks);
    rows.push(row("mean L2 saving at 22nm, SLIP+ABP", l2_22, 0.22, 0.55));
    rows.push(row("mean L3 saving at 22nm, SLIP+ABP", l3_22, 0.18, 0.52));
    rows.push(row(
        "22nm L2 saving gap vs 45nm",
        l2_22 - l2(PolicyKind::SlipAbp),
        -0.06,
        0.10,
    ));
    rows.push(row(
        "22nm L3 saving gap vs 45nm",
        l3_22 - l3(PolicyKind::SlipAbp),
        -0.06,
        0.10,
    ));

    // STT-RAM LLC node: reads cost ~0.6x SRAM but writes cost 6x their
    // read, so the baseline's L3 energy is *insertion*-dominated —
    // every miss fill pays the expensive write — and ABP's insertion
    // bypass saves more at L3 than the SRAM node's. Both claims are
    // orderings, robust to run length.
    let stt = HierarchySpec::builtin("stt-llc").expect("built-in node");
    let stt_insertion_share = mean(benchmarks.iter().map(|&b| {
        let cell = suite.options.cell(b, PolicyKind::Baseline);
        let cell = cell.with(|v| v.topology = Some(stt.clone()));
        let acct = &suite.result(&cell).l3_energy;
        let insertion = acct.get(EnergyCategory::Insertion).as_pj();
        let access = acct.get(EnergyCategory::Access).as_pj();
        insertion / (insertion + access)
    }));
    rows.push(row(
        "stt-llc: baseline L3 insertion share of read+insert",
        stt_insertion_share,
        0.65,
        0.97,
    ));
    rows.push(row(
        "ordering: stt-llc L3 saving over 45nm, SLIP+ABP",
        energy::node_savings(suite, "stt-llc", benchmarks).1 - l3(PolicyKind::SlipAbp),
        0.0,
        0.3,
    ));
    (headline, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_band_logic() {
        let mk = |value, lo, hi| OracleRow {
            label: "t".into(),
            value,
            lo,
            hi,
        };
        assert!(mk(0.4, 0.25, 0.6).pass());
        assert!(mk(0.25, 0.25, 0.6).pass(), "bounds are inclusive");
        assert!(!mk(0.7, 0.25, 0.6).pass());
        assert!(!mk(f64::NAN, 0.25, 0.6).pass(), "NaN never passes");
        let report = OracleReport {
            accesses: 1,
            rows: vec![mk(0.4, 0.25, 0.6), mk(0.7, 0.25, 0.6)],
        };
        assert_eq!(report.failures().len(), 1);
        assert!(!report.passed());
        assert!(report.to_string().contains("1/2 claims hold"));
    }
}
