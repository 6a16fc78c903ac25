//! Hardware-parameter experiments: Table 2 validation against the
//! geometric wire model, and the Section 5 EOU cost summary.

use crate::report::Table;
use energy_model::{BankGrid, HierarchySpec, TechnologyParams, Topology};
use slip_core::{EouCost, LevelModelParams};

/// One Table 2 validation row.
#[derive(Debug, Clone, PartialEq)]
pub struct Tab02Row {
    /// Quantity name.
    pub name: String,
    /// Paper Table 2 value (pJ).
    pub paper_pj: f64,
    /// Value re-derived from the geometric bank-grid wire model (pJ);
    /// `None` for constants that are inputs rather than derived.
    pub model_pj: Option<f64>,
}

/// The built-in 45 nm node (paper Table 2).
fn tech_45nm() -> TechnologyParams {
    HierarchySpec::builtin("45nm")
        .expect("built-in 45nm node")
        .technology()
}

/// Builds the Table 2 rows, deriving the sublevel energies from the
/// calibrated bank grids.
pub fn tab02() -> Vec<Tab02Row> {
    let t = &tech_45nm();
    let wire = t.wire();
    let ways = [4usize, 4, 8];
    let l2 = BankGrid::l2_45nm().sublevel_energies(
        Topology::HierarchicalBusWayInterleaved,
        &wire,
        &ways,
    );
    let l3 = BankGrid::l3_45nm().sublevel_energies(
        Topology::HierarchicalBusWayInterleaved,
        &wire,
        &ways,
    );
    let mut rows = vec![
        Tab02Row {
            name: "wire energy (pJ/bit/mm)".into(),
            paper_pj: t.wire_pj_per_bit_mm,
            model_pj: None,
        },
        Tab02Row {
            name: "L2 baseline access".into(),
            paper_pj: t.l2.baseline_access.as_pj(),
            model_pj: Some(t.l2.mean_access().as_pj()),
        },
    ];
    for (i, model) in l2.iter().enumerate() {
        rows.push(Tab02Row {
            name: format!("L2 sublevel {i} access"),
            paper_pj: t.l2.sublevel_access[i].as_pj(),
            model_pj: Some(model.as_pj()),
        });
    }
    rows.push(Tab02Row {
        name: "L3 baseline access".into(),
        paper_pj: t.l3.baseline_access.as_pj(),
        model_pj: Some(t.l3.mean_access().as_pj()),
    });
    for (i, model) in l3.iter().enumerate() {
        rows.push(Tab02Row {
            name: format!("L3 sublevel {i} access"),
            paper_pj: t.l3.sublevel_access[i].as_pj(),
            model_pj: Some(model.as_pj()),
        });
    }
    rows.push(Tab02Row {
        name: "L2 metadata access".into(),
        paper_pj: t.l2.metadata_access.as_pj(),
        model_pj: None,
    });
    rows.push(Tab02Row {
        name: "L3 metadata access".into(),
        paper_pj: t.l3.metadata_access.as_pj(),
        model_pj: None,
    });
    rows.push(Tab02Row {
        name: "DRAM (pJ/bit)".into(),
        paper_pj: t.dram_pj_per_bit,
        model_pj: None,
    });
    rows
}

/// Renders the Table 2 validation.
pub fn tab02_table(rows: &[Tab02Row]) -> Table {
    let mut t = Table::new(
        "Table 2: energy parameters at 45 nm, with geometric-model cross-check",
        &["quantity", "paper", "wire model", "error"],
    );
    for r in rows {
        let (model, err) = match r.model_pj {
            Some(m) => (
                format!("{m:.1}"),
                format!("{:+.1}%", (m / r.paper_pj - 1.0) * 100.0),
            ),
            None => ("-".into(), "-".into()),
        };
        t.row(vec![
            r.name.clone(),
            format!("{:.2}", r.paper_pj),
            model,
            err,
        ]);
    }
    t
}

/// The Section 5 EOU cost summary with derived sanity ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct EouSummary {
    /// The cost constants.
    pub cost: EouCost,
    /// Number of candidate SLIPs the unit evaluates (2^S).
    pub candidates: usize,
    /// EOU energy as a fraction of one L3 (LLC) access.
    pub energy_vs_llc_access: f64,
}

/// Builds the EOU summary.
pub fn eou_summary() -> EouSummary {
    let t = tech_45nm();
    let params = LevelModelParams::from_level(&t.l3, t.dram_line_energy());
    let eou = slip_core::EnergyOptimizerUnit::new(&params);
    let cost = eou.cost();
    EouSummary {
        cost,
        candidates: eou.candidates(),
        energy_vs_llc_access: cost.energy_per_op / t.l3.baseline_access,
    }
}

/// Renders the EOU summary.
pub fn eou_table(s: &EouSummary) -> Table {
    let mut t = Table::new(
        "Section 5: EOU hardware cost (paper: 2 cycles, 1.27 pJ/op, 0.00366 mm^2, <0.5% of LLC access energy)",
        &["quantity", "value"],
    );
    t.row(vec!["candidate SLIPs".into(), s.candidates.to_string()]);
    t.row(vec![
        "latency (cycles)".into(),
        s.cost.latency_cycles.to_string(),
    ]);
    t.row(vec![
        "throughput (ops/cycle)".into(),
        s.cost.throughput_per_cycle.to_string(),
    ]);
    t.row(vec![
        "energy per op".into(),
        s.cost.energy_per_op.to_string(),
    ]);
    t.row(vec![
        "area (mm^2)".into(),
        format!("{:.5}", s.cost.area_mm2),
    ]);
    t.row(vec![
        "energy vs LLC access".into(),
        format!("{:.2}%", s.energy_vs_llc_access * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab02_model_errors_are_small() {
        let rows = tab02();
        for r in &rows {
            if let Some(m) = r.model_pj {
                let err = (m / r.paper_pj - 1.0).abs();
                assert!(err < 0.06, "{}: {err}", r.name);
            }
        }
        assert!(tab02_table(&rows).render().contains("L3 sublevel 2"));
    }

    #[test]
    fn eou_summary_matches_paper_claims() {
        let s = eou_summary();
        assert_eq!(s.candidates, 8);
        assert_eq!(s.cost.latency_cycles, 2);
        // <0.5% of LLC access energy.
        assert!(s.energy_vs_llc_access < 0.005 * 2.0);
        assert!(eou_table(&s).render().contains("1.270 pJ"));
    }
}
