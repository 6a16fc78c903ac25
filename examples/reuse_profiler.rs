//! Library-API showcase: feed reuse-distance profiles to the Energy
//! Optimizer Unit and see which SLIP it would assign — the decision
//! pipeline of paper Figure 5, without a full simulation.
//!
//! ```sh
//! cargo run --release --example reuse_profiler
//! ```

use energy_model::HierarchySpec;
use slip_core::{slip_energy, EnergyOptimizerUnit, LevelModelParams, RdDistribution, Slip};

fn dist(counts: [u16; 4]) -> RdDistribution {
    let mut d = RdDistribution::paper_default();
    for (bin, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            d.observe(bin);
        }
    }
    d
}

fn main() {
    let tech = HierarchySpec::builtin("45nm").unwrap().technology();
    let l2 = LevelModelParams::from_level(&tech.l2, tech.l3.mean_access());
    let l3 = LevelModelParams::from_level(&tech.l3, tech.dram_line_energy());
    let mut eou_l2 = EnergyOptimizerUnit::new(&l2);
    let mut eou_l3 = EnergyOptimizerUnit::new(&l3);

    let scenarios: [(&str, [u16; 4]); 6] = [
        (
            "tight loop, fits 64 KB (soplex rorig, near c..r)",
            [15, 0, 0, 0],
        ),
        ("loop needing 128 KB", [0, 14, 1, 0]),
        ("loop needing the full 256 KB", [0, 0, 14, 1]),
        ("streaming, never reused (soplex rperm)", [0, 0, 0, 15]),
        ("bimodal: near hits + misses (soplex cperm)", [10, 0, 1, 4]),
        ("uniform / unknown", [4, 4, 4, 4]),
    ];

    println!("EOU decisions for the paper's L2 (sublevels 64/64/128 KB) and");
    println!("L3 (512/512/1024 KB) at 45 nm; energies are per access.\n");
    println!(
        "{:<48} {:>14} {:>10} {:>14} {:>10}",
        "reuse profile [bins]", "L2 SLIP", "E/access", "L3 SLIP", "E/access"
    );
    for (label, counts) in scenarios {
        let d = dist(counts);
        let d2 = eou_l2.optimize(&d);
        let d3 = eou_l3.optimize(&d);
        println!(
            "{:<48} {:>14} {:>10} {:>14} {:>10}",
            format!("{label}"),
            d2.slip.to_string(),
            format!("{}", d2.estimated_energy),
            d3.slip.to_string(),
            format!("{}", d3.estimated_energy),
        );
    }

    // Show the full candidate ranking for the bimodal case.
    let d = dist([10, 0, 1, 4]);
    let probs = d.probabilities();
    println!("\nfull L2 ranking for the bimodal profile {d}:");
    let mut ranked: Vec<(Slip, f64)> = Slip::enumerate(3)
        .into_iter()
        .map(|s| (s, slip_energy(&l2, s, &probs).as_pj()))
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (slip, e) in ranked {
        println!("  {:<14} {:>8.1} pJ/access", slip.to_string(), e);
    }
}
