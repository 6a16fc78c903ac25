//! Explore the cache-topology design space of paper Figure 4: how the
//! interconnect and way-interleaving choices create (or destroy) the
//! energy asymmetry SLIP exploits, using the geometric wire model.
//!
//! ```sh
//! cargo run --release --example topology_explorer
//! ```

use energy_model::{BankGrid, Energy, HierarchySpec, Topology, WireParams};

fn show_level(name: &str, grid: &BankGrid, wire: &WireParams, table2: &[Energy]) {
    let split = [4usize, 4, 8];
    println!(
        "--- {name}: {}x{} banks, {} ways ---",
        grid.rows, grid.cols, grid.ways
    );
    println!(
        "{:<38} {:>10} {:>10} {:>10} {:>9}",
        "topology (paper Fig. 4)", "sub0", "sub1", "sub2", "spread"
    );
    for (label, topo) in [
        (
            "hierarchical bus, way-interleaved",
            Topology::HierarchicalBusWayInterleaved,
        ),
        (
            "hierarchical bus, set-interleaved",
            Topology::HierarchicalBusSetInterleaved,
        ),
        ("H-tree", Topology::HTree),
    ] {
        let e = grid.sublevel_energies(topo, wire, &split);
        let spread = e.last().expect("3 sublevels").as_pj() / e[0].as_pj();
        println!(
            "{:<38} {:>10} {:>10} {:>10} {:>8.2}x",
            label,
            format!("{}", e[0]),
            format!("{}", e[1]),
            format!("{}", e[2]),
            spread
        );
    }
    println!(
        "{:<38} {:>10} {:>10} {:>10}",
        "paper Table 2 (HSPICE)",
        format!("{}", table2[0]),
        format!("{}", table2[1]),
        format!("{}", table2[2]),
    );
    println!();
}

fn main() {
    let tech = HierarchySpec::builtin("45nm").unwrap().technology();
    let wire = tech.wire();
    println!(
        "Geometric wire model at 45 nm ({} pJ/bit/mm, 64 B lines).\n\
         Only the way-interleaved hierarchical bus exposes per-way energy\n\
         asymmetry — the premise of SLIP. Set interleaving makes every\n\
         candidate location equal; the H-tree makes them equally *bad*.\n",
        wire.pj_per_bit_mm
    );
    show_level(
        "L2 (256 KB)",
        &BankGrid::l2_45nm(),
        &wire,
        &tech.l2.sublevel_access,
    );
    show_level(
        "L3 (2 MB)",
        &BankGrid::l3_45nm(),
        &wire,
        &tech.l3.sublevel_access,
    );

    // What finer partitions would look like at the L3.
    println!("--- L3 way-interleaved, alternative sublevel splits ---");
    let grid = BankGrid::l3_45nm();
    for split in [vec![8usize, 8], vec![4, 4, 8], vec![4, 4, 4, 4], vec![2; 8]] {
        let e = grid.sublevel_energies(Topology::HierarchicalBusWayInterleaved, &wire, &split);
        let pretty: Vec<String> = e.iter().map(|x| format!("{:.0}", x.as_pj())).collect();
        println!(
            "  {:>12} ways -> [{}] pJ",
            format!("{split:?}"),
            pretty.join(", ")
        );
    }
}
