//! Pinned goldens: the FNV-1a 64 hash of every cell's journal payload
//! for {gcc, mcf} x all five policies x the three built-in nodes, at
//! 20k accesses.
//!
//! Every other golden compares two execution paths of the same build,
//! so a change that moves a built-in node's *values* (an energy, a
//! latency, a geometry) passes them all. This one compares against
//! constants, so it fails on any such move. Update a pin only when the
//! change is meant to alter that node's results, and say why in the
//! commit.

use energy_model::HierarchySpec;
use sim_engine::codec;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::system::run_workload;

const ACCESSES: u64 = 20_000;

/// `(node, benchmark, policy label, fnv1a64(payload json))`.
const PINS: [(&str, &str, &str, u64); 30] = [
    ("45nm", "gcc", "baseline", 0xf727938a5fd28f68),
    ("45nm", "gcc", "NuRAPID", 0xc3fd2f4ca034b00e),
    ("45nm", "gcc", "LRU-PEA", 0x0cacac44626b638f),
    ("45nm", "gcc", "SLIP", 0x92ce3e2e5e579cce),
    ("45nm", "gcc", "SLIP+ABP", 0xe7ebf7e2547fc3b7),
    ("45nm", "mcf", "baseline", 0x489deeeed8b23705),
    ("45nm", "mcf", "NuRAPID", 0x638226b2bcfec076),
    ("45nm", "mcf", "LRU-PEA", 0xa20dc3604c45cee0),
    ("45nm", "mcf", "SLIP", 0x4ab69a576f58eb91),
    ("45nm", "mcf", "SLIP+ABP", 0x564d32516b1b6040),
    ("22nm", "gcc", "baseline", 0xa8a1e74a652ab87a),
    ("22nm", "gcc", "NuRAPID", 0xf1ff6959dea92fdb),
    ("22nm", "gcc", "LRU-PEA", 0x0d7659804f1ed121),
    ("22nm", "gcc", "SLIP", 0x3b1d9f7f618739de),
    ("22nm", "gcc", "SLIP+ABP", 0x533063d958f5e39f),
    ("22nm", "mcf", "baseline", 0x06f7e33a7ea08828),
    ("22nm", "mcf", "NuRAPID", 0xb08823dca84f7ed7),
    ("22nm", "mcf", "LRU-PEA", 0xc4894f08e9aebe05),
    ("22nm", "mcf", "SLIP", 0x89fddaacb4dabe5c),
    ("22nm", "mcf", "SLIP+ABP", 0x262c1ee36c045c50),
    ("stt-llc", "gcc", "baseline", 0x21fcd2f7d7a02fb8),
    ("stt-llc", "gcc", "NuRAPID", 0xeb6112c91f2a219f),
    ("stt-llc", "gcc", "LRU-PEA", 0xbec31c4d289d2da6),
    ("stt-llc", "gcc", "SLIP", 0x851624a2e6eeeb12),
    ("stt-llc", "gcc", "SLIP+ABP", 0x10c8a98282ee5232),
    ("stt-llc", "mcf", "baseline", 0xe84fd33ddd3fbe1a),
    ("stt-llc", "mcf", "NuRAPID", 0xa1d7e6657e95c885),
    ("stt-llc", "mcf", "LRU-PEA", 0xccbe2795cd25828f),
    ("stt-llc", "mcf", "SLIP", 0xc54df50a99eb9c25),
    ("stt-llc", "mcf", "SLIP+ABP", 0x2402abddc5446074),
];

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cell_hash(node: &str, bench: &str, policy: PolicyKind) -> u64 {
    let spec = HierarchySpec::builtin(node).expect("built-in node");
    let config = SystemConfig::from_topology(&spec, policy).expect("valid built-in");
    let workload = workloads::workload(bench).expect("known benchmark");
    let result = run_workload(config, &workload, ACCESSES);
    fnv1a64(&codec::encode_result(&result).to_json())
}

#[test]
fn builtin_node_payloads_match_pinned_hashes() {
    let mut mismatches = Vec::new();
    for &(node, bench, label, want) in &PINS {
        let policy = PolicyKind::parse(label).expect("policy label");
        let got = cell_hash(node, bench, policy);
        if got != want {
            mismatches.push(format!(
                "    ({node:?}, {bench:?}, {label:?}, {got:#018x}), // pinned {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} pinned cells moved:\n{}",
        mismatches.len(),
        PINS.len(),
        mismatches.join("\n")
    );
}
