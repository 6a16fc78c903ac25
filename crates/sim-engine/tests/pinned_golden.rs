//! Pinned goldens: the FNV-1a 64 hash of every cell's journal payload
//! for {gcc, mcf} x all five policies x the three built-in nodes, at
//! 20k accesses; of single-core cells under the inclusive LLC and the
//! DRRIP/SHiP replacement policies; and of the two-core `run_mix`
//! results (hashing their `Debug` text) for the first two paper mixes.
//!
//! Every other golden compares two execution paths of the same build,
//! so a change that moves a built-in node's *values* (an energy, a
//! latency, a geometry) passes them all. This one compares against
//! constants, so it fails on any such move. Update a pin only when the
//! change is meant to alter that node's results, and say why in the
//! commit.

use energy_model::HierarchySpec;
use sim_engine::codec;
use sim_engine::config::{PolicyKind, ReplacementKind, SystemConfig};
use sim_engine::multicore::run_mix;
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

/// A config variant the built-in nodes do not cover: what a pin turns
/// on beyond `SystemConfig::paper_45nm(policy)`.
#[derive(Clone, Copy, Debug)]
enum Variant {
    Plain,
    Inclusive,
    Partitioned,
    Drrip,
    Ship,
}
use Variant::{Drrip, Inclusive, Partitioned, Plain, Ship};

fn variant_config(policy: PolicyKind, variant: Variant) -> SystemConfig {
    let mut config = SystemConfig::paper_45nm(policy);
    match variant {
        Plain => {}
        Inclusive => config.inclusive_llc = true,
        Partitioned => config.partitioned_l3 = true,
        Drrip => config.replacement = ReplacementKind::Drrip,
        Ship => config.replacement = ReplacementKind::Ship,
    }
    config
}

/// Single-core cells under the inclusive LLC and the §7 replacement
/// policies: `(benchmark, accesses, policy label, variant,
/// fnv1a64(payload))`. gcc's 20k accesses never evict from the 2 MB
/// L3, so its inclusive baseline equals the plain one; mcf at 50k
/// accesses exercises back-invalidation.
const VARIANT_PINS: [(&str, u64, &str, Variant, u64); 6] = [
    ("gcc", 20_000, "SLIP+ABP", Inclusive, 0xaf29b5458585ef8d),
    ("gcc", 20_000, "baseline", Inclusive, 0xf727938a5fd28f68),
    ("gcc", 20_000, "SLIP", Drrip, 0x4ab8284531ff7830),
    ("gcc", 20_000, "baseline", Ship, 0x4d1cbb5313b1117e),
    ("mcf", 50_000, "baseline", Inclusive, 0x5fbe44e1efe6bed6),
    ("mcf", 50_000, "SLIP+ABP", Inclusive, 0xa0b95fa06f5f7d41),
];

/// Two-core `run_mix` cells at 20k accesses per core:
/// `(mix index, policy label, variant, fnv1a64(format!("{result:?}")))`.
const MIX_PINS: [(usize, &str, Variant, u64); 13] = [
    (0, "baseline", Plain, 0x6e45b47d2e9c7a95),
    (0, "NuRAPID", Plain, 0xf339bcb4266cd9fd),
    (0, "LRU-PEA", Plain, 0x087f3df2e1274eb6),
    (0, "SLIP", Plain, 0x6140f5056f768b30),
    (0, "SLIP+ABP", Plain, 0xe9ce1acede32c5df),
    (1, "baseline", Plain, 0xd63647ac1381b654),
    (1, "NuRAPID", Plain, 0xc1d3f2af146b1407),
    (1, "LRU-PEA", Plain, 0x459f69b67ed2477d),
    (1, "SLIP", Plain, 0x687ddb667362493e),
    (1, "SLIP+ABP", Plain, 0x178bcbd2fb583b69),
    (0, "SLIP+ABP", Partitioned, 0x07985392a5c460c4),
    (0, "SLIP+ABP", Drrip, 0x003a1114afae6cad),
    (0, "baseline", Ship, 0x4b0fc1e090795594),
];

#[test]
fn config_variant_payloads_match_pinned_hashes() {
    let mut mismatches = Vec::new();
    for &(bench, len, label, variant, want) in &VARIANT_PINS {
        let workload = workloads::workload(bench).expect("known benchmark");
        let policy = PolicyKind::parse(label).expect("policy label");
        let result = run_workload(variant_config(policy, variant), &workload, len);
        let got = fnv1a64(&codec::encode_result(&result).to_json());
        if got != want {
            mismatches.push(format!(
                "    ({bench:?}, {len}, {label:?}, {variant:?}, {got:#018x}), // pinned {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} pinned variant cells moved:\n{}",
        mismatches.len(),
        VARIANT_PINS.len(),
        mismatches.join("\n")
    );
}

#[test]
fn two_core_mixes_match_pinned_hashes() {
    let mut mismatches = Vec::new();
    for &(mix, label, variant, want) in &MIX_PINS {
        let (a, b) = workloads::MULTICORE_MIXES[mix];
        let spec_a = workloads::workload(a).expect("known benchmark");
        let spec_b = workloads::workload(b).expect("known benchmark");
        let policy = PolicyKind::parse(label).expect("policy label");
        let result = run_mix(variant_config(policy, variant), &spec_a, &spec_b, ACCESSES);
        let got = fnv1a64(&format!("{result:?}"));
        if got != want {
            mismatches.push(format!(
                "    ({mix}, {label:?}, {variant:?}, {got:#018x}), // pinned {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} pinned mix cells moved:\n{}",
        mismatches.len(),
        MIX_PINS.len(),
        mismatches.join("\n")
    );
}
