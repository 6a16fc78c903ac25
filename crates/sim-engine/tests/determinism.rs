//! Tier-1 guarantees of the sweep engine: a parallel sweep is
//! bit-identical to a serial one, and a journaled sweep resumes without
//! re-running (or altering) completed cells.

use sim_engine::codec;
use sim_engine::config::PolicyKind;
use sim_engine::experiments::{paper, SuiteOptions, SuiteResults};
use sim_engine::SweepConfig;
use std::collections::BTreeSet;
use sweep_runner::json::Value;

fn reduced_options() -> SuiteOptions {
    SuiteOptions::paper_full()
        .with_benchmarks(&["gcc", "soplex", "mcf"])
        .with_policies(&[PolicyKind::Slip, PolicyKind::SlipAbp])
        .with_accesses(40_000)
        .with_warmup(5_000)
}

/// Canonical fingerprint of one cell: the exact journal payload text.
/// `SimResult` has no `PartialEq`, and going through the codec also
/// proves every compared field survives a journal round-trip.
fn fingerprint(suite: &SuiteResults, bench: &str, policy: PolicyKind) -> String {
    codec::encode_result(suite.get(bench, policy)).to_json()
}

#[test]
fn four_workers_match_serial_bit_exactly() {
    let serial = SuiteResults::run_with(reduced_options(), &SweepConfig::serial()).unwrap();
    let parallel = SuiteResults::run_with(reduced_options(), &SweepConfig::with_jobs(4)).unwrap();
    for &bench in serial.benchmarks() {
        for &policy in &serial.options.policies {
            assert_eq!(
                fingerprint(&serial, bench, policy),
                fingerprint(&parallel, bench, policy),
                "cell ({bench}, {policy}) differs between jobs=1 and jobs=4"
            );
        }
    }
    // Spot-check the fields the paper tables are built from.
    for &bench in serial.benchmarks() {
        let (s, p) = (
            serial.get(bench, PolicyKind::SlipAbp),
            parallel.get(bench, PolicyKind::SlipAbp),
        );
        assert_eq!(s.l2_total_energy().as_pj(), p.l2_total_energy().as_pj());
        assert_eq!(s.l3_total_energy().as_pj(), p.l3_total_energy().as_pj());
        assert_eq!(s.l2_stats.demand_hits, p.l2_stats.demand_hits);
        assert_eq!(s.l3_stats.demand_hits, p.l3_stats.demand_hits);
        assert_eq!(s.dram_total_traffic(), p.dram_total_traffic());
    }
}

#[test]
fn journaled_suite_resumes_from_completed_cells() {
    let dir = std::env::temp_dir().join(format!(
        "slip-suite-resume-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("suite.jsonl");

    let sweep = SweepConfig {
        journal: Some(journal.clone()),
        ..SweepConfig::with_jobs(2)
    };
    let first = SuiteResults::run_with(reduced_options(), &sweep).unwrap();
    let lines_after_first = std::fs::read_to_string(&journal).unwrap().lines().count();
    // 3 benchmarks x (baseline + slip + slip-abp) cells.
    assert_eq!(lines_after_first, 9);

    // Second run restores every cell from the journal: no new lines,
    // same results bit-for-bit.
    let second = SuiteResults::run_with(reduced_options(), &sweep).unwrap();
    let lines_after_second = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines_after_second, lines_after_first, "resume re-ran cells");
    for &bench in first.benchmarks() {
        for &policy in &first.options.policies {
            assert_eq!(
                fingerprint(&first, bench, policy),
                fingerprint(&second, bench, policy),
                "journal restore changed cell ({bench}, {policy})"
            );
        }
    }

    // A sweep with different inputs gets fresh keys: nothing stale is
    // reused, and the journal grows by exactly the new cells.
    let grown = reduced_options().with_accesses(50_000);
    let third = SuiteResults::run_with(grown, &sweep).unwrap();
    let lines_after_third = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines_after_third, lines_after_first + 9);
    assert_eq!(third.get("gcc", PolicyKind::SlipAbp).accesses, 50_000);

    std::fs::remove_dir_all(&dir).ok();
}

/// The whole reproduction grid, journaled: the first run records each
/// distinct cell once; a second run into the same journal restores
/// every cell, runs none (appends nothing), and renders the identical
/// tables.
#[test]
fn paper_grid_reruns_from_its_journal_without_running_a_cell() {
    let mut path = std::env::temp_dir();
    path.push(format!("slip-paper-grid-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = SuiteOptions::paper_full()
        .with_accesses(3_000)
        .with_warmup(0);
    let sweep = SweepConfig {
        journal: Some(path.clone()),
        ..SweepConfig::with_jobs(2)
    };
    let first = paper::run(options.clone(), &sweep).unwrap();
    let journal = std::fs::read_to_string(&path).unwrap();
    let keys: Vec<String> = journal
        .lines()
        .map(|l| {
            let record = Value::parse(l).unwrap();
            record.get("key").unwrap().as_str().unwrap().to_owned()
        })
        .collect();
    let distinct: BTreeSet<&String> = keys.iter().collect();
    assert_eq!(keys.len(), distinct.len(), "a cell ran twice");
    // The main grid, every study's variants and the two-core mixes.
    assert!(keys.len() > 250, "{} cells", keys.len());
    assert!(distinct.contains(&options.cell_key("gcc", PolicyKind::SlipAbp)));
    assert!(keys.iter().any(|k| k.contains(",inclusive")));
    assert!(keys.iter().any(|k| k.starts_with("lbm+gcc/")));

    let second = paper::run(options, &sweep).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        journal,
        "the re-run appended to the journal"
    );
    assert_eq!(second, first);
    std::fs::remove_file(&path).unwrap();
}
