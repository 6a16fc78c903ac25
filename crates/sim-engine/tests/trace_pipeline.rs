//! Golden equivalence of the sweep executor: fused benchmark groups
//! must produce bit-identical `SimResult`s for the benchmark × policy
//! grid at one and four workers, and a journal resume across a fused
//! group must stay deterministic. The anchor is the seed
//! golden: each cell re-run through the verbatim reference hot path
//! (`reference_hot_path = true`), compared by its exact journal payload
//! text, the same fingerprint the determinism tier-1 test uses.

use sim_engine::codec;
use sim_engine::config::PolicyKind;
use sim_engine::experiments::{SuiteOptions, SuiteResults};
use sim_engine::system::run_workload_with_warmup;
use sim_engine::SweepConfig;

fn grid_options() -> SuiteOptions {
    SuiteOptions::paper_full()
        .with_benchmarks(&["gcc", "soplex", "lbm"])
        .with_policies(&[PolicyKind::NuRapid, PolicyKind::Slip, PolicyKind::SlipAbp])
        .with_accesses(30_000)
        .with_warmup(5_000)
}

fn fingerprint(suite: &SuiteResults, bench: &str, policy: PolicyKind) -> String {
    codec::encode_result(suite.get(bench, policy)).to_json()
}

/// Every cell fingerprint of a suite, in grid order.
fn fingerprints(suite: &SuiteResults) -> Vec<String> {
    suite
        .benchmarks()
        .iter()
        .flat_map(|&b| {
            suite
                .options
                .policies
                .iter()
                .map(move |&p| fingerprint(suite, b, p))
        })
        .collect()
}

fn run(sweep: &SweepConfig) -> Vec<String> {
    fingerprints(&SuiteResults::run_with(grid_options(), sweep).unwrap())
}

/// The seed golden: every cell of the grid re-run through the verbatim
/// reference hot path, in the same grid order `fingerprints` uses.
fn reference_goldens() -> Vec<String> {
    let opts = &grid_options();
    opts.benchmarks
        .iter()
        .flat_map(|&bench| {
            opts.policies.iter().map(move |&policy| {
                let mut config = opts.cell_config(policy);
                config.reference_hot_path = true;
                let spec = workloads::workload(bench).expect("known benchmark");
                let result = run_workload_with_warmup(config, &spec, opts.accesses, opts.warmup);
                codec::encode_result(&result).to_json()
            })
        })
        .collect()
}

#[test]
fn fused_sweeps_agree_with_the_seed_golden_across_jobs() {
    // Anchor: the reference path, cell by cell. Fused groups run the
    // batched fast path by default and must reproduce it bit for bit,
    // serially and with groups split across four workers.
    let reference = reference_goldens();
    for jobs in [1, 4] {
        assert_eq!(
            run(&SweepConfig::with_jobs(jobs)),
            reference,
            "fused sweep at jobs={jobs} diverges from the seed golden"
        );
    }
}

#[test]
fn journal_resume_across_a_shared_trace_group_is_deterministic() {
    let dir = std::env::temp_dir().join(format!(
        "slip-trace-pipeline-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("suite.jsonl");

    // First pass: run only part of the gcc group (baseline + SLIP), so
    // the journal holds a prefix of the group's cells.
    let partial = SuiteOptions::paper_full()
        .with_benchmarks(&["gcc"])
        .with_policies(&[PolicyKind::Slip])
        .with_accesses(30_000)
        .with_warmup(5_000);
    let sweep = SweepConfig {
        journal: Some(journal.clone()),
        ..SweepConfig::with_jobs(2)
    };
    SuiteResults::run_with(partial, &sweep).unwrap();
    let lines_first = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines_first, 2); // baseline + slip

    // Second pass widens the grid: restored cells skip execution while
    // the gcc survivors re-form a smaller fused group. The combined
    // suite must equal the seed golden.
    // 3 benchmarks x 4 policies (baseline is always added), minus the
    // 2 gcc cells already journaled.
    let resumed = SuiteResults::run_with(grid_options(), &sweep).unwrap();
    let lines_second = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines_second, 12, "exactly the 10 new cells were appended");
    assert_eq!(fingerprints(&resumed), reference_goldens());

    std::fs::remove_dir_all(&dir).ok();
}
