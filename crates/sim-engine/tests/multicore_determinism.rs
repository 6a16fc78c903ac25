//! Tier-1 determinism guarantees of the two-core shared-L3 driver and
//! the fused suite path: results are bit-identical across worker counts
//! and match inline single-cell runs.

use sim_engine::codec;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::experiments::{SuiteOptions, SuiteResults};
use sim_engine::multicore::{run_mix, MulticoreResult};
use sim_engine::system::run_workload_with_warmup;
use sim_engine::SweepConfig;

const LEN: u64 = 25_000;

/// The first three paper mixes x the two headline policies.
fn cells() -> Vec<((&'static str, &'static str), PolicyKind)> {
    workloads::MULTICORE_MIXES[..3]
        .iter()
        .flat_map(|&mix| [PolicyKind::Baseline, PolicyKind::SlipAbp].map(move |p| (mix, p)))
        .collect()
}

/// `MulticoreResult` has no `PartialEq`; its derived `Debug` prints
/// every counter and every float exactly, which is fingerprint enough
/// for bit-exactness checks (and it carries no wall-clock field).
fn fingerprint(r: &MulticoreResult) -> String {
    format!("{r:?}")
}

fn run_cell(cell: ((&str, &str), PolicyKind)) -> MulticoreResult {
    let ((a, b), policy) = cell;
    let spec_a = workloads::workload(a).expect("known benchmark");
    let spec_b = workloads::workload(b).expect("known benchmark");
    run_mix(SystemConfig::paper_45nm(policy), &spec_a, &spec_b, LEN)
}

#[test]
fn mixes_are_bit_identical_across_worker_counts() {
    let cells = cells();
    let serial = sweep_runner::run_indexed(cells.len(), 1, |i| fingerprint(&run_cell(cells[i])));
    let parallel = sweep_runner::run_indexed(cells.len(), 4, |i| fingerprint(&run_cell(cells[i])));
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "mix cell {:?} differs between jobs=1 and jobs=4",
            cells[i]
        );
    }
}

#[test]
fn repeated_mixes_are_bit_identical() {
    let cell = (workloads::MULTICORE_MIXES[0], PolicyKind::SlipAbp);
    assert_eq!(fingerprint(&run_cell(cell)), fingerprint(&run_cell(cell)));
}

/// The fused suite path must agree bit-for-bit with inline single-cell
/// runs and stay deterministic across worker counts.
#[test]
fn fused_suite_is_deterministic_and_matches_inline() {
    let options = || {
        SuiteOptions::paper_full()
            .with_benchmarks(&["gcc", "lbm"])
            .with_policies(&[PolicyKind::Slip, PolicyKind::SlipAbp])
            .with_accesses(30_000)
            .with_warmup(4_000)
    };
    let suite_fp = |s: &SuiteResults, bench: &str, policy: PolicyKind| {
        codec::encode_result(s.get(bench, policy)).to_json()
    };
    let fused_1 = SuiteResults::run_with(options(), &SweepConfig::with_jobs(1)).unwrap();
    let fused_4 = SuiteResults::run_with(options(), &SweepConfig::with_jobs(4)).unwrap();
    let opts = options();
    for &bench in fused_1.benchmarks() {
        let spec = workloads::workload(bench).expect("known benchmark");
        for &policy in &fused_1.options.policies {
            let reference = suite_fp(&fused_1, bench, policy);
            assert_eq!(
                reference,
                suite_fp(&fused_4, bench, policy),
                "fused cell ({bench}, {policy}) differs between jobs=1 and jobs=4"
            );
            let inline = run_workload_with_warmup(
                opts.cell_config(policy),
                &spec,
                opts.accesses,
                opts.warmup,
            );
            assert_eq!(
                reference,
                codec::encode_result(&inline).to_json(),
                "cell ({bench}, {policy}) differs between fused and inline runs"
            );
        }
    }
}
