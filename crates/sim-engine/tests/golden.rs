//! Golden equivalence: the allocation-free hot path (flat EOU argmin,
//! tag-filtered probes, reusable fill outcomes) produces results
//! bit-identical to the seed reference implementations, serially and
//! under a parallel worker pool.
//!
//! The fingerprint is the exact journal payload text, so every counter
//! and every energy f64 is compared bit-for-bit (wall time is
//! deliberately outside the payload — it is the one field allowed to
//! differ between the two paths).

use sim_engine::codec;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::system::run_workload_with_warmup;
use sweep_runner::pool::run_indexed_cancellable;

const BENCHMARKS: [&str; 3] = ["gcc", "soplex", "mcf"];
const POLICIES: [PolicyKind; 3] = [PolicyKind::Baseline, PolicyKind::Slip, PolicyKind::SlipAbp];
const ACCESSES: u64 = 30_000;
const WARMUP: u64 = 5_000;

/// Runs one (benchmark, policy) cell and returns its journal payload.
fn cell(index: usize, reference: bool) -> String {
    let bench = BENCHMARKS[index / POLICIES.len()];
    let policy = POLICIES[index % POLICIES.len()];
    let mut config = SystemConfig::paper_45nm(policy);
    config.reference_hot_path = reference;
    let spec = workloads::workload(bench).expect("known benchmark");
    let result = run_workload_with_warmup(config, &spec, ACCESSES, WARMUP);
    codec::encode_result(&result).to_json()
}

/// Every cell's payload, in cell order, on `jobs` workers.
fn run_indexed(cells: usize, jobs: usize, f: impl Fn(usize) -> String + Sync) -> Vec<String> {
    let ran = run_indexed_cancellable(cells, jobs, None, f);
    ran.into_iter().map(|(_, payload)| payload).collect()
}

#[test]
fn optimized_hot_path_matches_reference_bit_exactly() {
    let cells = BENCHMARKS.len() * POLICIES.len();
    let reference = run_indexed(cells, 1, |i| cell(i, true));
    let optimized = run_indexed(cells, 1, |i| cell(i, false));
    for i in 0..cells {
        assert_eq!(
            reference[i],
            optimized[i],
            "cell ({}, {}) differs between reference and optimized paths",
            BENCHMARKS[i / POLICIES.len()],
            POLICIES[i % POLICIES.len()]
        );
    }
}

#[test]
fn optimized_hot_path_is_stable_under_parallel_workers() {
    let cells = BENCHMARKS.len() * POLICIES.len();
    let serial = run_indexed(cells, 1, |i| cell(i, false));
    let parallel = run_indexed(cells, 4, |i| cell(i, false));
    for i in 0..cells {
        assert_eq!(
            serial[i],
            parallel[i],
            "cell ({}, {}) differs between jobs=1 and jobs=4",
            BENCHMARKS[i / POLICIES.len()],
            POLICIES[i % POLICIES.len()]
        );
    }
    // And the parallel optimized run still matches the reference path.
    let reference = run_indexed(cells, 4, |i| cell(i, true));
    assert_eq!(reference, parallel, "reference/optimized diverge at jobs=4");
}
