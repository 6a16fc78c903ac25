//! Tier-1 determinism guarantees of the two-core shared-L3 driver and
//! the fused suite path: results are bit-identical across worker counts
//! and match inline single-cell runs.

use sim_engine::codec;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::experiments::{SuiteOptions, SuiteResults};
use sim_engine::multicore::{run_mix, DualCoreSystem, MulticoreResult};
use sim_engine::system::{run_workload, run_workload_with_warmup};
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
    let run = |jobs| {
        let ran = sweep_runner::run_indexed_cancellable(cells.len(), jobs, None, |i| {
            fingerprint(&run_cell(cells[i]))
        });
        ran.into_iter().map(|(_, f)| f).collect::<Vec<_>>()
    };
    let (serial, parallel) = (run(1), run(4));
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

/// With an idle second core, the two-core driver is the single-core
/// one: for the seedless policies (no MMU, no RNG stream to derive per
/// core) it must reproduce `run_workload` on the first trace exactly.
#[test]
fn idle_second_core_reproduces_the_single_core_driver() {
    let spec = workloads::workload("gcc").expect("known benchmark");
    for policy in [PolicyKind::Baseline, PolicyKind::NuRapid] {
        let config = SystemConfig::paper_45nm(policy);
        let single = run_workload(config.clone(), &spec, LEN);
        let mut dual = DualCoreSystem::new(config.clone());
        dual.run(spec.trace(LEN, config.seed), core::iter::empty());
        let dual = dual.finish(("gcc".to_owned(), "idle".to_owned()));
        assert_eq!(dual.cycles, [single.cycles, 0], "{policy}");
        assert_eq!(dual.accesses, [single.accesses, 0], "{policy}");
        assert_eq!(dual.l2_stats, single.l2_stats, "{policy}");
        assert_eq!(dual.l3_stats, single.l3_stats, "{policy}");
        assert_eq!(dual.l2_energy, single.l2_energy.total(), "{policy}");
        assert_eq!(dual.l3_energy, single.l3_energy.total(), "{policy}");
        assert_eq!(
            dual.dram_demand_traffic,
            single.dram_reads + single.dram_writes,
            "{policy}"
        );
        assert_eq!(
            dual.dram_total_traffic,
            single.dram_reads
                + single.dram_writes
                + single.dram_metadata_reads
                + single.dram_metadata_writes,
            "{policy}"
        );
    }
}
