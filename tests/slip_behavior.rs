//! End-to-end behavioral tests of the SLIP mechanism itself: policy
//! convergence, bypassing, demotion, and the sampling machinery, all
//! observed through the full system.

use cache_sim::{Access, PageId};
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::SingleCoreSystem;
use slip_core::{PageState, Slip};
use workloads::{PatternKind, PatternSpec, PhaseSpec, WorkloadSpec};

fn single_pattern(kind: PatternKind) -> WorkloadSpec {
    WorkloadSpec::new(
        "synthetic",
        vec![PhaseSpec {
            fraction: 1.0,
            patterns: vec![PatternSpec::new(kind, 1, 0.0)],
        }],
    )
}

fn run_system(policy: PolicyKind, spec: &WorkloadSpec, len: u64) -> SingleCoreSystem {
    let config = SystemConfig::paper_45nm(policy);
    let seed = config.seed;
    let mut system = SingleCoreSystem::new(config);
    system.run(spec.trace(len, seed));
    system
}

/// Collects the stable-page SLIP codes at one level.
fn stable_slips(system: &SingleCoreSystem, level: usize) -> Vec<Slip> {
    system
        .mmu()
        .expect("SLIP system")
        .page_table
        .iter()
        .filter(|(_, e)| e.state == PageState::Stable)
        .map(|(_, e)| Slip::from_code(3, e.slips[level]).expect("valid code"))
        .collect()
}

#[test]
fn streaming_pages_converge_to_the_all_bypass_policy() {
    // A large scan that never reuses within cache-visible distances:
    // stable pages must overwhelmingly pick the ABP at L2.
    // 2 MB footprint -> ~45 sweeps in 1.5M accesses, enough TLB misses
    // per page for nearly all pages to stabilize.
    let spec = single_pattern(PatternKind::Scan {
        region_kb: 3 * 1024,
    });
    let system = run_system(PolicyKind::SlipAbp, &spec, 1_500_000);
    let slips = stable_slips(&system, 0);
    assert!(!slips.is_empty(), "some pages must have stabilized");
    let abp = slips.iter().filter(|s| s.is_all_bypass()).count();
    assert!(
        abp as f64 / slips.len() as f64 > 0.9,
        "{abp}/{} pages chose the ABP",
        slips.len()
    );
    // And the L2 must show massive bypassing.
    let r = system.finish("scan");
    let f = r.l2_stats.insertion_class_fractions();
    assert!(f[0] > 0.5, "ABP insertion fraction {:?}", f);
}

#[test]
fn tight_loop_pages_prefer_near_chunks() {
    // A 40 KB loop (fits the 64 KB L2 sublevel 0, misses the 32 KB L1)
    // mixed with a page-churning random pattern so the loop's pages
    // actually take TLB misses — all SLIP policy work happens on TLB
    // misses (paper Figure 7), so a workload whose pages never leave
    // the TLB never re-optimizes.
    let spec = WorkloadSpec::new(
        "loop+churn",
        vec![PhaseSpec {
            fraction: 1.0,
            patterns: vec![
                PatternSpec::new(PatternKind::Loop { region_kb: 40 }, 70, 0.0),
                PatternSpec::new(
                    PatternKind::Random {
                        region_kb: 16 * 1024,
                    },
                    30,
                    0.0,
                ),
            ],
        }],
    );
    let system = run_system(PolicyKind::SlipAbp, &spec, 800_000);
    // The loop's pages are the ones in pattern region 1 (see the trace
    // layout: region index = line >> 26).
    let loop_slips: Vec<Slip> = system
        .mmu()
        .expect("SLIP system")
        .page_table
        .iter()
        .filter(|(p, e)| p.0 >> 20 == 1 && e.state == PageState::Stable)
        .map(|(_, e)| Slip::from_code(3, e.slips[0]).expect("valid code"))
        .collect();
    assert!(!loop_slips.is_empty(), "loop pages must stabilize");
    // "Near-first" = the initial chunk stays within the two nearest
    // sublevels (the measured reuse distance straddles the 64 KB bin
    // boundary once other traffic interleaves, so {[0]} and {[0,1]}
    // are both energy-optimal placements).
    let near_first = loop_slips
        .iter()
        .filter(|s| s.chunks().next().is_some_and(|c| *c.end() <= 1))
        .count();
    assert!(
        near_first as f64 / loop_slips.len() as f64 > 0.6,
        "near-first {near_first}/{}: {loop_slips:?}",
        loop_slips.len()
    );
}

#[test]
fn bypassed_lines_are_never_resident() {
    // Force a page to the ABP at both levels, then stream through it:
    // its lines must never be resident in L2.
    let spec = single_pattern(PatternKind::Scan {
        region_kb: 2 * 1024,
    });
    let mut system = run_system(PolicyKind::SlipAbp, &spec, 400_000);
    // Find a stable all-bypass page and replay an access to it.
    let page = system
        .mmu()
        .expect("mmu")
        .page_table
        .iter()
        .find(|(_, e)| {
            e.state == PageState::Stable
                && Slip::from_code(3, e.slips[0])
                    .expect("code")
                    .is_all_bypass()
        })
        .map(|(p, _)| *p);
    let Some(page) = page else {
        panic!("no stable bypass page found");
    };
    let addr = page.byte_addr();
    system.step(Access::read(addr));
    let line = Access::read(addr).line();
    assert!(
        !system.l2().contains(line),
        "bypassed line must not be in L2"
    );
}

#[test]
fn sampling_pages_insert_with_default_slip() {
    // Immediately after first touch every page samples; the insertion
    // class histogram must start with Default entries.
    let spec = single_pattern(PatternKind::Scan { region_kb: 1024 });
    let config = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
    let seed = config.seed;
    let mut system = SingleCoreSystem::new(config);
    // One sweep only: everything is in warmup.
    system.run(spec.trace(16_384, seed));
    let r = system.finish("warmup");
    let f = r.l2_stats.insertion_class_fractions();
    assert!(
        f[2] > 0.9,
        "warmup insertions must be Default-classed: {f:?}"
    );
}

#[test]
fn mcf_phase_change_is_tracked_by_resampling() {
    // mcf's reuse behavior flips mid-run; time-based sampling must
    // re-observe pages (stable -> sampling transitions happen), so at
    // least some pages change their stable SLIP over the run.
    let spec = workloads::workload("mcf").expect("mcf");
    let system = run_system(PolicyKind::SlipAbp, &spec, 1_200_000);
    let mmu = system.mmu().expect("mmu");
    // Resampling happened:
    assert!(
        mmu.stats.slip_recomputes as f64 > mmu.page_table.len() as f64 * 0.5,
        "recomputes {} vs pages {}",
        mmu.stats.slip_recomputes,
        mmu.page_table.len()
    );
}

#[test]
fn movement_queue_never_overflows_the_paper_capacity() {
    for bench in ["soplex", "mcf", "lbm"] {
        let spec = workloads::workload(bench).expect("known");
        let system = run_system(PolicyKind::SlipAbp, &spec, 300_000);
        assert_eq!(
            system.l2().movement_queue.overflows,
            0,
            "{bench}: movement cascades exceeded 16 entries"
        );
        assert!(system.l2().movement_queue.max_occupancy <= 16);
    }
}

#[test]
fn metadata_lines_live_in_a_reserved_region() {
    // The distribution-metadata lines must never alias demand lines:
    // demand pages sit far below the metadata base (2^50 lines).
    let spec = workloads::workload("xalancbmk").expect("known");
    let system = run_system(PolicyKind::SlipAbp, &spec, 200_000);
    let r = system.finish("xalancbmk");
    assert!(r.l2_stats.metadata_accesses > 0);
    // All workload pages are below the reserved region.
    for a in workloads::workload("xalancbmk")
        .expect("known")
        .trace(1000, 1)
    {
        assert!(PageId::from_byte_addr(a.addr).0 < (1 << 50));
    }
}
