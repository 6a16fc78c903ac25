//! Fused multi-policy replay: read the trace once, step every cell.
//!
//! A sweep's policy cells of one benchmark replay the identical access
//! stream. [`run_group`] pulls that stream once, [`CHUNK_ACCESSES`]
//! accesses at a time into one reused chunk, and steps *all* the
//! group's [`SingleCoreSystem`]s through each chunk in lockstep, with
//! per-cell state kept fully independent so every result is
//! **bit-identical** to the cell's standalone
//! [`run_workload_with_warmup`](crate::system::run_workload_with_warmup)
//! run (held by the `fused-determinism` conformance check and the
//! golden tests). Sweeps and `slip serve` generate the stream on the
//! fly (`spec.trace(..)`), so memory stays O(chunk) at any trace
//! length.
//!
//! On top of the shared stream, groups that qualify get a shared L1:
//! in the default non-inclusive hierarchy the L1 is **policy-invariant**
//! — it always runs the hardcoded baseline-LRU pair, every L1 miss
//! fills it regardless of what the lower levels decided, SLIP metadata
//! traffic never touches it, and nothing below the L1 ever reaches back
//! into it (back-invalidation is inclusive-only). Every cell of a
//! same-trace group therefore drives its L1 through the *same* access
//! and fill sequence, and since the cache substrate is a pure function
//! of set-local history (no dependence on the cycle clock), one shared
//! L1 instance reproduces each cell's L1 evolution exactly. The group
//! probes it once per access and hands every cell an [`L1Verdict`]
//! through [`SingleCoreSystem::step_below_l1`]. The shared L1 is what
//! keeps the full 70-cell sweep (the repo benchmark's `sweep_paper`)
//! about 20% faster than stepping each cell's own L1. Hits are not
//! batched on top of it: the built-in profiles, the only traffic fused
//! groups see, hit the L1 on at most 0.25% of accesses.
//!
//! Groups that do not qualify (inclusive LLC, heterogeneous L1
//! geometry) still share the stream: each system steps the shared
//! chunk through its ordinary [`SingleCoreSystem::step_fast`].
//!
//! [`run_group_observed`] runs the same lockstep loop one access per
//! chunk, with a hook after each — the conformance fuzzer's
//! cross-policy divergence probe for prefix minimization.

use crate::config::SystemConfig;
use crate::result::SimResult;
use crate::system::{L1Verdict, SingleCoreSystem};
use cache_sim::{
    Access, AccessClass, AccessResult, BaselinePolicy, CacheLevel, CacheStats, FillOutcome,
    FillRequest, LineAddr, Lru,
};
use energy_model::EnergyAccount;
use std::time::Instant;

/// Accesses per lockstep chunk (the reused scratch holds one chunk).
pub const CHUNK_ACCESSES: usize = 32 * 1024;

/// Whether a group of configurations can share one L1 instance: all
/// non-inclusive (nothing below the L1 reaches back into it) with
/// identical L1 construction parameters. The L1's tie-break RNG streams
/// are seeded from its geometry alone, so the master seed need not
/// match.
pub fn shared_l1_eligible(configs: &[SystemConfig]) -> bool {
    let Some(first) = configs.first() else {
        return false;
    };
    configs.iter().all(|c| {
        !c.inclusive_llc
            && c.l1_sets == first.l1_sets
            && c.l1_ways == first.l1_ways
            && c.l1_latency == first.l1_latency
            && c.l1_energy == first.l1_energy
            && c.reference_hot_path == first.reference_hot_path
    })
}

/// The group-shared L1: the policy-invariant baseline-LRU level every
/// cell would have built for itself.
struct SharedL1 {
    level: CacheLevel,
    policy: BaselinePolicy,
    repl: Lru,
    scratch: FillOutcome,
}

/// One access's verdict, indexing a span of `wbs` (the chunk-wide dirty
/// victim buffer).
#[derive(Clone, Copy)]
struct VerdictRec {
    hit: bool,
    latency: u32,
    wb_start: u32,
    wb_end: u32,
}

impl SharedL1 {
    fn new(config: &SystemConfig) -> SharedL1 {
        SharedL1 {
            level: config.build_l1(),
            policy: BaselinePolicy::new(),
            repl: Lru::new(),
            scratch: FillOutcome::default(),
        }
    }

    /// Probes one demand access and, on a miss, fills immediately —
    /// equivalent to the serial probe-then-fill-later sequence because
    /// nothing touches the L1 in between on a non-inclusive hierarchy.
    /// Dirty victims append to `wbs`; returns `(hit, latency)`.
    fn step(&mut self, access: Access, wbs: &mut Vec<LineAddr>) -> (bool, u32) {
        let r = self.level.access(
            access.line(),
            access.kind,
            AccessClass::Demand,
            0,
            &mut self.policy,
            &mut self.repl,
        );
        match r {
            AccessResult::Hit(h) => (true, h.latency),
            AccessResult::Miss { latency } => {
                let mut req = FillRequest::new(access.line());
                req.dirty = access.kind.is_write();
                self.level
                    .fill_into(req, 0, &mut self.policy, &mut self.repl, &mut self.scratch);
                for wb in &self.scratch.writebacks {
                    wbs.push(wb.addr);
                }
                (false, latency)
            }
        }
    }

    fn reset_measurements(&mut self) {
        self.level.reset_measurements();
    }

    fn finish(mut self) -> (CacheStats, EnergyAccount) {
        self.level.finalize();
        (self.level.stats.clone(), self.level.energy())
    }
}

/// Reusable per-chunk scratch: the chunk of accesses plus the shared-L1
/// verdicts over it.
struct GroupScratch {
    accesses: Vec<Access>,
    verdicts: Vec<VerdictRec>,
    wbs: Vec<LineAddr>,
}

impl GroupScratch {
    fn new(chunk: usize) -> GroupScratch {
        GroupScratch {
            accesses: Vec::with_capacity(chunk),
            verdicts: Vec::with_capacity(chunk),
            wbs: Vec::new(),
        }
    }

    /// Refills the chunk with up to `n` accesses from `stream`; returns
    /// how many it got.
    fn fill(&mut self, stream: &mut impl Iterator<Item = Access>, n: usize) -> usize {
        self.accesses.clear();
        self.verdicts.clear();
        self.wbs.clear();
        self.accesses.extend(stream.take(n));
        self.accesses.len()
    }

    fn verdict<'a>(&'a self, i: usize) -> L1Verdict<'a> {
        let v = self.verdicts[i];
        L1Verdict {
            hit: v.hit,
            latency: v.latency,
            writebacks: &self.wbs[v.wb_start as usize..v.wb_end as usize],
        }
    }
}

/// Steps every system of the group through the chunk in `scratch`.
fn run_chunk(
    systems: &mut [SingleCoreSystem],
    shared: &mut Option<SharedL1>,
    scratch: &mut GroupScratch,
) {
    match shared {
        Some(l1) => {
            for &a in &scratch.accesses {
                let wb_start = scratch.wbs.len() as u32;
                let (hit, latency) = l1.step(a, &mut scratch.wbs);
                scratch.verdicts.push(VerdictRec {
                    hit,
                    latency,
                    wb_start,
                    wb_end: scratch.wbs.len() as u32,
                });
            }
            for sys in systems.iter_mut() {
                for (i, &a) in scratch.accesses.iter().enumerate() {
                    sys.step_below_l1(a, &scratch.verdict(i));
                }
            }
        }
        None => {
            for sys in systems.iter_mut() {
                for &a in &scratch.accesses {
                    sys.step_fast(a);
                }
            }
        }
    }
}

/// Builds the group's systems (and shared L1 when the group qualifies).
fn build_group(configs: Vec<SystemConfig>) -> (Vec<SingleCoreSystem>, Option<SharedL1>) {
    assert!(
        !configs.is_empty(),
        "fused group must have at least one cell"
    );
    let shared = shared_l1_eligible(&configs).then(|| SharedL1::new(&configs[0]));
    let systems = configs.into_iter().map(SingleCoreSystem::new).collect();
    (systems, shared)
}

/// Zeroes every cell's (and the shared L1's) measurements at the warmup
/// boundary.
fn reset_group(systems: &mut [SingleCoreSystem], shared: &mut Option<SharedL1>) {
    for sys in systems {
        sys.reset_measurements();
    }
    if let Some(l1) = shared {
        l1.reset_measurements();
    }
}

/// Finalizes the group: per-cell results, with the shared L1's stats
/// and energy (identical to what each cell's own L1 would have
/// accumulated) written into every result.
fn finish_group(
    systems: Vec<SingleCoreSystem>,
    shared: Option<SharedL1>,
    name: &str,
    wall: f64,
) -> Vec<SimResult> {
    let shared_final = shared.map(SharedL1::finish);
    let per_cell_wall = wall / systems.len() as f64;
    systems
        .into_iter()
        .map(|sys| {
            let mut r = sys.finish(name.to_owned());
            if let Some((stats, energy)) = &shared_final {
                r.l1_stats = stats.clone();
                r.l1_energy = energy.clone();
            }
            r.wall_time_secs = per_cell_wall;
            r
        })
        .collect()
}

/// The lockstep loop behind [`run_group`] and [`run_group_observed`]:
/// pulls `chunk` accesses at a time, steps every cell through them, and
/// calls `after_chunk(index, &systems)` with the stream index of the
/// chunk's last access. Measurements reset at the warmup boundary
/// (warmup chunks end exactly on it, so the reset lands between the
/// same two accesses as a solo run's). Returns `None` when the hook
/// returns `false`, else the results with the measured wall time split
/// evenly across the cells.
fn run_lockstep(
    configs: Vec<SystemConfig>,
    name: &str,
    accesses: impl IntoIterator<Item = Access>,
    warmup: u64,
    chunk: usize,
    mut after_chunk: impl FnMut(u64, &[SingleCoreSystem]) -> bool,
) -> Option<Vec<SimResult>> {
    let (mut systems, mut shared) = build_group(configs);
    let mut scratch = GroupScratch::new(chunk);
    let mut stream = accesses.into_iter();
    let mut done = 0u64;
    while done < warmup {
        let want = (warmup - done).min(chunk as u64) as usize;
        assert_eq!(
            scratch.fill(&mut stream, want),
            want,
            "trace long enough for warmup"
        );
        run_chunk(&mut systems, &mut shared, &mut scratch);
        done += want as u64;
        if !after_chunk(done - 1, &systems) {
            return None;
        }
    }
    reset_group(&mut systems, &mut shared);
    let started = Instant::now();
    loop {
        let n = scratch.fill(&mut stream, chunk);
        if n == 0 {
            break;
        }
        run_chunk(&mut systems, &mut shared, &mut scratch);
        done += n as u64;
        if !after_chunk(done - 1, &systems) {
            return None;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    Some(finish_group(systems, shared, name, wall))
}

/// Runs all `configs` over one access stream in lockstep, returning
/// one result per config (in order). `accesses` is the cell's full
/// `warmup + len` stream; measurements reset at the warmup
/// boundary exactly as in [`run_workload_with_warmup`], and the group's
/// measured wall time is split evenly across the cells
/// (`wall_time_secs` is outside the bit-exact payload).
///
/// # Panics
///
/// Panics if `configs` is empty or the stream ends before `warmup`
/// accesses.
///
/// [`run_workload_with_warmup`]: crate::system::run_workload_with_warmup
pub fn run_group(
    configs: Vec<SystemConfig>,
    name: &str,
    accesses: impl IntoIterator<Item = Access>,
    warmup: u64,
) -> Vec<SimResult> {
    run_lockstep(configs, name, accesses, warmup, CHUNK_ACCESSES, |_, _| true)
        .expect("a hook that never aborts")
}

/// [`run_group`] one access per chunk, with an observation hook: after
/// every access steps through all cells, `observe(index, &systems)`
/// sees the group's state (`index` counts from 0 over the whole
/// stream, warmup included). Returning `false` aborts the replay and
/// yields `None` — the conformance fuzzer uses this to find the
/// shortest prefix on which two policies diverge. A completed run
/// returns results bit-identical to [`run_group`].
pub fn run_group_observed(
    configs: Vec<SystemConfig>,
    name: &str,
    accesses: impl IntoIterator<Item = Access>,
    warmup: u64,
    observe: impl FnMut(u64, &[SingleCoreSystem]) -> bool,
) -> Option<Vec<SimResult>> {
    run_lockstep(configs, name, accesses, warmup, 1, observe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::config::PolicyKind;
    use crate::system::run_workload_with_warmup;

    fn fingerprint(r: &SimResult) -> String {
        codec::encode_result(r).to_json()
    }

    fn group_configs() -> Vec<SystemConfig> {
        PolicyKind::ALL
            .iter()
            .map(|&p| SystemConfig::paper_45nm(p))
            .collect()
    }

    /// Every cell of a streamed group must be byte-identical to the
    /// cell's solo run on the verbatim reference hot path.
    fn assert_matches_reference(configs: &[SystemConfig], bench: &str, len: u64, warmup: u64) {
        let spec = workloads::workload(bench).unwrap();
        let seed = configs[0].seed;
        let streamed = run_group(
            configs.to_vec(),
            spec.name(),
            spec.trace(warmup + len, seed),
            warmup,
        );
        assert_eq!(streamed.len(), configs.len());
        for (config, s) in configs.iter().zip(&streamed) {
            let mut reference = config.clone();
            reference.reference_hot_path = true;
            let want = fingerprint(&run_workload_with_warmup(reference, &spec, len, warmup));
            let tag = format!("{:?} len={len} warmup={warmup}", config.policy);
            assert_eq!(fingerprint(s), want, "{tag}");
        }
    }

    #[test]
    fn eligibility_gates_inclusive_and_heterogeneous_groups() {
        let mut configs = group_configs();
        assert!(shared_l1_eligible(&configs));
        configs[2].inclusive_llc = true;
        assert!(!shared_l1_eligible(&configs));
        let mut configs = group_configs();
        configs[1].l1_sets = 32;
        assert!(!shared_l1_eligible(&configs));
        assert!(!shared_l1_eligible(&[]));
    }

    #[test]
    fn fused_group_matches_per_cell_replay_bit_exactly() {
        assert_matches_reference(&group_configs(), "gcc", 20_000, 3_000);
    }

    #[test]
    fn streamed_groups_match_reference_at_chunk_boundaries() {
        let configs = group_configs();
        let chunk = CHUNK_ACCESSES as u64;
        // One short of, exactly, and one past a chunk.
        for len in [chunk - 1, chunk, chunk + 1] {
            assert_matches_reference(&configs, "soplex", len, 0);
        }
        // Warmup ending exactly on a chunk boundary, then zero measured
        // accesses after a chunk-sized warmup.
        assert_matches_reference(&configs, "soplex", 1_000, chunk);
        assert_matches_reference(&configs, "soplex", 0, chunk);
    }

    #[test]
    fn ineligible_group_falls_back_to_plain_lockstep_bit_exactly() {
        let mut configs: Vec<SystemConfig> = [PolicyKind::Baseline, PolicyKind::SlipAbp]
            .iter()
            .map(|&p| SystemConfig::paper_45nm(p))
            .collect();
        for c in &mut configs {
            c.inclusive_llc = true;
        }
        assert!(!shared_l1_eligible(&configs));
        assert_matches_reference(&configs, "soplex", 10_000, 2_000);
    }

    #[test]
    fn observed_run_matches_production_and_aborts_cleanly() {
        let spec = workloads::workload("gcc").unwrap();
        let configs = group_configs();
        let trace = || spec.trace(9_000, configs[0].seed);
        let fused = run_group(configs.clone(), spec.name(), trace(), 1_000);
        let mut seen = 0u64;
        let observed =
            run_group_observed(configs.clone(), spec.name(), trace(), 1_000, |i, sys| {
                assert_eq!(sys.len(), PolicyKind::ALL.len());
                seen = i + 1;
                true
            })
            .expect("uninterrupted run completes");
        assert_eq!(seen, 9_000);
        for (a, b) in fused.iter().zip(&observed) {
            assert_eq!(fingerprint(a), fingerprint(b), "{:?}", a.policy);
        }
        // Aborting mid-stream yields None.
        let aborted =
            run_group_observed(configs.clone(), spec.name(), trace(), 1_000, |i, _| i < 100);
        assert!(aborted.is_none());
    }

    #[test]
    fn zero_measured_length_is_handled() {
        let spec = workloads::workload("gcc").unwrap();
        let configs = group_configs();
        let seed = configs[0].seed;
        let streamed = run_group(configs, spec.name(), spec.trace(5_000, seed), 5_000);
        for r in &streamed {
            assert_eq!(r.accesses, 0);
            assert_eq!(r.cycles, 0);
        }
    }
}
