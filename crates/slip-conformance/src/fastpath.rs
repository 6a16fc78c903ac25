//! Fast-path determinism check: the L1 fast path (SoA set layout,
//! probe backoff, way memo, TLB-residency gate) must be bit-identical
//! to the verbatim reference path.
//!
//! This is the conformance-side guarantee backing the default
//! execution path: `reference_hot_path = false` is purely an execution
//! strategy, never a modeling change. The check replays adversarial
//! trace families — the repeat-heavy ones that exercise the way memo
//! and the per-hit credit hardest, plus tag aliases, address edges,
//! and TLB thrash that stress its invalidation and residency gating —
//! through the reference path (`reference_hot_path = true`) and every
//! optimized execution that ships:
//!
//! 1. inline `step_fast`, one access at a time (`SingleCoreSystem::run`,
//!    the `slip run` path; the repo benchmark's `cell_l1` keeps the
//!    fast path and memo, `cell_llc` the probe backoff), stepped in
//!    lockstep with the reference system so their `probe()` counters
//!    must agree after every access,
//! 2. a singleton fused group streaming the trace (the sweep and `slip
//!    serve` path, which steps the group's shared L1 instead),
//!
//! and compares all encoded results byte for byte.

use crate::adversarial::{self, Pattern};
use crate::invariants::Violation;
use cache_sim::Access;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::system::SingleCoreSystem;
use sim_engine::{codec, run_group, SimResult};

/// Where two JSON payloads first differ, with a little context — enough
/// to name the diverging field without dumping two full results.
fn first_difference(a: &str, b: &str) -> String {
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    let start = at.saturating_sub(40);
    let excerpt = |s: &str| -> String {
        s.get(start..(at + 40).min(s.len()))
            .unwrap_or("<non-utf8 boundary>")
            .to_owned()
    };
    format!(
        "first divergence at byte {at}:\n    reference: …{}…\n    fast path: …{}…",
        excerpt(a),
        excerpt(b)
    )
}

/// A `SingleCoreSystem::probe()` reading: `(accesses, cycles)`.
type Probe = (u64, u64);

/// Inline replay of `config` and of its reference-path twin in
/// lockstep: `warmup` accesses, a measurement reset, then the rest,
/// each access through `step_fast` (the `run_workload_with_warmup`
/// structure). Every access must leave both systems with the same
/// `probe()` counters, so a hit credited wrongly is caught at the
/// access that took it. Returns `(reference, fast)` results, or the
/// index of the first access whose probes differ and both probes.
fn run_inline_lockstep(
    config: &SystemConfig,
    name: &str,
    trace: &[Access],
    warmup: u64,
) -> Result<(SimResult, SimResult), (u64, Probe, Probe)> {
    let mut reference = config.clone();
    reference.reference_hot_path = true;
    let mut systems = [
        SingleCoreSystem::new(reference),
        SingleCoreSystem::new(config.clone()),
    ];
    for (i, &access) in trace.iter().enumerate() {
        if i as u64 == warmup {
            systems
                .iter_mut()
                .for_each(SingleCoreSystem::reset_measurements);
        }
        for system in &mut systems {
            system.step_fast(access);
        }
        let (want, got) = (systems[0].probe(), systems[1].probe());
        if want != got {
            return Err((i as u64, want, got));
        }
    }
    let [reference, fast] = systems;
    Ok((
        reference.finish(name.to_owned()),
        fast.finish(name.to_owned()),
    ))
}

/// One cell as a singleton fused group over `accesses`.
fn run_fused(
    config: SystemConfig,
    name: &str,
    accesses: impl IntoIterator<Item = Access>,
    warmup: u64,
) -> SimResult {
    run_group(vec![config], name, accesses, warmup)
        .pop()
        .expect("one config in, one result out")
}

/// Replays one adversarial trace per (pattern, policy) case through the
/// reference path and every fast-path execution, requiring per-access
/// probe agreement inline and bit-identical encoded results. A slice of
/// the trace is treated as warmup so the measurement reset is exercised
/// as well.
pub fn check_fastpath_determinism(seed: u64, trace_len: u64, quiet: bool) -> Result<(), Violation> {
    let cases: [(Pattern, PolicyKind, Option<sim_engine::ReplacementKind>); 7] = [
        (Pattern::SingleLineLoop, PolicyKind::Baseline, None),
        (Pattern::ConflictStorm, PolicyKind::Baseline, None),
        (Pattern::TagAlias, PolicyKind::NuRapid, None),
        (Pattern::PhaseChange, PolicyKind::LruPea, None),
        (Pattern::MaxAddressEdge, PolicyKind::Baseline, None),
        (
            Pattern::RandomMix,
            PolicyKind::Baseline,
            Some(sim_engine::ReplacementKind::Drrip),
        ),
        (Pattern::TlbThrash, PolicyKind::SlipAbp, None),
    ];
    for (i, (pattern, policy, replacement)) in cases.into_iter().enumerate() {
        let scenario = format!("{pattern}/{policy:?}");
        if !quiet {
            eprintln!("  fastpath-determinism: {scenario}");
        }
        let trace = adversarial::generate(pattern, seed ^ ((i as u64) << 8), trace_len);
        let mut config = SystemConfig::paper_45nm(policy);
        if let Some(r) = replacement {
            config.replacement = r;
        }
        let warmup = trace_len / 8;

        debug_assert!(!config.reference_hot_path);
        let (reference, inline) = run_inline_lockstep(&config, &scenario, &trace, warmup).map_err(
            |(step, want, got)| Violation {
                invariant: "fastpath-determinism",
                scenario: scenario.clone(),
                step: Some(step),
                detail: format!(
                    "inline step_fast probe (accesses, cycles) {got:?} != reference {want:?} \
                     (seed {seed:#x}, {trace_len} accesses, warmup {warmup})"
                ),
            },
        )?;
        let want = codec::encode_result(&reference).to_json();
        for (mode, result) in [
            ("inline step_fast", inline),
            (
                "fused streamed",
                run_fused(config, &scenario, trace.iter().copied(), warmup),
            ),
        ] {
            let got = codec::encode_result(&result).to_json();
            if got != want {
                return Err(Violation {
                    invariant: "fastpath-determinism",
                    scenario,
                    step: None,
                    detail: format!(
                        "optimized {mode} is not bit-identical to the reference path \
                         (seed {seed:#x}, {trace_len} accesses, warmup {warmup});\n  {}",
                        first_difference(&want, &got)
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_matches_reference_over_adversarial_families() {
        if let Err(v) = check_fastpath_determinism(0x511b, 4_000, true) {
            panic!("{v}");
        }
    }
}
