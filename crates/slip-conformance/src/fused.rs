//! Fused-determinism check: every cell of a fused multi-policy group
//! must be bit-identical to the cell's standalone run on the verbatim
//! reference hot path (`reference_hot_path = true`).
//!
//! This is the conformance-side guarantee behind every sweep and
//! `slip serve` run: fusing the stream (and sharing the
//! policy-invariant L1) is purely an execution strategy, never a
//! modeling change. The check replays adversarial trace families
//! through [`run_group`] with *all five* policies in one group,
//! streaming the trace, and through each cell's solo reference run,
//! comparing the encoded results byte for byte — warmup included, so
//! the group-wide measurement reset at the warmup boundary is exercised
//! too. A hit-heavy single-line loop holds every policy's shared-L1
//! hits to the same bar. An inclusive-LLC group is covered as well: it
//! must take the plain-lockstep fallback (no shared L1) and still match.
//!
//! On a mismatch the check does not stop at "results differ": it
//! re-runs the diverging cell as a singleton fused group under
//! [`run_group_observed`], stepping a reference system in lockstep and
//! comparing the cheap [`SingleCoreSystem::probe`] counters after every
//! access — the violation then names the first diverging access, the
//! shortest prefix a debugging session needs to replay.

use crate::adversarial::{self, Pattern};
use crate::invariants::Violation;
use cache_sim::Access;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::{codec, run_group, run_group_observed, SimResult, SingleCoreSystem};

/// One cell's solo run on the reference hot path: `warmup` accesses,
/// a measurement reset, then the rest.
fn reference_run(
    config: &SystemConfig,
    scenario: &str,
    trace: &[Access],
    warmup: u64,
) -> SimResult {
    let mut config = config.clone();
    config.reference_hot_path = true;
    let mut system = SingleCoreSystem::new(config);
    for (i, &access) in trace.iter().enumerate() {
        if i as u64 == warmup {
            system.reset_measurements();
        }
        system.step(access);
    }
    if trace.len() as u64 == warmup {
        system.reset_measurements();
    }
    system.finish(scenario.to_owned())
}

/// First access at which a singleton fused replay of `config` diverges
/// from the plain per-access reference replay of the same trace
/// (`None` when the probes agree at every step — the divergence lies in
/// finalization, not the access stream).
fn first_diverging_access(
    config: SystemConfig,
    scenario: &str,
    trace: &[Access],
    warmup: u64,
) -> Option<u64> {
    let mut reference = SingleCoreSystem::new(config.clone());
    let mut stream = trace.iter().copied();
    let mut first = None;
    let accesses = trace.iter().copied();
    run_group_observed(vec![config], scenario, accesses, warmup, |i, group| {
        // Mirror the observed runner exactly: measurements reset
        // before the first post-warmup access steps.
        if i == warmup {
            reference.reset_measurements();
        }
        if let Some(access) = stream.next() {
            reference.step(access);
        }
        if reference.probe() != group[0].probe() {
            first = Some(i);
            return false;
        }
        true
    });
    first
}

/// Replays one adversarial trace per pattern through a fused group of
/// every policy and through each cell's standalone reference run,
/// requiring bit-identical encoded results. A slice of the trace is
/// treated as warmup so the fused group-wide measurement reset is
/// exercised as well.
pub fn check_fused_determinism(seed: u64, trace_len: u64, quiet: bool) -> Result<(), Violation> {
    // Shared-L1 groups across several trace families, plus one
    // inclusive-LLC group that must take the plain-lockstep fallback.
    // The hit-heavy single-line loop (appended last, so the other
    // cases keep their seeds) drives every policy's shared-L1 hits
    // through `step_below_l1`.
    let group_of = |inclusive: bool| -> Vec<SystemConfig> {
        PolicyKind::ALL
            .iter()
            .map(|&p| {
                let mut c = SystemConfig::paper_45nm(p);
                c.inclusive_llc = inclusive;
                c
            })
            .collect()
    };
    let cases: [(Pattern, bool); 5] = [
        (Pattern::ConflictStorm, false),
        (Pattern::TlbThrash, false),
        (Pattern::RandomMix, false),
        (Pattern::PhaseChange, true),
        (Pattern::SingleLineLoop, false),
    ];
    for (i, (pattern, inclusive)) in cases.into_iter().enumerate() {
        let scenario = format!(
            "{pattern}/{}",
            if inclusive { "inclusive" } else { "shared-l1" }
        );
        if !quiet {
            eprintln!("  fused-determinism: {scenario}");
        }
        let trace = adversarial::generate(pattern, seed ^ ((i as u64) << 12), trace_len);
        let warmup = trace_len / 8;
        let configs = group_of(inclusive);
        let fused = run_group(configs.clone(), &scenario, trace.iter().copied(), warmup);
        for (config, fused) in configs.into_iter().zip(fused) {
            let policy = config.policy;
            let want =
                codec::encode_result(&reference_run(&config, &scenario, &trace, warmup)).to_json();
            if codec::encode_result(&fused).to_json() == want {
                continue;
            }
            let at = first_diverging_access(config, &scenario, &trace, warmup);
            return Err(Violation {
                invariant: "fused-determinism",
                scenario: format!("{scenario} policy={policy:?}"),
                step: at,
                detail: format!(
                    "fused group cell is not bit-identical to its standalone reference \
                     run (seed {seed:#x}, {trace_len} accesses, warmup {warmup}); first \
                     diverging access: {}",
                    at.map_or("none (finalization)".to_owned(), |a| a.to_string())
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_groups_match_per_cell_over_adversarial_families() {
        if let Err(v) = check_fused_determinism(0x511b, 4_000, true) {
            panic!("{v}");
        }
    }

    #[test]
    fn divergence_localizer_agrees_on_clean_runs() {
        // On a clean configuration the probes never differ, so the
        // localizer reports no diverging access.
        let trace = adversarial::generate(Pattern::ConflictStorm, 0x511b, 1_500);
        let config = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        assert_eq!(first_diverging_access(config, "clean", &trace, 200), None);
    }
}
