//! Topology determinism check: declarative hierarchy specs must be a
//! pure *description* change, never a modeling change.
//!
//! Two guarantees, per built-in node (`45nm`, `22nm`, `stt-llc`):
//!
//! 1. **Spec round-trip** — canonical `format()` output re-parses to a
//!    spec with the same canonical text and fingerprint, so journal
//!    keys and dedup hashes derived from the text are stable.
//! 2. **Run-mode matrix** — a small suite on the spec is bit-identical
//!    across every execution path that ships (inline cells, fused
//!    groups streamed serially and on four workers) against each
//!    cell's solo run on the verbatim reference hot path. The spec only changes *what*
//!    hierarchy is simulated, never lets an execution strategy leak
//!    into results.
//!
//! Plus a rejection sweep: malformed spec texts must fail to parse
//! with a diagnostic that names the offending line and column — a spec
//! that half-loads would silently simulate the wrong machine.

use crate::invariants::Violation;
use energy_model::HierarchySpec;
use sim_engine::codec;
use sim_engine::config::PolicyKind;
use sim_engine::experiments::{SuiteOptions, SuiteResults};
use sim_engine::system::run_workload_with_warmup;
use sim_engine::SweepConfig;

/// Runs every cell of `options` solo and inline, in grid order —
/// on the verbatim reference hot path when `reference`.
fn fingerprint_cells(options: &SuiteOptions, reference: bool) -> Vec<String> {
    let mut cells = Vec::new();
    for &b in &options.benchmarks {
        let spec = workloads::workload(b).expect("known benchmark");
        for &p in &options.policies {
            let mut config = options.cell_config(p);
            config.reference_hot_path = reference;
            let r = run_workload_with_warmup(config, &spec, options.accesses, options.warmup);
            cells.push(codec::encode_result(&r).to_json());
        }
    }
    cells
}

/// Runs a small suite for one topology under one execution
/// configuration and returns the per-cell encoded results in grid
/// order.
fn fingerprint_suite(
    options: &SuiteOptions,
    sweep: &SweepConfig,
) -> Result<Vec<String>, Violation> {
    let suite = SuiteResults::run_with(options.clone(), sweep).map_err(|e| Violation {
        invariant: "topology-determinism",
        scenario: "suite execution".to_owned(),
        step: None,
        detail: format!("suite run failed: {e}"),
    })?;
    let mut cells = Vec::new();
    for &b in suite.benchmarks() {
        for &p in &suite.options.policies {
            cells.push(codec::encode_result(suite.get(b, p)).to_json());
        }
    }
    Ok(cells)
}

/// Checks one hierarchy spec: round-trip stability, then the run-mode
/// matrix against the reference hot path. Exposed so `slip check
/// --topology FILE` can hold a user-supplied spec to the same standard
/// as the built-ins.
pub fn check_spec_determinism(
    spec: &HierarchySpec,
    trace_len: u64,
    quiet: bool,
) -> Result<(), Violation> {
    let violation = |scenario: &str, detail: String| Violation {
        invariant: "topology-determinism",
        scenario: format!("{}/{scenario}", spec.name),
        step: None,
        detail,
    };

    // 1. Canonical round-trip: format -> parse -> format is identity,
    //    and the fingerprint (the journal/dedup hash) is stable.
    let canonical = spec.format();
    let reparsed = HierarchySpec::parse(&canonical)
        .map_err(|e| violation("round-trip", format!("canonical text failed to parse: {e}")))?;
    if reparsed.format() != canonical {
        return Err(violation(
            "round-trip",
            "format -> parse -> format is not the identity".to_owned(),
        ));
    }
    if reparsed.fingerprint() != spec.fingerprint() {
        return Err(violation(
            "round-trip",
            "fingerprint changed across a canonical round-trip".to_owned(),
        ));
    }

    // 2. Run-mode matrix: every execution strategy must produce the
    //    reference hot path's cells bit for bit.
    let mut options = SuiteOptions::paper_full()
        .with_benchmarks(&["gcc"])
        .with_policies(&[PolicyKind::Slip, PolicyKind::SlipAbp])
        .with_accesses(trace_len)
        .with_warmup(trace_len / 8);
    options.variant.topology = Some(spec.clone());
    let reference = fingerprint_cells(&options, true);
    let mode_matrix: [(&str, Option<SweepConfig>); 3] = [
        ("inline", None),
        ("fused/streamed", Some(SweepConfig::serial())),
        ("fused/streamed/jobs=4", Some(SweepConfig::with_jobs(4))),
    ];
    for (label, sweep) in mode_matrix {
        if !quiet {
            eprintln!("  topology-determinism: {}/{label}", spec.name);
        }
        let got = match sweep {
            Some(sweep) => fingerprint_suite(&options, &sweep)?,
            None => fingerprint_cells(&options, false),
        };
        if got != reference {
            return Err(violation(
                label,
                format!(
                    "run-mode matrix diverged from the reference hot path \
                     ({trace_len} accesses); first differing cell index {}",
                    reference
                        .iter()
                        .zip(&got)
                        .position(|(a, b)| a != b)
                        .unwrap_or(reference.len().min(got.len())),
                ),
            ));
        }
    }
    Ok(())
}

/// Malformed spec texts that must be rejected, with the line and column
/// the diagnostic is required to name. Each entry is
/// `(description, spec text, line, col)`.
const MALFORMED: [(&str, &str, usize, usize); 4] = [
    (
        "zero energy",
        "node bad\nwire 0.16 0.3\ndram 0\neou 1.0\nmvq 0.3\n",
        3,
        6,
    ),
    (
        "non-power-of-two ways",
        "node bad\nwire 0.16 0.3\ndram 20\neou 1.0\nmvq 0.3\n\
         level l1\n  size 32KiB\n  sets 64\n  ways 6\n  banks 1\n  ports 1\n  latency 4\n  read 5\nend\n",
        9,
        8,
    ),
    (
        "duplicate level",
        "node bad\nwire 0.16 0.3\ndram 20\neou 1.0\nmvq 0.3\n\
         level l1\n  size 32KiB\n  sets 64\n  ways 8\n  banks 1\n  ports 1\n  latency 4\n  read 5\nend\n\
         level l1\n  size 32KiB\n  sets 64\n  ways 8\n  banks 1\n  ports 1\n  latency 4\n  read 5\nend\n",
        15,
        7,
    ),
    (
        "unknown directive",
        "node bad\nvoltage 1.1\n",
        2,
        1,
    ),
];

/// The full topology-determinism family: every built-in node passes
/// [`check_spec_determinism`], and malformed specs are rejected with
/// line/column diagnostics.
pub fn check_topology_determinism(
    _seed: u64,
    trace_len: u64,
    quiet: bool,
) -> Result<(), Violation> {
    // Rejection sweep first: it is cheap and a parser that accepts
    // garbage makes the rest of the family meaningless.
    for (what, text, line, col) in MALFORMED {
        match HierarchySpec::parse(text) {
            Ok(_) => {
                return Err(Violation {
                    invariant: "topology-determinism",
                    scenario: format!("reject/{what}"),
                    step: None,
                    detail: "malformed spec was accepted".to_owned(),
                })
            }
            Err(e) => {
                if e.line != line || e.col != col {
                    return Err(Violation {
                        invariant: "topology-determinism",
                        scenario: format!("reject/{what}"),
                        step: None,
                        detail: format!(
                            "diagnostic points at line {}, col {} (expected line {line}, \
                             col {col}): {e}",
                            e.line, e.col
                        ),
                    });
                }
            }
        }
    }

    for name in energy_model::BUILTIN_NAMES {
        let spec = HierarchySpec::builtin(name).expect("built-in name");
        check_spec_determinism(&spec, trace_len, quiet)?;
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_topologies_are_deterministic_across_run_modes() {
        if let Err(v) = check_topology_determinism(0x511b, 4_000, true) {
            panic!("{v}");
        }
    }

    #[test]
    fn custom_asymmetric_spec_passes_the_same_bar() {
        // A non-built-in asymmetric hierarchy (the STT-RAM L3 node
        // under another name) holds up across the run-mode matrix too —
        // the family is not special-cased to built-ins.
        let spec = HierarchySpec::builtin("stt-llc").expect("built-in");
        let mut custom = spec;
        custom.name = "custom-asym".to_owned();
        if let Err(v) = check_spec_determinism(&custom, 3_000, true) {
            panic!("{v}");
        }
    }
}
