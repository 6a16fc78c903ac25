//! Conformance subsystem for the SLIP reproduction: the correctness
//! harness that every hot-path optimization PR inherits instead of
//! re-deriving golden tests.
//!
//! Three pillars:
//!
//! * [`differential`] — a deterministic fuzzer replaying seed-derived
//!   adversarial traces (from [`adversarial`]) through the reference
//!   and optimized simulation paths, comparing full results bit-exactly
//!   and minimizing any divergence to its first offending access.
//! * [`invariants`] — the paper's structural claims (LRU stack
//!   property, no-promote-on-hit, 16-entry movement-queue bound,
//!   accounting conservation, EOU == exhaustive 2^S enumeration,
//!   Default-SLIP ≡ plain cache) as runtime checks.
//! * [`oracle`] — EXPERIMENTS.md's headline table (signs, orderings,
//!   tolerance bands) as data-driven assertions.
//!
//! Plus [`service`], which holds the `slip serve` daemon to the same
//! standard: a server-executed cell must be bit-identical to the same
//! cell from an offline `slip sweep`.
//!
//! The `slip check` CLI subcommand drives all three; `slip check
//! --quick` is the CI gate, the same command with the full budget is
//! the nightly run.

pub mod adversarial;
pub mod differential;
pub mod fastpath;
pub mod fused;
pub mod invariants;
pub mod oracle;
pub mod service;
pub mod topology;

pub use adversarial::{generate, Pattern};
pub use differential::{run_fuzz, Divergence, FuzzOptions, Scenario};
pub use fastpath::check_fastpath_determinism;
pub use fused::check_fused_determinism;
pub use invariants::{
    check_default_slip_equivalence, check_eou_exhaustive, run_with_invariants, standard_invariants,
    Invariant, Violation,
};
pub use oracle::{run_oracle, OracleReport, OracleRow};
pub use service::check_serve_determinism;
pub use topology::{check_spec_determinism, check_topology_determinism};

/// Runs the quick invariant sweep used by `slip check`: the standard
/// invariants over one adversarial trace per (pattern, policy) pairing,
/// plus the standalone EOU, Default-SLIP, serve-determinism,
/// fused-determinism, fastpath-determinism, and topology-determinism
/// equivalence checks.
/// Returns every violation found (empty = clean).
pub fn run_invariant_sweep(seed: u64, trace_len: u64, quiet: bool) -> Vec<Violation> {
    use sim_engine::config::{PolicyKind, SystemConfig};

    let mut violations = Vec::new();
    for (i, pattern) in Pattern::ALL.into_iter().enumerate() {
        // Rotate policies across patterns so the sweep stays short but
        // every policy sees several families.
        let policy = PolicyKind::ALL[i % PolicyKind::ALL.len()];
        let scenario = format!("{pattern}/{policy:?}");
        if !quiet {
            eprintln!("  invariants: {scenario}");
        }
        let trace = adversarial::generate(pattern, seed ^ i as u64, trace_len);
        let config = SystemConfig::paper_45nm(policy);
        if let Err(v) = invariants::run_with_invariants(
            config,
            &scenario,
            &trace,
            1024,
            &mut standard_invariants(),
        ) {
            violations.push(v);
        }
    }
    if !quiet {
        eprintln!("  invariants: EOU exhaustive enumeration");
    }
    if let Err(v) = check_eou_exhaustive(seed, 60) {
        violations.push(v);
    }
    if !quiet {
        eprintln!("  invariants: Default-SLIP = plain cache lockstep");
    }
    if let Err(v) = check_default_slip_equivalence(seed, 40_000) {
        violations.push(v);
    }
    if !quiet {
        eprintln!("  invariants: serve = offline sweep, bit-exact");
    }
    if let Err(v) = service::check_serve_determinism(2_000, &std::env::temp_dir()) {
        violations.push(v);
    }
    if let Err(v) = fused::check_fused_determinism(seed, trace_len, quiet) {
        violations.push(v);
    }
    if let Err(v) = fastpath::check_fastpath_determinism(seed, trace_len, quiet) {
        violations.push(v);
    }
    if let Err(v) = topology::check_topology_determinism(seed, trace_len, quiet) {
        violations.push(v);
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_sweep_is_clean_at_small_budget() {
        let violations = run_invariant_sweep(0x511b, 1_200, true);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
