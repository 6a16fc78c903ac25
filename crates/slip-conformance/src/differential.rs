//! Deterministic differential fuzzing of the reference vs optimized
//! simulation paths.
//!
//! Every iteration derives a [`Scenario`] purely from `(master seed,
//! iteration index)`: an adversarial trace family, a placement policy,
//! a replacement policy, an EOU objective, and the trace/config seeds.
//! The scenario is replayed through the *reference* hot path
//! (`SystemConfig::reference_hot_path = true`: line-array probes and
//! the allocating f64 EOU loop) and through the *optimized* paths (SWAR
//! tag filter, scratch-buffer EOU argmin) through every
//! execution path that ships — inline stepping (`slip run`), and a
//! singleton fused group streaming the trace (sweeps and `slip
//! serve`). The full
//! [`sim_engine::SimResult`] of every variant is compared bit-exactly
//! via the JSON codec, which excludes only wall time.
//!
//! On divergence the trace prefix is binary-searched for the first
//! length at which the variant disagrees, and the offending access is
//! reported together with a one-line repro command; re-running with the
//! same master seed re-derives the identical scenario.

use crate::adversarial::{self, Pattern};
use cache_sim::rng::SplitMix64;
use cache_sim::Access;
use sim_engine::codec;
use sim_engine::config::{PolicyKind, ReplacementKind, SystemConfig};
use sim_engine::system::run_workload_with_warmup;
use sim_engine::{run_group, SimResult, SingleCoreSystem};
use slip_core::EouObjective;

/// Fully derived description of one fuzz iteration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Adversarial trace family (ignored on workload-spec iterations).
    pub pattern: Pattern,
    /// Placement policy under test.
    pub policy: PolicyKind,
    /// Replacement policy within candidate ways.
    pub replacement: ReplacementKind,
    /// EOU objective variant.
    pub objective: EouObjective,
    /// Whether the LLC is modelled inclusive.
    pub inclusive_llc: bool,
    /// Seed for the adversarial trace generator.
    pub trace_seed: u64,
    /// Master seed for the system's stochastic components.
    pub config_seed: u64,
    /// Trace length in accesses.
    pub len: u64,
    /// `Some(benchmark)` for iterations that exercise the
    /// workload-spec-driven paths (generated streams) instead of an
    /// adversarial trace.
    pub benchmark: Option<&'static str>,
}

impl Scenario {
    /// Derives iteration `iteration`'s scenario from the master seed.
    /// Pure: the same `(master_seed, iteration, max_len)` triple always
    /// yields the same scenario.
    pub fn derive(master_seed: u64, iteration: u64, max_len: u64) -> Scenario {
        let mut rng = SplitMix64::new(master_seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        const POLICIES: [PolicyKind; 5] = PolicyKind::ALL;
        const REPLACEMENTS: [ReplacementKind; 3] = [
            ReplacementKind::Lru,
            ReplacementKind::Drrip,
            ReplacementKind::Ship,
        ];
        let pattern = Pattern::ALL[(iteration % Pattern::ALL.len() as u64) as usize];
        let policy = POLICIES[rng.next_below(POLICIES.len() as u64) as usize];
        // LRU is the paper default and the most intricate demotion
        // cascade; keep it in the majority of iterations.
        let replacement = if rng.one_in(3) {
            REPLACEMENTS[1 + rng.next_below(2) as usize]
        } else {
            ReplacementKind::Lru
        };
        let objective = if rng.one_in(4) {
            EouObjective::PaperLiteral
        } else {
            EouObjective::InsertionAware
        };
        // Every 5th iteration drives the workload-spec paths (inline
        // and streamed fused groups) with a real benchmark trace.
        let benchmark = if iteration % 5 == 4 {
            let names = workloads::BENCHMARK_NAMES;
            Some(names[rng.next_below(names.len() as u64) as usize])
        } else {
            None
        };
        Scenario {
            pattern,
            policy,
            replacement,
            objective,
            inclusive_llc: rng.one_in(5),
            trace_seed: rng.next_u64(),
            config_seed: rng.next_u64(),
            len: max_len / 2 + rng.next_below(max_len / 2 + 1),
            benchmark,
        }
    }

    /// Builds this scenario's system configuration. `reference` selects
    /// the pre-optimization hot path.
    pub fn config(&self, reference: bool) -> SystemConfig {
        let mut config = SystemConfig::paper_45nm(self.policy);
        config.replacement = self.replacement;
        config.eou_objective = self.objective;
        config.inclusive_llc = self.inclusive_llc;
        config.seed = self.config_seed;
        config.reference_hot_path = reference;
        config
    }

    /// One-line human summary used in divergence reports.
    pub fn describe(&self) -> String {
        match self.benchmark {
            Some(b) => format!(
                "benchmark={b} policy={:?} repl={:?} obj={:?} incl={} cfg_seed={:#x} len={}",
                self.policy,
                self.replacement,
                self.objective,
                self.inclusive_llc,
                self.config_seed,
                self.len
            ),
            None => format!(
                "pattern={} policy={:?} repl={:?} obj={:?} incl={} trace_seed={:#x} \
                 cfg_seed={:#x} len={}",
                self.pattern,
                self.policy,
                self.replacement,
                self.objective,
                self.inclusive_llc,
                self.trace_seed,
                self.config_seed,
                self.len
            ),
        }
    }
}

/// Fuzzing budget and reporting knobs.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of scenarios to run.
    pub iters: u64,
    /// Master seed; every scenario derives from it deterministically.
    pub seed: u64,
    /// Upper bound on per-scenario trace length (actual lengths are
    /// seed-chosen in `[max_len/2, max_len]`).
    pub max_len: u64,
    /// Suppress per-iteration progress on stderr.
    pub quiet: bool,
}

impl FuzzOptions {
    /// The CI budget: bounded, deterministic, a few seconds of work.
    pub fn quick(seed: u64) -> FuzzOptions {
        FuzzOptions {
            iters: 48,
            seed,
            max_len: 6_000,
            quiet: false,
        }
    }

    /// The nightly budget: an order of magnitude more scenarios at
    /// longer trace lengths.
    pub fn full(seed: u64) -> FuzzOptions {
        FuzzOptions {
            iters: 512,
            seed,
            max_len: 20_000,
            quiet: false,
        }
    }
}

/// One reference-vs-optimized disagreement, minimized where possible.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Iteration index within the fuzz run.
    pub iteration: u64,
    /// Human description of the derived scenario.
    pub scenario: String,
    /// Which optimized execution mode disagreed.
    pub variant: &'static str,
    /// Shortest trace prefix that still diverges, when the variant
    /// supports prefix replay.
    pub minimized_len: Option<u64>,
    /// The access at the end of the minimized prefix — the first point
    /// at which the paths can be told apart.
    pub offending: Option<Access>,
    /// Command that re-derives and re-runs this exact scenario.
    pub repro: String,
}

impl core::fmt::Display for Divergence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "divergence at iteration {} [{}]",
            self.iteration, self.variant
        )?;
        writeln!(f, "  scenario: {}", self.scenario)?;
        if let Some(n) = self.minimized_len {
            writeln!(
                f,
                "  minimized: first {n} accesses reproduce the divergence"
            )?;
        }
        if let Some(a) = self.offending {
            writeln!(f, "  offending access: {:?} addr {:#x}", a.kind, a.addr)?;
        }
        write!(f, "  repro: {}", self.repro)
    }
}

/// Replays `trace` inline under `config` and returns the codec
/// fingerprint of the full result (wall time excluded by the codec).
fn fingerprint_inline(config: SystemConfig, trace: &[Access]) -> String {
    let mut system = SingleCoreSystem::new(config);
    system.run(trace.iter().copied());
    fingerprint(system)
}

/// Replays `trace` as a singleton fused group streaming it.
fn fingerprint_fused_streamed(config: SystemConfig, trace: &[Access]) -> String {
    encoded(fused_cell(config, "fuzz", trace.iter().copied(), 0))
}

/// One cell as a singleton fused group over `accesses`.
fn fused_cell(
    config: SystemConfig,
    name: &str,
    accesses: impl IntoIterator<Item = Access>,
    warmup: u64,
) -> SimResult {
    run_group(vec![config], name, accesses, warmup)
        .pop()
        .expect("one config in, one result out")
}

fn fingerprint(system: SingleCoreSystem) -> String {
    encoded(system.finish("fuzz"))
}

fn encoded(result: SimResult) -> String {
    codec::encode_result(&result).to_json()
}

/// Binary-searches the shortest prefix of `trace` on which `diverges`
/// still reports a mismatch. `diverges(trace.len())` must be true.
fn minimize(trace: &[Access], mut diverges: impl FnMut(&[Access]) -> bool) -> u64 {
    let (mut lo, mut hi) = (1u64, trace.len() as u64);
    // Invariant: the prefix of length `hi` diverges.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if diverges(&trace[..mid as usize]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Runs the differential fuzzer and returns every divergence found.
/// Deterministic: the same options always visit the same scenarios in
/// the same order.
pub fn run_fuzz(opts: &FuzzOptions) -> Vec<Divergence> {
    let mut findings = Vec::new();
    for iteration in 0..opts.iters {
        let scenario = Scenario::derive(opts.seed, iteration, opts.max_len);
        if !opts.quiet {
            eprintln!(
                "  fuzz {:>4}/{}: {}",
                iteration + 1,
                opts.iters,
                scenario.describe()
            );
        }
        let repro = format!(
            "slip check --seed {:#x} --iters {} --max-len {}",
            opts.seed,
            iteration + 1,
            opts.max_len
        );
        match scenario.benchmark {
            None => fuzz_adversarial(iteration, &scenario, &repro, &mut findings),
            Some(bench) => fuzz_workload(iteration, &scenario, bench, &repro, &mut findings),
        }
    }
    findings
}

/// One optimized execution mode under test: display label + runner.
type FuzzVariant = (&'static str, fn(SystemConfig, &[Access]) -> String);

/// Adversarial-trace iteration: reference inline vs optimized inline
/// and an optimized streamed fused group, with prefix minimization.
fn fuzz_adversarial(
    iteration: u64,
    scenario: &Scenario,
    repro: &str,
    findings: &mut Vec<Divergence>,
) {
    let trace = adversarial::generate(scenario.pattern, scenario.trace_seed, scenario.len);
    let reference = fingerprint_inline(scenario.config(true), &trace);
    let variants: [FuzzVariant; 2] = [
        ("optimized-inline", fingerprint_inline),
        ("optimized-fused-streamed", fingerprint_fused_streamed),
    ];
    for (variant, run) in variants {
        if run(scenario.config(false), &trace) == reference {
            continue;
        }
        // The first mismatching prefix pins down the offending access.
        let n = minimize(&trace, |prefix| {
            fingerprint_inline(scenario.config(true), prefix) != run(scenario.config(false), prefix)
        });
        findings.push(Divergence {
            iteration,
            scenario: scenario.describe(),
            variant,
            minimized_len: Some(n),
            offending: trace.get(n as usize - 1).copied(),
            repro: repro.to_string(),
        });
    }
}

/// Workload-spec iteration: the spec-driven reference run vs the
/// optimized inline run and a singleton fused group streaming the
/// generated trace. All three build the identical trace from
/// `(spec, seed)`, so their results must be bit-identical too. The
/// streams are internal to the runners, so divergences are reported
/// unminimized.
fn fuzz_workload(
    iteration: u64,
    scenario: &Scenario,
    bench: &str,
    repro: &str,
    findings: &mut Vec<Divergence>,
) {
    let spec = workloads::workload(bench).expect("benchmark name from BENCHMARK_NAMES");
    let warmup = scenario.len / 10;
    let len = scenario.len - warmup;
    let run =
        |reference: bool| run_workload_with_warmup(scenario.config(reference), &spec, len, warmup);
    let reference = encoded(run(true));
    let trace = spec.trace(warmup + len, scenario.config_seed);
    for (variant, result) in [
        ("optimized-inline", run(false)),
        (
            "optimized-fused-streamed",
            fused_cell(scenario.config(false), bench, trace, warmup),
        ),
    ] {
        if encoded(result) != reference {
            findings.push(Divergence {
                iteration,
                scenario: scenario.describe(),
                variant,
                minimized_len: None,
                offending: None,
                repro: repro.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_derivation_is_deterministic() {
        for i in 0..20 {
            let a = Scenario::derive(0x511b, i, 4096);
            let b = Scenario::derive(0x511b, i, 4096);
            assert_eq!(a.describe(), b.describe());
            assert!(a.len >= 2048 && a.len <= 4096, "len {} in band", a.len);
        }
        // Workload-spec iterations land exactly on every 5th index.
        assert!(Scenario::derive(1, 4, 4096).benchmark.is_some());
        assert!(Scenario::derive(1, 3, 4096).benchmark.is_none());
    }

    #[test]
    fn minimize_finds_first_divergent_prefix() {
        let trace: Vec<Access> = (0..100).map(|i| Access::read(i * 64)).collect();
        // Pretend the paths disagree from access 37 onward.
        let n = minimize(&trace, |prefix| prefix.len() >= 37);
        assert_eq!(n, 37);
        let all = minimize(&trace, |prefix| prefix.len() >= 100);
        assert_eq!(all, 100);
    }

    /// A handful of real fuzz iterations as a tier-1 smoke test; the
    /// full budget runs through `slip check`.
    #[test]
    fn short_fuzz_run_is_clean() {
        let opts = FuzzOptions {
            iters: 6,
            seed: 0x511b,
            max_len: 1_500,
            quiet: true,
        };
        let findings = run_fuzz(&opts);
        assert!(
            findings.is_empty(),
            "unexpected divergences: {:?}",
            findings
        );
    }
}
