//! The `slip bench` throughput gate: whole-system replays of four
//! fixed configurations, one geometric mean, one fixed bound.
//!
//! Each configuration's trace is generated once, outside the timed
//! region; a timed sample replays it unchanged on several fresh
//! [`SingleCoreSystem`]s, built before the clock starts, so trace
//! synthesis and construction never dilute the measurement. The CLI
//! serializes a [`BenchReport`] as JSON (`BENCH_*.json`) and compares a
//! fresh run against a committed baseline to catch throughput
//! regressions. Per-layer costs (EOU, cache levels, L1 fast path, trace
//! decode) are the repo benchmark's ledger (`benchmark/`), not this
//! gate's.
//!
//! Timing uses the calling thread's on-CPU nanoseconds
//! (`/proc/thread-self/schedstat` on Linux) rather than wall clock, so
//! a co-tenant stealing the core mid-sample inflates a measurement far
//! less — the regression gate in CI must not flap with host load. Where
//! schedstat is unavailable the harness falls back to wall clock. That
//! clock moves in scheduler ticks (about 4 ms on a 250 Hz kernel), so
//! every recorded sample spans at least `MIN_SAMPLE_SECS`.

use crate::config::{PolicyKind, SystemConfig};
use crate::system::SingleCoreSystem;
use std::time::Instant;
use sweep_runner::json::Value;

/// Shortest bench-clock span a recorded sample may have: 100 ticks of
/// a 4 ms thread-CPU clock, so one tick is at most 1% of a reading.
const MIN_SAMPLE_SECS: f64 = 0.4;

/// The span a sample is sized for, with headroom over
/// [`MIN_SAMPLE_SECS`] so a slightly faster replay still qualifies.
const TARGET_SAMPLE_SECS: f64 = 0.5;

/// Nanoseconds the calling thread has spent on-CPU, per the scheduler
/// (`None` off Linux or when procfs is unavailable). Monotone
/// per-thread, unaffected by time the thread sat preempted on the
/// runqueue.
fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// A started measurement on the bench clock: thread CPU time when
/// available, wall clock otherwise.
struct BenchClock {
    wall: Instant,
    cpu_ns: Option<u64>,
}

impl BenchClock {
    fn start() -> BenchClock {
        BenchClock {
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
        }
    }

    /// Seconds elapsed on the bench clock since [`start`](Self::start).
    fn elapsed_secs(&self) -> f64 {
        match (self.cpu_ns, thread_cpu_ns()) {
            // The scheduler only folds runtime in at tick/switch
            // boundaries, so a short interval can read as zero CPU
            // time — use the wall clock rather than report 0.
            (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e9,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// One full-system throughput run.
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// Run name, e.g. `system/gcc_SLIP+ABP`.
    pub name: String,
    /// Accesses in the configuration's trace.
    pub accesses: u64,
    /// Fresh systems replaying the trace in one timed sample.
    pub replays: u64,
    /// Bench-clock seconds of the best sample (thread CPU time on
    /// Linux, wall clock elsewhere).
    pub sample_secs: f64,
    /// Simulated accesses per bench-clock second (best sample).
    pub accesses_per_sec: f64,
}

/// Everything one `slip bench` invocation measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `true` for the reduced CI smoke configuration.
    pub quick: bool,
    /// Full-system throughput runs.
    pub systems: Vec<SystemResult>,
    /// Geometric mean of the system throughputs — the suite's headline
    /// number and the value regression checks compare.
    pub suite_accesses_per_sec: f64,
}

impl BenchReport {
    /// Serializes the report (the `BENCH_*.json` payload).
    pub fn to_value(&self) -> Value {
        let systems = self.systems.iter().fold(Value::object(), |o, s| {
            o.with(
                &s.name,
                Value::object()
                    .with("accesses", Value::u64(s.accesses))
                    .with("replays", Value::u64(s.replays))
                    .with("sample_secs", Value::f64(s.sample_secs))
                    .with("accesses_per_sec", Value::f64(s.accesses_per_sec)),
            )
        });
        Value::object()
            .with("schema", Value::str("slip-bench/1"))
            .with(
                "mode",
                Value::str(if self.quick { "quick" } else { "full" }),
            )
            .with("systems", systems)
            .with(
                "suite_accesses_per_sec",
                Value::f64(self.suite_accesses_per_sec),
            )
    }
}

fn system_benches(quick: bool) -> Vec<SystemResult> {
    let accesses: u64 = if quick { 100_000 } else { 400_000 };
    let reps = if quick { 3 } else { 7 };
    let configs = [
        ("gcc", PolicyKind::Baseline),
        ("gcc", PolicyKind::SlipAbp),
        ("soplex", PolicyKind::SlipAbp),
        // TLB-pressure pointer chase: translation-path wins and
        // regressions (the L1 fast path's TLB-residency gating,
        // TLB and page-table costs) show up here first.
        ("mcf", PolicyKind::SlipAbp),
    ];
    // Pre-generate the traces so synthesis cost stays out of the timed
    // region; the systems replay them by copy.
    let traces: Vec<Vec<cache_sim::Access>> = configs
        .iter()
        .map(|(bench, policy)| {
            let spec = workloads::workload(bench).expect("known benchmark");
            spec.trace(accesses, SystemConfig::paper_45nm(*policy).seed)
                .collect()
        })
        .collect();
    // Interleave repetitions round-robin across the configurations: a
    // multi-second co-tenant burst then taints one repetition of each
    // run instead of every repetition of one, so best-of stays clean.
    // Replays per sample start at one and grow until a sample spans
    // MIN_SAMPLE_SECS; shorter samples size the next one and are not
    // recorded.
    let mut replays = [1u64; 4];
    // (accesses per second, sample seconds, replays) of the best sample.
    let mut best = [(0.0f64, 0.0f64, 0u64); 4];
    for _ in 0..reps {
        for (i, (bench, policy)) in configs.iter().enumerate() {
            loop {
                let k = replays[i];
                let mut systems: Vec<SingleCoreSystem> = (0..k)
                    .map(|_| SingleCoreSystem::new(SystemConfig::paper_45nm(*policy)))
                    .collect();
                let t = BenchClock::start();
                for sys in &mut systems {
                    sys.run(traces[i].iter().copied());
                }
                let secs = t.elapsed_secs();
                for sys in systems {
                    std::hint::black_box(sys.finish(*bench));
                }
                if secs >= MIN_SAMPLE_SECS {
                    let rate = (k * accesses) as f64 / secs;
                    if rate > best[i].0 {
                        best[i] = (rate, secs, k);
                    }
                    break;
                }
                let grown = (k as f64 * TARGET_SAMPLE_SECS / secs).ceil() as u64;
                replays[i] = grown.clamp(k + 1, 64 * k);
            }
        }
    }
    configs
        .iter()
        .zip(best)
        .map(|((bench, policy), (rate, secs, k))| SystemResult {
            name: format!("system/{bench}_{}", policy.label()),
            accesses,
            replays: k,
            sample_secs: secs,
            accesses_per_sec: rate,
        })
        .collect()
}

/// Runs the gate. `quick` trades precision for CI speed.
pub fn run(quick: bool) -> BenchReport {
    let systems = system_benches(quick);
    let geomean =
        systems.iter().map(|s| s.accesses_per_sec.ln()).sum::<f64>() / systems.len() as f64;
    BenchReport {
        quick,
        systems,
        suite_accesses_per_sec: geomean.exp(),
    }
}

/// Extracts the comparable throughput from a baseline `BENCH_*.json`
/// value: prefers the mode-matching `after_quick`/`after` section of a
/// committed before/after file, falling back to a bare report.
pub fn baseline_suite_rate(baseline: &Value, quick: bool) -> Option<f64> {
    let section = if quick {
        baseline
            .get("after_quick")
            .or_else(|| baseline.get("after"))
    } else {
        baseline.get("after")
    }
    .unwrap_or(baseline);
    section.get("suite_accesses_per_sec")?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_headline_rate() {
        let report = BenchReport {
            quick: true,
            systems: vec![SystemResult {
                name: "system/x".into(),
                accesses: 1000,
                replays: 4,
                sample_secs: 0.5,
                accesses_per_sec: 8000.0,
            }],
            suite_accesses_per_sec: 8000.0,
        };
        let v = report.to_value();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("quick"));
        let x = v.get("systems").unwrap().get("system/x").unwrap();
        assert_eq!(x.get("replays").unwrap().as_u64(), Some(4));
        assert_eq!(x.get("accesses_per_sec").unwrap().as_f64(), Some(8000.0));
        assert_eq!(
            v.get("suite_accesses_per_sec").unwrap().as_f64(),
            Some(8000.0)
        );
        // Only the gate's sections are written.
        for gone in ["kernels_ns_per_iter", "sweep_modes", "fastpath_runs"] {
            assert!(v.get(gone).is_none(), "{gone}");
        }
        // Round-trips through the JSON text form.
        let parsed = Value::parse(&v.to_json()).unwrap();
        assert_eq!(
            baseline_suite_rate(&parsed, false),
            Some(8000.0),
            "bare report works as baseline"
        );
    }

    #[test]
    fn baseline_rate_prefers_mode_matching_section() {
        let file = Value::object()
            .with(
                "after",
                Value::object().with("suite_accesses_per_sec", Value::f64(100.0)),
            )
            .with(
                "after_quick",
                Value::object().with("suite_accesses_per_sec", Value::f64(80.0)),
            );
        assert_eq!(baseline_suite_rate(&file, false), Some(100.0));
        assert_eq!(baseline_suite_rate(&file, true), Some(80.0));
    }

    #[test]
    fn baseline_rate_reads_the_committed_ci_baseline() {
        let file = Value::parse(include_str!("../../../BENCH_22.json")).unwrap();
        let quick = baseline_suite_rate(&file, true).unwrap();
        assert!((quick - 2_672_169.578_444_644_3).abs() < 1e-6, "{quick}");
        // The CI gate runs --quick only; there is no full-mode baseline.
        assert_eq!(baseline_suite_rate(&file, false), None);
    }
}
