//! The `slip bench` performance suite: calibrated microbenchmarks of
//! the simulator's hot paths plus whole-system throughput runs.
//!
//! This is the measurement side of the hot-path performance work (see
//! DESIGN.md §9): kernels are timed with a self-calibrating loop (grow
//! the iteration count until a batch is measurable, then take the best
//! of several samples) and full-system throughput is reported as
//! simulated accesses per second over a pre-generated trace, so trace
//! synthesis never dilutes the measurement. The CLI serializes a
//! [`BenchReport`] as JSON (`BENCH_*.json`) and can compare a fresh
//! run against a committed baseline to catch throughput regressions.
//!
//! Timing uses the calling thread's on-CPU nanoseconds
//! (`/proc/thread-self/schedstat` on Linux) rather than wall clock, so
//! a co-tenant stealing the core mid-sample inflates a measurement far
//! less — the regression gate in CI must not flap with host load. Where
//! schedstat is unavailable the harness falls back to wall clock.

use crate::config::{PolicyKind, SystemConfig};
use crate::experiments::{SuiteOptions, SuiteResults};
use crate::system::SingleCoreSystem;
use crate::SweepConfig;
use std::time::Instant;
use sweep_runner::json::Value;
use workloads::TraceBuffer;

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

/// One timed kernel (ns per iteration, best of the samples).
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name, e.g. `eou/optimize`.
    pub name: String,
    /// Best-of-samples nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// One full-system throughput run.
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// Run name, e.g. `system/gcc_SLIP+ABP`.
    pub name: String,
    /// Simulated accesses per repetition.
    pub accesses: u64,
    /// Bench-clock seconds of the best repetition (thread CPU time on
    /// Linux, wall clock elsewhere).
    pub wall_secs: f64,
    /// Simulated accesses per bench-clock second (best repetition).
    pub accesses_per_sec: f64,
}

/// The end-to-end sweep run: a small benchmark × policy grid executed
/// as fused groups, trace generation included.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Run name (`sweep/fused`).
    pub name: String,
    /// Cells in the grid.
    pub cells: u64,
    /// Total simulated accesses across the grid.
    pub accesses: u64,
    /// Wall seconds of the best repetition.
    pub wall_secs: f64,
    /// Simulated accesses per wall second (best repetition).
    pub accesses_per_sec: f64,
}

/// Everything one `slip bench` invocation measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `true` for the reduced CI smoke configuration.
    pub quick: bool,
    /// Hot-path kernel timings.
    pub kernels: Vec<KernelResult>,
    /// Full-system throughput runs.
    pub systems: Vec<SystemResult>,
    /// The end-to-end fused sweep.
    pub sweep: SweepResult,
    /// Hit-run scanner throughput runs, in their own section so the
    /// headline geomean keeps the established `systems` set and
    /// regression checks compare like with like across PRs.
    pub fastpath_runs: Vec<SystemResult>,
    /// Geometric mean of the system throughputs — the suite's headline
    /// number and the value regression checks compare.
    pub suite_accesses_per_sec: f64,
}

impl BenchReport {
    /// Serializes the report (the `BENCH_*.json` payload).
    pub fn to_value(&self) -> Value {
        let kernels = self.kernels.iter().fold(Value::object(), |o, k| {
            o.with(&k.name, Value::f64(k.ns_per_iter))
        });
        let systems = self.systems.iter().fold(Value::object(), |o, s| {
            o.with(
                &s.name,
                Value::object()
                    .with("accesses", Value::u64(s.accesses))
                    .with("wall_secs", Value::f64(s.wall_secs))
                    .with("accesses_per_sec", Value::f64(s.accesses_per_sec)),
            )
        });
        let s = &self.sweep;
        let sweeps = Value::object().with(
            &s.name,
            Value::object()
                .with("cells", Value::u64(s.cells))
                .with("accesses", Value::u64(s.accesses))
                .with("wall_secs", Value::f64(s.wall_secs))
                .with("accesses_per_sec", Value::f64(s.accesses_per_sec)),
        );
        let fastpath_runs = self.fastpath_runs.iter().fold(Value::object(), |o, s| {
            o.with(
                &s.name,
                Value::object()
                    .with("accesses", Value::u64(s.accesses))
                    .with("wall_secs", Value::f64(s.wall_secs))
                    .with("accesses_per_sec", Value::f64(s.accesses_per_sec)),
            )
        });
        Value::object()
            .with("schema", Value::str("slip-bench/1"))
            .with(
                "mode",
                Value::str(if self.quick { "quick" } else { "full" }),
            )
            .with("kernels_ns_per_iter", kernels)
            .with("systems", systems)
            .with("sweep_modes", sweeps)
            .with("fastpath_runs", fastpath_runs)
            .with(
                "suite_accesses_per_sec",
                Value::f64(self.suite_accesses_per_sec),
            )
    }
}

/// Times `f` with a calibrated loop; returns best ns/iter.
///
/// Calibration mirrors the bench-crate harness: grow the iteration
/// count tenfold until one batch exceeds 10 ms, size batches for
/// `target_sample` seconds, then keep the best of `samples` batches.
pub fn calibrated_ns<T>(mut f: impl FnMut() -> T, target_sample: f64, samples: usize) -> f64 {
    let mut iters: u64 = 1;
    let per_iter = loop {
        let t = BenchClock::start();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let secs = t.elapsed_secs();
        if secs > 0.01 {
            break secs / iters as f64;
        }
        iters = iters.saturating_mul(10);
    };
    // Keep each batch at or above the 10 ms calibration floor so the
    // CPU clock's tick granularity stays small relative to a sample.
    let iters = ((target_sample.max(0.01) / per_iter) as u64).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = BenchClock::start();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        best = best.min(t.elapsed_secs() / iters as f64);
    }
    best * 1e9
}

fn kernel_benches(quick: bool) -> Vec<KernelResult> {
    use cache_sim::{
        AccessClass, AccessKind, BaselinePolicy, CacheLevel, FillRequest, LineAddr, Lru,
    };
    use slip_core::{EnergyOptimizerUnit, LevelModelParams, RdDistribution};

    let (target, samples) = if quick { (0.02, 3) } else { (0.05, 5) };
    let mut out = Vec::new();
    let config = SystemConfig::paper_45nm(PolicyKind::Baseline);
    let tech = &config.tech;

    // EOU consult: the per-recompute policy kernel.
    {
        let params = LevelModelParams::from_level(&tech.l2, tech.l3.mean_access());
        let mut eou = EnergyOptimizerUnit::new(&params);
        let mut dist = RdDistribution::paper_default();
        for bin in [0usize, 0, 1, 3, 3, 2, 0, 3] {
            dist.observe(bin);
        }
        out.push(KernelResult {
            name: "eou/optimize".to_owned(),
            ns_per_iter: calibrated_ns(|| eou.optimize(&dist), target, samples),
        });
    }

    // Cache-level probe + fill kernels on the paper L2 geometry.
    {
        let mut cache = CacheLevel::new("L2", config.l2_geometry());
        let mut policy = BaselinePolicy::new();
        let mut repl = Lru::new();
        cache.fill(FillRequest::new(LineAddr(7)), 0, &mut policy, &mut repl);
        out.push(KernelResult {
            name: "cache/hit_lookup".to_owned(),
            ns_per_iter: calibrated_ns(
                || {
                    cache.access(
                        LineAddr(7),
                        AccessKind::Read,
                        AccessClass::Demand,
                        0,
                        &mut policy,
                        &mut repl,
                    )
                },
                target,
                samples,
            ),
        });
    }
    {
        let mut cache = CacheLevel::new("L2", config.l2_geometry());
        let mut policy = BaselinePolicy::new();
        let mut repl = Lru::new();
        let mut next = 0u64;
        out.push(KernelResult {
            name: "cache/miss_plus_fill".to_owned(),
            ns_per_iter: calibrated_ns(
                || {
                    next += 1;
                    let line = LineAddr(next);
                    cache.access(
                        line,
                        AccessKind::Read,
                        AccessClass::Demand,
                        0,
                        &mut policy,
                        &mut repl,
                    );
                    cache.fill(FillRequest::new(line), 0, &mut policy, &mut repl)
                },
                target,
                samples,
            ),
        });
    }

    // Widened SWAR tag probe: a full 16-way set compared as u64×4 lane
    // groups in one pass. The set is filled completely and the probed
    // line sits at the highest way, so every probe runs the whole wide
    // pass plus one full-address verify — the hit-path worst case.
    {
        let mut cache = CacheLevel::new("L2", config.l2_geometry());
        let mut policy = BaselinePolicy::new();
        let mut repl = Lru::new();
        let sets = config.l2_geometry().sets as u64;
        let ways = config.l2_geometry().ways as u64;
        for i in 0..ways {
            cache.fill(
                FillRequest::new(LineAddr(7 + i * sets)),
                i,
                &mut policy,
                &mut repl,
            );
        }
        let line = LineAddr(7 + (ways - 1) * sets);
        out.push(KernelResult {
            name: "probe/wide".to_owned(),
            ns_per_iter: calibrated_ns(|| cache.probe_way(line), target, samples),
        });
    }

    // SoA L1 fast-hit kernels: the memoized repeat touch, and the SWAR
    // probe + packed-stack update that runs when the way memo misses —
    // the two costs the hit-run scanner pays per retired hit.
    {
        let mut cache = config.build_l1();
        let mut policy = BaselinePolicy::new();
        let mut repl = Lru::new();
        let line = LineAddr(7);
        cache.fill(FillRequest::new(line), 0, &mut policy, &mut repl);
        out.push(KernelResult {
            name: "cache/fast_hit_memo".to_owned(),
            ns_per_iter: calibrated_ns(|| cache.try_demand_hit(line, false), target, samples),
        });
        // Alternate two same-set lines so every touch misses the memo.
        let other = LineAddr(7 + cache.geometry().sets as u64);
        cache.fill(FillRequest::new(other), 0, &mut policy, &mut repl);
        let mut flip = false;
        out.push(KernelResult {
            name: "cache/fast_hit_probe".to_owned(),
            ns_per_iter: calibrated_ns(
                || {
                    flip = !flip;
                    cache.try_demand_hit(if flip { other } else { line }, false)
                },
                target,
                samples,
            ),
        });
    }

    // EOU argmin over all 2^S SLIPs: the 4-row SIMD-style dot/argmin
    // against its scalar reference, same distribution, so the report
    // shows the widening win directly.
    {
        let params = LevelModelParams::from_level(&tech.l3, tech.dram_line_energy());
        let eou = EnergyOptimizerUnit::new(&params);
        let mut dist = RdDistribution::paper_default();
        for bin in [0usize, 1, 1, 2, 3, 0, 2, 3, 3] {
            dist.observe(bin);
        }
        let probs = dist.probabilities();
        out.push(KernelResult {
            name: "eou/simd".to_owned(),
            ns_per_iter: calibrated_ns(|| eou.best_slip(&probs), target, samples),
        });
        out.push(KernelResult {
            name: "eou/scalar".to_owned(),
            ns_per_iter: calibrated_ns(|| eou.best_slip_scalar(&probs), target, samples),
        });
    }

    // Trace synthesis vs materialized replay: the per-access cost a
    // streamed fused group pays once per group, and the unpack cost a
    // `slip serve` group replaying a cached buffer pays instead.
    {
        let spec = workloads::workload("gcc").expect("known benchmark");
        let seed = config.seed;
        let len: u64 = 1 << 16;
        let mut trace = spec.trace(len, seed);
        out.push(KernelResult {
            name: "trace/generate".to_owned(),
            ns_per_iter: calibrated_ns(
                || match trace.next() {
                    Some(a) => a,
                    None => {
                        trace = spec.trace(len, seed);
                        trace.next().expect("nonempty trace")
                    }
                },
                target,
                samples,
            ),
        });
        let buffer = TraceBuffer::materialize(spec.trace(len, seed));
        let mut replay = buffer.iter();
        out.push(KernelResult {
            name: "trace/replay".to_owned(),
            ns_per_iter: calibrated_ns(
                || match replay.next() {
                    Some(a) => a,
                    None => {
                        replay = buffer.iter();
                        replay.next().expect("nonempty buffer")
                    }
                },
                target,
                samples,
            ),
        });
    }
    out
}

fn system_benches(quick: bool) -> Vec<SystemResult> {
    let accesses: u64 = if quick { 100_000 } else { 400_000 };
    let reps = if quick { 3 } else { 7 };
    let configs = [
        ("gcc", PolicyKind::Baseline),
        ("gcc", PolicyKind::SlipAbp),
        ("soplex", PolicyKind::SlipAbp),
        // TLB-pressure pointer chase: translation-path wins and
        // regressions (the hit-run scanner's TLB-residency gating,
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
    let mut best = [f64::INFINITY; 4];
    for _ in 0..reps {
        for (i, (bench, policy)) in configs.iter().enumerate() {
            let mut sys = SingleCoreSystem::new(SystemConfig::paper_45nm(*policy));
            let t = BenchClock::start();
            sys.run(traces[i].iter().copied());
            let secs = t.elapsed_secs();
            std::hint::black_box(sys.finish(*bench));
            best[i] = best[i].min(secs);
        }
    }
    configs
        .iter()
        .zip(best)
        .map(|((bench, policy), secs)| SystemResult {
            name: format!("system/{bench}_{}", policy.label()),
            accesses,
            wall_secs: secs,
            accesses_per_sec: accesses as f64 / secs,
        })
        .collect()
}

/// The end-to-end sweep: one small benchmark × policy grid executed as
/// fused groups (trace generation included, `--jobs 1`), best of the
/// repetitions on the wall clock.
fn sweep_bench(quick: bool) -> SweepResult {
    let accesses: u64 = if quick { 40_000 } else { 200_000 };
    let reps = if quick { 3 } else { 5 };
    let options = || {
        SuiteOptions::paper_full()
            .with_benchmarks(&["gcc", "soplex"])
            .with_accesses(accesses)
    };
    let cells = (options().benchmarks.len() * options().policies.len()) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let suite =
            SuiteResults::run_with(options(), &SweepConfig::serial()).expect("journal-less sweep");
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&suite);
    }
    SweepResult {
        name: "sweep/fused".to_owned(),
        cells,
        accesses: cells * accesses,
        wall_secs: best,
        accesses_per_sec: (cells * accesses) as f64 / best,
    }
}

/// Hit-run scanner throughput: a Baseline system over a trace that
/// stays L1-resident after its first pass — each line touched four
/// times in a row (a cache line's worth of sequential word touches)
/// cycling a half-capacity working set — so nearly every access
/// retires through the batched fast path, three quarters of them off
/// the way memo. The ceiling the scanner approaches as hit rate → 1.
fn fastpath_run_benches(quick: bool) -> Vec<SystemResult> {
    let accesses: u64 = if quick { 400_000 } else { 2_000_000 };
    let reps = if quick { 3 } else { 5 };
    let config = SystemConfig::paper_45nm(PolicyKind::Baseline);
    let lines = (config.build_l1().geometry().total_lines() / 2) as u64;
    let trace: Vec<cache_sim::Access> = (0..accesses)
        .map(|i| cache_sim::Access::read(((i >> 2) % lines) * 64))
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut sys = SingleCoreSystem::new(config.clone());
        let t = BenchClock::start();
        sys.run(trace.iter().copied());
        let secs = t.elapsed_secs();
        std::hint::black_box(sys.finish("hit_run"));
        best = best.min(secs);
    }
    vec![SystemResult {
        name: "system/hit_run".to_owned(),
        accesses,
        wall_secs: best,
        accesses_per_sec: accesses as f64 / best,
    }]
}

/// Runs the whole suite. `quick` trades precision for CI speed.
pub fn run(quick: bool) -> BenchReport {
    let kernels = kernel_benches(quick);
    let systems = system_benches(quick);
    let sweep = sweep_bench(quick);
    let fastpath_runs = fastpath_run_benches(quick);
    let geomean =
        systems.iter().map(|s| s.accesses_per_sec.ln()).sum::<f64>() / systems.len() as f64;
    BenchReport {
        quick,
        kernels,
        systems,
        sweep,
        fastpath_runs,
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
    fn calibrated_ns_is_positive_and_finite() {
        let ns = calibrated_ns(|| std::hint::black_box(3u64).wrapping_mul(7), 0.001, 2);
        assert!(ns.is_finite() && ns > 0.0);
    }

    #[test]
    fn report_serializes_with_headline_rate() {
        let report = BenchReport {
            quick: true,
            kernels: vec![KernelResult {
                name: "k/one".into(),
                ns_per_iter: 12.5,
            }],
            systems: vec![SystemResult {
                name: "system/x".into(),
                accesses: 1000,
                wall_secs: 0.5,
                accesses_per_sec: 2000.0,
            }],
            sweep: SweepResult {
                name: "sweep/fused".into(),
                cells: 10,
                accesses: 10_000,
                wall_secs: 2.0,
                accesses_per_sec: 5000.0,
            },
            fastpath_runs: vec![SystemResult {
                name: "system/hit_run".into(),
                accesses: 4000,
                wall_secs: 0.1,
                accesses_per_sec: 40_000.0,
            }],
            suite_accesses_per_sec: 2000.0,
        };
        let v = report.to_value();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("quick"));
        let sweeps = v.get("sweep_modes").unwrap();
        assert_eq!(
            sweeps
                .get("sweep/fused")
                .unwrap()
                .get("accesses_per_sec")
                .unwrap()
                .as_f64(),
            Some(5000.0)
        );
        assert_eq!(
            v.get("suite_accesses_per_sec").unwrap().as_f64(),
            Some(2000.0)
        );
        let k = v.get("kernels_ns_per_iter").unwrap();
        assert_eq!(k.get("k/one").unwrap().as_f64(), Some(12.5));
        // Round-trips through the JSON text form.
        let parsed = Value::parse(&v.to_json()).unwrap();
        assert_eq!(
            baseline_suite_rate(&parsed, false),
            Some(2000.0),
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
}
