//! The four workloads: inputs generated from the seed, the plan that
//! carries them to the workload child, and the child's set-up and timed
//! operations.
//!
//! Why each workload exists:
//!
//! * `cell_llc` — `slip run <bench>` cells at the miss rates the paper's
//!   profiles produce (L1 ~0%, L2 16–51%): time goes to L2/L3, the
//!   MMU/EOU, movement and DRAM. An L1 change should not move it.
//! * `cell_l1` — `slip run file.trc` on an L1-resident trace (~98.6% L1
//!   hits): the L1 fast path, TLB gate and `.trc` decode. An LLC change
//!   should not move it.
//! * `sweep_paper` — `slip sweep` of the figure grid at the figure
//!   oracle's 1M calibration: the only workload that runs NuRAPID and
//!   LRU-PEA, the pool, trace cache and journal.
//! * `serve_mix` — `slip serve` under a closed loop of two clients, half
//!   fresh submissions (cells execute) and half repeats (served from the
//!   journal archive): the wire, codec and dedup paths.

use crate::spans::Tracer;
use cache_sim::rng::SplitMix64;
use cache_sim::Access;
use energy_model::HierarchySpec;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::experiments::suite::{SuiteOptions, SuiteResults, SweepConfig};
use sim_engine::{codec, SingleCoreSystem};
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sweep_runner::json::Value;
use workloads::{PatternKind, PatternSpec, PhaseSpec, WorkloadSpec};

/// The benchmark's workloads, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    CellLlc,
    CellL1,
    SweepPaper,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CellLlc,
        Workload::CellL1,
        Workload::SweepPaper,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CellLlc => "cell_llc",
            Workload::CellL1 => "cell_l1",
            Workload::SweepPaper => "sweep_paper",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The cells of `cell_llc`: TLB pressure (mcf), bypass-heavy streaming
/// (lbm), and the paper's running example (soplex).
const LLC_BENCHMARKS: [&str; 3] = ["soplex", "mcf", "lbm"];

/// The two policies every cell workload runs.
const CELL_POLICIES: [PolicyKind; 2] = [PolicyKind::Baseline, PolicyKind::SlipAbp];

/// The generator seed of every suite cell (`SystemConfig::paper_45nm`).
pub const SUITE_SEED: u64 = 0x511b;

/// A seed for one purpose, derived from the run seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// How much work one run does. Sizes scale with `--seconds` so a run
/// takes about that long on a 2-vCPU host; `--smoke` shrinks every
/// workload to a fraction of a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub seconds: u64,
    pub smoke: bool,
}

impl Scale {
    /// Rounds of work filling `seconds` when one round takes
    /// `round_s` seconds, at least `min`.
    fn rounds(self, round_s: f64, min: u64) -> u64 {
        ((self.seconds as f64 / round_s).round() as u64).max(min)
    }
}

/// Where a cell's access stream comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A built-in benchmark profile, generated inline from the seed.
    Bench(String),
    /// A `.trc` file written at set-up.
    Trc(PathBuf),
}

/// One single-core simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDef {
    pub input: Input,
    pub policy: PolicyKind,
    /// Generator and system seed.
    pub seed: u64,
    pub accesses: u64,
}

impl CellDef {
    pub fn label(&self) -> String {
        let source = match &self.input {
            Input::Bench(name) => name.clone(),
            Input::Trc(_) => "l1_heavy.trc".to_owned(),
        };
        format!("{source}/{}", self.policy.label())
    }

    /// The cell's configuration, as `slip run --seed` builds it.
    pub fn config(&self, reference_hot_path: bool) -> SystemConfig {
        let mut c = SystemConfig::paper_45nm(self.policy);
        c.seed = self.seed;
        c.reference_hot_path = reference_hot_path;
        c
    }

    /// The workload name its `SimResult` carries, as `slip run` names it.
    fn result_name(&self) -> String {
        match &self.input {
            Input::Bench(name) => name.clone(),
            Input::Trc(_) => self.label(),
        }
    }

    /// Runs the cell under `config` the way `slip run` does:
    /// `run_workload` for a benchmark, `read_trace` → `new` →
    /// `step_fast` → `finish` for a trace file (its first `accesses`).
    pub fn run(&self, config: SystemConfig) -> Result<sim_engine::SimResult, String> {
        match &self.input {
            Input::Bench(name) => {
                let spec = workloads::workload(name).ok_or_else(|| format!("no {name}"))?;
                Ok(sim_engine::run_workload(config, &spec, self.accesses))
            }
            Input::Trc(path) => {
                let reader = workloads::io::read_trace(path).map_err(|e| e.to_string())?;
                let mut system = SingleCoreSystem::new(config);
                for access in reader.take(self.accesses as usize) {
                    system.step_fast(access.map_err(|e| e.to_string())?);
                }
                Ok(system.finish(self.result_name()))
            }
        }
    }

    /// The cell's first `n` accesses.
    pub fn prefix(&self, n: u64) -> Result<Vec<Access>, String> {
        match &self.input {
            Input::Bench(name) => {
                let spec = workloads::workload(name).ok_or_else(|| format!("no {name}"))?;
                Ok(spec
                    .trace(self.accesses, self.seed)
                    .take(n as usize)
                    .collect())
            }
            Input::Trc(path) => workloads::io::read_trace(path)
                .map_err(|e| e.to_string())?
                .take(n as usize)
                .map(|a| a.map_err(|e| e.to_string()))
                .collect(),
        }
    }

    /// The library generator behind the cell's stream.
    pub fn generator(&self) -> WorkloadSpec {
        match &self.input {
            Input::Bench(name) => workloads::workload(name).expect("plan names known benchmarks"),
            Input::Trc(_) => l1_heavy_spec(),
        }
    }

    fn to_value(&self) -> Value {
        let input = match &self.input {
            Input::Bench(name) => Value::object().with("bench", Value::str(name.as_str())),
            Input::Trc(path) => Value::object().with("trc", Value::str(path.to_string_lossy())),
        };
        Value::object()
            .with("input", input)
            .with("policy", Value::str(self.policy.label()))
            .with("seed", Value::u64(self.seed))
            .with("accesses", Value::u64(self.accesses))
    }

    fn from_value(v: &Value) -> Option<CellDef> {
        let input = v.get("input")?;
        let input = match (input.get("bench"), input.get("trc")) {
            (Some(b), None) => Input::Bench(b.as_str()?.to_owned()),
            (None, Some(t)) => Input::Trc(PathBuf::from(t.as_str()?)),
            _ => return None,
        };
        Some(CellDef {
            input,
            policy: PolicyKind::parse(v.get("policy")?.as_str()?)?,
            seed: v.get("seed")?.as_u64()?,
            accesses: v.get("accesses")?.as_u64()?,
        })
    }
}

/// Worker threads of the sweep and of the daemon: the host has 2 vCPUs.
pub const JOBS: usize = 2;

/// What a workload child runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// `rounds` passes over `cells`, one cell at a time.
    Cells { cells: Vec<CellDef>, rounds: u64 },
    /// `sweeps` journaled sweeps of the paper's figure grid.
    Sweep {
        accesses: u64,
        warmup: u64,
        sweeps: u64,
        dir: PathBuf,
    },
    /// A `slip serve` daemon; the load comes from the parent.
    Serve { dir: PathBuf },
}

impl Plan {
    pub fn to_value(&self) -> Value {
        match self {
            Plan::Cells { cells, rounds } => Value::object()
                .with("kind", Value::str("cells"))
                .with(
                    "cells",
                    Value::Array(cells.iter().map(CellDef::to_value).collect()),
                )
                .with("rounds", Value::u64(*rounds)),
            Plan::Sweep {
                accesses,
                warmup,
                sweeps,
                dir,
            } => Value::object()
                .with("kind", Value::str("sweep"))
                .with("accesses", Value::u64(*accesses))
                .with("warmup", Value::u64(*warmup))
                .with("sweeps", Value::u64(*sweeps))
                .with("dir", Value::str(dir.to_string_lossy())),
            Plan::Serve { dir } => Value::object()
                .with("kind", Value::str("serve"))
                .with("dir", Value::str(dir.to_string_lossy())),
        }
    }

    pub fn from_value(v: &Value) -> Option<Plan> {
        let u = |k: &str| v.get(k).and_then(Value::as_u64);
        let dir = || v.get("dir").and_then(Value::as_str).map(PathBuf::from);
        Some(match v.get("kind")?.as_str()? {
            "cells" => Plan::Cells {
                cells: v
                    .get("cells")?
                    .as_array()?
                    .iter()
                    .map(CellDef::from_value)
                    .collect::<Option<_>>()?,
                rounds: u("rounds")?,
            },
            "sweep" => Plan::Sweep {
                accesses: u("accesses")?,
                warmup: u("warmup")?,
                sweeps: u("sweeps")?,
                dir: dir()?,
            },
            "serve" => Plan::Serve { dir: dir()? },
            _ => return None,
        })
    }

    /// The suite options of a sweep plan.
    pub fn suite_options(&self) -> Option<SuiteOptions> {
        let Plan::Sweep {
            accesses, warmup, ..
        } = self
        else {
            return None;
        };
        Some(
            SuiteOptions::paper_full()
                .with_accesses(*accesses)
                .with_warmup(*warmup),
        )
    }
}

/// The L1-resident profile of `cell_l1`: a 16 KB loop (fits the 32 KB
/// L1) at weight 94 and an 8 MB random region at weight 6.
pub fn l1_heavy_spec() -> WorkloadSpec {
    WorkloadSpec::new(
        "l1_heavy",
        vec![PhaseSpec {
            fraction: 1.0,
            patterns: vec![
                PatternSpec::new(PatternKind::Loop { region_kb: 16 }, 94, 0.30),
                PatternSpec::new(
                    PatternKind::Random {
                        region_kb: 8 * 1024,
                    },
                    6,
                    0.10,
                ),
            ],
        }],
    )
}

/// Writes the `cell_l1` trace: the L1-heavy profile with every access
/// repeated 1–8 times at successive 8-byte words of its line, which is
/// how real traces show word-level spatial locality.
pub fn write_l1_trace(path: &Path, accesses: u64, seed: u64) -> Result<(), String> {
    let mut repeats = SplitMix64::new(derive(seed, 0x11));
    let stream = l1_heavy_spec()
        .trace(accesses, derive(seed, 0x12))
        .flat_map(move |a| {
            let n = 1 + repeats.next_below(8);
            (0..n).map(move |word| Access {
                addr: a.addr + 8 * word,
                kind: a.kind,
            })
        })
        .take(accesses as usize);
    let written = workloads::io::write_trace(path, stream).map_err(|e| e.to_string())?;
    if written != accesses {
        return Err(format!("trace holds {written} of {accesses} accesses"));
    }
    Ok(())
}

/// Builds a workload's plan from the seed, writing any input files into
/// `dir`. Returns the plan and a description of its input sizes.
pub fn make_plan(
    workload: Workload,
    seed: u64,
    scale: Scale,
    dir: &Path,
) -> Result<(Plan, Value), String> {
    Ok(match workload {
        Workload::CellLlc => {
            // Many short rounds rather than a few long ones: each cell's
            // median wall then shrugs off a slow second of a shared host.
            let accesses = if scale.smoke { 20_000 } else { 1_000_000 };
            let rounds = if scale.smoke { 2 } else { scale.rounds(1.4, 2) };
            let cells: Vec<CellDef> = LLC_BENCHMARKS
                .iter()
                .enumerate()
                .flat_map(|(i, b)| {
                    let seed = derive(seed, i as u64);
                    CELL_POLICIES.iter().map(move |&policy| CellDef {
                        input: Input::Bench((*b).to_owned()),
                        policy,
                        seed,
                        accesses,
                    })
                })
                .collect();
            let desc = Value::object()
                .with("cells", Value::u64(cells.len() as u64))
                .with("accesses_per_cell", Value::u64(accesses))
                .with("rounds", Value::u64(rounds));
            (Plan::Cells { cells, rounds }, desc)
        }
        Workload::CellL1 => {
            let accesses = if scale.smoke { 100_000 } else { 16_000_000 };
            let rounds = if scale.smoke { 2 } else { scale.rounds(0.7, 2) };
            let path = dir.join("l1_heavy.trc");
            write_l1_trace(&path, accesses, seed)?;
            let cells: Vec<CellDef> = CELL_POLICIES
                .iter()
                .map(|&policy| CellDef {
                    input: Input::Trc(path.clone()),
                    policy,
                    seed: derive(seed, 0x13),
                    accesses,
                })
                .collect();
            let desc = Value::object()
                .with("trc_accesses", Value::u64(accesses))
                .with("trc_bytes", Value::u64(16 + 8 * accesses))
                .with("rounds", Value::u64(rounds));
            (Plan::Cells { cells, rounds }, desc)
        }
        Workload::SweepPaper => {
            // The figure oracle's calibration point, nudged by the seed
            // so every seed is a distinct input.
            let (base, warmup) = if scale.smoke {
                (10_000, 1_000)
            } else {
                (1_000_000, 100_000)
            };
            let accesses = base + derive(seed, 0x21) % 4096;
            let sweeps = if scale.smoke {
                1
            } else {
                scale.rounds(12.0, 1)
            };
            let plan = Plan::Sweep {
                accesses,
                warmup,
                sweeps,
                dir: dir.to_path_buf(),
            };
            let desc = Value::object()
                .with("cells", Value::u64(70))
                .with("accesses_per_cell", Value::u64(accesses))
                .with("warmup_per_cell", Value::u64(warmup))
                .with("sweeps", Value::u64(sweeps));
            (plan, desc)
        }
        Workload::ServeMix => {
            let load = crate::serve::Load::new(seed, scale);
            let desc = load.describe();
            (
                Plan::Serve {
                    dir: dir.join("journals"),
                },
                desc,
            )
        }
    })
}

/// Runs as a workload child: set up, print `ready`, then run the timed
/// operations on `go` and report them. Spans go to `spans` when set.
pub fn child_main(plan: &Plan, spans: Option<&Path>) -> Result<(), String> {
    match plan {
        Plan::Cells { cells, rounds } => child_cells(cells, *rounds, spans),
        Plan::Sweep { .. } => child_sweep(plan, spans),
        Plan::Serve { dir } => child_serve(dir),
    }
}

fn emit(v: &Value) {
    println!("{}", v.to_json());
}

/// Waits for the parent's go-ahead; anything else ends a set-up-only
/// child.
fn await_go() -> bool {
    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line).is_ok() && line.trim() == "go"
}

/// In a traced run, passes (rounds over the cells, sweeps) alternate
/// untraced/traced so the same run measures the tracing overhead on the
/// same mix of cells; a single pass is traced.
fn traced_pass(spans: Option<&Path>, pass: u64, passes: u64) -> bool {
    spans.is_some() && (passes == 1 || pass % 2 == 1)
}

/// Child ids start high so they never collide with the parent's.
const CHILD_SPAN_IDS: u64 = 1 << 40;

/// A child's warm-up, the last step of its set-up, runs the plan's work
/// at this fraction of its length. Set-up then ends with the simulator's
/// code and allocations warm, and `setup_s` is mostly the program's own
/// work: process creation alone takes under a millisecond, and on a
/// shared host its cost drifts by a third from one minute to the next.
const WARMUP_SHARE: u64 = 32;

fn child_cells(cells: &[CellDef], rounds: u64, spans: Option<&Path>) -> Result<(), String> {
    // Set-up: what `slip run --topology 45nm` does before simulating —
    // parse and validate the hierarchy spec and build each configuration
    // — then one warm-up pass over the cells' first accesses.
    let topology = HierarchySpec::builtin("45nm").ok_or("no built-in 45nm node")?;
    let configs = cells
        .iter()
        .map(|cell| {
            let mut config = SystemConfig::from_topology(&topology, cell.policy)?;
            config.seed = cell.seed;
            Ok(config)
        })
        .collect::<Result<Vec<_>, String>>()?;
    for (cell, config) in cells.iter().zip(&configs) {
        let warmup = CellDef {
            accesses: (cell.accesses / WARMUP_SHARE).max(1),
            ..cell.clone()
        };
        warmup.run(config.clone())?;
    }
    emit(&Value::object().with("ready", Value::Bool(true)));
    if !await_go() {
        return Ok(());
    }
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch, CHILD_SPAN_IDS);
    let mut done = Vec::new();
    for round in 0..rounds {
        let traced = traced_pass(spans, round, rounds);
        tracer.set_enabled(traced);
        for (i, cell) in cells.iter().enumerate() {
            let index = round * cells.len() as u64 + i as u64;
            let config = configs[i].clone();
            let started = Instant::now();
            let result = if traced {
                traced_cell(cell, config, &mut tracer, index)?
            } else {
                cell.run(config)?
            };
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            done.push((index, cell.label(), wall_ms, cell.accesses, traced, result));
        }
    }
    for (index, label, wall_ms, accesses, traced, result) in done {
        emit(&op_message(
            index,
            wall_ms,
            accesses,
            traced,
            Value::object(),
        ));
        emit(&result_message(
            index,
            &label,
            codec::encode_result(&result),
        ));
    }
    finish_child(&tracer, spans)
}

/// Chunk length of the traced cell decomposition.
const CHUNK: usize = 1 << 16;

/// A cell decomposed into its public calls, each inside a span: the
/// same accesses in the same order as the untraced path, so the result
/// must be bit-identical (the gate compares digests).
fn traced_cell(
    cell: &CellDef,
    config: SystemConfig,
    tracer: &mut Tracer,
    request: u64,
) -> Result<sim_engine::SimResult, String> {
    tracer.begin("benchmark.cell", request);
    let mut system = tracer.span("sim-engine.new", request, || SingleCoreSystem::new(config));
    let mut chunk: Vec<Access> = Vec::with_capacity(CHUNK);
    match &cell.input {
        Input::Bench(_) => {
            let mut trace = cell.generator().trace(cell.accesses, cell.seed);
            system.reset_measurements();
            loop {
                tracer.span("workloads.generate", request, || {
                    chunk.clear();
                    chunk.extend(trace.by_ref().take(CHUNK));
                });
                if chunk.is_empty() {
                    break;
                }
                tracer.span("sim-engine.step", request, || {
                    system.run(chunk.iter().copied());
                });
            }
        }
        Input::Trc(path) => {
            let mut reader = tracer.span("workloads.trc_open", request, || {
                workloads::io::read_trace(path).map_err(|e| e.to_string())
            })?;
            loop {
                tracer.span("workloads.trc_decode", request, || {
                    chunk.clear();
                    for access in reader.by_ref().take(CHUNK) {
                        chunk.push(access.map_err(|e| e.to_string())?);
                    }
                    Ok::<(), String>(())
                })?;
                if chunk.is_empty() {
                    break;
                }
                tracer.span("sim-engine.step", request, || {
                    for &access in &chunk {
                        system.step_fast(access);
                    }
                });
            }
        }
    }
    let result = tracer.span("sim-engine.finish", request, || {
        system.finish(cell.result_name())
    });
    tracer.end();
    Ok(result)
}

fn op_message(index: u64, wall_ms: f64, accesses: u64, traced: bool, extra: Value) -> Value {
    Value::object().with(
        "op",
        Value::object()
            .with("index", Value::u64(index))
            .with("wall_ms", Value::f64(wall_ms))
            .with("accesses", Value::u64(accesses))
            .with("traced", Value::Bool(traced))
            .with("extra", extra),
    )
}

fn result_message(op: u64, label: &str, payload: Value) -> Value {
    Value::object().with(
        "result",
        Value::object()
            .with("op", Value::u64(op))
            .with("label", Value::str(label))
            .with("payload", payload),
    )
}

fn finish_child(tracer: &Tracer, spans: Option<&Path>) -> Result<(), String> {
    if let Some(path) = spans {
        crate::spans::write_jsonl(path, &tracer.spans).map_err(|e| format!("spans: {e}"))?;
    }
    emit_done()
}

/// The last message of a workload child: done, with its peak RSS.
fn emit_done() -> Result<(), String> {
    emit(
        &Value::object()
            .with("done", Value::Bool(true))
            .with("peak_rss_kib", Value::u64(crate::child::peak_rss_kib()?)),
    );
    Ok(())
}

fn child_sweep(plan: &Plan, spans: Option<&Path>) -> Result<(), String> {
    let Plan::Sweep { sweeps, dir, .. } = plan else {
        unreachable!("child_main dispatches sweep plans only");
    };
    let options = plan.suite_options().expect("sweep plan");
    let cells = (options.benchmarks.len() * options.policies.len()) as u64;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Warm-up: the same grid, unjournaled, at a fraction of its length.
    let warmup = options
        .clone()
        .with_accesses((options.accesses / WARMUP_SHARE).max(1))
        .with_warmup(options.warmup / WARMUP_SHARE);
    SuiteResults::run_with(warmup, &SweepConfig::with_jobs(JOBS))
        .map_err(|e| format!("warm-up sweep: {e}"))?;
    emit(&Value::object().with("ready", Value::Bool(true)));
    if !await_go() {
        return Ok(());
    }
    let mut tracer = Tracer::new(false, Instant::now(), CHILD_SPAN_IDS);
    for index in 0..*sweeps {
        let journal = dir.join(format!("sweep-{index}.jsonl"));
        let _ = std::fs::remove_file(&journal);
        let mut sweep = SweepConfig::with_jobs(JOBS);
        sweep.journal = Some(journal.clone());
        tracer.set_enabled(traced_pass(spans, index, *sweeps));
        let started = Instant::now();
        let suite = tracer.span("sweep-runner.run_with", index, || {
            SuiteResults::run_with(options.clone(), &sweep)
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let suite = suite.map_err(|e| format!("sweep: {e}"))?;
        let cell_walls = tracer.span("sweep-runner.journal_read", index, || {
            journal_walls(&journal)
        })?;
        let cache = suite
            .trace_cache_stats
            .as_ref()
            .map_or(Value::Null, |s| s.to_value());
        let extra = Value::object()
            .with(
                "cell_walls_ms",
                Value::Array(cell_walls.into_iter().map(Value::f64).collect()),
            )
            .with("trace_cache", cache);
        let accesses = cells * (options.accesses + options.warmup);
        emit(&op_message(
            index,
            wall_ms,
            accesses,
            tracer.enabled(),
            extra,
        ));
        for &bench in &options.benchmarks {
            for &policy in &options.policies {
                let label = format!("{bench}/{}", policy.label());
                emit(&result_message(
                    index,
                    &label,
                    codec::encode_result(suite.get(bench, policy)),
                ));
            }
        }
    }
    finish_child(&tracer, spans)
}

/// Per-cell wall times recorded in a sweep journal, in cell-key order
/// so that position `i` is the same cell in every sweep.
pub fn journal_walls(path: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut walls: Vec<(String, f64)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = Value::parse(l).ok();
            let key = v
                .as_ref()
                .and_then(|v| v.get("key")?.as_str().map(str::to_owned));
            let wall = v.as_ref().and_then(|v| v.get("wall_ms")?.as_f64());
            key.zip(wall)
                .ok_or_else(|| format!("{}: malformed record", path.display()))
        })
        .collect::<Result<_, _>>()?;
    walls.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(walls.into_iter().map(|(_, w)| w).collect())
}

fn child_serve(dir: &Path) -> Result<(), String> {
    let mut config = slip_serve::ServerConfig::new(dir);
    config.addr = "127.0.0.1:0".to_owned();
    config.jobs = JOBS;
    config.quiet = true;
    let server = slip_serve::Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    emit(
        &Value::object()
            .with("ready", Value::Bool(true))
            .with("addr", Value::str(server.local_addr().to_string())),
    );
    let drained = server.run().map_err(|e| format!("serve: {e}"));
    emit_done()?;
    drained
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_json() {
        let dir = Path::new("out/x");
        for w in [Workload::CellLlc, Workload::SweepPaper, Workload::ServeMix] {
            let scale = Scale {
                seconds: 12,
                smoke: false,
            };
            let (plan, _) = make_plan(w, 7, scale, dir).unwrap();
            let text = plan.to_value().to_json();
            let back = Plan::from_value(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan, "{}", w.name());
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let scale = Scale {
            seconds: 12,
            smoke: false,
        };
        let plan = |seed| make_plan(Workload::SweepPaper, seed, scale, Path::new("d")).unwrap();
        assert_eq!(plan(1).0, plan(1).0);
        assert_ne!(plan(1).0, plan(2).0);
        let (Plan::Cells { cells, rounds }, _) =
            make_plan(Workload::CellLlc, 3, scale, Path::new("d")).unwrap()
        else {
            panic!("cell plan");
        };
        assert_eq!((cells.len(), rounds), (6, 9));
        // Both policies of a benchmark replay the same stream.
        assert_eq!(cells[0].seed, cells[1].seed);
        assert_ne!(cells[0].seed, cells[2].seed);
    }
}
