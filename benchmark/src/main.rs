//! `slip-benchmark`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W]... [--seed S] [--seconds N] [--trace 0|1] [--sets N]
//!     [--smoke] [--inject-mismatch]
//! ```
//!
//! Generates every input from the seed, runs each workload in a fresh
//! child process (a re-exec of this binary), checks every output, and
//! prints every metric by name, unit and sample count. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `benchmark/README.md`.

mod child;
mod gate;
mod layers;
mod ledger;
mod metrics;
mod serve;
mod spans;
mod stats;
mod workload;

use child::Child;
use gate::{Reported, Verdict};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sweep_runner::json::Value;
use workload::{Plan, Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Set-ups before the timed phase, the last of them the timed child's
/// own; the rest follow the timed phase.
const SETUPS_BEFORE: usize = 5;

/// Default workload seed.
const DEFAULT_SEED: u64 = 0x511b;

/// Where runs write their temporary inputs and span files: inside the
/// benchmark's own directory, so a run touches nothing outside its
/// checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    smoke: bool,
    inject_mismatch: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: metrics::run_seconds(),
        trace: false,
        sets: 1,
        smoke: false,
        inject_mismatch: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                out.workloads
                    .push(Workload::parse(w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => out.seed = parse_u64(value()?).ok_or("--seed: not a number")?,
            "--seconds" => {
                out.seconds = parse_u64(value()?)
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds: a whole number >= 1")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: 0 or 1, not {other:?}")),
                }
            }
            "--sets" => {
                out.sets = parse_u64(value()?)
                    .filter(|&n| n >= 1)
                    .ok_or("--sets: a whole number >= 1")? as usize;
            }
            "--smoke" => out.smoke = true,
            "--inject-mismatch" => out.inject_mismatch = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if out.workloads.is_empty() {
        out.workloads = Workload::ALL.to_vec();
    }
    Ok(out)
}

/// One timed operation a workload child reported.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub index: u64,
    pub wall_ms: f64,
    pub accesses: u64,
    pub traced: bool,
    pub extra: Value,
}

/// What `serve_mix` observed from the client side.
pub struct ServeRun {
    pub load: serve::Load,
    pub outcomes: Vec<serve::Outcome>,
    pub wall_s: f64,
    pub stats_before: Value,
    pub stats_after: Value,
    pub spans: Vec<spans::Span>,
}

/// Everything one workload run produced.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub plan: Plan,
    pub sizes: Value,
    pub input_s: f64,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub ops: Vec<OpRecord>,
    pub reported: Vec<Reported>,
    pub serve: Option<ServeRun>,
    pub child_spans: Vec<spans::Span>,
    pub verdict: Verdict,
    pub model_err_pts: Option<f64>,
    pub epoch: Instant,
    pub tmp: PathBuf,
}

impl Run {
    /// Operations attempted: cells, sweep cells, or submissions.
    fn attempted(&self) -> u64 {
        match &self.serve {
            Some(s) => s.outcomes.len() as u64,
            None => self.reported.len() as u64,
        }
    }

    /// Every end-to-end metric, with its sample count.
    fn end_to_end(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut m = BTreeMap::new();
        m.insert(
            "setup_s",
            (stats::median(&self.setup_s), self.setup_s.len()),
        );
        m.insert("peak_rss_mb", (self.peak_rss_mb, 1));
        let kinds = self.latency_kinds();
        let (macc_s, ops) = match (&self.serve, &self.plan) {
            (Some(s), _) => {
                let fresh = s.outcomes.iter().filter(|o| o.sub.repeat_of.is_none());
                let executed: u64 = fresh
                    .clone()
                    .map(|o| o.executed * o.sub.spec.accesses)
                    .sum();
                (executed as f64 / s.wall_s / 1e6, fresh.count())
            }
            // One typical pass over the cells, each at its median wall,
            // so a few operations slowed by the host do not move it.
            (None, Plan::Cells { cells, .. }) => {
                let ms: f64 = kinds.iter().map(|k| stats::median(k)).sum();
                let accesses: u64 = cells.iter().map(|c| c.accesses).sum();
                (accesses as f64 / ms / 1e3, self.ops.len())
            }
            (None, _) => {
                let rates: Vec<f64> = self
                    .ops
                    .iter()
                    .map(|o| o.accesses as f64 / o.wall_ms / 1e3)
                    .collect();
                (stats::median(&rates), self.ops.len())
            }
        };
        m.insert("throughput_macc_s", (macc_s, ops));
        let log_sum: f64 = kinds.iter().map(|k| stats::median(k).ln()).sum();
        m.insert(
            "op_latency_ms",
            (
                (log_sum / kinds.len() as f64).exp(),
                kinds.iter().map(Vec::len).sum(),
            ),
        );
        m
    }

    /// Operation latencies (ms) grouped by kind: per cell for the cell
    /// workloads and the sweep's journaled cells, fresh submissions for
    /// the daemon. Kinds of one workload differ by design (a SLIP+ABP
    /// cell is slower than a baseline one), so `op_latency_ms` takes
    /// each kind's median and their geometric mean, which one kind's
    /// jitter cannot flip between clusters the way a pooled median can.
    fn latency_kinds(&self) -> Vec<Vec<f64>> {
        match (&self.serve, &self.plan) {
            (Some(s), _) => vec![s
                .outcomes
                .iter()
                .filter(|o| o.sub.repeat_of.is_none())
                .map(|o| o.latency_ms)
                .collect()],
            (None, Plan::Sweep { .. }) => {
                let mut kinds: Vec<Vec<f64>> = Vec::new();
                for op in &self.ops {
                    let walls = op.extra.get("cell_walls_ms").and_then(Value::as_array);
                    for (i, w) in walls
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(Value::as_f64)
                        .enumerate()
                    {
                        if kinds.len() <= i {
                            kinds.push(Vec::new());
                        }
                        kinds[i].push(w);
                    }
                }
                kinds
            }
            (None, Plan::Cells { cells, .. }) => {
                let mut kinds = vec![Vec::new(); cells.len()];
                for op in &self.ops {
                    kinds[op.index as usize % cells.len()].push(op.wall_ms);
                }
                kinds
            }
            (None, Plan::Serve { .. }) => unreachable!("serve runs carry a load"),
        }
    }
}

/// Removes a run's temporary directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn child_args(plan: &Plan, spans: Option<&Path>) -> Vec<String> {
    let mut args = vec!["--plan".to_owned(), plan.to_value().to_json()];
    if let Some(path) = spans {
        args.push("--spans".to_owned());
        args.push(path.to_string_lossy().into_owned());
    }
    args
}

/// Flips a digit of the first result so the gate must catch it.
fn corrupt(text: &str) -> String {
    text.replacen("\"cycles\":", "\"cycles\":9", 1)
}

/// Generates the inputs, measures set-up, runs the timed phase in a
/// workload child, and gates the outputs.
pub fn execute(
    workload: Workload,
    seed: u64,
    scale: Scale,
    trace: bool,
    inject_mismatch: bool,
    tmp: &Path,
) -> Result<Run, String> {
    std::fs::create_dir_all(tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let started = Instant::now();
    let (plan, sizes) = workload::make_plan(workload, seed, scale, tmp)?;
    let input_s = started.elapsed().as_secs_f64();
    let spans_path = tmp.join("child-spans.jsonl");
    let spans_arg = trace.then_some(spans_path.as_path());
    let args = child_args(&plan, spans_arg);
    let load = match &plan {
        Plan::Serve { .. } => Some(serve::Load::new(seed, scale)),
        _ => None,
    };

    // Set-up samples: fresh children that stop once ready, each after
    // its warm-up. A daemon starts on an empty journal directory, and
    // its set-up ends when it has served the load's warm-up submission
    // and answered `stats`. The samples are taken before and after the
    // timed phase, so their median spans the same stretch of a shared
    // host's shifting speed as the timed metrics do.
    let mut setup_s = Vec::new();
    let mut spawn = || -> Result<(Child, Option<(String, Value)>), String> {
        if let Plan::Serve { dir } = &plan {
            let _ = std::fs::remove_dir_all(dir);
        }
        let child = Child::spawn(&args)?;
        let mut setup = child.setup_s;
        let daemon = match &load {
            Some(load) => {
                let addr = child
                    .ready
                    .get("addr")
                    .and_then(Value::as_str)
                    .ok_or("daemon did not report its address")?
                    .to_owned();
                let asked = Instant::now();
                serve::warm_up(&addr, load)?;
                let stats = slip_serve::client::stats(&addr).map_err(|e| format!("stats: {e}"))?;
                setup += asked.elapsed().as_secs_f64();
                Some((addr, stats))
            }
            None => None,
        };
        setup_s.push(setup);
        Ok((child, daemon))
    };
    for _ in 1..SETUPS_BEFORE {
        stop(spawn()?)?;
    }
    let (mut child, daemon) = spawn()?;

    let epoch = Instant::now();
    let mut run = Run {
        workload,
        seed,
        plan: plan.clone(),
        sizes,
        input_s,
        setup_s: Vec::new(),
        peak_rss_mb: 0.0,
        ops: Vec::new(),
        reported: Vec::new(),
        serve: None,
        child_spans: Vec::new(),
        verdict: Verdict::default(),
        model_err_pts: None,
        epoch,
        tmp: tmp.to_path_buf(),
    };
    if let (Some((addr, stats_before)), Some(load)) = (daemon, &load) {
        let (mut outcomes, spans, wall_s) = serve::run_load(&addr, load, trace, epoch);
        let stats_after = slip_serve::client::stats(&addr).map_err(|e| format!("stats: {e}"))?;
        slip_serve::client::shutdown(&addr).map_err(|e| format!("shutdown: {e}"))?;
        run.peak_rss_mb = child.until_done()?.1;
        child.finish()?;
        if inject_mismatch {
            if let Some((_, payload)) = outcomes.first_mut().and_then(|o| o.cells.first_mut()) {
                *payload = Value::parse(&corrupt(&payload.to_json())).map_err(|e| e.to_string())?;
            }
        }
        run.verdict = gate::serve(&outcomes);
        run.serve = Some(ServeRun {
            load: load.clone(),
            outcomes,
            wall_s,
            stats_before,
            stats_after,
            spans,
        });
    } else {
        child.send("go")?;
        let (messages, peak_rss_mb) = child.until_done()?;
        child.finish()?;
        run.peak_rss_mb = peak_rss_mb;
        for msg in messages {
            if let Some(op) = msg.get("op") {
                run.ops.push(OpRecord {
                    index: op.get("index").and_then(Value::as_u64).ok_or("op index")?,
                    wall_ms: op.get("wall_ms").and_then(Value::as_f64).ok_or("op wall")?,
                    accesses: op
                        .get("accesses")
                        .and_then(Value::as_u64)
                        .ok_or("op size")?,
                    traced: op.get("traced").and_then(Value::as_bool).unwrap_or(false),
                    extra: op.get("extra").cloned().unwrap_or(Value::Null),
                });
            } else if let Some(r) = msg.get("result") {
                run.reported.push(Reported {
                    op: r.get("op").and_then(Value::as_u64).ok_or("result op")?,
                    label: r
                        .get("label")
                        .and_then(Value::as_str)
                        .ok_or("label")?
                        .to_owned(),
                    text: r.get("payload").ok_or("payload")?.to_json(),
                });
            }
        }
        if trace {
            run.child_spans = spans::read_jsonl(&spans_path)?;
        }
        if inject_mismatch {
            if let Some(r) = run.reported.first_mut() {
                r.text = corrupt(&r.text);
            }
        }
        match &plan {
            Plan::Cells { cells, .. } => run.verdict = gate::cells(cells, &run.reported),
            Plan::Sweep { .. } => {
                let (verdict, err) = gate::sweep(&plan, seed, &run.reported);
                run.verdict = verdict;
                run.model_err_pts = Some(err);
            }
            Plan::Serve { .. } => unreachable!("serve runs take the daemon branch"),
        }
    }
    for _ in SETUPS_BEFORE..SETUPS {
        stop(spawn()?)?;
    }
    run.setup_s = setup_s;
    Ok(run)
}

/// Stops a set-up-only child: `quit` before `go`, or a daemon shutdown.
fn stop((mut child, daemon): (Child, Option<(String, Value)>)) -> Result<(), String> {
    match daemon {
        Some((addr, _)) => {
            slip_serve::client::shutdown(&addr).map_err(|e| format!("shutdown: {e}"))?
        }
        None => child.send("quit")?,
    }
    child.finish()
}

/// Runs one workload child end to end as a `--child` process.
fn child_entry(args: &[String]) -> ExitCode {
    let mut plan = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.next()) {
            ("--plan", Some(p)) => plan = Value::parse(p).ok().as_ref().and_then(Plan::from_value),
            ("--spans", Some(p)) => spans = Some(PathBuf::from(p)),
            _ => {}
        }
    }
    let Some(plan) = plan else {
        eprintln!("slip-benchmark child: missing or malformed --plan");
        return ExitCode::from(2);
    };
    match workload::child_main(&plan, spans.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("slip-benchmark child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints one run's human-readable report.
fn print_run(run: &Run, per_layer: Option<&BTreeMap<String, f64>>, extra: &[String]) {
    let w = run.workload.name();
    println!("== {w} (seed {:#x}) ==", run.seed);
    println!(
        "inputs {} generated in {:.3}s",
        run.sizes.to_json(),
        run.input_s
    );
    let (e2e, layer) = metrics::definitions();
    println!(
        "{:<40} {:>14} {:<8} {:>7}  meaning",
        "metric", "value", "unit", "n"
    );
    if let Some(layers) = per_layer {
        for m in &layer {
            let v = layers.get(&m.name).copied().unwrap_or(f64::NAN);
            println!(
                "{:<40} {:>14} {:<8} {:>7}  {}",
                m.name,
                fmt_value(v),
                m.unit,
                "",
                metrics::meaning(&m.name).unwrap_or("")
            );
        }
    } else {
        let values = run.end_to_end();
        for m in &e2e {
            let (v, n) = values[m.name.as_str()];
            println!(
                "{:<40} {:>14} {:<8} {:>7}  {}",
                m.name,
                fmt_value(v),
                m.unit,
                n,
                metrics::meaning(&m.name).unwrap_or("")
            );
        }
        let kinds = run.latency_kinds();
        if kinds.len() > 6 {
            let pooled: Vec<f64> = kinds.concat();
            println!(
                "op latency: {} kinds, pooled p50 {:.3} ms, p90 {:.3} ms over {} samples",
                kinds.len(),
                stats::median(&pooled),
                stats::percentile(&pooled, 90.0),
                pooled.len()
            );
        }
        for lat in kinds.iter().filter(|_| kinds.len() <= 6) {
            match stats::tail_percentile(lat.len()).filter(|&p| p > 50.0) {
                Some(p) => println!(
                    "op latency: p50 {:.3} ms, p{p} {:.3} ms over {} samples",
                    stats::median(lat),
                    stats::percentile(lat, p),
                    lat.len()
                ),
                None => println!(
                    "op latency: p50 {:.3} ms over {} samples (too few for a tail)",
                    stats::median(lat),
                    lat.len()
                ),
            }
        }
    }
    for line in extra {
        println!("{line}");
    }
    if let Some(err) = run.model_err_pts {
        println!("model_err_pts {err:.3} (headline savings vs the paper's 21/35/13/22%)");
    }
    let passed = run.verdict.checks.iter().filter(|(_, ok)| *ok).count();
    println!(
        "gate: {passed}/{} checks passed, {} of {} operations failed",
        run.verdict.checks.len(),
        run.verdict.failed,
        run.attempted()
    );
    for (name, ok) in &run.verdict.checks {
        if !ok {
            println!("  FAIL {name}");
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        return child_entry(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slip-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("slip-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every requested (set, workload) pair, prints the reports, the
/// agreement verdict across sets, and the result line. Returns whether
/// every check passed and every set agreed.
fn run_all(args: &Args) -> Result<bool, String> {
    let scale = Scale {
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let (e2e_defs, layer_defs) = metrics::definitions();
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    // (workload, metric) -> per-set values.
    let mut values: BTreeMap<(Workload, String), Vec<f64>> = BTreeMap::new();
    for set in 0..args.sets {
        for &w in &args.workloads {
            let tmp = TmpDir(out_dir().join(format!("tmp-{}-{}", std::process::id(), w.name())));
            let mut run = execute(
                w,
                args.seed,
                scale,
                args.trace,
                args.inject_mismatch,
                &tmp.0,
            )?;
            let (layer_values, extra) = if args.trace {
                let (v, lines) = layers::per_layer(&mut run, scale)?;
                (Some(v), lines)
            } else {
                (None, Vec::new())
            };
            if args.sets > 1 {
                println!("-- set {} of {} --", set + 1, args.sets);
            }
            print_run(&run, layer_values.as_ref(), &extra);
            correct &= run.verdict.all_ok();
            attempted += run.attempted();
            failed += run.verdict.failed;
            let mut samples = Value::object();
            for (name, (value, n)) in run.end_to_end() {
                samples = samples.with(
                    name,
                    Value::object()
                        .with("value", Value::f64(value))
                        .with("samples", Value::u64(n as u64)),
                );
            }
            let record = Value::object()
                .with("workload", Value::str(w.name()))
                .with("seed", Value::u64(args.seed))
                .with("set", Value::u64(set as u64 + 1))
                .with("nproc", Value::u64(nproc as u64))
                .with("inputs", run.sizes.clone())
                .with("input_s", Value::f64(run.input_s))
                .with(
                    "setup_samples_s",
                    Value::Array(run.setup_s.iter().map(|&s| Value::f64(s)).collect()),
                )
                .with("end_to_end", samples);
            println!("record {}", record.to_json());
            match layer_values {
                Some(v) => {
                    for (k, x) in v {
                        values.entry((w, k)).or_default().push(x);
                    }
                }
                None => {
                    for (k, (x, _)) in run.end_to_end() {
                        values.entry((w, k.to_owned())).or_default().push(x);
                    }
                }
            }
        }
    }

    let mut agreed = true;
    if args.sets > 1 && !args.trace {
        println!(
            "== agreement across {} sets (bound from BENCHMARK.json) ==",
            args.sets
        );
        for m in &e2e_defs {
            for &w in &args.workloads {
                let v = &values[&(w, m.name.clone())];
                let bound = m.bound.expect("end-to-end metrics carry a bound");
                let ok = v.iter().all(|&x| stats::agree(m.better, bound, v[0], x));
                agreed &= ok;
                let shown: Vec<String> = v.iter().map(|&x| fmt_value(x)).collect();
                println!(
                    "{} {:<20} {:<12} [{}] bound {bound}",
                    if ok { "agree   " } else { "DISAGREE" },
                    m.name,
                    w.name(),
                    shown.join(", ")
                );
            }
        }
    }

    let defs = if args.trace { &layer_defs } else { &e2e_defs };
    let single = args.workloads.len() == 1;
    let mut out: BTreeMap<String, (f64, String)> = BTreeMap::new();
    for m in defs {
        for &w in &args.workloads {
            let v = values.get(&(w, m.name.clone())).ok_or(format!(
                "{} measured no {}",
                w.name(),
                m.name
            ))?;
            let name = if single {
                m.name.clone()
            } else {
                format!("{}.{}", m.name, w.name())
            };
            out.insert(name, (stats::median(v), m.unit.clone()));
        }
    }
    println!(
        "{}",
        metrics::result_line(correct, attempted.max(1), failed, &out).to_json()
    );
    Ok(correct && agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&s(&[
            "--workload",
            "cell_l1",
            "--seed",
            "17",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads, [Workload::CellL1]);
        assert_eq!((a.seed, a.seconds, a.trace, a.sets), (17, 12, true, 1));
        let d = parse_args(&[]).unwrap();
        assert_eq!(d.workloads, Workload::ALL);
        assert_eq!(d.seed, 0x511b);
        assert_eq!(parse_args(&s(&["--seed", "0x511b"])).unwrap().seed, 0x511b);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--bogus"],
        ] {
            assert!(parse_args(&s(bad)).is_err(), "{bad:?}");
        }
    }
}
