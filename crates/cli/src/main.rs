//! `slip` — command-line driver for the SLIP cache-energy simulator.
//!
//! ```text
//! slip list                         the built-in workloads
//! slip run <workload|file.trc>      one simulation, full metrics: --policy
//!   --accesses (not for a .trc file, which runs whole) --seed --replacement
//!   --inclusive --csv --topology
//! slip compare <workload>           all five policies side by side: --accesses
//!   --seed --replacement --inclusive --jobs --topology
//! slip sweep [workload ...]         benchmark x policy grid: --accesses --seed
//!   --jobs --journal --topology
//! slip mix <bench_a> <bench_b>      two cores, shared L3: --policy --accesses
//!   --seed --replacement --topology
//! slip record <workload> <out.trc>  dump a synthetic trace: --accesses --seed
//! slip bench                        throughput gate, four system replays and a
//!   fixed 20% bound: --quick --out --check
//! slip check                        conformance, differential fuzz + invariants:
//!   --quick|--full --iters --seed --max-len --topology; --oracle adds the
//!   figure oracle and takes --accesses --jobs
//! slip serve                        the sweep daemon: --addr --jobs
//!   --journal-dir --port-file --quiet
//! slip submit [workload ...]        one sweep on a daemon: --policy (repeatable)
//!   --accesses --warmup --topology --connect --verify-offline --quiet
//! slip submit --resume RUN_ID       re-attach to a run: --ack --connect --quiet
//! slip submit --stats|--shutdown    query or drain the daemon: --connect
//!
//! --policy <baseline|nurapid|lru-pea|slip|slip-abp>   (default slip-abp)
//! --accesses <N>                                      (default 1000000)
//! --seed <N|0xN>          master seed                 (default 0x511b)
//! --replacement <lru|drrip|ship>                      (default lru)
//! --inclusive             model an inclusive LLC
//! --csv <path>            also write metrics as CSV
//! --jobs <N>              worker pool size, at least 1 (default SLIP_JOBS or
//!                         all cores); a sweep runs each benchmark's cells as
//!                         one fused group, split until every worker has one
//! --journal <path>        JSONL run journal; a re-run resumes, skipping
//!                         completed cells               (default SLIP_JOURNAL)
//! --topology <node|file>  a built-in node (45nm, 22nm, stt-llc) or a spec
//!                         file; malformed files fail with line/column
//!                         diagnostics (default SLIP_TOPOLOGY or built-in 45 nm)
//!
//! SLIP_WARMUP=<N>         unmeasured warmup accesses before `run <workload>`,
//!                         `compare` and `sweep` measure; `run file.trc` and
//!                         `mix` run no warmup and fail when it is non-zero
//! SLIP_JOURNAL=<path>     the default --journal; `run`, `compare`, `mix`,
//!                         `record` and `check` keep no journal and fail when
//!                         it is set
//! ```
//!
//! A closed stdout (`slip list | head -1`) ends any command quietly, as
//! it does any Unix filter.
//!
//! A subcommand accepts a flag only where it reads it: every other flag
//! fails before anything runs, naming the subcommand ([`Args::finish`]).

use sim_engine::config::{PolicyKind, ReplacementKind, SystemConfig, DEFAULT_SEED};
use sim_engine::experiments::{SuiteOptions, SuiteResults, Variant};
use sim_engine::multicore::run_mix;
use sim_engine::report::{pct, Table};
use sim_engine::system::run_workload_with_warmup;
use sim_engine::{SimResult, SingleCoreSystem, SweepConfig};
use std::fmt::Display;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use sweep_runner::json::Value;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The daemon writes nothing to stdout and keeps ignoring SIGPIPE;
    // every other command ends on a closed stdout.
    if args.first().map(String::as_str) != Some("serve") {
        sweep_runner::interrupt::end_on_closed_stdout();
    }
    // Only an argument error prints the usage; a command that fails
    // while it runs prints just its error.
    match dispatch(&args)
        .map_err(|e| format!("{e}\n\n{USAGE}"))
        .and_then(|job| job())
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  slip list
  slip run <workload|file.trc> [--policy P] [--accesses N] [--seed S]
           [--replacement R] [--inclusive] [--csv out.csv]
           [--topology NODE|FILE]      (--accesses: workloads only)
  slip compare <workload> [--accesses N] [--seed S] [--replacement R]
               [--inclusive] [--jobs N] [--topology NODE|FILE]
  slip sweep [workload ...] [--accesses N] [--seed S] [--jobs N]
             [--journal run.jsonl] [--topology NODE|FILE]
  slip mix <bench_a> <bench_b> [--policy P] [--accesses N] [--seed S]
           [--replacement R] [--topology NODE|FILE]
  slip record <workload> <out.trc> [--accesses N] [--seed S]
  slip bench [--quick] [--out bench.json] [--check BENCH_22.json]
  slip check [--quick|--full] [--iters N] [--seed S] [--max-len N]
             [--topology NODE|FILE] [--oracle [--accesses N] [--jobs N]]
  slip serve [--addr HOST:PORT] [--jobs N] [--journal-dir DIR]
             [--port-file FILE] [--quiet]
  slip submit [workload ...] [--policy P]... [--accesses N] [--warmup N]
              [--topology NODE|FILE] [--connect HOST:PORT] [--verify-offline]
              [--quiet]
  slip submit --resume RUN_ID [--ack N] [--connect HOST:PORT] [--quiet]
  slip submit --stats|--shutdown [--connect HOST:PORT]";

/// What a subcommand does once its arguments are accepted.
type Job = Box<dyn FnOnce() -> Result<(), String>>;

/// Parses the command line into its subcommand's job. Every argument
/// error surfaces here, so nothing has run, bound, connected or written
/// a file when one does.
fn dispatch(args: &[String]) -> Result<Job, String> {
    let (command, rest) = args.split_first().ok_or("no command given")?;
    let plan: fn(&mut Args) -> Result<Job, String> = match command.as_str() {
        "list" => cmd_list,
        "run" => cmd_run,
        "compare" => cmd_compare,
        "sweep" => cmd_sweep,
        "mix" => cmd_mix,
        "record" => cmd_record,
        "bench" => cmd_bench,
        "check" => cmd_check,
        "serve" => cmd_serve,
        "submit" => cmd_submit,
        other => return Err(format!("unknown command {other:?}")),
    };
    let mut args = Args::parse(command, rest)?;
    let job = plan(&mut args)?;
    args.finish()?;
    Ok(job)
}

/// The flags that take a value: the one table the parser reads arity from.
const VALUED: &str = "--accesses --ack --addr --check --connect --csv --iters --jobs --journal \
    --journal-dir --max-len --out --policy --port-file --replacement --resume --seed --topology \
    --warmup";

/// The flags that take no value.
const SWITCHES: &str = "--full --inclusive --oracle --quick --quiet --shutdown --stats \
    --verify-offline";

/// The error for a flag that used to pick an execution path, size a
/// trace cache or loosen the bench gate, naming what replaced it;
/// `None` for any other flag. Retired flags fail at parse time instead
/// of being ignored.
fn retired_flag(flag: &str) -> Option<String> {
    let why = match flag {
        "--trace-mode" => {
            "`slip run` steps its trace inline and sweeps always run fused benchmark groups; \
             parallelism is --jobs"
        }
        "--shards" => {
            "set-sharded runs were removed; sweeps always run fused benchmark groups; \
             parallelism is --jobs"
        }
        "--trace-cache-mb" => {
            "sweeps and `slip serve` stream every benchmark's trace through one fused \
             group, so there is no cache budget to set"
        }
        "--tolerance" => "the `slip bench --check` regression bound is fixed at 20%",
        _ => return None,
    };
    Some(format!("{flag} is no longer supported: {why}"))
}

/// One subcommand's arguments, split once into positionals and
/// `--flag [value]` pairs. A command takes what it acts on through the
/// getters, only under the conditions where it acts on it;
/// [`finish`](Args::finish) then rejects whatever no getter took.
struct Args {
    /// How errors name the command, e.g. "`slip sweep`".
    cmd: String,
    /// Untaken positional arguments.
    positional: Vec<String>,
    /// `(flag, value, taken)` in command-line order.
    flags: Vec<(&'static str, Option<String>, bool)>,
}

impl Args {
    /// Splits `args`; fails on an unknown or retired flag, a flag
    /// missing its value, or a `SLIP_*` knob [`sim_engine::env::check`]
    /// rejects.
    fn parse(command: &str, args: &[String]) -> Result<Args, String> {
        sim_engine::env::check()?;
        let mut parsed = Args {
            cmd: format!("`slip {command}`"),
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter().cloned();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                parsed.positional.push(a);
                continue;
            }
            let known = |flags: &'static str| flags.split_whitespace().find(|f| *f == a);
            let (flag, value) = match (known(VALUED), known(SWITCHES)) {
                (Some(flag), _) => {
                    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    (flag, Some(value))
                }
                (None, Some(flag)) => (flag, None),
                (None, None) => {
                    return Err(retired_flag(&a).unwrap_or_else(|| format!("unknown option {a:?}")))
                }
            };
            parsed.flags.push((flag, value, false));
        }
        Ok(parsed)
    }

    /// Fails on the first flag or positional no getter took.
    fn finish(self) -> Result<(), String> {
        if let Some(p) = self.positional.first() {
            return Err(format!("{} does not take {p:?}", self.cmd));
        }
        match self.flags.iter().find(|(.., taken)| !taken) {
            Some((flag, ..)) => Err(format!("{} does not take {flag}", self.cmd)),
            None => Ok(()),
        }
    }

    /// Takes the positional arguments.
    fn positionals(&mut self) -> Vec<String> {
        std::mem::take(&mut self.positional)
    }

    /// Takes every occurrence of `flag`, returning their values in
    /// order (`None` for a switch).
    fn take(&mut self, flag: &str) -> Vec<Option<String>> {
        self.flags
            .iter_mut()
            .filter(|(f, ..)| *f == flag)
            .map(|(_, value, taken)| {
                *taken = true;
                value.clone()
            })
            .collect()
    }

    /// Takes `flag`; the last value wins.
    fn value(&mut self, flag: &str) -> Option<String> {
        self.take(flag).pop().flatten()
    }

    /// Takes a switch, reporting whether it was given.
    fn switch(&mut self, flag: &str) -> bool {
        !self.take(flag).is_empty()
    }

    /// Takes `flag` and parses its value.
    fn parsed<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }

    /// `--accesses`, default 1,000,000.
    fn accesses(&mut self) -> Result<u64, String> {
        Ok(self.parsed("--accesses")?.unwrap_or(1_000_000))
    }

    /// `--seed`, hex with a `0x` prefix or decimal.
    fn seed(&mut self) -> Result<u64, String> {
        let Some(v) = self.value("--seed") else {
            return Ok(DEFAULT_SEED);
        };
        match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        }
        .map_err(|e| format!("--seed: {e}"))
    }

    /// `--jobs`, at least 1; default `SLIP_JOBS` or all cores.
    fn jobs(&mut self) -> Result<usize, String> {
        match self.parsed("--jobs")? {
            Some(0) => Err("--jobs: a worker pool needs at least one worker".to_owned()),
            Some(n) => Ok(n),
            None => Ok(sim_engine::env::jobs()),
        }
    }

    /// `--policy`, default SLIP+ABP.
    fn policy(&mut self) -> Result<PolicyKind, String> {
        match self.value("--policy") {
            Some(v) => PolicyKind::parse(&v).ok_or_else(|| format!("unknown policy {v:?}")),
            None => Ok(PolicyKind::SlipAbp),
        }
    }

    /// `--topology` (or `SLIP_TOPOLOGY`) resolved into a validated
    /// hierarchy spec; `None` means the compiled-in 45 nm configuration.
    /// Malformed files fail here with the parser's line/column diagnostic.
    fn topology(&mut self) -> Result<Option<energy_model::HierarchySpec>, String> {
        self.value("--topology")
            .or_else(sim_engine::env::topology)
            .as_deref()
            .map(energy_model::HierarchySpec::load)
            .transpose()
    }

    /// The configuration variant `--topology`, `--replacement` and
    /// `--inclusive` select.
    fn variant(&mut self) -> Result<Variant, String> {
        let mut v = Variant {
            topology: self.topology()?,
            inclusive_llc: self.switch("--inclusive"),
            ..Variant::default()
        };
        if let Some(r) = self.value("--replacement") {
            v.replacement = match r.as_str() {
                "lru" => ReplacementKind::Lru,
                "drrip" => ReplacementKind::Drrip,
                "ship" => ReplacementKind::Ship,
                other => return Err(format!("unknown replacement {other:?}")),
            };
        }
        Ok(v)
    }

    /// A single-core configuration for `policy`, taking `--topology`,
    /// `--replacement`, `--inclusive` and `--seed`.
    fn config(&mut self, policy: PolicyKind) -> Result<SystemConfig, String> {
        let variant = self.variant()?;
        Ok(variant.config(policy, self.seed()?))
    }
}

/// The `N` positional arguments a command needs, or `usage` as the error.
fn exactly<const N: usize>(a: &mut Args, usage: &str) -> Result<[String; N], String> {
    a.positionals().try_into().map_err(|_| usage.to_owned())
}

/// Fails when `SLIP_WARMUP` asks `cmd`, which runs no warmup, for one.
fn no_warmup(cmd: &str, why: &str) -> Result<(), String> {
    match sim_engine::env::warmup() {
        0 => Ok(()),
        n => Err(format!(
            "{cmd} does not read SLIP_WARMUP (set to {n}): {why}"
        )),
    }
}

/// Fails when `SLIP_JOURNAL` is set for `cmd`, which keeps no journal.
fn no_journal(cmd: &str) -> Result<(), String> {
    match sim_engine::env::journal() {
        None => Ok(()),
        Some(_) => Err(format!(
            "{cmd} does not read SLIP_JOURNAL: it keeps no journal (unset the variable)"
        )),
    }
}

fn workload(name: &str) -> Result<workloads::WorkloadSpec, String> {
    workloads::workload(name).ok_or_else(|| format!("unknown workload {name:?} (try `slip list`)"))
}

fn cmd_list(_: &mut Args) -> Result<Job, String> {
    Ok(Box::new(|| {
        println!("built-in workloads (synthetic SPEC-CPU2006-like profiles):");
        for name in workloads::BENCHMARK_NAMES {
            let spec = workloads::workload(name).expect("known");
            println!("  {name:<12} {} phase(s)", spec.phases().len());
        }
        println!("\ntwo-core mixes (paper Figure 16): ");
        for (a, b) in workloads::MULTICORE_MIXES {
            println!("  {a}+{b}");
        }
        Ok(())
    }))
}

fn cmd_run(a: &mut Args) -> Result<Job, String> {
    let [target] = exactly(a, "run needs exactly one workload or trace file")?;
    no_journal(&a.cmd)?;
    let policy = a.policy()?;
    let config = a.config(policy)?;
    let csv = a.value("--csv");
    if target.ends_with(".trc") {
        // A trace file runs whole, so it has no --accesses.
        a.cmd = "`slip run` on a trace file".to_owned();
        no_warmup(&a.cmd, "a trace file runs whole, with no warmup")?;
        return Ok(Box::new(move || {
            let reader = workloads::io::read_trace(&target).map_err(|e| e.to_string())?;
            let mut system = SingleCoreSystem::new(config);
            for access in reader {
                system.step_fast(access.map_err(|e| e.to_string())?);
            }
            print_result(&system.finish(target), 0, csv)
        }));
    }
    let spec = workload(&target)?;
    let accesses = a.accesses()?;
    let warmup = sim_engine::env::warmup();
    Ok(Box::new(move || {
        print_result(
            &run_workload_with_warmup(config, &spec, accesses, warmup),
            warmup,
            csv,
        )
    }))
}

/// `, after a N-access warmup` for a header, or nothing at warmup 0.
fn warmup_note(warmup: u64) -> String {
    match warmup {
        0 => String::new(),
        n => format!(", after a {n}-access warmup"),
    }
}

/// Prints one run's metrics, measured after `warmup` accesses, and
/// writes them to `csv` when given.
fn print_result(r: &SimResult, warmup: u64, csv: Option<String>) -> Result<(), String> {
    println!(
        "workload {}   policy {}   accesses {}{}",
        r.workload,
        r.policy,
        r.accesses,
        warmup_note(warmup)
    );
    println!("cycles {}   IPC {:.3}", r.cycles, r.ipc());
    if let Some(mode) = r.exec_mode {
        println!("exec mode {mode}");
    }
    println!();
    println!("                 L1           L2           L3");
    println!(
        "hit rate    {:>8.1}%    {:>8.1}%    {:>8.1}%",
        r.l1_stats.demand_hit_rate() * 100.0,
        r.l2_stats.demand_hit_rate() * 100.0,
        r.l3_stats.demand_hit_rate() * 100.0
    );
    println!(
        "energy      {:>9}    {:>9}    {:>9}",
        format!("{}", r.l1_energy.total()),
        format!("{}", r.l2_total_energy()),
        format!("{}", r.l3_total_energy())
    );
    println!(
        "movements   {:>9}    {:>9}    {:>9}",
        "-", r.l2_stats.movements, r.l3_stats.movements
    );
    println!(
        "bypasses    {:>9}    {:>9}    {:>9}",
        "-", r.l2_stats.bypasses, r.l3_stats.bypasses
    );
    println!();
    println!(
        "DRAM: {} reads, {} writes, {} metadata transfers, {}",
        r.dram_reads,
        r.dram_writes,
        r.dram_metadata_reads + r.dram_metadata_writes,
        r.dram_energy.total()
    );
    if let Some(m) = r.mmu_stats {
        println!(
            "MMU: {} TLB misses, {} metadata fetches, {} SLIP recomputes, EOU {}",
            m.tlb_misses, m.metadata_fetches, m.slip_recomputes, r.eou_energy
        );
    }
    println!("full-system energy: {}", r.full_system_energy());
    if let Some(path) = csv {
        write_csv(&path, r).map_err(|e| e.to_string())?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn write_csv(path: &str, r: &SimResult) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "metric,value")?;
    writeln!(f, "workload,{}", r.workload)?;
    writeln!(f, "policy,{}", r.policy)?;
    writeln!(f, "accesses,{}", r.accesses)?;
    writeln!(f, "cycles,{}", r.cycles)?;
    writeln!(f, "l1_hit_rate,{}", r.l1_stats.demand_hit_rate())?;
    writeln!(f, "l2_hit_rate,{}", r.l2_stats.demand_hit_rate())?;
    writeln!(f, "l3_hit_rate,{}", r.l3_stats.demand_hit_rate())?;
    writeln!(f, "l2_energy_pj,{}", r.l2_total_energy().as_pj())?;
    writeln!(f, "l3_energy_pj,{}", r.l3_total_energy().as_pj())?;
    writeln!(f, "l2_movements,{}", r.l2_stats.movements)?;
    writeln!(f, "l3_movements,{}", r.l3_stats.movements)?;
    writeln!(f, "l2_bypasses,{}", r.l2_stats.bypasses)?;
    writeln!(f, "l3_bypasses,{}", r.l3_stats.bypasses)?;
    writeln!(f, "dram_reads,{}", r.dram_reads)?;
    writeln!(f, "dram_writes,{}", r.dram_writes)?;
    writeln!(
        f,
        "dram_metadata_transfers,{}",
        r.dram_metadata_reads + r.dram_metadata_writes
    )?;
    writeln!(f, "dram_energy_pj,{}", r.dram_energy.total().as_pj())?;
    writeln!(f, "eou_energy_pj,{}", r.eou_energy.as_pj())?;
    writeln!(
        f,
        "full_system_energy_pj,{}",
        r.full_system_energy().as_pj()
    )?;
    Ok(())
}

/// The built-in benchmark `name`, as the suite grid names it.
fn benchmark(name: &str) -> Result<&'static str, String> {
    let known = workloads::BENCHMARK_NAMES.iter().find(|&&b| b == name);
    known
        .copied()
        .ok_or_else(|| format!("unknown workload {name:?} (try `slip list`)"))
}

fn cmd_compare(a: &mut Args) -> Result<Job, String> {
    let [name] = exactly(a, "compare needs exactly one workload")?;
    no_journal(&a.cmd)?;
    // Every policy runs, so --policy is not taken.
    let options = SuiteOptions {
        benchmarks: vec![benchmark(&name)?],
        accesses: a.accesses()?,
        seed: a.seed()?,
        variant: a.variant()?,
        ..SuiteOptions::paper_full()
    };
    let jobs = a.jobs()?;
    Ok(Box::new(move || {
        println!(
            "workload {name}, {} accesses{}\n",
            options.accesses,
            warmup_note(options.warmup)
        );
        println!(
            "{:<10} {:>12} {:>12} {:>9} {:>9} {:>9} {:>11}",
            "policy", "L2 energy", "L3 energy", "L2 sav", "L3 sav", "speedup", "DRAM xfers"
        );
        // One fused group of the five policy cells, split over the pool.
        let suite = SuiteResults::run_with(options, &SweepConfig::with_jobs(jobs))
            .map_err(|e| e.to_string())?;
        let baseline = suite.baseline(&name);
        for policy in PolicyKind::ALL {
            let r = suite.get(&name, policy);
            println!(
                "{:<10} {:>12} {:>12} {:>8.1}% {:>8.1}% {:>8.2}% {:>11}",
                r.policy.label(),
                format!("{}", r.l2_total_energy()),
                format!("{}", r.l3_total_energy()),
                (1.0 - r.l2_total_energy() / baseline.l2_total_energy()) * 100.0,
                (1.0 - r.l3_total_energy() / baseline.l3_total_energy()) * 100.0,
                (r.speedup_vs(baseline) - 1.0) * 100.0,
                r.dram_total_traffic(),
            );
        }
        Ok(())
    }))
}

fn cmd_sweep(a: &mut Args) -> Result<Job, String> {
    let mut benchmarks = Vec::new();
    for n in a.positionals() {
        benchmarks.push(benchmark(&n)?);
    }
    if benchmarks.is_empty() {
        benchmarks = workloads::BENCHMARK_NAMES.to_vec();
    }
    let accesses = a.accesses()?;
    let mut options = SuiteOptions::paper_full()
        .with_benchmarks(&benchmarks)
        .with_accesses(accesses)
        .with_seed(a.seed()?);
    options.variant.topology = a.topology()?;
    let jobs = a.jobs()?;
    let journal = a
        .value("--journal")
        .map(PathBuf::from)
        .or_else(sim_engine::env::journal);
    Ok(Box::new(move || {
        let sweep = SweepConfig {
            journal: journal.clone(),
            quiet: false,
            // Ctrl-C stops dispatching cells and seals the journal so a
            // re-run resumes instead of starting over.
            cancel: Some(sweep_runner::interrupt::install()),
            ..SweepConfig::with_jobs(jobs)
        };
        let suite = SuiteResults::run_with(options, &sweep).map_err(|e| {
            if e.kind() == std::io::ErrorKind::Interrupted {
                "sweep interrupted; re-run with the same options to resume".to_owned()
            } else {
                format!("journal: {e}")
            }
        })?;
        let mut t = Table::new(
            format!("energy savings vs baseline ({accesses} accesses/benchmark, {jobs} jobs)"),
            &[
                "benchmark",
                "SLIP L2",
                "SLIP L3",
                "SLIP+ABP L2",
                "SLIP+ABP L3",
            ],
        );
        for &bench in suite.benchmarks() {
            t.row(vec![
                bench.to_owned(),
                pct(suite.l2_saving(bench, PolicyKind::Slip)),
                pct(suite.l3_saving(bench, PolicyKind::Slip)),
                pct(suite.l2_saving(bench, PolicyKind::SlipAbp)),
                pct(suite.l3_saving(bench, PolicyKind::SlipAbp)),
            ]);
        }
        let [slip, abp] = [PolicyKind::Slip, PolicyKind::SlipAbp].map(|p| suite.mean_saving(p));
        t.row(vec![
            "mean".to_owned(),
            pct(slip.0),
            pct(slip.1),
            pct(abp.0),
            pct(abp.1),
        ]);
        print!("{}", t.render());
        if let Some(j) = &journal {
            println!("journal: {}", j.display());
        }
        Ok(())
    }))
}

fn cmd_mix(a: &mut Args) -> Result<Job, String> {
    if a.switch("--inclusive") {
        return Err(
            "`slip mix` does not take --inclusive: the two-core system models a \
             non-inclusive LLC"
                .to_owned(),
        );
    }
    no_warmup(&a.cmd, "a two-core mix runs without warmup")?;
    no_journal(&a.cmd)?;
    let [name_a, name_b] = exactly(a, "mix needs exactly two workloads")?;
    let spec_a = workload(&name_a)?;
    let spec_b = workload(&name_b)?;
    let accesses = a.accesses()?;
    let policy = a.policy()?;
    let base_cfg = a.config(PolicyKind::Baseline)?;
    let mut slip_cfg = base_cfg.clone();
    slip_cfg.policy = policy;
    Ok(Box::new(move || {
        let base = run_mix(base_cfg, &spec_a, &spec_b, accesses);
        let slip = run_mix(slip_cfg, &spec_a, &spec_b, accesses);
        println!("mix {name_a}+{name_b}, {accesses} accesses/core, shared 2 MB L3");
        println!(
            "L3 energy: baseline {} -> {} {} ({:+.1}%)",
            base.l3_energy,
            policy.label(),
            slip.l3_energy,
            (slip.l3_energy / base.l3_energy - 1.0) * 100.0
        );
        println!(
            "L2+L3 energy: {} -> {} ({:+.1}%)",
            base.l2_plus_l3_energy(),
            slip.l2_plus_l3_energy(),
            (slip.l2_plus_l3_energy() / base.l2_plus_l3_energy() - 1.0) * 100.0
        );
        println!(
            "DRAM traffic: {} -> {} ({:+.1}%)",
            base.dram_demand_traffic,
            slip.dram_total_traffic,
            (slip.dram_total_traffic as f64 / base.dram_demand_traffic as f64 - 1.0) * 100.0
        );
        Ok(())
    }))
}

fn cmd_record(a: &mut Args) -> Result<Job, String> {
    let [name, out] = exactly(a, "record needs a workload and an output path")?;
    no_journal(&a.cmd)?;
    let spec = workload(&name)?;
    let accesses = a.accesses()?;
    let seed = a.seed()?;
    Ok(Box::new(move || {
        let n = workloads::io::write_trace(&out, spec.trace(accesses, seed))
            .map_err(|e| e.to_string())?;
        println!("wrote {n} accesses to {out}");
        Ok(())
    }))
}

/// Regression bound for `slip bench --check`: fail when the fresh
/// suite throughput drops more than this fraction below the baseline.
const BENCH_REGRESSION_TOLERANCE: f64 = 0.20;

fn cmd_bench(a: &mut Args) -> Result<Job, String> {
    let quick = a.switch("--quick");
    let out = a.value("--out");
    // The baseline loads here, so a missing or malformed file fails
    // before any replay.
    let check = match a.value("--check") {
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            let baseline = Value::parse(&text).map_err(|e| format!("parsing {path}: {e:?}"))?;
            Some((bench_baseline_rate(&baseline, quick)?, path))
        }
        None => None,
    };
    Ok(Box::new(move || {
        println!("slip bench ({} mode)", if quick { "quick" } else { "full" });
        let report = sim_engine::bench::run(quick);
        println!();
        for s in &report.systems {
            println!(
                "{:<40} {:>9.0} kacc/s ({} x {} accesses in {:.3}s)",
                s.name,
                s.accesses_per_sec / 1e3,
                s.replays,
                s.accesses,
                s.sample_secs
            );
        }
        println!(
            "{:<40} {:>9.0} kacc/s (geometric mean)",
            "suite",
            report.suite_accesses_per_sec / 1e3
        );
        if let Some(path) = &out {
            std::fs::write(path, report.to_value().to_json() + "\n")
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("\nwrote {path}");
        }
        if let Some((base_rate, path)) = &check {
            let current = report.suite_accesses_per_sec;
            let floor = bench_check_verdict(current, *base_rate)?;
            println!(
                "\ncheck vs {path}: current {:.0} kacc/s, baseline {:.0} kacc/s (floor {:.0})",
                current / 1e3,
                base_rate / 1e3,
                floor / 1e3
            );
            println!("check OK");
        }
        Ok(())
    }))
}

/// The suite rate a `slip bench --check` baseline records for the mode.
fn bench_baseline_rate(baseline: &Value, quick: bool) -> Result<f64, String> {
    sim_engine::bench::baseline_suite_rate(baseline, quick)
        .ok_or_else(|| "baseline has no suite_accesses_per_sec".to_owned())
}

/// The `slip bench --check` rule, isolated for testing: `current` must
/// stay within [`BENCH_REGRESSION_TOLERANCE`] of the baseline's suite
/// rate `base_rate`. Returns the floor on success.
fn bench_check_verdict(current: f64, base_rate: f64) -> Result<f64, String> {
    let floor = base_rate * (1.0 - BENCH_REGRESSION_TOLERANCE);
    if current < floor {
        return Err(format!(
            "throughput regression: {:.0} kacc/s is more than {:.0}% below the \
             baseline {:.0} kacc/s",
            current / 1e3,
            BENCH_REGRESSION_TOLERANCE * 100.0,
            base_rate / 1e3
        ));
    }
    Ok(floor)
}

fn cmd_check(a: &mut Args) -> Result<Job, String> {
    no_journal(&a.cmd)?;
    let full = a.switch("--full");
    if a.switch("--quick") && full {
        return Err("`slip check` takes --quick or --full, not both".to_owned());
    }
    let seed = a.seed()?;
    let mut opts = if full {
        slip_conformance::FuzzOptions::full(seed)
    } else {
        slip_conformance::FuzzOptions::quick(seed)
    };
    // Budget precedence: --iters beats SLIP_FUZZ_ITERS beats the mode
    // default, so CI can pin a deterministic budget in one place.
    if let Some(n) = a.parsed("--iters")?.or_else(sim_engine::env::fuzz_iters) {
        opts.iters = n;
    }
    if let Some(n) = a.parsed("--max-len")? {
        opts.max_len = n;
    }
    // Resolve the spec up front: a malformed file must fail fast with
    // the parser's line/column diagnostic, not after minutes of fuzz.
    let topology_spec = a.topology()?;
    // The oracle's sweep is the only phase with a length and a pool.
    let oracle = if a.switch("--oracle") {
        Some((a.accesses()?, a.jobs()?))
    } else {
        a.cmd = "`slip check` without --oracle".to_owned();
        None
    };
    Ok(Box::new(move || {
        let phases = 2 + u32::from(oracle.is_some());
        println!(
            "slip check ({} mode, seed {seed:#x}, {} fuzz iterations, max trace {})",
            if full { "full" } else { "quick" },
            opts.iters,
            opts.max_len
        );

        println!("[1/{phases}] differential fuzz: reference vs optimized paths");
        let divergences = slip_conformance::run_fuzz(&opts);
        for d in &divergences {
            println!("{d}");
        }

        println!("[2/{phases}] executable invariants");
        let invariant_len = if full { 20_000 } else { 5_000 };
        let mut violations = slip_conformance::run_invariant_sweep(seed, invariant_len, opts.quiet);
        if let Some(spec) = &topology_spec {
            // Hold the user's spec to the same bar as the built-ins (which
            // the sweep above already covered).
            println!("  topology {}: run-mode determinism", spec.name);
            if let Err(v) =
                slip_conformance::check_spec_determinism(spec, invariant_len, opts.quiet)
            {
                violations.push(v);
            }
        }
        for v in &violations {
            println!("{v}");
        }

        let mut oracle_failures = 0;
        if let Some((accesses, jobs)) = oracle {
            println!("[3/{phases}] figure oracle at {accesses} accesses/benchmark");
            let report = slip_conformance::run_oracle(accesses, &SweepConfig::with_jobs(jobs))
                .map_err(|e| format!("oracle sweep: {e}"))?;
            print!("{report}");
            oracle_failures = report.failures().len();
        }

        println!(
            "slip check: {} divergence(s), {} invariant violation(s){}",
            divergences.len(),
            violations.len(),
            if oracle.is_some() {
                format!(", {oracle_failures} oracle failure(s)")
            } else {
                String::new()
            }
        );
        if divergences.is_empty() && violations.is_empty() && oracle_failures == 0 {
            println!("check OK");
            Ok(())
        } else {
            Err("conformance check failed (details above)".to_owned())
        }
    }))
}

/// Default loopback endpoint shared by `slip serve` and `slip submit`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7511";

fn cmd_serve(a: &mut Args) -> Result<Job, String> {
    let mut config = slip_serve::ServerConfig::new("slip-serve-journals");
    config.addr = a
        .value("--addr")
        .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_owned());
    config.jobs = a.jobs()?;
    if let Some(dir) = a.value("--journal-dir") {
        config.journal_dir = PathBuf::from(dir);
    }
    config.quiet = a.switch("--quiet");
    let port_file = a.value("--port-file").map(PathBuf::from);
    Ok(Box::new(move || {
        let server = slip_serve::Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        if let Some(path) = port_file {
            // Scripts bind port 0 and read the real endpoint back from here.
            std::fs::write(&path, format!("{}\n", server.local_addr()))
                .map_err(|e| format!("--port-file: {e}"))?;
        }
        server.run().map_err(|e| format!("serve: {e}"))
    }))
}

fn cmd_submit(a: &mut Args) -> Result<Job, String> {
    let connect = a
        .value("--connect")
        .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_owned());
    if a.switch("--stats") {
        a.cmd = "`slip submit --stats`".to_owned();
        return Ok(Box::new(move || {
            let value = slip_serve::client::stats(&connect).map_err(|e| format!("stats: {e}"))?;
            println!("{}", value.to_json());
            Ok(())
        }));
    }
    if a.switch("--shutdown") {
        a.cmd = "`slip submit --shutdown`".to_owned();
        return Ok(Box::new(move || {
            slip_serve::client::shutdown(&connect).map_err(|e| format!("shutdown: {e}"))?;
            eprintln!("server at {connect} is draining");
            Ok(())
        }));
    }
    let quiet = a.switch("--quiet");
    if let Some(run_id) = a.value("--resume") {
        // A resumed run's spec lives on the server: no spec flags, and
        // nothing to verify offline.
        a.cmd = "`slip submit --resume`".to_owned();
        let ack = a.parsed("--ack")?.unwrap_or(0);
        return Ok(Box::new(move || {
            let stream = slip_serve::client::resume(&connect, &run_id, ack)
                .map_err(|e| format!("resume: {e}"))?;
            stream_cells(stream, quiet).map(drop)
        }));
    }
    let mut spec = slip_serve::SweepSpec {
        benchmarks: a.positionals(),
        policies: a.take("--policy").into_iter().flatten().collect(),
        accesses: a.accesses()?,
        warmup: a.parsed("--warmup")?.unwrap_or(0),
        topology: None,
    };
    if let Some(arg) = a.value("--topology").or_else(sim_engine::env::topology) {
        // The server never reads client file paths: built-in node names
        // travel as-is, anything else is loaded locally (failing fast
        // on malformed specs) and sent as canonical spec text.
        spec.topology = Some(if energy_model::BUILTIN_NAMES.contains(&arg.as_str()) {
            arg
        } else {
            energy_model::HierarchySpec::load(&arg)?.format()
        });
    }
    // Validate locally first: a typo should not cost a round trip.
    let options = spec.suite_options()?;
    let verify_offline = a.switch("--verify-offline");
    Ok(Box::new(move || {
        let stream =
            slip_serve::client::submit(&connect, &spec).map_err(|e| format!("submit: {e}"))?;
        let cells = stream_cells(stream, quiet)?;
        if !verify_offline {
            return Ok(());
        }
        let mut sweep = SweepConfig::with_jobs(sim_engine::env::jobs());
        sweep.quiet = true;
        let offline = SuiteResults::run_with(options.clone(), &sweep)
            .map_err(|e| format!("offline sweep: {e}"))?;
        let mut index = 0usize;
        for &bench in &options.benchmarks {
            for &policy in &options.policies {
                let key = options.cell_key(bench, policy);
                let expected = sim_engine::codec::encode_result(offline.get(bench, policy));
                let (_, got_key, got) = &cells[index];
                if got_key != &key || got.to_json() != expected.to_json() {
                    return Err(format!(
                        "cell {key} differs between server and offline sweep"
                    ));
                }
                index += 1;
            }
        }
        if !quiet {
            eprintln!("verified: {index} cells bit-identical to offline sweep");
        }
        Ok(())
    }))
}

/// Prints a run's cells to stdout, one JSON line each, and returns
/// them; progress goes to stderr unless `quiet`, so the stream pipes
/// cleanly into files or other tools.
fn stream_cells(
    mut stream: slip_serve::client::RunStream,
    quiet: bool,
) -> Result<Vec<(u64, String, Value)>, String> {
    if !quiet {
        eprintln!(
            "run {} ({} cells, from {}{})",
            stream.run_id,
            stream.cells,
            stream.from,
            if stream.joined { ", joined" } else { "" }
        );
    }
    let mut cells = Vec::new();
    while let Some((index, key, payload)) = stream.next_cell().map_err(|e| {
        format!(
            "stream: {e} (resume with: slip submit --resume {} --ack {})",
            stream.run_id,
            cells.len() as u64 + stream.from
        )
    })? {
        println!(
            "{}",
            Value::object()
                .with("index", Value::u64(index))
                .with("key", Value::str(&key))
                .with("payload", payload.clone())
                .to_json()
        );
        cells.push((index, key, payload));
    }
    let done = stream.done().expect("stream ended without done frame");
    if !quiet {
        eprintln!(
            "done: {} cells ({} executed, {} restored)",
            cells.len(),
            done.executed,
            done.restored
        );
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    /// `slip sweep` arguments, split.
    fn args(v: &[&str]) -> Args {
        Args::parse("sweep", &s(v)).unwrap()
    }

    /// The argument error `slip <argv>` fails with; nothing runs.
    fn rejected(argv: &[&str]) -> String {
        match dispatch(&s(argv)) {
            Ok(_) => panic!("{argv:?} was accepted"),
            Err(e) => e,
        }
    }

    #[test]
    fn parses_defaults() {
        let mut a = args(&["gcc"]);
        assert_eq!(a.positionals(), vec!["gcc"]);
        assert_eq!(a.policy().unwrap(), PolicyKind::SlipAbp);
        assert_eq!(a.accesses().unwrap(), 1_000_000);
        assert_eq!(a.seed().unwrap(), 0x511b);
        assert!(!a.switch("--inclusive"));
        assert!(a.value("--csv").is_none());
        assert!(a.jobs().unwrap() >= 1);
        let c = a.config(PolicyKind::Slip).unwrap();
        assert_eq!(c.replacement, ReplacementKind::Lru);
        assert!(!c.inclusive_llc);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn parses_all_options() {
        let mut a = args(&[
            "soplex",
            "--policy",
            "nurapid",
            "--accesses",
            "5000",
            "--seed",
            "0xff",
            "--replacement",
            "drrip",
            "--inclusive",
            "--csv",
            "out.csv",
            "--jobs",
            "3",
            "--journal",
            "run.jsonl",
        ]);
        assert_eq!(a.policy().unwrap(), PolicyKind::NuRapid);
        assert_eq!(a.accesses().unwrap(), 5000);
        let c = a.config(PolicyKind::NuRapid).unwrap();
        assert_eq!(c.seed, 0xff);
        assert_eq!(c.replacement, ReplacementKind::Drrip);
        assert!(c.inclusive_llc);
        assert_eq!(a.value("--csv").as_deref(), Some("out.csv"));
        assert_eq!(a.jobs().unwrap(), 3);
        assert_eq!(a.value("--journal").as_deref(), Some("run.jsonl"));
        assert_eq!(a.positionals(), vec!["soplex"]);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn repeated_flags_keep_every_value_and_the_last_wins() {
        let mut a = args(&[
            "--policy",
            "slip",
            "--accesses",
            "1",
            "--policy",
            "baseline",
        ]);
        assert_eq!(a.accesses().unwrap(), 1);
        let policies: Vec<String> = a.take("--policy").into_iter().flatten().collect();
        assert_eq!(policies, ["slip", "baseline"]);
        assert!(a.finish().is_ok());
        let mut a = args(&["--accesses", "1", "--accesses", "2"]);
        assert_eq!(a.accesses().unwrap(), 2);
    }

    #[test]
    fn finish_names_the_command_and_the_untaken_flag() {
        let mut a = args(&["gcc", "--csv", "out.csv", "--accesses", "10"]);
        a.positionals();
        a.accesses().unwrap();
        assert_eq!(a.finish().unwrap_err(), "`slip sweep` does not take --csv");
        // A switch, and a positional, are rejected the same way.
        assert_eq!(
            args(&["--inclusive"]).finish().unwrap_err(),
            "`slip sweep` does not take --inclusive"
        );
        assert_eq!(
            args(&["gcc"]).finish().unwrap_err(),
            "`slip sweep` does not take \"gcc\""
        );
    }

    #[test]
    fn flags_are_taken_only_where_they_act() {
        for (argv, err) in [
            (
                &["sweep", "gcc", "--csv", "x.csv"][..],
                "`slip sweep` does not take --csv",
            ),
            (
                &["sweep", "gcc", "--policy", "slip"],
                "`slip sweep` does not take --policy",
            ),
            (
                &["compare", "gcc", "--journal", "j"],
                "`slip compare` does not take --journal",
            ),
            (
                &["mix", "gcc", "lbm", "--jobs", "2"],
                "`slip mix` does not take --jobs",
            ),
            (
                &["record", "gcc", "x.trc", "--topology", "22nm"],
                "`slip record` does not take --topology",
            ),
            (
                &["run", "x.trc", "--accesses", "5"],
                "`slip run` on a trace file does not take --accesses",
            ),
            (
                &["check", "--jobs", "2"],
                "`slip check` without --oracle does not take --jobs",
            ),
            (&["list", "--seed", "1"], "`slip list` does not take --seed"),
            (&["list", "gcc"], "`slip list` does not take \"gcc\""),
            (
                &["bench", "--seed", "1"],
                "`slip bench` does not take --seed",
            ),
            (&["serve", "--csv", "x"], "`slip serve` does not take --csv"),
            (
                &["submit", "--stats", "--quiet"],
                "`slip submit --stats` does not take --quiet",
            ),
            (
                &["submit", "--stats", "--shutdown"],
                "`slip submit --stats` does not take --shutdown",
            ),
            (
                &["submit", "--resume", "r", "--verify-offline"],
                "`slip submit --resume` does not take --verify-offline",
            ),
            (
                &["submit", "--resume", "r", "--accesses", "5"],
                "`slip submit --resume` does not take --accesses",
            ),
            (
                &["submit", "gcc", "--ack", "3"],
                "`slip submit` does not take --ack",
            ),
        ] {
            assert_eq!(rejected(argv), err, "{argv:?}");
        }
        // The same flags are taken where they act.
        assert!(dispatch(&s(&["check", "--oracle", "--jobs", "2", "--accesses", "5"])).is_ok());
        assert!(dispatch(&s(&["run", "gcc", "--accesses", "5", "--csv", "x.csv"])).is_ok());
        assert!(dispatch(&s(&["submit", "--resume", "r", "--ack", "3", "--quiet"])).is_ok());
    }

    #[test]
    fn policy_accepts_report_labels_too() {
        assert_eq!(
            args(&["--policy", "SLIP+ABP"]).policy().unwrap(),
            PolicyKind::SlipAbp
        );
        assert_eq!(
            args(&["--policy", "LRU-PEA"]).policy().unwrap(),
            PolicyKind::LruPea
        );
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        for argv in [&["--bogus"][..], &["--csv"], &["--journal"], &["--policy"]] {
            assert!(Args::parse("run", &s(argv)).is_err(), "{argv:?}");
        }
        assert!(args(&["--policy", "magic"]).policy().is_err());
        assert!(args(&["--accesses", "many"]).accesses().is_err());
        assert!(args(&["--jobs", "few"]).jobs().is_err());
        assert!(args(&["--replacement", "fifo"])
            .config(PolicyKind::Slip)
            .is_err());
        // A pool needs a worker: --jobs 0 is an error, not a clamp.
        let err = args(&["--jobs", "0"]).jobs().unwrap_err();
        assert!(err.contains("at least one worker"), "{err}");
        assert!(rejected(&["sweep", "gcc", "--jobs", "0"]).contains("--jobs"));
        assert!(rejected(&["check", "--quick", "--full"]).contains("--full"));
    }

    /// The error a retired flag spelling produces on `argv`, which must
    /// fail at parse time — before any simulation — naming the
    /// `replacement`.
    fn retired_error(argv: &[&str], replacement: &str) -> String {
        let err = rejected(argv);
        assert!(err.contains("no longer supported"), "{argv:?}: {err}");
        assert!(err.contains(replacement), "{argv:?}: {err}");
        err
    }

    #[test]
    fn rejects_non_power_of_two_shards_at_parse_time() {
        // Set sharding is gone: every --shards value fails at parse time.
        for n in ["0", "3", "1", "2", "64"] {
            let err = Args::parse("run", &s(&["--shards", n]))
                .map(|_| ())
                .unwrap_err();
            assert!(
                err.contains("fused benchmark groups"),
                "--shards {n}: {err}"
            );
        }
    }

    #[test]
    fn run_rejects_retired_trace_mode() {
        retired_error(&["run", "gcc", "--trace-mode", "fused"], "--jobs");
    }

    #[test]
    fn run_rejects_retired_shards() {
        retired_error(&["run", "gcc", "--shards", "2"], "--jobs");
    }

    #[test]
    fn sweep_rejects_retired_trace_mode() {
        let err = retired_error(&["sweep", "gcc", "--trace-mode", "shared"], "--jobs");
        assert!(err.contains("fused benchmark groups"), "{err}");
    }

    #[test]
    fn sweep_rejects_retired_shards() {
        let err = retired_error(&["sweep", "gcc", "--shards", "2"], "--jobs");
        assert!(err.contains("fused benchmark groups"), "{err}");
    }

    #[test]
    fn sweep_rejects_retired_trace_cache_mb() {
        let err = retired_error(
            &["sweep", "gcc", "--trace-cache-mb", "64"],
            "no cache budget",
        );
        assert!(err.contains("slip serve"), "{err}");
    }

    #[test]
    fn serve_rejects_retired_trace_mode() {
        retired_error(
            &["serve", "--addr", "127.0.0.1:0", "--trace-mode", "fused"],
            "--jobs",
        );
    }

    #[test]
    fn serve_rejects_retired_shards() {
        retired_error(
            &["serve", "--addr", "127.0.0.1:0", "--shards", "2"],
            "--jobs",
        );
    }

    #[test]
    fn serve_rejects_retired_trace_cache_mb() {
        let err = retired_error(
            &["serve", "--addr", "127.0.0.1:0", "--trace-cache-mb", "64"],
            "no cache budget",
        );
        assert!(err.contains("stream every benchmark's trace"), "{err}");
    }

    #[test]
    fn topology_option_resolves_builtins_and_rejects_garbage() {
        let spec = args(&["--topology", "stt-llc"])
            .topology()
            .unwrap()
            .unwrap();
        assert_eq!(spec.name, "stt-llc");
        // from_topology honors the spec's asymmetric LLC energies.
        let c = args(&["--topology", "stt-llc"])
            .config(PolicyKind::SlipAbp)
            .unwrap();
        assert_eq!(c.tech.name, "stt-llc");
        // Unknown names / missing files surface as CLI errors.
        let bad = || args(&["--topology", "no-such-node-or-file"]);
        assert!(bad().topology().is_err());
        assert!(bad().config(PolicyKind::SlipAbp).is_err());
        // A malformed file is rejected with a line/column diagnostic.
        let mut path = std::env::temp_dir();
        path.push(format!("slip-cli-topo-{}.topo", std::process::id()));
        std::fs::write(&path, "node broken\nwire 0.16\n").unwrap();
        let err = args(&["--topology", path.to_str().unwrap()])
            .topology()
            .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn check_accepts_topology_and_rejects_bad_values() {
        rejected(&["check", "--topology"]);
        rejected(&["check", "--topology", "no-such-node"]);
        assert!(dispatch(&s(&["check", "--topology", "stt-llc"])).is_ok());
    }

    #[test]
    fn mix_rejects_inclusive() {
        let err = rejected(&["mix", "gcc", "lbm", "--accesses", "1000", "--inclusive"]);
        assert!(
            err.contains("the two-core system models a non-inclusive LLC"),
            "{err}"
        );
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        rejected(&["frobnicate"]);
        rejected(&[]);
    }

    #[test]
    fn sweep_rejects_unknown_benchmarks() {
        rejected(&["sweep", "not-a-bench", "--accesses", "1000"]);
    }

    #[test]
    fn bench_rejects_bad_options_before_running() {
        rejected(&["bench", "--bogus"]);
        rejected(&["bench", "--out"]);
        rejected(&["bench", "--check"]);
        rejected(&["bench", "extra"]);
    }

    #[test]
    fn decimal_seed_parses() {
        assert_eq!(args(&["--seed", "123"]).seed().unwrap(), 123);
        assert!(args(&["--seed", "0xzz"]).seed().is_err());
    }

    fn baseline_json(text: &str) -> Value {
        Value::parse(text).unwrap()
    }

    #[test]
    fn bench_check_passes_inside_the_tolerance_band() {
        let baseline = baseline_json(r#"{"suite_accesses_per_sec": 1000000.0}"#);
        let base = bench_baseline_rate(&baseline, false).unwrap();
        assert_eq!(base, 1_000_000.0);
        // 20% tolerance: the floor is 800k.
        assert_eq!(bench_check_verdict(900_000.0, base), Ok(800_000.0));
        // Exactly at the floor still passes; faster than baseline too.
        assert!(bench_check_verdict(800_000.0, base).is_ok());
        assert!(bench_check_verdict(2_000_000.0, base).is_ok());
    }

    #[test]
    fn bench_check_fails_below_the_tolerance_band() {
        let err = bench_check_verdict(799_999.0, 1_000_000.0).unwrap_err();
        assert!(err.contains("regression"), "{err}");
    }

    #[test]
    fn bench_check_reads_the_mode_matching_section() {
        // Nested report shape: --quick baselines live under after_quick.
        let baseline = baseline_json(
            r#"{"after": {"suite_accesses_per_sec": 1000000.0},
                "after_quick": {"suite_accesses_per_sec": 100000.0}}"#,
        );
        assert_eq!(bench_baseline_rate(&baseline, true), Ok(100_000.0));
        assert_eq!(bench_baseline_rate(&baseline, false), Ok(1_000_000.0));
    }

    #[test]
    fn bench_check_rejects_baselines_without_a_suite_rate() {
        let baseline = baseline_json(r#"{"kernels": []}"#);
        let err = bench_baseline_rate(&baseline, false).unwrap_err();
        assert!(err.contains("suite_accesses_per_sec"), "{err}");
    }

    #[test]
    fn bench_rejects_retired_tolerance() {
        // The flag fails at parse time, before any kernel runs.
        retired_error(&["bench", "--quick", "--tolerance", "50"], "fixed at 20%");
        // The variable fails the same way, through `env::check`.
        // Setting it here would race the env reads of concurrent tests,
        // so that half runs in a child copy of this test binary.
        if std::env::var_os("SLIP_BENCH_TOL").is_some() {
            let err = rejected(&["bench", "--quick"]);
            assert!(err.starts_with("SLIP_BENCH_TOL="), "{err}");
            assert!(err.contains("fixed at 20%"), "{err}");
            return;
        }
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::bench_rejects_retired_tolerance"])
            .env("SLIP_BENCH_TOL", "50")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "{stdout}");
        assert!(stdout.contains("1 passed"), "{stdout}");
    }

    #[test]
    fn check_rejects_bad_options_before_running() {
        rejected(&["check", "--bogus"]);
        rejected(&["check", "--iters"]);
        rejected(&["check", "--iters", "many"]);
        rejected(&["check", "--seed", "0xzz"]);
        rejected(&["check", "--max-len", "long"]);
        rejected(&["check", "extra"]);
    }
}
