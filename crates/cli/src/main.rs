//! `slip` — command-line driver for the SLIP cache-energy simulator.
//!
//! ```text
//! slip list                                  the built-in workloads
//! slip run <workload|file.trc> [options]     one simulation, full metrics
//! slip compare <workload> [options]          all five policies side by side
//! slip sweep [workload ...] [options]        benchmark x policy grid, parallel
//! slip mix <bench_a> <bench_b> [options]     two cores, shared L3
//! slip record <workload> <out.trc> [options] dump a synthetic trace
//! slip bench [--quick] [--out b.json] [--check BENCH.json]
//!                                            throughput gate: four system
//!                                            replays, fixed 20% bound
//! slip check [--full] [--oracle] [--iters N] [--seed S] [--max-len N]
//!                                            conformance: differential fuzz +
//!                                            invariants (+ figure oracle)
//!
//! options:
//!   --policy <baseline|nurapid|lru-pea|slip|slip-abp>   (default slip-abp)
//!   --accesses <N>                                      (default 1000000)
//!   --seed <N>                                          (default 0x511b)
//!   --replacement <lru|drrip|ship>                      (default lru)
//!   --inclusive                                         model an inclusive LLC
//!                                                       (not `slip mix`)
//!   --csv <path>                                        also write metrics as CSV
//!   --jobs <N>          sweep/compare workers; a sweep runs each
//!                       benchmark's policy cells as one fused group
//!                       (one pass over its trace), split in half until
//!                       every worker has a group
//!                                                       (default SLIP_JOBS or all cores)
//!   --journal <path>    JSONL run journal; a re-run with the same
//!                       options resumes, skipping completed cells
//!                                                       (default SLIP_JOURNAL)
//!   --topology <node|file>  hierarchy spec: a built-in technology node
//!                       (45nm, 22nm, stt-llc) or a spec file giving
//!                       per-level geometry and read/write/insertion
//!                       energies; malformed files are rejected with
//!                       line/column diagnostics
//!                                                       (default SLIP_TOPOLOGY or built-in 45 nm)
//! ```

use sim_engine::config::{PolicyKind, ReplacementKind, SystemConfig};
use sim_engine::experiments::{SuiteOptions, SuiteResults};
use sim_engine::multicore::run_mix;
use sim_engine::report::{pct, Table};
use sim_engine::system::run_workload;
use sim_engine::{SimResult, SingleCoreSystem, SweepConfig};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  slip list
  slip run <workload|file.trc> [--policy P] [--accesses N] [--seed S]
           [--replacement R] [--inclusive] [--csv out.csv]
           [--topology NODE|FILE]
  slip compare <workload> [--accesses N] [--seed S] [--jobs N]
               [--topology NODE|FILE]
  slip sweep [workload ...] [--accesses N] [--jobs N]
             [--journal run.jsonl] [--topology NODE|FILE]
  slip mix <bench_a> <bench_b> [--accesses N] [--seed S]
  slip record <workload> <out.trc> [--accesses N] [--seed S]
  slip bench [--quick] [--out bench.json] [--check BENCH_9.json]
  slip check [--quick|--full] [--oracle] [--iters N] [--seed S] [--max-len N]
             [--accesses N] [--jobs N] [--topology NODE|FILE]
  slip serve [--addr HOST:PORT] [--jobs N] [--journal-dir DIR]
             [--port-file FILE] [--quiet]
  slip submit [workload ...] [--policy P]... [--accesses N] [--warmup N]
              [--topology NODE|FILE] [--connect HOST:PORT] [--verify-offline]
              [--quiet]
  slip submit --resume RUN_ID [--ack N] [--connect HOST:PORT]
  slip submit --stats|--shutdown [--connect HOST:PORT]";

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("mix") => cmd_mix(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("no command given".to_owned()),
    }
}

/// Parsed common options.
struct Options {
    positional: Vec<String>,
    policy: PolicyKind,
    replacement: ReplacementKind,
    accesses: u64,
    seed: u64,
    inclusive: bool,
    csv: Option<String>,
    jobs: usize,
    journal: Option<PathBuf>,
    topology: Option<String>,
}

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

fn parse_options(args: &[String]) -> Result<Options, String> {
    sim_engine::env::check_retired()?;
    let mut o = Options {
        positional: Vec::new(),
        policy: PolicyKind::SlipAbp,
        replacement: ReplacementKind::Lru,
        accesses: 1_000_000,
        seed: 0x511b,
        inclusive: false,
        csv: None,
        jobs: sim_engine::env::jobs(),
        journal: sim_engine::env::journal(),
        topology: sim_engine::env::topology(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--policy" => {
                let v = value("--policy")?;
                o.policy = PolicyKind::parse(&v).ok_or_else(|| format!("unknown policy {v:?}"))?;
            }
            "--replacement" => {
                o.replacement = match value("--replacement")?.as_str() {
                    "lru" => ReplacementKind::Lru,
                    "drrip" => ReplacementKind::Drrip,
                    "ship" => ReplacementKind::Ship,
                    other => return Err(format!("unknown replacement {other:?}")),
                }
            }
            "--accesses" => {
                o.accesses = value("--accesses")?
                    .parse()
                    .map_err(|e| format!("--accesses: {e}"))?
            }
            "--seed" => {
                let v = value("--seed")?;
                o.seed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).map_err(|e| format!("--seed: {e}"))?
                } else {
                    v.parse().map_err(|e| format!("--seed: {e}"))?
                }
            }
            "--inclusive" => o.inclusive = true,
            "--csv" => o.csv = Some(value("--csv")?),
            "--jobs" => {
                o.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--journal" => o.journal = Some(PathBuf::from(value("--journal")?)),
            "--topology" => o.topology = Some(value("--topology")?),
            other if other.starts_with("--") => {
                return Err(
                    retired_flag(other).unwrap_or_else(|| format!("unknown option {other:?}"))
                )
            }
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

/// Resolves the `--topology` argument (or `SLIP_TOPOLOGY`) into a
/// parsed, validated hierarchy spec; `None` means the compiled-in
/// 45 nm configuration. Malformed files fail here with the parser's
/// line/column diagnostic.
fn load_topology(o: &Options) -> Result<Option<energy_model::HierarchySpec>, String> {
    o.topology
        .as_deref()
        .map(energy_model::HierarchySpec::load)
        .transpose()
}

fn config_from(o: &Options) -> Result<SystemConfig, String> {
    let mut c = match load_topology(o)? {
        Some(spec) => SystemConfig::from_topology(&spec, o.policy)?,
        None => SystemConfig::paper_45nm(o.policy),
    };
    c.replacement = o.replacement;
    c.inclusive_llc = o.inclusive;
    c.seed = o.seed;
    Ok(c)
}

fn cmd_list() -> Result<(), String> {
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
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let [target] = o.positional.as_slice() else {
        return Err("run needs exactly one workload or trace file".to_owned());
    };
    let result = if target.ends_with(".trc") {
        let reader = workloads::io::read_trace(target).map_err(|e| e.to_string())?;
        let mut system = SingleCoreSystem::new(config_from(&o)?);
        for access in reader {
            system.step_fast(access.map_err(|e| e.to_string())?);
        }
        system.finish(target.clone())
    } else {
        let spec = workloads::workload(target)
            .ok_or_else(|| format!("unknown workload {target:?} (try `slip list`)"))?;
        run_workload(config_from(&o)?, &spec, o.accesses)
    };
    print_result(&result);
    if let Some(path) = &o.csv {
        write_csv(path, &result).map_err(|e| e.to_string())?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn print_result(r: &SimResult) {
    println!(
        "workload {}   policy {}   accesses {}",
        r.workload, r.policy, r.accesses
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

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let [name] = o.positional.as_slice() else {
        return Err("compare needs exactly one workload".to_owned());
    };
    let spec = workloads::workload(name)
        .ok_or_else(|| format!("unknown workload {name:?} (try `slip list`)"))?;
    println!("workload {name}, {} accesses\n", o.accesses);
    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>9} {:>9} {:>11}",
        "policy", "L2 energy", "L3 energy", "L2 sav", "L3 sav", "speedup", "DRAM xfers"
    );
    // One independently-seeded run per policy, drained by the worker
    // pool; PolicyKind::ALL[0] is the baseline.
    let base_config = config_from(&o)?;
    let results = sweep_runner::run_indexed(PolicyKind::ALL.len(), o.jobs, |i| {
        let mut cfg = base_config.clone();
        cfg.policy = PolicyKind::ALL[i];
        run_workload(cfg, &spec, o.accesses)
    });
    let baseline = &results[0];
    for r in &results {
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
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let benchmarks: Vec<&'static str> = if o.positional.is_empty() {
        workloads::BENCHMARK_NAMES.to_vec()
    } else {
        o.positional
            .iter()
            .map(|n| {
                workloads::BENCHMARK_NAMES
                    .iter()
                    .copied()
                    .find(|b| b == n)
                    .ok_or_else(|| format!("unknown workload {n:?} (try `slip list`)"))
            })
            .collect::<Result<_, _>>()?
    };
    let mut options = SuiteOptions::paper_full()
        .with_benchmarks(&benchmarks)
        .with_accesses(o.accesses);
    if let Some(spec) = load_topology(&o)? {
        options = options.with_topology(spec);
    }
    let sweep = SweepConfig {
        journal: o.journal.clone(),
        quiet: false,
        // Ctrl-C stops dispatching cells and seals the journal so a
        // re-run resumes instead of starting over.
        cancel: Some(sweep_runner::interrupt::install()),
        ..SweepConfig::with_jobs(o.jobs)
    };
    let suite = SuiteResults::run_with(options, &sweep).map_err(|e| {
        if e.kind() == std::io::ErrorKind::Interrupted {
            "sweep interrupted; re-run with the same options to resume".to_owned()
        } else {
            format!("journal: {e}")
        }
    })?;
    let mut t = Table::new(
        format!(
            "energy savings vs baseline ({} accesses/benchmark, {} jobs)",
            o.accesses, o.jobs
        ),
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
    t.row(vec![
        "mean".to_owned(),
        pct(suite.mean_l2_saving(PolicyKind::Slip)),
        pct(suite.mean_l3_saving(PolicyKind::Slip)),
        pct(suite.mean_l2_saving(PolicyKind::SlipAbp)),
        pct(suite.mean_l3_saving(PolicyKind::SlipAbp)),
    ]);
    print!("{}", t.render());
    if let Some(j) = &o.journal {
        println!("journal: {}", j.display());
    }
    Ok(())
}

fn cmd_mix(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    if o.inclusive {
        return Err(
            "`slip mix` does not take --inclusive: the two-core system models a \
             non-inclusive LLC"
                .to_owned(),
        );
    }
    let [a, b] = o.positional.as_slice() else {
        return Err("mix needs exactly two workloads".to_owned());
    };
    let spec_a = workloads::workload(a).ok_or_else(|| format!("unknown workload {a:?}"))?;
    let spec_b = workloads::workload(b).ok_or_else(|| format!("unknown workload {b:?}"))?;
    let mut base_cfg = config_from(&o)?;
    base_cfg.policy = PolicyKind::Baseline;
    let base = run_mix(base_cfg, &spec_a, &spec_b, o.accesses);
    let mut slip_cfg = config_from(&o)?;
    slip_cfg.policy = o.policy;
    let slip = run_mix(slip_cfg, &spec_a, &spec_b, o.accesses);
    println!("mix {a}+{b}, {} accesses/core, shared 2 MB L3", o.accesses);
    println!(
        "L3 energy: baseline {} -> {} {} ({:+.1}%)",
        base.l3_energy,
        o.policy.label(),
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
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let [name, out] = o.positional.as_slice() else {
        return Err("record needs a workload and an output path".to_owned());
    };
    let spec = workloads::workload(name)
        .ok_or_else(|| format!("unknown workload {name:?} (try `slip list`)"))?;
    let n = workloads::io::write_trace(out, spec.trace(o.accesses, o.seed))
        .map_err(|e| e.to_string())?;
    println!("wrote {n} accesses to {out}");
    Ok(())
}

/// Regression bound for `slip bench --check`: fail when the fresh
/// suite throughput drops more than this fraction below the baseline.
const BENCH_REGRESSION_TOLERANCE: f64 = 0.20;

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(value("--out")?),
            "--check" => check = Some(value("--check")?),
            other => {
                return Err(retired_flag(other)
                    .unwrap_or_else(|| format!("unknown bench option {other:?}")))
            }
        }
    }
    sim_engine::env::check_retired()?;

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

    if let Some(path) = &check {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let baseline = sweep_runner::json::Value::parse(&text)
            .map_err(|e| format!("parsing {path}: {e:?}"))?;
        let current = report.suite_accesses_per_sec;
        let (base_rate, floor) = bench_check_verdict(current, &baseline, quick)?;
        println!(
            "\ncheck vs {path}: current {:.0} kacc/s, baseline {:.0} kacc/s (floor {:.0})",
            current / 1e3,
            base_rate / 1e3,
            floor / 1e3
        );
        println!("check OK");
    }
    Ok(())
}

/// The `slip bench --check` rule, isolated for testing: `current` must
/// stay within [`BENCH_REGRESSION_TOLERANCE`] of the baseline's suite
/// rate. Returns `(baseline_rate, floor)` on success.
fn bench_check_verdict(
    current: f64,
    baseline: &sweep_runner::json::Value,
    quick: bool,
) -> Result<(f64, f64), String> {
    let base_rate = sim_engine::bench::baseline_suite_rate(baseline, quick)
        .ok_or_else(|| "baseline has no suite_accesses_per_sec".to_owned())?;
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
    Ok((base_rate, floor))
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let mut full = false;
    let mut oracle = false;
    let mut iters: Option<u64> = None;
    let mut max_len: Option<u64> = None;
    let mut seed = 0x511bu64;
    let mut accesses = 1_000_000u64;
    let mut jobs = sim_engine::env::jobs();
    let mut topology = sim_engine::env::topology();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--quick" => full = false,
            "--full" => full = true,
            "--oracle" => oracle = true,
            "--iters" => {
                iters = Some(
                    value("--iters")?
                        .parse()
                        .map_err(|e| format!("--iters: {e}"))?,
                )
            }
            "--max-len" => {
                max_len = Some(
                    value("--max-len")?
                        .parse()
                        .map_err(|e| format!("--max-len: {e}"))?,
                )
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).map_err(|e| format!("--seed: {e}"))?
                } else {
                    v.parse().map_err(|e| format!("--seed: {e}"))?
                }
            }
            "--accesses" => {
                accesses = value("--accesses")?
                    .parse()
                    .map_err(|e| format!("--accesses: {e}"))?
            }
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--topology" => topology = Some(value("--topology")?),
            other => return Err(format!("unknown check option {other:?}")),
        }
    }
    // Resolve the spec up front: a malformed file must fail fast with
    // the parser's line/column diagnostic, not after minutes of fuzz.
    let topology_spec = topology
        .as_deref()
        .map(energy_model::HierarchySpec::load)
        .transpose()?;

    let mut opts = if full {
        slip_conformance::FuzzOptions::full(seed)
    } else {
        slip_conformance::FuzzOptions::quick(seed)
    };
    // Budget precedence: --iters beats SLIP_FUZZ_ITERS beats the mode
    // default, so CI can pin a deterministic budget in one place.
    if let Some(n) = iters.or_else(sim_engine::env::fuzz_iters) {
        opts.iters = n;
    }
    if let Some(n) = max_len {
        opts.max_len = n;
    }
    let phases = 2 + u32::from(oracle);
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
        if let Err(v) = slip_conformance::check_spec_determinism(spec, invariant_len, opts.quiet) {
            violations.push(v);
        }
    }
    for v in &violations {
        println!("{v}");
    }

    let mut oracle_failures = 0;
    if oracle {
        println!("[3/{phases}] figure oracle at {accesses} accesses/benchmark");
        let report =
            slip_conformance::run_oracle(accesses, &sim_engine::SweepConfig::with_jobs(jobs))
                .map_err(|e| format!("oracle sweep: {e}"))?;
        print!("{report}");
        oracle_failures = report.failures().len();
    }

    println!(
        "slip check: {} divergence(s), {} invariant violation(s){}",
        divergences.len(),
        violations.len(),
        if oracle {
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
}

/// Default loopback endpoint shared by `slip serve` and `slip submit`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7511";

fn cmd_serve(args: &[String]) -> Result<(), String> {
    // Surface a retired knob as a normal CLI error before
    // `ServerConfig::new` (which panics on one) reads the environment.
    sim_engine::env::check_retired()?;
    let mut config = slip_serve::ServerConfig::new("slip-serve-journals");
    config.addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut port_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--jobs" => {
                config.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--journal-dir" => config.journal_dir = PathBuf::from(value("--journal-dir")?),
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file")?)),
            "--quiet" => config.quiet = true,
            other => {
                return Err(
                    retired_flag(other).unwrap_or_else(|| format!("unknown option {other:?}"))
                )
            }
        }
    }
    let server = slip_serve::Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    if let Some(path) = port_file {
        // Scripts bind port 0 and read the real endpoint back from here.
        std::fs::write(&path, format!("{}\n", server.local_addr()))
            .map_err(|e| format!("--port-file: {e}"))?;
    }
    server.run().map_err(|e| format!("serve: {e}"))
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut connect = DEFAULT_SERVE_ADDR.to_owned();
    let mut spec = slip_serve::SweepSpec {
        benchmarks: Vec::new(),
        policies: Vec::new(),
        accesses: 1_000_000,
        warmup: 0,
        topology: None,
    };
    let mut topology_arg = sim_engine::env::topology();
    let mut resume: Option<String> = None;
    let mut ack: u64 = 0;
    let mut stats = false;
    let mut shutdown = false;
    let mut verify_offline = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--connect" => connect = value("--connect")?,
            "--policy" => spec.policies.push(value("--policy")?),
            "--accesses" => {
                spec.accesses = value("--accesses")?
                    .parse()
                    .map_err(|e| format!("--accesses: {e}"))?
            }
            "--warmup" => {
                spec.warmup = value("--warmup")?
                    .parse()
                    .map_err(|e| format!("--warmup: {e}"))?
            }
            "--topology" => topology_arg = Some(value("--topology")?),
            "--resume" => resume = Some(value("--resume")?),
            "--ack" => ack = value("--ack")?.parse().map_err(|e| format!("--ack: {e}"))?,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--verify-offline" => verify_offline = true,
            "--quiet" => quiet = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            _ => spec.benchmarks.push(a.clone()),
        }
    }
    if let Some(arg) = topology_arg {
        // The server never reads client file paths: built-in node names
        // travel as-is, anything else is loaded locally (failing fast
        // on malformed specs) and sent as canonical spec text.
        spec.topology = Some(if energy_model::BUILTIN_NAMES.contains(&arg.as_str()) {
            arg
        } else {
            energy_model::HierarchySpec::load(&arg)?.format()
        });
    }

    if stats {
        let value = slip_serve::client::stats(&connect).map_err(|e| format!("stats: {e}"))?;
        println!("{}", value.to_json());
        return Ok(());
    }
    if shutdown {
        slip_serve::client::shutdown(&connect).map_err(|e| format!("shutdown: {e}"))?;
        eprintln!("server at {connect} is draining");
        return Ok(());
    }

    let mut stream = match &resume {
        Some(run_id) => {
            slip_serve::client::resume(&connect, run_id, ack).map_err(|e| format!("resume: {e}"))?
        }
        None => {
            // Validate locally first: a typo should not cost a round trip.
            spec.suite_options()?;
            slip_serve::client::submit(&connect, &spec).map_err(|e| format!("submit: {e}"))?
        }
    };
    if !quiet {
        eprintln!(
            "run {} ({} cells, from {}{})",
            stream.run_id,
            stream.cells,
            stream.from,
            if stream.joined { ", joined" } else { "" }
        );
    }
    // One JSON line per cell on stdout; everything else goes to stderr
    // so the stream pipes cleanly into files or other tools.
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
            sweep_runner::json::Value::object()
                .with("index", sweep_runner::json::Value::u64(index))
                .with("key", sweep_runner::json::Value::str(&key))
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

    if verify_offline {
        if resume.is_some() {
            return Err("--verify-offline needs the full spec; use it with submit".to_owned());
        }
        let options = spec.suite_options()?;
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
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_defaults() {
        let o = parse_options(&s(&["gcc"])).unwrap();
        assert_eq!(o.positional, vec!["gcc"]);
        assert_eq!(o.policy, PolicyKind::SlipAbp);
        assert_eq!(o.accesses, 1_000_000);
        assert!(!o.inclusive);
        assert!(o.csv.is_none());
        assert!(o.jobs >= 1);
    }

    #[test]
    fn parses_all_options() {
        let o = parse_options(&s(&[
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
        ]))
        .unwrap();
        assert_eq!(o.policy, PolicyKind::NuRapid);
        assert_eq!(o.accesses, 5000);
        assert_eq!(o.seed, 0xff);
        assert_eq!(o.replacement, ReplacementKind::Drrip);
        assert!(o.inclusive);
        assert_eq!(o.csv.as_deref(), Some("out.csv"));
        assert_eq!(o.jobs, 3);
        assert_eq!(
            o.journal.as_deref(),
            Some(std::path::Path::new("run.jsonl"))
        );
    }

    #[test]
    fn policy_accepts_report_labels_too() {
        let o = parse_options(&s(&["--policy", "SLIP+ABP"])).unwrap();
        assert_eq!(o.policy, PolicyKind::SlipAbp);
        let o = parse_options(&s(&["--policy", "LRU-PEA"])).unwrap();
        assert_eq!(o.policy, PolicyKind::LruPea);
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        assert!(parse_options(&s(&["--bogus"])).is_err());
        assert!(parse_options(&s(&["--policy", "magic"])).is_err());
        assert!(parse_options(&s(&["--accesses", "many"])).is_err());
        assert!(parse_options(&s(&["--csv"])).is_err());
        assert!(parse_options(&s(&["--jobs", "few"])).is_err());
        assert!(parse_options(&s(&["--journal"])).is_err());
    }

    /// The error a retired flag spelling produces on `cmd`, which must
    /// fail at parse time — before any simulation — naming the
    /// `replacement`.
    fn retired_error(
        cmd: fn(&[String]) -> Result<(), String>,
        args: &[&str],
        replacement: &str,
    ) -> String {
        let err = cmd(&s(args)).unwrap_err();
        assert!(err.contains("no longer supported"), "{args:?}: {err}");
        assert!(err.contains(replacement), "{args:?}: {err}");
        err
    }

    #[test]
    fn rejects_non_power_of_two_shards_at_parse_time() {
        // Set sharding is gone: every --shards value fails at parse time.
        for n in ["0", "3", "1", "2", "64"] {
            let err = parse_options(&s(&["--shards", n])).map(|_| ()).unwrap_err();
            assert!(
                err.contains("fused benchmark groups"),
                "--shards {n}: {err}"
            );
        }
    }

    #[test]
    fn run_rejects_retired_trace_mode() {
        retired_error(cmd_run, &["gcc", "--trace-mode", "fused"], "--jobs");
    }

    #[test]
    fn run_rejects_retired_shards() {
        retired_error(cmd_run, &["gcc", "--shards", "2"], "--jobs");
    }

    #[test]
    fn sweep_rejects_retired_trace_mode() {
        let err = retired_error(cmd_sweep, &["gcc", "--trace-mode", "shared"], "--jobs");
        assert!(err.contains("fused benchmark groups"), "{err}");
    }

    #[test]
    fn sweep_rejects_retired_shards() {
        let err = retired_error(cmd_sweep, &["gcc", "--shards", "2"], "--jobs");
        assert!(err.contains("fused benchmark groups"), "{err}");
    }

    #[test]
    fn sweep_rejects_retired_trace_cache_mb() {
        let err = retired_error(
            cmd_sweep,
            &["gcc", "--trace-cache-mb", "64"],
            "no cache budget",
        );
        assert!(err.contains("slip serve"), "{err}");
    }

    #[test]
    fn serve_rejects_retired_trace_mode() {
        retired_error(
            cmd_serve,
            &["--addr", "127.0.0.1:0", "--trace-mode", "fused"],
            "--jobs",
        );
    }

    #[test]
    fn serve_rejects_retired_shards() {
        retired_error(
            cmd_serve,
            &["--addr", "127.0.0.1:0", "--shards", "2"],
            "--jobs",
        );
    }

    #[test]
    fn serve_rejects_retired_trace_cache_mb() {
        let err = retired_error(
            cmd_serve,
            &["--addr", "127.0.0.1:0", "--trace-cache-mb", "64"],
            "no cache budget",
        );
        assert!(err.contains("stream every benchmark's trace"), "{err}");
    }

    #[test]
    fn topology_option_resolves_builtins_and_rejects_garbage() {
        let o = parse_options(&s(&["--topology", "stt-llc"])).unwrap();
        assert_eq!(o.topology.as_deref(), Some("stt-llc"));
        let spec = load_topology(&o).unwrap().unwrap();
        assert_eq!(spec.name, "stt-llc");
        // from_topology honors the spec's asymmetric LLC energies.
        let c = config_from(&o).unwrap();
        assert_eq!(c.tech.name, "stt-llc");
        // Unknown names / missing files surface as CLI errors.
        let bad = parse_options(&s(&["--topology", "no-such-node-or-file"])).unwrap();
        assert!(load_topology(&bad).is_err());
        assert!(config_from(&bad).is_err());
        // A malformed file is rejected with a line/column diagnostic.
        let mut path = std::env::temp_dir();
        path.push(format!("slip-cli-topo-{}.topo", std::process::id()));
        std::fs::write(&path, "node broken\nwire 0.16\n").unwrap();
        let malformed = parse_options(&s(&["--topology", path.to_str().unwrap()])).unwrap();
        let err = load_topology(&malformed).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn check_accepts_topology_and_rejects_bad_values() {
        assert!(cmd_check(&s(&["--topology"])).is_err());
        assert!(cmd_check(&s(&["--topology", "no-such-node"])).is_err());
    }

    #[test]
    fn mix_rejects_inclusive() {
        let err = cmd_mix(&s(&["gcc", "lbm", "--accesses", "1000", "--inclusive"])).unwrap_err();
        assert!(
            err.contains("the two-core system models a non-inclusive LLC"),
            "{err}"
        );
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        assert!(dispatch(&s(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn sweep_rejects_unknown_benchmarks() {
        assert!(cmd_sweep(&s(&["not-a-bench", "--accesses", "1000"])).is_err());
    }

    #[test]
    fn bench_rejects_bad_options_before_running() {
        assert!(cmd_bench(&s(&["--bogus"])).is_err());
        assert!(cmd_bench(&s(&["--out"])).is_err());
        assert!(cmd_bench(&s(&["--check"])).is_err());
    }

    #[test]
    fn decimal_seed_parses() {
        let o = parse_options(&s(&["--seed", "123"])).unwrap();
        assert_eq!(o.seed, 123);
    }

    fn baseline_json(text: &str) -> sweep_runner::json::Value {
        sweep_runner::json::Value::parse(text).unwrap()
    }

    #[test]
    fn bench_check_passes_inside_the_tolerance_band() {
        let baseline = baseline_json(r#"{"suite_accesses_per_sec": 1000000.0}"#);
        // 20% tolerance: the floor is 800k.
        let (base, floor) = bench_check_verdict(900_000.0, &baseline, false).unwrap();
        assert_eq!(base, 1_000_000.0);
        assert_eq!(floor, 800_000.0);
        // Exactly at the floor still passes; faster than baseline too.
        assert!(bench_check_verdict(800_000.0, &baseline, false).is_ok());
        assert!(bench_check_verdict(2_000_000.0, &baseline, false).is_ok());
    }

    #[test]
    fn bench_check_fails_below_the_tolerance_band() {
        let baseline = baseline_json(r#"{"suite_accesses_per_sec": 1000000.0}"#);
        let err = bench_check_verdict(799_999.0, &baseline, false).unwrap_err();
        assert!(err.contains("regression"), "{err}");
    }

    #[test]
    fn bench_check_reads_the_mode_matching_section() {
        // Nested report shape: --quick baselines live under after_quick.
        let baseline = baseline_json(
            r#"{"after": {"suite_accesses_per_sec": 1000000.0},
                "after_quick": {"suite_accesses_per_sec": 100000.0}}"#,
        );
        // 90k passes against the quick section (floor 80k) but fails
        // against the full section (floor 800k).
        assert!(bench_check_verdict(90_000.0, &baseline, true).is_ok());
        assert!(bench_check_verdict(90_000.0, &baseline, false).is_err());
    }

    #[test]
    fn bench_check_rejects_baselines_without_a_suite_rate() {
        let baseline = baseline_json(r#"{"kernels": []}"#);
        let err = bench_check_verdict(1.0, &baseline, false).unwrap_err();
        assert!(err.contains("suite_accesses_per_sec"), "{err}");
    }

    #[test]
    fn bench_rejects_retired_tolerance() {
        // The flag fails at parse time, before any kernel runs.
        retired_error(cmd_bench, &["--quick", "--tolerance", "50"], "fixed at 20%");
        // The variable fails the same way, through `env::check_retired`.
        // Setting it here would race the env reads of concurrent tests,
        // so that half runs in a child copy of this test binary.
        if std::env::var_os("SLIP_BENCH_TOL").is_some() {
            let err = cmd_bench(&s(&["--quick"])).unwrap_err();
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
        assert!(cmd_check(&s(&["--bogus"])).is_err());
        assert!(cmd_check(&s(&["--iters"])).is_err());
        assert!(cmd_check(&s(&["--iters", "many"])).is_err());
        assert!(cmd_check(&s(&["--seed", "0xzz"])).is_err());
        assert!(cmd_check(&s(&["--max-len", "long"])).is_err());
    }
}
