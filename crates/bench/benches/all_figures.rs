//! Regenerates every table and figure of the paper, and the ablations,
//! from ONE grouped sweep over every table's cells
//! (`sim_engine::experiments::paper`). `SLIP_ACCESSES`, `SLIP_WARMUP`,
//! `SLIP_JOBS` and `SLIP_JOURNAL` set the length, warmup, worker count
//! and run journal; Ctrl-C seals the journal, and a re-run with the same
//! settings resumes from it.

use sim_engine::experiments::{paper, SuiteOptions};
use sim_engine::{env, SweepConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Err(e) = env::check() {
        eprintln!("all_figures: {e}");
        return ExitCode::FAILURE;
    }
    let options = SuiteOptions::paper_full().with_accesses(slip_bench::bench_accesses());
    slip_bench::print_header("SLIP reproduction: all tables and figures");
    let sweep = SweepConfig {
        journal: env::journal(),
        quiet: false,
        cancel: Some(sweep_runner::interrupt::install()),
        ..SweepConfig::with_jobs(env::jobs())
    };
    match paper::run(options, &sweep) {
        Ok(tables) => {
            print!("{tables}");
            ExitCode::SUCCESS
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            eprintln!("all_figures: {e}; re-run with the same settings to resume");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("all_figures: journal: {e}");
            ExitCode::FAILURE
        }
    }
}
