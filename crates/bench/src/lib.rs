//! Shared helpers for the paper-figure bench target.
//!
//! The crate's one `harness = false` bench, `all_figures`, regenerates
//! every table and figure of the SLIP paper and the ablations from one
//! grouped sweep (see DESIGN.md §5 for the index). `SLIP_ACCESSES` sets
//! the trace length (default 1,000,000 accesses per benchmark; larger
//! values sharpen the numbers at linear cost), `SLIP_WARMUP` an
//! unmeasured warmup, `SLIP_JOBS` the worker count and `SLIP_JOURNAL` a
//! run journal that an interrupted run resumes from:
//!
//! ```sh
//! SLIP_JOURNAL=figures.jsonl cargo bench -p slip-bench --bench all_figures
//! ```

use energy_model::params::LINE_BYTES;
use energy_model::LevelEnergyParams;
use sim_engine::config::SystemConfig;
use sim_engine::PolicyKind;

/// Default accesses per benchmark for bench targets.
pub const BENCH_DEFAULT_ACCESSES: u64 = 1_000_000;

/// Reads `SLIP_ACCESSES` or returns the bench default.
pub fn bench_accesses() -> u64 {
    sim_engine::env::accesses_or(BENCH_DEFAULT_ACCESSES)
}

/// The Table 1 line of `c`: capacities in whole MB, else KB.
fn system_line(c: &SystemConfig) -> String {
    let size = |lines: usize| match lines * LINE_BYTES {
        b if b % (1 << 20) == 0 => format!("{}MB", b >> 20),
        b => format!("{}KB", b >> 10),
    };
    let level = |sets: usize, ways: &[usize], latency: &[u32]| {
        let kb: Vec<String> = ways
            .iter()
            .map(|w| ((sets * w * LINE_BYTES) >> 10).to_string())
            .collect();
        let all: usize = ways.iter().sum();
        format!(
            "{}/{all}w, sublevels {}KB @ {latency:?}cyc",
            size(sets * all),
            kb.join("/")
        )
    };
    format!(
        "system (paper Table 1): L1 {}/{}w/{}cyc; L2 {}; L3 {}; DRAM {}cyc",
        size(c.l1_sets * c.l1_ways),
        c.l1_ways,
        c.l1_latency,
        level(c.l2_sets, &c.l2_sublevel_ways, &c.l2_sublevel_latency),
        level(c.l3_sets, &c.l3_sublevel_ways, &c.l3_sublevel_latency),
        mem_substrate::DRAM_LATENCY_CYCLES,
    )
}

/// Prints the Table 1 system-parameter header every figure bench leads
/// with, so printed results are self-describing.
pub fn print_header(title: &str) {
    let c = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
    println!("================================================================");
    println!("{title}");
    println!("----------------------------------------------------------------");
    println!("{}", system_line(&c));
    let pj = |l: &LevelEnergyParams| -> Vec<f64> {
        l.sublevel_access.iter().map(|e| e.as_pj()).collect()
    };
    println!(
        "energy (Table 2, {}): L2 {:?} pJ, L3 {:?} pJ, DRAM {} pJ/bit",
        c.tech.name,
        pj(&c.tech.l2),
        pj(&c.tech.l3),
        c.tech.dram_pj_per_bit
    );
    println!(
        "trace: {} accesses/benchmark (set SLIP_ACCESSES to change)",
        bench_accesses()
    );
    let warmup = sim_engine::env::warmup();
    if warmup > 0 {
        println!("warmup: {warmup} unmeasured accesses/benchmark before each trace (SLIP_WARMUP)");
    }
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses() {
        // bench_accesses falls back to the default when unset; garbage
        // panics, naming the variable (`sim_engine::env`).
        assert!(bench_accesses() >= 1);
    }

    #[test]
    fn header_prints_without_panic() {
        print_header("test header");
    }

    #[test]
    fn table1_line_is_derived_from_the_config() {
        let c = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        assert_eq!(
            system_line(&c),
            "system (paper Table 1): L1 32KB/8w/4cyc; L2 256KB/16w, sublevels \
             64/64/128KB @ [4, 6, 8]cyc; L3 2MB/16w, sublevels 512/512/1024KB @ \
             [15, 19, 23]cyc; DRAM 100cyc"
        );
        // A different split prints what it is.
        let split = c.with_sublevel_ways(vec![8, 8], vec![8, 8]);
        assert!(system_line(&split).contains("L2 256KB/16w, sublevels 128/128KB"));
    }
}
