//! Shared helpers for the paper-figure bench targets.
//!
//! Every `harness = false` bench in this crate regenerates one table or
//! figure of the SLIP paper (see DESIGN.md §5 for the index). Trace
//! length is controlled by the `SLIP_ACCESSES` environment variable
//! (default 1,000,000 accesses per benchmark for the bench targets;
//! larger values sharpen the numbers at linear cost).
//!
//! Run everything from one shared simulation sweep with:
//!
//! ```sh
//! cargo bench --bench all_figures
//! ```

use sim_engine::config::SystemConfig;
use sim_engine::PolicyKind;

/// Default accesses per benchmark for bench targets.
pub const BENCH_DEFAULT_ACCESSES: u64 = 1_000_000;

/// Reads `SLIP_ACCESSES` or returns the bench default.
pub fn bench_accesses() -> u64 {
    sim_engine::env::accesses_or(BENCH_DEFAULT_ACCESSES)
}

/// Prints the Table 1 system-parameter header every figure bench leads
/// with, so printed results are self-describing.
pub fn print_header(title: &str) {
    let c = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
    println!("================================================================");
    println!("{title}");
    println!("----------------------------------------------------------------");
    println!(
        "system (paper Table 1): L1 32KB/8w/{}cyc; L2 256KB/16w, sublevels \
         64/64/128KB @ {:?}cyc; L3 2MB/16w, sublevels 512/512/1024KB @ {:?}cyc; \
         DRAM 100cyc",
        c.l1_latency, c.l2_sublevel_latency, c.l3_sublevel_latency
    );
    println!(
        "energy (Table 2, {}): L2 {:?} pJ, L3 {:?} pJ, DRAM {} pJ/bit",
        c.tech.name,
        c.tech
            .l2
            .sublevel_access
            .iter()
            .map(|e| e.as_pj())
            .collect::<Vec<_>>(),
        c.tech
            .l3
            .sublevel_access
            .iter()
            .map(|e| e.as_pj())
            .collect::<Vec<_>>(),
        c.tech.dram_pj_per_bit
    );
    println!(
        "trace: {} accesses/benchmark (set SLIP_ACCESSES to change)",
        bench_accesses()
    );
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
}
