//! Per-benchmark breakdown of trace-generation vs simulation cost.
//!
//! Prints, for every suite workload, the nanoseconds per access spent
//! synthesizing the trace and simulating it (baseline policy), plus
//! generation's share of an inline cell — the cost a fused sweep group
//! pays once for all its policy cells (DESIGN.md §12).

use std::time::Instant;

fn main() {
    let n: u64 = 400_000;
    println!(
        "{:<12} {:>8} {:>8} {:>6}",
        "bench", "gen ns", "sim ns", "gen%"
    );
    for &name in workloads::BENCHMARK_NAMES.iter() {
        let spec = workloads::workload(name).unwrap();
        let t = Instant::now();
        let mut sink = 0u64;
        for a in spec.trace(n, 0x511b) {
            sink = sink.wrapping_add(a.addr);
        }
        let gen_ns = t.elapsed().as_secs_f64() * 1e9 / n as f64;
        std::hint::black_box(sink);
        let config =
            sim_engine::config::SystemConfig::paper_45nm(sim_engine::config::PolicyKind::Baseline);
        let t = Instant::now();
        let r = sim_engine::run_workload(config, &spec, n);
        let total_ns = t.elapsed().as_secs_f64() * 1e9 / n as f64;
        std::hint::black_box(&r);
        let sim_ns = total_ns - gen_ns;
        println!(
            "{:<12} {:>8.1} {:>8.1} {:>5.1}%",
            name,
            gen_ns,
            sim_ns,
            100.0 * gen_ns / total_ns
        );
    }
}
