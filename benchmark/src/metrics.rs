//! Metric definitions and the result line.
//!
//! Names, units, directions and regression bounds come from
//! `BENCHMARK.json` (compiled in), so the file the comparison reads and
//! the program that fills it cannot drift apart; this module adds what
//! each metric means and which end-to-end number it should move.

use crate::stats::Better;
use std::collections::BTreeMap;
use sweep_runner::json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn benchmark_json() -> Value {
    Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// `run_seconds` of `BENCHMARK.json`, the default run length.
pub fn run_seconds() -> u64 {
    benchmark_json()
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("BENCHMARK.json has run_seconds")
}

/// The end-to-end and per-layer metrics, in file order.
pub fn definitions() -> (Vec<Metric>, Vec<Metric>) {
    let v = benchmark_json();
    let list = |key: &str| -> Vec<Metric> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("BENCHMARK.json metric list")
            .iter()
            .map(|m| Metric {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned(),
                unit: m
                    .get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_owned(),
                better: m
                    .get("better")
                    .and_then(Value::as_str)
                    .and_then(Better::parse)
                    .expect("better is higher or lower"),
                bound: m.get("bound").and_then(Value::as_f64),
            })
            .collect()
    };
    (list("end_to_end"), list("per_layer"))
}

/// What each metric measures and which end-to-end metric, on which
/// workload, it should move. Printed with every table.
pub fn meaning(name: &str) -> Option<&'static str> {
    Some(match name {
        "setup_s" => "median spawn -> warmed-up READY (serve: + warm-up submission) of 11 set-ups",
        "throughput_macc_s" => "simulated accesses per wall second of the timed region",
        "peak_rss_mb" => "VmHWM of the workload child (serve: the daemon)",
        "op_latency_ms" => "geomean over op kinds of the median wall (see README)",
        "sim-engine.step_ns" => "ledger: step self time per access -> throughput, cell_*",
        "sim-engine.new_us" => "ledger: SingleCoreSystem::new -> setup_s, throughput",
        "sim-engine.finish_us" => "ledger: finish -> throughput, cell_*",
        "sim-engine.ledger_unattributed_share" => "ledger: step time no layer product explains",
        "cache-sim.l1_fast_hit_ns" => "ledger: try_demand_hit -> throughput, cell_l1",
        "mem-substrate.tlb_gate_ns" => "ledger: TLB residency probe+commit -> throughput, cell_l1",
        "cache-sim.l1_access_ns" => "ledger: L1 access+fill -> throughput, cell_l1",
        "cache-sim.l2_access_ns" => "ledger: L2 access/fill/writeback -> throughput, cell_llc",
        "cache-sim.l3_access_ns" => "ledger: L3 access/fill/writeback -> throughput, cell_llc",
        "mem-substrate.translate_ns" => "ledger: SlipMmu::translate_line -> throughput, cell_llc",
        "slip-core.eou_optimize_ns" => "ledger: EOU optimize -> throughput, cell_llc",
        "workloads.generate_ns" => "ledger: trace generation -> throughput, cell_llc",
        "workloads.trc_decode_ns" => "ledger: .trc decode -> throughput, cell_l1",
        "workloads.materialize_ns" => "ledger: TraceBuffer::materialize -> throughput, sweep",
        "cache-sim.l1_hit_ratio" => "results: L1 demand hits / accesses -> cell_l1",
        "cache-sim.l2_hit_ratio" => "results: L2 demand hit ratio -> throughput, cell_llc",
        "cache-sim.l3_hit_ratio" => "results: L3 demand hit ratio -> throughput, cell_llc",
        "cache-sim.l2_bypass_ratio" => "results: L2 bypasses / fills -> throughput, cell_llc",
        "cache-sim.l3_bypass_ratio" => "results: L3 bypasses / fills -> throughput, cell_llc",
        "cache-sim.movements_per_kacc" => "results: L2+L3 movements per 1k accesses -> cell_llc",
        "mem-substrate.tlb_miss_ratio" => "results: SLIP TLB misses / lookups -> cell_llc",
        "mem-substrate.slip_recomputes_per_macc" => "results: EOU recomputes per 1M -> cell_llc",
        "mem-substrate.metadata_fetches_per_macc" => "results: metadata fetches per 1M -> cell_llc",
        "mem-substrate.dram_lines_per_kacc" => "results: DRAM line transfers per 1k -> cell_llc",
        "sim-engine.codec_encode_us" => "encode_result+to_json per result -> op_latency, serve",
        "sim-engine.codec_decode_us" => "decode_result per result -> op_latency, serve",
        "sweep-runner.json_parse_us" => "Value::parse per result text -> op_latency, serve",
        "benchmark.trace_overhead_share" => "1 - traced/untraced throughput (see README)",
        "energy-model.spec_parse_us" => "probe: parse+validate built-in 45nm -> setup_s",
        "cache-sim.baseline_cell_ns" => "probe: 1M soplex baseline cell -> throughput, sweep",
        "nuca-baselines.nurapid_cell_ns" => "probe: 1M soplex NuRAPID cell -> throughput, sweep",
        "nuca-baselines.lru_pea_cell_ns" => "probe: 1M soplex LRU-PEA cell -> throughput, sweep",
        "slip-core.slip_cell_ns" => "probe: 1M soplex SLIP cell -> throughput, sweep",
        "slip-core.slip_abp_cell_ns" => "probe: 1M soplex SLIP+ABP cell -> throughput, sweep",
        "sweep-runner.journal_record_us" => "probe: Journal::record per cell -> throughput, sweep",
        "sweep-runner.journal_open_ms" => "probe: Journal::open of 200 records -> serve repeats",
        "sim-engine.trace_cache_hit_ratio" => "sweep trace cache hits/lookups -> sweep throughput",
        "sweep-runner.worker_busy_ratio" => "sum of cell walls / (jobs x sweep wall) -> sweep",
        "slip-serve.connect_ms" => "serve: submit until hello -> op_latency, serve_mix",
        "slip-serve.first_cell_ms" => "serve: hello until first cell (fresh) -> op_latency",
        "slip-serve.cell_gap_ms" => "serve: gap between cells (fresh) -> op_latency",
        "slip-serve.fresh_p90_ms" => "serve: fresh submit-to-done p90 -> op_latency tail",
        "slip-serve.repeat_p50_ms" => "serve: repeat submit-to-done median (archive path)",
        "slip-serve.repeat_p90_ms" => "serve: repeat submit-to-done p90 (archive path)",
        "slip-serve.cells_executed" => "serve stats delta: cells run on the pool",
        "slip-serve.cells_deduped" => "serve stats delta: cells shared with another run",
        "slip-serve.cells_restored" => "serve stats delta: cells restored from journals",
        "slip-serve.runs_joined" => "serve stats delta: submissions joining a live run",
        "slip-serve.trace_cache_hit_ratio" => "serve stats delta: trace cache hits/lookups",
        _ => return None,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{value, unit}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, (f64, String)>,
) -> Value {
    let mut m = Value::object();
    for (name, (value, unit)) in metrics {
        m = m.with(
            name,
            Value::object()
                .with("value", Value::f64(*value))
                .with("unit", Value::str(unit.as_str())),
        );
    }
    Value::object()
        .with("correct", Value::Bool(correct))
        .with("attempted", Value::u64(attempted))
        .with("failed", Value::u64(failed))
        .with("metrics", m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_defined_explained_and_well_named() {
        let (e2e, layer) = definitions();
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(layer.iter().all(|m| m.bound.is_none()));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!((setup.unit.as_str(), setup.bound), ("s", Some(largest)));
        let mut seen = std::collections::HashSet::new();
        for m in e2e.iter().chain(&layer) {
            assert!(seen.insert(m.name.clone()), "{} twice", m.name);
            assert!(meaning(&m.name).is_some(), "{} unexplained", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn result_line_round_trips_through_the_json_codec() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_owned(), (0.0123456789, "s".to_owned()));
        metrics.insert("op_latency_ms".to_owned(), (812.25, "ms".to_owned()));
        let line = result_line(true, 12, 0, &metrics).to_json();
        let v = Value::parse(&line).unwrap();
        let Value::Object(pairs) = &v else {
            panic!("an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(12));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        // Every digit survives.
        assert_eq!(
            setup.get("value").and_then(Value::as_f64),
            Some(0.0123456789)
        );
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(v.to_json(), line);
    }
}
