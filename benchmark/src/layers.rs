//! The per-layer metrics of a traced run.
//!
//! Every metric is measured in every traced run, from one of five
//! sources: the workload's own results (exact counts), spans around the
//! parse/decode/encode round trip of those results, the layer ledger of
//! the workload's cells, fixed probes (spec parse, one cell per policy,
//! the journal), and the sweep and serve layers — taken from the
//! workload's own sweep or load when it has one, otherwise from a
//! smoke-sized probe run of `sweep_paper` or `serve_mix`.

use crate::ledger::{self, Cost, LedgerCell, Row};
use crate::spans::{self, Span, Tracer};
use crate::workload::{derive, CellDef, Input, Plan, Scale, Workload, JOBS, SUITE_SEED};
use crate::{execute, stats, Run};
use sim_engine::codec;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::SimResult;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use sweep_runner::json::Value;

type Metrics = BTreeMap<String, f64>;

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_owned(), value);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every encoded result text of the run, in report order.
fn result_texts(run: &Run) -> Vec<String> {
    match &run.serve {
        Some(s) => s
            .outcomes
            .iter()
            .filter(|o| o.sub.repeat_of.is_none())
            .flat_map(|o| o.cells.iter().map(|(_, p)| p.to_json()))
            .collect(),
        None => run.reported.iter().map(|r| r.text.clone()).collect(),
    }
}

/// Exact counts over every result the workload produced.
fn result_counts(m: &mut Metrics, results: &[SimResult]) {
    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(f).sum::<u64>();
    let accesses = sum(&|r| r.accesses);
    let fills = |s: &cache_sim::CacheStats| s.insertions + s.bypasses;
    put(
        m,
        "cache-sim.l1_hit_ratio",
        ratio(
            sum(&|r| r.l1_stats.demand_hits),
            sum(&|r| r.l1_stats.demand_accesses),
        ),
    );
    put(
        m,
        "cache-sim.l2_hit_ratio",
        ratio(
            sum(&|r| r.l2_stats.demand_hits),
            sum(&|r| r.l2_stats.demand_accesses),
        ),
    );
    put(
        m,
        "cache-sim.l3_hit_ratio",
        ratio(
            sum(&|r| r.l3_stats.demand_hits),
            sum(&|r| r.l3_stats.demand_accesses),
        ),
    );
    put(
        m,
        "cache-sim.l2_bypass_ratio",
        ratio(sum(&|r| r.l2_stats.bypasses), sum(&|r| fills(&r.l2_stats))),
    );
    put(
        m,
        "cache-sim.l3_bypass_ratio",
        ratio(sum(&|r| r.l3_stats.bypasses), sum(&|r| fills(&r.l3_stats))),
    );
    put(
        m,
        "cache-sim.movements_per_kacc",
        1e3 * ratio(
            sum(&|r| r.l2_stats.movements + r.l3_stats.movements),
            accesses,
        ),
    );
    put(
        m,
        "mem-substrate.dram_lines_per_kacc",
        1e3 * ratio(sum(&|r| r.dram_total_traffic()), accesses),
    );
    let mmu = |f: &dyn Fn(&mem_substrate::MmuStats) -> u64| {
        results
            .iter()
            .filter_map(|r| r.mmu_stats.as_ref())
            .map(f)
            .sum::<u64>()
    };
    let slip_accesses: u64 = results
        .iter()
        .filter(|r| r.mmu_stats.is_some())
        .map(|r| r.accesses)
        .sum();
    put(
        m,
        "mem-substrate.tlb_miss_ratio",
        ratio(mmu(&|s| s.tlb_misses), mmu(&|s| s.tlb_hits + s.tlb_misses)),
    );
    put(
        m,
        "mem-substrate.slip_recomputes_per_macc",
        1e6 * ratio(mmu(&|s| s.slip_recomputes), slip_accesses),
    );
    put(
        m,
        "mem-substrate.metadata_fetches_per_macc",
        1e6 * ratio(mmu(&|s| s.metadata_fetches), slip_accesses),
    );
}

/// The cells the ledger replays for this workload.
fn ledger_cells(run: &Run) -> Result<Vec<LedgerCell>, String> {
    let suite_cell = |bench: &str, policy: PolicyKind, total: u64, config: SystemConfig| {
        let spec = workloads::workload(bench).ok_or(format!("no {bench}"))?;
        Ok::<_, String>(LedgerCell {
            label: format!("{bench}/{}", policy.label()),
            config,
            prefix: spec
                .trace(total, SUITE_SEED)
                .take(ledger::PREFIX as usize)
                .collect(),
            from_trc: false,
            generator: spec,
            gen_len: total,
            gen_seed: SUITE_SEED,
        })
    };
    let pair = [PolicyKind::Baseline, PolicyKind::SlipAbp];
    match (&run.plan, &run.serve) {
        (Plan::Cells { cells, .. }, _) => cells
            .iter()
            .map(|c: &CellDef| {
                let prefix = c.prefix(ledger::PREFIX.min(c.accesses))?;
                let from_trc = matches!(c.input, Input::Trc(_));
                Ok(LedgerCell {
                    label: c.label(),
                    config: c.config(false),
                    gen_len: if from_trc {
                        prefix.len() as u64
                    } else {
                        c.accesses
                    },
                    prefix,
                    from_trc,
                    generator: c.generator(),
                    gen_seed: c.seed,
                })
            })
            .collect(),
        (Plan::Sweep { .. }, _) => {
            let options = run.plan.suite_options().expect("sweep plan");
            let names = &options.benchmarks;
            let bench = names[(derive(run.seed, 0x50) % names.len() as u64) as usize];
            pair.iter()
                .map(|&p| {
                    suite_cell(
                        bench,
                        p,
                        options.accesses + options.warmup,
                        options.cell_config(p),
                    )
                })
                .collect()
        }
        (Plan::Serve { .. }, Some(s)) => {
            let spec = &s.load.per_client[0][0].spec;
            pair.iter()
                .map(|&p| {
                    suite_cell(
                        &spec.benchmarks[0],
                        p,
                        spec.accesses,
                        SystemConfig::paper_45nm(p),
                    )
                })
                .collect()
        }
        (Plan::Serve { .. }, None) => Err("serve run without a load".to_owned()),
    }
}

/// ns per recorded span, so a single traced operation can report what
/// recording its spans cost.
fn span_cost_ns() -> f64 {
    let mut t = Tracer::new(true, Instant::now(), 0);
    const N: u64 = 100_000;
    let started = Instant::now();
    for i in 0..N {
        t.begin("calibrate", i);
        t.end();
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

/// The sweep layer from a sweep run's own operations.
fn sweep_layer(m: &mut Metrics, run: &Run) {
    let (mut hits, mut lookups, mut busy, mut wall) = (0, 0, 0.0, 0.0);
    for op in &run.ops {
        if let Some(c) = op.extra.get("trace_cache") {
            let get = |k: &str| c.get(k).and_then(Value::as_u64).unwrap_or(0);
            hits += get("hits");
            lookups += get("hits") + get("misses");
        }
        busy += op
            .extra
            .get("cell_walls_ms")
            .and_then(Value::as_array)
            .map_or(0.0, |w| w.iter().filter_map(Value::as_f64).sum());
        wall += op.wall_ms;
    }
    put(m, "sim-engine.trace_cache_hit_ratio", ratio(hits, lookups));
    put(
        m,
        "sweep-runner.worker_busy_ratio",
        busy / (JOBS as f64 * wall),
    );
}

/// The serve layer from a serve run's own load.
fn serve_layer(m: &mut Metrics, s: &crate::ServeRun) {
    let ok: Vec<&crate::serve::Outcome> = s.outcomes.iter().filter(|o| o.error.is_none()).collect();
    let fresh: Vec<&&crate::serve::Outcome> =
        ok.iter().filter(|o| o.sub.repeat_of.is_none()).collect();
    let repeat: Vec<f64> = ok
        .iter()
        .filter(|o| o.sub.repeat_of.is_some())
        .map(|o| o.latency_ms)
        .collect();
    let fresh_lat: Vec<f64> = fresh.iter().map(|o| o.latency_ms).collect();
    let connect: Vec<f64> = ok.iter().map(|o| o.connect_ms).collect();
    let first: Vec<f64> = fresh.iter().map(|o| o.first_cell_ms).collect();
    let gaps: Vec<f64> = fresh
        .iter()
        .flat_map(|o| o.gaps_ms.iter().copied())
        .collect();
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let p90 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(v, 90.0)
        }
    };
    put(m, "slip-serve.connect_ms", med(&connect));
    put(m, "slip-serve.first_cell_ms", med(&first));
    put(m, "slip-serve.cell_gap_ms", med(&gaps));
    put(m, "slip-serve.fresh_p90_ms", p90(&fresh_lat));
    put(m, "slip-serve.repeat_p50_ms", med(&repeat));
    put(m, "slip-serve.repeat_p90_ms", p90(&repeat));
    let d = |path: &[&str]| crate::serve::stats_delta(&s.stats_before, &s.stats_after, path);
    put(m, "slip-serve.cells_executed", d(&["cells_executed"]));
    put(m, "slip-serve.cells_deduped", d(&["cells_deduped"]));
    put(m, "slip-serve.cells_restored", d(&["cells_restored"]));
    put(m, "slip-serve.runs_joined", d(&["runs_joined"]));
    let (h, miss) = (d(&["trace_cache", "hits"]), d(&["trace_cache", "misses"]));
    put(
        m,
        "slip-serve.trace_cache_hit_ratio",
        if h + miss > 0.0 { h / (h + miss) } else { 0.0 },
    );
}

/// Computes every per-layer metric of a traced run and writes its spans
/// to `out/spans-<workload>.jsonl`. Returns the metrics and the report
/// lines to print; a codec round-trip failure becomes a failed check.
pub fn per_layer(run: &mut Run, scale: Scale) -> Result<(Metrics, Vec<String>), String> {
    let mut m = Metrics::new();
    let mut lines = Vec::new();
    let mut tracer = Tracer::new(true, run.epoch, 1 << 20);

    // Results: parse → decode → encode round trip, each call a span.
    let texts = result_texts(run);
    let mut decoded = Vec::new();
    let mut round_trip_failures = 0u64;
    for (i, text) in texts.iter().enumerate() {
        let request = i as u64;
        let parsed = tracer.span("sweep-runner.json_parse", request, || Value::parse(text));
        let result = parsed.ok().and_then(|v| {
            tracer.span("sim-engine.codec_decode", request, || {
                codec::decode_result(&v)
            })
        });
        let Some(result) = result else {
            round_trip_failures += 1;
            continue;
        };
        let again = tracer.span("sim-engine.codec_encode", request, || {
            codec::encode_result(&result).to_json()
        });
        if &again != text {
            round_trip_failures += 1;
        }
        decoded.push(result);
    }
    let codec_spans = spans::totals(&tracer.spans);
    for (span, metric) in [
        ("sweep-runner.json_parse", "sweep-runner.json_parse_us"),
        ("sim-engine.codec_decode", "sim-engine.codec_decode_us"),
        ("sim-engine.codec_encode", "sim-engine.codec_encode_us"),
    ] {
        let t = codec_spans.get(span).copied().unwrap_or_default();
        put(
            &mut m,
            metric,
            t.total_ns as f64 / t.count.max(1) as f64 / 1e3,
        );
    }
    run.verdict.checks.push((
        format!("{} results survive the codec round trip", texts.len()),
        round_trip_failures == 0,
    ));
    run.verdict.failed += round_trip_failures;
    result_counts(&mut m, &decoded);

    // Tracing overhead.
    let overhead = match &run.serve {
        Some(s) => {
            let fresh = |traced: bool| -> Vec<f64> {
                s.outcomes
                    .iter()
                    .filter(|o| o.sub.repeat_of.is_none() && crate::serve::traced(&o.sub) == traced)
                    .map(|o| o.latency_ms)
                    .collect()
            };
            let (u, t) = (fresh(false), fresh(true));
            (!u.is_empty() && !t.is_empty()).then(|| 1.0 - stats::median(&u) / stats::median(&t))
        }
        None => {
            let rate = |traced: bool| {
                let ops: Vec<_> = run.ops.iter().filter(|o| o.traced == traced).collect();
                let acc: u64 = ops.iter().map(|o| o.accesses).sum();
                let ms: f64 = ops.iter().map(|o| o.wall_ms).sum();
                (!ops.is_empty()).then(|| acc as f64 / ms)
            };
            rate(false).zip(rate(true)).map(|(u, t)| 1.0 - t / u)
        }
    };
    let overhead = overhead.unwrap_or_else(|| {
        let traced_ms: f64 = run.ops.iter().filter(|o| o.traced).map(|o| o.wall_ms).sum();
        run.child_spans.len() as f64 * span_cost_ns() / (traced_ms * 1e6)
    });
    put(&mut m, "benchmark.trace_overhead_share", overhead);
    lines.push(format!(
        "tracing overhead: {:.2}% of throughput",
        overhead * 100.0
    ));

    // The layer ledger.
    let mut ledger_tracer = Tracer::new(true, run.epoch, 1 << 30);
    let rows: Vec<Row> = ledger_cells(run)?
        .iter()
        .enumerate()
        .map(|(i, cell)| ledger::measure(cell, &mut ledger_tracer, i as u64, &run.tmp))
        .collect::<Result<_, _>>()?;
    let t = spans::totals(&ledger_tracer.spans);
    let step_ns = t.get("sim-engine.step").map_or(0, |s| s.self_ns) as f64;
    let accesses: u64 = rows.iter().map(|r| r.accesses).sum();
    let mean_us = |name: &str| {
        t.get(name)
            .map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64 / 1e3)
    };
    put(
        &mut m,
        "sim-engine.step_ns",
        step_ns / accesses.max(1) as f64,
    );
    put(&mut m, "sim-engine.new_us", mean_us("sim-engine.new"));
    put(&mut m, "sim-engine.finish_us", mean_us("sim-engine.finish"));
    let mut explained = 0.0;
    lines.push(format!(
        "ledger ({} cells, first {} accesses each): {:<26} {:>9} {:>12} {:>8}",
        rows.len(),
        rows.iter().map(|r| r.accesses).max().unwrap_or(0),
        "layer",
        "ns/call",
        "calls",
        "share"
    ));
    for (i, layer) in ledger::LAYERS.iter().enumerate() {
        let mut cost = Cost::default();
        let mut calls = 0;
        let mut product = 0.0;
        for r in &rows {
            cost.add(r.costs[i]);
            calls += r.calls[i];
            product += r.products()[i];
        }
        explained += product;
        put(
            &mut m,
            &format!("{layer}_ns"),
            cost.per_call().unwrap_or(0.0),
        );
        lines.push(format!(
            "  {layer:<26} {:>9.2} {calls:>12} {:>7.1}%",
            cost.per_call().unwrap_or(0.0),
            100.0 * product / step_ns.max(1.0)
        ));
    }
    let unattributed = 1.0 - explained / step_ns.max(1.0);
    put(&mut m, "sim-engine.ledger_unattributed_share", unattributed);
    lines.push(format!(
        "  {:<26} {:>9.2} {accesses:>12} {:>7.1}%",
        "unattributed (of step)",
        step_ns * unattributed / accesses.max(1) as f64,
        unattributed * 100.0
    ));
    for (i, r) in rows.iter().enumerate() {
        let p = r.products();
        let step: f64 = ledger_tracer
            .spans
            .iter()
            .filter(|s| s.name == "sim-engine.step" && s.request == i as u64)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum();
        lines.push(format!(
            "  cell {:<24} step {:>6.1} ns/acc, layers explain {:>5.1}% \
             (l1 {:.1} l2 {:.1} l3 {:.1} mmu {:.1} eou {:.1} ms)",
            r.label,
            step / r.accesses.max(1) as f64,
            100.0 * p.iter().sum::<f64>() / step.max(1.0),
            (p[0] + p[2]) / 1e6,
            p[3] / 1e6,
            p[4] / 1e6,
            (p[1] + p[5]) / 1e6,
            p[6] / 1e6
        ));
    }
    let per_access = |f: &dyn Fn(&Row) -> Cost| {
        let mut c = Cost::default();
        for r in &rows {
            c.add(f(r));
        }
        c.per_call().unwrap_or(0.0)
    };
    put(&mut m, "workloads.generate_ns", per_access(&|r| r.generate));
    put(
        &mut m,
        "workloads.trc_decode_ns",
        per_access(&|r| r.trc_decode),
    );
    put(
        &mut m,
        "workloads.materialize_ns",
        per_access(&|r| r.materialize),
    );

    // Probes.
    let topology = energy_model::spec::BUILTIN_45NM;
    const PARSES: u32 = 200;
    let started = Instant::now();
    for _ in 0..PARSES {
        let spec =
            energy_model::HierarchySpec::parse(black_box(topology)).map_err(|e| e.to_string())?;
        spec.validate()?;
        black_box(spec);
    }
    put(
        &mut m,
        "energy-model.spec_parse_us",
        started.elapsed().as_secs_f64() * 1e6 / f64::from(PARSES),
    );
    let probe_len = if scale.smoke { 20_000 } else { ledger::PREFIX };
    for (policy, ns) in ledger::policy_cell_costs(probe_len, derive(run.seed, 0x60)) {
        let name = match policy {
            PolicyKind::Baseline => "cache-sim.baseline_cell_ns",
            PolicyKind::NuRapid => "nuca-baselines.nurapid_cell_ns",
            PolicyKind::LruPea => "nuca-baselines.lru_pea_cell_ns",
            PolicyKind::Slip => "slip-core.slip_cell_ns",
            PolicyKind::SlipAbp => "slip-core.slip_abp_cell_ns",
        };
        put(&mut m, name, ns);
    }
    journal_probe(&mut m, run, texts.first().map(String::as_str))?;

    // Sweep and serve layers: own load, or a smoke-sized probe run.
    let probe_scale = Scale {
        seconds: scale.seconds,
        smoke: true,
    };
    if run.workload == Workload::SweepPaper {
        sweep_layer(&mut m, run);
    } else {
        let probe = execute(
            Workload::SweepPaper,
            run.seed,
            probe_scale,
            false,
            false,
            &run.tmp.join("probe-sweep"),
        )?;
        sweep_layer(&mut m, &probe);
        lines.push("sweep layer from a smoke-sized sweep_paper probe".to_owned());
    }
    if let Some(s) = &run.serve {
        serve_layer(&mut m, s);
    } else {
        let probe = execute(
            Workload::ServeMix,
            run.seed,
            probe_scale,
            false,
            false,
            &run.tmp.join("probe-serve"),
        )?;
        serve_layer(
            &mut m,
            probe.serve.as_ref().expect("serve probe has a load"),
        );
        lines.push("serve layer from a smoke-sized serve_mix probe".to_owned());
    }

    // Spans: self time per name, and the JSONL file.
    let mut all: Vec<Span> = run.child_spans.clone();
    if let Some(s) = &run.serve {
        all.extend(s.spans.iter().cloned());
    }
    all.extend(tracer.spans);
    all.extend(ledger_tracer.spans);
    lines.push(format!(
        "{:<32} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    ));
    for (name, t) in spans::totals(&all) {
        lines.push(format!(
            "{name:<32} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let path = crate::out_dir().join(format!("spans-{}.jsonl", run.workload.name()));
    spans::write_jsonl(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
    lines.push(format!("{} spans written to {}", all.len(), path.display()));
    Ok((m, lines))
}

/// `Journal::record` and `Journal::open` on 200 records of a real
/// payload.
fn journal_probe(m: &mut Metrics, run: &Run, payload: Option<&str>) -> Result<(), String> {
    const RECORDS: u32 = 200;
    let payload = Value::parse(payload.unwrap_or("{}")).map_err(|e| e.to_string())?;
    let path = run.tmp.join("probe-journal.jsonl");
    let _ = std::fs::remove_file(&path);
    let journal = sweep_runner::Journal::open(&path).map_err(|e| e.to_string())?;
    let started = Instant::now();
    for i in 0..RECORDS {
        journal
            .record(&format!("probe/{i}"), 1.0, Value::object(), payload.clone())
            .map_err(|e| e.to_string())?;
    }
    put(
        m,
        "sweep-runner.journal_record_us",
        started.elapsed().as_secs_f64() * 1e6 / f64::from(RECORDS),
    );
    drop(journal);
    let started = Instant::now();
    let reopened = sweep_runner::Journal::open(&path).map_err(|e| e.to_string())?;
    put(
        m,
        "sweep-runner.journal_open_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    if reopened.loaded() != RECORDS as usize {
        return Err(format!(
            "journal probe reloaded {} of {RECORDS}",
            reopened.loaded()
        ));
    }
    Ok(())
}
