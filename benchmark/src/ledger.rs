//! The layer ledger: where one simulated access's time goes, measured
//! from outside.
//!
//! Each ledger cell replays its first (up to) 1M accesses twice. Once
//! through a whole `SingleCoreSystem`, with spans around `new`, each
//! chunk of `step`s and `finish`, which gives `sim-engine.step_ns`. Then
//! through standalone layer objects built from the same configuration:
//! a fresh `SlipMmu` (`translate_line`), `build_l1()` (`try_demand_hit`,
//! `access`/`fill`) and `build_l2()`/`build_l3()` under
//! `BaselinePolicy`+`Lru` fed the recorded miss and writeback streams,
//! plus an `EnergyOptimizerUnit`. Each layer's ns per call times its
//! call count in the whole-system result is its share;
//! `sim-engine.ledger_unattributed_share` is the part of the step time
//! those products leave unexplained.

use crate::spans::Tracer;
use cache_sim::{
    Access, AccessClass, AccessKind, BaselinePolicy, CacheLevel, FillOutcome, FillRequest,
    LineAddr, Lru,
};
use mem_substrate::SlipMmu;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::SingleCoreSystem;
use slip_core::{EnergyOptimizerUnit, LevelModelParams, RdDistribution};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use workloads::{TraceBuffer, WorkloadSpec};

/// Accesses replayed per ledger cell.
pub const PREFIX: u64 = 1_000_000;

/// One cell to account for.
pub struct LedgerCell {
    pub label: String,
    pub config: SystemConfig,
    /// The accesses to replay.
    pub prefix: Vec<Access>,
    /// Whether the cell steps access by access from a `.trc` file
    /// (`slip run file.trc`) rather than through `run`.
    pub from_trc: bool,
    /// The library generator behind the stream, with its length and
    /// seed, for `workloads.generate_ns`.
    pub generator: WorkloadSpec,
    pub gen_len: u64,
    pub gen_seed: u64,
}

/// Time spent in one layer and the calls it served.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ns: f64,
    pub calls: u64,
}

impl Cost {
    fn timed(calls: u64, f: impl FnOnce()) -> Cost {
        let started = Instant::now();
        f();
        Cost {
            ns: started.elapsed().as_nanos() as f64,
            calls,
        }
    }

    pub fn per_call(self) -> Option<f64> {
        (self.calls > 0).then(|| self.ns / self.calls as f64)
    }

    pub fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// The layers the ledger attributes step time to, in print order; each
/// reports `<layer>_ns`.
pub const LAYERS: [&str; 7] = [
    "cache-sim.l1_fast_hit",
    "mem-substrate.tlb_gate",
    "cache-sim.l1_access",
    "cache-sim.l2_access",
    "cache-sim.l3_access",
    "mem-substrate.translate",
    "slip-core.eou_optimize",
];

/// The ledger of one cell.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub accesses: u64,
    /// Standalone cost per layer, aligned with [`LAYERS`].
    pub costs: [Cost; 7],
    /// Calls each layer served in the whole-system replay.
    pub calls: [u64; 7],
    pub generate: Cost,
    pub trc_decode: Cost,
    pub materialize: Cost,
}

impl Row {
    /// ns each layer accounts for in the whole-system replay.
    pub fn products(&self) -> [f64; 7] {
        std::array::from_fn(|i| self.costs[i].per_call().unwrap_or(0.0) * self.calls[i] as f64)
    }
}

/// A level below the L1 sees demand accesses and writebacks, in order.
#[derive(Clone, Copy)]
enum Op {
    Access(LineAddr, AccessKind),
    Writeback(LineAddr),
}

/// Feeds `ops` to `level` under `BaselinePolicy`+`Lru`; returns the ops
/// it passes down when `record` is set.
fn drive_level(level: &mut CacheLevel, ops: &[Op], record: bool) -> Vec<Op> {
    let (mut policy, mut repl) = (BaselinePolicy::new(), Lru::new());
    let mut out = FillOutcome::default();
    let mut below = Vec::new();
    for &op in ops {
        match op {
            Op::Access(line, kind) => {
                let r = level.access(line, kind, AccessClass::Demand, 0, &mut policy, &mut repl);
                if !r.is_hit() {
                    if record {
                        below.push(Op::Access(line, kind));
                    }
                    level.fill_into(FillRequest::new(line), 0, &mut policy, &mut repl, &mut out);
                    if record {
                        below.extend(out.writebacks.iter().map(|w| Op::Writeback(w.addr)));
                    }
                }
            }
            Op::Writeback(line) => {
                if !level.writeback_access(line, &mut policy) && record {
                    below.push(Op::Writeback(line));
                }
            }
        }
    }
    below
}

/// The L1 miss path of `SingleCoreSystem::step`: the probe, then a
/// write-allocate fill whose victims land in `out`.
fn l1_miss(
    l1: &mut CacheLevel,
    a: Access,
    policy: &mut BaselinePolicy,
    repl: &mut Lru,
    out: &mut FillOutcome,
) {
    l1.access(a.line(), a.kind, AccessClass::Demand, 0, policy, repl);
    let mut req = FillRequest::new(a.line());
    req.dirty = a.kind.is_write();
    l1.fill_into(req, 0, policy, repl, out);
}

/// The MMU `SingleCoreSystem::new` builds for a SLIP configuration.
fn slip_mmu(config: &SystemConfig) -> SlipMmu {
    let (l2, l3) = eou_params(config);
    let mut mmu = SlipMmu::with_config(
        config.seed ^ 0x1,
        l2,
        l3,
        config.sampling,
        mem_substrate::Tlb::paper_default(),
    )
    .with_bin_bits(config.rd_bin_bits)
    .with_block_shift(config.rd_block_shift);
    if config.policy == PolicyKind::Slip {
        mmu = mmu.forbid_all_bypass();
    }
    mmu.with_eou_objective(config.eou_objective)
}

fn eou_params(config: &SystemConfig) -> (LevelModelParams, LevelModelParams) {
    (
        LevelModelParams::from_level(&config.tech.l2, config.tech.l3.mean_access()),
        LevelModelParams::from_level(&config.tech.l3, config.tech.dram_line_energy()),
    )
}

/// ns per EOU optimization over seeded reuse-distance profiles.
fn eou_cost(config: &SystemConfig) -> Cost {
    let mut eou = EnergyOptimizerUnit::with_objective(&eou_params(config).0, config.eou_objective);
    let mut rng = cache_sim::rng::SplitMix64::new(config.seed);
    let dists: Vec<RdDistribution> = (0..512)
        .map(|_| {
            let mut d = RdDistribution::paper_default();
            for _ in 0..rng.next_below(64) {
                d.observe(rng.next_below(d.bins() as u64) as usize);
            }
            d
        })
        .collect();
    const REPS: u64 = 16;
    Cost::timed(REPS * dists.len() as u64, || {
        for _ in 0..REPS {
            for d in &dists {
                black_box(eou.optimize(black_box(d)));
            }
        }
    })
}

/// Replays one cell through the whole system (spans under `request`)
/// and through the standalone layers.
pub fn measure(
    cell: &LedgerCell,
    tracer: &mut Tracer,
    request: u64,
    tmp: &Path,
) -> Result<Row, String> {
    let n = cell.prefix.len() as u64;
    let chunk_len = 1 << 16;
    tracer.begin("benchmark.ledger_cell", request);
    let mut system = tracer.span("sim-engine.new", request, || {
        SingleCoreSystem::new(cell.config.clone())
    });
    for chunk in cell.prefix.chunks(chunk_len) {
        tracer.span("sim-engine.step", request, || {
            if cell.from_trc {
                for &a in chunk {
                    system.step_fast(a);
                }
            } else {
                system.run(chunk.iter().copied());
            }
        });
    }
    let result = tracer.span("sim-engine.finish", request, || system.finish(&*cell.label));
    tracer.end();

    // L1: record which accesses hit and what the misses send down.
    let mut l1 = cell.config.build_l1();
    let (mut policy, mut repl) = (BaselinePolicy::new(), Lru::new());
    let mut out = FillOutcome::default();
    let (mut hits, mut misses, mut below) = (Vec::new(), Vec::new(), Vec::new());
    for &a in &cell.prefix {
        if l1.try_demand_hit(a.line(), a.kind.is_write()).is_some() {
            hits.push(a);
            continue;
        }
        l1_miss(&mut l1, a, &mut policy, &mut repl, &mut out);
        misses.push(a);
        below.push(Op::Access(a.line(), a.kind));
        below.extend(out.writebacks.iter().map(|w| Op::Writeback(w.addr)));
    }
    // Fast hits replay on the recorded L1; too few hits to time (the
    // low-L1 workloads) fall back to re-touching the last lines used.
    let hit_stream: Vec<Access> = if hits.len() >= 10_000 {
        hits
    } else {
        let tail = &cell.prefix[cell.prefix.len().saturating_sub(256)..];
        tail.iter().copied().cycle().take(1 << 16).collect()
    };
    let l1_fast = Cost::timed(hit_stream.len() as u64, || {
        for a in &hit_stream {
            black_box(l1.try_demand_hit(a.line(), a.kind.is_write()));
        }
    });
    let mut fresh = cell.config.build_l1();
    let l1_access = Cost::timed(misses.len() as u64, || {
        for &a in &misses {
            l1_miss(&mut fresh, a, &mut policy, &mut repl, &mut out);
        }
    });
    let below_l2 = drive_level(&mut cell.config.build_l2(), &below, true);
    let mut l2 = cell.config.build_l2();
    let l2_cost = Cost::timed(below.len() as u64, || {
        drive_level(&mut l2, &below, false);
    });
    let mut l3 = cell.config.build_l3();
    let l3_cost = Cost::timed(below_l2.len() as u64, || {
        drive_level(&mut l3, &below_l2, false);
    });
    let slip = cell.config.policy.is_slip();
    let mut mmu = slip.then(|| slip_mmu(&cell.config));
    let translate = match mmu.as_mut() {
        Some(mmu) => Cost::timed(n, || {
            for a in &cell.prefix {
                black_box(mmu.translate_line(a.line()));
            }
        }),
        None => Cost::default(),
    };
    // The TLB residency gate every SLIP fast hit passes (probe, then
    // commit), on the MMU the translate pass warmed.
    let tlb_gate = match mmu.as_mut() {
        Some(mmu) => Cost::timed(hit_stream.len() as u64, || {
            for a in &hit_stream {
                let line = a.line();
                if mmu.is_resident_line(line) {
                    mmu.commit_resident_hit(line);
                }
            }
        }),
        None => Cost::default(),
    };
    let eou = if slip {
        eou_cost(&cell.config)
    } else {
        Cost::default()
    };

    let generate = Cost::timed(n, || {
        for a in cell
            .generator
            .trace(cell.gen_len, cell.gen_seed)
            .take(n as usize)
        {
            black_box(a);
        }
    });
    let path = tmp.join("ledger-prefix.trc");
    workloads::io::write_trace(&path, cell.prefix.iter().copied()).map_err(|e| e.to_string())?;
    let mut decode_err = None;
    let trc_decode = Cost::timed(n, || match workloads::io::read_trace(&path) {
        Ok(reader) => {
            for a in reader {
                if let Err(e) = black_box(a) {
                    decode_err = Some(e.to_string());
                }
            }
        }
        Err(e) => decode_err = Some(e.to_string()),
    });
    let _ = std::fs::remove_file(&path);
    if let Some(e) = decode_err {
        return Err(format!("ledger trace decode: {e}"));
    }
    // Trace buffers hold whole lines; `.trc` accesses keep their word.
    let aligned: Vec<Access> = cell
        .prefix
        .iter()
        .map(|a| Access {
            addr: a.addr & !(cache_sim::addr::LINE_BYTES - 1),
            kind: a.kind,
        })
        .collect();
    let materialize = Cost::timed(n, || {
        black_box(TraceBuffer::materialize(aligned.iter().copied()));
    });

    let s = &result;
    let level_calls = |st: &cache_sim::CacheStats| {
        st.demand_accesses + st.metadata_accesses + st.writeback_hits + st.writeback_misses
    };
    let l1_hits = s.l1_stats.demand_hits;
    let recomputes = s.mmu_stats.map_or(0, |m| m.slip_recomputes);
    Ok(Row {
        label: cell.label.clone(),
        accesses: n,
        costs: [
            l1_fast, tlb_gate, l1_access, l2_cost, l3_cost, translate, eou,
        ],
        calls: [
            l1_hits,
            if slip { l1_hits } else { 0 },
            s.accesses - l1_hits,
            level_calls(&s.l2_stats),
            level_calls(&s.l3_stats),
            if slip { s.accesses - l1_hits } else { 0 },
            2 * recomputes,
        ],
        generate,
        trc_decode,
        materialize,
    })
}

/// Per-policy simulation cost: ns per access of a standalone soplex
/// cell under each of the five policies.
pub fn policy_cell_costs(accesses: u64, seed: u64) -> Vec<(PolicyKind, f64)> {
    let spec = workloads::workload("soplex").expect("built-in benchmark");
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let mut config = SystemConfig::paper_45nm(policy);
            config.seed = seed;
            let started = Instant::now();
            black_box(sim_engine::run_workload(config, &spec, accesses));
            (
                policy,
                started.elapsed().as_nanos() as f64 / accesses as f64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accounts_for_every_layer_call() {
        let spec = workloads::workload("gcc").unwrap();
        let config = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        let prefix: Vec<Access> = spec.trace(30_000, 5).collect();
        let cell = LedgerCell {
            label: "gcc".into(),
            config,
            prefix,
            from_trc: false,
            generator: spec,
            gen_len: 30_000,
            gen_seed: 5,
        };
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let mut tracer = Tracer::new(true, Instant::now(), 0);
        let row = measure(&cell, &mut tracer, 0, &dir).unwrap();
        assert_eq!(row.accesses, 30_000);
        assert_eq!(
            row.calls[0] + row.calls[2],
            30_000,
            "every access hits or misses L1"
        );
        assert!(row.calls[3] > 0 && row.calls[5] > 0);
        assert!(row.products().iter().all(|p| p.is_finite() && *p >= 0.0));
        let names: Vec<&str> = tracer.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"sim-engine.step") && names.contains(&"sim-engine.finish"));
    }
}
