//! JSON codec for [`SimResult`] and [`MulticoreResult`]: the journal
//! payload format.
//!
//! [`encode_result`] / [`decode_result`] (and [`encode_mix`] /
//! [`decode_mix`]) round-trip every field
//! bit-exactly (integer counters stay integers; energies are f64 pJ,
//! which Rust prints with shortest-round-trip formatting), so a result
//! restored from a journal is indistinguishable from a fresh run. The
//! determinism tier-1 test relies on this to compare runs by their
//! encoded form.

use crate::config::PolicyKind;
use crate::multicore::MulticoreResult;
use crate::result::SimResult;
use cache_sim::CacheStats;
use energy_model::{Energy, EnergyAccount, EnergyCategory};
use mem_substrate::MmuStats;
use sweep_runner::json::Value;

fn u64_array(values: &[u64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::u64(v)).collect())
}

fn decode_u64_array(v: &Value) -> Option<Vec<u64>> {
    v.as_array()?.iter().map(Value::as_u64).collect()
}

/// Encodes an energy account as its 8 per-category pJ values in
/// [`EnergyCategory::ALL`] order.
fn encode_account(a: &EnergyAccount) -> Value {
    Value::Array(
        EnergyCategory::ALL
            .iter()
            .map(|&c| Value::f64(a.get(c).as_pj()))
            .collect(),
    )
}

fn decode_account(v: &Value) -> Option<EnergyAccount> {
    let pj = v.as_array()?;
    if pj.len() != EnergyCategory::ALL.len() {
        return None;
    }
    let mut a = EnergyAccount::new();
    for (&c, v) in EnergyCategory::ALL.iter().zip(pj) {
        a.charge(c, Energy::from_pj(v.as_f64()?));
    }
    Some(a)
}

fn encode_stats(s: &CacheStats) -> Value {
    Value::object()
        .with("demand_accesses", Value::u64(s.demand_accesses))
        .with("demand_hits", Value::u64(s.demand_hits))
        .with("demand_misses", Value::u64(s.demand_misses))
        .with("metadata_accesses", Value::u64(s.metadata_accesses))
        .with("metadata_hits", Value::u64(s.metadata_hits))
        .with("metadata_misses", Value::u64(s.metadata_misses))
        .with("hits_per_sublevel", u64_array(&s.hits_per_sublevel))
        .with("insertions", Value::u64(s.insertions))
        .with("insertion_class", u64_array(&s.insertion_class))
        .with("bypasses", Value::u64(s.bypasses))
        .with("movements", Value::u64(s.movements))
        .with("promotions", Value::u64(s.promotions))
        .with("writebacks", Value::u64(s.writebacks))
        .with("evictions", Value::u64(s.evictions))
        .with("nr_histogram", u64_array(&s.nr_histogram))
        .with("writeback_hits", Value::u64(s.writeback_hits))
        .with("writeback_misses", Value::u64(s.writeback_misses))
}

fn decode_stats(v: &Value) -> Option<CacheStats> {
    let field = |k: &str| v.get(k).and_then(Value::as_u64);
    let fixed4 = |k: &str| -> Option<[u64; 4]> { decode_u64_array(v.get(k)?)?.try_into().ok() };
    Some(CacheStats {
        demand_accesses: field("demand_accesses")?,
        demand_hits: field("demand_hits")?,
        demand_misses: field("demand_misses")?,
        metadata_accesses: field("metadata_accesses")?,
        metadata_hits: field("metadata_hits")?,
        metadata_misses: field("metadata_misses")?,
        hits_per_sublevel: decode_u64_array(v.get("hits_per_sublevel")?)?,
        insertions: field("insertions")?,
        insertion_class: fixed4("insertion_class")?,
        bypasses: field("bypasses")?,
        movements: field("movements")?,
        promotions: field("promotions")?,
        writebacks: field("writebacks")?,
        evictions: field("evictions")?,
        nr_histogram: fixed4("nr_histogram")?,
        writeback_hits: field("writeback_hits")?,
        writeback_misses: field("writeback_misses")?,
    })
}

fn encode_mmu(s: &MmuStats) -> Value {
    Value::object()
        .with("tlb_hits", Value::u64(s.tlb_hits))
        .with("tlb_misses", Value::u64(s.tlb_misses))
        .with("metadata_fetches", Value::u64(s.metadata_fetches))
        .with("metadata_writebacks", Value::u64(s.metadata_writebacks))
        .with("slip_recomputes", Value::u64(s.slip_recomputes))
        .with("tlb_block_cycles", Value::u64(s.tlb_block_cycles))
}

fn decode_mmu(v: &Value) -> Option<MmuStats> {
    let field = |k: &str| v.get(k).and_then(Value::as_u64);
    Some(MmuStats {
        tlb_hits: field("tlb_hits")?,
        tlb_misses: field("tlb_misses")?,
        metadata_fetches: field("metadata_fetches")?,
        metadata_writebacks: field("metadata_writebacks")?,
        slip_recomputes: field("slip_recomputes")?,
        tlb_block_cycles: field("tlb_block_cycles")?,
    })
}

/// Encodes a full simulation result as a JSON object.
pub fn encode_result(r: &SimResult) -> Value {
    let mmu = match &r.mmu_stats {
        Some(s) => encode_mmu(s),
        None => Value::Null,
    };
    Value::object()
        .with("workload", Value::str(&*r.workload))
        .with("policy", Value::str(r.policy.label()))
        .with("accesses", Value::u64(r.accesses))
        .with("cycles", Value::u64(r.cycles))
        .with("l1_stats", encode_stats(&r.l1_stats))
        .with("l2_stats", encode_stats(&r.l2_stats))
        .with("l3_stats", encode_stats(&r.l3_stats))
        .with("l1_energy", encode_account(&r.l1_energy))
        .with("l2_energy", encode_account(&r.l2_energy))
        .with("l3_energy", encode_account(&r.l3_energy))
        .with("dram_reads", Value::u64(r.dram_reads))
        .with("dram_writes", Value::u64(r.dram_writes))
        .with("dram_metadata_reads", Value::u64(r.dram_metadata_reads))
        .with("dram_metadata_writes", Value::u64(r.dram_metadata_writes))
        .with("dram_energy", encode_account(&r.dram_energy))
        .with("mmu_stats", mmu)
        .with("eou_energy_pj", Value::f64(r.eou_energy.as_pj()))
        .with("core_energy_pj", Value::f64(r.core_energy.as_pj()))
}

/// Decodes a result encoded by [`encode_result`]. Returns `None` on any
/// missing or ill-typed field (schema drift → the cell re-runs).
pub fn decode_result(v: &Value) -> Option<SimResult> {
    let policy = PolicyKind::parse(v.get("policy")?.as_str()?)?;
    let mmu_stats = match v.get("mmu_stats")? {
        Value::Null => None,
        m => Some(decode_mmu(m)?),
    };
    Some(SimResult {
        workload: v.get("workload")?.as_str()?.to_owned(),
        policy,
        accesses: v.get("accesses")?.as_u64()?,
        cycles: v.get("cycles")?.as_u64()?,
        l1_stats: decode_stats(v.get("l1_stats")?)?,
        l2_stats: decode_stats(v.get("l2_stats")?)?,
        l3_stats: decode_stats(v.get("l3_stats")?)?,
        l1_energy: decode_account(v.get("l1_energy")?)?,
        l2_energy: decode_account(v.get("l2_energy")?)?,
        l3_energy: decode_account(v.get("l3_energy")?)?,
        dram_reads: v.get("dram_reads")?.as_u64()?,
        dram_writes: v.get("dram_writes")?.as_u64()?,
        dram_metadata_reads: v.get("dram_metadata_reads")?.as_u64()?,
        dram_metadata_writes: v.get("dram_metadata_writes")?.as_u64()?,
        dram_energy: decode_account(v.get("dram_energy")?)?,
        mmu_stats,
        eou_energy: Energy::from_pj(v.get("eou_energy_pj")?.as_f64()?),
        core_energy: Energy::from_pj(v.get("core_energy_pj")?.as_f64()?),
        // Wall time and the execution-path label are host-specific, so
        // they stay out of the bit-exact payload; decoded results are
        // untimed and unlabeled.
        wall_time_secs: 0.0,
        exec_mode: None,
    })
}

/// The journal record of one single-core cell, `(metrics, payload)`:
/// the observability metrics (shown in progress lines, labeled with the
/// result's `exec_mode` when it has one) and the bit-exact
/// [`encode_result`] payload. Offline sweeps and `slip serve` both
/// journal through here.
pub fn encode_record(r: &SimResult, wall: std::time::Duration) -> (Value, Value) {
    let mut metrics = result_metrics(r, wall);
    if let Some(mode) = r.exec_mode {
        metrics = metrics.with("exec_mode", Value::str(mode));
    }
    (metrics, encode_result(r))
}

/// The observability metrics of one cell, without the `exec_mode`
/// label.
fn result_metrics(r: &SimResult, wall: std::time::Duration) -> Value {
    let secs = wall.as_secs_f64();
    let rate = if secs > 0.0 {
        r.accesses as f64 / secs
    } else {
        0.0
    };
    Value::object()
        .with("accesses", Value::u64(r.accesses))
        .with("accesses_per_sec", Value::f64(rate))
        .with("cell_wall_secs", Value::f64(secs))
        .with("sim_wall_secs", Value::f64(r.wall_time_secs))
        .with("l2_hit_rate", Value::f64(r.l2_stats.demand_hit_rate()))
        .with("l3_hit_rate", Value::f64(r.l3_stats.demand_hit_rate()))
        .with("l2_energy_pj", Value::f64(r.l2_total_energy().as_pj()))
        .with("l3_energy_pj", Value::f64(r.l3_total_energy().as_pj()))
        .with(
            "full_system_energy_pj",
            Value::f64(r.full_system_energy().as_pj()),
        )
}

/// Encodes a two-core result as a JSON object; only this payload has
/// a `mix` field.
pub fn encode_mix(m: &MulticoreResult) -> Value {
    Value::object()
        .with(
            "mix",
            Value::Array(vec![Value::str(&*m.mix.0), Value::str(&*m.mix.1)]),
        )
        .with("policy", Value::str(m.policy.label()))
        .with("cycles", u64_array(&m.cycles))
        .with("accesses", u64_array(&m.accesses))
        .with("l2_energy_pj", Value::f64(m.l2_energy.as_pj()))
        .with("l3_energy_pj", Value::f64(m.l3_energy.as_pj()))
        .with("l3_stats", encode_stats(&m.l3_stats))
        .with("l2_stats", encode_stats(&m.l2_stats))
        .with("dram_demand_traffic", Value::u64(m.dram_demand_traffic))
        .with("dram_total_traffic", Value::u64(m.dram_total_traffic))
        .with("dram_energy", encode_account(&m.dram_energy))
}

/// Decodes a result encoded by [`encode_mix`]; `None` on any missing
/// or ill-typed field.
pub fn decode_mix(v: &Value) -> Option<MulticoreResult> {
    let pair = |k: &str| -> Option<[u64; 2]> { decode_u64_array(v.get(k)?)?.try_into().ok() };
    let [a, b] = v.get("mix")?.as_array()? else {
        return None;
    };
    Some(MulticoreResult {
        mix: (a.as_str()?.to_owned(), b.as_str()?.to_owned()),
        policy: PolicyKind::parse(v.get("policy")?.as_str()?)?,
        cycles: pair("cycles")?,
        accesses: pair("accesses")?,
        l2_energy: Energy::from_pj(v.get("l2_energy_pj")?.as_f64()?),
        l3_energy: Energy::from_pj(v.get("l3_energy_pj")?.as_f64()?),
        l3_stats: decode_stats(v.get("l3_stats")?)?,
        l2_stats: decode_stats(v.get("l2_stats")?)?,
        dram_demand_traffic: v.get("dram_demand_traffic")?.as_u64()?,
        dram_total_traffic: v.get("dram_total_traffic")?.as_u64()?,
        dram_energy: decode_account(v.get("dram_energy")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::system::run_workload;

    #[test]
    fn real_results_round_trip_bit_exactly() {
        for policy in [PolicyKind::Baseline, PolicyKind::SlipAbp] {
            let spec = workloads::workload("soplex").unwrap();
            let r = run_workload(SystemConfig::paper_45nm(policy), &spec, 20_000);
            let encoded = encode_result(&r);
            let decoded = decode_result(&encoded).expect("decodes");
            // Bit-exact: re-encoding the decoded result yields the
            // same JSON text, through a parse round-trip too.
            assert_eq!(encode_result(&decoded).to_json(), encoded.to_json());
            let reparsed = Value::parse(&encoded.to_json()).expect("parses");
            let decoded2 = decode_result(&reparsed).expect("decodes");
            assert_eq!(encode_result(&decoded2).to_json(), encoded.to_json());
            assert_eq!(decoded.policy, policy);
            assert_eq!(decoded.accesses, r.accesses);
            assert_eq!(decoded.cycles, r.cycles);
            assert_eq!(decoded.l2_stats, r.l2_stats);
            assert_eq!(decoded.mmu_stats.is_some(), policy.is_slip());
        }
    }

    #[test]
    fn decode_rejects_schema_drift() {
        let spec = workloads::workload("gcc").unwrap();
        let r = run_workload(SystemConfig::paper_45nm(PolicyKind::Baseline), &spec, 5_000);
        let good = encode_result(&r);
        assert!(decode_result(&good).is_some());
        // Remove a field: decode must fail, not panic.
        let json = good.to_json().replace("\"cycles\"", "\"cycels\"");
        let bad = Value::parse(&json).unwrap();
        assert!(decode_result(&bad).is_none());
        // Unknown policy label: also a clean None.
        let json = good.to_json().replace("\"baseline\"", "\"mystery\"");
        let bad = Value::parse(&json).unwrap();
        assert!(decode_result(&bad).is_none());
    }

    #[test]
    fn wall_time_stays_out_of_the_payload_and_survives_resume() {
        // `reset_measurements()` zeroes counters but the driver stamps
        // `wall_time_secs` afterwards — the payload must not absorb that
        // host-specific asymmetry, or resumed sweeps would stop being
        // bit-identical to fresh ones.
        let spec = workloads::workload("gcc").unwrap();
        let mut r = run_workload(SystemConfig::paper_45nm(PolicyKind::SlipAbp), &spec, 5_000);
        r.wall_time_secs = 1.234;
        r.exec_mode = Some("fused");
        let payload = encode_result(&r).to_json();
        // No timing- or host-execution-derived field may appear in the
        // journal payload.
        for key in [
            "wall_time",
            "wall_secs",
            "accesses_per_sec",
            "exec_mode",
            "fused",
        ] {
            assert!(!payload.contains(key), "payload leaks {key:?}: {payload}");
        }
        // Decoding (a journal resume) yields an untimed, unlabeled
        // result whose re-encoding is byte-identical to the original's.
        let decoded = decode_result(&Value::parse(&payload).unwrap()).unwrap();
        assert_eq!(decoded.wall_time_secs, 0.0);
        assert_eq!(decoded.exec_mode, None);
        assert_eq!(encode_result(&decoded).to_json(), payload);
        // The timing fields live in the metrics object instead, where
        // a zero-wall cell reports rate 0 rather than dividing by zero.
        let (m, record_payload) = encode_record(&r, std::time::Duration::ZERO);
        assert_eq!(record_payload.to_json(), payload);
        assert_eq!(m.get("accesses_per_sec").unwrap().as_f64().unwrap(), 0.0);
        assert_eq!(m.get("sim_wall_secs").unwrap().as_f64().unwrap(), 1.234);
        assert_eq!(m.get("exec_mode").and_then(Value::as_str), Some("fused"));
    }

    #[test]
    fn metrics_carry_the_progress_keys() {
        let spec = workloads::workload("gcc").unwrap();
        let r = run_workload(SystemConfig::paper_45nm(PolicyKind::Baseline), &spec, 5_000);
        let m = result_metrics(&r, std::time::Duration::from_millis(50));
        assert!(m.get("accesses_per_sec").unwrap().as_f64().unwrap() > 0.0);
        let l2 = m.get("l2_hit_rate").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&l2));
        assert!(m.get("full_system_energy_pj").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn mix_results_round_trip_bit_exactly() {
        let spec = |n| workloads::workload(n).unwrap();
        let mut config = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        config.partitioned_l3 = true;
        let m = crate::multicore::run_mix(config, &spec("gcc"), &spec("lbm"), 5_000);
        let encoded = encode_mix(&m).to_json();
        let decoded = decode_mix(&Value::parse(&encoded).unwrap()).expect("decodes");
        assert_eq!(encode_mix(&decoded).to_json(), encoded);
        assert_eq!(decoded.mix, m.mix);
        assert_eq!(decoded.l3_stats, m.l3_stats);
        // A single-core payload is not a mix, and vice versa.
        let r = run_workload(
            SystemConfig::paper_45nm(PolicyKind::Baseline),
            &spec("gcc"),
            1_000,
        );
        assert!(decode_mix(&encode_result(&r)).is_none());
        assert!(decode_result(&encode_mix(&m)).is_none());
    }
}
