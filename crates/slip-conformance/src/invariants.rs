//! Executable invariants: the paper's structural claims as runtime
//! checks.
//!
//! An [`Invariant`] observes a running [`SingleCoreSystem`] at a
//! configurable stride (and the final [`SimResult`] once) and reports
//! the first violation with the step at which it was seen. The checks
//! are *outside* the simulator — they cost nothing unless a
//! conformance run wires them in, which is the "zero-cost unless
//! enabled" contract.
//!
//! Two invariants are standalone functions rather than trait
//! implementations because they drive their own hardware: the
//! exhaustive-EOU check (the EOU's pick equals the brute-force argmin
//! over all 2^S SLIPs) and the Default-SLIP ≡ plain-cache lockstep
//! equivalence of paper
//! §3 ("the Default SLIP makes the cache behave exactly like a regular
//! cache").

use cache_sim::cache::AccessResult;
use cache_sim::rng::SplitMix64;
use cache_sim::{
    Access, AccessClass, BaselinePolicy, CacheLevel, CacheStats, FillRequest, LineAddr, Lru,
    MovementQueue,
};
use energy_model::EnergyCategory;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::{SimResult, SingleCoreSystem};
use slip_core::{
    EnergyOptimizerUnit, EouObjective, LevelModelParams, RdDistribution, Slip, SlipLevel,
    SlipPlacement,
};

/// One invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Scenario or harness description.
    pub scenario: String,
    /// Access index at which the violation was observed (`None` for
    /// result-level and standalone checks).
    pub step: Option<u64>,
    /// What exactly went wrong.
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invariant `{}` violated", self.invariant)?;
        if let Some(step) = self.step {
            write!(f, " at access {step}")?;
        }
        write!(f, "\n  scenario: {}\n  {}", self.scenario, self.detail)
    }
}

/// A runtime-checkable structural property of the simulation.
///
/// Both hooks default to "always holds", so an invariant implements
/// only the one it needs.
pub trait Invariant {
    /// Name used in reports.
    fn name(&self) -> &'static str;

    /// Checks the live system state; called every stride accesses and
    /// once after the trace ends.
    fn check_system(
        &mut self,
        _system: &SingleCoreSystem,
        _config: &SystemConfig,
        _step: u64,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Checks the finished result.
    fn check_result(&mut self, _result: &SimResult) -> Result<(), String> {
        Ok(())
    }
}

/// Paper §3: within every set, valid lines carry pairwise-distinct LRU
/// sequence numbers (the stack property the replacement policies assume).
pub struct LruStackProperty;

impl Invariant for LruStackProperty {
    fn name(&self) -> &'static str {
        "lru-stack-property"
    }

    fn check_system(
        &mut self,
        system: &SingleCoreSystem,
        _config: &SystemConfig,
        _step: u64,
    ) -> Result<(), String> {
        for (label, level) in [("L2", system.l2()), ("L3", system.l3())] {
            let geom = level.geometry();
            let mut seqs: Vec<u64> = Vec::with_capacity(geom.ways);
            for set in 0..geom.sets {
                seqs.clear();
                for way in 0..geom.ways {
                    let line = level.line_at(set, way);
                    if line.valid {
                        seqs.push(line.lru_seq);
                    }
                }
                seqs.sort_unstable();
                if seqs.windows(2).any(|w| w[0] == w[1]) {
                    return Err(format!(
                        "{label} set {set} has duplicate lru_seq among valid lines: {seqs:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Paper §4.3: SLIP never promotes on a hit — lines only move *down*
/// their SLIP's chunks. (NuRAPID and LRU-PEA promote by design, so the
/// check applies to SLIP policies only.)
pub struct NoPromoteOnHit;

impl Invariant for NoPromoteOnHit {
    fn name(&self) -> &'static str {
        "no-promote-on-hit"
    }

    fn check_system(
        &mut self,
        system: &SingleCoreSystem,
        config: &SystemConfig,
        _step: u64,
    ) -> Result<(), String> {
        if !config.policy.is_slip() && config.policy != PolicyKind::Baseline {
            return Ok(());
        }
        for (label, level) in [("L2", system.l2()), ("L3", system.l3())] {
            if level.stats.promotions != 0 {
                return Err(format!(
                    "{label} recorded {} promotions under {:?}",
                    level.stats.promotions, config.policy
                ));
            }
        }
        Ok(())
    }
}

/// Paper §5: the movement queue is a 16-entry structure; occupancy may
/// never exceed its capacity.
pub struct MovementQueueBound;

impl Invariant for MovementQueueBound {
    fn name(&self) -> &'static str {
        "movement-queue-bound"
    }

    fn check_system(
        &mut self,
        system: &SingleCoreSystem,
        _config: &SystemConfig,
        _step: u64,
    ) -> Result<(), String> {
        for (label, level) in [("L2", system.l2()), ("L3", system.l3())] {
            let q: &MovementQueue = &level.movement_queue;
            if q.occupancy() > q.capacity() {
                return Err(format!(
                    "{label} movement queue occupancy {} exceeds capacity {}",
                    q.occupancy(),
                    q.capacity()
                ));
            }
        }
        Ok(())
    }
}

/// Counter and energy conservation: hits + misses == accesses at every
/// level, sublevel hit counts sum to the hit totals, insertion classes
/// account for every fill (cached or bypassed), and each energy account
/// decomposes exactly into its Figure 11 category groups.
pub struct AccountingConservation;

fn check_stats(label: &str, s: &CacheStats) -> Result<(), String> {
    if s.demand_hits + s.demand_misses != s.demand_accesses {
        return Err(format!(
            "{label}: demand hits {} + misses {} != accesses {}",
            s.demand_hits, s.demand_misses, s.demand_accesses
        ));
    }
    if s.metadata_hits + s.metadata_misses != s.metadata_accesses {
        return Err(format!(
            "{label}: metadata hits {} + misses {} != accesses {}",
            s.metadata_hits, s.metadata_misses, s.metadata_accesses
        ));
    }
    let sublevel_hits: u64 = s.hits_per_sublevel.iter().sum();
    if sublevel_hits != s.demand_hits + s.metadata_hits {
        return Err(format!(
            "{label}: sublevel hits {} != demand {} + metadata {} hits",
            sublevel_hits, s.demand_hits, s.metadata_hits
        ));
    }
    let classes: u64 = s.insertion_class.iter().sum();
    if classes != s.insertions + s.bypasses {
        return Err(format!(
            "{label}: insertion classes {} != insertions {} + bypasses {}",
            classes, s.insertions, s.bypasses
        ));
    }
    Ok(())
}

impl Invariant for AccountingConservation {
    fn name(&self) -> &'static str {
        "accounting-conservation"
    }

    fn check_result(&mut self, r: &SimResult) -> Result<(), String> {
        check_stats("L1", &r.l1_stats)?;
        check_stats("L2", &r.l2_stats)?;
        check_stats("L3", &r.l3_stats)?;
        for (label, acct) in [
            ("L1", &r.l1_energy),
            ("L2", &r.l2_energy),
            ("L3", &r.l3_energy),
            ("DRAM", &r.dram_energy),
        ] {
            let parts = acct.access_energy()
                + acct.movement_energy()
                + acct.overhead_energy()
                + acct.get(EnergyCategory::Dram);
            // Exact: both sides fold the same category array.
            if (parts - acct.total()).as_pj().abs() > 1e-9 {
                return Err(format!(
                    "{label}: categories sum to {} but total is {}",
                    parts,
                    acct.total()
                ));
            }
        }
        if r.policy == PolicyKind::Baseline {
            for (label, acct) in [("L2", &r.l2_energy), ("L3", &r.l3_energy)] {
                if !acct.overhead_energy().is_zero() {
                    return Err(format!(
                        "{label}: baseline run charged SLIP overhead energy {}",
                        acct.overhead_energy()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The default invariant set checked by `slip check`.
pub fn standard_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(LruStackProperty),
        Box::new(NoPromoteOnHit),
        Box::new(MovementQueueBound),
        Box::new(AccountingConservation),
    ]
}

/// Replays `trace` under `config`, running every invariant's system
/// hook each `stride` accesses and the result hooks at the end.
/// Returns the result on success, the first violation otherwise.
pub fn run_with_invariants(
    config: SystemConfig,
    scenario: &str,
    trace: &[Access],
    stride: u64,
    invariants: &mut [Box<dyn Invariant>],
) -> Result<SimResult, Violation> {
    let check_config = config.clone();
    let mut system = SingleCoreSystem::new(config);
    for (i, access) in trace.iter().enumerate() {
        system.step(*access);
        let step = i as u64 + 1;
        if step.is_multiple_of(stride) || step == trace.len() as u64 {
            for inv in invariants.iter_mut() {
                if let Err(detail) = inv.check_system(&system, &check_config, step) {
                    return Err(Violation {
                        invariant: inv.name(),
                        scenario: scenario.to_string(),
                        step: Some(step),
                        detail,
                    });
                }
            }
        }
    }
    let result = system.finish(scenario.to_owned());
    for inv in invariants.iter_mut() {
        if let Err(detail) = inv.check_result(&result) {
            return Err(Violation {
                invariant: inv.name(),
                scenario: scenario.to_string(),
                step: None,
                detail,
            });
        }
    }
    Ok(result)
}

fn level_params() -> (LevelModelParams, LevelModelParams) {
    let tech = SystemConfig::paper_45nm(PolicyKind::SlipAbp).tech;
    (
        LevelModelParams::from_level(&tech.l2, tech.l3.mean_access()),
        LevelModelParams::from_level(&tech.l3, tech.dram_line_energy()),
    )
}

/// Brute-force argmin over every SLIP, replicating the EOU tie-break:
/// start from the Default SLIP, prefer strictly lower energy, skip the
/// All-Bypass Policy when forbidden.
fn exhaustive_best(eou: &EnergyOptimizerUnit, probs: &[f64]) -> (Slip, f64) {
    let sublevels = probs.len() - 1;
    let mut best = Slip::default_slip(sublevels).expect("valid sublevel count");
    let mut best_e = eou.evaluate(best, probs).as_pj();
    for slip in Slip::enumerate(sublevels) {
        if slip.is_all_bypass() && !eou.allows_all_bypass() {
            continue;
        }
        let e = eou.evaluate(slip, probs).as_pj();
        if e < best_e {
            best = slip;
            best_e = e;
        }
    }
    (best, best_e)
}

/// Checks, over `iters` random reuse-distance distributions per
/// configuration, that the EOU's scratch-buffer argmin, the allocating
/// reference path, and an exhaustive enumeration over all 2^S SLIPs agree
/// bit-for-bit — for both cache levels, both objectives, and with the
/// All-Bypass Policy allowed and forbidden.
pub fn check_eou_exhaustive(seed: u64, iters: u64) -> Result<(), Violation> {
    let (l2, l3) = level_params();
    let mut rng = SplitMix64::new(seed ^ 0xE0_0E0);
    for (level, params) in [("L2", &l2), ("L3", &l3)] {
        for objective in [EouObjective::InsertionAware, EouObjective::PaperLiteral] {
            for allow_abp in [true, false] {
                let mut eou = EnergyOptimizerUnit::with_objective(params, objective);
                if !allow_abp {
                    eou = eou.forbid_all_bypass();
                }
                let scenario = format!("level={level} objective={objective:?} abp={allow_abp}");
                for i in 0..iters {
                    let mut dist = RdDistribution::paper_default();
                    // Random profile, occasionally empty or saturated.
                    let observations = if i % 7 == 0 { 0 } else { rng.next_below(64) };
                    for _ in 0..observations {
                        dist.observe(rng.next_below(4) as usize);
                    }
                    let kernel = eou.optimize(&dist);
                    let reference = eou.optimize_reference(&dist);
                    if kernel.slip != reference.slip
                        || kernel.estimated_energy.as_pj().to_bits()
                            != reference.estimated_energy.as_pj().to_bits()
                    {
                        return Err(Violation {
                            invariant: "eou-kernel-vs-reference",
                            scenario,
                            step: Some(i),
                            detail: format!(
                                "kernel {:?}@{} vs reference {:?}@{} for {:?}",
                                kernel.slip,
                                kernel.estimated_energy,
                                reference.slip,
                                reference.estimated_energy,
                                dist
                            ),
                        });
                    }
                    if dist.is_empty() {
                        if !kernel.slip.is_default() {
                            return Err(Violation {
                                invariant: "eou-empty-dist-default",
                                scenario,
                                step: Some(i),
                                detail: format!("empty profile produced {:?}", kernel.slip),
                            });
                        }
                        continue;
                    }
                    let probs = dist.probabilities();
                    let (best, _) = exhaustive_best(&eou, &probs);
                    if kernel.slip != best {
                        return Err(Violation {
                            invariant: "eou-exhaustive-argmin",
                            scenario,
                            step: Some(i),
                            detail: format!(
                                "kernel chose {:?} but exhaustive argmin is {:?} for {:?}",
                                kernel.slip, best, dist
                            ),
                        });
                    }
                    if !allow_abp && kernel.slip.is_all_bypass() {
                        return Err(Violation {
                            invariant: "eou-abp-forbidden",
                            scenario,
                            step: Some(i),
                            detail: format!("ABP chosen while forbidden for {:?}", dist),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Paper §3: a SLIP cache whose every fill carries the Default SLIP is
/// indistinguishable from a regular cache. Drives two identical
/// geometries — one under [`BaselinePolicy`], one under
/// [`SlipPlacement`] with Default-SLIP fills — in lockstep over a
/// random access stream and compares hit/miss, hit way, eviction
/// stream, and final statistics.
pub fn check_default_slip_equivalence(seed: u64, accesses: u64) -> Result<(), Violation> {
    let violation = |step: Option<u64>, detail: String| Violation {
        invariant: "default-slip-plain-cache-equivalence",
        scenario: format!("seed={seed:#x} accesses={accesses}"),
        step,
        detail,
    };
    // The paper's L2 geometry; identical `total_lines` seeds identical
    // victim-selection RNG streams in both levels, keeping the lockstep
    // comparison meaningful.
    let geom = || SystemConfig::paper_45nm(PolicyKind::Baseline).l2_geometry();
    let mut plain = CacheLevel::new("plain", geom());
    let mut slip = CacheLevel::new("default-slip", geom());
    let mut plain_policy = BaselinePolicy::new();
    let mut slip_policy = SlipPlacement::new(SlipLevel::L2, &geom());
    let mut plain_repl = Lru::new();
    let mut slip_repl = Lru::new();
    let default_code = Slip::default_slip(3).expect("3 sublevels").code();

    let mut rng = SplitMix64::new(seed ^ 0xDE_FA17);
    for step in 0..accesses {
        let line = LineAddr(rng.next_below(8 * 256 * 16));
        let kind = if rng.one_in(4) {
            cache_sim::AccessKind::Write
        } else {
            cache_sim::AccessKind::Read
        };
        let a = plain.access(
            line,
            kind,
            AccessClass::Demand,
            step,
            &mut plain_policy,
            &mut plain_repl,
        );
        let b = slip.access(
            line,
            kind,
            AccessClass::Demand,
            step,
            &mut slip_policy,
            &mut slip_repl,
        );
        if a.is_hit() != b.is_hit() {
            return Err(violation(
                Some(step),
                format!(
                    "line {line:?}: plain hit={} slip hit={}",
                    a.is_hit(),
                    b.is_hit()
                ),
            ));
        }
        if let (AccessResult::Hit(_), AccessResult::Hit(_)) = (&a, &b) {
            if plain.probe_way(line) != slip.probe_way(line) {
                return Err(violation(
                    Some(step),
                    format!(
                        "line {line:?} resides in way {:?} (plain) vs {:?} (default SLIP)",
                        plain.probe_way(line),
                        slip.probe_way(line)
                    ),
                ));
            }
            continue;
        }
        let mut req = FillRequest::new(line);
        req.dirty = kind == cache_sim::AccessKind::Write;
        req.slip_codes = [default_code, default_code];
        let oa = plain.fill(req, step, &mut plain_policy, &mut plain_repl);
        let ob = slip.fill(req, step, &mut slip_policy, &mut slip_repl);
        if ob.bypassed {
            return Err(violation(Some(step), "Default-SLIP fill bypassed".into()));
        }
        // Evicted lines must match by address and dirtiness; SLIP
        // metadata on the evicted copies legitimately differs.
        let key = |o: &cache_sim::FillOutcome| {
            let mut v: Vec<(u64, bool)> = o.evicted().map(|e| (e.addr.0, e.dirty)).collect();
            v.sort_unstable();
            v
        };
        if key(&oa) != key(&ob) {
            return Err(violation(
                Some(step),
                format!("eviction streams differ: {:?} vs {:?}", key(&oa), key(&ob)),
            ));
        }
    }
    let (p, s) = (&plain.stats, &slip.stats);
    let pairs = [
        ("demand_hits", p.demand_hits, s.demand_hits),
        ("demand_misses", p.demand_misses, s.demand_misses),
        ("insertions", p.insertions, s.insertions),
        ("evictions", p.evictions, s.evictions),
        ("writebacks", p.writebacks, s.writebacks),
        ("movements", 0, s.movements),
        (
            "resident",
            plain.resident_lines() as u64,
            slip.resident_lines() as u64,
        ),
    ];
    for (name, a, b) in pairs {
        if a != b {
            return Err(violation(
                None,
                format!("final {name} differ: plain {a} vs default-SLIP {b}"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::{self, Pattern};

    #[test]
    fn standard_invariants_hold_on_adversarial_traces() {
        for (pattern, policy) in [
            (Pattern::ConflictStorm, PolicyKind::SlipAbp),
            (Pattern::TagAlias, PolicyKind::Slip),
            (Pattern::SingleLineLoop, PolicyKind::Baseline),
            (Pattern::RandomMix, PolicyKind::NuRapid),
        ] {
            let trace = adversarial::generate(pattern, 0x511b, 3_000);
            let config = SystemConfig::paper_45nm(policy);
            let result = run_with_invariants(
                config,
                &format!("{pattern}/{policy:?}"),
                &trace,
                512,
                &mut standard_invariants(),
            );
            match result {
                Ok(r) => assert_eq!(r.accesses, 3_000),
                Err(v) => panic!("{v}"),
            }
        }
    }

    #[test]
    fn eou_matches_exhaustive_enumeration() {
        if let Err(v) = check_eou_exhaustive(0x511b, 40) {
            panic!("{v}");
        }
    }

    #[test]
    fn default_slip_equals_plain_cache() {
        if let Err(v) = check_default_slip_equivalence(0x511b, 20_000) {
            panic!("{v}");
        }
    }

    #[test]
    fn violations_render_with_context() {
        let v = Violation {
            invariant: "demo",
            scenario: "unit".into(),
            step: Some(7),
            detail: "something drifted".into(),
        };
        let text = v.to_string();
        assert!(text.contains("demo") && text.contains("access 7"));
    }
}
