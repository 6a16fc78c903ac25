//! The two-core, shared-L3 system of the paper's multicore evaluation
//! (Figure 16): private 32 KB L1s and 256 KB L2s per core, one shared
//! 2 MB L3, one DRAM channel. Workload pairs run interleaved with
//! disjoint address spaces (no data sharing, as in multiprogrammed
//! SPEC mixes).
//!
//! Two private cores share one LLC, and each access runs the
//! single-core walk of [`crate::system`] on its core. The LLC holds one
//! placement policy, or one per core when `partitioned_l3` confines
//! SLIP to each core's ways (paper §7). The LLC is non-inclusive.

use crate::config::{PolicyKind, PolicySeeds, SystemConfig};
use crate::system::{Core, Llc};
use cache_sim::{Access, CacheStats};
use energy_model::{Energy, EnergyAccount};
use workloads::WorkloadSpec;

/// Result of one two-core run.
#[derive(Debug, Clone)]
pub struct MulticoreResult {
    /// The two benchmark names.
    pub mix: (String, String),
    /// The placement policy that ran.
    pub policy: PolicyKind,
    /// Per-core cycles.
    pub cycles: [u64; 2],
    /// Per-core accesses.
    pub accesses: [u64; 2],
    /// Combined private-L2 energy (both cores, incl. their EOU halves).
    pub l2_energy: Energy,
    /// Shared-L3 energy (incl. the cores' L3-side EOU halves).
    pub l3_energy: Energy,
    /// Shared-L3 statistics.
    pub l3_stats: CacheStats,
    /// Combined L2 statistics.
    pub l2_stats: CacheStats,
    /// DRAM demand traffic in line transfers.
    pub dram_demand_traffic: u64,
    /// DRAM traffic including distribution metadata.
    pub dram_total_traffic: u64,
    /// DRAM energy.
    pub dram_energy: EnergyAccount,
}

impl MulticoreResult {
    /// Combined L2+L3 energy.
    pub fn l2_plus_l3_energy(&self) -> Energy {
        self.l2_energy + self.l3_energy
    }
}

/// The two-core system.
pub struct DualCoreSystem {
    config: SystemConfig,
    cores: [Core; 2],
    llc: Llc,
}

impl DualCoreSystem {
    /// Builds a two-core system for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.inclusive_llc` is set: back-invalidation
    /// reaches only the filling core's private levels, so the two-core
    /// system models a non-inclusive LLC only.
    pub fn new(config: SystemConfig) -> Self {
        assert!(
            !config.inclusive_llc,
            "the two-core system models a non-inclusive LLC"
        );
        let seeds = |s: u64| PolicySeeds {
            lru_pea: s,
            slip_victim: s ^ 0xF,
            drrip: s ^ 0x5,
        };
        let llc = Llc::new(&config, seeds(config.seed ^ 0x3333), 2);
        let cores = [0, 1].map(|i| {
            let s = config.seed ^ (i as u64 * 0x9999);
            Core::new(&config, seeds(s), s ^ 0x7, llc.slot_for(i))
        });
        DualCoreSystem { config, cores, llc }
    }

    /// Simulates one access on `core_idx`.
    pub fn step(&mut self, core_idx: usize, access: Access) {
        self.cores[core_idx].step(&mut self.llc, access);
    }

    /// Runs two traces round-robin until both are exhausted.
    pub fn run<A, B>(&mut self, mut trace_a: A, mut trace_b: B)
    where
        A: Iterator<Item = Access>,
        B: Iterator<Item = Access>,
    {
        loop {
            let a = trace_a.next();
            let b = trace_b.next();
            if a.is_none() && b.is_none() {
                break;
            }
            if let Some(acc) = a {
                self.step(0, acc);
            }
            if let Some(acc) = b {
                self.step(1, acc);
            }
        }
    }

    /// Finalizes statistics and extracts the result.
    pub fn finish(mut self, mix: (String, String)) -> MulticoreResult {
        for c in &mut self.cores {
            c.l1.finalize();
            c.l2.finalize();
        }
        let (l3, dram) = (&mut self.llc.l3, &self.llc.dram);
        l3.finalize();
        let mut l2_energy = Energy::ZERO;
        let mut l3_eou = Energy::ZERO;
        let mut l2_stats = CacheStats::new(self.cores[0].l2.geometry().sublevels());
        for c in &self.cores {
            let eou = c.mmu.as_ref().map_or(Energy::ZERO, |m| m.eou_energy());
            l2_energy += c.l2.energy().total() + eou * 0.5;
            l3_eou += eou * 0.5;
            l2_stats.merge(&c.l2.stats);
        }
        MulticoreResult {
            mix,
            policy: self.config.policy,
            cycles: [self.cores[0].cycles, self.cores[1].cycles],
            accesses: [self.cores[0].accesses, self.cores[1].accesses],
            l2_energy,
            l3_energy: l3.energy().total() + l3_eou,
            l3_stats: l3.stats.clone(),
            l2_stats,
            dram_demand_traffic: dram.reads + dram.writes,
            dram_total_traffic: dram.reads
                + dram.writes
                + dram.metadata_reads
                + dram.metadata_writes,
            dram_energy: dram.energy(),
        }
    }
}

/// Runs a two-benchmark mix for `len` accesses per core.
pub fn run_mix(
    config: SystemConfig,
    spec_a: &WorkloadSpec,
    spec_b: &WorkloadSpec,
    len: u64,
) -> MulticoreResult {
    let seed = config.seed;
    let mut system = DualCoreSystem::new(config);
    // Core 1's workload lives 2^45 bytes away so the mixes never alias.
    let trace_a = spec_a.trace(len, seed);
    let trace_b = spec_b.trace_at(len, seed ^ 0xB0B, 1 << 45);
    system.run(trace_a, trace_b);
    system.finish((spec_a.name().to_owned(), spec_b.name().to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_runs_both_cores() {
        let spec_a = workloads::workload("gcc").unwrap();
        let spec_b = workloads::workload("lbm").unwrap();
        let cfg = SystemConfig::paper_45nm(PolicyKind::Baseline);
        let r = run_mix(cfg, &spec_a, &spec_b, 20_000);
        assert_eq!(r.accesses, [20_000, 20_000]);
        assert!(r.cycles[0] > 0 && r.cycles[1] > 0);
        assert!(r.l3_stats.demand_accesses > 0);
        assert!(r.l2_energy > Energy::ZERO);
        assert!(r.l3_energy > Energy::ZERO);
    }

    #[test]
    fn slip_mix_shares_the_l3() {
        let spec_a = workloads::workload("gcc").unwrap();
        let spec_b = workloads::workload("mcf").unwrap();
        let cfg = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        let r = run_mix(cfg, &spec_a, &spec_b, 20_000);
        // Both cores' misses land in the one shared L3.
        assert_eq!(
            r.l3_stats.demand_accesses, r.l2_stats.demand_misses,
            "shared L3 sees exactly the L2 miss stream"
        );
    }

    #[test]
    fn partitioned_l3_keeps_cores_in_their_ways() {
        let spec_a = workloads::workload("gcc").unwrap();
        let spec_b = workloads::workload("lbm").unwrap();
        let mut cfg = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        cfg.partitioned_l3 = true;
        let r = run_mix(cfg, &spec_a, &spec_b, 30_000);
        // The run completes and the shared L3 still serves both cores.
        assert_eq!(r.l3_stats.demand_accesses, r.l2_stats.demand_misses);
        assert!(r.l3_energy > Energy::ZERO);
    }

    #[test]
    fn partitioned_flag_is_inert_for_baseline() {
        let spec_a = workloads::workload("gcc").unwrap();
        let spec_b = workloads::workload("lbm").unwrap();
        let mut with = SystemConfig::paper_45nm(PolicyKind::Baseline);
        with.partitioned_l3 = true;
        let without = SystemConfig::paper_45nm(PolicyKind::Baseline);
        let a = run_mix(with, &spec_a, &spec_b, 20_000);
        let b = run_mix(without, &spec_a, &spec_b, 20_000);
        assert_eq!(a.l3_stats, b.l3_stats);
    }

    #[test]
    fn disjoint_address_spaces_never_alias() {
        let spec = workloads::workload("gcc").unwrap();
        let a: Vec<_> = spec.trace(1000, 1).collect();
        let b: Vec<_> = spec.trace_at(1000, 1, 1 << 45).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.line(), y.line());
        }
    }
}
