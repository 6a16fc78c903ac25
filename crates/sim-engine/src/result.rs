//! Simulation results and the derived metrics the paper reports.

use crate::config::PolicyKind;
use cache_sim::CacheStats;
use energy_model::{Energy, EnergyAccount};
use mem_substrate::MmuStats;

/// Everything one simulation run produced.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Placement policy that ran.
    pub policy: PolicyKind,
    /// Demand accesses simulated.
    pub accesses: u64,
    /// Total cycles of the timing model.
    pub cycles: u64,
    /// L1 statistics.
    pub l1_stats: CacheStats,
    /// L2 statistics.
    pub l2_stats: CacheStats,
    /// L3 statistics.
    pub l3_stats: CacheStats,
    /// L1 energy account.
    pub l1_energy: EnergyAccount,
    /// L2 energy account.
    pub l2_energy: EnergyAccount,
    /// L3 energy account.
    pub l3_energy: EnergyAccount,
    /// Demand lines read from DRAM.
    pub dram_reads: u64,
    /// Demand lines written to DRAM.
    pub dram_writes: u64,
    /// Metadata records read from DRAM.
    pub dram_metadata_reads: u64,
    /// Metadata records written to DRAM.
    pub dram_metadata_writes: u64,
    /// DRAM energy account.
    pub dram_energy: EnergyAccount,
    /// MMU statistics (SLIP policies only).
    pub mmu_stats: Option<MmuStats>,
    /// Total EOU optimization energy.
    pub eou_energy: Energy,
    /// Core (non-cache) dynamic energy.
    pub core_energy: Energy,
    /// Host wall-clock seconds spent simulating the measured region
    /// (0.0 when untimed, e.g. results decoded from a journal — wall
    /// time is host-specific and deliberately outside the codec's
    /// bit-exact payload).
    pub wall_time_secs: f64,
    /// Execution path that actually produced this result (`"fused"` for
    /// every suite and `slip serve` cell), so A/B comparisons can't
    /// mislabel what ran. Journals written by older builds also carry
    /// `"inline"`, `"pipelined"`, `"shared"`, and `"sharded"`. `None`
    /// when the result was decoded from a journal or ran outside the
    /// suite (`slip run` steps inline). Like `wall_time_secs`,
    /// this describes *how* the host executed — it stays outside the
    /// codec's bit-exact payload.
    pub exec_mode: Option<&'static str>,
}

impl SimResult {
    /// Total L2 energy including SLIP hardware overheads and half the
    /// EOU energy (the EOU serves both levels).
    pub fn l2_total_energy(&self) -> Energy {
        self.l2_energy.total() + self.eou_energy * 0.5
    }

    /// Total L3 energy including overheads and half the EOU energy.
    pub fn l3_total_energy(&self) -> Energy {
        self.l3_energy.total() + self.eou_energy * 0.5
    }

    /// Full-system dynamic energy: core + all caches + EOU + DRAM
    /// (paper Figure 10's metric).
    pub fn full_system_energy(&self) -> Energy {
        self.core_energy
            + self.l1_energy.total()
            + self.l2_energy.total()
            + self.l3_energy.total()
            + self.eou_energy
            + self.dram_energy.total()
    }

    /// DRAM demand traffic in line transfers (reads + writebacks).
    pub fn dram_demand_traffic(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }

    /// DRAM traffic including distribution metadata.
    pub fn dram_total_traffic(&self) -> u64 {
        self.dram_demand_traffic() + self.dram_metadata_reads + self.dram_metadata_writes
    }

    /// Speedup of this run versus a baseline run of the same trace
    /// (1.0 = equal; 1.01 = 1% faster).
    ///
    /// # Panics
    ///
    /// Panics if the runs simulated different access counts.
    pub fn speedup_vs(&self, baseline: &SimResult) -> f64 {
        assert_eq!(
            self.accesses, baseline.accesses,
            "speedup requires identical traces"
        );
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Energy savings of this run's metric versus a baseline value:
    /// `1 - self/baseline` (positive = saving).
    pub fn savings(ours: Energy, baseline: Energy) -> f64 {
        1.0 - ours / baseline
    }

    /// Instructions (accesses) per cycle of the simple timing model.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.accesses as f64 / self.cycles as f64
        }
    }

    /// Simulated accesses per host wall-clock second (simulator
    /// throughput). `None` when the run was not timed.
    pub fn accesses_per_sec(&self) -> Option<f64> {
        (self.wall_time_secs > 0.0).then(|| self.accesses as f64 / self.wall_time_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(policy: PolicyKind, cycles: u64) -> SimResult {
        SimResult {
            workload: "w".into(),
            policy,
            accesses: 100,
            cycles,
            l1_stats: CacheStats::new(1),
            l2_stats: CacheStats::new(3),
            l3_stats: CacheStats::new(3),
            l1_energy: EnergyAccount::new(),
            l2_energy: EnergyAccount::new(),
            l3_energy: EnergyAccount::new(),
            dram_reads: 10,
            dram_writes: 5,
            dram_metadata_reads: 2,
            dram_metadata_writes: 1,
            dram_energy: EnergyAccount::new(),
            mmu_stats: None,
            eou_energy: Energy::from_pj(10.0),
            core_energy: Energy::from_pj(1000.0),
            wall_time_secs: 0.0,
            exec_mode: None,
        }
    }

    #[test]
    fn traffic_split() {
        let r = dummy(PolicyKind::SlipAbp, 100);
        assert_eq!(r.dram_demand_traffic(), 15);
        assert_eq!(r.dram_total_traffic(), 18);
    }

    #[test]
    fn eou_energy_split_between_levels() {
        let r = dummy(PolicyKind::SlipAbp, 100);
        assert_eq!(r.l2_total_energy().as_pj(), 5.0);
        assert_eq!(r.l3_total_energy().as_pj(), 5.0);
        // Full system counts the EOU once.
        assert_eq!(r.full_system_energy().as_pj(), 1010.0);
    }

    #[test]
    fn speedup_and_savings() {
        let base = dummy(PolicyKind::Baseline, 200);
        let fast = dummy(PolicyKind::SlipAbp, 190);
        assert!((fast.speedup_vs(&base) - 200.0 / 190.0).abs() < 1e-12);
        let s = SimResult::savings(Energy::from_pj(65.0), Energy::from_pj(100.0));
        assert!((s - 0.35).abs() < 1e-12);
    }

    #[test]
    fn ipc_guards_zero_cycles() {
        let mut r = dummy(PolicyKind::Baseline, 0);
        assert_eq!(r.ipc(), 0.0);
        r.cycles = 400;
        assert!((r.ipc() - 0.25).abs() < 1e-12);
    }
}
