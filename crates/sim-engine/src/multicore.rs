//! The two-core, shared-L3 system of the paper's multicore evaluation
//! (Figure 16): private 32 KB L1s and 256 KB L2s per core, one shared
//! 2 MB L3, one DRAM channel. Workload pairs run interleaved with
//! disjoint address spaces (no data sharing, as in multiprogrammed
//! SPEC mixes).

use crate::config::{PolicyKind, ReplacementKind, SystemConfig};
use cache_sim::{
    AccessClass, AccessKind, AccessResult, BaselinePolicy, CacheLevel, CacheStats, Drrip,
    FillRequest, LineAddr, Lru, PageId, PlacementPolicy, ReplacementPolicy, Ship,
};
use energy_model::{Energy, EnergyAccount};
use mem_substrate::{Dram, SlipMmu};
use nuca_baselines::{LruPea, NuRapid, PeaLru};
use slip_core::{
    bin_for_distance, interleaved_partitions, PartitionedSlip, SlipLevel, SlipPlacement,
};
use workloads::WorkloadSpec;

const METADATA_BASE_LINE: u64 = 1 << 50;

type PolicyBox = Box<dyn PlacementPolicy + Send>;
type ReplBox = Box<dyn ReplacementPolicy + Send>;

struct Core {
    l1: CacheLevel,
    l2: CacheLevel,
    mmu: Option<SlipMmu>,
    l1_policy: BaselinePolicy,
    l1_repl: Lru,
    l2_policy: PolicyBox,
    l2_repl: ReplBox,
    cycles: u64,
    accesses: u64,
}

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

    /// Total cycles (max over cores — the mix finishes when the slower
    /// core does).
    pub fn total_cycles(&self) -> u64 {
        self.cycles[0].max(self.cycles[1])
    }
}

/// The two-core system.
pub struct DualCoreSystem {
    config: SystemConfig,
    cores: [Core; 2],
    l3: CacheLevel,
    /// One shared policy, or one per core when the L3 is way-partitioned
    /// (paper §7: SLIP applied within each core's partition).
    l3_policies: Vec<PolicyBox>,
    l3_repl: ReplBox,
    dram: Dram,
    l2_cum_caps: Vec<usize>,
    l3_cum_caps: Vec<usize>,
}

impl DualCoreSystem {
    /// Builds a two-core system for `config`.
    pub fn new(config: SystemConfig) -> Self {
        let l3 = config.build_l3();
        let l3_geom = l3.geometry().clone();
        let seed = config.seed;
        let cores = [0u64, 1u64].map(|i| Self::build_core(&config, seed ^ (i * 0x9999)));
        let (shared_policy, l3_repl) =
            build_policies(&config, &l3_geom, SlipLevel::L3, seed ^ 0x3333);
        let l3_policies: Vec<PolicyBox> = if config.partitioned_l3 && config.policy.is_slip() {
            // Paper §7: partition the shared cache among the cores and
            // apply SLIP within each partition.
            interleaved_partitions(&l3_geom, 2)
                .into_iter()
                .map(|part| {
                    Box::new(PartitionedSlip::new(SlipLevel::L3, &l3_geom, part)) as PolicyBox
                })
                .collect()
        } else {
            vec![shared_policy]
        };
        let l2_cum_caps = config.l2_geometry().cumulative_sublevel_lines();
        let l3_cum_caps = l3_geom.cumulative_sublevel_lines();
        DualCoreSystem {
            dram: Dram::from_pj_per_bit(config.tech.dram_pj_per_bit),
            cores,
            l3,
            l3_policies,
            l3_repl,
            l2_cum_caps,
            l3_cum_caps,
            config,
        }
    }

    fn build_core(config: &SystemConfig, seed: u64) -> Core {
        let l2 = config.build_l2();
        let l2_geom = l2.geometry().clone();
        let (l2_policy, l2_repl) = build_policies(config, &l2_geom, SlipLevel::L2, seed);
        let mmu = config.build_mmu(seed ^ 0x7);
        Core {
            l1: config.build_l1(),
            l2,
            mmu,
            l1_policy: BaselinePolicy::new(),
            l1_repl: Lru::new(),
            l2_policy,
            l2_repl,
            cycles: 0,
            accesses: 0,
        }
    }

    fn meta_line(page: PageId) -> LineAddr {
        LineAddr(METADATA_BASE_LINE + page.0 / 16)
    }

    /// Simulates one access on `core_idx`.
    pub fn step(&mut self, core_idx: usize, access: cache_sim::Access) {
        let line = access.line();
        let page = access.page();
        let core = &mut self.cores[core_idx];
        core.accesses += 1;
        let mut latency = self.config.core_cycles_per_access;

        let (slip_codes, sampling) = if let Some(mmu) = core.mmu.as_mut() {
            let t = mmu.translate_line(line);
            latency += t.extra_cycles;
            let block = mmu.block_of(line);
            let fetch = t.fetch_metadata.then_some(Self::meta_line(block));
            let wb = t.writeback_metadata_page.map(Self::meta_line);
            let codes = (t.slip_codes, t.sampling);
            if let Some(m) = fetch {
                // Overlapped with the demand access; energy/traffic only.
                self.metadata_fetch(core_idx, m);
            }
            if let Some(m) = wb {
                self.metadata_writeback(core_idx, m);
            }
            codes
        } else {
            ([0, 0], false)
        };

        let core = &mut self.cores[core_idx];
        let now = core.cycles;
        let r1 = core.l1.access(
            line,
            access.kind,
            AccessClass::Demand,
            now,
            &mut core.l1_policy,
            &mut core.l1_repl,
        );
        if let AccessResult::Hit(h) = r1 {
            core.cycles += u64::from(latency + h.latency);
            return;
        }
        latency += r1.latency();

        let r2 = core.l2.access(
            line,
            access.kind,
            AccessClass::Demand,
            now,
            core.l2_policy.as_mut(),
            core.l2_repl.as_mut(),
        );
        match r2 {
            AccessResult::Hit(h2) => {
                latency += h2.latency;
                if sampling {
                    let bin = bin_for_distance(h2.reuse_distance, &self.l2_cum_caps);
                    if let Some(mmu) = core.mmu.as_mut() {
                        mmu.record_reuse_line(line, SlipLevel::L2, bin);
                    }
                }
                self.fill_l1(core_idx, line, access.kind);
            }
            AccessResult::Miss { latency: l2_lat } => {
                latency += l2_lat;
                if sampling {
                    if let Some(mmu) = core.mmu.as_mut() {
                        mmu.record_reuse_line(line, SlipLevel::L2, self.l2_cum_caps.len());
                    }
                }
                let l3_pol_idx = core_idx % self.l3_policies.len();
                let r3 = self.l3.access(
                    line,
                    access.kind,
                    AccessClass::Demand,
                    now,
                    self.l3_policies[l3_pol_idx].as_mut(),
                    self.l3_repl.as_mut(),
                );
                match r3 {
                    AccessResult::Hit(h3) => {
                        latency += h3.latency;
                        if sampling {
                            let bin = bin_for_distance(h3.reuse_distance, &self.l3_cum_caps);
                            if let Some(mmu) = self.cores[core_idx].mmu.as_mut() {
                                mmu.record_reuse_line(line, SlipLevel::L3, bin);
                            }
                        }
                        self.fill_l2(core_idx, line, slip_codes, sampling, page);
                        self.fill_l1(core_idx, line, access.kind);
                    }
                    AccessResult::Miss { latency: l3_lat } => {
                        latency += l3_lat;
                        if sampling {
                            if let Some(mmu) = self.cores[core_idx].mmu.as_mut() {
                                mmu.record_reuse_line(line, SlipLevel::L3, self.l3_cum_caps.len());
                            }
                        }
                        latency += self.dram.read_line();
                        self.fill_l3(core_idx, line, slip_codes, sampling, page);
                        self.fill_l2(core_idx, line, slip_codes, sampling, page);
                        self.fill_l1(core_idx, line, access.kind);
                    }
                }
            }
        }
        self.cores[core_idx].cycles += u64::from(latency);
    }

    fn fill_l1(&mut self, core_idx: usize, line: LineAddr, kind: AccessKind) {
        let core = &mut self.cores[core_idx];
        let mut req = FillRequest::new(line);
        req.dirty = kind.is_write();
        let now = core.cycles;
        let out = core
            .l1
            .fill(req, now, &mut core.l1_policy, &mut core.l1_repl);
        for wb in out.writebacks {
            self.writeback_below_l1(core_idx, wb.addr);
        }
    }

    fn fill_l2(
        &mut self,
        core_idx: usize,
        line: LineAddr,
        codes: [u8; 2],
        sampling: bool,
        page: PageId,
    ) {
        let core = &mut self.cores[core_idx];
        let mut req = FillRequest::new(line);
        req.slip_codes = codes;
        req.sampling = sampling;
        req.signature = (page.0 & 0x3FFF) as u16;
        let now = core.cycles;
        let out = core
            .l2
            .fill(req, now, core.l2_policy.as_mut(), core.l2_repl.as_mut());
        for wb in out.writebacks {
            self.writeback_below_l2(wb.addr);
        }
    }

    fn fill_l3(
        &mut self,
        core_idx: usize,
        line: LineAddr,
        codes: [u8; 2],
        sampling: bool,
        page: PageId,
    ) {
        let mut req = FillRequest::new(line);
        req.slip_codes = codes;
        req.sampling = sampling;
        req.signature = (page.0 & 0x3FFF) as u16;
        let now = self.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        let idx = core_idx % self.l3_policies.len();
        let out = self.l3.fill(
            req,
            now,
            self.l3_policies[idx].as_mut(),
            self.l3_repl.as_mut(),
        );
        for _wb in out.writebacks {
            self.dram.write_line();
        }
    }

    fn writeback_below_l1(&mut self, core_idx: usize, line: LineAddr) {
        let core = &mut self.cores[core_idx];
        if core.l2.writeback_access(line, core.l2_policy.as_mut()) {
            return;
        }
        self.writeback_below_l2(line);
    }

    fn writeback_below_l2(&mut self, line: LineAddr) {
        // Writebacks only probe the movement queue; policy 0 suffices.
        if self.l3.writeback_access(line, self.l3_policies[0].as_mut()) {
            return;
        }
        self.dram.write_line();
    }

    fn metadata_fetch(&mut self, core_idx: usize, meta_line: LineAddr) -> u32 {
        let core = &mut self.cores[core_idx];
        let now = core.cycles;
        let r2 = core.l2.access(
            meta_line,
            AccessKind::Read,
            AccessClass::Metadata,
            now,
            core.l2_policy.as_mut(),
            core.l2_repl.as_mut(),
        );
        if let AccessResult::Hit(h) = r2 {
            return h.latency;
        }
        let mut latency = r2.latency();
        let idx = core_idx % self.l3_policies.len();
        let r3 = self.l3.access(
            meta_line,
            AccessKind::Read,
            AccessClass::Metadata,
            now,
            self.l3_policies[idx].as_mut(),
            self.l3_repl.as_mut(),
        );
        match r3 {
            AccessResult::Hit(h3) => latency += h3.latency,
            AccessResult::Miss { latency: l3_lat } => {
                latency += l3_lat + self.dram.read_metadata();
                let codes = self.default_codes();
                self.fill_meta_l3(core_idx, meta_line, codes);
            }
        }
        let codes = self.default_codes();
        self.fill_meta_l2(core_idx, meta_line, codes);
        latency
    }

    fn default_codes(&self) -> [u8; 2] {
        let code = slip_core::Slip::default_slip(self.l3.geometry().sublevels())
            .expect("valid sublevels")
            .code();
        [code, code]
    }

    fn fill_meta_l2(&mut self, core_idx: usize, meta_line: LineAddr, codes: [u8; 2]) {
        let core = &mut self.cores[core_idx];
        let mut req = FillRequest::new(meta_line);
        req.slip_codes = codes;
        req.signature = 0xFFFF;
        let now = core.cycles;
        let out = core
            .l2
            .fill(req, now, core.l2_policy.as_mut(), core.l2_repl.as_mut());
        for wb in out.writebacks {
            self.writeback_below_l2(wb.addr);
        }
    }

    fn fill_meta_l3(&mut self, core_idx: usize, meta_line: LineAddr, codes: [u8; 2]) {
        let mut req = FillRequest::new(meta_line);
        req.slip_codes = codes;
        req.signature = 0xFFFF;
        let now = self.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        let idx = core_idx % self.l3_policies.len();
        let out = self.l3.fill(
            req,
            now,
            self.l3_policies[idx].as_mut(),
            self.l3_repl.as_mut(),
        );
        for _wb in out.writebacks {
            self.dram.write_line();
        }
    }

    fn metadata_writeback(&mut self, core_idx: usize, meta_line: LineAddr) {
        let core = &mut self.cores[core_idx];
        if core.l2.writeback_access(meta_line, core.l2_policy.as_mut()) {
            return;
        }
        if self
            .l3
            .writeback_access(meta_line, self.l3_policies[0].as_mut())
        {
            return;
        }
        self.dram.write_metadata();
    }

    /// Runs two traces round-robin until both are exhausted.
    pub fn run<A, B>(&mut self, mut trace_a: A, mut trace_b: B)
    where
        A: Iterator<Item = cache_sim::Access>,
        B: Iterator<Item = cache_sim::Access>,
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
        self.l3.finalize();
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
            l3_energy: self.l3.energy().total() + l3_eou,
            l3_stats: self.l3.stats.clone(),
            l2_stats,
            dram_demand_traffic: self.dram.reads + self.dram.writes,
            dram_total_traffic: self.dram.reads
                + self.dram.writes
                + self.dram.metadata_reads
                + self.dram.metadata_writes,
            dram_energy: self.dram.energy(),
        }
    }
}

fn build_policies(
    config: &SystemConfig,
    geom: &cache_sim::CacheGeometry,
    level: SlipLevel,
    seed: u64,
) -> (PolicyBox, ReplBox) {
    let policy: PolicyBox = match config.policy {
        PolicyKind::Baseline => Box::new(BaselinePolicy::new()),
        PolicyKind::NuRapid => Box::new(NuRapid::new(geom)),
        PolicyKind::LruPea => Box::new(LruPea::new(geom, seed)),
        PolicyKind::Slip | PolicyKind::SlipAbp => {
            let mut p = SlipPlacement::new(level, geom);
            if config.replacement != ReplacementKind::Lru {
                p = p.with_randomized_victim_sublevel(seed ^ 0xF);
            }
            Box::new(p)
        }
    };
    let repl: ReplBox = if config.policy == PolicyKind::LruPea {
        Box::new(PeaLru::new())
    } else {
        match config.replacement {
            ReplacementKind::Lru => Box::new(Lru::new()),
            ReplacementKind::Drrip => Box::new(Drrip::new(seed ^ 0x5)),
            ReplacementKind::Ship => Box::new(Ship::new()),
        }
    };
    (policy, repl)
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
