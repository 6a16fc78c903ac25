//! The full-hierarchy simulation driver and its one hierarchy walk.
//!
//! Each demand access flows core → (MMU, for SLIP) → L1 → L2 → L3 →
//! DRAM, with fills propagating back up, writebacks flowing down
//! (write-no-allocate below L1), SLIP distribution-metadata traffic
//! injected at the L2 (it is TLB-side, not core-side), and reuse
//! distances recorded for sampling pages. The hierarchy is
//! non-inclusive unless configured otherwise, which is what makes the
//! All-Bypass Policy legal (paper §4.3).
//!
//! The walk is split at the last level. A `Core` holds one core's
//! private side (L1, L2, SLIP MMU, their policies, its clock); an `Llc`
//! holds the side every core shares (L3, its policies, DRAM). A
//! [`SingleCoreSystem`] is one core plus one LLC, and
//! [`crate::multicore::DualCoreSystem`] is two cores sharing one. Every
//! access, whether it steps its own L1, consumes a fused group's shared
//! L1 verdict, or runs on either core of the two-core system, goes
//! through the same `Core::translate` and `Core::below_l1`.
//!
//! [`SingleCoreSystem::step_fast`] puts an L1 fast path in front of the
//! walk: an L1 hit on a TLB-resident line retires through the cache's
//! structure-of-arrays probe and way memo (`CacheLevel::try_demand_hit`)
//! and is credited its access and cycles on the spot; anything else
//! falls into the walk. Below the L1 the walk keeps LRU order in the
//! same packed per-set stacks wherever `SystemConfig` allows
//! (`Lru`-replaced L2/L3 of at most 16 ways, NuRAPID and LRU-PEA
//! excepted), and a warmed walk allocates nothing. The fast probe and
//! the memo are there for L1-hit-heavy replays (the repo benchmark's
//! `cell_l1`, a 98.6%-L1-hit `.trc` replay); the probe backoff keeps
//! their failed probes off runs that almost never hit the L1
//! (`cell_llc`, the built-in profiles).
//! Every path is bit-identical to `reference_hot_path = true`.

use crate::config::{PolicySeeds, SystemConfig};
use crate::dispatch::{AnyPlacement, AnyReplacement};
use crate::result::SimResult;
use cache_sim::{
    Access, AccessClass, AccessKind, AccessResult, BaselinePolicy, CacheLevel, FillOutcome,
    FillRequest, LineAddr, Lru, PageId,
};
use energy_model::Energy;
use mem_substrate::{Dram, SlipMmu};
use slip_core::{bin_for_distance, interleaved_partitions, PartitionedSlip, Slip, SlipLevel};
use workloads::WorkloadSpec;

/// Line address region where per-page distribution metadata lives.
/// 16 pages' worth of 32 b records pack into each 64 B line.
const METADATA_BASE_LINE: u64 = 1 << 50;

/// Ceiling on the fast-path probe backoff: with near-zero L1 hit
/// rates the fast path settles into one probe per 64 accesses (~1.5%
/// residual overhead), while a single fast hit re-arms it instantly.
const FAST_BACKOFF_MAX: u32 = 64;

/// The metadata line holding `page`'s packed distribution record.
fn meta_line(page: PageId) -> LineAddr {
    LineAddr(METADATA_BASE_LINE + page.0 / 16)
}

/// One core's private side of the hierarchy: L1, L2, the SLIP MMU (SLIP
/// policies only), their policies and the core's clock.
pub(crate) struct Core {
    pub(crate) l1: CacheLevel,
    pub(crate) l2: CacheLevel,
    pub(crate) mmu: Option<SlipMmu>,
    l1_policy: BaselinePolicy,
    l1_repl: Lru,
    l2_policy: AnyPlacement,
    l2_repl: AnyReplacement,
    l2_cum_caps: Vec<usize>,
    /// Which of the LLC's placement policies serves this core.
    llc_slot: usize,
    /// Core cycles per access besides memory latency.
    cycles_per_access: u32,
    pub(crate) cycles: u64,
    pub(crate) accesses: u64,
}

/// The last-level side every core shares: the L3, its policies, DRAM.
pub(crate) struct Llc {
    pub(crate) l3: CacheLevel,
    /// One shared placement policy, or one per core when a SLIP L3 is
    /// way-partitioned (paper §7: SLIP within each core's partition).
    policies: Vec<AnyPlacement>,
    repl: AnyReplacement,
    pub(crate) dram: Dram,
    cum_caps: Vec<usize>,
    /// The codes metadata lines carry: the Default SLIP, so they behave
    /// like regular residents without recursive profiling (L2 and L3
    /// share their sublevel count).
    meta_codes: [u8; 2],
    /// Inclusive LLC: an L3 eviction back-invalidates the filling
    /// core's L1/L2, and an L3-bypassed line is served uncached.
    inclusive: bool,
    /// Reusable fill-outcome buffer: every fill at every level writes
    /// into this scratch via `fill_into`, so the steady-state access
    /// loop performs no per-access allocation. Writeback routing never
    /// re-enters a fill, so a fill takes it for the length of its loop.
    fill_scratch: FillOutcome,
}

/// How a demand miss refills the L1 once the levels below served it.
pub(crate) enum L1Fill<'a> {
    /// The core fills its own L1 (write-allocate: stores dirty it).
    Own,
    /// A fused group's shared L1 already filled; these are the dirty
    /// victims it evicted, in eviction order.
    Shared(&'a [LineAddr]),
}

impl Llc {
    /// Builds the LLC of a system with `cores` cores.
    pub(crate) fn new(config: &SystemConfig, seeds: PolicySeeds, cores: usize) -> Llc {
        let l3 = config.build_l3();
        let geom = l3.geometry();
        let (shared, repl) = config.build_policies(SlipLevel::L3, geom, seeds);
        let policies = if cores > 1 && config.partitioned_l3 && config.policy.is_slip() {
            interleaved_partitions(geom, cores)
                .into_iter()
                .map(|part| {
                    AnyPlacement::Partitioned(PartitionedSlip::new(SlipLevel::L3, geom, part))
                })
                .collect()
        } else {
            vec![shared]
        };
        let cum_caps = geom.cumulative_sublevel_lines();
        let code = Slip::default_slip(geom.sublevels())
            .expect("valid sublevels")
            .code();
        Llc {
            l3,
            policies,
            repl,
            dram: Dram::from_pj_per_bit(config.tech.dram_pj_per_bit),
            cum_caps,
            meta_codes: [code, code],
            inclusive: config.inclusive_llc,
            fill_scratch: FillOutcome::default(),
        }
    }

    /// The placement-policy slot serving core `core`.
    pub(crate) fn slot_for(&self, core: usize) -> usize {
        core % self.policies.len()
    }

    /// Offers a dirty line to the L3 (write-no-allocate); `false` when
    /// it misses and must go on to DRAM. Writebacks only probe the
    /// movement queue, which every slot's policy agrees on.
    fn absorb_writeback(&mut self, line: LineAddr, slot: usize) -> bool {
        self.l3.writeback_access(line, &mut self.policies[slot])
    }
}

impl Core {
    /// Builds one core: `seeds` drive its L2 policies, `mmu_seed` its
    /// SLIP MMU, and `llc_slot` picks its LLC placement policy.
    pub(crate) fn new(
        config: &SystemConfig,
        seeds: PolicySeeds,
        mmu_seed: u64,
        llc_slot: usize,
    ) -> Core {
        let l2 = config.build_l2();
        let (l2_policy, l2_repl) = config.build_policies(SlipLevel::L2, l2.geometry(), seeds);
        let l2_cum_caps = l2.geometry().cumulative_sublevel_lines();
        Core {
            l1: config.build_l1(),
            l2,
            mmu: config.build_mmu(mmu_seed),
            l1_policy: BaselinePolicy::new(),
            l1_repl: Lru::new(),
            l2_policy,
            l2_repl,
            l2_cum_caps,
            llc_slot,
            cycles_per_access: config.core_cycles_per_access,
            cycles: 0,
            accesses: 0,
        }
    }

    /// One demand access through this core's own L1. Kept out of line
    /// so the L1 fast path that falls back to it stays small.
    #[inline(never)]
    pub(crate) fn step(&mut self, llc: &mut Llc, access: Access) {
        let (latency, req) = self.translate(llc, access);
        let r1 = self.l1.access(
            req.addr,
            access.kind,
            AccessClass::Demand,
            self.cycles,
            &mut self.l1_policy,
            &mut self.l1_repl,
        );
        if r1.is_hit() {
            self.cycles += u64::from(latency + r1.latency());
        } else {
            self.below_l1(llc, access.kind, latency + r1.latency(), req, L1Fill::Own);
        }
    }

    /// Counts a demand access and translates it (SLIP only), issuing the
    /// distribution-metadata traffic a TLB miss or eviction causes.
    /// Returns the latency accrued so far and the request the levels
    /// below the L1 fill the line with.
    ///
    /// This and [`Self::below_l1`] are inlined into every caller, so each
    /// entry point compiles to one straight walk; as out-of-line calls
    /// they made a step about 10% slower.
    #[inline(always)]
    pub(crate) fn translate(&mut self, llc: &mut Llc, access: Access) -> (u32, FillRequest) {
        self.accesses += 1;
        let line = access.line();
        let mut req = FillRequest::new(line);
        // SHiP signature of the page.
        req.signature = (access.page().0 & 0x3FFF) as u16;
        let Some(mmu) = self.mmu.as_mut() else {
            return (self.cycles_per_access, req);
        };
        let t = mmu.translate_line(line);
        req.slip_codes = t.slip_codes;
        req.sampling = t.sampling;
        if t.fetch_metadata {
            // The distribution fetch overlaps the demand access (it
            // feeds the TLB, not the load); only its energy and traffic
            // are charged, not its latency.
            let block = mmu.block_of(line);
            self.metadata_fetch(llc, meta_line(block));
        }
        if let Some(page) = t.writeback_metadata_page {
            self.metadata_writeback(llc, meta_line(page));
        }
        (self.cycles_per_access + t.extra_cycles, req)
    }

    /// Serves an L1 miss from L2, L3 or DRAM, fills the levels back up
    /// (the L1 as `l1` says), and advances the clock by `latency` plus
    /// the cycles spent below the L1.
    #[inline(always)]
    pub(crate) fn below_l1(
        &mut self,
        llc: &mut Llc,
        kind: AccessKind,
        mut latency: u32,
        req: FillRequest,
        l1: L1Fill<'_>,
    ) {
        let line = req.addr;
        let r2 = self.l2.access(
            line,
            kind,
            AccessClass::Demand,
            self.cycles,
            &mut self.l2_policy,
            &mut self.l2_repl,
        );
        latency += r2.latency();
        if let AccessResult::Hit(h2) = r2 {
            if req.sampling {
                let bin = bin_for_distance(h2.reuse_distance, &self.l2_cum_caps);
                self.record_reuse(line, SlipLevel::L2, bin);
            }
            self.fill_l1(llc, line, kind, l1);
        } else {
            if req.sampling {
                self.record_reuse(line, SlipLevel::L2, self.l2_cum_caps.len());
            }
            let r3 = llc.l3.access(
                line,
                kind,
                AccessClass::Demand,
                self.cycles,
                &mut llc.policies[self.llc_slot],
                &mut llc.repl,
            );
            latency += r3.latency();
            let cached_above = match r3 {
                AccessResult::Hit(h3) => {
                    if req.sampling {
                        let bin = bin_for_distance(h3.reuse_distance, &llc.cum_caps);
                        self.record_reuse(line, SlipLevel::L3, bin);
                    }
                    true
                }
                AccessResult::Miss { .. } => {
                    if req.sampling {
                        self.record_reuse(line, SlipLevel::L3, llc.cum_caps.len());
                    }
                    latency += llc.dram.read_line();
                    let inclusive = llc.inclusive;
                    // An inclusive LLC cannot hold a copy above a line
                    // it does not hold (paper §4.3): a line the L3
                    // bypassed is served uncached.
                    !(self.fill_l3(llc, req, inclusive) && inclusive)
                }
            };
            if cached_above {
                self.fill_l2(llc, req);
                self.fill_l1(llc, line, kind, l1);
            }
        }
        self.cycles += u64::from(latency);
    }

    fn record_reuse(&mut self, line: LineAddr, level: SlipLevel, bin: usize) {
        if let Some(mmu) = self.mmu.as_mut() {
            mmu.record_reuse_line(line, level, bin);
        }
    }

    /// Refills the L1 after a miss and routes its dirty victims down.
    fn fill_l1(&mut self, llc: &mut Llc, line: LineAddr, kind: AccessKind, l1: L1Fill<'_>) {
        match l1 {
            L1Fill::Own => {
                let mut req = FillRequest::new(line);
                req.dirty = kind.is_write();
                let mut out = core::mem::take(&mut llc.fill_scratch);
                self.l1.fill_into(
                    req,
                    self.cycles,
                    &mut self.l1_policy,
                    &mut self.l1_repl,
                    &mut out,
                );
                for wb in &out.writebacks {
                    self.writeback_below_l1(llc, wb.addr);
                }
                llc.fill_scratch = out;
            }
            L1Fill::Shared(writebacks) => {
                for &wb in writebacks {
                    self.writeback_below_l1(llc, wb);
                }
            }
        }
    }

    fn fill_l2(&mut self, llc: &mut Llc, req: FillRequest) {
        let mut out = core::mem::take(&mut llc.fill_scratch);
        self.l2.fill_into(
            req,
            self.cycles,
            &mut self.l2_policy,
            &mut self.l2_repl,
            &mut out,
        );
        for wb in &out.writebacks {
            if !llc.absorb_writeback(wb.addr, self.llc_slot) {
                llc.dram.write_line();
            }
        }
        llc.fill_scratch = out;
    }

    /// Fills the L3 from DRAM; returns whether the L3 bypassed the line.
    /// With `back_invalidate`, every line leaving the L3 also leaves
    /// this core's L1/L2.
    fn fill_l3(&mut self, llc: &mut Llc, req: FillRequest, back_invalidate: bool) -> bool {
        let mut out = core::mem::take(&mut llc.fill_scratch);
        llc.l3.fill_into(
            req,
            self.cycles,
            &mut llc.policies[self.llc_slot],
            &mut llc.repl,
            &mut out,
        );
        for wb in &out.writebacks {
            llc.dram.write_line();
            if back_invalidate {
                self.back_invalidate(llc, wb.addr);
            }
        }
        if back_invalidate {
            for ev in &out.clean_evictions {
                self.back_invalidate(llc, ev.addr);
            }
        }
        let bypassed = out.bypassed;
        llc.fill_scratch = out;
        bypassed
    }

    /// Inclusive-LLC back-invalidation: a line leaving the L3 must also
    /// leave the levels above; dirty upper copies go straight to DRAM
    /// (their L3 copy is gone).
    fn back_invalidate(&mut self, llc: &mut Llc, line: LineAddr) {
        let dirty_above = self.l1.invalidate(line).is_some_and(|e| e.dirty)
            | self.l2.invalidate(line).is_some_and(|e| e.dirty);
        if dirty_above {
            llc.dram.write_line();
        }
    }

    /// Routes an L1 dirty eviction down the hierarchy
    /// (write-no-allocate at L2/L3).
    fn writeback_below_l1(&mut self, llc: &mut Llc, line: LineAddr) {
        if !self.l2.writeback_access(line, &mut self.l2_policy)
            && !llc.absorb_writeback(line, self.llc_slot)
        {
            llc.dram.write_line();
        }
    }

    /// Fetches a page's 32 b distribution record through L2 → L3 → DRAM
    /// (metadata class) and fills the metadata line into the caches.
    fn metadata_fetch(&mut self, llc: &mut Llc, meta: LineAddr) {
        let r2 = self.l2.access(
            meta,
            AccessKind::Read,
            AccessClass::Metadata,
            self.cycles,
            &mut self.l2_policy,
            &mut self.l2_repl,
        );
        if r2.is_hit() {
            return;
        }
        let mut req = FillRequest::new(meta);
        req.slip_codes = llc.meta_codes;
        req.signature = 0xFFFF;
        let r3 = llc.l3.access(
            meta,
            AccessKind::Read,
            AccessClass::Metadata,
            self.cycles,
            &mut llc.policies[self.llc_slot],
            &mut llc.repl,
        );
        if !r3.is_hit() {
            llc.dram.read_metadata();
            // Metadata fills never back-invalidate.
            self.fill_l3(llc, req, false);
        }
        self.fill_l2(llc, req);
    }

    /// Writes a page's distribution record back (TLB eviction of a
    /// sampling page).
    fn metadata_writeback(&mut self, llc: &mut Llc, meta: LineAddr) {
        if !self.l2.writeback_access(meta, &mut self.l2_policy)
            && !llc.absorb_writeback(meta, self.llc_slot)
        {
            llc.dram.write_metadata();
        }
    }
}

/// A complete single-core system: L1 + L2 + L3 + DRAM (+ SLIP MMU).
pub struct SingleCoreSystem {
    config: SystemConfig,
    core: Core,
    llc: Llc,
    /// Whether the L1 fast path is armed (`!reference_hot_path`):
    /// [`Self::step_fast`] retires L1 hits through the SoA probe.
    fast_path: bool,
    /// Accesses left to route straight to [`Self::step`] before the
    /// fast path is probed again. The workload generator models reuse
    /// at L2/L3 scale, so many benchmarks have near-zero L1 hit rates;
    /// exponential backoff keeps the failed-probe overhead (a TLB map
    /// lookup plus an L1 tag probe that `step` then repeats) off such
    /// runs. Purely an execution-strategy knob: whichever path an
    /// access takes, the result is bit-identical.
    fast_backoff: u32,
    /// Next backoff length after another fast-path fallback; doubles to
    /// [`FAST_BACKOFF_MAX`], reset to 1 by any fast hit.
    fast_penalty: u32,
}

impl SingleCoreSystem {
    /// Builds a system for `config`.
    pub fn new(config: SystemConfig) -> Self {
        let seed = config.seed;
        let l2_seeds = PolicySeeds {
            lru_pea: seed ^ 0xA,
            slip_victim: seed ^ 0xC,
            drrip: seed ^ 0x22,
        };
        let l3_seeds = PolicySeeds {
            lru_pea: seed ^ 0xB,
            slip_victim: seed ^ 0xD,
            drrip: seed ^ 0x33,
        };
        SingleCoreSystem {
            core: Core::new(&config, l2_seeds, seed ^ 0x1, 0),
            llc: Llc::new(&config, l3_seeds, 1),
            fast_path: !config.reference_hot_path,
            fast_backoff: 0,
            fast_penalty: 1,
            config,
        }
    }

    /// Simulates one access, retiring L1 hits through the fast path
    /// when armed. Bit-exact to [`Self::step`]: an access takes the
    /// shortcut only when its whole effect is an L1 SoA hit plus (for
    /// SLIP systems) a TLB hit on a resident block. The TLB hit is
    /// committed directly — the same recency splice and credit
    /// `translate_line` performs, whose `Translation` an L1 hit never
    /// reads — and the hit is credited one access and
    /// `cycles_per_access + latency` cycles, as [`Self::step`] would.
    /// Anything else falls into [`Self::step`].
    #[inline]
    pub fn step_fast(&mut self, access: Access) {
        if self.fast_path && self.fast_backoff == 0 {
            let line = access.line();
            let resident = match &self.core.mmu {
                Some(mmu) => mmu.is_resident_line(line),
                None => true,
            };
            if resident {
                if let Some(latency) = self.core.l1.try_demand_hit(line, access.kind.is_write()) {
                    if let Some(mmu) = self.core.mmu.as_mut() {
                        mmu.commit_resident_hit(line);
                    }
                    self.core.accesses += 1;
                    self.core.cycles += u64::from(self.core.cycles_per_access + latency);
                    self.fast_penalty = 1;
                    return;
                }
            }
            self.fast_backoff = self.fast_penalty;
            self.fast_penalty = (self.fast_penalty * 2).min(FAST_BACKOFF_MAX);
        } else if self.fast_backoff > 0 {
            self.fast_backoff -= 1;
        }
        self.step(access);
    }

    /// Simulates one access; advances the cycle clock.
    pub fn step(&mut self, access: Access) {
        self.core.step(&mut self.llc, access);
    }

    /// Simulates one access whose L1 interaction was precomputed by a
    /// group-shared L1 (see [`crate::fused`]). The same walk as
    /// [`step`] with the two L1 touch points replaced by `l1`: the probe
    /// result feeds the latency accounting, and the victims the L1 fill
    /// evicted are routed down this system's own L2/L3/DRAM at the
    /// point where [`step`] fills its own L1.
    ///
    /// Only legal for non-inclusive hierarchies, where nothing below
    /// the L1 ever reaches back into it — that is what makes the L1
    /// policy-invariant and thus shareable across a fused group.
    ///
    /// [`step`]: Self::step
    pub fn step_below_l1(&mut self, access: Access, l1: &L1Verdict<'_>) {
        debug_assert!(
            !self.config.inclusive_llc,
            "shared L1 requires non-inclusive LLC"
        );
        let (latency, req) = self.core.translate(&mut self.llc, access);
        if l1.hit {
            self.core.cycles += u64::from(latency + l1.latency);
        } else {
            let fill = L1Fill::Shared(l1.writebacks);
            self.core
                .below_l1(&mut self.llc, access.kind, latency + l1.latency, req, fill);
        }
    }

    /// Runs a whole trace through [`Self::step_fast`].
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, trace: I) {
        for access in trace {
            self.step_fast(access);
        }
    }

    /// Clears all statistics and energy accounting while keeping the
    /// architectural state (cache contents, page table, TLB, sampler
    /// states). Call after a warmup run so measurements reflect steady
    /// state, as the paper's simpoint methodology does.
    pub fn reset_measurements(&mut self) {
        self.core.l1.reset_measurements();
        self.core.l2.reset_measurements();
        self.llc.l3.reset_measurements();
        self.llc.dram.reset_measurements();
        if let Some(mmu) = self.core.mmu.as_mut() {
            mmu.reset_measurements();
        }
        self.core.cycles = 0;
        self.core.accesses = 0;
    }

    /// Finalizes statistics and extracts the result.
    pub fn finish(mut self, workload: impl Into<String>) -> SimResult {
        let (core, llc) = (&mut self.core, &mut self.llc);
        core.l1.finalize();
        core.l2.finalize();
        llc.l3.finalize();
        SimResult {
            workload: workload.into(),
            policy: self.config.policy,
            accesses: core.accesses,
            cycles: core.cycles,
            l1_stats: core.l1.stats.clone(),
            l2_stats: core.l2.stats.clone(),
            l3_stats: llc.l3.stats.clone(),
            l1_energy: core.l1.energy(),
            l2_energy: core.l2.energy(),
            l3_energy: llc.l3.energy(),
            dram_reads: llc.dram.reads,
            dram_writes: llc.dram.writes,
            dram_metadata_reads: llc.dram.metadata_reads,
            dram_metadata_writes: llc.dram.metadata_writes,
            dram_energy: llc.dram.energy(),
            mmu_stats: core.mmu.as_ref().map(|m| m.stats),
            eou_energy: core.mmu.as_ref().map_or(Energy::ZERO, |m| m.eou_energy()),
            core_energy: self.config.core_energy_per_access * core.accesses as f64,
            wall_time_secs: 0.0,
            exec_mode: None,
        }
    }

    /// Cheap per-access divergence probe for lockstep conformance
    /// replays: the cumulative `(accesses, cycles)` counters. Two
    /// replays of the same stream that are bit-identical agree on this
    /// pair at every step, and cycle counts fold in hit/miss verdicts
    /// at every level — so the first step where two probes differ
    /// localizes a divergence without a full result comparison.
    pub fn probe(&self) -> (u64, u64) {
        (self.core.accesses, self.core.cycles)
    }

    /// Read access to the L2 (for tests).
    pub fn l2(&self) -> &CacheLevel {
        &self.core.l2
    }

    /// Read access to the L3 (for tests).
    pub fn l3(&self) -> &CacheLevel {
        &self.llc.l3
    }

    /// Read access to the MMU (for tests).
    pub fn mmu(&self) -> Option<&SlipMmu> {
        self.core.mmu.as_ref()
    }
}

/// The L1 interaction of one demand access, computed once on a fused
/// group's shared L1 and consumed by every cell's
/// [`SingleCoreSystem::step_below_l1`].
#[derive(Debug)]
pub struct L1Verdict<'a> {
    /// Whether the access hit the L1.
    pub hit: bool,
    /// Hit latency (including port wait) for hits; miss latency for
    /// misses — exactly what `CacheLevel::access` reported.
    pub latency: u32,
    /// Dirty victims the L1 fill evicted (empty for hits), in eviction
    /// order; each cell routes them down its own hierarchy.
    pub writebacks: &'a [LineAddr],
}

/// Runs `spec` for `len` accesses under `config` and returns the result.
pub fn run_workload(config: SystemConfig, spec: &WorkloadSpec, len: u64) -> SimResult {
    run_workload_with_warmup(config, spec, len, 0)
}

/// Runs `warmup` accesses unmeasured (caches and policy state warm up),
/// then measures the next `len` accesses.
pub fn run_workload_with_warmup(
    config: SystemConfig,
    spec: &WorkloadSpec,
    len: u64,
    warmup: u64,
) -> SimResult {
    let seed = config.seed;
    let mut system = SingleCoreSystem::new(config);
    let mut trace = spec.trace(warmup + len, seed);
    for _ in 0..warmup {
        let access = trace.next().expect("trace long enough for warmup");
        system.step_fast(access);
    }
    system.reset_measurements();
    let started = std::time::Instant::now();
    system.run(trace);
    let wall = started.elapsed().as_secs_f64();
    let mut result = system.finish(spec.name().to_owned());
    result.wall_time_secs = wall;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;

    fn config(policy: PolicyKind) -> SystemConfig {
        SystemConfig::paper_45nm(policy)
    }

    #[test]
    fn baseline_hit_flow() {
        let mut sys = SingleCoreSystem::new(config(PolicyKind::Baseline));
        // Touch one line twice: first access misses everywhere, second
        // hits the L1.
        sys.step(Access::read(0x1000));
        sys.step(Access::read(0x1000));
        let r = sys.finish("t");
        assert_eq!(r.l1_stats.demand_accesses, 2);
        assert_eq!(r.l1_stats.demand_hits, 1);
        assert_eq!(r.l2_stats.demand_misses, 1);
        assert_eq!(r.l3_stats.demand_misses, 1);
        assert_eq!(r.dram_reads, 1);
        assert_eq!(r.accesses, 2);
        assert!(r.cycles > 0);
    }

    #[test]
    fn slip_system_has_mmu_and_metadata_traffic() {
        let mut sys = SingleCoreSystem::new(config(PolicyKind::SlipAbp));
        assert!(sys.mmu().is_some());
        // Touch many pages to force TLB misses on sampling pages.
        for p in 0..100u64 {
            sys.step(Access::read(p * 4096));
        }
        let r = sys.finish("t");
        let mmu = r.mmu_stats.unwrap();
        assert_eq!(mmu.tlb_misses, 100);
        assert!(mmu.metadata_fetches > 0);
        // Metadata traffic shows up in cache stats.
        assert!(r.l2_stats.metadata_accesses > 0);
    }

    #[test]
    fn dirty_lines_write_back_to_dram_eventually() {
        let mut sys = SingleCoreSystem::new(config(PolicyKind::Baseline));
        // Write a large streaming region so dirty lines are evicted all
        // the way down.
        for i in 0..200_000u64 {
            sys.step(Access::write(i * 64));
        }
        let r = sys.finish("t");
        assert!(r.dram_writes > 0, "dram writes {}", r.dram_writes);
    }

    #[test]
    fn policies_see_identical_demand_streams() {
        // The demand access counts at L1/L2 must be identical across
        // policies for the same trace (metadata traffic differs).
        let spec = workloads::workload("gcc").unwrap();
        let base = run_workload(config(PolicyKind::Baseline), &spec, 20_000);
        let slip = run_workload(config(PolicyKind::SlipAbp), &spec, 20_000);
        assert_eq!(base.l1_stats.demand_accesses, slip.l1_stats.demand_accesses);
        assert_eq!(base.l2_stats.demand_accesses, slip.l2_stats.demand_accesses);
    }

    #[test]
    fn nuca_policies_promote() {
        let spec = workloads::workload("sphinx3").unwrap();
        let r = run_workload(config(PolicyKind::NuRapid), &spec, 50_000);
        assert!(r.l2_stats.promotions > 0);
        let r = run_workload(config(PolicyKind::LruPea), &spec, 50_000);
        assert!(r.l2_stats.promotions > 0);
    }

    #[test]
    fn warmup_is_excluded_from_measurements() {
        let spec = workloads::workload("gcc").unwrap();
        let cold = run_workload(config(PolicyKind::SlipAbp), &spec, 50_000);
        let warm =
            super::run_workload_with_warmup(config(PolicyKind::SlipAbp), &spec, 50_000, 100_000);
        // Same measured access count...
        assert_eq!(cold.accesses, warm.accesses);
        // ...but the warmed run measures steady state: caches are full
        // and pages stabilized, so its L2 hit rate differs from the
        // cold run's and no cold-start insertions inflate its counts.
        assert!(warm.l2_stats.insertions < cold.l2_stats.insertions + 50_000);
        assert!(warm.cycles > 0);
        // Bypassing is established from the first measured access.
        assert!(
            warm.l2_stats.insertion_class_fractions()[0]
                >= cold.l2_stats.insertion_class_fractions()[0]
        );
    }

    #[test]
    fn slip_never_promotes() {
        let spec = workloads::workload("sphinx3").unwrap();
        let r = run_workload(config(PolicyKind::SlipAbp), &spec, 50_000);
        assert_eq!(r.l2_stats.promotions, 0);
        assert_eq!(r.l3_stats.promotions, 0);
    }
}
