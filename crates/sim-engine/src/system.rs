//! The single-core full-hierarchy simulation driver.
//!
//! Each demand access flows core → (MMU, for SLIP) → L1 → L2 → L3 →
//! DRAM, with fills propagating back up, writebacks flowing down
//! (write-no-allocate below L1), SLIP distribution-metadata traffic
//! injected at the L2 (it is TLB-side, not core-side), and reuse
//! distances recorded for sampling pages. The hierarchy is
//! non-inclusive, which is what makes the All-Bypass Policy legal
//! (paper §4.3).

use crate::config::{PolicyKind, ReplacementKind, SystemConfig};
use crate::dispatch::{AnyPlacement, AnyReplacement};
use crate::result::SimResult;
use cache_sim::{
    AccessClass, AccessKind, AccessResult, BaselinePolicy, CacheLevel, Drrip, FillOutcome,
    FillRequest, LineAddr, Lru, PageId, Ship,
};
use energy_model::Energy;
use mem_substrate::{Dram, SlipMmu};
use nuca_baselines::{LruPea, NuRapid, PeaLru};
use slip_core::{bin_for_distance, SlipLevel, SlipPlacement};
use workloads::WorkloadSpec;

/// Line address region where per-page distribution metadata lives.
/// 16 pages' worth of 32 b records pack into each 64 B line.
const METADATA_BASE_LINE: u64 = 1 << 50;

/// Ceiling on the fast-path probe backoff: with near-zero L1 hit
/// rates the scanner settles into one probe per 64 accesses (~1.5%
/// residual overhead), while a single fast hit re-arms it instantly.
const FAST_BACKOFF_MAX: u32 = 64;

/// A complete single-core system: L1 + L2 + L3 + DRAM (+ SLIP MMU).
pub struct SingleCoreSystem {
    config: SystemConfig,
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
    dram: Dram,
    mmu: Option<SlipMmu>,
    l1_policy: BaselinePolicy,
    l1_repl: Lru,
    l2_policy: AnyPlacement,
    l3_policy: AnyPlacement,
    l2_repl: AnyReplacement,
    l3_repl: AnyReplacement,
    l2_cum_caps: Vec<usize>,
    l3_cum_caps: Vec<usize>,
    cycles: u64,
    accesses: u64,
    /// Whether the L1 hit-run scanner is armed (`!reference_hot_path`):
    /// [`Self::step_fast`] retires consecutive L1 hits through the SoA
    /// fast path and defers their accounting into the pending
    /// accumulators below, flushed before anything can observe them.
    fast_path: bool,
    /// Batched L1 hits not yet folded into `accesses`/`cycles`.
    pending_hits: u64,
    /// Summed L1 hit latencies of the pending batch.
    pending_hit_latency: u64,
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
    /// Reusable fill-outcome buffer: every fill at every level writes
    /// into this scratch via `fill_into`, so the steady-state access
    /// loop performs no per-access allocation.
    fill_scratch: FillOutcome,
}

impl SingleCoreSystem {
    /// Builds a system for `config`.
    pub fn new(config: SystemConfig) -> Self {
        let l1 = config.build_l1();
        let l2 = config.build_l2();
        let l3 = config.build_l3();
        let l2_geom = l2.geometry().clone();
        let l3_geom = l3.geometry().clone();
        let seed = config.seed;

        let randomized_victims = config.replacement != ReplacementKind::Lru;
        let (l2_policy, l3_policy): (AnyPlacement, AnyPlacement) = match config.policy {
            PolicyKind::Baseline => (
                AnyPlacement::Baseline(BaselinePolicy::new()),
                AnyPlacement::Baseline(BaselinePolicy::new()),
            ),
            PolicyKind::NuRapid => (
                AnyPlacement::NuRapid(NuRapid::new(&l2_geom)),
                AnyPlacement::NuRapid(NuRapid::new(&l3_geom)),
            ),
            PolicyKind::LruPea => (
                AnyPlacement::LruPea(LruPea::new(&l2_geom, seed ^ 0xA)),
                AnyPlacement::LruPea(LruPea::new(&l3_geom, seed ^ 0xB)),
            ),
            PolicyKind::Slip | PolicyKind::SlipAbp => {
                let mut p2 = SlipPlacement::new(SlipLevel::L2, &l2_geom);
                let mut p3 = SlipPlacement::new(SlipLevel::L3, &l3_geom);
                if randomized_victims {
                    p2 = p2.with_randomized_victim_sublevel(seed ^ 0xC);
                    p3 = p3.with_randomized_victim_sublevel(seed ^ 0xD);
                }
                (AnyPlacement::Slip(p2), AnyPlacement::Slip(p3))
            }
        };

        let make_repl = |salt: u64| -> AnyReplacement {
            if config.policy == PolicyKind::LruPea {
                // LRU-PEA's defining feature is its eviction priority.
                return AnyReplacement::PeaLru(PeaLru::new());
            }
            match config.replacement {
                ReplacementKind::Lru => AnyReplacement::Lru(Lru::new()),
                ReplacementKind::Drrip => AnyReplacement::Drrip(Drrip::new(seed ^ salt)),
                ReplacementKind::Ship => AnyReplacement::Ship(Ship::new()),
            }
        };

        let mmu = config.build_mmu(seed ^ 0x1);

        let l2_cum_caps = l2_geom.cumulative_sublevel_lines();
        let l3_cum_caps = l3_geom.cumulative_sublevel_lines();
        let l2_repl = make_repl(0x22);
        let l3_repl = make_repl(0x33);
        let fast_path = !config.reference_hot_path;

        SingleCoreSystem {
            config,
            l1,
            l2,
            l3,
            dram: Dram::from_pj_per_bit(0.0), // replaced below
            mmu,
            l1_policy: BaselinePolicy::new(),
            l1_repl: Lru::new(),
            l2_policy,
            l3_policy,
            l2_repl,
            l3_repl,
            l2_cum_caps,
            l3_cum_caps,
            cycles: 0,
            accesses: 0,
            fast_path,
            pending_hits: 0,
            pending_hit_latency: 0,
            fast_backoff: 0,
            fast_penalty: 1,
            fill_scratch: FillOutcome::default(),
        }
        .with_dram()
    }

    fn with_dram(mut self) -> Self {
        self.dram = Dram::from_pj_per_bit(self.config.tech.dram_pj_per_bit);
        self
    }

    /// The metadata line holding `page`'s packed distribution record.
    fn meta_line(page: PageId) -> LineAddr {
        LineAddr(METADATA_BASE_LINE + page.0 / 16)
    }

    /// SHiP signature for a page.
    fn signature(page: PageId) -> u16 {
        (page.0 & 0x3FFF) as u16
    }

    /// Simulates one access, retiring L1 hit runs through the batched
    /// fast path when armed. Bit-exact to [`Self::step`]: an access
    /// takes the shortcut only when its whole effect is an L1 SoA hit
    /// plus (for SLIP systems) a TLB hit on a resident block. The TLB
    /// hit is committed eagerly — the same recency splice and credit
    /// `translate_line` performs, whose `Translation` an L1 hit never
    /// reads — while the access/cycle counters defer into the pending
    /// batch (pure sums that commute with every intervening fast hit).
    /// Anything else flushes the pending batch first and falls into
    /// [`Self::step`].
    #[inline]
    pub fn step_fast(&mut self, access: cache_sim::Access) {
        if self.fast_path && self.fast_backoff == 0 {
            let line = access.line();
            let resident = match &self.mmu {
                Some(mmu) => mmu.is_resident_line(line),
                None => true,
            };
            if resident {
                if let Some(latency) = self.l1.try_demand_hit(line, access.kind.is_write()) {
                    if let Some(mmu) = self.mmu.as_mut() {
                        mmu.commit_resident_hit(line);
                    }
                    self.pending_hits += 1;
                    self.pending_hit_latency += u64::from(latency);
                    self.fast_penalty = 1;
                    return;
                }
            }
            self.fast_backoff = self.fast_penalty;
            self.fast_penalty = (self.fast_penalty * 2).min(FAST_BACKOFF_MAX);
        } else if self.fast_backoff > 0 {
            self.fast_backoff -= 1;
        }
        self.flush_hit_run();
        self.step(access);
    }

    /// Retires `n` back-to-back copies of the *same* access — the trace
    /// runners collapse equal-neighbor runs before stepping. A run
    /// whose first access would take the fast path retires in closed
    /// form ([`CacheLevel::try_demand_hit_run`]); anything else replays
    /// the run through [`Self::step_fast`] one access at a time, which
    /// keeps the backoff evolution (and therefore every counter)
    /// exactly as if the caller had never batched.
    pub fn step_fast_run(&mut self, access: cache_sim::Access, n: u64) {
        if n > 1 && self.fast_path && self.fast_backoff == 0 {
            let line = access.line();
            let resident = match &self.mmu {
                Some(mmu) => mmu.is_resident_line(line),
                None => true,
            };
            if resident {
                if let Some(total) = self.l1.try_demand_hit_run(line, access.kind.is_write(), n) {
                    if let Some(mmu) = self.mmu.as_mut() {
                        mmu.commit_resident_hits(line, n);
                    }
                    self.pending_hits += n;
                    self.pending_hit_latency += total;
                    self.fast_penalty = 1;
                    return;
                }
            }
        }
        for _ in 0..n {
            self.step_fast(access);
        }
    }

    /// Folds the pending L1 hit batch into the architectural counters:
    /// each hit is `core_cycles_per_access + its hit latency` cycles
    /// and one access (its TLB hit, if any, was committed when the hit
    /// was absorbed).
    fn flush_hit_run(&mut self) {
        if self.pending_hits == 0 {
            return;
        }
        let n = core::mem::take(&mut self.pending_hits);
        let latency = core::mem::take(&mut self.pending_hit_latency);
        self.accesses += n;
        self.cycles += n * u64::from(self.config.core_cycles_per_access) + latency;
    }

    /// Simulates one access; advances the cycle clock.
    pub fn step(&mut self, access: cache_sim::Access) {
        let line = access.line();
        let page = access.page();
        self.accesses += 1;
        let mut latency = self.config.core_cycles_per_access;

        // --- Translation (SLIP only) ---
        let (slip_codes, sampling) = if let Some(mmu) = self.mmu.as_mut() {
            let t = mmu.translate_line(line);
            latency += t.extra_cycles;
            if t.fetch_metadata {
                // The distribution fetch overlaps the demand access (it
                // feeds the TLB, not the load); only its energy and
                // traffic are charged, not its latency.
                let block = self.mmu.as_ref().expect("mmu present").block_of(line);
                self.metadata_fetch(Self::meta_line(block));
            }
            if let Some(p) = t.writeback_metadata_page {
                self.metadata_writeback(Self::meta_line(p));
            }
            (t.slip_codes, t.sampling)
        } else {
            ([0, 0], false)
        };

        // --- L1 ---
        let now = self.cycles;
        let r1 = self.l1.access(
            line,
            access.kind,
            AccessClass::Demand,
            now,
            &mut self.l1_policy,
            &mut self.l1_repl,
        );
        if let AccessResult::Hit(h) = r1 {
            self.cycles += u64::from(latency + h.latency);
            return;
        }
        latency += r1.latency();

        // --- L2 ---
        let r2 = self.l2.access(
            line,
            access.kind,
            AccessClass::Demand,
            now,
            &mut self.l2_policy,
            &mut self.l2_repl,
        );
        match r2 {
            AccessResult::Hit(h2) => {
                latency += h2.latency;
                if sampling {
                    let bin = bin_for_distance(h2.reuse_distance, &self.l2_cum_caps);
                    if let Some(mmu) = self.mmu.as_mut() {
                        mmu.record_reuse_line(line, SlipLevel::L2, bin);
                    }
                }
                self.fill_l1(line, access.kind);
            }
            AccessResult::Miss { latency: l2_lat } => {
                latency += l2_lat;
                if sampling {
                    if let Some(mmu) = self.mmu.as_mut() {
                        mmu.record_reuse_line(line, SlipLevel::L2, self.l2_cum_caps.len());
                    }
                }
                // --- L3 ---
                let r3 = self.l3.access(
                    line,
                    access.kind,
                    AccessClass::Demand,
                    now,
                    &mut self.l3_policy,
                    &mut self.l3_repl,
                );
                match r3 {
                    AccessResult::Hit(h3) => {
                        latency += h3.latency;
                        if sampling {
                            let bin = bin_for_distance(h3.reuse_distance, &self.l3_cum_caps);
                            if let Some(mmu) = self.mmu.as_mut() {
                                mmu.record_reuse_line(line, SlipLevel::L3, bin);
                            }
                        }
                        self.fill_l2(line, slip_codes, sampling, page);
                        self.fill_l1(line, access.kind);
                    }
                    AccessResult::Miss { latency: l3_lat } => {
                        latency += l3_lat;
                        if sampling {
                            if let Some(mmu) = self.mmu.as_mut() {
                                mmu.record_reuse_line(line, SlipLevel::L3, self.l3_cum_caps.len());
                            }
                        }
                        latency += self.dram.read_line();
                        let l3_bypassed = self.fill_l3(line, slip_codes, sampling, page);
                        if l3_bypassed && self.config.inclusive_llc {
                            // An inclusive LLC cannot hold a copy above
                            // a line it does not hold (paper §4.3) —
                            // the line is served uncached.
                        } else {
                            self.fill_l2(line, slip_codes, sampling, page);
                            self.fill_l1(line, access.kind);
                        }
                    }
                }
            }
        }
        self.cycles += u64::from(latency);
    }

    /// Simulates one access whose L1 interaction was precomputed by a
    /// group-shared L1 (see [`crate::fused`]). Mirrors [`step`] exactly
    /// with the two L1 touch points replaced by `l1`: the probe result
    /// feeds the latency accounting, and the victims the L1 fill would
    /// have evicted are routed down this system's own L2/L3/DRAM at the
    /// position `fill_l1` holds in the serial sequence.
    ///
    /// Only legal for non-inclusive hierarchies, where nothing below
    /// the L1 ever reaches back into it — that is what makes the L1
    /// policy-invariant and thus shareable across a fused group.
    ///
    /// [`step`]: Self::step
    pub fn step_below_l1(&mut self, access: cache_sim::Access, l1: &L1Verdict<'_>) {
        debug_assert!(
            !self.config.inclusive_llc,
            "shared L1 requires non-inclusive LLC"
        );
        let line = access.line();
        let page = access.page();
        self.accesses += 1;
        let mut latency = self.config.core_cycles_per_access;

        let (slip_codes, sampling) = if let Some(mmu) = self.mmu.as_mut() {
            let t = mmu.translate_line(line);
            latency += t.extra_cycles;
            if t.fetch_metadata {
                let block = self.mmu.as_ref().expect("mmu present").block_of(line);
                self.metadata_fetch(Self::meta_line(block));
            }
            if let Some(p) = t.writeback_metadata_page {
                self.metadata_writeback(Self::meta_line(p));
            }
            (t.slip_codes, t.sampling)
        } else {
            ([0, 0], false)
        };

        if l1.hit {
            self.cycles += u64::from(latency + l1.latency);
            return;
        }
        latency += l1.latency;

        let now = self.cycles;
        let r2 = self.l2.access(
            line,
            access.kind,
            AccessClass::Demand,
            now,
            &mut self.l2_policy,
            &mut self.l2_repl,
        );
        match r2 {
            AccessResult::Hit(h2) => {
                latency += h2.latency;
                if sampling {
                    let bin = bin_for_distance(h2.reuse_distance, &self.l2_cum_caps);
                    if let Some(mmu) = self.mmu.as_mut() {
                        mmu.record_reuse_line(line, SlipLevel::L2, bin);
                    }
                }
                self.route_l1_writebacks(l1.writebacks);
            }
            AccessResult::Miss { latency: l2_lat } => {
                latency += l2_lat;
                if sampling {
                    if let Some(mmu) = self.mmu.as_mut() {
                        mmu.record_reuse_line(line, SlipLevel::L2, self.l2_cum_caps.len());
                    }
                }
                let r3 = self.l3.access(
                    line,
                    access.kind,
                    AccessClass::Demand,
                    now,
                    &mut self.l3_policy,
                    &mut self.l3_repl,
                );
                match r3 {
                    AccessResult::Hit(h3) => {
                        latency += h3.latency;
                        if sampling {
                            let bin = bin_for_distance(h3.reuse_distance, &self.l3_cum_caps);
                            if let Some(mmu) = self.mmu.as_mut() {
                                mmu.record_reuse_line(line, SlipLevel::L3, bin);
                            }
                        }
                        self.fill_l2(line, slip_codes, sampling, page);
                        self.route_l1_writebacks(l1.writebacks);
                    }
                    AccessResult::Miss { latency: l3_lat } => {
                        latency += l3_lat;
                        if sampling {
                            if let Some(mmu) = self.mmu.as_mut() {
                                mmu.record_reuse_line(line, SlipLevel::L3, self.l3_cum_caps.len());
                            }
                        }
                        latency += self.dram.read_line();
                        self.fill_l3(line, slip_codes, sampling, page);
                        self.fill_l2(line, slip_codes, sampling, page);
                        self.route_l1_writebacks(l1.writebacks);
                    }
                }
            }
        }
        self.cycles += u64::from(latency);
    }

    /// Dirty victims of the shared L1's fill, routed down this system's
    /// hierarchy exactly where its own `fill_l1` would have.
    fn route_l1_writebacks(&mut self, writebacks: &[LineAddr]) {
        for &wb in writebacks {
            self.writeback_below_l1(wb);
        }
    }

    /// Credits a run of consecutive L1 hits in one step. Only exact for
    /// systems without an MMU (no translation work per access): each
    /// hit contributes `core_cycles_per_access + its L1 hit latency`
    /// cycles and nothing else, so a batch folds to two sums.
    pub fn absorb_l1_hits(&mut self, count: u64, latency_sum: u64) {
        debug_assert!(
            self.mmu.is_none(),
            "hit batching requires no per-access MMU work"
        );
        self.accesses += count;
        self.cycles += count * u64::from(self.config.core_cycles_per_access) + latency_sum;
    }

    /// Whether this system carries a per-access MMU (the SLIP
    /// policies); such systems cannot batch L1 hit runs.
    pub fn has_mmu(&self) -> bool {
        self.mmu.is_some()
    }

    /// Fused-group fast path for an MMU-carrying cell: attempts to
    /// retire an access the shared L1 already verdicted as a hit (at
    /// `hit_latency`) as a committed TLB hit plus a batched
    /// access/cycle credit. Returns `false` when the scanner is off or
    /// the line's block is not TLB-resident; the caller then takes the
    /// full [`Self::step_below_l1`] path. Deferring the batch across
    /// that path is exact — the pending credits are pure counter adds
    /// that nothing below the L1 reads — but a non-resident line
    /// flushes eagerly anyway to keep batch lifetimes short.
    pub fn try_absorb_shared_hit(&mut self, access: cache_sim::Access, hit_latency: u32) -> bool {
        if !self.fast_path {
            return false;
        }
        if self.fast_backoff > 0 {
            self.fast_backoff -= 1;
            self.flush_hit_run();
            return false;
        }
        if let Some(mmu) = self.mmu.as_mut() {
            if !mmu.is_resident_line(access.line()) {
                self.fast_backoff = self.fast_penalty;
                self.fast_penalty = (self.fast_penalty * 2).min(FAST_BACKOFF_MAX);
                self.flush_hit_run();
                return false;
            }
            mmu.commit_resident_hit(access.line());
        }
        self.pending_hits += 1;
        self.pending_hit_latency += u64::from(hit_latency);
        self.fast_penalty = 1;
        true
    }

    /// Fills a line into L1 (write-allocate: stores dirty the L1 copy).
    fn fill_l1(&mut self, line: LineAddr, kind: AccessKind) {
        let mut req = FillRequest::new(line);
        req.dirty = kind.is_write();
        let now = self.cycles;
        // Writeback routing below never re-enters fill, so the scratch
        // buffer can be taken for the duration of the loop.
        let mut out = core::mem::take(&mut self.fill_scratch);
        self.l1
            .fill_into(req, now, &mut self.l1_policy, &mut self.l1_repl, &mut out);
        for wb in &out.writebacks {
            self.writeback_below_l1(wb.addr);
        }
        self.fill_scratch = out;
    }

    fn fill_l2(&mut self, line: LineAddr, slip_codes: [u8; 2], sampling: bool, page: PageId) {
        let mut req = FillRequest::new(line);
        req.slip_codes = slip_codes;
        req.sampling = sampling;
        req.signature = Self::signature(page);
        let now = self.cycles;
        let mut out = core::mem::take(&mut self.fill_scratch);
        self.l2
            .fill_into(req, now, &mut self.l2_policy, &mut self.l2_repl, &mut out);
        for wb in &out.writebacks {
            self.writeback_below_l2(wb.addr);
        }
        self.fill_scratch = out;
    }

    fn fill_l3(
        &mut self,
        line: LineAddr,
        slip_codes: [u8; 2],
        sampling: bool,
        page: PageId,
    ) -> bool {
        let mut req = FillRequest::new(line);
        req.slip_codes = slip_codes;
        req.sampling = sampling;
        req.signature = Self::signature(page);
        let now = self.cycles;
        let mut out = core::mem::take(&mut self.fill_scratch);
        self.l3
            .fill_into(req, now, &mut self.l3_policy, &mut self.l3_repl, &mut out);
        for wb in &out.writebacks {
            self.dram.write_line();
            if self.config.inclusive_llc {
                self.back_invalidate(wb.addr);
            }
        }
        if self.config.inclusive_llc {
            for ev in &out.clean_evictions {
                self.back_invalidate(ev.addr);
            }
        }
        let bypassed = out.bypassed;
        self.fill_scratch = out;
        bypassed
    }

    /// Inclusive-LLC back-invalidation: a line leaving the L3 must also
    /// leave the levels above; dirty upper copies go straight to DRAM
    /// (their L3 copy is gone).
    fn back_invalidate(&mut self, line: LineAddr) {
        let dirty_above = self.l1.invalidate(line).map(|e| e.dirty).unwrap_or(false)
            | self.l2.invalidate(line).map(|e| e.dirty).unwrap_or(false);
        if dirty_above {
            self.dram.write_line();
        }
    }

    /// Routes an L1 dirty eviction down the hierarchy
    /// (write-no-allocate at L2/L3).
    fn writeback_below_l1(&mut self, line: LineAddr) {
        if self.l2.writeback_access(line, &mut self.l2_policy) {
            return;
        }
        self.writeback_below_l2(line);
    }

    /// Routes an L2 dirty eviction to L3 or DRAM.
    fn writeback_below_l2(&mut self, line: LineAddr) {
        if self.l3.writeback_access(line, &mut self.l3_policy) {
            return;
        }
        self.dram.write_line();
    }

    /// Fetches a page's 32 b distribution record through L2 → L3 → DRAM
    /// (metadata class); fills the caches with the metadata line.
    /// Returns the latency.
    fn metadata_fetch(&mut self, meta_line: LineAddr) -> u32 {
        let now = self.cycles;
        let r2 = self.l2.access(
            meta_line,
            AccessKind::Read,
            AccessClass::Metadata,
            now,
            &mut self.l2_policy,
            &mut self.l2_repl,
        );
        if let AccessResult::Hit(h) = r2 {
            return h.latency;
        }
        let mut latency = r2.latency();
        let r3 = self.l3.access(
            meta_line,
            AccessKind::Read,
            AccessClass::Metadata,
            now,
            &mut self.l3_policy,
            &mut self.l3_repl,
        );
        match r3 {
            AccessResult::Hit(h3) => {
                latency += h3.latency;
            }
            AccessResult::Miss { latency: l3_lat } => {
                latency += l3_lat + self.dram.read_metadata();
                self.fill_metadata_line(meta_line, &FillLevel::L3);
            }
        }
        self.fill_metadata_line(meta_line, &FillLevel::L2);
        latency
    }

    fn fill_metadata_line(&mut self, meta_line: LineAddr, level: &FillLevel) {
        // Metadata lines carry the Default SLIP so they behave like
        // regular cache residents without recursive profiling.
        let default_code = slip_core::Slip::default_slip(self.l2.geometry().sublevels())
            .expect("valid sublevels")
            .code();
        let mut req = FillRequest::new(meta_line);
        req.slip_codes = [default_code, default_code];
        req.signature = 0xFFFF;
        let now = self.cycles;
        let mut out = core::mem::take(&mut self.fill_scratch);
        match level {
            FillLevel::L2 => {
                self.l2
                    .fill_into(req, now, &mut self.l2_policy, &mut self.l2_repl, &mut out);
                for wb in &out.writebacks {
                    self.writeback_below_l2(wb.addr);
                }
            }
            FillLevel::L3 => {
                self.l3
                    .fill_into(req, now, &mut self.l3_policy, &mut self.l3_repl, &mut out);
                for _wb in &out.writebacks {
                    self.dram.write_line();
                }
            }
        }
        self.fill_scratch = out;
    }

    /// Writes a page's distribution record back (TLB eviction of a
    /// sampling page).
    fn metadata_writeback(&mut self, meta_line: LineAddr) {
        if self.l2.writeback_access(meta_line, &mut self.l2_policy) {
            return;
        }
        if self.l3.writeback_access(meta_line, &mut self.l3_policy) {
            return;
        }
        self.dram.write_metadata();
    }

    /// Runs a whole trace (through the hit-run scanner when armed),
    /// collapsing runs of identical accesses into single
    /// [`Self::step_fast_run`] calls.
    pub fn run<I: IntoIterator<Item = cache_sim::Access>>(&mut self, trace: I) {
        let mut trace = trace.into_iter();
        let Some(mut current) = trace.next() else {
            self.flush_hit_run();
            return;
        };
        let mut n: u64 = 1;
        for access in trace {
            if access == current {
                n += 1;
            } else {
                self.step_fast_run(current, n);
                current = access;
                n = 1;
            }
        }
        self.step_fast_run(current, n);
        self.flush_hit_run();
    }

    /// Clears all statistics and energy accounting while keeping the
    /// architectural state (cache contents, page table, TLB, sampler
    /// states). Call after a warmup run so measurements reflect steady
    /// state, as the paper's simpoint methodology does.
    pub fn reset_measurements(&mut self) {
        // Warmup hits must be fully retired (the TLB hit counter they
        // credit is architectural bookkeeping the reference run also
        // performs before its counters are zeroed).
        self.flush_hit_run();
        self.l1.reset_measurements();
        self.l2.reset_measurements();
        self.l3.reset_measurements();
        self.dram.reset_measurements();
        if let Some(mmu) = self.mmu.as_mut() {
            mmu.reset_measurements();
        }
        self.cycles = 0;
        self.accesses = 0;
    }

    /// Finalizes statistics and extracts the result.
    pub fn finish(mut self, workload: impl Into<String>) -> SimResult {
        self.flush_hit_run();
        self.l1.finalize();
        self.l2.finalize();
        self.l3.finalize();
        SimResult {
            workload: workload.into(),
            policy: self.config.policy,
            accesses: self.accesses,
            cycles: self.cycles,
            l1_stats: self.l1.stats.clone(),
            l2_stats: self.l2.stats.clone(),
            l3_stats: self.l3.stats.clone(),
            l1_energy: self.l1.energy(),
            l2_energy: self.l2.energy(),
            l3_energy: self.l3.energy(),
            dram_reads: self.dram.reads,
            dram_writes: self.dram.writes,
            dram_metadata_reads: self.dram.metadata_reads,
            dram_metadata_writes: self.dram.metadata_writes,
            dram_energy: self.dram.energy(),
            mmu_stats: self.mmu.as_ref().map(|m| m.stats),
            eou_energy: self.mmu.as_ref().map_or(Energy::ZERO, |m| m.eou_energy()),
            core_energy: self.config.core_energy_per_access * self.accesses as f64,
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
        // Fold the pending hit batch in on the fly so probes are
        // meaningful mid-run without forcing a flush.
        (
            self.accesses + self.pending_hits,
            self.cycles
                + self.pending_hits * u64::from(self.config.core_cycles_per_access)
                + self.pending_hit_latency,
        )
    }

    /// Read access to the L2 (for tests).
    pub fn l2(&self) -> &CacheLevel {
        &self.l2
    }

    /// Read access to the L3 (for tests).
    pub fn l3(&self) -> &CacheLevel {
        &self.l3
    }

    /// Read access to the MMU (for tests).
    pub fn mmu(&self) -> Option<&SlipMmu> {
        self.mmu.as_ref()
    }
}

enum FillLevel {
    L2,
    L3,
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
    use cache_sim::Access;

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
