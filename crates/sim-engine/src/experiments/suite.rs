//! The one experiment grid. A cell is (workload or two-core mix,
//! policy, seed, [`Variant`]), run at the grid-wide length and warmup
//! of [`SuiteOptions`]; every simulated table of the reproduction is a
//! function that reads cells ([`SuiteResults::run_read`]).
//!
//! Cells execute on the [`sweep_runner`] engine: the pending
//! single-core cells of one trace step in lockstep through one pass
//! over it ([`crate::fused`]), one pool job per group
//! ([`SweepConfig::jobs`] workers), optionally journaled for
//! checkpoint/resume ([`SweepConfig::journal`]). A cell that tables
//! read twice runs once. Each cell builds its own seeded
//! [`SystemConfig`], so results are independent of grouping and
//! execution order, and a parallel sweep is bit-identical to a serial
//! one.

use crate::codec;
use crate::config::{PolicyKind, ReplacementKind, SystemConfig, DEFAULT_SEED};
use crate::env;
use crate::fused::run_group;
use crate::multicore::{run_mix, MulticoreResult};
use crate::result::SimResult;
use crate::system::run_workload;
use energy_model::HierarchySpec;
use slip_core::{EouObjective, SamplingConfig};
use std::collections::HashMap;
use std::sync::Mutex;
use sweep_runner::json::Value;
use sweep_runner::SweepOptions;
use workloads::WorkloadSpec;

/// The [`SystemConfig`] fields a cell may move off the paper defaults
/// ([`Variant::default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// The hierarchy spec; `None` is the built-in 45 nm node.
    pub topology: Option<HierarchySpec>,
    /// Reuse-distance bin counter width.
    pub rd_bin_bits: u32,
    /// Victim selection within candidate ways.
    pub replacement: ReplacementKind,
    /// Inclusive LLC.
    pub inclusive_llc: bool,
    /// Way-partitioned shared L3 (two-core mixes).
    pub partitioned_l3: bool,
    /// The EOU's analytical objective.
    pub eou_objective: EouObjective,
    /// log2 of the rd-block size in bytes.
    pub rd_block_shift: u32,
    /// Time-based sampling probabilities.
    pub sampling: SamplingConfig,
    /// Ways per sublevel, nearest first, at both L2 and L3
    /// ([`SystemConfig::with_sublevel_ways`]); `None` keeps the spec's.
    pub sublevel_ways: Option<Vec<usize>>,
}

impl Default for Variant {
    fn default() -> Self {
        Variant {
            topology: None,
            rd_bin_bits: 4,
            replacement: ReplacementKind::Lru,
            inclusive_llc: false,
            partitioned_l3: false,
            eou_objective: EouObjective::InsertionAware,
            rd_block_shift: 12,
            sampling: SamplingConfig::paper_default(),
            sublevel_ways: None,
        }
    }
}

impl Variant {
    /// The configuration of one `policy` cell under this variant.
    ///
    /// # Panics
    ///
    /// Panics on a semantically invalid topology spec; `HierarchySpec::load`
    /// already validated anything that came from a file or built-in
    /// name, so this only trips on hand-built specs.
    pub fn config(&self, policy: PolicyKind, seed: u64) -> SystemConfig {
        let mut c = match &self.topology {
            Some(spec) => SystemConfig::from_topology(spec, policy)
                .unwrap_or_else(|e| panic!("invalid topology spec: {e}")),
            None => SystemConfig::paper_45nm(policy),
        };
        if let Some(ways) = &self.sublevel_ways {
            c = c.with_sublevel_ways(ways.clone(), ways.clone());
        }
        c.rd_bin_bits = self.rd_bin_bits;
        c.replacement = self.replacement;
        c.inclusive_llc = self.inclusive_llc;
        c.partitioned_l3 = self.partitioned_l3;
        c.eou_objective = self.eou_objective;
        c.rd_block_shift = self.rd_block_shift;
        c.sampling = self.sampling;
        c.seed = seed;
        c
    }

    /// The key clauses after the seed: `topo=name#fingerprint` (the
    /// fingerprint hashes the canonical spec text, so editing a spec
    /// file in place invalidates old journal entries), then one clause
    /// per other axis off its default. The default variant adds
    /// nothing, so existing journals stay restorable.
    fn key_clauses(&self) -> String {
        let d = Variant::default();
        let mut k = String::new();
        if let Some(spec) = &self.topology {
            k += &format!(",topo={}#{:016x}", spec.name, spec.fingerprint());
        }
        if self.replacement != d.replacement {
            k += &format!(",repl={}", self.replacement.label());
        }
        if self.inclusive_llc {
            k += ",inclusive";
        }
        if self.partitioned_l3 {
            k += ",partitioned";
        }
        if self.eou_objective != d.eou_objective {
            k += &format!(",eou={:?}", self.eou_objective);
        }
        if self.rd_block_shift != d.rd_block_shift {
            k += &format!(",rdblock={}", self.rd_block_shift);
        }
        if self.sampling != d.sampling {
            k += &format!(",samp={}/{}", self.sampling.n_samp, self.sampling.n_stab);
        }
        if let Some(ways) = &self.sublevel_ways {
            let ways: Vec<String> = ways.iter().map(usize::to_string).collect();
            k += &format!(",ways={}", ways.join("/"));
        }
        k
    }
}

/// What a cell runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A built-in benchmark on the single-core system.
    Bench(&'static str),
    /// Two built-in benchmarks on the two-core, shared-L3 system, each
    /// for the grid's access count, with no warmup.
    Mix(&'static str, &'static str),
    /// Another single-core workload (the §7 stressors), keyed by name.
    Custom(WorkloadSpec),
}

impl Workload {
    /// The name a cell key starts with: `bench` or `a+b`.
    pub fn name(&self) -> String {
        match self {
            Workload::Bench(b) => (*b).to_owned(),
            Workload::Mix(a, b) => format!("{a}+{b}"),
            Workload::Custom(spec) => spec.name().to_owned(),
        }
    }
}

impl From<&'static str> for Workload {
    fn from(bench: &'static str) -> Self {
        Workload::Bench(bench)
    }
}

impl From<(&'static str, &'static str)> for Workload {
    fn from((a, b): (&'static str, &'static str)) -> Self {
        Workload::Mix(a, b)
    }
}

/// One cell of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// What runs.
    pub workload: Workload,
    /// The placement policy.
    pub policy: PolicyKind,
    /// Master seed of the cell's [`SystemConfig`] and trace.
    pub seed: u64,
    /// The rest of the configuration.
    pub variant: Variant,
}

impl Cell {
    /// The cell with its variant edited by `edit`.
    pub fn with(mut self, edit: impl FnOnce(&mut Variant)) -> Cell {
        edit(&mut self.variant);
        self
    }

    /// The journal key of this cell at the given length:
    /// `name/policy@acc=..,warm=..,tech=..,bits=..,seed=..`, then the
    /// variant's clauses. It encodes every input the result depends on,
    /// so stale journal entries can never be mistaken for current ones.
    /// A mix runs no warmup, so its key says `warm=0`.
    pub fn key(&self, accesses: u64, warmup: u64) -> String {
        let warmup = match self.workload {
            Workload::Mix(..) => 0,
            _ => warmup,
        };
        let v = &self.variant;
        let tech = v
            .topology
            .as_ref()
            .map_or("45nm", |spec| spec.name.as_str());
        format!(
            "{}/{}@acc={accesses},warm={warmup},tech={tech},bits={},seed={:#x}{}",
            self.workload.name(),
            self.policy.label(),
            v.rd_bin_bits,
            self.seed,
            v.key_clauses(),
        )
    }
}

/// Options for a suite run: the grid-wide trace length and warmup, and
/// the default grid of `benchmarks × policies` at one seed and variant.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Accesses per benchmark (per core for a two-core mix).
    pub accesses: u64,
    /// Unmeasured warmup accesses before measurement begins
    /// (overridable with `SLIP_WARMUP`; default 0).
    pub warmup: u64,
    /// Benchmarks to run (paper order).
    pub benchmarks: Vec<&'static str>,
    /// Policies to run.
    pub policies: Vec<PolicyKind>,
    /// Master seed of every cell (default [`DEFAULT_SEED`]).
    pub seed: u64,
    /// The configuration of every cell of the default grid.
    pub variant: Variant,
}

impl SuiteOptions {
    /// The paper's full single-core sweep: 14 benchmarks, all policies,
    /// 45 nm.
    pub fn paper_full() -> Self {
        SuiteOptions {
            accesses: env::accesses(),
            warmup: env::warmup(),
            benchmarks: workloads::BENCHMARK_NAMES.to_vec(),
            policies: PolicyKind::ALL.to_vec(),
            seed: DEFAULT_SEED,
            variant: Variant::default(),
        }
    }

    /// A reduced sweep for the given policies.
    pub fn with_policies(mut self, policies: &[PolicyKind]) -> Self {
        self.policies = policies.to_vec();
        if !self.policies.contains(&PolicyKind::Baseline) {
            // Savings are always relative to the baseline.
            self.policies.insert(0, PolicyKind::Baseline);
        }
        self
    }

    /// Restricts the benchmark set.
    pub fn with_benchmarks(mut self, benchmarks: &[&'static str]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Overrides the trace length.
    pub fn with_accesses(mut self, accesses: u64) -> Self {
        self.accesses = accesses;
        self
    }

    /// Sets the unmeasured warmup length.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Overrides the master seed of every cell.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The `policy` cell of `workload` at this grid's seed and variant.
    pub fn cell(&self, workload: impl Into<Workload>, policy: PolicyKind) -> Cell {
        Cell {
            workload: workload.into(),
            policy,
            seed: self.seed,
            variant: self.variant.clone(),
        }
    }

    /// The default grid, `benchmarks × policies`, in that order.
    pub fn cells(&self) -> Vec<Cell> {
        self.benchmarks
            .iter()
            .flat_map(|&b| self.policies.iter().map(move |&p| self.cell(b, p)))
            .collect()
    }

    /// Builds the system configuration for one cell of the default
    /// grid.
    pub fn cell_config(&self, policy: PolicyKind) -> SystemConfig {
        self.variant.config(policy, self.seed)
    }

    /// The journal key of one `(benchmark, policy)` cell of the default
    /// grid ([`Cell::key`]).
    pub fn cell_key(&self, bench: &'static str, policy: PolicyKind) -> String {
        self.cell(bench, policy).key(self.accesses, self.warmup)
    }
}

/// How a grid executes — worker count, journal, progress lines,
/// cancellation — orthogonal to *what* it runs ([`SuiteOptions`]) and,
/// by construction, to what it produces. Its progress lines are
/// labeled `suite`.
pub type SweepConfig = SweepOptions;

/// Runs the `policies` cells of one benchmark of the default grid as a
/// single fused group. Shared between the offline sweep and the `slip
/// serve` daemon, so both execution paths are one code path.
pub fn run_fused_group(
    options: &SuiteOptions,
    bench: &str,
    policies: &[PolicyKind],
) -> Vec<SimResult> {
    let spec = workloads::workload(bench).expect("known benchmark");
    let configs = policies.iter().map(|&p| options.cell_config(p)).collect();
    fuse(&spec, configs, options.accesses, options.warmup)
}

/// Runs `configs` on one trace of `spec` as one fused group
/// ([`crate::fused::run_group`]): one pass over the generated access
/// stream steps every cell in lockstep, so memory stays O(chunk) at any
/// trace length. Each result has [`SimResult::exec_mode`] `fused`.
fn fuse(
    spec: &WorkloadSpec,
    configs: Vec<SystemConfig>,
    accesses: u64,
    warmup: u64,
) -> Vec<SimResult> {
    let seed = configs[0].seed;
    let trace = spec.trace(warmup + accesses, seed);
    let mut results = run_group(configs, spec.name(), trace, warmup);
    for r in &mut results {
        r.exec_mode = Some("fused");
    }
    results
}

/// The result of one cell.
#[derive(Debug, Clone)]
enum Outcome {
    /// A single-core cell.
    Single(Box<SimResult>),
    /// A two-core mix.
    Mix(Box<MulticoreResult>),
}

impl Outcome {
    /// The journal record, `(metrics, payload)`; a single-core record is
    /// the historical one.
    fn encode(&self, wall: std::time::Duration) -> (Value, Value) {
        match self {
            Outcome::Single(r) => codec::encode_record(r, wall),
            Outcome::Mix(m) => {
                let metrics = Value::object()
                    .with("accesses", Value::u64(m.accesses[0] + m.accesses[1]))
                    .with("exec_mode", Value::str("two-core"));
                (metrics, codec::encode_mix(m))
            }
        }
    }

    /// Rebuilds a journaled outcome; only a mix payload has `mix`.
    fn decode(payload: &Value) -> Option<Outcome> {
        match payload.get("mix") {
            Some(_) => codec::decode_mix(payload).map(|m| Outcome::Mix(Box::new(m))),
            None => codec::decode_result(payload).map(|r| Outcome::Single(Box::new(r))),
        }
    }
}

/// The type of [`SuiteResults::trace_cache_stats`]. It has no values:
/// sweeps stream every trace and keep no trace cache. It exists only so
/// the repo benchmark's reader of that field keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCacheStats {}

impl TraceCacheStats {
    /// JSON encoding; unreachable, since no value exists.
    pub fn to_value(&self) -> Value {
        match *self {}
    }
}

/// The cells a planning grid's lookups asked for, and the zero-length
/// runs they read ([`SuiteResults::run_read`]).
#[derive(Debug)]
struct Plan {
    cells: Mutex<Vec<Cell>>,
    single: Outcome,
    mix: Outcome,
}

/// Results of a grid run, keyed by cell.
#[derive(Debug)]
pub struct SuiteResults {
    /// The options the grid ran with.
    pub options: SuiteOptions,
    /// Always `None`: sweeps keep no trace cache. Kept only for the
    /// repo benchmark, which reads it.
    pub trace_cache_stats: Option<TraceCacheStats>,
    /// Outcomes by [`Cell::key`].
    results: HashMap<String, Outcome>,
    /// Set on the grid that runs nothing ([`SuiteResults::run_read`]).
    plan: Option<Plan>,
}

impl SuiteResults {
    /// Runs the default grid on the given execution configuration.
    ///
    /// # Errors
    ///
    /// Fails only on journal I/O errors or an interrupt; simulation
    /// itself is infallible.
    pub fn run_with(options: SuiteOptions, sweep: &SweepConfig) -> std::io::Result<Self> {
        let cells = options.cells();
        Self::run_cells(options, &cells, sweep)
    }

    /// Runs every cell `read` looks up, as one sweep at the length and
    /// warmup of `options`, and returns what `read` makes of the
    /// results. `read` runs twice: first on a grid that runs nothing,
    /// where each lookup records its cell and reads a zero-length run,
    /// then on the results. So a table lists its cells once, by reading
    /// them.
    ///
    /// # Errors
    ///
    /// Fails only on journal I/O errors or an interrupt.
    pub fn run_read<T>(
        options: SuiteOptions,
        sweep: &SweepConfig,
        read: impl Fn(&SuiteResults) -> T,
    ) -> std::io::Result<T> {
        let config = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        let gcc = workloads::workload("gcc").expect("known benchmark");
        let planning = SuiteResults {
            options: options.clone(),
            trace_cache_stats: None,
            results: HashMap::new(),
            plan: Some(Plan {
                cells: Mutex::default(),
                single: Outcome::Single(Box::new(run_workload(config.clone(), &gcc, 0))),
                mix: Outcome::Mix(Box::new(run_mix(config, &gcc, &gcc, 0))),
            }),
        };
        read(&planning);
        let plan = planning.plan.expect("a planning grid");
        let cells = plan.cells.into_inner().expect("plan lock");
        Ok(read(&Self::run_cells(options, &cells, sweep)?))
    }

    /// Runs `cells` at the length and warmup of `options`.
    fn run_cells(
        options: SuiteOptions,
        cells: &[Cell],
        sweep: &SweepConfig,
    ) -> std::io::Result<Self> {
        let (accesses, warmup) = (options.accesses, options.warmup);
        let keys: Vec<String> = cells.iter().map(|c| c.key(accesses, warmup)).collect();
        let configs: Vec<SystemConfig> = cells
            .iter()
            .map(|c| c.variant.config(c.policy, c.seed))
            .collect();
        let sweep_options = SweepOptions {
            label: "suite".to_owned(),
            ..sweep.clone()
        };
        // Groups re-form from whatever cells the journal did *not*
        // restore, so a resumed sweep fuses only the survivors.
        let ran = sweep_runner::run_sweep_grouped(
            &keys,
            &sweep_options,
            |pending| {
                // A mix runs alone; single-core cells of one trace fuse
                // ([`crate::fused`]), except that cells with an inclusive
                // LLC group apart: they would make their whole group step
                // private L1s, about 20% slower.
                let key = |i: usize| {
                    let c = &cells[i];
                    let mix = matches!(c.workload, Workload::Mix(..)).then_some(i);
                    (c.workload.name(), c.seed, c.variant.inclusive_llc, mix)
                };
                sweep_runner::group_cells(pending, key, sweep.jobs)
            },
            |members| {
                let config = |i: usize| configs[i].clone();
                let spec = match &cells[members[0]].workload {
                    Workload::Mix(a, b) => {
                        let spec = |n| workloads::workload(n).expect("known benchmark");
                        let m = run_mix(config(members[0]), &spec(a), &spec(b), accesses);
                        return vec![Outcome::Mix(Box::new(m))];
                    }
                    Workload::Bench(b) => workloads::workload(b).expect("known benchmark"),
                    Workload::Custom(spec) => spec.clone(),
                };
                let group = members.iter().map(|&i| config(i)).collect();
                let results = fuse(&spec, group, accesses, warmup);
                let single = |r| Outcome::Single(Box::new(r));
                results.into_iter().map(single).collect()
            },
            Outcome::encode,
            Outcome::decode,
        )?;
        Ok(SuiteResults {
            options,
            trace_cache_stats: None,
            results: keys.into_iter().zip(ran).collect(),
            plan: None,
        })
    }

    /// The outcome of one cell; on a planning grid, records the cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not part of the run.
    fn outcome(&self, cell: &Cell) -> &Outcome {
        if let Some(plan) = &self.plan {
            let mut cells = plan.cells.lock().expect("plan lock");
            if !cells.contains(cell) {
                cells.push(cell.clone());
            }
            return match cell.workload {
                Workload::Mix(..) => &plan.mix,
                _ => &plan.single,
            };
        }
        let key = cell.key(self.options.accesses, self.options.warmup);
        (self.results.get(&key)).unwrap_or_else(|| panic!("no result for cell {key}"))
    }

    /// The result of one single-core cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not part of the run, or is a mix.
    pub fn result(&self, cell: &Cell) -> &SimResult {
        match self.outcome(cell) {
            Outcome::Single(r) => r,
            Outcome::Mix(_) => panic!("{cell:?} is a two-core mix"),
        }
    }

    /// The result of one two-core cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not part of the run, or is single-core.
    pub fn mix(&self, cell: &Cell) -> &MulticoreResult {
        match self.outcome(cell) {
            Outcome::Mix(m) => m,
            Outcome::Single(_) => panic!("{cell:?} is a single-core cell"),
        }
    }

    /// The result of one (benchmark, policy) cell of the default grid,
    /// if it was part of the run.
    pub fn try_get(&self, bench: &'static str, policy: PolicyKind) -> Option<&SimResult> {
        match self.results.get(&self.options.cell_key(bench, policy))? {
            Outcome::Single(r) => Some(r),
            Outcome::Mix(_) => None,
        }
    }

    /// The result of one (benchmark, policy) cell of the default grid.
    ///
    /// # Panics
    ///
    /// Panics if that cell was not part of the run; use [`try_get`] to
    /// probe.
    ///
    /// [`try_get`]: SuiteResults::try_get
    pub fn get(&self, bench: &str, policy: PolicyKind) -> &SimResult {
        let known = workloads::BENCHMARK_NAMES.iter().find(|&&b| b == bench);
        let bench = *known.unwrap_or_else(|| panic!("no benchmark {bench:?}"));
        self.result(&self.options.cell(bench, policy))
    }

    /// The baseline result for a benchmark.
    pub fn baseline(&self, bench: &str) -> &SimResult {
        self.get(bench, PolicyKind::Baseline)
    }

    /// Benchmarks in sweep order.
    pub fn benchmarks(&self) -> &[&'static str] {
        &self.options.benchmarks
    }

    /// L2 energy saving of `policy` on `bench` versus baseline.
    pub fn l2_saving(&self, bench: &str, policy: PolicyKind) -> f64 {
        1.0 - self.get(bench, policy).l2_total_energy() / self.baseline(bench).l2_total_energy()
    }

    /// L3 energy saving of `policy` on `bench` versus baseline.
    pub fn l3_saving(&self, bench: &str, policy: PolicyKind) -> f64 {
        1.0 - self.get(bench, policy).l3_total_energy() / self.baseline(bench).l3_total_energy()
    }

    /// Mean `(L2, L3)` energy savings of `cell(b)` over `base(b)` across
    /// `benchmarks`.
    pub fn mean_savings(
        &self,
        benchmarks: &[&'static str],
        base: impl Fn(&'static str) -> Cell,
        cell: impl Fn(&'static str) -> Cell,
    ) -> (f64, f64) {
        let (l2, l3): (Vec<f64>, Vec<f64>) = benchmarks
            .iter()
            .map(|&b| {
                let (base, r) = (self.result(&base(b)), self.result(&cell(b)));
                (
                    1.0 - r.l2_total_energy() / base.l2_total_energy(),
                    1.0 - r.l3_total_energy() / base.l3_total_energy(),
                )
            })
            .unzip();
        (crate::report::mean(&l2), crate::report::mean(&l3))
    }

    /// Mean `(L2, L3)` savings of `policy` over the baseline across the
    /// default grid's benchmarks.
    pub fn mean_saving(&self, policy: PolicyKind) -> (f64, f64) {
        let cell = |p| move |b| self.options.cell(b, p);
        self.mean_savings(self.benchmarks(), cell(PolicyKind::Baseline), cell(policy))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::system::run_workload_with_warmup;

    /// Runs the cells `read` looks up at `accesses`, no warmup, serially —
    /// the tables' unit tests.
    pub(crate) fn read_study<T>(accesses: u64, read: impl Fn(&SuiteResults) -> T) -> T {
        let options = SuiteOptions::paper_full()
            .with_accesses(accesses)
            .with_warmup(0);
        SuiteResults::run_read(options, &SweepConfig::serial(), read).expect("no journal")
    }

    /// `opts` on a built-in node.
    fn on(mut opts: SuiteOptions, node: &str) -> SuiteOptions {
        opts.variant.topology = Some(HierarchySpec::builtin(node).unwrap());
        opts
    }

    /// Every cell's encoded result, in grid order.
    fn fingerprint(suite: &SuiteResults) -> Vec<String> {
        let mut cells = Vec::new();
        for &b in suite.benchmarks() {
            for &p in &suite.options.policies {
                cells.push(codec::encode_result(suite.get(b, p)).to_json());
            }
        }
        cells
    }

    /// The grid re-run cell by cell on the verbatim reference hot path.
    fn reference(opts: &SuiteOptions) -> Vec<String> {
        let mut cells = Vec::new();
        for &b in &opts.benchmarks {
            for &p in &opts.policies {
                let mut config = opts.cell_config(p);
                config.reference_hot_path = true;
                let spec = workloads::workload(b).expect("known benchmark");
                let r = run_workload_with_warmup(config, &spec, opts.accesses, opts.warmup);
                cells.push(codec::encode_result(&r).to_json());
            }
        }
        cells
    }

    #[test]
    fn small_suite_produces_all_cells() {
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_policies(&[PolicyKind::SlipAbp])
            .with_accesses(30_000)
            .with_warmup(10_000);
        let suite = SuiteResults::run_with(opts, &SweepConfig::serial()).unwrap();
        assert_eq!(suite.benchmarks(), ["gcc"]);
        let base = suite.baseline("gcc");
        assert_eq!(base.accesses, 30_000);
        let slip = suite.get("gcc", PolicyKind::SlipAbp);
        assert_eq!(slip.accesses, 30_000);
        // Savings are well-defined numbers.
        assert!(suite.l2_saving("gcc", PolicyKind::SlipAbp).is_finite());
        assert!(suite.l3_saving("gcc", PolicyKind::SlipAbp).is_finite());
        // Sweeps keep no trace cache.
        assert!(suite.trace_cache_stats.is_none());
    }

    #[test]
    fn fused_sweep_is_bit_exact_across_jobs() {
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc", "soplex"])
            .with_policies(&[
                PolicyKind::Slip,
                PolicyKind::SlipAbp,
                PolicyKind::NuRapid,
                PolicyKind::LruPea,
            ])
            .with_accesses(10_000)
            .with_warmup(2_000);
        let reference = reference(&opts);
        for jobs in [1, 4] {
            let suite =
                SuiteResults::run_with(opts.clone(), &SweepConfig::with_jobs(jobs)).unwrap();
            assert_eq!(fingerprint(&suite), reference, "jobs={jobs}");
            // No silent fallback: every cell reports the fused executor
            // actually ran it.
            for &b in suite.benchmarks() {
                for &p in &suite.options.policies {
                    assert_eq!(suite.get(b, p).exec_mode, Some("fused"));
                }
            }
        }
    }

    #[test]
    fn fused_resume_reforms_groups_from_unjournaled_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-suite-fused-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_policies(&[PolicyKind::Slip, PolicyKind::SlipAbp, PolicyKind::NuRapid])
            .with_accesses(8_000);
        let mut fused = SweepConfig::serial();

        // Reference: the full fused grid, uninterrupted.
        let reference = SuiteResults::run_with(opts.clone(), &fused).unwrap();

        // Journal only part of the benchmark's cells — a narrower grid
        // into the same journal stands in for a fused sweep that died
        // mid-group (cell keys are grid-independent, so its records are
        // restorable by the wider sweep).
        fused.journal = Some(path.clone());
        let narrow = opts.clone().with_policies(&[PolicyKind::Slip]);
        SuiteResults::run_with(narrow, &fused).unwrap();

        // Resume the full grid: baseline+slip restore from the journal,
        // and the two survivors re-form one smaller fused group.
        let resumed = SuiteResults::run_with(opts.clone(), &fused).unwrap();
        for &p in &opts.policies {
            assert_eq!(
                codec::encode_result(resumed.get("gcc", p)).to_json(),
                codec::encode_result(reference.get("gcc", p)).to_json(),
                "{p:?}"
            );
        }
        // Only the two survivors ran, as one group: a group's wall time
        // splits evenly across its members' journal records.
        let text = std::fs::read_to_string(&path).unwrap();
        let walls: Vec<f64> = text
            .lines()
            .map(|l| {
                Value::parse(l)
                    .unwrap()
                    .get("wall_ms")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(walls.len(), 4);
        assert_eq!(walls[2], walls[3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_with_retired_exec_labels_restores_without_running() {
        // A journal written when sweeps could run shared, pipelined, or
        // sharded cells, and labeled each cell's trace source (cache
        // hit, miss, or regenerated): its records restore bit-exact,
        // and nothing runs.
        let mut path = std::env::temp_dir();
        path.push(format!("slip-suite-retired-labels-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc", "soplex"])
            .with_policies(&[PolicyKind::SlipAbp])
            .with_accesses(6_000);
        let sweep = SweepConfig {
            journal: Some(path.clone()),
            ..SweepConfig::with_jobs(2)
        };
        let fresh = SuiteResults::run_with(opts.clone(), &sweep).unwrap();
        let labels = [
            ("shared", "cached"),
            ("pipelined", "regenerated"),
            ("sharded", "cached"),
            ("fused", "materialized"),
        ];
        let text = std::fs::read_to_string(&path).unwrap();
        let rewritten: String = text
            .lines()
            .zip(labels.iter().cycle())
            .map(|(line, (mode, source))| {
                let record = Value::parse(line).unwrap();
                let field = |k: &str| record.get(k).unwrap().clone();
                let metrics = Value::object()
                    .with("exec_mode", Value::str(*mode))
                    .with("trace_source", Value::str(*source));
                let record = Value::object()
                    .with("v", field("v"))
                    .with("key", field("key"))
                    .with("wall_ms", field("wall_ms"))
                    .with("metrics", metrics)
                    .with("payload", field("payload"));
                format!("{}\n", record.to_json())
            })
            .collect();
        assert!(rewritten.contains("\"exec_mode\":\"pipelined\""));
        assert!(rewritten.contains("\"trace_source\":\"materialized\""));
        std::fs::write(&path, &rewritten).unwrap();

        let restored = SuiteResults::run_with(opts, &sweep).unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&fresh));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            rewritten,
            "no cell executed, so nothing was appended"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn with_policies_always_includes_baseline() {
        let opts = SuiteOptions::paper_full().with_policies(&[PolicyKind::NuRapid]);
        assert!(opts.policies.contains(&PolicyKind::Baseline));
        assert!(opts.policies.contains(&PolicyKind::NuRapid));
    }

    #[test]
    fn try_get_probes_without_panicking() {
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_policies(&[PolicyKind::Baseline])
            .with_accesses(5_000);
        let suite = SuiteResults::run_with(opts, &SweepConfig::serial()).unwrap();
        assert!(suite.try_get("gcc", PolicyKind::Baseline).is_some());
        assert!(suite.try_get("gcc", PolicyKind::SlipAbp).is_none());
        assert!(suite.try_get("soplex", PolicyKind::Baseline).is_none());
    }

    #[test]
    fn topology_45nm_suite_matches_hardcoded_across_modes_and_jobs() {
        // `--topology 45nm` adds a topology clause to every cell key, yet
        // runs the same built-in node as a default sweep, so it must be
        // bit-exact with the default configuration, serial and parallel.
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc", "soplex"])
            .with_policies(&[PolicyKind::Slip, PolicyKind::SlipAbp])
            .with_accesses(8_000)
            .with_warmup(2_000);
        let topo = on(opts.clone(), "45nm");
        let reference = reference(&opts);
        for jobs in [1, 4] {
            let suite =
                SuiteResults::run_with(topo.clone(), &SweepConfig::with_jobs(jobs)).unwrap();
            assert_eq!(fingerprint(&suite), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn topology_cell_keys_carry_name_and_fingerprint() {
        let plain = SuiteOptions::paper_full()
            .with_accesses(1000)
            .with_warmup(0);
        let topo = on(plain.clone(), "stt-llc");
        let plain_key = plain.cell_key("gcc", PolicyKind::Slip);
        let topo_key = topo.cell_key("gcc", PolicyKind::Slip);
        // Default keys keep their historical shape (journal back-compat),
        // byte for byte.
        assert_eq!(
            plain_key,
            "gcc/SLIP@acc=1000,warm=0,tech=45nm,bits=4,seed=0x511b"
        );
        // Explicit-topology keys pin both the node name and the
        // canonical-text fingerprint.
        assert!(topo_key.contains(",topo=stt-llc#"), "{topo_key}");
        assert_ne!(plain_key, topo_key);
        // Different nodes never share a key.
        let other = on(plain.clone(), "22nm");
        let other_key = other.cell_key("gcc", PolicyKind::Slip);
        assert_ne!(topo_key, other_key);
        // Explicit-topology keys are pinned too: the fingerprint hashes
        // the canonical text, so it moves only if the built-in does.
        assert_eq!(
            other_key,
            "gcc/SLIP@acc=1000,warm=0,tech=22nm,bits=4,seed=0x511b,topo=22nm#e821814fb9d775ba"
        );
        // A grid cell of the default variant keys exactly as the
        // default grid does, with or without a topology; the other
        // axes append after the topology clause.
        assert_eq!(plain.cell("gcc", PolicyKind::Slip).key(1000, 0), plain_key);
        assert_eq!(other.cell("gcc", PolicyKind::Slip).key(1000, 0), other_key);
        let edited = other
            .cell("gcc", PolicyKind::Slip)
            .with(|v| v.replacement = ReplacementKind::Ship)
            .key(1000, 0);
        assert_eq!(edited, format!("{other_key},repl=SHiP"));
    }

    #[test]
    fn cell_keys_fingerprint_all_inputs() {
        let a = SuiteOptions::paper_full().with_accesses(1000);
        let b = SuiteOptions::paper_full().with_accesses(2000);
        let mut c = SuiteOptions::paper_full().with_accesses(1000);
        c.variant.rd_bin_bits = 6;
        let k = |o: &SuiteOptions| o.cell_key("gcc", PolicyKind::Slip);
        assert_ne!(k(&a), k(&b));
        assert_ne!(k(&a), k(&c));
        assert_ne!(
            a.cell_key("gcc", PolicyKind::Slip),
            a.cell_key("gcc", PolicyKind::SlipAbp)
        );
        assert_ne!(
            a.cell_key("gcc", PolicyKind::Slip),
            a.cell_key("mcf", PolicyKind::Slip)
        );

        // The variant axes: the default leaves the pinned key alone,
        // each non-default value changes it, and no two collide.
        let base = a.cell("gcc", PolicyKind::Slip);
        let pinned = "gcc/SLIP@acc=1000,warm=0,tech=45nm,bits=4,seed=0x511b";
        assert_eq!(base.key(1000, 0), pinned);
        assert_eq!(base.clone().with(|_| ()).key(1000, 0), pinned);
        let edits: [fn(&mut Variant); 9] = [
            |v| v.topology = Some(HierarchySpec::builtin("22nm").unwrap()),
            |v| v.rd_bin_bits = 6,
            |v| v.replacement = ReplacementKind::Drrip,
            |v| v.inclusive_llc = true,
            |v| v.partitioned_l3 = true,
            |v| v.eou_objective = EouObjective::PaperLiteral,
            |v| v.rd_block_shift = 13,
            |v| {
                v.sampling = SamplingConfig {
                    n_samp: 4,
                    n_stab: 64,
                }
            },
            |v| v.sublevel_ways = Some(vec![8, 8]),
        ];
        let mut keys: Vec<String> = edits
            .iter()
            .map(|&edit| base.clone().with(edit).key(1000, 0))
            .collect();
        for k in &keys {
            assert!(k.starts_with("gcc/SLIP@acc=1000,warm=0,tech="), "{k}");
            assert_ne!(k, pinned);
        }
        keys.push(pinned.to_owned());
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), edits.len() + 1, "{keys:?}");
        // Setting an axis to its default value is the default cell.
        let same = base.clone().with(|v| v.rd_block_shift = 12);
        assert_eq!(same.key(1000, 0), pinned);
        // A mix runs no warmup, so its key says so; its workload name
        // cannot collide with a benchmark's.
        let mix = a.cell(("gcc", "lbm"), PolicyKind::Slip);
        assert_eq!(
            mix.key(1000, 500),
            "gcc+lbm/SLIP@acc=1000,warm=0,tech=45nm,bits=4,seed=0x511b"
        );
    }

    #[test]
    fn default_variant_is_the_paper_configuration() {
        let paper = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        let c = Variant::default().config(PolicyKind::SlipAbp, DEFAULT_SEED);
        assert_eq!(format!("{c:?}"), format!("{paper:?}"));
    }

    #[test]
    fn duplicate_cells_run_once_and_mix_cells_resume_from_the_journal() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-suite-dedup-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SuiteOptions::paper_full()
            .with_accesses(4_000)
            .with_warmup(0);
        let base = opts.cell("gcc", PolicyKind::Baseline);
        let inclusive = opts
            .cell("gcc", PolicyKind::SlipAbp)
            .with(|v| v.inclusive_llc = true);
        let mix = opts.cell(("gcc", "lbm"), PolicyKind::SlipAbp);
        let sweep = SweepConfig {
            journal: Some(path.clone()),
            ..SweepConfig::with_jobs(2)
        };
        // The baseline is read twice; every payload comes back encoded.
        let read = |s: &SuiteResults| {
            let single = |c: &Cell| codec::encode_result(s.result(c)).to_json();
            [
                single(&base),
                single(&inclusive),
                single(&base),
                codec::encode_mix(s.mix(&mix)).to_json(),
            ]
        };
        let fresh = SuiteResults::run_read(opts.clone(), &sweep, read).unwrap();
        let journal = std::fs::read_to_string(&path).unwrap();
        assert_eq!(journal.lines().count(), 3, "{journal}");
        let restored = SuiteResults::run_read(opts, &sweep, read).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), journal);
        assert_eq!(restored, fresh);
        // The inclusive cell ran in its own fused group, bit-exact with
        // its standalone run.
        let spec = workloads::workload("gcc").unwrap();
        let config = inclusive.variant.config(PolicyKind::SlipAbp, DEFAULT_SEED);
        let alone = run_workload_with_warmup(config, &spec, 4_000, 0);
        assert_eq!(fresh[1], codec::encode_result(&alone).to_json());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seeded_sweep_differs_and_keys_carry_the_seed() {
        let default = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_policies(&[PolicyKind::SlipAbp])
            .with_accesses(20_000)
            .with_warmup(0);
        let seeded = default.clone().with_seed(7);
        assert_eq!(
            seeded.cell_key("gcc", PolicyKind::SlipAbp),
            "gcc/SLIP+ABP@acc=20000,warm=0,tech=45nm,bits=4,seed=0x7"
        );
        assert_eq!(seeded.cell_config(PolicyKind::Baseline).seed, 7);
        let run = |o: &SuiteOptions| {
            fingerprint(&SuiteResults::run_with(o.clone(), &SweepConfig::serial()).unwrap())
        };
        assert_ne!(run(&default), run(&seeded));
        // The seed reaches the fused path exactly as it reaches a
        // single inline run.
        assert_eq!(run(&seeded), reference(&seeded));
    }
}
