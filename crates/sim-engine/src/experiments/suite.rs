//! Shared experiment driver: runs a set of benchmarks under a set of
//! policies once and exposes the results to the per-figure formatters.
//!
//! Cells execute on the [`sweep_runner`] engine as fused groups: the
//! pending policy cells of one benchmark step in lockstep through one
//! pass over its access stream ([`crate::fused`]), one pool job per
//! group ([`SweepConfig::jobs`] workers), optionally journaled for
//! checkpoint/resume ([`SweepConfig::journal`]). Each cell builds its
//! own seeded [`SystemConfig`], so results are independent of grouping
//! and execution order, and a parallel sweep is bit-identical to a
//! serial one.

use crate::codec;
use crate::config::{PolicyKind, SystemConfig, DEFAULT_SEED};
use crate::env;
use crate::fused::run_group;
use crate::result::SimResult;
use energy_model::HierarchySpec;
use std::collections::HashMap;
use std::path::PathBuf;
use sweep_runner::json::Value;
use sweep_runner::SweepOptions;

/// Options for a suite run.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Accesses per benchmark.
    pub accesses: u64,
    /// Unmeasured warmup accesses before measurement begins
    /// (overridable with `SLIP_WARMUP`; default 0).
    pub warmup: u64,
    /// Benchmarks to run (paper order).
    pub benchmarks: Vec<&'static str>,
    /// Policies to run.
    pub policies: Vec<PolicyKind>,
    /// Reuse-distance bin counter width.
    pub rd_bin_bits: u32,
    /// Master seed of every cell's [`SystemConfig`] and trace (default
    /// [`DEFAULT_SEED`]). Set via [`with_seed`].
    ///
    /// [`with_seed`]: SuiteOptions::with_seed
    pub seed: u64,
    /// The hierarchy every cell runs on — geometry *and* energy; `None`
    /// is the built-in 45 nm node. Set via [`with_topology`].
    ///
    /// [`with_topology`]: SuiteOptions::with_topology
    pub topology: Option<HierarchySpec>,
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
            rd_bin_bits: 4,
            seed: DEFAULT_SEED,
            topology: None,
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

    /// Overrides the distribution counter width.
    pub fn with_bin_bits(mut self, bits: u32) -> Self {
        self.rd_bin_bits = bits;
        self
    }

    /// Runs the sweep on a hierarchy spec instead of the built-in 45 nm
    /// node.
    ///
    /// # Panics
    ///
    /// Panics on a semantically invalid spec; `HierarchySpec::load`
    /// already validated anything that came from a file or built-in
    /// name, so this only trips on hand-built specs.
    pub fn with_topology(mut self, spec: HierarchySpec) -> Self {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid topology spec: {e}"));
        self.topology = Some(spec);
        self
    }

    /// Builds the system configuration for one cell of this sweep.
    pub fn cell_config(&self, policy: PolicyKind) -> SystemConfig {
        let mut config = match &self.topology {
            Some(spec) => SystemConfig::from_topology(spec, policy)
                .unwrap_or_else(|e| panic!("invalid topology spec: {e}")),
            None => SystemConfig::paper_45nm(policy),
        };
        config.rd_bin_bits = self.rd_bin_bits;
        config.seed = self.seed;
        config
    }

    /// The journal key of one `(benchmark, policy)` cell. Encodes every
    /// input the result depends on, so stale journal entries can never
    /// be mistaken for current ones. Runs under an explicit topology
    /// append a `topo=name#fingerprint` clause — the fingerprint hashes
    /// the canonical spec text, so editing a spec file in place
    /// invalidates old journal entries — while default runs keep the
    /// historical key shape, so existing journals stay restorable.
    pub fn cell_key(&self, bench: &str, policy: PolicyKind) -> String {
        let config = self.cell_config(policy);
        let topo = match &self.topology {
            Some(spec) => format!(",topo={}#{:016x}", spec.name, spec.fingerprint()),
            None => String::new(),
        };
        format!(
            "{bench}/{}@acc={},warm={},tech={},bits={},seed={:#x}{topo}",
            policy.label(),
            self.accesses,
            self.warmup,
            config.tech.name,
            self.rd_bin_bits,
            config.seed,
        )
    }
}

/// How the suite executes (worker count, journaling) — orthogonal to
/// *what* it runs ([`SuiteOptions`]) and, by construction, to what it
/// produces.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker count; 1 is fully serial. Benchmark groups split until
    /// every worker has one ([`sweep_runner::group_cells`]).
    pub jobs: usize,
    /// JSONL run-journal path; completed cells found there are restored
    /// instead of re-run.
    pub journal: Option<PathBuf>,
    /// Suppress stderr progress lines.
    pub quiet: bool,
    /// Cooperative cancellation flag (e.g. the process SIGINT flag from
    /// `sweep_runner::interrupt::install()`); when it trips, the sweep
    /// stops dispatching groups, seals the journal, and errors with
    /// [`std::io::ErrorKind::Interrupted`].
    pub cancel: Option<&'static std::sync::atomic::AtomicBool>,
}

impl SweepConfig {
    /// Reads `SLIP_JOBS` / `SLIP_JOURNAL`; progress lines on.
    ///
    /// # Panics
    ///
    /// Panics on a knob [`env::check`] rejects (retired or unparseable)
    /// — ignoring it would mislabel what ran. The CLI surfaces the same
    /// error politely.
    pub fn from_env() -> Self {
        env::check().unwrap_or_else(|e| panic!("{e}"));
        SweepConfig {
            journal: env::journal(),
            quiet: false,
            ..Self::with_jobs(env::jobs())
        }
    }

    /// Serial, journal-less, quiet.
    pub fn serial() -> Self {
        Self::with_jobs(1)
    }

    /// `jobs` workers, journal-less, quiet.
    pub fn with_jobs(jobs: usize) -> Self {
        SweepConfig {
            jobs,
            journal: None,
            quiet: true,
            cancel: None,
        }
    }
}

/// Runs the `policies` cells of one benchmark as a single fused group
/// ([`crate::fused::run_group`]): one pass over the benchmark's
/// generated access stream steps every cell in lockstep, so memory
/// stays O(chunk) at any trace length. Returns one result per policy,
/// in order, each with [`SimResult::exec_mode`] `fused`. Shared between
/// the offline sweep and the `slip serve` daemon, so both execution
/// paths are one code path.
pub fn run_fused_group(
    options: &SuiteOptions,
    bench: &str,
    policies: &[PolicyKind],
) -> Vec<SimResult> {
    let spec = workloads::workload(bench).expect("known benchmark");
    let configs: Vec<SystemConfig> = policies.iter().map(|&p| options.cell_config(p)).collect();
    let seed = configs[0].seed;
    let total = options.warmup + options.accesses;
    let mut results = run_group(
        configs,
        spec.name(),
        spec.trace(total, seed),
        options.warmup,
    );
    for r in &mut results {
        r.exec_mode = Some("fused");
    }
    results
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

/// Results of a suite run, keyed by `(benchmark, policy)`.
#[derive(Debug)]
pub struct SuiteResults {
    /// The options the suite ran with.
    pub options: SuiteOptions,
    /// Always `None`: sweeps keep no trace cache. Kept only for the
    /// repo benchmark, which reads it.
    pub trace_cache_stats: Option<TraceCacheStats>,
    results: HashMap<(String, PolicyKind), SimResult>,
}

impl SuiteResults {
    /// Runs the suite with execution parameters from the environment
    /// (`SLIP_JOBS`, `SLIP_JOURNAL`).
    ///
    /// # Panics
    ///
    /// Panics if the journal cannot be read or written.
    pub fn run(options: SuiteOptions) -> Self {
        Self::run_with(options, &SweepConfig::from_env()).expect("run journal I/O failed")
    }

    /// Runs the suite on the given execution configuration.
    ///
    /// # Errors
    ///
    /// Fails only on journal I/O errors; simulation itself is
    /// infallible.
    pub fn run_with(options: SuiteOptions, sweep: &SweepConfig) -> std::io::Result<Self> {
        let cells: Vec<(&'static str, PolicyKind)> = options
            .benchmarks
            .iter()
            .flat_map(|&b| options.policies.iter().map(move |&p| (b, p)))
            .collect();
        let keys: Vec<String> = cells.iter().map(|&(b, p)| options.cell_key(b, p)).collect();
        let sweep_options = SweepOptions {
            jobs: sweep.jobs,
            journal: sweep.journal.clone(),
            quiet: sweep.quiet,
            label: "suite".to_owned(),
            cancel: sweep.cancel,
        };
        let encode = |r: &SimResult, wall: std::time::Duration| {
            let mut metrics = codec::result_metrics(r, wall);
            if let Some(mode) = r.exec_mode {
                metrics = metrics.with("exec_mode", Value::str(mode));
            }
            (metrics, codec::encode_result(r))
        };
        let decode = codec::decode_result;
        // The pending policy cells of each benchmark form one fused
        // group. Groups re-form from whatever cells the journal did
        // *not* restore, so a resumed sweep fuses only the survivors.
        let ran = sweep_runner::run_sweep_grouped(
            &keys,
            &sweep_options,
            |pending| sweep_runner::group_cells(pending, |i| cells[i].0, sweep.jobs),
            |members| {
                let bench = cells[members[0]].0;
                let policies: Vec<PolicyKind> = members.iter().map(|&i| cells[i].1).collect();
                run_fused_group(&options, bench, &policies)
            },
            encode,
            decode,
        )?;
        let results = cells
            .into_iter()
            .zip(ran)
            .map(|((b, p), r)| ((b.to_owned(), p), r))
            .collect();
        Ok(SuiteResults {
            options,
            trace_cache_stats: None,
            results,
        })
    }

    /// The result of one (benchmark, policy) cell, if it was part of
    /// the sweep.
    pub fn try_get(&self, bench: &str, policy: PolicyKind) -> Option<&SimResult> {
        self.results.get(&(bench.to_owned(), policy))
    }

    /// The result of one (benchmark, policy) cell.
    ///
    /// # Panics
    ///
    /// Panics if that cell was not part of the sweep; use [`try_get`]
    /// to probe.
    ///
    /// [`try_get`]: SuiteResults::try_get
    pub fn get(&self, bench: &str, policy: PolicyKind) -> &SimResult {
        self.try_get(bench, policy)
            .unwrap_or_else(|| panic!("no result for ({bench}, {policy})"))
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

    /// Mean L2 saving over all benchmarks.
    pub fn mean_l2_saving(&self, policy: PolicyKind) -> f64 {
        crate::report::mean(
            &self
                .benchmarks()
                .iter()
                .map(|b| self.l2_saving(b, policy))
                .collect::<Vec<_>>(),
        )
    }

    /// Mean L3 saving over all benchmarks.
    pub fn mean_l3_saving(&self, policy: PolicyKind) -> f64 {
        crate::report::mean(
            &self
                .benchmarks()
                .iter()
                .map(|b| self.l3_saving(b, policy))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::run_workload_with_warmup;

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
        let topo = opts
            .clone()
            .with_topology(HierarchySpec::builtin("45nm").unwrap());
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
        let topo = plain
            .clone()
            .with_topology(HierarchySpec::builtin("stt-llc").unwrap());
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
        let other = plain
            .clone()
            .with_topology(HierarchySpec::builtin("22nm").unwrap());
        let other_key = other.cell_key("gcc", PolicyKind::Slip);
        assert_ne!(topo_key, other_key);
        // Explicit-topology keys are pinned too: the fingerprint hashes
        // the canonical text, so it moves only if the built-in does.
        assert_eq!(
            other_key,
            "gcc/SLIP@acc=1000,warm=0,tech=22nm,bits=4,seed=0x511b,topo=22nm#e821814fb9d775ba"
        );
    }

    #[test]
    fn cell_keys_fingerprint_all_inputs() {
        let a = SuiteOptions::paper_full().with_accesses(1000);
        let b = SuiteOptions::paper_full().with_accesses(2000);
        let c = SuiteOptions::paper_full()
            .with_accesses(1000)
            .with_bin_bits(6);
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
