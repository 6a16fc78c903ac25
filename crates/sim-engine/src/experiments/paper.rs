//! The whole reproduction as one grid: the cells of every simulated
//! table run as one grouped, journaled sweep, and every table renders
//! from its results. The `all_figures` bench target prints [`run`].

use crate::config::PolicyKind;
use crate::experiments::suite::{SuiteOptions, SuiteResults, SweepConfig};
use crate::experiments::{
    ablation, energy, hardware, motivation, multicore_exp, sensitivity, speedup, traffic,
};
use crate::report::Table;
use workloads::{BENCHMARK_NAMES, MULTICORE_MIXES};

/// The benchmarks of the sublevel, EOU-objective and inclusion
/// ablations.
const ABLATION_BENCHMARKS: [&str; 5] = ["soplex", "gcc", "mcf", "sphinx3", "lbm"];

/// Runs the cells of every table as one sweep at the length and
/// warmup of `options` and renders every table ([`render`]).
///
/// # Errors
///
/// Fails only on journal I/O errors or an interrupt.
pub fn run(options: SuiteOptions, sweep: &SweepConfig) -> std::io::Result<String> {
    let fig03 = motivation::fig03(options.accesses);
    SuiteResults::run_read(options, sweep, |suite| render(suite, &fig03))
}

/// Appends a rendered table and a blank line.
fn push(out: &mut String, table: Table) {
    out.push_str(&table.render());
    out.push('\n');
}

/// Every table of the reproduction, in paper order, then the
/// ablations, each followed by a blank line. Table 2, the EOU cost and
/// Figure 3 (`fig03`, a trace analysis) need no simulation.
pub fn render(suite: &SuiteResults, fig03: &[motivation::Fig03Row]) -> String {
    let mut out = String::new();
    push(&mut out, hardware::tab02_table(&hardware::tab02()));
    push(&mut out, hardware::eou_table(&hardware::eou_summary()));
    push(&mut out, motivation::fig01_table(&motivation::fig01(suite)));
    push(&mut out, motivation::fig03_table(fig03));
    out += &energy::fig09_table(&energy::fig09(suite)).render();
    out += &format!(
        "DRAM traffic change: SLIP {:+.1}%, SLIP+ABP {:+.1}%  (paper: -2.2% for SLIP+ABP)\n\n",
        energy::mean_dram_traffic_change(suite, PolicyKind::Slip) * 100.0,
        energy::mean_dram_traffic_change(suite, PolicyKind::SlipAbp) * 100.0,
    );
    push(&mut out, energy::fig10_table(&energy::fig10(suite)));
    push(&mut out, energy::fig11_table(&energy::fig11(suite)));
    push(&mut out, traffic::fig12_table(&traffic::fig12(suite)));
    push(&mut out, speedup::fig13_table(&speedup::fig13(suite)));
    push(&mut out, traffic::fig14_table(&traffic::fig14(suite)));
    push(&mut out, traffic::fig15_table(&traffic::fig15(suite)));
    let htree = energy::htree_comparison(suite, &BENCHMARK_NAMES);
    push(&mut out, energy::htree_table(&htree));
    let (l2, l3) = energy::node_savings(suite, "22nm", &BENCHMARK_NAMES);
    out += &format!(
        "== Section 6: 22 nm node, SLIP+ABP ==\n\
         mean L2 saving: {:.1}%   (paper: 36%)\n\
         mean L3 saving: {:.1}%   (paper: 25%)\n\n",
        l2 * 100.0,
        l3 * 100.0
    );
    let bins = sensitivity::bin_width_sweep(
        suite,
        &["soplex", "mcf", "lbm", "sphinx3", "gcc"],
        &[2, 3, 4, 6, 8],
    );
    push(&mut out, sensitivity::bin_width_table(&bins));
    let replacement = sensitivity::replacement_ablation(suite);
    push(&mut out, sensitivity::replacement_table(&replacement));
    let fig16 = multicore_exp::fig16(suite, &MULTICORE_MIXES);
    push(&mut out, multicore_exp::fig16_table(&fig16));
    if suite.options.warmup > 0 {
        out += "(Figure 16 and the partitioned-L3 ablation run two-core mixes without warmup.)\n\n";
    }
    let partition = multicore_exp::partition_comparison(suite, &MULTICORE_MIXES[..4]);
    push(&mut out, multicore_exp::partition_table(&partition));
    let sublevels = ablation::sublevel_sweep(suite, &ABLATION_BENCHMARKS);
    push(&mut out, ablation::sublevel_table(&sublevels));
    let objective = ablation::eou_objective_ablation(suite, &ABLATION_BENCHMARKS);
    push(&mut out, ablation::objective_table(&objective));
    let rd_block = ablation::rd_block_sweep(
        suite,
        &["soplex", "xalancbmk", "mcf", "lbm"],
        &[11, 12, 13, 14],
    );
    push(&mut out, ablation::rd_block_table(&rd_block));
    let sampling = ablation::sampling_sweep(suite, &["soplex", "xalancbmk", "mcf"]);
    push(&mut out, ablation::sampling_table(&sampling));
    let inclusion = ablation::inclusion_ablation(suite, &ABLATION_BENCHMARKS);
    push(&mut out, ablation::inclusion_table(&inclusion));
    out
}
