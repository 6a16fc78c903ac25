//! Micro-benchmarks for the Energy Optimizer Unit (paper Section 5:
//! the synthesized RTL sustains one optimization per cycle at 2.4 GHz;
//! this measures the software model's throughput).

use energy_model::HierarchySpec;
use sim_engine::experiments::hardware::eou_bench_distributions;
use slip_core::{EnergyOptimizerUnit, LevelModelParams, Slip};
use std::hint::black_box;

fn l2_params() -> LevelModelParams {
    let tech = HierarchySpec::builtin("45nm").unwrap().technology();
    LevelModelParams::from_level(&tech.l2, tech.l3.mean_access())
}

fn main() {
    println!("EOU micro-benchmarks");

    let params = l2_params();
    slip_bench::microbench("eou/build_unit", || {
        EnergyOptimizerUnit::new(black_box(&params))
    });

    let dists = eou_bench_distributions();
    slip_bench::microbench("eou/optimize_all_distributions", || {
        let mut eou = EnergyOptimizerUnit::new(&params);
        for d in &dists {
            black_box(eou.optimize(d));
        }
    });

    slip_bench::microbench("eou/coefficients_all_slips", || {
        for slip in Slip::enumerate(3) {
            black_box(slip_core::coefficients(&params, slip));
        }
    });
}
