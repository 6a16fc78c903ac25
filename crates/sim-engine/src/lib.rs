//! Full-hierarchy simulation engine and experiment runners for the SLIP
//! reproduction.
//!
//! * [`config`] — paper Table 1/2 system configurations and policy
//!   selection.
//! * [`system`] — the single-core L1/L2/L3/DRAM driver with the SLIP
//!   MMU attached for SLIP runs.
//! * [`multicore`] — the two-core shared-L3 driver of Figure 16.
//! * [`fused`] — lockstep multi-policy replay of one access stream: the
//!   executor of every suite sweep and `slip serve` run (single cells,
//!   `slip run`, step inline through [`system::run_workload`]).
//! * [`experiments`] — one runner per paper table/figure; each returns
//!   structured rows and renders the same table the paper prints. The
//!   shared suite driver executes cells on the `sweep-runner` worker
//!   pool with an optional JSONL run journal for checkpoint/resume.
//! * [`codec`] — JSON round-trip codec for [`SimResult`] (the journal
//!   payload format).
//! * [`env`](mod@env) — typed parsing of the `SLIP_*` environment variables.
//! * [`report`] — plain-text table formatting.
//!
//! # Example
//!
//! ```no_run
//! use sim_engine::config::{PolicyKind, SystemConfig};
//! use sim_engine::system::run_workload;
//!
//! let spec = workloads::workload("soplex").unwrap();
//! let base = run_workload(SystemConfig::paper_45nm(PolicyKind::Baseline), &spec, 1_000_000);
//! let slip = run_workload(SystemConfig::paper_45nm(PolicyKind::SlipAbp), &spec, 1_000_000);
//! let saving = 1.0 - slip.l2_total_energy() / base.l2_total_energy();
//! println!("L2 energy saving: {:.1}%", saving * 100.0);
//! ```

pub mod bench;
pub mod codec;
pub mod config;
pub mod dispatch;
pub mod env;
pub mod experiments;
pub mod fused;
pub mod multicore;
pub mod report;
pub mod result;
pub mod system;

pub use config::{PolicyKind, ReplacementKind, SystemConfig};
pub use experiments::suite::SweepConfig;
pub use fused::{run_group, run_group_observed, shared_l1_eligible};
pub use result::SimResult;
pub use system::{run_workload, SingleCoreSystem};
