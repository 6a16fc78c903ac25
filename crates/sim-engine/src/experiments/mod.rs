//! Experiment runners — one per paper table/figure (DESIGN.md §5).
//!
//! Every experiment returns structured rows (testable) plus a
//! [`crate::report::Table`] renderer that prints the same rows/series
//! the paper reports. The `slip-bench` crate exposes one bench target
//! per experiment.

pub mod ablation;
pub mod energy;
pub mod hardware;
pub mod motivation;
pub mod multicore_exp;
pub mod sensitivity;
pub mod speedup;
pub mod suite;
pub mod traffic;

pub use suite::{run_fused_group, SuiteOptions, SuiteResults};
