//! Experiment runners — one per paper table/figure (DESIGN.md §5).
//!
//! Every simulated experiment is a list of cells for the one suite grid
//! ([`suite`]) plus a function that reads its rows from the results;
//! each renders as a [`crate::report::Table`] with the rows/series the
//! paper reports. [`paper`] runs every table's cells as one sweep and
//! renders them all (the `all_figures` bench target).

pub mod ablation;
pub mod energy;
pub mod hardware;
pub mod motivation;
pub mod multicore_exp;
pub mod paper;
pub mod sensitivity;
pub mod speedup;
pub mod suite;
pub mod traffic;

pub use suite::{run_fused_group, Cell, SuiteOptions, SuiteResults, Variant, Workload};
