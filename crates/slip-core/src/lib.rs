//! SLIP — Sub-Level Insertion Policy (Das, Aamodt, Dally; ISCA 2015).
//!
//! The paper's primary contribution, reimplemented as a library:
//!
//! * [`Slip`] — the policy representation: `2^S` insertion/movement
//!   policies over `S` cache sublevels, encoded in `S` bits
//!   (paper §3.1).
//! * [`RdDistribution`] — quantized per-page reuse-distance
//!   distributions: 4-bit saturating bins with global halving
//!   (paper §4.1).
//! * [`model`] — the analytical access + movement + miss energy model
//!   (paper §3.2, Eq. 1–5) reduced to per-SLIP coefficient vectors.
//! * [`EnergyOptimizerUnit`] — the EOU: an argmin of dot products over
//!   all candidate SLIPs, with the paper's synthesized hardware costs
//!   (paper §4.4, §5).
//! * [`TimeSampler`] — randomized sampling/stable page states that bound
//!   distribution-metadata traffic (paper §4.2).
//! * [`SlipPlacement`] — the Figure 6 state machine as a
//!   [`cache_sim::PlacementPolicy`]: insert into `C_0`, demote along
//!   chunks, never promote.
//!
//! # Example: choose and apply a policy for a bimodal line
//!
//! ```
//! use energy_model::HierarchySpec;
//! use slip_core::{EnergyOptimizerUnit, LevelModelParams, RdDistribution};
//!
//! let tech = HierarchySpec::builtin("45nm").unwrap().technology();
//! let params = LevelModelParams::from_level(&tech.l2, tech.l3.mean_access());
//! let mut eou = EnergyOptimizerUnit::new(&params);
//!
//! // The paper's `cperm` pattern: 66% of reuses fit the nearest 64 KB,
//! // a few need the full 256 KB, 24% miss.
//! let mut dist = RdDistribution::paper_default();
//! for _ in 0..10 { dist.observe(0); }
//! dist.observe(2);
//! for _ in 0..4 { dist.observe(3); }
//!
//! let decision = eou.optimize(&dist);
//! // An energy-optimized SLIP keeps the near chunk separate.
//! assert_eq!(decision.slip.chunks().next(), Some(0..=0));
//! ```

pub mod eou;
pub mod model;
pub mod partition;
pub mod placement;
pub mod rd_dist;
pub mod sampling;
pub mod slip;

pub use eou::{EnergyOptimizerUnit, EouCost, EouDecision, EouObjective};
pub use model::{
    coefficients, coefficients_paper, slip_energy, slip_energy_direct, LevelModelParams,
};
pub use partition::{interleaved_partitions, PartitionedSlip};
pub use placement::{SlipLevel, SlipPlacement};
pub use rd_dist::{bin_for_distance, RdDistribution, PAPER_BINS, PAPER_BIN_BITS};
pub use sampling::{PageState, SamplingConfig, TimeSampler, Transition};
pub use slip::{Slip, SlipChunks, SlipError, MAX_SUBLEVELS};
