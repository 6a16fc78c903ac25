//! Trace-driven set-associative cache simulator with sublevel-aware
//! energy accounting.
//!
//! This crate is the cache substrate of the SLIP reproduction: a
//! policy-free cache level ([`CacheLevel`]) whose behavior is injected
//! through two traits:
//!
//! * [`PlacementPolicy`] — which ways a line may be inserted into,
//!   demoted into on displacement, or promoted into on a hit. The SLIP
//!   policy, the NuRAPID and LRU-PEA baselines, and the regular cache
//!   ([`BaselinePolicy`]) are all placement policies.
//! * [`ReplacementPolicy`] — which victim to pick within the candidate
//!   ways ([`Lru`], [`RandomReplacement`], [`Drrip`], [`Ship`]).
//!
//! Every operation charges the energies of paper Table 2 into an
//! [`energy_model::EnergyAccount`], split by the categories of paper
//! Figure 11, and maintains the statistics behind Figures 1, 12, 14, and
//! 15.
//!
//! # Example: a 2-sublevel cache with LRU
//!
//! ```
//! use cache_sim::{AccessClass, AccessKind, BaselinePolicy, CacheGeometry,
//!                 CacheLevel, FillRequest, LineAddr, Lru};
//! use energy_model::Energy;
//!
//! let geom = CacheGeometry::from_sublevels(
//!     256,
//!     &[(4, Energy::from_pj(21.0), 4), (12, Energy::from_pj(45.0), 8)],
//! );
//! let mut cache = CacheLevel::new("L2", geom);
//! let mut policy = BaselinePolicy::new();
//! let mut repl = Lru::new();
//!
//! let line = LineAddr(0x40);
//! cache.fill(FillRequest::new(line), 0, &mut policy, &mut repl);
//! let res = cache.access(line, AccessKind::Read, AccessClass::Demand, 0,
//!                        &mut policy, &mut repl);
//! assert!(res.is_hit());
//! assert!(cache.energy().total() > Energy::ZERO);
//! ```

pub mod addr;
pub mod cache;
pub mod geometry;
pub mod hash;
pub mod line;
pub mod movement;
pub mod policy;
pub mod replacement;
pub mod rng;
pub mod soa;
pub mod stats;

pub use addr::{Access, AccessClass, AccessKind, LineAddr, PageId};
pub use cache::{AccessResult, CacheLevel, FillOutcome, HitInfo};
pub use geometry::{CacheGeometry, SublevelEnergies, WayMask};
pub use line::{EvictedLine, LineState};
pub use movement::MovementQueue;
pub use policy::{BaselinePolicy, FillRequest, InsertionClass, PlacementPolicy};
pub use replacement::{Drrip, Lru, RandomReplacement, ReplacementPolicy, Ship};
pub use soa::PackedLruStack;
pub use stats::CacheStats;
