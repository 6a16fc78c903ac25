//! Wire/bank energy models, cache topologies, and energy accounting.
//!
//! This crate is the energy substrate of the SLIP reproduction. It provides:
//!
//! * [`Energy`] — a picojoule newtype used throughout the workspace so that
//!   energy quantities cannot be confused with latencies or counts.
//! * [`params`] — the per-node energy parameter types ([`TechnologyParams`],
//!   [`LevelEnergyParams`]), built from a hierarchy spec.
//! * [`topology`] — a geometric wire-energy model for the three cache
//!   topologies of paper Figure 4 (hierarchical bus with way or set
//!   interleaving, and H-tree), used both to validate the Table 2 constants
//!   and to drive the Section 2.1 H-tree comparison experiment.
//! * [`account`] — an [`account::EnergyAccount`] accumulator that splits
//!   consumed energy into the categories reported in paper Figure 11
//!   (access, movement, insertion, writeback, metadata, ...).
//! * [`spec`] — declarative hierarchy specs: a std-only text format
//!   describing per-level geometry and read/write/insertion energies
//!   (including asymmetric STT-RAM nodes), with built-in `45nm`,
//!   `22nm`, and `stt-llc` nodes and line/column/byte diagnostics. The
//!   built-in spec text is the only place the paper's Table 1/Table 2
//!   numbers are written down.
//!
//! # Example
//!
//! ```
//! use energy_model::{Energy, HierarchySpec};
//!
//! // Access energy of the nearest L2 sublevel at 45 nm (paper Table 2).
//! let tech = HierarchySpec::builtin("45nm").unwrap().technology();
//! assert_eq!(tech.l2.sublevel_access[0], Energy::from_pj(21.0));
//! ```

pub mod account;
pub mod params;
pub mod spec;
pub mod topology;

pub use account::{EnergyAccount, EnergyCategory, EnergyLedger};
pub use params::{LevelEnergyParams, TechnologyParams};
pub use spec::{HierarchySpec, L1Spec, LevelSpec, SpecError, SublevelSpec, BUILTIN_NAMES};
pub use topology::{BankGrid, Topology, WireParams};

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An amount of energy, stored in picojoules.
///
/// `Energy` is a transparent `f64` newtype: it exists so that the many `f64`
/// quantities flowing through the simulator (energies, latencies, counts,
/// probabilities) cannot be accidentally mixed. All arithmetic needed by the
/// analytical model of paper Section 3.2 is provided (`+`, `-`, scaling by
/// `f64`, summation, division producing a dimensionless ratio).
///
/// # Example
///
/// ```
/// use energy_model::Energy;
///
/// let read = Energy::from_pj(21.0);
/// let write = Energy::from_pj(33.0);
/// let movement = read + write;
/// assert_eq!(movement.as_pj(), 54.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from a picojoule value.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `pj` is NaN.
    #[inline]
    pub fn from_pj(pj: f64) -> Self {
        debug_assert!(!pj.is_nan(), "energy must not be NaN");
        Energy(pj)
    }

    /// Returns the value in picojoules.
    #[inline]
    pub fn as_pj(self) -> f64 {
        self.0
    }

    /// Returns the value in nanojoules.
    #[inline]
    pub fn as_nj(self) -> f64 {
        self.0 / 1e3
    }

    /// Returns the value in microjoules.
    #[inline]
    pub fn as_uj(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns the smaller of two energies.
    #[inline]
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// Returns the larger of two energies.
    #[inline]
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// `true` if this energy is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    #[inline]
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    /// Dividing two energies yields a dimensionless ratio.
    type Output = f64;
    #[inline]
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Energy> for Energy {
    fn sum<I: Iterator<Item = &'a Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |acc, e| acc + *e)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.3} uJ", self.as_uj())
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.3} nJ", self.as_nj())
        } else {
            write!(f, "{:.3} pJ", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trip() {
        let a = Energy::from_pj(10.0);
        let b = Energy::from_pj(4.0);
        assert_eq!((a + b).as_pj(), 14.0);
        assert_eq!((a - b).as_pj(), 6.0);
        assert_eq!((a * 2.0).as_pj(), 20.0);
        assert_eq!((2.0 * a).as_pj(), 20.0);
        assert_eq!((a / 2.0).as_pj(), 5.0);
        assert_eq!(a / b, 2.5);
    }

    #[test]
    fn unit_conversions() {
        let e = Energy::from_pj(1500.0);
        assert_eq!(e.as_pj(), 1500.0);
        assert!((e.as_nj() - 1.5).abs() < 1e-12);
        assert!((Energy::from_pj(2e6).as_uj() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = [
            Energy::from_pj(1.0),
            Energy::from_pj(2.0),
            Energy::from_pj(3.0),
        ];
        let owned: Energy = parts.iter().copied().sum();
        let borrowed: Energy = parts.iter().sum();
        assert_eq!(owned.as_pj(), 6.0);
        assert_eq!(borrowed.as_pj(), 6.0);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Energy::from_pj(21.0).to_string(), "21.000 pJ");
        assert_eq!(Energy::from_pj(10_240.0).to_string(), "10.240 nJ");
        assert_eq!(Energy::from_pj(3.5e6).to_string(), "3.500 uJ");
    }

    #[test]
    fn min_max_zero() {
        let a = Energy::from_pj(1.0);
        let b = Energy::from_pj(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(Energy::ZERO.is_zero());
        assert!(!a.is_zero());
        assert_eq!(Energy::default(), Energy::ZERO);
    }

    #[test]
    fn add_sub_assign() {
        let mut e = Energy::from_pj(5.0);
        e += Energy::from_pj(3.0);
        assert_eq!(e.as_pj(), 8.0);
        e -= Energy::from_pj(2.0);
        assert_eq!(e.as_pj(), 6.0);
    }
}
