//! The Energy Optimizer Unit (paper Sections 3.2, 4.4, and 5).
//!
//! The EOU is an array of Energy Evaluation Units, one per candidate
//! SLIP, each preprogrammed with the coefficient vector `α` of Eq. 5.
//! Given a reuse-distance distribution it computes one dot product per
//! SLIP and returns the argmin. The paper's synthesized 45 nm RTL runs
//! one optimization per cycle at a 2-cycle latency, costs 1.27 pJ per
//! operation, and occupies 0.00366 mm² — carried here as [`EouCost`]
//! so the simulator can charge them. The energy per operation is a
//! property of the technology node (the hierarchy spec's `eou`
//! directive); latency and area are the synthesized constants.

use crate::model::{coefficients, coefficients_paper, LevelModelParams};
use crate::rd_dist::RdDistribution;
use crate::slip::Slip;
use energy_model::{Energy, HierarchySpec};

/// Which analytical objective the EOU's coefficient tables encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EouObjective {
    /// Eq. 1–4 plus the insertion term `Ē₀ · P(d > CC_M)` (each miss
    /// re-inserts the line into chunk 0). Required for the All-Bypass
    /// Policy to ever win; the default.
    #[default]
    InsertionAware,
    /// The paper's published Eq. 1–4 verbatim (access + movement +
    /// miss only). Pure-miss lines tie all caching SLIPs, and the
    /// Default-favoring tie-break leaves them spread across the cache.
    PaperLiteral,
}

/// Hardware cost of one EOU instance (paper Section 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EouCost {
    /// Latency of one optimization, in processor cycles.
    pub latency_cycles: u32,
    /// Optimizations accepted per cycle (fully pipelined).
    pub throughput_per_cycle: u32,
    /// Energy per optimization, including pipeline registers.
    pub energy_per_op: Energy,
    /// Synthesized area in mm² (TSMC 45 nm).
    pub area_mm2: f64,
}

impl EouCost {
    /// The paper's synthesized 45 nm figures. The energy per operation
    /// is the built-in `45nm` node's `eou` energy; a simulated system
    /// charges its own node's value instead (`SlipMmu::with_eou_energy`).
    pub fn paper_45nm() -> Self {
        let node = HierarchySpec::builtin("45nm").expect("built-in 45nm node");
        EouCost {
            latency_cycles: 2,
            throughput_per_cycle: 1,
            energy_per_op: Energy::from_pj(node.eou_op_pj),
            area_mm2: 0.003_66,
        }
    }
}

/// The decision produced by one EOU optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EouDecision {
    /// The energy-minimizing SLIP.
    pub slip: Slip,
    /// The model's estimated per-access energy under that SLIP.
    pub estimated_energy: Energy,
}

/// An Energy Optimizer Unit for one cache level.
///
/// # Example
///
/// ```
/// use energy_model::HierarchySpec;
/// use slip_core::{EnergyOptimizerUnit, LevelModelParams, RdDistribution};
///
/// let tech = HierarchySpec::builtin("45nm").unwrap().technology();
/// let params = LevelModelParams::from_level(&tech.l2, tech.l3.mean_access());
/// let mut eou = EnergyOptimizerUnit::new(&params);
///
/// // A line that always misses: the EOU chooses the All-Bypass Policy.
/// let mut dist = RdDistribution::paper_default();
/// for _ in 0..15 { dist.observe(3); }
/// let decision = eou.optimize(&dist);
/// assert!(decision.slip.is_all_bypass());
/// ```
#[derive(Debug, Clone)]
pub struct EnergyOptimizerUnit {
    sublevels: usize,
    /// Coefficients per candidate row (`sublevels + 1` bins).
    bins: usize,
    /// Candidate SLIPs in code order (code 0 = All-Bypass Policy).
    slips: Vec<Slip>,
    /// Flattened coefficient matrix, `matrix[code * bins + bin]` — one
    /// contiguous Eq. 5 `α` row per candidate so the argmin streams
    /// the whole table in a single pass.
    matrix: Vec<Energy>,
    /// Reusable probability scratch so `optimize` never allocates.
    probs: Vec<f64>,
    default_slip: Slip,
    cost: EouCost,
    /// When cleared, the All-Bypass Policy is excluded from the
    /// candidate pool ("SLIP" vs "SLIP+ABP" in the paper's figures).
    allow_abp: bool,
    /// Optimizations performed (for energy accounting).
    ops: u64,
}

impl PartialEq for EnergyOptimizerUnit {
    fn eq(&self, other: &Self) -> bool {
        // `probs` is transient scratch, not observable state.
        self.sublevels == other.sublevels
            && self.slips == other.slips
            && self.matrix == other.matrix
            && self.default_slip == other.default_slip
            && self.cost == other.cost
            && self.allow_abp == other.allow_abp
            && self.ops == other.ops
    }
}

impl EnergyOptimizerUnit {
    /// Builds an EOU for a level, precomputing the coefficient vectors
    /// of all `2^S` candidate SLIPs.
    pub fn new(params: &LevelModelParams) -> Self {
        Self::with_objective(params, EouObjective::InsertionAware)
    }

    /// Builds an EOU with an explicit objective (see [`EouObjective`]).
    pub fn with_objective(params: &LevelModelParams, objective: EouObjective) -> Self {
        let s = params.sublevels();
        let bins = s + 1;
        let slips = Slip::enumerate(s);
        let mut matrix = Vec::with_capacity(slips.len() * bins);
        for &slip in &slips {
            let alpha = match objective {
                EouObjective::InsertionAware => coefficients(params, slip),
                EouObjective::PaperLiteral => coefficients_paper(params, slip),
            };
            assert_eq!(alpha.len(), bins, "one coefficient per bin");
            matrix.extend_from_slice(&alpha);
        }
        EnergyOptimizerUnit {
            sublevels: s,
            bins,
            slips,
            matrix,
            probs: vec![0.0; bins],
            default_slip: Slip::default_slip(s).expect("1..=8 sublevels"),
            cost: EouCost::paper_45nm(),
            allow_abp: true,
            ops: 0,
        }
    }

    /// Overrides the hardware cost constants.
    pub fn with_cost(mut self, cost: EouCost) -> Self {
        self.cost = cost;
        self
    }

    /// Excludes the All-Bypass Policy from the candidate pool. The
    /// paper evaluates both configurations: "SLIP" (no ABP) and
    /// "SLIP+ABP".
    pub fn forbid_all_bypass(mut self) -> Self {
        self.allow_abp = false;
        self
    }

    /// `true` if the All-Bypass Policy may be chosen.
    pub fn allows_all_bypass(&self) -> bool {
        self.allow_abp
    }

    /// Number of candidate SLIPs (the paper's `P = 2^S`).
    pub fn candidates(&self) -> usize {
        self.slips.len()
    }

    /// The hardware cost constants of this unit.
    pub fn cost(&self) -> EouCost {
        self.cost
    }

    /// Optimizations performed so far.
    pub fn operations(&self) -> u64 {
        self.ops
    }

    /// Total EOU energy consumed so far.
    pub fn energy_consumed(&self) -> Energy {
        self.cost.energy_per_op * self.ops as f64
    }

    /// Zeroes the operation counter (for post-warmup measurement).
    pub fn reset_operations(&mut self) {
        self.ops = 0;
    }

    /// Finds the energy-minimizing SLIP for a distribution.
    ///
    /// An empty distribution (warmup) yields the Default SLIP, as the
    /// paper prescribes. Ties favor the Default SLIP, then the lower
    /// code.
    ///
    /// Allocation-free: the bin probabilities land in an internal
    /// scratch buffer and the argmin runs as one pass over the flat
    /// coefficient matrix ([`best_slip`](Self::best_slip)). The result
    /// is bit-identical to the allocating implementation, kept as
    /// [`optimize_reference`](Self::optimize_reference).
    pub fn optimize(&mut self, dist: &RdDistribution) -> EouDecision {
        self.ops += 1;
        dist.write_probabilities(&mut self.probs);
        if dist.is_empty() {
            return EouDecision {
                slip: self.default_slip,
                estimated_energy: self.dot(self.default_slip.code() as usize, &self.probs),
            };
        }
        self.best_slip(&self.probs)
    }

    /// The allocating implementation of [`optimize`](Self::optimize):
    /// allocates a fresh probability vector and folds each candidate's
    /// dot product through iterator `Sum`. Kept verbatim so
    /// golden-equivalence tests can prove the scratch-buffer path is
    /// bit-identical.
    pub fn optimize_reference(&mut self, dist: &RdDistribution) -> EouDecision {
        self.ops += 1;
        if dist.is_empty() {
            let probs = dist.probabilities();
            return EouDecision {
                slip: self.default_slip,
                estimated_energy: self.evaluate(self.default_slip, &probs),
            };
        }
        let probs = dist.probabilities();
        // Seed with the Default SLIP so ties keep regular behavior.
        let mut best = self.default_slip;
        let mut best_e = self.evaluate(best, &probs);
        for (code, &slip) in self.slips.iter().enumerate() {
            if slip.is_all_bypass() && !self.allow_abp {
                continue;
            }
            let alpha = &self.matrix[code * self.bins..(code + 1) * self.bins];
            let e: Energy = alpha.iter().zip(&probs).map(|(&a, &p)| a * p).sum();
            if e < best_e {
                best = slip;
                best_e = e;
            }
        }
        EouDecision {
            slip: best,
            estimated_energy: best_e,
        }
    }

    /// The argmin over the flat coefficient matrix: one dot product
    /// per candidate in code order, strict `<`, no allocation. Ties favor the Default SLIP, then the lower code,
    /// exactly as [`optimize`](Self::optimize).
    ///
    /// # Panics
    ///
    /// Panics if the probability slice length disagrees with the bin
    /// count.
    pub fn best_slip(&self, probs: &[f64]) -> EouDecision {
        assert_eq!(probs.len(), self.bins, "one probability per bin");
        // Seed with the Default SLIP so ties keep regular behavior.
        let mut best = self.default_slip;
        let mut best_e = self.dot(best.code() as usize, probs);
        // Code 0 is the All-Bypass Policy; skip it when forbidden.
        let start = usize::from(!self.allow_abp);
        for code in start..self.slips.len() {
            let e = self.dot(code, probs);
            if e < best_e {
                best = self.slips[code];
                best_e = e;
            }
        }
        EouDecision {
            slip: best,
            estimated_energy: best_e,
        }
    }

    /// One row dot product, accumulated in the same order as iterator
    /// `Sum` (fold from zero) so results stay bit-identical.
    #[inline]
    fn dot(&self, code: usize, probs: &[f64]) -> Energy {
        let row = &self.matrix[code * self.bins..(code + 1) * self.bins];
        let mut e = Energy::ZERO;
        for (&a, &p) in row.iter().zip(probs) {
            e += a * p;
        }
        e
    }

    /// Evaluates the model for one SLIP on bin probabilities.
    ///
    /// # Panics
    ///
    /// Panics if the probability vector length disagrees with the bin
    /// count, or the SLIP belongs to a different sublevel count.
    pub fn evaluate(&self, slip: Slip, probs: &[f64]) -> Energy {
        assert_eq!(slip.sublevels(), self.sublevels, "sublevel mismatch");
        assert_eq!(probs.len(), self.sublevels + 1, "one probability per bin");
        let code = slip.code() as usize;
        let alpha = &self.matrix[code * self.bins..(code + 1) * self.bins];
        alpha.iter().zip(probs).map(|(&a, &p)| a * p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::slip_energy;

    fn l2_params() -> LevelModelParams {
        LevelModelParams {
            sublevel_energy: vec![
                Energy::from_pj(21.0),
                Energy::from_pj(33.0),
                Energy::from_pj(50.0),
            ],
            sublevel_lines: vec![1024, 1024, 2048],
            next_level_energy: Energy::from_pj(136.0),
        }
    }

    fn l3_params() -> LevelModelParams {
        LevelModelParams {
            sublevel_energy: vec![
                Energy::from_pj(67.0),
                Energy::from_pj(113.0),
                Energy::from_pj(176.0),
            ],
            sublevel_lines: vec![8192, 8192, 16384],
            next_level_energy: Energy::from_pj(20.0 * 512.0),
        }
    }

    fn dist_from(counts: &[u16; 4]) -> RdDistribution {
        let mut d = RdDistribution::paper_default();
        for (bin, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                d.observe(bin);
            }
        }
        d
    }

    #[test]
    fn has_two_to_the_s_candidates() {
        let eou = EnergyOptimizerUnit::new(&l2_params());
        assert_eq!(eou.candidates(), 8);
    }

    #[test]
    fn empty_distribution_yields_default() {
        let mut eou = EnergyOptimizerUnit::new(&l2_params());
        let d = eou.optimize(&RdDistribution::paper_default());
        assert!(d.slip.is_default());
    }

    #[test]
    fn optimize_is_argmin_over_all_slips() {
        let mut eou = EnergyOptimizerUnit::new(&l2_params());
        let params = l2_params();
        for counts in [
            [15u16, 0, 0, 0],
            [0, 0, 0, 15],
            [10, 2, 1, 2],
            [2, 2, 2, 9],
            [8, 0, 4, 3],
            [1, 1, 1, 1],
        ] {
            let dist = dist_from(&counts);
            let probs = dist.probabilities();
            let decision = eou.optimize(&dist);
            for slip in Slip::enumerate(3) {
                let e = slip_energy(&params, slip, &probs);
                assert!(
                    decision.estimated_energy <= e + Energy::from_pj(1e-9),
                    "{slip} beats chosen {} for {counts:?}",
                    decision.slip
                );
            }
        }
    }

    #[test]
    fn streaming_lines_get_bypassed() {
        let mut eou = EnergyOptimizerUnit::new(&l2_params());
        let d = eou.optimize(&dist_from(&[0, 0, 0, 15]));
        assert!(d.slip.is_all_bypass());
    }

    #[test]
    fn forbidding_abp_excludes_it() {
        let mut eou = EnergyOptimizerUnit::new(&l2_params()).forbid_all_bypass();
        assert!(!eou.allows_all_bypass());
        let d = eou.optimize(&dist_from(&[0, 0, 0, 15]));
        assert!(!d.slip.is_all_bypass());
        // For a pure-miss line the cheapest non-ABP choice is the
        // smallest partial bypass {[0]}.
        assert_eq!(d.slip.to_string(), "{[0]}");
    }

    #[test]
    fn tight_loops_get_the_near_chunk() {
        let mut eou = EnergyOptimizerUnit::new(&l2_params());
        let d = eou.optimize(&dist_from(&[15, 0, 0, 0]));
        assert_eq!(d.slip.to_string(), "{[0]}");
        assert!((d.estimated_energy.as_pj() - 21.0).abs() < 1e-9);
    }

    #[test]
    fn l3_rarely_bypasses() {
        // Even a 3%-hit line is worth caching at L3 because a DRAM miss
        // costs 10.24 nJ.
        let mut eou = EnergyOptimizerUnit::new(&l3_params());
        let d = eou.optimize(&dist_from(&[1, 0, 0, 14]));
        assert!(!d.slip.is_all_bypass());
    }

    #[test]
    fn operations_and_energy_are_counted() {
        let mut eou = EnergyOptimizerUnit::new(&l2_params());
        assert_eq!(eou.operations(), 0);
        eou.optimize(&dist_from(&[1, 0, 0, 0]));
        eou.optimize(&RdDistribution::paper_default());
        assert_eq!(eou.operations(), 2);
        assert!((eou.energy_consumed().as_pj() - 2.0 * 1.27).abs() < 1e-9);
    }

    #[test]
    fn paper_cost_constants() {
        let c = EouCost::paper_45nm();
        assert_eq!(c.latency_cycles, 2);
        assert_eq!(c.throughput_per_cycle, 1);
        assert!((c.energy_per_op.as_pj() - 1.27).abs() < 1e-12);
        assert!((c.area_mm2 - 0.00366).abs() < 1e-9);
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        for forbid in [false, true] {
            let mut fast_eou = EnergyOptimizerUnit::new(&l2_params());
            let mut ref_eou = EnergyOptimizerUnit::new(&l2_params());
            if forbid {
                fast_eou = fast_eou.forbid_all_bypass();
                ref_eou = ref_eou.forbid_all_bypass();
            }
            for counts in [
                [0u16, 0, 0, 0],
                [15, 0, 0, 0],
                [0, 0, 0, 15],
                [10, 2, 1, 2],
                [2, 2, 2, 9],
                [8, 0, 4, 3],
                [1, 1, 1, 1],
                [3, 7, 11, 5],
            ] {
                let dist = dist_from(&counts);
                let fast = fast_eou.optimize(&dist);
                let slow = ref_eou.optimize_reference(&dist);
                assert_eq!(fast.slip, slow.slip, "{counts:?} forbid={forbid}");
                assert_eq!(
                    fast.estimated_energy.as_pj().to_bits(),
                    slow.estimated_energy.as_pj().to_bits(),
                    "{counts:?} forbid={forbid}"
                );
            }
            // Scratch contents are not state: both units compare equal.
            assert_eq!(fast_eou, ref_eou);
        }
    }

    #[test]
    fn best_slip_is_pure_and_allocation_free_interface() {
        let eou = EnergyOptimizerUnit::new(&l2_params());
        let d = eou.best_slip(&[0.0, 0.0, 0.0, 1.0]);
        assert!(d.slip.is_all_bypass());
        // Repeated calls on &self give the same answer (no hidden state).
        let d2 = eou.best_slip(&[0.0, 0.0, 0.0, 1.0]);
        assert_eq!(d.slip, d2.slip);
        assert_eq!(eou.operations(), 0, "best_slip does not count as an op");
    }

    #[test]
    fn evaluate_matches_model() {
        let eou = EnergyOptimizerUnit::new(&l2_params());
        let params = l2_params();
        let probs = [0.5, 0.2, 0.1, 0.2];
        for slip in Slip::enumerate(3) {
            let a = eou.evaluate(slip, &probs).as_pj();
            let b = slip_energy(&params, slip, &probs).as_pj();
            assert!((a - b).abs() < 1e-9);
        }
    }
}
