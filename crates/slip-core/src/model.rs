//! The analytical energy model of paper Section 3.2 (Equations 1–4).
//!
//! For a line `x` with reuse-distance distribution `P_x` and a SLIP with
//! chunks `G_0..G_{M-1}`, the model estimates per-access energy as
//!
//! ```text
//! E_x = Σ_i E_access(x,i)  +  Σ_i E_move(x,i)  +  E_miss(x)  +  E_insert(x)
//! ```
//!
//! * **Access** (Eq. 2/3): references with reuse distance inside chunk
//!   `i`'s cumulative capacity window are served from chunk `i` at its
//!   mean energy `Ē_i`.
//! * **Movement** (Eq. 2): a line moves from chunk `i` to `i+1` whenever
//!   its reuse distance exceeds `CC_i`, costing `Ē_i + Ē_{i+1}`.
//! * **Miss** (Eq. 4): references beyond `CC_M` cost the next level's
//!   mean access energy `E_NL`.
//! * **Insertion** (documented model extension, see DESIGN.md §3): each
//!   miss re-inserts the line into chunk 0, costing `Ē_0`. The paper's
//!   energy accounting includes insertion energy in its movement group
//!   (Fig. 11 caption); without this term the All-Bypass Policy is
//!   dominated by `{[S0]}` for every distribution and Figure 14's bypass
//!   fractions are unreachable.
//!
//! Because every term is linear in the bin probabilities, the model
//! reduces to a per-SLIP coefficient vector `α` with `E = α · p`
//! (Eq. 5), which is what the [EOU](crate::eou) evaluates in hardware.

use crate::slip::Slip;
use energy_model::{Energy, LevelEnergyParams};

/// Hardware parameters the model needs for one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelModelParams {
    /// Mean access energy per sublevel, nearest first (`Ē` inputs).
    pub sublevel_energy: Vec<Energy>,
    /// Capacity per sublevel in lines.
    pub sublevel_lines: Vec<usize>,
    /// Mean access energy of the next level down (`E_NL`): the L3 mean
    /// for the L2 model, the DRAM line energy for the L3 model.
    pub next_level_energy: Energy,
}

impl LevelModelParams {
    /// Builds model parameters from a Table 2 level description and the
    /// next level's energy.
    pub fn from_level(level: &LevelEnergyParams, next_level_energy: Energy) -> Self {
        LevelModelParams {
            sublevel_energy: level.sublevel_access.clone(),
            sublevel_lines: level.sublevel_lines.clone(),
            next_level_energy,
        }
    }

    /// Number of sublevels.
    pub fn sublevels(&self) -> usize {
        self.sublevel_energy.len()
    }

    /// Number of distribution bins (`sublevels + 1`).
    pub fn bins(&self) -> usize {
        self.sublevels() + 1
    }

    /// Capacity-weighted mean access energy of a chunk of sublevels
    /// (`Ē_i` of Eq. 2/3).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn chunk_energy(&self, chunk: core::ops::RangeInclusive<usize>) -> Energy {
        let lines: usize = self.sublevel_lines[chunk.clone()].iter().sum();
        assert!(lines > 0, "chunk must have nonzero capacity");
        self.sublevel_energy[chunk.clone()]
            .iter()
            .zip(&self.sublevel_lines[chunk])
            .map(|(&e, &l)| e * (l as f64 / lines as f64))
            .sum()
    }
}

/// Computes the coefficient vector `α` of Eq. 5 for `slip` including
/// the insertion term: the expected per-access energy contributed by a
/// reference falling in each reuse-distance bin.
///
/// This is the objective used when the All-Bypass Policy is in the
/// candidate pool — without the insertion term the ABP can never win
/// (see the module docs).
///
/// The returned vector has `params.bins()` entries: bin `i < S` covers
/// distances within sublevel `i`'s cumulative capacity window, and the
/// last bin covers everything beyond the level.
///
/// # Panics
///
/// Panics if `slip.sublevels() != params.sublevels()`.
pub fn coefficients(params: &LevelModelParams, slip: Slip) -> Vec<Energy> {
    build_coefficients(params, slip, true)
}

/// Computes the coefficient vector of the paper's published Equations
/// 1–4 verbatim (access + movement + miss, no insertion term).
///
/// Under this objective a pure-miss distribution ties every
/// non-bypassing SLIP with the Default SLIP (they all pay `E_NL` per
/// reference), and the EOU's Default-favoring tie-break keeps such
/// lines from crowding the near sublevel. This is the objective used
/// for the paper's "SLIP" (no-ABP) configuration.
///
/// # Panics
///
/// Panics if `slip.sublevels() != params.sublevels()`.
pub fn coefficients_paper(params: &LevelModelParams, slip: Slip) -> Vec<Energy> {
    build_coefficients(params, slip, false)
}

fn build_coefficients(
    params: &LevelModelParams,
    slip: Slip,
    include_insertion: bool,
) -> Vec<Energy> {
    assert_eq!(
        slip.sublevels(),
        params.sublevels(),
        "SLIP and model must agree on sublevel count"
    );
    let s = params.sublevels();
    let m_used = slip.used_sublevels();
    let chunk_e: Vec<Energy> = slip.chunks().map(|c| params.chunk_energy(c)).collect();
    let mut alpha = vec![Energy::ZERO; s + 1];

    // Access energy: bin i (< m_used) is served from the chunk holding
    // sublevel i.
    for (bin, a) in alpha.iter_mut().enumerate().take(m_used) {
        let k = slip
            .chunk_of_sublevel(bin)
            .expect("bins below m are covered by a chunk");
        *a += chunk_e[k];
    }

    // Movement energy: crossing out of chunk k costs Ē_k + Ē_{k+1} for
    // every reference with reuse distance beyond chunk k's cumulative
    // capacity (bins starting at the chunk-end sublevel + 1).
    for (k, chunk) in slip
        .chunks()
        .enumerate()
        .take(chunk_e.len().saturating_sub(1))
    {
        let first_bin = *chunk.end() + 1;
        let cost = chunk_e[k] + chunk_e[k + 1];
        for a in alpha.iter_mut().skip(first_bin) {
            *a += cost;
        }
    }

    // Miss energy, plus (for the ABP-aware objective) the re-insertion
    // of the line into chunk 0 that every miss implies.
    let miss_cost = if chunk_e.is_empty() || !include_insertion {
        params.next_level_energy
    } else {
        params.next_level_energy + chunk_e[0]
    };
    for a in alpha.iter_mut().skip(m_used) {
        *a += miss_cost;
    }

    alpha
}

/// Evaluates the model for `slip` on bin probabilities `probs` by the
/// coefficient dot product of Eq. 5.
///
/// # Panics
///
/// Panics if `probs.len() != params.bins()`.
pub fn slip_energy(params: &LevelModelParams, slip: Slip, probs: &[f64]) -> Energy {
    assert_eq!(probs.len(), params.bins(), "one probability per bin");
    coefficients(params, slip)
        .iter()
        .zip(probs)
        .map(|(&a, &p)| a * p)
        .sum()
}

/// Evaluates the model for `slip` on `probs` directly from Equations
/// 1–4 (plus the insertion term), without going through coefficients.
///
/// Exists to cross-check [`coefficients`]; the two must agree exactly
/// (up to floating-point associativity).
///
/// # Panics
///
/// Panics if `probs.len() != params.bins()`.
pub fn slip_energy_direct(params: &LevelModelParams, slip: Slip, probs: &[f64]) -> Energy {
    assert_eq!(probs.len(), params.bins(), "one probability per bin");
    if slip.is_all_bypass() {
        // All-Bypass: every reference goes to the next level.
        return params.next_level_energy * probs.iter().sum::<f64>();
    }
    let chunk_e: Vec<Energy> = slip.chunks().map(|c| params.chunk_energy(c)).collect();
    let m_used = slip.used_sublevels();

    // Eq. 3: accesses served per chunk.
    let mut access = Energy::ZERO;
    for (k, c) in slip.chunks().enumerate() {
        let f: f64 = probs[c].iter().sum();
        access += chunk_e[k] * f;
    }

    // Eq. 2: movements out of each non-final chunk.
    let mut movement = Energy::ZERO;
    for (k, c) in slip.chunks().enumerate().take(chunk_e.len() - 1) {
        let p_beyond: f64 = probs[*c.end() + 1..].iter().sum();
        movement += (chunk_e[k] + chunk_e[k + 1]) * p_beyond;
    }

    // Eq. 4 + insertion extension.
    let p_miss: f64 = probs[m_used..].iter().sum();
    let miss = (params.next_level_energy + chunk_e[0]) * p_miss;

    access + movement + miss
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's L2 at 45 nm with the L3 mean as E_NL.
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

    /// The paper's L3 at 45 nm with the DRAM line energy as E_NL.
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

    #[test]
    fn chunk_energy_is_capacity_weighted() {
        let p = l2_params();
        assert_eq!(p.chunk_energy(0..=0).as_pj(), 21.0);
        // Sublevels 1..=2: (33*1024 + 50*2048) / 3072.
        let expect = (33.0 * 1024.0 + 50.0 * 2048.0) / 3072.0;
        assert!((p.chunk_energy(1..=2).as_pj() - expect).abs() < 1e-9);
        // Whole level mean ~ 38.5 pJ (Table 2 baseline ~ 39 pJ).
        assert!((p.chunk_energy(0..=2).as_pj() - 38.5).abs() < 1e-9);
    }

    #[test]
    fn coefficients_match_direct_evaluation_for_all_slips() {
        for params in [l2_params(), l3_params()] {
            for slip in Slip::enumerate(3) {
                // A spread of probability vectors, including corners.
                for probs in [
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.25, 0.25, 0.25, 0.25],
                    [0.7, 0.2, 0.05, 0.05],
                    [0.1, 0.0, 0.4, 0.5],
                ] {
                    let a = slip_energy(&params, slip, &probs).as_pj();
                    let b = slip_energy_direct(&params, slip, &probs).as_pj();
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{slip}: coeff {a} vs direct {b} for {probs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_bypass_costs_next_level_always() {
        let p = l2_params();
        let abp = Slip::all_bypass(3).unwrap();
        let e = slip_energy(&p, abp, &[0.25, 0.25, 0.25, 0.25]);
        assert!((e.as_pj() - 136.0).abs() < 1e-9);
    }

    #[test]
    fn default_slip_charges_mean_energy_on_hits() {
        let p = l2_params();
        let def = Slip::default_slip(3).unwrap();
        // All references hit within the level.
        let e = slip_energy(&p, def, &[1.0, 0.0, 0.0, 0.0]);
        assert!((e.as_pj() - 38.5).abs() < 1e-9);
        // All references miss: E_NL + re-insertion at chunk 0 (= whole
        // level for the default SLIP).
        let e = slip_energy(&p, def, &[0.0, 0.0, 0.0, 1.0]);
        assert!((e.as_pj() - (136.0 + 38.5)).abs() < 1e-9);
    }

    #[test]
    fn bypass_wins_for_streaming_lines_at_l2() {
        // A pure-miss line: ABP must beat every caching SLIP.
        let p = l2_params();
        let probs = [0.0, 0.0, 0.0, 1.0];
        let abp = Slip::all_bypass(3).unwrap();
        let e_abp = slip_energy(&p, abp, &probs);
        for slip in Slip::enumerate(3) {
            if slip != abp {
                assert!(
                    slip_energy(&p, slip, &probs) > e_abp,
                    "{slip} should lose to ABP on pure misses"
                );
            }
        }
    }

    #[test]
    fn near_chunk_wins_for_tight_loops() {
        // All reuse distances fit in sublevel 0: {[S0]} must beat the
        // Default SLIP (21 pJ vs 38.5 pJ per access).
        let p = l2_params();
        let probs = [1.0, 0.0, 0.0, 0.0];
        let near = Slip::from_chunk_ends(3, &[0]).unwrap();
        let def = Slip::default_slip(3).unwrap();
        assert!(slip_energy(&p, near, &probs) < slip_energy(&p, def, &probs));
        assert!((slip_energy(&p, near, &probs).as_pj() - 21.0).abs() < 1e-9);
    }

    #[test]
    fn tailored_slip_beats_default_for_bimodal_lines() {
        // The paper's cperm pattern: most hits near, some far, some miss.
        // The energy-optimal SLIP keeps a dedicated near chunk (here the
        // optimizer picks {[0]}: the sparse far hits don't pay for the
        // movement + far-chunk energy) and clearly beats the Default.
        let p = l2_params();
        let probs = [0.66, 0.0, 0.10, 0.24];
        let def = Slip::default_slip(3).unwrap();
        let e_def = slip_energy(&p, def, &probs);
        let best = Slip::enumerate(3)
            .into_iter()
            .min_by(|&a, &b| {
                slip_energy(&p, a, &probs)
                    .partial_cmp(&slip_energy(&p, b, &probs))
                    .unwrap()
            })
            .unwrap();
        assert!(slip_energy(&p, best, &probs) < e_def, "best {best}");
        // And the winner's first chunk is the energy-efficient near
        // sublevel alone.
        assert_eq!(best.chunks().next(), Some(0..=0), "best {best}");
    }

    #[test]
    fn l3_bypass_needs_far_lower_hit_rate_than_l2() {
        // The L2->L3 energy differential is small, the L3->DRAM one is
        // huge, so bypass is profitable at much lower hit rates at L2
        // (the paper's explanation for 27% vs 14% bypassing in Fig. 14).
        let near = Slip::from_chunk_ends(3, &[0]).unwrap();
        let abp = Slip::all_bypass(3).unwrap();
        let crossover = |params: &LevelModelParams| -> f64 {
            // Smallest p0 (rest misses) where caching in S0 beats ABP.
            let mut lo = 0.0f64;
            let mut hi = 1.0f64;
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                let probs = [mid, 0.0, 0.0, 1.0 - mid];
                if slip_energy(params, near, &probs) < slip_energy(params, abp, &probs) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        let l2_x = crossover(&l2_params());
        let l3_x = crossover(&l3_params());
        assert!(l2_x > 10.0 * l3_x, "L2 {l2_x} vs L3 {l3_x}");
        assert!(l2_x > 0.10 && l2_x < 0.25, "L2 crossover {l2_x}");
        assert!(l3_x < 0.01, "L3 crossover {l3_x}");
    }

    #[test]
    fn paper_variant_drops_only_the_insertion_term() {
        let p = l2_params();
        for slip in Slip::enumerate(3) {
            let with = coefficients(&p, slip);
            let without = coefficients_paper(&p, slip);
            let m = slip.used_sublevels();
            let e0 = slip
                .chunks()
                .next()
                .map(|c| p.chunk_energy(c))
                .unwrap_or(Energy::ZERO);
            for (bin, (a, b)) in with.iter().zip(&without).enumerate() {
                let diff = (*a - *b).as_pj();
                if bin >= m && !slip.is_all_bypass() {
                    assert!((diff - e0.as_pj()).abs() < 1e-9, "{slip} bin {bin}");
                } else {
                    assert!(diff.abs() < 1e-9, "{slip} bin {bin}");
                }
            }
        }
    }

    #[test]
    fn paper_variant_ties_pure_miss_lines_with_default() {
        // Under the published Eq. 1-4, a pure-miss line costs E_NL per
        // reference no matter which single-chunk SLIP holds it, so the
        // EOU's Default-favoring tie-break applies.
        let p = l2_params();
        let probs = [0.0, 0.0, 0.0, 1.0];
        let def = Slip::default_slip(3).unwrap();
        let near = Slip::from_chunk_ends(3, &[0]).unwrap();
        let e_def: Energy = coefficients_paper(&p, def)
            .iter()
            .zip(&probs)
            .map(|(&a, &x)| a * x)
            .sum();
        let e_near: Energy = coefficients_paper(&p, near)
            .iter()
            .zip(&probs)
            .map(|(&a, &x)| a * x)
            .sum();
        assert!((e_def - e_near).as_pj().abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "agree on sublevel count")]
    fn mismatched_sublevels_rejected() {
        let p = l2_params();
        coefficients(&p, Slip::default_slip(2).unwrap());
    }

    #[test]
    #[should_panic(expected = "one probability per bin")]
    fn wrong_prob_len_rejected() {
        let p = l2_params();
        slip_energy(&p, Slip::default_slip(3).unwrap(), &[1.0]);
    }
}
