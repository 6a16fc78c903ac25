//! Randomized property tests of the SLIP mechanism's algebra:
//! policy-space structure, model monotonicity, EOU dominance, and
//! sampling statistics.
//!
//! Cases are drawn from seeded [`SplitMix64`] streams so every run is
//! deterministic without an external property-testing framework.

use cache_sim::rng::SplitMix64;
use cache_sim::{CacheGeometry, FillRequest, LineAddr, LineState, PlacementPolicy, WayMask};
use energy_model::Energy;
use slip_core::{
    coefficients, coefficients_paper, slip_energy, EnergyOptimizerUnit, EouObjective,
    LevelModelParams, PageState, RdDistribution, SamplingConfig, Slip, SlipLevel, SlipPlacement,
    TimeSampler,
};
use std::ops::RangeInclusive;

const CASES: u64 = 128;

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

/// Draws four bin counts below `bound` from the stream.
fn random_bins(rng: &mut SplitMix64, bound: u64) -> [u64; 4] {
    [
        rng.next_below(bound),
        rng.next_below(bound),
        rng.next_below(bound),
        rng.next_below(bound),
    ]
}

/// The number of chunks never exceeds the number of used sublevels,
/// and chunk count 0 iff the ABP; chunk ends rebuild the same SLIP.
#[test]
fn chunk_structure_and_rebuild() {
    for sublevels in 1usize..=8 {
        for code in 0..(1u16 << sublevels) {
            let slip = Slip::from_code(sublevels, code as u8).expect("valid");
            assert!(slip.num_chunks() <= slip.used_sublevels());
            assert_eq!(slip.num_chunks() == 0, slip.is_all_bypass());
            assert_eq!(slip.chunks().len(), slip.num_chunks());
            assert_eq!(slip.chunks().count(), slip.num_chunks());
            let ends: Vec<usize> = slip.chunks().map(|c| *c.end()).collect();
            let back = Slip::from_chunk_ends(sublevels, &ends).expect("valid ends");
            assert_eq!(back, slip);
        }
    }
}

/// Coefficient vectors are nonnegative and the miss bin is the most
/// expensive bin for every caching SLIP (it pays the next level).
#[test]
fn coefficients_shape() {
    let params = l2_params();
    for code in 0u8..8 {
        let slip = Slip::from_code(3, code).expect("valid");
        for alpha in [
            coefficients(&params, slip),
            coefficients_paper(&params, slip),
        ] {
            assert_eq!(alpha.len(), 4);
            for a in &alpha {
                assert!(a.as_pj() >= 0.0);
            }
            if !slip.is_all_bypass() {
                let miss = alpha.last().unwrap().as_pj();
                for a in &alpha[..3] {
                    assert!(miss >= a.as_pj() - 1e-9);
                }
            }
        }
    }
}

/// The insertion-aware objective never undercuts the paper-literal one
/// (it only adds a nonnegative term).
#[test]
fn insertion_term_is_nonnegative() {
    let params = l2_params();
    let mut rng = SplitMix64::new(0x17E);
    for _ in 0..CASES {
        let raw = random_bins(&mut rng, 100);
        let total: u64 = raw.iter().sum();
        if total == 0 {
            continue;
        }
        let probs: Vec<f64> = raw.iter().map(|&c| c as f64 / total as f64).collect();
        let slip = Slip::from_code(3, rng.next_below(8) as u8).expect("valid");
        let with: Energy = coefficients(&params, slip)
            .iter()
            .zip(&probs)
            .map(|(&a, &p)| a * p)
            .sum();
        let without: Energy = coefficients_paper(&params, slip)
            .iter()
            .zip(&probs)
            .map(|(&a, &p)| a * p)
            .sum();
        assert!(with >= without - Energy::from_pj(1e-9));
    }
}

/// The EOU's choice never loses to the Default SLIP under either
/// objective (Default is always a candidate).
#[test]
fn eou_never_worse_than_default() {
    let params = l2_params();
    let mut rng = SplitMix64::new(0xE0D);
    for case in 0..CASES {
        let objective = if case % 2 == 0 {
            EouObjective::PaperLiteral
        } else {
            EouObjective::InsertionAware
        };
        let mut eou = EnergyOptimizerUnit::with_objective(&params, objective);
        let mut d = RdDistribution::paper_default();
        for (bin, &c) in random_bins(&mut rng, 15).iter().enumerate() {
            for _ in 0..c {
                d.observe(bin);
            }
        }
        let decision = eou.optimize(&d);
        let def = Slip::default_slip(3).expect("valid");
        let def_e = eou.evaluate(def, &d.probabilities());
        assert!(decision.estimated_energy <= def_e + Energy::from_pj(1e-9));
    }
}

/// Halving preserves the distribution's argmax bin.
#[test]
fn halving_preserves_dominant_bin() {
    let mut rng = SplitMix64::new(0x4A1F);
    for _ in 0..CASES {
        let dominant = rng.next_below(4) as usize;
        let mut d = RdDistribution::paper_default();
        // Give the dominant bin twice the max of the others plus slack.
        let dom_count = 15u64;
        for bin in 0..4usize {
            if bin == dominant {
                continue;
            }
            let c = rng.next_below(7);
            for _ in 0..c {
                d.observe(bin);
            }
        }
        for _ in 0..dom_count {
            d.observe(dominant); // forces at least one halving
        }
        let counts = d.counts();
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[dominant], max);
    }
}

/// The sampler's long-run sampling fraction tracks the configured
/// stationary value for arbitrary (sane) configurations.
#[test]
fn sampler_tracks_stationary_fraction() {
    let mut rng = SplitMix64::new(0x5A3);
    for _ in 0..8 {
        let config = SamplingConfig {
            n_samp: 2 + rng.next_below(30),
            n_stab: 32 + rng.next_below(480),
        };
        let mut s = TimeSampler::with_config(rng.next_below(1000), config);
        let mut state = PageState::Sampling;
        let mut sampling = 0u64;
        let n = 200_000u64;
        for _ in 0..n {
            state = s.transition(state).state;
            if state == PageState::Sampling {
                sampling += 1;
            }
        }
        let f = sampling as f64 / n as f64;
        let expect = config.expected_sampling_fraction();
        assert!(
            (f - expect).abs() < 0.05,
            "measured {} expected {}",
            f,
            expect
        );
    }
}

/// slip_energy is scale-invariant in the probability vector only up to
/// the scale: E(k·p) = k·E(p) (linearity).
#[test]
fn model_is_linear() {
    let params = l2_params();
    let mut rng = SplitMix64::new(0x11E);
    for _ in 0..CASES {
        let slip = Slip::from_code(3, rng.next_below(8) as u8).expect("valid");
        let k = 0.1 + rng.next_f64() * 9.9;
        let p = [0.4, 0.3, 0.2, 0.1];
        let scaled: Vec<f64> = p.iter().map(|x| x * k).collect();
        let a = slip_energy(&params, slip, &p).as_pj() * k;
        let b = slip_energy(&params, slip, &scaled).as_pj();
        assert!((a - b).abs() < 1e-9);
    }
}

/// The heap-allocating chunk decoder `Slip::chunks` used to be, kept
/// here as the reference for the allocation-free one.
fn vec_chunks(slip: Slip) -> Vec<RangeInclusive<usize>> {
    let m = slip.used_sublevels();
    if m == 0 {
        return Vec::new();
    }
    let boundaries = slip.code() & !(1 << (m - 1));
    let mut out = Vec::new();
    let mut start = 0usize;
    for s in 0..m {
        let is_boundary = s + 1 < m && boundaries & (1 << s) != 0;
        if is_boundary || s + 1 == m {
            out.push(start..=s);
            start = s + 1;
        }
    }
    out
}

/// A level with `sublevels` sublevels of `ways_per` ways each.
fn striped_geometry(sublevels: usize, ways_per: usize) -> CacheGeometry {
    let rows: Vec<(usize, Energy, u32)> = (0..sublevels)
        .map(|i| (ways_per, Energy::from_pj(10.0 + i as f64), 4 + i as u32))
        .collect();
    CacheGeometry::from_sublevels(16, &rows)
}

/// A chunk's way mask as SLIP placement defined it over the `Vec`
/// decoder: the union of the chunk's sublevels, or, when `rng` is
/// given (the randomized variant), one of a multi-sublevel chunk's
/// sublevels drawn by way count.
fn vec_chunk_mask(
    geom: &CacheGeometry,
    chunk: &RangeInclusive<usize>,
    rng: Option<&mut SplitMix64>,
) -> WayMask {
    if let Some(rng) = rng.filter(|_| chunk.start() < chunk.end()) {
        let weights: Vec<u64> = chunk
            .clone()
            .map(|s| geom.sublevel_ways(s).count() as u64)
            .collect();
        return geom.sublevel_ways(chunk.start() + rng.pick_weighted(&weights));
    }
    chunk
        .clone()
        .fold(WayMask::EMPTY, |m, s| m.union(geom.sublevel_ways(s)))
}

/// For S = 1..=8, every code and every sublevel, the allocation-free
/// decoder, `chunk_of_sublevel` and SLIP placement's insertion and
/// demotion masks (plain and sublevel-randomized) agree with the
/// `Vec` decoder.
#[test]
fn chunk_decoder_matches_vec_decoder() {
    const SEED: u64 = 0x5eed;
    for sublevels in 1usize..=8 {
        let geom = striped_geometry(sublevels, 16 / sublevels);
        let mut plain = SlipPlacement::new(SlipLevel::L2, &geom);
        let mut randomized =
            SlipPlacement::new(SlipLevel::L3, &geom).with_randomized_victim_sublevel(SEED);
        let mut rng = SplitMix64::new(SEED);
        for code in 0..(1u16 << sublevels) {
            let slip = Slip::from_code(sublevels, code as u8).expect("valid");
            let reference = vec_chunks(slip);
            assert_eq!(slip.chunks().collect::<Vec<_>>(), reference, "{slip}");
            assert_eq!(slip.chunks().len(), reference.len(), "{slip}");

            let mut req = FillRequest::new(LineAddr(0));
            req.slip_codes = [slip.code(); 2];
            let expect = reference.first().map(|c| vec_chunk_mask(&geom, c, None));
            assert_eq!(plain.insertion_mask(&geom, &req), expect, "{slip}");
            let expect = reference
                .first()
                .map(|c| vec_chunk_mask(&geom, c, Some(&mut rng)));
            assert_eq!(randomized.insertion_mask(&geom, &req), expect, "{slip}");

            let mut line = LineState::new(LineAddr(0));
            line.slip_codes = [slip.code(); 2];
            for sublevel in 0..sublevels {
                let k = reference.iter().position(|c| c.contains(&sublevel));
                assert_eq!(slip.chunk_of_sublevel(sublevel), k, "{slip} s{sublevel}");
                let next = k.and_then(|k| reference.get(k + 1));
                // Every way of the sublevel demotes alike.
                for way in geom.sublevel_ways(sublevel).iter() {
                    let expect = next.map(|c| vec_chunk_mask(&geom, c, None));
                    assert_eq!(
                        plain.demotion_mask(&geom, &line, way),
                        expect,
                        "{slip} way {way}"
                    );
                    let expect = next.map(|c| vec_chunk_mask(&geom, c, Some(&mut rng)));
                    assert_eq!(
                        randomized.demotion_mask(&geom, &line, way),
                        expect,
                        "{slip} way {way}"
                    );
                }
            }
        }
    }
}
