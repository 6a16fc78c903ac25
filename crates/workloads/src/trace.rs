//! Trace generation: phased, weighted mixtures of elementary patterns.

use crate::pattern::{PatternSpec, PatternState};
use cache_sim::rng::SplitMix64;
use cache_sim::Access;

/// One execution phase: a weighted pattern mixture active for a
/// fraction of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Fraction of the total trace length this phase occupies.
    pub fraction: f64,
    /// The mixture active during the phase.
    pub patterns: Vec<PatternSpec>,
}

/// A complete workload: named, phased mixture of patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    name: String,
    phases: Vec<PhaseSpec>,
}

impl WorkloadSpec {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if there are no phases, a phase has no patterns, or the
    /// phase fractions do not sum to 1 (±1e-6).
    pub fn new(name: impl Into<String>, phases: Vec<PhaseSpec>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        for ph in &phases {
            assert!(!ph.patterns.is_empty(), "phase needs patterns");
            assert!(ph.fraction > 0.0, "phase fraction must be positive");
        }
        let sum: f64 = phases.iter().map(|p| p.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-6, "phase fractions must sum to 1");
        WorkloadSpec {
            name: name.into(),
            phases,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phases.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Creates a bounded trace iterator of `len` accesses.
    ///
    /// Each pattern gets a private 4 GiB-aligned region of the address
    /// space (per pattern index across all phases), so patterns never
    /// alias. `address_offset` shifts the whole workload's address
    /// space, letting multicore runs give each core disjoint memory.
    pub fn trace(&self, len: u64, seed: u64) -> Trace {
        self.trace_at(len, seed, 0)
    }

    /// Like [`trace`](Self::trace), with the workload placed at
    /// `address_offset` (must be 4 GiB-aligned to preserve non-aliasing;
    /// enforced).
    ///
    /// # Panics
    ///
    /// Panics if `address_offset` is not 4 GiB-aligned.
    pub fn trace_at(&self, len: u64, seed: u64, address_offset: u64) -> Trace {
        assert_eq!(
            address_offset % (1 << 32),
            0,
            "address offset must be 4 GiB-aligned"
        );
        let base_line = address_offset / 64;
        let mut pattern_index = 0u64;
        let phases: Vec<PhaseState> = self
            .phases
            .iter()
            .map(|ph| {
                let states: Vec<PatternState> = ph
                    .patterns
                    .iter()
                    .map(|spec| {
                        pattern_index += 1;
                        // 4 GiB (2^26 lines) apart per pattern.
                        PatternState::new(spec, base_line + (pattern_index << 26))
                    })
                    .collect();
                PhaseState {
                    // A pattern is scheduled for `burst` consecutive
                    // accesses per turn; picking bursts with probability
                    // proportional to weight/burst keeps each pattern's
                    // long-run access share proportional to its weight.
                    pick_weights: ph
                        .patterns
                        .iter()
                        .map(|p| (u64::from(p.weight) << 16) / u64::from(p.burst))
                        .collect(),
                    bursts: ph.patterns.iter().map(|p| p.burst).collect(),
                    states,
                }
            })
            .collect();
        // Cumulative end index of each phase within the trace.
        let mut acc = 0.0;
        let ends: Vec<u64> = self
            .phases
            .iter()
            .map(|p| {
                acc += p.fraction;
                (acc * len as f64).round() as u64
            })
            .collect();
        Trace {
            rng: SplitMix64::new(seed ^ 0xC0FF_EE00),
            phases,
            phase_ends: ends,
            produced: 0,
            len,
            current_phase: 0,
            current_pattern: 0,
            burst_left: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct PhaseState {
    pick_weights: Vec<u64>,
    bursts: Vec<u32>,
    states: Vec<PatternState>,
}

/// A bounded iterator of [`Access`]es, produced by
/// [`WorkloadSpec::trace`].
#[derive(Debug, Clone)]
pub struct Trace {
    rng: SplitMix64,
    phases: Vec<PhaseState>,
    phase_ends: Vec<u64>,
    produced: u64,
    len: u64,
    current_phase: usize,
    current_pattern: usize,
    burst_left: u32,
}

impl Iterator for Trace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.produced >= self.len {
            return None;
        }
        let phase_before = self.current_phase;
        while self.current_phase + 1 < self.phases.len()
            && self.produced >= self.phase_ends[self.current_phase]
        {
            self.current_phase += 1;
        }
        if self.current_phase != phase_before {
            self.burst_left = 0;
        }
        let phase = &mut self.phases[self.current_phase];
        if self.burst_left == 0 {
            self.current_pattern = self.rng.pick_weighted(&phase.pick_weights);
            self.burst_left = phase.bursts[self.current_pattern];
        }
        self.burst_left -= 1;
        let access = phase.states[self.current_pattern].next_access(&mut self.rng);
        self.produced += 1;
        Some(access)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.len - self.produced) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Trace {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use std::collections::HashSet;

    fn two_phase_spec() -> WorkloadSpec {
        WorkloadSpec::new(
            "test",
            vec![
                PhaseSpec {
                    fraction: 0.5,
                    patterns: vec![PatternSpec::new(PatternKind::Loop { region_kb: 4 }, 1, 0.0)],
                },
                PhaseSpec {
                    fraction: 0.5,
                    patterns: vec![PatternSpec::new(PatternKind::Loop { region_kb: 8 }, 1, 0.0)],
                },
            ],
        )
    }

    #[test]
    fn trace_has_exact_length() {
        let w = two_phase_spec();
        let t = w.trace(1000, 1);
        assert_eq!(t.len, 1000);
        assert_eq!(t.count(), 1000);
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        // A random pattern so the seed actually matters.
        let w = WorkloadSpec::new(
            "rand",
            vec![PhaseSpec {
                fraction: 1.0,
                patterns: vec![PatternSpec::new(
                    PatternKind::Random { region_kb: 1024 },
                    1,
                    0.2,
                )],
            }],
        );
        let a: Vec<_> = w.trace(500, 7).collect();
        let b: Vec<_> = w.trace(500, 7).collect();
        let c: Vec<_> = w.trace(500, 8).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn phases_switch_at_the_boundary() {
        let w = two_phase_spec();
        let accesses: Vec<_> = w.trace(1000, 1).collect();
        // Phase 1 uses pattern index 1's region; phase 2 pattern index
        // 2's. Regions are 2^26 lines apart.
        let first: HashSet<u64> = accesses[..500].iter().map(|a| a.line().0 >> 26).collect();
        let second: HashSet<u64> = accesses[500..].iter().map(|a| a.line().0 >> 26).collect();
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        assert_ne!(first, second);
    }

    #[test]
    fn patterns_never_alias_across_streams() {
        let w = WorkloadSpec::new(
            "multi",
            vec![PhaseSpec {
                fraction: 1.0,
                patterns: vec![
                    PatternSpec::new(PatternKind::Random { region_kb: 1024 }, 1, 0.0),
                    PatternSpec::new(PatternKind::Scan { region_kb: 1024 }, 1, 0.0),
                ],
            }],
        );
        let regions: HashSet<u64> = w.trace(5000, 3).map(|a| a.line().0 >> 26).collect();
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn address_offset_relocates_the_workload() {
        let w = two_phase_spec();
        let base: Vec<_> = w.trace(100, 1).collect();
        let moved: Vec<_> = w.trace_at(100, 1, 1 << 40).collect();
        for (a, b) in base.iter().zip(&moved) {
            assert_eq!(b.addr, a.addr + (1 << 40));
            assert_eq!(b.kind, a.kind);
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_fractions_rejected() {
        WorkloadSpec::new(
            "bad",
            vec![PhaseSpec {
                fraction: 0.7,
                patterns: vec![PatternSpec::new(PatternKind::Scan { region_kb: 1 }, 1, 0.0)],
            }],
        );
    }

    #[test]
    #[should_panic(expected = "4 GiB-aligned")]
    fn misaligned_offset_rejected() {
        two_phase_spec().trace_at(10, 1, 4096);
    }
}
