//! Sample statistics and the regression-bound verdict.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0..=100) by linear interpolation between
/// closest ranks, the same rule as numpy's default.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest of the reported percentiles (p50, p90, p99, p99.9) that
/// has at least ten samples beyond it in a sample of `n`, or `None` when
/// even the median has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Whether a larger value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// Whether `new` is no worse than `base` by more than `bound`, a share
/// of `base`. The bound is relative at every magnitude, as the
/// comparison of two commits applies it.
pub fn within_bound(better: Better, bound: f64, base: f64, new: f64) -> bool {
    let allowed = bound * base.abs();
    let worse_by = match better {
        Better::Higher => base - new,
        Better::Lower => new - base,
    };
    worse_by <= allowed * (1.0 + 1e-12)
}

/// Whether two measurements of the same code agree: neither is worse
/// than the other by more than the bound.
pub fn agree(better: Better, bound: f64, a: f64, b: f64) -> bool {
    within_bound(better, bound, a, b) && within_bound(better, bound, b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn bound_is_relative_and_directional() {
        // 10% bound on a throughput of 50: 45 passes, 44 fails, and any
        // improvement passes.
        assert!(within_bound(Better::Higher, 0.1, 50.0, 45.0));
        assert!(!within_bound(Better::Higher, 0.1, 50.0, 44.0));
        assert!(within_bound(Better::Higher, 0.1, 50.0, 500.0));
        assert!(within_bound(Better::Lower, 0.1, 100.0, 110.0));
        assert!(!within_bound(Better::Lower, 0.1, 100.0, 111.0));
    }

    #[test]
    fn bound_stays_relative_for_small_times() {
        // 0.71 ms -> 0.98 ms of set-up is +38%: outside a 25% bound,
        // however small both are.
        assert!(!within_bound(Better::Lower, 0.25, 0.000_71, 0.000_98));
        assert!(within_bound(Better::Lower, 0.25, 0.000_71, 0.000_88));
        assert!(within_bound(Better::Lower, 0.1, 2.0, 2.2));
        assert!(!within_bound(Better::Lower, 0.1, 2.0, 2.21));
    }

    #[test]
    fn agreement_is_symmetric() {
        assert!(agree(Better::Higher, 0.1, 50.0, 46.0));
        assert!(agree(Better::Higher, 0.1, 46.0, 50.0));
        assert!(!agree(Better::Higher, 0.1, 40.0, 50.0));
        assert!(!agree(Better::Higher, 0.1, 50.0, 40.0));
    }
}
