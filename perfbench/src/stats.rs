//! Order statistics for latency samples.
//!
//! A median is reported from any non-empty sample. A tail percentile is
//! reported only when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it,
//! so a p99 needs 1000 samples: below that it rests on a handful of
//! outliers and moves from run to run by chance.

/// Samples that must lie strictly beyond a tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty sample: every caller times at least one operation.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile (`pct` in 51..=99), or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!(
        (51..=99).contains(&pct),
        "tail percentile out of range: {pct}"
    );
    let n = samples.len();
    // 1-based nearest rank, ceil(pct·n/100), in integers so that p99 of
    // 1000 samples is rank 990 exactly.
    let rank = (pct * n).div_ceil(100);
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 99), None);
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        // Rank 990 of 0..1000 is 989, with exactly ten samples beyond it.
        assert_eq!(tail_percentile(&samples, 99), Some(989.0));
    }

    #[test]
    fn p90_needs_100_samples() {
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 90), None);
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 90), Some(89.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
