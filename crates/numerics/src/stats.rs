//! Descriptive statistics over `f64` slices.
//!
//! The dense reductions (sum, variance, mean absolute difference) ride
//! the lane-accumulated kernels in [`crate::kernels`]: deterministic
//! fixed-order folds that autovectorize.

use crate::error::{NumericsError, Result};
use crate::kernels;

/// Sum of values (lane-accumulated, fixed fold order).
pub fn sum(xs: &[f64]) -> f64 {
    kernels::sum(xs)
}

/// Arithmetic mean; errors on empty input.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(NumericsError::InsufficientData { needed: 1, got: 0 });
    }
    Ok(sum(xs) / xs.len() as f64)
}

/// Population variance; errors on empty input.
pub fn variance(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    Ok(kernels::sum_sq_dev(xs, m) / xs.len() as f64)
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// Minimum (NaN-free input assumed); errors on empty input.
pub fn min(xs: &[f64]) -> Result<f64> {
    xs.iter()
        .copied()
        .reduce(f64::min)
        .ok_or(NumericsError::InsufficientData { needed: 1, got: 0 })
}

/// Maximum; errors on empty input.
pub fn max(xs: &[f64]) -> Result<f64> {
    xs.iter()
        .copied()
        .reduce(f64::max)
        .ok_or(NumericsError::InsufficientData { needed: 1, got: 0 })
}

/// `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
/// statistics, matching the common "type 7" definition.
///
/// The order statistics are found by selection in O(n), not by a full
/// sort: `lo` by `select_nth_unstable_by`, and `hi = lo + 1` as the
/// minimum of the part above it. Values that compare equal under
/// `total_cmp` have equal bits, so the result is bit-identical to reading
/// a `total_cmp`-sorted copy.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(NumericsError::InsufficientData { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(NumericsError::InvalidArgument(format!(
            "quantile q={q} outside [0, 1]"
        )));
    }
    let mut scratch = xs.to_vec();
    let pos = q * (scratch.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut below, above) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return Ok(below);
    }
    // `hi == lo + 1 < n`, so `above` is non-empty.
    let next = above
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(below);
    let frac = pos - lo as f64;
    Ok(below * (1.0 - frac) + next * frac)
}

/// Median (0.5-quantile).
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Median absolute deviation (robust spread).
pub fn mad(xs: &[f64]) -> Result<f64> {
    let med = median(xs)?;
    let dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&dev)
}

/// Mean absolute difference between paired slices (L1 distance / n).
pub fn mean_abs_diff(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("{} elements", a.len()),
            found: format!("{} elements", b.len()),
        });
    }
    if a.is_empty() {
        return Ok(0.0);
    }
    Ok(kernels::sum_abs_diff(a, b) / a.len() as f64)
}

/// Ranks of values (average ranks for ties), 1-based — the transform behind
/// Spearman correlation.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert_eq!(variance(&xs).unwrap(), 4.0);
        assert_eq!(std_dev(&xs).unwrap(), 2.0);
        assert_eq!(min(&xs).unwrap(), 2.0);
        assert_eq!(max(&xs).unwrap(), 9.0);
        assert!(mean(&[]).is_err());
        assert!(min(&[]).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert_eq!(median(&xs).unwrap(), 2.5);
        assert_eq!(quantile(&xs, 0.25).unwrap(), 1.75);
        assert!(quantile(&xs, 1.5).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn median_odd_length() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
    }

    #[test]
    fn mad_robust() {
        let xs = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        assert_eq!(mad(&xs).unwrap(), 1.0);
    }

    #[test]
    fn mean_abs_diff_pairs() {
        assert_eq!(mean_abs_diff(&[1.0, 2.0], &[2.0, 4.0]).unwrap(), 1.5);
        assert_eq!(mean_abs_diff(&[], &[]).unwrap(), 0.0);
        assert!(mean_abs_diff(&[1.0], &[]).is_err());
    }

    #[test]
    fn ranks_with_ties() {
        // [10, 20, 20, 30] -> ranks [1, 2.5, 2.5, 4]
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        // Already sorted distinct values are 1..n.
        assert_eq!(ranks(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        // Reverse order.
        assert_eq!(ranks(&[3.0, 2.0, 1.0]), vec![3.0, 2.0, 1.0]);
        assert!(ranks(&[]).is_empty());
    }
}
