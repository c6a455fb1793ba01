//! Correlation measures used by the ChARLES setup assistant.
//!
//! The assistant shortlists condition/transformation attributes whose
//! association with the target attribute exceeds a threshold (0.5 in the
//! paper). Numeric attributes use Pearson/Spearman; categorical attributes
//! use the correlation ratio (η), which plays the same role for
//! nominal → numeric association.

use crate::error::{NumericsError, Result};
use crate::kernels;
use crate::stats::{mean, ranks};

/// Pearson product-moment correlation in [-1, 1].
///
/// Returns 0.0 when either side has zero variance (no linear association
/// measurable) — the convenient convention for attribute screening.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("{} elements", x.len()),
            found: format!("{} elements", y.len()),
        });
    }
    if x.len() < 2 {
        return Err(NumericsError::InsufficientData {
            needed: 2,
            got: x.len(),
        });
    }
    let mx = mean(x)?;
    let my = mean(y)?;
    // Center once, then reduce through the fixed-fold-order kernels so
    // this screening statistic is bit-stable however the caller splits rows.
    let dx: Vec<f64> = x.iter().map(|&a| a - mx).collect();
    let dy: Vec<f64> = y.iter().map(|&b| b - my).collect();
    let sxy = kernels::dot(&dx, &dy);
    let sxx = kernels::dot(&dx, &dx);
    let syy = kernels::dot(&dy, &dy);
    if sxx == 0.0 || syy == 0.0 {
        return Ok(0.0);
    }
    Ok((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

/// Spearman rank correlation in [-1, 1]: Pearson over average ranks, so it
/// captures monotone (not just linear) association and resists outliers.
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("{} elements", x.len()),
            found: format!("{} elements", y.len()),
        });
    }
    pearson(&ranks(x), &ranks(y))
}

/// Correlation ratio η ∈ [0, 1]: how much of the variance of `y` is
/// explained by the grouping `labels` (η² = SS_between / SS_total).
///
/// `labels[i]` is an arbitrary group id (e.g. a dictionary code) for
/// observation `i`.
pub fn correlation_ratio(labels: &[u32], y: &[f64]) -> Result<f64> {
    if labels.len() != y.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("{} elements", labels.len()),
            found: format!("{} elements", y.len()),
        });
    }
    if y.len() < 2 {
        return Err(NumericsError::InsufficientData {
            needed: 2,
            got: y.len(),
        });
    }
    let grand_mean = mean(y)?;
    let ss_total = kernels::sum_sq_dev(y, grand_mean);
    if ss_total == 0.0 {
        return Ok(0.0);
    }
    // Group in label order (BTreeMap), then reduce the per-group terms
    // through the fixed-fold-order kernel: hash-ordered accumulation
    // here made η's low bits vary run to run, which is exactly the kind
    // of drift the bit-identity contract forbids.
    let mut sums: std::collections::BTreeMap<u32, (f64, usize)> = std::collections::BTreeMap::new();
    for (&l, &v) in labels.iter().zip(y.iter()) {
        let (sum_acc, count) = sums.entry(l).or_insert((0.0, 0));
        // Per-group partial sums accumulate in row order, fixed by the
        // input slice — not hash order.
        *sum_acc += v;
        *count += 1;
    }
    let terms: Vec<f64> = sums
        .values()
        .map(|&(s, n)| {
            let gm = s / n as f64;
            n as f64 * (gm - grand_mean).powi(2)
        })
        .collect();
    let ss_between = kernels::sum(&terms);
    Ok((ss_between / ss_total).clamp(0.0, 1.0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 1.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let y_neg: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &y_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn pearson_uncorrelated_near_zero() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&x, &y).unwrap().abs() < 0.5);
    }

    #[test]
    fn pearson_errors() {
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect(); // nonlinear but monotone
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        // Pearson is below 1 for the same data.
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_ratio_separated_groups() {
        // Group 0 clustered at 10, group 1 clustered at 20: eta near 1.
        let labels = [0, 0, 0, 1, 1, 1];
        let y = [10.0, 10.1, 9.9, 20.0, 20.1, 19.9];
        let eta = correlation_ratio(&labels, &y).unwrap();
        assert!(eta > 0.99, "eta = {eta}");
    }

    #[test]
    fn correlation_ratio_uninformative_groups() {
        let labels = [0, 1, 0, 1];
        let y = [1.0, 1.0, 3.0, 3.0];
        let eta = correlation_ratio(&labels, &y).unwrap();
        assert!(eta < 1e-9, "eta = {eta}");
    }

    #[test]
    fn correlation_ratio_constant_y() {
        assert_eq!(correlation_ratio(&[0, 1], &[5.0, 5.0]).unwrap(), 0.0);
    }

    #[test]
    fn correlation_ratio_errors() {
        assert!(correlation_ratio(&[0], &[1.0]).is_err());
        assert!(correlation_ratio(&[0, 1], &[1.0]).is_err());
    }
}
