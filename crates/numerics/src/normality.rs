//! Normality ("roundness") of numeric constants.
//!
//! The paper prefers summaries whose constants look like numbers a human
//! policy would contain: *"the condition `Age > 25` is more normal than
//! `Age > 23.796`, and 5% for a salary increase is more normal than
//! 2.479%"*. This module quantifies that preference and generates nearby
//! round candidates for snapping regression coefficients.

/// Number of significant decimal digits needed to write `x` exactly
/// (up to `max_digits`, relative tolerance 1e-9).
pub fn significant_digits(x: f64, max_digits: u32) -> u32 {
    if x == 0.0 || !x.is_finite() {
        return 1;
    }
    significant_digits_at(x, max_digits, magnitude_of(x))
}

/// [`significant_digits`] of a finite, non-zero `x` whose decimal
/// magnitude is `magnitude`: each rounding computed once.
fn significant_digits_at(x: f64, max_digits: u32, magnitude: f64) -> u32 {
    for d in 1..=max_digits {
        let rounded = round_at(x, d, magnitude);
        if rounded == x || ((rounded - x) / x).abs() < 1e-9 {
            return d;
        }
    }
    max_digits + 1
}

/// Round `x` to `digits` significant decimal digits.
pub fn round_to_significant(x: f64, digits: u32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    round_at(x, digits, magnitude_of(x))
}

/// The decimal magnitude of a finite, non-zero `x`: `⌊log10 |x|⌋`.
fn magnitude_of(x: f64) -> f64 {
    x.abs().log10().floor()
}

/// Round `x`, of decimal magnitude `magnitude`, to `digits` significant
/// decimal digits.
fn round_at(x: f64, digits: u32, magnitude: f64) -> f64 {
    let factor = 10f64.powf(digits as f64 - 1.0 - magnitude);
    (x * factor).round() / factor
}

/// Normality score in [0, 1]: 1.0 for maximally round constants (single
/// significant digit, like 5% or $1000), decaying with every extra digit
/// of precision required. Constants needing more than 6 significant digits
/// score 0.
///
/// ```
/// use charles_numerics::normality::roundness;
/// assert!(roundness(25.0) > roundness(23.796));
/// assert!(roundness(0.05) > roundness(0.02479));
/// assert_eq!(roundness(1000.0), 1.0);
/// ```
pub fn roundness(x: f64) -> f64 {
    if !x.is_finite() {
        return 0.0;
    }
    if x == 0.0 {
        return 1.0;
    }
    const SCORES: [f64; 7] = [1.0, 0.85, 0.65, 0.4, 0.2, 0.1, 0.0];
    let magnitude = magnitude_of(x);
    let d = significant_digits_at(x, 7, magnitude) as usize;
    let base = SCORES[(d - 1).min(6)];
    // A trailing significant digit of 5 reads "half a digit rounder":
    // 25 beats 26, 1.05 beats 1.04 (quarter-steps and nickel-steps are
    // what human policies use).
    if (2..=7).contains(&d) && trailing_significant_digit(x, d as u32, magnitude) == 5 {
        let prev = SCORES[d - 2];
        return (prev + base) / 2.0;
    }
    base
}

/// The last significant decimal digit of `x`, of decimal magnitude
/// `magnitude`, when written with `digits` significant digits.
fn trailing_significant_digit(x: f64, digits: u32, magnitude: f64) -> u8 {
    let scaled = (x.abs() * 10f64.powf(digits as f64 - 1.0 - magnitude)).round();
    (scaled % 10.0) as u8
}

/// Mean roundness over a set of constants (1.0 for the empty set: an
/// expression with no constants has nothing un-normal about it).
pub fn mean_roundness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    // lint:allow(float-fold-order: interpretability heuristic over a handful of constants, order fixed by the slice)
    xs.iter().map(|&x| roundness(x)).sum::<f64>() / xs.len() as f64
}

/// Nearby "nice" values for `x`, ordered by distance from `x`
/// (deduplicated; always non-empty; includes `x` itself last so callers can
/// fall back to the raw value).
///
/// Candidates: roundings to 1–3 significant digits, plus roundings to
/// human-scale grids appropriate to the magnitude of `x` (e.g. multiples of
/// 0.005 for percent-like values, multiples of 50/100/500/1000 for
/// dollar-like values).
pub fn snap_candidates(x: f64) -> Vec<f64> {
    scored_snap_candidates(x)
        .into_iter()
        .map(|(c, _)| c)
        .collect()
}

/// [`snap_candidates`], each paired with its [`roundness`], for callers
/// that rank candidates by it.
pub fn scored_snap_candidates(x: f64) -> Vec<(f64, f64)> {
    if !x.is_finite() {
        return vec![(x, roundness(x))];
    }
    let mut cands: Vec<f64> = Vec::new();
    for d in 1..=3 {
        cands.push(round_to_significant(x, d));
    }
    let magnitude = if x == 0.0 { 0.0 } else { magnitude_of(x) };
    // Human-scale grid steps by magnitude: 1.05 snaps on 0.005/0.01/0.025;
    // 997.3 snaps on 5/10/25/50/...
    let grids: &[f64] = if magnitude < 1.0 {
        &[0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5]
    } else if magnitude < 3.0 {
        &[0.25, 0.5, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0]
    } else {
        &[10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0]
    };
    for &g in grids {
        cands.push((x / g).round() * g);
    }
    cands.push(x);
    // Order by distance, rounder first on ties, with each key computed
    // once per candidate; the sort is stable, so equal keys keep their
    // push order. Then deduplicate (bitwise; fine for candidate pruning)
    // keeping that order: a dozen candidates need no hash set.
    let mut keyed: Vec<(f64, f64, f64)> = cands
        .into_iter()
        .map(|c| ((c - x).abs(), roundness(c), c))
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(keyed.len());
    for (_, r, c) in keyed {
        if !out.iter().any(|(o, _)| o.to_bits() == c.to_bits()) {
            out.push((c, r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn significant_digit_counting() {
        assert_eq!(significant_digits(1000.0, 7), 1);
        assert_eq!(significant_digits(0.05, 7), 1);
        assert_eq!(significant_digits(25.0, 7), 2);
        assert_eq!(significant_digits(1.05, 7), 3);
        assert_eq!(significant_digits(23.796, 7), 5);
        assert_eq!(significant_digits(0.0, 7), 1);
    }

    #[test]
    fn rounding_to_significant() {
        assert_eq!(round_to_significant(23.796, 2), 24.0);
        assert_eq!(round_to_significant(23.796, 1), 20.0);
        assert_eq!(round_to_significant(0.02479, 1), 0.02);
        assert_eq!(round_to_significant(-1234.0, 2), -1200.0);
        assert_eq!(round_to_significant(0.0, 3), 0.0);
    }

    #[test]
    fn paper_examples_ordering() {
        // "Age > 25" more normal than "Age > 23.796".
        assert!(roundness(25.0) > roundness(23.796));
        // 5% more normal than 2.479%.
        assert!(roundness(0.05) > roundness(0.02479));
        // 1.05 (the R1 coefficient) is decently normal; 1.0497213 is not.
        assert!(roundness(1.05) > roundness(1.049_721_3));
    }

    #[test]
    fn roundness_bounds() {
        for &x in &[0.0, 1.0, -5.0, 1.05, 23.796, 0.02479, 1e308, f64::NAN] {
            let r = roundness(x);
            assert!((0.0..=1.0).contains(&r), "roundness({x}) = {r}");
        }
        assert_eq!(roundness(f64::NAN), 0.0);
        assert_eq!(roundness(0.0), 1.0);
    }

    #[test]
    fn mean_roundness_empty_is_one() {
        assert_eq!(mean_roundness(&[]), 1.0);
        assert!(mean_roundness(&[1000.0, 0.05]) > 0.9);
    }

    #[test]
    fn snap_candidates_contain_obvious_targets() {
        let cands = snap_candidates(1.0497);
        assert!(
            cands.iter().any(|&c| (c - 1.05).abs() < 1e-12),
            "1.05 missing from {cands:?}"
        );
        let cands = snap_candidates(997.3);
        assert!(cands.contains(&1000.0), "1000 missing from {cands:?}");
        let cands = snap_candidates(0.0397);
        assert!(cands.iter().any(|&c| (c - 0.04).abs() < 1e-12));
    }

    #[test]
    fn snap_candidates_ordered_by_distance() {
        let x = 812.0;
        let cands = snap_candidates(x);
        for w in cands.windows(2) {
            assert!(
                (w[0] - x).abs() <= (w[1] - x).abs() + 1e-9,
                "candidates out of order: {cands:?}"
            );
        }
        // Raw value is always available.
        assert!(cands.contains(&x));
    }

    #[test]
    fn snap_candidates_nonfinite_passthrough() {
        assert_eq!(snap_candidates(f64::NAN).len(), 1);
    }
}
